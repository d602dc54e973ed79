//! Churny swarm: selfish peers quit when treated unfairly — the paper's
//! motivating feedback loop (§1), observed live.
//!
//! ```text
//! cargo run --release --example churny_swarm
//! ```
//!
//! Every peer tolerates a contribution/benefit ratio up to a threshold and
//! disconnects beyond it. Under classic gossip the low-benefit peers blow
//! through the threshold and leave; under fair gossip almost everyone
//! stays. The example prints the population over time for both protocols.

use fed::core::behavior::Behavior;
use fed::core::gossip::{GossipConfig, GossipNode};
use fed::pubsub::{Command, Event, EventId, TopicId};
use fed::sim::network::NetworkModel;
use fed::sim::{NodeId, SimDuration, SimTime, Simulation};

fn run_swarm(config: GossipConfig, label: &str) -> Vec<(u64, usize)> {
    let n = 80;
    let tolerance = 25.0;
    let mut sim = Simulation::new(n, NetworkModel::default(), 3, move |id, _| {
        GossipNode::with_behavior(
            id,
            n,
            config.clone(),
            Behavior::Aggrieved {
                ratio_threshold: tolerance,
                patience_rounds: 50,
            },
        )
    });
    // A fifth of the peers are heavy consumers; the rest dabble.
    let topic = TopicId::new(0);
    let niche = TopicId::new(1);
    for i in 0..n {
        let t = if i % 5 == 0 { topic } else { niche };
        sim.schedule_command(SimTime::ZERO, NodeId::new(i as u32), Command::Subscribe(t));
    }
    // The busy topic gets all the traffic; the publishers are themselves
    // busy-topic consumers (multiples of 5), so publishing cost lands on
    // peers who also benefit.
    for k in 0..600u32 {
        let publisher = (k % 7) * 5;
        sim.schedule_command(
            SimTime::from_millis(1_000 + 50 * k as u64),
            NodeId::new(publisher),
            Command::Publish(Event::bare(EventId::new(publisher, k / 7), topic)),
        );
    }

    // Drive: every 2 s, let aggrieved users quit.
    let mut series = Vec::new();
    for sec in (2..=40u64).step_by(2) {
        sim.run_until(SimTime::from_secs(sec));
        let quitters: Vec<NodeId> = sim
            .nodes()
            .filter(|(id, node)| {
                sim.is_alive(*id)
                    && node.behavior().wants_to_leave(
                        node.endpoint().ledger(),
                        &GossipConfig::classic(1, 1).spec,
                        node.rounds(),
                    )
            })
            .map(|(id, _)| id)
            .collect();
        for id in quitters {
            sim.schedule_crash(sim.now(), id);
        }
        sim.run_until(SimTime::from_secs(sec) + SimDuration::from_millis(1));
        series.push((sec, sim.alive_ids().len()));
    }
    let survivors = series.last().map(|(_, s)| *s).unwrap_or(0);
    println!("{label:>15}: {survivors}/{n} peers still in the swarm after 40 s");
    series
}

fn main() {
    println!("selfish peers quit above ratio 25 (patience: 50 rounds)\n");
    let classic = run_swarm(GossipConfig::classic(8, 16), "classic gossip");
    let fair = run_swarm(GossipConfig::fair(8, 16), "fair gossip");

    println!("\n   t(s)   classic   fair");
    for ((t, c), (_, f)) in classic.iter().zip(&fair) {
        let bar_c = "#".repeat(*c / 4);
        println!("  {t:>4}   {c:>5}     {f:>4}   {bar_c}");
    }
    println!("\nunfairness drains the swarm; fairness keeps it intact (paper §1).");
}
