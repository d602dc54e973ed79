//! Quickstart: a 64-node fair-gossip swarm, one topic, one publisher.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Shows the core API surface: build a simulation, subscribe, publish, run,
//! then inspect deliveries and the fairness ledger.

use fed::core::gossip::{GossipConfig, GossipNode};
use fed::core::ledger::RatioSpec;
use fed::metrics::fairness::ratio_report;
use fed::pubsub::{Command, Event, EventId, TopicId};
use fed::sim::network::{LatencyModel, NetworkModel};
use fed::sim::{NodeId, SimDuration, SimTime, Simulation};

fn main() {
    let n = 64;
    let seed = 2007; // ICDCS 2007
    let config = GossipConfig::fair(6, 16);
    let net = NetworkModel::reliable(LatencyModel::LogNormalMs {
        median_ms: 40.0,
        sigma: 0.4,
        // A physical propagation floor keeps the sharded engine's
        // conservative lookahead in the millisecond range.
        floor: SimDuration::from_millis(5),
    });

    // Every node runs the fair gossip protocol over a full-membership view.
    let mut sim = Simulation::new(n, net, seed, move |id, _| {
        GossipNode::new(id, n, config.clone())
    });

    // Half the swarm subscribes to the "metrics" topic.
    let topic = TopicId::new(0);
    for i in (0..n).step_by(2) {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic),
        );
    }

    // Node 1 publishes ten events, one per second.
    for k in 0..10u32 {
        let event = Event::new(EventId::new(1, k), topic, 128);
        sim.schedule_command(
            SimTime::from_secs(1 + k as u64),
            NodeId::new(1),
            Command::Publish(event),
        );
    }

    sim.run_until(SimTime::from_secs(15));

    // Inspect: every subscriber delivered all ten, nobody else anything.
    let mut delivered = 0usize;
    let mut spurious = 0usize;
    for (id, node) in sim.nodes() {
        if id.index() % 2 == 0 {
            delivered += usize::from(node.endpoint().deliveries().len() == 10);
        } else {
            spurious += node.endpoint().deliveries().len();
        }
    }
    println!("subscribers with all 10 events : {delivered}/{}", n / 2);
    println!("spurious deliveries            : {spurious}");

    let spec = RatioSpec::topic_based();
    let ledgers: Vec<_> = sim
        .nodes()
        .map(|(_, node)| node.endpoint().ledger())
        .collect();
    println!("fairness over contribution/benefit ratios:");
    println!("  {}", ratio_report(ledgers.into_iter(), &spec));
    let total_msgs: u64 = sim.transport_stats_all().iter().map(|s| s.msgs_sent).sum();
    println!("total messages on the wire     : {total_msgs}");
}
