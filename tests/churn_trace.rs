//! Drives the gossip protocol with a generated churn trace
//! (`fed_workload::churn`): sessions and downtimes drawn from exponential
//! distributions, a third of the population flapping. Dissemination to the
//! *stable* majority must shrug it off.

use fed::core::gossip::{GossipConfig, GossipNode};
use fed::pubsub::{Command, Event, EventId, TopicId};
use fed::sim::network::NetworkModel;
use fed::sim::{NodeId, SimTime, Simulation};
use fed::util::rng::Xoshiro256StarStar;
use fed::workload::churn::{generate_churn, ChurnAction, ChurnPlan};

#[test]
fn stable_majority_survives_generated_churn() {
    let n = 72;
    let churners = n / 3; // plan default: 1/3 of the population
    let cfg = GossipConfig::fair(8, 16);
    let mut sim: Simulation<GossipNode> =
        Simulation::new(n, NetworkModel::default(), 91, move |id, _| {
            GossipNode::new(id, n, cfg.clone())
        });
    let topic = TopicId::new(0);
    for i in 0..n {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic),
        );
    }

    // Generated churn trace over nodes 0..churners.
    let plan = ChurnPlan {
        mean_session_secs: 8.0,
        mean_downtime_secs: 4.0,
        churning_fraction: churners as f64 / n as f64,
        duration: SimTime::from_secs(30),
        warmup: SimTime::from_secs(2),
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(91);
    let trace = generate_churn(&mut rng, n, &plan).expect("valid plan");
    assert!(!trace.is_empty(), "plan must generate churn");
    for ev in &trace {
        match ev.action {
            ChurnAction::Crash => sim.schedule_crash(ev.at, NodeId::new(ev.node as u32)),
            ChurnAction::Join => sim.schedule_join(ev.at, NodeId::new(ev.node as u32)),
        }
    }

    // Stable nodes publish throughout the churn storm.
    let events: Vec<Event> = (0..40u32)
        .map(|k| Event::bare(EventId::new(churners as u32 + (k % 10), k), topic))
        .collect();
    for (k, e) in events.iter().enumerate() {
        sim.schedule_command(
            SimTime::from_millis(2_000 + 700 * k as u64),
            NodeId::new(e.id().publisher()),
            Command::Publish(*e),
        );
    }

    sim.run_until(SimTime::from_secs(40));

    // Every stable node must have delivered every event.
    let mut misses = 0usize;
    for i in churners..n {
        let node = sim.node(NodeId::new(i as u32)).expect("exists");
        for e in &events {
            if !node.endpoint().deliveries().contains(e.id()) {
                misses += 1;
            }
        }
    }
    let expected = (n - churners) * events.len();
    let reliability = 1.0 - misses as f64 / expected as f64;
    assert!(
        reliability > 0.999,
        "stable nodes missed {misses}/{expected} deliveries under churn"
    );
}
