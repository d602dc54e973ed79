//! Gossip over *partial views* instead of the full-membership oracle:
//! the `GossipNode<S>` generic instantiated with `CyclonState`.
//!
//! The paper notes that uniform partner selection "usually requires full
//! knowledge of the system" and points to peer-sampling protocols as the
//! practical substitute (§4.2). These tests show the dissemination and
//! fairness machinery works unchanged over bounded views.

use fed::core::gossip::{GossipCmd, GossipConfig, GossipNode};
use fed::membership::CyclonState;
use fed::pubsub::{Event, EventId, TopicId};
use fed::sim::network::{LatencyModel, NetworkModel};
use fed::sim::{NodeId, SimDuration, SimTime, Simulation};

type ViewNode = GossipNode<CyclonState>;

fn build(n: usize, view_size: usize, cfg: GossipConfig, seed: u64) -> Simulation<ViewNode> {
    let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10)));
    // Bootstrap with half the capacity (ring successors); the other half
    // fills up as gossip senders are learned via `note_peer`.
    let boot = (view_size / 2).max(2);
    Simulation::new(n, net, seed, move |id, _| {
        let mut state = CyclonState::new(id, view_size, view_size / 2);
        state.bootstrap((1..=boot).map(|d| NodeId::new(((id.index() + d) % n) as u32)));
        GossipNode::new(id, cfg.clone(), state)
    })
}

#[test]
fn dissemination_works_over_bounded_views() {
    let n = 96;
    let mut sim = build(
        n,
        12,
        GossipConfig::classic(6, 16, SimDuration::from_millis(100)),
        71,
    );
    let topic = TopicId::new(0);
    for i in 0..n {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            GossipCmd::SubscribeTopic(topic),
        );
    }
    for k in 0..15u32 {
        sim.schedule_command(
            SimTime::from_millis(500 + 200 * k as u64),
            NodeId::new(k * 11 % n as u32),
            GossipCmd::Publish(Event::bare(EventId::new(k * 11 % n as u32, k), topic)),
        );
    }
    sim.run_until(SimTime::from_secs(15));
    let complete = sim
        .nodes()
        .filter(|(_, node)| node.endpoint().deliveries().len() == 15)
        .count();
    assert!(
        complete as f64 >= 0.99 * n as f64,
        "bounded views deliver: {complete}/{n}"
    );
}

#[test]
fn fair_adaptation_works_over_bounded_views() {
    let n = 96;
    let mut sim = build(
        n,
        12,
        GossipConfig::fair(6, 16, SimDuration::from_millis(100)),
        72,
    );
    // Only a quarter of peers are interested.
    let topic = TopicId::new(0);
    for i in 0..n / 4 {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            GossipCmd::SubscribeTopic(topic),
        );
    }
    for k in 0..120u32 {
        sim.schedule_command(
            SimTime::from_millis(500 + 100 * k as u64),
            NodeId::new(2),
            GossipCmd::Publish(Event::bare(EventId::new(2, k), topic)),
        );
    }
    sim.run_until(SimTime::from_secs(20));
    // Reliability for the interested set.
    let complete = (0..n / 4)
        .filter(|&i| {
            sim.node(NodeId::new(i as u32))
                .expect("node exists")
                .endpoint()
                .deliveries()
                .len()
                == 120
        })
        .count();
    assert!(
        complete >= (n / 4) * 95 / 100,
        "interested peers delivered: {complete}/{}",
        n / 4
    );
    // Work concentrates on the benefiting quarter.
    let work = |range: std::ops::Range<usize>| -> f64 {
        let total: u64 = range
            .clone()
            .map(|i| {
                sim.node(NodeId::new(i as u32))
                    .expect("node exists")
                    .endpoint()
                    .ledger()
                    .totals()
                    .forwarded_msgs
            })
            .sum();
        total as f64 / range.len() as f64
    };
    let interested_work = work(0..n / 4);
    let uninterested_work = work(n / 4..n);
    assert!(
        interested_work > 2.0 * uninterested_work,
        "interested {interested_work} vs uninterested {uninterested_work}"
    );
}

#[test]
fn views_learn_senders() {
    // note_peer wiring: receiving gossip teaches the view about senders,
    // so connectivity improves beyond the bootstrap ring.
    let n = 32;
    let mut sim = build(
        n,
        8,
        GossipConfig::classic(4, 8, SimDuration::from_millis(100)),
        73,
    );
    let topic = TopicId::new(0);
    for i in 0..n {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            GossipCmd::SubscribeTopic(topic),
        );
    }
    for k in 0..30u32 {
        sim.schedule_command(
            SimTime::from_millis(300 + 100 * k as u64),
            NodeId::new(k % n as u32),
            GossipCmd::Publish(Event::bare(EventId::new(k % n as u32, k), topic)),
        );
    }
    sim.run_until(SimTime::from_secs(10));
    // At least one node knows a peer outside its original bootstrap ring
    // (successors 1..=4 for capacity 8).
    let learned = sim.nodes().any(|(id, node)| {
        node.sampler().view().ids().iter().any(|p| {
            let fwd = (p.index() + n - id.index()) % n;
            fwd == 0 || fwd > 4 // outside the successor window
        })
    });
    assert!(learned, "views must grow beyond the bootstrap ring");
}
