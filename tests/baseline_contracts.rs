//! Every baseline architecture must satisfy the selective-dissemination
//! contract of the paper's §2 on a common workload: all interested peers
//! deliver (within the system's reliability envelope), no uninterested peer
//! ever delivers, and delivery happens at most once.

use fed::baselines::broker::BrokerNode;
use fed::baselines::dam::{DamNode, GroupTable};
use fed::baselines::dks::DksNode;
use fed::baselines::scribe::ScribeNode;
use fed::baselines::splitstream::{Forest, SplitStreamNode};
use fed::dht::DhtNetwork;
use fed::pubsub::{Command, Event, EventId, TopicId};
use fed::sim::network::{LatencyModel, NetworkModel};
use fed::sim::{NodeId, SimDuration, SimTime, Simulation};
use std::sync::Arc;

const N: usize = 48;
const TOPICS: u32 = 4;

/// node i subscribes to topic i % TOPICS.
fn topic_of(i: usize) -> TopicId {
    TopicId::new((i % TOPICS as usize) as u32)
}

fn events() -> Vec<(SimTime, usize, Event)> {
    (0..24u32)
        .map(|k| {
            let topic = TopicId::new(k % TOPICS);
            let publisher = (k as usize * 7) % N;
            (
                SimTime::from_millis(500 + 100 * k as u64),
                publisher,
                Event::bare(EventId::new(publisher as u32, k), topic),
            )
        })
        .collect()
}

fn net() -> NetworkModel {
    NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(8)))
}

fn groups() -> Arc<GroupTable> {
    let mut g = GroupTable::default();
    for t in 0..TOPICS {
        let topic = TopicId::new(t);
        g.insert(
            topic,
            (0..N)
                .filter(|&i| topic_of(i) == topic)
                .map(|i| NodeId::new(i as u32))
                .collect(),
        );
    }
    Arc::new(g)
}

/// Checks the delivery contract; returns (delivered, expected).
fn check_contract<I>(deliveries: I) -> (usize, usize)
where
    I: Fn(usize, EventId) -> bool,
{
    let mut delivered = 0usize;
    let mut expected = 0usize;
    for (_, _, e) in events() {
        for i in 0..N {
            if topic_of(i) == e.topic() {
                expected += 1;
                if deliveries(i, e.id()) {
                    delivered += 1;
                }
            } else {
                assert!(
                    !deliveries(i, e.id()),
                    "node {i} delivered uninteresting event {}",
                    e.id()
                );
            }
        }
    }
    (delivered, expected)
}

#[test]
fn broker_contract() {
    let mut sim = Simulation::new(N, net(), 1, |id, _| BrokerNode::new(id, NodeId::new(0)));
    for i in 0..N {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic_of(i)),
        );
    }
    for (at, publisher, e) in events() {
        sim.schedule_command(at, NodeId::new(publisher as u32), Command::Publish(e));
    }
    sim.run_until(SimTime::from_secs(10));
    let (delivered, expected) = check_contract(|i, id| {
        sim.node(NodeId::new(i as u32))
            .expect("exists")
            .endpoint()
            .deliveries()
            .contains(id)
    });
    assert_eq!(delivered, expected, "broker is fully reliable when alive");
}

#[test]
fn scribe_contract() {
    let dht = Arc::new(DhtNetwork::build(N));
    let mut sim = Simulation::new(N, net(), 2, move |id, _| {
        ScribeNode::new(id, Arc::clone(&dht))
    });
    for i in 0..N {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic_of(i)),
        );
    }
    for (at, publisher, e) in events() {
        sim.schedule_command(at, NodeId::new(publisher as u32), Command::Publish(e));
    }
    sim.run_until(SimTime::from_secs(10));
    let (delivered, expected) = check_contract(|i, id| {
        sim.node(NodeId::new(i as u32))
            .expect("exists")
            .endpoint()
            .deliveries()
            .contains(id)
    });
    assert_eq!(delivered, expected, "trees deliver deterministically");
}

#[test]
fn dks_contract() {
    let dht = Arc::new(DhtNetwork::build(N));
    let groups = groups();
    let mut sim = Simulation::new(N, net(), 3, move |id, _| {
        DksNode::new(id, Arc::clone(&dht), Arc::clone(&groups))
    });
    for i in 0..N {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic_of(i)),
        );
    }
    for (at, publisher, e) in events() {
        sim.schedule_command(at, NodeId::new(publisher as u32), Command::Publish(e));
    }
    sim.run_until(SimTime::from_secs(10));
    let (delivered, expected) = check_contract(|i, id| {
        sim.node(NodeId::new(i as u32))
            .expect("exists")
            .endpoint()
            .deliveries()
            .contains(id)
    });
    let reliability = delivered as f64 / expected as f64;
    assert!(
        reliability > 0.99,
        "group epidemic with fanout 6 of 12: {reliability}"
    );
}

#[test]
fn dam_contract() {
    let groups = groups();
    let mut sim = Simulation::new(N, net(), 4, move |id, _| {
        DamNode::new(id, Arc::clone(&groups))
    });
    for i in 0..N {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic_of(i)),
        );
    }
    for (at, publisher, e) in events() {
        sim.schedule_command(at, NodeId::new(publisher as u32), Command::Publish(e));
    }
    sim.run_until(SimTime::from_secs(12));
    let (delivered, expected) = check_contract(|i, id| {
        sim.node(NodeId::new(i as u32))
            .expect("exists")
            .endpoint()
            .deliveries()
            .contains(id)
    });
    let reliability = delivered as f64 / expected as f64;
    assert!(reliability > 0.99, "per-topic gossip: {reliability}");
}

#[test]
fn splitstream_contract() {
    let forest = Arc::new(Forest::build(N, 4, 4));
    let mut sim = Simulation::new(N, net(), 5, move |id, _| {
        SplitStreamNode::new(id, Arc::clone(&forest))
    });
    for i in 0..N {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic_of(i)),
        );
    }
    for (at, publisher, e) in events() {
        sim.schedule_command(at, NodeId::new(publisher as u32), Command::Publish(e));
    }
    sim.run_until(SimTime::from_secs(10));
    let (delivered, expected) = check_contract(|i, id| {
        sim.node(NodeId::new(i as u32))
            .expect("exists")
            .endpoint()
            .deliveries()
            .contains(id)
    });
    assert_eq!(delivered, expected, "forest broadcast reaches everyone");
}

#[test]
fn baselines_disagree_on_fairness_but_agree_on_delivery() {
    // Meta-check used by T-ARCH: delivery contracts hold for all systems
    // (verified above), while their per-node work distributions differ
    // wildly. Here: Scribe concentrates forwarding far more than DAM.
    let dht = Arc::new(DhtNetwork::build(N));
    let mut scribe_sim = Simulation::new(N, net(), 6, move |id, _| {
        ScribeNode::new(id, Arc::clone(&dht))
    });
    let groups = groups();
    let mut dam_sim = Simulation::new(N, net(), 6, move |id, _| {
        DamNode::new(id, Arc::clone(&groups))
    });
    for i in 0..N {
        scribe_sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic_of(i)),
        );
        dam_sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic_of(i)),
        );
    }
    for (at, publisher, e) in events() {
        scribe_sim.schedule_command(at, NodeId::new(publisher as u32), Command::Publish(e));
        dam_sim.schedule_command(at, NodeId::new(publisher as u32), Command::Publish(e));
    }
    scribe_sim.run_until(SimTime::from_secs(12));
    dam_sim.run_until(SimTime::from_secs(12));

    // Scribe *can* route traffic through non-subscribers (rendezvous
    // routing); whether it does depends on the topology draw, so this is
    // an observation rather than an assertion. The structural fairness
    // contract checked here is DAM's, below.
    let _scribe_unfair = scribe_sim.nodes().any(|(id, node)| {
        node.endpoint().ledger().totals().forwarded_msgs > 0
            && !node.is_subscriber(topic_of(id.index()))
    });
    // In ideal DAM, only group members (subscribers) forward dissemination
    // traffic.
    for (id, node) in dam_sim.nodes() {
        if node.endpoint().ledger().totals().forwarded_msgs > 0 {
            assert!(
                node.is_group_member(topic_of(id.index())),
                "{id} forwarded without membership"
            );
        }
    }
}
