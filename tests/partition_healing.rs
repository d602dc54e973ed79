//! Network partitions: gossip's signature resilience property ("a
//! replicated database can converge to a consistent state using a gossip
//! protocol, despite temporary partitions", paper §4.2) — verified for
//! both the classic and the fair protocol.

use fed::core::gossip::{GossipCmd, GossipConfig, GossipNode};
use fed::membership::FullMembership;
use fed::pubsub::{Event, EventId, TopicId};
use fed::sim::network::{LatencyModel, NetworkModel};
use fed::sim::{NodeId, SimDuration, SimTime, Simulation};

type Node = GossipNode<FullMembership>;

fn build(n: usize, mut cfg: GossipConfig, seed: u64) -> Simulation<Node> {
    // Long TTL so events published during the partition survive until heal.
    cfg.ttl_rounds = 60;
    let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10)));
    Simulation::new(n, net, seed, move |id, _| {
        GossipNode::new(id, cfg.clone(), FullMembership::new(id, n))
    })
}

fn run_partition_scenario(cfg: GossipConfig, seed: u64) -> (usize, usize) {
    let n = 48;
    let mut sim = build(n, cfg, seed);
    let topic = TopicId::new(0);
    for i in 0..n {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            GossipCmd::SubscribeTopic(topic),
        );
    }
    // Partition into two halves at t = 1 s.
    sim.run_until(SimTime::from_secs(1));
    let groups: Vec<u32> = (0..n).map(|i| u32::from(i >= n / 2)).collect();
    sim.network_mut().partition(groups);
    // Publish on both sides during the partition.
    let left_event = Event::bare(EventId::new(0, 1), topic);
    let right_event = Event::bare(EventId::new(40, 1), topic);
    sim.schedule_command(
        SimTime::from_millis(1_500),
        NodeId::new(0),
        GossipCmd::Publish(left_event.clone()),
    );
    sim.schedule_command(
        SimTime::from_millis(1_500),
        NodeId::new(40),
        GossipCmd::Publish(right_event.clone()),
    );
    // While split: each side sees only its own event.
    sim.run_until(SimTime::from_secs(3));
    let crossed = sim
        .nodes()
        .filter(|(id, node)| {
            (id.index() < n / 2 && node.endpoint().deliveries().contains(right_event.id()))
                || (id.index() >= n / 2 && node.endpoint().deliveries().contains(left_event.id()))
        })
        .count();
    assert_eq!(crossed, 0, "nothing crosses an active partition");
    // Heal and let gossip reconcile.
    sim.network_mut().heal();
    sim.run_until(SimTime::from_secs(8));
    let got_left = sim
        .nodes()
        .filter(|(_, node)| node.endpoint().deliveries().contains(left_event.id()))
        .count();
    let got_right = sim
        .nodes()
        .filter(|(_, node)| node.endpoint().deliveries().contains(right_event.id()))
        .count();
    (got_left, got_right)
}

#[test]
fn classic_gossip_heals_partitions() {
    let (l, r) = run_partition_scenario(
        GossipConfig::classic(6, 16, SimDuration::from_millis(100)),
        81,
    );
    assert_eq!(l, 48, "left event reaches everyone after heal");
    assert_eq!(r, 48, "right event reaches everyone after heal");
}

#[test]
fn fair_gossip_heals_partitions() {
    let (l, r) =
        run_partition_scenario(GossipConfig::fair(6, 16, SimDuration::from_millis(100)), 82);
    assert_eq!(l, 48, "left event reaches everyone after heal");
    assert_eq!(r, 48, "right event reaches everyone after heal");
}
