//! Network partitions: gossip's signature resilience property ("a
//! replicated database can converge to a consistent state using a gossip
//! protocol, despite temporary partitions", paper §4.2) — verified for
//! both the classic and the fair protocol, on the sequential engine and
//! on the sharded cluster.
//!
//! The split is scheduled data, a `[faults.partition]` in scenario-file
//! terms: nodes `0..24` and `24..48` cannot reach each other from 1 s
//! until the heal at 3 s.

use fed::cluster::ShardedSimulation;
use fed::core::gossip::{GossipConfig, GossipNode};
use fed::experiments::harness::Engine;
use fed::pubsub::{Command, Event, EventId, TopicId};
use fed::sim::network::{FaultSchedule, LatencyModel, NetworkModel, PartitionFault};
use fed::sim::{NodeId, SimDuration, SimTime, Simulation};
use fed::util::rng::Xoshiro256StarStar;

const N: usize = 48;

/// Ids of the nodes that delivered `event`.
fn holders(sim: &impl Engine<Proto = GossipNode>, event: EventId) -> Vec<usize> {
    sim.nodes()
        .filter(|(_, node)| node.endpoint().deliveries().contains(event))
        .map(|(id, _)| id.index())
        .collect()
}

fn advance(sim: &mut impl Engine<Proto = GossipNode>, to: SimTime) {
    let mut unobserved = vec![(); sim.shards()];
    sim.run_observed(to, &mut unobserved);
}

/// A constant 10 ms network split in two halves from 1 s to 3 s.
fn split_network() -> NetworkModel {
    NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10))).with_faults(
        FaultSchedule {
            partition: Some(PartitionFault {
                at: SimTime::from_secs(1),
                heal: SimTime::from_secs(3),
                split: N as u32 / 2,
            }),
            ..FaultSchedule::default()
        },
    )
}

fn factory(
    mut cfg: GossipConfig,
) -> impl Fn(NodeId, &mut Xoshiro256StarStar) -> GossipNode + Send + Sync + 'static {
    // Long TTL so events published during the partition survive until heal.
    cfg.ttl_rounds = 60;
    move |id, _| GossipNode::new(id, N, cfg.clone())
}

/// Publishes one event on each side during the split; returns how many
/// nodes delivered the left and the right event by 8 s.
fn run_partition_scenario(sim: &mut impl Engine<Proto = GossipNode>) -> (usize, usize) {
    let topic = TopicId::new(0);
    for i in 0..N {
        sim.command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic),
        );
    }
    // Publish on both sides during the partition.
    let left_event = Event::bare(EventId::new(0, 1), topic);
    let right_event = Event::bare(EventId::new(40, 1), topic);
    sim.command(
        SimTime::from_millis(1_500),
        NodeId::new(0),
        Command::Publish(left_event.clone()),
    );
    sim.command(
        SimTime::from_millis(1_500),
        NodeId::new(40),
        Command::Publish(right_event.clone()),
    );
    // While split: each side sees only its own event.
    advance(sim, SimTime::from_secs(3));
    let left = holders(sim, left_event.id());
    let right = holders(sim, right_event.id());
    let crossed =
        left.iter().filter(|&&i| i >= N / 2).count() + right.iter().filter(|&&i| i < N / 2).count();
    assert_eq!(crossed, 0, "nothing crosses an active partition");
    // The partition heals at 3 s; let gossip reconcile.
    advance(sim, SimTime::from_secs(8));
    (
        holders(sim, left_event.id()).len(),
        holders(sim, right_event.id()).len(),
    )
}

fn heals_on_both_engines(cfg: GossipConfig, seed: u64) {
    let mut sequential = Simulation::new(N, split_network(), seed, factory(cfg.clone()));
    let mut cluster = ShardedSimulation::new(N, split_network(), seed, 2, factory(cfg));
    for (engine, (l, r)) in [
        ("sequential", run_partition_scenario(&mut sequential)),
        ("cluster", run_partition_scenario(&mut cluster)),
    ] {
        assert_eq!(l, N, "{engine}: left event reaches everyone after heal");
        assert_eq!(r, N, "{engine}: right event reaches everyone after heal");
    }
}

#[test]
fn classic_gossip_heals_partitions() {
    heals_on_both_engines(GossipConfig::classic(6, 16), 81);
}

#[test]
fn fair_gossip_heals_partitions() {
    heals_on_both_engines(GossipConfig::fair(6, 16), 82);
}
