//! Micro-benchmarks of the protocol hot paths: ledger accounting,
//! controller updates, filter matching, whole gossip rounds and the two
//! per-hop handlers (a gossip push receipt, a DKS group flood).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fed_baselines::dam::GroupTable;
use fed_baselines::dks::{DksConfig, DksMsg, DksNode};
use fed_core::adaptive::{Controller, ControllerConfig, GlobalRateEstimator, RateSample};
use fed_core::gossip::{GossipCmd, GossipConfig, GossipMsg, GossipNode};
use fed_core::ledger::{FairnessLedger, RatioSpec};
use fed_dht::DhtNetwork;
use fed_membership::FullMembership;
use fed_pubsub::{parse_filter, Event, EventBatch, EventId, TopicId};
use fed_sim::exec::{seed_streams, EffectSink, EventKey, EventKind, Kernel};
use fed_sim::network::NetworkModel;
use fed_sim::{NodeId, Protocol, SimDuration, SimTime, Simulation};
use fed_util::rng::Xoshiro256StarStar;
use std::hint::black_box;
use std::sync::Arc;

fn bench_ledger(c: &mut Criterion) {
    let mut g = c.benchmark_group("ledger");
    g.bench_function("record_forward", |b| {
        let mut ledger = FairnessLedger::new();
        b.iter(|| {
            ledger.record_forward(black_box(512));
        })
    });
    g.bench_function("ratio_topic_based", |b| {
        let mut ledger = FairnessLedger::new();
        for _ in 0..100 {
            ledger.record_forward(256);
            ledger.record_delivery();
        }
        ledger.set_active_filters(4);
        let spec = RatioSpec::topic_based();
        b.iter(|| black_box(ledger.ratio(&spec)))
    });
    g.finish();
}

fn bench_controllers(c: &mut Criterion) {
    let mut g = c.benchmark_group("adaptive");
    g.bench_function("controller_update", |b| {
        let mut ctl = Controller::new(ControllerConfig::new(8.0, 0.0, 32.0, 0.5));
        b.iter(|| black_box(ctl.update(black_box(3.0), black_box(2.0))))
    });
    g.bench_function("estimator_observe", |b| {
        let mut est = GlobalRateEstimator::new(0.05, 0.0);
        let sample = RateSample {
            benefit_rate: 2.0,
            contribution_rate: 8.0,
            benefit_total: 500.0,
            contribution_total: 2_000.0,
        };
        b.iter(|| est.observe(black_box(sample)))
    });
    g.finish();
}

fn bench_filters(c: &mut Criterion) {
    let mut g = c.benchmark_group("filter");
    let filter =
        parse_filter(r#"(symbol == "FED" && price > 100) || (volume > 9000 && !(region == "EU"))"#)
            .expect("benchmark filter parses");
    let event = Event::builder(EventId::new(0, 0), TopicId::new(0))
        .attr("symbol", "FED")
        .attr("price", 150i64)
        .attr("volume", 100i64)
        .attr("region", "US")
        .build();
    g.bench_function("match_compound", |b| {
        b.iter(|| black_box(filter.matches(black_box(&event))))
    });
    g.bench_function("parse_compound", |b| {
        b.iter(|| {
            black_box(
                parse_filter(
                    r#"(symbol == "FED" && price > 100) || (volume > 9000 && !(region == "EU"))"#,
                )
                .expect("parses"),
            )
        })
    });
    g.finish();
}

fn bench_gossip_rounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("gossip_sim");
    g.sample_size(10);
    for &n in &[64usize, 256] {
        g.bench_with_input(BenchmarkId::new("one_second_fair", n), &n, |b, &n| {
            b.iter(|| {
                let cfg = GossipConfig::fair(8, 16, SimDuration::from_millis(100));
                let mut sim = Simulation::new(n, NetworkModel::default(), 7, move |id, _| {
                    GossipNode::new(id, cfg.clone(), FullMembership::new(id, n))
                });
                let topic = TopicId::new(0);
                for i in 0..n as u32 {
                    sim.schedule_command(
                        SimTime::ZERO,
                        NodeId::new(i),
                        GossipCmd::SubscribeTopic(topic),
                    );
                }
                for k in 0..10u32 {
                    sim.schedule_command(
                        SimTime::from_millis(50 * k as u64),
                        NodeId::new(0),
                        GossipCmd::Publish(Event::bare(EventId::new(0, k), topic)),
                    );
                }
                sim.run_until(SimTime::from_secs(1));
                black_box(sim.events_processed())
            })
        });
    }
    g.finish();
}

/// Swallows whatever a hand-dispatched handler emits.
struct Discard;

impl<P: Protocol> EffectSink<P> for Discard {
    fn emit(&mut self, _key: EventKey, _kind: EventKind<P>) {}
}

/// A kernel over `n` nodes whose effects are discarded.
fn kernel_of<P: Protocol>(
    n: usize,
    factory: &mut dyn FnMut(NodeId, &mut Xoshiro256StarStar) -> P,
) -> Kernel<P> {
    Kernel::new(
        n,
        (0..n as u32).collect(),
        seed_streams(7, n),
        NetworkModel::default(),
        factory,
        &mut Discard,
    )
}

fn key(k: u64) -> EventKey {
    EventKey {
        time: SimTime::from_micros(k),
        src: 0,
        seq: k,
    }
}

fn bench_handlers(c: &mut Criterion) {
    let mut g = c.benchmark_group("handler");

    // One received push of 16 events, ~90 % of them already seen: batch i
    // repeats all but one or two events of batch i - 1, as overlapping
    // rounds of the same few senders do. The receiver is replaced once per
    // pass over the ring, so its seen-set stays at a few hundred entries.
    g.bench_function("gossip_push_receive", |b| {
        const RING: usize = 256;
        let topic = TopicId::new(0);
        let mut first = 0u32;
        let batches: Vec<Arc<EventBatch>> = (0..RING)
            .map(|i| {
                first += 1 + (i as u32 & 1);
                let events = (first..first + 16).map(|s| Event::bare(EventId::new(0, s), topic));
                Arc::new(events.collect())
            })
            .collect();
        let cfg = GossipConfig::fair(8, 16, SimDuration::from_millis(100));
        let mut factory = move |id: NodeId, _: &mut Xoshiro256StarStar| {
            GossipNode::new(id, cfg.clone(), FullMembership::new(id, 2))
        };
        let mut kernel = kernel_of(2, &mut factory);
        let mut k = 0usize;
        b.iter(|| {
            if k.is_multiple_of(RING) {
                kernel = kernel_of(2, &mut factory);
            }
            let kind = EventKind::Deliver {
                to: NodeId::new(1),
                from: NodeId::new(0),
                msg: GossipMsg::Push {
                    events: Arc::clone(&batches[k % RING]),
                    sample: RateSample::default(),
                    swim: Vec::new(),
                },
            };
            k += 1;
            kernel.dispatch_with(key(k as u64), kind, &mut factory, &mut Discard, &mut ());
        })
    });

    // First receipt of an event by a member of a 400-node topic group:
    // seen-set insert plus a flood to `group_fanout` sampled members.
    g.bench_function("dks_flood_group_400", |b| {
        const GROUP: u32 = 400;
        const REBUILD: u32 = 1 << 16; // bounds the members' seen-sets
        let n = 512;
        let topic = TopicId::new(3);
        let dht = Arc::new(DhtNetwork::build(n));
        let mut groups = GroupTable::default();
        groups.insert(topic, (0..GROUP).map(NodeId::new).collect());
        let groups = Arc::new(groups);
        let mut factory = move |id: NodeId, _: &mut Xoshiro256StarStar| {
            DksNode::new(
                id,
                DksConfig::default(),
                Arc::clone(&dht),
                Arc::clone(&groups),
            )
        };
        let mut kernel = kernel_of(n, &mut factory);
        let mut k = 0u32;
        b.iter(|| {
            if k.is_multiple_of(REBUILD) {
                kernel = kernel_of(n, &mut factory);
            }
            let kind = EventKind::Deliver {
                to: NodeId::new(k % GROUP),
                from: NodeId::new((k + 1) % GROUP),
                msg: DksMsg::GroupFlood {
                    event: Event::bare(EventId::new(500, k), topic),
                },
            };
            k += 1;
            kernel.dispatch_with(key(u64::from(k)), kind, &mut factory, &mut Discard, &mut ());
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ledger,
    bench_controllers,
    bench_filters,
    bench_gossip_rounds,
    bench_handlers
);
criterion_main!(benches);
