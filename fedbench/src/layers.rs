//! The per-layer ledger: every layer timed from outside, through its public
//! functions, plus one traced run of the workload that reads the program's
//! existing `[profile]` / `[trace]` outputs.
//!
//! A `*_ns` probe times `BATCHES` batches of calls and reports the median
//! batch as ns per call, so one descheduled batch does not move the number.

use crate::names::Workload;
use crate::report::{median, Metrics, Tally};
use crate::spans::Spans;
use crate::workload::{audit, load, pin_seed, Runner};
use fed_cluster::ShardedSimulation;
use fed_core::ledger::FairnessLedger;
use fed_dht::{DhtId, DhtNetwork};
use fed_experiments::harness::{groups_of, EngineKind};
use fed_experiments::scenario_run::engine_for;
use fed_membership::{FullMembership, PeerSampler};
use fed_profile::ProfileSpec;
use fed_sim::exec::{
    seed_streams, EffectSink, EventKey, EventKind, EventQueue, Kernel, Probe, SendFate,
};
use fed_sim::network::{
    DelayFault, FaultSchedule, LatencyModel, MobilitySegment, MobilityTrace, NetworkModel,
    OnewayFault, PartitionFault,
};
use fed_sim::{Context, NodeId, Protocol, SimDuration, SimTime, Simulation};
use fed_telemetry::{ShardCollector, TelemetrySpec};
use fed_trace::TraceSpec;
use fed_util::dist::LogNormal;
use fed_util::histogram::Histogram;
use fed_util::rng::{Rng64, Xoshiro256StarStar};
use fed_util::stats::Summary;
use fed_workload::scenario::{Architecture, ScenarioSpec};
use fed_workload::scenario_file::parse_scenario;
use std::hint::black_box;

/// Batches per probe; the median batch is reported.
const BATCHES: usize = 5;
/// Population of the DHT build probe: the largest workload's.
const DHT_BUILD_NODES: usize = 30_000;
/// Untraced repeats of the workload in a traced run.
const PLAIN_REPEATS: usize = 3;

/// Receives one token and passes it on: one send per receipt, nothing else.
struct Relay {
    next: NodeId,
}

impl Protocol for Relay {
    type Msg = ();
    type Cmd = ();
    fn on_init(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.send(self.next, ());
    }
    fn on_message(&mut self, ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {
        ctx.send(self.next, ());
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _token: u64) {}
}

/// Accepts messages and does nothing.
struct Noop;

impl Protocol for Noop {
    type Msg = ();
    type Cmd = ();
    fn on_init(&mut self, _ctx: &mut Context<'_, ()>) {}
    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _token: u64) {}
}

/// The cheapest event a queue can hold.
fn timer() -> EventKind<Noop> {
    EventKind::Timer {
        node: NodeId::new(0),
        token: 0,
        incarnation: 0,
    }
}

struct Discard;

impl EffectSink<Noop> for Discard {
    fn emit(&mut self, _key: EventKey, _kind: EventKind<Noop>) {}
}

fn ring(n: usize) -> impl Fn(NodeId, &mut Xoshiro256StarStar) -> Relay + Send + Sync + 'static {
    move |id, _| Relay {
        next: NodeId::new((id.as_u32() + 1) % n as u32),
    }
}

fn constant_10ms() -> NetworkModel {
    NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10)))
}

/// Probe runner: owns the metric sink, the span recorder and the size
/// divisor (`--quick` runs a tenth of the calls).
struct Probes<'a> {
    m: &'a mut Metrics,
    spans: &'a mut Spans,
    seed: u64,
    divisor: usize,
}

impl Probes<'_> {
    /// Times `BATCHES` batches of `calls` calls of `f`; records the median
    /// as ns per call.
    fn per_call(&mut self, name: &'static str, calls: usize, mut f: impl FnMut()) {
        let calls = (calls / self.divisor).max(1);
        self.per_batch(name, || {
            for _ in 0..calls {
                f();
            }
            calls as u64
        });
    }

    /// Like [`Probes::per_call`] for a batch that reports its own call count.
    fn per_batch(&mut self, name: &'static str, mut batch: impl FnMut() -> u64) {
        let mut ns = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let (calls, secs) = self.spans.time(name, &mut batch);
            ns.push(secs * 1e9 / calls.max(1) as f64);
        }
        self.m.set(name, median(&ns));
    }

    fn rng(&self) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(self.seed)
    }

    /// The classic hold model: `pending` events queued, each pop re-pushed
    /// `delay_us` (plus up to `jitter_us`) later.
    fn queue_hold(
        &mut self,
        name: &'static str,
        pending: usize,
        delay_us: u64,
        jitter_us: u64,
        calls: usize,
    ) {
        let mut rng = self.rng();
        let mut queue: EventQueue<Noop> = EventQueue::new();
        let mut seq = 0u64;
        let mut push = |queue: &mut EventQueue<Noop>, at: u64| {
            seq += 1;
            let key = EventKey {
                time: SimTime::from_micros(at),
                src: 0,
                seq,
            };
            queue.push(key, timer());
        };
        for _ in 0..pending {
            let at = rng.range_u64(delay_us + jitter_us + 1);
            push(&mut queue, at);
        }
        let jitter: Vec<u64> = (0..4096).map(|_| rng.range_u64(jitter_us + 1)).collect();
        let mut i = 0usize;
        self.per_call(name, calls, || {
            let (key, _) = queue.pop().expect("hold model keeps the queue full");
            i = (i + 1) % jitter.len();
            push(&mut queue, key.time.as_micros() + delay_us + jitter[i]);
        });
    }

    fn queue(&mut self) {
        self.queue_hold("sim.queue.hold_spread_ns", 50_000, 10_000, 2_000, 200_000);
        self.queue_hold("sim.queue.hold_subbucket_ns", 4_096, 1_000, 0, 50_000);

        // One shard's view of the exchange: a burst lands for the next 1 ms
        // window, then the window drains through `pop_before`.
        let burst = 1_000u64;
        let mut queue: EventQueue<Noop> = EventQueue::new();
        let mut window = 0u64;
        let windows = (200 / self.divisor).max(1) as u64;
        self.per_batch("sim.queue.window_burst_ns", || {
            for _ in 0..windows {
                let start = window * 1_000;
                for k in 0..burst {
                    let key = EventKey {
                        time: SimTime::from_micros(start + (k * 7) % 1_000),
                        src: (k % 64) as u32,
                        seq: window * burst + k,
                    };
                    queue.push(key, timer());
                }
                let end = SimTime::from_micros(start + 1_000);
                while let Some(e) = queue.pop_before(end) {
                    black_box(e);
                }
                window += 1;
            }
            windows * burst
        });

        // Every push lands beyond the calendar horizon (512 x 4 ms), so the
        // pops pay the overflow re-base.
        let far = (100_000 / self.divisor).max(1) as u64;
        self.per_batch("sim.queue.far_timer_ns", || {
            let mut queue: EventQueue<Noop> = EventQueue::new();
            for k in 0..far {
                let key = EventKey {
                    time: SimTime::from_micros(2_100_000 + (k * 37) % 4_000_000),
                    src: 0,
                    seq: k,
                };
                queue.push(key, timer());
            }
            while let Some(e) = queue.pop() {
                black_box(e);
            }
            far
        });
    }

    fn kernel_and_engines(&mut self) {
        let n = 1_024usize;
        let mut factory = |_: NodeId, _: &mut Xoshiro256StarStar| Noop;
        let mut sink = Discard;
        let mut kernel = Kernel::new(
            n,
            (0..n as u32).collect(),
            seed_streams(self.seed, n),
            constant_10ms(),
            &mut factory,
            &mut sink,
        );
        let mut k = 0u64;
        self.per_call("sim.kernel.dispatch_noop_ns", 1_000_000, || {
            k += 1;
            let to = NodeId::new((k % n as u64) as u32);
            let key = EventKey {
                time: SimTime::from_micros(k),
                src: 0,
                seq: k,
            };
            let kind = EventKind::Deliver {
                to,
                from: NodeId::new(0),
                msg: (),
            };
            kernel.dispatch(key, kind, &mut factory, &mut sink, None, None, None);
        });

        // 1 000 tokens circling 1 000 nodes: 100 000 events per simulated
        // second, every one a receipt that sends once.
        let n = 1_000;
        let step = SimDuration::from_millis(2_000 / self.divisor as u64);
        let mut sim = Simulation::new(n, constant_10ms(), self.seed, ring(n));
        self.per_batch("sim.engine.null_event_ns", || {
            let before = sim.events_processed();
            sim.run_for(step);
            sim.events_processed() - before
        });
        // Round-robin placement puts ring neighbours on different shards, so
        // every send crosses the exchange.
        let mut cluster = ShardedSimulation::new(n, constant_10ms(), self.seed, 2, ring(n));
        self.per_batch("cluster.null_event_ns", || {
            let before = cluster.events_processed();
            cluster.run_for(step);
            cluster.events_processed() - before
        });
        // Two nodes, two shards, one token each: a window holds one event per
        // shard, so this is the fixed cost of a window.
        let mut pair = ShardedSimulation::new(2, constant_10ms(), self.seed, 2, ring(2));
        let span = SimDuration::from_secs(40 / self.divisor as u64);
        self.per_batch("cluster.window_ns", || {
            let before = pair.windows();
            pair.run_for(span);
            pair.windows() - before
        });
    }

    fn transmit(&mut self, name: &'static str, net: &NetworkModel) {
        let mut rng = self.rng();
        let mut k = 0u64;
        self.per_call(name, 1_000_000, || {
            k += 1;
            let now = SimTime::from_micros(k * 50);
            let from = (k % 1_000) as usize;
            let to = ((k * 7 + 1) % 1_000) as usize;
            black_box(net.transmit(&mut rng, now, from, to));
        });
    }

    fn network(&mut self) {
        let lognormal = || LatencyModel::LogNormalMs {
            median_ms: 40.0,
            sigma: 0.6,
            floor: SimDuration::from_millis(5),
        };
        self.transmit("sim.net.transmit_const_ns", &constant_10ms());
        self.transmit(
            "sim.net.transmit_lognormal_ns",
            &NetworkModel::reliable(lognormal()),
        );
        // Probe time runs 0..50 s; the faults sit beyond it, so every verdict
        // is evaluated and none drops (no workload operation may fail).
        let at = SimTime::from_secs(100);
        let until = SimTime::from_secs(200);
        let faults = FaultSchedule {
            partition: Some(PartitionFault {
                at,
                heal: until,
                split: 500,
            }),
            oneway: Some(OnewayFault {
                at,
                until,
                split: 500,
            }),
            delay: Some(DelayFault {
                at,
                until,
                extra: SimDuration::from_millis(5),
            }),
        };
        self.transmit(
            "sim.net.transmit_faults_ns",
            &constant_10ms().with_faults(faults),
        );
        let segment = |ms: u64, extra_ms: u64| MobilitySegment {
            at: SimTime::from_millis(ms),
            extra: SimDuration::from_millis(extra_ms),
            disconnected: false,
        };
        let mobility = MobilityTrace {
            split: 500,
            period: Some(SimDuration::from_secs(2)),
            segments: vec![
                segment(0, 0),
                segment(500, 20),
                segment(1_000, 5),
                segment(1_500, 40),
            ],
        };
        self.transmit(
            "sim.net.transmit_mobility_ns",
            &constant_10ms().with_mobility(Some(mobility)),
        );
    }

    fn small_layers(&mut self) {
        let mut rng = self.rng();
        self.per_call("util.dist.lognormal_ns", 1_000_000, || {
            let ln = LogNormal::from_median(40.0, 0.6).expect("valid parameters");
            black_box(ln.sample(&mut rng));
        });
        let mut hist = Histogram::new(0.0, 200.0, 40).expect("valid geometry");
        let mut x = 0.0f64;
        self.per_call("util.histogram.record_ns", 1_000_000, || {
            x = (x + 7.3) % 210.0;
            hist.record(black_box(x));
        });
        let mut ledger = FairnessLedger::new();
        self.per_call("core.ledger.record_ns", 1_000_000, || {
            ledger.record_forward(black_box(64));
            ledger.record_delivery();
        });
        black_box(ledger.totals());
        let mut members = FullMembership::new(NodeId::new(0), 2_000);
        self.per_call("membership.sample_ns", 1_000_000, || {
            black_box(members.sample_peers(&mut rng, 8));
        });
        let dht = DhtNetwork::build(4_096);
        let mut k = 0usize;
        self.per_call("dht.route_ns", 1_000_000, || {
            k += 1;
            let state = dht.state_of(k % 4_096).expect("index in range");
            black_box(state.next_hop(DhtId::of_topic(k % 100)));
        });
        let mut collector = ShardCollector::sequential(TelemetrySpec::default(), 1_000);
        let mut k = 0u64;
        self.per_call("telemetry.probe_call_ns", 1_000_000, || {
            k += 1;
            let now = SimTime::from_micros(k * 3);
            let node = NodeId::new((k % 1_000) as u32);
            match k % 3 {
                0 => collector.on_event(now),
                1 => {
                    let at = now + SimDuration::from_millis(10);
                    collector.on_send(now, node, 64, SendFate::Delivered { at });
                }
                _ => collector.on_receive(now, node, 64),
            }
        });
        black_box(collector.finalize(SimTime::from_secs(4)));
    }

    /// Every architecture on the same small standard scenario: host ns per
    /// simulated event, and the exact event count.
    fn arch_ladder(&mut self) -> Tally {
        const LADDER: [(Architecture, &str, &str); 8] = [
            (
                Architecture::FairGossip,
                "core.fair-gossip.event_ns",
                "core.fair-gossip.events",
            ),
            (
                Architecture::StaticGossip,
                "core.static-gossip.event_ns",
                "core.static-gossip.events",
            ),
            (
                Architecture::Broker,
                "baselines.broker.event_ns",
                "baselines.broker.events",
            ),
            (
                Architecture::Scribe,
                "baselines.scribe.event_ns",
                "baselines.scribe.events",
            ),
            (
                Architecture::Dks,
                "baselines.dks.event_ns",
                "baselines.dks.events",
            ),
            (
                Architecture::Dam,
                "baselines.dam.event_ns",
                "baselines.dam.events",
            ),
            (
                Architecture::SplitStream,
                "baselines.splitstream.event_ns",
                "baselines.splitstream.events",
            ),
            (
                Architecture::Hybrid,
                "baselines.hybrid.event_ns",
                "baselines.hybrid.events",
            ),
        ];
        let mut tally = Tally::default();
        for (arch, ns_name, events_name) in LADDER {
            let mut spec = ScenarioSpec::standard(arch, 1_000 / self.divisor, self.seed);
            spec.plan.duration = SimTime::from_secs(2);
            let mut runner = Runner::new(&spec);
            let mut ns = Vec::new();
            let mut events = 0;
            for _ in 0..3 {
                if let Some((outcome, secs)) = runner.run_plain(ns_name, self.spans) {
                    events = outcome.events;
                    ns.push(secs * 1e9 / events.max(1) as f64);
                }
            }
            tally.attempted += runner.tally.attempted;
            tally.failed += runner.tally.failed;
            if !ns.is_empty() {
                self.m.set(ns_name, median(&ns));
                self.m.set(events_name, events as f64);
            }
        }
        tally
    }
}

/// The `--trace 1` run: the layer probes, then the workload untraced and
/// once with `[profile]` and `[trace]` on. Fills every per-layer metric.
pub fn traced(
    w: &Workload,
    seed: u64,
    quick: bool,
    spans: &mut Spans,
) -> Result<(Metrics, Tally), String> {
    let pinned = pin_seed(w, seed, quick, spans)?;
    let divisor = if quick { 10 } else { 1 };
    let mut m = Metrics::default();
    let mut probes = Probes {
        m: &mut m,
        spans,
        seed,
        divisor,
    };
    probes.queue();
    probes.kernel_and_engines();
    probes.network();
    probes.small_layers();
    let mut tally = probes.arch_ladder();

    let (_, secs) = spans.time("dht.build", || {
        black_box(DhtNetwork::build(DHT_BUILD_NODES / divisor))
    });
    m.set("dht.build_s", secs);
    let (file, secs) = spans.time("workload.parse", || parse_scenario(w.toml));
    file.map_err(|e| format!("{}: {e}", w.name))?;
    m.set("workload.parse_s", secs);
    let spec = load(w, pinned, quick)?;
    let (materialized, secs) = spans.time("workload.materialize", || spec.materialize());
    let materialized = materialized.map_err(|e| format!("{}: {e}", w.name))?;
    m.set("workload.materialize_s", secs);
    let (_, secs) = spans.time("workload.groups_of", || {
        black_box(groups_of(&materialized.profile))
    });
    m.set("workload.groups_of_s", secs);
    drop(materialized);

    let mut runner = Runner::new(&spec);
    let mut walls = Vec::new();
    for i in 0..PLAIN_REPEATS {
        if let Some((_, secs)) = runner.run_plain(&format!("run#{i}"), spans) {
            walls.push(secs);
        }
    }
    let walls = Summary::from_values(walls);
    let (Some(fastest), Some(wall), Some(slowest)) = (walls.min(), walls.median(), walls.max())
    else {
        return Err("no untraced run succeeded".into());
    };
    m.set("harness.wall_spread_frac", (slowest - fastest) / wall);

    // Profiling and tracing are passive: the traced outcome must carry the
    // same digest as the untraced ones, which `Runner::run` checks.
    let traced_spec = spec
        .clone()
        .with_profile(ProfileSpec::default())
        .with_trace(TraceSpec {
            sample_rate: 0.02,
            ..TraceSpec::default()
        });
    let (outcome, traced_wall) = runner
        .run("run-traced", &traced_spec, engine_for(&spec), spans)
        .ok_or("the traced run failed")?;
    m.set("harness.traced_overhead_frac", traced_wall / wall - 1.0);
    let (sim, audit_s) = audit(&outcome, &mut runner.tally, spans);
    m.set("metrics.audit_s", audit_s);
    m.set("sim.fair_jain", sim.fair_jain);
    m.set("sim.delivery_mean_ms", sim.delivery_mean_ms);
    m.set("sim.delivery_p95_ms", sim.delivery_p95_ms);

    let profile = outcome
        .profiling
        .as_ref()
        .ok_or("traced run has no profile")?;
    let work = profile.merged_work();
    let sched = profile.sched();
    let phases = profile.phases();
    // A sequential run has one "shard" whose execute phase is the whole
    // run; the cluster.* rows are about the exchange, so they stay 0 there.
    let cluster = |ns: u64| match engine_for(&spec) {
        EngineKind::Cluster => ns as f64 / 1e9,
        EngineKind::Sequential => 0.0,
    };
    m.set("sim.events", work.events as f64);
    m.set("sim.queue.pushes", work.queue_pushes as f64);
    m.set("sim.queue.pops", work.queue_pops as f64);
    m.set("sim.queue.overflow_hits", sched.overflow_hits as f64);
    m.set("sim.net.msgs_sent", work.msgs_sent as f64);
    m.set("sim.net.msgs_lost", work.msgs_lost as f64);
    m.set("sim.net.bytes_sent", work.bytes_sent as f64);
    m.set("telemetry.probe_calls", work.probe_calls as f64);
    m.set(
        "trace.hops",
        outcome.trace.as_ref().map_or(0, Vec::len) as f64,
    );
    m.set("cluster.execute_s", cluster(phases.execute_ns));
    m.set("cluster.exchange_s", cluster(phases.exchange_ns));
    m.set("cluster.fill_s", cluster(phases.fill_ns));
    m.set("cluster.barrier_s", cluster(phases.barrier_ns));
    m.set("cluster.idle_s", cluster(phases.idle_ns));
    m.set("cluster.windows", sched.windows as f64);
    m.set("cluster.mailbox_msgs", sched.mailbox_msgs as f64);
    m.set("cluster.straggler_windows", sched.straggler_windows as f64);

    tally.attempted += runner.tally.attempted;
    tally.failed += runner.tally.failed;
    Ok((m, tally))
}
