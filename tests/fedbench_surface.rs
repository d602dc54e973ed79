//! The call shapes the frozen benchmark (`fedbench/src/{layers,workload}.rs`)
//! compiles against, pinned inside tier-1 `cargo test`: `fedbench/` is a
//! workspace of its own that only its own CI job builds, so without this a
//! rename or re-typing of anything below would pass here and break there.
//!
//! Every statement mirrors one the benchmark makes; keep the shapes —
//! argument lists, method-call syntax, field paths — exactly as they are.

use fed::baselines::Forest;
use fed::cluster::ShardedSimulation;
use fed::core::ledger::{Counters, FairnessLedger, RatioSpec};
use fed::dht::{DhtId, DhtNetwork};
use fed::experiments::harness::{groups_of, run_architecture, ArchOutcome, EngineKind};
use fed::experiments::scenario_run::{engine_for, outcomes_match};
use fed::membership::{FullMembership, PeerSampler};
use fed::profile::ProfileSpec;
use fed::sim::exec::{
    seed_streams, EffectSink, EventKey, EventKind, EventQueue, Kernel, Probe, SendFate,
};
use fed::sim::network::{
    DelayFault, FaultSchedule, LatencyModel, MobilitySegment, MobilityTrace, NetworkModel,
    OnewayFault, PartitionFault,
};
use fed::sim::{Context, NodeId, Protocol, SimDuration, SimTime, Simulation};
use fed::telemetry::{ShardCollector, TelemetrySpec};
use fed::util::dist::{InvalidDistribution, LogNormal, Zipf};
use fed::util::histogram::Histogram;
use fed::util::rng::{Rng64, SplitMix64, Xoshiro256StarStar};
use fed::util::stats::Summary;
use fed::workload::scenario::{Architecture, MaterializedScenario, ScenarioSpec};
use fed_trace::TraceSpec;
use std::hint::black_box;

fn constant_10ms() -> NetworkModel {
    NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10)))
}

/// Does nothing on any callback.
struct Noop;

impl Protocol for Noop {
    type Msg = ();
    type Cmd = ();
    fn on_init(&mut self, _ctx: &mut Context<'_, ()>) {}
    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _token: u64) {}
}

/// Receives one token and passes it on.
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

fn ring(n: usize) -> impl Fn(NodeId, &mut Xoshiro256StarStar) -> Relay + Send + Sync + 'static {
    move |id, _| Relay {
        next: NodeId::new((id.as_u32() + 1) % n as u32),
    }
}

/// Swallows whatever a dispatched handler emits.
struct Discard;

impl<P: Protocol> EffectSink<P> for Discard {
    fn emit(&mut self, _key: EventKey, _kind: EventKind<P>) {}
}

/// `sim.kernel.dispatch_noop_ns`: `Kernel::new` plus the seven-parameter
/// `dispatch` with three bare `None`s.
#[test]
fn kernel_dispatch_keeps_its_seven_parameter_shape() {
    let n = 8;
    let mut factory = |_: NodeId, _: &mut Xoshiro256StarStar| Noop;
    let mut sink = Discard;
    let mut kernel = Kernel::new(
        n,
        (0..n as u32).collect(),
        seed_streams(7, n),
        constant_10ms(),
        &mut factory,
        &mut sink,
    );
    for k in 1..=16u64 {
        let key = EventKey {
            time: SimTime::from_micros(k),
            src: 0,
            seq: k,
        };
        let kind = EventKind::Deliver {
            to: NodeId::new((k % n as u64) as u32),
            from: NodeId::new(0),
            msg: (),
        };
        kernel.dispatch(key, kind, &mut factory, &mut sink, None, None, None);
    }
    let received: u64 = kernel.stats_slice().iter().map(|s| s.msgs_received).sum();
    assert_eq!(received, 16);
    // The benchmark also drives the queue directly.
    let mut queue: EventQueue<Noop> = EventQueue::new();
    queue.push(
        EventKey {
            time: SimTime::from_micros(1),
            src: 0,
            seq: 0,
        },
        EventKind::Crash(NodeId::new(0)),
    );
    assert!(queue.pop_before(SimTime::from_micros(2)).is_some());
}

/// `telemetry.probe_call_ns`: the collector's hooks through `Probe`
/// method syntax, then `finalize`.
#[test]
fn shard_collector_is_driven_through_probe_method_syntax() {
    let mut collector = ShardCollector::sequential(TelemetrySpec::default(), 1_000);
    for k in 1..=30u64 {
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
    }
    let series = collector.finalize(SimTime::from_secs(4));
    assert_eq!(series.windows.iter().map(|w| w.events).sum::<u64>(), 10);
}

/// `sim.net.transmit_*_ns`: each model built by `constant_10ms()` or
/// `NetworkModel::reliable`, then `.with_faults(FaultSchedule { .. })` and
/// `.with_mobility(Some(..))` over struct literals of every fault and
/// mobility type, driven through `transmit(&mut rng, now, from, to)`.
#[test]
fn network_models_are_built_from_fault_and_mobility_literals() {
    fn transmit(net: &NetworkModel) -> usize {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut delivered = 0;
        for k in 1..=1_000u64 {
            let now = SimTime::from_micros(k * 50);
            let from = (k % 1_000) as usize;
            let to = ((k * 7 + 1) % 1_000) as usize;
            delivered += usize::from(black_box(net.transmit(&mut rng, now, from, to)).is_some());
        }
        delivered
    }
    let lognormal = || LatencyModel::LogNormalMs {
        median_ms: 40.0,
        sigma: 0.6,
        floor: SimDuration::from_millis(5),
    };
    assert_eq!(transmit(&constant_10ms()), 1_000);
    assert_eq!(transmit(&NetworkModel::reliable(lognormal())), 1_000);
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
    // The faults sit beyond the probed times: every message is delivered.
    assert_eq!(transmit(&constant_10ms().with_faults(faults)), 1_000);
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
    assert_eq!(
        transmit(&constant_10ms().with_mobility(Some(mobility))),
        1_000
    );
}

/// `membership.sample_ns`: a `FullMembership` oracle sampled through the
/// `PeerSampler` trait's `sample_peers` (method syntax, trait in scope).
#[test]
fn full_membership_is_sampled_through_peer_sampler() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let mut members = FullMembership::new(NodeId::new(0), 2_000);
    for _ in 0..100 {
        let peers = black_box(members.sample_peers(&mut rng, 8));
        assert_eq!(peers.len(), 8);
        assert!(peers.iter().all(|p| p.index() != 0 && p.index() < 2_000));
    }
}

/// `sim.engine.null_event_ns`, `cluster.null_event_ns`,
/// `cluster.window_ns`: both engines stepped with `run_for`.
#[test]
fn both_engines_step_with_run_for() {
    let n = 64;
    let step = SimDuration::from_millis(100);
    let mut sim = Simulation::new(n, constant_10ms(), 7, ring(n));
    sim.run_for(step);
    assert!(sim.events_processed() > 0);
    let mut cluster = ShardedSimulation::new(n, constant_10ms(), 7, 2, ring(n));
    cluster.run_for(step);
    assert_eq!(cluster.events_processed(), sim.events_processed());
    let before = cluster.windows();
    cluster.run_for(step);
    assert!(cluster.windows() > before);
}

/// The traced run: `run_architecture` on the engine `engine_for` picks,
/// read back through `.profiling.{merged_work, sched, phases}` and
/// `.trace`.
#[test]
fn traced_run_exposes_profile_and_trace() {
    let spec = ScenarioSpec::standard(Architecture::SplitStream, 32, 7)
        .with_telemetry(TelemetrySpec::default())
        .with_shards(2);
    let traced_spec = spec
        .clone()
        .with_profile(ProfileSpec::default())
        .with_trace(TraceSpec {
            sample_rate: 0.5,
            ..TraceSpec::default()
        });
    assert_eq!(engine_for(&spec), EngineKind::Cluster);
    let outcome = run_architecture(&traced_spec, engine_for(&spec));
    let profile = outcome
        .profiling
        .as_ref()
        .expect("traced run has a profile");
    let work = profile.merged_work();
    let sched = profile.sched();
    let phases = profile.phases();
    assert_eq!(work.events, outcome.events);
    assert!(work.queue_pushes >= work.queue_pops && work.queue_pops > 0);
    assert!(work.msgs_sent >= work.msgs_lost && work.bytes_sent > 0);
    assert!(work.probe_calls > 0);
    assert_eq!(sched.windows, outcome.windows);
    let _ = (
        sched.overflow_hits,
        sched.mailbox_msgs,
        sched.straggler_windows,
    );
    let _ = (
        phases.execute_ns,
        phases.exchange_ns,
        phases.fill_ns,
        phases.barrier_ns,
        phases.idle_ns,
    );
    assert!(outcome.trace.as_ref().map_or(0, Vec::len) > 0);
}

/// The check after the timed runs: the sequential reference, an
/// `Option<(ArchOutcome, f64)>` from the runner, is compared with the
/// timed cluster outcome through `outcomes_match(&r, &outcome)` inside
/// `is_some_and`.
#[test]
fn cluster_outcome_is_checked_through_outcomes_match() {
    let spec = ScenarioSpec::standard(Architecture::Broker, 16, 3).with_shards(2);
    let outcome = run_architecture(&spec, engine_for(&spec));
    let reference: Option<(ArchOutcome, f64)> =
        Some((run_architecture(&spec, EngineKind::Sequential), 0.0));
    let same = reference.is_some_and(|(r, _)| outcomes_match(&r, &outcome));
    assert!(same);
}

/// `fedbench/src/workload.rs::load`: `parse_scenario(text)` with the
/// error used through `Display` inside a `Result<_, String>`, then
/// `.spec.with_seed(..)`.
#[test]
fn workload_files_load_through_parse_scenario_and_with_seed() {
    use fed_workload::scenario_file::parse_scenario;
    fn load(name: &str, toml: &str, seed: u64) -> Result<ScenarioSpec, String> {
        let file = parse_scenario(toml).map_err(|e| format!("{name}: {e}"))?;
        Ok(file.spec.with_seed(seed))
    }
    let toml = include_str!("../fedbench/workloads/gossip-wan-seq.toml");
    let spec = load("gossip-wan-seq", toml, 301).expect("workload file parses");
    assert_eq!((spec.seed, spec.n, spec.shards), (301, 1000, 1));
    let err = load("typo", &toml.replace("nodes =", "nodez ="), 301).unwrap_err();
    assert!(
        err.starts_with("typo: line ") && err.contains("unknown key `nodez`"),
        "{err}"
    );
}

/// `dht.route_ns` and `dht.build_s` (and `shared_build` in
/// `fedbench/src/workload.rs`): `DhtNetwork::build(n)` through
/// `black_box`, `state_of(i).expect(..)` bound to a local, `next_hop`
/// of `DhtId::of_topic(k)` on it.
#[test]
fn dht_is_built_by_population_and_routed_through_state_of() {
    let dht = DhtNetwork::build(64);
    let mut k = 0usize;
    for _ in 0..200 {
        k += 1;
        let state = dht.state_of(k % 64).expect("index in range");
        black_box(state.next_hop(DhtId::of_topic(k % 100)));
    }
    let key = DhtId::of_topic(7);
    let root = dht.root_of(key).index;
    assert!(dht
        .state_of(root)
        .expect("index in range")
        .next_hop(key)
        .is_none());
    black_box(DhtNetwork::build(640 / 10));
}

/// `fedbench/src/main.rs::metric_value` and `fedbench/tests/contract.rs`:
/// the JSON reader under its `fed_profile::json` path, `parse(..)`
/// returning `Result<Value, String>`, the accessors as methods and as
/// paths, the `Obj` / `Bool` variants matched by name.
#[test]
fn json_reader_keeps_its_fed_profile_path_and_shape() {
    use fed_profile::json::{parse, Value};
    fn metric_value(line: &str, name: &str) -> Result<f64, String> {
        let value = fed_profile::json::parse(line)?;
        value
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("result line has no metric {name}"))
    }
    let line = r#"{"workload":"w","correct":true,"paths":["fedbench"],
                   "metrics":{"wall_s":{"value":0.25,"unit":"s"}}}"#;
    assert_eq!(metric_value(line, "wall_s"), Ok(0.25));
    assert!(metric_value(line, "setup_s").is_err());
    assert!(metric_value("{", "wall_s").is_err());
    let parsed: Value = parse(line).expect("result line is JSON");
    let Some(Value::Obj(printed)) = parsed.get("metrics") else {
        panic!("metrics is an object");
    };
    assert_eq!(printed.len(), 1);
    assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(parsed.get("workload").and_then(Value::as_str), Some("w"));
    let paths = parsed.get("paths").and_then(Value::as_array);
    assert_eq!(paths.map(<[Value]>::len), Some(1));
    let unit = printed[0].1.get("unit").and_then(Value::as_str);
    assert_eq!((printed[0].0.as_str(), unit), ("wall_s", Some("s")));
}

/// `fedbench/src/workload.rs::audit`: `outcome.audit()` read through
/// `.spurious()`, `.latency_ms()` (`.mean()`, `.percentile(95.0)`) and
/// `.reliability()`, beside `fed_metrics::ratio_report` over
/// `outcome.ledgers.iter()` with `&RatioSpec::topic_based()`, read as `.jain`.
#[test]
fn outcome_is_audited_through_audit_and_ratio_report() {
    let spec = ScenarioSpec::standard(Architecture::Broker, 16, 3);
    let outcome = run_architecture(&spec, engine_for(&spec));
    let audit = outcome.audit();
    assert_eq!(audit.spurious(), 0);
    let latency = audit.latency_ms();
    let delivery_mean_ms: f64 = latency.mean();
    let delivery_p95_ms: f64 = latency.percentile(95.0).unwrap_or(0.0);
    let reliability: f64 = audit.reliability();
    let fair_jain: f64 =
        fed::metrics::ratio_report(outcome.ledgers.iter(), &RatioSpec::topic_based()).jain;
    assert!(delivery_p95_ms >= delivery_mean_ms.min(delivery_p95_ms));
    assert!((0.0..=1.0).contains(&reliability) && fair_jain > 0.0);
}

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_counters(h: &mut u64, c: &Counters) {
    for x in [
        c.published_msgs,
        c.published_bytes,
        c.forwarded_msgs,
        c.forwarded_bytes,
        c.delivered_events,
        c.maintenance_msgs,
        c.maintenance_credits,
    ] {
        fnv(h, x);
    }
}

/// `fedbench/src/workload.rs::outcome_digest`: `o.events`, `o.deliveries`
/// iterated as `(id, at)` with `id.publisher()` / `id.seq()` and
/// `at.as_micros()`, every `o.stats` field, and each ledger's `totals()`,
/// `last_window()` (every `Counters` field), `active_filters()` and
/// `windows_rolled()`.
#[test]
fn outcome_digest_reads_its_field_paths() {
    fn outcome_digest(o: &ArchOutcome) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        fnv(&mut h, o.events);
        for log in &o.deliveries {
            fnv(&mut h, log.len() as u64);
            for (id, at) in log {
                fnv(
                    &mut h,
                    u64::from(id.publisher()) << 32 | u64::from(id.seq()),
                );
                fnv(&mut h, at.as_micros());
            }
        }
        for s in &o.stats {
            for x in [
                s.msgs_sent,
                s.bytes_sent,
                s.msgs_received,
                s.bytes_received,
                s.msgs_lost,
            ] {
                fnv(&mut h, x);
            }
        }
        for l in &o.ledgers {
            fnv_counters(&mut h, l.totals());
            fnv_counters(&mut h, l.last_window());
            fnv(&mut h, u64::from(l.active_filters()));
            fnv(&mut h, l.windows_rolled());
        }
        h
    }
    let spec = ScenarioSpec::standard(Architecture::FairGossip, 16, 3).with_shards(2);
    let sequential = run_architecture(&spec, EngineKind::Sequential);
    let cluster = run_architecture(&spec, EngineKind::Cluster);
    assert!(sequential.total_deliveries() > 0);
    assert_eq!(outcome_digest(&sequential), outcome_digest(&cluster));
}

/// `fedbench/src/workload.rs::{delivery_obligations, pin_seed,
/// shared_build}`: `spec.materialize()` read through
/// `materialized.profile.{len, topics_of}` and `.schedule`,
/// `Zipf::new(..)?` in a function returning `InvalidDistribution` and its
/// `.pmf`, `SplitMix64::seed_from_u64` drawn with `next_u64`,
/// `groups_of(&materialized.profile)` and `Forest::build(spec.n, 8, 8)`.
#[test]
fn workload_set_up_reads_the_materialized_scenario() {
    fn obligations(
        spec: &ScenarioSpec,
        materialized: &MaterializedScenario,
    ) -> Result<(f64, f64), InvalidDistribution> {
        let mut subscribers = vec![0.0f64; spec.num_topics];
        for node in 0..materialized.profile.len() {
            for topic in materialized.profile.topics_of(node) {
                subscribers[topic.index()] += 1.0;
            }
        }
        let obliged: f64 = materialized
            .schedule
            .iter()
            .map(|p| subscribers[p.event.topic().index()])
            .sum();
        let zipf = Zipf::new(spec.num_topics, spec.plan.topic_zipf_s)?;
        let per_publication: f64 = subscribers
            .iter()
            .enumerate()
            .map(|(topic, n)| zipf.pmf(topic) * n)
            .sum();
        Ok((obliged, per_publication))
    }
    let mut derived = SplitMix64::seed_from_u64(42);
    let spec = ScenarioSpec::standard(Architecture::Dks, 32, 3).with_seed(derived.next_u64());
    let (obliged, per_publication) = spec
        .materialize()
        .and_then(|m| obligations(&spec, &m))
        .expect("standard spec holds valid distributions");
    assert!(obliged > 0.0 && per_publication > 0.0);
    let materialized = spec.materialize().expect("valid distributions");
    black_box(groups_of(&materialized.profile));
    black_box(Forest::build(spec.n, 8, 8));
}

/// `fedbench/src/layers.rs::small_layers` and the wall summary:
/// `LogNormal::from_median(40.0, 0.6)` sampled with `sample`,
/// `Histogram::new(0.0, 200.0, 40)` fed with `record`,
/// `FairnessLedger::new` with `record_forward` / `record_delivery` and
/// `totals()`, and `Summary::from_values` read by `min`, `median`, `max`.
#[test]
fn small_layers_keep_their_constructors() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let ln = LogNormal::from_median(40.0, 0.6).expect("valid parameters");
    assert!(black_box(ln.sample(&mut rng)) > 0.0);
    let mut hist = Histogram::new(0.0, 200.0, 40).expect("valid geometry");
    hist.record(black_box(73.0));
    let mut ledger = FairnessLedger::new();
    ledger.record_forward(black_box(64));
    ledger.record_delivery();
    assert_eq!(ledger.totals().delivered_events, 1);
    let walls = Summary::from_values(vec![0.3, 0.1, 0.2]);
    let (Some(fastest), Some(wall), Some(slowest)) = (walls.min(), walls.median(), walls.max())
    else {
        panic!("three values");
    };
    assert_eq!((fastest, wall, slowest), (0.1, 0.2, 0.3));
}
