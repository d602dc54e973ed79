//! The single source of every name the benchmark prints: workloads,
//! end-to-end metrics and per-layer metrics, each with its unit, direction
//! and the prediction ("moves") later issues are to check.
//!
//! `BENCHMARK.json`, `--list`, the result printer and the contract test all
//! read these tables; a name that is not here cannot be reported, and a name
//! that is here must be.

/// One frozen input set.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The scenario file, compiled in so a run reads no input file.
    pub toml: &'static str,
    /// Why the workload exists: the layer it loads and the one it bypasses.
    pub why: &'static str,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
pub struct Metric {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics are never gated).
    pub bound: Option<f64>,
    /// Definition, and which end-to-end number on which workload the
    /// metric is predicted to move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// The five workloads, in running order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "gossip-wan-seq",
        toml: include_str!("../workloads/gossip-wan-seq.toml"),
        why: "the paper's fair gossip on the sequential engine over a log-normal WAN: handler, ledger, peer sampling and a latency draw per send do the work; the queue is in its cheap regime",
    },
    Workload {
        name: "dks-zipf-seq",
        toml: include_str!("../workloads/dks-zipf-seq.toml"),
        why: "handler-heavy DKS baseline (DHT routing, group floods, seen-sets) on 10 ms constant links, sequential engine: queue and network do little",
    },
    Workload {
        name: "dc-1ms-seq",
        toml: include_str!("../workloads/dc-1ms-seq.toml"),
        why: "cheapest handler (splitstream) on 1 ms links, below the queue's 4 ms first bucket: front-rung sorted inserts dominate, so a handler optimisation must show no change",
    },
    Workload {
        name: "dc-1ms-cluster2",
        toml: include_str!("../workloads/dc-1ms-cluster2.toml"),
        why: "the same events as dc-1ms-seq through 2 shards: pop_before windows and batch exchange, so a queue change that helps pop and hurts windowed drains shows as a split",
    },
    Workload {
        name: "scribe-flash-cluster2",
        toml: include_str!("../workloads/scribe-flash-cluster2.toml"),
        why: "largest working set (30 000-node Scribe flash crowd, 2 shards): DHT build, materialisation and per-node state dominate setup_s and peak_rss_mb; few large windows",
    },
];

/// What a user of the simulators sees. Host time unless marked simulated.
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", Lower, 0.25,
        "fastest of the timed run_architecture calls (materialise + build + run + collect), profile and trace off; host time"),
    e2e("events_per_sec", "1/s", Higher, 0.25,
        "simulated events per host second: outcome.events / wall_s"),
    e2e("setup_s", "s", Lower, 0.25,
        "median host time of scenario parse + materialize + the architecture's shared build, timed standalone before each repeat"),
    e2e("peak_rss_mb", "MB", Lower, 0.15,
        "VmHWM of the benchmark process after the timed repeats"),
    e2e("reliability", "ratio", Higher, 0.01,
        "simulated: delivered / expected from the delivery audit; exact at a fixed seed"),
];

/// One row per layer probe (layer = crate). `*_ns` is median host ns per
/// call, timed by the benchmark around the public function.
pub const PER_LAYER: &[Metric] = &[
    layer("sim.queue.hold_spread_ns", "ns", Lower,
        "EventQueue pop+push, 50k pending, re-push at +10 ms with jitter; moves events_per_sec on dks-zipf-seq and gossip-wan-seq"),
    layer("sim.queue.hold_subbucket_ns", "ns", Lower,
        "EventQueue pop+push, 4k pending, re-push at +1 ms (inside the 4 ms front range); moves events_per_sec on dc-1ms-seq, none on dks-zipf-seq"),
    layer("sim.queue.window_burst_ns", "ns", Lower,
        "push a burst for the next 1 ms window, drain with pop_before; moves events_per_sec on both cluster2 workloads"),
    layer("sim.queue.far_timer_ns", "ns", Lower,
        "pushes at least 2.1 s ahead (overflow and re-base path) then pops; moves wall_s on every workload slightly, publications are scheduled up-front"),
    layer("sim.kernel.dispatch_noop_ns", "ns", Lower,
        "Kernel::dispatch of Deliver to a no-op protocol, discarding sink, all hooks None; floor of events_per_sec everywhere"),
    layer("sim.engine.null_event_ns", "ns", Lower,
        "Simulation with a relay protocol (one send per receipt) on 10 ms constant links; floor of wall_s on the three -seq workloads"),
    layer("sim.net.transmit_const_ns", "ns", Lower,
        "NetworkModel::transmit, constant latency; moves the four constant-latency workloads"),
    layer("sim.net.transmit_lognormal_ns", "ns", Lower,
        "NetworkModel::transmit, floored log-normal latency; moves gossip-wan-seq"),
    layer("sim.net.transmit_faults_ns", "ns", Lower,
        "transmit with three scheduled faults; moves none of the five workloads, guards the verdict path"),
    layer("sim.net.transmit_mobility_ns", "ns", Lower,
        "transmit with a 4-segment periodic MobilityTrace; moves none of the five workloads, guards the verdict path"),
    layer("util.dist.lognormal_ns", "ns", Lower,
        "LogNormal::from_median + sample, as the latency model does per send; moves gossip-wan-seq"),
    layer("util.histogram.record_ns", "ns", Lower,
        "Histogram::record; moves all five, telemetry is on in every workload file"),
    layer("cluster.null_event_ns", "ns", Lower,
        "ShardedSimulation at 2 shards, relay protocol, every send cross-shard; moves wall_s on both cluster2 workloads"),
    layer("cluster.window_ns", "ns", Lower,
        "host time per window when each shard runs one event per window; moves wall_s on dc-1ms-cluster2 far more than on scribe-flash-cluster2"),
    layer("core.ledger.record_ns", "ns", Lower,
        "FairnessLedger record_forward + record_delivery; moves gossip-wan-seq"),
    layer("membership.sample_ns", "ns", Lower,
        "FullMembership fanout-8 sample; moves gossip-wan-seq"),
    layer("dht.route_ns", "ns", Lower,
        "one DHT next-hop decision; moves dks-zipf-seq and scribe-flash-cluster2"),
    layer("telemetry.probe_call_ns", "ns", Lower,
        "ShardCollector event/send/receive hooks called directly; moves events_per_sec on all five"),
    layer("core.fair-gossip.event_ns", "ns", Lower,
        "arch ladder: wall / events of ScenarioSpec::standard at 1000 nodes, 2 s of publications, sequential; handler share = value - sim.engine.null_event_ns; moves gossip-wan-seq"),
    layer("core.fair-gossip.events", "count", Higher, "arch ladder event count, exact at a fixed seed"),
    layer("core.static-gossip.event_ns", "ns", Lower, "arch ladder; no workload, guards the classic protocol"),
    layer("core.static-gossip.events", "count", Higher, "arch ladder event count, exact at a fixed seed"),
    layer("baselines.broker.event_ns", "ns", Lower, "arch ladder; no workload, guards the broker"),
    layer("baselines.broker.events", "count", Higher, "arch ladder event count, exact at a fixed seed"),
    layer("baselines.scribe.event_ns", "ns", Lower, "arch ladder; moves scribe-flash-cluster2"),
    layer("baselines.scribe.events", "count", Higher, "arch ladder event count, exact at a fixed seed"),
    layer("baselines.dks.event_ns", "ns", Lower, "arch ladder; moves dks-zipf-seq"),
    layer("baselines.dks.events", "count", Higher, "arch ladder event count, exact at a fixed seed"),
    layer("baselines.dam.event_ns", "ns", Lower, "arch ladder; no workload, guards DAM"),
    layer("baselines.dam.events", "count", Higher, "arch ladder event count, exact at a fixed seed"),
    layer("baselines.splitstream.event_ns", "ns", Lower, "arch ladder; moves both dc-1ms workloads, slightly"),
    layer("baselines.splitstream.events", "count", Higher, "arch ladder event count, exact at a fixed seed"),
    layer("baselines.hybrid.event_ns", "ns", Lower, "arch ladder; no workload, guards the hybrid"),
    layer("baselines.hybrid.events", "count", Higher, "arch ladder event count, exact at a fixed seed"),
    layer("dht.build_s", "s", Lower,
        "DhtNetwork::build at the largest workload's population (30 000); moves setup_s and wall_s on scribe-flash-cluster2"),
    layer("workload.parse_s", "s", Lower,
        "scenario_file::parse_scenario of this workload's file; moves setup_s, slightly"),
    layer("workload.materialize_s", "s", Lower,
        "ScenarioSpec::materialize of this workload; moves setup_s and wall_s"),
    layer("workload.groups_of_s", "s", Lower,
        "harness::groups_of on this workload's interest profile; moves setup_s on dks-zipf-seq"),
    layer("metrics.audit_s", "s", Lower,
        "ArchOutcome::audit + fairness summary on a finished outcome; not in wall_s, what `run @name` users wait for after the engine stops"),
    layer("harness.wall_spread_frac", "ratio", Lower,
        "(max - min) / median of this run's untraced repeats: the noise every bound must exceed"),
    layer("harness.traced_overhead_frac", "ratio", Lower,
        "traced wall / untraced median wall - 1, [profile] and [trace] sample_rate 0.02 on"),
    layer("sim.events", "count", Higher, "traced run: events dispatched, exact at a fixed seed"),
    layer("sim.fair_jain", "ratio", Higher, "simulated Jain index of per-node contribution/benefit ratios, the paper's fairness measure; exact at a fixed seed"),
    layer("sim.delivery_mean_ms", "ms", Lower, "simulated mean publish-to-deliver latency, exact at a fixed seed"),
    layer("sim.delivery_p95_ms", "ms", Lower, "simulated p95 publish-to-deliver latency, exact at a fixed seed"),
    layer("sim.queue.pushes", "count", Lower, "traced run: external queue pushes, exact"),
    layer("sim.queue.pops", "count", Lower, "traced run: queue pops, exact"),
    layer("sim.queue.overflow_hits", "count", Lower, "traced run: pushes beyond the calendar horizon; exact for a fixed shard count"),
    layer("sim.net.msgs_sent", "count", Lower, "traced run: messages handed to the network, exact"),
    layer("sim.net.msgs_lost", "count", Lower, "traced run: messages the network dropped, exact"),
    layer("sim.net.bytes_sent", "count", Lower, "traced run: payload bytes sent, exact"),
    layer("telemetry.probe_calls", "count", Lower, "traced run: telemetry hook invocations, exact"),
    layer("trace.hops", "count", Lower, "traced run: hop records kept at sample_rate 0.02, exact"),
    layer("cluster.execute_s", "s", Lower, "traced run: host time popping and dispatching, summed over shards (0 on -seq workloads, as every cluster.* below)"),
    layer("cluster.exchange_s", "s", Lower, "traced run: draining and sending cross-shard batches"),
    layer("cluster.fill_s", "s", Lower, "traced run: blocked absorbing in-flight batches"),
    layer("cluster.barrier_s", "s", Lower, "traced run: waiting for the next window decision after local work"),
    layer("cluster.idle_s", "s", Lower, "traced run: waiting after a window with no local work"),
    layer("cluster.windows", "count", Lower, "traced run: conservative windows executed"),
    layer("cluster.mailbox_msgs", "count", Lower, "traced run: cross-shard messages staged"),
    layer("cluster.straggler_windows", "count", Lower, "traced run: windows bounded by a straggler shard"),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
