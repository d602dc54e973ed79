//! E-SCALE — sharded runtime scaling, across architectures.
//!
//! Runs the identical scenario on the `fed-cluster` sharded runtime at
//! increasing shard counts — for fair gossip *and* every structured
//! baseline (broker, Scribe, DKS, DAM, SplitStream) — and reports wall-clock
//! time, event throughput, barrier-window count and the
//! fairness/reliability metrics. Because the sharded runtime is
//! bit-for-bit deterministic, every row of one architecture must show the
//! *same* virtual-world outcome (deliveries, fairness) — the `identical`
//! flag asserts it — while wall-clock time drops as shards spread over
//! cores. Every point is timed twice and the faster wall clock kept,
//! the same noise discipline as the `profile-smoke` overhead gate. On a
//! single-core machine the sharded rows only add barrier overhead; the
//! speedup column is meaningful on multi-core hardware.
//!
//! [`smoke`] is the large-population entry point (100 k+ nodes): one
//! architecture, one shard count, a deliberately light publication plan,
//! returning enough to assert liveness — used by the CI smoke job.
//!
//! This module also owns how the crate times a run: [`timed_best_of`] is
//! the only wall-clock loop, and [`measure_overhead`] the only off/on
//! instrument comparison (profiler and tracer both use it).

use crate::bench_json::{events_per_sec, Row};
use crate::harness::{run_architecture, ArchOutcome, EngineKind, RunSummary};
use crate::scenario_run::{first_divergence, Divergence};
use fed_metrics::table::{fmt_f64, Table};
use fed_sim::SimTime;
use fed_workload::pubs::PubPlan;
use fed_workload::scenario::{Architecture, Placement, ScenarioSpec};
use std::time::Instant;

/// One row of the scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Architecture of this run.
    pub arch: Architecture,
    /// Shard count of this run.
    pub shards: usize,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Events processed (identical across one architecture's rows by
    /// construction).
    pub events: u64,
    /// Barrier windows executed.
    pub windows: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Wall-clock speedup versus the architecture's 1-shard row.
    pub speedup: f64,
}

/// One architecture's shard-invariant outcome summary.
#[derive(Debug, Clone)]
pub struct ArchScale {
    /// The architecture.
    pub arch: Architecture,
    /// Summary of the (shared) outcome, from the first shard count's run.
    pub summary: RunSummary,
    /// The sweep points, in shard-count order.
    pub points: Vec<ScalePoint>,
    /// Where a shard count's outcome first differs from the first shard
    /// count's (must be `None`).
    pub divergence: Option<Divergence>,
}

/// Result of the E-SCALE experiment.
#[derive(Debug)]
pub struct ScaleResult {
    /// Summary table (one row per architecture × shard count).
    pub table: Table,
    /// Per-architecture sweeps, in [`Architecture::SWEEP`] order.
    pub archs: Vec<ArchScale>,
    /// The first architecture that was not shard-invariant, and where it
    /// diverged (must be `None`).
    pub divergence: Option<(Architecture, Divergence)>,
    /// Machine-readable rows of every point, for `BENCH_cluster.json`.
    pub records: Vec<Row>,
}

/// The scenario the sweep runs: the standard workload with a shorter
/// publication phase so large populations stay tractable.
pub fn scale_spec(n: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::fair_gossip(n, seed);
    spec.plan = PubPlan {
        rate_per_sec: 10.0,
        duration: SimTime::from_secs(5),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: None,
    };
    spec
}

/// Runs `spec` on `engine` `runs` times (at least once) and returns the
/// outcome with the fastest wall clock in milliseconds — the repeats damp
/// scheduler noise. The outcomes are bit-identical by determinism, so the
/// last one serves.
pub fn timed_best_of(spec: &ScenarioSpec, engine: EngineKind, runs: usize) -> (ArchOutcome, f64) {
    let mut best: Option<(ArchOutcome, f64)> = None;
    for _ in 0..runs.max(1) {
        // Taken, so the previous outcome is freed before the next run:
        // two 100 k-node outcomes need not coexist.
        let fastest = best.take().map_or(f64::INFINITY, |(_, ms)| ms);
        let start = Instant::now();
        let outcome = run_architecture(spec, engine);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        best = Some((outcome, fastest.min(wall_ms)));
    }
    best.expect("at least one run")
}

/// An off/on overhead measurement of one cluster configuration: the same
/// scenario without and with one instrument (profiler, tracer) attached.
#[derive(Debug)]
pub struct OverheadPoint {
    /// The instrumented spec.
    pub spec: ScenarioSpec,
    /// Outcome of the uninstrumented run.
    pub off: ArchOutcome,
    /// Outcome of the instrumented run.
    pub on: ArchOutcome,
    /// Wall-clock milliseconds without the instrument (best of `runs`).
    pub wall_ms_off: f64,
    /// Wall-clock milliseconds with it (best of `runs`).
    pub wall_ms_on: f64,
}

impl OverheadPoint {
    /// `wall_on / wall_off - 1`: the enabled instrument's relative cost.
    pub fn overhead_frac(&self) -> f64 {
        self.wall_ms_on / self.wall_ms_off.max(1e-9) - 1.0
    }

    /// The measurement as an artifact row; the instrument's own module
    /// adds what only it knows (phases, hop counts).
    pub fn row(&self, suite: &str) -> Row {
        Row::new(suite, &self.spec, self.on.shards)
            .int("events", self.on.events)
            .float("wall_ms_off", self.wall_ms_off)
            .float("wall_ms_on", self.wall_ms_on)
            .float("overhead_frac", self.overhead_frac())
            .float(
                "events_per_sec_off",
                events_per_sec(self.off.events, self.wall_ms_off),
            )
            .float(
                "events_per_sec_on",
                events_per_sec(self.on.events, self.wall_ms_on),
            )
    }
}

/// Runs `spec_off` then `spec_on` on the cluster engine, each
/// [`timed_best_of`] `runs`.
pub fn measure_overhead(
    spec_off: &ScenarioSpec,
    spec_on: &ScenarioSpec,
    runs: usize,
) -> OverheadPoint {
    let (off, wall_ms_off) = timed_best_of(spec_off, EngineKind::Cluster, runs);
    let (on, wall_ms_on) = timed_best_of(spec_on, EngineKind::Cluster, runs);
    OverheadPoint {
        spec: spec_on.clone(),
        off,
        on,
        wall_ms_off,
        wall_ms_on,
    }
}

/// Runs one architecture's sweep at population size `n` over
/// `shard_counts` (at least one).
pub fn run_arch(arch: Architecture, n: usize, shard_counts: &[usize], seed: u64) -> ArchScale {
    let mut points = Vec::new();
    let mut divergence = None;
    let mut baseline: Option<(ArchOutcome, f64)> = None;
    for &shards in shard_counts {
        let spec = scale_spec(n, seed).with_arch(arch).with_shards(shards);
        // Best of two, the same noise discipline as the overhead gates.
        let (outcome, wall_ms) = timed_best_of(&spec, EngineKind::Cluster, 2);
        // The outcome must not depend on the shard count: every run is
        // the same run as the first one, by the parity gate's definition.
        if let Some((base, _)) = &baseline {
            divergence = divergence.or_else(|| first_divergence(base, &outcome));
        }
        let baseline_wall = baseline.as_ref().map_or(wall_ms, |(_, ms)| *ms);
        points.push(ScalePoint {
            arch,
            shards: outcome.shards,
            wall_ms,
            events: outcome.events,
            windows: outcome.windows,
            events_per_sec: events_per_sec(outcome.events, wall_ms),
            speedup: baseline_wall / wall_ms.max(1e-9),
        });
        baseline.get_or_insert((outcome, wall_ms));
    }
    let (baseline, _) = baseline.expect("at least one shard count");
    ArchScale {
        arch,
        summary: baseline.summary(),
        points,
        divergence,
    }
}

/// The small-n sharding regression gate: a synthetic `shard-gate` row
/// whose `events_per_sec` field carries the **4-shard / 1-shard
/// throughput ratio** of one architecture's sweep (not an absolute
/// rate). `bench-diff` reads `events_per_sec`, so committing this row to
/// `BENCH_cluster.json` makes any future collapse of the ratio — the
/// "fair-gossip 512 loses throughput going 1 → 4 shards" bug — fail the
/// CI diff instead of hiding inside two noisy absolute measurements.
/// `spec` is the swept scenario. Returns `None` when the sweep lacks a
/// 1-shard or 4-shard point.
pub fn shard_gate_row(sweep: &ArchScale, spec: &ScenarioSpec) -> Option<Row> {
    let one = sweep.points.iter().find(|p| p.shards == 1)?;
    let four = sweep.points.iter().find(|p| p.shards == 4)?;
    let ratio = four.events_per_sec / one.events_per_sec.max(1e-9);
    Some(
        Row::new("shard-gate", spec, 4)
            .knobs(spec)
            .throughput(four.events, four.windows, four.wall_ms)
            .float("events_per_sec", ratio),
    )
}

/// Runs the scaling sweep for every sweep architecture at population
/// size `n` over `shard_counts`.
pub fn run(n: usize, shard_counts: &[usize], seed: u64) -> ScaleResult {
    let mut table = Table::new(
        format!("E-SCALE: sharded runtime sweep (n={n})"),
        &[
            "arch",
            "shards",
            "wall_ms",
            "events",
            "windows",
            "events/s",
            "speedup",
            "jain",
            "reliability",
            "identical",
        ],
    );
    let mut archs = Vec::new();
    let mut divergence = None;
    let mut records = Vec::new();
    for arch in Architecture::SWEEP {
        let spec = scale_spec(n, seed).with_arch(arch);
        let sweep = run_arch(arch, n, shard_counts, seed);
        divergence = divergence.or_else(|| Some((arch, sweep.divergence.clone()?)));
        for p in &sweep.points {
            table.row_owned(vec![
                p.arch.name().to_string(),
                p.shards.to_string(),
                fmt_f64(p.wall_ms),
                p.events.to_string(),
                p.windows.to_string(),
                fmt_f64(p.events_per_sec),
                fmt_f64(p.speedup),
                fmt_f64(sweep.summary.ratio.jain),
                fmt_f64(sweep.summary.reliability),
                sweep.divergence.is_none().to_string(),
            ]);
            records.push(
                Row::new("scale", &spec, p.shards)
                    .knobs(&spec)
                    .throughput(p.events, p.windows, p.wall_ms),
            );
        }
        records.extend(shard_gate_row(&sweep, &spec));
        archs.push(sweep);
    }
    ScaleResult {
        table,
        archs,
        divergence,
        records,
    }
}

/// One large-population smoke configuration: what a `smoke:`,
/// `profile-smoke:` or `trace-smoke:` id names. The default is what CI
/// runs when the id stops at its head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmokeConfig {
    /// Architecture under test.
    pub arch: Architecture,
    /// Population size.
    pub n: usize,
    /// Shard count.
    pub shards: usize,
    /// Placement policy.
    pub placement: Placement,
}

impl Default for SmokeConfig {
    fn default() -> Self {
        SmokeConfig {
            arch: Architecture::SplitStream,
            n: 100_000,
            shards: 8,
            placement: Placement::RoundRobin,
        }
    }
}

impl SmokeConfig {
    /// The smoke scenario: the standard workload with a deliberately
    /// light publication plan (a handful of events), so 100 k-node runs
    /// stay tractable. Shared with the profiler and tracer overhead
    /// smokes.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::standard(self.arch, self.n, seed)
            .with_shards(self.shards)
            .with_placement(self.placement);
        spec.plan = PubPlan {
            rate_per_sec: 5.0,
            duration: SimTime::from_secs(2),
            topic_zipf_s: 1.0,
            payload_bytes: 64,
            warmup: SimTime::from_secs(1),
            flash: None,
        };
        spec
    }
}

/// Outcome of a large-population smoke run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmokePoint {
    /// Shard count the run used.
    pub shards: usize,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Events processed.
    pub events: u64,
    /// Barrier windows executed.
    pub windows: u64,
    /// The run's summary.
    pub summary: RunSummary,
    /// The point as a `BENCH_cluster.json` row.
    pub row: Row,
}

/// Runs one configuration once on the cluster engine. This is the 100
/// k-node CI smoke entry point: its caller checks liveness rather than
/// statistics.
pub fn smoke(config: SmokeConfig, seed: u64) -> SmokePoint {
    let spec = config.spec(seed);
    let (outcome, wall_ms) = timed_best_of(&spec, EngineKind::Cluster, 1);
    SmokePoint {
        shards: outcome.shards,
        wall_ms,
        events: outcome.events,
        windows: outcome.windows,
        summary: outcome.summary(),
        row: Row::new("smoke", &spec, outcome.shards)
            .knobs(&spec)
            .throughput(outcome.events, outcome.windows, wall_ms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_shard_invariant_for_every_architecture() {
        let r = run(48, &[1, 2, 4], 42);
        assert_eq!(r.divergence, None, "shard count changed a virtual outcome");
        assert_eq!(r.archs.len(), Architecture::SWEEP.len());
        for sweep in &r.archs {
            assert_eq!(
                sweep.divergence, None,
                "{} diverged across shards",
                sweep.arch
            );
            assert_eq!(sweep.points.len(), 3);
            let events = sweep.points[0].events;
            assert!(
                sweep.points.iter().all(|p| p.events == events),
                "{} event counts differ across shard counts",
                sweep.arch
            );
            let reliability = sweep.summary.reliability;
            assert!(reliability > 0.95, "{} r={reliability}", sweep.arch);
        }
    }

    #[test]
    fn shard_gate_row_carries_the_throughput_ratio() {
        let r = run(48, &[1, 2, 4], 42);
        let rows: Vec<_> = r
            .records
            .iter()
            .map(|row| fed_util::json::parse(&row.to_json()).unwrap())
            .collect();
        let gates: Vec<_> = rows
            .iter()
            .filter(|row| row.get("suite").and_then(|s| s.as_str()) == Some("shard-gate"))
            .collect();
        assert_eq!(gates.len(), Architecture::SWEEP.len());
        for gate in gates {
            assert_eq!(gate.get("shards").and_then(|s| s.as_f64()), Some(4.0));
            let ratio = gate.get("events_per_sec").and_then(|r| r.as_f64());
            assert!(
                ratio.unwrap() > 0.0,
                "gate ratio must be positive: {gate:?}"
            );
        }
        // Sweeps without both endpoints produce no gate row.
        let sweep = run_arch(Architecture::FairGossip, 48, &[2], 42);
        assert!(shard_gate_row(&sweep, &scale_spec(48, 42)).is_none());
    }

    #[test]
    fn smoke_runs_a_baseline() {
        let config = SmokeConfig {
            n: 256,
            shards: 4,
            ..SmokeConfig::default()
        };
        let p = smoke(config, 7);
        assert!(p.events > 0);
        assert!(p.summary.deliveries > 0);
        assert!(p.windows > 0, "cluster path must be exercised");
        let reliability = p.summary.reliability;
        assert!(reliability > 0.95, "r={reliability}");
    }
}
