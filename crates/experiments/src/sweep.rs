//! SWEEP — generative scenario sweeps and Pareto frontier maps.
//!
//! Runs a seed-derived family of generated workloads
//! ([`fed_workload::generated_spec`]) across **every** architecture,
//! reads each run's fairness (ratio-Jain), latency (p95) and forwarding
//! cost (messages per delivery) off its [`RunSummary`], reduces each
//! architecture to its Pareto frontier ([`pareto_frontier`]) and axis
//! means ([`mean_of`]), and renders the result as rows of the committed
//! `BENCH_sweep.json` artifact that `bench-diff` tracks across commits.
//!
//! Every number in a sweep row is a **virtual-world** quantity — no wall
//! clock anywhere — so the artifact is a pure function of
//! `(sweep_seed, workloads)`: byte-identical on every machine, and
//! byte-identical across engines. The experiment proves the latter on
//! every invocation: each (workload, architecture) also runs on the
//! cluster at [`SWEEP_SHARDS`], and [`first_divergence`] compares each
//! cluster outcome with the sequential one — the sweep doubles as a broad
//! seq-vs-cluster differential gate over the generated scenario space,
//! mobility traces and fault schedules included.
//!
//! The artifact carries two suites: `sweep` (the full map, regenerated
//! manually via `fed-experiments sweep`) and `sweep-smoke` (a downscaled
//! prefix of the same family, regenerated by CI on every push via the
//! `sweep-smoke` pseudo-id and diffed against the committed rows —
//! where any drift is a real behavior change, not noise).

use crate::bench_json::Row;
use crate::harness::{run_architecture, EngineKind, RunSummary};
use crate::scenario_run::{first_divergence, Divergence};
use fed_metrics::table::{fmt_f64, Table};
use fed_workload::{generated_spec, Architecture};

/// The committed sweep artifact, relative to the invocation directory.
pub const BENCH_SWEEP_PATH: &str = "BENCH_sweep.json";

/// Workloads in the full `sweep` suite.
pub const FULL_WORKLOADS: u64 = 48;

/// Workloads in the CI `sweep-smoke` suite — a prefix of the full
/// family, small enough to regenerate on every push.
pub const SMOKE_WORKLOADS: u64 = 6;

/// Shard counts the cluster half of the differential gate runs at.
pub const SWEEP_SHARDS: &[usize] = &[1, 4];

/// One run of one generated workload: the workload's index in the sweep
/// and the run's summary.
pub type SweepRun = (u64, RunSummary);

/// The frontier axes: fairness (higher is better), then p95 latency and
/// forwarding cost (lower is better). A run without deliveries has no
/// latency or cost, which reads as NaN here.
fn axes(s: &RunSummary) -> [f64; 3] {
    [
        s.ratio.jain,
        s.latency_p95_ms.unwrap_or(f64::NAN),
        s.msgs_per_delivery.unwrap_or(f64::NAN),
    ]
}

/// `true` when `a` Pareto-dominates `b`: at least as good on every axis
/// (fairness up, latency down, cost down) and strictly better on at
/// least one.
fn dominates(a: &RunSummary, b: &RunSummary) -> bool {
    let ([ja, la, ca], [jb, lb, cb]) = (axes(a), axes(b));
    let ge = ja >= jb && la <= lb && ca <= cb;
    let strict = ja > jb || la < lb || ca < cb;
    ge && strict
}

/// The non-dominated subset of `runs`, in a deterministic order:
/// ascending latency, then ascending cost, then descending fairness,
/// then workload index. Runs with a non-finite axis are skipped.
///
/// Duplicate points (identical on all three axes) are kept once, by
/// lowest workload index — so the frontier depends only on the *set*
/// of runs, not on their arrival order.
pub fn pareto_frontier(runs: &[SweepRun]) -> Vec<SweepRun> {
    let mut frontier: Vec<SweepRun> = Vec::new();
    for (index, candidate) in runs {
        if !axes(candidate).iter().all(|x| x.is_finite()) {
            continue;
        }
        let same = |kept: &RunSummary| axes(kept) == axes(candidate);
        if frontier
            .iter()
            .any(|(i, kept)| dominates(kept, candidate) || (same(kept) && i <= index))
        {
            continue;
        }
        frontier.retain(|(i, kept)| !(dominates(candidate, kept) || (same(kept) && index < i)));
        frontier.push((*index, candidate.clone()));
    }
    frontier.sort_by(|(i, a), (j, b)| {
        let ([ja, la, ca], [jb, lb, cb]) = (axes(a), axes(b));
        la.total_cmp(&lb)
            .then(ca.total_cmp(&cb))
            .then(jb.total_cmp(&ja))
            .then(i.cmp(j))
    });
    frontier
}

/// Mean of one extracted axis over a run set (0 when empty).
pub fn mean_of(runs: &[SweepRun], axis: impl Fn(&RunSummary) -> f64) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(|(_, s)| axis(s)).sum::<f64>() / runs.len() as f64
}

fn p95(s: &RunSummary) -> f64 {
    axes(s)[1]
}

fn cost(s: &RunSummary) -> f64 {
    axes(s)[2]
}

/// The artifact rows: per architecture, the sorted frontier points then
/// the aggregate summary row.
///
/// `suite`, `arch`, `sweep_seed`, `workloads` and a frontier row's
/// `point` (its position on the sorted frontier) identify a row for
/// `bench-diff` pairing; the axes and the originating `workload_index`
/// are measurements. The aggregate row holds means over *all* runs (not
/// just the frontier) plus the frontier size, so a regression anywhere
/// in the swept space moves a tracked number even when the frontier
/// itself is unchanged.
fn render_rows(
    suite: &str,
    sweep_seed: u64,
    workloads: u64,
    per_arch: &[Vec<SweepRun>],
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (slot, arch) in Architecture::ALL.into_iter().enumerate() {
        let key = Row::default()
            .text("suite", suite)
            .text("arch", arch.name())
            .int("sweep_seed", sweep_seed)
            .int("workloads", workloads);
        let runs = &per_arch[slot];
        let frontier = pareto_frontier(runs);
        for (point, (index, s)) in frontier.iter().enumerate() {
            rows.push(
                key.clone()
                    .int("point", point as u64)
                    .int("workload_index", *index)
                    .float("jain", s.ratio.jain)
                    .float("latency_p95_ms", s.latency_p95_ms)
                    .float("msgs_per_delivery", s.msgs_per_delivery)
                    .float("reliability", s.reliability),
            );
        }
        rows.push(
            key.float("jain_mean", mean_of(runs, |s| s.ratio.jain))
                .float("latency_p95_mean_ms", mean_of(runs, p95))
                .float("msgs_per_delivery_mean", mean_of(runs, cost))
                .float("reliability_mean", mean_of(runs, |s| s.reliability))
                .int("frontier_points", frontier.len() as u64),
        );
    }
    rows
}

/// Where a sweep's cluster run first differs from its sequential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepDivergence {
    /// Index of the generated workload.
    pub workload: u64,
    /// The architecture that ran it.
    pub arch: Architecture,
    /// The cluster's shard count.
    pub shards: usize,
    /// The first differing observable.
    pub divergence: Divergence,
}

impl std::fmt::Display for SweepDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workload {}, {} at {} shard(s): {}",
            self.workload, self.arch, self.shards, self.divergence
        )
    }
}

/// Result of one sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// Per-architecture frontier map: frontier size and axis means.
    pub table: Table,
    /// `BENCH_sweep.json` rows, rendered from the sequential runs.
    pub records: Vec<Row>,
    /// The first cluster run that differs from its sequential run (must
    /// be `None`).
    pub divergence: Option<SweepDivergence>,
    /// Runs excluded as degenerate (no deliveries), summed over
    /// architectures.
    pub degenerate: u64,
}

/// Runs the sweep: `workloads` generated scenarios × every architecture
/// on the sequential engine, each checked against the cluster at
/// [`SWEEP_SHARDS`] and reduced to frontier + summary rows.
///
/// A degenerate run that produced no deliveries (and therefore has no
/// latency distribution or per-delivery cost) is counted but excluded
/// from frontiers and means.
pub fn run(suite: &str, sweep_seed: u64, workloads: u64) -> SweepResult {
    let mut per_arch: Vec<Vec<SweepRun>> = vec![Vec::new(); Architecture::ALL.len()];
    let mut divergence = None;
    for index in 0..workloads {
        let spec = generated_spec(sweep_seed, index);
        for (slot, arch) in Architecture::ALL.into_iter().enumerate() {
            let spec = spec.clone().with_arch(arch);
            let sequential = run_architecture(&spec, EngineKind::Sequential);
            for &shards in SWEEP_SHARDS {
                let spec = spec.clone().with_shards(shards);
                let cluster = run_architecture(&spec, EngineKind::Cluster);
                if divergence.is_none() {
                    divergence =
                        first_divergence(&sequential, &cluster).map(|divergence| SweepDivergence {
                            workload: index,
                            arch,
                            shards,
                            divergence,
                        });
                }
            }
            let summary = sequential.summary();
            if summary.deliveries > 0 && summary.latency_p95_ms.is_some() {
                per_arch[slot].push((index, summary));
            }
        }
    }
    let records = render_rows(suite, sweep_seed, workloads, &per_arch);
    let total_runs = workloads * Architecture::ALL.len() as u64;
    let summarized: u64 = per_arch.iter().map(|runs| runs.len() as u64).sum();
    let mut table = Table::new(
        format!("SWEEP {suite}: Pareto frontier map (seed {sweep_seed}, {workloads} workloads)"),
        &[
            "arch",
            "runs",
            "frontier",
            "jain mean",
            "p95 ms mean",
            "msgs/delivery mean",
            "reliability mean",
        ],
    );
    for (slot, arch) in Architecture::ALL.into_iter().enumerate() {
        let runs = &per_arch[slot];
        table.row_owned(vec![
            arch.name().to_string(),
            runs.len().to_string(),
            pareto_frontier(runs).len().to_string(),
            fmt_f64(mean_of(runs, |s| s.ratio.jain)),
            fmt_f64(mean_of(runs, p95)),
            fmt_f64(mean_of(runs, cost)),
            fmt_f64(mean_of(runs, |s| s.reliability)),
        ]);
    }
    SweepResult {
        table,
        records,
        divergence,
        degenerate: total_runs - summarized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_workload::ScenarioSpec;

    /// A run at the given frontier axes, reliability 1.
    fn p(index: u64, jain: f64, lat: f64, cost: f64) -> SweepRun {
        let mut s = RunSummary {
            reliability: 1.0,
            latency_p95_ms: Some(lat),
            msgs_per_delivery: Some(cost),
            ..RunSummary::default()
        };
        s.ratio.jain = jain;
        (index, s)
    }

    fn indices(runs: &[SweepRun]) -> Vec<u64> {
        runs.iter().map(|(i, _)| *i).collect()
    }

    #[test]
    fn dominated_points_are_excluded() {
        let runs = [
            p(0, 0.9, 10.0, 5.0),
            p(1, 0.8, 12.0, 6.0), // dominated by 0
            p(2, 0.95, 20.0, 4.0),
        ];
        assert_eq!(indices(&pareto_frontier(&runs)), vec![0, 2]);
    }

    #[test]
    fn incomparable_points_all_survive() {
        // A classic trade-off chain: each is better on one axis, worse
        // on another.
        let runs = [
            p(0, 0.5, 5.0, 10.0),
            p(1, 0.7, 10.0, 8.0),
            p(2, 0.9, 20.0, 6.0),
        ];
        assert_eq!(pareto_frontier(&runs).len(), 3);
    }

    #[test]
    fn frontier_is_order_invariant() {
        let mut runs = vec![
            p(0, 0.9, 10.0, 5.0),
            p(1, 0.8, 12.0, 6.0),
            p(2, 0.95, 20.0, 4.0),
            p(3, 0.6, 9.0, 7.0),
            p(4, 0.9, 10.0, 5.0), // duplicate of 0, higher index
        ];
        let forward = pareto_frontier(&runs);
        runs.reverse();
        let backward = pareto_frontier(&runs);
        assert_eq!(forward, backward);
        // The duplicate kept is the lowest-index one.
        assert!(indices(&forward).contains(&0));
        assert!(!indices(&forward).contains(&4));
    }

    #[test]
    fn non_finite_summaries_are_skipped() {
        let mut undelivered = p(2, 0.5, 10.0, 5.0);
        undelivered.1.latency_p95_ms = None;
        let runs = [p(0, f64::NAN, 10.0, 5.0), p(1, 0.5, 10.0, 5.0), undelivered];
        assert_eq!(indices(&pareto_frontier(&runs)), vec![1]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean_of(&[], |s| s.ratio.jain), 0.0);
    }

    /// One tiny generated workload, summarized on both engines: the
    /// summaries are identical because the outcomes are.
    #[test]
    fn summaries_are_engine_agnostic() {
        let spec = generated_spec(7, 3).with_shards(4);
        for arch in [Architecture::FairGossip, Architecture::Broker] {
            let spec = spec.clone().with_arch(arch);
            let seq = run_architecture(&spec, EngineKind::Sequential);
            let clu = run_architecture(&spec, EngineKind::Cluster);
            assert_eq!(
                first_divergence(&seq, &clu),
                None,
                "{arch} outcomes diverged"
            );
            assert_eq!(seq.summary(), clu.summary(), "{arch} summaries diverged");
        }
    }

    #[test]
    fn summarize_reduces_a_real_run() {
        let spec = ScenarioSpec::fair_gossip(32, 11);
        let s = run_architecture(&spec, EngineKind::Sequential).summary();
        let jain = s.ratio.jain;
        assert!(jain > 0.0 && jain <= 1.0, "jain {jain}");
        assert!(s.latency_p95_ms.expect("standard scenario delivers") > 0.0);
        assert!(s.msgs_per_delivery.expect("standard scenario delivers") > 0.0);
        assert!(s.reliability > 0.9, "reliability {}", s.reliability);
    }

    /// A micro-sweep end to end: deterministic rows, engine-identical,
    /// one frontier + one summary row block per architecture.
    #[test]
    fn micro_sweep_is_deterministic_and_engine_identical() {
        let a = run("sweep-test", 5, 2);
        assert_eq!(a.divergence, None, "engines diverged:\n{}", a.table);
        let b = run("sweep-test", 5, 2);
        assert_eq!(a.records, b.records, "same seed must render same rows");
        let summaries = a
            .records
            .iter()
            .filter(|r| r.to_json().contains("\"frontier_points\""))
            .count();
        assert_eq!(summaries, Architecture::ALL.len());
        assert!(a
            .records
            .iter()
            .all(|r| r.to_json().contains("\"suite\":\"sweep-test\"")));
    }

    /// Frontier and aggregate rows are flat objects with the sweep's
    /// six-decimal axes.
    #[test]
    fn records_render_flat_json() {
        let mut per_arch = vec![Vec::new(); Architecture::ALL.len()];
        per_arch[0].push(p(7, 0.5, 10.0, 5.0));
        let rows = render_rows("sweep", 42, 48, &per_arch);
        let r = rows[0].to_json();
        assert!(r.starts_with('{') && r.ends_with('}'), "{r}");
        assert!(r.contains("\"suite\":\"sweep\""), "{r}");
        assert!(r.contains("\"point\":0"), "{r}");
        assert!(r.contains("\"workload_index\":7"), "{r}");
        assert!(r.contains("\"jain\":0.500000"), "{r}");
        let s = rows[1].to_json();
        assert!(s.contains("\"frontier_points\":1"), "{s}");
        assert!(s.contains("\"latency_p95_mean_ms\":10.000000"), "{s}");
    }

    /// Sweep rows are written with suite replacement: frontier sizes
    /// move between runs, so a stale higher-numbered `point` row would
    /// outlive a per-configuration replace.
    #[test]
    fn replace_suite_rows_keeps_other_suites_verbatim() {
        use crate::bench_json::splice;
        let dir = std::env::temp_dir().join(format!("sweep_splice_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sweep.json");
        let point = |suite: &str, point: u64, jain: f64| {
            Row::default()
                .text("suite", suite)
                .text("arch", "broker")
                .int("point", point)
                .float("jain", jain)
        };
        let full = point("sweep", 0, 0.5);
        let stale = [point("sweep-smoke", 0, 0.4), point("sweep-smoke", 1, 0.3)];
        splice(&path, std::slice::from_ref(&full), Some("sweep")).unwrap();
        splice(&path, &stale, Some("sweep-smoke")).unwrap();
        // A shorter frontier: one point where there were two.
        let fresh = point("sweep-smoke", 0, 0.6);
        splice(&path, std::slice::from_ref(&fresh), Some("sweep-smoke")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (full, fresh) = (full.to_json(), fresh.to_json());
        assert_eq!(text, format!("[\n  {full},\n  {fresh}\n]\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
