//! SWEEP — generative scenario sweeps and Pareto frontier maps.
//!
//! Runs a seed-derived family of generated workloads
//! ([`fed_workload::generated_spec`]) across **every** architecture,
//! reduces each run to a [`RunSummary`] (fairness / latency / forwarding
//! cost) and each architecture to its Pareto frontier
//! ([`fed_sweep::pareto_frontier`]), and renders the result as rows of
//! the committed `BENCH_sweep.json` artifact that `bench-diff` tracks
//! across commits.
//!
//! Every number in a sweep row is a **virtual-world** quantity — no wall
//! clock anywhere — so the artifact is a pure function of
//! `(sweep_seed, workloads)`: byte-identical on every machine, and
//! byte-identical across engines. The experiment proves the latter on
//! every invocation by rendering the rows three times (sequential
//! engine, cluster at 1 shard, cluster at 4 shards) and asserting the
//! three renderings are equal — the sweep doubles as a broad
//! seq-vs-cluster differential gate over the generated scenario space,
//! mobility traces and fault schedules included.
//!
//! The artifact carries two suites: `sweep` (the full map, regenerated
//! manually via `fed-experiments sweep`) and `sweep-smoke` (a downscaled
//! prefix of the same family, regenerated by CI on every push via the
//! `sweep-smoke` pseudo-id and diffed against the committed rows —
//! where any drift is a real behavior change, not noise).

use crate::bench_json::Row;
use crate::harness::{run_architecture, ArchOutcome, EngineKind};
use fed_core::ledger::RatioSpec;
use fed_metrics::fairness::ratio_report;
use fed_metrics::table::{fmt_f64, Table};
use fed_sweep::{mean_of, pareto_frontier, RunSummary};
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

/// Reduces one finished run to its sweep axes.
///
/// Returns `None` for a degenerate run that produced no deliveries (and
/// therefore has no latency distribution or per-delivery cost) — such
/// runs are counted but excluded from frontiers and means.
pub fn summarize(outcome: &ArchOutcome, index: u64) -> Option<RunSummary> {
    let audit = outcome.audit();
    let deliveries = outcome.total_deliveries();
    if deliveries == 0 {
        return None;
    }
    let latency_p95_ms = audit.latency_ms().percentile(95.0)?;
    let jain = ratio_report(outcome.ledgers.iter(), &RatioSpec::topic_based()).jain;
    let sent: u64 = outcome.stats.iter().map(|s| s.msgs_sent).sum();
    Some(RunSummary {
        index,
        jain,
        latency_p95_ms,
        msgs_per_delivery: sent as f64 / deliveries as f64,
        reliability: audit.reliability(),
    })
}

/// Per-architecture run summaries for one engine configuration, in
/// [`Architecture::ALL`] order.
fn collect(
    sweep_seed: u64,
    workloads: u64,
    engine: EngineKind,
    shards: usize,
) -> Vec<Vec<RunSummary>> {
    let mut per_arch: Vec<Vec<RunSummary>> = vec![Vec::new(); Architecture::ALL.len()];
    for index in 0..workloads {
        let spec = generated_spec(sweep_seed, index).with_shards(shards);
        for (slot, arch) in Architecture::ALL.into_iter().enumerate() {
            let outcome = run_architecture(&spec.clone().with_arch(arch), engine);
            if let Some(summary) = summarize(&outcome, index) {
                per_arch[slot].push(summary);
            }
        }
    }
    per_arch
}

/// One engine configuration's artifact rows: per architecture, the
/// sorted frontier points then the aggregate summary row.
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
    per_arch: &[Vec<RunSummary>],
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
        for (point, p) in frontier.iter().enumerate() {
            rows.push(
                key.clone()
                    .int("point", point as u64)
                    .int("workload_index", p.index)
                    .float("jain", p.jain)
                    .float("latency_p95_ms", p.latency_p95_ms)
                    .float("msgs_per_delivery", p.msgs_per_delivery)
                    .float("reliability", p.reliability),
            );
        }
        rows.push(
            key.float("jain_mean", mean_of(runs, |r| r.jain))
                .float("latency_p95_mean_ms", mean_of(runs, |r| r.latency_p95_ms))
                .float(
                    "msgs_per_delivery_mean",
                    mean_of(runs, |r| r.msgs_per_delivery),
                )
                .float("reliability_mean", mean_of(runs, |r| r.reliability))
                .int("frontier_points", frontier.len() as u64),
        );
    }
    rows
}

/// Result of one sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// Per-architecture frontier map: frontier size and axis means.
    pub table: Table,
    /// `BENCH_sweep.json` rows (the sequential engine's — equal to the
    /// cluster's whenever [`SweepResult::identical`] holds).
    pub records: Vec<Row>,
    /// Whether all three engine configurations rendered byte-identical
    /// rows.
    pub identical: bool,
    /// Runs excluded as degenerate (no deliveries), summed over
    /// architectures — on the sequential engine.
    pub degenerate: u64,
}

/// Runs the sweep: `workloads` generated scenarios × every architecture
/// × three engine configurations (sequential, cluster at
/// [`SWEEP_SHARDS`]), reduced to frontier + summary rows.
pub fn run(suite: &str, sweep_seed: u64, workloads: u64) -> SweepResult {
    let sequential = collect(sweep_seed, workloads, EngineKind::Sequential, 1);
    let records = render_rows(suite, sweep_seed, workloads, &sequential);
    let mut identical = true;
    for &shards in SWEEP_SHARDS {
        let cluster = collect(sweep_seed, workloads, EngineKind::Cluster, shards);
        let cluster_rows = render_rows(suite, sweep_seed, workloads, &cluster);
        if cluster_rows != records {
            identical = false;
            eprintln!(
                "sweep: cluster rows at {shards} shard(s) diverged from the sequential engine"
            );
        }
    }
    let total_runs = workloads * Architecture::ALL.len() as u64;
    let summarized: u64 = sequential.iter().map(|runs| runs.len() as u64).sum();
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
        let runs = &sequential[slot];
        table.row_owned(vec![
            arch.name().to_string(),
            runs.len().to_string(),
            pareto_frontier(runs).len().to_string(),
            fmt_f64(mean_of(runs, |r| r.jain)),
            fmt_f64(mean_of(runs, |r| r.latency_p95_ms)),
            fmt_f64(mean_of(runs, |r| r.msgs_per_delivery)),
            fmt_f64(mean_of(runs, |r| r.reliability)),
        ]);
    }
    SweepResult {
        table,
        records,
        identical,
        degenerate: total_runs - summarized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_run::first_divergence;
    use fed_workload::ScenarioSpec;

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
            assert_eq!(
                summarize(&seq, 3),
                summarize(&clu, 3),
                "{arch} summaries diverged"
            );
        }
    }

    #[test]
    fn summarize_reduces_a_real_run() {
        let spec = ScenarioSpec::fair_gossip(32, 11);
        let outcome = run_architecture(&spec, EngineKind::Sequential);
        let s = summarize(&outcome, 0).expect("standard scenario delivers");
        assert!(s.jain > 0.0 && s.jain <= 1.0, "jain {}", s.jain);
        assert!(s.latency_p95_ms > 0.0);
        assert!(s.msgs_per_delivery > 0.0);
        assert!(s.reliability > 0.9, "reliability {}", s.reliability);
    }

    /// A micro-sweep end to end: deterministic rows, engine-identical,
    /// one frontier + one summary row block per architecture.
    #[test]
    fn micro_sweep_is_deterministic_and_engine_identical() {
        let a = run("sweep-test", 5, 2);
        assert!(a.identical, "engines diverged:\n{}", a.table);
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
        let p = |index, jain, lat, cost| RunSummary {
            index,
            jain,
            latency_p95_ms: lat,
            msgs_per_delivery: cost,
            reliability: 1.0,
        };
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
