//! E-ROBUST — §5.2 Q5: "How can an adaptive algorithm maintain robustness
//! of gossip protocols?"
//!
//! Gossip's selling point is reliability under loss and crashes. The risk
//! of fairness adaptation is that throttling low-benefit peers thins the
//! epidemic. We sweep message-loss rates and crash fractions and compare
//! delivery reliability of the classic and fair protocols.
//!
//! Every sweep point also emits a `BENCH_cluster.json` [`Row`] (suite
//! `robust-loss-<rate>` / `robust-crash-<fraction>`) so BENCH-DIFF can
//! flag a robustness-throughput regression between artifacts the same
//! way it flags the scale sweeps.

use crate::bench_json::Row;
use crate::harness::{prepare_gossip, run_gossip, t_arch_config, EngineKind};
use fed_core::behavior::Behavior;
use fed_core::gossip::GossipConfig;
use fed_metrics::table::{fmt_f64, Table};
use fed_sim::network::{LatencyModel, NetworkModel};
use fed_sim::{NodeId, SimDuration, SimTime};
use fed_util::rng::{Rng64, SplitMix64};
use fed_workload::pubs::Publication;
use fed_workload::scenario::ScenarioSpec;
use std::time::Instant;

/// Result of the E-ROBUST experiment.
#[derive(Debug)]
pub struct RobustResult {
    /// Loss sweep table.
    pub loss_table: Table,
    /// Crash sweep table.
    pub crash_table: Table,
    /// (loss, classic reliability, fair reliability).
    pub loss_points: Vec<(f64, f64, f64)>,
    /// (crash fraction, classic reliability, fair reliability).
    pub crash_points: Vec<(f64, f64, f64)>,
    /// Machine-readable rows of every sweep point, for
    /// `BENCH_cluster.json` / BENCH-DIFF.
    pub records: Vec<Row>,
}

/// One sweep point's bench row. The sweep parameter is encoded in the
/// suite name (a configuration field, hence part of the diff key); the
/// gossip variant rides in `arch`. Sequential engine: one shard, no
/// windows.
fn point_row(suite: String, arch: &str, spec: &ScenarioSpec, events: u64, wall_ms: f64) -> Row {
    Row::new(&suite, spec, 1)
        .knobs(spec)
        .text("arch", arch)
        .throughput(events, 0, wall_ms)
}

/// The two protocols every sweep point compares, by their `arch` label.
fn protocols() -> [(&'static str, GossipConfig); 2] {
    [
        ("static-gossip", t_arch_config(GossipConfig::classic)),
        ("fair-gossip", t_arch_config(GossipConfig::fair)),
    ]
}

/// Runs E-ROBUST at population size `n`.
pub fn run(n: usize, seed: u64) -> RobustResult {
    let mut loss_table = Table::new(
        format!("E-ROBUST-a: reliability vs message loss (n={n})"),
        &["loss", "classic", "fair"],
    );
    let mut loss_points = Vec::new();
    let mut records = Vec::new();
    for loss in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let mut rel = Vec::new();
        for (arch, cfg) in protocols() {
            let mut scenario = ScenarioSpec::fair_gossip(n, seed);
            scenario.net =
                NetworkModel::lossy(LatencyModel::Constant(SimDuration::from_millis(10)), loss);
            let start = Instant::now();
            let run = run_gossip(&scenario, EngineKind::Sequential, cfg, |_| Behavior::Honest);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            records.push(point_row(
                format!("robust-loss-{loss:.2}"),
                arch,
                &scenario,
                run.events,
                wall_ms,
            ));
            rel.push(run.summary().reliability);
        }
        loss_table.row_owned(vec![fmt_f64(loss), fmt_f64(rel[0]), fmt_f64(rel[1])]);
        loss_points.push((loss, rel[0], rel[1]));
    }

    let mut crash_table = Table::new(
        format!("E-ROBUST-b: reliability vs crashed fraction (n={n})"),
        &["crashed", "classic", "fair"],
    );
    let mut crash_points = Vec::new();
    for crash_frac in [0.0, 0.1, 0.2, 0.3] {
        let mut rel = Vec::new();
        for (arch, cfg) in protocols() {
            let scenario = ScenarioSpec::fair_gossip(n, seed ^ 0x5A5A);
            let start = Instant::now();
            let mut run =
                prepare_gossip(&scenario, EngineKind::Sequential, cfg, |_| Behavior::Honest);
            // Crash a random fraction mid-stream.
            let crash_at = SimTime::from_secs(8);
            let mut pick = SplitMix64::seed_from_u64(seed);
            let to_crash = (n as f64 * crash_frac) as usize;
            let victims = pick.sample_indices(n, to_crash);
            for v in &victims {
                run.sim.schedule_crash(crash_at, NodeId::new(*v as u32));
            }
            let run = run.finish();
            records.push(point_row(
                format!("robust-crash-{crash_frac:.2}"),
                arch,
                &scenario,
                run.events,
                start.elapsed().as_secs_f64() * 1e3,
            ));
            // Reliability counted over survivors and pre-crash events only:
            // measure deliveries of events published before the crash wave
            // at nodes that stayed alive.
            let survived = |p: &Publication, node| p.at < crash_at && !victims.contains(&node);
            rel.push(run.audit_where(survived).reliability());
        }
        crash_table.row_owned(vec![fmt_f64(crash_frac), fmt_f64(rel[0]), fmt_f64(rel[1])]);
        crash_points.push((crash_frac, rel[0], rel[1]));
    }

    RobustResult {
        loss_table,
        crash_table,
        loss_points,
        crash_points,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sweep_point_emits_a_bench_record() {
        let r = run(48, 31);
        // 5 loss points + 4 crash points, two protocols each.
        assert_eq!(r.records.len(), (5 + 4) * 2);
        let rows: Vec<_> = r
            .records
            .iter()
            .map(|row| fed_util::json::parse(&row.to_json()).unwrap())
            .collect();
        for row in &rows {
            let suite = row.get("suite").and_then(|s| s.as_str()).unwrap();
            assert!(
                suite.starts_with("robust-loss-") || suite.starts_with("robust-crash-"),
                "sweep parameter must live in the suite key: {suite}"
            );
            let num = |name: &str| row.get(name).and_then(|x| x.as_f64()).unwrap();
            assert!(num("events") > 0.0, "{suite}: dead run");
            assert!(num("events_per_sec") > 0.0, "{suite}: no throughput");
        }
        // Configuration keys are unique: BENCH-DIFF and the splice must
        // not collapse distinct sweep points.
        let mut keys: Vec<String> = rows
            .iter()
            .map(|row| crate::bench_json::config_key(row).unwrap())
            .collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate sweep-point keys");
    }

    #[test]
    fn fair_protocol_keeps_gossip_robustness() {
        let r = run(64, 31);
        for (loss, classic, fair) in &r.loss_points {
            assert!(
                *fair > 0.95,
                "fair reliability at loss {loss}: {fair}\n{}",
                r.loss_table
            );
            assert!(
                fair + 0.05 > *classic,
                "fair must stay within 5% of classic at loss {loss}\n{}",
                r.loss_table
            );
        }
        for (frac, classic, fair) in &r.crash_points {
            assert!(
                *fair > 0.93,
                "fair reliability at crash {frac}: {fair}\n{}",
                r.crash_table
            );
            assert!(fair + 0.07 > *classic, "crash {frac}\n{}", r.crash_table);
        }
    }
}
