//! FIG1 — the paper's Figure 1: "the ratio contribution/benefit of each
//! peer in the system must be equivalent to be considered fair."
//!
//! We run the same heterogeneous-interest workload under the classic
//! static-fanout gossip and under the fair (adaptive-fanout) protocol and
//! summarize the per-peer ratio distribution. The paper's thesis predicts:
//! classic gossip shows widely dispersed ratios (uninterested peers work
//! as much as heavy consumers); the fair protocol compresses the ratio
//! distribution (Jain → 1, Gini → 0) at equal delivery reliability.

use crate::harness::{run_gossip, t_arch_config, EngineKind};
use fed_core::behavior::Behavior;
use fed_core::gossip::GossipConfig;
use fed_core::ledger::RatioSpec;
use fed_metrics::fairness::ratios;
use fed_metrics::table::{fmt_f64, Table};
use fed_util::stats::Summary;
use fed_workload::scenario::ScenarioSpec;

/// Result of the FIG1 experiment.
#[derive(Debug)]
pub struct Fig1Result {
    /// Summary table (one row per protocol).
    pub table: Table,
    /// Jain index of the classic protocol.
    pub classic_jain: f64,
    /// Jain index of the fair protocol.
    pub fair_jain: f64,
    /// Delivery reliability of the classic protocol.
    pub classic_reliability: f64,
    /// Delivery reliability of the fair protocol.
    pub fair_reliability: f64,
}

/// Runs FIG1 at population size `n`.
pub fn run(n: usize, seed: u64) -> Fig1Result {
    let scenario = ScenarioSpec::fair_gossip(n, seed);
    let spec = RatioSpec::topic_based();
    let mut table = Table::new(
        format!("FIG1: contribution/benefit ratio distribution (n={n})"),
        &[
            "protocol",
            "jain",
            "gini",
            "max/min",
            "p10",
            "p50",
            "p90",
            "reliability",
        ],
    );

    let mut results = Vec::new();
    for (name, cfg) in [
        ("classic-gossip", t_arch_config(GossipConfig::classic)),
        ("fair-gossip", t_arch_config(GossipConfig::fair)),
    ] {
        let run = run_gossip(&scenario, EngineKind::Sequential, cfg, |_| Behavior::Honest);
        let summary = run.summary();
        let report = summary.ratio;
        let dist = Summary::from_values(ratios(&run.ledgers, &spec));
        table.row_owned(vec![
            name.to_string(),
            fmt_f64(report.jain),
            fmt_f64(report.gini),
            fmt_f64(report.max_min),
            fmt_f64(dist.percentile(10.0).unwrap_or(0.0)),
            fmt_f64(dist.percentile(50.0).unwrap_or(0.0)),
            fmt_f64(dist.percentile(90.0).unwrap_or(0.0)),
            fmt_f64(summary.reliability),
        ]);
        results.push((report.jain, summary.reliability));
    }
    Fig1Result {
        table,
        classic_jain: results[0].0,
        fair_jain: results[1].0,
        classic_reliability: results[0].1,
        fair_reliability: results[1].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_protocol_improves_ratio_fairness() {
        let r = run(64, 42);
        assert!(
            r.fair_jain > r.classic_jain,
            "fair {:.3} must beat classic {:.3}\n{}",
            r.fair_jain,
            r.classic_jain,
            r.table
        );
        assert!(r.classic_reliability > 0.99, "{}", r.classic_reliability);
        assert!(r.fair_reliability > 0.99, "{}", r.fair_reliability);
    }

    #[test]
    fn table_has_both_protocols() {
        let r = run(32, 7);
        let s = r.table.to_string();
        assert!(s.contains("classic-gossip") && s.contains("fair-gossip"));
    }
}
