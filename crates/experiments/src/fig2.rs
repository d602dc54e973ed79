//! FIG2 — the paper's Figure 2: topic-based accounting where benefit
//! includes the number of filters placed.
//!
//! We sweep per-node subscription heterogeneity (all peers 1 topic → wild
//! mixes) and report ratio fairness under the Figure 2 spec
//! (`benefit = delivered + #filters`). The paper's point: with a static
//! protocol, a peer with many subscriptions works the same as one with few
//! "although it will subject the system to a higher load"; the fair
//! protocol makes contribution follow the filter-weighted benefit.

use crate::harness::{run_gossip, t_arch_config, EngineKind};
use fed_core::behavior::Behavior;
use fed_core::gossip::GossipConfig;
use fed_metrics::table::{fmt_f64, Table};
use fed_workload::interest::Appetite;
use fed_workload::scenario::ScenarioSpec;

/// Result of the FIG2 experiment.
#[derive(Debug)]
pub struct Fig2Result {
    /// One row per (appetite, protocol).
    pub table: Table,
    /// (appetite label, classic jain, fair jain) per sweep point.
    pub points: Vec<(String, f64, f64)>,
}

/// Runs FIG2 at population size `n`.
pub fn run(n: usize, seed: u64) -> Fig2Result {
    let mut table = Table::new(
        format!("FIG2: fairness with filter-weighted benefit (n={n})"),
        &[
            "appetite",
            "protocol",
            "jain",
            "gini",
            "max/min",
            "reliability",
        ],
    );
    let appetites: Vec<(&str, Appetite)> = vec![
        ("uniform-1", Appetite::Fixed(1)),
        ("uniform-4", Appetite::Fixed(4)),
        ("mixed-1..8", Appetite::Uniform { lo: 1, hi: 8 }),
        (
            "bimodal-16/1",
            Appetite::Bimodal {
                heavy_fraction: 0.1,
                heavy: 16,
                light: 1,
            },
        ),
    ];
    let mut points = Vec::new();
    for (label, appetite) in appetites {
        let mut scenario = ScenarioSpec::fair_gossip(n, seed);
        scenario.appetite = appetite;
        let mut jains = Vec::new();
        for (proto, cfg) in [
            ("classic", t_arch_config(GossipConfig::classic)),
            ("fair", t_arch_config(GossipConfig::fair)),
        ] {
            let summary =
                run_gossip(&scenario, EngineKind::Sequential, cfg, |_| Behavior::Honest).summary();
            let report = summary.ratio;
            table.row_owned(vec![
                label.to_string(),
                proto.to_string(),
                fmt_f64(report.jain),
                fmt_f64(report.gini),
                fmt_f64(report.max_min),
                fmt_f64(summary.reliability),
            ]);
            jains.push(report.jain);
        }
        points.push((label.to_string(), jains[0], jains[1]));
    }
    Fig2Result { table, points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_wins_across_appetites() {
        let r = run(48, 13);
        assert_eq!(r.points.len(), 4);
        for (label, classic, fair) in &r.points {
            assert!(
                fair > classic,
                "{label}: fair {fair:.3} must beat classic {classic:.3}\n{}",
                r.table
            );
        }
    }
}
