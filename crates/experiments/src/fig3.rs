//! FIG3 — the paper's Figure 3: expressive selection where contribution is
//! modulated by **fanout × gossip message size** (bytes) and benefit is
//! deliveries only.
//!
//! The ablation the paper sketches: which knob matters? We compare
//! `{static F, static N}`, `{adaptive F}`, `{adaptive N}` and
//! `{adaptive both}` under byte-denominated accounting.

use crate::harness::{run_gossip, t_arch_config, EngineKind};
use fed_core::behavior::Behavior;
use fed_core::gossip::GossipConfig;
use fed_core::ledger::RatioSpec;
use fed_metrics::fairness::ratio_report;
use fed_metrics::table::{fmt_f64, Table};
use fed_workload::scenario::ScenarioSpec;

/// Result of the FIG3 experiment.
#[derive(Debug)]
pub struct Fig3Result {
    /// One row per knob configuration.
    pub table: Table,
    /// (config label, jain, reliability) per configuration.
    pub points: Vec<(String, f64, f64)>,
}

fn config_variant(adapt_fanout: bool, adapt_size: bool) -> GossipConfig {
    let mut cfg = t_arch_config(GossipConfig::fair_expressive);
    cfg.adapt_fanout = adapt_fanout;
    cfg.adapt_msg_size = adapt_size;
    if !adapt_fanout && !adapt_size {
        cfg.ratio_correction_gain = 0.0;
    }
    cfg
}

/// Runs FIG3 at population size `n`.
pub fn run(n: usize, seed: u64) -> Fig3Result {
    let scenario = ScenarioSpec::fair_gossip(n, seed);
    let spec = RatioSpec::expressive();
    let mut table = Table::new(
        format!("FIG3: expressive (byte) fairness by adaptation knob (n={n})"),
        &[
            "knobs",
            "jain",
            "gini",
            "max/min",
            "bytes/node(mean)",
            "reliability",
        ],
    );
    let variants = [
        ("static-F,static-N", false, false),
        ("adaptive-F", true, false),
        ("adaptive-N", false, true),
        ("adaptive-F+N", true, true),
    ];
    let mut points = Vec::new();
    for (label, af, an) in variants {
        let cfg = config_variant(af, an);
        let run = run_gossip(&scenario, EngineKind::Sequential, cfg, |_| Behavior::Honest);
        let audit = run.audit();
        let ledgers = &run.ledgers;
        let report = ratio_report(ledgers, &spec);
        let mean_bytes =
            ledgers.iter().map(|l| l.contribution(&spec)).sum::<f64>() / ledgers.len() as f64;
        table.row_owned(vec![
            label.to_string(),
            fmt_f64(report.jain),
            fmt_f64(report.gini),
            fmt_f64(report.max_min),
            fmt_f64(mean_bytes),
            fmt_f64(audit.reliability()),
        ]);
        points.push((label.to_string(), report.jain, audit.reliability()));
    }
    Fig3Result { table, points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_improves_byte_fairness() {
        let r = run(48, 21);
        let jain_of = |label: &str| {
            r.points
                .iter()
                .find(|(l, _, _)| l == label)
                .map(|(_, j, _)| *j)
                .expect("label present")
        };
        let static_j = jain_of("static-F,static-N");
        let both_j = jain_of("adaptive-F+N");
        assert!(
            both_j > static_j,
            "adaptive-F+N {both_j:.3} must beat static {static_j:.3}\n{}",
            r.table
        );
        // every variant keeps the system reliable
        for (label, _, rel) in &r.points {
            assert!(*rel > 0.95, "{label} reliability {rel}");
        }
    }
}
