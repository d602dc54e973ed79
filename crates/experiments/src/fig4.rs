//! FIG4 — the paper's Figure 4: the basic push gossip-dissemination
//! algorithm, validated through the classic epidemic curves.
//!
//! Two series:
//!
//! 1. **Reliability vs fanout** at fixed `n`: delivery ratio and atomicity
//!    climb steeply and saturate around `F ≈ ln n` — the bimodal-multicast
//!    shape.
//! 2. **Latency vs system size** at `F = 8`: median delivery latency grows
//!    logarithmically with `n` (epidemic rounds ≈ `log_F n`).
//!
//! Plus the correctness invariant of the algorithm's `ISINTERESTED` line:
//! zero spurious deliveries in every cell.

use crate::harness::{run_gossip, t_arch_config, EngineKind};
use fed_core::behavior::Behavior;
use fed_core::gossip::GossipConfig;
use fed_metrics::table::{fmt_f64, Table};
use fed_workload::interest::Appetite;
use fed_workload::scenario::ScenarioSpec;

/// Result of the FIG4 experiment.
#[derive(Debug)]
pub struct Fig4Result {
    /// Reliability vs fanout table.
    pub fanout_table: Table,
    /// Latency vs n table.
    pub scale_table: Table,
    /// (fanout, reliability) series.
    pub fanout_series: Vec<(usize, f64)>,
    /// (n, median latency ms) series.
    pub scale_series: Vec<(usize, f64)>,
    /// Total spurious deliveries across all runs (must be 0).
    pub spurious: u64,
}

/// Runs FIG4: fanout sweep at size `n`, scale sweep over `sizes`.
pub fn run(n: usize, sizes: &[usize], seed: u64) -> Fig4Result {
    let mut spurious = 0u64;

    let mut fanout_table = Table::new(
        format!("FIG4a: delivery vs fanout (n={n}, everyone subscribed)"),
        &["fanout", "reliability", "atomicity", "median latency ms"],
    );
    let mut fanout_series = Vec::new();
    for fanout in [1usize, 2, 3, 4, 6, 8] {
        let mut scenario = ScenarioSpec::fair_gossip(n, seed);
        // Single topic, universal interest: the pure epidemic setting the
        // basic algorithm was designed for.
        scenario.num_topics = 1;
        scenario.appetite = Appetite::Fixed(1);
        scenario.plan.rate_per_sec = 5.0;
        scenario.plan.duration = fed_sim::SimTime::from_secs(10);
        let cfg = GossipConfig::classic(fanout, 16);
        let audit =
            run_gossip(&scenario, EngineKind::Sequential, cfg, |_| Behavior::Honest).audit();
        spurious += audit.spurious();
        let lat = audit.latency_ms();
        fanout_table.row_owned(vec![
            fanout.to_string(),
            fmt_f64(audit.reliability()),
            fmt_f64(audit.atomicity()),
            fmt_f64(lat.median().unwrap_or(f64::NAN)),
        ]);
        fanout_series.push((fanout, audit.reliability()));
    }

    let mut scale_table = Table::new(
        "FIG4b: latency vs system size (fanout=8)".to_string(),
        &["n", "reliability", "median latency ms", "p99 latency ms"],
    );
    let mut scale_series = Vec::new();
    for &size in sizes {
        let mut scenario = ScenarioSpec::fair_gossip(size, seed ^ 0xABCD);
        scenario.num_topics = 1;
        scenario.appetite = Appetite::Fixed(1);
        scenario.plan.rate_per_sec = 5.0;
        scenario.plan.duration = fed_sim::SimTime::from_secs(10);
        let cfg = t_arch_config(GossipConfig::classic);
        let audit =
            run_gossip(&scenario, EngineKind::Sequential, cfg, |_| Behavior::Honest).audit();
        spurious += audit.spurious();
        let lat = audit.latency_ms();
        scale_table.row_owned(vec![
            size.to_string(),
            fmt_f64(audit.reliability()),
            fmt_f64(lat.median().unwrap_or(f64::NAN)),
            fmt_f64(lat.percentile(99.0).unwrap_or(f64::NAN)),
        ]);
        scale_series.push((size, lat.median().unwrap_or(f64::NAN)));
    }

    Fig4Result {
        fanout_table,
        scale_table,
        fanout_series,
        scale_series,
        spurious,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epidemic_curves_have_the_right_shape() {
        // Sizes start beyond publisher-seed saturation (seeds reach 2F
        // peers directly, flattening latency for tiny systems).
        let r = run(64, &[64, 256], 3);
        assert_eq!(r.spurious, 0, "ISINTERESTED is never violated");
        // Reliability is monotone-ish in fanout and saturates high.
        let first = r.fanout_series.first().unwrap().1;
        let last = r.fanout_series.last().unwrap().1;
        assert!(last > 0.999, "fanout 8 delivers everything: {last}");
        assert!(last >= first, "reliability non-decreasing in fanout");
        // Larger systems take longer but not linearly.
        let (n_small, lat_small) = r.scale_series[0];
        let (n_big, lat_big) = r.scale_series[1];
        assert!(n_big > n_small);
        assert!(
            lat_big < lat_small * 4.0,
            "latency growth must be sublinear: {lat_small} -> {lat_big}"
        );
    }
}
