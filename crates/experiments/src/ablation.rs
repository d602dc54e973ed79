//! E-ABLATE — ablation of the fair protocol's own design choices (knobs
//! of `GossipConfig` beyond the paper's text):
//!
//! 1. **Lifetime-ratio correction gain** — the term that turns
//!    rate-proportional allocation into snapshot-ratio equality. Gain 0 is
//!    pure proportional control; larger gains tighten Figure 1 faster but
//!    react harder to estimator noise.
//! 2. **Civic minimum** (relay rate + allowance) — the bounded work
//!    donation of fully-throttled peers. Without it, events whose seeds
//!    land on zero-benefit peers can die; with an unbounded version,
//!    zero-benefit peers re-accumulate unfair work.
//!
//! The civic sweep runs a harsher scenario than the standard one: three
//! quarters of the population hold *no subscriptions at all*, so
//! fully-throttled peers actually exist and event launches are at risk.

use crate::harness::{prepare_gossip, run_gossip, t_arch_config, EngineKind};
use fed_core::behavior::Behavior;
use fed_core::gossip::{GossipConfig, GossipNode};
use fed_core::ledger::RatioSpec;
use fed_metrics::fairness::ratio_report;
use fed_metrics::table::{fmt_f64, Table};
use fed_pubsub::Command;
use fed_sim::{NodeId, SimTime, Simulation};
use fed_workload::interest::Appetite;
use fed_workload::scenario::ScenarioSpec;

/// Result of the ablation experiment.
#[derive(Debug)]
pub struct AblationResult {
    /// Correction-gain sweep.
    pub gain_table: Table,
    /// Civic-minimum sweep.
    pub civic_table: Table,
    /// (gain, jain) series.
    pub gain_points: Vec<(f64, f64)>,
    /// (relay rate, allowance, reliability, jain) series.
    pub civic_points: Vec<(f64, f64, f64, f64)>,
}

/// Runs the ablation at population size `n`.
pub fn run(n: usize, seed: u64) -> AblationResult {
    let spec = RatioSpec::topic_based();

    // --- 1. correction gain sweep on the standard workload ---
    let mut gain_table = Table::new(
        format!("E-ABLATE-a: lifetime-ratio correction gain (n={n})"),
        &["gain", "jain", "gini", "max/min", "reliability"],
    );
    let mut gain_points = Vec::new();
    for gain in [0.0, 0.01, 0.05, 0.2] {
        let scenario = ScenarioSpec::fair_gossip(n, seed);
        let mut cfg = t_arch_config(GossipConfig::fair);
        cfg.ratio_correction_gain = gain;
        let run = run_gossip(&scenario, EngineKind::Sequential, cfg, |_| Behavior::Honest);
        let report = ratio_report(&run.ledgers, &spec);
        let rel = run.audit().reliability();
        gain_table.row_owned(vec![
            fmt_f64(gain),
            fmt_f64(report.jain),
            fmt_f64(report.gini),
            fmt_f64(report.max_min),
            fmt_f64(rel),
        ]);
        gain_points.push((gain, report.jain));
    }

    // --- 2. civic minimum sweep on the harsh workload: three quarters of
    // the population holds no subscriptions, so an event whose publisher
    // seeds land only on throttled peers is in real danger of dying. ---
    let interested = n / 4;
    let mut civic_table = Table::new(
        format!("E-ABLATE-b: civic minimum (n={n}, 3/4 zero-interest peers)"),
        &["relay rate", "allowance", "reliability", "jain"],
    );
    let mut civic_points = Vec::new();
    for (rate, allowance) in [(0.0, 0.0), (0.25, 16.0), (0.25, f64::MAX), (1.0, 16.0)] {
        let mut scenario = ScenarioSpec::fair_gossip(n, seed ^ 0xC1F1C);
        scenario.appetite = Appetite::Fixed(1);
        scenario.num_topics = 8;
        scenario.plan.rate_per_sec = 10.0;
        let mut cfg = t_arch_config(GossipConfig::fair);
        cfg.min_relay_rate = rate;
        cfg.civic_allowance = allowance;
        let mut run =
            prepare_gossip::<Simulation<GossipNode>>(&scenario, cfg, |_| Behavior::Honest);
        // Strip subscriptions from the last three quarters: one
        // unsubscribe per topic a node holds (one, at `Fixed(1)`).
        for i in interested..n {
            let topics: Vec<_> = run.profile().topics_of(i).iter().copied().collect();
            for topic in topics {
                run.sim.schedule_command(
                    SimTime::from_micros(1),
                    NodeId::new(i as u32),
                    Command::Unsubscribe(topic),
                );
            }
        }
        let run = run.finish();
        let report = ratio_report(&run.ledgers, &spec);
        // Ground truth must reflect the cleared subscriptions: only peers
        // below `interested` can deliver.
        let rel = run.audit_where(|_, node| node < interested).reliability();
        let allowance_label = if allowance == f64::MAX {
            "unbounded".to_string()
        } else {
            fmt_f64(allowance)
        };
        civic_table.row_owned(vec![
            fmt_f64(rate),
            allowance_label,
            fmt_f64(rel),
            fmt_f64(report.jain),
        ]);
        civic_points.push((rate, allowance, rel, report.jain));
    }

    AblationResult {
        gain_table,
        civic_table,
        gain_points,
        civic_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_gain_drives_snapshot_fairness() {
        let r = run(64, 29);
        let jain_at = |g: f64| {
            r.gain_points
                .iter()
                .find(|(gain, _)| *gain == g)
                .map(|(_, j)| *j)
                .expect("gain in sweep")
        };
        assert!(
            jain_at(0.05) > jain_at(0.0),
            "correction must beat pure proportional control\n{}",
            r.gain_table
        );
    }

    #[test]
    fn civic_minimum_improves_reliability_within_bounds() {
        let r = run(64, 29);
        let without = r.civic_points[0];
        let bounded = r.civic_points[1];
        let unbounded = r.civic_points[2];
        // Single-seed runs: allow a few events' worth of noise between
        // the no-civic and bounded-civic rows.
        assert!(
            bounded.2 >= without.2 - 0.05,
            "civic minimum must not materially hurt reliability\n{}",
            r.civic_table
        );
        assert!(
            bounded.2 > 0.95,
            "bounded civic minimum keeps the epidemic mostly alive: {}\n{}",
            bounded.2,
            r.civic_table
        );
        // The fundamental tension: only the unbounded donation reaches
        // full reliability in the 3/4-uninterested regime.
        assert!(
            unbounded.2 >= bounded.2,
            "unbounded civic work dominates reliability\n{}",
            r.civic_table
        );
    }
}
