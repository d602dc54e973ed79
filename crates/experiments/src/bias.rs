//! E-BIAS — §5.2 Q6: "Can we ensure that a peer does not artificially grow
//! its contribution by biasing the selection of peers or the selection of
//! events?"
//!
//! We plant free-riders (work less, under-advertise benefit) and inflators
//! (claim more contribution than performed) among honest peers, run the
//! fair protocol, then audit every node with a committee of random
//! witnesses using the receipt counters the protocol keeps when
//! `GossipConfig::audit_receipts` is set.
//! Reported: detection recall per behaviour class, false-positive rate on
//! honest peers, and the residual unfairness the cheats caused.

use crate::harness::{prepare_gossip, t_arch_config, EngineKind};
use fed_core::audit::{audit_subject, AuditOutcome, WitnessReport};
use fed_core::behavior::Behavior;
use fed_core::gossip::GossipConfig;
use fed_core::ledger::RatioSpec;
use fed_metrics::fairness::ratio_report;
use fed_metrics::table::{fmt_f64, Table};
use fed_sim::NodeId;
use fed_util::rng::{Rng64, SplitMix64};
use fed_workload::scenario::ScenarioSpec;

/// Result of the E-BIAS experiment.
#[derive(Debug)]
pub struct BiasResult {
    /// Detection table.
    pub table: Table,
    /// Fraction of inflators flagged as over-claiming.
    pub inflator_recall: f64,
    /// Fraction of honest peers incorrectly flagged as over-claiming.
    pub false_positive_rate: f64,
    /// Jain index over honest peers' ratios (the damage cheats cause).
    pub honest_jain: f64,
}

/// Runs E-BIAS at population size `n` with the given cheat fractions.
pub fn run(n: usize, seed: u64) -> BiasResult {
    let free_riders = n / 10;
    let inflators = n / 10;
    let scenario = ScenarioSpec::fair_gossip(n, seed);
    // The one run that keeps the receipt evidence the committee reads.
    let cfg = GossipConfig {
        audit_receipts: true,
        ..t_arch_config(GossipConfig::fair)
    };
    let behavior = move |id: NodeId| {
        let i = id.index();
        if i < free_riders {
            Behavior::FreeRider {
                fanout_cap: 1.0,
                advertised_benefit_scale: 0.1,
            }
        } else if i < free_riders + inflators {
            Behavior::Inflator {
                advertised_contribution_scale: 5.0,
            }
        } else {
            Behavior::Honest
        }
    };
    // The committee reads protocol state the outcome does not carry
    // (claims, receipt counters, rounds), so run the engine by hand and
    // interrogate the finished nodes before collecting.
    let mut run = prepare_gossip(&scenario, EngineKind::Sequential, cfg, behavior);
    run.sim.run_until(run.horizon());

    // Committee audit of every node: sample 16 witnesses, gather receipt
    // counters and the subject's claimed contribution rate.
    let committee = 16usize.min(n - 1);
    let mut picker = SplitMix64::seed_from_u64(seed ^ 0xB1A5);
    let mut flagged_over = vec![false; n];
    let mut insufficient = 0usize;
    for (subject, over_flag) in flagged_over.iter_mut().enumerate() {
        // The last claim held by the lowest-id node that received a push
        // from the subject (not necessarily the subject's latest claim).
        // Lifetime totals divided by elapsed rounds give the rate the
        // receipt counters measure (a windowed snapshot would race the
        // workload's phases and flag honest peers whose rate varies over
        // time).
        let claimed = run
            .sim
            .nodes()
            .find_map(|(_, node)| node.claim_of(NodeId::new(subject as u32)))
            .map(|s| s.contribution_total);
        let Some(claimed_total) = claimed else {
            insufficient += 1;
            continue;
        };
        let subject_rounds = run
            .sim
            .node(NodeId::new(subject as u32))
            .map(|node| node.rounds().max(1))
            .unwrap_or(1);
        let claimed_rate = claimed_total / subject_rounds as f64;
        let mut witnesses = Vec::new();
        let mut indices = picker.sample_indices(n, committee + 1);
        indices.retain(|&i| i != subject);
        indices.truncate(committee);
        for w in indices {
            let node = run.sim.node(NodeId::new(w as u32)).expect("node exists");
            if let Some((messages, since_round)) = node.receipts_from(NodeId::new(subject as u32)) {
                let rounds = node.rounds().saturating_sub(since_round).max(1);
                witnesses.push(WitnessReport { messages, rounds });
            } else {
                // Zero receipts over the witness's whole lifetime.
                witnesses.push(WitnessReport {
                    messages: 0,
                    rounds: node.rounds().max(1),
                });
            }
        }
        let verdict = audit_subject(NodeId::new(subject as u32), claimed_rate, &witnesses, n);
        match verdict.outcome {
            AuditOutcome::OverClaimed => *over_flag = true,
            AuditOutcome::InsufficientEvidence => insufficient += 1,
            _ => {}
        }
    }

    let inflator_hits = (free_riders..free_riders + inflators)
        .filter(|&i| flagged_over[i])
        .count();
    let honest_flags = (free_riders + inflators..n)
        .filter(|&i| flagged_over[i])
        .count();
    let inflator_recall = inflator_hits as f64 / inflators.max(1) as f64;
    let honest_count = n - free_riders - inflators;
    let false_positive_rate = honest_flags as f64 / honest_count.max(1) as f64;

    let spec = RatioSpec::topic_based();
    let ledgers = run.finish().ledgers;
    let honest_jain = ratio_report(&ledgers[free_riders + inflators..], &spec).jain;

    let mut table = Table::new(
        format!(
            "E-BIAS: receipt audits against cheats (n={n}, {free_riders} free-riders, {inflators} inflators)"
        ),
        &["metric", "value"],
    );
    table.row_owned(vec![
        "inflator recall (over-claim flags)".into(),
        fmt_f64(inflator_recall),
    ]);
    table.row_owned(vec![
        "honest false-positive rate".into(),
        fmt_f64(false_positive_rate),
    ]);
    table.row_owned(vec!["honest-peer ratio jain".into(), fmt_f64(honest_jain)]);
    table.row_owned(vec![
        "audits without evidence".into(),
        insufficient.to_string(),
    ]);

    BiasResult {
        table,
        inflator_recall,
        false_positive_rate,
        honest_jain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audits_catch_inflators_not_honest_peers() {
        let r = run(80, 37);
        assert!(
            r.inflator_recall >= 0.75,
            "recall {}\n{}",
            r.inflator_recall,
            r.table
        );
        assert!(
            r.false_positive_rate <= 0.1,
            "false positives {}\n{}",
            r.false_positive_rate,
            r.table
        );
    }
}
