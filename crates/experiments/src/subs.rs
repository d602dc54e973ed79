//! E-SUBS — subscription maintenance fairness (paper §5.1).
//!
//! A wave of subscriptions to topics of very different popularity flows
//! through random walks. Without compensation, relays absorb the cost
//! ("some unlucky processes may be far more often involved in forwarding
//! subscription requests than others"); with the compensation scheme the
//! relays' ratios stay at 1 and the cost lands on the subscribers.

use fed_core::ledger::RatioSpec;
use fed_core::submgmt::{SubWalkCmd, SubWalkNode, WalkAccounting};
use fed_metrics::table::{fmt_f64, Table};
use fed_pubsub::TopicId;
use fed_sim::network::{LatencyModel, NetworkModel};
use fed_sim::{NodeId, SimDuration, SimTime, Simulation};
use fed_util::fairness::FairnessReport;

/// Result of the E-SUBS experiment.
#[derive(Debug)]
pub struct SubsResult {
    /// Comparison table.
    pub table: Table,
    /// Ratio fairness (relays only) without compensation.
    pub uncompensated_relay_jain: f64,
    /// Ratio fairness (relays only) with compensation.
    pub compensated_relay_jain: f64,
    /// Mean hops for the popular topic.
    pub popular_hops: f64,
    /// Mean hops for the rare topic.
    pub rare_hops: f64,
}

fn scenario(n: usize, accounting: WalkAccounting, seed: u64) -> (Simulation<SubWalkNode>, usize) {
    let popular = TopicId::new(0);
    let rare = TopicId::new(1);
    let popular_members = n / 4;
    let rare_members = 2;
    let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(5)));
    let mut sim = Simulation::new(n, net, seed, move |id, _| {
        let mut initial = Vec::new();
        if id.index() < popular_members {
            initial.push(popular);
        }
        if id.index() >= popular_members && id.index() < popular_members + rare_members {
            initial.push(rare);
        }
        SubWalkNode::new(id, n, accounting, initial)
    });
    // The last quarter of the population subscribes (alternating popular
    // and rare targets, spread over time); everyone between the initial
    // members and the subscribers is a *pure relay* — exactly the "unlucky
    // process" of §5.1, doing maintenance work for topics it never asked
    // about.
    let first_subscriber = 3 * n / 4;
    for (k, i) in (first_subscriber..n).enumerate() {
        let topic = if k % 2 == 0 { popular } else { rare };
        sim.schedule_command(
            SimTime::from_millis(50 * k as u64),
            NodeId::new(i as u32),
            SubWalkCmd::Subscribe(topic),
        );
    }
    (sim, first_subscriber)
}

/// Runs E-SUBS at population size `n`.
pub fn run(n: usize, seed: u64) -> SubsResult {
    let spec = RatioSpec::topic_based();
    let mut table = Table::new(
        format!("E-SUBS: subscription-walk maintenance cost (n={n})"),
        &[
            "accounting",
            "relay jain",
            "relay max/min",
            "mean hops popular",
            "mean hops rare",
        ],
    );
    let mut reports: Vec<FairnessReport> = Vec::new();
    let mut hops = (0.0, 0.0);
    for accounting in [WalkAccounting::Uncompensated, WalkAccounting::Compensated] {
        let (mut sim, first_subscriber) = scenario(n, accounting, seed);
        sim.run_until(SimTime::from_secs(120));
        // Pure-relay fairness: nodes that relayed walks but are neither
        // group members nor subscribers. Uncompensated, their ratio equals
        // their raw relay count (benefit floored by epsilon); compensated,
        // it is exactly 1.
        let relay_ratios: Vec<f64> = sim
            .nodes()
            .filter(|(_, node)| {
                node.total_relayed() > 0
                    && node.memberships().is_empty()
                    && node.outcomes().is_empty()
            })
            .map(|(_, node)| node.ledger().ratio(&spec))
            .collect();
        let report = FairnessReport::from_values(&relay_ratios);
        // Hop statistics per topic over subscriber outcomes.
        let mut pop = (0u64, 0u64);
        let mut rare = (0u64, 0u64);
        for (id, node) in sim.nodes() {
            if id.index() < first_subscriber {
                continue;
            }
            for o in node.outcomes() {
                let slot = if o.topic == TopicId::new(0) {
                    &mut pop
                } else {
                    &mut rare
                };
                slot.0 += o.hops as u64;
                slot.1 += 1;
            }
        }
        let pop_mean = pop.0 as f64 / pop.1.max(1) as f64;
        let rare_mean = rare.0 as f64 / rare.1.max(1) as f64;
        hops = (pop_mean, rare_mean);
        table.row_owned(vec![
            format!("{accounting:?}"),
            fmt_f64(report.jain),
            fmt_f64(report.max_min),
            fmt_f64(pop_mean),
            fmt_f64(rare_mean),
        ]);
        reports.push(report);
    }
    SubsResult {
        table,
        uncompensated_relay_jain: reports[0].jain,
        compensated_relay_jain: reports[1].jain,
        popular_hops: hops.0,
        rare_hops: hops.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compensation_fixes_relay_fairness() {
        let r = run(96, 17);
        assert!(
            r.compensated_relay_jain > 0.99,
            "compensated relays sit at ratio 1: {}\n{}",
            r.compensated_relay_jain,
            r.table
        );
        assert!(
            r.compensated_relay_jain > r.uncompensated_relay_jain,
            "{}",
            r.table
        );
        assert!(
            r.rare_hops > r.popular_hops,
            "rare topics must cost more relay hops\n{}",
            r.table
        );
    }
}
