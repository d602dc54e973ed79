//! E-CHURN — the paper's motivating claim (§1/§6): "an unfair distribution
//! of workload can lead to a high churn … where processes abruptly
//! disconnect whenever they perceive to perform too much work. Such
//! behavior can significantly impact the reliability and scalability of a
//! decentralized system."
//!
//! Every peer is an [`Behavior::Aggrieved`] user: if its
//! contribution/benefit ratio exceeds a threshold it quits. We poll
//! periodically, crash the quitters, and compare how many peers the
//! classic and the fair protocol lose — and what that does to delivery
//! reliability for the remaining population.

use crate::harness::{prepare_gossip, t_arch_config, ArchOutcome, EngineKind};
use fed_cluster::Engine;
use fed_core::behavior::Behavior;
use fed_core::gossip::{GossipConfig, GossipNode};
use fed_core::ledger::RatioSpec;
use fed_metrics::table::{fmt_f64, Table};
use fed_sim::{SimDuration, SimTime};
use fed_workload::scenario::ScenarioSpec;

/// Result of the E-CHURN experiment.
#[derive(Debug)]
pub struct ChurnResult {
    /// Comparison table.
    pub table: Table,
    /// Peers lost under the classic protocol.
    pub classic_quitters: usize,
    /// Peers lost under the fair protocol.
    pub fair_quitters: usize,
    /// Reliability under the classic protocol (with its churn).
    pub classic_reliability: f64,
    /// Reliability under the fair protocol (with its churn).
    pub fair_reliability: f64,
}

/// Runs `sim` to `horizon` in 2 s slices, crashing after each slice every
/// live peer whose behaviour model (which carries the tolerance) wants to
/// leave under the `spec` accounting. Returns how many quit.
fn drive_with_quitting(sim: &mut Engine<GossipNode>, horizon: SimTime, spec: &RatioSpec) -> usize {
    let poll = SimDuration::from_secs(2);
    let mut quitters = 0usize;
    let mut now = SimTime::ZERO;
    while now < horizon {
        now += poll;
        sim.run_until(now.min(horizon));
        let unhappy: Vec<_> = sim
            .nodes()
            .filter(|(id, node)| {
                sim.is_alive(*id)
                    && node
                        .behavior()
                        .wants_to_leave(node.endpoint().ledger(), spec, node.rounds())
            })
            .map(|(id, _)| id)
            .collect();
        for id in unhappy {
            sim.schedule_crash(now, id);
            quitters += 1;
        }
    }
    quitters
}

/// One E-CHURN run of `preset`, every peer aggrieved past `threshold`,
/// driven with quitting on `engine`: how many quit, and the outcome.
fn quitting_run(
    scenario: &ScenarioSpec,
    engine: EngineKind,
    preset: fn(usize, usize) -> GossipConfig,
    threshold: f64,
) -> (usize, ArchOutcome) {
    let behavior = move |_| Behavior::Aggrieved {
        ratio_threshold: threshold,
        patience_rounds: 50,
    };
    let mut run = prepare_gossip(scenario, engine, t_arch_config(preset), behavior);
    let horizon = run.horizon();
    let quitters = drive_with_quitting(&mut run.sim, horizon, &RatioSpec::topic_based());
    (quitters, run.finish())
}

/// Runs E-CHURN at population size `n` with the given tolerance threshold.
pub fn run(n: usize, threshold: f64, seed: u64) -> ChurnResult {
    let scenario = ScenarioSpec::fair_gossip(n, seed);
    let results = [GossipConfig::classic, GossipConfig::fair].map(|preset| {
        let (quitters, outcome) =
            quitting_run(&scenario, EngineKind::Sequential, preset, threshold);
        (quitters, outcome.summary().reliability)
    });

    let mut table = Table::new(
        format!("E-CHURN: unfairness-driven churn (n={n}, tolerance={threshold})"),
        &["protocol", "quitters", "quitter %", "reliability"],
    );
    for (name, (q, rel)) in ["classic-gossip", "fair-gossip"].iter().zip(&results) {
        table.row_owned(vec![
            name.to_string(),
            q.to_string(),
            fmt_f64(*q as f64 * 100.0 / n as f64),
            fmt_f64(*rel),
        ]);
    }
    ChurnResult {
        table,
        classic_quitters: results[0].0,
        fair_quitters: results[1].0,
        classic_reliability: results[0].1,
        fair_reliability: results[1].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_run::first_divergence;

    #[test]
    fn fair_protocol_retains_more_peers() {
        let r = run(64, 15.0, 9);
        assert!(
            r.fair_quitters < r.classic_quitters,
            "fair {} must lose fewer peers than classic {}\n{}",
            r.fair_quitters,
            r.classic_quitters,
            r.table
        );
        assert!(
            r.classic_quitters > 0,
            "the classic protocol must aggrieve someone at tolerance 15"
        );
    }

    /// The quitting loop acts between slices on node state, yet runs
    /// bit-identically on the cluster: equal quitters and an outcome with
    /// no first divergence, for both presets.
    #[test]
    fn quitting_runs_identically_on_the_cluster() {
        let scenario = ScenarioSpec::fair_gossip(64, 9);
        let sharded = scenario.clone().with_shards(3);
        for preset in [GossipConfig::classic, GossipConfig::fair] {
            let sequential = quitting_run(&scenario, EngineKind::Sequential, preset, 15.0);
            let cluster = quitting_run(&sharded, EngineKind::Cluster, preset, 15.0);
            assert!(sequential.0 > 0, "tolerance 15 must aggrieve someone");
            assert_eq!(cluster.0, sequential.0, "quitters differ on 3 shards");
            assert_eq!(
                first_divergence(&sequential.1, &cluster.1),
                None,
                "the 3-shard run diverged"
            );
        }
    }
}
