//! E-CONV — §5.2 Q1/Q2: "How can the fanout [and message size] be
//! dynamically adapted to ensure quick convergence?"
//!
//! A step change in interest: at `t_shift` a cold node subscribes to the
//! busy topic. We track its fanout round-by-round and measure how many
//! rounds the controller needs to move from the floor to (near) its new
//! steady allocation.

use crate::harness::t_arch_config;
use fed_core::gossip::{GossipConfig, GossipNode};
use fed_metrics::table::{fmt_f64, Table};
use fed_pubsub::{Command, Event, EventId, TopicId};
use fed_sim::network::{LatencyModel, NetworkModel};
use fed_sim::{NodeId, SimDuration, SimTime, Simulation};

/// Result of the E-CONV experiment.
#[derive(Debug)]
pub struct ConvResult {
    /// Fanout trajectory of the shifted node (seconds, fanout).
    pub table: Table,
    /// Rounds until the shifted node's allocation reached 80% of its final
    /// value after the subscription flip.
    pub rounds_to_converge: u64,
    /// The node's fanout just before the flip.
    pub fanout_before: f64,
    /// The node's fanout at the end.
    pub fanout_after: f64,
}

/// Runs E-CONV at population size `n`.
pub fn run(n: usize, seed: u64) -> ConvResult {
    let cfg = t_arch_config(GossipConfig::fair);
    let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10)));
    let mut sim: Simulation<GossipNode> = Simulation::new(n, net, seed, move |id, _| {
        GossipNode::new(id, n, cfg.clone())
    });
    let topic = TopicId::new(0);
    // A quarter of the population is warm (subscribed from the start); the
    // observed node (index 0) starts cold.
    for i in 1..=(n / 4) {
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(i as u32),
            Command::Subscribe(topic),
        );
    }
    // Steady publication stream from node 1.
    let horizon = SimTime::from_secs(60);
    let mut k = 0u32;
    let mut t = SimTime::from_millis(500);
    while t < horizon {
        sim.schedule_command(
            t,
            NodeId::new(1),
            Command::Publish(Event::bare(EventId::new(1, k), topic)),
        );
        k += 1;
        t += SimDuration::from_millis(50);
    }
    let t_shift = SimTime::from_secs(30);
    sim.schedule_command(t_shift, NodeId::new(0), Command::Subscribe(topic));

    // Sample node 0's fanout every second.
    let mut table = Table::new(
        format!("E-CONV: fanout trajectory of a node whose interest flips at t=30s (n={n})"),
        &["t (s)", "fanout(node 0)", "est. mean benefit"],
    );
    let mut trajectory: Vec<(u64, f64)> = Vec::new();
    for sec in 1..=60u64 {
        sim.run_until(SimTime::from_secs(sec));
        let node = sim.node(NodeId::new(0)).expect("node 0 exists");
        let f = node.fanout() as f64;
        trajectory.push((sec, f));
        if sec % 5 == 0 || ((28..=40).contains(&sec)) {
            table.row_owned(vec![
                sec.to_string(),
                fmt_f64(f),
                fmt_f64(node.estimated_mean_benefit()),
            ]);
        }
    }
    let before = trajectory
        .iter()
        .filter(|(s, _)| *s >= 25 && *s < 30)
        .map(|(_, f)| *f)
        .sum::<f64>()
        / 5.0;
    let after = trajectory
        .iter()
        .filter(|(s, _)| *s > 50)
        .map(|(_, f)| *f)
        .sum::<f64>()
        / trajectory.iter().filter(|(s, _)| *s > 50).count().max(1) as f64;
    let threshold = before + 0.8 * (after - before);
    let converged_at = trajectory
        .iter()
        .find(|(s, f)| *s > 30 && *f >= threshold)
        .map(|(s, _)| *s)
        .unwrap_or(60);
    // Rounds = seconds / period (100 ms → 10 rounds per second).
    let rounds_to_converge = (converged_at - 30) * 10;
    ConvResult {
        table,
        rounds_to_converge,
        fanout_before: before,
        fanout_after: after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_shift_raises_fanout_quickly() {
        let r = run(64, 23);
        assert!(
            r.fanout_after > r.fanout_before + 1.0,
            "subscribing must raise the allocation: {} -> {}\n{}",
            r.fanout_before,
            r.fanout_after,
            r.table
        );
        assert!(
            r.rounds_to_converge <= 150,
            "convergence within 15 s of rounds: {} rounds\n{}",
            r.rounds_to_converge,
            r.table
        );
    }
}
