//! Sweep reductions: per-run summaries, Pareto frontiers and axis means.
//!
//! A *sweep* runs many generated scenarios (see
//! `fed_workload::generate`) across every architecture and summarizes
//! each run into a [`RunSummary`] — fairness (Jain index over per-node
//! contribution/benefit ratios), delivery latency (p95) and forwarding cost
//! (messages sent per delivery). This crate reduces those summaries:
//! [`pareto_frontier`] keeps the non-dominated set per architecture
//! (maximize fairness, minimize latency, minimize cost) and [`mean_of`]
//! averages one axis. `fed-experiments` renders the results as the rows
//! of the committed `BENCH_sweep.json` artifact.
//!
//! Everything here is pure data over already-deterministic inputs: the
//! summaries come from virtual-world outcomes (no wall clock), so the
//! reductions are identical for the same sweep seed on both engines at
//! any shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One run of one generated workload on one architecture, reduced to
/// the three axes the paper trades off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Index of the generated workload in the sweep.
    pub index: u64,
    /// Jain fairness index over per-node contribution/benefit ratios
    /// (1 = perfectly fair; higher is better).
    pub jain: f64,
    /// 95th-percentile delivery latency in milliseconds (lower is
    /// better).
    pub latency_p95_ms: f64,
    /// Messages sent per event delivered — the forwarding cost of the
    /// dissemination (lower is better).
    pub msgs_per_delivery: f64,
    /// Fraction of expected deliveries that arrived (context, not a
    /// frontier axis: lossy/partitioned workloads cap it for every
    /// architecture alike).
    pub reliability: f64,
}

impl RunSummary {
    /// `true` when `self` Pareto-dominates `other`: at least as good on
    /// every axis (fairness up, latency down, cost down) and strictly
    /// better on at least one.
    pub fn dominates(&self, other: &RunSummary) -> bool {
        let ge = self.jain >= other.jain
            && self.latency_p95_ms <= other.latency_p95_ms
            && self.msgs_per_delivery <= other.msgs_per_delivery;
        let strict = self.jain > other.jain
            || self.latency_p95_ms < other.latency_p95_ms
            || self.msgs_per_delivery < other.msgs_per_delivery;
        ge && strict
    }
}

/// The non-dominated subset of `runs`, in a deterministic order:
/// ascending latency, then ascending cost, then descending fairness,
/// then workload index.
///
/// Duplicate points (identical on all three axes) are kept once, by
/// lowest workload index — so the frontier depends only on the *set*
/// of summaries, not on their arrival order.
pub fn pareto_frontier(runs: &[RunSummary]) -> Vec<RunSummary> {
    let mut frontier: Vec<RunSummary> = Vec::new();
    for candidate in runs {
        if !candidate.jain.is_finite()
            || !candidate.latency_p95_ms.is_finite()
            || !candidate.msgs_per_delivery.is_finite()
        {
            continue;
        }
        if frontier.iter().any(|kept| {
            kept.dominates(candidate)
                || (kept.jain == candidate.jain
                    && kept.latency_p95_ms == candidate.latency_p95_ms
                    && kept.msgs_per_delivery == candidate.msgs_per_delivery
                    && kept.index <= candidate.index)
        }) {
            continue;
        }
        frontier.retain(|kept| {
            !(candidate.dominates(kept)
                || (kept.jain == candidate.jain
                    && kept.latency_p95_ms == candidate.latency_p95_ms
                    && kept.msgs_per_delivery == candidate.msgs_per_delivery
                    && candidate.index < kept.index))
        });
        frontier.push(*candidate);
    }
    frontier.sort_by(|a, b| {
        a.latency_p95_ms
            .total_cmp(&b.latency_p95_ms)
            .then(a.msgs_per_delivery.total_cmp(&b.msgs_per_delivery))
            .then(b.jain.total_cmp(&a.jain))
            .then(a.index.cmp(&b.index))
    });
    frontier
}

/// Mean of one extracted axis over a run set (0 when empty).
pub fn mean_of(runs: &[RunSummary], axis: impl Fn(&RunSummary) -> f64) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(axis).sum::<f64>() / runs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(index: u64, jain: f64, lat: f64, cost: f64) -> RunSummary {
        RunSummary {
            index,
            jain,
            latency_p95_ms: lat,
            msgs_per_delivery: cost,
            reliability: 1.0,
        }
    }

    #[test]
    fn dominated_points_are_excluded() {
        let runs = [
            p(0, 0.9, 10.0, 5.0),
            p(1, 0.8, 12.0, 6.0), // dominated by 0
            p(2, 0.95, 20.0, 4.0),
        ];
        let f = pareto_frontier(&runs);
        assert_eq!(f.iter().map(|r| r.index).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn incomparable_points_all_survive() {
        // A classic trade-off chain: each is better on one axis, worse
        // on another.
        let runs = [
            p(0, 0.5, 5.0, 10.0),
            p(1, 0.7, 10.0, 8.0),
            p(2, 0.9, 20.0, 6.0),
        ];
        assert_eq!(pareto_frontier(&runs).len(), 3);
    }

    #[test]
    fn frontier_is_order_invariant() {
        let mut runs = vec![
            p(0, 0.9, 10.0, 5.0),
            p(1, 0.8, 12.0, 6.0),
            p(2, 0.95, 20.0, 4.0),
            p(3, 0.6, 9.0, 7.0),
            p(4, 0.9, 10.0, 5.0), // duplicate of 0, higher index
        ];
        let forward = pareto_frontier(&runs);
        runs.reverse();
        let backward = pareto_frontier(&runs);
        assert_eq!(forward, backward);
        // The duplicate kept is the lowest-index one.
        assert!(forward.iter().any(|r| r.index == 0));
        assert!(!forward.iter().any(|r| r.index == 4));
    }

    #[test]
    fn non_finite_summaries_are_skipped() {
        let runs = [p(0, f64::NAN, 10.0, 5.0), p(1, 0.5, 10.0, 5.0)];
        let f = pareto_frontier(&runs);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].index, 1);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean_of(&[], |r| r.jain), 0.0);
    }
}
