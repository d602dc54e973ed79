//! Churn traces: scheduled crashes and rejoins.

use fed_sim::SimTime;
use fed_telemetry::membership::DowntimeInterval;
use fed_util::dist::{Exponential, InvalidDistribution};
use fed_util::rng::Rng64;

/// One churn action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// The node crashes/leaves.
    Crash,
    /// The node rejoins with the state it crashed with.
    Join,
}

/// A scheduled churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When it happens.
    pub at: SimTime,
    /// Which node.
    pub node: usize,
    /// Crash or join.
    pub action: ChurnAction,
}

/// Parameters of a random churn trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    /// Mean node session length in seconds (exponential).
    pub mean_session_secs: f64,
    /// Mean downtime before rejoin in seconds (exponential).
    pub mean_downtime_secs: f64,
    /// Fraction of the population subject to churn (the rest are stable).
    pub churning_fraction: f64,
    /// Trace horizon.
    pub duration: SimTime,
    /// No churn before this instant.
    pub warmup: SimTime,
}

impl Default for ChurnPlan {
    fn default() -> Self {
        ChurnPlan {
            mean_session_secs: 30.0,
            mean_downtime_secs: 10.0,
            churning_fraction: 0.3,
            duration: SimTime::from_secs(60),
            warmup: SimTime::from_secs(5),
        }
    }
}

/// Generates an alternating crash/join trace per churning node.
///
/// Node indices `0..n*fraction` churn (callers can shuffle identities via
/// interest assignment instead — keeping the churning set to a prefix makes
/// experiments easy to stratify).
///
/// # Errors
///
/// Returns [`InvalidDistribution`] for non-positive means.
pub fn generate_churn<R: Rng64>(
    rng: &mut R,
    n: usize,
    plan: &ChurnPlan,
) -> Result<Vec<ChurnEvent>, InvalidDistribution> {
    // A non-positive or non-finite mean makes `1/mean` invalid, which
    // `Exponential::new` rejects — the error the rustdoc promises, instead
    // of clamping into an absurd rate.
    let session = Exponential::new(1.0 / plan.mean_session_secs)?;
    let downtime = Exponential::new(1.0 / plan.mean_downtime_secs)?;
    let churners = ((n as f64) * plan.churning_fraction.clamp(0.0, 1.0)).round() as usize;
    let horizon = plan.warmup.as_secs_f64() + plan.duration.as_secs_f64();
    let mut events = Vec::new();
    for node in 0..churners.min(n) {
        let mut t = plan.warmup.as_secs_f64() + session.sample(rng);
        let mut up = true;
        while t < horizon {
            events.push(ChurnEvent {
                at: SimTime::from_micros((t * 1e6) as u64),
                node,
                action: if up {
                    ChurnAction::Crash
                } else {
                    ChurnAction::Join
                },
            });
            t += if up {
                downtime.sample(rng)
            } else {
                session.sample(rng)
            };
            up = !up;
        }
    }
    events.sort_by_key(|e| (e.at, e.node));
    Ok(events)
}

/// Folds a churn trace into ground-truth [`DowntimeInterval`]s for the
/// membership-telemetry classifier.
///
/// Each `Crash` opens an interval for that node; the matching `Join`
/// closes it (exclusive). A node still down at `horizon` gets an interval
/// ending at `horizon`. The trace is interpreted as produced by
/// [`generate_churn`]: sorted by time, strictly alternating per node,
/// starting with a crash — a second crash while already down is ignored,
/// as is a join while up.
pub fn downtime_intervals(events: &[ChurnEvent], horizon: SimTime) -> Vec<DowntimeInterval> {
    let mut open: std::collections::BTreeMap<usize, SimTime> = std::collections::BTreeMap::new();
    let mut intervals = Vec::new();
    for e in events {
        match e.action {
            ChurnAction::Crash => {
                open.entry(e.node).or_insert(e.at);
            }
            ChurnAction::Join => {
                if let Some(down) = open.remove(&e.node) {
                    intervals.push(DowntimeInterval {
                        node: e.node,
                        down,
                        up: e.at,
                    });
                }
            }
        }
    }
    for (node, down) in open {
        intervals.push(DowntimeInterval {
            node,
            down,
            up: horizon,
        });
    }
    intervals.sort_by_key(|d| (d.down, d.node));
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_util::rng::Xoshiro256StarStar;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(99)
    }

    #[test]
    fn trace_alternates_per_node() {
        let plan = ChurnPlan::default();
        let events = generate_churn(&mut rng(), 100, &plan).unwrap();
        assert!(!events.is_empty());
        for node in 0..30 {
            let actions: Vec<ChurnAction> = events
                .iter()
                .filter(|e| e.node == node)
                .map(|e| e.action)
                .collect();
            for (i, a) in actions.iter().enumerate() {
                let expect = if i % 2 == 0 {
                    ChurnAction::Crash
                } else {
                    ChurnAction::Join
                };
                assert_eq!(*a, expect, "node {node} step {i}");
            }
        }
    }

    #[test]
    fn only_churning_fraction_affected() {
        let plan = ChurnPlan {
            churning_fraction: 0.1,
            ..ChurnPlan::default()
        };
        let events = generate_churn(&mut rng(), 100, &plan).unwrap();
        assert!(events.iter().all(|e| e.node < 10));
    }

    #[test]
    fn respects_warmup_and_horizon() {
        let plan = ChurnPlan {
            warmup: SimTime::from_secs(10),
            duration: SimTime::from_secs(20),
            ..ChurnPlan::default()
        };
        let events = generate_churn(&mut rng(), 50, &plan).unwrap();
        for e in &events {
            assert!(e.at >= SimTime::from_secs(10));
            assert!(e.at < SimTime::from_secs(30));
        }
    }

    #[test]
    fn sorted_by_time() {
        let events = generate_churn(&mut rng(), 60, &ChurnPlan::default()).unwrap();
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn zero_fraction_no_churn() {
        let plan = ChurnPlan {
            churning_fraction: 0.0,
            ..ChurnPlan::default()
        };
        assert!(generate_churn(&mut rng(), 50, &plan).unwrap().is_empty());
    }

    #[test]
    fn non_positive_means_are_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let plan = ChurnPlan {
                mean_session_secs: bad,
                ..ChurnPlan::default()
            };
            assert!(generate_churn(&mut rng(), 10, &plan).is_err(), "{bad}");
            let plan = ChurnPlan {
                mean_downtime_secs: bad,
                ..ChurnPlan::default()
            };
            assert!(generate_churn(&mut rng(), 10, &plan).is_err(), "{bad}");
        }
    }

    #[test]
    fn downtime_intervals_pair_crashes_with_joins() {
        let t = SimTime::from_millis;
        let events = [
            ChurnEvent {
                at: t(100),
                node: 2,
                action: ChurnAction::Crash,
            },
            ChurnEvent {
                at: t(200),
                node: 5,
                action: ChurnAction::Crash,
            },
            ChurnEvent {
                at: t(400),
                node: 2,
                action: ChurnAction::Join,
            },
            ChurnEvent {
                at: t(600),
                node: 2,
                action: ChurnAction::Crash,
            },
        ];
        let intervals = downtime_intervals(&events, t(1_000));
        assert_eq!(
            intervals,
            vec![
                DowntimeInterval {
                    node: 2,
                    down: t(100),
                    up: t(400),
                },
                DowntimeInterval {
                    node: 5,
                    down: t(200),
                    up: t(1_000),
                },
                DowntimeInterval {
                    node: 2,
                    down: t(600),
                    up: t(1_000),
                },
            ]
        );
    }

    #[test]
    fn downtime_intervals_cover_generated_traces() {
        let plan = ChurnPlan::default();
        let horizon = SimTime::from_secs(65);
        let events = generate_churn(&mut rng(), 80, &plan).unwrap();
        let intervals = downtime_intervals(&events, horizon);
        // One interval per crash event, each well-formed.
        let crashes = events
            .iter()
            .filter(|e| e.action == ChurnAction::Crash)
            .count();
        assert_eq!(intervals.len(), crashes);
        assert!(intervals.iter().all(|d| d.down < d.up && d.up <= horizon));
    }

    #[test]
    fn deterministic() {
        let a = generate_churn(&mut rng(), 40, &ChurnPlan::default()).unwrap();
        let b = generate_churn(&mut rng(), 40, &ChurnPlan::default()).unwrap();
        assert_eq!(a, b);
    }
}
