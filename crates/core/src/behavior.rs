//! Peer behaviour models: honest, selfish and lying peers.
//!
//! The paper motivates fairness with *selfish* participants: "users
//! repeatedly disconnect from the system because they feel treated
//! unfairly" (§1), and asks whether "a peer \[can\] artificially grow its
//! contribution by biasing the selection of peers … or the selection of
//! events" (§5.2 Q6). These models make both failure modes injectable:
//!
//! * [`Behavior::Aggrieved`] — leaves (the experiment crashes it) once its
//!   contribution/benefit ratio stays above a threshold (E-CHURN).
//! * [`Behavior::FreeRider`] — caps its own fanout below its fair share
//!   and under-reports its benefit so the allocation keeps favouring it
//!   (E-BIAS).
//! * [`Behavior::Inflator`] — over-reports its contribution to *appear*
//!   fair while doing little work (E-BIAS detection target).

use crate::adaptive::{Controller, RateSample};
use crate::ledger::{FairnessLedger, RatioSpec};

/// How a peer plays the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Behavior {
    /// Follows the protocol faithfully.
    #[default]
    Honest,
    /// Feels exploited above `ratio_threshold` and wants to leave.
    ///
    /// The node keeps following the protocol; the experiment driver polls
    /// [`Behavior::wants_to_leave`] and schedules the crash — matching the
    /// paper's model where users disconnect, the software does not
    /// misbehave.
    Aggrieved {
        /// Contribution/benefit ratio above which the user quits.
        ratio_threshold: f64,
        /// Grace period: rounds before the user starts judging.
        patience_rounds: u64,
    },
    /// Does less work than allocated and advertises a scaled-down benefit.
    FreeRider {
        /// Hard cap on the fanout the peer will use.
        fanout_cap: f64,
        /// Multiplier (< 1) applied to the advertised benefit rate.
        advertised_benefit_scale: f64,
    },
    /// Advertises a scaled-up contribution to look fairer than it is.
    Inflator {
        /// Multiplier (> 1) applied to the advertised contribution rate.
        advertised_contribution_scale: f64,
    },
}

impl Behavior {
    /// Transforms the node's true rates into what it advertises.
    pub fn advertise(&self, true_rates: RateSample) -> RateSample {
        match *self {
            Behavior::Honest | Behavior::Aggrieved { .. } => true_rates,
            Behavior::FreeRider {
                advertised_benefit_scale,
                ..
            } => {
                let k = advertised_benefit_scale.max(0.0);
                RateSample {
                    benefit_rate: true_rates.benefit_rate * k,
                    benefit_total: true_rates.benefit_total * k,
                    ..true_rates
                }
            }
            Behavior::Inflator {
                advertised_contribution_scale,
            } => {
                let k = advertised_contribution_scale.max(0.0);
                RateSample {
                    contribution_rate: true_rates.contribution_rate * k,
                    contribution_total: true_rates.contribution_total * k,
                    ..true_rates
                }
            }
        }
    }

    /// Applies behavioural overrides to the knob controllers after the
    /// honest update ran.
    pub fn shape_controllers(&self, fanout: &mut Controller, _msg_size: &mut Controller) {
        if let Behavior::FreeRider { fanout_cap, .. } = *self {
            if fanout.value() > fanout_cap {
                fanout.force(fanout_cap);
            }
        }
    }

    /// Whether an aggrieved user would quit given its ledger state.
    pub fn wants_to_leave(&self, ledger: &FairnessLedger, spec: &RatioSpec, rounds: u64) -> bool {
        match *self {
            Behavior::Aggrieved {
                ratio_threshold,
                patience_rounds,
            } => rounds >= patience_rounds && ledger.ratio(spec) > ratio_threshold,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::ControllerConfig;

    fn rates(b: f64, c: f64) -> RateSample {
        RateSample {
            benefit_rate: b,
            contribution_rate: c,
            benefit_total: b * 10.0,
            contribution_total: c * 10.0,
        }
    }

    #[test]
    fn honest_advertises_truth() {
        let r = rates(3.0, 5.0);
        assert_eq!(Behavior::Honest.advertise(r), r);
    }

    #[test]
    fn free_rider_scales_benefit_down() {
        let b = Behavior::FreeRider {
            fanout_cap: 1.0,
            advertised_benefit_scale: 0.25,
        };
        let adv = b.advertise(rates(8.0, 2.0));
        assert_eq!(adv.benefit_rate, 2.0);
        assert_eq!(adv.benefit_total, 20.0);
        assert_eq!(adv.contribution_rate, 2.0);
    }

    #[test]
    fn inflator_scales_contribution_up() {
        let b = Behavior::Inflator {
            advertised_contribution_scale: 4.0,
        };
        let adv = b.advertise(rates(1.0, 2.0));
        assert_eq!(adv.contribution_rate, 8.0);
        assert_eq!(adv.contribution_total, 80.0);
        assert_eq!(adv.benefit_rate, 1.0);
    }

    #[test]
    fn free_rider_caps_fanout() {
        let b = Behavior::FreeRider {
            fanout_cap: 2.0,
            advertised_benefit_scale: 1.0,
        };
        let mut f = Controller::new(ControllerConfig::new(8.0, 1.0, 32.0, 1.0));
        let mut n = Controller::new(ControllerConfig::new(16.0, 1.0, 64.0, 1.0));
        f.update(100.0, 1.0); // drives fanout to the max
        b.shape_controllers(&mut f, &mut n);
        assert_eq!(f.value(), 2.0);
        assert_eq!(n.value(), 16.0, "message size untouched");
        // honest never shapes
        let mut f2 = Controller::new(ControllerConfig::new(8.0, 1.0, 32.0, 1.0));
        Behavior::Honest.shape_controllers(&mut f2, &mut n);
        assert_eq!(f2.value(), 8.0);
    }

    #[test]
    fn aggrieved_waits_for_patience_then_judges() {
        let b = Behavior::Aggrieved {
            ratio_threshold: 2.0,
            patience_rounds: 10,
        };
        let mut ledger = FairnessLedger::new();
        for _ in 0..10 {
            ledger.record_forward(100);
        }
        ledger.record_delivery();
        let spec = RatioSpec::topic_based();
        assert_eq!(ledger.ratio(&spec), 10.0);
        assert!(!b.wants_to_leave(&ledger, &spec, 5), "still patient");
        assert!(b.wants_to_leave(&ledger, &spec, 10), "ratio 10 > 2");
        // a fairly treated peer stays
        for _ in 0..20 {
            ledger.record_delivery();
        }
        assert!(!b.wants_to_leave(&ledger, &spec, 50));
    }

    #[test]
    fn negative_scales_clamped() {
        let b = Behavior::FreeRider {
            fanout_cap: 1.0,
            advertised_benefit_scale: -1.0,
        };
        assert_eq!(b.advertise(rates(4.0, 4.0)).benefit_rate, 0.0);
    }

    #[test]
    fn default_is_honest() {
        assert_eq!(Behavior::default(), Behavior::Honest);
    }
}
