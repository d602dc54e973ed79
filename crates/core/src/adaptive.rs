//! Adaptive fanout and message-size control (paper §5.2).
//!
//! The paper proposes two knobs for modulating a peer's contribution in
//! expressive dissemination: the **fanout** (partners per round) and the
//! **gossip message size** (events per message), and asks how they can "be
//! dynamically adapted to ensure quick convergence" while maintaining
//! robustness.
//!
//! Our mechanism:
//!
//! 1. Every gossip message piggybacks the sender's windowed benefit and
//!    contribution rates ([`RateSample`]).
//! 2. Each node maintains exponentially weighted averages of the
//!    population's mean benefit rate ([`GlobalRateEstimator`]) — a
//!    gossip-style aggregation in the spirit of push-sum.
//! 3. The controllers allocate the system's fixed work budget
//!    proportionally to benefit share: a node whose benefit rate is `b_i`
//!    against the estimated population mean `b̄` uses
//!    `fanout_i = clamp(F_target · b_i / b̄, f_min, f_max)` (and
//!    analogously for message size).
//!
//! Anchoring to `F_target` answers the robustness question (Q5): the
//! *average* fanout stays at the reliability target (`≈ ln n + c`), the
//! adaptation only redistributes who does the sending; and the clamps
//! answer Q3/Q4: `f_min ≥ 1` keeps every peer infectious so the epidemic
//! stays connected.

use fed_util::rng::Rng64;
use std::fmt;

/// A fairness sample piggybacked on gossip messages: windowed rates plus
/// lifetime totals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RateSample {
    /// Sender's benefit per round over its last window (deliveries +
    /// weighted filters).
    pub benefit_rate: f64,
    /// Sender's contribution per round over its last window (messages or
    /// bytes per the ratio spec).
    pub contribution_rate: f64,
    /// Sender's lifetime benefit (the denominator of the paper's Fig. 1).
    pub benefit_total: f64,
    /// Sender's lifetime contribution (the numerator of Fig. 1).
    pub contribution_total: f64,
}

impl RateSample {
    /// Approximate wire size of the piggyback in bytes.
    pub const WIRE_BYTES: usize = 32;
}

/// EWMA estimator of the population's mean benefit rate and of its mean
/// lifetime benefit and contribution.
///
/// Deterministic, O(1) state; seeded with a prior so early rounds are not
/// dominated by the first few samples.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalRateEstimator {
    alpha: f64,
    mean_benefit: f64,
    mean_benefit_total: f64,
    mean_contribution_total: f64,
    samples: u64,
}

impl GlobalRateEstimator {
    /// Creates an estimator with smoothing factor `alpha` in `(0, 1]` and
    /// a prior mean benefit (used until real samples arrive).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or the prior is negative.
    pub fn new(alpha: f64, prior_benefit: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(prior_benefit >= 0.0, "prior benefit must be non-negative");
        GlobalRateEstimator {
            alpha,
            mean_benefit: prior_benefit,
            mean_benefit_total: 0.0,
            mean_contribution_total: 0.0,
            samples: 0,
        }
    }

    /// Folds one peer sample into the estimate.
    ///
    /// Non-finite or negative samples are ignored (they can only come from
    /// byzantine peers; the audit module handles those separately).
    pub fn observe(&mut self, sample: RateSample) {
        let fields = [
            sample.benefit_rate,
            sample.contribution_rate,
            sample.benefit_total,
            sample.contribution_total,
        ];
        if fields.iter().any(|f| !f.is_finite() || *f < 0.0) {
            return;
        }
        self.mean_benefit += self.alpha * (sample.benefit_rate - self.mean_benefit);
        self.mean_benefit_total += self.alpha * (sample.benefit_total - self.mean_benefit_total);
        self.mean_contribution_total +=
            self.alpha * (sample.contribution_total - self.mean_contribution_total);
        self.samples += 1;
    }

    /// Estimated population mean benefit rate.
    pub fn mean_benefit(&self) -> f64 {
        self.mean_benefit
    }

    /// Estimated population mean lifetime benefit.
    pub fn mean_benefit_total(&self) -> f64 {
        self.mean_benefit_total
    }

    /// Estimated population mean lifetime contribution.
    pub fn mean_contribution_total(&self) -> f64 {
        self.mean_contribution_total
    }

    /// Estimated global *lifetime* fair ratio κ̂ — what the paper's Figure 1
    /// compares across peers.
    pub fn lifetime_ratio(&self, epsilon: f64) -> f64 {
        self.mean_contribution_total / self.mean_benefit_total.max(epsilon)
    }

    /// Number of samples folded in.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

impl fmt::Display for GlobalRateEstimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "est(b̄={:.3}, n={})", self.mean_benefit, self.samples)
    }
}

/// Configuration of one proportional-allocation controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// The population-average value the controller preserves (e.g. the
    /// reliability-driven fanout `ln n + c`).
    pub target_mean: f64,
    /// Lower clamp (Q3: must stay ≥ 1 to keep the epidemic alive).
    pub min: f64,
    /// Upper clamp (no peer can be forced to do unbounded work).
    pub max: f64,
    /// Smoothing factor in `(0, 1]`: 1 = jump straight to the allocation.
    pub gain: f64,
}

impl ControllerConfig {
    /// Validates and builds a config.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= min <= target_mean <= max` and `gain ∈ (0, 1]`.
    /// A zero `min` is meaningful together with stochastic rounding: peers
    /// whose fair share is (temporarily) zero stop forwarding entirely.
    pub fn new(target_mean: f64, min: f64, max: f64, gain: f64) -> Self {
        assert!(min >= 0.0, "min must be non-negative");
        assert!(
            min <= target_mean && target_mean <= max,
            "need min <= target <= max"
        );
        assert!(gain > 0.0 && gain <= 1.0, "gain must be in (0, 1]");
        ControllerConfig {
            target_mean,
            min,
            max,
            gain,
        }
    }
}

/// Proportional-share controller for fanout or message size.
///
/// # Examples
///
/// ```
/// use fed_core::adaptive::{Controller, ControllerConfig};
///
/// // Target mean fanout 8, clamped to [1, 30], jump immediately.
/// let mut c = Controller::new(ControllerConfig::new(8.0, 1.0, 30.0, 1.0));
/// // A peer benefiting at 2× the population mean is allocated 2× fanout.
/// let f = c.update(10.0, 5.0);
/// assert!((f - 16.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Controller {
    config: ControllerConfig,
    value: f64,
}

impl Controller {
    /// Creates a controller starting at the target mean.
    pub fn new(config: ControllerConfig) -> Self {
        Controller {
            config,
            value: config.target_mean,
        }
    }

    /// The current allocation (continuous; round with
    /// [`Controller::value_rounded`] for discrete use).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The current allocation rounded to the nearest integer ≥ 1.
    pub fn value_rounded(&self) -> usize {
        self.value.round().max(1.0) as usize
    }

    /// Stochastic rounding of the allocation: `floor(v)` plus one more with
    /// probability `frac(v)`. This is how fanouts *below one* become
    /// meaningful (paper §5.2 Q3): a peer allocated `0.25` sends to one
    /// partner every fourth round in expectation, so its long-run
    /// contribution matches the allocation while the epidemic keeps every
    /// peer as an occasional relay.
    pub fn sample_discrete<R: Rng64 + ?Sized>(&self, rng: &mut R) -> usize {
        let v = self.value.max(0.0);
        let base = v.floor();
        let frac = v - base;
        base as usize + usize::from(rng.bernoulli(frac))
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Updates the allocation given this node's own windowed benefit rate
    /// and the estimated population mean benefit rate; returns the new
    /// value.
    ///
    /// When the population mean is (near) zero — an idle system — every
    /// node falls back to the target mean: with no benefit signal the
    /// fairest split of maintenance work is even (paper §5.1: "if almost no
    /// interesting events happen … a fair system would consider the cost in
    /// terms of subscriptions").
    pub fn update(&mut self, own_benefit_rate: f64, mean_benefit_rate: f64) -> f64 {
        let allocation = self.proportional_allocation(own_benefit_rate, mean_benefit_rate);
        self.steer(allocation)
    }

    /// The raw proportional-share allocation without smoothing/clamping.
    ///
    /// Falls back to the target mean while the population delivers less
    /// than one event per thousand rounds — the idle/bootstrap regime in
    /// which the fairest split of (negligible) work is an even one.
    pub fn proportional_allocation(&self, own_benefit_rate: f64, mean_benefit_rate: f64) -> f64 {
        let cfg = &self.config;
        if mean_benefit_rate <= 1e-3 {
            cfg.target_mean
        } else {
            cfg.target_mean * own_benefit_rate.max(0.0) / mean_benefit_rate
        }
    }

    /// Smoothly steers the value toward `allocation`, clamped to the
    /// configured bounds; returns the new value.
    pub fn steer(&mut self, allocation: f64) -> f64 {
        let cfg = &self.config;
        let clamped = allocation.clamp(cfg.min, cfg.max);
        self.value += cfg.gain * (clamped - self.value);
        self.value
    }

    /// Forces the allocation (used by free-rider behaviour models).
    pub fn force(&mut self, value: f64) {
        self.value = value.clamp(self.config.min, self.config.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_converges_to_population_mean() {
        let mut e = GlobalRateEstimator::new(0.1, 0.0);
        for _ in 0..500 {
            e.observe(RateSample {
                benefit_rate: 4.0,
                contribution_rate: 8.0,
                ..RateSample::default()
            });
        }
        assert!((e.mean_benefit() - 4.0).abs() < 0.01, "{e}");
        assert_eq!(e.samples(), 500);
    }

    #[test]
    fn estimator_tracks_mixture() {
        let mut e = GlobalRateEstimator::new(0.05, 1.0);
        // alternate 0 and 10 -> mean 5
        for i in 0..2000 {
            e.observe(RateSample {
                benefit_rate: if i % 2 == 0 { 0.0 } else { 10.0 },
                contribution_rate: 1.0,
                ..RateSample::default()
            });
        }
        assert!((e.mean_benefit() - 5.0).abs() < 0.5, "{e}");
    }

    #[test]
    fn estimator_rejects_garbage() {
        let mut e = GlobalRateEstimator::new(0.5, 2.0);
        e.observe(RateSample {
            benefit_rate: f64::NAN,
            contribution_rate: 1.0,
            ..RateSample::default()
        });
        e.observe(RateSample {
            benefit_rate: -5.0,
            contribution_rate: 1.0,
            ..RateSample::default()
        });
        assert_eq!(e.samples(), 0);
        assert_eq!(e.mean_benefit(), 2.0, "prior untouched");
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn estimator_rejects_bad_alpha() {
        let _ = GlobalRateEstimator::new(0.0, 1.0);
    }

    #[test]
    fn estimator_tracks_lifetime_totals() {
        let mut e = GlobalRateEstimator::new(0.1, 0.0);
        for _ in 0..300 {
            e.observe(RateSample {
                benefit_rate: 1.0,
                contribution_rate: 2.0,
                benefit_total: 50.0,
                contribution_total: 150.0,
            });
        }
        assert!((e.mean_benefit_total() - 50.0).abs() < 0.5);
        assert!((e.mean_contribution_total() - 150.0).abs() < 1.0);
        assert!((e.lifetime_ratio(1e-9) - 3.0).abs() < 0.05);
    }

    #[test]
    fn zero_floor_allowed() {
        let mut c = Controller::new(ControllerConfig::new(8.0, 0.0, 32.0, 1.0));
        c.steer(-5.0);
        assert_eq!(c.value(), 0.0);
        use fed_util::rng::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        assert_eq!(c.sample_discrete(&mut rng), 0);
    }

    #[test]
    fn controller_allocates_proportionally() {
        let mut c = Controller::new(ControllerConfig::new(8.0, 1.0, 32.0, 1.0));
        assert_eq!(c.value(), 8.0, "starts at target");
        // equal benefit -> target
        assert!((c.update(5.0, 5.0) - 8.0).abs() < 1e-9);
        // double benefit -> double allocation
        assert!((c.update(10.0, 5.0) - 16.0).abs() < 1e-9);
        // half benefit -> half allocation
        assert!((c.update(2.5, 5.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn controller_clamps() {
        let mut c = Controller::new(ControllerConfig::new(8.0, 2.0, 12.0, 1.0));
        assert_eq!(c.update(1000.0, 1.0), 12.0, "upper clamp");
        assert_eq!(c.update(0.0, 5.0), 2.0, "lower clamp");
        assert_eq!(c.value_rounded(), 2);
    }

    #[test]
    fn controller_idle_system_falls_back_to_target() {
        let mut c = Controller::new(ControllerConfig::new(6.0, 1.0, 20.0, 1.0));
        c.update(0.0, 0.0);
        assert_eq!(c.value(), 6.0);
    }

    #[test]
    fn controller_gain_smooths() {
        let mut c = Controller::new(ControllerConfig::new(8.0, 1.0, 32.0, 0.5));
        c.update(16.0, 8.0); // allocation 16, gain 0.5 -> 12
        assert!((c.value() - 12.0).abs() < 1e-9);
        c.update(16.0, 8.0); // -> 14
        assert!((c.value() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn controller_convergence_speed() {
        // Q1: "how can the fanout be dynamically adapted to ensure quick
        // convergence" — with gain g the distance to the allocation decays
        // as (1-g)^rounds; g = 0.5 converges within 1% in 7 rounds.
        let mut c = Controller::new(ControllerConfig::new(8.0, 1.0, 64.0, 0.5));
        for _ in 0..7 {
            c.update(24.0, 8.0);
        }
        assert!((c.value() - 24.0).abs() < 0.25, "value={}", c.value());
    }

    #[test]
    fn sample_discrete_matches_expectation() {
        use fed_util::rng::Xoshiro256StarStar;
        let mut c = Controller::new(ControllerConfig::new(8.0, 0.25, 32.0, 1.0));
        c.force(0.25);
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let n = 40_000;
        let total: usize = (0..n).map(|_| c.sample_discrete(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean={mean}");
        c.force(3.0);
        assert_eq!(c.sample_discrete(&mut rng), 3, "integer values are exact");
    }

    #[test]
    fn controller_force_respects_clamps() {
        let mut c = Controller::new(ControllerConfig::new(8.0, 2.0, 12.0, 1.0));
        c.force(0.5);
        assert_eq!(c.value(), 2.0);
        c.force(100.0);
        assert_eq!(c.value(), 12.0);
    }

    #[test]
    #[should_panic(expected = "min <= target <= max")]
    fn config_validates_ordering() {
        let _ = ControllerConfig::new(8.0, 9.0, 32.0, 1.0);
    }

    #[test]
    fn negative_own_benefit_treated_as_zero() {
        let mut c = Controller::new(ControllerConfig::new(8.0, 1.0, 32.0, 1.0));
        assert_eq!(c.update(-3.0, 4.0), 1.0);
    }
}
