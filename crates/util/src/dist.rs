//! Random distributions used by the workload generators and network models.
//!
//! All distributions sample through the [`Rng64`] trait so streams stay
//! deterministic. The set covers what the gossip-dissemination literature
//! needs: Zipf topic popularity, exponential/Poisson event processes and
//! log-normal network latency.
//!
//! # Examples
//!
//! ```
//! use fed_util::rng::{Rng64, Xoshiro256StarStar};
//! use fed_util::dist::Zipf;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let zipf = Zipf::new(100, 1.0).unwrap();
//! let topic = zipf.sample(&mut rng); // in 0..100, skewed toward 0
//! assert!(topic < 100);
//! ```

use crate::rng::Rng64;
use std::fmt;

/// Error raised when a distribution is constructed with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidDistribution {
    what: String,
}

impl InvalidDistribution {
    fn new(what: impl Into<String>) -> Self {
        InvalidDistribution { what: what.into() }
    }
}

impl fmt::Display for InvalidDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for InvalidDistribution {}

/// Zipf distribution over ranks `0..n` with exponent `s >= 0`.
///
/// Rank `k` has probability proportional to `1 / (k+1)^s`. The exponent `0`
/// degenerates to the uniform distribution. Sampling is by binary search in
/// a precomputed CDF (`O(log n)` per sample), which is exact and fast for the
/// `n <= 10^6` range the experiments use.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistribution`] if `n == 0`, or `s` is negative or
    /// non-finite.
    pub fn new(n: usize, s: f64) -> Result<Self, InvalidDistribution> {
        if n == 0 {
            return Err(InvalidDistribution::new("Zipf requires n > 0"));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(InvalidDistribution::new("Zipf requires finite s >= 0"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating point never quite reaching 1.0.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Ok(Zipf { cdf })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        false // constructor guarantees n > 0; kept for clippy convention
    }

    /// Probability of rank `k`, or `0.0` when out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            return 0.0;
        }
        let hi = self.cdf[k];
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        hi - lo
    }

    /// Samples a rank in `0..n`.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.next_f64();
        // partition_point returns the first index whose cdf >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for inter-arrival times of publications and churn events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistribution`] if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Result<Self, InvalidDistribution> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(InvalidDistribution::new("Exponential requires lambda > 0"));
        }
        Ok(Exponential { lambda })
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.lambda
    }

    /// The mean `1 / lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Samples by inversion; always finite and non-negative.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - u in (0, 1] avoids ln(0).
        let u = 1.0 - rng.next_f64();
        -u.ln() / self.lambda
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Sampling uses Knuth's product method for `lambda < 30` and a normal
/// approximation with continuity correction above, which is accurate to well
/// under a percent for the workloads simulated here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistribution`] if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Result<Self, InvalidDistribution> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(InvalidDistribution::new("Poisson requires lambda > 0"));
        }
        Ok(Poisson { lambda })
    }

    /// The mean parameter.
    pub fn mean(&self) -> f64 {
        self.lambda
    }

    /// Samples a count.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            let limit = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.next_f64();
                if p <= limit {
                    return k;
                }
                k += 1;
            }
        } else {
            let n = StandardNormal.sample(rng);
            let x = self.lambda + self.lambda.sqrt() * n + 0.5;
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }
}

/// Standard normal distribution sampled via the Marsaglia polar method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandardNormal;

impl StandardNormal {
    /// Samples one standard-normal variate.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let u = rng.range_f64(-1.0, 1.0);
            let v = rng.range_f64(-1.0, 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

/// Log-normal distribution, parameterised by the `mu`/`sigma` of the
/// underlying normal.
///
/// The classic model for wide-area network latency: most links are fast,
/// a heavy tail is slow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistribution`] if `sigma` is negative or either
    /// parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, InvalidDistribution> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(InvalidDistribution::new(
                "LogNormal requires finite mu and sigma >= 0",
            ));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Creates a log-normal with a given median and shape `sigma`.
    ///
    /// The median of a log-normal is `exp(mu)`, so this is a convenient way
    /// to say "median latency 50 ms, tail shape 0.4".
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistribution`] if `median <= 0` or `sigma < 0`.
    pub fn from_median(median: f64, sigma: f64) -> Result<Self, InvalidDistribution> {
        if !median.is_finite() || median <= 0.0 {
            return Err(InvalidDistribution::new("LogNormal median must be > 0"));
        }
        Self::new(median.ln(), sigma)
    }

    /// Samples a positive value.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * StandardNormal.sample(rng)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(0xFED)
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
        assert!(Zipf::new(10, 0.0).is_ok());
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(50, 1.2).unwrap();
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
        for k in 1..50 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12, "pmf not monotone at {k}");
        }
        assert_eq!(z.pmf(50), 0.0);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0).unwrap();
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_empirical_matches_pmf() {
        let z = Zipf::new(20, 1.0).unwrap();
        let mut r = rng();
        let n = 200_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.01,
                "rank {k}: emp={emp} pmf={}",
                z.pmf(k)
            );
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let e = Exponential::new(0.5).unwrap();
        assert_eq!(e.mean(), 2.0);
        let mut r = rng();
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| e.sample(&mut r)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn poisson_small_lambda_mean_and_variance() {
        let p = Poisson::new(3.5).unwrap();
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<u64> = (0..n).map(|_| p.sample(&mut r)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 3.5).abs() < 0.05, "mean={mean}");
        assert!((var - 3.5).abs() < 0.15, "var={var}");
    }

    #[test]
    fn poisson_large_lambda_normal_path() {
        let p = Poisson::new(100.0).unwrap();
        let mut r = rng();
        let n = 50_000;
        let mean = (0..n).map(|_| p.sample(&mut r)).sum::<u64>() as f64 / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn normal_mean_zero_var_one() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| StandardNormal.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn lognormal_median() {
        let ln = LogNormal::from_median(50.0, 0.5).unwrap();
        let mut r = rng();
        let n = 100_001;
        let mut samples: Vec<f64> = (0..n).map(|_| ln.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 50.0).abs() < 2.0, "median={median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_rejects_bad_params() {
        assert!(LogNormal::new(0.0, -0.1).is_err());
        assert!(LogNormal::from_median(0.0, 0.5).is_err());
        assert!(LogNormal::from_median(-3.0, 0.5).is_err());
    }

    #[test]
    fn error_display() {
        let err = Zipf::new(0, 1.0).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("invalid distribution parameter"));
    }
}
