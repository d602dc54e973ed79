//! Streaming and batch statistics.
//!
//! [`OnlineStats`] accumulates mean/variance/extrema in one pass (Welford's
//! algorithm); [`Summary`] computes batch percentiles. Fairness-specific
//! indices (Jain, Gini, …) live in [`crate::fairness`].

/// One-pass accumulator for count, mean, variance, min and max.
///
/// Uses Welford's numerically stable update. `Default` starts empty.
///
/// # Examples
///
/// ```
/// use fed_util::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// Non-finite values are ignored (they would poison every aggregate).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of (finite) observations.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Returns `true` if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Batch summary with exact percentiles.
///
/// Construction sorts a copy of the data (`O(n log n)`); queries are `O(1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    stats: OnlineStats,
}

impl Summary {
    /// Builds a summary from any iterator of values.
    ///
    /// Non-finite values are dropped.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut sorted: Vec<f64> = values.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let stats = sorted.iter().copied().collect();
        Summary { sorted, stats }
    }

    /// Number of retained values.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if no values were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The one-pass statistics over the same data.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Mean of the values; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Percentile in `[0, 100]` by the nearest-rank method.
    ///
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or NaN.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.sorted.is_empty() {
            return None;
        }
        if p == 0.0 {
            return self.sorted.first().copied();
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        Some(self.sorted[rank.saturating_sub(1).min(self.sorted.len() - 1)])
    }

    /// The median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Smallest value.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest value.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Summary::from_values(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_empty() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_known_values() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_ignores_non_finite() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(3.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn online_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: OnlineStats = data.iter().copied().collect();
        let mut a: OnlineStats = data[..37].iter().copied().collect();
        let b: OnlineStats = data[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.len(), seq.len());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn online_merge_with_empty() {
        let mut a = OnlineStats::new();
        let b: OnlineStats = [1.0, 2.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 2);
        let mut c: OnlineStats = [1.0, 2.0].into_iter().collect();
        c.merge(&OnlineStats::new());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn summary_percentiles() {
        let s = Summary::from_values((1..=100).map(|i| i as f64));
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn summary_empty() {
        let s = Summary::from_values(std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.median(), None);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::from_values([7.5]);
        assert_eq!(s.percentile(0.0), Some(7.5));
        assert_eq!(s.percentile(100.0), Some(7.5));
        assert_eq!(s.mean(), 7.5);
    }

    #[test]
    fn summary_drops_non_finite() {
        let s = Summary::from_values([1.0, f64::NAN, 2.0, f64::NEG_INFINITY]);
        assert_eq!(s.len(), 2);
        assert_eq!((s.min(), s.max()), (Some(1.0), Some(2.0)));
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn summary_rejects_bad_percentile() {
        let s = Summary::from_values([1.0]);
        let _ = s.percentile(101.0);
    }
}
