//! Fairness indices over per-peer quantities.
//!
//! The paper's definition (its Figures 1–3) is that a system is fair when the
//! `contribution / benefit` ratio is equal across peers. Given the vector of
//! per-peer ratios, this module quantifies *how* equal they are:
//!
//! * [`jain_index`] — Jain's fairness index, `1.0` = perfectly fair,
//!   `1/n` = maximally unfair (one peer does everything).
//! * [`gini_coefficient`] — `0.0` = perfect equality, `→1.0` = inequality.
//! * [`max_min_ratio`] — worst-peer over best-peer ratio.
//! * [`normalized_entropy`] — entropy of the share distribution.
//!
//! All functions ignore non-finite inputs and treat negative values as
//! invalid (returning the conventional degenerate result on empty input).

/// Jain's fairness index: `(Σx)² / (n · Σx²)`.
///
/// Equals `1.0` when all values are identical, `1/n` when a single value
/// carries everything. Returns `1.0` for empty or all-zero input (an empty
/// system is vacuously fair).
///
/// # Examples
///
/// ```
/// use fed_util::fairness::jain_index;
///
/// assert_eq!(jain_index(&[3.0, 3.0, 3.0]), 1.0);
/// assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
/// ```
pub fn jain_index(values: &[f64]) -> f64 {
    let vals: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if vals.is_empty() {
        return 1.0;
    }
    let sum: f64 = vals.iter().sum();
    let sq: f64 = vals.iter().map(|v| v * v).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (vals.len() as f64 * sq)
}

/// Gini coefficient of a non-negative distribution.
///
/// `0.0` means perfect equality; values approach `1.0` as one peer
/// concentrates everything. Negative inputs are clamped to zero (a
/// contribution cannot be negative). Returns `0.0` for empty or all-zero
/// input.
pub fn gini_coefficient(values: &[f64]) -> f64 {
    let mut vals: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .map(|v| v.max(0.0))
        .collect();
    let n = vals.len();
    if n == 0 {
        return 0.0;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let sum: f64 = vals.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    // G = (2 Σ_i i·x_i) / (n Σ x) - (n+1)/n  with 1-based i over sorted x.
    let weighted: f64 = vals
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n as f64 * sum) - (n as f64 + 1.0) / n as f64
}

/// Ratio of the largest to the smallest value, a "worst-case" fairness view.
///
/// Returns `1.0` for empty input and `f64::INFINITY` when the minimum is zero
/// but the maximum is not.
pub fn max_min_ratio(values: &[f64]) -> f64 {
    let vals: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if vals.is_empty() {
        return 1.0;
    }
    let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
    if min == 0.0 {
        if max == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        max / min
    }
}

/// Normalized Shannon entropy of the share distribution `x_i / Σx`.
///
/// `1.0` means every peer holds an equal share; `0.0` means one peer holds
/// everything. Returns `1.0` for empty, single-element, or all-zero input.
pub fn normalized_entropy(values: &[f64]) -> f64 {
    let vals: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    let n_total = values.iter().filter(|v| v.is_finite()).count();
    if n_total <= 1 {
        return 1.0;
    }
    let sum: f64 = vals.iter().sum();
    if sum == 0.0 {
        return 1.0;
    }
    let h: f64 = vals
        .iter()
        .map(|&x| {
            let p = x / sum;
            -p * p.ln()
        })
        .sum();
    h / (n_total as f64).ln()
}

/// A compact, displayable bundle of every fairness index over one vector.
///
/// This is what experiment tables print per system/configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FairnessReport {
    /// Jain's index in `(0, 1]`.
    pub jain: f64,
    /// Gini coefficient in `[0, 1)`.
    pub gini: f64,
    /// Max/min ratio in `[1, ∞]`.
    pub max_min: f64,
    /// Normalized entropy in `[0, 1]`.
    pub entropy: f64,
    /// Number of peers measured.
    pub n: usize,
    /// Mean of the measured values.
    pub mean: f64,
}

impl FairnessReport {
    /// Computes every index over `values`.
    pub fn from_values(values: &[f64]) -> Self {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        let mean = if finite.is_empty() {
            0.0
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        };
        FairnessReport {
            jain: jain_index(values),
            gini: gini_coefficient(values),
            max_min: max_min_ratio(values),
            entropy: normalized_entropy(values),
            n: finite.len(),
            mean,
        }
    }
}

impl std::fmt::Display for FairnessReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "jain={:.4} gini={:.4} max/min={:.2} entropy={:.4} (n={}, mean={:.3})",
            self.jain, self.gini, self.max_min, self.entropy, self.n, self.mean
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_perfect_fairness() {
        assert_eq!(jain_index(&[5.0; 10]), 1.0);
    }

    #[test]
    fn jain_single_contributor() {
        let mut v = vec![0.0; 9];
        v.push(10.0);
        assert!((jain_index(&v) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn jain_empty_and_zero() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_is_scale_invariant() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((jain_index(&a) - jain_index(&b)).abs() < 1e-12);
    }

    #[test]
    fn gini_equality_and_concentration() {
        assert_eq!(gini_coefficient(&[4.0; 8]), 0.0);
        let mut v = vec![0.0; 99];
        v.push(1.0);
        let g = gini_coefficient(&v);
        assert!(g > 0.95, "g={g}");
    }

    #[test]
    fn gini_known_value() {
        // For [1, 2, 3, 4]: G = (2*(1*1+2*2+3*3+4*4))/(4*10) - 5/4 = 60/40 - 1.25 = 0.25
        let g = gini_coefficient(&[1.0, 2.0, 3.0, 4.0]);
        assert!((g - 0.25).abs() < 1e-12, "g={g}");
    }

    #[test]
    fn gini_empty_and_negative() {
        assert_eq!(gini_coefficient(&[]), 0.0);
        assert_eq!(gini_coefficient(&[0.0, 0.0]), 0.0);
        // negatives are clamped
        let g = gini_coefficient(&[-1.0, 1.0]);
        assert!(g > 0.0);
    }

    #[test]
    fn max_min_basic() {
        assert_eq!(max_min_ratio(&[2.0, 8.0]), 4.0);
        assert_eq!(max_min_ratio(&[3.0, 3.0]), 1.0);
        assert_eq!(max_min_ratio(&[]), 1.0);
        assert_eq!(max_min_ratio(&[0.0, 0.0]), 1.0);
        assert_eq!(max_min_ratio(&[0.0, 5.0]), f64::INFINITY);
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(normalized_entropy(&[1.0; 16]), 1.0);
        let mut v = vec![0.0; 15];
        v.push(1.0);
        assert_eq!(normalized_entropy(&v), 0.0);
        assert_eq!(normalized_entropy(&[]), 1.0);
        assert_eq!(normalized_entropy(&[7.0]), 1.0);
    }

    #[test]
    fn entropy_monotone_in_skew() {
        let even = normalized_entropy(&[1.0, 1.0, 1.0, 1.0]);
        let skew = normalized_entropy(&[10.0, 1.0, 1.0, 1.0]);
        let worse = normalized_entropy(&[100.0, 1.0, 1.0, 1.0]);
        assert!(even > skew && skew > worse);
    }

    #[test]
    fn report_aggregates_and_displays() {
        let r = FairnessReport::from_values(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(r.jain, 1.0);
        assert_eq!(r.gini, 0.0);
        assert_eq!(r.max_min, 1.0);
        assert_eq!(r.n, 4);
        assert_eq!(r.mean, 1.0);
        let s = format!("{r}");
        assert!(s.contains("jain=1.0000"));
        assert!(s.contains("n=4"));
    }

    #[test]
    fn report_ignores_non_finite() {
        let r = FairnessReport::from_values(&[1.0, f64::NAN, 3.0]);
        assert_eq!(r.n, 2);
        assert_eq!(r.mean, 2.0);
    }

    #[test]
    fn indices_agree_on_direction() {
        // As inequality rises, jain falls, gini rises.
        let fair = [5.0, 5.0, 5.0, 5.0];
        let unfair = [17.0, 1.0, 1.0, 1.0];
        assert!(jain_index(&fair) > jain_index(&unfair));
        assert!(gini_coefficient(&fair) < gini_coefficient(&unfair));
        assert!(max_min_ratio(&fair) < max_min_ratio(&unfair));
    }
}
