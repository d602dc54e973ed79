//! Property-based tests for fed-util invariants.

use fed_util::dist::{Exponential, Zipf};
use fed_util::fairness::{gini_coefficient, jain_index, max_min_ratio, normalized_entropy};
use fed_util::rng::{Rng64, SplitMix64, Xoshiro256StarStar};
use fed_util::stats::{OnlineStats, Summary};
use proptest::prelude::*;

/// `Rng64::sample_indices` as it was before it wrapped
/// `sample_indices_into`: a fresh `Vec` per call (two on the sparse walk).
fn sample_indices_by_value<R: Rng64>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    if n > 4096 && k * 8 < n {
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = rng.range_usize(j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        rng.shuffle(&mut chosen);
        return chosen;
    }
    if k * k <= n {
        let mut displaced: Vec<(usize, usize)> = Vec::with_capacity(k);
        let mut picked = Vec::with_capacity(k);
        for i in 0..k {
            let j = i + rng.range_usize(n - i);
            let at_i = displaced.iter().find(|d| d.0 == i).map_or(i, |d| d.1);
            match displaced.iter_mut().find(|d| d.0 == j) {
                Some(slot) => picked.push(std::mem::replace(&mut slot.1, at_i)),
                None => {
                    picked.push(j);
                    if j != i {
                        displaced.push((j, at_i));
                    }
                }
            }
        }
        return picked;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.range_usize(n - i);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

proptest! {
    #[test]
    fn rng_range_always_below_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(rng.range_u64(bound) < bound);
        }
    }

    #[test]
    fn rng_f64_in_unit_interval(seed in any::<u64>()) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        for _ in 0..64 {
            let x = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn rng_same_seed_same_stream(seed in any::<u64>()) {
        let mut a = Xoshiro256StarStar::seed_from_u64(seed);
        let mut b = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in prop::collection::vec(0u32..100, 0..64)) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut original = v.clone();
        rng.shuffle(&mut v);
        original.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(original, v);
    }

    #[test]
    fn sample_indices_distinct(seed in any::<u64>(), n in 0usize..300, k in 0usize..350) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let s = rng.sample_indices(n, k);
        prop_assert_eq!(s.len(), k.min(n));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), s.len());
        prop_assert!(s.iter().all(|&i| i < n));
    }

    #[test]
    fn sample_indices_matches_dense_fisher_yates(
        seed in any::<u64>(),
        n in 0usize..=4096,
        extra in 0usize..=4099,
    ) {
        // k ≤ n + 3 covers k = 0, both sides of the sparse/dense choice
        // and k ≥ n; the generator must end in the same state too.
        let k = extra % (n + 4);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut reference_rng = rng.clone();
        let picked = rng.sample_indices(n, k);
        let mut idx: Vec<usize> = (0..n).collect();
        let take = k.min(n);
        for i in 0..take {
            let j = i + reference_rng.range_usize(n - i);
            idx.swap(i, j);
        }
        idx.truncate(take);
        prop_assert_eq!(picked, idx);
        prop_assert_eq!(rng, reference_rng);
    }

    /// Floyd (`n > 4096`, `k < n / 8`), the sparse walk (`k² ≤ n`) and the
    /// dense walk all draw and pick as the by-value form did, whether the
    /// buffer is fresh or reused dirty from a previous, larger sample.
    #[test]
    fn sample_indices_into_matches_the_by_value_sample(
        seed in any::<u64>(),
        n in prop_oneof![0usize..64, 64usize..4_200, 4_097usize..20_000],
        k in prop_oneof![0usize..8, 0usize..200, 0usize..3_000],
        dirt in prop::collection::vec(any::<usize>(), 0..300),
    ) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let want = sample_indices_by_value(&mut rng.clone(), n, k);
        let mut wrapped_rng = rng.clone();
        prop_assert_eq!(wrapped_rng.sample_indices(n, k), want.clone());
        let mut buffer = dirt;
        rng.sample_indices_into(n, k, &mut buffer);
        prop_assert_eq!(&buffer, &want);
        // Again into the now-used buffer, from where the first left off.
        let mut reference_rng = rng.clone();
        let again = sample_indices_by_value(&mut reference_rng, n, k / 2 + 1);
        rng.sample_indices_into(n, k / 2 + 1, &mut buffer);
        prop_assert_eq!(buffer, again);
        prop_assert_eq!(rng, reference_rng);
    }

    #[test]
    fn zipf_samples_in_range(seed in any::<u64>(), n in 1usize..200, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn zipf_pmf_normalized(n in 1usize..200, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s).unwrap();
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exponential_non_negative(seed in any::<u64>(), lambda in 0.001f64..100.0) {
        let e = Exponential::new(lambda).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..32 {
            let x = e.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    #[test]
    fn jain_in_bounds(values in prop::collection::vec(0.0f64..1e6, 1..100)) {
        let j = jain_index(&values);
        let n = values.len() as f64;
        prop_assert!(j <= 1.0 + 1e-9);
        prop_assert!(j >= 1.0 / n - 1e-9);
    }

    #[test]
    fn gini_in_bounds(values in prop::collection::vec(0.0f64..1e6, 1..100)) {
        let g = gini_coefficient(&values);
        prop_assert!((-1e-9..=1.0).contains(&g));
    }

    #[test]
    fn entropy_in_bounds(values in prop::collection::vec(0.0f64..1e6, 2..100)) {
        let h = normalized_entropy(&values);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&h));
    }

    #[test]
    fn max_min_at_least_one(values in prop::collection::vec(0.1f64..1e6, 1..100)) {
        prop_assert!(max_min_ratio(&values) >= 1.0 - 1e-12);
    }

    #[test]
    fn indices_perfect_on_constant(x in 0.1f64..1e6, n in 1usize..64) {
        let v = vec![x; n];
        prop_assert!((jain_index(&v) - 1.0).abs() < 1e-9);
        prop_assert!(gini_coefficient(&v).abs() < 1e-9);
        prop_assert!((max_min_ratio(&v) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn online_stats_match_naive(values in prop::collection::vec(-1e4f64..1e4, 1..200)) {
        let s: OnlineStats = values.iter().copied().collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / values.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6);
        prop_assert!((s.variance() - var).abs() < 1e-4);
    }

    #[test]
    fn online_merge_associative(
        a in prop::collection::vec(-1e4f64..1e4, 0..50),
        b in prop::collection::vec(-1e4f64..1e4, 0..50),
    ) {
        let mut merged: OnlineStats = a.iter().copied().collect();
        let sb: OnlineStats = b.iter().copied().collect();
        merged.merge(&sb);
        let joint: OnlineStats = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged.len(), joint.len());
        prop_assert!((merged.mean() - joint.mean()).abs() < 1e-6);
        prop_assert!((merged.variance() - joint.variance()).abs() < 1e-3);
    }

    #[test]
    fn summary_percentiles_monotone(values in prop::collection::vec(-1e4f64..1e4, 1..200)) {
        let s = Summary::from_values(values);
        let p25 = s.percentile(25.0).unwrap();
        let p50 = s.percentile(50.0).unwrap();
        let p75 = s.percentile(75.0).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p75);
        prop_assert!(s.min().unwrap() <= p25);
        prop_assert!(p75 <= s.max().unwrap());
    }
}
