//! Deterministic pseudo-random number generation.
//!
//! Every stochastic decision in the workspace flows through [`Rng64`] so that
//! an experiment seeded with the same `u64` replays the exact same trace on
//! any platform. Two generators are provided:
//!
//! * [`SplitMix64`] — tiny, used for seeding and cheap per-entity streams.
//! * [`Xoshiro256StarStar`] — the workhorse generator (period `2^256 - 1`),
//!   used by the simulator and workload generators.
//!
//! Neither generator is cryptographically secure; they are simulation-grade
//! generators chosen for speed and reproducibility.
//!
//! # Examples
//!
//! ```
//! use fed_util::rng::{Rng64, Xoshiro256StarStar};
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let a = rng.next_u64();
//! let mut rng2 = Xoshiro256StarStar::seed_from_u64(42);
//! assert_eq!(a, rng2.next_u64()); // fully deterministic
//! ```

/// A deterministic 64-bit random number source.
///
/// All derived helpers (`next_f64`, `range_u64`, `shuffle`, …) are default
/// methods expressed in terms of [`Rng64::next_u64`], so every implementor
/// automatically produces identical derived streams for identical raw
/// streams.
pub trait Rng64 {
    /// Returns the next raw 64-bit value of the stream.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    ///
    /// Uses the top 53 bits of the next raw value, the standard way of
    /// producing doubles with full mantissa entropy.
    fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0, 2^53), then scale.
        const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
        ((self.next_u64() >> 11) as f64) * SCALE
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range_u64 bound must be positive");
        // Lemire's method: unbiased and fast.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let t = bound.wrapping_neg() % bound;
            while lo < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn range_usize(&mut self, bound: usize) -> usize {
        self.range_u64(bound as u64) as usize
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64 requires lo < hi");
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Shuffles `slice` in place with the Fisher–Yates algorithm.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(i + 1);
            slice.swap(i, j);
        }
    }

    /// Returns a reference to a uniformly chosen element, or `None` if the
    /// slice is empty.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.range_usize(slice.len())])
        }
    }

    /// Samples `k` distinct indices from `[0, n)` uniformly at random.
    ///
    /// Returns fewer than `k` indices when `k > n`. Order of the returned
    /// indices is random. Uses a partial Fisher–Yates walk for `n ≤ 4096` —
    /// over a *virtual* identity array (`O(k)` time and space) when `k` is
    /// small against `n`, over a real one otherwise; both make the same
    /// draws and return the same indices — and Floyd's algorithm for large
    /// `n` with small `k`.
    fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut picked = Vec::new();
        self.sample_indices_into(n, k, &mut picked);
        picked
    }

    /// [`Rng64::sample_indices`] into a caller-owned buffer: replaces the
    /// contents of `out` with the indices it would return, from the same
    /// draws. A buffer reused across calls stops allocating once it has
    /// grown to the largest sample (to `n` on the dense walk).
    fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        out.clear();
        let k = k.min(n);
        if k == 0 {
            return;
        }
        // Floyd's algorithm when the index array would dominate.
        if n > 4096 && k * 8 < n {
            out.reserve(k);
            for j in (n - k)..n {
                let t = self.range_usize(j + 1);
                out.push(if out.contains(&t) { j } else { t });
            }
            self.shuffle(out);
            return;
        }
        // Few picks from many: the walk below touches at most k positions
        // beyond its own prefix, so keep just those (`position → value`,
        // absent = identity) instead of materialising 0..n. Position i is
        // never read again once step i is done, so only j's side of each
        // swap is stored; the scan is O(k) per step, hence the k² bound.
        // The pairs live in `out` past the k picks, flattened.
        if k * k <= n {
            out.reserve(3 * k);
            out.resize(k, 0);
            for i in 0..k {
                let j = i + self.range_usize(n - i);
                let displaced = &mut out[k..];
                let at_i = displaced
                    .chunks_exact(2)
                    .find(|d| d[0] == i)
                    .map_or(i, |d| d[1]);
                out[i] = match displaced.chunks_exact_mut(2).find(|d| d[0] == j) {
                    Some(slot) => std::mem::replace(&mut slot[1], at_i),
                    None => {
                        if j != i {
                            out.extend([j, at_i]);
                        }
                        j
                    }
                };
            }
            out.truncate(k);
            return;
        }
        out.extend(0..n);
        for i in 0..k {
            let j = i + self.range_usize(n - i);
            out.swap(i, j);
        }
        out.truncate(k);
    }

    /// Forks a new independent stream seeded from this stream.
    ///
    /// Useful to give each simulated node its own generator while preserving
    /// overall determinism.
    fn fork(&mut self) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(self.next_u64())
    }
}

/// The SplitMix64 generator (Steele, Lea, Flood 2014).
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256StarStar`], and as a cheap dedicated stream where statistical
/// quality demands are modest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng64 for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256** generator (Blackman, Vigna 2018).
///
/// Fast, equidistributed in all 64-bit sub-sequences and with period
/// `2^256 - 1`; the default generator of several language runtimes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator by expanding `seed` through [`SplitMix64`], the
    /// seeding procedure recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::seed_from_u64(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot emit
        // four zeros in a row, but guard anyway for manual construction.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Returns the raw state words (for checkpointing a simulation).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }
}

impl Rng64 for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // SplitMix64 reference implementation.
        let mut rng = SplitMix64::seed_from_u64(1234567);
        let v: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(v[0], 6457827717110365317);
        assert_eq!(v[1], 3203168211198807973);
        assert_eq!(v[2], 9817491932198370423);
    }

    #[test]
    fn xoshiro_deterministic_and_distinct_seeds() {
        let mut a = Xoshiro256StarStar::seed_from_u64(7);
        let mut b = Xoshiro256StarStar::seed_from_u64(7);
        let mut c = Xoshiro256StarStar::seed_from_u64(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn range_u64_respects_bound_and_covers() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = rng.range_u64(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn range_u64_zero_bound_panics() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let _ = rng.range_u64(0);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-0.5));
        assert!(rng.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_frequency_close_to_p() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq={freq}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<u32>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(77);
        for &(n, k) in &[
            (10usize, 3usize),
            (10, 10),
            (10, 20),
            (0, 5),
            (5000, 8),
            (8192, 4),
        ] {
            let s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k.min(n));
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), s.len(), "duplicates for n={n} k={k}");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn sample_indices_floyd_path_uniformity() {
        // Large n, small k triggers Floyd's algorithm; check rough uniformity
        // of the first index over many draws.
        let mut rng = Xoshiro256StarStar::seed_from_u64(123);
        let n = 10_000;
        let mut low = 0usize;
        let trials = 2_000;
        for _ in 0..trials {
            let s = rng.sample_indices(n, 2);
            if s[0] < n / 2 {
                low += 1;
            }
        }
        let frac = low as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Xoshiro256StarStar::seed_from_u64(2024);
        let mut a = root.fork();
        let mut b = root.fork();
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }
}
