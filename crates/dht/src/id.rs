//! Ring identifiers and digit arithmetic.
//!
//! Pastry assigns every node a 128-bit id interpreted in base `2^b`; we use
//! 64-bit ids with `b = 4` (16 hexadecimal digits), which preserves the
//! routing structure — `O(log_16 n)` hops via longest-prefix matching —
//! at the scales the experiments simulate (`n <= 10^5`).

use std::fmt;

/// Number of bits per digit (`b` in Pastry terms).
pub const DIGIT_BITS: u32 = 4;
/// Number of digits in an id.
pub const NUM_DIGITS: usize = (64 / DIGIT_BITS) as usize;
/// Number of distinct digit values (`2^b`).
pub const DIGIT_BASE: usize = 1 << DIGIT_BITS;

/// A position on the 64-bit identifier ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DhtId(u64);

impl DhtId {
    /// Wraps a raw 64-bit value.
    pub const fn new(v: u64) -> Self {
        DhtId(v)
    }

    /// Derives an id by hashing arbitrary bytes (FNV-1a then SplitMix64
    /// finalizer — deterministic across platforms).
    pub fn hash_of(bytes: &[u8]) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Finalize for avalanche.
        let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        DhtId(z ^ (z >> 31))
    }

    /// Derives a node's ring id from its dense index.
    pub fn of_node_index(index: usize) -> Self {
        DhtId::hash_of(&(index as u64).to_le_bytes())
    }

    /// Derives the ring id of a topic (for rendezvous placement).
    pub fn of_topic(topic_index: usize) -> Self {
        let mut bytes = [0u8; 14];
        bytes[..6].copy_from_slice(b"topic:");
        bytes[6..].copy_from_slice(&(topic_index as u64).to_le_bytes());
        DhtId::hash_of(&bytes)
    }

    /// Raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The `i`-th digit, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_DIGITS`.
    pub fn digit(self, i: usize) -> usize {
        assert!(i < NUM_DIGITS, "digit index out of range");
        let shift = 64 - DIGIT_BITS as usize * (i + 1);
        ((self.0 >> shift) & (DIGIT_BASE as u64 - 1)) as usize
    }

    /// Length of the common digit prefix with `other` (0..=NUM_DIGITS).
    pub fn shared_prefix_len(self, other: DhtId) -> usize {
        let x = self.0 ^ other.0;
        if x == 0 {
            return NUM_DIGITS;
        }
        (x.leading_zeros() / DIGIT_BITS) as usize
    }

    /// Absolute ring distance to `other` (minimum of the two directions).
    pub fn ring_distance(self, other: DhtId) -> u64 {
        let d = self.0.wrapping_sub(other.0);
        let e = other.0.wrapping_sub(self.0);
        d.min(e)
    }
}

impl fmt::Display for DhtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl From<u64> for DhtId {
    fn from(v: u64) -> Self {
        DhtId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_extract_hex() {
        let id = DhtId::new(0x0123_4567_89AB_CDEF);
        for (i, want) in (0..16).zip(0..16) {
            assert_eq!(id.digit(i), want);
        }
    }

    #[test]
    #[should_panic(expected = "digit index out of range")]
    fn digit_out_of_range() {
        let _ = DhtId::new(0).digit(16);
    }

    #[test]
    fn shared_prefix() {
        let a = DhtId::new(0xABCD_0000_0000_0000);
        let b = DhtId::new(0xABCE_0000_0000_0000);
        assert_eq!(a.shared_prefix_len(b), 3);
        assert_eq!(a.shared_prefix_len(a), NUM_DIGITS);
        let c = DhtId::new(0x1BCD_0000_0000_0000);
        assert_eq!(a.shared_prefix_len(c), 0);
    }

    #[test]
    fn ring_distance_is_symmetric_and_wraps() {
        let a = DhtId::new(5);
        let b = DhtId::new(u64::MAX - 4);
        assert_eq!(a.ring_distance(b), 10);
        assert_eq!(b.ring_distance(a), 10);
        assert_eq!(a.ring_distance(a), 0);
        assert_eq!(
            DhtId::new(0).ring_distance(DhtId::new(u64::MAX / 2)),
            u64::MAX / 2
        );
    }

    #[test]
    fn hashing_is_deterministic_and_spread() {
        let a = DhtId::of_node_index(1);
        let b = DhtId::of_node_index(1);
        let c = DhtId::of_node_index(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(DhtId::of_topic(1), DhtId::of_node_index(1));
        // crude avalanche check: consecutive indices land far apart
        let mut min_dist = u64::MAX;
        for i in 0..100usize {
            let d = DhtId::of_node_index(i).ring_distance(DhtId::of_node_index(i + 1));
            min_dist = min_dist.min(d);
        }
        assert!(min_dist > 1 << 32, "min consecutive distance {min_dist}");
    }

    /// Every Scribe/DKS rendezvous is a function of these: a change to
    /// either derivation moves every tree.
    #[test]
    fn derived_ids_are_pinned() {
        let topics = [
            0x2b0f_1abb_5cf2_aa44,
            0xfaf9_739d_cd16_a73f,
            0x337f_3d77_46ba_ecc2,
            0x3e2d_e60a_ff2f_3833,
        ];
        let nodes = [
            0x9b94_1466_0d47_f040,
            0x238c_373b_d24a_664f,
            0xebe2_7bef_8518_eaf4,
            0xbc02_f4db_e240_5c65u64,
        ];
        for i in 0..4 {
            assert_eq!(DhtId::of_topic(i).as_u64(), topics[i], "topic {i}");
            assert_eq!(DhtId::of_node_index(i).as_u64(), nodes[i], "node {i}");
        }
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", DhtId::new(0xFF)), "00000000000000ff");
        assert_eq!(DhtId::from(7u64).as_u64(), 7);
    }
}
