//! A fixed-key hasher for maps keyed by simulator-generated ids.
//!
//! Event, node and topic ids are small integers the simulator itself hands
//! out, and every protocol handler probes a map keyed by one of them per
//! received event. std's default SipHash spends most of that probe guarding
//! against keys crafted to collide — a threat that does not exist for ids
//! the program generates. [`FastHasher`] replaces it with one
//! rotate-xor-multiply per written word.
//!
//! Use [`FastMap`] / [`FastSet`] for id keys only. Maps keyed by strings
//! read from scenario files keep the default hasher: that input comes from
//! outside the program. Iteration order of these collections is fixed for
//! a given insertion history (the key never changes), but it is still not
//! a meaningful order — sort before anything observable depends on it.
//!
//! ```
//! use fed_util::hash::FastSet;
//!
//! let mut seen: FastSet<u64> = FastSet::default();
//! assert!(seen.insert(7));
//! assert!(!seen.insert(7));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the 64-bit golden-ratio constant).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Rotate-xor-multiply hasher with a fixed key. Not DoS resistant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A multiply pushes entropy towards the high bits, while the table
        // picks its bucket from the low ones: rotate the best bits down.
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` producing [`FastHasher`]s.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` over [`FastHasher`]; build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` over [`FastHasher`]; build with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equally_and_order_matters() {
        assert_eq!(hash_of((3u32, 9u32)), hash_of((3u32, 9u32)));
        assert_ne!(hash_of((3u32, 9u32)), hash_of((9u32, 3u32)));
        assert_ne!(hash_of(0u64), hash_of(1u64));
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(hash_of("topic/a"), hash_of(String::from("topic/a")));
        assert_ne!(hash_of("topic/a"), hash_of("topic/b"));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
    }

    #[test]
    fn map_and_set_behave_like_std() {
        let mut m: FastMap<u32, &str> = FastMap::default();
        m.insert(1, "a");
        m.insert(1, "b");
        assert_eq!(m.get(&1), Some(&"b"));
        assert_eq!(m.len(), 1);
        let s: FastSet<u32> = (0..100).collect();
        assert_eq!(s.len(), 100);
        assert!(s.contains(&99) && !s.contains(&100));
    }
}
