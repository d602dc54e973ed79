//! Kernel-local dense numbering of `u64` keys, and a bitset over it.
//!
//! A protocol that must remember "have I seen key `k`?" for every node
//! pays, with a per-node hash set, one probe into a table that is cold by
//! the time the next message for that node arrives. Each [`Kernel`]
//! instead numbers the keys its nodes present densely from 0, in
//! first-sight order, in one table all of its nodes share and keep warm;
//! a node then stores its seen-set as a [`LocalIdSet`], one bit per number
//! the kernel has assigned.
//!
//! The contract: a [`LocalId`] means something only inside the kernel that
//! assigned it, and it may affect behaviour only through equality. Which
//! number a key gets depends on the order the kernel first sees keys in,
//! and that order differs between the sequential engine and every shard
//! count of the cluster — so a protocol that ordered, hashed into a draw,
//! or sent a `LocalId` would replay differently on each. The cross-engine
//! parity suites hold protocols to this.
//!
//! Memory: a [`LocalIdSet`] costs one bit per number its kernel has assigned
//! (up to the highest one the set holds), a `FastSet<u64>` ≈ 12–18 B per
//! member. The bitset is the smaller one while a node sees more than
//! about 1 % of the keys its kernel numbers.
//!
//! ```
//! use fed_sim::local_id::{LocalIdSet, LocalIds};
//!
//! let mut ids = LocalIds::default();
//! let (a, b) = (ids.id_of(0xfeed), ids.id_of(7));
//! assert_eq!(ids.id_of(0xfeed), a);
//! assert_eq!((a.index(), b.index()), (0, 1));
//!
//! let mut seen = LocalIdSet::default();
//! assert!(seen.insert(b));
//! assert!(!seen.insert(b));
//! assert!(seen.contains(b) && !seen.contains(a));
//! assert_eq!(seen.len(), 1);
//! ```
//!
//! [`Kernel`]: crate::exec::Kernel

/// A key's number in one kernel's [`LocalIds`]; see the module docs for
/// what it may and may not be used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalId(u32);

impl LocalId {
    /// The dense index: `0` for the first key the kernel numbered, `1` for
    /// the second, and so on.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Multiplier of the Fibonacci hash (2^64 / golden ratio, odd).
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slots of a fresh table (a power of two).
const INITIAL_SLOTS: usize = 64;

/// Dense numbering of `u64` keys in first-sight order.
///
/// Every kernel owns one, reached by protocols through
/// [`Context::local_id`](crate::Context::local_id). It is probed once per
/// received event, so it is an open-addressed table of `(key, id + 1)`
/// slots, linear probing from the top bits of `key × FIBONACCI`, at most
/// half full: a hit costs one multiply and, usually, one slot read, where
/// a `FastMap` reads a control group and then, dependent on it, a bucket.
/// `tests/local_ids.rs` checks it against a `FastMap` numbering.
#[derive(Debug)]
pub struct LocalIds {
    /// `(key, id + 1)`, with `id + 1 == 0` marking a free slot; the length
    /// is a power of two.
    slots: Vec<(u64, u32)>,
    /// `64 - log2(slots.len())`: the product's top bits pick the home slot.
    shift: u32,
    /// Keys numbered so far, i.e. the next id.
    assigned: u32,
}

impl Default for LocalIds {
    fn default() -> Self {
        LocalIds {
            slots: vec![(0, 0); INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            assigned: 0,
        }
    }
}

impl LocalIds {
    /// The number of `key`, assigning the next free one on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct keys are numbered.
    #[inline]
    pub fn id_of(&mut self, key: u64) -> LocalId {
        let slot = self.slot_of(key);
        match self.slots[slot].1 {
            0 => self.assign(key, slot),
            id_plus_one => LocalId(id_plus_one - 1),
        }
    }

    /// The slot holding `key`, or the free slot where it belongs.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = (key.wrapping_mul(FIBONACCI) >> self.shift) as usize;
        while self.slots[slot].1 != 0 && self.slots[slot].0 != key {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Numbers a first-seen `key` into the free slot `free`, doubling the
    /// table once it is more than half full.
    #[cold]
    fn assign(&mut self, key: u64, free: usize) -> LocalId {
        let id = self.assigned;
        self.assigned = id.checked_add(1).expect("at most u32::MAX numbered keys");
        self.slots[free] = (key, self.assigned);
        if 2 * self.assigned as usize > self.slots.len() {
            let grown = vec![(0, 0); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            self.shift -= 1;
            for (key, id_plus_one) in old.into_iter().filter(|&(_, i)| i != 0) {
                let slot = self.slot_of(key);
                self.slots[slot] = (key, id_plus_one);
            }
        }
        LocalId(id)
    }
}

/// A growable bitset of [`LocalId`]s: one bit per id up to the highest
/// one inserted.
#[derive(Debug, Clone, Default)]
pub struct LocalIdSet {
    words: Vec<u64>,
}

impl LocalIdSet {
    /// Adds `id`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, id: LocalId) -> bool {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let w = &mut self.words[word];
        let absent = *w & bit == 0;
        *w |= bit;
        absent
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: LocalId) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// How many ids the set holds (a population count over its words).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set holds no id.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}
