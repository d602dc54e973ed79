//! Pastry-style routing state: prefix routing table plus leaf set.
//!
//! Routing tables here are built offline from global knowledge rather than
//! through Pastry's join protocol — the Scribe fairness baseline only needs
//! the *structure* of the routes (who forwards for whom), not the join
//! dynamics. This substitution is recorded in the crate docs
//! ([`crate`]) and under *Invariants* in `docs/ARCHITECTURE.md`.
//!
//! No node owns a table: [`RoutingState`] is a view of one node's share
//! of the index [`DhtNetwork`] holds for the whole population.

use crate::id::{DhtId, NUM_DIGITS};
use crate::network::DhtNetwork;
use std::fmt;

/// Identifies a node by dense index together with its ring id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhtNode {
    /// Dense node index (matches `fed_sim::NodeId`).
    pub index: usize,
    /// Ring position.
    pub id: DhtId,
}

/// One node's Pastry routing state, read from the network's shared index.
#[derive(Clone, Copy)]
pub struct RoutingState<'a> {
    me: DhtNode,
    net: &'a DhtNetwork,
}

impl<'a> RoutingState<'a> {
    /// The view of node `me`, which must be a node of `net`.
    pub(crate) fn new(me: DhtNode, net: &'a DhtNetwork) -> Self {
        RoutingState { me, net }
    }

    /// This node.
    pub fn me(&self) -> DhtNode {
        self.me
    }

    /// The leaf set (numerically closest peers): ring successors nearest
    /// first, then ring predecessors nearest first.
    pub fn leaf_set(&self) -> impl Iterator<Item = DhtNode> + 'a {
        self.net.leaf_set(self.me.index)
    }

    /// The routing-table entry at `(row, col)`: a node whose id shares
    /// `row` digits with ours and has digit `col` at position `row`.
    pub fn table_entry(&self, row: usize, col: usize) -> Option<DhtNode> {
        self.net.table_entry(self.me.index, row, col)
    }

    /// Filled table slots, rows ascending then columns ascending.
    fn table(&self) -> impl Iterator<Item = DhtNode> + 'a {
        self.net.table(self.me.index)
    }

    /// Chooses the next hop toward `key`, or `None` when this node is
    /// closer to `key` than every node it knows (i.e. it is the root).
    ///
    /// Greedy on ring distance over the union of routing-table entries and
    /// the leaf set. The prefix table provides the `O(log n)` long jumps;
    /// the two-sided leaf set (which always contains the immediate ring
    /// successor and predecessor) guarantees the greedy walk terminates at
    /// the globally closest node. Ring distance strictly decreases per hop,
    /// so routes are loop-free.
    pub fn next_hop(&self, key: DhtId) -> Option<DhtNode> {
        let my_dist = self.me.id.ring_distance(key);
        if my_dist == 0 {
            return None;
        }
        // Prefer the prefix-table entry when it makes distance progress —
        // this preserves Pastry's logarithmic hop count.
        let row = self.me.id.shared_prefix_len(key);
        if row < NUM_DIGITS {
            if let Some(node) = self.table_entry(row, key.digit(row)) {
                if node.id.ring_distance(key) < my_dist {
                    return Some(node);
                }
            }
        }
        // Otherwise: best known node strictly closer to the key.
        self.table()
            .chain(self.leaf_set())
            .filter(|n| n.id.ring_distance(key) < my_dist)
            .min_by_key(|n| (n.id.ring_distance(key), n.id))
    }
}

/// This node's share of the index, not the index.
impl fmt::Debug for RoutingState<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutingState")
            .field("me", &self.me)
            .field("table", &self.table().collect::<Vec<_>>())
            .field("leaf_set", &self.leaf_set().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for RoutingState<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routing(me={}, table_entries={}, leafs={})",
            self.me.id,
            self.table().count(),
            self.leaf_set().count()
        )
    }
}

/// The per-node `O(n)` construction the shared index is checked against:
/// it scans the whole population for every slot and sorts it for the leaf
/// set, and keeps what it finds in tables of its own.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::id::DIGIT_BASE;

    /// Per-node Pastry routing state, owned.
    #[derive(Debug, Clone)]
    pub(crate) struct RoutingState {
        me: DhtNode,
        /// `table[row][col]`: a node whose id shares `row` digits with
        /// ours and has digit `col` at position `row`.
        table: [[Option<DhtNode>; DIGIT_BASE]; NUM_DIGITS],
        /// The `l` nodes numerically closest to us on the ring
        /// (excluding us).
        leaf_set: Vec<DhtNode>,
    }

    impl RoutingState {
        /// Builds routing state for `me` from the complete node list.
        ///
        /// Deterministic: among equally valid candidates for a table slot
        /// the numerically closest id wins.
        ///
        /// # Panics
        ///
        /// Panics if `me` is not contained in `all`.
        pub(crate) fn build(me: DhtNode, all: &[DhtNode], leaf_size: usize) -> Self {
            assert!(
                all.iter().any(|n| n.index == me.index),
                "node must be part of the system"
            );
            let mut table = [[None; DIGIT_BASE]; NUM_DIGITS];
            for &node in all {
                if node.index == me.index {
                    continue;
                }
                let row = me.id.shared_prefix_len(node.id);
                if row >= NUM_DIGITS {
                    continue; // duplicate id (hash collision): unusable for prefix routing
                }
                let col = node.id.digit(row);
                let slot: &mut Option<DhtNode> = &mut table[row][col];
                let better = match slot {
                    None => true,
                    Some(existing) => {
                        node.id.ring_distance(me.id) < existing.id.ring_distance(me.id)
                    }
                };
                if better {
                    *slot = Some(node);
                }
            }
            // Two-sided leaf set (as in Pastry): the leaf_size/2 nearest ring
            // successors and the leaf_size/2 nearest predecessors. Having both
            // immediate neighbours guarantees greedy routing converges to the
            // globally closest node.
            let half = (leaf_size / 2).max(1);
            let mut by_cw: Vec<DhtNode> = all
                .iter()
                .copied()
                .filter(|n| n.index != me.index)
                .collect();
            by_cw.sort_by_key(|n| n.id.as_u64().wrapping_sub(me.id.as_u64()));
            let successors: Vec<DhtNode> = by_cw.iter().copied().take(half).collect();
            let predecessors: Vec<DhtNode> = by_cw.iter().rev().copied().take(half).collect();
            let mut leaf_set = successors;
            for p in predecessors {
                if !leaf_set.iter().any(|n| n.index == p.index) {
                    leaf_set.push(p);
                }
            }
            RoutingState {
                me,
                table,
                leaf_set,
            }
        }

        pub(crate) fn me(&self) -> DhtNode {
            self.me
        }

        pub(crate) fn leaf_set(&self) -> &[DhtNode] {
            &self.leaf_set
        }

        pub(crate) fn table_entry(&self, row: usize, col: usize) -> Option<DhtNode> {
            self.table
                .get(row)
                .and_then(|r| r.get(col))
                .copied()
                .flatten()
        }

        /// Same rule as the view's: the prefix entry when it makes
        /// progress, else the closest known node that does.
        pub(crate) fn next_hop(&self, key: DhtId) -> Option<DhtNode> {
            let my_dist = self.me.id.ring_distance(key);
            if my_dist == 0 {
                return None;
            }
            let row = self.me.id.shared_prefix_len(key);
            if row < NUM_DIGITS {
                let col = key.digit(row);
                if let Some(node) = self.table[row][col] {
                    if node.id.ring_distance(key) < my_dist {
                        return Some(node);
                    }
                }
            }
            self.table
                .iter()
                .flatten()
                .flatten()
                .chain(self.leaf_set.iter())
                .copied()
                .filter(|n| n.id.ring_distance(key) < my_dist)
                .min_by_key(|n| (n.id.ring_distance(key), n.id))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::DIGIT_BASE;

    fn nodes(n: usize) -> Vec<DhtNode> {
        (0..n)
            .map(|i| DhtNode {
                index: i,
                id: DhtId::of_node_index(i),
            })
            .collect()
    }

    #[test]
    fn build_populates_table_and_leafs() {
        let net = DhtNetwork::build_with_leaf_size(64, 8);
        let st = net.state_of(0).unwrap();
        assert_eq!(st.me().index, 0);
        assert_eq!(st.leaf_set().count(), 8);
        // Row 0 should be well populated with 64 nodes and 16 columns.
        let row0 = (0..DIGIT_BASE)
            .filter(|&c| st.table_entry(0, c).is_some())
            .count();
        assert!(row0 >= 12, "row0 filled {row0}/16");
        // No entry may be ourselves.
        for row in 0..NUM_DIGITS {
            for col in 0..DIGIT_BASE {
                if let Some(e) = st.table_entry(row, col) {
                    assert_ne!(e.index, 0);
                    assert_eq!(e.id.shared_prefix_len(st.me().id), row);
                    assert_eq!(e.id.digit(row), col);
                }
            }
        }
        assert_eq!(st.table_entry(NUM_DIGITS, 0), None);
        assert_eq!(st.table_entry(0, DIGIT_BASE), None);
    }

    #[test]
    #[should_panic(expected = "part of the system")]
    fn build_rejects_foreign_node() {
        let all = nodes(4);
        let stranger = DhtNode {
            index: 99,
            id: DhtId::new(42),
        };
        let _ = oracle::RoutingState::build(stranger, &all, 4);
    }

    #[test]
    fn leaf_set_contains_ring_neighbours() {
        let all = nodes(32);
        let me = all[5];
        let net = DhtNetwork::build_with_leaf_size(32, 6);
        let st = net.state_of(5).unwrap();
        let succ = all
            .iter()
            .filter(|n| n.index != 5)
            .min_by_key(|n| n.id.as_u64().wrapping_sub(me.id.as_u64()))
            .unwrap();
        let pred = all
            .iter()
            .filter(|n| n.index != 5)
            .min_by_key(|n| me.id.as_u64().wrapping_sub(n.id.as_u64()))
            .unwrap();
        let leaf_idx: Vec<usize> = st.leaf_set().map(|n| n.index).collect();
        assert!(leaf_idx.contains(&succ.index), "successor in leaf set");
        assert!(leaf_idx.contains(&pred.index), "predecessor in leaf set");
        assert!(leaf_idx.len() <= 6);
    }

    #[test]
    fn next_hop_strictly_approaches_key() {
        let all = nodes(128);
        let net = DhtNetwork::build_with_leaf_size(128, 8);
        let key = DhtId::of_topic(7);
        for start in 0..all.len() {
            let mut cur = start;
            let mut hops = 0;
            while let Some(next) = net.state_of(cur).unwrap().next_hop(key) {
                assert!(
                    next.id.ring_distance(key) < all[cur].id.ring_distance(key),
                    "hop must strictly decrease ring distance"
                );
                cur = next.index;
                hops += 1;
                assert!(hops <= 64, "routing loop from {start}");
            }
        }
    }

    #[test]
    fn all_routes_converge_to_same_root() {
        let all = nodes(100);
        let net = DhtNetwork::build_with_leaf_size(100, 8);
        for t in 0..10 {
            let key = DhtId::of_topic(t);
            let mut roots = std::collections::BTreeSet::new();
            for start in 0..all.len() {
                let mut cur = start;
                while let Some(next) = net.state_of(cur).unwrap().next_hop(key) {
                    cur = next.index;
                }
                roots.insert(cur);
            }
            assert_eq!(roots.len(), 1, "topic {t} reached roots {roots:?}");
            // The root must be the globally numerically-closest node.
            let true_root = all
                .iter()
                .min_by_key(|n| (n.id.ring_distance(key), n.id))
                .unwrap();
            assert!(roots.contains(&true_root.index));
        }
    }

    #[test]
    fn display_summarizes() {
        let net = DhtNetwork::build_with_leaf_size(8, 4);
        let st = net.state_of(0).unwrap();
        let s = format!("{st}");
        assert!(s.contains("leafs=4"), "{s}");
        // Debug shows the node's own entries, not the shared index.
        let entries = format!("{st:?}").matches("index:").count();
        assert!((1 + 4..=1 + 7 + 4).contains(&entries), "{st:?}");
    }
}
