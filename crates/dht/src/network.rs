//! Whole-system DHT view: routes and rendezvous computation.
//!
//! [`DhtNetwork`] holds the one index every node's routing state is read
//! from and answers the two questions the Scribe baseline needs: *which node is the rendezvous
//! (root) for a key*, and *along which node path does a message travel from
//! a member to that root*. Paths are what determine fairness: every
//! interior node of a path becomes a forwarder in the multicast tree,
//! whether it is interested in the topic or not (paper §4.1).

use crate::id::{DhtId, DIGIT_BASE, DIGIT_BITS};
use crate::routing::{DhtNode, RoutingState};
use std::fmt;

/// Error raised for queries about unknown node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownNode(pub usize);

impl fmt::Display for UnknownNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown node index {}", self.0)
    }
}

impl std::error::Error for UnknownNode {}

/// Marks an empty routing-table slot.
const EMPTY: u32 = u32::MAX;

/// One routing-table row: a node index per next digit, or [`EMPTY`].
type Row = [u32; DIGIT_BASE];

/// Complete routing infrastructure over `n` nodes.
///
/// One index serves every node: ids, the ring order and one arena of
/// table rows. Leaf sets are not stored; they are runs of the ring order.
#[derive(Debug, Clone)]
pub struct DhtNetwork {
    /// Ring id by node index.
    ids: Vec<DhtId>,
    /// Node indices by ascending id, equal ids in index order.
    ring: Vec<u32>,
    /// Inverse of `ring`: each node's position on it.
    pos: Vec<u32>,
    /// Node `i` owns `rows[row_start[i]..row_start[i + 1]]`: only the rows
    /// that can hold an entry, i.e. down to the depth where the nodes
    /// sharing its prefix all share its id.
    row_start: Vec<u32>,
    rows: Vec<Row>,
    leaf_size: usize,
}

impl DhtNetwork {
    /// Default Pastry leaf-set size.
    pub const DEFAULT_LEAF_SIZE: usize = 16;

    /// Builds the network for nodes `0..n` with ids derived by hashing.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(n: usize) -> Self {
        Self::build_with_leaf_size(n, Self::DEFAULT_LEAF_SIZE)
    }

    /// Builds with an explicit leaf-set size.
    ///
    /// Every node sees exactly the table and leaf set a scan of the whole
    /// population on its behalf would find (asserted by tests against
    /// that scan). They come from one sort and one walk of the ring-sorted
    /// ids as a 16-ary digit trie, which settles a table slot by comparing
    /// two candidates; measured build times and bytes per node are in the
    /// README under *Running the baselines on the
    /// cluster engine*.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build_with_leaf_size(n: usize, leaf_size: usize) -> Self {
        Self::from_ids((0..n).map(DhtId::of_node_index).collect(), leaf_size)
    }

    /// Builds over arbitrary ids (node `i` has `ids[i]`), equal ids
    /// included.
    fn from_ids(ids: Vec<DhtId>, leaf_size: usize) -> Self {
        let n = ids.len();
        assert!(n > 0, "DHT requires at least one node");
        assert!(n < EMPTY as usize, "node indices must stay below EMPTY");
        let mut order: Vec<(u64, u32)> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| (id.as_u64(), i as u32))
            .collect();
        order.sort_unstable();
        let ring: Vec<u32> = order.iter().map(|&(_, i)| i).collect();
        let mut pos = vec![0u32; n];
        for (p, &i) in ring.iter().enumerate() {
            pos[i as usize] = p as u32;
        }

        // A node's rows end one past the longest prefix it shares with a
        // different id, and the id sharing it is a neighbour in id order.
        let mut row_start = vec![0u32; n + 1];
        let mut lo = 0;
        while lo < n {
            let id = DhtId::new(order[lo].0);
            let hi = lo + order[lo..].partition_point(|&(v, _)| v == id.as_u64());
            let rows_against = |p: usize| id.shared_prefix_len(DhtId::new(order[p].0)) + 1;
            let below = lo.checked_sub(1).map(rows_against);
            let above = (hi < n).then(|| rows_against(hi));
            let depth = below.max(above).unwrap_or(0);
            for &(_, i) in &order[lo..hi] {
                row_start[i as usize + 1] = depth as u32;
            }
            lo = hi;
        }
        let mut total = 0u32;
        for start in &mut row_start[1..] {
            total = total
                .checked_add(*start)
                .expect("table rows fit a u32 offset");
            *start = total;
        }
        let mut rows = vec![[EMPTY; DIGIT_BASE]; total as usize];
        Self::fill_rows(&order, 0, &row_start, &mut rows);
        DhtNetwork {
            ids,
            ring,
            pos,
            row_start,
            rows,
            leaf_size,
        }
    }

    /// Fills row `depth` of every node in `block` — a run of the ring
    /// order whose ids share their first `depth` digits — and descends
    /// into the sub-blocks the next digit splits it into.
    fn fill_rows(block: &[(u64, u32)], depth: usize, row_start: &[u32], rows: &mut [Row]) {
        if block[0].0 == block[block.len() - 1].0 {
            return; // one id left: nobody here differs at a later digit
        }
        let shift = 64 - DIGIT_BITS as usize * (depth + 1);
        let mut bounds = [block.len(); DIGIT_BASE + 1];
        let mut at = 0;
        for (col, bound) in bounds.iter_mut().enumerate().take(DIGIT_BASE) {
            *bound = at;
            at += block[at..]
                .iter()
                .take_while(|&&(v, _)| (v >> shift) as usize % DIGIT_BASE == col)
                .count();
        }
        let sub = |col: usize| &block[bounds[col]..bounds[col + 1]];

        // Seen from outside, a sub-block is an arc not containing the
        // viewer, and ring distance along such an arc has no interior
        // minimum: the slot winner (minimum ring distance, then minimum
        // index) sits at one of the arc's two ends. Equal ids are
        // adjacent and index-sorted, so the first element of an end's
        // equal-id group carries that group's tie-break winner.
        let ends: [Option<[(u64, u32); 2]>; DIGIT_BASE] = std::array::from_fn(|col| {
            let arc = sub(col);
            let last = arc.last()?.0;
            Some([arc[0], arc[arc.partition_point(|&(v, _)| v < last)]])
        });
        for own in 0..DIGIT_BASE {
            for &(my, me) in sub(own) {
                let row = &mut rows[row_start[me as usize] as usize + depth];
                let rank = |(v, i): (u64, u32)| (DhtId::new(v).ring_distance(DhtId::new(my)), i);
                for (col, end) in ends.iter().enumerate() {
                    let Some([a, b]) = *end else { continue };
                    if col != own {
                        row[col] = if rank(a) <= rank(b) { a.1 } else { b.1 };
                    }
                }
            }
        }
        for col in 0..DIGIT_BASE {
            if !sub(col).is_empty() {
                Self::fill_rows(sub(col), depth + 1, row_start, rows);
            }
        }
    }

    /// Node `index` with its id; `index` must be in range.
    pub(crate) fn node(&self, index: usize) -> DhtNode {
        DhtNode {
            index,
            id: self.ids[index],
        }
    }

    /// The stored routing-table rows of node `index`, row 0 first; rows
    /// past the end are empty.
    fn table_rows(&self, index: usize) -> &[Row] {
        &self.rows[self.row_start[index] as usize..self.row_start[index + 1] as usize]
    }

    fn entry(&self, slot: u32) -> Option<DhtNode> {
        (slot != EMPTY).then(|| self.node(slot as usize))
    }

    /// Node `index`'s routing-table entry at `(row, col)`.
    pub(crate) fn table_entry(&self, index: usize, row: usize, col: usize) -> Option<DhtNode> {
        self.entry(*self.table_rows(index).get(row)?.get(col)?)
    }

    /// Node `index`'s filled table slots, rows ascending then columns
    /// ascending.
    pub(crate) fn table(&self, index: usize) -> impl Iterator<Item = DhtNode> + '_ {
        self.table_rows(index)
            .iter()
            .flatten()
            .filter_map(|&slot| self.entry(slot))
    }

    /// The two-sided leaf set of node `index` (as in Pastry): up to
    /// `leaf_size / 2` nearest ring successors, then as many nearest
    /// predecessors not already listed. Having both immediate neighbours
    /// guarantees greedy routing converges to the globally closest node.
    /// Nodes sharing our id have ring distance zero and lead the
    /// successors in index order.
    pub(crate) fn leaf_set(&self, index: usize) -> impl Iterator<Item = DhtNode> + '_ {
        let ring = &self.ring;
        let len = ring.len();
        let at = self.pos[index] as usize;
        let twin = |i: &&u32| self.ids[**i as usize] == self.ids[index];
        let group_lo = at - ring[..at].iter().rev().take_while(twin).count();
        let group_hi = at + ring[at..].iter().take_while(twin).count();
        let outside = len - (group_hi - group_lo);
        let half = (self.leaf_size / 2).max(1);
        let twins = (group_hi - group_lo - 1).min(half);
        let after = (half - twins).min(outside);
        let before = half.min(outside - after);
        ring[group_lo..group_hi]
            .iter()
            .copied()
            .filter(move |&i| i as usize != index)
            .take(twins)
            .chain((0..after).map(move |k| ring[(group_hi + k) % len]))
            .chain((1..=before).map(move |k| ring[(group_lo + len - k) % len]))
            .map(|i| self.node(i as usize))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Always `false` (empty networks are rejected at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The ring id of node `index`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNode`] when out of range.
    pub fn id_of(&self, index: usize) -> Result<DhtId, UnknownNode> {
        self.ids.get(index).copied().ok_or(UnknownNode(index))
    }

    /// Routing state of node `index`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNode`] when out of range.
    pub fn state_of(&self, index: usize) -> Result<RoutingState<'_>, UnknownNode> {
        if index >= self.ids.len() {
            return Err(UnknownNode(index));
        }
        Ok(RoutingState::new(self.node(index), self))
    }

    /// The node numerically closest to `key` — the rendezvous/root.
    ///
    /// Among nodes sharing the closest id the lowest index is the root.
    pub fn root_of(&self, key: DhtId) -> DhtNode {
        // The closest id is the key's successor or predecessor in ring
        // order; each id's first node on the ring is its lowest index.
        let len = self.ring.len();
        let first_at_or_after = |id| self.ring.partition_point(|&i| self.ids[i as usize] < id);
        let above = first_at_or_after(key) % len;
        let below = first_at_or_after(self.ids[self.ring[(above + len - 1) % len] as usize]);
        [above, below]
            .map(|p| self.node(self.ring[p] as usize))
            .into_iter()
            .min_by_key(|n| (n.id.ring_distance(key), n.id))
            .expect("two candidates")
    }

    /// The full node-index path from `start` to the root of `key`,
    /// inclusive of both endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNode`] if `start` is out of range.
    ///
    /// # Panics
    ///
    /// Panics if routing fails to converge within `4 * NUM_DIGITS` hops,
    /// which would indicate a broken routing invariant (covered by tests).
    pub fn route_path(&self, start: usize, key: DhtId) -> Result<Vec<usize>, UnknownNode> {
        let mut state = self.state_of(start)?;
        let mut path = vec![start];
        let budget = 4 * crate::id::NUM_DIGITS;
        for _ in 0..budget {
            match state.next_hop(key) {
                Some(next) => {
                    state = RoutingState::new(next, self);
                    path.push(next.index);
                }
                None => return Ok(path),
            }
        }
        panic!("routing did not converge from {start} to {key}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NUM_DIGITS;
    use crate::routing::oracle;
    use proptest::prelude::*;

    #[test]
    fn routes_end_at_root() {
        let net = DhtNetwork::build(200);
        for t in 0..20 {
            let key = DhtId::of_topic(t);
            let root = net.root_of(key);
            for start in (0..200).step_by(17) {
                let path = net.route_path(start, key).unwrap();
                assert_eq!(*path.first().unwrap(), start);
                assert_eq!(*path.last().unwrap(), root.index);
            }
        }
    }

    #[test]
    fn paths_are_logarithmically_short() {
        let net = DhtNetwork::build(1024);
        let key = DhtId::of_topic(3);
        let mut max_len = 0usize;
        for start in 0..1024 {
            let path = net.route_path(start, key).unwrap();
            max_len = max_len.max(path.len());
        }
        // log16(1024) = 2.5; leaf sets shorten tails. Anything <= 8 is sane.
        assert!(max_len <= 8, "max path length {max_len}");
    }

    #[test]
    fn path_has_no_cycles() {
        let net = DhtNetwork::build(300);
        for t in 0..10 {
            let key = DhtId::of_topic(t);
            for start in (0..300).step_by(23) {
                let path = net.route_path(start, key).unwrap();
                let mut sorted = path.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), path.len(), "cycle in {path:?}");
            }
        }
    }

    #[test]
    fn root_is_stable_and_closest() {
        let net = DhtNetwork::build(64);
        let key = DhtId::of_topic(0);
        let root = net.root_of(key);
        for i in 0..64 {
            let d = net.id_of(i).unwrap().ring_distance(key);
            assert!(d >= root.id.ring_distance(key));
        }
    }

    #[test]
    fn root_route_from_root_is_trivial() {
        let net = DhtNetwork::build(64);
        let key = DhtId::of_topic(5);
        let root = net.root_of(key);
        let path = net.route_path(root.index, key).unwrap();
        assert_eq!(path, vec![root.index]);
    }

    #[test]
    fn unknown_node_errors() {
        let net = DhtNetwork::build(4);
        assert_eq!(net.id_of(9), Err(UnknownNode(9)));
        assert!(net.state_of(9).is_err());
        assert_eq!(net.route_path(9, DhtId::new(1)), Err(UnknownNode(9)));
        assert_eq!(format!("{}", UnknownNode(9)), "unknown node index 9");
    }

    /// The scan the index replaces, for every node of `ids`.
    fn oracle_states(ids: &[DhtId], leaf: usize) -> Vec<oracle::RoutingState> {
        let nodes: Vec<DhtNode> = ids
            .iter()
            .enumerate()
            .map(|(index, &id)| DhtNode { index, id })
            .collect();
        nodes
            .iter()
            .map(|&me| oracle::RoutingState::build(me, &nodes, leaf))
            .collect()
    }

    fn assert_same_state(view: RoutingState<'_>, reference: &oracle::RoutingState, what: &str) {
        assert_eq!(view.me(), reference.me(), "{what}: me");
        assert_eq!(
            view.leaf_set().collect::<Vec<_>>(),
            reference.leaf_set(),
            "{what}: leaf set"
        );
        for row in 0..NUM_DIGITS {
            for col in 0..DIGIT_BASE {
                assert_eq!(
                    view.table_entry(row, col),
                    reference.table_entry(row, col),
                    "{what}: slot ({row}, {col})"
                );
            }
        }
    }

    /// Hand-built node set with duplicate ids, unsorted indices: equal-id
    /// collisions are impossible with the production hash, but the
    /// builder must not care.
    fn colliding_ids() -> Vec<DhtId> {
        [
            0x1111_0000_0000_0000,
            0x9999_0000_0000_0000,
            0x1111_0000_0000_0000, // duplicate of node 0
            0xF0F0_0000_0000_0000,
            0x9999_0000_0000_0000, // duplicate of node 1
            0x0001_0000_0000_0000,
            0x1111_0000_0000_0000, // triple of node 0
        ]
        .map(DhtId::new)
        .to_vec()
    }

    /// The trie walk must reproduce the per-node scan slot for slot —
    /// table entries, leaf sets, order and all. The scan is quadratic:
    /// past 1 000 nodes an unoptimised build compares every 29th node.
    #[test]
    fn bulk_build_matches_reference_build() {
        for n in [1usize, 2, 3, 17, 50, 333, 517, 4096] {
            let nodes: Vec<DhtNode> = (0..n)
                .map(|index| DhtNode {
                    index,
                    id: DhtId::of_node_index(index),
                })
                .collect();
            let stride = if cfg!(debug_assertions) && n > 1_000 {
                29
            } else {
                1
            };
            for leaf in [2usize, 6, 16, 64] {
                let net = DhtNetwork::build_with_leaf_size(n, leaf);
                for &me in nodes.iter().step_by(stride) {
                    let reference = oracle::RoutingState::build(me, &nodes, leaf);
                    let what = format!("n={n} leaf={leaf} node {}", me.index);
                    assert_same_state(net.state_of(me.index).unwrap(), &reference, &what);
                }
            }
        }
    }

    #[test]
    fn bulk_build_matches_reference_under_id_collisions() {
        let ids = colliding_ids();
        for leaf in [2usize, 4, 8] {
            let net = DhtNetwork::from_ids(ids.clone(), leaf);
            for (i, reference) in oracle_states(&ids, leaf).iter().enumerate() {
                let what = format!("leaf={leaf} node {i} under collisions");
                assert_same_state(net.state_of(i).unwrap(), reference, &what);
            }
        }
    }

    /// The root is what a scan of all nodes in index order finds.
    #[test]
    fn root_matches_scan_under_id_collisions() {
        let ids = colliding_ids();
        let net = DhtNetwork::from_ids(ids.clone(), 4);
        let keys = ids
            .iter()
            .flat_map(|id| [-1i64, 0, 1].map(|d| id.as_u64().wrapping_add_signed(d)))
            .chain([0, u64::MAX, 0x5555_0000_0000_0000, 0x8000_8000_0000_0000]);
        for key in keys.map(DhtId::new) {
            let scan = (0..ids.len())
                .map(|i| net.node(i))
                .min_by_key(|n| (n.id.ring_distance(key), n.id))
                .unwrap();
            assert_eq!(net.root_of(key), scan, "key {key}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every node picks the hop the scan-built state picks, also for
        /// keys on and next to a node id.
        #[test]
        fn next_hop_matches_reference(
            n in 1usize..300,
            keys in prop::collection::vec((any::<u64>(), 0usize..300, 0u8..4), 1..6),
        ) {
            let net = DhtNetwork::build(n);
            let reference = oracle_states(&net.ids, DhtNetwork::DEFAULT_LEAF_SIZE);
            for (raw, node, mode) in keys {
                let id = net.ids[node % n].as_u64();
                let key = DhtId::new(match mode {
                    0 => raw,
                    1 => id,
                    2 => id.wrapping_add(1),
                    _ => id.wrapping_sub(1),
                });
                for (i, state) in reference.iter().enumerate() {
                    prop_assert_eq!(
                        net.state_of(i).expect("in range").next_hop(key),
                        state.next_hop(key),
                        "n={} node {} key {}", n, i, key
                    );
                }
            }
        }
    }

    /// Only the rows that can hold an entry are stored, in arrays shared
    /// by all nodes: nothing is allocated per node.
    #[test]
    fn index_stays_flat_and_small() {
        let n = 30_000;
        let net = DhtNetwork::build(n);
        assert!(
            net.rows.len() <= 6 * n,
            "{} rows for {n} nodes",
            net.rows.len()
        );
        let heap = std::mem::size_of_val(&net.ids[..])
            + std::mem::size_of_val(&net.ring[..])
            + std::mem::size_of_val(&net.pos[..])
            + std::mem::size_of_val(&net.row_start[..])
            + std::mem::size_of_val(&net.rows[..]);
        assert!(heap <= 408 * n, "{} bytes per node", heap / n);
    }

    #[test]
    fn single_node_network() {
        let net = DhtNetwork::build(1);
        let key = DhtId::of_topic(1);
        assert_eq!(net.root_of(key).index, 0);
        assert_eq!(net.route_path(0, key).unwrap(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_rejected() {
        let _ = DhtNetwork::build(0);
    }
}
