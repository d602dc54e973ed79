//! Shared helpers for the baseline dissemination systems.

use fed_sim::NodeId;
use fed_util::rng::Rng64;

/// Samples up to `k` distinct members of `group` other than `me`, and says
/// whether `me` is a member. The draw goes through `picked`, a caller-owned
/// buffer, so a node that keeps one samples without allocating.
///
/// Draw for draw what sampling from a copy of the group without `me`
/// would give, without making the copy: indices come from a range one
/// short and step over the caller's own position. `group` must be sorted
/// ascending with each node at most once (the
/// [`GroupTable`](crate::dam::GroupTable) invariant), so that position is
/// a binary search.
pub fn pick_peers<'a, R: Rng64>(
    rng: &mut R,
    group: &'a [NodeId],
    me: NodeId,
    k: usize,
    picked: &'a mut Vec<usize>,
) -> (impl Iterator<Item = NodeId> + 'a, bool) {
    let own = group.binary_search(&me).ok();
    let others = group.len() - usize::from(own.is_some());
    rng.sample_indices_into(others, k.min(others), picked);
    let peers = picked
        .iter()
        .map(move |&i| group[i + usize::from(own.is_some_and(|o| i >= o))]);
    (peers, own.is_some())
}
