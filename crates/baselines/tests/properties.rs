//! Property-based tests for the shared baseline helpers.

use fed_baselines::common::pick_peers;
use fed_pubsub::EventId;
use fed_sim::NodeId;
use fed_util::hash::FastBuildHasher;
use fed_util::rng::{Rng64, Xoshiro256StarStar};
use proptest::prelude::*;
use std::hash::{BuildHasher, Hash};

/// What `pick_peers` replaces: copy the group without `me`, sample, index.
fn pick_by_copy(
    rng: &mut Xoshiro256StarStar,
    group: &[NodeId],
    me: NodeId,
    k: usize,
) -> Vec<NodeId> {
    let peers: Vec<NodeId> = group.iter().copied().filter(|&p| p != me).collect();
    let k = k.min(peers.len());
    rng.sample_indices(peers.len(), k)
        .into_iter()
        .map(|i| peers[i])
        .collect()
}

/// No low-bit bucket may hold more than four times its fair share.
fn assert_spread<K: Hash>(keys: impl Iterator<Item = K>, what: &str) {
    const BUCKETS: usize = 1024;
    let mut load = [0usize; BUCKETS];
    let mut total = 0;
    for key in keys {
        load[FastBuildHasher::default().hash_one(key) as usize % BUCKETS] += 1;
        total += 1;
    }
    let worst = load.iter().copied().max().unwrap_or(0);
    assert!(
        worst * BUCKETS <= 4 * total,
        "{what}: fullest of {BUCKETS} buckets holds {worst} of {total} keys"
    );
}

#[test]
fn consecutive_ids_spread_over_low_bit_buckets() {
    assert_spread((0..10_000).map(NodeId::new), "node ids");
    assert_spread((0..10_000).map(|s| EventId::new(7, s)), "one publisher");
    assert_spread(
        (0..10_000).map(|p| EventId::new(p, 1)),
        "one sequence number",
    );
    assert_spread(
        (0..10_000).map(|i| EventId::new(i % 100, i / 100)),
        "100 publishers × 100 events",
    );
}

proptest! {
    #[test]
    fn pick_peers_matches_sampling_a_copy_without_me(
        seed in any::<u64>(),
        members in prop::collection::btree_set(0u32..600, 0..500),
        me in 0u32..600,
        k in 0usize..12,
    ) {
        // Distinct members in ascending order (the `GroupTable`
        // invariant); `me` lands inside or outside the group as the draw
        // has it.
        let group: Vec<NodeId> = members.into_iter().map(NodeId::new).collect();
        let me = NodeId::new(me);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut reference_rng = rng.clone();
        let mut picked = vec![7; 9];
        let (peers, is_member) = pick_peers(&mut rng, &group, me, k, &mut picked);
        let peers: Vec<NodeId> = peers.collect();
        prop_assert_eq!(peers, pick_by_copy(&mut reference_rng, &group, me, k));
        prop_assert_eq!(is_member, group.contains(&me));
        prop_assert_eq!(rng, reference_rng);
    }

    #[test]
    fn pick_peers_degenerate_groups_draw_nothing(seed in any::<u64>(), k in 0usize..12) {
        let me = NodeId::new(3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let untouched = rng.clone();
        let mut picked = vec![7; 9];
        let (peers, is_member) = pick_peers(&mut rng, &[], me, k, &mut picked);
        prop_assert_eq!(peers.count(), 0);
        prop_assert!(!is_member);
        let solo = [me];
        let (peers, is_member) = pick_peers(&mut rng, &solo, me, k, &mut picked);
        prop_assert_eq!(peers.count(), 0);
        prop_assert!(is_member);
        prop_assert_eq!(rng, untouched);
    }

    #[test]
    fn equal_keys_hash_equally_across_instances(publisher in any::<u32>(), seq in any::<u32>()) {
        let id = EventId::new(publisher, seq);
        let a = FastBuildHasher::default().hash_one(id);
        let b = FastBuildHasher::default().hash_one(EventId::from_u64(id.as_u64()));
        prop_assert_eq!(a, b);
        let node = NodeId::new(publisher);
        prop_assert_eq!(
            FastBuildHasher::default().hash_one(node),
            FastBuildHasher::default().hash_one(NodeId::new(publisher))
        );
    }
}
