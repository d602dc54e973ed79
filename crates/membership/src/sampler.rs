//! Peer sampling.
//!
//! Gossip needs `SELECTPARTICIPANTS(F)` (paper Figure 4, line 5): pick `F`
//! communication partners. The paper notes that "a uniform random selection
//! of communication partners usually requires full knowledge of the system";
//! [`FullMembership`] is that idealized oracle (every peer knows everyone).

use fed_sim::NodeId;
use fed_util::rng::Rng64;

/// A source of gossip partners; [`FullMembership`] is the one implementation.
pub trait PeerSampler {
    /// Samples up to `k` distinct peers (never the owner).
    fn sample_peers<R: Rng64>(&mut self, rng: &mut R, k: usize) -> Vec<NodeId>;
}

/// The full-knowledge oracle: samples uniformly from all `n` node ids.
///
/// This is the standard analytical assumption for push gossip; dead peers
/// are still sampled (their messages are simply lost), which matches the
/// "no failure detector" model of the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullMembership {
    owner: NodeId,
    n: usize,
}

impl FullMembership {
    /// Creates the oracle for a system of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(owner: NodeId, n: usize) -> Self {
        assert!(n > 0, "system size must be positive");
        FullMembership { owner, n }
    }
}

impl PeerSampler for FullMembership {
    fn sample_peers<R: Rng64>(&mut self, rng: &mut R, k: usize) -> Vec<NodeId> {
        if self.n <= 1 {
            return Vec::new();
        }
        // Sample from 0..n-1 and skip over the owner by shifting.
        let k = k.min(self.n - 1);
        let own = self.owner.index();
        rng.sample_indices(self.n - 1, k)
            .into_iter()
            .map(|i| {
                let idx = if i >= own { i + 1 } else { i };
                NodeId::new(idx as u32)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_util::rng::Xoshiro256StarStar;

    #[test]
    fn never_samples_self() {
        let mut m = FullMembership::new(NodeId::new(3), 10);
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for _ in 0..500 {
            let peers = m.sample_peers(&mut rng, 4);
            assert_eq!(peers.len(), 4);
            assert!(peers.iter().all(|p| *p != NodeId::new(3)));
            assert!(peers.iter().all(|p| p.index() < 10));
        }
    }

    #[test]
    fn samples_are_distinct() {
        let mut m = FullMembership::new(NodeId::new(0), 6);
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut peers = m.sample_peers(&mut rng, 5);
        peers.sort_unstable();
        peers.dedup();
        assert_eq!(peers.len(), 5, "all 5 other nodes, no duplicates");
    }

    #[test]
    fn k_clamped_to_population() {
        let mut m = FullMembership::new(NodeId::new(0), 4);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        assert_eq!(m.sample_peers(&mut rng, 100).len(), 3);
        let mut single = FullMembership::new(NodeId::new(0), 1);
        assert!(single.sample_peers(&mut rng, 3).is_empty());
    }

    #[test]
    fn coverage_is_uniformish() {
        let mut m = FullMembership::new(NodeId::new(0), 11);
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let mut counts = [0u32; 11];
        let trials = 20_000;
        for _ in 0..trials {
            for p in m.sample_peers(&mut rng, 1) {
                counts[p.index()] += 1;
            }
        }
        assert_eq!(counts[0], 0);
        let expect = trials as f64 / 10.0;
        for (i, &c) in counts.iter().enumerate().skip(1) {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.1, "node {i} count {c} deviates {dev}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        let _ = FullMembership::new(NodeId::new(0), 0);
    }
}
