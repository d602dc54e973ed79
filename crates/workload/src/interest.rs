//! Interest assignment: who subscribes to what.
//!
//! The paper's premise is heterogeneity: "the interest of processes may
//! exhibit big differences" (§3.2). Profiles here control two axes —
//! *topic popularity* (a Zipf law over topics, the standard model for
//! subscription skew) and *per-node appetite* (how many topics each node
//! subscribes to).

use fed_pubsub::TopicId;
use fed_util::dist::{InvalidDistribution, Zipf};
use fed_util::rng::Rng64;
use std::collections::BTreeSet;

/// How many topics a node subscribes to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Appetite {
    /// Every node subscribes to exactly `k` topics.
    Fixed(usize),
    /// Uniform between `lo` and `hi` inclusive.
    Uniform {
        /// Minimum subscriptions per node.
        lo: usize,
        /// Maximum subscriptions per node.
        hi: usize,
    },
    /// A fraction of nodes subscribe to `heavy` topics, the rest to
    /// `light` — the starkest heterogeneity.
    Bimodal {
        /// Fraction of heavy nodes in `[0, 1]`.
        heavy_fraction: f64,
        /// Subscriptions of a heavy node.
        heavy: usize,
        /// Subscriptions of a light node.
        light: usize,
    },
}

/// A full interest assignment: topics per node.
#[derive(Debug, Clone, PartialEq)]
pub struct InterestProfile {
    assignments: Vec<BTreeSet<TopicId>>,
    num_topics: usize,
}

impl InterestProfile {
    /// Generates a profile for `n` nodes over `num_topics` topics with the
    /// given popularity skew (`zipf_s = 0` means all topics equally
    /// popular) and per-node appetite.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistribution`] if `num_topics == 0` or `zipf_s` is
    /// invalid.
    pub fn generate<R: Rng64>(
        rng: &mut R,
        n: usize,
        num_topics: usize,
        zipf_s: f64,
        appetite: Appetite,
    ) -> Result<Self, InvalidDistribution> {
        let zipf = Zipf::new(num_topics, zipf_s)?;
        let mut assignments = Vec::with_capacity(n);
        for i in 0..n {
            let want = match appetite {
                Appetite::Fixed(k) => k,
                Appetite::Uniform { lo, hi } => {
                    if lo >= hi {
                        lo
                    } else {
                        lo + rng.range_usize(hi - lo + 1)
                    }
                }
                Appetite::Bimodal {
                    heavy_fraction,
                    heavy,
                    light,
                } => {
                    let cutoff = (n as f64 * heavy_fraction).round() as usize;
                    if i < cutoff {
                        heavy
                    } else {
                        light
                    }
                }
            };
            let want = want.min(num_topics);
            let mut topics = BTreeSet::new();
            // Rejection-sample distinct topics; bounded because
            // want <= num_topics.
            let mut guard = 0;
            while topics.len() < want && guard < 100_000 {
                topics.insert(TopicId::new(zipf.sample(rng) as u32));
                guard += 1;
            }
            // Extremely skewed Zipf can starve: fill deterministically.
            let mut next = 0u32;
            while topics.len() < want {
                topics.insert(TopicId::new(next));
                next += 1;
            }
            assignments.push(topics);
        }
        Ok(InterestProfile {
            assignments,
            num_topics,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// `true` when generated for zero nodes.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Number of topics in the universe.
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// Topics node `i` subscribes to.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn topics_of(&self, i: usize) -> &BTreeSet<TopicId> {
        &self.assignments[i]
    }

    /// Nodes subscribed to `topic`.
    pub fn subscribers_of(&self, topic: TopicId) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, set)| set.contains(&topic))
            .map(|(i, _)| i)
            .collect()
    }

    /// Total number of (node, topic) subscription pairs.
    pub fn total_subscriptions(&self) -> usize {
        self.assignments.iter().map(BTreeSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_util::rng::Xoshiro256StarStar;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(2024)
    }

    #[test]
    fn fixed_appetite_exact_counts() {
        let p = InterestProfile::generate(&mut rng(), 50, 20, 1.0, Appetite::Fixed(3)).unwrap();
        assert_eq!(p.len(), 50);
        for i in 0..50 {
            assert_eq!(p.topics_of(i).len(), 3, "node {i}");
        }
        assert_eq!(p.total_subscriptions(), 150);
    }

    #[test]
    fn appetite_clamped_to_universe() {
        let p = InterestProfile::generate(&mut rng(), 4, 2, 0.0, Appetite::Fixed(10)).unwrap();
        for i in 0..4 {
            assert_eq!(p.topics_of(i).len(), 2);
        }
    }

    #[test]
    fn uniform_appetite_in_bounds() {
        let p =
            InterestProfile::generate(&mut rng(), 200, 50, 0.5, Appetite::Uniform { lo: 1, hi: 8 })
                .unwrap();
        for i in 0..200 {
            let k = p.topics_of(i).len();
            assert!((1..=8).contains(&k), "node {i} has {k}");
        }
    }

    #[test]
    fn bimodal_appetite_split() {
        let p = InterestProfile::generate(
            &mut rng(),
            100,
            64,
            0.0,
            Appetite::Bimodal {
                heavy_fraction: 0.2,
                heavy: 16,
                light: 1,
            },
        )
        .unwrap();
        for i in 0..20 {
            assert_eq!(p.topics_of(i).len(), 16);
        }
        for i in 20..100 {
            assert_eq!(p.topics_of(i).len(), 1);
        }
    }

    #[test]
    fn zipf_skew_concentrates_subscribers() {
        let p = InterestProfile::generate(&mut rng(), 500, 100, 1.5, Appetite::Fixed(2)).unwrap();
        let top = p.subscribers_of(TopicId::new(0)).len();
        let tail = p.subscribers_of(TopicId::new(99)).len();
        assert!(top > tail * 3, "rank 0 ({top}) must dwarf rank 99 ({tail})");
    }

    #[test]
    fn subscribers_of_matches_topics_of() {
        let p = InterestProfile::generate(&mut rng(), 40, 10, 1.0, Appetite::Fixed(2)).unwrap();
        for t in 0..10u32 {
            let topic = TopicId::new(t);
            let subscribers = p.subscribers_of(topic);
            for i in 0..p.len() {
                assert_eq!(subscribers.contains(&i), p.topics_of(i).contains(&topic));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = InterestProfile::generate(&mut rng(), 30, 10, 1.0, Appetite::Fixed(2)).unwrap();
        let b = InterestProfile::generate(&mut rng(), 30, 10, 1.0, Appetite::Fixed(2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(InterestProfile::generate(&mut rng(), 10, 0, 1.0, Appetite::Fixed(1)).is_err());
        assert!(InterestProfile::generate(&mut rng(), 10, 5, -1.0, Appetite::Fixed(1)).is_err());
    }
}
