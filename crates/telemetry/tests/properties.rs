//! Property tests for the telemetry determinism contract: shard-local
//! collector merge must be associative and commutative (exact), so any
//! merge order over any shard partition yields the byte-identical global
//! series — the invariant behind the cross-engine series parity.

use fed_sim::exec::{Probe, SendFate};
use fed_sim::protocol::NodeId;
use fed_sim::time::{SimDuration, SimTime};
use fed_telemetry::{ShardCollector, TelemetrySeries, TelemetrySpec};
use fed_util::rng::{Rng64, Xoshiro256StarStar};
use proptest::prelude::*;

fn spec() -> TelemetrySpec {
    TelemetrySpec {
        window: SimDuration::from_millis(20),
    }
}

/// Drives a collector owning `owned` (out of `n`) with a seeded
/// pseudo-random observation stream and finalizes it.
///
/// The stream is monotone in time (like a real engine's dispatch order)
/// and every shard derives observations from the same global event list,
/// filtered to its owned nodes — mimicking how the cluster splits one
/// virtual world across kernels.
fn shard_series(seed: u64, n: u32, owned: &[u32], events: u64) -> TelemetrySeries {
    let mut c = ShardCollector::new(spec(), n as usize, owned);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut t = 0u64;
    for _ in 0..events {
        // Draw every choice unconditionally so all shards replay the
        // identical global stream and only *act* on their owned slice.
        t += rng.range_u64(9_000);
        let now = SimTime::from_micros(t);
        let node = rng.range_u64(n as u64) as u32;
        let kind = rng.range_u64(8);
        let lat = 1_000 + rng.range_u64(45_000);
        let coin = rng.range_u64(2) == 0;
        if !owned.contains(&node) {
            continue;
        }
        c.on_event(now);
        match kind {
            0..=4 => {
                let at = now + SimDuration::from_micros(lat);
                c.on_send(now, NodeId::new(node), 8 + kind, SendFate::Delivered { at });
            }
            5 => c.on_send(now, NodeId::new(node), 8, SendFate::Lost),
            6 => c.on_receive(now, NodeId::new(node), 16),
            _ => c.on_liveness(now, NodeId::new(node), coin),
        }
    }
    c.finalize(SimTime::from_micros(t + 50_000))
}

/// Splits `0..n` into `shards` round-robin owned lists.
fn partition(n: u32, shards: u32) -> Vec<Vec<u32>> {
    let mut owned = vec![Vec::new(); shards as usize];
    for id in 0..n {
        owned[(id % shards) as usize].push(id);
    }
    owned
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c) and a ⊔ b == b ⊔ a over shard series
    /// of one virtual world.
    #[test]
    fn merge_is_associative_and_commutative(seed in any::<u64>(), n in 3u32..24, events in 1u64..400) {
        let parts = partition(n, 3);
        let series: Vec<TelemetrySeries> = parts
            .iter()
            .map(|owned| shard_series(seed, n, owned, events))
            .collect();
        let [a, b, c] = [&series[0], &series[1], &series[2]];
        // Left fold: (a + b) + c.
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        // Right fold: a + (b + c).
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "merge must be associative");
        // Commutativity: c + b + a.
        let mut rev = c.clone();
        rev.merge(b);
        rev.merge(a);
        prop_assert_eq!(&left, &rev, "merge must be commutative");
    }

    /// Merging any shard partition reproduces the single-collector
    /// series exactly — the heart of the cross-engine parity contract.
    #[test]
    fn any_partition_merges_to_the_sequential_series(seed in any::<u64>(), n in 2u32..24, shards in 1u32..6, events in 1u64..400) {
        let shards = shards.min(n);
        let whole: Vec<u32> = (0..n).collect();
        let expect = shard_series(seed, n, &whole, events);
        let mut merged: Option<TelemetrySeries> = None;
        for owned in partition(n, shards) {
            let s = shard_series(seed, n, &owned, events);
            match merged.as_mut() {
                None => merged = Some(s),
                Some(m) => m.merge(&s),
            }
        }
        prop_assert_eq!(merged.unwrap(), expect);
    }
}
