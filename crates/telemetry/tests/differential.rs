//! Differential test of the collector against the implementation it
//! replaced: the open-window [`ShardCollector`] and the map-per-hook
//! [`reference::MapCollector`] see the same hook sequence and must
//! finalize to equal series at any horizon, whole or split into shards.

use fed_sim::exec::{Probe, SendFate};
use fed_sim::protocol::NodeId;
use fed_sim::time::{SimDuration, SimTime};
use fed_telemetry::{ShardCollector, TelemetrySeries, TelemetrySpec, WindowStats};
use proptest::prelude::*;

#[path = "../src/reference.rs"]
mod reference;
use reference::MapCollector;

/// Window width in microseconds.
const W: u64 = 10_000;
const NODES: u32 = 6;

fn spec() -> TelemetrySpec {
    TelemetrySpec {
        window: SimDuration::from_micros(W),
    }
}

/// How far the clock moves before a step.
#[derive(Debug, Clone, Copy)]
enum Gap {
    /// Stay (several hooks of one event share `now`).
    None,
    Micros(u64),
    /// Onto the next window boundary exactly.
    ToBoundary,
    /// Whole windows, leaving empty ones behind.
    Windows(u64),
}

/// Where a send's delivery lands, relative to `now`.
#[derive(Debug, Clone, Copy)]
enum Landing {
    Lost,
    /// Zero latency: the same instant.
    Now,
    Micros(u64),
    /// The first microsecond of the next window (one past the open one).
    NextBoundary,
    /// `k` windows ahead — past most horizons when `k` is large.
    WindowsAhead(u64),
}

#[derive(Debug, Clone, Copy)]
enum Hook {
    Event,
    Send(u64, Landing),
    Receive(u64),
    Liveness(bool),
}

/// One observation of the global stream: the clock gap, the node whose
/// kernel observes it, the hook.
type Step = (Gap, u32, Hook);

fn step() -> impl Strategy<Value = Step> {
    let gap = prop_oneof![
        Just(Gap::None),
        Just(Gap::None),
        (1u64..4_000).prop_map(Gap::Micros),
        (1u64..4_000).prop_map(Gap::Micros),
        Just(Gap::ToBoundary),
        (1u64..4).prop_map(Gap::Windows),
    ];
    let landing = prop_oneof![
        Just(Landing::Lost),
        Just(Landing::Now),
        (1u64..W).prop_map(Landing::Micros),
        (1u64..W).prop_map(Landing::Micros),
        Just(Landing::NextBoundary),
        (1u64..3).prop_map(Landing::WindowsAhead),
        (3u64..40).prop_map(Landing::WindowsAhead),
    ];
    let hook = prop_oneof![
        Just(Hook::Event),
        Just(Hook::Event),
        (1u64..64, landing.clone()).prop_map(|(b, l)| Hook::Send(b, l)),
        (1u64..64, landing).prop_map(|(b, l)| Hook::Send(b, l)),
        (1u64..64).prop_map(Hook::Receive),
        any::<bool>().prop_map(Hook::Liveness),
    ];
    (gap, 0..NODES, hook)
}

/// Replays the steps whose node is in `owned` into `probe`; returns the
/// last `now` and the latest instant any hook touched.
fn drive<P: Probe>(probe: &mut P, steps: &[Step], owned: &[u32]) -> (u64, u64) {
    let (mut t, mut touched) = (0u64, 0u64);
    for &(gap, node, hook) in steps {
        // The clock is the global stream's: it moves for every shard.
        t = match gap {
            Gap::None => t,
            Gap::Micros(d) => t + d,
            Gap::ToBoundary => (t / W + 1) * W,
            Gap::Windows(k) => t + k * W,
        };
        if !owned.contains(&node) {
            continue;
        }
        let now = SimTime::from_micros(t);
        touched = touched.max(t);
        match hook {
            Hook::Event => probe.on_event(now),
            Hook::Send(bytes, landing) => {
                let at = match landing {
                    Landing::Lost => None,
                    Landing::Now => Some(t),
                    Landing::Micros(d) => Some(t + d),
                    Landing::NextBoundary => Some((t / W + 1) * W),
                    Landing::WindowsAhead(k) => Some(t + k * W),
                };
                touched = touched.max(at.unwrap_or(t));
                let fate = at.map_or(SendFate::Lost, |at| SendFate::Delivered {
                    at: SimTime::from_micros(at),
                });
                probe.on_send(now, NodeId::new(node), bytes, fate);
            }
            Hook::Receive(bytes) => probe.on_receive(now, NodeId::new(node), bytes),
            Hook::Liveness(alive) => probe.on_liveness(now, NodeId::new(node), alive),
        }
    }
    (t, touched)
}

/// Both collectors over `owned`, driven by `steps`, and what `drive`
/// returned.
fn pair(steps: &[Step], owned: &[u32]) -> (ShardCollector, MapCollector, (u64, u64)) {
    let mut new = ShardCollector::new(spec(), NODES as usize, owned);
    let mut old = MapCollector::new(spec(), NODES as usize, owned);
    let reach = drive(&mut new, steps, owned);
    assert_eq!(drive(&mut old, steps, owned), reach);
    (new, old, reach)
}

/// Horizons before, inside and after the last window a hook ran in and
/// the last window a delivery touched.
fn horizons((last_now, touched): (u64, u64)) -> Vec<u64> {
    vec![
        0,
        last_now / 2,
        last_now,
        (last_now / W) * W,
        (last_now / W + 1) * W,
        ((touched / W) * W).saturating_sub(1),
        touched,
        touched + W,
        touched + 7 * W,
    ]
}

fn merged(parts: impl IntoIterator<Item = TelemetrySeries>) -> TelemetrySeries {
    let mut parts = parts.into_iter();
    let mut acc = parts.next().expect("at least one shard");
    for part in parts {
        acc.merge(&part);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Same hooks, same series — for the whole population and for each
    /// owned subset, at every horizon.
    #[test]
    fn open_window_collector_equals_the_map_reference(
        steps in prop::collection::vec(step(), 0..120),
        extra_horizon in 0u64..60 * W,
    ) {
        let all: Vec<u32> = (0..NODES).collect();
        for owned in [&all[..], &[0, 3, 4], &[1, 2, 5], &[2], &[]] {
            let (new, old, reach) = pair(&steps, owned);
            for h in horizons(reach).into_iter().chain([extra_horizon]) {
                let h = SimTime::from_micros(h);
                prop_assert_eq!(
                    new.clone().finalize(h),
                    old.clone().finalize(h),
                    "owned {:?} horizon {}", owned, h
                );
            }
        }
    }

    /// Two shard-split collectors merge to the sequential one, and to the
    /// reference's, at any horizon the whole stream lies before (a shard
    /// closes windows only as far as its own hooks and the horizon reach).
    #[test]
    fn shard_split_merges_to_the_sequential_series(
        steps in prop::collection::vec(step(), 0..120),
        split in 0u32..64,
    ) {
        let all: Vec<u32> = (0..NODES).collect();
        let (own_a, own_b): (Vec<u32>, Vec<u32>) =
            all.iter().partition(|&&id| split >> id & 1 == 1);
        let (whole, whole_ref, reach) = pair(&steps, &all);
        let (new_a, old_a, _) = pair(&steps, &own_a);
        let (new_b, old_b, _) = pair(&steps, &own_b);
        for h in horizons(reach).into_iter().filter(|&h| h >= reach.0) {
            let h = SimTime::from_micros(h);
            let expect = whole_ref.clone().finalize(h);
            prop_assert_eq!(&whole.clone().finalize(h), &expect);
            let (a, b) = (new_a.clone().finalize(h), new_b.clone().finalize(h));
            prop_assert_eq!(&merged([a.clone(), b.clone()]), &expect);
            prop_assert_eq!(&merged([b, a]), &expect);
            let old = merged([old_a.clone().finalize(h), old_b.clone().finalize(h)]);
            prop_assert_eq!(&old, &expect);
        }
    }
}

/// The two edge rules the map gave for free, pinned by hand.
#[test]
fn open_window_is_emitted_only_when_sampled() {
    let at = SimTime::from_micros;
    // Horizon in window 1, nothing past it: windows 0 and 1, not 2.
    let mut c = ShardCollector::sequential(spec(), 1);
    c.on_event(at(5));
    assert_eq!(c.finalize(at(W + 5)).windows.len(), 2);
    // A liveness flip in window 3 opens it without sampling it; the
    // horizon lies before: windows 0..=2 (closed by the flip's advance).
    let mut c = ShardCollector::sequential(spec(), 1);
    c.on_liveness(at(3 * W + 1), NodeId::new(0), false);
    assert_eq!(c.finalize(at(5)).windows.len(), 3);
    // An event there does sample it.
    let mut c = ShardCollector::sequential(spec(), 1);
    c.on_event(at(3 * W + 1));
    assert_eq!(c.finalize(at(5)).windows.len(), 4);
    // A delivery scheduled into window 2 makes it the open window's
    // pre-existing accumulator: closed or not, it is in the series, and
    // windows between it and a far trailing one are dense.
    let mut c = ShardCollector::sequential(spec(), 1);
    let send = |c: &mut ShardCollector, to| {
        c.on_send(at(1), NodeId::new(0), 8, SendFate::Delivered { at: at(to) })
    };
    send(&mut c, 2 * W);
    send(&mut c, 6 * W + 3);
    let series = c.finalize(at(W + 1));
    let latencies: Vec<u64> = series
        .windows
        .iter()
        .map(|w| w.latency_hist.count())
        .collect();
    assert_eq!(latencies, vec![0, 0, 1, 0, 0, 0, 1]);
    let indices: Vec<u64> = series.windows.iter().map(|w| w.index).collect();
    assert_eq!(indices, (0..7).collect::<Vec<u64>>());
    assert_eq!(series.windows[5], WindowStats::empty(5));
}
