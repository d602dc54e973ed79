//! Property-based equivalence of the calendar [`EventQueue`] with a
//! reference binary heap.
//!
//! The calendar queue replaces the seed-era `BinaryHeap` on the
//! simulation hot path; these tests pin down that the replacement is
//! observationally identical: for any interleaving of pushes and pops —
//! including same-time and same-`(time, src)` key collisions, pushes
//! behind the pop point, far-future times that force calendar re-bases,
//! hold-model floods dense enough to nest child rungs, and flood waves
//! shaped like the kernel's sends (runs of ascending `seq` per
//! `(time, src)`, which a drain orders by run) — the pop sequence is
//! exactly the reference key order.
//!
//! The wave cases reach thousands of entries per bucket in an optimised
//! build (`cargo test -p fed-sim --release --test calendar_queue`) and
//! stay small in a debug one.

use fed_sim::exec::{EventKey, EventKind, EventQueue};
use fed_sim::{Context, NodeId, Protocol, SimTime};
use fed_util::rng::{Rng64, Xoshiro256StarStar};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Inert protocol: the queues are exercised directly.
struct Nop;
impl Protocol for Nop {
    type Msg = ();
    type Cmd = u64;
    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
}

fn tagged(key: EventKey, tag: u64) -> (EventKey, EventKind<Nop>) {
    (
        key,
        EventKind::Command {
            node: NodeId::new(0),
            cmd: tag,
        },
    )
}

fn tag_of(kind: &EventKind<Nop>) -> u64 {
    match kind {
        EventKind::Command { cmd, .. } => *cmd,
        _ => panic!("only commands are pushed"),
    }
}

/// Key strategy engineered for collisions: tiny time/src/seq ranges make
/// same-time and same-`(time, src)` keys frequent.
fn colliding_key() -> impl Strategy<Value = EventKey> {
    (0u64..300, 0u32..4, 0u64..4).prop_map(|(us, src, seq)| EventKey {
        time: SimTime::from_micros(us),
        src,
        seq,
    })
}

/// Key strategy spanning every calendar regime: the initial epoch, the
/// first few re-bases, and times far past the widest bucket geometry
/// (2^44 µs), including the saturation edge near `u64::MAX`.
fn far_future_key() -> impl Strategy<Value = EventKey> {
    let time = prop_oneof![
        0u64..5_000,                        // initial epoch
        2_000_000u64..3_000_000,            // epoch boundary region
        1u64 << 32..(1u64 << 32) + 100_000, // after several re-bases
        1u64 << 50..(1u64 << 50) + 1_000,   // beyond MAX_BUCKET_SHIFT
        (u64::MAX - 1_000)..u64::MAX,       // saturation edge
    ];
    (time, 0u32..16, 0u64..8).prop_map(|(us, src, seq)| EventKey {
        time: SimTime::from_micros(us),
        src,
        seq,
    })
}

/// One step of an interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    Push(EventKey),
    Pop,
    /// `pop_before(bound)` with a bound in µs.
    PopBefore(u64),
}

fn ops(key: impl Strategy<Value = EventKey> + 'static) -> impl Strategy<Value = Vec<Op>> {
    // The vendored proptest shim has no weighted arms; repetition skews
    // the mix toward pushes so queues actually fill up.
    prop::collection::vec(
        prop_oneof![
            key.clone().prop_map(Op::Push),
            key.clone().prop_map(Op::Push),
            key.clone().prop_map(Op::Push),
            key.prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
            (0u64..4_000).prop_map(Op::PopBefore),
        ],
        1..200,
    )
}

/// One step of a hold-model workload, relative to the last popped time
/// (which [`hold_ops`] resolves against a reference heap).
#[derive(Debug, Clone)]
enum HoldStep {
    /// Pop, then push one event per entry at `popped + delay + jitter`,
    /// where each entry draws the jitter.
    Fanout(Vec<u64>),
    /// As [`HoldStep::Fanout`] with a single event at its own offset (µs),
    /// whatever the case's delay is.
    Stray(u64),
    /// Push this many µs *behind* the last popped time.
    Past(u64),
    Pop,
    /// `pop_before` this many µs past the last popped time.
    PopBefore(u64),
}

/// The classic hold model — what a flood over constant or jittered links
/// does to the queue: every pop schedules a burst one link delay later.
/// Cases span link delays of 1 µs … 40 s against whatever bucket widths
/// the queue has settled on, and run long enough (≥ 2 000 steps) for the
/// bottom to outgrow its split threshold at several nested rungs.
fn hold_ops() -> impl Strategy<Value = Vec<Op>> {
    let delay = prop_oneof![
        Just(1u64),
        Just(37),
        Just(1_000),
        Just(10_000),
        Just(1_000_000),
        Just(40_000_000),
    ];
    let fanout = || prop::collection::vec(any::<u64>(), 1..13).prop_map(HoldStep::Fanout);
    let step = prop_oneof![
        fanout(),
        fanout(),
        Just(HoldStep::Pop),
        Just(HoldStep::Pop),
        Just(HoldStep::Pop),
        (0u64..3_000).prop_map(HoldStep::PopBefore),
        (1u64..5_000).prop_map(HoldStep::Past),
        (1u64..40_000_000).prop_map(HoldStep::Stray),
    ];
    (
        delay,
        any::<bool>(),
        prop::collection::vec(step, 2_000..2_400),
    )
        .prop_map(|(delay, jittered, steps)| resolve_hold(delay, jittered, &steps))
}

/// Turns relative hold steps into absolute [`Op`]s by replaying them on
/// the reference queue.
fn resolve_hold(delay: u64, jittered: bool, steps: &[HoldStep]) -> Vec<Op> {
    let mut reference = RefQueue::default();
    let mut ops = Vec::new();
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut push = |reference: &mut RefQueue, ops: &mut Vec<Op>, us: u64| {
        let key = EventKey {
            time: SimTime::from_micros(us),
            src: (seq % 5) as u32,
            seq,
        };
        seq += 1;
        reference.push(key, 0);
        ops.push(Op::Push(key));
    };
    // The pop point moves only when something was actually popped.
    let advance = |popped: Option<(EventKey, u64)>, now: u64| {
        popped.map_or(now, |(key, _)| key.time.as_micros())
    };
    for step in steps {
        match step {
            HoldStep::Fanout(draws) => {
                now = advance(reference.pop(), now);
                ops.push(Op::Pop);
                for draw in draws {
                    let jitter = if jittered { draw % (delay + 1) } else { 0 };
                    push(&mut reference, &mut ops, now + delay + jitter);
                }
            }
            HoldStep::Stray(offset) => {
                now = advance(reference.pop(), now);
                ops.push(Op::Pop);
                push(&mut reference, &mut ops, now + offset);
            }
            HoldStep::Past(behind) => push(&mut reference, &mut ops, now.saturating_sub(*behind)),
            HoldStep::Pop => {
                now = advance(reference.pop(), now);
                ops.push(Op::Pop);
            }
            HoldStep::PopBefore(ahead) => {
                let bound = now + ahead;
                now = advance(reference.pop_before(SimTime::from_micros(bound)), now);
                ops.push(Op::PopBefore(bound));
            }
        }
    }
    ops
}

/// Flood waves as the kernel pushes them: each wave, a shuffled set of
/// sources each push one run of consecutive `seq` at one of a few
/// instants `delay` past the pop point. In some cases some runs are
/// pushed in reverse, and some `(time, src)` pairs come as two
/// interleaving runs (evens, then odds) — what a drain must notice and
/// sort entry by entry. Between waves, part of the queue is popped.
fn wave_ops() -> impl Strategy<Value = Vec<Op>> {
    let max_sources = if cfg!(debug_assertions) { 40 } else { 700 };
    let delay = prop_oneof![Just(1u64), Just(37), Just(4_096), Just(10_000)];
    // One in this many runs is reversed or split; 0 for never.
    let odd_one_in = || prop_oneof![Just(0u64), Just(0), Just(300), Just(8)];
    (
        any::<u64>(),
        1usize..max_sources,
        delay,
        odd_one_in(),
        odd_one_in(),
        2usize..7,
    )
        .prop_map(|(seed, sources, delay, reversed, split, waves)| {
            flood_waves(seed, sources, delay, reversed, split, waves)
        })
}

/// The ops of [`wave_ops`], drawn from `seed`.
fn flood_waves(
    seed: u64,
    sources: usize,
    delay: u64,
    reversed: u64,
    split: u64,
    waves: usize,
) -> Vec<Op> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let one_in = |rng: &mut Xoshiro256StarStar, n: u64| n > 0 && rng.range_u64(n) == 0;
    let mut reference = RefQueue::default();
    let mut ops = Vec::new();
    let mut seqs = vec![0u64; sources];
    let mut order: Vec<usize> = (0..sources).collect();
    let mut now = 0u64;
    for _ in 0..waves {
        let instants = 1 + rng.range_u64(3);
        rng.shuffle(&mut order);
        for &src in &order {
            let time = SimTime::from_micros(now + delay + rng.range_u64(instants));
            let len = 1 + rng.range_u64(9);
            let mut run: Vec<EventKey> = (0..len)
                .map(|_| {
                    seqs[src] += 1;
                    EventKey {
                        time,
                        src: src as u32,
                        seq: seqs[src],
                    }
                })
                .collect();
            if one_in(&mut rng, reversed) {
                run.reverse();
            } else if len > 1 && one_in(&mut rng, split) {
                let (evens, odds): (Vec<_>, Vec<_>) =
                    run.iter().enumerate().partition(|(i, _)| i % 2 == 0);
                run = evens.into_iter().chain(odds).map(|(_, &key)| key).collect();
            }
            for key in run {
                reference.push(key, 0);
                ops.push(Op::Push(key));
            }
        }
        // Pop part of the queue, the last few by window.
        let pops = rng.range_usize(reference.heap.len() + 1);
        for _ in 0..pops {
            if let Some((key, _)) = reference.pop() {
                now = key.time.as_micros();
            }
            ops.push(Op::Pop);
        }
        let bound = now + rng.range_u64(delay + 2);
        while let Some((key, _)) = reference.pop_before(SimTime::from_micros(bound)) {
            now = key.time.as_micros();
            ops.push(Op::PopBefore(bound));
        }
        ops.push(Op::PopBefore(bound));
    }
    ops
}

/// Reference queue: the seed-era `BinaryHeap` with the reversed
/// comparator, popping `(key, tag)` min-first. Ties on the full key pop
/// in unspecified tag order there too, so comparisons below only demand
/// equal *keys* plus an equal multiset of tags per key.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<Reverse<(EventKey, u64)>>,
}

impl RefQueue {
    fn push(&mut self, key: EventKey, tag: u64) {
        self.heap.push(Reverse((key, tag)));
    }
    fn pop(&mut self) -> Option<(EventKey, u64)> {
        self.heap.pop().map(|Reverse(e)| e)
    }
    fn pop_before(&mut self, end: SimTime) -> Option<(EventKey, u64)> {
        if self.heap.peek()?.0 .0.time < end {
            self.pop()
        } else {
            None
        }
    }
    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((key, _))| key.time)
    }
}

/// Drives both queues through the same op sequence and asserts every
/// observable agrees: pop keys, `next_time`, `len`, and — because equal
/// keys may legally pop in different tag orders — the multiset of tags
/// popped under each key.
fn assert_equivalent(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut cal: EventQueue<Nop> = EventQueue::new();
    let mut reference = RefQueue::default();
    let mut cal_log: Vec<(EventKey, u64)> = Vec::new();
    let mut ref_log: Vec<(EventKey, u64)> = Vec::new();
    let mut tag = 0u64;
    for op in ops {
        match op {
            Op::Push(key) => {
                let (key, kind) = tagged(key, tag);
                cal.push(key, kind);
                reference.push(key, tag);
                tag += 1;
            }
            Op::Pop => {
                let got = cal.pop().map(|(key, kind)| (key, tag_of(&kind)));
                let want = reference.pop();
                prop_assert_eq!(got.is_some(), want.is_some(), "pop presence diverged");
                if let (Some(g), Some(w)) = (got, want) {
                    prop_assert_eq!(g.0, w.0, "pop key diverged");
                    cal_log.push(g);
                    ref_log.push(w);
                }
            }
            Op::PopBefore(us) => {
                let end = SimTime::from_micros(us);
                let got = cal.pop_before(end).map(|(key, kind)| (key, tag_of(&kind)));
                let want = reference.pop_before(end);
                prop_assert_eq!(
                    got.is_some(),
                    want.is_some(),
                    "pop_before presence diverged"
                );
                if let (Some(g), Some(w)) = (got, want) {
                    prop_assert_eq!(g.0, w.0, "pop_before key diverged");
                    cal_log.push(g);
                    ref_log.push(w);
                }
            }
        }
        prop_assert_eq!(cal.next_time(), reference.next_time(), "next_time diverged");
        prop_assert_eq!(cal.len(), reference.heap.len(), "len diverged");
        prop_assert_eq!(cal.is_empty(), reference.heap.is_empty());
    }
    // Drain the rest: total order must match to the end.
    loop {
        let got = cal.pop().map(|(key, kind)| (key, tag_of(&kind)));
        let want = reference.pop();
        prop_assert_eq!(got.is_some(), want.is_some(), "drain presence diverged");
        match (got, want) {
            (Some(g), Some(w)) => {
                prop_assert_eq!(g.0, w.0, "drain key diverged");
                cal_log.push(g);
                ref_log.push(w);
            }
            _ => break,
        }
    }
    // Keys already agree pop for pop; equal keys may pop in either tag
    // order (even with other pops in between), so tags are compared as a
    // multiset per key.
    cal_log.sort_unstable();
    ref_log.sort_unstable();
    prop_assert_eq!(cal_log, ref_log, "tag multiset diverged for some key");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense collision workloads: many events share a time or a
    /// `(time, src)` prefix, and pops interleave with pushes.
    #[test]
    fn matches_reference_heap_under_collisions(workload in ops(colliding_key())) {
        assert_equivalent(workload)?;
    }

    /// Sparse far-future workloads: times jump across calendar epochs,
    /// past the widest bucket geometry and up to the `u64` edge, forcing
    /// overflow handling and repeated re-bases.
    #[test]
    fn matches_reference_heap_across_rollovers(workload in ops(far_future_key())) {
        assert_equivalent(workload)?;
    }

    /// Hold-model floods: pushes one link delay past the pop point, in
    /// bursts, for thousands of steps — the pattern that lands inside the
    /// drained range and nests child rungs.
    #[test]
    fn matches_reference_heap_under_hold_model(workload in hold_ops()) {
        assert_equivalent(workload)?;
    }

    /// Flood waves: thousands of sends per instant, in runs per
    /// `(time, src)`, some reversed or interleaved.
    #[test]
    fn matches_reference_heap_under_flood_waves(workload in wave_ops()) {
        assert_equivalent(workload)?;
    }

    /// Pure push-then-drain at scale: the whole-queue sort order is the
    /// exact lexicographic key order.
    #[test]
    fn drains_in_exact_key_order(
        keys in prop::collection::vec(far_future_key(), 1..400),
    ) {
        let mut cal: EventQueue<Nop> = EventQueue::new();
        for (tag, key) in keys.iter().enumerate() {
            let (key, kind) = tagged(*key, tag as u64);
            cal.push(key, kind);
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut popped = Vec::with_capacity(keys.len());
        while let Some((key, _)) = cal.pop() {
            popped.push(key);
        }
        prop_assert_eq!(popped, sorted);
    }
}
