//! The execution substrate shared by the sequential and sharded engines.
//!
//! [`Simulation`](crate::Simulation) and `fed-cluster`'s sharded runtime
//! run the *same* discrete-event computation; this module holds the pieces
//! both need, factored so results are independent of which engine executes
//! them:
//!
//! * **Canonical event keys.** Every event carries an [`EventKey`] of
//!   `(time, source node, per-source sequence)` assigned by its *producer*,
//!   and events are processed in key order. Because the key never depends
//!   on global queue insertion order, a sharded engine that merges event
//!   streams at time-window barriers pops events in exactly the order the
//!   sequential engine does.
//! * **Per-node random streams.** Each node owns two generators forked
//!   deterministically from the master seed in node-id order
//!   ([`seed_streams`]): one for protocol callbacks, one for sampling the
//!   network fate (loss, latency) of its outgoing messages. No stream is
//!   shared across nodes, so cross-node interleaving cannot perturb them.
//! * **The [`Kernel`].** Node slots, timer incarnations,
//!   [`TransportStats`] accounting and network sampling for a (sub)set of
//!   nodes, with all produced events routed through an [`EffectSink`] —
//!   a heap for the sequential engine, a local-queue/remote-outbox
//!   splitter for a shard.
//!
//! Delivery latency is floored at [`MIN_NETWORK_LATENCY`] (1 µs): the
//! network never delivers in zero virtual time. This gives every network
//! model a positive conservative lookahead
//! ([`NetworkModel::min_latency`]), which is what allows a sharded engine
//! to process a full lookahead-wide window per barrier.

use crate::local_id::LocalIds;
use crate::network::NetworkModel;
use crate::protocol::{Context, Invoke, NodeId, Outgoing, Protocol};
use crate::time::{SimDuration, SimTime};
use fed_util::rng::{Rng64, Xoshiro256StarStar};
use std::any::Any;
use std::collections::VecDeque;

/// The minimum virtual-time latency of any delivered message.
///
/// A positive floor guarantees every network model has a usable
/// conservative lookahead; see the module docs.
pub const MIN_NETWORK_LATENCY: SimDuration = SimDuration::from_micros(1);

/// Source id used for externally scheduled events (commands, churn).
///
/// Real nodes have dense ids `0..n`, far below this sentinel.
pub const EXTERNAL_SRC: u32 = u32::MAX;

/// Per-node transport accounting maintained by the engine.
///
/// "Sent" counts every transmission attempt (a lost message still cost the
/// sender its bandwidth — contribution accounting must include it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages handed to the network.
    pub msgs_sent: u64,
    /// Bytes handed to the network (per [`Protocol::message_size`]).
    pub bytes_sent: u64,
    /// Messages delivered to this node.
    pub msgs_received: u64,
    /// Bytes delivered to this node.
    pub bytes_received: u64,
    /// Messages this node sent that the network dropped.
    pub msgs_lost: u64,
}

/// Work counters maintained by an [`EventQueue`], for the profiler.
///
/// `pushes` and `pops` count *external* queue traffic — events handed to
/// the queue and events handed back — never internal reshuffling (a
/// calendar re-base or a rung split moves events between internal levels
/// without touching either counter). Every event enters exactly one queue exactly once on
/// either engine, so summing `pushes`/`pops` across shards reproduces the
/// sequential engine's counts bit for bit at any shard count.
///
/// `overflow_hits` counts events parked beyond the calendar horizon
/// (including re-parks during a re-base). It depends on per-queue bucket
/// geometry, which sees only the shard's own event density — so it is
/// deterministic for a fixed configuration but **not** partition
/// invariant, and is reported rather than parity-gated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events enqueued (external pushes only).
    pub pushes: u64,
    /// Events dequeued.
    pub pops: u64,
    /// Events that landed beyond the calendar horizon.
    pub overflow_hits: u64,
}

impl QueueStats {
    /// Adds `other`'s counts into `self` (exact, associative,
    /// commutative).
    pub fn merge(&mut self, other: &QueueStats) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.overflow_hits += other.overflow_hits;
    }
}

/// The canonical total order on events.
///
/// `(time, src, seq)`: virtual time first, then producing node, then that
/// producer's monotone sequence number. Two engines that process the same
/// event set in key order per receiving node produce identical executions,
/// because the key is assigned at production time and never references
/// global queue state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// When the event fires.
    pub time: SimTime,
    /// The producing node ([`EXTERNAL_SRC`] for scheduled inputs).
    pub src: u32,
    /// The producer's sequence number at production time.
    pub seq: u64,
}

/// A simulation event, addressed to one node.
#[derive(Debug, Clone)]
pub enum EventKind<P: Protocol> {
    /// Deliver `msg` from `from` to `to`.
    Deliver {
        /// Destination node.
        to: NodeId,
        /// Sender.
        from: NodeId,
        /// Payload.
        msg: P::Msg,
    },
    /// Fire `on_timer(token)` at `node`, if it is still in `incarnation`.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Opaque token handed back to the protocol.
        token: u64,
        /// Incarnation that armed the timer; stale timers are dropped.
        incarnation: u32,
    },
    /// Deliver an application command to `node`.
    Command {
        /// Destination node.
        node: NodeId,
        /// The command.
        cmd: P::Cmd,
    },
    /// Crash the node: it freezes, keeping its state, and its timers die.
    Crash(NodeId),
    /// Wake a crashed node: the same state, a new incarnation, and
    /// `on_init` run again.
    Join(NodeId),
}

impl<P: Protocol> EventKind<P> {
    /// The node this event is addressed to.
    pub fn dest(&self) -> NodeId {
        match self {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { node, .. } | EventKind::Command { node, .. } => *node,
            EventKind::Crash(node) | EventKind::Join(node) => *node,
        }
    }
}

/// The event budget of a run on either engine unless `set_max_events`
/// changes it: a safety net against protocol bugs that generate
/// unbounded event storms.
pub const DEFAULT_MAX_EVENTS: u64 = 500_000_000;

/// Fails a run that ran out of its event budget, with the one message
/// both engines use: the budget and the virtual time of the first event
/// past it. A run panics here rather than return truncated.
#[cold]
#[inline(never)]
pub fn budget_exhausted(max_events: u64, at: SimTime) -> ! {
    panic!(
        "event budget of {max_events} events exhausted at virtual time {}us",
        at.as_micros()
    )
}

/// A protocol handler that panicked: the shard that ran it, the event it
/// was handling — its key, which carries the virtual time, and the node it
/// was addressed to — and the panic's own message. Both engines catch a
/// handler's panic and re-panic on the caller with this report, so the
/// failure names its event instead of a bare "a scoped thread panicked".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerPanic {
    /// The shard whose worker ran the handler (0 on the sequential engine).
    pub shard: usize,
    /// The event being handled.
    pub key: EventKey,
    /// The node the event was addressed to.
    pub node: NodeId,
    /// The panic's message (its `&str` or `String` payload).
    pub message: String,
}

impl HandlerPanic {
    /// The report of a panic with `payload` while `shard` handled the
    /// event `key` addressed to `node`.
    pub fn new(shard: usize, (key, node): (EventKey, NodeId), payload: &(dyn Any + Send)) -> Self {
        HandlerPanic {
            shard,
            key,
            node,
            message: panic_message(payload),
        }
    }
}

/// The message a panic was raised with: its `&str` or `String` payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl std::fmt::Display for HandlerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let EventKey { time, src, seq } = self.key;
        let src = if src == EXTERNAL_SRC {
            "external".to_string()
        } else {
            src.to_string()
        };
        write!(
            f,
            "shard {}: handler panicked at virtual time {}us, event (src {src}, seq {seq}) \
             for node {}: {}",
            self.shard,
            time.as_micros(),
            self.node.index(),
            self.message
        )
    }
}

/// Number of calendar buckets (a power of two; the occupancy bitmap below
/// assumes a multiple of 64).
const CAL_BUCKETS: usize = 512;
/// Words in a rung's bucket-occupancy bitmap.
const CAL_WORDS: usize = CAL_BUCKETS / 64;
/// Largest permitted bucket-width exponent: buckets never exceed
/// 2^44 µs (~200 days of virtual time), keeping all index arithmetic
/// comfortably inside `u64`.
const MAX_BUCKET_SHIFT: u32 = 44;
/// Initial bucket-width exponent: 2^12 µs ≈ 4 ms buckets, so the first
/// calendar epoch spans ~2 s. Only a hint, like the width a re-base
/// derives: child rungs refine whichever bucket turns out dense.
const INITIAL_BUCKET_SHIFT: u32 = 12;
/// A child rung splits one parent bucket into `2^CHILD_BITS` (64) buckets,
/// so from [`MAX_BUCKET_SHIFT`] at most ⌈44 / 6⌉ = 8 children nest before
/// buckets are a single microsecond wide.
const CHILD_BITS: u32 = 6;
/// An in-range push that leaves the bottom longer than this re-buckets it
/// into a child rung. Below it a sorted insert's shift is cheaper than
/// the re-distribution.
const SPLIT_THRESHOLD: usize = 128;

type Entry<P> = (EventKey, EventKind<P>);

/// One level of the ladder: `used` unsorted buckets of `2^shift` µs each,
/// covering `[start, start + used·2^shift)`.
///
/// The calendar is the top rung; a child rung covers exactly its parent's
/// most recently drained bucket (`cursor - 1`), so no rung needs an
/// explicit end and every position is a subtraction and a shift.
struct Rung<P: Protocol> {
    /// Start (µs) of bucket 0's range.
    start: u64,
    /// Bucket width exponent: each bucket spans `2^shift` µs.
    shift: u32,
    /// Buckets in use: [`CAL_BUCKETS`] for the calendar, at most
    /// `2^CHILD_BITS` for a child.
    used: usize,
    /// Buckets below `cursor` are drained: their time range belongs to
    /// the deeper levels (child rungs, then the bottom).
    cursor: usize,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; CAL_WORDS],
    buckets: Vec<Vec<Entry<P>>>,
}

impl<P: Protocol> Rung<P> {
    fn new(buckets: usize, shift: u32) -> Self {
        Rung {
            start: 0,
            shift,
            used: buckets,
            cursor: 0,
            occupied: [0; CAL_WORDS],
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
        }
    }

    /// Appends to bucket `i` in O(1).
    fn put(&mut self, i: usize, entry: Entry<P>) {
        self.buckets[i].push(entry);
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    /// Index of the first non-empty bucket at or after the cursor, if any.
    fn next_occupied(&self) -> Option<usize> {
        if self.cursor >= self.used {
            return None;
        }
        let words = self.used.div_ceil(64);
        let mut w = self.cursor / 64;
        let mut bits = self.occupied[w] & (!0u64 << (self.cursor % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w >= words {
                return None;
            }
            bits = self.occupied[w];
        }
    }

    /// Earliest event time in the first non-empty bucket — the earliest
    /// of the whole rung, since buckets partition its range in order.
    fn min_time(&self) -> Option<SimTime> {
        let i = self.next_occupied()?;
        self.buckets[i].iter().map(|e| e.0.time).min()
    }

    /// Empties bucket `i`, sorted descending (a bottom), and moves the
    /// cursor past it. The bucket's allocation travels with its entries.
    fn drain(&mut self, i: usize, orderer: &mut BucketOrderer) -> VecDeque<Entry<P>> {
        let mut entries = std::mem::take(&mut self.buckets[i]);
        self.occupied[i / 64] &= !(1 << (i % 64));
        self.cursor = i + 1;
        orderer.order(&mut entries);
        VecDeque::from(entries)
    }
}

/// Sorts drained buckets descending by key, using the runs they arrive
/// in (see [`EventQueue`]).
///
/// A run is a maximal stretch of a bucket with one `(time, src)` and
/// strictly ascending `seq`: what one handler invocation sends for one
/// arrival time. The kernel pushes a run together and both engines'
/// exchange keeps it in order. Buckets whose runs interleave (only
/// arbitrary pushes do that) or average fewer than two entries (jittered
/// links) are sorted entry by entry.
#[derive(Default)]
struct BucketOrderer {
    /// `(head key, start, end)` of each run of the bucket being ordered.
    runs: Vec<(EventKey, u32, u32)>,
    /// The runs' starts while the bucket is scanned, then where each of
    /// its entries goes.
    dest: Vec<u32>,
    /// Buckets ordered by their runs rather than by a sort.
    #[cfg(test)]
    by_runs: u64,
}

impl BucketOrderer {
    /// Sorts `entries` descending by key.
    fn order<P: Protocol>(&mut self, entries: &mut [Entry<P>]) {
        if !self.order_by_runs(entries) {
            entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        }
    }

    /// Sorts `entries` descending by permuting whole runs, or returns
    /// `false` having moved nothing when that would not pay or not work.
    fn order_by_runs<P: Protocol>(&mut self, entries: &mut [Entry<P>]) -> bool {
        let n = entries.len();
        if u32::try_from(n).is_err() {
            return false;
        }
        let BucketOrderer { runs, dest, .. } = self;
        // Run starts go in `dest` first: a bucket of short runs then costs
        // no run buffer.
        dest.clear();
        dest.push(0);
        for j in 1..n {
            let (prev, next) = (entries[j - 1].0, entries[j].0);
            if next.time != prev.time || next.src != prev.src || next.seq <= prev.seq {
                if 2 * (dest.len() + 1) > n {
                    return false;
                }
                dest.push(j as u32);
            }
        }
        if 2 * dest.len() > n {
            return false;
        }
        dest.push(n as u32);
        runs.clear();
        runs.extend(
            dest.windows(2)
                .map(|w| (entries[w[0] as usize].0, w[0], w[1])),
        );
        runs.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
        // Runs sorted by head concatenate into a sorted bucket only if each
        // ends below the head of the run sorted above it.
        if runs
            .windows(2)
            .any(|w| entries[w[1].2 as usize - 1].0 >= w[0].0)
        {
            return false;
        }
        dest.clear();
        dest.resize(n, 0);
        let mut at = 0;
        for &(_, start, end) in runs.iter() {
            // Reversed: the bottom is descending.
            for (j, d) in dest[start as usize..end as usize].iter_mut().enumerate() {
                *d = at + end - start - 1 - j as u32;
            }
            at += end - start;
        }
        // Each swap puts one entry in its place.
        for i in 0..n {
            while dest[i] as usize != i {
                let d = dest[i] as usize;
                entries.swap(i, d);
                dest.swap(i, d);
            }
        }
        #[cfg(test)]
        {
            self.by_runs += 1;
        }
        true
    }
}

/// A pending-event queue, popping in [`EventKey`] order.
///
/// A ladder queue bucketed by [`SimTime`] instead of a comparison-based
/// heap. From the pop point outward an event is held in one of:
///
/// * **Bottom.** A deque sorted descending by key (pop takes the back)
///   holding every pending event below the deepest rung's drain boundary.
///   Pops are O(1); a push landing in the bottom's range is a
///   binary-search insert into at most `SPLIT_THRESHOLD` (128) entries —
///   a longer bottom is re-bucketed into a child rung on the spot, unless
///   it is a single instant (which no bucket width can divide). An insert
///   shifts whichever side of its slot is shorter, so a push that sorts
///   after a whole single-instant burst costs O(1), however long it is.
/// * **Child rungs.** A stack of at most eight rungs of ≤ 64 unsorted
///   buckets, each covering exactly the bucket its parent drained last at
///   1/64 of the parent's width. A push inside the drained range tries the
///   deepest rung first and appends in O(1); pops drain the deepest rung
///   bucket by bucket and retire it when empty. Rungs exist only where
///   events are dense relative to the level above, so a wide parent
///   bucket costs a few re-distributions per event, not a memmove per
///   push.
/// * **Calendar.** The top rung: `CAL_BUCKETS` (512) unsorted buckets of
///   `2^shift` µs found through an occupancy bitmap. Its width — 4 ms at
///   first, then span / bucket count of the overflow at each re-base — is
///   a hint, not load-bearing: where it is too coarse for the link
///   latencies in play, child rungs refine it.
/// * **Overflow.** Events beyond the calendar horizon collect unsorted;
///   when the calendar drains, the queue re-bases around the overflow's
///   minimum.
///
/// A bucket keeps its entries in push order until a pop drains it into
/// the bottom. A handler's sends for one arrival time reach it as one run
/// of ascending `seq` at one `(time, src)`, and a split re-buckets the
/// bottom in ascending order so it keeps them. A drain therefore sorts
/// the run heads and moves each entry once into place; only a bucket
/// whose runs interleave or average under two entries is sorted entry by
/// entry. This is what makes a flood wave over constant links cheap:
/// thousands of sends at one instant, which no bucket width can divide,
/// but only a few hundred runs.
///
/// The pop order is exactly the total [`EventKey`] order — identical to
/// a binary heap — for *any* push pattern, including pushes earlier than
/// events already popped (they land in the bottom and pop next). Internal
/// geometry never affects pop order, so the queue stays bit-compatible
/// across engines and shard counts.
pub struct EventQueue<P: Protocol> {
    /// Sorted descending by key; the back is the earliest pending event.
    /// Holds every pending event below the deepest rung's cursor.
    bottom: VecDeque<Entry<P>>,
    /// Child rungs, shallowest first. `rungs[0]` refines the calendar
    /// bucket before the calendar's cursor, `rungs[k + 1]` the bucket
    /// before `rungs[k]`'s.
    rungs: Vec<Rung<P>>,
    /// Retired child rungs (all buckets empty), kept for reuse.
    spare: Vec<Rung<P>>,
    /// The top rung.
    calendar: Rung<P>,
    /// Events at or beyond the calendar horizon, unsorted.
    overflow: Vec<Entry<P>>,
    /// Minimum event time (µs) in `overflow`; `u64::MAX` when empty.
    overflow_min: u64,
    /// Total pending events across bottom, rungs, calendar and overflow.
    len: usize,
    /// Work counters (external pushes/pops, overflow hits).
    stats: QueueStats,
    /// Sorts each drained bucket into the bottom, reusing its buffers.
    orderer: BucketOrderer,
    /// Entries moved inside the queue: sorted-insert shifts plus child-rung
    /// distributions. The work a push causes beyond its own O(1) append.
    #[cfg(test)]
    relocations: u64,
}

impl<P: Protocol> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> EventQueue<P> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            bottom: VecDeque::new(),
            rungs: Vec::new(),
            spare: Vec::new(),
            calendar: Rung::new(CAL_BUCKETS, INITIAL_BUCKET_SHIFT),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
            stats: QueueStats::default(),
            orderer: BucketOrderer::default(),
            #[cfg(test)]
            relocations: 0,
        }
    }

    /// This queue's work counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Enqueues an event.
    pub fn push(&mut self, key: EventKey, kind: EventKind<P>) {
        self.len += 1;
        self.stats.pushes += 1;
        self.place(key, kind);
    }

    /// Files an entry at the level its time belongs to. Shared by the
    /// counting [`EventQueue::push`] and by re-bases, so internal moves
    /// never count as queue traffic.
    fn place(&mut self, key: EventKey, kind: EventKind<P>) {
        let t = key.time.as_micros();
        // Deepest rung first: with short links that is where sends land.
        // A time beyond a child's range belongs to its parent, beyond the
        // calendar's to the overflow.
        let mut depth = self.rungs.len();
        loop {
            let rung = match depth {
                0 => &mut self.calendar,
                d => &mut self.rungs[d - 1],
            };
            // Earlier than the deepest rung's start: the bottom's.
            let Some(offset) = t.checked_sub(rung.start) else {
                break;
            };
            let idx = offset >> rung.shift;
            if idx >= rung.used as u64 {
                if depth == 0 {
                    self.stats.overflow_hits += 1;
                    self.overflow_min = self.overflow_min.min(t);
                    self.overflow.push((key, kind));
                    return;
                }
                depth -= 1;
                continue;
            }
            let idx = idx as usize;
            if idx < rung.cursor {
                // Inside the drained range (only the deepest rung can
                // see this: a parent is reached from beyond its drained
                // bucket). An empty bottom lets us retract the cursor to
                // the event's own bucket instead: this is the hot path
                // for barrier-exchanged batches, which land after the
                // previous window drained the bottom clean. Bulk bursts
                // then collect in a bucket and are sorted once.
                if !self.bottom.is_empty() {
                    break;
                }
                rung.cursor = idx;
            }
            rung.put(idx, (key, kind));
            return;
        }
        // Descending order: find the first entry not greater than the
        // new key.
        let at = self.bottom.partition_point(|e| e.0 > key);
        #[cfg(test)]
        {
            self.relocations += at.min(self.bottom.len() - at) as u64;
        }
        self.bottom.insert(at, (key, kind));
        if self.bottom.len() > SPLIT_THRESHOLD {
            self.split_bottom();
        }
    }

    /// Re-buckets an over-long bottom into child rungs until it is at
    /// most [`SPLIT_THRESHOLD`] long or cannot be divided (a single
    /// instant, 1 µs buckets, or only events older than every rung).
    ///
    /// Each step refines the deepest rung's last drained bucket — the
    /// range the bottom holds — into a child at 1/64 of its width. The
    /// child's first occupied bucket stays in the bottom (it is already
    /// sorted); everything later is distributed, O(1) per entry.
    fn split_bottom(&mut self) {
        while self.bottom.len() > SPLIT_THRESHOLD {
            let parent = self.rungs.last().unwrap_or(&self.calendar);
            let latest = self.bottom[0].0.time.as_micros();
            let earliest = self.bottom[self.bottom.len() - 1].0.time.as_micros();
            if parent.shift == 0 || parent.cursor == 0 || latest == earliest {
                return;
            }
            let start = parent.start + ((parent.cursor as u64 - 1) << parent.shift);
            if latest < start {
                return;
            }
            let shift = parent.shift.saturating_sub(CHILD_BITS);
            let used = 1usize << (parent.shift - shift);
            // Entries from before the parent's bucket (pushes into the
            // past) stay in the bottom with the cursor at 0.
            let cursor = earliest
                .checked_sub(start)
                .map_or(0, |offset| (offset >> shift) as usize + 1);
            let index_of = |e: &Entry<P>| {
                let offset = e.0.time.as_micros().checked_sub(start)?;
                Some((offset >> shift) as usize)
            };
            let moved = self
                .bottom
                .partition_point(|e| index_of(e).is_some_and(|i| i >= cursor));
            let mut child = self
                .spare
                .pop()
                .unwrap_or_else(|| Rung::new(1 << CHILD_BITS, 0));
            child.start = start;
            child.shift = shift;
            child.used = used;
            child.cursor = cursor;
            #[cfg(test)]
            {
                self.relocations += moved as u64;
            }
            // Ascending, as pushes arrive, so the child's buckets keep
            // their runs.
            for entry in self.bottom.drain(..moved).rev() {
                let i = index_of(&entry).expect("moved entries start inside the child");
                debug_assert!(i < used, "the bottom ends at the parent's cursor");
                child.put(i, entry);
            }
            self.rungs.push(child);
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(EventKey, EventKind<P>)> {
        if self.len == 0 {
            return None;
        }
        self.settle(None);
        self.len -= 1;
        self.stats.pops += 1;
        self.bottom.pop_back()
    }

    /// Removes the earliest event only if it fires strictly before `end`.
    ///
    /// One key comparison against the (already sorted) bottom, then an
    /// O(1) pop — no second peek. Settling is bounded by `end`: buckets
    /// holding nothing that fires before the cutoff are left unsorted, so
    /// the drain boundary never runs ahead of the caller's window and the
    /// next batch of pushes still appends in O(1).
    pub fn pop_before(&mut self, end: SimTime) -> Option<(EventKey, EventKind<P>)> {
        if self.len == 0 {
            return None;
        }
        self.settle(Some(end.as_micros()));
        if self.bottom.back()?.0.time < end {
            self.len -= 1;
            self.stats.pops += 1;
            self.bottom.pop_back()
        } else {
            None
        }
    }

    /// The firing time of the earliest pending event.
    pub fn next_time(&self) -> Option<SimTime> {
        if let Some(e) = self.bottom.back() {
            return Some(e.0.time);
        }
        // Levels nest deepest-earliest, and the overflow lies beyond the
        // calendar horizon. (An emptied child is retired by the next pop,
        // not here.)
        self.rungs
            .iter()
            .rev()
            .chain(std::iter::once(&self.calendar))
            .find_map(Rung::min_time)
            .or_else(|| {
                (!self.overflow.is_empty()).then(|| SimTime::from_micros(self.overflow_min))
            })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Refills the bottom until it holds the earliest pending event:
    /// drains the deepest rung's next bucket, retiring emptied child
    /// rungs and re-basing the calendar around the overflow once it is
    /// drained too. No-op when the bottom is non-empty or the queue is
    /// empty.
    ///
    /// With a `cutoff` (µs) it stops short of any bucket — or the
    /// overflow — holding nothing that fires before it; left unsorted,
    /// later pushes for that range stay O(1).
    fn settle(&mut self, cutoff: Option<u64>) {
        while self.bottom.is_empty() && self.len > 0 {
            let in_child = !self.rungs.is_empty();
            let rung = self.rungs.last_mut().unwrap_or(&mut self.calendar);
            match rung.next_occupied() {
                Some(i) => {
                    if let Some(cutoff) = cutoff {
                        let bucket_start = rung.start.saturating_add((i as u64) << rung.shift);
                        // A bucket straddling the cutoff is drained only
                        // if something in it actually fires this early.
                        if bucket_start >= cutoff
                            || rung.buckets[i]
                                .iter()
                                .all(|e| e.0.time.as_micros() >= cutoff)
                        {
                            return;
                        }
                    }
                    self.bottom = rung.drain(i, &mut self.orderer);
                }
                None if in_child => {
                    let retired = self.rungs.pop().expect("in a child rung");
                    self.spare.push(retired);
                }
                // Everything left is in the overflow; skip the re-base
                // when none of it fires before the cutoff.
                None if cutoff.is_some_and(|c| self.overflow_min >= c) => return,
                None => self.rebase(),
            }
        }
    }

    /// Rebuilds the calendar around the overflow's minimum, with a bucket
    /// width guessed from the overflow's time span.
    fn rebase(&mut self) {
        assert!(
            !self.overflow.is_empty(),
            "pending events unaccounted for: len says {} remain",
            self.len
        );
        debug_assert!(self.rungs.is_empty() && self.bottom.is_empty());
        let entries = std::mem::take(&mut self.overflow);
        let min = self.overflow_min;
        let max = entries
            .iter()
            .map(|e| e.0.time.as_micros())
            .max()
            .expect("non-empty overflow");
        // Width ≈ span / buckets, rounded up to a power of two so every
        // entry fits the new horizon (entries of a span wider than the
        // largest bucket geometry simply re-overflow — and count as
        // overflow hits again; the minimum always lands in bucket 0, so
        // each rebase makes progress).
        let width = (max - min) / CAL_BUCKETS as u64 + 1;
        self.calendar.shift = if width > 1 << MAX_BUCKET_SHIFT {
            MAX_BUCKET_SHIFT
        } else {
            width.next_power_of_two().trailing_zeros()
        };
        self.calendar.start = min;
        self.calendar.cursor = 0;
        self.overflow_min = u64::MAX;
        for (key, kind) in entries {
            self.place(key, kind);
        }
    }
}

impl<P: Protocol> EffectSink<P> for EventQueue<P> {
    fn emit(&mut self, key: EventKey, kind: EventKind<P>) {
        self.push(key, kind);
    }
}

/// Receives the events a [`Kernel`] produces while dispatching.
///
/// The sequential engine's sink is its own [`EventQueue`]; a shard's sink
/// pushes locally-addressed events onto its queue and stages cross-shard
/// deliveries in an outbox drained at the next window barrier.
pub trait EffectSink<P: Protocol> {
    /// Accepts one produced event.
    fn emit(&mut self, key: EventKey, kind: EventKind<P>);
}

/// Fate of one message handed to the network, as seen by a [`Probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// The network accepted the message and will deliver it at `at`
    /// (already floored at [`MIN_NETWORK_LATENCY`]).
    Delivered {
        /// The scheduled delivery instant.
        at: SimTime,
    },
    /// The network dropped the message.
    Lost,
}

/// One window's work, as one shard saw it — the single report an engine
/// gives a profiling [`Probe`] per window per shard.
///
/// On the sharded engine a window is one conservative barrier window:
/// every shard reports it, with the same `index`, `start`, `width` and
/// `straggler`, so the coordinator's view of a window is the fold of its
/// per-shard reports. The sequential engine reports each observed
/// `run_until_observed` call as one window with `straggler: None`.
///
/// Everything but the four wall-clock fields is deterministic; those are
/// host measurements and vary run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowWork {
    /// 1-based window number within the `run_until_observed` call.
    pub index: u64,
    /// Global minimum pending time when the window was issued.
    pub start: SimTime,
    /// Target window width in effect when the window was issued.
    pub width: SimDuration,
    /// The shard holding the global minimum when the window was issued —
    /// the shard whose pending work bounded every *other* shard's end, so
    /// the straggler the conservative scheduler waits on. `None` on the
    /// sequential engine, which has no barrier windows.
    pub straggler: Option<usize>,
    /// Exclusive conservative end issued to this shard.
    pub issued_end: SimTime,
    /// Exclusive virtual-time end the shard actually ran to: the issued
    /// end, tightened by its own cross-shard sends.
    pub end: SimTime,
    /// Events this shard executed inside the window.
    pub events: u64,
    /// Cross-shard mailbox messages this shard staged in the window.
    pub mailbox_msgs: u64,
    /// Payload bytes of those mailbox messages.
    pub mailbox_bytes: u64,
    /// Wall nanoseconds spent popping/dispatching.
    pub execute_ns: u64,
    /// Wall nanoseconds spent draining/sending mailbox batches (the
    /// non-blocking part of the exchange: queue pushes and channel
    /// sends).
    pub exchange_ns: u64,
    /// Wall nanoseconds blocked absorbing peers' next-window batches
    /// still in flight (pipeline fill — overlaps straggler execution).
    /// Zero on windows whose batches had already arrived.
    pub fill_ns: u64,
    /// Wall nanoseconds spent waiting for the window to be issued (the
    /// straggler stall at the reduction barrier).
    pub wait_ns: u64,
}

/// Protocol-assigned classification of one traced hop.
///
/// Every [`Protocol`] tags the hops it produces via
/// [`Protocol::trace_payload`], so a trace can distinguish a broker relay
/// from a gossip forward from a tree edge without knowing which
/// architecture produced it. Variants carry stable `u8` tags (see
/// [`HopKind::tag`]) so serialized traces stay comparable across builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HopKind {
    /// An epidemic push carrying application events (gossip round or
    /// publisher seed).
    GossipPush = 0,
    /// A handoff bridging a publisher into a group it is not part of.
    GossipHandoff = 1,
    /// A client submitting a publication to a broker hub.
    BrokerIngress = 2,
    /// A broker hub notifying one subscriber.
    BrokerNotify = 3,
    /// A hop routing an event toward a rendezvous/tree root.
    TreeToRoot = 4,
    /// A multicast-tree edge from parent to child.
    TreeEdge = 5,
    /// A DHT routing hop toward an index node.
    DhtRoute = 6,
    /// An infect-and-die flood inside a topic group.
    GroupFlood = 7,
    /// A stripe publication routed toward its stripe root.
    StripeToRoot = 8,
    /// A stripe-tree edge from parent to child.
    StripeEdge = 9,
}

impl HopKind {
    /// Stable serialization tag of this kind.
    pub const fn tag(self) -> u8 {
        self as u8
    }

    /// Short lowercase name, for tables and JSON export.
    pub const fn name(self) -> &'static str {
        match self {
            HopKind::GossipPush => "gossip-push",
            HopKind::GossipHandoff => "gossip-handoff",
            HopKind::BrokerIngress => "broker-ingress",
            HopKind::BrokerNotify => "broker-notify",
            HopKind::TreeToRoot => "tree-to-root",
            HopKind::TreeEdge => "tree-edge",
            HopKind::DhtRoute => "dht-route",
            HopKind::GroupFlood => "group-flood",
            HopKind::StripeToRoot => "stripe-to-root",
            HopKind::StripeEdge => "stripe-edge",
        }
    }
}

/// One application event's passage over one network hop.
///
/// Recorded on the *sender's* side at transmission time, so on a sharded
/// engine each hop is recorded exactly once — on the shard owning the
/// sender — regardless of where the receiver lives. Every field is
/// deterministic (virtual times, ids, sizes), so trace buffers are
/// partition-invariant and merge byte-identically across engines.
///
/// The derived `Ord` is the canonical trace order used to merge
/// shard-local buffers: `(send_time, from, to, event, kind, …)` — fully
/// identical records (possible when one callback retransmits the same
/// payload) compare equal and are interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HopRecord {
    /// Virtual time the sender handed the message to the network.
    pub send_time: SimTime,
    /// Sending node.
    pub from: u32,
    /// Destination node.
    pub to: u32,
    /// Packed application event id (publisher in the high word, the
    /// publisher's sequence number in the low word).
    pub event: u64,
    /// Topic the event belongs to.
    pub topic: u32,
    /// Protocol-assigned hop classification.
    pub kind: HopKind,
    /// Bytes this event contributed to the carrying message.
    pub bytes: u32,
    /// Scheduled delivery instant; `None` when the network dropped the
    /// message.
    pub deliver_time: Option<SimTime>,
}

/// Passive observation hooks over the execution substrate — the one
/// instrumentation seam both engines expose.
///
/// An observer watches the engine work without being able to influence
/// it: every hook receives copies of values the engine already computed,
/// so attaching one can never perturb the virtual-world outcome. It is
/// passed as one statically-dispatched parameter
/// ([`Kernel::dispatch_with`], `run_until_observed` on either engine), so
/// a hook nobody implements compiles to nothing and `()` — the null
/// observer — makes the whole seam free.
///
/// The virtual-world hooks (`on_event`, `on_send`, `on_receive`,
/// `on_liveness`) and the causal hook (`on_hop`) are deterministic and
/// fire identically on both engines; the one engine hook, `on_window`,
/// reports each window's work and host measurements. Hops and engine
/// measurements cost something to *produce* — a payload enumeration per
/// send, wall-clock reads — so they fire only for observers that ask
/// through [`traces`](Probe::traces) and [`profiles`](Probe::profiles).
///
/// Observers compose as data: `Option<T>` is `T` or nothing, `&mut T`
/// lends one, and a tuple forwards every hook to each member in order
/// (its predicates are the OR of its members'). On a sharded engine each
/// worker owns one observer and sees only the nodes its kernel owns, so
/// an implementation that wants global aggregates merges across shards
/// (`fed-telemetry`, `fed-profile` and `fed-trace` do, exactly).
///
/// Time-zero `on_init` effects run inside [`Kernel::new`], before any
/// observer can be attached, so they are consistently unobserved on every
/// engine; a *rejoin*'s init effects happen during dispatch and are seen.
pub trait Probe {
    /// One event is about to be dispatched at virtual time `now`.
    ///
    /// Fires once per processed event, before any effect of the event —
    /// matching the engines' `events_processed` accounting exactly.
    fn on_event(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Owned node `node` handed a `bytes`-sized message to the network at
    /// `now` (counted whether or not the network drops it — a lost
    /// message still cost the sender its bandwidth).
    fn on_send(&mut self, now: SimTime, node: NodeId, bytes: u64, fate: SendFate) {
        let _ = (now, node, bytes, fate);
    }

    /// A `bytes`-sized message was delivered to alive owned node `node`.
    fn on_receive(&mut self, now: SimTime, node: NodeId, bytes: u64) {
        let _ = (now, node, bytes);
    }

    /// Owned node `node` crashed (`alive == false`) or (re)joined
    /// (`alive == true`). Fires only on actual transitions — duplicate
    /// crash/join events are no-ops and stay invisible.
    fn on_liveness(&mut self, now: SimTime, node: NodeId, alive: bool) {
        let _ = (now, node, alive);
    }

    /// One application event crossed (or was dropped on) one hop: the
    /// kernel asks the protocol to enumerate the application events a
    /// sent message carries ([`Protocol::trace_payload`]) and reports one
    /// [`HopRecord`] per event. Fires only when [`Probe::traces`].
    fn on_hop(&mut self, hop: HopRecord) {
        let _ = hop;
    }

    /// One window completed on this shard (see [`WindowWork`]). Fires
    /// only when [`Probe::profiles`].
    fn on_window(&mut self, work: WindowWork) {
        let _ = work;
    }

    /// Whether this observer consumes [`Probe::on_window`]. The engines
    /// read wall clocks and size mailbox batches only when it does.
    fn profiles(&self) -> bool {
        false
    }

    /// Whether this observer consumes [`Probe::on_hop`]. The kernel
    /// enumerates [`Protocol::trace_payload`] only when it does.
    fn traces(&self) -> bool {
        false
    }
}

/// The null observer: sees nothing, asks for nothing.
impl Probe for () {}

/// Implements [`Probe`] for a composite observer: every hook goes to each
/// listed member in order, and the predicates are the OR of the members'.
/// A leading `let PATTERN = EXPR;` guards the members: where it does not
/// match there is nothing to forward to.
macro_rules! forward_probe {
    ([$($generics:tt)*] $ty:ty, |$this:ident| let $pat:pat = $src:expr; $($member:expr),+) => {
        forward_probe!(@impl [$($generics)*] $ty, $this, [$pat = $src], $($member),+);
    };
    ([$($generics:tt)*] $ty:ty, |$this:ident| $($member:expr),+) => {
        forward_probe!(@impl [$($generics)*] $ty, $this, [], $($member),+);
    };
    (@impl [$($generics:tt)*] $ty:ty, $this:ident, [$($pat:pat = $src:expr)?], $($member:expr),+) => {
        impl<$($generics)*> Probe for $ty {
            fn on_event(&mut self, now: SimTime) {
                let $this = self;
                $(let $pat = $src else { return };)?
                $($member.on_event(now);)+
            }
            fn on_send(&mut self, now: SimTime, node: NodeId, bytes: u64, fate: SendFate) {
                let $this = self;
                $(let $pat = $src else { return };)?
                $($member.on_send(now, node, bytes, fate);)+
            }
            fn on_receive(&mut self, now: SimTime, node: NodeId, bytes: u64) {
                let $this = self;
                $(let $pat = $src else { return };)?
                $($member.on_receive(now, node, bytes);)+
            }
            fn on_liveness(&mut self, now: SimTime, node: NodeId, alive: bool) {
                let $this = self;
                $(let $pat = $src else { return };)?
                $($member.on_liveness(now, node, alive);)+
            }
            fn on_hop(&mut self, hop: HopRecord) {
                let $this = self;
                $(let $pat = $src else { return };)?
                $($member.on_hop(hop);)+
            }
            fn on_window(&mut self, work: WindowWork) {
                let $this = self;
                $(let $pat = $src else { return };)?
                $($member.on_window(work);)+
            }
            fn profiles(&self) -> bool {
                let $this = self;
                $(let $pat = $src else { return false };)?
                $($member.profiles())||+
            }
            fn traces(&self) -> bool {
                let $this = self;
                $(let $pat = $src else { return false };)?
                $($member.traces())||+
            }
        }
    };
}

// `Some(x)` behaves as `x`, `None` as `()`.
forward_probe!([T: Probe] Option<T>, |o| let Some(p) = o; p);
forward_probe!([T: Probe + ?Sized] &mut T, |p| **p);
forward_probe!([A: Probe, B: Probe] (A, B), |t| t.0, t.1);
forward_probe!([A: Probe, B: Probe, C: Probe] (A, B, C), |t| t.0, t.1, t.2);

/// The deterministic random streams of one node.
#[derive(Debug, Clone)]
pub struct NodeStreams {
    /// Stream consumed by the node's protocol callbacks.
    pub rng: Xoshiro256StarStar,
    /// Stream consumed to decide the fate of the node's outgoing messages.
    pub net_rng: Xoshiro256StarStar,
}

/// Forks the per-node random streams for an `n`-node simulation.
///
/// Both engines call this with the full population so node `i`'s streams
/// depend only on `(seed, i)` — never on how nodes are partitioned into
/// shards.
pub fn seed_streams(seed: u64, n: usize) -> Vec<NodeStreams> {
    let mut root = Xoshiro256StarStar::seed_from_u64(seed);
    let mut net_master = root.fork();
    let rngs: Vec<Xoshiro256StarStar> = (0..n).map(|_| root.fork()).collect();
    rngs.into_iter()
        .map(|rng| NodeStreams {
            rng,
            net_rng: net_master.fork(),
        })
        .collect()
}

struct Slot<P> {
    state: P,
    rng: Xoshiro256StarStar,
    net_rng: Xoshiro256StarStar,
    alive: bool,
    incarnation: u32,
    /// Sequence counter stamped on events this node produces.
    next_seq: u64,
}

/// Node slots, transport accounting and network sampling for a (sub)set of
/// the simulated population.
///
/// The kernel executes protocol callbacks for the nodes it owns and turns
/// their side effects into keyed events emitted through an
/// [`EffectSink`]; it never owns an event queue, which is what makes it
/// reusable by both the sequential and the sharded engine.
///
/// It also owns the one [`LocalIds`] numbering its nodes share through
/// [`crate::Context::local_id`]: the sequential engine has one kernel,
/// the cluster one per shard.
pub struct Kernel<P: Protocol> {
    n_global: usize,
    owned: Vec<u32>,
    /// Global id → local slot index; `u32::MAX` when not owned.
    local: Vec<u32>,
    slots: Vec<Slot<P>>,
    stats: Vec<TransportStats>,
    net: NetworkModel,
    ids: LocalIds,
    scratch: Vec<Outgoing<P::Msg>>,
}

impl<P: Protocol> Kernel<P> {
    /// Builds a kernel owning `owned` (ascending global ids out of
    /// `0..n_global`), constructs each owned node via `factory` and runs
    /// its `on_init` at time zero, emitting init effects into `sink`.
    ///
    /// `streams` must hold one entry per owned node, in the same order,
    /// taken from [`seed_streams`] of the full population.
    ///
    /// # Panics
    ///
    /// Panics if `owned` and `streams` disagree in length or an id is out
    /// of range.
    pub fn new(
        n_global: usize,
        owned: Vec<u32>,
        streams: Vec<NodeStreams>,
        net: NetworkModel,
        factory: &mut dyn FnMut(NodeId, &mut Xoshiro256StarStar) -> P,
        sink: &mut dyn EffectSink<P>,
    ) -> Self {
        assert_eq!(owned.len(), streams.len(), "one stream pair per owned node");
        let mut local = vec![u32::MAX; n_global];
        let mut slots = Vec::with_capacity(owned.len());
        for (li, (&id, s)) in owned.iter().zip(streams).enumerate() {
            assert!((id as usize) < n_global, "owned id {id} out of range");
            local[id as usize] = li as u32;
            let mut rng = s.rng;
            let state = factory(NodeId::new(id), &mut rng);
            slots.push(Slot {
                state,
                rng,
                net_rng: s.net_rng,
                alive: true,
                incarnation: 0,
                next_seq: 0,
            });
        }
        let mut kernel = Kernel {
            n_global,
            stats: vec![TransportStats::default(); owned.len()],
            owned,
            local,
            slots,
            net,
            ids: LocalIds::default(),
            scratch: Vec::new(),
        };
        // Time-zero init effects run before any observer can be attached
        // (both engines attach observers per run call), so they are
        // consistently unobserved on every engine.
        for li in 0..kernel.owned.len() {
            let id = NodeId::new(kernel.owned[li]);
            kernel.invoke(li, id, Invoke::Init, SimTime::ZERO, sink, &mut ());
        }
        kernel
    }

    /// Total population size (across all shards).
    pub fn n_global(&self) -> usize {
        self.n_global
    }

    /// The global ids this kernel owns, ascending.
    pub fn owned_ids(&self) -> &[u32] {
        &self.owned
    }

    fn local_of(&self, id: NodeId) -> Option<usize> {
        match self.local.get(id.index()) {
            Some(&li) if li != u32::MAX => Some(li as usize),
            _ => None,
        }
    }

    /// Shared access to an owned node's protocol state (alive or crashed).
    pub fn node(&self, id: NodeId) -> Option<&P> {
        Some(&self.slots[self.local_of(id)?].state)
    }

    /// Iterates over `(id, state)` of every owned node, ascending by id.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.owned
            .iter()
            .zip(&self.slots)
            .map(|(&id, s)| (NodeId::new(id), &s.state))
    }

    /// Consumes the kernel into `(id, state)` of every owned node,
    /// ascending by id; everything else it held is dropped.
    pub fn into_nodes(self) -> impl Iterator<Item = (NodeId, P)> {
        self.owned
            .into_iter()
            .zip(self.slots)
            .map(|(id, s)| (NodeId::new(id), s.state))
    }

    /// Whether owned node `id` is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.local_of(id)
            .map(|li| self.slots[li].alive)
            .unwrap_or(false)
    }

    /// Transport statistics of an owned node.
    pub fn stats_of(&self, id: NodeId) -> Option<TransportStats> {
        self.local_of(id).map(|li| self.stats[li])
    }

    /// Transport statistics of owned nodes, in `owned_ids` order.
    pub fn stats_slice(&self) -> &[TransportStats] {
        &self.stats
    }

    /// The network model.
    pub fn net(&self) -> &NetworkModel {
        &self.net
    }

    /// Executes one event addressed to an owned node, emitting any produced
    /// events into `sink`. `obs` observes the event and its effects
    /// without being able to influence them (`&mut ()` observes nothing).
    ///
    /// The event's node is looked up once. Events for nodes this kernel
    /// does not own are ignored (the router upstream is responsible for
    /// addressing); for an owned node one `match` applies the liveness
    /// rules: a `Join` wakes a dead node with its state as it crashed, a
    /// new incarnation and `on_init` run again (and is a no-op on a live
    /// one), any other event for a dead node is dropped, a `Crash` marks
    /// the node dead, a timer armed by an earlier incarnation is dropped,
    /// and a message, timer or command runs the node's handler.
    pub fn dispatch_with<O: Probe>(
        &mut self,
        key: EventKey,
        kind: EventKind<P>,
        sink: &mut dyn EffectSink<P>,
        obs: &mut O,
    ) {
        let now = key.time;
        obs.on_event(now);
        let node = kind.dest();
        let Some(li) = self.local_of(node) else {
            return;
        };
        let slot = &mut self.slots[li];
        let what = match kind {
            EventKind::Join(_) if !slot.alive => {
                slot.alive = true;
                slot.incarnation = slot.incarnation.wrapping_add(1);
                obs.on_liveness(now, node, true);
                Invoke::Init
            }
            _ if !slot.alive => return,
            EventKind::Join(_) => return,
            EventKind::Crash(_) => {
                slot.alive = false;
                obs.on_liveness(now, node, false);
                return;
            }
            EventKind::Timer { incarnation, .. } if incarnation != slot.incarnation => return,
            EventKind::Timer { token, .. } => Invoke::Timer(token),
            EventKind::Command { cmd, .. } => Invoke::Command(cmd),
            EventKind::Deliver { from, msg, .. } => {
                let size = P::message_size(&msg) as u64;
                self.stats[li].msgs_received += 1;
                self.stats[li].bytes_received += size;
                obs.on_receive(now, node, size);
                Invoke::Message { from, msg }
            }
        };
        self.invoke(li, node, what, now, sink, obs);
    }

    /// [`Kernel::dispatch_with`] behind the seven-parameter signature of
    /// the three-hook era: the slots compose into one tuple observer.
    /// `_factory` is ignored: a rejoin wakes the node it crashed, so no
    /// node is built after [`Kernel::new`].
    ///
    /// Kept only because the frozen benchmark (`fedbench/src/layers.rs`,
    /// `sim.kernel.dispatch_noop_ns`) compiles exactly this call with
    /// `None, None, None`; it is this function's one caller, and nothing
    /// under `crates/`, `src/`, `tests/` or `examples/` may become a
    /// second. The next PR allowed to edit `fedbench/` moves that probe
    /// to `dispatch_with(.., &mut ())` and deletes this.
    #[allow(clippy::too_many_arguments)] // frozen signature, see above
    pub fn dispatch(
        &mut self,
        key: EventKey,
        kind: EventKind<P>,
        _factory: &mut dyn FnMut(NodeId, &mut Xoshiro256StarStar) -> P,
        sink: &mut dyn EffectSink<P>,
        probe: Option<&mut dyn Probe>,
        profiler: Option<&mut dyn Probe>,
        tracer: Option<&mut dyn Probe>,
    ) {
        self.dispatch_with(key, kind, sink, &mut (probe, profiler, tracer));
    }

    /// Runs one handler of `node`, which sits in slot `li`, and turns its
    /// effects into events.
    fn invoke(
        &mut self,
        li: usize,
        node: NodeId,
        what: Invoke<P>,
        now: SimTime,
        sink: &mut dyn EffectSink<P>,
        obs: &mut impl Probe,
    ) {
        debug_assert!(self.scratch.is_empty());
        let n = self.n_global;
        let mut effects = std::mem::take(&mut self.scratch);
        {
            let slot = &mut self.slots[li];
            let state = &mut slot.state;
            let mut ctx = Context {
                node,
                now,
                n,
                rng: &mut slot.rng,
                ids: &mut self.ids,
                outbox: &mut effects,
            };
            match what {
                Invoke::Init => state.on_init(&mut ctx),
                Invoke::Message { from, msg } => state.on_message(&mut ctx, from, msg),
                Invoke::Timer(token) => state.on_timer(&mut ctx, token),
                Invoke::Command(cmd) => state.on_command(&mut ctx, cmd),
            }
        }
        let incarnation = self.slots[li].incarnation;
        for effect in effects.drain(..) {
            match effect {
                Outgoing::Send { to, msg } => {
                    let size = P::message_size(&msg) as u64;
                    self.stats[li].msgs_sent += 1;
                    self.stats[li].bytes_sent += size;
                    let slot = &mut self.slots[li];
                    let at = self
                        .net
                        .transmit(&mut slot.net_rng, now, node.index(), to.index())
                        .map(|latency| now.saturating_add(latency.max(MIN_NETWORK_LATENCY)));
                    let fate = at.map_or(SendFate::Lost, |at| SendFate::Delivered { at });
                    obs.on_send(now, node, size, fate);
                    if obs.traces() {
                        P::trace_payload(&msg, &mut |event, topic, bytes, kind| {
                            obs.on_hop(HopRecord {
                                send_time: now,
                                from: node.as_u32(),
                                to: to.as_u32(),
                                event,
                                topic,
                                kind,
                                bytes,
                                deliver_time: at,
                            });
                        });
                    }
                    let Some(at) = at else {
                        self.stats[li].msgs_lost += 1;
                        continue;
                    };
                    let seq = slot.next_seq;
                    slot.next_seq += 1;
                    sink.emit(
                        EventKey {
                            time: at,
                            src: node.as_u32(),
                            seq,
                        },
                        EventKind::Deliver {
                            to,
                            from: node,
                            msg,
                        },
                    );
                }
                Outgoing::Timer { delay, token } => {
                    let slot = &mut self.slots[li];
                    let seq = slot.next_seq;
                    slot.next_seq += 1;
                    sink.emit(
                        EventKey {
                            time: now + delay,
                            src: node.as_u32(),
                            seq,
                        },
                        EventKind::Timer {
                            node,
                            token,
                            incarnation,
                        },
                    );
                }
            }
        }
        self.scratch = effects;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal protocol for queue-only tests.
    struct Nop;
    impl Protocol for Nop {
        type Msg = ();
        type Cmd = u64;
        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
    }

    fn cmd(key: EventKey, tag: u64) -> (EventKey, EventKind<Nop>) {
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
            _ => panic!("expected command"),
        }
    }

    /// The heap's reversed comparator must pop events earliest-time-first
    /// even though `BinaryHeap` itself is a max-heap.
    #[test]
    fn queue_pops_earliest_time_first() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        for (i, ms) in [30u64, 10, 20, 40, 5].iter().enumerate() {
            let key = EventKey {
                time: SimTime::from_millis(*ms),
                src: EXTERNAL_SRC,
                seq: i as u64,
            };
            let (key, kind) = cmd(key, *ms);
            q.push(key, kind);
        }
        let mut popped = Vec::new();
        while let Some((key, kind)) = q.pop() {
            popped.push((key.time.as_millis(), tag_of(&kind)));
        }
        assert_eq!(popped, vec![(5, 5), (10, 10), (20, 20), (30, 30), (40, 40)]);
    }

    /// Equal-time events from one producer pop in insertion (sequence)
    /// order — the property the old global-seq comparator provided and the
    /// canonical key must preserve.
    #[test]
    fn queue_preserves_insertion_order_at_equal_times() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        let t = SimTime::from_millis(7);
        for seq in [3u64, 0, 2, 1] {
            let key = EventKey {
                time: t,
                src: EXTERNAL_SRC,
                seq,
            };
            let (key, kind) = cmd(key, seq);
            q.push(key, kind);
        }
        let mut tags = Vec::new();
        while let Some((_, kind)) = q.pop() {
            tags.push(tag_of(&kind));
        }
        assert_eq!(tags, vec![0, 1, 2, 3], "per-source seq breaks time ties");
    }

    /// At equal times, lower-numbered producers win, and only then the
    /// per-producer sequence — the full canonical `(time, src, seq)` order.
    #[test]
    fn queue_orders_sources_before_sequences() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        let t = SimTime::from_millis(1);
        let entries = [(2u32, 0u64, 20u64), (1, 1, 11), (1, 0, 10), (2, 1, 21)];
        for (src, seq, tag) in entries {
            let key = EventKey { time: t, src, seq };
            let (key, kind) = cmd(key, tag);
            q.push(key, kind);
        }
        let mut tags = Vec::new();
        while let Some((_, kind)) = q.pop() {
            tags.push(tag_of(&kind));
        }
        assert_eq!(tags, vec![10, 11, 20, 21]);
    }

    /// Far-future events overflow the initial calendar epoch and force a
    /// re-base (possibly several); pop order must remain the exact key
    /// order across every epoch boundary.
    #[test]
    fn far_future_rollover_preserves_order() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        // Times spanning twelve orders of magnitude: same epoch,
        // next-epoch, and far beyond the widest bucket geometry.
        let times: [u64; 9] = [
            0,
            1,
            4_095,
            4_096,
            3_000_000,
            2_200_000_000,
            2_200_000_001,
            10_u64.pow(13),
            u64::MAX - 1,
        ];
        for (seq, us) in times.iter().rev().enumerate() {
            let key = EventKey {
                time: SimTime::from_micros(*us),
                src: EXTERNAL_SRC,
                seq: seq as u64,
            };
            let (key, kind) = cmd(key, *us);
            q.push(key, kind);
        }
        let mut popped = Vec::new();
        while let Some((key, _)) = q.pop() {
            popped.push(key.time.as_micros());
        }
        assert_eq!(popped, times.to_vec());
    }

    /// A push earlier than the queue's current front range (allowed by the
    /// API, like the old heap) still pops first.
    #[test]
    fn push_into_the_past_pops_first() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        for (seq, us) in [50_000u64, 60_000].iter().enumerate() {
            let key = EventKey {
                time: SimTime::from_micros(*us),
                src: EXTERNAL_SRC,
                seq: seq as u64,
            };
            let (key, kind) = cmd(key, *us);
            q.push(key, kind);
        }
        // Advance the front past 50ms...
        let (key, _) = q.pop().expect("first event");
        assert_eq!(key.time.as_micros(), 50_000);
        // ...then push an event behind the pop point.
        let key = EventKey {
            time: SimTime::from_micros(10),
            src: EXTERNAL_SRC,
            seq: 9,
        };
        let (key, kind) = cmd(key, 10);
        q.push(key, kind);
        let (key, _) = q.pop().expect("past event");
        assert_eq!(key.time.as_micros(), 10, "past push must pop next");
        let (key, _) = q.pop().expect("last event");
        assert_eq!(key.time.as_micros(), 60_000);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_respects_exclusive_bound() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        let key = EventKey {
            time: SimTime::from_millis(10),
            src: EXTERNAL_SRC,
            seq: 0,
        };
        let (key, kind) = cmd(key, 1);
        q.push(key, kind);
        assert!(
            q.pop_before(SimTime::from_millis(10)).is_none(),
            "exclusive"
        );
        assert!(q.pop_before(SimTime::from_micros(10_001)).is_some());
        assert!(q.is_empty());
    }

    /// An event exactly at a window's (exclusive) end boundary belongs to
    /// the *next* window: popping `[5, 10)` then `[10, 15)` partitions
    /// events at 9, 10 and 11 ms with no loss and no duplication.
    #[test]
    fn window_boundary_event_lands_in_next_window() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        for (seq, ms) in [9u64, 10, 11].iter().enumerate() {
            let key = EventKey {
                time: SimTime::from_millis(*ms),
                src: EXTERNAL_SRC,
                seq: seq as u64,
            };
            let (key, kind) = cmd(key, *ms);
            q.push(key, kind);
        }
        let mut first = Vec::new();
        while let Some((key, _)) = q.pop_before(SimTime::from_millis(10)) {
            first.push(key.time.as_millis());
        }
        assert_eq!(first, vec![9], "boundary event must not leak backwards");
        let mut second = Vec::new();
        while let Some((key, _)) = q.pop_before(SimTime::from_millis(15)) {
            second.push(key.time.as_millis());
        }
        assert_eq!(second, vec![10, 11]);
        assert!(q.is_empty(), "windows cover the event set exactly once");
    }

    /// `pop_before` at or below the head's time repeatedly returns `None`
    /// without consuming anything — a stalled window makes no progress
    /// but also loses no events.
    #[test]
    fn pop_before_never_consumes_on_refusal() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        let key = EventKey {
            time: SimTime::from_millis(5),
            src: 3,
            seq: 0,
        };
        let (key, kind) = cmd(key, 1);
        q.push(key, kind);
        for _ in 0..3 {
            assert!(q.pop_before(SimTime::from_millis(5)).is_none());
            assert_eq!(q.len(), 1, "refused pop must not consume");
        }
        assert_eq!(q.next_time(), Some(SimTime::from_millis(5)));
    }

    fn at(us: u64, src: u32, seq: u64) -> EventKey {
        EventKey {
            time: SimTime::from_micros(us),
            src,
            seq,
        }
    }

    /// Pops everything left, asserting strictly ascending keys; returns
    /// how many events came out.
    fn drain_in_order(q: &mut EventQueue<Nop>, mut last: Option<EventKey>) -> usize {
        let mut n = 0;
        while let Some((key, _)) = q.pop() {
            assert!(Some(key) > last, "{key:?} popped after {last:?}");
            last = Some(key);
            n += 1;
        }
        n
    }

    /// A hold model far denser than the calendar's buckets: `pending`
    /// events within `delay` µs of `origin`, every pop re-pushed `delay`
    /// later. Returns the last popped key and the deepest rung nesting
    /// seen.
    fn hold(
        q: &mut EventQueue<Nop>,
        origin: u64,
        pending: u64,
        delay: u64,
        ops: u64,
    ) -> (Option<EventKey>, usize) {
        for seq in 0..pending {
            let (key, kind) = cmd(at(origin + (seq * 7) % delay, 0, seq), seq);
            q.push(key, kind);
        }
        let mut last = None;
        let mut depth = 0;
        for seq in pending..pending + ops {
            let (key, _) = q.pop().expect("hold model keeps the queue full");
            assert!(Some(key) > last, "{key:?} popped after {last:?}");
            last = Some(key);
            let (key, kind) = cmd(at(key.time.as_micros() + delay, 0, seq), seq);
            q.push(key, kind);
            depth = depth.max(q.rungs.len());
        }
        (last, depth)
    }

    /// A burst at one instant cannot be divided by any bucket width: it
    /// stays in the bottom, however long, and still pops by `(src, seq)`.
    #[test]
    fn same_instant_burst_stays_ordered_without_splitting() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        let (key, kind) = cmd(at(10, 0, 0), 0);
        q.push(key, kind);
        // Scrambled (src, seq): 2 500 before the instant's bucket is
        // drained, 2 500 into the sorted bottom after.
        let burst = |q: &mut EventQueue<Nop>, range: std::ops::Range<u64>| {
            for i in range {
                let j = (i * 2_741) % 5_000;
                let (key, kind) = cmd(at(20, (j % 50) as u32, j / 50), j);
                q.push(key, kind);
            }
        };
        burst(&mut q, 0..2_500);
        let (first, _) = q.pop().expect("the early event");
        assert_eq!(first.time.as_micros(), 10);
        burst(&mut q, 2_500..5_000);
        assert!(q.rungs.is_empty(), "one instant must not be re-bucketed");
        assert_eq!(drain_in_order(&mut q, Some(first)), 5_000);
    }

    /// Pushes at a drained single instant that sort after all of it (larger
    /// `(src, seq)`) land at the front of the descending bottom: each moves
    /// nothing, however long the burst, and the pop order is still exact.
    #[test]
    fn a_same_instant_push_ahead_of_the_burst_moves_nothing() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        let (key, kind) = cmd(at(10, 0, 0), 0);
        q.push(key, kind);
        for seq in 0..5_000u64 {
            let (key, kind) = cmd(at(20, 1, seq), seq);
            q.push(key, kind);
        }
        let (first, _) = q.pop().expect("the early event");
        assert_eq!(first, at(10, 0, 0));
        assert_eq!(q.bottom.len(), 5_000, "the burst is the drained bottom");
        let before = q.relocations;
        for seq in 0..1_000u64 {
            let (key, kind) = cmd(at(20, 2, seq), seq);
            q.push(key, kind);
        }
        let per_push = (q.relocations - before) as f64 / 1_000.0;
        assert!(per_push <= 1.0, "{per_push} entries relocated per push");
        let expect: Vec<EventKey> = (0..5_000u64)
            .map(|seq| at(20, 1, seq))
            .chain((0..1_000u64).map(|seq| at(20, 2, seq)))
            .collect();
        let popped: Vec<EventKey> = std::iter::from_fn(|| q.pop().map(|(key, _)| key)).collect();
        assert_eq!(popped, expect);
    }

    /// `pushes`/`pops` count external traffic only — across a re-base
    /// (which re-files the overflow) and a rung split (which re-files the
    /// bottom) — while `overflow_hits` counts every park beyond the
    /// horizon, re-parks included.
    #[test]
    fn stats_count_external_traffic_across_rebase_and_split() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        // 300 events past the first epoch's ~2.1 s horizon plus one so far
        // out that the re-base parks it again: 301 + 1 overflow hits.
        for seq in 0..300u64 {
            let (key, kind) = cmd(at(3_000_000 + seq, 0, seq), seq);
            q.push(key, kind);
        }
        let (key, kind) = cmd(at(1 << 60, 0, 300), 300);
        q.push(key, kind);
        let mut last = None;
        for seq in 301..341u64 {
            let (key, _) = q.pop().expect("pending");
            assert!(Some(key) > last);
            last = Some(key);
            // Inside the drained bucket: sorted inserts, then a split.
            let (key, kind) = cmd(at(3_000_200 + seq, 1, seq), seq);
            q.push(key, kind);
        }
        assert!(!q.rungs.is_empty(), "a 300-entry bottom must have split");
        let expect = QueueStats {
            pushes: 341,
            pops: 40,
            overflow_hits: 302,
        };
        assert_eq!(q.stats(), expect);
        assert_eq!(q.len(), 301);
        assert_eq!(drain_in_order(&mut q, last), 301);
        assert_eq!(q.stats().pops, 341);
    }

    /// A refused `pop_before` consumes nothing and moves nothing while
    /// child rungs are live, at whichever level the head happens to sit.
    #[test]
    fn pop_before_never_consumes_on_refusal_with_live_rungs() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        let (mut last, _) = hold(&mut q, 0, 1_000, 500, 3_000);
        assert!(!q.rungs.is_empty(), "the hold model must have split");
        while !q.is_empty() {
            let head = q.next_time().expect("pending");
            let len = q.len();
            for _ in 0..2 {
                assert!(q.pop_before(head).is_none(), "bound is exclusive");
                assert_eq!((q.len(), q.next_time()), (len, Some(head)));
            }
            // Take the head's whole instant, then refuse again.
            let end = head + SimDuration::from_micros(1);
            while let Some((key, _)) = q.pop_before(end) {
                assert!(Some(key) > last && key.time == head);
                last = Some(key);
            }
            assert!(q.len() < len);
        }
    }

    /// Events at the very end of time, with a child rung live there: no
    /// position arithmetic may wrap, `pop_before(SimTime::MAX)` must leave
    /// the events due exactly at `SimTime::MAX`, and a push at
    /// `SimTime::MAX` after its bucket was drained must not get lost.
    #[test]
    fn saturation_edge_with_live_rung() {
        const MAX: u64 = u64::MAX;
        let mut q: EventQueue<Nop> = EventQueue::new();
        // The early event makes the re-base pick 2 µs buckets with
        // MAX - 1 and MAX sharing one.
        let (key, kind) = cmd(at(MAX - 1_001, 0, 0), 0);
        q.push(key, kind);
        for seq in 0..150u64 {
            for t in [MAX - 1, MAX] {
                let (key, kind) = cmd(at(t, 1, seq), seq);
                q.push(key, kind);
            }
        }
        let (first, _) = q.pop().expect("the early event");
        assert_eq!(first.time.as_micros(), MAX - 1_001);
        let (second, _) = q.pop().expect("first of MAX - 1");
        assert_eq!(second, at(MAX - 1, 1, 0));
        // Into the drained bucket: splits it into 1 µs buckets.
        for (t, seq) in [(MAX, 150), (MAX - 1, 150), (MAX, 151)] {
            let (key, kind) = cmd(at(t, 1, seq), seq);
            q.push(key, kind);
        }
        assert!(
            !q.rungs.is_empty(),
            "a 300-entry two-instant bottom must split"
        );
        let mut last = Some(second);
        let mut before_max = 0;
        while let Some((key, _)) = q.pop_before(SimTime::MAX) {
            assert!(Some(key) > last);
            last = Some(key);
            before_max += 1;
        }
        assert_eq!(before_max, 150, "149 left at MAX - 1 plus the late push");
        assert_eq!(q.next_time(), Some(SimTime::MAX));
        assert_eq!(drain_in_order(&mut q, last), 152);
    }

    /// The geometry that made in-range pushes quadratic: one event near
    /// the end of time makes the re-base pick the widest buckets
    /// (2^44 µs), so a millisecond-scale hold model lives entirely inside
    /// one drained bucket. Child rungs must keep the work per push
    /// constant (a sorted bottom alone shifts ~1 600 entries per push
    /// here).
    #[test]
    fn relocations_per_push_stay_constant_in_coarse_buckets() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        let (key, kind) = cmd(at(u64::MAX - 1, 9, 0), 0);
        q.push(key, kind);
        // Past the first epoch's horizon, so the first pop re-bases.
        let (_, depth) = hold(&mut q, 3_000_000, 4_096, 1_000, 50_000);
        assert_eq!(q.calendar.shift, MAX_BUCKET_SHIFT);
        assert!(depth >= 2, "rungs nested {depth} deep");
        assert!(depth <= 8, "rungs nested {depth} deep");
        let per_push = q.relocations as f64 / 50_000.0;
        assert!(per_push < 4.0, "{per_push} entries relocated per push");
        assert_eq!(drain_in_order(&mut q, None), 4_097);
    }

    /// Pushes a flood wave as the kernel does: 400 sources in scrambled
    /// order, each one run of five consecutive `seq` at `time(src)`. The
    /// source `split`, if any, pushes its run as two interleaving halves
    /// (evens, then odds). Returns the wave's keys, sorted.
    fn push_wave(
        q: &mut EventQueue<Nop>,
        time: impl Fn(u32) -> u64,
        split: Option<u32>,
    ) -> Vec<EventKey> {
        let mut keys = Vec::new();
        for i in 0..400u32 {
            let src = (i * 263) % 400;
            let mut seqs: Vec<u64> = (0..5).collect();
            if split == Some(src) {
                seqs.sort_by_key(|s| (s % 2, *s));
            }
            for seq in seqs {
                let (key, kind) = cmd(at(time(src), src, seq), seq);
                q.push(key, kind);
                keys.push(key);
            }
        }
        keys.sort_unstable();
        keys
    }

    fn pop_all(q: &mut EventQueue<Nop>) -> Vec<EventKey> {
        std::iter::from_fn(|| q.pop().map(|(key, _)| key)).collect()
    }

    /// A single-instant wave of 400 runs of 5 is one calendar bucket; its
    /// drain orders the runs instead of sorting the entries.
    #[test]
    fn a_single_instant_wave_drains_by_its_runs() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        let keys = push_wave(&mut q, |_| 10_000, None);
        assert_eq!(pop_all(&mut q), keys);
        assert_eq!(q.orderer.by_runs, 1);
    }

    /// One source whose run arrives as two interleaving halves: ordering
    /// by run heads would be wrong, so the drain sorts the entries.
    #[test]
    fn an_interleaved_wave_falls_back_to_sorting() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        let keys = push_wave(&mut q, |_| 10_000, Some(17));
        assert_eq!(pop_all(&mut q), keys);
        assert_eq!(q.orderer.by_runs, 0);
    }

    /// A wave into the drained range while the bottom is busy splits the
    /// bottom into a child rung. The split re-buckets in ascending order,
    /// so each `(time, src)` keeps ascending `seq` in its child bucket, and
    /// that bucket's drain still goes by runs.
    #[test]
    fn a_bottom_split_keeps_runs_ascending() {
        let mut q: EventQueue<Nop> = EventQueue::new();
        for seq in 0..2 {
            let (key, kind) = cmd(at(10 + seq, 0, 100 + seq), seq);
            q.push(key, kind);
        }
        let (first, _) = q.pop().expect("the early event");
        let keys = push_wave(&mut q, |src| 100 + u64::from(src % 4), None);
        let child = q.rungs.last().expect("the bottom split");
        let mut last_seq = std::collections::HashMap::new();
        let mut bucketed = 0;
        for entry in child.buckets.iter().flatten() {
            let (key, _) = entry;
            let last = last_seq.insert((key.time, key.src), key.seq);
            assert!(last < Some(key.seq), "{key:?} after seq {last:?}");
            bucketed += 1;
        }
        assert_eq!(bucketed, keys.len(), "the whole wave is in the child");
        let popped = pop_all(&mut q);
        assert_eq!(popped[0], at(11, 0, 101));
        assert_eq!(popped[1..], keys[..]);
        assert!(first < popped[0] && q.orderer.by_runs >= 1);
    }

    /// A zero-latency network still yields a positive conservative
    /// lookahead: `min_latency` floors at [`MIN_NETWORK_LATENCY`], so a
    /// window `[W, W + lookahead)` always has positive width and a
    /// sharded engine can always make progress.
    #[test]
    fn zero_latency_model_has_positive_lookahead() {
        use crate::network::LatencyModel;
        let zero = NetworkModel::reliable(LatencyModel::Constant(SimDuration::ZERO));
        assert_eq!(zero.min_latency(), MIN_NETWORK_LATENCY);
        assert!(zero.min_latency() > SimDuration::ZERO);
        // Heavy-tailed models with no positive infimum get the same floor.
        let heavy = NetworkModel::reliable(LatencyModel::LogNormalMs {
            median_ms: 10.0,
            sigma: 1.0,
            floor: SimDuration::ZERO,
        });
        assert_eq!(heavy.min_latency(), MIN_NETWORK_LATENCY);
    }

    /// The kernel floors zero-sampled delivery latencies at
    /// [`MIN_NETWORK_LATENCY`]: nothing is delivered in zero virtual
    /// time, so an in-window send can never be due inside its own window.
    #[test]
    fn kernel_floors_zero_latency_deliveries() {
        use crate::network::LatencyModel;

        /// Sends one message to node 1 on init.
        struct SendOnce;
        impl Protocol for SendOnce {
            type Msg = ();
            type Cmd = ();
            fn on_init(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.id() == NodeId::new(0) {
                    ctx.send(NodeId::new(1), ());
                }
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
        }

        let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::ZERO));
        let mut queue: EventQueue<SendOnce> = EventQueue::new();
        let mut factory = |_: NodeId, _: &mut Xoshiro256StarStar| SendOnce;
        let _kernel = Kernel::new(
            2,
            vec![0, 1],
            seed_streams(1, 2),
            net,
            &mut factory,
            &mut queue,
        );
        let (key, kind) = queue.pop().expect("init produced one send");
        assert!(matches!(kind, EventKind::Deliver { .. }));
        assert_eq!(
            key.time,
            SimTime::ZERO + MIN_NETWORK_LATENCY,
            "zero-latency delivery must be floored, not instantaneous"
        );
        assert!(queue.is_empty());
    }

    #[test]
    fn seed_streams_are_partition_independent() {
        let all = seed_streams(9, 8);
        let again = seed_streams(9, 8);
        for (a, b) in all.iter().zip(&again) {
            assert_eq!(a.rng.state(), b.rng.state());
            assert_eq!(a.net_rng.state(), b.net_rng.state());
        }
        // Distinct nodes get distinct streams.
        assert_ne!(all[0].rng.state(), all[1].rng.state());
        assert_ne!(all[0].net_rng.state(), all[1].net_rng.state());
    }
}
