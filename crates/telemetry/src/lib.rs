//! # fed-telemetry
//!
//! Deterministic streaming time-series observability for both simulation
//! engines: a [`ShardCollector`] plugs into the execution substrate's
//! [`Probe`] hooks, samples the run on fixed
//! virtual-time windows and emits a [`TelemetrySeries`] — per-window
//! fairness indices over forwarding contributions, per-node forward-load
//! histograms, scheduled-delivery-latency percentiles and live/crashed
//! population counts.
//!
//! ## Determinism contract
//!
//! The series is **byte-identical** between the sequential engine and the
//! sharded `fed-cluster` runtime at any shard count, because the pipeline
//! is built from exact, order-insensitive pieces:
//!
//! * every per-window accumulator is an **integer** (counts, sums of
//!   counts, sums of squares, mins/maxes, histogram buckets), so merging
//!   shard-local collectors is exact, associative and commutative —
//!   asserted by this crate's property tests;
//! * each shard observes only the nodes it owns and processes them in
//!   virtual-time order, so a window's fold happens after exactly the
//!   events with `time < window end` — the same set on every engine;
//! * the floating-point *views* (Jain index, Gini coefficient, latency
//!   percentiles) are derived from the merged integer state in one
//!   canonical order at reporting time, never accumulated across threads.
//!
//! Windows are `[w·W, (w+1)·W)` for the spec's width `W`; an event at
//! exactly a boundary belongs to the later window. The window width is
//! also the overhead knob: the only per-window cost is one O(owned
//! nodes) fold per shard, so wider windows cost less.
//!
//! Per event an engine calls about three hooks. The open window's
//! accumulator is a field of the collector, so a hook is one compare of
//! `now` against the window's end, its integer increments and — for a
//! send — one latency-histogram record; the window map is touched only
//! for a delivery that lands in a later window and once per window close
//! (no division, no map lookup otherwise). fedbench's
//! `telemetry.probe_call_ns` on the 2-core recording box: 12–16 ns for
//! the map-per-hook collector this replaced (kept as the `cfg(test)`
//! `reference` module the differential tests compare against), 2.5–5 ns
//! now.
//!
//! ## What is measured
//!
//! * **Forward load** — per-node transmission attempts within the window
//!   (lost messages included: a drop still cost the sender), folded over
//!   the nodes *alive at window close* into exact `Σx`, `Σx²`, min, max
//!   and a bucketed histogram. Jain, Gini and max/min over these counts
//!   equal the same indices over contribution ratios normalized by the
//!   window mean (all three are scale-invariant).
//! * **Scheduled delivery latency** — recorded at send time, bucketed
//!   into the window of the *scheduled delivery instant*; samples whose
//!   delivery falls past the run horizon still appear (trailing
//!   windows), which keeps send-side and delivery-side views consistent
//!   across engines.
//! * **Traffic and population** — events processed, messages/bytes
//!   sent/received, losses, live/crashed counts at window close.
//!
//! Time-zero `on_init` effects run during engine construction, before a
//! probe can be attached, and are consistently unobserved on every
//! engine (their deliveries *are* observed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod membership;
#[cfg(test)]
mod reference;

use fed_sim::exec::{Probe, SendFate};
use fed_sim::protocol::NodeId;
use fed_sim::time::{SimDuration, SimTime};
use fed_util::histogram::Histogram;
use std::collections::BTreeMap;

/// Upper bound (exclusive) of the per-node forward-load histogram:
/// `[0, LOAD_HI)` in `LOAD_BUCKETS` unit-width buckets plus an overflow
/// bucket. Unit width captures integer forward counts below 64 exactly,
/// which (together with the exact residual mass for the overflow) keeps
/// the derived Gini faithful even for hotspot architectures.
const LOAD_HI: f64 = 64.0;
/// Bucket count of the forward-load histogram.
const LOAD_BUCKETS: usize = 64;
/// Upper bound (exclusive, milliseconds) of the delivery-latency
/// histogram.
const LATENCY_HI_MS: f64 = 200.0;
/// Bucket count of the delivery-latency histogram.
const LATENCY_BUCKETS: usize = 40;

/// Configuration of the telemetry pipeline, fixed for a whole run.
///
/// The histogram geometry is fixed (forward load: 64 unit buckets over
/// `[0, 64)`; latency: 40 buckets over `[0, 200)` ms; each plus an
/// overflow bucket), so shard-local sketches are always mergeable; two
/// series compare equal only if their windows agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySpec {
    /// Sampling window width (must be positive). Doubles as the overhead
    /// knob: the per-window fold is the only O(nodes) cost.
    pub window: SimDuration,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec {
            window: SimDuration::from_millis(500),
        }
    }
}

impl TelemetrySpec {
    /// Returns the spec with a different window width.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Checks a spec without panicking — the validation entry point for
    /// declarative sources like `fed-workload`'s scenario files, which
    /// must turn a bad `[telemetry]` section into an actionable parse
    /// error rather than a collector panic.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description when the window is not
    /// positive.
    pub fn checked(spec: TelemetrySpec) -> Result<TelemetrySpec, String> {
        if spec.window <= SimDuration::ZERO {
            return Err("telemetry window must be positive".to_string());
        }
        Ok(spec)
    }

    fn validate(&self) {
        if let Err(e) = TelemetrySpec::checked(*self) {
            panic!("{e}");
        }
    }
}

/// The exact (integer) per-window accumulator state.
///
/// Everything here merges across shards without loss: sums add, mins and
/// maxes combine, histograms add bucket-wise. Floating-point summaries
/// live in [`WindowRow`], derived from this state at reporting time.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window index (`[index·W, (index+1)·W)`).
    pub index: u64,
    /// Events dispatched in the window.
    pub events: u64,
    /// Messages handed to the network (lost ones included).
    pub msgs_sent: u64,
    /// Bytes handed to the network.
    pub bytes_sent: u64,
    /// Messages delivered.
    pub msgs_received: u64,
    /// Bytes delivered.
    pub bytes_received: u64,
    /// Messages the network dropped.
    pub msgs_lost: u64,
    /// Nodes alive at window close.
    pub alive: u64,
    /// Nodes crashed at window close.
    pub crashed: u64,
    /// Σ of per-alive-node forward counts.
    pub load_sum: u64,
    /// Σ of squared per-alive-node forward counts.
    pub load_sumsq: u128,
    /// Minimum per-alive-node forward count (`u64::MAX` when no node was
    /// sampled — e.g. trailing latency-only windows).
    pub load_min: u64,
    /// Maximum per-alive-node forward count.
    pub load_max: u64,
    /// Histogram of per-alive-node forward counts.
    pub load_hist: Histogram,
    /// Histogram of scheduled delivery latencies (milliseconds), keyed to
    /// the delivery window.
    pub latency_hist: Histogram,
}

impl WindowStats {
    /// An empty window at `index`.
    pub fn empty(index: u64) -> Self {
        WindowStats {
            index,
            events: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            msgs_received: 0,
            bytes_received: 0,
            msgs_lost: 0,
            alive: 0,
            crashed: 0,
            load_sum: 0,
            load_sumsq: 0,
            load_min: u64::MAX,
            load_max: 0,
            load_hist: Histogram::new(0.0, LOAD_HI, LOAD_BUCKETS).expect("valid geometry"),
            latency_hist: Histogram::new(0.0, LATENCY_HI_MS, LATENCY_BUCKETS)
                .expect("valid geometry"),
        }
    }

    /// Whether any hook recorded into this window (liveness flips and
    /// window closes do not count).
    fn sampled(&self) -> bool {
        self.events > 0
            || self.msgs_sent > 0
            || self.msgs_received > 0
            || self.latency_hist.count() > 0
    }

    /// Merges another shard's accumulator for the same window into this
    /// one. Exact, associative and commutative (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if the windows disagree on index.
    pub fn merge(&mut self, other: &WindowStats) {
        assert_eq!(self.index, other.index, "merging different windows");
        self.events += other.events;
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_received += other.msgs_received;
        self.bytes_received += other.bytes_received;
        self.msgs_lost += other.msgs_lost;
        self.alive += other.alive;
        self.crashed += other.crashed;
        self.load_sum += other.load_sum;
        self.load_sumsq += other.load_sumsq;
        self.load_min = self.load_min.min(other.load_min);
        self.load_max = self.load_max.max(other.load_max);
        self.load_hist
            .merge(&other.load_hist)
            .expect("one geometry");
        self.latency_hist
            .merge(&other.latency_hist)
            .expect("one geometry");
    }
}

/// A shard-local streaming collector implementing the substrate's
/// [`Probe`] hooks.
///
/// One collector observes the nodes one kernel owns — the whole
/// population on the sequential engine ([`ShardCollector::sequential`]),
/// one shard's slice on `fed-cluster` (one collector per shard, built
/// from the shard map's owned lists). After the run, [`finalize`]
/// closes the remaining windows and the per-shard series are folded with
/// [`TelemetrySeries::merge`] into the exact global series.
///
/// The open window's accumulator is a field; the map holds the closed
/// windows and the later ones that scheduled deliveries already reached.
/// A hook whose `now` (and delivery instant) falls inside the open
/// window is one compare against `cur_end_us` plus its increments.
///
/// [`finalize`]: ShardCollector::finalize
#[derive(Debug, Clone)]
pub struct ShardCollector {
    spec: TelemetrySpec,
    window_us: u64,
    /// Global id → local slot; `u32::MAX` when not owned.
    local: Vec<u32>,
    /// Per owned node: forward count of the current window.
    counts: Vec<u64>,
    /// Per owned node: alive status (everyone starts alive).
    alive: Vec<bool>,
    /// The open window's accumulator (`open.index` is the open window).
    open: WindowStats,
    /// First microsecond past the open window.
    cur_end_us: u64,
    /// Every window but the open one, keyed by index.
    windows: BTreeMap<u64, WindowStats>,
    /// Event, send, receive and liveness hook calls so far.
    calls: u64,
}

impl ShardCollector {
    /// A collector for the owned subset `owned` (global ids) of an
    /// `n_global`-node simulation.
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec or an owned id out of range.
    pub fn new(spec: TelemetrySpec, n_global: usize, owned: &[u32]) -> Self {
        spec.validate();
        let mut local = vec![u32::MAX; n_global];
        for (li, &id) in owned.iter().enumerate() {
            assert!((id as usize) < n_global, "owned id {id} out of range");
            local[id as usize] = li as u32;
        }
        let window_us = spec.window.as_micros();
        ShardCollector {
            spec,
            window_us,
            local,
            counts: vec![0; owned.len()],
            alive: vec![true; owned.len()],
            open: WindowStats::empty(0),
            cur_end_us: window_us,
            windows: BTreeMap::new(),
            calls: 0,
        }
    }

    /// A collector owning the full population — the sequential engine's
    /// single probe.
    pub fn sequential(spec: TelemetrySpec, n: usize) -> Self {
        let owned: Vec<u32> = (0..n as u32).collect();
        ShardCollector::new(spec, n, &owned)
    }

    /// The spec this collector samples under.
    pub fn spec(&self) -> TelemetrySpec {
        self.spec
    }

    /// How many of the four virtual-world hooks (event, send, receive,
    /// liveness) were called on this collector: the `probe_calls` work
    /// counter of a profiled run.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    fn win_of(&self, t: SimTime) -> u64 {
        t.as_micros() / self.window_us
    }

    /// Closes every window before the one containing `now`.
    #[inline]
    fn advance(&mut self, now: SimTime) {
        if now.as_micros() >= self.cur_end_us {
            self.advance_to(self.win_of(now));
        }
    }

    #[cold]
    fn advance_to(&mut self, w: u64) {
        while self.open.index < w {
            self.close_current();
        }
    }

    /// The accumulator of the window past the open one that holds `at`.
    fn later_window(&mut self, at: SimTime) -> &mut WindowStats {
        let w = self.win_of(at);
        self.windows
            .entry(w)
            .or_insert_with(|| WindowStats::empty(w))
    }

    /// Folds the open window's per-node forward counts and population
    /// snapshot into its accumulator, files it in the map and opens the
    /// next window — taking over the accumulator that earlier sends'
    /// deliveries already created for it, if any.
    ///
    /// The distribution covers the nodes alive at window close; a node
    /// that forwarded and then crashed inside the window keeps its
    /// traffic in the global counters but drops out of the distribution
    /// (fairness tracks the live population's load concentration).
    fn close_current(&mut self) {
        let stats = &mut self.open;
        for (count, alive) in self.counts.iter_mut().zip(&self.alive) {
            if *alive {
                let c = *count;
                stats.alive += 1;
                stats.load_sum += c;
                stats.load_sumsq += (c as u128) * (c as u128);
                stats.load_min = stats.load_min.min(c);
                stats.load_max = stats.load_max.max(c);
                stats.load_hist.record(c as f64);
            } else {
                stats.crashed += 1;
            }
            *count = 0;
        }
        let next = stats.index + 1;
        let opened = self
            .windows
            .remove(&next)
            .unwrap_or_else(|| WindowStats::empty(next));
        let closed = std::mem::replace(&mut self.open, opened);
        self.windows.insert(closed.index, closed);
        self.cur_end_us = (next + 1).saturating_mul(self.window_us);
    }

    /// Closes every window through the one containing `horizon` and
    /// returns the shard's series.
    ///
    /// Both engines must finalize at the same horizon (the harness uses
    /// the scenario horizon) for their series to compare equal.
    pub fn finalize(mut self, horizon: SimTime) -> TelemetrySeries {
        self.advance_to(self.win_of(horizon) + 1);
        // A window is part of the series if it was closed or sampled:
        // the one left open counts only when a hook past the horizon
        // touched it. Trailing windows may hold latency samples of sends
        // scheduled to deliver past the horizon; keep them (they merge
        // exactly).
        let open = self.open;
        if open.sampled() {
            self.windows.insert(open.index, open);
        }
        let mut windows: Vec<WindowStats> = Vec::new();
        for (w, stats) in self.windows {
            // Dense from window 0: gaps between sampled windows are empty.
            windows.extend((windows.len() as u64..w).map(WindowStats::empty));
            windows.push(stats);
        }
        TelemetrySeries {
            spec: self.spec,
            windows,
        }
    }
}

impl Probe for ShardCollector {
    #[inline]
    fn on_event(&mut self, now: SimTime) {
        self.calls += 1;
        self.advance(now);
        self.open.events += 1;
    }

    #[inline]
    fn on_send(&mut self, now: SimTime, node: NodeId, bytes: u64, fate: SendFate) {
        self.calls += 1;
        self.advance(now);
        let li = self.local[node.index()];
        debug_assert_ne!(li, u32::MAX, "send observed for a non-owned node");
        self.counts[li as usize] += 1;
        self.open.msgs_sent += 1;
        self.open.bytes_sent += bytes;
        match fate {
            SendFate::Delivered { at } => {
                let lat_ms = at.duration_since(now).as_secs_f64() * 1e3;
                let stats = if at.as_micros() < self.cur_end_us {
                    &mut self.open
                } else {
                    self.later_window(at)
                };
                stats.latency_hist.record(lat_ms);
            }
            SendFate::Lost => self.open.msgs_lost += 1,
        }
    }

    #[inline]
    fn on_receive(&mut self, now: SimTime, _node: NodeId, bytes: u64) {
        self.calls += 1;
        self.advance(now);
        self.open.msgs_received += 1;
        self.open.bytes_received += bytes;
    }

    fn on_liveness(&mut self, now: SimTime, node: NodeId, alive: bool) {
        self.calls += 1;
        self.advance(now);
        let li = self.local[node.index()];
        debug_assert_ne!(li, u32::MAX, "liveness observed for a non-owned node");
        self.alive[li as usize] = alive;
    }
}

/// A finalized time series: one [`WindowStats`] per window, dense from
/// window 0.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySeries {
    /// The spec the series was sampled under.
    pub spec: TelemetrySpec,
    /// Exact per-window state, indexed by window.
    pub windows: Vec<WindowStats>,
}

impl TelemetrySeries {
    /// Merges another shard's series into this one, window by window
    /// (shorter series are padded with empty windows). Exact, associative
    /// and commutative, so any merge order over any shard partition
    /// yields the byte-identical global series.
    ///
    /// # Panics
    ///
    /// Panics if the specs disagree.
    pub fn merge(&mut self, other: &TelemetrySeries) {
        assert_eq!(self.spec, other.spec, "merging series of different specs");
        while self.windows.len() < other.windows.len() {
            let w = self.windows.len() as u64;
            self.windows.push(WindowStats::empty(w));
        }
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.merge(theirs);
        }
    }

    /// Derived floating-point view of every window, in window order.
    pub fn rows(&self) -> Vec<WindowRow> {
        self.windows
            .iter()
            .map(|w| WindowRow::from_stats(w, &self.spec))
            .collect()
    }
}

/// The displayable per-window summary, derived from the exact state.
///
/// All floats here are computed from the merged integer accumulators in
/// one canonical order, so two byte-identical series produce
/// byte-identical rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRow {
    /// Window index.
    pub index: u64,
    /// Window start.
    pub start: SimTime,
    /// Events dispatched.
    pub events: u64,
    /// Messages handed to the network.
    pub msgs_sent: u64,
    /// Messages delivered.
    pub msgs_received: u64,
    /// Messages dropped by the network.
    pub msgs_lost: u64,
    /// Bytes handed to the network.
    pub bytes_sent: u64,
    /// Nodes alive at window close.
    pub alive: u64,
    /// Nodes crashed at window close.
    pub crashed: u64,
    /// Mean per-alive-node forward count.
    pub load_mean: f64,
    /// Jain fairness index over per-node forward counts (exact; equals
    /// Jain over mean-normalized contribution ratios).
    pub jain: f64,
    /// Gini coefficient over the per-node forward counts, derived from
    /// the load histogram plus the exact total mass (see
    /// [`gini_from_load_sketch`]). Exact for integer counts below 64,
    /// which get unit-wide buckets; the overflow collapses to its exact
    /// mean.
    pub gini: f64,
    /// Max/min forward count; `f64::INFINITY` when some node idled while
    /// another forwarded.
    pub max_min: f64,
    /// Median scheduled delivery latency (ms), when sampled.
    pub latency_p50_ms: Option<f64>,
    /// 95th-percentile scheduled delivery latency (ms).
    pub latency_p95_ms: Option<f64>,
    /// 99th-percentile scheduled delivery latency (ms).
    pub latency_p99_ms: Option<f64>,
}

impl WindowRow {
    /// Derives the summary row of one window.
    pub fn from_stats(w: &WindowStats, spec: &TelemetrySpec) -> WindowRow {
        let n = w.alive;
        let (load_mean, jain) = if n == 0 || w.load_sumsq == 0 {
            (0.0, 1.0)
        } else {
            let sum = w.load_sum as f64;
            (
                sum / n as f64,
                (sum * sum) / (n as f64 * w.load_sumsq as f64),
            )
        };
        let max_min = if w.load_min == u64::MAX || (w.load_min == 0 && w.load_max == 0) {
            1.0
        } else if w.load_min == 0 {
            f64::INFINITY
        } else {
            w.load_max as f64 / w.load_min as f64
        };
        WindowRow {
            index: w.index,
            start: SimTime::from_micros(w.index * spec.window.as_micros()),
            events: w.events,
            msgs_sent: w.msgs_sent,
            msgs_received: w.msgs_received,
            msgs_lost: w.msgs_lost,
            bytes_sent: w.bytes_sent,
            alive: w.alive,
            crashed: w.crashed,
            load_mean,
            jain,
            gini: gini_from_load_sketch(&w.load_hist, w.load_sum),
            max_min,
            latency_p50_ms: w.latency_hist.quantile(0.5),
            latency_p95_ms: w.latency_hist.quantile(0.95),
            latency_p99_ms: w.latency_hist.quantile(0.99),
        }
    }
}

/// Gini coefficient of a non-negative integer distribution summarized
/// by a histogram sketch plus its exact total mass.
///
/// Grouped computation over the (already sorted) buckets, valuing each
/// in-range group at its bucket's **lower bound** — exact for integer
/// counts when buckets are unit-wide (the forward-load histogram's
/// geometry), so idle nodes are valued at 0, not at a
/// midpoint. The overflow group is valued at its **exact mean**,
/// recovered from the residual of `total` (the true Σx, tracked
/// separately as an integer): a hotspot node forwarding thousands of
/// messages per window keeps its full weight instead of being clipped
/// to the histogram's upper bound, which is what lets the Gini series
/// rank a broker hotspot above a well-spread gossip overlay.
///
/// The only approximation left is within-group: values sharing a bucket
/// (or the overflow) are treated as equal, which can only *under*state
/// inequality, never invert a clear ranking. Deterministic from the
/// merged integer state.
pub fn gini_from_load_sketch(h: &Histogram, total: u64) -> f64 {
    let n = h.count();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let mut sum = 0.0f64;
    let mut weighted = 0.0f64;
    let mut rank = 0u64; // ranks consumed so far
    let group = |value: f64, count: u64, sum: &mut f64, weighted: &mut f64, rank: &mut u64| {
        if count == 0 {
            return;
        }
        let cf = count as f64;
        // Ranks rank+1 ..= rank+count, all at `value`:
        // Σ i·x over the group = value · (count·rank + count(count+1)/2).
        *weighted += value * (cf * *rank as f64 + cf * (cf + 1.0) / 2.0);
        *sum += cf * value;
        *rank += count;
    };
    // Groups ascending: underflow at `lo` (impossible for `lo == 0`
    // non-negative data, handled defensively), buckets at their lower
    // bounds, then the overflow at its exact mean.
    group(h.lo(), h.underflow(), &mut sum, &mut weighted, &mut rank);
    for (i, &c) in h.bucket_counts().iter().enumerate() {
        group(h.bucket_range(i).0, c, &mut sum, &mut weighted, &mut rank);
    }
    if h.overflow() > 0 {
        // Lower-bound valuation understates the in-range mass, so the
        // residual mean is ≥ `hi` — the groups stay sorted.
        let mean = ((total as f64 - sum) / h.overflow() as f64).max(h.hi());
        group(mean, h.overflow(), &mut sum, &mut weighted, &mut rank);
    }
    if sum == 0.0 {
        return 0.0;
    }
    let nf = n as f64;
    ((2.0 * weighted) / (nf * sum) - (nf + 1.0) / nf).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_sim::exec::{HopKind, HopRecord};

    fn spec() -> TelemetrySpec {
        TelemetrySpec {
            window: SimDuration::from_millis(10),
        }
    }

    #[test]
    fn sends_fold_into_the_right_window() {
        let mut c = ShardCollector::sequential(spec(), 2);
        let deliver = |at| SendFate::Delivered { at };
        // Window 0: node 0 sends twice, node 1 once.
        c.on_send(
            SimTime::from_millis(1),
            NodeId::new(0),
            10,
            deliver(SimTime::from_millis(3)),
        );
        c.on_send(
            SimTime::from_millis(2),
            NodeId::new(0),
            10,
            deliver(SimTime::from_millis(4)),
        );
        c.on_send(SimTime::from_millis(9), NodeId::new(1), 10, SendFate::Lost);
        // Window 1: one send by node 1, delivering in window 2.
        c.on_send(
            SimTime::from_millis(12),
            NodeId::new(1),
            10,
            deliver(SimTime::from_millis(21)),
        );
        let series = c.finalize(SimTime::from_millis(25));
        assert_eq!(series.windows.len(), 3);
        let w0 = &series.windows[0];
        assert_eq!(w0.msgs_sent, 3);
        assert_eq!(w0.msgs_lost, 1);
        assert_eq!(w0.bytes_sent, 30);
        assert_eq!(w0.alive, 2);
        assert_eq!((w0.load_sum, w0.load_min, w0.load_max), (3, 1, 2));
        assert_eq!(w0.load_sumsq, 5);
        assert_eq!(w0.latency_hist.count(), 2, "both deliveries land in w0");
        let w1 = &series.windows[1];
        assert_eq!(w1.msgs_sent, 1);
        assert_eq!(w1.latency_hist.count(), 0);
        let w2 = &series.windows[2];
        assert_eq!(w2.latency_hist.count(), 1, "delivery at 21ms keys to w2");
        assert_eq!(w2.msgs_sent, 0);
    }

    #[test]
    fn population_counts_track_liveness_at_window_close() {
        let mut c = ShardCollector::sequential(spec(), 3);
        c.on_event(SimTime::from_millis(2));
        c.on_liveness(SimTime::from_millis(5), NodeId::new(1), false);
        // Crash at 5ms (window 0), rejoin at 25ms (window 2).
        c.on_liveness(SimTime::from_millis(25), NodeId::new(1), true);
        let series = c.finalize(SimTime::from_millis(39));
        let pops: Vec<(u64, u64)> = series
            .windows
            .iter()
            .map(|w| (w.alive, w.crashed))
            .collect();
        assert_eq!(pops, vec![(2, 1), (2, 1), (3, 0), (3, 0)]);
    }

    /// `calls` counts the event, send, receive and liveness hooks, once
    /// per call, and nothing else a probe can be handed.
    #[test]
    fn calls_count_the_four_virtual_world_hooks() {
        let mut c = ShardCollector::sequential(spec(), 2);
        let (t, node) = (SimTime::from_millis(1), NodeId::new(0));
        c.on_event(t);
        c.on_event(t);
        c.on_send(t, node, 8, SendFate::Lost);
        c.on_receive(t, node, 8);
        c.on_liveness(t, node, false);
        assert_eq!(c.calls(), 5);
        c.on_hop(HopRecord {
            send_time: t,
            from: 0,
            to: 1,
            event: 0,
            topic: 0,
            kind: HopKind::GossipPush,
            bytes: 8,
            deliver_time: None,
        });
        assert_eq!(c.calls(), 5, "a hop is not a virtual-world hook call");
    }

    #[test]
    fn empty_windows_between_activity_are_emitted() {
        let mut c = ShardCollector::sequential(spec(), 1);
        c.on_event(SimTime::from_millis(1));
        c.on_event(SimTime::from_millis(35)); // windows 1 and 2 stay empty
        let series = c.finalize(SimTime::from_millis(39));
        let events: Vec<u64> = series.windows.iter().map(|w| w.events).collect();
        assert_eq!(events, vec![1, 0, 0, 1]);
        assert!(series.windows.iter().all(|w| w.alive == 1));
    }

    #[test]
    fn shard_merge_equals_single_collector() {
        // Drive the same observation stream through one full collector
        // and through two shard-local halves, then compare.
        let n = 4;
        let owned_a: Vec<u32> = vec![0, 2];
        let owned_b: Vec<u32> = vec![1, 3];
        let mut whole = ShardCollector::sequential(spec(), n);
        let mut a = ShardCollector::new(spec(), n, &owned_a);
        let mut b = ShardCollector::new(spec(), n, &owned_b);
        let feed = |c: &mut ShardCollector, only: Option<&[u32]>| {
            let sees = |id: u32| only.is_none_or(|o| o.contains(&id));
            for step in 0u64..40 {
                let now = SimTime::from_millis(step * 3);
                let node = (step % 4) as u32;
                if !sees(node) {
                    continue;
                }
                c.on_event(now);
                let at = now + SimDuration::from_millis(7 + step % 5);
                c.on_send(now, NodeId::new(node), 8, SendFate::Delivered { at });
                if step % 7 == 0 {
                    c.on_send(now, NodeId::new(node), 8, SendFate::Lost);
                }
                if step == 11 {
                    c.on_liveness(now, NodeId::new(node), false);
                }
                if step == 23 {
                    c.on_liveness(now, NodeId::new(node), true);
                }
            }
        };
        feed(&mut whole, None);
        feed(&mut a, Some(&owned_a));
        feed(&mut b, Some(&owned_b));
        let horizon = SimTime::from_millis(130);
        let expect = whole.finalize(horizon);
        let mut merged = a.finalize(horizon);
        merged.merge(&b.finalize(horizon));
        assert_eq!(merged, expect, "shard merge must be exact");
        // And in the other order.
        let mut a2 = ShardCollector::new(spec(), n, &owned_a);
        let mut b2 = ShardCollector::new(spec(), n, &owned_b);
        feed(&mut a2, Some(&owned_a));
        feed(&mut b2, Some(&owned_b));
        let mut merged2 = b2.finalize(horizon);
        merged2.merge(&a2.finalize(horizon));
        assert_eq!(merged2, expect, "merge must be commutative");
    }

    /// `tests/differential.rs` is the suite proper; this keeps the
    /// reference compared inside the crate as well, on one stream that
    /// crosses boundaries, skips windows and delivers past the horizon.
    #[test]
    fn matches_the_map_reference_on_a_fixed_stream() {
        fn feed<P: Probe>(c: &mut P) {
            for step in 0u64..60 {
                let now = SimTime::from_millis(step * step / 3);
                let node = NodeId::new((step % 3) as u32);
                c.on_event(now);
                let at = now + SimDuration::from_millis(step % 4 * 9);
                c.on_send(now, node, 8, SendFate::Delivered { at });
                match step % 5 {
                    0 => c.on_send(now, node, 8, SendFate::Lost),
                    1 => c.on_receive(now, node, 16),
                    2 => c.on_liveness(now, node, step % 2 == 0),
                    _ => {}
                }
            }
        }
        let mut new = ShardCollector::sequential(spec(), 3);
        let mut old = reference::MapCollector::new(spec(), 3, &[0, 1, 2]);
        feed(&mut new);
        feed(&mut old);
        for horizon_ms in [0, 9, 10, 555, 1_160, 1_187, 1_200, 5_000] {
            let h = SimTime::from_millis(horizon_ms);
            assert_eq!(new.clone().finalize(h), old.clone().finalize(h), "{h}");
        }
    }

    #[test]
    fn rows_derive_fairness_exactly() {
        let mut c = ShardCollector::sequential(spec(), 4);
        // Node 0 sends 3, node 1 sends 1; nodes 2 and 3 idle.
        for (ms, node) in [(1u64, 0u32), (2, 0), (3, 0), (4, 1)] {
            c.on_send(
                SimTime::from_millis(ms),
                NodeId::new(node),
                4,
                SendFate::Delivered {
                    at: SimTime::from_millis(ms + 5),
                },
            );
        }
        let series = c.finalize(SimTime::from_millis(9));
        let rows = series.rows();
        assert_eq!(rows.len(), 1);
        let r = rows[0];
        // jain([3,1,0,0]) = 16 / (4 * 10) = 0.4
        assert!((r.jain - 0.4).abs() < 1e-12, "jain={}", r.jain);
        assert_eq!(r.max_min, f64::INFINITY);
        assert_eq!(r.load_mean, 1.0);
        // Unit-width buckets make the sketch Gini exact here:
        // gini([3,1,0,0]) = 0.625.
        assert!(
            (r.gini - 0.625).abs() < 1e-12,
            "gini over [3,1,0,0] must be exact, got {}",
            r.gini
        );
        assert!(r.latency_p50_ms.is_some());
    }

    #[test]
    fn gini_sketch_is_exact_on_unit_buckets() {
        // Unit-wide buckets hold one integer value each, so the grouped
        // computation reproduces the exact Gini.
        let mut h = Histogram::new(0.0, 8.0, 8).unwrap();
        for v in [0.0f64, 1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let g = gini_from_load_sketch(&h, 10);
        let expect = fed_util::fairness::gini_coefficient(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert!((g - expect).abs() < 1e-12, "g={g} expect={expect}");
        assert_eq!(
            gini_from_load_sketch(&Histogram::new(0.0, 1.0, 1).unwrap(), 0),
            0.0
        );
    }

    /// A hotspot far beyond the histogram range keeps its full weight:
    /// the overflow is valued at its exact residual mean, so a
    /// broker-style concentration reads as near-total inequality instead
    /// of being clipped to the bucket ceiling.
    #[test]
    fn gini_sketch_tracks_hotspots_past_the_histogram_range() {
        let mut h = Histogram::new(0.0, 64.0, 64).unwrap();
        let mut exact = vec![0.0; 249];
        for &v in &exact {
            h.record(v);
        }
        h.record(4_496.0); // one broker-like hot node, deep in overflow
        exact.push(4_496.0);
        let g = gini_from_load_sketch(&h, 4_496);
        let expect = fed_util::fairness::gini_coefficient(&exact);
        assert!(
            (g - expect).abs() < 1e-9,
            "hotspot gini must stay exact: g={g} expect={expect}"
        );
        assert!(g > 0.99, "near-total concentration, got {g}");
    }

    #[test]
    fn boundary_event_belongs_to_the_later_window() {
        let mut c = ShardCollector::sequential(spec(), 1);
        c.on_event(SimTime::from_millis(10)); // exactly the w0/w1 boundary
        let series = c.finalize(SimTime::from_millis(10));
        assert_eq!(series.windows[0].events, 0);
        assert_eq!(series.windows[1].events, 1);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let bad = TelemetrySpec {
            window: SimDuration::ZERO,
        };
        let _ = ShardCollector::sequential(bad, 1);
    }
}
