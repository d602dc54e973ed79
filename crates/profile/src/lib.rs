//! # fed-profile
//!
//! A low-overhead scheduler profiler for both simulation engines: where
//! `fed-telemetry` measures the *virtual world* (deliveries, load,
//! fairness), this crate measures the *engines themselves* — which
//! phase each shard spends its wall clock in, which shard's pending work
//! bounded each conservative window (stall attribution), and how much
//! raw work (events, queue traffic, mailbox traffic) the run performed.
//!
//! ## Deterministic vs wall-clock
//!
//! Everything this crate records falls in exactly one of two classes,
//! and the split is load-bearing:
//!
//! * **Deterministic work counters** ([`WorkCounters`]) are integers
//!   derived from the event streams only. They are *partition-invariant*:
//!   merged across shards they are byte-identical to a sequential run of
//!   the same seed and workload, at any shard count, placement or window
//!   policy — the same guarantee the engines give for results, extended
//!   to the profiler, and gated by the same parity suites.
//! * **Wall-clock measurements** ([`PhaseTimes`], the per-window phase
//!   nanoseconds of [`WindowWork`]) are host timings. They vary run to run and are never
//!   compared for equality; they exist to show *where the time went*.
//!
//! A third group ([`SchedCounters`]) is deterministic for a fixed
//! configuration but *not* partition-invariant — calendar-queue overflow
//! hits depend on per-shard queue geometry, mailbox traffic only exists
//! when shards do — so it is reported but not parity-gated.
//!
//! ## Pieces
//!
//! * [`ShardProfile`] implements the one engine hook of
//!   [`fed_sim::exec::Probe`], `on_window` — attach one per shard (or one
//!   to a sequential run) and it keeps every [`WindowWork`] report and
//!   accumulates the phase totals.
//! * [`CountingProbe`] wraps any [`Probe`] and counts its virtual-world
//!   hook invocations — the `probe_calls` work counter.
//! * [`RunProfile`] assembles the per-shard profiles plus engine-level
//!   counters into the run-level report. The coordinator's schedule is
//!   not reported separately: every shard reports every barrier window
//!   with the same index, start, width and straggler, so
//!   [`RunProfile::barrier_windows`] rebuilds it from the per-shard
//!   samples, keyed by window index. [`chrome_trace_json`] renders the
//!   profile as Chrome Trace Event JSON loadable in Perfetto or
//!   `chrome://tracing`.
//! * [`json`] re-exports [`fed_util::json`], the workspace's JSON reader
//!   and writer: the frozen benchmark still imports it from here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// `fedbench/` compiles `fed_profile::json::{parse, Value}` and is frozen
// between `benchmark` PRs; the next one re-points it and drops this.
pub use fed_util::json;

use fed_sim::exec::{HopRecord, Probe, QueueStats, SendFate, WindowWork};
use fed_sim::protocol::NodeId;
use fed_sim::time::SimTime;
use fed_util::json::{ChromeTrace, Object};

/// Profiling configuration, as carried by a scenario's `[profile]`
/// section.
///
/// Presence of the section (even empty) turns profiling on for a
/// scenario run; the fields tune what gets written.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSpec {
    /// Path to write the Chrome Trace Event JSON to. `None` lets the
    /// runner pick a default (`TRACE_<scenario>.json`).
    pub trace: Option<String>,
}

impl ProfileSpec {
    /// Validates a spec, returning it unchanged when sound.
    pub fn checked(spec: ProfileSpec) -> Result<ProfileSpec, String> {
        if let Some(path) = &spec.trace {
            if path.trim().is_empty() {
                return Err("profile trace path must not be empty".to_string());
            }
        }
        Ok(spec)
    }
}

/// Partition-invariant work counters: integers derived from the event
/// streams only, byte-identical sequential-vs-sharded at any shard
/// count (see the crate docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Events dispatched.
    pub events: u64,
    /// Events pushed into event queues (external traffic only — internal
    /// calendar re-parks are not counted; see
    /// [`fed_sim::exec::QueueStats`]).
    pub queue_pushes: u64,
    /// Events popped from event queues.
    pub queue_pops: u64,
    /// Protocol messages sent (including lost ones).
    pub msgs_sent: u64,
    /// Protocol messages received.
    pub msgs_received: u64,
    /// Protocol messages lost in the network model.
    pub msgs_lost: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Telemetry-probe hook invocations (zero when no probe attached).
    pub probe_calls: u64,
}

impl WorkCounters {
    /// Exact merge: sums every counter.
    pub fn merge(&mut self, other: &WorkCounters) {
        self.events += other.events;
        self.queue_pushes += other.queue_pushes;
        self.queue_pops += other.queue_pops;
        self.msgs_sent += other.msgs_sent;
        self.msgs_received += other.msgs_received;
        self.msgs_lost += other.msgs_lost;
        self.bytes_sent += other.bytes_sent;
        self.probe_calls += other.probe_calls;
    }
}

/// Scheduler counters: deterministic for a fixed configuration but
/// **not** partition-invariant — reported, never parity-gated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Calendar-queue overflow-level hits (depends on per-shard queue
    /// geometry).
    pub overflow_hits: u64,
    /// Cross-shard mailbox messages staged (zero on a sequential run).
    pub mailbox_msgs: u64,
    /// Cross-shard mailbox payload bytes staged.
    pub mailbox_bytes: u64,
    /// Conservative windows executed.
    pub windows: u64,
    /// Windows whose start was bounded by the straggler shard — equal to
    /// `windows` on a cluster run (each window has exactly one).
    pub straggler_windows: u64,
}

/// Wall-clock nanoseconds by engine phase; host measurements, never
/// compared across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Popping and dispatching events.
    pub execute_ns: u64,
    /// Draining and sending cross-shard mailbox batches (the
    /// non-blocking queue-push and channel-send work).
    pub exchange_ns: u64,
    /// Blocked at a mid-window absorption point for inbound batches
    /// still in flight — pipeline fill, not a straggler stall: the shard
    /// had already executed everything safe to run ahead of them.
    pub fill_ns: u64,
    /// Waiting at the reduction barrier for the next window decision
    /// after a window that did local work — the genuine straggler stall
    /// (the decision lands when the slowest shard folds).
    pub barrier_ns: u64,
    /// Waiting at barriers after a window with no local work — time the
    /// shard had nothing to do, the conservative-lookahead cost.
    pub idle_ns: u64,
}

impl PhaseTimes {
    /// Sums every phase.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.execute_ns += other.execute_ns;
        self.exchange_ns += other.exchange_ns;
        self.fill_ns += other.fill_ns;
        self.barrier_ns += other.barrier_ns;
        self.idle_ns += other.idle_ns;
    }
}

/// Per-shard profiler: the [`Probe`] both engines drive through
/// [`Probe::on_window`].
///
/// Deterministic state (`events`, the decision and work fields of each
/// window) and wall-clock state (`phases`, the window nanoseconds)
/// accumulate independently; barrier wait is classified
/// [`PhaseTimes::idle_ns`] when the window executed nothing on this
/// shard.
#[derive(Debug, Clone, Default)]
pub struct ShardProfile {
    /// Events dispatched on this shard (deterministic).
    pub events: u64,
    /// Wall clock by phase.
    pub phases: PhaseTimes,
    /// Every window report, in execution order: the barrier windows of a
    /// sharded run, one `straggler: None` window per observed call of a
    /// sequential one.
    pub windows: Vec<WindowWork>,
}

impl ShardProfile {
    /// Cross-shard mailbox `(messages, payload bytes)` this shard staged.
    pub fn mailbox(&self) -> (u64, u64) {
        self.windows.iter().fold((0, 0), |(msgs, bytes), w| {
            (msgs + w.mailbox_msgs, bytes + w.mailbox_bytes)
        })
    }

    /// The shard's barrier windows: those a coordinator issued.
    fn barrier_windows(&self) -> impl Iterator<Item = &WindowWork> {
        self.windows.iter().filter(|w| w.straggler.is_some())
    }
}

impl Probe for ShardProfile {
    fn profiles(&self) -> bool {
        true
    }

    fn on_event(&mut self, _now: SimTime) {
        self.events += 1;
    }

    fn on_window(&mut self, work: WindowWork) {
        self.phases.execute_ns += work.execute_ns;
        self.phases.exchange_ns += work.exchange_ns;
        self.phases.fill_ns += work.fill_ns;
        if work.events == 0 {
            self.phases.idle_ns += work.wait_ns;
        } else {
            self.phases.barrier_ns += work.wait_ns;
        }
        self.windows.push(work);
    }
}

/// Wraps a [`Probe`], forwarding every hook while counting invocations of
/// the four virtual-world ones (event, send, receive, liveness) — the
/// `probe_calls` work counter. Forwarding changes nothing about what the
/// inner probe observes, so wrapping is itself passive.
#[derive(Debug, Clone, Default)]
pub struct CountingProbe<C> {
    /// The wrapped probe.
    pub inner: C,
    /// Hook invocations so far.
    pub calls: u64,
}

impl<C> CountingProbe<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        CountingProbe { inner, calls: 0 }
    }
}

impl<C: Probe> Probe for CountingProbe<C> {
    fn on_event(&mut self, now: SimTime) {
        self.calls += 1;
        self.inner.on_event(now);
    }
    fn on_send(&mut self, now: SimTime, node: NodeId, bytes: u64, fate: SendFate) {
        self.calls += 1;
        self.inner.on_send(now, node, bytes, fate);
    }
    fn on_receive(&mut self, now: SimTime, node: NodeId, bytes: u64) {
        self.calls += 1;
        self.inner.on_receive(now, node, bytes);
    }
    fn on_liveness(&mut self, now: SimTime, node: NodeId, alive: bool) {
        self.calls += 1;
        self.inner.on_liveness(now, node, alive);
    }
    fn on_hop(&mut self, hop: HopRecord) {
        self.inner.on_hop(hop);
    }
    fn on_window(&mut self, work: WindowWork) {
        self.inner.on_window(work);
    }
    fn profiles(&self) -> bool {
        self.inner.profiles()
    }
    fn traces(&self) -> bool {
        self.inner.traces()
    }
}

/// The assembled profile of one run: per-shard work and wall-clock
/// counters, with the schedule carried by the per-shard window reports.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// Per-shard work counters (one entry on a sequential run).
    pub work: Vec<WorkCounters>,
    /// Per-shard phase/window profiles.
    pub shards: Vec<ShardProfile>,
    /// Queue counters summed over shards (overflow hits are
    /// geometry-dependent; see [`SchedCounters`]).
    pub queue: QueueStats,
    /// Whole-run wall clock as the harness measured it.
    pub wall_ns: u64,
}

impl RunProfile {
    /// The merged, partition-invariant work counters — the quantity the
    /// parity suites gate byte-identical across engines.
    pub fn merged_work(&self) -> WorkCounters {
        let mut total = WorkCounters::default();
        for w in &self.work {
            total.merge(w);
        }
        total.queue_pushes = self.queue.pushes;
        total.queue_pops = self.queue.pops;
        total
    }

    /// The scheduler counters (reported, not parity-gated).
    pub fn sched(&self) -> SchedCounters {
        let (mailbox_msgs, mailbox_bytes) = self
            .shards
            .iter()
            .map(ShardProfile::mailbox)
            .fold((0, 0), |(msgs, bytes), (m, b)| (msgs + m, bytes + b));
        // Each barrier window has exactly one straggler.
        let windows = self
            .shards
            .iter()
            .map(|s| s.barrier_windows().count() as u64)
            .max()
            .unwrap_or(0);
        SchedCounters {
            overflow_hits: self.queue.overflow_hits,
            mailbox_msgs,
            mailbox_bytes,
            windows,
            straggler_windows: windows,
        }
    }

    /// Phase totals summed over shards.
    pub fn phases(&self) -> PhaseTimes {
        let mut total = PhaseTimes::default();
        for s in &self.shards {
            total.merge(&s.phases);
        }
        total
    }

    /// The coordinator's schedule, rebuilt from the per-shard samples:
    /// every barrier window in execution order, as the reports of the
    /// shards that ran it (shard order). The reports of one window agree
    /// on its index, start, width and straggler; its issued end is their
    /// latest `issued_end`, its events their sum. Empty on a sequential
    /// run.
    pub fn barrier_windows(&self) -> Vec<Vec<&WindowWork>> {
        let mut windows: Vec<Vec<&WindowWork>> = Vec::new();
        for shard in &self.shards {
            for (i, w) in shard.barrier_windows().enumerate() {
                if i == windows.len() {
                    windows.push(Vec::new());
                }
                windows[i].push(w);
            }
        }
        windows
    }

    /// Barrier windows each shard was the straggler for, indexed by
    /// shard.
    pub fn straggler_windows(&self) -> Vec<u64> {
        let mut counts = vec![0; self.shards.len()];
        for window in self.barrier_windows() {
            if let Some(s) = window[0].straggler {
                counts[s] += 1;
            }
        }
        counts
    }
}

/// Renders a [`RunProfile`] as Chrome Trace Event JSON (object format,
/// `{"traceEvents": [...]}`) on the **virtual-time** microsecond
/// timeline: slices show what each shard did per window of simulated
/// time, with the wall-clock phase breakdown attached as slice `args`.
/// The result loads in Perfetto (<https://ui.perfetto.dev>) and
/// `chrome://tracing`.
///
/// Track layout: tid 0 is the coordinator (one slice per barrier
/// window, derived by [`RunProfile::barrier_windows`] and annotated with
/// the straggler shard); tid `s + 1` is shard `s`. A coordinator slice's
/// `wall_us` is the slowest shard's `execute_ns + exchange_ns` in that
/// window — no shard observes the interval from the decision to the last
/// fold, so the busiest shard's own work stands in for it. A shard track
/// without barrier windows (a sequential run) renders a single summary
/// slice.
pub fn chrome_trace_json(profile: &RunProfile, name: &str) -> String {
    let mut trace = ChromeTrace::new(name);
    trace.thread(0, "coordinator");
    for s in 0..profile.shards.len() {
        trace.thread(s as u64 + 1, &format!("shard {s}"));
    }
    for window in profile.barrier_windows() {
        let w = window[0];
        let start = w.start.as_micros();
        let end = window.iter().map(|s| s.issued_end.as_micros()).max();
        let dur = end.unwrap_or(start).saturating_sub(start).max(1);
        let straggler = w.straggler.unwrap_or_default();
        let wall_ns = window.iter().map(|s| s.execute_ns + s.exchange_ns).max();
        let args = Object::new()
            .str("straggler", &format!("shard {straggler}"))
            .uint("events", window.iter().map(|s| s.events).sum())
            .uint("wall_us", wall_ns.unwrap_or(0) / 1_000)
            .uint("width_us", w.width.as_micros());
        trace.slice(0, &format!("window {}", w.index), start, dur, args);
    }
    for (s, shard) in profile.shards.iter().enumerate() {
        let tid = s as u64 + 1;
        if shard.barrier_windows().next().is_none() {
            // Sequential run: one summary slice covering the whole
            // execute phase (virtual extent unknown — use wall µs).
            let dur = (shard.phases.execute_ns / 1_000).max(1);
            let args = Object::new()
                .uint("events", shard.events)
                .uint("execute_ns", shard.phases.execute_ns);
            trace.slice(tid, "execute", 0, dur, args);
            continue;
        }
        let mut prev_end = 0u64;
        for w in &shard.windows {
            let end = w.end.as_micros();
            let start = prev_end.min(end);
            let dur = end.saturating_sub(start).max(1);
            let label = if w.events == 0 { "idle" } else { "execute" };
            let args = Object::new()
                .uint("events", w.events)
                .uint("execute_ns", w.execute_ns)
                .uint("exchange_ns", w.exchange_ns)
                .uint("fill_ns", w.fill_ns)
                .uint("wait_ns", w.wait_ns);
            trace.slice(tid, label, start, dur, args);
            prev_end = end;
        }
    }
    let other = Object::new()
        .str("source", "fed-profile")
        .str("timeline", "virtual-us")
        .uint("wall_ns", profile.wall_ns);
    trace.finish(other) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_sim::time::SimDuration;

    #[test]
    fn work_counters_merge_exactly() {
        let a = WorkCounters {
            events: 1,
            queue_pushes: 2,
            queue_pops: 3,
            msgs_sent: 4,
            msgs_received: 5,
            msgs_lost: 6,
            bytes_sent: 7,
            probe_calls: 8,
        };
        let mut m = a;
        m.merge(&a);
        assert_eq!(
            m,
            WorkCounters {
                events: 2,
                queue_pushes: 4,
                queue_pops: 6,
                msgs_sent: 8,
                msgs_received: 10,
                msgs_lost: 12,
                bytes_sent: 14,
                probe_calls: 16,
            }
        );
    }

    /// A window report with the wall-clock split `[execute, exchange,
    /// fill, wait]` and no mailbox traffic.
    fn window(
        index: u64,
        straggler: Option<usize>,
        end_ms: u64,
        events: u64,
        [execute_ns, exchange_ns, fill_ns, wait_ns]: [u64; 4],
    ) -> WindowWork {
        let end = SimTime::from_millis(end_ms);
        WindowWork {
            index,
            start: SimTime::ZERO,
            width: end.duration_since(SimTime::ZERO),
            straggler,
            issued_end: end,
            end,
            events,
            mailbox_msgs: 0,
            mailbox_bytes: 0,
            execute_ns,
            exchange_ns,
            fill_ns,
            wait_ns,
        }
    }

    #[test]
    fn shard_profile_classifies_idle_windows() {
        let mut p = ShardProfile::default();
        p.on_window(window(1, Some(0), 1, 5, [100, 20, 40, 30]));
        p.on_window(window(2, Some(0), 2, 0, [0, 10, 0, 50]));
        assert_eq!(p.phases.execute_ns, 100);
        assert_eq!(p.phases.exchange_ns, 30);
        assert_eq!(p.phases.fill_ns, 40, "absorption wait is pipeline fill");
        assert_eq!(p.phases.barrier_ns, 30, "busy window's wait is barrier");
        assert_eq!(p.phases.idle_ns, 50, "empty window's wait is idle");
        assert_eq!(p.windows.len(), 2);
    }

    #[test]
    fn counting_probe_counts_and_forwards() {
        #[derive(Default)]
        struct Tape {
            events: u64,
            liveness: u64,
        }
        impl Probe for Tape {
            fn on_event(&mut self, _now: SimTime) {
                self.events += 1;
            }
            fn on_liveness(&mut self, _now: SimTime, _node: NodeId, _alive: bool) {
                self.liveness += 1;
            }
        }
        let mut p = CountingProbe::new(Tape::default());
        p.on_event(SimTime::ZERO);
        p.on_receive(SimTime::ZERO, NodeId::new(0), 8);
        p.on_liveness(SimTime::ZERO, NodeId::new(0), true);
        assert_eq!(p.calls, 3);
        assert_eq!(p.inner.events, 1);
        assert_eq!(p.inner.liveness, 1);
    }

    fn sample_profile() -> RunProfile {
        let mut shard = ShardProfile::default();
        shard.on_event(SimTime::ZERO);
        shard.on_window(WindowWork {
            mailbox_msgs: 2,
            mailbox_bytes: 64,
            ..window(1, Some(0), 10, 1, [1_000, 200, 50, 300])
        });
        RunProfile {
            work: vec![WorkCounters {
                events: 1,
                ..WorkCounters::default()
            }],
            shards: vec![shard],
            queue: QueueStats {
                pushes: 4,
                pops: 3,
                overflow_hits: 1,
            },
            wall_ns: 2_000,
        }
    }

    /// `value` without any `width_us` member, at any depth.
    fn without_width(value: json::Value) -> json::Value {
        use json::Value;
        match value {
            Value::Obj(members) => Value::Obj(
                members
                    .into_iter()
                    .filter(|(k, _)| k != "width_us")
                    .map(|(k, v)| (k, without_width(v)))
                    .collect(),
            ),
            Value::Arr(items) => Value::Arr(items.into_iter().map(without_width).collect()),
            other => other,
        }
    }

    /// A sequential and a windowed profile (busy and idle shard windows
    /// next to a sequential summary track) render what the writer this
    /// one replaced rendered for them — captured from it verbatim — plus
    /// the coordinator slice's `width_us`. Both are built from per-shard
    /// window reports; the idle report carries no straggler, so it shows
    /// on its shard's track but adds no coordinator slice.
    #[test]
    fn chrome_trace_matches_the_captured_documents() {
        let mut sequential = ShardProfile::default();
        for _ in 0..9 {
            sequential.on_event(SimTime::ZERO);
        }
        sequential.on_window(window(1, None, 1_000, 9, [4_200, 0, 0, 0]));
        let seq = RunProfile {
            shards: vec![sequential.clone()],
            wall_ns: 5_000,
            ..RunProfile::default()
        };
        let seq_capture = r#"{"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"seq"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"coordinator"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"shard 0"}},
{"ph":"X","pid":0,"tid":1,"name":"execute","ts":0,"dur":4,"args":{"events":9,"execute_ns":4200}}
],"displayTimeUnit":"ms","otherData":{"source":"fed-profile","timeline":"virtual-us","wall_ns":5000}}
"#;
        assert_eq!(chrome_trace_json(&seq, "seq"), seq_capture);

        let mut shard = ShardProfile::default();
        shard.on_window(WindowWork {
            width: SimDuration::from_millis(8),
            ..window(1, Some(1), 10, 1, [1_000, 200, 50, 300])
        });
        shard.on_window(window(2, None, 12, 0, [0, 10, 0, 30]));
        let windowed = RunProfile {
            shards: vec![shard, sequential],
            wall_ns: 2_000,
            ..RunProfile::default()
        };
        let windowed_capture = r#"{"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"unit \"test\""}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"coordinator"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"shard 0"}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"shard 1"}},
{"ph":"X","pid":0,"tid":0,"name":"window 1","ts":0,"dur":10000,"args":{"straggler":"shard 1","events":1,"wall_us":1}},
{"ph":"X","pid":0,"tid":1,"name":"execute","ts":0,"dur":10000,"args":{"events":1,"execute_ns":1000,"exchange_ns":200,"fill_ns":50,"wait_ns":300}},
{"ph":"X","pid":0,"tid":1,"name":"idle","ts":10000,"dur":2000,"args":{"events":0,"execute_ns":0,"exchange_ns":10,"fill_ns":0,"wait_ns":30}},
{"ph":"X","pid":0,"tid":2,"name":"execute","ts":0,"dur":4,"args":{"events":9,"execute_ns":4200}}
],"displayTimeUnit":"ms","otherData":{"source":"fed-profile","timeline":"virtual-us","wall_ns":2000}}
"#;
        let text = chrome_trace_json(&windowed, "unit \"test\"");
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            without_width(doc.clone()),
            json::parse(windowed_capture).unwrap()
        );
        let window = &doc.get("traceEvents").and_then(|e| e.as_array()).unwrap()[4];
        let width = window.get("args").and_then(|a| a.get("width_us"));
        assert_eq!(width.and_then(|w| w.as_f64()), Some(8_000.0));
    }

    #[test]
    fn run_profile_aggregates() {
        let p = sample_profile();
        let work = p.merged_work();
        assert_eq!(work.events, 1);
        assert_eq!(work.queue_pushes, 4);
        assert_eq!(work.queue_pops, 3);
        let sched = p.sched();
        assert_eq!(sched.overflow_hits, 1);
        assert_eq!(sched.mailbox_msgs, 2);
        assert_eq!(sched.mailbox_bytes, 64);
        assert_eq!(sched.windows, 1);
        assert_eq!(sched.straggler_windows, 1);
        let ph = p.phases();
        let total = ph.execute_ns + ph.exchange_ns + ph.fill_ns + ph.barrier_ns + ph.idle_ns;
        assert_eq!(total, 1_550);
    }

    #[test]
    fn chrome_trace_is_wellformed_json_with_expected_tracks() {
        let p = sample_profile();
        let text = chrome_trace_json(&p, "unit-test");
        let v = json::parse(&text).expect("trace must parse as JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // 2 metadata (process + coordinator) + 1 shard metadata
        // + 1 coordinator window + 1 shard window.
        assert_eq!(events.len(), 5);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert_eq!(names.iter().filter(|&&p| p == "M").count(), 3);
        assert_eq!(names.iter().filter(|&&p| p == "X").count(), 2);
        for e in events {
            if e.get("ph").and_then(|p| p.as_str()) == Some("X") {
                assert!(e.get("dur").and_then(|d| d.as_f64()).unwrap() >= 1.0);
            }
        }
        let straggler = events
            .iter()
            .find_map(|e| e.get("args").and_then(|a| a.get("straggler")))
            .and_then(|s| s.as_str())
            .expect("coordinator slice carries straggler attribution");
        assert_eq!(straggler, "shard 0");
    }

    #[test]
    fn trace_name_is_escaped() {
        let p = RunProfile::default();
        let text = chrome_trace_json(&p, "we\"ird\\name");
        let v = json::parse(&text).expect("escaped trace must parse");
        let name = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .and_then(|a| a.first())
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("name"))
            .and_then(|n| n.as_str())
            .unwrap();
        assert_eq!(name, "we\"ird\\name");
    }

    #[test]
    fn profile_spec_checked() {
        assert!(ProfileSpec::checked(ProfileSpec::default()).is_ok());
        assert!(ProfileSpec::checked(ProfileSpec {
            trace: Some("trace.json".into())
        })
        .is_ok());
        assert!(ProfileSpec::checked(ProfileSpec {
            trace: Some("   ".into())
        })
        .is_err());
    }
}
