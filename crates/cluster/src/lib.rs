//! # fed-cluster
//!
//! A sharded, multi-threaded runtime executing the exact computation of
//! [`fed_sim::Simulation`] across worker threads.
//!
//! ## Model
//!
//! [`ShardedSimulation`] partitions the `n` node ids across `s` shards
//! through a [`ShardMap`] — round-robin by default, with block and
//! load-balanced (weight-profile-guided) placements available. Each shard
//! is a worker thread owning a [`fed_sim::exec::Kernel`] for its nodes
//! and a private [`fed_sim::exec::EventQueue`] (a calendar queue; see
//! `fed_sim::exec`); node-local events (timers, commands, same-shard
//! messages) never leave the shard.
//!
//! Cross-shard messages flow through **double-buffered per-destination
//! mailboxes**: during a window each shard batches the events it
//! produces for every other shard, and at the end of the window the
//! batches are sent **directly shard-to-shard** over dedicated channels
//! (drained batch vectors return over a paired channel, so steady-state
//! windows allocate nothing). Nothing central touches event payloads —
//! or anything else: the scheduling state is one compact summary per
//! shard per window (events processed, local queue head, per-destination
//! outbound minimum times, all tracked incrementally), min-folded into a
//! **shared O(shards) reduction**. Whichever worker folds *last*
//! computes the next window and publishes it before releasing the lock,
//! so the decision is ready the moment the slowest shard finishes — the
//! coordinator round-trip of the pre-pipelined design is gone, and no
//! scan of pending events happens anywhere.
//!
//! ## Windows
//!
//! Windows are **conservative**: the lookahead `L` is the network model's
//! minimum latency ([`NetworkModel::min_latency`]), so a message produced
//! at time `t` is never due before `t + L`. From the per-shard head times
//! `next_s` the reduction derives, for every shard `d`, the bound
//!
//! ```text
//! end_d  ≤  min over s ≠ d of (next_s + L)
//! ```
//!
//! — no other shard's *pending* work can emit an event due earlier. One
//! more hazard remains inside a wide window: shard `d`'s own cross-shard
//! sends can bounce off a peer and come back due as early as `α + L`,
//! where `α` is the send's due time. The worker therefore tightens a
//! **dynamic end** to `α + L` the moment it emits a cross-shard delivery
//! (see `ShardSink`), which is deterministic — it depends only on the
//! shard's own event stream — and never invalidates an event already
//! processed (`α ≥ t + L` for an event processed at `t`).
//!
//! The exchange is **pipelined**: a worker that finishes its window
//! sends one batch per peer, folds its summary, and then immediately
//! absorbs its peers' batches for the *next* window — exactly one per
//! peer — while the slower shards are still executing. Inbound events
//! are conservatively due at or after their sender's `next + L`, i.e.
//! inside a later window, so pushing them while the local window is
//! closed cannot perturb the dispatch order and bit-identity is
//! preserved by construction. Because every send precedes every fold,
//! all batches a window needs are in flight before its decision is even
//! computable: absorption overlaps straggler execution (*pipeline
//! fill*), and the only wait left at the decision channel is the genuine
//! straggler stall. See docs/ARCHITECTURE.md for the full protocol.
//!
//! The target window width is **adaptive**: it grows when windows run
//! near-empty and shrinks when they are dense (always within `[L, L ×
//! 4096]`), letting sparse phases and shards with mostly node-local
//! traffic batch far more virtual time per barrier; the two bounds above
//! clamp every window, so the width cannot affect results.
//!
//! ## Determinism
//!
//! Results are **bit-for-bit identical** to the sequential engine for the
//! same seed, workload and population, regardless of shard count or
//! placement policy:
//!
//! * events carry canonical `(time, source, per-source seq)` keys
//!   ([`fed_sim::exec::EventKey`]) assigned at production time, and every
//!   queue pops in key order — merging event streams at barriers cannot
//!   reorder them;
//! * per-node random streams ([`fed_sim::exec::seed_streams`]) are forked
//!   from the master seed by node id, never shared across nodes, so
//!   thread interleaving cannot perturb them;
//! * window ends are computed from deterministic summaries, and the
//!   conservative bound guarantees every event is processed after
//!   everything that could causally precede it.
//!
//! The equivalence is asserted by this crate's tests and by the
//! parity matrix in `fed-experiments` (`tests/parity/mod.rs`): one table of
//! cells — every architecture, the paper's gossip configurations, churn,
//! flash crowds, faults, mobility, every instrument subset, generated and
//! drawn scenarios and the scenario library — each run sequentially and
//! at shard counts up to 8 under every placement policy, and compared
//! observable by observable.
//!
//! ## Observation
//!
//! [`ShardedSimulation::run_until_observed`] threads one [`Probe`] per
//! shard through its worker. An observer that
//! [`profiles`](Probe::profiles) gets one [`Probe::on_window`] per
//! window: the published decision (index, start, width, straggler and
//! the end issued to that shard) plus the shard's events, mailbox
//! traffic and phase wall clocks. The reduction keeps no schedule of its
//! own: every shard reports every window with the same decision, so the
//! schedule is the fold of the per-shard reports (`fed-profile`'s
//! `RunProfile::barrier_windows`).
//!
//! ## Example
//!
//! ```
//! use fed_cluster::ShardedSimulation;
//! use fed_sim::network::NetworkModel;
//! use fed_sim::{Context, NodeId, Protocol, SimTime};
//!
//! struct Ping { got: bool }
//! impl Protocol for Ping {
//!     type Msg = ();
//!     type Cmd = ();
//!     fn on_init(&mut self, ctx: &mut Context<'_, ()>) {
//!         if ctx.id() == NodeId::new(0) {
//!             for i in 0..ctx.system_size() as u32 {
//!                 ctx.send(NodeId::new(i), ());
//!             }
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {
//!         self.got = true;
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _token: u64) {}
//! }
//!
//! let mut sim = ShardedSimulation::new(64, NetworkModel::default(), 1, 4, |_, _| {
//!     Ping { got: false }
//! });
//! sim.run_until(SimTime::from_secs(1));
//! assert!(sim.nodes().all(|(_, p)| p.got));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod shard_map;

pub use shard_map::ShardMap;

use fed_sim::exec::{
    budget_exhausted, seed_streams, EffectSink, EventKey, EventKind, EventQueue, HandlerPanic,
    Kernel, Probe, QueueStats, TransportStats, WindowWork, EXTERNAL_SRC,
};
use fed_sim::network::NetworkModel;
use fed_sim::protocol::{NodeId, Protocol};
use fed_sim::time::{SimDuration, SimTime};
use fed_util::rng::Xoshiro256StarStar;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The shared, thread-safe node-state factory of a cluster.
type SharedFactory<P> = Arc<dyn Fn(NodeId, &mut Xoshiro256StarStar) -> P + Send + Sync>;

/// A batch of events exchanged shard-to-shard at a window barrier.
type Batch<P> = Vec<(EventKey, EventKind<P>)>;

/// Cap on the adaptive target width as a multiple of the lookahead.
const MAX_WIDTH_FACTOR: u64 = 4096;

/// Result of a [`ShardedSimulation::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterReport {
    /// Events processed during this call, summed over all shards.
    pub events: u64,
    /// Time windows executed (each window is one cross-shard barrier).
    pub windows: u64,
}

/// One shard: a kernel for the nodes it owns plus its private queue.
struct Shard<P: Protocol> {
    index: usize,
    kernel: Kernel<P>,
    queue: EventQueue<P>,
    /// The event the worker is dispatching, so that a handler's panic can
    /// name it.
    handling: Option<(EventKey, NodeId)>,
}

/// Sink used while a shard dispatches mid-window: local events go straight
/// onto the shard's queue, cross-shard deliveries into the
/// per-destination outbound mailbox, with the per-destination minimum
/// time tracked incrementally (no scan at the barrier).
///
/// Emitting a cross-shard delivery due at `α` also tightens the window's
/// **dynamic end** to `α + L`: a peer could process that delivery next
/// window and answer with something due as early as `α + L`, so this
/// shard must not run past that point. The clamp is what makes windows
/// wider than one lookahead safe — it binds exactly when cross-shard
/// feedback is possible, and (because any `α ≥ t + L` for an event
/// processed at `t`) never retroactively invalidates an event already
/// processed.
struct ShardSink<'a, P: Protocol> {
    map: &'a ShardMap,
    local_shard: usize,
    lookahead: SimDuration,
    dyn_end: &'a mut SimTime,
    queue: &'a mut EventQueue<P>,
    out: &'a mut Vec<Batch<P>>,
    out_min: &'a mut Vec<Option<SimTime>>,
}

impl<P: Protocol> EffectSink<P> for ShardSink<'_, P> {
    fn emit(&mut self, key: EventKey, kind: EventKind<P>) {
        let dest = self.map.shard_of(kind.dest());
        if dest == self.local_shard {
            self.queue.push(key, kind);
        } else {
            let t = key.time;
            *self.dyn_end = (*self.dyn_end).min(t.saturating_add(self.lookahead));
            self.out_min[dest] = Some(match self.out_min[dest] {
                Some(m) => m.min(t),
                None => t,
            });
            self.out[dest].push((key, kind));
        }
    }
}

/// Sink used during construction, before worker threads exist: local
/// events onto the shard's queue, cross-shard init effects into a staging
/// vector delivered straight into the destination queues once every
/// shard is built.
struct InitSink<'a, P: Protocol> {
    map: &'a ShardMap,
    local_shard: usize,
    queue: &'a mut EventQueue<P>,
    outbound: &'a mut Vec<(usize, EventKey, EventKind<P>)>,
}

impl<P: Protocol> EffectSink<P> for InitSink<'_, P> {
    fn emit(&mut self, key: EventKey, kind: EventKind<P>) {
        let dest = self.map.shard_of(kind.dest());
        if dest == self.local_shard {
            self.queue.push(key, kind);
        } else {
            self.outbound.push((dest, key, kind));
        }
    }
}

/// Per-worker window instruction, published by whichever shard completes
/// the epoch's reduction (or by the calling thread for the first
/// window). Event payloads never travel this channel; they go
/// shard-to-shard through the mailbox channels.
enum Decision {
    /// Execute one conservative window.
    Window {
        /// Global minimum pending time the window starts at.
        start: SimTime,
        /// Adaptive target width in effect.
        width: SimDuration,
        /// The shard holding the global minimum (see
        /// [`WindowWork::straggler`]).
        holder: usize,
        /// Exclusive virtual-time end of the window for this shard.
        end: SimTime,
        /// Events left in the run's budget when the window opened: a
        /// shard that would dispatch more than this in the window fails
        /// the run.
        budget: u64,
    },
    /// Exit the worker loop. Every in-flight batch was already absorbed
    /// at the end of the final window, so there is nothing to drain.
    Stop,
}

/// The shared reduction that replaced the coordinator thread: at the end
/// of a window every worker min-folds its O(shards) summary (local queue
/// head + per-destination outbound minima) into this state, and the
/// **last arriver** computes and publishes the next window's decision
/// in-place — so the decision is ready the moment the slowest shard
/// finishes, never one coordinator round-trip later. Folding uses only
/// `min` (associative and commutative), so the merged state — and hence
/// the decision — is independent of worker arrival order.
struct Reduction {
    /// Workers that have folded the current epoch so far.
    arrived: usize,
    /// Per-shard local queue head after the epoch's window.
    local_next: Vec<Option<SimTime>>,
    /// Minimum event time in flight to each shard, folded from the
    /// senders' outbound minima — batches the destination has not
    /// absorbed into its local queue yet, so its `local_next` alone
    /// would miss them.
    inbound_min: Vec<Option<SimTime>>,
    /// Events executed in the current epoch's window, all shards.
    epoch_events: u64,
    /// Adaptive target width in effect.
    width: SimDuration,
    /// Events processed this `run_until` call.
    events: u64,
    /// Windows completed this `run_until` call.
    windows: u64,
    /// One decision sender per worker, used by the last arriver.
    decision_txs: Vec<Sender<Decision>>,
}

/// The window-decision parameters, fixed for one `run_until` call. The
/// decision math is exactly the pre-pipelined coordinator's; only *who*
/// runs it moved (into whichever worker folds last).
struct Scheduler {
    num_shards: usize,
    lookahead: SimDuration,
    /// Exclusive bound enforcing the inclusive target (`target + 1µs`,
    /// saturating: events due exactly at [`SimTime::MAX`] never run).
    hard_end: SimTime,
    max_events: u64,
    /// Events processed by earlier `run_until` calls.
    already: u64,
    /// Adaptive width cap (`lookahead × MAX_WIDTH_FACTOR`).
    cap: SimDuration,
}

/// What [`Scheduler::decide`] concluded from the folded head times.
enum Verdict {
    /// No runnable window: no event is due before `hard_end`.
    Stop,
    /// Issue a window starting at the global minimum `start`, held by
    /// shard `holder` whose own end is bounded by the runner-up `m2`.
    Window {
        start: SimTime,
        holder: usize,
        m2: Option<SimTime>,
    },
}

impl Scheduler {
    /// Computes the next window from per-shard head times, in O(shards).
    fn decide(&self, next: impl Fn(usize) -> Option<SimTime>) -> Verdict {
        // Global minimum pending time (the window start), its holder,
        // and the runner-up — never from scanning events.
        let mut m1: Option<(SimTime, usize)> = None;
        let mut m2: Option<SimTime> = None;
        for s in 0..self.num_shards {
            let Some(t) = next(s) else { continue };
            match m1 {
                None => m1 = Some((t, s)),
                Some((best, _)) if t < best => {
                    m2 = Some(best);
                    m1 = Some((t, s));
                }
                Some(_) => {
                    m2 = Some(match m2 {
                        Some(m) => m.min(t),
                        None => t,
                    });
                }
            }
        }
        match m1 {
            Some((start, holder)) if start < self.hard_end => Verdict::Window { start, holder, m2 },
            _ => Verdict::Stop,
        }
    }

    /// Conservative per-shard end: shard `s` cannot emit anything due
    /// before `next_s + L`, so `d` may run to the minimum of that over
    /// all other shards — the runner-up head for the holder of the
    /// global minimum, the global minimum itself for everyone else.
    fn end_for(
        &self,
        d: usize,
        start: SimTime,
        holder: usize,
        m2: Option<SimTime>,
        width: SimDuration,
    ) -> SimTime {
        let allowance = if d == holder { m2 } else { Some(start) };
        let mut end = start.saturating_add(width);
        if let Some(a) = allowance {
            end = end.min(a.saturating_add(self.lookahead));
        }
        end.min(self.hard_end)
    }

    /// Deterministic grow/shrink of the target width from the observed
    /// events per window, floored at the lookahead.
    fn adapt(&self, width: SimDuration, window_events: u64) -> SimDuration {
        let sparse = 8 * self.num_shards as u64;
        let dense = 128 * self.num_shards as u64;
        if window_events < sparse {
            width.saturating_mul(2).min(self.cap)
        } else if window_events > dense {
            SimDuration::from_micros((width.as_micros() / 2).max(self.lookahead.as_micros()))
        } else {
            width
        }
    }
}

/// Publishes `verdict` to every worker: the window with its per-shard
/// ends, or the stop signal. Resets the epoch accumulator.
fn publish(sched: &Scheduler, r: &mut Reduction, verdict: Verdict) {
    match verdict {
        Verdict::Stop => {
            for tx in &r.decision_txs {
                let _ = tx.send(Decision::Stop);
            }
        }
        Verdict::Window { start, holder, m2 } => {
            let width = r.width;
            let budget = sched.max_events.saturating_sub(sched.already + r.events);
            for (d, tx) in r.decision_txs.iter().enumerate() {
                let end = sched.end_for(d, start, holder, m2, width);
                let _ = tx.send(Decision::Window {
                    start,
                    width,
                    holder,
                    end,
                    budget,
                });
            }
            // The decision has consumed the in-flight minima; reset the
            // accumulator for the next epoch's folds.
            for m in r.inbound_min.iter_mut() {
                *m = None;
            }
        }
    }
}

/// Completes an epoch after the last worker folded: adapts the width,
/// and decides + publishes the next window — all under the reduction
/// lock, so the decision is deterministic and workers always observe a
/// fully-published epoch.
fn complete_epoch(sched: &Scheduler, r: &mut Reduction) {
    r.arrived = 0;
    let window_events = std::mem::take(&mut r.epoch_events);
    r.events += window_events;
    r.windows += 1;
    r.width = sched.adapt(r.width, window_events);
    let verdict = sched.decide(|s| match (r.local_next[s], r.inbound_min[s]) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    });
    publish(sched, r, verdict);
}

/// Folds one worker's end-of-window summary into the shared reduction;
/// the last arriver completes the epoch (which publishes the next
/// decision before the lock is released).
fn fold_summary(
    sched: &Scheduler,
    red: &Mutex<Reduction>,
    shard: usize,
    events: u64,
    local_next: Option<SimTime>,
    out_min: &mut [Option<SimTime>],
) {
    let mut guard = red.lock().expect("reduction lock");
    let r = &mut *guard;
    r.local_next[shard] = local_next;
    for (d, m) in out_min.iter_mut().enumerate() {
        if let Some(t) = m.take() {
            r.inbound_min[d] = Some(match r.inbound_min[d] {
                Some(x) => x.min(t),
                None => t,
            });
        }
    }
    r.epoch_events += events;
    r.arrived += 1;
    if r.arrived == sched.num_shards {
        complete_epoch(sched, r);
    }
}

/// One worker's channel endpoints. The mailbox ends are indexed by peer
/// shard (`None` on the diagonal): data batches travel `mail`; the drained
/// vectors come back over `ret` so steady-state windows allocate nothing.
struct Links<P: Protocol> {
    /// This worker's window decisions.
    decisions: Receiver<Decision>,
    /// Outbound data batches, by destination.
    mail_txs: Vec<Option<Sender<Batch<P>>>>,
    /// Inbound data batches, by source.
    mail_rxs: Vec<Option<Receiver<Batch<P>>>>,
    /// Returns a drained batch vector to its sender, by source.
    ret_txs: Vec<Option<Sender<Batch<P>>>>,
    /// Reclaims our own vectors from the destination that drained them.
    ret_rxs: Vec<Option<Receiver<Batch<P>>>>,
}

fn worker_loop<P: Protocol, O: Probe>(
    shard: &mut Shard<P>,
    obs: &mut O,
    factory: &(dyn Fn(NodeId, &mut Xoshiro256StarStar) -> P + Send + Sync),
    map: &ShardMap,
    sched: &Scheduler,
    red: &Mutex<Reduction>,
    links: Links<P>,
) {
    let num_shards = map.num_shards();
    let mut factory = |id: NodeId, rng: &mut Xoshiro256StarStar| factory(id, rng);
    let Shard {
        index,
        kernel,
        queue,
        handling,
    } = shard;
    let me = *index;
    let lookahead = kernel.net().min_latency();
    let mut out: Vec<Batch<P>> = (0..num_shards).map(|_| Vec::new()).collect();
    let mut out_min: Vec<Option<SimTime>> = vec![None; num_shards];
    // Wall clocks are taken (and mailbox batches sized) only for an
    // observer that profiles, so the unprofiled hot path pays nothing.
    let timing = obs.profiles();
    let mut index = 0u64;
    loop {
        // The decision is computed in-place by whichever worker folds the
        // epoch last, so by the time it arrives every peer has already
        // sent its batch (sends precede folds) and this window's inbound
        // events are already in our queue (absorbed below, before the
        // recv). Blocking here is therefore the *pure* straggler stall:
        // everything local is done and the slowest shard has not folded.
        let wait_t0 = timing.then(Instant::now);
        let Ok(msg) = links.decisions.recv() else {
            break;
        };
        let wait_ns = wait_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let Decision::Window {
            start,
            width,
            holder,
            end,
            budget,
        } = msg
        else {
            // Stop: the final window's batches were absorbed at its end,
            // so the queue already holds every in-flight event for the
            // next `run_until` call.
            break;
        };
        index += 1;
        // Reclaim batch vectors our peers drained and returned.
        for (dest, ret) in links.ret_rxs.iter().enumerate() {
            if let Some(ret) = ret {
                if out[dest].capacity() == 0 {
                    if let Ok(v) = ret.try_recv() {
                        out[dest] = v;
                    }
                }
            }
        }
        let mut dyn_end = end;
        let mut events = 0u64;
        let mut exchange_ns = 0u64;
        let mut fill_ns = 0u64;
        // Run the local queue — which already holds this window's
        // absorbed inbound events — to the (dynamic) window end.
        // `dyn_end` starts at the published conservative end and tightens
        // as cross-shard sends occur (see [`ShardSink`]); unprocessed
        // events simply wait for the next window. A shard that alone
        // would run past the budget left fails the run here, inside the
        // window, so a same-time cycle cannot spin it forever.
        let exec_t0 = timing.then(Instant::now);
        while let Some((key, kind)) = queue.pop_before(dyn_end) {
            if events >= budget {
                budget_exhausted(sched.max_events, key.time);
            }
            events += 1;
            *handling = Some((key, kind.dest()));
            let mut sink = ShardSink {
                map,
                local_shard: me,
                lookahead,
                dyn_end: &mut dyn_end,
                queue,
                out: &mut out,
                out_min: &mut out_min,
            };
            kernel.dispatch_with(key, kind, &mut factory, &mut sink, obs);
            *handling = None;
        }
        let execute_ns = exec_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let (mut mailbox_msgs, mut mailbox_bytes) = (0u64, 0u64);
        if timing {
            for batch in &out {
                mailbox_msgs += batch.len() as u64;
                for (_, kind) in batch {
                    if let EventKind::Deliver { msg, .. } = kind {
                        mailbox_bytes += P::message_size(msg) as u64;
                    }
                }
            }
        }
        // Send one batch (possibly empty) to every peer *before* folding:
        // the decision that follows the fold may race ahead of us
        // otherwise, and a stopping peer must find its final batch.
        let send_t0 = timing.then(Instant::now);
        for (dest, tx) in links.mail_txs.iter().enumerate() {
            if let Some(tx) = tx {
                if tx.send(std::mem::take(&mut out[dest])).is_err() {
                    return; // peer gone, run shutting down
                }
            }
        }
        exchange_ns += send_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // Fold immediately after sending so the reduction — and hence the
        // next decision — never waits on this shard's absorption below.
        // `queue.next_time()` is taken before absorbing, which is why the
        // reduction folds the senders' outbound minima (`inbound_min`)
        // alongside it: together they cover every event this shard will
        // hold next window.
        fold_summary(sched, red, me, events, queue.next_time(), &mut out_min);
        // Absorption — exactly one batch per peer per window, pulled
        // *eagerly* between the fold and the next decision, while the
        // slower shards are still executing. Inbound events are due at or
        // after `next + lookahead` of their sender, i.e. inside a later
        // window, so pushing them while this window is closed is safe.
        // Blocking here is pipeline fill (the peer has not reached its
        // send yet), not a straggler stall.
        for (rx, ret) in links.mail_rxs.iter().zip(&links.ret_txs) {
            let (Some(rx), Some(ret)) = (rx, ret) else {
                continue;
            };
            let fill_t0 = timing.then(Instant::now);
            let Ok(mut batch) = rx.recv() else {
                return; // peer gone, run shutting down
            };
            fill_ns += fill_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let push_t0 = timing.then(Instant::now);
            for (key, kind) in batch.drain(..) {
                queue.push(key, kind);
            }
            let _ = ret.send(batch);
            exchange_ns += push_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        }
        if timing {
            obs.on_window(WindowWork {
                index,
                start,
                width,
                straggler: Some(holder),
                issued_end: end,
                end: dyn_end,
                events,
                mailbox_msgs,
                mailbox_bytes,
                execute_ns,
                exchange_ns,
                fill_ns,
                wait_ns,
            });
        }
    }
}

/// The sharded simulation runtime; see the crate docs for the model.
pub struct ShardedSimulation<P: Protocol> {
    shards: Vec<Shard<P>>,
    map: Arc<ShardMap>,
    n: usize,
    now: SimTime,
    external_seq: u64,
    lookahead: SimDuration,
    /// Current adaptive target width; persists across `run_until` calls.
    window_width: SimDuration,
    factory: SharedFactory<P>,
    events_processed: u64,
    max_events: u64,
    windows: u64,
}

impl<P: Protocol> ShardedSimulation<P> {
    /// Creates a simulation of `n` nodes split round-robin across
    /// `shards` shards, and runs every node's `on_init` at time zero.
    ///
    /// Unlike [`fed_sim::Simulation::new`], the factory must be `Fn` (not
    /// `FnMut`) and thread-safe, because crashed nodes can be rebuilt
    /// concurrently on any shard. Stateless factories — the common case —
    /// satisfy this as-is and make a sharded run bit-identical to a
    /// sequential one.
    ///
    /// `shards` is clamped to `1..=n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > u32::MAX as usize`.
    pub fn new<F>(n: usize, net: NetworkModel, seed: u64, shards: usize, factory: F) -> Self
    where
        F: Fn(NodeId, &mut Xoshiro256StarStar) -> P + Send + Sync + 'static,
    {
        Self::with_scheduler(n, net, seed, ShardMap::round_robin(n, shards), factory)
    }

    /// Creates a simulation with an explicit placement ([`ShardMap`]).
    ///
    /// # Panics
    ///
    /// Panics if `map` does not cover exactly `n` nodes.
    pub fn with_scheduler<F>(
        n: usize,
        net: NetworkModel,
        seed: u64,
        map: ShardMap,
        factory: F,
    ) -> Self
    where
        F: Fn(NodeId, &mut Xoshiro256StarStar) -> P + Send + Sync + 'static,
    {
        assert!(n > 0, "simulation requires at least one node");
        assert_eq!(map.len(), n, "shard map must cover the population");
        let map = Arc::new(map);
        let num_shards = map.num_shards();
        let lookahead = net.min_latency();
        let factory: SharedFactory<P> = Arc::new(factory);
        let mut streams: Vec<Option<_>> = seed_streams(seed, n).into_iter().map(Some).collect();
        let mut shard_list = Vec::with_capacity(num_shards);
        let mut staged: Vec<(usize, EventKey, EventKind<P>)> = Vec::new();
        for s in 0..num_shards {
            let owned: Vec<u32> = map.owned(s).to_vec();
            let shard_streams = owned
                .iter()
                .map(|&id| streams[id as usize].take().expect("each node on one shard"))
                .collect();
            let mut queue = EventQueue::new();
            let shared = &*factory;
            let mut factory = |id: NodeId, rng: &mut Xoshiro256StarStar| shared(id, rng);
            let kernel = {
                let mut sink = InitSink {
                    map: &map,
                    local_shard: s,
                    queue: &mut queue,
                    outbound: &mut staged,
                };
                Kernel::new(
                    n,
                    owned,
                    shard_streams,
                    net.clone(),
                    &mut factory,
                    &mut sink,
                )
            };
            shard_list.push(Shard {
                index: s,
                kernel,
                queue,
                handling: None,
            });
        }
        // Deliver cross-shard init effects now that every queue exists;
        // canonical keys make the insertion order irrelevant.
        for (dest, key, kind) in staged {
            shard_list[dest].queue.push(key, kind);
        }
        ShardedSimulation {
            shards: shard_list,
            map,
            n,
            now: SimTime::ZERO,
            external_seq: 0,
            lookahead,
            window_width: lookahead,
            factory,
            events_processed: 0,
            max_events: 500_000_000,
            windows: 0,
        }
    }

    /// Caps the total number of events this cluster will process, as a
    /// safety net against protocol bugs that generate unbounded message
    /// storms (the sequential engine's [`fed_sim::Simulation::set_max_events`]
    /// twin).
    ///
    /// A run that would process more events panics with
    /// [`budget_exhausted`] instead of returning truncated. Each shard
    /// checks the budget left at the start of every window inside its
    /// pop loop; shards that share one window may pass the cap together
    /// without any one of them exceeding it, which the run detects at
    /// the next window or, after the last one, before it returns.
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// The node→shard placement in use.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of node slots.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: constructing with zero nodes is rejected.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of shards actually in use.
    pub fn num_shards(&self) -> usize {
        self.map.num_shards()
    }

    /// The conservative lookahead (minimum window width) of this cluster.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far, summed over all shards.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total barrier windows executed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Push/pop/overflow counters summed over every shard's queue.
    ///
    /// `pushes` and `pops` are partition-invariant and match the
    /// sequential engine's [`fed_sim::Simulation::queue_stats`] for the
    /// same run; `overflow_hits` depends on per-shard queue geometry and
    /// does not (see [`QueueStats`]).
    pub fn queue_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for s in &self.shards {
            total.merge(&s.queue.stats());
        }
        total
    }

    fn shard_of(&self, id: NodeId) -> usize {
        self.map.shard_of(id)
    }

    /// Shared access to a node's protocol state (alive or crashed).
    pub fn node(&self, id: NodeId) -> Option<&P> {
        if id.index() >= self.n {
            return None;
        }
        self.shards[self.shard_of(id)].kernel.node(id)
    }

    /// Iterates over `(id, state)` of every node that has state, in id
    /// order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        (0..self.n as u32).filter_map(move |i| {
            let id = NodeId::new(i);
            self.node(id).map(|p| (id, p))
        })
    }

    /// Consumes the simulation into `(id, state)` of every node that has
    /// state, shard by shard (each shard in id order); each shard's queue
    /// is dropped as its turn comes.
    pub fn into_nodes(self) -> impl Iterator<Item = (NodeId, P)> {
        self.shards.into_iter().flat_map(|s| s.kernel.into_nodes())
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        id.index() < self.n && self.shards[self.shard_of(id)].kernel.is_alive(id)
    }

    /// Transport statistics of one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn transport_stats(&self, id: NodeId) -> TransportStats {
        assert!(id.index() < self.n, "node id out of range");
        self.shards[self.shard_of(id)]
            .kernel
            .stats_of(id)
            .expect("owner shard has stats")
    }

    /// Transport statistics of every node, indexed by node.
    ///
    /// Assembled from the shards; unlike the sequential engine this
    /// returns an owned vector.
    pub fn transport_stats_all(&self) -> Vec<TransportStats> {
        (0..self.n as u32)
            .map(|i| self.transport_stats(NodeId::new(i)))
            .collect()
    }

    /// Schedules an application command for `node` at absolute time `at`.
    ///
    /// Scheduling calls must be issued in the same order as on a
    /// sequential [`fed_sim::Simulation`] for runs to be comparable: the
    /// external sequence number is part of the canonical event order.
    pub fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: P::Cmd) {
        let at = at.max(self.now);
        self.push_external(at, EventKind::Command { node, cmd });
    }

    /// Schedules a crash of `node` at absolute time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        let at = at.max(self.now);
        self.push_external(at, EventKind::Crash(node));
    }

    /// Schedules a (re)join of `node` at absolute time `at`.
    pub fn schedule_join(&mut self, at: SimTime, node: NodeId) {
        let at = at.max(self.now);
        self.push_external(at, EventKind::Join(node));
    }

    fn push_external(&mut self, time: SimTime, kind: EventKind<P>) {
        let seq = self.external_seq;
        self.external_seq += 1;
        let key = EventKey {
            time,
            src: EXTERNAL_SRC,
            seq,
        };
        let dest = self.map.shard_of(kind.dest());
        self.shards[dest].queue.push(key, kind);
    }
}

impl<P> ShardedSimulation<P>
where
    P: Protocol + Send,
    P::Msg: Send,
    P::Cmd: Send,
{
    /// Runs every event due at or before `target` and leaves the clock
    /// at `target`.
    ///
    /// The run pops only events due before `target + 1 µs`, saturating:
    /// events due exactly at [`SimTime::MAX`] are never dispatched.
    ///
    /// Spawns one worker thread per shard for the duration of the call and
    /// coordinates them through conservative windows (see the crate docs).
    /// The `()` case of [`ShardedSimulation::run_until_observed`]: with
    /// the null observer every hook site compiles away.
    pub fn run_until(&mut self, target: SimTime) -> ClusterReport {
        self.run_until_observed(target, &mut vec![(); self.num_shards()])
    }

    /// [`ShardedSimulation::run_until`] with exactly one observer per
    /// shard.
    ///
    /// Worker `s` threads `observers[s]` through every event it
    /// dispatches, so each observer sees exactly the nodes its shard owns
    /// — sends and hops on the *sender's* shard, so each is observed
    /// exactly once across the cluster — and, if it
    /// [`profiles`](Probe::profiles), one [`Probe::on_window`] per
    /// window: the decision (index, start, width, straggler, issued end),
    /// the shard's events and mailbox traffic, and its phase wall clocks
    /// (execute, exchange, pipeline fill, the straggler wait at the
    /// reduction); otherwise no wall clock is read. Every shard reports
    /// every window, so the coordinator's view of a window is the fold
    /// of its per-shard reports. Observers are passive: the observed run
    /// is bit-identical to an unobserved one. A caller wanting global
    /// aggregates merges the per-shard observers afterwards (see
    /// [`Probe`]).
    ///
    /// # Panics
    ///
    /// Panics if `observers.len()` is not the shard count. A protocol
    /// handler's panic on any shard stops every worker and is re-raised
    /// on the caller as a [`HandlerPanic`] naming the shard, the event
    /// being handled (its key and virtual time) and the original message.
    /// Running out of the event budget (see
    /// [`ShardedSimulation::set_max_events`]) panics with
    /// [`budget_exhausted`].
    pub fn run_until_observed<O>(&mut self, target: SimTime, observers: &mut [O]) -> ClusterReport
    where
        O: Probe + Send,
    {
        let num_shards = self.map.num_shards();
        assert_eq!(
            observers.len(),
            num_shards,
            "need exactly one observer per shard"
        );
        let lookahead = self.lookahead;
        let next: Vec<Option<SimTime>> = self.shards.iter().map(|s| s.queue.next_time()).collect();
        let sched = Scheduler {
            num_shards,
            lookahead,
            // `target` is inclusive like the sequential engine; windows
            // have exclusive ends, so the last window may end just past
            // it.
            hard_end: target.saturating_add(SimDuration::from_micros(1)),
            max_events: self.max_events,
            already: self.events_processed,
            cap: lookahead.saturating_mul(MAX_WIDTH_FACTOR),
        };
        let (decision_txs, decision_rxs): (Vec<_>, Vec<_>) =
            (0..num_shards).map(|_| channel::<Decision>()).unzip();
        let mut red = Reduction {
            arrived: 0,
            local_next: vec![None; num_shards],
            inbound_min: vec![None; num_shards],
            epoch_events: 0,
            width: self.window_width.max(lookahead),
            events: 0,
            windows: 0,
            decision_txs,
        };
        // The first decision is made here on the calling thread (from
        // the initial queue heads); every later one is made by whichever
        // worker folds its epoch last. No windows → nothing to spawn.
        let first = sched.decide(|s| next[s]);
        let spawn = matches!(first, Verdict::Window { .. });
        publish(&sched, &mut red, first);
        if spawn {
            let red_lock = Mutex::new(red);
            let sched = &sched;
            std::thread::scope(|scope| {
                // Double-buffered shard-to-shard mailboxes: data batches
                // travel src→dest, drained vectors return dest→src. The
                // pipeline keeps at most two batches in flight per link
                // (a worker can run at most one window ahead of the
                // slowest shard — the next decision needs its fold).
                let unlinked = |decisions| Links {
                    decisions,
                    mail_txs: (0..num_shards).map(|_| None).collect(),
                    mail_rxs: (0..num_shards).map(|_| None).collect(),
                    ret_txs: (0..num_shards).map(|_| None).collect(),
                    ret_rxs: (0..num_shards).map(|_| None).collect(),
                };
                let mut links: Vec<Links<P>> = decision_rxs.into_iter().map(unlinked).collect();
                for src in 0..num_shards {
                    for dest in 0..num_shards {
                        if src == dest {
                            continue;
                        }
                        let (tx, rx) = channel();
                        links[src].mail_txs[dest] = Some(tx);
                        links[dest].mail_rxs[src] = Some(rx);
                        let (tx, rx) = channel();
                        links[dest].ret_txs[src] = Some(tx);
                        links[src].ret_rxs[dest] = Some(rx);
                    }
                }
                let (factory, map, red) = (&*self.factory, &*self.map, &red_lock);
                // Each worker runs its windows under `catch_unwind`: a
                // handler's panic unwinds the worker alone, dropping its
                // channel ends so every peer stops at its next receive,
                // and comes back here with the event it was handling.
                let workers: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(observers)
                    .zip(links)
                    .map(|((shard, obs), links)| {
                        scope.spawn(move || {
                            let run = || worker_loop(shard, obs, factory, map, sched, red, links);
                            catch_unwind(AssertUnwindSafe(run))
                                .map_err(|payload| (shard.index, shard.handling, payload))
                        })
                    })
                    .collect();
                let failures = workers
                    .into_iter()
                    .filter_map(|w| w.join().expect("worker panics are caught").err());
                // A handler's panic is the cause; any other is a symptom.
                let (mut cause, mut other) = (None, None);
                for (shard, handling, payload) in failures {
                    match handling {
                        Some(event) if cause.is_none() => {
                            cause = Some(HandlerPanic::new(shard, event, &*payload));
                        }
                        _ => other = other.or(Some(payload)),
                    }
                }
                if let Some(cause) = cause {
                    panic!("{cause}");
                }
                if let Some(payload) = other {
                    resume_unwind(payload);
                }
            });
            red = red_lock.into_inner().expect("reduction lock");
        }
        let report = ClusterReport {
            events: red.events,
            windows: red.windows,
        };
        self.window_width = red.width;
        self.now = self.now.max(target);
        self.events_processed += report.events;
        self.windows += report.windows;
        // Shards sharing the last window can pass the budget together.
        if self.events_processed > self.max_events {
            budget_exhausted(self.max_events, self.now);
        }
        report
    }

    /// Runs for a span of virtual time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) -> ClusterReport {
        self.run_until(self.now + d)
    }
}

impl<P: Protocol> std::fmt::Debug for ShardedSimulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulation")
            .field("n", &self.n)
            .field("shards", &self.map.num_shards())
            .field("now", &self.now)
            .field("lookahead", &self.lookahead)
            .field("events_processed", &self.events_processed)
            .field("windows", &self.windows)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_sim::network::LatencyModel;
    use fed_sim::protocol::Context;
    use fed_sim::Simulation;
    use fed_util::rng::Rng64;

    /// Chatty protocol exercising sends, timers, randomness and churn.
    #[derive(Debug, Default)]
    struct Chatter {
        msgs: Vec<(NodeId, u64)>,
        timers: Vec<u64>,
        rounds: u64,
    }

    impl Protocol for Chatter {
        type Msg = u64;
        type Cmd = u64;

        fn on_init(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
            self.msgs.push((from, msg));
            if msg > 0 {
                // Bounce a decremented value to a random peer.
                let n = ctx.system_size() as u64;
                let to = NodeId::new(ctx.rng().range_u64(n) as u32);
                ctx.send(to, msg - 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, token: u64) {
            self.timers.push(token);
            self.rounds += 1;
            if self.rounds < 20 {
                let n = ctx.system_size() as u64;
                let to = NodeId::new(ctx.rng().range_u64(n) as u32);
                ctx.send(to, 3);
                ctx.set_timer(SimDuration::from_millis(10), self.rounds);
            }
        }
        fn on_command(&mut self, ctx: &mut Context<'_, u64>, cmd: u64) {
            let n = ctx.system_size() as u64;
            let to = NodeId::new(ctx.rng().range_u64(n) as u32);
            ctx.send(to, cmd);
        }
        fn message_size(msg: &u64) -> usize {
            *msg as usize + 1
        }
    }

    fn lossy_net() -> NetworkModel {
        NetworkModel::lossy(
            LatencyModel::Uniform {
                lo: SimDuration::from_millis(2),
                hi: SimDuration::from_millis(40),
            },
            0.1,
        )
    }

    /// Tiny façade so the same workload drives both engines.
    trait Engine {
        fn command(&mut self, at: SimTime, node: NodeId, cmd: u64);
        fn crash(&mut self, at: SimTime, node: NodeId);
        fn join(&mut self, at: SimTime, node: NodeId);
    }
    impl Engine for Simulation<Chatter> {
        fn command(&mut self, at: SimTime, node: NodeId, cmd: u64) {
            self.schedule_command(at, node, cmd);
        }
        fn crash(&mut self, at: SimTime, node: NodeId) {
            self.schedule_crash(at, node);
        }
        fn join(&mut self, at: SimTime, node: NodeId) {
            self.schedule_join(at, node);
        }
    }
    impl Engine for ShardedSimulation<Chatter> {
        fn command(&mut self, at: SimTime, node: NodeId, cmd: u64) {
            self.schedule_command(at, node, cmd);
        }
        fn crash(&mut self, at: SimTime, node: NodeId) {
            self.schedule_crash(at, node);
        }
        fn join(&mut self, at: SimTime, node: NodeId) {
            self.schedule_join(at, node);
        }
    }

    fn schedule<S: Engine>(sim: &mut S) {
        for i in 0..40u64 {
            sim.command(
                SimTime::from_millis(i * 7),
                NodeId::new((i % 16) as u32),
                i % 5,
            );
        }
        sim.crash(SimTime::from_millis(50), NodeId::new(3));
        sim.join(SimTime::from_millis(140), NodeId::new(3));
    }

    /// Order-sensitive digest of a node's message log — strict enough for
    /// bit-identity checks without cloning every log (FNV-1a fold).
    fn digest_msgs(msgs: &[(NodeId, u64)]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (from, msg) in msgs {
            for v in [u64::from(from.as_u32()), *msg] {
                h ^= v;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    type Fingerprint = (Vec<u64>, Vec<TransportStats>, u64);

    fn fingerprint_seq(sim: &Simulation<Chatter>) -> Fingerprint {
        (
            sim.nodes().map(|(_, p)| digest_msgs(&p.msgs)).collect(),
            sim.transport_stats_all().to_vec(),
            sim.events_processed(),
        )
    }

    fn fingerprint_cluster(sim: &ShardedSimulation<Chatter>) -> Fingerprint {
        (
            sim.nodes().map(|(_, p)| digest_msgs(&p.msgs)).collect(),
            sim.transport_stats_all(),
            sim.events_processed(),
        )
    }

    #[test]
    fn matches_sequential_engine_bit_for_bit() {
        let horizon = SimTime::from_secs(1);
        let mut seq = Simulation::new(16, lossy_net(), 42, |_, _| Chatter::default());
        schedule(&mut seq);
        seq.run_until(horizon);
        let expect = fingerprint_seq(&seq);

        for shards in [1, 2, 4, 7] {
            let mut cluster =
                ShardedSimulation::new(16, lossy_net(), 42, shards, |_, _| Chatter::default());
            schedule(&mut cluster);
            cluster.run_until(horizon);
            assert_eq!(
                fingerprint_cluster(&cluster),
                expect,
                "cluster with {shards} shards diverged from sequential engine"
            );
        }
    }

    /// Every placement policy is bit-identical to the sequential engine:
    /// placement decides which thread runs a node, never what the node
    /// computes.
    #[test]
    fn placement_policies_match_sequential_engine() {
        let horizon = SimTime::from_secs(1);
        let mut seq = Simulation::new(16, lossy_net(), 42, |_, _| Chatter::default());
        schedule(&mut seq);
        seq.run_until(horizon);
        let expect = fingerprint_seq(&seq);

        // An arbitrary deterministic non-uniform weight profile.
        let weights: Vec<u64> = (0..16u64).map(|i| (i * i) % 7 + 1).collect();
        for shards in [2usize, 4, 7] {
            let maps = [
                ("round-robin", ShardMap::round_robin(16, shards)),
                ("block", ShardMap::block(16, shards)),
                ("balanced", ShardMap::balanced(&weights, shards)),
            ];
            for (name, map) in maps {
                let mut cluster =
                    ShardedSimulation::with_scheduler(16, lossy_net(), 42, map, |_, _| {
                        Chatter::default()
                    });
                schedule(&mut cluster);
                cluster.run_until(horizon);
                assert_eq!(
                    fingerprint_cluster(&cluster),
                    expect,
                    "{name} placement with {shards} shards diverged"
                );
            }
        }
    }

    #[test]
    fn multiple_run_calls_match_single_run() {
        let mut one = ShardedSimulation::new(8, lossy_net(), 9, 2, |_, _| Chatter::default());
        let mut two = ShardedSimulation::new(8, lossy_net(), 9, 2, |_, _| Chatter::default());
        schedule(&mut one);
        schedule(&mut two);
        one.run_until(SimTime::from_secs(1));
        for step in 1..=10 {
            two.run_until(SimTime::from_millis(step * 100));
        }
        assert_eq!(fingerprint_cluster(&one), fingerprint_cluster(&two));
        assert_eq!(one.now(), two.now());
    }

    #[test]
    fn shards_clamped_to_population() {
        let sim =
            ShardedSimulation::new(3, NetworkModel::default(), 1, 64, |_, _| Chatter::default());
        assert_eq!(sim.num_shards(), 3);
        assert_eq!(sim.len(), 3);
    }

    #[test]
    fn crash_and_rejoin_preserved_across_shards() {
        let mut sim = ShardedSimulation::new(8, lossy_net(), 5, 4, |_, _| Chatter::default());
        sim.schedule_crash(SimTime::from_millis(5), NodeId::new(6));
        sim.run_until(SimTime::from_millis(20));
        assert!(!sim.is_alive(NodeId::new(6)));
        sim.schedule_join(SimTime::from_millis(30), NodeId::new(6));
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.is_alive(NodeId::new(6)));
        assert_eq!(sim.nodes().count(), 8);
    }

    /// A run that needs more events than its budget fails instead of
    /// returning truncated.
    #[test]
    fn event_budget_stops_run() {
        let mut sim = ShardedSimulation::new(8, lossy_net(), 3, 2, |_, _| Chatter::default());
        schedule(&mut sim);
        sim.set_max_events(10);
        let payload = catch_unwind(AssertUnwindSafe(|| sim.run_until(SimTime::from_secs(1))))
            .expect_err("a run past its event budget returned");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_default();
        assert!(
            message.starts_with("event budget of 10 events exhausted at virtual time"),
            "{message}"
        );
    }

    #[test]
    fn idle_cluster_advances_clock() {
        let mut sim =
            ShardedSimulation::new(4, NetworkModel::default(), 1, 2, |_, _| Chatter::default());
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(sim.now(), SimTime::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ShardedSimulation::new(0, NetworkModel::default(), 1, 2, |_, _| Chatter::default());
    }

    /// A zero-latency network model must not stall the barrier loop: the
    /// 1 µs delivery floor gives a positive lookahead, every window makes
    /// progress, and the outcome still matches the sequential engine (the
    /// adaptive clamp gets a hard workout at a 1 µs lookahead).
    #[test]
    fn zero_latency_network_terminates_and_matches_sequential() {
        let net = || NetworkModel::reliable(LatencyModel::Constant(SimDuration::ZERO));
        let horizon = SimTime::from_millis(500);
        let mut seq = Simulation::new(8, net(), 11, |_, _| Chatter::default());
        schedule(&mut seq);
        seq.run_until(horizon);
        let expect = fingerprint_seq(&seq);
        for shards in [1, 2, 4] {
            let mut cluster = ShardedSimulation::with_scheduler(
                8,
                net(),
                11,
                ShardMap::round_robin(8, shards),
                |_, _| Chatter::default(),
            );
            assert_eq!(
                cluster.lookahead(),
                fed_sim::exec::MIN_NETWORK_LATENCY,
                "zero-latency lookahead must be floored"
            );
            schedule(&mut cluster);
            cluster.run_until(horizon);
            assert_eq!(
                fingerprint_cluster(&cluster),
                expect,
                "zero-latency cluster with {shards} shards diverged"
            );
        }
    }

    /// Messages due exactly at a window's end boundary are exchanged at
    /// the barrier and processed in the next window — with a constant
    /// latency equal to the lookahead, every delivery lands precisely on
    /// a boundary, and nothing is lost, duplicated or reordered.
    #[test]
    fn boundary_aligned_deliveries_match_sequential() {
        let lat = SimDuration::from_millis(10);
        let net = || NetworkModel::reliable(LatencyModel::Constant(lat));
        let horizon = SimTime::from_secs(1);
        let mut seq = Simulation::new(16, net(), 23, |_, _| Chatter::default());
        // Commands on exact multiples of the latency keep every event in
        // the run aligned with window boundaries.
        for i in 0..20u64 {
            seq.schedule_command(
                SimTime::from_millis(i * 10),
                NodeId::new((i % 16) as u32),
                2,
            );
        }
        seq.run_until(horizon);
        let expect = fingerprint_seq(&seq);
        for shards in [2, 4, 7] {
            let mut cluster =
                ShardedSimulation::new(16, net(), 23, shards, |_, _| Chatter::default());
            assert_eq!(cluster.lookahead(), lat);
            for i in 0..20u64 {
                cluster.schedule_command(
                    SimTime::from_millis(i * 10),
                    NodeId::new((i % 16) as u32),
                    2,
                );
            }
            cluster.run_until(horizon);
            assert_eq!(
                fingerprint_cluster(&cluster),
                expect,
                "boundary-aligned cluster with {shards} shards diverged"
            );
        }
    }

    /// Queue pushes/pops are partition-invariant: the sum over shards
    /// equals the sequential engine's single queue, at every shard count.
    #[test]
    fn queue_stats_match_sequential_engine() {
        let horizon = SimTime::from_secs(1);
        let mut seq = Simulation::new(16, lossy_net(), 42, |_, _| Chatter::default());
        schedule(&mut seq);
        seq.run_until(horizon);
        let expect = seq.queue_stats();
        assert!(expect.pushes > 0 && expect.pops > 0);
        assert!(
            expect.pops <= expect.pushes,
            "cannot pop more than was pushed"
        );
        assert_eq!(expect.pops, seq.events_processed());

        for shards in [1, 2, 4, 7] {
            let mut cluster =
                ShardedSimulation::new(16, lossy_net(), 42, shards, |_, _| Chatter::default());
            schedule(&mut cluster);
            cluster.run_until(horizon);
            let got = cluster.queue_stats();
            assert_eq!(
                (got.pushes, got.pops),
                (expect.pushes, expect.pops),
                "queue traffic with {shards} shards diverged from sequential"
            );
        }
    }

    /// A per-shard profiler counting dispatched events and keeping every
    /// window report.
    #[derive(Debug, Default)]
    struct CountEvents {
        events: u64,
        windows: Vec<WindowWork>,
    }

    impl Probe for CountEvents {
        fn profiles(&self) -> bool {
            true
        }
        fn on_event(&mut self, _now: SimTime) {
            self.events += 1;
        }
        fn on_window(&mut self, work: WindowWork) {
            self.windows.push(work);
        }
    }

    /// Profiling is passive (bit-identical run), profiler event counts
    /// sum to the report, and the per-shard window reports agree on the
    /// schedule: every shard reports every window with the same index,
    /// start, width and straggler, and the window events sum to the run.
    #[test]
    fn profilers_and_schedule_trace_are_passive_and_consistent() {
        let horizon = SimTime::from_secs(1);
        let mut plain = ShardedSimulation::new(16, lossy_net(), 42, 4, |_, _| Chatter::default());
        schedule(&mut plain);
        let plain_report = plain.run_until(horizon);
        let expect = fingerprint_cluster(&plain);

        let mut profiled =
            ShardedSimulation::new(16, lossy_net(), 42, 4, |_, _| Chatter::default());
        schedule(&mut profiled);
        let mut profilers: Vec<CountEvents> = (0..4).map(|_| CountEvents::default()).collect();
        let report = profiled.run_until_observed(horizon, &mut profilers);
        assert_eq!(
            fingerprint_cluster(&profiled),
            expect,
            "profiling perturbed the run"
        );
        assert_eq!(report.events, plain_report.events);
        assert_eq!(
            profilers.iter().map(|p| p.events).sum::<u64>(),
            report.events,
            "one on_event per dispatched event, summed over shards"
        );
        for p in &profilers {
            assert_eq!(
                p.windows.len() as u64,
                report.windows,
                "every shard reports every window"
            );
            for (i, w) in p.windows.iter().enumerate() {
                let first = &profilers[0].windows[i];
                assert_eq!(w.index, i as u64 + 1);
                assert_eq!(
                    (w.start, w.width, w.straggler),
                    (first.start, first.width, first.straggler),
                    "window {} is one decision",
                    w.index
                );
                assert!(w.straggler.is_some_and(|s| s < 4));
                assert!(w.issued_end > w.start && w.end <= w.issued_end);
            }
        }
        assert!(
            profilers
                .iter()
                .flat_map(|p| &p.windows)
                .map(|w| w.mailbox_msgs)
                .sum::<u64>()
                > 0,
            "a 4-shard chatter run must exchange cross-shard messages"
        );
        let window_events: u64 = profilers
            .iter()
            .flat_map(|p| &p.windows)
            .map(|w| w.events)
            .sum();
        assert_eq!(window_events, report.events);
    }

    /// Quiet protocol recording when its handlers fire — no sends, no
    /// timers — so it is safe to drive arbitrarily close to the
    /// saturation point without overflowing delivery times.
    #[derive(Debug, Default)]
    struct Recorder {
        log: Vec<(SimTime, u64)>,
    }

    impl Protocol for Recorder {
        type Msg = u64;
        type Cmd = u64;
        fn on_init(&mut self, _ctx: &mut Context<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
            self.log.push((ctx.now(), msg));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, token: u64) {
            self.log.push((ctx.now(), token));
        }
        fn on_command(&mut self, ctx: &mut Context<'_, u64>, cmd: u64) {
            self.log.push((ctx.now(), cmd));
        }
    }

    fn recorder_logs_cluster(sim: &ShardedSimulation<Recorder>) -> Vec<Vec<(SimTime, u64)>> {
        sim.nodes().map(|(_, p)| p.log.clone()).collect()
    }

    /// Commands at 1 ms, one tick before saturation and (twice) exactly
    /// at [`SimTime::MAX`].
    fn schedule_saturating<F: FnMut(SimTime, NodeId, u64)>(mut cmd: F) {
        let near = SimTime::from_micros(u64::MAX - 1);
        cmd(SimTime::from_millis(1), NodeId::new(0), 1);
        cmd(near, NodeId::new(1), 2);
        cmd(SimTime::MAX, NodeId::new(2), 3);
        cmd(SimTime::MAX, NodeId::new(3), 4);
    }

    /// A run to `SimTime::MAX` terminates on both engines and leaves the
    /// events due exactly at `SimTime::MAX` undispatched: the exclusive
    /// bound `target + 1µs` saturates back to `target`, and no branch
    /// pops past it. Every node log and the event count match the
    /// sequential engine.
    #[test]
    fn saturation_boundary_matches_sequential() {
        let mut seq = Simulation::new(4, NetworkModel::default(), 7, |_, _| Recorder::default());
        schedule_saturating(|at, node, cmd| seq.schedule_command(at, node, cmd));
        seq.run_until(SimTime::MAX);
        assert_eq!(seq.now(), SimTime::MAX);
        let expect: Vec<Vec<(SimTime, u64)>> = seq.nodes().map(|(_, p)| p.log.clone()).collect();
        let expect_events = seq.events_processed();
        assert_eq!(expect_events, 2, "the two commands due at MAX never run");
        assert!(expect.iter().flatten().all(|&(at, _)| at < SimTime::MAX));

        for shards in [1, 2, 4] {
            let mut cluster =
                ShardedSimulation::new(4, NetworkModel::default(), 7, shards, |_, _| {
                    Recorder::default()
                });
            schedule_saturating(|at, node, cmd| cluster.schedule_command(at, node, cmd));
            cluster.run_until(SimTime::MAX);
            assert_eq!(cluster.now(), SimTime::MAX);
            assert_eq!(
                recorder_logs_cluster(&cluster),
                expect,
                "run to MAX with {shards} shards diverged from sequential"
            );
            assert_eq!(cluster.events_processed(), expect_events);
        }
    }

    /// One tick shy of saturation the target is still inclusive:
    /// `run_until(MAX − 1µs)` runs everything up to and including it. A
    /// second run to `MAX` terminates and dispatches nothing, because
    /// only events due exactly at `MAX` are left. Both steps match the
    /// sequential engine, node log by node log and in the event count.
    #[test]
    fn adjacent_to_saturation_two_phase_matches_sequential() {
        let near = SimTime::from_micros(u64::MAX - 1);
        let mut seq = Simulation::new(4, NetworkModel::default(), 7, |_, _| Recorder::default());
        schedule_saturating(|at, node, cmd| seq.schedule_command(at, node, cmd));
        seq.run_until(near);
        let expect: Vec<Vec<(SimTime, u64)>> = seq.nodes().map(|(_, p)| p.log.clone()).collect();
        let expect_events = seq.events_processed();
        assert_eq!(expect_events, 2);
        assert_eq!(
            seq.run_until(SimTime::MAX).events,
            0,
            "events at MAX never run"
        );
        assert_eq!(seq.now(), SimTime::MAX);

        for shards in [1, 2, 4] {
            let mut cluster =
                ShardedSimulation::new(4, NetworkModel::default(), 7, shards, |_, _| {
                    Recorder::default()
                });
            schedule_saturating(|at, node, cmd| cluster.schedule_command(at, node, cmd));
            cluster.run_until(near);
            assert_eq!(
                recorder_logs_cluster(&cluster),
                expect,
                "run to MAX-1µs with {shards} shards diverged"
            );
            let second = cluster.run_until(SimTime::MAX);
            assert_eq!(second.events, 0, "{shards} shards: events at MAX never run");
            assert_eq!(cluster.now(), SimTime::MAX);
            assert_eq!(recorder_logs_cluster(&cluster), expect);
            assert_eq!(cluster.events_processed(), expect_events);
        }
    }
}
