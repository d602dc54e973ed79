//! The sequential discrete-event simulation engine.
//!
//! [`Simulation`] owns one [`exec::Kernel`](crate::exec::Kernel) covering
//! every node plus a single global
//! [`exec::EventQueue`](crate::exec::EventQueue). Events are
//! processed in canonical [`exec::EventKey`](crate::exec::EventKey)
//! order — `(time, producing
//! node, per-producer sequence)` — which makes runs fully deterministic for
//! a given seed *and* independent of engine internals: the sharded
//! `fed-cluster` runtime executes the same order and produces bit-identical
//! results.

use crate::exec::{
    budget_exhausted, seed_streams, EventKey, EventKind, EventQueue, HandlerPanic, Kernel, Probe,
    QueueStats, WindowWork, DEFAULT_MAX_EVENTS, EXTERNAL_SRC,
};
use crate::network::NetworkModel;
use crate::protocol::{NodeId, Protocol};
use crate::time::{SimDuration, SimTime};
use fed_util::rng::Xoshiro256StarStar;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

pub use crate::exec::TransportStats;

/// Result of a `run_until` call on either engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Events processed during this call, summed over all shards.
    pub events: u64,
    /// Time windows executed, each one cross-shard barrier (always 0 on
    /// the sequential engine).
    pub windows: u64,
}

/// The discrete-event simulator for one protocol.
///
/// # Examples
///
/// ```
/// use fed_sim::{Context, NodeId, Protocol, Simulation, SimDuration, SimTime};
/// use fed_sim::network::NetworkModel;
///
/// /// A protocol where node 0 pings everyone once.
/// struct Ping { got: bool }
///
/// impl Protocol for Ping {
///     type Msg = ();
///     type Cmd = ();
///     fn on_init(&mut self, ctx: &mut Context<'_, ()>) {
///         if ctx.id() == NodeId::new(0) {
///             for i in 0..ctx.system_size() as u32 {
///                 ctx.send(NodeId::new(i), ());
///             }
///         }
///     }
///     fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {
///         self.got = true;
///     }
/// }
///
/// let mut sim = Simulation::new(8, NetworkModel::default(), 1, |_, _| Ping { got: false });
/// sim.run_until(SimTime::from_secs(1));
/// assert!(sim.nodes().all(|(_, p)| p.got));
/// ```
pub struct Simulation<P: Protocol> {
    kernel: Kernel<P>,
    queue: EventQueue<P>,
    now: SimTime,
    external_seq: u64,
    events_processed: u64,
    max_events: u64,
    /// The event being dispatched, so that a handler's panic can name it.
    handling: Option<(EventKey, NodeId)>,
}

impl<P: Protocol> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.kernel.n_global())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<P: Protocol> Simulation<P> {
    /// Creates a simulation of `n` nodes and runs every node's `on_init` at
    /// time zero.
    ///
    /// `factory` builds the protocol state for each node once, here: a
    /// crashed node that rejoins wakes with the state it crashed with.
    /// Each node receives its own random stream forked deterministically
    /// from `seed`, and the factory draws from it before `on_init` does.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > u32::MAX as usize`.
    pub fn new<F>(n: usize, net: NetworkModel, seed: u64, mut factory: F) -> Self
    where
        F: FnMut(NodeId, &mut Xoshiro256StarStar) -> P,
    {
        assert!(n > 0, "simulation requires at least one node");
        assert!(n <= u32::MAX as usize, "too many nodes");
        let mut queue = EventQueue::new();
        let kernel = Kernel::new(
            n,
            (0..n as u32).collect(),
            seed_streams(seed, n),
            net,
            &mut factory,
            &mut queue,
        );
        Simulation {
            kernel,
            queue,
            now: SimTime::ZERO,
            external_seq: 0,
            events_processed: 0,
            max_events: DEFAULT_MAX_EVENTS,
            handling: None,
        }
    }

    /// Caps the total number of events this simulation will process
    /// ([`DEFAULT_MAX_EVENTS`] unless set).
    ///
    /// [`Simulation::run_until`] panics with [`budget_exhausted`] instead
    /// of dispatching one event past the cap: a safety net against
    /// protocol bugs that generate unbounded message storms, which fails
    /// the run rather than return it truncated.
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of node slots.
    pub fn len(&self) -> usize {
        self.kernel.n_global()
    }

    /// Always `false`: constructing with zero nodes is rejected.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.kernel.is_alive(id)
    }

    /// Ids of all currently alive nodes.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.kernel
            .owned_ids()
            .iter()
            .map(|&i| NodeId::new(i))
            .filter(|&id| self.kernel.is_alive(id))
            .collect()
    }

    /// Shared access to a node's protocol state (alive or crashed).
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.kernel.node(id)
    }

    /// Iterates over `(id, state)` of every node that has state.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.kernel.nodes()
    }

    /// Consumes the simulation into `(id, state)` of every node that has
    /// state, in id order; the queue and the rest are dropped first.
    pub fn into_nodes(self) -> impl Iterator<Item = (NodeId, P)> {
        self.kernel.into_nodes()
    }

    /// Transport statistics of one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn transport_stats(&self, id: NodeId) -> TransportStats {
        self.kernel.stats_of(id).expect("node id out of range")
    }

    /// Transport statistics of every node, indexed by node.
    pub fn transport_stats_all(&self) -> &[TransportStats] {
        self.kernel.stats_slice()
    }

    /// Schedules an application command for `node` at absolute time `at`.
    pub fn schedule_command(&mut self, at: SimTime, node: NodeId, cmd: P::Cmd) {
        let at = at.max(self.now);
        self.push_external(at, EventKind::Command { node, cmd });
    }

    /// Schedules a crash of `node` at absolute time `at`.
    ///
    /// Crashing an already-crashed node is a no-op at processing time.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        let at = at.max(self.now);
        self.push_external(at, EventKind::Crash(node));
    }

    /// Schedules a (re)join of `node` at absolute time `at`.
    ///
    /// The node wakes with the state it crashed with, in a new
    /// incarnation, and runs `on_init` again; timers it armed and
    /// messages sent to it while it was down are gone. Joining an alive
    /// node is a no-op at processing time.
    pub fn schedule_join(&mut self, at: SimTime, node: NodeId) {
        let at = at.max(self.now);
        self.push_external(at, EventKind::Join(node));
    }

    /// Runs every event due at or before `target` and leaves the clock
    /// at `target`.
    ///
    /// The run pops only events due before `target + 1 µs`, saturating:
    /// events due exactly at [`SimTime::MAX`] are never dispatched.
    ///
    /// The `()` case of [`Simulation::run_until_observed`]: with the null
    /// observer every hook site compiles away.
    pub fn run_until(&mut self, target: SimTime) -> RunReport {
        self.run_until_observed(target, &mut ())
    }

    /// [`Simulation::run_until`] with an observer attached: `obs` sees
    /// every dispatched event, send, delivery and liveness transition —
    /// and, when it [`traces`](Probe::traces), one
    /// [`HopRecord`](crate::exec::HopRecord) per application event per
    /// network send — without being able to influence the run, so the
    /// observed run produces the bit-identical virtual-world outcome.
    ///
    /// When `obs` [`profiles`](Probe::profiles), the call is reported as
    /// one [`Probe::on_window`] with `straggler: None` — its events and
    /// the whole dispatch loop's wall clock as `execute_ns` (the
    /// sequential engine has no exchange or barrier phases); otherwise
    /// no clock is read.
    ///
    /// # Panics
    ///
    /// A protocol handler's panic is re-raised as a [`HandlerPanic`]
    /// naming the event being handled (its key and virtual time, shard 0)
    /// and the original message. Running out of the event budget (see
    /// [`Simulation::set_max_events`]) panics with
    /// [`budget_exhausted`].
    pub fn run_until_observed<O: Probe>(&mut self, target: SimTime, obs: &mut O) -> RunReport {
        let start = self.now;
        let t0 = obs.profiles().then(std::time::Instant::now);
        // `target` is inclusive and `pop_before` exclusive, so bound the
        // pops one tick past it.
        let end = target.saturating_add(SimDuration::from_micros(1));
        let drained = catch_unwind(AssertUnwindSafe(|| self.drain(end, obs)));
        let events = drained.unwrap_or_else(|payload| match self.handling {
            Some(event) => panic!("{}", HandlerPanic::new(0, event, &*payload)),
            None => resume_unwind(payload),
        });
        self.now = self.now.max(target);
        if let Some(t0) = t0 {
            obs.on_window(WindowWork {
                index: 1,
                start,
                width: end.duration_since(start),
                straggler: None,
                issued_end: end,
                end,
                events,
                mailbox_msgs: 0,
                mailbox_bytes: 0,
                execute_ns: t0.elapsed().as_nanos() as u64,
                exchange_ns: 0,
                fill_ns: 0,
                wait_ns: 0,
            });
        }
        RunReport { events, windows: 0 }
    }

    /// Pops and dispatches every event due before `end`, and returns how
    /// many it dispatched. Panics rather than dispatch one event past the
    /// event budget.
    fn drain<O: Probe>(&mut self, end: SimTime, obs: &mut O) -> u64 {
        let mut events = 0u64;
        while let Some((key, kind)) = self.queue.pop_before(end) {
            if self.events_processed >= self.max_events {
                budget_exhausted(self.max_events, key.time);
            }
            self.now = key.time;
            self.events_processed += 1;
            events += 1;
            self.handling = Some((key, kind.dest()));
            self.kernel.dispatch_with(key, kind, &mut self.queue, obs);
            self.handling = None;
        }
        events
    }

    /// Push/pop/overflow counters of the global event queue since
    /// construction (see [`QueueStats`] for what is and is not
    /// partition-invariant).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Runs for a span of virtual time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) -> RunReport {
        self.run_until(self.now + d)
    }

    fn push_external(&mut self, time: SimTime, kind: EventKind<P>) {
        let seq = self.external_seq;
        self.external_seq += 1;
        self.queue.push(
            EventKey {
                time,
                src: EXTERNAL_SRC,
                seq,
            },
            kind,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LatencyModel;
    use crate::protocol::Context;

    /// Test protocol: counts messages/timers, echoes on command.
    #[derive(Debug, Default)]
    struct Echo {
        msgs: Vec<(NodeId, u32)>,
        timers: Vec<u64>,
        inits: u32,
    }

    #[derive(Debug, Clone)]
    enum EchoCmd {
        SendTo(NodeId, u32),
        Arm(u64, u64), // delay ms, token
    }

    impl Protocol for Echo {
        type Msg = u32;
        type Cmd = EchoCmd;

        fn on_init(&mut self, _ctx: &mut Context<'_, u32>) {
            self.inits += 1;
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            self.msgs.push((from, msg));
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, token: u64) {
            self.timers.push(token);
        }
        fn on_command(&mut self, ctx: &mut Context<'_, u32>, cmd: EchoCmd) {
            match cmd {
                EchoCmd::SendTo(to, v) => ctx.send(to, v),
                EchoCmd::Arm(ms, token) => ctx.set_timer(SimDuration::from_millis(ms), token),
            }
        }
        fn message_size(msg: &u32) -> usize {
            *msg as usize
        }
    }

    fn fixed_net(ms: u64) -> NetworkModel {
        NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(ms)))
    }

    fn sim(n: usize) -> Simulation<Echo> {
        Simulation::new(n, fixed_net(10), 7, |_, _| Echo::default())
    }

    #[test]
    fn init_runs_once_per_node() {
        let s = sim(5);
        assert_eq!(s.len(), 5);
        assert!(s.nodes().all(|(_, p)| p.inits == 1));
    }

    #[test]
    fn message_delivery_with_latency() {
        let mut s = sim(3);
        s.schedule_command(
            SimTime::from_millis(5),
            NodeId::new(0),
            EchoCmd::SendTo(NodeId::new(2), 99),
        );
        s.run_until(SimTime::from_millis(14));
        assert!(s.node(NodeId::new(2)).unwrap().msgs.is_empty(), "not yet");
        s.run_until(SimTime::from_millis(15));
        assert_eq!(
            s.node(NodeId::new(2)).unwrap().msgs,
            vec![(NodeId::new(0), 99)]
        );
    }

    #[test]
    fn transport_stats_account_bytes() {
        let mut s = sim(2);
        s.schedule_command(
            SimTime::ZERO,
            NodeId::new(0),
            EchoCmd::SendTo(NodeId::new(1), 64),
        );
        s.run_until(SimTime::from_secs(1));
        let st0 = s.transport_stats(NodeId::new(0));
        let st1 = s.transport_stats(NodeId::new(1));
        assert_eq!(st0.msgs_sent, 1);
        assert_eq!(st0.bytes_sent, 64);
        assert_eq!(st1.msgs_received, 1);
        assert_eq!(st1.bytes_received, 64);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut s = sim(1);
        s.schedule_command(SimTime::ZERO, NodeId::new(0), EchoCmd::Arm(30, 3));
        s.schedule_command(SimTime::ZERO, NodeId::new(0), EchoCmd::Arm(10, 1));
        s.schedule_command(SimTime::ZERO, NodeId::new(0), EchoCmd::Arm(20, 2));
        s.run_until(SimTime::from_secs(1));
        assert_eq!(s.node(NodeId::new(0)).unwrap().timers, vec![1, 2, 3]);
    }

    #[test]
    fn crash_drops_messages_and_timers() {
        let mut s = sim(2);
        s.schedule_command(SimTime::ZERO, NodeId::new(1), EchoCmd::Arm(50, 9));
        s.schedule_crash(SimTime::from_millis(20), NodeId::new(1));
        s.schedule_command(
            SimTime::from_millis(30),
            NodeId::new(0),
            EchoCmd::SendTo(NodeId::new(1), 5),
        );
        s.run_until(SimTime::from_secs(1));
        let p = s.node(NodeId::new(1)).unwrap();
        assert!(p.timers.is_empty(), "timer must not fire after crash");
        assert!(p.msgs.is_empty(), "message must not arrive after crash");
        assert!(!s.is_alive(NodeId::new(1)));
        assert_eq!(s.alive_ids(), vec![NodeId::new(0)]);
    }

    #[test]
    fn crash_keeps_state_for_inspection() {
        let mut s = sim(1);
        s.schedule_crash(SimTime::from_millis(25), NodeId::new(0));
        s.run_until(SimTime::from_secs(1));
        let p = s.node(NodeId::new(0)).unwrap();
        assert_eq!(p.inits, 1);
        assert!(!s.is_alive(NodeId::new(0)));
    }

    #[test]
    fn rejoin_keeps_state_and_reruns_init() {
        let (zero, one) = (NodeId::new(0), NodeId::new(1));
        let mut s = sim(2);
        s.schedule_command(SimTime::ZERO, zero, EchoCmd::SendTo(one, 3));
        s.schedule_command(SimTime::ZERO, one, EchoCmd::Arm(5, 1));
        s.schedule_command(SimTime::ZERO, one, EchoCmd::Arm(100, 7));
        s.schedule_crash(SimTime::from_millis(20), one);
        s.schedule_command(SimTime::from_millis(30), zero, EchoCmd::SendTo(one, 5));
        s.schedule_join(SimTime::from_millis(50), one);
        s.schedule_command(SimTime::from_millis(60), zero, EchoCmd::SendTo(one, 9));
        s.run_until(SimTime::from_secs(1));
        let p = s.node(one).unwrap();
        assert_eq!(p.inits, 2, "on_init runs once per incarnation");
        assert_eq!(p.timers, [1], "a pre-crash timer never fires");
        assert_eq!(p.msgs, [(zero, 3), (zero, 9)], "none while down");
        assert!(s.is_alive(one));
    }

    #[test]
    fn double_crash_and_double_join_are_noops() {
        let mut s = sim(1);
        s.schedule_crash(SimTime::from_millis(5), NodeId::new(0));
        s.schedule_crash(SimTime::from_millis(6), NodeId::new(0));
        s.schedule_join(SimTime::from_millis(7), NodeId::new(0));
        s.schedule_join(SimTime::from_millis(8), NodeId::new(0));
        s.run_until(SimTime::from_secs(1));
        assert!(s.is_alive(NodeId::new(0)));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut s = Simulation::new(10, fixed_net(5), seed, |_, _| Echo::default());
            for i in 0..10u32 {
                s.schedule_command(
                    SimTime::from_millis(i as u64),
                    NodeId::new(i % 10),
                    EchoCmd::SendTo(NodeId::new((i + 1) % 10), i),
                );
            }
            s.run_until(SimTime::from_secs(1));
            let msgs: Vec<_> = s.nodes().map(|(_, p)| p.msgs.clone()).collect();
            (msgs, s.events_processed())
        };
        assert_eq!(run(11), run(11));
        assert_eq!(run(11).1, run(11).1);
    }

    #[test]
    fn lossy_network_counts_losses() {
        let net = NetworkModel::lossy(LatencyModel::Constant(SimDuration::from_millis(1)), 0.5);
        let mut s = Simulation::new(2, net, 3, |_, _| Echo::default());
        for i in 0..200 {
            s.schedule_command(
                SimTime::from_millis(i),
                NodeId::new(0),
                EchoCmd::SendTo(NodeId::new(1), 1),
            );
        }
        s.run_until(SimTime::from_secs(2));
        let st = s.transport_stats(NodeId::new(0));
        assert_eq!(st.msgs_sent, 200);
        assert!(
            st.msgs_lost > 50 && st.msgs_lost < 150,
            "lost={}",
            st.msgs_lost
        );
        let received = s.transport_stats(NodeId::new(1)).msgs_received;
        assert_eq!(received + st.msgs_lost, 200);
    }

    /// The third event is the first past a budget of two: it is due at
    /// 1 ms, and the run fails there instead of returning truncated.
    #[test]
    fn event_budget_stops_run() {
        let mut s = sim(1);
        s.set_max_events(2);
        for i in 0..10 {
            s.schedule_command(SimTime::from_millis(i), NodeId::new(0), EchoCmd::Arm(1, i));
        }
        let payload = catch_unwind(AssertUnwindSafe(|| s.run_until(SimTime::from_secs(1))))
            .expect_err("a run past its event budget returned");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_default();
        assert_eq!(
            message,
            "event budget of 2 events exhausted at virtual time 1000us"
        );
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut s = sim(1);
        s.run_until(SimTime::from_secs(5));
        assert_eq!(s.now(), SimTime::from_secs(5));
    }

    #[test]
    fn commands_to_crashed_nodes_are_dropped() {
        let mut s = sim(1);
        s.schedule_crash(SimTime::from_millis(1), NodeId::new(0));
        s.schedule_command(SimTime::from_millis(2), NodeId::new(0), EchoCmd::Arm(1, 1));
        s.run_until(SimTime::from_secs(1));
        assert!(s.node(NodeId::new(0)).unwrap().timers.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Simulation::new(0, NetworkModel::default(), 1, |_, _| Echo::default());
    }

    /// Records every probe observation verbatim.
    #[derive(Debug, Default)]
    struct Tape {
        events: u64,
        sent: Vec<(SimTime, NodeId, u64, crate::exec::SendFate)>,
        received: Vec<(SimTime, NodeId, u64)>,
        liveness: Vec<(SimTime, NodeId, bool)>,
    }

    impl Probe for Tape {
        fn on_event(&mut self, _now: SimTime) {
            self.events += 1;
        }
        fn on_send(&mut self, now: SimTime, node: NodeId, bytes: u64, fate: crate::exec::SendFate) {
            self.sent.push((now, node, bytes, fate));
        }
        fn on_receive(&mut self, now: SimTime, node: NodeId, bytes: u64) {
            self.received.push((now, node, bytes));
        }
        fn on_liveness(&mut self, now: SimTime, node: NodeId, alive: bool) {
            self.liveness.push((now, node, alive));
        }
    }

    /// A probe sees exactly what the transport stats account — and
    /// attaching one does not perturb the run.
    #[test]
    fn probe_matches_transport_stats_and_is_passive() {
        use crate::exec::SendFate;
        let drive = |probe: Option<&mut Tape>| {
            let mut s = sim(3);
            s.schedule_command(
                SimTime::from_millis(5),
                NodeId::new(0),
                EchoCmd::SendTo(NodeId::new(2), 64),
            );
            s.schedule_crash(SimTime::from_millis(30), NodeId::new(1));
            s.schedule_join(SimTime::from_millis(40), NodeId::new(1));
            s.schedule_crash(SimTime::from_millis(41), NodeId::new(1)); // real
            s.schedule_crash(SimTime::from_millis(42), NodeId::new(1)); // no-op
            match probe {
                Some(p) => s.run_until_observed(SimTime::from_secs(1), p),
                None => s.run_until(SimTime::from_secs(1)),
            };
            (
                s.events_processed(),
                s.transport_stats(NodeId::new(0)),
                s.transport_stats(NodeId::new(2)),
            )
        };
        let mut tape = Tape::default();
        let probed = drive(Some(&mut tape));
        let unprobed = drive(None);
        assert_eq!(probed, unprobed, "a probe must be purely passive");
        assert_eq!(tape.events, probed.0, "one on_event per processed event");
        assert_eq!(
            tape.sent,
            vec![(
                SimTime::from_millis(5),
                NodeId::new(0),
                64,
                SendFate::Delivered {
                    at: SimTime::from_millis(15)
                }
            )]
        );
        assert_eq!(
            tape.received,
            vec![(SimTime::from_millis(15), NodeId::new(2), 64)]
        );
        // Only real transitions fire: crash, join, crash — the duplicate
        // crash at 42 ms is invisible.
        assert_eq!(
            tape.liveness,
            vec![
                (SimTime::from_millis(30), NodeId::new(1), false),
                (SimTime::from_millis(40), NodeId::new(1), true),
                (SimTime::from_millis(41), NodeId::new(1), false),
            ]
        );
    }
}
