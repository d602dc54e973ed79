//! Broker/gossip hybrid with telemetry-driven strategy switching.
//!
//! The paper's tension is between centralized brokers (cheap, unfair,
//! fragile under load) and fair gossip (decentralized, load-tolerant,
//! chattier). This architecture runs *both* stacks on every node and
//! switches strategy at runtime: the system starts in broker mode, the
//! hub self-monitors its publish load per window, and when a window
//! exceeds [`SPIKE_THRESHOLD`] (a flash crowd) the hub broadcasts a
//! [`HybridMsg::Switch`] — after which every node publishes through fair
//! gossip instead.
//!
//! Both embedded protocols are driven through [`Context::scoped`], so
//! they see fully functional deterministic contexts sharing the node's
//! RNG stream: the hybrid is bit-identical across engines and shard
//! counts like any other [`Protocol`]. Timer tokens are namespaced —
//! gossip owns tokens `1`, `2` and the `3 << 56`/`4 << 56` SWIM
//! namespaces, the hybrid's own monitor timer lives at `5 << 56` — so
//! `on_timer` routes unambiguously.
//!
//! Subscriptions are mirrored into both stacks at all times; only the
//! *publish* path switches. In-flight broker traffic keeps being served
//! after the switch (the broker stack stays alive), so no event is
//! stranded by the handover. A node that was crashed during the switch
//! broadcast rejoins in broker mode; its publishes still reach
//! subscribers through the hub, which keeps dispatching broker traffic
//! in either mode.

use crate::broker::{BrokerMsg, BrokerNode};
use fed_core::behavior::Behavior;
use fed_core::endpoint::Endpoint;
use fed_core::gossip::{GossipConfig, GossipMsg, GossipNode};
use fed_core::ledger::FairnessLedger;
use fed_membership::swim::SwimObservation;
use fed_pubsub::{Command, EventId};
use fed_sim::{Context, NodeId, Protocol, SimDuration, SimTime};

/// Timer token of the hub's load-monitor window. Must not collide with
/// the embedded gossip node's tokens (`1`, `2`, `3 << 56 | seq`,
/// `4 << 56 | seq`); the broker has no timers.
const MONITOR_TIMER: u64 = 5 << 56;

/// The broker hub, also the node that monitors load and triggers the
/// switch.
pub const HUB: NodeId = NodeId::new(0);
/// Length of the hub's load-monitoring window.
pub const MONITOR_WINDOW: SimDuration = SimDuration::from_millis(500);
/// Publish submissions per monitor window above which the hub declares a
/// load spike and broadcasts the switch: 64 per 500 ms window (128/s) is
/// comfortably above the standard scenarios' base rates and comfortably
/// below their flash-crowd rates.
pub const SPIKE_THRESHOLD: u64 = 64;

/// Wire messages of the hybrid: each embedded stack's traffic wrapped in
/// its own variant, plus the strategy-switch broadcast.
#[derive(Debug, Clone)]
pub enum HybridMsg {
    /// Broker-stack traffic.
    B(BrokerMsg),
    /// Gossip-stack traffic.
    G(GossipMsg),
    /// Hub → everyone: publish through gossip from now on.
    Switch,
}

/// Which strategy the node currently publishes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Broker,
    Gossip,
}

/// A node running the broker/gossip hybrid.
#[derive(Debug)]
pub struct HybridNode {
    id: NodeId,
    broker: BrokerNode,
    gossip: GossipNode,
    mode: Mode,
    /// When this node switched to gossip, if it has.
    switched_at: Option<SimTime>,
    /// Publish submissions the hub saw in the current monitor window.
    window_publishes: u64,
}

impl HybridNode {
    /// Creates a hybrid node for a system of `n` nodes. Its gossip stack
    /// is the T-ARCH fair configuration (`fair(8, 16)`), running
    /// the SWIM detector when `swim` is set.
    pub fn new(id: NodeId, n: usize, swim: bool) -> Self {
        let broker = BrokerNode::new(id, HUB);
        let config = GossipConfig {
            swim,
            ..GossipConfig::fair(8, 16)
        };
        let gossip = GossipNode::with_behavior(id, n, config, Behavior::Honest);
        HybridNode {
            id,
            broker,
            gossip,
            mode: Mode::Broker,
            switched_at: None,
            window_publishes: 0,
        }
    }

    /// When this node switched its publish path to gossip (`None` while
    /// still in broker mode).
    pub fn switched_at(&self) -> Option<SimTime> {
        self.switched_at
    }

    /// The embedded gossip stack's SWIM observation log.
    pub fn swim_observations(&self) -> Vec<SwimObservation> {
        self.gossip.swim_observations()
    }

    /// The two embedded stacks' subscriber sides, broker first. They
    /// mirror the same subscriptions but stay separate: sharing one would
    /// feed broker work into the gossip controllers.
    pub fn endpoints(&self) -> [&Endpoint; 2] {
        [self.broker.endpoint(), self.gossip.endpoint()]
    }

    /// Merged fairness ledger of both stacks.
    pub fn merged_ledger(&self) -> FairnessLedger {
        let [broker, gossip] = self.endpoints();
        let mut ledger = broker.ledger().clone();
        ledger.absorb(gossip.ledger());
        ledger
    }

    /// The two subscriber sides, broker first, taken out of the finished
    /// node.
    pub fn into_endpoints(self) -> [Endpoint; 2] {
        [self.broker.into_endpoint(), self.gossip.into_endpoint()]
    }

    /// Union of both stacks' delivery logs, deduplicated by event id
    /// (earliest delivery wins), sorted by event id.
    pub fn into_merged_deliveries(self) -> Vec<(EventId, SimTime)> {
        let [broker, gossip] = self.into_endpoints();
        let mut merged = broker.into_deliveries().into_sorted();
        merged.extend(gossip.deliveries().iter());
        merged.sort_unstable();
        merged.dedup_by_key(|&mut (id, _)| id);
        merged
    }

    fn switch(&mut self, now: SimTime) {
        if self.mode == Mode::Broker {
            self.mode = Mode::Gossip;
            self.switched_at = Some(now);
        }
    }
}

impl Protocol for HybridNode {
    type Msg = HybridMsg;
    type Cmd = Command;

    fn on_init(&mut self, ctx: &mut Context<'_, HybridMsg>) {
        let broker = &mut self.broker;
        ctx.scoped(HybridMsg::B, |c| broker.on_init(c));
        let gossip = &mut self.gossip;
        ctx.scoped(HybridMsg::G, |c| gossip.on_init(c));
        if self.id == HUB {
            ctx.set_timer(MONITOR_WINDOW, MONITOR_TIMER);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, HybridMsg>, from: NodeId, msg: HybridMsg) {
        match msg {
            HybridMsg::B(m) => {
                if matches!(m, BrokerMsg::Publish(_)) {
                    self.window_publishes += 1;
                }
                let broker = &mut self.broker;
                ctx.scoped(HybridMsg::B, |c| broker.on_message(c, from, m));
            }
            HybridMsg::G(m) => {
                let gossip = &mut self.gossip;
                ctx.scoped(HybridMsg::G, |c| gossip.on_message(c, from, m));
            }
            HybridMsg::Switch => self.switch(ctx.now()),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, HybridMsg>, token: u64) {
        if token == MONITOR_TIMER {
            if self.mode == Mode::Broker {
                if self.window_publishes > SPIKE_THRESHOLD {
                    // Load spike: hand the system over to fair gossip.
                    for peer in 0..ctx.system_size() {
                        let peer = NodeId::new(peer as u32);
                        if peer != self.id {
                            ctx.send(peer, HybridMsg::Switch);
                        }
                    }
                    self.switch(ctx.now());
                } else {
                    self.window_publishes = 0;
                    ctx.set_timer(MONITOR_WINDOW, MONITOR_TIMER);
                }
            }
        } else {
            let gossip = &mut self.gossip;
            ctx.scoped(HybridMsg::G, |c| gossip.on_timer(c, token));
        }
    }

    fn on_command(&mut self, ctx: &mut Context<'_, HybridMsg>, cmd: Command) {
        let broker = &mut self.broker;
        let gossip = &mut self.gossip;
        match (&cmd, self.mode) {
            // Subscriptions are mirrored into both stacks.
            (Command::Subscribe(_) | Command::Unsubscribe(_), _) => {
                ctx.scoped(HybridMsg::B, |c| broker.on_command(c, cmd.clone()));
                ctx.scoped(HybridMsg::G, |c| gossip.on_command(c, cmd));
            }
            // Publishes go through the currently active strategy.
            (Command::Publish(_), Mode::Broker) => {
                // The hub publishes locally: count it like a remote
                // submission so local load also trips the monitor.
                if self.id == HUB {
                    self.window_publishes += 1;
                }
                ctx.scoped(HybridMsg::B, |c| broker.on_command(c, cmd));
            }
            (Command::Publish(_), Mode::Gossip) => {
                ctx.scoped(HybridMsg::G, |c| gossip.on_command(c, cmd));
            }
        }
    }

    fn on_crash(&mut self, at: SimTime) {
        self.broker.on_crash(at);
        self.gossip.on_crash(at);
        self.window_publishes = 0;
    }

    fn message_size(msg: &HybridMsg) -> usize {
        match msg {
            HybridMsg::B(m) => BrokerNode::message_size(m),
            HybridMsg::G(m) => GossipNode::message_size(m),
            HybridMsg::Switch => 8,
        }
    }

    fn trace_payload(msg: &HybridMsg, emit: &mut dyn FnMut(u64, u32, u32, fed_sim::HopKind)) {
        // Hops keep the embedded stack's tags, so a trace shows which
        // strategy carried each event across the handover.
        match msg {
            HybridMsg::B(m) => BrokerNode::trace_payload(m, emit),
            HybridMsg::G(m) => GossipNode::trace_payload(m, emit),
            HybridMsg::Switch => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_pubsub::{Event, TopicId};
    use fed_sim::network::{LatencyModel, NetworkModel};
    use fed_sim::Simulation;

    fn sim(n: usize) -> Simulation<HybridNode> {
        let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10)));
        Simulation::new(n, net, 11, move |id, _| HybridNode::new(id, n, false))
    }

    fn topic_event(seq: u32, topic: TopicId) -> Event {
        Event::bare(EventId::new(1, seq), topic)
    }

    #[test]
    fn broker_mode_delivers_without_switching() {
        let mut s = sim(8);
        let topic = TopicId::new(1);
        for i in 0..8u32 {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        for seq in 0..10 {
            s.schedule_command(
                SimTime::from_millis(100 + 50 * seq),
                NodeId::new(3),
                Command::Publish(topic_event(seq as u32, topic)),
            );
        }
        s.run_until(SimTime::from_secs(3));
        for (id, node) in s.into_nodes() {
            assert_eq!(node.switched_at(), None, "{id:?} switched under no load");
            assert_eq!(node.into_merged_deliveries().len(), 10, "{id:?}");
        }
    }

    #[test]
    fn unsubscribe_reaches_both_stacks() {
        let mut s = sim(8);
        let topic = TopicId::new(1);
        let quitter = NodeId::new(2);
        for i in 0..8u32 {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        s.schedule_command(
            SimTime::from_millis(50),
            quitter,
            Command::Unsubscribe(topic),
        );
        for seq in 0..10 {
            s.schedule_command(
                SimTime::from_millis(200 + 50 * seq),
                NodeId::new(3),
                Command::Publish(topic_event(seq as u32, topic)),
            );
        }
        s.run_until(SimTime::from_secs(3));
        for (id, node) in s.into_nodes() {
            let (filters, deliveries) = if id == quitter { (0, 0) } else { (1, 10) };
            for endpoint in node.endpoints() {
                assert_eq!(endpoint.ledger().active_filters(), filters, "{id:?}");
            }
            assert_eq!(node.into_merged_deliveries().len(), deliveries, "{id:?}");
        }
    }

    #[test]
    fn load_spike_triggers_switch_and_gossip_still_delivers() {
        let mut s = sim(8);
        let topic = TopicId::new(1);
        for i in 0..8u32 {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        // A burst well past the threshold inside the first monitor window…
        for seq in 0..100 {
            s.schedule_command(
                SimTime::from_millis(100 + 3 * seq),
                NodeId::new(3),
                Command::Publish(topic_event(seq as u32, topic)),
            );
        }
        // …then traffic published long after the switch completed.
        for seq in 100..110 {
            s.schedule_command(
                SimTime::from_millis(2_000 + 50 * (seq - 100)),
                NodeId::new(5),
                Command::Publish(topic_event(seq as u32, topic)),
            );
        }
        s.run_until(SimTime::from_secs(6));
        for (id, node) in s.into_nodes() {
            let at = node.switched_at().expect("every node switches");
            assert!(at >= SimTime::from_millis(500), "{id:?} switched at {at}");
            assert_eq!(node.into_merged_deliveries().len(), 110, "{id:?}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = sim(12);
            let topic = TopicId::new(2);
            for i in 0..12u32 {
                s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
            }
            // A burst past the threshold, so the handover is replayed too.
            for seq in 0..80 {
                s.schedule_command(
                    SimTime::from_millis(100 + 4 * seq),
                    NodeId::new((seq % 12) as u32),
                    Command::Publish(topic_event(seq as u32, topic)),
                );
            }
            s.run_until(SimTime::from_secs(5));
            let events = s.events_processed();
            let (switches, logs): (Vec<_>, Vec<_>) = s
                .into_nodes()
                .map(|(_, n)| (n.switched_at(), n.into_merged_deliveries()))
                .unzip();
            (logs, switches, events)
        };
        let (_, switches, _) = run();
        assert!(
            switches.iter().all(Option::is_some),
            "the burst must switch"
        );
        assert_eq!(run(), run());
    }
}
