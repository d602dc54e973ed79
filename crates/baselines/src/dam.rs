//! Data-aware multicast (paper §4.2, the paper's own reference \[3\]):
//! per-topic gossip groups.
//!
//! Events of topic `t` are gossiped only inside `t`'s **group** — the nodes
//! the static [`GroupTable`] enrols for `t`. In the ideal case the group is
//! exactly the subscriber set, which "yields fairness with respect to the
//! dissemination since processes contribute only for messages they
//! deliver". The catch the paper highlights: to keep a topic hierarchy
//! navigable, "some processes need to subscribe to a supertopic,
//! consequently forced to be interested in all topics" — these bridge
//! nodes forward subtopic traffic they never asked for, behaving like
//! mini-brokers. Here a bridge is a group enrolment without interest: a
//! node in `t`'s group that does not subscribe to `t` gossips `t`'s events
//! and delivers none of them. Group assignment is an input, so experiments
//! can build both the ideal and the bridged variant and measure the
//! difference.

use crate::common::pick_peers;
use fed_core::endpoint::{emit_event, Endpoint};
use fed_pubsub::{Command, Event, EventBatch, TopicId};
use fed_sim::{Context, HopKind, LocalIdSet, NodeId, Protocol, SimDuration};
use fed_util::hash::FastMap;
use fed_util::rng::Rng64;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Static group table: which nodes gossip for which topic. Build with
/// `GroupTable::default()`.
///
/// Invariant: every group is sorted ascending and lists each node at most
/// once, so membership is a binary search (`is_group_member`,
/// [`crate::common::pick_peers`]). `harness::groups_of` builds groups that
/// way and debug-asserts it.
pub type GroupTable = FastMap<TopicId, Vec<NodeId>>;

/// Timer token for gossip rounds.
const ROUND_TIMER: u64 = 1;
/// Gossip round period: every node re-arms its round timer at this
/// period for as long as it lives.
pub const PERIOD: SimDuration = SimDuration::from_millis(100);
/// Partners per round per topic.
const FANOUT: usize = 4;
/// Rounds an event stays forwardable.
const TTL_ROUNDS: u32 = 8;

/// Wire messages.
#[derive(Debug, Clone)]
pub enum DamMsg {
    /// Intra-group gossip batch for one topic.
    Gossip {
        /// Topic the batch belongs to.
        topic: TopicId,
        /// Events (all on `topic`), shared by every partner of the round.
        events: Arc<EventBatch>,
    },
    /// A publisher outside the group hands an event to a member.
    Handoff {
        /// The event.
        event: Event,
    },
}

/// A data-aware multicast node.
#[derive(Debug)]
pub struct DamNode {
    id: NodeId,
    groups: Arc<GroupTable>,
    endpoint: Endpoint,
    /// Per-topic buffered events with TTL (ordered so round processing is
    /// deterministic — HashMap iteration order would leak into the RNG
    /// consumption sequence and break replay).
    buffer: BTreeMap<TopicId, Vec<(Event, u32)>>,
    /// Every event ever accepted, over the kernel's numbering.
    seen: LocalIdSet,
    /// Scratch for [`pick_peers`], reused by every round.
    picked: Vec<usize>,
}

impl DamNode {
    /// Creates a node over the shared group table.
    pub fn new(id: NodeId, groups: Arc<GroupTable>) -> Self {
        DamNode {
            id,
            groups,
            endpoint: Endpoint::new(),
            buffer: BTreeMap::new(),
            seen: LocalIdSet::default(),
            picked: Vec::new(),
        }
    }

    /// The subscriber side: subscriptions, fairness ledger, delivery log.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The subscriber side, taken out of the finished node.
    pub fn into_endpoint(self) -> Endpoint {
        self.endpoint
    }

    /// Whether this node is enrolled in `topic`'s gossip group.
    pub fn is_group_member(&self, topic: TopicId) -> bool {
        self.groups
            .get(&topic)
            .is_some_and(|g| g.binary_search(&self.id).is_ok())
    }

    fn accept(&mut self, ctx: &mut Context<'_, DamMsg>, event: &Event) {
        let id = ctx.local_id(event.id().as_u64());
        if !self.seen.insert(id) {
            return;
        }
        self.endpoint.offer(event, id, ctx.now());
        // Only group members keep forwarding.
        if self.is_group_member(event.topic()) {
            self.buffer
                .entry(event.topic())
                .or_default()
                .push((*event, TTL_ROUNDS));
        }
    }
}

impl Protocol for DamNode {
    type Msg = DamMsg;
    type Cmd = Command;

    fn on_init(&mut self, ctx: &mut Context<'_, DamMsg>) {
        let jitter = ctx.rng().range_u64(PERIOD.as_micros().max(1));
        ctx.set_timer(SimDuration::from_micros(jitter), ROUND_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, DamMsg>, _from: NodeId, msg: DamMsg) {
        match msg {
            DamMsg::Gossip { events, .. } => {
                for event in events.events() {
                    self.accept(ctx, event);
                }
            }
            DamMsg::Handoff { event } => self.accept(ctx, &event),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DamMsg>, token: u64) {
        debug_assert_eq!(token, ROUND_TIMER);
        for (&topic, entries) in &self.buffer {
            let Some(group) = self.groups.get(&topic) else {
                continue;
            };
            let (peers, _) = pick_peers(ctx.rng(), group, self.id, FANOUT, &mut self.picked);
            let batch: Arc<EventBatch> = Arc::new(entries.iter().map(|(e, _)| *e).collect());
            let size = 12 + batch.size_bytes();
            for peer in peers {
                ctx.send(
                    peer,
                    DamMsg::Gossip {
                        topic,
                        events: Arc::clone(&batch),
                    },
                );
                self.endpoint.ledger_mut().record_forward(size);
            }
        }
        // Age buffers.
        for entries in self.buffer.values_mut() {
            for (_, ttl) in entries.iter_mut() {
                *ttl = ttl.saturating_sub(1);
            }
            entries.retain(|(_, ttl)| *ttl > 0);
        }
        self.buffer.retain(|_, v| !v.is_empty());
        ctx.set_timer(PERIOD, ROUND_TIMER);
    }

    fn on_command(&mut self, ctx: &mut Context<'_, DamMsg>, cmd: Command) {
        match cmd {
            Command::Publish(event) => {
                self.endpoint.published(&event);
                if self.is_group_member(event.topic()) {
                    self.accept(ctx, &event);
                } else if let Some(group) = self.groups.get(&event.topic()) {
                    // Bridge into the group through one member (this node
                    // is not one, so the whole group is eligible).
                    if let Some(&member) = ctx.rng().choose(group) {
                        ctx.send(member, DamMsg::Handoff { event });
                    }
                }
            }
            // Delivery interest only; group enrolment is the static
            // `GroupTable`.
            Command::Subscribe(topic) => self.endpoint.subscribe_topic(topic),
            Command::Unsubscribe(topic) => self.endpoint.unsubscribe_topic(topic),
        }
    }

    fn message_size(msg: &DamMsg) -> usize {
        match msg {
            DamMsg::Gossip { events, .. } => 12 + events.size_bytes(),
            DamMsg::Handoff { event } => 8 + event.size_bytes(),
        }
    }

    fn trace_payload(msg: &DamMsg, emit: &mut dyn FnMut(u64, u32, u32, HopKind)) {
        match msg {
            DamMsg::Gossip { events, .. } => {
                for e in events.events() {
                    emit_event(emit, e, HopKind::GossipPush);
                }
            }
            DamMsg::Handoff { event } => emit_event(emit, event, HopKind::GossipHandoff),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_pubsub::EventId;
    use fed_sim::network::{LatencyModel, NetworkModel};
    use fed_sim::{SimTime, Simulation};

    fn build(n: usize, groups: GroupTable) -> Simulation<DamNode> {
        let groups = Arc::new(groups);
        let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(5)));
        Simulation::new(n, net, 31, move |id, _| {
            DamNode::new(id, Arc::clone(&groups))
        })
    }

    #[test]
    fn events_stay_inside_the_group() {
        let n = 32;
        let topic = TopicId::new(0);
        let members: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let mut groups = GroupTable::default();
        groups.insert(topic, members.clone());
        let mut sim = build(n, groups);
        for m in &members {
            sim.schedule_command(SimTime::ZERO, *m, Command::Subscribe(topic));
        }
        let e = Event::bare(EventId::new(0, 1), topic);
        sim.schedule_command(
            SimTime::from_millis(100),
            NodeId::new(0),
            Command::Publish(e),
        );
        sim.run_until(SimTime::from_secs(5));
        for (id, node) in sim.nodes() {
            if members.contains(&id) {
                assert!(
                    node.endpoint().deliveries().contains(e.id()),
                    "{id} member missed"
                );
            } else {
                assert!(node.endpoint().deliveries().is_empty());
                assert_eq!(
                    node.endpoint().ledger().totals().forwarded_msgs,
                    0,
                    "{id} outside the group must do zero work"
                );
            }
        }
    }

    #[test]
    fn outside_publisher_hands_off() {
        let n = 16;
        let topic = TopicId::new(0);
        let members: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let mut groups = GroupTable::default();
        groups.insert(topic, members.clone());
        let mut sim = build(n, groups);
        for m in &members {
            sim.schedule_command(SimTime::ZERO, *m, Command::Subscribe(topic));
        }
        // Node 10 is not in the group but publishes.
        let e = Event::bare(EventId::new(10, 1), topic);
        sim.schedule_command(
            SimTime::from_millis(100),
            NodeId::new(10),
            Command::Publish(e),
        );
        sim.run_until(SimTime::from_secs(5));
        let got = members
            .iter()
            .filter(|m| {
                sim.node(**m)
                    .unwrap()
                    .endpoint()
                    .deliveries()
                    .contains(e.id())
            })
            .count();
        assert_eq!(got, members.len(), "handoff reaches the whole group");
    }

    #[test]
    fn supertopic_bridges_forward_without_delivering() {
        // Node 0 is enrolled in `sub`'s group as a bridge but subscribes
        // to nothing -> it forwards sub-traffic with zero benefit.
        let sub = TopicId::new(1);
        let n = 16;
        // Node 0 is the bridge; groups are sorted, so it comes first.
        let members: Vec<NodeId> = (0..6).map(NodeId::new).collect();
        let mut groups = GroupTable::default();
        groups.insert(sub, members);
        let mut sim = build(n, groups);
        for m in 1..6u32 {
            sim.schedule_command(SimTime::ZERO, NodeId::new(m), Command::Subscribe(sub));
        }
        for k in 0..10u32 {
            sim.schedule_command(
                SimTime::from_millis(100 * (k as u64 + 1)),
                NodeId::new(1),
                Command::Publish(Event::bare(EventId::new(1, k), sub)),
            );
        }
        sim.run_until(SimTime::from_secs(8));
        let bridge = sim.node(NodeId::new(0)).unwrap();
        assert!(
            bridge.endpoint().deliveries().is_empty(),
            "bridge has no interest"
        );
        assert!(
            bridge.endpoint().ledger().totals().forwarded_msgs > 0,
            "bridge is conscripted into forwarding — the paper's critique"
        );
    }

    #[test]
    fn buffers_drain_after_ttl() {
        let topic = TopicId::new(0);
        let members: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let mut groups = GroupTable::default();
        groups.insert(topic, members);
        let mut sim = build(8, groups);
        sim.schedule_command(
            SimTime::from_millis(50),
            NodeId::new(0),
            Command::Publish(Event::bare(EventId::new(0, 1), topic)),
        );
        sim.run_until(SimTime::from_secs(3));
        let sent_before: u64 = sim.transport_stats_all().iter().map(|s| s.msgs_sent).sum();
        sim.run_until(SimTime::from_secs(4));
        let sent_after: u64 = sim.transport_stats_all().iter().map(|s| s.msgs_sent).sum();
        assert_eq!(sent_before, sent_after, "gossip stops after TTL drain");
    }
}
