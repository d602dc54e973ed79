//! DKS-style multicast: per-topic groups reached through an index DHT
//! (paper §4.1, the paper's reference \[1\]).
//!
//! "Other approaches like DKS use multiple DHTs to group processes
//! according to their interest and have a special index DHT that allows
//! subscribers to find a correct topic. This allows, when publishing an
//! event, to only involve those processes with a matching subscription.
//! Nevertheless, similar to Scribe some processes in the index DHT which
//! are close to frequently contacted rendezvous nodes will suffer for the
//! same reasons."
//!
//! Model: publications are routed through the index DHT to the topic's
//! index node; the index node injects the event into the topic group
//! (subscribers only), which floods it internally with an infect-and-die
//! epidemic. Group members only handle traffic they want — but index-route
//! relays and index nodes work for topics they never subscribed to.

use crate::common::pick_peers;
use crate::dam::GroupTable;
use fed_core::endpoint::{emit_event, Endpoint};
use fed_dht::{DhtId, DhtNetwork};
use fed_pubsub::{Command, Event, TopicId};
use fed_sim::{Context, HopKind, LocalIdSet, NodeId, Protocol};
use std::sync::Arc;

/// Wire messages.
#[derive(Debug, Clone)]
pub enum DksMsg {
    /// Publication routed through the index DHT.
    IndexRoute {
        /// The event.
        event: Event,
    },
    /// Intra-group epidemic.
    GroupFlood {
        /// The event.
        event: Event,
    },
}

/// Infect-and-die fanout inside the group.
pub const GROUP_FANOUT: usize = 5;
/// How many seed members the index node contacts.
pub const SEEDS: usize = 3;

/// A DKS-style node.
#[derive(Debug)]
pub struct DksNode {
    id: NodeId,
    dht: Arc<DhtNetwork>,
    groups: Arc<GroupTable>,
    endpoint: Endpoint,
    /// Events this node has joined the epidemic for, over the kernel's
    /// numbering.
    seen: LocalIdSet,
    /// Scratch for [`pick_peers`], reused by every flood.
    picked: Vec<usize>,
}

impl DksNode {
    /// Creates a node over shared index DHT and group tables.
    pub fn new(id: NodeId, dht: Arc<DhtNetwork>, groups: Arc<GroupTable>) -> Self {
        DksNode {
            id,
            dht,
            groups,
            endpoint: Endpoint::new(),
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

    fn next_hop(&self, topic: TopicId) -> Option<NodeId> {
        self.dht
            .state_of(self.id.index())
            .expect("node in DHT")
            .next_hop(DhtId::of_topic(topic.index()))
            .map(|n| NodeId::new(n.index as u32))
    }

    /// Sends `event` to up to `k` random other members of its topic group;
    /// returns whether this node is itself a member.
    fn flood(&mut self, ctx: &mut Context<'_, DksMsg>, event: &Event, k: usize) -> bool {
        let Some(group) = self.groups.get(&event.topic()) else {
            return false;
        };
        let (peers, is_member) = pick_peers(ctx.rng(), group, self.id, k, &mut self.picked);
        let size = event.size_bytes();
        for peer in peers {
            ctx.send(peer, DksMsg::GroupFlood { event: *event });
            self.endpoint.ledger_mut().record_forward(size);
        }
        is_member
    }

    /// Index-node duty: seed the topic group, and join the epidemic when
    /// the index node is itself a subscriber.
    fn seed_group(&mut self, ctx: &mut Context<'_, DksMsg>, event: Event) {
        if self.flood(ctx, &event, SEEDS) {
            self.accept_in_group(ctx, event);
        }
    }

    fn accept_in_group(&mut self, ctx: &mut Context<'_, DksMsg>, event: Event) {
        let id = ctx.local_id(event.id().as_u64());
        if !self.seen.insert(id) {
            return; // infect-and-die: forward only on first receipt
        }
        self.endpoint.offer(&event, id, ctx.now());
        self.flood(ctx, &event, GROUP_FANOUT);
    }
}

impl Protocol for DksNode {
    type Msg = DksMsg;
    type Cmd = Command;

    fn on_message(&mut self, ctx: &mut Context<'_, DksMsg>, _from: NodeId, msg: DksMsg) {
        match msg {
            DksMsg::IndexRoute { event } => match self.next_hop(event.topic()) {
                Some(next) => {
                    // Index-route relay: work for an arbitrary topic.
                    self.endpoint
                        .ledger_mut()
                        .record_forward(event.size_bytes());
                    ctx.send(next, DksMsg::IndexRoute { event });
                }
                // We are the index node for this topic.
                None => self.seed_group(ctx, event),
            },
            DksMsg::GroupFlood { event } => self.accept_in_group(ctx, event),
        }
    }

    fn on_command(&mut self, ctx: &mut Context<'_, DksMsg>, cmd: Command) {
        match cmd {
            Command::Publish(event) => {
                self.endpoint.published(&event);
                match self.next_hop(event.topic()) {
                    Some(next) => ctx.send(next, DksMsg::IndexRoute { event }),
                    // Publisher is the index node.
                    None => self.seed_group(ctx, event),
                }
            }
            // Delivery interest only; group membership is the static
            // `GroupTable`.
            Command::Subscribe(topic) => self.endpoint.subscribe_topic(topic),
            Command::Unsubscribe(topic) => self.endpoint.unsubscribe_topic(topic),
        }
    }

    fn message_size(msg: &DksMsg) -> usize {
        match msg {
            DksMsg::IndexRoute { event } | DksMsg::GroupFlood { event } => 8 + event.size_bytes(),
        }
    }

    fn trace_payload(msg: &DksMsg, emit: &mut dyn FnMut(u64, u32, u32, HopKind)) {
        let (e, kind) = match msg {
            DksMsg::IndexRoute { event } => (event, HopKind::DhtRoute),
            DksMsg::GroupFlood { event } => (event, HopKind::GroupFlood),
        };
        emit_event(emit, e, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_pubsub::EventId;
    use fed_sim::network::{LatencyModel, NetworkModel};
    use fed_sim::{SimDuration, SimTime, Simulation};

    fn build(n: usize, groups: GroupTable) -> Simulation<DksNode> {
        let dht = Arc::new(DhtNetwork::build(n));
        let groups = Arc::new(groups);
        let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(5)));
        Simulation::new(n, net, 41, move |id, _| {
            DksNode::new(id, Arc::clone(&dht), Arc::clone(&groups))
        })
    }

    #[test]
    fn group_members_receive_events() {
        let n = 64;
        let topic = TopicId::new(2);
        let members: Vec<NodeId> = (10..30).map(NodeId::new).collect();
        let mut groups = GroupTable::default();
        groups.insert(topic, members.clone());
        let mut s = build(n, groups);
        for m in &members {
            s.schedule_command(SimTime::ZERO, *m, Command::Subscribe(topic));
        }
        let e = Event::bare(EventId::new(50, 1), topic);
        s.schedule_command(
            SimTime::from_millis(100),
            NodeId::new(50),
            Command::Publish(e),
        );
        s.run_until(SimTime::from_secs(5));
        let got = members
            .iter()
            .filter(|m| {
                s.node(**m)
                    .unwrap()
                    .endpoint()
                    .deliveries()
                    .contains(e.id())
            })
            .count();
        assert_eq!(got, members.len(), "epidemic covers the group");
    }

    #[test]
    fn index_relays_work_without_interest() {
        let n = 128;
        let topic = TopicId::new(5);
        let members: Vec<NodeId> = (0..10).map(NodeId::new).collect();
        let mut groups = GroupTable::default();
        groups.insert(topic, members.clone());
        let mut s = build(n, groups);
        for m in &members {
            s.schedule_command(SimTime::ZERO, *m, Command::Subscribe(topic));
        }
        for k in 0..20u32 {
            s.schedule_command(
                SimTime::from_millis(100 + 20 * k as u64),
                NodeId::new(100),
                Command::Publish(Event::bare(EventId::new(100, k), topic)),
            );
        }
        s.run_until(SimTime::from_secs(10));
        let uninterested_workers = s
            .nodes()
            .filter(|(id, p)| {
                !members.contains(id)
                    && id.as_u32() != 100
                    && p.endpoint().ledger().totals().forwarded_msgs > 0
            })
            .count();
        assert!(
            uninterested_workers > 0,
            "index-route relays are conscripted — the paper's critique of DKS"
        );
    }

    #[test]
    fn non_members_never_deliver() {
        let n = 32;
        let topic = TopicId::new(1);
        let members: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let mut groups = GroupTable::default();
        groups.insert(topic, members.clone());
        let mut s = build(n, groups);
        for m in &members {
            s.schedule_command(SimTime::ZERO, *m, Command::Subscribe(topic));
        }
        let e = Event::bare(EventId::new(20, 1), topic);
        s.schedule_command(
            SimTime::from_millis(50),
            NodeId::new(20),
            Command::Publish(e),
        );
        s.run_until(SimTime::from_secs(5));
        for (id, node) in s.nodes() {
            if !members.contains(&id) {
                assert!(node.endpoint().deliveries().is_empty(), "{id}");
            }
        }
    }

    #[test]
    fn empty_group_event_dies_at_index() {
        let n = 16;
        let mut s = build(n, GroupTable::default());
        s.schedule_command(
            SimTime::from_millis(50),
            NodeId::new(3),
            Command::Publish(Event::bare(EventId::new(3, 1), TopicId::new(7))),
        );
        s.run_until(SimTime::from_secs(2));
        let total: usize = s
            .nodes()
            .map(|(_, p)| p.endpoint().deliveries().len())
            .sum();
        assert_eq!(total, 0);
    }
}
