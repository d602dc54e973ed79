//! Scribe-like application-level multicast over the Pastry substrate
//! (paper §4.1).
//!
//! Subscription: a `Join` is routed hop-by-hop toward the topic's
//! rendezvous (the DHT root of the topic key); every hop on the path
//! becomes a tree node, remembering the previous hop as a child. Publish:
//! the event is routed to the rendezvous and then multicast down the tree.
//!
//! The fairness defect the paper calls out is structural and reproduced
//! here exactly: *interior* tree nodes and *route relays* forward events
//! for topics they never subscribed to ("inner nodes of a multicast tree
//! may well have no interest at all in the given topic they are involved
//! in"), and nodes close to popular rendezvous do disproportionate work.

use fed_core::endpoint::{emit_event, Endpoint};
use fed_dht::{DhtId, DhtNetwork};
use fed_pubsub::{Command, Event, TopicId};
use fed_sim::{Context, HopKind, NodeId, Protocol};
use fed_util::hash::FastMap;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Wire messages.
#[derive(Debug, Clone)]
pub enum ScribeMsg {
    /// Tree join travelling toward the rendezvous.
    Join {
        /// Topic being joined.
        topic: TopicId,
    },
    /// A publication travelling toward the rendezvous.
    ToRoot {
        /// The event.
        event: Event,
    },
    /// Dissemination down the tree.
    Multicast {
        /// The event.
        event: Event,
    },
}

/// A Scribe node.
#[derive(Debug)]
pub struct ScribeNode {
    id: NodeId,
    dht: Arc<DhtNetwork>,
    /// Per-topic children in the multicast tree.
    children: FastMap<TopicId, BTreeSet<NodeId>>,
    /// Topics for which this node already joined (forwarder state).
    in_tree: BTreeSet<TopicId>,
    endpoint: Endpoint,
}

impl ScribeNode {
    /// Creates a node over a shared DHT substrate.
    pub fn new(id: NodeId, dht: Arc<DhtNetwork>) -> Self {
        ScribeNode {
            id,
            dht,
            children: FastMap::default(),
            in_tree: BTreeSet::new(),
            endpoint: Endpoint::new(),
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

    /// Whether the node actually subscribed to `topic`.
    pub fn is_subscriber(&self, topic: TopicId) -> bool {
        self.endpoint.subscriptions().has_topic(topic)
    }

    fn key_of(topic: TopicId) -> DhtId {
        DhtId::of_topic(topic.index())
    }

    fn next_hop(&self, topic: TopicId) -> Option<NodeId> {
        let state = self
            .dht
            .state_of(self.id.index())
            .expect("node is part of the DHT");
        state
            .next_hop(Self::key_of(topic))
            .map(|n| NodeId::new(n.index as u32))
    }

    fn handle_join(&mut self, ctx: &mut Context<'_, ScribeMsg>, topic: TopicId, child: NodeId) {
        self.children.entry(topic).or_default().insert(child);
        // Already on the tree (or root): no further propagation.
        if self.in_tree.contains(&topic) {
            return;
        }
        self.in_tree.insert(topic);
        if let Some(next) = self.next_hop(topic) {
            ctx.send(next, ScribeMsg::Join { topic });
            self.endpoint.ledger_mut().record_maintenance();
        }
        // If next_hop is None we are the rendezvous: tree rooted here.
    }

    fn multicast_down(&mut self, ctx: &mut Context<'_, ScribeMsg>, event: &Event) {
        let Some(kids) = self.children.get(&event.topic()) else {
            return;
        };
        let size = event.size_bytes();
        for &child in kids {
            ctx.send(child, ScribeMsg::Multicast { event: *event });
            self.endpoint.ledger_mut().record_forward(size);
        }
    }
}

impl Protocol for ScribeNode {
    type Msg = ScribeMsg;
    type Cmd = Command;

    fn on_message(&mut self, ctx: &mut Context<'_, ScribeMsg>, from: NodeId, msg: ScribeMsg) {
        match msg {
            ScribeMsg::Join { topic } => self.handle_join(ctx, topic, from),
            ScribeMsg::ToRoot { event } => match self.next_hop(event.topic()) {
                Some(next) => {
                    // Route relay work: forwarding a publication for a topic
                    // this node may care nothing about.
                    self.endpoint
                        .ledger_mut()
                        .record_forward(event.size_bytes());
                    ctx.send(next, ScribeMsg::ToRoot { event });
                }
                None => {
                    // We are the rendezvous.
                    self.endpoint.offer_in(ctx, &event);
                    self.multicast_down(ctx, &event);
                }
            },
            ScribeMsg::Multicast { event } => {
                self.endpoint.offer_in(ctx, &event);
                self.multicast_down(ctx, &event);
            }
        }
    }

    fn on_command(&mut self, ctx: &mut Context<'_, ScribeMsg>, cmd: Command) {
        match cmd {
            Command::Publish(event) => {
                self.endpoint.published(&event);
                match self.next_hop(event.topic()) {
                    Some(next) => ctx.send(next, ScribeMsg::ToRoot { event }),
                    None => {
                        // Publisher happens to be the rendezvous.
                        self.endpoint.offer_in(ctx, &event);
                        self.multicast_down(ctx, &event);
                    }
                }
            }
            Command::Subscribe(topic) => {
                self.endpoint.subscribe_topic(topic);
                if !self.in_tree.contains(&topic) {
                    self.in_tree.insert(topic);
                    if let Some(next) = self.next_hop(topic) {
                        ctx.send(next, ScribeMsg::Join { topic });
                        self.endpoint.ledger_mut().record_maintenance();
                    }
                }
            }
            // Delivery-side only: the node stays in the tree as a
            // forwarder.
            Command::Unsubscribe(topic) => self.endpoint.unsubscribe_topic(topic),
        }
    }

    fn message_size(msg: &ScribeMsg) -> usize {
        match msg {
            ScribeMsg::Join { .. } => 12,
            ScribeMsg::ToRoot { event } | ScribeMsg::Multicast { event } => 8 + event.size_bytes(),
        }
    }

    fn trace_payload(msg: &ScribeMsg, emit: &mut dyn FnMut(u64, u32, u32, HopKind)) {
        // Tree joins are control plane.
        let (e, kind) = match msg {
            ScribeMsg::ToRoot { event } => (event, HopKind::TreeToRoot),
            ScribeMsg::Multicast { event } => (event, HopKind::TreeEdge),
            ScribeMsg::Join { .. } => return,
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

    fn sim(n: usize) -> Simulation<ScribeNode> {
        let dht = Arc::new(DhtNetwork::build(n));
        let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(5)));
        Simulation::new(n, net, 17, move |id, _| {
            ScribeNode::new(id, Arc::clone(&dht))
        })
    }

    #[test]
    fn subscribers_receive_publications() {
        let n = 64;
        let mut s = sim(n);
        let topic = TopicId::new(3);
        let subscribers: Vec<u32> = vec![5, 17, 23, 42, 61];
        for &i in &subscribers {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        let e = Event::bare(EventId::new(7, 1), topic);
        s.schedule_command(
            SimTime::from_millis(500),
            NodeId::new(7),
            Command::Publish(e),
        );
        s.run_until(SimTime::from_secs(5));
        for &i in &subscribers {
            assert!(
                s.node(NodeId::new(i))
                    .unwrap()
                    .endpoint()
                    .deliveries()
                    .contains(e.id()),
                "subscriber {i} missed the event"
            );
        }
        // Non-subscribers never deliver.
        for (id, node) in s.nodes() {
            if !subscribers.contains(&id.as_u32()) {
                assert!(
                    node.endpoint().deliveries().is_empty(),
                    "{id} spurious delivery"
                );
            }
        }
    }

    /// Unsubscribing is delivery-side: the node stops delivering but
    /// stays in the tree, so the subscribers below it keep receiving.
    #[test]
    fn unsubscribed_node_stays_in_the_tree_as_a_forwarder() {
        let n = 64;
        let mut s = sim(n);
        let topic = TopicId::new(3);
        let subscribers: Vec<u32> = vec![5, 17, 23, 42, 61];
        for &i in &subscribers {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        let quitter = NodeId::new(17);
        s.schedule_command(
            SimTime::from_millis(200),
            quitter,
            Command::Unsubscribe(topic),
        );
        let e = Event::bare(EventId::new(7, 1), topic);
        s.schedule_command(
            SimTime::from_millis(500),
            NodeId::new(7),
            Command::Publish(e),
        );
        s.run_until(SimTime::from_secs(5));
        let node = s.node(quitter).unwrap();
        assert!(node.endpoint().deliveries().is_empty());
        assert_eq!(node.endpoint().ledger().active_filters(), 0);
        assert!(node.in_tree.contains(&topic), "still a tree node");
        for &i in subscribers.iter().filter(|&&i| NodeId::new(i) != quitter) {
            let delivered = s.node(NodeId::new(i)).unwrap().endpoint().deliveries();
            assert!(
                delivered.contains(e.id()),
                "subscriber {i} missed the event"
            );
        }
    }

    #[test]
    fn interior_nodes_forward_without_interest() {
        let n = 128;
        let mut s = sim(n);
        let topic = TopicId::new(1);
        let subscribers: Vec<u32> = (0..20).map(|i| i * 6 + 1).collect();
        for &i in &subscribers {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        for k in 0..20u32 {
            s.schedule_command(
                SimTime::from_millis(500 + 50 * k as u64),
                NodeId::new(3),
                Command::Publish(Event::bare(EventId::new(3, k), topic)),
            );
        }
        s.run_until(SimTime::from_secs(10));
        // The paper's claim: some node forwards (contributes) while having
        // no subscription (no benefit).
        let freeloaded: Vec<NodeId> = s
            .nodes()
            .filter(|(id, node)| {
                !subscribers.contains(&id.as_u32())
                    && node.endpoint().ledger().totals().forwarded_msgs > 0
            })
            .map(|(id, _)| id)
            .collect();
        assert!(
            !freeloaded.is_empty(),
            "structured trees must conscript uninterested interior nodes"
        );
    }

    #[test]
    fn rendezvous_is_loaded_for_popular_topics() {
        let n = 64;
        let mut s = sim(n);
        let topic = TopicId::new(9);
        for i in 0..n as u32 {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        for k in 0..10u32 {
            s.schedule_command(
                SimTime::from_millis(500 + 100 * k as u64),
                NodeId::new(k % n as u32),
                Command::Publish(Event::bare(EventId::new(k % n as u32, k), topic)),
            );
        }
        s.run_until(SimTime::from_secs(10));
        let dht = DhtNetwork::build(n);
        let root = dht.root_of(DhtId::of_topic(topic.index()));
        let root_fwd = s
            .node(NodeId::new(root.index as u32))
            .unwrap()
            .endpoint()
            .ledger()
            .totals()
            .forwarded_msgs;
        assert!(root_fwd > 0, "rendezvous forwards the multicast");
        // all subscribers delivered every event
        for (_, node) in s.nodes() {
            assert_eq!(node.endpoint().deliveries().len(), 10);
        }
    }

    #[test]
    fn publisher_at_rendezvous_works() {
        let n = 32;
        let dht = DhtNetwork::build(n);
        let topic = TopicId::new(2);
        let root = dht.root_of(DhtId::of_topic(topic.index()));
        let mut s = sim(n);
        let root_id = NodeId::new(root.index as u32);
        s.schedule_command(SimTime::ZERO, root_id, Command::Subscribe(topic));
        let e = Event::bare(EventId::new(root.index as u32, 1), topic);
        s.schedule_command(SimTime::from_millis(100), root_id, Command::Publish(e));
        s.run_until(SimTime::from_secs(2));
        assert!(s
            .node(root_id)
            .unwrap()
            .endpoint()
            .deliveries()
            .contains(e.id()));
    }

    #[test]
    fn duplicate_subscribe_is_stable() {
        let mut s = sim(16);
        let topic = TopicId::new(0);
        s.schedule_command(SimTime::ZERO, NodeId::new(5), Command::Subscribe(topic));
        s.schedule_command(
            SimTime::from_millis(200),
            NodeId::new(5),
            Command::Subscribe(topic),
        );
        let e = Event::bare(EventId::new(1, 1), topic);
        s.schedule_command(
            SimTime::from_millis(600),
            NodeId::new(1),
            Command::Publish(e),
        );
        s.run_until(SimTime::from_secs(3));
        let node = s.node(NodeId::new(5)).unwrap();
        assert_eq!(node.endpoint().deliveries().len(), 1);
    }
}
