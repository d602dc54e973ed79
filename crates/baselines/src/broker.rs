//! Central-broker publish/subscribe (paper §3: "some decentralized
//! solutions rely on a subset of servers (sometimes even one), or
//! brokers").
//!
//! One designated node is the broker; every other node is a client.
//! Clients send subscriptions and publications to the broker; the broker
//! matches and forwards. The architecture is maximally *unfair* in the
//! opposite direction from gossip: the broker contributes everything while
//! benefiting (in dissemination terms) not at all — and it is a throughput
//! and fault-tolerance bottleneck, which is why the paper's decentralized
//! premise exists.

use fed_core::endpoint::{emit_event, Endpoint};
use fed_pubsub::{Command, Event, TopicId};
use fed_sim::{Context, HopKind, NodeId, Protocol};
use fed_util::hash::FastMap;
use std::collections::BTreeSet;

/// Wire messages of the broker system.
#[derive(Debug, Clone)]
pub enum BrokerMsg {
    /// Client → broker: publish this event.
    Publish(Event),
    /// Client → broker: subscribe me to a topic.
    Subscribe(TopicId),
    /// Client → broker: remove my subscription to a topic.
    Unsubscribe(TopicId),
    /// Broker → client: an event matching the client's subscription.
    Notify(Event),
}

/// A node in the broker architecture: the broker itself or a client.
#[derive(Debug)]
pub struct BrokerNode {
    id: NodeId,
    broker: NodeId,
    /// Broker-side subscription registry: topic → subscribers.
    registry: FastMap<TopicId, BTreeSet<NodeId>>,
    /// Client-side view of its own subscriptions.
    endpoint: Endpoint,
}

impl BrokerNode {
    /// Creates a node; `broker` designates the broker for the whole system.
    pub fn new(id: NodeId, broker: NodeId) -> Self {
        BrokerNode {
            id,
            broker,
            registry: FastMap::default(),
            endpoint: Endpoint::new(),
        }
    }

    /// Whether this node is the broker.
    pub fn is_broker(&self) -> bool {
        self.id == self.broker
    }

    /// The subscriber side: subscriptions, fairness ledger, delivery log.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The subscriber side, taken out of the finished node.
    pub fn into_endpoint(self) -> Endpoint {
        self.endpoint
    }

    fn broker_dispatch(&mut self, ctx: &mut Context<'_, BrokerMsg>, event: Event) {
        let Some(subscribers) = self.registry.get(&event.topic()) else {
            return;
        };
        let size = event.size_bytes();
        for &subscriber in subscribers {
            if subscriber == self.id {
                // broker may itself subscribe
                self.endpoint.offer_in(ctx, &event);
                continue;
            }
            ctx.send(subscriber, BrokerMsg::Notify(event));
            self.endpoint.ledger_mut().record_forward(size);
        }
    }
}

impl Protocol for BrokerNode {
    type Msg = BrokerMsg;
    type Cmd = Command;

    fn on_message(&mut self, ctx: &mut Context<'_, BrokerMsg>, from: NodeId, msg: BrokerMsg) {
        match msg {
            BrokerMsg::Publish(event) => {
                if self.is_broker() {
                    self.broker_dispatch(ctx, event);
                }
            }
            BrokerMsg::Subscribe(topic) => {
                if self.is_broker() {
                    self.registry.entry(topic).or_default().insert(from);
                    self.endpoint.ledger_mut().record_maintenance();
                }
            }
            BrokerMsg::Unsubscribe(topic) => {
                if self.is_broker() {
                    if let Some(set) = self.registry.get_mut(&topic) {
                        set.remove(&from);
                    }
                    self.endpoint.ledger_mut().record_maintenance();
                }
            }
            BrokerMsg::Notify(event) => {
                self.endpoint.offer_in(ctx, &event);
            }
        }
    }

    fn on_command(&mut self, ctx: &mut Context<'_, BrokerMsg>, cmd: Command) {
        match cmd {
            Command::Publish(event) => {
                self.endpoint.published(&event);
                if self.is_broker() {
                    self.broker_dispatch(ctx, event);
                } else {
                    ctx.send(self.broker, BrokerMsg::Publish(event));
                }
            }
            Command::Subscribe(topic) => {
                self.endpoint.subscribe_topic(topic);
                if self.is_broker() {
                    let id = self.id;
                    self.registry.entry(topic).or_default().insert(id);
                } else {
                    ctx.send(self.broker, BrokerMsg::Subscribe(topic));
                }
            }
            Command::Unsubscribe(topic) => {
                self.endpoint.unsubscribe_topic(topic);
                if !self.is_broker() {
                    ctx.send(self.broker, BrokerMsg::Unsubscribe(topic));
                }
            }
        }
    }

    fn message_size(msg: &BrokerMsg) -> usize {
        match msg {
            BrokerMsg::Publish(e) | BrokerMsg::Notify(e) => 8 + e.size_bytes(),
            BrokerMsg::Subscribe(_) | BrokerMsg::Unsubscribe(_) => 12,
        }
    }

    fn trace_payload(msg: &BrokerMsg, emit: &mut dyn FnMut(u64, u32, u32, HopKind)) {
        // Subscription management is control plane.
        let (e, kind) = match msg {
            BrokerMsg::Publish(e) => (e, HopKind::BrokerIngress),
            BrokerMsg::Notify(e) => (e, HopKind::BrokerNotify),
            BrokerMsg::Subscribe(_) | BrokerMsg::Unsubscribe(_) => return,
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

    fn sim(n: usize) -> Simulation<BrokerNode> {
        let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10)));
        Simulation::new(n, net, 3, |id, _| BrokerNode::new(id, NodeId::new(0)))
    }

    #[test]
    fn publish_reaches_subscribers_only() {
        let mut s = sim(8);
        let topic = TopicId::new(1);
        for i in [2u32, 4, 6] {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        let e = Event::bare(EventId::new(3, 1), topic);
        s.schedule_command(
            SimTime::from_millis(100),
            NodeId::new(3),
            Command::Publish(e),
        );
        s.run_until(SimTime::from_secs(2));
        for (id, node) in s.nodes() {
            let should = matches!(id.as_u32(), 2 | 4 | 6);
            assert_eq!(
                node.endpoint().deliveries().contains(e.id()),
                should,
                "{id}"
            );
        }
    }

    #[test]
    fn broker_does_all_forwarding_work() {
        let mut s = sim(16);
        let topic = TopicId::new(0);
        for i in 1..16u32 {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        for k in 0..10u32 {
            s.schedule_command(
                SimTime::from_millis(100 + k as u64),
                NodeId::new(1 + (k % 15)),
                Command::Publish(Event::bare(EventId::new(1 + (k % 15), k), topic)),
            );
        }
        s.run_until(SimTime::from_secs(2));
        let broker_fwd = s
            .node(NodeId::new(0))
            .unwrap()
            .endpoint()
            .ledger()
            .totals()
            .forwarded_msgs;
        assert_eq!(broker_fwd, 10 * 15, "broker forwards every notify");
        for (id, node) in s.nodes() {
            if id.index() != 0 {
                assert_eq!(
                    node.endpoint().ledger().totals().forwarded_msgs,
                    0,
                    "{id} client"
                );
            }
        }
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let mut s = sim(4);
        let topic = TopicId::new(0);
        s.schedule_command(SimTime::ZERO, NodeId::new(2), Command::Subscribe(topic));
        s.schedule_command(
            SimTime::from_millis(100),
            NodeId::new(2),
            Command::Unsubscribe(topic),
        );
        s.schedule_command(
            SimTime::from_millis(500),
            NodeId::new(1),
            Command::Publish(Event::bare(EventId::new(1, 1), topic)),
        );
        s.run_until(SimTime::from_secs(2));
        assert!(s
            .node(NodeId::new(2))
            .unwrap()
            .endpoint()
            .deliveries()
            .is_empty());
    }

    #[test]
    fn broker_as_subscriber_delivers_locally() {
        let mut s = sim(3);
        let topic = TopicId::new(0);
        s.schedule_command(SimTime::ZERO, NodeId::new(0), Command::Subscribe(topic));
        let e = Event::bare(EventId::new(1, 1), topic);
        s.schedule_command(
            SimTime::from_millis(100),
            NodeId::new(1),
            Command::Publish(e),
        );
        s.run_until(SimTime::from_secs(1));
        assert!(s
            .node(NodeId::new(0))
            .unwrap()
            .endpoint()
            .deliveries()
            .contains(e.id()));
    }

    #[test]
    fn broker_crash_kills_dissemination() {
        let mut s = sim(6);
        let topic = TopicId::new(0);
        for i in 1..6u32 {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        s.schedule_crash(SimTime::from_millis(50), NodeId::new(0));
        s.schedule_command(
            SimTime::from_millis(100),
            NodeId::new(1),
            Command::Publish(Event::bare(EventId::new(1, 1), topic)),
        );
        s.run_until(SimTime::from_secs(2));
        let total: usize = s
            .nodes()
            .map(|(_, n)| n.endpoint().deliveries().len())
            .sum();
        assert_eq!(total, 0, "single point of failure");
    }
}
