//! SplitStream-style striped multicast forest (paper §3.1, reference \[7\]).
//!
//! SplitStream's goal is **load balancing**, not fairness: content is
//! split into `k` stripes, each disseminated down its own tree, and the
//! forest is *interior-node-disjoint* — every node is interior in exactly
//! one stripe and a leaf elsewhere, so forwarding load is spread evenly.
//!
//! The paper's §3.2 point, reproduced by experiment T-ARCH, is that this
//! evenness is "irrespective of the benefits or contribution of the actual
//! participants": a peer interested in nothing still carries a full
//! interior position. Load balancing ≠ fairness.

use fed_core::endpoint::{emit_event, Endpoint};
use fed_pubsub::{Command, Event};
use fed_sim::{Context, HopKind, NodeId, Protocol};
use std::sync::Arc;

/// The interior-node-disjoint forest over `n` nodes.
#[derive(Debug, Clone)]
pub struct Forest {
    n: usize,
    stripes: usize,
    branching: usize,
    /// `order[s]` is the node ordering of stripe `s`: interiors first.
    order: Vec<Vec<usize>>,
    /// `pos[s][node]` is the node's position in stripe `s`'s ordering.
    pos: Vec<Vec<usize>>,
}

impl Forest {
    /// Builds a forest of `stripes` trees with the given branching factor.
    ///
    /// Node `i` is interior-eligible only in stripe `i % stripes`; within a
    /// stripe, interior-eligible nodes occupy the top of a complete
    /// `branching`-ary tree, everyone else is a leaf.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or `branching < stripes` (which would
    /// force non-eligible nodes into interior positions).
    pub fn build(n: usize, stripes: usize, branching: usize) -> Self {
        assert!(
            n > 0 && stripes > 0 && branching > 0,
            "parameters must be positive"
        );
        assert!(
            branching >= stripes,
            "branching must be >= stripes for interior disjointness"
        );
        let mut order = Vec::with_capacity(stripes);
        let mut pos = Vec::with_capacity(stripes);
        for s in 0..stripes {
            let interiors = (0..n).filter(|i| i % stripes == s);
            let leaves = (0..n).filter(|i| i % stripes != s);
            let ordering: Vec<usize> = interiors.chain(leaves).collect();
            let mut position = vec![0usize; n];
            for (p, &node) in ordering.iter().enumerate() {
                position[node] = p;
            }
            order.push(ordering);
            pos.push(position);
        }
        Forest {
            n,
            stripes,
            branching,
            order,
            pos,
        }
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// The stripe an event belongs to (by publisher sequence).
    pub fn stripe_of(&self, event: &Event) -> usize {
        event.id().seq() as usize % self.stripes
    }

    /// Root node of a stripe.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range.
    pub fn root(&self, stripe: usize) -> NodeId {
        NodeId::new(self.order[stripe][0] as u32)
    }

    /// Children of `node` in `stripe`'s tree.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range or `node` is not in the forest.
    pub fn children(&self, stripe: usize, node: NodeId) -> Vec<NodeId> {
        let p = self.pos[stripe][node.index()];
        let first = p * self.branching + 1;
        (first..(first + self.branching).min(self.n))
            .map(|c| NodeId::new(self.order[stripe][c] as u32))
            .collect()
    }
}

/// Wire messages.
#[derive(Debug, Clone)]
pub enum StripeMsg {
    /// Event travelling to its stripe root.
    ToRoot(Event),
    /// Event flowing down the stripe tree.
    Down(Event),
}

/// A SplitStream-style node.
#[derive(Debug)]
pub struct SplitStreamNode {
    id: NodeId,
    forest: Arc<Forest>,
    endpoint: Endpoint,
}

impl SplitStreamNode {
    /// Creates a node over a shared forest.
    pub fn new(id: NodeId, forest: Arc<Forest>) -> Self {
        SplitStreamNode {
            id,
            forest,
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

    fn relay_down(&mut self, ctx: &mut Context<'_, StripeMsg>, event: &Event) {
        let stripe = self.forest.stripe_of(event);
        let size = event.size_bytes();
        for child in self.forest.children(stripe, self.id) {
            ctx.send(child, StripeMsg::Down(*event));
            self.endpoint.ledger_mut().record_forward(size);
        }
    }
}

impl Protocol for SplitStreamNode {
    type Msg = StripeMsg;
    type Cmd = Command;

    fn on_message(&mut self, ctx: &mut Context<'_, StripeMsg>, _from: NodeId, msg: StripeMsg) {
        match msg {
            StripeMsg::ToRoot(event) => {
                self.endpoint.offer_in(ctx, &event);
                self.relay_down(ctx, &event);
            }
            StripeMsg::Down(event) => {
                self.endpoint.offer_in(ctx, &event);
                self.relay_down(ctx, &event);
            }
        }
    }

    fn on_command(&mut self, ctx: &mut Context<'_, StripeMsg>, cmd: Command) {
        match cmd {
            Command::Publish(event) => {
                self.endpoint.published(&event);
                let stripe = self.forest.stripe_of(&event);
                let root = self.forest.root(stripe);
                if root == self.id {
                    self.endpoint.offer_in(ctx, &event);
                    self.relay_down(ctx, &event);
                } else {
                    ctx.send(root, StripeMsg::ToRoot(event));
                }
            }
            // Delivery-side interest only: the forest carries all events
            // to everyone (SplitStream is a broadcast system).
            Command::Subscribe(topic) => self.endpoint.subscribe_topic(topic),
            Command::Unsubscribe(topic) => self.endpoint.unsubscribe_topic(topic),
        }
    }

    fn message_size(msg: &StripeMsg) -> usize {
        match msg {
            StripeMsg::ToRoot(e) | StripeMsg::Down(e) => 8 + e.size_bytes(),
        }
    }

    fn trace_payload(msg: &StripeMsg, emit: &mut dyn FnMut(u64, u32, u32, HopKind)) {
        let (e, kind) = match msg {
            StripeMsg::ToRoot(e) => (e, HopKind::StripeToRoot),
            StripeMsg::Down(e) => (e, HopKind::StripeEdge),
        };
        emit_event(emit, e, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_pubsub::{EventId, TopicId};
    use fed_sim::network::{LatencyModel, NetworkModel};
    use fed_sim::{SimDuration, SimTime, Simulation};

    /// Whether `node` has children in `stripe`.
    fn is_interior(f: &Forest, stripe: usize, node: NodeId) -> bool {
        !f.children(stripe, node).is_empty()
    }

    #[test]
    fn forest_invariants() {
        let n = 64;
        let k = 4;
        let f = Forest::build(n, k, 4);
        for s in 0..k {
            // Every node appears exactly once per stripe ordering.
            let mut seen = vec![false; n];
            for &node in &f.order[s] {
                assert!(!seen[node]);
                seen[node] = true;
            }
            assert!(seen.iter().all(|&b| b));
            // Interior-disjointness: interior nodes of stripe s are
            // eligible (index % k == s).
            for i in 0..n {
                let node = NodeId::new(i as u32);
                if is_interior(&f, s, node) {
                    assert_eq!(i % k, s, "node {i} interior outside its stripe");
                }
            }
        }
    }

    #[test]
    fn every_node_is_interior_in_exactly_one_stripe() {
        let n = 48;
        let k = 4;
        let f = Forest::build(n, k, 6);
        for i in 0..n {
            let node = NodeId::new(i as u32);
            let interior_count = (0..k).filter(|&s| is_interior(&f, s, node)).count();
            // Nodes late in their stripe ordering can be leaves everywhere
            // (small stripes), but never interior in more than one stripe.
            assert!(interior_count <= 1, "node {i} interior in {interior_count}");
        }
        // And the forwarding positions exist: each stripe has interiors.
        for s in 0..k {
            assert!(is_interior(&f, s, f.root(s)));
        }
    }

    #[test]
    #[should_panic(expected = "branching must be >= stripes")]
    fn forest_rejects_thin_branching() {
        let _ = Forest::build(16, 8, 4);
    }

    fn sim(n: usize, stripes: usize) -> Simulation<SplitStreamNode> {
        let forest = Arc::new(Forest::build(n, stripes, stripes.max(4)));
        let net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(5)));
        Simulation::new(n, net, 5, move |id, _| {
            SplitStreamNode::new(id, Arc::clone(&forest))
        })
    }

    #[test]
    fn all_subscribers_receive_all_stripes() {
        let n = 32;
        let mut s = sim(n, 4);
        let topic = TopicId::new(0);
        for i in 0..n as u32 {
            s.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
        }
        // publish 8 events -> spread across 4 stripes by seq
        for k in 0..8u32 {
            s.schedule_command(
                SimTime::from_millis(100 + k as u64),
                NodeId::new(5),
                Command::Publish(Event::bare(EventId::new(5, k), topic)),
            );
        }
        s.run_until(SimTime::from_secs(5));
        for (_, node) in s.nodes() {
            assert_eq!(node.endpoint().deliveries().len(), 8);
        }
    }

    #[test]
    fn forwarding_load_is_balanced_but_interest_blind() {
        let n = 32;
        let stripes = 4;
        let mut s = sim(n, stripes);
        // only node 1 subscribes; everyone else is uninterested.
        s.schedule_command(
            SimTime::ZERO,
            NodeId::new(1),
            Command::Subscribe(TopicId::new(0)),
        );
        for k in 0..40u32 {
            s.schedule_command(
                SimTime::from_millis(100 + 10 * k as u64),
                NodeId::new(2),
                Command::Publish(Event::bare(EventId::new(2, k), TopicId::new(0))),
            );
        }
        s.run_until(SimTime::from_secs(10));
        // Load balancing works: interior nodes of every stripe forwarded.
        let forwarders = s
            .nodes()
            .filter(|(_, p)| p.endpoint().ledger().totals().forwarded_msgs > 0)
            .count();
        assert!(forwarders >= stripes, "at least the interiors forward");
        // But fairness fails: uninterested nodes did forwarding work.
        let unfair = s
            .nodes()
            .filter(|(id, p)| id.index() != 1 && p.endpoint().ledger().totals().forwarded_msgs > 0)
            .count();
        assert!(unfair > 0, "load-balanced forwarding ignores benefit");
    }

    #[test]
    fn publisher_at_root_short_circuits() {
        let n = 16;
        let forest = Forest::build(n, 2, 4);
        let root0 = forest.root(0);
        let mut s = sim(n, 2);
        s.schedule_command(SimTime::ZERO, root0, Command::Subscribe(TopicId::new(0)));
        // seq 0 -> stripe 0, whose root is root0.
        let e = Event::bare(EventId::new(root0.as_u32(), 0), TopicId::new(0));
        s.schedule_command(SimTime::from_millis(50), root0, Command::Publish(e));
        s.run_until(SimTime::from_secs(2));
        assert!(s
            .node(root0)
            .unwrap()
            .endpoint()
            .deliveries()
            .contains(e.id()));
    }
}
