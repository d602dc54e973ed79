//! Fair subscription management (paper §5.1).
//!
//! "A fundamental part of work in a selective information dissemination
//! system deals with ongoing subscriptions and unsubscriptions … a
//! subscriber can perform subscriptions from an arbitrary contact of the
//! system" and "some unlucky processes may be far more often involved in
//! forwarding subscription requests than others."
//!
//! This module implements the canonical unstructured mechanism: a
//! subscription is a **random walk** that hops through the membership until
//! it reaches a node already in the target topic's group (or exhausts its
//! budget). Every relay hop is maintenance work. Two accounting policies
//! are compared by experiment E-SUBS:
//!
//! * **Uncompensated** (the status quo the paper criticises): relays absorb
//!   the cost in their contribution; unlucky relays of popular-churn topics
//!   see their ratio degrade through no interest of their own.
//! * **Compensated** (our §5.1 mechanism): each relay hop both counts as
//!   contribution *and* earns a maintenance credit (so the relay's ratio is
//!   unchanged), while the full walk length is billed to the *subscriber's*
//!   contribution — the peer that asked for the work pays for it.

use crate::ledger::FairnessLedger;
use fed_membership::{FullMembership, PeerSampler};
use fed_pubsub::TopicId;
use fed_sim::{Context, NodeId, Protocol};
use std::collections::{BTreeSet, HashMap};

/// Accounting policy for subscription-walk relays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalkAccounting {
    /// Relays absorb the maintenance cost (unfair baseline).
    #[default]
    Uncompensated,
    /// Relays are credited; subscribers are billed for the walk.
    Compensated,
}

/// Maximum hops before a walk gives up.
pub const WALK_BUDGET: u32 = 256;

/// Why a walk was started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkPurpose {
    /// The origin wants to join the topic group.
    Subscribe,
    /// The origin left the group and informs a remaining member.
    Unsubscribe,
}

/// Wire messages of the walk protocol.
#[derive(Debug, Clone)]
pub enum SubWalkMsg {
    /// A subscription walk looking for a member of `topic`.
    Walk {
        /// Why the walk is running.
        purpose: WalkPurpose,
        /// Target topic.
        topic: TopicId,
        /// The subscribing node (receives the ack).
        origin: NodeId,
        /// Remaining hop budget.
        remaining: u32,
        /// Hops taken so far.
        hops: u32,
    },
    /// Walk completion notice to the origin.
    Ack {
        /// Why the walk ran.
        purpose: WalkPurpose,
        /// Target topic.
        topic: TopicId,
        /// Node where the walk terminated (a group member on success).
        terminus: NodeId,
        /// Whether a member was found within budget.
        found: bool,
        /// Hops the walk used.
        hops: u32,
    },
}

/// Commands injected by the experiment driver.
#[derive(Debug, Clone, Copy)]
pub enum SubWalkCmd {
    /// Start a subscription walk for `topic`.
    Subscribe(TopicId),
    /// Leave the group of `topic` (local, then an unsubscription walk to
    /// inform a remaining member — the paper counts unsubscriptions as
    /// maintenance work too).
    Unsubscribe(TopicId),
}

/// Outcome of one completed walk, recorded at the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Target topic.
    pub topic: TopicId,
    /// Hops used.
    pub hops: u32,
    /// Whether a group member was found.
    pub found: bool,
}

/// A node participating in subscription-walk maintenance.
#[derive(Debug)]
pub struct SubWalkNode {
    id: NodeId,
    accounting: WalkAccounting,
    sampler: FullMembership,
    member_of: BTreeSet<TopicId>,
    ledger: FairnessLedger,
    outcomes: Vec<WalkOutcome>,
    relayed: HashMap<TopicId, u64>,
}

impl SubWalkNode {
    /// Creates a node that is initially a member of `initial_topics`.
    pub fn new<I: IntoIterator<Item = TopicId>>(
        id: NodeId,
        n: usize,
        accounting: WalkAccounting,
        initial_topics: I,
    ) -> Self {
        SubWalkNode {
            id,
            accounting,
            sampler: FullMembership::new(id, n),
            member_of: initial_topics.into_iter().collect(),
            ledger: FairnessLedger::new(),
            outcomes: Vec::new(),
            relayed: HashMap::new(),
        }
    }

    /// The node's fairness ledger.
    pub fn ledger(&self) -> &FairnessLedger {
        &self.ledger
    }

    /// Topics this node is currently a member of.
    pub fn memberships(&self) -> &BTreeSet<TopicId> {
        &self.member_of
    }

    /// Completed walk outcomes originated by this node.
    pub fn outcomes(&self) -> &[WalkOutcome] {
        &self.outcomes
    }

    /// Total relay work performed.
    pub fn total_relayed(&self) -> u64 {
        self.relayed.values().sum()
    }

    #[allow(clippy::too_many_arguments)]
    fn forward_or_finish(
        &mut self,
        ctx: &mut Context<'_, SubWalkMsg>,
        purpose: WalkPurpose,
        topic: TopicId,
        origin: NodeId,
        remaining: u32,
        hops: u32,
    ) {
        // Am I a member? Then the walk found its group.
        if self.member_of.contains(&topic) {
            ctx.send(
                origin,
                SubWalkMsg::Ack {
                    purpose,
                    topic,
                    terminus: self.id,
                    found: true,
                    hops,
                },
            );
            return;
        }
        if remaining == 0 {
            ctx.send(
                origin,
                SubWalkMsg::Ack {
                    purpose,
                    topic,
                    terminus: self.id,
                    found: false,
                    hops,
                },
            );
            return;
        }
        // Relay: this is the maintenance work the paper talks about.
        *self.relayed.entry(topic).or_insert(0) += 1;
        self.ledger.record_maintenance();
        if self.accounting == WalkAccounting::Compensated {
            self.ledger.record_maintenance_credit();
        }
        let next = self.sampler.sample_peers(ctx.rng(), 1).into_iter().next();
        match next {
            Some(peer) => ctx.send(
                peer,
                SubWalkMsg::Walk {
                    purpose,
                    topic,
                    origin,
                    remaining: remaining - 1,
                    hops: hops + 1,
                },
            ),
            None => ctx.send(
                origin,
                SubWalkMsg::Ack {
                    purpose,
                    topic,
                    terminus: self.id,
                    found: false,
                    hops,
                },
            ),
        }
    }
}

impl Protocol for SubWalkNode {
    type Msg = SubWalkMsg;
    type Cmd = SubWalkCmd;

    fn on_message(&mut self, ctx: &mut Context<'_, SubWalkMsg>, _from: NodeId, msg: SubWalkMsg) {
        match msg {
            SubWalkMsg::Walk {
                purpose,
                topic,
                origin,
                remaining,
                hops,
            } => self.forward_or_finish(ctx, purpose, topic, origin, remaining, hops),
            SubWalkMsg::Ack {
                purpose,
                topic,
                found,
                hops,
                ..
            } => {
                self.outcomes.push(WalkOutcome { topic, hops, found });
                if found && purpose == WalkPurpose::Subscribe {
                    self.member_of.insert(topic);
                    self.ledger.set_active_filters(self.member_of.len() as u32);
                }
                if self.accounting == WalkAccounting::Compensated {
                    // Bill the subscriber for the relay path it consumed.
                    self.ledger.record_maintenance_bulk(hops as u64);
                }
            }
        }
    }

    fn on_command(&mut self, ctx: &mut Context<'_, SubWalkMsg>, cmd: SubWalkCmd) {
        match cmd {
            SubWalkCmd::Subscribe(topic) => {
                if self.member_of.contains(&topic) {
                    return;
                }
                self.start_walk(ctx, WalkPurpose::Subscribe, topic);
            }
            SubWalkCmd::Unsubscribe(topic) => {
                if !self.member_of.remove(&topic) {
                    return;
                }
                self.ledger.set_active_filters(self.member_of.len() as u32);
                // Inform a remaining member: same walk mechanics.
                self.start_walk(ctx, WalkPurpose::Unsubscribe, topic);
            }
        }
    }

    fn message_size(msg: &SubWalkMsg) -> usize {
        match msg {
            SubWalkMsg::Walk { .. } => 24,
            SubWalkMsg::Ack { .. } => 20,
        }
    }
}

impl SubWalkNode {
    fn start_walk(
        &mut self,
        ctx: &mut Context<'_, SubWalkMsg>,
        purpose: WalkPurpose,
        topic: TopicId,
    ) {
        let origin = self.id;
        match self.sampler.sample_peers(ctx.rng(), 1).into_iter().next() {
            Some(peer) => ctx.send(
                peer,
                SubWalkMsg::Walk {
                    purpose,
                    topic,
                    origin,
                    remaining: WALK_BUDGET,
                    hops: 1,
                },
            ),
            None => self.outcomes.push(WalkOutcome {
                topic,
                hops: 0,
                found: false,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_sim::network::{LatencyModel, NetworkModel};
    use fed_sim::{SimDuration, SimTime, Simulation};

    fn net() -> NetworkModel {
        NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(5)))
    }

    /// n nodes; nodes 0..m are members of topic 0.
    fn sim_with_members(
        n: usize,
        members: usize,
        accounting: WalkAccounting,
    ) -> Simulation<SubWalkNode> {
        Simulation::new(n, net(), 99, move |id, _| {
            let initial = if id.index() < members {
                vec![TopicId::new(0)]
            } else {
                vec![]
            };
            SubWalkNode::new(id, n, accounting, initial)
        })
    }

    #[test]
    fn walk_finds_popular_group_quickly() {
        let mut sim = sim_with_members(64, 32, WalkAccounting::Uncompensated);
        let sub = NodeId::new(60);
        sim.schedule_command(SimTime::ZERO, sub, SubWalkCmd::Subscribe(TopicId::new(0)));
        sim.run_until(SimTime::from_secs(10));
        let node = sim.node(sub).unwrap();
        assert_eq!(node.outcomes().len(), 1);
        let o = node.outcomes()[0];
        assert!(o.found, "half the system is a member");
        assert!(o.hops <= 16, "found in {} hops", o.hops);
        assert!(node.memberships().contains(&TopicId::new(0)));
        assert_eq!(node.ledger().active_filters(), 1);
    }

    #[test]
    fn rare_topic_needs_longer_walks() {
        let mut fast_hops = Vec::new();
        let mut slow_hops = Vec::new();
        for seed_shift in 0..5u32 {
            let mut popular = sim_with_members(128, 64, WalkAccounting::Uncompensated);
            let mut rare = sim_with_members(128, 2, WalkAccounting::Uncompensated);
            let sub = NodeId::new(100 + seed_shift);
            popular.schedule_command(SimTime::ZERO, sub, SubWalkCmd::Subscribe(TopicId::new(0)));
            rare.schedule_command(SimTime::ZERO, sub, SubWalkCmd::Subscribe(TopicId::new(0)));
            popular.run_until(SimTime::from_secs(30));
            rare.run_until(SimTime::from_secs(30));
            fast_hops.push(popular.node(sub).unwrap().outcomes()[0].hops);
            slow_hops.push(rare.node(sub).unwrap().outcomes()[0].hops);
        }
        let fast: u32 = fast_hops.iter().sum();
        let slow: u32 = slow_hops.iter().sum();
        assert!(
            slow > fast,
            "rare topics must need more relay work ({slow} vs {fast})"
        );
    }

    #[test]
    fn walk_exhausts_budget_when_no_member_exists() {
        let mut sim: Simulation<SubWalkNode> = Simulation::new(16, net(), 5, |id, _| {
            SubWalkNode::new(id, 16, WalkAccounting::Uncompensated, vec![])
        });
        let sub = NodeId::new(3);
        sim.schedule_command(SimTime::ZERO, sub, SubWalkCmd::Subscribe(TopicId::new(9)));
        sim.run_until(SimTime::from_secs(10));
        let node = sim.node(sub).unwrap();
        assert_eq!(node.outcomes().len(), 1);
        assert!(!node.outcomes()[0].found);
        assert!(!node.memberships().contains(&TopicId::new(9)));
    }

    #[test]
    fn uncompensated_relays_carry_cost() {
        let mut sim = sim_with_members(64, 2, WalkAccounting::Uncompensated);
        for s in 10..30u32 {
            sim.schedule_command(
                SimTime::from_millis(s as u64 * 10),
                NodeId::new(s),
                SubWalkCmd::Subscribe(TopicId::new(0)),
            );
        }
        sim.run_until(SimTime::from_secs(30));
        // Relays performed maintenance without credits: some non-member,
        // non-subscriber node must have positive contribution, zero benefit.
        let spec = crate::ledger::RatioSpec::topic_based();
        let unlucky = sim
            .nodes()
            .filter(|(id, _)| id.index() >= 30)
            .filter(|(_, p)| p.ledger().contribution(&spec) > 0.0)
            .count();
        assert!(unlucky > 0, "someone relayed");
        for (id, p) in sim.nodes() {
            if id.index() >= 30 {
                assert_eq!(p.ledger().benefit(&spec), 0.0, "{id} got no credit");
            }
        }
    }

    #[test]
    fn compensated_relays_keep_unit_ratio() {
        let mut sim = sim_with_members(64, 2, WalkAccounting::Compensated);
        for s in 10..30u32 {
            sim.schedule_command(
                SimTime::from_millis(s as u64 * 10),
                NodeId::new(s),
                SubWalkCmd::Subscribe(TopicId::new(0)),
            );
        }
        sim.run_until(SimTime::from_secs(30));
        let spec = crate::ledger::RatioSpec::topic_based();
        for (id, p) in sim.nodes() {
            if id.index() >= 30 && p.total_relayed() > 0 {
                let contribution = p.ledger().contribution(&spec);
                let benefit = p.ledger().benefit(&spec);
                assert_eq!(contribution, benefit, "{id} relay fully compensated");
            }
        }
        // And subscribers were billed.
        let billed = sim
            .nodes()
            .filter(|(id, _)| (10..30).contains(&id.index()))
            .any(|(_, p)| p.ledger().totals().maintenance_msgs > 0);
        assert!(billed, "subscribers pay for their walks");
    }

    #[test]
    fn unsubscribe_leaves_group_and_walks() {
        let mut sim = sim_with_members(32, 8, WalkAccounting::Uncompensated);
        let member = NodeId::new(2);
        sim.schedule_command(
            SimTime::ZERO,
            member,
            SubWalkCmd::Unsubscribe(TopicId::new(0)),
        );
        sim.run_until(SimTime::from_secs(10));
        let node = sim.node(member).unwrap();
        assert!(!node.memberships().contains(&TopicId::new(0)));
        assert_eq!(node.outcomes().len(), 1, "unsubscription walk completed");
        // Unsubscribing twice is a no-op.
        sim.schedule_command(
            SimTime::from_secs(11),
            member,
            SubWalkCmd::Unsubscribe(TopicId::new(0)),
        );
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(sim.node(member).unwrap().outcomes().len(), 1);
    }

    #[test]
    fn duplicate_subscribe_is_noop() {
        let mut sim = sim_with_members(32, 8, WalkAccounting::Uncompensated);
        let member = NodeId::new(0); // already a member
        sim.schedule_command(
            SimTime::ZERO,
            member,
            SubWalkCmd::Subscribe(TopicId::new(0)),
        );
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.node(member).unwrap().outcomes().is_empty());
    }
}
