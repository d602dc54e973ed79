//! The push gossip dissemination protocol — basic (paper Figure 4) and
//! fairness-adaptive (paper §5.2) in one implementation.
//!
//! Every 100 ms (`ROUND`) the node runs a **round**:
//!
//! 1. close the ledger window and update its own benefit/contribution rate
//!    estimates;
//! 2. if adaptation is enabled, update the fanout / message-size
//!    controllers from the gossip-aggregated population mean;
//! 3. pick `F` partners via `SELECTPARTICIPANTS` (the
//!    [`FullMembership`] oracle), select up to `N` buffered events via
//!    `SELECTEVENTS`, and push one gossip message to each partner.
//!
//! On receipt, an event is delivered iff `ISINTERESTED(e)` — the node's
//! [`Endpoint`] — and not yet delivered; *all* fresh events are
//! buffered and re-forwarded for `ttl_rounds` rounds regardless of local
//! interest. That unconditional forwarding is exactly the unfairness the
//! paper identifies: with a static fanout, an uninterested peer works as
//! hard as a heavy consumer. The adaptive controllers redistribute that
//! work in proportion to measured benefit.

use crate::adaptive::{Controller, ControllerConfig, GlobalRateEstimator, RateSample};
use crate::behavior::Behavior;
use crate::endpoint::{emit_event, Endpoint};
use crate::ledger::RatioSpec;
use fed_membership::swim::{
    SwimMsg, SwimObservation, SwimState, SwimUpdate, PROBE_PERIOD, PROBE_TIMEOUT,
};
use fed_membership::{FullMembership, PeerSampler};
use fed_pubsub::{Command, Event, EventBatch};
use fed_sim::{Context, HopKind, LocalIdSet, NodeId, Protocol, SimDuration};
use fed_util::hash::FastMap;
use fed_util::rng::Rng64;
use std::sync::Arc;

/// Gossip round period.
const ROUND: SimDuration = SimDuration::from_millis(100);
/// Timer token for the periodic gossip round.
const ROUND_TIMER: u64 = 1;
/// Timer token for the SWIM protocol period.
const SWIM_TICK_TIMER: u64 = 2;
/// Token namespace for SWIM direct-probe timeouts; low bits carry the
/// probe sequence number.
const SWIM_DIRECT_NS: u64 = 3 << 56;
/// Token namespace for SWIM indirect-probe timeouts.
const SWIM_INDIRECT_NS: u64 = 4 << 56;
/// Mask isolating a token's namespace.
const TOKEN_NS_MASK: u64 = 0xff << 56;
/// Smoothing for the population-mean estimator.
const ESTIMATOR_ALPHA: f64 = 0.05;
/// Smoothing for the node's own rate estimate.
const OWN_RATE_ALPHA: f64 = 0.2;

/// Configuration of a [`GossipNode`].
#[derive(Debug, Clone, PartialEq)]
pub struct GossipConfig {
    /// Fanout controller bounds/target (`target_mean` is the static fanout
    /// when adaptation is off).
    pub fanout: ControllerConfig,
    /// Events-per-message controller bounds/target.
    pub events_per_msg: ControllerConfig,
    /// Adapt the fanout to the benefit share (paper §5.2, Figure 3 left)?
    pub adapt_fanout: bool,
    /// Adapt the message size to the benefit share (Figure 3 right)?
    pub adapt_msg_size: bool,
    /// Rounds an event remains in the forwarding buffer.
    pub ttl_rounds: u32,
    /// Accounting rules for the fairness ratio.
    pub spec: RatioSpec,
    /// Gain of the lifetime-ratio correction term (0 disables it). With a
    /// positive gain, a peer whose lifetime contribution exceeds
    /// `κ̂ × lifetime benefit` throttles its fanout below the proportional
    /// share (and vice versa), driving the paper's Figure 1 ratio — which
    /// is defined over *totals* — toward equality.
    pub ratio_correction_gain: f64,
    /// Civic-minimum relay rate: a peer whose allocation rounds to zero
    /// still relays buffered events with this per-round probability. This
    /// is the floor that keeps the epidemic alive when an event's initial
    /// seeds all land on zero-benefit peers (robustness, §5.2 Q5).
    pub min_relay_rate: f64,
    /// Lifetime cap on civic-minimum work: civic relaying stops once the
    /// peer's contribution exceeds `κ̂ × benefit + civic_allowance`
    /// messages. This bounds the snapshot-ratio distortion a zero-benefit
    /// peer can accumulate to a constant, instead of letting it grow with
    /// stream length.
    pub civic_allowance: f64,
    /// In-protocol SWIM failure detection. When set, the node runs
    /// probe/ping-req/suspect/confirm rounds beside its gossip rounds and
    /// piggybacks membership updates on gossip pushes.
    pub swim: bool,
    /// Keep per-sender receipt counters and the last advertised claim for
    /// the audit ([`crate::audit`]). Off in every preset: no protocol
    /// decision reads them, and a push then touches no per-sender state.
    pub audit_receipts: bool,
}

impl GossipConfig {
    /// The classic static protocol of Figure 4: fixed fanout `f`, fixed
    /// message size `n_events`, no adaptation.
    pub fn classic(f: usize, n_events: usize) -> Self {
        GossipConfig {
            fanout: ControllerConfig::new(f as f64, f as f64, f as f64, 1.0),
            events_per_msg: ControllerConfig::new(
                n_events as f64,
                n_events as f64,
                n_events as f64,
                1.0,
            ),
            adapt_fanout: false,
            adapt_msg_size: false,
            ttl_rounds: 8,
            spec: RatioSpec::topic_based(),
            ratio_correction_gain: 0.0,
            min_relay_rate: 0.0,
            civic_allowance: 0.0,
            swim: false,
            audit_receipts: false,
        }
    }

    /// The fair protocol: same mean work, redistributed by benefit share.
    ///
    /// `f` and `n_events` become *population means*; individual nodes move
    /// inside `[1, 4f]` and `[1, 4n]` respectively.
    pub fn fair(f: usize, n_events: usize) -> Self {
        GossipConfig {
            // Zero floor + stochastic rounding: a peer whose fair share is
            // zero stops forwarding entirely; the benefit-weighted majority
            // carries the epidemic (paper §5.2 Q3 — the fanout requirement
            // is on the population sum, not on each individual peer).
            fanout: ControllerConfig::new(f as f64, 0.0, 4.0 * f as f64, 0.5),
            events_per_msg: ControllerConfig::new(n_events as f64, 1.0, 4.0 * n_events as f64, 0.5),
            adapt_fanout: true,
            adapt_msg_size: false,
            ttl_rounds: 8,
            spec: RatioSpec::topic_based(),
            ratio_correction_gain: 0.05,
            min_relay_rate: 0.25,
            civic_allowance: 2.0 * f as f64,
            swim: false,
            audit_receipts: false,
        }
    }

    /// Fair protocol adapting both knobs with expressive (byte) accounting
    /// — the full Figure 3 configuration.
    pub fn fair_expressive(f: usize, n_events: usize) -> Self {
        let mut cfg = Self::fair(f, n_events);
        cfg.adapt_msg_size = true;
        cfg.spec = RatioSpec::expressive();
        cfg
    }
}

/// Wire messages.
#[derive(Debug, Clone)]
pub enum GossipMsg {
    /// A gossip push: events plus the fairness piggyback.
    Push {
        /// Batch of events, shared by every push of the sender's round.
        events: Arc<EventBatch>,
        /// Sender's advertised windowed rates (see
        /// [`crate::adaptive`]).
        sample: RateSample,
        /// SWIM membership updates piggybacked on dissemination traffic
        /// (empty when the detector is off).
        swim: Vec<SwimUpdate>,
    },
    /// SWIM failure-detector traffic (probes, relays, acks).
    Swim(SwimMsg),
}

/// What a node remembers about one sender, for the audit protocol.
#[derive(Debug, Clone, Copy)]
struct PeerRecord {
    /// Pushes received from the sender.
    msgs: u64,
    /// This node's round count at the first of them.
    since_round: u64,
    /// The sender's most recently advertised rates.
    claim: RateSample,
}

/// One buffered event with its remaining forwarding budget.
#[derive(Debug, Clone)]
struct Buffered {
    event: Event,
    ttl: u32,
}

/// A push-gossip dissemination node (Figure 4 + §5.2 adaptation).
///
/// Partners are drawn uniformly from the whole system by a
/// [`FullMembership`] oracle, the node's `SELECTPARTICIPANTS(F)`.
#[derive(Debug)]
pub struct GossipNode {
    id: NodeId,
    config: GossipConfig,
    members: FullMembership,
    endpoint: Endpoint,
    buffer: Vec<Buffered>,
    /// Every event ever accepted, over the kernel's numbering.
    seen: LocalIdSet,
    estimator: GlobalRateEstimator,
    fanout_ctl: Controller,
    size_ctl: Controller,
    own_rates: RateSample,
    behavior: Behavior,
    rounds: u64,
    duplicates: u64,
    /// Per-sender receipt counters and last claim (audit evidence); stays
    /// empty, and unallocated, unless `config.audit_receipts` is set.
    peers: FastMap<NodeId, PeerRecord>,
    /// SWIM failure detector, created in `on_init` when configured.
    swim: Option<SwimState>,
}

impl GossipNode {
    /// Creates node `id` of a system of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(id: NodeId, n: usize, config: GossipConfig) -> Self {
        // Prior mean benefit 0: a cold system reports no deliveries, which
        // makes the controllers fall back to the classic target fanout
        // until a real benefit signal propagates (bootstrap = Figure 4
        // behaviour, adaptation phases in smoothly).
        let estimator = GlobalRateEstimator::new(ESTIMATOR_ALPHA, 0.0);
        let fanout_ctl = Controller::new(config.fanout);
        let size_ctl = Controller::new(config.events_per_msg);
        GossipNode {
            id,
            config,
            members: FullMembership::new(id, n),
            endpoint: Endpoint::new(),
            buffer: Vec::new(),
            seen: LocalIdSet::default(),
            estimator,
            fanout_ctl,
            size_ctl,
            own_rates: RateSample::default(),
            behavior: Behavior::Honest,
            rounds: 0,
            duplicates: 0,
            peers: FastMap::default(),
            swim: None,
        }
    }

    /// Creates a node with a non-honest behaviour model.
    pub fn with_behavior(id: NodeId, n: usize, config: GossipConfig, behavior: Behavior) -> Self {
        let mut node = Self::new(id, n, config);
        node.behavior = behavior;
        node
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The subscriber side: subscriptions, fairness ledger, delivery log.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The subscriber side, taken out of the finished node.
    pub fn into_endpoint(self) -> Endpoint {
        self.endpoint
    }

    /// The lifetime contribution/benefit ratio under the node's spec.
    pub fn ratio(&self) -> f64 {
        self.endpoint.ledger().ratio(&self.config.spec)
    }

    /// Current fanout allocation.
    pub fn fanout(&self) -> usize {
        self.fanout_ctl.value_rounded()
    }

    /// Current events-per-message allocation.
    pub fn events_per_msg(&self) -> usize {
        self.size_ctl.value_rounded()
    }

    /// Completed gossip rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Redundant event receipts (overhead metric).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// The node's current estimate of the population mean benefit rate.
    pub fn estimated_mean_benefit(&self) -> f64 {
        self.estimator.mean_benefit()
    }

    /// The node's smoothed own rates (what it advertises when honest).
    pub fn own_rates(&self) -> RateSample {
        self.own_rates
    }

    /// The behaviour model.
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// Receipt counter snapshot for `peer`: `(messages, since_round)`.
    /// Always `None` unless [`GossipConfig::audit_receipts`] is set.
    pub fn receipts_from(&self, peer: NodeId) -> Option<(u64, u64)> {
        self.peers.get(&peer).map(|r| (r.msgs, r.since_round))
    }

    /// Last advertised rate sample seen from `peer`. Always `None` unless
    /// [`GossipConfig::audit_receipts`] is set.
    pub fn claim_of(&self, peer: NodeId) -> Option<RateSample> {
        self.peers.get(&peer).map(|r| r.claim)
    }

    /// The SWIM observation log (empty when the detector is off).
    pub fn swim_observations(&self) -> Vec<SwimObservation> {
        self.swim
            .as_ref()
            .map(|s| s.observations().to_vec())
            .unwrap_or_default()
    }

    fn accept_event(&mut self, ctx: &mut Context<'_, GossipMsg>, event: &Event) {
        let id = ctx.local_id(event.id().as_u64());
        if !self.seen.insert(id) {
            self.duplicates += 1;
            return;
        }
        self.endpoint.offer(event, id, ctx.now());
        self.buffer.push(Buffered {
            event: event.clone(),
            ttl: self.config.ttl_rounds,
        });
    }

    /// Pushes one shared batch to each of `partners`, charging the ledger
    /// per message.
    fn push_to(
        &mut self,
        ctx: &mut Context<'_, GossipMsg>,
        partners: Vec<NodeId>,
        events: Arc<EventBatch>,
    ) {
        let sample = self.behavior.advertise(RateSample {
            benefit_rate: self.own_rates.benefit_rate,
            contribution_rate: self.own_rates.contribution_rate,
            benefit_total: self.endpoint.ledger().benefit(&self.config.spec),
            contribution_total: self.endpoint.ledger().contribution(&self.config.spec),
        });
        for peer in partners {
            let swim = match &mut self.swim {
                Some(s) => s.outgoing_piggyback(),
                None => Vec::new(),
            };
            let bytes = push_size(&events, swim.len());
            ctx.send(
                peer,
                GossipMsg::Push {
                    events: Arc::clone(&events),
                    sample,
                    swim,
                },
            );
            self.endpoint.ledger_mut().record_forward(bytes);
        }
    }

    fn run_round(&mut self, ctx: &mut Context<'_, GossipMsg>) {
        // 1. Close the accounting window and refresh own rate estimates.
        // The *control* benefit rate is deliveries (+ maintenance credits)
        // only: standing filters appear in the measured Fig.-2 ratio as a
        // one-off benefit, so feeding them into the per-round rate would
        // allocate zero-traffic subscribers perpetual work their snapshot
        // benefit can never absorb.
        self.endpoint.ledger_mut().roll_window();
        let ledger = self.endpoint.ledger();
        let spec = self.config.spec;
        let window = ledger.last_window();
        let wb = (window.delivered_events + window.maintenance_credits) as f64;
        let wc = ledger.window_contribution(&spec);
        let a = OWN_RATE_ALPHA;
        self.own_rates.benefit_rate += a * (wb - self.own_rates.benefit_rate);
        self.own_rates.contribution_rate += a * (wc - self.own_rates.contribution_rate);

        // 2. Update controllers from the aggregated population view:
        // proportional share plus the lifetime-ratio correction.
        if self.config.adapt_fanout {
            let proportional = self.fanout_ctl.proportional_allocation(
                self.own_rates.benefit_rate,
                self.estimator.mean_benefit(),
            );
            let kappa = self.estimator.lifetime_ratio(1e-6);
            let excess = ledger.contribution(&spec) - kappa * ledger.benefit(&spec);
            let allocation = proportional - self.config.ratio_correction_gain * excess;
            self.fanout_ctl.steer(allocation);
        }
        if self.config.adapt_msg_size {
            self.size_ctl
                .update(self.own_rates.benefit_rate, self.estimator.mean_benefit());
        }
        self.behavior
            .shape_controllers(&mut self.fanout_ctl, &mut self.size_ctl);

        // 3. SELECTPARTICIPANTS(F) and SELECTEVENTS(N in events).
        let mut fanout = if self.config.adapt_fanout {
            self.fanout_ctl.sample_discrete(ctx.rng())
        } else {
            self.fanout_ctl.value_rounded()
        };
        // Civic minimum: fully throttled peers holding live events still
        // relay occasionally so an epidemic cannot be strangled at birth —
        // but only within the civic allowance, so the donated work stays a
        // bounded constant per peer.
        if fanout == 0 && !self.buffer.is_empty() && self.config.min_relay_rate > 0.0 {
            let kappa = self.estimator.lifetime_ratio(1e-6);
            let budget = kappa * ledger.benefit(&spec) + self.config.civic_allowance;
            if ledger.contribution(&spec) < budget
                && ctx.rng().bernoulli(self.config.min_relay_rate)
            {
                fanout = 1;
            }
        }
        let n_events = self.size_ctl.value_rounded();
        let partners = self.members.sample_peers(ctx.rng(), fanout);
        if !partners.is_empty() && !self.buffer.is_empty() {
            let k = n_events.min(self.buffer.len());
            let picked = ctx.rng().sample_indices(self.buffer.len(), k);
            let events: EventBatch = picked
                .into_iter()
                .map(|i| self.buffer[i].event.clone())
                .collect();
            self.push_to(ctx, partners, Arc::new(events));
        }

        // 4. Age the buffer.
        for b in &mut self.buffer {
            b.ttl = b.ttl.saturating_sub(1);
        }
        self.buffer.retain(|b| b.ttl > 0);
        self.rounds += 1;
    }
}

impl Protocol for GossipNode {
    type Msg = GossipMsg;
    type Cmd = Command;

    fn on_init(&mut self, ctx: &mut Context<'_, GossipMsg>) {
        // Jittered first round desynchronizes the population.
        let jitter = ctx.rng().range_u64(ROUND.as_micros());
        ctx.set_timer(SimDuration::from_micros(jitter), ROUND_TIMER);
        if self.config.swim {
            // Fresh detector per (re)start: a rejoining node begins with a
            // clean view and converges via dissemination + contact revival.
            self.swim = Some(SwimState::new(self.id, ctx.system_size()));
            let sj = ctx.rng().range_u64(PROBE_PERIOD.as_micros());
            ctx.set_timer(SimDuration::from_micros(sj), SWIM_TICK_TIMER);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, GossipMsg>, from: NodeId, msg: GossipMsg) {
        match msg {
            GossipMsg::Push {
                events,
                sample,
                swim,
            } => {
                self.estimator.observe(sample);
                if self.config.audit_receipts {
                    let record = self.peers.entry(from).or_insert(PeerRecord {
                        msgs: 0,
                        since_round: self.rounds,
                        claim: sample,
                    });
                    record.msgs += 1;
                    record.claim = sample;
                }
                if let Some(detector) = &mut self.swim {
                    detector.absorb_piggyback(ctx.now(), from, &swim);
                }
                for event in events.events() {
                    self.accept_event(ctx, event);
                }
            }
            GossipMsg::Swim(m) => {
                if let Some(detector) = &mut self.swim {
                    for (to, reply) in detector.on_message(ctx.now(), from, m) {
                        ctx.send(to, GossipMsg::Swim(reply));
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, GossipMsg>, token: u64) {
        match token {
            ROUND_TIMER => {
                self.run_round(ctx);
                ctx.set_timer(ROUND, ROUND_TIMER);
            }
            SWIM_TICK_TIMER => {
                if !self.config.swim {
                    return;
                }
                if let Some(detector) = &mut self.swim {
                    let now = ctx.now();
                    let tick = detector.on_tick(now, ctx.rng());
                    for (to, m) in tick.msgs {
                        ctx.send(to, GossipMsg::Swim(m));
                    }
                    if let Some(seq) = tick.probe_seq {
                        ctx.set_timer(PROBE_TIMEOUT, SWIM_DIRECT_NS | seq);
                    }
                }
                ctx.set_timer(PROBE_PERIOD, SWIM_TICK_TIMER);
            }
            t if t & TOKEN_NS_MASK == SWIM_DIRECT_NS => {
                if let Some(detector) = &mut self.swim {
                    let seq = t & !TOKEN_NS_MASK;
                    let relays = detector.on_probe_timeout(ctx.now(), ctx.rng(), seq);
                    if !relays.is_empty() {
                        for (to, m) in relays {
                            ctx.send(to, GossipMsg::Swim(m));
                        }
                        ctx.set_timer(PROBE_TIMEOUT, SWIM_INDIRECT_NS | seq);
                    }
                }
            }
            t if t & TOKEN_NS_MASK == SWIM_INDIRECT_NS => {
                if let Some(detector) = &mut self.swim {
                    detector.on_indirect_timeout(ctx.now(), t & !TOKEN_NS_MASK);
                }
            }
            other => debug_assert!(false, "unknown timer token {other}"),
        }
    }

    fn on_command(&mut self, ctx: &mut Context<'_, GossipMsg>, cmd: Command) {
        match cmd {
            Command::Publish(event) => {
                self.endpoint.published(&event);
                self.accept_event(ctx, &event);
                // Seed the epidemic immediately: the publisher pushes the
                // fresh event to `2 × target_mean` random peers at its own
                // expense. Without this, a publisher whose fair-share
                // fanout is (near) zero would sit on its own events — the
                // paper's accounting explicitly charges publishers for the
                // messages they originate (Fig. 2), so the seed cost lands
                // on the right ledger. The doubled width makes the launch
                // robust even when most of the population is uninterested
                // (and therefore throttled): the chance that no benefit-
                // funded peer receives a seed decays exponentially in the
                // seed fanout.
                let seed_fanout = (2.0 * self.config.fanout.target_mean).round().max(1.0) as usize;
                let peers = self.members.sample_peers(ctx.rng(), seed_fanout);
                self.push_to(ctx, peers, Arc::new(EventBatch::from_iter([event])));
            }
            Command::Subscribe(topic) => self.endpoint.subscribe_topic(topic),
            Command::Unsubscribe(topic) => self.endpoint.unsubscribe_topic(topic),
        }
    }

    fn message_size(msg: &GossipMsg) -> usize {
        match msg {
            GossipMsg::Push { events, swim, .. } => push_size(events, swim.len()),
            GossipMsg::Swim(m) => m.wire_size(),
        }
    }

    fn trace_payload(msg: &GossipMsg, emit: &mut dyn FnMut(u64, u32, u32, HopKind)) {
        // SWIM traffic is control plane; only pushes carry events.
        if let GossipMsg::Push { events, .. } = msg {
            for e in events.events() {
                emit_event(emit, e, HopKind::GossipPush);
            }
        }
    }
}

/// Wire size of a push message: header + piggybacks + event payloads.
fn push_size(events: &EventBatch, swim_updates: usize) -> usize {
    8 + RateSample::WIRE_BYTES
        + events.size_bytes()
        + swim_updates * fed_membership::swim::SWIM_UPDATE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_pubsub::{EventId, TopicId};
    use fed_sim::exec::{seed_streams, EffectSink, EventKey, EventKind, Kernel, EXTERNAL_SRC};
    use fed_sim::network::{LatencyModel, NetworkModel};
    use fed_sim::{SimTime, Simulation};

    fn net(ms: u64) -> NetworkModel {
        NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(ms)))
    }

    fn classic_config(fanout: usize) -> GossipConfig {
        GossipConfig::classic(fanout, 16)
    }

    fn classic_sim(n: usize, fanout: usize, seed: u64) -> Simulation<GossipNode> {
        let cfg = classic_config(fanout);
        Simulation::new(n, net(10), seed, move |id, _| {
            GossipNode::new(id, n, cfg.clone())
        })
    }

    fn everyone_subscribes(sim: &mut Simulation<GossipNode>, topic: TopicId) {
        for i in 0..sim.len() {
            sim.schedule_command(
                SimTime::ZERO,
                NodeId::new(i as u32),
                Command::Subscribe(topic),
            );
        }
    }

    #[test]
    fn event_reaches_all_interested_nodes() {
        let n = 64;
        let mut sim = classic_sim(n, 5, 42);
        let topic = TopicId::new(0);
        everyone_subscribes(&mut sim, topic);
        let event = Event::bare(EventId::new(0, 1), topic);
        sim.schedule_command(
            SimTime::from_millis(200),
            NodeId::new(0),
            Command::Publish(event.clone()),
        );
        sim.run_until(SimTime::from_secs(5));
        let delivered = sim
            .nodes()
            .filter(|(_, p)| p.endpoint().deliveries().contains(event.id()))
            .count();
        assert_eq!(delivered, n, "atomic delivery expected with fanout 5");
    }

    #[test]
    fn uninterested_nodes_never_deliver_but_forward() {
        let n = 32;
        let mut sim = classic_sim(n, 4, 7);
        // Only even nodes subscribe.
        for i in (0..n).step_by(2) {
            sim.schedule_command(
                SimTime::ZERO,
                NodeId::new(i as u32),
                Command::Subscribe(TopicId::new(0)),
            );
        }
        let event = Event::bare(EventId::new(1, 1), TopicId::new(0));
        sim.schedule_command(
            SimTime::from_millis(150),
            NodeId::new(1),
            Command::Publish(event.clone()),
        );
        sim.run_until(SimTime::from_secs(5));
        for (id, node) in sim.nodes() {
            if id.index() % 2 == 0 {
                assert!(
                    node.endpoint().deliveries().contains(event.id()),
                    "{id} interested"
                );
            } else {
                assert!(
                    !node.endpoint().deliveries().contains(event.id()),
                    "{id} not interested"
                );
            }
        }
        // Odd (uninterested) nodes still forwarded: that is the unfairness.
        let odd_forwards: u64 = sim
            .nodes()
            .filter(|(id, _)| id.index() % 2 == 1)
            .map(|(_, p)| p.endpoint().ledger().totals().forwarded_msgs)
            .sum();
        assert!(odd_forwards > 0, "uninterested peers still do gossip work");
    }

    #[test]
    fn publisher_delivers_own_interesting_event() {
        let mut sim = classic_sim(4, 2, 3);
        let topic = TopicId::new(0);
        everyone_subscribes(&mut sim, topic);
        let event = Event::bare(EventId::new(0, 9), topic);
        sim.schedule_command(
            SimTime::from_millis(100),
            NodeId::new(0),
            Command::Publish(event.clone()),
        );
        sim.run_until(SimTime::from_millis(120));
        assert!(sim
            .node(NodeId::new(0))
            .unwrap()
            .endpoint()
            .deliveries()
            .contains(event.id()));
    }

    #[test]
    fn no_duplicate_deliveries() {
        let n = 24;
        let mut sim = classic_sim(n, 6, 11);
        everyone_subscribes(&mut sim, TopicId::new(0));
        for k in 0..5u32 {
            sim.schedule_command(
                SimTime::from_millis(100 + k as u64 * 50),
                NodeId::new(k),
                Command::Publish(Event::bare(EventId::new(k, 1), TopicId::new(0))),
            );
        }
        sim.run_until(SimTime::from_secs(4));
        for (_, node) in sim.nodes() {
            assert_eq!(
                node.endpoint().deliveries().len(),
                5,
                "each event delivered once"
            );
            assert_eq!(node.endpoint().ledger().totals().delivered_events, 5);
        }
    }

    #[test]
    fn ttl_expires_events_from_buffer() {
        let mut cfg = GossipConfig::classic(2, 8);
        cfg.ttl_rounds = 2;
        let mut sim: Simulation<GossipNode> = Simulation::new(8, net(5), 5, move |id, _| {
            GossipNode::new(id, 8, cfg.clone())
        });
        sim.schedule_command(
            SimTime::from_millis(60),
            NodeId::new(0),
            Command::Publish(Event::bare(EventId::new(0, 1), TopicId::new(0))),
        );
        sim.run_until(SimTime::from_secs(3));
        for (_, node) in sim.nodes() {
            assert!(node.buffer.is_empty(), "buffers must drain after TTL");
        }
        // Traffic stops once the event expires everywhere: check the last
        // second produced no event-bearing messages by sampling stats.
        let sent_before: u64 = sim.transport_stats_all().iter().map(|s| s.msgs_sent).sum();
        sim.run_until(SimTime::from_secs(4));
        let sent_after: u64 = sim.transport_stats_all().iter().map(|s| s.msgs_sent).sum();
        assert_eq!(sent_before, sent_after, "no gossip without fresh events");
    }

    #[test]
    fn subscriptions_update_filter_count() {
        let mut sim = classic_sim(2, 1, 1);
        let id = NodeId::new(0);
        sim.schedule_command(SimTime::ZERO, id, Command::Subscribe(TopicId::new(1)));
        sim.schedule_command(SimTime::ZERO, id, Command::Subscribe(TopicId::new(2)));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(
            sim.node(id).unwrap().endpoint().ledger().active_filters(),
            2
        );
        for topic in [1, 2] {
            sim.schedule_command(
                SimTime::from_millis(20),
                id,
                Command::Unsubscribe(TopicId::new(topic)),
            );
        }
        sim.run_until(SimTime::from_millis(30));
        assert_eq!(
            sim.node(id).unwrap().endpoint().ledger().active_filters(),
            0
        );
        assert!(sim.node(id).unwrap().endpoint().subscriptions().is_empty());
    }

    #[test]
    fn static_config_never_moves_knobs() {
        let n = 16;
        let mut sim = classic_sim(n, 3, 13);
        everyone_subscribes(&mut sim, TopicId::new(0));
        for k in 0..20u32 {
            sim.schedule_command(
                SimTime::from_millis(100 * k as u64),
                NodeId::new(k % n as u32),
                Command::Publish(Event::bare(EventId::new(k, 1), TopicId::new(0))),
            );
        }
        sim.run_until(SimTime::from_secs(5));
        for (_, node) in sim.nodes() {
            assert_eq!(node.fanout(), 3);
            assert_eq!(node.events_per_msg(), 16);
        }
    }

    #[test]
    fn adaptive_fanout_tracks_benefit_share() {
        // Node 0 subscribes to everything; others to nothing. With steady
        // publications the fair protocol should push node 0's fanout above
        // the mean and everyone else's to the floor.
        let n = 16;
        let cfg = GossipConfig::fair(4, 16);
        let mut sim: Simulation<GossipNode> = Simulation::new(n, net(10), 21, move |id, _| {
            GossipNode::new(id, n, cfg.clone())
        });
        sim.schedule_command(
            SimTime::ZERO,
            NodeId::new(0),
            Command::Subscribe(TopicId::new(0)),
        );
        // steady stream of events from node 1
        for k in 0..200u32 {
            sim.schedule_command(
                SimTime::from_millis(100 * k as u64),
                NodeId::new(1),
                Command::Publish(Event::bare(EventId::new(1, k), TopicId::new(0))),
            );
        }
        sim.run_until(SimTime::from_secs(25));
        // The benefiting node must end up carrying a disproportionate share
        // of the forwarding work; uninterested peers get throttled by the
        // lifetime-ratio correction.
        let w0 = sim
            .node(NodeId::new(0))
            .unwrap()
            .endpoint()
            .ledger()
            .totals()
            .forwarded_msgs;
        let w_others: Vec<u64> = sim
            .nodes()
            .filter(|(id, _)| id.index() >= 2)
            .map(|(_, p)| p.endpoint().ledger().totals().forwarded_msgs)
            .collect();
        let avg_others = w_others.iter().sum::<u64>() as f64 / w_others.len() as f64;
        assert!(
            w0 as f64 > 2.0 * avg_others,
            "interested node forwarded {w0} vs uninterested average {avg_others}"
        );
    }

    #[test]
    fn duplicates_are_counted_not_redelivered() {
        let n = 8;
        let mut sim = classic_sim(n, 7, 17);
        everyone_subscribes(&mut sim, TopicId::new(0));
        sim.schedule_command(
            SimTime::from_millis(100),
            NodeId::new(0),
            Command::Publish(Event::bare(EventId::new(0, 1), TopicId::new(0))),
        );
        sim.run_until(SimTime::from_secs(3));
        let dupes: u64 = sim.nodes().map(|(_, p)| p.duplicates()).sum();
        assert!(dupes > 0, "fanout 7 in n=8 must produce redundancy");
        for (_, node) in sim.nodes() {
            assert_eq!(node.endpoint().deliveries().len(), 1);
        }
    }

    #[test]
    fn message_size_accounts_events_and_piggyback() {
        use fed_membership::swim::{SwimStatus, SWIM_UPDATE_BYTES};
        let e = Event::new(EventId::new(0, 0), TopicId::new(0), 100);
        let update = SwimUpdate {
            subject: NodeId::new(1),
            incarnation: 0,
            status: SwimStatus::Alive,
        };
        let msg = GossipMsg::Push {
            events: Arc::new(EventBatch::from_iter([e.clone(), e])),
            sample: RateSample::default(),
            swim: vec![update; 3],
        };
        let expect = 8 + RateSample::WIRE_BYTES + 2 * (16 + 100) + 3 * SWIM_UPDATE_BYTES;
        assert_eq!(GossipNode::message_size(&msg), expect);
    }

    /// Effects of hand-dispatched events, in emission order.
    struct Captured(Vec<EventKind<GossipNode>>);

    impl EffectSink<GossipNode> for Captured {
        fn emit(&mut self, _key: EventKey, kind: EventKind<GossipNode>) {
            self.0.push(kind);
        }
    }

    impl Captured {
        /// Takes the batches of the pushes captured so far.
        fn take_pushes(&mut self) -> Vec<Arc<EventBatch>> {
            std::mem::take(&mut self.0)
                .into_iter()
                .filter_map(|kind| match kind {
                    EventKind::Deliver {
                        msg: GossipMsg::Push { events, .. },
                        ..
                    } => Some(events),
                    _ => None,
                })
                .collect()
        }
    }

    fn factory(
        n: usize,
        cfg: &GossipConfig,
    ) -> impl FnMut(NodeId, &mut fed_util::rng::Xoshiro256StarStar) -> GossipNode + '_ {
        move |id, _| GossipNode::new(id, n, cfg.clone())
    }

    /// A kernel of `n` nodes driven one event at a time.
    struct Rig {
        kernel: Kernel<GossipNode>,
        sink: Captured,
        n: usize,
        cfg: GossipConfig,
        seq: u64,
    }

    impl Rig {
        /// `n` classic nodes with the audit evidence off.
        fn new(n: usize, fanout: usize) -> Self {
            Self::with_config(n, classic_config(fanout))
        }

        /// `n` classic nodes that keep the audit evidence.
        fn audited(n: usize, fanout: usize) -> Self {
            Self::with_config(
                n,
                GossipConfig {
                    audit_receipts: true,
                    ..classic_config(fanout)
                },
            )
        }

        fn with_config(n: usize, cfg: GossipConfig) -> Self {
            let mut sink = Captured(Vec::new());
            let kernel = Kernel::new(
                n,
                (0..n as u32).collect(),
                seed_streams(9, n),
                net(10),
                &mut factory(n, &cfg),
                &mut sink,
            );
            sink.0.clear(); // the nodes' first round timers
            Rig {
                kernel,
                sink,
                n,
                cfg,
                seq: 0,
            }
        }

        fn dispatch(&mut self, kind: EventKind<GossipNode>) {
            self.seq += 1;
            let key = EventKey {
                time: SimTime::from_millis(self.seq),
                src: EXTERNAL_SRC,
                seq: self.seq,
            };
            self.kernel.dispatch_with(
                key,
                kind,
                &mut factory(self.n, &self.cfg),
                &mut self.sink,
                &mut (),
            );
        }

        fn round(&mut self, node: NodeId) {
            self.dispatch(EventKind::Timer {
                node,
                token: ROUND_TIMER,
                incarnation: 0,
            });
        }

        fn node(&self, id: NodeId) -> &GossipNode {
            self.kernel.node(id).expect("owned")
        }
    }

    #[test]
    fn a_round_shares_one_batch_across_its_pushes() {
        let fanout = 5;
        let mut rig = Rig::new(32, fanout);
        let publisher = NodeId::new(0);
        for k in 0..3 {
            rig.dispatch(EventKind::Command {
                node: publisher,
                cmd: Command::Publish(Event::bare(EventId::new(0, k), TopicId::new(0))),
            });
            let seeds = rig.sink.take_pushes();
            assert_eq!(seeds.len(), 2 * fanout, "seed fanout is twice the mean");
            assert!(seeds.iter().all(|e| Arc::ptr_eq(e, &seeds[0])));
            assert_eq!(seeds[0].len(), 1);
        }
        rig.round(publisher);
        let pushes = rig.sink.take_pushes();
        assert_eq!(pushes.len(), fanout);
        assert!(pushes.iter().all(|e| Arc::ptr_eq(e, &pushes[0])));
        assert_eq!(pushes[0].len(), 3, "the round batches the whole buffer");
        assert_eq!(
            rig.node(publisher)
                .endpoint()
                .ledger()
                .totals()
                .forwarded_msgs,
            (3 * 2 * fanout + fanout) as u64
        );
    }

    #[test]
    fn a_batch_received_twice_is_all_duplicates() {
        let mut rig = Rig::new(8, 3);
        let (sender, receiver) = (NodeId::new(0), NodeId::new(1));
        let events: Arc<EventBatch> = Arc::new(
            (0..6)
                .map(|k| Event::bare(EventId::new(0, k), TopicId::new(0)))
                .collect(),
        );
        let push = || EventKind::Deliver {
            to: receiver,
            from: sender,
            msg: GossipMsg::Push {
                events: Arc::clone(&events),
                sample: RateSample::default(),
                swim: vec![],
            },
        };
        rig.dispatch(push());
        assert_eq!(rig.node(receiver).duplicates(), 0);
        assert_eq!(rig.node(receiver).buffer.len(), events.len());
        rig.dispatch(push());
        assert_eq!(rig.node(receiver).duplicates(), events.len() as u64);
        assert_eq!(rig.node(receiver).buffer.len(), events.len());
        assert_eq!(rig.node(receiver).seen.len(), events.len());
    }

    #[test]
    fn receipts_keep_first_round_and_last_claim() {
        let mut rig = Rig::audited(4, 2);
        let (sender, receiver) = (NodeId::new(2), NodeId::new(1));
        let push = |benefit_rate: f64| EventKind::Deliver {
            to: receiver,
            from: sender,
            msg: GossipMsg::Push {
                events: Arc::new(EventBatch::from_iter([])),
                sample: RateSample {
                    benefit_rate,
                    ..RateSample::default()
                },
                swim: vec![],
            },
        };
        assert_eq!(rig.node(receiver).receipts_from(sender), None);
        assert_eq!(rig.node(receiver).claim_of(sender), None);
        rig.round(receiver);
        rig.dispatch(push(1.0));
        rig.round(receiver);
        rig.round(receiver);
        rig.dispatch(push(7.0));
        let node = rig.node(receiver);
        assert_eq!(node.rounds(), 3);
        assert_eq!(
            node.receipts_from(sender),
            Some((2, 1)),
            "two messages, counted since the round of the first"
        );
        assert_eq!(node.claim_of(sender).map(|c| c.benefit_rate), Some(7.0));
        assert_eq!(node.receipts_from(NodeId::new(3)), None);
    }

    #[test]
    fn audit_off_keeps_no_per_sender_state() {
        let senders = 1_000u32;
        let mut rig = Rig::new(senders as usize + 1, 2);
        let receiver = NodeId::new(senders);
        for s in 0..senders {
            rig.dispatch(EventKind::Deliver {
                to: receiver,
                from: NodeId::new(s),
                msg: GossipMsg::Push {
                    events: Arc::new(EventBatch::from_iter([Event::bare(
                        EventId::new(s, 0),
                        TopicId::new(0),
                    )])),
                    sample: RateSample {
                        contribution_total: 5.0,
                        ..RateSample::default()
                    },
                    swim: vec![],
                },
            });
        }
        let node = rig.node(receiver);
        assert_eq!(node.buffer.len(), senders as usize, "every push was taken");
        for s in 0..senders {
            assert_eq!(node.receipts_from(NodeId::new(s)), None);
            assert_eq!(node.claim_of(NodeId::new(s)), None);
        }
        assert_eq!(node.peers.capacity(), 0, "no per-sender table allocated");
    }

    #[test]
    fn swim_detects_a_crashed_node() {
        let n = 16;
        let cfg = GossipConfig {
            swim: true,
            ..GossipConfig::classic(4, 16)
        };
        let mut sim: Simulation<GossipNode> = Simulation::new(n, net(10), 31, move |id, _| {
            GossipNode::new(id, n, cfg.clone())
        });
        let victim = NodeId::new(3);
        sim.schedule_crash(SimTime::from_secs(5), victim);
        sim.run_until(SimTime::from_secs(30));
        // Every surviving node eventually confirms the victim dead, and
        // nobody confirms anyone else.
        for (id, node) in sim.nodes() {
            if id == victim {
                continue;
            }
            let swim = node.swim.as_ref().expect("detector enabled");
            assert!(swim.is_dead(victim), "{id} must confirm {victim} dead");
            for other in 0..n {
                let other = NodeId::new(other as u32);
                if other != victim && other != id {
                    assert!(!swim.is_dead(other), "{id} wrongly killed {other}");
                }
            }
        }
    }

    #[test]
    fn swim_disabled_runs_without_detector_traffic() {
        let mut sim = classic_sim(8, 3, 77);
        everyone_subscribes(&mut sim, TopicId::new(0));
        sim.run_until(SimTime::from_secs(2));
        for (_, node) in sim.nodes() {
            assert!(node.swim.as_ref().is_none());
            assert!(node.swim_observations().is_empty());
        }
    }

    #[test]
    fn receipts_and_claims_tracked() {
        let n = 4;
        let cfg = GossipConfig {
            audit_receipts: true,
            ..classic_config(3)
        };
        let mut sim: Simulation<GossipNode> = Simulation::new(n, net(10), 23, move |id, _| {
            GossipNode::new(id, n, cfg.clone())
        });
        everyone_subscribes(&mut sim, TopicId::new(0));
        sim.schedule_command(
            SimTime::from_millis(100),
            NodeId::new(0),
            Command::Publish(Event::bare(EventId::new(0, 1), TopicId::new(0))),
        );
        sim.run_until(SimTime::from_secs(2));
        // someone must have received from node 0 and recorded its claim
        let tracked = sim.nodes().filter(|(id, _)| id.index() != 0).any(|(_, p)| {
            p.receipts_from(NodeId::new(0)).is_some() && p.claim_of(NodeId::new(0)).is_some()
        });
        assert!(tracked);
    }
}
