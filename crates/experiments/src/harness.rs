//! Shared experiment harness: scenario → simulation → audit.
//!
//! Scenario descriptions live in [`fed_workload::scenario::ScenarioSpec`];
//! this module wires a materialized spec into either engine — the
//! sequential [`Simulation`] or the sharded [`ShardedSimulation`] — for
//! *any* architecture the spec selects, and audits the outcome.
//!
//! Two layers:
//!
//! * **The gossip-specific builder** ([`GossipRun::build`], or
//!   [`build_gossip_spec`] for the sequential engine) keeps the
//!   protocol's knobs open ([`GossipConfig`], per-node [`Behavior`]) for
//!   the experiments that study the fair protocol itself.
//! * **The architecture-generic runner** ([`run_architecture`]) executes
//!   whatever [`Architecture`] the spec names — fair/static gossip or any
//!   of the structured baselines — on either engine and returns an
//!   engine-agnostic [`ArchOutcome`]. Every node type plugs in through
//!   [`ArchProtocol`], which phrases the workload as commands and reads
//!   the observables (delivery log, fairness ledger) back out.
//!
//! Both layers are generic over the [`Engine`] seam — build, schedule,
//! run observed, read back — so each has one body, and for the same spec
//! the results are bit-for-bit comparable regardless of engine or shard
//! count — asserted by the `cross_engine` integration tests.

use fed_baselines::broker::{BrokerCmd, BrokerNode};
use fed_baselines::common::DeliveryLog;
use fed_baselines::dam::{DamCmd, DamConfig, DamNode, GroupTable};
use fed_baselines::dks::{DksCmd, DksConfig, DksNode};
use fed_baselines::hybrid::{HybridCmd, HybridConfig, HybridNode};
use fed_baselines::scribe::{ScribeCmd, ScribeNode};
use fed_baselines::splitstream::{Forest, SplitStreamNode, StripeCmd};
use fed_cluster::{ScheduleTrace, ShardMap, ShardedSimulation, WindowPolicy};
use fed_core::behavior::Behavior;
use fed_core::gossip::{GossipCmd, GossipConfig, GossipNode};
use fed_core::ledger::FairnessLedger;
use fed_dht::DhtNetwork;
use fed_membership::swim::{SwimObservation, SwimObservationKind};
use fed_membership::FullMembership;
use fed_metrics::delivery::DeliveryAudit;
use fed_profile::{
    CountingProbe, RunProfile, ScheduleSummary, ShardProfile, WindowSlice, WorkCounters,
};
use fed_pubsub::{Event, EventId, TopicId, TopicSpace};
use fed_sim::exec::{Probe, QueueStats};
use fed_sim::{HopRecord, NodeId, Protocol, SimDuration, SimTime, Simulation, TransportStats};
use fed_telemetry::membership::{DetectorEvent, DetectorEventKind, MembershipSeries};
use fed_telemetry::{ShardCollector, TelemetrySeries};
use fed_trace::{merge_hops, ShardTraceBuffer};
use fed_util::rng::Xoshiro256StarStar;
use fed_workload::churn::{downtime_intervals, ChurnAction, ChurnEvent};
use fed_workload::interest::InterestProfile;
use fed_workload::pubs::Publication;
use fed_workload::scenario::{Architecture, MaterializedScenario, Placement, ScenarioSpec};
use std::sync::Arc;

/// Expected per-node event-count profile of a materialized scenario:
/// subscription counts proxy deliveries and forwarding work, scheduled
/// publications proxy sends. This is the weight profile behind the
/// [`Placement::Balanced`] shard assignment.
pub fn event_weights(materialized: &MaterializedScenario) -> Vec<u64> {
    let mut weights: Vec<u64> = (0..materialized.profile.len())
        .map(|i| 1 + 4 * materialized.profile.topics_of(i).len() as u64)
        .collect();
    for p in &materialized.schedule {
        if let Some(w) = weights.get_mut(p.publisher) {
            *w += 8;
        }
    }
    weights
}

/// The node type every gossip experiment runs.
pub type Node = GossipNode<FullMembership>;

/// The gossip round period shared by the architecture-generic runs.
const ROUND: SimDuration = SimDuration::from_millis(100);

/// Uniform driver interface over every architecture's node type: how the
/// workload is phrased as commands, and how the observables are read back.
///
/// Implementing this is all it takes for a protocol to run on both
/// engines through [`run_architecture`] and the cross-engine parity
/// suite.
pub trait ArchProtocol: Protocol + 'static {
    /// The command subscribing this node to `topic`.
    fn subscribe_cmd(topic: TopicId) -> Self::Cmd;
    /// The command publishing `event` at this node.
    fn publish_cmd(event: Event) -> Self::Cmd;
    /// The node's fairness ledger (owned: composite architectures
    /// synthesize a merged ledger on demand).
    fn fairness(&self) -> FairnessLedger;
    /// Snapshot of the node's delivery log, sorted by event id.
    fn delivery_log(&self) -> Vec<(EventId, SimTime)>;
    /// The node's SWIM failure-detector observation log, when it runs
    /// one (empty otherwise).
    fn swim_observations(&self) -> Vec<SwimObservation> {
        Vec::new()
    }
    /// When the node switched dissemination strategy, for architectures
    /// with runtime handover (`None` otherwise).
    fn handover_at(&self) -> Option<SimTime> {
        None
    }
}

/// Sorted snapshot of a baseline [`DeliveryLog`].
fn snapshot_log(log: &DeliveryLog) -> Vec<(EventId, SimTime)> {
    let mut v: Vec<(EventId, SimTime)> = log.iter().collect();
    v.sort_unstable_by_key(|&(id, _)| id);
    v
}

impl ArchProtocol for Node {
    fn subscribe_cmd(topic: TopicId) -> GossipCmd {
        GossipCmd::SubscribeTopic(topic)
    }
    fn publish_cmd(event: Event) -> GossipCmd {
        GossipCmd::Publish(event)
    }
    fn fairness(&self) -> FairnessLedger {
        self.ledger().clone()
    }
    fn delivery_log(&self) -> Vec<(EventId, SimTime)> {
        let mut v: Vec<(EventId, SimTime)> = self
            .deliveries()
            .iter()
            .map(|(&id, rec)| (id, rec.at))
            .collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }
    fn swim_observations(&self) -> Vec<SwimObservation> {
        GossipNode::swim_observations(self)
    }
}

impl ArchProtocol for HybridNode {
    fn subscribe_cmd(topic: TopicId) -> HybridCmd {
        HybridCmd::SubscribeTopic(topic)
    }
    fn publish_cmd(event: Event) -> HybridCmd {
        HybridCmd::Publish(event)
    }
    fn fairness(&self) -> FairnessLedger {
        self.merged_ledger()
    }
    fn delivery_log(&self) -> Vec<(EventId, SimTime)> {
        self.merged_deliveries()
    }
    fn swim_observations(&self) -> Vec<SwimObservation> {
        HybridNode::swim_observations(self)
    }
    fn handover_at(&self) -> Option<SimTime> {
        self.switched_at()
    }
}

impl ArchProtocol for BrokerNode {
    fn subscribe_cmd(topic: TopicId) -> BrokerCmd {
        BrokerCmd::SubscribeTopic(topic)
    }
    fn publish_cmd(event: Event) -> BrokerCmd {
        BrokerCmd::Publish(event)
    }
    fn fairness(&self) -> FairnessLedger {
        self.ledger().clone()
    }
    fn delivery_log(&self) -> Vec<(EventId, SimTime)> {
        snapshot_log(self.deliveries())
    }
}

impl ArchProtocol for ScribeNode {
    fn subscribe_cmd(topic: TopicId) -> ScribeCmd {
        ScribeCmd::SubscribeTopic(topic)
    }
    fn publish_cmd(event: Event) -> ScribeCmd {
        ScribeCmd::Publish(event)
    }
    fn fairness(&self) -> FairnessLedger {
        self.ledger().clone()
    }
    fn delivery_log(&self) -> Vec<(EventId, SimTime)> {
        snapshot_log(self.deliveries())
    }
}

impl ArchProtocol for DksNode {
    fn subscribe_cmd(topic: TopicId) -> DksCmd {
        DksCmd::SubscribeTopic(topic)
    }
    fn publish_cmd(event: Event) -> DksCmd {
        DksCmd::Publish(event)
    }
    fn fairness(&self) -> FairnessLedger {
        self.ledger().clone()
    }
    fn delivery_log(&self) -> Vec<(EventId, SimTime)> {
        snapshot_log(self.deliveries())
    }
}

impl ArchProtocol for DamNode {
    fn subscribe_cmd(topic: TopicId) -> DamCmd {
        DamCmd::SubscribeTopic(topic)
    }
    fn publish_cmd(event: Event) -> DamCmd {
        DamCmd::Publish(event)
    }
    fn fairness(&self) -> FairnessLedger {
        self.ledger().clone()
    }
    fn delivery_log(&self) -> Vec<(EventId, SimTime)> {
        snapshot_log(self.deliveries())
    }
}

impl ArchProtocol for SplitStreamNode {
    fn subscribe_cmd(topic: TopicId) -> StripeCmd {
        StripeCmd::SubscribeTopic(topic)
    }
    fn publish_cmd(event: Event) -> StripeCmd {
        StripeCmd::Publish(event)
    }
    fn fairness(&self) -> FairnessLedger {
        self.ledger().clone()
    }
    fn delivery_log(&self) -> Vec<(EventId, SimTime)> {
        snapshot_log(self.deliveries())
    }
}

/// The engine seam of the harness: what a scenario run needs from an
/// engine — build from a spec, schedule, run observed, read back — so
/// [`run_architecture`] and [`GossipRun`] have one body for both engines.
///
/// The sequential [`Simulation`] is the one-shard case: it owns `0..n`,
/// takes exactly one observer and has no windows.
pub trait Engine<P: Protocol + 'static>: Sized {
    /// Builds the engine `spec` describes, constructing nodes with
    /// `factory` (the sequential engine ignores the shard count,
    /// placement and window knobs).
    fn build<F>(spec: &ScenarioSpec, materialized: &MaterializedScenario, factory: F) -> Self
    where
        F: Fn(NodeId, &mut Xoshiro256StarStar) -> P + Send + Sync + 'static;
    /// Schedules an application command.
    fn command(&mut self, at: SimTime, node: NodeId, cmd: P::Cmd);
    /// Schedules a crash.
    fn crash(&mut self, at: SimTime, node: NodeId);
    /// Schedules a (re)join.
    fn join(&mut self, at: SimTime, node: NodeId);
    /// Shards actually in use (the cluster clamps to `1..=n`).
    fn shards(&self) -> usize;
    /// The node ids `shard` owns, ascending.
    fn owned(&self, shard: usize) -> Vec<u32>;
    /// Runs to `target` with exactly one observer per shard. Returns the
    /// window schedule when `trace_schedule` is set and the engine has
    /// windows to trace.
    fn run_observed<O: Probe + Send>(
        &mut self,
        target: SimTime,
        observers: &mut [O],
        trace_schedule: bool,
    ) -> Option<ScheduleTrace>;
    /// Iterates over `(id, state)` of every node that has state.
    fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)>;
    /// Transport statistics of every node, indexed by node.
    fn stats(&self) -> Vec<TransportStats>;
    /// Events processed so far.
    fn events(&self) -> u64;
    /// Barrier windows executed so far (0 on the sequential engine).
    fn windows(&self) -> u64;
    /// Queue counters summed over every shard's queue.
    fn queue_stats(&self) -> QueueStats;
}

impl<P: Protocol + 'static> Engine<P> for Simulation<P> {
    fn build<F>(spec: &ScenarioSpec, _materialized: &MaterializedScenario, factory: F) -> Self
    where
        F: Fn(NodeId, &mut Xoshiro256StarStar) -> P + Send + Sync + 'static,
    {
        Simulation::new(spec.n, spec.effective_net(), spec.seed, factory)
    }
    fn command(&mut self, at: SimTime, node: NodeId, cmd: P::Cmd) {
        self.schedule_command(at, node, cmd);
    }
    fn crash(&mut self, at: SimTime, node: NodeId) {
        self.schedule_crash(at, node);
    }
    fn join(&mut self, at: SimTime, node: NodeId) {
        self.schedule_join(at, node);
    }
    fn shards(&self) -> usize {
        1
    }
    fn owned(&self, _shard: usize) -> Vec<u32> {
        (0..self.len() as u32).collect()
    }
    fn run_observed<O: Probe + Send>(
        &mut self,
        target: SimTime,
        observers: &mut [O],
        _trace_schedule: bool,
    ) -> Option<ScheduleTrace> {
        let [obs] = observers else {
            panic!("the sequential engine is exactly one shard");
        };
        self.run_until_observed(target, obs);
        None
    }
    fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        Simulation::nodes(self)
    }
    fn stats(&self) -> Vec<TransportStats> {
        self.transport_stats_all().to_vec()
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }
    fn windows(&self) -> u64 {
        0
    }
    fn queue_stats(&self) -> QueueStats {
        Simulation::queue_stats(self)
    }
}

impl<P> Engine<P> for ShardedSimulation<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Cmd: Send,
{
    fn build<F>(spec: &ScenarioSpec, materialized: &MaterializedScenario, factory: F) -> Self
    where
        F: Fn(NodeId, &mut Xoshiro256StarStar) -> P + Send + Sync + 'static,
    {
        let map = match spec.placement {
            Placement::RoundRobin => ShardMap::round_robin(spec.n, spec.shards),
            Placement::Block => ShardMap::block(spec.n, spec.shards),
            Placement::Balanced => ShardMap::balanced(&event_weights(materialized), spec.shards),
        };
        let window = if spec.adaptive_window {
            WindowPolicy::adaptive()
        } else {
            WindowPolicy::fixed()
        };
        ShardedSimulation::with_scheduler(
            spec.n,
            spec.effective_net(),
            spec.seed,
            map,
            window,
            factory,
        )
    }
    fn command(&mut self, at: SimTime, node: NodeId, cmd: P::Cmd) {
        self.schedule_command(at, node, cmd);
    }
    fn crash(&mut self, at: SimTime, node: NodeId) {
        self.schedule_crash(at, node);
    }
    fn join(&mut self, at: SimTime, node: NodeId) {
        self.schedule_join(at, node);
    }
    fn shards(&self) -> usize {
        self.num_shards()
    }
    fn owned(&self, shard: usize) -> Vec<u32> {
        self.shard_map().owned(shard).to_vec()
    }
    fn run_observed<O: Probe + Send>(
        &mut self,
        target: SimTime,
        observers: &mut [O],
        trace_schedule: bool,
    ) -> Option<ScheduleTrace> {
        let mut schedule = trace_schedule.then(ScheduleTrace::default);
        self.run_until_observed(target, observers, schedule.as_mut());
        schedule
    }
    fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        ShardedSimulation::nodes(self)
    }
    fn stats(&self) -> Vec<TransportStats> {
        self.transport_stats_all()
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }
    fn windows(&self) -> u64 {
        ShardedSimulation::windows(self)
    }
    fn queue_stats(&self) -> QueueStats {
        ShardedSimulation::queue_stats(self)
    }
}

/// Schedules the materialized workload onto any engine, in the canonical
/// order: subscriptions, publications, then churn.
///
/// Both engines must see the same `schedule_*` call order — the external
/// event sequence number participates in the deterministic event order.
fn schedule_workload<P, E>(sim: &mut E, materialized: &MaterializedScenario)
where
    P: ArchProtocol,
    E: Engine<P>,
{
    for i in 0..materialized.profile.len() {
        for &topic in materialized.profile.topics_of(i) {
            sim.command(
                SimTime::ZERO,
                NodeId::new(i as u32),
                P::subscribe_cmd(topic),
            );
        }
    }
    for p in &materialized.schedule {
        sim.command(
            p.at,
            NodeId::new(p.publisher as u32),
            P::publish_cmd(p.event.clone()),
        );
    }
    for c in &materialized.churn {
        match c.action {
            ChurnAction::Crash => sim.crash(c.at, NodeId::new(c.node as u32)),
            ChurnAction::Join => sim.join(c.at, NodeId::new(c.node as u32)),
        }
    }
}

/// A prepared gossip run on engine `E` (the sequential [`Simulation`]
/// unless said otherwise): simulation with workload wired in, plus ground
/// truth.
pub struct GossipRun<E = Simulation<Node>> {
    /// The simulation (not yet executed).
    pub sim: E,
    /// Who subscribes to what.
    pub profile: InterestProfile,
    /// Scheduled publications.
    pub schedule: Vec<Publication>,
    /// Scenario horizon.
    pub horizon: SimTime,
}

impl<E: Engine<Node>> GossipRun<E> {
    /// Builds a gossip run straight from a [`ScenarioSpec`] (shard count,
    /// churn plan and all).
    ///
    /// For the same spec (and scheduling order), the results are
    /// bit-for-bit identical on every engine regardless of `spec.shards`
    /// — asserted by the `cross_engine` integration test.
    pub fn build<B>(spec: &ScenarioSpec, config: GossipConfig, behavior: B) -> Self
    where
        B: Fn(NodeId) -> Behavior + Send + Sync + 'static,
    {
        let materialized = spec
            .materialize()
            .expect("scenario parameters are validated by construction");
        let n = spec.n;
        let mut sim = E::build(spec, &materialized, move |id, _| {
            GossipNode::with_behavior(id, config.clone(), FullMembership::new(id, n), behavior(id))
        });
        schedule_workload(&mut sim, &materialized);
        GossipRun {
            sim,
            profile: materialized.profile,
            schedule: materialized.schedule,
            horizon: materialized.horizon,
        }
    }

    /// Runs to the scenario horizon.
    pub fn run(&mut self) {
        let mut unobserved = vec![(); self.sim.shards()];
        self.sim.run_observed(self.horizon, &mut unobserved, false);
    }

    /// Builds the delivery audit from ground truth and observed state.
    pub fn audit(&self) -> DeliveryAudit {
        let mut audit = DeliveryAudit::new();
        for p in &self.schedule {
            audit.expect(
                p.event.id(),
                p.at,
                self.profile.subscribers_of(p.event.topic()),
            );
        }
        for (id, node) in self.sim.nodes() {
            for (eid, rec) in node.deliveries() {
                audit.record(*eid, id.index(), rec.at);
            }
        }
        audit
    }

    /// Ledgers of all nodes in id order.
    pub fn ledgers(&self) -> Vec<&FairnessLedger> {
        self.sim.nodes().map(|(_, n)| n.ledger()).collect()
    }
}

/// [`GossipRun::build`] on the sequential engine (`spec.shards` is
/// ignored).
pub fn build_gossip_spec<B>(spec: &ScenarioSpec, config: GossipConfig, behavior: B) -> GossipRun
where
    B: Fn(NodeId) -> Behavior + Send + Sync + 'static,
{
    GossipRun::build(spec, config, behavior)
}

/// Which engine executes a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The sequential [`Simulation`].
    Sequential,
    /// The sharded [`ShardedSimulation`] at the spec's shard count.
    Cluster,
}

/// Engine-agnostic observable outcome of one architecture run.
///
/// Everything here is plain data copied out of the finished simulation,
/// so outcomes from different engines (or shard counts) compare with
/// `==` field by field: identical `deliveries`, `ledgers` and `stats`
/// mean the two runs performed the same virtual-world execution.
#[derive(Debug, Clone)]
pub struct ArchOutcome {
    /// The architecture that ran.
    pub arch: Architecture,
    /// Who subscribes to what (ground truth).
    pub profile: InterestProfile,
    /// Scheduled publications (ground truth).
    pub schedule: Vec<Publication>,
    /// Per-node delivery logs, indexed by node id, sorted by event id.
    pub deliveries: Vec<Vec<(EventId, SimTime)>>,
    /// Per-node fairness ledgers, indexed by node id.
    pub ledgers: Vec<FairnessLedger>,
    /// Per-node transport statistics, indexed by node id.
    pub stats: Vec<TransportStats>,
    /// Events processed by the engine.
    pub events: u64,
    /// Barrier windows executed (0 on the sequential engine).
    pub windows: u64,
    /// Shards actually in use (the engine clamps to `1..=n`; always 1 on
    /// the sequential engine).
    pub shards: usize,
    /// Streaming telemetry series, when the spec enabled it.
    ///
    /// Byte-identical across engines and shard counts for the same spec
    /// (asserted by the `telemetry_parity` integration suite).
    pub telemetry: Option<TelemetrySeries>,
    /// Scheduler profile, when the spec enabled `[profile]`.
    ///
    /// Its [`RunProfile::merged_work`] counters are partition-invariant
    /// (gated by the `profile_parity` integration suite); the wall-clock
    /// phase timings are host measurements and intentionally excluded
    /// from [`crate::scenario_run::outcomes_match`].
    pub profiling: Option<RunProfile>,
    /// Merged per-event hop trace, when the spec enabled `[trace]`.
    ///
    /// Already in the canonical (sorted) order, so traces from different
    /// engines or shard counts compare with `==`: byte-identical for the
    /// same spec (gated by the `trace_parity` integration suite).
    pub trace: Option<Vec<HopRecord>>,
    /// Per-node SWIM failure-detector observation logs, indexed by node
    /// id; all empty unless the spec enabled `[membership]` on an
    /// architecture that runs the detector.
    ///
    /// Deterministic data, byte-identical across engines and shard
    /// counts (asserted by the parity suites).
    pub swim: Vec<Vec<SwimObservation>>,
    /// Per-node strategy-handover instants, indexed by node id; all
    /// `None` except for architectures with runtime switching
    /// ([`Architecture::Hybrid`]).
    pub handovers: Vec<Option<SimTime>>,
    /// The scenario's churn trace (ground truth for detection telemetry).
    pub churn: Vec<ChurnEvent>,
    /// Scenario horizon.
    pub horizon: SimTime,
}

impl ArchOutcome {
    /// Builds the delivery audit from ground truth and observed state.
    pub fn audit(&self) -> DeliveryAudit {
        let mut audit = DeliveryAudit::new();
        for p in &self.schedule {
            audit.expect(
                p.event.id(),
                p.at,
                self.profile.subscribers_of(p.event.topic()),
            );
        }
        for (node, log) in self.deliveries.iter().enumerate() {
            for &(eid, at) in log {
                audit.record(eid, node, at);
            }
        }
        audit
    }

    /// Total deliveries across all nodes.
    pub fn total_deliveries(&self) -> usize {
        self.deliveries.iter().map(Vec::len).sum()
    }

    /// Earliest strategy handover across all nodes, when one happened.
    pub fn handover_time(&self) -> Option<SimTime> {
        self.handovers.iter().flatten().min().copied()
    }

    /// Total SWIM observations across all nodes.
    pub fn total_swim_observations(&self) -> usize {
        self.swim.iter().map(Vec::len).sum()
    }

    /// Folds the run's SWIM observation logs against the churn ground
    /// truth into the per-window detection series (detection latency,
    /// false suspicions, refutation waves).
    ///
    /// Purely derived from deterministic outcome data, so two outcomes
    /// with identical `swim` logs produce identical series.
    pub fn membership_series(&self, window: SimDuration) -> MembershipSeries {
        let mut events: Vec<DetectorEvent> = Vec::new();
        for (observer, log) in self.swim.iter().enumerate() {
            for o in log {
                events.push(DetectorEvent {
                    at: o.at,
                    observer,
                    subject: o.subject.index(),
                    kind: match o.kind {
                        SwimObservationKind::Suspect => DetectorEventKind::Suspect,
                        SwimObservationKind::Confirm => DetectorEventKind::Confirm,
                        SwimObservationKind::Refute => DetectorEventKind::Refute,
                        SwimObservationKind::SelfRefute => DetectorEventKind::SelfRefute,
                    },
                });
            }
        }
        events.sort_by_key(|e| (e.at, e.observer, e.subject));
        let downtime = downtime_intervals(&self.churn, self.horizon);
        MembershipSeries::build(window, self.horizon, &events, &downtime)
    }
}

/// Builds the per-topic group table the DKS and DAM baselines take as
/// static input: each topic's group is exactly its subscriber set.
pub fn groups_of(profile: &InterestProfile) -> GroupTable {
    let mut groups = GroupTable::default();
    for t in 0..profile.num_topics() {
        let topic = TopicId::new(t as u32);
        let members: Vec<NodeId> = profile
            .subscribers_of(topic)
            .into_iter()
            .map(|i| NodeId::new(i as u32))
            .collect();
        if !members.is_empty() {
            groups.insert(topic, members);
        }
    }
    groups
}

/// Runs the spec's architecture on the chosen engine to the scenario
/// horizon and returns the observable outcome.
///
/// The gossip variants run the T-ARCH comparison configuration
/// (`fair`/`classic` with fanout 8, view 16, 100 ms rounds) — note this
/// supersedes the fanout-4 config the E-SCALE sweep used before it went
/// architecture-generic, so absolute event counts differ from pre-PR-2
/// recordings.
///
/// Shared infrastructure (DHT routing tables, group tables, the
/// SplitStream forest) is built deterministically from the spec before
/// the engine starts and handed to every node behind an `Arc`; it is
/// immutable for the whole run, which is what makes it safe to share
/// across shard threads without perturbing determinism.
pub fn run_architecture(spec: &ScenarioSpec, engine: EngineKind) -> ArchOutcome {
    let materialized = spec
        .materialize()
        .expect("scenario parameters are validated by construction");
    let n = spec.n;
    // The spec's `[membership]` section arms the SWIM detector inside
    // every gossip stack the chosen architecture runs.
    let with_membership = |config: GossipConfig| match &spec.membership {
        Some(swim) => config.with_swim(swim.clone()),
        None => config,
    };
    match spec.arch {
        Architecture::FairGossip => {
            let config = with_membership(GossipConfig::fair(8, 16, ROUND));
            execute(spec, materialized, engine, move |id, _| {
                GossipNode::with_behavior(
                    id,
                    config.clone(),
                    FullMembership::new(id, n),
                    Behavior::Honest,
                )
            })
        }
        Architecture::StaticGossip => {
            let config = with_membership(GossipConfig::classic(8, 16, ROUND));
            execute(spec, materialized, engine, move |id, _| {
                GossipNode::with_behavior(
                    id,
                    config.clone(),
                    FullMembership::new(id, n),
                    Behavior::Honest,
                )
            })
        }
        Architecture::Broker => execute(spec, materialized, engine, |id, _| {
            BrokerNode::new(id, NodeId::new(0))
        }),
        Architecture::Scribe => {
            let dht = Arc::new(DhtNetwork::build(n));
            execute(spec, materialized, engine, move |id, _| {
                ScribeNode::new(id, Arc::clone(&dht))
            })
        }
        Architecture::Dks => {
            let dht = Arc::new(DhtNetwork::build(n));
            let groups = Arc::new(groups_of(&materialized.profile));
            let cfg = DksConfig {
                group_fanout: 5,
                seeds: 3,
            };
            execute(spec, materialized, engine, move |id, _| {
                DksNode::new(id, cfg, Arc::clone(&dht), Arc::clone(&groups))
            })
        }
        Architecture::Dam => {
            let groups = Arc::new(groups_of(&materialized.profile));
            let space = Arc::new(TopicSpace::flat(spec.num_topics));
            execute(spec, materialized, engine, move |id, _| {
                DamNode::new(
                    id,
                    DamConfig::default(),
                    Arc::clone(&groups),
                    Arc::clone(&space),
                )
            })
        }
        Architecture::SplitStream => {
            let forest = Arc::new(Forest::build(n, 8, 8));
            execute(spec, materialized, engine, move |id, _| {
                SplitStreamNode::new(id, Arc::clone(&forest))
            })
        }
        Architecture::Hybrid => {
            let mut config = HybridConfig::standard();
            config.gossip = with_membership(config.gossip);
            execute(spec, materialized, engine, move |id, _| {
                HybridNode::new(id, n, config.clone())
            })
        }
    }
}

/// Engine-neutral copy of the coordinator's schedule trace, so
/// `fed-profile` (and everything reading a [`RunProfile`]) stays
/// independent of the cluster runtime.
fn schedule_summary(trace: &ScheduleTrace) -> ScheduleSummary {
    ScheduleSummary {
        windows: trace
            .windows
            .iter()
            .map(|w| WindowSlice {
                index: w.index,
                start_us: w.start.as_micros(),
                end_us: w
                    .ends
                    .iter()
                    .map(|e| e.as_micros())
                    .max()
                    .unwrap_or_else(|| w.start.as_micros()),
                straggler: w.straggler,
                events: w.events.iter().sum(),
                wall_ns: w.wall_ns,
            })
            .collect(),
        straggler_windows: trace.straggler_windows.clone(),
    }
}

/// One shard's partition-invariant work counters, assembled from its
/// profiler's event count and the transport stats of the nodes it owns.
///
/// Queue pushes/pops live on the engine's queues, not here — they stay
/// zero per shard and [`RunProfile::merged_work`] fills the merged totals
/// from the engine's [`fed_sim::exec::QueueStats`].
fn work_counters(
    stats: &[TransportStats],
    owned: &[u32],
    events: u64,
    probe_calls: u64,
) -> WorkCounters {
    let mut w = WorkCounters {
        events,
        probe_calls,
        ..WorkCounters::default()
    };
    for &id in owned {
        let s = &stats[id as usize];
        w.msgs_sent += s.msgs_sent;
        w.msgs_received += s.msgs_received;
        w.msgs_lost += s.msgs_lost;
        w.bytes_sent += s.bytes_sent;
    }
    w
}

/// The per-shard observer every scenario run attaches: the spec's
/// `[telemetry]`, `[profile]` and `[trace]` sections each switch one
/// member on.
type ShardObserver = (
    Option<CountingProbe<ShardCollector>>,
    Option<ShardProfile>,
    Option<ShardTraceBuffer>,
);

/// Monomorphic worker behind [`run_architecture`]: dispatches onto
/// [`execute_on`] for the chosen engine.
fn execute<P, F>(
    spec: &ScenarioSpec,
    materialized: MaterializedScenario,
    engine: EngineKind,
    factory: F,
) -> ArchOutcome
where
    P: ArchProtocol + Send,
    P::Msg: Send,
    P::Cmd: Send,
    F: Fn(NodeId, &mut Xoshiro256StarStar) -> P + Send + Sync + 'static,
{
    match engine {
        EngineKind::Sequential => execute_on::<P, Simulation<P>, F>(spec, materialized, factory),
        EngineKind::Cluster => {
            execute_on::<P, ShardedSimulation<P>, F>(spec, materialized, factory)
        }
    }
}

/// Builds engine `E` with `factory`, schedules the workload, runs to the
/// horizon with one [`ShardObserver`] per shard and collects the outcome.
fn execute_on<P, E, F>(
    spec: &ScenarioSpec,
    materialized: MaterializedScenario,
    factory: F,
) -> ArchOutcome
where
    P: ArchProtocol,
    E: Engine<P>,
    F: Fn(NodeId, &mut Xoshiro256StarStar) -> P + Send + Sync + 'static,
{
    let horizon = materialized.horizon;
    let profiling = spec.profile.is_some();
    let mut sim = E::build(spec, &materialized, factory);
    schedule_workload(&mut sim, &materialized);
    // Each shard-local collector is built from the same owned list its
    // kernel got, and each hop is recorded on the shard owning the
    // sender; the merges below restore the global series and the
    // canonical trace order exactly. The counting wrapper feeds the
    // profiler's `probe_calls` work counter and forwards everything
    // unchanged.
    let owned: Vec<Vec<u32>> = (0..sim.shards()).map(|s| sim.owned(s)).collect();
    let mut observers: Vec<ShardObserver> = owned
        .iter()
        .map(|owned| {
            (
                spec.telemetry
                    .map(|t| CountingProbe::new(ShardCollector::new(t, spec.n, owned))),
                profiling.then(ShardProfile::default),
                spec.trace.as_ref().map(ShardTraceBuffer::new),
            )
        })
        .collect();
    let run_start = profiling.then(std::time::Instant::now);
    let schedule = sim.run_observed(horizon, &mut observers, profiling);
    let wall_ns = run_start.map_or(0, |t| t.elapsed().as_nanos() as u64);

    let stats = sim.stats();
    let mut telemetry: Option<TelemetrySeries> = None;
    let mut work = Vec::new();
    let mut shard_profiles = Vec::new();
    let mut buffers = Vec::new();
    for ((collector, shard_profile, buffer), owned) in observers.into_iter().zip(&owned) {
        let probe_calls = collector.as_ref().map_or(0, |c| c.calls);
        if let Some(series) = collector.map(|c| c.inner.finalize(horizon)) {
            match telemetry.as_mut() {
                None => telemetry = Some(series),
                Some(merged) => merged.merge(&series),
            }
        }
        if let Some(shard) = shard_profile {
            work.push(work_counters(&stats, owned, shard.events, probe_calls));
            shard_profiles.push(shard);
        }
        buffers.extend(buffer);
    }
    let profile = profiling.then(|| RunProfile {
        work,
        shards: shard_profiles,
        queue: sim.queue_stats(),
        schedule: schedule.as_ref().map(schedule_summary),
        wall_ns,
    });
    // A single sequential buffer still goes through the merge, so both
    // engines expose the identical canonical ordering.
    let trace = spec.trace.as_ref().map(|_| merge_hops(buffers));

    let mut deliveries = vec![Vec::new(); spec.n];
    let mut ledgers = vec![FairnessLedger::new(); spec.n];
    let mut swim = vec![Vec::new(); spec.n];
    let mut handovers = vec![None; spec.n];
    for (id, node) in sim.nodes() {
        deliveries[id.index()] = node.delivery_log();
        ledgers[id.index()] = node.fairness();
        swim[id.index()] = node.swim_observations();
        handovers[id.index()] = node.handover_at();
    }
    ArchOutcome {
        arch: spec.arch,
        profile: materialized.profile,
        schedule: materialized.schedule,
        deliveries,
        ledgers,
        stats,
        events: sim.events(),
        windows: sim.windows(),
        shards: owned.len(),
        telemetry,
        profiling: profile,
        trace,
        swim,
        handovers,
        churn: materialized.churn,
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_core::ledger::RatioSpec;

    #[test]
    fn standard_scenario_runs_and_audits() {
        let spec = ScenarioSpec::fair_gossip(32, 11);
        let cfg = GossipConfig::classic(5, 16, SimDuration::from_millis(100));
        let mut run = build_gossip_spec(&spec, cfg, |_| Behavior::Honest);
        run.run();
        let audit = run.audit();
        assert!(audit.num_events() > 0);
        assert!(audit.reliability() > 0.99, "r={}", audit.reliability());
        assert_eq!(audit.spurious(), 0);
        let ledgers = run.ledgers();
        assert_eq!(ledgers.len(), 32);
        let spec = RatioSpec::topic_based();
        assert!(ledgers.iter().any(|l| l.contribution(&spec) > 0.0));
    }

    #[test]
    fn deterministic_across_builds() {
        let spec = ScenarioSpec::fair_gossip(16, 5);
        let cfg = GossipConfig::classic(4, 16, SimDuration::from_millis(100));
        let r1 = {
            let mut run = build_gossip_spec(&spec, cfg.clone(), |_| Behavior::Honest);
            run.run();
            run.audit().reliability()
        };
        let r2 = {
            let mut run = build_gossip_spec(&spec, cfg, |_| Behavior::Honest);
            run.run();
            run.audit().reliability()
        };
        assert_eq!(r1, r2);
    }

    /// Every architecture runs end to end through the generic runner on
    /// the sequential engine and delivers something.
    #[test]
    fn every_architecture_runs_and_delivers() {
        for arch in Architecture::ALL {
            let spec = ScenarioSpec::standard(arch, 24, 7);
            let outcome = run_architecture(&spec, EngineKind::Sequential);
            assert_eq!(outcome.arch, arch);
            assert_eq!(outcome.deliveries.len(), 24);
            assert_eq!(outcome.ledgers.len(), 24);
            assert_eq!(outcome.stats.len(), 24);
            assert!(outcome.events > 0, "{arch}: no events processed");
            assert!(outcome.total_deliveries() > 0, "{arch}: dead scenario");
            assert_eq!(outcome.windows, 0, "sequential engine has no barriers");
        }
    }

    /// Enabling `[profile]` perturbs nothing, and the merged work
    /// counters are partition-invariant across the engines — the
    /// `profile_parity` suite sweeps this wider.
    #[test]
    fn profiling_is_passive_and_partition_invariant() {
        let base = ScenarioSpec::standard(Architecture::FairGossip, 24, 7)
            .with_telemetry(fed_telemetry::TelemetrySpec::default());
        let spec = base
            .clone()
            .with_profile(fed_profile::ProfileSpec::default());
        let plain = run_architecture(&base, EngineKind::Sequential);
        let seq = run_architecture(&spec, EngineKind::Sequential);
        assert!(plain.profiling.is_none(), "off unless the spec asks");
        assert_eq!(plain.deliveries, seq.deliveries, "profiling is passive");
        assert_eq!(plain.telemetry, seq.telemetry);
        let p = seq.profiling.as_ref().expect("profiling on");
        assert_eq!(p.shards.len(), 1);
        assert!(p.schedule.is_none(), "no windows on the sequential engine");
        let work = p.merged_work();
        assert_eq!(work.events, seq.events);
        assert!(work.probe_calls > 0, "telemetry hooks counted");
        assert!(work.queue_pops > 0 && work.queue_pushes >= work.queue_pops);
        let clu = run_architecture(&spec.with_shards(3), EngineKind::Cluster);
        let q = clu.profiling.as_ref().expect("profiling on");
        assert_eq!(q.shards.len(), 3);
        assert_eq!(work, q.merged_work(), "work counters partition-invariant");
        let schedule = q.schedule.as_ref().expect("cluster schedule traced");
        assert_eq!(schedule.windows.len() as u64, clu.windows);
        assert_eq!(
            schedule.straggler_windows.iter().sum::<u64>(),
            clu.windows,
            "every window has exactly one straggler"
        );
    }

    /// The generic runner's sequential path and the dedicated gossip
    /// builder agree — the runner is a façade, not a fork.
    #[test]
    fn generic_runner_matches_gossip_builder() {
        let spec = ScenarioSpec::fair_gossip(16, 3);
        let outcome = run_architecture(&spec, EngineKind::Sequential);
        let mut run = build_gossip_spec(&spec, GossipConfig::fair(8, 16, ROUND), |_| {
            Behavior::Honest
        });
        run.run();
        let builder_deliveries: usize = run.sim.nodes().map(|(_, n)| n.deliveries().len()).sum();
        assert_eq!(outcome.total_deliveries(), builder_deliveries);
        assert_eq!(outcome.events, run.sim.events_processed());
    }
}
