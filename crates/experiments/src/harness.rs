//! Shared experiment harness: scenario → simulation → audit.
//!
//! Scenario descriptions live in [`fed_workload::scenario::ScenarioSpec`];
//! this module wires a materialized spec into either engine — the
//! sequential [`Simulation`] or the sharded [`ShardedSimulation`] — for
//! *any* architecture the spec selects, and audits the outcome.
//!
//! There is **one** body for materialize → [`Engine::build`] →
//! schedule the workload → observed run → collect, and every run in the
//! workspace goes through it:
//!
//! * [`run_architecture`] executes whatever [`Architecture`] the spec
//!   names — fair/static gossip or any of the structured baselines — on
//!   either engine and returns an engine-agnostic [`ArchOutcome`]. Every
//!   node type plugs in through [`ArchProtocol`], which phrases the
//!   workload as commands and names the node's [`Endpoint`] — the
//!   observables (delivery log, fairness ledger) are read back from it.
//! * [`run_gossip`] is its gossip arm with the protocol's knobs open
//!   ([`GossipConfig`], per-node [`Behavior`]), for the experiments that
//!   study the fair protocol itself; `run_architecture` calls it with
//!   [`t_arch_config`] and honest peers.
//! * [`Prepared`] is that body split at its run step: engine built and
//!   scheduled, ground truth kept, `sim` reachable, and
//!   [`Prepared::finish`] yields the same [`ArchOutcome`]. Running a
//!   scenario *is* "prepare, finish"; the experiments that touch the
//!   engine in between (extra commands, crash waves, sliced runs, reading
//!   node state) get the handle from [`prepare_gossip`].
//!
//! The body is generic over the [`Engine`] seam — build, schedule, run
//! observed, read back — so for the same spec the results are bit-for-bit
//! comparable regardless of engine or shard count — asserted by the
//! parity matrix (`tests/parity/mod.rs`), which compares every cell's runs
//! with [`crate::scenario_run::first_divergence`].

use fed_baselines::broker::BrokerNode;
use fed_baselines::dam::{DamNode, GroupTable};
use fed_baselines::dks::DksNode;
use fed_baselines::hybrid::HybridNode;
use fed_baselines::scribe::ScribeNode;
use fed_baselines::splitstream::{Forest, SplitStreamNode};
use fed_cluster::{ShardMap, ShardedSimulation};
use fed_core::behavior::Behavior;
use fed_core::endpoint::Endpoint;
use fed_core::gossip::{GossipConfig, GossipNode};
use fed_core::ledger::FairnessLedger;
use fed_dht::DhtNetwork;
use fed_membership::swim::SwimObservation;
use fed_metrics::delivery::DeliveryAudit;
use fed_profile::{CountingProbe, RunProfile, ShardProfile, WorkCounters};
use fed_pubsub::{Command, EventId, TopicId};
use fed_sim::exec::{Probe, QueueStats};
use fed_sim::{HopRecord, NodeId, Protocol, SimDuration, SimTime, Simulation, TransportStats};
use fed_telemetry::membership::{DetectorEvent, MembershipSeries};
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

/// The T-ARCH comparison configuration of a gossip `preset`: mean fanout
/// 8 and 16 events per message, so `t_arch_config(GossipConfig::fair)`
/// is `GossipConfig::fair(8, 16)`. [`run_architecture`] runs the `fair`
/// and `classic` presets; an experiment starts from one of them and
/// spells only the knobs it changes.
pub fn t_arch_config(preset: fn(usize, usize) -> GossipConfig) -> GossipConfig {
    preset(8, 16)
}

/// Uniform interface over every architecture's node type: the
/// workload arrives as the paper's [`Command`]s, and the node names where
/// its subscriber side — the [`Endpoint`] the observables are read back
/// from — lives.
///
/// Implementing this is all it takes for a protocol to run on both
/// engines through [`run_architecture`] and the parity matrix.
pub trait ArchProtocol: Protocol<Cmd = Command> + 'static {
    /// The node's subscriber side. A composite node names its primary
    /// stack's endpoint and overrides the two read-backs below to merge
    /// the others in.
    fn endpoint(&self) -> &Endpoint;
    /// [`ArchProtocol::endpoint`], taken out of the finished node.
    fn into_endpoint(self) -> Endpoint;
    /// The node's fairness ledger.
    fn fairness(&self) -> FairnessLedger {
        self.endpoint().ledger().clone()
    }
    /// The node's delivery log, moved out of the node and sorted by event
    /// id in place.
    fn into_delivery_log(self) -> Vec<(EventId, SimTime)> {
        self.into_endpoint().into_deliveries().into_sorted()
    }
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

impl ArchProtocol for GossipNode {
    fn endpoint(&self) -> &Endpoint {
        GossipNode::endpoint(self)
    }
    fn into_endpoint(self) -> Endpoint {
        GossipNode::into_endpoint(self)
    }
    fn swim_observations(&self) -> Vec<SwimObservation> {
        GossipNode::swim_observations(self)
    }
}

impl ArchProtocol for HybridNode {
    fn endpoint(&self) -> &Endpoint {
        self.endpoints()[0]
    }
    fn into_endpoint(self) -> Endpoint {
        let [broker, _] = self.into_endpoints();
        broker
    }
    fn fairness(&self) -> FairnessLedger {
        self.merged_ledger()
    }
    fn into_delivery_log(self) -> Vec<(EventId, SimTime)> {
        self.into_merged_deliveries()
    }
    fn swim_observations(&self) -> Vec<SwimObservation> {
        HybridNode::swim_observations(self)
    }
    fn handover_at(&self) -> Option<SimTime> {
        self.switched_at()
    }
}

impl ArchProtocol for BrokerNode {
    fn endpoint(&self) -> &Endpoint {
        BrokerNode::endpoint(self)
    }
    fn into_endpoint(self) -> Endpoint {
        BrokerNode::into_endpoint(self)
    }
}

impl ArchProtocol for ScribeNode {
    fn endpoint(&self) -> &Endpoint {
        ScribeNode::endpoint(self)
    }
    fn into_endpoint(self) -> Endpoint {
        ScribeNode::into_endpoint(self)
    }
}

impl ArchProtocol for DksNode {
    fn endpoint(&self) -> &Endpoint {
        DksNode::endpoint(self)
    }
    fn into_endpoint(self) -> Endpoint {
        DksNode::into_endpoint(self)
    }
}

impl ArchProtocol for DamNode {
    fn endpoint(&self) -> &Endpoint {
        DamNode::endpoint(self)
    }
    fn into_endpoint(self) -> Endpoint {
        DamNode::into_endpoint(self)
    }
}

impl ArchProtocol for SplitStreamNode {
    fn endpoint(&self) -> &Endpoint {
        SplitStreamNode::endpoint(self)
    }
    fn into_endpoint(self) -> Endpoint {
        SplitStreamNode::into_endpoint(self)
    }
}

/// The engine seam of the harness: what a scenario run needs from an
/// engine — build from a spec, schedule, run observed, read back — so
/// the harness has one body for both engines.
///
/// The sequential [`Simulation`] is the one-shard case: it owns `0..n`,
/// takes exactly one observer and has no windows.
pub trait Engine: Sized {
    /// The node type this engine runs.
    type Proto: Protocol + 'static;
    /// Builds the engine `spec` describes, constructing nodes with
    /// `factory` (the sequential engine ignores the shard count,
    /// placement and window knobs).
    fn build<F>(spec: &ScenarioSpec, materialized: &MaterializedScenario, factory: F) -> Self
    where
        F: Fn(NodeId, &mut Xoshiro256StarStar) -> Self::Proto + Send + Sync + 'static;
    /// Schedules an application command.
    fn command(&mut self, at: SimTime, node: NodeId, cmd: <Self::Proto as Protocol>::Cmd);
    /// Schedules a crash.
    fn crash(&mut self, at: SimTime, node: NodeId);
    /// Schedules a (re)join.
    fn join(&mut self, at: SimTime, node: NodeId);
    /// Shards actually in use (the cluster clamps to `1..=n`).
    fn shards(&self) -> usize;
    /// The node ids `shard` owns, ascending.
    fn owned(&self, shard: usize) -> Vec<u32>;
    /// Runs every event due at or before `target` with exactly one
    /// observer per shard, and returns only with the engine at `target`:
    /// a handler's panic or an exhausted event budget fails the run
    /// instead, so a caller never collects a truncated one.
    fn run_observed<O: Probe + Send>(&mut self, target: SimTime, observers: &mut [O]);
    /// Iterates over `(id, state)` of every node that has state.
    fn nodes(&self) -> impl Iterator<Item = (NodeId, &Self::Proto)>;
    /// Consumes the engine into `(id, state)` of every node that has
    /// state, in no particular order.
    fn into_nodes(self) -> impl Iterator<Item = (NodeId, Self::Proto)>;
    /// Transport statistics of every node, indexed by node.
    fn stats(&self) -> Vec<TransportStats>;
    /// Events processed so far.
    fn events(&self) -> u64;
    /// Barrier windows executed so far (0 on the sequential engine).
    fn windows(&self) -> u64;
    /// Queue counters summed over every shard's queue.
    fn queue_stats(&self) -> QueueStats;
}

impl<P: Protocol + 'static> Engine for Simulation<P> {
    type Proto = P;
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
    fn run_observed<O: Probe + Send>(&mut self, target: SimTime, observers: &mut [O]) {
        let [obs] = observers else {
            panic!("the sequential engine is exactly one shard");
        };
        self.run_until_observed(target, obs);
    }
    fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        Simulation::nodes(self)
    }
    fn into_nodes(self) -> impl Iterator<Item = (NodeId, P)> {
        Simulation::into_nodes(self)
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

impl<P> Engine for ShardedSimulation<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send,
    P::Cmd: Send,
{
    type Proto = P;
    fn build<F>(spec: &ScenarioSpec, materialized: &MaterializedScenario, factory: F) -> Self
    where
        F: Fn(NodeId, &mut Xoshiro256StarStar) -> P + Send + Sync + 'static,
    {
        let map = match spec.placement {
            Placement::RoundRobin => ShardMap::round_robin(spec.n, spec.shards),
            Placement::Block => ShardMap::block(spec.n, spec.shards),
            Placement::Balanced => ShardMap::balanced(&event_weights(materialized), spec.shards),
        };
        ShardedSimulation::with_scheduler(spec.n, spec.effective_net(), spec.seed, map, factory)
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
    fn run_observed<O: Probe + Send>(&mut self, target: SimTime, observers: &mut [O]) {
        self.run_until_observed(target, observers);
    }
    fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        ShardedSimulation::nodes(self)
    }
    fn into_nodes(self) -> impl Iterator<Item = (NodeId, P)> {
        ShardedSimulation::into_nodes(self)
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
/// A rejoin rebuilds the node through the factory, which knows nothing of
/// the interest profile, so every `Join` is followed at the same instant
/// by the node's subscriptions again: scheduled right after it, the
/// external sequence number orders them behind the rebuild.
///
/// Both engines must see the same `schedule_*` call order — the external
/// event sequence number participates in the deterministic event order.
fn schedule_workload<E>(sim: &mut E, materialized: &MaterializedScenario)
where
    E: Engine,
    E::Proto: ArchProtocol,
{
    let subscribe = |sim: &mut E, at: SimTime, node: usize| {
        for &topic in materialized.profile.topics_of(node) {
            sim.command(at, NodeId::new(node as u32), Command::Subscribe(topic));
        }
    };
    for i in 0..materialized.profile.len() {
        subscribe(sim, SimTime::ZERO, i);
    }
    for p in &materialized.schedule {
        sim.command(
            p.at,
            NodeId::new(p.publisher as u32),
            Command::Publish(p.event.clone()),
        );
    }
    for c in &materialized.churn {
        match c.action {
            ChurnAction::Crash => sim.crash(c.at, NodeId::new(c.node as u32)),
            ChurnAction::Join => {
                sim.join(c.at, NodeId::new(c.node as u32));
                subscribe(sim, c.at, c.node);
            }
        }
    }
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
/// Everything here is plain data taken out of the finished simulation,
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
    /// (asserted by the `telemetry_parity` integration test).
    pub telemetry: Option<TelemetrySeries>,
    /// Scheduler profile, when the spec enabled `[profile]`.
    ///
    /// Its [`RunProfile::merged_work`] counters are partition-invariant
    /// (gated by the `profile_parity` integration test); the wall-clock
    /// phase timings are host measurements and never compared by
    /// [`crate::scenario_run::first_divergence`].
    pub profiling: Option<RunProfile>,
    /// Merged per-event hop trace, when the spec enabled `[trace]`.
    ///
    /// Already in the canonical (sorted) order, so traces from different
    /// engines or shard counts compare with `==`: byte-identical for the
    /// same spec (gated by the `trace_parity` integration test).
    pub trace: Option<Vec<HopRecord>>,
    /// Per-node SWIM failure-detector observation logs, indexed by node
    /// id; all empty unless the spec enabled `[membership]` on an
    /// architecture that runs the detector.
    ///
    /// Deterministic data, byte-identical across engines and shard
    /// counts (asserted by the `robustness` integration test).
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
        self.audit_where(|_, _| true)
    }

    /// [`ArchOutcome::audit`] over a narrowed ground truth: subscriber
    /// `node` is expected to deliver publication `p` only when
    /// `expected(p, node)` — for runs that changed who can deliver what
    /// after the workload was drawn (cleared subscriptions, crash waves).
    pub fn audit_where(&self, expected: impl Fn(&Publication, usize) -> bool) -> DeliveryAudit {
        let mut audit = DeliveryAudit::new();
        for p in &self.schedule {
            let subscribers = self.profile.subscribers_of(p.event.topic());
            audit.expect(
                p.event.id(),
                p.at,
                subscribers.into_iter().filter(|&node| expected(p, node)),
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
                    kind: o.kind,
                });
            }
        }
        events.sort_by_key(|e| (e.at, e.observer, e.subject));
        let downtime = downtime_intervals(&self.churn, self.horizon);
        MembershipSeries::build(window, self.horizon, &events, &downtime)
    }
}

/// Builds the per-topic group table the DKS and DAM baselines take as
/// static input: each topic's group is exactly its subscriber set, sorted
/// ascending (the [`GroupTable`] invariant).
pub fn groups_of(profile: &InterestProfile) -> GroupTable {
    let mut groups = GroupTable::default();
    for t in 0..profile.num_topics() {
        let topic = TopicId::new(t as u32);
        let members: Vec<NodeId> = profile
            .subscribers_of(topic)
            .into_iter()
            .map(|i| NodeId::new(i as u32))
            .collect();
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "group of {topic:?} is not sorted and distinct"
        );
        if !members.is_empty() {
            groups.insert(topic, members);
        }
    }
    groups
}

/// Materializes `spec` — the one place the harness draws a workload.
fn materialize(spec: &ScenarioSpec) -> MaterializedScenario {
    spec.materialize()
        .expect("scenario parameters are validated by construction")
}

/// The node factory of a gossip run: `config` (plus the spec's SWIM
/// section) on every node, `behavior(id)` deciding who is honest.
fn gossip_factory(
    spec: &ScenarioSpec,
    config: GossipConfig,
    behavior: impl Fn(NodeId) -> Behavior + Send + Sync + 'static,
) -> impl Fn(NodeId, &mut Xoshiro256StarStar) -> GossipNode + Send + Sync + 'static {
    let n = spec.n;
    // The spec's `[membership]` section arms the SWIM detector inside
    // every gossip stack an architecture runs.
    let config = GossipConfig {
        swim: config.swim || spec.membership,
        ..config
    };
    move |id, _| GossipNode::with_behavior(id, n, config.clone(), behavior(id))
}

/// Runs `spec`'s workload under push gossip with the given protocol
/// `config` and per-node `behavior` on the chosen engine — the gossip arm
/// of [`run_architecture`] with its knobs open (`spec.arch` only labels
/// the outcome).
pub fn run_gossip(
    spec: &ScenarioSpec,
    engine: EngineKind,
    config: GossipConfig,
    behavior: impl Fn(NodeId) -> Behavior + Send + Sync + 'static,
) -> ArchOutcome {
    let factory = gossip_factory(spec, config, behavior);
    execute(spec, materialize(spec), engine, factory)
}

/// [`run_gossip`] stopped before its run step: the engine `E` built and
/// scheduled, for the experiments that act on `sim` before
/// [`Prepared::finish`].
pub fn prepare_gossip<E: Engine<Proto = GossipNode>>(
    spec: &ScenarioSpec,
    config: GossipConfig,
    behavior: impl Fn(NodeId) -> Behavior + Send + Sync + 'static,
) -> Prepared<'_, E> {
    let factory = gossip_factory(spec, config, behavior);
    Prepared::new(spec, materialize(spec), factory)
}

/// Runs the spec's architecture on the chosen engine to the scenario
/// horizon and returns the observable outcome.
///
/// The gossip variants run the T-ARCH comparison configuration
/// ([`t_arch_config`] of `fair`/`classic`) with honest peers — note this
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
    let n = spec.n;
    let honest_gossip = |config| run_gossip(spec, engine, config, |_| Behavior::Honest);
    match spec.arch {
        Architecture::FairGossip => honest_gossip(t_arch_config(GossipConfig::fair)),
        Architecture::StaticGossip => honest_gossip(t_arch_config(GossipConfig::classic)),
        Architecture::Broker => execute(spec, materialize(spec), engine, |id, _| {
            BrokerNode::new(id, NodeId::new(0))
        }),
        Architecture::Scribe => {
            let materialized = materialize(spec);
            let dht = Arc::new(DhtNetwork::build(n));
            execute(spec, materialized, engine, move |id, _| {
                ScribeNode::new(id, Arc::clone(&dht))
            })
        }
        Architecture::Dks => {
            let materialized = materialize(spec);
            let dht = Arc::new(DhtNetwork::build(n));
            let groups = Arc::new(groups_of(&materialized.profile));
            execute(spec, materialized, engine, move |id, _| {
                DksNode::new(id, Arc::clone(&dht), Arc::clone(&groups))
            })
        }
        Architecture::Dam => {
            let materialized = materialize(spec);
            let groups = Arc::new(groups_of(&materialized.profile));
            execute(spec, materialized, engine, move |id, _| {
                DamNode::new(id, Arc::clone(&groups))
            })
        }
        Architecture::SplitStream => {
            let materialized = materialize(spec);
            let forest = Arc::new(Forest::build(n, 8, 8));
            execute(spec, materialized, engine, move |id, _| {
                SplitStreamNode::new(id, Arc::clone(&forest))
            })
        }
        Architecture::Hybrid => {
            let swim = spec.membership;
            execute(spec, materialize(spec), engine, move |id, _| {
                HybridNode::new(id, n, swim)
            })
        }
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

/// Monomorphic worker behind [`run_architecture`] and [`run_gossip`]:
/// "prepare, finish" on the chosen engine.
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
        EngineKind::Sequential => {
            Prepared::<Simulation<P>>::new(spec, materialized, factory).finish()
        }
        EngineKind::Cluster => {
            Prepared::<ShardedSimulation<P>>::new(spec, materialized, factory).finish()
        }
    }
}

/// A scenario prepared on engine `E`: engine built, workload scheduled,
/// ground truth kept — the harness's one run body, split at its run step.
///
/// Until [`Prepared::finish`] the engine is the caller's: schedule extra
/// commands or crashes on `sim`, run it in slices, read node state.
/// Whatever the caller ran itself is run unobserved; `finish` covers the
/// rest of the way to the horizon under the spec's observers.
pub struct Prepared<'s, E> {
    /// The engine, with the scenario's workload scheduled.
    pub sim: E,
    spec: &'s ScenarioSpec,
    materialized: MaterializedScenario,
}

impl<'s, E> Prepared<'s, E>
where
    E: Engine,
    E::Proto: ArchProtocol,
{
    /// Builds engine `E` with `factory` and schedules the workload.
    fn new<F>(spec: &'s ScenarioSpec, materialized: MaterializedScenario, factory: F) -> Self
    where
        F: Fn(NodeId, &mut Xoshiro256StarStar) -> E::Proto + Send + Sync + 'static,
    {
        let mut sim = E::build(spec, &materialized, factory);
        schedule_workload(&mut sim, &materialized);
        Prepared {
            sim,
            spec,
            materialized,
        }
    }

    /// The scenario horizon [`Prepared::finish`] runs to.
    pub fn horizon(&self) -> SimTime {
        self.materialized.horizon
    }

    /// Who subscribes to what: the interest profile the workload
    /// scheduled.
    pub fn profile(&self) -> &InterestProfile {
        &self.materialized.profile
    }

    /// Runs to the horizon with one observer per shard (the spec's
    /// `[telemetry]`, `[profile]` and `[trace]` sections) and collects
    /// the outcome.
    pub fn finish(self) -> ArchOutcome {
        let Prepared {
            mut sim,
            spec,
            materialized,
        } = self;
        let horizon = materialized.horizon;
        let profiling = spec.profile.is_some();
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
        sim.run_observed(horizon, &mut observers);
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
            wall_ns,
        });
        // A single sequential buffer still goes through the merge, so both
        // engines expose the identical canonical ordering.
        let trace = spec.trace.as_ref().map(|_| merge_hops(buffers));

        // The engine is consumed last: each node's delivery log moves into
        // the outcome, and the rest of the node is dropped with it.
        let (events, windows) = (sim.events(), sim.windows());
        let mut deliveries = vec![Vec::new(); spec.n];
        let mut ledgers = vec![FairnessLedger::new(); spec.n];
        let mut swim = vec![Vec::new(); spec.n];
        let mut handovers = vec![None; spec.n];
        for (id, node) in sim.into_nodes() {
            let i = id.index();
            ledgers[i] = node.fairness();
            swim[i] = node.swim_observations();
            handovers[i] = node.handover_at();
            deliveries[i] = node.into_delivery_log();
        }
        ArchOutcome {
            arch: spec.arch,
            profile: materialized.profile,
            schedule: materialized.schedule,
            deliveries,
            ledgers,
            stats,
            events,
            windows,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_core::ledger::RatioSpec;

    #[test]
    fn standard_scenario_runs_and_audits() {
        let spec = ScenarioSpec::fair_gossip(32, 11);
        let cfg = GossipConfig::classic(5, 16);
        let outcome = run_gossip(&spec, EngineKind::Sequential, cfg, |_| Behavior::Honest);
        let audit = outcome.audit();
        assert!(audit.num_events() > 0);
        assert!(audit.reliability() > 0.99, "r={}", audit.reliability());
        assert_eq!(audit.spurious(), 0);
        assert_eq!(outcome.ledgers.len(), 32);
        let spec = RatioSpec::topic_based();
        assert!(outcome.ledgers.iter().any(|l| l.contribution(&spec) > 0.0));
    }

    #[test]
    fn deterministic_across_builds() {
        let spec = ScenarioSpec::fair_gossip(16, 5);
        let reliability = || {
            let cfg = GossipConfig::classic(4, 16);
            run_gossip(&spec, EngineKind::Sequential, cfg, |_| Behavior::Honest)
                .audit()
                .reliability()
        };
        assert_eq!(reliability(), reliability());
    }

    /// The handle is the run body split in two, not a second body:
    /// finishing it untouched, or after driving `sim` to the horizon by
    /// hand, yields what the one-shot entry yields.
    #[test]
    fn prepared_handle_finishes_to_the_same_outcome() {
        let spec = ScenarioSpec::fair_gossip(16, 3);
        let config = || t_arch_config(GossipConfig::fair);
        let direct = run_architecture(&spec, EngineKind::Sequential);
        let untouched =
            prepare_gossip::<Simulation<GossipNode>>(&spec, config(), |_| Behavior::Honest)
                .finish();
        let mut driven =
            prepare_gossip::<Simulation<GossipNode>>(&spec, config(), |_| Behavior::Honest);
        driven.sim.run_until(driven.horizon());
        let driven = driven.finish();
        for outcome in [&untouched, &driven] {
            assert_eq!(outcome.deliveries, direct.deliveries);
            assert_eq!(outcome.ledgers, direct.ledgers);
            assert_eq!(outcome.stats, direct.stats);
            assert_eq!(outcome.events, direct.events);
        }
    }

    /// A run that exhausts its event budget fails through the harness,
    /// on either engine, instead of collecting a truncated outcome.
    #[test]
    #[should_panic(expected = "event budget of 1000 events exhausted at virtual time")]
    fn exhausted_budget_fails_the_sequential_run() {
        let spec = ScenarioSpec::fair_gossip(16, 3);
        let config = t_arch_config(GossipConfig::fair);
        let mut run = prepare_gossip::<Simulation<GossipNode>>(&spec, config, |_| Behavior::Honest);
        run.sim.set_max_events(1_000);
        run.finish();
    }

    #[test]
    #[should_panic(expected = "event budget of 1000 events exhausted at virtual time")]
    fn exhausted_budget_fails_the_cluster_run() {
        let spec = ScenarioSpec::fair_gossip(16, 3).with_shards(2);
        let config = t_arch_config(GossipConfig::fair);
        let mut run =
            prepare_gossip::<ShardedSimulation<GossipNode>>(&spec, config, |_| Behavior::Honest);
        run.sim.set_max_events(1_000);
        run.finish();
    }

    /// `audit_where` narrows the expected set and `audit` keeps all of it.
    #[test]
    fn filtered_audit_narrows_the_ground_truth() {
        let spec = ScenarioSpec::fair_gossip(24, 7);
        let outcome = run_architecture(&spec, EngineKind::Sequential);
        let all = outcome.audit();
        let kept = outcome.audit_where(|_, _| true);
        assert_eq!(kept.expected_deliveries(), all.expected_deliveries());
        assert_eq!(kept.observed_deliveries(), all.observed_deliveries());
        let half = outcome.audit_where(|_, node| node < 12);
        assert!(half.expected_deliveries() < all.expected_deliveries());
        assert!(half.expected_deliveries() > 0);
        // Deliveries at the nodes filtered out are no longer expected.
        assert_eq!(
            half.spurious() as usize,
            all.observed_deliveries() - half.observed_deliveries()
        );
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
    /// `profile_parity` integration test sweeps this wider.
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
        assert!(
            p.barrier_windows().is_empty(),
            "no windows on the sequential engine"
        );
        let work = p.merged_work();
        assert_eq!(work.events, seq.events);
        assert!(work.probe_calls > 0, "telemetry hooks counted");
        assert!(work.queue_pops > 0 && work.queue_pushes >= work.queue_pops);
        let clu = run_architecture(&spec.with_shards(3), EngineKind::Cluster);
        let q = clu.profiling.as_ref().expect("profiling on");
        assert_eq!(q.shards.len(), 3);
        assert_eq!(work, q.merged_work(), "work counters partition-invariant");
        assert_eq!(q.barrier_windows().len() as u64, clu.windows);
        assert_eq!(
            q.straggler_windows().iter().sum::<u64>(),
            clu.windows,
            "every window has exactly one straggler"
        );
    }
}
