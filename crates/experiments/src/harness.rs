//! Shared experiment harness: scenario → simulation → audit.
//!
//! Scenario descriptions live in [`fed_workload::scenario::ScenarioSpec`];
//! this module wires a materialized spec into either engine — the
//! sequential [`Simulation`] or the sharded [`ShardedSimulation`] — for
//! *any* architecture the spec selects, and audits the outcome.
//!
//! There is **one** body for materialize → build the chosen [`Engine`] →
//! schedule the workload → observed run → collect, and every run in the
//! workspace goes through it:
//!
//! * [`run_architecture`] executes whatever [`Architecture`] the spec
//!   names — fair/static gossip or any of the structured baselines — on
//!   either engine and returns an engine-agnostic [`ArchOutcome`]. Every
//!   node type plugs in through [`ArchProtocol`], which phrases the
//!   workload as commands and hands the finished node back as one
//!   [`NodeRecord`] — its fairness ledger, delivery log, SWIM log and
//!   handover instant.
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
//! [`EngineKind`] picks the engine by value, and for the same spec the
//! results are bit-for-bit comparable regardless of engine or shard
//! count — asserted by the parity matrix (`tests/parity/mod.rs`), which
//! compares every cell's runs with
//! [`crate::scenario_run::first_divergence`].

use fed_baselines::broker::BrokerNode;
use fed_baselines::dam::{DamNode, GroupTable};
use fed_baselines::dks::DksNode;
use fed_baselines::hybrid::HybridNode;
use fed_baselines::scribe::ScribeNode;
use fed_baselines::splitstream::{Forest, SplitStreamNode};
use fed_cluster::{Engine, ShardMap, ShardedSimulation};
use fed_core::behavior::Behavior;
use fed_core::endpoint::Endpoint;
use fed_core::gossip::{GossipConfig, GossipNode};
use fed_core::ledger::{FairnessLedger, RatioSpec};
use fed_dht::DhtNetwork;
use fed_membership::swim::SwimObservation;
use fed_metrics::delivery::DeliveryAudit;
use fed_metrics::fairness::{contribution_report, ratio_report};
use fed_profile::{RunProfile, ShardProfile, WorkCounters};
use fed_pubsub::{Command, EventId, TopicId};
use fed_sim::exec::DEFAULT_MAX_EVENTS;
use fed_sim::{HopRecord, NodeId, Protocol, SimDuration, SimTime, Simulation, TransportStats};
use fed_telemetry::membership::{DetectorEvent, MembershipSeries};
use fed_telemetry::{ShardCollector, TelemetrySeries, WindowRow};
use fed_trace::{merge_hops, ShardTraceBuffer};
use fed_util::fairness::FairnessReport;
use fed_util::rng::Xoshiro256StarStar;
use fed_workload::churn::{downtime_intervals, ChurnAction, ChurnEvent};
use fed_workload::interest::InterestProfile;
use fed_workload::pubs::Publication;
use fed_workload::scenario::{Architecture, MaterializedScenario, Placement, ScenarioSpec};
use std::collections::HashSet;
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
/// workload arrives as the paper's [`Command`]s, and the finished node
/// comes back as one [`NodeRecord`] of its observables.
///
/// Implementing this is all it takes for a protocol to run on both
/// engines through [`run_architecture`] and the parity matrix.
pub trait ArchProtocol: Protocol<Cmd = Command> + 'static {
    /// The finished node's observables, taken out of it.
    fn into_record(self) -> NodeRecord;
    /// The period of the round timer the node re-arms for as long as it
    /// lives, when it runs one: a node that never crashes dispatches at
    /// least ⌊horizon / period⌋ of its timer events.
    const ROUND: Option<SimDuration> = None;
}

/// What a finished node leaves to its [`ArchOutcome`].
#[derive(Debug, Default)]
pub struct NodeRecord {
    /// The node's fairness ledger.
    pub ledger: FairnessLedger,
    /// The node's delivery log, sorted by event id.
    pub deliveries: Vec<(EventId, SimTime)>,
    /// The node's SWIM failure-detector observation log, when it runs
    /// one (empty otherwise).
    pub swim: Vec<SwimObservation>,
    /// When the node switched dissemination strategy, for architectures
    /// with runtime handover (`None` otherwise).
    pub handover: Option<SimTime>,
}

/// A node with one subscriber side records its ledger and delivery log.
impl From<Endpoint> for NodeRecord {
    fn from(endpoint: Endpoint) -> Self {
        NodeRecord {
            ledger: endpoint.ledger().clone(),
            deliveries: endpoint.into_deliveries().into_sorted(),
            ..NodeRecord::default()
        }
    }
}

impl ArchProtocol for GossipNode {
    fn into_record(self) -> NodeRecord {
        let swim = self.swim_observations();
        NodeRecord {
            swim,
            ..self.into_endpoint().into()
        }
    }
    const ROUND: Option<SimDuration> = Some(fed_core::gossip::ROUND);
}

impl ArchProtocol for HybridNode {
    fn into_record(self) -> NodeRecord {
        NodeRecord {
            ledger: self.merged_ledger(),
            swim: self.swim_observations(),
            handover: self.switched_at(),
            deliveries: self.into_merged_deliveries(),
        }
    }
    // The gossip stack runs its rounds in either mode.
    const ROUND: Option<SimDuration> = Some(fed_core::gossip::ROUND);
}

impl ArchProtocol for BrokerNode {
    fn into_record(self) -> NodeRecord {
        self.into_endpoint().into()
    }
}

impl ArchProtocol for ScribeNode {
    fn into_record(self) -> NodeRecord {
        self.into_endpoint().into()
    }
}

impl ArchProtocol for DksNode {
    fn into_record(self) -> NodeRecord {
        self.into_endpoint().into()
    }
}

impl ArchProtocol for DamNode {
    fn into_record(self) -> NodeRecord {
        self.into_endpoint().into()
    }
    const ROUND: Option<SimDuration> = Some(fed_baselines::dam::PERIOD);
}

impl ArchProtocol for SplitStreamNode {
    fn into_record(self) -> NodeRecord {
        self.into_endpoint().into()
    }
}

/// Schedules the materialized workload onto any engine, in the canonical
/// order: subscriptions, publications, then churn.
///
/// Both engines must see the same `schedule_*` call order — the external
/// event sequence number participates in the deterministic event order.
fn schedule_workload<P: ArchProtocol>(sim: &mut Engine<P>, materialized: &MaterializedScenario) {
    for i in 0..materialized.profile.len() {
        let node = NodeId::new(i as u32);
        for &topic in materialized.profile.topics_of(i) {
            sim.schedule_command(SimTime::ZERO, node, Command::Subscribe(topic));
        }
    }
    for p in &materialized.schedule {
        sim.schedule_command(
            p.at,
            NodeId::new(p.publisher as u32),
            Command::Publish(p.event),
        );
    }
    for c in &materialized.churn {
        match c.action {
            ChurnAction::Crash => sim.schedule_crash(c.at, NodeId::new(c.node as u32)),
            ChurnAction::Join => sim.schedule_join(c.at, NodeId::new(c.node as u32)),
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
    /// Per-node delivery logs, indexed by node id, sorted by event id:
    /// whole-run logs, since a rejoin wakes the node that crashed.
    pub deliveries: Vec<Vec<(EventId, SimTime)>>,
    /// Per-node fairness ledgers, indexed by node id, over the whole run
    /// (crashes and rejoins included).
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
    /// Its [`RunProfile::work`] counters are partition-invariant
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
        DeliveryAudit::from_logs(
            self.schedule.iter().map(|p| (p.event.id(), p.at)),
            self.deliveries.iter().map(|log| log.iter().copied()),
            |i, node| {
                let p = &self.schedule[i];
                self.profile.topics_of(node).contains(&p.event.topic()) && expected(p, node)
            },
        )
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

    /// The run's measured values, computed once: what every report
    /// renders instead of re-deriving it from the outcome.
    pub fn summary(&self) -> RunSummary {
        let audit = self.audit();
        let latency = audit.latency_ms();
        let spec = RatioSpec::topic_based();
        let deliveries = self.total_deliveries();
        let total_msgs: u64 = self.stats.iter().map(|s| s.msgs_sent).sum();
        let hottest = self.stats.iter().map(|s| s.msgs_sent).max().unwrap_or(0);
        // The detection totals do not depend on the window width, so one
        // window spanning the horizon counts them without a per-window
        // series.
        let whole_run = SimDuration::from_micros(self.horizon.as_micros().max(1));
        let detection = self.membership_series(whole_run);
        RunSummary {
            deliveries,
            reliability: audit.reliability(),
            spurious: audit.spurious(),
            ratio: ratio_report(&self.ledgers, &spec),
            load: contribution_report(&self.ledgers, &spec),
            total_msgs,
            hottest_share: if total_msgs == 0 {
                0.0
            } else {
                hottest as f64 / total_msgs as f64
            },
            msgs_per_delivery: (deliveries > 0).then(|| total_msgs as f64 / deliveries as f64),
            latency_samples: latency.len(),
            latency_mean_ms: latency.mean(),
            latency_p50_ms: latency.percentile(50.0),
            latency_p95_ms: latency.percentile(95.0),
            latency_p99_ms: latency.percentile(99.0),
            latency_max_ms: latency.max(),
            handover: self.handover_time(),
            transients: self.telemetry.as_ref().map(Transients::of),
            detection: DetectionTotals {
                observations: self.total_swim_observations(),
                detections: detection.total_detections(),
                latency_mean_us: detection.detection_latency_mean_us(),
                false_suspicions: detection.total_false_suspicions(),
                refutes: detection.total_refutes(),
                self_refutes: detection.windows.iter().map(|w| w.self_refutes).sum(),
            },
        }
    }
}

/// One run's measured values, named: deliveries, fairness, cost,
/// latency and, when the run carried them, its telemetry transients.
/// [`ArchOutcome::summary`] computes it once; `run`, `arch`, `sweep`,
/// `scale`, `smoke` and `timeseries` render its fields.
///
/// Fairness is the paper's: Jain (and the other indices) over per-node
/// contribution/benefit ratios under topic-based accounting. Load balance
/// is the same indices over raw contributions — the §3 distinction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Deliveries across all nodes.
    pub deliveries: usize,
    /// Fraction of expected deliveries that arrived.
    pub reliability: f64,
    /// Deliveries at nodes not interested in the event.
    pub spurious: u64,
    /// Fairness over per-node contribution/benefit ratios.
    pub ratio: FairnessReport,
    /// Fairness over raw contributions (load balance).
    pub load: FairnessReport,
    /// Messages sent by all nodes.
    pub total_msgs: u64,
    /// Largest single-node share of the messages sent (0 when none were).
    pub hottest_share: f64,
    /// Messages sent per delivery; `None` when nothing was delivered.
    pub msgs_per_delivery: Option<f64>,
    /// Expected deliveries that arrived: the latency samples.
    pub latency_samples: usize,
    /// Mean delivery latency in milliseconds (0 without a sample).
    pub latency_mean_ms: f64,
    /// Median delivery latency in milliseconds.
    pub latency_p50_ms: Option<f64>,
    /// 95th-percentile delivery latency in milliseconds.
    pub latency_p95_ms: Option<f64>,
    /// 99th-percentile delivery latency in milliseconds.
    pub latency_p99_ms: Option<f64>,
    /// Largest delivery latency in milliseconds.
    pub latency_max_ms: Option<f64>,
    /// Earliest strategy handover, when one happened.
    pub handover: Option<SimTime>,
    /// Per-window transients, when the run carried a telemetry series.
    pub transients: Option<Transients>,
    /// Failure-detection totals over the SWIM logs (all zero when no node
    /// ran the detector).
    pub detection: DetectionTotals,
}

/// What a telemetry series says about the run's transients.
///
/// Fairness extremes are taken over *active* windows only: those with at
/// least a tenth of the peak window's sends. Round timers keep firing
/// until the horizon, and a drain tail of a handful of sends over
/// hundreds of nodes would post a near-zero Jain — the transients must
/// describe the system under load, not the silence after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transients {
    /// Windows in the series.
    pub windows: usize,
    /// Active windows.
    pub active: usize,
    /// Worst (minimum) per-window Jain index over the active windows;
    /// `None` when no window sent anything.
    pub jain_min: Option<f64>,
    /// Peak per-window Gini over the active windows (0 without one).
    pub gini_peak: f64,
    /// Peak p99 scheduled delivery latency in milliseconds over all
    /// windows (0 when no window sampled one).
    pub p99_ms_peak: f64,
    /// Peak single-node forward load in any window.
    pub load_max_peak: u64,
    /// Most messages sent in one window.
    pub msgs_peak: u64,
    /// Smallest alive population over the windows that sampled it.
    pub alive_min: u64,
}

impl Transients {
    /// The transients of `series`.
    fn of(series: &TelemetrySeries) -> Transients {
        let msgs_peak = series.windows.iter().map(|w| w.msgs_sent).max();
        let floor = (msgs_peak.unwrap_or(0) / 10).max(1);
        let rows = series.rows();
        let active: Vec<&WindowRow> = rows.iter().filter(|r| r.msgs_sent >= floor).collect();
        Transients {
            windows: rows.len(),
            active: active.len(),
            jain_min: active.iter().map(|r| r.jain).reduce(f64::min),
            gini_peak: active.iter().map(|r| r.gini).fold(0.0, f64::max),
            p99_ms_peak: rows
                .iter()
                .filter_map(|r| r.latency_p99_ms)
                .fold(0.0, f64::max),
            load_max_peak: series.windows.iter().map(|w| w.load_max).max().unwrap_or(0),
            msgs_peak: msgs_peak.unwrap_or(0),
            alive_min: series
                .windows
                .iter()
                .filter(|w| w.alive + w.crashed > 0)
                .map(|w| w.alive)
                .min()
                .unwrap_or(0),
        }
    }
}

/// A run's failure-detection totals: its SWIM observations classified
/// against the churn ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetectionTotals {
    /// SWIM observations logged across all nodes.
    pub observations: usize,
    /// Confirmations of nodes that were actually down.
    pub detections: u64,
    /// Mean confirmation delay after the crash, in microseconds; `None`
    /// without a detection.
    pub latency_mean_us: Option<f64>,
    /// Suspicions of nodes that were actually alive.
    pub false_suspicions: u64,
    /// Suspicion/death refutations.
    pub refutes: u64,
    /// Live nodes clearing their own name.
    pub self_refutes: u64,
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
    behavior: impl Fn(NodeId) -> Behavior,
) -> impl FnMut(NodeId, &mut Xoshiro256StarStar) -> GossipNode {
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
    behavior: impl Fn(NodeId) -> Behavior,
) -> ArchOutcome {
    prepare_gossip(spec, engine, config, behavior).finish()
}

/// [`run_gossip`] stopped before its run step: the chosen engine built
/// and scheduled, for the experiments that act on `sim` before
/// [`Prepared::finish`].
pub fn prepare_gossip(
    spec: &ScenarioSpec,
    engine: EngineKind,
    config: GossipConfig,
    behavior: impl Fn(NodeId) -> Behavior,
) -> Prepared<'_, GossipNode> {
    let factory = gossip_factory(spec, config, behavior);
    Prepared::new(spec, materialize(spec), engine, factory)
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
        Architecture::Broker => Prepared::new(spec, materialize(spec), engine, |id, _| {
            BrokerNode::new(id, NodeId::new(0))
        })
        .finish(),
        Architecture::Scribe => {
            let materialized = materialize(spec);
            let dht = Arc::new(DhtNetwork::build(n));
            Prepared::new(spec, materialized, engine, move |id, _| {
                ScribeNode::new(id, Arc::clone(&dht))
            })
            .finish()
        }
        Architecture::Dks => {
            let materialized = materialize(spec);
            let dht = Arc::new(DhtNetwork::build(n));
            let groups = Arc::new(groups_of(&materialized.profile));
            Prepared::new(spec, materialized, engine, move |id, _| {
                DksNode::new(id, Arc::clone(&dht), Arc::clone(&groups))
            })
            .finish()
        }
        Architecture::Dam => {
            let materialized = materialize(spec);
            let groups = Arc::new(groups_of(&materialized.profile));
            Prepared::new(spec, materialized, engine, move |id, _| {
                DamNode::new(id, Arc::clone(&groups))
            })
            .finish()
        }
        Architecture::SplitStream => {
            let materialized = materialize(spec);
            let forest = Arc::new(Forest::build(n, 8, 8));
            Prepared::new(spec, materialized, engine, move |id, _| {
                SplitStreamNode::new(id, Arc::clone(&forest))
            })
            .finish()
        }
        Architecture::Hybrid => {
            let swim = spec.membership;
            Prepared::new(spec, materialize(spec), engine, move |id, _| {
                HybridNode::new(id, n, swim)
            })
            .finish()
        }
    }
}

/// The per-shard observer every scenario run attaches: the spec's
/// `[telemetry]`, `[profile]` and `[trace]` sections each switch one
/// member on. The collector counts its own hook calls and the profiler
/// keeps the window reports, which count the shard's events.
type ShardObserver = (
    Option<ShardCollector>,
    Option<ShardProfile>,
    Option<ShardTraceBuffer>,
);

/// A scenario prepared on its engine: built, scheduled, ground truth
/// kept — the harness's one run body, split at its run step.
///
/// Until [`Prepared::finish`] the engine is the caller's: schedule extra
/// commands or crashes on `sim`, run it in slices, read node state.
/// Whatever the caller ran itself is run unobserved; `finish` covers the
/// rest of the way to the horizon under the spec's observers.
pub struct Prepared<'s, P: Protocol> {
    /// The engine, with the scenario's workload scheduled.
    pub sim: Engine<P>,
    spec: &'s ScenarioSpec,
    materialized: MaterializedScenario,
}

impl<'s, P> Prepared<'s, P>
where
    P: ArchProtocol + Send,
    P::Msg: Send,
{
    /// Builds `engine` as `spec` describes it (the sequential engine has no
    /// shard knobs) with `factory`, and schedules the workload.
    ///
    /// # Panics
    ///
    /// Before building anything, when the round timers alone would
    /// exhaust the [`DEFAULT_MAX_EVENTS`] budget: the nodes the churn
    /// trace never crashes, times ⌊horizon / period⌋ rounds each (see
    /// [`ArchProtocol::ROUND`]), a lower bound on the run's events.
    fn new<F>(
        spec: &'s ScenarioSpec,
        materialized: MaterializedScenario,
        engine: EngineKind,
        factory: F,
    ) -> Self
    where
        F: FnMut(NodeId, &mut Xoshiro256StarStar) -> P,
    {
        if let Some(period) = P::ROUND {
            let crashed: HashSet<usize> = materialized
                .churn
                .iter()
                .filter(|c| c.action == ChurnAction::Crash)
                .map(|c| c.node)
                .collect();
            let survivors = (spec.n - crashed.len()) as u64;
            let rounds = materialized.horizon.as_micros() / period.as_micros();
            let floor = survivors.saturating_mul(rounds);
            assert!(
                floor <= DEFAULT_MAX_EVENTS,
                "{survivors} node(s) re-arm a {} ms round timer up to the horizon at {}us: \
                 at least {floor} events, past the event budget of {DEFAULT_MAX_EVENTS} events",
                period.as_millis(),
                materialized.horizon.as_micros()
            );
        }
        let (n, shards, net, seed) = (spec.n, spec.shards, spec.effective_net(), spec.seed);
        let mut sim = match engine {
            EngineKind::Sequential => Engine::Sequential(Simulation::new(n, net, seed, factory)),
            EngineKind::Cluster => {
                let map = match spec.placement {
                    Placement::RoundRobin => ShardMap::round_robin(n, shards),
                    Placement::Block => ShardMap::block(n, shards),
                    Placement::Balanced => {
                        ShardMap::balanced(&event_weights(&materialized), shards)
                    }
                };
                let cluster = ShardedSimulation::with_scheduler(n, net, seed, map, factory);
                Engine::Cluster(cluster)
            }
        };
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
    /// the outcome. A profiled run's [`WorkCounters`] are built once, at
    /// the end, from counts the run already holds.
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
        // canonical trace order exactly.
        let owned: Vec<Vec<u32>> = (0..sim.num_shards()).map(|s| sim.owned(s)).collect();
        let mut observers: Vec<ShardObserver> = owned
            .iter()
            .map(|owned| {
                (
                    spec.telemetry
                        .map(|t| ShardCollector::new(t, spec.n, owned)),
                    profiling.then(ShardProfile::default),
                    spec.trace.as_ref().map(ShardTraceBuffer::new),
                )
            })
            .collect();
        let run_start = profiling.then(std::time::Instant::now);
        sim.run_until_observed(horizon, &mut observers);
        let wall_ns = run_start.map_or(0, |t| t.elapsed().as_nanos() as u64);

        let stats = sim.transport_stats_all();
        let mut telemetry: Option<TelemetrySeries> = None;
        let mut probe_calls = 0;
        let mut shard_profiles = Vec::new();
        let mut buffers = Vec::new();
        for (collector, shard_profile, buffer) in observers {
            if let Some(collector) = collector {
                probe_calls += collector.calls();
                let series = collector.finalize(horizon);
                match telemetry.as_mut() {
                    None => telemetry = Some(series),
                    Some(merged) => merged.merge(&series),
                }
            }
            shard_profiles.extend(shard_profile);
            buffers.extend(buffer);
        }
        // The run's work counters, built once from what the run already
        // counts: the window reports' events, every node's transport
        // stats, the collectors' hook calls and the engine's queues.
        let profile = profiling.then(|| {
            let queue = sim.queue_stats();
            let mut work = WorkCounters {
                events: shard_profiles.iter().map(ShardProfile::events).sum(),
                queue_pushes: queue.pushes,
                queue_pops: queue.pops,
                probe_calls,
                ..WorkCounters::default()
            };
            for s in &stats {
                work.msgs_sent += s.msgs_sent;
                work.msgs_received += s.msgs_received;
                work.msgs_lost += s.msgs_lost;
                work.bytes_sent += s.bytes_sent;
            }
            RunProfile {
                work,
                shards: shard_profiles,
                overflow_hits: queue.overflow_hits,
                wall_ns,
            }
        });
        // A single sequential buffer still goes through the merge, so both
        // engines expose the identical canonical ordering.
        let trace = spec.trace.as_ref().map(|_| merge_hops(buffers));

        // The engine is consumed last: each node's delivery log moves into
        // the outcome, and the rest of the node is dropped with it.
        let (events, windows) = (sim.events_processed(), sim.windows());
        let mut deliveries = vec![Vec::new(); spec.n];
        let mut ledgers = vec![FairnessLedger::new(); spec.n];
        let mut swim = vec![Vec::new(); spec.n];
        let mut handovers = vec![None; spec.n];
        for (id, node) in sim.into_nodes() {
            let i = id.index();
            let record = node.into_record();
            ledgers[i] = record.ledger;
            deliveries[i] = record.deliveries;
            swim[i] = record.swim;
            handovers[i] = record.handover;
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
        let prepare = || {
            prepare_gossip(&spec, EngineKind::Sequential, config(), |_| {
                Behavior::Honest
            })
        };
        let untouched = prepare().finish();
        let mut driven = prepare();
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
    fn exhaust_the_budget(spec: &ScenarioSpec, engine: EngineKind) {
        let config = t_arch_config(GossipConfig::fair);
        let mut run = prepare_gossip(spec, engine, config, |_| Behavior::Honest);
        run.sim.set_max_events(1_000);
        run.finish();
    }

    #[test]
    #[should_panic(expected = "event budget of 1000 events exhausted at virtual time")]
    fn exhausted_budget_fails_the_sequential_run() {
        exhaust_the_budget(&ScenarioSpec::fair_gossip(16, 3), EngineKind::Sequential);
    }

    #[test]
    #[should_panic(expected = "event budget of 1000 events exhausted at virtual time")]
    fn exhausted_budget_fails_the_cluster_run() {
        let spec = ScenarioSpec::fair_gossip(16, 3).with_shards(2);
        exhaust_the_budget(&spec, EngineKind::Cluster);
    }

    /// A world whose round timers alone pass the event budget is refused
    /// before its engine is built: 64 DAM nodes × 10⁷ rounds of 100 ms.
    #[test]
    #[should_panic(expected = "at least 640000000 events, past the event budget of 500000000")]
    fn round_timers_past_the_budget_are_refused() {
        let mut spec = ScenarioSpec::standard(Architecture::Dam, 64, 3);
        spec.plan.rate_per_sec = 1e-6;
        // Horizon: 1 s warmup + publication + 4 s drain = 10⁶ s.
        spec.plan.warmup = SimTime::from_secs(1);
        spec.plan.duration = SimTime::from_secs(1_000_000 - 5);
        run_architecture(&spec, EngineKind::Cluster);
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
        let work = p.work;
        assert_eq!(work.events, seq.events);
        assert!(work.probe_calls > 0, "telemetry hooks counted");
        assert!(work.queue_pops > 0 && work.queue_pushes >= work.queue_pops);
        let clu = run_architecture(&spec.with_shards(3), EngineKind::Cluster);
        let q = clu.profiling.as_ref().expect("profiling on");
        assert_eq!(q.shards.len(), 3);
        assert_eq!(work, q.work, "work counters partition-invariant");
        assert_eq!(q.barrier_windows().len() as u64, clu.windows);
        assert_eq!(
            q.straggler_windows().iter().sum::<u64>(),
            clu.windows,
            "every window has exactly one straggler"
        );
    }
}
