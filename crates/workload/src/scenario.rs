//! A complete scenario description, shared by every engine.
//!
//! [`ScenarioSpec`] bundles everything needed to reproduce an experiment
//! run — population size, shard count, interest profile parameters,
//! publication plan, optional churn and the network model — behind a
//! single seeded value. The experiment harness materializes the spec into
//! ground truth ([`ScenarioSpec::materialize`]) and wires the same
//! workload into either the sequential `fed_sim::Simulation` or the
//! sharded `fed-cluster` runtime; because materialization is a pure
//! function of the spec, both engines see identical inputs.

use crate::churn::{generate_churn, ChurnEvent, ChurnPlan};
use crate::interest::{Appetite, InterestProfile};
use crate::pubs::{generate_schedule, PubPlan, Publication};
use fed_profile::ProfileSpec;
use fed_sim::network::{FaultSchedule, LatencyModel, MobilityTrace, NetworkModel};
use fed_sim::{SimDuration, SimTime};
use fed_telemetry::TelemetrySpec;
use fed_trace::TraceSpec;
use fed_util::dist::InvalidDistribution;
use fed_util::rng::{Rng64, Xoshiro256StarStar};

/// Virtual time a run keeps going after its publication phase, so that
/// the last publications drain (TTL rounds plus latency slack).
pub const DRAIN: SimDuration = SimDuration::from_secs(4);

/// The dissemination architecture a scenario runs.
///
/// The spec names the architecture; the experiment harness maps each
/// variant to its node type and shared infrastructure (DHT routing
/// tables, group tables, the SplitStream forest). Keeping the selection
/// here means one seeded value fully describes a run on either engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Fairness-adaptive gossip — the paper's protocol.
    FairGossip,
    /// Classic static-fanout gossip (the fair protocol with adaptation
    /// switched off).
    StaticGossip,
    /// Central broker: one node matches and forwards everything.
    Broker,
    /// Scribe-style multicast trees over a Pastry DHT (paper §4.1).
    Scribe,
    /// DKS-style per-topic groups behind an index DHT (paper §4.1).
    Dks,
    /// Data-aware multicast: per-topic gossip groups (paper §4.2).
    Dam,
    /// SplitStream-style interior-node-disjoint forest (paper §3.1).
    SplitStream,
    /// Telemetry-driven broker/fair-gossip hybrid: starts as a central
    /// broker and hands dissemination over to fair gossip mid-run when
    /// the broker's per-window forwarding load spikes.
    Hybrid,
}

impl Architecture {
    /// Every architecture, in the paper's presentation order.
    pub const ALL: [Architecture; 8] = [
        Architecture::FairGossip,
        Architecture::StaticGossip,
        Architecture::Broker,
        Architecture::Scribe,
        Architecture::Dks,
        Architecture::Dam,
        Architecture::SplitStream,
        Architecture::Hybrid,
    ];

    /// The scaling sweep: fair gossip plus every structured baseline the
    /// paper compares against (broker, Scribe, DKS, DAM, SplitStream).
    pub const SWEEP: [Architecture; 6] = [
        Architecture::FairGossip,
        Architecture::Broker,
        Architecture::Scribe,
        Architecture::Dks,
        Architecture::Dam,
        Architecture::SplitStream,
    ];

    /// Stable lowercase name (table rows, CLI arguments).
    pub fn name(self) -> &'static str {
        match self {
            Architecture::FairGossip => "fair-gossip",
            Architecture::StaticGossip => "static-gossip",
            Architecture::Broker => "broker",
            Architecture::Scribe => "scribe",
            Architecture::Dks => "dks",
            Architecture::Dam => "dam",
            Architecture::SplitStream => "splitstream",
            Architecture::Hybrid => "hybrid",
        }
    }

    /// Parses a [`Architecture::name`] back into the variant.
    pub fn parse(s: &str) -> Option<Architecture> {
        Architecture::ALL.into_iter().find(|a| a.name() == s)
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Node→shard placement policy for the sharded engine.
///
/// A pure performance knob: per-node random streams depend only on
/// `(seed, node id)`, so every placement produces the bit-identical
/// virtual-world outcome — what changes is how evenly event-processing
/// load spreads over worker threads. The experiment harness maps each
/// variant onto a `fed_cluster::ShardMap`; `Balanced` derives its
/// per-node weights from the materialized scenario's event-count profile
/// (subscription counts and scheduled publications).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placement {
    /// Node `i` on shard `i % shards` (the seed-era default).
    #[default]
    RoundRobin,
    /// Contiguous id blocks per shard.
    Block,
    /// Load-balanced greedy assignment guided by the scenario's expected
    /// per-node event counts.
    Balanced,
}

impl Placement {
    /// Every placement policy.
    pub const ALL: [Placement; 3] = [Placement::RoundRobin, Placement::Block, Placement::Balanced];

    /// Stable lowercase name (table rows, CLI arguments).
    pub fn name(self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::Block => "block",
            Placement::Balanced => "balanced",
        }
    }

    /// Parses a [`Placement::name`] back into the variant.
    pub fn parse(s: &str) -> Option<Placement> {
        Placement::ALL.into_iter().find(|p| p.name() == s)
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A self-contained, seeded description of one experiment scenario.
///
/// Specs are plain data and compare with `==`; the
/// [`crate::scenario_file`] module gives them a declarative TOML form
/// (`parse` ∘ `serialize` is the identity on specs).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The dissemination architecture under test.
    pub arch: Architecture,
    /// Population size.
    pub n: usize,
    /// Number of shards when run on the sharded engine (`1` = sequential
    /// semantics; the result is identical either way).
    pub shards: usize,
    /// Node→shard placement policy on the sharded engine (performance
    /// only; never changes the outcome).
    pub placement: Placement,
    /// Topic universe size.
    pub num_topics: usize,
    /// Topic popularity skew for subscriptions.
    pub zipf_s: f64,
    /// Per-node subscription appetite.
    pub appetite: Appetite,
    /// Publication plan.
    pub plan: PubPlan,
    /// Optional churn trace parameters.
    pub churn: Option<ChurnPlan>,
    /// In-protocol SWIM failure detection for the gossip-based
    /// architectures (fair/static gossip and the hybrid's gossip mode),
    /// at the constants of `fed_membership::swim`. Protocol-level:
    /// enabling it changes message traffic, but stays bit-identical
    /// across engines, shard counts and placements.
    pub membership: bool,
    /// Scheduled deterministic faults (partitions, one-way failures,
    /// delay spikes) applied by the network model. Empty by default.
    pub faults: FaultSchedule,
    /// Optional time-varying connectivity trace (piecewise cross-split
    /// extra latency / blackouts, optionally periodic) applied by the
    /// network model. Like faults, verdicts are pure functions of
    /// `(now, from, to)`, so bit-identity across engines holds.
    pub mobility: Option<MobilityTrace>,
    /// Optional streaming telemetry: when set, the harness attaches
    /// `fed-telemetry` collectors and the run emits a per-window time
    /// series. Observation only — the virtual-world outcome is
    /// bit-identical with or without it.
    pub telemetry: Option<TelemetrySpec>,
    /// Optional scheduler profiling: when set, the harness attaches
    /// `fed-profile` collectors and the run reports phase timings, stall
    /// attribution and work counters (plus a Chrome-trace file).
    /// Observation only — the virtual-world outcome is bit-identical
    /// with or without it.
    pub profile: Option<ProfileSpec>,
    /// Optional per-event dissemination tracing: when set, the harness
    /// attaches `fed-trace` collectors and the run reports per-event
    /// delivery-tree metrics and a forwarding-cost attribution table
    /// (plus a Perfetto trace file). Sampling is a pure hash of the
    /// event id, so the virtual-world outcome is bit-identical with or
    /// without it, at any shard count.
    pub trace: Option<TraceSpec>,
    /// Network model.
    pub net: NetworkModel,
    /// Master seed fixing the interest profile, the publication schedule,
    /// the churn trace and the simulation itself.
    pub seed: u64,
}

/// Ground truth generated from a [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct MaterializedScenario {
    /// Who subscribes to what.
    pub profile: InterestProfile,
    /// Scheduled publications.
    pub schedule: Vec<Publication>,
    /// Crash/join trace (empty without a churn plan).
    pub churn: Vec<ChurnEvent>,
    /// End of the scenario including the drain margin.
    pub horizon: SimTime,
}

impl ScenarioSpec {
    /// The standard fair-gossip scenario: heterogeneous bimodal interest
    /// over a Zipf topic universe with a steady publication stream on a
    /// reliable 10 ms network.
    pub fn fair_gossip(n: usize, seed: u64) -> Self {
        ScenarioSpec {
            arch: Architecture::FairGossip,
            n,
            shards: 1,
            placement: Placement::RoundRobin,
            num_topics: 20,
            zipf_s: 1.0,
            appetite: Appetite::Bimodal {
                heavy_fraction: 0.2,
                heavy: 8,
                light: 1,
            },
            plan: PubPlan {
                rate_per_sec: 20.0,
                duration: SimTime::from_secs(20),
                topic_zipf_s: 1.0,
                payload_bytes: 64,
                warmup: SimTime::from_secs(2),
                flash: None,
            },
            churn: None,
            membership: false,
            faults: FaultSchedule::default(),
            mobility: None,
            telemetry: None,
            profile: None,
            trace: None,
            net: NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10))),
            seed,
        }
    }

    /// The standard scenario for an arbitrary architecture: the
    /// [`ScenarioSpec::fair_gossip`] workload with the architecture
    /// swapped — every system faces the identical population, interest
    /// profile, publication schedule and network.
    pub fn standard(arch: Architecture, n: usize, seed: u64) -> Self {
        ScenarioSpec {
            arch,
            ..ScenarioSpec::fair_gossip(n, seed)
        }
    }

    /// Returns the spec with a different shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Returns the spec with a different architecture.
    pub fn with_arch(mut self, arch: Architecture) -> Self {
        self.arch = arch;
        self
    }

    /// Returns the spec with a different placement policy.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Returns the spec with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the spec with streaming telemetry attached (observation
    /// only; never changes the outcome).
    pub fn with_telemetry(mut self, telemetry: TelemetrySpec) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Returns the spec with scheduler profiling attached (observation
    /// only; never changes the outcome).
    pub fn with_profile(mut self, profile: ProfileSpec) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Returns the spec with per-event dissemination tracing attached
    /// (observation only; never changes the outcome).
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Returns the spec with the SWIM failure detector enabled.
    pub fn with_membership(mut self) -> Self {
        self.membership = true;
        self
    }

    /// Returns the spec with a scheduled fault schedule.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Returns the spec with a time-varying connectivity trace.
    pub fn with_mobility(mut self, mobility: MobilityTrace) -> Self {
        self.mobility = Some(mobility);
        self
    }

    /// The network model with the spec's fault schedule and mobility
    /// trace applied — what the harness hands to the engines.
    pub fn effective_net(&self) -> NetworkModel {
        self.net
            .clone()
            .with_faults(self.faults)
            .with_mobility(self.mobility.clone())
    }

    /// End of the publication phase plus [`DRAIN`], saturating at
    /// [`SimTime::MAX`].
    pub fn horizon(&self) -> SimTime {
        self.checked_horizon().unwrap_or(SimTime::MAX)
    }

    /// End of the publication phase plus [`DRAIN`], or `None` when the
    /// sum overflows the microsecond clock (`[publish]` rejects such a
    /// file).
    pub(crate) fn checked_horizon(&self) -> Option<SimTime> {
        self.plan
            .warmup
            .as_micros()
            .checked_add(self.plan.duration.as_micros())
            .and_then(|end| end.checked_add(DRAIN.as_micros()))
            .map(SimTime::from_micros)
    }

    /// Generates the scenario's ground truth.
    ///
    /// The generator stream order is fixed — interest profile, then
    /// publication schedule, then churn — so adding a churn plan never
    /// perturbs the interest profile or the schedule of an otherwise
    /// identical spec.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDistribution`] when the spec's distribution
    /// parameters are invalid (e.g. non-positive publication rate).
    pub fn materialize(&self) -> Result<MaterializedScenario, InvalidDistribution> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.seed);
        let profile = InterestProfile::generate(
            &mut rng,
            self.n,
            self.num_topics,
            self.zipf_s,
            self.appetite,
        )?;
        let schedule = generate_schedule(&mut rng, self.n, self.num_topics, &self.plan)?;
        let churn = match &self.churn {
            Some(plan) => {
                let mut churn_rng = rng.fork();
                generate_churn(&mut churn_rng, self.n, plan)?
            }
            None => Vec::new(),
        };
        Ok(MaterializedScenario {
            profile,
            schedule,
            churn,
            horizon: self.horizon(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialize_is_deterministic() {
        let spec = ScenarioSpec::fair_gossip(64, 7);
        let a = spec.materialize().unwrap();
        let b = spec.materialize().unwrap();
        assert_eq!(a.schedule.len(), b.schedule.len());
        for (x, y) in a.schedule.iter().zip(&b.schedule) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.publisher, y.publisher);
            assert_eq!(x.event.id(), y.event.id());
        }
        assert_eq!(
            a.profile.total_subscriptions(),
            b.profile.total_subscriptions()
        );
        assert_eq!(a.horizon, b.horizon);
    }

    #[test]
    fn churn_does_not_perturb_profile_or_schedule() {
        let quiet = ScenarioSpec::fair_gossip(64, 7);
        let churny = ScenarioSpec {
            churn: Some(ChurnPlan::default()),
            ..quiet.clone()
        };
        let a = quiet.materialize().unwrap();
        let b = churny.materialize().unwrap();
        assert!(a.churn.is_empty());
        assert!(!b.churn.is_empty());
        assert_eq!(a.schedule.len(), b.schedule.len());
        for (x, y) in a.schedule.iter().zip(&b.schedule) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.event.id(), y.event.id());
        }
        for i in 0..64 {
            assert_eq!(a.profile.topics_of(i), b.profile.topics_of(i));
        }
    }

    #[test]
    fn with_shards_clamps_to_one() {
        assert_eq!(ScenarioSpec::fair_gossip(8, 1).with_shards(0).shards, 1);
        assert_eq!(ScenarioSpec::fair_gossip(8, 1).with_shards(4).shards, 4);
    }

    #[test]
    fn architecture_names_round_trip() {
        for arch in Architecture::ALL {
            assert_eq!(Architecture::parse(arch.name()), Some(arch));
            assert_eq!(format!("{arch}"), arch.name());
        }
        assert_eq!(Architecture::parse("no-such-system"), None);
        // The sweep is a subset of ALL.
        for arch in Architecture::SWEEP {
            assert!(Architecture::ALL.contains(&arch));
        }
    }

    #[test]
    fn placement_names_round_trip() {
        for p in Placement::ALL {
            assert_eq!(Placement::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(Placement::parse("no-such-policy"), None);
        assert_eq!(Placement::default(), Placement::RoundRobin);
    }

    #[test]
    fn scheduler_knobs_are_performance_only_fields() {
        let spec = ScenarioSpec::fair_gossip(8, 1).with_placement(Placement::Balanced);
        assert_eq!(spec.placement, Placement::Balanced);
        // The knob never enters materialization: ground truth is
        // identical whatever the scheduler does.
        let base = ScenarioSpec::fair_gossip(8, 1).materialize().unwrap();
        let knobbed = spec.materialize().unwrap();
        assert_eq!(base.schedule.len(), knobbed.schedule.len());
        for (x, y) in base.schedule.iter().zip(&knobbed.schedule) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.event.id(), y.event.id());
        }
    }

    #[test]
    fn standard_only_changes_the_architecture() {
        let fair = ScenarioSpec::fair_gossip(32, 9);
        let broker = ScenarioSpec::standard(Architecture::Broker, 32, 9);
        assert_eq!(broker.arch, Architecture::Broker);
        assert_eq!(broker.n, fair.n);
        assert_eq!(broker.seed, fair.seed);
        assert_eq!(broker.num_topics, fair.num_topics);
        let a = fair.materialize().unwrap();
        let b = broker.materialize().unwrap();
        assert_eq!(a.schedule.len(), b.schedule.len());
        for i in 0..32 {
            assert_eq!(a.profile.topics_of(i), b.profile.topics_of(i));
        }
    }

    #[test]
    fn horizon_covers_plan_plus_drain() {
        let mut spec = ScenarioSpec::fair_gossip(8, 1);
        assert_eq!(
            spec.horizon().as_micros(),
            spec.plan.warmup.as_micros() + spec.plan.duration.as_micros() + DRAIN.as_micros()
        );
        spec.plan.warmup = SimTime::MAX;
        assert_eq!(spec.checked_horizon(), None);
        assert_eq!(spec.horizon(), SimTime::MAX);
    }
}
