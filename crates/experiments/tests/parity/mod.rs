//! The parity matrix: every cross-engine determinism check, as one table.
//!
//! A [`Cell`] is a scenario (`spec`), how its nodes are built (`run`:
//! the architecture's own configuration, or push gossip with explicit
//! knobs and behaviours), which subsets of its instruments ride along
//! (`instruments`), and the cluster configurations it must agree with
//! (`shards` × `placements`). [`check`] runs the sequential engine once
//! with every instrument the cell arms — the reference — then every
//! other configuration, and compares each with the reference through
//! `first_divergence`: delivery logs, fairness ledgers, transport
//! statistics, SWIM logs, handovers, event count and every instrument
//! artifact both runs carry. Shard count, placement and instrumentation
//! are performance and observation knobs, never semantics knobs.
//!
//! Each cell also holds a predicate on its reference run — the "dead
//! scenario proves nothing" guard, the detector and handover
//! expectations, each architecture's hop-kind vocabulary — so a cell
//! that stops exercising what it names fails instead of passing on
//! nothing. Specs come from one builder ([`workload`]), from the
//! `scenarios/` library at [`LIBRARY_NODES`] nodes, and from
//! `generated_spec`.
//!
//! A cell's family — its name up to the `/` — is the `suite::test` that
//! checks it through [`check_family`]: the suites (`cross_engine`,
//! `robustness`, `telemetry_parity`, `profile_parity`, `trace_parity`,
//! `instrument_independence`, `scenario_properties`, `parity_matrix`)
//! each include this module and hold one short test per family.
//! `parity_matrix` pins the id of every cell against
//! `tests/data/parity_cells.txt` and checks that every family's test
//! exists, so a dropped or reshaped cell fails tier-1.
//!
//! A failing cell names the run and where it first diverged; a failing
//! cell that runs the architecture's own configuration also writes its
//! spec as a scenario file that `fed-experiments parity <path>` replays.

// Each suite uses its own part of the table's helpers.
#![allow(dead_code)]

use fed_core::behavior::Behavior;
use fed_core::gossip::GossipConfig;
use fed_experiments::harness::{
    run_architecture, run_gossip, t_arch_config, ArchOutcome, EngineKind,
};
use fed_experiments::scenario_run::{
    first_divergence, library, load_file, parity_shards_for, Divergence,
};
use fed_experiments::timeseries::timeseries_spec;
use fed_profile::ProfileSpec;
use fed_sim::network::{
    DelayFault, FaultSchedule, LatencyModel, MobilitySegment, MobilityTrace, NetworkModel,
    OnewayFault, PartitionFault,
};
use fed_sim::{HopKind, NodeId, SimDuration, SimTime};
use fed_telemetry::TelemetrySpec;
use fed_trace::TraceSpec;
use fed_workload::churn::ChurnPlan;
use fed_workload::generated_spec;
use fed_workload::pubs::{FlashCrowd, PubPlan};
use fed_workload::scenario::{Architecture, Placement, ScenarioSpec};
use fed_workload::scenario_file::to_toml;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// An instrument subset, as a bit set.
type Instruments = u8;
const BARE: Instruments = 0;
const TELEMETRY: Instruments = 1;
const PROFILE: Instruments = 2;
const TRACE: Instruments = 4;

fn subset(telemetry: bool, profile: bool, trace: bool) -> Instruments {
    telemetry as Instruments * TELEMETRY
        + profile as Instruments * PROFILE
        + trace as Instruments * TRACE
}

/// The instruments `spec` configures.
fn configured(spec: &ScenarioSpec) -> Instruments {
    subset(
        spec.telemetry.is_some(),
        spec.profile.is_some(),
        spec.trace.is_some(),
    )
}

/// The instruments whose artifact `outcome` carries.
fn carried(o: &ArchOutcome) -> Instruments {
    subset(
        o.telemetry.is_some(),
        o.profiling.is_some(),
        o.trace.is_some(),
    )
}

/// `spec` with only the instruments in `armed` left on.
fn arm(spec: &ScenarioSpec, armed: Instruments) -> ScenarioSpec {
    let mut spec = spec.clone();
    if armed & TELEMETRY == 0 {
        spec.telemetry = None;
    }
    if armed & PROFILE == 0 {
        spec.profile = None;
    }
    if armed & TRACE == 0 {
        spec.trace = None;
    }
    spec
}

fn instruments_name(armed: Instruments) -> String {
    let names = [
        (TELEMETRY, "telemetry"),
        (PROFILE, "profile"),
        (TRACE, "trace"),
    ];
    let on: Vec<&str> = names
        .iter()
        .filter(|(bit, _)| armed & bit != 0)
        .map(|&(_, name)| name)
        .collect();
    if on.is_empty() {
        "bare".into()
    } else {
        on.join("+")
    }
}

/// How a cell's nodes are built.
enum Run {
    /// `run_architecture`: the spec's architecture at its own
    /// configuration, honest peers.
    Architecture,
    /// `run_gossip`: push gossip under `config`, with `behavior` deciding
    /// who is honest; `label` names the pair in the cell id.
    Gossip {
        label: String,
        config: GossipConfig,
        behavior: fn(NodeId) -> Behavior,
    },
}

/// A predicate on a cell's reference run.
type Expect = fn(&ArchOutcome) -> Result<(), String>;

/// One row of the matrix.
pub struct Cell {
    /// `family/name`; the family is the `suite::test` that checks the
    /// cell.
    pub name: String,
    pub spec: ScenarioSpec,
    run: Run,
    /// The instrument subsets run on every engine configuration; the
    /// reference arms all of the spec's instruments.
    instruments: Vec<Instruments>,
    /// Cluster shard counts, each run under every placement.
    pub shards: Vec<usize>,
    placements: Vec<Placement>,
    expect: Expect,
}

impl Cell {
    /// The spec at `shards` [1, 2, 4, 7] round-robin, run as its
    /// architecture with its own instruments, and required to deliver.
    fn new(name: impl Into<String>, spec: ScenarioSpec) -> Self {
        Cell {
            name: name.into(),
            instruments: vec![configured(&spec)],
            spec,
            run: Run::Architecture,
            shards: vec![1, 2, 4, 7],
            placements: vec![Placement::RoundRobin],
            expect: live,
        }
    }

    fn gossip(
        mut self,
        label: &str,
        config: GossipConfig,
        behavior: fn(NodeId) -> Behavior,
    ) -> Self {
        self.run = Run::Gossip {
            label: label.into(),
            config,
            behavior,
        };
        self
    }

    fn shards(mut self, shards: &[usize]) -> Self {
        self.shards = shards.to_vec();
        self
    }

    fn placements(mut self, placements: &[Placement]) -> Self {
        self.placements = placements.to_vec();
        self
    }

    fn instruments(mut self, instruments: &[Instruments]) -> Self {
        self.instruments = instruments.to_vec();
        self
    }

    fn expect(mut self, expect: Expect) -> Self {
        self.expect = expect;
        self
    }

    pub fn family(&self) -> &str {
        self.name.split('/').next().unwrap_or_default()
    }

    /// The cell as the golden list pins it: everything that decides what
    /// runs and against what.
    pub fn id(&self) -> String {
        let s = &self.spec;
        let mut id = format!(
            "{}: {} n={} seed={:#x} rate={} secs={}",
            self.name,
            s.arch,
            s.n,
            s.seed,
            s.plan.rate_per_sec,
            s.plan.duration.as_secs_f64()
        );
        let features = [
            (s.churn.is_some(), "churn"),
            (s.plan.flash.is_some(), "flash"),
            (s.faults.partition.is_some(), "partition"),
            (s.faults.oneway.is_some(), "oneway"),
            (s.faults.delay.is_some(), "delay"),
            (s.mobility.is_some(), "mobility"),
            (s.membership, "membership"),
            (s.net.loss_probability() > 0.0, "loss"),
            (s.net.min_latency() == SimDuration::ZERO, "zero-latency"),
        ];
        for (on, feature) in features {
            if on {
                write!(id, " {feature}").unwrap();
            }
        }
        let run = match &self.run {
            Run::Architecture => "arch".to_string(),
            Run::Gossip { label, .. } => format!("gossip {label}"),
        };
        let instruments: Vec<String> = self
            .instruments
            .iter()
            .map(|&i| instruments_name(i))
            .collect();
        let placements: Vec<&str> = self.placements.iter().map(|p| p.name()).collect();
        write!(
            id,
            " | {run} | {} | shards {:?} x {}",
            instruments.join(","),
            self.shards,
            placements.join(",")
        )
        .unwrap();
        id
    }

    /// The cell's spec as `at` runs it.
    fn spec_at(&self, at: RunAt) -> ScenarioSpec {
        arm(&self.spec, at.armed)
            .with_shards(at.shards.unwrap_or(1))
            .with_placement(at.placement)
    }

    fn run_at(&self, at: RunAt) -> ArchOutcome {
        let spec = self.spec_at(at);
        let engine = match at.shards {
            None => EngineKind::Sequential,
            Some(_) => EngineKind::Cluster,
        };
        match &self.run {
            Run::Architecture => run_architecture(&spec, engine),
            Run::Gossip {
                config, behavior, ..
            } => run_gossip(&spec, engine, config.clone(), *behavior),
        }
    }
}

/// One run of a cell: the instruments armed, and the cluster's shard
/// count and placement (`None` shards: the sequential engine).
#[derive(Debug, Clone, Copy)]
struct RunAt {
    armed: Instruments,
    shards: Option<usize>,
    placement: Placement,
}

impl std::fmt::Display for RunAt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let armed = instruments_name(self.armed);
        match self.shards {
            None => write!(f, "sequential {armed}"),
            Some(s) => write!(f, "cluster {s} shards {} {armed}", self.placement.name()),
        }
    }
}

/// Why a cell failed.
enum Failure {
    /// The reference run did not do what the cell requires of it.
    Expectation(String),
    /// A run carried other artifacts than its instruments arm.
    Instruments { at: RunAt, carried: Instruments },
    /// A run diverged from the reference.
    Diverged { at: RunAt, divergence: Divergence },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Expectation(what) => write!(f, "reference run: {what}"),
            Failure::Instruments { at, carried } => {
                write!(f, "{at}: carried {}", instruments_name(*carried))
            }
            Failure::Diverged { at, divergence } => write!(f, "{at}: {divergence}"),
        }
    }
}

/// Runs every configuration of `cell` and compares each with the
/// sequential reference run.
fn check(cell: &Cell) -> Result<(), Failure> {
    let placement = cell.placements[0];
    let reference = cell.run_at(RunAt {
        armed: configured(&cell.spec),
        shards: None,
        placement,
    });
    (cell.expect)(&reference).map_err(Failure::Expectation)?;
    let compare = |at: RunAt| {
        let got = cell.run_at(at);
        let carried = carried(&got);
        // Profiling without telemetry counts no telemetry hook calls.
        let stray_calls = carried & TELEMETRY == 0
            && got
                .profiling
                .as_ref()
                .is_some_and(|p| p.work.probe_calls != 0);
        if carried != at.armed || stray_calls {
            return Err(Failure::Instruments { at, carried });
        }
        match first_divergence(&reference, &got) {
            Some(divergence) => Err(Failure::Diverged { at, divergence }),
            None => Ok(()),
        }
    };
    for &armed in &cell.instruments {
        if armed != configured(&cell.spec) {
            compare(RunAt {
                armed,
                shards: None,
                placement,
            })?;
        }
        for &shards in &cell.shards {
            // One shard places every node alike.
            let placements = if shards == 1 {
                &cell.placements[..1]
            } else {
                &cell.placements[..]
            };
            for &placement in placements {
                compare(RunAt {
                    armed,
                    shards: Some(shards),
                    placement,
                })?;
            }
        }
    }
    Ok(())
}

/// Checks every cell of `family`, reporting each failure.
pub fn check_family(family: &str) {
    let cells: Vec<Cell> = cells()
        .into_iter()
        .filter(|c| c.family() == family)
        .collect();
    assert!(!cells.is_empty(), "no {family} cells");
    let mut failures = String::new();
    for cell in &cells {
        if let Err(failure) = check(cell) {
            writeln!(failures, "{}: {failure}", cell.name).unwrap();
            if let Some(path) = repro(cell, &failure) {
                writeln!(failures, "  replay with `fed-experiments parity {path}`").unwrap();
            }
        }
    }
    assert!(failures.is_empty(), "{family} cells failed:\n{failures}");
}

/// Writes the failing run's spec as a scenario file whose own shard
/// count is the failing one, when the cell runs the architecture's own
/// configuration and the spec is representable.
fn repro(cell: &Cell, failure: &Failure) -> Option<String> {
    let (Run::Architecture, Failure::Diverged { at, .. } | Failure::Instruments { at, .. }) =
        (&cell.run, failure)
    else {
        return None;
    };
    let toml = to_toml(&cell.spec_at(*at)).ok()?;
    let name = cell.name.replace(['/', '.', ':'], "_");
    let path = std::env::temp_dir().join(format!("fed_parity_repro_{name}.toml"));
    std::fs::write(&path, toml).ok()?;
    Some(path.display().to_string())
}

// ---------------------------------------------------------------------------
// Spec builders
// ---------------------------------------------------------------------------

/// The one spec builder: the standard workload of `arch` at `n` nodes
/// publishing `rate` events/s for `secs` seconds after a 1 s warmup.
pub fn workload(arch: Architecture, n: usize, seed: u64, rate: f64, secs: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard(arch, n, seed);
    spec.plan = PubPlan {
        rate_per_sec: rate,
        duration: SimTime::from_secs(secs),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: None,
    };
    spec
}

/// Sessions of `session` seconds and 1 s downtimes for `fraction` of the
/// nodes, over `secs` seconds after a 1 s warmup.
fn churn(session: f64, fraction: f64, secs: u64) -> Option<ChurnPlan> {
    Some(ChurnPlan {
        mean_session_secs: session,
        mean_downtime_secs: 1.0,
        churning_fraction: fraction,
        duration: SimTime::from_secs(secs),
        warmup: SimTime::from_secs(1),
    })
}

/// A burst onto a 3.0-Zipf hot topic at `at_ms`, `rate_factor` times
/// the base rate.
fn flash(at_ms: u64, rate_factor: f64) -> Option<FlashCrowd> {
    Some(FlashCrowd {
        at: SimTime::from_millis(at_ms),
        topic_zipf_s: 3.0,
        rate_factor,
    })
}

fn faults(
    partition: Option<(u64, u64, u32)>,
    oneway: Option<(u64, u64, u32)>,
    delay: Option<(u64, u64, u64)>,
) -> FaultSchedule {
    FaultSchedule {
        partition: partition.map(|(at, heal, split)| PartitionFault {
            at: SimTime::from_millis(at),
            heal: SimTime::from_millis(heal),
            split,
        }),
        oneway: oneway.map(|(at, until, split)| OnewayFault {
            at: SimTime::from_millis(at),
            until: SimTime::from_millis(until),
            split,
        }),
        delay: delay.map(|(at, until, extra)| DelayFault {
            at: SimTime::from_millis(at),
            until: SimTime::from_millis(until),
            extra: SimDuration::from_millis(extra),
        }),
    }
}

fn segment(at_ms: u64, extra_ms: u64, disconnected: bool) -> MobilitySegment {
    MobilitySegment {
        at: SimTime::from_millis(at_ms),
        extra: SimDuration::from_millis(extra_ms),
        disconnected,
    }
}

/// The telemetry-family workload: 12 events/s for 3 s, optionally under
/// churn and a 3× flash crowd at 2.5 s.
fn busy(arch: Architecture, n: usize, with_churn: bool, with_flash: bool) -> ScenarioSpec {
    let mut spec = workload(arch, n, 42, 12.0, 3);
    if with_flash {
        spec.plan.flash = flash(2_500, 3.0);
    }
    if with_churn {
        spec.churn = churn(2.0, 0.25, 3);
    }
    spec
}

/// A drawn small scenario: 8 events/s of 32-byte payloads for 2 s after
/// a 0.5 s warmup, optionally under churn.
fn drawn(arch: Architecture, n: usize, seed: u64, with_churn: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard(arch, n, seed);
    spec.plan = PubPlan {
        rate_per_sec: 8.0,
        duration: SimTime::from_secs(2),
        topic_zipf_s: 1.0,
        payload_bytes: 32,
        warmup: SimTime::from_millis(500),
        flash: None,
    };
    if with_churn {
        spec.churn = Some(ChurnPlan {
            mean_session_secs: 2.0,
            mean_downtime_secs: 1.0,
            churning_fraction: 0.2,
            duration: SimTime::from_secs(2),
            warmup: SimTime::from_millis(500),
        });
    }
    spec
}

/// Largest population a library scenario runs at in the matrix: the
/// downscaled twin of `fed-experiments parity @all`, which CI runs at
/// full size.
const LIBRARY_NODES: usize = 48;

/// A library spec at [`LIBRARY_NODES`] nodes at most. Every fault and
/// mobility split scales with the population, so it cuts off the same
/// share of the nodes as at full size and stays inside `1..nodes`.
fn downscaled(mut spec: ScenarioSpec) -> ScenarioSpec {
    let (from, to) = (spec.n, spec.n.min(LIBRARY_NODES));
    let scale = |split: &mut u32| *split = (*split as usize * to / from).clamp(1, to - 1) as u32;
    let faults = &mut spec.faults;
    faults
        .partition
        .iter_mut()
        .for_each(|f| scale(&mut f.split));
    faults.oneway.iter_mut().for_each(|f| scale(&mut f.split));
    spec.mobility.iter_mut().for_each(|m| scale(&mut m.split));
    spec.n = to;
    spec
}

/// The sweep seed of the generated cells.
const FUZZ_SEED: u64 = 0xF0D5;
/// Generated cells; each index also picks the architecture and the
/// shard count, so the prefix covers all eight architectures.
pub const FUZZ_CASES: u64 = 16;

/// The generated scenario at `index`, on the architecture it picks.
pub fn generated(index: u64) -> ScenarioSpec {
    generated_spec(FUZZ_SEED, index).with_arch(Architecture::ALL[index as usize % 8])
}

/// The E-BIAS population: a tenth free-riders, a tenth inflators, the
/// rest honest.
fn bias_mix(id: NodeId) -> Behavior {
    match id.index() {
        0..12 => Behavior::FreeRider {
            fanout_cap: 1.0,
            advertised_benefit_scale: 0.1,
        },
        12..24 => Behavior::Inflator {
            advertised_contribution_scale: 5.0,
        },
        _ => Behavior::Honest,
    }
}

pub fn honest(_: NodeId) -> Behavior {
    Behavior::Honest
}

// ---------------------------------------------------------------------------
// Predicates on the reference run
// ---------------------------------------------------------------------------

fn anything(_: &ArchOutcome) -> Result<(), String> {
    Ok(())
}

fn live(o: &ArchOutcome) -> Result<(), String> {
    ensure(o.total_deliveries() > 0, "dead scenario proves nothing")
}

/// A fault that cuts links fired: some message was lost.
fn loses(o: &ArchOutcome) -> Result<(), String> {
    live(o)?;
    let lost: u64 = o.stats.iter().map(|s| s.msgs_lost).sum();
    ensure(lost > 0, "no message lost: the fault never fired")
}

fn ensure(holds: bool, what: &str) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// The detector observed crashes and confirmed them.
fn detects(o: &ArchOutcome) -> Result<(), String> {
    live(o)?;
    ensure(o.total_swim_observations() > 0, "no detector traffic")?;
    let series = o.membership_series(SimDuration::from_millis(500));
    ensure(series.total_detections() > 0, "no crash was confirmed")
}

/// Nobody crashed, yet the detector suspected nodes and a refutation
/// wave revived them.
fn false_suspicions(o: &ArchOutcome) -> Result<(), String> {
    live(o)?;
    let series = o.membership_series(SimDuration::from_millis(500));
    ensure(
        series.total_false_suspicions() > 0,
        "nothing looked like failure",
    )?;
    ensure(series.total_refutes() > 0, "no refutation wave")
}

/// The flash crowd pushed the hybrid from broker to gossip, not before
/// the burst.
fn hands_over(o: &ArchOutcome) -> Result<(), String> {
    live(o)?;
    let at = o.handover_time().ok_or("no handover")?;
    ensure(at >= SimTime::from_secs(2), "handover before the burst")
}

fn every_node_hands_over(o: &ArchOutcome) -> Result<(), String> {
    hands_over(o)?;
    ensure(
        o.handovers.iter().all(Option::is_some),
        "a node never switched",
    )
}

fn series_live(o: &ArchOutcome) -> Result<(), String> {
    let series = o.telemetry.as_ref().ok_or("no telemetry")?;
    ensure(
        series.windows.iter().any(|w| w.msgs_sent > 0),
        "series never saw a send",
    )?;
    ensure(
        series.windows.iter().any(|w| w.latency_hist.count() > 0),
        "series never saw a delivery latency",
    )
}

fn work_live(o: &ArchOutcome) -> Result<(), String> {
    let work = o.profiling.as_ref().ok_or("no profile")?.work;
    ensure(
        work.events > 0 && work.queue_pops > 0,
        "profiler saw no events",
    )?;
    ensure(work.msgs_sent > 0, "profiler saw no sends")?;
    ensure(
        work.queue_pushes >= work.queue_pops,
        "popped more than was pushed",
    )?;
    let telemetry = o.telemetry.is_some();
    ensure(
        (work.probe_calls > 0) == telemetry,
        "probe calls without telemetry or none with it",
    )
}

fn traced(o: &ArchOutcome) -> Result<(), String> {
    ensure(
        o.trace.as_ref().is_some_and(|h| !h.is_empty()),
        "nothing was traced",
    )
}

fn kinds(o: &ArchOutcome) -> BTreeSet<HopKind> {
    o.trace.iter().flatten().map(|h| h.kind).collect()
}

/// Each architecture tags its hops with its own vocabulary.
fn hop_vocabulary(o: &ArchOutcome) -> Result<(), String> {
    use HopKind::*;
    traced(o)?;
    let expected: &[HopKind] = match o.arch {
        Architecture::FairGossip | Architecture::StaticGossip => &[GossipPush],
        Architecture::Broker | Architecture::Hybrid => &[BrokerIngress, BrokerNotify],
        Architecture::Scribe => &[TreeToRoot, TreeEdge],
        Architecture::Dks => &[DhtRoute, GroupFlood],
        Architecture::Dam => &[GossipHandoff, GossipPush],
        Architecture::SplitStream => &[StripeToRoot, StripeEdge],
    };
    let seen = kinds(o);
    let missing: Vec<_> = expected.iter().filter(|k| !seen.contains(k)).collect();
    ensure(
        missing.is_empty(),
        &format!("no {missing:?} hops among {seen:?}"),
    )
}

/// Scheduled faults drop some traced hops; the rest still deliver.
fn drops_and_delivers(o: &ArchOutcome) -> Result<(), String> {
    traced(o)?;
    let hops = o.trace.as_ref().ok_or("no trace")?;
    ensure(
        hops.iter().any(|h| h.deliver_time.is_none()),
        "no dropped hop",
    )?;
    ensure(
        hops.iter().any(|h| h.deliver_time.is_some()),
        "no delivered hop",
    )
}

/// The hybrid's trace shows both regimes: broker hops, then gossip.
fn both_regimes(o: &ArchOutcome) -> Result<(), String> {
    traced(o)?;
    ensure(o.handover_time().is_some(), "no handover")?;
    let seen = kinds(o);
    ensure(seen.contains(&HopKind::BrokerNotify), "no broker regime")?;
    ensure(seen.contains(&HopKind::GossipPush), "no gossip regime")
}

fn every_artifact_live(o: &ArchOutcome) -> Result<(), String> {
    live(o)?;
    series_live(o)?;
    work_live(o)?;
    traced(o)?;
    let work = o.profiling.as_ref().ok_or("no profile")?.work;
    ensure(work.msgs_lost < work.msgs_sent, "every message was lost")
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

/// Every cell of the matrix.
pub fn cells() -> Vec<Cell> {
    use Architecture::*;
    let mut cells = Vec::new();
    let fair4 = || GossipConfig::fair(4, 16);
    let placements = &Placement::ALL;

    // The paper's gossip configurations.
    cells.push(
        Cell::new(
            "cross_engine::cross_engine_determinism_1k_nodes/fair-1000",
            workload(FairGossip, 1000, 42, 10.0, 4),
        )
        .gossip("fair(4,16,100ms)", fair4(), honest)
        .shards(&[1, 2, 4]),
    );
    let mut churny = workload(FairGossip, 200, 42, 10.0, 4);
    churny.churn = churn(3.0, 0.2, 4);
    cells.push(
        Cell::new(
            "cross_engine::cross_engine_determinism_under_churn/fair-churn-200",
            churny,
        )
        .gossip("fair(4,16,100ms)", fair4(), honest),
    );
    let mut zero = workload(FairGossip, 96, 42, 10.0, 2);
    zero.net = NetworkModel::reliable(LatencyModel::Constant(SimDuration::ZERO));
    let mut zero_churn = zero.clone();
    zero_churn.churn = churn(2.0, 0.25, 2);
    cells.push(
        Cell::new(
            "cross_engine::zero_lookahead_floor_parity_across_shard_counts/zero-latency-96",
            zero,
        )
        .gossip("fair(4,16,100ms)", fair4(), honest),
    );
    cells.push(
        Cell::new(
            "cross_engine::zero_lookahead_floor_parity_under_churn/zero-latency-churn-96",
            zero_churn,
        )
        .gossip("fair(4,16,100ms)", fair4(), honest),
    );
    for (fanout, msg_size) in [(false, false), (true, false), (false, true), (true, true)] {
        let mut config = t_arch_config(GossipConfig::fair_expressive);
        config.adapt_fanout = fanout;
        config.adapt_msg_size = msg_size;
        if !fanout && !msg_size {
            config.ratio_correction_gain = 0.0;
        }
        let label = format!("fig3 F={fanout} N={msg_size}");
        let name = format!(
            "cross_engine::fig3_adaptation_variants_parity_across_shard_counts/F{}-N{}-96",
            fanout as u8, msg_size as u8
        );
        cells.push(
            Cell::new(name, workload(FairGossip, 96, 42, 10.0, 4)).gossip(&label, config, honest),
        );
    }
    for gain in [0.0, 0.2] {
        let mut config = t_arch_config(GossipConfig::fair);
        config.ratio_correction_gain = gain;
        let label = format!("ablation gain={gain}");
        let name = format!("cross_engine::ablation_gains_parity_across_shard_counts/gain{gain}-96");
        cells.push(
            Cell::new(name, workload(FairGossip, 96, 42, 10.0, 4)).gossip(&label, config, honest),
        );
    }
    cells.push(
        Cell::new(
            "cross_engine::bias_behavior_mix_parity_across_shard_counts/bias-mix-128",
            workload(FairGossip, 128, 42, 10.0, 4),
        )
        .gossip("bias mix", t_arch_config(GossipConfig::fair), bias_mix),
    );

    // The structured baselines, under every placement.
    for (arch, n) in [
        (Broker, 192),
        (Scribe, 192),
        (Dks, 192),
        (SplitStream, 192),
        (Dam, 128),
    ] {
        let name = format!(
            "cross_engine::{0}_parity_across_shard_counts/{0}-{n}",
            arch.name()
        );
        cells.push(Cell::new(name, workload(arch, n, 42, 10.0, 3)).placements(placements));
    }
    for arch in [Broker, Scribe, Dks, SplitStream] {
        let mut s = workload(arch, 128, 42, 10.0, 3);
        s.churn = churn(2.0, 0.25, 3);
        let name = format!(
            "cross_engine::baseline_parity_under_churn/{}-churn-128",
            arch.name()
        );
        cells.push(Cell::new(name, s).placements(placements));
    }

    // The SWIM detector, fault injection, mobility and the hybrid's
    // handover.
    let detector =
        |arch, n, seed, rate, secs| workload(arch, n, seed, rate, secs).with_membership();
    let mut s = detector(FairGossip, 128, 42, 10.0, 4);
    s.churn = churn(1.5, 0.25, 3);
    cells.push(
        Cell::new("robustness::swim_parity_under_mega_churn/mega-churn-128", s).expect(detects),
    );
    let s = detector(FairGossip, 96, 7, 10.0, 4).with_faults(faults(
        Some((1_500, 3_500, 32)),
        None,
        None,
    ));
    cells.push(
        Cell::new(
            "robustness::swim_parity_through_partition_heal/partition-heal-96",
            s,
        )
        .expect(false_suspicions),
    );
    let mut s = detector(StaticGossip, 80, 11, 10.0, 4);
    s.churn = churn(2.0, 0.15, 3);
    let s = s.with_faults(faults(
        None,
        Some((1_200, 2_200, 16)),
        Some((2_500, 3_500, 40)),
    ));
    cells.push(Cell::new(
        "robustness::fault_vocabulary_parity_with_detector/oneway-delay-80",
        s,
    ));
    let mut s = detector(Hybrid, 64, 3, 20.0, 5);
    s.plan.flash = flash(2_000, 12.0);
    cells.push(
        Cell::new(
            "robustness::hybrid_handover_parity_under_flash_crowd/hybrid-flash-64",
            s,
        )
        .expect(every_node_hands_over),
    );
    let s = detector(FairGossip, 72, 13, 10.0, 4).with_mobility(MobilityTrace {
        split: 24,
        period: Some(SimDuration::from_millis(2_500)),
        segments: vec![segment(0, 0, false), segment(1_200, 0, true)],
    });
    cells.push(
        Cell::new(
            "robustness::swim_parity_under_mobility_blackouts/mobility-blackout-72",
            s,
        )
        .expect(false_suspicions),
    );
    let mut s = detector(Hybrid, 64, 9, 20.0, 5);
    s.plan.flash = flash(2_000, 12.0);
    let s = s.with_mobility(MobilityTrace {
        split: 16,
        period: None,
        segments: vec![segment(1_500, 25, false), segment(4_000, 0, true)],
    });
    cells.push(
        Cell::new(
            "robustness::hybrid_handover_parity_under_mobility/hybrid-mobility-64",
            s,
        )
        .expect(hands_over),
    );
    let mut s = detector(FairGossip, 64, 5, 10.0, 4)
        .with_telemetry(TelemetrySpec::default().with_window(SimDuration::from_millis(500)));
    s.churn = churn(1.5, 0.2, 3);
    cells.push(
        Cell::new(
            "robustness::detection_telemetry_parity/detection-telemetry-64",
            s,
        )
        .shards(&[1, 4])
        .expect(detects),
    );

    // Telemetry series at 250 ms windows.
    let window = TelemetrySpec::default().with_window(SimDuration::from_millis(250));
    let series = |arch, n, with_churn, with_flash| {
        busy(arch, n, with_churn, with_flash).with_telemetry(window)
    };
    cells.push(
        Cell::new(
            "telemetry_parity::fair_gossip_series_parity_across_shard_counts/fair-gossip-96",
            series(FairGossip, 96, false, false),
        )
        .expect(series_live),
    );
    for (arch, test) in [(FairGossip, "fair_gossip"), (SplitStream, "splitstream")] {
        let name = format!(
            "telemetry_parity::{test}_series_parity_under_churn_and_flash_crowd/{}-churn-flash-96",
            arch.name()
        );
        cells.push(Cell::new(name, series(arch, 96, true, true)).expect(series_live));
    }
    let broker = series(Broker, 96, false, true);
    cells.push(
        Cell::new(
            "telemetry_parity::broker_hotspot_series_parity/broker-flash-96",
            broker,
        )
        .shards(&[2, 7])
        .expect(series_live),
    );
    for arch in Architecture::ALL {
        let s = series(arch, 64, true, true);
        // Fair gossip also runs bare: telemetry never perturbs the run.
        let cell = if arch == FairGossip {
            Cell::new(
                "telemetry_parity::telemetry_never_perturbs_the_run/fair-gossip-churn-flash-64",
                s,
            )
            .instruments(&[BARE, TELEMETRY])
        } else {
            let name = format!(
                "telemetry_parity::every_architecture_series_parity_at_three_shards/{}-churn-flash-64",
                arch.name()
            );
            Cell::new(name, s)
        };
        cells.push(cell.shards(&[3]).expect(series_live));
    }
    let s = timeseries_spec(Dam, 64, 42);
    cells.push(
        Cell::new(
            "telemetry_parity::experiment_scenario_series_parity/timeseries-dam-64",
            s,
        )
        .shards(&[2, 7])
        .expect(series_live),
    );

    // Profiler work counters, telemetry riding along.
    let profiled = |arch, n, with_churn, with_flash| {
        busy(arch, n, with_churn, with_flash)
            .with_telemetry(TelemetrySpec::default())
            .with_profile(ProfileSpec::default())
    };
    cells.push(
        Cell::new(
            "profile_parity::fair_gossip_work_parity_across_shard_counts/fair-gossip-96",
            profiled(FairGossip, 96, false, false),
        )
        .expect(work_live),
    );
    for (arch, test) in [(FairGossip, "fair_gossip"), (SplitStream, "splitstream")] {
        let name = format!(
            "profile_parity::{test}_work_parity_under_churn_and_flash_crowd/{}-churn-flash-96",
            arch.name()
        );
        cells.push(Cell::new(name, profiled(arch, 96, true, true)).expect(work_live));
    }
    let broker = profiled(Broker, 96, false, true);
    let cell = Cell::new(
        "profile_parity::work_parity_is_placement_invariant/broker-flash-96",
        broker,
    )
    .shards(&[4])
    .placements(placements);
    cells.push(cell.expect(work_live));
    for arch in Architecture::ALL {
        let s = profiled(arch, 64, true, true);
        // Fair gossip also runs unprofiled: profiling never perturbs the
        // run.
        let cell = if arch == FairGossip {
            Cell::new(
                "profile_parity::profiling_never_perturbs_the_run/fair-gossip-churn-flash-64",
                s,
            )
            .instruments(&[TELEMETRY | PROFILE, TELEMETRY])
        } else {
            let name = format!(
                "profile_parity::every_architecture_work_parity_at_three_shards/{}-churn-flash-64",
                arch.name()
            );
            Cell::new(name, s)
        };
        cells.push(cell.shards(&[3]).expect(work_live));
    }

    // Every instrument subset, on the sequential engine and the cluster:
    // each is passive and produces the artifact it produces alone.
    let s = profiled(FairGossip, 64, true, true).with_trace(TraceSpec::default());
    let lattice: Vec<Instruments> = (0..8).collect();
    let cell = Cell::new("instrument_independence::every_instrument_subset_is_passive_and_independent/fair-gossip-churn-flash-64", s)
        .instruments(&lattice)
        .shards(&[1, 4]);
    cells.push(cell.expect(every_artifact_live));

    // Merged hop traces.
    let hops = |arch, n, seed| workload(arch, n, seed, 10.0, 3).with_trace(TraceSpec::default());
    for arch in Architecture::ALL {
        let name = format!(
            "trace_parity::every_architecture_trace_parity_with_distinct_hop_kinds/{}-48",
            arch.name()
        );
        cells.push(Cell::new(name, hops(arch, 48, 42)).expect(hop_vocabulary));
    }
    let mut s = hops(FairGossip, 80, 7);
    s.plan.flash = flash(2_500, 3.0);
    s.churn = churn(2.0, 0.25, 3);
    cells.push(
        Cell::new(
            "trace_parity::trace_parity_under_churn_and_flash_crowd/churn-flash-80",
            s,
        )
        .expect(traced),
    );
    let mut s = hops(FairGossip, 64, 11);
    s.churn = churn(2.0, 0.15, 3);
    let s = s.with_faults(faults(
        Some((1_200, 2_000, 32)),
        Some((2_200, 2_800, 16)),
        Some((2_800, 3_400, 40)),
    ));
    cells.push(
        Cell::new(
            "trace_parity::trace_parity_under_scheduled_faults/faults-64",
            s,
        )
        .expect(drops_and_delivers),
    );
    cells.push(
        Cell::new(
            "trace_parity::trace_parity_is_sampling_invariant/fair-gossip-64",
            hops(FairGossip, 64, 5),
        )
        .expect(traced),
    );
    cells.push(
        Cell::new(
            "trace_parity::trace_parity_is_sampling_invariant/sampled-64",
            sampled_spec(),
        )
        .expect(traced),
    );
    let mut s = hops(Hybrid, 64, 3);
    s.plan.rate_per_sec = 20.0;
    s.plan.duration = SimTime::from_secs(5);
    s.plan.flash = flash(2_000, 12.0);
    let s = s.with_faults(faults(Some((3_000, 4_000, 32)), None, None));
    cells.push(
        Cell::new(
            "trace_parity::hybrid_partition_handover_instant_parity/hybrid-partition-64",
            s,
        )
        .shards(&[1, 4])
        .expect(both_regimes),
    );

    // A prefix of the generated workload family the sweep draws from:
    // population, appetite, latency model, loss, churn, faults, mobility.
    for index in 0..FUZZ_CASES {
        let shards = [2, 4, 7][index as usize % 3];
        let s = generated(index);
        let name = format!("parity_matrix::generated_cells/{index}-{}", s.arch.name());
        cells.push(Cell::new(name, s).shards(&[shards]).expect(anything));
    }

    // Randomly drawn small scenarios (arch index, nodes, seed, shards,
    // churn), frozen here as drawn.
    for (arch, n, seed, shards, with_churn) in DRAWN {
        let s = drawn(Architecture::ALL[arch], n, seed, with_churn);
        let name = format!(
            "scenario_properties::randomized_scenarios_are_engine_agnostic/{}-{n}-{seed:x}",
            s.arch.name()
        );
        cells.push(Cell::new(name, s).shards(&[shards]).expect(anything));
    }
    for (arch, n, seed, shards, with_churn) in DRAWN_PROFILED {
        let s = drawn(Architecture::ALL[arch], n, seed, with_churn)
            .with_profile(ProfileSpec::default());
        let name = format!(
            "profile_parity::randomized_work_counters_are_engine_agnostic/{}-{n}-{seed:x}",
            s.arch.name()
        );
        cells.push(Cell::new(name, s).shards(&[shards]).expect(anything));
    }

    // The scenario library at a reduced population, at the parity gate's
    // shard counts plus the file's own, under the file's placement. A
    // cell whose faults or mobility cut links must lose messages.
    for path in library().expect("scenario library") {
        let file = load_file(&path).expect("library scenario");
        let stem = path
            .file_stem()
            .expect("file stem")
            .to_string_lossy()
            .into_owned();
        let shards = parity_shards_for(&file.spec);
        let placement = file.spec.placement;
        let spec = downscaled(file.spec);
        let cuts = spec.faults.partition.is_some()
            || spec.faults.oneway.is_some()
            || spec
                .mobility
                .as_ref()
                .is_some_and(|m| m.segments.iter().any(|seg| seg.disconnected));
        let cell = Cell::new(format!("parity_matrix::library_cells/{stem}"), spec);
        cells.push(
            cell.shards(&shards)
                .placements(&[placement])
                .expect(if cuts { loses } else { anything }),
        );
    }
    cells
}

/// The sampled twin of the sampling test's `fair-gossip-64` cell: 30 %
/// of the events under salt `0xFED`.
pub fn sampled_spec() -> ScenarioSpec {
    workload(Architecture::FairGossip, 64, 5, 10.0, 3).with_trace(TraceSpec {
        sample_rate: 0.3,
        salt: 0xFED,
        export: None,
    })
}

/// Drawn unprofiled cells: (architecture index, nodes, seed, shards,
/// churn).
const DRAWN: [(usize, usize, u64, usize, bool); 12] = [
    (6, 49, 0x39d92b793aa138fe, 7, false),
    (3, 44, 0x3fe14d8462c719f3, 8, true),
    (2, 62, 0xb7ef287ab1ae9123, 1, false),
    (7, 29, 0x6227c79d0294d227, 2, true),
    (2, 19, 0x7fc7c6d3b468e31b, 1, true),
    (2, 21, 0xfa4495aeff335d1f, 8, true),
    (4, 12, 0xad8fe50ba26719ec, 2, false),
    (3, 59, 0x26e071089aa2f566, 4, false),
    (6, 22, 0xb6dbb98bbe549e9d, 4, false),
    (3, 17, 0xabd0319003824a2d, 6, true),
    (1, 30, 0x574d19446037b488, 7, false),
    (1, 19, 0x1ec509d6daf010de, 3, true),
];

/// Drawn profiled cells, in [`DRAWN`]'s layout.
const DRAWN_PROFILED: [(usize, usize, u64, usize, bool); 10] = [
    (0, 23, 0xe243e59c20d3a700, 8, true),
    (4, 9, 0x8c2a98a5eaff0e99, 3, true),
    (6, 10, 0x85f17d1b02580a2a, 3, true),
    (5, 43, 0x707d81129e15e21c, 2, false),
    (5, 35, 0x285bf6994f1ac0a5, 3, false),
    (4, 22, 0x01253ba418a44a65, 5, false),
    (7, 47, 0xc0209b73bdcf462f, 3, false),
    (4, 21, 0x2a8493d86f955293, 7, true),
    (4, 5, 0x99e504340febe612, 8, true),
    (0, 33, 0x8d88401b6f685d09, 6, false),
];
