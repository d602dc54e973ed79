//! RUN/PARITY — execute declarative scenario files on either engine.
//!
//! The `fed-experiments` CLI accepts `run <path.toml>` (or `run @name`,
//! resolved against the repository's `scenarios/` library) and executes
//! the file through the architecture-generic harness: the sequential
//! engine when the file asks for one shard, the sharded cluster
//! otherwise. The run prints a liveness summary, the fairness tables
//! (contribution/benefit ratios *and* raw load — the paper's §3
//! distinction), the delivery-latency percentiles, and — when the file
//! enables `[telemetry]` — a per-window transient summary.
//!
//! `parity <target>` (or `parity @all` for the whole library) is the
//! determinism gate: the same file runs on the sequential engine and on
//! the cluster at shard counts {1, 4} plus the file's own shard count
//! (the configuration `run` actually uses), and every observable —
//! delivery logs, fairness ledgers, transport statistics, SWIM logs,
//! handovers, event count and every instrument artifact — must be
//! bit-identical
//! ([`first_divergence`]; a diverging run prints where it diverged). CI
//! runs `parity @all` time-boxed, so every scenario in the library is
//! continuously proven runnable *and* engine-agnostic.

use crate::harness::{run_architecture, ArchOutcome, EngineKind};
use fed_metrics::table::{fmt_f64, Table};
use fed_workload::scenario_file::{parse_scenario, ScenarioFile};
use fed_workload::ScenarioSpec;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shard counts the parity gate always sweeps on the cluster engine;
/// the scenario's own shard count is added on top (see
/// [`parity_shards_for`]) so the configuration `run` actually uses is
/// never the one configuration the gate skipped.
pub const PARITY_SHARDS: &[usize] = &[1, 4];

/// The full parity sweep for a spec: [`PARITY_SHARDS`] plus the spec's
/// own shard count, deduplicated.
pub fn parity_shards_for(spec: &ScenarioSpec) -> Vec<usize> {
    let mut shards = PARITY_SHARDS.to_vec();
    if !shards.contains(&spec.shards) {
        shards.push(spec.shards);
    }
    shards
}

/// Locates the curated scenario library.
///
/// Prefers `scenarios/` under the current directory (the normal case:
/// the runner invoked from the repository root), falling back to the
/// path relative to this crate's manifest so tests and `cargo run` from
/// a subdirectory behave identically.
pub fn scenarios_dir() -> PathBuf {
    let local = PathBuf::from("scenarios");
    if local.is_dir() {
        return local;
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .to_path_buf()
}

/// Resolves a CLI target: `@name` means `scenarios/<name>.toml`,
/// anything else is a literal path.
pub fn resolve_target(target: &str) -> PathBuf {
    match target.strip_prefix('@') {
        Some(name) => scenarios_dir().join(format!("{name}.toml")),
        None => PathBuf::from(target),
    }
}

/// Every `.toml` file in the scenario library, sorted by file name.
///
/// # Errors
///
/// Returns a message when the library directory cannot be read.
pub fn library() -> Result<Vec<PathBuf>, String> {
    let dir = scenarios_dir();
    let entries = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read scenario library {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    Ok(files)
}

/// Loads and strictly validates one scenario file.
///
/// # Errors
///
/// Returns a message carrying the path and (for parse errors) the line
/// number.
pub fn load_file(path: &Path) -> Result<ScenarioFile, String> {
    let input = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_scenario(&input).map_err(|e| format!("{}: {e}", path.display()))
}

/// The engine a spec's shard count implies for a plain `run`.
pub fn engine_for(spec: &ScenarioSpec) -> EngineKind {
    if spec.shards > 1 {
        EngineKind::Cluster
    } else {
        EngineKind::Sequential
    }
}

/// Everything `run <target>` prints, as data.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Display name (file stem or `[scenario] name`).
    pub name: String,
    /// Engine the run used.
    pub engine: EngineKind,
    /// Liveness summary (events, windows, deliveries, reliability, wall).
    pub summary: Table,
    /// Fairness over ratios and raw load.
    pub fairness: Table,
    /// Delivery-latency percentiles.
    pub latency: Table,
    /// Per-window transient summary when the file enabled telemetry.
    pub telemetry: Option<Table>,
    /// Failure-detection summary when the file armed `[membership]`.
    pub membership: Option<Table>,
    /// Profiler tables (phases, stall attribution, work counters) when
    /// the file enabled `[profile]`; empty otherwise.
    pub profile_tables: Vec<Table>,
    /// Tracing tables (delivery-tree summary, worst-stretch events,
    /// forwarding-cost attribution) when the file enabled `[trace]`;
    /// empty otherwise.
    pub trace_tables: Vec<Table>,
    /// The raw outcome, for callers that want more than tables.
    pub outcome: ArchOutcome,
}

/// Runs one parsed scenario and builds the report tables from its
/// [`RunSummary`](crate::harness::RunSummary).
pub fn run_scenario(name: &str, spec: &ScenarioSpec) -> ScenarioReport {
    let engine = engine_for(spec);
    let start = Instant::now();
    let outcome = run_architecture(spec, engine);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let s = outcome.summary();
    let or_dash = |v: Option<f64>| v.map_or_else(|| "-".into(), fmt_f64);

    let mut summary = Table::new(
        format!("RUN {name}: {} (n={})", spec.arch, spec.n),
        &[
            "engine",
            "shards",
            "events",
            "windows",
            "deliveries",
            "reliability",
            "spurious",
            "handover_ms",
            "wall_ms",
        ],
    );
    summary.row_owned(vec![
        match engine {
            EngineKind::Sequential => "sequential".to_string(),
            EngineKind::Cluster => "cluster".to_string(),
        },
        outcome.shards.to_string(),
        outcome.events.to_string(),
        outcome.windows.to_string(),
        s.deliveries.to_string(),
        fmt_f64(s.reliability),
        s.spurious.to_string(),
        s.handover
            .map_or_else(|| "-".into(), |t| t.as_millis().to_string()),
        fmt_f64(wall_ms),
    ]);

    let mut fairness = Table::new(
        format!("RUN {name}: fairness"),
        &["view", "jain", "gini", "max/min", "hottest node share"],
    );
    // The hottest-node share is a raw-load quantity; the ratio view has
    // no analogue, so that row leaves the column empty.
    fairness.row_owned(vec![
        "contribution/benefit ratio".to_string(),
        fmt_f64(s.ratio.jain),
        fmt_f64(s.ratio.gini),
        fmt_f64(s.ratio.max_min),
        "-".to_string(),
    ]);
    fairness.row_owned(vec![
        "raw load".to_string(),
        fmt_f64(s.load.jain),
        fmt_f64(s.load.gini),
        fmt_f64(s.load.max_min),
        fmt_f64(s.hottest_share),
    ]);

    let mut latency = Table::new(
        format!("RUN {name}: delivery latency (ms)"),
        &["deliveries", "mean", "p50", "p95", "p99", "max"],
    );
    latency.row_owned(vec![
        s.latency_samples.to_string(),
        fmt_f64(s.latency_mean_ms),
        or_dash(s.latency_p50_ms),
        or_dash(s.latency_p95_ms),
        or_dash(s.latency_p99_ms),
        or_dash(s.latency_max_ms),
    ]);

    let telemetry = s.transients.map(|t| {
        let mut table = Table::new(
            format!("RUN {name}: telemetry transients"),
            &[
                "windows",
                "active",
                "jain_min",
                "gini_peak",
                "peak load_max",
                "peak window msgs",
            ],
        );
        table.row_owned(vec![
            t.windows.to_string(),
            t.active.to_string(),
            or_dash(t.jain_min),
            fmt_f64(t.gini_peak),
            t.load_max_peak.to_string(),
            t.msgs_peak.to_string(),
        ]);
        table
    });

    let membership = spec.membership.then(|| {
        let d = s.detection;
        let mut t = Table::new(
            format!("RUN {name}: failure detection"),
            &[
                "observations",
                "detections",
                "latency_mean_ms",
                "false_susp",
                "refutes",
                "self_refutes",
            ],
        );
        t.row_owned(vec![
            d.observations.to_string(),
            d.detections.to_string(),
            or_dash(d.latency_mean_us.map(|us| us / 1e3)),
            d.false_suspicions.to_string(),
            d.refutes.to_string(),
            d.self_refutes.to_string(),
        ]);
        t
    });

    let profile_tables = outcome
        .profiling
        .as_ref()
        .map(|p| {
            let mut v = vec![crate::profile::phase_table(name, p)];
            if let Some(stall) = crate::profile::stall_table(name, p) {
                v.push(stall);
            }
            v.push(crate::profile::work_table(name, p));
            v
        })
        .unwrap_or_default();

    let trace_tables = outcome
        .trace
        .as_ref()
        .map(|hops| crate::trace::trace_tables(name, hops, crate::trace::direct_floor(spec)))
        .unwrap_or_default();

    ScenarioReport {
        name: name.to_string(),
        engine,
        summary,
        fairness,
        latency,
        telemetry,
        membership,
        profile_tables,
        trace_tables,
        outcome,
    }
}

/// Result of one scenario's parity gate.
#[derive(Debug)]
pub struct ParityReport {
    /// One row per engine/shard combination.
    pub table: Table,
    /// The first divergence of each cluster run that differs from the
    /// sequential run, by shard count; empty when every run matched.
    pub divergences: Vec<(usize, Divergence)>,
}

/// Where two runs of one scenario first differ: the observable, the node
/// whose record differs (`None` for a run-wide observable) and the first
/// index at which the two records differ, with both values (`-` where
/// one record ends early).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// What differs: `nodes`, `deliveries`, `ledgers`, `stats`, `swim`,
    /// `handovers`, `events`, `telemetry`, `trace` or `work`.
    pub observable: &'static str,
    /// The node whose record differs, for per-node observables.
    pub node: Option<usize>,
    /// The first differing position in that record: an entry of a
    /// node's log, a telemetry window, a hop (0 for a single value).
    pub index: usize,
    /// The first run's value there.
    pub left: String,
    /// The second run's value there.
    pub right: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} differ", self.observable)?;
        if let Some(node) = self.node {
            write!(f, " at node {node}")?;
        }
        write!(f, ", index {}: {} vs {}", self.index, self.left, self.right)
    }
}

/// The first position at which `a` and `b` differ, if any.
fn first_in<T: PartialEq + std::fmt::Debug>(
    observable: &'static str,
    node: Option<usize>,
    a: &[T],
    b: &[T],
) -> Option<Divergence> {
    let index = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))?;
    let show = |s: &[T]| {
        s.get(index)
            .map_or_else(|| "-".into(), |v| format!("{v:?}"))
    };
    Some(Divergence {
        observable,
        node,
        index,
        left: show(a),
        right: show(b),
    })
}

/// The first node whose `record` differs, at its first differing entry.
fn first_per_node<R, T: PartialEq + std::fmt::Debug>(
    observable: &'static str,
    a: &[R],
    b: &[R],
    record: impl Fn(&R) -> &[T],
) -> Option<Divergence> {
    a.iter()
        .zip(b)
        .enumerate()
        .find_map(|(node, (x, y))| first_in(observable, Some(node), record(x), record(y)))
}

/// Where two outcomes of the same scenario first differ, or `None` when
/// they describe the same run.
///
/// The virtual world is compared in a fixed order — per-node delivery
/// logs, fairness ledgers, transport statistics, SWIM observation logs,
/// strategy-handover instants, then the event count — and then every
/// instrument artifact that *both* runs carry: the telemetry series, the
/// merged hop trace and the profile's merged work counters.
///
/// The event count is a run-wide total that almost any divergence moves,
/// so it comes after the per-node records: a divergence names a node
/// whenever a node's record differs. An artifact only one run carries is
/// an instrumentation choice, not a divergence, so an uninstrumented run
/// can match an instrumented one in the virtual world. `probe_calls`
/// counts telemetry hook calls, so it is compared only when both runs
/// carry telemetry. Barrier windows, shard counts and the profile's
/// wall-clock timings are scheduling artifacts and host measurements,
/// never compared.
pub fn first_divergence(a: &ArchOutcome, b: &ArchOutcome) -> Option<Divergence> {
    use std::slice::from_ref;
    let (n, m) = (a.deliveries.len(), b.deliveries.len());
    first_in("nodes", None, from_ref(&n), from_ref(&m))
        .or_else(|| first_per_node("deliveries", &a.deliveries, &b.deliveries, Vec::as_slice))
        .or_else(|| first_per_node("ledgers", &a.ledgers, &b.ledgers, from_ref))
        .or_else(|| first_per_node("stats", &a.stats, &b.stats, from_ref))
        .or_else(|| first_per_node("swim", &a.swim, &b.swim, Vec::as_slice))
        .or_else(|| first_per_node("handovers", &a.handovers, &b.handovers, from_ref))
        .or_else(|| first_in("events", None, from_ref(&a.events), from_ref(&b.events)))
        .or_else(|| {
            let (x, y) = (a.telemetry.as_ref()?, b.telemetry.as_ref()?);
            first_in("telemetry", None, from_ref(&x.spec), from_ref(&y.spec))
                .or_else(|| first_in("telemetry", None, &x.windows, &y.windows))
        })
        .or_else(|| first_in("trace", None, a.trace.as_ref()?, b.trace.as_ref()?))
        .or_else(|| {
            let mut x = a.profiling.as_ref()?.work;
            let mut y = b.profiling.as_ref()?.work;
            if a.telemetry.is_none() || b.telemetry.is_none() {
                (x.probe_calls, y.probe_calls) = (0, 0);
            }
            first_in("work", None, from_ref(&x), from_ref(&y))
        })
}

/// `true` when two outcomes describe the same run: no
/// [`first_divergence`].
///
/// Kept only because the frozen benchmark (`fedbench/src/workload.rs`)
/// checks its timed cluster outcome through exactly this call, and
/// `tests/fedbench_surface.rs` pins that call shape; nothing under
/// `crates/`, `src/` or `examples/` may become another caller. The next
/// PR allowed to edit `fedbench/` calls `first_divergence` there and
/// deletes this.
pub fn outcomes_match(a: &ArchOutcome, b: &ArchOutcome) -> bool {
    first_divergence(a, b).is_none()
}

/// Runs the parity gate for one scenario: sequential baseline, then the
/// cluster at each of `shard_counts`, each compared by
/// [`first_divergence`].
pub fn parity_gate(name: &str, spec: &ScenarioSpec, shard_counts: &[usize]) -> ParityReport {
    let mut table = Table::new(
        format!("PARITY {name}: {} (n={})", spec.arch, spec.n),
        &[
            "engine",
            "shards",
            "events",
            "deliveries",
            "wall_ms",
            "identical",
        ],
    );
    let start = Instant::now();
    let baseline = run_architecture(spec, EngineKind::Sequential);
    let base_wall = start.elapsed().as_secs_f64() * 1e3;
    table.row_owned(vec![
        "sequential".to_string(),
        "1".to_string(),
        baseline.events.to_string(),
        baseline.total_deliveries().to_string(),
        fmt_f64(base_wall),
        "baseline".to_string(),
    ]);
    let mut divergences = Vec::new();
    for &shards in shard_counts {
        let spec = spec.clone().with_shards(shards);
        let start = Instant::now();
        let outcome = run_architecture(&spec, EngineKind::Cluster);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let divergence = first_divergence(&baseline, &outcome);
        table.row_owned(vec![
            "cluster".to_string(),
            shards.to_string(),
            outcome.events.to_string(),
            outcome.total_deliveries().to_string(),
            fmt_f64(wall_ms),
            divergence.is_none().to_string(),
        ]);
        divergences.extend(divergence.map(|d| (shards, d)));
    }
    ParityReport { table, divergences }
}

/// Display name of a scenario file: its `[scenario] name`, else the file
/// stem.
pub fn display_name(path: &Path, file: &ScenarioFile) -> String {
    file.name.clone().unwrap_or_else(|| {
        path.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_telemetry::TelemetrySpec;
    use fed_workload::scenario::Architecture;

    fn splitstream_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::standard(Architecture::SplitStream, 32, 9)
            .with_telemetry(TelemetrySpec::default());
        spec.plan.duration = fed_sim::SimTime::from_secs(2);
        spec
    }

    #[test]
    fn run_scenario_builds_all_tables() {
        let report = run_scenario("unit", &splitstream_spec());
        assert_eq!(report.engine, EngineKind::Sequential);
        assert_eq!(report.summary.len(), 1);
        assert_eq!(report.fairness.len(), 2);
        assert_eq!(report.latency.len(), 1);
        assert!(report.telemetry.is_some(), "telemetry spec set");
        assert!(report.profile_tables.is_empty(), "no [profile] section");
        assert!(report.outcome.total_deliveries() > 0);
    }

    #[test]
    fn profiled_scenario_adds_profile_tables() {
        let spec = splitstream_spec().with_profile(fed_profile::ProfileSpec::default());
        let seq = run_scenario("unit", &spec);
        assert_eq!(seq.profile_tables.len(), 2, "phases + work, no stalls");
        let clu = run_scenario("unit", &spec.with_shards(3));
        assert_eq!(clu.profile_tables.len(), 3, "phases + stalls + work");
        assert!(clu.outcome.profiling.is_some());
    }

    #[test]
    fn cluster_engine_used_when_shards_requested() {
        let report = run_scenario("unit", &splitstream_spec().with_shards(3));
        assert_eq!(report.engine, EngineKind::Cluster);
        assert!(report.outcome.windows > 0);
    }

    #[test]
    fn parity_gate_passes_for_a_small_scenario() {
        let report = parity_gate("unit", &splitstream_spec(), PARITY_SHARDS);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.table.len(), 1 + PARITY_SHARDS.len());
    }

    /// One small outcome carrying every artifact: fair gossip with the
    /// detector, telemetry, the profiler and the tracer on.
    fn armed_outcome() -> ArchOutcome {
        let mut spec = ScenarioSpec::standard(Architecture::FairGossip, 16, 3)
            .with_membership()
            .with_telemetry(TelemetrySpec::default())
            .with_profile(fed_profile::ProfileSpec::default())
            .with_trace(fed_trace::TraceSpec::default());
        spec.plan.duration = fed_sim::SimTime::from_secs(1);
        run_architecture(&spec, EngineKind::Sequential)
    }

    /// Each single-field perturbation is reported as exactly that
    /// observable, node and index; an identical copy, or one that differs
    /// only in wall-clock profile timings, is no divergence.
    #[test]
    fn first_divergence_names_each_perturbed_field() {
        use fed_membership::swim::{SwimObservation, SwimObservationKind};
        use fed_sim::{NodeId, SimTime};
        let base = armed_outcome();
        let (node, entry) = (5, 2);
        assert!(base.deliveries[node].len() > entry, "node {node} delivers");
        let window = 3;
        let hop = base.trace.as_ref().expect("traced").len() / 2;
        let swim_len = base.swim[node].len();
        type Perturb = fn(&mut ArchOutcome);
        let cases: [(&str, Option<usize>, usize, Perturb); 9] = [
            ("deliveries", Some(node), entry, |o| {
                let at = &mut o.deliveries[5][2].1;
                *at = SimTime::from_micros(at.as_micros() + 1);
            }),
            ("ledgers", Some(node), 0, |o| o.ledgers[5].record_publish(1)),
            ("stats", Some(node), 0, |o| o.stats[5].bytes_received += 1),
            ("swim", Some(node), swim_len, |o| {
                o.swim[5].push(SwimObservation {
                    at: SimTime::from_secs(1),
                    subject: NodeId::new(0),
                    kind: SwimObservationKind::Suspect,
                });
            }),
            ("handovers", Some(node), 0, |o| {
                o.handovers[5] = Some(SimTime::from_secs(1));
            }),
            ("events", None, 0, |o| o.events += 1),
            ("telemetry", None, window, |o| {
                o.telemetry.as_mut().unwrap().windows[3].events += 1;
            }),
            ("trace", None, hop, |o| {
                let hops = o.trace.as_mut().unwrap();
                let h = hops.len() / 2;
                hops[h].bytes += 1;
            }),
            ("work", None, 0, |o| {
                o.profiling.as_mut().unwrap().work.msgs_sent += 1;
            }),
        ];
        for (observable, node, index, perturb) in cases {
            let mut changed = base.clone();
            perturb(&mut changed);
            let d = first_divergence(&base, &changed).expect(observable);
            assert_eq!(
                (d.observable, d.node, d.index),
                (observable, node, index),
                "{d}"
            );
            assert_ne!(d.left, d.right, "{d}");
        }
        assert_eq!(first_divergence(&base, &base.clone()), None);
        let mut timed = base.clone();
        let profile = timed.profiling.as_mut().unwrap();
        profile.wall_ns += 12_345;
        for shard in &mut profile.shards {
            for w in &mut shard.windows {
                w.execute_ns += 1;
            }
        }
        assert_eq!(first_divergence(&base, &timed), None);
    }

    #[test]
    fn target_resolution() {
        assert_eq!(
            resolve_target("@wan-lognormal"),
            scenarios_dir().join("wan-lognormal.toml")
        );
        assert_eq!(resolve_target("x/y.toml"), PathBuf::from("x/y.toml"));
    }
}
