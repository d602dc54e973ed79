//! # fed-experiments
//!
//! One module per paper artifact:
//!
//! | Id | Module | Paper artifact |
//! |---|---|---|
//! | FIG1 | [`fig1`] | Figure 1 — ratio equalization |
//! | FIG2 | [`fig2`] | Figure 2 — topic-based filter-weighted accounting |
//! | FIG3 | [`fig3`] | Figure 3 — fanout & message-size modulation |
//! | FIG4 | [`fig4`] | Figure 4 — basic push gossip, epidemic curves |
//! | T-ARCH | [`arch`] | §4 — fairness of existing architectures |
//! | E-CHURN | [`churn`] | §1/§6 — unfairness-driven churn |
//! | E-SUBS | [`subs`] | §5.1 — subscription maintenance cost |
//! | E-CONV | [`conv`] | §5.2 Q1/Q2 — controller convergence |
//! | E-ROBUST | [`robust`] | §5.2 Q5 — robustness under loss/crash |
//! | E-BIAS | [`bias`] | §5.2 Q6 — audits against lying peers |
//! | E-ABLATE | [`ablation`] | design-choice ablations (correction gain, civic minimum) |
//! | E-SCALE | [`scale`] | sharded-runtime scaling sweep (beyond the paper) |
//! | E-SWEEP | [`sweep`] | generative scenario sweeps, Pareto frontier maps (beyond the paper) |
//! | E-TIMESERIES | [`timeseries`] | per-window fairness/latency transients under churn + flash crowd (beyond the paper) |
//! | PROFILE | [`profile`] | scheduler profiler: phase timings, stall attribution, overhead (beyond the paper) |
//! | TRACE | [`trace`] | per-event dissemination tracing: delivery trees, fairness attribution (beyond the paper) |
//! | RUN / PARITY | [`scenario_run`] | declarative scenario files + cross-engine parity gate (beyond the paper) |
//! | BENCH-DIFF | [`bench_diff`] | regression diff of two `BENCH_*` artifacts (beyond the paper) |
//!
//! Every experiment is a plain function taking `(n, seed)` and returning a
//! result struct with one or more [`fed_metrics::table::Table`]s; the
//! `fed-experiments` binary runs them by id and prints the tables.
//!
//! Beyond the fixed ids, [`scenario_run`] executes **declarative
//! scenario files** (`run <path.toml>` / `run @name`) and checks them
//! through the cross-engine parity gate (`parity <target>` /
//! `parity @all`).
//!
//! [`REGISTRY`] is the single source of truth for the id list: the
//! runner's help text, the default all-experiments sweep and the README's
//! "Available ids" line (guarded by a test) all derive from it, so a new
//! experiment cannot silently go missing from any of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod arch;
pub mod bench_diff;
pub mod bench_json;
pub mod bias;
pub mod churn;
pub mod conv;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod harness;
pub mod profile;
pub mod robust;
pub mod scale;
pub mod scenario_run;
pub mod subs;
pub mod sweep;
pub mod timeseries;
pub mod trace;

/// One runnable experiment: its CLI id and a one-line description.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentInfo {
    /// The CLI id.
    pub id: &'static str,
    /// One-line description shown by `--help`.
    pub summary: &'static str,
}

/// The experiment registry, in the order of the crate doc's table — the
/// single source of truth for every id listing (CLI help, default sweep,
/// README).
pub const REGISTRY: &[ExperimentInfo] = &[
    ExperimentInfo {
        id: "fig1",
        summary: "Figure 1 — contribution/benefit ratio equalization",
    },
    ExperimentInfo {
        id: "fig2",
        summary: "Figure 2 — topic-based filter-weighted accounting",
    },
    ExperimentInfo {
        id: "fig3",
        summary: "Figure 3 — fanout & message-size modulation",
    },
    ExperimentInfo {
        id: "fig4",
        summary: "Figure 4 — basic push gossip, epidemic curves",
    },
    ExperimentInfo {
        id: "arch",
        summary: "§4 — fairness of existing architectures",
    },
    ExperimentInfo {
        id: "churn",
        summary: "§1/§6 — unfairness-driven churn",
    },
    ExperimentInfo {
        id: "subs",
        summary: "§5.1 — subscription maintenance cost",
    },
    ExperimentInfo {
        id: "conv",
        summary: "§5.2 Q1/Q2 — controller convergence",
    },
    ExperimentInfo {
        id: "robust",
        summary: "§5.2 Q5 — robustness under loss/crash",
    },
    ExperimentInfo {
        id: "bias",
        summary: "§5.2 Q6 — audits against lying peers",
    },
    ExperimentInfo {
        id: "ablation",
        summary: "design-choice ablations (correction gain, civic minimum)",
    },
    ExperimentInfo {
        id: "scale",
        summary: "sharded-runtime scaling sweep with parity gate",
    },
    ExperimentInfo {
        id: "sweep",
        summary: "generative scenario sweep: Pareto frontier map across all architectures",
    },
    ExperimentInfo {
        id: "timeseries",
        summary: "per-window fairness/latency transients (churn + flash crowd)",
    },
    ExperimentInfo {
        id: "profile",
        summary: "scheduler profiler: phase timings, stall attribution, overhead",
    },
    ExperimentInfo {
        id: "trace",
        summary: "per-event dissemination tracing: delivery trees, fairness attribution",
    },
];

/// The canonical experiment ids, derived from [`REGISTRY`].
pub fn experiment_ids() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|e| e.id)
}

/// The ids as one space-separated line (help text, error messages, the
/// README's "Available ids" sentence).
pub fn experiment_ids_line() -> String {
    experiment_ids().collect::<Vec<_>>().join(" ")
}

/// Every artifact write of every command ends here, so that a failed
/// write fails the command: CI diffs the written file against the
/// committed one, and a write that only warned would leave it diffing
/// the committed file against itself.
fn write_artifact(
    path: &str,
    rows: usize,
    write: impl FnOnce(&str) -> std::io::Result<()>,
) -> Result<(), String> {
    write(path).map_err(|e| format!("could not write {path}: {e}"))?;
    eprintln!("wrote {rows} row(s) to {path}");
    Ok(())
}

/// Splices host-speed rows into the artifact at `path`, one current row
/// per configuration.
fn record(path: &str, rows: &[bench_json::Row]) -> Result<(), String> {
    write_artifact(path, rows.len(), |p| bench_json::splice(p, rows, None))
}

/// Prints a sweep's table and replaces its suite in `BENCH_sweep.json`.
fn record_sweep(suite: &str, r: &sweep::SweepResult) -> Result<(), String> {
    println!("{}", r.table);
    if r.degenerate > 0 {
        eprintln!(
            "{suite}: {} degenerate run(s) excluded (no deliveries)",
            r.degenerate
        );
    }
    assert!(
        r.identical,
        "{suite} artifact rows diverged between the engines"
    );
    assert!(!r.records.is_empty(), "{suite} rendered no rows");
    write_artifact(sweep::BENCH_SWEEP_PATH, r.records.len(), |p| {
        bench_json::splice(p, &r.records, Some(suite))
    })
}

/// Runs one experiment by id at a default size, printing its tables and
/// writing its `BENCH_*` artifact, if it has one, into the invocation
/// directory.
///
/// Sizes are chosen so the full suite finishes in a few minutes on a
/// laptop.
///
/// # Errors
///
/// Returns a message for an unknown id, a malformed pseudo-id (see
/// [`PseudoId`]) or an artifact that could not be written.
pub fn run_by_id(id: &str, seed: u64) -> Result<(), String> {
    match id {
        "fig1" => {
            let r = fig1::run(256, seed);
            println!("{}", r.table);
        }
        "fig2" => {
            let r = fig2::run(128, seed);
            println!("{}", r.table);
        }
        "fig3" => {
            let r = fig3::run(128, seed);
            println!("{}", r.table);
        }
        "fig4" => {
            let r = fig4::run(128, &[32, 64, 128, 256, 512], seed);
            println!("{}", r.fanout_table);
            println!("{}", r.scale_table);
        }
        "arch" => {
            let r = arch::run(128, seed);
            println!("{}", r.table);
        }
        "churn" => {
            let r = churn::run(128, 15.0, seed);
            println!("{}", r.table);
        }
        "subs" => {
            let r = subs::run(128, seed);
            println!("{}", r.table);
        }
        "conv" => {
            let r = conv::run(128, seed);
            println!("{}", r.table);
            println!(
                "converged in {} rounds ({} -> {} fanout)\n",
                r.rounds_to_converge, r.fanout_before, r.fanout_after
            );
        }
        "robust" => {
            let r = robust::run(96, seed);
            println!("{}", r.loss_table);
            println!("{}", r.crash_table);
            record(bench_json::BENCH_PATH, &r.records)?;
        }
        "bias" => {
            let r = bias::run(128, seed);
            println!("{}", r.table);
        }
        "ablation" => {
            let r = ablation::run(128, seed);
            println!("{}", r.gain_table);
            println!("{}", r.civic_table);
        }
        "scale" => {
            let r = scale::run(512, &[1, 2, 4], seed);
            println!("{}", r.table);
            if let Some((arch, d)) = &r.divergence {
                panic!("shard count must not change the outcome: {arch}: {d}");
            }
            record(bench_json::BENCH_PATH, &r.records)?;
        }
        "sweep" => record_sweep("sweep", &sweep::run("sweep", seed, sweep::FULL_WORKLOADS))?,
        "timeseries" => {
            let r = timeseries::run(256, 4, seed);
            println!("{}", r.table);
            if let Some((arch, d)) = &r.divergence {
                panic!("telemetry series diverged between the engines: {arch}: {d}");
            }
            // Regenerated whole every run: nothing to splice.
            write_artifact(timeseries::BENCH_TIMESERIES_PATH, r.archs.len(), |p| {
                std::fs::write(p, &r.json)
            })?;
        }
        "profile" => {
            let r = profile::run(256, 4, seed);
            println!("{}", r.summary);
            println!("{}", r.phase_table);
            println!("{}", r.stall_table);
            println!("{}", r.work_table);
            if let Some(d) = &r.divergence {
                panic!("profiled engines diverged: {d}");
            }
            record(profile::BENCH_PROFILE_PATH, &r.records)?;
        }
        "trace" => {
            let r = trace::run(256, 4, seed);
            println!("{}", r.summary);
            println!("{}", r.tree_table);
            println!("{}", r.event_table);
            println!("{}", r.attribution_table);
            if let Some(d) = &r.divergence {
                panic!("traced engines diverged: {d}");
            }
            record(trace::BENCH_TRACE_PATH, &r.records)?;
        }
        other => return run_pseudo_id(other, seed),
    }
    Ok(())
}

/// A parsed pseudo-id: a parameterised run that is not part of
/// [`REGISTRY`], so it never runs in the default all-experiments sweep —
/// CI invokes each explicitly, time-boxed. Omitted trailing fields take
/// the defaults of [`scale::SmokeConfig`] and [`sweep::SMOKE_WORKLOADS`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PseudoId {
    /// `smoke[:arch[:n[:shards[:placement]]]]` — one large-population
    /// cluster run: a liveness line and a `BENCH_cluster.json` row.
    Smoke(scale::SmokeConfig),
    /// `profile-smoke[:arch[:n[:shards]]]` — the smoke workload with
    /// profiling off then on: the overhead line, a `BENCH_profile.json`
    /// row and the [`profile::OVERHEAD_BAR`] assertion.
    ProfileSmoke(scale::SmokeConfig),
    /// `trace-smoke[:arch[:n[:shards]]]` — the same for the tracer,
    /// `BENCH_trace.json` and [`trace::OVERHEAD_BAR`].
    TraceSmoke(scale::SmokeConfig),
    /// `sweep-smoke[:workloads]` — the sweep downscaled to a prefix of
    /// the generated workload family, replacing the `sweep-smoke` suite
    /// of `BENCH_sweep.json`. The rows are deterministic virtual-world
    /// quantities, so CI diffs them against the committed ones at
    /// threshold 0: any drift is a behavior change, not noise.
    SweepSmoke {
        /// Generated workloads to run.
        workloads: u64,
    },
}

/// The pseudo-ids as `(head, grammar, summary)`: parse errors print the
/// grammar, `--help` all three.
pub const PSEUDO_IDS: [(&str, &str, &str); 4] = [
    (
        "smoke",
        "smoke[:arch[:n[:shards[:placement]]]]",
        "cluster liveness run (default splitstream:100000:8)",
    ),
    (
        "profile-smoke",
        "profile-smoke[:arch[:n[:shards]]]",
        "profiler off/on overhead gate on the same workload",
    ),
    (
        "trace-smoke",
        "trace-smoke[:arch[:n[:shards]]]",
        "tracer off/on overhead gate on the same workload",
    ),
    (
        "sweep-smoke",
        "sweep-smoke[:workloads]",
        "downscaled generative sweep; regenerates the sweep-smoke suite of BENCH_sweep.json",
    ),
];

impl PseudoId {
    /// Parses `id` when its head names a pseudo-id; `None` otherwise.
    ///
    /// # Errors
    ///
    /// The inner `Err` names the offending field and the id's grammar.
    pub fn parse(id: &str) -> Option<Result<PseudoId, String>> {
        let mut parts = id.split(':');
        let head = parts.next()?;
        let (_, grammar, _) = PSEUDO_IDS.iter().find(|g| g.0 == head)?;
        Some(
            Self::parse_fields(head, &mut parts)
                .map_err(|why| format!("malformed id {id:?}: {why}; expected {grammar}")),
        )
    }

    fn parse_fields(head: &str, parts: &mut std::str::Split<'_, char>) -> Result<PseudoId, String> {
        fn field<T>(
            parts: &mut std::str::Split<'_, char>,
            name: &str,
            default: T,
            parse: impl Fn(&str) -> Option<T>,
        ) -> Result<T, String> {
            match parts.next() {
                None => Ok(default),
                Some(v) => parse(v).ok_or_else(|| format!("bad {name} {v:?}")),
            }
        }
        fn positive<T: std::str::FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
            v.parse().ok().filter(|x| *x > T::default())
        }
        /// A positive count no larger than `max` — the bounds a scenario
        /// file's `nodes` and `shards` keys enforce.
        fn at_most(max: usize) -> impl Fn(&str) -> Option<usize> {
            move |v| positive(v).filter(|x| *x <= max)
        }
        let parsed = if head == "sweep-smoke" {
            PseudoId::SweepSmoke {
                workloads: field(parts, "workloads", sweep::SMOKE_WORKLOADS, positive)?,
            }
        } else {
            let default = scale::SmokeConfig::default();
            let mut config = scale::SmokeConfig {
                arch: field(
                    parts,
                    "arch",
                    default.arch,
                    fed_workload::Architecture::parse,
                )?,
                n: field(
                    parts,
                    "n",
                    default.n,
                    at_most(fed_workload::scenario_file::MAX_NODES),
                )?,
                shards: field(
                    parts,
                    "shards",
                    default.shards,
                    at_most(fed_workload::scenario_file::MAX_SHARDS),
                )?,
                ..default
            };
            match head {
                "smoke" => {
                    config.placement = field(
                        parts,
                        "placement",
                        default.placement,
                        fed_workload::Placement::parse,
                    )?;
                    PseudoId::Smoke(config)
                }
                "profile-smoke" => PseudoId::ProfileSmoke(config),
                _ => PseudoId::TraceSmoke(config),
            }
        };
        match parts.next() {
            Some(extra) => Err(format!("unexpected extra field {extra:?}")),
            None => Ok(parsed),
        }
    }
}

fn run_pseudo_id(id: &str, seed: u64) -> Result<(), String> {
    let Some(parsed) = PseudoId::parse(id) else {
        return Err(format!(
            "unknown experiment {id:?}; available: {}",
            experiment_ids_line()
        ));
    };
    match parsed? {
        PseudoId::Smoke(config) => {
            let p = scale::smoke(config, seed);
            println!(
                "SMOKE {} n={} shards={} placement={}: {} events, {} windows, \
                 {} deliveries, reliability {:.4}, {:.0} ms wall ({:.0} events/s)",
                config.arch,
                config.n,
                p.shards,
                config.placement,
                p.events,
                p.windows,
                p.deliveries,
                p.reliability,
                p.wall_ms,
                bench_json::events_per_sec(p.events, p.wall_ms),
            );
            record(bench_json::BENCH_PATH, std::slice::from_ref(&p.row))?;
            assert!(p.events > 0, "smoke run processed no events");
            assert!(p.deliveries > 0, "smoke run delivered nothing");
            Ok(())
        }
        PseudoId::ProfileSmoke(config) => {
            let p = profile::smoke(config, seed);
            let counted = (p.on.windows, "windows");
            let path = profile::BENCH_PROFILE_PATH;
            overhead_smoke("profile-smoke", &p, counted, profile::bench_row, path)
        }
        PseudoId::TraceSmoke(config) => {
            let p = trace::smoke(config, seed);
            let counted = (p.on.trace.as_ref().map_or(0, Vec::len) as u64, "hops");
            let path = trace::BENCH_TRACE_PATH;
            overhead_smoke("trace-smoke", &p, counted, trace::bench_row, path)
        }
        PseudoId::SweepSmoke { workloads } => {
            record_sweep("sweep-smoke", &sweep::run("sweep-smoke", seed, workloads))
        }
    }
}

/// The shared tail of `profile-smoke` and `trace-smoke`: prints the
/// overhead line, records the instrument's `bench_row` in its artifact
/// at `path` and asserts that the instrumented run was live (`counted`
/// is what it is counted in, windows or hops), did not perturb the
/// outcome and stayed under [`profile::OVERHEAD_BAR`], which is the
/// tracer's bar too.
fn overhead_smoke(
    suite: &str,
    p: &scale::OverheadPoint,
    counted: (u64, &str),
    bench_row: fn(&scale::OverheadPoint, &str) -> bench_json::Row,
    path: &str,
) -> Result<(), String> {
    let (count, unit) = counted;
    println!(
        "{} {} n={} shards={}: {} events, {count} {unit}, \
         off {:.0} ms ({:.0} events/s), on {:.0} ms ({:.0} events/s), \
         overhead {:+.1}%",
        suite.to_uppercase(),
        p.spec.arch,
        p.spec.n,
        p.on.shards,
        p.on.events,
        p.wall_ms_off,
        bench_json::events_per_sec(p.off.events, p.wall_ms_off),
        p.wall_ms_on,
        bench_json::events_per_sec(p.on.events, p.wall_ms_on),
        p.overhead_frac() * 100.0,
    );
    record(path, &[bench_row(p, suite)])?;
    assert!(p.on.events > 0, "{suite} processed no events");
    assert!(count > 0, "{suite} recorded no {unit}");
    if let Some(d) = scenario_run::first_divergence(&p.off, &p.on) {
        panic!("{suite}: instrumenting the run changed its outcome: {d}");
    }
    assert!(
        p.overhead_frac() < profile::OVERHEAD_BAR,
        "{suite}: enabled overhead {:.1}% breaches the {:.0}% bar",
        p.overhead_frac() * 100.0,
        profile::OVERHEAD_BAR * 100.0
    );
    Ok(())
}

/// The directory generated trace artifacts land in by default —
/// gitignored, so ad-hoc exports never pollute the work tree (see
/// docs/OBSERVABILITY.md "Trace artifacts").
pub const TRACES_DIR: &str = "traces";

/// Writes a trace artifact, creating [`TRACES_DIR`] on demand when the
/// path points into it.
fn write_trace_file(path: &str, contents: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write trace {path}: {e}"))?;
    eprintln!("wrote {path} (load in https://ui.perfetto.dev)");
    Ok(())
}

/// Executes one scenario file (`run <path.toml>` / `run @name`) and
/// prints its report tables. `force_profile` (the CLI's `--profile`
/// flag) turns profiling on even when the file has no `[profile]`
/// section; `force_trace` (`--trace`) does the same for per-event
/// dissemination tracing.
///
/// When profiling is on, the per-shard phase/stall/work tables print
/// after the regular report and the scheduler's Chrome Trace Event JSON
/// is written to the file's `[profile] trace` path, defaulting to
/// `traces/TRACE_<name>.json`. When tracing is on, the delivery-tree,
/// worst-stretch and forwarding-attribution tables print too and the
/// per-event hop timeline is written to the file's `[trace] export`
/// path, defaulting to `traces/TRACE_<name>.events.json` (distinct
/// defaults, so a run with both enabled never overwrites one artifact
/// with the other).
///
/// The scenario file is self-contained — its own `seed` applies, not the
/// runner's `--seed` flag.
///
/// # Errors
///
/// Returns a message when the target cannot be resolved, read or parsed,
/// or a trace file cannot be written.
pub fn run_scenario_target(
    target: &str,
    force_profile: bool,
    force_trace: bool,
) -> Result<(), String> {
    let path = scenario_run::resolve_target(target);
    let file = scenario_run::load_file(&path)?;
    let name = scenario_run::display_name(&path, &file);
    if let Some(summary) = &file.summary {
        eprintln!("{name}: {summary}");
    }
    let mut spec = file.spec.clone();
    if force_profile && spec.profile.is_none() {
        spec.profile = Some(fed_profile::ProfileSpec::default());
    }
    if force_trace && spec.trace.is_none() {
        spec.trace = Some(fed_trace::TraceSpec::default());
    }
    let report = scenario_run::run_scenario(&name, &spec);
    println!("{}", report.summary);
    println!("{}", report.fairness);
    println!("{}", report.latency);
    if let Some(t) = &report.telemetry {
        println!("{t}");
    }
    if let Some(t) = &report.membership {
        println!("{t}");
    }
    for t in &report.profile_tables {
        println!("{t}");
    }
    for t in &report.trace_tables {
        println!("{t}");
    }
    if let Some(profile) = &report.outcome.profiling {
        let trace_path = spec
            .profile
            .as_ref()
            .and_then(|p| p.trace.clone())
            .unwrap_or_else(|| format!("{TRACES_DIR}/TRACE_{name}.json"));
        write_trace_file(&trace_path, &fed_profile::chrome_trace_json(profile, &name))?;
    }
    if let Some(hops) = &report.outcome.trace {
        let export_path = spec
            .trace
            .as_ref()
            .and_then(|t| t.export.clone())
            .unwrap_or_else(|| format!("{TRACES_DIR}/TRACE_{name}.events.json"));
        write_trace_file(&export_path, &fed_trace::perfetto_trace_json(hops, &name))?;
    }
    if report.outcome.total_deliveries() == 0 {
        return Err(format!(
            "{name}: scenario delivered nothing — no publication reached a subscriber \
             (check the publication rate/duration against the interest profile)"
        ));
    }
    Ok(())
}

/// Runs the `bench-diff` command: diff a fresh `BENCH_*` artifact
/// against a committed one and fail on throughput regressions past
/// `threshold` (default [`bench_diff::DEFAULT_THRESHOLD`]).
///
/// # Errors
///
/// Returns a message when `threshold` is not a finite fraction `>= 0`
/// (a NaN or infinite threshold would pass every row), a file cannot be
/// loaded, any row regressed, or both files hold rows and no
/// configuration paired up.
pub fn bench_diff_target(old: &str, new: &str, threshold: Option<f64>) -> Result<(), String> {
    let threshold = threshold.unwrap_or(bench_diff::DEFAULT_THRESHOLD);
    if !(threshold.is_finite() && threshold >= 0.0) {
        return Err(format!(
            "--threshold must be a finite fraction >= 0 (e.g. 0.5), got {threshold}"
        ));
    }
    let report = bench_diff::diff_files(old, new, threshold)?;
    println!("{}", report.table);
    eprintln!(
        "bench-diff: compared {} configuration(s), {} regression(s)",
        report.compared,
        report.regressions.len()
    );
    report.verdict(threshold)
}

/// Runs the cross-engine parity gate (`parity <target>` / `parity @all`)
/// over one scenario file or the whole library, printing one table per
/// scenario.
///
/// # Errors
///
/// Returns a message when a target cannot be loaded, or when any
/// engine/shard combination diverges from the sequential baseline.
pub fn parity_target(target: &str) -> Result<(), String> {
    let paths = if target == "@all" {
        let paths = scenario_run::library()?;
        if paths.is_empty() {
            return Err(format!(
                "scenario library {} holds no .toml files",
                scenario_run::scenarios_dir().display()
            ));
        }
        paths
    } else {
        vec![scenario_run::resolve_target(target)]
    };
    let mut failures = Vec::new();
    for path in &paths {
        let file = scenario_run::load_file(path)?;
        let name = scenario_run::display_name(path, &file);
        let shards = scenario_run::parity_shards_for(&file.spec);
        let report = scenario_run::parity_gate(&name, &file.spec, &shards);
        println!("{}", report.table);
        for (shards, divergence) in &report.divergences {
            println!("  cluster at {shards} shards: {divergence}\n");
        }
        if !report.divergences.is_empty() {
            failures.push(name);
        }
    }
    if failures.is_empty() {
        eprintln!(
            "parity gate passed for {} scenario(s) at shards {:?} plus each file's own count",
            paths.len(),
            scenario_run::PARITY_SHARDS
        );
        Ok(())
    } else {
        Err(format!(
            "parity gate FAILED for: {} — engines diverged",
            failures.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_workload::{Architecture, Placement};
    use scale::SmokeConfig;

    #[test]
    fn pseudo_ids_parse_with_defaults_and_name_the_bad_field() {
        let default = SmokeConfig::default();
        let dks = SmokeConfig {
            arch: Architecture::Dks,
            shards: 4,
            ..default
        };
        let broker = SmokeConfig {
            arch: Architecture::Broker,
            n: 20_000,
            placement: Placement::Balanced,
            ..default
        };
        for (id, expected) in [
            ("smoke", PseudoId::Smoke(default)),
            (
                "smoke:splitstream:100000:8:round-robin",
                PseudoId::Smoke(default),
            ),
            ("smoke:broker:20000:8:balanced", PseudoId::Smoke(broker)),
            ("profile-smoke", PseudoId::ProfileSmoke(default)),
            ("profile-smoke:dks:100000:4", PseudoId::ProfileSmoke(dks)),
            ("trace-smoke:dks:100000:4", PseudoId::TraceSmoke(dks)),
            (
                "sweep-smoke",
                PseudoId::SweepSmoke {
                    workloads: sweep::SMOKE_WORKLOADS,
                },
            ),
            ("sweep-smoke:3", PseudoId::SweepSmoke { workloads: 3 }),
        ] {
            assert_eq!(PseudoId::parse(id), Some(Ok(expected)), "{id}");
        }
        for (id, field, grammar) in [
            ("smoke:broker:10x", "bad n \"10x\"", PSEUDO_IDS[0].1),
            (
                "smoke:broker:10:2:nearest",
                "bad placement \"nearest\"",
                PSEUDO_IDS[0].1,
            ),
            (
                "smoke:broker:10:2:block:fixed",
                "extra field \"fixed\"",
                PSEUDO_IDS[0].1,
            ),
            ("profile-smoke:nope", "bad arch \"nope\"", PSEUDO_IDS[1].1),
            (
                "profile-smoke:dks:10:2:block",
                "extra field \"block\"",
                PSEUDO_IDS[1].1,
            ),
            (
                "trace-smoke:dks:1000:0",
                "bad shards \"0\"",
                PSEUDO_IDS[2].1,
            ),
            (
                "smoke:broker:5000000000",
                "bad n \"5000000000\"",
                PSEUDO_IDS[0].1,
            ),
            (
                "smoke:broker:100000:100000",
                "bad shards \"100000\"",
                PSEUDO_IDS[0].1,
            ),
            ("sweep-smoke:0", "bad workloads \"0\"", PSEUDO_IDS[3].1),
        ] {
            let err = PseudoId::parse(id).expect("a pseudo-id head").unwrap_err();
            assert!(err.contains(field) && err.contains(grammar), "{id}: {err}");
        }
        // Anything else is not a pseudo-id, and an unknown experiment.
        assert_eq!(PseudoId::parse("smokes:broker"), None);
        let err = run_by_id("fig9", 1).unwrap_err();
        assert!(
            err.contains("unknown experiment \"fig9\"; available: fig1 "),
            "{err}"
        );
    }
}
