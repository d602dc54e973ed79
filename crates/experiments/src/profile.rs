//! PROFILE — scheduler profiler: phase tables, stall attribution,
//! instrumentation overhead.
//!
//! The registered `profile` experiment runs one scenario three ways —
//! sequential with profiling, cluster without, cluster with — and
//! reports (a) the per-shard wall-clock phase breakdown, (b) which shard
//! bounded each conservative window (stall attribution), (c) the merged
//! deterministic work counters, gated byte-identical between the
//! engines, and (d) the profiler's own overhead, recorded in
//! `BENCH_profile.json`.
//!
//! The `profile-smoke[:arch[:n[:shards]]]` pseudo-id is the
//! large-population CI entry point: the same off/on overhead measurement
//! on the standard smoke workload, asserting the enabled profiler stays
//! under [`OVERHEAD_BAR`].

use crate::bench_json::{events_per_sec, Row};
use crate::harness::{run_architecture, EngineKind};
use crate::scale::{measure_overhead, OverheadPoint, SmokeConfig};
use crate::scenario_run::outcomes_match;
use fed_metrics::table::{fmt_f64, Table};
use fed_profile::{ProfileSpec, RunProfile};
use fed_sim::SimTime;
use fed_telemetry::TelemetrySpec;
use fed_workload::pubs::PubPlan;
use fed_workload::scenario::ScenarioSpec;

/// Default output path of the profiler benchmark artifact, relative to
/// the invocation directory.
pub const BENCH_PROFILE_PATH: &str = "BENCH_profile.json";

/// Ceiling on the enabled profiler's wall-clock overhead, as a fraction
/// of the unprofiled run — asserted by the `profile-smoke` pseudo-id.
pub const OVERHEAD_BAR: f64 = 0.10;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-shard wall-clock phase breakdown, one row per shard plus a total.
pub fn phase_table(name: &str, profile: &RunProfile) -> Table {
    let mut t = Table::new(
        format!("PROFILE {name}: per-shard phases (wall ms)"),
        &[
            "shard",
            "events",
            "execute",
            "exchange",
            "fill",
            "barrier",
            "idle",
            "mailbox msgs",
            "mailbox bytes",
        ],
    );
    for (s, shard) in profile.shards.iter().enumerate() {
        let (mailbox_msgs, mailbox_bytes) = shard.mailbox();
        t.row_owned(vec![
            s.to_string(),
            shard.events.to_string(),
            fmt_f64(ms(shard.phases.execute_ns)),
            fmt_f64(ms(shard.phases.exchange_ns)),
            fmt_f64(ms(shard.phases.fill_ns)),
            fmt_f64(ms(shard.phases.barrier_ns)),
            fmt_f64(ms(shard.phases.idle_ns)),
            mailbox_msgs.to_string(),
            mailbox_bytes.to_string(),
        ]);
    }
    let phases = profile.phases();
    let sched = profile.sched();
    t.row_owned(vec![
        "all".to_string(),
        profile
            .shards
            .iter()
            .map(|s| s.events)
            .sum::<u64>()
            .to_string(),
        fmt_f64(ms(phases.execute_ns)),
        fmt_f64(ms(phases.exchange_ns)),
        fmt_f64(ms(phases.fill_ns)),
        fmt_f64(ms(phases.barrier_ns)),
        fmt_f64(ms(phases.idle_ns)),
        sched.mailbox_msgs.to_string(),
        sched.mailbox_bytes.to_string(),
    ]);
    t
}

/// Stall attribution: how many conservative windows each shard bounded
/// (held the global minimum pending time for), from the per-shard window
/// reports. `None` when the run had no barrier windows (always on the
/// sequential engine).
pub fn stall_table(name: &str, profile: &RunProfile) -> Option<Table> {
    let windows = profile.sched().windows;
    if windows == 0 {
        return None;
    }
    let mut t = Table::new(
        format!("PROFILE {name}: stall attribution ({windows} windows)"),
        &["shard", "straggler windows", "share", "events"],
    );
    let bounded = profile.straggler_windows();
    for (s, (bounded, shard)) in bounded.into_iter().zip(&profile.shards).enumerate() {
        t.row_owned(vec![
            s.to_string(),
            bounded.to_string(),
            fmt_f64(bounded as f64 / windows as f64),
            shard.events.to_string(),
        ]);
    }
    Some(t)
}

/// Deterministic work counters (parity-gated across engines) and
/// scheduler counters (reported only), one row per counter.
pub fn work_table(name: &str, profile: &RunProfile) -> Table {
    let mut t = Table::new(
        format!("PROFILE {name}: work counters"),
        &["counter", "value", "class"],
    );
    let work = profile.merged_work();
    let sched = profile.sched();
    let det = "deterministic";
    let rep = "scheduler";
    for (counter, value, class) in [
        ("events", work.events, det),
        ("queue_pushes", work.queue_pushes, det),
        ("queue_pops", work.queue_pops, det),
        ("msgs_sent", work.msgs_sent, det),
        ("msgs_received", work.msgs_received, det),
        ("msgs_lost", work.msgs_lost, det),
        ("bytes_sent", work.bytes_sent, det),
        ("probe_calls", work.probe_calls, det),
        ("overflow_hits", sched.overflow_hits, rep),
        ("mailbox_msgs", sched.mailbox_msgs, rep),
        ("mailbox_bytes", sched.mailbox_bytes, rep),
        ("windows", sched.windows, rep),
        ("straggler_windows", sched.straggler_windows, rep),
    ] {
        t.row_owned(vec![
            counter.to_string(),
            value.to_string(),
            class.to_string(),
        ]);
    }
    t
}

/// One `BENCH_profile.json` row: the off/on measurement plus the
/// scheduler knobs and the profiled run's window count and phase split
/// (milliseconds summed over shards; `fill` is waiting mid-window for
/// inbound batches still in flight, `barrier` the genuine straggler
/// stall at the reduction).
pub fn bench_row(point: &OverheadPoint, suite: &str) -> Row {
    let phases = point
        .on
        .profiling
        .as_ref()
        .map(|p| p.phases())
        .unwrap_or_default();
    point
        .row(suite)
        .knobs(&point.spec)
        .int("windows", point.on.windows)
        .float("execute_ms", ms(phases.execute_ns))
        .float("exchange_ms", ms(phases.exchange_ns))
        .float("fill_ms", ms(phases.fill_ns))
        .float("barrier_ms", ms(phases.barrier_ns))
        .float("idle_ms", ms(phases.idle_ns))
}

/// [`measure_overhead`] of the profiler: `spec` as given against `spec`
/// with its `[profile]` section removed.
fn profiler_overhead(spec: &ScenarioSpec, runs: usize) -> OverheadPoint {
    let mut off = spec.clone();
    off.profile = None;
    measure_overhead(&off, spec, runs)
}

/// The scenario the registered `profile` experiment runs: the standard
/// workload with a shorter publication phase (as E-SCALE uses) plus
/// telemetry, so the probe-call counter is exercised too.
pub fn profile_spec(n: usize, shards: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::fair_gossip(n, seed)
        .with_shards(shards)
        .with_telemetry(TelemetrySpec::default())
        .with_profile(ProfileSpec::default());
    spec.plan = PubPlan {
        rate_per_sec: 10.0,
        duration: SimTime::from_secs(5),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: None,
    };
    spec
}

/// Result of the PROFILE experiment.
#[derive(Debug)]
pub struct ProfileResult {
    /// Off/on overhead summary, one row per configuration.
    pub summary: Table,
    /// Per-shard phase breakdown of the profiled cluster run.
    pub phase_table: Table,
    /// Stall attribution of the profiled cluster run.
    pub stall_table: Table,
    /// Merged work/scheduler counters of the profiled cluster run.
    pub work_table: Table,
    /// Whether the profiled sequential and cluster runs agreed on every
    /// observable *and* on the merged work counters (must be `true`).
    pub identical: bool,
    /// Machine-readable row for `BENCH_profile.json`.
    pub records: Vec<Row>,
}

/// Runs the PROFILE experiment: sequential-vs-cluster work-counter
/// parity plus the off/on overhead measurement at `shards` shards.
pub fn run(n: usize, shards: usize, seed: u64) -> ProfileResult {
    let spec = profile_spec(n, shards, seed);
    let seq = run_architecture(&spec, EngineKind::Sequential);
    let point = profiler_overhead(&spec, 2);

    let seq_profile = seq.profiling.as_ref().expect("profiling on");
    let clu_profile = point.on.profiling.as_ref().expect("profiling on");
    let identical = outcomes_match(&seq, &point.on)
        && outcomes_match(&seq, &point.off)
        && seq_profile.merged_work() == clu_profile.merged_work();

    let mut summary = Table::new(
        format!("PROFILE: instrumentation overhead (n={n}, shards={shards})"),
        &[
            "config",
            "events",
            "windows",
            "wall_ms",
            "events/s",
            "overhead",
            "identical",
        ],
    );
    summary.row_owned(vec![
        "profile off".to_string(),
        point.off.events.to_string(),
        point.off.windows.to_string(),
        fmt_f64(point.wall_ms_off),
        fmt_f64(events_per_sec(point.off.events, point.wall_ms_off)),
        "-".to_string(),
        identical.to_string(),
    ]);
    summary.row_owned(vec![
        "profile on".to_string(),
        point.on.events.to_string(),
        point.on.windows.to_string(),
        fmt_f64(point.wall_ms_on),
        fmt_f64(events_per_sec(point.on.events, point.wall_ms_on)),
        fmt_f64(point.overhead_frac()),
        identical.to_string(),
    ]);

    let name = "fair-gossip";
    let phase = phase_table(name, clu_profile);
    let stall = stall_table(name, clu_profile).expect("cluster run has a schedule");
    let work = work_table(name, clu_profile);
    let records = vec![bench_row(&point, "profile")];
    ProfileResult {
        summary,
        phase_table: phase,
        stall_table: stall,
        work_table: work,
        identical,
        records,
    }
}

/// The large-population profiler smoke: `config`'s smoke workload
/// (telemetry off) run with profiling off then on, twice each, keeping
/// the best wall clocks.
///
/// The caller asserts the overhead bar — see
/// [`crate::run_by_id`]'s `profile-smoke` pseudo-id.
pub fn smoke(config: SmokeConfig, seed: u64) -> OverheadPoint {
    profiler_overhead(&config.spec(seed).with_profile(ProfileSpec::default()), 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_util::json;

    #[test]
    fn profile_experiment_gates_parity_and_builds_tables() {
        let r = run(48, 3, 42);
        assert!(r.identical, "profiled engines diverged");
        assert_eq!(r.summary.len(), 2);
        assert_eq!(r.phase_table.len(), 3 + 1, "3 shards + total row");
        assert_eq!(r.stall_table.len(), 3);
        assert_eq!(r.work_table.len(), 13);
        assert_eq!(r.records.len(), 1);
    }

    #[test]
    fn bench_record_renders_parseable_json() {
        let r = run(32, 2, 7);
        let text = r.records[0].to_json();
        let v = json::parse(&text).expect("record must parse as JSON");
        let num = |name: &str| v.get(name).and_then(|x| x.as_f64());
        assert_eq!(v.get("suite").and_then(|s| s.as_str()), Some("profile"));
        assert!(num("overhead_frac").is_some());
        assert!(num("events").unwrap() > 0.0 && num("windows").unwrap() > 0.0);
        assert!(num("wall_ms_on").unwrap() > 0.0 && num("wall_ms_off").unwrap() > 0.0);
        assert!(num("execute_ms").unwrap() > 0.0, "phases must be recorded");
    }

    #[test]
    fn measure_overhead_is_passive() {
        let p = profiler_overhead(&profile_spec(32, 2, 11), 1);
        assert!(outcomes_match(&p.off, &p.on), "profiling changed a result");
        assert!(p.off.profiling.is_none());
        assert!(p.on.profiling.is_some());
    }
}
