//! Work-counter parity: for the same spec, the sequential engine's
//! profiler and the sharded engine's merged per-shard profilers must
//! produce **bit-identical** deterministic [`WorkCounters`] at every
//! shard count — across placements, window policies, churn and a
//! flash-crowd burst — and attaching a profiler must never perturb the
//! virtual-world outcome.
//!
//! This is the profiling twin of `telemetry_parity.rs`: that suite pins
//! what the probes see, this one pins what the profiler counts. Only
//! the deterministic counters are gated; wall-clock phase timings and
//! scheduler-geometry counters (overflow hits, mailbox traffic) are
//! reported, not compared.

use fed_experiments::harness::{run_architecture, ArchOutcome, EngineKind};
use fed_experiments::scenario_run::{load_file, resolve_target};
use fed_profile::{ProfileSpec, WorkCounters};
use fed_sim::SimTime;
use fed_telemetry::TelemetrySpec;
use fed_workload::churn::ChurnPlan;
use fed_workload::pubs::{FlashCrowd, PubPlan};
use fed_workload::scenario::{Architecture, Placement, ScenarioSpec};
use proptest::prelude::*;

/// A small, busy profiled scenario. Telemetry rides along so the
/// `probe_calls` counter is exercised, not identically zero.
fn spec(arch: Architecture, n: usize, churn: bool, flash: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard(arch, n, 42);
    spec.plan = PubPlan {
        rate_per_sec: 12.0,
        duration: SimTime::from_secs(3),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: flash.then_some(FlashCrowd {
            at: SimTime::from_millis(2_500),
            topic_zipf_s: 3.0,
            rate_factor: 3.0,
        }),
    };
    if churn {
        spec.churn = Some(ChurnPlan {
            mean_session_secs: 2.0,
            mean_downtime_secs: 1.0,
            churning_fraction: 0.25,
            duration: SimTime::from_secs(3),
            warmup: SimTime::from_secs(1),
        });
    }
    spec.telemetry = Some(TelemetrySpec::default());
    spec.with_profile(ProfileSpec::default())
}

/// Sanity guard: a parity assertion over counters that never moved
/// proves nothing.
fn live_work(outcome: &ArchOutcome, what: &str) -> WorkCounters {
    let profile = outcome.profiling.as_ref().expect("profiling enabled");
    let work = profile.merged_work();
    assert!(work.events > 0, "{what}: profiler saw no events");
    assert!(work.queue_pops > 0, "{what}: profiler saw no queue pops");
    assert!(work.msgs_sent > 0, "{what}: profiler saw no sends");
    assert!(work.probe_calls > 0, "{what}: profiler saw no probe calls");
    assert!(
        work.queue_pushes >= work.queue_pops,
        "{what}: popped more than was ever pushed"
    );
    work
}

fn assert_work_parity(spec: &ScenarioSpec, shard_counts: &[usize]) {
    let expected = run_architecture(spec, EngineKind::Sequential);
    let expected_work = live_work(&expected, &format!("{} sequential", spec.arch));
    for &shards in shard_counts {
        let got = run_architecture(&spec.clone().with_shards(shards), EngineKind::Cluster);
        let got_work = live_work(&got, &format!("{} at {shards} shards", spec.arch));
        assert_eq!(
            got_work, expected_work,
            "{} with {shards} shards: work counters diverged",
            spec.arch
        );
        // The profiler is passive: the virtual world itself must match.
        assert_eq!(
            got.deliveries, expected.deliveries,
            "{} with {shards} shards: deliveries diverged under profiling",
            spec.arch
        );
        assert_eq!(
            got.events, expected.events,
            "{} with {shards} shards: event counts diverged under profiling",
            spec.arch
        );
    }
}

#[test]
fn fair_gossip_work_parity_across_shard_counts() {
    assert_work_parity(
        &spec(Architecture::FairGossip, 96, false, false),
        &[1, 2, 4, 7],
    );
}

#[test]
fn fair_gossip_work_parity_under_churn_and_flash_crowd() {
    assert_work_parity(
        &spec(Architecture::FairGossip, 96, true, true),
        &[1, 2, 4, 7],
    );
}

#[test]
fn splitstream_work_parity_under_churn_and_flash_crowd() {
    assert_work_parity(
        &spec(Architecture::SplitStream, 96, true, true),
        &[1, 2, 4, 7],
    );
}

/// Placement only moves nodes between shards; the merged counters must
/// not notice. The broker is the adversarial case — everything funnels
/// through node 0, so `Block` puts the whole hot path on one shard.
#[test]
fn work_parity_is_placement_invariant() {
    let base = spec(Architecture::Broker, 96, false, true);
    let expected = live_work(
        &run_architecture(&base, EngineKind::Sequential),
        "broker sequential",
    );
    for placement in [Placement::RoundRobin, Placement::Block, Placement::Balanced] {
        let sharded = base.clone().with_shards(4).with_placement(placement);
        let got = live_work(
            &run_architecture(&sharded, EngineKind::Cluster),
            &format!("broker {placement:?}"),
        );
        assert_eq!(got, expected, "placement {placement:?} moved the counters");
    }
}

/// Window sizing is a pure scheduling knob; adaptive vs fixed must agree
/// on every deterministic counter, including under churn.
#[test]
fn work_parity_is_window_policy_invariant() {
    let base = spec(Architecture::FairGossip, 96, true, false);
    let expected = live_work(
        &run_architecture(&base, EngineKind::Sequential),
        "fair-gossip sequential",
    );
    for adaptive in [true, false] {
        let sharded = base.clone().with_shards(4).with_adaptive_window(adaptive);
        let got = live_work(
            &run_architecture(&sharded, EngineKind::Cluster),
            &format!("fair-gossip adaptive={adaptive}"),
        );
        assert_eq!(got, expected, "adaptive={adaptive} moved the counters");
    }
}

/// Every architecture passes the gate at one representative shard count
/// with both stressors on.
#[test]
fn every_architecture_work_parity_at_three_shards() {
    for arch in Architecture::ALL {
        assert_work_parity(&spec(arch, 64, true, true), &[3]);
    }
}

/// Profiler attached vs detached: the observable outcome (deliveries,
/// ledgers, stats, events, telemetry) is bit-identical — the profiler
/// is free of side effects on either engine.
#[test]
fn profiling_never_perturbs_the_run() {
    let with = spec(Architecture::FairGossip, 64, true, true);
    let mut without = with.clone();
    without.profile = None;
    for engine in [EngineKind::Sequential, EngineKind::Cluster] {
        let profiled = run_architecture(&with.clone().with_shards(3), engine);
        let bare = run_architecture(&without.clone().with_shards(3), engine);
        assert_eq!(profiled.deliveries, bare.deliveries);
        assert_eq!(profiled.ledgers, bare.ledgers);
        assert_eq!(profiled.stats, bare.stats);
        assert_eq!(profiled.events, bare.events);
        assert_eq!(profiled.telemetry, bare.telemetry);
        assert!(profiled.profiling.is_some() && bare.profiling.is_none());
    }
}

fn arch_strategy() -> impl Strategy<Value = Architecture> {
    (0..Architecture::ALL.len()).prop_map(|i| Architecture::ALL[i])
}

/// A small, fast profiled scenario for the property sweep: n ≤ 48, a
/// two-second publication burst.
fn small_spec(arch: Architecture, n: usize, seed: u64, churn: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard(arch, n, seed);
    spec.plan = PubPlan {
        rate_per_sec: 8.0,
        duration: SimTime::from_secs(2),
        topic_zipf_s: 1.0,
        payload_bytes: 32,
        warmup: SimTime::from_millis(500),
        flash: None,
    };
    if churn {
        spec.churn = Some(ChurnPlan {
            mean_session_secs: 2.0,
            mean_downtime_secs: 1.0,
            churning_fraction: 0.2,
            duration: SimTime::from_secs(2),
            warmup: SimTime::from_millis(500),
        });
    }
    spec.with_profile(ProfileSpec::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized profiled scenarios agree across engines at an
    /// arbitrary shard count. Telemetry stays off here, so this also
    /// covers the `probe_calls == 0` corner.
    #[test]
    fn randomized_work_counters_are_engine_agnostic(
        arch in arch_strategy(),
        n in 2usize..=48,
        seed in any::<u64>(),
        shards in 1usize..=8,
        churn in any::<bool>(),
    ) {
        let spec = small_spec(arch, n, seed, churn);
        let expected = run_architecture(&spec, EngineKind::Sequential);
        let got = run_architecture(&spec.clone().with_shards(shards), EngineKind::Cluster);
        let (exp_p, got_p) = (
            expected.profiling.as_ref().expect("profiling enabled"),
            got.profiling.as_ref().expect("profiling enabled"),
        );
        prop_assert_eq!(
            got_p.merged_work(),
            exp_p.merged_work(),
            "{} n={} shards={} churn={}: work counters diverged",
            arch, n, shards, churn
        );
        prop_assert_eq!(&got.deliveries, &expected.deliveries);
        prop_assert_eq!(got.events, expected.events);
    }
}

/// One barrier window as the profile derives it from the per-shard
/// reports, in the golden file's line format: `index start_us width_us
/// straggler ends events`, the last two per shard, comma-separated.
fn schedule_lines(outcome: &ArchOutcome) -> Vec<String> {
    let profile = outcome.profiling.as_ref().expect("profiling enabled");
    let joined = |values: Vec<u64>| {
        let text: Vec<String> = values.iter().map(u64::to_string).collect();
        text.join(",")
    };
    profile
        .barrier_windows()
        .into_iter()
        .map(|reports| {
            let w = reports[0];
            let ends = reports.iter().map(|r| r.issued_end.as_micros()).collect();
            let events = reports.iter().map(|r| r.events).collect();
            format!(
                "{} {} {} {} {} {}",
                w.index,
                w.start.as_micros(),
                w.width.as_micros(),
                w.straggler.expect("a barrier window has a straggler"),
                joined(ends),
                joined(events)
            )
        })
        .collect()
}

/// The schedule derived from the per-shard window reports is exactly
/// the one the coordinator recorded when it kept its own trace
/// (`tests/data/schedule_golden.txt`, captured from that coordinator):
/// window by window, the start, width, straggler, the end issued to
/// each shard and the events each shard ran.
#[test]
fn derived_schedule_matches_the_recorded_coordinator() {
    let golden = include_str!("data/schedule_golden.txt");
    let mut sections: Vec<(String, Vec<&str>)> = Vec::new();
    for line in golden.lines() {
        if let Some(title) = line.strip_prefix("# ") {
            if title.contains("shards=") {
                sections.push((title.to_string(), Vec::new()));
            }
        } else if let Some((_, lines)) = sections.last_mut() {
            lines.push(line);
        }
    }
    assert_eq!(sections.len(), 3, "three captured runs");
    for (title, expected) in sections {
        let (name, shards) = title.split_once(" shards=").expect("`name shards=N`");
        let path = resolve_target(&format!("@{name}"));
        let spec = load_file(&path).expect("library scenario").spec;
        let spec = spec
            .with_shards(shards.parse().expect("shard count"))
            .with_profile(ProfileSpec::default());
        let outcome = run_architecture(&spec, EngineKind::Cluster);
        let derived = schedule_lines(&outcome);
        assert_eq!(derived.len(), expected.len(), "{title}: windows");
        assert_eq!(outcome.windows, derived.len() as u64, "{title}: windows");
        for (got, want) in derived.iter().zip(&expected) {
            assert_eq!(got, want, "{title}");
        }
    }
}
