//! Instrument independence: telemetry, profiling and tracing share one
//! observer seam, so every subset of them must (a) leave the
//! virtual-world outcome exactly as an uninstrumented run produces it and
//! (b) produce, per attached instrument, exactly the artifact that
//! instrument produces when attached alone — on the sequential engine and
//! on the cluster at shards {1, 4}, under churn and a flash crowd.
//!
//! The parity suites next to this one cover telemetry + profile together
//! and trace alone; this one covers the whole 2³ lattice.

use fed_experiments::harness::{run_architecture, ArchOutcome, EngineKind};
use fed_profile::{ProfileSpec, WorkCounters};
use fed_sim::SimTime;
use fed_telemetry::TelemetrySpec;
use fed_trace::TraceSpec;
use fed_workload::churn::ChurnPlan;
use fed_workload::pubs::{FlashCrowd, PubPlan};
use fed_workload::scenario::{Architecture, ScenarioSpec};

/// A small, busy scenario with churn and a flash crowd, no instruments.
fn bare_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard(Architecture::FairGossip, 64, 42);
    spec.plan = PubPlan {
        rate_per_sec: 12.0,
        duration: SimTime::from_secs(3),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: Some(FlashCrowd {
            at: SimTime::from_millis(2_500),
            topic_zipf_s: 3.0,
            rate_factor: 3.0,
        }),
    };
    spec.churn = Some(ChurnPlan {
        mean_session_secs: 2.0,
        mean_downtime_secs: 1.0,
        churning_fraction: 0.25,
        duration: SimTime::from_secs(3),
        warmup: SimTime::from_secs(1),
    });
    spec
}

/// `bare_spec` with the chosen instruments attached.
fn instrumented(telemetry: bool, profile: bool, trace: bool) -> ScenarioSpec {
    let mut spec = bare_spec();
    if telemetry {
        spec = spec.with_telemetry(TelemetrySpec::default());
    }
    if profile {
        spec = spec.with_profile(ProfileSpec::default());
    }
    if trace {
        spec = spec.with_trace(TraceSpec::default());
    }
    spec
}

/// The merged work counters with `probe_calls` split off: it is the one
/// counter that (by design) depends on whether telemetry rides along.
fn work_of(outcome: &ArchOutcome) -> (WorkCounters, u64) {
    let mut work = outcome
        .profiling
        .as_ref()
        .expect("profiling enabled")
        .merged_work();
    let probe_calls = std::mem::take(&mut work.probe_calls);
    (work, probe_calls)
}

#[test]
fn every_instrument_subset_is_passive_and_independent() {
    let plain = run_architecture(&bare_spec(), EngineKind::Sequential);
    assert!(plain.total_deliveries() > 0, "dead scenario proves nothing");
    assert!(plain.telemetry.is_none() && plain.profiling.is_none() && plain.trace.is_none());

    // Each instrument's artifact when it is the only one attached.
    let alone = |t, p, tr| run_architecture(&instrumented(t, p, tr), EngineKind::Sequential);
    let series_alone = alone(true, false, false).telemetry.expect("series");
    let (work_alone, calls_alone) = work_of(&alone(false, true, false));
    let hops_alone = alone(false, false, true).trace.expect("hops");
    assert!(series_alone.windows.iter().any(|w| w.events > 0));
    assert!(work_alone.events > 0 && work_alone.msgs_lost < work_alone.msgs_sent);
    assert_eq!(calls_alone, 0, "no telemetry, no probe calls");
    assert!(!hops_alone.is_empty(), "an empty trace proves nothing");
    // What the counting wrapper reports whenever telemetry rides along.
    let (_, calls_with_telemetry) = work_of(&alone(true, true, false));
    assert!(calls_with_telemetry > 0);

    for subset in 0u8..8 {
        let (telemetry, profile, trace) = (subset & 1 != 0, subset & 2 != 0, subset & 4 != 0);
        let spec = instrumented(telemetry, profile, trace);
        let runs = [
            (EngineKind::Sequential, 1),
            (EngineKind::Cluster, 1),
            (EngineKind::Cluster, 4),
        ];
        for (engine, shards) in runs {
            let what = format!(
                "telemetry={telemetry} profile={profile} trace={trace} on {engine:?} at {shards} shards"
            );
            let got = run_architecture(&spec.clone().with_shards(shards), engine);
            assert_eq!(got.deliveries, plain.deliveries, "{what}: deliveries");
            assert_eq!(got.ledgers, plain.ledgers, "{what}: ledgers");
            assert_eq!(got.stats, plain.stats, "{what}: transport stats");
            assert_eq!(got.events, plain.events, "{what}: event count");

            assert_eq!(
                got.telemetry.is_some(),
                telemetry,
                "{what}: series presence"
            );
            if let Some(series) = &got.telemetry {
                assert_eq!(series, &series_alone, "{what}: series");
            }
            assert_eq!(got.profiling.is_some(), profile, "{what}: profile presence");
            if profile {
                let (work, calls) = work_of(&got);
                assert_eq!(work, work_alone, "{what}: work counters");
                let expected_calls = if telemetry { calls_with_telemetry } else { 0 };
                assert_eq!(calls, expected_calls, "{what}: probe calls");
            }
            assert_eq!(got.trace.is_some(), trace, "{what}: trace presence");
            if let Some(hops) = &got.trace {
                assert_eq!(hops, &hops_alone, "{what}: hops");
            }
        }
    }
}
