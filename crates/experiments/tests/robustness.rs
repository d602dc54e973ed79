//! Robustness parity gates: the SWIM failure detector, scheduled fault
//! injection and adaptive strategy switching must all be engine- and
//! shard-invariant.
//!
//! Every test runs the same spec on the sequential engine and on the
//! cluster at shard counts {1, 2, 4, 7}, asserting the full outcome —
//! delivery logs, fairness ledgers, transport statistics, event counts,
//! telemetry and the SWIM observation logs — is bit-identical. Faults
//! and failure detection are deterministic simulation data, never an
//! excuse for divergence.

use fed_experiments::harness::{run_architecture, ArchOutcome, EngineKind};
use fed_experiments::scenario_run::outcomes_match;
use fed_sim::network::{
    DelayFault, FaultSchedule, MobilitySegment, MobilityTrace, OnewayFault, PartitionFault,
};
use fed_sim::{SimDuration, SimTime};
use fed_telemetry::TelemetrySpec;
use fed_workload::churn::ChurnPlan;
use fed_workload::pubs::{FlashCrowd, PubPlan};
use fed_workload::scenario::{Architecture, ScenarioSpec};

const PARITY_SHARDS: [usize; 4] = [1, 2, 4, 7];

/// A gossip scenario with the detector armed, busy enough to exercise
/// probes, ping-reqs, suspicions and piggybacked dissemination.
fn detector_spec(arch: Architecture, n: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard(arch, n, seed);
    spec.plan = PubPlan {
        rate_per_sec: 10.0,
        duration: SimTime::from_secs(4),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: None,
    };
    spec.with_membership()
}

/// Runs the parity sweep and returns the sequential outcome for further
/// assertions.
fn assert_parity(spec: &ScenarioSpec, what: &str) -> ArchOutcome {
    let expected = run_architecture(spec, EngineKind::Sequential);
    assert!(
        expected.total_deliveries() > 0,
        "{what}: dead scenario proves nothing"
    );
    for shards in PARITY_SHARDS {
        let got = run_architecture(&spec.clone().with_shards(shards), EngineKind::Cluster);
        assert_eq!(
            got.swim, expected.swim,
            "{what}: SWIM observation logs diverged at {shards} shards"
        );
        assert_eq!(
            got.handovers, expected.handovers,
            "{what}: handover instants diverged at {shards} shards"
        );
        assert!(
            outcomes_match(&expected, &got),
            "{what}: outcome diverged at {shards} shards"
        );
    }
    expected
}

/// Mega-churn: a quarter of the population cycling through 1.5 s
/// sessions while the detector probes. The detector must observe the
/// exact same suspicion/confirmation/refutation history on every engine
/// and shard count — and actually detect the crashes.
#[test]
fn swim_parity_under_mega_churn() {
    let mut spec = detector_spec(Architecture::FairGossip, 128, 42);
    spec.churn = Some(ChurnPlan {
        mean_session_secs: 1.5,
        mean_downtime_secs: 1.0,
        churning_fraction: 0.25,
        duration: SimTime::from_secs(3),
        warmup: SimTime::from_secs(1),
    });
    let outcome = assert_parity(&spec, "mega-churn");
    assert!(
        outcome.total_swim_observations() > 0,
        "mega-churn must generate detector traffic"
    );
    let series = outcome.membership_series(SimDuration::from_millis(500));
    assert!(
        series.total_detections() > 0,
        "crashes under mega-churn must be confirmed"
    );
}

/// A scheduled partition (ids < 32 vs the rest) that heals mid-run. The
/// far side looks dead to each half — those suspicions are *false*
/// (nobody crashed) — and after the heal the refutation wave revives the
/// records. All of it bit-identical across engines and shard counts.
#[test]
fn swim_parity_through_partition_heal() {
    let mut spec = detector_spec(Architecture::FairGossip, 96, 7);
    spec = spec.with_faults(FaultSchedule {
        partition: Some(PartitionFault {
            at: SimTime::from_millis(1_500),
            heal: SimTime::from_millis(3_500),
            split: 32,
        }),
        oneway: None,
        delay: None,
    });
    let outcome = assert_parity(&spec, "partition-heal");
    let series = outcome.membership_series(SimDuration::from_millis(500));
    assert!(
        series.total_false_suspicions() > 0,
        "a partition must look like failure to the detector"
    );
    assert!(
        series.total_refutes() > 0,
        "the heal must trigger a refutation wave"
    );
    // The partition dents reliability at most transiently: the scenario
    // still delivers on both sides throughout.
    assert!(outcome.total_deliveries() > 0);
}

/// One-way link failure (messages from ids < 16 to the rest are dropped)
/// plus a delay spike, layered on churn: the full fault vocabulary in a
/// single schedule, still engine-invariant.
#[test]
fn fault_vocabulary_parity_with_detector() {
    let mut spec = detector_spec(Architecture::StaticGossip, 80, 11);
    spec.churn = Some(ChurnPlan {
        mean_session_secs: 2.0,
        mean_downtime_secs: 1.0,
        churning_fraction: 0.15,
        duration: SimTime::from_secs(3),
        warmup: SimTime::from_secs(1),
    });
    spec = spec.with_faults(FaultSchedule {
        partition: None,
        oneway: Some(OnewayFault {
            at: SimTime::from_millis(1_200),
            until: SimTime::from_millis(2_200),
            split: 16,
        }),
        delay: Some(DelayFault {
            at: SimTime::from_millis(2_500),
            until: SimTime::from_millis(3_500),
            extra: SimDuration::from_millis(40),
        }),
    });
    assert_parity(&spec, "oneway+delay");
}

/// The hybrid architecture's broker→gossip handover fires under a flash
/// crowd, at the same instant on every engine and shard count, and the
/// run keeps delivering after the switch.
#[test]
fn hybrid_handover_parity_under_flash_crowd() {
    let mut spec = detector_spec(Architecture::Hybrid, 64, 3);
    spec.plan = PubPlan {
        rate_per_sec: 20.0,
        duration: SimTime::from_secs(5),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: Some(FlashCrowd {
            at: SimTime::from_secs(2),
            topic_zipf_s: 3.0,
            rate_factor: 12.0,
        }),
    };
    let outcome = assert_parity(&spec, "hybrid flash crowd");
    let handover = outcome
        .handover_time()
        .expect("the flash crowd must push publish load past the spike threshold");
    assert!(
        handover >= SimTime::from_secs(2),
        "handover cannot precede the burst (got {handover:?})"
    );
    assert!(
        outcome.handovers.iter().all(|h| h.is_some()),
        "every node must eventually switch"
    );
}

/// A periodic mobility blackout (ids < 24 lose the core for 1.3s of
/// every 2.5s cycle) under the armed detector: each blackout looks like
/// mass failure — *false* suspicions, since nobody crashed — and each
/// reconnection triggers refutations. The trace is evaluated as a pure
/// function of (time, from, to), so the whole history is bit-identical
/// across engines and shard counts {1, 2, 4, 7}.
#[test]
fn swim_parity_under_mobility_blackouts() {
    let mut spec = detector_spec(Architecture::FairGossip, 72, 13);
    spec = spec.with_mobility(MobilityTrace {
        split: 24,
        period: Some(SimDuration::from_millis(2_500)),
        segments: vec![
            MobilitySegment {
                at: SimTime::ZERO,
                extra: SimDuration::ZERO,
                disconnected: false,
            },
            MobilitySegment {
                at: SimTime::from_millis(1_200),
                extra: SimDuration::ZERO,
                disconnected: true,
            },
        ],
    });
    let outcome = assert_parity(&spec, "mobility blackout");
    let series = outcome.membership_series(SimDuration::from_millis(500));
    assert!(
        series.total_false_suspicions() > 0,
        "a blackout must look like failure to the detector"
    );
    assert!(
        series.total_refutes() > 0,
        "each reconnection must trigger a refutation wave"
    );
}

/// The hybrid broker→gossip handover still fires — at the same instant
/// everywhere — when a mobility trace is degrading the world underneath
/// the flash crowd: an extra-latency segment while the load builds,
/// then a permanent disconnection of a fringe group after the switch.
#[test]
fn hybrid_handover_parity_under_mobility() {
    let mut spec = detector_spec(Architecture::Hybrid, 64, 9);
    spec.plan = PubPlan {
        rate_per_sec: 20.0,
        duration: SimTime::from_secs(5),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: Some(FlashCrowd {
            at: SimTime::from_secs(2),
            topic_zipf_s: 3.0,
            rate_factor: 12.0,
        }),
    };
    spec = spec.with_mobility(MobilityTrace {
        split: 16,
        period: None,
        segments: vec![
            MobilitySegment {
                at: SimTime::from_millis(1_500),
                extra: SimDuration::from_millis(25),
                disconnected: false,
            },
            MobilitySegment {
                at: SimTime::from_millis(4_000),
                extra: SimDuration::ZERO,
                disconnected: true,
            },
        ],
    });
    let outcome = assert_parity(&spec, "hybrid under mobility");
    let handover = outcome
        .handover_time()
        .expect("the flash crowd must still push load past the spike threshold");
    assert!(
        handover >= SimTime::from_secs(2),
        "handover cannot precede the burst (got {handover:?})"
    );
    assert!(outcome.total_deliveries() > 0);
}

/// Detection *telemetry* is byte-identical too: the membership series
/// derived from the observation logs matches across engines at shards
/// {1, 4}, with the full telemetry pipeline running alongside.
#[test]
fn detection_telemetry_parity() {
    let mut spec = detector_spec(Architecture::FairGossip, 64, 5);
    spec.telemetry = Some(TelemetrySpec::default().with_window(SimDuration::from_millis(500)));
    spec.churn = Some(ChurnPlan {
        mean_session_secs: 1.5,
        mean_downtime_secs: 1.0,
        churning_fraction: 0.2,
        duration: SimTime::from_secs(3),
        warmup: SimTime::from_secs(1),
    });
    let window = SimDuration::from_millis(500);
    let sequential = run_architecture(&spec, EngineKind::Sequential);
    let expected = sequential.membership_series(window);
    assert!(expected.total_detections() > 0, "dead detector");
    for shards in [1usize, 4] {
        let got = run_architecture(&spec.clone().with_shards(shards), EngineKind::Cluster);
        assert_eq!(
            got.membership_series(window),
            expected,
            "membership series diverged at {shards} shards"
        );
        assert_eq!(
            got.telemetry, sequential.telemetry,
            "telemetry series diverged at {shards} shards"
        );
    }
}
