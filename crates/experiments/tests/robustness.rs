//! Robustness parity gates: the SWIM failure detector, scheduled fault
//! injection, mobility and the hybrid's strategy switch must all be
//! engine- and shard-invariant.
//!
//! Each cell (`parity/mod.rs`) runs its spec on the sequential engine and
//! on the cluster, and compares the whole outcome, SWIM observation logs
//! and handovers included. Each also requires its reference run to show
//! what it names: detections, false suspicions and refutations, or a
//! handover after the burst. Faults and failure detection are
//! deterministic simulation data, never an excuse for divergence.

mod parity;

use parity::check_family;

/// Mega-churn: a quarter of the population cycling through 1.5 s
/// sessions while the detector probes, which must detect the crashes.
#[test]
fn swim_parity_under_mega_churn() {
    check_family("robustness::swim_parity_under_mega_churn");
}

/// A scheduled partition (ids < 32 vs the rest) that heals mid-run: the
/// far side looks dead to each half, and after the heal the refutation
/// wave revives the records.
#[test]
fn swim_parity_through_partition_heal() {
    check_family("robustness::swim_parity_through_partition_heal");
}

/// One-way link failure (ids < 16 to the rest) plus a delay spike,
/// layered on churn: the full fault vocabulary in one schedule.
#[test]
fn fault_vocabulary_parity_with_detector() {
    check_family("robustness::fault_vocabulary_parity_with_detector");
}

/// The hybrid's broker→gossip handover fires under a flash crowd, at the
/// same instant on every engine and shard count, on every node.
#[test]
fn hybrid_handover_parity_under_flash_crowd() {
    check_family("robustness::hybrid_handover_parity_under_flash_crowd");
}

/// A periodic mobility blackout (ids < 24 lose the core for 1.3 s of
/// every 2.5 s cycle): each blackout looks like mass failure, and each
/// reconnection triggers refutations.
#[test]
fn swim_parity_under_mobility_blackouts() {
    check_family("robustness::swim_parity_under_mobility_blackouts");
}

/// The hybrid handover still fires when a mobility trace degrades the
/// world underneath the flash crowd.
#[test]
fn hybrid_handover_parity_under_mobility() {
    check_family("robustness::hybrid_handover_parity_under_mobility");
}

/// Detection under the full telemetry pipeline, at shards {1, 4}.
#[test]
fn detection_telemetry_parity() {
    check_family("robustness::detection_telemetry_parity");
}
