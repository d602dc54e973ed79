//! Telemetry series parity: for the same spec, the sequential engine's
//! single collector and the sharded engine's merged per-shard collectors
//! must produce the same `TelemetrySeries` at every shard count,
//! including under churn and through a flash-crowd burst, and attaching
//! telemetry must never perturb the virtual-world outcome.
//!
//! The cells live in `parity/mod.rs`; each reference run must see sends
//! and delivery latencies.

mod parity;

use parity::check_family;

#[test]
fn fair_gossip_series_parity_across_shard_counts() {
    check_family("telemetry_parity::fair_gossip_series_parity_across_shard_counts");
}

#[test]
fn fair_gossip_series_parity_under_churn_and_flash_crowd() {
    check_family("telemetry_parity::fair_gossip_series_parity_under_churn_and_flash_crowd");
}

#[test]
fn splitstream_series_parity_under_churn_and_flash_crowd() {
    check_family("telemetry_parity::splitstream_series_parity_under_churn_and_flash_crowd");
}

#[test]
fn broker_hotspot_series_parity() {
    check_family("telemetry_parity::broker_hotspot_series_parity");
}

/// Every architecture at three shards with both stressors on; fair
/// gossip's cell is `telemetry_never_perturbs_the_run`'s.
#[test]
fn every_architecture_series_parity_at_three_shards() {
    check_family("telemetry_parity::every_architecture_series_parity_at_three_shards");
}

/// Telemetry attached and detached, on both engines: the outcome is the
/// same.
#[test]
fn telemetry_never_perturbs_the_run() {
    check_family("telemetry_parity::telemetry_never_perturbs_the_run");
}

/// The timeseries experiment's own scenario at the shard counts the
/// experiment does not sweep.
#[test]
fn experiment_scenario_series_parity() {
    check_family("telemetry_parity::experiment_scenario_series_parity");
}
