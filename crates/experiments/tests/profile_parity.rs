//! Work-counter parity: for the same spec, the sequential engine's
//! profiler and the sharded engine's merged per-shard profilers must
//! produce the same deterministic work counters at every shard count,
//! across placements, churn and a flash-crowd burst, and attaching a
//! profiler must never perturb the virtual-world outcome. Wall-clock
//! timings are reported, never compared.
//!
//! The cells live in `parity/mod.rs`; each reference run must count
//! events, pops and sends.

mod parity;

use fed_experiments::harness::{run_architecture, ArchOutcome, EngineKind};
use fed_experiments::scenario_run::{load_file, resolve_target};
use fed_profile::ProfileSpec;
use parity::check_family;

#[test]
fn fair_gossip_work_parity_across_shard_counts() {
    check_family("profile_parity::fair_gossip_work_parity_across_shard_counts");
}

#[test]
fn fair_gossip_work_parity_under_churn_and_flash_crowd() {
    check_family("profile_parity::fair_gossip_work_parity_under_churn_and_flash_crowd");
}

#[test]
fn splitstream_work_parity_under_churn_and_flash_crowd() {
    check_family("profile_parity::splitstream_work_parity_under_churn_and_flash_crowd");
}

/// Placement only moves nodes between shards; the merged counters must
/// not notice. The broker is the adversarial case: everything funnels
/// through node 0, so `Block` puts the whole hot path on one shard.
#[test]
fn work_parity_is_placement_invariant() {
    check_family("profile_parity::work_parity_is_placement_invariant");
}

/// Every architecture at three shards with both stressors on; fair
/// gossip's cell is `profiling_never_perturbs_the_run`'s.
#[test]
fn every_architecture_work_parity_at_three_shards() {
    check_family("profile_parity::every_architecture_work_parity_at_three_shards");
}

/// Profiler attached and detached, on both engines: the outcome and the
/// telemetry series are the same.
#[test]
fn profiling_never_perturbs_the_run() {
    check_family("profile_parity::profiling_never_perturbs_the_run");
}

/// Small drawn scenarios (architecture, population, seed, shard count,
/// churn), profiled.
#[test]
fn randomized_work_counters_are_engine_agnostic() {
    check_family("profile_parity::randomized_work_counters_are_engine_agnostic");
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
