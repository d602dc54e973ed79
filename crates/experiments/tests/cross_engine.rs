//! Cross-engine determinism: the same scenario run through the harness on
//! the sequential `fed_sim::Simulation` and on `fed-cluster` must produce
//! the same outcome at any shard count and placement.
//!
//! The cells (`parity/mod.rs`) cover the original 1000-node fair-gossip
//! scenario, every baseline architecture (broker, Scribe, DKS,
//! SplitStream and DAM) at shard counts {1, 2, 4, 7} under every
//! placement, with and without churn, a zero-latency network, and the
//! paper's own gossip configurations: FIG3's four adaptation variants,
//! E-ABLATE's correction gains and E-BIAS's cheat mix.
//!
//! All runs share one workload scheduler, so this asserts the engines
//! themselves: shard count is a performance knob, never a semantics knob.

mod parity;

use fed_core::gossip::GossipConfig;
use fed_experiments::harness::{prepare_gossip, EngineKind};
use fed_workload::scenario::ScenarioSpec;
use parity::{cells, check_family, honest};

/// Per-node duplicate receipts of `spec` under fair(4, 16) gossip on
/// `engine`: node state no outcome carries.
fn duplicates(spec: &ScenarioSpec, engine: EngineKind) -> Vec<u64> {
    let mut run = prepare_gossip(spec, engine, GossipConfig::fair(4, 16), honest);
    run.sim.run_until(run.horizon());
    run.sim.nodes().map(|(_, node)| node.duplicates()).collect()
}

/// 1000 fair-gossip nodes at shards {1, 2, 4}: the outcome, and the
/// per-node duplicate counts the outcome does not carry.
#[test]
fn cross_engine_determinism_1k_nodes() {
    const FAMILY: &str = "cross_engine::cross_engine_determinism_1k_nodes";
    check_family(FAMILY);
    let cell = cells()
        .into_iter()
        .find(|c| c.family() == FAMILY)
        .expect("cell");
    let expected = duplicates(&cell.spec, EngineKind::Sequential);
    assert!(
        expected.iter().sum::<u64>() > 0,
        "gossip without duplicates"
    );
    for &shards in &cell.shards {
        let spec = cell.spec.clone().with_shards(shards);
        let got = duplicates(&spec, EngineKind::Cluster);
        assert_eq!(
            got, expected,
            "duplicate counts diverged at {shards} shards"
        );
    }
}

#[test]
fn broker_parity_across_shard_counts() {
    check_family("cross_engine::broker_parity_across_shard_counts");
}

#[test]
fn scribe_parity_across_shard_counts() {
    check_family("cross_engine::scribe_parity_across_shard_counts");
}

#[test]
fn dks_parity_across_shard_counts() {
    check_family("cross_engine::dks_parity_across_shard_counts");
}

#[test]
fn splitstream_parity_across_shard_counts() {
    check_family("cross_engine::splitstream_parity_across_shard_counts");
}

#[test]
fn dam_parity_across_shard_counts() {
    check_family("cross_engine::dam_parity_across_shard_counts");
}

/// Every baseline stays engine-agnostic under churn: crashes drop nodes
/// mid-dissemination and rejoins wake the same node state, identically
/// on both engines.
#[test]
fn baseline_parity_under_churn() {
    check_family("cross_engine::baseline_parity_under_churn");
}

#[test]
fn cross_engine_determinism_under_churn() {
    check_family("cross_engine::cross_engine_determinism_under_churn");
}

/// A zero-latency network floors the lookahead at the 1 µs delivery
/// minimum: the narrowest conservative windows the scheduler can issue,
/// and the harshest test of the pipelined exchange.
#[test]
fn zero_lookahead_floor_parity_across_shard_counts() {
    check_family("cross_engine::zero_lookahead_floor_parity_across_shard_counts");
}

/// Zero lookahead and churn together: crashes and rejoins land inside
/// 1 µs-floored windows while inbound batches stream through the
/// pipelined mailboxes.
#[test]
fn zero_lookahead_floor_parity_under_churn() {
    check_family("cross_engine::zero_lookahead_floor_parity_under_churn");
}

/// FIG3's four `(adapt_fanout, adapt_msg_size)` variants of the
/// expressive fair protocol.
#[test]
fn fig3_adaptation_variants_parity_across_shard_counts() {
    check_family("cross_engine::fig3_adaptation_variants_parity_across_shard_counts");
}

/// E-ABLATE's extreme correction gains: pure proportional control and the
/// hardest-reacting setting of the sweep.
#[test]
fn ablation_gains_parity_across_shard_counts() {
    check_family("cross_engine::ablation_gains_parity_across_shard_counts");
}

/// E-BIAS's population: a tenth free-riders, a tenth inflators, the rest
/// honest.
#[test]
fn bias_behavior_mix_parity_across_shard_counts() {
    check_family("cross_engine::bias_behavior_mix_parity_across_shard_counts");
}
