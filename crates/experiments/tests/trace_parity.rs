//! Hop-trace parity: for the same traced spec, the sequential engine's
//! trace buffer and the sharded engine's merged per-shard buffers must be
//! the same at every shard count, across architectures, churn, scheduled
//! faults and sampling rates, and attaching a tracer must never perturb
//! the virtual-world outcome.
//!
//! The cells live in `parity/mod.rs`. Hop records are emitted on the
//! sender-owning shard and merged in canonical order, so the merged
//! cluster buffer is the same sequence as the sequential one.

mod parity;

use fed_experiments::harness::{run_architecture, EngineKind};
use fed_trace::TraceSpec;
use fed_workload::scenario::Architecture;
use parity::{check_family, sampled_spec, workload};

/// Every architecture's hop trace merges identically, and each tags its
/// hops with its own vocabulary.
#[test]
fn every_architecture_trace_parity_with_distinct_hop_kinds() {
    check_family("trace_parity::every_architecture_trace_parity_with_distinct_hop_kinds");
}

/// Churn plus a flash crowd: nodes leave and rejoin mid-dissemination
/// and the hot topic bursts.
#[test]
fn trace_parity_under_churn_and_flash_crowd() {
    check_family("trace_parity::trace_parity_under_churn_and_flash_crowd");
}

/// Partition, one-way failure and delay spike layered on churn: dropped
/// hops are recorded with `deliver_time: None` on every engine.
#[test]
fn trace_parity_under_scheduled_faults() {
    check_family("trace_parity::trace_parity_under_scheduled_faults");
}

/// Sampling keeps parity, and selects whole events by hash: the sampled
/// trace is exactly the full trace filtered by `fed_trace::sampled`, and
/// smaller.
#[test]
fn trace_parity_is_sampling_invariant() {
    check_family("trace_parity::trace_parity_is_sampling_invariant");
    let full_spec =
        workload(Architecture::FairGossip, 64, 5, 10.0, 3).with_trace(TraceSpec::default());
    let full = run_architecture(&full_spec, EngineKind::Sequential);
    let sampled = run_architecture(&sampled_spec(), EngineKind::Sequential);
    let (full, some) = (full.trace.expect("traced"), sampled.trace.expect("traced"));
    assert!(
        some.len() < full.len(),
        "sampling at 0.3 must shrink the buffer"
    );
    let expected: Vec<_> = full
        .iter()
        .filter(|h| fed_trace::sampled(h.event, 0xFED, 0.3))
        .copied()
        .collect();
    assert_eq!(some, expected);
}

/// The hybrid under a mid-run partition at shards {1, 4}: the handover
/// fires at the same instant everywhere, and the trace shows broker hops
/// and gossip hops.
#[test]
fn hybrid_partition_handover_instant_parity() {
    check_family("trace_parity::hybrid_partition_handover_instant_parity");
}
