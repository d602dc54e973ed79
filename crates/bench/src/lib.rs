//! # fed-bench
//!
//! Criterion benchmark harness. The `benches/` targets regenerate every
//! paper figure/table (printing each table once per run, then timing the
//! underlying simulation) plus micro-benchmarks of the hot paths:
//!
//! * `figures` — FIG1..FIG4 experiment benchmarks.
//! * `architectures` — T-ARCH, E-CHURN, E-SUBS, E-CONV, E-ROBUST, E-BIAS.
//! * `protocol_micro` — ledger updates, controllers, filter matching,
//!   full gossip rounds.
//! * `substrate_micro` — PRNG, distributions, DHT routing, Cyclon
//!   shuffles, event-queue throughput.
//! * `cluster_scale` — shard-count sweep of every sweep architecture on
//!   the `fed-cluster` runtime at 1k/10k/100k nodes, plus the
//!   `BENCH_cluster.json` record pass.
//!
//! Run with `cargo bench --workspace`.

#![forbid(unsafe_code)]
