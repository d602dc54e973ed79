//! # fed — Fair Event Dissemination
//!
//! A reproduction of *"Towards Fair Event Dissemination"* (S. Baehni,
//! R. Guerraoui, B. Koldehofe, M. Monod — ICDCS 2007) as a working system:
//! a fairness-adaptive gossip publish/subscribe protocol, every baseline
//! architecture the paper analyses, a deterministic discrete-event
//! simulator to run them on, and an experiment suite that regenerates each
//! of the paper's figures as measured tables.
//!
//! This crate is the facade: it re-exports the workspace so applications
//! can depend on a single crate. The layers, bottom to top:
//!
//! | Module | Source crate | Contents |
//! |---|---|---|
//! | [`util`] | `fed-util` | deterministic PRNG, distributions, statistics, fairness indices |
//! | [`sim`] | `fed-sim` | discrete-event simulator: protocols, virtual time, network models, churn |
//! | [`cluster`] | `fed-cluster` | sharded multi-threaded runtime, bit-identical to the sequential engine |
//! | [`telemetry`] | `fed-telemetry` | deterministic streaming time-series observability for both engines |
//! | [`profile`] | `fed-profile` | scheduler profiler: phase timings, stall attribution, Chrome-trace export |
//! | [`pubsub`] | `fed-pubsub` | events, flat topics, the publish/subscribe `Command` |
//! | [`membership`] | `fed-membership` | peer sampling (full-membership oracle) and SWIM failure detection |
//! | [`dht`] | `fed-dht` | Pastry-like ring for the structured baselines |
//! | [`core`] | `fed-core` | **the paper's contribution**: fairness ledger, basic + fair gossip, controllers, audits, subscription walks |
//! | [`baselines`] | `fed-baselines` | broker, Scribe, DKS, data-aware multicast, SplitStream |
//! | [`metrics`] | `fed-metrics` | delivery audits, fairness reports, result tables |
//! | [`workload`] | `fed-workload` | interest profiles, publication schedules, churn traces, generated sweeps |
//! | [`sweep`] | `fed-sweep` | sweep summaries, Pareto frontiers, the `BENCH_sweep.json` format |
//! | [`experiments`] | `fed-experiments` | one module per paper figure/claim |
//!
//! ## Quickstart
//!
//! ```
//! use fed::core::gossip::{GossipConfig, GossipNode};
//! use fed::pubsub::{Command, Event, EventId, TopicId};
//! use fed::sim::network::NetworkModel;
//! use fed::sim::{NodeId, SimTime, Simulation};
//!
//! let n = 16;
//! let cfg = GossipConfig::fair(4, 16);
//! let mut sim = Simulation::new(n, NetworkModel::default(), 1, move |id, _| {
//!     GossipNode::new(id, n, cfg.clone())
//! });
//! let topic = TopicId::new(0);
//! for i in 0..n as u32 {
//!     sim.schedule_command(SimTime::ZERO, NodeId::new(i), Command::Subscribe(topic));
//! }
//! sim.schedule_command(
//!     SimTime::from_millis(100),
//!     NodeId::new(0),
//!     Command::Publish(Event::bare(EventId::new(0, 1), topic)),
//! );
//! sim.run_until(SimTime::from_secs(3));
//! assert!(sim.nodes().all(|(_, node)| node.endpoint().deliveries().len() == 1));
//! ```
//!
//! Run `cargo run --release -p fed-experiments` to regenerate every paper
//! table; `cargo run --release -p fed-experiments -- --help` lists the
//! experiment ids (also under "Available ids" in the README).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fed_baselines as baselines;
pub use fed_cluster as cluster;
pub use fed_core as core;
pub use fed_dht as dht;
pub use fed_experiments as experiments;
pub use fed_membership as membership;
pub use fed_metrics as metrics;
pub use fed_profile as profile;
pub use fed_pubsub as pubsub;
pub use fed_sim as sim;
pub use fed_sweep as sweep;
pub use fed_telemetry as telemetry;
pub use fed_util as util;
pub use fed_workload as workload;
