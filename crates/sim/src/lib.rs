//! # fed-sim
//!
//! A deterministic discrete-event simulator for message-passing protocols.
//!
//! This is the substrate on which every dissemination system in the `fed`
//! workspace runs — the paper under reproduction ("Towards Fair Event
//! Dissemination", ICDCS 2007) is a position paper without a testbed, and
//! the gossip literature it builds on (Bimodal Multicast, lpbcast)
//! evaluates protocols exactly this way: simulated nodes, per-message
//! latency/loss models, and churn schedules.
//!
//! ## Model
//!
//! * Nodes are instances of a [`Protocol`] state machine, addressed by dense
//!   [`NodeId`]s.
//! * All side effects (sends, timers) flow through [`Context`]; the engine
//!   decides latency and loss via a [`network::NetworkModel`].
//! * Virtual time ([`SimTime`]) is microsecond-granular and never touches
//!   the wall clock; a single `u64` seed determines the entire execution.
//! * Churn is first-class: a crash freezes a node and destroys its timers;
//!   a rejoin wakes the same state in a new incarnation and re-runs
//!   `on_init`.
//!
//! See [`Simulation`] for a runnable example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod exec;
pub mod local_id;
pub mod network;
pub mod protocol;
pub mod time;

pub use engine::{RunReport, Simulation, TransportStats};
pub use exec::{HopKind, HopRecord, Probe};
pub use local_id::{LocalId, LocalIdSet};
pub use protocol::{Context, NodeId, Protocol};
pub use time::{SimDuration, SimTime};
