//! # fedbench
//!
//! The recorded benchmark of the fed simulators: five named workloads,
//! host-speed and simulated-fairness end-to-end metrics, and a per-layer
//! ledger, all measured from outside through public functions. See
//! `README.md` for the tables and `../BENCHMARK.json` for the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod names;
pub mod report;
pub mod spans;
pub mod workload;
