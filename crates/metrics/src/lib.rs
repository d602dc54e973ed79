//! # fed-metrics
//!
//! Experiment-facing metrics: fairness summaries over per-node ledgers,
//! delivery reliability/latency audits against ground truth, and the text
//! tables every experiment prints.
//!
//! The two fairness views mirror the paper's §3 distinction and are
//! deliberately separate entry points:
//!
//! | Function | Equalizes | Fair under it |
//! |---|---|---|
//! | [`fairness::ratio_report`] | contribution **/ benefit** ratios | the paper's goal |
//! | [`fairness::contribution_report`] | raw contributions (load) | mere load balancing |
//!
//! A system can ace the second while failing the first — SplitStream is
//! the canonical example — so experiments print both.
//!
//! [`DeliveryAudit`] checks the dissemination contract itself (every
//! interested process delivers, nobody else does) and summarizes delivery
//! latency. Its one constructor, [`DeliveryAudit::from_logs`], takes the
//! publications, the per-node delivery logs and a predicate naming which
//! node should deliver which publication, and reads the logs in one pass;
//! it is engine-agnostic, so the same audit code gates both the
//! sequential and the sharded runtime.
//!
//! ## Examples
//!
//! ```
//! use fed_core::ledger::{FairnessLedger, RatioSpec};
//! use fed_metrics::fairness::ratio_report;
//!
//! let mut a = FairnessLedger::new();
//! a.record_forward(100);
//! a.record_delivery();
//! let mut b = FairnessLedger::new();
//! b.record_forward(100);
//! b.record_delivery();
//! let report = ratio_report([&a, &b], &RatioSpec::topic_based());
//! assert_eq!(report.jain, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delivery;
pub mod fairness;
#[cfg(test)]
mod reference;
pub mod table;

pub use delivery::DeliveryAudit;
pub use fairness::{contribution_report, ratio_report, ratios};
pub use table::{fmt_f64, Table};
