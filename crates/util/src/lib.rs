//! # fed-util
//!
//! Foundation utilities for the `fed` (fair event dissemination) workspace:
//! deterministic pseudo-randomness, probability distributions, streaming
//! statistics, a fixed-key hasher for id-keyed maps, the fairness indices
//! used throughout the experiments, and the workspace's one JSON reader
//! and string escape ([`json`]).
//!
//! The whole workspace is built around **deterministic replay**: a single
//! `u64` seed fixes every stochastic choice, so any experiment, test failure
//! or benchmark can be reproduced bit-for-bit. For that reason the crate
//! ships its own small PRNGs ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`])
//! instead of depending on an external generator whose stream could change
//! between versions.
//!
//! ## Examples
//!
//! ```
//! use fed_util::rng::{Rng64, Xoshiro256StarStar};
//! use fed_util::dist::Zipf;
//! use fed_util::fairness::jain_index;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(7);
//! let zipf = Zipf::new(10, 1.0)?;
//! let mut hits = vec![0.0; 10];
//! for _ in 0..1000 {
//!     hits[zipf.sample(&mut rng)] += 1.0;
//! }
//! // Zipf traffic is unfair by design: Jain's index well below 1.
//! assert!(jain_index(&hits) < 0.9);
//! # Ok::<(), fed_util::dist::InvalidDistribution>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod fairness;
pub mod hash;
pub mod histogram;
pub mod json;
pub mod rng;
pub mod stats;

pub use fairness::FairnessReport;
pub use hash::{FastMap, FastSet};
pub use rng::{Rng64, SplitMix64, Xoshiro256StarStar};
pub use stats::{OnlineStats, Summary};
