//! Instrument independence: telemetry, profiling and tracing share one
//! observer seam, so every subset of them must leave the virtual-world
//! outcome as an uninstrumented run produces it, and produce exactly the
//! artifacts it arms, on the sequential engine and on the cluster at
//! shards {1, 4}, under churn and a flash crowd.

mod parity;

use parity::check_family;

/// The whole 2³ lattice of instrument subsets.
#[test]
fn every_instrument_subset_is_passive_and_independent() {
    check_family("instrument_independence::every_instrument_subset_is_passive_and_independent");
}
