//! Cross-engine parity over drawn small scenarios (architecture,
//! population, seed, shard count, optional churn), frozen in
//! `parity/mod.rs` as drawn: the sequential engine and the cluster must
//! agree bit for bit on the whole outcome.

mod parity;

use parity::check_family;

#[test]
fn randomized_scenarios_are_engine_agnostic() {
    check_family("scenario_properties::randomized_scenarios_are_engine_agnostic");
}
