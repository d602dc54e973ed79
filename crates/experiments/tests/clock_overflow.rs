//! Scenario files that parse but ask for a latency past the end of the
//! virtual clock: a delay spike of `u64::MAX` µs, a constant delay of
//! `u64::MAX` µs, and a log-normal median of 1e300 ms (a log-normal tail
//! reaches this case even from a sane median, so no parse-time bound can
//! rule it out). Send time plus latency saturates at `SimTime::MAX`,
//! "not delivered before the horizon", on both engines: the run reaches
//! its horizon without an overflow panic (the tier-1 debug build checks
//! arithmetic) and without a wrapped sum delivering a message early.
//! A run never dispatches an event due exactly at `SimTime::MAX`, so a
//! saturated send stays undelivered even when the horizon itself is
//! `SimTime::MAX`.

use fed_experiments::harness::{run_architecture, ArchOutcome, EngineKind};
use fed_experiments::scenario_run::first_divergence;
use fed_workload::scenario_file::parse_scenario;

/// A small splitstream world on the given `[network]` body.
fn scenario(network: &str) -> String {
    scenario_after(None, network)
}

/// [`scenario`] with its 2 s publication phase after `warmup` (1 s when
/// `None`).
fn scenario_after(warmup: Option<&str>, network: &str) -> String {
    let warmup = warmup.map_or(String::new(), |w| format!("warmup = \"{w}\"\n"));
    format!(
        "[scenario]\narch = \"splitstream\"\nnodes = 32\nseed = 1\n\n\
         [topics]\ncount = 4\n\n\
         [interest]\nappetite = \"fixed\"\ntopics_per_node = 2\n\n\
         [publish]\nrate_per_sec = 5.0\nduration = \"2s\"\n{warmup}\n\
         [network]\n{network}"
    )
}

/// Runs `text` on the sequential engine and at 2 shards; the two outcomes
/// must be the same virtual-world execution.
fn run_both(text: &str) -> ArchOutcome {
    let spec = parse_scenario(text).expect("scenario parses").spec;
    let sequential = run_architecture(&spec, EngineKind::Sequential);
    let cluster = run_architecture(&spec.clone().with_shards(2), EngineKind::Cluster);
    assert_eq!(
        first_divergence(&sequential, &cluster),
        None,
        "engines diverge"
    );
    sequential
}

#[test]
fn delay_spike_past_the_clock_loses_what_it_delays() {
    let outcome = run_both(&scenario(
        "latency = \"constant\"\ndelay = \"10ms\"\n\n\
         [faults.delay]\nat = \"1s\"\nuntil = \"2s\"\nextra = \"18446744073709551615us\"\n",
    ));
    let reliability = outcome.audit().reliability();
    // A wrapped sum delivered the spiked messages early: reliability 1.
    assert!(reliability < 1.0, "reliability {reliability}");
    assert!(
        outcome.total_deliveries() > 0,
        "sends before the spike arrive"
    );
}

#[test]
fn constant_delay_past_the_clock_delivers_nothing() {
    let outcome = run_both(&scenario(
        "latency = \"constant\"\ndelay = \"18446744073709551615us\"\n",
    ));
    assert_eq!(outcome.total_deliveries(), 0);
}

/// The publication phase ends 4 s (the drain margin) before
/// `SimTime::MAX`, so the horizon is exactly `SimTime::MAX`. Every send
/// saturates to that instant, which no run dispatches.
#[test]
fn constant_delay_past_the_clock_delivers_nothing_at_a_saturated_horizon() {
    let warmup = format!("{}us", u64::MAX - 6_000_000);
    let outcome = run_both(&scenario_after(
        Some(&warmup),
        "latency = \"constant\"\ndelay = \"18446744073709551615us\"\n",
    ));
    assert_eq!(outcome.horizon, fed_sim::SimTime::MAX);
    assert_eq!(outcome.total_deliveries(), 0);
}

#[test]
fn lognormal_median_past_the_clock_delivers_nothing() {
    let outcome = run_both(&scenario(
        "latency = \"lognormal\"\nmedian_ms = 1e300\nsigma = 0.5\n",
    ));
    assert_eq!(outcome.total_deliveries(), 0);
}
