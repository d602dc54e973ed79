//! The per-node accounting rule, asserted on what a run hands back.
//!
//! Whatever the architecture, engine or scenario, every node of an
//! [`ArchOutcome`] must end with its ledger agreeing with its own
//! delivery log and with the workload's ground truth:
//!
//! * `ledgers[i].totals().delivered_events == deliveries[i].len()` — a
//!   unit of benefit is exactly one logged delivery;
//! * `ledgers[i].active_filters() == profile.topics_of(i).len()` — the
//!   node holds the subscriptions the interest profile drew for it, and
//!   still holds them after a crash and rejoin;
//! * `deliveries[i]` is strictly ascending by event id — sorted, and no
//!   event logged twice — and the audit records no duplicate delivery.
//!
//! A rejoin wakes the node that crashed: on the churn files, a node's
//! final log holds every delivery it logged at any point of the run, at
//! the same time, and the node came back up exactly once per `Join` of
//! the churn trace. Its SWIM observation log only grows, so detection
//! telemetry still sees what a rejoined node observed before its last
//! `Join`.
//!
//! No scenario is exempt. An unoptimised build clamps the large library
//! populations so `cargo test` stays fast; `cargo test --release` runs
//! every file at its own size.

use fed_core::behavior::Behavior;
use fed_core::gossip::GossipConfig;
use fed_experiments::harness::{
    prepare_gossip, run_architecture, t_arch_config, ArchOutcome, EngineKind,
};
use fed_experiments::scenario_run::{display_name, library, load_file, resolve_target};
use fed_membership::swim::SwimObservation;
use fed_pubsub::EventId;
use fed_sim::{NodeId, Probe, SimDuration, SimTime};
use fed_workload::churn::ChurnAction;
use fed_workload::scenario::{Architecture, ScenarioSpec};
use std::collections::BTreeSet;

/// Library files above this population are left to `parity @all`.
const MAX_NODES: usize = 5_000;

fn assert_contract(label: &str, outcome: &ArchOutcome) {
    assert_eq!(outcome.ledgers.len(), outcome.deliveries.len(), "{label}");
    let mut rejoined_deaf = Vec::new();
    for (i, (ledger, log)) in outcome.ledgers.iter().zip(&outcome.deliveries).enumerate() {
        assert_eq!(
            ledger.totals().delivered_events as usize,
            log.len(),
            "{label}: node {i} was credited for a different number of deliveries than it logged"
        );
        assert!(
            log.windows(2).all(|w| w[0].0 < w[1].0),
            "{label}: node {i}'s delivery log is not strictly ascending by event id"
        );
        if ledger.active_filters() as usize != outcome.profile.topics_of(i).len() {
            rejoined_deaf.push(i);
        }
    }
    assert!(
        rejoined_deaf.is_empty(),
        "{label}: {} of {} nodes end the run without the subscriptions the profile gave them \
         (first: {:?})",
        rejoined_deaf.len(),
        outcome.ledgers.len(),
        &rejoined_deaf[..rejoined_deaf.len().min(8)]
    );
    assert_eq!(
        outcome.audit().duplicates(),
        0,
        "{label}: a delivery was repeated"
    );
}

fn check_on_both_engines(label: &str, spec: &ScenarioSpec) {
    for engine in [EngineKind::Sequential, EngineKind::Cluster] {
        let outcome = run_architecture(spec, engine);
        assert_contract(&format!("{label} on {engine:?}"), &outcome);
    }
}

#[test]
fn every_architecture_keeps_the_rule_on_the_standard_scenario() {
    for arch in Architecture::ALL {
        let spec = ScenarioSpec::standard(arch, 96, 42).with_shards(4);
        check_on_both_engines(&format!("standard {arch}"), &spec);
    }
}

#[test]
fn every_library_scenario_keeps_the_rule() {
    let mut checked = 0;
    for path in library().expect("library readable") {
        let file = load_file(&path).unwrap_or_else(|e| panic!("{e}"));
        let name = display_name(&path, &file);
        let mut spec = file.spec;
        if spec.n > MAX_NODES {
            continue;
        }
        if cfg!(debug_assertions) {
            spec.n = spec.n.min(300);
        }
        check_on_both_engines(&name, &spec);
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} library scenarios checked");
}

/// Counts, per node, the transitions back up (`on_liveness(.., true)`).
struct Wakes(Vec<u32>);

impl Probe for Wakes {
    fn on_liveness(&mut self, _now: SimTime, node: NodeId, alive: bool) {
        if alive {
            self.0[node.index()] += 1;
        }
    }
}

/// Runs a churn file's fair gossip in 1 s slices, remembering every
/// delivery any snapshot of a node's log held, and checks the run's
/// outcome against them and against the trace's joins.
fn check_rejoins_keep_the_books(label: &str, spec: &ScenarioSpec, engine: EngineKind) {
    let config = t_arch_config(GossipConfig::fair);
    let mut prepared = prepare_gossip(spec, engine, config, |_| Behavior::Honest);
    let horizon = prepared.horizon();
    let mut wakes: Vec<Wakes> = (0..prepared.sim.num_shards())
        .map(|_| Wakes(vec![0; spec.n]))
        .collect();
    let mut seen: Vec<BTreeSet<(EventId, SimTime)>> = vec![BTreeSet::new(); spec.n];
    let mut observed: Vec<Vec<SwimObservation>> = vec![Vec::new(); spec.n];
    let mut at = SimTime::ZERO;
    while at < horizon {
        at = (at + SimDuration::from_secs(1)).min(horizon);
        prepared.sim.run_until_observed(at, &mut wakes);
        for (id, node) in prepared.sim.nodes() {
            seen[id.index()].extend(node.endpoint().deliveries().iter());
            let log = node.swim_observations();
            assert!(
                log.starts_with(&observed[id.index()]),
                "{label}: node {} lost SWIM observations by {at}",
                id.index()
            );
            observed[id.index()] = log;
        }
    }
    let outcome = prepared.finish();
    for (i, (seen, log)) in seen.iter().zip(&outcome.deliveries).enumerate() {
        let lost = seen
            .iter()
            .filter(|entry| log.binary_search(entry).is_err())
            .count();
        assert_eq!(
            lost, 0,
            "{label}: node {i}'s final log lost {lost} delivery(ies) an earlier snapshot held"
        );
    }
    for (i, (observed, log)) in observed.iter().zip(&outcome.swim).enumerate() {
        assert!(
            log.starts_with(observed),
            "{label}: node {i}'s final SWIM log lost observations a snapshot held"
        );
    }
    let mut joins = vec![0u32; spec.n];
    let mut last_join = vec![None; spec.n];
    for c in &outcome.churn {
        if c.action == ChurnAction::Join && c.at <= horizon {
            joins[c.node] += 1;
            last_join[c.node] = last_join[c.node].max(Some(c.at));
        }
    }
    assert!(joins.iter().any(|&j| j > 0), "{label}: no node rejoins");
    if spec.membership {
        let kept = last_join
            .iter()
            .zip(&outcome.swim)
            .any(|(join, log)| join.is_some_and(|join| log.iter().any(|o| o.at < join)));
        assert!(
            kept,
            "{label}: no rejoined node kept an observation from before its last join"
        );
    }
    for (i, &expected) in joins.iter().enumerate() {
        let woke: u32 = wakes.iter().map(|w| w.0[i]).sum();
        assert_eq!(
            woke, expected,
            "{label}: node {i} woke {woke} times for {expected} join(s)"
        );
    }
}

#[test]
fn a_rejoined_node_keeps_its_log_on_both_engines() {
    for name in ["@mega-churn", "@asymmetric-failure"] {
        let mut spec = load_file(&resolve_target(name))
            .unwrap_or_else(|e| panic!("{e}"))
            .spec;
        if cfg!(debug_assertions) {
            spec.n = spec.n.min(300);
        }
        for engine in [EngineKind::Sequential, EngineKind::Cluster] {
            check_rejoins_keep_the_books(&format!("{name} on {engine:?}"), &spec, engine);
        }
    }
}
