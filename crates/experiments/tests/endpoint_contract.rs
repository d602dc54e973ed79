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
//!   still holds them after a crash and rejoin (the driver re-subscribes
//!   a rebuilt node);
//! * `deliveries[i]` is strictly ascending by event id — sorted, and no
//!   event logged twice — and the audit records no duplicate delivery.
//!
//! No scenario is exempt. An unoptimised build clamps the large library
//! populations so `cargo test` stays fast; `cargo test --release` runs
//! every file at its own size.

use fed_experiments::harness::{run_architecture, ArchOutcome, EngineKind};
use fed_experiments::scenario_run::{display_name, library, load_file};
use fed_workload::scenario::{Architecture, ScenarioSpec};

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
