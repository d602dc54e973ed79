//! The paper's eight experiments print byte-identical tables.
//!
//! `data/paper_tables_seed42.txt` is the stdout of
//! `fed-experiments --seed 42 fig1 fig2 fig3 fig4 churn bias ablation robust`
//! (CI diffs the binary's output against the same file); this test
//! rebuilds that text from the modules' `run(..)` at the sizes `run_by_id`
//! passes. A debug build takes ~27 s at those sizes, so it compares the
//! half-size tables of `data/paper_tables_seed42_half.txt` instead. Both
//! files were captured before the harness had a single runner: any
//! refactor of the run path must keep them byte for byte.
//! `data/paper_tables_seed1234.txt` is the same stdout at `--seed 1234`;
//! only CI diffs it, against the release binary.

use fed_experiments::{ablation, bias, churn, fig1, fig2, fig3, fig4, robust};
use std::fmt::Write;

const SEED: u64 = 42;

/// The eight experiments' tables in CLI order, each as `run_by_id` prints
/// it, at the CLI population sizes divided by `div`.
fn render(div: usize) -> String {
    let mut out = String::new();
    let mut print = |table: &dyn std::fmt::Display| writeln!(out, "{table}").unwrap();
    print(&fig1::run(256 / div, SEED).table);
    print(&fig2::run(128 / div, SEED).table);
    print(&fig3::run(128 / div, SEED).table);
    let sizes = [32, 64, 128, 256, 512].map(|n| n / div);
    let r = fig4::run(128 / div, &sizes, SEED);
    print(&r.fanout_table);
    print(&r.scale_table);
    print(&churn::run(128 / div, 15.0, SEED).table);
    print(&bias::run(128 / div, SEED).table);
    let r = ablation::run(128 / div, SEED);
    print(&r.gain_table);
    print(&r.civic_table);
    let r = robust::run(96 / div, SEED);
    print(&r.loss_table);
    print(&r.crash_table);
    out
}

#[test]
fn paper_tables_match_the_pinned_golden() {
    let (div, golden) = if cfg!(debug_assertions) {
        (2, include_str!("data/paper_tables_seed42_half.txt"))
    } else {
        (1, include_str!("data/paper_tables_seed42.txt"))
    };
    let got = render(div);
    assert!(
        got == golden,
        "paper tables at 1/{div} size diverged from the golden:\n{got}"
    );
}
