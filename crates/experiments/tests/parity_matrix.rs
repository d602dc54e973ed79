//! The parity matrix's table, pinned: the id of every cell in
//! `parity/mod.rs` against `tests/data/parity_cells.txt`, and a test for
//! every cell family in the suite the family names. Also checks the
//! generated and library cells.

mod parity;

use fed_workload::scenario_file::to_toml;
use parity::{cells, check_family, generated, Cell, FUZZ_CASES};
use std::collections::BTreeSet;

/// The table's ids against the committed list: a dropped, added or
/// reshaped cell shows here.
#[test]
fn cell_ids_match_the_golden_list() {
    let ids: Vec<String> = cells().iter().map(Cell::id).collect();
    let golden: Vec<&str> = include_str!("data/parity_cells.txt").lines().collect();
    assert_eq!(
        ids,
        golden,
        "cell ids changed; the table now reads:\n{}",
        ids.join("\n")
    );
}

/// Every family `suite::test` is checked by a `#[test] fn test` in
/// `tests/suite.rs` that calls `check_family` on it, so no cell of the
/// table goes unchecked.
#[test]
fn every_family_has_its_test() {
    let families: BTreeSet<String> = cells().iter().map(|c| c.family().to_string()).collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    for family in families {
        let (suite, test) = family.split_once("::").expect("family is `suite::test`");
        let path = dir.join(format!("{suite}.rs"));
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{family}: {}: {e}", path.display()));
        assert!(
            source.contains(&format!("#[test]\nfn {test}() {{")),
            "{family}: no test `{test}` in {}",
            path.display()
        );
        assert!(
            source.contains(&format!("\"{family}\"")),
            "{family}: {} never checks it",
            path.display()
        );
    }
}

/// A prefix of the generated workload family the sweep draws from.
#[test]
fn generated_cells() {
    check_family("parity_matrix::generated_cells");
}

/// The scenario library at a reduced population.
#[test]
fn library_cells() {
    check_family("parity_matrix::library_cells");
}

/// Every downscaled library spec is one `to_toml` writes and reads back
/// unchanged, so a failing library cell writes its repro file.
#[test]
fn library_repro_dumps_round_trip() {
    for cell in cells()
        .into_iter()
        .filter(|c| c.family() == "parity_matrix::library_cells")
    {
        let toml = to_toml(&cell.spec)
            .unwrap_or_else(|e| panic!("{}: downscaled spec is not representable: {e}", cell.name));
        assert_eq!(
            fed_workload::spec_from_toml(&toml).expect("dump parses"),
            cell.spec,
            "{}: repro dump diverged from the spec that ran",
            cell.name
        );
    }
}

/// The repro path stays honest: a generated spec dumped with `to_toml`
/// parses back to the exact spec that ran, so the file a failing
/// generated cell writes replays the same simulation.
#[test]
fn fuzz_repro_dumps_round_trip() {
    for index in 0..FUZZ_CASES {
        let spec = generated(index);
        let toml = to_toml(&spec).expect("generated specs are representable");
        assert_eq!(
            fed_workload::spec_from_toml(&toml).expect("dump parses"),
            spec,
            "index {index}: repro dump diverged from the spec that ran"
        );
    }
}
