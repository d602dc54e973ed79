//! The curated scenario library and its documentation, kept honest:
//!
//! * every `scenarios/*.toml` parses strictly, materializes, and
//!   round-trips through the serializer;
//! * the README's "Available ids" sentence matches the experiment
//!   registry, so the hand-written line can never go stale;
//! * every complete TOML example in `docs/SCENARIOS.md` parses with the
//!   shipped parser (fragments are marked `# fragment` and skipped);
//! * the two files with `[churn]` reproduce their recorded summaries.

use fed_experiments::harness::run_architecture;
use fed_experiments::scenario_run::{display_name, engine_for, library, load_file, resolve_target};
use fed_workload::scenario_file::{parse_scenario, spec_from_toml, to_toml};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_repo_file(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn library_holds_at_least_eight_scenarios() {
    let files = library().expect("library readable");
    assert!(
        files.len() >= 8,
        "scenario library must stay curated: only {} files",
        files.len()
    );
}

#[test]
fn every_library_file_parses_materializes_and_round_trips() {
    for path in library().expect("library readable") {
        let file = load_file(&path).unwrap_or_else(|e| panic!("{e}"));
        // Library files are self-describing.
        assert!(
            file.name.is_some() && file.summary.is_some(),
            "{}: library scenarios must set name and summary",
            path.display()
        );
        let name = display_name(&path, &file);
        assert_eq!(
            Some(name.as_str()),
            path.file_stem().and_then(|s| s.to_str()),
            "{}: [scenario] name must match the file stem",
            path.display()
        );
        // A parsing file is a runnable file.
        file.spec
            .materialize()
            .unwrap_or_else(|e| panic!("{}: does not materialize: {e:?}", path.display()));
        // And the spec survives a serializer round trip exactly.
        let toml = to_toml(&file.spec).expect("library specs are representable");
        let reparsed = spec_from_toml(&toml).expect("serialized spec parses");
        assert_eq!(
            reparsed,
            file.spec,
            "{}: round trip diverged",
            path.display()
        );
    }
}

#[test]
fn readme_available_ids_line_matches_the_registry() {
    let readme = read_repo_file("README.md");
    let normalized: String = readme.split_whitespace().collect::<Vec<_>>().join(" ");
    let expected = format!(
        "Available ids: `{}`",
        fed_experiments::experiment_ids_line()
    );
    assert!(
        normalized.contains(&expected),
        "README.md 'Available ids' line is stale.\n\
         It must read (modulo line wrapping):\n  {expected}\n\
         — derived from fed_experiments::REGISTRY; update the README."
    );
}

#[test]
fn scenarios_doc_examples_match_the_shipped_parser() {
    let doc = read_repo_file("docs/SCENARIOS.md");
    let mut blocks: Vec<(usize, String)> = Vec::new();
    let mut current: Option<(usize, Vec<&str>)> = None;
    for (i, line) in doc.lines().enumerate() {
        match &mut current {
            None if line.trim() == "```toml" => current = Some((i + 1, Vec::new())),
            Some((start, body)) => {
                if line.trim() == "```" {
                    blocks.push((*start, body.join("\n")));
                    current = None;
                } else {
                    body.push(line);
                }
            }
            None => {}
        }
    }
    assert!(
        blocks.iter().any(|(_, b)| !b.contains("# fragment")),
        "docs/SCENARIOS.md must hold at least one complete example"
    );
    for (line, block) in blocks {
        if block.contains("# fragment") {
            continue;
        }
        parse_scenario(&block).unwrap_or_else(|e| {
            panic!("docs/SCENARIOS.md example at line {line} does not parse: {e}")
        });
    }
}

/// The crash path, pinned where the library runs it: `@mega-churn` and
/// `@asymmetric-failure` are the only files with `[churn]`, and at file
/// size they reproduce these summaries exactly. A change to what a crash
/// does to a node updates this pin together with its table of moved
/// numbers.
#[test]
fn churn_files_reproduce_their_recorded_summaries() {
    for (name, events, deliveries, reliability) in [
        ("mega-churn", 309_523, 26_044, "0.7818"),
        ("asymmetric-failure", 185_460, 10_852, "0.9327"),
    ] {
        let file =
            load_file(&resolve_target(&format!("@{name}"))).unwrap_or_else(|e| panic!("{e}"));
        let outcome = run_architecture(&file.spec, engine_for(&file.spec));
        let summary = outcome.summary();
        assert_eq!(
            (
                outcome.events,
                summary.deliveries,
                format!("{:.4}", summary.reliability)
            ),
            (events, deliveries, reliability.to_string()),
            "{name}: (events, deliveries, reliability)"
        );
    }
}
