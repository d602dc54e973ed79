//! Hostile input never panics the scenario-file parser.
//!
//! Valid documents — every `scenarios/*.toml`, every frozen
//! `fedbench/workloads/*.toml` (read as data) and the serialized form of
//! a few generated workloads — are damaged the way files get damaged:
//! lines deleted, duplicated or swapped, one character replaced by an
//! arbitrary one, the file cut short. [`parse_scenario`] must *return*
//! on every one of them, and an `Err` must carry the line it blames
//! unless it reports a required section missing from the whole file.
//!
//! A panic found here is fixed in the lexer and its minimal document
//! pinned in `scenario_file_negative.rs`.

use fed_workload::scenario_file::{parse_scenario, to_toml};
use fed_workload::{generated_spec, Architecture};
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

/// The valid documents the suite damages, read once.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(read_corpus)
}

fn read_corpus() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut docs = Vec::new();
    for dir in ["scenarios", "fedbench/workloads"] {
        let dir = root.join(dir);
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "{} holds no .toml file", dir.display());
        for file in files {
            docs.push(std::fs::read_to_string(&file).expect("corpus file is readable"));
        }
    }
    for index in 0..6 {
        let spec = generated_spec(0xFED, index).with_arch(Architecture::ALL[index as usize]);
        docs.push(to_toml(&spec).expect("generated specs are representable"));
    }
    docs
}

/// The property: the parser returns, and an error says where.
fn parses_or_blames_a_line(doc: &str) {
    if let Err(e) = parse_scenario(doc) {
        assert!(
            e.line.is_some() || e.message.starts_with("missing required section ["),
            "an error without a line that is not a missing section: {e}\n--- document ---\n{doc}"
        );
    }
}

#[test]
fn the_corpus_itself_is_valid() {
    for doc in corpus() {
        parse_scenario(doc).unwrap_or_else(|e| panic!("{e}\n--- document ---\n{doc}"));
    }
}

/// Every prefix of every corpus document, cut at every char boundary:
/// mid-header, mid-string, mid-escape, mid-number.
#[test]
fn truncation_at_every_char_boundary_never_panics() {
    for doc in corpus() {
        for (cut, _) in doc.char_indices() {
            parses_or_blames_a_line(&doc[..cut]);
        }
    }
}

/// Characters that mean something to the lexer, plus some that mean
/// nothing to anybody.
const HOSTILE: [char; 22] = [
    '"', '\\', '[', ']', '=', '#', '.', '-', '+', '_', 'e', '0', ' ', '\t', '\r', '\n', '\0',
    '\u{7f}', 'é', '→', '\u{2028}', '🦀',
];

#[derive(Debug, Clone)]
enum Damage {
    DeleteLine(usize),
    DuplicateLine(usize),
    SwapLines(usize, usize),
    ReplaceChar(usize, char),
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    let any_char = prop_oneof![
        (0..HOSTILE.len()).prop_map(|i| HOSTILE[i]),
        (0x20u8..0x7f).prop_map(char::from),
    ];
    prop_oneof![
        any::<usize>().prop_map(Damage::DeleteLine),
        any::<usize>().prop_map(Damage::DuplicateLine),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Damage::SwapLines(a, b)),
        (any::<usize>(), any_char).prop_map(|(at, c)| Damage::ReplaceChar(at, c)),
    ]
}

/// Applies one damage; positions wrap around the document's size.
fn damaged(doc: &str, damage: &Damage) -> String {
    let mut lines: Vec<&str> = doc.lines().collect();
    match *damage {
        Damage::DeleteLine(at) => {
            lines.remove(at % lines.len());
        }
        Damage::DuplicateLine(at) => {
            let at = at % lines.len();
            lines.insert(at, lines[at]);
        }
        Damage::SwapLines(a, b) => {
            let len = lines.len();
            lines.swap(a % len, b % len);
        }
        Damage::ReplaceChar(at, c) => {
            let chars = doc.chars().count();
            let replaced = doc.chars().enumerate();
            return replaced
                .map(|(i, old)| if i == at % chars { c } else { old })
                .collect();
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One to three damages to a corpus document: the parser returns.
    #[test]
    fn damaged_documents_never_panic(
        which in any::<usize>(),
        damages in proptest::collection::vec(damage_strategy(), 1..4),
    ) {
        let corpus = corpus();
        let mut doc = corpus[which % corpus.len()].clone();
        for damage in &damages {
            doc = damaged(&doc, damage);
            parses_or_blames_a_line(&doc);
        }
    }
}

/// Every single-character replacement by a lexer-significant character
/// in one small document, exhaustively: 22 × ~300 documents.
#[test]
fn every_single_hostile_replacement_in_a_small_document_never_panics() {
    let doc = to_toml(&generated_spec(0xFED, 0)).expect("generated specs are representable");
    for at in 0..doc.chars().count() {
        for c in HOSTILE {
            parses_or_blames_a_line(&damaged(&doc, &Damage::ReplaceChar(at, c)));
        }
    }
}
