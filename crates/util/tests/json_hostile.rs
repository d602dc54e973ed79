//! Hostile input never panics or aborts the JSON reader.
//!
//! `bench-diff` hands [`parse`] files named on the command line, so the
//! reader must *return* on anything. The committed `BENCH_*.json`
//! artifacts are damaged the way files get damaged — cut short, one byte
//! dropped — at seeded positions (the largest is 72 KB: sampled, not
//! every prefix), and seeded random bytes are thrown at it. The two
//! documents that used to get through — the bracket bomb (a stack
//! overflow, which nothing can catch) and `1e999` (`Ok(inf)`) — are
//! pinned in the parser's unit tests.

use fed_util::json::parse;
use fed_util::rng::{Rng64, SplitMix64};
use std::path::Path;

/// Every committed `BENCH_*.json`, by name.
fn artifacts() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<_> = std::fs::read_dir(&root)
        .expect("workspace root is listable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    assert!(files.len() >= 5, "the BENCH_* artifacts moved: {files:?}");
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("artifact is readable");
            (path.display().to_string(), text)
        })
        .collect()
}

#[test]
fn every_committed_artifact_parses() {
    for (name, text) in artifacts() {
        parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Prefixes and single-byte deletions at 200 seeded positions per
/// artifact: mid-string, mid-escape, mid-number, mid-literal. A prefix is
/// never a whole document, so it must be an `Err`; a deletion may leave
/// one (a digit dropped from a number) and only has to return.
#[test]
fn truncated_and_punctured_artifacts_never_panic() {
    for (index, (name, text)) in artifacts().into_iter().enumerate() {
        assert!(text.is_ascii(), "{name}: byte positions assume ASCII");
        let body = text.trim_end().len();
        let mut rng = SplitMix64::seed_from_u64(0xFED ^ index as u64);
        for _ in 0..200 {
            let cut = rng.range_usize(body);
            assert!(
                parse(&text[..cut]).is_err(),
                "{name}: the {cut}-byte prefix parsed"
            );
            let _ = parse(&[&text[..cut], &text[cut + 1..]].concat());
        }
    }
}

/// Bytes that mean something to the reader, so random documents get past
/// the first character.
const ALPHABET: &[u8] = b"[]{}\",:\\-+.0123456789eEtrufalsn \n";

#[test]
fn random_bytes_never_panic() {
    let mut rng = SplitMix64::seed_from_u64(0xFED);
    for _ in 0..4096 {
        let len = rng.range_usize(64);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.bernoulli(0.9) {
                    ALPHABET[rng.range_usize(ALPHABET.len())]
                } else {
                    rng.next_u64() as u8
                }
            })
            .collect();
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}
