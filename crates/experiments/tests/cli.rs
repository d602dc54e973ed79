//! The `fed-experiments` binary end to end, on the failure paths a
//! library test cannot see: what it prints to stderr and how it exits.
//! Each case runs in its own scratch directory, because the commands
//! write their `BENCH_*` artifact into the invocation directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fed_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(dir: &PathBuf, args: &[&str]) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fed-experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stderr)
}

/// A write that fails must fail the command: CI diffs the written file
/// against the committed one, and used to pass on a file nobody wrote.
#[test]
fn an_unwritable_artifact_fails_the_command() {
    let dir = scratch("unwritable");
    std::fs::create_dir(dir.join("BENCH_cluster.json")).unwrap();
    let (out, stderr) = run_in(&dir, &["--seed", "7", "smoke:splitstream:64:2"]);
    assert!(!out.status.success(), "{stderr}");
    assert!(
        stderr.contains("could not write BENCH_cluster.json"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recording a configuration again replaces its row; another
/// configuration of the same suite gets its own.
#[test]
fn a_repeated_smoke_leaves_one_row_per_configuration() {
    let dir = scratch("repeat");
    for id in [
        "smoke:splitstream:64:2",
        "smoke:broker:64:2",
        "smoke:splitstream:64:2",
    ] {
        let (out, stderr) = run_in(&dir, &["--seed", "7", id]);
        assert!(out.status.success(), "{id}: {stderr}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("SMOKE "));
    }
    let text = std::fs::read_to_string(dir.join("BENCH_cluster.json")).unwrap();
    assert_eq!(text.matches("\"suite\":\"smoke\"").count(), 2, "{text}");
    // The artifact the run just wrote pairs up with itself.
    let (out, stderr) = run_in(
        &dir,
        &[
            "bench-diff",
            "BENCH_cluster.json",
            "--threshold",
            "0.9",
            "BENCH_cluster.json",
        ],
    );
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("compared 2 configuration(s), 0 regression(s)"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A threshold no regression can cross would turn the gate off: NaN and
/// infinity compare false against every delta, and a negative threshold
/// flags unchanged rows. Each is refused before any row is read.
#[test]
fn a_threshold_that_disables_the_gate_is_refused() {
    let dir = scratch("threshold");
    let row = |events_per_sec: &str| {
        format!(
            "[\n  {{\"suite\":\"smoke\",\"arch\":\"splitstream\",\"n\":100000,\
             \"shards\":8,\"placement\":\"round-robin\",\"telemetry\":false,\
             \"events\":940007,\"windows\":36,\"wall_ms\":524.984,\
             \"events_per_sec\":{events_per_sec}}}\n]\n"
        )
    };
    std::fs::write(dir.join("old.json"), row("1790545.0")).unwrap();
    // Ten times slower: a regression under any sane threshold.
    std::fs::write(dir.join("new.json"), row("179054.5")).unwrap();
    let (out, stderr) = run_in(&dir, &["bench-diff", "old.json", "new.json"]);
    assert!(!out.status.success(), "the default gate fails: {stderr}");
    assert!(stderr.contains("1 regression(s)"), "{stderr}");
    for bad in ["nan", "inf", "-0.5"] {
        let (out, stderr) = run_in(
            &dir,
            &["bench-diff", "old.json", "new.json", "--threshold", bad],
        );
        assert!(!out.status.success(), "--threshold {bad} must fail");
        assert!(
            stderr.contains("--threshold must be a finite fraction >= 0"),
            "--threshold {bad}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_ids_and_arguments_are_diagnosed() {
    let dir = scratch("usage");
    for (args, expected) in [
        (
            &["smoke:broker:10x"][..],
            "bad n \"10x\"; expected smoke[:arch[:n[:shards[:placement]]]]",
        ),
        (&["sweep-smoke:0"][..], "expected sweep-smoke[:workloads]"),
        (
            &["fig9"][..],
            "unknown experiment \"fig9\"; available: fig1 ",
        ),
        (
            &["bench-diff", "only-one.json"][..],
            "bench-diff requires two paths",
        ),
        (
            &["bench-diff", "a", "b", "--threshold", "much"][..],
            "--threshold requires a fraction",
        ),
    ] {
        let (out, stderr) = run_in(&dir, args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A scenario whose round timers alone would exhaust the event budget is
/// refused before the engine is built, in one `error:` line that names
/// the budget, instead of running until the budget runs out and
/// panicking with a backtrace.
#[test]
fn a_run_the_round_timers_would_exhaust_fails_fast() {
    let dir = scratch("budget");
    std::fs::write(
        dir.join("endless.toml"),
        "[scenario]\narch = \"fair-gossip\"\nnodes = 2\nseed = 1\n\n\
         [topics]\ncount = 1\n\n\
         [interest]\nappetite = \"fixed\"\ntopics_per_node = 1\n\n\
         [publish]\nrate_per_sec = 1e-12\nduration = \"18446744073705551615us\"\n\
         warmup = \"0us\"\n",
    )
    .unwrap();
    let start = std::time::Instant::now();
    let (out, stderr) = run_in(&dir, &["run", "endless.toml"]);
    let elapsed = start.elapsed();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let budget: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("event budget"))
        .collect();
    assert_eq!(budget.len(), 1, "{stderr}");
    assert!(
        budget[0].starts_with("error: ") && budget[0].contains("500000000 events"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(elapsed.as_secs() < 10, "took {elapsed:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
