//! The benchmark's contract: `BENCHMARK.json` and the name tables agree, and
//! a `--quick` run of every workload passes its checks and prints every
//! declared metric exactly once.

use fed_profile::json::{parse, Value};
use fedbench::names::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use fedbench::report::{Metrics, Tally};
use fedbench::spans::Spans;
use fedbench::{layers, workload};

const SEED: u64 = 7;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|s| s.as_str().expect("string").to_string())
        .collect()
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn assert_table_matches(json: &Value, key: &str, table: &[Metric]) {
    let entries = json
        .get(key)
        .and_then(Value::as_array)
        .expect("metric array");
    assert_eq!(
        entries.len(),
        table.len(),
        "{key}: BENCHMARK.json and names.rs differ in length"
    );
    for (entry, m) in entries.iter().zip(table) {
        assert_eq!(text(entry, "name"), m.name, "{key} order or name");
        assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(entry, "better"), m.better.as_str(), "{}", m.name);
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            m.bound,
            "{}",
            m.name
        );
        assert!(valid_name(m.name), "{}", m.name);
        assert!(m.unit.len() <= 16, "{}", m.name);
    }
}

#[test]
fn benchmark_json_and_name_tables_agree() {
    let json = benchmark_json();
    assert_eq!(strings(&json, "paths"), ["fedbench"]);
    assert!(strings(&json, "command").contains(&"fedbench/Cargo.toml".to_string()));
    let run_seconds = json
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&run_seconds));

    let workloads = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(text(entry, "name"), w.name);
        assert_eq!(text(entry, "why"), w.why);
        assert!(
            valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
            "{}",
            w.name
        );
    }
    assert_table_matches(&json, "end_to_end", END_TO_END);
    assert_table_matches(&json, "per_layer", PER_LAYER);

    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        .collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");
}

/// The result line must hold exactly the table's names, each once.
fn assert_prints_exactly(metrics: &Metrics, tally: Tally, table: &[Metric]) {
    let line = metrics
        .result_line(table, tally)
        .expect("every metric set and finite");
    let parsed = parse(&line).expect("result line is JSON");
    let Some(Value::Obj(printed)) = parsed.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    let printed: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(printed, declared);
    assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)), "{line}");
}

#[test]
fn quick_run_of_every_workload_is_correct_and_complete() {
    for w in WORKLOADS {
        let spec = workload::load(w, SEED, true).expect("workload file parses");
        assert!(spec.shards <= 2, "{}: at most two busy threads", w.name);

        // Warm-up plus one repeat: two runs whose digests must agree; the
        // cluster workloads add the sequential reference run.
        let mut spans = Spans::new(w.name);
        let (metrics, tally) =
            workload::end_to_end(w, SEED, 0.0, true, &mut spans).expect("end-to-end run");
        assert_eq!(tally.failed, 0, "{}", w.name);
        assert_eq!(
            tally.attempted,
            if spec.shards > 1 { 3 } else { 2 },
            "{}",
            w.name
        );
        assert_prints_exactly(&metrics, tally, END_TO_END);
    }
}

/// The seq/cluster pair is only a pair while the two files describe the same
/// scenario.
#[test]
fn dc_workloads_differ_only_in_shards() {
    let load = |name| {
        let w = fedbench::names::workload(name).expect("known workload");
        workload::load(w, SEED, false).expect("workload file parses")
    };
    assert_eq!(load("dc-1ms-seq").with_shards(2), load("dc-1ms-cluster2"));
}

#[test]
fn quick_traced_run_prints_every_layer_metric_once() {
    // One sequential and one cluster workload cover both engine paths.
    for name in ["gossip-wan-seq", "dc-1ms-cluster2"] {
        let w = fedbench::names::workload(name).expect("known workload");
        let mut spans = Spans::new(w.name);
        let (metrics, tally) = layers::traced(w, SEED, true, &mut spans).expect("traced run");
        assert_eq!(tally.failed, 0, "{name}");
        assert_prints_exactly(&metrics, tally, PER_LAYER);
        assert!(spans.to_json().contains("\"run-traced\""));
    }
}
