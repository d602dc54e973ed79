//! Pipeline regression gate for the overlapped window exchange.
//!
//! `tests/data/pre_pipeline_fair-vs-static.trace.json` is the committed
//! Chrome trace of the `fair-vs-static` scenario recorded *before* the
//! window protocol was pipelined: workers drained every inbound batch
//! up front and idled through a coordinator round trip per window, so
//! its shard slices carry a large `wait_ns` share (≈ 0.59 of shard wall
//! clock on the recording machine). (It lives under `tests/data/`
//! because ad-hoc `TRACE_*.json` exports are gitignored.) This test
//! re-runs the same scenario profiled and
//! asserts the genuine stall share — barrier (straggler wait at the
//! reduction) plus idle — stays below that recorded pre-change share.
//! Time a worker now spends blocked at a mid-window absorption point is
//! classified as pipeline fill, not stall, so a return of the
//! stop-the-world exchange would push the stall share back up and fail
//! here.

use fed_experiments::harness::{run_architecture, EngineKind};
use fed_experiments::scenario_run::{display_name, load_file, resolve_target};
use fed_profile::ProfileSpec;
use fed_util::json::{self, Value};

/// Sums `field` over every trace slice that carries it in its `args`.
fn sum_arg(doc: &Value, field: &str) -> f64 {
    let Some(events) = doc.get("traceEvents").and_then(Value::as_array) else {
        panic!("trace has no traceEvents array");
    };
    events
        .iter()
        .filter_map(|e| e.get("args"))
        .filter_map(|args| args.get(field))
        .filter_map(Value::as_f64)
        .sum()
}

#[test]
fn stall_share_stays_below_the_recorded_pre_pipeline_profile() {
    let baseline_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/pre_pipeline_fair-vs-static.trace.json"
    );
    let baseline_text =
        std::fs::read_to_string(baseline_path).expect("committed pre-change trace must exist");
    let baseline = json::parse(&baseline_text).expect("committed trace must parse");
    let base_execute = sum_arg(&baseline, "execute_ns");
    let base_exchange = sum_arg(&baseline, "exchange_ns");
    let base_wait = sum_arg(&baseline, "wait_ns") + sum_arg(&baseline, "fill_ns");
    let base_total = base_execute + base_exchange + base_wait;
    assert!(base_total > 0.0, "empty baseline trace proves nothing");
    let base_share = base_wait / base_total;
    // The committed pre-pipelining recording stalled for the majority of
    // shard wall clock; if the baseline is ever re-recorded with a
    // healthy share this gate stops being meaningful, so insist on it.
    assert!(
        base_share > 0.3,
        "baseline stall share {base_share:.3} is already low — \
         was the trace re-recorded after the pipelined exchange landed?"
    );

    let path = resolve_target("@fair-vs-static");
    let file = load_file(&path).expect("committed scenario must load");
    let name = display_name(&path, &file);
    let mut spec = file.spec;
    spec.profile = Some(ProfileSpec::default());
    let outcome = run_architecture(&spec, EngineKind::Cluster);
    let profile = outcome.profiling.as_ref().expect("profiling was on");
    let phases = profile.phases();
    let total = (phases.execute_ns
        + phases.exchange_ns
        + phases.fill_ns
        + phases.barrier_ns
        + phases.idle_ns) as f64;
    assert!(total > 0.0, "{name}: profiled run recorded no wall clock");
    let stall_share = (phases.barrier_ns + phases.idle_ns) as f64 / total;
    eprintln!(
        "{name}: stall share {stall_share:.3} (barrier {:.1} ms, idle {:.1} ms, \
         fill {:.1} ms, execute {:.1} ms) vs recorded pre-change {base_share:.3}",
        phases.barrier_ns as f64 / 1e6,
        phases.idle_ns as f64 / 1e6,
        phases.fill_ns as f64 / 1e6,
        phases.execute_ns as f64 / 1e6,
    );
    assert!(
        stall_share < base_share,
        "{name}: barrier+idle share {stall_share:.3} did not drop below the \
         recorded pre-pipelining share {base_share:.3} — the per-window \
         stop-the-world exchange is back"
    );
}
