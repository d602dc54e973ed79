//! bench-diff — compare two `BENCH_*` JSON artifacts row by row.
//!
//! `fed-experiments bench-diff <old.json> <new.json> [--threshold F]`
//! reads both files as JSON arrays of flat records (the shape every
//! `BENCH_cluster.json` / `BENCH_profile.json` / `BENCH_timeseries.json`
//! writer emits), matches rows by their *configuration* fields (suite,
//! arch, n, shards, placement, …), and reports the per-row events/s
//! delta. A row whose throughput dropped by more than the threshold is a
//! regression and fails the command — CI diffs the fresh artifact
//! against the committed one (`git show HEAD:BENCH_cluster.json`).
//!
//! Rows without a throughput rate — the `BENCH_sweep.json` frontier and
//! aggregate rows — are compared on the directional measurements of
//! [`crate::bench_json::FIELDS`] instead: fairness and reliability must
//! not drop, latency and forwarding cost must not rise, each by more
//! than the threshold. A move off zero has no ratio: it is adverse
//! (`+inf%`) when a lower-is-better metric rises from 0, and favourable
//! when a higher-is-better one does. Those quantities are virtual-world
//! deterministic, so CI runs the sweep diff with `--threshold 0`, which
//! fails any adverse move however small; the byte gate on the
//! regenerated file is a separate CI step.
//!
//! Which fields are configuration and which are measurements is not
//! decided here: the row key is [`crate::bench_json::config_key`], the
//! same identity the artifact splice replaces rows by, so a written
//! artifact holds one current row per configuration. (A hand-assembled
//! file that repeats one is read last occurrence wins.)
//!
//! A diff that pairs up **no** configuration although both files hold
//! rows is a failure, not a pass: it means a writer's configuration
//! fields moved and the gate is comparing nothing.

use crate::bench_json::{config_key, FieldKind, FIELDS};
use fed_metrics::table::{fmt_f64, Table};
use fed_util::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Default regression threshold: a row fails when its events/s dropped
/// by more than this fraction. Generous because wall-clock throughput on
/// shared CI hardware is noisy.
pub const DEFAULT_THRESHOLD: f64 = 0.5;

/// The throughput metric of one record, when it carries one.
fn rate_of(obj: &Value) -> Option<f64> {
    obj.get("events_per_sec")
        .or_else(|| obj.get("events_per_sec_on"))
        .and_then(|v| v.as_f64())
}

fn index(text: &str, label: &str) -> Result<BTreeMap<String, Value>, String> {
    let doc = json::parse(text).map_err(|e| format!("{label}: not valid JSON: {e}"))?;
    let rows = doc
        .as_array()
        .ok_or_else(|| format!("{label}: top level is not a JSON array"))?;
    let mut map = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let key = config_key(row).map_err(|e| format!("{label}: row {i}: {e}"))?;
        map.insert(key, row.clone());
    }
    Ok(map)
}

/// Result of one bench diff.
#[derive(Debug)]
pub struct DiffReport {
    /// One row per configuration present in either file.
    pub table: Table,
    /// Configurations whose throughput regressed past the threshold.
    pub regressions: Vec<String>,
    /// Configurations compared on both sides.
    pub compared: usize,
    /// Configurations in the old and in the new artifact.
    pub rows: (usize, usize),
}

impl DiffReport {
    /// Whether the diff passes as a gate.
    ///
    /// # Errors
    ///
    /// Returns a message when any row regressed past `threshold`, or
    /// when both artifacts hold rows and none paired up.
    pub fn verdict(&self, threshold: f64) -> Result<(), String> {
        let (old, new) = self.rows;
        if self.compared == 0 && old > 0 && new > 0 {
            return Err(format!(
                "bench-diff: compared 0 configurations although the old artifact holds {old} \
                 row(s) and the new one {new}: no configuration key matches, so nothing \
                 was gated"
            ));
        }
        if self.regressions.is_empty() {
            return Ok(());
        }
        Err(format!(
            "bench-diff: measurements regressed past {:.0}% on: {}",
            threshold * 100.0,
            self.regressions.join("; ")
        ))
    }
}

/// Diffs two artifact texts. `threshold` is the allowed fractional
/// events/s drop before a row counts as a regression.
///
/// # Errors
///
/// Returns a message when either text is not a JSON array of rows
/// [`config_key`] accepts.
pub fn diff(old_text: &str, new_text: &str, threshold: f64) -> Result<DiffReport, String> {
    let old = index(old_text, "old")?;
    let new = index(new_text, "new")?;
    let mut table = Table::new(
        format!("BENCH-DIFF (threshold {})", fmt_f64(threshold)),
        &["row", "old events/s", "new events/s", "delta", "status"],
    );
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    let dash = || "-".to_string();
    for (key, new_row) in &new {
        match old.get(key) {
            None => {
                table.row_owned(vec![
                    key.clone(),
                    dash(),
                    rate_of(new_row).map(fmt_f64).unwrap_or_else(dash),
                    dash(),
                    "added".to_string(),
                ]);
            }
            Some(old_row) => {
                compared += 1;
                match (rate_of(old_row), rate_of(new_row)) {
                    (Some(o), Some(n)) if o > 0.0 => {
                        let delta = n / o - 1.0;
                        let status = if delta < -threshold {
                            regressions.push(key.clone());
                            "REGRESSION".to_string()
                        } else {
                            "ok".to_string()
                        };
                        table.row_owned(vec![
                            key.clone(),
                            fmt_f64(o),
                            fmt_f64(n),
                            format!("{:+.1}%", delta * 100.0),
                            status,
                        ]);
                    }
                    _ => {
                        // No throughput on this pair: compare the
                        // directional sweep metrics instead, reporting
                        // the most adverse mover.
                        let mut worst: Option<(&str, f64, f64, f64, f64)> = None;
                        for &(metric, kind) in FIELDS {
                            let FieldKind::Measure {
                                higher_is_better: Some(higher_is_better),
                            } = kind
                            else {
                                continue;
                            };
                            let o = old_row.get(metric).and_then(Value::as_f64);
                            let n = new_row.get(metric).and_then(Value::as_f64);
                            let (Some(o), Some(n)) = (o, n) else { continue };
                            let delta = if o > 0.0 {
                                n / o - 1.0
                            } else if o < 0.0 || n == 0.0 {
                                continue;
                            } else {
                                // Off zero: an infinite move in its direction.
                                n.signum() * f64::INFINITY
                            };
                            // Positive = adverse, whatever the direction.
                            let adverse = if higher_is_better { -delta } else { delta };
                            if worst.is_none_or(|w| adverse > w.3) {
                                worst = Some((metric, o, n, adverse, delta));
                            }
                        }
                        match worst {
                            Some((metric, o, n, adverse, delta)) => {
                                let status = if adverse > threshold {
                                    regressions.push(key.clone());
                                    "REGRESSION".to_string()
                                } else {
                                    "ok".to_string()
                                };
                                table.row_owned(vec![
                                    key.clone(),
                                    format!("{metric}={}", fmt_f64(o)),
                                    format!("{metric}={}", fmt_f64(n)),
                                    format!("{:+.1}%", delta * 100.0),
                                    status,
                                ]);
                            }
                            None => {
                                table.row_owned(vec![
                                    key.clone(),
                                    dash(),
                                    dash(),
                                    dash(),
                                    "ok".into(),
                                ]);
                            }
                        }
                    }
                }
            }
        }
    }
    for (key, old_row) in &old {
        if !new.contains_key(key) {
            table.row_owned(vec![
                key.clone(),
                rate_of(old_row).map(fmt_f64).unwrap_or_else(dash),
                dash(),
                dash(),
                "removed".to_string(),
            ]);
        }
    }
    Ok(DiffReport {
        table,
        regressions,
        compared,
        rows: (old.len(), new.len()),
    })
}

/// Diffs two artifact files on disk.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed.
pub fn diff_files(
    old_path: impl AsRef<Path>,
    new_path: impl AsRef<Path>,
    threshold: f64,
) -> Result<DiffReport, String> {
    let old_path = old_path.as_ref();
    let new_path = new_path.as_ref();
    let old = std::fs::read_to_string(old_path)
        .map_err(|e| format!("cannot read {}: {e}", old_path.display()))?;
    let new = std::fs::read_to_string(new_path)
        .map_err(|e| format!("cannot read {}: {e}", new_path.display()))?;
    diff(&old, &new, threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(suite: &str, shards: usize, rate: f64) -> String {
        format!(
            "{{\"suite\":\"{suite}\",\"arch\":\"fair-gossip\",\"n\":1000,\
             \"shards\":{shards},\"events\":5,\"events_per_sec\":{rate}}}"
        )
    }

    fn doc(rows: &[String]) -> String {
        format!("[{}]", rows.join(","))
    }

    #[test]
    fn matching_rows_within_threshold_pass() {
        let old = doc(&[row("smoke", 4, 1000.0)]);
        let new = doc(&[row("smoke", 4, 900.0)]);
        let r = diff(&old, &new, 0.2).unwrap();
        assert_eq!(r.compared, 1);
        assert!(r.regressions.is_empty(), "{}", r.table);
    }

    #[test]
    fn regression_past_threshold_is_flagged() {
        let old = doc(&[row("smoke", 4, 1000.0)]);
        let new = doc(&[row("smoke", 4, 400.0)]);
        let r = diff(&old, &new, 0.5).unwrap();
        assert_eq!(r.regressions.len(), 1);
        assert!(r.regressions[0].contains("suite=smoke"));
    }

    #[test]
    fn last_occurrence_of_a_configuration_wins() {
        let old = doc(&[row("smoke", 4, 100.0), row("smoke", 4, 1000.0)]);
        let new = doc(&[row("smoke", 4, 950.0)]);
        let r = diff(&old, &new, 0.2).unwrap();
        assert!(r.regressions.is_empty(), "old should be 1000, not 100");
        let new = doc(&[row("smoke", 4, 100.0)]);
        let r = diff(&old, &new, 0.2).unwrap();
        assert_eq!(r.regressions.len(), 1);
    }

    #[test]
    fn added_and_removed_rows_are_reported_not_failed() {
        let old = doc(&[row("smoke", 4, 1000.0)]);
        let new = doc(&[row("smoke", 8, 1000.0)]);
        let r = diff(&old, &new, 0.2).unwrap();
        assert_eq!(r.compared, 0);
        assert!(r.regressions.is_empty());
        assert_eq!(r.table.len(), 2, "one added + one removed row");
    }

    /// How the 100k smoke gate went blind: the committed row predates the
    /// `telemetry` field, so the fresh row never pairs with it and a 70 %
    /// throughput drop used to print `compared 0` and exit 0.
    #[test]
    fn a_diff_that_compares_nothing_fails() {
        let old = r#"[{"suite":"smoke","arch":"scribe","n":100000,"shards":8,"placement":"round-robin","events":692281,"windows":59,"wall_ms":2488.390,"events_per_sec":278204.4}]"#;
        let new = r#"[{"suite":"smoke","arch":"scribe","n":100000,"shards":8,"placement":"round-robin","telemetry":false,"events":692281,"windows":59,"wall_ms":8294.633,"events_per_sec":83461.3}]"#;
        let r = diff(old, new, DEFAULT_THRESHOLD).unwrap();
        assert_eq!((r.compared, r.rows), (0, (1, 1)));
        let err = r.verdict(DEFAULT_THRESHOLD).unwrap_err();
        assert!(err.contains("holds 1 row(s) and the new one 1"), "{err}");
        // An empty side is a first recording, not a blind gate; and a
        // regression is still reported as one.
        assert!(diff("[]", new, 0.5).unwrap().verdict(0.5).is_ok());
        let slow = new.replace("\"telemetry\":false,", "");
        let err = diff(old, &slow, 0.5).unwrap().verdict(0.5).unwrap_err();
        assert!(err.contains("regressed past 50%"), "{err}");
    }

    #[test]
    fn rows_without_a_rate_metric_are_tolerated() {
        let old = r#"[{"suite":"timeseries","arch":"broker","n":64,"shards":2,"identical":true,"series":[]}]"#;
        let r = diff(old, old, 0.2).unwrap();
        assert_eq!(r.compared, 1);
        assert!(r.regressions.is_empty());
    }

    /// A committed pair of real-shape `BENCH_timeseries.json` artifacts:
    /// the header's measured fields (`handover_ms`, including its null
    /// form, and `detection_latency_mean_us`) moved between the runs,
    /// yet both rows still pair up by configuration — nothing is
    /// silently dropped or misread as an added/removed configuration.
    #[test]
    fn timeseries_header_measurements_do_not_split_rows() {
        let old = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/data/bench_timeseries_old.json"
        ));
        let new = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/data/bench_timeseries_new.json"
        ));
        let r = diff(old, new, DEFAULT_THRESHOLD).unwrap();
        assert_eq!(
            r.compared, 2,
            "both timeseries rows must pair up:\n{}",
            r.table
        );
        assert!(r.regressions.is_empty());
        assert_eq!(r.table.len(), 2, "no added/removed rows:\n{}", r.table);
        // The key is pure configuration — measured header fields and the
        // series itself stay out of it.
        let doc = json::parse(new).unwrap();
        let key = config_key(&doc.as_array().unwrap()[1]).unwrap();
        assert!(key.contains("arch=hybrid") && key.contains("seed=42"));
        for measured in ["handover_ms=", "detection_latency_mean_us=", "series="] {
            assert!(
                !key.contains(measured),
                "{measured} leaked into the key {key:?}"
            );
        }
    }

    fn frontier_row(suite: &str, point: usize, jain: f64, lat: f64, cost: f64) -> String {
        format!(
            "{{\"suite\": \"{suite}\", \"arch\": \"fair-gossip\", \"sweep_seed\": 42, \
             \"workloads\": 48, \"point\": {point}, \"workload_index\": {point}, \
             \"jain\": {jain:.6}, \"latency_p95_ms\": {lat:.6}, \
             \"msgs_per_delivery\": {cost:.6}, \"reliability\": 1.000000}}"
        )
    }

    #[test]
    fn identical_frontier_rows_pass_at_zero_threshold() {
        let old = doc(&[frontier_row("sweep", 0, 0.9, 40.0, 6.0)]);
        let r = diff(&old, &old, 0.0).unwrap();
        assert_eq!(r.compared, 1);
        assert!(r.regressions.is_empty(), "{}", r.table);
    }

    #[test]
    fn adverse_frontier_moves_are_regressions() {
        let old = doc(&[frontier_row("sweep", 0, 0.9, 40.0, 6.0)]);
        // Fairness dropped past the threshold.
        let worse_jain = doc(&[frontier_row("sweep", 0, 0.6, 40.0, 6.0)]);
        let r = diff(&old, &worse_jain, 0.2).unwrap();
        assert_eq!(r.regressions.len(), 1, "{}", r.table);
        // Latency rose past the threshold.
        let worse_lat = doc(&[frontier_row("sweep", 0, 0.9, 60.0, 6.0)]);
        let r = diff(&old, &worse_lat, 0.2).unwrap();
        assert_eq!(r.regressions.len(), 1, "{}", r.table);
        // Forwarding cost rose past the threshold.
        let worse_cost = doc(&[frontier_row("sweep", 0, 0.9, 40.0, 9.0)]);
        let r = diff(&old, &worse_cost, 0.2).unwrap();
        assert_eq!(r.regressions.len(), 1, "{}", r.table);
    }

    /// A ratio cannot measure a move off zero; a lower-is-better metric
    /// leaving zero is still the most adverse move there is.
    #[test]
    fn adverse_moves_off_zero_are_regressions() {
        let old = doc(&[frontier_row("sweep", 0, 0.9, 0.0, 6.0)]);
        let new = doc(&[frontier_row("sweep", 0, 0.9, 5.0, 6.0)]);
        let r = diff(&old, &new, 0.0).unwrap();
        assert_eq!(r.regressions.len(), 1, "{}", r.table);
        assert!(r.table.to_string().contains("+inf%"), "{}", r.table);
        // Fairness leaving zero is an improvement, and zero staying zero
        // is no move at all.
        let old = doc(&[frontier_row("sweep", 0, 0.0, 0.0, 6.0)]);
        let new = doc(&[frontier_row("sweep", 0, 0.5, 0.0, 6.0)]);
        let r = diff(&old, &new, 0.0).unwrap();
        assert!(r.regressions.is_empty(), "{}", r.table);
    }

    #[test]
    fn favorable_frontier_moves_of_any_size_pass() {
        let old = doc(&[frontier_row("sweep", 0, 0.5, 40.0, 6.0)]);
        let better = doc(&[frontier_row("sweep", 0, 1.0, 10.0, 2.0)]);
        let r = diff(&old, &better, 0.2).unwrap();
        assert_eq!(r.compared, 1);
        assert!(r.regressions.is_empty(), "{}", r.table);
    }

    #[test]
    fn frontier_measurements_stay_out_of_the_row_key() {
        // A frontier reshuffle moves every measurement (including the
        // originating workload index) but the row must still pair up by
        // (suite, arch, sweep_seed, workloads, point).
        let old = doc(&[frontier_row("sweep", 0, 0.9, 40.0, 6.0)]);
        let new = doc(&[frontier_row("sweep", 0, 0.91, 39.0, 5.9)
            .replace("\"workload_index\": 0", "\"workload_index\": 17")]);
        let r = diff(&old, &new, DEFAULT_THRESHOLD).unwrap();
        assert_eq!(r.compared, 1, "{}", r.table);
        assert!(r.regressions.is_empty());
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(diff("not json", "[]", 0.2).is_err());
        assert!(diff("{}", "[]", 0.2).is_err());
        // A field the table does not classify can be neither keyed nor
        // ignored safely.
        let err = diff(r#"[{"suite":"smoke","colour":"red"}]"#, "[]", 0.2).unwrap_err();
        assert!(
            err.contains("old: row 0") && err.contains("colour"),
            "{err}"
        );
    }
}
