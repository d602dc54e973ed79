//! E-TIMESERIES — streaming time-series observability across
//! architectures.
//!
//! Runs every architecture in [`Architecture::ALL`] through the same
//! bursty scenario — churn plus a flash-crowd publication burst — with
//! `fed-telemetry` attached and the SWIM failure detector armed, on
//! **both** engines. For each architecture the experiment:
//!
//! * checks the **series parity gate**: the sequential engine's
//!   telemetry series, SWIM observation logs and handover instants must
//!   be byte-identical to the sharded engine's (the `identical` column);
//! * prints a per-architecture transient summary (worst-window fairness,
//!   peak latency tail, population dip): the
//!   [`Transients`](crate::harness::Transients) of the run's
//!   [`RunSummary`], the same row `run` prints for a file with
//!   `[telemetry]`;
//! * writes the complete per-window series of every architecture to
//!   [`BENCH_TIMESERIES_PATH`], the machine-readable artifact tracked
//!   across PRs.
//!
//! This is the observability layer the end-of-run ledger snapshots
//! cannot provide: aggregate fairness can look fine while the flash
//! crowd concentrates forwarding load on interior nodes for a few
//! hundred milliseconds — exactly what the per-window Jain/Gini series
//! exposes.

use crate::bench_json::Row;
use crate::harness::{run_architecture, EngineKind, RunSummary};
use crate::scenario_run::{first_divergence, Divergence};
use fed_metrics::table::{fmt_f64, Table};
use fed_sim::{SimDuration, SimTime};
use fed_telemetry::membership::MembershipSeries;
use fed_telemetry::{TelemetrySeries, TelemetrySpec};
use fed_util::json::{self, Object};
use fed_workload::churn::ChurnPlan;
use fed_workload::pubs::{FlashCrowd, PubPlan};
use fed_workload::scenario::{Architecture, ScenarioSpec};

/// Default output path of the series artifact, relative to the
/// invocation directory.
pub const BENCH_TIMESERIES_PATH: &str = "BENCH_timeseries.json";

/// The bursty scenario the experiment samples: steady publishing for
/// three seconds, then a flash crowd (hot-topic Zipf shift at 4 s with a
/// 4x rate), under session churn, telemetry at 500 ms windows, and the
/// SWIM detector armed (it runs on the gossip-bearing architectures).
pub fn timeseries_spec(arch: Architecture, n: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard(arch, n, seed);
    spec.plan = PubPlan {
        rate_per_sec: 20.0,
        duration: SimTime::from_secs(6),
        topic_zipf_s: 1.0,
        payload_bytes: 64,
        warmup: SimTime::from_secs(1),
        flash: Some(FlashCrowd {
            at: SimTime::from_secs(4),
            topic_zipf_s: 3.0,
            rate_factor: 4.0,
        }),
    };
    spec.churn = Some(ChurnPlan {
        mean_session_secs: 5.0,
        mean_downtime_secs: 2.0,
        churning_fraction: 0.15,
        duration: SimTime::from_secs(6),
        warmup: SimTime::from_secs(1),
    });
    spec.telemetry = Some(TelemetrySpec::default().with_window(SimDuration::from_millis(500)));
    spec.membership = true;
    spec
}

/// One architecture's sampled series plus its parity verdict.
#[derive(Debug, Clone)]
pub struct ArchSeries {
    /// The architecture.
    pub arch: Architecture,
    /// Whether the sequential and sharded runs are byte-identical, the
    /// telemetry series included (must be `true`).
    pub identical: bool,
    /// The (shared) series, from the sharded run.
    pub series: TelemetrySeries,
    /// The failure-detection series (same 500 ms windows), all-zero on
    /// architectures without the SWIM detector.
    pub membership: MembershipSeries,
    /// The sharded run's summary: its transients, detection totals and
    /// handover instant.
    pub summary: RunSummary,
}

impl ArchSeries {
    /// The architecture's row of the transient table.
    fn row(&self) -> Vec<String> {
        let t = self.summary.transients.expect("spec enables telemetry");
        let detection = self.summary.detection;
        vec![
            self.arch.name().to_string(),
            t.windows.to_string(),
            t.jain_min.map_or_else(|| "-".into(), fmt_f64),
            fmt_f64(t.gini_peak),
            fmt_f64(t.p99_ms_peak),
            t.load_max_peak.to_string(),
            t.alive_min.to_string(),
            detection.detections.to_string(),
            detection.false_suspicions.to_string(),
            self.summary
                .handover
                .map_or_else(|| "-".into(), |t| t.as_millis().to_string()),
            self.identical.to_string(),
        ]
    }
}

/// Result of the E-TIMESERIES experiment.
#[derive(Debug)]
pub struct TimeseriesResult {
    /// Per-architecture transient summary.
    pub table: Table,
    /// Sampled series, in [`Architecture::ALL`] order.
    pub archs: Vec<ArchSeries>,
    /// The first architecture whose sequential and sharded runs differ,
    /// and where (must be `None`).
    pub divergence: Option<(Architecture, Divergence)>,
    /// The rendered `BENCH_timeseries.json` document.
    pub json: String,
}

/// Runs the experiment at population `n`, comparing the sequential
/// engine against the sharded engine at `shards` shards.
pub fn run(n: usize, shards: usize, seed: u64) -> TimeseriesResult {
    let mut table = Table::new(
        format!("E-TIMESERIES: per-window transients (n={n}, shards={shards}, 500ms windows)"),
        &[
            "arch",
            "windows",
            "jain_min",
            "gini_peak",
            "p99_ms_peak",
            "node_load_peak",
            "alive_min",
            "detections",
            "false_susp",
            "handover_ms",
            "identical",
        ],
    );
    let mut archs = Vec::new();
    let mut divergence = None;
    for arch in Architecture::ALL {
        let spec = timeseries_spec(arch, n, seed);
        let sequential = run_architecture(&spec, EngineKind::Sequential);
        let cluster = run_architecture(&spec.clone().with_shards(shards), EngineKind::Cluster);
        let diverged = first_divergence(&sequential, &cluster);
        let series_match = diverged.is_none();
        divergence = divergence.or(diverged.map(|d| (arch, d)));
        let entry = ArchSeries {
            arch,
            identical: series_match,
            series: cluster.telemetry.clone().expect("spec enables telemetry"),
            membership: cluster.membership_series(SimDuration::from_millis(500)),
            summary: cluster.summary(),
        };
        table.row_owned(entry.row());
        archs.push(entry);
    }
    let json = document(n, shards, seed, &archs);
    TimeseriesResult {
        table,
        archs,
        divergence,
        json,
    }
}

/// The full document: one [`Row`] per architecture carrying its
/// complete per-window series, the failure-detection series (detection
/// latency, false suspicions, refutations) riding alongside, each window
/// an object on its own line.
fn document(n: usize, shards: usize, seed: u64, archs: &[ArchSeries]) -> String {
    let headers = archs.iter().map(|a| {
        let series = a.series.rows().into_iter().map(|r| {
            Object::new()
                .uint("w", r.index)
                .uint("t_ms", r.start.as_millis())
                .uint("events", r.events)
                .uint("sent", r.msgs_sent)
                .uint("recv", r.msgs_received)
                .uint("lost", r.msgs_lost)
                .uint("bytes_sent", r.bytes_sent)
                .uint("alive", r.alive)
                .uint("crashed", r.crashed)
                .fixed("load_mean", r.load_mean, 6)
                .fixed("jain", r.jain, 6)
                .fixed("gini", r.gini, 6)
                .fixed("max_min", r.max_min, 6)
                .fixed("lat_p50_ms", r.latency_p50_ms, 6)
                .fixed("lat_p95_ms", r.latency_p95_ms, 6)
                .fixed("lat_p99_ms", r.latency_p99_ms, 6)
                .finish()
        });
        let membership = a.membership.windows.iter().map(|w| {
            Object::new()
                .uint("w", w.index)
                .uint("suspicions", w.suspicions)
                .uint("false_suspicions", w.false_suspicions)
                .uint("confirms", w.confirms)
                .uint("detections", w.detections)
                .uint("detection_latency_us_sum", w.detection_latency_us_sum)
                .uint("refutes", w.refutes)
                .uint("self_refutes", w.self_refutes)
                .finish()
        });
        Row::default()
            .text("suite", "timeseries")
            .text("arch", a.arch.name())
            .int("n", n as u64)
            .int("shards", shards as u64)
            .int("seed", seed)
            .int("window_us", a.series.spec.window.as_micros())
            .flag("identical", a.identical)
            .int("handover_ms", a.summary.handover.map(|t| t.as_millis()))
            .float(
                "detection_latency_mean_us",
                a.summary.detection.latency_mean_us,
            )
            .put("series", json::lines(series, "    ", "  "))
            .put("membership", json::lines(membership, "    ", "  "))
            .to_json()
    });
    json::lines(headers, "  ", "") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One fast architecture end to end: parity gate holds, the series
    /// shows the flash crowd, and the JSON is well-formed-ish.
    #[test]
    fn timeseries_gates_parity_and_captures_the_burst() {
        let spec = timeseries_spec(Architecture::FairGossip, 48, 7);
        let sequential = run_architecture(&spec, EngineKind::Sequential);
        let cluster = run_architecture(&spec.clone().with_shards(3), EngineKind::Cluster);
        assert_eq!(
            sequential.telemetry, cluster.telemetry,
            "series parity must hold at 3 shards"
        );
        let series = cluster.telemetry.expect("telemetry enabled");
        // Flash crowd at 4s with 4x rate: the busiest post-burst window
        // must clearly out-send the *settled* steady state (2-4s —
        // skipping the subscription-flood transient right after warmup).
        let sent_at = |ms: u64| series.windows[(ms / 500) as usize].msgs_sent;
        let steady_peak = (2_000..4_000).step_by(500).map(sent_at).max().unwrap();
        let burst_peak = (4_000..7_000).step_by(500).map(sent_at).max().unwrap();
        assert!(
            burst_peak > steady_peak * 3 / 2,
            "burst ({burst_peak}) must exceed the settled steady peak ({steady_peak}) by 50%"
        );
        // Churn shows up in the population series.
        assert!(
            series.windows.iter().any(|w| w.crashed > 0),
            "churn must dent the live population"
        );
    }

    /// `run`'s telemetry row and this experiment's row read the same
    /// transients off one outcome. Round timers keep dispatching events
    /// after the publication phase, so a window is active only when it
    /// carries a tenth of the peak window's sends, in both reports.
    #[test]
    fn run_and_timeseries_rows_read_the_same_transients() {
        let spec = timeseries_spec(Architecture::FairGossip, 32, 7);
        let report = crate::scenario_run::run_scenario("unit", &spec);
        let series = report.outcome.telemetry.as_ref().expect("telemetry");
        let peak = series.windows.iter().map(|w| w.msgs_sent).max().unwrap();
        let loaded = series
            .windows
            .iter()
            .filter(|w| w.msgs_sent >= (peak / 10).max(1))
            .count();
        let busy = series.windows.iter().filter(|w| w.events > 0).count();
        assert!(loaded < busy, "the drain tail still dispatches events");

        let last_row = |table: &Table| -> Vec<String> {
            let text = table.to_string();
            let line = text.lines().rfind(|l| l.starts_with('|')).unwrap();
            line.split('|')
                .map(|c| c.trim().to_string())
                .filter(|c| !c.is_empty())
                .collect()
        };
        let run = last_row(report.telemetry.as_ref().expect("telemetry table"));
        let timeseries = ArchSeries {
            arch: Architecture::FairGossip,
            identical: true,
            series: series.clone(),
            membership: report
                .outcome
                .membership_series(SimDuration::from_millis(500)),
            summary: report.outcome.summary(),
        }
        .row();
        // run: windows, active, jain_min, gini_peak, ...;
        // timeseries: arch, windows, jain_min, gini_peak, ...
        assert_eq!(run[0], timeseries[1], "windows");
        assert_eq!(run[1], loaded.to_string(), "active windows");
        assert_eq!(run[2], timeseries[2], "jain_min");
        assert_eq!(run[3], timeseries[3], "gini_peak");
    }

    #[test]
    fn json_document_renders_every_architecture() {
        // Tiny run: the document structure matters here, not the data.
        let r = run(24, 2, 11);
        assert_eq!(r.divergence, None, "parity gate failed");
        assert_eq!(r.archs.len(), Architecture::ALL.len());
        for arch in Architecture::ALL {
            assert!(
                r.json.contains(&format!("\"arch\":\"{}\"", arch.name())),
                "missing {arch} in JSON"
            );
        }
        assert_eq!(
            r.json.matches("\"suite\":\"timeseries\"").count(),
            Architecture::ALL.len()
        );
        assert_eq!(
            r.json.matches("\"membership\":[").count(),
            Architecture::ALL.len(),
            "every architecture carries the detection series"
        );
        assert!(r.json.contains("\"false_suspicions\":"));
        assert!(r.json.contains("\"detection_latency_us_sum\":"));
        assert!(!r.json.contains("inf"), "non-finite floats must be null");
        assert!(!r.json.contains("NaN"), "non-finite floats must be null");
    }

    /// The armed SWIM detector actually observes the churn: the gossip
    /// architectures log suspicions/confirms, and the detection series
    /// classifies at least one of them as a true detection.
    #[test]
    fn detector_sees_the_churn() {
        let spec = timeseries_spec(Architecture::FairGossip, 48, 7);
        let outcome = run_architecture(&spec, EngineKind::Sequential);
        assert!(
            outcome.total_swim_observations() > 0,
            "churn at 15% of 48 nodes must trigger detector traffic"
        );
        let series = outcome.membership_series(SimDuration::from_millis(500));
        assert!(
            series.total_detections() > 0,
            "some crash must be confirmed while the node is down"
        );
        assert!(
            series.detection_latency_mean_us().is_some(),
            "detections imply a measurable latency"
        );
    }
}
