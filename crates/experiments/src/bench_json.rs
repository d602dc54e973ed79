//! The `BENCH_*` artifact codec: one field table, one row type, one
//! splice.
//!
//! Every committed artifact is a JSON array of flat objects, one per
//! line. [`FIELDS`] names every field any writer emits and says whether
//! it identifies the measured *configuration* or is a *measurement*; the
//! [`Row`] builder, the [`splice`] that keeps one current row per
//! configuration on disk and `bench-diff`'s row pairing all consult that
//! one table, so a field added to a writer and not to the table fails a
//! test instead of silently unpairing rows. A [`Row`] is the row type of
//! all five artifacts — `BENCH_cluster`, `_profile`, `_trace`, `_sweep`
//! and the `BENCH_timeseries` headers — and the `FIELDS`-ordered layer
//! over [`fed_util::json`], which writes and reads every one of them.

use fed_util::json::{self, Object, Value};
use fed_workload::scenario::ScenarioSpec;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::Path;

/// Default output path, relative to the invocation directory.
pub const BENCH_PATH: &str = "BENCH_cluster.json";

/// What one artifact field is to `bench-diff` and the splice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Identifies the measured configuration: part of the row key.
    Config,
    /// A result, kept out of the row key. `higher_is_better` is the
    /// direction `bench-diff` gates on; `None` is reported, never gated.
    Measure {
        /// `Some(true)`: a drop is adverse; `Some(false)`: a rise is.
        higher_is_better: Option<bool>,
    },
}

use FieldKind::Config;
const INFO: FieldKind = FieldKind::Measure {
    higher_is_better: None,
};
const UP: FieldKind = FieldKind::Measure {
    higher_is_better: Some(true),
};
const DOWN: FieldKind = FieldKind::Measure {
    higher_is_better: Some(false),
};

/// Every field of every `BENCH_*` row. A [`Row`] renders its cells in
/// this order, so the table is also each artifact's field order.
pub const FIELDS: &[(&str, FieldKind)] = &[
    ("suite", Config),
    ("arch", Config),
    ("n", Config),
    ("shards", Config),
    ("placement", Config),
    ("telemetry", Config),
    ("sample_rate", Config),
    // BENCH_timeseries.json / BENCH_sweep.json configuration.
    ("seed", Config),
    ("window_us", Config),
    ("sweep_seed", Config),
    ("workloads", Config),
    ("point", Config),
    // Host-speed measurements. Only the throughput of the run under test
    // is gated: wall time restates it, and the off/on overhead has its
    // own bar in the smoke that records it.
    ("events", INFO),
    ("windows", INFO),
    ("hops", INFO),
    ("wall_ms", INFO),
    ("events_per_sec", UP),
    ("wall_ms_off", INFO),
    ("wall_ms_on", INFO),
    ("overhead_frac", INFO),
    ("events_per_sec_off", INFO),
    ("events_per_sec_on", UP),
    ("execute_ms", INFO),
    ("exchange_ms", INFO),
    ("fill_ms", INFO),
    ("barrier_ms", INFO),
    ("idle_ms", INFO),
    // BENCH_timeseries.json: the parity verdict, the earliest strategy
    // handover (null until one fires), the SWIM detector's mean
    // detection latency and the two per-window series.
    ("identical", INFO),
    ("handover_ms", INFO),
    ("detection_latency_mean_us", INFO),
    ("series", INFO),
    ("membership", INFO),
    // BENCH_sweep.json: per-frontier-point axes and per-architecture
    // aggregates. `workload_index` names the generated workload behind a
    // frontier point and is free to move when the frontier reshuffles.
    ("workload_index", INFO),
    ("jain", UP),
    ("latency_p95_ms", DOWN),
    ("msgs_per_delivery", DOWN),
    ("reliability", UP),
    ("jain_mean", UP),
    ("latency_p95_mean_ms", DOWN),
    ("msgs_per_delivery_mean", DOWN),
    ("reliability_mean", UP),
    ("frontier_points", INFO),
];

/// Virtual-world measurements — the sweep axes and means and the SWIM
/// detection latency — which [`Row::float`] writes at six decimals.
const SIX_DECIMALS: &[&str] = &[
    "detection_latency_mean_us",
    "jain",
    "latency_p95_ms",
    "msgs_per_delivery",
    "reliability",
    "jain_mean",
    "latency_p95_mean_ms",
    "msgs_per_delivery_mean",
    "reliability_mean",
];

fn field_index(name: &str) -> Option<usize> {
    FIELDS.iter().position(|f| f.0 == name)
}

/// Events per wall-clock second.
pub fn events_per_sec(events: u64, wall_ms: f64) -> f64 {
    events as f64 / (wall_ms / 1e3).max(1e-9)
}

/// One artifact row: rendered cells in [`FIELDS`] order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(Vec<(usize, String)>);

impl Row {
    /// A row of `suite` for `spec` run at `shards` shards.
    pub fn new(suite: &str, spec: &ScenarioSpec, shards: usize) -> Row {
        Row(Vec::new())
            .text("suite", suite)
            .text("arch", spec.arch.name())
            .int("n", spec.n as u64)
            .int("shards", shards as u64)
    }

    /// Adds the scheduler knobs of `spec`: placement and whether
    /// telemetry was attached.
    pub fn knobs(self, spec: &ScenarioSpec) -> Row {
        self.text("placement", spec.placement.name())
            .flag("telemetry", spec.telemetry.is_some())
    }

    /// Adds one timed run: its counts, wall clock and throughput.
    pub fn throughput(self, events: u64, windows: u64, wall_ms: f64) -> Row {
        self.int("events", events)
            .int("windows", windows)
            .float("wall_ms", wall_ms)
            .float("events_per_sec", events_per_sec(events, wall_ms))
    }

    /// Sets a field to already-rendered JSON (a nested array, say).
    pub(crate) fn put(mut self, name: &str, rendered: String) -> Row {
        let at = field_index(name).unwrap_or_else(|| panic!("{name:?} is not in FIELDS"));
        match self.0.binary_search_by_key(&at, |cell| cell.0) {
            Ok(i) => self.0[i].1 = rendered,
            Err(i) => self.0.insert(i, (at, rendered)),
        }
        self
    }

    /// Sets a string field.
    pub fn text(self, name: &str, value: &str) -> Row {
        self.put(name, json::string(value))
    }

    /// Sets an integer field; `None` is `null`.
    pub fn int(self, name: &str, value: impl Into<Option<u64>>) -> Row {
        let rendered = value
            .into()
            .map_or_else(|| "null".into(), |v| v.to_string());
        self.put(name, rendered)
    }

    /// Sets a boolean field.
    pub fn flag(self, name: &str, value: bool) -> Row {
        self.put(name, value.to_string())
    }

    /// Sets a float field; `None` and non-finite values are `null`.
    /// The one fixed-decimals rule: a configuration value is written
    /// exactly; the virtual-world measurements (the sweep axes and
    /// means, the SWIM detection latency) keep six decimals;
    /// milliseconds keep three; any other measurement keeps one decimal
    /// from 100 up (absolute rates) and four below, where one decimal
    /// would quantize a `shard-gate` ratio or an overhead fraction away.
    pub fn float(self, name: &str, value: impl Into<Option<f64>>) -> Row {
        let value = value.into();
        let rendered = if field_index(name).is_some_and(|i| FIELDS[i].1 == Config) {
            json::number(value)
        } else if SIX_DECIMALS.contains(&name) {
            json::fixed(value, 6)
        } else if name.contains("_ms") {
            json::fixed(value, 3)
        } else if value.is_some_and(|v| v < 100.0) {
            json::fixed(value, 4)
        } else {
            json::fixed(value, 1)
        };
        self.put(name, rendered)
    }

    /// The row as one JSON object.
    pub fn to_json(&self) -> String {
        let row = self.0.iter().fold(Object::new(), |row, (at, rendered)| {
            row.raw(FIELDS[*at].0, rendered)
        });
        row.finish()
    }
}

fn scalar_repr(v: &Value) -> Option<String> {
    match v {
        Value::Str(s) => Some(s.clone()),
        Value::Bool(b) => Some(b.to_string()),
        Value::Num(n) => Some(if n.fract() == 0.0 && n.abs() < 1e15 {
            format!("{}", *n as i64)
        } else {
            format!("{n}")
        }),
        _ => None,
    }
}

/// The configuration key of one parsed row: its [`FieldKind::Config`]
/// fields as `name=value`, sorted by name. Two rows with equal keys
/// measure the same thing — the identity `bench-diff` pairs rows by and
/// [`splice`] replaces rows by.
///
/// # Errors
///
/// Returns a message when the row is not an object, carries a field
/// [`FIELDS`] does not list (it could be neither keyed nor ignored
/// safely), or has a non-scalar or no configuration field.
pub fn config_key(row: &Value) -> Result<String, String> {
    let Value::Obj(fields) = row else {
        return Err("row is not a JSON object".into());
    };
    let mut parts: BTreeMap<&str, String> = BTreeMap::new();
    for (name, value) in fields {
        let at = field_index(name)
            .ok_or_else(|| format!("field {name:?} is not in the BENCH_* field table"))?;
        if FIELDS[at].1 == Config {
            let repr = scalar_repr(value)
                .ok_or_else(|| format!("configuration field {name:?} is not a scalar"))?;
            parts.insert(name, repr);
        }
    }
    if parts.is_empty() {
        return Err("row has no configuration field".into());
    }
    let parts: Vec<String> = parts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    Ok(parts.join(" "))
}

/// Writes `rows` into the array at `path`, creating the file if it is
/// missing, so that it holds **one current row per configuration**: a
/// row whose [`config_key`] is already on file replaces that line in
/// place, anything else is appended. With
/// `replace_suite`, every line of that suite is dropped first — sweep
/// frontiers change length between runs, and a stale higher-numbered
/// `point` row would otherwise outlive the write. Lines not superseded
/// are kept byte for byte.
///
/// # Errors
///
/// Propagates filesystem errors. An existing file that is not a JSON
/// array of one keyable object per line is `InvalidData` and is left
/// untouched.
pub fn splice(path: impl AsRef<Path>, rows: &[Row], replace_suite: Option<&str>) -> io::Result<()> {
    let path = path.as_ref();
    let invalid = |why: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {why}", path.display()),
        )
    };
    let existing = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => "[]".to_string(),
        Err(e) => return Err(e),
    };
    let doc = json::parse(&existing).map_err(|e| invalid(format!("not valid JSON: {e}")))?;
    let on_file = doc
        .as_array()
        .ok_or_else(|| invalid("top level is not a JSON array".into()))?;
    let lines: Vec<&str> = existing
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with('{'))
        .collect();
    if lines.len() != on_file.len() {
        return Err(invalid("not one object per line".into()));
    }
    let rows: Vec<String> = rows.iter().map(Row::to_json).collect();
    let fresh: Vec<Value> = rows
        .iter()
        .map(|r| json::parse(r).map_err(|e| invalid(format!("new row is not valid JSON: {e}"))))
        .collect::<Result<_, _>>()?;
    let kept = lines.into_iter().zip(on_file).filter(|(_, value)| {
        replace_suite.is_none() || value.get("suite").and_then(Value::as_str) != replace_suite
    });
    let mut out: Vec<&str> = Vec::new();
    let mut slot: HashMap<String, usize> = HashMap::new();
    for (line, value) in kept.chain(rows.iter().map(String::as_str).zip(&fresh)) {
        let key = config_key(value).map_err(invalid)?;
        match slot.get(&key) {
            Some(&i) => out[i] = line,
            None => {
                slot.insert(key, out.len());
                out.push(line);
            }
        }
    }
    fs::write(path, json::lines(out, "  ", "") + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fed_workload::scenario::Placement;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::fair_gossip(512, 42)
    }

    fn row(suite: &str, events: u64) -> Row {
        Row::new(suite, &spec(), 8)
            .knobs(&spec())
            .throughput(events, 42, 12.5)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bench_json_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rows_on_file(path: &Path) -> usize {
        let text = fs::read_to_string(path).unwrap();
        json::parse(&text).unwrap().as_array().unwrap().len()
    }

    #[test]
    fn record_renders_flat_json() {
        let json = row("scale", 7).float("events_per_sec", 80_000.0).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"suite\":\"scale\""));
        assert!(json.contains("\"events\":7"));
        assert!(json.contains("\"telemetry\":false"));
        assert!(json.contains("\"wall_ms\":12.500"));
        assert!(json.contains("\"events_per_sec\":80000.0"));
        // Ratio-valued rows (shard-gate) keep four decimals.
        let gate = row("shard-gate", 7).float("events_per_sec", 0.8725);
        assert!(gate.to_json().contains("\"events_per_sec\":0.8725"));
    }

    /// One committed row of each shape — cluster, a `shard-gate` ratio
    /// (four decimals), robust, profile, trace, a sweep frontier point and
    /// a sweep aggregate (six decimals) — rebuilt cell by cell through the
    /// typed setters, fed in reverse so the table has to restore the
    /// order, renders the committed bytes; so does a timeseries header.
    #[test]
    fn golden_rows_render_the_committed_bytes() {
        for line in [
            "{\"suite\":\"scale\",\"arch\":\"fair-gossip\",\"n\":512,\"shards\":1,\
             \"placement\":\"round-robin\",\"telemetry\":false,\
             \"events\":153494,\"windows\":987,\"wall_ms\":117.096,\"events_per_sec\":1310842.3}",
            "{\"suite\":\"shard-gate\",\"arch\":\"fair-gossip\",\"n\":512,\"shards\":4,\
             \"placement\":\"round-robin\",\"telemetry\":false,\
             \"events\":153494,\"windows\":987,\"wall_ms\":124.517,\"events_per_sec\":0.8383}",
            "{\"suite\":\"robust-loss-0.10\",\"arch\":\"static-gossip\",\"n\":96,\"shards\":1,\
             \"placement\":\"round-robin\",\"telemetry\":false,\
             \"events\":175071,\"windows\":0,\"wall_ms\":156.605,\"events_per_sec\":1117916.3}",
            "{\"suite\":\"profile\",\"arch\":\"fair-gossip\",\"n\":256,\"shards\":4,\
             \"placement\":\"round-robin\",\"telemetry\":true,\
             \"events\":81516,\"windows\":968,\"wall_ms_off\":68.491,\"wall_ms_on\":69.055,\
             \"overhead_frac\":0.0082,\"events_per_sec_off\":1190172.4,\
             \"events_per_sec_on\":1180448.7,\"execute_ms\":53.315,\"exchange_ms\":8.992,\
             \"fill_ms\":185.218,\"barrier_ms\":17.842,\"idle_ms\":0.000}",
            "{\"suite\":\"trace\",\"arch\":\"fair-gossip\",\"n\":256,\"shards\":4,\
             \"sample_rate\":0.02,\"events\":95932,\"hops\":17385,\"wall_ms_off\":95.491,\
             \"wall_ms_on\":101.797,\"overhead_frac\":0.0660,\"events_per_sec_off\":1004620.6,\
             \"events_per_sec_on\":942386.6}",
            "{\"suite\":\"sweep\",\"arch\":\"fair-gossip\",\"sweep_seed\":42,\"workloads\":48,\
             \"point\":0,\"workload_index\":24,\"jain\":0.924115,\"latency_p95_ms\":66.129000,\
             \"msgs_per_delivery\":88.333333,\"reliability\":1.000000}",
            "{\"suite\":\"sweep\",\"arch\":\"fair-gossip\",\"sweep_seed\":42,\"workloads\":48,\
             \"jain_mean\":0.878164,\"latency_p95_mean_ms\":269.394313,\
             \"msgs_per_delivery_mean\":31.359408,\"reliability_mean\":0.956633,\
             \"frontier_points\":8}",
        ] {
            let mut row = Row(Vec::new());
            for cell in line[1..line.len() - 1].rsplit(',') {
                let (name, token) = cell.split_once(':').unwrap();
                let name = name.trim_matches('"');
                row = if token.starts_with('"') {
                    row.text(name, token.trim_matches('"'))
                } else if let Ok(flag) = token.parse() {
                    row.flag(name, flag)
                } else if token.contains('.') {
                    row.float(name, token.parse::<f64>().unwrap())
                } else {
                    row.int(name, token.parse::<u64>().unwrap())
                };
            }
            assert_eq!(row.to_json(), line);
        }
        // The committed header line runs up to the series' opening
        // bracket; the windows follow one per line.
        let header = "{\"suite\":\"timeseries\",\"arch\":\"fair-gossip\",\"n\":256,\"shards\":4,\
                      \"seed\":42,\"window_us\":500000,\"identical\":true,\"handover_ms\":null,\
                      \"detection_latency_mean_us\":3025790.182196,\"series\":[";
        let no_windows = json::lines(Vec::<String>::new(), "    ", "  ");
        let row = Row::default()
            .put("membership", no_windows.clone())
            .put("series", no_windows)
            .float("detection_latency_mean_us", 3025790.182196)
            .int("handover_ms", None)
            .flag("identical", true)
            .int("window_us", 500_000)
            .int("seed", 42)
            .int("shards", 4)
            .int("n", 256)
            .text("arch", "fair-gossip")
            .text("suite", "timeseries");
        assert_eq!(
            row.to_json(),
            format!("{header}\n  ],\"membership\":[\n  ]}}")
        );
    }

    #[test]
    fn non_finite_measurements_render_as_null() {
        let row = Row::default()
            .text("suite", "sweep")
            .float("jain", f64::NAN)
            .float("wall_ms", f64::INFINITY)
            .float("events_per_sec", f64::NEG_INFINITY)
            .float("detection_latency_mean_us", None);
        assert_eq!(
            row.to_json(),
            "{\"suite\":\"sweep\",\"wall_ms\":null,\"events_per_sec\":null,\
             \"detection_latency_mean_us\":null,\"jain\":null}"
        );
        assert!(json::parse(&row.to_json()).is_ok());
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(json::escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json::escape("x\u{1}"), "x\\u0001");
    }

    /// Every writer's rows, and nothing else, are what [`FIELDS`] lists —
    /// the same guard [`crate::REGISTRY`] has against the README.
    #[test]
    fn field_table_matches_what_the_writers_emit() {
        let mut rows: Vec<Row> = Vec::new();
        rows.extend(crate::scale::run(16, &[1, 4], 1).records);
        let tiny = crate::scale::SmokeConfig {
            n: 32,
            shards: 2,
            ..Default::default()
        };
        rows.push(crate::scale::smoke(tiny, 1).row);
        rows.extend(crate::robust::run(16, 1).records);
        rows.extend(crate::profile::run(16, 2, 1).records);
        rows.extend(crate::trace::run(16, 2, 1).records);
        rows.extend(crate::sweep::run("sweep", 1, 1).records);
        let timeseries = crate::timeseries::run(16, 2, 1).json;
        let mut emitted = std::collections::BTreeSet::new();
        let parsed = rows.iter().map(|r| json::parse(&r.to_json()).unwrap());
        let headers = json::parse(&timeseries).unwrap();
        for value in parsed.chain(headers.as_array().unwrap().iter().cloned()) {
            config_key(&value).unwrap_or_else(|e| panic!("{e}: {value:?}"));
            let Value::Obj(fields) = value else {
                panic!("not an object")
            };
            emitted.extend(fields.into_iter().map(|(name, _)| name));
        }
        for (name, _) in FIELDS {
            assert!(emitted.contains(*name), "no writer emits {name:?}");
        }
        // With every header field classified, the series artifact pairs
        // up against itself row for row.
        let report = crate::bench_diff::diff(&timeseries, &timeseries, 0.0).unwrap();
        assert_eq!(report.compared, fed_workload::Architecture::ALL.len());
    }

    #[test]
    fn write_then_append_splices_the_array() {
        let dir = temp_dir("splice");
        let path = dir.join("BENCH_cluster.json");
        splice(&path, &[row("scale", 1)], None).unwrap();
        let wide = Row::new("smoke", &spec().with_placement(Placement::Balanced), 8)
            .knobs(&spec().with_placement(Placement::Balanced))
            .throughput(3, 42, 12.5);
        splice(&path, &[row("smoke", 2), wide], None).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        // Two smoke configurations and the scale row all survive.
        assert_eq!(text.matches("\"suite\"").count(), 3);
        assert_eq!(text.matches("[").count(), 1);
        assert_eq!(text.matches("]").count(), 1);
        // Well-formed: every record line but the last ends with a comma.
        assert_eq!(text.matches("},").count(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_creates_missing_file() {
        let dir = temp_dir("new");
        let path = dir.join("BENCH_cluster.json");
        splice(&path, &[row("smoke", 9)], None).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(rows_on_file(&path), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewriting_a_configuration_replaces_its_row_in_place() {
        let dir = temp_dir("replace");
        let path = dir.join("BENCH_cluster.json");
        let first = [row("scale", 1), row("smoke", 2)];
        splice(&path, &first, None).unwrap();
        splice(&path, &[row("scale", 5)], None).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(rows_on_file(&path), 2, "{text}");
        assert!(
            !text.contains("\"events\":1,"),
            "stale row survived: {text}"
        );
        let scale = text.find("\"events\":5,").expect("fresh row landed");
        assert!(scale < text.find("\"suite\":\"smoke\"").unwrap());
        assert!(
            text.contains(&first[1].to_json()),
            "other rows are untouched"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_file_that_is_not_a_row_array_is_an_error_and_is_kept() {
        let dir = temp_dir("invalid");
        let path = dir.join("BENCH_cluster.json");
        for broken in [
            "{\"suite\":\"scale\"}",
            "not json",
            "[\n  {\"mystery\":1}\n]\n",
        ] {
            fs::write(&path, broken).unwrap();
            let err = splice(&path, &[row("scale", 1)], None).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{broken}");
            assert_eq!(fs::read_to_string(&path).unwrap(), broken);
        }
        // A directory where the artifact should be cannot be written.
        assert!(splice(&dir, &[row("scale", 1)], None).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
