//! Serializer golden: the exact text [`to_toml`] emits — key order,
//! blank lines between sections, float notation and coarsest-exact
//! duration units — pinned against literals captured from the
//! hand-written serializer that the schema-driven one replaced.
//!
//! One kitchen-sink spec carries every optional section (flash crowd,
//! churn, all three faults, a periodic three-segment mobility trace,
//! membership, telemetry, profile, trace); two small specs cover the
//! remaining `appetite` / `latency` variants. Every library file under
//! `scenarios/` and `fedbench/workloads/` is pinned too, against the
//! text in `tests/data/to_toml/`.

use fed_profile::ProfileSpec;
use fed_sim::network::{
    DelayFault, FaultSchedule, LatencyModel, MobilitySegment, MobilityTrace, NetworkModel,
    OnewayFault, PartitionFault,
};
use fed_sim::{SimDuration, SimTime};
use fed_telemetry::TelemetrySpec;
use fed_trace::TraceSpec;
use fed_workload::scenario_file::{parse_scenario, spec_from_toml, to_toml};
use fed_workload::{
    Appetite, Architecture, ChurnPlan, FlashCrowd, Placement, PubPlan, ScenarioSpec,
};
use std::fs;
use std::path::Path;

fn kitchen_sink() -> ScenarioSpec {
    ScenarioSpec {
        arch: Architecture::Hybrid,
        n: 1200,
        shards: 4,
        placement: Placement::Balanced,
        num_topics: 50,
        zipf_s: 1.2,
        appetite: Appetite::Bimodal {
            heavy_fraction: 0.25,
            heavy: 12,
            light: 2,
        },
        plan: PubPlan {
            rate_per_sec: 40.5,
            duration: SimTime::from_secs(10),
            topic_zipf_s: 0.0,
            payload_bytes: 256,
            warmup: SimTime::from_millis(500),
            flash: Some(FlashCrowd {
                at: SimTime::from_micros(6_000_001),
                topic_zipf_s: 3.5,
                rate_factor: 1e-7,
            }),
        },
        churn: Some(ChurnPlan {
            mean_session_secs: 12.0,
            mean_downtime_secs: 1e-7,
            churning_fraction: 0.4,
            duration: SimTime::from_secs(8),
            warmup: SimTime::ZERO,
        }),
        membership: true,
        faults: FaultSchedule {
            partition: Some(PartitionFault {
                at: SimTime::from_millis(1500),
                heal: SimTime::from_millis(3500),
                split: 200,
            }),
            oneway: Some(OnewayFault {
                at: SimTime::from_secs(1),
                until: SimTime::from_secs(3),
                split: 32,
            }),
            delay: Some(DelayFault {
                at: SimTime::from_secs(4),
                until: SimTime::from_secs(5),
                extra: SimDuration::from_millis(40),
            }),
        },
        mobility: Some(MobilityTrace {
            split: 16,
            period: Some(SimDuration::from_secs(2)),
            segments: vec![
                MobilitySegment {
                    at: SimTime::ZERO,
                    extra: SimDuration::from_millis(15),
                    disconnected: false,
                },
                MobilitySegment {
                    at: SimTime::from_millis(1200),
                    extra: SimDuration::ZERO,
                    disconnected: true,
                },
                MobilitySegment {
                    at: SimTime::from_micros(1_900_250),
                    extra: SimDuration::from_micros(750),
                    disconnected: false,
                },
            ],
        }),
        telemetry: Some(TelemetrySpec {
            window: SimDuration::from_millis(250),
            load_hi: 128.0,
            load_buckets: 128,
            latency_hi_ms: 400.5,
            latency_buckets: 80,
        }),
        profile: Some(ProfileSpec {
            trace: Some("traces/TRACE_kitchen-sink.json".to_string()),
        }),
        trace: Some(TraceSpec {
            sample_rate: 0.25,
            salt: u64::MAX,
            export: Some("traces/kitchen-sink.events.json".to_string()),
        }),
        net: NetworkModel::lossy(
            LatencyModel::LogNormalMs {
                median_ms: 40.0,
                sigma: 0.6,
                floor: SimDuration::from_millis(5),
            },
            0.01,
        ),
        seed: 99,
    }
}

/// `appetite = "fixed"` × `latency = "constant"`, no optional section
/// except an empty `[profile]` and a default `[trace]`.
fn fixed_constant() -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard(Architecture::Scribe, 64, 7)
        .with_profile(ProfileSpec::default())
        .with_trace(TraceSpec::default());
    spec.appetite = Appetite::Fixed(3);
    spec
}

/// `appetite = "uniform"` × `latency = "uniform"`, aperiodic mobility.
fn uniform_uniform() -> ScenarioSpec {
    let mut spec = ScenarioSpec::standard(Architecture::Dks, 5000, u64::MAX).with_shards(8);
    spec.appetite = Appetite::Uniform { lo: 1, hi: 4 };
    spec.net = NetworkModel::reliable(LatencyModel::Uniform {
        lo: SimDuration::from_micros(500),
        hi: SimDuration::from_millis(20),
    });
    spec.mobility = Some(MobilityTrace {
        split: 4,
        period: None,
        segments: vec![MobilitySegment {
            at: SimTime::from_secs(3),
            extra: SimDuration::ZERO,
            disconnected: true,
        }],
    });
    spec
}

const KITCHEN_SINK: &str = r#"[scenario]
arch = "hybrid"
nodes = 1200
seed = 99
shards = 4
placement = "balanced"

[topics]
count = 50
zipf_s = 1.2

[interest]
appetite = "bimodal"
heavy_fraction = 0.25
heavy = 12
light = 2

[publish]
rate_per_sec = 40.5
duration = "10s"
warmup = "500ms"
topic_zipf_s = 0.0
payload_bytes = 256

[publish.flash]
at = "6000001us"
topic_zipf_s = 3.5
rate_factor = 1e-7

[churn]
mean_session_secs = 12.0
mean_downtime_secs = 1e-7
churning_fraction = 0.4
duration = "8s"
warmup = "0s"

[network]
latency = "lognormal"
median_ms = 40.0
sigma = 0.6
floor = "5ms"
loss = 0.01

[faults.partition]
at = "1500ms"
heal = "3500ms"
split = 200

[faults.oneway]
at = "1s"
until = "3s"
split = 32

[faults.delay]
at = "4s"
until = "5s"
extra = "40ms"

[mobility]
split = 16
period = "2s"

[mobility.seg0]
at = "0s"
extra = "15ms"
disconnected = false

[mobility.seg1]
at = "1200ms"
extra = "0s"
disconnected = true

[mobility.seg2]
at = "1900250us"
extra = "750us"
disconnected = false

[membership]

[telemetry]
window = "250ms"
load_hi = 128.0
load_buckets = 128
latency_hi_ms = 400.5
latency_buckets = 80

[profile]
trace = "traces/TRACE_kitchen-sink.json"

[trace]
sample_rate = 0.25
salt = 18446744073709551615
export = "traces/kitchen-sink.events.json"
"#;

const FIXED_CONSTANT: &str = r#"[scenario]
arch = "scribe"
nodes = 64
seed = 7
shards = 1
placement = "round-robin"

[topics]
count = 20
zipf_s = 1.0

[interest]
appetite = "fixed"
topics_per_node = 3

[publish]
rate_per_sec = 20.0
duration = "20s"
warmup = "2s"
topic_zipf_s = 1.0
payload_bytes = 64

[network]
latency = "constant"
delay = "10ms"

[profile]

[trace]
sample_rate = 1.0
salt = 0
"#;

const UNIFORM_UNIFORM: &str = r#"[scenario]
arch = "dks"
nodes = 5000
seed = 18446744073709551615
shards = 8
placement = "round-robin"

[topics]
count = 20
zipf_s = 1.0

[interest]
appetite = "uniform"
lo = 1
hi = 4

[publish]
rate_per_sec = 20.0
duration = "20s"
warmup = "2s"
topic_zipf_s = 1.0
payload_bytes = 64

[network]
latency = "uniform"
lo = "500us"
hi = "20ms"

[mobility]
split = 4

[mobility.seg0]
at = "3s"
extra = "0s"
disconnected = true
"#;

#[test]
fn to_toml_output_is_byte_identical_to_the_hand_written_serializer() {
    for (name, spec, golden) in [
        ("kitchen sink", kitchen_sink(), KITCHEN_SINK),
        ("fixed x constant", fixed_constant(), FIXED_CONSTANT),
        ("uniform x uniform", uniform_uniform(), UNIFORM_UNIFORM),
    ] {
        assert_eq!(to_toml(&spec).unwrap(), golden, "{name}");
        assert_eq!(spec_from_toml(golden).unwrap(), spec, "{name}");
    }
}

/// `to_toml ∘ parse_scenario` of every library scenario and benchmark
/// workload is byte-identical to its text in `tests/data/to_toml/`,
/// captured from the serializer whose rows did not bind fields yet; and
/// every captured text still has its file.
#[test]
fn library_files_serialize_to_their_captured_text() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let captured = root.join("tests/data/to_toml");
    let mut checked = 0;
    for dir in ["scenarios", "fedbench/workloads"] {
        let dir = root.join("../..").join(dir);
        for entry in fs::read_dir(&dir).expect("the library directory is listable") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_none_or(|ext| ext != "toml") {
                continue;
            }
            let name = path.file_name().expect("a file name");
            let text = fs::read_to_string(&path).expect("library file is readable");
            let spec = parse_scenario(&text).expect("library file parses").spec;
            let golden = fs::read_to_string(captured.join(name))
                .unwrap_or_else(|e| panic!("no captured text for {}: {e}", path.display()));
            assert_eq!(to_toml(&spec).unwrap(), golden, "{}", path.display());
            checked += 1;
        }
    }
    let captured = fs::read_dir(&captured).expect("tests/data/to_toml is listable");
    assert_eq!(
        checked,
        captured.count(),
        "a captured text lost its library file"
    );
}
