//! Property tests for the declarative scenario-file format.
//!
//! The contract under test: serialization is the *exact* inverse of
//! parsing — `parse(to_toml(spec)) == spec` for every representable
//! [`ScenarioSpec`] — plus strict rejection of malformed files (unknown
//! keys, bad duration units, out-of-range values), and a serializer that
//! refuses what the parser would refuse instead of writing it.

use fed_profile::ProfileSpec;
use fed_sim::network::{
    DelayFault, FaultSchedule, LatencyModel, MobilitySegment, MobilityTrace, NetworkModel,
    OnewayFault, PartitionFault,
};
use fed_sim::{SimDuration, SimTime};
use fed_telemetry::TelemetrySpec;
use fed_trace::TraceSpec;
use fed_workload::scenario_file::{
    parse_scenario, spec_from_toml, to_toml, MAX_PRODUCT, MAX_WINDOWS,
};
use fed_workload::{
    Appetite, Architecture, ChurnPlan, FlashCrowd, Placement, PubPlan, ScenarioSpec,
};
use proptest::prelude::*;

/// A float with a non-trivial decimal expansion, exercising the
/// shortest-round-trip emitter.
fn fractional(numerator: u32, denominator: u32) -> f64 {
    numerator as f64 / denominator as f64
}

fn arch_strategy() -> impl Strategy<Value = Architecture> {
    (0..Architecture::ALL.len()).prop_map(|i| Architecture::ALL[i])
}

fn placement_strategy() -> impl Strategy<Value = Placement> {
    (0..Placement::ALL.len()).prop_map(|i| Placement::ALL[i])
}

fn appetite_strategy() -> impl Strategy<Value = Appetite> {
    prop_oneof![
        (0usize..=40).prop_map(Appetite::Fixed),
        (0usize..=10, 0usize..=30).prop_map(|(lo, extra)| Appetite::Uniform { lo, hi: lo + extra }),
        (1u32..=1000, 0usize..=40, 0usize..=8).prop_map(|(num, heavy, light)| {
            Appetite::Bimodal {
                heavy_fraction: fractional(num, 1000),
                heavy,
                light,
            }
        }),
    ]
}

fn latency_strategy() -> impl Strategy<Value = LatencyModel> {
    prop_oneof![
        any::<u64>().prop_map(|us| LatencyModel::Constant(SimDuration::from_micros(us))),
        (any::<u64>(), any::<u64>()).prop_map(|(a, b)| LatencyModel::Uniform {
            lo: SimDuration::from_micros(a.min(b)),
            hi: SimDuration::from_micros(a.max(b)),
        }),
        (1u32..=100_000, 0u32..=3000, 0u64..=50_000).prop_map(|(median, sigma, floor)| {
            LatencyModel::LogNormalMs {
                median_ms: fractional(median, 100),
                sigma: fractional(sigma, 1000),
                floor: SimDuration::from_micros(floor),
            }
        }),
    ]
}

fn flash_strategy() -> impl Strategy<Value = Option<FlashCrowd>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), 0u32..=5000, 1u32..=20_000).prop_map(|(at, zipf, rate)| {
            Some(FlashCrowd {
                at: SimTime::from_micros(at),
                topic_zipf_s: fractional(zipf, 1000),
                rate_factor: fractional(rate, 1000),
            })
        }),
    ]
}

fn churn_strategy() -> impl Strategy<Value = Option<ChurnPlan>> {
    prop_oneof![
        Just(None),
        (
            1u32..=100_000,
            1u32..=100_000,
            0u32..=1000,
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(session, down, frac, duration, warmup)| {
                Some(ChurnPlan {
                    mean_session_secs: fractional(session, 100),
                    mean_downtime_secs: fractional(down, 100),
                    churning_fraction: fractional(frac, 1000),
                    duration: SimTime::from_micros(duration),
                    warmup: SimTime::from_micros(warmup),
                })
            }),
    ]
}

fn telemetry_strategy() -> impl Strategy<Value = Option<TelemetrySpec>> {
    prop_oneof![
        Just(None),
        (1u64..=10_000_000).prop_map(|window| Some(TelemetrySpec {
            window: SimDuration::from_micros(window),
        })),
    ]
}

/// File paths as users write them: backslashes, quotes, spaces and
/// tabs included — everything the serializer must escape. The first
/// character is never blank, because an all-blank path is not a valid
/// spec (`ProfileSpec::checked` / `TraceSpec::checked` reject it).
const PATH: &str = "[A-Za-z0-9_./\\\\\"-][A-Za-z0-9_./\\\\ \"\t-]{0,39}";

fn profile_strategy() -> impl Strategy<Value = Option<ProfileSpec>> {
    prop_oneof![
        Just(None),
        Just(Some(ProfileSpec::default())),
        PATH.prop_map(|path| Some(ProfileSpec { trace: Some(path) })),
    ]
}

fn trace_strategy() -> impl Strategy<Value = Option<TraceSpec>> {
    prop_oneof![
        Just(None),
        Just(Some(TraceSpec::default())),
        (0u32..=1000, any::<u64>()).prop_map(|(rate, salt)| {
            Some(TraceSpec {
                sample_rate: fractional(rate, 1000),
                salt,
                export: None,
            })
        }),
        (0u32..=1000, any::<u64>(), PATH).prop_map(|(rate, salt, path)| {
            Some(TraceSpec {
                sample_rate: fractional(rate, 1000),
                salt,
                export: Some(path),
            })
        }),
    ]
}

fn faults_strategy() -> impl Strategy<Value = FaultSchedule> {
    // Fault windows must satisfy `at < heal`/`at < until` — the parser
    // rejects degenerate windows, so the round-trip property quantifies
    // over valid ones. A split is drawn raw and folded into `1..n` by
    // `spec_strategy`, which knows `n`.
    let partition = prop_oneof![
        Just(None),
        (0u64..=1_000_000_000, 1u64..=1_000_000_000, any::<u32>()).prop_map(|(at, len, split)| {
            Some(PartitionFault {
                at: SimTime::from_micros(at),
                heal: SimTime::from_micros(at + len),
                split,
            })
        }),
    ];
    let oneway = prop_oneof![
        Just(None),
        (0u64..=1_000_000_000, 1u64..=1_000_000_000, any::<u32>()).prop_map(|(at, len, split)| {
            Some(OnewayFault {
                at: SimTime::from_micros(at),
                until: SimTime::from_micros(at + len),
                split,
            })
        }),
    ];
    let delay = prop_oneof![
        Just(None),
        (
            0u64..=1_000_000_000,
            1u64..=1_000_000_000,
            0u64..=10_000_000
        )
            .prop_map(|(at, len, extra)| {
                Some(DelayFault {
                    at: SimTime::from_micros(at),
                    until: SimTime::from_micros(at + len),
                    extra: SimDuration::from_micros(extra),
                })
            }),
    ];
    (partition, oneway, delay).prop_map(|(partition, oneway, delay)| FaultSchedule {
        partition,
        oneway,
        delay,
    })
}

fn mobility_strategy() -> impl Strategy<Value = Option<MobilityTrace>> {
    // Segment instants must be strictly increasing and, for periodic
    // traces, stay below the period — the parser rejects anything else,
    // so the round-trip property quantifies over valid traces. Strictly
    // increasing positive gaps make the instants a strictly increasing
    // prefix-sum; a period is one more gap past the last segment. The
    // split is drawn raw and folded into `1..n` by `spec_strategy`.
    let segments =
        proptest::collection::vec((1u64..=1_000_000, 0u64..=100_000, any::<bool>()), 1..6);
    prop_oneof![
        Just(None),
        (
            any::<u32>(),
            segments,
            any::<bool>(),
            0u64..=100_000,
            any::<bool>()
        )
            .prop_map(|(split, raw, periodic, slack, first_at_zero)| {
                let mut at = 0u64;
                let mut segs = Vec::new();
                for (i, (gap, extra, disconnected)) in raw.into_iter().enumerate() {
                    at += if i == 0 && first_at_zero { 0 } else { gap };
                    segs.push(MobilitySegment {
                        at: SimTime::from_micros(at),
                        extra: SimDuration::from_micros(extra),
                        disconnected,
                    });
                }
                let period = periodic.then(|| SimDuration::from_micros(at + 1 + slack));
                Some(MobilityTrace {
                    split,
                    period,
                    segments: segs,
                })
            }),
    ]
}

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    let head = (
        arch_strategy(),
        1usize..=100_000,
        1usize..=512,
        placement_strategy(),
        1usize..=10_000,
        0u32..=4000,
        appetite_strategy(),
    );
    // Publication warmup + duration must not overflow the u64 µs
    // horizon arithmetic, and rate × duration × flash factor must stay
    // within `MAX_PRODUCT` publications — the parser rejects such files,
    // so the round-trip property quantifies over valid phases: warmups up
    // to ≈31.7 years, durations up to 5 000 s at up to 1 000 events/s
    // and a flash factor up to 20.
    let plan = (
        1u32..=1_000_000,
        0u64..=5_000_000_000,
        0u32..=4000,
        0usize..=65_536,
        0u64..=1_000_000_000_000_000,
        flash_strategy(),
    );
    let tail = (
        churn_strategy(),
        telemetry_strategy(),
        profile_strategy(),
        latency_strategy(),
        0u32..=999_999u32,
        any::<u64>(),
    );
    let robust = (
        faults_strategy(),
        any::<bool>(),
        trace_strategy(),
        mobility_strategy(),
    );
    let specs = (head, plan, tail, robust).prop_map(
        |(
            (arch, n, shards, placement, num_topics, zipf, appetite),
            (rate, duration, topic_zipf, payload_bytes, warmup, flash),
            (churn, mut telemetry, profile, latency, loss, seed),
            (mut faults, membership, trace, mut mobility),
        )| {
            // A split must leave a node on each side: fold the raw draws
            // into `1..n` (an `n = 1` population has no valid split and
            // is filtered out below).
            let side = |raw: u32| 1 + raw % (n as u32 - 1).max(1);
            if let Some(f) = &mut faults.partition {
                f.split = side(f.split);
            }
            if let Some(f) = &mut faults.oneway {
                f.split = side(f.split);
            }
            if let Some(m) = &mut mobility {
                m.split = side(m.split);
            }
            // At most `MAX_WINDOWS` telemetry windows over the horizon
            // and `MAX_PRODUCT` node-windows: widen a window drawn too
            // narrow for the phases.
            if let Some(t) = &mut telemetry {
                let horizon = warmup + duration + fed_workload::scenario::DRAIN.as_micros();
                let cap = MAX_WINDOWS.min(MAX_PRODUCT / n as u64);
                t.window = t
                    .window
                    .max(SimDuration::from_micros(horizon.div_ceil(cap)));
            }
            let loss = fractional(loss, 1_000_000);
            let net = if loss > 0.0 {
                NetworkModel::lossy(latency, loss)
            } else {
                NetworkModel::reliable(latency)
            };
            ScenarioSpec {
                arch,
                n,
                shards,
                placement,
                num_topics,
                zipf_s: fractional(zipf, 1000),
                appetite,
                plan: PubPlan {
                    rate_per_sec: fractional(rate, 1000),
                    duration: SimTime::from_micros(duration),
                    topic_zipf_s: fractional(topic_zipf, 1000),
                    payload_bytes,
                    warmup: SimTime::from_micros(warmup),
                    flash,
                },
                churn,
                telemetry,
                profile,
                trace,
                net,
                membership,
                faults,
                mobility,
                seed,
            }
        },
    );
    specs.prop_filter("a split needs a node on each side", |s| {
        let f = &s.faults;
        s.n > 1 || (f.partition.is_none() && f.oneway.is_none() && s.mobility.is_none())
    })
}

/// One way a spec built in code can leave the grammar: a value out of
/// its key's range, a non-finite float, a cross-field rule broken, a
/// string the format cannot carry. `how >= SPOILERS` leaves it alone.
fn spoil(spec: &mut ScenarioSpec, how: usize) {
    let ms = SimDuration::from_millis;
    match how {
        0 => spec.shards = 600,
        1 => spec.shards = 0,
        2 => spec.n = 0,
        3 => spec.num_topics = 0,
        4 => spec.zipf_s = f64::NAN,
        5 => spec.zipf_s = -0.5,
        6 => spec.plan.rate_per_sec = -1.0,
        7 => spec.plan.rate_per_sec = f64::INFINITY,
        8 => spec.plan.topic_zipf_s = f64::NEG_INFINITY,
        9 => spec.plan.payload_bytes = (1 << 20) + 1,
        10 => spec.plan.duration = SimTime::from_micros(u64::MAX),
        11 => spec.appetite = Appetite::Uniform { lo: 9, hi: 3 },
        12 => {
            spec.appetite = Appetite::Bimodal {
                heavy_fraction: 1.25,
                heavy: 4,
                light: 1,
            }
        }
        13 => spec.appetite = Appetite::Fixed(2_000_000),
        14 => {
            spec.net = NetworkModel::reliable(LatencyModel::Uniform {
                lo: ms(30),
                hi: ms(10),
            })
        }
        15 => spec.net = NetworkModel::lossy(spec.net.latency_model().clone(), f64::NAN),
        16 => {
            spec.net = NetworkModel::reliable(LatencyModel::LogNormalMs {
                median_ms: 0.0,
                sigma: 0.5,
                floor: SimDuration::ZERO,
            })
        }
        17 => {
            spec.faults.partition = Some(PartitionFault {
                at: SimTime::from_secs(4),
                heal: SimTime::from_secs(4),
                split: 8,
            })
        }
        18 => {
            spec.faults.oneway = Some(OnewayFault {
                at: SimTime::from_secs(1),
                until: SimTime::from_secs(2),
                split: 20_000_000,
            })
        }
        // A horizon of at least 4 s is over 100 000 windows of 1 µs…
        19 => {
            spec.telemetry = Some(TelemetrySpec {
                window: SimDuration::from_micros(1),
            })
        }
        // …and over 10⁸ node-windows of 1 ms at 100 000 nodes.
        20 => {
            spec.n = 100_000;
            spec.telemetry = Some(TelemetrySpec { window: ms(1) })
        }
        21 => {
            spec.trace = Some(TraceSpec {
                sample_rate: 2.0,
                ..TraceSpec::default()
            })
        }
        22 => {
            spec.profile = Some(ProfileSpec {
                trace: Some("bell\u{7}.json".to_string()),
            })
        }
        23 => {
            spec.profile = Some(ProfileSpec {
                trace: Some(" \t".to_string()),
            })
        }
        24 => {
            spec.churn = Some(ChurnPlan {
                churning_fraction: f64::NAN,
                ..ChurnPlan::default()
            })
        }
        25 => {
            spec.plan.flash = Some(FlashCrowd {
                at: SimTime::from_secs(1),
                topic_zipf_s: 2.0,
                rate_factor: 0.0,
            })
        }
        26 => {
            spec.mobility = Some(MobilityTrace {
                split: 4,
                period: Some(SimDuration::from_secs(1)),
                segments: vec![MobilitySegment {
                    at: SimTime::from_secs(1),
                    extra: SimDuration::ZERO,
                    disconnected: true,
                }],
            })
        }
        // Past the last spoiler the spec stays as it is.
        _ => {}
    }
}

/// How many arms of [`spoil`] spoil.
const SPOILERS: usize = 27;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The serializer never emits text the parser rejects or reads
    /// differently: whenever `to_toml` is `Ok`, the text parses back to
    /// the very spec — also for specs spoiled with out-of-range values,
    /// which must come out as `Err` naming a `[section]`.
    #[test]
    fn whatever_to_toml_accepts_parses_back(
        spec in spec_strategy(),
        first in 0..2 * SPOILERS,
        second in 0..2 * SPOILERS,
    ) {
        let mut spoiled = spec;
        spoil(&mut spoiled, first);
        spoil(&mut spoiled, second);
        match to_toml(&spoiled) {
            Ok(toml) => prop_assert_eq!(spec_from_toml(&toml), Ok(spoiled), "{}", toml),
            Err(e) => prop_assert!(e.line.is_none() && e.message.starts_with('['), "{}", e),
        }
    }

    /// `parse ∘ to_toml` is the identity on every representable spec —
    /// architectures, placements, all three appetites and latency
    /// models, optional flash/churn/telemetry, durations up to the
    /// publication bound, arbitrary u64 warmups and seeds, fractional
    /// floats.
    #[test]
    fn spec_to_toml_round_trips_exactly(spec in spec_strategy()) {
        let toml = to_toml(&spec).expect("unpartitioned specs always serialize");
        let reparsed = spec_from_toml(&toml)
            .unwrap_or_else(|e| panic!("serialized spec failed to parse: {e}\n{toml}"));
        prop_assert_eq!(&reparsed, &spec, "round trip diverged for:\n{}", toml);
        // Serialization is deterministic, so a second trip is too.
        prop_assert_eq!(to_toml(&reparsed).unwrap(), toml);
    }

    /// Injecting an unknown key anywhere in a serialized spec makes the
    /// parse fail with a message naming that key.
    #[test]
    fn unknown_keys_are_rejected(spec in spec_strategy(), section_idx in 0usize..9) {
        let toml = to_toml(&spec).unwrap();
        // Insert a bogus key right after the (section_idx % sections)-th
        // section header.
        let headers: Vec<usize> = toml
            .lines()
            .enumerate()
            .filter(|(_, l)| l.starts_with('['))
            .map(|(i, _)| i)
            .collect();
        let target = headers[section_idx % headers.len()];
        let mut lines: Vec<&str> = toml.lines().collect();
        lines.insert(target + 1, "definitely_not_a_knob = 1");
        let mangled = lines.join("\n");
        let err = parse_scenario(&mangled).expect_err("unknown key must be rejected");
        prop_assert!(
            err.message.contains("definitely_not_a_knob"),
            "error does not name the key: {}",
            err
        );
    }
}

/// Malformed-file rejections with fixed, human-auditable inputs.
mod malformed {
    use super::*;

    fn base() -> String {
        to_toml(&ScenarioSpec::fair_gossip(64, 7)).unwrap()
    }

    #[test]
    fn unknown_key_is_rejected() {
        let input = base().replace("nodes = 64", "nodes = 64\nnode_count = 64");
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.message.contains("unknown key `node_count`"), "{err}");
        assert!(err.line.is_some());
    }

    #[test]
    fn bad_duration_unit_is_rejected() {
        let input = base().replace("duration = \"20s\"", "duration = \"20sec\"");
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.message.contains("bad duration"), "{err}");
        assert!(err.message.contains("20sec"), "{err}");
    }

    #[test]
    fn out_of_range_shard_count_is_rejected() {
        for bad in ["shards = 0", "shards = 513", "shards = -3"] {
            let input = base().replace("shards = 1", bad);
            let err = parse_scenario(&input).unwrap_err();
            assert!(err.message.contains("out of range"), "{bad}: {err}");
        }
    }

    #[test]
    fn negative_rate_is_rejected() {
        let input = base().replace("rate_per_sec = 20", "rate_per_sec = -20");
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.message.contains("strictly positive"), "{err}");
    }

    #[test]
    fn horizon_overflowing_duration_is_rejected() {
        let input = base().replace(
            "duration = \"20s\"",
            "duration = \"18446744073709551615us\"",
        );
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.message.contains("overflows"), "{err}");
        // A huge-but-safe duration still parses at a rate that keeps the
        // publication count within bounds.
        let input = base()
            .replace("duration = \"20s\"", "duration = \"1000000000s\"")
            .replace("rate_per_sec = 20.0", "rate_per_sec = 0.05");
        assert!(parse_scenario(&input).is_ok());
    }

    #[test]
    fn missing_required_section_is_rejected() {
        let full = base();
        let without: String = full
            .lines()
            .skip_while(|l| !l.starts_with("[topics]"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = parse_scenario(&without).unwrap_err();
        assert!(err.message.contains("[scenario]"), "{err}");
    }
}
