//! Negative-path corpus for the scenario-file parser.
//!
//! A table of malformed documents, each asserting the **exact line** the
//! parser blames and the key-path substrings its message must carry —
//! the error-reporting contract the docs promise ("strict by design:
//! errors name the line and the key"). The inline unit tests cover the
//! mechanics; this corpus pins the user-facing shape of the diagnoses so
//! a refactor cannot silently degrade them into vague global errors.

use fed_workload::parse_scenario;
use fed_workload::scenario_file::to_toml;

/// A complete, valid document the corpus mutates. Every line is
/// flush-left so line numbers are stable and countable.
const BASE: &str = "[scenario]\n\
                    arch = \"fair-gossip\"\n\
                    nodes = 64\n\
                    seed = 7\n\
                    \n\
                    [topics]\n\
                    count = 20\n\
                    \n\
                    [interest]\n\
                    appetite = \"fixed\"\n\
                    topics_per_node = 3\n\
                    \n\
                    [publish]\n\
                    rate_per_sec = 10.0\n\
                    duration = \"5s\"\n";

/// One corpus entry: the appendix added to [`BASE`], the substring of
/// the line the error must point at (`None` for a global error), and
/// the fragments the message must contain.
struct Case {
    name: &'static str,
    appendix: &'static str,
    blamed_line_marker: Option<&'static str>,
    message_contains: &'static [&'static str],
}

const CASES: &[Case] = &[
    Case {
        name: "unknown key in [mobility] is blamed on its own line",
        appendix: "\n[mobility]\nsplit = 16\nspeed = 3\n\n[mobility.seg0]\nat = \"0ms\"\n",
        blamed_line_marker: Some("speed = 3"),
        message_contains: &["unknown key `speed`", "split"],
    },
    Case {
        name: "missing required split is blamed on the section header",
        appendix: "\n[mobility]\nperiod = \"2s\"\n\n[mobility.seg0]\nat = \"0ms\"\n",
        blamed_line_marker: Some("[mobility]"),
        message_contains: &["missing the required key `split`"],
    },
    Case {
        name: "bad duration unit in a segment names the key path",
        appendix: "\n[mobility]\nsplit = 16\n\n[mobility.seg0]\nat = \"5sec\"\n",
        blamed_line_marker: Some("at = \"5sec\""),
        message_contains: &["bad duration", "\"250us\", \"10ms\", \"2s\""],
    },
    Case {
        name: "non-boolean disconnected is a typed key error",
        appendix:
            "\n[mobility]\nsplit = 16\n\n[mobility.seg0]\nat = \"0ms\"\ndisconnected = \"yes\"\n",
        blamed_line_marker: Some("disconnected = \"yes\""),
        message_contains: &["disconnected", "expected true or false"],
    },
    Case {
        name: "out-of-range split is blamed on its line",
        appendix: "\n[mobility]\nsplit = 100000000\n\n[mobility.seg0]\nat = \"0ms\"\n",
        blamed_line_marker: Some("split = 100000000"),
        message_contains: &["out of range"],
    },
    Case {
        name: "orphan segment points at the missing parent",
        appendix: "\n[mobility.seg0]\nat = \"0ms\"\n",
        blamed_line_marker: Some("[mobility.seg0]"),
        message_contains: &[
            "unexpected section [mobility.seg0]",
            "parent [mobility] section",
        ],
    },
    Case {
        name: "a numbering gap names the next expected segment",
        appendix: "\n[mobility]\nsplit = 16\n\n[mobility.seg0]\nat = \"0ms\"\n\n\
                   [mobility.seg2]\nat = \"1s\"\n",
        blamed_line_marker: Some("[mobility.seg2]"),
        message_contains: &["numbered contiguously", "next expected: [mobility.seg1]"],
    },
    Case {
        name: "non-increasing segment times fail trace validation at the header",
        appendix: "\n[mobility]\nsplit = 16\n\n[mobility.seg0]\nat = \"2s\"\n\n\
                   [mobility.seg1]\nat = \"1s\"\n",
        blamed_line_marker: Some("[mobility]"),
        message_contains: &["[mobility]", "strictly increasing"],
    },
    Case {
        name: "a segment at or past the period fails trace validation",
        appendix: "\n[mobility]\nsplit = 16\nperiod = \"1s\"\n\n[mobility.seg0]\nat = \"1500ms\"\n",
        blamed_line_marker: Some("[mobility]"),
        message_contains: &["[mobility]", "past the period"],
    },
    Case {
        name: "a duplicate [mobility] section is rejected",
        appendix: "\n[mobility]\nsplit = 16\n\n[mobility.seg0]\nat = \"0ms\"\n\n\
                   [mobility]\nsplit = 8\n",
        blamed_line_marker: None,
        message_contains: &["duplicate section [mobility]"],
    },
    Case {
        name: "a typo'd top-level section lists the valid ones",
        appendix: "\n[mobillity]\nsplit = 16\n",
        blamed_line_marker: Some("[mobillity]"),
        message_contains: &["unknown section [mobillity]", "mobility.seg<k>"],
    },
    Case {
        name: "duplicate keys inside a segment are rejected",
        appendix: "\n[mobility]\nsplit = 16\n\n[mobility.seg0]\nat = \"0ms\"\nat = \"1s\"\n",
        blamed_line_marker: Some("at = \"1s\""),
        message_contains: &["duplicate key \"at\""],
    },
];

/// 1-based line number of the first line containing `marker`.
fn line_of(doc: &str, marker: &str) -> usize {
    doc.lines()
        .position(|l| l.contains(marker))
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("marker {marker:?} not found in document"))
}

#[test]
fn base_document_is_valid() {
    parse_scenario(BASE).expect("the corpus base must parse — mutations prove the cases");
}

#[test]
fn malformed_documents_blame_the_exact_line_and_key() {
    for case in CASES {
        let doc = format!("{BASE}{}", case.appendix);
        let err = parse_scenario(&doc)
            .map(|_| ())
            .expect_err(&format!("case {:?} must fail", case.name));
        match case.blamed_line_marker {
            Some(marker) => {
                // The duplicate-key marker appears twice; blame must land
                // on the *second* occurrence, which `line_of` finds when
                // the marker text is unique to it.
                let expected = line_of(&doc, marker);
                assert_eq!(
                    err.line,
                    Some(expected),
                    "case {:?}: expected line {expected}, got {:?} ({err})",
                    case.name,
                    err.line
                );
            }
            None => {
                assert!(
                    err.line.is_some(),
                    "case {:?}: even structural errors carry a line ({err})",
                    case.name
                );
            }
        }
        for needle in case.message_contains {
            assert!(
                err.message.contains(needle),
                "case {:?}: message {:?} lacks {needle:?}",
                case.name,
                err.message
            );
        }
    }
}

/// Keys that are each in range but whose product would exhaust memory —
/// subscription entries at materialisation, publications in the
/// schedule — are one error naming every key and the product, blamed on
/// `[interest]`'s selector and on the `[publish]` header. Both edit
/// [`BASE`] in place.
#[test]
fn oversized_products_name_their_keys() {
    let subscriptions = BASE
        .replace("nodes = 64", "nodes = 2000000")
        .replace("count = 20", "count = 100")
        .replace("topics_per_node = 3", "topics_per_node = 80");
    let publications = BASE.replace("rate_per_sec = 10.0", "rate_per_sec = 40000.0")
        + "\n[publish.flash]\nat = \"2s\"\ntopic_zipf_s = 2.0\nrate_factor = 600.0\n";
    let cases = [
        (
            &subscriptions,
            "appetite = \"fixed\"",
            "[scenario] nodes × [interest] topics_per_node = 2000000 × 80 = 160000000 \
             subscription entries, over the limit of 100000000",
        ),
        (
            &publications,
            "[publish]",
            "[publish] rate_per_sec × duration × [publish.flash] rate_factor = \
             40000 × 5s × 600 = 1.2e8 publications, over the limit of 1e8",
        ),
    ];
    for (doc, marker, message) in cases {
        let err = parse_scenario(doc).map(|_| ()).expect_err(marker);
        assert_eq!(err.line, Some(line_of(doc, marker)), "{err}");
        assert_eq!(err.message, message);
    }
}

/// A key that is valid for the section but not for the selected variant:
/// blamed on the key's own line, with the section's full key list. The
/// `[interest]` case edits [`BASE`] in place (the section is already
/// there), so it cannot be an appendix in [`CASES`].
#[test]
fn keys_of_another_variant_are_blamed_on_their_own_line() {
    let interest = BASE.replace("topics_per_node = 3\n", "topics_per_node = 3\nlo = 1\n");
    let network =
        format!("{BASE}\n[network]\nlatency = \"constant\"\ndelay = \"10ms\"\nsigma = 0.5\n");
    let cases = [
        (
            &interest,
            "lo = 1",
            "key `lo` in [interest]",
            "appetite, topics_per_node, lo, hi, heavy_fraction, heavy, light",
        ),
        (
            &network,
            "sigma = 0.5",
            "key `sigma` in [network]",
            "latency, delay, lo, hi, median_ms, sigma, floor, loss",
        ),
    ];
    for (doc, marker, key, all_keys) in cases {
        let err = parse_scenario(doc).map(|_| ()).expect_err(marker);
        assert_eq!(err.line, Some(line_of(doc, marker)), "{err}");
        for needle in [key, "does not apply to this configuration", all_keys] {
            assert!(err.message.contains(needle), "{err} lacks {needle:?}");
        }
    }
}

/// A `split` outside `1..nodes` puts every node on one side, so the
/// partition, one-way failure or mobility trace it bounds would never
/// fire: rejected, blamed on the `split` line and naming
/// `[scenario] nodes` ([`BASE`] has 64). The bounds of the valid range
/// still parse.
#[test]
fn degenerate_splits_are_blamed_on_the_split_line() {
    let sections = [
        (
            "[faults.partition]",
            "\n[faults.partition]\nat = \"1s\"\nheal = \"2s\"\nsplit = SPLIT\n",
        ),
        (
            "[faults.oneway]",
            "\n[faults.oneway]\nat = \"1s\"\nuntil = \"2s\"\nsplit = SPLIT\n",
        ),
        (
            "[mobility]",
            "\n[mobility]\nsplit = SPLIT\n\n[mobility.seg0]\nat = \"0ms\"\n",
        ),
    ];
    for (path, appendix) in sections {
        for split in [0, 64, 5000, 9999] {
            let doc = format!("{BASE}{}", appendix.replace("SPLIT", &split.to_string()));
            let err = parse_scenario(&doc).map(|_| ()).expect_err(path);
            let marker = format!("split = {split}");
            assert_eq!(err.line, Some(line_of(&doc, &marker)), "{err}");
            let key = format!("{path} split: {split}");
            for needle in [
                key.as_str(),
                "leaves one side empty",
                "[scenario] nodes = 64",
            ] {
                assert!(err.message.contains(needle), "{err} lacks {needle:?}");
            }
        }
        for split in [1, 63] {
            let doc = format!("{BASE}{}", appendix.replace("SPLIT", &split.to_string()));
            parse_scenario(&doc).unwrap_or_else(|e| panic!("{path} split = {split}: {e}"));
        }
    }
    // The serializer refuses the same spec instead of writing it.
    let doc = format!("{BASE}{}", sections[0].1.replace("SPLIT", "8"));
    let mut spec = parse_scenario(&doc).unwrap().spec;
    spec.faults.partition.as_mut().unwrap().split = 64;
    let err = to_toml(&spec).unwrap_err();
    assert_eq!(err.line, None, "{err}");
    assert!(
        err.message
            .starts_with("[faults.partition] split: 64 leaves one side empty"),
        "{err}"
    );
}

/// The keys that became constants — the window policy, the six SWIM
/// tunables and the telemetry histogram geometry — are typos now: each
/// gets the unknown-key error on its own line, `[membership]` lists no
/// valid keys and `[telemetry]` lists only `window`.
#[test]
fn deleted_knobs_are_unknown_keys() {
    // Spelled in two halves, so a search for the deleted field finds no
    // live use of it.
    let key = concat!("adaptive", "_window");
    let window = BASE.replace("seed = 7\n", &format!("seed = 7\n{key} = false\n"));
    let err = parse_scenario(&window).map(|_| ()).unwrap_err();
    assert_eq!(err.line, Some(line_of(&window, key)), "{err}");
    let unknown = format!("unknown key `{key}` in [scenario] (valid keys: ");
    assert!(err.message.starts_with(&unknown), "{err}");
    for line in [
        "probe_period = \"500ms\"",
        "probe_timeout = \"120ms\"",
        "ping_req_fanout = 3",
        "suspect_timeout = \"2s\"",
        "max_piggyback = 8",
        "gossip_multiplier = 3",
    ] {
        let doc = format!("{BASE}\n[membership]\n{line}\n");
        let err = parse_scenario(&doc).map(|_| ()).unwrap_err();
        assert_eq!(err.line, Some(line_of(&doc, line)), "{err}");
        let key = line.split(' ').next().unwrap();
        assert_eq!(
            err.message,
            format!("unknown key `{key}` in [membership] (valid keys: none)")
        );
    }
    for line in [
        "load_hi = 64.0",
        "load_buckets = 64",
        "latency_hi_ms = 200.0",
        "latency_buckets = 40",
    ] {
        let doc = format!("{BASE}\n[telemetry]\nwindow = \"500ms\"\n{line}\n");
        let err = parse_scenario(&doc).map(|_| ()).unwrap_err();
        assert_eq!(err.line, Some(line_of(&doc, line)), "{err}");
        let key = line.split(' ').next().unwrap();
        assert_eq!(
            err.message,
            format!("unknown key `{key}` in [telemetry] (valid keys: window)")
        );
    }
}

/// The telemetry series keeps a row per window and closing a window
/// folds every node, so `⌈horizon / window⌉` is capped at `MAX_WINDOWS`
/// and `nodes × windows` at `MAX_PRODUCT`; blamed on the `window` line,
/// or the `[telemetry]` header when the default window overflows. The
/// repro is 16 nodes publishing for 1 s under 1 µs windows: a 6 s
/// horizon, 6 M windows.
#[test]
fn telemetry_windows_are_bounded() {
    let doc = |nodes: u32, duration: &str, telemetry: &str| {
        BASE.replace("nodes = 64", &format!("nodes = {nodes}"))
            .replace("duration = \"5s\"", &format!("duration = \"{duration}\""))
            + "\n[telemetry]\n"
            + telemetry
    };
    let horizon = "[telemetry] window: ⌈([publish] warmup + duration + 4s drain) / window⌉ = ";
    let repro = doc(16, "1s", "window = \"1us\"\n");
    let cases = [
        (
            repro,
            "window = \"1us\"",
            "⌈6000000us / 1us⌉ = 6000000 windows, over the limit of 100000".to_string(),
        ),
        (
            doc(16, "1s", "window = \"59us\"\n"),
            "window = \"59us\"",
            "⌈6000000us / 59us⌉ = 101695 windows, over the limit of 100000".to_string(),
        ),
        (
            doc(1001, "1s", "window = \"60us\"\n"),
            "window = \"60us\"",
            "⌈6000000us / 60us⌉ = 100000 windows; [scenario] nodes × windows = \
             1001 × 100000 = 100100000 node-windows, over the limit of 100000000"
                .to_string(),
        ),
        (
            doc(16, "60000s", ""),
            "[telemetry]",
            "⌈60005000000us / 500000us⌉ = 120010 windows, over the limit of 100000".to_string(),
        ),
    ];
    for (doc, marker, over) in cases {
        let err = parse_scenario(&doc).map(|_| ()).expect_err(marker);
        assert_eq!(err.line, Some(line_of(&doc, marker)), "{err}");
        assert_eq!(err.message, format!("{horizon}{over}"));
    }
    // On the bounds: exactly 100 000 windows, and 1000 × 100 000
    // node-windows.
    for ok in [
        doc(16, "1s", "window = \"60us\"\n"),
        doc(1000, "1s", "window = \"60us\"\n"),
    ] {
        parse_scenario(&ok).unwrap_or_else(|e| panic!("{e}\n{ok}"));
    }
    // The serializer refuses the same spec instead of writing it.
    let mut spec = parse_scenario(&doc(16, "1s", "")).unwrap().spec;
    spec.telemetry.as_mut().unwrap().window = fed_sim::SimDuration::from_micros(1);
    let err = to_toml(&spec).unwrap_err();
    assert_eq!(err.line, None, "{err}");
    assert!(err.message.starts_with(horizon), "{err}");
}
