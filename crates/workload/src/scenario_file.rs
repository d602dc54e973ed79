//! Declarative scenario files: a TOML format for [`ScenarioSpec`].
//!
//! Scenarios are *data, not code*: everything a [`ScenarioSpec`] can
//! express — architecture, population, shards, placement, adaptive
//! window, interest profile, publication plan (flash crowd included),
//! churn plan, latency/loss model, scheduled faults (partitions, one-way
//! link failures, delay spikes), time-varying connectivity (`[mobility]`
//! piecewise traces), SWIM failure detection and telemetry —
//! is writable as a small TOML file, parsed by [`parse_scenario`] and
//! serialized back by [`to_toml`]. The curated library under `scenarios/` in the repository
//! root is built entirely from this format, and the `fed-experiments`
//! runner executes any file via `run <path.toml>` / `run @name`.
//!
//! The full key-by-key reference with defaults and units lives in
//! `docs/SCENARIOS.md`; the grammar below is the contract.
//!
//! ## Format
//!
//! A deliberately small TOML subset, parsed without external crates:
//!
//! * `[section]` and `[section.subsection]` headers (each at most once);
//! * `key = value` pairs where a value is a `"string"`, an integer, a
//!   float, or `true`/`false`;
//! * `#` comments (full-line or trailing) and blank lines.
//!
//! Durations and instants are strings with an explicit integer count and
//! unit: `"250us"`, `"10ms"`, `"2s"`. Anything else — `"10sec"`, a bare
//! `10`, a negative count — is rejected.
//!
//! ## Strictness
//!
//! Parsing is strict by design: unknown sections and unknown keys are
//! errors (catching typos like `ratez`), every value is range-checked
//! (`shards` ∈ 1..=512, positive rates, fractions in `[0, 1]`, …), the
//! products that size the run's memory are bounded ([`MAX_PRODUCT`]) and
//! every error carries the line number and the offending key. A file
//! that parses is guaranteed to materialize: the checks here are a
//! superset of what [`ScenarioSpec::materialize`] validates.
//!
//! ## Round trip
//!
//! [`to_toml`] ∘ [`parse_scenario`] is the identity on [`ScenarioSpec`]
//! (property-tested in `tests/scenario_file_props.rs`): floats are
//! emitted in Rust's shortest round-trip notation, durations in the
//! coarsest exact unit, strings with the escapes the lexer reads. The
//! identity holds by construction, not by a mirrored list of checks:
//! [`to_toml`] puts every section it writes through the read pass's own
//! type, range, applicability and cross-field checks, so a spec built in
//! code that the parser would reject is an error naming `[section] key`,
//! never text that does not parse back. Beyond that, the unrepresentable
//! corners are a [`NetworkModel`] carrying faults or a mobility trace on
//! the base model instead of the spec, and a string holding a control
//! character the format has no escape for. Partitions are plain data with
//! a start and a heal time, and live in the `[faults.partition]` section.
//!
//! ## The grammar is written once
//!
//! Every section is one static `Section` row in this module — its path,
//! whether it is required, its selector key if any, and per key the
//! name, type with range, required / optional / default, and the
//! selector value it applies under. Two passes read that table:
//! `conform` (a lexed section, or the pairs [`to_toml`] is about to
//! write → unknown-key, missing-key, type, range, does-not-apply and
//! cross-field errors → a typed `Bag`) and `write_section` (pairs →
//! `conform` → text). Adding a knob to an existing section is **one
//! schema row, one build line** (`field: b.float("key")` in the
//! section's `*_of`) **and one list line** (`("key", Value::Float(..))`
//! in its `*_pairs`); the docs test in this module then fails naming the
//! row `docs/SCENARIOS.md` lacks. A cross-field rule is the section's
//! `rule` and runs in both directions.

use crate::churn::ChurnPlan;
use crate::interest::Appetite;
use crate::pubs::{FlashCrowd, PubPlan};
use crate::scenario::{Architecture, Placement, ScenarioSpec};
use fed_membership::swim::SwimConfig;
use fed_profile::ProfileSpec;
use fed_sim::network::{
    DelayFault, FaultSchedule, LatencyModel, MobilitySegment, MobilityTrace, NetworkModel,
    OnewayFault, PartitionFault,
};
use fed_sim::{SimDuration, SimTime};
use fed_telemetry::TelemetrySpec;
use fed_trace::TraceSpec;
use std::collections::BTreeMap;
use std::fmt;

/// Highest shard count a scenario file may request.
///
/// The engine itself clamps shards to the population size; this bound
/// exists so a typo (`shards = 40000`) fails loudly instead of spawning
/// thousands of idle worker threads.
pub const MAX_SHARDS: usize = 512;

/// Highest population a scenario file may request.
pub const MAX_NODES: usize = 10_000_000;

/// Most subscription entries (`nodes × topics per node`) and most
/// publications (`rate × duration`) a scenario file may request. Each
/// key is in range on its own; this bounds their products, so a file
/// that parses cannot ask for more memory than the run can allocate.
pub const MAX_PRODUCT: u64 = 100_000_000;

/// An error from parsing, validating or serializing a scenario file.
///
/// Carries the 1-based line number when the error is attributable to a
/// specific line of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFileError {
    /// 1-based line of the offending input, when known.
    pub line: Option<usize>,
    /// Human-readable description, including the key path involved.
    pub message: String,
}

impl ScenarioFileError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        ScenarioFileError {
            line: Some(line),
            message: message.into(),
        }
    }

    fn global(message: impl Into<String>) -> Self {
        ScenarioFileError {
            line: None,
            message: message.into(),
        }
    }

    /// With the line a [`Bag`] field came from: `None` on the write side.
    fn new(line: Option<usize>, message: String) -> Self {
        ScenarioFileError { line, message }
    }
}

impl fmt::Display for ScenarioFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for ScenarioFileError {}

type Result<T> = std::result::Result<T, ScenarioFileError>;

// ---------------------------------------------------------------------------
// Lexing: lines → sections of (key, value) pairs
// ---------------------------------------------------------------------------

/// One TOML value: what the lexer produces and what [`to_toml`] lists.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i128),
    Float(f64),
    Bool(bool),
    /// Microseconds of a duration or instant. The lexer reads these as
    /// [`Value::Str`]; `conform_value` converts where the schema says so.
    Time(u64),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "a string",
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Bool(_) => "a boolean",
            Value::Time(_) => "a duration",
        }
    }
}

/// Strips a trailing `#` comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => escaped = true,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn valid_key(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_string(raw: &str, line: usize) -> Result<String> {
    let inner = &raw[1..raw.len() - 1];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            return Err(ScenarioFileError::at(
                line,
                "unescaped quote inside string".to_string(),
            ));
        }
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => {
                return Err(ScenarioFileError::at(
                    line,
                    format!("unsupported string escape {other:?}"),
                ))
            }
        }
    }
    Ok(out)
}

fn parse_value(raw: &str, line: usize) -> Result<Value> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(ScenarioFileError::at(line, "missing value after `=`"));
    }
    if raw.starts_with('"') {
        if raw.len() < 2 || !raw.ends_with('"') {
            return Err(ScenarioFileError::at(line, "unterminated string"));
        }
        return parse_string(raw, line).map(Value::Str);
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let body = raw.strip_prefix(['+', '-']).unwrap_or(raw);
    if body.is_empty() || !body.starts_with(|c: char| c.is_ascii_digit() || c == '.') {
        return Err(ScenarioFileError::at(
            line,
            format!("unrecognized value {raw:?} (expected a string, number or boolean)"),
        ));
    }
    // Underscore digit grouping is allowed in both integers and floats
    // (`100_000`, `1_000.5`), as in full TOML.
    let digits = raw.replace('_', "");
    let looks_float = raw.contains(['.', 'e', 'E']);
    if !looks_float {
        return match digits.parse::<i128>() {
            Ok(v) => Ok(Value::Int(v)),
            Err(_) => Err(ScenarioFileError::at(
                line,
                format!("integer {raw:?} is out of range"),
            )),
        };
    }
    match digits.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Value::Float(v)),
        Ok(_) => Err(ScenarioFileError::at(
            line,
            format!("float {raw:?} must be finite"),
        )),
        Err(_) => Err(ScenarioFileError::at(
            line,
            format!("invalid float {raw:?}"),
        )),
    }
}

/// A lexed document: section path → (header line, key → (value, line)).
struct Document {
    sections: BTreeMap<String, Lexed>,
}

struct Lexed {
    header_line: usize,
    entries: BTreeMap<String, (Value, usize)>,
}

fn lex(input: &str) -> Result<Document> {
    let mut sections: BTreeMap<String, Lexed> = BTreeMap::new();
    let mut current: Option<String> = None;
    for (idx, raw_line) in input.lines().enumerate() {
        let line = idx + 1;
        let text = strip_comment(raw_line).trim();
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(ScenarioFileError::at(line, "unterminated section header"));
            };
            let name = name.trim();
            if name.is_empty() || !name.split('.').all(valid_key) {
                return Err(ScenarioFileError::at(
                    line,
                    format!("invalid section name [{name}]"),
                ));
            }
            if sections.contains_key(name) {
                return Err(ScenarioFileError::at(
                    line,
                    format!("duplicate section [{name}]"),
                ));
            }
            sections.insert(
                name.to_string(),
                Lexed {
                    header_line: line,
                    entries: BTreeMap::new(),
                },
            );
            current = Some(name.to_string());
            continue;
        }
        let Some((key, value)) = text.split_once('=') else {
            return Err(ScenarioFileError::at(
                line,
                format!("expected `key = value` or `[section]`, got {text:?}"),
            ));
        };
        let key = key.trim();
        if !valid_key(key) {
            return Err(ScenarioFileError::at(line, format!("invalid key {key:?}")));
        }
        let Some(section) = current.as_ref() else {
            return Err(ScenarioFileError::at(
                line,
                format!("key {key:?} before any [section] header"),
            ));
        };
        let value = parse_value(value, line)?;
        let entries = &mut sections.get_mut(section).unwrap().entries;
        if entries.insert(key.to_string(), (value, line)).is_some() {
            return Err(ScenarioFileError::at(
                line,
                format!("duplicate key {key:?} in [{section}]"),
            ));
        }
    }
    Ok(Document { sections })
}

// ---------------------------------------------------------------------------
// Durations, floats and strings as text
// ---------------------------------------------------------------------------

/// Parses `"<digits><unit>"` with unit `us`, `ms` or `s` into microseconds.
fn parse_duration_str(s: &str) -> Option<u64> {
    let (count, factor) = if let Some(c) = s.strip_suffix("us") {
        (c, 1u64)
    } else if let Some(c) = s.strip_suffix("ms") {
        (c, 1_000)
    } else if let Some(c) = s.strip_suffix('s') {
        (c, 1_000_000)
    } else {
        return None;
    };
    if count.is_empty() || !count.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    count.parse::<u64>().ok()?.checked_mul(factor)
}

/// Formats microseconds in the coarsest exact unit (`us`/`ms`/`s`).
fn fmt_duration_us(us: u64) -> String {
    if us.is_multiple_of(1_000_000) {
        format!("\"{}s\"", us / 1_000_000)
    } else if us.is_multiple_of(1_000) {
        format!("\"{}ms\"", us / 1_000)
    } else {
        format!("\"{us}us\"")
    }
}

/// Renders a conformed value as the lexer reads it back: floats in the
/// shortest notation that round-trips (finite ones always re-lex as a
/// float or integer literal), strings with exactly the escapes
/// [`parse_string`] accepts.
fn render(value: &Value) -> std::result::Result<String, String> {
    Ok(match value {
        Value::Int(i) => i.to_string(),
        Value::Float(x) => format!("{x:?}"),
        Value::Bool(b) => b.to_string(),
        Value::Time(us) => fmt_duration_us(*us),
        Value::Str(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if c.is_control() => {
                        return Err(format!(
                            "{s:?} holds the control character {c:?}, which the format cannot carry"
                        ))
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
    })
}

// ---------------------------------------------------------------------------
// The schema: every section and key of the grammar, spelled once
// ---------------------------------------------------------------------------

/// A key's type and, with it, its range.
#[derive(Clone, Copy)]
enum Ty {
    Str,
    /// An integer in `lo..=hi`.
    Int {
        lo: u64,
        hi: u64,
    },
    Float(FloatCheck),
    Bool,
    /// A duration or instant: `"<count><us|ms|s>"`, held as microseconds.
    Time,
}

#[derive(Clone, Copy)]
enum FloatCheck {
    Positive,
    NonNegative,
    Fraction,
    LossProbability,
}

/// What an absent key means.
#[derive(Clone, Copy)]
enum Need {
    /// An error, blamed on the section header.
    Req,
    /// Nothing — unless the section's `defaults` list the key.
    Opt,
    /// This value (a `fn` because a [`Value`] cannot sit in a `static`).
    Def(fn() -> Value),
}

struct Key {
    name: &'static str,
    ty: Ty,
    need: Need,
    /// The selector value this key applies under; `None` = always.
    when: Option<&'static str>,
}

const fn key(name: &'static str, ty: Ty, need: Need) -> Key {
    Key {
        name,
        ty,
        need,
        when: None,
    }
}

const fn range(lo: u64, hi: u64) -> Ty {
    Ty::Int { lo, hi }
}

const fn when(selected: &'static str, name: &'static str, ty: Ty, need: Need) -> Key {
    Key {
        name,
        ty,
        need,
        when: Some(selected),
    }
}

type Pair = (&'static str, Value);
type Rule = fn(&Bag<'_>) -> std::result::Result<(), String>;

struct Section {
    path: &'static str,
    /// Whether a file without the section is an error.
    required: bool,
    /// The key whose value picks which `when` keys apply, and the noun
    /// its unknown-value error uses.
    selector: Option<(&'static str, &'static str)>,
    /// In the order `valid keys:` lists them and [`to_toml`] writes them.
    keys: &'static [Key],
    /// The section's default struct, listed: supplies absent `Opt` keys.
    defaults: Option<fn() -> Vec<Pair>>,
    /// The cross-field check, run by [`conform`] — so in both directions
    /// — once every key has passed its own. Its error is prefixed with
    /// `[path]` and blamed on the selector's line, else the header's.
    rule: Option<Rule>,
}

/// What every section literal below updates: optional, no selector, no
/// listed defaults, no rule.
const OPTIONAL: Section = Section {
    path: "",
    required: false,
    selector: None,
    keys: &[],
    defaults: None,
    rule: None,
};

use FloatCheck::{Fraction, LossProbability, NonNegative, Positive};
use Need::{Def, Opt, Req};
use Ty::{Bool, Float, Int, Str, Time};

const U64: Ty = range(0, u64::MAX);
/// Topics a node subscribes to: at most the largest topic universe.
const APPETITE: Ty = range(0, 1_000_000);
/// A node-id boundary (`< split` on one side, the rest on the other).
const SPLIT: Ty = range(0, MAX_NODES as u64);
const BUCKETS: Ty = range(1, 100_000);

static SCENARIO: Section = Section {
    path: "scenario",
    required: true,
    keys: &[
        key("name", Str, Opt),
        key("summary", Str, Opt),
        key("arch", Str, Req),
        key("nodes", range(1, MAX_NODES as u64), Req),
        key("seed", U64, Req),
        key("shards", range(1, MAX_SHARDS as u64), Def(|| Value::Int(1))),
        key("placement", Str, Def(|| Value::Str("round-robin".into()))),
        key("adaptive_window", Bool, Def(|| Value::Bool(true))),
    ],
    ..OPTIONAL
};

static TOPICS: Section = Section {
    path: "topics",
    required: true,
    keys: &[
        key("count", range(1, 1_000_000), Req),
        key("zipf_s", Float(NonNegative), Def(|| Value::Float(1.0))),
    ],
    ..OPTIONAL
};

static INTEREST: Section = Section {
    path: "interest",
    required: true,
    selector: Some(("appetite", "kind")),
    keys: &[
        key("appetite", Str, Req),
        when("fixed", "topics_per_node", APPETITE, Req),
        when("uniform", "lo", APPETITE, Req),
        when("uniform", "hi", APPETITE, Req),
        when("bimodal", "heavy_fraction", Float(Fraction), Req),
        when("bimodal", "heavy", APPETITE, Req),
        when("bimodal", "light", APPETITE, Req),
    ],
    rule: Some(|b| {
        if b.str("appetite") == "uniform" && b.int("lo") > b.int("hi") {
            let (lo, hi) = (b.int("lo"), b.int("hi"));
            return Err(format!("uniform appetite needs lo <= hi (got {lo} > {hi})"));
        }
        Ok(())
    }),
    ..OPTIONAL
};

static PUBLISH: Section = Section {
    path: "publish",
    required: true,
    keys: &[
        key("rate_per_sec", Float(Positive), Req),
        key("duration", Time, Req),
        key("warmup", Time, Def(|| Value::Time(1_000_000))),
        key(
            "topic_zipf_s",
            Float(NonNegative),
            Def(|| Value::Float(1.0)),
        ),
        key("payload_bytes", range(0, 1 << 20), Def(|| Value::Int(64))),
    ],
    // The run horizon is `warmup + duration + drain` on the u64
    // microsecond clock; reject phases that would overflow it so "a file
    // that parses is guaranteed to run" holds.
    rule: Some(|b| {
        let end = b.micros("warmup").checked_add(b.micros("duration"));
        match end.and_then(|v| v.checked_add(4_000_000)) {
            Some(_) => Ok(()),
            None => Err("warmup + duration overflows the simulation clock".to_string()),
        }
    }),
    ..OPTIONAL
};

static FLASH: Section = Section {
    path: "publish.flash",
    keys: &[
        key("at", Time, Req),
        key("topic_zipf_s", Float(NonNegative), Req),
        key("rate_factor", Float(Positive), Def(|| Value::Float(1.0))),
    ],
    ..OPTIONAL
};

/// Its presence enables churn.
static CHURN: Section = Section {
    path: "churn",
    keys: &[
        key("mean_session_secs", Float(Positive), Opt),
        key("mean_downtime_secs", Float(Positive), Opt),
        key("churning_fraction", Float(Fraction), Opt),
        key("duration", Time, Opt),
        key("warmup", Time, Opt),
    ],
    defaults: Some(|| churn_pairs(&ChurnPlan::default())),
    ..OPTIONAL
};

/// Absent, the network is the standard reliable 10 ms one.
static NETWORK: Section = Section {
    path: "network",
    selector: Some(("latency", "model")),
    keys: &[
        key("latency", Str, Req),
        when("constant", "delay", Time, Req),
        when("uniform", "lo", Time, Req),
        when("uniform", "hi", Time, Req),
        when("lognormal", "median_ms", Float(Positive), Req),
        when("lognormal", "sigma", Float(NonNegative), Req),
        when("lognormal", "floor", Time, Def(|| Value::Time(0))),
        key("loss", Float(LossProbability), Def(|| Value::Float(0.0))),
    ],
    rule: Some(|b| {
        if b.str("latency") == "uniform" && b.micros("lo") > b.micros("hi") {
            let (lo, hi) = (b.micros("lo"), b.micros("hi"));
            return Err(format!(
                "uniform latency needs lo <= hi (got {lo}us > {hi}us)"
            ));
        }
        Ok(())
    }),
    ..OPTIONAL
};

// [faults.*] — scheduled faults, applied by the network model as pure
// functions of (now, from, to). Each subsection is a single fault window.

static FAULT_PARTITION: Section = Section {
    path: "faults.partition",
    keys: &[
        key("at", Time, Req),
        key("heal", Time, Req),
        key("split", SPLIT, Req),
    ],
    rule: Some(|b| window_rule(b, "heal")),
    ..OPTIONAL
};

static FAULT_ONEWAY: Section = Section {
    path: "faults.oneway",
    keys: &[
        key("at", Time, Req),
        key("until", Time, Req),
        key("split", SPLIT, Req),
    ],
    rule: Some(|b| window_rule(b, "until")),
    ..OPTIONAL
};

static FAULT_DELAY: Section = Section {
    path: "faults.delay",
    keys: &[
        key("at", Time, Req),
        key("until", Time, Req),
        key("extra", Time, Req),
    ],
    rule: Some(|b| window_rule(b, "until")),
    ..OPTIONAL
};

/// A fault window must be non-empty: `at` strictly before its `end` key.
fn window_rule(b: &Bag<'_>, end: &str) -> std::result::Result<(), String> {
    let (at, to) = (b.micros("at"), b.micros(end));
    if at >= to {
        return Err(format!("needs at < {end} (got {at}us >= {to}us)"));
    }
    Ok(())
}

// [mobility] + [mobility.seg0], [mobility.seg1], … — a piecewise
// cross-split trace. Segments are numbered subsections because the
// format has no array-of-tables; the rule over the whole trace is
// `mobility_rule`.

static MOBILITY: Section = Section {
    path: "mobility",
    keys: &[key("split", SPLIT, Req), key("period", Time, Opt)],
    ..OPTIONAL
};

static MOBILITY_SEGMENT: Section = Section {
    path: "mobility.seg<k>",
    keys: &[
        key("at", Time, Req),
        key("extra", Time, Def(|| Value::Time(0))),
        key("disconnected", Bool, Def(|| Value::Bool(false))),
    ],
    ..OPTIONAL
};

/// Its presence enables the SWIM failure detector on gossip-based
/// architectures.
static MEMBERSHIP: Section = Section {
    path: "membership",
    keys: &[
        key("probe_period", Time, Opt),
        key("probe_timeout", Time, Opt),
        key("ping_req_fanout", range(0, 1_000), Opt),
        key("suspect_timeout", Time, Opt),
        key("max_piggyback", range(1, 10_000), Opt),
        key("gossip_multiplier", range(1, 1_000), Opt),
    ],
    defaults: Some(|| swim_pairs(&SwimConfig::standard())),
    // A zero probe period would re-arm the protocol tick at the same
    // instant forever; reject it so "a file that parses is guaranteed to
    // run" holds.
    rule: Some(|b| match b.micros("probe_period") {
        0 => Err("probe_period must be positive".to_string()),
        _ => Ok(()),
    }),
    ..OPTIONAL
};

/// Its presence enables the streaming series.
static TELEMETRY: Section = Section {
    path: "telemetry",
    keys: &[
        key("window", Time, Opt),
        key("load_hi", Float(Positive), Opt),
        key("load_buckets", BUCKETS, Opt),
        key("latency_hi_ms", Float(Positive), Opt),
        key("latency_buckets", BUCKETS, Opt),
    ],
    defaults: Some(|| telemetry_pairs(&TelemetrySpec::default())),
    rule: Some(|b| TelemetrySpec::checked(telemetry_of(b)).map(drop)),
    ..OPTIONAL
};

/// Its presence (even empty) enables scheduler profiling.
static PROFILE: Section = Section {
    path: "profile",
    keys: &[key("trace", Str, Opt)],
    rule: Some(|b| ProfileSpec::checked(profile_of(b)).map(drop)),
    ..OPTIONAL
};

/// Its presence (even empty) enables per-event dissemination tracing.
static TRACE: Section = Section {
    path: "trace",
    keys: &[
        key("sample_rate", Float(Fraction), Opt),
        key("salt", U64, Opt),
        key("export", Str, Opt),
    ],
    defaults: Some(|| trace_pairs(&TraceSpec::default())),
    rule: Some(|b| TraceSpec::checked(trace_of(b)).map(drop)),
    ..OPTIONAL
};

/// All sections a scenario file may contain.
static SCHEMA: [&Section; 16] = [
    &SCENARIO,
    &TOPICS,
    &INTEREST,
    &PUBLISH,
    &FLASH,
    &CHURN,
    &NETWORK,
    &FAULT_PARTITION,
    &FAULT_ONEWAY,
    &FAULT_DELAY,
    &MOBILITY,
    &MOBILITY_SEGMENT,
    &MEMBERSHIP,
    &TELEMETRY,
    &PROFILE,
    &TRACE,
];

// ---------------------------------------------------------------------------
// The read pass: (section, entries) → checked, typed fields
// ---------------------------------------------------------------------------

/// Checks one value against its key's type and range, converting what
/// the lexer cannot know (a duration string, an integer where a float
/// is expected). Values [`to_toml`] lists are already typed and only
/// get the check.
fn conform_value(ty: Ty, value: Value) -> std::result::Result<Value, String> {
    let expected = |what: &str, got: &Value| format!("expected {what}, got {}", got.type_name());
    match (ty, value) {
        (Str, v @ Value::Str(_)) | (Bool, v @ Value::Bool(_)) | (Time, v @ Value::Time(_)) => Ok(v),
        (Str, other) => Err(expected("a string", &other)),
        (Bool, other) => Err(expected("true or false", &other)),
        (Time, Value::Str(s)) => match parse_duration_str(&s) {
            Some(us) => Ok(Value::Time(us)),
            None => Err(format!(
                "bad duration {s:?} (expected an integer count with unit, \
                 e.g. \"250us\", \"10ms\", \"2s\")"
            )),
        },
        (Time, other) => Err(expected("a string", &other)),
        (Int { lo, hi }, Value::Int(i)) => {
            if i >= lo.into() && i <= hi.into() {
                Ok(Value::Int(i))
            } else if hi == u64::MAX {
                // `seed` and `salt` take any u64; say so instead of a range.
                Err(format!("{i} does not fit an unsigned 64-bit value"))
            } else {
                Err(format!("{i} is out of range (expected {lo}..={hi})"))
            }
        }
        (Int { .. }, other) => Err(expected("an integer", &other)),
        // Integer literals are fine where a float is expected.
        (Float(check), Value::Int(i)) => check_float(check, i as f64),
        (Float(check), Value::Float(x)) => check_float(check, x),
        (Float(_), other) => Err(expected("a number", &other)),
    }
}

fn check_float(check: FloatCheck, x: f64) -> std::result::Result<Value, String> {
    // The lexer only yields finite floats; a spec built in code may not.
    if !x.is_finite() {
        return Err(format!("{x} must be finite"));
    }
    match check {
        Positive if x <= 0.0 => Err(format!("{x} must be strictly positive")),
        NonNegative if x < 0.0 => Err(format!("{x} must be non-negative")),
        Fraction if !(0.0..=1.0).contains(&x) => Err(format!("{x} must be a fraction in [0, 1]")),
        LossProbability if !(0.0..1.0).contains(&x) => {
            Err(format!("{x} must be a loss probability in [0, 1)"))
        }
        _ => Ok(Value::Float(x)),
    }
}

/// One section's conformed fields in schema order. Every key that
/// applies and is required, defaulted or given is here with its schema
/// type, which is what lets the typed getters be infallible.
struct Bag<'a> {
    path: &'a str,
    /// Where the section's rule blames: the selector's line if there is
    /// one, else the header's; `None` on the write side.
    blame: Option<usize>,
    fields: Vec<(&'static str, Value, Option<usize>)>,
}

impl Bag<'_> {
    fn get(&self, key: &str) -> Option<&Value> {
        let field = self.fields.iter().find(|(name, ..)| *name == key);
        field.map(|(_, value, _)| value)
    }

    fn val(&self, key: &str) -> &Value {
        self.get(key)
            .expect("the schema guarantees a required or defaulted key")
    }

    fn str(&self, key: &str) -> &str {
        match self.val(key) {
            Value::Str(s) => s,
            _ => unreachable!("conformed to Ty::Str"),
        }
    }

    /// An optional `Str` key, owned.
    fn string(&self, key: &str) -> Option<String> {
        self.get(key).map(|_| self.str(key).to_string())
    }

    fn u64(&self, key: &str) -> u64 {
        match self.val(key) {
            Value::Int(i) => u64::try_from(*i).expect("every Int range lies within u64"),
            _ => unreachable!("conformed to Ty::Int"),
        }
    }

    fn int(&self, key: &str) -> usize {
        usize::try_from(self.u64(key)).expect("every bounded Int range fits usize")
    }

    fn float(&self, key: &str) -> f64 {
        match self.val(key) {
            Value::Float(x) => *x,
            _ => unreachable!("conformed to Ty::Float"),
        }
    }

    fn bool(&self, key: &str) -> bool {
        match self.val(key) {
            Value::Bool(b) => *b,
            _ => unreachable!("conformed to Ty::Bool"),
        }
    }

    fn micros(&self, key: &str) -> u64 {
        match self.val(key) {
            Value::Time(us) => *us,
            _ => unreachable!("conformed to Ty::Time"),
        }
    }

    fn duration(&self, key: &str) -> SimDuration {
        SimDuration::from_micros(self.micros(key))
    }

    fn instant(&self, key: &str) -> SimTime {
        SimTime::from_micros(self.micros(key))
    }

    /// A `Str` key naming a variant of an enum that has its own `parse`.
    fn named<T>(
        &self,
        key: &str,
        noun: &str,
        parse: fn(&str) -> Option<T>,
        valid: &[&str],
    ) -> Result<T> {
        let name = self.str(key);
        parse(name).ok_or_else(|| {
            let line = self.fields.iter().find(|f| f.0 == key).and_then(|f| f.2);
            let (path, valid) = (self.path, valid.join(", "));
            let what = format!("[{path}] {key}: unknown {noun} {name:?} (valid: {valid})");
            ScenarioFileError::new(line, what)
        })
    }
}

/// The one check both directions share. `entries` are a lexed section's
/// `(key, value, line)` triples, or the pairs [`to_toml`] is about to
/// write (no lines). In order: an unknown key; then, key by key in
/// schema order, a missing required key (blamed on the header), a wrong
/// type or an out-of-range value (blamed on the key's line); a key that
/// belongs to another selector value; the section's cross-field rule.
fn conform<'a>(
    sec: &'static Section,
    path: &'a str,
    header: Option<usize>,
    mut entries: Vec<(String, Value, Option<usize>)>,
) -> Result<Bag<'a>> {
    let key_list = || {
        let names: Vec<&str> = sec.keys.iter().map(|k| k.name).collect();
        names.join(", ")
    };
    // Reject typos up front so "unknown key" wins over "missing
    // required key" when both apply.
    let known = |name: &str| sec.keys.iter().any(|k| k.name == name);
    if let Some((key, _, line)) = entries.iter().find(|(key, ..)| !known(key)) {
        let what = format!(
            "unknown key `{key}` in [{path}] (valid keys: {})",
            key_list()
        );
        return Err(ScenarioFileError::new(*line, what));
    }
    let mut bag = Bag {
        path,
        blame: header,
        fields: Vec::with_capacity(sec.keys.len()),
    };
    let mut defaults = None;
    let mut selected = None;
    for key in sec.keys {
        if key.when.is_some() && key.when != selected {
            continue;
        }
        let given = entries.iter().position(|(name, ..)| name == key.name);
        let (value, line) = match (given, key.need) {
            (Some(i), _) => {
                let (_, value, line) = entries.remove(i);
                let value = conform_value(key.ty, value).map_err(|what| {
                    ScenarioFileError::new(line, format!("[{path}] {}: {what}", key.name))
                })?;
                (value, line)
            }
            (None, Req) => {
                let what = format!("[{path}] is missing the required key `{}`", key.name);
                return Err(ScenarioFileError::new(header, what));
            }
            (None, Def(value)) => (value(), None),
            (None, Opt) => {
                let listed: &Vec<Pair> = defaults
                    .get_or_insert_with(|| sec.defaults.map(|list| list()).unwrap_or_default());
                match listed.iter().find(|(name, _)| *name == key.name) {
                    Some((_, value)) => (value.clone(), None),
                    None => continue,
                }
            }
        };
        if let (Some((selector, noun)), Value::Str(kind)) = (sec.selector, &value) {
            if selector == key.name {
                let mut kinds: Vec<&str> = sec.keys.iter().filter_map(|k| k.when).collect();
                kinds.dedup();
                selected = kinds.iter().copied().find(|k| k == kind);
                if selected.is_none() {
                    let valid = kinds.join(", ");
                    let what =
                        format!("[{path}] {selector}: unknown {noun} {kind:?} (valid: {valid})");
                    return Err(ScenarioFileError::new(line, what));
                }
                bag.blame = line;
            }
        }
        bag.fields.push((key.name, value, line));
    }
    if let Some((key, _, line)) = entries.first() {
        let what = format!(
            "key `{key}` in [{path}] does not apply to this configuration (all keys: {})",
            key_list()
        );
        return Err(ScenarioFileError::new(*line, what));
    }
    if let Some(rule) = sec.rule {
        rule(&bag).map_err(|what| ScenarioFileError::new(bag.blame, format!("[{path}] {what}")))?;
    }
    Ok(bag)
}

impl Document {
    /// Takes the section at `path` out of the document and conforms it
    /// to `sec`; `None` when the file has no such section — an error if
    /// the schema requires it.
    fn read<'a>(&mut self, sec: &'static Section, path: &'a str) -> Result<Option<Bag<'a>>> {
        let Some(lexed) = self.sections.remove(path) else {
            let missing = format!("missing required section [{path}]");
            return if sec.required {
                Err(ScenarioFileError::global(missing))
            } else {
                Ok(None)
            };
        };
        let entries = lexed.entries.into_iter();
        let entries = entries.map(|(key, (value, line))| (key, value, Some(line)));
        conform(sec, path, Some(lexed.header_line), entries.collect()).map(Some)
    }

    fn optional(&mut self, sec: &'static Section) -> Result<Option<Bag<'static>>> {
        self.read(sec, sec.path)
    }

    fn required(&mut self, sec: &'static Section) -> Result<Bag<'static>> {
        let bag = self.optional(sec)?;
        Ok(bag.expect("read() turns an absent required section into an error"))
    }
}

// ---------------------------------------------------------------------------
// Per section: build the struct from its bag, list the struct's values
// ---------------------------------------------------------------------------

fn int(i: usize) -> Value {
    Value::Int(i as i128)
}

fn appetite_of(b: &Bag<'_>) -> Appetite {
    match b.str("appetite") {
        "fixed" => Appetite::Fixed(b.int("topics_per_node")),
        "uniform" => Appetite::Uniform {
            lo: b.int("lo"),
            hi: b.int("hi"),
        },
        // `conform` admits only the schema's three kinds.
        _ => Appetite::Bimodal {
            heavy_fraction: b.float("heavy_fraction"),
            heavy: b.int("heavy"),
            light: b.int("light"),
        },
    }
}

fn appetite_pairs(appetite: &Appetite) -> Vec<Pair> {
    let kind = |name: &str| ("appetite", Value::Str(name.to_string()));
    match *appetite {
        Appetite::Fixed(k) => vec![kind("fixed"), ("topics_per_node", int(k))],
        Appetite::Uniform { lo, hi } => vec![kind("uniform"), ("lo", int(lo)), ("hi", int(hi))],
        Appetite::Bimodal {
            heavy_fraction,
            heavy,
            light,
        } => vec![
            kind("bimodal"),
            ("heavy_fraction", Value::Float(heavy_fraction)),
            ("heavy", int(heavy)),
            ("light", int(light)),
        ],
    }
}

fn plan_of(b: &Bag<'_>, flash: Option<FlashCrowd>) -> PubPlan {
    PubPlan {
        rate_per_sec: b.float("rate_per_sec"),
        duration: b.instant("duration"),
        topic_zipf_s: b.float("topic_zipf_s"),
        payload_bytes: b.int("payload_bytes"),
        warmup: b.instant("warmup"),
        flash,
    }
}

fn plan_pairs(plan: &PubPlan) -> Vec<Pair> {
    vec![
        ("rate_per_sec", Value::Float(plan.rate_per_sec)),
        ("duration", Value::Time(plan.duration.as_micros())),
        ("warmup", Value::Time(plan.warmup.as_micros())),
        ("topic_zipf_s", Value::Float(plan.topic_zipf_s)),
        ("payload_bytes", int(plan.payload_bytes)),
    ]
}

fn flash_of(b: &Bag<'_>) -> FlashCrowd {
    FlashCrowd {
        at: b.instant("at"),
        topic_zipf_s: b.float("topic_zipf_s"),
        rate_factor: b.float("rate_factor"),
    }
}

fn flash_pairs(flash: &FlashCrowd) -> Vec<Pair> {
    vec![
        ("at", Value::Time(flash.at.as_micros())),
        ("topic_zipf_s", Value::Float(flash.topic_zipf_s)),
        ("rate_factor", Value::Float(flash.rate_factor)),
    ]
}

fn churn_of(b: &Bag<'_>) -> ChurnPlan {
    ChurnPlan {
        mean_session_secs: b.float("mean_session_secs"),
        mean_downtime_secs: b.float("mean_downtime_secs"),
        churning_fraction: b.float("churning_fraction"),
        duration: b.instant("duration"),
        warmup: b.instant("warmup"),
    }
}

fn churn_pairs(churn: &ChurnPlan) -> Vec<Pair> {
    vec![
        ("mean_session_secs", Value::Float(churn.mean_session_secs)),
        ("mean_downtime_secs", Value::Float(churn.mean_downtime_secs)),
        ("churning_fraction", Value::Float(churn.churning_fraction)),
        ("duration", Value::Time(churn.duration.as_micros())),
        ("warmup", Value::Time(churn.warmup.as_micros())),
    ]
}

fn net_of(b: &Bag<'_>) -> NetworkModel {
    let latency = match b.str("latency") {
        "constant" => LatencyModel::Constant(b.duration("delay")),
        "uniform" => LatencyModel::Uniform {
            lo: b.duration("lo"),
            hi: b.duration("hi"),
        },
        // `conform` admits only the schema's three models.
        _ => LatencyModel::LogNormalMs {
            median_ms: b.float("median_ms"),
            sigma: b.float("sigma"),
            floor: b.duration("floor"),
        },
    };
    match b.float("loss") {
        loss if loss > 0.0 => NetworkModel::lossy(latency, loss),
        _ => NetworkModel::reliable(latency),
    }
}

fn net_pairs(net: &NetworkModel) -> Vec<Pair> {
    let model = |name: &str| ("latency", Value::Str(name.to_string()));
    let mut pairs = match *net.latency_model() {
        LatencyModel::Constant(d) => vec![model("constant"), ("delay", Value::Time(d.as_micros()))],
        LatencyModel::Uniform { lo, hi } => vec![
            model("uniform"),
            ("lo", Value::Time(lo.as_micros())),
            ("hi", Value::Time(hi.as_micros())),
        ],
        LatencyModel::LogNormalMs {
            median_ms,
            sigma,
            floor,
        } => vec![
            model("lognormal"),
            ("median_ms", Value::Float(median_ms)),
            ("sigma", Value::Float(sigma)),
            ("floor", Value::Time(floor.as_micros())),
        ],
    };
    // A reliable network is written without the key. `!=`, not `>`: a
    // NaN must reach the range check, not be dropped as "no loss".
    if net.loss_probability() != 0.0 {
        pairs.push(("loss", Value::Float(net.loss_probability())));
    }
    pairs
}

fn partition_of(b: &Bag<'_>) -> PartitionFault {
    PartitionFault {
        at: b.instant("at"),
        heal: b.instant("heal"),
        split: b.int("split") as u32,
    }
}

fn partition_pairs(f: &PartitionFault) -> Vec<Pair> {
    vec![
        ("at", Value::Time(f.at.as_micros())),
        ("heal", Value::Time(f.heal.as_micros())),
        ("split", Value::Int(f.split.into())),
    ]
}

fn oneway_of(b: &Bag<'_>) -> OnewayFault {
    OnewayFault {
        at: b.instant("at"),
        until: b.instant("until"),
        split: b.int("split") as u32,
    }
}

fn oneway_pairs(f: &OnewayFault) -> Vec<Pair> {
    vec![
        ("at", Value::Time(f.at.as_micros())),
        ("until", Value::Time(f.until.as_micros())),
        ("split", Value::Int(f.split.into())),
    ]
}

fn delay_of(b: &Bag<'_>) -> DelayFault {
    DelayFault {
        at: b.instant("at"),
        until: b.instant("until"),
        extra: b.duration("extra"),
    }
}

fn delay_pairs(f: &DelayFault) -> Vec<Pair> {
    vec![
        ("at", Value::Time(f.at.as_micros())),
        ("until", Value::Time(f.until.as_micros())),
        ("extra", Value::Time(f.extra.as_micros())),
    ]
}

fn segment_of(b: &Bag<'_>) -> MobilitySegment {
    MobilitySegment {
        at: b.instant("at"),
        extra: b.duration("extra"),
        disconnected: b.bool("disconnected"),
    }
}

fn segment_pairs(s: &MobilitySegment) -> Vec<Pair> {
    vec![
        ("at", Value::Time(s.at.as_micros())),
        ("extra", Value::Time(s.extra.as_micros())),
        ("disconnected", Value::Bool(s.disconnected)),
    ]
}

/// The bounds over products of keys from several sections, so not a
/// [`Section::rule`]: `nodes × min(largest appetite, topics count)` and
/// `rate_per_sec × duration × max(1, flash rate_factor)` stay within
/// [`MAX_PRODUCT`]. Blamed on `[interest]`'s selector and the `[publish]`
/// header.
fn product_rule(
    spec: &ScenarioSpec,
    interest: Option<usize>,
    publish: Option<usize>,
) -> Result<()> {
    let appetite = match spec.appetite {
        Appetite::Fixed(k) => ("[interest] topics_per_node", k),
        Appetite::Uniform { hi, .. } => ("[interest] hi", hi),
        Appetite::Bimodal { heavy, light, .. } if heavy >= light => ("[interest] heavy", heavy),
        Appetite::Bimodal { light, .. } => ("[interest] light", light),
    };
    let (per_node_key, per_node) = if spec.num_topics < appetite.1 {
        ("[topics] count", spec.num_topics)
    } else {
        appetite
    };
    let entries = spec.n as u128 * per_node as u128;
    if entries > u128::from(MAX_PRODUCT) {
        let what = format!(
            "[scenario] nodes × {per_node_key} = {} × {per_node} = {entries} subscription \
             entries, over the limit of {MAX_PRODUCT}",
            spec.n
        );
        return Err(ScenarioFileError::new(interest, what));
    }
    let plan = &spec.plan;
    let (rate, secs) = (plan.rate_per_sec, plan.duration.as_secs_f64());
    let factor = plan.flash.map_or(1.0, |f| f.rate_factor.max(1.0));
    let publications = rate * secs * factor;
    if publications > MAX_PRODUCT as f64 {
        let (flash_key, flash_value) = match plan.flash {
            Some(_) => (" × [publish.flash] rate_factor", format!(" × {factor}")),
            None => ("", String::new()),
        };
        let what = format!(
            "[publish] rate_per_sec × duration{flash_key} = {rate} × {secs}s{flash_value} = \
             {publications:e} publications, over the limit of {:e}",
            MAX_PRODUCT as f64
        );
        return Err(ScenarioFileError::new(publish, what));
    }
    Ok(())
}

/// The rule over a whole trace — header plus segments, so not a
/// [`Section::rule`] — blamed on the `[mobility]` header.
fn mobility_rule(trace: &MobilityTrace, header: Option<usize>) -> Result<()> {
    let checked = trace.validate();
    checked.map_err(|e| ScenarioFileError::new(header, format!("[mobility] {e}")))
}

fn swim_of(b: &Bag<'_>) -> SwimConfig {
    SwimConfig {
        probe_period: b.duration("probe_period"),
        probe_timeout: b.duration("probe_timeout"),
        ping_req_fanout: b.int("ping_req_fanout"),
        suspect_timeout: b.duration("suspect_timeout"),
        max_piggyback: b.int("max_piggyback"),
        gossip_multiplier: b.int("gossip_multiplier") as u32,
    }
}

fn swim_pairs(m: &SwimConfig) -> Vec<Pair> {
    vec![
        ("probe_period", Value::Time(m.probe_period.as_micros())),
        ("probe_timeout", Value::Time(m.probe_timeout.as_micros())),
        ("ping_req_fanout", int(m.ping_req_fanout)),
        (
            "suspect_timeout",
            Value::Time(m.suspect_timeout.as_micros()),
        ),
        ("max_piggyback", int(m.max_piggyback)),
        ("gossip_multiplier", Value::Int(m.gossip_multiplier.into())),
    ]
}

fn telemetry_of(b: &Bag<'_>) -> TelemetrySpec {
    TelemetrySpec {
        window: b.duration("window"),
        load_hi: b.float("load_hi"),
        load_buckets: b.int("load_buckets"),
        latency_hi_ms: b.float("latency_hi_ms"),
        latency_buckets: b.int("latency_buckets"),
    }
}

fn telemetry_pairs(t: &TelemetrySpec) -> Vec<Pair> {
    vec![
        ("window", Value::Time(t.window.as_micros())),
        ("load_hi", Value::Float(t.load_hi)),
        ("load_buckets", int(t.load_buckets)),
        ("latency_hi_ms", Value::Float(t.latency_hi_ms)),
        ("latency_buckets", int(t.latency_buckets)),
    ]
}

fn profile_of(b: &Bag<'_>) -> ProfileSpec {
    ProfileSpec {
        trace: b.string("trace"),
    }
}

fn profile_pairs(p: &ProfileSpec) -> Vec<Pair> {
    let trace = p.trace.clone().map(|path| ("trace", Value::Str(path)));
    trace.into_iter().collect()
}

fn trace_of(b: &Bag<'_>) -> TraceSpec {
    TraceSpec {
        sample_rate: b.float("sample_rate"),
        salt: b.u64("salt"),
        export: b.string("export"),
    }
}

fn trace_pairs(t: &TraceSpec) -> Vec<Pair> {
    let mut pairs = vec![
        ("sample_rate", Value::Float(t.sample_rate)),
        ("salt", Value::Int(t.salt.into())),
    ];
    if let Some(export) = &t.export {
        pairs.push(("export", Value::Str(export.clone())));
    }
    pairs
}

// ---------------------------------------------------------------------------
// Parsing: document → ScenarioSpec
// ---------------------------------------------------------------------------

/// A parsed scenario file: the spec plus the file's own metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Optional `name` from `[scenario]` (the library files set it to the
    /// file stem).
    pub name: Option<String>,
    /// Optional one-line `summary` from `[scenario]`.
    pub summary: Option<String>,
    /// The scenario itself.
    pub spec: ScenarioSpec,
}

/// Parses a complete scenario file.
///
/// # Errors
///
/// Returns [`ScenarioFileError`] — with the line number and key path —
/// for syntax errors, unknown sections or keys, type mismatches, bad
/// duration units, out-of-range values and key products over
/// [`MAX_PRODUCT`].
pub fn parse_scenario(input: &str) -> Result<ScenarioFile> {
    let mut doc = lex(input)?;

    let head = doc.required(&SCENARIO)?;
    let arch_names = Architecture::ALL.map(Architecture::name);
    let arch = head.named("arch", "architecture", Architecture::parse, &arch_names)?;
    let placement_names = Placement::ALL.map(Placement::name);
    let placement = head.named("placement", "policy", Placement::parse, &placement_names)?;
    let topics = doc.required(&TOPICS)?;
    let interest = doc.required(&INTEREST)?;
    let appetite = appetite_of(&interest);
    let publish = doc.required(&PUBLISH)?;
    let flash = doc.optional(&FLASH)?.map(|b| flash_of(&b));
    let churn = doc.optional(&CHURN)?.map(|b| churn_of(&b));
    let net = match doc.optional(&NETWORK)? {
        Some(b) => net_of(&b),
        None => NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10))),
    };
    let faults = FaultSchedule {
        partition: doc.optional(&FAULT_PARTITION)?.map(|b| partition_of(&b)),
        oneway: doc.optional(&FAULT_ONEWAY)?.map(|b| oneway_of(&b)),
        delay: doc.optional(&FAULT_DELAY)?.map(|b| delay_of(&b)),
    };
    let mobility = match doc.optional(&MOBILITY)? {
        None => None,
        Some(b) => {
            let mut segments = Vec::new();
            let seg_path = |k: usize| format!("mobility.seg{k}");
            while let Some(seg) = doc.read(&MOBILITY_SEGMENT, &seg_path(segments.len()))? {
                segments.push(segment_of(&seg));
            }
            let trace = MobilityTrace {
                split: b.int("split") as u32,
                period: b.get("period").map(|_| b.duration("period")),
                segments,
            };
            mobility_rule(&trace, b.blame)?;
            Some(trace)
        }
    };
    let membership = doc.optional(&MEMBERSHIP)?.map(|b| swim_of(&b));
    let telemetry = doc.optional(&TELEMETRY)?.map(|b| telemetry_of(&b));
    let profile = doc.optional(&PROFILE)?.map(|b| profile_of(&b));
    let trace = doc.optional(&TRACE)?.map(|b| trace_of(&b));

    // Leftover [mobility.*] sections get a targeted diagnosis: a segment
    // without its parent [mobility], a gap in the numbering, or a typo'd
    // segment name.
    if let Some((path, sec)) = doc
        .sections
        .iter()
        .find(|(p, _)| p.starts_with("mobility."))
    {
        let hint = match &mobility {
            None => "segments need a parent [mobility] section".to_string(),
            Some(m) => format!(
                "segments must be numbered contiguously from [mobility.seg0] \
                 (next expected: [mobility.seg{}])",
                m.segments.len()
            ),
        };
        return Err(ScenarioFileError::at(
            sec.header_line,
            format!("unexpected section [{path}]: {hint}"),
        ));
    }

    // Anything left over is an unknown section.
    if let Some((path, sec)) = doc.sections.into_iter().next() {
        let valid: Vec<&str> = SCHEMA.iter().map(|s| s.path).collect();
        return Err(ScenarioFileError::at(
            sec.header_line,
            format!(
                "unknown section [{path}] (valid sections: {})",
                valid.join(", ")
            ),
        ));
    }

    let file = ScenarioFile {
        name: head.string("name"),
        summary: head.string("summary"),
        spec: ScenarioSpec {
            arch,
            n: head.int("nodes"),
            shards: head.int("shards"),
            placement,
            adaptive_window: head.bool("adaptive_window"),
            num_topics: topics.int("count"),
            zipf_s: topics.float("zipf_s"),
            appetite,
            plan: plan_of(&publish, flash),
            churn,
            telemetry,
            profile,
            trace,
            net,
            membership,
            faults,
            mobility,
            seed: head.u64("seed"),
        },
    };
    product_rule(&file.spec, interest.blame, publish.blame)?;
    Ok(file)
}

/// Parses a scenario file, discarding the name/summary metadata.
///
/// # Errors
///
/// See [`parse_scenario`].
pub fn spec_from_toml(input: &str) -> Result<ScenarioSpec> {
    parse_scenario(input).map(|f| f.spec)
}

// ---------------------------------------------------------------------------
// Serialization: ScenarioSpec → TOML
// ---------------------------------------------------------------------------

/// The write pass: appends `[path]` and its `pairs` to `out` — after
/// [`conform`], the read pass's own check, has accepted them, which is
/// why what is written parses back.
fn write_section(
    out: &mut String,
    sec: &'static Section,
    path: &str,
    pairs: Vec<Pair>,
) -> Result<()> {
    let mut text = format!("[{path}]\n");
    for (key, value) in &pairs {
        let rendered = render(value)
            .map_err(|what| ScenarioFileError::global(format!("[{path}] {key}: {what}")))?;
        text.push_str(&format!("{key} = {rendered}\n"));
    }
    let entries = pairs
        .into_iter()
        .map(|(key, value)| (key.to_string(), value, None));
    conform(sec, path, None, entries.collect())?;
    if !out.is_empty() {
        out.push('\n');
    }
    out.push_str(&text);
    Ok(())
}

/// Writes a section that sits at its schema path, if the spec has it.
fn put(out: &mut String, sec: &'static Section, pairs: Option<Vec<Pair>>) -> Result<()> {
    pairs.map_or(Ok(()), |pairs| write_section(out, sec, sec.path, pairs))
}

/// Serializes a spec as a scenario file that parses back to an equal
/// spec ([`parse_scenario`] ∘ [`to_toml`] is the identity — property
/// tested).
///
/// # Errors
///
/// Returns an error when the spec's network model carries faults or a
/// mobility trace of its own; when a string holds a control character
/// the format has no escape for; or when [`parse_scenario`] would
/// reject the result — a value out of its key's range, a degenerate
/// fault window, a zero probe period, a key product over
/// [`MAX_PRODUCT`]. The message names `[section] key`.
pub fn to_toml(spec: &ScenarioSpec) -> Result<String> {
    // Scheduled faults belong in `spec.faults` (merged into the network
    // by `ScenarioSpec::effective_net`); a base model already carrying
    // them would be silently lost on round trip.
    if !spec.net.faults().is_empty() {
        return Err(ScenarioFileError::global(
            "the base network model must not carry faults directly; \
             put them in the spec's fault schedule ([faults.*])",
        ));
    }
    if spec.net.mobility().is_some() {
        return Err(ScenarioFileError::global(
            "the base network model must not carry a mobility trace directly; \
             put it in the spec's mobility field ([mobility])",
        ));
    }
    let mut text = String::new();
    let out = &mut text;
    let head = vec![
        ("arch", Value::Str(spec.arch.name().to_string())),
        ("nodes", int(spec.n)),
        ("seed", Value::Int(spec.seed.into())),
        ("shards", int(spec.shards)),
        ("placement", Value::Str(spec.placement.name().to_string())),
        ("adaptive_window", Value::Bool(spec.adaptive_window)),
    ];
    put(out, &SCENARIO, Some(head))?;
    let topics = vec![
        ("count", int(spec.num_topics)),
        ("zipf_s", Value::Float(spec.zipf_s)),
    ];
    put(out, &TOPICS, Some(topics))?;
    put(out, &INTEREST, Some(appetite_pairs(&spec.appetite)))?;
    put(out, &PUBLISH, Some(plan_pairs(&spec.plan)))?;
    put(out, &FLASH, spec.plan.flash.as_ref().map(flash_pairs))?;
    put(out, &CHURN, spec.churn.as_ref().map(churn_pairs))?;
    put(out, &NETWORK, Some(net_pairs(&spec.net)))?;
    put(
        out,
        &FAULT_PARTITION,
        spec.faults.partition.as_ref().map(partition_pairs),
    )?;
    put(
        out,
        &FAULT_ONEWAY,
        spec.faults.oneway.as_ref().map(oneway_pairs),
    )?;
    put(
        out,
        &FAULT_DELAY,
        spec.faults.delay.as_ref().map(delay_pairs),
    )?;
    if let Some(m) = &spec.mobility {
        mobility_rule(m, None)?;
        let period = m.period.map(|p| ("period", Value::Time(p.as_micros())));
        let header = [("split", Value::Int(m.split.into()))]
            .into_iter()
            .chain(period);
        put(out, &MOBILITY, Some(header.collect()))?;
        for (k, s) in m.segments.iter().enumerate() {
            let path = format!("mobility.seg{k}");
            write_section(out, &MOBILITY_SEGMENT, &path, segment_pairs(s))?;
        }
    }
    put(out, &MEMBERSHIP, spec.membership.as_ref().map(swim_pairs))?;
    put(
        out,
        &TELEMETRY,
        spec.telemetry.as_ref().map(telemetry_pairs),
    )?;
    put(out, &PROFILE, spec.profile.as_ref().map(profile_pairs))?;
    put(out, &TRACE, spec.trace.as_ref().map(trace_pairs))?;
    product_rule(spec, None, None)?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        [scenario]
        arch = "fair-gossip"
        nodes = 64
        seed = 7

        [topics]
        count = 20

        [interest]
        appetite = "fixed"
        topics_per_node = 3

        [publish]
        rate_per_sec = 10.0
        duration = "5s"
    "#;

    #[test]
    fn minimal_file_parses_with_defaults() {
        let f = parse_scenario(MINIMAL).unwrap();
        assert_eq!(f.spec.arch, Architecture::FairGossip);
        assert_eq!(f.spec.n, 64);
        assert_eq!(f.spec.seed, 7);
        assert_eq!(f.spec.shards, 1);
        assert_eq!(f.spec.placement, Placement::RoundRobin);
        assert!(f.spec.adaptive_window);
        assert_eq!(f.spec.appetite, Appetite::Fixed(3));
        assert_eq!(f.spec.plan.warmup, SimTime::from_secs(1));
        assert_eq!(f.spec.plan.payload_bytes, 64);
        assert!(f.spec.churn.is_none());
        assert!(f.spec.telemetry.is_none());
        assert_eq!(
            *f.spec.net.latency_model(),
            LatencyModel::Constant(SimDuration::from_millis(10))
        );
        // The minimal file materializes.
        f.spec.materialize().unwrap();
    }

    #[test]
    fn full_file_parses_every_knob() {
        let input = r#"
            [scenario]
            name = "kitchen-sink"
            summary = "every knob at once"
            arch = "scribe"
            nodes = 128          # trailing comment
            seed = 99
            shards = 4
            placement = "balanced"
            adaptive_window = false

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
            topic_zipf_s = 0.8
            payload_bytes = 256

            [publish.flash]
            at = "6s"
            topic_zipf_s = 3.5
            rate_factor = 4.0

            [churn]
            mean_session_secs = 12.0
            mean_downtime_secs = 3.0
            churning_fraction = 0.4
            duration = "8s"
            warmup = "1s"

            [network]
            latency = "lognormal"
            median_ms = 40.0
            sigma = 0.6
            floor = "5ms"
            loss = 0.01

            [telemetry]
            window = "250ms"
            load_hi = 128.0
            load_buckets = 128
            latency_hi_ms = 400.0
            latency_buckets = 80

            [profile]
            trace = "TRACE_kitchen-sink.json"
        "#;
        let f = parse_scenario(input).unwrap();
        assert_eq!(f.name.as_deref(), Some("kitchen-sink"));
        assert_eq!(f.summary.as_deref(), Some("every knob at once"));
        let s = &f.spec;
        assert_eq!(s.arch, Architecture::Scribe);
        assert_eq!((s.n, s.shards, s.seed), (128, 4, 99));
        assert_eq!(s.placement, Placement::Balanced);
        assert!(!s.adaptive_window);
        assert_eq!((s.num_topics, s.zipf_s), (50, 1.2));
        assert_eq!(
            s.appetite,
            Appetite::Bimodal {
                heavy_fraction: 0.25,
                heavy: 12,
                light: 2
            }
        );
        assert_eq!(s.plan.rate_per_sec, 40.5);
        assert_eq!(s.plan.duration, SimTime::from_secs(10));
        assert_eq!(s.plan.warmup, SimTime::from_millis(500));
        assert_eq!(s.plan.payload_bytes, 256);
        let flash = s.plan.flash.unwrap();
        assert_eq!(flash.at, SimTime::from_secs(6));
        assert_eq!(flash.rate_factor, 4.0);
        let churn = s.churn.unwrap();
        assert_eq!(churn.mean_session_secs, 12.0);
        assert_eq!(churn.churning_fraction, 0.4);
        assert_eq!(
            *s.net.latency_model(),
            LatencyModel::LogNormalMs {
                median_ms: 40.0,
                sigma: 0.6,
                floor: SimDuration::from_millis(5)
            }
        );
        assert_eq!(s.net.loss_probability(), 0.01);
        let t = s.telemetry.unwrap();
        assert_eq!(t.window, SimDuration::from_millis(250));
        assert_eq!((t.load_buckets, t.latency_buckets), (128, 80));
        let p = s.profile.clone().unwrap();
        assert_eq!(p.trace.as_deref(), Some("TRACE_kitchen-sink.json"));
        // And it round-trips exactly.
        let reparsed = spec_from_toml(&to_toml(s).unwrap()).unwrap();
        assert_eq!(*s, reparsed);
    }

    #[test]
    fn empty_profile_section_enables_profiling_with_defaults() {
        let input = format!("{MINIMAL}\n[profile]\n");
        let f = parse_scenario(&input).unwrap();
        assert_eq!(f.spec.profile, Some(ProfileSpec::default()));
        // No section at all means no profiling.
        assert!(parse_scenario(MINIMAL).unwrap().spec.profile.is_none());
        // Unknown keys in [profile] are rejected like everywhere else.
        let bad = format!("{MINIMAL}\n[profile]\ntrace_path = \"x.json\"\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("unknown key `trace_path`"), "{err}");
        assert!(err.message.contains("trace"), "{err}");
        // An empty trace path is rejected by the spec check.
        let bad = format!("{MINIMAL}\n[profile]\ntrace = \"  \"\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("[profile]"), "{err}");
    }

    #[test]
    fn trace_section_parses_and_validates() {
        // An empty section enables tracing with the defaults.
        let input = format!("{MINIMAL}\n[trace]\n");
        let f = parse_scenario(&input).unwrap();
        assert_eq!(f.spec.trace, Some(TraceSpec::default()));
        // No section at all means no tracing.
        assert!(parse_scenario(MINIMAL).unwrap().spec.trace.is_none());
        // All knobs round through.
        let input = format!(
            "{MINIMAL}\n[trace]\nsample_rate = 0.25\nsalt = 42\nexport = \"traces/t.json\"\n"
        );
        let t = parse_scenario(&input).unwrap().spec.trace.unwrap();
        assert_eq!(t.sample_rate, 0.25);
        assert_eq!(t.salt, 42);
        assert_eq!(t.export.as_deref(), Some("traces/t.json"));
        // Out-of-range rates and unknown keys are rejected.
        let bad = format!("{MINIMAL}\n[trace]\nsample_rate = 1.5\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("fraction"), "{err}");
        let bad = format!("{MINIMAL}\n[trace]\nrate = 0.5\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("unknown key `rate`"), "{err}");
        // An empty export path is rejected by the spec check.
        let bad = format!("{MINIMAL}\n[trace]\nexport = \" \"\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("[trace]"), "{err}");
    }

    #[test]
    fn unknown_key_is_an_error_with_line_and_suggestions() {
        let input = MINIMAL.replace("rate_per_sec = 10.0", "ratez = 10.0");
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.line.is_some());
        assert!(err.message.contains("unknown key `ratez`"), "{err}");
        assert!(err.message.contains("rate_per_sec"), "{err}");
        // …and the section-level required-key error still fires.
        assert!(parse_scenario(&input.replace("ratez = 10.0", "")).is_err());
    }

    #[test]
    fn unknown_section_is_an_error() {
        let input = format!("{MINIMAL}\n[pubs]\nx = 1\n");
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.message.contains("unknown section [pubs]"), "{err}");
    }

    #[test]
    fn bad_duration_unit_is_an_error() {
        let input = MINIMAL.replace("\"5s\"", "\"5sec\"");
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.message.contains("bad duration"), "{err}");
        assert!(err.message.contains("publish"), "{err}");
        // A bare number is not a duration either.
        let input = MINIMAL.replace("\"5s\"", "5");
        assert!(parse_scenario(&input).is_err());
    }

    #[test]
    fn out_of_range_shards_is_an_error() {
        let input = MINIMAL.replace("seed = 7", "seed = 7\nshards = 0");
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        let input = MINIMAL.replace("seed = 7", "seed = 7\nshards = 4096");
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
    }

    #[test]
    fn unknown_arch_lists_valid_names() {
        let input = MINIMAL.replace("fair-gossip", "gossipzilla");
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.message.contains("gossipzilla"), "{err}");
        assert!(err.message.contains("splitstream"), "{err}");
    }

    #[test]
    fn duplicate_key_and_section_are_errors() {
        let input = MINIMAL.replace("nodes = 64", "nodes = 64\nnodes = 65");
        assert!(parse_scenario(&input)
            .unwrap_err()
            .message
            .contains("duplicate key"));
        let input = format!("{MINIMAL}\n[topics]\ncount = 2\n");
        assert!(parse_scenario(&input)
            .unwrap_err()
            .message
            .contains("duplicate section"));
    }

    #[test]
    fn type_mismatches_are_actionable() {
        let input = MINIMAL.replace("nodes = 64", "nodes = \"many\"");
        let err = parse_scenario(&input).unwrap_err();
        assert!(err.message.contains("expected an integer"), "{err}");
        let input = MINIMAL.replace("count = 20", "count = 20.5");
        assert!(parse_scenario(&input).is_err());
    }

    #[test]
    fn underscore_grouping_works_in_integers_and_floats() {
        let input = MINIMAL
            .replace("nodes = 64", "nodes = 1_000")
            .replace("rate_per_sec = 10.0", "rate_per_sec = 1_000.5");
        let f = parse_scenario(&input).unwrap();
        assert_eq!(f.spec.n, 1000);
        assert_eq!(f.spec.plan.rate_per_sec, 1000.5);
    }

    #[test]
    fn loss_probability_range_is_enforced() {
        let with_net =
            format!("{MINIMAL}\n[network]\nlatency = \"constant\"\ndelay = \"10ms\"\nloss = 1.0\n");
        let err = parse_scenario(&with_net).unwrap_err();
        assert!(err.message.contains("[0, 1)"), "{err}");
    }

    #[test]
    fn comments_and_strings_interact_correctly() {
        let input = MINIMAL.replace("[topics]", "[topics] # the universe\n# full-line comment");
        parse_scenario(&input).unwrap();
        let named = MINIMAL.replace(
            "[scenario]",
            "[scenario]\nname = \"has # hash and \\\"quotes\\\"\"",
        );
        let f = parse_scenario(&named).unwrap();
        assert_eq!(f.name.as_deref(), Some("has # hash and \"quotes\""));
    }

    #[test]
    fn standard_specs_round_trip() {
        for arch in Architecture::ALL {
            let spec = ScenarioSpec::standard(arch, 200, 13)
                .with_shards(7)
                .with_placement(Placement::Balanced);
            let toml = to_toml(&spec).unwrap();
            assert_eq!(spec_from_toml(&toml).unwrap(), spec, "{toml}");
        }
    }

    #[test]
    fn faults_and_membership_parse_and_round_trip() {
        let input = format!(
            "{MINIMAL}\n\
             [faults.partition]\nat = \"2s\"\nheal = \"4s\"\nsplit = 8\n\n\
             [faults.oneway]\nat = \"1s\"\nuntil = \"3s\"\nsplit = 32\n\n\
             [faults.delay]\nat = \"500ms\"\nuntil = \"2500ms\"\nextra = \"40ms\"\n\n\
             [membership]\nprobe_period = \"250ms\"\nping_req_fanout = 2\n"
        );
        let f = parse_scenario(&input).unwrap();
        let faults = &f.spec.faults;
        assert_eq!(
            faults.partition,
            Some(PartitionFault {
                at: SimTime::from_secs(2),
                heal: SimTime::from_secs(4),
                split: 8,
            })
        );
        assert_eq!(
            faults.oneway,
            Some(OnewayFault {
                at: SimTime::from_secs(1),
                until: SimTime::from_secs(3),
                split: 32,
            })
        );
        assert_eq!(
            faults.delay,
            Some(DelayFault {
                at: SimTime::from_millis(500),
                until: SimTime::from_millis(2500),
                extra: SimDuration::from_millis(40),
            })
        );
        // Unset [membership] keys fall back to the standard config.
        let m = f.spec.membership.as_ref().unwrap();
        assert_eq!(m.probe_period, SimDuration::from_millis(250));
        assert_eq!(m.ping_req_fanout, 2);
        assert_eq!(m.suspect_timeout, SwimConfig::standard().suspect_timeout);
        // And the whole thing survives a round trip.
        let toml = to_toml(&f.spec).unwrap();
        assert_eq!(spec_from_toml(&toml).unwrap(), f.spec, "{toml}");
    }

    #[test]
    fn degenerate_fault_windows_are_rejected() {
        let bad = format!("{MINIMAL}\n[faults.partition]\nat = \"4s\"\nheal = \"4s\"\nsplit = 8\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("at < heal"), "{err}");
        let bad = format!("{MINIMAL}\n[faults.oneway]\nat = \"4s\"\nuntil = \"1s\"\nsplit = 8\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("at < until"), "{err}");
        let bad =
            format!("{MINIMAL}\n[faults.delay]\nat = \"4s\"\nuntil = \"4s\"\nextra = \"1ms\"\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("at < until"), "{err}");
    }

    #[test]
    fn zero_probe_period_is_rejected() {
        let bad = format!("{MINIMAL}\n[membership]\nprobe_period = \"0ms\"\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("probe_period"), "{err}");
        // An empty [membership] section enables the standard detector.
        let ok = format!("{MINIMAL}\n[membership]\n");
        let f = parse_scenario(&ok).unwrap();
        assert_eq!(f.spec.membership, Some(SwimConfig::standard()));
    }

    #[test]
    fn net_carrying_faults_directly_is_unrepresentable() {
        let mut spec = ScenarioSpec::fair_gossip(8, 1);
        spec.net.faults_mut().delay = Some(DelayFault {
            at: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
            extra: SimDuration::from_millis(5),
        });
        let err = to_toml(&spec).unwrap_err();
        assert!(err.message.contains("fault schedule"), "{err}");
    }

    #[test]
    fn mobility_trace_parses_and_round_trips() {
        let input = format!(
            "{MINIMAL}\n\
             [mobility]\nsplit = 16\nperiod = \"2s\"\n\n\
             [mobility.seg0]\nat = \"0s\"\nextra = \"30ms\"\n\n\
             [mobility.seg1]\nat = \"1500ms\"\ndisconnected = true\n"
        );
        let f = parse_scenario(&input).unwrap();
        let m = f.spec.mobility.as_ref().unwrap();
        assert_eq!(m.split, 16);
        assert_eq!(m.period, Some(SimDuration::from_secs(2)));
        assert_eq!(
            m.segments,
            vec![
                MobilitySegment {
                    at: SimTime::ZERO,
                    extra: SimDuration::from_millis(30),
                    disconnected: false,
                },
                MobilitySegment {
                    at: SimTime::from_millis(1500),
                    extra: SimDuration::ZERO,
                    disconnected: true,
                },
            ]
        );
        let toml = to_toml(&f.spec).unwrap();
        assert_eq!(spec_from_toml(&toml).unwrap(), f.spec, "{toml}");
        // An aperiodic trace round-trips without a period key.
        let input = format!(
            "{MINIMAL}\n\
             [mobility]\nsplit = 4\n\n\
             [mobility.seg0]\nat = \"3s\"\ndisconnected = true\n"
        );
        let f = parse_scenario(&input).unwrap();
        assert_eq!(f.spec.mobility.as_ref().unwrap().period, None);
        let toml = to_toml(&f.spec).unwrap();
        assert_eq!(spec_from_toml(&toml).unwrap(), f.spec, "{toml}");
    }

    #[test]
    fn mobility_invalid_traces_are_rejected() {
        // No segments at all.
        let bad = format!("{MINIMAL}\n[mobility]\nsplit = 4\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("at least one segment"), "{err}");
        // Non-increasing segment instants.
        let bad = format!(
            "{MINIMAL}\n[mobility]\nsplit = 4\n\n\
             [mobility.seg0]\nat = \"1s\"\n\n[mobility.seg1]\nat = \"1s\"\n"
        );
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("strictly increasing"), "{err}");
        // Segment at or past the period.
        let bad = format!(
            "{MINIMAL}\n[mobility]\nsplit = 4\nperiod = \"1s\"\n\n\
             [mobility.seg0]\nat = \"1s\"\n"
        );
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("past the period"), "{err}");
        // Zero period.
        let bad = format!(
            "{MINIMAL}\n[mobility]\nsplit = 4\nperiod = \"0s\"\n\n\
             [mobility.seg0]\nat = \"0s\"\n"
        );
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("positive"), "{err}");
    }

    #[test]
    fn mobility_segment_bookkeeping_errors_are_targeted() {
        // A segment without its parent [mobility].
        let bad = format!("{MINIMAL}\n[mobility.seg0]\nat = \"0s\"\n");
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("parent [mobility]"), "{err}");
        // A gap in the numbering: seg0 then seg2.
        let bad = format!(
            "{MINIMAL}\n[mobility]\nsplit = 4\n\n\
             [mobility.seg0]\nat = \"0s\"\n\n[mobility.seg2]\nat = \"2s\"\n"
        );
        let err = parse_scenario(&bad).unwrap_err();
        assert!(err.message.contains("[mobility.seg1]"), "{err}");
        // Unknown keys inside a segment are rejected like everywhere else.
        let bad = format!(
            "{MINIMAL}\n[mobility]\nsplit = 4\n\n\
             [mobility.seg0]\nat = \"0s\"\nextraa = \"1ms\"\n"
        );
        let err = parse_scenario(&bad).unwrap_err();
        assert!(
            err.message
                .contains("unknown key `extraa` in [mobility.seg0]"),
            "{err}"
        );
    }

    #[test]
    fn net_carrying_mobility_directly_is_unrepresentable() {
        let trace = MobilityTrace {
            split: 2,
            period: None,
            segments: vec![MobilitySegment {
                at: SimTime::ZERO,
                extra: SimDuration::from_millis(1),
                disconnected: false,
            }],
        };
        let mut spec = ScenarioSpec::fair_gossip(8, 1);
        spec.net = spec.net.clone().with_mobility(Some(trace.clone()));
        let err = to_toml(&spec).unwrap_err();
        assert!(err.message.contains("mobility trace directly"), "{err}");
        // In the spec's mobility field the same trace serializes fine.
        let spec = ScenarioSpec::fair_gossip(8, 1).with_mobility(trace);
        let toml = to_toml(&spec).unwrap();
        assert_eq!(spec_from_toml(&toml).unwrap(), spec, "{toml}");
    }

    #[test]
    fn odd_durations_round_trip_in_exact_units() {
        assert_eq!(fmt_duration_us(2_000_000), "\"2s\"");
        assert_eq!(fmt_duration_us(1_500_000), "\"1500ms\"");
        assert_eq!(fmt_duration_us(1_234_567), "\"1234567us\"");
        for us in [0u64, 1, 999, 1_000, 1_001, 1_500_000, u64::MAX] {
            let formatted = fmt_duration_us(us);
            let stripped = formatted.trim_matches('"');
            assert_eq!(parse_duration_str(stripped), Some(us), "{formatted}");
        }
        assert_eq!(parse_duration_str("10sec"), None);
        assert_eq!(parse_duration_str("-5ms"), None);
        assert_eq!(parse_duration_str("1.5s"), None);
        assert_eq!(parse_duration_str("ms"), None);
    }

    /// A spec built in code that the parser would reject is an `Err`
    /// naming `[section] key` — never `Ok(text that does not parse)`.
    #[test]
    fn to_toml_rejects_what_the_parser_rejects() {
        type Edit = fn(&mut ScenarioSpec);
        let ten_ms = SimDuration::from_millis(10);
        let cases: [(&str, Edit); 16] = [
            ("[scenario] shards", |s| *s = s.clone().with_shards(600)),
            ("[scenario] nodes", |s| s.n = 0),
            ("[topics] zipf_s", |s| s.zipf_s = f64::NAN),
            ("[topics] count", |s| s.num_topics = 0),
            ("[publish] rate_per_sec", |s| s.plan.rate_per_sec = -1.0),
            ("[publish] rate_per_sec", |s| {
                s.plan.rate_per_sec = f64::INFINITY
            }),
            ("[publish] payload_bytes", |s| {
                s.plan.payload_bytes = (1 << 20) + 1
            }),
            ("[publish] warmup + duration", |s| {
                s.plan.duration = SimTime::from_micros(u64::MAX)
            }),
            ("[interest] uniform appetite needs lo <= hi", |s| {
                s.appetite = Appetite::Uniform { lo: 5, hi: 2 }
            }),
            ("[interest] heavy_fraction", |s| {
                s.appetite = Appetite::Bimodal {
                    heavy_fraction: 1.5,
                    heavy: 3,
                    light: 1,
                }
            }),
            ("[scenario] nodes × [topics] count = 5000000 × 30", |s| {
                s.n = 5_000_000;
                s.num_topics = 30;
                s.appetite = Appetite::Fixed(40);
            }),
            (
                "[publish] rate_per_sec × duration × [publish.flash] rate_factor",
                |s| {
                    s.plan.rate_per_sec = 1_000.0;
                    s.plan.duration = SimTime::from_secs(50_000);
                    s.plan.flash = Some(FlashCrowd {
                        at: SimTime::from_secs(2),
                        topic_zipf_s: 2.0,
                        rate_factor: 3.0,
                    });
                },
            ),
            ("[network] uniform latency needs lo <= hi", |s| {
                let (lo, hi) = (SimDuration::from_millis(20), SimDuration::from_millis(10));
                s.net = NetworkModel::reliable(LatencyModel::Uniform { lo, hi })
            }),
            ("[network] loss", |s| {
                s.net = NetworkModel::lossy(s.net.latency_model().clone(), f64::NAN)
            }),
            ("[membership] probe_period", |s| {
                s.membership = Some(SwimConfig {
                    probe_period: SimDuration::ZERO,
                    ..SwimConfig::standard()
                })
            }),
            ("[trace] sample_rate", |s| {
                s.trace = Some(TraceSpec {
                    sample_rate: 2.0,
                    ..TraceSpec::default()
                })
            }),
        ];
        for (names, edit) in cases {
            let mut spec = ScenarioSpec::fair_gossip(64, 7);
            edit(&mut spec);
            let err = to_toml(&spec).expect_err(names);
            assert_eq!(err.line, None, "{err}");
            assert!(err.message.contains(names), "{names}: {err}");
        }
        // `NetworkModel::lossy` clamps, so a loss of 1.0 cannot reach
        // `to_toml` inside a spec; the write pass rejects it all the same.
        let pairs = vec![
            ("latency", Value::Str("constant".to_string())),
            ("delay", Value::Time(ten_ms.as_micros())),
            ("loss", Value::Float(1.0)),
        ];
        let err = write_section(&mut String::new(), &NETWORK, "network", pairs).unwrap_err();
        assert!(
            err.message
                .contains("[network] loss: 1 must be a loss probability in [0, 1)"),
            "{err}"
        );
    }

    #[test]
    fn strings_are_written_with_the_escapes_the_lexer_reads() {
        let path = "out\\new \"a\"\t.json";
        let spec = ScenarioSpec::fair_gossip(64, 7)
            .with_profile(ProfileSpec {
                trace: Some(path.to_string()),
            })
            .with_trace(TraceSpec {
                export: Some("a\nb".to_string()),
                ..TraceSpec::default()
            });
        let toml = to_toml(&spec).unwrap();
        assert!(
            toml.contains(r#"trace = "out\\new \"a\"\t.json""#),
            "{toml}"
        );
        assert!(toml.contains(r#"export = "a\nb""#), "{toml}");
        assert_eq!(spec_from_toml(&toml).unwrap(), spec, "{toml}");
        // A control character the format has no escape for is an error
        // naming the key, not a file that parses back to something else.
        for bad in ["a\rb", "bell\u{7}", "nel\u{85}"] {
            let spec = ScenarioSpec::fair_gossip(64, 7).with_profile(ProfileSpec {
                trace: Some(bad.to_string()),
            });
            let err = to_toml(&spec).unwrap_err();
            assert!(err.message.contains("[profile] trace"), "{err}");
            assert!(err.message.contains("control character"), "{err}");
        }
    }

    /// Every `Def` and every listed default passes its own key's check,
    /// and every `when` names a key after its section's selector.
    #[test]
    fn schema_defaults_conform_to_their_own_rows() {
        for sec in SCHEMA {
            let listed = sec.defaults.map(|list| list()).unwrap_or_default();
            for (name, _) in &listed {
                assert!(
                    sec.keys.iter().any(|k| k.name == *name),
                    "[{}] {name}",
                    sec.path
                );
            }
            for key in sec.keys {
                let default = match key.need {
                    Def(value) => Some(value()),
                    _ => listed
                        .iter()
                        .find(|(name, _)| *name == key.name)
                        .map(|(_, v)| v.clone()),
                };
                if let Some(value) = default {
                    let conformed = conform_value(key.ty, value.clone());
                    assert_eq!(conformed, Ok(value), "[{}] {}", sec.path, key.name);
                }
                assert!(
                    key.when.is_none() || sec.selector.is_some(),
                    "[{}] {}",
                    sec.path,
                    key.name
                );
            }
            if let Some((selector, _)) = sec.selector {
                assert_eq!(
                    sec.keys[0].name, selector,
                    "[{}] selector comes first",
                    sec.path
                );
            }
        }
    }

    /// The reference tables of docs/SCENARIOS.md as rows of
    /// `(key, type cell, default cell)` under `(section, selector value)`,
    /// plus what each `###` heading says about required / optional.
    type DocTables = BTreeMap<(String, Option<String>), Vec<(String, String, String)>>;

    fn documented_reference() -> (DocTables, BTreeMap<String, bool>) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SCENARIOS.md");
        let doc = std::fs::read_to_string(path).expect("docs/SCENARIOS.md is readable");
        let reference = doc
            .split("\n## ")
            .find(|chapter| chapter.starts_with("Reference"))
            .expect("docs/SCENARIOS.md has a `## Reference` chapter");
        let bracketed = |line: &str| -> Vec<String> {
            let parts = line.split("`[").skip(1);
            parts
                .filter_map(|p| p.split_once("]`").map(|(path, _)| path.to_string()))
                .collect()
        };
        let (mut tables, mut required) = (DocTables::new(), BTreeMap::new());
        let (mut section, mut when, mut in_table) = (String::new(), None, false);
        for line in reference.lines() {
            if line.starts_with("### ") || line.starts_with("`[") {
                let named = bracketed(line);
                section = named.first().expect("a heading names its section").clone();
                when = None;
                if line.starts_with("### ") {
                    required.extend(named.into_iter().map(|p| (p, line.contains("— required"))));
                }
            } else if let Some(rest) = line.strip_prefix('`') {
                // "`appetite = "fixed"` — …" opens the tables of one selector value.
                let selector = SCHEMA
                    .iter()
                    .find(|s| s.path == section)
                    .and_then(|s| s.selector);
                let value =
                    selector.and_then(|(key, _)| rest.strip_prefix(key)?.strip_prefix(" = \""));
                if let Some((value, _)) = value.and_then(|v| v.split_once('"')) {
                    when = Some(value.to_string());
                }
            }
            if line.starts_with("| Key | Type | Default |") {
                in_table = true;
            } else if !line.starts_with('|') {
                in_table = false;
            } else if in_table && line.starts_with("| `") {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                let row = (
                    cells[1].trim_matches('`').to_string(),
                    cells[2].to_string(),
                    cells[3].to_string(),
                );
                tables
                    .entry((section.clone(), when.clone()))
                    .or_default()
                    .push(row);
            }
        }
        (tables, required)
    }

    /// docs/SCENARIOS.md lists exactly the schema's keys — per selector
    /// value where a section has one — with the schema's types and the
    /// defaults the write pass renders. Only the Meaning column is free.
    #[test]
    fn scenarios_doc_reference_tables_match_the_schema() {
        let (tables, required) = documented_reference();
        for sec in SCHEMA {
            assert_eq!(
                required.get(sec.path),
                Some(&sec.required),
                "docs/SCENARIOS.md: the `### … [{}]` heading must say `— {}`",
                sec.path,
                if sec.required { "required" } else { "optional" }
            );
            let listed = sec.defaults.map(|list| list()).unwrap_or_default();
            let mut whens: Vec<Option<&str>> = sec.keys.iter().map(|k| k.when).collect();
            whens.dedup();
            for when in whens {
                let under = match when {
                    Some(value) => {
                        format!("[{}] under `{} = \"{value}\"`", sec.path, sec.keys[0].name)
                    }
                    None => format!("[{}]", sec.path),
                };
                let rows = tables.get(&(sec.path.to_string(), when.map(str::to_string)));
                let rows = rows
                    .unwrap_or_else(|| panic!("docs/SCENARIOS.md has no key table for {under}"));
                let keys = sec.keys.iter().filter(|k| k.when == when);
                for key in keys.clone() {
                    let ty = match key.ty {
                        Str => "string",
                        Int { .. } => "integer",
                        Float(_) => "float",
                        Bool => "boolean",
                        Time => "duration",
                    };
                    let default = match key.need {
                        Req => "**required**".to_string(),
                        Def(value) => format!("`{}`", render(&value()).unwrap()),
                        Opt => match listed.iter().find(|(name, _)| *name == key.name) {
                            Some((_, value)) => format!("`{}`", render(value).unwrap()),
                            None => "—".to_string(),
                        },
                    };
                    let expected = format!("| `{}` | {ty} | {default} | … |", key.name);
                    let row = rows.iter().find(|(name, ..)| name == key.name);
                    let (_, doc_ty, doc_default) = row.unwrap_or_else(|| {
                        panic!("docs/SCENARIOS.md: the table for {under} lacks the row {expected}")
                    });
                    assert!(
                        doc_ty == ty && *doc_default == default,
                        "docs/SCENARIOS.md: in the table for {under} the row for `{}` must read {expected}",
                        key.name
                    );
                }
                for (name, ..) in rows {
                    assert!(
                        keys.clone().any(|k| k.name == name),
                        "docs/SCENARIOS.md: the table for {under} documents `{name}`, which is not a key of it"
                    );
                }
            }
        }
        for (section, when) in tables.keys() {
            let sec = SCHEMA.iter().find(|s| s.path == section);
            let known = sec.is_some_and(|s| s.keys.iter().any(|k| k.when == when.as_deref()));
            assert!(known, "docs/SCENARIOS.md: a key table under [{section}] {when:?} matches no schema section");
        }
    }
}
