//! Declarative scenario files: a TOML format for [`ScenarioSpec`].
//!
//! Scenarios are *data, not code*: everything a [`ScenarioSpec`] can
//! express — architecture, population, shards, placement, interest
//! profile, publication plan (flash crowd included),
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
//! Every section is one static `Section` in this module: its path,
//! whether it is required, the struct it reads into (`base`), and one
//! row per key — name, type with range, required or optional, the
//! selector value it applies under, and the struct field it binds (a
//! projection to a `Slot`). A default is the base struct's value. The
//! read pass conforms a lexed section (unknown-key, missing-key, type,
//! range and does-not-apply errors), stores each value in the field its
//! row binds and runs the section's cross-field `rule` on the built
//! struct; the write pass lists each row's field, conforms the list the
//! same way, runs the same `rule` and renders the text. Only the two
//! selector sections read and list their variant's keys by hand:
//! `[interest]` (`appetite_of` / `appetite_pairs`) and `[network]`
//! (`latency_of` / `latency_pairs`). Adding a knob to a section is **one
//! row**; the docs test in this module then fails naming the row
//! `docs/SCENARIOS.md` lacks.

use crate::churn::ChurnPlan;
use crate::interest::Appetite;
use crate::pubs::{FlashCrowd, PubPlan};
use crate::scenario::{Architecture, Placement, ScenarioSpec};
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

/// Most subscription entries (`nodes × topics per node`), most
/// publications (`rate × duration`) and most node-windows (`nodes ×`
/// telemetry windows) a scenario file may request. Each key is in range
/// on its own; this bounds their products, so a file that parses cannot
/// ask for more memory or work than the run can afford.
pub const MAX_PRODUCT: u64 = 100_000_000;

/// Most telemetry windows (`⌈horizon / [telemetry] window⌉`) a scenario
/// file may request. Each window keeps its series row: a fixed ~200 B of
/// counters plus 8 B per bucket of its two histograms, whose geometry is
/// fixed at 64 + 40 buckets. A row is ≈ 1 KB, so this caps the series
/// near 100 MB.
pub const MAX_WINDOWS: u64 = 100_000;

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
    /// The sections not read yet.
    sections: BTreeMap<String, Lexed>,
    /// The sections read, kept for the lines cross-section rules blame.
    done: BTreeMap<String, Lexed>,
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
    Ok(Document {
        sections,
        done: BTreeMap::new(),
    })
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
#[derive(Clone, Copy, PartialEq)]
enum Need {
    /// An error, blamed on the section header.
    Req,
    /// The base struct's value. The write pass lists the key, unless its
    /// field is an `Option` holding `None`.
    Opt,
    /// Like `Opt`, but the write pass leaves the key out while its field
    /// holds the base's value.
    Sparse,
}

/// The struct field a key binds, borrowed: the read pass stores the
/// key's conformed value in it, the write pass lists it.
enum Slot<'a> {
    Int(&'a mut usize),
    U32(&'a mut u32),
    U64(&'a mut u64),
    Float(&'a mut f64),
    Bool(&'a mut bool),
    Instant(&'a mut SimTime),
    Duration(&'a mut SimDuration),
    /// An absent key is `None`.
    OptDuration(&'a mut Option<SimDuration>),
    /// An absent key is `None`.
    OptStr(&'a mut Option<String>),
    Arch(&'a mut Architecture),
    Placement(&'a mut Placement),
    /// The loss probability, which [`NetworkModel`] keeps private.
    Loss(&'a mut NetworkModel),
}

impl Slot<'_> {
    /// The field as the write pass lists it; `None` leaves the key out.
    fn get(&self) -> Option<Value> {
        Some(match self {
            Slot::Int(x) => Value::Int(**x as i128),
            Slot::U32(x) => Value::Int((**x).into()),
            Slot::U64(x) => Value::Int((**x).into()),
            Slot::Float(x) => Value::Float(**x),
            Slot::Bool(x) => Value::Bool(**x),
            Slot::Instant(t) => Value::Time(t.as_micros()),
            Slot::Duration(d) => Value::Time(d.as_micros()),
            Slot::OptDuration(d) => Value::Time((**d)?.as_micros()),
            Slot::OptStr(s) => Value::Str((**s).clone()?),
            Slot::Arch(a) => Value::Str(a.name().to_string()),
            Slot::Placement(p) => Value::Str(p.name().to_string()),
            Slot::Loss(net) => Value::Float(net.loss_probability()),
        })
    }

    /// Stores a value [`conform`] has checked against the key's row. A
    /// name no variant of the enum has is the one error left.
    fn set(self, value: Value) -> std::result::Result<(), String> {
        match (self, value) {
            // Every `Int` row's range fits the field it binds.
            (Slot::Int(x), Value::Int(i)) => *x = i as usize,
            (Slot::U32(x), Value::Int(i)) => *x = i as u32,
            (Slot::U64(x), Value::Int(i)) => *x = i as u64,
            (Slot::Float(x), Value::Float(v)) => *x = v,
            (Slot::Bool(x), Value::Bool(b)) => *x = b,
            (Slot::Instant(t), Value::Time(us)) => *t = SimTime::from_micros(us),
            (Slot::Duration(d), Value::Time(us)) => *d = SimDuration::from_micros(us),
            (Slot::OptDuration(d), Value::Time(us)) => *d = Some(SimDuration::from_micros(us)),
            (Slot::OptStr(s), Value::Str(v)) => *s = Some(v),
            (Slot::Arch(a), Value::Str(name)) => {
                let valid = Architecture::ALL.map(Architecture::name);
                *a = named(Architecture::parse(&name), &name, "architecture", &valid)?;
            }
            (Slot::Placement(p), Value::Str(name)) => {
                let valid = Placement::ALL.map(Placement::name);
                *p = named(Placement::parse(&name), &name, "policy", &valid)?;
            }
            (Slot::Loss(net), Value::Float(loss)) => {
                let latency = net.latency_model().clone();
                *net = match loss {
                    loss if loss > 0.0 => NetworkModel::lossy(latency, loss),
                    _ => NetworkModel::reliable(latency),
                };
            }
            _ => unreachable!("conform gives a key a value of its row's type"),
        }
        Ok(())
    }
}

/// The variant `name` parsed to, or the error listing the `valid` names.
fn named<T>(
    parsed: Option<T>,
    name: &str,
    noun: &str,
    valid: &[&str],
) -> std::result::Result<T, String> {
    parsed.ok_or_else(|| format!("unknown {noun} {name:?} (valid: {})", valid.join(", ")))
}

/// A row's projection from the section's struct to the field it binds.
type Field<T> = fn(&mut T) -> Slot<'_>;

struct Key<T> {
    name: &'static str,
    ty: Ty,
    need: Need,
    /// The selector value this key applies under; `None` = always.
    when: Option<&'static str>,
    /// The field the key binds; `None` for the keys the section's
    /// [`Selector`] reads and lists by hand.
    field: Option<Field<T>>,
}

/// A key bound to the field `field` projects.
const fn key<T>(name: &'static str, ty: Ty, need: Need, field: Field<T>) -> Key<T> {
    Key {
        name,
        ty,
        need,
        when: None,
        field: Some(field),
    }
}

/// A section's selector key: a required string, read by hand.
const fn pick<T>(name: &'static str) -> Key<T> {
    Key {
        name,
        ty: Str,
        need: Req,
        when: None,
        field: None,
    }
}

/// A key of the variant the selector value `selected` picks, read by hand.
const fn when<T>(selected: &'static str, name: &'static str, ty: Ty, need: Need) -> Key<T> {
    Key {
        name,
        ty,
        need,
        when: Some(selected),
        field: None,
    }
}

const fn range(lo: u64, hi: u64) -> Ty {
    Ty::Int { lo, hi }
}

type Pair = (&'static str, Value);
type Rule<T> = fn(&T) -> std::result::Result<(), String>;

/// The hand-written half of a section whose first key picks a variant:
/// the variant's keys bind no field of their own.
struct Selector<T> {
    /// What the unknown-value error calls a value of the selector.
    noun: &'static str,
    /// Stores the variant a conformed section selects.
    read: fn(&Bag, &mut T),
    /// Lists the selector and its variant's keys.
    list: fn(&T) -> Vec<Pair>,
}

struct Section<T: 'static> {
    path: &'static str,
    /// Whether a file without the section is an error.
    required: bool,
    /// In the order `valid keys:` lists them and [`to_toml`] writes them
    /// (the keys a selector lists by hand first).
    keys: &'static [Key<T>],
    /// What a read starts from, so every absent key keeps its value here.
    base: fn() -> T,
    /// Set when the first key picks a variant.
    selector: Option<Selector<T>>,
    /// The cross-field check on the built struct, run in both
    /// directions. Its error is prefixed with `[path]` and blamed on the
    /// selector's line, else the header's.
    rule: Option<Rule<T>>,
}

/// What every section literal below updates: optional, no selector, no
/// rule, reading into copies of `base`.
const fn bare<T>(base: fn() -> T) -> Section<T> {
    Section {
        path: "",
        required: false,
        keys: &[],
        base,
        selector: None,
        rule: None,
    }
}

impl<T> Section<T> {
    /// Runs the section's rule on `value`, blaming `line`.
    fn check(&self, path: &str, value: &T, line: Option<usize>) -> Result<()> {
        let Some(rule) = self.rule else {
            return Ok(());
        };
        rule(value).map_err(|what| ScenarioFileError::new(line, format!("[{path}] {what}")))
    }
}

use FloatCheck::{Fraction, LossProbability, NonNegative, Positive};
use Need::{Opt, Req, Sparse};
use Ty::{Bool, Float, Int, Str, Time};

const U64: Ty = range(0, u64::MAX);
/// Topics a node subscribes to: at most the largest topic universe.
const APPETITE: Ty = range(0, 1_000_000);
/// A node-id boundary (`< split` on one side, the rest on the other);
/// [`split_rule`] keeps it inside the population.
const SPLIT: Ty = range(0, MAX_NODES as u64);

/// What `[scenario]`, `[topics]`, `[interest]`, `[publish]` and
/// `[network]` read into: their absent keys' defaults, and without a
/// `[network]` section the standard reliable 10 ms network.
fn base_spec() -> ScenarioSpec {
    ScenarioSpec {
        shards: 1,
        placement: Placement::RoundRobin,
        zipf_s: 1.0,
        plan: PubPlan::default(),
        net: NetworkModel::reliable(LatencyModel::Constant(SimDuration::from_millis(10))),
        ..ScenarioSpec::fair_gossip(1, 0)
    }
}

static SCENARIO: Section<ScenarioFile> = Section {
    path: "scenario",
    required: true,
    keys: &[
        key("name", Str, Opt, |f| Slot::OptStr(&mut f.name)),
        key("summary", Str, Opt, |f| Slot::OptStr(&mut f.summary)),
        key("arch", Str, Req, |f| Slot::Arch(&mut f.spec.arch)),
        key("nodes", range(1, MAX_NODES as u64), Req, |f| {
            Slot::Int(&mut f.spec.n)
        }),
        key("seed", U64, Req, |f| Slot::U64(&mut f.spec.seed)),
        key("shards", range(1, MAX_SHARDS as u64), Opt, |f| {
            Slot::Int(&mut f.spec.shards)
        }),
        key("placement", Str, Opt, |f| {
            Slot::Placement(&mut f.spec.placement)
        }),
    ],
    ..bare(|| ScenarioFile {
        name: None,
        summary: None,
        spec: base_spec(),
    })
};

static TOPICS: Section<ScenarioSpec> = Section {
    path: "topics",
    required: true,
    keys: &[
        key("count", range(1, 1_000_000), Req, |s| {
            Slot::Int(&mut s.num_topics)
        }),
        key("zipf_s", Float(NonNegative), Opt, |s| {
            Slot::Float(&mut s.zipf_s)
        }),
    ],
    ..bare(base_spec)
};

static INTEREST: Section<ScenarioSpec> = Section {
    path: "interest",
    required: true,
    keys: &[
        pick("appetite"),
        when("fixed", "topics_per_node", APPETITE, Req),
        when("uniform", "lo", APPETITE, Req),
        when("uniform", "hi", APPETITE, Req),
        when("bimodal", "heavy_fraction", Float(Fraction), Req),
        when("bimodal", "heavy", APPETITE, Req),
        when("bimodal", "light", APPETITE, Req),
    ],
    selector: Some(Selector {
        noun: "kind",
        read: |b, s| s.appetite = appetite_of(b),
        list: |s| appetite_pairs(&s.appetite),
    }),
    rule: Some(|s| match s.appetite {
        Appetite::Uniform { lo, hi } if lo > hi => {
            Err(format!("uniform appetite needs lo <= hi (got {lo} > {hi})"))
        }
        _ => Ok(()),
    }),
    ..bare(base_spec)
};

static PUBLISH: Section<ScenarioSpec> = Section {
    path: "publish",
    required: true,
    keys: &[
        key("rate_per_sec", Float(Positive), Req, |s| {
            Slot::Float(&mut s.plan.rate_per_sec)
        }),
        key("duration", Time, Req, |s| {
            Slot::Instant(&mut s.plan.duration)
        }),
        key("warmup", Time, Opt, |s| Slot::Instant(&mut s.plan.warmup)),
        key("topic_zipf_s", Float(NonNegative), Opt, |s| {
            Slot::Float(&mut s.plan.topic_zipf_s)
        }),
        key("payload_bytes", range(0, 1 << 20), Opt, |s| {
            Slot::Int(&mut s.plan.payload_bytes)
        }),
    ],
    // The run horizon is `warmup + duration + drain` on the u64
    // microsecond clock; reject phases that would overflow it so "a file
    // that parses is guaranteed to run" holds.
    rule: Some(|s| match s.checked_horizon() {
        Some(_) => Ok(()),
        None => Err("warmup + duration overflows the simulation clock".to_string()),
    }),
    ..bare(base_spec)
};

static FLASH: Section<FlashCrowd> = Section {
    path: "publish.flash",
    keys: &[
        key("at", Time, Req, |f| Slot::Instant(&mut f.at)),
        key("topic_zipf_s", Float(NonNegative), Req, |f| {
            Slot::Float(&mut f.topic_zipf_s)
        }),
        key("rate_factor", Float(Positive), Opt, |f| {
            Slot::Float(&mut f.rate_factor)
        }),
    ],
    ..bare(|| FlashCrowd {
        at: SimTime::ZERO,
        topic_zipf_s: 0.0,
        rate_factor: 1.0,
    })
};

/// Its presence enables churn.
static CHURN: Section<ChurnPlan> = Section {
    path: "churn",
    keys: &[
        key("mean_session_secs", Float(Positive), Opt, |c| {
            Slot::Float(&mut c.mean_session_secs)
        }),
        key("mean_downtime_secs", Float(Positive), Opt, |c| {
            Slot::Float(&mut c.mean_downtime_secs)
        }),
        key("churning_fraction", Float(Fraction), Opt, |c| {
            Slot::Float(&mut c.churning_fraction)
        }),
        key("duration", Time, Opt, |c| Slot::Instant(&mut c.duration)),
        key("warmup", Time, Opt, |c| Slot::Instant(&mut c.warmup)),
    ],
    ..bare(ChurnPlan::default)
};

/// Absent, the network is the standard reliable 10 ms one.
static NETWORK: Section<ScenarioSpec> = Section {
    path: "network",
    keys: &[
        pick("latency"),
        when("constant", "delay", Time, Req),
        when("uniform", "lo", Time, Req),
        when("uniform", "hi", Time, Req),
        when("lognormal", "median_ms", Float(Positive), Req),
        when("lognormal", "sigma", Float(NonNegative), Req),
        when("lognormal", "floor", Time, Opt),
        // A reliable network is written without the key.
        key("loss", Float(LossProbability), Sparse, |s| {
            Slot::Loss(&mut s.net)
        }),
    ],
    selector: Some(Selector {
        noun: "model",
        read: |b, s| s.net = NetworkModel::reliable(latency_of(b)),
        list: |s| latency_pairs(s.net.latency_model()),
    }),
    rule: Some(|s| match *s.net.latency_model() {
        LatencyModel::Uniform { lo, hi } if lo > hi => Err(format!(
            "uniform latency needs lo <= hi (got {}us > {}us)",
            lo.as_micros(),
            hi.as_micros()
        )),
        _ => Ok(()),
    }),
    ..bare(base_spec)
};

// [faults.*] — scheduled faults, applied by the network model as pure
// functions of (now, from, to). Each subsection is a single fault window.

static FAULT_PARTITION: Section<PartitionFault> = Section {
    path: "faults.partition",
    keys: &[
        key("at", Time, Req, |f| Slot::Instant(&mut f.at)),
        key("heal", Time, Req, |f| Slot::Instant(&mut f.heal)),
        key("split", SPLIT, Req, |f| Slot::U32(&mut f.split)),
    ],
    rule: Some(|f| window_rule(f.at, f.heal, "heal")),
    ..bare(|| PartitionFault {
        at: SimTime::ZERO,
        heal: SimTime::ZERO,
        split: 0,
    })
};

static FAULT_ONEWAY: Section<OnewayFault> = Section {
    path: "faults.oneway",
    keys: &[
        key("at", Time, Req, |f| Slot::Instant(&mut f.at)),
        key("until", Time, Req, |f| Slot::Instant(&mut f.until)),
        key("split", SPLIT, Req, |f| Slot::U32(&mut f.split)),
    ],
    rule: Some(|f| window_rule(f.at, f.until, "until")),
    ..bare(|| OnewayFault {
        at: SimTime::ZERO,
        until: SimTime::ZERO,
        split: 0,
    })
};

static FAULT_DELAY: Section<DelayFault> = Section {
    path: "faults.delay",
    keys: &[
        key("at", Time, Req, |f| Slot::Instant(&mut f.at)),
        key("until", Time, Req, |f| Slot::Instant(&mut f.until)),
        key("extra", Time, Req, |f| Slot::Duration(&mut f.extra)),
    ],
    rule: Some(|f| window_rule(f.at, f.until, "until")),
    ..bare(|| DelayFault {
        at: SimTime::ZERO,
        until: SimTime::ZERO,
        extra: SimDuration::ZERO,
    })
};

/// A fault window must be non-empty: `at` strictly before its `end` key.
fn window_rule(at: SimTime, to: SimTime, end: &str) -> std::result::Result<(), String> {
    let (at, to) = (at.as_micros(), to.as_micros());
    if at >= to {
        return Err(format!("needs at < {end} (got {at}us >= {to}us)"));
    }
    Ok(())
}

// [mobility] + [mobility.seg0], [mobility.seg1], … — a piecewise
// cross-split trace. Segments are numbered subsections because the
// format has no array-of-tables; the rule over the whole trace is
// `mobility_rule`.

static MOBILITY: Section<MobilityTrace> = Section {
    path: "mobility",
    keys: &[
        key("split", SPLIT, Req, |m| Slot::U32(&mut m.split)),
        key("period", Time, Opt, |m| Slot::OptDuration(&mut m.period)),
    ],
    ..bare(|| MobilityTrace {
        split: 0,
        period: None,
        segments: Vec::new(),
    })
};

static MOBILITY_SEGMENT: Section<MobilitySegment> = Section {
    path: "mobility.seg<k>",
    keys: &[
        key("at", Time, Req, |s| Slot::Instant(&mut s.at)),
        key("extra", Time, Opt, |s| Slot::Duration(&mut s.extra)),
        key("disconnected", Bool, Opt, |s| {
            Slot::Bool(&mut s.disconnected)
        }),
    ],
    ..bare(|| MobilitySegment {
        at: SimTime::ZERO,
        extra: SimDuration::ZERO,
        disconnected: false,
    })
};

/// Takes no keys: its presence enables the SWIM failure detector on
/// gossip-based architectures, at the constants of `fed_membership::swim`.
static MEMBERSHIP: Section<()> = Section {
    path: "membership",
    ..bare(|| ())
};

/// Its presence enables the streaming series.
static TELEMETRY: Section<TelemetrySpec> = Section {
    path: "telemetry",
    keys: &[key("window", Time, Opt, |t| Slot::Duration(&mut t.window))],
    rule: Some(|t| TelemetrySpec::checked(*t).map(drop)),
    ..bare(TelemetrySpec::default)
};

/// Its presence (even empty) enables scheduler profiling.
static PROFILE: Section<ProfileSpec> = Section {
    path: "profile",
    keys: &[key("trace", Str, Opt, |p| Slot::OptStr(&mut p.trace))],
    rule: Some(|p| ProfileSpec::checked(p.clone()).map(drop)),
    ..bare(ProfileSpec::default)
};

/// Its presence (even empty) enables per-event dissemination tracing.
static TRACE: Section<TraceSpec> = Section {
    path: "trace",
    keys: &[
        key("sample_rate", Float(Fraction), Opt, |t| {
            Slot::Float(&mut t.sample_rate)
        }),
        key("salt", U64, Opt, |t| Slot::U64(&mut t.salt)),
        key("export", Str, Opt, |t| Slot::OptStr(&mut t.export)),
    ],
    rule: Some(|t| TraceSpec::checked(t.clone()).map(drop)),
    ..bare(TraceSpec::default)
};

/// A section with the struct it binds erased, so that all of them fit
/// one list.
trait Grammar: Sync {
    fn path(&self) -> &'static str;
    #[cfg(test)]
    fn required(&self) -> bool;
    /// The selector key, if any.
    #[cfg(test)]
    fn selector(&self) -> Option<&'static str>;
    /// Each row with its default.
    #[cfg(test)]
    fn rows(&self) -> Vec<tests::Row>;
}

impl<T: 'static> Grammar for Section<T> {
    fn path(&self) -> &'static str {
        self.path
    }

    #[cfg(test)]
    fn required(&self) -> bool {
        self.required
    }

    #[cfg(test)]
    fn selector(&self) -> Option<&'static str> {
        self.selector.as_ref().map(|_| self.keys[0].name)
    }

    #[cfg(test)]
    fn rows(&self) -> Vec<tests::Row> {
        tests::rows(self)
    }
}

/// All sections a scenario file may contain.
static SCHEMA: [&dyn Grammar; 16] = [
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

/// One section's conformed keys in schema order: every key the section
/// gives, with its schema type — which is what lets the typed getters
/// the selectors' hand-written reads use be infallible for a required
/// key.
struct Bag {
    /// Where the section's rule blames: the selector's line if there is
    /// one, else the header's; `None` on the write side.
    blame: Option<usize>,
    fields: Vec<(&'static str, Value, Option<usize>)>,
}

impl Bag {
    fn get(&self, key: &str) -> Option<&Value> {
        let field = self.fields.iter().find(|(name, ..)| *name == key);
        field.map(|(_, value, _)| value)
    }

    fn val(&self, key: &str) -> &Value {
        self.get(key).expect("the schema guarantees a required key")
    }

    fn str(&self, key: &str) -> &str {
        match self.val(key) {
            Value::Str(s) => s,
            _ => unreachable!("conformed to Ty::Str"),
        }
    }

    fn int(&self, key: &str) -> usize {
        match self.val(key) {
            Value::Int(i) => usize::try_from(*i).expect("every bounded Int range fits usize"),
            _ => unreachable!("conformed to Ty::Int"),
        }
    }

    fn float(&self, key: &str) -> f64 {
        match self.val(key) {
            Value::Float(x) => *x,
            _ => unreachable!("conformed to Ty::Float"),
        }
    }

    fn duration(&self, key: &str) -> SimDuration {
        match self.val(key) {
            Value::Time(us) => SimDuration::from_micros(*us),
            _ => unreachable!("conformed to Ty::Time"),
        }
    }
}

/// The one check both directions share. `entries` are a lexed section's
/// `(key, value, line)` triples, or the pairs [`to_toml`] is about to
/// write (no lines). In order: an unknown key; then, key by key in
/// schema order, a missing required key (blamed on the header), a wrong
/// type or an out-of-range value (blamed on the key's line); a key that
/// belongs to another selector value. The section's cross-field rule
/// runs on the struct built from the result.
fn conform<T>(
    sec: &Section<T>,
    path: &str,
    header: Option<usize>,
    mut entries: Vec<(String, Value, Option<usize>)>,
) -> Result<Bag> {
    let key_list = || match sec.keys {
        [] => "none".to_string(),
        keys => keys.iter().map(|k| k.name).collect::<Vec<_>>().join(", "),
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
        blame: header,
        fields: Vec::with_capacity(sec.keys.len()),
    };
    let selector = sec.selector.as_ref().map(|s| (sec.keys[0].name, s.noun));
    let mut selected = None;
    for key in sec.keys {
        if key.when.is_some() && key.when != selected {
            continue;
        }
        let Some(i) = entries.iter().position(|(name, ..)| name == key.name) else {
            if key.need == Req {
                let what = format!("[{path}] is missing the required key `{}`", key.name);
                return Err(ScenarioFileError::new(header, what));
            }
            continue;
        };
        let (_, value, line) = entries.remove(i);
        let value = conform_value(key.ty, value).map_err(|what| {
            ScenarioFileError::new(line, format!("[{path}] {}: {what}", key.name))
        })?;
        if let (Some((selector, noun)), Value::Str(kind)) = (selector, &value) {
            if selector == key.name {
                let mut kinds: Vec<&str> = sec.keys.iter().filter_map(|k| k.when).collect();
                kinds.dedup();
                let found = kinds.iter().copied().find(|k| k == kind);
                let found = named(found, kind, noun, &kinds).map_err(|what| {
                    ScenarioFileError::new(line, format!("[{path}] {selector}: {what}"))
                })?;
                selected = Some(found);
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
    Ok(bag)
}

impl Document {
    /// Takes the section at `path` out of the document, conforms it to
    /// `sec` and stores it in `into` — the selected variant through the
    /// selector's hand-written read, every other key it gives in the
    /// field its row binds — then runs the section's rule on the result.
    /// `false` when the file has no such section — an error if the
    /// schema requires it.
    fn read_at<T>(&mut self, sec: &Section<T>, path: &str, into: &mut T) -> Result<bool> {
        let Some(lexed) = self.sections.remove(path) else {
            let missing = format!("missing required section [{path}]");
            return if sec.required {
                Err(ScenarioFileError::global(missing))
            } else {
                Ok(false)
            };
        };
        let entries = lexed.entries.iter();
        let entries = entries.map(|(key, (value, line))| (key.clone(), value.clone(), Some(*line)));
        let bag = conform(sec, path, Some(lexed.header_line), entries.collect())?;
        self.done.insert(path.to_string(), lexed);
        if let Some(selector) = &sec.selector {
            (selector.read)(&bag, into);
        }
        for (name, value, line) in &bag.fields {
            let key = sec.keys.iter().find(|k| k.name == *name);
            if let Some(field) = key.and_then(|k| k.field) {
                field(into).set(value.clone()).map_err(|what| {
                    ScenarioFileError::new(*line, format!("[{path}] {name}: {what}"))
                })?;
            }
        }
        sec.check(path, into, bag.blame)?;
        Ok(true)
    }

    /// [`Document::read_at`] the section's schema path.
    fn read<T>(&mut self, sec: &Section<T>, into: &mut T) -> Result<bool> {
        self.read_at(sec, sec.path, into)
    }

    /// The section at `path` read into a copy of its base, if the file
    /// has it.
    fn section_at<T>(&mut self, sec: &Section<T>, path: &str) -> Result<Option<T>> {
        let mut value = (sec.base)();
        Ok(self.read_at(sec, path, &mut value)?.then_some(value))
    }

    fn section<T>(&mut self, sec: &Section<T>) -> Result<Option<T>> {
        self.section_at(sec, sec.path)
    }

    /// The line of `key` in a section already read, or of its header
    /// for `None`: where a cross-section rule blames.
    fn line(&self, path: &str, key: Option<&str>) -> Option<usize> {
        let lexed = self.done.get(path)?;
        match key {
            None => Some(lexed.header_line),
            Some(key) => lexed.entries.get(key).map(|&(_, line)| line),
        }
    }
}

// ---------------------------------------------------------------------------
// The selectors' variants, read and listed by hand
// ---------------------------------------------------------------------------

fn appetite_of(b: &Bag) -> Appetite {
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
    let int = |i: usize| Value::Int(i as i128);
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

fn latency_of(b: &Bag) -> LatencyModel {
    match b.str("latency") {
        "constant" => LatencyModel::Constant(b.duration("delay")),
        "uniform" => LatencyModel::Uniform {
            lo: b.duration("lo"),
            hi: b.duration("hi"),
        },
        // `conform` admits only the schema's three models.
        _ => LatencyModel::LogNormalMs {
            median_ms: b.float("median_ms"),
            sigma: b.float("sigma"),
            floor: match b.get("floor") {
                Some(_) => b.duration("floor"),
                None => SimDuration::ZERO,
            },
        },
    }
}

fn latency_pairs(latency: &LatencyModel) -> Vec<Pair> {
    let model = |name: &str| ("latency", Value::Str(name.to_string()));
    let time = |d: SimDuration| Value::Time(d.as_micros());
    match *latency {
        LatencyModel::Constant(d) => vec![model("constant"), ("delay", time(d))],
        LatencyModel::Uniform { lo, hi } => {
            vec![model("uniform"), ("lo", time(lo)), ("hi", time(hi))]
        }
        LatencyModel::LogNormalMs {
            median_ms,
            sigma,
            floor,
        } => vec![
            model("lognormal"),
            ("median_ms", Value::Float(median_ms)),
            ("sigma", Value::Float(sigma)),
            ("floor", time(floor)),
        ],
    }
}

// ---------------------------------------------------------------------------
// Cross-section rules
// ---------------------------------------------------------------------------

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

/// Every `split` leaves a node on each side: outside `1..nodes` the whole
/// population sits on one side, so the partition, one-way failure or
/// mobility trace it bounds never fires. Blamed on the `split` line,
/// which `line` finds for a section path.
fn split_rule(spec: &ScenarioSpec, line: impl Fn(&str) -> Option<usize>) -> Result<()> {
    let splits = [
        ("faults.partition", spec.faults.partition.map(|f| f.split)),
        ("faults.oneway", spec.faults.oneway.map(|f| f.split)),
        ("mobility", spec.mobility.as_ref().map(|m| m.split)),
    ];
    let n = spec.n;
    for (path, split) in splits {
        if let Some(split) = split.filter(|&s| s == 0 || s as usize >= n) {
            let what = format!(
                "[{path}] split: {split} leaves one side empty \
                 (expected 1..{n}: at least 1 and below [scenario] nodes = {n})"
            );
            return Err(ScenarioFileError::new(line(path), what));
        }
    }
    Ok(())
}

/// The telemetry series keeps one row per window, and closing a window
/// folds every node: `⌈horizon / window⌉` stays within [`MAX_WINDOWS`]
/// and `nodes × windows` within [`MAX_PRODUCT`]; both are blamed on
/// `window`, the `[telemetry] window` line or else the section header.
/// The horizon is `[publish] warmup + duration` plus the 4 s drain.
fn telemetry_rule(spec: &ScenarioSpec, window_line: Option<usize>) -> Result<()> {
    let Some(telemetry) = &spec.telemetry else {
        return Ok(());
    };
    // `[publish]`'s rule keeps the horizon on the clock and
    // `[telemetry]`'s keeps the window positive; both have run.
    let (horizon, window) = (spec.horizon().as_micros(), telemetry.window.as_micros());
    let windows = horizon.div_ceil(window);
    let node_windows = spec.n as u128 * windows as u128;
    let over = if windows > MAX_WINDOWS {
        Some(format!(
            "{windows} windows, over the limit of {MAX_WINDOWS}"
        ))
    } else if node_windows > u128::from(MAX_PRODUCT) {
        Some(format!(
            "{windows} windows; [scenario] nodes × windows = {} × {windows} = {node_windows} \
             node-windows, over the limit of {MAX_PRODUCT}",
            spec.n
        ))
    } else {
        None
    };
    if let Some(over) = over {
        let what = format!(
            "[telemetry] window: ⌈([publish] warmup + duration + 4s drain) / window⌉ = \
             ⌈{horizon}us / {window}us⌉ = {over}"
        );
        return Err(ScenarioFileError::new(window_line, what));
    }
    Ok(())
}

/// The rule over a whole trace — header plus segments, so not a
/// [`Section::rule`] — blamed on the `[mobility]` header.
fn mobility_rule(trace: &MobilityTrace, header: Option<usize>) -> Result<()> {
    let checked = trace.validate();
    checked.map_err(|e| ScenarioFileError::new(header, format!("[mobility] {e}")))
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
/// duration units, out-of-range values, key products over
/// [`MAX_PRODUCT`], a `split` that leaves one side empty and more
/// telemetry windows than [`MAX_WINDOWS`] (or, with their histogram
/// buckets, than [`MAX_PRODUCT`] buckets).
pub fn parse_scenario(input: &str) -> Result<ScenarioFile> {
    let mut doc = lex(input)?;
    let mut file = (SCENARIO.base)();
    doc.read(&SCENARIO, &mut file)?;
    let spec = &mut file.spec;
    doc.read(&TOPICS, spec)?;
    doc.read(&INTEREST, spec)?;
    doc.read(&PUBLISH, spec)?;
    spec.plan.flash = doc.section(&FLASH)?;
    spec.churn = doc.section(&CHURN)?;
    doc.read(&NETWORK, spec)?;
    spec.faults = FaultSchedule {
        partition: doc.section(&FAULT_PARTITION)?,
        oneway: doc.section(&FAULT_ONEWAY)?,
        delay: doc.section(&FAULT_DELAY)?,
    };
    if let Some(mut trace) = doc.section(&MOBILITY)? {
        let seg_path = |k: usize| format!("mobility.seg{k}");
        while let Some(seg) = doc.section_at(&MOBILITY_SEGMENT, &seg_path(trace.segments.len()))? {
            trace.segments.push(seg);
        }
        mobility_rule(&trace, doc.line("mobility", None))?;
        spec.mobility = Some(trace);
    }
    spec.membership = doc.section(&MEMBERSHIP)?.is_some();
    spec.telemetry = doc.section(&TELEMETRY)?;
    spec.profile = doc.section(&PROFILE)?;
    spec.trace = doc.section(&TRACE)?;

    // Leftover [mobility.*] sections get a targeted diagnosis: a segment
    // without its parent [mobility], a gap in the numbering, or a typo'd
    // segment name.
    if let Some((path, sec)) = doc
        .sections
        .iter()
        .find(|(p, _)| p.starts_with("mobility."))
    {
        let hint = match &spec.mobility {
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
    if let Some((path, sec)) = doc.sections.iter().next() {
        let valid: Vec<&str> = SCHEMA.iter().map(|s| s.path()).collect();
        return Err(ScenarioFileError::at(
            sec.header_line,
            format!(
                "unknown section [{path}] (valid sections: {})",
                valid.join(", ")
            ),
        ));
    }

    let interest = doc.line("interest", Some("appetite"));
    product_rule(spec, interest, doc.line("publish", None))?;
    split_rule(spec, |path| doc.line(path, Some("split")))?;
    let window = doc.line("telemetry", Some("window"));
    telemetry_rule(spec, window.or(doc.line("telemetry", None)))?;
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

/// The write pass: lists `value` — the selected variant through the
/// selector's hand-written list, every other key from the field its row
/// binds — and appends `[path]` with the keys to `out` once [`conform`]
/// and the section's rule, the read pass's own checks, have accepted
/// them, which is why what is written parses back. `value` is borrowed
/// mutably only because a row's projection is; nothing is stored.
fn write_section<T>(out: &mut String, sec: &Section<T>, path: &str, value: &mut T) -> Result<()> {
    let mut pairs = sec
        .selector
        .as_ref()
        .map_or_else(Vec::new, |s| (s.list)(value));
    for key in sec.keys {
        let Some(field) = key.field else {
            continue;
        };
        let Some(listed) = field(value).get() else {
            continue;
        };
        if key.need == Sparse && field(&mut (sec.base)()).get().as_ref() == Some(&listed) {
            continue;
        }
        pairs.push((key.name, listed));
    }
    let mut text = format!("[{path}]\n");
    for (key, listed) in &pairs {
        let rendered = render(listed)
            .map_err(|what| ScenarioFileError::global(format!("[{path}] {key}: {what}")))?;
        text.push_str(&format!("{key} = {rendered}\n"));
    }
    let entries = pairs
        .into_iter()
        .map(|(key, listed)| (key.to_string(), listed, None));
    conform(sec, path, None, entries.collect())?;
    sec.check(path, value, None)?;
    if !out.is_empty() {
        out.push('\n');
    }
    out.push_str(&text);
    Ok(())
}

/// [`write_section`] at the section's schema path.
fn write<T>(out: &mut String, sec: &Section<T>, value: &mut T) -> Result<()> {
    write_section(out, sec, sec.path, value)
}

/// Writes a section that sits at its schema path, if the spec has it.
fn put<T>(out: &mut String, sec: &Section<T>, value: Option<&mut T>) -> Result<()> {
    value.map_or(Ok(()), |value| write(out, sec, value))
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
/// fault window, a key product over [`MAX_PRODUCT`], a `split` that
/// leaves one side empty, more telemetry windows than [`MAX_WINDOWS`]
/// or more telemetry histogram buckets than [`MAX_PRODUCT`]. The message
/// names `[section] key`.
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
    let mut file = ScenarioFile {
        name: None,
        summary: None,
        spec: spec.clone(),
    };
    write(out, &SCENARIO, &mut file)?;
    let s = &mut file.spec;
    write(out, &TOPICS, s)?;
    write(out, &INTEREST, s)?;
    write(out, &PUBLISH, s)?;
    put(out, &FLASH, s.plan.flash.as_mut())?;
    put(out, &CHURN, s.churn.as_mut())?;
    write(out, &NETWORK, s)?;
    put(out, &FAULT_PARTITION, s.faults.partition.as_mut())?;
    put(out, &FAULT_ONEWAY, s.faults.oneway.as_mut())?;
    put(out, &FAULT_DELAY, s.faults.delay.as_mut())?;
    if let Some(m) = &mut s.mobility {
        mobility_rule(m, None)?;
        write(out, &MOBILITY, m)?;
        for (k, seg) in m.segments.iter_mut().enumerate() {
            write_section(out, &MOBILITY_SEGMENT, &format!("mobility.seg{k}"), seg)?;
        }
    }
    put(out, &MEMBERSHIP, s.membership.then_some(&mut ()))?;
    put(out, &TELEMETRY, s.telemetry.as_mut())?;
    put(out, &PROFILE, s.profile.as_mut())?;
    put(out, &TRACE, s.trace.as_mut())?;
    product_rule(spec, None, None)?;
    split_rule(spec, |_| None)?;
    telemetry_rule(spec, None)?;
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
             [membership]\n"
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
        assert!(f.spec.membership);
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
    fn membership_is_a_presence_only_section() {
        // An empty [membership] section enables the detector; none, not.
        // (`scenario_file_negative.rs` rejects each former key.)
        let ok = format!("{MINIMAL}\n[membership]\n");
        assert!(parse_scenario(&ok).unwrap().spec.membership);
        assert!(!parse_scenario(MINIMAL).unwrap().spec.membership);
    }

    #[test]
    fn net_carrying_faults_directly_is_unrepresentable() {
        let mut spec = ScenarioSpec::fair_gossip(8, 1);
        spec.net = spec.net.clone().with_faults(FaultSchedule {
            delay: Some(DelayFault {
                at: SimTime::from_secs(1),
                until: SimTime::from_secs(2),
                extra: SimDuration::from_millis(5),
            }),
            ..FaultSchedule::default()
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
            (
                "[telemetry] window: ⌈([publish] warmup + duration + 4s drain)",
                |s| {
                    s.telemetry = Some(TelemetrySpec {
                        window: SimDuration::from_micros(1),
                    })
                },
            ),
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
        // `to_toml` inside a spec; the write pass's check rejects it all
        // the same.
        let pairs = [
            ("latency", Value::Str("constant".to_string())),
            ("delay", Value::Time(ten_ms.as_micros())),
            ("loss", Value::Float(1.0)),
        ];
        let entries = pairs.map(|(key, value)| (key.to_string(), value, None));
        let err = conform(&NETWORK, "network", None, entries.to_vec())
            .map(drop)
            .unwrap_err();
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

    /// One row as the schema tests see it.
    pub(super) struct Row {
        name: &'static str,
        ty: Ty,
        need: Need,
        when: Option<&'static str>,
        /// Whether the row binds a field (else its selector reads it).
        bound: bool,
        /// The base's value of the field a bound row binds; for a row its
        /// selector reads, what the selector lists after reading the
        /// variant's required keys alone (`None` for a required row).
        default: Option<Value>,
    }

    pub(super) fn rows<T>(sec: &Section<T>) -> Vec<Row> {
        let row = |key: &Key<T>| {
            let mut base = (sec.base)();
            let default = match (key.field, &sec.selector) {
                (Some(field), _) => field(&mut base).get(),
                (None, Some(selector)) if key.need != Req => {
                    let given = sec.keys.iter().filter(|k| k.need == Req);
                    let given = given.filter(|k| k.when.is_none() || k.when == key.when);
                    let fields = given.map(|k| (k.name, placeholder(k.ty, key.when), None));
                    let bag = Bag {
                        blame: None,
                        fields: fields.collect(),
                    };
                    (selector.read)(&bag, &mut base);
                    let listed = (selector.list)(&base);
                    listed
                        .into_iter()
                        .find(|(name, _)| *name == key.name)
                        .map(|(_, v)| v)
                }
                _ => None,
            };
            Row {
                name: key.name,
                ty: key.ty,
                need: key.need,
                when: key.when,
                bound: key.field.is_some(),
                default,
            }
        };
        sec.keys.iter().map(row).collect()
    }

    /// A value every check of type `ty` accepts; a string is the
    /// selector value `when`.
    fn placeholder(ty: Ty, when: Option<&'static str>) -> Value {
        match ty {
            Str => Value::Str(when.unwrap_or_default().to_string()),
            Int { lo, .. } => Value::Int(lo.into()),
            Float(_) => Value::Float(0.5),
            Bool => Value::Bool(false),
            Time => Value::Time(0),
        }
    }

    /// Every row's default passes its own key's check — which also
    /// checks that each bound row's field holds its row's type — and a
    /// selector section is the only kind with rows it reads by hand: its
    /// first row is the selector, the rest of them are its variants'.
    #[test]
    fn schema_defaults_conform_to_their_own_rows() {
        for sec in SCHEMA {
            let rows = sec.rows();
            for row in &rows {
                let at = format!("[{}] {}", sec.path(), row.name);
                if let Some(value) = &row.default {
                    assert_eq!(
                        conform_value(row.ty, value.clone()),
                        Ok(value.clone()),
                        "{at}"
                    );
                }
                assert!(row.bound || sec.selector().is_some(), "{at}");
                assert!(row.when.is_none() || !row.bound, "{at}");
                assert!(row.need != Sparse || row.default.is_some(), "{at}");
            }
            if sec.selector().is_some() {
                let first = &rows[0];
                let picks = !first.bound && first.when.is_none() && first.need == Req;
                assert!(
                    picks && matches!(first.ty, Str),
                    "[{}] selector comes first",
                    sec.path()
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
                    .find(|s| s.path() == section)
                    .and_then(|s| s.selector());
                let value = selector.and_then(|key| rest.strip_prefix(key)?.strip_prefix(" = \""));
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
            let path = sec.path();
            assert_eq!(
                required.get(path),
                Some(&sec.required()),
                "docs/SCENARIOS.md: the `### … [{path}]` heading must say `— {}`",
                if sec.required() {
                    "required"
                } else {
                    "optional"
                }
            );
            let rows = sec.rows();
            let mut whens: Vec<Option<&str>> = rows.iter().map(|r| r.when).collect();
            whens.dedup();
            for when in whens {
                let under = match when {
                    Some(value) => format!("[{path}] under `{} = \"{value}\"`", rows[0].name),
                    None => format!("[{path}]"),
                };
                let doc_rows = tables.get(&(path.to_string(), when.map(str::to_string)));
                let doc_rows = doc_rows
                    .unwrap_or_else(|| panic!("docs/SCENARIOS.md has no key table for {under}"));
                let keys = rows.iter().filter(|r| r.when == when);
                for key in keys.clone() {
                    let ty = match key.ty {
                        Str => "string",
                        Int { .. } => "integer",
                        Float(_) => "float",
                        Bool => "boolean",
                        Time => "duration",
                    };
                    let default = match (key.need, &key.default) {
                        (Req, _) => "**required**".to_string(),
                        (_, Some(value)) => format!("`{}`", render(value).unwrap()),
                        (_, None) => "—".to_string(),
                    };
                    let expected = format!("| `{}` | {ty} | {default} | … |", key.name);
                    let row = doc_rows.iter().find(|(name, ..)| name == key.name);
                    let (_, doc_ty, doc_default) = row.unwrap_or_else(|| {
                        panic!("docs/SCENARIOS.md: the table for {under} lacks the row {expected}")
                    });
                    assert!(
                        doc_ty == ty && *doc_default == default,
                        "docs/SCENARIOS.md: in the table for {under} the row for `{}` must read {expected}",
                        key.name
                    );
                }
                for (name, ..) in doc_rows {
                    assert!(
                        keys.clone().any(|k| k.name == name),
                        "docs/SCENARIOS.md: the table for {under} documents `{name}`, which is not a key of it"
                    );
                }
            }
        }
        for (section, when) in tables.keys() {
            let sec = SCHEMA.iter().find(|s| s.path() == section);
            let known = sec.is_some_and(|s| s.rows().iter().any(|r| r.when == when.as_deref()));
            assert!(known, "docs/SCENARIOS.md: a key table under [{section}] {when:?} matches no schema section");
        }
    }
}
