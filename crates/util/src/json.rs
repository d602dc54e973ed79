//! The workspace's one JSON writer and its one reader, without an
//! external dependency (the build is offline — no serde).
//!
//! **Writing.** Every document the workspace emits — each `BENCH_*.json`
//! row, the series artifact and both Chrome-trace exports — is built
//! from [`Object`] (members in call order, compact `{"k":v,…}`),
//! [`fixed`] (the one number rule: fixed decimals, `null` when not
//! finite), [`lines`] (an array with one element per line) and
//! [`ChromeTrace`] (the Trace Event document), so quoting, [`escape`]
//! and the layout are written once.
//!
//! **Reading.** [`parse`] takes RFC 8259 JSON (objects, arrays, strings
//! with escapes, numbers, booleans, null); numbers are read as `f64`,
//! which is exact for every integer the bench records emit (< 2⁵³).

use std::fmt::Write as _;

/// Escapes `s` for the inside of a JSON string literal: quote,
/// backslash and every control character ([`parse`] reads it back).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `s` as a JSON string literal, quoted and [`escape`]d.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// `x` with exactly `decimals` digits after the point, or `null` when it
/// is `None` or not finite (JSON has no NaN or infinity).
pub fn fixed(x: impl Into<Option<f64>>, decimals: usize) -> String {
    match x.into() {
        Some(x) if x.is_finite() => format!("{x:.decimals$}"),
        _ => "null".to_string(),
    }
}

/// `x` in the shortest form that reads back exactly, or `null` when it
/// is `None` or not finite.
pub fn number(x: impl Into<Option<f64>>) -> String {
    match x.into() {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

/// A JSON object written member by member, in call order, compact
/// (`{"k":v,"k":v}`).
#[derive(Debug)]
#[must_use]
pub struct Object(String);

impl Default for Object {
    fn default() -> Self {
        Object::new()
    }
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object(String::from("{"))
    }

    /// Appends a member whose value is already rendered JSON: a nested
    /// object, a [`lines`] array, or one of [`fixed`] and [`number`].
    pub fn raw(mut self, key: &str, value: &str) -> Object {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        self.0.push_str(&string(key));
        self.0.push(':');
        self.0.push_str(value);
        self
    }

    /// Appends a string member.
    pub fn str(self, key: &str, value: &str) -> Object {
        self.raw(key, &string(value))
    }

    /// Appends an unsigned integer member.
    pub fn uint(self, key: &str, value: u64) -> Object {
        self.raw(key, &value.to_string())
    }

    /// Appends a number with `decimals` fixed decimals; see [`fixed`].
    pub fn fixed(self, key: &str, value: impl Into<Option<f64>>, decimals: usize) -> Object {
        self.raw(key, &fixed(value, decimals))
    }

    /// The rendered object.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// An array of already-rendered JSON values, one per line: each element
/// on its own line behind `indent`, a comma after all but the last, the
/// closing bracket on a line of its own behind `close_indent`.
pub fn lines<I>(items: I, indent: &str, close_indent: &str) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut out = String::from("[\n");
    let mut items = items.into_iter().peekable();
    while let Some(item) = items.next() {
        out.push_str(indent);
        out.push_str(item.as_ref());
        out.push_str(if items.peek().is_some() { ",\n" } else { "\n" });
    }
    out.push_str(close_indent);
    out.push(']');
    out
}

/// A Chrome Trace Event document in object format, loadable in Perfetto
/// (<https://ui.perfetto.dev>) and `chrome://tracing`: `M` records that
/// name the process and its tracks, `X` slices on those tracks, one
/// event per line, microsecond timestamps on process 0.
#[derive(Debug)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// A document whose process is labelled `process`.
    pub fn new(process: &str) -> ChromeTrace {
        let mut trace = ChromeTrace { events: Vec::new() };
        trace.metadata(0, "process_name", process);
        trace
    }

    fn metadata(&mut self, tid: u64, what: &str, name: &str) {
        let args = Object::new().str("name", name).finish();
        self.events.push(
            Object::new()
                .str("ph", "M")
                .uint("pid", 0)
                .uint("tid", tid)
                .str("name", what)
                .raw("args", &args)
                .finish(),
        );
    }

    /// Labels track `tid`.
    pub fn thread(&mut self, tid: u64, name: &str) {
        self.metadata(tid, "thread_name", name);
    }

    /// A complete slice on track `tid`, `dur` µs from `ts`, annotated
    /// with `args`.
    pub fn slice(&mut self, tid: u64, name: &str, ts: u64, dur: u64, args: Object) {
        self.events.push(
            Object::new()
                .str("ph", "X")
                .uint("pid", 0)
                .uint("tid", tid)
                .str("name", name)
                .uint("ts", ts)
                .uint("dur", dur)
                .raw("args", &args.finish())
                .finish(),
        );
    }

    /// The document, milliseconds as the display unit and `other_data`
    /// as its `otherData`.
    pub fn finish(self, other_data: Object) -> String {
        Object::new()
            .raw("traceEvents", &lines(&self.events, "", ""))
            .str("displayTimeUnit", "ms")
            .raw("otherData", &other_data.finish())
            .finish()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order preserved, duplicate keys kept.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (first match); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level and its input can be a file named on a command line, so
/// the bound is what turns a bracket bomb into an `Err` instead of a stack
/// overflow; the deepest document the workspace writes nests 4 levels.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error, as are nesting beyond [`MAX_DEPTH`] and numbers
/// outside the finite `f64` range.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

/// Parses the value at `pos`, itself nested inside `depth` containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// RFC 8259's number grammar — `-? (0 | [1-9][0-9]*) (.[0-9]+)?
/// ([eE][+-]?[0-9]+)?` — checked before `f64::from_str`, which would
/// also take `+1`, `.5`, `1.` and `01`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    let skip = |pos: &mut usize, set: &[u8]| {
        let hit = bytes.get(*pos).is_some_and(|b| set.contains(b));
        *pos += usize::from(hit);
        hit
    };
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    skip(pos, b"-");
    let int = skip(pos, b"0") || digits(pos);
    let frac = !skip(pos, b".") || digits(pos);
    let exp = !skip(pos, b"eE") || {
        skip(pos, b"+-");
        digits(pos)
    };
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // `f64::from_str` rounds an out-of-range literal to an infinity.
    match text.parse::<f64>() {
        Ok(x) if int && frac && exp && x.is_finite() => Ok(Value::Num(x)),
        _ => Err(format!("invalid number {text:?} at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writers;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{}", *other as char)),
                }
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("unescaped control character at byte {}", *pos));
            }
            Some(_) => {
                // Consume the run up to the next quote, escape or control
                // character: all ASCII, so the run ends on a UTF-8
                // character boundary.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Value::Num(-1250.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Value::Str("a\nbA".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"rows": [{"k": "v", "n": 3}, {}], "ok": true}"#).unwrap();
        let rows = v.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("k").and_then(|k| k.as_str()), Some("v"));
        assert_eq!(rows[0].get("n").and_then(|n| n.as_f64()), Some(3.0));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "12 34", "\"open", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Numbers outside RFC 8259's grammar, which `f64::from_str` takes.
        for bad in ["+1", ".5", "1.", "01", "-.5", "[-01]", "1.e3"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        for (good, x) in [("-0", 0.0), ("0.5", 0.5), ("10", 10.0), ("-1.5E+2", -150.0)] {
            assert_eq!(parse(good).unwrap(), Value::Num(x), "{good}");
        }
        // Control characters must be escaped inside strings.
        for bad in [
            "\"a\u{0}b\"",
            "\"tab\there\"",
            "\"line\nbreak\"",
            "{\"k\u{1f}\":1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded_by_an_error_not_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // The bomb that used to abort the process with a stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(200_000)).is_err());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in ["1e999", "-1e999", "[1, 1e400]", "{\"x\": -2e308}"] {
            let err = parse(bad).unwrap_err();
            assert!(err.starts_with("invalid number"), "{bad}: {err}");
        }
        assert_eq!(parse("1e308").unwrap(), Value::Num(1e308));
        assert_eq!(parse("1e-999").unwrap(), Value::Num(0.0));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        for s in [
            "plain",
            "a\"b\\c",
            "tab\there\nnewline\r",
            "x\u{1}\u{1f}",
            "héllo → wörld",
        ] {
            let quoted = string(s);
            assert_eq!(parse(&quoted).unwrap().as_str(), Some(s), "{quoted}");
        }
    }

    #[test]
    fn objects_render_members_in_call_order() {
        let inner = Object::new().finish();
        let doc = Object::new()
            .str("s", "a\"b")
            .uint("n", 7)
            .fixed("x", 0.5, 3)
            .fixed("none", None, 3)
            .raw("inner", &inner)
            .finish();
        assert_eq!(
            doc,
            r#"{"s":"a\"b","n":7,"x":0.500,"none":null,"inner":{}}"#
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b"));
        assert_eq!(v.get("none"), Some(&Value::Null));
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(fixed(x, 6), "null");
            assert_eq!(number(x), "null");
        }
        assert_eq!(fixed(-0.126, 2), "-0.13");
        assert_eq!(number(0.02), "0.02");
        assert_eq!(number(3.0), "3");
    }

    #[test]
    fn lines_puts_one_element_per_line() {
        assert_eq!(lines(["1", "2"], "  ", ""), "[\n  1,\n  2\n]");
        assert_eq!(lines(Vec::<String>::new(), "    ", "  "), "[\n  ]");
        assert_eq!(
            parse(&lines(["{}"], "", "")).unwrap(),
            Value::Arr(vec![Value::Obj(vec![])])
        );
    }

    #[test]
    fn chrome_trace_document_parses() {
        let mut trace = ChromeTrace::new("we\"ird");
        trace.thread(1, "shard 0");
        trace.slice(1, "execute", 5, 1, Object::new().uint("events", 2));
        let doc = trace.finish(Object::new().uint("hops", 1));
        assert_eq!(
            doc,
            "{\"traceEvents\":[\n\
             {\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"we\\\"ird\"}},\n\
             {\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"shard 0\"}},\n\
             {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"execute\",\"ts\":5,\"dur\":1,\"args\":{\"events\":2}}\n\
             ],\"displayTimeUnit\":\"ms\",\"otherData\":{\"hops\":1}}"
        );
        let events = parse(&doc).unwrap();
        let events = events.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn utf8_passthrough() {
        let v = parse("\"héllo → wörld\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → wörld"));
    }
}
