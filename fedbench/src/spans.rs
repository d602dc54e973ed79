//! The benchmark's own spans: one per call into a layer, kept in memory and
//! written out when the benchmark ends. Every timing the benchmark reports
//! is the duration of one of these spans.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle of an open span, closed by [`Spans::end`].
#[must_use]
pub struct Open(usize);

/// Span recorder for one benchmark process.
pub struct Spans {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new(workload: &str) -> Self {
        Spans {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) -> Open {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span` and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order.
    pub fn end(&mut self, span: Open) -> f64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        let s = &mut self.spans[span.0];
        s.end_ns = end_ns;
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.begin(name);
        let value = f();
        (value, self.end(span))
    }

    /// Seconds since the recorder was created.
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// All spans as a JSON array; `self_ns` is a span's duration minus the
    /// part its child spans cover.
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {}}}",
                s.name,
                self.workload,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i]),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}
