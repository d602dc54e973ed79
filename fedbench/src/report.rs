//! Collecting metric values and printing the result line.

use crate::names::Metric;
use fed_util::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `run_architecture` calls made and failed, plus failed checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Every `run_architecture` call the benchmark made.
    pub attempted: u64,
    /// Runs that panicked, were too slow or mismatched, and failed checks.
    pub failed: u64,
}

/// Median of `samples` (nearest rank).
///
/// # Panics
///
/// Panics when there is no finite sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::from_values(samples.iter().copied())
        .median()
        .expect("at least one timed sample")
}

/// Metric values by name; each name is set exactly once.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` was already set: a name printed twice is a bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line: exactly the metrics of `table`, in table order.
    ///
    /// # Errors
    ///
    /// Names the first metric of `table` that was never set or is not
    /// finite, or a set name `table` does not know.
    pub fn result_line(&self, table: &[Metric], tally: Tally) -> Result<String, String> {
        if let Some(stray) = self.0.keys().find(|k| !table.iter().any(|m| m.name == **k)) {
            return Err(format!("metric {stray} is not in the name table"));
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0,
            tally.attempted,
            tally.failed
        );
        for (i, m) in table.iter().enumerate() {
            let value = self
                .get(m.name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {} missing or not finite", m.name))?;
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}
