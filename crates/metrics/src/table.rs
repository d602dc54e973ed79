//! Plain-text result tables, the output format of every experiment.

use std::fmt;

/// A simple aligned text table with a title, headers and string cells.
///
/// # Examples
///
/// ```
/// use fed_metrics::table::Table;
///
/// let mut t = Table::new("Fairness by system", &["system", "jain", "gini"]);
/// t.row(&["static-gossip", "0.31", "0.58"]);
/// t.row(&["fair-gossip", "0.97", "0.04"]);
/// let s = t.to_string();
/// assert!(s.contains("fair-gossip"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of owned strings (convenient with `format!`).
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "## {}", self.title)?;
        let render_row = |row: &[String]| -> String {
            let cells: Vec<String> = widths
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    let val = row.get(i).map(String::as_str).unwrap_or("");
                    format!("{val:<w$}")
                })
                .collect();
            format!("| {} |", cells.join(" | "))
        };
        writeln!(f, "{}", render_row(&self.headers))?;
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        writeln!(f, "|-{}-|", sep.join("-|-"))?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row))?;
        }
        Ok(())
    }
}

/// Formats an `f64` compactly for table cells (4 significant decimals,
/// `inf` degrades gracefully).
pub fn fmt_f64(x: f64) -> String {
    if x.is_infinite() {
        return if x > 0.0 { "inf".into() } else { "-inf".into() };
    }
    if x.is_nan() {
        return "nan".into();
    }
    if x == 0.0 {
        return "0".into();
    }
    if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a", "1"]);
        t.row(&["longer-name", "2.5"]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| name        | value |"), "{s}");
        assert!(s.contains("| longer-name | 2.5   |"), "{s}");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn ragged_rows_render() {
        let mut t = Table::new("ragged", &["a", "b"]);
        t.row(&["1"]);
        t.row(&["1", "2", "3"]);
        let s = t.to_string();
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn row_owned_works() {
        let mut t = Table::new("owned", &["x"]);
        t.row_owned(vec![format!("{}", 42)]);
        assert!(t.to_string().contains("42"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-inf");
        assert_eq!(fmt_f64(f64::NAN), "nan");
        assert_eq!(fmt_f64(0.123456), "0.1235");
        assert_eq!(fmt_f64(12.345), "12.35");
        assert_eq!(fmt_f64(1234.5), "1234", "round-half-to-even");
        assert_eq!(fmt_f64(1235.5), "1236");
    }
}
