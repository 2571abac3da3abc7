//! Plain-text and CSV report tables for the experiment harness.

use std::fmt;
use std::io::{self, Write};

/// A simple column-aligned table: the experiment driver uses it to print
/// each of the paper's tables and figure series in a diff-friendly form.
///
/// # Example
///
/// ```
/// use coopcache_metrics::Table;
///
/// let mut t = Table::new(vec!["size", "ad-hoc", "ea"]);
/// t.row(vec!["100KB".into(), "0.31".into(), "0.36".into()]);
/// let text = t.to_string();
/// assert!(text.contains("100KB"));
/// assert!(text.lines().count() >= 3); // header, rule, one row
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != column count {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// The column headers.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, in insertion order.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Writes the table as CSV (RFC-4180-style quoting for cells that
    /// contain commas, quotes or newlines).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        fn quote(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        writeln!(
            w,
            "{}",
            self.headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(",")
        )?;
        for row in &self.rows {
            writeln!(
                w,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            )?;
        }
        Ok(())
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// Formats a rate as a percentage with two decimals (`0.3142` → `31.42`),
/// the precision the paper's tables use.
#[must_use]
pub fn pct(rate: f64) -> String {
    format!("{:.2}", rate * 100.0)
}

/// Formats a millisecond quantity in seconds with two decimals, as in the
/// paper's Table 1.
#[must_use]
pub fn secs(ms: f64) -> String {
    format!("{:.2}", ms / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        t
    }

    #[test]
    fn display_aligns_columns() {
        let text = sample().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "  a  bb");
        assert_eq!(lines[1], "---  --");
        assert_eq!(lines[2], "  1   2");
        assert_eq!(lines[3], "333   4");
    }

    #[test]
    fn csv_output() {
        let mut buf = Vec::new();
        sample().write_csv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "a,bb\n1,2\n333,4\n");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["has,comma".into()]);
        t.row(vec!["has\"quote".into()]);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"has,comma\""));
        assert!(text.contains("\"has\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(vec!["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        let _ = Table::new(Vec::<String>::new());
    }

    #[test]
    fn len_and_is_empty() {
        assert!(Table::new(vec!["a"]).is_empty());
        assert_eq!(sample().len(), 2);
    }

    #[test]
    fn accessors_expose_cells() {
        let t = sample();
        assert_eq!(t.headers(), ["a", "bb"]);
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.rows()[1][0], "333");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.314), "31.40");
        assert_eq!(pct(0.0), "0.00");
        assert_eq!(secs(2784.0), "2.78");
        assert_eq!(secs(1_500_000.0), "1500.00");
    }
}
