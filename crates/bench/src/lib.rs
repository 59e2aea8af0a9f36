//! # geoproof-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md §4 for the index). This library holds the shared
//! report-formatting helpers so every experiment prints aligned,
//! diff-friendly tables.
//!
//! Run an experiment with e.g.
//! `cargo run -p geoproof-bench --bin exp_table1`. Performance is
//! measured by the standalone `benchmark/` package at the repo root,
//! not here.

/// A plain-text table printer producing aligned monospace output.
///
/// # Examples
///
/// ```
/// use geoproof_bench::Table;
///
/// let mut t = Table::new(&["disk", "lookup (ms)"]);
/// t.row(&["WD 2500JD", "13.11"]);
/// let rendered = t.render();
/// assert!(rendered.contains("WD 2500JD"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: &[&str]) {
        let mut row: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        let mut row = cells;
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                out.push_str("| ");
                out.push_str(cell);
                out.push_str(&" ".repeat(widths[c] - cell.len() + 1));
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.headers);
        for w in &widths {
            out.push('|');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("|\n");
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints a titled experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===\n");
}

/// Formats a float with fixed precision, trimming "-0.000".
pub fn fmt_f64(v: f64, decimals: usize) -> String {
    let s = format!("{v:.decimals$}");
    if s.starts_with("-0.") && s[3..].chars().all(|c| c == '0') {
        s[1..].to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xxxxxx", "1"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines are the same width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["1"]);
        assert!(t.render().contains("| 1 "));
    }

    #[test]
    fn fmt_f64_trims_negative_zero() {
        assert_eq!(fmt_f64(-0.0001, 3), "0.000");
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
    }
}
