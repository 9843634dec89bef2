//! Plain-text tables for the experiment harness.
//!
//! Every experiment binary prints one or more of these; EXPERIMENTS.md
//! embeds their markdown renderings.

use std::fmt;

/// A titled table with a header row and string cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a row of displayable cells.
    pub fn row<T: fmt::Display>(&mut self, cells: &[T]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:>width$}  ", c, width = w[i]));
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let total: usize = w.iter().sum::<usize>() + 2 * w.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["k", "bound", "measured"]);
        t.row(&[0, 0, 0]);
        t.row(&[16, 14400, 900]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("k"));
        assert!(s.contains("14400"));
        assert_eq!(t.rows.len(), 2);
        assert!(!t.rows.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        let mut t = Table::new("x", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn display_equals_render() {
        let mut t = Table::new("d", &["c"]);
        t.row(&["v"]);
        assert_eq!(t.to_string(), t.render());
    }
}
