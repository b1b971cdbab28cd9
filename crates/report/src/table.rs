//! Plain-text table rendering: [`TextTable`].

use core::fmt::Write as _;

/// A simple monospace table builder for report output.
///
/// # Example
///
/// ```
/// use cbs_report::table::TextTable;
///
/// let mut t = TextTable::new(vec!["metric", "paper", "measured"]);
/// t.row(vec!["volumes", "1000", "100"]);
/// let text = t.render();
/// assert!(text.contains("metric"));
/// assert!(text.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    ///
    /// # Panics
    ///
    /// Panics if the header is empty.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        assert!(!header.is_empty(), "table needs at least one column");
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; short rows are padded with empty cells, long
    /// rows are truncated to the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "writing to a String cannot fail"
    )]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            // trim trailing padding
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "long-header", "c"]);
        t.row(vec!["wide-cell", "x", "y"]);
        t.row(vec!["1", "2", "3"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // header columns align with data columns
        let h = lines[0].find("long-header").unwrap();
        let d = lines[2].find('x').unwrap();
        assert_eq!(h, d);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
        t.row(vec!["x", "y", "extra-ignored"]);
        let text = t.render();
        assert!(text.contains("only-one"));
        assert!(!text.contains("extra-ignored"));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn rejects_empty_header() {
        let _ = TextTable::new(Vec::<String>::new());
    }
}
