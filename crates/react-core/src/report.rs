//! Plain-text table rendering and CSV output for the report tables.

use std::fmt::Write as _;

/// A simple column-aligned text table (`report` prints the paper's
/// tables with it).
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header count).
    pub fn push_row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Convenience for string-slice rows.
    pub fn push_strs(&mut self, cells: &[&str]) {
        self.push_row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", render_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }

    /// Renders as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextTable {
        let mut t = TextTable::new("Table X", &["Buffer", "RF Cart", "Mean"]);
        t.push_strs(&["770 µF", "1275", "2317"]);
        t.push_strs(&["REACT", "1711", "3063"]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        assert!(s.contains("== Table X =="));
        assert!(s.contains("Buffer"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows, plus title.
        assert_eq!(lines.len(), 5);
        // Numbers right-aligned under their headers.
        assert!(lines[3].ends_with("2317"));
    }

    #[test]
    fn csv_output() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("Buffer,RF Cart,Mean\n"));
        assert!(csv.contains("REACT,1711,3063"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new("", &["a"]);
        t.push_strs(&["x,y"]);
        t.push_strs(&["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new("", &["a", "b"]);
        t.push_strs(&["only-a"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let s = t.render();
        assert!(s.contains("only-a"));
    }
}
