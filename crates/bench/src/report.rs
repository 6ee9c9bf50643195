//! Plain-text experiment reports: paper-style tables written to stdout.

use std::fmt::Write as _;

/// An accumulating report: titled sections of aligned tables.
#[derive(Clone, Debug, Default)]
pub struct Report {
    buf: String,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a titled section.
    pub fn section(&mut self, title: &str) {
        let _ = writeln!(self.buf, "\n== {title} ==");
    }

    /// Add a free-form line.
    pub fn line(&mut self, text: &str) {
        let _ = writeln!(self.buf, "{text}");
    }

    /// Add an aligned table; `rows` include the header as the first row.
    pub fn table(&mut self, rows: &[Vec<String>]) {
        if rows.is_empty() {
            return;
        }
        let ncols = rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for row in rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        for (i, row) in rows.iter().enumerate() {
            let mut line = String::new();
            for c in 0..ncols {
                let cell = row.get(c).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{cell:<width$}  ", width = widths[c]);
            }
            let _ = writeln!(self.buf, "{}", line.trim_end());
            if i == 0 {
                let total: usize = widths.iter().map(|w| w + 2).sum();
                let _ = writeln!(self.buf, "{}", "-".repeat(total.saturating_sub(2)));
            }
        }
    }

    /// The accumulated text.
    pub fn text(&self) -> &str {
        &self.buf
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_and_tables() {
        let mut r = Report::new();
        r.section("Fig 6");
        r.table(&[
            vec!["d".into(), "time".into()],
            vec!["2".into(), "43".into()],
            vec!["3".into(), "502".into()],
        ]);
        let text = r.text();
        assert!(text.contains("== Fig 6 =="));
        assert!(text.contains("502"));
        // Header separator present.
        assert!(text.contains("---"));
    }

    #[test]
    fn empty_table_is_noop() {
        let mut r = Report::new();
        r.table(&[]);
        assert!(r.text().is_empty());
    }
}
