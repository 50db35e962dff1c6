//! Minimal CSV writing for experiment outputs.
//!
//! Only what the harness needs: header + float/string cells, RFC-4180
//! quoting for strings that need it. Writing goes through a string buffer
//! so tests can assert on content without touching the filesystem.

use std::fmt::Write as _;
use std::path::Path;

/// An in-memory CSV table.
#[derive(Debug, Clone, Default)]
pub struct CsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of pre-rendered cells.
    ///
    /// # Panics
    /// If the cell count does not match the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders RFC-4180 CSV.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_row(&mut out, &self.header);
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Writes the rendered CSV to a file, creating parent directories.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render())
    }
}

fn render_row(out: &mut String, cells: &[String]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if cell.contains([',', '"', '\n']) {
            let escaped = cell.replace('"', "\"\"");
            let _ = write!(out, "\"{escaped}\"");
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

/// Renders a float with enough precision for plotting.
pub(crate) fn fmt_f64(x: f64) -> String {
    format!("{x:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_simple_table() {
        let mut t = CsvTable::new(&["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.render(), "a,b\n1,2\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn quotes_special_cells() {
        let mut t = CsvTable::new(&["m"]);
        t.push_row(vec!["PCA (v=0.5), best".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let rendered = t.render();
        assert!(rendered.contains("\"PCA (v=0.5), best\""));
        assert!(rendered.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        CsvTable::new(&["a", "b"]).push_row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.5), "0.500000");
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("cs_repro_csv_test");
        let path = dir.join("nested/out.csv");
        let mut t = CsvTable::new(&["x"]);
        t.push_row(vec!["1".into()]);
        t.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
