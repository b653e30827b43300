//! Plain-text table and JSON output helpers shared by the figure binaries.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the cell count should match the header count.
    pub fn add_row<S: Into<String>>(&mut self, cells: Vec<S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            let mut parts = Vec::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                parts.push(format!("{cell:>w$}", w = w));
            }
            let _ = writeln!(out, "{}", parts.join("  "));
        };
        render_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Writes any serialisable value as pretty JSON to `path`.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, json)
}

/// Parses `--json <path>` style arguments: returns the path following the
/// flag, if present.
pub fn json_arg(args: &[String]) -> Option<std::path::PathBuf> {
    flag_value(args, "--json").map(std::path::PathBuf::from)
}

/// Parses `--profile <name>` style arguments, defaulting to `default`.
pub fn profile_arg(args: &[String], default: &str) -> String {
    flag_value(args, "--profile").unwrap_or_else(|| default.to_string())
}

/// The argument following `flag` (e.g. `--out <path>`), if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

/// Returns true if the flag is present (e.g. `--quick`, `--dual-read`).
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(vec!["threads", "ops/s"]);
        t.add_row(vec!["1".to_string(), "1000".to_string()]);
        t.add_row(vec!["130".to_string(), "25000".to_string()]);
        let rendered = t.render();
        assert!(rendered.contains("threads"));
        assert!(rendered.contains("25000"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // All lines after the separator have the same width as the header line.
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn empty_table() {
        let t = Table::new(vec!["a"]);
        assert!(t.is_empty());
        assert!(t.render().contains('a'));
    }

    #[test]
    fn json_round_trip() {
        let dir = std::env::temp_dir().join("harmony-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_json(&path, &vec![1u32, 2, 3]).unwrap();
        let back: Vec<u32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }

    #[test]
    fn argument_helpers() {
        let args: Vec<String> = ["--profile", "ec2", "--json", "/tmp/x.json", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(profile_arg(&args, "grid5000"), "ec2");
        assert_eq!(json_arg(&args).unwrap().to_str().unwrap(), "/tmp/x.json");
        assert!(has_flag(&args, "--quick"));
        assert!(!has_flag(&args, "--dual-read"));
        assert_eq!(profile_arg(&[], "grid5000"), "grid5000");
        assert!(json_arg(&[]).is_none());
    }
}
