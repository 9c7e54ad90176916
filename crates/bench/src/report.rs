//! Figure output: aligned text tables and CSV files.

use std::fs;
use std::path::PathBuf;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with column headers: `header` names them, separated by
    /// spaces.
    pub fn new(header: &str) -> Self {
        Self {
            header: header.split(' ').map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Write a figure's CSV under `target/figures/<name>.csv`, creating the
/// directory; returns the path written (best effort — failures are
/// reported but do not abort figure printing).
pub fn write_csv(name: &str, table: &Table) -> Option<PathBuf> {
    let dir = PathBuf::from("target/figures");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.csv"));
    match fs::write(&path, table.to_csv()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Format seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Format a speedup ratio.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// A per-label metrics summary table (Observability section of the
/// README): calls, total and p50/p95/max span durations, bytes.
pub fn metrics_table(metrics: &std::collections::BTreeMap<String, crate::LabelSummary>) -> Table {
    let mut t = Table::new("label calls total_s p50_s p95_s max_s MB");
    for (label, m) in metrics {
        t.row(vec![
            label.clone(),
            m.calls.to_string(),
            fmt_secs(m.total_s),
            fmt_secs(m.p50_s),
            fmt_secs(m.p95_s),
            fmt_secs(m.max_s),
            format!("{:.1}", m.bytes / 1e6),
        ]);
    }
    t
}

/// Insert `label` before the extension of `path` so each configuration of
/// a sweep gets its own trace file (`trace.json` → `trace-omp16.json`).
pub fn trace_path_for(base: &str, label: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(base);
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}-{label}.{ext}"),
        None => format!("{stem}-{label}"),
    };
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("name value");
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer"));
        // All rows the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("a b");
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn csv_roundtrips_header_and_rows() {
        let mut t = Table::new("x y");
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn trace_paths_get_per_config_labels() {
        assert_eq!(
            trace_path_for("out/trace.json", "omp16"),
            PathBuf::from("out/trace-omp16.json")
        );
        assert_eq!(
            trace_path_for("trace.jsonl", "jit8"),
            PathBuf::from("trace-jit8.jsonl")
        );
        assert_eq!(trace_path_for("trace", "x"), PathBuf::from("trace-x"));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(1.234), "1.23");
        assert_eq!(fmt_secs(0.01234), "0.0123");
        assert_eq!(fmt_ratio(2.578), "2.58x");
    }
}
