//! Plain-text / CSV tables: the harness's output format.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// A labelled table of results (one per figure panel).
///
/// ```
/// use ert_experiments::Table;
/// let mut t = Table::new("Fig. X", &["lookups", "Base", "ERT/AF"]);
/// t.row(vec!["1000".into(), "2.5".into(), "1.1".into()]);
/// let text = t.render();
/// assert!(text.contains("Fig. X"));
/// assert!(text.contains("ERT/AF"));
/// assert_eq!(t.to_csv().lines().count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    /// Panel title, e.g. "Fig. 4a — 99th percentile max congestion".
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width mismatch in {}",
            self.title
        );
        self.rows.push(row);
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
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

    /// Serializes to CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// The CSV file stem derived from the title
    /// (`Fig. 4a — ...` → `fig_4a`) — the key under which
    /// [`Table::write_csv`] files the panel and under which the
    /// conformance catalogue (`ert-testkit`) looks it up.
    pub fn csv_stem(&self) -> String {
        let stem: String = self
            .title
            .chars()
            .take_while(|&c| c != '—')
            .collect::<String>()
            .trim()
            .to_lowercase()
            .replace([' ', '.'], "_")
            .replace("__", "_");
        stem.trim_matches('_').to_owned()
    }

    /// Writes the CSV under `dir`, deriving the file name from the
    /// title (`Fig. 4a — ...` → `fig_4a.csv`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.csv_stem()));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Index of a named column, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }

    /// A named column as raw strings (one per row), if present.
    pub fn column(&self, name: &str) -> Option<Vec<&str>> {
        let idx = self.column_index(name)?;
        Some(self.rows.iter().map(|r| r[idx].as_str()).collect())
    }

    /// A named column parsed as `f64`s — the figure series as data
    /// instead of CSV text. `None` when the column is missing or any
    /// cell fails to parse.
    pub fn numeric_column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.column_index(name)?;
        self.rows
            .iter()
            .map(|r| r[idx].parse::<f64>().ok())
            .collect()
    }
}

impl Table {
    /// Per-column sparklines for the numeric columns (at least two
    /// rows), labelled `column: spark [min..max]`. Empty when nothing
    /// qualifies — e.g. single-row or non-numeric tables.
    pub fn sparklines(&self) -> String {
        if self.rows.len() < 2 {
            return String::new();
        }
        let mut out = String::new();
        for (col, name) in self.header.iter().enumerate() {
            let values: Vec<f64> = self
                .rows
                .iter()
                .filter_map(|r| r.get(col).and_then(|c| c.parse::<f64>().ok()))
                .collect();
            if values.len() != self.rows.len() || col == 0 {
                continue; // x-axis or non-numeric column
            }
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            out.push_str(&format!(
                "  {name}: {} [{}..{}]\n",
                sparkline(&values),
                fnum(lo),
                fnum(hi)
            ));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Prints every table (with per-column sparklines when the data is
/// numeric) and, when `results_dir` is given, writes each as CSV there.
/// Used by the `figures` binary for every row.
///
/// # Errors
///
/// Two tables that map to the same [`Table::csv_stem`] would overwrite
/// each other's file, so that is rejected before anything is printed or
/// written; a CSV that cannot be written is reported with its path.
pub fn emit(tables: &[Table], results_dir: Option<&Path>) -> Result<(), String> {
    let mut stems = BTreeSet::new();
    for t in tables {
        if !stems.insert(t.csv_stem()) {
            return Err(format!(
                "two tables map to `{}.csv` (the second is \"{}\"); \
                 make the title prefixes before the dash distinct",
                t.csv_stem(),
                t.title
            ));
        }
    }
    for t in tables {
        println!("{t}");
        let sparks = t.sparklines();
        if !sparks.is_empty() {
            println!("{sparks}");
        }
        if let Some(dir) = results_dir {
            let path = t.write_csv(dir).map_err(|e| {
                format!(
                    "cannot write {}.csv under {}: {e}",
                    t.csv_stem(),
                    dir.display()
                )
            })?;
            println!("(csv: {})\n", path.display());
        }
    }
    Ok(())
}

/// Renders `values` as a unicode sparkline (`▁` … `█`); empty input
/// yields an empty string, and a flat series renders mid-height.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            if hi <= lo {
                BARS[3]
            } else {
                let t = ((v - lo) / (hi - lo) * 7.0).round() as usize;
                BARS[t.min(7)]
            }
        })
        .collect()
}

/// Formats an `f64` compactly for table cells.
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T — demo", &["a", "bbbb"]);
        t.row(vec!["12345".into(), "1".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("    a  bbbb"));
        assert!(lines[3].contains("12345     1"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("Fig. 9z — x", &["k", "v"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "k,v\n1,2\n3,4\n");
    }

    #[test]
    fn column_accessors_expose_series_as_data() {
        let mut t = Table::new("Fig. 4a — congestion", &["lookups", "Base", "note"]);
        t.row(vec!["100".into(), "0.8".into(), "x".into()]);
        t.row(vec!["200".into(), "2.0".into(), "y".into()]);
        assert_eq!(t.column_index("Base"), Some(1));
        assert_eq!(t.numeric_column("lookups"), Some(vec![100.0, 200.0]));
        assert_eq!(t.numeric_column("Base"), Some(vec![0.8, 2.0]));
        assert_eq!(t.numeric_column("note"), None);
        assert_eq!(t.numeric_column("absent"), None);
        assert_eq!(t.column("note"), Some(vec!["x", "y"]));
        assert_eq!(t.csv_stem(), "fig_4a");
    }

    #[test]
    fn csv_filename_from_title() {
        let t = Table::new("Fig. 4a — congestion", &["x"]);
        let dir = std::env::temp_dir().join("ert_report_test");
        let path = t.write_csv(&dir).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("fig_4a"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn emit_rejects_two_tables_with_one_stem_before_writing() {
        let dir = std::env::temp_dir().join(format!("ert_report_dup_{}", std::process::id()));
        let tables = [
            Table::new("Dup — first", &["x"]),
            Table::new("Dup — second", &["y"]),
        ];
        let err = emit(&tables, Some(&dir)).unwrap_err();
        assert!(
            err.contains("`dup.csv`") && err.contains("Dup — second"),
            "{err}"
        );
        assert!(!dir.exists(), "nothing may be written once a stem repeats");
        // Distinct stems go through.
        let tables = [
            Table::new("Dup a — first", &["x"]),
            Table::new("Dup b — second", &["y"]),
        ];
        assert_eq!(emit(&tables, Some(&dir)), Ok(()));
        assert!(dir.join("dup_a.csv").exists() && dir.join("dup_b.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▄▄▄");
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(ramp.chars().count(), 4);
        assert!(ramp.starts_with('▁') && ramp.ends_with('█'));
    }

    #[test]
    fn table_sparklines_skip_x_axis_and_text() {
        let mut t = Table::new("T — s", &["x", "name", "v"]);
        t.row(vec!["1".into(), "a".into(), "10".into()]);
        t.row(vec!["2".into(), "b".into(), "30".into()]);
        let s = t.sparklines();
        assert!(s.contains("v:"), "{s}");
        assert!(!s.contains("name:"));
        assert!(!s.contains("x:"));
        // Single-row tables produce nothing.
        let mut one = Table::new("O", &["x", "v"]);
        one.row(vec!["1".into(), "2".into()]);
        assert_eq!(one.sparklines(), "");
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(3.24159), "3.242");
        assert_eq!(fnum(32.4159), "32.42");
        assert_eq!(fnum(32415.9), "32416");
    }
}
