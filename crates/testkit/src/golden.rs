//! Golden-master evaluation: run the [`crate::specs`] catalogue
//! against the committed `results/*.csv` files and against the
//! catalog's own rows run fresh at quick scale.
//!
//! Matching is by CSV stem: a spec's `table` field names the stem the
//! experiment harness derives from the panel title
//! (`Table::csv_stem`), so the same spec finds its data whether it
//! arrives as a committed file or a fresh in-memory [`Table`].
//! Tier gates ([`ShapeSpec::applies`]) decide per data set whether a
//! spec evaluates or skips, so quick-calibrated and paper-calibrated
//! tiers coexist in one catalogue.

use std::path::{Path, PathBuf};

use ert_experiments::catalog::{find, Ctx};
use ert_experiments::Table;

use crate::shape::{SeriesSet, ShapeSpec, Violation};

/// Outcome of evaluating a spec batch against one data source.
#[derive(Debug, Default)]
pub struct GoldenReport {
    /// Spec ids that matched data and ran their checks.
    pub evaluated: Vec<&'static str>,
    /// Spec ids whose tier gate rejected the data they matched
    /// (e.g. a paper-scale spec offered a quick-scale sweep).
    pub skipped: Vec<&'static str>,
    /// Spec ids whose table was absent from the data source entirely.
    pub missing: Vec<&'static str>,
    /// Every violation across all evaluated specs.
    pub violations: Vec<Violation>,
}

impl GoldenReport {
    /// True when at least one spec evaluated and none violated.
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.evaluated.is_empty() && self.violations.is_empty()
    }

    /// Human-readable multi-line summary (used in test failure
    /// messages).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} evaluated, {} skipped (tier gate), {} missing, {} violations\n",
            self.evaluated.len(),
            self.skipped.len(),
            self.missing.len(),
            self.violations.len()
        );
        for v in &self.violations {
            out.push_str(&format!("  {v}\n"));
        }
        out
    }

    fn absorb(&mut self, spec: &ShapeSpec, set: Result<SeriesSet, String>) {
        match set {
            Err(e) => self.violations.push(Violation {
                spec: spec.id.to_owned(),
                claim: spec.claim.to_owned(),
                detail: format!("could not parse table '{}': {e}", spec.table),
            }),
            Ok(set) => {
                if spec.applies(&set) {
                    self.evaluated.push(spec.id);
                    self.violations.extend(spec.eval(&set));
                } else {
                    self.skipped.push(spec.id);
                }
            }
        }
    }
}

/// The repository `results/` directory, resolved relative to this
/// crate's manifest so tests work from any working directory.
#[must_use]
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results")
}

/// Evaluates `specs` against committed CSV files under `dir`.
/// A spec whose `<table>.csv` does not exist lands in
/// [`GoldenReport::missing`] — the caller decides whether that is an
/// error (it is for the shipped catalogue, whose tables are all
/// committed).
#[must_use]
pub fn check_committed(specs: &[ShapeSpec], dir: &Path) -> GoldenReport {
    let mut report = GoldenReport::default();
    for spec in specs {
        let path = dir.join(format!("{}.csv", spec.table));
        match std::fs::read_to_string(&path) {
            Err(_) => report.missing.push(spec.id),
            Ok(csv) => report.absorb(spec, SeriesSet::from_csv(&csv, spec.layout)),
        }
    }
    report
}

/// Evaluates `specs` against in-memory tables (fresh sweep output),
/// matching by [`Table::csv_stem`]. Tables with no matching spec are
/// ignored; specs with no matching table land in `missing`.
#[must_use]
pub fn check_tables(specs: &[ShapeSpec], tables: &[Table]) -> GoldenReport {
    let stems: Vec<(String, &Table)> = tables.iter().map(|t| (t.csv_stem(), t)).collect();
    let mut report = GoldenReport::default();
    for spec in specs {
        match stems.iter().find(|(stem, _)| stem == spec.table) {
            None => report.missing.push(spec.id),
            Some((_, table)) => report.absorb(spec, SeriesSet::from_table(table, spec.layout)),
        }
    }
    report
}

/// Runs the named catalog rows at quick scale on seed 1 — exactly what
/// `figures <rows> --quick` writes, one [`Ctx`] memoising the sweeps the
/// rows share.
fn quick_rows(rows: &[&str]) -> Vec<Table> {
    let ctx = Ctx::with_seeds(true, vec![1]);
    rows.iter()
        .flat_map(|name| ctx.run(find(name).expect("a catalog row")))
        .collect()
}

/// The catalog rows `fig4`, `fig4-service`, `fig5` and `fig7` at quick
/// scale: every panel the quick-tier figure specs judge.
/// Deterministic: identical output every run.
#[must_use]
pub fn quick_tables() -> Vec<Table> {
    quick_rows(&["fig4", "fig4-service", "fig5", "fig7"])
}

/// The catalog row `adversarial` at quick scale, so the quick-tier
/// `adv_*` specs judge freshly regenerated attack data, not just the
/// committed full-scale snapshot. Deterministic.
#[must_use]
pub fn adversarial_quick_tables() -> Vec<Table> {
    quick_rows(&["adversarial"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{Axis, Layout, ShapeCheck, Tier};

    fn toy_spec(gate: Option<(f64, f64)>) -> ShapeSpec {
        ShapeSpec {
            id: "toy",
            claim: "b tops",
            table: "toy_panel",
            layout: Layout::Wide,
            tier: Tier::Any,
            axis_gate: gate,
            checks: vec![ShapeCheck::Max {
                series: "b",
                at: Axis::Last,
            }],
        }
    }

    fn toy_table() -> Table {
        let mut t = Table::new("Toy panel — demo", &["x", "a", "b"]);
        t.row(vec!["1".into(), "1.0".into(), "2.0".into()]);
        t.row(vec!["2".into(), "1.5".into(), "3.0".into()]);
        t
    }

    #[test]
    fn check_tables_matches_by_stem() {
        let report = check_tables(&[toy_spec(None)], &[toy_table()]);
        assert_eq!(report.evaluated, vec!["toy"]);
        assert!(report.violations.is_empty(), "{}", report.summary());
        assert!(report.clean());
    }

    #[test]
    fn gate_mismatch_skips_instead_of_failing() {
        let report = check_tables(&[toy_spec(Some((100.0, f64::INFINITY)))], &[toy_table()]);
        assert_eq!(report.skipped, vec!["toy"]);
        assert!(report.evaluated.is_empty());
        assert!(!report.clean(), "nothing evaluated must not count as clean");
    }

    #[test]
    fn absent_table_lands_in_missing() {
        let report = check_tables(&[toy_spec(None)], &[]);
        assert_eq!(report.missing, vec!["toy"]);
    }

    #[test]
    fn committed_results_directory_resolves() {
        assert!(
            results_dir().join("fig_4a.csv").exists(),
            "results dir not found at {}",
            results_dir().display()
        );
    }
}
