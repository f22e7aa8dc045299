//! Shape regression: series extraction from result tables and the
//! `ShapeSpec` evaluation engine.
//!
//! A *shape* claim is scale-free: it talks about orderings, extrema,
//! monotonicity, flatness, and tolerance-banded ratios of a figure's
//! series — never about absolute values. That is exactly what
//! EXPERIMENTS.md's ✅ marks assert, and what must survive refactors
//! even when the underlying numbers move within tolerance.

use ert_experiments::Table;

/// Numeric series extracted from one result table: an x-axis plus one
/// aligned value series per protocol (or per value column).
#[derive(Debug, Clone)]
pub struct SeriesSet {
    /// Name of the axis column (or `"stat"` for transposed row tables).
    pub axis_name: String,
    /// Axis values, one per point. Row tables use `0..k` positions.
    pub axis: Vec<f64>,
    /// Axis labels, one per point — the raw axis cell text, so checks
    /// can address points by name (e.g. the `"mean"` stat column of a
    /// transposed per-protocol table).
    pub axis_labels: Vec<String>,
    /// `(series name, values)` pairs, each aligned with `axis`.
    pub series: Vec<(String, Vec<f64>)>,
}

/// How a table's rows and columns map onto [`SeriesSet`] series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `axis, series1, series2, ...` — one column per protocol
    /// (Figs. 4a/4b/4c, 5a, 5b, the theorem tables).
    Wide,
    /// `axis, group, v1, v2, ...` — one row per `(axis, group)` pair;
    /// the named value column becomes the group's series (Figs. 7a/7b).
    /// A non-numeric axis (the extension tables' `mode` / `workload`)
    /// is categorical: [`Axis::Named`] addresses its points.
    Long {
        /// The value column to extract.
        value: &'static str,
    },
    /// `key, stat1, stat2, ...` — one row per protocol, no axis
    /// (Fig. 5c). Transposed: each *row* becomes a series and the stat
    /// columns become labelled axis points.
    Rows,
}

impl SeriesSet {
    /// Extracts series from an in-memory [`Table`] under `layout`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed cell or missing
    /// column.
    pub fn from_table(table: &Table, layout: Layout) -> Result<SeriesSet, String> {
        match layout {
            Layout::Wide => Self::wide(table),
            Layout::Long { value } => Self::long(table, value),
            Layout::Rows => Self::rows(table),
        }
    }

    /// Parses a CSV string (header + rows) under `layout`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line or cell.
    pub fn from_csv(csv: &str, layout: Layout) -> Result<SeriesSet, String> {
        let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
        let header: Vec<&str> = lines
            .next()
            .ok_or_else(|| "empty csv".to_owned())?
            .split(',')
            .collect();
        let mut table = Table::new("csv", &header);
        for line in lines {
            let row: Vec<String> = line.split(',').map(str::to_owned).collect();
            if row.len() != header.len() {
                return Err(format!(
                    "row width {} != header width {}: {line}",
                    row.len(),
                    header.len()
                ));
            }
            table.row(row);
        }
        Self::from_table(&table, layout)
    }

    fn wide(table: &Table) -> Result<SeriesSet, String> {
        let axis_name = table
            .header
            .first()
            .cloned()
            .ok_or_else(|| "wide table needs at least one column".to_owned())?;
        let mut axis = Vec::with_capacity(table.rows.len());
        let mut axis_labels = Vec::with_capacity(table.rows.len());
        for row in &table.rows {
            let cell = &row[0];
            axis.push(
                cell.parse::<f64>()
                    .map_err(|_| format!("non-numeric axis cell `{cell}`"))?,
            );
            axis_labels.push(cell.clone());
        }
        // Non-numeric columns (e.g. a boolean `ok` column) are simply
        // not series; checks referencing them report a missing series.
        // The axis column itself is exposed as a series too, so ratio
        // checks can compare counts against it (e.g. Theorem 3.1's
        // `within / n`); extremum checks skip it by name.
        let mut series = vec![(axis_name.clone(), axis.clone())];
        series.extend(table.header.iter().skip(1).filter_map(|name| {
            table
                .numeric_column(name)
                .map(|values| (name.clone(), values))
        }));
        Ok(SeriesSet {
            axis_name,
            axis,
            axis_labels,
            series,
        })
    }

    fn long(table: &Table, value: &'static str) -> Result<SeriesSet, String> {
        if table.header.len() < 3 {
            return Err("long table needs axis, group, and value columns".to_owned());
        }
        let axis_name = table.header[0].clone();
        let value_idx = table
            .column_index(value)
            .ok_or_else(|| format!("long table has no `{value}` column"))?;
        let mut axis_labels: Vec<String> = Vec::new();
        let mut series: Vec<(String, Vec<f64>)> = Vec::new();
        for row in &table.rows {
            let group = row[1].clone();
            let v = row[value_idx]
                .parse::<f64>()
                .map_err(|_| format!("non-numeric `{value}` cell `{}`", row[value_idx]))?;
            let point = match axis_labels.iter().position(|l| *l == row[0]) {
                Some(i) => i,
                None => {
                    axis_labels.push(row[0].clone());
                    axis_labels.len() - 1
                }
            };
            let entry = match series.iter_mut().find(|(name, _)| *name == group) {
                Some(s) => s,
                None => {
                    series.push((group, Vec::new()));
                    series.last_mut().expect("just pushed")
                }
            };
            if entry.1.len() != point {
                return Err(format!(
                    "group `{}` misses a point before axis {}",
                    entry.0, row[0]
                ));
            }
            entry.1.push(v);
        }
        // A categorical axis (`direct`, `anonymous`) is addressed by
        // label; its points sit at their positions.
        let axis: Vec<f64> = axis_labels
            .iter()
            .enumerate()
            .map(|(i, l)| l.parse().unwrap_or(i as f64))
            .collect();
        let n = axis.len();
        if let Some((name, s)) = series.iter().find(|(_, s)| s.len() != n) {
            return Err(format!("group `{name}` has {} of {n} points", s.len()));
        }
        Ok(SeriesSet {
            axis_name,
            axis,
            axis_labels,
            series,
        })
    }

    fn rows(table: &Table) -> Result<SeriesSet, String> {
        if table.header.len() < 2 {
            return Err("row table needs a key column and at least one stat".to_owned());
        }
        let axis_labels: Vec<String> = table.header[1..].to_vec();
        let axis: Vec<f64> = (0..axis_labels.len()).map(|i| i as f64).collect();
        let mut series = Vec::with_capacity(table.rows.len());
        for row in &table.rows {
            let mut values = Vec::with_capacity(axis.len());
            for cell in &row[1..] {
                values.push(
                    cell.parse::<f64>()
                        .map_err(|_| format!("non-numeric stat cell `{cell}`"))?,
                );
            }
            series.push((row[0].clone(), values));
        }
        Ok(SeriesSet {
            axis_name: "stat".to_owned(),
            axis,
            axis_labels,
            series,
        })
    }

    /// The values of a named series.
    pub fn values(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// The largest axis value (0 for an empty set) — the scale signal
    /// tier gates key on.
    pub fn max_axis(&self) -> f64 {
        self.axis.iter().copied().fold(0.0, f64::max)
    }
}

/// Which axis points a check applies to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Axis {
    /// The first axis point.
    First,
    /// The last axis point.
    Last,
    /// The point whose axis value equals this (within `1e-9` relative).
    At(f64),
    /// The point whose axis *label* equals this (row-table stats).
    Named(&'static str),
    /// Every axis point.
    All,
}

impl Axis {
    fn resolve(self, set: &SeriesSet) -> Result<Vec<usize>, String> {
        let n = set.axis.len();
        match self {
            Axis::First => Ok(vec![0]),
            Axis::Last => Ok(vec![n - 1]),
            Axis::All => Ok((0..n).collect()),
            Axis::At(x) => {
                let tol = 1e-9 * x.abs().max(1.0);
                set.axis
                    .iter()
                    .position(|a| (a - x).abs() <= tol)
                    .map(|i| vec![i])
                    .ok_or_else(|| format!("no axis point at {x} in {:?}", set.axis))
            }
            Axis::Named(label) => set
                .axis_labels
                .iter()
                .position(|l| l == label)
                .map(|i| vec![i])
                .ok_or_else(|| format!("no axis label `{label}` in {:?}", set.axis_labels)),
        }
    }
}

/// One scale-free assertion about a [`SeriesSet`].
#[derive(Debug, Clone)]
pub enum ShapeCheck {
    /// `a ≤ b · (1 + slack)` at each selected point.
    Less {
        /// The series expected to be smaller.
        a: &'static str,
        /// The series expected to be larger.
        b: &'static str,
        /// Where to compare.
        at: Axis,
        /// Relative slack on the larger side.
        slack: f64,
    },
    /// `series` is the strict maximum across all series at each
    /// selected point.
    Max {
        /// The series expected on top.
        series: &'static str,
        /// Where to compare.
        at: Axis,
    },
    /// `series` is the strict minimum across all series at each
    /// selected point.
    Min {
        /// The series expected at the bottom.
        series: &'static str,
        /// Where to compare.
        at: Axis,
    },
    /// Each step of `series` may drop at most `slack` (relative).
    NonDecreasing {
        /// The monotone series.
        series: &'static str,
        /// Allowed relative backslide per step.
        slack: f64,
    },
    /// Each step of `series` may rise at most `slack` (relative).
    NonIncreasing {
        /// The monotone series.
        series: &'static str,
        /// Allowed relative rise per step.
        slack: f64,
    },
    /// `num / den ∈ [lo, hi]` at each selected point.
    RatioBand {
        /// Numerator series.
        num: &'static str,
        /// Denominator series.
        den: &'static str,
        /// Where to compare.
        at: Axis,
        /// Inclusive lower ratio bound.
        lo: f64,
        /// Inclusive upper ratio bound (`f64::INFINITY` for one-sided).
        hi: f64,
    },
    /// The `num / den` ratio at the last point is at least `factor`
    /// times the ratio at the first point — the gap widens along the
    /// axis (e.g. Theorem 4.1's exponential separation in load).
    Widening {
        /// Numerator series.
        num: &'static str,
        /// Denominator series.
        den: &'static str,
        /// Minimum last/first ratio growth.
        factor: f64,
    },
    /// `series` is constant: its spread is at most `tol` relative to
    /// its mean magnitude.
    Flat {
        /// The constant series.
        series: &'static str,
        /// Allowed relative spread.
        tol: f64,
    },
    /// The full chain `order[0] ≤ order[1] ≤ ...` (each with `slack`)
    /// at each selected point.
    Ordering {
        /// Series names from smallest to largest.
        order: &'static [&'static str],
        /// Where to compare.
        at: Axis,
        /// Relative slack per adjacent pair.
        slack: f64,
    },
}

/// One failed check, with enough context to read without the spec.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Spec id (`fig4a.quick.base-worst`, ...).
    pub spec: String,
    /// The claim text the spec encodes.
    pub claim: String,
    /// What failed and by how much.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} — {}", self.spec, self.claim, self.detail)
    }
}

/// Which tier of committed/fresh data a spec is calibrated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Laptop-CI scale (`Scenario::quick`, `figures --quick`).
    Quick,
    /// Table 2 scale (n = 2048, 1000–5000 lookups).
    Paper,
    /// Scale-independent (theorem tables, model-vs-sim ratios).
    Any,
}

/// A machine-checkable encoding of one ✅ claim from EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct ShapeSpec {
    /// Stable identifier, `<figure>.<tier>.<slug>`.
    pub id: &'static str,
    /// The claim text (quoted or condensed from EXPERIMENTS.md).
    pub claim: &'static str,
    /// CSV stem the spec reads (`fig_4a` → `results/fig_4a.csv`), equal
    /// to [`ert_experiments::Table::csv_stem`] of the live table.
    pub table: &'static str,
    /// How to extract series from that table.
    pub layout: Layout,
    /// Calibration tier (documentation; gating is via `axis_gate`).
    pub tier: Tier,
    /// Apply only when the max axis value lies in `[lo, hi]` — this is
    /// how quick- and paper-scale calibrations of the same figure
    /// coexist (orderings genuinely differ between scales; see
    /// EXPERIMENTS.md). `None` applies at any scale.
    pub axis_gate: Option<(f64, f64)>,
    /// The assertions.
    pub checks: Vec<ShapeCheck>,
}

impl ShapeSpec {
    /// Whether this spec's gate admits the extracted series.
    pub fn applies(&self, set: &SeriesSet) -> bool {
        match self.axis_gate {
            None => true,
            Some((lo, hi)) => {
                let m = set.max_axis();
                m >= lo && m <= hi
            }
        }
    }

    /// Evaluates every check, returning one violation per failure.
    pub fn eval(&self, set: &SeriesSet) -> Vec<Violation> {
        let mut out = Vec::new();
        for check in &self.checks {
            if let Err(detail) = eval_check(check, set) {
                out.push(Violation {
                    spec: self.id.to_owned(),
                    claim: self.claim.to_owned(),
                    detail,
                });
            }
        }
        out
    }
}

fn need<'a>(set: &'a SeriesSet, name: &str) -> Result<&'a [f64], String> {
    set.values(name)
        .ok_or_else(|| format!("series `{name}` missing from table"))
}

fn point_name(set: &SeriesSet, i: usize) -> String {
    format!("{}={}", set.axis_name, set.axis_labels[i])
}

fn eval_check(check: &ShapeCheck, set: &SeriesSet) -> Result<(), String> {
    // A header-only table holds no claim, however vacuous the check.
    if set.axis.is_empty() {
        return Err("series set has no axis points".to_owned());
    }
    match *check {
        ShapeCheck::Less { a, b, at, slack } => {
            let (va, vb) = (need(set, a)?, need(set, b)?);
            for i in at.resolve(set)? {
                let bound = vb[i] * (1.0 + slack) + 1e-12;
                if va[i] > bound {
                    return Err(format!(
                        "{a}={} exceeds {b}={} (slack {slack}) at {}",
                        va[i],
                        vb[i],
                        point_name(set, i)
                    ));
                }
            }
            Ok(())
        }
        ShapeCheck::Max { series, at } => extremum(set, series, at, true),
        ShapeCheck::Min { series, at } => extremum(set, series, at, false),
        ShapeCheck::NonDecreasing { series, slack } => monotone(set, series, slack, true),
        ShapeCheck::NonIncreasing { series, slack } => monotone(set, series, slack, false),
        ShapeCheck::RatioBand {
            num,
            den,
            at,
            lo,
            hi,
        } => {
            let (vn, vd) = (need(set, num)?, need(set, den)?);
            for i in at.resolve(set)? {
                if vd[i].abs() < 1e-12 {
                    if vn[i].abs() < 1e-12 && lo <= 0.0 {
                        continue; // 0/0 with a band admitting 0
                    }
                    return Err(format!(
                        "{den} is 0 at {} (num {num}={})",
                        point_name(set, i),
                        vn[i]
                    ));
                }
                let r = vn[i] / vd[i];
                if r < lo - 1e-12 || r > hi + 1e-12 {
                    return Err(format!(
                        "{num}/{den}={r:.4} outside [{lo}, {hi}] at {}",
                        point_name(set, i)
                    ));
                }
            }
            Ok(())
        }
        ShapeCheck::Widening { num, den, factor } => {
            let (vn, vd) = (need(set, num)?, need(set, den)?);
            let last = set.axis.len() - 1;
            if vd[0].abs() < 1e-12 || vd[last].abs() < 1e-12 {
                return Err(format!("{den} is 0 at an endpoint"));
            }
            let (r0, r1) = (vn[0] / vd[0], vn[last] / vd[last]);
            if r1 < r0 * factor {
                return Err(format!(
                    "{num}/{den} grew {r0:.3} → {r1:.3}, below the ×{factor} widening"
                ));
            }
            Ok(())
        }
        ShapeCheck::Flat { series, tol } => {
            let v = need(set, series)?;
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let scale = (v.iter().map(|x| x.abs()).sum::<f64>() / v.len() as f64).max(1e-12);
            if (hi - lo) / scale > tol {
                return Err(format!(
                    "{series} spreads [{lo}, {hi}] — not flat within {tol} relative"
                ));
            }
            Ok(())
        }
        ShapeCheck::Ordering { order, at, slack } => {
            for pair in order.windows(2) {
                eval_check(
                    &ShapeCheck::Less {
                        a: pair[0],
                        b: pair[1],
                        at,
                        slack,
                    },
                    set,
                )?;
            }
            Ok(())
        }
    }
}

fn extremum(set: &SeriesSet, series: &str, at: Axis, max: bool) -> Result<(), String> {
    let v = need(set, series)?;
    for i in at.resolve(set)? {
        for (other, w) in &set.series {
            if other == series || *other == set.axis_name {
                continue;
            }
            let beaten = if max { w[i] >= v[i] } else { w[i] <= v[i] };
            if beaten {
                return Err(format!(
                    "{series}={} is not the strict {} at {}: {other}={}",
                    v[i],
                    if max { "max" } else { "min" },
                    point_name(set, i),
                    w[i]
                ));
            }
        }
    }
    Ok(())
}

fn monotone(set: &SeriesSet, series: &str, slack: f64, up: bool) -> Result<(), String> {
    let v = need(set, series)?;
    for (i, w) in v.windows(2).enumerate() {
        let give = slack * w[0].abs().max(1e-12) + 1e-12;
        let broken = if up {
            w[1] < w[0] - give
        } else {
            w[1] > w[0] + give
        };
        if broken {
            return Err(format!(
                "{series} moves {} → {} between {} and {} (slack {slack})",
                w[0],
                w[1],
                point_name(set, i),
                point_name(set, i + 1)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> SeriesSet {
        SeriesSet::from_csv(
            "lookups,Base,NS,VS\n100,1.0,0.9,0.5\n200,2.0,1.8,0.6\n300,3.0,4.5,0.7\n",
            Layout::Wide,
        )
        .unwrap()
    }

    fn spec(checks: Vec<ShapeCheck>) -> ShapeSpec {
        ShapeSpec {
            id: "t.test",
            claim: "demo",
            table: "demo",
            layout: Layout::Wide,
            tier: Tier::Any,
            axis_gate: None,
            checks,
        }
    }

    #[test]
    fn wide_parsing_extracts_axis_and_series() {
        let s = demo();
        assert_eq!(s.axis, vec![100.0, 200.0, 300.0]);
        assert_eq!(s.values("NS"), Some(&[0.9, 1.8, 4.5][..]));
        assert_eq!(s.max_axis(), 300.0);
        assert!(s.values("absent").is_none());
    }

    #[test]
    fn wide_parsing_skips_non_numeric_columns() {
        let s = SeriesSet::from_csv("c,d,ok\n50,100,true\n", Layout::Wide).unwrap();
        assert!(s.values("d").is_some());
        assert!(s.values("ok").is_none());
    }

    #[test]
    fn long_parsing_groups_by_protocol() {
        let csv = "lookups,protocol,mean,p99\n\
                   100,Base,1.0,3.0\n100,VS,2.0,9.0\n\
                   200,Base,1.1,3.1\n200,VS,2.5,9.9\n";
        let s = SeriesSet::from_csv(csv, Layout::Long { value: "p99" }).unwrap();
        assert_eq!(s.axis, vec![100.0, 200.0]);
        assert_eq!(s.values("VS"), Some(&[9.0, 9.9][..]));
        let m = SeriesSet::from_csv(csv, Layout::Long { value: "mean" }).unwrap();
        assert_eq!(m.values("Base"), Some(&[1.0, 1.1][..]));
    }

    #[test]
    fn long_parsing_accepts_a_categorical_axis() {
        let csv = "mode,protocol,cong\n\
                   direct,Base,1.8\ndirect,ERT/AF,1.2\n\
                   anonymous,Base,3.2\nanonymous,ERT/AF,1.4\n";
        let s = SeriesSet::from_csv(csv, Layout::Long { value: "cong" }).unwrap();
        assert_eq!(s.axis_labels, vec!["direct", "anonymous"]);
        assert_eq!(s.values("Base"), Some(&[1.8, 3.2][..]));
        let v = spec(vec![ShapeCheck::Min {
            series: "ERT/AF",
            at: Axis::Named("anonymous"),
        }])
        .eval(&s);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn rows_parsing_transposes() {
        let s = SeriesSet::from_csv(
            "protocol,mean,p99\nBase,4.1,26.0\nNS,18.2,53.4\n",
            Layout::Rows,
        )
        .unwrap();
        assert_eq!(s.axis_labels, vec!["mean", "p99"]);
        assert_eq!(s.values("NS"), Some(&[18.2, 53.4][..]));
        // Named axis resolution picks the stat.
        let v = spec(vec![ShapeCheck::Max {
            series: "NS",
            at: Axis::Named("mean"),
        }])
        .eval(&s);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn checks_pass_and_fail_as_calibrated() {
        let s = demo();
        let good = spec(vec![
            ShapeCheck::Max {
                series: "NS",
                at: Axis::Last,
            },
            ShapeCheck::Min {
                series: "VS",
                at: Axis::All,
            },
            ShapeCheck::NonDecreasing {
                series: "Base",
                slack: 0.0,
            },
            ShapeCheck::Less {
                a: "VS",
                b: "Base",
                at: Axis::All,
                slack: 0.0,
            },
            ShapeCheck::RatioBand {
                num: "NS",
                den: "Base",
                at: Axis::First,
                lo: 0.85,
                hi: 0.95,
            },
            ShapeCheck::Widening {
                num: "NS",
                den: "VS",
                factor: 3.0,
            },
            ShapeCheck::Ordering {
                order: &["VS", "Base", "NS"],
                at: Axis::Last,
                slack: 0.0,
            },
        ]);
        assert!(good.eval(&s).is_empty(), "{:?}", good.eval(&s));

        // Each inverted claim is caught.
        let bads = [
            ShapeCheck::Max {
                series: "VS",
                at: Axis::Last,
            },
            ShapeCheck::Min {
                series: "NS",
                at: Axis::Last,
            },
            ShapeCheck::NonIncreasing {
                series: "Base",
                slack: 0.0,
            },
            ShapeCheck::Less {
                a: "NS",
                b: "VS",
                at: Axis::Last,
                slack: 0.0,
            },
            ShapeCheck::RatioBand {
                num: "NS",
                den: "Base",
                at: Axis::Last,
                lo: 0.9,
                hi: 1.0,
            },
            ShapeCheck::Flat {
                series: "Base",
                tol: 0.01,
            },
        ];
        for bad in &bads {
            let v = spec(vec![bad.clone()]).eval(&s);
            assert_eq!(v.len(), 1, "{bad:?} should fail");
        }

        // A header-only table fails every check, vacuous ones included.
        let empty = SeriesSet::from_csv("lookups,Base,NS,VS\n", Layout::Wide).unwrap();
        assert_eq!(empty.max_axis(), 0.0);
        for check in good.checks.iter().chain(&bads) {
            let v = spec(vec![check.clone()]).eval(&empty);
            assert_eq!(v.len(), 1, "{check:?} should fail on no points");
            assert!(v[0].detail.contains("no axis points"), "{v:?}");
        }
    }

    #[test]
    fn max_is_strict_so_ties_fail() {
        let s = SeriesSet::from_csv("x,A,B\n1,2.0,2.0\n", Layout::Wide).unwrap();
        let v = spec(vec![ShapeCheck::Max {
            series: "A",
            at: Axis::Last,
        }])
        .eval(&s);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn missing_series_is_a_violation_not_a_panic() {
        let v = spec(vec![ShapeCheck::Flat {
            series: "ghost",
            tol: 0.1,
        }])
        .eval(&demo());
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("missing"));
    }

    #[test]
    fn axis_gate_controls_applicability() {
        let s = demo(); // max axis 300
        let mut sp = spec(vec![]);
        sp.axis_gate = Some((0.0, 500.0));
        assert!(sp.applies(&s));
        sp.axis_gate = Some((1000.0, f64::INFINITY));
        assert!(!sp.applies(&s));
        sp.axis_gate = None;
        assert!(sp.applies(&s));
    }

    #[test]
    fn at_axis_resolution() {
        let s = demo();
        assert_eq!(Axis::At(200.0).resolve(&s).unwrap(), vec![1]);
        assert!(Axis::At(150.0).resolve(&s).is_err());
        assert_eq!(Axis::First.resolve(&s).unwrap(), vec![0]);
        assert_eq!(Axis::Last.resolve(&s).unwrap(), vec![2]);
        assert_eq!(Axis::All.resolve(&s).unwrap(), vec![0, 1, 2]);
    }
}
