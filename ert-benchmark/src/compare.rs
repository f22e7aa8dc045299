//! `ert-benchmark compare <a> <b>`: judges run set `b` (the change)
//! against run set `a` (the parent), one row per end-to-end metric and
//! workload.
//!
//! Each file holds the records `--out` appended, any number of runs
//! per workload. A host-time metric is `worse` when `b`'s median is
//! worse than `a`'s by more than the metric's bound; otherwise it is
//! `unresolved` when either side's run-to-run spread is wider than the
//! bound and the two sides' runs interleave, and `within-bound` when
//! not. An exact metric (a function of the seed alone) is compared bit
//! for bit on every seed both sides ran: `identical` or `differs`.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::report::RunResult;
use crate::stats::quartiles;
use crate::workload::WORKLOADS;

/// The judgement on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The medians are within the bound.
    WithinBound,
    /// Within the bound by medians, but the spread is wider than the
    /// bound and the runs interleave: the runs cannot tell.
    Unresolved,
    /// An exact metric agreed bit for bit on every common seed.
    Identical,
    /// An exact metric differed on a common seed.
    Differs,
}

impl Verdict {
    /// The printed spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Differs => "differs",
        }
    }

    /// True for the verdicts that make `compare` exit non-zero.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Runs on each side.
    pub runs: (usize, usize),
    /// Median of `a`'s runs.
    pub a: f64,
    /// Median of `b`'s runs.
    pub b: f64,
    /// Share of `a`'s median by which `b`'s is worse (negative when
    /// better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Reads the untraced records of an `--out` file.
///
/// # Errors
///
/// Returns a message naming the file and line that could not be read
/// or parsed.
pub fn load(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let run = RunResult::parse_record(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if !run.traced {
            runs.push(run);
        }
    }
    Ok(runs)
}

fn judge_host(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let worse_by = match metric.better {
        Better::Lower => (qb.median - qa.median) / qa.median,
        Better::Higher => (qa.median - qb.median) / qa.median,
    };
    let b_wins_every_pair = match metric.better {
        Better::Lower => qb.max < qa.min,
        Better::Higher => qb.min > qa.max,
    };
    let verdict = if worse_by > metric.bound {
        Verdict::Worse
    } else if qa.spread().max(qb.spread()) > metric.bound && !b_wins_every_pair {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    (qa.median, qb.median, worse_by, verdict)
}

/// Compares every (workload, metric) pair present on both sides, in
/// table order.
pub fn compare<'a>(a: &'a [RunResult], b: &'a [RunResult]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let side = |runs: &'a [RunResult]| -> Vec<&'a RunResult> {
            runs.iter()
                .filter(|r| r.workload == workload.name)
                .collect()
        };
        let (runs_a, runs_b) = (side(a), side(b));
        if runs_a.is_empty() || runs_b.is_empty() {
            continue;
        }
        for metric in &END_TO_END {
            let values = |runs: &[&RunResult]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.value(metric.name)).collect()
            };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb, worse_by, mut verdict) = judge_host(metric, &va, &vb);
            if metric.exact {
                let common: Vec<bool> = runs_a
                    .iter()
                    .flat_map(|ra| runs_b.iter().map(move |rb| (ra, rb)))
                    .filter(|(ra, rb)| ra.seed == rb.seed)
                    .filter_map(|(ra, rb)| {
                        let (x, y) = (ra.value(metric.name)?, rb.value(metric.name)?);
                        Some(x.to_bits() == y.to_bits())
                    })
                    .collect();
                if !common.is_empty() {
                    verdict = if common.iter().all(|same| *same) {
                        Verdict::Identical
                    } else {
                        Verdict::Differs
                    };
                }
            }
            rows.push(Row {
                workload: workload.name,
                metric: metric.name,
                runs: (va.len(), vb.len()),
                a: ma,
                b: mb,
                worse_by,
                bound: metric.bound,
                verdict,
            });
        }
    }
    rows
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<24} {:>5} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "runs", "a (median)", "b (median)", "worse by", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<24} {:>5} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            format!("{}/{}", r.runs.0, r.runs.1),
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::report::Metric;

    fn run(seed: u64, rate: f64, hops: f64) -> RunResult {
        RunResult {
            workload: "sim-table2".into(),
            seed,
            traced: false,
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "lookups_per_s".into(),
                    value: rate,
                    unit: "1/s".into(),
                },
                Metric {
                    name: "sim_mean_hops".into(),
                    value: hops,
                    unit: "count".into(),
                },
            ],
            samples: BTreeMap::new(),
            fingerprint: String::new(),
            errors: Vec::new(),
        }
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_worse_and_a_small_one_is_not() {
        let a = [run(1, 1000.0, 8.0)];
        let rows = compare(&a, &[run(1, 700.0, 8.0)]);
        assert_eq!(verdict(&rows, "lookups_per_s"), Verdict::Worse);
        assert_eq!(verdict(&rows, "sim_mean_hops"), Verdict::Identical);
        assert!(rows.iter().any(|r| r.verdict.fails()));
        let rows = compare(&a, &[run(1, 950.0, 8.0)]);
        assert_eq!(verdict(&rows, "lookups_per_s"), Verdict::WithinBound);
        assert!(!rows.iter().any(|r| r.verdict.fails()));
        let rows = compare(&a, &[run(1, 2000.0, 8.0)]);
        assert_eq!(verdict(&rows, "lookups_per_s"), Verdict::WithinBound);
    }

    #[test]
    fn an_exact_metric_that_moves_on_a_common_seed_differs() {
        let rows = compare(&[run(1, 1000.0, 8.0)], &[run(1, 1000.0, 8.000_000_1)]);
        assert_eq!(verdict(&rows, "sim_mean_hops"), Verdict::Differs);
        // Without a common seed it falls back to the bound.
        let rows = compare(&[run(1, 1000.0, 8.0)], &[run(2, 1000.0, 8.000_000_1)]);
        assert_eq!(verdict(&rows, "sim_mean_hops"), Verdict::WithinBound);
    }

    #[test]
    fn wide_interleaved_runs_are_unresolved_unless_one_side_always_wins() {
        let noisy = |base: u64, rates: [f64; 4]| -> Vec<RunResult> {
            rates
                .iter()
                .enumerate()
                .map(|(i, r)| run(base + i as u64, *r, 8.0))
                .collect()
        };
        let a = noisy(1, [600.0, 900.0, 1100.0, 1400.0]);
        let b = noisy(1, [650.0, 950.0, 1050.0, 1350.0]);
        assert_eq!(
            verdict(&compare(&a, &b), "lookups_per_s"),
            Verdict::Unresolved
        );
        let b = noisy(1, [1500.0, 1900.0, 2100.0, 2600.0]);
        assert_eq!(
            verdict(&compare(&a, &b), "lookups_per_s"),
            Verdict::WithinBound
        );
    }
}
