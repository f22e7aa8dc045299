//! Resilience sweep: lookup survival as injected-fault intensity rises.
//!
//! Not a paper figure — a robustness extension. Every protocol runs the
//! same seeded chaos schedules (crash-stop departures, degraded hosts,
//! message-loss episodes, partitions; see `ert-faults`) with the
//! standard retry policy, and the tables report what fraction of
//! lookups still completes and what recovery overhead each protocol
//! pays. The hypothesis under test: ERT's candidate sets and congestion
//! awareness degrade more gracefully than Base's single-neighbor
//! tables, because a lost forward usually has a live, reachable
//! alternative.

use ert_baselines::base;
use ert_network::{ProtocolSpec, RetryPolicy, RunReport};

use crate::report::{fnum, Table};
use crate::scenario::{run_sweep_with, Scenario};

/// The chaos-intensity sweep.
pub fn intensities(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.5, 1.0]
    } else {
        vec![0.0, 0.25, 0.5, 0.75, 1.0]
    }
}

/// The protocols the sweep compares.
pub fn protocols() -> Vec<ProtocolSpec> {
    vec![base(), ProtocolSpec::ert_af()]
}

/// Runs every protocol at each chaos intensity under the standard
/// retry policy — one flat `(intensity, protocol, seed)` batch on the
/// worker pool — averaging over the scenario's seeds.
pub fn resilience_sweep(base_s: &Scenario, intensities: &[f64]) -> Vec<(f64, Vec<RunReport>)> {
    let specs = protocols();
    let variants: Vec<(Scenario, _)> = intensities
        .iter()
        .map(|&x| {
            let mut s = base_s.clone();
            s.chaos = (x > 0.0).then_some(x);
            (s, specs.clone())
        })
        .collect();
    let swept = run_sweep_with(&variants, |cfg| cfg.retry = RetryPolicy::standard());
    intensities.iter().copied().zip(swept).collect()
}

/// Builds the completion-fraction and recovery-overhead tables.
pub fn tables(sweep: &[(f64, Vec<RunReport>)]) -> Vec<Table> {
    let mut header = vec!["intensity".to_owned()];
    if let Some((_, rs)) = sweep.first() {
        for r in rs {
            header.push(format!("{} completed", r.protocol));
            header.push(format!("{} failed", r.protocol));
        }
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut survival = Table::new(
        "Resilience a — lookup completion under injected faults",
        &header_refs,
    );
    let mut over_header = vec!["intensity".to_owned()];
    if let Some((_, rs)) = sweep.first() {
        for r in rs {
            over_header.push(format!("{} retries/lookup", r.protocol));
            over_header.push(format!("{} timeouts/lookup", r.protocol));
        }
    }
    let over_refs: Vec<&str> = over_header.iter().map(String::as_str).collect();
    let mut overhead = Table::new(
        "Resilience b — recovery overhead under injected faults",
        &over_refs,
    );
    for (x, reports) in sweep {
        let mut row = vec![format!("{x:.2}")];
        let mut orow = vec![format!("{x:.2}")];
        for r in reports {
            let frac = if r.lookups_started == 0 {
                0.0
            } else {
                r.lookups_completed as f64 / r.lookups_started as f64
            };
            row.push(fnum(frac));
            row.push(format!("{}", r.lookups_failed));
            orow.push(fnum(r.retries_per_lookup));
            orow.push(fnum(r.timeouts_per_lookup));
        }
        survival.row(row);
        overhead.row(orow);
    }
    vec![survival, overhead]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_degrades_gracefully() {
        let s = Scenario::quick(11);
        let sweep = resilience_sweep(&s, &[0.0, 1.0]);
        assert_eq!(sweep.len(), 2);
        let calm = &sweep[0].1;
        let hostile = &sweep[1].1;
        // Fault-free: everything completes for both protocols.
        for r in calm {
            assert_eq!(r.lookups_completed, r.lookups_started, "{}", r.protocol);
            assert_eq!(r.lookups_failed, 0);
            assert_eq!(r.retries_per_lookup, 0.0);
        }
        // Hostile: conservation still holds and most lookups survive.
        for r in hostile {
            assert_eq!(
                r.lookups_completed + r.lookups_dropped + r.lookups_failed,
                r.lookups_started,
                "{}",
                r.protocol
            );
            assert!(
                r.lookups_completed as f64 >= 0.5 * r.lookups_started as f64,
                "{} completed only {}/{}",
                r.protocol,
                r.lookups_completed,
                r.lookups_started
            );
        }
    }

    #[test]
    fn tables_have_one_row_per_intensity() {
        let s = Scenario::quick(12);
        let sweep = resilience_sweep(&s, &[0.0, 0.5]);
        let ts = tables(&sweep);
        assert_eq!(ts.len(), 2);
        for t in &ts {
            assert_eq!(t.rows.len(), 2);
        }
    }

    #[test]
    fn the_two_tables_go_to_distinct_csv_files() {
        let ts = tables(&[]);
        assert_eq!(ts[0].csv_stem(), "resilience_a");
        assert_eq!(ts[1].csv_stem(), "resilience_b");
    }
}
