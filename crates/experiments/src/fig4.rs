//! Fig. 4 — effectiveness of congestion control vs. total query load:
//! (a) 99th-percentile maximum congestion, (b) 99th-percentile
//! congestion of the minimum-capacity node, (c) 99th-percentile share.

use ert_baselines::all_protocols;
use ert_network::RunReport;

use crate::report::{fnum, Table};
use crate::scenario::{run_sweep, Scenario};

/// The lookup-count sweep shared by Figs. 4, 5a and 7: runs every
/// protocol at each lookup count — all `(point, protocol, seed)` cells
/// as one flat batch on the worker pool — and returns
/// `(lookups, reports)` rows.
pub fn lookup_sweep(base: &Scenario, points: &[usize]) -> Vec<(usize, Vec<RunReport>)> {
    let variants: Vec<(Scenario, _)> = points
        .iter()
        .map(|&lookups| {
            let mut s = base.clone();
            s.lookups = lookups;
            (s, all_protocols(base.n))
        })
        .collect();
    points.iter().copied().zip(run_sweep(&variants)).collect()
}

/// The paper's sweep: 1000–5000 lookups in steps of 1000.
pub fn paper_points() -> Vec<usize> {
    vec![1000, 2000, 3000, 4000, 5000]
}

/// A reduced sweep for tests and benches.
pub fn quick_points() -> Vec<usize> {
    vec![100, 200, 300]
}

/// Builds the three Fig. 4 panels from a sweep.
pub fn tables(sweep: &[(usize, Vec<RunReport>)]) -> Vec<Table> {
    let mut header = vec!["lookups"];
    let names: Vec<String> = sweep.first().map_or(Vec::new(), |(_, rs)| {
        rs.iter().map(|r| r.protocol.clone()).collect()
    });
    header.extend(names.iter().map(String::as_str));
    let mut t4a = Table::new(
        "Fig. 4a — 99th percentile max congestion vs lookups",
        &header,
    );
    let mut t4b = Table::new(
        "Fig. 4b — 99th percentile congestion of min-capacity node",
        &header,
    );
    let mut t4c = Table::new("Fig. 4c — 99th percentile share vs lookups", &header);
    for (lookups, reports) in sweep {
        let key = lookups.to_string();
        t4a.row(
            std::iter::once(key.clone())
                .chain(reports.iter().map(|r| fnum(r.p99_max_congestion)))
                .collect(),
        );
        t4b.row(
            std::iter::once(key.clone())
                .chain(reports.iter().map(|r| fnum(r.p99_min_capacity_congestion)))
                .collect(),
        );
        t4c.row(
            std::iter::once(key)
                .chain(reports.iter().map(|r| fnum(r.p99_share)))
                .collect(),
        );
    }
    vec![t4a, t4b, t4c]
}

/// The paper's alternate load axis: "we also varied the processing time
/// of a query in a light node from 0.1 to 2.1 second ... The total
/// query load increases in both cases and we observed similar results."
/// Sweeps the light service time under the uniform workload and reports
/// the Fig. 4a metric.
pub fn service_time_variant(base: &Scenario, services: &[f64]) -> Table {
    let specs = all_protocols(base.n);
    let mut header = vec!["service_s".to_owned()];
    header.extend(specs.iter().map(|s| s.name.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig. 4 (service-time axis) — 99th percentile max congestion",
        &header_refs,
    );
    let variants: Vec<(Scenario, _)> = services
        .iter()
        .map(|&svc| {
            let mut s = base.clone();
            s.light_service_secs = svc;
            (s, specs.clone())
        })
        .collect();
    for (&svc, reports) in services.iter().zip(run_sweep(&variants)) {
        t.row(
            std::iter::once(format!("{svc:.1}"))
                .chain(reports.iter().map(|r| fnum(r.p99_max_congestion)))
                .collect(),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_all_panels() {
        let sweep = lookup_sweep(&Scenario::quick(1), &[80, 160]);
        let tables = tables(&sweep);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.rows.len(), 2);
            assert_eq!(t.header.len(), 7); // lookups + 6 protocols
        }
    }

    #[test]
    fn service_time_axis_raises_congestion_like_lookup_count() {
        let mut s = Scenario::quick(14);
        s.lookups = 200;
        let t = service_time_variant(&s, &[0.1, 0.9]);
        assert_eq!(t.rows.len(), 2);
        let base_slow: f64 = t.rows[1][1].parse().unwrap();
        let base_fast: f64 = t.rows[0][1].parse().unwrap();
        assert!(
            base_slow >= base_fast,
            "slower service should not reduce congestion: {base_fast} -> {base_slow}"
        );
    }

    #[test]
    fn congestion_grows_with_load_for_base() {
        let sweep = lookup_sweep(&Scenario::quick(2), &[60, 240]);
        let base_small = sweep[0].1[0].p99_max_congestion;
        let base_large = sweep[1].1[0].p99_max_congestion;
        assert!(
            base_large >= base_small,
            "more lookups should not reduce Base congestion: {base_small} -> {base_large}"
        );
    }
}
