//! Fig. 7 — routing-table degrees and maintenance cost: the average /
//! 1st / 99th percentile of each node's maximum indegree (a) and
//! outdegree (b) as total query load varies, plus Section 5.3's
//! maintenance operations per lookup.

use crate::report::fnum;
use crate::sweep::{Layout, Panel};

/// The two Fig. 7 panels and the Section 5.3 cost, from the shared
/// lookup sweep (see [`crate::fig4::lookup_sweep`]), in long format:
/// one row per `(lookups, protocol)`.
pub static PANELS: [Panel; 3] = [
    Panel {
        title: "Fig. 7a — max indegree per host (avg/p01/p99)",
        layout: Layout::Digest(|r| r.max_indegree),
    },
    Panel {
        title: "Fig. 7b — max outdegree per host (avg/p01/p99)",
        layout: Layout::Digest(|r| r.max_outdegree),
    },
    Panel {
        title: "Sec. 5.3 — elastic maintenance operations per lookup",
        layout: Layout::Rows(
            Some("protocol"),
            &[("maintenance/lookup", |r| fnum(r.maintenance_per_lookup))],
        ),
    },
];

#[cfg(test)]
mod tests {
    use crate::fig4::lookup_sweep;
    use crate::scenario::Scenario;

    #[test]
    fn vs_degrees_exceed_base_degrees() {
        let sweep = lookup_sweep(vec![150]).run(&Scenario::quick(6));
        let reports = &sweep.points[0].1;
        let base = reports.iter().find(|r| r.protocol == "Base").unwrap();
        let vs = reports.iter().find(|r| r.protocol == "VS").unwrap();
        assert!(
            vs.max_outdegree.mean > base.max_outdegree.mean,
            "VS outdegree {} should exceed Base {}",
            vs.max_outdegree.mean,
            base.max_outdegree.mean
        );
    }

    #[test]
    fn elastic_protocols_pay_modest_maintenance() {
        let sweep = lookup_sweep(vec![200]).run(&Scenario::quick(13));
        let reports = &sweep.points[0].1;
        let find = |name: &str| reports.iter().find(|r| r.protocol == name).unwrap();
        // ERT pays for elasticity; the static protocols only pay for
        // table construction.
        assert!(
            find("ERT/AF").maintenance_per_lookup >= find("Base").maintenance_per_lookup,
            "ERT/AF {} vs Base {}",
            find("ERT/AF").maintenance_per_lookup,
            find("Base").maintenance_per_lookup
        );
        // But the cost stays small per lookup ("a little extra
        // maintenance cost", Section 5.3).
        assert!(
            find("ERT/AF").maintenance_per_lookup < 50.0,
            "{}",
            find("ERT/AF").maintenance_per_lookup
        );
    }
}
