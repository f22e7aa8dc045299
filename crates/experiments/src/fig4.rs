//! Fig. 4 — effectiveness of congestion control vs. total query load:
//! (a) 99th-percentile maximum congestion, (b) 99th-percentile
//! congestion of the minimum-capacity node, (c) 99th-percentile share.

use ert_baselines::all_protocols;

use crate::report::fnum;
use crate::sweep::{Axis, Layout, Panel, Sweep};

/// The lookup-count sweep shared by Figs. 4, 5a and 7: every protocol
/// at each lookup count.
pub fn lookup_sweep(points: Vec<usize>) -> Sweep<usize> {
    let axis = Axis::new("lookups", points, usize::to_string).scenario(|s, &n| s.lookups = n);
    Sweep::new(axis, all_protocols)
}

/// The three Fig. 4 panels of the lookup sweep.
pub static PANELS: [Panel; 3] = [
    Panel {
        title: "Fig. 4a — 99th percentile max congestion vs lookups",
        layout: Layout::Wide(|r| fnum(r.p99_max_congestion)),
    },
    Panel {
        title: "Fig. 4b — 99th percentile congestion of min-capacity node",
        layout: Layout::Wide(|r| fnum(r.p99_min_capacity_congestion)),
    },
    Panel {
        title: "Fig. 4c — 99th percentile share vs lookups",
        layout: Layout::Wide(|r| fnum(r.p99_share)),
    },
];

/// The paper's alternate load axis: "we also varied the processing time
/// of a query in a light node from 0.1 to 2.1 second ... The total
/// query load increases in both cases and we observed similar results."
/// Every protocol at each light service time; Fig. 8 runs the same axis
/// under the impulse workload.
pub fn service_sweep(services: Vec<f64>) -> Sweep<f64> {
    let axis = Axis::new("service_s", services, |v| format!("{v:.1}"))
        .scenario(|s, &v| s.light_service_secs = v);
    Sweep::new(axis, all_protocols)
}

/// The Fig. 4a metric on the service-time axis.
pub static SERVICE_PANEL: Panel = Panel {
    title: "Fig. 4 (service-time axis) — 99th percentile max congestion",
    layout: Layout::Wide(|r| fnum(r.p99_max_congestion)),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn service_time_axis_raises_congestion_like_lookup_count() {
        let mut s = Scenario::quick(14);
        s.lookups = 200;
        let t = service_sweep(vec![0.1, 0.9]).run(&s).table(&SERVICE_PANEL);
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
        let sweep = lookup_sweep(vec![60, 240]).run(&Scenario::quick(2));
        let base_small = sweep.points[0].1[0].p99_max_congestion;
        let base_large = sweep.points[1].1[0].p99_max_congestion;
        assert!(
            base_large >= base_small,
            "more lookups should not reduce Base congestion: {base_small} -> {base_large}"
        );
    }
}
