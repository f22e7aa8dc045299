//! Fig. 5 — lookup efficiency: (a) overloaded nodes encountered in
//! routings vs. query load, (b) lookup path length vs. network size,
//! (c) per-query processing time (mean / 1st / 99th percentile).

use ert_baselines::all_protocols;

use crate::report::fnum;
use crate::sweep::{Axis, Layout, Panel, Sweep};

/// Fig. 5a, a panel of the shared lookup sweep (see [`crate::fig4`]).
pub static PANEL_5A: Panel = Panel {
    title: "Fig. 5a — heavy nodes encountered in routings",
    layout: Layout::Wide(|r| r.heavy_encounters.to_string()),
};

/// Fig. 5b's sweep: every protocol as the network grows.
pub fn size_sweep(sizes: Vec<usize>) -> Sweep<usize> {
    Sweep::new(
        Axis::new("n", sizes, usize::to_string).scenario(|s, &n| s.n = n),
        all_protocols,
    )
}

/// Fig. 5b: mean lookup path length on the size sweep.
pub static PANEL_5B: Panel = Panel {
    title: "Fig. 5b — lookup path length vs network size",
    layout: Layout::Wide(|r| fnum(r.mean_path_length)),
};

/// Fig. 5c: the per-query processing-time digest, on every protocol at
/// the base scenario ([`Sweep::base`]).
pub static PANEL_5C: Panel = Panel {
    title: "Fig. 5c — query processing time (seconds)",
    layout: Layout::Digest(|r| r.lookup_time),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn panel_5b_paths_grow_with_n() {
        let mut s = Scenario::quick(4);
        s.lookups = 150;
        let t = size_sweep(vec![48, 160]).run(&s).table(&PANEL_5B);
        let small: f64 = t.rows[0][1].parse().unwrap(); // Base column
        let large: f64 = t.rows[1][1].parse().unwrap();
        assert!(
            large > small,
            "paths should grow with n: {small} -> {large}"
        );
    }

    #[test]
    fn panel_5c_has_six_protocols() {
        let t = Sweep::base(all_protocols)
            .run(&Scenario::quick(5))
            .table(&PANEL_5C);
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            let mean: f64 = row[1].parse().unwrap();
            assert!(mean > 0.0, "{row:?}");
        }
    }
}
