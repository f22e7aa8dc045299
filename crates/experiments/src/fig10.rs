//! Fig. 10 — lookup efficiency under churn: (a) heavy nodes in
//! routings, (b) lookup path length, (c) lookup time digest; plus the
//! Section 5.5 time-out statistic (ERT/AF ≈ 0, others small but
//! nonzero).

use crate::report::fnum;
use crate::sweep::{Layout, Panel};

/// The Fig. 10 panels and the timeout table, from the churn sweep
/// [`crate::fig9::churn_sweep`].
pub static PANELS: [Panel; 4] = [
    Panel {
        title: "Fig. 10a — heavy nodes in routings under churn",
        layout: Layout::Wide(|r| r.heavy_encounters.to_string()),
    },
    Panel {
        title: "Fig. 10b — lookup path length under churn",
        layout: Layout::Wide(|r| fnum(r.mean_path_length)),
    },
    Panel {
        title: "Fig. 10c — lookup time under churn (seconds)",
        layout: Layout::Digest(|r| r.lookup_time),
    },
    Panel {
        title: "Sec. 5.5 — average timeouts per lookup under churn",
        layout: Layout::Wide(|r| fnum(r.timeouts_per_lookup)),
    },
];

#[cfg(test)]
mod tests {
    use crate::fig9::churn_sweep;
    use crate::scenario::Scenario;

    #[test]
    fn probing_protocol_times_out_less_than_deterministic() {
        // ERT/AF probes candidates before forwarding and so discovers
        // departed neighbors for free; Base pays timeouts.
        let mut base = Scenario::quick(12);
        base.lookups = 250;
        let sweep = churn_sweep(vec![0.2]).run(&base);
        let reports = &sweep.points[0].1;
        let base_r = reports.iter().find(|r| r.protocol == "Base").unwrap();
        let af = reports.iter().find(|r| r.protocol == "ERT/AF").unwrap();
        assert!(
            af.timeouts_per_lookup <= base_r.timeouts_per_lookup + 1e-9,
            "ERT/AF {} vs Base {}",
            af.timeouts_per_lookup,
            base_r.timeouts_per_lookup
        );
    }
}
