//! Figs. 9 — congestion control under churn: (a) 99th-percentile
//! maximum congestion and (b) 99th-percentile share as the node
//! join/departure interarrival time sweeps from 0.1 to 0.9 s (paper
//! time scale: lower is heavier churn).

use ert_baselines::all_protocols;

use crate::report::fnum;
use crate::scenario::{ChurnSpec, Scenario};
use crate::sweep::{Axis, Layout, Panel, Sweep};

/// Converts a paper-scale interarrival (relative to one lookup per
/// second) into this simulation's time scale, preserving the
/// churn-to-lookup ratio: the paper issues `1/ia` membership changes
/// per lookup.
pub fn churn_spec_for(base: &Scenario, paper_interarrival: f64) -> ChurnSpec {
    let lookup_rate = base.per_node_rate * base.n as f64;
    let sim_interarrival = paper_interarrival / lookup_rate;
    ChurnSpec {
        join_interarrival: sim_interarrival,
        leave_interarrival: sim_interarrival,
    }
}

/// The churn sweep Figs. 9 and 10 share: every protocol at each churn
/// level.
pub fn churn_sweep(interarrivals: Vec<f64>) -> Sweep<f64> {
    let axis = Axis::new("interarrival_s", interarrivals, |ia| format!("{ia:.1}"))
        .scenario(|s, &ia| s.churn = Some(churn_spec_for(s, ia)));
    Sweep::new(axis, all_protocols)
}

/// The two Fig. 9 panels of the churn sweep.
pub static PANELS: [Panel; 2] = [
    Panel {
        title: "Fig. 9a — 99th percentile max congestion under churn",
        layout: Layout::Wide(|r| fnum(r.p99_max_congestion)),
    },
    Panel {
        title: "Fig. 9b — 99th percentile share under churn",
        layout: Layout::Wide(|r| fnum(r.p99_share)),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_spec_preserves_ratio() {
        let base = Scenario::paper_default(1);
        let spec = churn_spec_for(&base, 0.5);
        // 2 churn events per lookup => interarrival = 0.5 / 2048.
        assert!((spec.join_interarrival - 0.5 / 2048.0).abs() < 1e-12);
    }

    #[test]
    fn quick_churn_sweep_runs_all_protocols() {
        let mut base = Scenario::quick(10);
        base.lookups = 150;
        let sweep = churn_sweep(vec![0.9]).run(&base);
        let completed: Vec<u64> = sweep.points[0]
            .1
            .iter()
            .map(|r| r.lookups_completed)
            .collect();
        assert_eq!(completed.len(), 6);
        assert!(completed.iter().all(|&c| c > 120), "{completed:?}");
    }
}
