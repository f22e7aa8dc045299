//! Fig. 8 — skewed lookups (the "impulse"): 100 nodes on a contiguous
//! interval of the ID space query the same 50 keys while the per-query
//! service time sweeps from 0.1 to 2.1 s. Panels: (a) heavy nodes in
//! routings, (b) lookup time, (c) 99th-percentile share. The sweep is
//! [`crate::fig4::service_sweep`] on an impulse base scenario.

use crate::report::fnum;
use crate::sweep::{Layout, Panel};

/// The three Fig. 8 panels of the impulse service sweep.
pub static PANELS: [Panel; 3] = [
    Panel {
        title: "Fig. 8a — heavy nodes in routings (skewed lookups)",
        layout: Layout::Wide(|r| r.heavy_encounters.to_string()),
    },
    Panel {
        title: "Fig. 8b — mean lookup time, seconds (skewed)",
        layout: Layout::Wide(|r| fnum(r.lookup_time.mean)),
    },
    Panel {
        title: "Fig. 8c — 99th percentile share (skewed)",
        layout: Layout::Wide(|r| fnum(r.p99_share)),
    },
];

#[cfg(test)]
mod tests {
    use crate::scenario::{Scenario, Workload};

    #[test]
    fn skew_raises_share_over_uniform() {
        // The impulse concentrates load: Base's 99th-percentile share
        // should exceed its share under the uniform workload.
        let mut uniform = Scenario::quick(9);
        uniform.lookups = 250;
        let u = uniform.run(&ert_baselines::base());
        let mut skewed = uniform.clone();
        skewed.workload = Workload::Impulse { nodes: 15, keys: 4 };
        let s = skewed.run(&ert_baselines::base());
        assert!(
            s.p99_share > u.p99_share,
            "skew should raise share: uniform {} vs impulse {}",
            u.p99_share,
            s.p99_share
        );
    }
}
