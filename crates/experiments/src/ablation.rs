//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **forwarding policy** — random walk vs. plain two-choice vs.
//!   topology-aware vs. topology-aware + memory (the full Algorithm 4);
//! * **`α` (indegree per unit capacity)** — the Section 3.1 trade-off
//!   between under-using high-capacity nodes and bloating tables;
//! * **`β` (initial indegree reservation)** — how much of `d^∞` to claim
//!   at join time.

use ert_core::ForwardPolicy;
use ert_network::{ProtocolSpec, TablePolicy};

use crate::report::fnum;
use crate::sweep::{Axis, Cell, Layout, Panel, Sweep};

fn ert_with_forwarding(name: &str, forwarding: ForwardPolicy) -> ProtocolSpec {
    ProtocolSpec {
        name: name.into(),
        table: TablePolicy::Elastic,
        adaptation: true,
        forwarding,
        virtual_servers: None,
        item_movement: false,
    }
}

/// The forwarding-policy ladder, weakest first.
pub fn forwarding_ladder() -> Vec<ProtocolSpec> {
    vec![
        ert_with_forwarding("random-walk", ForwardPolicy::RandomWalk),
        ert_with_forwarding(
            "2choice",
            ForwardPolicy::TwoChoice {
                topology_aware: false,
                use_memory: false,
            },
        ),
        ert_with_forwarding(
            "2choice+topo",
            ForwardPolicy::TwoChoice {
                topology_aware: true,
                use_memory: false,
            },
        ),
        ert_with_forwarding(
            "2choice+topo+mem",
            ForwardPolicy::TwoChoice {
                topology_aware: true,
                use_memory: true,
            },
        ),
    ]
}

fn ert_af(_n: usize) -> Vec<ProtocolSpec> {
    vec![ProtocolSpec::ert_af()]
}

/// Algorithm 4's ingredients on a fixed scenario: the forwarding
/// ladder at the base scenario.
pub fn forwarding_sweep() -> Sweep<()> {
    Sweep::base(|_| forwarding_ladder())
}

/// The forwarding ladder, one row per variant.
pub static FORWARDING_PANEL: Panel = Panel {
    title: "Ablation fwd — forwarding-policy ladder (ERT tables + adaptation)",
    layout: Layout::Rows(
        Some("variant"),
        &[
            ("p99 cong", |r| fnum(r.p99_max_congestion)),
            ("p99 share", |r| fnum(r.p99_share)),
            ("heavy", |r| r.heavy_encounters.to_string()),
            ("path", |r| fnum(r.mean_path_length)),
            ("time_s", |r| fnum(r.lookup_time.mean)),
            ("probes", |r| fnum(r.probes_per_decision)),
        ],
    ),
};

/// Sensitivity of ERT/AF to `α` around the paper's `d + 3` default.
pub fn alpha_sweep(alphas: Vec<f64>) -> Sweep<f64> {
    let axis = Axis::new("alpha", alphas, |a| fnum(*a)).config(|cfg, &a| cfg.ert.alpha = a);
    Sweep::new(axis, ert_af)
}

/// Sensitivity of ERT/AF to the reservation fraction `β`.
pub fn beta_sweep(betas: Vec<f64>) -> Sweep<f64> {
    let axis = Axis::new("beta", betas, |b| fnum(*b)).config(|cfg, &b| cfg.ert.beta = b);
    Sweep::new(axis, ert_af)
}

/// The `α` and `β` panels' columns.
const RESERVATION: [Cell; 4] = [
    ("p99 cong", |r| fnum(r.p99_max_congestion)),
    ("p99 share", |r| fnum(r.p99_share)),
    ("mean max indegree", |r| fnum(r.max_indegree.mean)),
    ("time_s", |r| fnum(r.lookup_time.mean)),
];

/// The `α` sweep's table.
pub static ALPHA_PANEL: Panel = Panel {
    title: "Ablation alpha — indegree per unit capacity",
    layout: Layout::Rows(None, &RESERVATION),
};

/// The `β` sweep's table.
pub static BETA_PANEL: Panel = Panel {
    title: "Ablation beta — initial indegree reservation",
    layout: Layout::Rows(None, &RESERVATION),
};

/// Sensitivity of ERT/AF to the poll size `b` (Section 4.1 quotes
/// Mitzenmacher: two choices give the exponential gain; more gain
/// little and cost probes).
pub fn probe_width_sweep(widths: Vec<usize>) -> Sweep<usize> {
    let axis = Axis::new("b", widths, usize::to_string).config(|cfg, &b| cfg.ert.probe_width = b);
    Sweep::new(axis, ert_af)
}

/// The poll-size sweep's table.
pub static PROBE_WIDTH_PANEL: Panel = Panel {
    title: "Ablation b — poll size of the randomized forwarding",
    layout: Layout::Rows(
        None,
        &[
            ("p99 cong", |r| fnum(r.p99_max_congestion)),
            ("heavy", |r| r.heavy_encounters.to_string()),
            ("time_s", |r| fnum(r.lookup_time.mean)),
            ("probes/decision", |r| fnum(r.probes_per_decision)),
        ],
    ),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn forwarding_ladder_runs_and_probes_grow() {
        let mut s = Scenario::quick(300);
        s.lookups = 250;
        let t = forwarding_sweep().run(&s).table(&FORWARDING_PANEL);
        assert_eq!(t.rows.len(), 4);
        let probes_rw: f64 = t.rows[0][6].parse().unwrap();
        let probes_2c: f64 = t.rows[1][6].parse().unwrap();
        assert_eq!(probes_rw, 0.0);
        assert!(probes_2c > 0.9);
    }

    #[test]
    fn alpha_sweep_monotone_table_size() {
        let mut s = Scenario::quick(301);
        s.lookups = 200;
        let t = alpha_sweep(vec![4.0, 16.0]).run(&s).table(&ALPHA_PANEL);
        let small: f64 = t.rows[0][3].parse().unwrap();
        let large: f64 = t.rows[1][3].parse().unwrap();
        assert!(
            large > small,
            "bigger alpha should mean bigger tables: {small} vs {large}"
        );
    }

    #[test]
    fn beta_sweep_runs() {
        let mut s = Scenario::quick(302);
        s.lookups = 150;
        let t = beta_sweep(vec![0.25, 1.0]).run(&s).table(&BETA_PANEL);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn probe_width_sweep_probes_scale() {
        let mut s = Scenario::quick(303);
        s.lookups = 200;
        let t = probe_width_sweep(vec![1, 2, 4])
            .run(&s)
            .table(&PROBE_WIDTH_PANEL);
        let probes: Vec<f64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(
            probes[0] <= probes[1] && probes[1] <= probes[2],
            "{probes:?}"
        );
        assert!(
            probes[2] > 2.0,
            "b=4 should poll more than 2: {}",
            probes[2]
        );
    }
}
