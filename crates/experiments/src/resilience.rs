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

use ert_network::RetryPolicy;

use crate::adversarial::protocols;
use crate::report::fnum;
use crate::sweep::{completion, Axis, Layout, Panel, Sweep};

/// Base and ERT/AF at each chaos intensity (0 runs fault-free) under
/// the standard retry policy.
pub fn resilience_sweep(intensities: Vec<f64>) -> Sweep<f64> {
    let axis = Axis::new("intensity", intensities, |x| format!("{x:.2}"))
        .scenario(|s, &x| s.chaos = (x > 0.0).then_some(x))
        .config(|cfg, _| cfg.retry = RetryPolicy::standard());
    Sweep::new(axis, protocols)
}

/// The completion-fraction and recovery-overhead tables.
pub static PANELS: [Panel; 2] = [
    Panel {
        title: "Resilience a — lookup completion under injected faults",
        layout: Layout::WideCells(&[
            ("completed", |r| fnum(completion(r))),
            ("failed", |r| r.lookups_failed.to_string()),
        ]),
    },
    Panel {
        title: "Resilience b — recovery overhead under injected faults",
        layout: Layout::WideCells(&[
            ("retries/lookup", |r| fnum(r.retries_per_lookup)),
            ("timeouts/lookup", |r| fnum(r.timeouts_per_lookup)),
        ]),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn quick_sweep_degrades_gracefully() {
        let s = Scenario::quick(11);
        let sweep = resilience_sweep(vec![0.0, 1.0]).run(&s);
        assert_eq!(sweep.points.len(), 2);
        let calm = &sweep.points[0].1;
        let hostile = &sweep.points[1].1;
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
}
