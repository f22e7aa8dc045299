//! Adversarial sweeps: how far the paper's congestion bounds stretch
//! when actors deliberately violate the protocol's assumptions (the
//! adversary kinds of `ert_faults::FaultKind`), and whether indegree
//! adaptation self-corrects.
//!
//! Not a paper figure — a robustness extension. Four panels:
//!
//! * **liars** — a fixed fraction of hosts misreports ĉ by a swept
//!   multiplicative error, attacking the γ_c assumption behind
//!   Theorems 3.1/3.2; the tables track where the measured congestion
//!   band departs from the honest-control column.
//! * **defectors** — a swept fraction of hosts inverts Algorithm 4's
//!   two-choice rule (forward to the *most*-loaded reachable
//!   candidate); lookups should keep completing, paying latency.
//! * **sybils** — a coordinated identity swarm joins one ring region,
//!   concentrating indegree on the victims.
//! * **flood** — a flash crowd on a single key mid-run; the phase
//!   table shows the hotspot spike and the post-flood recovery, which
//!   must land within the documented band.
//!
//! Every sweep point with a zero-intensity parameter (error 1, fraction
//! 0, count 0) runs adversary-free — a true honest control with every
//! theorem envelope armed.

use ert_baselines::base;
use ert_network::{FaultEvent, FaultKind, ProtocolSpec};
use ert_sim::{SimDuration, SimTime};
use ert_telemetry::Telemetry;

use crate::report::{fnum, Table};
use crate::scenario::Scenario;
use crate::sweep::{completion, Axis, Layout, Panel, Sweep};

/// When attacks activate: shortly after t = 0, so the first adaptation
/// rounds already run under attack but topology construction (which
/// happens before the clock starts) is untouched.
const ATTACK_START_SECS: f64 = 0.05;

/// The attack that activates every kind in `kinds` together at attack
/// start — the [`Scenario::adversary`] of the liar, defector and Sybil
/// sweeps and of the pinned liar + defector mix.
pub fn attack(kinds: &[FaultKind]) -> Vec<FaultEvent> {
    let at = SimTime::ZERO + SimDuration::from_secs_f64(ATTACK_START_SECS);
    kinds.iter().map(|&kind| FaultEvent { at, kind }).collect()
}

/// Fraction of hosts turned liars in the misreport-error sweep.
pub const LIAR_FRACTION: f64 = 0.2;

/// Victim ring position (fraction of the ID space) for Sybil swarms
/// and floods.
pub const VICTIM_REGION: f64 = 0.37;

/// Recovery band the flood phase table documents: after the flood
/// window closes, the hotspot queue peak of the post phase must fall
/// back to within this factor of the pre-flood peak.
pub const RECOVERY_BAND: f64 = 2.0;

/// The protocols the attack and fault sweeps compare, at any size.
pub fn protocols(_n: usize) -> Vec<ProtocolSpec> {
    vec![base(), ProtocolSpec::ert_af()]
}

/// The approximate injection horizon of a scenario in seconds — the
/// scale adversarial timing (flood start/window) is expressed against.
fn horizon_secs(s: &Scenario) -> f64 {
    s.lookups as f64 / (s.per_node_rate * s.n as f64).max(1e-9)
}

/// Every protocol at each misreport error factor (error 1 is the
/// adversary-free honest control).
pub fn liar_sweep(errors: Vec<f64>) -> Sweep<f64> {
    let axis = Axis::new("error", errors, f64::to_string).scenario(|s, &error| {
        let liars = FaultKind::CapacityLiar {
            fraction: LIAR_FRACTION,
            error,
        };
        s.adversary = attack((error > 1.0).then_some(liars).as_slice());
    });
    Sweep::new(axis, protocols)
}

/// Every protocol at each defector fraction (fraction 0 is the
/// adversary-free honest control).
pub fn defector_sweep(fractions: Vec<f64>) -> Sweep<f64> {
    let axis = Axis::new("fraction", fractions, f64::to_string).scenario(|s, &fraction| {
        let defectors = FaultKind::RoutingDefector { fraction };
        s.adversary = attack((fraction > 0.0).then_some(defectors).as_slice());
    });
    Sweep::new(axis, protocols)
}

/// Every protocol at each Sybil swarm size (count 0 is the
/// adversary-free honest control).
pub fn sybil_sweep(counts: Vec<u32>) -> Sweep<u32> {
    let axis = Axis::new("count", counts, u32::to_string).scenario(|s, &count| {
        let swarm = FaultKind::SybilSwarm {
            count,
            region: VICTIM_REGION,
        };
        s.adversary = attack((count > 0).then_some(swarm).as_slice());
    });
    Sweep::new(axis, protocols)
}

/// The liar panel: p99 max congestion and completion per protocol vs
/// the misreport error factor.
pub static LIAR_PANEL: Panel = Panel {
    title: "Adv. liars — congestion and survival vs capacity-misreport error",
    layout: Layout::WideCells(&[
        ("p99 congestion", |r| fnum(r.p99_max_congestion)),
        ("completed", |r| fnum(completion(r))),
    ]),
};

/// The defector panel: completion and p99 lookup time per protocol vs
/// the defector fraction.
pub static DEFECTOR_PANEL: Panel = Panel {
    title: "Adv. defectors — survival and latency vs defector fraction",
    layout: Layout::WideCells(&[
        ("completed", |r| fnum(completion(r))),
        ("p99 lookup time", |r| fnum(r.lookup_time.p99)),
    ]),
};

/// The Sybil panel: worst-host indegree and completion per protocol vs
/// the swarm size.
pub static SYBIL_PANEL: Panel = Panel {
    title: "Adv. sybils — indegree concentration vs swarm size",
    layout: Layout::WideCells(&[
        ("max indegree", |r| fnum(r.max_indegree.max)),
        ("completed", |r| fnum(completion(r))),
    ]),
};

/// Where the flood starts, as a fraction of the injection horizon.
const FLOOD_START: f64 = 0.3;

/// The flood [`flood_recovery`] runs, sized relative to the scenario's
/// injection horizon: the flash crowd starts at [`FLOOD_START`] of the
/// horizon, injects half the base lookup count onto one key over a 20%
/// window, and leaves the back half of the run to recover in.
pub fn flood_script(s: &Scenario) -> FaultEvent {
    let h = horizon_secs(s);
    FaultEvent {
        at: SimTime::ZERO + SimDuration::from_secs_f64(FLOOD_START * h),
        kind: FaultKind::QueryFlood {
            key: VICTIM_REGION,
            queries: (s.lookups / 2).max(50) as u32,
            window: SimDuration::from_secs_f64(0.2 * h),
        },
    }
}

/// The flood panel: per-protocol hotspot queue depth by phase, plus
/// the documented acceptance band as its own row.
///
/// Phases are measured on the maximum single-host queue depth
/// ([`ert_telemetry::Snapshot::queue_depth_max`]), floored at one
/// in-service slot so the ratios stay finite in lightly-loaded quick
/// runs:
///
/// * `pre` — peak before the flood starts (the honest baseline);
/// * `peak` — peak from flood start onward; a single-key flash crowd
///   queues far faster than the victim serves, so the backlog crest
///   lands well after the injection window closes and the whole
///   attack-plus-drain span counts;
/// * `end` — the final snapshot, after the backlog has drained;
/// * `spike` = peak/pre (the flood must actually bite: ≥ the band);
/// * `recovery` = end/pre (the hotspot must return to within
///   [`RECOVERY_BAND`]× of its pre-flood level — nothing wedges, every
///   flood query drains through).
pub fn flood_recovery(base_s: &Scenario) -> Table {
    let mut s = base_s.clone();
    s.adversary = vec![flood_script(base_s)];
    let h = horizon_secs(base_s);
    // The phase boundary stays the unrounded f64: the event time is
    // rounded to whole microseconds, which can move a snapshot across.
    let start = FLOOD_START * h;
    let interval = h / 50.0;
    let seed = s.seeds.first().copied().unwrap_or(1);
    let mut t = Table::new(
        "Adv. flood — hotspot queue depth by phase",
        &["protocol", "pre", "peak", "end", "spike", "recovery"],
    );
    for spec in protocols(s.n) {
        let (_, tel) = s.run_once_instrumented(
            &spec,
            seed,
            |cfg| cfg.sample_interval = SimDuration::from_secs_f64(interval),
            Telemetry::disabled(),
        );
        let depth_at = |sn: &ert_telemetry::Snapshot| sn.queue_depth_max as f64;
        let phase_peak = |lo: f64, hi: f64| -> f64 {
            tel.snapshots()
                .iter()
                .filter(|sn| {
                    let at = sn.at.as_secs_f64();
                    at > lo && at <= hi
                })
                .map(depth_at)
                .fold(0.0, f64::max)
                .max(1.0)
        };
        let pre = phase_peak(f64::NEG_INFINITY, start);
        let peak = phase_peak(start, f64::INFINITY);
        let end = tel.snapshots().last().map_or(1.0, depth_at).max(1.0);
        t.row(vec![
            spec.name.clone(),
            fnum(pre),
            fnum(peak),
            fnum(end),
            fnum(peak / pre),
            fnum(end / pre),
        ]);
    }
    // The acceptance band as data: "spike" ≥ band asserts the flood
    // actually bites; "recovery" ≤ band is the self-correction claim.
    // The depth columns themselves are unconstrained (inf).
    t.row(vec![
        "band (documented)".to_owned(),
        "inf".to_owned(),
        "inf".to_owned(),
        "inf".to_owned(),
        fnum(RECOVERY_BAND),
        fnum(RECOVERY_BAND),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_attack_is_a_valid_adversarial_plan() {
        let attacked = |edit: &dyn Fn(&mut Scenario)| {
            let mut s = Scenario::quick(1);
            edit(&mut s);
            s.adversary
        };
        let ctx = crate::catalog::Ctx::with_seeds(true, vec![1]);
        let row = crate::catalog::find("adversarial").expect("the adversarial row");
        let liars = attacked(&|s| (liar_sweep(Vec::new()).axis.scenario)(s, &4.0));
        let defectors = attacked(&|s| (defector_sweep(Vec::new()).axis.scenario)(s, &0.1));
        let sybils = attacked(&|s| (sybil_sweep(Vec::new()).axis.scenario)(s, &16));
        let mix = attacked(&|s| {
            (row.capture)(&ctx, s);
        });
        for (events, tags) in [
            (liars, &["CapacityLiar"][..]),
            (defectors, &["RoutingDefector"]),
            (sybils, &["SybilSwarm"]),
            (mix, &["CapacityLiar", "RoutingDefector"]),
            (vec![flood_script(&Scenario::quick(1))], &["QueryFlood"]),
        ] {
            let plan = ert_network::FaultPlan { seed: 17, events };
            plan.validate().unwrap_or_else(|e| panic!("{plan:?}: {e}"));
            let kinds: Vec<_> = plan.events.iter().map(|e| e.kind.tag()).collect();
            assert_eq!(kinds, tags);
            let adversarial = plan.events.iter().all(|e| e.kind.is_adversarial());
            assert!(adversarial, "{plan:?}");
        }
    }

    #[test]
    fn honest_controls_match_adversary_free_runs() {
        let s = Scenario::quick(21);
        let sweep = liar_sweep(vec![1.0, 4.0]).run(&s);
        let honest = &sweep.points[0].1;
        let plain = s.run_all(&protocols(s.n));
        for (h, p) in honest.iter().zip(&plain) {
            assert_eq!(
                serde::json::to_string(h),
                serde::json::to_string(p),
                "{} honest control diverged from the plain run",
                p.protocol
            );
        }
    }

    #[test]
    fn liar_sweep_conserves_lookups() {
        let mut s = Scenario::quick(22);
        s.lookups = 200;
        let sweep = liar_sweep(vec![1.0, 8.0]).run(&s);
        for (error, reports) in &sweep.points {
            for r in reports {
                assert_eq!(
                    r.lookups_completed + r.lookups_dropped + r.lookups_failed,
                    r.lookups_started,
                    "{} at error {error}",
                    r.protocol
                );
            }
        }
    }

    #[test]
    fn flood_phase_table_carries_the_band_row() {
        let mut s = Scenario::quick(24);
        s.lookups = 200;
        let t = flood_recovery(&s);
        assert_eq!(t.csv_stem(), "adv_flood");
        assert_eq!(t.rows.len(), protocols(s.n).len() + 1);
        let band = t.rows.last().expect("band row");
        assert_eq!(band[0], "band (documented)");
        assert_eq!(band[5], fnum(RECOVERY_BAND));
        // Every protocol row's spike ratio is >= 1 by construction
        // (phase peaks are floored at one slot).
        for row in &t.rows[..t.rows.len() - 1] {
            let spike: f64 = row[4].parse().expect("numeric spike");
            assert!(spike >= 1.0, "{row:?}");
        }
    }
}
