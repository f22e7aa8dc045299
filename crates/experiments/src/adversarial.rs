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
use ert_network::{FaultEvent, FaultKind, FaultPlan, ProtocolSpec, RunReport};
use ert_sim::{SimDuration, SimTime};
use ert_telemetry::Telemetry;
use serde::Serialize;

use crate::report::{fnum, Table};
use crate::scenario::{run_sweep, Scenario};

/// When scripted actors activate: shortly after t = 0, so the first
/// adaptation rounds already run under attack but topology construction
/// (which happens before the clock starts) is untouched.
const ATTACK_START_SECS: f64 = 0.05;

/// A named attack shape with free parameters — the unit a
/// [`Scenario`] carries and the sweeps vary. Expansion via
/// [`AdversaryScript::plan`] is deterministic in `(script, seed)`, so
/// sweep cells stay isolated reproducible worlds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AdversaryScript {
    /// A single [`FaultKind::CapacityLiar`] wave at attack start.
    Liars {
        /// Fraction of live hosts turned liars, in `(0, 1]`.
        fraction: f64,
        /// Multiplicative capacity misreport factor.
        error: f64,
    },
    /// A single [`FaultKind::RoutingDefector`] wave at attack start.
    Defectors {
        /// Fraction of live hosts turned defectors, in `(0, 1]`.
        fraction: f64,
    },
    /// The pinned byzantine mix the CI acceptance gate runs: liars and
    /// defectors activated together at attack start.
    Mix {
        /// Fraction of live hosts turned liars, in `(0, 1]`.
        liar_fraction: f64,
        /// Liars' multiplicative misreport factor.
        liar_error: f64,
        /// Fraction of live hosts turned defectors, in `(0, 1]`.
        defector_fraction: f64,
    },
    /// A [`FaultKind::QueryFlood`] flash crowd in the middle of the run,
    /// leaving headroom on both sides to measure the pre-flood level and
    /// the post-flood recovery.
    Flood {
        /// Flooded key as a ring fraction, in `[0, 1)`.
        key: f64,
        /// Number of flood lookups.
        queries: u32,
        /// Flood start, seconds into the run.
        start_secs: f64,
        /// Injection window length in seconds.
        window_secs: f64,
    },
    /// A [`FaultKind::SybilSwarm`] joining at attack start.
    Sybils {
        /// Number of Sybil identities.
        count: u32,
        /// Victim ring position as a fraction of the ID space.
        region: f64,
    },
}

impl AdversaryScript {
    /// Expands the script into a concrete plan for one run.
    ///
    /// The returned plan always carries `seed` as its interpretation
    /// seed; its events land at fixed offsets.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        let start = SimTime::ZERO + SimDuration::from_secs_f64(ATTACK_START_SECS);
        let mut plan = FaultPlan::new(seed);
        let mut push = |at, kind| plan.events.push(FaultEvent { at, kind });
        match *self {
            AdversaryScript::Liars { fraction, error } => {
                push(start, FaultKind::CapacityLiar { fraction, error });
            }
            AdversaryScript::Defectors { fraction } => {
                push(start, FaultKind::RoutingDefector { fraction });
            }
            AdversaryScript::Mix {
                liar_fraction,
                liar_error,
                defector_fraction,
            } => {
                push(
                    start,
                    FaultKind::CapacityLiar {
                        fraction: liar_fraction,
                        error: liar_error,
                    },
                );
                push(
                    start,
                    FaultKind::RoutingDefector {
                        fraction: defector_fraction,
                    },
                );
            }
            AdversaryScript::Flood {
                key,
                queries,
                start_secs,
                window_secs,
            } => {
                push(
                    SimTime::ZERO + SimDuration::from_secs_f64(start_secs),
                    FaultKind::QueryFlood {
                        key,
                        queries,
                        window: SimDuration::from_secs_f64(window_secs),
                    },
                );
            }
            AdversaryScript::Sybils { count, region } => {
                push(start, FaultKind::SybilSwarm { count, region });
            }
        }
        plan
    }
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

/// The capacity-misreport error factors swept (1 = honest control).
pub fn liar_errors(quick: bool) -> Vec<f64> {
    if quick {
        vec![1.0, 4.0]
    } else {
        vec![1.0, 2.0, 4.0, 8.0]
    }
}

/// The defector fractions swept (0 = honest control).
pub fn defector_fractions(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.2]
    } else {
        vec![0.0, 0.1, 0.2, 0.3]
    }
}

/// The Sybil swarm sizes swept (0 = honest control).
pub fn sybil_counts(quick: bool) -> Vec<u32> {
    if quick {
        vec![0, 16]
    } else {
        vec![0, 8, 16, 32]
    }
}

/// The protocols the sweeps compare.
pub fn protocols() -> Vec<ProtocolSpec> {
    vec![base(), ProtocolSpec::ert_af()]
}

/// The approximate injection horizon of a scenario in seconds — the
/// scale adversarial timing (flood start/window) is expressed against.
fn horizon_secs(s: &Scenario) -> f64 {
    s.lookups as f64 / (s.per_node_rate * s.n as f64).max(1e-9)
}

fn sweep_scripts(base_s: &Scenario, scripts: Vec<Option<AdversaryScript>>) -> Vec<Vec<RunReport>> {
    let specs = protocols();
    let variants: Vec<(Scenario, Vec<ProtocolSpec>)> = scripts
        .into_iter()
        .map(|script| {
            let mut s = base_s.clone();
            s.adversary = script;
            (s, specs.clone())
        })
        .collect();
    run_sweep(&variants)
}

/// Runs every protocol at each misreport error factor (error 1 is the
/// adversary-free honest control), averaging over the scenario's seeds.
pub fn liar_sweep(base_s: &Scenario, errors: &[f64]) -> Vec<(f64, Vec<RunReport>)> {
    let scripts = errors
        .iter()
        .map(|&error| {
            (error > 1.0).then_some(AdversaryScript::Liars {
                fraction: LIAR_FRACTION,
                error,
            })
        })
        .collect();
    errors
        .iter()
        .copied()
        .zip(sweep_scripts(base_s, scripts))
        .collect()
}

/// Runs every protocol at each defector fraction (fraction 0 is the
/// adversary-free honest control).
pub fn defector_sweep(base_s: &Scenario, fractions: &[f64]) -> Vec<(f64, Vec<RunReport>)> {
    let scripts = fractions
        .iter()
        .map(|&fraction| (fraction > 0.0).then_some(AdversaryScript::Defectors { fraction }))
        .collect();
    fractions
        .iter()
        .copied()
        .zip(sweep_scripts(base_s, scripts))
        .collect()
}

/// Runs every protocol at each Sybil swarm size (count 0 is the
/// adversary-free honest control).
pub fn sybil_sweep(base_s: &Scenario, counts: &[u32]) -> Vec<(u32, Vec<RunReport>)> {
    let scripts = counts
        .iter()
        .map(|&count| {
            (count > 0).then_some(AdversaryScript::Sybils {
                count,
                region: VICTIM_REGION,
            })
        })
        .collect();
    counts
        .iter()
        .copied()
        .zip(sweep_scripts(base_s, scripts))
        .collect()
}

/// The liar panel: p99 max congestion and completion per protocol vs
/// the misreport error factor.
pub fn liar_table(sweep: &[(f64, Vec<RunReport>)]) -> Table {
    let mut header = vec!["error".to_owned()];
    if let Some((_, rs)) = sweep.first() {
        for r in rs {
            header.push(format!("{} p99 congestion", r.protocol));
            header.push(format!("{} completed", r.protocol));
        }
    }
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Adv. liars — congestion and survival vs capacity-misreport error",
        &refs,
    );
    for (error, reports) in sweep {
        let mut row = vec![format!("{error}")];
        for r in reports {
            row.push(fnum(r.p99_max_congestion));
            row.push(fnum(completion(r)));
        }
        t.row(row);
    }
    t
}

/// The defector panel: completion and p99 lookup time per protocol vs
/// the defector fraction.
pub fn defector_table(sweep: &[(f64, Vec<RunReport>)]) -> Table {
    let mut header = vec!["fraction".to_owned()];
    if let Some((_, rs)) = sweep.first() {
        for r in rs {
            header.push(format!("{} completed", r.protocol));
            header.push(format!("{} p99 lookup time", r.protocol));
        }
    }
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Adv. defectors — survival and latency vs defector fraction",
        &refs,
    );
    for (fraction, reports) in sweep {
        let mut row = vec![format!("{fraction}")];
        for r in reports {
            row.push(fnum(completion(r)));
            row.push(fnum(r.lookup_time.p99));
        }
        t.row(row);
    }
    t
}

/// The Sybil panel: worst-host indegree and completion per protocol vs
/// the swarm size.
pub fn sybil_table(sweep: &[(u32, Vec<RunReport>)]) -> Table {
    let mut header = vec!["count".to_owned()];
    if let Some((_, rs)) = sweep.first() {
        for r in rs {
            header.push(format!("{} max indegree", r.protocol));
            header.push(format!("{} completed", r.protocol));
        }
    }
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new("Adv. sybils — indegree concentration vs swarm size", &refs);
    for (count, reports) in sweep {
        let mut row = vec![format!("{count}")];
        for r in reports {
            row.push(fnum(r.max_indegree.max));
            row.push(fnum(completion(r)));
        }
        t.row(row);
    }
    t
}

/// The flood script used by [`flood_recovery`], sized relative to the
/// scenario's injection horizon: the flash crowd starts at 30% of the
/// horizon, injects half the base lookup count onto one key over a 20%
/// window, and leaves the back half of the run to recover in.
pub fn flood_script(s: &Scenario) -> AdversaryScript {
    let h = horizon_secs(s);
    AdversaryScript::Flood {
        key: VICTIM_REGION,
        queries: (s.lookups / 2).max(50) as u32,
        start_secs: 0.3 * h,
        window_secs: 0.2 * h,
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
    s.adversary = Some(flood_script(base_s));
    let h = horizon_secs(base_s);
    let start = match flood_script(base_s) {
        AdversaryScript::Flood { start_secs, .. } => start_secs,
        _ => unreachable!("flood_script builds a flood"),
    };
    let interval = h / 50.0;
    let seed = s.seeds.first().copied().unwrap_or(1);
    let mut t = Table::new(
        "Adv. flood — hotspot queue depth by phase",
        &["protocol", "pre", "peak", "end", "spike", "recovery"],
    );
    for spec in protocols() {
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

/// Runs all four panels at the scenario's scale and returns their
/// tables (the `adversarial` row of `figures` emits these to `results/`).
pub fn tables(base_s: &Scenario, quick: bool) -> Vec<Table> {
    vec![
        liar_table(&liar_sweep(base_s, &liar_errors(quick))),
        defector_table(&defector_sweep(base_s, &defector_fractions(quick))),
        sybil_table(&sybil_sweep(base_s, &sybil_counts(quick))),
        flood_recovery(base_s),
    ]
}

fn completion(r: &RunReport) -> f64 {
    if r.lookups_started == 0 {
        0.0
    } else {
        r.lookups_completed as f64 / r.lookups_started as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_expand_deterministically() {
        for script in [
            AdversaryScript::Liars {
                fraction: 0.2,
                error: 4.0,
            },
            AdversaryScript::Defectors { fraction: 0.1 },
            AdversaryScript::Mix {
                liar_fraction: 0.2,
                liar_error: 4.0,
                defector_fraction: 0.1,
            },
            AdversaryScript::Flood {
                key: 0.37,
                queries: 200,
                start_secs: 3.0,
                window_secs: 2.0,
            },
            AdversaryScript::Sybils {
                count: 12,
                region: 0.37,
            },
        ] {
            let a = script.plan(17);
            assert_eq!(a, script.plan(17), "{script:?}");
            assert!(!a.is_empty(), "{script:?}");
            a.validate().unwrap_or_else(|e| panic!("{script:?}: {e}"));
            assert_eq!(a.seed, 17);
            assert!(a.events.iter().all(|e| e.kind.is_adversarial()));
        }
        let mix = AdversaryScript::Mix {
            liar_fraction: 0.2,
            liar_error: 4.0,
            defector_fraction: 0.1,
        }
        .plan(3);
        assert!(mix.any_kind(|k| matches!(k, FaultKind::CapacityLiar { .. })));
        assert!(mix.any_kind(|k| matches!(k, FaultKind::RoutingDefector { .. })));
        assert_eq!(mix.events.len(), 2);
        let json = serde::json::to_string(&AdversaryScript::Defectors { fraction: 0.1 });
        assert!(json.contains("Defectors"), "{json}");
    }

    #[test]
    fn honest_controls_match_adversary_free_runs() {
        let s = Scenario::quick(21);
        let sweep = liar_sweep(&s, &[1.0, 4.0]);
        let honest = &sweep[0].1;
        let plain = s.run_all(&protocols());
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
    fn liar_sweep_survives_and_tables_line_up() {
        let mut s = Scenario::quick(22);
        s.lookups = 200;
        let sweep = liar_sweep(&s, &[1.0, 8.0]);
        for (error, reports) in &sweep {
            for r in reports {
                assert_eq!(
                    r.lookups_completed + r.lookups_dropped + r.lookups_failed,
                    r.lookups_started,
                    "{} at error {error}",
                    r.protocol
                );
            }
        }
        let t = liar_table(&sweep);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.csv_stem(), "adv_liars");
    }

    #[test]
    fn defector_and_sybil_tables_have_expected_stems() {
        let mut s = Scenario::quick(23);
        s.lookups = 150;
        let d = defector_table(&defector_sweep(&s, &[0.0, 0.3]));
        assert_eq!(d.csv_stem(), "adv_defectors");
        assert_eq!(d.rows.len(), 2);
        let y = sybil_table(&sybil_sweep(&s, &[0, 12]));
        assert_eq!(y.csv_stem(), "adv_sybils");
        assert_eq!(y.rows.len(), 2);
    }

    #[test]
    fn flood_phase_table_carries_the_band_row() {
        let mut s = Scenario::quick(24);
        s.lookups = 200;
        let t = flood_recovery(&s);
        assert_eq!(t.csv_stem(), "adv_flood");
        assert_eq!(t.rows.len(), protocols().len() + 1);
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
