//! Parametrized attack scripts: the shapes the adversarial experiment
//! sweeps run, expressed as a serializable recipe that expands into an
//! [`AdversaryPlan`] once the run's seed and horizon are known.

use ert_sim::{SimDuration, SimTime};
use serde::Serialize;

use crate::campaign::AdversaryCampaign;
use crate::plan::{AdversaryEvent, AdversaryKind, AdversaryPlan};

/// When scripted actors activate: shortly after t = 0, so the first
/// adaptation rounds already run under attack but topology construction
/// (which happens before the clock starts) is untouched.
const ATTACK_START_SECS: f64 = 0.05;

/// A named attack shape with free parameters — the unit the
/// experiments' `Scenario` carries and sweeps. Expansion via
/// [`AdversaryScript::plan`] is deterministic in `(script, seed,
/// horizon)`, so sweep cells stay isolated reproducible worlds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AdversaryScript {
    /// A single [`AdversaryKind::CapacityLiar`] wave at attack start.
    Liars {
        /// Fraction of live hosts turned liars, in `(0, 1]`.
        fraction: f64,
        /// Multiplicative capacity misreport factor.
        error: f64,
    },
    /// A single [`AdversaryKind::RoutingDefector`] wave at attack
    /// start.
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
    /// A [`AdversaryKind::QueryFlood`] flash crowd in the middle of the
    /// run, leaving headroom on both sides to measure the pre-flood
    /// level and the post-flood recovery.
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
    /// A [`AdversaryKind::SybilSwarm`] joining at attack start.
    Sybils {
        /// Number of Sybil identities.
        count: u32,
        /// Victim ring position as a fraction of the ID space.
        region: f64,
    },
    /// A randomized-but-reproducible mixed campaign over the whole
    /// horizon (see [`AdversaryCampaign`]).
    Campaign {
        /// Campaign intensity in `[0, 1]`.
        intensity: f64,
    },
}

impl AdversaryScript {
    /// Expands the script into a concrete plan for one run.
    ///
    /// The returned plan always carries `seed` as its interpretation
    /// seed; scripted events land at fixed offsets, campaign events are
    /// sampled over `[0, horizon)`.
    pub fn plan(&self, seed: u64, horizon: SimTime) -> AdversaryPlan {
        let start = SimTime::ZERO + SimDuration::from_secs_f64(ATTACK_START_SECS);
        let mut plan = AdversaryPlan::new(seed);
        match *self {
            AdversaryScript::Liars { fraction, error } => {
                plan.events.push(AdversaryEvent {
                    at: start,
                    kind: AdversaryKind::CapacityLiar { fraction, error },
                });
            }
            AdversaryScript::Defectors { fraction } => {
                plan.events.push(AdversaryEvent {
                    at: start,
                    kind: AdversaryKind::RoutingDefector { fraction },
                });
            }
            AdversaryScript::Mix {
                liar_fraction,
                liar_error,
                defector_fraction,
            } => {
                plan.events.push(AdversaryEvent {
                    at: start,
                    kind: AdversaryKind::CapacityLiar {
                        fraction: liar_fraction,
                        error: liar_error,
                    },
                });
                plan.events.push(AdversaryEvent {
                    at: start,
                    kind: AdversaryKind::RoutingDefector {
                        fraction: defector_fraction,
                    },
                });
            }
            AdversaryScript::Flood {
                key,
                queries,
                start_secs,
                window_secs,
            } => {
                plan.events.push(AdversaryEvent {
                    at: SimTime::ZERO + SimDuration::from_secs_f64(start_secs),
                    kind: AdversaryKind::QueryFlood {
                        key,
                        queries,
                        window: SimDuration::from_secs_f64(window_secs),
                    },
                });
            }
            AdversaryScript::Sybils { count, region } => {
                plan.events.push(AdversaryEvent {
                    at: start,
                    kind: AdversaryKind::SybilSwarm { count, region },
                });
            }
            AdversaryScript::Campaign { intensity } => {
                return AdversaryCampaign::generate_over(seed, intensity, horizon);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(10.0)
    }

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
            AdversaryScript::Campaign { intensity: 0.6 },
        ] {
            let a = script.plan(17, horizon());
            let b = script.plan(17, horizon());
            assert_eq!(a, b, "{script:?}");
            assert!(!a.is_empty(), "{script:?}");
            a.validate().unwrap_or_else(|e| panic!("{script:?}: {e}"));
            assert_eq!(a.seed, 17);
        }
    }

    #[test]
    fn mix_carries_both_actor_classes() {
        let plan = AdversaryScript::Mix {
            liar_fraction: 0.2,
            liar_error: 4.0,
            defector_fraction: 0.1,
        }
        .plan(3, horizon());
        assert!(plan.any_kind(|k| matches!(k, AdversaryKind::CapacityLiar { .. })));
        assert!(plan.any_kind(|k| matches!(k, AdversaryKind::RoutingDefector { .. })));
        assert_eq!(plan.events.len(), 2);
    }

    #[test]
    fn scripts_round_trip_through_json() {
        let script = AdversaryScript::Flood {
            key: 0.37,
            queries: 500,
            start_secs: 2.0,
            window_secs: 1.5,
        };
        let json = serde::json::to_string(&script);
        assert!(json.contains("Flood"), "{json}");
    }
}
