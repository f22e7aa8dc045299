//! Adversary schedules: who attacks, how, and when.

use ert_sim::{SimDuration, SimTime};
use serde::Serialize;

/// The largest flood window the sort-key packing can carry:
/// [`AdversaryKind::param_bits`] packs the window's microseconds into
/// 32 bits next to the query count, so windows are capped at ~4295 s —
/// far beyond any simulated horizon.
pub const MAX_FLOOD_WINDOW_MICROS: u64 = (1 << 32) - 1;

/// One kind of adversarial behavior.
///
/// Each actor class attacks a specific assumption of the paper's
/// provable congestion bounds:
///
/// * [`AdversaryKind::CapacityLiar`] misreports the capacity estimate
///   ĉ, stressing the estimation-error factor γ_c that Theorems 3.1
///   and 3.2 bound indegree by;
/// * [`AdversaryKind::SybilSwarm`] joins coordinated identities packed
///   into one ring region, concentrating indegree (and therefore
///   forwarded load) on the victims there;
/// * [`AdversaryKind::QueryFlood`] layers a flash crowd on a single
///   key over the base workload;
/// * [`AdversaryKind::RoutingDefector`] inverts Algorithm 4's
///   two-choice rule: defecting nodes forward to the **most**-loaded
///   reachable candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AdversaryKind {
    /// Clears every reversible adversary effect: capacity liars revert
    /// to their true estimates and defectors resume honest forwarding.
    /// (Sybil identities stay — joining is a membership event, not an
    /// episode — and flood queries already injected keep flowing.)
    Restore,
    /// A `fraction` of live hosts (drawn from the adversary stream)
    /// misreport their capacity estimate ĉ by the multiplicative
    /// `error`: `error > 1` inflates (attracting more inlinks than the
    /// host can serve), `error < 1` deflates. Applying a second liar
    /// event to an already-lying host compounds the error; `Restore`
    /// reverts to the original truth in one step.
    CapacityLiar {
        /// Fraction of live hosts turned liars, in `(0, 1]`.
        fraction: f64,
        /// Multiplicative misreport factor (finite, > 0).
        error: f64,
    },
    /// `count` coordinated identities join, packed into the vacant ID
    /// slots nearest ring fraction `region` — the victim neighborhood
    /// whose indegree the swarm concentrates.
    SybilSwarm {
        /// Number of Sybil identities to join (≥ 1).
        count: u32,
        /// Victim ring position as a fraction of the ID space, in
        /// `[0, 1)`.
        region: f64,
    },
    /// A flash crowd: `queries` extra lookups on the single key at ring
    /// fraction `key`, injected evenly over `window` starting at the
    /// event time, layered onto the base workload. The exact metric
    /// collectors keep 16 bytes per completed flood lookup (its time and
    /// hop count) and 8 per visit to the minimum-capacity host.
    QueryFlood {
        /// Flooded key as a ring fraction, in `[0, 1)`.
        key: f64,
        /// Number of flood lookups (≥ 1).
        queries: u32,
        /// Injection window (positive, at most
        /// [`MAX_FLOOD_WINDOW_MICROS`] µs).
        window: SimDuration,
    },
    /// A `fraction` of live hosts defect: their forwards invert the
    /// two-choice rule and pick the most-loaded reachable candidate.
    RoutingDefector {
        /// Fraction of live hosts turned defectors, in `(0, 1]`.
        fraction: f64,
    },
}

impl AdversaryKind {
    /// Taxonomy rank used to tie-break equal-timestamp events:
    /// `Restore < CapacityLiar < SybilSwarm < QueryFlood <
    /// RoutingDefector`. Restoring first means a schedule that restores
    /// and re-attacks at the same instant nets out to the re-attack,
    /// mirroring `FaultKind`'s heal-first convention.
    fn rank(self) -> u8 {
        match self {
            AdversaryKind::Restore => 0,
            AdversaryKind::CapacityLiar { .. } => 1,
            AdversaryKind::SybilSwarm { .. } => 2,
            AdversaryKind::QueryFlood { .. } => 3,
            AdversaryKind::RoutingDefector { .. } => 4,
        }
    }

    /// Parameter bits for the final tie-break level, so even two events
    /// of the same kind at the same instant order deterministically.
    /// Injective per kind (the flood window cap makes the packed pair
    /// unambiguous), so equal keys mean equal events and stable sorting
    /// cannot leak input order into a run.
    fn param_bits(self) -> (u64, u64) {
        match self {
            AdversaryKind::Restore => (0, 0),
            AdversaryKind::CapacityLiar { fraction, error } => {
                (fraction.to_bits(), error.to_bits())
            }
            AdversaryKind::SybilSwarm { count, region } => (u64::from(count), region.to_bits()),
            AdversaryKind::QueryFlood {
                key,
                queries,
                window,
            } => (
                key.to_bits(),
                (u64::from(queries) << 32) | (window.as_micros() & MAX_FLOOD_WINDOW_MICROS),
            ),
            AdversaryKind::RoutingDefector { fraction } => (fraction.to_bits(), 0),
        }
    }

    /// The kind's stable tag, matching the serialized variant name —
    /// handy for telemetry and log filtering.
    pub fn tag(&self) -> &'static str {
        match self {
            AdversaryKind::Restore => "Restore",
            AdversaryKind::CapacityLiar { .. } => "CapacityLiar",
            AdversaryKind::SybilSwarm { .. } => "SybilSwarm",
            AdversaryKind::QueryFlood { .. } => "QueryFlood",
            AdversaryKind::RoutingDefector { .. } => "RoutingDefector",
        }
    }

    /// Validates the kind's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let fraction_ok = |fraction: f64, who: &str| {
            if fraction.is_finite() && fraction > 0.0 && fraction <= 1.0 {
                Ok(())
            } else {
                Err(format!("{who} fraction must be in (0, 1], got {fraction}"))
            }
        };
        match *self {
            AdversaryKind::Restore => Ok(()),
            AdversaryKind::CapacityLiar { fraction, error } => {
                fraction_ok(fraction, "liar")?;
                if error.is_finite() && error > 0.0 {
                    Ok(())
                } else {
                    Err(format!("liar error must be finite and > 0, got {error}"))
                }
            }
            AdversaryKind::SybilSwarm { count, region } => {
                if count == 0 {
                    return Err("sybil swarm needs >= 1 identity".into());
                }
                if region.is_finite() && (0.0..1.0).contains(&region) {
                    Ok(())
                } else {
                    Err(format!("sybil region must be in [0, 1), got {region}"))
                }
            }
            AdversaryKind::QueryFlood {
                key,
                queries,
                window,
            } => {
                if !(key.is_finite() && (0.0..1.0).contains(&key)) {
                    return Err(format!("flood key must be in [0, 1), got {key}"));
                }
                if queries == 0 {
                    return Err("flood needs >= 1 query".into());
                }
                if window == SimDuration::ZERO {
                    return Err("flood window must be positive".into());
                }
                if window.as_micros() > MAX_FLOOD_WINDOW_MICROS {
                    return Err(format!(
                        "flood window must be at most {MAX_FLOOD_WINDOW_MICROS} us, got {}",
                        window.as_micros()
                    ));
                }
                Ok(())
            }
            AdversaryKind::RoutingDefector { fraction } => fraction_ok(fraction, "defector"),
        }
    }
}

/// One scheduled adversarial action.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AdversaryEvent {
    /// When the actor activates.
    pub at: SimTime,
    /// What it does.
    pub kind: AdversaryKind,
}

impl AdversaryEvent {
    /// The total ordering key: time first, then taxonomy rank, then
    /// parameter bits — the same shape as `FaultEvent::sort_key`, so
    /// the applied order is a pure function of the plan's *contents*
    /// and permuting an event list never changes a run.
    pub fn sort_key(&self) -> (SimTime, u8, u64, u64) {
        let (a, b) = self.kind.param_bits();
        (self.at, self.kind.rank(), a, b)
    }
}

/// A seeded, serializable adversary schedule.
///
/// The `seed` names the interpretation stream: the network draws every
/// adversary-time random choice (which hosts lie or defect, where
/// Sybils estimate from) out of a generator forked off this seed,
/// independent of the topology / forwarding / workload / fault streams.
/// An empty plan draws nothing, so a run with an empty plan is
/// byte-identical to one that never heard of adversaries.
///
/// ```
/// use ert_adversary::{AdversaryEvent, AdversaryKind, AdversaryPlan};
/// use ert_sim::SimTime;
/// let mut plan = AdversaryPlan::new(7);
/// plan.events.push(AdversaryEvent {
///     at: SimTime::from_micros(50_000),
///     kind: AdversaryKind::RoutingDefector { fraction: 0.1 },
/// });
/// plan.validate().unwrap();
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct AdversaryPlan {
    /// Seed of the adversary-interpretation RNG stream.
    pub seed: u64,
    /// The scheduled actions (any order; interpretation sorts by
    /// [`AdversaryEvent::sort_key`]).
    pub events: Vec<AdversaryEvent>,
}

impl AdversaryPlan {
    /// An empty plan with the given interpretation seed.
    pub fn new(seed: u64) -> Self {
        AdversaryPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Whether the plan schedules no adversarial actions at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in canonical applied order (see
    /// [`AdversaryEvent::sort_key`]).
    pub fn sorted_events(&self) -> Vec<AdversaryEvent> {
        let mut out = self.events.clone();
        out.sort_by_key(AdversaryEvent::sort_key);
        out
    }

    /// Whether any event's kind satisfies `pred` — how the network
    /// decides which theorem envelopes the plan deliberately violates.
    pub fn any_kind(&self, pred: impl Fn(&AdversaryKind) -> bool) -> bool {
        self.events.iter().any(|e| pred(&e.kind))
    }

    /// Validates every event's parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint, prefixed with the
    /// offending event's index.
    pub fn validate(&self) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            e.kind
                .validate()
                .map_err(|msg| format!("adversary event {i}: {msg}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    #[test]
    fn empty_plan_is_default() {
        let p = AdversaryPlan::default();
        assert!(p.is_empty());
        p.validate().unwrap();
        assert_eq!(p, AdversaryPlan::new(0));
    }

    #[test]
    fn sorted_events_tie_break_by_taxonomy_then_params() {
        let t = at(500);
        let plan = AdversaryPlan {
            seed: 1,
            events: vec![
                AdversaryEvent {
                    at: t,
                    kind: AdversaryKind::RoutingDefector { fraction: 0.2 },
                },
                AdversaryEvent {
                    at: t,
                    kind: AdversaryKind::CapacityLiar {
                        fraction: 0.3,
                        error: 4.0,
                    },
                },
                AdversaryEvent {
                    at: t,
                    kind: AdversaryKind::Restore,
                },
                AdversaryEvent {
                    at: t,
                    kind: AdversaryKind::CapacityLiar {
                        fraction: 0.1,
                        error: 4.0,
                    },
                },
                AdversaryEvent {
                    at: at(100),
                    kind: AdversaryKind::SybilSwarm {
                        count: 4,
                        region: 0.5,
                    },
                },
            ],
        };
        let sorted = plan.sorted_events();
        assert!(matches!(sorted[0].kind, AdversaryKind::SybilSwarm { .. })); // earlier time wins
        assert_eq!(sorted[1].kind, AdversaryKind::Restore);
        assert_eq!(
            sorted[2].kind,
            AdversaryKind::CapacityLiar {
                fraction: 0.1,
                error: 4.0
            }
        );
        assert_eq!(
            sorted[3].kind,
            AdversaryKind::CapacityLiar {
                fraction: 0.3,
                error: 4.0
            }
        );
        assert!(matches!(
            sorted[4].kind,
            AdversaryKind::RoutingDefector { .. }
        ));
    }

    #[test]
    fn permuting_a_plan_does_not_change_its_canonical_order() {
        let events = vec![
            AdversaryEvent {
                at: at(9),
                kind: AdversaryKind::RoutingDefector { fraction: 0.1 },
            },
            AdversaryEvent {
                at: at(9),
                kind: AdversaryKind::Restore,
            },
            AdversaryEvent {
                at: at(9),
                kind: AdversaryKind::QueryFlood {
                    key: 0.25,
                    queries: 40,
                    window: SimDuration::from_secs_f64(0.5),
                },
            },
        ];
        let mut reversed = events.clone();
        reversed.reverse();
        let a = AdversaryPlan { seed: 3, events };
        let b = AdversaryPlan {
            seed: 3,
            events: reversed,
        };
        assert_eq!(a.sorted_events(), b.sorted_events());
    }

    #[test]
    fn flood_param_bits_distinguish_query_count_and_window() {
        let t = at(7);
        let mk = |queries, secs: f64| AdversaryEvent {
            at: t,
            kind: AdversaryKind::QueryFlood {
                key: 0.5,
                queries,
                window: SimDuration::from_secs_f64(secs),
            },
        };
        let keys: std::collections::BTreeSet<_> = [mk(1, 1.0), mk(2, 1.0), mk(1, 2.0)]
            .iter()
            .map(AdversaryEvent::sort_key)
            .collect();
        assert_eq!(keys.len(), 3, "packed params must stay injective");
    }

    #[test]
    fn rejects_bad_parameters() {
        for kind in [
            AdversaryKind::CapacityLiar {
                fraction: 0.0,
                error: 2.0,
            },
            AdversaryKind::CapacityLiar {
                fraction: 1.5,
                error: 2.0,
            },
            AdversaryKind::CapacityLiar {
                fraction: 0.2,
                error: 0.0,
            },
            AdversaryKind::CapacityLiar {
                fraction: 0.2,
                error: f64::NAN,
            },
            AdversaryKind::SybilSwarm {
                count: 0,
                region: 0.5,
            },
            AdversaryKind::SybilSwarm {
                count: 4,
                region: 1.0,
            },
            AdversaryKind::QueryFlood {
                key: 1.0,
                queries: 10,
                window: SimDuration::from_secs_f64(1.0),
            },
            AdversaryKind::QueryFlood {
                key: 0.5,
                queries: 0,
                window: SimDuration::from_secs_f64(1.0),
            },
            AdversaryKind::QueryFlood {
                key: 0.5,
                queries: 10,
                window: SimDuration::ZERO,
            },
            AdversaryKind::RoutingDefector { fraction: -0.1 },
            AdversaryKind::RoutingDefector {
                fraction: f64::INFINITY,
            },
        ] {
            assert!(kind.validate().is_err(), "{kind:?} should be rejected");
            let plan = AdversaryPlan {
                seed: 0,
                events: vec![AdversaryEvent { at: at(1), kind }],
            };
            let err = plan.validate().unwrap_err();
            assert!(err.starts_with("adversary event 0:"), "{err}");
        }
        AdversaryKind::Restore.validate().unwrap();
    }

    #[test]
    fn any_kind_finds_actor_classes() {
        let plan = AdversaryPlan {
            seed: 4,
            events: vec![AdversaryEvent {
                at: at(5),
                kind: AdversaryKind::CapacityLiar {
                    fraction: 0.2,
                    error: 4.0,
                },
            }],
        };
        assert!(plan.any_kind(|k| matches!(k, AdversaryKind::CapacityLiar { .. })));
        assert!(!plan.any_kind(|k| matches!(k, AdversaryKind::SybilSwarm { .. })));
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = AdversaryPlan {
            seed: 11,
            events: vec![
                AdversaryEvent {
                    at: at(250_000),
                    kind: AdversaryKind::SybilSwarm {
                        count: 8,
                        region: 0.75,
                    },
                },
                AdversaryEvent {
                    at: at(750_000),
                    kind: AdversaryKind::Restore,
                },
            ],
        };
        let json = serde::json::to_string(&plan);
        assert!(json.contains("\"seed\":11"), "{json}");
        assert!(json.contains("SybilSwarm"), "{json}");
    }
}
