//! Perturbation schedules: what goes wrong, who attacks, and when.

use ert_sim::{SimDuration, SimTime};
use serde::Serialize;

/// The largest flood window the sort-key packing can carry:
/// [`FaultKind::param_bits`] packs the window's microseconds into
/// 32 bits next to the query count, so windows are capped at ~4295 s —
/// far beyond any simulated horizon.
pub const MAX_FLOOD_WINDOW_MICROS: u64 = (1 << 32) - 1;

/// One kind of scheduled perturbation.
///
/// Two classes share the type. The **environment** kinds (`Heal`
/// through `Partition`) follow the failure models of Kong et al. (*A
/// General Framework for Scalability and Performance Analysis of DHT
/// Routing Systems*) and Roos et al. (*Comprehending Kademlia
/// Routing*): crash-stop departures, slow ("degraded") peers, lossy
/// links, and correlated partition events. The **adversary** kinds
/// (`Restore` through `RoutingDefector`) attack an assumption of the
/// paper's provable congestion bounds:
///
/// * [`FaultKind::CapacityLiar`] misreports the capacity estimate ĉ,
///   stressing the estimation-error factor γ_c that Theorems 3.1 and
///   3.2 bound indegree by;
/// * [`FaultKind::SybilSwarm`] joins coordinated identities packed into
///   one ring region, concentrating indegree (and therefore forwarded
///   load) on the victims there;
/// * [`FaultKind::QueryFlood`] layers a flash crowd on a single key
///   over the base workload;
/// * [`FaultKind::RoutingDefector`] inverts Algorithm 4's two-choice
///   rule: defecting nodes forward to the **most**-loaded reachable
///   candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// A uniformly random live host crash-stops: it leaves the overlay
    /// with **no successor handoff**, and every query queued or in
    /// service on it is lost (accounted as `lookups_failed`).
    Crash,
    /// A uniformly random live host degrades: its service times are
    /// multiplied by `factor` until the next [`FaultKind::Heal`].
    Degrade {
        /// Service-time inflation factor (must be ≥ 1 and finite).
        factor: f64,
    },
    /// Per-link message loss: for `window` sim-time after the event,
    /// each forwarded query is independently lost with probability `p`
    /// (the sender discovers the loss after a timeout and may retry
    /// under the configured `RetryPolicy`).
    DropMessages {
        /// Per-message loss probability in `[0, 1]`.
        p: f64,
        /// How long the lossy episode lasts.
        window: SimDuration,
    },
    /// A correlated partition: hosts are assigned to `groups` classes by
    /// `host_index % groups`, and for `window` sim-time any forward
    /// crossing a class boundary is blocked. Blocked forwards behave
    /// like lost messages (timeout, then retry or fail).
    Partition {
        /// Number of partition classes (must be ≥ 2).
        groups: u32,
        /// How long the partition lasts.
        window: SimDuration,
    },
    /// Clears every active fault effect: degraded hosts recover, loss
    /// and partition episodes end. (Crashed hosts stay gone — crash is
    /// a membership event, not an episode.)
    Heal,
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

impl FaultKind {
    /// Taxonomy rank used to tie-break equal-timestamp events: the
    /// environment kinds `Heal < Crash < Degrade < DropMessages <
    /// Partition`, then the adversary kinds `Restore < CapacityLiar <
    /// SybilSwarm < QueryFlood < RoutingDefector`. Healing (restoring)
    /// first means a schedule that heals and re-injects at the same
    /// instant nets out to the re-injection, which is the least
    /// surprising reading; faults before adversaries means an equal-time
    /// crash draws its victim before a Sybil swarm joins.
    fn rank(self) -> u8 {
        match self {
            FaultKind::Heal => 0,
            FaultKind::Crash => 1,
            FaultKind::Degrade { .. } => 2,
            FaultKind::DropMessages { .. } => 3,
            FaultKind::Partition { .. } => 4,
            FaultKind::Restore => 5,
            FaultKind::CapacityLiar { .. } => 6,
            FaultKind::SybilSwarm { .. } => 7,
            FaultKind::QueryFlood { .. } => 8,
            FaultKind::RoutingDefector { .. } => 9,
        }
    }

    /// Parameter bits for the final tie-break level, so even two events
    /// of the same kind at the same instant order deterministically.
    /// Injective per kind (the flood window cap makes the packed pair
    /// unambiguous), so equal keys mean equal events and stable sorting
    /// cannot leak input order into a run.
    fn param_bits(self) -> (u64, u64) {
        match self {
            FaultKind::Heal | FaultKind::Crash | FaultKind::Restore => (0, 0),
            FaultKind::Degrade { factor } => (factor.to_bits(), 0),
            FaultKind::DropMessages { p, window } => (p.to_bits(), window.as_micros()),
            FaultKind::Partition { groups, window } => (u64::from(groups), window.as_micros()),
            FaultKind::CapacityLiar { fraction, error } => (fraction.to_bits(), error.to_bits()),
            FaultKind::SybilSwarm { count, region } => (u64::from(count), region.to_bits()),
            FaultKind::QueryFlood {
                key,
                queries,
                window,
            } => (
                key.to_bits(),
                (u64::from(queries) << 32) | (window.as_micros() & MAX_FLOOD_WINDOW_MICROS),
            ),
            FaultKind::RoutingDefector { fraction } => (fraction.to_bits(), 0),
        }
    }

    /// Whether the kind attacks an honest-node assumption (`Restore`
    /// through `RoutingDefector`) rather than the environment.
    pub fn is_adversarial(&self) -> bool {
        self.rank() >= FaultKind::Restore.rank()
    }

    /// The kind's stable tag, matching the serialized variant name —
    /// handy for telemetry and log filtering.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::Crash => "Crash",
            FaultKind::Degrade { .. } => "Degrade",
            FaultKind::DropMessages { .. } => "DropMessages",
            FaultKind::Partition { .. } => "Partition",
            FaultKind::Heal => "Heal",
            FaultKind::Restore => "Restore",
            FaultKind::CapacityLiar { .. } => "CapacityLiar",
            FaultKind::SybilSwarm { .. } => "SybilSwarm",
            FaultKind::QueryFlood { .. } => "QueryFlood",
            FaultKind::RoutingDefector { .. } => "RoutingDefector",
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
            FaultKind::Crash | FaultKind::Heal | FaultKind::Restore => Ok(()),
            FaultKind::Degrade { factor } => {
                if factor.is_finite() && factor >= 1.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "degrade factor must be finite and >= 1, got {factor}"
                    ))
                }
            }
            FaultKind::DropMessages { p, window } => {
                if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                    return Err(format!("drop probability must be in [0, 1], got {p}"));
                }
                if window == SimDuration::ZERO {
                    return Err("drop window must be positive".into());
                }
                Ok(())
            }
            FaultKind::Partition { groups, window } => {
                if groups < 2 {
                    return Err(format!("partition needs >= 2 groups, got {groups}"));
                }
                if window == SimDuration::ZERO {
                    return Err("partition window must be positive".into());
                }
                Ok(())
            }
            FaultKind::CapacityLiar { fraction, error } => {
                fraction_ok(fraction, "liar")?;
                if error.is_finite() && error > 0.0 {
                    Ok(())
                } else {
                    Err(format!("liar error must be finite and > 0, got {error}"))
                }
            }
            FaultKind::SybilSwarm { count, region } => {
                if count == 0 {
                    return Err("sybil swarm needs >= 1 identity".into());
                }
                if region.is_finite() && (0.0..1.0).contains(&region) {
                    Ok(())
                } else {
                    Err(format!("sybil region must be in [0, 1), got {region}"))
                }
            }
            FaultKind::QueryFlood {
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
            FaultKind::RoutingDefector { fraction } => fraction_ok(fraction, "defector"),
        }
    }
}

/// One scheduled perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEvent {
    /// When the perturbation fires.
    pub at: SimTime,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The total ordering key: time first, then taxonomy rank, then
    /// parameter bits. Sorting a schedule by this key makes the applied
    /// order a pure function of the schedule's *contents* — permuting a
    /// plan's event list never changes a run.
    pub fn sort_key(&self) -> (SimTime, u8, u64, u64) {
        let (a, b) = self.kind.param_bits();
        (self.at, self.kind.rank(), a, b)
    }
}

/// A seeded, serializable perturbation schedule.
///
/// The `seed` names the interpretation streams: the network draws every
/// fault-time random choice (which host crashes, which messages drop)
/// and every adversary-time one (which hosts lie or defect, where
/// Sybils estimate from) from generators forked off this seed,
/// independent of the topology / forwarding / workload streams. An
/// empty plan draws nothing, so a run with an empty plan is
/// byte-identical to one that never heard of faults.
///
/// ```
/// use ert_faults::{FaultEvent, FaultKind, FaultPlan};
/// use ert_sim::SimTime;
/// let mut plan = FaultPlan::new(7);
/// plan.events.push(FaultEvent { at: SimTime::from_micros(1_000_000), kind: FaultKind::Crash });
/// plan.events.push(FaultEvent {
///     at: SimTime::from_micros(50_000),
///     kind: FaultKind::RoutingDefector { fraction: 0.1 },
/// });
/// plan.validate().unwrap();
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed of the interpretation RNG streams.
    pub seed: u64,
    /// The scheduled events (any order; interpretation sorts by
    /// [`FaultEvent::sort_key`]).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given interpretation seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Whether the plan schedules no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in canonical applied order (see
    /// [`FaultEvent::sort_key`]).
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut out = self.events.clone();
        out.sort_by_key(FaultEvent::sort_key);
        out
    }

    /// Whether any event's kind satisfies `pred` — how the network
    /// decides which theorem envelopes the plan deliberately violates.
    pub fn any_kind(&self, pred: impl Fn(&FaultKind) -> bool) -> bool {
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
                .map_err(|msg| format!("fault event {i}: {msg}"))?;
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
        let p = FaultPlan::default();
        assert!(p.is_empty());
        p.validate().unwrap();
        assert_eq!(p, FaultPlan::new(0));
    }

    #[test]
    fn sorted_events_tie_break_by_taxonomy_then_params() {
        let t = at(500);
        let kinds = [
            FaultKind::RoutingDefector { fraction: 0.2 },
            FaultKind::CapacityLiar {
                fraction: 0.3,
                error: 4.0,
            },
            FaultKind::Partition {
                groups: 2,
                window: SimDuration::from_secs_f64(1.0),
            },
            FaultKind::Restore,
            FaultKind::Degrade { factor: 3.0 },
            FaultKind::Heal,
            FaultKind::CapacityLiar {
                fraction: 0.1,
                error: 4.0,
            },
            FaultKind::Degrade { factor: 2.0 },
        ];
        let mut events: Vec<_> = kinds
            .iter()
            .map(|&kind| FaultEvent { at: t, kind })
            .collect();
        events.push(FaultEvent {
            at: at(100),
            kind: FaultKind::Crash,
        });
        let sorted = FaultPlan { seed: 1, events }.sorted_events();
        let got: Vec<_> = sorted.iter().map(|e| e.kind).collect();
        assert_eq!(
            got,
            [
                FaultKind::Crash, // earlier time wins
                FaultKind::Heal,
                FaultKind::Degrade { factor: 2.0 },
                FaultKind::Degrade { factor: 3.0 },
                kinds[2],
                FaultKind::Restore,
                kinds[6],
                kinds[1],
                kinds[0],
            ]
        );
    }

    #[test]
    fn permuting_a_plan_does_not_change_its_canonical_order() {
        let events: Vec<_> = [
            FaultKind::Crash,
            FaultKind::RoutingDefector { fraction: 0.1 },
            FaultKind::Heal,
            FaultKind::Restore,
            FaultKind::DropMessages {
                p: 0.1,
                window: SimDuration::from_secs_f64(0.5),
            },
            FaultKind::QueryFlood {
                key: 0.25,
                queries: 40,
                window: SimDuration::from_secs_f64(0.5),
            },
        ]
        .into_iter()
        .map(|kind| FaultEvent { at: at(9), kind })
        .collect();
        let mut reversed = events.clone();
        reversed.reverse();
        let a = FaultPlan { seed: 3, events };
        let b = FaultPlan {
            seed: 3,
            events: reversed,
        };
        assert_eq!(a.sorted_events(), b.sorted_events());
    }

    #[test]
    fn flood_param_bits_distinguish_query_count_and_window() {
        let mk = |queries, secs: f64| FaultEvent {
            at: at(7),
            kind: FaultKind::QueryFlood {
                key: 0.5,
                queries,
                window: SimDuration::from_secs_f64(secs),
            },
        };
        let keys: std::collections::BTreeSet<_> = [mk(1, 1.0), mk(2, 1.0), mk(1, 2.0)]
            .iter()
            .map(FaultEvent::sort_key)
            .collect();
        assert_eq!(keys.len(), 3, "packed params must stay injective");
    }

    #[test]
    fn rejects_bad_parameters() {
        let one_sec = SimDuration::from_secs_f64(1.0);
        for kind in [
            FaultKind::Degrade { factor: 0.5 },
            FaultKind::Degrade { factor: f64::NAN },
            FaultKind::DropMessages {
                p: 1.5,
                window: one_sec,
            },
            FaultKind::DropMessages {
                p: 0.2,
                window: SimDuration::ZERO,
            },
            FaultKind::Partition {
                groups: 1,
                window: one_sec,
            },
            FaultKind::Partition {
                groups: 4,
                window: SimDuration::ZERO,
            },
            FaultKind::CapacityLiar {
                fraction: 0.0,
                error: 2.0,
            },
            FaultKind::CapacityLiar {
                fraction: 1.5,
                error: 2.0,
            },
            FaultKind::CapacityLiar {
                fraction: 0.2,
                error: 0.0,
            },
            FaultKind::CapacityLiar {
                fraction: 0.2,
                error: f64::NAN,
            },
            FaultKind::SybilSwarm {
                count: 0,
                region: 0.5,
            },
            FaultKind::SybilSwarm {
                count: 4,
                region: 1.0,
            },
            FaultKind::QueryFlood {
                key: 1.0,
                queries: 10,
                window: one_sec,
            },
            FaultKind::QueryFlood {
                key: 0.5,
                queries: 0,
                window: one_sec,
            },
            FaultKind::QueryFlood {
                key: 0.5,
                queries: 10,
                window: SimDuration::ZERO,
            },
            FaultKind::RoutingDefector { fraction: -0.1 },
            FaultKind::RoutingDefector {
                fraction: f64::INFINITY,
            },
        ] {
            assert!(kind.validate().is_err(), "{kind:?} should be rejected");
            let plan = FaultPlan {
                seed: 0,
                events: vec![FaultEvent { at: at(1), kind }],
            };
            let err = plan.validate().unwrap_err();
            assert!(err.starts_with("fault event 0:"), "{err}");
        }
        for kind in [FaultKind::Crash, FaultKind::Heal, FaultKind::Restore] {
            kind.validate().unwrap();
        }
    }

    #[test]
    fn any_kind_and_class_split_at_restore() {
        let plan = FaultPlan {
            seed: 4,
            events: vec![FaultEvent {
                at: at(5),
                kind: FaultKind::CapacityLiar {
                    fraction: 0.2,
                    error: 4.0,
                },
            }],
        };
        assert!(plan.any_kind(|k| matches!(k, FaultKind::CapacityLiar { .. })));
        assert!(!plan.any_kind(|k| matches!(k, FaultKind::SybilSwarm { .. })));
        assert!(!FaultKind::Partition {
            groups: 2,
            window: SimDuration::from_secs_f64(1.0),
        }
        .is_adversarial());
        assert!(FaultKind::Restore.is_adversarial());
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = FaultPlan {
            seed: 11,
            events: vec![
                FaultEvent {
                    at: at(250_000),
                    kind: FaultKind::DropMessages {
                        p: 0.25,
                        window: SimDuration::from_secs_f64(2.0),
                    },
                },
                FaultEvent {
                    at: at(500_000),
                    kind: FaultKind::SybilSwarm {
                        count: 8,
                        region: 0.75,
                    },
                },
                FaultEvent {
                    at: at(750_000),
                    kind: FaultKind::Heal,
                },
            ],
        };
        let json = serde::json::to_string(&plan);
        assert!(json.contains("\"seed\":11"), "{json}");
        assert!(json.contains("DropMessages"), "{json}");
        assert!(json.contains("SybilSwarm"), "{json}");
    }
}
