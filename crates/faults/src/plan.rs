//! Fault schedules: what goes wrong, and when.

use ert_sim::{SimDuration, SimTime};
use serde::Serialize;

/// One kind of injected fault.
///
/// The taxonomy follows the failure models of Kong et al. (*A General
/// Framework for Scalability and Performance Analysis of DHT Routing
/// Systems*) and Roos et al. (*Comprehending Kademlia Routing*): crash-
/// stop departures, slow ("degraded") peers, lossy links, and correlated
/// partition events.
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
}

impl FaultKind {
    /// Taxonomy rank used to tie-break equal-timestamp events:
    /// `Heal < Crash < Degrade < DropMessages < Partition`. Healing
    /// first means a schedule that heals and re-injects at the same
    /// instant nets out to the re-injection, which is the least
    /// surprising reading.
    fn rank(self) -> u8 {
        match self {
            FaultKind::Heal => 0,
            FaultKind::Crash => 1,
            FaultKind::Degrade { .. } => 2,
            FaultKind::DropMessages { .. } => 3,
            FaultKind::Partition { .. } => 4,
        }
    }

    /// Parameter bits for the final tie-break level, so even two events
    /// of the same kind at the same instant order deterministically.
    fn param_bits(self) -> (u64, u64) {
        match self {
            FaultKind::Heal | FaultKind::Crash => (0, 0),
            FaultKind::Degrade { factor } => (factor.to_bits(), 0),
            FaultKind::DropMessages { p, window } => (p.to_bits(), window.as_micros()),
            FaultKind::Partition { groups, window } => (u64::from(groups), window.as_micros()),
        }
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
        }
    }

    /// Validates the kind's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            FaultKind::Crash | FaultKind::Heal => Ok(()),
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
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEvent {
    /// When the fault fires.
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

/// A seeded, serializable fault schedule.
///
/// The `seed` names the interpretation stream: the network draws every
/// fault-time random choice (which host crashes, which messages drop)
/// from a generator forked off this seed, independent of the topology /
/// forwarding / workload streams. An empty plan draws nothing, so a run
/// with an empty plan is byte-identical to one that never heard of
/// faults.
///
/// ```
/// use ert_faults::{FaultEvent, FaultKind, FaultPlan};
/// use ert_sim::SimTime;
/// let mut plan = FaultPlan::new(7);
/// plan.events.push(FaultEvent { at: SimTime::from_micros(1_000_000), kind: FaultKind::Crash });
/// plan.validate().unwrap();
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed of the fault-interpretation RNG stream.
    pub seed: u64,
    /// The scheduled faults (any order; interpretation sorts by
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

    /// Whether the plan schedules no faults at all.
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
        let plan = FaultPlan {
            seed: 1,
            events: vec![
                FaultEvent {
                    at: t,
                    kind: FaultKind::Partition {
                        groups: 2,
                        window: SimDuration::from_secs_f64(1.0),
                    },
                },
                FaultEvent {
                    at: t,
                    kind: FaultKind::Degrade { factor: 3.0 },
                },
                FaultEvent {
                    at: t,
                    kind: FaultKind::Heal,
                },
                FaultEvent {
                    at: t,
                    kind: FaultKind::Degrade { factor: 2.0 },
                },
                FaultEvent {
                    at: at(100),
                    kind: FaultKind::Crash,
                },
            ],
        };
        let sorted = plan.sorted_events();
        assert_eq!(sorted[0].kind, FaultKind::Crash); // earlier time wins
        assert_eq!(sorted[1].kind, FaultKind::Heal);
        assert_eq!(sorted[2].kind, FaultKind::Degrade { factor: 2.0 });
        assert_eq!(sorted[3].kind, FaultKind::Degrade { factor: 3.0 });
        assert!(matches!(sorted[4].kind, FaultKind::Partition { .. }));
    }

    #[test]
    fn permuting_a_plan_does_not_change_its_canonical_order() {
        let events = vec![
            FaultEvent {
                at: at(9),
                kind: FaultKind::Crash,
            },
            FaultEvent {
                at: at(9),
                kind: FaultKind::Heal,
            },
            FaultEvent {
                at: at(9),
                kind: FaultKind::DropMessages {
                    p: 0.1,
                    window: SimDuration::from_secs_f64(0.5),
                },
            },
        ];
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
    fn rejects_bad_parameters() {
        for kind in [
            FaultKind::Degrade { factor: 0.5 },
            FaultKind::Degrade { factor: f64::NAN },
            FaultKind::DropMessages {
                p: 1.5,
                window: SimDuration::from_secs_f64(1.0),
            },
            FaultKind::DropMessages {
                p: 0.2,
                window: SimDuration::ZERO,
            },
            FaultKind::Partition {
                groups: 1,
                window: SimDuration::from_secs_f64(1.0),
            },
            FaultKind::Partition {
                groups: 4,
                window: SimDuration::ZERO,
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
        FaultKind::Crash.validate().unwrap();
        FaultKind::Heal.validate().unwrap();
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
                    at: at(750_000),
                    kind: FaultKind::Heal,
                },
            ],
        };
        let json = serde::json::to_string(&plan);
        assert!(json.contains("\"seed\":11"), "{json}");
        assert!(json.contains("DropMessages"), "{json}");
    }
}
