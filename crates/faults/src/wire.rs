//! Link-level fault interpretation for wire transports.
//!
//! [`LinkFaults`] turns a [`FaultPlan`](crate::FaultPlan) into a
//! per-delivery verdict for an in-memory datagram switch: while a
//! `DropMessages` episode is active each delivery rolls the plan's
//! seeded stream against the drop probability, and while a `Partition`
//! episode is active deliveries crossing partition-class boundaries are
//! blocked outright. `Heal` clears both episodes. Every other kind —
//! the host-level `Crash` and `Degrade` and the five adversary kinds —
//! is outside the link layer's jurisdiction, and a plan carrying one is
//! refused up front rather than silently ignored.
//!
//! Determinism contract: an empty plan — and more generally any stretch
//! of a run with no active drop episode — consumes **zero** random
//! draws, so fault-free wire runs are byte-identical to runs built
//! without any fault machinery at all.

use ert_sim::{SimRng, SimTime};
use rand::Rng;

use crate::plan::{FaultKind, FaultPlan};

/// Verdict for one attempted link delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver the message.
    Pass,
    /// Message lost to an active probabilistic-loss episode.
    Dropped,
    /// Sender and receiver are in different partition classes.
    Partitioned,
}

/// Stateful link-fault interpreter over a sorted fault schedule.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    rng: SimRng,
    events: Vec<crate::FaultEvent>,
    cursor: usize,
    /// Active loss episode: (probability, end time).
    drop: Option<(f64, SimTime)>,
    /// Active partition episode: (class count, end time).
    partition: Option<(u32, SimTime)>,
}

impl LinkFaults {
    /// Builds an interpreter for `plan`.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::validate`] failures, and names the first
    /// event whose kind the link layer does not interpret.
    pub fn new(plan: &FaultPlan) -> Result<Self, String> {
        plan.validate()?;
        if let Some((i, e)) = plan.events.iter().enumerate().find(|(_, e)| {
            !matches!(
                e.kind,
                FaultKind::Heal | FaultKind::DropMessages { .. } | FaultKind::Partition { .. }
            )
        }) {
            return Err(format!(
                "fault event {i}: the link layer does not interpret {}",
                e.kind.tag()
            ));
        }
        Ok(LinkFaults {
            rng: SimRng::seed_from(plan.seed).fork("link-faults"),
            events: plan.sorted_events(),
            cursor: 0,
            drop: None,
            partition: None,
        })
    }

    /// Advances the episode state to `now`, consuming due events.
    fn advance(&mut self, now: SimTime) {
        while let Some(ev) = self.events.get(self.cursor) {
            if ev.at > now {
                break;
            }
            match ev.kind {
                FaultKind::Heal => {
                    self.drop = None;
                    self.partition = None;
                }
                FaultKind::DropMessages { p, window } => {
                    self.drop = Some((p, ev.at + window));
                }
                FaultKind::Partition { groups, window } => {
                    self.partition = Some((groups, ev.at + window));
                }
                // `new` refuses every other kind (see module docs).
                _ => {}
            }
            self.cursor += 1;
        }
        if let Some((_, until)) = self.drop {
            if now >= until {
                self.drop = None;
            }
        }
        if let Some((_, until)) = self.partition {
            if now >= until {
                self.partition = None;
            }
        }
    }

    /// Is a delivery from host `from_idx` to host `to_idx` at `now`
    /// delivered, lost, or blocked? Host indices (not ring ids) define
    /// partition classes — `idx % groups` — matching the network
    /// simulator's convention.
    pub fn deliver(&mut self, now: SimTime, from_idx: usize, to_idx: usize) -> Delivery {
        self.advance(now);
        if let Some((groups, _)) = self.partition {
            let g = groups.max(1) as usize;
            if from_idx % g != to_idx % g {
                return Delivery::Partitioned;
            }
        }
        if let Some((p, _)) = self.drop {
            // The roll is consumed only while an episode is active, so
            // fault-free stretches draw nothing (byte-identity promise).
            if self.rng.gen::<f64>() < p {
                return Delivery::Dropped;
            }
        }
        Delivery::Pass
    }

    /// Is a partition episode currently separating these hosts? Unlike
    /// [`LinkFaults::deliver`] this never consumes a random draw — it is
    /// the connectivity check for the reliable-RPC lane, which is exempt
    /// from probabilistic loss.
    pub fn reachable(&mut self, now: SimTime, from_idx: usize, to_idx: usize) -> bool {
        self.advance(now);
        match self.partition {
            Some((groups, _)) => {
                let g = groups.max(1) as usize;
                from_idx % g == to_idx % g
            }
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultEvent, FaultPlan};
    use ert_sim::SimDuration;

    fn at(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn empty_plan_always_passes_and_draws_nothing() {
        let mut lf = LinkFaults::new(&FaultPlan::new(7)).unwrap();
        let baseline = lf.rng.clone().gen::<u64>();
        for i in 0..100 {
            assert_eq!(lf.deliver(at(i as f64), i, i + 1), Delivery::Pass);
        }
        // The stream was never touched.
        assert_eq!(lf.rng.gen::<u64>(), baseline);
    }

    #[test]
    fn drop_episode_is_probabilistic_and_expires() {
        let mut plan = FaultPlan::new(11);
        plan.events.push(FaultEvent {
            at: at(1.0),
            kind: FaultKind::DropMessages {
                p: 1.0,
                window: SimDuration::from_secs_f64(2.0),
            },
        });
        let mut lf = LinkFaults::new(&plan).unwrap();
        assert_eq!(lf.deliver(at(0.5), 0, 1), Delivery::Pass);
        assert_eq!(lf.deliver(at(1.5), 0, 1), Delivery::Dropped);
        assert_eq!(lf.deliver(at(3.5), 0, 1), Delivery::Pass);
    }

    #[test]
    fn partition_blocks_cross_class_until_heal() {
        let mut plan = FaultPlan::new(13);
        plan.events.push(FaultEvent {
            at: at(1.0),
            kind: FaultKind::Partition {
                groups: 2,
                window: SimDuration::from_secs_f64(10.0),
            },
        });
        plan.events.push(FaultEvent {
            at: at(4.0),
            kind: FaultKind::Heal,
        });
        let mut lf = LinkFaults::new(&plan).unwrap();
        assert_eq!(lf.deliver(at(2.0), 0, 1), Delivery::Partitioned);
        assert_eq!(lf.deliver(at(2.0), 0, 2), Delivery::Pass);
        assert!(!lf.reachable(at(2.0), 2, 3));
        assert_eq!(lf.deliver(at(5.0), 0, 1), Delivery::Pass);
    }

    #[test]
    fn kinds_outside_the_link_layer_are_refused() {
        for kind in [
            FaultKind::Crash,
            FaultKind::Degrade { factor: 2.0 },
            FaultKind::Restore,
            FaultKind::CapacityLiar {
                fraction: 0.2,
                error: 4.0,
            },
            FaultKind::SybilSwarm {
                count: 4,
                region: 0.5,
            },
            FaultKind::QueryFlood {
                key: 0.5,
                queries: 10,
                window: SimDuration::from_secs_f64(1.0),
            },
            FaultKind::RoutingDefector { fraction: 0.1 },
        ] {
            let mut plan = FaultPlan::new(3);
            plan.events.push(FaultEvent {
                at: at(1.0),
                kind: FaultKind::Heal,
            });
            plan.events.push(FaultEvent { at: at(2.0), kind });
            let err = LinkFaults::new(&plan).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "fault event 1: the link layer does not interpret {}",
                    kind.tag()
                )
            );
        }
    }
}
