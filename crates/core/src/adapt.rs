//! Periodic indegree adaptation (Section 3.3, Algorithm 3 of the paper).

use crate::params::ErtParams;

/// What a node should do with its indegree after one measurement period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptAction {
    /// Load and capacity are balanced; leave the table alone.
    Keep,
    /// Overloaded: ask this many backward fingers to drop us.
    Shed(u32),
    /// Underloaded: probe for this many additional inlinks.
    Grow(u32),
}

/// Decides the adaptation step from the load `l` experienced over the
/// last period and the (estimated) capacity `c`, per Algorithm 3:
///
/// * `l/c > γ_l` → shed `⌈μ(l − c)⌉` inlinks;
/// * `l/c < 1/γ_l` → grow `⌈μ(c − l)⌉` inlinks;
/// * otherwise keep.
///
/// Both quantities are in the same unit (queries per period), matching
/// the evaluation section where a node's capacity *is* the number of
/// queries it can hold at a time.
///
/// ```
/// use ert_core::{adaptation_action, AdaptAction, ErtParams};
/// let p = ErtParams::default(); // γ_l = 1, μ = 1/2
/// assert_eq!(adaptation_action(20.0, 10.0, &p), AdaptAction::Shed(5));
/// assert_eq!(adaptation_action(4.0, 10.0, &p), AdaptAction::Grow(3));
/// assert_eq!(adaptation_action(10.0, 10.0, &p), AdaptAction::Keep);
/// ```
///
/// # Panics
///
/// Panics if `capacity` is not strictly positive or `load` is negative.
pub fn adaptation_action(load: f64, capacity: f64, params: &ErtParams) -> AdaptAction {
    assert!(
        capacity.is_finite() && capacity > 0.0,
        "invalid capacity: {capacity}"
    );
    assert!(load.is_finite() && load >= 0.0, "invalid load: {load}");
    let g = load / capacity;
    if g > params.gamma_l {
        let shed = (params.mu * (load - capacity)).ceil() as u32;
        if shed == 0 {
            AdaptAction::Keep
        } else {
            AdaptAction::Shed(shed)
        }
    } else if g < 1.0 / params.gamma_l {
        let grow = (params.mu * (capacity - load)).ceil() as u32;
        if grow == 0 {
            AdaptAction::Keep
        } else {
            AdaptAction::Grow(grow)
        }
    } else {
        AdaptAction::Keep
    }
}

/// The ceiling Algorithm 3's growth puts on `d^∞`: `8·max(c, 8)` for a
/// node of evaluated capacity `c`.
///
/// The paper has no such cap: its Sec. 3.3 raises `d^∞` by every grow
/// and lets the reverse-region supply end the growth. This repo keeps
/// the cap as a safety bound on idle nodes (every node below capacity
/// grows each period under `γ_l = 1`); whether the paper's rule needs
/// it is ROADMAP item 3(c).
///
/// ```
/// use ert_core::indegree_cap;
/// assert_eq!(indegree_cap(3), 64);
/// assert_eq!(indegree_cap(20), 160);
/// ```
pub fn indegree_cap(capacity: u32) -> u32 {
    8 * capacity.max(8)
}

/// One Algorithm 3 step, sized against the node's table: what to shed
/// or grow, and the node's new `d^∞`. See [`adapt_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptStep {
    /// Leave the table and `d^∞` alone.
    Keep,
    /// Drop `count` backward fingers (`1 ≤ count ≤ indegree`) and set
    /// `d^∞` to `d_max`.
    Shed {
        /// Backward fingers to drop.
        count: u32,
        /// The node's `d^∞` after the shed.
        d_max: u32,
    },
    /// Set `d^∞` to `d_max`, then expand the indegree toward `target`
    /// (Algorithm 1).
    Grow {
        /// The inlinks the action asked for.
        ask: u32,
        /// The indegree the expansion stops at: `min(indegree + ask,
        /// d_max)`.
        target: u32,
        /// The node's `d^∞` after the grow.
        d_max: u32,
    },
}

/// Sizes `action` against a node of evaluated capacity `capacity`,
/// current indegree and `d^∞`:
///
/// * `Shed(x)` sheds `count = min(x, indegree)` and lowers `d^∞` by
///   `count`, floored at 1; a count that clamps to 0 is [`AdaptStep::Keep`].
/// * `Grow(x)` raises `d^∞` by `x` up to [`indegree_cap`] and grows
///   toward `min(indegree + x, d^∞)`. A `d^∞` that sat above the cap is
///   lowered to it.
///
/// `d^∞` is computed before the shed, so a runtime must drop exactly
/// `count` fingers for it to hold.
///
/// ```
/// use ert_core::{adapt_step, AdaptAction, AdaptStep};
/// // Capacity 10 (cap 80), indegree 4, d∞ 12.
/// assert_eq!(
///     adapt_step(AdaptAction::Shed(6), 10, 4, 12),
///     AdaptStep::Shed { count: 4, d_max: 8 }
/// );
/// assert_eq!(adapt_step(AdaptAction::Shed(3), 10, 0, 12), AdaptStep::Keep);
/// assert_eq!(
///     adapt_step(AdaptAction::Grow(5), 10, 4, 78),
///     AdaptStep::Grow { ask: 5, target: 9, d_max: 80 }
/// );
/// ```
pub fn adapt_step(action: AdaptAction, capacity: u32, indegree: u32, d_max: u32) -> AdaptStep {
    match action {
        AdaptAction::Keep => AdaptStep::Keep,
        AdaptAction::Shed(x) => match x.min(indegree) {
            0 => AdaptStep::Keep,
            count => AdaptStep::Shed {
                count,
                d_max: d_max.saturating_sub(count).max(1),
            },
        },
        AdaptAction::Grow(ask) => {
            let d_max = d_max.saturating_add(ask).min(indegree_cap(capacity));
            AdaptStep::Grow {
                ask,
                target: indegree.saturating_add(ask).min(d_max),
                d_max,
            }
        }
    }
}

/// A backward finger considered for shedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedCandidate<Id> {
    /// The inlink holder.
    pub id: Id,
    /// Logical (overlay-hop) distance from the owner to this holder.
    pub logical_distance: u64,
    /// Physical (coordinate) distance from the owner to this holder.
    pub physical_distance: f64,
}

/// Chooses which backward fingers to drop when shedding `count`
/// inlinks: "it chooses the one with the longest logical distance. In
/// the case with the same logical distances, it chooses the one with the
/// longest physical distance" (Section 3.3).
///
/// Returns at most `count` ids, furthest first.
///
/// ```
/// use ert_core::{select_shed_victims, ShedCandidate};
/// let fingers = vec![
///     ShedCandidate { id: "a", logical_distance: 3, physical_distance: 0.1 },
///     ShedCandidate { id: "b", logical_distance: 9, physical_distance: 0.1 },
///     ShedCandidate { id: "c", logical_distance: 9, physical_distance: 0.4 },
/// ];
/// assert_eq!(select_shed_victims(&fingers, 2), vec!["c", "b"]);
/// ```
pub fn select_shed_victims<Id: Copy>(fingers: &[ShedCandidate<Id>], count: u32) -> Vec<Id> {
    let mut sorted: Vec<&ShedCandidate<Id>> = fingers.iter().collect();
    sorted.sort_by(|x, y| {
        y.logical_distance
            .cmp(&x.logical_distance)
            .then(y.physical_distance.total_cmp(&x.physical_distance))
    });
    sorted
        .into_iter()
        .take(count as usize)
        .map(|c| c.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prelude::ProptestConfig, prop_assert, prop_assert_eq};

    fn params(gamma_l: f64, mu: f64) -> ErtParams {
        ErtParams {
            gamma_l,
            mu,
            ..ErtParams::default()
        }
    }

    #[test]
    fn balanced_band_with_gamma_above_one() {
        let p = params(2.0, 0.5);
        // g in [1/2, 2] keeps the table.
        assert_eq!(adaptation_action(5.0, 10.0, &p), AdaptAction::Keep);
        assert_eq!(adaptation_action(20.0, 10.0, &p), AdaptAction::Keep);
        assert_eq!(adaptation_action(21.0, 10.0, &p), AdaptAction::Shed(6));
        assert_eq!(adaptation_action(4.0, 10.0, &p), AdaptAction::Grow(3));
    }

    #[test]
    fn shed_and_grow_scale_with_mu() {
        let p = params(1.0, 0.25);
        assert_eq!(adaptation_action(30.0, 10.0, &p), AdaptAction::Shed(5));
        assert_eq!(adaptation_action(2.0, 10.0, &p), AdaptAction::Grow(2));
    }

    #[test]
    fn tiny_imbalance_rounds_up_to_one_link() {
        let p = params(1.0, 0.5);
        assert_eq!(adaptation_action(10.5, 10.0, &p), AdaptAction::Shed(1));
        assert_eq!(adaptation_action(9.5, 10.0, &p), AdaptAction::Grow(1));
    }

    #[test]
    fn exact_balance_keeps() {
        let p = params(1.0, 0.5);
        assert_eq!(adaptation_action(10.0, 10.0, &p), AdaptAction::Keep);
    }

    #[test]
    fn victims_ordered_by_logical_then_physical() {
        let fingers = vec![
            ShedCandidate {
                id: 1,
                logical_distance: 5,
                physical_distance: 0.9,
            },
            ShedCandidate {
                id: 2,
                logical_distance: 7,
                physical_distance: 0.1,
            },
            ShedCandidate {
                id: 3,
                logical_distance: 7,
                physical_distance: 0.2,
            },
            ShedCandidate {
                id: 4,
                logical_distance: 1,
                physical_distance: 0.5,
            },
        ];
        assert_eq!(select_shed_victims(&fingers, 3), vec![3, 2, 1]);
        // Asking for more than exist returns all.
        assert_eq!(select_shed_victims(&fingers, 10).len(), 4);
        // Zero asks for none.
        assert!(select_shed_victims(&fingers, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid capacity")]
    fn zero_capacity_rejected() {
        adaptation_action(1.0, 0.0, &ErtParams::default());
    }

    #[test]
    fn the_cap_is_eight_times_the_capacity_floored_at_eight() {
        assert_eq!(indegree_cap(1), 64);
        assert_eq!(indegree_cap(8), 64);
        assert_eq!(indegree_cap(9), 72);
    }

    #[test]
    fn a_shed_clamps_to_the_indegree_and_floors_d_max_at_one() {
        let shed = |x, indegree, d_max| adapt_step(AdaptAction::Shed(x), 10, indegree, d_max);
        assert_eq!(
            shed(3, 10, 20),
            AdaptStep::Shed {
                count: 3,
                d_max: 17
            }
        );
        assert_eq!(
            shed(30, 10, 20),
            AdaptStep::Shed {
                count: 10,
                d_max: 10
            }
        );
        assert_eq!(shed(5, 10, 4), AdaptStep::Shed { count: 5, d_max: 1 });
        assert_eq!(shed(5, 0, 20), AdaptStep::Keep, "nothing to shed");
        assert_eq!(adapt_step(AdaptAction::Keep, 10, 10, 20), AdaptStep::Keep);
    }

    #[test]
    fn a_grow_raises_d_max_to_the_cap_and_targets_below_it() {
        let grow = |x, indegree, d_max| adapt_step(AdaptAction::Grow(x), 10, indegree, d_max);
        let step = |ask, target, d_max| AdaptStep::Grow { ask, target, d_max };
        assert_eq!(grow(3, 10, 20), step(3, 13, 23));
        // d∞ stops at the cap of 80, and so does the target.
        assert_eq!(grow(5, 78, 78), step(5, 80, 80));
        // A d∞ above the cap comes down to it.
        assert_eq!(grow(1, 10, 500), step(1, 11, 80));
        // An indegree above d∞ targets d∞: the grow gains nothing.
        assert_eq!(grow(2, 90, 70), step(2, 72, 72));
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Every step keeps its bounds: a shed drops between one finger
        /// and the whole indegree and leaves `d^∞ ≥ 1`; a grow keeps its
        /// target at or under `d^∞`, and `d^∞` at or under the cap.
        #[test]
        fn adapt_step_keeps_its_bounds(
            kind in 0u8..3,
            x in 1u32..100,
            capacity in 1u32..40,
            indegree in 0u32..400,
            d_max in 0u32..400,
        ) {
            let action = match kind {
                0 => AdaptAction::Keep,
                1 => AdaptAction::Shed(x),
                _ => AdaptAction::Grow(x),
            };
            match adapt_step(action, capacity, indegree, d_max) {
                AdaptStep::Keep => {
                    prop_assert!(kind == 0 || (kind == 1 && indegree == 0));
                }
                AdaptStep::Shed { count, d_max: after } => {
                    prop_assert_eq!(kind, 1);
                    prop_assert!(1 <= count && count <= indegree && count <= x);
                    prop_assert_eq!(count, x.min(indegree));
                    prop_assert!(after >= 1);
                    prop_assert!(after <= d_max.max(1));
                }
                AdaptStep::Grow { ask, target, d_max: after } => {
                    prop_assert_eq!(kind, 2);
                    prop_assert_eq!(ask, x);
                    prop_assert!(target <= after);
                    prop_assert!(after <= indegree_cap(capacity));
                    prop_assert!(target <= indegree + ask);
                    // Below the cap, d∞ rises by the whole ask.
                    if d_max + x <= indegree_cap(capacity) {
                        prop_assert_eq!(after, d_max + x);
                    }
                }
            }
        }
    }
}
