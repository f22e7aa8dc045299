//! Periodic indegree adaptation (Section 3.3, Algorithm 3 of the paper).

use serde::Serialize;

use crate::params::ErtParams;

/// What a node should do with its indegree after one measurement period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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

/// A backward finger considered for shedding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
}
