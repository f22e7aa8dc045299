//! Capacity estimation with bounded error.
//!
//! The paper assumes each node estimates its capacity and the network
//! size within multiplicative factors `γ_c` and `γ_n` of the truth
//! (w.h.p.), citing gossip/synopsis protocols for the mechanism. We
//! model the *outcome* directly: an [`Estimator`] perturbs the true
//! capacity by a factor drawn log-uniformly from `[1/γ_c, γ_c]`, which
//! is exactly the guarantee Theorems 3.1 and 3.2 consume. `γ_n` is not
//! modelled: the network size only enters through `α = d + 3`, and the
//! simulator takes `d` from the overlay's true dimension, so nothing
//! would read a size estimate.

use ert_sim::SimRng;
use rand::Rng;

/// A bounded-error estimator for node capacity.
///
/// ```
/// use ert_core::Estimator;
/// use ert_sim::SimRng;
/// let est = Estimator::new(1.5);
/// let mut rng = SimRng::seed_from(9);
/// let c = est.estimate_capacity(100.0, &mut rng);
/// assert!(c >= 100.0 / 1.5 && c <= 100.0 * 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimator {
    gamma_c: f64,
}

impl Default for Estimator {
    /// An exact estimator (`γ_c = 1`), the simulation default.
    fn default() -> Self {
        Estimator { gamma_c: 1.0 }
    }
}

impl Estimator {
    /// Creates an estimator with capacity error factor `gamma_c`.
    ///
    /// # Panics
    ///
    /// Panics unless `gamma_c` is at least 1 and finite.
    pub fn new(gamma_c: f64) -> Self {
        assert!(
            gamma_c.is_finite() && gamma_c >= 1.0,
            "invalid gamma_c: {gamma_c}"
        );
        Estimator { gamma_c }
    }

    /// The capacity error factor `γ_c`.
    pub fn gamma_c(&self) -> f64 {
        self.gamma_c
    }

    #[expect(
        clippy::float_cmp,
        reason = "γ = 1.0 is an exact sentinel (\"no estimation error\") set literally by callers, never computed"
    )]
    fn factor(gamma: f64, rng: &mut SimRng) -> f64 {
        if gamma == 1.0 {
            return 1.0;
        }
        // Log-uniform over [1/gamma, gamma]: symmetric in ratio space.
        let ln = gamma.ln();
        (rng.gen::<f64>() * 2.0 * ln - ln).exp()
    }

    /// An estimate of `true_capacity` within a factor `γ_c`.
    pub fn estimate_capacity(&self, true_capacity: f64, rng: &mut SimRng) -> f64 {
        true_capacity * Self::factor(self.gamma_c, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_estimator_is_identity() {
        let est = Estimator::default();
        let mut rng = SimRng::seed_from(1);
        assert_eq!(est.estimate_capacity(123.0, &mut rng), 123.0);
    }

    #[test]
    fn error_stays_within_factor() {
        let est = Estimator::new(2.0);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..1000 {
            let c = est.estimate_capacity(10.0, &mut rng);
            assert!((5.0 - 1e-9..=20.0 + 1e-9).contains(&c), "capacity {c}");
        }
    }

    #[test]
    fn estimates_spread_above_and_below_truth() {
        let est = Estimator::new(2.0);
        let mut rng = SimRng::seed_from(3);
        let samples: Vec<f64> = (0..500)
            .map(|_| est.estimate_capacity(1.0, &mut rng))
            .collect();
        assert!(samples.iter().any(|&c| c > 1.1));
        assert!(samples.iter().any(|&c| c < 0.9));
    }

    #[test]
    #[should_panic(expected = "invalid gamma_c")]
    fn sub_one_factor_rejected() {
        let _ = Estimator::new(0.9);
    }
}
