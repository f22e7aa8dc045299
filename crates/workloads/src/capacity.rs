//! Node-capacity distributions.

use ert_sim::SimRng;
use rand::Rng;

/// The bounded Pareto distribution the paper samples node capacities
/// from: "shape 2, lower bound 500, upper bound 50000".
///
/// ```
/// use ert_workloads::BoundedPareto;
/// use ert_sim::SimRng;
/// let dist = BoundedPareto::paper_default();
/// let mut rng = SimRng::seed_from(1);
/// let c = dist.sample(&mut rng);
/// assert!((500.0..=50000.0).contains(&c));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    shape: f64,
    lower: f64,
    upper: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `shape > 0` and `0 < lower < upper`.
    pub fn new(shape: f64, lower: f64, upper: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "invalid shape: {shape}");
        assert!(
            lower > 0.0 && lower < upper && upper.is_finite(),
            "invalid bounds: [{lower}, {upper}]"
        );
        BoundedPareto {
            shape,
            lower,
            upper,
        }
    }

    /// Table 2's capacity distribution: shape 2 on `[500, 50000]`.
    pub fn paper_default() -> Self {
        BoundedPareto::new(2.0, 500.0, 50000.0)
    }

    /// The shape parameter.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The lower bound.
    pub fn lower(&self) -> f64 {
        self.lower
    }

    /// The upper bound.
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// Draws one capacity by inverse-CDF sampling.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u: f64 = rng.gen();
        let a = self.shape;
        let lha = (self.lower / self.upper).powf(a);
        self.lower / (1.0 - u * (1.0 - lha)).powf(1.0 / a)
    }

    /// Draws `n` capacities.
    pub fn sample_n(&self, n: usize, rng: &mut SimRng) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_bounds_and_skews_low() {
        let dist = BoundedPareto::paper_default();
        let mut rng = SimRng::seed_from(2);
        let samples = dist.sample_n(20_000, &mut rng);
        assert!(samples.iter().all(|&c| (500.0..=50000.0).contains(&c)));
        let below_2000 = samples.iter().filter(|&&c| c < 2000.0).count();
        // Shape-2 Pareto: P(X < 2000) ≈ 0.9375 on these bounds.
        let frac = below_2000 as f64 / samples.len() as f64;
        assert!((frac - 0.9375).abs() < 0.01, "fraction below 2000: {frac}");
    }

    #[test]
    fn mean_matches_theory() {
        let dist = BoundedPareto::new(2.0, 500.0, 50000.0);
        let mut rng = SimRng::seed_from(3);
        let samples = dist.sample_n(100_000, &mut rng);
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let (a, l, h) = (2.0f64, 500.0f64, 50000.0f64);
        let expect = l.powf(a) / (1.0 - (l / h).powf(a)) * a / (a - 1.0) * (1.0 / l - 1.0 / h);
        assert!(
            (mean - expect).abs() / expect < 0.03,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn accessors() {
        let d = BoundedPareto::new(1.5, 10.0, 100.0);
        assert_eq!((d.shape(), d.lower(), d.upper()), (1.5, 10.0, 100.0));
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn rejects_inverted_bounds() {
        let _ = BoundedPareto::new(2.0, 10.0, 5.0);
    }
}
