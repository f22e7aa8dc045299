//! Transient (mean-field) dynamics of the supermarket model.

/// Which time stepper [`OdeModel::integrate_with`] uses. RK4 is the
/// default everywhere; forward Euler exists as an independent
/// discretization so conformance tests can cross-check the two (a
/// stepper bug is very unlikely to reproduce in both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrationMethod {
    /// First-order forward Euler.
    Euler,
    /// Classical fourth-order Runge–Kutta.
    Rk4,
}

/// The mean-field ODE system of the `b`-choice supermarket model on a
/// truncated state `s_0..=s_max`:
///
/// `ds_i/dt = λ(s_{i−1}^b − s_i^b) − (s_i − s_{i+1})`, with `s_0 ≡ 1`
/// and `s_{max+1} ≡ 0`.
///
/// Section 4.2 derives the (threshold-refined) analogue of these
/// equations for the query-forwarding model; Lemma A.1's fixed point is
/// where the derivative vanishes. Integrating from the empty system
/// shows convergence to [`crate::fixed_point`].
///
/// ```
/// use ert_supermarket::{fixed_point, OdeModel};
/// let model = OdeModel::new(0.9, 2, 20);
/// let s = model.integrate_from_empty(150.0, 2e-3);
/// let fp = fixed_point(0.9, 2, 20);
/// assert!((s[1] - fp[1]).abs() < 5e-3);
/// assert!((s[3] - fp[3]).abs() < 5e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdeModel {
    lambda: f64,
    b: u32,
    max_queue: usize,
}

impl OdeModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lambda < 1`, `b >= 1` and `max_queue >= 2`.
    pub fn new(lambda: f64, b: u32, max_queue: usize) -> Self {
        assert!(
            lambda > 0.0 && lambda < 1.0,
            "lambda must be in (0,1): {lambda}"
        );
        assert!(b >= 1, "need at least one choice");
        assert!(max_queue >= 2, "truncation too small");
        OdeModel {
            lambda,
            b,
            max_queue,
        }
    }

    /// The arrival rate per server.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The number of choices.
    pub fn choices(&self) -> u32 {
        self.b
    }

    /// Evaluates the derivative `ds/dt` in place. `s[0]` is pinned to 1.
    fn derivative(&self, s: &[f64], out: &mut [f64]) {
        out[0] = 0.0;
        for i in 1..=self.max_queue {
            let above = if i == self.max_queue { 0.0 } else { s[i + 1] };
            out[i] = self.lambda * (s[i - 1].powi(self.b as i32) - s[i].powi(self.b as i32))
                - (s[i] - above);
        }
    }

    /// One forward-Euler step of size `dt`, with the same clamping and
    /// `s_0` pinning as the RK4 stepper.
    fn euler_step(&self, s: &mut [f64], dt: f64) {
        let n = s.len();
        let mut k = vec![0.0; n];
        self.derivative(s, &mut k);
        for i in 0..n {
            s[i] += dt * k[i];
            s[i] = s[i].clamp(0.0, 1.0);
        }
        s[0] = 1.0;
    }

    /// One RK4 step of size `dt`.
    fn step(&self, s: &mut [f64], dt: f64) {
        let n = s.len();
        let mut k1 = vec![0.0; n];
        let mut k2 = vec![0.0; n];
        let mut k3 = vec![0.0; n];
        let mut k4 = vec![0.0; n];
        let mut tmp = vec![0.0; n];
        self.derivative(s, &mut k1);
        for i in 0..n {
            tmp[i] = s[i] + 0.5 * dt * k1[i];
        }
        self.derivative(&tmp, &mut k2);
        for i in 0..n {
            tmp[i] = s[i] + 0.5 * dt * k2[i];
        }
        self.derivative(&tmp, &mut k3);
        for i in 0..n {
            tmp[i] = s[i] + dt * k3[i];
        }
        self.derivative(&tmp, &mut k4);
        for i in 0..n {
            s[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            s[i] = s[i].clamp(0.0, 1.0);
        }
        s[0] = 1.0;
    }

    /// Integrates from the empty system (`s_i = 0` for `i ≥ 1`) for
    /// `horizon` time units with step `dt`, returning the final state.
    ///
    /// # Panics
    ///
    /// Panics unless `horizon` and `dt` are positive.
    pub fn integrate_from_empty(&self, horizon: f64, dt: f64) -> Vec<f64> {
        self.integrate(self.empty_state(), horizon, dt)
    }

    /// Integrates from an arbitrary state.
    ///
    /// # Panics
    ///
    /// Panics if the state's length is not `max_queue + 1` or the time
    /// parameters are not positive.
    pub fn integrate(&self, s: Vec<f64>, horizon: f64, dt: f64) -> Vec<f64> {
        self.integrate_with(IntegrationMethod::Rk4, s, horizon, dt)
    }

    /// Integrates from an arbitrary state with an explicit stepper.
    ///
    /// # Panics
    ///
    /// Panics if the state's length is not `max_queue + 1` or the time
    /// parameters are not positive.
    pub fn integrate_with(
        &self,
        method: IntegrationMethod,
        mut s: Vec<f64>,
        horizon: f64,
        dt: f64,
    ) -> Vec<f64> {
        assert_eq!(s.len(), self.max_queue + 1, "state length mismatch");
        assert!(
            horizon > 0.0 && dt > 0.0,
            "time parameters must be positive"
        );
        let steps = (horizon / dt).ceil() as usize;
        for _ in 0..steps {
            match method {
                IntegrationMethod::Euler => self.euler_step(&mut s, dt),
                IntegrationMethod::Rk4 => self.step(&mut s, dt),
            }
        }
        s
    }

    /// The empty-system state: `s_0 = 1`, everything above 0.
    pub fn empty_state(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.max_queue + 1];
        s[0] = 1.0;
        s
    }

    /// Mean queue length of a state: `Σ_{i≥1} s_i`.
    pub fn mean_queue(s: &[f64]) -> f64 {
        s.iter().skip(1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point;

    #[test]
    fn converges_to_fixed_point_b1_and_b2() {
        // b = 1 relaxes on the slow M/M/1 time scale ~1/(1−λ)²,
        // so it gets a longer horizon.
        for (b, horizon) in [(1u32, 400.0), (2, 80.0)] {
            let model = OdeModel::new(0.8, b, 40);
            let s = model.integrate_from_empty(horizon, 2e-3);
            let fp = fixed_point(0.8, b, 40);
            for i in 0..8 {
                assert!(
                    (s[i] - fp[i]).abs() < 5e-3,
                    "b={b} i={i}: {} vs {}",
                    s[i],
                    fp[i]
                );
            }
        }
    }

    #[test]
    fn fixed_point_is_stationary() {
        let model = OdeModel::new(0.7, 2, 25);
        let fp = fixed_point(0.7, 2, 25);
        let after = model.integrate(fp.clone(), 5.0, 1e-3);
        for i in 0..10 {
            assert!((after[i] - fp[i]).abs() < 1e-6, "i={i} drifted");
        }
    }

    #[test]
    fn state_stays_monotone_and_bounded() {
        let model = OdeModel::new(0.95, 2, 40);
        let s = model.integrate_from_empty(30.0, 1e-3);
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(
            s.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "tails must be monotone"
        );
    }

    #[test]
    fn euler_agrees_with_rk4_on_smooth_trajectories() {
        let model = OdeModel::new(0.85, 2, 30);
        let rk4 = model.integrate_with(IntegrationMethod::Rk4, model.empty_state(), 60.0, 1e-3);
        let euler = model.integrate_with(IntegrationMethod::Euler, model.empty_state(), 60.0, 1e-3);
        for i in 0..10 {
            assert!(
                (rk4[i] - euler[i]).abs() < 1e-3,
                "i={i}: rk4 {} vs euler {}",
                rk4[i],
                euler[i]
            );
        }
    }

    #[test]
    fn mean_queue_matches_mm1_for_b1() {
        let model = OdeModel::new(0.5, 1, 60);
        let s = model.integrate_from_empty(120.0, 1e-3);
        // M/M/1: mean queue λ/(1−λ) = 1.
        assert!((OdeModel::mean_queue(&s) - 1.0).abs() < 0.01);
    }
}
