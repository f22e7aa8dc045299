//! The paper's own query-forwarding model (QFM): the finite-capacity,
//! strong-threshold supermarket system of the Appendix.
//!
//! The Appendix works in *spare-capacity* coordinates: each server has
//! `c` capacity slots; `s_i(t)` is the fraction of servers with **at
//! most** `i` spare slots (`s_c ≡ 1`, `s_i` shrinking as `i` falls). An
//! arriving query scans its `b` sampled choices sequentially and settles
//! on the first with more than `T` spare slots; if none qualifies it
//! takes the least loaded. The mean-field dynamics (the paper's
//! equations (3)–(4)) are
//!
//! ```text
//! ds_i/dt = λ(s_{i+1} − s_i)·(s_{T−1}^b − 1)/(s_{T−1} − 1) − (s_i − s_{i−1}),  c > i ≥ T−1
//! ds_i/dt = λ(s_{i+1}^b − s_i^b) − (s_i − s_{i−1}),                            i < T−1
//! ```
//!
//! and Lemma A.1 gives the fixed point in closed form up to the scalar
//! `s_{T−1}`, which [`ThresholdModel::fixed_point`] pins down by
//! bisection. [`ThresholdModel::expected_queue`] converts the stationary
//! distribution into the mean queue length (and, via Little's law,
//! the Theorem 4.1 waiting time).

use serde::Serialize;

/// The finite-capacity threshold supermarket model (the paper's QFM).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ThresholdModel {
    lambda: f64,
    b: u32,
    capacity: usize,
    threshold: usize,
}

impl ThresholdModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lambda < 1`, `b >= 1`, and
    /// `1 <= threshold < capacity`.
    pub fn new(lambda: f64, b: u32, capacity: usize, threshold: usize) -> Self {
        assert!(
            lambda > 0.0 && lambda < 1.0,
            "lambda must be in (0,1): {lambda}"
        );
        assert!(b >= 1, "need at least one choice");
        assert!(
            threshold >= 1 && threshold < capacity,
            "need 1 <= threshold < capacity (got {threshold} / {capacity})"
        );
        ThresholdModel {
            lambda,
            b,
            capacity,
            threshold,
        }
    }

    /// The arrival rate per server.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Lemma A.1's amplification factor `A = λ(x^b − 1)/(x − 1)` at
    /// `x = s_{T−1}` (continuity value `λ·b` at `x = 1`).
    fn amplification(&self, x: f64) -> f64 {
        if (x - 1.0).abs() < 1e-12 {
            self.lambda * self.b as f64
        } else {
            self.lambda * (x.powi(self.b as i32) - 1.0) / (x - 1.0)
        }
    }

    /// Lemma A.1's upper branch evaluated at index `i ∈ [T−1, c]` given
    /// a trial `x = s_{T−1}`.
    fn upper(&self, i: usize, x: f64) -> f64 {
        let a = self.amplification(x);
        let e = (self.capacity - i) as i32;
        if (a - 1.0).abs() < 1e-12 {
            // lim A→1 of (λ−A)(A^e −1)/(A−1) + A^e = (λ−1)·e + 1.
            (self.lambda - 1.0) * e as f64 + 1.0
        } else {
            (self.lambda - a) * (a.powi(e) - 1.0) / (a - 1.0) + a.powi(e)
        }
    }

    /// Solves Lemma A.1's self-consistency: find `x = s_{T−1}` with
    /// `upper(T−1, x) = x`, then assemble the whole tail vector
    /// `s_0 ..= s_c` (upper branch above the threshold, the
    /// doubly-exponential lower branch below).
    ///
    /// # Panics
    ///
    /// Panics if no root exists in `(0, 1]` — which would mean the
    /// model is saturated; `λ < 1` guarantees one in practice.
    pub fn fixed_point(&self) -> Vec<f64> {
        let f = |x: f64| self.upper(self.threshold - 1, x) - x;
        // Bisection over (0, 1]: f(1) = upper with A=λb ... and f(0+)
        // tends to the A→λ limit. Scan for a sign change first.
        let mut lo = 1e-9;
        let mut hi = 1.0;
        let mut flo = f(lo);
        let fhi = f(hi);
        if flo * fhi > 0.0 {
            // Fall back to a fine scan (the function is continuous).
            let mut found = false;
            for k in 1..=2000 {
                let x = k as f64 / 2000.0;
                if flo * f(x) <= 0.0 {
                    hi = x;
                    found = true;
                    break;
                }
                lo = x;
                flo = f(x);
            }
            assert!(found, "no fixed point in (0, 1] — saturated model");
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if flo * f(mid) <= 0.0 {
                hi = mid;
            } else {
                lo = mid;
                flo = f(lo);
            }
        }
        let x = 0.5 * (lo + hi);

        let mut s = vec![0.0; self.capacity + 1];
        s[self.capacity] = 1.0;
        for i in (self.threshold - 1..self.capacity).rev() {
            s[i] = self.upper(i, x).clamp(0.0, 1.0);
        }
        // Lower branch: s_i = λ^{(b^{T−1−i} − 1)/(b − 1)} · x^{b^{T−1−i}}.
        for i in (0..self.threshold - 1).rev() {
            let depth = (self.threshold - 1 - i) as u32;
            let (lam_exp, x_exp) = if self.b == 1 {
                (depth as f64, 1.0)
            } else {
                let bp = (self.b as f64).powi(depth as i32);
                ((bp - 1.0) / (self.b as f64 - 1.0), bp)
            };
            s[i] = (self.lambda.powf(lam_exp) * x.powf(x_exp)).clamp(0.0, s[i + 1]);
        }
        s
    }

    /// The derivative `ds/dt` of the paper's equations (3)–(4) at state
    /// `s` (spare-capacity tails). Used to verify stationarity of the
    /// fixed point.
    ///
    /// # Panics
    ///
    /// Panics if `s` has the wrong length.
    pub fn derivative(&self, s: &[f64]) -> Vec<f64> {
        assert_eq!(s.len(), self.capacity + 1, "state length mismatch");
        let x = s[self.threshold - 1];
        let a = self.amplification(x);
        let mut ds = vec![0.0; s.len()];
        for i in 0..self.capacity {
            let below = if i == 0 { 0.0 } else { s[i - 1] };
            ds[i] = if i >= self.threshold - 1 {
                a * (s[i + 1] - s[i]) - (s[i] - below)
            } else {
                self.lambda * (s[i + 1].powi(self.b as i32) - s[i].powi(self.b as i32))
                    - (s[i] - below)
            };
        }
        ds
    }

    /// Mean queue length at a state: a server with exactly `i` spare
    /// slots holds `c − i` queries, so `L = Σ (c − i)(s_i − s_{i−1})`.
    ///
    /// # Panics
    ///
    /// Panics if `s` has the wrong length.
    pub fn expected_queue(&self, s: &[f64]) -> f64 {
        assert_eq!(s.len(), self.capacity + 1, "state length mismatch");
        let mut total = 0.0;
        for i in 0..=self.capacity {
            let below = if i == 0 { 0.0 } else { s[i - 1] };
            total += (self.capacity - i) as f64 * (s[i] - below);
        }
        total
    }

    /// Expected time in system at the fixed point, by Little's law
    /// (`W = L/λ`; service time is the unit).
    pub fn expected_time(&self) -> f64 {
        self.expected_queue(&self.fixed_point()) / self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(lambda: f64, b: u32) -> ThresholdModel {
        ThresholdModel::new(lambda, b, 24, 12)
    }

    #[test]
    fn fixed_point_is_monotone_and_bounded() {
        for b in [1u32, 2, 3] {
            let m = model(0.9, b);
            let s = m.fixed_point();
            assert_eq!(*s.last().unwrap(), 1.0);
            assert!(s.windows(2).all(|w| w[0] <= w[1] + 1e-9), "b={b}: {s:?}");
            assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn fixed_point_is_stationary_under_the_papers_dynamics() {
        // The Lemma A.1 closed form must null the equations (3)-(4)
        // derivative — the self-consistency of the Appendix.
        for (lambda, b) in [(0.7, 2u32), (0.9, 2), (0.8, 3)] {
            let m = model(lambda, b);
            let s = m.fixed_point();
            let ds = m.derivative(&s);
            let max_residual = ds.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
            assert!(
                max_residual < 1e-6,
                "λ={lambda}, b={b}: residual {max_residual}"
            );
        }
    }

    #[test]
    fn more_choices_shorten_the_queue() {
        let q1 = model(0.9, 1).expected_time();
        let q2 = model(0.9, 2).expected_time();
        let q3 = model(0.9, 3).expected_time();
        assert!(q2 < q1, "b2 {q2} vs b1 {q1}");
        assert!(q3 < q2);
        // The b=1->2 step dominates (Theorem 4.1's structure).
        assert!(q1 - q2 > 2.0 * (q2 - q3), "{q1} {q2} {q3}");
    }

    #[test]
    fn threshold_interpolates_between_mm1_and_two_choice() {
        // The threshold is in *spare* coordinates: "settle on the first
        // choice with more than T spare slots". A loose threshold
        // (T ≈ c/2 ⇒ settle whenever queue ≤ c/2) almost always takes
        // the first choice — the M/M/1 limit; a tight one
        // (T = c − 2 ⇒ settle only when queue ≤ 2) compares choices most
        // of the time — approaching classic two-choice.
        let mm1 = crate::expected_time(0.9, 1); // 10
        let two = crate::expected_time(0.9, 2); // ~2.6
        let loose = ThresholdModel::new(0.9, 2, 60, 30).expected_time();
        let tight = ThresholdModel::new(0.9, 2, 60, 58).expected_time();
        assert!(
            (loose - mm1).abs() / mm1 < 0.15,
            "loose threshold {loose} should sit at M/M/1 {mm1}"
        );
        assert!(
            tight > two * 0.9 && tight < mm1 * 0.6,
            "tight threshold {tight} should sit in the two-choice class (two {two}, mm1 {mm1})"
        );
    }

    #[test]
    fn matches_discrete_threshold_simulation() {
        // Cross-check against the finite-n simulation with the same
        // threshold policy (sim queues are unbounded; c is set high
        // enough that the bound is never felt).
        let m = ThresholdModel::new(0.85, 2, 40, 36);
        let model_time = m.expected_time();
        let sim = crate::SupermarketSim::new(300, 0.85);
        let out = sim.run(
            crate::ChoicePolicy {
                choices: 2,
                threshold: Some(4),
                memory: false,
            },
            1_500.0,
            77,
        );
        let rel = (out.mean_time_in_system - model_time).abs() / model_time;
        assert!(
            rel < 0.2,
            "sim {} vs model {model_time}",
            out.mean_time_in_system
        );
    }

    #[test]
    #[should_panic(expected = "need 1 <= threshold < capacity")]
    fn threshold_bounds_checked() {
        let _ = ThresholdModel::new(0.9, 2, 10, 10);
    }
}
