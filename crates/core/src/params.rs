//! Protocol parameters (Table 1 / Table 2 of the paper).

use ert_sim::SimDuration;

/// Tunable parameters of the ERT congestion-control protocol.
///
/// Defaults follow Table 2 of the paper where it specifies a value
/// (`γ_l = 1`, `μ = 1/2`, adaptation period 1 s, `α = d + 3` — supply
/// `alpha` via [`ErtParams::with_alpha_for_dim`]); `β` (the initial
/// indegree reservation fraction) is not given numerically in the paper
/// and defaults to `0.75`.
///
/// ```
/// use ert_core::ErtParams;
/// let p = ErtParams::default().with_alpha_for_dim(8);
/// assert_eq!(p.alpha, 11.0);
/// p.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErtParams {
    /// Indegree per unit of normalized capacity (`α`). The paper's
    /// default ties it to the Cycloid dimension: `α = d + 3`.
    pub alpha: f64,
    /// Fraction of the maximum indegree targeted at join time (`β`).
    pub beta: f64,
    /// Overload threshold (`γ_l`): a node is heavy when `l/c > γ_l`
    /// and light when `l/c < 1/γ_l`.
    pub gamma_l: f64,
    /// Adaptation step fraction (`μ`): `μ(l − c)` inlinks shed or grown
    /// per period.
    pub mu: f64,
    /// Period `T` between adaptation rounds.
    pub adaptation_period: SimDuration,
    /// Poll size `b` of the randomized forwarding policy.
    pub probe_width: usize,
    /// Number of ring (leaf) successors and predecessors kept as
    /// forwarding candidates.
    pub leaf_window: usize,
}

impl Default for ErtParams {
    fn default() -> Self {
        ErtParams {
            alpha: 11.0, // d + 3 at the paper's default dimension 8
            beta: 0.75,
            gamma_l: 1.0,
            mu: 0.5,
            adaptation_period: SimDuration::from_secs_f64(1.0),
            probe_width: 2,
            leaf_window: 4,
        }
    }
}

impl ErtParams {
    /// Sets `α = d + 3`, the paper's "indegree per normalized capacity"
    /// default for a Cycloid of dimension `d`.
    #[must_use]
    pub fn with_alpha_for_dim(mut self, dim: u8) -> Self {
        self.alpha = dim as f64 + 3.0;
        self
    }

    /// Checks parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint:
    /// `α > 0`, `0 < β <= 1`, `γ_l >= 1`, `0 < μ <= 1`, a positive
    /// adaptation period, `b >= 1`, and a positive leaf window.
    pub fn validate(&self) -> Result<(), InvalidParams> {
        fn bad(which: &'static str) -> Result<(), InvalidParams> {
            Err(InvalidParams { which })
        }
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return bad("alpha must be positive and finite");
        }
        if !(self.beta > 0.0 && self.beta <= 1.0) {
            return bad("beta must be in (0, 1]");
        }
        if !(self.gamma_l >= 1.0 && self.gamma_l.is_finite()) {
            return bad("gamma_l must be at least 1");
        }
        if !(self.mu > 0.0 && self.mu <= 1.0) {
            return bad("mu must be in (0, 1]");
        }
        if self.adaptation_period == SimDuration::ZERO {
            return bad("adaptation period must be positive");
        }
        if self.probe_width == 0 {
            return bad("probe width must be at least 1");
        }
        if self.leaf_window == 0 {
            return bad("leaf window must be at least 1");
        }
        Ok(())
    }
}

/// Error returned by [`ErtParams::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidParams {
    which: &'static str,
}

impl std::fmt::Display for InvalidParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid ERT parameters: {}", self.which)
    }
}

impl std::error::Error for InvalidParams {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        ErtParams::default().validate().unwrap();
    }

    #[test]
    fn alpha_follows_dimension() {
        assert_eq!(ErtParams::default().with_alpha_for_dim(6).alpha, 9.0);
        assert_eq!(ErtParams::default().with_alpha_for_dim(10).alpha, 13.0);
    }

    #[test]
    fn rejects_bad_values() {
        let base = ErtParams::default();
        for (p, msg) in [
            (ErtParams { alpha: 0.0, ..base }, "alpha"),
            (ErtParams { beta: 0.0, ..base }, "beta"),
            (ErtParams { beta: 1.5, ..base }, "beta"),
            (
                ErtParams {
                    gamma_l: 0.5,
                    ..base
                },
                "gamma_l",
            ),
            (ErtParams { mu: 0.0, ..base }, "mu"),
            (
                ErtParams {
                    adaptation_period: SimDuration::ZERO,
                    ..base
                },
                "period",
            ),
            (
                ErtParams {
                    probe_width: 0,
                    ..base
                },
                "probe",
            ),
            (
                ErtParams {
                    leaf_window: 0,
                    ..base
                },
                "leaf",
            ),
        ] {
            let err = p.validate().unwrap_err();
            assert!(err.to_string().contains(msg), "{err} should mention {msg}");
        }
    }
}
