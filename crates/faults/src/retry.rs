//! Bounded retry with deterministic exponential backoff.

use ert_sim::SimDuration;
use serde::Serialize;

/// How a sender reacts when a forward attempt is lost to a fault
/// (message drop or partition block).
///
/// `max_attempts` counts *total* tries per hop, so the default of 1
/// means "no retries": the first loss fails the lookup, exactly the
/// behaviour paper runs had before faults existed. Setting
/// `max_attempts = k > 1` grants `k - 1` retries, the `i`-th of which
/// waits `base · factor^(i-1)` on top of the regular timeout penalty.
/// The backoff is a pure function of the attempt number — no jitter —
/// so retried runs stay bit-reproducible.
///
/// ```
/// use ert_faults::RetryPolicy;
/// use ert_sim::SimDuration;
/// let p = RetryPolicy::default();
/// assert!(!p.enabled());
/// let r = RetryPolicy::standard();
/// assert!(r.enabled());
/// assert_eq!(r.backoff(1), SimDuration::from_secs_f64(0.25));
/// assert_eq!(r.backoff(2), SimDuration::from_secs_f64(0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Total forward attempts per hop (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: SimDuration,
    /// Multiplier applied to the backoff on each further retry.
    pub factor: f64,
}

impl Default for RetryPolicy {
    /// Retries off: one attempt, no backoff. Paper runs use this.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: SimDuration::ZERO,
            factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A sensible on-switch for chaos runs: 4 attempts, 0.25 s base,
    /// doubling.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: SimDuration::from_secs_f64(0.25),
            factor: 2.0,
        }
    }

    /// Whether any retries are granted at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff to wait after the `failed`-th failed attempt
    /// (`failed >= 1`): `base · factor^(failed-1)`, rounded to the
    /// microsecond grid. Saturates instead of overflowing for absurd
    /// inputs.
    pub fn backoff(&self, failed: u32) -> SimDuration {
        if !self.enabled() || failed == 0 {
            return SimDuration::ZERO;
        }
        let scale = self.factor.powi(failed.saturating_sub(1).min(64) as i32);
        let micros = (self.base.as_micros() as f64 * scale).round();
        if micros.is_finite() && micros >= 0.0 {
            SimDuration::from_micros(micros.min(u64::MAX as f64) as u64)
        } else {
            SimDuration::ZERO
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint. A disabled
    /// policy (`max_attempts == 1`) is always valid regardless of the
    /// unused backoff fields; an enabled one needs a positive base and
    /// a finite factor ≥ 1.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("retry max_attempts must be >= 1 (1 = retries off)".into());
        }
        if self.enabled() {
            if self.base == SimDuration::ZERO {
                return Err("retry base backoff must be positive when retries are on".into());
            }
            if !(self.factor.is_finite() && self.factor >= 1.0) {
                return Err(format!(
                    "retry backoff factor must be finite and >= 1, got {}",
                    self.factor
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_valid() {
        let p = RetryPolicy::default();
        assert!(!p.enabled());
        p.validate().unwrap();
        assert_eq!(p.backoff(1), SimDuration::ZERO);
        assert_eq!(p.backoff(3), SimDuration::ZERO);
    }

    #[test]
    fn backoff_grows_geometrically() {
        let p = RetryPolicy {
            max_attempts: 5,
            base: SimDuration::from_secs_f64(0.1),
            factor: 3.0,
        };
        p.validate().unwrap();
        assert_eq!(p.backoff(1).as_micros(), 100_000);
        assert_eq!(p.backoff(2).as_micros(), 300_000);
        assert_eq!(p.backoff(3).as_micros(), 900_000);
        assert_eq!(p.backoff(0), SimDuration::ZERO);
    }

    #[test]
    fn backoff_is_deterministic() {
        let p = RetryPolicy::standard();
        for k in 1..6 {
            assert_eq!(p.backoff(k), p.backoff(k));
        }
    }

    #[test]
    fn rejects_zero_attempts() {
        let p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_enabled_with_zero_base() {
        let p = RetryPolicy {
            max_attempts: 3,
            base: SimDuration::ZERO,
            factor: 2.0,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_enabled_with_bad_factor() {
        for factor in [0.5, f64::NAN, f64::INFINITY] {
            let p = RetryPolicy {
                max_attempts: 3,
                base: SimDuration::from_secs_f64(0.1),
                factor,
            };
            assert!(p.validate().is_err(), "factor {factor} should be rejected");
        }
    }

    #[test]
    fn huge_attempt_counts_saturate() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base: SimDuration::from_secs_f64(1.0),
            factor: 10.0,
        };
        // Must not panic or overflow; the exponent is clamped.
        let d = p.backoff(u32::MAX);
        assert!(d.as_micros() > 0);
    }
}
