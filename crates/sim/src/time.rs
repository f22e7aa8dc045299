//! Simulated time types.
//!
//! Simulated time is measured in integer microseconds from the start of
//! the simulation. Using integers (rather than `f64` seconds) keeps event
//! ordering exact and hashable, which matters for reproducibility.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::Serialize;

const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant in simulated time, in microseconds since the simulation
/// epoch.
///
/// ```
/// use ert_sim::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// ```
/// use ert_sim::SimDuration;
/// assert_eq!(SimDuration::from_secs_f64(0.2).as_micros(), 200_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole microseconds since the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from (possibly fractional) seconds since the
    /// epoch, rounding to the nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span from (possibly fractional) seconds, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Whole microseconds in this span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards: {self:?} - {rhs:?}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_through_seconds() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_micros(), 1_250_000);
        assert_eq!(t.as_secs_f64(), 1.25);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs_f64(0.2);
        let b = SimDuration::from_secs_f64(0.3);
        assert_eq!((a + b).as_secs_f64(), 0.5);
        let t = SimTime::ZERO + a + b;
        assert_eq!(t - (SimTime::ZERO + a), b);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_micros(), 10);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimTime::MAX > SimTime::from_secs_f64(1e9));
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_secs_f64(0.5).to_string(), "0.500000s");
        assert_eq!(SimDuration::from_micros(1).to_string(), "0.000001s");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
