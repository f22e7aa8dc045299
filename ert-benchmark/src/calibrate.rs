//! Calibrated host time.
//!
//! The reference box is a shared 2-vCPU VM whose speed wanders by a
//! quarter to a half between faster and slower spells, each lasting
//! longer than a benchmark run. Raw wall time of one 20 s run therefore
//! moves by 10–20 % between runs of identical work, and repeating
//! inside the run does not help, because the whole run sits in one
//! spell.
//!
//! So the benchmark times a fixed reference kernel right before and
//! after every measured call and reports host times in **calibrated
//! seconds**: wall seconds divided by the kernel's slowdown against
//! its time on the reference box ([`REFERENCE_S`]). On repeated
//! identical work this cut the spread between 17 s windows of
//! throughput from 7–10 % to 1.5–5 % and of set-up time from 7–19 % to
//! 1–3 % (README, "Calibrated seconds"). A change that makes the
//! measured code faster moves calibrated time exactly as it moves wall
//! time; only the machine's own drift is divided out. The kernel uses
//! nothing but `std`, so no change to the repo's crates can move it.
//!
//! The kernel is an insert/remove walk over a 50 000-entry
//! `BTreeMap`: ordered-map traffic is what the measured runtimes
//! mostly do, and of the candidates tried (a register-only xorshift
//! loop, pointer chases through 8 MB and 32 MB, and their geometric
//! means with this one) it tracked the runtimes' slowdown best, alone.

use std::collections::BTreeMap;

use crate::spans::now;

/// Seconds the kernel takes on the reference box (long-run median).
pub const REFERENCE_S: f64 = 6.8e-3;

const STEPS: u32 = 40_000;
const KEYS: u64 = 100_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference kernel and the map it walks.
#[derive(Debug)]
pub struct Calibrator {
    map: BTreeMap<u64, u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Builds the kernel's working set: every second key present.
    pub fn new() -> Calibrator {
        Calibrator {
            map: (0..KEYS / 2).map(|i| (i * 2, i * 2)).collect(),
        }
    }

    /// Runs the kernel once and returns the machine's slowdown against
    /// the reference box right now (1.0 = reference speed, 1.25 = a
    /// quarter slower).
    ///
    /// Every call does the same work: it toggles the same key sequence
    /// in and out of the map, so two calls restore it.
    pub fn slowdown(&mut self) -> f64 {
        let started = now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..STEPS {
            let key = xorshift(&mut x) % KEYS;
            if self.map.remove(&key).is_none() {
                self.map.insert(key, key);
            }
        }
        started.elapsed().as_secs_f64() / REFERENCE_S
    }

    /// Runs `f` with the kernel timed right before and after it, and
    /// returns `f`'s result with the mean of the two slowdowns: divide
    /// wall seconds measured inside `f` by it to get calibrated
    /// seconds.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.slowdown();
        let out = f();
        let after = self.slowdown();
        (out, (before + after) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_second_call() {
        let mut cal = Calibrator::new();
        let fresh = cal.map.clone();
        assert!(cal.slowdown() > 0.0);
        assert_ne!(cal.map, fresh);
        assert!(cal.slowdown().is_finite());
        assert_eq!(cal.map, fresh, "two calls restore the working set");
    }

    #[test]
    fn around_returns_the_result_and_a_positive_factor() {
        let (value, slowdown) = Calibrator::new().around(|| 11);
        assert_eq!(value, 11);
        assert!(slowdown.is_finite() && slowdown > 0.0);
    }
}
