//! Statistics toolkit for reporting simulation metrics.
//!
//! The paper reports almost everything as a *99th percentile across
//! nodes* (congestion, share) or as *average / 1st / 99th percentiles*
//! (lookup time, degrees). [`Samples`] collects raw observations and
//! answers those queries exactly; [`Histogram`] counts integer-valued
//! observations (used for the Fig. 6 indegree census). [`Summary`], the
//! digest [`Samples::summary`] returns, lives in `ert-obs` and is
//! re-exported here.

use std::collections::BTreeMap;

pub use ert_obs::Summary;

/// A collector of `f64` observations supporting percentile queries.
///
/// Percentile queries are non-mutating and stateless: each query sorts
/// a scratch copy of the observations (O(n log n)). Callers needing
/// several quantiles at once should use [`Samples::summary`], which
/// sorts once and reads every rank from the same scratch copy. Plain
/// data with no interior mutability — `Samples` values live inside
/// per-shard state in the sharded core, so the type must stay free of
/// shared-state cells (lint discipline D10).
///
/// ```
/// use ert_sim::stats::Samples;
/// let mut s = Samples::new();
/// for v in 1..=100 {
///     s.push(v as f64);
/// }
/// assert_eq!(s.percentile(0.50), 50.0);
/// assert_eq!(s.percentile(0.99), 99.0);
/// assert_eq!(s.mean(), 50.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — a NaN observation would poison every
    /// percentile query.
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN observation");
        self.values.push(value);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Largest observation, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0)
    }

    /// The observations sorted ascending (push order untouched).
    fn sorted_copy(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        #[expect(
            clippy::expect_used,
            reason = "`push` is the only writer of `values` and asserts the observation is not NaN"
        )]
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        sorted
    }

    /// Nearest-rank index for quantile `p` over `len` observations.
    fn rank(p: f64, len: usize) -> usize {
        ((p * len as f64).ceil() as usize).max(1) - 1
    }

    /// The `p`-quantile (`0.0 ..= 1.0`) using the nearest-rank method,
    /// or 0.0 when empty. Non-mutating; sorts a scratch copy, so each
    /// query is O(n log n) — batch quantile reads through
    /// [`Samples::summary`] when more than one is needed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile out of range: {p}");
        if self.values.is_empty() {
            return 0.0;
        }
        self.sorted_copy()[Self::rank(p, self.values.len())]
    }

    /// Mean / 1st / 50th / 99th percentile digest. Sorts once and
    /// reads every rank from the same scratch copy.
    pub fn summary(&self) -> Summary {
        if self.values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                p01: 0.0,
                p50: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let sorted = self.sorted_copy();
        let len = sorted.len();
        Summary {
            count: len,
            mean: self.mean(),
            p01: sorted[Self::rank(0.01, len)],
            p50: sorted[Self::rank(0.50, len)],
            p99: sorted[Self::rank(0.99, len)],
            max: self.max(),
        }
    }

    /// Iterates over the raw observations in push order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Samples::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

/// A time-weighted gauge: tracks a piecewise-constant quantity (queue
/// length, degree, utilization) and yields its time-weighted average.
///
/// ```
/// use ert_sim::stats::TimeWeighted;
/// use ert_sim::SimTime;
/// let mut g = TimeWeighted::new();
/// g.set(SimTime::from_secs_f64(0.0), 2.0);
/// g.set(SimTime::from_secs_f64(1.0), 4.0); // value was 2 for 1 s
/// let avg = g.mean_until(SimTime::from_secs_f64(3.0)); // then 4 for 2 s
/// assert!((avg - (2.0 + 8.0) / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeWeighted {
    started: Option<crate::SimTime>,
    last_change: crate::SimTime,
    current: f64,
    weighted_sum: f64,
    max: f64,
}

impl TimeWeighted {
    /// Creates an empty gauge.
    pub fn new() -> Self {
        TimeWeighted::default()
    }

    /// Records that the tracked quantity becomes `value` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous change or `value` is NaN.
    pub fn set(&mut self, now: crate::SimTime, value: f64) {
        assert!(!value.is_nan(), "NaN observation");
        match self.started {
            None => {
                self.started = Some(now);
            }
            Some(_) => {
                assert!(now >= self.last_change, "time went backwards");
                let span = (now - self.last_change).as_secs_f64();
                self.weighted_sum += self.current * span;
            }
        }
        self.last_change = now;
        self.current = value;
        self.max = self.max.max(value);
    }

    /// The current value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The largest value ever set.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The instant of the most recent change (the epoch before any).
    pub fn last_change_time(&self) -> crate::SimTime {
        self.last_change
    }

    /// Time-weighted mean from the first change until `until` (0.0 when
    /// nothing was recorded or no time elapsed).
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last change.
    pub fn mean_until(&self, until: crate::SimTime) -> f64 {
        let Some(started) = self.started else {
            return 0.0;
        };
        assert!(until >= self.last_change, "time went backwards");
        let total = (until - started).as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        let tail = (until - self.last_change).as_secs_f64();
        (self.weighted_sum + self.current * tail) / total
    }
}

/// A histogram over integer-valued observations.
///
/// ```
/// use ert_sim::stats::Histogram;
/// let mut h = Histogram::new();
/// h.record(5);
/// h.record(5);
/// h.record(14);
/// assert_eq!(h.count(5), 2);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of observations equal to `value`.
    pub fn count(&self, value: u64) -> u64 {
        self.buckets.get(&value).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterates `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&v, &c)| (v, c))
    }

    /// Fraction of observations with `value >= threshold`.
    pub fn fraction_at_least(&self, threshold: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n: u64 = self.buckets.range(threshold..).map(|(_, &c)| c).sum();
        n as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let s: Samples = (1..=10).map(|v| v as f64).collect();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(0.1), 1.0);
        assert_eq!(s.percentile(0.11), 2.0);
        assert_eq!(s.percentile(1.0), 10.0);
    }

    #[test]
    fn empty_samples_are_zero() {
        let s = Samples::new();
        assert_eq!(s.percentile(0.99), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.is_empty());
        let d = s.summary();
        assert_eq!(d.count, 0);
    }

    #[test]
    fn summary_fields_consistent() {
        let s: Samples = (1..=100).map(|v| v as f64).collect();
        let d = s.summary();
        assert_eq!(d.count, 100);
        assert_eq!(d.p01, 1.0);
        assert_eq!(d.p99, 99.0);
        assert_eq!(d.max, 100.0);
        assert!(d.to_string().contains("n=100"));
    }

    #[test]
    fn push_after_percentile_stays_correct() {
        let mut s = Samples::new();
        s.push(5.0);
        assert_eq!(s.percentile(0.5), 5.0);
        s.push(1.0);
        assert_eq!(s.percentile(0.5), 1.0);
    }

    #[test]
    fn percentile_queries_do_not_reorder_observations() {
        // Queries sort a *scratch copy*, never the raw values: push
        // order is observable through `iter` and must survive a
        // percentile call.
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.percentile(0.5), 2.0);
        assert_eq!(s.percentile(0.5), 2.0); // repeat query, same answer
        let order: Vec<f64> = s.iter().collect();
        assert_eq!(order, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn summary_matches_individual_percentile_queries() {
        // `summary` sorts once and reads three ranks; the answers must
        // equal the one-at-a-time queries exactly.
        let mut s = Samples::new();
        let mut x = 11u64;
        for _ in 0..257 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.push((x % 1000) as f64 / 7.0);
        }
        let d = s.summary();
        assert_eq!(d.p01, s.percentile(0.01));
        assert_eq!(d.p50, s.percentile(0.50));
        assert_eq!(d.p99, s.percentile(0.99));
        assert_eq!(d.mean, s.mean());
        assert_eq!(d.max, s.max());
    }

    #[test]
    fn time_weighted_mean_and_max() {
        use crate::SimTime;
        let mut g = TimeWeighted::new();
        assert_eq!(g.mean_until(SimTime::from_secs_f64(5.0)), 0.0);
        g.set(SimTime::from_secs_f64(1.0), 10.0);
        g.set(SimTime::from_secs_f64(3.0), 0.0);
        // 10 for 2 s, 0 for 2 s.
        let avg = g.mean_until(SimTime::from_secs_f64(5.0));
        assert!((avg - 5.0).abs() < 1e-12, "{avg}");
        assert_eq!(g.max(), 10.0);
        assert_eq!(g.current(), 0.0);
    }

    #[test]
    fn time_weighted_zero_span_is_zero() {
        use crate::SimTime;
        let mut g = TimeWeighted::new();
        g.set(SimTime::from_secs_f64(2.0), 7.0);
        assert_eq!(g.mean_until(SimTime::from_secs_f64(2.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_rejects_backwards_time() {
        use crate::SimTime;
        let mut g = TimeWeighted::new();
        g.set(SimTime::from_secs_f64(2.0), 1.0);
        g.set(SimTime::from_secs_f64(1.0), 1.0);
    }

    #[test]
    fn histogram_counts_and_tail() {
        let mut h = Histogram::new();
        for v in [5, 5, 5, 14, 14, 22] {
            h.record(v);
        }
        assert_eq!(h.count(5), 3);
        assert_eq!(h.count(9), 0);
        assert_eq!(h.total(), 6);
        assert!((h.fraction_at_least(14) - 0.5).abs() < 1e-12);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(5, 3), (14, 2), (22, 1)]);
    }

    #[test]
    #[should_panic(expected = "NaN observation")]
    fn nan_rejected() {
        Samples::new().push(f64::NAN);
    }
}
