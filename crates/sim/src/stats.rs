//! Statistics toolkit for reporting simulation metrics.
//!
//! The paper reports almost everything as a *99th percentile across
//! nodes* (congestion, share) or as *average / 1st / 99th percentiles*
//! (lookup time, degrees). [`Samples`] collects raw observations and
//! answers those queries; [`Collector`] switches between `Samples` and
//! the O(1)-memory [`StreamSummary`] sketch (the `--stream-stats`
//! backend); [`Histogram`] counts integer-valued observations (used for
//! the Fig. 6 indegree census).
//!
//! The shared query interface is [`ert_obs::Digest`], which `Samples`,
//! `Histogram`, [`StreamSummary`], and [`Summary`] all implement;
//! [`Summary`] itself lives in `ert-obs` and is re-exported here.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

pub use ert_obs::{Digest, Record, StreamSummary, Summary};

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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

impl Digest for Samples {
    fn count(&self) -> u64 {
        self.values.len() as u64
    }

    fn mean(&self) -> f64 {
        Samples::mean(self)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.percentile(p)
    }

    fn max(&self) -> f64 {
        Samples::max(self)
    }

    fn summarize(&self) -> Summary {
        self.summary()
    }
}

impl Record for Samples {
    fn observe(&mut self, value: f64) {
        self.push(value);
    }
}

/// A metric collector that is either exact ([`Samples`], retains every
/// observation) or streaming ([`StreamSummary`], O(1) memory per
/// metric) — the switch behind the `--stream-stats` CLI flag.
///
/// Both arms answer the same queries through [`Digest`]; in exact mode
/// the answers are bit-identical to the pre-`Collector` code, which is
/// what keeps the pinned reports in `tests/parallel_determinism.rs`
/// byte-stable.
///
/// ```
/// use ert_sim::stats::Collector;
/// let mut c = Collector::for_mode(true); // streaming
/// for v in 1..=1000 {
///     c.push(v as f64);
/// }
/// assert_eq!(c.len(), 1000);
/// assert_eq!(c.mean(), 500.5);
/// ```
// The sketch variant is ~440 bytes inline vs the exact arm's ~56, but
// a `Collector` lives in two long-lived metric slots per network — not
// in per-item arrays — and the sketch's whole point is a fixed
// heap-free footprint.
#[expect(
    clippy::large_enum_variant,
    reason = "boxing the sketch would buy nothing and put a pointer chase on every hot-loop observe"
)]
#[derive(Debug, Clone)]
pub enum Collector {
    /// Retains every observation; exact nearest-rank percentiles.
    Exact(Samples),
    /// Fixed-size P² sketch; approximate p01/p50/p99, exact
    /// count/mean/max.
    Stream(StreamSummary),
}

impl Default for Collector {
    fn default() -> Self {
        Collector::Exact(Samples::new())
    }
}

impl Collector {
    /// An exact collector (the default).
    pub fn exact() -> Collector {
        Collector::default()
    }

    /// A streaming collector.
    pub fn stream() -> Collector {
        Collector::Stream(StreamSummary::new())
    }

    /// Streaming when `stream_stats` is set, exact otherwise.
    pub fn for_mode(stream_stats: bool) -> Collector {
        if stream_stats {
            Collector::stream()
        } else {
            Collector::exact()
        }
    }

    /// Whether this collector streams (O(1) memory).
    pub fn is_streaming(&self) -> bool {
        matches!(self, Collector::Stream(_))
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn push(&mut self, value: f64) {
        match self {
            Collector::Exact(s) => s.push(value),
            Collector::Stream(s) => s.observe(value),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        match self {
            Collector::Exact(s) => s.len(),
            Collector::Stream(s) => s.len(),
        }
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arithmetic mean, or 0.0 when empty (exact in both modes).
    pub fn mean(&self) -> f64 {
        self.digest().mean()
    }

    /// Largest observation clamped to ≥ 0.0 (exact in both modes).
    pub fn max(&self) -> f64 {
        self.digest().max()
    }

    /// The `p`-quantile: exact nearest-rank in [`Collector::Exact`]
    /// mode, sketch estimate in [`Collector::Stream`] mode.
    pub fn percentile(&self, p: f64) -> f64 {
        self.digest().quantile(p)
    }

    /// Mean / percentiles / max digest.
    pub fn summary(&self) -> Summary {
        self.digest().summarize()
    }

    /// The query interface common to both arms.
    pub fn digest(&self) -> &dyn Digest {
        match self {
            Collector::Exact(s) => s,
            Collector::Stream(s) => s,
        }
    }
}

impl Record for Collector {
    fn observe(&mut self, value: f64) {
        self.push(value);
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
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

impl Digest for Histogram {
    fn count(&self) -> u64 {
        self.total
    }

    fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .buckets
            .iter()
            .map(|(&v, &c)| v as f64 * c as f64)
            .sum();
        sum / self.total as f64
    }

    /// Nearest-rank quantile over the bucketed counts.
    #[expect(
        clippy::expect_used,
        reason = "past the `total == 0` return the buckets are nonempty, and the loop returns first anyway: counts sum to `total` >= rank"
    )]
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile out of range: {p}");
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&value, &count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return value as f64;
            }
        }
        // Unreachable: counts sum to `total` ≥ rank.
        *self.buckets.keys().next_back().expect("nonempty") as f64
    }

    fn max(&self) -> f64 {
        match self.buckets.keys().next_back() {
            Some(&v) => v as f64,
            None => 0.0,
        }
    }
}

impl Record for Histogram {
    /// Records an integer-valued observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not integral — the histogram
    /// buckets exact integer observations (degree censuses), and a
    /// silent round would hide a caller bug.
    fn observe(&mut self, value: f64) {
        assert!(
            value >= 0.0 && value.fract() == 0.0,
            "histogram observation must be a non-negative integer: {value}"
        );
        self.record(value as u64);
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
    fn collector_modes_agree_on_exact_fields() {
        let mut exact = Collector::exact();
        let mut stream = Collector::stream();
        assert!(!exact.is_streaming());
        assert!(stream.is_streaming());
        for v in (1..=500).map(|v| (v % 37) as f64) {
            exact.push(v);
            stream.push(v);
        }
        assert_eq!(exact.len(), stream.len());
        assert_eq!(exact.mean(), stream.mean());
        assert_eq!(exact.max(), stream.max());
        let (se, ss) = (exact.summary(), stream.summary());
        assert_eq!(se.count, ss.count);
        assert_eq!(se.mean, ss.mean);
        assert_eq!(se.max, ss.max);
        // Interior quantiles approximate: within a loose band here (the
        // testkit differential oracle pins the tight band).
        assert!((se.p50 - ss.p50).abs() <= 4.0, "{} vs {}", se.p50, ss.p50);
    }

    #[test]
    fn collector_default_is_exact_and_for_mode_switches() {
        assert!(!Collector::default().is_streaming());
        assert!(Collector::for_mode(true).is_streaming());
        assert!(!Collector::for_mode(false).is_streaming());
    }

    #[test]
    fn histogram_digest_matches_exact_queries() {
        let mut h = Histogram::new();
        let mut s = Samples::new();
        for v in [5u64, 5, 5, 14, 14, 22] {
            h.record(v);
            s.push(v as f64);
        }
        assert_eq!(Digest::count(&h), 6);
        assert_eq!(Digest::mean(&h), s.mean());
        assert_eq!(Digest::max(&h), 22.0);
        for p in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), s.percentile(p), "p={p}");
        }
        h.observe(7.0);
        assert_eq!(h.count(7), 1);
    }

    #[test]
    #[should_panic(expected = "non-negative integer")]
    fn histogram_rejects_fractional_observations() {
        Histogram::new().observe(1.5);
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
