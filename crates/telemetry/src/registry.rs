//! Named counters, gauges, and time-bucketed histograms.
//!
//! The registry is plain data; the cheap-when-disabled discipline lives
//! in `Telemetry`, whose recording methods take closures and return
//! before evaluating them when telemetry is off (`Telemetry::emit`
//! does the same for events). Keys are `&'static str` at the call sites but
//! stored owned, so the registry serializes standalone.

use std::collections::BTreeMap;

use serde::Serialize;

/// Per-run metric registry, serialized into the final report record.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, TimeHistogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records `value` at sim-time `at_micros` into the named
    /// time-bucketed histogram, creating it with `DEFAULT_BUCKET_MICROS`
    /// on first use (pre-register with [`Registry::histogram`] for a
    /// different bucket width).
    pub fn observe(&mut self, name: &str, at_micros: u64, value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(at_micros, value);
        } else {
            let mut h = TimeHistogram::new(DEFAULT_BUCKET_MICROS);
            h.observe(at_micros, value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Pre-registers (or fetches) a histogram with an explicit bucket
    /// width in sim-microseconds.
    pub fn histogram(&mut self, name: &str, bucket_micros: u64) -> &mut TimeHistogram {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_string(), TimeHistogram::new(bucket_micros));
        }
        self.histograms.get_mut(name).expect("just inserted")
    }

    /// The named counter's value (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Read access to a histogram.
    pub fn get_histogram(&self, name: &str) -> Option<&TimeHistogram> {
        self.histograms.get(name)
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Default histogram bucket width: one sim-second.
pub const DEFAULT_BUCKET_MICROS: u64 = 1_000_000;

/// A histogram over sim-time buckets: per bucket, the count and sum of
/// observed values (enough to plot rates and running means without
/// retaining every sample).
#[derive(Debug, Clone, Serialize)]
pub struct TimeHistogram {
    bucket_micros: u64,
    buckets: BTreeMap<u64, Bucket>,
}

/// Aggregates for one time bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct Bucket {
    /// Observations in the bucket.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl TimeHistogram {
    /// A histogram with the given bucket width in sim-microseconds.
    pub fn new(bucket_micros: u64) -> TimeHistogram {
        TimeHistogram {
            bucket_micros: bucket_micros.max(1),
            buckets: BTreeMap::new(),
        }
    }

    /// Records one observation at `at_micros`.
    pub fn observe(&mut self, at_micros: u64, value: f64) {
        let bucket = self
            .buckets
            .entry(at_micros / self.bucket_micros)
            .or_default();
        bucket.count += 1;
        bucket.sum += value;
    }

    /// The bucket width in sim-microseconds.
    pub fn bucket_micros(&self) -> u64 {
        self.bucket_micros
    }

    /// Observations across all buckets.
    pub fn total_count(&self) -> u64 {
        self.buckets.values().map(|b| b.count).sum()
    }

    /// Iterates `(bucket_start_micros, stats)` in time order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Bucket)> + '_ {
        self.buckets
            .iter()
            .map(|(&idx, &b)| (idx * self.bucket_micros, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.counter_add("lookups", 1);
        r.counter_add("lookups", 2);
        assert_eq!(r.counter("lookups"), 3);
        assert_eq!(r.counter("never"), 0);
    }

    #[test]
    fn gauges_keep_latest() {
        let mut r = Registry::new();
        r.gauge_set("load", 1.5);
        r.gauge_set("load", 0.5);
        assert_eq!(r.gauge("load"), Some(0.5));
        assert_eq!(r.gauge("never"), None);
    }

    #[test]
    fn histogram_buckets_by_time() {
        let mut h = TimeHistogram::new(1_000_000);
        h.observe(100, 2.0);
        h.observe(900_000, 4.0);
        h.observe(1_500_000, 8.0);
        let buckets: Vec<(u64, Bucket)> = h.iter().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (0, Bucket { count: 2, sum: 6.0 }));
        assert_eq!(buckets[1], (1_000_000, Bucket { count: 1, sum: 8.0 }));
        assert_eq!(h.total_count(), 3);
    }

    #[test]
    fn registry_observe_uses_default_width() {
        let mut r = Registry::new();
        r.observe("queue", 2_500_000, 3.0);
        let h = r.get_histogram("queue").unwrap();
        assert_eq!(h.bucket_micros(), DEFAULT_BUCKET_MICROS);
        assert_eq!(h.total_count(), 1);
    }

    #[test]
    fn serializes_to_json_object() {
        let mut r = Registry::new();
        r.counter_add("a", 1);
        r.gauge_set("g", 2.0);
        let json = serde::json::to_string(&r);
        assert!(json.contains("\"counters\":{\"a\":1}"), "{json}");
        assert!(json.contains("\"gauges\":{\"g\":2.0}"), "{json}");
    }
}
