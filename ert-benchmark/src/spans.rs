//! The benchmark's clock and its in-memory span log.
//!
//! Every layer is measured from outside: the harness wraps each call
//! into a measured crate in [`Spans::time`], which always returns the
//! call's host seconds and, when recording is on (the traced pass),
//! also keeps a span — name, start, end, the span that caused it, and
//! the id of the world it belongs to. Spans stay in memory until the
//! run ends and are written out with the trace document.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// Reads the host clock. Wall-clock measurement is this package's
/// purpose; like `ert-bench` it is exempt from determinism rule D1
/// (clippy.toml), and this is the only place the clock is read.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// One recorded span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer boundary crossed, e.g. `network.run`.
    pub name: &'static str,
    /// Seed of the world the span belongs to; spans of one world share
    /// it.
    pub run: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
}

/// Total and self time of every span name.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration in seconds.
    pub total_s: f64,
    /// Summed duration minus the part child spans cover, in seconds.
    pub self_s: f64,
}

/// The span log.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    recording: bool,
    run: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A log that times calls but records nothing (the untraced pass).
    pub fn off() -> Spans {
        Spans::new(false)
    }

    /// A log that records a span per timed call (the traced pass).
    pub fn recording() -> Spans {
        Spans::new(true)
    }

    fn new(recording: bool) -> Spans {
        Spans {
            origin: now(),
            recording,
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the world id stamped on spans recorded from here on.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Runs `f`, returning its result and the host seconds it took;
    /// records a span named `name` around it when recording is on.
    /// Nested calls become child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let slot = self.recording.then(|| {
            self.spans.push(Span {
                name,
                run: self.run,
                parent: self.open.last().copied(),
                start_ns: 0,
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let started = now();
        let out = f(self);
        let ended = now();
        if let Some(slot) = slot {
            self.open.pop();
            self.spans[slot].start_ns = (started - self.origin).as_nanos() as u64;
            self.spans[slot].end_ns = (ended - self.origin).as_nanos() as u64;
        }
        (out, (ended - started).as_secs_f64())
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_s += duration as f64 / 1e9;
            entry.self_s += duration.saturating_sub(child) as f64 / 1e9;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_log_times_but_records_nothing() {
        let mut spans = Spans::off();
        let (value, secs) = spans.time("outer", |_| 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(spans.spans().is_empty());
    }

    #[test]
    fn nested_calls_become_child_spans_and_self_time_excludes_them() {
        let mut spans = Spans::recording();
        spans.set_run(42);
        spans.time("outer", |s| {
            s.time("inner", |_| {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
        });
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 2);
        assert_eq!((recorded[0].name, recorded[0].parent), ("outer", None));
        assert_eq!((recorded[1].name, recorded[1].parent), ("inner", Some(0)));
        assert!(recorded
            .iter()
            .all(|s| s.run == 42 && s.end_ns >= s.start_ns));
        assert!(recorded[0].start_ns <= recorded[1].start_ns);
        assert!(recorded[1].end_ns <= recorded[0].end_ns);
        let totals = spans.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(inner.self_s, inner.total_s);
    }
}
