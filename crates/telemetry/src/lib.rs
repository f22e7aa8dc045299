//! Telemetry for the ERT simulator: a typed structured-event stream
//! with pluggable sinks, a metric registry, and a periodic time-series
//! sampler — one observability layer shared by every run.
//!
//! The center is [`Telemetry`], which a simulation owns and drives:
//!
//! - [`Telemetry::emit`] records a [`TelemetryEvent`] lazily: the
//!   closure building the event runs only when telemetry is enabled, so
//!   the disabled path is a single branch (`disabled_runs_no_closures`
//!   pins it). Enabled, each event goes to every attached [`EventSink`]
//!   as a JSONL record and then — when a trace capacity is set — into
//!   the bounded trace ring, typed. The ring formats nothing until
//!   [`Telemetry::render_trace`] writes it out through the event's
//!   `Display` form.
//! - [`Telemetry::counter_add`] / [`gauge_set`](Telemetry::gauge_set) /
//!   [`observe`](Telemetry::observe) feed the [`Registry`] of named
//!   counters, gauges, and time-bucketed histograms.
//! - [`Telemetry::record_snapshot`] retains periodic [`Snapshot`] rows
//!   (driven by the sim clock at a configurable Δt) and streams them to
//!   the sinks alongside the events.
//!
//! The JSONL stream is self-describing: every line is an object with a
//! `kind` of `"event"`, `"snapshot"`, or `"report"`.
//!
//! ```
//! use ert_sim::SimTime;
//! use ert_telemetry::{MemorySink, Telemetry, TelemetryEvent};
//!
//! let sink = MemorySink::new();
//! let lines = sink.handle();
//! let mut tel = Telemetry::disabled();
//! tel.add_sink(Box::new(sink));
//! tel.emit(SimTime::from_micros(5), || TelemetryEvent::AdaptTick { round: 1 });
//! tel.flush();
//! assert_eq!(
//!     lines.lock().unwrap()[0],
//!     r#"{"kind":"event","at":5,"seq":0,"event":{"AdaptTick":{"round":1}}}"#
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod registry;
mod sample;
mod sink;

pub use event::TelemetryEvent;
pub use registry::{Bucket, Registry, TimeHistogram, DEFAULT_BUCKET_MICROS};
pub use sample::Snapshot;
pub use sink::{EventSink, JsonlSink, MemorySink};

use std::collections::VecDeque;
use std::fmt::Write as _;

use ert_sim::SimTime;
use serde::Serialize;

/// The per-run telemetry pipeline: event stream, metric registry,
/// snapshot series, and the trace ring of typed events.
pub struct Telemetry {
    /// True when any recording destination exists; the only branch on
    /// the disabled fast path.
    enabled: bool,
    events_emitted: u64,
    sinks: Vec<Box<dyn EventSink>>,
    /// Most events the trace ring retains (0: no ring).
    ring_capacity: usize,
    /// The last `ring_capacity` events, oldest first.
    trace: VecDeque<(SimTime, TelemetryEvent)>,
    registry: Registry,
    snapshots: Vec<Snapshot>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("events_emitted", &self.events_emitted)
            .field("sinks", &self.sinks.len())
            .field("trace_len", &self.trace.len())
            .field("snapshots", &self.snapshots.len())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// Telemetry with no destinations: every recording call is a single
    /// branch.
    pub fn disabled() -> Telemetry {
        Telemetry::with_trace_capacity(0)
    }

    /// Telemetry whose trace ring retains the last `capacity` events
    /// (zero disables the ring; sinks can still be attached).
    pub fn with_trace_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            enabled: capacity > 0,
            events_emitted: 0,
            sinks: Vec::new(),
            ring_capacity: capacity,
            trace: VecDeque::new(),
            registry: Registry::new(),
            snapshots: Vec::new(),
        }
    }

    /// Attaches a sink; every subsequent event and snapshot reaches it.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
        self.enabled = true;
    }

    /// Whether recording calls do any work.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a structured event. The closure runs only when telemetry
    /// is enabled — keep event construction inside it.
    #[inline]
    pub fn emit(&mut self, at: SimTime, event: impl FnOnce() -> TelemetryEvent) {
        if !self.enabled {
            return;
        }
        self.emit_enabled(at, event());
    }

    /// The enabled path, out of line so `emit` inlines to one branch.
    fn emit_enabled(&mut self, at: SimTime, event: TelemetryEvent) {
        let seq = self.events_emitted;
        self.events_emitted += 1;
        if !self.sinks.is_empty() {
            let mut line = String::with_capacity(96);
            line.push_str("{\"kind\":\"event\",\"at\":");
            line.push_str(&at.as_micros().to_string());
            line.push_str(",\"seq\":");
            line.push_str(&seq.to_string());
            line.push_str(",\"event\":");
            event.serialize_json(&mut line);
            line.push('}');
            for sink in &mut self.sinks {
                sink.record(&line);
            }
        }
        if self.ring_capacity > 0 {
            if self.trace.len() == self.ring_capacity {
                self.trace.pop_front();
            }
            self.trace.push_back((at, event));
        }
    }

    /// Adds to a named counter (no-op when disabled).
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        self.registry.counter_add(name, delta);
    }

    /// Sets a named gauge; the closure runs only when enabled.
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, value: impl FnOnce() -> f64) {
        if !self.enabled {
            return;
        }
        let v = value();
        self.registry.gauge_set(name, v);
    }

    /// Records into a named time-bucketed histogram; the closure runs
    /// only when enabled.
    #[inline]
    pub fn observe(&mut self, name: &'static str, at: SimTime, value: impl FnOnce() -> f64) {
        if !self.enabled {
            return;
        }
        let v = value();
        self.registry.observe(name, at.as_micros(), v);
    }

    /// Retains a periodic snapshot and streams it to the sinks. Not
    /// gated on `enabled`: the sampler only runs when a sample interval
    /// was configured, and the retained series is its product even with
    /// no sinks attached.
    pub fn record_snapshot(&mut self, snapshot: Snapshot) {
        if !self.sinks.is_empty() {
            let mut line = String::with_capacity(256);
            line.push_str("{\"kind\":\"snapshot\",\"snapshot\":");
            snapshot.serialize_json(&mut line);
            line.push('}');
            for sink in &mut self.sinks {
                sink.record(&line);
            }
        }
        self.snapshots.push(snapshot);
    }

    /// Writes the end-of-run report record: the caller's report plus
    /// this run's metric registry, as one `{"kind":"report",...}` line.
    pub fn record_report<T: Serialize>(&mut self, report: &T) {
        if self.sinks.is_empty() {
            return;
        }
        let mut line = String::with_capacity(512);
        line.push_str("{\"kind\":\"report\",\"report\":");
        report.serialize_json(&mut line);
        line.push_str(",\"registry\":");
        self.registry.serialize_json(&mut line);
        line.push('}');
        for sink in &mut self.sinks {
            sink.record(&line);
        }
    }

    /// Flushes every sink (call at end of run).
    pub fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }

    /// The retained snapshot series, in time order.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The trace ring: the last events emitted (at most the trace
    /// capacity), oldest first.
    pub fn trace(&self) -> &VecDeque<(SimTime, TelemetryEvent)> {
        &self.trace
    }

    /// Renders the trace ring, one `[{at}] {event}` line per entry.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for (at, event) in &self.trace {
            let _ = writeln!(out, "[{at}] {event}");
        }
        out
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Structured events recorded so far (independent of sink count).
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(q: u64) -> TelemetryEvent {
        TelemetryEvent::LookupHop { q, from: 1, to: 2 }
    }

    #[test]
    fn telemetry_is_send_for_the_parallel_fan_out() {
        // Instrumented runs execute on ert-par worker threads; the
        // pipeline (and thus every boxed sink, via `EventSink: Send`)
        // must cross thread boundaries.
        fn assert_send<T: Send>() {}
        assert_send::<Telemetry>();
        assert_send::<Box<dyn EventSink>>();
    }

    #[test]
    fn disabled_runs_no_closures() {
        let mut tel = Telemetry::disabled();
        tel.emit(SimTime::ZERO, || panic!("closure must not run"));
        tel.gauge_set("g", || panic!("closure must not run"));
        tel.observe("h", SimTime::ZERO, || panic!("closure must not run"));
        assert_eq!(tel.events_emitted(), 0);
        assert!(tel.registry().is_empty());
    }

    #[test]
    fn events_reach_every_sink_with_monotone_seq() {
        let a = MemorySink::new();
        let b = MemorySink::new();
        let (ha, hb) = (a.handle(), b.handle());
        let mut tel = Telemetry::disabled();
        tel.add_sink(Box::new(a));
        tel.add_sink(Box::new(b));
        tel.emit(SimTime::from_micros(10), || hop(0));
        tel.emit(SimTime::from_micros(20), || hop(1));
        let lines = ha.lock().unwrap().clone();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"), "{}", lines[0]);
        assert!(lines[1].contains("\"seq\":1"), "{}", lines[1]);
        assert_eq!(lines, *hb.lock().unwrap());
    }

    #[test]
    fn disabled_ring_runs_no_closure_and_keeps_nothing() {
        let mut tel = Telemetry::with_trace_capacity(0);
        tel.emit(SimTime::ZERO, || panic!("closure must not run"));
        assert!(!tel.is_enabled());
        assert_eq!(tel.events_emitted(), 0);
        // A sink turns emission on, but a zero-capacity ring stays empty.
        tel.add_sink(Box::new(MemorySink::new()));
        tel.emit(SimTime::ZERO, || hop(0));
        assert_eq!(tel.events_emitted(), 1);
        assert!(tel.trace().is_empty());
        assert_eq!(tel.render_trace(), "");
    }

    #[test]
    fn trace_ring_evicts_oldest() {
        let mut tel = Telemetry::with_trace_capacity(3);
        for q in 0..5u64 {
            tel.emit(SimTime::from_micros(q), || hop(q));
        }
        assert_eq!(tel.events_emitted(), 5);
        let kept: Vec<_> = tel
            .trace()
            .iter()
            .map(|(at, e)| (at.as_micros(), e))
            .collect();
        assert_eq!(kept, [(2, &hop(2)), (3, &hop(3)), (4, &hop(4))]);
    }

    #[test]
    fn trace_render_carries_timestamps_and_display_form() {
        let mut tel = Telemetry::with_trace_capacity(4);
        tel.emit(SimTime::from_secs_f64(1.5), || hop(42));
        tel.emit(SimTime::from_micros(1_500_003), || hop(43));
        assert_eq!(
            tel.render_trace(),
            "[1.500000s] q42 forward 1 -> 2\n[1.500003s] q43 forward 1 -> 2\n"
        );
    }

    fn zeroed_snapshot(at: SimTime) -> Snapshot {
        Snapshot {
            at,
            lookups_in_flight: 0,
            lookups_completed: 0,
            lookups_dropped: 0,
            queue_depth_total: 0,
            queue_depth_max: 0,
            congestion_p50: 0.0,
            congestion_p99: 0.0,
            congestion_max: 0.0,
            utilization_mean: 0.0,
            indegree_min: 0,
            indegree_mean: 0.0,
            indegree_max: 0,
            outdegree_min: 0,
            outdegree_mean: 0.0,
            outdegree_max: 0,
            alive_nodes: 0,
            alive_hosts: 0,
        }
    }

    #[test]
    fn snapshots_stream_and_retain() {
        let sink = MemorySink::new();
        let lines = sink.handle();
        let mut tel = Telemetry::disabled();
        tel.add_sink(Box::new(sink));
        tel.record_snapshot(zeroed_snapshot(SimTime::from_micros(7)));
        assert_eq!(tel.snapshots().len(), 1);
        let line = &lines.lock().unwrap()[0];
        assert!(
            line.starts_with("{\"kind\":\"snapshot\",\"snapshot\":{\"at\":7,"),
            "{line}"
        );
    }

    #[test]
    fn report_record_embeds_registry() {
        let sink = MemorySink::new();
        let lines = sink.handle();
        let mut tel = Telemetry::disabled();
        tel.add_sink(Box::new(sink));
        tel.counter_add("x", 2);
        tel.record_report(&42u64);
        let line = lines.lock().unwrap().pop().unwrap();
        assert_eq!(
            line,
            "{\"kind\":\"report\",\"report\":42,\
             \"registry\":{\"counters\":{\"x\":2},\"gauges\":{},\"histograms\":{}}}"
        );
    }
}
