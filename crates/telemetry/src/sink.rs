//! Pluggable destinations for serialized telemetry records.
//!
//! A sink receives each record as one JSON line (no trailing newline);
//! how it stores or ships the line is its business. The built-ins
//! cover the common cases: [`JsonlSink`] appends to a file for offline
//! analysis, [`MemorySink`] / [`SpanSink`] capture lines in memory for
//! tests and determinism checks (both hand out an [`Arc`] handle so the
//! captured lines stay readable after the sink — boxed inside a
//! `Telemetry` — is out of reach).

#![expect(
    clippy::disallowed_types,
    reason = "D10: the in-memory sinks hand out Arc<Mutex<_>> read handles on purpose — captured lines must stay readable after the sink is boxed away inside a Telemetry"
)]

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A destination for serialized telemetry records.
///
/// `Send` so a `Telemetry` (and anything holding one, like a network)
/// can move across threads.
pub trait EventSink: Send {
    /// Accepts one serialized record (a JSON object, no newline).
    fn record(&mut self, line: &str);

    /// Flushes buffered records; called at end of run.
    fn flush(&mut self) {}
}

/// Appends records to a file, one JSON object per line (JSONL).
pub struct JsonlSink {
    writer: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl EventSink for JsonlSink {
    fn record(&mut self, line: &str) {
        // Telemetry must not abort a simulation: swallow write errors
        // (the flush at end of run surfaces a short write as a missing
        // tail, which is the JSONL convention for truncated logs).
        let _ = writeln!(self.writer, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Captures every record in memory, unbounded. For tests.
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink {
            lines: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle that stays readable after the sink is boxed away.
    pub fn handle(&self) -> Arc<Mutex<Vec<String>>> {
        Arc::clone(&self.lines)
    }
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for MemorySink {
    fn record(&mut self, line: &str) {
        self.lines
            .lock()
            .expect("no poisoned telemetry lock")
            .push(line.to_string());
    }
}

/// Captures only the records a lookup-trace tree is built from:
/// [`HopSpan`](crate::TelemetryEvent::HopSpan) spans plus the
/// `LookupStart` / `LookupComplete` lifecycle events that delimit each
/// tree. Everything else (link events, snapshots, reports) is dropped,
/// so a span stream of a large run stays proportional to hops served
/// rather than to total telemetry volume. The captured lines are valid
/// JSONL input for `ert-obs`'s `trace-analyze`.
pub struct SpanSink {
    lines: Arc<Mutex<Vec<String>>>,
}

/// The event tags a [`SpanSink`] retains, matched against the
/// serialized line (events are externally tagged, so the tag is the
/// first key of the `"event"` object).
const SPAN_TAGS: [&str; 3] = [
    "\"event\":{\"HopSpan\"",
    "\"event\":{\"LookupStart\"",
    "\"event\":{\"LookupComplete\"",
];

impl SpanSink {
    /// An empty span sink.
    pub fn new() -> SpanSink {
        SpanSink {
            lines: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A handle that stays readable after the sink is boxed away.
    pub fn handle(&self) -> Arc<Mutex<Vec<String>>> {
        Arc::clone(&self.lines)
    }
}

impl Default for SpanSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for SpanSink {
    fn record(&mut self, line: &str) {
        if SPAN_TAGS.iter().any(|tag| line.contains(tag)) {
            self.lines
                .lock()
                .expect("no poisoned telemetry lock")
                .push(line.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_captures_in_order() {
        let mut sink = MemorySink::new();
        let handle = sink.handle();
        sink.record("a");
        sink.record("b");
        assert_eq!(
            *handle.lock().unwrap(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn span_sink_keeps_only_trace_records() {
        let mut sink = SpanSink::new();
        let handle = sink.handle();
        let kept = [
            r#"{"kind":"event","at":0,"seq":0,"event":{"LookupStart":{"q":0,"source":1,"key":2}}}"#,
            r#"{"kind":"event","at":5,"seq":1,"event":{"HopSpan":{"q":0,"hop":0,"node":1,"span":1,"parent":0,"enqueued":0,"service_start":0,"service_end":5}}}"#,
            r#"{"kind":"event","at":9,"seq":3,"event":{"LookupComplete":{"q":0,"hops":1,"heavy":0}}}"#,
        ];
        let dropped = [
            r#"{"kind":"event","at":7,"seq":2,"event":{"LookupHop":{"q":0,"from":1,"to":2}}}"#,
            r#"{"kind":"snapshot","snapshot":{"at":8}}"#,
            r#"{"kind":"report","report":42}"#,
        ];
        for line in kept.iter().chain(dropped.iter()) {
            sink.record(line);
        }
        let got = handle.lock().unwrap().clone();
        assert_eq!(got, kept.map(String::from).to_vec());
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let path = std::env::temp_dir().join("ert_telemetry_sink_test.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.record(r#"{"kind":"event"}"#);
            sink.record(r#"{"kind":"snapshot"}"#);
            sink.flush();
        }
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "{\"kind\":\"event\"}\n{\"kind\":\"snapshot\"}\n");
        let _ = std::fs::remove_file(&path);
    }
}
