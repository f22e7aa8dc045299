//! Pluggable destinations for serialized telemetry records.
//!
//! A sink receives each record as one JSON line (no trailing newline);
//! how it stores or ships the line is its business. The built-ins
//! cover the common cases: [`JsonlSink`] appends to a file for offline
//! analysis, [`MemorySink`] captures lines in memory for tests and
//! determinism checks (it hands out an [`Arc`] handle so the captured
//! lines stay readable after the sink — boxed inside a `Telemetry` — is
//! out of reach).

#![expect(
    clippy::disallowed_types,
    reason = "D10: the in-memory sink hands out Arc<Mutex<_>> read handles on purpose — captured lines must stay readable after the sink is boxed away inside a Telemetry"
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
