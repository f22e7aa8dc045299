//! `trace-analyze` — reconstruct per-lookup span trees from a captured
//! telemetry JSONL stream and attribute p99 latency to nodes/queues.
//!
//! ```text
//! trace-analyze <trace.jsonl> [--top N]
//! ```
//!
//! The input is the file a `--telemetry <path>` experiment run writes
//! (see README § Telemetry capture). The output is a plain-text report:
//! stream totals, the per-hop queueing / service / transit breakdown,
//! and the nodes that absorbed the time of the slowest (≥ p99) lookups.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use ert_obs::TraceAnalysis;

fn usage() -> ExitCode {
    eprintln!("usage: trace-analyze <trace.jsonl> [--top N]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<&str> = None;
    let mut top = 5usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--top" => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                top = v;
                i += 2;
            }
            "--help" | "-h" => {
                return usage();
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other);
                i += 1;
            }
            _ => return usage(),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("trace-analyze: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let analysis = TraceAnalysis::from_lines(text.lines());
    if analysis.lookups().is_empty() {
        eprintln!(
            "trace-analyze: no lookup events in {path} (was the run captured with --telemetry?)"
        );
        return ExitCode::FAILURE;
    }
    print!("{}", analysis.render(top));
    ExitCode::SUCCESS
}
