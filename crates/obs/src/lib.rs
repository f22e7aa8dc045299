//! Observability layer for the ERT reproduction.
//!
//! Three pieces, one crate, no dependency on the simulator (so every
//! layer above — `ert-sim`, `ert-network`, `ert-telemetry` — can build
//! on it without cycles):
//!
//! 1. **The report digest** ([`digest`]) — [`Summary`], the six-field
//!    count/mean/p01/p50/p99/max record every run report carries, with
//!    its pinned JSON field order.
//! 2. **Deterministic span IDs** ([`span`]) — the `(query id, hop
//!    index)` → span-ID scheme used by `ert-network`'s per-lookup causal
//!    tracing. IDs are pure arithmetic, so two runs of the same seed
//!    emit identical span trees.
//! 3. **Offline trace analysis** ([`json`], [`trace`], and the
//!    `trace-analyze` binary) — a minimal JSON reader (the vendored
//!    `serde` compat crate only *writes* JSON) plus the analyzer that
//!    reconstructs per-hop latency breakdowns from a captured telemetry
//!    JSONL stream and attributes p99 lookup latency to specific
//!    nodes/queues — the empirical counterpart of the Theorem 3.1/3.2
//!    envelopes the sanitizer asserts.
//!
//! See DESIGN.md § Observability for the span model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod json;
pub mod span;
pub mod trace;

pub use digest::Summary;
pub use json::Json;
pub use trace::TraceAnalysis;
