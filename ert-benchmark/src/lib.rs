//! `ert-benchmark`: the repo's benchmark.
//!
//! One command generates a named workload from a seed, builds the
//! runtime it drives, runs it, checks the outputs, and prints every
//! metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path ert-benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <u64> [--seconds 15] [--trace 0|1] [--quick] [--out <file>]
//! cargo run --release --manifest-path ert-benchmark/Cargo.toml -- compare <a> <b>
//! ```
//!
//! Everything is measured **from outside**, by timing calls into the
//! measured crates' public functions on one thread; no source of a
//! measured crate changes and none learns a new knob. See `README.md`
//! in this directory for the workload, metric and "which layer moves
//! what where" tables.
//!
//! * [`workload`] — the five named workloads and their seed-derived
//!   inputs;
//! * [`harness`] — the untraced pass (end-to-end metrics) and the
//!   traced pass (per-layer metrics, spans, `trace.json`);
//! * [`kernels`] — the layer probes;
//! * [`metrics`] — names, units, directions and bounds;
//! * [`report`] — the result record and its JSON;
//! * [`compare`] — parent-against-change judgement;
//! * [`calibrate`] — calibrated seconds: the reference kernel that
//!   divides the shared box's speed drift out of every host time;
//! * [`spans`], [`stats`] — the clock and span log, order statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod compare;
pub mod harness;
pub mod kernels;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
