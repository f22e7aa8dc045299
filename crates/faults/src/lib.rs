//! Deterministic perturbation for the ERT reproduction.
//!
//! The paper's congestion bounds (Theorems 3.1–3.3) assume two things:
//! a clean environment — Section 5.5's churn, where nodes leave
//! instantly and cleanly, every message is delivered, and a stale link
//! costs one fixed timeout — and honest nodes, whose capacity reports
//! stay within γ_c and who forward by Algorithm 4. This crate attacks
//! both with one schedule type:
//!
//! * [`FaultPlan`] — a seeded, serializable schedule of [`FaultEvent`]s
//!   that `ert-network` interprets alongside the churn schedule. The
//!   environment kinds are crash-stop departures, host degradation,
//!   probabilistic message loss, correlated partitions and heal events;
//!   the adversary kinds are capacity liars, Sybil swarms, query-flood
//!   hotspots, routing defectors and restore events;
//! * [`RetryPolicy`] — a bounded retry budget with deterministic
//!   exponential backoff, off by default so paper runs stay
//!   byte-identical;
//! * [`ChaosPlan`] — a generator of randomized-but-reproducible
//!   environment schedules for the workspace chaos harness;
//! * [`LinkFaults`] — a link-level interpreter of the loss and partition
//!   kinds for wire transports (`ert-node`'s in-memory switch):
//!   per-delivery drop/partition verdicts that consume zero randomness
//!   while no episode is active.
//!
//! Everything here is a pure function of its seed: no wall clock, no
//! ambient randomness, no platform-dependent ordering. Equal-timestamp
//! events carry an explicit taxonomy tie-break (see
//! [`FaultEvent::sort_key`]) so permuting a schedule never changes a
//! run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// D6 of DESIGN.md "Determinism & Safety Rules": fault-handling code never
// discards an outcome silently — handle it or bind a named `_reason`.
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

mod chaos;
mod plan;
mod retry;
mod wire;

pub use chaos::ChaosPlan;
pub use plan::{FaultEvent, FaultKind, FaultPlan, MAX_FLOOD_WINDOW_MICROS};
pub use retry::RetryPolicy;
pub use wire::{Delivery, LinkFaults};
