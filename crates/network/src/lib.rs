//! The simulated DHT network of the ERT reproduction.
//!
//! This crate binds the substrates together into the system the paper
//! evaluates: a Cycloid overlay ([`ert_overlay`]) whose nodes run a
//! congestion-control protocol ([`ProtocolSpec`]) over a discrete-event
//! engine ([`ert_sim`]), processing lookups through per-host FIFO queues
//! exactly as Section 5 describes:
//!
//! * a host's *capacity* is the number of queries it can hold at a time,
//!   `⌊0.5 + α·ĉ⌋` of its normalized capacity `ĉ`;
//! * its *load* is its queue length; it is **heavy** when the queue
//!   exceeds the capacity;
//! * serving a query takes 0.2 s on a light host and 1 s on a heavy one
//!   (both configurable — Figs. 8a–c sweep them);
//! * lookups and churn arrive as Poisson streams (from `ert-workloads`).
//!
//! One [`Network`] value is one simulation run; [`Network::run`] consumes
//! a lookup schedule plus an optional churn schedule and yields a
//! [`RunReport`] carrying every metric the paper's figures plot.
//!
//! The protocol is pluggable: [`ProtocolSpec`] describes how tables are
//! built (single-neighbor vs. elastic), whether periodic indegree
//! adaptation runs, which forwarding policy is used, and whether the
//! overlay is built of capacity-proportional virtual servers. The ERT
//! variants are constructed here ([`ProtocolSpec::ert_af`] etc.); the
//! paper's comparison baselines live in `ert-baselines`.
//!
//! # Faults and adversaries
//!
//! [`Network::run_with_faults`] interprets a seeded [`FaultPlan`] (from
//! `ert-faults`, re-exported here) alongside the churn schedule. Its
//! environment kinds are crash-stop departures, degraded hosts,
//! message-loss episodes, and partitions: lost forwards retry under
//! [`NetworkConfig::retry`] (default: a single attempt, i.e. retries
//! off) and exhausted queries are accounted as `lookups_failed`. Its
//! adversary kinds are capacity liars that misreport ĉ and so violate
//! the γ_c assumption behind Theorems 3.1/3.2, Sybil swarms
//! concentrating identities on a ring region, query-flood flash crowds
//! layered onto the base workload, and routing defectors that invert
//! Algorithm 4's two-choice rule. The sanitizer's theorem envelopes are
//! relaxed *only* for the specific theorems whose assumptions the plan
//! deliberately violates (see [`Network::envelope_relaxations`]). An
//! empty plan leaves every run byte-identical to [`Network::run`].
//!
//! # Invariant sanitizer
//!
//! Debug builds (and any build with the `sanitize` feature) assert the
//! paper's invariants while the simulation runs: event-clock
//! monotonicity, per-host FIFO discipline, and the Theorem 3.1–3.3
//! degree envelopes. See the `sanitize` module and
//! [`Network::sanitize_checks`]. Plain release builds compile the
//! checks out entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// D4 and D5 of DESIGN.md "Determinism & Safety Rules", crate-wide: no
// panicking shortcut and no float equality outside tests. A site that
// keeps one names its invariant in an #[expect(.., reason = "..")].
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

pub mod config;
pub mod lookup;
pub mod metrics;
pub mod network;
mod sanitize;
pub mod spec;
pub mod state;
pub mod topology;

pub use config::NetworkConfig;
pub use ert_faults::{ChaosPlan, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
pub use lookup::{ChurnEvent, KeyPick, Lookup, SourcePick};
pub use metrics::RunReport;
pub use network::Network;
pub use sanitize::EnvelopeRelaxations;
pub use spec::{CycloidSlot, ProtocolSpec, TablePolicy, VirtualServerConfig};
