//! Umbrella crate for the ERT reproduction workspace.
//!
//! Re-exports every member crate under one roof so the examples and
//! integration tests read naturally:
//!
//! * [`sim`] — discrete-event engine, RNG, statistics;
//! * [`overlay`] — Cycloid / Chord / Pastry geometry and registries;
//! * [`core`] — the elastic-routing-table mechanism (the paper's
//!   contribution);
//! * [`faults`] — perturbation plans (environment faults and byzantine
//!   actors: capacity liars, Sybil swarms, query floods, routing
//!   defectors), retry policies, and the randomized plan generator;
//! * [`par`] — the deterministic worker pool behind every sweep's
//!   fan-out (canonical-order collection, panic containment);
//! * [`network`] — the simulated DHT network and protocol specs;
//! * [`baselines`] — Base / NS / VS comparison protocols;
//! * [`workloads`] — capacities, lookup streams, churn schedules;
//! * [`supermarket`] — the Theorem 4.1 queueing model;
//! * [`minidht`] — lean Chord & Pastry platforms (ERT on O(log n) DHTs);
//! * [`experiments`] — the per-figure reproduction harness.
//!
//! See `README.md` for a tour and `DESIGN.md` for the paper-to-module
//! map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ert_baselines as baselines;
pub use ert_core as core;
pub use ert_experiments as experiments;
pub use ert_faults as faults;
pub use ert_minidht as minidht;
pub use ert_network as network;
pub use ert_overlay as overlay;
pub use ert_par as par;
pub use ert_sim as sim;
pub use ert_supermarket as supermarket;
pub use ert_workloads as workloads;
