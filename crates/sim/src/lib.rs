//! Discrete-event simulation engine used by the ERT reproduction.
//!
//! The crate is deliberately small and dependency-light. It provides the
//! four ingredients every simulation in this workspace is built from:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time.
//!   Integer time keeps the event queue totally ordered without floating
//!   point comparison hazards.
//! * [`EventQueue`] and [`Engine`] — a monotone priority queue of events
//!   with deterministic FIFO tie-breaking, and a thin driver that tracks
//!   the current simulated clock. The queue is a sorted lane (events
//!   scheduled in time order, such as arrivals fixed up front) beside a
//!   binary heap (the rest). Both are sorted by `(time, seq)`, a total
//!   order under which no two events tie, so popping the smaller of the
//!   two heads is exactly the sequence one heap would pop.
//! * [`ShardedEngine`] / [`ShardMap`] — the shared-nothing sharded
//!   variant of the engine: S per-shard reactors exchanging cross-shard
//!   events through bounded mailboxes, merged under the same canonical
//!   `(time, seq)` key so the pop sequence is byte-identical to
//!   [`Engine`] for any shard count.
//! * [`SimRng`] — a seedable, stream-splittable ChaCha12 random number
//!   generator so every experiment is reproducible from a single `u64`
//!   seed.
//! * [`stats`] — the small statistics toolkit (exact samples,
//!   histograms, time-weighted gauges) used to report the paper's
//!   metrics (99th percentile congestion, shares, lookup times, ...).
//! * [`SampleClock`] — the cadence generator behind periodic telemetry
//!   sampling: strictly increasing tick instants at a fixed Δt on the
//!   sim clock, so two runs with the same interval sample identically.
//!
//! # Example
//!
//! Simulate an M/D/1 queue for one simulated minute:
//!
//! ```
//! use ert_sim::{Engine, SimDuration, SimRng, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrive, Depart }
//!
//! let mut rng = SimRng::seed_from(7);
//! // Poisson arrivals, 10 customers / second: exponential gaps.
//! let mut next_gap = || SimDuration::from_secs_f64(rng.exp_secs(10.0));
//! let mut engine = Engine::new();
//! engine.schedule_in(next_gap(), Ev::Arrive);
//! let service = SimDuration::from_secs_f64(0.05);
//! let (mut queue, mut busy, mut served) = (0u32, false, 0u32);
//! while let Some((now, ev)) = engine.pop() {
//!     if now > SimTime::from_secs_f64(60.0) { break; }
//!     match ev {
//!         Ev::Arrive => {
//!             queue += 1;
//!             engine.schedule_in(next_gap(), Ev::Arrive);
//!             if !busy { busy = true; queue -= 1; engine.schedule_in(service, Ev::Depart); }
//!         }
//!         Ev::Depart => {
//!             served += 1;
//!             if queue > 0 { queue -= 1; engine.schedule_in(service, Ev::Depart); }
//!             else { busy = false; }
//!         }
//!     }
//! }
//! assert!(served > 500, "~600 expected, got {served}");
//! ```

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

mod engine;
mod event;
mod rng;
mod sample;
pub mod shard;
pub mod stats;
mod time;

pub use engine::Engine;
pub use event::EventQueue;
pub use rng::SimRng;
pub use sample::SampleClock;
pub use shard::{ShardMap, ShardStats, ShardedEngine};
pub use time::{SimDuration, SimTime};
