//! DHT overlay substrates for the ERT reproduction.
//!
//! The paper evaluates the elastic-routing-table protocol on **Cycloid**
//! (a constant-degree, cube-connected-cycles-like DHT) and describes how
//! the same indegree-expansion rule applies to **Chord**, **Pastry**, and
//! Tapestry (whose table geometry Pastry shares). This crate implements
//! the *geometry* of those overlays:
//!
//! * ID spaces and key responsibility ([`CycloidSpace`], [`ChordSpace`],
//!   [`PastrySpace`]);
//! * **entry regions** — for each routing-table slot, the set of IDs a
//!   neighbor may legally be drawn from once the paper's "loose
//!   restriction" is applied (Section 3.2, Figs. 1–3);
//! * **reverse regions** — the set of IDs whose tables may legally point
//!   *at* a given node, which is what a node probes to grow its indegree
//!   (Algorithm 1);
//! * routing decisions — which slot the original DHT routing algorithm
//!   would use for a given (current node, target key) pair;
//! * membership registries with successor/predecessor/region queries,
//!   the Chord and Pastry ones over one sorted slice ([`RingMembers`]);
//! * synthetic physical coordinates ([`Coord`]) whose exact distance
//!   stands in for the paper's landmark-based proximity measurements.
//!
//! The crate is purely geometric: it holds no queues, no load, and no
//! protocol state. Those live in `ert-core` (the ERT mechanism) and
//! `ert-network` (the simulated network).

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

pub mod chord;
pub mod coords;
pub mod cycloid;
pub mod members;
pub mod pastry;
pub mod ring;

pub use chord::{ChordRegistry, ChordSpace};
pub use coords::Coord;
pub use cycloid::{
    Bitmap, CycloidId, CycloidRegion, CycloidRegistry, CycloidSpace, InlinkCursor, InlinkScan,
    RingStride, RouteStep, SlotKind,
};
pub use members::{ArcMembers, RingMembers};
pub use pastry::{PastryRegistry, PastrySpace};
pub use ring::RingRange;
