//! The elastic routing table (ERT) mechanism — the primary contribution
//! of *"Elastic Routing Table with Provable Performance for Congestion
//! Control in DHT Networks"* (Shen & Xu, ICDCS 2006).
//!
//! An ERT node differs from a classic DHT node in three ways:
//!
//! 1. **Capacity-aware indegree** (Section 3.2). Every node has a
//!    maximum indegree `d^∞ = ⌊0.5 + α·ĉ⌋` proportional to its
//!    normalized capacity `ĉ`. After building a basic routing table, a
//!    joining node *expands* its indegree toward `β·d^∞` by probing the
//!    nodes whose tables may legally point at it (the overlay's
//!    *reverse regions*) — see [`assign`].
//! 2. **Periodic indegree adaptation** (Section 3.3, Algorithm 3). Every
//!    period `T`, a node compares its experienced load against its
//!    capacity and sheds `μ(l − c)` inlinks (choosing victims by longest
//!    logical then physical distance) or grows `μ(c − l)` inlinks — see
//!    [`adapt`].
//! 3. **Topology-aware randomized forwarding** (Section 4, Algorithm 4).
//!    Each table slot holds a *set* of candidates; a query is forwarded
//!    through a two-choice supermarket policy with memory, carrying the
//!    set of overloaded nodes it has observed — see [`forward`].
//!
//! The mechanism is expressed over two abstractions so it runs unchanged
//! on any overlay with region-shaped slots (Cycloid, Chord, Pastry — see
//! `ert-overlay`):
//!
//! * [`table::ElasticTable`] — the per-node state: outlinks per slot,
//!   backward fingers (inlinks), and the forwarding memory;
//! * [`assign::Directory`] — the node's window onto the network
//!   (who is in a region, who has spare indegree), implemented by the
//!   Cycloid simulator's `Topology` in `ert-network` and by mocks in
//!   tests.
//!
//! [`node`] is the same mechanism as one node that reaches its peers
//! only by message: an [`ErtNode`] runs the table build, Algorithm 4's
//! route and Algorithm 3's adapt as [`Task`]s that ask one peer at a
//! time and take the answer, over a [`node::Geometry`]. The Chord and
//! Pastry platforms of `ert-minidht` and the wire node of `ert-node`
//! host it.
//!
//! [`bounds`] evaluates the paper's Theorems 3.1–3.3 so tests and the
//! experiment harness can check that measured degrees respect the proven
//! envelopes.

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

pub mod adapt;
pub mod assign;
pub mod bounds;
pub mod capacity;
pub mod estimate;
pub mod forward;
pub mod node;
pub mod params;
pub mod table;

pub use adapt::{
    adapt_step, adaptation_action, indegree_cap, select_shed_victims, AdaptAction, AdaptStep,
    ShedCandidate,
};
pub use assign::{build_table, expand_indegree, expand_indegree_over, Directory, Expansion};
pub use capacity::{max_indegree, normalize_capacities};
pub use estimate::Estimator;
pub use forward::{
    choose_next, choose_next_b, choose_next_lazy, choose_next_reachable, Candidate, Contact,
    ForwardChoice, ForwardPolicy, ForwardScratch,
};
pub use node::{
    drive, Adapt, AdaptOp, AdaptTrace, Build, ErtNode, Geometry, Hop, HopCandidates, Lookup,
    MiniDhtConfig, MiniProtocol, PeerAnswer, PeerOp, PeerReport, Route, RouteScratch, Step, Task,
};
pub use params::ErtParams;
pub use table::{ElasticTable, SlotIndex};
