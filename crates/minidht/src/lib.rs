//! Lean secondary evaluation platforms for the ERT mechanism.
//!
//! Section 5 of the paper notes: *"ERT can also be applied to other DHT
//! networks. Simulations on other O(log n)-degree networks are expected
//! to produce better results."* This crate checks that remark on two
//! geometries:
//!
//! * [`ChordGeometry`] — the loose-finger Chord ring of `ert-overlay`;
//! * [`PastryGeometry`] — the prefix-routing Pastry overlay (whose
//!   table shape Tapestry shares).
//!
//! Both run inside one queueing simulator ([`MiniDht`]) using the
//! Table 2 model (light/heavy service, queue-length congestion) and the
//! unchanged `ert-core` mechanism: capacity-bounded indegree assignment
//! and expansion, periodic adaptation, and b-way forwarding with memory.
//! Compared to `ert-network` (the full Cycloid platform), the mini
//! platforms have no churn, virtual servers, locality or anonymity mode
//! — they isolate one question: does ERT's congestion control carry
//! over, and do O(log n) paths help?
//!
//! The protocol itself lives in one place, `ert_core::node`: the
//! [`ErtNode`] with the steps of Algorithms 1–4, each operation that
//! reaches peers a task that asks one peer at a time. This crate
//! re-exports it under the names its hosts use. [`MiniDht`] is the one
//! deterministic driver of such nodes — one event loop, one client with
//! its query table, one [`RouteTrace`], one [`MiniReport`] — and is
//! generic over a [`Link`], which carries a node's three crossings:
//! answer a peer's ask, forward a lookup, answer the client. [`Direct`]
//! answers an ask by calling the asked peer's `serve` between two steps
//! and loses nothing; `ert-node`'s switch puts each crossing through
//! the wire codec and its fault plan. A peer id becomes a node index
//! through one [`PeerIndex`]. A live `ert-node` process hosts the same
//! node on its own and answers by RPC.
//!
//! ```
//! use ert_minidht::{ChordGeometry, MiniDht, MiniDhtConfig, MiniProtocol};
//! use ert_sim::SimRng;
//! let cfg = MiniDhtConfig::defaults(10, 7);
//! let capacities = vec![1000.0; 64];
//! let geometry = ChordGeometry::populate(10, 64, &mut SimRng::seed_from(7));
//! let mut net = MiniDht::new(cfg, geometry, &capacities, MiniProtocol::ElasticErt).unwrap();
//! let report = net.run_poisson(200, 64.0);
//! assert_eq!(report.completed + report.dropped, 200);
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

mod chord;
mod pastry;
mod peer_index;
mod platform;

pub use chord::ChordGeometry;
pub use ert_core::node::{
    AdaptOp, AdaptTrace, ErtNode, Geometry, Hop, HopCandidates, Lookup, MiniDhtConfig,
    MiniProtocol, PeerAnswer, PeerOp, PeerReport,
};
pub use pastry::PastryGeometry;
pub use peer_index::PeerIndex;
pub use platform::{
    CompletionTrace, Direct, HopTrace, Link, MiniDht, MiniReport, Reply, RouteTrace,
};
