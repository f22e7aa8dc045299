//! `ert-node` — a live wire-protocol node for the elastic routing
//! table, with the deterministic simulator as its differential oracle.
//!
//! The crate promotes the `ert-minidht` platform model to a node that
//! speaks a versioned, length-prefixed frame protocol ([`codec`]) over
//! a pluggable [`Transport`]: join, stabilize, lookup forwarding,
//! load probing, and indegree adaptation all run as real wire
//! exchanges between peers instead of method calls on one struct.
//!
//! Two transports implement the trait:
//!
//! * [`WireCluster`] — a deterministic in-memory switch keyed on
//!   `(time, seq)` with `ert-faults` loss/partition hooks. This is the
//!   test harness and the half of the differential oracle that runs
//!   live nodes; `ert-testkit`'s `diff::wire` module drives it against
//!   `MiniDht` and asserts identical hop-by-hop routing decisions and
//!   indegree-adaptation sequences.
//! * a UDP event loop (feature `udp`, module [`udp`]) behind the
//!   `ert-node` binary, for running a real process-per-node cluster.
//!
//! Determinism rules inherited from the workspace: no wall clock in
//! library code (the binary driver feeds elapsed time in), no
//! `HashMap`/`HashSet` (iteration-order hazards), and the codec never
//! panics on untrusted bytes — malformed input is a typed
//! [`CodecError`], enforced by the `clippy::unwrap_used` / `expect_used` /
//! `panic` family denied below (plus `indexing_slicing` in the codec) and
//! the bit-flip fuzz suite in `tests/codec_props.rs`.

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

pub mod cluster;
pub mod codec;
pub mod node;
pub mod transport;
#[cfg(feature = "udp")]
pub mod udp;

pub use cluster::{WireCluster, WireReport};
pub use codec::{decode, encode, AdaptOp, CodecError, LookupStatus, Message};
pub use node::{NodeError, WireNode};
pub use transport::{TimerKind, Transport, TransportError, CLIENT_ADDR};
