//! The pluggable transport surface a [`WireNode`](crate::WireNode)
//! drives.
//!
//! Two lanes with deliberately different delivery contracts:
//!
//! * **datagram** ([`Transport::send`]) — fire-and-forget frames
//!   (`Lookup`, `LookupReply`, `Leave`). Subject to loss, reordering
//!   and partitions; the sender learns nothing about delivery.
//! * **reliable RPC** ([`Transport::request`]) — synchronous
//!   request/response pairs (`ProbeLoad`, `AdaptIndegree`, `Join`,
//!   `Stabilize`). Exempt from probabilistic loss (only hard
//!   partitions fail them), mirroring the simulator's assumption that
//!   control-plane reads are instantaneous and reliable.
//!
//! Timers ([`Transport::timer`]) are the node's only clock: the node
//! never reads wall time, it only asks the transport to call back after
//! a simulated/physical delay.

use std::fmt;

use ert_sim::{SimDuration, SimTime};

/// Pseudo-address of the lookup-issuing client. `LookupReply` frames
/// are sent here; the transport owner (the binary driver) consumes
/// them.
pub const CLIENT_ADDR: u64 = u64::MAX;

/// Timer callbacks a node can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// The lookup in service (identified by query id) finishes service.
    ServiceDone {
        /// Query id the service slot was committed to.
        query: u64,
    },
    /// Periodic indegree-adaptation tick (Algorithm 3 cadence).
    AdaptTick,
}

/// Transport-level failure, surfaced only on the RPC lane (datagram
/// sends swallow loss by design).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Destination is not a known live peer.
    UnknownPeer(u64),
    /// An active partition separates the endpoints.
    Partitioned {
        /// Sending host's ring id.
        from: u64,
        /// Destination ring id.
        to: u64,
    },
    /// The peer rejected the request at the protocol level.
    Peer(String),
    /// Underlying I/O failure (UDP transport only).
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(id) => write!(f, "unknown peer {id}"),
            TransportError::Partitioned { from, to } => {
                write!(f, "partition between {from} and {to}")
            }
            TransportError::Peer(e) => write!(f, "peer error: {e}"),
            TransportError::Io(e) => write!(f, "transport i/o: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// What a live node needs from the outside world. Implemented by the
/// UDP event loop (the `ert-node` binary) and by tests' fakes; the
/// deterministic cluster needs none, since its switch is a link of
/// `ert-minidht`'s driver.
pub trait Transport {
    /// Current time on the transport's clock. Deterministic transports
    /// report simulated time; the UDP loop reports elapsed real time
    /// fed in by the binary driver.
    fn now(&self) -> SimTime;

    /// Fire-and-forget datagram. Loss is silent: `Ok(())` means the
    /// frame was handed to the network, not that it arrived.
    ///
    /// # Errors
    ///
    /// Only local failures (malformed frame, I/O error) are reported.
    fn send(&mut self, to: u64, frame: &[u8]) -> Result<(), TransportError>;

    /// Synchronous reliable RPC: delivers `frame` to `to` and returns
    /// the peer's encoded reply.
    ///
    /// # Errors
    ///
    /// Fails on unknown peers, active partitions, or peer-side protocol
    /// errors.
    fn request(&mut self, to: u64, frame: &[u8]) -> Result<Vec<u8>, TransportError>;

    /// Asks the transport to fire `kind` back into the node after
    /// `delay` on its clock.
    fn timer(&mut self, delay: SimDuration, kind: TimerKind);
}
