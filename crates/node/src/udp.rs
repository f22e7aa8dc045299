//! Real UDP transport for the `ert-node` binary (feature `udp`).
//!
//! Determinism discipline even here: this module never reads the wall
//! clock. The binary driver measures elapsed real time (it is a
//! binary, so `Instant` is legitimate there) and feeds it in through
//! [`UdpTransport::advance`]; everything in this file is a pure
//! function of that injected clock plus socket I/O, and the node's
//! frames are the ones the deterministic in-memory switch carries.
//!
//! RPC semantics over UDP are demo-grade by design: a request blocks
//! on the socket's read timeout for the first frame from the target
//! peer's address, and unrelated frames that arrive in the meantime
//! are parked in an inbox for the event loop to drain. Good enough to
//! run a real process-per-node cluster; the provable-accounting runs
//! stay on the in-memory switch.

use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};

use ert_sim::{SimDuration, SimTime};

use crate::transport::{TimerKind, Transport, TransportError, CLIENT_ADDR};

/// Maximum datagram we ever expect (well above any frame the codec
/// emits for practical cluster sizes).
const RECV_BUF: usize = 64 * 1024;

/// A peer in the static address book.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Peer {
    /// Ring id.
    pub id: u64,
    /// Socket address.
    pub addr: SocketAddr,
}

/// UDP-backed [`Transport`]: one socket, a static `id → addr` book, a
/// driver-fed clock, and a timer wheel the driver polls.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    /// Sorted by id for binary search (no `HashMap` by workspace rule).
    peers: Vec<Peer>,
    now: SimTime,
    /// Pending timers as `(due, kind)`, kept sorted on insert.
    timers: Vec<(SimTime, TimerKind)>,
    /// Frames that arrived while an RPC was waiting for its reply.
    inbox: VecDeque<(SocketAddr, Vec<u8>)>,
}

impl UdpTransport {
    /// Wraps a bound socket and a peer book (sorted internally).
    ///
    /// # Errors
    ///
    /// Fails when the peer book contains duplicate ids or the socket
    /// refuses the non-blocking/read-timeout configuration.
    pub fn new(socket: UdpSocket, mut peers: Vec<Peer>) -> Result<Self, TransportError> {
        peers.sort_by_key(|p| p.id);
        if peers.windows(2).any(|w| w[0].id == w[1].id) {
            return Err(TransportError::Io(
                "duplicate peer id in address book".into(),
            ));
        }
        socket
            .set_read_timeout(Some(std::time::Duration::from_millis(250)))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(UdpTransport {
            socket,
            peers,
            now: SimTime::ZERO,
            timers: Vec::new(),
            inbox: VecDeque::new(),
        })
    }

    fn addr_of(&self, id: u64) -> Option<SocketAddr> {
        self.peers
            .binary_search_by_key(&id, |p| p.id)
            .ok()
            .map(|i| self.peers[i].addr)
    }

    /// Driver hook: sets the transport clock to the driver's measured
    /// elapsed time.
    pub fn advance(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Driver hook: pops every timer due at or before the current
    /// clock, in `(due, insertion)` order.
    pub fn due_timers(&mut self) -> Vec<TimerKind> {
        let mut due = Vec::new();
        let now = self.now;
        self.timers.retain(|&(at, kind)| {
            if at <= now {
                due.push(kind);
                false
            } else {
                true
            }
        });
        due
    }

    /// Earliest pending timer deadline, if any (drives the driver's
    /// sleep budget).
    #[must_use]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.first().map(|&(at, _)| at)
    }

    /// Driver hook: answers an incoming RPC request by sending `reply`
    /// straight back to the requester's socket address.
    ///
    /// # Errors
    ///
    /// Propagates socket send failures.
    pub fn reply_to(&self, addr: SocketAddr, reply: &[u8]) -> Result<(), TransportError> {
        self.socket
            .send_to(reply, addr)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(())
    }

    /// Driver hook: one frame from the network, either parked inbox
    /// traffic or a fresh datagram. `None` on timeout.
    pub fn poll_frame(&mut self) -> Option<(SocketAddr, Vec<u8>)> {
        if let Some(parked) = self.inbox.pop_front() {
            return Some(parked);
        }
        let mut buf = [0u8; RECV_BUF];
        match self.socket.recv_from(&mut buf) {
            Ok((len, from)) => Some((from, buf[..len].to_vec())),
            Err(_) => None,
        }
    }
}

impl Transport for UdpTransport {
    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&mut self, to: u64, frame: &[u8]) -> Result<(), TransportError> {
        if to == CLIENT_ADDR {
            // The binary driver is its own client; replies to it are
            // parked locally instead of crossing the network.
            let self_addr = self
                .socket
                .local_addr()
                .map_err(|e| TransportError::Io(e.to_string()))?;
            self.inbox.push_back((self_addr, frame.to_vec()));
            return Ok(());
        }
        let addr = self.addr_of(to).ok_or(TransportError::UnknownPeer(to))?;
        self.socket
            .send_to(frame, addr)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(())
    }

    fn request(&mut self, to: u64, frame: &[u8]) -> Result<Vec<u8>, TransportError> {
        let addr = self.addr_of(to).ok_or(TransportError::UnknownPeer(to))?;
        self.socket
            .send_to(frame, addr)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let mut buf = [0u8; RECV_BUF];
        // Bounded wait: a few read-timeout windows, parking unrelated
        // traffic; then the peer counts as unreachable.
        for _ in 0..4 {
            match self.socket.recv_from(&mut buf) {
                Ok((len, from)) if from == addr => return Ok(buf[..len].to_vec()),
                Ok((len, from)) => self.inbox.push_back((from, buf[..len].to_vec())),
                Err(_) => {}
            }
        }
        Err(TransportError::Io(format!("request to {to} timed out")))
    }

    fn timer(&mut self, delay: SimDuration, kind: TimerKind) {
        let at = self.now + delay;
        let pos = self.timers.partition_point(|&(t, _)| t <= at);
        self.timers.insert(pos, (at, kind));
    }
}
