//! The single-threaded node reactor, and the codec glue it shares with
//! the in-memory switch.
//!
//! A [`WireNode`] is the shared [`ErtNode`] of `ert-core` — the same
//! state and the same Algorithm 1–4 steps the simulator runs — plus
//! what only a live process needs: its own membership view, a Chord
//! geometry kept current frame by frame, and the codec. Where the
//! simulator's [`Direct`](ert_minidht::Direct) link answers a task's
//! ask by the peer's `serve`, this node encodes the [`PeerOp`] as a
//! `ProbeLoad` or `AdaptIndegree` frame, sends it through its
//! [`Transport`], and decodes the `LoadReport` that comes back; the
//! peer's [`WireNode::on_request`] decodes the frame into the same
//! `ErtNode::serve`. Lookups travel as `Lookup` datagrams and answers
//! as `LookupReply`s to [`CLIENT_ADDR`].
//!
//! Each of those three crossings is a pair of free functions here —
//! an ask and its `LoadReport`, a lookup and its frame, a reply and its
//! frame — and the cluster's `Switch` calls the same ones, so the bytes
//! the differential oracle checks are the bytes this node sends; see
//! DESIGN.md "Wire Protocol & Live Node".
//!
//! Determinism: the node's only randomness is two private streams
//! derived from `seed ^ id` — the build stream (elastic slot picks at
//! join) and the `"decide"` fork (forwarding probes). It never reads a
//! clock (time comes from [`Transport::now`]) and never iterates an
//! unordered container.

use std::fmt;
use std::mem::ManuallyDrop;

use ert_core::Task;
use ert_minidht::{
    AdaptTrace, ChordGeometry, ErtNode, Geometry, Hop, Lookup, MiniDhtConfig, MiniProtocol,
    PeerAnswer, PeerOp, PeerReport, Reply, RouteScratch,
};
use ert_sim::SimRng;

use crate::codec::{
    decode, decode_inline, encode, encode_adapt_indegree, encode_load_report, encode_probe_load,
    CodecError, LookupStatus, Message,
};
use crate::transport::{TimerKind, Transport, TransportError, CLIENT_ADDR};

/// Node-level protocol failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// A frame failed to decode.
    Codec(CodecError),
    /// The transport failed in a way the protocol cannot absorb.
    Transport(TransportError),
    /// A peer answered with an unexpected message.
    Protocol(String),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Codec(e) => write!(f, "codec: {e}"),
            NodeError::Transport(e) => write!(f, "transport: {e}"),
            NodeError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<CodecError> for NodeError {
    fn from(e: CodecError) -> Self {
        NodeError::Codec(e)
    }
}

impl From<TransportError> for NodeError {
    fn from(e: TransportError) -> Self {
        NodeError::Transport(e)
    }
}

// ---- the codec glue ----------------------------------------------------

/// Encodes `op` into `frame` as the RPC that carries it — a `ProbeLoad`
/// under `token`, or an `AdaptIndegree` — and returns the token its
/// answer must carry: the probe's, or 0 for a link operation. Both are
/// fixed-size frames, written straight from the op.
#[inline]
pub(crate) fn encode_ask(op: PeerOp, token: u64, frame: &mut Vec<u8>) -> u64 {
    match op {
        PeerOp::Probe => {
            encode_probe_load(token, frame);
            token
        }
        PeerOp::Link { from, slot, op } => {
            encode_adapt_indegree(from, slot, op, frame);
            0
        }
    }
}

/// The ask an RPC carries, with its token; `None` for a message that
/// is not an ask.
pub(crate) fn ask_of(request: &Message) -> Option<(u64, PeerOp)> {
    match *request {
        Message::ProbeLoad { token } => Some((token, PeerOp::Probe)),
        Message::AdaptIndegree { from, slot, op } => Some((0, PeerOp::Link { from, slot, op })),
        _ => None,
    }
}

/// Serves `op` on `node` and encodes the `LoadReport` that answers it
/// under `token` into `out`, a buffer the caller keeps, straight from
/// the node's report.
#[inline]
pub(crate) fn answer_ask(node: &mut ErtNode, token: u64, op: PeerOp, out: &mut Vec<u8>) {
    let r = node.serve(op);
    encode_load_report(token, r.load, r.capacity, r.indegree, r.spare, out);
}

/// Reads a peer's reply to an ask made under `token`. A reply other
/// than the `LoadReport` under that token (the probe's; 0 for a link
/// operation) is a protocol error.
///
/// The `LoadReport` is decoded inline and read where the decoder built
/// it, and that path leaves the decoded message undropped: a
/// `LoadReport` owns no heap memory, and a call to `Message`'s drop
/// glue between the decode and the read makes the compiler spill the
/// fields just decoded and reload them in wider loads, a
/// store-forwarding stall on every RPC. Any other reply is dropped as
/// usual.
#[inline]
pub(crate) fn read_answer(reply: &[u8], token: u64) -> Result<PeerAnswer, NodeError> {
    let reply = ManuallyDrop::new(decode_inline(reply));
    if let Ok(Message::LoadReport {
        token: answered,
        load,
        capacity,
        indegree,
        spare,
    }) = *reply
    {
        if answered == token {
            return Ok(PeerAnswer::Report(PeerReport {
                load,
                capacity,
                indegree,
                spare,
            }));
        }
    }
    match ManuallyDrop::into_inner(reply) {
        Ok(other) => Err(NodeError::Protocol(format!(
            "peer reply is not the LoadReport for token {token}: {other:?}"
        ))),
        Err(e) => Err(e.into()),
    }
}

/// The `Lookup` frame that carries `lookup` to its next hop.
pub(crate) fn lookup_message(lookup: Lookup) -> Message {
    Message::Lookup {
        query: lookup.query,
        key: lookup.key,
        hops: lookup.hops,
        attempts: lookup.attempts,
        flags: u8::from(lookup.numeric_mode),
        avoid: lookup.avoid.into_iter().collect(),
    }
}

/// The lookup a `Lookup` frame carries; any other message does not
/// belong on the datagram lane.
pub(crate) fn lookup_of(msg: Message) -> Result<Lookup, NodeError> {
    match msg {
        Message::Lookup {
            query,
            key,
            hops,
            attempts,
            flags,
            avoid,
        } => Ok(Lookup {
            query,
            key,
            hops,
            attempts,
            numeric_mode: flags & 1 != 0,
            avoid: avoid.into_iter().collect(),
        }),
        other => Err(NodeError::Protocol(format!(
            "message does not belong on the datagram lane: {other:?}"
        ))),
    }
}

/// The `LookupReply` that carries `reply` to the client; it names the
/// owner only when the lookup was found.
pub(crate) fn reply_message(reply: Reply) -> Message {
    let (status, owner) = match reply.hop {
        Hop::Found => (LookupStatus::Found, reply.owner),
        Hop::Dropped => (LookupStatus::Dropped, 0),
        Hop::Failed | Hop::Next(_) => (LookupStatus::Failed, 0),
    };
    Message::LookupReply {
        query: reply.query,
        status,
        owner,
        hops: reply.hops,
    }
}

/// The reply a `LookupReply` frame carries; any other message is not
/// for the client.
pub(crate) fn reply_of(msg: Message) -> Result<Reply, NodeError> {
    match msg {
        Message::LookupReply {
            query,
            status,
            owner,
            hops,
        } => Ok(Reply {
            query,
            hop: match status {
                LookupStatus::Found => Hop::Found,
                LookupStatus::Dropped => Hop::Dropped,
                LookupStatus::Failed => Hop::Failed,
            },
            owner,
            hops,
        }),
        other => Err(NodeError::Protocol(format!(
            "client received a non-reply frame: {other:?}"
        ))),
    }
}

/// Carries one [`PeerOp`] to `peer` as an RPC: encode into `frame`,
/// request, read the answer. Unknown and partitioned peers are answers,
/// not errors.
fn ask(
    t: &mut dyn Transport,
    frame: &mut Vec<u8>,
    token: u64,
    peer: u64,
    op: PeerOp,
) -> Result<PeerAnswer, NodeError> {
    let token = encode_ask(op, token, frame);
    match t.request(peer, frame) {
        Ok(bytes) => read_answer(&bytes, token),
        Err(TransportError::UnknownPeer(_)) => Ok(PeerAnswer::Unknown),
        Err(TransportError::Partitioned { .. }) => Ok(PeerAnswer::Unreachable),
        Err(e) => Err(e.into()),
    }
}

/// Steps `ert`'s `task` to its end over `t`, asking each peer by
/// [`ask`] in issue order. The first wire failure hides every later
/// peer from the task (they answer `Unreachable`) and is returned in
/// place of the task's result.
fn drive<T: Task>(
    ert: &mut ErtNode,
    t: &mut dyn Transport,
    frame: &mut Vec<u8>,
    token: u64,
    task: T,
) -> Result<T::Out, NodeError> {
    let mut failure = None;
    let out = ert_core::drive(ert, task, |peer, op| match failure {
        Some(_) => PeerAnswer::Unreachable,
        None => ask(t, frame, token, peer, op).unwrap_or_else(|e| {
            failure = Some(e);
            PeerAnswer::Unreachable
        }),
    });
    failure.map_or(Ok(out), Err)
}

// ---- the node ----------------------------------------------------------

/// One live DHT node: the shared ERT node, a Chord geometry that is its
/// membership view, and a private decision stream — all driven through
/// a [`Transport`].
#[derive(Debug)]
pub struct WireNode {
    ert: ErtNode,
    geometry: ChordGeometry,
    decide: SimRng,
    cfg: MiniDhtConfig,
    stabilize_round: u32,
    /// The outgoing RPC's frame, kept so that asking allocates nothing.
    request: Vec<u8>,
    /// The buffers a hop works in, kept so that routing allocates none.
    route_scratch: RouteScratch,
}

impl WireNode {
    /// Creates a node with ring id `id` and an initial membership view.
    /// `capacity_eval` is the evaluated capacity (`max_indegree` over
    /// the normalized capacity), computed by whoever knows the full
    /// capacity distribution. `raw_capacity` has no effect: a node
    /// never reads its raw capacity, only a driver's report weighs
    /// shares by it.
    ///
    /// # Panics
    ///
    /// Panics if `id` or a member of `view` is outside the `2^bits` ring.
    pub fn new(
        id: u64,
        bits: u8,
        view: &[u64],
        raw_capacity: f64,
        capacity_eval: u32,
        cfg: &MiniDhtConfig,
        protocol: MiniProtocol,
    ) -> WireNode {
        let _ = raw_capacity;
        let mut geometry = ChordGeometry::from_members(bits, view);
        if !geometry.contains(id) {
            geometry.insert(id);
        }
        WireNode {
            ert: ErtNode::new(id, capacity_eval, protocol),
            geometry,
            decide: SimRng::seed_from(cfg.seed ^ id).fork("decide"),
            cfg: *cfg,
            stabilize_round: 0,
            request: Vec::new(),
            route_scratch: RouteScratch::default(),
        }
    }

    /// Ring id of this node.
    pub fn id(&self) -> u64 {
        self.ert.id()
    }

    /// Current backward-finger count.
    pub fn indegree(&self) -> u32 {
        self.ert.indegree()
    }

    /// Current adaptive indegree bound.
    pub fn d_max(&self) -> u32 {
        self.ert.d_max()
    }

    /// Sorted membership view.
    pub fn members_view(&self) -> Vec<u64> {
        self.geometry.members()
    }

    /// The node's geometry, which is its membership view.
    pub fn geometry(&self) -> &ChordGeometry {
        &self.geometry
    }

    /// Canonical routing-state fingerprint, the same formatter behind
    /// `MiniDht::table_fingerprints`, so a live node's state compares
    /// with the driver's by string equality.
    pub fn fingerprint(&self) -> String {
        self.ert.fingerprint()
    }

    /// Fails closed on a peer's id outside the ring, which no view holds.
    fn check_on_ring(&self, ids: &[u64]) -> Result<(), NodeError> {
        let ring = self.geometry.space().ring_size();
        match ids.iter().find(|&&id| id >= ring) {
            Some(id) => Err(NodeError::Protocol(format!(
                "id {id} is off the {ring}-id ring"
            ))),
            None => Ok(()),
        }
    }

    /// Merges the `k` ids of a peer's frame into the view and returns
    /// whether it grew; a frame with an id off the ring changes nothing.
    ///
    /// The view is updated in place: each id is looked up in the sorted
    /// membership (O(k log n)), and the new ones are merged in with one
    /// sort of the slice, O(n + k log k). That is exact: the geometry is
    /// a set of ids, and every answer it gives (owner, successor window,
    /// table slots, inlink candidates) is a function of that set alone,
    /// so merging the new ids answers exactly as a geometry rebuilt from
    /// the merged set would. The node hears of the change once, and
    /// only if some id was new: its saved expansion position is valid
    /// only at the membership it was reached under (see
    /// `ErtNode::view_changed`).
    fn merge_view(&mut self, others: &[u64]) -> Result<bool, NodeError> {
        self.check_on_ring(others)?;
        let grew = others.iter().any(|&id| !self.geometry.contains(id));
        if grew {
            self.geometry.extend(others);
            self.ert.view_changed();
        }
        Ok(grew)
    }

    // ---- membership ----------------------------------------------------

    /// Joins the overlay through `bootstrap`: announces ourselves and
    /// merges the bootstrap's membership view from the reply.
    ///
    /// # Errors
    ///
    /// Fails when the bootstrap is unreachable or answers garbage.
    pub fn join_via(&mut self, t: &mut dyn Transport, bootstrap: u64) -> Result<(), NodeError> {
        let view = self.members_view();
        let reply = t.request(
            bootstrap,
            &encode(&Message::Join {
                id: self.id(),
                members: view,
            }),
        )?;
        self.merge_reply(&reply, "join").map(drop)
    }

    /// Merges the view a `Join` or `Stabilize` reply to `exchange`
    /// carries; any other reply is a protocol error.
    fn merge_reply(&mut self, reply: &[u8], exchange: &str) -> Result<bool, NodeError> {
        match decode(reply)? {
            Message::Join { members, .. } | Message::Stabilize { members, .. } => {
                self.merge_view(&members)
            }
            other => Err(NodeError::Protocol(format!(
                "{exchange} reply carried unexpected message {other:?}"
            ))),
        }
    }

    /// One stabilize round: exchange membership views with every peer in
    /// the current view (sorted order), merging each reply. Returns
    /// whether the view grew — `false` from every node means the
    /// cluster has reached its gossip fixpoint.
    ///
    /// # Errors
    ///
    /// Fails on peer-side protocol violations; unreachable peers are
    /// skipped.
    pub fn stabilize_once(&mut self, t: &mut dyn Transport) -> Result<bool, NodeError> {
        let round = self.stabilize_round;
        self.stabilize_round += 1;
        let peers = self.members_view();
        let mut grew = false;
        for peer in peers {
            if peer == self.id() {
                continue;
            }
            let reply = match t.request(
                peer,
                &encode(&Message::Stabilize {
                    round,
                    members: self.members_view(),
                }),
            ) {
                Ok(bytes) => bytes,
                Err(TransportError::UnknownPeer(_) | TransportError::Partitioned { .. }) => {
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            grew |= self.merge_reply(&reply, "stabilize")?;
        }
        Ok(grew)
    }

    // ---- link construction ---------------------------------------------

    /// Builds the routing table over the wire with the shared node's
    /// table-build rule: spare-indegree probes as `ProbeLoad` RPCs,
    /// link creation and indegree expansion as `AdaptIndegree` RPCs.
    ///
    /// # Errors
    ///
    /// Propagates peer protocol violations; unknown and partitioned
    /// candidates are passed over.
    pub fn build_links(&mut self, t: &mut dyn Transport) -> Result<(), NodeError> {
        let build = self.ert.build(&self.geometry, &self.cfg);
        drive(&mut self.ert, t, &mut self.request, 0, build)
    }

    // ---- datagram lane -------------------------------------------------

    /// Handles one datagram frame (`Lookup` or `Leave`).
    ///
    /// # Errors
    ///
    /// Fails on undecodable frames or messages that do not belong on
    /// the datagram lane.
    pub fn on_frame(&mut self, t: &mut dyn Transport, frame: &[u8]) -> Result<(), NodeError> {
        match decode(frame)? {
            Message::Leave { id } => {
                // `purge_peer` tells the shared node the view changed.
                self.check_on_ring(&[id])?;
                if self.geometry.contains(id) {
                    self.geometry.remove(id);
                    self.ert.purge_peer(id);
                }
            }
            msg => {
                let lookup = lookup_of(msg)?;
                let query = lookup.query;
                if let Some(service) = self.ert.arrive(lookup, &self.cfg) {
                    t.timer(service, TimerKind::ServiceDone { query });
                }
            }
        }
        Ok(())
    }

    // ---- RPC lane ------------------------------------------------------

    /// Handles one reliable RPC and returns the encoded reply. Pure
    /// local-state handler: it never issues transport calls, so nested
    /// RPC deadlock is impossible by construction.
    ///
    /// A link op names the slot of this node's table it acts on, and
    /// the table files a slot at its index, so a slot no table on the
    /// ring has (a forged `AdaptIndegree`, say slot 65 534) is refused
    /// before it reaches the table: it would size the table's spill to
    /// that index.
    ///
    /// # Errors
    ///
    /// Fails on undecodable frames, messages that do not belong on the
    /// RPC lane, and link ops on a slot that is not this ring's.
    pub fn on_request(&mut self, frame: &[u8]) -> Result<Vec<u8>, NodeError> {
        let request = decode(frame)?;
        if let Some((token, op)) = ask_of(&request) {
            if let PeerOp::Link { slot, .. } = op {
                if !self.geometry.is_slot(slot) {
                    return Err(NodeError::Protocol(format!(
                        "link op on slot {slot}, which no table of this ring has"
                    )));
                }
            }
            // An owned frame: the transport takes the reply by value.
            let mut reply = Vec::new();
            answer_ask(&mut self.ert, token, op, &mut reply);
            return Ok(reply);
        }
        match request {
            Message::Join { id, mut members } => {
                members.push(id);
                self.merge_view(&members)?;
                Ok(encode(&Message::Join {
                    id: self.id(),
                    members: self.members_view(),
                }))
            }
            Message::Stabilize { round, members } => {
                self.merge_view(&members)?;
                Ok(encode(&Message::Stabilize {
                    round,
                    members: self.members_view(),
                }))
            }
            other => Err(NodeError::Protocol(format!(
                "message does not belong on the RPC lane: {other:?}"
            ))),
        }
    }

    // ---- timers --------------------------------------------------------

    /// Handles a timer callback. `AdaptTick` returns the adaptation
    /// outcome so the transport owner can record the trace.
    ///
    /// # Errors
    ///
    /// Propagates forwarding/adaptation wire failures.
    pub fn on_timer(
        &mut self,
        t: &mut dyn Transport,
        kind: TimerKind,
    ) -> Result<Option<AdaptTrace>, NodeError> {
        match kind {
            TimerKind::ServiceDone { query } => {
                let Some((mut lookup, next)) = self.ert.service_done(query, &self.cfg) else {
                    return Ok(None);
                };
                // The next service starts *before* the hop is sent, as
                // the driver schedules its next Done before it hands the
                // hop to its link.
                if let Some((query, service)) = next {
                    t.timer(service, TimerKind::ServiceDone { query });
                }
                let route = self.ert.route(
                    &self.geometry,
                    &self.cfg,
                    &mut lookup,
                    &mut self.decide,
                    &mut self.route_scratch,
                );
                let hop = drive(&mut self.ert, t, &mut self.request, query, route)?;
                if let Hop::Next(next) = hop {
                    t.send(next, &encode(&lookup_message(lookup)))?;
                } else {
                    let reply = Reply {
                        query,
                        hop,
                        owner: self.id(),
                        hops: lookup.hops,
                    };
                    t.send(CLIENT_ADDR, &encode(&reply_message(reply)))?;
                }
                Ok(None)
            }
            TimerKind::AdaptTick => {
                let adapt = self.ert.adapt(&self.geometry, &self.cfg);
                drive(&mut self.ert, t, &mut self.request, 0, adapt).map(Some)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::AdaptOp;
    use ert_sim::{SimDuration, SimTime};
    use proptest::{prelude::ProptestConfig, prop_assert, prop_assert_eq};
    use rand::Rng;
    use std::collections::{BTreeMap, BTreeSet};

    const BITS: u8 = 6;

    /// Reliable RPCs over a map of nodes; no datagrams, no timers.
    struct Lan<'a> {
        nodes: &'a mut BTreeMap<u64, WireNode>,
    }

    impl Transport for Lan<'_> {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn send(&mut self, _to: u64, _frame: &[u8]) -> Result<(), TransportError> {
            Ok(())
        }
        fn request(&mut self, to: u64, frame: &[u8]) -> Result<Vec<u8>, TransportError> {
            let peer = self
                .nodes
                .get_mut(&to)
                .ok_or(TransportError::UnknownPeer(to))?;
            peer.on_request(frame)
                .map_err(|e| TransportError::Peer(e.to_string()))
        }
        fn timer(&mut self, _delay: SimDuration, _kind: TimerKind) {}
    }

    fn with_lan<R>(
        nodes: &mut BTreeMap<u64, WireNode>,
        id: u64,
        f: impl FnOnce(&mut WireNode, &mut Lan) -> R,
    ) -> R {
        let mut node = nodes.remove(&id).expect("node present");
        let out = f(&mut node, &mut Lan { nodes });
        nodes.insert(id, node);
        out
    }

    /// Answers every request with one canned frame.
    struct Canned(Vec<u8>);

    impl Transport for Canned {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn send(&mut self, _to: u64, _frame: &[u8]) -> Result<(), TransportError> {
            Ok(())
        }
        fn request(&mut self, _to: u64, _frame: &[u8]) -> Result<Vec<u8>, TransportError> {
            Ok(self.0.clone())
        }
        fn timer(&mut self, _delay: SimDuration, _kind: TimerKind) {}
    }

    fn report_with_token(token: u64) -> Vec<u8> {
        encode(&Message::LoadReport {
            token,
            load: 0,
            capacity: 8,
            indegree: 0,
            spare: 8,
        })
    }

    #[test]
    fn a_reply_carrying_another_requests_token_is_a_protocol_error() {
        let link = PeerOp::Link {
            from: 0,
            slot: 3,
            op: AdaptOp::AddOutlink,
        };
        let ask_with = |reply_token, token, op| {
            ask(
                &mut Canned(report_with_token(reply_token)),
                &mut Vec::new(),
                token,
                9,
                op,
            )
        };
        // A probe is answered under its own token, a link op under 0.
        assert!(matches!(
            ask_with(7, 7, PeerOp::Probe),
            Ok(PeerAnswer::Report(_))
        ));
        assert!(matches!(ask_with(0, 7, link), Ok(PeerAnswer::Report(_))));
        // A late answer to an earlier probe, and a probe's answer taken
        // for a link op's.
        for (reply_token, op) in [(6, PeerOp::Probe), (7, link)] {
            let err = ask_with(reply_token, 7, op).expect_err("stale token");
            assert!(matches!(err, NodeError::Protocol(_)), "{err}");
        }
        // Through the node: the step fails closed.
        let cfg = MiniDhtConfig::defaults(BITS, 5);
        let mut node = WireNode::new(0, BITS, &[0, 20], 1.0, 8, &cfg, MiniProtocol::ElasticErt);
        let err = node
            .build_links(&mut Canned(report_with_token(3)))
            .expect_err("stale token");
        assert!(matches!(err, NodeError::Protocol(_)), "{err}");
        assert_eq!(node.indegree(), 0);
    }

    #[test]
    fn a_link_op_on_a_slot_the_ring_has_not_is_refused() {
        let cfg = MiniDhtConfig::defaults(BITS, 5);
        let mut node = WireNode::new(0, BITS, &[0, 20], 1.0, 8, &cfg, MiniProtocol::ElasticErt);
        let frame = |slot| {
            let op = AdaptOp::AddOutlink;
            encode(&Message::AdaptIndegree { from: 20, slot, op })
        };
        for slot in [u16::from(BITS), 65_534] {
            let err = node.on_request(&frame(slot)).expect_err("not a slot");
            assert!(matches!(err, NodeError::Protocol(_)), "{err}");
        }
        assert_eq!(node.ert.table().outdegree(), 0);
        for slot in [u16::from(BITS) - 1, u16::MAX] {
            assert!(node.on_request(&frame(slot)).is_ok());
        }
        assert_eq!(node.ert.table().outdegree(), 2);
    }

    #[test]
    fn a_reply_that_is_not_a_load_report_is_a_protocol_error() {
        let mut leave = Canned(encode(&Message::Leave { id: 9 }));
        let err = ask(&mut leave, &mut Vec::new(), 7, 9, PeerOp::Probe).expect_err("not a report");
        assert!(matches!(err, NodeError::Protocol(_)), "{err}");
    }

    #[test]
    fn a_late_join_restarts_the_expansion_scan_and_links_the_newcomer() {
        let cfg = MiniDhtConfig::defaults(BITS, 5);
        let elastic = MiniProtocol::ElasticErt;
        // Node 0's inlink candidates, in scan order; 28 is not there yet.
        let early = [20u64, 24, 32, 44, 48, 56];
        let mut view = vec![0];
        view.extend(early);
        let mut nodes: BTreeMap<u64, WireNode> = view
            .iter()
            .map(|&id| (id, WireNode::new(id, BITS, &view, 1.0, 8, &cfg, elastic)))
            .collect();
        with_lan(&mut nodes, 0, |n, lan| n.build_links(lan)).expect("build");
        // Node 0's backward fingers, as its fingerprint lists them.
        let holders = |nodes: &BTreeMap<u64, WireNode>| {
            let print = nodes[&0].fingerprint();
            print[print.find("back=").expect("fingerprint format")..].to_string()
        };
        // β·d_max = 6: every candidate was taken, the scan stands at its end.
        assert_eq!(holders(&nodes), "back=[20,24,32,44,48,56]");

        // An idle round wants more and finds the supply exhausted.
        let tick = |nodes: &mut BTreeMap<u64, WireNode>| {
            with_lan(nodes, 0, |n, lan| n.on_timer(lan, TimerKind::AdaptTick))
                .expect("tick")
                .expect("an adaptation outcome")
        };
        assert!(tick(&mut nodes).delta > 0);
        assert_eq!(nodes[&0].indegree(), 6);

        // 28 joins through node 0. It sorts before the scan position.
        nodes.insert(28, WireNode::new(28, BITS, &[0], 1.0, 8, &cfg, elastic));
        with_lan(&mut nodes, 28, |n, lan| n.join_via(lan, 0)).expect("join");
        assert!(nodes[&0].members_view().contains(&28));

        assert!(tick(&mut nodes).delta > 0);
        assert_eq!(
            holders(&nodes),
            "back=[20,24,32,44,48,56,28]",
            "the scan restarted from the top and reached the newcomer"
        );
    }

    // ---- the datagram lane ----------------------------------------------

    /// The state every [`Recorder`] ask is answered from.
    const REPORT: PeerReport = PeerReport {
        load: 1,
        capacity: 8,
        indegree: 0,
        spare: 8,
    };

    /// Records every datagram and every timer, and answers every ask
    /// with [`REPORT`] under the ask's token.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<(u64, Message)>,
        timers: Vec<TimerKind>,
    }

    impl Transport for Recorder {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn send(&mut self, to: u64, frame: &[u8]) -> Result<(), TransportError> {
            self.sent.push((to, decode(frame).expect("a frame")));
            Ok(())
        }
        fn request(&mut self, _to: u64, frame: &[u8]) -> Result<Vec<u8>, TransportError> {
            let request = decode(frame).expect("a frame");
            let (token, _) = ask_of(&request).expect("every request is an ask");
            Ok(encode(&Message::LoadReport {
                token,
                load: REPORT.load,
                capacity: REPORT.capacity,
                indegree: REPORT.indegree,
                spare: REPORT.spare,
            }))
        }
        fn timer(&mut self, _delay: SimDuration, kind: TimerKind) {
            self.timers.push(kind);
        }
    }

    /// A `Lookup` frame arms one service timer; when it fires, a
    /// non-owner forwards the lookup one hop further to the peer its
    /// `ErtNode::route` picks, and the owner answers the client.
    #[test]
    fn a_lookup_frame_is_served_then_forwarded_or_answered() {
        let cfg = MiniDhtConfig::defaults(BITS, 5);
        let view = [0u64, 8, 16, 24, 32, 40, 48, 56];
        let built = |id| {
            let mut node = WireNode::new(id, BITS, &view, 1.0, 8, &cfg, MiniProtocol::ElasticErt);
            node.build_links(&mut Recorder::default()).expect("build");
            node
        };
        let (me, key) = (8, 45);
        let mut node = built(me);
        let owner = node.geometry().owner(key).expect("a member owns every key");
        assert_ne!(owner, me);
        let lookup = Lookup {
            query: 7,
            key,
            hops: 2,
            attempts: 0,
            numeric_mode: false,
            avoid: BTreeSet::new(),
        };
        let frame = encode(&lookup_message(lookup.clone()));
        let service_done = TimerKind::ServiceDone { query: 7 };

        let mut wire = Recorder::default();
        node.on_frame(&mut wire, &frame).expect("a lookup frame");
        assert_eq!(wire.timers, [service_done]);
        assert!(wire.sent.is_empty());

        // The hop `ErtNode::route` picks on a twin of the node, every
        // probe answered alike.
        let mut twin = built(me);
        twin.ert.arrive(lookup.clone(), &cfg);
        let (mut served, _) = twin.ert.service_done(7, &cfg).expect("in service");
        let route = twin.ert.route(
            &twin.geometry,
            &cfg,
            &mut served,
            &mut twin.decide,
            &mut twin.route_scratch,
        );
        let hop = ert_core::drive(&mut twin.ert, route, |_, _| PeerAnswer::Report(REPORT));
        let Hop::Next(next) = hop else {
            panic!("a non-owner forwards, got {hop:?}");
        };

        node.on_timer(&mut wire, service_done)
            .expect("service done");
        assert_eq!(wire.timers, [service_done], "no second timer");
        assert_eq!(served.hops, lookup.hops + 1);
        assert_eq!(wire.sent, [(next, lookup_message(served))]);

        let mut owner_node = built(owner);
        let mut wire = Recorder::default();
        owner_node
            .on_frame(&mut wire, &frame)
            .expect("a lookup frame");
        assert_eq!(wire.timers, [service_done]);
        owner_node
            .on_timer(&mut wire, service_done)
            .expect("service done");
        let found = Message::LookupReply {
            query: 7,
            status: LookupStatus::Found,
            owner,
            hops: 2,
        };
        assert_eq!(wire.sent, [(CLIENT_ADDR, found)]);
    }

    // ---- ids off the ring ------------------------------------------------

    /// The node under test; the ring has `2^BITS` = 64 ids.
    const ME: u64 = 20;
    const OFF_RING: u64 = 64 + ME;

    fn node_of(view: &[u64]) -> WireNode {
        let cfg = MiniDhtConfig::defaults(BITS, 5);
        WireNode::new(ME, BITS, view, 1.0, 8, &cfg, MiniProtocol::ElasticErt)
    }

    fn assert_protocol_error<T: fmt::Debug>(got: Result<T, NodeError>) {
        assert!(matches!(got, Err(NodeError::Protocol(_))), "{got:?}");
    }

    #[test]
    fn a_join_carrying_an_id_off_the_ring_is_a_protocol_error() {
        let mut node = node_of(&[4, 40]);
        // The joiner itself, or one id of its view, folds onto member 20.
        for (id, members) in [(OFF_RING, vec![9]), (9, vec![9, OFF_RING])] {
            let frame = encode(&Message::Join { id, members });
            assert_protocol_error(node.on_request(&frame));
        }
        // A join reply is held to the same rule; the frame is refused
        // whole, so 9 stays out too.
        let reply = encode(&Message::Join {
            id: 40,
            members: vec![9, OFF_RING],
        });
        assert_protocol_error(node.join_via(&mut Canned(reply), 40));
        assert_eq!(node.members_view(), vec![4, ME, 40]);
    }

    #[test]
    fn a_stabilize_carrying_an_id_off_the_ring_is_a_protocol_error() {
        let mut node = node_of(&[4, 40]);
        let frame = encode(&Message::Stabilize {
            round: 1,
            members: vec![9, OFF_RING],
        });
        assert_protocol_error(node.on_request(&frame));
        assert_protocol_error(node.stabilize_once(&mut Canned(frame)));
        assert_eq!(node.members_view(), vec![4, ME, 40]);
    }

    #[test]
    fn a_leave_naming_an_id_off_the_ring_is_a_protocol_error() {
        let mut node = node_of(&[4, 40]);
        let frame = encode(&Message::Leave { id: 64 + 40 });
        assert_protocol_error(node.on_frame(&mut Canned(Vec::new()), &frame));
        assert_eq!(node.members_view(), vec![4, ME, 40]);
    }

    #[test]
    fn a_cluster_with_a_member_off_the_ring_is_refused() {
        let cfg = MiniDhtConfig::defaults(BITS, 5);
        let build = |members: &[u64]| {
            crate::WireCluster::new(
                cfg,
                BITS,
                members,
                &vec![1.0; members.len()],
                MiniProtocol::ElasticErt,
                &ert_faults::FaultPlan::new(5),
                ert_faults::RetryPolicy::default(),
                None,
            )
        };
        assert!(build(&[4, ME, 63]).is_ok());
        let err = build(&[4, ME, 64]).expect_err("64 is off the 64-id ring");
        assert!(err.contains("ring"), "{err}");
    }

    // ---- the view against the rebuilt replica --------------------------

    /// Answers every request with a report that takes any link, and
    /// counts the `AddOutlink`s: the inlink candidates an expansion
    /// asked.
    #[derive(Default)]
    struct Holders {
        asked: usize,
    }

    impl Transport for Holders {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn send(&mut self, _to: u64, _frame: &[u8]) -> Result<(), TransportError> {
            Ok(())
        }
        fn request(&mut self, _to: u64, frame: &[u8]) -> Result<Vec<u8>, TransportError> {
            if let Ok(Message::AdaptIndegree {
                op: AdaptOp::AddOutlink,
                ..
            }) = decode(frame)
            {
                self.asked += 1;
            }
            Ok(report_with_token(0))
        }
        fn timer(&mut self, _delay: SimDuration, _kind: TimerKind) {}
    }

    /// The view as a node used to hold it: a sorted set beside a
    /// geometry rebuilt from the set after every change. A frame with
    /// an id off the ring changes nothing (`None`).
    struct Replica(BTreeSet<u64>);

    impl Replica {
        fn merge(&mut self, ids: &[u64]) -> Option<bool> {
            if ids.iter().any(|&id| id >= 1 << BITS) {
                return None;
            }
            let before = self.0.len();
            self.0.extend(ids);
            Some(self.0.len() != before)
        }

        fn view(&self) -> Vec<u64> {
            self.0.iter().copied().collect()
        }

        fn geometry(&self) -> ChordGeometry {
            ChordGeometry::from_members(BITS, &self.view())
        }
    }

    /// A ring id, ME, or (one draw in ten) an id off the ring.
    fn draw_id(rng: &mut SimRng) -> u64 {
        match rng.gen_range(0..10) {
            0 => rng.gen_range(1 << BITS..2 << BITS),
            1 => ME,
            _ => rng.gen_range(0..1 << BITS),
        }
    }

    fn draw_ids(rng: &mut SimRng) -> Vec<u64> {
        let n = rng.gen_range(0..6);
        (0..n).map(|_| draw_id(rng)).collect()
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Arbitrary join, stabilize and leave traffic — duplicates,
        /// this node's own id, ids already gone, ids off the ring —
        /// against the replica. After every step the view, the answers
        /// of the geometry, and the expansion scan agree with it: the
        /// next expansion rescans every inlink candidate exactly when
        /// the replica's view changed, and asks no one otherwise.
        #[test]
        fn the_single_view_matches_a_rebuilt_replica(seed in 0u64..100_000) {
            let mut rng = SimRng::seed_from(seed);
            let initial: Vec<u64> = (0..rng.gen_range(0..12))
                .map(|_| rng.gen_range(0..1 << BITS))
                .collect();
            let cfg = MiniDhtConfig::defaults(BITS, seed);
            // An indegree target no scan reaches: every expansion runs
            // its candidates to the end.
            let mut node = WireNode::new(ME, BITS, &initial, 1.0, 1 << 20, &cfg, MiniProtocol::ElasticErt);
            let mut replica = Replica(initial.iter().copied().chain([ME]).collect());
            let mut changed = Some(true);
            // Each pass checks the state the previous step left.
            for step in 0..=24 {
                let rebuilt = replica.geometry();
                let mut holders = Holders::default();
                node.build_links(&mut holders).expect("every holder answers");
                let rescan = rebuilt.inlink_candidates(ME, None).count();
                prop_assert_eq!(holders.asked, if changed == Some(true) { rescan } else { 0 }, "step {}", step);
                prop_assert_eq!(node.members_view(), replica.view());
                let g = node.geometry();
                for id in [0, 13, ME, 31, 47, 63, rng.gen_range(0..1 << BITS)] {
                    prop_assert_eq!(g.owner(id), rebuilt.owner(id));
                    prop_assert_eq!(g.succ_window(id), rebuilt.succ_window(id));
                    prop_assert_eq!(g.table_slots(id), rebuilt.table_slots(id));
                    prop_assert!(g.inlink_candidates(id, None).eq(rebuilt.inlink_candidates(id, None)));
                }
                if step == 24 {
                    break;
                }

                // The step, and what the node said of it: whether the
                // view grew where the call reports that, `None` where not.
                let ids = draw_ids(&mut rng);
                let said: Result<Option<bool>, NodeError>;
                (changed, said) = match rng.gen_range(0..4) {
                    0 => {
                        let id = draw_id(&mut rng);
                        let frame = encode(&Message::Join { id, members: ids.clone() });
                        let joined = [ids.as_slice(), &[id]].concat();
                        (replica.merge(&joined), node.on_request(&frame).map(|_| None))
                    }
                    1 => {
                        let frame = encode(&Message::Stabilize { round: 0, members: ids.clone() });
                        (replica.merge(&ids), node.on_request(&frame).map(|_| None))
                    }
                    2 => {
                        // Every peer in the view answers with the same
                        // reply; with no peer there is no exchange.
                        let reply = encode(&Message::Stabilize { round: 0, members: ids.clone() });
                        let has_peer = replica.0.iter().any(|&p| p != ME);
                        let grew = if has_peer { replica.merge(&ids) } else { Some(false) };
                        (grew, node.stabilize_once(&mut Canned(reply)).map(Some))
                    }
                    _ => {
                        // A third of the leaves name a current member.
                        let view = replica.view();
                        let id = match rng.gen_range(0..3) {
                            0 if !view.is_empty() => view[rng.gen_range(0..view.len())],
                            _ => draw_id(&mut rng),
                        };
                        let gone = (id < 1 << BITS).then(|| replica.0.remove(&id));
                        let frame = encode(&Message::Leave { id });
                        (gone, node.on_frame(&mut Canned(Vec::new()), &frame).map(|()| None))
                    }
                };
                match said {
                    Ok(grew) => {
                        prop_assert!(changed.is_some(), "step {}: an off-ring frame was taken", step);
                        prop_assert!(grew.is_none() || grew == changed, "step {}", step);
                    }
                    Err(e) => {
                        prop_assert!(matches!(e, NodeError::Protocol(_)), "{}", e);
                        prop_assert_eq!(changed, None);
                    }
                }
            }
        }
    }
}
