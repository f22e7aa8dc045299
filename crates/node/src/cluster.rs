//! The deterministic in-memory cluster: `ert-minidht`'s one driver of
//! [`ErtNode`]s on the `Switch`, the link that puts every crossing on
//! the wire.
//!
//! The switch encodes each of a node's three crossings with the codec
//! glue a UDP [`WireNode`](crate::WireNode) calls, rolls `ert-faults`'
//! [`LinkFaults`] on it, and decodes it at the far end: an ask is a
//! `ProbeLoad` or `AdaptIndegree` RPC answered by the peer's
//! `LoadReport`, a forwarded lookup a `Lookup` datagram, and an answer
//! a `LookupReply` datagram to the client. Datagrams roll probabilistic
//! loss and hard partitions; the RPC lane fails only across partitions.
//! An empty plan consumes zero random draws, so fault-free runs are
//! byte-identical to runs with no fault machinery at all —
//! `transport_faults.rs` pins that. The driver's event loop, client and
//! trace are the ones the simulator runs, so what the differential
//! oracle can still catch between the two is the codec and the switch;
//! see DESIGN.md "Wire Protocol & Live Node".

use ert_faults::{Delivery, FaultPlan, LinkFaults, RetryPolicy};
use ert_minidht::{
    ChordGeometry, ErtNode, Link, Lookup, MiniDht, MiniDhtConfig, MiniProtocol, MiniReport,
    PeerAnswer, PeerOp, Reply, RouteTrace,
};
use ert_sim::SimTime;

use crate::codec::{decode, encode, Message};
use crate::node::{
    answer_ask, ask_of, encode_ask, lookup_message, lookup_of, read_answer, reply_message,
    reply_of, NodeError,
};

/// The in-memory network: every crossing encoded, rolled against the
/// fault plan, and decoded at the far end.
#[derive(Debug)]
struct Switch {
    faults: LinkFaults,
    /// The ask being carried, kept so that asking allocates nothing.
    frame: Vec<u8>,
    /// `ProbeLoad` and `AdaptIndegree` RPCs carried.
    rpcs: [u64; 2],
    /// The first frame the far end could not read; none ever should be.
    failure: Option<NodeError>,
}

impl Switch {
    /// The RPC lane: the ask encoded, decoded and counted at the far
    /// end, served there, and its `LoadReport` read back.
    fn carry(
        &mut self,
        peer: &mut ErtNode,
        op: PeerOp,
        token: u64,
    ) -> Result<PeerAnswer, NodeError> {
        let token = encode_ask(op, token, &mut self.frame);
        let request = decode(&self.frame)?;
        let Some((asked_token, asked)) = ask_of(&request) else {
            return Err(NodeError::Protocol(format!("not an ask: {request:?}")));
        };
        self.rpcs[usize::from(asked != PeerOp::Probe)] += 1;
        read_answer(&answer_ask(peer, asked_token, asked), token)
    }

    /// The datagram lane's far end: `frame` decoded and read.
    fn land<T>(&mut self, frame: &[u8], read: fn(Message) -> Result<T, NodeError>) -> Option<T> {
        match decode(frame).map_err(NodeError::from).and_then(read) {
            Ok(value) => Some(value),
            Err(e) => {
                self.failure.get_or_insert(e);
                None
            }
        }
    }
}

impl Link for Switch {
    fn ask(
        &mut self,
        now: SimTime,
        from: usize,
        to: usize,
        peer: &mut ErtNode,
        op: PeerOp,
        token: u64,
    ) -> PeerAnswer {
        if !self.faults.reachable(now, from, to) {
            return PeerAnswer::Unreachable;
        }
        self.carry(peer, op, token).unwrap_or_else(|e| {
            self.failure.get_or_insert(e);
            PeerAnswer::Unreachable
        })
    }

    fn forward(&mut self, now: SimTime, from: usize, to: usize, lookup: Lookup) -> Option<Lookup> {
        let frame = encode(&lookup_message(lookup));
        match self.faults.deliver(now, from, to) {
            Delivery::Pass => self.land(&frame, lookup_of),
            Delivery::Dropped | Delivery::Partitioned => None,
        }
    }

    fn reply(&mut self, now: SimTime, from: usize, reply: Reply) -> Option<Reply> {
        let frame = encode(&reply_message(reply));
        // Answers can be lost too (the client must resend); the client
        // shares every node's process, so no partition severs it.
        match self.faults.deliver(now, from, from) {
            Delivery::Pass => self.land(&frame, reply_of),
            Delivery::Dropped | Delivery::Partitioned => None,
        }
    }
}

/// A Chord cluster on the in-memory switch, plus the issuing client:
/// [`MiniDht`] with every crossing on the wire.
#[derive(Debug)]
pub struct WireCluster {
    dht: MiniDht<ChordGeometry, Switch>,
    build_rpcs: (u64, u64),
}

impl WireCluster {
    /// Builds the cluster and its routing tables over the switch.
    ///
    /// `members` must be sorted and distinct with `capacities` aligned
    /// to it — the same alignment `MiniDht::new` gets from its
    /// geometry. `spawn_order` has no effect: the nodes are values in
    /// one vector, made in index order, and their tables are built in
    /// the seeded order the driver draws. It is still refused unless it
    /// is a permutation of the node indices.
    ///
    /// # Errors
    ///
    /// Rejects unsorted/duplicate/off-ring members, capacity-count
    /// mismatches, invalid ERT/retry/fault parameters, and wire build
    /// failures.
    #[expect(
        clippy::too_many_arguments,
        reason = "`MiniDht::new`'s inputs with the geometry spelled out (bits, members) plus the wire-only ones (fault plan, retry policy, spawn order)"
    )]
    pub fn new(
        cfg: MiniDhtConfig,
        bits: u8,
        members: &[u64],
        capacities: &[f64],
        protocol: MiniProtocol,
        plan: &FaultPlan,
        retry: RetryPolicy,
        spawn_order: Option<&[usize]>,
    ) -> Result<WireCluster, String> {
        let n = members.len();
        if n == 0 {
            return Err("cluster needs at least one member".into());
        }
        if capacities.len() != n {
            return Err(format!(
                "{n} members but {} capacities were given",
                capacities.len()
            ));
        }
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err("members must be sorted and distinct".into());
        }
        let ring = ert_overlay::ChordSpace::new(bits).ring_size();
        if members.last().is_some_and(|&last| last >= ring) {
            return Err(format!("members must lie on the {ring}-id ring"));
        }
        cfg.ert.validate().map_err(|e| e.to_string())?;
        let faults = LinkFaults::new(plan)?;
        if let Some(order) = spawn_order {
            let mut seen = vec![false; n];
            for &i in order {
                if i >= n || seen[i] {
                    return Err("spawn_order must be a permutation of the node indices".into());
                }
                seen[i] = true;
            }
            if order.len() != n {
                return Err("spawn_order must cover every node".into());
            }
        }
        let switch = Switch {
            faults,
            frame: Vec::new(),
            rpcs: [0; 2],
            failure: None,
        };
        let geometry = ChordGeometry::from_members(bits, members);
        let mut dht = MiniDht::with_link(cfg, geometry, capacities, protocol, retry, switch)?;
        // A live node owns its decision stream; so does each node here.
        dht.use_node_decision_rngs();
        let switch = dht.link();
        if let Some(e) = &switch.failure {
            return Err(format!("table build: {e}"));
        }
        let [probes, adapts] = switch.rpcs;
        Ok(WireCluster {
            dht,
            build_rpcs: (probes, adapts),
        })
    }

    /// `(ProbeLoad, AdaptIndegree)` RPCs table construction had issued
    /// when [`WireCluster::new`] returned. A run's report counts them
    /// too; the difference is what the run itself cost.
    pub fn build_rpcs(&self) -> (u64, u64) {
        self.build_rpcs
    }

    /// Switches on decision tracing for the next run.
    pub fn enable_trace(&mut self) {
        self.dht.enable_trace();
    }

    /// Takes the recorded trace.
    pub fn take_trace(&mut self) -> Option<RouteTrace> {
        self.dht.take_trace()
    }

    /// Per-node routing-state fingerprints in member order.
    pub fn table_fingerprints(&self) -> Vec<String> {
        self.dht.table_fingerprints()
    }

    /// Elastic indegree of every node (for bound checks).
    pub fn indegrees(&self) -> Vec<(u64, u32, u32)> {
        self.dht.indegrees()
    }

    /// Runs an explicit injection schedule of `(time, key)` pairs, as
    /// `MiniDht::run_schedule` does; the report counts the RPCs the
    /// switch carried since the cluster was built.
    ///
    /// # Errors
    ///
    /// Fails when the far end of some crossing could not read a frame,
    /// which a sound codec never lets happen.
    pub fn run_schedule(&mut self, schedule: &[(SimTime, u64)]) -> Result<MiniReport, String> {
        let mut report = self.dht.run_schedule(schedule);
        let switch = self.dht.link();
        if let Some(e) = &switch.failure {
            return Err(e.to_string());
        }
        [report.probe_rpcs, report.adapt_rpcs] = switch.rpcs;
        Ok(report)
    }
}
