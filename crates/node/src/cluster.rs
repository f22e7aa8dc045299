//! Deterministic in-memory cluster: the test-side [`Transport`] plus
//! the lookup-issuing client.
//!
//! A [`WireCluster`] owns one [`WireNode`] per member, all built on one
//! shared copy-on-write membership view, and a single [`EventQueue`] —
//! the `(time, seq)` FIFO-stable queue under `MiniDht`'s engine — over
//! five entry kinds: client injections, in-flight frames, node timers,
//! adaptation rounds, and client retries. Sequence numbers are
//! allocated when work is emitted, so equal-timestamp events run in
//! emission order exactly like the simulator; the correspondence
//! argument lives in DESIGN.md "Wire Protocol & Live Node".
//!
//! Faults ride on `ert-faults` plans through [`LinkFaults`]: datagram
//! sends roll probabilistic loss and hard partitions, the RPC lane
//! fails only across partitions. An empty plan consumes zero random
//! draws, so fault-free runs are byte-identical to runs with no fault
//! machinery at all — `transport_faults.rs` pins that, along with
//! byte-identity across node-spawn orders.

use std::sync::Arc;

use ert_core::{max_indegree, normalize_capacities};
use ert_faults::{Delivery, FaultPlan, LinkFaults, RetryPolicy};
use ert_minidht::{
    ChordGeometry, CompletionTrace, HopTrace, MiniDhtConfig, MiniProtocol, PeerIndex, RouteTrace,
};
use ert_sim::stats::{Samples, Summary};
use ert_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::codec::{decode, encode, LookupStatus, Message};
use crate::node::WireNode;
use crate::transport::{TimerKind, Transport, TransportError, CLIENT_ADDR};

#[derive(Debug)]
enum Work {
    /// Client injects query `query` for `key` at its scheduled time.
    Inject { query: u64, key: u64 },
    /// A frame in flight on the datagram lane.
    Frame { to: u64, bytes: Vec<u8> },
    /// A timer callback owed to node `node`.
    Timer { node: usize, kind: TimerKind },
    /// One adaptation period: every live node's `AdaptTick`, in index
    /// order — `MiniDht`'s `Ev::Adapt`. It stands for the n per-node
    /// `AdaptTick` timers a live node arms for itself, and it is exact:
    /// those n timers would be scheduled back to back at one instant
    /// with consecutive `seq`s, and a tick schedules no event (its RPCs
    /// are synchronous), so nothing could pop between them.
    AdaptRound,
    /// Client retry check for query `query`.
    Retry { query: u64 },
}

/// The switch-side view handed to a node while one of its handlers
/// runs. Borrows the cluster's internals disjointly; the running node
/// itself is taken out of `nodes`, so a reentrant RPC to self would
/// surface as `UnknownPeer` instead of aliasing.
struct SwitchCtx<'a> {
    me: usize,
    me_id: u64,
    now: SimTime,
    events: &'a mut EventQueue<Work>,
    faults: &'a mut LinkFaults,
    nodes: &'a mut Vec<Option<WireNode>>,
    peers: &'a PeerIndex,
    trace: &'a mut Option<RouteTrace>,
    probe_rpcs: &'a mut u64,
    adapt_rpcs: &'a mut u64,
}

impl Transport for SwitchCtx<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&mut self, to: u64, frame: &[u8]) -> Result<(), TransportError> {
        // Decoding at the switch double-exercises the codec on every
        // wire crossing and gives the trace recorder typed access.
        let msg = decode(frame)?;
        if to == CLIENT_ADDR {
            // Replies can be lost too (the client must retry); the
            // client is co-located so partitions never sever it.
            match self.faults.deliver(self.now, self.me, self.me) {
                Delivery::Pass => self.events.schedule(
                    self.now,
                    Work::Frame {
                        to,
                        bytes: frame.to_vec(),
                    },
                ),
                Delivery::Dropped | Delivery::Partitioned => {}
            }
            return Ok(());
        }
        if let Message::Lookup { query, .. } = msg {
            // Recorded at the send — the same program point where the
            // simulator records its hop — and before the fault roll:
            // the routing *decision* is what the oracle compares.
            if let Some(tr) = self.trace.as_mut() {
                tr.hops.push(HopTrace {
                    query,
                    from: self.me_id,
                    to,
                });
            }
        }
        let Some(to_idx) = self.peers.index_of(to) else {
            // Datagram to a peer outside the switch: vanishes, as on a
            // real network.
            return Ok(());
        };
        match self.faults.deliver(self.now, self.me, to_idx) {
            Delivery::Pass => self.events.schedule(
                self.now,
                Work::Frame {
                    to,
                    bytes: frame.to_vec(),
                },
            ),
            Delivery::Dropped | Delivery::Partitioned => {}
        }
        Ok(())
    }

    fn request(&mut self, to: u64, frame: &[u8]) -> Result<Vec<u8>, TransportError> {
        let Some(to_idx) = self.peers.index_of(to) else {
            return Err(TransportError::UnknownPeer(to));
        };
        if !self.faults.reachable(self.now, self.me, to_idx) {
            return Err(TransportError::Partitioned {
                from: self.me_id,
                to,
            });
        }
        let request = decode(frame)?;
        match request {
            Message::ProbeLoad { .. } => *self.probe_rpcs += 1,
            Message::AdaptIndegree { .. } => *self.adapt_rpcs += 1,
            _ => {}
        }
        let Some(target) = self.nodes[to_idx].as_mut() else {
            return Err(TransportError::UnknownPeer(to));
        };
        target
            .on_message(request)
            .map_err(|e| TransportError::Peer(e.to_string()))
    }

    fn timer(&mut self, delay: SimDuration, kind: TimerKind) {
        let at = self.now + delay;
        let node = self.me;
        self.events.schedule(at, Work::Timer { node, kind });
    }
}

/// Digest of one wire-cluster run; integer fields plus the same digest
/// shapes `MiniReport` carries, so oracle comparisons are direct.
#[derive(Debug, Clone)]
pub struct WireReport {
    /// Platform + protocol name ("Chord", "Chord+ERT").
    pub protocol: String,
    /// Lookups answered `Found`.
    pub completed: u64,
    /// Lookups answered `Dropped`/`Failed` by a node.
    pub dropped: u64,
    /// Lookups the client abandoned after exhausting its retry budget.
    pub gave_up: u64,
    /// Lookups still unresolved when the event heap drained.
    pub unresolved: u64,
    /// Mean request path length in hops.
    pub mean_path_length: f64,
    /// Lookup time digest in seconds.
    pub lookup_time: Summary,
    /// 99th percentile over nodes of each node's maximum congestion.
    pub p99_max_congestion: f64,
    /// 99th percentile fair-share ratio.
    pub p99_share: f64,
    /// Heavy nodes encountered in routings.
    pub heavy_encounters: u64,
    /// `ProbeLoad` RPCs issued (control-message accounting).
    pub probe_rpcs: u64,
    /// `AdaptIndegree` RPCs issued (control-message accounting).
    pub adapt_rpcs: u64,
}

impl WireReport {
    /// Canonical rendering with float fields as exact bit patterns —
    /// equal strings mean bit-identical runs.
    pub fn canonical_string(&self) -> String {
        format!(
            "proto={};completed={};dropped={};gave_up={};unresolved={};hops={:016x};\
             lt_count={};lt_mean={:016x};lt_p99={:016x};p99g={:016x};p99s={:016x};\
             heavy={};probes={};adapt={}",
            self.protocol,
            self.completed,
            self.dropped,
            self.gave_up,
            self.unresolved,
            self.mean_path_length.to_bits(),
            self.lookup_time.count,
            self.lookup_time.mean.to_bits(),
            self.lookup_time.p99.to_bits(),
            self.p99_max_congestion.to_bits(),
            self.p99_share.to_bits(),
            self.heavy_encounters,
            self.probe_rpcs,
            self.adapt_rpcs,
        )
    }
}

/// A cluster of live in-memory-transport nodes plus the issuing client.
#[derive(Debug)]
pub struct WireCluster {
    cfg: MiniDhtConfig,
    protocol: MiniProtocol,
    /// Node `i` is member `i`.
    peers: PeerIndex,
    nodes: Vec<Option<WireNode>>,
    events: EventQueue<Work>,
    now: SimTime,
    faults: LinkFaults,
    retry: RetryPolicy,
    platform_rng: SimRng,
    trace: Option<RouteTrace>,
    started: Vec<SimTime>,
    resolved: Vec<bool>,
    attempts: Vec<u32>,
    sources: Vec<usize>,
    keys: Vec<u64>,
    pending: u64,
    lookup_times: Samples,
    path_lengths: Samples,
    completed: u64,
    dropped: u64,
    gave_up: u64,
    probe_rpcs: u64,
    adapt_rpcs: u64,
    build_rpcs: (u64, u64),
}

impl WireCluster {
    /// Builds the cluster and its routing tables over the wire.
    ///
    /// `members` must be sorted and distinct with `capacities` aligned
    /// to it — the same alignment `MiniDht::new` gets from its
    /// geometry. `spawn_order`, when given, permutes only the order in
    /// which node *structs* are instantiated; link construction always
    /// follows the platform build order (the seeded permutation the
    /// simulator draws), so spawn order can never change an outcome.
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
        let Some(peers) = PeerIndex::new(members.to_vec()) else {
            return Err("members must be sorted and distinct".into());
        };
        let ring = ert_overlay::ChordSpace::new(bits).ring_size();
        if members.last().is_some_and(|&last| last >= ring) {
            return Err(format!("members must lie on the {ring}-id ring"));
        }
        cfg.ert.validate().map_err(|e| e.to_string())?;
        retry.validate()?;
        let faults = LinkFaults::new(plan)?;
        let norm = normalize_capacities(capacities);
        let view = Arc::new(ChordGeometry::from_members(bits, members));
        let mut nodes: Vec<Option<WireNode>> = (0..n).map(|_| None).collect();
        let spawn: Vec<usize> = match spawn_order {
            Some(order) => {
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
                order.to_vec()
            }
            None => (0..n).collect(),
        };
        for &i in &spawn {
            let capacity_eval = max_indegree(cfg.ert.alpha, norm[i]);
            nodes[i] = Some(WireNode::with_view(
                members[i],
                Arc::clone(&view),
                capacities[i],
                capacity_eval,
                &cfg,
                protocol,
            ));
        }
        let mut cluster = WireCluster {
            cfg,
            protocol,
            peers,
            nodes,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            faults,
            retry,
            platform_rng: SimRng::seed_from(cfg.seed),
            trace: None,
            started: Vec::new(),
            resolved: Vec::new(),
            attempts: Vec::new(),
            sources: Vec::new(),
            keys: Vec::new(),
            pending: 0,
            lookup_times: Samples::new(),
            path_lengths: Samples::new(),
            completed: 0,
            dropped: 0,
            gave_up: 0,
            probe_rpcs: 0,
            adapt_rpcs: 0,
            build_rpcs: (0, 0),
        };
        // The platform's seeded build permutation — identical draws to
        // MiniDht::new, so table construction interleaves identically.
        let order = cluster.platform_rng.sample_indices(n, n);
        for i in order {
            cluster
                .with_node(i, |node, ctx| node.build_links(ctx))?
                .map_err(|e| format!("build_links({i}): {e}"))?;
        }
        cluster.build_rpcs = (cluster.probe_rpcs, cluster.adapt_rpcs);
        Ok(cluster)
    }

    /// `(ProbeLoad, AdaptIndegree)` RPCs table construction had issued
    /// when [`WireCluster::new`] returned. [`WireReport`]'s counters
    /// include them; the difference is what the run itself cost.
    pub fn build_rpcs(&self) -> (u64, u64) {
        self.build_rpcs
    }

    /// Switches on decision tracing for the next run.
    pub fn enable_trace(&mut self) {
        self.trace = Some(RouteTrace::default());
    }

    /// Takes the recorded trace.
    pub fn take_trace(&mut self) -> Option<RouteTrace> {
        self.trace.take()
    }

    /// Per-node routing-state fingerprints in member order, formatted
    /// exactly like `MiniDht::table_fingerprints`.
    pub fn table_fingerprints(&self) -> Vec<String> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| match n {
                Some(node) => node.fingerprint(),
                None => format!("id={};departed", self.peers.ids()[i]),
            })
            .collect()
    }

    /// Elastic indegree of every live node (for bound checks).
    pub fn indegrees(&self) -> Vec<(u64, u32, u32)> {
        self.nodes
            .iter()
            .flatten()
            .map(|n| (n.id(), n.indegree(), n.d_max()))
            .collect()
    }

    fn with_node<R>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut WireNode, &mut SwitchCtx) -> R,
    ) -> Result<R, String> {
        let Some(mut node) = self.nodes[idx].take() else {
            return Err(format!("node index {idx} is not live"));
        };
        let mut ctx = SwitchCtx {
            me: idx,
            me_id: node.id(),
            now: self.now,
            events: &mut self.events,
            faults: &mut self.faults,
            nodes: &mut self.nodes,
            peers: &self.peers,
            trace: &mut self.trace,
            probe_rpcs: &mut self.probe_rpcs,
            adapt_rpcs: &mut self.adapt_rpcs,
        };
        let out = f(&mut node, &mut ctx);
        self.nodes[idx] = Some(node);
        Ok(out)
    }

    /// Runs an explicit injection schedule of `(time, key)` pairs —
    /// the exact analogue of `MiniDht::run_schedule`.
    ///
    /// # Errors
    ///
    /// Propagates node protocol failures (impossible in fault-free
    /// runs; fault plans surface them as lost lookups instead).
    pub fn run_schedule(&mut self, schedule: &[(SimTime, u64)]) -> Result<WireReport, String> {
        let count = schedule.len();
        self.started = vec![SimTime::ZERO; count];
        self.resolved = vec![false; count];
        self.attempts = vec![0; count];
        self.sources = vec![0; count];
        self.keys = schedule.iter().map(|&(_, key)| key).collect();
        self.pending = count as u64;
        for (q, &(at, key)) in schedule.iter().enumerate() {
            self.events.schedule(
                at,
                Work::Inject {
                    query: q as u64,
                    key,
                },
            );
        }
        if self.protocol == MiniProtocol::ElasticErt {
            let at = self.now + self.cfg.ert.adaptation_period;
            self.events.schedule(at, Work::AdaptRound);
        }
        while self.pending > 0 {
            let Some((at, work)) = self.events.pop() else {
                break;
            };
            self.now = at;
            match work {
                Work::Inject { query, key } => self.on_inject(query, key)?,
                Work::Frame { to, bytes } => {
                    if to == CLIENT_ADDR {
                        self.on_client_frame(&bytes)?;
                    } else {
                        self.on_node_frame(to, &bytes)?;
                    }
                }
                Work::Timer { node, kind } => self.on_timer(node, kind)?,
                Work::AdaptRound => self.on_adapt_round()?,
                Work::Retry { query } => self.on_retry(query)?,
            }
        }
        Ok(self.report())
    }

    fn lookup_frame(&self, query: u64, key: u64, attempts: u32) -> Vec<u8> {
        encode(&Message::Lookup {
            query,
            key,
            hops: 0,
            attempts,
            flags: 0,
            avoid: Vec::new(),
        })
    }

    fn on_inject(&mut self, query: u64, key: u64) -> Result<(), String> {
        let n = self.peers.len();
        // Identical draw to the simulator's per-injection source pick.
        let source = self.platform_rng.fork("source").sample_indices(n, 1)[0];
        let q = query as usize;
        self.sources[q] = source;
        self.started[q] = self.now;
        let source_id = self.peers.ids()[source];
        if let Some(tr) = self.trace.as_mut() {
            tr.sources.push(source_id);
        }
        // The client hands the frame to its co-located source node
        // directly (no network crossing), mirroring the simulator's
        // synchronous inject→arrive call.
        let frame = self.lookup_frame(query, key, 0);
        self.with_node(source, |node, ctx| node.on_frame(ctx, &frame))?
            .map_err(|e| format!("inject {query}: {e}"))?;
        if self.retry.enabled() {
            let wait = self.retry.backoff(1);
            self.events.schedule(self.now + wait, Work::Retry { query });
        }
        Ok(())
    }

    fn on_node_frame(&mut self, to: u64, bytes: &[u8]) -> Result<(), String> {
        let Some(idx) = self.peers.index_of(to) else {
            return Ok(());
        };
        if self.nodes[idx].is_none() {
            // Departed peer: the datagram vanishes.
            return Ok(());
        }
        self.with_node(idx, |node, ctx| node.on_frame(ctx, bytes))?
            .map_err(|e| format!("frame to {to}: {e}"))
    }

    fn on_client_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
        let msg = decode(bytes).map_err(|e| e.to_string())?;
        let Message::LookupReply {
            query,
            status,
            owner: _,
            hops,
        } = msg
        else {
            return Err(format!("client received a non-reply frame: {msg:?}"));
        };
        let q = query as usize;
        if q >= self.resolved.len() || self.resolved[q] {
            // Duplicate terminal answer (a retry raced a slow reply).
            return Ok(());
        }
        self.resolved[q] = true;
        self.pending -= 1;
        match status {
            LookupStatus::Found => {
                self.completed += 1;
                self.lookup_times
                    .push((self.now - self.started[q]).as_secs_f64());
                self.path_lengths.push(f64::from(hops));
                if let Some(tr) = self.trace.as_mut() {
                    tr.completions.push(CompletionTrace {
                        query,
                        hops,
                        at_micros: self.now.as_micros(),
                    });
                }
            }
            LookupStatus::Dropped | LookupStatus::Failed => {
                if self.retry.enabled() {
                    // A failure reply is not terminal for a retrying
                    // client: leave the query unresolved and let the
                    // already-scheduled retry timer resend it (or give
                    // up when the attempt budget runs out).
                    self.resolved[q] = false;
                    self.pending += 1;
                    return Ok(());
                }
                self.dropped += 1;
                if let Some(tr) = self.trace.as_mut() {
                    tr.drops.push(query);
                }
            }
        }
        Ok(())
    }

    fn on_timer(&mut self, idx: usize, kind: TimerKind) -> Result<(), String> {
        if self.nodes[idx].is_none() {
            return Ok(());
        }
        let outcome = self
            .with_node(idx, |node, ctx| node.on_timer(ctx, kind))?
            .map_err(|e| format!("timer on node {idx}: {e}"))?;
        if let Some(adapt) = outcome {
            if let Some(tr) = self.trace.as_mut() {
                tr.adapts.push(adapt);
            }
        }
        Ok(())
    }

    fn on_adapt_round(&mut self) -> Result<(), String> {
        for i in 0..self.peers.len() {
            self.on_timer(i, TimerKind::AdaptTick)?;
        }
        // Reschedule iff work remains — the simulator's
        // `injections_left > 0 || outstanding > 0` is exactly "some
        // query is still unresolved".
        if self.pending > 0 {
            let at = self.now + self.cfg.ert.adaptation_period;
            self.events.schedule(at, Work::AdaptRound);
        }
        Ok(())
    }

    fn on_retry(&mut self, query: u64) -> Result<(), String> {
        let q = query as usize;
        if self.resolved[q] {
            return Ok(());
        }
        if self.attempts[q] + 1 >= self.retry.max_attempts {
            self.resolved[q] = true;
            self.pending -= 1;
            self.gave_up += 1;
            return Ok(());
        }
        self.attempts[q] += 1;
        let attempt = self.attempts[q];
        let frame = self.lookup_frame(query, self.keys[q], attempt);
        let source = self.sources[q];
        if self.nodes[source].is_some() {
            self.with_node(source, |node, ctx| node.on_frame(ctx, &frame))?
                .map_err(|e| format!("retry {query}: {e}"))?;
        }
        let wait = self.retry.backoff(attempt + 1);
        self.events.schedule(self.now + wait, Work::Retry { query });
        Ok(())
    }

    fn report(&mut self) -> WireReport {
        let live: Vec<&WireNode> = self.nodes.iter().flatten().collect();
        let max_g: Samples = live.iter().map(|n| n.ert.max_congestion()).collect();
        let total_load: f64 = live.iter().map(|n| n.ert.total_received() as f64).sum();
        let total_cap: f64 = live.iter().map(|n| n.raw_capacity).sum();
        let mut shares = Samples::new();
        if total_load > 0.0 {
            for n in &live {
                shares.push(
                    (n.ert.total_received() as f64 / total_load) / (n.raw_capacity / total_cap),
                );
            }
        }
        let heavy_encounters: u64 = live.iter().map(|n| n.ert.heavy_encounters()).sum();
        let suffix = match self.protocol {
            MiniProtocol::Classic => "",
            MiniProtocol::ElasticErt => "+ERT",
        };
        WireReport {
            protocol: format!("Chord{suffix}"),
            completed: self.completed,
            dropped: self.dropped,
            gave_up: self.gave_up,
            unresolved: self.pending,
            mean_path_length: self.path_lengths.mean(),
            lookup_time: self.lookup_times.summary(),
            p99_max_congestion: max_g.percentile(0.99),
            p99_share: shares.percentile(0.99),
            heavy_encounters,
            probe_rpcs: self.probe_rpcs,
            adapt_rpcs: self.adapt_rpcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ert_minidht::Geometry;
    use rand::Rng;

    const BITS: u8 = 8;

    /// Every live node reads node 0's view allocation.
    fn assert_one_view(cluster: &WireCluster) {
        let first = cluster.nodes[0].as_ref().expect("node 0 is live");
        for node in cluster.nodes.iter().flatten() {
            assert!(
                node.shares_view_with(first),
                "node {} holds a view of its own",
                node.id()
            );
        }
    }

    #[test]
    fn a_static_cluster_holds_one_view() {
        let members = ChordGeometry::populate(BITS, 40, &mut SimRng::seed_from(6)).members();
        let caps: Vec<f64> = (0..members.len())
            .map(|i| 600.0 + 250.0 * (i % 5) as f64)
            .collect();
        let mut cluster = WireCluster::new(
            MiniDhtConfig::defaults(BITS, 6),
            BITS,
            &members,
            &caps,
            MiniProtocol::ElasticErt,
            &FaultPlan::new(6),
            RetryPolicy::default(),
            None,
        )
        .expect("cluster construction");
        assert_one_view(&cluster);
        assert_eq!(
            cluster.nodes[0].as_ref().map(WireNode::members_view),
            Some(members)
        );

        let mut rng = SimRng::seed_from(6).fork("schedule");
        let schedule: Vec<(SimTime, u64)> = (0..300u64)
            .map(|i| SimTime::from_micros(i * 40_000))
            .map(|at| (at, rng.gen_range(0..1 << BITS)))
            .collect();
        let report = cluster.run_schedule(&schedule).expect("fault-free run");
        assert_eq!(report.completed, 300);
        assert!(
            report.adapt_rpcs > cluster.build_rpcs().1,
            "adaptation rounds ran and linked over the wire"
        );
        assert_one_view(&cluster);
    }
}
