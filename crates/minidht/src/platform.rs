//! The one deterministic driver of [`ErtNode`]s: event engine, the
//! client's query table, the trace and the report. How a node's
//! messages reach the far end is the driver's [`Link`].

use std::collections::BTreeSet;

use ert_core::node::{
    AdaptTrace, ErtNode, Geometry, Hop, Lookup, MiniDhtConfig, MiniProtocol, PeerAnswer, PeerOp,
    RouteScratch, Step, Task,
};
use ert_core::{max_indegree, normalize_capacities};
use ert_faults::RetryPolicy;
use ert_sim::stats::{Samples, Summary};
use ert_sim::{Engine, SimDuration, SimRng, SimTime};
use rand::Rng;
use serde::Serialize;

use crate::peer_index::PeerIndex;

/// Digest of one driver run.
#[derive(Debug, Clone, Serialize)]
pub struct MiniReport {
    /// Platform + protocol name ("Chord+ERT", "Pastry", ...).
    pub protocol: String,
    /// Lookups completed.
    pub completed: u64,
    /// Lookups whose final answer was `Dropped` or `Failed`.
    pub dropped: u64,
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
    /// Lookups the client abandoned after its last resend.
    #[serde(skip)]
    pub gave_up: u64,
    /// Lookups still unanswered when the event queue drained.
    #[serde(skip)]
    pub unresolved: u64,
    /// `ProbeLoad` RPCs the link carried (0 on [`Direct`]).
    #[serde(skip)]
    pub probe_rpcs: u64,
    /// `AdaptIndegree` RPCs the link carried (0 on [`Direct`]).
    #[serde(skip)]
    pub adapt_rpcs: u64,
}

impl MiniReport {
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

/// One forwarding decision: query `query` was sent from node `from` to
/// node `to`. Recorded at the moment the hop is committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopTrace {
    /// Query index in injection order.
    pub query: u64,
    /// Ring id of the forwarding node.
    pub from: u64,
    /// Ring id of the chosen next hop.
    pub to: u64,
}

/// Terminal record of a completed lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionTrace {
    /// Query index in injection order.
    pub query: u64,
    /// Hops taken end to end.
    pub hops: u32,
    /// Completion time in integer microseconds of simulated time.
    pub at_micros: u64,
}

/// Complete decision trace of one run: every source draw, every per-hop
/// routing decision, every completion/drop, and the full
/// indegree-adaptation sequence. All fields are integers so equality is
/// exact — this is what the wire differential oracle compares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTrace {
    /// Ring id of the source node of each query, in injection order.
    pub sources: Vec<u64>,
    /// Every forwarding decision, in commit order.
    pub hops: Vec<HopTrace>,
    /// Every completion, in completion order.
    pub completions: Vec<CompletionTrace>,
    /// Query indices a node answered `Dropped` or `Failed`, in answer
    /// order.
    pub drops: Vec<u64>,
    /// Indegree-adaptation outcomes, in round then node-index order.
    pub adapts: Vec<AdaptTrace>,
}

/// A lookup's end on its way from the node that decided it to the
/// client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Query index.
    pub query: u64,
    /// How the lookup ended: `Found`, `Dropped` or `Failed`, never
    /// `Next`.
    pub hop: Hop,
    /// Ring id of the answering node, the key's owner when `Found`.
    pub owner: u64,
    /// Hops taken.
    pub hops: u32,
}

/// How a node's messages reach the far end: the three crossings a node
/// makes, each handed over by the driver at the point the node makes
/// it. Nodes are named by their index in the driver's node vector.
///
/// A link decides what a crossing costs and whether it arrives; the
/// driver decides what happens next, the same way on every link.
pub trait Link {
    /// Carries node `from`'s ask `op` to node `to`, which is `peer`,
    /// and returns the answer. `token` is the query a route's probe is
    /// made for, or 0.
    fn ask(
        &mut self,
        now: SimTime,
        from: usize,
        to: usize,
        peer: &mut ErtNode,
        op: PeerOp,
        token: u64,
    ) -> PeerAnswer;

    /// Carries `lookup` from node `from` to node `to`; `None` if it is
    /// lost on the way.
    fn forward(&mut self, now: SimTime, from: usize, to: usize, lookup: Lookup) -> Option<Lookup>;

    /// Carries node `from`'s `reply` to the client; `None` if it is
    /// lost on the way.
    fn reply(&mut self, now: SimTime, from: usize, reply: Reply) -> Option<Reply>;
}

/// The link inside one process: an ask is the peer's `serve`, called
/// between two steps of the asking task, and nothing is lost.
#[derive(Debug, Clone, Copy)]
pub struct Direct;

impl Link for Direct {
    #[inline]
    fn ask(
        &mut self,
        _: SimTime,
        _: usize,
        _: usize,
        peer: &mut ErtNode,
        op: PeerOp,
        _: u64,
    ) -> PeerAnswer {
        PeerAnswer::Report(peer.serve(op))
    }

    #[inline]
    fn forward(&mut self, _: SimTime, _: usize, _: usize, lookup: Lookup) -> Option<Lookup> {
        Some(lookup)
    }

    #[inline]
    fn reply(&mut self, _: SimTime, _: usize, reply: Reply) -> Option<Reply> {
        Some(reply)
    }
}

#[derive(Debug)]
enum Ev {
    Inject { query: u64 },
    Arrive { lookup: Lookup, to: usize },
    Done { node: usize, q: u64 },
    Reply(Reply),
    Adapt,
    Resend { query: u64 },
}

/// The client's record of one query of the running schedule.
#[derive(Debug, Clone, Copy)]
struct Query {
    key: u64,
    source: usize,
    started: SimTime,
    /// Resends so far.
    attempts: u32,
    resolved: bool,
}

/// The driver: a geometry, the Table 2 queueing model, one [`ErtNode`]
/// per member and the client that injects lookups, hears their answers
/// and resends on its [`RetryPolicy`], all on one event engine. A
/// node's ask is answered, and its lookups and answers are carried, by
/// the driver's [`Link`].
#[derive(Debug)]
pub struct MiniDht<G: Geometry, L: Link = Direct> {
    cfg: MiniDhtConfig,
    protocol: MiniProtocol,
    geometry: G,
    /// Node `i` is the member at position `i` of the geometry's list.
    peers: PeerIndex,
    nodes: Vec<ErtNode>,
    capacities: Vec<f64>,
    link: L,
    retry: RetryPolicy,
    engine: Engine<Ev>,
    rng: SimRng,
    decide_rngs: Option<Vec<SimRng>>,
    /// The buffers every node's hop works in: one per driver, since a
    /// hop leaves nothing in them for the next.
    route_scratch: RouteScratch,
    /// One entry per query of the running schedule.
    queries: Vec<Query>,
    /// Queries without a final answer.
    pending: u64,
    lookup_times: Samples,
    path_lengths: Samples,
    dropped: u64,
    gave_up: u64,
    trace: Option<RouteTrace>,
}

impl<G: Geometry> MiniDht<G> {
    /// Builds the platform on the [`Direct`] link, with a client that
    /// never resends: one node per capacity mapped onto the geometry's
    /// members, tables per protocol.
    ///
    /// # Errors
    ///
    /// Returns a message when the capacity list does not match the
    /// geometry's population, the geometry's members do not ascend, or
    /// the parameters are invalid.
    pub fn new(
        cfg: MiniDhtConfig,
        geometry: G,
        capacities: &[f64],
        protocol: MiniProtocol,
    ) -> Result<MiniDht<G>, String> {
        MiniDht::with_link(
            cfg,
            geometry,
            capacities,
            protocol,
            RetryPolicy::default(),
            Direct,
        )
    }
}

impl<G: Geometry, L: Link> MiniDht<G, L> {
    /// [`MiniDht::new`] on `link`, with a client that resends on
    /// `retry`: the tables are built over the link. Under a retry
    /// budget a node's failure answer is not final; the next resend
    /// tries again, or the client gives up after its last.
    ///
    /// # Errors
    ///
    /// As [`MiniDht::new`], and an invalid `retry`.
    pub fn with_link(
        cfg: MiniDhtConfig,
        geometry: G,
        capacities: &[f64],
        protocol: MiniProtocol,
        retry: RetryPolicy,
        link: L,
    ) -> Result<MiniDht<G, L>, String> {
        let members = geometry.members();
        if members.len() != capacities.len() {
            return Err(format!(
                "geometry has {} members but {} capacities were given",
                members.len(),
                capacities.len()
            ));
        }
        cfg.ert.validate().map_err(|e| e.to_string())?;
        retry.validate()?;
        let norm = normalize_capacities(capacities);
        let nodes: Vec<ErtNode> = members
            .iter()
            .zip(&norm)
            .map(|(&id, &nc)| ErtNode::new(id, max_indegree(cfg.ert.alpha, nc), protocol))
            .collect();
        let peers = PeerIndex::new(members)
            .ok_or_else(|| format!("{} members must ascend", geometry.name()))?;
        let mut net = MiniDht {
            cfg,
            protocol,
            geometry,
            peers,
            nodes,
            capacities: capacities.to_vec(),
            link,
            retry,
            engine: Engine::new(),
            rng: SimRng::seed_from(cfg.seed),
            decide_rngs: None,
            route_scratch: RouteScratch::default(),
            queries: Vec::new(),
            pending: 0,
            lookup_times: Samples::new(),
            path_lengths: Samples::new(),
            dropped: 0,
            gave_up: 0,
            trace: None,
        };
        let order = net.rng.sample_indices(net.nodes.len(), net.nodes.len());
        for i in order {
            let build = net.nodes[i].build(&net.geometry, &net.cfg);
            let (nodes, peers, link) = (&mut net.nodes, &net.peers, &mut net.link);
            run(nodes, peers, link, SimTime::ZERO, i, 0, build);
        }
        Ok(net)
    }

    /// Read access to the geometry.
    pub fn geometry(&self) -> &G {
        &self.geometry
    }

    /// Read access to the link.
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Elastic indegree of every node (for bound checks).
    pub fn indegrees(&self) -> Vec<(u64, u32, u32)> {
        self.nodes
            .iter()
            .map(|n| (n.id(), n.indegree(), n.d_max()))
            .collect()
    }

    /// Switches on decision tracing: the next run records every source
    /// draw, routing hop, completion/drop, and adaptation action into a
    /// [`RouteTrace`] retrievable with [`MiniDht::take_trace`].
    pub fn enable_trace(&mut self) {
        self.trace = Some(RouteTrace::default());
    }

    /// Takes the trace recorded since [`MiniDht::enable_trace`].
    pub fn take_trace(&mut self) -> Option<RouteTrace> {
        self.trace.take()
    }

    /// Switches forwarding decisions from the shared platform RNG to
    /// per-node streams (`seed ^ id`, forked as `"decide"`). Live wire
    /// nodes hold exactly these streams, so with this enabled the
    /// simulator's routing choices are bit-reproducible by a cluster of
    /// independent nodes. Off by default: the legacy shared-stream
    /// behavior stays byte-identical for every existing caller.
    pub fn use_node_decision_rngs(&mut self) {
        let seed = self.cfg.seed;
        self.decide_rngs = Some(
            self.nodes
                .iter()
                .map(|n| SimRng::seed_from(seed ^ n.id()).fork("decide"))
                .collect(),
        );
    }

    /// Canonical per-node routing-table fingerprints (sorted by node
    /// index); see [`ErtNode::fingerprint`]. Two platforms with equal
    /// fingerprints hold identical routing state.
    pub fn table_fingerprints(&self) -> Vec<String> {
        self.nodes.iter().map(ErtNode::fingerprint).collect()
    }

    /// Draws a Poisson arrival schedule from the platform's `"workload"`
    /// fork: `count` (time, key) pairs at `rate_per_sec` aggregate.
    /// Splitting the draw from [`MiniDht::run_schedule`] lets the wire
    /// oracle feed the *same* schedule to a live cluster.
    pub fn poisson_schedule(&mut self, count: usize, rate_per_sec: f64) -> Vec<(SimTime, u64)> {
        let mut t = SimTime::ZERO;
        let mut wl = self.rng.fork("workload");
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            t += SimDuration::from_secs_f64(wl.exp_secs(rate_per_sec));
            let key = self.geometry.random_key(&mut wl);
            out.push((t, key));
        }
        out
    }

    /// Runs `count` uniform Poisson lookups at `rate_per_sec` aggregate.
    pub fn run_poisson(&mut self, count: usize, rate_per_sec: f64) -> MiniReport {
        let schedule = self.poisson_schedule(count, rate_per_sec);
        self.run_schedule(&schedule)
    }

    /// Runs an explicit injection schedule of `(time, key)` pairs
    /// (monotone non-decreasing times); query `q` is the schedule's
    /// `q`-th entry. Source nodes are drawn per injection from the
    /// platform's `"source"` fork, exactly as in [`MiniDht::run_poisson`].
    /// The run ends once every query has its final answer.
    pub fn run_schedule(&mut self, schedule: &[(SimTime, u64)]) -> MiniReport {
        self.queries = schedule
            .iter()
            .map(|&(_, key)| Query {
                key,
                source: 0,
                started: SimTime::ZERO,
                attempts: 0,
                resolved: false,
            })
            .collect();
        self.pending = schedule.len() as u64;
        for (q, &(at, _)) in schedule.iter().enumerate() {
            let query = q as u64;
            self.engine.schedule_at(at, Ev::Inject { query });
        }
        if self.protocol == MiniProtocol::ElasticErt {
            self.engine
                .schedule_in(self.cfg.ert.adaptation_period, Ev::Adapt);
        }
        while self.pending > 0 {
            let Some((now, ev)) = self.engine.pop() else {
                break;
            };
            match ev {
                Ev::Inject { query } => self.on_inject(query, now),
                Ev::Arrive { lookup, to } => self.arrive(to, lookup, now),
                Ev::Done { node, q } => self.on_done(node, q, now),
                Ev::Reply(reply) => self.on_reply(reply, now),
                Ev::Adapt => self.on_adapt(now),
                Ev::Resend { query } => self.on_resend(query, now),
            }
        }
        self.report()
    }

    fn report(&self) -> MiniReport {
        let max_g: Samples = self.nodes.iter().map(ErtNode::max_congestion).collect();
        let total_load: f64 = self.nodes.iter().map(|n| n.total_received() as f64).sum();
        let total_cap: f64 = self.capacities.iter().sum();
        let mut shares = Samples::new();
        if total_load > 0.0 {
            for (n, raw) in self.nodes.iter().zip(&self.capacities) {
                shares.push((n.total_received() as f64 / total_load) / (raw / total_cap));
            }
        }
        let suffix = match self.protocol {
            MiniProtocol::Classic => "",
            MiniProtocol::ElasticErt => "+ERT",
        };
        MiniReport {
            protocol: format!("{}{suffix}", self.geometry.name()),
            completed: self.lookup_times.len() as u64,
            dropped: self.dropped,
            mean_path_length: self.path_lengths.mean(),
            lookup_time: self.lookup_times.summary(),
            p99_max_congestion: max_g.percentile(0.99),
            p99_share: shares.percentile(0.99),
            heavy_encounters: self.nodes.iter().map(ErtNode::heavy_encounters).sum(),
            gave_up: self.gave_up,
            unresolved: self.pending,
            probe_rpcs: 0,
            adapt_rpcs: 0,
        }
    }

    /// The client hands a query to its source node, which shares its
    /// process: no link is crossed.
    fn on_inject(&mut self, query: u64, now: SimTime) {
        // One index drawn directly: the same draw as the first of a
        // partial Fisher–Yates, without its O(n) list.
        let source = self.rng.fork("source").gen_range(0..self.nodes.len());
        let entry = &mut self.queries[query as usize];
        entry.source = source;
        entry.started = now;
        if let Some(tr) = self.trace.as_mut() {
            tr.sources.push(self.nodes[source].id());
        }
        self.send(query, now);
    }

    /// Hands `query` to its source node, as it stands in the query
    /// table, and arms the client's timer for the answer.
    fn send(&mut self, query: u64, now: SimTime) {
        let Query {
            key,
            source,
            attempts,
            ..
        } = self.queries[query as usize];
        let lookup = Lookup {
            query,
            key,
            hops: 0,
            attempts,
            numeric_mode: false,
            avoid: BTreeSet::new(),
        };
        self.arrive(source, lookup, now);
        if self.retry.enabled() {
            let wait = self.retry.backoff(attempts + 1);
            self.engine.schedule_at(now + wait, Ev::Resend { query });
        }
    }

    fn arrive(&mut self, node: usize, lookup: Lookup, now: SimTime) {
        let q = lookup.query;
        if let Some(service) = self.nodes[node].arrive(lookup, &self.cfg) {
            self.engine.schedule_at(now + service, Ev::Done { node, q });
        }
    }

    fn on_done(&mut self, node: usize, q: u64, now: SimTime) {
        let Some((mut lookup, next)) = self.nodes[node].service_done(q, &self.cfg) else {
            return;
        };
        // The next service is scheduled before the hop is committed, as
        // a live node arms its next timer before it sends.
        if let Some((q, service)) = next {
            self.engine.schedule_at(now + service, Ev::Done { node, q });
        }
        let rng = match self.decide_rngs.as_mut() {
            Some(streams) => &mut streams[node],
            None => &mut self.rng,
        };
        let scratch = &mut self.route_scratch;
        let route = self.nodes[node].route(&self.geometry, &self.cfg, &mut lookup, rng, scratch);
        let (nodes, peers, link) = (&mut self.nodes, &self.peers, &mut self.link);
        let hop = run(nodes, peers, link, now, node, q, route);
        let id = self.nodes[node].id();
        if let Hop::Next(to) = hop {
            // Recorded before the link can lose the lookup: the trace
            // holds decisions.
            if let Some(tr) = self.trace.as_mut() {
                tr.hops.push(HopTrace {
                    query: q,
                    from: id,
                    to,
                });
            }
            // A lookup sent to an id the driver does not host vanishes.
            let Some(to) = self.peers.index_of(to) else {
                return;
            };
            if let Some(lookup) = self.link.forward(now, node, to, lookup) {
                self.engine.schedule_at(now, Ev::Arrive { lookup, to });
            }
            return;
        }
        let reply = Reply {
            query: q,
            hop,
            owner: id,
            hops: lookup.hops,
        };
        if let Some(reply) = self.link.reply(now, node, reply) {
            self.engine.schedule_at(now, Ev::Reply(reply));
        }
    }

    /// A failure answer is final only for a client that never resends.
    fn on_reply(&mut self, reply: Reply, now: SimTime) {
        let Some(entry) = self.queries.get_mut(reply.query as usize) else {
            return;
        };
        if entry.resolved {
            // A second answer: a resend raced a slow reply.
            return;
        }
        if reply.hop == Hop::Found {
            entry.resolved = true;
            self.pending -= 1;
            self.lookup_times.push((now - entry.started).as_secs_f64());
            self.path_lengths.push(f64::from(reply.hops));
            if let Some(tr) = self.trace.as_mut() {
                tr.completions.push(CompletionTrace {
                    query: reply.query,
                    hops: reply.hops,
                    at_micros: now.as_micros(),
                });
            }
        } else if !self.retry.enabled() {
            entry.resolved = true;
            self.pending -= 1;
            self.dropped += 1;
            if let Some(tr) = self.trace.as_mut() {
                tr.drops.push(reply.query);
            }
        }
    }

    fn on_adapt(&mut self, now: SimTime) {
        for i in 0..self.nodes.len() {
            let task = self.nodes[i].adapt(&self.geometry, &self.cfg);
            let (nodes, peers, link) = (&mut self.nodes, &self.peers, &mut self.link);
            let adapt = run(nodes, peers, link, now, i, 0, task);
            if let Some(tr) = self.trace.as_mut() {
                tr.adapts.push(adapt);
            }
        }
        if self.pending > 0 {
            self.engine
                .schedule_in(self.cfg.ert.adaptation_period, Ev::Adapt);
        }
    }

    fn on_resend(&mut self, query: u64, now: SimTime) {
        let entry = &mut self.queries[query as usize];
        if entry.resolved {
            return;
        }
        if entry.attempts + 1 >= self.retry.max_attempts {
            entry.resolved = true;
            self.pending -= 1;
            self.gave_up += 1;
            return;
        }
        entry.attempts += 1;
        self.send(query, now);
    }
}

/// Steps node `i`'s `task` to its end. Each ask goes over `link`, in
/// issue order; an id the driver does not host, node `i` included, is
/// unknown. `token` is the query a route's probes are made for, or 0.
fn run<T: Task, L: Link>(
    nodes: &mut [ErtNode],
    peers: &PeerIndex,
    link: &mut L,
    now: SimTime,
    i: usize,
    token: u64,
    mut task: T,
) -> T::Out {
    let mut answer = None;
    loop {
        match task.step(&mut nodes[i], answer) {
            Step::Done(out) => return out,
            Step::Ask { peer, op } => {
                answer = Some(match peers.index_of(peer) {
                    Some(j) if j != i => link.ask(now, i, j, &mut nodes[j], op, token),
                    _ => PeerAnswer::Unknown,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChordGeometry, CycloidGeometry, PastryGeometry};
    use std::collections::BTreeMap;

    fn caps(n: usize) -> Vec<f64> {
        (0..n).map(|i| 500.0 + 400.0 * (i % 6) as f64).collect()
    }

    fn chord(n: usize, seed: u64) -> ChordGeometry {
        ChordGeometry::populate(10, n, &mut SimRng::seed_from(seed))
    }

    fn pastry(n: usize, seed: u64) -> PastryGeometry {
        PastryGeometry::populate(6, 2, n, &mut SimRng::seed_from(seed))
    }

    #[test]
    fn classic_chord_completes_lookups() {
        let cfg = MiniDhtConfig::defaults(10, 1);
        let mut net = MiniDht::new(cfg, chord(200, 1), &caps(200), MiniProtocol::Classic).unwrap();
        let r = net.run_poisson(400, 200.0);
        assert_eq!(r.completed, 400, "dropped {}", r.dropped);
        assert!(r.mean_path_length > 1.0 && r.mean_path_length < 12.0);
        assert_eq!(r.protocol, "Chord");
    }

    #[test]
    fn elastic_chord_completes_lookups() {
        let cfg = MiniDhtConfig::defaults(10, 2);
        let mut net =
            MiniDht::new(cfg, chord(200, 2), &caps(200), MiniProtocol::ElasticErt).unwrap();
        let r = net.run_poisson(400, 200.0);
        assert_eq!(r.completed, 400, "dropped {}", r.dropped);
        assert_eq!(r.protocol, "Chord+ERT");
    }

    #[test]
    fn classic_pastry_completes_lookups() {
        let cfg = MiniDhtConfig::defaults(12, 3);
        let mut net = MiniDht::new(cfg, pastry(200, 3), &caps(200), MiniProtocol::Classic).unwrap();
        let r = net.run_poisson(400, 200.0);
        assert_eq!(r.completed, 400, "dropped {}", r.dropped);
        assert!(
            r.mean_path_length < 8.0,
            "prefix paths are short: {}",
            r.mean_path_length
        );
        assert_eq!(r.protocol, "Pastry");
    }

    #[test]
    fn elastic_pastry_completes_lookups() {
        let cfg = MiniDhtConfig::defaults(12, 4);
        let mut net =
            MiniDht::new(cfg, pastry(200, 4), &caps(200), MiniProtocol::ElasticErt).unwrap();
        let r = net.run_poisson(400, 200.0);
        assert_eq!(r.completed, 400, "dropped {}", r.dropped);
        assert_eq!(r.protocol, "Pastry+ERT");
    }

    #[test]
    fn ert_reduces_congestion_on_every_geometry() {
        let caps = caps(256);
        {
            let seed = 5u64;
            let cfg = MiniDhtConfig::defaults(11, seed);
            let mut classic = MiniDht::new(
                cfg,
                ChordGeometry::populate(11, 256, &mut SimRng::seed_from(seed)),
                &caps,
                MiniProtocol::Classic,
            )
            .unwrap();
            let rc = classic.run_poisson(1200, 256.0);
            let mut elastic = MiniDht::new(
                cfg,
                ChordGeometry::populate(11, 256, &mut SimRng::seed_from(seed)),
                &caps,
                MiniProtocol::ElasticErt,
            )
            .unwrap();
            let re = elastic.run_poisson(1200, 256.0);
            assert!(
                re.p99_max_congestion <= rc.p99_max_congestion,
                "chord: ERT {} vs classic {}",
                re.p99_max_congestion,
                rc.p99_max_congestion
            );
            let pcfg = MiniDhtConfig::defaults(12, seed);
            let mut pc = MiniDht::new(
                pcfg,
                PastryGeometry::populate(6, 2, 256, &mut SimRng::seed_from(seed)),
                &caps,
                MiniProtocol::Classic,
            )
            .unwrap();
            let rpc = pc.run_poisson(1200, 256.0);
            let mut pe = MiniDht::new(
                pcfg,
                PastryGeometry::populate(6, 2, 256, &mut SimRng::seed_from(seed)),
                &caps,
                MiniProtocol::ElasticErt,
            )
            .unwrap();
            let rpe = pe.run_poisson(1200, 256.0);
            assert!(
                rpe.p99_max_congestion <= rpc.p99_max_congestion,
                "pastry: ERT {} vs classic {}",
                rpe.p99_max_congestion,
                rpc.p99_max_congestion
            );
            let ccfg = MiniDhtConfig::defaults(6, seed);
            let cycloid = || CycloidGeometry::populate(6, 256, &mut SimRng::seed_from(seed));
            let mut cc = MiniDht::new(ccfg, cycloid(), &caps, MiniProtocol::Classic).unwrap();
            let rcc = cc.run_poisson(1200, 256.0);
            let mut ce = MiniDht::new(ccfg, cycloid(), &caps, MiniProtocol::ElasticErt).unwrap();
            let rce = ce.run_poisson(1200, 256.0);
            assert!(
                rce.p99_max_congestion <= rcc.p99_max_congestion,
                "cycloid: ERT {} vs classic {}",
                rce.p99_max_congestion,
                rcc.p99_max_congestion
            );
        }
    }

    #[test]
    fn elastic_indegrees_respect_bounds_strictly() {
        let cfg = MiniDhtConfig::defaults(10, 6);
        let net = MiniDht::new(cfg, chord(150, 6), &caps(150), MiniProtocol::ElasticErt).unwrap();
        for (id, indegree, d_max) in net.indegrees() {
            assert!(indegree <= d_max, "node {id:#b}: {indegree} > {d_max}");
        }
        let pcfg = MiniDhtConfig::defaults(12, 6);
        let pnet =
            MiniDht::new(pcfg, pastry(150, 6), &caps(150), MiniProtocol::ElasticErt).unwrap();
        for (id, indegree, d_max) in pnet.indegrees() {
            assert!(
                indegree <= d_max,
                "pastry node {id:#x}: {indegree} > {d_max}"
            );
        }
    }

    /// ROADMAP item 9(d)'s symmetry oracle on a quiescent driver: every
    /// node's backward fingers are distinct, and are exactly the peers
    /// that hold it in a non-structural slot.
    fn assert_double_links_symmetric<G: Geometry>(net: &MiniDht<G>) {
        let mut holders: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for node in &net.nodes {
            for (slot, target) in node.table().iter_outlinks() {
                if !net.geometry.is_structural(slot) {
                    holders.entry(target).or_default().insert(node.id());
                }
            }
        }
        let mut fingers = 0;
        for node in &net.nodes {
            let recorded = node.table().backward_fingers();
            let back: BTreeSet<u64> = recorded.iter().copied().collect();
            assert_eq!(
                back.len(),
                recorded.len(),
                "node {}: {recorded:?}",
                node.id()
            );
            let held_by = holders.remove(&node.id()).unwrap_or_default();
            assert_eq!(back, held_by, "node {}", node.id());
            fingers += back.len();
        }
        assert!(holders.is_empty(), "links to non-members: {holders:?}");
        assert!(fingers > net.nodes.len(), "only {fingers} links");
    }

    #[test]
    fn pastry_double_links_are_symmetric_after_build_and_after_a_run() {
        for seed in [11, 12, 13] {
            let cfg = MiniDhtConfig::defaults(12, seed);
            let mut net =
                MiniDht::new(cfg, pastry(200, seed), &caps(200), MiniProtocol::ElasticErt).unwrap();
            assert_double_links_symmetric(&net);
            net.enable_trace();
            // Busy enough that nodes shed as well as grow.
            let r = net.run_poisson(1500, 1500.0);
            assert_eq!(r.completed, 1500, "dropped {}", r.dropped);
            let adapts = net.take_trace().unwrap().adapts;
            assert!(adapts.iter().any(|a| a.delta < 0), "seed {seed}: no shed");
            assert!(adapts.iter().any(|a| a.delta > 0), "seed {seed}: no grow");
            assert_double_links_symmetric(&net);
        }
    }

    /// The presence filter is live: on a Chord run that builds, grows
    /// and sheds, most inserts — `AddOutlink` serves and the build's own
    /// picks — find their id's bit clear and skip the slot scan.
    #[test]
    fn a_chord_run_takes_the_filters_fast_path_on_most_inserts() {
        let cfg = MiniDhtConfig::defaults(16, 21);
        let geometry = ChordGeometry::populate(16, 512, &mut SimRng::seed_from(21));
        let mut net = MiniDht::new(cfg, geometry, &caps(512), MiniProtocol::ElasticErt).unwrap();
        net.enable_trace();
        let r = net.run_poisson(3000, 1500.0);
        assert_eq!(r.completed, 3000, "dropped {}", r.dropped);
        let adapts = net.take_trace().unwrap().adapts;
        assert!(adapts.iter().any(|a| a.delta < 0), "no shed");
        assert!(adapts.iter().any(|a| a.delta > 0), "no grow");
        let [clear, set] = net
            .nodes
            .iter()
            .fold([0, 0], |[c, s], n| [c + n.inserts()[0], s + n.inserts()[1]]);
        assert!(clear + set > 50 * 512, "only {} inserts", clear + set);
        assert!(clear > 4 * set, "{clear} fast, {set} scanned");
    }

    #[test]
    fn capacity_count_mismatch_rejected() {
        let cfg = MiniDhtConfig::defaults(10, 7);
        assert!(MiniDht::new(cfg, chord(100, 7), &caps(99), MiniProtocol::Classic).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let cfg = MiniDhtConfig::defaults(10, 8);
            let mut net =
                MiniDht::new(cfg, chord(100, 8), &caps(100), MiniProtocol::ElasticErt).unwrap();
            net.run_poisson(200, 100.0)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.lookup_time.mean, b.lookup_time.mean);
        assert_eq!(a.heavy_encounters, b.heavy_encounters);
    }
}
