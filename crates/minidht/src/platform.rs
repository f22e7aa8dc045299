//! The mini queueing simulator: the driver of a vector of
//! [`ErtNode`]s (event engine, query and trace bookkeeping, report).

use std::collections::{BTreeMap, BTreeSet};

use ert_core::{max_indegree, normalize_capacities, ErtParams};
use ert_sim::stats::{Samples, Summary};
use ert_sim::{Engine, SimDuration, SimRng, SimTime};
use serde::Serialize;

use crate::geometry::Geometry;
use crate::node::{ErtNode, Hop, Lookup, PeerAnswer, PeerOp, Window};

/// Which protocol a mini platform runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiniProtocol {
    /// The geometry's classic table (one neighbor per slot) with
    /// deterministic greedy routing.
    Classic,
    /// The full ERT mechanism: capacity-bounded indegree assignment and
    /// expansion, periodic adaptation, b-way forwarding with memory.
    ElasticErt,
}

/// Configuration of a mini-platform run (Table 2 queueing defaults).
#[derive(Debug, Clone, Copy)]
pub struct MiniDhtConfig {
    /// Master seed.
    pub seed: u64,
    /// Service time of a light node (heavy is 5×).
    pub light_service: SimDuration,
    /// Service time of a heavy node.
    pub heavy_service: SimDuration,
    /// ERT parameters; `alpha` defaults to `scale_hint + 3` by analogy
    /// with the paper's `d + 3`.
    pub ert: ErtParams,
    /// Hop-limit safety valve.
    pub max_hops: u32,
}

impl MiniDhtConfig {
    /// Defaults; `scale_hint` plays the role of the overlay dimension
    /// in the `α = d + 3` rule (use the Chord bit width or the Pastry
    /// digit count × digit width).
    pub fn defaults(scale_hint: u8, seed: u64) -> Self {
        MiniDhtConfig {
            seed,
            light_service: SimDuration::from_secs_f64(0.2),
            heavy_service: SimDuration::from_secs_f64(1.0),
            ert: ErtParams {
                alpha: scale_hint as f64 + 3.0,
                ..ErtParams::default()
            },
            max_hops: 64 + 8 * scale_hint as u32,
        }
    }
}

/// Digest of one mini-platform run.
#[derive(Debug, Clone, Serialize)]
pub struct MiniReport {
    /// Platform + protocol name ("Chord+ERT", "Pastry", ...).
    pub protocol: String,
    /// Lookups completed.
    pub completed: u64,
    /// Lookups dropped at the hop limit.
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

/// One node's indegree-adaptation outcome in one adaptation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptTrace {
    /// Adaptation round counter (0-based).
    pub round: u32,
    /// Ring id of the adapting node.
    pub node: u64,
    /// Signed indegree delta requested: `-shed` (post-clamp) for Shed,
    /// the raw grow amount for Grow, `0` for Keep.
    pub delta: i64,
    /// The node's `d_max` after applying the action.
    pub d_max: u32,
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
    /// Query indices dropped (hop limit or no owner), in drop order.
    pub drops: Vec<u64>,
    /// Indegree-adaptation outcomes, in round then node-index order.
    pub adapts: Vec<AdaptTrace>,
}

#[derive(Debug)]
enum Ev {
    Inject { key: u64 },
    Arrive { lookup: Lookup, to: u64 },
    Done { node: usize, q: u64 },
    Adapt,
}

/// The mini platform: a geometry plus the Table 2 queueing model. It
/// is the driver of a vector of [`ErtNode`]s — event engine, query and
/// trace bookkeeping, the report — and reaches a node's peers by
/// indexing that vector.
#[derive(Debug)]
pub struct MiniDht<G: Geometry> {
    cfg: MiniDhtConfig,
    protocol: MiniProtocol,
    geometry: G,
    id_map: BTreeMap<u64, usize>,
    nodes: Vec<ErtNode>,
    capacities: Vec<f64>,
    engine: Engine<Ev>,
    /// Injection time of each query, in injection order.
    started: Vec<SimTime>,
    rng: SimRng,
    outstanding: u64,
    injections_left: u64,
    lookup_times: Samples,
    path_lengths: Samples,
    dropped: u64,
    trace: Option<RouteTrace>,
    decide_rngs: Option<Vec<SimRng>>,
}

impl<G: Geometry> MiniDht<G> {
    /// Builds the platform: one node per capacity mapped onto the
    /// geometry's members, tables per protocol.
    ///
    /// # Errors
    ///
    /// Returns a message when the capacity list does not match the
    /// geometry's population or the parameters are invalid.
    pub fn new(
        cfg: MiniDhtConfig,
        geometry: G,
        capacities: &[f64],
        protocol: MiniProtocol,
    ) -> Result<MiniDht<G>, String> {
        let members = geometry.members();
        if members.len() != capacities.len() {
            return Err(format!(
                "geometry has {} members but {} capacities were given",
                members.len(),
                capacities.len()
            ));
        }
        cfg.ert.validate().map_err(|e| e.to_string())?;
        let norm = normalize_capacities(capacities);
        let nodes: Vec<ErtNode> = members
            .iter()
            .zip(&norm)
            .map(|(&id, &nc)| ErtNode::new(id, max_indegree(cfg.ert.alpha, nc), protocol))
            .collect();
        let id_map = members.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut net = MiniDht {
            cfg,
            protocol,
            geometry,
            id_map,
            nodes,
            capacities: capacities.to_vec(),
            engine: Engine::new(),
            started: Vec::new(),
            rng: SimRng::seed_from(cfg.seed),
            outstanding: 0,
            injections_left: 0,
            lookup_times: Samples::new(),
            path_lengths: Samples::new(),
            dropped: 0,
            trace: None,
            decide_rngs: None,
        };
        let order = net.rng.sample_indices(net.nodes.len(), net.nodes.len());
        for i in order {
            net.window(i).0.build_table();
        }
        Ok(net)
    }

    /// Node `i`'s window — the node split out of the vector, its peers
    /// served in place on either side of it — and the stream its
    /// forwarding decisions draw from.
    fn window(
        &mut self,
        i: usize,
    ) -> (
        Window<'_, G, impl FnMut(u64, PeerOp) -> PeerAnswer + '_>,
        &mut SimRng,
    ) {
        let rng = match self.decide_rngs.as_mut() {
            Some(streams) => &mut streams[i],
            None => &mut self.rng,
        };
        let id_map = &self.id_map;
        let (left, rest) = self.nodes.split_at_mut(i);
        #[expect(
            clippy::expect_used,
            reason = "`i` is always a node index of this driver (the node a service just finished on, or the adaptation loop's 0..n), so nodes[i..] is nonempty"
        )]
        let (me, right) = rest.split_first_mut().expect("node index in range");
        let peers = move |peer: u64, op| match id_map.get(&peer) {
            Some(&j) if j < i => PeerAnswer::Report(left[j].serve(op)),
            Some(&j) if j > i => PeerAnswer::Report(right[j - i - 1].serve(op)),
            // The window answers for the node itself before asking.
            _ => PeerAnswer::Unknown,
        };
        let window = Window::new(&self.cfg, self.protocol, &self.geometry, me, peers);
        (window, rng)
    }

    /// Read access to the geometry.
    pub fn geometry(&self) -> &G {
        &self.geometry
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
    /// (monotone non-decreasing times). Source nodes are still drawn
    /// per-injection from the platform's `"source"` fork, exactly as in
    /// [`MiniDht::run_poisson`].
    pub fn run_schedule(&mut self, schedule: &[(SimTime, u64)]) -> MiniReport {
        self.injections_left = schedule.len() as u64;
        for &(t, key) in schedule {
            self.engine.schedule_at(t, Ev::Inject { key });
        }
        if self.protocol == MiniProtocol::ElasticErt {
            self.engine
                .schedule_in(self.cfg.ert.adaptation_period, Ev::Adapt);
        }
        while let Some((now, ev)) = self.engine.pop() {
            match ev {
                Ev::Inject { key } => self.on_inject(key, now),
                Ev::Arrive { lookup, to } => self.on_arrive(lookup, to, now),
                Ev::Done { node, q } => self.on_done(node, q, now),
                Ev::Adapt => self.on_adapt(),
            }
            if self.injections_left == 0 && self.outstanding == 0 {
                break;
            }
        }
        self.report()
    }

    fn report(&mut self) -> MiniReport {
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
        }
    }

    fn on_inject(&mut self, key: u64, now: SimTime) {
        self.injections_left -= 1;
        let source = self.rng.fork("source").sample_indices(self.nodes.len(), 1)[0];
        let lookup = Lookup {
            query: self.started.len() as u64,
            key,
            hops: 0,
            attempts: 0,
            numeric_mode: false,
            avoid: BTreeSet::new(),
        };
        self.started.push(now);
        self.outstanding += 1;
        let id = self.nodes[source].id();
        if let Some(tr) = self.trace.as_mut() {
            tr.sources.push(id);
        }
        self.on_arrive(lookup, id, now);
    }

    fn on_arrive(&mut self, lookup: Lookup, to: u64, now: SimTime) {
        let Some(&node) = self.id_map.get(&to) else {
            return self.drop(lookup.query);
        };
        let q = lookup.query;
        if let Some(service) = self.nodes[node].arrive(lookup, &self.cfg) {
            self.engine.schedule_at(now + service, Ev::Done { node, q });
        }
    }

    fn on_done(&mut self, node: usize, q: u64, now: SimTime) {
        let Some((mut lookup, next)) = self.nodes[node].service_done(q, &self.cfg) else {
            return;
        };
        // The next service is scheduled before the hop is committed;
        // the wire cluster's `(time, seq)` order depends on it.
        if let Some((q, service)) = next {
            self.engine.schedule_at(now + service, Ev::Done { node, q });
        }
        let hop = {
            let (mut window, rng) = self.window(node);
            window.route(&mut lookup, rng)
        };
        match hop {
            Hop::Found => {
                self.outstanding -= 1;
                self.lookup_times
                    .push((now - self.started[q as usize]).as_secs_f64());
                self.path_lengths.push(lookup.hops as f64);
                if let Some(tr) = self.trace.as_mut() {
                    tr.completions.push(CompletionTrace {
                        query: q,
                        hops: lookup.hops,
                        at_micros: now.as_micros(),
                    });
                }
            }
            Hop::Next(to) => {
                if let Some(tr) = self.trace.as_mut() {
                    tr.hops.push(HopTrace {
                        query: q,
                        from: self.nodes[node].id(),
                        to,
                    });
                }
                self.engine.schedule_at(now, Ev::Arrive { lookup, to });
            }
            Hop::Dropped | Hop::Failed => self.drop(q),
        }
    }

    fn on_adapt(&mut self) {
        for i in 0..self.nodes.len() {
            let adapt = self.window(i).0.adapt();
            if let Some(tr) = self.trace.as_mut() {
                tr.adapts.push(adapt);
            }
        }
        if self.injections_left > 0 || self.outstanding > 0 {
            self.engine
                .schedule_in(self.cfg.ert.adaptation_period, Ev::Adapt);
        }
    }

    fn drop(&mut self, q: u64) {
        self.outstanding -= 1;
        self.dropped += 1;
        if let Some(tr) = self.trace.as_mut() {
            tr.drops.push(q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChordGeometry, PastryGeometry};

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
    fn ert_reduces_congestion_on_both_geometries() {
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
