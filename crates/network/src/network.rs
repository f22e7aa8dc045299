//! The simulation run: query lifecycle, churn, and adaptation events.

// D6 of DESIGN.md "Determinism & Safety Rules": fault-handling code never
// discards an outcome silently — handle it or bind a named `_reason`.
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

use std::collections::{BTreeMap, BTreeSet};

use ert_core::{
    adaptation_action, choose_next_reachable, max_indegree, normalize_capacities, AdaptAction,
    AdaptStep, Contact, ForwardPolicy, ForwardScratch,
};
use ert_faults::{FaultEvent, FaultKind, FaultPlan};
use ert_overlay::{Coord, CycloidId, CycloidSpace};
use ert_sim::{
    Engine, SampleClock, ShardMap, ShardStats, ShardedEngine, SimDuration, SimRng, SimTime,
};
use ert_telemetry::{Snapshot, Telemetry, TelemetryEvent};
use rand::Rng;

use crate::config::{max_hops, NetworkConfig, LATENCY_SCALE, TIMEOUT_PENALTY};
use crate::lookup::{ChurnEvent, KeyPick, Lookup, SourcePick};
use crate::metrics::{Metrics, RunReport};
use crate::sanitize::{EnvelopeRelaxations, Sanitizer};
use crate::spec::{ProtocolSpec, TablePolicy};
use crate::state::Host;
use crate::topology::Topology;

/// Simulation events.
///
/// # Ordering at equal timestamps
///
/// The engine breaks time ties by scheduling order (FIFO), so the
/// same-instant processing order is fixed by how `run_with_faults`
/// enqueues things: lookups in schedule order, then churn in the
/// canonical [`ChurnEvent::sort_key`] order, then the plan's events in
/// the canonical [`FaultEvent::sort_key`] order. Churn-before-plan
/// means an equal-time join is a member before a crash draws its
/// victim; within the plan the kind's rank puts environment faults
/// before adversary kinds, so an equal-time heal never undoes a fresh
/// attack.
#[derive(Debug)]
enum Event {
    Inject(usize),
    Arrive {
        q: usize,
        to: CycloidId,
    },
    ServiceDone {
        host: usize,
        q: usize,
    },
    AdaptTick,
    Churn(usize),
    /// The `i`-th event of the canonically-sorted fault plan fires.
    Fault(usize),
    /// A query whose forward was lost to a fault wakes up after its
    /// retry backoff and attempts the hop again.
    Retry {
        q: usize,
    },
    /// Telemetry snapshot tick; scheduled only when
    /// [`NetworkConfig::sample_interval`] is nonzero, and side-effect
    /// free with respect to the simulation (no RNG draws, no state
    /// mutation), so sampled and unsampled runs produce identical
    /// reports.
    Sample,
}

/// The event core driving one run: the legacy single global event loop
/// (`cfg.shards == 0`) or the shared-nothing sharded core
/// (`cfg.shards >= 1`, see [`ert_sim::ShardedEngine`]).
///
/// Shard routing is an *affinity* decision, never a correctness one:
/// the sharded engine merges all shards under the same global
/// `(time, seq)` key the single queue uses, so whichever shard an
/// event lands on, the pop sequence — and therefore the run report —
/// is byte-identical to the legacy path. Data-plane events follow the
/// ID-space partition ([`Network::shard_of_event`]); control-plane
/// events (injection, churn, the fault plan, adaptation, sampling) run
/// on shard 0.
#[derive(Debug)]
enum Reactor {
    /// One global event queue — the pre-sharding engine, untouched.
    Single(Engine<Event>),
    /// S shard reactors with bounded cross-shard mailboxes, plus the
    /// static key→shard prefix partition.
    Sharded {
        engine: ShardedEngine<Event>,
        map: ShardMap,
    },
}

impl Reactor {
    fn schedule_at(&mut self, time: SimTime, shard: usize, ev: Event) {
        match self {
            Reactor::Single(e) => e.schedule_at(time, ev),
            Reactor::Sharded { engine, .. } => engine.schedule_at(time, shard, ev),
        }
    }

    fn schedule_in(&mut self, delay: SimDuration, shard: usize, ev: Event) {
        match self {
            Reactor::Single(e) => e.schedule_in(delay, ev),
            Reactor::Sharded { engine, .. } => engine.schedule_in(delay, shard, ev),
        }
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        match self {
            Reactor::Single(e) => e.pop(),
            Reactor::Sharded { engine, .. } => engine.pop(),
        }
    }

    fn now(&self) -> SimTime {
        match self {
            Reactor::Single(e) => e.now(),
            Reactor::Sharded { engine, .. } => engine.now(),
        }
    }

    fn events_processed(&self) -> u64 {
        match self {
            Reactor::Single(e) => e.events_processed(),
            Reactor::Sharded { engine, .. } => engine.events_processed(),
        }
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        match self {
            Reactor::Single(_) => None,
            Reactor::Sharded { engine, .. } => Some(engine.shard_stats()),
        }
    }
}

#[derive(Debug)]
struct QueryState {
    key: CycloidId,
    started: SimTime,
    hops: u32,
    heavy_seen: u32,
    avoid: BTreeSet<CycloidId>,
    at_node: usize,
    done: bool,
    /// Set once a geometric step dead-ended; the query then finishes on
    /// the (monotone) ring walk.
    ring_mode: bool,
    /// Nodes visited during the request phase (recorded only in
    /// anonymity mode, where the response retraces them).
    path: Vec<CycloidId>,
    /// Remaining return hops of the anonymity-mode response, in visit
    /// order; empty unless the query is on its way back.
    return_route: Vec<CycloidId>,
    /// Whether the query is in its response (return) phase.
    returning: bool,
    /// Forward attempts lost to injected faults since the last
    /// successful hop; reset on every delivered forward. When this
    /// reaches `RetryPolicy::max_attempts` the query fails.
    attempts: u32,
    /// When the query entered the queue of the node currently (or most
    /// recently) holding it. Written unconditionally on every delivery —
    /// a plain store, no control flow or RNG — so instrumented and
    /// uninstrumented runs stay byte-identical; read only when a span
    /// sink asks for [`TelemetryEvent::HopSpan`] events.
    enqueued_at: SimTime,
    /// When the current host began serving the query (same
    /// byte-identity caveat as `enqueued_at`).
    service_started_at: SimTime,
}

/// Active fault and adversary effects, kept outside the paper's
/// host/node state so an empty [`FaultPlan`] leaves zero residue in the
/// simulation.
#[derive(Debug, Default)]
struct FaultState {
    /// Per-host service-time inflation factors, cleared by `Heal`.
    degraded: BTreeMap<usize, f64>,
    /// Active message-loss episode: probability and expiry time.
    drop: Option<(f64, SimTime)>,
    /// Active partition: class count and expiry time.
    partition: Option<(u32, SimTime)>,
    /// Hosts currently inverting Algorithm 4's two-choice rule.
    defectors: BTreeSet<usize>,
    /// Capacity liars: host index → the honest `(est_capacity,
    /// capacity_eval)` pair that `Restore` reinstates.
    liars: BTreeMap<usize, (f64, u32)>,
}

impl FaultState {
    fn drop_p(&self, now: SimTime) -> Option<f64> {
        self.drop.and_then(|(p, until)| (now < until).then_some(p))
    }

    fn partition_groups(&self, now: SimTime) -> Option<u32> {
        self.partition
            .and_then(|(g, until)| (now < until).then_some(g))
    }

    fn service_factor(&self, host: usize) -> f64 {
        self.degraded.get(&host).copied().unwrap_or(1.0)
    }

    fn heal(&mut self) {
        self.degraded.clear();
        self.drop = None;
        self.partition = None;
    }
}

/// One simulation run: an overlay under a protocol, fed lookups and
/// churn, producing a [`RunReport`].
///
/// ```
/// use ert_network::{Network, NetworkConfig, ProtocolSpec};
/// let capacities = vec![1000.0; 64]; // real runs sample these from ert-workloads
/// let cfg = NetworkConfig::for_dimension(5, 7);
/// let mut net = Network::new(cfg, &capacities, ProtocolSpec::ert_af()).unwrap();
/// let lookups = ert_network::network::uniform_lookup_burst(100, 64.0, 7);
/// let report = net.run(&lookups, &[]);
/// assert_eq!(report.lookups_completed + report.lookups_dropped, 100);
/// ```
#[derive(Debug)]
pub struct Network {
    cfg: NetworkConfig,
    protocol: ProtocolSpec,
    topo: Topology,
    reactor: Reactor,
    /// Shard affinity per host (empty on the legacy single engine):
    /// the shard owning the ring position of the host's first overlay
    /// node. Service-completion events follow it. Pure locality — a
    /// stale entry (e.g. after an item-movement rejoin) costs a
    /// cross-shard message, never correctness.
    host_shard: Vec<usize>,
    queries: Vec<QueryState>,
    lookups: Vec<Lookup>,
    metrics: Metrics,
    rng_topology: SimRng,
    rng_forward: SimRng,
    rng_workload: SimRng,
    alive_hosts: Vec<usize>,
    min_cap_host: usize,
    capacity_unit: f64,
    outstanding: u64,
    injections_left: u64,
    churn_schedule: Vec<ChurnEvent>,
    fault_schedule: Vec<FaultEvent>,
    faults: FaultState,
    /// Fault-interpretation stream (crash and degrade victims, message
    /// drops). Reseeded from the plan at the start of a run with a
    /// nonempty plan and never drawn from otherwise, so runs with an
    /// empty plan are byte-identical to builds without faults.
    rng_faults: SimRng,
    /// Adversary-interpretation stream (liars, defectors, Sybils), with
    /// the same discipline as `rng_faults`.
    rng_adversary: SimRng,
    /// Theorem envelopes the sanitizer skips because the run's plan
    /// deliberately violates their assumptions.
    relax: EnvelopeRelaxations,
    telemetry: Telemetry,
    sample_clock: Option<SampleClock>,
    adapt_rounds: u64,
    sanitizer: Sanitizer,
    /// Algorithm 4's buffers, reused by every forwarding decision.
    forward_scratch: ForwardScratch<CycloidId>,
    /// One hop's candidate next hops, refilled by every forward.
    candidates: Vec<CycloidId>,
}

impl Network {
    /// Builds an overlay of one node per capacity (or capacity-
    /// proportional virtual servers when the protocol says so), joins
    /// them in random order, and constructs every routing table.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration is invalid or
    /// `capacities` is empty.
    pub fn new(
        cfg: NetworkConfig,
        capacities: &[f64],
        protocol: ProtocolSpec,
    ) -> Result<Network, String> {
        cfg.validate()?;
        if capacities.is_empty() {
            return Err("need at least one host".into());
        }
        let mut root = SimRng::seed_from(cfg.seed);
        let mut rng_topology = root.fork("topology");
        let rng_forward = root.fork("forward");
        let rng_workload = root.fork("workload");

        let norm = normalize_capacities(capacities);
        let capacity_unit = capacities.iter().sum::<f64>() / capacities.len() as f64;

        // Virtual-server sizing decides the overlay population.
        let virtuals: Vec<u32> = match &protocol.virtual_servers {
            Some(vs) => norm.iter().map(|&c| vs.virtuals_for(c)).collect(),
            None => vec![1; capacities.len()],
        };
        let overlay_n: u64 = virtuals.iter().map(|&v| v as u64).sum();
        let dim = CycloidSpace::dimension_for(overlay_n as usize);
        let space = CycloidSpace::new(dim);
        // The caller's α stands, except under virtual servers where the
        // overlay dimension differs from the physical one and the
        // paper's `α = d + 3` must track the *virtual* dimension.
        let params = if protocol.virtual_servers.is_some() {
            cfg.ert.with_alpha_for_dim(dim)
        } else {
            cfg.ert
        };
        let mut topo = Topology::new(space, protocol.table, params);

        let mut min_cap_host = 0;
        for (i, (&raw, &nc)) in capacities.iter().zip(&norm).enumerate() {
            let est = cfg.estimator.estimate_capacity(nc, &mut rng_topology);
            let capacity_eval = max_indegree(params.alpha, est);
            let coord = Coord::random(&mut rng_topology);
            let h = topo.add_host(Host::new(raw, nc, est, capacity_eval, coord));
            debug_assert_eq!(h, i);
            if raw < capacities[min_cap_host] {
                min_cap_host = i;
            }
        }

        // Create overlay nodes (VS: one random ID per consecutive
        // interval, Godfrey–Stoica style; otherwise one random ID).
        let ring = space.ring_size();
        for (host, &v) in virtuals.iter().enumerate() {
            let d_max = node_d_max(&protocol, &topo.hosts[host], params.alpha);
            if v == 1 {
                if let Some(id) = topo.registry.random_vacant(&mut rng_topology) {
                    topo.add_node(id, host, d_max);
                }
            } else {
                let interval = (ring / overlay_n).max(1);
                let start = rng_topology.gen_range(0..ring);
                for j in 0..v as u64 {
                    let lo = (start + j * interval) % ring;
                    let off = rng_topology.gen_range(0..interval);
                    let mut lin = (lo + off) % ring;
                    // Walk to a vacant slot (the space is sized ≥ 2×).
                    let mut tries = 0;
                    while topo.registry.contains(space.from_lin(lin)) {
                        lin = (lin + 1) % ring;
                        tries += 1;
                        if tries > ring {
                            break;
                        }
                    }
                    let id = space.from_lin(lin);
                    if !topo.registry.contains(id) {
                        topo.add_node(id, host, d_max);
                    }
                }
            }
        }

        // Join order is random: build tables node by node.
        let order = rng_topology.sample_indices(topo.nodes.len(), topo.nodes.len());
        for n in order {
            topo.build_node_table(n, &mut rng_topology);
        }

        let alive_hosts = (0..topo.hosts.len()).collect();
        let (reactor, host_shard) = if cfg.shards == 0 {
            (Reactor::Single(Engine::new()), Vec::new())
        } else {
            let map = ShardMap::new(cfg.shards);
            let host_shard = (0..topo.hosts.len())
                .map(|h| host_shard_for(&topo, &map, h))
                .collect();
            (
                Reactor::Sharded {
                    engine: ShardedEngine::new(cfg.shards),
                    map,
                },
                host_shard,
            )
        };
        Ok(Network {
            cfg,
            protocol,
            topo,
            reactor,
            host_shard,
            queries: Vec::new(),
            lookups: Vec::new(),
            metrics: Metrics::default(),
            rng_topology,
            rng_forward,
            rng_workload,
            alive_hosts,
            min_cap_host,
            capacity_unit,
            outstanding: 0,
            injections_left: 0,
            churn_schedule: Vec::new(),
            fault_schedule: Vec::new(),
            faults: FaultState::default(),
            rng_faults: SimRng::seed_from(cfg.seed),
            rng_adversary: SimRng::seed_from(cfg.seed),
            relax: EnvelopeRelaxations::NONE,
            telemetry: Telemetry::disabled(),
            sample_clock: None,
            adapt_rounds: 0,
            sanitizer: Sanitizer::new(),
            forward_scratch: ForwardScratch::default(),
            candidates: Vec::new(),
        })
    }

    /// Read access to the overlay (for tests and structural metrics).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// How many runtime invariant checks the sanitizer has performed.
    /// Always 0 in plain release builds (no `debug_assertions`, no
    /// `sanitize` feature), where the checks compile out; tests use
    /// this to prove the sanitizer actually covered the run.
    pub fn sanitize_checks(&self) -> u64 {
        self.sanitizer.checks() + self.topo.derived_checks
    }

    /// Which theorem envelopes the sanitizer skipped for this run, each
    /// tagged with the violated assumption. [`EnvelopeRelaxations::NONE`]
    /// unless [`Network::run_with_faults`] was given a plan that attacks
    /// a degree bound (see [`EnvelopeRelaxations::from_plan`]).
    pub fn envelope_relaxations(&self) -> EnvelopeRelaxations {
        self.relax
    }

    /// Read access to the run's telemetry pipeline (snapshots, registry,
    /// trace ring).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Installs a telemetry pipeline — typically one with a JSONL or
    /// in-memory sink attached, or a trace ring sized by
    /// [`Telemetry::with_trace_capacity`] — before calling
    /// [`Network::run`]. It replaces the default, disabled pipeline.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Takes the telemetry pipeline out of the network (for reading
    /// snapshots and writing the final report record after a run),
    /// leaving a disabled one behind.
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.telemetry)
    }

    /// Total engine events processed so far. `ert-benchmark` divides
    /// wall time by this for its `network.us_per_event` ledger line.
    pub fn events_processed(&self) -> u64 {
        self.reactor.events_processed()
    }

    /// Completed indegree-adaptation rounds so far.
    pub fn adapt_rounds(&self) -> u64 {
        self.adapt_rounds
    }

    /// Cross-shard traffic counters of the sharded core, `None` on the
    /// legacy single event loop. Deliberately *not* part of
    /// [`RunReport`]: reports are pinned byte-identical across shard
    /// counts, so shard-dependent observability lives on this side
    /// channel.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        self.reactor.shard_stats()
    }

    /// Routes an event to its owning shard (0 on the single engine).
    ///
    /// Data-plane events follow the ID-space partition: an arrival
    /// belongs to the shard owning the destination ID, a service
    /// completion to the serving host's shard, a retry to the shard of
    /// the node holding the query. Control-plane events (injection,
    /// churn, the fault plan, adaptation, sampling) run on shard 0.
    /// Routing is pure affinity — the merge key makes any total routing
    /// function produce the identical pop sequence.
    fn shard_of_event(&self, ev: &Event) -> usize {
        let Reactor::Sharded { map, .. } = &self.reactor else {
            return 0;
        };
        let ring = self.topo.space.ring_size();
        match ev {
            Event::Arrive { to, .. } => map.shard_of(self.topo.space.lin(*to), ring),
            Event::ServiceDone { host, .. } => self.host_shard.get(*host).copied().unwrap_or(0),
            Event::Retry { q } => {
                let id = self.topo.nodes[self.queries[*q].at_node].id;
                map.shard_of(self.topo.space.lin(id), ring)
            }
            Event::Inject(_)
            | Event::AdaptTick
            | Event::Churn(_)
            | Event::Fault(_)
            | Event::Sample => 0,
        }
    }

    /// Schedules `ev` at absolute time `time` on its owning shard.
    fn schedule_event(&mut self, time: SimTime, ev: Event) {
        let shard = self.shard_of_event(&ev);
        self.reactor.schedule_at(time, shard, ev);
    }

    /// Schedules `ev` after `delay` on its owning shard.
    fn schedule_event_in(&mut self, delay: SimDuration, ev: Event) {
        let shard = self.shard_of_event(&ev);
        self.reactor.schedule_in(delay, shard, ev);
    }

    /// Host and node index slices owned by each shard, for the
    /// per-shard sweep and adaptation passes. Hosts follow their
    /// recorded affinity; nodes follow the ID-space partition directly.
    fn shard_partitions(&self) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let Reactor::Sharded { map, .. } = &self.reactor else {
            return (Vec::new(), Vec::new());
        };
        let s = map.shards();
        let mut host_parts = vec![Vec::new(); s];
        for (h, &sh) in self.host_shard.iter().enumerate() {
            host_parts[sh].push(h);
        }
        let ring = self.topo.space.ring_size();
        let mut node_parts = vec![Vec::new(); s];
        for (n, node) in self.topo.nodes.iter().enumerate() {
            node_parts[map.shard_of(self.topo.space.lin(node.id), ring)].push(n);
        }
        (host_parts, node_parts)
    }

    /// Dispatches the degree sweep: sequential on the single engine,
    /// per-shard (evaluated on the `ert-par` pool, then merged) on the
    /// sharded core.
    fn run_sweep(&mut self) {
        let gamma_c = self.cfg.estimator.gamma_c();
        match &self.reactor {
            Reactor::Single(_) => self.sanitizer.sweep(&self.topo, gamma_c, self.relax),
            Reactor::Sharded { .. } => {
                let (host_parts, node_parts) = self.shard_partitions();
                let workers = host_parts.len().min(ert_par::default_jobs()).max(1);
                self.sanitizer.sweep_sharded(
                    &self.topo,
                    gamma_c,
                    self.relax,
                    &host_parts,
                    &node_parts,
                    workers,
                );
            }
        }
    }

    /// Runs the schedule to completion and digests the metrics.
    ///
    /// The run ends when every injected lookup has completed, been
    /// dropped, or failed; churn scheduled after that point is ignored,
    /// matching the paper's "when all lookups complete" cut-off.
    ///
    /// Equivalent to [`Network::run_with_faults`] with an empty
    /// [`FaultPlan`].
    pub fn run(&mut self, lookups: &[Lookup], churn: &[ChurnEvent]) -> RunReport {
        self.run_with_faults(lookups, churn, &FaultPlan::default())
    }

    /// Runs the schedule under a perturbation plan (see `ert-faults`):
    /// environment faults, adversarial actors, or both.
    ///
    /// The plan's events interleave with churn on the same event clock;
    /// at equal timestamps churn applies first, then the plan's events
    /// in their canonical sorted order (see the `Event` ordering
    /// note), so permuting either schedule never changes the run. With
    /// an empty plan this is exactly [`Network::run`]: neither
    /// interpretation stream is drawn from, no plan events are
    /// scheduled, and every theorem envelope stays armed, keeping paper
    /// scenarios byte-identical.
    ///
    /// # Panics
    ///
    /// Panics when the plan fails [`FaultPlan::validate`].
    #[expect(
        clippy::panic,
        reason = "the documented contract: an invalid plan is refused before the first event is scheduled, never mid-run (tests/chaos.rs relies on it)"
    )]
    pub fn run_with_faults(
        &mut self,
        lookups: &[Lookup],
        churn: &[ChurnEvent],
        plan: &FaultPlan,
    ) -> RunReport {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        self.lookups = lookups.to_vec();
        self.injections_left = lookups.len() as u64;
        for (i, l) in lookups.iter().enumerate() {
            self.schedule_event(l.at, Event::Inject(i));
        }
        // Equal-time churn events apply in canonical order, not slice
        // order (at distinct timestamps the sort changes nothing).
        let mut churn_sorted = churn.to_vec();
        churn_sorted.sort_by_key(ChurnEvent::sort_key);
        for (i, c) in churn_sorted.iter().enumerate() {
            self.schedule_event(c.at(), Event::Churn(i));
        }
        self.churn_schedule = churn_sorted;
        if !plan.is_empty() {
            // Seed the interpretation streams from (config, plan) so the
            // outcomes are a pure function of both, independent of the
            // topology / forwarding / workload streams. Distinct rotation
            // constants keep fault and adversary outcomes decorrelated.
            self.rng_faults = SimRng::seed_from(self.cfg.seed.rotate_left(17) ^ plan.seed);
            self.rng_adversary = SimRng::seed_from(self.cfg.seed.rotate_left(29) ^ plan.seed);
            self.relax = EnvelopeRelaxations::from_plan(plan);
            self.fault_schedule = plan.sorted_events();
            for i in 0..self.fault_schedule.len() {
                self.schedule_event(self.fault_schedule[i].at, Event::Fault(i));
            }
        }
        if self.protocol.adaptation || self.protocol.item_movement || self.cfg.stabilization {
            self.schedule_event_in(self.cfg.ert.adaptation_period, Event::AdaptTick);
        }
        self.sample_clock = SampleClock::new(self.cfg.sample_interval);
        if let Some(clock) = &self.sample_clock {
            let at = clock.next_at();
            self.schedule_event(at, Event::Sample);
        }

        while let Some((now, event)) = self.reactor.pop() {
            self.sanitizer.on_event(now);
            match event {
                Event::Inject(i) => self.on_inject(i, now),
                Event::Arrive { q, to } => self.on_arrive(q, to, now),
                Event::ServiceDone { host, q } => self.on_service_done(host, q, now),
                Event::AdaptTick => self.on_adapt_tick(now),
                Event::Churn(i) => self.on_churn(i, now),
                Event::Fault(i) => self.on_fault(i, now),
                Event::Retry { q } => self.on_retry(q, now),
                Event::Sample => self.on_sample(now),
            }
            self.sanitizer.check_conservation(
                self.metrics.lookups_started,
                self.metrics.lookups_completed,
                self.metrics.lookups_dropped,
                self.metrics.lookups_failed,
                self.outstanding,
            );
            if self.injections_left == 0 && self.outstanding == 0 {
                break;
            }
        }
        self.run_sweep();
        self.telemetry.flush();
        let mut metrics = std::mem::take(&mut self.metrics);
        metrics.maintenance_ops = self.topo.link_ops;
        metrics.into_report(
            &self.protocol.name,
            &self.topo,
            self.reactor.now().as_secs_f64(),
        )
    }

    fn resolve_source(&mut self, pick: SourcePick) -> Option<usize> {
        match pick {
            SourcePick::Random => {
                if self.alive_hosts.is_empty() {
                    return None;
                }
                let hi = self.alive_hosts[self.rng_workload.gen_range(0..self.alive_hosts.len())];
                let nodes: Vec<usize> = self.topo.hosts[hi]
                    .nodes
                    .iter()
                    .copied()
                    .filter(|&n| self.topo.nodes[n].alive)
                    .collect();
                self.rng_workload.choose(&nodes).copied()
            }
            SourcePick::RingFraction(f) => {
                let lin = (f.rem_euclid(1.0) * self.topo.space.ring_size() as f64) as u64
                    % self.topo.space.ring_size();
                let id = self.topo.space.from_lin(lin);
                let owner = self.topo.registry.owner(id)?;
                self.topo.node_idx(owner)
            }
        }
    }

    fn resolve_key(&mut self, pick: KeyPick) -> CycloidId {
        match pick {
            KeyPick::Random => self.topo.space.random_id(&mut self.rng_workload),
            KeyPick::RingFraction(f) => {
                let lin = (f.rem_euclid(1.0) * self.topo.space.ring_size() as f64) as u64
                    % self.topo.space.ring_size();
                self.topo.space.from_lin(lin)
            }
        }
    }

    fn on_inject(&mut self, i: usize, now: SimTime) {
        self.injections_left -= 1;
        let lookup = self.lookups[i];
        let Some(source) = self.resolve_source(lookup.source) else {
            // No live node to start from (possible under crash faults):
            // the lookup fails immediately instead of silently vanishing,
            // keeping issued == completed + dropped + failed.
            self.metrics.lookups_started += 1;
            self.metrics.lookups_failed += 1;
            return;
        };
        let key = self.resolve_key(lookup.key);
        let q = self.queries.len();
        self.queries.push(QueryState {
            key,
            started: now,
            hops: 0,
            heavy_seen: 0,
            avoid: BTreeSet::new(),
            at_node: source,
            done: false,
            ring_mode: false,
            path: Vec::new(),
            return_route: Vec::new(),
            returning: false,
            attempts: 0,
            enqueued_at: now,
            service_started_at: now,
        });
        self.metrics.lookups_started += 1;
        self.outstanding += 1;
        let source_id = self.topo.nodes[source].id;
        let (src_lin, key_lin) = (self.topo.space.lin(source_id), self.topo.space.lin(key));
        self.telemetry.emit(now, || TelemetryEvent::LookupStart {
            q: q as u64,
            source: src_lin,
            key: key_lin,
        });
        self.deliver(q, source_id, now);
    }

    /// Places query `q` into the queue of the node holding `to` (or its
    /// successor after a timeout if `to` departed).
    fn deliver(&mut self, q: usize, to: CycloidId, now: SimTime) {
        match self.topo.node_idx(to) {
            None => {
                // The node died in flight: its ring successor takes over
                // after a timeout-like delay (a handoff, not a stale-link
                // timeout: no routing table was wrong).
                self.metrics.handoffs += 1;
                match self.topo.registry.owner(to) {
                    Some(successor) => {
                        let succ_lin = self.topo.space.lin(successor);
                        self.telemetry.emit(now, || TelemetryEvent::LookupHandoff {
                            q: q as u64,
                            successor: succ_lin,
                        });
                        self.schedule_event(
                            now + TIMEOUT_PENALTY,
                            Event::Arrive { q, to: successor },
                        );
                    }
                    None => self.drop_query(q, now),
                }
            }
            Some(node) => {
                let host_idx = self.topo.nodes[node].host;
                self.queries[q].at_node = node;
                self.queries[q].enqueued_at = now;
                if !self.queries[q].returning {
                    if self.cfg.anonymous_responses {
                        self.queries[q].path.push(to);
                    }
                    let heavy_before = self.topo.hosts[host_idx].is_heavy();
                    if heavy_before {
                        self.metrics.heavy_encounters += 1;
                        self.queries[q].heavy_seen += 1;
                    }
                }
                let host = &mut self.topo.hosts[host_idx];
                host.total_received += 1;
                host.period_load += 1;
                if host.in_service.is_none() {
                    self.start_service(host_idx, q, now);
                } else {
                    host.queue.push_back(q);
                }
                let host = &mut self.topo.hosts[host_idx];
                host.note_congestion();
                if host_idx == self.min_cap_host {
                    let g = host.congestion();
                    self.metrics.min_cap_congestion.push(g);
                }
                self.sanitizer
                    .check_host(&self.topo.hosts[host_idx], host_idx, |q| {
                        self.queries[q].done
                    });
            }
        }
    }

    fn start_service(&mut self, host_idx: usize, q: usize, now: SimTime) {
        self.queries[q].service_started_at = now;
        let degrade = self.faults.service_factor(host_idx);
        let host = &mut self.topo.hosts[host_idx];
        host.in_service = Some(q);
        let mut service = if host.is_heavy() {
            self.cfg.heavy_service
        } else {
            self.cfg.light_service
        };
        if degrade > 1.0 {
            // Degrade fault in force: the host serves `degrade`× slower.
            service =
                SimDuration::from_micros((service.as_micros() as f64 * degrade).round() as u64);
        }
        host.busy_micros += service.as_micros();
        self.schedule_event(now + service, Event::ServiceDone { host: host_idx, q });
    }

    fn on_service_done(&mut self, host_idx: usize, q: usize, now: SimTime) {
        {
            let host = &self.topo.hosts[host_idx];
            if !host.alive || host.in_service != Some(q) {
                return; // stale event: the host departed and requeued q
            }
        }
        // One causal span per completed service: covers the hop's
        // queueing (enqueued → service start) and service (start → now)
        // phases. Re-deliveries after handoffs or retries reuse the hop
        // index and appear as sibling spans under the same parent. All
        // inputs are plain reads, so the lazy closure costs one branch
        // when no sink is attached.
        {
            let qs = &self.queries[q];
            let (qid, hop) = (q as u64, qs.hops);
            let node_lin = self.topo.space.lin(self.topo.nodes[qs.at_node].id);
            let (enq, svc) = (
                qs.enqueued_at.as_micros(),
                qs.service_started_at.as_micros(),
            );
            self.telemetry.emit(now, || TelemetryEvent::HopSpan {
                q: qid,
                hop,
                node: node_lin,
                span: ert_obs::span::span_id(qid, hop),
                parent: ert_obs::span::parent_id(qid, hop),
                enqueued: enq,
                service_start: svc,
                service_end: now.as_micros(),
            });
        }
        self.topo.hosts[host_idx].in_service = None;
        if let Some(next) = self.topo.hosts[host_idx].queue.pop_front() {
            self.start_service(host_idx, next, now);
        }
        self.sanitizer
            .check_host(&self.topo.hosts[host_idx], host_idx, |qq| {
                self.queries[qq].done
            });

        let node = self.queries[q].at_node;
        if !self.topo.nodes[node].alive {
            // Node left while the query sat in its queue on a shared
            // (virtual-server) host; hand to the successor.
            let id = self.topo.nodes[node].id;
            self.metrics.handoffs += 1;
            match self.topo.registry.owner(id) {
                Some(successor) => {
                    let succ_lin = self.topo.space.lin(successor);
                    self.telemetry.emit(now, || TelemetryEvent::LookupHandoff {
                        q: q as u64,
                        successor: succ_lin,
                    });
                    self.schedule_event(now + TIMEOUT_PENALTY, Event::Arrive { q, to: successor })
                }
                None => self.drop_query(q, now),
            }
            return;
        }
        let me = self.topo.nodes[node].id;
        if self.queries[q].returning {
            self.continue_response(q, now);
        } else if self.topo.registry.owner(self.queries[q].key) == Some(me) {
            if self.cfg.anonymous_responses && self.queries[q].path.len() > 1 {
                // Anonymity mode: the response retraces the request path
                // (minus the owner itself), loading each relay again.
                let qs = &mut self.queries[q];
                qs.returning = true;
                // `pop` consumes from the back, walking the request
                // path in reverse toward the source at path[0].
                qs.return_route = qs.path[..qs.path.len() - 1].to_vec();
                self.continue_response(q, now);
            } else {
                self.complete_query(q, now);
            }
        } else {
            self.forward(q, node, now);
        }
    }

    /// Sends the anonymity-mode response one hop further back along the
    /// recorded request path; completes the query at the source.
    fn continue_response(&mut self, q: usize, now: SimTime) {
        let Some(next) = self.queries[q].return_route.pop() else {
            self.complete_query(q, now);
            return;
        };
        let me = self.topo.nodes[self.queries[q].at_node].id;
        let latency = SimDuration::from_secs_f64(LATENCY_SCALE * self.topo.phys_dist(me, next));
        self.schedule_event(now + latency, Event::Arrive { q, to: next });
    }

    fn complete_query(&mut self, q: usize, now: SimTime) {
        let qs = &mut self.queries[q];
        if qs.done {
            return;
        }
        qs.done = true;
        self.outstanding -= 1;
        self.metrics.lookups_completed += 1;
        self.metrics
            .lookup_times
            .push((now - qs.started).as_secs_f64());
        self.metrics.path_lengths.push(qs.hops as f64);
        let (hops, heavy) = (qs.hops, qs.heavy_seen);
        self.telemetry.emit(now, || TelemetryEvent::LookupComplete {
            q: q as u64,
            hops,
            heavy,
        });
    }

    fn drop_query(&mut self, q: usize, now: SimTime) {
        let qs = &mut self.queries[q];
        if qs.done {
            return;
        }
        qs.done = true;
        self.outstanding -= 1;
        self.metrics.lookups_dropped += 1;
        let hops = self.queries[q].hops;
        self.telemetry
            .emit(now, || TelemetryEvent::LookupDropped { q: q as u64, hops });
    }

    /// Terminates query `q` as a fault casualty (crash with no handoff,
    /// or retry budget exhausted). Distinct from [`Network::drop_query`],
    /// which accounts the hop-limit safety valve.
    fn fail_query(&mut self, q: usize, now: SimTime) {
        let qs = &mut self.queries[q];
        if qs.done {
            return;
        }
        qs.done = true;
        self.outstanding -= 1;
        self.metrics.lookups_failed += 1;
        let hops = self.queries[q].hops;
        self.telemetry
            .emit(now, || TelemetryEvent::LookupFailed { q: q as u64, hops });
    }

    fn forward(&mut self, q: usize, node: usize, now: SimTime) {
        if self.queries[q].hops >= max_hops(self.topo.space.dim()) {
            self.drop_query(q, now);
            return;
        }
        let key = self.queries[q].key;
        let me = self.topo.nodes[node].id;
        let probing = matches!(self.protocol.forwarding, ForwardPolicy::TwoChoice { .. });
        let ring_mode = self.queries[q].ring_mode;
        let Some(rc) = self.topo.route_candidates(
            node,
            key,
            probing,
            ring_mode,
            &mut self.rng_forward,
            &mut self.candidates,
        ) else {
            // Ownership shifted to us mid-flight, or the overlay emptied.
            if self.topo.registry.owner(key) == Some(me) {
                self.complete_query(q, now);
            } else {
                self.drop_query(q, now);
            }
            return;
        };
        debug_assert!(
            !self.candidates.is_empty(),
            "route candidates must be nonempty"
        );
        if rc.fell_back {
            self.queries[q].ring_mode = true;
        }
        let memory = match (self.protocol.forwarding, rc.slot) {
            (
                ForwardPolicy::TwoChoice {
                    use_memory: true, ..
                },
                Some(slot),
            ) => self.topo.nodes[node].table.memory(slot),
            _ => None,
        };
        // Partition faults hard-exclude candidates across the cut. With
        // no partition active the cut is empty and `choose_next_reachable`
        // delegates to the ordinary two-choice selection with identical
        // RNG draws, keeping fault-free runs byte-identical.
        let cut = self.partition_cut(node, &self.candidates, now);
        let defecting = self.faults.defectors.contains(&self.topo.nodes[node].host);
        let (topo, ids) = (&self.topo, &self.candidates);
        let picked = if defecting {
            // Routing defection: invert Algorithm 4 and forward to the
            // *most*-loaded reachable candidate, ignoring the avoid
            // list. The pick is deterministic (ties break toward the
            // higher ring position) and draws nothing from the
            // forwarding stream; probes are charged for every reachable
            // candidate the defector "inspected" to find the worst.
            let reachable = || ids.iter().copied().filter(|id| !cut.contains(id));
            let probes = reachable().count();
            reachable()
                .map(|id| (id, probe_load(topo, id).0))
                .max_by(|&(a, la), &(b, lb)| {
                    la.total_cmp(&lb)
                        .then_with(|| topo.space.lin(a).cmp(&topo.space.lin(b)))
                })
                .map(|(next, _)| ert_core::ForwardChoice {
                    next,
                    new_memory: None,
                    newly_overloaded: Vec::new(),
                    probes,
                })
        } else {
            // Distances and load are read for the candidates drawn, not
            // for every candidate.
            choose_next_reachable(
                self.protocol.forwarding,
                ids,
                &cut,
                |i| Contact {
                    logical_distance: topo.logical_metric(ids[i], key),
                    physical_distance: topo.phys_dist(me, ids[i]),
                },
                memory,
                &self.queries[q].avoid,
                self.cfg.ert.gamma_l,
                self.cfg.ert.probe_width,
                &mut self.rng_forward,
                |i| Some(probe_load(topo, ids[i])),
                &mut self.forward_scratch,
            )
        };
        if defecting {
            if let Some(c) = &picked {
                let (from_lin, to_lin) = (self.topo.space.lin(me), self.topo.space.lin(c.next));
                self.telemetry
                    .emit(now, || TelemetryEvent::DefectedForward {
                        q: q as u64,
                        from: from_lin,
                        to: to_lin,
                    });
            }
        }
        let choice = match picked {
            Some(c) => c,
            None => {
                // Every entry candidate sits across the partition:
                // degrade gracefully to the successor-ring walk. If even
                // the ring is cut, the attempt is lost and the retry
                // policy decides whether the query waits or fails.
                self.queries[q].ring_mode = true;
                let mut ring_ids = Vec::new();
                let ring_pick = self
                    .topo
                    .route_candidates(node, key, false, true, &mut self.rng_forward, &mut ring_ids)
                    .and_then(|_| {
                        let ring_cut = self.partition_cut(node, &ring_ids, now);
                        ring_ids
                            .iter()
                            .copied()
                            .filter(|id| !ring_cut.contains(id))
                            .min_by_key(|&x| self.topo.logical_metric(x, key))
                    });
                match ring_pick {
                    Some(alt) => ert_core::ForwardChoice {
                        next: alt,
                        new_memory: None,
                        newly_overloaded: Vec::new(),
                        probes: 0,
                    },
                    None => {
                        self.forward_lost(q, now);
                        return;
                    }
                }
            }
        };
        self.metrics.forward_decisions += 1;
        self.metrics.probes += choice.probes as u64;
        for o in &choice.newly_overloaded {
            self.queries[q].avoid.insert(*o);
        }
        if let (Some(slot), Some(m)) = (rc.slot, choice.new_memory) {
            if probing {
                self.topo.nodes[node].table.set_memory(slot, m);
            }
        }

        let mut next = choice.next;
        let mut penalty = SimDuration::ZERO;
        if !self.topo.is_alive(next) {
            // Timeout: the stale link is discovered the hard way.
            self.metrics.timeouts += 1;
            penalty = TIMEOUT_PENALTY;
            let (me_lin, dead_lin) = (self.topo.space.lin(me), self.topo.space.lin(next));
            self.telemetry.emit(now, || TelemetryEvent::LookupTimeout {
                q: q as u64,
                at: me_lin,
                dead: dead_lin,
            });
            if let Some(slot) = rc.slot {
                self.topo.purge_dead_link(node, slot, next);
                self.telemetry.emit(now, || TelemetryEvent::LinkPurged {
                    node: me_lin,
                    peer: dead_lin,
                });
            }
            let live = self
                .candidates
                .iter()
                .copied()
                .filter(|&x| x != next && self.topo.is_alive(x));
            next = match live.min_by_key(|&x| self.topo.logical_metric(x, key)) {
                Some(alt) => alt,
                None => {
                    // Re-assemble with dead filtering (repairs the slot).
                    let mut repaired = Vec::new();
                    if self
                        .topo
                        .route_candidates(
                            node,
                            key,
                            true,
                            self.queries[q].ring_mode,
                            &mut self.rng_forward,
                            &mut repaired,
                        )
                        .is_none()
                    {
                        self.complete_query(q, now);
                        return;
                    }
                    // Every `Some` from route_candidates holds at least
                    // one id (the debug_assert at the head of this fn);
                    // were one empty, the lookup fails, typed, rather
                    // than the run.
                    let best = repaired.iter().copied();
                    match best.min_by_key(|&x| self.topo.logical_metric(x, key)) {
                        Some(alt) => alt,
                        None => {
                            self.fail_query(q, now);
                            return;
                        }
                    }
                }
            };
        }

        // Fault gate at the moment of transmission: an active partition
        // blocks the link, an active loss episode may eat the message.
        // Hops are not charged for a forward that never lands.
        if self.forward_fault_lost(q, me, next, now) {
            return;
        }

        self.queries[q].attempts = 0;
        self.queries[q].hops += 1;
        let (from_lin, to_lin) = (self.topo.space.lin(me), self.topo.space.lin(next));
        self.telemetry.emit(now, || TelemetryEvent::LookupHop {
            q: q as u64,
            from: from_lin,
            to: to_lin,
        });
        let latency =
            SimDuration::from_secs_f64(LATENCY_SCALE * self.topo.phys_dist(me, next)) + penalty;
        self.schedule_event(now + latency, Event::Arrive { q, to: next });
    }

    fn on_arrive(&mut self, q: usize, to: CycloidId, now: SimTime) {
        if self.queries[q].done {
            return;
        }
        self.deliver(q, to, now);
    }

    /// One adaptation period: Algorithm 3 on each node that
    /// [`Network::adapt_decisions`] names, through [`Topology::adapt`].
    fn on_adapt_tick(&mut self, now: SimTime) {
        self.adapt_rounds += 1;
        let round = self.adapt_rounds;
        self.telemetry
            .emit(now, || TelemetryEvent::AdaptTick { round });
        if self.protocol.table == TablePolicy::Elastic && self.protocol.adaptation {
            // Decide-then-apply: every node's action is a pure function
            // of its host's (period_load, capacity_eval), and applying
            // an action mutates only the acting node's indegree and its
            // peers' *out*degrees — never another node's decision
            // inputs or indegree. Decisions therefore commute with
            // application, and the sharded core computes them per shard
            // in parallel while applying them in global node order,
            // byte-identical to the legacy inline loop. The step is
            // sized at the node's turn, from its own table.
            for (node, action) in self.adapt_decisions() {
                let (step, count) = self.topo.adapt(node, action);
                let node = self.topo.space.lin(self.topo.nodes[node].id);
                let event = match step {
                    _ if count == 0 => continue,
                    AdaptStep::Shed { .. } => TelemetryEvent::LinkShed { node, count },
                    _ => TelemetryEvent::LinkGrown { node, count },
                };
                self.telemetry.emit(now, || event);
            }
        }
        if self.protocol.item_movement {
            self.item_movement_round(now);
        }
        if self.cfg.stabilization {
            for node in 0..self.topo.nodes.len() {
                if self.topo.nodes[node].alive {
                    self.topo.stabilize_node(node, &mut self.rng_topology);
                }
            }
        }
        self.run_sweep();
        for h in &mut self.topo.hosts {
            h.period_load = 0;
        }
        if self.injections_left > 0 || self.outstanding > 0 {
            self.schedule_event_in(self.cfg.ert.adaptation_period, Event::AdaptTick);
        }
    }

    /// Computes the adaptation action for every alive node. Sequential
    /// on the single engine; on the sharded core each shard decides for
    /// its own node slice in parallel on the `ert-par` ordered pool,
    /// and the per-shard results are merged back into global node
    /// order. The decision is a pure read of `(period_load,
    /// capacity_eval, cfg.ert)`, so shard-parallel evaluation is
    /// order-free and the merged list equals the sequential one.
    fn adapt_decisions(&self) -> Vec<(usize, AdaptAction)> {
        fn decide(n: usize, topo: &Topology, cfg: &NetworkConfig) -> Option<(usize, AdaptAction)> {
            let node = &topo.nodes[n];
            if !node.alive {
                return None;
            }
            let host = &topo.hosts[node.host];
            match adaptation_action(host.period_load as f64, host.capacity_eval as f64, &cfg.ert) {
                AdaptAction::Keep => None,
                act => Some((n, act)),
            }
        }
        match &self.reactor {
            Reactor::Single(_) => (0..self.topo.nodes.len())
                .filter_map(|n| decide(n, &self.topo, &self.cfg))
                .collect(),
            Reactor::Sharded { .. } => {
                let (_, node_parts) = self.shard_partitions();
                let workers = node_parts.len().min(ert_par::default_jobs()).max(1);
                let topo = &self.topo;
                let cfg = &self.cfg;
                let per_shard = ert_par::map_ordered(workers, node_parts, |nodes| {
                    nodes
                        .into_iter()
                        .filter_map(|n| decide(n, topo, cfg))
                        .collect::<Vec<_>>()
                });
                let mut all: Vec<(usize, AdaptAction)> = per_shard.into_iter().flatten().collect();
                all.sort_by_key(|&(n, _)| n);
                all
            }
        }
    }

    /// One round of item-movement balancing (Bharambe et al. style):
    /// the most overloaded hosts each pull a sampled light node to
    /// leave its position and rejoin just before them, splitting their
    /// responsibility interval. ID changes are charged as maintenance.
    fn item_movement_round(&mut self, now: SimTime) {
        let gamma_l = self.cfg.ert.gamma_l;
        let mut heavy: Vec<usize> = self
            .alive_hosts
            .iter()
            .copied()
            .filter(|&h| {
                let host = &self.topo.hosts[h];
                host.period_load as f64 > gamma_l * host.capacity_eval as f64
            })
            .collect();
        heavy.sort_by(|&a, &b| {
            let ga =
                self.topo.hosts[a].period_load as f64 / self.topo.hosts[a].capacity_eval as f64;
            let gb =
                self.topo.hosts[b].period_load as f64 / self.topo.hosts[b].capacity_eval as f64;
            gb.total_cmp(&ga)
        });
        let budget = (self.alive_hosts.len() / 64).max(1);
        for &hh in heavy.iter().take(budget) {
            let Some(&heavy_node) = self.topo.hosts[hh]
                .nodes
                .iter()
                .find(|&&n| self.topo.nodes[n].alive)
            else {
                continue;
            };
            // Sample candidates and take the lightest genuinely light one.
            let sample = self.rng_topology.sample_indices(self.alive_hosts.len(), 8);
            let light_host = sample
                .into_iter()
                .map(|i| self.alive_hosts[i])
                .filter(|&h| {
                    h != hh
                        && (self.topo.hosts[h].period_load as f64)
                            < self.topo.hosts[h].capacity_eval as f64
                })
                .min_by(|&a, &b| {
                    let ga = self.topo.hosts[a].period_load as f64
                        / self.topo.hosts[a].capacity_eval as f64;
                    let gb = self.topo.hosts[b].period_load as f64
                        / self.topo.hosts[b].capacity_eval as f64;
                    ga.total_cmp(&gb)
                });
            let Some(lh) = light_host else { continue };
            let Some(&light_node) = self.topo.hosts[lh]
                .nodes
                .iter()
                .find(|&&n| self.topo.nodes[n].alive)
            else {
                continue;
            };
            // Split the heavy node's interval at its midpoint.
            let heavy_id = self.topo.nodes[heavy_node].id;
            let Some(pred) = self.topo.registry.predecessor(heavy_id) else {
                continue;
            };
            let gap = self.topo.registry.forward_dist(pred, heavy_id);
            if gap < 2 {
                continue;
            }
            let new_lin = (self.topo.space.lin(pred) + gap / 2) % self.topo.space.ring_size();
            let new_id = self.topo.space.from_lin(new_lin);
            if self.topo.registry.contains(new_id) {
                continue;
            }
            // The rejoin: the old identity's links are torn down (and
            // charged), the new one built from scratch.
            let old = &self.topo.nodes[light_node];
            self.topo.link_ops += (old.table.outdegree() + old.table.indegree()) as u64;
            let d_max = old.d_max();
            let old_lin = self.topo.space.lin(old.id);
            self.topo.remove_node(light_node);
            let fresh = self.topo.add_node(new_id, lh, d_max);
            self.topo.build_node_table(fresh, &mut self.rng_topology);
            let new_lin = self.topo.space.lin(new_id);
            self.telemetry.emit(now, || TelemetryEvent::NodeRelocated {
                from: old_lin,
                to: new_lin,
            });
        }
    }

    /// Takes one periodic telemetry snapshot and schedules the next
    /// tick. Pure observation: it reads state but never mutates the
    /// simulation or draws randomness, so a sampled run produces the
    /// same [`RunReport`] as an unsampled one.
    fn on_sample(&mut self, now: SimTime) {
        let mut congestion = ert_sim::stats::Samples::new();
        let mut utilization_sum = 0.0;
        let (mut queue_total, mut queue_max) = (0u64, 0u64);
        for &h in &self.alive_hosts {
            let host = &self.topo.hosts[h];
            congestion.push(host.congestion());
            let depth = host.load() as u64;
            queue_total += depth;
            queue_max = queue_max.max(depth);
            if now > SimTime::ZERO {
                utilization_sum +=
                    (host.busy_micros.min(now.as_micros())) as f64 / now.as_micros() as f64;
            }
        }
        let host_count = self.alive_hosts.len().max(1) as f64;
        let (mut in_min, mut in_max, mut in_sum) = (u64::MAX, 0u64, 0u64);
        let (mut out_min, mut out_max, mut out_sum) = (u64::MAX, 0u64, 0u64);
        let mut alive_nodes = 0u64;
        for node in &self.topo.nodes {
            if !node.alive {
                continue;
            }
            alive_nodes += 1;
            let (ind, outd) = (node.table.indegree() as u64, node.table.outdegree() as u64);
            in_min = in_min.min(ind);
            in_max = in_max.max(ind);
            in_sum += ind;
            out_min = out_min.min(outd);
            out_max = out_max.max(outd);
            out_sum += outd;
        }
        let node_count = alive_nodes.max(1) as f64;
        // One summary() call: sorts the congestion samples once and
        // reads every rank from the same scratch copy.
        let congestion = congestion.summary();
        let congestion_p99 = congestion.p99;
        self.telemetry.record_snapshot(Snapshot {
            at: now,
            lookups_in_flight: self.outstanding,
            lookups_completed: self.metrics.lookups_completed,
            lookups_dropped: self.metrics.lookups_dropped,
            queue_depth_total: queue_total,
            queue_depth_max: queue_max,
            congestion_p50: congestion.p50,
            congestion_p99,
            congestion_max: congestion.max,
            utilization_mean: utilization_sum / host_count,
            indegree_min: if alive_nodes == 0 { 0 } else { in_min },
            indegree_mean: in_sum as f64 / node_count,
            indegree_max: in_max,
            outdegree_min: if alive_nodes == 0 { 0 } else { out_min },
            outdegree_mean: out_sum as f64 / node_count,
            outdegree_max: out_max,
            alive_nodes,
            alive_hosts: self.alive_hosts.len() as u64,
        });
        self.telemetry
            .observe("congestion_p99", now, || congestion_p99);
        self.telemetry.counter_add("samples", 1);
        if let Some(clock) = &mut self.sample_clock {
            clock.advance();
            if self.injections_left > 0 || self.outstanding > 0 {
                let at = clock.next_at();
                self.schedule_event(at, Event::Sample);
            }
        }
    }

    fn on_churn(&mut self, i: usize, now: SimTime) {
        match self.churn_schedule[i] {
            ChurnEvent::Join { capacity, .. } => self.join_host(capacity, now),
            ChurnEvent::Leave { .. } => self.leave_random_host(now),
        }
    }

    fn join_host(&mut self, raw_capacity: f64, now: SimTime) {
        let nc = raw_capacity / self.capacity_unit;
        let est = self
            .cfg
            .estimator
            .estimate_capacity(nc, &mut self.rng_topology);
        let alpha = self.topo.params.alpha;
        let capacity_eval = max_indegree(alpha, est);
        let coord = Coord::random(&mut self.rng_topology);
        let Some(id) = self.topo.registry.random_vacant(&mut self.rng_topology) else {
            return; // the ID space is full
        };
        let host = self
            .topo
            .add_host(Host::new(raw_capacity, nc, est, capacity_eval, coord));
        let d_max = node_d_max(&self.protocol, &self.topo.hosts[host], alpha);
        let node = self.topo.add_node(id, host, d_max);
        self.topo.build_node_table(node, &mut self.rng_topology);
        self.alive_hosts.push(host);
        if let Reactor::Sharded { map, .. } = &self.reactor {
            self.host_shard
                .push(map.shard_of(self.topo.space.lin(id), self.topo.space.ring_size()));
        }
        let node_lin = self.topo.space.lin(id);
        self.telemetry
            .emit(now, || TelemetryEvent::NodeJoined { node: node_lin });
    }

    fn leave_random_host(&mut self, now: SimTime) {
        if self.alive_hosts.len() <= 2 {
            return; // keep the overlay routable
        }
        let pos = self.rng_topology.gen_range(0..self.alive_hosts.len());
        // Queries stranded on the departed host resume at the successor
        // of the node they were queued at, after a timeout.
        for q in self.remove_host(pos, now) {
            if self.queries[q].done {
                continue;
            }
            self.metrics.handoffs += 1;
            let at = self.topo.nodes[self.queries[q].at_node].id;
            match self.topo.registry.owner(at) {
                Some(successor) => {
                    let succ_lin = self.topo.space.lin(successor);
                    self.telemetry.emit(now, || TelemetryEvent::LookupHandoff {
                        q: q as u64,
                        successor: succ_lin,
                    });
                    self.schedule_event(now + TIMEOUT_PENALTY, Event::Arrive { q, to: successor })
                }
                None => self.drop_query(q, now),
            }
        }
    }

    /// Removes the live host at `alive_hosts[pos]` and all its nodes,
    /// and returns the queries queued or in service on it.
    fn remove_host(&mut self, pos: usize, now: SimTime) -> Vec<usize> {
        let host_idx = self.alive_hosts.swap_remove(pos);
        let node_idxs = self.topo.hosts[host_idx].nodes.clone();
        let mut removed: u32 = 0;
        for n in node_idxs {
            if self.topo.nodes[n].alive {
                self.topo.remove_node(n);
                removed += 1;
            }
        }
        self.faults.degraded.remove(&host_idx);
        let host = &mut self.topo.hosts[host_idx];
        host.alive = false;
        let mut stranded: Vec<usize> = host.queue.drain(..).collect();
        stranded.extend(host.in_service.take());
        self.telemetry.emit(now, || TelemetryEvent::NodeDeparted {
            host: host_idx as u64,
            nodes: removed,
        });
        stranded
    }

    fn on_fault(&mut self, i: usize, now: SimTime) {
        let ev = self.fault_schedule[i];
        let seq = i as u64;
        let tag = ev.kind.tag();
        if ev.kind.is_adversarial() {
            self.telemetry
                .emit(now, || TelemetryEvent::AdversaryActivated {
                    seq,
                    actor: tag.to_string(),
                });
        } else {
            self.telemetry.emit(now, || TelemetryEvent::FaultInjected {
                seq,
                fault: tag.to_string(),
            });
        }
        match ev.kind {
            FaultKind::Crash => self.crash_random_host(now),
            FaultKind::Degrade { factor } => {
                if let Some(&host) = self.rng_faults.choose(&self.alive_hosts) {
                    self.faults.degraded.insert(host, factor);
                }
            }
            FaultKind::DropMessages { p, window } => {
                self.faults.drop = Some((p, now + window));
            }
            FaultKind::Partition { groups, window } => {
                self.faults.partition = Some((groups, now + window));
            }
            FaultKind::Heal => self.faults.heal(),
            FaultKind::Restore => self.restore_honest(),
            FaultKind::CapacityLiar { fraction, error } => {
                self.activate_liars(fraction, error, now)
            }
            FaultKind::SybilSwarm { count, region } => self.join_sybils(count, region, now),
            FaultKind::QueryFlood {
                key,
                queries,
                window,
            } => self.inject_flood(key, queries, window, now),
            FaultKind::RoutingDefector { fraction } => self.activate_defectors(fraction),
        }
    }

    /// Turns a sampled fraction of live hosts into capacity liars:
    /// their reported estimate ĉ — and the capacity evaluation every
    /// routing and adaptation decision reads — is multiplied by
    /// `error`, violating the γ_c envelope of Theorems 3.1/3.2. Only
    /// the *advertised* side moves: [`Host::capacity_true`] keeps the
    /// honest threshold, so a liar attracts two-choice traffic by
    /// advertising slack congestion while its queue physically
    /// saturates at the honest capacity. The honest pair is stashed for
    /// [`FaultKind::Restore`]; lying twice compounds the error but
    /// restores to the original truth.
    fn activate_liars(&mut self, fraction: f64, error: f64, now: SimTime) {
        let n = self.alive_hosts.len();
        if n == 0 {
            return;
        }
        let k = ((fraction * n as f64).ceil() as usize).clamp(1, n);
        let alpha = self.topo.params.alpha;
        for p in self.rng_adversary.sample_indices(n, k) {
            let h = self.alive_hosts[p];
            {
                let host = &mut self.topo.hosts[h];
                self.faults
                    .liars
                    .entry(h)
                    .or_insert((host.est_capacity, host.capacity_eval));
                let lied = host.est_capacity * error;
                host.est_capacity = lied;
                host.capacity_eval = max_indegree(alpha, lied).max(1);
            }
            self.telemetry
                .emit(now, || TelemetryEvent::CapacityMisreport {
                    host: h as u64,
                    factor: error,
                });
        }
    }

    /// Turns a sampled fraction of live hosts into routing defectors
    /// (see the defection branch in [`Network::forward`]).
    fn activate_defectors(&mut self, fraction: f64) {
        let n = self.alive_hosts.len();
        if n == 0 {
            return;
        }
        let k = ((fraction * n as f64).ceil() as usize).clamp(1, n);
        for p in self.rng_adversary.sample_indices(n, k) {
            self.faults.defectors.insert(self.alive_hosts[p]);
        }
    }

    /// Joins `count` coordinated identities packed onto consecutive
    /// vacant slots scanning forward from `region`, concentrating
    /// indegree (and ring responsibility) on the victims there. Each
    /// Sybil reports the unit capacity *honestly* — the attack is
    /// identity concentration, not misreport — so only Theorem 3.2's
    /// independence assumption is violated.
    fn join_sybils(&mut self, count: u32, region: f64, now: SimTime) {
        let ring = self.topo.space.ring_size();
        let alpha = self.topo.params.alpha;
        let mut lin = (region.rem_euclid(1.0) * ring as f64) as u64 % ring;
        let mut tries: u64 = 0;
        for _ in 0..count {
            while self.topo.registry.contains(self.topo.space.from_lin(lin)) {
                lin = (lin + 1) % ring;
                tries += 1;
                if tries > ring {
                    return; // the ID space is full
                }
            }
            let id = self.topo.space.from_lin(lin);
            let nc = 1.0;
            let est = self
                .cfg
                .estimator
                .estimate_capacity(nc, &mut self.rng_adversary);
            let capacity_eval = max_indegree(alpha, est);
            let coord = Coord::random(&mut self.rng_adversary);
            let host =
                self.topo
                    .add_host(Host::new(self.capacity_unit, nc, est, capacity_eval, coord));
            let d_max = node_d_max(&self.protocol, &self.topo.hosts[host], alpha);
            let node = self.topo.add_node(id, host, d_max);
            self.topo.build_node_table(node, &mut self.rng_adversary);
            self.alive_hosts.push(host);
            if let Reactor::Sharded { map, .. } = &self.reactor {
                self.host_shard
                    .push(map.shard_of(self.topo.space.lin(id), self.topo.space.ring_size()));
            }
            let node_lin = self.topo.space.lin(id);
            self.telemetry
                .emit(now, || TelemetryEvent::NodeJoined { node: node_lin });
        }
    }

    /// Layers a flash crowd onto the base workload: `queries` lookups
    /// for the single flooded key, spread evenly over `window`. Sources
    /// stay random (drawn from the workload stream at inject time, like
    /// any other lookup); the key resolves through the deterministic
    /// ring-fraction path, so the flood adds no extra workload draws.
    fn inject_flood(&mut self, key: f64, queries: u32, window: SimDuration, now: SimTime) {
        let key_lin = (key.rem_euclid(1.0) * self.topo.space.ring_size() as f64) as u64
            % self.topo.space.ring_size();
        self.telemetry.emit(now, || TelemetryEvent::FloodBurst {
            key: key_lin,
            count: queries,
        });
        for j in 0..queries {
            let offset = SimDuration::from_micros(
                (u128::from(window.as_micros()) * u128::from(j) / u128::from(queries)) as u64,
            );
            let at = now + offset;
            let idx = self.lookups.len();
            self.lookups.push(Lookup {
                at,
                source: SourcePick::Random,
                key: KeyPick::RingFraction(key),
            });
            self.injections_left += 1;
            self.schedule_event(at, Event::Inject(idx));
        }
    }

    /// Reverts every reversible adversary effect: liars report their
    /// honest capacities again and defectors resume Algorithm 4.
    /// Sybils stay (identity joins are as irreversible as churn joins)
    /// and already-injected flood lookups run their course.
    fn restore_honest(&mut self) {
        let liars = std::mem::take(&mut self.faults.liars);
        for (h, (est, eval)) in liars {
            let host = &mut self.topo.hosts[h];
            host.est_capacity = est;
            host.capacity_eval = eval;
        }
        self.faults.defectors.clear();
    }

    /// Crash-stop departure: like [`Network::leave_random_host`] but
    /// with **no successor handoff** — every query queued or in service
    /// on the victim dies with it (accounted as failed).
    fn crash_random_host(&mut self, now: SimTime) {
        if self.alive_hosts.len() <= 2 {
            return; // keep the overlay routable, as with clean leaves
        }
        let pos = self.rng_faults.gen_range(0..self.alive_hosts.len());
        for q in self.remove_host(pos, now) {
            self.fail_query(q, now);
        }
    }

    /// The subset of `ids` across an active partition cut from `node`'s
    /// host; empty when no partition is in force. Departed entries pass
    /// the filter — discovering those is the stale-link path's business.
    fn partition_cut(&self, node: usize, ids: &[CycloidId], now: SimTime) -> BTreeSet<CycloidId> {
        let Some(groups) = self.faults.partition_groups(now) else {
            return BTreeSet::new();
        };
        let mine = self.topo.nodes[node].host as u64 % u64::from(groups);
        ids.iter()
            .copied()
            .filter(|&id| match self.topo.host_of_id(id) {
                Some(h) => h as u64 % u64::from(groups) != mine,
                None => false,
            })
            .collect()
    }

    /// Whether an active partition blocks a message between the hosts
    /// owning `from` and `to`.
    fn partition_blocks(&self, from: CycloidId, to: CycloidId, now: SimTime) -> bool {
        let Some(groups) = self.faults.partition_groups(now) else {
            return false;
        };
        match (self.topo.host_of_id(from), self.topo.host_of_id(to)) {
            (Some(a), Some(b)) => a as u64 % u64::from(groups) != b as u64 % u64::from(groups),
            _ => false,
        }
    }

    /// The fault gate at the moment of transmission: returns `true` (and
    /// accounts the loss) when the forward `me -> next` is blocked by an
    /// active partition or eaten by an active message-drop episode.
    fn forward_fault_lost(
        &mut self,
        q: usize,
        me: CycloidId,
        next: CycloidId,
        now: SimTime,
    ) -> bool {
        let blocked = self.partition_blocks(me, next, now);
        let dropped = !blocked
            && match self.faults.drop_p(now) {
                Some(p) => self.rng_faults.gen::<f64>() < p,
                None => false,
            };
        if !(blocked || dropped) {
            return false;
        }
        let (from_lin, to_lin) = (self.topo.space.lin(me), self.topo.space.lin(next));
        self.telemetry.emit(now, || TelemetryEvent::MessageLost {
            q: q as u64,
            from: from_lin,
            to: to_lin,
        });
        self.forward_lost(q, now);
        true
    }

    /// One forward attempt of query `q` went nowhere (partition block,
    /// message drop, or no reachable candidate at all). The sender
    /// notices after a timeout; the retry policy then grants another
    /// attempt with exponential backoff, or the query fails.
    fn forward_lost(&mut self, q: usize, now: SimTime) {
        self.queries[q].attempts += 1;
        let attempt = self.queries[q].attempts;
        if attempt >= self.cfg.retry.max_attempts {
            self.fail_query(q, now);
            return;
        }
        self.metrics.retries += 1;
        self.telemetry.emit(now, || TelemetryEvent::LookupRetry {
            q: q as u64,
            attempt,
        });
        let delay = TIMEOUT_PENALTY + self.cfg.retry.backoff(attempt);
        self.schedule_event(now + delay, Event::Retry { q });
    }

    fn on_retry(&mut self, q: usize, now: SimTime) {
        if self.queries[q].done {
            return;
        }
        let node = self.queries[q].at_node;
        if self.topo.nodes[node].alive {
            self.forward(q, node, now);
        } else {
            // The retrying node itself departed during the backoff:
            // `deliver` reroutes to its ring successor like any other
            // message addressed to a dead node.
            let id = self.topo.nodes[node].id;
            self.deliver(q, id, now);
        }
    }
}

/// What probing the overlay node `id` reports: its host's
/// `(load, capacity)`, or `(0, 1)` for a departed node, which
/// non-probing policies may still pick.
fn probe_load(topo: &Topology, id: CycloidId) -> (f64, f64) {
    match topo.host_of_id(id) {
        Some(h) => {
            let host = &topo.hosts[h];
            (host.load() as f64, host.capacity_eval as f64)
        }
        None => (0.0, 1.0),
    }
}

/// Shard affinity of a host: the shard owning the ring position of its
/// first overlay node (hosts with no nodes pin to the control shard 0).
fn host_shard_for(topo: &Topology, map: &ShardMap, host: usize) -> usize {
    topo.hosts[host]
        .nodes
        .first()
        .map(|&n| map.shard_of(topo.space.lin(topo.nodes[n].id), topo.space.ring_size()))
        .unwrap_or(0)
}

fn node_d_max(protocol: &ProtocolSpec, host: &Host, alpha: f64) -> u32 {
    match protocol.table {
        // Base and VS place no bound on inlinks.
        TablePolicy::SingleClosest => u32::MAX >> 8,
        // NS and ERT bound inlinks by capacity.
        TablePolicy::SingleHighestCapacity | TablePolicy::Elastic => {
            max_indegree(alpha, host.est_capacity)
        }
    }
}

/// Convenience: `count` uniform lookups at Poisson rate `rate_per_sec`
/// aggregate (random live source, random key). Used by doc examples and
/// tests; real workloads come from `ert-workloads`.
pub fn uniform_lookup_burst(count: usize, rate_per_sec: f64, seed: u64) -> Vec<Lookup> {
    let mut rng = SimRng::seed_from(seed);
    let mut t = SimTime::ZERO;
    (0..count)
        .map(|_| {
            t += SimDuration::from_secs_f64(rng.exp_secs(rate_per_sec));
            Lookup {
                at: t,
                source: SourcePick::Random,
                key: KeyPick::Random,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CycloidSlot, VirtualServerConfig};

    fn caps(n: usize) -> Vec<f64> {
        // Mildly heterogeneous, deterministic capacities.
        (0..n).map(|i| 500.0 + 300.0 * (i % 7) as f64).collect()
    }

    fn run_protocol(spec: ProtocolSpec, lookups: usize, seed: u64) -> RunReport {
        let capacities = caps(128);
        let cfg = NetworkConfig::for_dimension(6, seed);
        let mut net = Network::new(cfg, &capacities, spec).unwrap();
        let schedule = uniform_lookup_burst(lookups, 128.0, seed);
        net.run(&schedule, &[])
    }

    /// The tentpole contract in unit form: the sharded core produces a
    /// byte-identical report for every shard count, including the
    /// legacy `shards == 0` engine. (The full pin suite across workload
    /// shapes and plans lives in `tests/shard_determinism.rs`.)
    #[test]
    fn sharded_runs_match_legacy_engine() {
        let run = |shards: usize| {
            let capacities = caps(96);
            let mut cfg = NetworkConfig::for_dimension(6, 11);
            cfg.shards = shards;
            let mut net = Network::new(cfg, &capacities, ProtocolSpec::ert_af()).unwrap();
            let schedule = uniform_lookup_burst(150, 96.0, 11);
            let churn: Vec<ChurnEvent> = vec![
                ChurnEvent::Leave {
                    at: schedule[40].at,
                },
                ChurnEvent::Join {
                    at: schedule[40].at,
                    capacity: 1500.0,
                },
            ];
            let report = format!("{:?}", net.run(&schedule, &churn));
            (report, net.shard_stats())
        };
        let (legacy, no_stats) = run(0);
        assert!(no_stats.is_none(), "legacy engine reports no shard stats");
        for shards in [1, 2, 3, 8] {
            let (sharded, stats) = run(shards);
            assert_eq!(legacy, sharded, "report diverged at {shards} shards");
            let stats = stats.expect("sharded run exposes stats");
            assert!(stats.barrier_drains > 0);
            if shards > 1 {
                assert!(
                    stats.cross_shard_messages > 0,
                    "a multi-shard run must exchange cross-shard events"
                );
            }
        }
    }

    #[test]
    fn all_lookups_complete_without_churn_base() {
        let r = run_protocol(crate_base_spec(), 300, 1);
        assert_eq!(r.lookups_completed, 300, "dropped: {}", r.lookups_dropped);
        assert!(r.mean_path_length > 0.5);
        assert!(r.mean_path_length < 20.0);
        assert_eq!(r.timeouts_per_lookup, 0.0);
    }

    #[test]
    fn all_lookups_complete_ert_af() {
        let r = run_protocol(ProtocolSpec::ert_af(), 300, 2);
        assert_eq!(r.lookups_completed, 300, "dropped: {}", r.lookups_dropped);
        assert!(r.probes_per_decision > 0.9, "two-choice should probe");
        assert!(r.lookup_time.mean > 0.0);
    }

    #[test]
    fn ert_variants_all_complete() {
        for spec in [ProtocolSpec::ert_a(), ProtocolSpec::ert_f()] {
            let name = spec.name.clone();
            let r = run_protocol(spec, 200, 3);
            assert_eq!(
                r.lookups_completed, 200,
                "{name} dropped {}",
                r.lookups_dropped
            );
        }
    }

    #[test]
    fn virtual_servers_lengthen_paths() {
        let base = run_protocol(crate_base_spec(), 250, 4);
        let vs_spec = ProtocolSpec {
            name: "VS".into(),
            table: TablePolicy::SingleClosest,
            adaptation: false,
            forwarding: ForwardPolicy::Deterministic,
            virtual_servers: Some(VirtualServerConfig::for_network_size(128)),
            item_movement: false,
        };
        let vs = run_protocol(vs_spec, 250, 4);
        assert_eq!(vs.lookups_completed, 250, "dropped {}", vs.lookups_dropped);
        assert!(
            vs.mean_path_length > base.mean_path_length,
            "VS {} should exceed Base {}",
            vs.mean_path_length,
            base.mean_path_length
        );
    }

    #[test]
    fn churn_run_completes_and_counts_membership() {
        let capacities = caps(128);
        let cfg = NetworkConfig::for_dimension(6, 5);
        let mut net = Network::new(cfg, &capacities, ProtocolSpec::ert_af()).unwrap();
        let lookups = uniform_lookup_burst(300, 64.0, 5);
        let horizon = lookups.last().unwrap().at;
        let mut churn = Vec::new();
        let mut rng = SimRng::seed_from(99);
        let mut t = SimTime::ZERO;
        while t < horizon {
            t += SimDuration::from_secs_f64(rng.exp_secs(20.0));
            churn.push(ChurnEvent::Join {
                at: t,
                capacity: 800.0,
            });
            t += SimDuration::from_secs_f64(rng.exp_secs(20.0));
            churn.push(ChurnEvent::Leave { at: t });
        }
        let r = net.run(&lookups, &churn);
        assert_eq!(r.lookups_completed + r.lookups_dropped, 300);
        assert!(
            r.lookups_completed >= 290,
            "churn should not drop many lookups"
        );
        assert!(net.topology().hosts.len() > 128, "joins must have happened");
    }

    #[test]
    fn base_single_neighbor_tables_have_bounded_outdegree() {
        let capacities = caps(128);
        let cfg = NetworkConfig::for_dimension(6, 6);
        let net = Network::new(cfg, &capacities, crate_base_spec()).unwrap();
        for node in &net.topology().nodes {
            let cub = node.table.outlinks(CycloidSlot::Cubical).len();
            let cyc = node.table.outlinks(CycloidSlot::Cyclic).len();
            assert!(cub <= 1 && cyc <= 2, "Base table too wide: {cub}/{cyc}");
        }
    }

    #[test]
    fn deterministic_given_same_seed() {
        let a = run_protocol(ProtocolSpec::ert_af(), 150, 7);
        let b = run_protocol(ProtocolSpec::ert_af(), 150, 7);
        assert_eq!(a.lookup_time.mean, b.lookup_time.mean);
        assert_eq!(a.p99_max_congestion, b.p99_max_congestion);
        assert_eq!(a.heavy_encounters, b.heavy_encounters);
    }

    #[test]
    fn rejects_empty_network() {
        let cfg = NetworkConfig::for_dimension(6, 1);
        assert!(Network::new(cfg, &[], ProtocolSpec::ert_af()).is_err());
    }

    /// The rendered trace ring of one small run (n = 64, seed 23, 20
    /// lookups: 252 events), captured from the tree that still
    /// formatted every event into a string as it was recorded.
    const TRACE_RING_PIN: &str = include_str!("../tests/pins/trace_ring.txt");

    fn traced_render(capacity: usize) -> String {
        let cfg = NetworkConfig::for_dimension(6, 23);
        let mut net = Network::new(cfg, &caps(64), ProtocolSpec::ert_af()).unwrap();
        net.set_telemetry(Telemetry::with_trace_capacity(capacity));
        net.run(&uniform_lookup_burst(20, 64.0, 23), &[]);
        net.telemetry().render_trace()
    }

    #[test]
    fn tracing_records_query_lifecycle() {
        // A 256-entry ring holds the whole run, byte for byte.
        let trace = traced_render(256);
        assert!(trace.contains("inject"), "trace: {trace}");
        assert!(trace.contains("complete"));
        assert_eq!(trace, TRACE_RING_PIN);
        // A 64-entry ring evicts the oldest events and keeps the tail.
        let pinned: Vec<&str> = TRACE_RING_PIN.lines().collect();
        let tail = pinned[pinned.len() - 64..].join("\n") + "\n";
        assert_eq!(traced_render(64), tail);
        // Disabled by default: no overhead, no entries.
        let cfg = NetworkConfig::for_dimension(6, 23);
        let mut net = Network::new(cfg, &caps(64), ProtocolSpec::ert_af()).unwrap();
        net.run(&uniform_lookup_burst(5, 64.0, 23), &[]);
        assert!(net.telemetry().trace().is_empty());
        assert_eq!(net.telemetry().events_emitted(), 0);
    }

    #[test]
    fn anonymity_mode_doubles_relay_load_and_completes() {
        let capacities = caps(128);
        let mut plain_cfg = NetworkConfig::for_dimension(6, 21);
        let mut anon_cfg = plain_cfg;
        anon_cfg.anonymous_responses = true;
        plain_cfg.seed = 21;
        let schedule = uniform_lookup_burst(250, 128.0, 21);

        let mut plain = Network::new(plain_cfg, &capacities, ProtocolSpec::ert_af()).unwrap();
        let rp = plain.run(&schedule, &[]);
        let mut anon = Network::new(anon_cfg, &capacities, ProtocolSpec::ert_af()).unwrap();
        let ra = anon.run(&schedule, &[]);

        assert_eq!(ra.lookups_completed, 250, "dropped {}", ra.lookups_dropped);
        // The response retraces the path: total load roughly doubles...
        let load =
            |net: &Network| -> u64 { net.topology().hosts.iter().map(|h| h.total_received).sum() };
        let (lp, la) = (load(&plain), load(&anon));
        assert!(
            la as f64 > 1.6 * lp as f64 && (la as f64) < 2.4 * lp as f64,
            "plain {lp} vs anon {la}"
        );
        // ...and round-trip times exceed one-way times.
        assert!(ra.lookup_time.mean > 1.5 * rp.lookup_time.mean);
        // Path-length metric still counts request hops only.
        assert!((ra.mean_path_length - rp.mean_path_length).abs() < 2.0);
    }

    #[test]
    fn anonymity_mode_survives_churn() {
        let capacities = caps(128);
        let mut cfg = NetworkConfig::for_dimension(6, 22);
        cfg.anonymous_responses = true;
        let mut net = Network::new(cfg, &capacities, ProtocolSpec::ert_af()).unwrap();
        let lookups = uniform_lookup_burst(200, 64.0, 22);
        let horizon = lookups.last().unwrap().at;
        let mut churn = Vec::new();
        let mut rng = SimRng::seed_from(22);
        let mut t = SimTime::ZERO;
        while t < horizon {
            t += SimDuration::from_secs_f64(rng.exp_secs(30.0));
            churn.push(ChurnEvent::Leave { at: t });
            t += SimDuration::from_secs_f64(rng.exp_secs(30.0));
            churn.push(ChurnEvent::Join {
                at: t,
                capacity: 900.0,
            });
        }
        let r = net.run(&lookups, &churn);
        assert_eq!(r.lookups_completed + r.lookups_dropped, 200);
        assert!(
            r.lookups_completed >= 190,
            "completed {}",
            r.lookups_completed
        );
    }

    #[test]
    fn telemetry_streams_events_and_snapshots_without_perturbing_the_run() {
        use ert_telemetry::{MemorySink, Telemetry};

        let capacities = caps(64);
        let schedule = uniform_lookup_burst(100, 64.0, 31);

        // Plain run: no telemetry at all.
        let cfg = NetworkConfig::for_dimension(6, 31);
        let mut plain = Network::new(cfg, &capacities, ProtocolSpec::ert_af()).unwrap();
        let rp = plain.run(&schedule, &[]);

        // Instrumented run: sink attached, sampler at 0.5 s.
        let mut cfg2 = NetworkConfig::for_dimension(6, 31);
        cfg2.sample_interval = SimDuration::from_secs_f64(0.5);
        let mut net = Network::new(cfg2, &capacities, ProtocolSpec::ert_af()).unwrap();
        let sink = MemorySink::new();
        let lines = sink.handle();
        let mut tel = Telemetry::disabled();
        tel.add_sink(Box::new(sink));
        net.set_telemetry(tel);
        let rt = net.run(&schedule, &[]);

        // Observation must not perturb the simulation.
        assert_eq!(rp.lookups_completed, rt.lookups_completed);
        assert_eq!(rp.lookup_time.mean, rt.lookup_time.mean);
        assert_eq!(rp.p99_max_congestion, rt.p99_max_congestion);
        assert_eq!(rp.sim_seconds, rt.sim_seconds);

        let lines = lines.lock().unwrap();
        let kinds: std::collections::BTreeSet<&str> = lines
            .iter()
            .filter(|l| l.starts_with("{\"kind\":\"event\""))
            .filter_map(|l| {
                let tag = l.split("\"event\":{\"").nth(1)?;
                tag.split('"').next()
            })
            .collect();
        assert!(
            kinds.len() >= 3,
            "want >=3 distinct event kinds, got {kinds:?}"
        );
        assert!(lines
            .iter()
            .any(|l| l.starts_with("{\"kind\":\"snapshot\"")));

        // Retained snapshot series: monotone sim timestamps at Δt grid.
        let tel = net.take_telemetry();
        let snaps = tel.snapshots();
        assert!(
            snaps.len() >= 2,
            "expected several samples, got {}",
            snaps.len()
        );
        for pair in snaps.windows(2) {
            assert!(pair[0].at < pair[1].at);
        }
        assert_eq!(snaps[0].at.as_micros(), 500_000);
        assert!(snaps.iter().all(|s| s.alive_hosts == 64));
        assert_eq!(tel.registry().counter("samples"), snaps.len() as u64);
    }

    #[test]
    fn link_grown_reports_gains_and_later_growers_resume_their_scans() {
        use ert_telemetry::{MemorySink, Telemetry};

        let cfg = NetworkConfig::for_dimension(6, 2);
        let mut net = Network::new(cfg, &caps(128), ProtocolSpec::ert_af()).unwrap();
        let sink = MemorySink::new();
        let lines = sink.handle();
        let mut tel = Telemetry::disabled();
        tel.add_sink(Box::new(sink));
        net.set_telemetry(tel);
        net.run(&uniform_lookup_burst(300, 128.0, 2), &[]);

        let lines = lines.lock().unwrap();
        let grown: Vec<u32> = lines
            .iter()
            .filter(|l| l.contains("\"LinkGrown\""))
            .map(|l| {
                let count = l.split("\"count\":").nth(1).expect("LinkGrown has a count");
                let digits = count.split(|c: char| !c.is_ascii_digit()).next();
                digits.unwrap().parse().expect("count is a number")
            })
            .collect();
        assert!(!grown.is_empty(), "an ERT/AF run grows some inlinks");
        assert!(grown.iter().all(|&c| c >= 1), "LinkGrown without growth");
        // Static membership: an underloaded node's next scan resumes
        // where its last one stopped; armed builds check every resume.
        let topo = &net.topo;
        assert!(topo
            .nodes
            .iter()
            .any(|n| n.scan != ert_overlay::InlinkCursor::Start));
        assert_eq!(topo.derived_checks > 0, Sanitizer::ACTIVE);
    }

    /// Local stand-in for `ert_baselines::base()` (the baselines crate
    /// depends on this one).
    fn crate_base_spec() -> ProtocolSpec {
        ProtocolSpec {
            name: "Base".into(),
            table: TablePolicy::SingleClosest,
            adaptation: false,
            forwarding: ForwardPolicy::Deterministic,
            virtual_servers: None,
            item_movement: false,
        }
    }
}
