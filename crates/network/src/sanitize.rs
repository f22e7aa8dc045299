//! Runtime invariant sanitizer — the dynamic counterpart of the clippy
//! gate (`clippy.toml` and the lint attributes at the crate roots).
//!
//! Where the static gate keeps nondeterminism out of the source, this
//! module asserts the paper's *provable* properties while a simulation
//! actually runs: event-clock monotonicity, FIFO service discipline on
//! every host, and the Theorem 3.1–3.3 degree envelopes (with explicit
//! structural slack for the mandatory Cycloid links the theorems'
//! asymptotic `O(1)` terms absorb).
//!
//! The checks are compiled in under `debug_assertions` (so the whole
//! debug test suite runs sanitized for free) or the `sanitize` cargo
//! feature (so CI can run them against release-speed builds:
//! `cargo test --release --features sanitize -p ert-network`). In a
//! plain release build [`Sanitizer::ACTIVE`] is `false` and every call
//! compiles to nothing.
//!
//! Cost model: per-event checks are O(1) (plus O(queue) when a host is
//! touched); the degree sweep is O(nodes) and runs only on adaptation
//! ticks and at the end of the run.
//!
//! `Topology`'s derived state keeps its checks in `topology.rs`, each
//! beside its structure; they count into `Network::sanitize_checks`.

use ert_core::bounds::{theorem31_initial_indegree_bounds, theorem33_outdegree_bound};
use ert_core::indegree_cap;
use ert_faults::{FaultKind, FaultPlan};
use ert_sim::SimTime;

use crate::spec::TablePolicy;
use crate::state::Host;
use crate::topology::Topology;

/// Which theorem envelopes the degree sweep must *not* assert for one
/// run, because the run's [`FaultPlan`] deliberately violates the
/// assumption the theorem rests on. Each relaxed envelope carries a tag
/// naming the violated assumption, so a relaxation is never silent: the
/// tag is what reports and the byzantine harness surface.
///
/// Derivation is deliberately narrow — environment faults, defectors
/// and query floods attack the environment, routing and workload, not
/// the degree structure, so they relax nothing and every envelope stays
/// armed under them:
///
/// * **capacity liars** break the γ_c honest-estimate premise. That
///   invalidates Theorem 3.1 directly (capacity_eval vs. *true*
///   capacity), and transitively 3.2 and 3.3 whose caps are derived
///   from capacity evaluations liars can deflate under live links.
/// * **Sybil swarms** break the independent-identity premise behind the
///   indegree concentration argument, so Theorem 3.2's cap is off for
///   victims; per-host 3.1 and the 3.3 outdegree ceiling still hold
///   (Sybils report their own capacity honestly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvelopeRelaxations {
    /// Violated-assumption tag relaxing the Theorem 3.1 envelope.
    pub thm31: Option<&'static str>,
    /// Violated-assumption tag relaxing the indegree check against the
    /// growth cap (`ert_core::indegree_cap`), reported under Theorem 3.2.
    pub thm32: Option<&'static str>,
    /// Violated-assumption tag relaxing the Theorem 3.3 ceiling.
    pub thm33: Option<&'static str>,
}

/// Tag for envelopes invalidated by capacity misreports.
const GAMMA_C_VIOLATED: &str = "CapacityLiar: ĉ misreported beyond γ_c";
/// Tag for the indegree cap invalidated by identity concentration.
const SYBIL_CONCENTRATION: &str = "SybilSwarm: coordinated identities concentrate indegree";

impl EnvelopeRelaxations {
    /// No relaxation: every envelope armed (the fault-only default).
    pub const NONE: EnvelopeRelaxations = EnvelopeRelaxations {
        thm31: None,
        thm32: None,
        thm33: None,
    };

    /// Derives the relaxations a plan warrants. An empty plan — and any
    /// plan without capacity liars or Sybil swarms — relaxes nothing.
    pub fn from_plan(plan: &FaultPlan) -> EnvelopeRelaxations {
        let mut relax = EnvelopeRelaxations::NONE;
        if plan.any_kind(|k| matches!(k, FaultKind::CapacityLiar { .. })) {
            relax.thm31 = Some(GAMMA_C_VIOLATED);
            relax.thm32 = Some(GAMMA_C_VIOLATED);
            relax.thm33 = Some(GAMMA_C_VIOLATED);
        }
        if plan.any_kind(|k| matches!(k, FaultKind::SybilSwarm { .. })) {
            relax.thm32.get_or_insert(SYBIL_CONCENTRATION);
        }
        relax
    }

    /// True when every envelope is still armed.
    pub fn is_none(&self) -> bool {
        *self == EnvelopeRelaxations::NONE
    }

    /// The `(theorem, violated-assumption)` pairs in force, for report
    /// surfaces.
    pub fn tags(&self) -> Vec<(&'static str, &'static str)> {
        let mut out = Vec::new();
        if let Some(t) = self.thm31 {
            out.push(("Theorem 3.1", t));
        }
        if let Some(t) = self.thm32 {
            out.push(("Theorem 3.2", t));
        }
        if let Some(t) = self.thm33 {
            out.push(("Theorem 3.3", t));
        }
        out
    }
}

/// Runtime invariant checker owned by a [`crate::Network`].
#[derive(Debug)]
pub(crate) struct Sanitizer {
    last_event_at: SimTime,
    checks: u64,
}

impl Sanitizer {
    /// Whether the sanitizer does anything in this build.
    pub(crate) const ACTIVE: bool = cfg!(any(debug_assertions, feature = "sanitize"));

    pub(crate) fn new() -> Self {
        Sanitizer {
            last_event_at: SimTime::ZERO,
            checks: 0,
        }
    }

    /// Number of individual invariant checks performed so far (0 when
    /// the sanitizer is compiled out).
    pub(crate) fn checks(&self) -> u64 {
        self.checks
    }

    /// Event-clock monotonicity: a discrete-event simulation must never
    /// pop an event earlier than one it already processed.
    pub(crate) fn on_event(&mut self, now: SimTime) {
        if !Self::ACTIVE {
            return;
        }
        assert!(
            now >= self.last_event_at,
            "sanitize: event clock ran backwards ({:?} after {:?})",
            now,
            self.last_event_at
        );
        self.last_event_at = now;
        self.checks += 1;
    }

    /// Lookup conservation: at every point of a run each started lookup
    /// is in exactly one of four states — completed, dropped at the hop
    /// limit, failed to a fault, or still outstanding. A fault path that
    /// loses a query without accounting for it shows up here
    /// immediately rather than as a silently-short report.
    pub(crate) fn check_conservation(
        &mut self,
        started: u64,
        completed: u64,
        dropped: u64,
        failed: u64,
        outstanding: u64,
    ) {
        if !Self::ACTIVE {
            return;
        }
        assert!(
            started == completed + dropped + failed + outstanding,
            "sanitize: lookup conservation violated: started {started} != \
             completed {completed} + dropped {dropped} + failed {failed} + \
             outstanding {outstanding}"
        );
        self.checks += 1;
    }

    /// FIFO service discipline on one host, checked whenever an event
    /// touches it: the service slot drains before the queue holds
    /// anything, nothing finished sits in the queue, and the load
    /// accounting stays consistent.
    pub(crate) fn check_host(
        &mut self,
        host: &Host,
        host_idx: usize,
        done: impl Fn(usize) -> bool,
    ) {
        if !Self::ACTIVE || !host.alive {
            return;
        }
        assert!(
            host.in_service.is_some() || host.queue.is_empty(),
            "sanitize: host {host_idx} queues {} queries with an idle service slot",
            host.queue.len()
        );
        if let Some(q) = host.in_service {
            assert!(
                !done(q),
                "sanitize: host {host_idx} is serving already-completed query {q}"
            );
            assert!(
                !host.queue.contains(&q),
                "sanitize: query {q} both in service and queued on host {host_idx}"
            );
        }
        for &q in &host.queue {
            assert!(
                !done(q),
                "sanitize: completed query {q} still queued on host {host_idx}"
            );
        }
        assert!(
            host.load() as u64 <= host.total_received,
            "sanitize: host {host_idx} holds {} queries but only ever received {}",
            host.load(),
            host.total_received
        );
        assert!(
            host.period_load <= host.total_received,
            "sanitize: host {host_idx} period load {} exceeds lifetime total {}",
            host.period_load,
            host.total_received
        );
        self.checks += 1;
    }

    /// The O(nodes) degree sweep: Theorem 3.1 capacity-evaluation
    /// envelopes per host, the Theorem 3.2-enforcing elastic indegree
    /// cap per node, and the Theorem 3.3 outdegree ceiling. `gamma_c`
    /// is the capacity estimation error factor in force; `relax` names
    /// the envelopes the run's adversary plan has invalidated (each
    /// skip is deliberate and tagged, never a blanket disarm).
    pub(crate) fn sweep(&mut self, topo: &Topology, gamma_c: f64, relax: EnvelopeRelaxations) {
        if !Self::ACTIVE {
            return;
        }
        if relax.thm31.is_none() {
            let all: Vec<usize> = (0..topo.hosts.len()).collect();
            sweep_hosts(topo, gamma_c, &all);
        }
        if topo.table_policy != TablePolicy::Elastic {
            // Degree elasticity (and Theorems 3.2/3.3) only applies to
            // ERT tables; Base/VS tables are structurally fixed.
            self.checks += 1;
            return;
        }
        let c_max = topo
            .hosts
            .iter()
            .filter(|h| h.alive)
            .map(|h| h.capacity_eval)
            .max()
            .unwrap_or(1);
        let all: Vec<usize> = (0..topo.nodes.len()).collect();
        sweep_nodes(topo, gamma_c, relax, c_max, &all);
        self.checks += 1;
    }

    /// The sharded form of [`Sanitizer::sweep`]: theorem envelopes are
    /// evaluated per shard — each worker checks the host/node slices one
    /// shard owns — and merged. The only cross-shard quantity is the
    /// Theorem 3.3 `c_max`, which is computed as the max over per-shard
    /// maxima before the node pass. Runs on the `ert-par` ordered worker
    /// pool (the workspace's one sanctioned fan-out point, keeping D7
    /// satisfied); every assertion is identical to the sequential sweep,
    /// so a violation fails the run no matter which shard finds it.
    pub(crate) fn sweep_sharded(
        &mut self,
        topo: &Topology,
        gamma_c: f64,
        relax: EnvelopeRelaxations,
        host_shards: &[Vec<usize>],
        node_shards: &[Vec<usize>],
        workers: usize,
    ) {
        if !Self::ACTIVE {
            return;
        }
        // Per-shard host pass: thm31 envelopes plus the shard-local
        // capacity maximum (merged into the global c_max below).
        let shard_maxima = ert_par::map_ordered(workers, host_shards.to_vec(), |hosts| {
            if relax.thm31.is_none() {
                sweep_hosts(topo, gamma_c, &hosts);
            }
            hosts
                .iter()
                .map(|&h| &topo.hosts[h])
                .filter(|h| h.alive)
                .map(|h| h.capacity_eval)
                .max()
                .unwrap_or(0)
        });
        if topo.table_policy != TablePolicy::Elastic {
            self.checks += 1;
            return;
        }
        let c_max = shard_maxima.into_iter().max().unwrap_or(1).max(1);
        // Per-shard node pass: thm32 caps and the thm33 ceiling, each
        // shard over its own node slice.
        ert_par::map_ordered(workers, node_shards.to_vec(), |nodes| {
            sweep_nodes(topo, gamma_c, relax, c_max, &nodes);
        });
        self.checks += 1;
    }
}

/// Structural slack shared by the degree envelopes: mandatory Cycloid
/// links (leaf-set, cyclic, cubical) sit outside the elastic budget;
/// the theorems bury them in O(1)/O(2^d/d) terms, so the envelopes get
/// an explicit allowance. The extra constant covers saturated-fallback
/// recruitment during table construction.
fn envelope_slack(topo: &Topology) -> u64 {
    2 * topo.params.leaf_window as u64 + topo.space.dim() as u64 + 8
}

/// Theorem 3.1 envelope over one slice of host indices. Shared by the
/// sequential sweep (one slice holding every host) and the sharded
/// sweep (one slice per shard).
fn sweep_hosts(topo: &Topology, gamma_c: f64, hosts: &[usize]) {
    let params = &topo.params;
    for &i in hosts {
        let host = &topo.hosts[i];
        if !host.alive {
            continue;
        }
        // Theorem 3.1: capacity_eval = ⌊0.5 + α·ĉ⌋ with ĉ within a
        // factor γ_c of the true normalized capacity must land in
        // [αc/γ_c − O(1), αcγ_c + O(1)] (the clamp to ≥ 1 only ever
        // raises it toward the lower bound).
        let (lo, hi) = theorem31_initial_indegree_bounds(params.alpha, host.norm_capacity, gamma_c);
        let ce = host.capacity_eval as f64;
        assert!(
            ce >= lo && ce <= hi,
            "sanitize: host {i} capacity_eval {ce} outside Theorem 3.1 envelope \
             [{lo:.2}, {hi:.2}] (α={}, c={}, γ_c={gamma_c})",
            params.alpha,
            host.norm_capacity
        );
    }
}

/// Theorem 3.2/3.3 envelopes over one slice of node indices, given the
/// globally merged `c_max`.
fn sweep_nodes(
    topo: &Topology,
    gamma_c: f64,
    relax: EnvelopeRelaxations,
    c_max: u32,
    nodes: &[usize],
) {
    let params = &topo.params;
    let slack = envelope_slack(topo);
    // Theorem 3.3 leading term with ν_min at one query per link per
    // period (the implementation's accounting unit).
    let out_bound =
        theorem33_outdegree_bound(c_max as f64, gamma_c, params.gamma_l, 1.0) as u64 + slack;
    for &i in nodes {
        let node = &topo.nodes[i];
        if !node.alive {
            continue;
        }
        assert!(
            node.d_max() >= 1,
            "sanitize: node {i} adapted d_max to zero"
        );
        // The growth cap: Algorithm 3 never raises d∞ past `indegree_cap`
        // (a repo bound; Theorem 3.2's band is ROADMAP item 13), and
        // links outside the elastic budget are covered by `slack`.
        let host = &topo.hosts[node.host];
        if relax.thm32.is_none() {
            let in_cap = u64::from(indegree_cap(host.capacity_eval)) + slack;
            let ind = node.table.indegree() as u64;
            assert!(
                ind <= in_cap,
                "sanitize: node {i} indegree {ind} exceeds the growth cap plus slack {in_cap} \
                 (capacity_eval {})",
                host.capacity_eval
            );
        }
        if relax.thm33.is_none() {
            let outd = node.table.outdegree() as u64;
            assert!(
                outd <= out_bound,
                "sanitize: node {i} outdegree {outd} exceeds Theorem 3.3 bound {out_bound} \
                 (c_max {c_max})"
            );
        }
    }
}

/// The tests that need an armed sanitizer are compiled where it is
/// armed — debug builds and `--features sanitize` — and skipped in a
/// plain release build, where every check is compiled out.
#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    fn sanitizer_is_active_in_debug_or_feature_builds() {
        // This test is compiled under the cfg that arms the sanitizer,
        // so ACTIVE must hold here — this guards against the cfg!
        // expression drifting from that attribute.
        #[expect(
            clippy::assertions_on_constants,
            reason = "the constant is a cfg! expression; asserting it is the whole test"
        )]
        {
            assert!(Sanitizer::ACTIVE);
        }
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    fn clock_monotonicity_accepts_equal_times() {
        let mut s = Sanitizer::new();
        let t = SimTime::ZERO + ert_sim::SimDuration::from_secs_f64(1.0);
        s.on_event(t);
        s.on_event(t); // Simultaneous events are fine.
        assert_eq!(s.checks(), 2);
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    #[should_panic(expected = "event clock ran backwards")]
    fn clock_regression_panics() {
        let mut s = Sanitizer::new();
        let t = SimTime::ZERO + ert_sim::SimDuration::from_secs_f64(2.0);
        s.on_event(t);
        s.on_event(SimTime::ZERO + ert_sim::SimDuration::from_secs_f64(1.0));
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    #[should_panic(expected = "idle service slot")]
    fn queued_query_with_idle_slot_panics() {
        let mut host = Host::new(1000.0, 1.0, 1.0, 4, ert_overlay::Coord::new(0.0, 0.0));
        host.queue.push_back(0);
        host.total_received = 1;
        let mut s = Sanitizer::new();
        s.check_host(&host, 0, |_| false);
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    #[should_panic(expected = "already-completed query")]
    fn serving_a_done_query_panics() {
        let mut host = Host::new(1000.0, 1.0, 1.0, 4, ert_overlay::Coord::new(0.0, 0.0));
        host.in_service = Some(3);
        host.total_received = 1;
        let mut s = Sanitizer::new();
        s.check_host(&host, 0, |_| true);
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    fn conservation_accepts_balanced_counts() {
        let mut s = Sanitizer::new();
        s.check_conservation(10, 4, 1, 2, 3);
        assert_eq!(s.checks(), 1);
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    #[should_panic(expected = "lookup conservation violated")]
    fn conservation_rejects_lost_lookups() {
        let mut s = Sanitizer::new();
        s.check_conservation(10, 4, 1, 2, 2); // one lookup vanished
    }

    #[test]
    fn relaxations_derive_only_from_degree_violating_actors() {
        use ert_sim::SimTime;

        let mut plan = FaultPlan::new(1);
        assert!(EnvelopeRelaxations::from_plan(&plan).is_none());

        for kind in [
            FaultKind::Crash,
            FaultKind::RoutingDefector { fraction: 0.2 },
            FaultKind::QueryFlood {
                key: 0.5,
                queries: 100,
                window: ert_sim::SimDuration::from_secs_f64(1.0),
            },
        ] {
            plan.events.push(ert_faults::FaultEvent {
                at: SimTime::ZERO,
                kind,
            });
        }
        // Crashes, defectors and floods attack the environment, routing
        // and workload, not degrees.
        assert!(EnvelopeRelaxations::from_plan(&plan).is_none());

        plan.events.push(ert_faults::FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::SybilSwarm {
                count: 8,
                region: 0.3,
            },
        });
        let relax = EnvelopeRelaxations::from_plan(&plan);
        assert!(relax.thm31.is_none() && relax.thm33.is_none());
        assert!(relax.thm32.unwrap().contains("SybilSwarm"));
        assert_eq!(relax.tags().len(), 1);

        plan.events.push(ert_faults::FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::CapacityLiar {
                fraction: 0.2,
                error: 4.0,
            },
        });
        let relax = EnvelopeRelaxations::from_plan(&plan);
        assert!(!relax.is_none());
        // γ_c violation invalidates all three; the Sybil tag on 3.2 is
        // not displaced because the liar tag was inserted first.
        assert!(relax.thm31.unwrap().contains("γ_c"));
        assert!(relax.thm32.unwrap().contains("γ_c"));
        assert!(relax.thm33.unwrap().contains("γ_c"));
        assert_eq!(relax.tags().len(), 3);
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    fn healthy_host_passes() {
        let mut host = Host::new(1000.0, 1.0, 1.0, 4, ert_overlay::Coord::new(0.0, 0.0));
        host.in_service = Some(0);
        host.queue.push_back(1);
        host.total_received = 2;
        let mut s = Sanitizer::new();
        s.check_host(&host, 0, |_| false);
        assert_eq!(s.checks(), 1);
    }
}
