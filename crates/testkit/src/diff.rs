//! Pillar 2: differential oracles.
//!
//! Two independent implementations of the same quantity must agree
//! within a stated tolerance:
//!
//! * [`model_vs_sim`] — the supermarket closed form (built on
//!   Lemma A.1's fixed point) against the discrete-event
//!   [`SupermarketSim`] on matched `(λ, b)`;
//! * [`euler_vs_rk4`] — two discretizations of the mean-field ODE on
//!   one trajectory;
//! * [`fixed_point_vs_ode`] — Lemma A.1's closed-form tail fractions
//!   against the integrated ODE's long-horizon state;
//! * [`forwarding_vs_model`] — the full `ert-network` forwarding path:
//!   random-walk forwarding against two-choice forwarding on one
//!   scenario, with the supermarket model predicting the *direction*
//!   and an upper envelope for the improvement (the network is not a
//!   clean supermarket system — topology constrains the candidate
//!   sets — so this is a coarse consistency band, not an equality);
//! * [`minidht_vs_registry`] — the `ert-minidht` Chord platform
//!   against pure `ChordRegistry` greedy routing on the identical
//!   member set: exact owner agreement, path-length means within a
//!   band. (`ert-network` runs only Cycloid, so the registry-level
//!   Chord geometry is the reference implementation here.)
//! * [`minidht_vs_network`] — the same driver on the Cycloid geometry
//!   against `ert-network`'s `Network` on one fully populated Cycloid:
//!   exact owner agreement with the ring rule (checked on a
//!   half-populated space, where owners are not the identity), every
//!   lookup completed, the classic mean path within a band of Base's, and
//!   ERT's p99 max congestion below the classic protocol's.
//!
//! The [`wire`] submodule holds the strictest oracle of the family:
//! live `ert-node` wire clusters against the `MiniDht` simulator with
//! **exact** (bit-identical) agreement required, no tolerance band.

pub mod wire;

use ert_experiments::ablation::forwarding_ladder;
use ert_experiments::Scenario;
use ert_minidht::{
    ChordGeometry, CycloidGeometry, Geometry, MiniDht, MiniDhtConfig, MiniProtocol, MiniReport,
};
use ert_overlay::{ring, ChordRegistry, ChordSpace, CycloidSpace};
use ert_sim::SimRng;
use ert_supermarket::{
    expected_time, fixed_point, ChoicePolicy, IntegrationMethod, OdeModel, SupermarketSim,
};
use ert_workloads::BoundedPareto;

/// One compared quantity: two independent computations and the
/// relative error budget they must meet.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// What was compared.
    pub label: String,
    /// Reference value (model / closed form / registry).
    pub reference: f64,
    /// Subject value (simulation / alternate stepper / platform).
    pub subject: f64,
    /// `|subject − reference| / |reference|`.
    pub rel_err: f64,
    /// Documented tolerance for this comparison.
    pub tol: f64,
}

impl DiffOutcome {
    fn new(label: String, reference: f64, subject: f64, tol: f64) -> DiffOutcome {
        let rel_err = if reference == 0.0 {
            subject.abs()
        } else {
            (subject - reference).abs() / reference.abs()
        };
        DiffOutcome {
            label,
            reference,
            subject,
            rel_err,
            tol,
        }
    }

    /// Did the two implementations agree within tolerance?
    #[must_use]
    pub fn ok(&self) -> bool {
        self.rel_err <= self.tol
    }
}

impl std::fmt::Display for DiffOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: reference {:.4} vs subject {:.4} (rel err {:.3}, tol {:.3}){}",
            self.label,
            self.reference,
            self.subject,
            self.rel_err,
            self.tol,
            if self.ok() { "" } else { "  ← VIOLATED" }
        )
    }
}

/// Closed-form expected time-in-system vs the discrete-event
/// supermarket simulation, averaged over `seeds`.
///
/// Tolerance guidance (calibrated in `tests/conformance.rs`): the
/// finite system and horizon bias the simulation slightly low, more so
/// as `λ → 1` for `b = 1` where the M/M/1 tail relaxes on a `1/(1−λ)²`
/// time scale — pass a looser `tol` there.
#[must_use]
pub fn model_vs_sim(
    lambda: f64,
    b: u32,
    n: usize,
    horizon: f64,
    seeds: &[u64],
    tol: f64,
) -> DiffOutcome {
    let sim = SupermarketSim::new(n, lambda);
    let mean: f64 = seeds
        .iter()
        .map(|&s| {
            sim.run(ChoicePolicy::shortest_of(b), horizon, s)
                .mean_time_in_system
        })
        .sum::<f64>()
        / seeds.len() as f64;
    DiffOutcome::new(
        format!(
            "supermarket model vs sim (λ={lambda}, b={b}, {} seeds)",
            seeds.len()
        ),
        expected_time(lambda, b),
        mean,
        tol,
    )
}

/// Forward Euler vs RK4 on the same trajectory, compared through the
/// mean queue length of the final state.
#[must_use]
pub fn euler_vs_rk4(lambda: f64, b: u32, horizon: f64, dt: f64, tol: f64) -> DiffOutcome {
    let model = OdeModel::new(lambda, b, 40);
    let rk4 = model.integrate_with(IntegrationMethod::Rk4, model.empty_state(), horizon, dt);
    let euler = model.integrate_with(IntegrationMethod::Euler, model.empty_state(), horizon, dt);
    DiffOutcome::new(
        format!("Euler vs RK4 (λ={lambda}, b={b})"),
        OdeModel::mean_queue(&rk4),
        OdeModel::mean_queue(&euler),
        tol,
    )
}

/// Lemma A.1's closed-form fixed point vs the ODE integrated to a long
/// horizon, compared through the mean queue (`Σ s_i`).
#[must_use]
pub fn fixed_point_vs_ode(lambda: f64, b: u32, horizon: f64, tol: f64) -> DiffOutcome {
    let model = OdeModel::new(lambda, b, 40);
    let s = model.integrate_from_empty(horizon, 2e-3);
    let fp = fixed_point(lambda, b, 40);
    DiffOutcome::new(
        format!("Lemma A.1 fixed point vs ODE (λ={lambda}, b={b})"),
        OdeModel::mean_queue(&fp),
        OdeModel::mean_queue(&s),
        tol,
    )
}

/// Outcome of the network-forwarding differential: the measured
/// random-walk / two-choice improvement on the full network, and the
/// supermarket model's prediction for an idealized system.
#[derive(Debug, Clone)]
pub struct ForwardingDiff {
    /// Mean lookup time under random-walk forwarding.
    pub random_walk_mean: f64,
    /// Mean lookup time under plain two-choice forwarding.
    pub two_choice_mean: f64,
    /// `random_walk_mean / two_choice_mean` — how much two sampled
    /// choices buy on the real forwarding path.
    pub measured_ratio: f64,
    /// `expected_time(λ_eff, 1) / expected_time(λ_eff, 2)` — the
    /// idealized supermarket prediction at the effective per-node load.
    pub model_ratio: f64,
}

impl ForwardingDiff {
    /// The consistency band: two-choice must not be slower than
    /// random walk (beyond `slack`), and must not beat the idealized
    /// supermarket prediction by more than `headroom` (the model is an
    /// upper envelope — the network's topology-constrained candidate
    /// sets can only dilute the two-choice advantage).
    #[must_use]
    pub fn consistent(&self, slack: f64, headroom: f64) -> bool {
        self.measured_ratio >= 1.0 - slack && self.measured_ratio <= self.model_ratio * headroom
    }
}

/// Runs the ablation ladder's `random-walk` and `2choice` protocol
/// specs — identical tables and adaptation, only the forwarding rule
/// differs — on one scenario/seed, and compares the improvement with
/// the supermarket model at effective load `lambda_eff`.
///
/// # Panics
///
/// Panics if the ablation ladder loses its two reference rungs.
#[must_use]
pub fn forwarding_vs_model(scenario: &Scenario, seed: u64, lambda_eff: f64) -> ForwardingDiff {
    let ladder = forwarding_ladder();
    let rw = ladder
        .iter()
        .find(|s| s.name == "random-walk")
        .expect("ladder rung");
    let tc = ladder
        .iter()
        .find(|s| s.name == "2choice")
        .expect("ladder rung");
    let r_rw = scenario.run_once(rw, seed);
    let r_tc = scenario.run_once(tc, seed);
    let measured_ratio = r_rw.lookup_time.mean / r_tc.lookup_time.mean;
    ForwardingDiff {
        random_walk_mean: r_rw.lookup_time.mean,
        two_choice_mean: r_tc.lookup_time.mean,
        measured_ratio,
        model_ratio: expected_time(lambda_eff, 1) / expected_time(lambda_eff, 2),
    }
}

/// Outcome of the MiniDht-vs-registry Chord differential for one seed.
#[derive(Debug, Clone)]
pub struct ChordDiff {
    /// The seed the geometry and workloads were derived from.
    pub seed: u64,
    /// Keys whose owner the platform and the registry disagreed on.
    pub owner_mismatches: usize,
    /// Keys sampled for the owner check.
    pub keys_checked: usize,
    /// Mean path length of completed MiniDht Classic lookups.
    pub platform_mean_path: f64,
    /// Mean hop count of the registry-level classic-finger reference
    /// router on matched samples.
    pub registry_mean_path: f64,
    /// Mean hop count of the registry's *optimal-finger* greedy router
    /// (`ChordRegistry::route_path`) on the same samples — a lower
    /// bound the classic paths must dominate.
    pub greedy_mean_path: f64,
    /// Lookups the platform dropped (should be 0 at benign load).
    pub dropped: u64,
}

impl ChordDiff {
    /// Relative gap between the two mean path lengths.
    #[must_use]
    pub fn path_rel_err(&self) -> f64 {
        (self.platform_mean_path - self.registry_mean_path).abs() / self.registry_mean_path
    }
}

/// One hop of the classic Chord finger rule, computed from registry
/// primitives alone: the table entry for finger `m` is the *first*
/// member clockwise in `finger_region(cur, m)` (exactly what
/// `ChordGeometry::classic_pick` stores), and routing takes the
/// highest-finger entry that does not overshoot the owner, falling
/// back to the successor — mirroring `ChordGeometry::hop_candidates`.
fn classic_next_hop(registry: &ChordRegistry, space: ChordSpace, cur: u64, owner: u64) -> u64 {
    let size = space.ring_size();
    let budget = ring::forward_distance(cur, owner, size);
    let mut m = space.best_finger(cur, owner).unwrap_or(0);
    loop {
        let entry = registry
            .nodes_in(space.finger_region(cur, m))
            .into_iter()
            .find(|&c| c != cur);
        if let Some(e) = entry {
            let d = ring::forward_distance(cur, e, size);
            if d > 0 && d <= budget {
                return e;
            }
        }
        if m == 0 {
            return registry.successor(cur).expect("nonempty ring");
        }
        m -= 1;
    }
}

/// Hop count of a classic-finger route, `None` if `max_hops` is hit.
fn classic_route_hops(
    registry: &ChordRegistry,
    space: ChordSpace,
    from: u64,
    key: u64,
    max_hops: usize,
) -> Option<usize> {
    let owner = registry.owner(key)?;
    let mut cur = from;
    let mut hops = 0usize;
    while cur != owner {
        if hops >= max_hops {
            return None;
        }
        cur = classic_next_hop(registry, space, cur, owner);
        hops += 1;
    }
    Some(hops)
}

/// Builds one Chord ring of `n` members on `2^bits` IDs from `seed`,
/// then compares the MiniDht Classic platform against the pure
/// [`ChordRegistry`] reference on the identical member set: owners on
/// `keys` sampled keys must agree exactly; the platform's mean path
/// length is compared against a registry-level reimplementation of
/// the classic finger rule (and the registry's optimal-finger greedy
/// router is reported as the lower bound it must dominate).
/// Capacities are uniform so queueing never diverts the platform's
/// routing.
///
/// # Panics
///
/// Panics if the platform rejects the generated configuration or a
/// reference route fails to terminate.
#[must_use]
pub fn minidht_vs_registry(
    bits: u8,
    n: usize,
    lookups: usize,
    keys: usize,
    seed: u64,
) -> ChordDiff {
    let mut rng = SimRng::seed_from(seed);
    let geometry = ChordGeometry::populate(bits, n, &mut rng);
    let space = geometry.space();
    let members = geometry.members();

    // Rebuild the reference registry from the member list alone.
    let mut registry = ChordRegistry::new(space);
    for &m in &members {
        registry.insert(m);
    }

    let mut owner_mismatches = 0usize;
    for _ in 0..keys {
        let key = space.random_id(&mut rng);
        if geometry.owner(key) != registry.owner(key) {
            owner_mismatches += 1;
        }
    }

    // Reference routes on (source, key) samples drawn from the
    // continued RNG stream: classic-finger hops (the rule the platform
    // implements) and optimal-finger greedy hops (the lower bound).
    let max_hops = 4 * bits as usize + 8;
    let mut classic_hops = 0usize;
    let mut greedy_hops = 0usize;
    let mut routed = 0usize;
    for _ in 0..lookups {
        let from = *rng.choose(&members).expect("nonempty ring");
        let key = space.random_id(&mut rng);
        classic_hops += classic_route_hops(&registry, space, from, key, max_hops)
            .expect("classic route must terminate");
        let path = registry
            .route_path(from, key, max_hops)
            .expect("greedy route must terminate");
        greedy_hops += path.len() - 1;
        routed += 1;
    }
    let registry_mean_path = classic_hops as f64 / routed as f64;
    let greedy_mean_path = greedy_hops as f64 / routed as f64;

    let capacities = vec![1_000.0; n];
    let cfg = MiniDhtConfig::defaults(bits, seed);
    let mut dht = MiniDht::new(cfg, geometry, &capacities, MiniProtocol::Classic)
        .expect("valid mini platform");
    let report = dht.run_poisson(lookups, n as f64 * 0.25);

    ChordDiff {
        seed,
        owner_mismatches,
        keys_checked: keys,
        platform_mean_path: report.mean_path_length,
        registry_mean_path,
        greedy_mean_path,
        dropped: report.dropped,
    }
}

/// Outcome of the MiniDht-vs-Network Cycloid differential for one seed.
#[derive(Debug, Clone)]
pub struct CycloidDiff {
    /// The seed both runtimes and the capacities were derived from.
    pub seed: u64,
    /// Keys whose owner on a half-populated space of the same dimension
    /// `CycloidGeometry` and the ring rule disagreed on.
    pub owner_mismatches: usize,
    /// Keys checked: every ID of the space.
    pub keys_checked: usize,
    /// Lookups each `MiniDht` run injected.
    pub lookups: u64,
    /// `MiniDht<CycloidGeometry>` under the classic protocol.
    pub classic: MiniReport,
    /// `MiniDht<CycloidGeometry>` under ERT.
    pub elastic: MiniReport,
    /// Mean path length of `Network`'s Base protocol on the same
    /// membership.
    pub network_mean_path: f64,
}

impl CycloidDiff {
    /// Relative gap between the classic `MiniDht` and the `Network`
    /// Base mean path lengths.
    #[must_use]
    pub fn path_rel_err(&self) -> f64 {
        (self.classic.mean_path_length - self.network_mean_path).abs() / self.network_mean_path
    }

    /// Whether every lookup completed under both protocols.
    #[must_use]
    pub fn all_completed(&self) -> bool {
        [&self.classic, &self.elastic]
            .iter()
            .all(|r| r.completed == self.lookups && r.dropped == 0)
    }
}

/// `MiniDht` on the Cycloid geometry against `ert-network`'s `Network`
/// on one fully populated Cycloid of dimension `dim`, so both runtimes
/// hold the identical member set: every ID. On a half-populated space,
/// where owners are not the identity, `CycloidGeometry::owner` must
/// agree on every key with the first member at or after it. `MiniDht`
/// runs `lookups` uniform Poisson lookups at one per node-second under the
/// classic protocol and under ERT, on the paper's bounded-Pareto
/// capacities; and `Network`'s Base protocol runs the same scenario
/// shape ([`Scenario::quick`] at `n = d·2^d`), for its mean path length.
///
/// # Panics
///
/// Panics if either runtime rejects the generated configuration.
#[must_use]
pub fn minidht_vs_network(dim: u8, lookups: usize, seed: u64) -> CycloidDiff {
    let space = CycloidSpace::new(dim);
    let n = space.ring_size() as usize;
    let scenario = Scenario {
        n,
        lookups,
        ..Scenario::quick(seed)
    };
    let network = scenario.run_once(&ert_baselines::base(), seed);

    // On the full space every key owns itself, so owners are checked on
    // a half-populated one against the rule computed from the member
    // list alone: the first member at or after the key, wrapping.
    let mut rng = SimRng::seed_from(seed).fork("members");
    let half = CycloidGeometry::populate(dim, n / 2, &mut rng);
    let mut members = half.members();
    members.sort_unstable();
    let owner_mismatches = (0..space.ring_size())
        .filter(|&key| {
            let want = members.iter().find(|&&m| m >= key).or(members.first());
            half.owner(key) != want.copied()
        })
        .count();

    let cfg = MiniDhtConfig::defaults(dim, seed);
    let members: Vec<u64> = (0..space.ring_size()).collect();
    let geometry = CycloidGeometry::from_members(dim, &members);

    let mut rng = SimRng::seed_from(seed).fork("capacities");
    let capacities = BoundedPareto::paper_default().sample_n(n, &mut rng);
    let run = |protocol| {
        let mut dht = MiniDht::new(cfg, geometry.clone(), &capacities, protocol)
            .expect("valid mini platform");
        dht.run_poisson(lookups, n as f64 * scenario.per_node_rate)
    };
    CycloidDiff {
        seed,
        owner_mismatches,
        keys_checked: n,
        lookups: lookups as u64,
        classic: run(MiniProtocol::Classic),
        elastic: run(MiniProtocol::ElasticErt),
        network_mean_path: network.mean_path_length,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_outcome_tolerance_logic() {
        let good = DiffOutcome::new("x".into(), 10.0, 10.5, 0.1);
        assert!(good.ok());
        let bad = DiffOutcome::new("x".into(), 10.0, 12.0, 0.1);
        assert!(!bad.ok());
        assert!(format!("{bad}").contains("VIOLATED"));
        let zero_ref = DiffOutcome::new("z".into(), 0.0, 0.0, 0.01);
        assert!(zero_ref.ok());
    }

    #[test]
    fn euler_vs_rk4_within_tight_band() {
        let d = euler_vs_rk4(0.9, 2, 60.0, 1e-3, 1e-3);
        assert!(d.ok(), "{d}");
    }

    #[test]
    fn fixed_point_vs_ode_converges() {
        let d = fixed_point_vs_ode(0.9, 2, 150.0, 5e-3);
        assert!(d.ok(), "{d}");
    }
}
