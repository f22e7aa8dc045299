//! Pillar 3: the shared scenario-strategy library.
//!
//! Every integration property test used to carry its own copy of the
//! "build a small network" and "build a fault plan" recipes; this
//! module is the single audited home for them. Two kinds of exports:
//!
//! * **proptest strategies** ([`small_world`], [`fault_events`],
//!   [`wire_cluster`]) — draw randomized-but-bounded scenario
//!   ingredients for `proptest!` properties;
//! * **deterministic builders** ([`SmallWorld::build`],
//!   [`fault_plan`], [`ramp_capacities`], [`pinned_network_config`],
//!   [`churned_quick_scenario`]) — the exact recipes behind the pinned
//!   determinism tests, kept here so pins and properties share one
//!   definition.
//!
//! The deterministic builders reproduce the historical draw order
//! exactly (seed → capacities → lookups from the *same* RNG): the
//! byte-for-byte pins in `tests/fault_determinism.rs` are computed
//! through these functions.

use std::ops::Range;

use ert_experiments::{ChurnSpec, Scenario};
use ert_network::network::uniform_lookup_burst;
use ert_network::{FaultEvent, FaultKind, FaultPlan, Lookup, NetworkConfig};
use ert_overlay::CycloidSpace;
use ert_sim::{SimDuration, SimRng, SimTime};
use ert_workloads::{uniform_lookups, BoundedPareto};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// A small Cycloid network's ingredients: capacities from the paper's
/// bounded-Pareto distribution, a dimension-fitted config, and the RNG
/// positioned to draw the workload next — the draw order every
/// integration property has always used.
#[derive(Debug, Clone)]
pub struct SmallWorld {
    /// Host count.
    pub n: usize,
    /// The seed everything above was derived from.
    pub seed: u64,
    /// Per-host capacities (bounded Pareto, paper parameters).
    pub capacities: Vec<f64>,
    /// Config for the smallest Cycloid dimension holding `n` hosts.
    pub cfg: NetworkConfig,
    rng: SimRng,
}

impl SmallWorld {
    /// Deterministic constructor: seed the RNG, draw capacities, fit
    /// the config. Lookups drawn afterwards via [`SmallWorld::lookups`]
    /// continue the same RNG stream.
    #[must_use]
    pub fn build(n: usize, seed: u64) -> SmallWorld {
        let mut rng = SimRng::seed_from(seed);
        let capacities = BoundedPareto::paper_default().sample_n(n, &mut rng);
        let cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(n), seed);
        SmallWorld {
            n,
            seed,
            capacities,
            cfg,
            rng,
        }
    }

    /// A Poisson lookup stream at one lookup per node per second,
    /// drawn from the world's RNG stream.
    pub fn lookups(&mut self, count: usize) -> Vec<Lookup> {
        uniform_lookups(count, self.n as f64, &mut self.rng)
    }

    /// The world's RNG, for draws beyond the stock ingredients.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// Strategy producing [`SmallWorld`]s over a size and seed range.
#[derive(Debug, Clone)]
pub struct SmallWorldStrategy {
    /// Host-count range to draw from.
    pub n: Range<usize>,
    /// Seed range to draw from.
    pub seeds: Range<u64>,
}

impl Strategy for SmallWorldStrategy {
    type Value = SmallWorld;
    fn sample(&self, rng: &mut TestRng) -> SmallWorld {
        let n = self.n.clone().sample(rng);
        let seed = self.seeds.clone().sample(rng);
        SmallWorld::build(n, seed)
    }
}

/// Small networks with `n` hosts drawn from `n_range` and seeds from
/// the stock `0..10_000` space.
#[must_use]
pub fn small_world(n_range: Range<usize>) -> SmallWorldStrategy {
    SmallWorldStrategy {
        n: n_range,
        seeds: 0..10_000,
    }
}

/// The tuple strategy one fault event is drawn from.
pub type FaultEventStrategy = (Range<u64>, Range<u8>, Range<u64>, Range<u64>);

/// Raw plan-event tuples `(at_us, kind_tag, a, b)` as drawn by the
/// fault-plan property: up to ten events of any of the ten kinds over a
/// 2-second horizon, which covers a small world's injection phase.
/// Decode with [`fault_kind`] / assemble with [`fault_plan`].
#[must_use]
pub fn fault_events() -> proptest::collection::VecStrategy<FaultEventStrategy> {
    proptest::collection::vec(
        (0u64..2_000_000, 0u8..10, 0u64..100, 1u64..5_000_000),
        0..10,
    )
}

/// Decodes a drawn `(kind_tag, a, b)` triple into a [`FaultKind`] —
/// the canonical mapping every plan property uses, in rank order: tag
/// 0 crash, 1 degrade, 2 drop, 3 partition, 4 heal, 5 restore,
/// 6 capacity liar, 7 Sybil swarm, 8 query flood, else routing
/// defector. `a` scales magnitudes, fractions and counts; `b` is the
/// window in microseconds or scales errors and regions. Every decoded
/// kind passes [`FaultKind::validate`] by construction.
#[must_use]
pub fn fault_kind(kind_tag: u8, a: u64, b: u64) -> FaultKind {
    let window = SimDuration::from_micros(b);
    let fraction = (a + 1) as f64 / 101.0;
    match kind_tag {
        0 => FaultKind::Crash,
        1 => FaultKind::Degrade {
            factor: 1.0 + a as f64 / 10.0,
        },
        2 => FaultKind::DropMessages {
            p: a as f64 / 101.0,
            window,
        },
        3 => FaultKind::Partition {
            groups: 2 + (a % 3) as u32,
            window,
        },
        4 => FaultKind::Heal,
        5 => FaultKind::Restore,
        6 => FaultKind::CapacityLiar {
            fraction,
            error: 0.25 + b as f64 / 1.0e6,
        },
        7 => FaultKind::SybilSwarm {
            count: 1 + (a % 16) as u32,
            region: b as f64 / 5.0e6,
        },
        8 => FaultKind::QueryFlood {
            key: a as f64 / 101.0,
            queries: 1 + (a % 50) as u32,
            window,
        },
        _ => FaultKind::RoutingDefector { fraction },
    }
}

/// Assembles a [`FaultPlan`] from drawn event tuples.
#[must_use]
pub fn fault_plan(seed: u64, events: &[(u64, u8, u64, u64)]) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for &(at, kind_tag, a, b) in events {
        plan.events.push(FaultEvent {
            at: SimTime::from_micros(at),
            kind: fault_kind(kind_tag, a, b),
        });
    }
    plan
}

/// Ingredients of a small wire cluster (`ert-node` over the in-memory
/// switch): ring bit width, node count, seed, and a stabilize-round
/// budget. Drawn by the wire-conformance and stabilize-convergence
/// properties.
#[derive(Debug, Clone, Copy)]
pub struct WireClusterSpec {
    /// Chord identifier bits.
    pub bits: u8,
    /// Requested node count (actual membership may be smaller after
    /// ring-id collisions).
    pub n: usize,
    /// Master seed for geometry + platform streams.
    pub seed: u64,
    /// Stabilize rounds the scenario may spend reaching its fixpoint.
    pub rounds: usize,
}

/// Strategy over [`WireClusterSpec`]s: 5–8 bits, 4–24 nodes, the stock
/// `0..10_000` seed space.
#[derive(Debug, Clone, Copy)]
pub struct WireClusterStrategy;

impl Strategy for WireClusterStrategy {
    type Value = WireClusterSpec;
    fn sample(&self, rng: &mut TestRng) -> WireClusterSpec {
        let bits = (5u8..9).sample(rng);
        // `ChordGeometry::populate` requires n ≤ half the ring.
        let n_cap = 1usize << (bits - 1);
        WireClusterSpec {
            bits,
            n: (4usize..25).sample(rng).min(n_cap),
            seed: (0u64..10_000).sample(rng),
            rounds: (2usize..6).sample(rng),
        }
    }
}

/// Strategy over small wire-cluster scenarios (see
/// [`WireClusterStrategy`]).
#[must_use]
pub fn wire_cluster() -> WireClusterStrategy {
    WireClusterStrategy
}

/// The deterministic capacity ramp the fault pins run on:
/// `600 + 250·(i mod 5)`.
#[must_use]
pub fn ramp_capacities(n: usize) -> Vec<f64> {
    (0..n).map(|i| 600.0 + 250.0 * (i % 5) as f64).collect()
}

/// The pinned network harness config (dimension 6, seed 17) shared by
/// the fault- and telemetry-determinism suites.
#[must_use]
pub fn pinned_network_config() -> NetworkConfig {
    NetworkConfig::for_dimension(6, 17)
}

/// The pinned 200-lookup burst over 96 hosts (seed 17) those suites
/// replay.
#[must_use]
pub fn pinned_burst() -> Vec<Lookup> {
    uniform_lookup_burst(200, 96.0, 17)
}

/// The Section 5.5-shaped churned quick scenario behind the
/// scenario-level pins: `Scenario::quick(7)` with 0.5 s join/leave
/// interarrivals.
#[must_use]
pub fn churned_quick_scenario() -> Scenario {
    let mut s = Scenario::quick(7);
    s.churn = Some(ChurnSpec {
        join_interarrival: 0.5,
        leave_interarrival: 0.5,
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_draw_order_matches_historical_recipe() {
        // The historical inline recipe: one RNG, capacities first,
        // lookups continue the stream.
        let mut rng = SimRng::seed_from(42);
        let caps = BoundedPareto::paper_default().sample_n(48, &mut rng);
        let expected = uniform_lookups(60, 48.0, &mut rng);

        let mut world = SmallWorld::build(48, 42);
        assert_eq!(world.capacities, caps);
        let lookups = world.lookups(60);
        assert_eq!(lookups.len(), 60);
        for (a, b) in lookups.iter().zip(&expected) {
            assert_eq!(a.at, b.at);
        }
        assert_eq!(world.cfg.seed, 42);
    }

    #[test]
    fn fault_kind_mapping_is_total_and_canonical() {
        assert!(matches!(fault_kind(0, 7, 9), FaultKind::Crash));
        match fault_kind(1, 7, 9) {
            FaultKind::Degrade { factor } => assert!((factor - 1.7).abs() < 1e-12),
            other => panic!("wrong kind: {other:?}"),
        }
        match fault_kind(2, 50, 9) {
            FaultKind::DropMessages { p, .. } => assert!(p < 0.5),
            other => panic!("wrong kind: {other:?}"),
        }
        match fault_kind(3, 4, 9) {
            FaultKind::Partition { groups, .. } => assert_eq!(groups, 3),
            other => panic!("wrong kind: {other:?}"),
        }
        assert!(matches!(fault_kind(4, 0, 1), FaultKind::Heal));
        assert!(matches!(fault_kind(5, 7, 9), FaultKind::Restore));
        assert!(matches!(
            fault_kind(6, 99, 9),
            FaultKind::CapacityLiar { .. }
        ));
        assert!(matches!(fault_kind(7, 20, 9), FaultKind::SybilSwarm { .. }));
        assert!(matches!(
            fault_kind(8, 100, 1),
            FaultKind::QueryFlood { .. }
        ));
        assert!(matches!(
            fault_kind(9, 0, 1),
            FaultKind::RoutingDefector { .. }
        ));
        assert!(matches!(
            fault_kind(200, 0, 1),
            FaultKind::RoutingDefector { .. }
        ));
        // Every corner of the drawn parameter space decodes valid.
        for tag in 0u8..=10 {
            for a in [0u64, 1, 50, 99] {
                for b in [1u64, 2_500_000, 4_999_999] {
                    fault_kind(tag, a, b).validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn drawn_fault_plans_validate() {
        let mut rng = TestRng::deterministic();
        for _ in 0..50 {
            let events = fault_events().sample(&mut rng);
            let plan = fault_plan(11, &events);
            assert!(plan.validate().is_ok(), "invalid plan from {events:?}");
        }
    }

    #[test]
    fn ramp_and_pinned_builders_are_stable() {
        let caps = ramp_capacities(7);
        assert_eq!(caps[0], 600.0);
        assert_eq!(caps[4], 1600.0);
        assert_eq!(caps[5], 600.0);
        assert_eq!(pinned_network_config().seed, 17);
        assert_eq!(pinned_burst().len(), 200);
        let s = churned_quick_scenario();
        assert_eq!(s.n, 192);
        assert!(s.churn.is_some());
    }

    #[test]
    fn strategies_stay_in_bounds() {
        let mut rng = TestRng::deterministic();
        for _ in 0..20 {
            let w = small_world(24usize..96).sample(&mut rng);
            assert!((24..96).contains(&w.n));
            assert_eq!(w.capacities.len(), w.n);
        }
    }
}
