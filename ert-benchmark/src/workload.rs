//! The five named workloads and their seed-derived inputs.
//!
//! One benchmark run of a workload is a sweep over `worlds` isolated
//! worlds, the way the paper's experiments average over seeds: world
//! `i` of run seed `s` is the scenario with seed `s·1000 + i`. A single
//! world's host time follows its drain tail (the adaptation rounds it
//! sits through while the slowest lookup finishes), which moves by
//! 15–30 % from seed to seed; summing over the sweep is what makes a
//! run's throughput repeatable across seeds.
//!
//! Arrivals are open-loop in *simulated* time at the paper's one
//! lookup per node-second; the host drains each schedule as fast as it
//! can, so host metrics are work per second at the stated input size.
//! Everything here is generated in-process from the seed; the runtimes
//! receive only the generated `Lookup` / `ChurnEvent` / `(SimTime, key)`
//! inputs.

use ert_minidht::{ChordGeometry, Geometry, MiniDhtConfig};
use ert_network::{ChurnEvent, Lookup, NetworkConfig, ProtocolSpec};
use ert_overlay::{ChordSpace, CycloidSpace};
use ert_sim::{SimDuration, SimRng, SimTime};
use ert_workloads::{churn_schedule, impulse_lookups, uniform_lookups, BoundedPareto};

/// The Section 5.4 impulse shape: sources from one interval of 100
/// nodes, 50 distinct keys (Fig. 8).
const IMPULSE_NODES: usize = 100;
const IMPULSE_KEYS: usize = 50;

/// Fig. 9's mid-point: joins and leaves each arrive every `0.5 / n`
/// simulated seconds.
const CHURN_PAPER_INTERARRIVAL: f64 = 0.5;

/// Which runtime a workload drives, and with what protocol and shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The `ert-network` Cycloid simulator.
    Sim {
        /// ERT/AF when true; ERT/F (forwarding only, no adaptation
        /// ticks) when false.
        adaptation: bool,
        /// Impulse lookups plus join/leave churn instead of uniform
        /// lookups on a static overlay.
        churn_skew: bool,
    },
    /// The `ert-node` wire cluster on the in-memory switch, with the
    /// `ert-minidht` Chord platform run on the identical schedule.
    Wire {
        /// Chord identifier width.
        bits: u8,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Runtime, protocol and input shape.
    pub kind: Kind,
    /// Physical hosts per world.
    pub n: usize,
    /// Lookups injected per world.
    pub lookups: usize,
    /// Worlds in one run's sweep.
    pub worlds: usize,
    /// Worlds the traced pass repeats with spans and telemetry on.
    pub traced_worlds: usize,
}

/// The workloads, sized so one sweep takes about 14 s on the 2-core
/// reference box.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim-table2",
        why: "The paper's Table 2 default (n=2048, 3000 uniform lookups, ERT/AF): adaptation ticks and per-hop work each take about half the run.",
        kind: Kind::Sim { adaptation: true, churn_skew: false },
        n: 2048,
        lookups: 3000,
        worlds: 28,
        traced_worlds: 4,
    },
    Workload {
        name: "sim-forward2k",
        why: "ERT/F at n=2048 schedules no adaptation tick: only the per-event path (queue, on_arrive, Algorithm 4 decision, service) runs, so a tick optimisation must not move it.",
        kind: Kind::Sim { adaptation: false, churn_skew: false },
        n: 2048,
        lookups: 10_000,
        worlds: 37,
        traced_worlds: 4,
    },
    Workload {
        name: "sim-scale8k",
        why: "ERT/AF at n=8192 with few lookups: per-tick O(n) passes and table build dominate; its cost per event against sim-forward2k's is the n-scaling number.",
        kind: Kind::Sim { adaptation: true, churn_skew: false },
        n: 8192,
        lookups: 128,
        worlds: 26,
        traced_worlds: 2,
    },
    Workload {
        name: "sim-churn-skew",
        why: "Impulse lookups (100 sources, 50 keys) under join/leave churn at Fig. 9's mid-point: tables are written beside being read, so a read-path gain that taxes maintenance shows.",
        kind: Kind::Sim { adaptation: true, churn_skew: true },
        n: 2048,
        lookups: 500,
        worlds: 33,
        traced_worlds: 3,
    },
    Workload {
        name: "wire-chord1k",
        why: "WireCluster on the in-memory switch plus its MiniDht twin on the same schedule: the only workload through codec, switch ordering and WireNode, which the sim-* four bypass.",
        kind: Kind::Wire { bits: 20 },
        n: 1024,
        lookups: 5000,
        worlds: 12,
        traced_worlds: 3,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The reduced shape tests run: same runtime and protocol, at most
    /// 192 hosts and 400 lookups, two worlds.
    pub fn quick(self) -> Workload {
        Workload {
            n: (self.n / 16).min(192),
            lookups: (self.lookups / 10).clamp(100, 400),
            worlds: 2,
            traced_worlds: 1,
            ..self
        }
    }

    /// Scenario seed of world `index` in the run with seed `seed`.
    pub fn world_seed(self, seed: u64, index: usize) -> u64 {
        seed.wrapping_mul(1000).wrapping_add(index as u64)
    }

    /// Generates world `index` of the run with seed `seed`.
    pub fn generate(self, seed: u64, index: usize) -> World {
        let seed = self.world_seed(seed, index);
        match self.kind {
            Kind::Sim {
                adaptation,
                churn_skew,
            } => World::Sim(sim_world(self, adaptation, churn_skew, seed)),
            Kind::Wire { bits } => World::Wire(wire_world(self, bits, seed)),
        }
    }
}

/// Inputs of one simulator world.
#[derive(Debug, Clone)]
pub struct SimWorld {
    /// Scenario seed.
    pub seed: u64,
    /// Network configuration (Table 2 defaults for the dimension).
    pub cfg: NetworkConfig,
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Raw host capacities.
    pub capacities: Vec<f64>,
    /// Lookup schedule.
    pub lookups: Vec<Lookup>,
    /// Churn schedule (empty on static overlays).
    pub churn: Vec<ChurnEvent>,
}

/// Inputs of one wire-cluster world and its simulator twin.
#[derive(Debug, Clone)]
pub struct WireWorld {
    /// Scenario seed.
    pub seed: u64,
    /// Platform configuration shared by both sides.
    pub cfg: MiniDhtConfig,
    /// Chord identifier width.
    pub bits: u8,
    /// Ring members, sorted.
    pub members: Vec<u64>,
    /// Raw capacities aligned to `members`.
    pub capacities: Vec<f64>,
    /// `(time, key)` injection schedule.
    pub schedule: Vec<(SimTime, u64)>,
}

/// One generated world.
#[derive(Debug, Clone)]
pub enum World {
    /// For the `ert-network` simulator.
    Sim(SimWorld),
    /// For the wire cluster and its `MiniDht` twin.
    Wire(WireWorld),
}

/// Mirrors the private `Scenario::build` of `ert-experiments` — same
/// seed fold, fork labels, capacity distribution and arrival process —
/// so a world here is the world `Scenario::run_once` runs for the same
/// shape and seed (`tests/harness.rs` pins that).
fn sim_world(shape: Workload, adaptation: bool, churn_skew: bool, seed: u64) -> SimWorld {
    let n = shape.n;
    let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9e37_79b9));
    let capacities = BoundedPareto::paper_default().sample_n(n, &mut rng.fork("capacities"));
    let cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(n), seed);
    let rate = n as f64;
    let mut wl_rng = rng.fork("lookups");
    let lookups = if churn_skew {
        impulse_lookups(
            shape.lookups,
            rate,
            n,
            IMPULSE_NODES,
            IMPULSE_KEYS,
            &mut wl_rng,
        )
    } else {
        uniform_lookups(shape.lookups, rate, &mut wl_rng)
    };
    let churn = if churn_skew {
        let horizon = lookups.last().map_or(SimTime::ZERO, |l| l.at);
        let interarrival = CHURN_PAPER_INTERARRIVAL / rate;
        churn_schedule(
            horizon,
            interarrival,
            interarrival,
            BoundedPareto::paper_default(),
            &mut rng.fork("churn"),
        )
    } else {
        Vec::new()
    };
    let protocol = if adaptation {
        ProtocolSpec::ert_af()
    } else {
        ProtocolSpec::ert_f()
    };
    SimWorld {
        seed,
        cfg,
        protocol,
        capacities,
        lookups,
        churn,
    }
}

/// Ring population from the seed (as the wire differential oracle
/// does), Table 2's bounded-Pareto capacities, uniform keys at `n`
/// lookups per simulated second.
fn wire_world(shape: Workload, bits: u8, seed: u64) -> WireWorld {
    let geometry = ChordGeometry::populate(bits, shape.n, &mut SimRng::seed_from(seed));
    let members = geometry.members();
    let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9e37_79b9));
    let capacities =
        BoundedPareto::paper_default().sample_n(members.len(), &mut rng.fork("capacities"));
    let space = ChordSpace::new(bits);
    let mut wl_rng = rng.fork("lookups");
    let mut at = SimTime::ZERO;
    let schedule = (0..shape.lookups)
        .map(|_| {
            at += SimDuration::from_secs_f64(wl_rng.exp_secs(shape.n as f64));
            (at, space.random_id(&mut wl_rng))
        })
        .collect();
    WireWorld {
        seed,
        cfg: MiniDhtConfig::defaults(bits, seed),
        bits,
        members,
        capacities,
        schedule,
    }
}
