//! The wire differential oracle: live in-memory `ert-node` cluster
//! against the `ert-minidht` deterministic simulator.
//!
//! Unlike the tolerance-banded oracles in the parent module, this one
//! demands **exact** agreement. Both sides are seeded from the same
//! `(bits, n, seed)` triple, run the identical externally generated
//! injection schedule, and must produce:
//!
//! * identical [`RouteTrace`]s — same per-query source draw, same
//!   hop-by-hop forwarding decisions in the same global order, same
//!   completion/drop records, and (under `Chord+ERT`) the same
//!   per-node indegree-adaptation sequence;
//! * identical post-run routing-table fingerprints;
//! * bit-identical scalar outcomes (completions, drops, mean lookup
//!   time compared via `f64::to_bits`).
//!
//! Both sides run the same `ert_core::ErtNode` steps, so agreement
//! on the protocol logic is by construction. What the oracle pins is
//! everything that can still differ between the two hosts: event
//! ordering, the RNG streams handed to the steps, the codec every
//! probe, link operation and lookup crosses, and the transport.
//!
//! The correspondence is engineered, not accidental: the wire cluster
//! orders events on the same `(time, seq)` merge key as the simulator
//! heap, allocates sequence numbers at emission, and draws from the
//! same seeded streams at the same program points (platform build
//! permutation, per-injection source fork, per-node `"decide"` forks).
//! DESIGN.md "Wire Protocol & Live Node" spells out the argument;
//! `tests/wire_conformance.rs` pins it across seeds, workload shapes,
//! and both protocols.

use ert_faults::{FaultPlan, RetryPolicy};
use ert_minidht::{ChordGeometry, Geometry, MiniDht, MiniDhtConfig, MiniProtocol, RouteTrace};
use ert_node::WireCluster;
use ert_overlay::ChordSpace;
use ert_sim::{SimDuration, SimRng, SimTime};

use super::super::strategies::ramp_capacities;

/// Outcome of one wire-vs-sim differential run.
#[derive(Debug, Clone)]
pub struct WireDiff {
    /// Scenario label (`bits/n/seed/protocol/schedule-shape`).
    pub label: String,
    /// Sim-side decision trace.
    pub sim_trace: RouteTrace,
    /// Wire-side decision trace.
    pub wire_trace: RouteTrace,
    /// Sim-side post-run table fingerprints.
    pub sim_tables: Vec<String>,
    /// Wire-side post-run table fingerprints.
    pub wire_tables: Vec<String>,
    /// `(completed, dropped)` on the sim side.
    pub sim_counts: (u64, u64),
    /// `(completed, dropped)` on the wire side.
    pub wire_counts: (u64, u64),
    /// Bit pattern of the sim's mean lookup time.
    pub sim_lookup_mean_bits: u64,
    /// Bit pattern of the wire cluster's mean lookup time.
    pub wire_lookup_mean_bits: u64,
}

impl WireDiff {
    /// Exact match on every compared axis.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.mismatch().is_none()
    }

    /// First axis that disagrees, with enough context to debug it, or
    /// `None` on an exact match.
    #[must_use]
    pub fn mismatch(&self) -> Option<String> {
        if self.sim_trace.sources != self.wire_trace.sources {
            return Some(format!(
                "{}: source draws diverge (sim {:?} vs wire {:?})",
                self.label, self.sim_trace.sources, self.wire_trace.sources
            ));
        }
        if self.sim_trace.hops != self.wire_trace.hops {
            let i = self
                .sim_trace
                .hops
                .iter()
                .zip(&self.wire_trace.hops)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| self.sim_trace.hops.len().min(self.wire_trace.hops.len()));
            return Some(format!(
                "{}: hop streams diverge at index {i} (sim {:?} vs wire {:?}; lengths {} vs {})",
                self.label,
                self.sim_trace.hops.get(i),
                self.wire_trace.hops.get(i),
                self.sim_trace.hops.len(),
                self.wire_trace.hops.len()
            ));
        }
        if self.sim_trace.completions != self.wire_trace.completions {
            return Some(format!(
                "{}: completion streams diverge (sim {} vs wire {} records)",
                self.label,
                self.sim_trace.completions.len(),
                self.wire_trace.completions.len()
            ));
        }
        if self.sim_trace.drops != self.wire_trace.drops {
            return Some(format!(
                "{}: drop streams diverge (sim {:?} vs wire {:?})",
                self.label, self.sim_trace.drops, self.wire_trace.drops
            ));
        }
        if self.sim_trace.adapts != self.wire_trace.adapts {
            let i = self
                .sim_trace
                .adapts
                .iter()
                .zip(&self.wire_trace.adapts)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| {
                    self.sim_trace
                        .adapts
                        .len()
                        .min(self.wire_trace.adapts.len())
                });
            return Some(format!(
                "{}: adaptation sequences diverge at index {i} (sim {:?} vs wire {:?}; lengths {} vs {})",
                self.label,
                self.sim_trace.adapts.get(i),
                self.wire_trace.adapts.get(i),
                self.sim_trace.adapts.len(),
                self.wire_trace.adapts.len()
            ));
        }
        if self.sim_tables != self.wire_tables {
            let i = self
                .sim_tables
                .iter()
                .zip(&self.wire_tables)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Some(format!(
                "{}: table fingerprints diverge at node {i}\n  sim:  {}\n  wire: {}",
                self.label,
                self.sim_tables.get(i).map_or("<missing>", |s| s),
                self.wire_tables.get(i).map_or("<missing>", |s| s),
            ));
        }
        if self.sim_counts != self.wire_counts {
            return Some(format!(
                "{}: outcome counts diverge (sim {:?} vs wire {:?})",
                self.label, self.sim_counts, self.wire_counts
            ));
        }
        if self.sim_lookup_mean_bits != self.wire_lookup_mean_bits {
            return Some(format!(
                "{}: mean lookup time bits diverge (sim {:#018x} vs wire {:#018x})",
                self.label, self.sim_lookup_mean_bits, self.wire_lookup_mean_bits
            ));
        }
        None
    }
}

/// Uniform-key Poisson-paced schedule, generated outside both systems
/// so neither side's RNG state is disturbed by workload draws.
#[must_use]
pub fn uniform_schedule(
    bits: u8,
    count: usize,
    rate_per_sec: f64,
    wseed: u64,
) -> Vec<(SimTime, u64)> {
    let space = ChordSpace::new(bits);
    let mut rng = SimRng::seed_from(wseed).fork("wire-workload");
    let mut at = SimTime::ZERO;
    (0..count)
        .map(|_| {
            at += SimDuration::from_secs_f64(rng.exp_secs(rate_per_sec));
            (at, space.random_id(&mut rng))
        })
        .collect()
}

/// Hotspot schedule: a fixed fraction of queries hammer one region of
/// the ring (keys drawn from a `2^(bits-3)`-wide window), the rest are
/// uniform. Stresses the adaptation path far harder than uniform keys.
#[must_use]
pub fn hotspot_schedule(
    bits: u8,
    count: usize,
    rate_per_sec: f64,
    wseed: u64,
) -> Vec<(SimTime, u64)> {
    let space = ChordSpace::new(bits);
    let mut rng = SimRng::seed_from(wseed).fork("wire-hotspot");
    let hot_base = space.random_id(&mut rng);
    let window = (space.ring_size() >> 3).max(1);
    let mut at = SimTime::ZERO;
    (0..count)
        .map(|i| {
            at += SimDuration::from_secs_f64(rng.exp_secs(rate_per_sec));
            let key = if i % 4 != 0 {
                // 75% of traffic lands in the hot window.
                let off = space.random_id(&mut rng) % window;
                (hot_base + off) % space.ring_size()
            } else {
                space.random_id(&mut rng)
            };
            (at, key)
        })
        .collect()
}

/// Runs the same `(bits, n, seed, schedule, protocol)` scenario through
/// the live wire cluster and the simulator and collects every compared
/// axis. Panics only on scenario construction failure (invalid
/// parameters), never on disagreement — callers assert via
/// [`WireDiff::ok`]/[`WireDiff::mismatch`].
#[must_use]
pub fn wire_vs_sim(
    bits: u8,
    n: usize,
    seed: u64,
    schedule: &[(SimTime, u64)],
    protocol: MiniProtocol,
) -> WireDiff {
    let cfg = MiniDhtConfig::defaults(bits, seed);
    let geometry = ChordGeometry::populate(bits, n, &mut SimRng::seed_from(seed));
    let members = geometry.members();
    let caps = ramp_capacities(members.len());

    let mut sim = MiniDht::new(cfg, geometry, &caps, protocol).expect("sim construction");
    sim.enable_trace();
    // The wire node owns a per-node decision stream (it cannot share
    // one platform RNG across processes); switch the sim to the same
    // per-node streams so forwarding draws align.
    sim.use_node_decision_rngs();
    let sim_report = sim.run_schedule(schedule);
    let sim_trace = sim.take_trace().unwrap_or_default();
    let sim_tables = sim.table_fingerprints();

    let mut wire = WireCluster::new(
        cfg,
        bits,
        &members,
        &caps,
        protocol,
        &FaultPlan::new(seed),
        RetryPolicy::default(),
        None,
    )
    .expect("wire cluster construction");
    wire.enable_trace();
    let wire_report = wire.run_schedule(schedule).expect("wire run");
    let wire_trace = wire.take_trace().unwrap_or_default();
    let wire_tables = wire.table_fingerprints();

    WireDiff {
        label: format!("bits={bits}/n={n}/seed={seed}/{protocol:?}"),
        sim_trace,
        wire_trace,
        sim_tables,
        wire_tables,
        sim_counts: (sim_report.completed, sim_report.dropped),
        wire_counts: (wire_report.completed, wire_report.dropped),
        sim_lookup_mean_bits: sim_report.lookup_time.mean.to_bits(),
        wire_lookup_mean_bits: wire_report.lookup_time.mean.to_bits(),
    }
}
