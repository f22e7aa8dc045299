//! Control-plane accounting: what a run costs in RPCs beyond the
//! lookups themselves.
//!
//! The shared node asks a peer only what it does not already know, so
//! on a fault-free cluster both RPC counters have exact budgets:
//!
//! * Algorithm 4 draws its poll set first and probes only that, so a
//!   run sends at most `probe_width` `ProbeLoad`s per forwarded hop;
//! * Algorithm 1 is one exchange per holder and its scan resumes where
//!   the last one stopped, so while no node sheds no holder is asked
//!   twice: an `AdaptIndegree` is the `AddOutlink` (or, for a node's
//!   own elastic pick at table build, the `AddBackward`) of a link
//!   gained, or the one `AddOutlink` answered "present" by a holder
//!   that already points at the node.
//!
//! Table construction is accounted separately
//! ([`WireCluster::build_rpcs`]). Its `AdaptIndegree`s keep the
//! Algorithm 1 budget above. Its `ProbeLoad`s are the elastic slots'
//! spare-indegree probes, drawn before they are sent: a slot asks its
//! region's members in random order until one has spare, so a slot
//! costs one probe while every member has spare and
//! `(m + 1)/(e + 1)` on average with `e` of `m` members eligible — not
//! one per member.
//!
//! Every link is a double link: the holder's outlink and the target's
//! backward finger. At quiescence both drivers hold them symmetric —
//! each node's backward fingers are distinct and are exactly the peers
//! that hold it in an elastic slot — which is what lets the shared node
//! record an "added" answer without searching its fingers first.

use ert_faults::{FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use std::collections::{BTreeMap, BTreeSet};

use ert_minidht::{ChordGeometry, Geometry, MiniDht, MiniDhtConfig, MiniProtocol};
use ert_node::WireCluster;
use ert_sim::{SimDuration, SimRng, SimTime};
use rand::Rng;

const BITS: u8 = 16;
const N: usize = 256;

fn capacities() -> Vec<f64> {
    (0..N).map(|i| 600.0 + 250.0 * (i % 5) as f64).collect()
}

fn cluster(seed: u64) -> (WireCluster, MiniDhtConfig) {
    let members = ChordGeometry::populate(BITS, N, &mut SimRng::seed_from(seed)).members();
    let caps = capacities();
    let cfg = MiniDhtConfig::defaults(BITS, seed);
    let mut cluster = WireCluster::new(
        cfg,
        BITS,
        &members,
        &caps,
        MiniProtocol::ElasticErt,
        &FaultPlan::new(seed),
        RetryPolicy::default(),
        None,
    )
    .expect("cluster construction");
    cluster.enable_trace();
    (cluster, cfg)
}

fn uniform_schedule(count: usize, rate: f64, seed: u64) -> Vec<(SimTime, u64)> {
    let mut rng = SimRng::seed_from(seed).fork("wire-workload");
    let mut at = SimTime::ZERO;
    (0..count)
        .map(|_| {
            at += SimDuration::from_secs_f64(rng.exp_secs(rate));
            (at, rng.gen_range(0..1u64 << BITS))
        })
        .collect()
}

fn total_indegree(cluster: &WireCluster) -> u64 {
    cluster
        .indegrees()
        .iter()
        .map(|&(_, indegree, _)| u64::from(indegree))
        .sum()
}

#[test]
fn a_run_probes_at_most_probe_width_peers_per_hop() {
    // Busy enough that queues build and the avoid-set and memory paths
    // are all taken.
    let (mut cluster, cfg) = cluster(31);
    let (build_probes, _) = cluster.build_rpcs();
    let report = cluster
        .run_schedule(&uniform_schedule(1500, 1500.0, 31))
        .expect("run");
    assert_eq!(report.completed, 1500);
    let trace = cluster.take_trace().expect("tracing was on");
    assert!(trace.hops.len() > 1500, "the run must forward");
    let run_probes = report.probe_rpcs - build_probes;
    let budget = (cfg.ert.probe_width * trace.hops.len()) as u64;
    assert!(
        run_probes <= budget,
        "{run_probes} ProbeLoad RPCs for {} hops: over {} per hop",
        trace.hops.len(),
        cfg.ert.probe_width
    );
    // Not vacuous: most decisions do poll a second candidate.
    assert!(run_probes > trace.hops.len() as u64);
}

#[test]
fn a_table_build_probes_about_once_per_elastic_slot() {
    let (cluster, _) = cluster(33);
    let (build_probes, _) = cluster.build_rpcs();
    // The slots and regions every node's build draws from.
    let geometry = ChordGeometry::populate(BITS, N, &mut SimRng::seed_from(33));
    let (mut slots, mut region_total) = (0u64, 0u64);
    for id in geometry.members() {
        for (slot, region) in geometry.table_slots(id) {
            if !geometry.is_structural(slot) && !region.is_empty() {
                slots += 1;
                region_total += region.len() as u64;
            }
        }
    }
    assert!(
        slots <= build_probes && build_probes <= 2 * slots,
        "{build_probes} build-phase ProbeLoads for {slots} non-empty elastic slots"
    );
    // Asking every member first would have cost one probe per member.
    assert!(
        8 * build_probes < region_total,
        "{build_probes} build-phase ProbeLoads against {region_total} region members"
    );
}

#[test]
fn while_nobody_sheds_no_holder_is_asked_twice() {
    let (mut cluster, _) = cluster(32);
    let (_, build_adapts) = cluster.build_rpcs();
    let before = total_indegree(&cluster);
    // Table build: one RPC per link built, and at most one "present"
    // per link — a holder whose own pick already points at the node.
    assert!(
        before <= build_adapts && build_adapts <= 2 * before,
        "{build_adapts} build-phase AdaptIndegree RPCs for {before} links"
    );
    // Light load over several adaptation periods: every round every
    // node is underloaded and grows.
    let report = cluster
        .run_schedule(&uniform_schedule(300, 50.0, 32))
        .expect("run");
    assert_eq!(report.completed, 300);
    let trace = cluster.take_trace().expect("tracing was on");
    assert!(
        trace.adapts.iter().all(|a| a.delta >= 0),
        "the schedule is meant to be too light for any shed"
    );
    let rounds = trace.adapts.iter().map(|a| a.round).max().unwrap_or(0) + 1;
    assert!(rounds >= 4, "only {rounds} adaptation rounds");
    let gained = total_indegree(&cluster) - before;
    assert!(gained > N as u64, "only {gained} links gained");
    let run_adapts = report.adapt_rpcs - build_adapts;
    assert!(
        run_adapts >= gained,
        "a link costs one AddOutlink: {run_adapts} RPCs, {gained} links"
    );
    // Whatever is left was answered "present": first passes over links
    // that existed when the run began; each of those can be met once.
    let already_linked = run_adapts - gained;
    assert!(
        already_linked <= before,
        "{already_linked} AddOutlinks found their link present, but only {before} links predate \
         the run: some holder was asked again"
    );
    // Not vacuous on either side: some were met, most RPCs bought a link.
    assert!(already_linked > 0 && already_linked < gained);
}

/// One node's routing state read back from its fingerprint
/// (`ErtNode::fingerprint`): its id, its outlinks per slot, and its
/// backward fingers in recorded order.
struct Links {
    id: u64,
    out: Vec<(u16, Vec<u64>)>,
    back: Vec<u64>,
}

fn parse_links(fingerprint: &str) -> Links {
    let field = |name: &str| -> &str {
        fingerprint
            .split(';')
            .find_map(|part| part.strip_prefix(name))
            .unwrap_or_else(|| panic!("no {name} in {fingerprint}"))
    };
    let ids = |list: &str| -> Vec<u64> {
        list.split(',')
            .filter(|id| !id.is_empty())
            .map(|id| id.parse().expect("an id"))
            .collect()
    };
    let bracketed = |name: &str| -> &str {
        field(name)
            .strip_prefix('[')
            .and_then(|rest| rest.strip_suffix(']'))
            .unwrap_or_else(|| panic!("{name} is not a list in {fingerprint}"))
    };
    let out = bracketed("out=")
        .split('|')
        .filter(|slot| !slot.is_empty())
        .map(|slot| {
            let (slot, held) = slot.split_once(':').expect("slot:ids");
            (slot.parse().expect("a slot"), ids(held))
        })
        .collect();
    Links {
        id: field("id=").parse().expect("an id"),
        out,
        back: ids(bracketed("back=")),
    }
}

/// ROADMAP item 9(d)'s symmetry oracle on a quiescent, fault-free
/// driver: every node's backward fingers are distinct, and are exactly
/// the peers that hold the node in a non-structural slot.
fn assert_double_links_symmetric(who: &str, fingerprints: &[String], geometry: &ChordGeometry) {
    let nodes: Vec<Links> = fingerprints.iter().map(|f| parse_links(f)).collect();
    let mut holders: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for node in &nodes {
        for (slot, held) in &node.out {
            if !geometry.is_structural(*slot) {
                for &target in held {
                    holders.entry(target).or_default().insert(node.id);
                }
            }
        }
    }
    let mut fingers = 0;
    for node in &nodes {
        let back: BTreeSet<u64> = node.back.iter().copied().collect();
        assert_eq!(
            back.len(),
            node.back.len(),
            "{who}: node {} records a backward finger twice: {:?}",
            node.id,
            node.back
        );
        let held_by = holders.remove(&node.id).unwrap_or_default();
        assert_eq!(
            back, held_by,
            "{who}: node {}'s backward fingers are not the peers holding it",
            node.id
        );
        fingers += back.len();
    }
    assert!(
        holders.is_empty(),
        "{who}: links to non-members {holders:?}"
    );
    assert!(fingers > N, "{who}: only {fingers} links");
}

#[test]
fn double_links_are_symmetric_after_build_and_after_a_run() {
    for seed in [41, 42, 43] {
        let (mut wire, cfg) = cluster(seed);
        let geometry = ChordGeometry::populate(BITS, N, &mut SimRng::seed_from(seed));
        let mut sim = MiniDht::new(
            cfg,
            geometry.clone(),
            &capacities(),
            MiniProtocol::ElasticErt,
        )
        .expect("twin construction");
        sim.use_node_decision_rngs();
        assert_double_links_symmetric("wire, built", &wire.table_fingerprints(), &geometry);
        assert_double_links_symmetric("MiniDht, built", &sim.table_fingerprints(), &geometry);

        // Busy enough that nodes shed as well as grow.
        let schedule = uniform_schedule(1500, 1500.0, seed);
        let report = wire.run_schedule(&schedule).expect("run");
        assert_eq!(report.completed, 1500);
        let trace = wire.take_trace().expect("tracing was on");
        assert!(
            trace.adapts.iter().any(|a| a.delta < 0),
            "seed {seed}: no shed"
        );
        assert!(
            trace.adapts.iter().any(|a| a.delta > 0),
            "seed {seed}: no grow"
        );
        sim.run_schedule(&schedule);
        assert_eq!(wire.table_fingerprints(), sim.table_fingerprints());
        assert_double_links_symmetric("wire, run", &wire.table_fingerprints(), &geometry);
        assert_double_links_symmetric("MiniDht, run", &sim.table_fingerprints(), &geometry);
    }
}

/// A build under a two-way partition from t = 0. Under Classic every
/// pick is a node's own, and a pick in an elastic slot is recorded at
/// its target only by the node's `AddBackward`: a target across the cut
/// cannot hear it, so the node keeps no link to it. The double links
/// stay symmetric, on the side of the cut each was made on.
#[test]
fn a_classic_build_across_a_partition_keeps_its_double_links_symmetric() {
    let seed = 41;
    let geometry = ChordGeometry::populate(BITS, N, &mut SimRng::seed_from(seed));
    let build = |plan: &FaultPlan| {
        let cfg = MiniDhtConfig::defaults(BITS, seed);
        let (members, caps) = (geometry.members(), capacities());
        let (protocol, retry) = (MiniProtocol::Classic, RetryPolicy::default());
        WireCluster::new(cfg, BITS, &members, &caps, protocol, plan, retry, None)
            .expect("cluster construction")
    };
    let mut plan = FaultPlan::new(seed);
    plan.events.push(FaultEvent {
        at: SimTime::ZERO,
        kind: FaultKind::Partition {
            groups: 2,
            window: SimDuration::from_secs_f64(60.0),
        },
    });
    let (cut, whole) = (build(&plan), build(&FaultPlan::new(seed)));
    let (kept, built) = (total_indegree(&cut), total_indegree(&whole));
    assert!(
        kept < built,
        "{kept} of {built} links kept: no pick crossed the cut"
    );
    assert_double_links_symmetric(
        "wire, Classic, partitioned",
        &cut.table_fingerprints(),
        &geometry,
    );
}
