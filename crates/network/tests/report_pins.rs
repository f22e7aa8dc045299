//! Byte pins for ERT/AF runs of the Cycloid simulator.
//!
//! Captured from the tree *before* `Topology` moved to the dense node
//! index, `ElasticTable` to sorted-vector slots and Algorithm 1 gained
//! its exhausted-supply memo, so these check the new overlay state
//! layout against the `BTreeMap`-backed one it replaced rather than
//! against itself. Each `pins/*.txt` holds the `RunReport` JSON on its
//! first line and one table fingerprint per live node, in ID order,
//! after it.

use ert_network::{
    ChurnEvent, CycloidSlot, FaultEvent, FaultKind, FaultPlan, Lookup, Network, NetworkConfig,
    ProtocolSpec,
};
use ert_overlay::CycloidSpace;
use ert_sim::{SimRng, SimTime};
use ert_workloads::{churn_schedule, impulse_lookups, uniform_lookups, BoundedPareto};

const N: usize = 256;

/// One line per live node, in ID order: `d_max`, the backward fingers
/// and the outlinks of every slot, each in stored order.
fn table_fingerprints(net: &Network) -> Vec<String> {
    let topo = net.topology();
    let lins = |ids: &[ert_overlay::CycloidId]| -> Vec<u64> {
        ids.iter().map(|&id| topo.space.lin(id)).collect()
    };
    let mut live: Vec<&ert_network::state::OverlayNode> =
        topo.nodes.iter().filter(|n| n.alive).collect();
    live.sort_by_key(|n| topo.space.lin(n.id));
    live.iter()
        .map(|n| {
            format!(
                "{} d_max={} back={:?} cub={:?} cyc={:?} succ={:?} pred={:?}",
                topo.space.lin(n.id),
                n.d_max(),
                lins(n.table.backward_fingers()),
                lins(n.table.outlinks(CycloidSlot::Cubical)),
                lins(n.table.outlinks(CycloidSlot::Cyclic)),
                lins(n.table.outlinks(CycloidSlot::RingSucc)),
                lins(n.table.outlinks(CycloidSlot::RingPred)),
            )
        })
        .collect()
}

fn snapshot(
    seed: u64,
    lookups: impl FnOnce(&mut SimRng) -> Vec<Lookup>,
    churn: impl FnOnce(&mut SimRng) -> Vec<ChurnEvent>,
    plan: &FaultPlan,
) -> String {
    let mut rng = SimRng::seed_from(seed);
    let capacities = BoundedPareto::paper_default().sample_n(N, &mut rng.fork("capacities"));
    let cfg = NetworkConfig::for_dimension(CycloidSpace::dimension_for(N), seed)
        .with_light_service_secs(0.2);
    let lookups = lookups(&mut rng.fork("lookups"));
    let churn = churn(&mut rng.fork("churn"));
    let mut net = Network::new(cfg, &capacities, ProtocolSpec::ert_af()).expect("valid scenario");
    let report = net.run_with_faults(&lookups, &churn, plan);
    let mut out = serde::json::to_string(&report);
    for line in table_fingerprints(&net) {
        out.push('\n');
        out.push_str(&line);
    }
    out.push('\n');
    out
}

fn assert_pinned(name: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{name}: diverges from the pre-refactor bytes at line {line}\n  got:  {:?}\n  want: {:?}",
        got.lines().nth(line),
        want.lines().nth(line)
    );
}

/// Static membership, uniform lookups: a dozen adaptation rounds over a
/// fixed candidate supply, which is where the memo hits.
#[test]
fn static_uniform_matches_pre_refactor_bytes() {
    let got = snapshot(
        21,
        |rng| uniform_lookups(1500, N as f64, rng),
        |_| Vec::new(),
        &FaultPlan::default(),
    );
    assert_pinned(
        "static_uniform",
        &got,
        include_str!("pins/static_uniform.txt"),
    );
}

/// Impulse lookups under join/leave churn: `add_node` on reused IDs and
/// `remove_node` between (and during) adaptation rounds.
#[test]
fn churn_impulse_matches_pre_refactor_bytes() {
    let got = snapshot(
        22,
        |rng| impulse_lookups(800, N as f64, N, 24, 12, rng),
        |rng| {
            churn_schedule(
                SimTime::from_secs_f64(30.0),
                0.2,
                0.2,
                BoundedPareto::paper_default(),
                rng,
            )
        },
        &FaultPlan::default(),
    );
    assert_pinned(
        "churn_impulse",
        &got,
        include_str!("pins/churn_impulse.txt"),
    );
}

/// A Sybil swarm and crash faults: the other two callers of `add_node`
/// and `remove_node`.
#[test]
fn sybil_crash_matches_pre_refactor_bytes() {
    let mut plan = FaultPlan::new(5);
    for i in 0..12u64 {
        plan.events.push(FaultEvent {
            at: SimTime::from_micros(400_000 + 350_000 * i),
            kind: FaultKind::Crash,
        });
    }
    for (at, count, region) in [(600_000, 16, 0.3), (2_100_000, 8, 0.8)] {
        plan.events.push(FaultEvent {
            at: SimTime::from_micros(at),
            kind: FaultKind::SybilSwarm { count, region },
        });
    }
    let got = snapshot(
        23,
        |rng| uniform_lookups(1200, N as f64, rng),
        |_| Vec::new(),
        &plan,
    );
    assert_pinned("sybil_crash", &got, include_str!("pins/sybil_crash.txt"));
}
