//! The ERT mechanism is overlay-agnostic: Section 3.2 defines indegree
//! expansion on Chord, Pastry and Tapestry as well as Cycloid. These
//! tests build every node's table and expand its indegree with the
//! production `ErtNode` on each production geometry, one ask at a time
//! through `ert_core::drive`.

use std::collections::BTreeMap;

use ert_repro::core::{assign::initial_indegree_target, drive, max_indegree};
use ert_repro::minidht::{
    ChordGeometry, CycloidGeometry, ErtNode, Geometry, MiniDhtConfig, MiniProtocol, PastryGeometry,
    PeerAnswer,
};
use ert_repro::sim::SimRng;
use rand::Rng;

/// Builds every member's table on `geometry` in member order — Algorithm
/// 2's picks, then Algorithm 1 toward the initial target — each ask
/// answered by the asked node's `serve`. A node's capacity bound is
/// `max_indegree(8.0, c)` with `c` drawn from `rng`. Every node must
/// hold a link, and end its own build with an indegree of at least its
/// initial target or its whole inlink supply, whichever is smaller:
/// Algorithm 1 asks until one or the other runs out, and a holder that
/// answers holds the node. Every link but the sentinel's must lie in the
/// region [`Geometry::table_slots`] gives for its slot. Returns the
/// nodes, and how many reached their initial indegree target with
/// their own build.
fn build_all(
    geometry: &impl Geometry,
    cfg: &MiniDhtConfig,
    rng: &mut SimRng,
) -> (Vec<ErtNode>, usize) {
    let ids = geometry.members();
    let mut nodes: BTreeMap<u64, ErtNode> = ids
        .iter()
        .map(|&id| {
            let d_max = max_indegree(8.0, 0.25 + rng.gen::<f64>() * 2.0);
            (id, ErtNode::new(id, d_max, MiniProtocol::ElasticErt))
        })
        .collect();
    let mut reached = 0;
    for id in ids {
        let mut me = nodes.remove(&id).expect("a member");
        let build = me.build(geometry, cfg);
        drive(&mut me, build, |peer, op| match nodes.get_mut(&peer) {
            Some(peer) => PeerAnswer::Report(peer.serve(op)),
            None => PeerAnswer::Unknown,
        });
        assert!(
            me.table().outdegree() > 0,
            "node {id:#x} built an empty table"
        );
        let target = initial_indegree_target(&cfg.ert, me.d_max());
        let supply = geometry.inlink_candidates(id, None).count() as u32;
        assert!(
            me.indegree() >= target.min(supply),
            "node {id:#x}: indegree {} of target {target}, supply {supply}",
            me.indegree()
        );
        reached += usize::from(me.indegree() >= target);
        nodes.insert(id, me);
    }
    for node in nodes.values() {
        let id = node.id();
        let sentinel = geometry.sentinel_slot(id).0;
        let regions: BTreeMap<u16, Vec<u64>> = geometry.table_slots(id).into_iter().collect();
        for (slot, to) in node.table().iter_outlinks() {
            assert!(
                slot == sentinel || regions.get(&slot).is_some_and(|m| m.contains(&to)),
                "invalid {} link {id:#x} -[{slot}]-> {to:#x}",
                geometry.name()
            );
        }
    }
    (nodes.into_values().collect(), reached)
}

#[test]
fn ert_builds_and_expands_on_chord() {
    let mut rng = SimRng::seed_from(71);
    let geometry = ChordGeometry::populate(9, 160, &mut rng);
    let (nodes, reached) = build_all(&geometry, &MiniDhtConfig::defaults(9, 71), &mut rng);
    assert!(
        reached * 2 >= nodes.len(),
        "only {reached}/{} chord nodes reached their indegree target",
        nodes.len()
    );
}

#[test]
fn ert_builds_and_expands_on_pastry() {
    let mut rng = SimRng::seed_from(72);
    let geometry = PastryGeometry::populate(4, 2, 120, &mut rng);
    let (nodes, _) = build_all(&geometry, &MiniDhtConfig::defaults(8, 72), &mut rng);
    // Expansion must have produced meaningful indegree somewhere.
    let expanded = nodes.iter().filter(|n| n.indegree() >= 3).count();
    assert!(
        expanded * 3 >= nodes.len(),
        "{expanded}/{} pastry nodes expanded",
        nodes.len()
    );
}

#[test]
fn ert_builds_and_expands_on_cycloid() {
    let mut rng = SimRng::seed_from(73);
    let geometry = CycloidGeometry::populate(6, 200, &mut rng);
    let (nodes, _) = build_all(&geometry, &MiniDhtConfig::defaults(6, 73), &mut rng);
    let expanded = nodes.iter().filter(|n| n.indegree() >= 3).count();
    assert!(
        expanded * 3 >= nodes.len(),
        "{expanded}/{} cycloid nodes expanded",
        nodes.len()
    );
    // A node at k = d − 1 has no reverse region, and Algorithm 1's ring
    // phase is not carried: no table's elastic slot can hold it.
    let top = |n: &&ErtNode| geometry.space().from_lin(n.id()).k() == 5;
    assert!(nodes.iter().filter(top).all(|n| n.indegree() == 0));
}
