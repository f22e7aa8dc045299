//! The `Geometry` contract the shared `ErtNode` stands on, checked on
//! this crate's Chord, Pastry and Cycloid geometries, and the Chord ring the
//! node's own tests in `ert-core` run on, pinned to the production
//! geometry.

use std::collections::{BTreeMap, BTreeSet};

use ert_core::drive;
use ert_minidht::{
    ChordGeometry, CycloidGeometry, ErtNode, Geometry, Hop, Lookup, MiniDhtConfig, MiniProtocol,
    PastryGeometry, PeerAnswer, RouteScratch,
};
use ert_sim::SimRng;
use proptest::prelude::*;

fn chord() -> ChordGeometry {
    ChordGeometry::populate(10, 150, &mut SimRng::seed_from(1))
}

fn pastry() -> PastryGeometry {
    PastryGeometry::populate(6, 2, 150, &mut SimRng::seed_from(3))
}

/// Every ID of a dimension-5 Cycloid.
fn full_cycloid() -> CycloidGeometry {
    CycloidGeometry::from_members(5, &(0..160).collect::<Vec<u64>>())
}

/// 200 of a dimension-6 Cycloid's 384 IDs: regions about half full.
fn sparse_cycloid() -> CycloidGeometry {
    CycloidGeometry::populate(6, 200, &mut SimRng::seed_from(5))
}

/// Resuming after any yielded pair gives exactly the rest of the
/// from-the-top order. Each sampled node has at least `min_each` pairs:
/// more than 20 on Chord and Pastry, while a Cycloid node at cyclic
/// index `k` has at most `2^(k+2)` and one at `k = d − 1` none.
fn assert_inlink_scan_resumes(g: &impl Geometry, min_each: usize) {
    let mut total = 0;
    for node in g.members().into_iter().step_by(17) {
        let all: Vec<(u16, u64)> = g.inlink_candidates(node, None).collect();
        assert!(all.len() >= min_each, "node {node}: {} pairs", all.len());
        for (i, &pair) in all.iter().enumerate() {
            let rest: Vec<(u16, u64)> = g.inlink_candidates(node, Some(pair)).collect();
            assert_eq!(rest, all[i + 1..], "node {node}, after {pair:?}");
        }
        total += all.len();
    }
    assert!(total > 100, "only {total} pairs resumed after");
}

/// The contract that lets an "added" answer be recorded without a
/// search. No holder repeats in a node's inlink candidates, and each is
/// paired with the one non-structural slot of its own table whose
/// region holds the node.
fn assert_one_elastic_slot_per_holder(g: &impl Geometry) {
    let mut pairs = 0;
    for node in g.members().into_iter().step_by(7) {
        let mut seen = BTreeSet::new();
        for (slot, holder) in g.inlink_candidates(node, None) {
            assert!(seen.insert(holder), "node {node}: holder {holder} repeats");
            let holding: Vec<u16> = g
                .table_slots(holder)
                .into_iter()
                .filter(|(s, members)| !g.is_structural(*s) && members.contains(&node))
                .map(|(s, _)| s)
                .collect();
            assert_eq!(holding, [slot], "node {node}, holder {holder}");
            pairs += 1;
        }
    }
    assert!(pairs > 100, "only {pairs} pairs checked");
}

#[test]
fn chord_inlink_candidates_resume_after_any_pair() {
    assert_inlink_scan_resumes(&chord(), 21);
}

#[test]
fn chord_inlink_holders_have_one_elastic_slot() {
    assert_one_elastic_slot_per_holder(&chord());
}

#[test]
fn pastry_inlink_candidates_resume_after_any_pair() {
    assert_inlink_scan_resumes(&pastry(), 21);
}

#[test]
fn pastry_inlink_holders_have_one_elastic_slot() {
    assert_one_elastic_slot_per_holder(&pastry());
}

#[test]
fn cycloid_inlink_candidates_resume_after_any_pair() {
    assert_inlink_scan_resumes(&full_cycloid(), 0);
    assert_inlink_scan_resumes(&sparse_cycloid(), 0);
}

#[test]
fn cycloid_inlink_holders_have_one_elastic_slot() {
    assert_one_elastic_slot_per_holder(&full_cycloid());
    assert_one_elastic_slot_per_holder(&sparse_cycloid());
}

/// `Geometry::inlink_candidates` as each geometry spelt it before its
/// walk became a plain iterator, kept as the walks' oracle: on Chord
/// and Pastry the `flat_map` chain over fingers or rows, on Cycloid the
/// registry's scan re-run from the top past `after`. Each reads a
/// registry rebuilt from the geometry's members.
mod chain {
    use ert_minidht::{ChordGeometry, CycloidGeometry, Geometry, PastryGeometry};
    use ert_overlay::{ChordRegistry, CycloidRegistry, InlinkCursor, PastryRegistry, SlotKind};

    /// Fingers up to this one are structural on Chord.
    const STRUCTURAL_MAX_FINGER: u8 = 2;

    pub fn chord(g: &ChordGeometry, node: u64, after: Option<(u16, u64)>) -> Vec<(u16, u64)> {
        let space = g.space();
        let registry = ChordRegistry::from_ids(space, g.members());
        let top = after.map_or(space.bits() - 1, |(slot, _)| slot as u8);
        (STRUCTURAL_MAX_FINGER + 1..=top)
            .rev()
            .flat_map(|m| {
                let region = space.reverse_finger_region(node, m);
                let rest = match after {
                    Some((slot, last)) if slot == m as u16 => region.after(last),
                    _ => region,
                };
                registry.arc(rest).iter().map(move |cand| (m as u16, cand))
            })
            .filter(|&(_, cand)| cand != node)
            .collect()
    }

    pub fn pastry(g: &PastryGeometry, node: u64, after: Option<(u16, u64)>) -> Vec<(u16, u64)> {
        let space = g.space();
        let mut registry = PastryRegistry::new(space);
        for id in g.members() {
            registry.insert(id);
        }
        let base = space.base() as u16;
        let top = after.map_or(space.rows() - 1, |(slot, _)| (slot / base) as u8);
        (0..=top)
            .rev()
            .map(|row| (row, row as u16 * base + space.digit(node, row) as u16))
            .filter(|&(_, slot)| !g.is_structural(slot))
            .flat_map(|(row, slot)| {
                let floor = match after {
                    Some((at, last)) if at == slot => last + 1,
                    _ => 0,
                };
                space
                    .reverse_row_spans(node, row)
                    .flat_map(|(lo, hi)| registry.span(lo.max(floor), hi).to_vec())
                    .map(move |cand| (slot, cand))
                    .collect::<Vec<_>>()
            })
            .filter(|&(_, cand)| cand != node)
            .collect()
    }

    pub fn cycloid(g: &CycloidGeometry, node: u64, after: Option<(u16, u64)>) -> Vec<(u16, u64)> {
        let space = g.space();
        let mut registry = CycloidRegistry::new(space);
        for lin in g.members() {
            registry.insert(space.from_lin(lin));
        }
        let slot_of = |kind| match kind {
            SlotKind::Cubical => 0,
            SlotKind::Cyclic => 1,
        };
        let mut scan = registry
            .inlink_scan(space.from_lin(node), 0, InlinkCursor::Start)
            .filter_map(|(kind, holder)| Some((slot_of(kind?), space.lin(holder))));
        if let Some(last) = after {
            scan.find(|&pair| pair == last);
        }
        scan.collect()
    }
}

/// `g`'s walk of `node`'s inlink candidates yields what `oracle` does,
/// from the top and resumed after every pair it yields.
fn assert_walk_is_the_chain<G: Geometry>(
    g: &G,
    node: u64,
    oracle: impl Fn(&G, u64, Option<(u16, u64)>) -> Vec<(u16, u64)>,
) {
    let all: Vec<(u16, u64)> = g.inlink_candidates(node, None).collect();
    assert_eq!(all, oracle(g, node, None), "{} node {node}", g.name());
    for &pair in &all {
        let rest: Vec<(u16, u64)> = g.inlink_candidates(node, Some(pair)).collect();
        assert_eq!(
            rest,
            oracle(g, node, Some(pair)),
            "{} node {node} after {pair:?}",
            g.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The plain-iterator walks yield the `(slot, holder)` sequence of
    /// the iterator chains they replaced, from the top and from every
    /// resume point, on random Chord and Pastry memberships and on a
    /// full and a random sparse Cycloid.
    #[test]
    fn inlink_walks_yield_the_chain_sequence(seed in 0u64..1_000, pick in 0usize..100_000) {
        let mut rng = SimRng::seed_from(seed);
        let chord = ChordGeometry::populate(10, 150, &mut rng);
        let pastry = PastryGeometry::populate(6, 2, 150, &mut rng);
        let sparse = CycloidGeometry::populate(6, 200, &mut rng);
        let full = full_cycloid();
        let at = |members: Vec<u64>| members[pick % members.len()];
        assert_walk_is_the_chain(&chord, at(chord.members()), chain::chord);
        assert_walk_is_the_chain(&pastry, at(pastry.members()), chain::pastry);
        assert_walk_is_the_chain(&sparse, at(sparse.members()), chain::cycloid);
        assert_walk_is_the_chain(&full, at(full.members()), chain::cycloid);
    }
}

/// The 16-node ring of `ert-core`'s node tests, `0, 4, …, 60` on 2^6
/// ids. Those tests run on a copy of this geometry that `ert-core` can
/// build without this crate; the copy's test `the_test_ring_is_pinned`
/// pins the same values, so a change to either side fails one of them.
fn core_test_ring() -> ChordGeometry {
    let members: Vec<u64> = (0..16).map(|i| i * 4).collect();
    ChordGeometry::from_members(6, &members)
}

/// Node 0's inlink candidates on the core test ring, in scan order.
const CORE_RING_INLINKS: [(u16, u64); 7] = [
    (5, 20),
    (5, 24),
    (5, 28),
    (5, 32),
    (4, 44),
    (4, 48),
    (3, 56),
];

#[test]
fn the_core_node_tests_ring_is_this_chord_ring() {
    let g = core_test_ring();
    let candidates: Vec<(u16, u64)> = g.inlink_candidates(0, None).collect();
    assert_eq!(candidates, CORE_RING_INLINKS);
    let regions: Vec<(u16, Vec<u64>)> = g.region_slots(0).map(|(s, m)| (s, m.to_vec())).collect();
    let pinned = [
        (2, vec![4]),
        (3, vec![8]),
        (4, vec![16, 20]),
        (5, vec![32, 36, 40, 44]),
    ];
    assert_eq!(regions, pinned);
    assert_eq!(g.sentinel_slot(0), (u16::MAX, vec![4, 8, 12, 16]));
    let structural: Vec<u16> = (0..6)
        .chain([u16::MAX])
        .filter(|&s| g.is_structural(s))
        .collect();
    assert_eq!(structural, [0, 1, 2, u16::MAX]);
}

/// A hop with no outlink toward the owner falls back to the successor
/// list, and the node writes the geometry's refresh into that slot:
/// the refresh path the core tests' copy of the ring leaves out.
#[test]
fn a_route_with_an_empty_table_refreshes_the_successor_list() {
    let g = core_test_ring();
    let cfg = MiniDhtConfig::defaults(6, 9);
    let mut peers: BTreeMap<u64, ErtNode> = g
        .members()
        .into_iter()
        .map(|id| (id, ErtNode::new(id, 8, MiniProtocol::ElasticErt)))
        .collect();
    let mut me = peers.remove(&0).unwrap();
    let mut lookup = Lookup {
        query: 1,
        key: 50,
        hops: 0,
        attempts: 0,
        numeric_mode: false,
        avoid: BTreeSet::new(),
    };
    let (mut rng, mut scratch) = (SimRng::seed_from(1), RouteScratch::default());
    let route = me.route(&g, &cfg, &mut lookup, &mut rng, &mut scratch);
    let hop = drive(&mut me, route, |peer, op| {
        PeerAnswer::Report(peers.get_mut(&peer).unwrap().serve(op))
    });
    let (slot, succ) = g.sentinel_slot(0);
    assert_eq!(me.table().outlinks(slot), succ);
    assert!(
        matches!(hop, Hop::Next(next) if succ.contains(&next)),
        "{hop:?}"
    );
    assert_eq!(lookup.hops, 1);
}

/// Every member's node after its table build on `g` under `protocol`,
/// by id.
fn built(g: &impl Geometry, protocol: MiniProtocol) -> BTreeMap<u64, ErtNode> {
    let cfg = MiniDhtConfig::defaults(10, 1);
    let mut nodes: BTreeMap<u64, ErtNode> = g
        .members()
        .into_iter()
        .map(|id| (id, ErtNode::new(id, 12, protocol)))
        .collect();
    for id in g.members() {
        let mut me = nodes.remove(&id).unwrap();
        let build = me.build(g, &cfg);
        drive(&mut me, build, |peer, op| match nodes.get_mut(&peer) {
            Some(p) => PeerAnswer::Report(p.serve(op)),
            None => PeerAnswer::Unknown,
        });
        nodes.insert(id, me);
    }
    nodes
}

/// Walks from `(start, key, picks)` on `g`'s built tables: at each hop,
/// `hop_candidates` into `reused`, left dirty by the hop before, and
/// into a fresh `Vec` give the same slot, refresh, ids and
/// `numeric_mode`; the walk goes on to a candidate the picks choose.
/// Returns the hops taken.
fn assert_reused_buffer_routes_as_a_fresh_one(
    g: &impl Geometry,
    protocol: MiniProtocol,
    walks: &[(usize, u64, u64)],
    reused: &mut Vec<u64>,
) -> usize {
    let nodes = built(g, protocol);
    let members = g.members();
    let mut hops = 0;
    for &(start, key, mut picks) in walks {
        let mut cur = members[start % members.len()];
        let owner = g.owner(key).expect("a member owns every key");
        let (mut numeric, mut twin_numeric) = (false, false);
        for _ in 0..64 {
            if cur == owner {
                break;
            }
            let table = nodes[&cur].table();
            let mut fresh = Vec::new();
            let got = g.hop_candidates(cur, owner, table, &mut numeric, reused);
            let want = g.hop_candidates(cur, owner, table, &mut twin_numeric, &mut fresh);
            assert_eq!(got, want, "{} hop from {cur} toward {owner}", g.name());
            assert_eq!(*reused, fresh, "{} hop from {cur} toward {owner}", g.name());
            assert_eq!(numeric, twin_numeric, "{} hop from {cur}", g.name());
            cur = fresh[(picks % fresh.len() as u64) as usize];
            picks = picks.rotate_left(7) ^ 0x9e37_79b9_7f4a_7c15;
            hops += 1;
        }
    }
    hops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A hop's candidates fill the caller's reused buffer exactly as a
    /// fresh one: on Chord, Pastry and Cycloid (full and sparse), on
    /// Classic and ERT tables, a buffer left dirty by the previous hop
    /// (of this walk or an earlier one; the first hop finds it holding
    /// arbitrary ids) yields the same ids, slot, refresh and
    /// `numeric_mode` as a new `Vec`.
    #[test]
    fn hop_candidates_fill_a_reused_buffer_as_a_fresh_one(
        geometry in 0usize..4,
        elastic in prop::bool::ANY,
        dirt in prop::collection::vec(0u64..u64::MAX, 0..12),
        walks in prop::collection::vec(
            (0usize..usize::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            1..24,
        ),
    ) {
        let protocol = if elastic { MiniProtocol::ElasticErt } else { MiniProtocol::Classic };
        let mut reused = dirt;
        let keyed = |ring: u64| -> Vec<(usize, u64, u64)> {
            walks.iter().map(|&(s, k, p)| (s, k % ring, p)).collect()
        };
        let hops = match geometry {
            0 => {
                let g = chord();
                let walks = keyed(g.space().ring_size());
                assert_reused_buffer_routes_as_a_fresh_one(&g, protocol, &walks, &mut reused)
            }
            1 => {
                let g = pastry();
                let walks = keyed(g.space().ring_size());
                assert_reused_buffer_routes_as_a_fresh_one(&g, protocol, &walks, &mut reused)
            }
            2 => {
                let g = full_cycloid();
                let walks = keyed(g.space().ring_size());
                assert_reused_buffer_routes_as_a_fresh_one(&g, protocol, &walks, &mut reused)
            }
            _ => {
                let g = sparse_cycloid();
                let walks = keyed(g.space().ring_size());
                assert_reused_buffer_routes_as_a_fresh_one(&g, protocol, &walks, &mut reused)
            }
        };
        prop_assert!(hops > 0, "no walk took a hop");
    }
}
