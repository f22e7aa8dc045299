//! Cycloid geometry for the mini platform: the paper's own overlay, as
//! glue over `ert_overlay::cycloid` alone.
//!
//! An id is a Cycloid ID's ring position ([`CycloidSpace::lin`]), so
//! ascending ids are ring order and owners, member lists and the
//! driver's id index work as they do on Chord. The cubical and cyclic
//! slots are elastic; the leaf set — the [`LEAF_WINDOW`] nearest
//! successors, then as many predecessors — is the sentinel.
//!
//! Algorithm 1's ring phase is left out: `Topology` also asks the
//! `2·leaf_window` ring predecessors to take a node as an extra
//! successor, but the leaf set is structural and the [`Geometry`]
//! contract pairs each holder with one elastic slot, so the node's
//! inlinks come from its two reverse regions only. A node at
//! `k = d − 1` has none and keeps indegree 0.

use ert_core::{ElasticTable, Geometry, HopCandidates};
use ert_overlay::{
    ArcMembers, CycloidId, CycloidRegion, CycloidRegistry, CycloidSpace, InlinkCursor, RouteStep,
    SlotKind,
};
use ert_sim::SimRng;

/// The cubical slot.
const CUBICAL_SLOT: u16 = 0;

/// The cyclic slot.
const CYCLIC_SLOT: u16 = 1;

/// The key an ascend hop's memory is kept under: its candidates come
/// from the membership, and no table slot holds them.
const ASCEND_SLOT: u16 = 2;

/// The slot holding the leaf set.
const LEAF_SLOT: u16 = u16::MAX;

/// Leaf-set size each way (`ErtParams::leaf_window`'s default).
const LEAF_WINDOW: usize = 4;

/// The slot of a table that holds a region of `kind`.
fn slot_of(kind: SlotKind) -> u16 {
    match kind {
        SlotKind::Cubical => CUBICAL_SLOT,
        SlotKind::Cyclic => CYCLIC_SLOT,
    }
}

/// The Cycloid overlay (see [`CycloidSpace`]) at a fixed membership.
#[derive(Debug, Clone)]
pub struct CycloidGeometry {
    registry: CycloidRegistry,
    /// The members' ids in region order ([`CycloidSpace::k_major`]),
    /// where every region is one run
    /// ([`CycloidSpace::k_major_range`]).
    by_region: Vec<u64>,
}

impl CycloidGeometry {
    /// Builds an overlay of dimension `dim` with `n` random distinct
    /// members — every ID when `n` is `d·2^d`.
    ///
    /// # Panics
    ///
    /// Panics if the dimension is unsupported or `n` exceeds `d·2^d`.
    pub fn populate(dim: u8, n: usize, rng: &mut SimRng) -> Self {
        let space = CycloidSpace::new(dim);
        assert!(
            n as u64 <= space.ring_size(),
            "id space too small for the population"
        );
        let mut registry = CycloidRegistry::new(space);
        while registry.len() < n {
            if let Some(id) = registry.random_vacant(rng) {
                registry.insert(id);
            }
        }
        CycloidGeometry::over(registry)
    }

    /// Builds an overlay of dimension `dim` on the ring positions
    /// `members`, in any order, duplicates collapsed.
    ///
    /// # Panics
    ///
    /// Panics if the dimension is unsupported or a member is off the
    /// ring.
    pub fn from_members(dim: u8, members: &[u64]) -> Self {
        let space = CycloidSpace::new(dim);
        let mut registry = CycloidRegistry::new(space);
        for &lin in members {
            registry.insert(space.from_lin(lin));
        }
        CycloidGeometry::over(registry)
    }

    fn over(registry: CycloidRegistry) -> Self {
        let space = registry.space();
        let mut by_region: Vec<u64> = registry.iter().map(|id| space.lin(id)).collect();
        by_region.sort_unstable_by_key(|&lin| space.k_major(space.from_lin(lin)));
        CycloidGeometry {
            registry,
            by_region,
        }
    }

    /// The underlying ID space.
    pub fn space(&self) -> CycloidSpace {
        self.registry.space()
    }

    fn id(&self, lin: u64) -> CycloidId {
        self.space().from_lin(lin)
    }

    /// The members of `region`, in cubical order: one run of
    /// `by_region`.
    fn region(&self, region: CycloidRegion) -> ArcMembers<'_> {
        let space = self.space();
        let bits = space.k_major_range(region);
        let key = |&lin: &u64| space.k_major(space.from_lin(lin));
        let lo = self.by_region.partition_point(|lin| key(lin) < bits.start);
        let hi = self.by_region.partition_point(|lin| key(lin) < bits.end);
        ArcMembers::from(&self.by_region[lo..hi.max(lo)])
    }

    /// `id`'s leaf set: its successor window, then the predecessors not
    /// already in it.
    fn leaf_set(&self, id: CycloidId) -> Vec<u64> {
        let space = self.space();
        let mut leaf: Vec<u64> = self
            .registry
            .succ_window(id, LEAF_WINDOW)
            .map(|m| space.lin(m))
            .collect();
        for pred in self.registry.pred_window(id, LEAF_WINDOW) {
            let pred = space.lin(pred);
            if !leaf.contains(&pred) {
                leaf.push(pred);
            }
        }
        leaf
    }

    /// The ring walk from `me` toward `owner` over every link of the
    /// table and the fresh leaf set, keeping the non-overshooting ones
    /// in `ids`, which it clears first.
    fn ring_candidates(
        &self,
        me: CycloidId,
        owner: CycloidId,
        table: &ElasticTable<u16, u64>,
        ids: &mut Vec<u64>,
    ) -> HopCandidates {
        let space = self.space();
        let stride = space.ring_stride(me, owner);
        let leaf = self.leaf_set(me);
        let links = table.iter_outlinks().filter(|&(slot, _)| slot != LEAF_SLOT);
        ids.clear();
        for x in links.map(|(_, x)| x).chain(leaf.iter().copied()) {
            if stride.admits(self.id(x)) && !ids.contains(&x) {
                ids.push(x);
            }
        }
        // The leaf set holds the nearest member on the stride's side.
        debug_assert!(!ids.is_empty(), "no ring step from {me} toward {owner}");
        let refreshed = (table.outlinks(LEAF_SLOT) != leaf.as_slice()).then_some(leaf);
        HopCandidates {
            slot: LEAF_SLOT,
            refreshed,
        }
    }
}

impl Geometry for CycloidGeometry {
    fn name(&self) -> &'static str {
        "Cycloid"
    }

    fn members(&self) -> Vec<u64> {
        let space = self.space();
        self.registry.iter().map(|id| space.lin(id)).collect()
    }

    fn owner(&self, key: u64) -> Option<u64> {
        let space = self.space();
        let key = (key < space.ring_size()).then(|| space.from_lin(key))?;
        self.registry.owner(key).map(|id| space.lin(id))
    }

    fn random_key(&self, rng: &mut SimRng) -> u64 {
        let space = self.space();
        space.lin(space.random_id(rng))
    }

    fn region_slots(&self, node: u64) -> impl Iterator<Item = (u16, ArcMembers<'_>)> + '_ {
        // Both regions sit one cyclic index below `node`.
        let (space, id) = (self.space(), self.id(node));
        [
            (CUBICAL_SLOT, space.cubical_region(id)),
            (CYCLIC_SLOT, space.cyclic_region(id)),
        ]
        .into_iter()
        .filter_map(move |(slot, region)| Some((slot, self.region(region?))))
        .filter(|(_, members)| !members.is_empty())
    }

    fn sentinel_slot(&self, node: u64) -> (u16, Vec<u64>) {
        (LEAF_SLOT, self.leaf_set(self.id(node)))
    }

    fn inlink_candidates(
        &self,
        node: u64,
        after: Option<(u16, u64)>,
    ) -> impl Iterator<Item = (u16, u64)> + '_ {
        // Algorithm 1's two region phases (a ring window of 0). The
        // membership is fixed, so resuming re-scans past the last pair.
        let (space, id) = (self.space(), self.id(node));
        let mut scan = self
            .registry
            .inlink_scan(id, 0, InlinkCursor::Start)
            .filter_map(move |(kind, holder)| Some((slot_of(kind?), space.lin(holder))));
        if let Some(last) = after {
            scan.find(|&pair| pair == last);
        }
        scan
    }

    fn is_structural(&self, slot: u16) -> bool {
        !matches!(slot, CUBICAL_SLOT | CYCLIC_SLOT)
    }

    fn classic_pick(&self, node: u64, slot: u16, members: ArcMembers<'_>) -> Option<u64> {
        let (space, id) = (self.space(), self.id(node));
        let mut members = members.iter().map(|m| self.id(m));
        let pick = match slot {
            CUBICAL_SLOT => {
                space.nearest_cubical(members, space.classic_target(id, SlotKind::Cubical))
            }
            CYCLIC_SLOT => space.cyclic_pair(members, id.a()).map(|(larger, _)| larger),
            // The leaf set's nearest successor.
            _ => members.next(),
        };
        pick.map(|m| space.lin(m))
    }

    fn hop_candidates(
        &self,
        cur: u64,
        owner: u64,
        table: &ElasticTable<u16, u64>,
        numeric_mode: &mut bool,
        ids: &mut Vec<u64>,
    ) -> HopCandidates {
        let (space, me, owner) = (self.space(), self.id(cur), self.id(owner));
        // Route toward the owner's ID, which is robust when the key's own
        // cycle is empty.
        if !*numeric_mode && !space.ring_endgame(me, owner) {
            ids.clear();
            let slot = match space.route_step(me, owner) {
                RouteStep::Entry(kind) => {
                    ids.extend_from_slice(table.outlinks(slot_of(kind)));
                    slot_of(kind)
                }
                RouteStep::Ascend => {
                    let up = self.registry.ascend_targets(me);
                    ids.extend(up.map(|m| space.lin(m)));
                    ASCEND_SLOT
                }
                RouteStep::Ring => LEAF_SLOT,
            };
            if !ids.is_empty() {
                let refreshed = None;
                return HopCandidates { slot, refreshed };
            }
        }
        // The endgame, an empty slot, or nothing to ascend to: finish on
        // the monotone ring walk and stay there — in a sparse overlay a
        // retried geometric phase can oscillate around empty cycles.
        *numeric_mode = true;
        self.ring_candidates(me, owner, table, ids)
    }

    fn metric(&self, from: u64, owner: u64) -> u64 {
        self.space().logical_metric(self.id(from), self.id(owner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErtNode, MiniDhtConfig, MiniProtocol, PeerAnswer};
    use ert_core::drive;
    use rand::Rng;
    use std::collections::BTreeMap;

    /// Every member's node after its table build on `g`, in member
    /// order, under `protocol`.
    fn built(g: &CycloidGeometry, cfg: &MiniDhtConfig, protocol: MiniProtocol) -> Vec<ErtNode> {
        let mut nodes: BTreeMap<u64, ErtNode> = g
            .members()
            .into_iter()
            .map(|id| (id, ErtNode::new(id, 12, protocol)))
            .collect();
        for id in g.members() {
            let mut me = nodes.remove(&id).unwrap();
            let build = me.build(g, cfg);
            drive(&mut me, build, |peer, op| match nodes.get_mut(&peer) {
                Some(p) => PeerAnswer::Report(p.serve(op)),
                None => PeerAnswer::Unknown,
            });
            nodes.insert(id, me);
        }
        nodes.into_values().collect()
    }

    /// From every node toward every owner, under both protocols' tables:
    /// repeated `hop_candidates`, taking a random candidate each time,
    /// reaches the owner within `max_hops` and never leaves
    /// `numeric_mode` once it is set.
    fn assert_walks_reach_every_owner(g: &CycloidGeometry) {
        let dim = g.space().dim();
        let cfg = MiniDhtConfig::defaults(dim, 1);
        let members = g.members();
        let (mut rng, mut ids) = (SimRng::seed_from(u64::from(dim)), Vec::new());
        for protocol in [MiniProtocol::Classic, MiniProtocol::ElasticErt] {
            let nodes = built(g, &cfg, protocol);
            let index: BTreeMap<u64, &ErtNode> = nodes.iter().map(|n| (n.id(), n)).collect();
            for &start in &members {
                for &owner in &members {
                    let (mut cur, mut numeric, mut hops) = (start, false, 0);
                    while cur != owner {
                        assert!(hops < cfg.max_hops, "{start} → {owner}: stuck at {cur}");
                        let was = numeric;
                        let table = index[&cur].table();
                        g.hop_candidates(cur, owner, table, &mut numeric, &mut ids);
                        assert!(numeric || !was, "{start} → {owner}: left numeric mode");
                        cur = ids[rng.gen_range(0..ids.len())];
                        hops += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn walks_reach_the_owner_on_a_full_cycloid() {
        let g = CycloidGeometry::from_members(5, &(0..160).collect::<Vec<u64>>());
        assert_eq!(g.members().len(), 160);
        assert_walks_reach_every_owner(&g);
    }

    #[test]
    fn walks_reach_the_owner_on_a_sparse_cycloid_with_empty_cycles() {
        let g = CycloidGeometry::populate(5, 40, &mut SimRng::seed_from(4));
        let empty = (0..32).filter(|&a| g.registry.cycle_head(a).is_none());
        assert!(empty.count() > 4, "too few empty cycles");
        assert_walks_reach_every_owner(&g);
    }

    #[test]
    fn regions_are_runs_of_the_region_order() {
        let g = CycloidGeometry::populate(6, 150, &mut SimRng::seed_from(5));
        let space = g.space();
        for node in g.members() {
            let id = g.id(node);
            let want = [space.cubical_region(id), space.cyclic_region(id)]
                .into_iter()
                .flatten()
                .map(|r| g.registry.nodes_in_region(r))
                .map(|m| m.into_iter().map(|m| space.lin(m)).collect::<Vec<u64>>());
            let got = g.region_slots(node).map(|(_, m)| m.to_vec());
            assert!(got.eq(want.filter(|m| !m.is_empty())), "node {node}");
        }
    }

    #[test]
    fn the_leaf_set_is_the_sentinel_and_deduplicated() {
        let g = CycloidGeometry::from_members(3, &[0, 5, 9, 17]);
        let (slot, leaf) = g.sentinel_slot(5);
        assert!(g.is_structural(slot) && slot == LEAF_SLOT);
        assert_eq!(leaf, [9, 17, 0]);
        assert!(!g.is_structural(CUBICAL_SLOT) && !g.is_structural(CYCLIC_SLOT));
    }
}
