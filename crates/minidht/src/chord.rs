//! Chord geometry for the mini platform.

use ert_core::{ElasticTable, Geometry, HopCandidates};
use ert_overlay::{ring::forward_distance, ArcMembers, ChordRegistry, ChordSpace, RingRange};
use ert_sim::SimRng;

/// The slot holding the successor list.
const SUCC_SLOT: u16 = u16::MAX;

/// Fingers up to this index have loose-restriction windows of one or
/// two IDs — effectively structural, like the successor list.
const STRUCTURAL_MAX_FINGER: u16 = 2;

/// The shortest finger that is not structural: the last one
/// Algorithm 1 walks.
const FIRST_ELASTIC_FINGER: u8 = STRUCTURAL_MAX_FINGER as u8 + 1;

/// Algorithm 1's walk over the holders that may take `node` as a
/// finger, on Chord ([`Geometry::inlink_candidates`]): finger by
/// finger from the longest down to [`FIRST_ELASTIC_FINGER`], each
/// finger's reverse region clockwise, `node` itself passed over.
///
/// A plain loop over two slice runs of the membership per region,
/// rather than an iterator chain, so that `next` inlines into the
/// caller whole and a pulled pair comes back in registers.
struct ChordInlinks<'a> {
    space: ChordSpace,
    registry: &'a ChordRegistry,
    node: u64,
    /// The finger whose reverse region is being walked.
    finger: u8,
    /// The region's members not walked yet: this run, then `tail`.
    run: std::slice::Iter<'a, u64>,
    tail: &'a [u64],
}

impl ChordInlinks<'_> {
    /// Starts walking `region`, the rest of the current finger's.
    fn enter(&mut self, region: RingRange) {
        let (head, tail) = self.registry.arc(region).runs();
        self.run = head.iter();
        self.tail = tail;
    }
}

impl Iterator for ChordInlinks<'_> {
    type Item = (u16, u64);

    #[inline]
    fn next(&mut self) -> Option<(u16, u64)> {
        loop {
            for &holder in self.run.by_ref() {
                if holder != self.node {
                    return Some((u16::from(self.finger), holder));
                }
            }
            if !self.tail.is_empty() {
                self.run = std::mem::take(&mut self.tail).iter();
            } else if self.finger > FIRST_ELASTIC_FINGER {
                self.finger -= 1;
                let region = self.space.reverse_finger_region(self.node, self.finger);
                self.enter(region);
            } else {
                return None;
            }
        }
    }
}

/// The loose-finger Chord ring (see [`ChordSpace`]): finger `m`'s slot
/// is `m` itself; the successor list is a sentinel slot.
#[derive(Debug, Clone)]
pub struct ChordGeometry {
    space: ChordSpace,
    registry: ChordRegistry,
    succ_list: usize,
}

impl ChordGeometry {
    /// Builds a ring of `n` random distinct members on `2^bits` IDs.
    ///
    /// # Panics
    ///
    /// Panics if the population exceeds half the ring.
    pub fn populate(bits: u8, n: usize, rng: &mut SimRng) -> Self {
        let mut g = ChordGeometry::from_members(bits, &[]);
        assert!(
            n as u64 <= g.space.ring_size() / 2,
            "ring too small for the population"
        );
        while g.registry.len() < n {
            g.insert(g.space.random_id(rng));
        }
        g
    }

    /// Builds a ring from a member list in any order, duplicates
    /// collapsed, in one bulk pass. A live wire node starts its view
    /// this way and keeps it current with `insert` and `remove`.
    ///
    /// # Panics
    ///
    /// Panics if a member is outside the `2^bits` ring.
    pub fn from_members(bits: u8, members: &[u64]) -> Self {
        let space = ChordSpace::new(bits);
        ChordGeometry {
            space,
            registry: ChordRegistry::from_ids(space, members.iter().copied()),
            succ_list: 4,
        }
    }

    /// Adds member `id`; returns `false` if it was already present.
    /// Panics if `id` is outside the ring.
    pub fn insert(&mut self, id: u64) -> bool {
        self.registry.insert(id)
    }

    /// Adds every member of `ids` not yet present, in one merge;
    /// returns whether any was new. Panics if an id is outside the ring.
    pub fn extend(&mut self, ids: &[u64]) -> bool {
        self.registry.extend(ids)
    }

    /// Removes member `id`; returns `false` if it was absent.
    pub fn remove(&mut self, id: u64) -> bool {
        self.registry.remove(id)
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: u64) -> bool {
        self.registry.contains(id)
    }

    /// The underlying ID space.
    pub fn space(&self) -> ChordSpace {
        self.space
    }

    /// The ring successor strictly after `id` (wrapping), if any.
    pub fn successor(&self, id: u64) -> Option<u64> {
        self.registry.successor(id)
    }

    /// Whether `slot` is a slot of a table on this ring: a finger
    /// below the ring's bit width, or the successor list.
    pub fn is_slot(&self, slot: u16) -> bool {
        slot < u16::from(self.space.bits()) || slot == SUCC_SLOT
    }

    /// The successor window used for the sentinel slot.
    pub fn succ_window(&self, id: u64) -> Vec<u64> {
        self.registry.succ_window(id, self.succ_list)
    }
}

impl Geometry for ChordGeometry {
    fn name(&self) -> &'static str {
        "Chord"
    }

    fn members(&self) -> Vec<u64> {
        self.registry.iter().collect()
    }

    fn owner(&self, key: u64) -> Option<u64> {
        self.registry.owner(key)
    }

    fn random_key(&self, rng: &mut SimRng) -> u64 {
        self.space.random_id(rng)
    }

    fn region_slots(&self, node: u64) -> impl Iterator<Item = (u16, ArcMembers<'_>)> + '_ {
        // Finger `m`'s region ends 2^m + w_m ≤ 2^m + 2^(m−1) past
        // `node`, short of the ring's length: it never wraps round to
        // `node`.
        (0..self.space.bits())
            .map(move |m| {
                (
                    m as u16,
                    self.registry.arc(self.space.finger_region(node, m)),
                )
            })
            .filter(|(_, members)| !members.is_empty())
    }

    fn sentinel_slot(&self, node: u64) -> (u16, Vec<u64>) {
        (SUCC_SLOT, self.registry.succ_window(node, self.succ_list))
    }

    fn inlink_candidates(
        &self,
        node: u64,
        after: Option<(u16, u64)>,
    ) -> impl Iterator<Item = (u16, u64)> + '_ {
        // Long fingers first: they are the scarcest inlinks. A resumed
        // walk starts inside the finger it stopped in.
        let top = after.map_or(self.space.bits() - 1, |(slot, _)| slot as u8);
        let mut walk = ChordInlinks {
            space: self.space,
            registry: &self.registry,
            node,
            finger: top,
            run: [].iter(),
            tail: &[],
        };
        if top >= FIRST_ELASTIC_FINGER {
            let region = self.space.reverse_finger_region(node, top);
            walk.enter(after.map_or(region, |(_, last)| region.after(last)));
        }
        walk
    }

    fn is_structural(&self, slot: u16) -> bool {
        slot <= STRUCTURAL_MAX_FINGER || slot == SUCC_SLOT
    }

    fn classic_pick(&self, node: u64, _slot: u16, members: ArcMembers<'_>) -> Option<u64> {
        // Classic Chord: the first node at or after the finger start —
        // the region members come in clockwise order from the start.
        members.iter().find(|&c| c != node)
    }

    fn hop_candidates(
        &self,
        cur: u64,
        owner: u64,
        table: &ElasticTable<u16, u64>,
        _numeric_mode: &mut bool,
        ids: &mut Vec<u64>,
    ) -> HopCandidates {
        let size = self.space.ring_size();
        let budget = forward_distance(cur, owner, size);
        let in_budget = |&c: &u64| {
            let d = forward_distance(cur, c, size);
            d > 0 && d <= budget
        };
        let mut m = self.space.best_finger(cur, owner).unwrap_or(0) as u16;
        loop {
            ids.clear();
            ids.extend(table.outlinks(m).iter().copied().filter(in_budget));
            if !ids.is_empty() {
                return HopCandidates {
                    slot: m,
                    refreshed: None,
                };
            }
            if m == 0 {
                break;
            }
            m -= 1;
        }
        // Refresh and use the successor list; the owner is live and
        // ahead, so the nearest successors always qualify.
        let succ = self.registry.succ_window(cur, self.succ_list);
        ids.extend(succ.iter().copied().filter(in_budget));
        if ids.is_empty() {
            ids.push(owner);
        }
        HopCandidates {
            slot: SUCC_SLOT,
            refreshed: Some(succ),
        }
    }

    fn metric(&self, from: u64, owner: u64) -> u64 {
        forward_distance(from, owner, self.space.ring_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> ChordGeometry {
        ChordGeometry::populate(10, 150, &mut SimRng::seed_from(1))
    }

    #[test]
    fn populate_builds_distinct_members() {
        let g = geometry();
        let members = g.members();
        assert_eq!(members.len(), 150);
        let mut sorted = members.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 150);
    }

    #[test]
    fn structural_slots_are_short_fingers_and_successors() {
        let g = geometry();
        assert!(g.is_structural(0));
        assert!(g.is_structural(2));
        assert!(!g.is_structural(3));
        assert!(g.is_structural(SUCC_SLOT));
    }

    #[test]
    fn inlink_candidates_skip_structural_fingers() {
        let g = geometry();
        let node = g.members()[0];
        assert!(g
            .inlink_candidates(node, None)
            .all(|(slot, _)| slot > STRUCTURAL_MAX_FINGER));
    }

    #[test]
    fn hop_candidates_progress_toward_owner() {
        let g = geometry();
        let members = g.members();
        let cur = members[3];
        let key = 777 % g.space().ring_size();
        let owner = g.owner(key).unwrap();
        if owner == cur {
            return;
        }
        // Even with an empty table the successor fallback progresses.
        let table = ElasticTable::new();
        let (mut numeric, mut ids) = (false, Vec::new());
        g.hop_candidates(cur, owner, &table, &mut numeric, &mut ids);
        assert!(!ids.is_empty());
        for id in ids {
            assert!(g.metric(id, owner) < g.metric(cur, owner));
        }
    }

    #[test]
    #[should_panic(expected = "ring too small")]
    fn overfull_ring_rejected() {
        let _ = ChordGeometry::populate(4, 10, &mut SimRng::seed_from(2));
    }
}
