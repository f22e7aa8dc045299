//! Pastry geometry for the mini platform.
//!
//! Pastry is the natural host for elastic tables: every cell of its
//! table is *already* a region ("each entry has multiple choices",
//! Section 3.2), so no loosening is needed. Slots are encoded
//! `row · base + col`; the leaf set is a sentinel slot. The deepest
//! rows address regions of one or `base` IDs and are treated as
//! structural, like Chord's short fingers.

use ert_core::{ElasticTable, Geometry, HopCandidates};
use ert_overlay::{ring::shortest_distance, ArcMembers, PastryRegistry, PastrySpace};
use ert_sim::SimRng;

/// The slot holding the leaf set.
const LEAF_SLOT: u16 = u16::MAX;

/// Leaf-set size used for the numeric endgame.
const LEAF_WINDOW: usize = 8;

/// Algorithm 1's walk over the holders that may take `node` as a
/// row entry, on Pastry ([`Geometry::inlink_candidates`]): row by row
/// from the deepest negotiable one up to row 0, each row's cell of
/// `node`'s digit, its reverse spans in column order, each span's
/// members ascending from `floor`, `node` itself passed over.
///
/// A plain loop over one slice run of the membership at a time,
/// rather than an iterator chain, so that `next` inlines into the
/// caller whole and a pulled pair comes back in registers.
struct PastryInlinks<'a> {
    geometry: &'a PastryGeometry,
    node: u64,
    /// The row being walked, and the slot `node` takes in it.
    row: u8,
    slot: u16,
    /// The least id the row's spans yield (past a resumed walk's last).
    floor: u64,
    /// The next column whose reverse span the row walks.
    col: u64,
    /// The members of the current span not walked yet.
    run: std::slice::Iter<'a, u64>,
}

impl PastryInlinks<'_> {
    /// Starts walking `row` from its first column, or past its last
    /// if the row is structural.
    fn enter(&mut self, row: u8) {
        let g = self.geometry;
        self.row = row;
        self.slot = g.encode(row, g.space.digit(self.node, row));
        self.floor = 0;
        self.col = if g.is_structural(self.slot) {
            g.space.base()
        } else {
            0
        };
    }

    /// Moves to the next non-empty reverse span of the row; `false` when
    /// the row has none left.
    fn next_span(&mut self) -> bool {
        let g = self.geometry;
        while self.col < g.space.base() {
            let col = self.col;
            self.col += 1;
            if let Some((lo, hi)) = g.space.row_region(self.node, self.row, col) {
                self.run = g.registry.span(lo.max(self.floor), hi).iter();
                return true;
            }
        }
        false
    }
}

impl Iterator for PastryInlinks<'_> {
    type Item = (u16, u64);

    #[inline]
    fn next(&mut self) -> Option<(u16, u64)> {
        loop {
            for &holder in self.run.by_ref() {
                if holder != self.node {
                    return Some((self.slot, holder));
                }
            }
            if !self.next_span() {
                if self.row == 0 {
                    return None;
                }
                self.enter(self.row - 1);
            }
        }
    }
}

/// The prefix-routing Pastry overlay (see [`PastrySpace`]).
#[derive(Debug, Clone)]
pub struct PastryGeometry {
    space: PastrySpace,
    registry: PastryRegistry,
}

impl PastryGeometry {
    /// Builds an overlay of `n` random distinct members with `rows`
    /// digits of `bits_per_digit` bits.
    ///
    /// # Panics
    ///
    /// Panics if the population exceeds half the ID space.
    pub fn populate(rows: u8, bits_per_digit: u8, n: usize, rng: &mut SimRng) -> Self {
        let space = PastrySpace::new(rows, bits_per_digit);
        assert!(
            n as u64 <= space.ring_size() / 2,
            "id space too small for the population"
        );
        let mut registry = PastryRegistry::new(space);
        while registry.len() < n {
            registry.insert(space.random_id(rng));
        }
        PastryGeometry { space, registry }
    }

    /// The underlying ID space.
    pub fn space(&self) -> PastrySpace {
        self.space
    }

    fn encode(&self, row: u8, col: u64) -> u16 {
        row as u16 * self.space.base() as u16 + col as u16
    }

    fn row_of(&self, slot: u16) -> u8 {
        (slot / self.space.base() as u16) as u8
    }
}

impl Geometry for PastryGeometry {
    fn name(&self) -> &'static str {
        "Pastry"
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
        // A cell's region differs from `node` at digit `row`.
        (0..self.space.rows())
            .flat_map(move |row| (0..self.space.base()).map(move |col| (row, col)))
            .filter_map(move |(row, col)| {
                let (lo, hi) = self.space.row_region(node, row, col)?;
                let members = ArcMembers::from(self.registry.span(lo, hi));
                Some((self.encode(row, col), members))
            })
            .filter(|(_, members)| !members.is_empty())
    }

    fn sentinel_slot(&self, node: u64) -> (u16, Vec<u64>) {
        (LEAF_SLOT, self.registry.leaf_set(node, LEAF_WINDOW))
    }

    fn inlink_candidates(
        &self,
        node: u64,
        after: Option<(u16, u64)>,
    ) -> impl Iterator<Item = (u16, u64)> + '_ {
        // Deep rows are scarcer, but the deepest are structural: probe
        // from the deepest negotiable row upward. A row's spans ascend
        // in ID, so a resumed walk drops everything up to the last
        // candidate it saw in the row it stopped in.
        let top = after.map_or(self.space.rows() - 1, |(slot, _)| self.row_of(slot));
        let mut walk = PastryInlinks {
            geometry: self,
            node,
            row: top,
            slot: 0,
            floor: 0,
            col: 0,
            run: [].iter(),
        };
        walk.enter(top);
        if let Some((_, last)) = after.filter(|&(slot, _)| slot == walk.slot) {
            walk.floor = last + 1;
        }
        walk
    }

    fn is_structural(&self, slot: u16) -> bool {
        if slot == LEAF_SLOT {
            return true;
        }
        // Regions of size <= base (the last two rows) are structural.
        self.row_of(slot) + 2 >= self.space.rows()
    }

    fn classic_pick(&self, node: u64, slot: u16, members: ArcMembers<'_>) -> Option<u64> {
        if members.is_empty() {
            return None;
        }
        // Real Pastry fills a cell with whichever matching node it
        // discovered first / is closest on the network, which differs
        // per node. Model that diversity with a per-(node, slot)
        // deterministic pseudo-random pick; `members.first()` would
        // funnel every same-prefix node onto one neighbor.
        let h = (node ^ ((slot as u64) << 48))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(31);
        members.get((h % members.len() as u64) as usize)
    }

    fn hop_candidates(
        &self,
        cur: u64,
        owner: u64,
        table: &ElasticTable<u16, u64>,
        numeric_mode: &mut bool,
        ids: &mut Vec<u64>,
    ) -> HopCandidates {
        ids.clear();
        if !*numeric_mode {
            if let Some((row, col)) = self.space.route_cell(cur, owner) {
                let slot = self.encode(row, col);
                ids.extend_from_slice(table.outlinks(slot));
                if !ids.is_empty() {
                    return HopCandidates {
                        slot,
                        refreshed: None,
                    };
                }
            }
            // Empty cell (or no differing digit): commit to the numeric
            // endgame — retrying the prefix phase from a numerically
            // closer node could oscillate.
            *numeric_mode = true;
        }
        let size = self.space.ring_size();
        let my_dist = shortest_distance(cur, owner, size);
        let leafs = self.registry.leaf_set(cur, LEAF_WINDOW);
        let closer = |&c: &u64| shortest_distance(c, owner, size) < my_dist;
        ids.extend(leafs.iter().copied().chain([owner]).filter(closer));
        if ids.is_empty() {
            ids.push(owner);
        }
        HopCandidates {
            slot: LEAF_SLOT,
            refreshed: Some(leafs),
        }
    }

    fn metric(&self, from: u64, owner: u64) -> u64 {
        let lcp = self.space.shared_prefix_len(from, owner) as u64;
        let rows = self.space.rows() as u64;
        (rows - lcp.min(rows)) * self.space.ring_size()
            + shortest_distance(from, owner, self.space.ring_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> PastryGeometry {
        PastryGeometry::populate(6, 2, 150, &mut SimRng::seed_from(3))
    }

    #[test]
    fn populate_and_slots() {
        let g = geometry();
        assert_eq!(g.members().len(), 150);
        let node = g.members()[0];
        let slots = g.table_slots(node);
        assert!(slots.iter().any(|(s, _)| *s == LEAF_SLOT));
        // Row-0 cells cover a quarter of the space each: all three
        // foreign columns should be populated.
        let row0 = slots.iter().filter(|(s, _)| g.row_of(*s) == 0).count();
        assert_eq!(row0, 3);
    }

    #[test]
    fn deep_rows_are_structural() {
        let g = geometry();
        assert!(g.is_structural(g.encode(5, 1)));
        assert!(g.is_structural(g.encode(4, 2)));
        assert!(!g.is_structural(g.encode(3, 0)));
        assert!(g.is_structural(LEAF_SLOT));
    }

    #[test]
    fn inlink_candidates_carry_my_digit_slot() {
        let g = geometry();
        let node = g.members()[10];
        for (slot, cand) in g.inlink_candidates(node, None) {
            let row = g.row_of(slot);
            let col = (slot % g.space.base() as u16) as u64;
            assert_eq!(
                col,
                g.space.digit(node, row),
                "slot col must be node's digit"
            );
            // The candidate shares the first `row` digits and differs at
            // `row`.
            assert_eq!(g.space.shared_prefix_len(node, cand), row);
        }
    }

    #[test]
    fn metric_prefers_longer_prefix_then_distance() {
        let g = geometry();
        let owner = g.members()[0];
        let same = owner;
        assert_eq!(g.metric(same, owner), 0);
        // A node sharing more digits scores lower than one sharing none.
        let members = g.members();
        let close = members
            .iter()
            .copied()
            .filter(|&m| m != owner)
            .max_by_key(|&m| g.space.shared_prefix_len(m, owner))
            .unwrap();
        let far = members
            .iter()
            .copied()
            .filter(|&m| m != owner)
            .min_by_key(|&m| g.space.shared_prefix_len(m, owner))
            .unwrap();
        if g.space.shared_prefix_len(close, owner) > g.space.shared_prefix_len(far, owner) {
            assert!(g.metric(close, owner) < g.metric(far, owner));
        }
    }

    #[test]
    fn numeric_mode_is_sticky_and_progresses() {
        let g = geometry();
        let members = g.members();
        let cur = members[5];
        let owner = g.owner(12345 % g.space().ring_size()).unwrap();
        if owner == cur {
            return;
        }
        let table = ElasticTable::new(); // empty: forces numeric mode
        let (mut numeric, mut ids) = (false, Vec::new());
        g.hop_candidates(cur, owner, &table, &mut numeric, &mut ids);
        assert!(numeric, "empty prefix cell must commit to numeric mode");
        for id in ids {
            assert!(
                shortest_distance(id, owner, g.space().ring_size())
                    < shortest_distance(cur, owner, g.space().ring_size())
                    || id == owner
            );
        }
    }
}
