//! The Chord overlay with the paper's "loose restriction" on fingers.
//!
//! Classic Chord fixes the `(m+1)`-th finger of node `x` to *the*
//! successor of `x + 2^m`. Section 3.2 of the paper loosens this: the
//! finger may be any of a small set of successors following that point,
//! which turns every finger slot into a *region* of legal neighbors and
//! gives the elastic table room to choose by capacity.
//!
//! The window matches the paper's worked example: the `(m+1)`-th finger
//! region of node `x` is `[x + 2^m, x + 2^m + w_m)` with
//! `w_m = max(1, 2^{m−1})` — so node `1010_1011` may be taken as a 4th
//! finger (`m = 3`) exactly by the nodes in `[1010_0000, 1010_0011]`.

use rand::Rng;

use crate::members::{ArcMembers, RingMembers};
use crate::ring::{forward_distance, RingRange};

/// The Chord identifier space `0 .. 2^bits`.
///
/// ```
/// use ert_overlay::ChordSpace;
/// let space = ChordSpace::new(8);
/// // Paper example: who may take node 1010_1011 as their 4th finger?
/// let rev = space.reverse_finger_region(0b1010_1011, 3);
/// assert_eq!(rev.start(), 0b1010_0000);
/// assert!(rev.contains(0b1010_0011));
/// assert!(!rev.contains(0b1010_0100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChordSpace {
    bits: u8,
}

impl ChordSpace {
    /// Creates a space with `bits`-bit identifiers.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 62`.
    pub fn new(bits: u8) -> Self {
        assert!((2..=62).contains(&bits), "unsupported Chord bits: {bits}");
        ChordSpace { bits }
    }

    /// Number of identifier bits (and of finger slots per node).
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// Ring size `2^bits`.
    pub fn ring_size(self) -> u64 {
        1u64 << self.bits
    }

    /// Draws a uniformly random ID.
    pub fn random_id<R: Rng>(self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.ring_size())
    }

    fn window(self, m: u8) -> u64 {
        if m == 0 {
            1
        } else {
            1u64 << (m - 1)
        }
    }

    /// Region of legal `(m+1)`-th fingers of `node`:
    /// `[node + 2^m, node + 2^m + w_m)`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= bits` or `node` is outside the ring.
    pub fn finger_region(self, node: u64, m: u8) -> RingRange {
        assert!(m < self.bits, "finger index {m} out of range");
        assert!(node < self.ring_size(), "id out of range");
        RingRange::new(
            node.wrapping_add(1 << m) % self.ring_size(),
            self.window(m),
            self.ring_size(),
        )
    }

    /// Region of nodes that may take `node` as their `(m+1)`-th finger —
    /// the IDs Algorithm 2 probes on Chord.
    pub fn reverse_finger_region(self, node: u64, m: u8) -> RingRange {
        assert!(m < self.bits, "finger index {m} out of range");
        assert!(node < self.ring_size(), "id out of range");
        let size = self.ring_size();
        let w = self.window(m);
        let start = (node + size - (1u64 << m) - w + 1) % size;
        RingRange::new(start, w, size)
    }

    /// The finger index greedy Chord routing would use from `cur` toward
    /// `key`: the MSB of the clockwise distance. `None` when `cur == key`.
    pub fn best_finger(self, cur: u64, key: u64) -> Option<u8> {
        let dist = forward_distance(cur, key, self.ring_size());
        if dist == 0 {
            None
        } else {
            Some((63 - dist.leading_zeros()) as u8)
        }
    }
}

/// The set of live Chord IDs, kept as one sorted slice
/// ([`RingMembers`]).
///
/// ```
/// use ert_overlay::{ChordRegistry, ChordSpace};
/// let space = ChordSpace::new(6);
/// let mut reg = ChordRegistry::new(space);
/// reg.insert(10);
/// reg.insert(50);
/// assert_eq!(reg.owner(11), Some(50));
/// assert_eq!(reg.owner(51), Some(10)); // wraps
/// ```
#[derive(Debug, Clone)]
pub struct ChordRegistry {
    space: ChordSpace,
    members: RingMembers,
}

impl ChordRegistry {
    /// Creates an empty registry over `space`.
    pub fn new(space: ChordSpace) -> Self {
        Self::from_ids(space, [])
    }

    /// A registry of `ids` in any order, duplicates collapsed, built in
    /// one sort rather than one insert per id.
    ///
    /// # Panics
    ///
    /// Panics if an id is outside the ring, as [`ChordRegistry::insert`].
    pub fn from_ids(space: ChordSpace, ids: impl IntoIterator<Item = u64>) -> Self {
        let size = space.ring_size();
        let in_range = |&id: &u64| assert!(id < size, "id out of range");
        let members = RingMembers::from_ids(ids.into_iter().inspect(in_range));
        ChordRegistry { space, members }
    }

    /// The underlying ID space.
    pub fn space(&self) -> ChordSpace {
        self.space
    }

    /// Adds `id`; returns `false` if already present.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the ring.
    pub fn insert(&mut self, id: u64) -> bool {
        assert!(id < self.space.ring_size(), "id out of range");
        self.members.insert(id)
    }

    /// Adds every id of `ids` not yet present, in one merge; returns
    /// whether any was new.
    ///
    /// # Panics
    ///
    /// Panics if an id is outside the ring, as [`ChordRegistry::insert`].
    pub fn extend(&mut self, ids: &[u64]) -> bool {
        let size = self.space.ring_size();
        assert!(ids.iter().all(|&id| id < size), "id out of range");
        self.members.extend(ids)
    }

    /// Removes `id`; returns `false` if absent.
    pub fn remove(&mut self, id: u64) -> bool {
        self.members.remove(id)
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.members.contains(id)
    }

    /// Number of live IDs.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterates live IDs in ring order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.members.iter()
    }

    /// First live ID at or after `key` (wrapping): the key's owner.
    pub fn owner(&self, key: u64) -> Option<u64> {
        self.members.at_or_after(key)
    }

    /// First live ID strictly after `id` (wrapping). Returns `id` when it
    /// is the only member.
    pub fn successor(&self, id: u64) -> Option<u64> {
        self.members.after(id)
    }

    /// First live ID strictly before `id` (wrapping). Returns `id` when
    /// it is the only member.
    pub fn predecessor(&self, id: u64) -> Option<u64> {
        self.members.before(id)
    }

    /// Live members of an arc, in clockwise order from its start,
    /// borrowed: at most two runs of the sorted membership.
    pub fn arc(&self, arc: RingRange) -> ArcMembers<'_> {
        self.members.arc(arc)
    }

    /// Live members of an arc, in clockwise order from its start.
    pub fn nodes_in(&self, arc: RingRange) -> Vec<u64> {
        self.arc(arc).to_vec()
    }

    /// The next `window` live IDs strictly after `id` (wrapping).
    pub fn succ_window(&self, id: u64, window: usize) -> Vec<u64> {
        self.members.succ_window(id, window).to_vec()
    }

    /// One greedy routing hop from `cur` toward `key`: the live node in
    /// the highest non-empty finger region that does not overshoot the
    /// key's owner, falling back to the successor. `None` when `cur`
    /// already owns the key (or the registry is empty).
    pub fn next_hop(&self, cur: u64, key: u64) -> Option<u64> {
        let owner = self.owner(key)?;
        if owner == cur {
            return None;
        }
        let size = self.space.ring_size();
        let budget = forward_distance(cur, owner, size);
        let mut m = self.space.best_finger(cur, key).unwrap_or(0);
        loop {
            let candidates = self.arc(self.space.finger_region(cur, m));
            if let Some(best) = candidates
                .iter()
                .filter(|&c| {
                    let d = forward_distance(cur, c, size);
                    d > 0 && d <= budget
                })
                .max_by_key(|&c| forward_distance(cur, c, size))
            {
                return Some(best);
            }
            if m == 0 {
                // Every finger region below the target is empty. The
                // successor never overshoots: the owner is itself a live
                // node ahead of `cur`, so the first live node ahead is
                // at most the owner.
                return self.successor(cur);
            }
            m -= 1;
        }
    }

    /// The full greedy route from `from` to `key`'s owner, inclusive of
    /// both endpoints. `None` if the walk fails to terminate within
    /// `max_hops` (which indicates a registry inconsistency).
    pub fn route_path(&self, from: u64, key: u64, max_hops: usize) -> Option<Vec<u64>> {
        let mut path = vec![from];
        let mut cur = from;
        for _ in 0..max_hops {
            match self.next_hop(cur, key) {
                None => return Some(path),
                Some(next) => {
                    path.push(next);
                    cur = next;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finger_region_windows() {
        let s = ChordSpace::new(8);
        let r0 = s.finger_region(0, 0);
        assert_eq!((r0.start(), r0.len()), (1, 1));
        let r3 = s.finger_region(0, 3);
        assert_eq!((r3.start(), r3.len()), (8, 4));
        let r7 = s.finger_region(0, 7);
        assert_eq!((r7.start(), r7.len()), (128, 64));
    }

    #[test]
    fn finger_and_reverse_are_dual() {
        let s = ChordSpace::new(8);
        for node in [0u64, 17, 200, 255] {
            for m in 0..8 {
                let rev = s.reverse_finger_region(node, m);
                for (lo, hi) in rev.unwrapped_spans() {
                    for x in lo..=hi {
                        assert!(
                            s.finger_region(x, m).contains(node),
                            "node {node} not in finger {m} region of {x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paper_example_fourth_finger() {
        let s = ChordSpace::new(8);
        let rev = s.reverse_finger_region(0b1010_1011, 3);
        assert_eq!(rev.unwrapped_spans(), vec![(0b1010_0000, 0b1010_0011)]);
    }

    #[test]
    fn best_finger_is_distance_msb() {
        let s = ChordSpace::new(8);
        assert_eq!(s.best_finger(0, 0), None);
        assert_eq!(s.best_finger(0, 1), Some(0));
        assert_eq!(s.best_finger(0, 255), Some(7));
        assert_eq!(s.best_finger(200, 100), Some(7)); // wraps: dist 156
    }

    #[test]
    fn registry_owner_and_windows() {
        let s = ChordSpace::new(6);
        let mut reg = ChordRegistry::new(s);
        for id in [10u64, 20, 50] {
            reg.insert(id);
        }
        assert_eq!(reg.owner(10), Some(10));
        assert_eq!(reg.owner(21), Some(50));
        assert_eq!(reg.owner(51), Some(10));
        assert_eq!(reg.successor(50), Some(10));
        assert_eq!(reg.predecessor(10), Some(50));
        assert_eq!(reg.succ_window(10, 2), vec![20, 50]);
        assert_eq!(reg.succ_window(50, 5), vec![10, 20]);
        assert_eq!(reg.nodes_in(RingRange::new(15, 40, 64)), vec![20, 50]);
        assert_eq!(reg.nodes_in(RingRange::new(60, 20, 64)), vec![10]);
        assert_eq!(reg.nodes_in(RingRange::new(20, 0, 64)), vec![]);
        // An arc ending exactly at the ring's end does not wrap; one a
        // point longer does, and so does the whole ring.
        assert_eq!(reg.nodes_in(RingRange::new(40, 24, 64)), vec![50]);
        assert_eq!(reg.nodes_in(RingRange::new(40, 25, 64)), vec![50]);
        assert_eq!(reg.nodes_in(RingRange::new(40, 35, 64)), vec![50, 10]);
        assert_eq!(reg.nodes_in(RingRange::new(20, 64, 64)), vec![20, 50, 10]);
        // Resuming a clockwise walk after a visited member.
        let arc = RingRange::new(45, 40, 64);
        assert_eq!(reg.nodes_in(arc), vec![50, 10, 20]);
        assert_eq!(reg.nodes_in(arc.after(50)), vec![10, 20]);
        assert_eq!(reg.nodes_in(arc.after(10)), vec![20]);
        assert_eq!(reg.nodes_in(arc.after(20)), vec![]);
    }

    #[test]
    #[should_panic(expected = "id out of range")]
    fn oversized_id_rejected() {
        let mut reg = ChordRegistry::new(ChordSpace::new(4));
        reg.insert(16);
    }

    #[test]
    fn bulk_build_matches_the_insert_loop() {
        use ert_sim::SimRng;
        let space = ChordSpace::new(8);
        let mut rng = SimRng::seed_from(4);
        for n in [0usize, 1, 2, 40, 300] {
            // Unsorted draws; 300 of them on a 256-id ring must repeat.
            let ids: Vec<u64> = (0..n).map(|_| space.random_id(&mut rng)).collect();
            let mut looped = ChordRegistry::new(space);
            for &id in &ids {
                looped.insert(id);
            }
            let bulk = ChordRegistry::from_ids(space, ids.iter().copied());
            assert_eq!(
                bulk.iter().collect::<Vec<_>>(),
                looped.iter().collect::<Vec<_>>()
            );
            assert_eq!(bulk.space(), space);
        }
    }

    #[test]
    #[should_panic(expected = "id out of range")]
    fn bulk_build_rejects_an_oversized_id() {
        let _ = ChordRegistry::from_ids(ChordSpace::new(4), [3, 16, 5]);
    }

    #[test]
    fn greedy_routes_terminate_logarithmically() {
        use ert_sim::SimRng;
        let space = ChordSpace::new(12);
        let mut reg = ChordRegistry::new(space);
        let mut rng = SimRng::seed_from(9);
        while reg.len() < 300 {
            reg.insert(space.random_id(&mut rng));
        }
        let ids: Vec<u64> = reg.iter().collect();
        let mut longest = 0usize;
        for i in 0..60 {
            let from = ids[(i * 5) % ids.len()];
            let key = space.random_id(&mut rng);
            let path = reg.route_path(from, key, 64).expect("route terminates");
            assert_eq!(*path.last().unwrap(), reg.owner(key).unwrap());
            assert_eq!(path[0], from);
            longest = longest.max(path.len());
        }
        // Greedy Chord: O(log n) hops; 300 nodes -> comfortably under 20.
        assert!(longest <= 20, "longest path {longest}");
    }

    #[test]
    fn next_hop_none_at_owner() {
        let space = ChordSpace::new(6);
        let mut reg = ChordRegistry::new(space);
        reg.insert(10);
        reg.insert(40);
        assert_eq!(reg.next_hop(40, 20), None); // 40 owns key 20
        assert_eq!(reg.next_hop(10, 20), Some(40));
    }

    #[test]
    fn sparse_ring_falls_back_to_successor() {
        let space = ChordSpace::new(8);
        let mut reg = ChordRegistry::new(space);
        for id in [0u64, 1, 2, 3] {
            reg.insert(id);
        }
        // From 0 toward key 3: finger regions above 0 are empty except
        // the immediate ones; the walk still reaches the owner.
        let path = reg.route_path(0, 3, 10).unwrap();
        assert_eq!(*path.last().unwrap(), 3);
    }
}
