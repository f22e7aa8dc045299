//! Ring membership as one sorted slice.
//!
//! The Chord and Pastry registries keep their live ids here. Every
//! query is a `partition_point` on the slice: owners, successors and
//! predecessors are O(log n), and an arc or span comes back borrowed —
//! at most two runs of the slice, never a copy — so a caller that only
//! draws from a region never pays for the region's size.

use crate::ring::RingRange;

/// The live ids of a ring, ascending and without duplicates.
///
/// ```
/// use ert_overlay::{RingMembers, RingRange};
/// let ring = RingMembers::from_ids([50, 10, 20, 10]);
/// assert_eq!(ring.iter().collect::<Vec<_>>(), [10, 20, 50]);
/// assert_eq!(ring.at_or_after(51), Some(10)); // wraps
/// assert_eq!(ring.before(10), Some(50));
/// // An arc that wraps past zero: two runs, clockwise from its start.
/// assert_eq!(ring.arc(RingRange::new(40, 35, 64)).to_vec(), [50, 10]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingMembers {
    ids: Vec<u64>,
}

impl RingMembers {
    /// An empty membership.
    pub fn new() -> Self {
        Self::default()
    }

    /// The members `ids` in any order, duplicates collapsed: one sort.
    pub fn from_ids(ids: impl IntoIterator<Item = u64>) -> Self {
        let mut ids: Vec<u64> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        RingMembers { ids }
    }

    /// Adds `id`; returns `false` if already present. O(n): the tail
    /// of the slice moves up one place.
    pub fn insert(&mut self, id: u64) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                self.ids.insert(at, id);
                true
            }
        }
    }

    /// Adds every id of `ids` not yet present in one merge,
    /// O(n + k log k) for k ids rather than a slice shift per id;
    /// returns whether any was new.
    pub fn extend(&mut self, ids: &[u64]) -> bool {
        let fresh: Vec<u64> = ids
            .iter()
            .copied()
            .filter(|&id| !self.contains(id))
            .collect();
        if fresh.is_empty() {
            return false;
        }
        self.ids.extend(fresh);
        // The stable sort takes the old members as one sorted run,
        // sorts the appended ids and merges the two.
        self.ids.sort();
        self.ids.dedup();
        true
    }

    /// Removes `id`; returns `false` if absent.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.ids.binary_search(&id) {
            Ok(at) => {
                self.ids.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: u64) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether there are no members.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.ids.iter().copied()
    }

    /// The index of the first member `>= key`.
    fn rank(&self, key: u64) -> usize {
        self.ids.partition_point(|&m| m < key)
    }

    /// The index of the first member `> key`.
    fn rank_past(&self, key: u64) -> usize {
        self.ids.partition_point(|&m| m <= key)
    }

    /// The member at index `i`, or the smallest when `i` is past the end.
    fn at_index(&self, i: usize) -> Option<u64> {
        self.ids.get(i).or(self.ids.first()).copied()
    }

    /// The first member at or after `key`, wrapping past the largest id.
    pub fn at_or_after(&self, key: u64) -> Option<u64> {
        self.at_index(self.rank(key))
    }

    /// The first member strictly after `id` (wrapping): `id` itself when
    /// it is the only member.
    pub fn after(&self, id: u64) -> Option<u64> {
        self.at_index(self.rank_past(id))
    }

    /// The last member strictly before `id` (wrapping): `id` itself when
    /// it is the only member.
    pub fn before(&self, id: u64) -> Option<u64> {
        let below = self.ids[..self.rank(id)].last();
        below.or(self.ids.last()).copied()
    }

    /// The members of the inclusive span `[lo, hi]`, ascending. Empty
    /// when `lo > hi`.
    pub fn span(&self, lo: u64, hi: u64) -> &[u64] {
        let from = self.rank(lo);
        &self.ids[from..self.rank_past(hi).max(from)]
    }

    /// The members of `arc`, clockwise from its start: the run up to
    /// the ring's end, then the run from zero when the arc wraps.
    pub fn arc(&self, arc: RingRange) -> ArcMembers<'_> {
        let (start, end) = (arc.start(), arc.start() + arc.len());
        let size = arc.modulus();
        if end <= size {
            ArcMembers::new(self.ids_in(start, end), &[])
        } else {
            ArcMembers::new(self.ids_in(start, size), self.ids_in(0, end - size))
        }
    }

    /// The members in `[from, to)`, `from <= to`.
    fn ids_in(&self, from: u64, to: u64) -> &[u64] {
        &self.ids[self.rank(from)..self.rank(to)]
    }

    /// The first `window` members strictly after `id`, wrapping and
    /// stopping short of `id`: its successor list.
    pub fn succ_window(&self, id: u64, window: usize) -> ArcMembers<'_> {
        let (split, past) = (self.rank(id), self.rank_past(id));
        let (head, tail) = (&self.ids[past..], &self.ids[..split]);
        let head = &head[..window.min(head.len())];
        let tail = &tail[..(window - head.len()).min(tail.len())];
        ArcMembers::new(head, tail)
    }

    /// The last `window` members strictly before `id`, wrapping and
    /// stopping short of `id`: its predecessor list, as the arc they
    /// span (clockwise, so the member nearest `id` comes last).
    pub fn pred_window(&self, id: u64, window: usize) -> ArcMembers<'_> {
        let (split, past) = (self.rank(id), self.rank_past(id));
        let (near, far) = (&self.ids[..split], &self.ids[past..]);
        let near = &near[near.len() - window.min(near.len())..];
        let far = &far[far.len() - (window - near.len()).min(far.len())..];
        ArcMembers::new(far, near)
    }
}

/// The members of one arc of a [`RingMembers`], clockwise from the
/// arc's start: at most two borrowed runs of the sorted slice, the
/// second being the part past zero when the arc wraps.
///
/// ```
/// use ert_overlay::ArcMembers;
/// let arc = ArcMembers::new(&[50, 60], &[3]);
/// assert_eq!((arc.len(), arc.get(2)), (3, Some(3)));
/// assert_eq!(arc.iter().collect::<Vec<_>>(), [50, 60, 3]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArcMembers<'a> {
    head: &'a [u64],
    tail: &'a [u64],
}

impl<'a> ArcMembers<'a> {
    /// The arc whose members are `head` followed by `tail`.
    pub fn new(head: &'a [u64], tail: &'a [u64]) -> Self {
        ArcMembers { head, tail }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether the arc holds no member.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.tail.is_empty()
    }

    /// The `i`-th member clockwise from the start.
    pub fn get(&self, i: usize) -> Option<u64> {
        match i.checked_sub(self.head.len()) {
            None => self.head.get(i).copied(),
            Some(j) => self.tail.get(j).copied(),
        }
    }

    /// The members clockwise from the start.
    pub fn iter(&self) -> impl Iterator<Item = u64> + Clone + 'a {
        self.head.iter().chain(self.tail).copied()
    }

    /// The members clockwise from the start as two runs: up to the
    /// ring's end, then from zero (empty unless the arc wraps).
    pub fn runs(&self) -> (&'a [u64], &'a [u64]) {
        (self.head, self.tail)
    }

    /// The members clockwise from the start, copied out.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

impl<'a> From<&'a [u64]> for ArcMembers<'a> {
    fn from(run: &'a [u64]) -> Self {
        ArcMembers::new(run, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_on_a_small_ring() {
        let ring = RingMembers::from_ids([10, 20, 50]);
        assert_eq!(ring.at_or_after(10), Some(10));
        assert_eq!(ring.at_or_after(21), Some(50));
        assert_eq!((ring.after(50), ring.before(10)), (Some(10), Some(50)));
        assert_eq!(ring.span(11, 50), [20, 50]);
        assert!(ring.span(21, 20).is_empty(), "an inverted span is empty");
        assert_eq!(ring.succ_window(20, 5).to_vec(), [50, 10]);
        assert_eq!(ring.pred_window(20, 5).to_vec(), [50, 10]);
        assert_eq!(ring.pred_window(15, 1).to_vec(), [10]);
        assert_eq!(ring.pred_window(5, 2).to_vec(), [20, 50]);
        let one = RingMembers::from_ids([7]);
        assert_eq!((one.after(7), one.before(7)), (Some(7), Some(7)));
        assert!(one.succ_window(7, 3).is_empty() && one.pred_window(7, 3).is_empty());
        let empty = RingMembers::new();
        assert_eq!(empty.at_or_after(3), None);
        assert_eq!((empty.after(3), empty.before(3)), (None, None));
    }

    #[test]
    fn extend_merges_and_reports_growth() {
        let mut ring = RingMembers::from_ids([10, 20, 50]);
        assert!(!ring.extend(&[20, 10]));
        assert!(ring.extend(&[60, 5, 20, 5, 30]));
        assert_eq!(ring.iter().collect::<Vec<_>>(), [5, 10, 20, 30, 50, 60]);
    }
}
