//! The elastic routing table data structure.

use serde::Serialize;

/// Slots a table keeps inline: a whole Cycloid table (cubical, cyclic,
/// ring successor, ring predecessor).
const INLINE: usize = 4;

/// A table slot key with a dense index: where an [`ElasticTable`] keeps
/// the slot's neighbor list.
///
/// The index is order-preserving up to one rotation: the greatest key
/// of the type takes index 0, and every other key the index one past
/// its rank, so `from_index(index(k)) == k` and slot order is index
/// order 1, 2, … followed by index 0. The greatest key is where a
/// geometry puts its sentinel slot (`u16::MAX`: the successor list on
/// Chord, the leaf set on Pastry and Cycloid; `RingPred` among
/// Cycloid's four slots), so the slots every table holds sit at the
/// lowest indices, inline, and a slot's index is its key plus one,
/// wrapping.
///
/// ```
/// use ert_core::SlotIndex;
/// assert_eq!((0u16.index(), 7u16.index(), u16::MAX.index()), (1, 8, 0));
/// assert_eq!(u16::from_index(0), u16::MAX);
/// ```
pub trait SlotIndex: Ord + Copy {
    /// The slot's index.
    fn index(self) -> usize;

    /// The slot at `index`: the inverse of [`SlotIndex::index`].
    fn from_index(index: usize) -> Self;
}

impl SlotIndex for u8 {
    #[inline]
    fn index(self) -> usize {
        usize::from(self.wrapping_add(1))
    }

    #[inline]
    fn from_index(index: usize) -> Self {
        (index as u8).wrapping_sub(1)
    }
}

impl SlotIndex for u16 {
    #[inline]
    fn index(self) -> usize {
        usize::from(self.wrapping_add(1))
    }

    #[inline]
    fn from_index(index: usize) -> Self {
        (index as u16).wrapping_sub(1)
    }
}

/// A routing table whose slots hold *sets* of neighbors and whose size
/// varies with the owner's capacity and experienced load.
///
/// `S` identifies a table slot (for Cycloid: cubical / cyclic / leaf
/// slots; for Chord: the finger index; for Pastry: `(row, col)`); `Id`
/// is the overlay's node identifier. Besides the outlinks, the table
/// tracks:
///
/// * **backward fingers** — one per inlink, so the node knows who points
///   at it (Section 3.2: "a double link is maintained for each routing
///   table neighbor"); the node's *indegree* is their count;
/// * **forwarding memory** — per slot, the least-loaded candidate
///   remembered by the two-choice-with-memory policy (Section 4.1).
///
/// A slot's neighbor list is *addressed*, not searched for: it sits at
/// the slot's [`SlotIndex`]. Indices below four are inside the table
/// itself — a whole Cycloid table, so reaching a slot's neighbor list
/// reads the table and nothing else — and the rest in one spill vector
/// after them, which grows, to exactly the index asked for, only when
/// a slot past its end is first written (on Chord: as the table build
/// reaches each finger). A slot once written stays in the table, empty
/// or not, until the table goes. Iteration is in slot order whatever
/// order the slots were first touched in.
///
/// ```
/// use ert_core::ElasticTable;
/// let mut t: ElasticTable<u8, &str> = ElasticTable::new();
/// assert!(t.add_outlink(0, "n1"));
/// assert!(t.add_outlink(0, "n2"));
/// assert!(!t.add_outlink(0, "n1")); // deduplicated
/// assert_eq!(t.outlinks(0), &["n1", "n2"]);
/// assert_eq!(t.outdegree(), 2);
/// t.add_backward("n9");
/// assert_eq!(t.indegree(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ElasticTable<S, Id> {
    /// The neighbors of the slots at indices `0..INLINE`; empty at an
    /// index never written.
    lists: [Vec<Id>; INLINE],
    /// Bit `i` set: the slot at inline index `i` has been written.
    touched: u8,
    /// The neighbors of the slot at index `INLINE + i` at `i`; `None`
    /// at an index never written.
    spill: Vec<Option<Vec<Id>>>,
    backward: Vec<Id>,
    /// `(slot, remembered candidate)`, sorted by slot.
    memory: Vec<(S, Id)>,
}

/// Position of `slot` in an `S`-sorted vector, or where it belongs.
fn locate<S: Ord, T>(entries: &[(S, T)], slot: S) -> Result<usize, usize> {
    entries.binary_search_by(|(s, _)| s.cmp(&slot))
}

impl<S: SlotIndex, Id: Copy + Eq> ElasticTable<S, Id> {
    /// Creates an empty table.
    pub fn new() -> Self {
        ElasticTable {
            lists: Default::default(),
            touched: 0,
            spill: Vec::new(),
            backward: Vec::new(),
            memory: Vec::new(),
        }
    }

    /// The neighbor list of `slot`, if it was ever written. An inline
    /// list never written is empty, so it is handed out as is.
    #[inline]
    fn list(&self, slot: S) -> Option<&Vec<Id>> {
        let at = slot.index();
        match at.checked_sub(INLINE) {
            None => self.lists.get(at),
            Some(i) => self.spill.get(i)?.as_ref(),
        }
    }

    /// The neighbor list of `slot`, created empty on first use.
    #[inline]
    fn slot_mut(&mut self, slot: S) -> &mut Vec<Id> {
        let at = slot.index();
        match at.checked_sub(INLINE) {
            None => {
                self.touched |= 1 << at;
                &mut self.lists[at]
            }
            Some(i) => {
                if i >= self.spill.len() {
                    self.grow_spill(i + 1);
                }
                self.spill[i].get_or_insert_with(Vec::new)
            }
        }
    }

    /// Lengthens the spill to `len` cells, in one allocation of exactly
    /// that many.
    #[cold]
    fn grow_spill(&mut self, len: usize) {
        self.spill.reserve_exact(len - self.spill.len());
        self.spill.resize_with(len, || None);
    }

    /// Every neighbor list, written or not, in no particular order.
    fn lists_mut(&mut self) -> impl Iterator<Item = &mut Vec<Id>> {
        let spill = self.spill.iter_mut().flatten();
        self.lists.iter_mut().chain(spill)
    }

    /// `(slot, neighbors)` of every slot written, in slot order: the
    /// inline indices from 1, the spill, then index 0.
    fn entries(&self) -> impl Iterator<Item = (S, &Vec<Id>)> + '_ {
        let (lists, touched) = (&self.lists, self.touched);
        let inline = move |at: usize| (touched >> at & 1 == 1).then(|| (at, &lists[at]));
        let spill = self.spill.iter().enumerate();
        (1..INLINE)
            .filter_map(inline)
            .chain(spill.filter_map(|(i, ids)| Some((INLINE + i, ids.as_ref()?))))
            .chain(inline(0))
            .map(|(at, ids)| (S::from_index(at), ids))
    }

    /// The neighbors currently held in `slot` (empty if none).
    #[inline]
    pub fn outlinks(&self, slot: S) -> &[Id] {
        self.list(slot).map_or(&[], Vec::as_slice)
    }

    /// Adds `id` to `slot`; returns `false` if it was already there.
    pub fn add_outlink(&mut self, slot: S, id: Id) -> bool {
        let entry = self.slot_mut(slot);
        if entry.contains(&id) {
            false
        } else {
            entry.push(id);
            true
        }
    }

    /// Appends `id` to `slot`, which the caller knows does not hold it:
    /// [`ElasticTable::add_outlink`] without the scan.
    #[inline]
    pub fn push_outlink(&mut self, slot: S, id: Id) {
        self.slot_mut(slot).push(id);
    }

    /// Removes `id` from `slot`; returns `false` if it was not there.
    pub fn remove_outlink(&mut self, slot: S, id: Id) -> bool {
        let at = slot.index();
        let entry = match at.checked_sub(INLINE) {
            None => self.lists.get_mut(at),
            Some(i) => self.spill.get_mut(i).and_then(Option::as_mut),
        };
        let Some(entry) = entry else {
            return false;
        };
        match entry.iter().position(|&x| x == id) {
            Some(at) => {
                entry.remove(at);
                true
            }
            None => false,
        }
    }

    /// Removes `id` from every slot, in one pass over the lists in
    /// place: [`ElasticTable::remove_outlink`] on each occupied slot.
    /// The backward fingers and the memory stay. Returns whether any
    /// slot held it.
    pub fn remove_outlinks_to(&mut self, id: Id) -> bool {
        let mut removed = false;
        for ids in self.lists_mut() {
            if let Some(at) = ids.iter().position(|&x| x == id) {
                ids.remove(at);
                removed = true;
            }
        }
        removed
    }

    /// Replaces the contents of `slot` wholesale (used for structural
    /// slots like leaf sets that are refreshed, not negotiated).
    pub fn set_slot(&mut self, slot: S, ids: Vec<Id>) {
        *self.slot_mut(slot) = ids;
    }

    /// Total number of outlinks across slots (a node appearing in two
    /// slots counts twice, matching the paper's outdegree accounting of
    /// one overlay connection per table entry).
    pub fn outdegree(&self) -> usize {
        let inline: usize = self.lists.iter().map(Vec::len).sum();
        inline + self.spill.iter().flatten().map(Vec::len).sum::<usize>()
    }

    /// Iterates `(slot, neighbor)` pairs, in slot order.
    pub fn iter_outlinks(&self) -> impl Iterator<Item = (S, Id)> + '_ {
        self.entries()
            .flat_map(|(s, ids)| ids.iter().map(move |&id| (s, id)))
    }

    /// Whether `id` appears in any slot.
    pub fn has_outlink_to(&self, id: Id) -> bool {
        let spill = self.spill.iter().flatten();
        self.lists.iter().chain(spill).any(|ids| ids.contains(&id))
    }

    /// The slots with at least one neighbor, in slot order.
    pub fn occupied_slots(&self) -> impl Iterator<Item = S> + '_ {
        self.entries()
            .filter(|(_, ids)| !ids.is_empty())
            .map(|(s, _)| s)
    }

    /// Records an inlink holder; returns `false` if already recorded.
    pub fn add_backward(&mut self, id: Id) -> bool {
        if self.backward.contains(&id) {
            false
        } else {
            self.backward.push(id);
            true
        }
    }

    /// Records `id`, which the caller knows is not recorded, as an
    /// inlink holder: [`ElasticTable::add_backward`] without the scan.
    pub fn push_backward(&mut self, id: Id) {
        self.backward.push(id);
    }

    /// Makes room for `inlinks` backward fingers in all, so recording
    /// up to that many allocates nothing more.
    pub fn reserve_backward(&mut self, inlinks: usize) {
        let more = inlinks.saturating_sub(self.backward.len());
        self.backward.reserve(more);
    }

    /// Forgets an inlink holder; returns `false` if it was unknown.
    pub fn remove_backward(&mut self, id: Id) -> bool {
        match self.backward.iter().position(|&x| x == id) {
            Some(pos) => {
                self.backward.remove(pos);
                true
            }
            None => false,
        }
    }

    /// The recorded inlink holders.
    pub fn backward_fingers(&self) -> &[Id] {
        &self.backward
    }

    /// Number of inlinks (the node's indegree).
    pub fn indegree(&self) -> usize {
        self.backward.len()
    }

    /// The remembered least-loaded candidate for `slot`, if any.
    pub fn memory(&self, slot: S) -> Option<Id> {
        locate(&self.memory, slot)
            .ok()
            .map(|pos| self.memory[pos].1)
    }

    /// Remembers `id` as the least-loaded candidate for `slot`.
    pub fn set_memory(&mut self, slot: S, id: Id) {
        match locate(&self.memory, slot) {
            Ok(pos) => self.memory[pos].1 = id,
            Err(pos) => self.memory.insert(pos, (slot, id)),
        }
    }

    /// Removes every trace of `id` (outlinks, backward finger, memory):
    /// the cleanup when a neighbor departs. Returns whether anything was
    /// removed.
    pub fn purge_peer(&mut self, id: Id) -> bool {
        let mut touched = false;
        for ids in self.lists_mut() {
            let before = ids.len();
            ids.retain(|&x| x != id);
            touched |= ids.len() != before;
        }
        touched |= self.remove_backward(id);
        let before = self.memory.len();
        self.memory.retain(|&(_, m)| m != id);
        touched | (self.memory.len() != before)
    }
}

impl<S: SlotIndex, Id: Copy + Eq> Default for ElasticTable<S, Id> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SlotIndex + Serialize, Id: Copy + Eq + Serialize> Serialize for ElasticTable<S, Id> {
    /// The object a table of one `(slot, neighbors)` vector derived:
    /// `slots` as `[slot, neighbors]` pairs in slot order, then
    /// `backward` and `memory`.
    fn serialize_json(&self, out: &mut String) {
        let slots: Vec<(S, &Vec<Id>)> = self.entries().collect();
        out.push_str("{\"slots\":");
        slots.serialize_json(out);
        out.push_str(",\"backward\":");
        self.backward.serialize_json(out);
        out.push_str(",\"memory\":");
        self.memory.serialize_json(out);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outlinks_dedupe_per_slot_not_across() {
        let mut t: ElasticTable<u8, u32> = ElasticTable::new();
        assert!(t.add_outlink(1, 7));
        assert!(!t.add_outlink(1, 7));
        assert!(t.add_outlink(2, 7)); // same peer in another slot is legal
        assert_eq!(t.outdegree(), 2);
        assert!(t.has_outlink_to(7));
        assert_eq!(t.iter_outlinks().collect::<Vec<_>>(), vec![(1, 7), (2, 7)]);
    }

    #[test]
    fn remove_outlink_only_touches_named_slot() {
        let mut t: ElasticTable<u8, u32> = ElasticTable::new();
        t.add_outlink(1, 7);
        t.add_outlink(2, 7);
        assert!(t.remove_outlink(1, 7));
        assert!(!t.remove_outlink(1, 7));
        assert!(t.has_outlink_to(7));
        assert_eq!(t.outdegree(), 1);
    }

    #[test]
    fn backward_fingers_track_indegree() {
        let mut t: ElasticTable<u8, u32> = ElasticTable::new();
        assert!(t.add_backward(3));
        assert!(!t.add_backward(3));
        assert!(t.add_backward(4));
        assert_eq!(t.indegree(), 2);
        assert!(t.remove_backward(3));
        assert!(!t.remove_backward(3));
        assert_eq!(t.backward_fingers(), &[4]);
    }

    #[test]
    fn memory_per_slot() {
        let mut t: ElasticTable<u8, u32> = ElasticTable::new();
        assert_eq!(t.memory(0), None);
        t.set_memory(0, 9);
        t.set_memory(1, 8);
        assert_eq!(t.memory(0), Some(9));
        assert_eq!(t.memory(1), Some(8));
    }

    #[test]
    fn purge_peer_clears_all_traces() {
        let mut t: ElasticTable<u8, u32> = ElasticTable::new();
        t.add_outlink(0, 5);
        t.add_outlink(1, 5);
        t.add_outlink(1, 6);
        t.add_backward(5);
        t.set_memory(1, 5);
        assert!(t.purge_peer(5));
        assert!(!t.has_outlink_to(5));
        assert_eq!(t.indegree(), 0);
        assert_eq!(t.memory(1), None);
        assert_eq!(t.outlinks(1), &[6]);
        assert!(!t.purge_peer(5));
    }

    #[test]
    fn set_slot_replaces() {
        let mut t: ElasticTable<u8, u32> = ElasticTable::new();
        t.add_outlink(0, 1);
        t.set_slot(0, vec![2, 3]);
        assert_eq!(t.outlinks(0), &[2, 3]);
        assert_eq!(t.occupied_slots().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn json_is_one_sorted_slot_list() {
        let mut t: ElasticTable<u8, u32> = ElasticTable::new();
        for slot in [9, 2, 7, 0, 5, 1] {
            t.add_outlink(slot, u32::from(slot) + 10);
        }
        t.add_backward(4);
        t.set_memory(7, 17);
        assert_eq!(
            serde::json::to_string(&t),
            "{\"slots\":[[0,[10]],[1,[11]],[2,[12]],[5,[15]],[7,[17]],[9,[19]]],\
             \"backward\":[4],\"memory\":[[7,17]]}"
        );
    }

    /// The `BTreeMap`-backed table this module used to be: the model
    /// the indexed storage must be indistinguishable from, a slot once
    /// written kept as an entry whether or not it still holds anyone.
    #[derive(Default)]
    struct ModelTable {
        slots: std::collections::BTreeMap<u16, Vec<u32>>,
        backward: Vec<u32>,
        memory: std::collections::BTreeMap<u16, u32>,
    }

    impl ModelTable {
        fn remove_outlinks_to(&mut self, id: u32) -> bool {
            let mut removed = false;
            for entry in self.slots.values_mut() {
                if let Some(at) = entry.iter().position(|&x| x == id) {
                    entry.remove(at);
                    removed = true;
                }
            }
            removed
        }

        fn purge_peer(&mut self, id: u32) -> bool {
            let mut touched = false;
            for entry in self.slots.values_mut() {
                let before = entry.len();
                entry.retain(|&x| x != id);
                touched |= entry.len() != before;
            }
            if let Some(pos) = self.backward.iter().position(|&x| x == id) {
                self.backward.remove(pos);
                touched = true;
            }
            let before = self.memory.len();
            self.memory.retain(|_, m| *m != id);
            touched | (self.memory.len() != before)
        }

        /// The JSON the table it models writes: every slot written,
        /// empty ones included, in slot order.
        fn json(&self) -> String {
            let slots: Vec<(u16, &Vec<u32>)> =
                self.slots.iter().map(|(&s, ids)| (s, ids)).collect();
            let memory: Vec<(u16, u32)> = self.memory.iter().map(|(&s, &id)| (s, id)).collect();
            format!(
                "{{\"slots\":{},\"backward\":{},\"memory\":{}}}",
                serde::json::to_string(&slots),
                serde::json::to_string(&self.backward),
                serde::json::to_string(&memory)
            )
        }
    }

    /// Chord-wide tables' finger slots: three times the inline
    /// capacity, so their slots spill, and are created below, between
    /// and above the ones already there.
    const FINGERS: u16 = 3 * INLINE as u16;

    /// The slot keys of the three kinds of table the model test draws
    /// from, as `ErtNode` keys them: a Cycloid-narrow table (cubical,
    /// cyclic, the ascend memory slot and the leaf-set sentinel, which
    /// all sit inline), a Chord-wide one, and a Chord-wide one with the
    /// successor-list sentinel.
    fn slot_keys(kind: u8) -> Vec<u16> {
        match kind {
            0 => vec![0, 1, 2, u16::MAX],
            1 => (0..FINGERS).collect(),
            _ => (0..FINGERS).chain([u16::MAX]).collect(),
        }
    }

    #[test]
    fn the_index_is_slot_order_rotated_by_one() {
        let keys: Vec<u16> = (0..FINGERS).chain([u16::MAX - 1, u16::MAX]).collect();
        for &k in &keys {
            assert_eq!(u16::from_index(k.index()), k);
        }
        for pair in keys.windows(2).take(keys.len() - 2) {
            assert!(pair[0].index() < pair[1].index());
        }
        assert_eq!(u16::MAX.index(), 0);
        assert_eq!((u8::MAX.index(), u8::from_index(0)), (0, u8::MAX));
    }

    proptest::proptest! {
        /// One long slot and the backward list — kept without scanning
        /// by the `push_*` writers too — and every membership answer of
        /// the slot, against a plain vector model, as the lists grow
        /// long and shrink from anywhere in them.
        #[test]
        fn scan_free_writers_match_the_vector_model(
            ops in proptest::collection::vec((0u8..5, 0u32..96), 0..400)
        ) {
            let mut t: ElasticTable<u8, u32> = ElasticTable::new();
            let (mut slot, mut backward): (Vec<u32>, Vec<u32>) = Default::default();
            for (op, id) in ops {
                let in_slot = slot.iter().position(|&x| x == id);
                let in_backward = backward.iter().position(|&x| x == id);
                match op {
                    0 => {
                        assert_eq!(t.add_outlink(0, id), in_slot.is_none());
                        if in_slot.is_none() {
                            slot.push(id);
                        }
                    }
                    1 if in_slot.is_none() => {
                        t.push_outlink(0, id);
                        slot.push(id);
                    }
                    1 => {
                        assert!(t.remove_outlink(0, id));
                        slot.remove(in_slot.expect("guarded"));
                    }
                    2 => {
                        assert_eq!(t.add_backward(id), in_backward.is_none());
                        if in_backward.is_none() {
                            backward.push(id);
                        }
                    }
                    3 if in_backward.is_none() => {
                        t.push_backward(id);
                        backward.push(id);
                    }
                    _ => {
                        assert_eq!(t.remove_backward(id), in_backward.is_some());
                        if let Some(at) = in_backward {
                            backward.remove(at);
                        }
                    }
                }
                assert_eq!(t.outlinks(0), slot.as_slice());
                assert_eq!(t.backward_fingers(), backward.as_slice());
                for peer in 0..96 {
                    assert_eq!(t.has_outlink_to(peer), slot.contains(&peer));
                }
            }
        }

        /// Random operation sequences, slots touched in any order, on
        /// the three kinds of table `slot_keys` names: every return
        /// value and every accessor agrees with the model after every
        /// step, iteration order included, and so does the JSON, which
        /// holds every slot ever written, empty ones too. A
        /// Cycloid-narrow table never reaches past its inline lists.
        #[test]
        fn indexed_storage_matches_the_btreemap_model(
            kind in 0u8..3,
            ops in proptest::collection::vec((0u8..8, 0usize..64, 0u32..10, 0u32..10), 0..160)
        ) {
            let keys = slot_keys(kind);
            let mut t: ElasticTable<u16, u32> = ElasticTable::new();
            let mut m = ModelTable::default();
            for (op, at, id, other) in ops {
                let slot = keys[at % keys.len()];
                match op {
                    0 => {
                        let entry = m.slots.entry(slot).or_default();
                        let fresh = !entry.contains(&id);
                        if fresh {
                            entry.push(id);
                        }
                        assert_eq!(t.add_outlink(slot, id), fresh);
                    }
                    1 => {
                        let at = m.slots.get(&slot).and_then(|e| e.iter().position(|&x| x == id));
                        if let Some(at) = at {
                            m.slots.get_mut(&slot).expect("slot exists").remove(at);
                        }
                        assert_eq!(t.remove_outlink(slot, id), at.is_some());
                    }
                    2 => {
                        let ids = if id == other { Vec::new() } else { vec![id, other] };
                        m.slots.insert(slot, ids.clone());
                        t.set_slot(slot, ids);
                    }
                    3 => {
                        m.memory.insert(slot, id);
                        t.set_memory(slot, id);
                    }
                    4 => assert_eq!(t.purge_peer(id), m.purge_peer(id)),
                    5 => assert_eq!(t.remove_outlinks_to(id), m.remove_outlinks_to(id)),
                    6 if !m.slots.get(&slot).is_some_and(|e| e.contains(&id)) => {
                        m.slots.entry(slot).or_default().push(id);
                        t.push_outlink(slot, id);
                    }
                    _ => {
                        let fresh = !m.backward.contains(&id);
                        if fresh {
                            m.backward.push(id);
                        }
                        assert_eq!(t.add_backward(id), fresh);
                    }
                }
                let links: Vec<(u16, u32)> = m
                    .slots
                    .iter()
                    .flat_map(|(&s, ids)| ids.iter().map(move |&id| (s, id)))
                    .collect();
                assert_eq!(t.iter_outlinks().collect::<Vec<_>>(), links);
                assert_eq!(t.outdegree(), links.len());
                let occupied: Vec<u16> = m
                    .slots
                    .iter()
                    .filter(|(_, ids)| !ids.is_empty())
                    .map(|(&s, _)| s)
                    .collect();
                assert_eq!(t.occupied_slots().collect::<Vec<_>>(), occupied);
                assert_eq!(t.backward_fingers(), m.backward.as_slice());
                assert_eq!(t.indegree(), m.backward.len());
                for &s in &slot_keys(2) {
                    assert_eq!(t.outlinks(s), m.slots.get(&s).map_or(&[][..], Vec::as_slice));
                    assert_eq!(t.memory(s), m.memory.get(&s).copied());
                }
                for peer in 0..10u32 {
                    assert_eq!(t.has_outlink_to(peer), links.iter().any(|&(_, x)| x == peer));
                }
                assert_eq!(serde::json::to_string(&t), m.json());
                if kind == 0 {
                    assert!(t.spill.is_empty(), "a Cycloid-narrow table spilled");
                }
            }
        }
    }
}
