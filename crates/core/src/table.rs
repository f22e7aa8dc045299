//! The elastic routing table data structure.

use serde::Serialize;

/// Slots a table keeps inline: a whole Cycloid table (cubical, cyclic,
/// ring successor, ring predecessor).
const INLINE: usize = 4;

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
/// A table has a handful of slots (4 on Cycloid, at most one per finger
/// on Chord), kept in `S` order: the first four inside the table itself
/// — a whole Cycloid table, so reaching a slot's neighbor list reads
/// the table and nothing else — and any further ones in one sorted
/// spill vector after them. Iteration is in slot order whatever order
/// the slots were first touched in.
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
pub struct ElasticTable<S: Ord, Id> {
    /// The keys of the first `INLINE` slots, sorted, then `None`s.
    keys: [Option<S>; INLINE],
    /// The neighbors of `keys[i]` at `lists[i]`; empty past the last key.
    lists: [Vec<Id>; INLINE],
    /// `(slot, neighbors)` of every slot after the first `INLINE`,
    /// sorted, each key above every inline one; empty unless `keys` is
    /// full.
    spill: Vec<(S, Vec<Id>)>,
    backward: Vec<Id>,
    /// `(slot, remembered candidate)`, sorted by slot.
    memory: Vec<(S, Id)>,
}

/// Position of `slot` in an `S`-sorted vector, or where it belongs.
fn locate<S: Ord, T>(entries: &[(S, T)], slot: S) -> Result<usize, usize> {
    entries.binary_search_by(|(s, _)| s.cmp(&slot))
}

impl<S: Ord + Copy, Id: Copy + Eq> ElasticTable<S, Id> {
    /// Creates an empty table.
    pub fn new() -> Self {
        ElasticTable {
            keys: [None; INLINE],
            lists: Default::default(),
            spill: Vec::new(),
            backward: Vec::new(),
            memory: Vec::new(),
        }
    }

    /// Where `slot` sits in slot order — below `INLINE` inline, at
    /// `INLINE + i` the spill's `i`-th entry — or where it belongs.
    fn position(&self, slot: S) -> Result<usize, usize> {
        for (pos, key) in self.keys.iter().enumerate() {
            match key {
                Some(key) if *key < slot => {}
                Some(key) if *key == slot => return Ok(pos),
                _ => return Err(pos),
            }
        }
        locate(&self.spill, slot)
            .map(|i| INLINE + i)
            .map_err(|i| INLINE + i)
    }

    fn list(&self, pos: usize) -> &Vec<Id> {
        match pos.checked_sub(INLINE) {
            None => &self.lists[pos],
            Some(i) => &self.spill[i].1,
        }
    }

    fn list_mut(&mut self, pos: usize) -> &mut Vec<Id> {
        match pos.checked_sub(INLINE) {
            None => &mut self.lists[pos],
            Some(i) => &mut self.spill[i].1,
        }
    }

    /// The neighbor list of `slot`, created empty (in slot order) on
    /// first use. A slot created inline shifts the ones above it up by
    /// one in place; the last inline one, if any, moves to the front of
    /// the spill.
    fn slot_mut(&mut self, slot: S) -> &mut Vec<Id> {
        let pos = match self.position(slot) {
            Ok(pos) => pos,
            Err(pos) if pos >= INLINE => {
                self.spill.insert(pos - INLINE, (slot, Vec::new()));
                pos
            }
            Err(pos) => {
                if let Some(last) = self.keys[INLINE - 1] {
                    let ids = std::mem::take(&mut self.lists[INLINE - 1]);
                    self.spill.insert(0, (last, ids));
                }
                // The rotation brings the last list to `pos`: empty,
                // whether it was vacant or its entry just spilled.
                self.keys[pos..].rotate_right(1);
                self.lists[pos..].rotate_right(1);
                self.keys[pos] = Some(slot);
                pos
            }
        };
        self.list_mut(pos)
    }

    /// `(slot, neighbors)` of every slot touched, in slot order.
    fn entries(&self) -> impl Iterator<Item = (S, &Vec<Id>)> + '_ {
        let inline = self.keys.iter().zip(&self.lists);
        inline
            .map_while(|(key, ids)| key.map(|key| (key, ids)))
            .chain(self.spill.iter().map(|(s, ids)| (*s, ids)))
    }

    /// The neighbors currently held in `slot` (empty if none).
    pub fn outlinks(&self, slot: S) -> &[Id] {
        match self.position(slot) {
            Ok(pos) => self.list(pos),
            Err(_) => &[],
        }
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
    pub fn push_outlink(&mut self, slot: S, id: Id) {
        self.slot_mut(slot).push(id);
    }

    /// Removes `id` from `slot`; returns `false` if it was not there.
    pub fn remove_outlink(&mut self, slot: S, id: Id) -> bool {
        let Ok(pos) = self.position(slot) else {
            return false;
        };
        let entry = self.list_mut(pos);
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
        let spill = self.spill.iter_mut().map(|(_, ids)| ids);
        for ids in self.lists.iter_mut().chain(spill) {
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
        inline + self.spill.iter().map(|(_, ids)| ids.len()).sum::<usize>()
    }

    /// Iterates `(slot, neighbor)` pairs, in slot order.
    pub fn iter_outlinks(&self) -> impl Iterator<Item = (S, Id)> + '_ {
        self.entries()
            .flat_map(|(s, ids)| ids.iter().map(move |&id| (s, id)))
    }

    /// Whether `id` appears in any slot.
    pub fn has_outlink_to(&self, id: Id) -> bool {
        self.entries().any(|(_, ids)| ids.contains(&id))
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
        let mut purge = |ids: &mut Vec<Id>| {
            let before = ids.len();
            ids.retain(|&x| x != id);
            touched |= ids.len() != before;
        };
        self.lists.iter_mut().for_each(&mut purge);
        self.spill.iter_mut().for_each(|(_, ids)| purge(ids));
        touched |= self.remove_backward(id);
        let before = self.memory.len();
        self.memory.retain(|&(_, m)| m != id);
        touched | (self.memory.len() != before)
    }
}

impl<S: Ord + Copy, Id: Copy + Eq> Default for ElasticTable<S, Id> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Ord + Copy + Serialize, Id: Copy + Eq + Serialize> Serialize for ElasticTable<S, Id> {
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
    /// the inline-then-spill storage must be indistinguishable from.
    #[derive(Default)]
    struct ModelTable {
        slots: std::collections::BTreeMap<u8, Vec<u32>>,
        backward: Vec<u32>,
        memory: std::collections::BTreeMap<u8, u32>,
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
    }

    /// Slot keys the model test draws from: three times the inline
    /// capacity, as wide as a Chord finger table.
    const KEYS: u8 = 3 * INLINE as u8;

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

        /// Random operation sequences, slots touched in any order — on
        /// Cycloid-narrow tables that fit inline, and on Chord-wide ones
        /// whose slots spill past the inline four, created below,
        /// between and above the ones already there: every return value
        /// and every accessor agrees with the model after every step,
        /// iteration order included.
        #[test]
        fn sorted_vector_storage_matches_the_btreemap_model(
            wide in proptest::bool::ANY,
            ops in proptest::collection::vec((0u8..7, 0u8..KEYS, 0u32..10, 0u32..10), 0..160)
        ) {
            let width = if wide { KEYS } else { INLINE as u8 };
            let mut t: ElasticTable<u8, u32> = ElasticTable::new();
            let mut m = ModelTable::default();
            for (op, slot, id, other) in ops {
                let slot = slot % width;
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
                        m.slots.insert(slot, vec![id, other]);
                        t.set_slot(slot, vec![id, other]);
                    }
                    3 => {
                        m.memory.insert(slot, id);
                        t.set_memory(slot, id);
                    }
                    4 => assert_eq!(t.purge_peer(id), m.purge_peer(id)),
                    5 => assert_eq!(t.remove_outlinks_to(id), m.remove_outlinks_to(id)),
                    _ => {
                        let fresh = !m.backward.contains(&id);
                        if fresh {
                            m.backward.push(id);
                        }
                        assert_eq!(t.add_backward(id), fresh);
                    }
                }
                let links: Vec<(u8, u32)> = m
                    .slots
                    .iter()
                    .flat_map(|(&s, ids)| ids.iter().map(move |&id| (s, id)))
                    .collect();
                assert_eq!(t.iter_outlinks().collect::<Vec<_>>(), links);
                assert_eq!(t.outdegree(), links.len());
                let occupied: Vec<u8> = m
                    .slots
                    .iter()
                    .filter(|(_, ids)| !ids.is_empty())
                    .map(|(&s, _)| s)
                    .collect();
                assert_eq!(t.occupied_slots().collect::<Vec<_>>(), occupied);
                assert_eq!(t.backward_fingers(), m.backward.as_slice());
                assert_eq!(t.indegree(), m.backward.len());
                for s in 0..KEYS {
                    assert_eq!(t.outlinks(s), m.slots.get(&s).map_or(&[][..], Vec::as_slice));
                    assert_eq!(t.memory(s), m.memory.get(&s).copied());
                }
                for peer in 0..10u32 {
                    assert_eq!(t.has_outlink_to(peer), links.iter().any(|&(_, x)| x == peer));
                }
            }
        }
    }
}
