//! Initial table construction and indegree expansion (Section 3.2,
//! Algorithms 1–2 of the paper).
//!
//! Both operations are written against the [`Directory`] trait — the
//! joining node's window onto the network — which the Cycloid
//! simulator's `Topology` in `ert-network` and mock-based tests
//! implement. A node that reaches its peers only by message runs the
//! same rules as tasks instead ([`crate::node`]).

use ert_sim::SimRng;
use rand::Rng;

use crate::params::ErtParams;

/// A node's view of the network during table construction and indegree
/// expansion.
pub trait Directory {
    /// Overlay node identifier.
    type Id: Copy + Eq + std::fmt::Debug;
    /// Routing-table slot identifier.
    type Slot: Copy + Eq + std::fmt::Debug;

    /// The slots of `node`'s table, each with the live candidates its
    /// region currently contains.
    fn table_slots(&self, node: Self::Id) -> Vec<(Self::Slot, Vec<Self::Id>)>;

    /// The slots of [`Directory::table_slots`], in its order, without
    /// their candidates.
    fn slots(&self, node: Self::Id) -> Vec<Self::Slot> {
        let slots = self.table_slots(node).into_iter();
        slots.map(|(slot, _)| slot).collect()
    }

    /// How many candidates of `node`'s `slot` other than `node` have
    /// spare indegree `d^∞ − d ≥ 1`.
    fn spare_count(&self, node: Self::Id, slot: Self::Slot) -> usize {
        let candidates = slot_candidates(self, node, slot).into_iter();
        candidates.filter(|&c| self.spare_indegree(c) >= 1).count()
    }

    /// The `i`-th of the [`spare_count`](Directory::spare_count)
    /// candidates (0-based), in candidate order.
    fn nth_spare(&self, node: Self::Id, slot: Self::Slot, i: usize) -> Option<Self::Id> {
        let candidates = slot_candidates(self, node, slot).into_iter();
        candidates.filter(|&c| self.spare_indegree(c) >= 1).nth(i)
    }

    /// `(slot-of-theirs, candidate)` pairs whose tables may legally
    /// point at `node`, in the probe order of Algorithm 1 (cubical
    /// region first, then cyclic, then ring neighbors).
    fn inlink_candidates(&self, node: Self::Id) -> Vec<(Self::Slot, Self::Id)>;

    /// `d^∞ − d` of `node` (may be negative after adaptation shrank
    /// `d^∞` below the current indegree).
    fn spare_indegree(&self, node: Self::Id) -> i64;

    /// Current indegree of `node`.
    fn indegree(&self, node: Self::Id) -> u32;

    /// Algorithm 1's one exchange per holder, "take me as a neighbour",
    /// answered yes or no: creates the double link `from → to` in
    /// `from`'s `slot` (`from` gains the outlink, `to` an inlink and a
    /// backward finger to know `from`) unless `from` already holds it.
    /// Returns `true` iff the link was created.
    ///
    /// This is exactly "ask whether the link is there, add it if not":
    /// sent back to back on a lane that neither loses nor reorders, the
    /// two reach the holder in one instant with nothing run on it in
    /// between, so the add sees the slot the query saw. A departed
    /// endpoint or a holder that does not answer takes no link
    /// (`false`): reachability is a function of the instant, so the
    /// query would have failed with the add, and a failed query passed
    /// the holder over too.
    fn link_if_absent(&mut self, from: Self::Id, slot: Self::Slot, to: Self::Id) -> bool;
}

/// The initial indegree a joining node aims for: `β·d^∞`, at least 1
/// (Section 3.2: "The initial indegree of node *i* is `βd_i^∞`").
///
/// ```
/// use ert_core::{assign::initial_indegree_target, ErtParams};
/// let params = ErtParams { beta: 0.75, ..ErtParams::default() };
/// assert_eq!(initial_indegree_target(&params, 12), 9);
/// assert_eq!(initial_indegree_target(&params, 1), 1);
/// ```
pub fn initial_indegree_target(params: &ErtParams, d_max: u32) -> u32 {
    ((params.beta * d_max as f64).round() as u32).max(1)
}

/// Builds `node`'s basic routing table: for every slot, picks one
/// neighbor from the slot's region, honoring the paper's restriction
/// that "only nodes with available capacity `d^∞ − d ≥ 1` can be the
/// joining node's neighbors".
///
/// Slot by slot, the pick is one draw `gen_range(0..count)` over the
/// [`spare_count`](Directory::spare_count) candidates with spare
/// indegree, taken through [`nth_spare`](Directory::nth_spare) — the
/// draw `rng.choose` makes over those candidates listed, so a directory
/// that can count and index them without listing them picks exactly
/// what the list would have.
///
/// When a region has members but none with spare indegree, the member
/// with the most spare (least negative) indegree is taken anyway — a
/// table without a neighbor in a populated region would break routing,
/// and the periodic adaptation will shed the excess. Among members tied
/// for the most, the *last* in candidate order is taken, and no draw is
/// made. This fallback is the only step that lists a slot's candidates.
///
/// Returns the number of links created.
pub fn build_table<D: Directory>(dir: &mut D, node: D::Id, rng: &mut SimRng) -> usize {
    let mut created = 0;
    for slot in dir.slots(node) {
        #[expect(
            clippy::expect_used,
            reason = "the draw is below `spare_count`, which `nth_spare` indexes"
        )]
        let chosen = match dir.spare_count(node, slot) {
            0 => {
                let candidates = slot_candidates(dir, node, slot).into_iter();
                match candidates.max_by_key(|&c| dir.spare_indegree(c)) {
                    Some(most) => most,
                    None => continue,
                }
            }
            count => {
                let i = rng.gen_range(0..count);
                dir.nth_spare(node, slot, i).expect("i < spare_count")
            }
        };
        if dir.link_if_absent(node, slot, chosen) {
            created += 1;
        }
    }
    created
}

/// The candidates of `node`'s `slot` other than `node`, listed.
fn slot_candidates<D: Directory + ?Sized>(dir: &D, node: D::Id, slot: D::Slot) -> Vec<D::Id> {
    let mut slots = dir.table_slots(node).into_iter();
    let candidates = slots.find(|&(s, _)| s == slot).map(|(_, c)| c);
    let candidates = candidates.into_iter().flatten();
    candidates.filter(|&c| c != node).collect()
}

/// Expands `node`'s indegree toward `target` by probing its reverse
/// regions in order (Algorithm 1): each willing candidate adds `node`
/// to the corresponding slot of its own table and `node` records a
/// backward finger.
///
/// Returns the number of inlinks gained. Stops early when the candidate
/// supply is exhausted, so the achieved indegree can fall short of
/// `target` in sparse regions.
pub fn expand_indegree<D: Directory>(dir: &mut D, node: D::Id, target: u32) -> u32 {
    if dir.indegree(node) >= target {
        // Not worth building the candidate list.
        return 0;
    }
    let mut candidates = dir.inlink_candidates(node).into_iter();
    expand_indegree_over(dir, node, target, |_| candidates.next()).gained
}

/// What one [`expand_indegree_over`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expansion {
    /// Inlinks gained.
    pub gained: u32,
    /// Candidates pulled from the sequence: each was the node itself
    /// (passed over) or was asked to link. The sequence is left at the
    /// first candidate the pass did not look at.
    pub examined: usize,
}

/// The expansion loop of [`expand_indegree`] over any candidate
/// sequence in Algorithm 1's probe order. `next` yields the sequence one
/// candidate per call; it is handed the directory so a sequence that
/// lives inside it can be read between two links (one that does
/// not passes `|_| iter.next()`). Each [`next_inlink_ask`] is answered
/// by [`Directory::link_if_absent`], so a caller that remembers where
/// the sequence stood can resume the scan there later.
pub fn expand_indegree_over<D: Directory>(
    dir: &mut D,
    node: D::Id,
    target: u32,
    mut next: impl FnMut(&D) -> Option<(D::Slot, D::Id)>,
) -> Expansion {
    let (mut gained, mut examined) = (0, 0);
    loop {
        let mut pulled = std::iter::from_fn(|| next(dir)).inspect(|_| examined += 1);
        let Some((slot, candidate)) =
            next_inlink_ask(node, dir.indegree(node), target, &mut pulled)
        else {
            return Expansion { gained, examined };
        };
        gained += u32::from(dir.link_if_absent(candidate, slot, node));
    }
}

/// Algorithm 1 one ask at a time: the next of `candidates` other than
/// `node` while its `indegree` is short of `target`, to be asked "take
/// me as a neighbour". The caller records the answer and asks for the
/// next with the indegree that left; `None` ends the scan, with
/// `candidates` at the first candidate it did not look at. A node that
/// reaches its holders only by message answers each ask by message
/// ([`crate::node`]).
pub fn next_inlink_ask<S, Id: PartialEq>(
    node: Id,
    indegree: u32,
    target: u32,
    candidates: &mut impl Iterator<Item = (S, Id)>,
) -> Option<(S, Id)> {
    if indegree >= target {
        return None;
    }
    candidates.find(|(_, candidate)| *candidate != node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prelude::ProptestConfig, prop_assert_eq};
    use std::collections::BTreeMap;

    /// A two-slot toy overlay: every node's table has slots 0 and 1;
    /// slot-0 candidates are even ids, slot-1 candidates odd ids.
    #[derive(Clone)]
    struct MockDir {
        members: Vec<u32>,
        d_max: BTreeMap<u32, i64>,
        links: Vec<(u32, u8, u32)>,
        indegree: BTreeMap<u32, u32>,
        /// Holders that do not answer: they take no link.
        silent: Vec<u32>,
    }

    impl MockDir {
        fn new(members: &[u32], d_max: i64) -> Self {
            MockDir {
                members: members.to_vec(),
                d_max: members.iter().map(|&m| (m, d_max)).collect(),
                links: Vec::new(),
                indegree: BTreeMap::new(),
                silent: Vec::new(),
            }
        }

        /// The query half of the two-call spelling `link_if_absent`
        /// replaced; a holder that does not answer is reported as
        /// linked, which is how that spelling passed over it.
        fn has_link(&self, from: u32, slot: u8, to: u32) -> bool {
            self.silent.contains(&from) || self.links.contains(&(from, slot, to))
        }

        /// The add half: only ever called after `has_link` said no.
        fn add_link(&mut self, from: u32, slot: u8, to: u32) {
            assert!(!self.has_link(from, slot, to), "duplicate link");
            self.links.push((from, slot, to));
            *self.indegree.entry(to).or_insert(0) += 1;
        }
    }

    impl Directory for MockDir {
        type Id = u32;
        type Slot = u8;

        fn table_slots(&self, node: u32) -> Vec<(u8, Vec<u32>)> {
            let evens = self
                .members
                .iter()
                .copied()
                .filter(|m| m % 2 == 0 && *m != node);
            let odds = self
                .members
                .iter()
                .copied()
                .filter(|m| m % 2 == 1 && *m != node);
            vec![(0, evens.collect()), (1, odds.collect())]
        }

        fn inlink_candidates(&self, node: u32) -> Vec<(u8, u32)> {
            let slot = (node % 2) as u8;
            self.members
                .iter()
                .copied()
                .filter(|&m| m != node)
                .map(|m| (slot, m))
                .collect()
        }

        fn spare_indegree(&self, node: u32) -> i64 {
            self.d_max[&node] - self.indegree.get(&node).copied().unwrap_or(0) as i64
        }

        fn indegree(&self, node: u32) -> u32 {
            self.indegree.get(&node).copied().unwrap_or(0)
        }

        fn link_if_absent(&mut self, from: u32, slot: u8, to: u32) -> bool {
            let absent = !self.has_link(from, slot, to);
            if absent {
                self.add_link(from, slot, to);
            }
            absent
        }
    }

    /// `expand_indegree_over` as it was spelled over `has_link` +
    /// `add_link`: the model the one-call loop is held to.
    fn model_expand_over(
        dir: &mut MockDir,
        node: u32,
        target: u32,
        mut next: impl FnMut() -> Option<(u8, u32)>,
    ) -> Expansion {
        let mut done = Expansion {
            gained: 0,
            examined: 0,
        };
        while dir.indegree(node) < target {
            let Some((slot, candidate)) = next() else {
                break;
            };
            done.examined += 1;
            if candidate == node || dir.has_link(candidate, slot, node) {
                continue;
            }
            dir.add_link(candidate, slot, node);
            done.gained += 1;
        }
        done
    }

    /// `build_table` over the same two calls.
    fn model_build_table(dir: &mut MockDir, node: u32, rng: &mut SimRng) -> usize {
        let mut created = 0;
        for (slot, candidates) in dir.table_slots(node) {
            let candidates: Vec<u32> = candidates.into_iter().filter(|&c| c != node).collect();
            if candidates.is_empty() {
                continue;
            }
            let with_spare: Vec<u32> = candidates
                .iter()
                .copied()
                .filter(|&c| dir.spare_indegree(c) >= 1)
                .collect();
            let chosen = if with_spare.is_empty() {
                candidates
                    .iter()
                    .copied()
                    .max_by_key(|&c| dir.spare_indegree(c))
                    .unwrap()
            } else {
                *rng.choose(&with_spare).unwrap()
            };
            if !dir.has_link(node, slot, chosen) {
                dir.add_link(node, slot, chosen);
                created += 1;
            }
        }
        created
    }

    /// An arbitrary world around node 0: up to eleven peers with mixed
    /// `d_max`, links that already exist (some of them 0's own, some
    /// pointing at 0), and holders that do not answer.
    fn arbitrary_world(rng: &mut SimRng) -> MockDir {
        let mut members = vec![0u32];
        members.extend((1..12).filter(|_| rng.gen_bool(0.7)));
        let mut dir = MockDir::new(&members, 0);
        for &m in &members {
            dir.d_max.insert(m, rng.gen_range(0..4));
        }
        for _ in 0..rng.gen_range(0..12) {
            let (from, to) = (
                *rng.choose(&members).unwrap(),
                *rng.choose(&members).unwrap(),
            );
            let slot = rng.gen_range(0..2);
            if from != to && !dir.links.contains(&(from, slot, to)) {
                dir.links.push((from, slot, to));
                *dir.indegree.entry(to).or_insert(0) += 1;
            }
        }
        dir.silent = members[1..]
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.2))
            .collect();
        dir
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Two passes over one candidate sequence — node 0 itself,
        /// repeated holders, linked and silent ones included — gain the
        /// same links in the same order, report the same `Expansion`s
        /// and leave the sequence at the same place as the two-call
        /// model.
        #[test]
        fn one_call_expansion_matches_the_query_then_add_model(
            seed in 0u64..100_000,
            first_target in 0u32..8,
            more in 0u32..8,
        ) {
            let mut rng = SimRng::seed_from(seed);
            let mut model = arbitrary_world(&mut rng);
            let mut world = model.clone();
            let sequence: Vec<(u8, u32)> = (0..rng.gen_range(0..30))
                .map(|_| (rng.gen_range(0..2), *rng.choose(&model.members).unwrap()))
                .collect();
            let (mut theirs, mut ours) = (sequence.iter().copied(), sequence.iter().copied());
            for target in [first_target, first_target + more] {
                let expected = model_expand_over(&mut model, 0, target, || theirs.next());
                let got = expand_indegree_over(&mut world, 0, target, |_| ours.next());
                prop_assert_eq!(got, expected);
                prop_assert_eq!(&world.links, &model.links);
                prop_assert_eq!(&world.indegree, &model.indegree);
                prop_assert_eq!(ours.len(), theirs.len(), "resume position");
            }
        }

        /// `build_table` picks, links and draws exactly as the two-call
        /// model does, a pick that is already linked included.
        #[test]
        fn one_call_table_build_matches_the_query_then_add_model(seed in 0u64..100_000) {
            let mut rng = SimRng::seed_from(seed);
            let mut model = arbitrary_world(&mut rng);
            let mut world = model.clone();
            // Twin generators from one seed, not a clone and a move: a
            // release build of rustc 1.95 can fold `f(rng.clone())` and
            // `f(rng)` for a by-value closure `f` into one argument that
            // the first call advances.
            let twin = rng.gen();
            let (mut their_rng, mut our_rng) = (SimRng::seed_from(twin), SimRng::seed_from(twin));
            let expected = model_build_table(&mut model, 0, &mut their_rng);
            let got = build_table(&mut world, 0, &mut our_rng);
            prop_assert_eq!(got, expected);
            prop_assert_eq!(&world.links, &model.links);
            prop_assert_eq!(&world.indegree, &model.indegree);
            prop_assert_eq!(our_rng.gen::<u64>(), their_rng.gen::<u64>());
        }
    }

    #[test]
    fn build_table_fills_every_populated_slot() {
        let mut dir = MockDir::new(&[2, 3, 4, 5], 10);
        let mut rng = SimRng::seed_from(1);
        let created = build_table(&mut dir, 2, &mut rng);
        assert_eq!(created, 2); // one even, one odd neighbor
        assert!(dir.links.iter().all(|&(from, _, to)| from == 2 && to != 2));
    }

    #[test]
    fn build_table_prefers_nodes_with_spare_indegree() {
        let mut dir = MockDir::new(&[2, 4, 6], 10);
        dir.d_max.insert(4, 0); // node 4 is saturated
        let mut rng = SimRng::seed_from(2);
        for _ in 0..10 {
            dir.links.clear();
            dir.indegree.clear();
            build_table(&mut dir, 6, &mut rng);
            assert_eq!(dir.links, vec![(6, 0, 2)], "must avoid saturated node 4");
        }
    }

    #[test]
    fn build_table_falls_back_when_all_saturated() {
        let mut dir = MockDir::new(&[2, 4], 10);
        dir.d_max.insert(2, 0);
        let mut rng = SimRng::seed_from(3);
        let created = build_table(&mut dir, 4, &mut rng);
        // Slot 0's only member (2) is saturated but still linked.
        assert_eq!(created, 1);
        assert_eq!(dir.links, vec![(4, 0, 2)]);
    }

    #[test]
    fn build_table_fallback_takes_the_last_of_the_tied_members() {
        // Node 6's slot-0 candidates, in order: 2 over-full, then 4 and
        // 8 saturated alike. Slot 1 has nobody.
        let mut dir = MockDir::new(&[2, 4, 6, 8], 0);
        dir.indegree.insert(2, 1);
        let mut rng = SimRng::seed_from(4);
        assert_eq!(build_table(&mut dir, 6, &mut rng), 1);
        assert_eq!(dir.links, vec![(6, 0, 8)]);
        // The fallback draws nothing.
        assert_eq!(rng.gen::<u64>(), SimRng::seed_from(4).gen::<u64>());
    }

    #[test]
    fn expand_indegree_reaches_target() {
        let mut dir = MockDir::new(&[1, 2, 3, 4, 5, 6], 10);
        let gained = expand_indegree(&mut dir, 2, 3);
        assert_eq!(gained, 3);
        assert_eq!(dir.indegree(2), 3);
        // Every created link points at node 2 in its probe slot.
        assert!(dir.links.iter().all(|&(_, slot, to)| to == 2 && slot == 0));
    }

    #[test]
    fn expand_indegree_stops_when_candidates_run_out() {
        let mut dir = MockDir::new(&[1, 2], 10);
        let gained = expand_indegree(&mut dir, 2, 5);
        assert_eq!(gained, 1); // only node 1 can point at 2
        assert_eq!(dir.indegree(2), 1);
    }

    #[test]
    fn expand_indegree_noop_when_already_at_target() {
        let mut dir = MockDir::new(&[1, 2, 3], 10);
        expand_indegree(&mut dir, 2, 2);
        let before = dir.links.len();
        assert_eq!(expand_indegree(&mut dir, 2, 2), 0);
        assert_eq!(dir.links.len(), before);
    }

    #[test]
    fn a_resumed_scan_examines_only_what_the_first_pass_left() {
        let mut dir = MockDir::new(&[1, 2, 3, 4, 5, 6], 10);
        let mut candidates = dir.inlink_candidates(2).into_iter();
        let first = expand_indegree_over(&mut dir, 2, 2, |_| candidates.next());
        assert_eq!((first.gained, first.examined), (2, 2));
        // Nothing is pulled once the target is met.
        let idle = expand_indegree_over(&mut dir, 2, 2, |_| candidates.next());
        assert_eq!((idle.gained, idle.examined), (0, 0));
        let second = expand_indegree_over(&mut dir, 2, 9, |_| candidates.next());
        assert_eq!((second.gained, second.examined), (3, 3));
        // The two passes together did what one from-scratch pass does.
        let mut fresh = MockDir::new(&[1, 2, 3, 4, 5, 6], 10);
        expand_indegree(&mut fresh, 2, 9);
        assert_eq!(dir.links, fresh.links);
    }

    #[test]
    fn target_formula() {
        let p = ErtParams {
            beta: 0.5,
            ..ErtParams::default()
        };
        assert_eq!(initial_indegree_target(&p, 11), 6); // round(5.5)
        assert_eq!(initial_indegree_target(&p, 0), 1);
    }
}
