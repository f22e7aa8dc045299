//! The overlay-geometry abstraction of the mini platforms.

use ert_core::ElasticTable;
use ert_overlay::ArcMembers;

/// The candidates one routing hop may use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopCandidates {
    /// The table slot the candidates belong to (memory is keyed on it).
    pub slot: u16,
    /// The candidate next hops (live by construction — the mini
    /// platforms have no churn).
    pub ids: Vec<u64>,
    /// The fresh contents of `slot` when the hop fell back to the
    /// geometry's structural list (the successor list on Chord, the
    /// leaf set on Pastry): the node writes them into `slot` through
    /// `ErtNode`, the one writer of its slots.
    pub refreshed: Option<Vec<u64>>,
}

/// What a DHT geometry must provide to run on [`crate::MiniDht`].
///
/// Identifiers are `u64`; table slots are opaque `u16` values the
/// geometry defines (e.g. the finger index on Chord, `row·base + col`
/// on Pastry). *Structural* slots (successor lists, leaf sets, tiny
/// regions every table must fill) do not consume elastic indegree.
pub trait Geometry {
    /// Display name for reports ("Chord", "Pastry").
    fn name(&self) -> &'static str;

    /// The live member IDs, ascending (node construction maps them 1:1
    /// onto capacities, and a driver's [`crate::PeerIndex`] indexes
    /// them).
    fn members(&self) -> Vec<u64>;

    /// The live node owning `key`, or `None` on an empty overlay.
    fn owner(&self, key: u64) -> Option<u64>;

    /// A uniformly random key.
    fn random_key(&self, rng: &mut ert_sim::SimRng) -> u64;

    /// The slots of `node`'s table but the sentinel, in table order,
    /// each with the live candidates its region holds (empty regions
    /// omitted), borrowed from the membership. No region holds `node`.
    fn region_slots(&self, node: u64) -> impl Iterator<Item = (u16, ArcMembers<'_>)> + '_;

    /// The last slot of `node`'s table and its members, which are a
    /// list rather than a region: the successor list on Chord, the
    /// leaf set on Pastry.
    fn sentinel_slot(&self, node: u64) -> (u16, Vec<u64>);

    /// The slots of `node`'s table with the live candidates each
    /// region currently holds (empty regions omitted): the region
    /// slots copied out, then the sentinel.
    fn table_slots(&self, node: u64) -> Vec<(u16, Vec<u64>)> {
        let regions = self
            .region_slots(node)
            .map(|(slot, members)| (slot, members.to_vec()));
        regions.chain([self.sentinel_slot(node)]).collect()
    }

    /// `(slot-of-theirs, candidate)` pairs whose tables may legally
    /// point at `node`, scarcest slots first — the probe order of the
    /// indegree-expansion algorithm. With `after`, the pairs that
    /// follow that one in the order.
    ///
    /// The order is stable at a fixed membership — a function of the
    /// geometry and `node` alone — so a pair the iterator yielded names
    /// a position a later call can resume from. Evaluated lazily, one
    /// region scan at a time: reaching the first pair costs O(log n),
    /// each further pair O(1) amortized, and nothing is allocated.
    ///
    /// *One elastic slot per holder.* Each holder appears at most once,
    /// paired with the only non-structural slot of its table whose
    /// region holds `node`: on Chord the unique finger `m` with
    /// `node ∈ [h + 2^m, h + 2^(m+1))`, on Pastry the row of the shared
    /// prefix and `node`'s digit in it. A holder's "added" answer to
    /// Algorithm 1 therefore means it held `node` in no elastic slot,
    /// which is what lets the asker record the inlink without searching
    /// its backward fingers (`Window::link_if_absent`).
    fn inlink_candidates(
        &self,
        node: u64,
        after: Option<(u16, u64)>,
    ) -> impl Iterator<Item = (u16, u64)> + '_;

    /// Whether a slot is structural (does not consume elastic
    /// indegree and is exempt from the spare-indegree restriction).
    fn is_structural(&self, slot: u16) -> bool;

    /// The geometry's preferred single neighbor for `slot` under the
    /// classic (non-elastic) protocol, given the region's members.
    fn classic_pick(&self, node: u64, slot: u16, members: ArcMembers<'_>) -> Option<u64>;

    /// Routing candidates for one hop from `cur` toward `owner`, read
    /// from the node's table; a hop that falls back to the structural
    /// list hands back its refresh in [`HopCandidates::refreshed`]
    /// instead of writing the table. `numeric_mode` is per-query sticky
    /// state: once a geometry falls back to its numeric/ring endgame it
    /// stays there (guaranteeing termination).
    fn hop_candidates(
        &self,
        cur: u64,
        owner: u64,
        table: &ElasticTable<u16, u64>,
        numeric_mode: &mut bool,
    ) -> HopCandidates;

    /// Estimated remaining distance from `from` to `owner`; smaller is
    /// closer. Used to score forwarding candidates.
    fn metric(&self, from: u64, owner: u64) -> u64;
}

/// Shared by the geometries' tests: resuming after any yielded pair
/// gives exactly the rest of the from-the-top order.
#[cfg(test)]
pub(crate) fn assert_inlink_scan_resumes(g: &impl Geometry) {
    for node in g.members().into_iter().step_by(17) {
        let all: Vec<(u16, u64)> = g.inlink_candidates(node, None).collect();
        assert!(all.len() > 20);
        for (i, &pair) in all.iter().enumerate() {
            let rest: Vec<(u16, u64)> = g.inlink_candidates(node, Some(pair)).collect();
            assert_eq!(rest, all[i + 1..], "node {node}, after {pair:?}");
        }
    }
}

/// Shared by the geometries' tests: the contract that lets an "added"
/// answer be recorded without a search. No holder repeats in a node's
/// inlink candidates, and each is paired with the one non-structural
/// slot of its own table whose region holds the node.
#[cfg(test)]
pub(crate) fn assert_one_elastic_slot_per_holder(g: &impl Geometry) {
    let mut pairs = 0;
    for node in g.members().into_iter().step_by(7) {
        let mut seen = std::collections::BTreeSet::new();
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
