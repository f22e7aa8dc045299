//! The live overlay: nodes, hosts, registry, and every table operation
//! the protocols perform (construction, expansion, shedding, repair,
//! and routing-candidate assembly).

// D6 of DESIGN.md "Determinism & Safety Rules": fault-handling code never
// discards an outcome silently — handle it or bind a named `_reason`.
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

use ert_core::{
    adapt_step, assign::initial_indegree_target, build_table, expand_indegree,
    expand_indegree_over, select_shed_victims, AdaptAction, AdaptStep, Directory, ErtParams,
    Expansion, ShedCandidate,
};
use ert_overlay::{
    ring::forward_distance, Bitmap, CycloidId, CycloidRegion, CycloidRegistry, CycloidSpace,
    InlinkCursor, InlinkScan, LandmarkFrame, RouteStep, SlotKind,
};
use ert_sim::SimRng;
use rand::Rng;
use std::ops::Range;

use crate::sanitize::Sanitizer;
use crate::spec::{CycloidSlot, TablePolicy};
use crate::state::{Host, OverlayNode, UNSTAMPED};

/// One change to what [`Topology`]'s derived structures are derived
/// from; nodes are slab indices. A purge drops only links to departed
/// nodes, which no structure depends on, and is not one.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// The node just put on the slab joins on its ID and host.
    Join(usize),
    /// The node leaves, if it has not already. Its table stays for
    /// post-run metrics; links to it go stale.
    Leave(usize),
    /// `from` holds `to` in a slot — its caller has just put it there,
    /// or found it there — and `to` records the backward finger: one
    /// double link. The caller takes the outlink because whether
    /// Algorithm 1 links at all is its answer. `finger_missing` says
    /// the caller has just found the finger absent, so that no link
    /// scans `to`'s backward list twice.
    Link {
        from: usize,
        to: usize,
        finger_missing: bool,
    },
    /// `node` drops the inlink of `holder`, which, if still live, drops
    /// `node` from every slot.
    Shed { node: usize, holder: CycloidId },
    /// `node`'s `d^∞` is set.
    SetDMax { node: usize, d_max: u32 },
}

/// Routing candidates for one hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteCandidates {
    /// The table slot the candidates came from (`None` for ascend steps,
    /// which are assembled from the membership view).
    pub slot: Option<CycloidSlot>,
    /// The candidate next hops. May include departed nodes when
    /// `filter_dead` was false — discovering those is how timeouts
    /// happen.
    pub ids: Vec<CycloidId>,
    /// The live node owning the key — the routing target the candidates
    /// make progress toward.
    pub owner: CycloidId,
    /// Whether the geometric step dead-ended (empty region / nothing to
    /// ascend to) and the candidates are a ring fallback. The caller
    /// should route the query by ring from here on: in sparse overlays,
    /// re-attempting the geometric descent can oscillate, while the ring
    /// walk is monotone — the same degradation real Cycloid exhibits
    /// when routing tables cannot be filled.
    pub fell_back: bool,
}

/// `id_index` entry of an ID no live node holds.
const VACANT: u32 = u32::MAX;

/// One host's degree watermark (see [`Topology::on_marks`]): 12
/// bytes, so the record of every host of an n = 8192 world is 96 KiB.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct DegreeMark {
    /// Overlay nodes the host backs, departed ones included: the length
    /// of its `nodes` list.
    backed: u32,
    /// Largest total indegree sampled.
    max_in: u32,
    /// Largest total outdegree sampled.
    max_out: u32,
}

/// The overlay state shared by every protocol: membership, tables,
/// hosts, and the geometric helpers.
///
/// Six structures are derived from membership, links and `d^∞`: the
/// ID index, the spare index, each node's scan cursor and ring-slot
/// stamp, the per-host degree marks, and the fresh-ID record that lets
/// Algorithm 1 skip the holder's slot scan. Every change to those inputs
/// is a `Mutation`, made only by `Topology::apply`, which hands it to
/// each structure's `on_*` arms: the structure's only writers, whose
/// doc comment is the argument that keeps it exact. Each structure has
/// one `check_*` holding it to that argument: armed builds run it on
/// the entry about to be trusted, the cold-twin test on the whole
/// structure after every step.
#[derive(Debug)]
pub struct Topology {
    /// The Cycloid ID space.
    pub space: CycloidSpace,
    /// Live membership.
    pub registry: CycloidRegistry,
    /// Ring position (`space.lin(id)`) → slab index of the live node
    /// holding the ID, [`VACANT`] where none does (see
    /// [`Topology::on_id_index`]). One entry per ID of the space
    /// (`d·2^d`, never more than twice the population the dimension was
    /// chosen for), so resolving an ID is an array read.
    id_index: Vec<u32>,
    /// The spare index, in the registry's region order (bit
    /// `space.k_major(id)`; see [`Topology::on_spare`]).
    spare: Bitmap,
    /// The fresh-ID record: bit `space.lin(id)` is set once any node has
    /// joined on `id` (see [`Topology::on_fresh`]).
    joined: Bitmap,
    /// All overlay nodes ever created (departed ones keep their slot).
    pub nodes: Vec<OverlayNode>,
    /// All hosts ever created (departed ones keep their slot).
    pub hosts: Vec<Host>,
    /// Per-host degree watermarks, host for host (see
    /// [`Topology::on_marks`]).
    marks: Vec<DegreeMark>,
    /// Table construction policy.
    pub table_policy: TablePolicy,
    /// ERT parameters (also carries the leaf window).
    pub params: ErtParams,
    /// When present, physical distances are estimated from landmark
    /// vectors instead of exact coordinates.
    pub landmarks: Option<LandmarkFrame>,
    /// Elastic link operations performed (adds, sheds, purges): the
    /// maintenance-message count of Section 5.3.
    pub link_ops: u64,
    /// Bumped by every join and leave: what the scan cursors and the
    /// ring-slot stamps are stamped with.
    membership_epoch: u64,
    /// Derived-state checks run (0 in plain release builds, where only
    /// tests run them).
    pub(crate) derived_checks: u64,
}

impl Topology {
    /// Creates an empty overlay.
    pub fn new(space: CycloidSpace, table_policy: TablePolicy, params: ErtParams) -> Self {
        Topology {
            space,
            registry: CycloidRegistry::new(space),
            id_index: vec![VACANT; space.ring_size() as usize],
            spare: Bitmap::new(space.ring_size()),
            joined: Bitmap::new(space.ring_size()),
            nodes: Vec::new(),
            hosts: Vec::new(),
            marks: Vec::new(),
            table_policy,
            params,
            landmarks: None,
            link_ops: 0,
            membership_epoch: 0,
            derived_checks: 0,
        }
    }

    /// Registers a host; returns its index. Under the landmarking
    /// distance model the host measures its landmark vector on arrival.
    pub fn add_host(&mut self, mut host: Host) -> usize {
        if let Some(frame) = &self.landmarks {
            host.landmark_vec = Some(frame.vector(host.coord));
        }
        self.hosts.push(host);
        self.marks.push(DegreeMark::default());
        self.hosts.len() - 1
    }

    /// Registers an overlay node on `host` with the given `d^∞`;
    /// returns its index. The node joins the membership immediately.
    ///
    /// # Panics
    ///
    /// Panics if the ID is already live.
    pub fn add_node(&mut self, id: CycloidId, host: usize, d_max: u32) -> usize {
        let node = self.nodes.len();
        self.nodes.push(OverlayNode::new(id, host, d_max));
        self.apply(Mutation::Join(node));
        node
    }

    /// Removes `node` from the overlay (its table state is kept for
    /// post-run metrics; other nodes' links to it go stale and are
    /// discovered lazily).
    pub fn remove_node(&mut self, node: usize) {
        self.apply(Mutation::Leave(node));
    }

    /// Sets `node`'s `d^∞` — after the join, the one way to.
    pub fn set_d_max(&mut self, node: usize, d_max: u32) {
        self.apply(Mutation::SetDMax { node, d_max });
    }

    /// Makes `m`, then moves every derived structure with it: the ID
    /// index first, since the spare index reads holders through it.
    /// Inlined, so that each caller runs only its own mutation's arms:
    /// the link path is Algorithm 1's inner loop.
    #[inline(always)]
    fn apply(&mut self, m: Mutation) {
        match m {
            Mutation::Join(node) => {
                let (id, host) = (self.nodes[node].id, self.nodes[node].host);
                assert!(self.registry.insert(id), "duplicate live id {id}");
                self.hosts[host].nodes.push(node);
                self.membership_epoch += 1;
            }
            Mutation::Leave(node) => {
                let node = &mut self.nodes[node];
                // A node that left before may have seen its ID reused.
                if std::mem::replace(&mut node.alive, false) {
                    self.registry.remove(node.id);
                }
                self.membership_epoch += 1;
            }
            Mutation::Link {
                from,
                to,
                finger_missing,
            } => {
                let from_id = self.nodes[from].id;
                let table = &mut self.nodes[to].table;
                if finger_missing {
                    table.push_backward(from_id);
                } else {
                    table.add_backward(from_id);
                }
                self.link_ops += 1;
            }
            Mutation::Shed { node, holder } => {
                let id = self.nodes[node].id;
                if let Some(h) = self.node_idx(holder) {
                    for slot in [
                        CycloidSlot::Cubical,
                        CycloidSlot::Cyclic,
                        CycloidSlot::RingSucc,
                        CycloidSlot::RingPred,
                    ] {
                        self.nodes[h].table.remove_outlink(slot, id);
                    }
                }
                self.nodes[node].table.remove_backward(holder);
                self.link_ops += 1;
            }
            Mutation::SetDMax { node, d_max } => self.nodes[node].d_max = d_max,
        }
        self.on_id_index(m);
        self.on_spare(m);
        self.on_scan(m);
        self.on_ring_stamp(m);
        self.on_marks(m);
        self.on_fresh(m);
    }

    /// The ID index's writers. It is exact: only a join makes a node
    /// live on an ID, and only on one no live node holds (the registry
    /// insert asserts that), and only a leave ends that. A departed
    /// node that leaves again finds its entry cleared or, if the ID was
    /// reused, naming the newer node, and leaves it.
    fn on_id_index(&mut self, m: Mutation) {
        match m {
            Mutation::Join(node) => {
                // An index that aliased VACANT would corrupt the entry.
                assert!(node < VACANT as usize, "node slab fits the u32 index");
                let lin = self.space.lin(self.nodes[node].id) as usize;
                self.id_index[lin] = node as u32;
            }
            Mutation::Leave(node) => {
                let entry = &mut self.id_index[self.space.lin(self.nodes[node].id) as usize];
                if *entry as usize == node {
                    *entry = VACANT;
                }
            }
            _ => {}
        }
    }

    /// What the ID index holds: each live node's slab index at its ID,
    /// [`VACANT`] elsewhere.
    #[cfg(test)]
    fn live_holders(&self) -> Vec<u32> {
        let mut holders = vec![VACANT; self.id_index.len()];
        for (i, n) in self.nodes.iter().enumerate().filter(|(_, n)| n.alive) {
            holders[self.space.lin(n.id) as usize] = i as u32;
        }
        holders
    }

    /// Checks the whole ID index against [`Topology::live_holders`], and
    /// the registry against it: an ID is a member iff a live node holds
    /// it.
    #[cfg(test)]
    fn check_id_index(&mut self) {
        let holders = self.live_holders();
        for (lin, (&entry, &holder)) in self.id_index.iter().zip(&holders).enumerate() {
            let id = self.space.from_lin(lin as u64);
            let member = self.registry.contains(id);
            assert!(
                entry == holder && member == (holder != VACANT),
                "sanitize: ID index entry of {id} is {entry} (a member: {member}), but its live \
                 holder is {holder}"
            );
        }
        self.derived_checks += 1;
    }

    /// The spare index's writers. Bit `space.k_major(id)` is set iff
    /// the live holder of `id` has spare indegree `d^∞ − d ≥ 1`
    /// ([`Topology::has_spare`]): a function of who holds the ID,
    /// whether it is live, its `d^∞` and its indegree. It is exact:
    /// every mutation that moves one of those for a node updates that
    /// node's bit. A join, a shed (the shedder's indegree falls) and a
    /// `d^∞` write re-read the node, if live: a live node holds its ID,
    /// while a departed one's bit belongs to the ID's next holder. A
    /// leave re-reads the ID's holder. A link only raises the target's
    /// indegree, so it clears the target's bit once its spare is gone.
    fn on_spare(&mut self, m: Mutation) {
        match m {
            Mutation::Leave(node) => self.sync_spare(self.nodes[node].id),
            Mutation::Link { to, .. } => {
                let n = &self.nodes[to];
                if n.spare_indegree() < 1 {
                    self.spare.set(self.space.k_major(n.id), false);
                }
            }
            Mutation::Join(node) | Mutation::Shed { node, .. } | Mutation::SetDMax { node, .. } => {
                let n = &self.nodes[node];
                if n.alive {
                    self.spare
                        .set(self.space.k_major(n.id), n.spare_indegree() >= 1);
                }
            }
        }
    }

    /// Sets `id`'s bit of the spare index to [`Topology::has_spare`].
    fn sync_spare(&mut self, id: CycloidId) {
        let bit = self.has_spare(id);
        self.spare.set(self.space.k_major(id), bit);
    }

    /// Whether a live node holds `id` with spare indegree `d^∞ − d ≥ 1`.
    fn has_spare(&self, id: CycloidId) -> bool {
        self.node_idx(id)
            .is_some_and(|i| self.nodes[i].spare_indegree() >= 1)
    }

    /// Checks the spare index's `bits` against [`Topology::has_spare`].
    fn check_spare(&mut self, bits: Range<u64>) {
        let cube = self.space.cube_size();
        for bit in bits {
            let id = self.space.id((bit / cube) as u8, (bit % cube) as u32);
            assert!(
                self.spare.get(bit) == self.has_spare(id),
                "sanitize: spare index bit of {id} is {}, against its live holder's spare indegree",
                self.spare.get(bit)
            );
        }
        self.derived_checks += 1;
    }

    /// The slab index currently holding `id`, if the ID is live: one
    /// read of the ID index, which is exact (see
    /// `Topology::on_id_index`). Armed builds check that the entry
    /// names a live node.
    pub fn node_idx(&self, id: CycloidId) -> Option<usize> {
        let entry = *self.id_index.get(self.space.lin(id) as usize)?;
        if entry == VACANT {
            return None;
        }
        if Sanitizer::ACTIVE {
            assert!(
                self.nodes[entry as usize].alive,
                "sanitize: ID index entry of {id} names departed node {entry}"
            );
        }
        Some(entry as usize)
    }

    /// Whether `id` is a live overlay node.
    pub fn is_alive(&self, id: CycloidId) -> bool {
        self.node_idx(id).is_some()
    }

    /// The host backing the live node `id`, if any.
    pub fn host_of_id(&self, id: CycloidId) -> Option<usize> {
        self.node_idx(id).map(|i| self.nodes[i].host)
    }

    /// Physical distance between the hosts of two live nodes (0 when
    /// either is unknown — distance then simply stops discriminating).
    /// Exact coordinate distance by default; the landmark estimate when
    /// the landmarking model is enabled.
    pub fn phys_dist(&self, a: CycloidId, b: CycloidId) -> f64 {
        let (ha, hb) = match (self.host_of_id(a), self.host_of_id(b)) {
            (Some(ha), Some(hb)) => (ha, hb),
            _ => return 0.0,
        };
        if let (Some(frame), Some(va), Some(vb)) = (
            &self.landmarks,
            &self.hosts[ha].landmark_vec,
            &self.hosts[hb].landmark_vec,
        ) {
            return frame.estimate(va, vb);
        }
        self.hosts[ha].coord.distance(self.hosts[hb].coord)
    }

    /// Estimated remaining overlay distance from `from` to `key`:
    /// descending and ascending hops dominate (weighted by `4d`), with a
    /// sub-dominant ring-distance term so candidates in the same
    /// geometric class compare by ring closeness. Smaller is closer.
    pub fn logical_metric(&self, from: CycloidId, key: CycloidId) -> u64 {
        if from == key {
            return 0;
        }
        let d = self.space.dim() as u64;
        let fwd = forward_distance(
            self.space.lin(from),
            self.space.lin(key),
            self.space.ring_size(),
        );
        let ring = fwd.min(self.space.ring_size() - fwd);
        if from.a() == key.a() {
            return ring;
        }
        let m = (31 - (from.a() ^ key.a()).leading_zeros()) as u64;
        let ascend = m.saturating_sub(from.k() as u64);
        // Ring term scaled below 4d so it only breaks class ties.
        4 * d * (m + 1 + ascend) + ring * 4 * d / self.space.ring_size()
    }

    /// The live region member whose cubical ID is closest to `ideal_a`
    /// (the classic Cycloid neighbor choice), excluding `exclude`.
    fn closest_in_region(
        &self,
        region: CycloidRegion,
        ideal_a: u32,
        exclude: CycloidId,
    ) -> Option<CycloidId> {
        self.registry
            .nodes_in_region(region)
            .into_iter()
            .filter(|&m| m != exclude)
            .min_by_key(|&m| self.space.cube_dist(m.a(), ideal_a))
    }

    /// The classic pair of cyclic neighbors: the region members with the
    /// closest-larger and closest-smaller cubical IDs relative to `a`.
    fn cyclic_pair(&self, region: CycloidRegion, a: u32, exclude: CycloidId) -> Vec<CycloidId> {
        let members: Vec<CycloidId> = self
            .registry
            .nodes_in_region(region)
            .into_iter()
            .filter(|&m| m != exclude)
            .collect();
        let cube = self.space.cube_size();
        let Some(larger) = members
            .iter()
            .copied()
            .min_by_key(|m| forward_distance(a as u64, m.a() as u64, cube))
        else {
            return Vec::new();
        };
        let smaller = members
            .iter()
            .copied()
            .filter(|&m| m != larger)
            .min_by_key(|m| forward_distance(m.a() as u64, a as u64, cube));
        let mut out = vec![larger];
        out.extend(smaller);
        out
    }

    /// The highest-capacity region member with spare indegree (ties by
    /// physical proximity to `node`), falling back to the most-spare
    /// member — the NS neighbor choice.
    fn highest_capacity_in_region(
        &self,
        region: CycloidRegion,
        node: CycloidId,
        already: &[CycloidId],
    ) -> Option<CycloidId> {
        let members: Vec<CycloidId> = self
            .registry
            .nodes_in_region(region)
            .into_iter()
            .filter(|&m| m != node && !already.contains(&m))
            .collect();
        if members.is_empty() {
            return None;
        }
        let capacity = |id: CycloidId| {
            self.host_of_id(id)
                .map_or(0.0, |h| self.hosts[h].est_capacity)
        };
        let with_spare: Vec<CycloidId> = members
            .iter()
            .copied()
            .filter(|&m| self.has_spare(m))
            .collect();
        let pool = if with_spare.is_empty() {
            &members
        } else {
            &with_spare
        };
        pool.iter().copied().max_by(|&x, &y| {
            capacity(x).total_cmp(&capacity(y)).then_with(|| {
                // Prefer physically *closer* on capacity ties.
                self.phys_dist(node, y).total_cmp(&self.phys_dist(node, x))
            })
        })
    }

    /// Builds `node`'s routing table according to the topology's
    /// [`TablePolicy`], and for the elastic policy also expands the
    /// indegree toward `β·d^∞`. Ring slots are refreshed afterwards.
    pub fn build_node_table(&mut self, node: usize, rng: &mut SimRng) {
        let id = self.nodes[node].id;
        match self.table_policy {
            TablePolicy::SingleClosest => {
                if let Some(region) = self.space.cubical_region(id) {
                    let ideal = id.a() ^ (1u32 << id.k());
                    if let Some(n) = self.closest_in_region(region, ideal, id) {
                        self.add_link(id, CycloidSlot::Cubical, n);
                    }
                }
                if let Some(region) = self.space.cyclic_region(id) {
                    for n in self.cyclic_pair(region, id.a(), id) {
                        self.add_link(id, CycloidSlot::Cyclic, n);
                    }
                }
            }
            TablePolicy::SingleHighestCapacity => {
                if let Some(region) = self.space.cubical_region(id) {
                    if let Some(n) = self.highest_capacity_in_region(region, id, &[]) {
                        self.add_link(id, CycloidSlot::Cubical, n);
                    }
                }
                if let Some(region) = self.space.cyclic_region(id) {
                    if let Some(first) = self.highest_capacity_in_region(region, id, &[]) {
                        self.add_link(id, CycloidSlot::Cyclic, first);
                        if let Some(second) = self.highest_capacity_in_region(region, id, &[first])
                        {
                            self.add_link(id, CycloidSlot::Cyclic, second);
                        }
                    }
                }
            }
            TablePolicy::Elastic => {
                if Sanitizer::ACTIVE {
                    // The build reads both entry regions' counts; its
                    // first link moves a bit of the first region only.
                    for slot in [CycloidSlot::Cubical, CycloidSlot::Cyclic] {
                        if let Some(region) = self.entry_region(id, slot) {
                            self.check_spare(self.space.k_major_range(region));
                        }
                    }
                }
                build_table(self, id, rng);
                let d_max = self.nodes[node].d_max();
                // Room for every inlink the cap allows, so the growth of
                // the expansion and of the adaptation ticks seldom
                // reallocates.
                self.nodes[node].table.reserve_backward(d_max as usize);
                let target = initial_indegree_target(&self.params, d_max);
                self.expand(node, target);
            }
        }
        self.refresh_ring_slots(node);
    }

    /// Refreshes the structural ring slots from the membership view,
    /// keeping any still-live elastic extras gained through indegree
    /// expansion — once per membership epoch: a node whose slots carry
    /// the current epoch's stamp (see `Topology::on_ring_stamp`)
    /// returns at once. Under churn the epoch moves at every event and
    /// every ring hop rebuilds, at the cost of one integer compare.
    pub fn refresh_ring_slots(&mut self, node: usize) {
        if self.nodes[node].ring_epoch == self.membership_epoch {
            if Sanitizer::ACTIVE {
                self.check_ring_stamps([node]);
            }
            return;
        }
        self.nodes[node].ring_epoch = self.membership_epoch;
        for (slot, members) in self.rebuilt_ring_slots(node) {
            self.nodes[node].table.set_slot(slot, members);
        }
    }

    /// What a refresh makes of `node`'s two ring slots: the leaf window
    /// on that side, then the live entries the slot holds beyond it, in
    /// stored order.
    fn rebuilt_ring_slots(&self, node: usize) -> [(CycloidSlot, Vec<CycloidId>); 2] {
        let me = &self.nodes[node];
        let window = self.params.leaf_window;
        let with_extras = |slot, mut members: Vec<CycloidId>| {
            for &extra in me.table.outlinks(slot) {
                if self.is_alive(extra) && !members.contains(&extra) {
                    members.push(extra);
                }
            }
            (slot, members)
        };
        let succ = self.registry.succ_window(me.id, window).collect();
        let pred = self.registry.pred_window(me.id, window).collect();
        [
            with_extras(CycloidSlot::RingSucc, succ),
            with_extras(CycloidSlot::RingPred, pred),
        ]
    }

    /// The ring-slot stamp's writer, besides the refresh that sets it.
    /// While a node's stamp equals the membership epoch, a refresh would
    /// change nothing, so it is skipped. That is exact:
    ///
    /// * a join or a leave moves the epoch, and at a fixed membership
    ///   `succ_window` / `pred_window` and every `is_alive` answer are
    ///   fixed;
    /// * a refresh leaves each ring slot as *structural members, then
    ///   surviving extras in stored order*, and rebuilding that from
    ///   itself changes nothing;
    /// * a link into a ring slot appends an extra, which a refresh would
    ///   keep where it is, and a `d^∞` write links nothing;
    /// * a purge names a departed target, which a refresh at the current
    ///   epoch has already dropped;
    /// * a shed edits its holder's table, and can take out even a
    ///   *structural* member (ring links are not backward-tracked), so
    ///   it clears the holder's stamp.
    fn on_ring_stamp(&mut self, m: Mutation) {
        if let Mutation::Shed { holder, .. } = m {
            if let Some(h) = self.node_idx(holder) {
                self.nodes[h].ring_epoch = UNSTAMPED;
            }
        }
    }

    /// Checks that each of `nodes` whose stamp is current holds both
    /// ring slots exactly as a refresh would rebuild them, in stored
    /// order.
    fn check_ring_stamps(&mut self, nodes: impl IntoIterator<Item = usize>) {
        for node in nodes {
            if self.nodes[node].ring_epoch != self.membership_epoch {
                continue;
            }
            for (slot, rebuilt) in self.rebuilt_ring_slots(node) {
                let stored = self.nodes[node].table.outlinks(slot);
                assert!(
                    stored == rebuilt,
                    "sanitize: skipped refresh of {} would turn its {slot:?} slot {stored:?} into \
                     {rebuilt:?}",
                    self.nodes[node].id
                );
            }
            self.derived_checks += 1;
        }
    }

    /// Whether `from`'s table already holds `to` in `slot`.
    pub(crate) fn has_link(&self, from: CycloidId, slot: CycloidSlot, to: CycloidId) -> bool {
        self.node_idx(from)
            .is_some_and(|i| self.nodes[i].table.outlinks(slot).contains(&to))
    }

    /// Creates the double link `from → to` in `from`'s `slot` (table
    /// build, slot repair; Algorithm 1 uses `link_if_absent`).
    pub(crate) fn add_link(&mut self, from: CycloidId, slot: CycloidSlot, to: CycloidId) {
        let (Some(fi), Some(ti)) = (self.node_idx(from), self.node_idx(to)) else {
            return; // either end departed mid-operation
        };
        self.nodes[fi].table.add_outlink(slot, to);
        self.apply(Mutation::Link {
            from: fi,
            to: ti,
            finger_missing: false,
        });
    }

    /// The largest total in- and outdegree of `host`'s live nodes seen
    /// so far, sampled each time a double link to or from one of them
    /// is created; ring-slot refreshes are not sampling points.
    pub fn degree_watermark(&self, host: usize) -> (u32, u32) {
        let mark = &self.marks[host];
        (mark.max_in, mark.max_out)
    }

    /// The degree marks' writers: a join bumps its host's `backed`, and
    /// a link samples both ends' hosts ([`Topology::note_degrees`]).
    ///
    /// `backed` is exact: the host's `nodes` list has one writer, the
    /// join, which pushes onto it as this bumps `backed`, and nothing
    /// removes a list entry, not even a leave. So `backed` is the list's
    /// length, and `backed == 1` means the list is `[node]`, the node
    /// whose `host` names it.
    fn on_marks(&mut self, m: Mutation) {
        match m {
            Mutation::Join(node) => self.marks[self.nodes[node].host].backed += 1,
            Mutation::Link { from, to, .. } => {
                self.note_degrees(from);
                self.note_degrees(to);
            }
            _ => {}
        }
    }

    /// Raises the degree watermark of the host backing `node` to the
    /// host's total in- and outdegree, summed over its live nodes.
    ///
    /// The watermark lives in a dense per-host record beside the nodes,
    /// not in [`Host`], and a host backing a single node reads that
    /// node's degrees instead of summing: a sole-node host costs no
    /// `hosts` access at all. Both are exact, not heuristics:
    ///
    /// * a dead node contributes 0 to the sum, and so it does here, so
    ///   a host whose sole node died reads 0 either way;
    /// * a second node joining the host hands the record over as it
    ///   stands: the maxima already recorded stay, `backed` becomes 2,
    ///   and every later sample takes the sum. A watermark is the
    ///   maximum over samples of the sum, whichever way each sample was
    ///   read, so it is what summing at every sample would have left.
    fn note_degrees(&mut self, node: usize) {
        let host = self.nodes[node].host;
        let before = self.marks[host];
        let (ins, outs) = match before.backed {
            1 => live_degrees(&self.nodes[node]),
            _ => self.host_degrees(host),
        };
        let mark = &mut self.marks[host];
        mark.max_in = mark.max_in.max(ins);
        mark.max_out = mark.max_out.max(outs);
        if Sanitizer::ACTIVE {
            self.check_marks(host, Some((before.max_in, before.max_out)));
        }
    }

    /// In- and outdegree summed over the live nodes of `host`.
    fn host_degrees(&self, host: usize) -> (u32, u32) {
        let nodes = self.hosts[host].nodes.iter();
        nodes.fold((0, 0), |(ins, outs), &n| {
            let (i, o) = live_degrees(&self.nodes[n]);
            (ins + i, outs + o)
        })
    }

    /// Checks `host`'s degree mark: `backed` is the length of the host's
    /// `nodes` list, every listed node names the host, and the maxima
    /// are `sample` (the maxima before a sample) raised to the host's
    /// summed degrees. Without a sample the maxima are history and only
    /// bounded: no live node's indegree, nor its entry-slot outdegree,
    /// rises but by a link, which samples it.
    fn check_marks(&mut self, host: usize, sample: Option<(u32, u32)>) {
        let (mark, listed) = (self.marks[host], &self.hosts[host].nodes);
        let (ins, outs) = self.host_degrees(host);
        let live = listed.iter().map(|&n| &self.nodes[n]).filter(|n| n.alive);
        let entry = [CycloidSlot::Cubical, CycloidSlot::Cyclic];
        let entry_outs = live.flat_map(|n| entry.map(|slot| n.table.outlinks(slot).len()));
        let entry_outs = entry_outs.sum::<usize>() as u32;
        let maxima = match sample {
            Some((i, o)) => (mark.max_in, mark.max_out) == (i.max(ins), o.max(outs)),
            None => mark.max_in >= ins && mark.max_out >= entry_outs,
        };
        assert!(
            maxima
                && mark.backed as usize == listed.len()
                && listed.iter().all(|&n| self.nodes[n].host == host),
            "sanitize: host {host}'s mark {mark:?} is not what its sampled degrees leave: it lists \
             {listed:?}, whose live nodes sum to in {ins} / out {outs} ({entry_outs} out of entry \
             slots), sampled from {sample:?}"
        );
        self.derived_checks += 1;
    }

    /// The fresh-ID record's writer: a join sets its ID's bit, and the
    /// node is fresh iff the bit was clear — no node joined on the ID
    /// before it.
    ///
    /// A fresh node's backward fingers answer for both entry slots: a
    /// live holder that is not one of its fingers holds it in neither,
    /// so `link_if_absent` appends that link without scanning the
    /// holder's slot (nor, a second time, the fingers). That is exact:
    ///
    /// * every entry-slot write goes through `apply(Link)`, which
    ///   records the finger, and every such write names a node live at
    ///   the time — for a fresh node's ID, the node itself;
    /// * a shed removes the finger and, from the live holder of its ID,
    ///   the outlink in every slot, together;
    /// * a purge names only departed targets;
    /// * a ring refresh touches only ring slots;
    /// * a holder whose ID a departed node held before starts with an
    ///   empty table, and any finger left under its ID sends it down the
    ///   scanning path;
    /// * a stale entry naming a reused ID predates the node's join, and
    ///   a node on a reused ID is not fresh.
    fn on_fresh(&mut self, m: Mutation) {
        if let Mutation::Join(node) = m {
            let lin = self.space.lin(self.nodes[node].id);
            self.nodes[node].fresh = !self.joined.get(lin);
            self.joined.set(lin, true);
        }
    }

    /// Checks the whole fresh-ID record against one rebuilt from slab
    /// order, which is join order, and the claim it licenses: every live
    /// holder of a fresh live node in an entry slot is its backward
    /// finger. A fresh node's ID had no earlier owner, so every entry
    /// naming it refers to the node.
    #[cfg(test)]
    fn check_fresh(&mut self) {
        let mut joined = Bitmap::new(self.space.ring_size());
        for n in &self.nodes {
            let lin = self.space.lin(n.id);
            assert!(
                n.fresh != joined.get(lin),
                "sanitize: {}'s fresh bit is {}, against whether a node joined on its ID before it",
                n.id,
                n.fresh
            );
            joined.set(lin, true);
        }
        for lin in 0..self.space.ring_size() {
            assert!(
                self.joined.get(lin) == joined.get(lin),
                "sanitize: fresh-ID record of {} is out of step",
                self.space.from_lin(lin)
            );
        }
        for holder in self.nodes.iter().filter(|n| n.alive) {
            for slot in [CycloidSlot::Cubical, CycloidSlot::Cyclic] {
                for &to in holder.table.outlinks(slot) {
                    let Some(to) = self.node_idx(to).map(|t| &self.nodes[t]) else {
                        continue;
                    };
                    assert!(
                        !to.fresh || to.table.backward_fingers().contains(&holder.id),
                        "sanitize: {} holds fresh {} in its {slot:?} slot but is not its backward finger",
                        holder.id,
                        to.id
                    );
                }
            }
        }
        self.derived_checks += 1;
    }

    /// Removes the stale outlink `from --slot--> to` after a failed
    /// contact. `to` must have departed: the scan cursors and the
    /// ring-slot stamps rest on that (see `Topology::on_scan`), and armed
    /// builds check it.
    pub fn purge_dead_link(&mut self, from: usize, slot: CycloidSlot, to: CycloidId) {
        if Sanitizer::ACTIVE {
            assert!(
                !self.is_alive(to),
                "sanitize: purging a link to live node {to}"
            );
        }
        if self.nodes[from].table.remove_outlink(slot, to) {
            self.link_ops += 1;
        }
    }

    /// Proactively purges departed neighbors from `node`'s entry slots
    /// and repairs any slot left empty — one stabilization round for one
    /// node. Returns the number of stale links removed.
    pub fn stabilize_node(&mut self, node: usize, rng: &mut SimRng) -> u32 {
        let mut purged = 0;
        for slot in [CycloidSlot::Cubical, CycloidSlot::Cyclic] {
            let stale: Vec<CycloidId> = self.nodes[node]
                .table
                .outlinks(slot)
                .iter()
                .copied()
                .filter(|&x| !self.is_alive(x))
                .collect();
            for dead in stale {
                self.purge_dead_link(node, slot, dead);
                purged += 1;
            }
            if self.nodes[node].table.outlinks(slot).is_empty() {
                self.repair_slot(node, slot, rng);
            }
        }
        self.refresh_ring_slots(node);
        purged
    }

    /// Sheds up to `count` inlinks of `node`, choosing victims by
    /// longest logical then physical distance (Algorithm 3). Returns the
    /// number actually shed.
    pub fn shed_inlinks(&mut self, node: usize, count: u32) -> u32 {
        let id = self.nodes[node].id;
        let fingers: Vec<ShedCandidate<CycloidId>> = self.nodes[node]
            .table
            .backward_fingers()
            .iter()
            .map(|&bf| ShedCandidate {
                id: bf,
                logical_distance: self.logical_metric(bf, id),
                physical_distance: self.phys_dist(bf, id),
            })
            .collect();
        let victims = select_shed_victims(&fingers, count);
        for &holder in &victims {
            self.apply(Mutation::Shed { node, holder });
        }
        victims.len() as u32
    }

    /// Algorithm 1 on `node` toward indegree `target`; returns the gain.
    pub fn grow_inlinks(&mut self, node: usize, target: u32) -> u32 {
        self.expand(node, target).gained
    }

    /// One Algorithm 3 round on `node`: [`adapt_step`] sizes `action`,
    /// then the node sheds its farthest inlinks or grows toward the
    /// step's target. Returns the step and the links shed or gained.
    pub fn adapt(&mut self, node: usize, action: AdaptAction) -> (AdaptStep, u32) {
        let n = &self.nodes[node];
        let capacity = self.hosts[n.host].capacity_eval;
        let step = adapt_step(action, capacity, n.table.indegree() as u32, n.d_max());
        let links = match step {
            AdaptStep::Keep => 0,
            AdaptStep::Shed { count, d_max } => {
                let shed = self.shed_inlinks(node, count);
                debug_assert_eq!(shed, count, "a shed sized {count} dropped {shed}");
                self.set_d_max(node, d_max);
                shed
            }
            AdaptStep::Grow { target, d_max, .. } => {
                self.set_d_max(node, d_max);
                self.grow_inlinks(node, target)
            }
        };
        (step, links)
    }

    /// Algorithm 1 on `node`, from where its last scan stopped.
    fn expand(&mut self, node: usize, target: u32) -> Expansion {
        if Sanitizer::ACTIVE {
            self.check_scans([node]);
        }
        let (id, epoch) = (self.nodes[node].id, self.membership_epoch);
        let mut at = self.scan_cursor(node);
        // `link_if_absent` runs between two pulls, so the walk cannot stay
        // borrowed from the registry: each pull re-enters it at `at`.
        let done = expand_indegree_over(self, id, target, |topo| {
            let mut scan = topo.inlink_scan(id, at);
            let next = scan.next();
            at = scan.cursor();
            next.map(inlink_pair)
        });
        let node = &mut self.nodes[node];
        (node.scan, node.scan_epoch) = (at, epoch);
        done
    }

    /// The scan cursor's writer, besides the scan that sets it. A scan
    /// pulls a candidate only while the indegree is short of its target
    /// and leaves the node's cursor just past the last one it pulled,
    /// stamped with the membership epoch. While that stamp is current,
    /// every candidate before the cursor is the node itself or answered
    /// `link_if_absent` with "present" or "added" — it points at the
    /// node — so the next scan starts at the cursor, and a cursor at the
    /// end means no scan can gain anything, whatever its target. That
    /// is exact:
    ///
    /// * a join or a leave moves the epoch, and at a fixed membership
    ///   the candidate sequence is fixed (a function of the registry,
    ///   the node's ID and the leaf window);
    /// * a link only ever turns `has_link(c, slot, node)` from false to
    ///   true, and a `d^∞` write links nothing;
    /// * a purge names only departed targets, and a refresh only drops
    ///   departed extras (and puts back structural members) — and a
    ///   departure moved the epoch;
    /// * the one remaining way a live candidate stops pointing at the
    ///   node is the node's own shed, which clears its cursor.
    fn on_scan(&mut self, m: Mutation) {
        if let Mutation::Shed { node, .. } = m {
            self.nodes[node].scan = InlinkCursor::Start;
        }
    }

    /// Where `node`'s next scan starts: its cursor if that was taken at
    /// the current membership epoch, else the start.
    fn scan_cursor(&self, node: usize) -> InlinkCursor {
        let node = &self.nodes[node];
        match node.scan_epoch == self.membership_epoch {
            true => node.scan,
            false => InlinkCursor::Start,
        }
    }

    /// Checks the current cursor of each of `nodes` that is past the
    /// start: each candidate of the from-scratch sequence before it must
    /// be the node itself or already point at it, and the cursor must
    /// be a position of that sequence. A cursor at the end claims more —
    /// that no scan can gain anything, whatever its target — so the
    /// full Algorithm 1 scan is re-run against it.
    fn check_scans(&mut self, nodes: impl IntoIterator<Item = usize>) {
        for node in nodes {
            let (id, at) = (self.nodes[node].id, self.scan_cursor(node));
            if at == InlinkCursor::Start {
                continue;
            }
            let mut skipped = self.inlink_scan(id, InlinkCursor::Start);
            while skipped.cursor() != at {
                match skipped.next().map(inlink_pair) {
                    Some((slot, candidate)) => assert!(
                        candidate == id || self.has_link(candidate, slot, id),
                        "sanitize: resumed scan on {id} skips {candidate}, which does not point at it"
                    ),
                    // Running out leaves the fresh scan at the end.
                    None => assert!(
                        skipped.cursor() == at,
                        "sanitize: scan cursor {at:?} of {id} is not a position of its candidate \
                         sequence"
                    ),
                }
            }
            if at == InlinkCursor::End {
                let gained = expand_indegree(self, id, u32::MAX);
                assert!(
                    gained == 0,
                    "sanitize: exhausted scan on {id} skipped a scan that gains {gained} inlinks"
                );
            }
            self.derived_checks += 1;
        }
    }

    /// The region `id`'s entry `slot` draws from; `None` for the ring
    /// slots and for `k = 0` nodes.
    fn entry_region(&self, id: CycloidId, slot: CycloidSlot) -> Option<CycloidRegion> {
        match slot {
            CycloidSlot::Cubical => self.space.cubical_region(id),
            CycloidSlot::Cyclic => self.space.cyclic_region(id),
            CycloidSlot::RingSucc | CycloidSlot::RingPred => None,
        }
    }

    /// Algorithm 1's probe sequence for `node`, from `from` on.
    pub(crate) fn inlink_scan(&self, node: CycloidId, from: InlinkCursor) -> InlinkScan<'_> {
        let ring_window = 2 * self.params.leaf_window;
        self.registry.inlink_scan(node, ring_window, from)
    }

    /// Repairs an empty or all-dead entry slot by selecting a fresh
    /// neighbor from the slot's region per the table policy. Returns the
    /// new neighbor if the region had any live member.
    pub fn repair_slot(
        &mut self,
        node: usize,
        slot: CycloidSlot,
        rng: &mut SimRng,
    ) -> Option<CycloidId> {
        let id = self.nodes[node].id;
        let region = self.entry_region(id, slot)?;
        let pick = match self.table_policy {
            TablePolicy::SingleClosest => {
                let ideal = match slot {
                    CycloidSlot::Cubical => id.a() ^ (1u32 << id.k()),
                    _ => id.a(),
                };
                self.closest_in_region(region, ideal, id)
            }
            TablePolicy::SingleHighestCapacity => self.highest_capacity_in_region(region, id, &[]),
            // A uniform draw over the members with spare indegree, else
            // over all of them; none is `id`, one cyclic index up.
            TablePolicy::Elastic => {
                if Sanitizer::ACTIVE {
                    self.check_spare(self.space.k_major_range(region));
                }
                match self.spare_count(id, slot) {
                    0 => match self.registry.region_population(region) {
                        0 => None,
                        members => {
                            let i = rng.gen_range(0..members);
                            self.registry.nth_in_region(region, i)
                        }
                    },
                    spare => {
                        let i = rng.gen_range(0..spare);
                        self.nth_spare(id, slot, i)
                    }
                }
            }
        }?;
        self.add_link(id, slot, pick);
        Some(pick)
    }

    /// Assembles the candidate set for one hop of `node`'s query toward
    /// `key`. `filter_dead` removes departed candidates (probing
    /// policies discover them for free; non-probing policies keep them
    /// and pay timeouts). `ring_only` forces ring routing — set it once
    /// a previous hop reported [`RouteCandidates::fell_back`]. Returns
    /// `None` when `node` already owns `key`.
    pub fn route_candidates(
        &mut self,
        node: usize,
        key: CycloidId,
        filter_dead: bool,
        ring_only: bool,
        rng: &mut SimRng,
    ) -> Option<RouteCandidates> {
        let me = self.nodes[node].id;
        let owner = self.registry.owner(key)?;
        if owner == me {
            return None;
        }
        // Endgame: within a few cycles of the owner the geometric phase
        // has nothing useful left to fix (and, in sparse overlays, can
        // oscillate around empty cycles); finish on the monotone ring.
        let fwd = self.registry.forward_dist(me, owner);
        let near = fwd.min(self.space.ring_size() - fwd) <= 4 * self.space.dim() as u64;
        if ring_only || near {
            return Some(self.ring_candidates(node, owner));
        }
        // Route toward the owner's ID: identical to routing toward the
        // key in a dense overlay, and robust when the key's own cycle is
        // unpopulated.
        match self.space.route_step(me, owner) {
            RouteStep::Entry(kind) => {
                let slot = match kind {
                    SlotKind::Cubical => CycloidSlot::Cubical,
                    SlotKind::Cyclic => CycloidSlot::Cyclic,
                };
                let mut ids: Vec<CycloidId> = self.nodes[node].table.outlinks(slot).to_vec();
                if filter_dead {
                    for &dead in ids
                        .iter()
                        .filter(|&&x| !self.is_alive(x))
                        .collect::<Vec<_>>()
                    {
                        self.purge_dead_link(node, slot, dead);
                    }
                    ids.retain(|&x| self.is_alive(x));
                }
                if ids.is_empty() || ids.iter().all(|&x| !self.is_alive(x)) {
                    if let Some(fresh) = self.repair_slot(node, slot, rng) {
                        return Some(RouteCandidates {
                            slot: Some(slot),
                            ids: vec![fresh],
                            owner,
                            fell_back: false,
                        });
                    }
                    // Region has no live member: finish on the ring.
                    let mut rc = self.ring_candidates(node, owner);
                    rc.fell_back = true;
                    return Some(rc);
                }
                Some(RouteCandidates {
                    slot: Some(slot),
                    ids,
                    owner,
                    fell_back: false,
                })
            }
            RouteStep::Ascend => {
                let mut ids: Vec<CycloidId> = self.registry.cycle_above(me).collect();
                if ids.is_empty() {
                    // Top of the own cycle: continue ascending at the
                    // head of the *next* cycle (Cycloid's outside leaf
                    // set). Always moving forward keeps the head-walk
                    // monotone, so it cannot bounce between two cycles.
                    if let Some(head) = self.registry.next_cycle_head(me) {
                        if head != me {
                            ids.push(head);
                        }
                    }
                }
                if ids.is_empty() {
                    let mut rc = self.ring_candidates(node, owner);
                    rc.fell_back = true;
                    return Some(rc);
                }
                Some(RouteCandidates {
                    slot: None,
                    ids,
                    owner,
                    fell_back: false,
                })
            }
            RouteStep::Ring => Some(self.ring_candidates(node, owner)),
        }
    }

    /// Ring-walk candidates toward `owner`, along the shorter direction,
    /// never overshooting. All table links (not just the leaf window)
    /// are considered so the walk takes the longest safe stride, like
    /// Chord's greedy final phase. Always returns at least one live
    /// candidate strictly closer to the owner.
    fn ring_candidates(&mut self, node: usize, owner: CycloidId) -> RouteCandidates {
        let me = self.nodes[node].id;
        self.refresh_ring_slots(node);
        let fwd = self.registry.forward_dist(me, owner);
        let bwd = self.space.ring_size() - fwd;
        let forward = fwd <= bwd;
        let slot = if forward {
            CycloidSlot::RingSucc
        } else {
            CycloidSlot::RingPred
        };
        let in_stride = |x: CycloidId| {
            if forward {
                let d = self.registry.forward_dist(me, x);
                d > 0 && d <= fwd
            } else {
                let d = self.registry.forward_dist(x, me);
                d > 0 && d <= bwd
            }
        };
        let mut ids: Vec<CycloidId> = Vec::new();
        for (_, x) in self.nodes[node].table.iter_outlinks() {
            if in_stride(x) && !ids.contains(&x) && self.is_alive(x) {
                ids.push(x);
            }
        }
        if ids.is_empty() {
            // Degenerate membership (e.g. two nodes): step to the owner
            // directly — it is live by construction.
            return RouteCandidates {
                slot: Some(slot),
                ids: vec![owner],
                owner,
                fell_back: false,
            };
        }
        RouteCandidates {
            slot: Some(slot),
            ids,
            owner,
            fell_back: false,
        }
    }
}

/// An [`InlinkScan`] item with the slot it names spelled as a slot of
/// this crate's tables.
fn inlink_pair((kind, candidate): (Option<SlotKind>, CycloidId)) -> (CycloidSlot, CycloidId) {
    let slot = match kind {
        Some(SlotKind::Cubical) => CycloidSlot::Cubical,
        Some(SlotKind::Cyclic) => CycloidSlot::Cyclic,
        None => CycloidSlot::RingSucc,
    };
    (slot, candidate)
}

/// A node's in- and outdegree, 0 for a departed one.
fn live_degrees(n: &OverlayNode) -> (u32, u32) {
    match n.alive {
        true => (n.table.indegree() as u32, n.table.outdegree() as u32),
        false => (0, 0),
    }
}

impl Directory for Topology {
    type Id = CycloidId;
    type Slot = CycloidSlot;

    fn table_slots(&self, node: CycloidId) -> Vec<(CycloidSlot, Vec<CycloidId>)> {
        let slots = self.slots(node).into_iter();
        slots
            .filter_map(|slot| {
                let region = self.entry_region(node, slot)?;
                Some((slot, self.registry.nodes_in_region(region)))
            })
            .collect()
    }

    fn slots(&self, node: CycloidId) -> Vec<CycloidSlot> {
        let entry = [CycloidSlot::Cubical, CycloidSlot::Cyclic].into_iter();
        entry
            .filter(|&slot| self.entry_region(node, slot).is_some())
            .collect()
    }

    /// From the spare index: a popcount over the run of the slot's
    /// region. `node` is never a member: its entry regions sit one cyclic
    /// index below it. A caller about to trust the count checks the
    /// region first in armed builds.
    fn spare_count(&self, node: CycloidId, slot: CycloidSlot) -> usize {
        self.entry_region(node, slot).map_or(0, |region| {
            let bits = self.space.k_major_range(region);
            self.spare.count_ones(bits.start, bits.end) as usize
        })
    }

    /// The `i`-th member of the spare count, in cubical order.
    fn nth_spare(&self, node: CycloidId, slot: CycloidSlot, i: usize) -> Option<CycloidId> {
        let region = self.entry_region(node, slot)?;
        let bits = self.space.k_major_range(region);
        let bit = self.spare.select(bits.start, bits.end, i as u64)?;
        Some(self.space.in_region(region, bit))
    }

    fn inlink_candidates(&self, node: CycloidId) -> Vec<(CycloidSlot, CycloidId)> {
        self.inlink_scan(node, InlinkCursor::Start)
            .map(inlink_pair)
            .collect()
    }

    fn spare_indegree(&self, node: CycloidId) -> i64 {
        self.node_idx(node)
            .map_or(0, |i| self.nodes[i].spare_indegree())
    }

    fn indegree(&self, node: CycloidId) -> u32 {
        self.node_idx(node)
            .map_or(0, |i| self.nodes[i].table.indegree() as u32)
    }

    fn link_if_absent(&mut self, from: CycloidId, slot: CycloidSlot, to: CycloidId) -> bool {
        let (Some(fi), Some(ti)) = (self.node_idx(from), self.node_idx(to)) else {
            return false; // either end departed mid-operation
        };
        // An entry-slot link to a fresh node asks the node's own (hot)
        // backward list instead of the holder's slot (see
        // `Topology::on_fresh`); ring-phase candidates carry no finger.
        let entry = matches!(slot, CycloidSlot::Cubical | CycloidSlot::Cyclic);
        let fingers = self.nodes[ti].table.backward_fingers();
        let finger_missing = entry && self.nodes[ti].fresh && !fingers.contains(&from);
        if finger_missing {
            if Sanitizer::ACTIVE {
                assert!(
                    !self.nodes[fi].table.outlinks(slot).contains(&to),
                    "sanitize: {from} holds fresh {to} in its {slot:?} slot but is not its backward finger"
                );
                self.derived_checks += 1;
            }
            self.nodes[fi].table.push_outlink(slot, to);
        } else if !self.nodes[fi].table.add_outlink(slot, to) {
            return false;
        }
        self.apply(Mutation::Link {
            from: fi,
            to: ti,
            finger_missing,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ert_core::max_indegree;
    use ert_overlay::Coord;
    use rand::Rng;

    /// A small fully-populated dim-4 overlay with uniform capacities.
    fn full_topology(policy: TablePolicy) -> (Topology, SimRng) {
        let space = CycloidSpace::new(4);
        let params = ErtParams::default().with_alpha_for_dim(4);
        let mut topo = Topology::new(space, policy, params);
        let mut rng = SimRng::seed_from(42);
        for lin in 0..space.ring_size() {
            let id = space.from_lin(lin);
            let d_max = max_indegree(params.alpha, 1.0);
            let host = topo.add_host(Host::new(1000.0, 1.0, 1.0, d_max, Coord::random(&mut rng)));
            topo.add_node(id, host, d_max);
        }
        for n in 0..topo.nodes.len() {
            topo.build_node_table(n, &mut rng);
        }
        (topo, rng)
    }

    #[test]
    fn single_closest_builds_classic_cycloid_tables() {
        let (topo, _) = full_topology(TablePolicy::SingleClosest);
        for node in &topo.nodes {
            if node.id.k() > 0 {
                let cub = node.table.outlinks(CycloidSlot::Cubical);
                assert_eq!(cub.len(), 1, "node {} cubical", node.id);
                // The classic neighbor flips exactly bit k.
                assert_eq!(cub[0].a(), node.id.a() ^ (1 << node.id.k()));
                assert_eq!(cub[0].k(), node.id.k() - 1);
                let cyc = node.table.outlinks(CycloidSlot::Cyclic);
                assert_eq!(cyc.len(), 2, "node {} cyclic", node.id);
            }
            assert_eq!(node.table.outlinks(CycloidSlot::RingSucc).len(), 4);
            assert_eq!(node.table.outlinks(CycloidSlot::RingPred).len(), 4);
        }
    }

    #[test]
    fn elastic_tables_expand_toward_beta_target() {
        let (topo, _) = full_topology(TablePolicy::Elastic);
        let mut reached = 0;
        for node in &topo.nodes {
            let target = initial_indegree_target(&topo.params, node.d_max());
            assert!(
                node.table.indegree() as u32 <= node.d_max(),
                "indegree above d_max on {}",
                node.id
            );
            if node.table.indegree() as u32 >= target {
                reached += 1;
            }
        }
        // Most nodes should reach their reservation target in a full,
        // uniform-capacity space.
        assert!(
            reached * 10 >= topo.nodes.len() * 7,
            "only {reached}/{} reached target",
            topo.nodes.len()
        );
    }

    #[test]
    fn ns_prefers_high_capacity_neighbors() {
        let space = CycloidSpace::new(4);
        let params = ErtParams::default().with_alpha_for_dim(4);
        let mut topo = Topology::new(space, TablePolicy::SingleHighestCapacity, params);
        let mut rng = SimRng::seed_from(7);
        // Give one region member a huge capacity.
        for lin in 0..space.ring_size() {
            let id = space.from_lin(lin);
            let big = id == space.id(2, 0b1100);
            let cap = if big { 50.0 } else { 1.0 };
            let host = topo.add_host(Host::new(
                cap * 1000.0,
                cap,
                cap,
                max_indegree(params.alpha, cap),
                Coord::random(&mut rng),
            ));
            topo.add_node(id, host, max_indegree(params.alpha, cap));
        }
        // Node (3, 0b0000) has cubical region (2, 1xxx): must pick the
        // big node (2, 1100).
        let n = topo.node_idx(space.id(3, 0)).unwrap();
        topo.build_node_table(n, &mut rng);
        assert_eq!(
            topo.nodes[n].table.outlinks(CycloidSlot::Cubical),
            &[space.id(2, 0b1100)]
        );
    }

    #[test]
    fn route_candidates_deliver_and_progress() {
        let (mut topo, mut rng) = full_topology(TablePolicy::SingleClosest);
        let space = topo.space;
        let key = space.id(2, 0b1010);
        let owner = topo.registry.owner(key).unwrap();
        let owner_idx = topo.node_idx(owner).unwrap();
        assert!(topo
            .route_candidates(owner_idx, key, true, false, &mut rng)
            .is_none());
        // From every node, a full greedy walk terminates within the hop
        // bound.
        for start in 0..topo.nodes.len() {
            let mut cur = start;
            let mut hops = 0;
            let mut ring_mode = false;
            while let Some(rc) = topo.route_candidates(cur, key, true, ring_mode, &mut rng) {
                assert!(!rc.ids.is_empty());
                ring_mode |= rc.fell_back;
                // Deterministic walk: min logical metric.
                let next = rc
                    .ids
                    .iter()
                    .copied()
                    .min_by_key(|&x| topo.logical_metric(x, key))
                    .unwrap();
                cur = topo.node_idx(next).expect("candidates are live");
                hops += 1;
                assert!(hops <= 40, "no progress from start {start}");
            }
            assert_eq!(topo.nodes[cur].id, owner);
        }
    }

    #[test]
    fn dead_entry_links_are_purged_and_repaired() {
        let (mut topo, mut rng) = full_topology(TablePolicy::SingleClosest);
        let space = topo.space;
        let node = topo.node_idx(space.id(3, 0b0000)).unwrap();
        let neighbor = topo.nodes[node].table.outlinks(CycloidSlot::Cubical)[0];
        let nidx = topo.node_idx(neighbor).unwrap();
        topo.remove_node(nidx);
        // A probing walk filters the dead neighbor and repairs.
        let key = space.id(0, 0b1000); // forces the cubical slot from (3, 0000)
        let rc = topo
            .route_candidates(node, key, true, false, &mut rng)
            .unwrap();
        assert_eq!(rc.slot, Some(CycloidSlot::Cubical));
        assert!(rc.ids.iter().all(|&x| topo.is_alive(x)));
        assert!(!rc.ids.contains(&neighbor));
    }

    #[test]
    fn shed_removes_most_distant_inlinks_first() {
        let (mut topo, _) = full_topology(TablePolicy::Elastic);
        // Find a node with at least 3 inlinks.
        let node = (0..topo.nodes.len())
            .find(|&n| topo.nodes[n].table.indegree() >= 3)
            .expect("some node has inlinks");
        let id = topo.nodes[node].id;
        let before = topo.nodes[node].table.indegree();
        let furthest = topo.nodes[node]
            .table
            .backward_fingers()
            .iter()
            .copied()
            .max_by_key(|&bf| topo.logical_metric(bf, id))
            .unwrap();
        let shed = topo.shed_inlinks(node, 2);
        assert_eq!(shed, 2);
        assert_eq!(topo.nodes[node].table.indegree(), before - 2);
        assert!(!topo.nodes[node]
            .table
            .backward_fingers()
            .contains(&furthest));
        // The victim no longer points at us.
        let vidx = topo.node_idx(furthest).unwrap();
        assert!(!topo.nodes[vidx].table.has_outlink_to(id));
    }

    #[test]
    fn grow_respects_d_max() {
        let (mut topo, _) = full_topology(TablePolicy::Elastic);
        let node = 5;
        let indegree = topo.nodes[node].table.indegree() as u32;
        topo.set_d_max(node, indegree);
        // No headroom: Algorithm 3 raises d∞ by the ask, and the grow
        // stops there.
        let (step, gained) = topo.adapt(node, AdaptAction::Grow(2));
        assert_eq!(
            step,
            AdaptStep::Grow {
                ask: 2,
                target: indegree + 2,
                d_max: indegree + 2
            }
        );
        assert!(gained <= 2, "grew {gained} past headroom");
        assert_eq!(topo.nodes[node].d_max(), indegree + 2);
        assert!(topo.nodes[node].table.indegree() as u32 <= indegree + 2);
    }

    /// Links each `(from, to)` pair of live nodes through their cyclic
    /// slots, and after every link checks each host's watermarks against
    /// a model that re-sums both ends' hosts at each link created.
    fn assert_watermarks_follow(topo: &mut Topology, links: &[(usize, usize)]) {
        let watermarks = |topo: &Topology| -> Vec<(u32, u32)> {
            let hosts = 0..topo.hosts.len();
            hosts.map(|h| topo.degree_watermark(h)).collect()
        };
        let mut model = watermarks(topo);
        for &(f, t) in links {
            let (from, to) = (topo.nodes[f].id, topo.nodes[t].id);
            let fingers = |topo: &Topology| topo.nodes[t].table.backward_fingers().to_vec();
            let mut expected = fingers(topo);
            if !expected.contains(&from) {
                expected.push(from);
            }
            topo.add_link(from, CycloidSlot::Cyclic, to);
            assert!(topo.has_link(from, CycloidSlot::Cyclic, to));
            assert_eq!(fingers(topo), expected);
            for n in [f, t] {
                let host = topo.nodes[n].host;
                let (ins, outs) = topo.host_degrees(host);
                model[host] = (model[host].0.max(ins), model[host].1.max(outs));
            }
            assert_eq!(watermarks(topo), model, "after {from} -> {to}");
        }
    }

    /// `count` pairs of distinct live nodes.
    fn random_links(topo: &Topology, rng: &mut SimRng, count: usize) -> Vec<(usize, usize)> {
        let live: Vec<usize> = (0..topo.nodes.len())
            .filter(|&n| topo.nodes[n].alive)
            .collect();
        let mut links = Vec::new();
        while links.len() < count {
            let (f, t) = (*rng.choose(&live).unwrap(), *rng.choose(&live).unwrap());
            if f != t {
                links.push((f, t));
            }
        }
        links
    }

    #[test]
    fn add_link_tracks_backward_finger_and_watermarks() {
        // Sole-node hosts: the watermark reads the node itself.
        let (mut topo, mut rng) = full_topology(TablePolicy::SingleClosest);
        assert!(topo.hosts.iter().all(|h| h.nodes.len() == 1));
        let links = random_links(&topo, &mut rng, 60);
        assert_watermarks_follow(&mut topo, &[(3, 40), (3, 40)]);
        assert_watermarks_follow(&mut topo, &links);

        // Virtual servers: four nodes per host, one of them departed.
        let space = CycloidSpace::new(4);
        let params = ErtParams::default().with_alpha_for_dim(4);
        let mut topo = Topology::new(space, TablePolicy::SingleClosest, params);
        for lin in 0..space.ring_size() {
            let host = match lin % 4 {
                0 => topo.add_host(Host::new(1.0, 1.0, 1.0, 8, Coord::random(&mut rng))),
                _ => topo.hosts.len() - 1,
            };
            topo.add_node(space.from_lin(lin), host, 8);
        }
        for n in 0..topo.nodes.len() {
            topo.build_node_table(n, &mut rng);
        }
        topo.remove_node(21);
        assert!(topo.hosts.iter().all(|h| h.nodes.len() == 4));
        let links = random_links(&topo, &mut rng, 80);
        assert_watermarks_follow(&mut topo, &links);

        // A host whose sole node died before a second one joined it: the
        // dead node counts for nothing once the host sums again.
        let (mut topo, mut rng) = full_topology(TablePolicy::SingleClosest);
        let (id, host) = (topo.nodes[10].id, topo.nodes[10].host);
        topo.remove_node(10);
        let fresh = topo.add_node(id, host, 5);
        assert_eq!(topo.hosts[host].nodes, [10, fresh]);
        topo.build_node_table(fresh, &mut rng);
        let mut links = random_links(&topo, &mut rng, 40);
        links.extend([(fresh, 3), (4, fresh), (fresh, 5)]);
        assert_watermarks_follow(&mut topo, &links);

        // A host that gains a second node while its first already holds
        // links: the record is handed over as it stands, and the host
        // sums from then on.
        let (mut topo, mut rng) = full_topology(TablePolicy::SingleClosest);
        assert_watermarks_follow(&mut topo, &[(3, 7), (7, 3)]);
        let host = topo.nodes[7].host;
        let held = topo.degree_watermark(host);
        assert!(held.0 > 0 && held.1 > 0, "node 7 holds links both ways");
        let id = topo.nodes[12].id;
        topo.remove_node(12);
        let second = topo.add_node(id, host, 5);
        assert_eq!(topo.hosts[host].nodes, [7, second]);
        assert_eq!(topo.degree_watermark(host), held);
        let mut links = vec![(5, 7), (second, 7), (7, second)];
        links.extend(random_links(&topo, &mut rng, 40));
        links.extend([(second, 3), (4, second), (7, 5)]);
        assert_watermarks_follow(&mut topo, &links);
        topo.build_node_table(second, &mut rng);
        assert_watermarks_follow(&mut topo, &[(second, 9), (9, 7)]);
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    #[should_panic(expected = "sampled degrees")]
    fn sanitizer_catches_a_node_missing_from_its_hosts_list() {
        let (mut topo, _) = full_topology(TablePolicy::SingleClosest);
        // The busiest node moved onto the quietest sole-node host behind
        // `add_node`'s back: that host's list does not name it, so its
        // next link samples degrees the host's own node does not have.
        let indegree = |n: usize| topo.nodes[n].table.indegree() as u32;
        let watermark = |n: usize| topo.degree_watermark(topo.nodes[n].host).0;
        let busiest = (0..topo.nodes.len()).max_by_key(|&n| indegree(n)).unwrap();
        let quietest = (0..topo.nodes.len()).min_by_key(|&n| watermark(n)).unwrap();
        assert!(watermark(quietest) < indegree(busiest));
        topo.nodes[busiest].host = topo.nodes[quietest].host;
        let from = topo.nodes[(busiest + 1) % topo.nodes.len()].id;
        topo.add_link(from, CycloidSlot::Cyclic, topo.nodes[busiest].id);
    }

    #[test]
    fn stabilize_purges_dead_entries_and_repairs() {
        let (mut topo, mut rng) = full_topology(TablePolicy::SingleClosest);
        let node = topo.node_idx(topo.space.id(3, 0b0110)).unwrap();
        let dead = topo.nodes[node].table.outlinks(CycloidSlot::Cubical)[0];
        let didx = topo.node_idx(dead).unwrap();
        topo.remove_node(didx);
        let purged = topo.stabilize_node(node, &mut rng);
        assert_eq!(purged, 1);
        let cub = topo.nodes[node].table.outlinks(CycloidSlot::Cubical);
        assert!(!cub.is_empty(), "slot must be repaired");
        assert!(cub.iter().all(|&x| topo.is_alive(x)));
        // A second round is a no-op.
        assert_eq!(topo.stabilize_node(node, &mut rng), 0);
    }

    #[test]
    fn ring_only_candidates_always_progress() {
        let (mut topo, mut rng) = full_topology(TablePolicy::SingleClosest);
        let key = topo.space.id(1, 0b1111);
        let owner = topo.registry.owner(key).unwrap();
        for start in (0..topo.nodes.len()).step_by(7) {
            let me = topo.nodes[start].id;
            if me == owner {
                continue;
            }
            let rc = topo
                .route_candidates(start, key, true, true, &mut rng)
                .unwrap();
            let fwd = topo.registry.forward_dist(me, owner);
            let bwd = topo.space.ring_size() - fwd;
            for id in rc.ids {
                let f2 = topo.registry.forward_dist(id, owner);
                let b2 = topo.space.ring_size() - f2;
                assert!(
                    f2.min(b2) < fwd.min(bwd) || id == owner,
                    "{me} -> {id} did not progress toward {owner}"
                );
            }
        }
    }

    #[test]
    fn logical_metric_is_zero_only_at_target() {
        let (topo, mut rng) = full_topology(TablePolicy::SingleClosest);
        let key = topo.space.random_id(&mut rng);
        assert_eq!(topo.logical_metric(key, key), 0);
        for node in topo.nodes.iter().take(50) {
            if node.id != key {
                assert!(
                    topo.logical_metric(node.id, key) > 0,
                    "{} vs {key}",
                    node.id
                );
            }
        }
    }

    #[test]
    fn vacant_ids_resolve_to_none() {
        let space = CycloidSpace::new(4);
        let params = ErtParams::default().with_alpha_for_dim(4);
        let mut topo = Topology::new(space, TablePolicy::Elastic, params);
        let host = topo.add_host(Host::new(1.0, 1.0, 1.0, 1, Coord::new(0.0, 0.0)));
        let held = space.id(2, 0b0110);
        let node = topo.add_node(held, host, 4);
        for lin in 0..space.ring_size() {
            let id = space.from_lin(lin);
            assert_eq!(topo.node_idx(id), (id == held).then_some(node), "{id}");
        }
        assert!(!topo.has_link(space.id(0, 0), CycloidSlot::Cubical, held));
        assert_eq!(topo.phys_dist(space.id(0, 0), held), 0.0);
    }

    /// The probe order of Algorithm 1 as it was first written: collect
    /// each reverse region, stable-sort it by cubical distance.
    fn sorted_inlink_candidates(topo: &Topology, node: CycloidId) -> Vec<(CycloidSlot, CycloidId)> {
        let mut out = Vec::new();
        for (slot, region) in [
            (
                CycloidSlot::Cubical,
                topo.space.reverse_cubical_region(node),
            ),
            (CycloidSlot::Cyclic, topo.space.reverse_cyclic_region(node)),
        ] {
            let mut members = region.map_or(Vec::new(), |r| topo.registry.nodes_in_region(r));
            members.sort_by_key(|m| topo.space.cube_dist(m.a(), node.a()));
            out.extend(members.into_iter().map(|m| (slot, m)));
        }
        let ring = topo.registry.pred_window(node, 2 * topo.params.leaf_window);
        out.extend(ring.map(|p| (CycloidSlot::RingSucc, p)));
        out
    }

    /// What a scan of `node` yields from `from` on, and where it ends.
    fn scan_from(
        topo: &Topology,
        node: CycloidId,
        from: InlinkCursor,
    ) -> Vec<(CycloidSlot, CycloidId)> {
        topo.inlink_scan(node, from).map(inlink_pair).collect()
    }

    #[test]
    fn inlink_candidates_keep_the_sorted_probe_order() {
        let mut rng = SimRng::seed_from(9);
        // Full, dense and sparse memberships; every dimension has the
        // k = d − 2 nodes whose cubical region wraps around the cube.
        for (dim, fill) in [(2, 1.0), (3, 0.6), (4, 1.0), (5, 0.8), (6, 0.3), (7, 0.55)] {
            let space = CycloidSpace::new(dim);
            let params = ErtParams::default().with_alpha_for_dim(dim);
            let mut topo = Topology::new(space, TablePolicy::Elastic, params);
            let host = topo.add_host(Host::new(1.0, 1.0, 1.0, 1, Coord::new(0.0, 0.0)));
            for lin in 0..space.ring_size() {
                if rng.gen::<f64>() < fill {
                    topo.add_node(space.from_lin(lin), host, 4);
                }
            }
            for lin in 0..space.ring_size() {
                // Vacant IDs probe too: a joining node scans before it
                // is anyone's neighbor.
                let id = space.from_lin(lin);
                let sorted = sorted_inlink_candidates(&topo, id);
                assert_eq!(topo.inlink_candidates(id), sorted, "dim {dim} node {id}");
                // Resuming after any prefix yields exactly the rest.
                let mut head = topo.inlink_scan(id, InlinkCursor::Start);
                for taken in 0..=sorted.len() {
                    assert_eq!(
                        scan_from(&topo, id, head.cursor()),
                        sorted[taken..],
                        "dim {dim} node {id} after {taken}"
                    );
                    head.next();
                }
                assert_eq!(head.cursor(), InlinkCursor::End);
            }
        }
    }

    /// A node of the full dim-4 overlay with room to grow and reverse
    /// regions to grow from, its supply exhausted by one big scan.
    fn exhausted_node(topo: &mut Topology) -> usize {
        let node = topo.node_idx(topo.space.id(1, 0b0101)).unwrap();
        topo.set_d_max(node, 1000);
        assert!(topo.grow_inlinks(node, 1000) > 0);
        assert_eq!(topo.scan_cursor(node), InlinkCursor::End);
        node
    }

    #[test]
    fn exhausted_supply_is_skipped_until_membership_moves() {
        let (mut topo, _) = full_topology(TablePolicy::Elastic);
        let node = exhausted_node(&mut topo);
        let id = topo.nodes[node].id;
        for (slot, c) in topo.inlink_candidates(id) {
            assert!(topo.has_link(c, slot, id), "{c} does not point at {id}");
        }
        let (ops, checks) = (topo.link_ops, topo.derived_checks);
        let idle = topo.expand(node, 1000);
        assert_eq!((idle.gained, idle.examined), (0, 0));
        assert_eq!(topo.link_ops, ops);
        // A scan resumed at the end is one armed builds re-run in full.
        let rescans = u64::from(crate::sanitize::Sanitizer::ACTIVE);
        assert_eq!(topo.derived_checks, checks + rescans);
        // Any membership event puts the whole sequence back in play.
        let other = topo.node_idx(topo.space.id(3, 0b1111)).unwrap();
        topo.remove_node(other);
        assert_eq!(topo.scan_cursor(node), InlinkCursor::Start);
        let rescan = topo.expand(node, 1000);
        assert_eq!(rescan.gained, 0);
        assert_eq!(rescan.examined, topo.inlink_candidates(id).len());
    }

    #[test]
    fn second_grow_at_a_fixed_epoch_pulls_nothing_the_first_passed() {
        let (mut topo, _) = full_topology(TablePolicy::Elastic);
        let node = topo.node_idx(topo.space.id(2, 0b0101)).unwrap();
        let id = topo.nodes[node].id;
        topo.set_d_max(node, 1000);
        let sequence = topo.inlink_candidates(id);
        // The table build already walked part of the sequence.
        let built = topo.scan_cursor(node);
        let mut passed = sequence.len() - scan_from(&topo, id, built).len();
        assert!(passed > 0);
        for _ in 0..2 {
            let target = topo.nodes[node].table.indegree() as u32 + 2;
            let step = topo.expand(node, target);
            assert_eq!(step.gained, 2);
            // Every pull moved the cursor on by one: none went back to
            // a candidate an earlier pass had looked at.
            passed += step.examined;
            let cursor = topo.scan_cursor(node);
            assert_eq!(scan_from(&topo, id, cursor), sequence[passed..]);
            // The pass ended on the candidate that met its target.
            let (slot, last) = sequence[passed - 1];
            assert!(topo.has_link(last, slot, id));
        }
        assert!(passed < sequence.len());
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    #[should_panic(expected = "which does not point at it")]
    fn sanitizer_catches_a_link_dropped_behind_the_cursor() {
        let (mut topo, _) = full_topology(TablePolicy::Elastic);
        let node = exhausted_node(&mut topo);
        let id = topo.nodes[node].id;
        // A removal path that forgets to clear the cursor.
        let holder = topo.nodes[node].table.backward_fingers()[0];
        let h = topo.node_idx(holder).unwrap();
        assert!(topo.nodes[h].table.purge_peer(id));
        topo.nodes[node].table.remove_backward(holder);
        let target = topo.nodes[node].table.indegree() as u32 + 1;
        topo.grow_inlinks(node, target);
    }

    /// The ring slots of `node`, `RingSucc` first.
    fn ring_slots(topo: &Topology, node: usize) -> [Vec<CycloidId>; 2] {
        [CycloidSlot::RingSucc, CycloidSlot::RingPred]
            .map(|slot| topo.nodes[node].table.outlinks(slot).to_vec())
    }

    #[test]
    fn a_shed_that_edits_a_ring_slot_clears_that_holders_stamp() {
        let (mut topo, _) = full_topology(TablePolicy::Elastic);
        let epoch = topo.membership_epoch;
        // Every table was built after the last join.
        assert!(topo.nodes.iter().all(|n| n.ring_epoch == epoch));
        // A node some ring neighbor also holds through an entry slot,
        // so that it is both a backward finger and a leaf-set member.
        let holds = |topo: &Topology, h: usize, id| ring_slots(topo, h).concat().contains(&id);
        let (node, holder) = (0..topo.nodes.len())
            .find_map(|n| {
                let fingers = topo.nodes[n].table.backward_fingers();
                let holders = fingers.iter().filter_map(|&bf| topo.node_idx(bf));
                let mut in_leaf_set = holders.filter(|&h| holds(&topo, h, topo.nodes[n].id));
                in_leaf_set.next().map(|h| (n, h))
            })
            .expect("some entry link runs between ring neighbors");
        let id = topo.nodes[node].id;
        let before = ring_slots(&topo, holder);
        let bystander = (0..topo.nodes.len())
            .find(|&n| !topo.nodes[n].table.has_outlink_to(id))
            .unwrap();
        let everyone = topo.nodes[node].table.indegree() as u32;
        assert_eq!(topo.shed_inlinks(node, everyone), everyone);
        // The shed took a structural member out of the holder's slot
        // and said so; tables it did not edit keep their stamp.
        assert!(!holds(&topo, holder, id));
        assert_eq!(topo.nodes[holder].ring_epoch, UNSTAMPED);
        assert_eq!(topo.nodes[bystander].ring_epoch, epoch);
        // The holder's next refresh puts the member back where it was.
        topo.refresh_ring_slots(holder);
        assert_eq!(ring_slots(&topo, holder), before);
        assert_eq!(topo.nodes[holder].ring_epoch, epoch);
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    #[should_panic(expected = "skipped refresh of")]
    fn sanitizer_catches_a_ring_slot_edited_behind_the_stamp() {
        let (mut topo, mut rng) = full_topology(TablePolicy::Elastic);
        let node = 5;
        let succ = topo.nodes[node].table.outlinks(CycloidSlot::RingSucc)[0];
        // A removal path that forgets to clear the stamp.
        let table = &mut topo.nodes[node].table;
        assert!(table.remove_outlink(CycloidSlot::RingSucc, succ));
        // One ring hop toward the successor's own ID.
        topo.route_candidates(node, succ, true, false, &mut rng);
    }

    /// A dim-`dim` overlay with Pareto-ish capacities, `fill` of its IDs
    /// live, every table built by `build`.
    fn random_world(
        dim: u8,
        fill: f64,
        seed: u64,
        build: fn(&mut Topology, usize, &mut SimRng),
    ) -> (Topology, SimRng) {
        let space = CycloidSpace::new(dim);
        let params = ErtParams::default().with_alpha_for_dim(dim);
        let mut topo = Topology::new(space, TablePolicy::Elastic, params);
        let mut rng = SimRng::seed_from(seed);
        for lin in 0..space.ring_size() {
            if rng.gen::<f64>() < fill {
                let cap = 1.0 + 3.0 * rng.gen::<f64>();
                let d_max = max_indegree(params.alpha, cap);
                let host = topo.add_host(Host::new(cap, cap, cap, d_max, Coord::random(&mut rng)));
                topo.add_node(space.from_lin(lin), host, d_max);
            }
        }
        for n in 0..topo.nodes.len() {
            build(&mut topo, n, &mut rng);
        }
        (topo, rng)
    }

    /// What one [`step`] reported.
    #[derive(Debug, PartialEq)]
    enum Did {
        Count(u32),
        Pick(Option<CycloidId>),
        Hop(Option<RouteCandidates>),
    }

    /// A world's table build and slot repair.
    struct Picks {
        build: fn(&mut Topology, usize, &mut SimRng),
        repair: fn(&mut Topology, usize, CycloidSlot, &mut SimRng) -> Option<CycloidId>,
    }

    /// One membership, link, `d^∞` or routing event, as `Network`
    /// performs it, on the `pick`-th live node (the `pick`-th departed
    /// one for a stale removal), tables built and slots repaired by
    /// `picks`.
    fn step(
        topo: &mut Topology,
        rng: &mut SimRng,
        picks: &Picks,
        op: u8,
        pick: usize,
        x: u32,
    ) -> Did {
        let live: Vec<usize> = (0..topo.nodes.len())
            .filter(|&n| topo.nodes[n].alive)
            .collect();
        let node = live[pick % live.len()];
        let n = &topo.nodes[node];
        let (id, host, d_max) = (n.id, n.host, n.d_max());
        let slot = match x % 2 {
            0 => CycloidSlot::Cubical,
            _ => CycloidSlot::Cyclic,
        };
        let join = |topo: &mut Topology, rng: &mut SimRng, id, host, d_max| {
            let fresh = topo.add_node(id, host, d_max);
            (picks.build)(topo, fresh, rng);
            topo.nodes[fresh].table.indegree() as u32
        };
        Did::Count(match op {
            // Algorithm 3, underloaded.
            0..=2 => topo.adapt(node, AdaptAction::Grow(x)).1,
            // A shed alone: the farthest holders go.
            3 => topo.shed_inlinks(node, x),
            // Algorithm 3, overloaded so badly that the ring neighbors
            // go too.
            4 => topo.adapt(node, AdaptAction::Shed(8 * x)).1,
            // A `d^∞` that may leave the node saturated or over-full.
            5 | 6 => {
                topo.set_d_max(node, x);
                x
            }
            // A join on a vacant ID, by a host of its own or, as a
            // virtual server, by the picked node's host.
            7 | 8 => match topo.registry.random_vacant(rng) {
                Some(vacant) => {
                    let host = match op {
                        7 => topo.add_host(Host::new(1.0, 1.0, 1.0, x, Coord::random(rng))),
                        _ => host,
                    };
                    join(topo, rng, vacant, host, x)
                }
                None => 0,
            },
            // A leave; holders find the stale links later.
            9 if live.len() > 8 => {
                topo.remove_node(node);
                1
            }
            // A leave, and a join on the ID it left.
            10 => {
                topo.remove_node(node);
                join(topo, rng, id, host, x)
            }
            // Item movement: the node leaves and rejoins elsewhere.
            11 => match topo.registry.random_vacant(rng) {
                Some(vacant) => {
                    topo.remove_node(node);
                    join(topo, rng, vacant, host, d_max)
                }
                None => 0,
            },
            // A departed node removed again: whoever holds its ID now
            // keeps it.
            12 => {
                let mut dead = (0..topo.nodes.len()).filter(|&n| !topo.nodes[n].alive);
                if let Some(dead) = dead.nth(pick) {
                    topo.remove_node(dead);
                }
                0
            }
            // Algorithm 1's exchange between two live nodes.
            13 => {
                let from = topo.nodes[live[(pick + x as usize + 1) % live.len()]].id;
                u32::from(from != id && topo.link_if_absent(from, slot, id))
            }
            // A slot repair.
            14 | 15 => return Did::Pick((picks.repair)(topo, node, slot, rng)),
            // A stabilization round: purge, repair, refresh ring slots.
            16 => topo.stabilize_node(node, rng),
            // One hop toward a random key, probing or not, by geometry
            // or on the ring; half the keys of a small space are in
            // the ring endgame anyway.
            _ => {
                let key = topo.space.random_id(rng);
                let (probing, ring_only) = (x.is_multiple_of(2), x > 3);
                return Did::Hop(topo.route_candidates(node, key, probing, ring_only, rng));
            }
        })
    }

    /// Puts `topo`'s derived state back to cold: every cursor at the
    /// start, every stamp cleared, no node fresh and every ID joined on
    /// (so that no link, not even one to a node joining in the next
    /// step, skips a scan), and the ID index, the spare index and each
    /// host's `backed` rebuilt from the nodes. The degree maxima are
    /// history, not a function of the nodes, and stay.
    fn chill(topo: &mut Topology) {
        for node in &mut topo.nodes {
            node.scan = InlinkCursor::Start;
            node.ring_epoch = UNSTAMPED;
            node.fresh = false;
        }
        for lin in 0..topo.space.ring_size() {
            topo.joined.set(lin, true);
        }
        topo.id_index = topo.live_holders();
        for lin in 0..topo.space.ring_size() {
            topo.sync_spare(topo.space.from_lin(lin));
        }
        for (mark, host) in topo.marks.iter_mut().zip(&topo.hosts) {
            mark.backed = host.nodes.len() as u32;
        }
    }

    /// Checks every derived structure of `topo` whole.
    fn check_derived(topo: &mut Topology) {
        topo.check_id_index();
        topo.check_spare(0..topo.space.ring_size());
        topo.check_scans(0..topo.nodes.len());
        topo.check_ring_stamps(0..topo.nodes.len());
        for host in 0..topo.hosts.len() {
            topo.check_marks(host, None);
        }
        topo.check_fresh();
    }

    /// Two worlds hold the same nodes with the same `d^∞`, backward
    /// fingers and outlinks, in stored order, count the same link
    /// operations and keep the same degree marks.
    fn assert_same_tables(a: &Topology, b: &Topology) {
        assert_eq!(a.link_ops, b.link_ops);
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!((x.id, x.alive, x.d_max()), (y.id, y.alive, y.d_max()));
            assert_eq!(x.table.backward_fingers(), y.table.backward_fingers());
            assert!(
                x.table.iter_outlinks().eq(y.table.iter_outlinks()),
                "{}",
                x.id
            );
        }
        assert_eq!(a.marks, b.marks);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Two copies of one world take the same random steps. One keeps
        /// its derived state; the other is put back to cold before every
        /// step and builds tables and repairs slots through the
        /// list-filter-`rng.choose` code the spare index replaced, kept
        /// here as the model. After every step they must hold the same
        /// tables, link counts and watermarks, have answered alike and
        /// stand at the same RNG position, and every structure of the
        /// first must pass its check whole: an `on_*` arm that misses a
        /// write fails here.
        #[test]
        fn derived_state_matches_a_cold_twin(
            dim in 3u8..7,
            dense in proptest::bool::ANY,
            seed in 0u64..1000,
            // Few nodes take most steps — ring neighbors, as the slab
            // starts out in ring order — so one node's grows and sheds,
            // its holders' hops and the membership events around them
            // interleave often.
            ops in proptest::collection::vec((0u8..21, 0usize..6, 0u32..6), 1..60),
        ) {
            let fill = if dense { 0.9 } else { 0.35 };
            let warm_picks = Picks { build: Topology::build_node_table, repair: Topology::repair_slot };
            let cold_picks = Picks { build: listed_build_node_table, repair: listed_repair_slot };
            let (mut warm, mut rng_a) = random_world(dim, fill, seed, warm_picks.build);
            let (mut cold, mut rng_b) = random_world(dim, fill, seed, cold_picks.build);
            assert_same_tables(&warm, &cold);
            check_derived(&mut warm);
            for (op, pick, x) in ops {
                chill(&mut cold);
                let did = step(&mut warm, &mut rng_a, &warm_picks, op, pick, x);
                assert_eq!(did, step(&mut cold, &mut rng_b, &cold_picks, op, pick, x));
                assert_same_tables(&warm, &cold);
                assert_eq!(rng_a.clone().gen::<u64>(), rng_b.clone().gen::<u64>());
                check_derived(&mut warm);
            }
        }
    }

    /// `build_table` as it was written before the spare index: each
    /// slot's region listed, filtered by spare indegree and drawn from
    /// with `rng.choose`; when nobody has spare, the last member with
    /// the most.
    fn listed_build_table(topo: &mut Topology, node: CycloidId, rng: &mut SimRng) {
        for (slot, candidates) in topo.table_slots(node) {
            let candidates: Vec<CycloidId> =
                candidates.into_iter().filter(|&c| c != node).collect();
            let with_spare: Vec<CycloidId> = candidates
                .iter()
                .copied()
                .filter(|&c| topo.spare_indegree(c) >= 1)
                .collect();
            let most = candidates.iter().copied();
            let most = most.max_by_key(|&c| topo.spare_indegree(c));
            let Some(chosen) = rng.choose(&with_spare).copied().or(most) else {
                continue;
            };
            topo.link_if_absent(node, slot, chosen);
        }
    }

    /// `build_node_table`'s elastic arm over [`listed_build_table`].
    fn listed_build_node_table(topo: &mut Topology, node: usize, rng: &mut SimRng) {
        listed_build_table(topo, topo.nodes[node].id, rng);
        let target = initial_indegree_target(&topo.params, topo.nodes[node].d_max());
        topo.expand(node, target);
        topo.refresh_ring_slots(node);
    }

    /// `repair_slot`'s elastic arm as it was written before the spare
    /// index: the region listed and filtered, then `rng.choose` over the
    /// members with spare, else over all of them.
    fn listed_repair_slot(
        topo: &mut Topology,
        node: usize,
        slot: CycloidSlot,
        rng: &mut SimRng,
    ) -> Option<CycloidId> {
        let id = topo.nodes[node].id;
        let region = topo.entry_region(id, slot)?;
        let members = topo.registry.nodes_in_region(region).into_iter();
        let members: Vec<CycloidId> = members.filter(|&m| m != id).collect();
        let with_spare: Vec<CycloidId> = members
            .iter()
            .copied()
            .filter(|&m| topo.spare_indegree(m) >= 1)
            .collect();
        let pool = if with_spare.is_empty() {
            &members
        } else {
            &with_spare
        };
        let pick = rng.choose(pool).copied()?;
        topo.add_link(id, slot, pick);
        Some(pick)
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    #[should_panic(expected = "spare index bit of")]
    fn sanitizer_catches_a_spare_index_out_of_step() {
        let (mut topo, mut rng) = full_topology(TablePolicy::Elastic);
        let (space, node) = (topo.space, topo.node_idx(topo.space.id(2, 0b0110)).unwrap());
        // Inlinks recorded behind `apply`'s back, until the node has no
        // spare indegree left.
        let mut holders = (0..space.ring_size()).map(|lin| space.from_lin(lin));
        while topo.nodes[node].spare_indegree() >= 1 {
            topo.nodes[node].table.add_backward(holders.next().unwrap());
        }
        // (3, 0110)'s cyclic region holds (2, 0110): repairing that slot
        // counts it.
        let repairer = topo.node_idx(space.id(3, 0b0110)).unwrap();
        topo.repair_slot(repairer, CycloidSlot::Cyclic, &mut rng);
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    #[should_panic(expected = "names departed node")]
    fn sanitizer_catches_an_id_index_entry_naming_a_departed_node() {
        let (mut topo, _) = full_topology(TablePolicy::SingleClosest);
        // Node 5 leaves behind `apply`'s back: its entry still names it.
        topo.nodes[5].alive = false;
        assert!(!topo.is_alive(topo.nodes[5].id));
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    #[should_panic(expected = "purging a link to live node")]
    fn sanitizer_catches_a_purge_of_a_link_to_a_live_node() {
        let (mut topo, _) = full_topology(TablePolicy::Elastic);
        let to = topo.nodes[5].table.outlinks(CycloidSlot::RingSucc)[0];
        topo.purge_dead_link(5, CycloidSlot::RingSucc, to);
    }

    #[test]
    fn a_reused_id_is_not_fresh_and_hears_present_from_a_stale_holder() {
        let (mut topo, mut rng) = full_topology(TablePolicy::Elastic);
        assert!(topo.nodes.iter().all(|n| n.fresh));
        // A node X some live holder keeps in an entry slot.
        let (x, holder, slot) = (0..topo.nodes.len())
            .find_map(|x| {
                let id = topo.nodes[x].id;
                let fingers = topo.nodes[x].table.backward_fingers().iter();
                fingers.filter_map(|&h| topo.node_idx(h)).find_map(|h| {
                    let entry = [CycloidSlot::Cubical, CycloidSlot::Cyclic];
                    let held = entry.into_iter();
                    let mut held = held.filter(|&s| topo.nodes[h].table.outlinks(s).contains(&id));
                    held.next().map(|slot| (x, h, slot))
                })
            })
            .expect("some node is held in an entry slot");
        let (id, host, d_max) = (topo.nodes[x].id, topo.nodes[x].host, topo.nodes[x].d_max());
        // X leaves; the holder keeps its stale entry. Y joins on X's ID.
        topo.remove_node(x);
        let y = topo.add_node(id, host, d_max);
        assert!(!topo.nodes[y].fresh);
        assert!(topo.nodes[y].table.backward_fingers().is_empty());
        let holder_id = topo.nodes[holder].id;
        assert!(topo.inlink_candidates(id).contains(&(slot, holder_id)));
        // Y's grow asks the holder, which must answer "present".
        let ops = topo.link_ops;
        assert!(!topo.link_if_absent(holder_id, slot, id));
        assert_eq!(topo.link_ops, ops);
        let held = topo.nodes[holder].table.outlinks(slot);
        assert_eq!(held.iter().filter(|&&h| h == id).count(), 1);
        // A whole build and grow of Y leaves no entry twice in a slot.
        topo.build_node_table(y, &mut rng);
        topo.grow_inlinks(y, d_max);
        for n in topo.nodes.iter().filter(|n| n.alive) {
            for (slot, to) in n.table.iter_outlinks() {
                let copies = n.table.outlinks(slot).iter().filter(|&&t| t == to).count();
                assert_eq!(copies, 1, "{} holds {to} twice in {slot:?}", n.id);
            }
        }
    }

    #[test]
    fn a_grow_on_a_static_world_takes_the_fast_path() {
        // The same world twice; the second has had its fresh bits
        // cleared, so its links all scan.
        let world = || random_world(6, 0.9, 3, Topology::build_node_table).0;
        let (mut fast, mut slow) = (world(), world());
        for node in &mut slow.nodes {
            node.fresh = false;
        }
        let node = (0..fast.nodes.len())
            .find(|&n| fast.scan_cursor(n) != InlinkCursor::End)
            .expect("some scan has candidates left");
        assert!(fast.nodes[node].fresh);
        let (fast_checks, slow_checks) = (fast.derived_checks, slow.derived_checks);
        let mut gained = 0;
        for topo in [&mut fast, &mut slow] {
            topo.set_d_max(node, 1000);
            gained = topo.grow_inlinks(node, 1000);
        }
        assert!(gained > 0, "the grow linked nothing");
        assert_same_tables(&fast, &slow);
        // Each fast-path link runs the armed differential once; the
        // two grows run every other check alike.
        let fired = (fast.derived_checks - fast_checks) - (slow.derived_checks - slow_checks);
        match crate::sanitize::Sanitizer::ACTIVE {
            true => assert!(fired > 0, "no link took the fast path"),
            false => assert_eq!(fired, 0),
        }
    }
}
