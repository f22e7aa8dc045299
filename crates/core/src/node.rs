//! One ERT node: the per-node state and the steps of the paper's
//! Algorithms 1–4, written once for every runtime that hosts them.
//!
//! An [`ErtNode`] owns what a single participant owns — elastic table,
//! FIFO service queue, adaptive indegree bound, load counters — and
//! answers its peers through [`ErtNode::serve`]. The three operations
//! that need *other* nodes — the table build, Algorithm 4's route and
//! Algorithm 3's adapt — are [`Task`]s, values the host holds and
//! steps: each step either asks one peer one [`PeerOp`] or finishes, and
//! the next step takes the answer. The node never reaches a peer
//! itself, so a host answers an ask however it reaches peers: by the
//! peer's `serve` between two steps when it holds every node, or as an
//! RPC. The overlay the operations read is a [`Geometry`].
//!
//! Asking a peer is an RPC on the wire host, so the node asks only what
//! it does not already know. Algorithm 1's scan is *resumable*: the
//! node remembers the last inlink candidate it passed and the next
//! expansion starts after it (see [`ErtNode::view_changed`] for why
//! that is exact). Algorithm 4 is *draw-then-probe*: the poll set is
//! drawn from the hop's candidate ids and only the drawn candidates
//! are asked for their load. So is Algorithm 2's table build: an
//! elastic slot draws its region's members in random order and asks
//! each drawn member for its spare indegree until one has some (see
//! [`Build`] for why that is the same pick).
//!
//! A link is recorded once at each end, without a search. The holder's
//! "added" answer is the whole record of an inlink: the node appends
//! the holder to its backward fingers without first looking for it
//! there, because it cannot be there. That rests on one invariant and
//! one geometry contract. *Invariant I*: every backward finger of a
//! node names a peer that holds the node in the one elastic slot its
//! table can hold it in. A finger is written only after its holder
//! linked (the holder's `AddBackward` after its own build pick, or the
//! holder's "added" answer), and a holder drops that outlink
//! only on the node's `DropOutlinks` — its shed, which removes the
//! finger in the same step — or when the node departs, which takes the
//! node's fingers with it; and a build pick whose `AddBackward` is not
//! answered is taken back, so no holder keeps a link its target did not
//! record. *The contract*
//! ([`Geometry::inlink_candidates`]): a holder is paired with exactly
//! one elastic slot that can hold the node. So a holder that answers
//! "added" did not hold the node in that slot, hence in no elastic
//! slot, hence is not a finger. See `Expand`.
//!
//! The holder mostly answers "added" without a search of its own: a
//! per-node presence filter (`HeldIds`) says when no slot holds the
//! asker, and the id is appended without a scan.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ert_overlay::ArcMembers;
use ert_sim::{SimDuration, SimRng};
use rand::Rng;

use crate::adapt::{adapt_step, adaptation_action, AdaptAction, AdaptStep};
use crate::assign::initial_indegree_target;
use crate::forward::{Contact, Decision, ForwardPolicy, ForwardScratch, Poll};
use crate::params::ErtParams;
use crate::table::ElasticTable;

/// Which protocol a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiniProtocol {
    /// The geometry's classic table (one neighbor per slot) with
    /// deterministic greedy routing.
    Classic,
    /// The full ERT mechanism: capacity-bounded indegree assignment and
    /// expansion, periodic adaptation, b-way forwarding with memory.
    ElasticErt,
}

/// Configuration of a run of nodes (Table 2 queueing defaults).
#[derive(Debug, Clone, Copy)]
pub struct MiniDhtConfig {
    /// Master seed.
    pub seed: u64,
    /// Service time of a light node (heavy is 5×).
    pub light_service: SimDuration,
    /// Service time of a heavy node.
    pub heavy_service: SimDuration,
    /// ERT parameters; `alpha` defaults to `scale_hint + 3` by analogy
    /// with the paper's `d + 3`.
    pub ert: ErtParams,
    /// Hop-limit safety valve.
    pub max_hops: u32,
}

impl MiniDhtConfig {
    /// Defaults; `scale_hint` plays the role of the overlay dimension
    /// in the `α = d + 3` rule. On Cycloid a `scale_hint` of `d` gives
    /// the paper's `α = d + 3` exactly; elsewhere use the Chord bit
    /// width or the Pastry digit count × digit width.
    pub fn defaults(scale_hint: u8, seed: u64) -> Self {
        MiniDhtConfig {
            seed,
            light_service: SimDuration::from_secs_f64(0.2),
            heavy_service: SimDuration::from_secs_f64(1.0),
            ert: ErtParams {
                alpha: scale_hint as f64 + 3.0,
                ..ErtParams::default()
            },
            max_hops: 64 + 8 * scale_hint as u32,
        }
    }
}

/// One node's indegree-adaptation outcome in one adaptation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptTrace {
    /// Adaptation round counter (0-based).
    pub round: u32,
    /// Ring id of the adapting node.
    pub node: u64,
    /// Signed indegree delta requested: `-shed` (post-clamp) for Shed,
    /// the raw grow amount for Grow, `0` for Keep.
    pub delta: i64,
    /// The node's `d_max` after applying the action.
    pub d_max: u32,
}

/// A lookup while it is resident on a node or in flight between two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    /// Platform-unique query identifier.
    pub query: u64,
    /// Target key on the ring.
    pub key: u64,
    /// Hops taken so far.
    pub hops: u32,
    /// Client retry attempt (0 for the first send).
    pub attempts: u32,
    /// Sticky per-query flag: the geometry fell back to its numeric
    /// endgame.
    pub numeric_mode: bool,
    /// Overloaded nodes seen so far (Algorithm 4's set `A`).
    pub avoid: BTreeSet<u64>,
}

/// Link sub-operation one node asks of another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptOp {
    /// Add an outlink from the receiver to the sender at `slot` unless
    /// it is already there; the answer says which it was.
    AddOutlink,
    /// Remove every outlink from the receiver to the sender (shed).
    DropOutlinks,
    /// Record the sender as a backward finger of the receiver.
    AddBackward,
}

/// What one node can ask of a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerOp {
    /// Report your load, capacity and indegree.
    Probe,
    /// Apply a link operation on behalf of node `from`.
    Link {
        /// The asking node.
        from: u64,
        /// Slot of the receiver's table the op applies to.
        slot: u16,
        /// The sub-operation.
        op: AdaptOp,
    },
}

/// A peer's answer to any [`PeerOp`]: its state after the op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerReport {
    /// Queue plus in-service load; the answer to [`AdaptOp::AddOutlink`]
    /// (no link operation needs a load) carries its outcome here
    /// instead: 1 = the outlink was already present, 0 = added.
    pub load: u64,
    /// Evaluated capacity.
    pub capacity: u64,
    /// Current indegree (backward-finger count).
    pub indegree: u32,
    /// Spare indegree `d_max − indegree` (may be negative).
    pub spare: i64,
}

/// Outcome of carrying a [`PeerOp`] to a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerAnswer {
    /// The peer answered.
    Report(PeerReport),
    /// No such peer. Forwarding scores it as load 0, capacity 1; link
    /// construction treats it as having no spare indegree.
    Unknown,
    /// The peer exists but cannot be reached now (a partition): it is
    /// left out of this decision.
    Unreachable,
}

/// Where a lookup goes after its service completes on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// This node owns the key.
    Found,
    /// Forward to this peer; the lookup's hop count and avoid-set are
    /// already updated.
    Next(u64),
    /// The hop limit is exhausted.
    Dropped,
    /// No owner, or no reachable candidate.
    Failed,
}

/// Where one routing hop's candidates came from; the candidate ids
/// themselves fill the caller's buffer ([`Geometry::hop_candidates`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopCandidates {
    /// The table slot the candidates belong to (memory is keyed on it).
    pub slot: u16,
    /// The fresh contents of `slot` when the hop fell back to the
    /// geometry's structural list (the successor list on Chord, the
    /// leaf set on Pastry and Cycloid): the node writes them into
    /// `slot` through `ErtNode`, the one writer of its slots.
    pub refreshed: Option<Vec<u64>>,
}

/// What a DHT geometry must provide for an [`ErtNode`] to run on it.
///
/// Identifiers are `u64`; table slots are opaque `u16` values the
/// geometry defines (e.g. the finger index on Chord, `row·base + col`
/// on Pastry, cubical and cyclic on Cycloid). *Structural* slots
/// (successor lists, leaf sets, tiny regions every table must fill) do
/// not consume elastic indegree.
pub trait Geometry {
    /// Display name for reports ("Chord", "Pastry", "Cycloid").
    fn name(&self) -> &'static str;

    /// The live member IDs, ascending (a host maps them 1:1 onto
    /// capacities and indexes them).
    fn members(&self) -> Vec<u64>;

    /// The live node owning `key`, or `None` on an empty overlay.
    fn owner(&self, key: u64) -> Option<u64>;

    /// A uniformly random key.
    fn random_key(&self, rng: &mut SimRng) -> u64;

    /// The slots of `node`'s table but the sentinel, in table order,
    /// each with the live candidates its region holds (empty regions
    /// omitted), borrowed from the membership. No region holds `node`.
    fn region_slots(&self, node: u64) -> impl Iterator<Item = (u16, ArcMembers<'_>)> + '_;

    /// The last slot of `node`'s table and its members, which are a
    /// list rather than a region: the successor list on Chord, the
    /// leaf set on Pastry and Cycloid.
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
    /// prefix and `node`'s digit in it, on Cycloid the holder's cubical
    /// or cyclic slot by the reverse region it sits in (Algorithm 1's
    /// ring phase is not a pair: the leaf set is structural). A holder's
    /// "added" answer to Algorithm 1 therefore means it held `node` in
    /// no elastic slot, which is what lets the asker record the inlink
    /// without searching its backward fingers (`Expand`).
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
    /// from the node's table into `ids` (live by construction — the
    /// mini platforms have no churn); a hop that falls back to the
    /// structural list hands back its refresh in
    /// [`HopCandidates::refreshed`] instead of writing the table.
    /// `numeric_mode` is per-query sticky state: once a geometry falls
    /// back to its numeric/ring endgame it stays there (guaranteeing
    /// termination).
    ///
    /// `ids` is the caller's buffer, reused from hop to hop so that a
    /// hop allocates no list: the impl clears it and fills it, and never
    /// reads what it held before, so a dirty buffer yields exactly the
    /// ids a fresh one would.
    fn hop_candidates(
        &self,
        cur: u64,
        owner: u64,
        table: &ElasticTable<u16, u64>,
        numeric_mode: &mut bool,
        ids: &mut Vec<u64>,
    ) -> HopCandidates;

    /// Estimated remaining distance from `from` to `owner`; smaller is
    /// closer. Used to score forwarding candidates.
    fn metric(&self, from: u64, owner: u64) -> u64;
}

/// Bits in a [`HeldIds`] filter, as a power of two: 1024 bits, 128
/// bytes per node.
const HELD_LOG2: u32 = 10;

/// A presence filter over every peer id a node's slots have held: one
/// bit per id, at the top ten bits of its Fibonacci hash.
///
/// *Exactness.* The filter holds a superset of the ids in every slot of
/// the node's table, so a clear bit means no slot holds the id, and
/// [`ErtNode::add_outlink`] appends it without scanning. Three facts
/// keep the superset:
/// - *One writer.* An id enters a slot only through
///   `ErtNode::add_outlink` (`serve(AddOutlink)` and the build's own
///   pick) or `ErtNode::set_slot` (a hop's structural refresh,
///   [`HopCandidates::refreshed`]), and each sets the id's bit
///   before it writes. [`Geometry::hop_candidates`] reads the table and
///   never writes it.
/// - *Structural writes set bits too.* So the filter does not lean on
///   the contract that `AddOutlink` names only elastic slots
///   ([`Geometry::inlink_candidates`]): an `AddOutlink` that names a
///   structural slot — a forged frame, say — is still answered exactly.
/// - *No clears.* `DropOutlinks`, `purge_peer`, a refresh and a build
///   pick its target did not record remove ids and leave their bits
///   set. A set bit for an id no slot holds only costs the scan that
///   every insert paid before the filter.
///
/// *Saturation.* Bits only accumulate, so a node whose slots have held
/// many distinct peers sets most of them, and its inserts fall back to
/// the scan: the old cost plus one bit test, never a wrong answer. A
/// `debug_assertions` differential in `add_outlink` checks, on every
/// clear-bit insert, that no slot holds the id.
#[derive(Debug, Clone, Copy, Default)]
struct HeldIds([u64; 1 << (HELD_LOG2 - 6)]);

impl HeldIds {
    /// Sets `id`'s bit; returns whether it was clear.
    #[inline]
    fn insert(&mut self, id: u64) -> bool {
        let bit = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - HELD_LOG2);
        let (word, mask) = (&mut self.0[(bit >> 6) as usize], 1 << (bit & 63));
        let clear = *word & mask == 0;
        *word |= mask;
        clear
    }
}

/// State of one ERT node.
#[derive(Debug)]
pub struct ErtNode {
    id: u64,
    protocol: MiniProtocol,
    capacity_eval: u32,
    d_max: u32,
    table: ElasticTable<u16, u64>,
    queue: VecDeque<Lookup>,
    in_service: Option<Lookup>,
    period_load: u64,
    total_received: u64,
    max_congestion: f64,
    heavy_encounters: u64,
    adapt_round: u32,
    /// The last inlink candidate Algorithm 1 passed with a definite
    /// answer; `None` when the next expansion must scan from the top.
    scanned_to: Option<(u16, u64)>,
    /// Every peer id the table's slots have held.
    held: HeldIds,
    /// Inserts through `add_outlink`: `[clear bit, set bit]`.
    inserts: [u64; 2],
}

impl ErtNode {
    /// A node with an empty table. `capacity_eval` is `max_indegree`
    /// over the normalized capacity; it bounds the indegree under ERT
    /// and is the congestion denominator under both protocols.
    pub fn new(id: u64, capacity_eval: u32, protocol: MiniProtocol) -> ErtNode {
        ErtNode {
            id,
            protocol,
            capacity_eval,
            d_max: match protocol {
                MiniProtocol::Classic => u32::MAX >> 8,
                MiniProtocol::ElasticErt => capacity_eval,
            },
            table: ElasticTable::new(),
            queue: VecDeque::new(),
            in_service: None,
            period_load: 0,
            total_received: 0,
            max_congestion: 0.0,
            heavy_encounters: 0,
            adapt_round: 0,
            scanned_to: None,
            held: HeldIds::default(),
            inserts: [0; 2],
        }
    }

    /// Ring id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current backward-finger count.
    pub fn indegree(&self) -> u32 {
        self.table.indegree() as u32
    }

    /// Current adaptive indegree bound.
    pub fn d_max(&self) -> u32 {
        self.d_max
    }

    /// Lookups received over the node's lifetime.
    pub fn total_received(&self) -> u64 {
        self.total_received
    }

    /// Highest congestion (load over evaluated capacity) seen so far.
    pub fn max_congestion(&self) -> f64 {
        self.max_congestion
    }

    /// Arrivals that found this node heavy.
    pub fn heavy_encounters(&self) -> u64 {
        self.heavy_encounters
    }

    /// The routing table, read-only: the drivers' symmetry checks read
    /// it.
    pub fn table(&self) -> &ElasticTable<u16, u64> {
        &self.table
    }

    /// Inserts into the table's slots so far, by the `HeldIds` bit
    /// they found: `[clear (appended), set (scanned)]`.
    pub fn inserts(&self) -> [u64; 2] {
        self.inserts
    }

    /// Adds `peer` to `slot` unless it is already there; returns whether
    /// it was added. With [`ErtNode::set_slot`] the only way an id
    /// enters a slot: a clear [`HeldIds`] bit says no slot holds `peer`,
    /// so it is appended without a scan, and a set bit falls back to the
    /// scanning `add_outlink`.
    #[inline]
    fn add_outlink(&mut self, slot: u16, peer: u64) -> bool {
        let clear = self.held.insert(peer);
        self.inserts[usize::from(!clear)] += 1;
        if clear {
            debug_assert!(
                !self.table.has_outlink_to(peer),
                "node {}: the bit of {peer} is clear, but a slot holds it",
                self.id
            );
            self.table.push_outlink(slot, peer);
            true
        } else {
            self.table.add_outlink(slot, peer)
        }
    }

    /// Replaces a structural slot's contents with a hop's refresh,
    /// setting the bit of every id first.
    fn set_slot(&mut self, slot: u16, ids: Vec<u64>) {
        for &id in &ids {
            self.held.insert(id);
        }
        self.table.set_slot(slot, ids);
    }

    /// The link op `op` on `slot` of the asked peer's table, from this
    /// node.
    #[inline]
    fn link(&self, slot: u16, op: AdaptOp) -> PeerOp {
        let from = self.id;
        PeerOp::Link { from, slot, op }
    }

    /// Forgets a departed peer: drops it from every slot, the memory
    /// and the backward fingers.
    pub fn purge_peer(&mut self, peer: u64) {
        self.table.purge_peer(peer);
        self.view_changed();
    }

    /// The host's membership view changed: the next indegree expansion
    /// scans its candidates from the top again.
    ///
    /// Between two such calls the saved scan position is exact, not a
    /// heuristic. At a fixed membership the candidate order is a
    /// function of the geometry and this node's id. Every candidate
    /// before the position answered `AddOutlink` with "present" or
    /// "added", so it holds an outlink to this node; a peer removes an
    /// outlink to this node only when this node asks it to
    /// (`DropOutlinks`, sent by its own shed, which clears the position
    /// itself) — a peer's own shed drops *its* inlinks, and a slot
    /// refresh touches only structural slots, which are never inlink
    /// candidates. So a scan from the top would hear "present" from
    /// every candidate before the position, changing nothing; resuming
    /// after it reaches the same links. A scan in which some peer did
    /// not answer keeps the old position. What is left is a view change
    /// — a joiner may sort before the position, a leaver takes its link
    /// with it — and this is the one way it clears the position.
    pub fn view_changed(&mut self) {
        self.scanned_to = None;
    }

    #[inline]
    fn load(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    #[inline]
    fn is_heavy(&self) -> bool {
        self.load() > self.capacity_eval as usize
    }

    #[inline]
    fn spare(&self) -> i64 {
        self.d_max as i64 - self.table.indegree() as i64
    }

    /// A lookup arrives: heavy accounting, then service or queue, then
    /// the congestion high-water mark. Returns the service time when
    /// the lookup went straight into service; the host owes the node a
    /// [`ErtNode::service_done`] for it after that delay.
    #[inline]
    pub fn arrive(&mut self, lookup: Lookup, cfg: &MiniDhtConfig) -> Option<SimDuration> {
        if self.is_heavy() {
            self.heavy_encounters += 1;
        }
        self.total_received += 1;
        self.period_load += 1;
        let started = if self.in_service.is_none() {
            Some(self.start_service(lookup, cfg))
        } else {
            self.queue.push_back(lookup);
            None
        };
        let g = self.load() as f64 / self.capacity_eval as f64;
        if g > self.max_congestion {
            self.max_congestion = g;
        }
        started
    }

    /// The service-time rule: a node that is heavy once the lookup is
    /// in its slot serves it at the heavy rate.
    #[inline]
    fn start_service(&mut self, lookup: Lookup, cfg: &MiniDhtConfig) -> SimDuration {
        self.in_service = Some(lookup);
        if self.is_heavy() {
            cfg.heavy_service
        } else {
            cfg.light_service
        }
    }

    /// Service of `query` finished. Returns the served lookup (to be
    /// routed by [`ErtNode::route`]) and, when the queue was not empty,
    /// the query now in service with its service time. `None` when
    /// `query` is not the one in service (a stale callback).
    #[inline]
    pub fn service_done(
        &mut self,
        query: u64,
        cfg: &MiniDhtConfig,
    ) -> Option<(Lookup, Option<(u64, SimDuration)>)> {
        if self.in_service.as_ref().map(|l| l.query) != Some(query) {
            return None;
        }
        let served = self.in_service.take()?;
        let next = self
            .queue
            .pop_front()
            .map(|l| (l.query, self.start_service(l, cfg)));
        Some((served, next))
    }

    /// Answers a peer's probe or link operation from local state only.
    ///
    /// An `AddOutlink` answer carries its outcome where the load would
    /// be, so the holder does not read its queue for it: the serve
    /// touches only the filter, the slot and the fields the report
    /// names.
    // The drivers call this once per RPC from other crates; `#[inline]`
    // here and on its callees keeps it inlined there.
    #[inline]
    pub fn serve(&mut self, op: PeerOp) -> PeerReport {
        if let PeerOp::Link { from, slot, op } = op {
            match op {
                AdaptOp::AddOutlink => {
                    let present = !self.add_outlink(slot, from);
                    return self.report(u64::from(present));
                }
                AdaptOp::DropOutlinks => {
                    self.table.remove_outlinks_to(from);
                }
                AdaptOp::AddBackward => {
                    self.table.add_backward(from);
                }
            }
        }
        self.report(self.load() as u64)
    }

    #[inline]
    fn report(&self, load: u64) -> PeerReport {
        PeerReport {
            load,
            capacity: self.capacity_eval as u64,
            indegree: self.table.indegree() as u32,
            spare: self.spare(),
        }
    }

    /// Canonical routing-state fingerprint: outlinks per occupied slot,
    /// memory entries, backward fingers, and the adaptive bound. Two
    /// nodes with equal fingerprints hold identical routing state.
    pub fn fingerprint(&self) -> String {
        let t = &self.table;
        let out: Vec<String> = t
            .occupied_slots()
            .map(|s| {
                let ids: Vec<String> = t.outlinks(s).iter().map(u64::to_string).collect();
                format!("{s}:{}", ids.join(","))
            })
            .collect();
        let mem: Vec<String> = t
            .occupied_slots()
            .filter_map(|s| t.memory(s).map(|m| format!("{s}:{m}")))
            .collect();
        let back: Vec<String> = t.backward_fingers().iter().map(u64::to_string).collect();
        format!(
            "id={};dmax={};out=[{}];mem=[{}];back=[{}]",
            self.id,
            self.d_max,
            out.join("|"),
            mem.join("|"),
            back.join(",")
        )
    }

    /// This node's table build on `geometry`, as a [`Build`] task.
    pub fn build<'a, G: Geometry>(
        &self,
        geometry: &'a G,
        cfg: &MiniDhtConfig,
    ) -> Build<
        'a,
        G,
        impl Iterator<Item = (u16, Option<ArcMembers<'a>>)> + 'a,
        impl Iterator<Item = (u16, u64)> + 'a,
    > {
        let elastic = self.protocol == MiniProtocol::ElasticErt;
        let target = initial_indegree_target(&cfg.ert, self.d_max);
        let (sentinel, listed) = geometry.sentinel_slot(self.id);
        let regions = geometry.region_slots(self.id);
        Build {
            geometry,
            rng: SimRng::seed_from(cfg.seed ^ self.id),
            slots: regions.map(|(s, m)| (s, Some(m))).chain([(sentinel, None)]),
            sentinel: listed,
            expand: elastic.then(|| expand(geometry, self, target)),
            at: BuildAt::Slots,
        }
    }

    /// Algorithm 4 for a lookup whose service just completed here, as a
    /// [`Route`] task: finished at once if this node owns the key, the
    /// hop limit is spent or there is no owner; otherwise it draws the
    /// poll set from the hop's candidates with `rng` and asks only those
    /// for their load. A candidate hidden by a partition drops out when
    /// asked and the draw repeats. The hop works in `scratch`'s buffers.
    pub fn route<'a, G: Geometry>(
        &mut self,
        geometry: &'a G,
        cfg: &MiniDhtConfig,
        lookup: &'a mut Lookup,
        rng: &'a mut SimRng,
        scratch: &'a mut RouteScratch,
    ) -> Route<'a, G> {
        let at = match geometry.owner(lookup.key) {
            Some(owner) if owner == self.id => Err(Hop::Found),
            _ if lookup.hops >= cfg.max_hops => Err(Hop::Dropped),
            None => Err(Hop::Failed),
            Some(owner) => {
                let ids = &mut scratch.ids;
                let hc = geometry.hop_candidates(
                    self.id,
                    owner,
                    &self.table,
                    &mut lookup.numeric_mode,
                    ids,
                );
                if let Some(refreshed) = hc.refreshed {
                    self.set_slot(hc.slot, refreshed);
                }
                let policy = match self.protocol {
                    MiniProtocol::Classic => ForwardPolicy::Deterministic,
                    MiniProtocol::ElasticErt => ForwardPolicy::TwoChoice {
                        topology_aware: true,
                        use_memory: true,
                    },
                };
                let decision = Decision::new(
                    policy,
                    ids,
                    self.table.memory(hc.slot),
                    &lookup.avoid,
                    cfg.ert.gamma_l,
                    cfg.ert.probe_width,
                    &mut scratch.forward,
                );
                Ok((owner, hc.slot, decision))
            }
        };
        Route {
            geometry,
            lookup,
            rng,
            scratch,
            at,
        }
    }

    /// One Algorithm 3 round for this node, as an [`Adapt`] task:
    /// `adapt_step` sizes the action and sets `d^∞` here, then the task
    /// drops the newest backward fingers (the mini platforms carry no
    /// locality to rank by) or expands toward the step's target, and
    /// resets the period load.
    pub fn adapt<'a, G: Geometry>(
        &mut self,
        geometry: &'a G,
        cfg: &MiniDhtConfig,
    ) -> Adapt<'a, G, impl Iterator<Item = (u16, u64)> + 'a> {
        let capacity = self.capacity_eval;
        let action = adaptation_action(self.period_load as f64, capacity as f64, &cfg.ert);
        if let AdaptAction::Shed(_) = action {
            // Victims no longer point here: passed candidates are open
            // again. Also on a shed of 0: a holder whose `AddBackward`
            // was lost holds this node unrecorded, maybe behind the scan.
            self.scanned_to = None;
        }
        let (delta, at) = match adapt_step(action, capacity, self.indegree(), self.d_max) {
            AdaptStep::Keep => (0, AdaptAt::Shed(Vec::new().into_iter())),
            AdaptStep::Shed { count, d_max } => {
                let fingers = self.table.backward_fingers().iter().rev();
                let victims: Vec<u64> = fingers.take(count as usize).copied().collect();
                debug_assert_eq!(victims.len(), count as usize, "a shed sized {count}");
                self.d_max = d_max;
                (-i64::from(count), AdaptAt::Shed(victims.into_iter()))
            }
            AdaptStep::Grow { ask, target, d_max } => {
                self.d_max = d_max;
                (
                    i64::from(ask),
                    AdaptAt::Grow(expand(geometry, self, target)),
                )
            }
        };
        Adapt { delta, at }
    }
}

/// What a [`Task`] needs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<T> {
    /// Carry `op` to `peer`, and hand the answer to the next step.
    Ask {
        /// The peer asked.
        peer: u64,
        /// What it is asked.
        op: PeerOp,
    },
    /// The task is over.
    Done(T),
}

/// A node operation that reaches its peers, run one ask at a time.
///
/// The host steps the task on the node that made it until the task is
/// [`Step::Done`], and answers each [`Step::Ask`] before the next step,
/// in issue order; a peer it cannot reach is [`PeerAnswer::Unknown`] or
/// [`PeerAnswer::Unreachable`]. Nothing else acts on the node between
/// two steps.
///
/// The node's `Expand`, [`Route`] and [`Adapt`] mark `step`
/// `#[inline]`: inlined into the driver's loop, a [`Step::Ask`] and its
/// [`PeerOp`] are built where the loop reads them. Returned from an
/// out-of-line step, they are written to its return slot field by
/// field and read back whole, a store-forwarding stall on every ask.
pub trait Task {
    /// What the finished task returns.
    type Out;

    /// Advances the task on `me`. `answer` answers the last ask; it is
    /// `None` on the first step.
    fn step(&mut self, me: &mut ErtNode, answer: Option<PeerAnswer>) -> Step<Self::Out>;
}

/// Steps `me`'s `task` to its end, answering each ask with `carry` in
/// issue order. A host that holds `me` apart from the peers it asks
/// drives a task with it; one that holds them all in one vector steps
/// the task itself, since `carry` would borrow `me`'s neighbours.
pub fn drive<T: Task>(
    me: &mut ErtNode,
    mut task: T,
    mut carry: impl FnMut(u64, PeerOp) -> PeerAnswer,
) -> T::Out {
    let mut answer = None;
    loop {
        match task.step(me, answer) {
            Step::Ask { peer, op } => answer = Some(carry(peer, op)),
            Step::Done(out) => return out,
        }
    }
}

/// Algorithm 1 from where the last scan stopped, toward `target`: one
/// `AddOutlink` per ask [`next_inlink_ask`](crate::assign::next_inlink_ask)
/// would make, each a holder's "take me as a neighbour", pulled from
/// one [`Geometry::inlink_candidates`] walk kept across answers. The
/// position moves to the last candidate this scan looked at, unless
/// some peer did not answer: then the next scan covers the same ground
/// again.
///
/// A holder's "added" is recorded with `push_backward`, not with the
/// scanning `add_backward`: by invariant I (module doc) every backward
/// finger holds this node in the one elastic slot the geometry pairs it
/// with, and "added" says the holder did not hold it in that slot, so
/// the holder is not yet a finger. A crash-restarted or re-joined
/// holder, or a forged `Leave`, can strand a finger whose holder no
/// longer points here and break that; the driver that admits one must
/// drop the holder from every backward list first (ROADMAP item 9(c)).
struct Expand<'a, G, I> {
    geometry: &'a G,
    target: u32,
    candidates: I,
    /// The last candidate pulled; its `AddOutlink` is the one out.
    last: Option<(u16, u64)>,
    /// A holder asked during this scan did not answer.
    unanswered: bool,
}

/// `me`'s Algorithm 1 toward `target`, from where its last scan stopped.
fn expand<'a, G: Geometry>(
    geometry: &'a G,
    me: &ErtNode,
    target: u32,
) -> Expand<'a, G, impl Iterator<Item = (u16, u64)> + 'a> {
    Expand {
        geometry,
        target,
        candidates: geometry.inlink_candidates(me.id, me.scanned_to),
        last: me.scanned_to,
        unanswered: false,
    }
}

impl<G: Geometry, I: Iterator<Item = (u16, u64)>> Task for Expand<'_, G, I> {
    type Out = ();

    #[inline]
    fn step(&mut self, me: &mut ErtNode, answer: Option<PeerAnswer>) -> Step<()> {
        match (answer, self.last) {
            (Some(PeerAnswer::Report(r)), Some((slot, holder))) => {
                if r.load == 0 && !self.geometry.is_structural(slot) {
                    me.table.push_backward(holder);
                }
            }
            (Some(_), _) => self.unanswered = true,
            (None, _) => {}
        }
        // `next_inlink_ask` spelt out: a `find` over the walk would pull
        // each pair through an out-of-line `try_fold` that stores it and
        // reads it back whole, a store-forwarding stall per candidate.
        if me.indegree() < self.target {
            for (slot, holder) in self.candidates.by_ref() {
                self.last = Some((slot, holder));
                if holder != me.id {
                    let op = me.link(slot, AdaptOp::AddOutlink);
                    return Step::Ask { peer: holder, op };
                }
            }
        }
        if !self.unanswered {
            me.scanned_to = self.last;
        }
        Step::Done(())
    }
}

/// The table-build rule ([`ErtNode::build`]). Classic: the geometry's
/// pick per slot. ERT: structural slots take the classic pick, elastic
/// slots a random peer among those with spare indegree (none if the
/// whole region is saturated — greedy routing tolerates the gap), then
/// the indegree expands to the `β·d_max` target. An elastic pick is
/// linked only once its target answers the `AddBackward` that records
/// the inlink; a target that does not answer keeps no link from it.
///
/// An elastic slot is *draw-then-probe*: a partial Fisher–Yates
/// shuffle of the region's members (`Shuffle`, which draws from the
/// membership's borrowed slices without copying the region), probing
/// each member as it is drawn and taking the first with spare ≥ 1. That
/// is the same pick as probing every member, filtering, and drawing
/// uniformly among the eligible ones. The first eligible element of a
/// uniformly random permutation is uniform over the eligible set; the
/// set is fixed for the whole draw, because `PeerOp::Probe` is
/// read-only and nothing else runs between two draws of one slot; and a
/// peer that does not answer counts as spare 0 in both forms. Only the
/// RNG stream differs. A region of `m` members of which `e` are
/// eligible costs `(m + 1)/(e + 1)` probes on average — one when every
/// member has spare — instead of `m`. No region holds the node itself
/// ([`Geometry::region_slots`]), so it never probes itself.
pub struct Build<'a, G, S, I> {
    geometry: &'a G,
    rng: SimRng,
    /// The slots not reached yet, in table order; the sentinel's
    /// members (`None`) are `sentinel`.
    slots: S,
    sentinel: Vec<u64>,
    /// Algorithm 1 toward the initial target once the slots are filled,
    /// under ERT.
    expand: Option<Expand<'a, G, I>>,
    at: BuildAt<'a>,
}

enum BuildAt<'a> {
    /// Between two slots.
    Slots,
    /// Drawing a slot's elastic pick from its members; the probe of the
    /// member drawn last is out.
    Draw(u16, Option<ArcMembers<'a>>, Shuffle),
    /// The `AddBackward` of the pick in a slot is out.
    Backward(u16, u64),
    /// Past the slots.
    Expand,
}

impl<'a, G, S, I> Task for Build<'a, G, S, I>
where
    G: Geometry,
    S: Iterator<Item = (u16, Option<ArcMembers<'a>>)>,
    I: Iterator<Item = (u16, u64)>,
{
    type Out = ();

    fn step(&mut self, me: &mut ErtNode, mut answer: Option<PeerAnswer>) -> Step<()> {
        loop {
            let (slot, pick) = match &mut self.at {
                BuildAt::Expand => {
                    return self
                        .expand
                        .as_mut()
                        .map_or(Step::Done(()), |e| e.step(me, answer))
                }
                BuildAt::Backward(slot, pick) => {
                    if !matches!(answer.take(), Some(PeerAnswer::Report(_))) {
                        me.table.remove_outlink(*slot, *pick);
                    }
                    self.at = BuildAt::Slots;
                    continue;
                }
                BuildAt::Draw(slot, region, shuffle) => match answer.take() {
                    Some(PeerAnswer::Report(r)) if r.spare >= 1 => (*slot, shuffle.last),
                    _ => {
                        let members = region.unwrap_or_else(|| self.sentinel.as_slice().into());
                        let Some(peer) = shuffle.draw(members, &mut self.rng) else {
                            self.at = BuildAt::Slots;
                            continue;
                        };
                        return Step::Ask {
                            peer,
                            op: PeerOp::Probe,
                        };
                    }
                },
                BuildAt::Slots => match (self.slots.next(), self.expand.is_some()) {
                    (Some((slot, region)), true) if !self.geometry.is_structural(slot) => {
                        self.at = BuildAt::Draw(slot, region, Shuffle::default());
                        continue;
                    }
                    (Some((slot, region)), _) => {
                        let members = region.unwrap_or_else(|| self.sentinel.as_slice().into());
                        match self.geometry.classic_pick(me.id, slot, members) {
                            Some(pick) => (slot, pick),
                            None => continue,
                        }
                    }
                    (None, _) => {
                        self.at = BuildAt::Expand;
                        continue;
                    }
                },
            };
            // One end of the link is this node: the target records the
            // other on `AddBackward`, and one that does not answer keeps
            // no link from here.
            self.at = BuildAt::Slots;
            if me.add_outlink(slot, pick) && !self.geometry.is_structural(slot) {
                self.at = BuildAt::Backward(slot, pick);
                let op = me.link(slot, AdaptOp::AddBackward);
                return Step::Ask { peer: pick, op };
            }
        }
    }
}

/// A partial Fisher–Yates shuffle of a region, one member at a time:
/// draw `k` swaps position `k` with a uniform `j ∈ [k, m)` and reads
/// position `k`.
///
/// The shuffle runs over the region in place. Once drawn, position `k`
/// is never read again, so what the swaps changed is only where the
/// members displaced from a drawn position went: `moved` maps each
/// such later position to the member now there, one entry per draw.
/// The RNG calls and the members drawn are exactly those of shuffling
/// a copy of the region, which the tests hold it to.
#[derive(Debug, Default)]
struct Shuffle {
    drawn: usize,
    moved: BTreeMap<usize, u64>,
    /// The member drawn last.
    last: u64,
}

impl Shuffle {
    /// The next member of `region` drawn, or `None` once all were.
    fn draw<R: Rng>(&mut self, region: ArcMembers<'_>, rng: &mut R) -> Option<u64> {
        let (k, m) = (self.drawn, region.len());
        if k >= m {
            return None;
        }
        let j = rng.gen_range(k..m);
        let at = |i: usize| self.moved.get(&i).copied().or_else(|| region.get(i));
        let (drawn, displaced) = (at(j)?, at(k)?);
        self.moved.insert(j, displaced);
        (self.drawn, self.last) = (k + 1, drawn);
        Some(drawn)
    }
}

/// The buffers one [`Route`] works in: the hop's candidate ids and
/// Algorithm 4's decision buffers. A driver keeps one and lends it to
/// every hop it routes, so a hop allocates neither.
///
/// *Exactness.* Nothing carries over from one hop to the next.
/// [`ErtNode::route`] has [`Geometry::hop_candidates`] clear and fill
/// `ids`, and the decision clears each buffer it reads when it opens,
/// both before anything reads them. So a reused scratch routes exactly
/// as a fresh one would, and one scratch serves every node a driver
/// hosts.
#[derive(Debug, Default)]
pub struct RouteScratch {
    forward: ForwardScratch<u64>,
    ids: Vec<u64>,
}

/// Algorithm 4 on one node ([`ErtNode::route`]): the hop's
/// `Decision` (`forward.rs`), each of its probes a [`PeerOp::Probe`]. An unknown
/// peer answers as load 0, capacity 1; an unreachable one drops out.
pub struct Route<'a, G> {
    geometry: &'a G,
    lookup: &'a mut Lookup,
    rng: &'a mut SimRng,
    /// The hop's candidate ids and the decision's buffers.
    scratch: &'a mut RouteScratch,
    /// The key's owner, the candidates' slot and the decision among
    /// them, or the hop decided without asking anyone.
    at: Result<(u64, u16, Decision), Hop>,
}

impl<G: Geometry> Task for Route<'_, G> {
    type Out = Hop;

    #[inline]
    fn step(&mut self, me: &mut ErtNode, answer: Option<PeerAnswer>) -> Step<Hop> {
        let (owner, slot, decision) = match &mut self.at {
            Ok((owner, slot, decision)) => (*owner, *slot, decision),
            Err(hop) => return Step::Done(*hop),
        };
        let RouteScratch { forward, ids } = &mut *self.scratch;
        let ids = &ids[..];
        let reply = answer.and_then(|answer| match answer {
            PeerAnswer::Report(r) => Some((r.load as f64, r.capacity as f64)),
            PeerAnswer::Unknown => Some((0.0, 1.0)),
            PeerAnswer::Unreachable => None,
        });
        let geometry = self.geometry;
        let contact = |i: usize| Contact {
            logical_distance: geometry.metric(ids[i], owner),
            physical_distance: 0.0,
        };
        match decision.poll(forward, reply, ids, contact, self.rng) {
            Poll::Probe(i) => Step::Ask {
                peer: ids[i],
                op: PeerOp::Probe,
            },
            // Every candidate was hidden by a partition.
            Poll::Done(None) => Step::Done(Hop::Failed),
            Poll::Done(Some(choice)) => {
                self.lookup.avoid.extend(choice.newly_overloaded);
                if let Some(mem) = choice.new_memory {
                    me.table.set_memory(slot, mem);
                }
                self.lookup.hops += 1;
                Step::Done(Hop::Next(choice.next))
            }
        }
    }
}

/// One Algorithm 3 round on one node ([`ErtNode::adapt`]): a shed's
/// `DropOutlinks` to each victim, or a grow's Algorithm 1 scan.
pub struct Adapt<'a, G, I> {
    delta: i64,
    at: AdaptAt<'a, G, I>,
}

enum AdaptAt<'a, G, I> {
    /// The victims not yet told (none on a keep); an absent one has
    /// nothing to drop.
    Shed(std::vec::IntoIter<u64>),
    Grow(Expand<'a, G, I>),
}

impl<G: Geometry, I: Iterator<Item = (u16, u64)>> Task for Adapt<'_, G, I> {
    type Out = AdaptTrace;

    #[inline]
    fn step(&mut self, me: &mut ErtNode, answer: Option<PeerAnswer>) -> Step<AdaptTrace> {
        match &mut self.at {
            AdaptAt::Shed(victims) => {
                if let Some(v) = victims.next() {
                    me.table.remove_backward(v);
                    let op = me.link(0, AdaptOp::DropOutlinks);
                    return Step::Ask { peer: v, op };
                }
            }
            AdaptAt::Grow(expand) => {
                if let Step::Ask { peer, op } = expand.step(me, answer) {
                    return Step::Ask { peer, op };
                }
            }
        }
        me.period_load = 0;
        let trace = AdaptTrace {
            round: me.adapt_round,
            node: me.id,
            delta: self.delta,
            d_max: me.d_max,
        };
        me.adapt_round += 1;
        Step::Done(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ert_overlay::{ring::forward_distance, ChordRegistry, ChordSpace};
    use proptest::{prelude::ProptestConfig, prop_assert, prop_assert_eq};

    const BITS: u8 = 6;
    const ME: u64 = 0;

    /// The loose-finger Chord ring of `ert-minidht`'s `ChordGeometry`
    /// on the same registry (finger `m`'s slot is `m`; fingers 0–2 and
    /// the successor list are structural), with a hop that reads only
    /// the finger toward the owner: no fall-back to lower fingers and no
    /// successor refresh, which `ert-minidht`'s `geometry_contract` test
    /// runs on the real one. This crate's tests cannot use a geometry
    /// from a crate that depends on it, so `the_test_ring_is_pinned`
    /// and that crate's test pin both to the same values.
    impl Geometry for ChordRegistry {
        fn name(&self) -> &'static str {
            "Chord"
        }

        fn members(&self) -> Vec<u64> {
            self.iter().collect()
        }

        fn owner(&self, key: u64) -> Option<u64> {
            ChordRegistry::owner(self, key)
        }

        fn random_key(&self, rng: &mut SimRng) -> u64 {
            self.space().random_id(rng)
        }

        fn region_slots(&self, node: u64) -> impl Iterator<Item = (u16, ArcMembers<'_>)> + '_ {
            let space = self.space();
            let regions =
                (0..space.bits()).map(move |m| (m as u16, self.arc(space.finger_region(node, m))));
            regions.filter(|(_, members)| !members.is_empty())
        }

        fn sentinel_slot(&self, node: u64) -> (u16, Vec<u64>) {
            (u16::MAX, self.succ_window(node, 4))
        }

        fn inlink_candidates(
            &self,
            node: u64,
            after: Option<(u16, u64)>,
        ) -> impl Iterator<Item = (u16, u64)> + '_ {
            let space = self.space();
            let top = after.map_or(space.bits() - 1, |(slot, _)| slot as u8);
            let holders = (3..=top).rev().flat_map(move |m| {
                let region = space.reverse_finger_region(node, m);
                let rest = match after {
                    Some((slot, last)) if slot == m as u16 => region.after(last),
                    _ => region,
                };
                self.arc(rest).iter().map(move |holder| (m as u16, holder))
            });
            holders.filter(move |&(_, holder)| holder != node)
        }

        fn is_structural(&self, slot: u16) -> bool {
            slot <= 2 || slot == u16::MAX
        }

        fn classic_pick(&self, node: u64, _slot: u16, members: ArcMembers<'_>) -> Option<u64> {
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
            let slot = self.space().best_finger(cur, owner).unwrap_or(0) as u16;
            let ahead = |c: &u64| (1..=self.metric(cur, owner)).contains(&self.metric(cur, *c));
            ids.clear();
            ids.extend(table.outlinks(slot).iter().copied().filter(ahead));
            if ids.is_empty() {
                ids.push(owner);
            }
            let refreshed = None;
            HopCandidates { slot, refreshed }
        }

        fn metric(&self, from: u64, owner: u64) -> u64 {
            forward_distance(from, owner, self.space().ring_size())
        }
    }

    /// The ring of `members` on `2^bits` ids.
    fn chord(bits: u8, members: &[u64]) -> ChordRegistry {
        ChordRegistry::from_ids(ChordSpace::new(bits), members.iter().copied())
    }

    fn ring() -> ChordRegistry {
        let members: Vec<u64> = (0..16).map(|i| i * 4).collect();
        chord(BITS, &members)
    }

    fn cfg() -> MiniDhtConfig {
        MiniDhtConfig::defaults(BITS, 9)
    }

    /// `ert-minidht`'s `the_core_node_tests_ring_is_this_chord_ring`
    /// pins `ChordGeometry` to the same values.
    #[test]
    fn the_test_ring_is_pinned() {
        let g = ring();
        let candidates: Vec<(u16, u64)> = g.inlink_candidates(ME, None).collect();
        let pinned = [
            (5, 20),
            (5, 24),
            (5, 28),
            (5, 32),
            (4, 44),
            (4, 48),
            (3, 56),
        ];
        assert_eq!(candidates, pinned);
        let regions: Vec<(u16, Vec<u64>)> =
            g.region_slots(ME).map(|(s, m)| (s, m.to_vec())).collect();
        let pinned = [
            (2, vec![4]),
            (3, vec![8]),
            (4, vec![16, 20]),
            (5, vec![32, 36, 40, 44]),
        ];
        assert_eq!(regions, pinned);
        assert_eq!(g.sentinel_slot(ME), (u16::MAX, vec![4, 8, 12, 16]));
        let structural: Vec<u16> = (0..6)
            .chain([u16::MAX])
            .filter(|&s| g.is_structural(s))
            .collect();
        assert_eq!(structural, [0, 1, 2, u16::MAX]);
    }

    /// A fake host: a map of real nodes served in place, a set of
    /// partition-hidden ids, and a log of every op carried.
    struct Peers {
        nodes: BTreeMap<u64, ErtNode>,
        hidden: BTreeSet<u64>,
        log: Vec<(u64, PeerOp)>,
    }

    impl Peers {
        fn new(geometry: &ChordRegistry) -> Peers {
            Peers {
                nodes: geometry
                    .members()
                    .into_iter()
                    .filter(|&id| id != ME)
                    .map(|id| (id, ErtNode::new(id, 8, MiniProtocol::ElasticErt)))
                    .collect(),
                hidden: BTreeSet::new(),
                log: Vec::new(),
            }
        }

        fn carry(&mut self, peer: u64, op: PeerOp) -> PeerAnswer {
            self.log.push((peer, op));
            if self.hidden.contains(&peer) {
                return PeerAnswer::Unreachable;
            }
            match self.nodes.get_mut(&peer) {
                Some(node) => PeerAnswer::Report(node.serve(op)),
                None => PeerAnswer::Unknown,
            }
        }

        /// Steps `me`'s task to its end, carrying each ask.
        fn run<T: Task>(&mut self, me: &mut ErtNode, task: T) -> T::Out {
            drive(me, task, |peer, op| self.carry(peer, op))
        }

        /// A peer's spare indegree as the build reads it, without
        /// logging: 0 for a hidden or unhosted peer.
        fn spare(&self, peer: u64) -> i64 {
            match self.nodes.get(&peer) {
                Some(node) if !self.hidden.contains(&peer) => node.spare(),
                _ => 0,
            }
        }
    }

    fn lookup(key: u64) -> Lookup {
        Lookup {
            query: 1,
            key,
            hops: 0,
            attempts: 0,
            numeric_mode: false,
            avoid: BTreeSet::new(),
        }
    }

    #[test]
    fn route_skips_hidden_candidates_and_fails_when_all_are_hidden() {
        let (g, cfg) = (ring(), cfg());
        let mut peers = Peers::new(&g);
        let mut me = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
        // Finger 5 of node 0 covers [32, 64): give it two outlinks.
        me.add_outlink(5, 32);
        me.add_outlink(5, 36);
        let (mut rng, mut scratch) = (SimRng::seed_from(1), RouteScratch::default());

        peers.hidden.insert(32);
        let mut l = lookup(50);
        let route = me.route(&g, &cfg, &mut l, &mut rng, &mut scratch);
        let hop = peers.run(&mut me, route);
        assert_eq!(hop, Hop::Next(36), "the hidden candidate is passed over");
        assert_eq!(l.hops, 1);

        peers.hidden.insert(36);
        let mut l = lookup(50);
        let route = me.route(&g, &cfg, &mut l, &mut rng, &mut scratch);
        let hop = peers.run(&mut me, route);
        assert_eq!(hop, Hop::Failed, "all hidden: a failure, not a panic");
        assert_eq!(l.hops, 0);
    }

    #[test]
    fn expansion_stops_at_the_target_and_skips_self_and_existing_links() {
        let g = ring();
        let mut peers = Peers::new(&g);
        let mut me = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
        let candidates: Vec<(u16, u64)> = g.inlink_candidates(ME, None).collect();
        assert!(candidates.len() > 3);
        // The first candidate already points at us.
        let (slot0, linked) = candidates[0];
        peers.nodes.get_mut(&linked).unwrap().add_outlink(slot0, ME);

        let scan = expand(&g, &me, 2);
        peers.run(&mut me, scan);
        assert_eq!(me.indegree(), 2, "stops at the target");
        assert_eq!(
            me.table.backward_fingers(),
            &[candidates[1].1, candidates[2].1],
            "the already-linked candidate is skipped"
        );
        assert!(
            peers.log.iter().all(|&(peer, _)| peer != ME),
            "never asks self"
        );
        let asked: BTreeSet<u64> = peers.log.iter().map(|&(peer, _)| peer).collect();
        assert_eq!(asked.len(), 3, "no candidate past the target is contacted");
    }

    #[test]
    fn shed_removes_the_most_recent_backward_fingers_and_floors_d_max_at_one() {
        let (g, cfg) = (ring(), cfg());
        let mut peers = Peers::new(&g);
        // Capacity 1 with d_max 1: any shed would take d_max to 0.
        let mut me = ErtNode::new(ME, 1, MiniProtocol::ElasticErt);
        for holder in [8, 16, 24] {
            me.table.add_backward(holder);
            peers.nodes.get_mut(&holder).unwrap().add_outlink(4, ME);
        }
        // μ = 1/2: load 5 over capacity 1 sheds ⌈(5 − 1)/2⌉ = 2.
        let trace = adapt(&g, &cfg, &mut peers, &mut me, 5);
        assert_eq!(trace.delta, -2);
        assert_eq!(me.d_max, 1, "d_max never drops below 1");
        assert_eq!(trace.d_max, 1);
        assert_eq!(me.period_load, 0);
        // Victims are taken from the back of the finger list.
        let kept = [8u64];
        assert_eq!(me.table.backward_fingers(), kept);
        for holder in [8u64, 16, 24] {
            let still_linked = peers.nodes[&holder].table.outlinks(4).contains(&ME);
            assert_eq!(still_linked, kept.contains(&holder), "holder {holder}");
        }
    }

    /// Runs one adaptation round of `me` with `period_load` behind it.
    fn adapt(
        g: &ChordRegistry,
        cfg: &MiniDhtConfig,
        peers: &mut Peers,
        me: &mut ErtNode,
        period_load: u64,
    ) -> AdaptTrace {
        me.period_load = period_load;
        let task = me.adapt(g, cfg);
        peers.run(me, task)
    }

    /// The holders asked `AddOutlink` in `log`, in order: one op per
    /// candidate the scan looked at.
    fn asked_to_link(log: &[(u64, PeerOp)]) -> Vec<u64> {
        log.iter()
            .filter(|(_, op)| {
                matches!(
                    op,
                    PeerOp::Link {
                        op: AdaptOp::AddOutlink,
                        ..
                    }
                )
            })
            .map(|&(peer, _)| peer)
            .collect()
    }

    #[test]
    fn a_second_grow_resumes_after_the_candidates_the_first_passed() {
        let (g, cfg) = (ring(), cfg());
        let mut peers = Peers::new(&g);
        let mut me = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
        let order: Vec<u64> = g.inlink_candidates(ME, None).map(|(_, c)| c).collect();
        assert_eq!(order.len(), 7);

        // An idle period grows by ⌈μ·8⌉ = 4: the first four candidates.
        assert_eq!(adapt(&g, &cfg, &mut peers, &mut me, 0).delta, 4);
        assert_eq!(me.table.backward_fingers(), &order[..4]);
        assert_eq!(asked_to_link(&peers.log), &order[..4]);
        assert_eq!(
            peers.log.len(),
            4,
            "one op per link gained, and nothing else"
        );

        peers.log.clear();
        adapt(&g, &cfg, &mut peers, &mut me, 0);
        assert_eq!(
            asked_to_link(&peers.log),
            &order[4..],
            "nobody the first round passed is asked again"
        );
        assert_eq!(me.table.backward_fingers(), &order[..]);

        // The supply is exhausted and the position is at its end: a
        // third round wants four more and asks nobody.
        peers.log.clear();
        assert_eq!(adapt(&g, &cfg, &mut peers, &mut me, 0).delta, 4);
        assert!(peers.log.is_empty(), "{:?}", peers.log);
    }

    #[test]
    fn a_shed_clears_the_position_and_the_next_grow_relinks_the_victims() {
        let (g, cfg) = (ring(), cfg());
        let order: Vec<u64> = g.inlink_candidates(ME, None).map(|(_, c)| c).collect();
        // Two identical worlds: grow to four inlinks, then shed two
        // (load 12 over capacity 8: ⌈μ·4⌉).
        let world = || {
            let mut peers = Peers::new(&g);
            let mut me = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
            adapt(&g, &cfg, &mut peers, &mut me, 0);
            assert_eq!(adapt(&g, &cfg, &mut peers, &mut me, 12).delta, -2);
            assert_eq!(me.table.backward_fingers(), &order[..2]);
            peers.log.clear();
            (peers, me)
        };

        // One grows again through the node: target 2 + 4.
        let (mut peers, mut me) = world();
        adapt(&g, &cfg, &mut peers, &mut me, 0);
        assert_eq!(
            asked_to_link(&peers.log),
            &order[..6],
            "the scan starts over, so the shed victims are re-examined"
        );
        assert_eq!(me.table.backward_fingers(), &order[..6]);

        // The other runs one scan from the top to the same target.
        let (mut fresh_peers, mut fresh_me) = world();
        let scan = expand(&g, &fresh_me, 6);
        fresh_peers.run(&mut fresh_me, scan);
        assert_eq!(
            me.table.backward_fingers(),
            fresh_me.table.backward_fingers()
        );
        for (id, peer) in &peers.nodes {
            assert_eq!(peer.fingerprint(), fresh_peers.nodes[id].fingerprint());
        }
    }

    #[test]
    fn a_scan_with_an_unanswered_holder_does_not_move_the_position() {
        let (g, cfg) = (ring(), cfg());
        let mut peers = Peers::new(&g);
        let mut me = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
        let order: Vec<u64> = g.inlink_candidates(ME, None).map(|(_, c)| c).collect();
        peers.hidden.insert(order[1]);
        adapt(&g, &cfg, &mut peers, &mut me, 0);
        assert_eq!(me.indegree(), 4, "the hidden holder is passed over");
        assert_eq!(me.scanned_to, None);

        // Healed: the next round starts over and picks the holder up.
        peers.hidden.clear();
        peers.log.clear();
        adapt(&g, &cfg, &mut peers, &mut me, 0);
        assert_eq!(asked_to_link(&peers.log), &order[..]);
        assert!(me.table.backward_fingers().contains(&order[1]));
        assert_eq!(me.scanned_to.map(|(_, c)| c), order.last().copied());
    }

    #[test]
    fn a_shed_of_zero_still_restarts_the_scan() {
        let (g, cfg) = (ring(), cfg());
        let mut peers = Peers::new(&g);
        let mut me = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
        // Every holder took this node into its slot, and every
        // `AddBackward` that said so was lost: indegree 0.
        let candidates: Vec<(u16, u64)> = g.inlink_candidates(ME, None).collect();
        for &(slot, holder) in &candidates {
            peers.nodes.get_mut(&holder).unwrap().add_outlink(slot, ME);
        }
        let order: Vec<u64> = candidates.iter().map(|&(_, c)| c).collect();
        adapt(&g, &cfg, &mut peers, &mut me, 0);
        assert_eq!(me.indegree(), 0, "every holder said present");
        assert_eq!(me.scanned_to.map(|(_, c)| c), order.last().copied());

        // Overloaded with nothing to shed: the step keeps, but the scan
        // starts over, so the next grow asks every holder again.
        let trace = adapt(&g, &cfg, &mut peers, &mut me, 20);
        assert_eq!((trace.delta, trace.d_max), (0, me.d_max));
        assert_eq!(me.scanned_to, None);
        peers.log.clear();
        adapt(&g, &cfg, &mut peers, &mut me, 0);
        assert_eq!(asked_to_link(&peers.log), order);
    }

    /// Algorithm 1 as it ran over two ops — a link query,
    /// then `AddOutlink` to a holder that said "absent" — applied to
    /// the peers' tables directly. Returns the holders it queried and
    /// the ones it then added, in order.
    fn model_expand(
        g: &ChordRegistry,
        peers: &mut Peers,
        me: &mut ErtNode,
        target: u32,
    ) -> (Vec<u64>, Vec<u64>) {
        let (mut queried, mut added) = (Vec::new(), Vec::new());
        let mut last = me.scanned_to;
        let mut unanswered = false;
        let mut candidates = g.inlink_candidates(ME, me.scanned_to);
        while me.indegree() < target {
            let Some((slot, holder)) = candidates.next() else {
                break;
            };
            last = Some((slot, holder));
            if holder == ME {
                continue;
            }
            queried.push(holder);
            let node = match peers.nodes.get_mut(&holder) {
                Some(node) if !peers.hidden.contains(&holder) => node,
                _ => {
                    unanswered = true;
                    continue;
                }
            };
            if node.table.outlinks(slot).contains(&ME) {
                continue;
            }
            node.add_outlink(slot, ME);
            if !g.is_structural(slot) {
                me.table.add_backward(holder);
            }
            added.push(holder);
        }
        if !unanswered {
            me.scanned_to = last;
        }
        (queried, added)
    }

    /// An arbitrary ring around `ME` and a world on it: holders that
    /// already point at the node (with and without its backward finger),
    /// hidden ones, ones the geometry lists but nobody hosts. Everything
    /// is drawn from `seed`, so one seed is one world.
    ///
    /// Twin worlds are built from a seed, not from a generator cloned
    /// into one call and moved into the next: for a closure `f` taking
    /// the generator by value, rustc 1.95's MIR GVN folds `f(rng.clone())`
    /// and `f(rng)` into one argument, which the first call advances in
    /// place, so in release builds the second world was drawn from where
    /// the first one's stream ended.
    fn arbitrary_world(seed: u64) -> (ChordRegistry, Peers, ErtNode) {
        let mut rng = SimRng::seed_from(seed);
        let mut members = vec![ME];
        members.extend((1..64).filter(|_| rng.gen_bool(0.4)));
        let g = chord(BITS, &members);
        let mut peers = Peers::new(&g);
        let mut me = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
        for (slot, holder) in g.inlink_candidates(ME, None) {
            if holder != ME && rng.gen_bool(0.25) {
                peers.nodes.get_mut(&holder).unwrap().add_outlink(slot, ME);
                if rng.gen_bool(0.5) {
                    me.table.add_backward(holder);
                }
            }
        }
        for &m in &members[1..] {
            match rng.gen_range(0..10) {
                0 => drop(peers.nodes.remove(&m)),
                1 | 2 => drop(peers.hidden.insert(m)),
                _ => {}
            }
        }
        (g, peers, me)
    }

    /// Every table of a world, the node's own last, and the hidden set.
    fn world_fingerprint(peers: &Peers, me: &ErtNode) -> (Vec<String>, Vec<u64>) {
        let mut tables: Vec<String> = peers.nodes.values().map(ErtNode::fingerprint).collect();
        tables.push(me.fingerprint());
        (tables, peers.hidden.iter().copied().collect())
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One seed is one world, in release builds too: the twin-world
        /// test below stands on it.
        #[test]
        fn a_world_built_twice_from_one_seed_is_one_world(seed in 0u64..100_000) {
            let (g, peers, me) = arbitrary_world(seed);
            let (twin_g, twin_peers, twin_me) = arbitrary_world(seed);
            prop_assert_eq!(g.members(), twin_g.members());
            prop_assert_eq!(world_fingerprint(&peers, &me), world_fingerprint(&twin_peers, &twin_me));
        }

        /// Twin worlds on an arbitrary ring and a run of expansions with
        /// a heal in the middle: the one-op scan asks `AddOutlink` of
        /// exactly the holders the two-op model queried, hears "added"
        /// from exactly those the model added, and leaves every table
        /// and the scan position as the model does.
        #[test]
        fn the_one_op_window_matches_the_query_then_add_model(seed in 0u64..100_000) {
            let (g, mut peers, mut me) = arbitrary_world(seed);
            let (_, mut model_peers, mut model_me) = arbitrary_world(seed);
            // The expansion targets draw from a stream of their own.
            let mut rng = SimRng::seed_from(!seed);

            for round in 0..4 {
                if round == 2 {
                    peers.hidden.clear();
                    model_peers.hidden.clear();
                }
                let target = me.indegree() + rng.gen_range(0..5);
                let (queried, added) = model_expand(&g, &mut model_peers, &mut model_me, target);
                peers.log.clear();
                let mut answered_added = Vec::new();
                let scan = expand(&g, &me, target);
                drive(&mut me, scan, |p, op| {
                    let answer = peers.carry(p, op);
                    if matches!(answer, PeerAnswer::Report(r) if r.load == 0) {
                        answered_added.push(p);
                    }
                    answer
                });
                prop_assert_eq!(asked_to_link(&peers.log), queried);
                prop_assert_eq!(peers.log.len(), asked_to_link(&peers.log).len(), "no other op");
                prop_assert_eq!(answered_added, added);
                prop_assert_eq!(me.scanned_to, model_me.scanned_to);
                prop_assert_eq!(me.fingerprint(), model_me.fingerprint());
                for (id, peer) in &peers.nodes {
                    prop_assert_eq!(peer.fingerprint(), model_peers.nodes[id].fingerprint());
                }
            }
        }
    }

    /// One edit of a stream against the filter: a peer's `AddOutlink`,
    /// the node's own build pick, a peer's `DropOutlinks`, a departure,
    /// and a hop's structural refresh.
    #[derive(Debug)]
    enum Edit {
        Serve(u16, u64),
        Pick(u16, u64),
        Drop(u64),
        Purge(u64),
        Refresh(u16, Vec<u64>),
    }

    /// A stream of `Edit`s on the test ring's slots, structural and
    /// elastic, over a pool of peer ids: a few ids (mostly repeats,
    /// through the set-bit scan), a ring's worth, or thousands (random
    /// ids, so clear bits, false positives and a filling filter).
    fn arbitrary_stream(seed: u64) -> Vec<Edit> {
        let mut rng = SimRng::seed_from(seed);
        let g = ring();
        let slots: Vec<u16> = (0..BITS as u16).chain([u16::MAX]).collect();
        assert!(slots.iter().any(|&s| g.is_structural(s)));
        assert!(slots.iter().any(|&s| !g.is_structural(s)));
        let pool: Vec<u64> = match rng.gen_range(0..3) {
            0 => (1..9).collect(),
            1 => (1..64).collect(),
            _ => (0..4096).map(|_| rng.gen::<u64>()).collect(),
        };
        let steps = rng.gen_range(1..600);
        (0..steps)
            .map(|_| {
                let slot = slots[rng.gen_range(0..slots.len())];
                let peer = pool[rng.gen_range(0..pool.len())];
                match rng.gen_range(0..20) {
                    0..=9 => Edit::Serve(slot, peer),
                    10..=13 => Edit::Pick(slot, peer),
                    14 | 15 => Edit::Drop(peer),
                    16 | 17 => Edit::Purge(peer),
                    _ => {
                        let len = rng.gen_range(0..6);
                        let mut ids: Vec<u64> = (0..len)
                            .map(|_| pool[rng.gen_range(0..pool.len())])
                            .collect();
                        ids.sort_unstable();
                        ids.dedup();
                        Edit::Refresh(u16::MAX, ids)
                    }
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A node that answers through its presence filter against a twin
        /// whose table always scans: after every step of an arbitrary
        /// stream the answer ("added" or not) and the fingerprint agree.
        /// The own pick is the build's write once its target recorded the
        /// link; the twin applies each step to its table directly.
        #[test]
        fn the_filtered_node_answers_as_the_scanning_one(seed in 0u64..100_000) {
            let mut node = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
            let mut twin = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
            for (i, step) in arbitrary_stream(seed).into_iter().enumerate() {
                let (got, want) = match step {
                    Edit::Serve(slot, peer) => {
                        let op = PeerOp::Link { from: peer, slot, op: AdaptOp::AddOutlink };
                        (Some(node.serve(op).load == 0), Some(twin.table.add_outlink(slot, peer)))
                    }
                    Edit::Pick(slot, peer) => {
                        (Some(node.add_outlink(slot, peer)), Some(twin.table.add_outlink(slot, peer)))
                    }
                    Edit::Drop(peer) => {
                        node.serve(PeerOp::Link { from: peer, slot: 0, op: AdaptOp::DropOutlinks });
                        let slots: Vec<u16> = twin.table.occupied_slots().collect();
                        for s in slots {
                            twin.table.remove_outlink(s, peer);
                        }
                        (None, None)
                    }
                    Edit::Purge(peer) => {
                        node.purge_peer(peer);
                        twin.table.purge_peer(peer);
                        (None, None)
                    }
                    Edit::Refresh(slot, ids) => {
                        node.set_slot(slot, ids.clone());
                        twin.table.set_slot(slot, ids);
                        (None, None)
                    }
                };
                prop_assert_eq!(got, want, "step {}", i);
                prop_assert_eq!(node.fingerprint(), twin.fingerprint(), "step {}", i);
            }
        }
    }

    #[test]
    fn route_asks_only_the_candidates_it_draws() {
        let (g, cfg) = (ring(), cfg());
        let probes = |log: &[(u64, PeerOp)]| -> Vec<u64> {
            log.iter()
                .filter(|(_, op)| *op == PeerOp::Probe)
                .map(|&(peer, _)| peer)
                .collect()
        };
        // Six candidates in the finger toward key 58 (owner 60).
        let slot = |me: &mut ErtNode| {
            for c in [32, 36, 40, 44, 48, 52] {
                me.add_outlink(5, c);
            }
        };
        assert_eq!(cfg.ert.probe_width, 2);

        let mut me = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
        let mut scratch = RouteScratch::default();
        slot(&mut me);
        for (seed, memory) in [(1, None), (2, Some(40)), (3, Some(44))] {
            if let Some(m) = memory {
                me.table.set_memory(5, m);
            }
            let mut peers = Peers::new(&g);
            let (mut l, mut rng) = (lookup(58), SimRng::seed_from(seed));
            let route = me.route(&g, &cfg, &mut l, &mut rng, &mut scratch);
            let hop = peers.run(&mut me, route);
            assert!(matches!(hop, Hop::Next(_)));
            let asked = probes(&peers.log);
            assert_eq!(asked.len(), 2, "probe_width probes, not one per candidate");
            assert_eq!(peers.log.len(), 2, "and nothing else");
            if let Some(m) = memory {
                assert_eq!(asked[0], m, "the remembered candidate is one of the two");
            }
        }

        let mut me = ErtNode::new(ME, 8, MiniProtocol::Classic);
        slot(&mut me);
        let mut peers = Peers::new(&g);
        let (mut l, mut rng) = (lookup(58), SimRng::seed_from(4));
        let route = me.route(&g, &cfg, &mut l, &mut rng, &mut scratch);
        let hop = peers.run(&mut me, route);
        assert_eq!(hop, Hop::Next(52), "the candidate closest to the owner");
        assert_eq!(
            probes(&peers.log),
            [52],
            "classic routing asks only its pick"
        );
    }

    /// The elastic-slot rule the build used before it drew first: ask
    /// every member, keep those with spare indegree, draw one uniformly.
    /// Returns the eligible set and the draw.
    fn model_pick(
        members: &[u64],
        spare: impl Fn(u64) -> i64,
        rng: &mut SimRng,
    ) -> (Vec<u64>, Option<u64>) {
        let eligible: Vec<u64> = members.iter().copied().filter(|&c| spare(c) >= 1).collect();
        let pick = rng.choose(&eligible).copied();
        (eligible, pick)
    }

    /// The elastic draw as the build made it before it drew in place:
    /// copy the region, shuffle the copy, offer each member drawn.
    fn copy_then_shuffle(
        region: &[u64],
        rng: &mut SimRng,
        mut take: impl FnMut(u64) -> bool,
    ) -> Option<u64> {
        let mut members = region.to_vec();
        let m = members.len();
        (0..m).find_map(|k| {
            members.swap(k, rng.gen_range(k..m));
            let c = members[k];
            take(c).then_some(c)
        })
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `Shuffle` over a region of two runs — as a wrapping arc
        /// comes — offers the same members in the same order, makes the
        /// same pick and leaves the RNG in the same state as shuffling a
        /// copy: with no member eligible, some, and all.
        #[test]
        fn the_in_place_draw_is_the_copy_then_shuffle_draw(seed in 0u64..100_000) {
            let mut rng = SimRng::seed_from(seed);
            let ids: Vec<u64> = (0..1u64 << BITS).filter(|_| rng.gen_bool(0.5)).collect();
            let ids = &ids[..rng.gen_range(0..=ids.len())];
            let (tail, head) = ids.split_at(rng.gen_range(0..=ids.len()));
            let region = ArcMembers::new(head, tail);
            let p = [0.0, 0.05, 0.3, 1.0][rng.gen_range(0..4)];
            let eligible: BTreeSet<u64> = ids.iter().copied().filter(|_| rng.gen_bool(p)).collect();

            let (mut drawn, mut copied) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
            let (mut offered, mut modelled) = (Vec::new(), Vec::new());
            let mut shuffle = Shuffle::default();
            let pick = std::iter::from_fn(|| shuffle.draw(region, &mut drawn)).find(|&c| {
                offered.push(c);
                eligible.contains(&c)
            });
            let model = copy_then_shuffle(&region.to_vec(), &mut copied, |c| {
                modelled.push(c);
                eligible.contains(&c)
            });
            prop_assert_eq!(pick, model);
            prop_assert_eq!(offered, modelled);
            prop_assert_eq!(drawn.gen::<u64>(), copied.gen::<u64>(), "RNG state");
        }
    }

    fn build(cfg: &MiniDhtConfig, g: &ChordRegistry, peers: &mut Peers, me: &mut ErtNode) {
        let task = me.build(g, cfg);
        peers.run(me, task);
    }

    #[test]
    fn a_build_among_fresh_peers_probes_once_per_elastic_slot() {
        let (g, cfg) = (ring(), cfg());
        let mut peers = Peers::new(&g);
        let mut me = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
        build(&cfg, &g, &mut peers, &mut me);

        let regions: Vec<usize> = g
            .table_slots(ME)
            .into_iter()
            .filter(|(slot, members)| !g.is_structural(*slot) && !members.is_empty())
            .map(|(_, members)| members.len())
            .collect();
        assert!(regions.len() >= 3 && regions.iter().sum::<usize>() > regions.len());
        let probes = peers.log.iter().filter(|(_, op)| *op == PeerOp::Probe);
        assert_eq!(
            probes.count(),
            regions.len(),
            "every member has spare, so the first draw is taken"
        );
        let picked = me.table.occupied_slots().filter(|&s| !g.is_structural(s));
        assert_eq!(picked.count(), regions.len());
    }

    /// `arbitrary_world` with some hosted peers' indegree bound lowered
    /// to 0 (saturated) or 1 (saturated once the node's pick lands).
    fn saturated_world(seed: u64) -> (ChordRegistry, Peers, ErtNode) {
        let (g, mut peers, me) = arbitrary_world(seed);
        let mut rng = SimRng::seed_from(seed.rotate_left(32));
        for node in peers.nodes.values_mut() {
            match rng.gen_range(0..4) {
                0 => node.d_max = 0,
                1 => node.d_max = 1,
                _ => {}
            }
        }
        (g, peers, me)
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// At every elastic slot of a build over a world of saturated,
        /// hidden and unhosted members: the pick is in the eager model's
        /// eligible set, and is `None` exactly when that set is empty;
        /// the slot's probes are distinct members, at most one per
        /// member, every one before the pick ineligible — so a slot
        /// whose first draw is eligible costs one probe. The probes and
        /// the pick are exactly those of shuffling a copy of the region
        /// with one stream over the whole build, so the in-place draw
        /// leaves the stream where the copy left it at every slot.
        #[test]
        fn the_drawn_pick_is_one_the_eager_model_could_draw(seed in 0u64..100_000) {
            let (g, mut peers, mut me) = saturated_world(seed);
            // The twin replays the build's link ops, so at each slot its
            // peers are as the build found them.
            let (_, mut twin, _) = saturated_world(seed);
            let cfg = MiniDhtConfig::defaults(BITS, seed);
            build(&cfg, &g, &mut peers, &mut me);
            let mut copy_rng = SimRng::seed_from(cfg.seed ^ ME);

            let mut log = peers.log.iter().copied().peekable();
            for (slot, members) in g.table_slots(ME) {
                if g.is_structural(slot) {
                    continue;
                }
                let probes: Vec<u64> = std::iter::from_fn(|| {
                    log.next_if(|&(p, op)| op == PeerOp::Probe && members.contains(&p))
                        .map(|(p, _)| p)
                })
                .collect();
                let backward = PeerOp::Link { from: ME, slot, op: AdaptOp::AddBackward };
                let pick = log.next_if(|&(_, op)| op == backward).map(|(p, _)| p);
                let (eligible, _) = model_pick(&members, |c| twin.spare(c), &mut SimRng::seed_from(seed));
                let mut offered = Vec::new();
                let copied = copy_then_shuffle(&members, &mut copy_rng, |c| {
                    offered.push(c);
                    twin.spare(c) >= 1
                });
                prop_assert_eq!(pick, copied, "slot {}", slot);
                prop_assert_eq!(&probes, &offered, "slot {}", slot);

                prop_assert_eq!(pick.is_none(), eligible.is_empty(), "slot {}", slot);
                let mut distinct = probes.clone();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert_eq!(distinct.len(), probes.len(), "slot {}: {:?}", slot, probes);
                prop_assert!(probes.len() <= members.len());
                if probes.first().is_some_and(|p| eligible.contains(p)) {
                    prop_assert_eq!(probes.len(), 1);
                }
                match pick {
                    Some(p) => {
                        prop_assert!(eligible.contains(&p));
                        prop_assert_eq!(probes.last(), Some(&p));
                        let passed = &probes[..probes.len() - 1];
                        prop_assert!(passed.iter().all(|c| !eligible.contains(c)));
                        twin.carry(p, backward);
                    }
                    None => prop_assert_eq!(probes.len(), members.len()),
                }
            }
            // What is left is the initial expansion.
            prop_assert!(log.all(|(_, op)| matches!(
                op,
                PeerOp::Link { op: AdaptOp::AddOutlink, .. }
            )));
        }
    }

    #[test]
    fn an_elastic_pick_is_uniform_over_the_eligible_members() {
        // One elastic region, finger 5 of node 0: [32, 48). Three of its
        // six members are eligible; of the others one is saturated, one
        // hidden and one hosted nowhere.
        let g = chord(BITS, &[ME, 32, 34, 36, 38, 40, 42]);
        let (slot, region) = g
            .table_slots(ME)
            .into_iter()
            .find(|(slot, _)| !g.is_structural(*slot))
            .unwrap();
        assert_eq!(region, [32, 34, 36, 38, 40, 42]);
        let eligible = [32, 36, 40];
        let peers = || {
            let mut peers = Peers::new(&g);
            peers.nodes.get_mut(&34).unwrap().d_max = 0;
            peers.hidden.insert(38);
            peers.nodes.remove(&42);
            peers
        };

        const SEEDS: u64 = 30_000;
        let (mut drawn, mut modelled) = (BTreeMap::new(), BTreeMap::new());
        for seed in 0..SEEDS {
            let mut peers = peers();
            let (_, model) = model_pick(&region, |c| peers.spare(c), &mut SimRng::seed_from(seed));
            *modelled.entry(model.unwrap()).or_insert(0u64) += 1;
            let (cfg, mut me) = (
                MiniDhtConfig::defaults(BITS, seed),
                ErtNode::new(ME, 8, MiniProtocol::ElasticErt),
            );
            build(&cfg, &g, &mut peers, &mut me);
            let [pick] = me.table.outlinks(slot) else {
                panic!("seed {seed}: {:?}", me.table.outlinks(slot));
            };
            *drawn.entry(*pick).or_insert(0u64) += 1;
        }

        let (n, p) = (SEEDS as f64, 1.0 / 3.0);
        let sigma = (n * p * (1.0 - p)).sqrt();
        for (rule, counts) in [("draw-then-probe", &drawn), ("model", &modelled)] {
            let picked: Vec<u64> = counts.keys().copied().collect();
            assert_eq!(picked, eligible, "{rule}: only eligible members are picked");
            for (c, &k) in counts {
                let off = (k as f64 - n * p).abs();
                assert!(
                    off <= 4.0 * sigma,
                    "{rule}: {c} picked {k} times in {SEEDS}"
                );
            }
        }
    }
}
