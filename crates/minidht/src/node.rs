//! One ERT node: the per-node state and the steps of the paper's
//! Algorithms 1–4, written once for every runtime that hosts them.
//!
//! An [`ErtNode`] owns what a single participant owns — elastic table,
//! FIFO service queue, adaptive indegree bound, load counters — and
//! answers its peers through [`ErtNode::serve`]. Everything that needs
//! *other* nodes (table build, indegree expansion, load probing,
//! shedding) runs through a [`Window`]: the node, its geometry, and one
//! closure that carries a [`PeerOp`] to a peer and brings the answer
//! back. The window is the `ert_core::Directory` the core algorithms
//! are written against, so `ert_core`'s expansion loop and its
//! Algorithm 4 are the only ones.
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
//! [`Window::build_table`] for why that is the same pick).
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
//! node's fingers with it. *The contract*
//! ([`Geometry::inlink_candidates`]): a holder is paired with exactly
//! one elastic slot that can hold the node. So a holder that answers
//! "added" did not hold the node in that slot, hence in no elastic
//! slot, hence is not a finger. See [`Window::link_if_absent`].
//!
//! The holder mostly answers "added" without a search of its own. Each
//! node keeps a presence filter ([`HeldIds`], 1024 bits) that holds a
//! superset of the ids in all its slots. An id enters a slot through one
//! writer only: `ErtNode::add_outlink` for `serve(AddOutlink)` and the
//! node's own build pick, or `ErtNode::set_slot` for a hop's structural
//! refresh. That writer sets the id's bit first, and no bit is ever
//! cleared. A clear bit therefore means no slot holds the id, and the
//! id is appended with `ElasticTable::push_outlink`. A set bit means
//! the id was held once, or its bit collides with one that was, and the
//! insert takes the scanning `add_outlink`. A filter that fills up only
//! sends more inserts down that scan. It never gives a wrong answer.
//!
//! The two hosts differ only in that closure. [`crate::MiniDht`]
//! indexes its node vector and calls the peer's `serve` directly;
//! `ert-node`'s `WireNode` encodes the op, sends it through its
//! transport, and the receiving node decodes it into the same `serve`.

#![expect(
    clippy::disallowed_types,
    reason = "D10: `Directory`'s read methods take &self but reaching a peer is a mutable act, so `Window` keeps its peer closure in a cell, and `expand` the position its candidate iterator reports; neither outlives one window or is shared"
)]

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ert_core::{
    adapt_step, adaptation_action, assign::initial_indegree_target, choose_next_lazy,
    expand_indegree_over, AdaptAction, AdaptStep, Contact, Directory, ElasticTable, ForwardPolicy,
    ForwardScratch,
};
use ert_overlay::ArcMembers;
use ert_sim::{SimDuration, SimRng};
use rand::Rng;

use crate::geometry::Geometry;
use crate::platform::{AdaptTrace, MiniDhtConfig, MiniProtocol};

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
///   `ErtNode::add_outlink` (`serve(AddOutlink)` and the window's own
///   build pick) or `ErtNode::set_slot` (a hop's structural refresh,
///   [`crate::HopCandidates::refreshed`]), and each sets the id's bit
///   before it writes. [`Geometry::hop_candidates`] reads the table and
///   never writes it.
/// - *Structural writes set bits too.* So the filter does not lean on
///   the contract that `AddOutlink` names only elastic slots
///   ([`Geometry::inlink_candidates`]): an `AddOutlink` that names a
///   structural slot — a forged frame, say — is still answered exactly.
/// - *No clears.* `DropOutlinks`, `purge_peer` and a refresh remove ids
///   and leave their bits set. A set bit for an id no slot holds only
///   costs the scan that every insert paid before the filter.
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
    #[cfg(test)]
    pub(crate) inserts: [u64; 2],
}

impl ErtNode {
    /// A node with an empty table. `capacity_eval` is `max_indegree`
    /// over the normalized capacity; it bounds the indegree under ERT
    /// and is the congestion denominator under both protocols.
    pub fn new(id: u64, capacity_eval: u32, protocol: MiniProtocol) -> ErtNode {
        ErtNode {
            id,
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
            #[cfg(test)]
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

    /// The routing table, for the drivers' symmetry checks.
    #[cfg(test)]
    pub(crate) fn table(&self) -> &ElasticTable<u16, u64> {
        &self.table
    }

    /// Adds `peer` to `slot` unless it is already there; returns whether
    /// it was added. With [`ErtNode::set_slot`] the only way an id
    /// enters a slot: a clear [`HeldIds`] bit says no slot holds `peer`,
    /// so it is appended without a scan, and a set bit falls back to the
    /// scanning `add_outlink`.
    fn add_outlink(&mut self, slot: u16, peer: u64) -> bool {
        let clear = self.held.insert(peer);
        #[cfg(test)]
        {
            self.inserts[usize::from(!clear)] += 1;
        }
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

    fn load(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    fn is_heavy(&self) -> bool {
        self.load() > self.capacity_eval as usize
    }

    fn spare(&self) -> i64 {
        self.d_max as i64 - self.table.indegree() as i64
    }

    /// A lookup arrives: heavy accounting, then service or queue, then
    /// the congestion high-water mark. Returns the service time when
    /// the lookup went straight into service; the host owes the node a
    /// [`ErtNode::service_done`] for it after that delay.
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
    fn start_service(&mut self, lookup: Lookup, cfg: &MiniDhtConfig) -> SimDuration {
        self.in_service = Some(lookup);
        if self.is_heavy() {
            cfg.heavy_service
        } else {
            cfg.light_service
        }
    }

    /// Service of `query` finished. Returns the served lookup (to be
    /// passed to [`Window::route`]) and, when the queue was not empty,
    /// the query now in service with its service time. `None` when
    /// `query` is not the one in service (a stale callback).
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
    pub fn serve(&mut self, op: PeerOp) -> PeerReport {
        if let PeerOp::Link { from, slot, op } = op {
            match op {
                AdaptOp::AddOutlink => {
                    let present = !self.add_outlink(slot, from);
                    return self.report(u64::from(present));
                }
                AdaptOp::DropOutlinks => {
                    let slots: Vec<u16> = self.table.occupied_slots().collect();
                    for s in slots {
                        self.table.remove_outlink(s, from);
                    }
                }
                AdaptOp::AddBackward => {
                    self.table.add_backward(from);
                }
            }
        }
        self.report(self.load() as u64)
    }

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
}

/// One node's window onto its peers: the [`Directory`] the core
/// algorithms run against, plus the load probe and the "drop your
/// outlinks to me" request that forwarding and shedding need.
///
/// Operations on the node itself are answered from its own state;
/// everything else goes through the `peers` closure.
pub struct Window<'a, G, P> {
    cfg: &'a MiniDhtConfig,
    protocol: MiniProtocol,
    geometry: &'a G,
    me: &'a mut ErtNode,
    // `Directory`'s read methods take `&self`, but reaching a peer is a
    // mutable act on both hosts (a transport send, a `serve` call). The
    // closure never re-enters the window, so the borrow is never shared.
    peers: RefCell<P>,
    /// A holder asked during the running expansion did not answer.
    unanswered: bool,
}

impl<'a, G: Geometry, P: FnMut(u64, PeerOp) -> PeerAnswer> Window<'a, G, P> {
    /// Opens `me`'s window; `peers` carries one op to one peer.
    pub fn new(
        cfg: &'a MiniDhtConfig,
        protocol: MiniProtocol,
        geometry: &'a G,
        me: &'a mut ErtNode,
        peers: P,
    ) -> Self {
        Window {
            cfg,
            protocol,
            geometry,
            me,
            peers: RefCell::new(peers),
            unanswered: false,
        }
    }

    fn ask(&self, peer: u64, op: PeerOp) -> PeerAnswer {
        (self.peers.borrow_mut())(peer, op)
    }

    fn ask_link(&self, peer: u64, slot: u16, op: AdaptOp) -> PeerAnswer {
        let from = self.me.id;
        self.ask(peer, PeerOp::Link { from, slot, op })
    }

    /// The table-build rule. Classic: the geometry's pick per slot.
    /// ERT: structural slots take the classic pick, elastic slots a
    /// random peer among those with spare indegree (none if the whole
    /// region is saturated — greedy routing tolerates the gap), then
    /// the indegree expands to the `β·d_max` target.
    ///
    /// An elastic slot is *draw-then-probe*: a partial Fisher–Yates
    /// shuffle of the region's members, probing each member as it is
    /// drawn and taking the first with spare ≥ 1 ([`draw_first`], which
    /// draws from the membership's borrowed slices without copying the
    /// region). That is the same pick as probing every member,
    /// filtering, and drawing uniformly among the eligible ones. The
    /// first eligible element of a uniformly random permutation is
    /// uniform over the eligible set; the set is fixed for the whole
    /// draw, because `PeerOp::Probe` is read-only and nothing else runs
    /// between two draws of one slot; and a peer that does not answer
    /// counts as spare 0 in both forms. Only the RNG stream differs. A
    /// region of `m` members of which `e` are eligible costs
    /// `(m + 1)/(e + 1)` probes on average — one when every member has
    /// spare — instead of `m`.
    pub fn build_table(&mut self) {
        let (id, geometry) = (self.me.id, self.geometry);
        let elastic = self.protocol == MiniProtocol::ElasticErt;
        let mut rng = SimRng::seed_from(self.cfg.seed ^ id);
        let (sentinel, listed) = geometry.sentinel_slot(id);
        let slots = geometry.region_slots(id);
        for (slot, members) in slots.chain([(sentinel, listed.as_slice().into())]) {
            let pick = if !elastic || geometry.is_structural(slot) {
                geometry.classic_pick(id, slot, members)
            } else {
                draw_first(members, &mut rng, |c| self.spare_indegree(c) >= 1)
            };
            if let Some(pick) = pick {
                self.link_if_absent(id, slot, pick);
            }
        }
        if elastic {
            let target = initial_indegree_target(&self.cfg.ert, self.me.d_max);
            self.expand(target);
        }
    }

    /// Algorithm 1 from where the last scan stopped. The position moves
    /// to the last candidate this scan looked at, unless some peer did
    /// not answer: then the next scan covers the same ground again.
    fn expand(&mut self, target: u32) {
        let (id, geometry) = (self.me.id, self.geometry);
        let last = Cell::new(self.me.scanned_to);
        self.unanswered = false;
        let mut candidates = geometry
            .inlink_candidates(id, last.get())
            .inspect(|&pair| last.set(Some(pair)));
        expand_indegree_over(self, id, target, |_| candidates.next());
        if !self.unanswered {
            self.me.scanned_to = last.get();
        }
    }

    /// Algorithm 4 for a lookup whose service just completed here:
    /// finished if this node owns the key, otherwise draw the poll set
    /// from the hop's candidates with `rng`, probe only those, and pick
    /// one. A candidate hidden by a partition drops out when asked and
    /// the draw repeats.
    pub fn route(&mut self, lookup: &mut Lookup, rng: &mut SimRng) -> Hop {
        let id = self.me.id;
        let owner = self.geometry.owner(lookup.key);
        if owner == Some(id) {
            return Hop::Found;
        }
        if lookup.hops >= self.cfg.max_hops {
            return Hop::Dropped;
        }
        let Some(owner) = owner else {
            return Hop::Failed;
        };
        let hc = self
            .geometry
            .hop_candidates(id, owner, &self.me.table, &mut lookup.numeric_mode);
        if let Some(ids) = hc.refreshed {
            self.me.set_slot(hc.slot, ids);
        }
        let policy = match self.protocol {
            MiniProtocol::Classic => ForwardPolicy::Deterministic,
            MiniProtocol::ElasticErt => ForwardPolicy::TwoChoice {
                topology_aware: true,
                use_memory: true,
            },
        };
        let Some(choice) = choose_next_lazy(
            policy,
            &hc.ids,
            |i| Contact {
                logical_distance: self.geometry.metric(hc.ids[i], owner),
                physical_distance: 0.0,
            },
            self.me.table.memory(hc.slot),
            &lookup.avoid,
            self.cfg.ert.gamma_l,
            self.cfg.ert.probe_width,
            rng,
            |i| match self.ask(hc.ids[i], PeerOp::Probe) {
                PeerAnswer::Report(r) => Some((r.load as f64, r.capacity as f64)),
                PeerAnswer::Unknown => Some((0.0, 1.0)),
                PeerAnswer::Unreachable => None,
            },
            &mut ForwardScratch::default(),
        ) else {
            // Every candidate was hidden by a partition.
            return Hop::Failed;
        };
        lookup.avoid.extend(choice.newly_overloaded);
        if let Some(mem) = choice.new_memory {
            if policy != ForwardPolicy::Deterministic {
                self.me.table.set_memory(hc.slot, mem);
            }
        }
        lookup.hops += 1;
        Hop::Next(choice.next)
    }

    /// One Algorithm 3 round for this node: `ert_core::adapt_step`
    /// sizes the action, then the node drops its newest backward fingers
    /// (the mini platforms carry no locality to rank by) or expands
    /// toward the step's target, and resets the period load.
    pub fn adapt(&mut self) -> AdaptTrace {
        let (id, capacity) = (self.me.id, self.me.capacity_eval);
        let action = adaptation_action(self.me.period_load as f64, capacity as f64, &self.cfg.ert);
        if let AdaptAction::Shed(_) = action {
            // Victims no longer point here: passed candidates are open
            // again. Also on a shed of 0: a holder whose `AddBackward`
            // was lost holds this node unrecorded, maybe behind the scan.
            self.me.scanned_to = None;
        }
        let delta = match adapt_step(action, capacity, self.me.indegree(), self.me.d_max) {
            AdaptStep::Keep => 0,
            AdaptStep::Shed { count, d_max } => {
                let fingers = self.me.table.backward_fingers().iter().rev();
                let victims: Vec<u64> = fingers.take(count as usize).copied().collect();
                debug_assert_eq!(victims.len(), count as usize, "a shed sized {count}");
                for v in victims {
                    // An absent victim has nothing left to drop.
                    self.ask_link(v, 0, AdaptOp::DropOutlinks);
                    self.me.table.remove_backward(v);
                }
                self.me.d_max = d_max;
                -i64::from(count)
            }
            AdaptStep::Grow { ask, target, d_max } => {
                self.me.d_max = d_max;
                self.expand(target);
                i64::from(ask)
            }
        };
        self.me.period_load = 0;
        let trace = AdaptTrace {
            round: self.me.adapt_round,
            node: id,
            delta,
            d_max: self.me.d_max,
        };
        self.me.adapt_round += 1;
        trace
    }
}

/// The first member of `region` that `take` accepts, offered in the
/// order a partial Fisher–Yates shuffle visits them: draw `k` swaps
/// position `k` with a uniform `j ∈ [k, m)` and reads position `k`.
///
/// The shuffle runs over the region in place. Once drawn, position `k`
/// is never read again, so what the swaps changed is only where the
/// members displaced from a drawn position went: `moved` maps each
/// such later position to the member now there, one entry per refused
/// draw. The RNG calls and the members offered are exactly those of
/// shuffling a copy of the region, which the tests hold it to.
fn draw_first<R: Rng>(
    region: ArcMembers<'_>,
    rng: &mut R,
    mut take: impl FnMut(u64) -> bool,
) -> Option<u64> {
    let m = region.len();
    let mut moved = BTreeMap::new();
    for k in 0..m {
        let j = rng.gen_range(k..m);
        let at = |i: usize| moved.get(&i).copied().or_else(|| region.get(i));
        let (drawn, displaced) = (at(j)?, at(k)?);
        if take(drawn) {
            return Some(drawn);
        }
        moved.insert(j, displaced);
    }
    None
}

impl<G: Geometry, P: FnMut(u64, PeerOp) -> PeerAnswer> Directory for Window<'_, G, P> {
    type Id = u64;
    type Slot = u16;

    fn table_slots(&self, node: u64) -> Vec<(u16, Vec<u64>)> {
        self.geometry.table_slots(node)
    }

    fn inlink_candidates(&self, node: u64) -> Vec<(u16, u64)> {
        self.geometry.inlink_candidates(node, None).collect()
    }

    fn spare_indegree(&self, node: u64) -> i64 {
        if node == self.me.id {
            return self.me.spare();
        }
        match self.ask(node, PeerOp::Probe) {
            PeerAnswer::Report(r) => r.spare,
            PeerAnswer::Unknown | PeerAnswer::Unreachable => 0,
        }
    }

    fn indegree(&self, node: u64) -> u32 {
        if node == self.me.id {
            return self.me.indegree();
        }
        match self.ask(node, PeerOp::Probe) {
            PeerAnswer::Report(r) => r.indegree,
            PeerAnswer::Unknown | PeerAnswer::Unreachable => 0,
        }
    }

    /// One end of every link this window creates is the node itself.
    /// A holder that does not answer marks the running scan unanswered.
    ///
    /// A holder's "added" is recorded with `push_backward`, not with the
    /// scanning `add_backward`: by invariant I (module doc) every
    /// backward finger holds this node in the one elastic slot the
    /// geometry pairs it with, and "added" says the holder did not hold
    /// it in `slot`, that one slot, so the holder is not yet a finger.
    /// A crash-restarted or re-joined holder, or a forged `Leave`, can
    /// strand a finger whose holder no longer points here and break
    /// that; the driver that admits one must drop the holder from every
    /// backward list first (ROADMAP item 9(c)).
    fn link_if_absent(&mut self, from: u64, slot: u16, to: u64) -> bool {
        let elastic = !self.geometry.is_structural(slot);
        if from == self.me.id {
            let added = self.me.add_outlink(slot, to);
            if added && elastic {
                self.ask_link(to, slot, AdaptOp::AddBackward);
            }
            return added;
        }
        match self.ask_link(from, slot, AdaptOp::AddOutlink) {
            PeerAnswer::Report(r) => {
                let added = r.load == 0;
                if added && elastic {
                    self.me.table.push_backward(from);
                }
                added
            }
            PeerAnswer::Unknown | PeerAnswer::Unreachable => {
                self.unanswered = true;
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChordGeometry;
    use ert_core::expand_indegree;
    use proptest::{prelude::ProptestConfig, prop_assert, prop_assert_eq};

    const BITS: u8 = 6;
    const ME: u64 = 0;

    fn ring() -> ChordGeometry {
        let members: Vec<u64> = (0..16).map(|i| i * 4).collect();
        ChordGeometry::from_members(BITS, &members)
    }

    fn cfg() -> MiniDhtConfig {
        MiniDhtConfig::defaults(BITS, 9)
    }

    /// A fake peer window: a map of real nodes served in place, a set
    /// of partition-hidden ids, and a log of every op carried.
    struct Peers {
        nodes: BTreeMap<u64, ErtNode>,
        hidden: BTreeSet<u64>,
        log: Vec<(u64, PeerOp)>,
    }

    impl Peers {
        fn new(geometry: &ChordGeometry) -> Peers {
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
        let mut rng = SimRng::seed_from(1);

        peers.hidden.insert(32);
        let mut l = lookup(50);
        let hop = Window::new(&cfg, MiniProtocol::ElasticErt, &g, &mut me, |p, op| {
            peers.carry(p, op)
        })
        .route(&mut l, &mut rng);
        assert_eq!(hop, Hop::Next(36), "the hidden candidate is passed over");
        assert_eq!(l.hops, 1);

        peers.hidden.insert(36);
        let mut l = lookup(50);
        let hop = Window::new(&cfg, MiniProtocol::ElasticErt, &g, &mut me, |p, op| {
            peers.carry(p, op)
        })
        .route(&mut l, &mut rng);
        assert_eq!(hop, Hop::Failed, "all hidden: a failure, not a panic");
        assert_eq!(l.hops, 0);
    }

    #[test]
    fn expansion_stops_at_the_target_and_skips_self_and_existing_links() {
        let (g, cfg) = (ring(), cfg());
        let mut peers = Peers::new(&g);
        let mut me = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
        let candidates: Vec<(u16, u64)> = g.inlink_candidates(ME, None).collect();
        assert!(candidates.len() > 3);
        // The first candidate already points at us.
        let (slot0, linked) = candidates[0];
        peers.nodes.get_mut(&linked).unwrap().add_outlink(slot0, ME);

        let gained = {
            let mut w = Window::new(&cfg, MiniProtocol::ElasticErt, &g, &mut me, |p, op| {
                peers.carry(p, op)
            });
            expand_indegree(&mut w, ME, 2)
        };
        assert_eq!(gained, 2);
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
        me.period_load = 5;
        let trace = Window::new(&cfg, MiniProtocol::ElasticErt, &g, &mut me, |p, op| {
            peers.carry(p, op)
        })
        .adapt();
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
        g: &ChordGeometry,
        cfg: &MiniDhtConfig,
        peers: &mut Peers,
        me: &mut ErtNode,
        period_load: u64,
    ) -> AdaptTrace {
        me.period_load = period_load;
        Window::new(cfg, MiniProtocol::ElasticErt, g, me, |p, op| {
            peers.carry(p, op)
        })
        .adapt()
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

        // The other runs the core loop from scratch to the same target.
        let (mut fresh_peers, mut fresh_me) = world();
        {
            let mut w = Window::new(
                &cfg,
                MiniProtocol::ElasticErt,
                &g,
                &mut fresh_me,
                |p, op| fresh_peers.carry(p, op),
            );
            expand_indegree(&mut w, ME, 6);
        }
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

    /// The same Algorithm 3 sequence on a Cycloid `Topology` node (the
    /// simulator's `Topology::adapt`) and on an `ErtNode` (this window
    /// over the fake), from one (capacity, indegree, `d^∞`) and one
    /// load per round. Both size through `ert_core::adapt_step`, so shed
    /// counts, grow asks, `d^∞` and indegree agree round by round.
    /// Victims follow each runtime's own rule: the farthest holders
    /// (`select_shed_victims`) on Cycloid, the newest fingers here.
    #[test]
    fn both_runtimes_take_one_adaptation_sequence_alike() {
        use ert_core::{max_indegree, select_shed_victims, ErtParams, ShedCandidate};
        use ert_network::{state::Host, topology::Topology, TablePolicy};
        use ert_overlay::{Coord, CycloidSpace};

        /// The members of `before` that `after` no longer holds.
        fn dropped<T: Copy + PartialEq>(before: &[T], after: &[T]) -> Vec<T> {
            before
                .iter()
                .filter(|f| !after.contains(f))
                .copied()
                .collect()
        }

        let space = CycloidSpace::new(4);
        let mut topo = Topology::new(space, TablePolicy::Elastic, ErtParams::default());
        let mut rng = SimRng::seed_from(42);
        let capacity = max_indegree(7.0, 1.0);
        for lin in 0..space.ring_size() {
            let host = Host::new(1000.0, 1.0, 1.0, capacity, Coord::random(&mut rng));
            let host = topo.add_host(host);
            topo.add_node(space.from_lin(lin), host, capacity);
        }
        for n in 0..topo.nodes.len() {
            topo.build_node_table(n, &mut rng);
        }
        let t = (0..topo.nodes.len())
            .find(|&n| topo.nodes[n].table.indegree() >= 4)
            .expect("some node has four inlinks");
        let t_id = topo.nodes[t].id;

        // A dense ring, so the node's grows find as much supply as the
        // Cycloid node's; its first inlinks are its first holders.
        let all: Vec<u64> = (0..1 << BITS).collect();
        let (g, cfg) = (ChordGeometry::from_members(BITS, &all), cfg());
        let mut peers = Peers::new(&g);
        let mut me = ErtNode::new(ME, capacity, MiniProtocol::ElasticErt);
        me.d_max = topo.nodes[t].d_max();
        let mut candidates: Vec<(u16, u64)> = g.inlink_candidates(ME, None).collect();
        candidates.dedup_by_key(|&mut (_, holder)| holder);
        for &(slot, holder) in &candidates[..topo.nodes[t].table.indegree()] {
            peers.nodes.get_mut(&holder).unwrap().add_outlink(slot, ME);
            me.table.add_backward(holder);
        }
        assert_eq!(cfg.ert.mu, topo.params.mu);
        assert_eq!(cfg.ert.gamma_l, topo.params.gamma_l);

        // Shed two, grow ⌈μc⌉, shed everything, grow again.
        let loads = [capacity as u64 + 4, 0, capacity as u64 + 1000, 0];
        let mut sheds = 0;
        for load in loads {
            let (indegree, d_max) = (me.indegree(), me.d_max);
            assert_eq!(topo.nodes[t].table.indegree() as u32, indegree);
            assert_eq!(topo.nodes[t].d_max(), d_max);
            let action = adaptation_action(load as f64, capacity as f64, &cfg.ert);
            let fingers = topo.nodes[t].table.backward_fingers().to_vec();
            let ranked: Vec<ShedCandidate<_>> = fingers
                .iter()
                .map(|&bf| ShedCandidate {
                    id: bf,
                    logical_distance: topo.logical_metric(bf, t_id),
                    physical_distance: topo.phys_dist(bf, t_id),
                })
                .collect();
            let newest = me.table.backward_fingers().to_vec();

            let (step, links) = topo.adapt(t, action);
            let trace = adapt(&g, &cfg, &mut peers, &mut me, load);
            assert_eq!(step, adapt_step(action, capacity, indegree, d_max));
            match step {
                AdaptStep::Shed { count, d_max } => {
                    sheds += 1;
                    assert_eq!((links, trace.delta), (count, -i64::from(count)));
                    assert_eq!(me.d_max, d_max);
                    let mut cut = dropped(&fingers, topo.nodes[t].table.backward_fingers());
                    let mut farthest = select_shed_victims(&ranked, count);
                    cut.sort();
                    farthest.sort();
                    assert_eq!(cut, farthest, "Cycloid sheds its farthest holders");
                    let cut = dropped(&newest, me.table.backward_fingers());
                    assert_eq!(cut, newest[newest.len() - count as usize..]);
                }
                AdaptStep::Grow { ask, target, d_max } => {
                    assert_eq!(trace.delta, i64::from(ask));
                    assert_eq!(me.d_max, d_max);
                    assert_eq!(me.indegree(), target, "the dense ring meets the target");
                }
                AdaptStep::Keep => panic!("load {load} kept"),
            }
            assert_eq!(trace.d_max, me.d_max);
        }
        assert_eq!(sheds, 2);
        assert_eq!(topo.nodes[t].table.indegree() as u32, me.indegree());
        assert_eq!(topo.nodes[t].d_max(), me.d_max);
    }

    /// Algorithm 1 as the window ran it over two ops — a link query,
    /// then `AddOutlink` to a holder that said "absent" — applied to
    /// the peers' tables directly. Returns the holders it queried and
    /// the ones it then added, in order.
    fn model_expand(
        g: &ChordGeometry,
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
    fn arbitrary_world(seed: u64) -> (ChordGeometry, Peers, ErtNode) {
        let mut rng = SimRng::seed_from(seed);
        let mut members = vec![ME];
        members.extend((1..64).filter(|_| rng.gen_bool(0.4)));
        let g = ChordGeometry::from_members(BITS, &members);
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
        /// a heal in the middle: the one-op window asks `AddOutlink` of
        /// exactly the holders the two-op model queried, hears "added"
        /// from exactly those the model added, and leaves every table
        /// and the scan position as the model does.
        #[test]
        fn the_one_op_window_matches_the_query_then_add_model(seed in 0u64..100_000) {
            let (g, mut peers, mut me) = arbitrary_world(seed);
            let (_, mut model_peers, mut model_me) = arbitrary_world(seed);
            let cfg = cfg();
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
                Window::new(&cfg, MiniProtocol::ElasticErt, &g, &mut me, |p, op| {
                    let answer = peers.carry(p, op);
                    if matches!(answer, PeerAnswer::Report(r) if r.load == 0) {
                        answered_added.push(p);
                    }
                    answer
                })
                .expand(target);
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

    /// One step of a stream against the filter: a peer's `AddOutlink`,
    /// the node's own build pick, a peer's `DropOutlinks`, a departure,
    /// and a hop's structural refresh.
    #[derive(Debug)]
    enum Step {
        Serve(u16, u64),
        Pick(u16, u64),
        Drop(u64),
        Purge(u64),
        Refresh(u16, Vec<u64>),
    }

    /// A stream of `Step`s on the test ring's slots, structural and
    /// elastic, over a pool of peer ids: a few ids (mostly repeats,
    /// through the set-bit scan), a ring's worth, or thousands (random
    /// ids, so clear bits, false positives and a filling filter).
    fn arbitrary_stream(seed: u64) -> Vec<Step> {
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
                    0..=9 => Step::Serve(slot, peer),
                    10..=13 => Step::Pick(slot, peer),
                    14 | 15 => Step::Drop(peer),
                    16 | 17 => Step::Purge(peer),
                    _ => {
                        let len = rng.gen_range(0..6);
                        let mut ids: Vec<u64> = (0..len)
                            .map(|_| pool[rng.gen_range(0..pool.len())])
                            .collect();
                        ids.sort_unstable();
                        ids.dedup();
                        Step::Refresh(u16::MAX, ids)
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
        /// The own pick runs through the window, as the build makes it;
        /// the twin applies each step to its table directly.
        #[test]
        fn the_filtered_node_answers_as_the_scanning_one(seed in 0u64..100_000) {
            let (g, cfg) = (ring(), cfg());
            let mut node = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
            let mut twin = ErtNode::new(ME, 8, MiniProtocol::ElasticErt);
            for (i, step) in arbitrary_stream(seed).into_iter().enumerate() {
                let (got, want) = match step {
                    Step::Serve(slot, peer) => {
                        let op = PeerOp::Link { from: peer, slot, op: AdaptOp::AddOutlink };
                        (Some(node.serve(op).load == 0), Some(twin.table.add_outlink(slot, peer)))
                    }
                    Step::Pick(slot, peer) => {
                        let mut w = Window::new(&cfg, MiniProtocol::ElasticErt, &g, &mut node, |_, _| {
                            PeerAnswer::Unknown
                        });
                        (Some(w.link_if_absent(ME, slot, peer)), Some(twin.table.add_outlink(slot, peer)))
                    }
                    Step::Drop(peer) => {
                        node.serve(PeerOp::Link { from: peer, slot: 0, op: AdaptOp::DropOutlinks });
                        let slots: Vec<u16> = twin.table.occupied_slots().collect();
                        for s in slots {
                            twin.table.remove_outlink(s, peer);
                        }
                        (None, None)
                    }
                    Step::Purge(peer) => {
                        node.purge_peer(peer);
                        twin.table.purge_peer(peer);
                        (None, None)
                    }
                    Step::Refresh(slot, ids) => {
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
        slot(&mut me);
        for (seed, memory) in [(1, None), (2, Some(40)), (3, Some(44))] {
            if let Some(m) = memory {
                me.table.set_memory(5, m);
            }
            let mut peers = Peers::new(&g);
            let hop = Window::new(&cfg, MiniProtocol::ElasticErt, &g, &mut me, |p, op| {
                peers.carry(p, op)
            })
            .route(&mut lookup(58), &mut SimRng::seed_from(seed));
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
        let hop = Window::new(&cfg, MiniProtocol::Classic, &g, &mut me, |p, op| {
            peers.carry(p, op)
        })
        .route(&mut lookup(58), &mut SimRng::seed_from(4));
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

        /// `draw_first` over a region of two runs — as a wrapping arc
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
            let pick = draw_first(region, &mut drawn, |c| {
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

    fn build(cfg: &MiniDhtConfig, g: &ChordGeometry, peers: &mut Peers, me: &mut ErtNode) {
        Window::new(cfg, MiniProtocol::ElasticErt, g, me, |p, op| {
            peers.carry(p, op)
        })
        .build_table();
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
    fn saturated_world(seed: u64) -> (ChordGeometry, Peers, ErtNode) {
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
        let g = ChordGeometry::from_members(BITS, &[ME, 32, 34, 36, 38, 40, 42]);
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
