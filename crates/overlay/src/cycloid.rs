//! The Cycloid overlay: a constant-degree DHT emulating cube-connected
//! cycles, the evaluation platform of the ERT paper.
//!
//! A Cycloid ID is a pair `(k, a)` of a *cyclic index* `k ∈ 0..d` and a
//! *cubical ID* `a ∈ 0..2^d`, where `d` is the dimension. Nodes sharing a
//! cubical ID form a *cycle*; the `d·2^d` IDs form a global ring in
//! cubical-major order, and a key is owned by its ring successor.
//!
//! Per Section 3.2 of the paper, once the constant-degree restriction is
//! removed each table slot corresponds to a *region* of legal neighbor
//! IDs:
//!
//! * the **cubical** slot of `(k, a)`, `k ≠ 0`, may hold any node
//!   `(k−1, a_{d−1} … ā_k x x … x)` — high bits preserved, bit `k`
//!   flipped, low bits free;
//! * the **cyclic** slot may hold any node
//!   `(k−1, a_{d−1} … a_k x x … x)` — high bits preserved, low bits free
//!   (the two classic cyclic neighbors are the closest-larger and
//!   closest-smaller members of this region);
//! * leaf (ring) slots hold nearby ring members.
//!
//! The *reverse* regions — whose tables may point at `(k, a)` — follow by
//! inverting the definitions (Algorithm 1 of the paper probes exactly
//! these: first cubical inlinks, then cyclic).

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::ring::forward_distance;

/// A Cycloid identifier `(k, a)`: cyclic index `k` and cubical ID `a`.
///
/// Construct through [`CycloidSpace::id`] so the components are validated
/// against the dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CycloidId {
    k: u8,
    a: u32,
}

impl CycloidId {
    /// The cyclic index.
    pub fn k(self) -> u8 {
        self.k
    }

    /// The cubical ID.
    pub fn a(self) -> u32 {
        self.a
    }
}

impl fmt::Display for CycloidId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{:b})", self.k, self.a)
    }
}

/// A rectangle of Cycloid IDs: a fixed cyclic index and an inclusive
/// range of cubical IDs.
///
/// All entry and reverse regions in Cycloid take this shape (the free
/// low bits of the region definitions form an aligned, non-wrapping
/// block of cubical IDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CycloidRegion {
    /// Cyclic index every member shares.
    pub k: u8,
    /// Smallest cubical ID in the region.
    pub a_lo: u32,
    /// Largest cubical ID in the region.
    pub a_hi: u32,
}

impl CycloidRegion {
    /// Whether `id` lies in the region.
    pub fn contains(&self, id: CycloidId) -> bool {
        id.k == self.k && (self.a_lo..=self.a_hi).contains(&id.a)
    }

    /// Number of IDs in the region.
    pub fn id_count(&self) -> u64 {
        (self.a_hi - self.a_lo) as u64 + 1
    }
}

/// Which routing-table slot a hop should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotKind {
    /// The cubical slot: flips bit `k`, descends to `k − 1`.
    Cubical,
    /// The cyclic slot: keeps bits `≥ k`, descends to `k − 1`.
    Cyclic,
}

/// The routing decision for one hop of the original Cycloid algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouteStep {
    /// Forward through the given elastic table slot.
    Entry(SlotKind),
    /// The current node's cyclic index is too low to correct the highest
    /// differing cubical bit: climb to a higher-`k` member of the own
    /// cycle (or, failing that, step along the ring).
    Ascend,
    /// Cubical IDs (almost) agree: walk the global ring to the owner.
    Ring,
}

/// The Cycloid ID space of a given dimension.
///
/// ```
/// use ert_overlay::{CycloidSpace, SlotKind};
/// let space = CycloidSpace::new(8);
/// // The paper's running example: node (4, 1011_1010).
/// let node = space.id(4, 0b1011_1010);
/// let cubical = space.cubical_region(node).unwrap();
/// assert_eq!(cubical.k, 3);
/// assert_eq!(cubical.a_lo, 0b1010_0000); // (3, 1010-xxxx)
/// assert_eq!(cubical.a_hi, 0b1010_1111);
/// let cyclic = space.cyclic_region(node).unwrap();
/// assert_eq!(cyclic.a_lo, 0b1011_0000); // (3, 1011-xxxx)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycloidSpace {
    dim: u8,
}

impl CycloidSpace {
    /// Creates a space of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= dim <= 26` (the ring size must fit
    /// comfortably in `u64`, and dimension 1 has no routable structure).
    pub fn new(dim: u8) -> Self {
        assert!(
            (2..=26).contains(&dim),
            "unsupported Cycloid dimension: {dim}"
        );
        CycloidSpace { dim }
    }

    /// Smallest dimension whose ID space `d·2^d` holds at least `n` IDs.
    ///
    /// The paper's default — `n = 2048` — maps to dimension 8, whose
    /// space is exactly `8·256 = 2048`.
    pub fn dimension_for(n: usize) -> u8 {
        let mut d = 2u8;
        while (d as u64) << d < n as u64 {
            d += 1;
        }
        d
    }

    /// The dimension `d`.
    pub fn dim(self) -> u8 {
        self.dim
    }

    /// Number of cubical IDs, `2^d`.
    pub fn cube_size(self) -> u64 {
        1u64 << self.dim
    }

    /// Total IDs in the space, `d·2^d`.
    pub fn ring_size(self) -> u64 {
        self.dim as u64 * self.cube_size()
    }

    /// Builds a validated ID.
    ///
    /// # Panics
    ///
    /// Panics if `k >= d` or `a >= 2^d`.
    pub fn id(self, k: u8, a: u32) -> CycloidId {
        assert!(
            k < self.dim,
            "cyclic index {k} out of range for dim {}",
            self.dim
        );
        assert!((a as u64) < self.cube_size(), "cubical id {a} out of range");
        CycloidId { k, a }
    }

    /// The cubical-major ring position of `id` (cycle `a` occupies the
    /// contiguous block `[a·d, a·d + d)`).
    pub fn lin(self, id: CycloidId) -> u64 {
        id.a as u64 * self.dim as u64 + id.k as u64
    }

    /// Inverse of [`CycloidSpace::lin`].
    ///
    /// # Panics
    ///
    /// Panics if `lin` is outside the ring.
    pub fn from_lin(self, lin: u64) -> CycloidId {
        assert!(lin < self.ring_size(), "ring position {lin} out of range");
        CycloidId {
            k: (lin % self.dim as u64) as u8,
            a: (lin / self.dim as u64) as u32,
        }
    }

    /// Draws a uniformly random ID.
    pub fn random_id<R: Rng>(self, rng: &mut R) -> CycloidId {
        self.from_lin(rng.gen_range(0..self.ring_size()))
    }

    /// The region the cubical slot of `id` may draw neighbors from, or
    /// `None` for `k = 0` nodes (which have no descending slots).
    pub fn cubical_region(self, id: CycloidId) -> Option<CycloidRegion> {
        if id.k == 0 {
            return None;
        }
        let base = ((id.a >> id.k) ^ 1) << id.k;
        Some(CycloidRegion {
            k: id.k - 1,
            a_lo: base,
            a_hi: base + (1 << id.k) - 1,
        })
    }

    /// The region the cyclic slot of `id` may draw neighbors from, or
    /// `None` for `k = 0` nodes.
    pub fn cyclic_region(self, id: CycloidId) -> Option<CycloidRegion> {
        if id.k == 0 {
            return None;
        }
        let base = (id.a >> id.k) << id.k;
        Some(CycloidRegion {
            k: id.k - 1,
            a_lo: base,
            a_hi: base + (1 << id.k) - 1,
        })
    }

    /// IDs whose **cubical** slot may point at `id` — what Algorithm 1
    /// probes first to expand indegree. `None` for `k = d − 1` nodes.
    pub fn reverse_cubical_region(self, id: CycloidId) -> Option<CycloidRegion> {
        if id.k + 1 >= self.dim {
            return None;
        }
        let shift = id.k + 1;
        let base = ((id.a >> shift) ^ 1) << shift;
        Some(CycloidRegion {
            k: shift,
            a_lo: base,
            a_hi: base + (1 << shift) - 1,
        })
    }

    /// IDs whose **cyclic** slot may point at `id` — what Algorithm 1
    /// probes second. `None` for `k = d − 1` nodes.
    pub fn reverse_cyclic_region(self, id: CycloidId) -> Option<CycloidRegion> {
        if id.k + 1 >= self.dim {
            return None;
        }
        let shift = id.k + 1;
        let base = (id.a >> shift) << shift;
        Some(CycloidRegion {
            k: shift,
            a_lo: base,
            a_hi: base + (1 << shift) - 1,
        })
    }

    /// Distance between two cubical IDs around the cube, the shorter
    /// way.
    pub fn cube_dist(self, a: u32, b: u32) -> u64 {
        let fwd = forward_distance(a as u64, b as u64, self.cube_size());
        fwd.min(self.cube_size() - fwd)
    }

    /// One hop of the original Cycloid routing algorithm, as a slot
    /// decision.
    ///
    /// The three phases of Cycloid routing fall out of the comparison of
    /// the current cyclic index with the most significant differing
    /// cubical bit (`m`): *ascend* while `k < m`, *descend* through
    /// cubical (`k = m`) or cyclic (`k > m`) slots, and *traverse the
    /// ring* once the cubical IDs agree.
    pub fn route_step(self, cur: CycloidId, key: CycloidId) -> RouteStep {
        if cur.a == key.a {
            return RouteStep::Ring;
        }
        let m = 31 - (cur.a ^ key.a).leading_zeros(); // MSB of the diff
        if m as u8 > cur.k {
            RouteStep::Ascend
        } else if cur.k == 0 {
            // Only m == 0 reaches here: adjacent cycles, finish on ring.
            RouteStep::Ring
        } else if m as u8 == cur.k {
            RouteStep::Entry(SlotKind::Cubical)
        } else {
            RouteStep::Entry(SlotKind::Cyclic)
        }
    }
}

/// The set of live Cycloid IDs, with the ring / cycle / region queries
/// the protocol needs.
///
/// Internally two indexes are kept: a sorted cubical-major one (the
/// global ring, for successor/owner/window queries) and a cyclic-major
/// bitmap (so entry regions — a fixed `k` with a cubical range — are
/// contiguous bit ranges, and the nearest member to either side of a
/// cubical ID is a word scan rather than a tree descent).
///
/// ```
/// use ert_overlay::{CycloidSpace, CycloidRegistry};
/// let space = CycloidSpace::new(3);
/// let mut reg = CycloidRegistry::new(space);
/// reg.insert(space.id(0, 1));
/// reg.insert(space.id(2, 1));
/// reg.insert(space.id(1, 5));
/// // Key (1,1) is owned by its ring successor (2,1).
/// assert_eq!(reg.owner(space.id(1, 1)), Some(space.id(2, 1)));
/// ```
#[derive(Debug, Clone)]
pub struct CycloidRegistry {
    space: CycloidSpace,
    /// Ring order: `a·d + k`.
    a_major: BTreeSet<u64>,
    /// Region order: bit `k·2^d + a` is set while `(k, a)` is live.
    k_major: Vec<u64>,
}

impl CycloidRegistry {
    /// Creates an empty registry over `space`.
    pub fn new(space: CycloidSpace) -> Self {
        CycloidRegistry {
            space,
            a_major: BTreeSet::new(),
            k_major: vec![0; space.ring_size().div_ceil(64) as usize],
        }
    }

    /// The underlying ID space.
    pub fn space(&self) -> CycloidSpace {
        self.space
    }

    fn set_k_major(&mut self, id: CycloidId, live: bool) {
        let bit = id.k as u64 * self.space.cube_size() + id.a as u64;
        let word = &mut self.k_major[(bit / 64) as usize];
        match live {
            true => *word |= 1 << (bit % 64),
            false => *word &= !(1 << (bit % 64)),
        }
    }

    /// Adds `id`; returns `false` if it was already present.
    pub fn insert(&mut self, id: CycloidId) -> bool {
        let fresh = self.a_major.insert(self.space.lin(id));
        if fresh {
            self.set_k_major(id, true);
        }
        fresh
    }

    /// Removes `id`; returns `false` if it was not present.
    pub fn remove(&mut self, id: CycloidId) -> bool {
        let had = self.a_major.remove(&self.space.lin(id));
        if had {
            self.set_k_major(id, false);
        }
        had
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: CycloidId) -> bool {
        self.a_major.contains(&self.space.lin(id))
    }

    /// Number of live IDs.
    pub fn len(&self) -> usize {
        self.a_major.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.a_major.is_empty()
    }

    /// Iterates over all live IDs in ring order.
    pub fn iter(&self) -> impl Iterator<Item = CycloidId> + '_ {
        self.a_major
            .iter()
            .map(move |&lin| self.space.from_lin(lin))
    }

    /// First live ID at or after `key` on the ring (wrapping): the owner
    /// of the key. `None` when the registry is empty.
    pub fn owner(&self, key: CycloidId) -> Option<CycloidId> {
        let lin = self.space.lin(key);
        let next = self
            .a_major
            .range(lin..)
            .next()
            .or_else(|| self.a_major.iter().next());
        next.map(|&l| self.space.from_lin(l))
    }

    /// First live ID strictly after `id` on the ring (wrapping). Returns
    /// `id` itself when it is the only member; `None` when empty.
    pub fn successor(&self, id: CycloidId) -> Option<CycloidId> {
        let lin = self.space.lin(id);
        let next = self
            .a_major
            .range(lin + 1..)
            .next()
            .or_else(|| self.a_major.iter().next());
        next.map(|&l| self.space.from_lin(l))
    }

    /// First live ID strictly before `id` on the ring (wrapping).
    /// Returns `id` itself when it is the only member; `None` when empty.
    pub fn predecessor(&self, id: CycloidId) -> Option<CycloidId> {
        let lin = self.space.lin(id);
        let prev = self
            .a_major
            .range(..lin)
            .next_back()
            .or_else(|| self.a_major.iter().next_back());
        prev.map(|&l| self.space.from_lin(l))
    }

    /// The cubical IDs in `lo..hi` that are live at cyclic index `k`,
    /// in order.
    fn cubicals(&self, k: u8, lo: u32, hi: u32) -> impl Iterator<Item = u32> + '_ {
        let base = k as u64 * self.space.cube_size();
        let (from, end) = (base + lo as u64, base + hi as u64);
        let mut at = (from / 64) as usize;
        let mut word = self.k_major.get(at).map_or(0, |w| w & (!0 << (from % 64)));
        std::iter::from_fn(move || {
            while word == 0 {
                at += 1;
                word = *self.k_major.get(at).filter(|_| (at as u64) * 64 < end)?;
            }
            let bit = at as u64 * 64 + word.trailing_zeros() as u64;
            word &= word - 1;
            (bit < end).then(|| (bit - base) as u32)
        })
    }

    /// The largest cubical ID in `lo..hi` that is live at cyclic index
    /// `k`.
    fn last_cubical(&self, k: u8, lo: u32, hi: u32) -> Option<u32> {
        let base = k as u64 * self.space.cube_size();
        let (from, last) = (base + lo as u64, (base + hi as u64).checked_sub(1)?);
        let mut at = (last / 64) as usize;
        let mut word = self.k_major.get(at)? & (!0 >> (63 - last % 64));
        while word == 0 {
            at = at
                .checked_sub(1)
                .filter(|&at| (at as u64 + 1) * 64 > from)?;
            word = self.k_major[at];
        }
        let bit = at as u64 * 64 + 63 - word.leading_zeros() as u64;
        (bit >= from).then(|| (bit - base) as u32)
    }

    /// The live members of a region, in cubical order.
    pub fn nodes_in_region(&self, region: CycloidRegion) -> Vec<CycloidId> {
        self.cubicals(region.k, region.a_lo, region.a_hi + 1)
            .map(|a| CycloidId { k: region.k, a })
            .collect()
    }

    /// Number of live members of a region.
    pub fn region_population(&self, region: CycloidRegion) -> usize {
        self.cubicals(region.k, region.a_lo, region.a_hi + 1)
            .count()
    }

    /// Algorithm 1's probe order for `node`, lazily, from `from` on:
    /// the live members of the reverse cubical region, then of the
    /// reverse cyclic region — each nearest cubical ID to `node`'s
    /// first, the smaller ID on ties — then the `ring_window` nearest
    /// ring predecessors, which may take `node` as an extra successor
    /// (Theorem 3.3's note that nodes probe their ring neighbors too).
    /// `node` need not be live: a joining node scans before it is
    /// anyone's neighbor.
    pub fn inlink_scan(
        &self,
        node: CycloidId,
        ring_window: usize,
        from: InlinkCursor,
    ) -> InlinkScan<'_> {
        InlinkScan {
            registry: self,
            node,
            ring_window,
            at: from,
        }
    }

    /// Live members of `id`'s own cycle with a *higher* cyclic index,
    /// nearest first — the targets of the ascending phase.
    pub fn cycle_above(&self, id: CycloidId) -> Vec<CycloidId> {
        let lo = self.space.lin(id) + 1;
        let hi = id.a as u64 * self.space.dim() as u64 + self.space.dim() as u64;
        self.a_major
            .range(lo..hi)
            .map(|&l| self.space.from_lin(l))
            .collect()
    }

    /// The next `window` live IDs strictly after `id` on the ring
    /// (wrapping, excluding `id`).
    pub fn succ_window(&self, id: CycloidId, window: usize) -> Vec<CycloidId> {
        let lin = self.space.lin(id);
        let mut out = Vec::with_capacity(window);
        for &l in self
            .a_major
            .range(lin + 1..)
            .chain(self.a_major.range(..lin))
        {
            if out.len() == window {
                break;
            }
            out.push(self.space.from_lin(l));
        }
        out
    }

    /// The previous `window` live IDs strictly before `id` on the ring
    /// (wrapping, excluding `id`), nearest first.
    pub fn pred_window(&self, id: CycloidId, window: usize) -> Vec<CycloidId> {
        self.preds(id).take(window).collect()
    }

    /// Every live ID but `id`, walking the ring backwards from it.
    fn preds(&self, id: CycloidId) -> impl Iterator<Item = CycloidId> + '_ {
        let lin = self.space.lin(id);
        let before = self.a_major.range(..lin).rev();
        let wrapped = self.a_major.range(lin + 1..).rev();
        before.chain(wrapped).map(|&l| self.space.from_lin(l))
    }

    /// The highest-`k` member of a cycle (its "head"), or `None` for an
    /// empty cycle. Cycloid's outside leaf sets point at the heads of
    /// the adjacent cycles.
    pub fn cycle_head(&self, a: u32) -> Option<CycloidId> {
        let lo = a as u64 * self.space.dim() as u64;
        let hi = lo + self.space.dim() as u64;
        self.a_major
            .range(lo..hi)
            .next_back()
            .map(|&l| self.space.from_lin(l))
    }

    /// The head of the first non-empty cycle after `id`'s own (wrapping),
    /// or `None` when `id`'s cycle is the only populated one.
    pub fn next_cycle_head(&self, id: CycloidId) -> Option<CycloidId> {
        let dim = self.space.dim() as u64;
        let start = (id.a as u64 + 1) * dim;
        let first_elsewhere = self
            .a_major
            .range(start..)
            .next()
            .or_else(|| self.a_major.iter().next())
            .map(|&l| self.space.from_lin(l))?;
        if first_elsewhere.a == id.a {
            return None;
        }
        self.cycle_head(first_elsewhere.a)
    }

    /// The head of the first non-empty cycle before `id`'s own
    /// (wrapping), or `None` when `id`'s cycle is the only populated one.
    pub fn prev_cycle_head(&self, id: CycloidId) -> Option<CycloidId> {
        let dim = self.space.dim() as u64;
        let end = id.a as u64 * dim;
        let last_elsewhere = self
            .a_major
            .range(..end)
            .next_back()
            .or_else(|| self.a_major.iter().next_back())
            .map(|&l| self.space.from_lin(l))?;
        if last_elsewhere.a == id.a {
            return None;
        }
        // That member is already its cycle's highest present lin, but not
        // necessarily the head when wrapping selected a later cycle.
        self.cycle_head(last_elsewhere.a)
    }

    /// Clockwise ring distance from `from` to `to`.
    pub fn forward_dist(&self, from: CycloidId, to: CycloidId) -> u64 {
        forward_distance(
            self.space.lin(from),
            self.space.lin(to),
            self.space.ring_size(),
        )
    }

    /// Draws a uniformly random *vacant* ID, or `None` if the space is
    /// full.
    pub fn random_vacant<R: Rng>(&self, rng: &mut R) -> Option<CycloidId> {
        let size = self.space.ring_size();
        if self.a_major.len() as u64 >= size {
            return None;
        }
        for _ in 0..128 {
            let lin = rng.gen_range(0..size);
            if !self.a_major.contains(&lin) {
                return Some(self.space.from_lin(lin));
            }
        }
        // Dense space: scan forward from a random point for the first gap.
        let start = rng.gen_range(0..size);
        let mut lin = start;
        loop {
            if !self.a_major.contains(&lin) {
                return Some(self.space.from_lin(lin));
            }
            lin = (lin + 1) % size;
            if lin == start {
                return None;
            }
        }
    }
}

/// Where a scan of [`CycloidRegistry::inlink_scan`] stands: the phase of
/// the probe order it is in and what that phase has left. It is a
/// position in one node's sequence at one membership and means nothing
/// for another node or once the registry has changed. In the two region
/// phases it is a function of the last member yielded (everything
/// nearer, and the smaller ID at the same distance, went before it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InlinkCursor {
    /// Nothing yielded yet.
    #[default]
    Start,
    /// In the reverse cubical region. The block does not hold the
    /// node's cubical ID and spans at most half the cube, so the
    /// distance has no interior minimum and the nearest member left is
    /// at one of the two ends: the members in `lo..hi` are left.
    Cubical {
        /// First cubical ID not yet passed from below.
        lo: u32,
        /// End of the cubical IDs not yet passed from above.
        hi: u32,
    },
    /// In the reverse cyclic region. The block holds the node's cubical
    /// ID, so the distance is a V around it and the walk goes outward:
    /// the region's members below `lo` and from `hi` up are left.
    Cyclic {
        /// End of the cubical IDs not yet passed on the way down.
        lo: u32,
        /// First cubical ID not yet passed on the way up.
        hi: u32,
    },
    /// In the ring window, `taken` predecessors in.
    Ring {
        /// Ring predecessors yielded so far.
        taken: u32,
    },
    /// Past the last candidate.
    End,
}

/// The iterator of [`CycloidRegistry::inlink_scan`]. Items are the
/// candidate and the slot of *its* table that may point at the node:
/// `Some` entry slot for a region member, `None` for a ring predecessor
/// (its successor slot).
#[derive(Debug, Clone)]
pub struct InlinkScan<'a> {
    registry: &'a CycloidRegistry,
    node: CycloidId,
    ring_window: usize,
    at: InlinkCursor,
}

impl InlinkScan<'_> {
    /// The position after the last item yielded: hand it to
    /// [`CycloidRegistry::inlink_scan`] to get exactly the rest.
    pub fn cursor(&self) -> InlinkCursor {
        self.at
    }

    /// The nearer of the next member on the lower and on the upper
    /// side, and whether it is the upper one.
    fn nearer(&self, lower: Option<u32>, upper: Option<u32>) -> Option<(u32, bool)> {
        let dist = |m: u32| self.registry.space.cube_dist(m, self.node.a);
        match (lower, upper) {
            (Some(l), Some(u)) if dist(u) < dist(l) => Some((u, true)),
            (Some(l), _) => Some((l, false)),
            (None, u) => u.map(|u| (u, true)),
        }
    }
}

impl Iterator for InlinkScan<'_> {
    type Item = (Option<SlotKind>, CycloidId);

    fn next(&mut self) -> Option<Self::Item> {
        let (reg, node) = (self.registry, self.node);
        // Both reverse regions sit one cyclic index up.
        let k = node.k + 1;
        loop {
            self.at = match self.at {
                InlinkCursor::Start => match reg.space.reverse_cubical_region(node) {
                    Some(r) => InlinkCursor::Cubical {
                        lo: r.a_lo,
                        hi: r.a_hi + 1,
                    },
                    None => InlinkCursor::Ring { taken: 0 },
                },
                InlinkCursor::Cubical { lo, hi } => {
                    let lower = reg.cubicals(k, lo, hi).next();
                    let upper = reg.last_cubical(k, lo, hi);
                    match self.nearer(lower, upper) {
                        Some((a, is_upper)) => {
                            self.at = match is_upper {
                                true => InlinkCursor::Cubical { lo, hi: a },
                                false => InlinkCursor::Cubical { lo: a + 1, hi },
                            };
                            return Some((Some(SlotKind::Cubical), CycloidId { k, a }));
                        }
                        None => InlinkCursor::Cyclic {
                            lo: node.a + 1,
                            hi: node.a + 1,
                        },
                    }
                }
                InlinkCursor::Cyclic { lo, hi } => {
                    let next = reg.space.reverse_cyclic_region(node).and_then(|r| {
                        let lower = reg.last_cubical(k, r.a_lo, lo);
                        let upper = reg.cubicals(k, hi, r.a_hi + 1).next();
                        self.nearer(lower, upper)
                    });
                    match next {
                        Some((a, is_upper)) => {
                            self.at = match is_upper {
                                true => InlinkCursor::Cyclic { lo, hi: a + 1 },
                                false => InlinkCursor::Cyclic { lo: a, hi },
                            };
                            return Some((Some(SlotKind::Cyclic), CycloidId { k, a }));
                        }
                        None => InlinkCursor::Ring { taken: 0 },
                    }
                }
                InlinkCursor::Ring { taken } => {
                    let mut window = reg.preds(node).take(self.ring_window);
                    match window.nth(taken as usize) {
                        Some(pred) => {
                            self.at = InlinkCursor::Ring { taken: taken + 1 };
                            return Some((None, pred));
                        }
                        None => InlinkCursor::End,
                    }
                }
                InlinkCursor::End => return None,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn space8() -> CycloidSpace {
        CycloidSpace::new(8)
    }

    #[test]
    fn paper_example_cubical_and_cyclic_regions() {
        // Node (4, 101-1-1010) from Fig. 2 / Section 4.1.
        let s = space8();
        let node = s.id(4, 0b1011_1010);
        let cub = s.cubical_region(node).unwrap();
        assert_eq!(
            cub,
            CycloidRegion {
                k: 3,
                a_lo: 0b1010_0000,
                a_hi: 0b1010_1111
            }
        );
        // The three cubical outlink examples from Section 4.1 all fit.
        for a in [0b1010_0000, 0b1010_0001, 0b1010_0010] {
            assert!(cub.contains(s.id(3, a)));
        }
        let cyc = s.cyclic_region(node).unwrap();
        assert_eq!(
            cyc,
            CycloidRegion {
                k: 3,
                a_lo: 0b1011_0000,
                a_hi: 0b1011_1111
            }
        );
        assert!(cyc.contains(s.id(3, 0b1011_1100)));
        assert!(cyc.contains(s.id(3, 0b1011_0011)));
    }

    #[test]
    fn paper_example_reverse_cubical_region() {
        // Section 3.2: node (3, 101-0-0000) probes (4, 101-1-xxxx).
        let s = space8();
        let node = s.id(3, 0b1010_0000);
        let rev = s.reverse_cubical_region(node).unwrap();
        assert_eq!(
            rev,
            CycloidRegion {
                k: 4,
                a_lo: 0b1011_0000,
                a_hi: 0b1011_1111
            }
        );
    }

    #[test]
    fn region_duality_cubical() {
        let s = space8();
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        for _ in 0..500 {
            let i = s.random_id(&mut rng);
            let j = s.random_id(&mut rng);
            let fwd = s.cubical_region(j).is_some_and(|r| r.contains(i));
            let rev = s.reverse_cubical_region(i).is_some_and(|r| r.contains(j));
            assert_eq!(fwd, rev, "duality broken for i={i} j={j}");
        }
    }

    #[test]
    fn region_duality_cyclic() {
        let s = space8();
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        for _ in 0..500 {
            let i = s.random_id(&mut rng);
            let j = s.random_id(&mut rng);
            let fwd = s.cyclic_region(j).is_some_and(|r| r.contains(i));
            let rev = s.reverse_cyclic_region(i).is_some_and(|r| r.contains(j));
            assert_eq!(fwd, rev, "duality broken for i={i} j={j}");
        }
    }

    #[test]
    fn k0_and_top_k_have_no_regions() {
        let s = space8();
        assert!(s.cubical_region(s.id(0, 3)).is_none());
        assert!(s.cyclic_region(s.id(0, 3)).is_none());
        assert!(s.reverse_cubical_region(s.id(7, 3)).is_none());
        assert!(s.reverse_cyclic_region(s.id(7, 3)).is_none());
    }

    #[test]
    fn lin_roundtrip() {
        let s = space8();
        for lin in [0u64, 1, 7, 8, 2047] {
            assert_eq!(s.lin(s.from_lin(lin)), lin);
        }
        assert_eq!(s.ring_size(), 2048);
    }

    #[test]
    fn dimension_for_matches_paper_default() {
        assert_eq!(CycloidSpace::dimension_for(2048), 8);
        assert_eq!(CycloidSpace::dimension_for(256), 6);
        assert_eq!(CycloidSpace::dimension_for(4096), 9);
        assert_eq!(CycloidSpace::dimension_for(1), 2);
    }

    #[test]
    fn route_step_phases() {
        let s = space8();
        // Same cubical ID: ring traversal.
        assert_eq!(s.route_step(s.id(3, 5), s.id(6, 5)), RouteStep::Ring);
        // Highest differing bit equals k: cubical slot.
        let cur = s.id(4, 0b1011_1010);
        let key = s.id(0, 0b1010_0011); // differs at bit 4 (and below)
        assert_eq!(s.route_step(cur, key), RouteStep::Entry(SlotKind::Cubical));
        // Highest differing bit below k: cyclic slot.
        let key2 = s.id(0, 0b1011_0010); // differs at bit 3
        assert_eq!(s.route_step(cur, key2), RouteStep::Entry(SlotKind::Cyclic));
        // Highest differing bit above k: ascend.
        let key3 = s.id(0, 0b0011_1010); // differs at bit 7
        assert_eq!(s.route_step(cur, key3), RouteStep::Ascend);
        // k = 0 and only bit 0 differs: ring.
        assert_eq!(s.route_step(s.id(0, 0b10), s.id(0, 0b11)), RouteStep::Ring);
        // k = 0 and a high bit differs: ascend.
        assert_eq!(
            s.route_step(s.id(0, 0b10), s.id(0, 0b1000_0010)),
            RouteStep::Ascend
        );
    }

    #[test]
    fn descent_invariant_msb_not_above_k() {
        // After one cubical/cyclic hop, any member of the slot's region
        // has its highest differing bit strictly below the region's k+1.
        let s = space8();
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        for _ in 0..300 {
            let cur = s.random_id(&mut rng);
            let key = s.random_id(&mut rng);
            if let RouteStep::Entry(kind) = s.route_step(cur, key) {
                let region = match kind {
                    SlotKind::Cubical => s.cubical_region(cur).unwrap(),
                    SlotKind::Cyclic => s.cyclic_region(cur).unwrap(),
                };
                for a in region.a_lo..=region.a_hi {
                    let next = s.id(region.k, a);
                    if next.a() == key.a() {
                        continue;
                    }
                    let m = 31 - (next.a() ^ key.a()).leading_zeros();
                    assert!(
                        m as u8 <= region.k,
                        "hop to {next} under key {key} broke the invariant"
                    );
                }
            }
        }
    }

    #[test]
    fn registry_owner_and_neighbors() {
        let s = CycloidSpace::new(3);
        let mut reg = CycloidRegistry::new(s);
        let ids = [s.id(0, 1), s.id(2, 1), s.id(1, 5)];
        for id in ids {
            assert!(reg.insert(id));
        }
        assert!(!reg.insert(ids[0]));
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.owner(s.id(1, 1)), Some(s.id(2, 1)));
        // Wrap-around: a key after the last node is owned by the first.
        assert_eq!(reg.owner(s.id(2, 7)), Some(s.id(0, 1)));
        assert_eq!(reg.successor(s.id(2, 1)), Some(s.id(1, 5)));
        assert_eq!(reg.predecessor(s.id(0, 1)), Some(s.id(1, 5)));
        assert!(reg.remove(ids[1]));
        assert!(!reg.remove(ids[1]));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn registry_region_queries() {
        let s = space8();
        let mut reg = CycloidRegistry::new(s);
        let node = s.id(4, 0b1011_1010);
        let region = s.cubical_region(node).unwrap();
        let inside = [s.id(3, 0b1010_0000), s.id(3, 0b1010_1111)];
        let outside = [s.id(3, 0b1011_0000), s.id(2, 0b1010_0000)];
        for id in inside.iter().chain(&outside) {
            reg.insert(*id);
        }
        let found = reg.nodes_in_region(region);
        assert_eq!(found, inside.to_vec());
        assert_eq!(reg.region_population(region), 2);
    }

    #[test]
    fn bitmap_range_queries_match_a_linear_search() {
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        // Cubes of 8, 64 and 256 IDs: within one word, word-aligned,
        // and several words per cyclic index.
        for (dim, fill) in [(3, 0.5), (6, 0.1), (8, 0.02), (8, 0.7)] {
            let s = CycloidSpace::new(dim);
            let mut reg = CycloidRegistry::new(s);
            for lin in 0..s.ring_size() {
                if rng.gen::<f64>() < fill {
                    reg.insert(s.from_lin(lin));
                }
            }
            // Departures clear their bit.
            for id in reg.iter().step_by(3).collect::<Vec<_>>() {
                reg.remove(id);
            }
            let cube = s.cube_size() as u32;
            for _ in 0..400 {
                let k = rng.gen_range(0..dim);
                let (x, y) = (rng.gen_range(0..=cube), rng.gen_range(0..=cube));
                let (lo, hi) = (x.min(y), x.max(y));
                let live: Vec<u32> = (lo..hi).filter(|&a| reg.contains(s.id(k, a))).collect();
                assert_eq!(reg.last_cubical(k, lo, hi), live.last().copied());
                assert_eq!(reg.cubicals(k, lo, hi).collect::<Vec<_>>(), live);
            }
        }
    }

    #[test]
    fn cycle_above_and_windows() {
        let s = CycloidSpace::new(4);
        let mut reg = CycloidRegistry::new(s);
        for k in [0u8, 1, 3] {
            reg.insert(s.id(k, 9));
        }
        reg.insert(s.id(2, 10));
        let above = reg.cycle_above(s.id(0, 9));
        assert_eq!(above, vec![s.id(1, 9), s.id(3, 9)]);
        assert!(reg.cycle_above(s.id(3, 9)).is_empty());
        let succ = reg.succ_window(s.id(3, 9), 2);
        assert_eq!(succ, vec![s.id(2, 10), s.id(0, 9)]);
        let pred = reg.pred_window(s.id(0, 9), 5);
        assert_eq!(pred, vec![s.id(2, 10), s.id(3, 9), s.id(1, 9)]);
    }

    #[test]
    fn cycle_heads() {
        let s = CycloidSpace::new(4);
        let mut reg = CycloidRegistry::new(s);
        reg.insert(s.id(1, 3));
        reg.insert(s.id(3, 3));
        reg.insert(s.id(2, 7));
        reg.insert(s.id(0, 12));
        assert_eq!(reg.cycle_head(3), Some(s.id(3, 3)));
        assert_eq!(reg.cycle_head(5), None);
        assert_eq!(reg.next_cycle_head(s.id(1, 3)), Some(s.id(2, 7)));
        assert_eq!(reg.next_cycle_head(s.id(0, 12)), Some(s.id(3, 3))); // wraps
        assert_eq!(reg.prev_cycle_head(s.id(2, 7)), Some(s.id(3, 3)));
        assert_eq!(reg.prev_cycle_head(s.id(3, 3)), Some(s.id(0, 12))); // wraps
    }

    #[test]
    fn cycle_heads_single_cycle_is_none() {
        let s = CycloidSpace::new(4);
        let mut reg = CycloidRegistry::new(s);
        reg.insert(s.id(0, 5));
        reg.insert(s.id(2, 5));
        assert_eq!(reg.next_cycle_head(s.id(0, 5)), None);
        assert_eq!(reg.prev_cycle_head(s.id(2, 5)), None);
    }

    #[test]
    fn random_vacant_avoids_members_even_when_dense() {
        let s = CycloidSpace::new(2); // ring of 8 IDs
        let mut reg = CycloidRegistry::new(s);
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        for _ in 0..8 {
            let v = reg.random_vacant(&mut rng).expect("space not full");
            assert!(!reg.contains(v));
            reg.insert(v);
        }
        assert_eq!(reg.len(), 8);
        assert_eq!(reg.random_vacant(&mut rng), None);
    }

    #[test]
    fn forward_dist_wraps() {
        let s = CycloidSpace::new(3);
        let mut reg = CycloidRegistry::new(s);
        reg.insert(s.id(0, 0));
        let last = s.from_lin(s.ring_size() - 1);
        assert_eq!(reg.forward_dist(last, s.id(0, 0)), 1);
        assert_eq!(reg.forward_dist(s.id(0, 0), last), s.ring_size() - 1);
    }
}
