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
use std::ops::Range;

use rand::Rng;
use serde::Serialize;

use crate::ring::forward_distance;

/// A Cycloid identifier `(k, a)`: cyclic index `k` and cubical ID `a`.
///
/// Construct through [`CycloidSpace::id`] so the components are validated
/// against the dimension.
///
/// Packed into one word, `(k << MAX_DIM) | a`: `a < 2^d ≤ 2^MAX_DIM`
/// fills the low bits and `k` sits above them, so comparing the words
/// is comparing `(k, a)` lexicographically — the order the two-field
/// struct this replaces derived, which every ID-keyed `BTreeSet` /
/// `BTreeMap` iterates in — and equality is one compare.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CycloidId(u32);

/// Bits `k < MAX_DIM` takes above the cubical ID.
const K_BITS: u32 = u8::BITS - (CycloidSpace::MAX_DIM - 1).leading_zeros();
const _: () = assert!(K_BITS + CycloidSpace::MAX_DIM as u32 <= u32::BITS);

impl CycloidId {
    /// Low-bit mask holding the cubical ID.
    const A_MASK: u32 = (1 << CycloidSpace::MAX_DIM) - 1;

    /// Packs `(k, a)`, both already in range for some dimension.
    const fn pack(k: u8, a: u32) -> Self {
        CycloidId(((k as u32) << CycloidSpace::MAX_DIM) | a)
    }

    /// The cyclic index.
    pub fn k(self) -> u8 {
        (self.0 >> CycloidSpace::MAX_DIM) as u8
    }

    /// The cubical ID.
    pub fn a(self) -> u32 {
        self.0 & Self::A_MASK
    }
}

impl fmt::Display for CycloidId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{:b})", self.k(), self.a())
    }
}

/// As the two-field struct printed: `CycloidId { k: 4, a: 186 }`.
impl fmt::Debug for CycloidId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CycloidId")
            .field("k", &self.k())
            .field("a", &self.a())
            .finish()
    }
}

/// As the two-field struct serialized: `{"k":4,"a":186}`.
impl Serialize for CycloidId {
    fn serialize_json(&self, out: &mut String) {
        #[derive(Serialize)]
        struct Fields {
            k: u8,
            a: u32,
        }
        Fields {
            k: self.k(),
            a: self.a(),
        }
        .serialize_json(out)
    }
}

/// A rectangle of Cycloid IDs: a fixed cyclic index and an inclusive
/// range of cubical IDs.
///
/// All entry and reverse regions in Cycloid take this shape (the free
/// low bits of the region definitions form an aligned, non-wrapping
/// block of cubical IDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
        id.k() == self.k && (self.a_lo..=self.a_hi).contains(&id.a())
    }

    /// Number of IDs in the region.
    pub fn id_count(&self) -> u64 {
        (self.a_hi - self.a_lo) as u64 + 1
    }
}

/// Which routing-table slot a hop should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// The cubical slot: flips bit `k`, descends to `k − 1`.
    Cubical,
    /// The cyclic slot: keeps bits `≥ k`, descends to `k − 1`.
    Cyclic,
}

/// The routing decision for one hop of the original Cycloid algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycloidSpace {
    dim: u8,
}

impl CycloidSpace {
    /// The largest supported dimension: a cubical ID takes `MAX_DIM`
    /// bits of a packed [`CycloidId`] and the cyclic index the rest.
    pub const MAX_DIM: u8 = 26;

    /// Creates a space of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= dim <=` [`MAX_DIM`](Self::MAX_DIM) (an ID
    /// must pack into a `u32`, and dimension 1 has no routable
    /// structure).
    pub fn new(dim: u8) -> Self {
        assert!(
            (2..=Self::MAX_DIM).contains(&dim),
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
        CycloidId::pack(k, a)
    }

    /// The cubical-major ring position of `id` (cycle `a` occupies the
    /// contiguous block `[a·d, a·d + d)`).
    pub fn lin(self, id: CycloidId) -> u64 {
        id.a() as u64 * self.dim as u64 + id.k() as u64
    }

    /// Inverse of [`CycloidSpace::lin`].
    ///
    /// # Panics
    ///
    /// Panics if `lin` is outside the ring.
    pub fn from_lin(self, lin: u64) -> CycloidId {
        assert!(lin < self.ring_size(), "ring position {lin} out of range");
        CycloidId::pack(
            (lin % self.dim as u64) as u8,
            (lin / self.dim as u64) as u32,
        )
    }

    /// The cyclic-major position of `id`, `k·2^d + a`: every region is
    /// one contiguous run of it ([`CycloidSpace::k_major_range`]).
    pub fn k_major(self, id: CycloidId) -> u64 {
        id.k() as u64 * self.cube_size() + id.a() as u64
    }

    /// The cyclic-major positions of `region`'s IDs, in cubical order.
    pub fn k_major_range(self, region: CycloidRegion) -> Range<u64> {
        let base = region.k as u64 * self.cube_size();
        base + region.a_lo as u64..base + region.a_hi as u64 + 1
    }

    /// The ID at cyclic-major position `bit` of `region`.
    pub fn in_region(self, region: CycloidRegion, bit: u64) -> CycloidId {
        let id = CycloidId::pack(region.k, (bit - region.k as u64 * self.cube_size()) as u32);
        debug_assert!(region.contains(id), "position {bit} is outside {region:?}");
        id
    }

    /// Draws a uniformly random ID.
    pub fn random_id<R: Rng>(self, rng: &mut R) -> CycloidId {
        self.from_lin(rng.gen_range(0..self.ring_size()))
    }

    /// The region the cubical slot of `id` may draw neighbors from, or
    /// `None` for `k = 0` nodes (which have no descending slots).
    pub fn cubical_region(self, id: CycloidId) -> Option<CycloidRegion> {
        if id.k() == 0 {
            return None;
        }
        let base = ((id.a() >> id.k()) ^ 1) << id.k();
        Some(CycloidRegion {
            k: id.k() - 1,
            a_lo: base,
            a_hi: base + (1 << id.k()) - 1,
        })
    }

    /// The region the cyclic slot of `id` may draw neighbors from, or
    /// `None` for `k = 0` nodes.
    pub fn cyclic_region(self, id: CycloidId) -> Option<CycloidRegion> {
        if id.k() == 0 {
            return None;
        }
        let base = (id.a() >> id.k()) << id.k();
        Some(CycloidRegion {
            k: id.k() - 1,
            a_lo: base,
            a_hi: base + (1 << id.k()) - 1,
        })
    }

    /// IDs whose **cubical** slot may point at `id` — what Algorithm 1
    /// probes first to expand indegree. `None` for `k = d − 1` nodes.
    pub fn reverse_cubical_region(self, id: CycloidId) -> Option<CycloidRegion> {
        if id.k() + 1 >= self.dim {
            return None;
        }
        let shift = id.k() + 1;
        let base = ((id.a() >> shift) ^ 1) << shift;
        Some(CycloidRegion {
            k: shift,
            a_lo: base,
            a_hi: base + (1 << shift) - 1,
        })
    }

    /// IDs whose **cyclic** slot may point at `id` — what Algorithm 1
    /// probes second. `None` for `k = d − 1` nodes.
    pub fn reverse_cyclic_region(self, id: CycloidId) -> Option<CycloidRegion> {
        if id.k() + 1 >= self.dim {
            return None;
        }
        let shift = id.k() + 1;
        let base = (id.a() >> shift) << shift;
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
        if cur.a() == key.a() {
            return RouteStep::Ring;
        }
        let m = 31 - (cur.a() ^ key.a()).leading_zeros(); // MSB of the diff
        if m as u8 > cur.k() {
            RouteStep::Ascend
        } else if cur.k() == 0 {
            // Only m == 0 reaches here: adjacent cycles, finish on ring.
            RouteStep::Ring
        } else if m as u8 == cur.k() {
            RouteStep::Entry(SlotKind::Cubical)
        } else {
            RouteStep::Entry(SlotKind::Cyclic)
        }
    }

    /// Whether a hop from `cur` toward `owner` is in the routing
    /// endgame: within `4·d` ring positions either way. That close the
    /// geometric phase has nothing useful left to fix (and, in sparse
    /// overlays, can oscillate around empty cycles), so the hop finishes
    /// on the monotone ring walk ([`CycloidSpace::ring_stride`]).
    pub fn ring_endgame(self, cur: CycloidId, owner: CycloidId) -> bool {
        let fwd = forward_distance(self.lin(cur), self.lin(owner), self.ring_size());
        fwd.min(self.ring_size() - fwd) <= 4 * self.dim as u64
    }

    /// The ring walk's hop from `from` toward `owner`: along the shorter
    /// direction, never past the owner.
    pub fn ring_stride(self, from: CycloidId, owner: CycloidId) -> RingStride {
        let from = self.lin(from);
        let fwd = forward_distance(from, self.lin(owner), self.ring_size());
        let bwd = self.ring_size() - fwd;
        RingStride {
            space: self,
            from,
            forward: fwd <= bwd,
            budget: fwd.min(bwd),
        }
    }

    /// Estimated remaining overlay distance from `from` to `key`:
    /// descending and ascending hops dominate (weighted by `4d`), with a
    /// sub-dominant ring-distance term so candidates in the same
    /// geometric class compare by ring closeness. Smaller is closer.
    pub fn logical_metric(self, from: CycloidId, key: CycloidId) -> u64 {
        if from == key {
            return 0;
        }
        let d = self.dim as u64;
        let fwd = forward_distance(self.lin(from), self.lin(key), self.ring_size());
        let ring = fwd.min(self.ring_size() - fwd);
        if from.a() == key.a() {
            return ring;
        }
        let m = (31 - (from.a() ^ key.a()).leading_zeros()) as u64;
        let ascend = m.saturating_sub(from.k() as u64);
        // Ring term scaled below 4d so it only breaks class ties.
        4 * d * (m + 1 + ascend) + ring * 4 * d / self.ring_size()
    }

    /// The cubical ID the classic Cycloid table aims `id`'s `kind` slot
    /// at: `a` with bit `k` flipped for the cubical slot, `a` itself for
    /// the cyclic one.
    pub fn classic_target(self, id: CycloidId, kind: SlotKind) -> u32 {
        match kind {
            SlotKind::Cubical => id.a() ^ (1u32 << id.k()),
            SlotKind::Cyclic => id.a(),
        }
    }

    /// The member whose cubical ID is nearest `ideal` around the cube,
    /// the first of them on ties: the classic Cycloid neighbour choice.
    pub fn nearest_cubical(
        self,
        members: impl IntoIterator<Item = CycloidId>,
        ideal: u32,
    ) -> Option<CycloidId> {
        members
            .into_iter()
            .min_by_key(|m| self.cube_dist(m.a(), ideal))
    }

    /// The classic pair of cyclic neighbours among `members`: the
    /// closest-larger and the closest-smaller cubical ID relative to `a`
    /// going round the cube, the first of them on ties, the second never
    /// the first. `None` when there are no members.
    pub fn cyclic_pair(
        self,
        members: impl Iterator<Item = CycloidId> + Clone,
        a: u32,
    ) -> Option<(CycloidId, Option<CycloidId>)> {
        let cube = self.cube_size();
        let larger = members
            .clone()
            .min_by_key(|m| forward_distance(a as u64, m.a() as u64, cube))?;
        let smaller = members
            .filter(|&m| m != larger)
            .min_by_key(|m| forward_distance(m.a() as u64, a as u64, cube));
        Some((larger, smaller))
    }
}

/// One hop of the ring walk ([`CycloidSpace::ring_stride`]): which way
/// it goes and which IDs it may land on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStride {
    space: CycloidSpace,
    /// Ring position of the node the hop leaves.
    from: u64,
    forward: bool,
    /// Ring distance to the owner the short way round.
    budget: u64,
}

impl RingStride {
    /// Whether the walk goes clockwise, toward successors.
    pub fn forward(&self) -> bool {
        self.forward
    }

    /// Whether a hop to `x` moves strictly toward the owner without
    /// overshooting it.
    pub fn admits(&self, x: CycloidId) -> bool {
        let (x, size) = (self.space.lin(x), self.space.ring_size());
        let d = match self.forward {
            true => forward_distance(self.from, x, size),
            false => forward_distance(x, self.from, size),
        };
        d > 0 && d <= self.budget
    }
}

/// One bit per ID of the space under some linear order, with the range
/// scans both registry indexes are queried through, and the range
/// count and select a uniform draw over the set bits of a range needs.
///
/// ```
/// use ert_overlay::Bitmap;
/// let mut bits = Bitmap::new(200);
/// for bit in [3, 64, 70, 199] {
///     bits.set(bit, true);
/// }
/// assert_eq!(bits.count_ones(4, 200), 3);
/// assert_eq!(bits.select(4, 200, 1), Some(70));
/// assert_eq!(bits.select(4, 199, 2), None);
/// ```
#[derive(Debug, Clone)]
pub struct Bitmap {
    words: Vec<u64>,
}

/// The bits of `word` (the one holding bits `base..base + 64`) that lie
/// in `from..end`.
fn in_range(word: u64, base: u64, from: u64, end: u64) -> u64 {
    let low = from.saturating_sub(base);
    let high = end.saturating_sub(base);
    let above_low = if low >= 64 { 0 } else { !0 << low };
    let below_high = if high >= 64 { !0 } else { (1 << high) - 1 };
    word & above_low & below_high
}

impl Bitmap {
    /// `bits` clear bits.
    pub fn new(bits: u64) -> Self {
        Bitmap {
            words: vec![0; bits.div_ceil(64) as usize],
        }
    }

    /// Whether `bit` is set.
    pub fn get(&self, bit: u64) -> bool {
        self.words[(bit / 64) as usize] & (1 << (bit % 64)) != 0
    }

    /// Sets `bit` to `live`.
    pub fn set(&mut self, bit: u64, live: bool) {
        let word = &mut self.words[(bit / 64) as usize];
        match live {
            true => *word |= 1 << (bit % 64),
            false => *word &= !(1 << (bit % 64)),
        }
    }

    /// The bits of `from..end` that are set (`flip` = 0) or clear
    /// (`flip` = `!0`), ascending. `end` bounds every answer, so the
    /// padding bits of the last word are never reported as clear.
    fn scan(&self, from: u64, end: u64, flip: u64) -> impl Iterator<Item = u64> + '_ {
        let mut at = (from / 64) as usize;
        let first = self.words.get(at);
        let mut word = first.map_or(0, |w| (w ^ flip) & (!0 << (from % 64)));
        std::iter::from_fn(move || {
            while word == 0 {
                at += 1;
                word = self.words.get(at).filter(|_| (at as u64) * 64 < end)? ^ flip;
            }
            let bit = at as u64 * 64 + word.trailing_zeros() as u64;
            word &= word - 1;
            (bit < end).then_some(bit)
        })
    }

    /// The set bits of `from..end`, ascending.
    fn ones(&self, from: u64, end: u64) -> impl Iterator<Item = u64> + '_ {
        self.scan(from, end, 0)
    }

    /// The highest set bit of `from..end`.
    fn last(&self, from: u64, end: u64) -> Option<u64> {
        let last = end.checked_sub(1).filter(|&last| last >= from)?;
        let mut at = (last / 64) as usize;
        let mut word = self.words.get(at)? & (!0 >> (63 - last % 64));
        while word == 0 {
            at = at
                .checked_sub(1)
                .filter(|&at| (at as u64 + 1) * 64 > from)?;
            word = self.words[at];
        }
        let bit = at as u64 * 64 + 63 - word.leading_zeros() as u64;
        (bit >= from).then_some(bit)
    }

    /// The set bits of `from..end`, descending.
    fn ones_rev(&self, from: u64, mut end: u64) -> impl Iterator<Item = u64> + '_ {
        std::iter::from_fn(move || {
            let bit = self.last(from, end)?;
            end = bit;
            Some(bit)
        })
    }

    /// The words that hold bits of `from..end`, each with its first bit
    /// and cut to the range.
    fn range_words(&self, from: u64, end: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let last = (end.div_ceil(64) as usize).min(self.words.len());
        let words = self
            .words
            .get((from / 64) as usize..last)
            .unwrap_or_default();
        let first = from / 64 * 64;
        (first..).step_by(64).zip(words).map(move |(base, &word)| {
            let word = in_range(word, base, from, end);
            (base, word)
        })
    }

    /// Number of set bits in `from..end`: one popcount per word.
    pub fn count_ones(&self, from: u64, end: u64) -> u64 {
        if from >= end {
            return 0;
        }
        let words = self.range_words(from, end);
        words.map(|(_, word)| u64::from(word.count_ones())).sum()
    }

    /// The `i`-th set bit of `from..end` in ascending order (0-based),
    /// or `None` when the range holds `i` or fewer: a popcount per word
    /// up to the one that holds it, then a walk of that word.
    pub fn select(&self, from: u64, end: u64, mut i: u64) -> Option<u64> {
        if from >= end {
            return None;
        }
        for (base, mut word) in self.range_words(from, end) {
            let ones = u64::from(word.count_ones());
            if i < ones {
                for _ in 0..i {
                    word &= word - 1;
                }
                return Some(base + u64::from(word.trailing_zeros()));
            }
            i -= ones;
        }
        None
    }
}

/// The set of live Cycloid IDs, with the ring / cycle / region queries
/// the protocol needs.
///
/// Internally two bitmaps are kept, one bit per ID of the space each: a
/// cubical-major one (the global ring, so successor / owner / window
/// queries are a word scan forward or backward from a ring position)
/// and a cyclic-major one (so entry regions — a fixed `k` with a
/// cubical range — are contiguous bit ranges, and the nearest member to
/// either side of a cubical ID is the same word scan). No query walks a
/// tree and none allocates but [`CycloidRegistry::nodes_in_region`].
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
    /// Ring order: bit `a·d + k` (`space.lin`) is set while `(k, a)` is
    /// live.
    ring: Bitmap,
    /// Region order: bit `k·2^d + a` is set while `(k, a)` is live.
    k_major: Bitmap,
    /// Number of live IDs (set bits of either bitmap).
    live: usize,
}

impl CycloidRegistry {
    /// Creates an empty registry over `space`.
    pub fn new(space: CycloidSpace) -> Self {
        CycloidRegistry {
            space,
            ring: Bitmap::new(space.ring_size()),
            k_major: Bitmap::new(space.ring_size()),
            live: 0,
        }
    }

    /// The underlying ID space.
    pub fn space(&self) -> CycloidSpace {
        self.space
    }

    /// Adds `id`; returns `false` if it was already present.
    pub fn insert(&mut self, id: CycloidId) -> bool {
        let fresh = !self.contains(id);
        if fresh {
            self.ring.set(self.space.lin(id), true);
            self.k_major.set(self.space.k_major(id), true);
            self.live += 1;
        }
        fresh
    }

    /// Removes `id`; returns `false` if it was not present.
    pub fn remove(&mut self, id: CycloidId) -> bool {
        let had = self.contains(id);
        if had {
            self.ring.set(self.space.lin(id), false);
            self.k_major.set(self.space.k_major(id), false);
            self.live -= 1;
        }
        had
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: CycloidId) -> bool {
        self.ring.get(self.space.lin(id))
    }

    /// Number of live IDs.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The live IDs at ring positions `from..end`, in ring order.
    fn ring_members(&self, from: u64, end: u64) -> impl Iterator<Item = CycloidId> + '_ {
        self.ring
            .ones(from, end)
            .map(move |lin| self.space.from_lin(lin))
    }

    /// Iterates over all live IDs in ring order.
    pub fn iter(&self) -> impl Iterator<Item = CycloidId> + '_ {
        self.ring_members(0, self.space.ring_size())
    }

    /// First live ID at or after ring position `lin`, wrapping.
    fn at_or_after(&self, lin: u64) -> Option<CycloidId> {
        let size = self.space.ring_size();
        let next = self.ring.ones(lin, size).next();
        let next = next.or_else(|| self.ring.ones(0, lin).next());
        next.map(|l| self.space.from_lin(l))
    }

    /// Last live ID before ring position `lin`, wrapping.
    fn before(&self, lin: u64) -> Option<CycloidId> {
        let prev = self.ring.last(0, lin);
        let prev = prev.or_else(|| self.ring.last(lin, self.space.ring_size()));
        prev.map(|l| self.space.from_lin(l))
    }

    /// First live ID at or after `key` on the ring (wrapping): the owner
    /// of the key. `None` when the registry is empty.
    pub fn owner(&self, key: CycloidId) -> Option<CycloidId> {
        self.at_or_after(self.space.lin(key))
    }

    /// First live ID strictly after `id` on the ring (wrapping). Returns
    /// `id` itself when it is the only member; `None` when empty.
    pub fn successor(&self, id: CycloidId) -> Option<CycloidId> {
        self.at_or_after(self.space.lin(id) + 1)
    }

    /// First live ID strictly before `id` on the ring (wrapping).
    /// Returns `id` itself when it is the only member; `None` when empty.
    pub fn predecessor(&self, id: CycloidId) -> Option<CycloidId> {
        self.before(self.space.lin(id))
    }

    /// The cubical IDs in `lo..hi` that are live at cyclic index `k`,
    /// in order.
    fn cubicals(&self, k: u8, lo: u32, hi: u32) -> impl Iterator<Item = u32> + '_ {
        let base = k as u64 * self.space.cube_size();
        self.k_major
            .ones(base + lo as u64, base + hi as u64)
            .map(move |bit| (bit - base) as u32)
    }

    /// The largest cubical ID in `lo..hi` that is live at cyclic index
    /// `k`.
    fn last_cubical(&self, k: u8, lo: u32, hi: u32) -> Option<u32> {
        let base = k as u64 * self.space.cube_size();
        let bit = self.k_major.last(base + lo as u64, base + hi as u64)?;
        Some((bit - base) as u32)
    }

    /// The live members of a region, in cubical order.
    pub fn nodes_in_region(&self, region: CycloidRegion) -> Vec<CycloidId> {
        self.cubicals(region.k, region.a_lo, region.a_hi + 1)
            .map(|a| CycloidId::pack(region.k, a))
            .collect()
    }

    /// Number of live members of a region.
    pub fn region_population(&self, region: CycloidRegion) -> usize {
        let bits = self.space.k_major_range(region);
        self.k_major.count_ones(bits.start, bits.end) as usize
    }

    /// The `i`-th live member of a region in cubical order (0-based):
    /// `nodes_in_region(region).get(i)` without the list.
    pub fn nth_in_region(&self, region: CycloidRegion, i: usize) -> Option<CycloidId> {
        let bits = self.space.k_major_range(region);
        let bit = self.k_major.select(bits.start, bits.end, i as u64)?;
        Some(self.space.in_region(region, bit))
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
    pub fn cycle_above(&self, id: CycloidId) -> impl Iterator<Item = CycloidId> + '_ {
        let dim = self.space.dim() as u64;
        self.ring_members(self.space.lin(id) + 1, (id.a() as u64 + 1) * dim)
    }

    /// The ascending phase's targets from `id`: the live members of its
    /// own cycle above it, nearest first, or — at the top of its cycle —
    /// the head of the next non-empty cycle (Cycloid's outside leaf
    /// set). Always moving forward keeps the head-walk monotone, so it
    /// cannot bounce between two cycles. Empty when neither exists.
    pub fn ascend_targets(&self, id: CycloidId) -> impl Iterator<Item = CycloidId> + '_ {
        let mut above = self.cycle_above(id).peekable();
        let head = match above.peek() {
            Some(_) => None,
            None => self.next_cycle_head(id).filter(|&head| head != id),
        };
        above.chain(head)
    }

    /// The next `window` live IDs strictly after `id` on the ring
    /// (wrapping, excluding `id`), nearest first.
    pub fn succ_window(
        &self,
        id: CycloidId,
        window: usize,
    ) -> impl Iterator<Item = CycloidId> + '_ {
        let lin = self.space.lin(id);
        let after = self.ring_members(lin + 1, self.space.ring_size());
        after.chain(self.ring_members(0, lin)).take(window)
    }

    /// The previous `window` live IDs strictly before `id` on the ring
    /// (wrapping, excluding `id`), nearest first.
    pub fn pred_window(
        &self,
        id: CycloidId,
        window: usize,
    ) -> impl Iterator<Item = CycloidId> + '_ {
        self.preds(id).take(window)
    }

    /// Every live ID but `id`, walking the ring backwards from it.
    fn preds(&self, id: CycloidId) -> impl Iterator<Item = CycloidId> + '_ {
        let lin = self.space.lin(id);
        let before = self.ring.ones_rev(0, lin);
        let wrapped = self.ring.ones_rev(lin + 1, self.space.ring_size());
        before.chain(wrapped).map(|l| self.space.from_lin(l))
    }

    /// The highest-`k` member of a cycle (its "head"), or `None` for an
    /// empty cycle. Cycloid's outside leaf sets point at the heads of
    /// the adjacent cycles.
    pub fn cycle_head(&self, a: u32) -> Option<CycloidId> {
        let dim = self.space.dim() as u64;
        let head = self.ring.last(a as u64 * dim, (a as u64 + 1) * dim);
        head.map(|l| self.space.from_lin(l))
    }

    /// The head of the first non-empty cycle after `id`'s own (wrapping),
    /// or `None` when `id`'s cycle is the only populated one.
    pub fn next_cycle_head(&self, id: CycloidId) -> Option<CycloidId> {
        let dim = self.space.dim() as u64;
        let first_elsewhere = self.at_or_after((id.a() as u64 + 1) * dim)?;
        if first_elsewhere.a() == id.a() {
            return None;
        }
        self.cycle_head(first_elsewhere.a())
    }

    /// The head of the first non-empty cycle before `id`'s own
    /// (wrapping), or `None` when `id`'s cycle is the only populated one.
    pub fn prev_cycle_head(&self, id: CycloidId) -> Option<CycloidId> {
        // The last member before `id`'s cycle is the highest of its own.
        self.before(id.a() as u64 * self.space.dim() as u64)
            .filter(|head| head.a() != id.a())
    }

    /// Clockwise ring distance from `from` to `to`.
    pub fn forward_dist(&self, from: CycloidId, to: CycloidId) -> u64 {
        forward_distance(
            self.space.lin(from),
            self.space.lin(to),
            self.space.ring_size(),
        )
    }

    /// Draws a random *vacant* ID, or `None` (drawing nothing) if the
    /// space is full: uniform over the vacant IDs while 128 rejection
    /// draws find one, else the first gap at or after one more random
    /// point, wrapping.
    pub fn random_vacant<R: Rng>(&self, rng: &mut R) -> Option<CycloidId> {
        let size = self.space.ring_size();
        if self.live as u64 >= size {
            return None;
        }
        for _ in 0..128 {
            let lin = rng.gen_range(0..size);
            if !self.ring.get(lin) {
                return Some(self.space.from_lin(lin));
            }
        }
        let start = rng.gen_range(0..size);
        let gap = self.ring.scan(start, size, !0).next();
        let gap = gap.or_else(|| self.ring.scan(0, start, !0).next());
        gap.map(|lin| self.space.from_lin(lin))
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
        let dist = |m: u32| self.registry.space.cube_dist(m, self.node.a());
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
        let k = node.k() + 1;
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
                            return Some((Some(SlotKind::Cubical), CycloidId::pack(k, a)));
                        }
                        None => InlinkCursor::Cyclic {
                            lo: node.a() + 1,
                            hi: node.a() + 1,
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
                            return Some((Some(SlotKind::Cyclic), CycloidId::pack(k, a)));
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
    use ert_sim::SimRng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;
    use std::collections::BTreeSet;
    use std::ops::Range;

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

    /// The identifier as it was before it was packed: two fields, every
    /// trait but `Display` derived.
    mod two_field {
        use serde::Serialize;
        use std::fmt;

        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
        pub struct CycloidId {
            pub k: u8,
            pub a: u32,
        }

        impl fmt::Display for CycloidId {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "({},{:b})", self.k, self.a)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Every dimension, the four corners of its ID space and random
        /// IDs of it: the packed ID compares, prints, serializes, sits
        /// on the ring and iterates in a set as the two-field struct it
        /// replaced does.
        #[test]
        fn packed_id_agrees_with_the_two_field_model(
            dim in 2u8..CycloidSpace::MAX_DIM + 1,
            draws in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 0..24),
        ) {
            let space = CycloidSpace::new(dim);
            let top = space.cube_size() as u32 - 1;
            let corners = [(0, 0), (0, top), (dim - 1, 0), (dim - 1, top)];
            let draws = draws.iter().map(|&(k, a)| ((k % dim as u32) as u8, a & top));
            let pairs: Vec<(CycloidId, two_field::CycloidId)> = corners
                .into_iter()
                .chain(draws)
                .map(|(k, a)| (space.id(k, a), two_field::CycloidId { k, a }))
                .collect();
            for &(id, model) in &pairs {
                assert_eq!((id.k(), id.a()), (model.k, model.a));
                assert_eq!(id.to_string(), model.to_string());
                assert_eq!(format!("{id:?}"), format!("{model:?}"));
                assert_eq!(serde::json::to_string(&id), serde::json::to_string(&model));
                let lin = space.lin(id);
                assert_eq!(lin, model.a as u64 * dim as u64 + model.k as u64);
                assert_eq!(space.from_lin(lin), id);
                for &(other, other_model) in &pairs {
                    let ord = model.cmp(&other_model);
                    assert_eq!(id.cmp(&other), ord, "{model:?} vs {other_model:?}");
                    assert_eq!(id == other, model == other_model);
                }
            }
            let set: BTreeSet<CycloidId> = pairs.iter().map(|p| p.0).collect();
            let model_set: BTreeSet<two_field::CycloidId> = pairs.iter().map(|p| p.1).collect();
            let unpacked = set.iter().map(|id| (id.k(), id.a()));
            assert!(unpacked.eq(model_set.iter().map(|m| (m.k, m.a))));
        }
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
                let base = k as u64 * s.cube_size();
                let (from, end) = (base + lo as u64, base + hi as u64);
                assert_eq!(reg.k_major.count_ones(from, end), live.len() as u64);
                for (i, &a) in live.iter().enumerate() {
                    assert_eq!(
                        reg.k_major.select(from, end, i as u64),
                        Some(base + a as u64)
                    );
                }
                assert_eq!(reg.k_major.select(from, end, live.len() as u64), None);
            }
            // Every entry region of every ID, counted and indexed.
            for lin in 0..s.ring_size() {
                let id = s.from_lin(lin);
                for region in [s.cubical_region(id), s.cyclic_region(id)]
                    .into_iter()
                    .flatten()
                {
                    let members = reg.nodes_in_region(region);
                    assert_eq!(reg.region_population(region), members.len());
                    for i in 0..=members.len() {
                        assert_eq!(reg.nth_in_region(region, i), members.get(i).copied());
                    }
                }
            }
        }
    }

    /// The ring index as it was before the bitmap — a sorted set of ring
    /// positions — with every ring query as it was written over it.
    struct RingModel {
        space: CycloidSpace,
        live: BTreeSet<u64>,
    }

    /// A registry and its model, both holding the ring positions `lins`.
    fn ring_of(
        space: CycloidSpace,
        lins: impl Iterator<Item = u64>,
    ) -> (CycloidRegistry, RingModel) {
        let mut reg = CycloidRegistry::new(space);
        let live: BTreeSet<u64> = lins.collect();
        for &lin in &live {
            assert!(reg.insert(space.from_lin(lin)));
        }
        (reg, RingModel { space, live })
    }

    impl RingModel {
        fn ids<'a>(&self, lins: impl Iterator<Item = &'a u64>) -> Vec<CycloidId> {
            lins.map(|&l| self.space.from_lin(l)).collect()
        }

        fn at_or_after(&self, lin: u64) -> Option<CycloidId> {
            let next = self.live.range(lin..).next();
            let next = next.or_else(|| self.live.iter().next());
            next.map(|&l| self.space.from_lin(l))
        }

        fn before(&self, lin: u64) -> Option<CycloidId> {
            let prev = self.live.range(..lin).next_back();
            let prev = prev.or_else(|| self.live.iter().next_back());
            prev.map(|&l| self.space.from_lin(l))
        }

        fn cycle(&self, a: u32) -> Range<u64> {
            let dim = self.space.dim() as u64;
            a as u64 * dim..(a as u64 + 1) * dim
        }

        fn cycle_head(&self, a: u32) -> Option<CycloidId> {
            let head = self.live.range(self.cycle(a)).next_back();
            head.map(|&l| self.space.from_lin(l))
        }

        fn next_cycle_head(&self, id: CycloidId) -> Option<CycloidId> {
            let elsewhere = self.at_or_after(self.cycle(id.a()).end)?;
            (elsewhere.a() != id.a()).then(|| self.cycle_head(elsewhere.a()))?
        }

        fn prev_cycle_head(&self, id: CycloidId) -> Option<CycloidId> {
            let elsewhere = self.before(self.cycle(id.a()).start)?;
            (elsewhere.a() != id.a()).then(|| self.cycle_head(elsewhere.a()))?
        }

        fn succs(&self, id: CycloidId) -> Vec<CycloidId> {
            let lin = self.space.lin(id);
            self.ids(self.live.range(lin + 1..).chain(self.live.range(..lin)))
        }

        fn preds(&self, id: CycloidId) -> Vec<CycloidId> {
            let lin = self.space.lin(id);
            let (before, wrapped) = (self.live.range(..lin), self.live.range(lin + 1..));
            self.ids(before.rev().chain(wrapped.rev()))
        }

        /// `random_vacant` over the set: 128 rejection draws, then a
        /// `contains`-per-ID walk from one more random point.
        fn random_vacant(&self, rng: &mut SimRng) -> Option<CycloidId> {
            let size = self.space.ring_size();
            if self.live.len() as u64 >= size {
                return None;
            }
            for _ in 0..128 {
                let lin = rng.gen_range(0..size);
                if !self.live.contains(&lin) {
                    return Some(self.space.from_lin(lin));
                }
            }
            let start = rng.gen_range(0..size);
            let gap = (start..size)
                .chain(0..start)
                .find(|l| !self.live.contains(l));
            gap.map(|lin| self.space.from_lin(lin))
        }
    }

    /// Every public ring query of `reg` against the model, for every ID
    /// of the space, and `random_vacant` on the streams from `seed` on.
    fn assert_ring_matches(reg: &CycloidRegistry, model: &RingModel, seed: u64) {
        let space = model.space;
        assert_eq!(reg.len(), model.live.len());
        assert_eq!(reg.is_empty(), model.live.is_empty());
        // Ascending, as the set iterates.
        assert_eq!(reg.iter().collect::<Vec<_>>(), model.ids(model.live.iter()));
        for lin in 0..space.ring_size() {
            let id = space.from_lin(lin);
            assert_eq!(reg.contains(id), model.live.contains(&lin), "{id}");
            assert_eq!(reg.owner(id), model.at_or_after(lin), "owner of {id}");
            assert_eq!(reg.successor(id), model.at_or_after(lin + 1), "{id}");
            assert_eq!(reg.predecessor(id), model.before(lin), "{id}");
            let above = model.ids(model.live.range(lin + 1..model.cycle(id.a()).end));
            assert_eq!(reg.cycle_above(id).collect::<Vec<_>>(), above, "{id}");
            assert_eq!(reg.cycle_head(id.a()), model.cycle_head(id.a()), "{id}");
            assert_eq!(reg.next_cycle_head(id), model.next_cycle_head(id), "{id}");
            assert_eq!(reg.prev_cycle_head(id), model.prev_cycle_head(id), "{id}");
            let (succs, preds) = (model.succs(id), model.preds(id));
            for window in [0, 4, succs.len() + 3] {
                let cut = window.min(succs.len());
                let got: Vec<_> = reg.succ_window(id, window).collect();
                assert_eq!(got, succs[..cut], "{window} after {id}");
                let got: Vec<_> = reg.pred_window(id, window).collect();
                assert_eq!(got, preds[..cut], "{window} before {id}");
            }
            // The ring phase of Algorithm 1's scan is the window before.
            let ring = InlinkCursor::Ring { taken: 0 };
            let got: Vec<_> = reg.inlink_scan(id, 5, ring).collect();
            let want: Vec<_> = preds.iter().take(5).map(|&p| (None, p)).collect();
            assert_eq!(got, want, "ring phase of {id}");
        }
        // A few streams each time: a nearly full space sends most of
        // them past the 128 draws into the gap scan.
        assert_random_vacant_matches(reg, model, seed..seed + 8);
    }

    /// `random_vacant` against the model on each stream of `seeds`: the
    /// same ID, and the same draws taken — none at all from a full
    /// space.
    fn assert_random_vacant_matches(reg: &CycloidRegistry, model: &RingModel, seeds: Range<u64>) {
        for seed in seeds {
            let mut rng = SimRng::seed_from(seed);
            let mut model_rng = rng.clone();
            let got = reg.random_vacant(&mut rng);
            assert_eq!(got, model.random_vacant(&mut model_rng), "seed {seed}");
            assert_eq!(rng.gen::<u64>(), model_rng.gen::<u64>(), "seed {seed}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// Random joins and departures from an empty, one-member, sparse,
        /// dense or full space: after every step the ring bitmap answers
        /// every query as the sorted set it replaced does.
        #[test]
        fn ring_bitmap_matches_a_sorted_set_model(
            dim in 3u8..7,
            start in 0u8..5,
            seed in 0u64..1000,
            // A position of the space as a fraction of it, and which
            // way to push it: most steps undo what the start state is
            // full (or empty) of.
            ops in proptest::collection::vec((0.0f64..1.0, 0u8..4), 1..16),
        ) {
            let space = CycloidSpace::new(dim);
            let size = space.ring_size();
            let mut rng = SimRng::seed_from(seed);
            let fill = [0.0, 0.0, 0.35, 0.9, 1.0][start as usize];
            let lone = (start == 1).then_some(seed % size);
            let members = (0..size).filter(|&lin| rng.gen::<f64>() < fill || lone == Some(lin));
            let (mut reg, mut model) = ring_of(space, members);
            assert_ring_matches(&reg, &model, seed);
            for (step, (at, push)) in ops.into_iter().enumerate() {
                let lin = (at * size as f64) as u64;
                let join = match push {
                    0 => true,
                    1 => false,
                    _ => fill < 0.5,
                };
                match join {
                    true => assert_eq!(reg.insert(space.from_lin(lin)), model.live.insert(lin)),
                    false => assert_eq!(reg.remove(space.from_lin(lin)), model.live.remove(&lin)),
                }
                assert_ring_matches(&reg, &model, seed + step as u64);
            }
        }
    }

    #[test]
    fn random_vacant_gap_scan_skips_the_padding_of_a_partial_word() {
        // 24 and 160 IDs: the last word of the bitmap has clear bits
        // past the end of the space that are no vacancy. One real
        // vacancy low in the ring, so most scans for it wrap.
        for dim in [3, 5] {
            let space = CycloidSpace::new(dim);
            let size = space.ring_size();
            let (reg, model) = ring_of(space, (0..size).filter(|&lin| lin != 2));
            assert_random_vacant_matches(&reg, &model, 0..1500);
            // Some of those streams drew 128 members and then a start
            // point past the vacancy.
            let scans = (0..1500).filter(|&seed| {
                let mut rng = SimRng::seed_from(seed);
                let mut draw = || rng.gen_range(0..size);
                (0..128).all(|_| draw() != 2) && draw() > 2
            });
            let scans = scans.count();
            assert!(scans > 0, "dim {dim}: no seed reached the wrapped gap scan");
        }
    }

    #[test]
    fn ring_endgame_stride_and_ascend_targets() {
        let s = CycloidSpace::new(4); // ring of 64
        let (me, near, far) = (s.from_lin(10), s.from_lin(26), s.from_lin(27));
        assert!(s.ring_endgame(me, near) && !s.ring_endgame(me, far));
        assert!(s.ring_endgame(near, me), "either way round");
        // Forward to 20: 11..=20 admitted, nothing past it or behind.
        let stride = s.ring_stride(me, s.from_lin(20));
        assert!(stride.forward());
        let admitted: Vec<u64> = (0..64).filter(|&l| stride.admits(s.from_lin(l))).collect();
        assert_eq!(admitted, (11..=20).collect::<Vec<_>>());
        // Backward to 60 (14 back, 50 forward), wrapping past zero.
        let back = s.ring_stride(me, s.from_lin(60));
        assert!(!back.forward());
        let admitted: Vec<u64> = (0..64).filter(|&l| back.admits(s.from_lin(l))).collect();
        assert_eq!(admitted, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 60, 61, 62, 63]);
        let mut reg = CycloidRegistry::new(s);
        for id in [s.id(0, 9), s.id(2, 9), s.id(1, 12)] {
            reg.insert(id);
        }
        let up: Vec<_> = reg.ascend_targets(s.id(0, 9)).collect();
        assert_eq!(up, [s.id(2, 9)]);
        // The top of a cycle ascends at the next cycle's head.
        let up: Vec<_> = reg.ascend_targets(s.id(2, 9)).collect();
        assert_eq!(up, [s.id(1, 12)]);
        let mut lone = CycloidRegistry::new(s);
        lone.insert(s.id(1, 3));
        assert_eq!(lone.ascend_targets(s.id(1, 3)).next(), None);
    }

    #[test]
    fn cycle_above_and_windows() {
        let s = CycloidSpace::new(4);
        let mut reg = CycloidRegistry::new(s);
        for k in [0u8, 1, 3] {
            reg.insert(s.id(k, 9));
        }
        reg.insert(s.id(2, 10));
        let above: Vec<_> = reg.cycle_above(s.id(0, 9)).collect();
        assert_eq!(above, vec![s.id(1, 9), s.id(3, 9)]);
        assert_eq!(reg.cycle_above(s.id(3, 9)).next(), None);
        let succ: Vec<_> = reg.succ_window(s.id(3, 9), 2).collect();
        assert_eq!(succ, vec![s.id(2, 10), s.id(0, 9)]);
        let pred: Vec<_> = reg.pred_window(s.id(0, 9), 5).collect();
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
