//! The Pastry overlay (prefix routing), whose table geometry Tapestry
//! shares.
//!
//! A Pastry ID is a string of `rows` digits of `2^b` values each. The
//! entry at row `m`, column `D` of node `x`'s table may hold any node
//! sharing `x`'s first `m` digits whose digit `m` equals `D ≠ x_m` — a
//! *region* by construction, so Pastry needs no loosening for the
//! elastic table. The reverse direction (Section 3.2): node `i` may be
//! taken as a row-`m` entry by any node sharing its first `m` digits but
//! differing at digit `m`.

use rand::Rng;

use crate::members::RingMembers;
use crate::ring::shortest_distance;

/// The Pastry identifier space: `rows` digits of `bits_per_digit` bits.
///
/// ```
/// use ert_overlay::PastrySpace;
/// // The paper's Fig. 3 setting: 8 digits, base 4.
/// let space = PastrySpace::new(8, 2);
/// let node = space.id_from_digits(&[1, 0, 2, 3, 3, 1, 0, 2]);
/// assert_eq!(space.digit(node, 0), 1);
/// assert_eq!(space.digit(node, 7), 2);
/// // Row-2 column-0 entries share prefix "10" and continue with 0.
/// let (lo, hi) = space.row_region(node, 2, 0).unwrap();
/// assert_eq!(space.digit(lo, 2), 0);
/// assert_eq!(hi - lo + 1, 4u64.pow(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PastrySpace {
    rows: u8,
    bits_per_digit: u8,
}

impl PastrySpace {
    /// Creates a space of `rows` digits, each of `bits_per_digit` bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits_per_digit <= 4`, `rows >= 2`, and the
    /// total ID width is at most 62 bits.
    pub fn new(rows: u8, bits_per_digit: u8) -> Self {
        assert!((1..=4).contains(&bits_per_digit), "unsupported digit width");
        assert!(rows >= 2, "need at least two digit rows");
        assert!((rows as u32) * (bits_per_digit as u32) <= 62, "id too wide");
        PastrySpace {
            rows,
            bits_per_digit,
        }
    }

    /// Number of digit rows.
    pub fn rows(self) -> u8 {
        self.rows
    }

    /// Number of columns per row, `2^b`.
    pub fn base(self) -> u64 {
        1u64 << self.bits_per_digit
    }

    /// Total IDs, `base^rows`.
    pub fn ring_size(self) -> u64 {
        1u64 << (self.rows as u32 * self.bits_per_digit as u32)
    }

    /// Draws a uniformly random ID.
    pub fn random_id<R: Rng>(self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.ring_size())
    }

    /// The `row`-th digit of `id` (row 0 is the most significant).
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows` or `id` is outside the space.
    pub fn digit(self, id: u64, row: u8) -> u64 {
        assert!(row < self.rows, "row {row} out of range");
        assert!(id < self.ring_size(), "id out of range");
        let shift = (self.rows - 1 - row) as u32 * self.bits_per_digit as u32;
        (id >> shift) & (self.base() - 1)
    }

    /// Builds an ID from its digits (most significant first).
    ///
    /// # Panics
    ///
    /// Panics if the digit count or any digit value is out of range.
    pub fn id_from_digits(self, digits: &[u64]) -> u64 {
        assert_eq!(digits.len(), self.rows as usize, "wrong digit count");
        digits.iter().fold(0u64, |acc, &d| {
            assert!(d < self.base(), "digit {d} out of range");
            (acc << self.bits_per_digit) | d
        })
    }

    /// Number of leading digits `x` and `y` share.
    pub fn shared_prefix_len(self, x: u64, y: u64) -> u8 {
        for row in 0..self.rows {
            if self.digit(x, row) != self.digit(y, row) {
                return row;
            }
        }
        self.rows
    }

    /// The inclusive ID span of the entry at `(row, col)` of `node`'s
    /// table: IDs sharing `node`'s first `row` digits with digit `row`
    /// equal to `col`. `None` when `col` is `node`'s own digit (that cell
    /// is the node itself in Pastry's table layout).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn row_region(self, node: u64, row: u8, col: u64) -> Option<(u64, u64)> {
        assert!(col < self.base(), "column {col} out of range");
        if self.digit(node, row) == col {
            return None;
        }
        let suffix_bits = (self.rows - 1 - row) as u32 * self.bits_per_digit as u32;
        let prefix = node >> (suffix_bits + self.bits_per_digit as u32);
        let lo = ((prefix << self.bits_per_digit) | col) << suffix_bits;
        let hi = lo + (1u64 << suffix_bits) - 1;
        Some((lo, hi))
    }

    /// The spans of IDs that may take `node` as a row-`m` entry: all
    /// nodes sharing `node`'s first `m` digits but differing at digit
    /// `m`. One span per foreign column, so `base − 1` spans.
    pub fn reverse_row_regions(self, node: u64, row: u8) -> Vec<(u64, u64)> {
        self.reverse_row_spans(node, row).collect()
    }

    /// [`PastrySpace::reverse_row_regions`] without collecting: the
    /// spans in ascending column (and so ascending ID) order. Taking
    /// `node` as a row-`row` entry is legal exactly for the nodes whose
    /// own row-`row` cells are `node`'s siblings, so these are `node`'s
    /// own foreign row regions.
    pub fn reverse_row_spans(self, node: u64, row: u8) -> impl Iterator<Item = (u64, u64)> {
        (0..self.base()).filter_map(move |col| self.row_region(node, row, col))
    }

    /// The table cell prefix routing uses from `cur` toward `key`:
    /// `(row, col)` where `row` is the shared-prefix length. `None` when
    /// `cur == key`.
    pub fn route_cell(self, cur: u64, key: u64) -> Option<(u8, u64)> {
        let row = self.shared_prefix_len(cur, key);
        if row == self.rows {
            None
        } else {
            Some((row, self.digit(key, row)))
        }
    }
}

/// The set of live Pastry IDs, kept as one sorted slice
/// ([`RingMembers`]). A key is owned by the *numerically closest* live
/// node (ties to the lower ID), per Pastry's semantics.
#[derive(Debug, Clone)]
pub struct PastryRegistry {
    space: PastrySpace,
    members: RingMembers,
}

impl PastryRegistry {
    /// Creates an empty registry over `space`.
    pub fn new(space: PastrySpace) -> Self {
        PastryRegistry {
            space,
            members: RingMembers::new(),
        }
    }

    /// The underlying ID space.
    pub fn space(&self) -> PastrySpace {
        self.space
    }

    /// Adds `id`; returns `false` if already present.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the space.
    pub fn insert(&mut self, id: u64) -> bool {
        assert!(id < self.space.ring_size(), "id out of range");
        self.members.insert(id)
    }

    /// Removes `id`; returns `false` if absent.
    pub fn remove(&mut self, id: u64) -> bool {
        self.members.remove(id)
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.members.contains(id)
    }

    /// Number of live IDs.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterates live IDs in numeric order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.members.iter()
    }

    /// The numerically closest live node to `key` (ties to the lower
    /// ID, wrapping considered), or `None` when empty.
    pub fn owner(&self, key: u64) -> Option<u64> {
        let size = self.space.ring_size();
        // A member at `key` is `above`, at distance 0: `below` may
        // skip it.
        let above = self.members.at_or_after(key)?;
        let below = self.members.before(key)?;
        let (da, db) = (
            shortest_distance(key, above, size),
            shortest_distance(key, below, size),
        );
        Some(if da < db || (da == db && above < below) {
            above
        } else {
            below
        })
    }

    /// Live members of the inclusive span `[lo, hi]` in ascending
    /// order, borrowed. Empty when `lo > hi`.
    pub fn span(&self, lo: u64, hi: u64) -> &[u64] {
        self.members.span(lo, hi)
    }

    /// Live members of the inclusive span `[lo, hi]`.
    pub fn nodes_in_span(&self, lo: u64, hi: u64) -> Vec<u64> {
        self.span(lo, hi).to_vec()
    }

    /// The `window` live nodes numerically nearest to `id` (excluding
    /// `id` itself), nearest first, ties to the lower ID: the leaf set.
    ///
    /// Every member that lies between `id` and a member `m` on `m`'s
    /// shorter way round is strictly nearer than `m`, so the `window`
    /// nearest are among the `window` members on each side of `id`:
    /// sorting those `2·window` gives what sorting all would.
    pub fn leaf_set(&self, id: u64, window: usize) -> Vec<u64> {
        let size = self.space.ring_size();
        let before = self.members.pred_window(id, window);
        let after = self.members.succ_window(id, window);
        let mut nearest: Vec<u64> = before.iter().chain(after.iter()).collect();
        nearest.sort_unstable_by_key(|&m| (shortest_distance(id, m, size), m));
        nearest.dedup();
        nearest.truncate(window);
        nearest
    }

    /// The prefix-routing hop from `cur` toward `key`: the member of
    /// the table cell prefix routing selects that is numerically
    /// closest to the key, if the cell has any live member.
    fn prefix_hop(&self, cur: u64, key: u64) -> Option<u64> {
        let (row, col) = self.space.route_cell(cur, key)?;
        let (lo, hi) = self.space.row_region(cur, row, col)?;
        self.span(lo, hi)
            .iter()
            .copied()
            .min_by_key(|&m| shortest_distance(m, key, self.space.ring_size()))
    }

    /// The numeric (leaf-set) hop: a node strictly closer to the key,
    /// or the owner itself on a distance tie.
    fn numeric_hop(&self, cur: u64, key: u64, owner: u64) -> u64 {
        let size = self.space.ring_size();
        let my_dist = shortest_distance(cur, key, size);
        self.leaf_set(cur, 8)
            .into_iter()
            .chain(std::iter::once(owner))
            .filter(|&m| shortest_distance(m, key, size) < my_dist)
            .min_by_key(|&m| shortest_distance(m, key, size))
            .unwrap_or(owner)
    }

    /// One routing hop from `cur` toward `key`: the prefix hop when the
    /// cell is populated, else the numeric hop. `None` when `cur` owns
    /// the key (or the registry is empty).
    pub fn next_hop(&self, cur: u64, key: u64) -> Option<u64> {
        let owner = self.owner(key)?;
        if owner == cur {
            return None;
        }
        Some(
            self.prefix_hop(cur, key)
                .unwrap_or_else(|| self.numeric_hop(cur, key, owner)),
        )
    }

    /// The full route from `from` to `key`'s owner, inclusive of both
    /// endpoints. Once a prefix cell comes up empty the walk commits to
    /// the numeric phase (strictly decreasing distance), mirroring
    /// Pastry's leaf-set final approach and guaranteeing termination.
    /// `None` if it fails to terminate within `max_hops`.
    pub fn route_path(&self, from: u64, key: u64, max_hops: usize) -> Option<Vec<u64>> {
        let mut path = vec![from];
        let mut cur = from;
        let mut numeric_mode = false;
        for _ in 0..max_hops {
            let owner = self.owner(key)?;
            if cur == owner {
                return Some(path);
            }
            let next = if numeric_mode {
                self.numeric_hop(cur, key, owner)
            } else {
                match self.prefix_hop(cur, key) {
                    Some(n) => n,
                    None => {
                        numeric_mode = true;
                        self.numeric_hop(cur, key, owner)
                    }
                }
            };
            path.push(next);
            cur = next;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_space() -> PastrySpace {
        PastrySpace::new(8, 2)
    }

    #[test]
    fn digits_roundtrip() {
        let s = fig3_space();
        let digits = [1u64, 0, 2, 3, 3, 1, 0, 2];
        let id = s.id_from_digits(&digits);
        for (row, &d) in digits.iter().enumerate() {
            assert_eq!(s.digit(id, row as u8), d);
        }
    }

    #[test]
    fn paper_fig3_row2_entries() {
        // Node (10233102) keeps nodes with IDs (10-D-xxxxx) at row 2.
        let s = fig3_space();
        let node = s.id_from_digits(&[1, 0, 2, 3, 3, 1, 0, 2]);
        let entry = s.id_from_digits(&[1, 0, 0, 3, 1, 2, 0, 3]); // (10-0-31203)
        let (lo, hi) = s.row_region(node, 2, 0).unwrap();
        assert!((lo..=hi).contains(&entry));
        // Own column has no entry.
        assert!(s.row_region(node, 2, 2).is_none());
    }

    #[test]
    fn reverse_rows_are_dual() {
        let s = PastrySpace::new(4, 2);
        let node = s.id_from_digits(&[1, 2, 3, 0]);
        for row in 0..4 {
            for (lo, hi) in s.reverse_row_regions(node, row) {
                // Sample the corners: both must list `node` in their
                // forward row-region at our digit.
                for j in [lo, hi] {
                    let col = s.digit(node, row);
                    let (flo, fhi) = s.row_region(j, row, col).expect("digit differs");
                    assert!((flo..=fhi).contains(&node));
                }
            }
        }
        assert_eq!(s.reverse_row_regions(node, 1).len(), 3);
    }

    #[test]
    fn route_cell_follows_prefix() {
        let s = PastrySpace::new(4, 2);
        let cur = s.id_from_digits(&[1, 2, 3, 0]);
        let key = s.id_from_digits(&[1, 2, 0, 3]);
        assert_eq!(s.shared_prefix_len(cur, key), 2);
        assert_eq!(s.route_cell(cur, key), Some((2, 0)));
        assert_eq!(s.route_cell(cur, cur), None);
    }

    #[test]
    fn owner_is_numerically_closest() {
        let s = PastrySpace::new(4, 2);
        let mut reg = PastryRegistry::new(s);
        reg.insert(10);
        reg.insert(100);
        assert_eq!(reg.owner(12), Some(10));
        assert_eq!(reg.owner(99), Some(100));
        // Wrapping: key 250 on a 256-ring is 16 from 10 (through 0) and
        // 150 from 100.
        assert_eq!(reg.owner(250), Some(10));
        assert_eq!(reg.owner(55), Some(10)); // tie 45/45 -> lower id
    }

    #[test]
    fn leaf_set_nearest_first() {
        let s = PastrySpace::new(4, 2);
        let mut reg = PastryRegistry::new(s);
        for id in [10u64, 20, 200, 250] {
            reg.insert(id);
        }
        assert_eq!(reg.leaf_set(15, 3), vec![10, 20, 250]);
        assert_eq!(reg.leaf_set(10, 10).len(), 3);
    }

    #[test]
    fn prefix_routes_terminate_and_improve_prefix() {
        use ert_sim::SimRng;
        let s = PastrySpace::new(6, 2); // 4096 ids
        let mut reg = PastryRegistry::new(s);
        let mut rng = SimRng::seed_from(10);
        while reg.len() < 200 {
            reg.insert(s.random_id(&mut rng));
        }
        let ids: Vec<u64> = reg.iter().collect();
        for i in 0..50 {
            let from = ids[(i * 3) % ids.len()];
            let key = s.random_id(&mut rng);
            let path = reg.route_path(from, key, 40).expect("route terminates");
            assert_eq!(*path.last().unwrap(), reg.owner(key).unwrap());
            assert!(path.len() <= 12, "path too long: {}", path.len());
        }
    }

    #[test]
    fn next_hop_none_at_owner_and_prefers_prefix() {
        let s = PastrySpace::new(4, 2);
        let mut reg = PastryRegistry::new(s);
        let a = s.id_from_digits(&[0, 0, 0, 0]);
        let b = s.id_from_digits(&[2, 0, 0, 0]);
        let c = s.id_from_digits(&[2, 3, 0, 0]);
        for id in [a, b, c] {
            reg.insert(id);
        }
        let key = s.id_from_digits(&[2, 3, 3, 3]);
        assert_eq!(reg.next_hop(c, key), None); // c owns the key
                                                // From a, the row-0 column-2 cell holds b and c; c is closer.
        assert_eq!(reg.next_hop(a, key), Some(c));
    }

    #[test]
    fn span_query() {
        let s = PastrySpace::new(4, 2);
        let mut reg = PastryRegistry::new(s);
        for id in [5u64, 9, 17] {
            reg.insert(id);
        }
        assert_eq!(reg.nodes_in_span(6, 17), vec![9, 17]);
        assert!(reg.nodes_in_span(10, 16).is_empty());
        assert!(
            reg.nodes_in_span(18, 17).is_empty(),
            "an inverted span is empty"
        );
    }
}
