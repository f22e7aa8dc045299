//! Arithmetic on circular identifier spaces.

/// A half-open arc `[start, start + len)` on a ring of size `modulus`.
///
/// Used for Chord finger regions and their reverses, and for leaf-set
/// windows. Arcs may wrap around zero.
///
/// ```
/// use ert_overlay::RingRange;
/// let arc = RingRange::new(250, 10, 256);
/// assert!(arc.contains(255));
/// assert!(arc.contains(3));   // wrapped
/// assert!(!arc.contains(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingRange {
    start: u64,
    len: u64,
    modulus: u64,
}

impl RingRange {
    /// Creates the arc `[start mod modulus, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero or `len > modulus`.
    pub fn new(start: u64, len: u64, modulus: u64) -> Self {
        assert!(modulus > 0, "empty ring");
        assert!(len <= modulus, "arc longer than ring: {len} > {modulus}");
        RingRange {
            start: start % modulus,
            len,
            modulus,
        }
    }

    /// First point of the arc.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Number of points on the arc.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the arc contains no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ring size.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Whether `point` lies on the arc.
    pub fn contains(&self, point: u64) -> bool {
        forward_distance(self.start, point % self.modulus, self.modulus) < self.len
    }

    /// Whether the arc wraps past zero.
    pub fn wraps(&self) -> bool {
        self.start + self.len > self.modulus
    }

    /// The part of the arc strictly clockwise of `point` — what is left
    /// of a clockwise walk that has just visited `point`. The whole arc
    /// when `point` is not on it.
    ///
    /// ```
    /// use ert_overlay::RingRange;
    /// let rest = RingRange::new(250, 10, 256).after(255);
    /// assert_eq!((rest.start(), rest.len()), (0, 4));
    /// ```
    pub fn after(&self, point: u64) -> RingRange {
        let passed = forward_distance(self.start, point % self.modulus, self.modulus) + 1;
        if passed > self.len {
            return *self;
        }
        RingRange {
            start: (self.start + passed) % self.modulus,
            len: self.len - passed,
            modulus: self.modulus,
        }
    }

    /// Splits into at most two non-wrapping `[lo, hi]`-inclusive spans.
    pub fn unwrapped_spans(&self) -> Vec<(u64, u64)> {
        if self.is_empty() {
            return Vec::new();
        }
        if self.wraps() {
            let first = (self.start, self.modulus - 1);
            let second = (0, (self.start + self.len) % self.modulus - 1);
            vec![first, second]
        } else {
            vec![(self.start, self.start + self.len - 1)]
        }
    }
}

/// Clockwise (increasing-id) distance from `from` to `to` on a ring of
/// size `modulus`.
///
/// ```
/// use ert_overlay::ring::forward_distance;
/// assert_eq!(forward_distance(10, 3, 16), 9);
/// assert_eq!(forward_distance(3, 10, 16), 7);
/// ```
///
/// # Panics
///
/// Panics in debug builds if either point is outside the ring.
pub fn forward_distance(from: u64, to: u64, modulus: u64) -> u64 {
    debug_assert!(from < modulus && to < modulus);
    if to >= from {
        to - from
    } else {
        modulus - from + to
    }
}

/// The length of the shorter way around from `a` to `b`.
pub fn shortest_distance(a: u64, b: u64, modulus: u64) -> u64 {
    let fwd = forward_distance(a, b, modulus);
    fwd.min(modulus - fwd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_wrapping_membership() {
        let r = RingRange::new(4, 3, 16);
        assert!(!r.contains(3));
        assert!(r.contains(4));
        assert!(r.contains(6));
        assert!(!r.contains(7));
        assert!(!r.wraps());
        assert_eq!(r.unwrapped_spans(), vec![(4, 6)]);
    }

    #[test]
    fn wrapping_membership_and_spans() {
        let r = RingRange::new(14, 5, 16);
        assert!(r.wraps());
        for p in [14, 15, 0, 1, 2] {
            assert!(r.contains(p), "missing {p}");
        }
        assert!(!r.contains(3));
        assert_eq!(r.unwrapped_spans(), vec![(14, 15), (0, 2)]);
    }

    #[test]
    fn empty_and_full_arcs() {
        let empty = RingRange::new(5, 0, 16);
        assert!(empty.is_empty());
        assert!(!empty.contains(5));
        assert!(empty.unwrapped_spans().is_empty());
        let full = RingRange::new(3, 16, 16);
        for p in 0..16 {
            assert!(full.contains(p));
        }
    }

    #[test]
    fn distances() {
        assert_eq!(forward_distance(0, 0, 8), 0);
        assert_eq!(forward_distance(7, 0, 8), 1);
        assert_eq!(shortest_distance(7, 0, 8), 1);
        assert_eq!(shortest_distance(0, 4, 8), 4);
        assert_eq!(shortest_distance(1, 7, 8), 2);
    }

    #[test]
    #[should_panic(expected = "arc longer than ring")]
    fn oversized_arc_panics() {
        let _ = RingRange::new(0, 17, 16);
    }
}
