//! Synthetic physical coordinates.
//!
//! The paper measures inter-node "physical distance" with a landmarking
//! technique on the real Internet. We substitute a unit 2-D torus: each
//! node draws a uniform coordinate, and physical distance is torus
//! Euclidean distance. This preserves the only property the protocol
//! uses — a consistent metric where "closer" is meaningful — without
//! requiring Internet measurements (see DESIGN.md, substitutions table).

use rand::Rng;

/// A point on the unit 2-D torus standing in for a node's position in
/// the underlying (physical) network.
///
/// ```
/// use ert_overlay::Coord;
/// let a = Coord::new(0.1, 0.1);
/// let b = Coord::new(0.9, 0.1);
/// // Wraps around: 0.1 -> 0.9 is 0.2 across the seam, not 0.8.
/// assert!((a.distance(b) - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coord {
    x: f64,
    y: f64,
}

impl Coord {
    /// Creates a coordinate; both components are taken modulo 1.
    ///
    /// # Panics
    ///
    /// Panics if either component is not finite.
    pub fn new(x: f64, y: f64) -> Self {
        assert!(x.is_finite() && y.is_finite(), "non-finite coordinate");
        Coord {
            x: x.rem_euclid(1.0),
            y: y.rem_euclid(1.0),
        }
    }

    /// Draws a uniformly random coordinate.
    pub fn random<R: Rng>(rng: &mut R) -> Self {
        Coord {
            x: rng.gen::<f64>(),
            y: rng.gen::<f64>(),
        }
    }

    /// Torus Euclidean distance to `other` (at most `sqrt(0.5)`).
    pub fn distance(self, other: Coord) -> f64 {
        let dx = (self.x - other.x).abs();
        let dy = (self.y - other.y).abs();
        let dx = dx.min(1.0 - dx);
        let dy = dy.min(1.0 - dy);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Coord::new(0.25, 0.75);
        let b = Coord::new(0.5, 0.5);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn wraps_across_both_axes() {
        let a = Coord::new(0.05, 0.95);
        let b = Coord::new(0.95, 0.05);
        let d = a.distance(b);
        assert!((d - (0.1f64 * 0.1 + 0.1 * 0.1).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn negative_inputs_wrap() {
        let c = Coord::new(-0.25, 1.5);
        assert_eq!(c, Coord::new(0.75, 0.5));
    }

    #[test]
    fn random_is_in_unit_square() {
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
        for _ in 0..100 {
            let c = Coord::random(&mut rng);
            let d = c.distance(Coord::new(0.0, 0.0));
            assert!(d <= 0.5f64.sqrt() + 1e-12);
        }
    }
}
