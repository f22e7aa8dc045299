//! Landmark-based distance estimation.
//!
//! The paper measures inter-node proximity with a landmarking method
//! (refs. \[30\], \[31\]): each node measures its distance to a small set
//! of well-known landmark hosts, and two nodes compare their landmark
//! *vectors* instead of probing each other. This module implements that
//! scheme over the synthetic torus: it lets the simulation use the same
//! indirect estimates a deployment would, and quantifies how much the
//! estimate deviates from the true distance.

use rand::Rng;
use serde::Serialize;

use crate::coords::Coord;

/// A fixed set of landmark positions.
///
/// ```
/// use ert_overlay::{Coord, LandmarkFrame};
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
/// let frame = LandmarkFrame::random(8, &mut rng);
/// let a = frame.vector(Coord::new(0.2, 0.2));
/// let b = frame.vector(Coord::new(0.25, 0.2));
/// let far = frame.vector(Coord::new(0.7, 0.7));
/// assert!(frame.estimate(&a, &b) < frame.estimate(&a, &far));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LandmarkFrame {
    landmarks: Vec<Coord>,
}

/// A node's measured distances to every landmark.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LandmarkVector(Vec<f64>);

impl LandmarkFrame {
    /// Creates a frame from explicit landmark positions.
    ///
    /// # Panics
    ///
    /// Panics if `landmarks` is empty.
    pub fn new(landmarks: Vec<Coord>) -> Self {
        assert!(!landmarks.is_empty(), "need at least one landmark");
        LandmarkFrame { landmarks }
    }

    /// Draws `count` uniformly random landmark positions.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn random<R: Rng>(count: usize, rng: &mut R) -> Self {
        assert!(count > 0, "need at least one landmark");
        LandmarkFrame {
            landmarks: (0..count).map(|_| Coord::random(rng)).collect(),
        }
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// Whether the frame has no landmarks (never: construction requires
    /// one).
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Measures a node's landmark vector from its (true) position —
    /// the analogue of pinging every landmark.
    pub fn vector(&self, position: Coord) -> LandmarkVector {
        LandmarkVector(
            self.landmarks
                .iter()
                .map(|&l| position.distance(l))
                .collect(),
        )
    }

    /// Estimates the distance between two nodes from their landmark
    /// vectors: the RMS difference of the per-landmark distances. This
    /// lower-bounds the true distance (each component does, by the
    /// triangle inequality) and correlates strongly with it once a
    /// handful of landmarks are used.
    ///
    /// # Panics
    ///
    /// Panics if either vector was measured against a different number
    /// of landmarks.
    pub fn estimate(&self, a: &LandmarkVector, b: &LandmarkVector) -> f64 {
        assert_eq!(a.0.len(), self.landmarks.len(), "foreign vector");
        assert_eq!(b.0.len(), self.landmarks.len(), "foreign vector");
        let sum: f64 = a.0.iter().zip(&b.0).map(|(x, y)| (x - y) * (x - y)).sum();
        (sum / self.landmarks.len() as f64).sqrt()
    }
}

impl LandmarkVector {
    /// The per-landmark distances.
    pub fn components(&self) -> &[f64] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn identical_positions_estimate_zero() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let frame = LandmarkFrame::random(6, &mut rng);
        let p = Coord::new(0.3, 0.8);
        let v = frame.vector(p);
        assert_eq!(frame.estimate(&v, &v), 0.0);
    }

    #[test]
    fn estimate_never_exceeds_true_distance() {
        // RMS of |d(a,L) - d(b,L)| <= d(a,b) per the triangle inequality.
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let frame = LandmarkFrame::random(10, &mut rng);
        for _ in 0..200 {
            let a = Coord::random(&mut rng);
            let b = Coord::random(&mut rng);
            let est = frame.estimate(&frame.vector(a), &frame.vector(b));
            assert!(est <= a.distance(b) + 1e-12, "{est} > {}", a.distance(b));
        }
    }

    #[test]
    fn estimates_rank_like_true_distances() {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let frame = LandmarkFrame::random(12, &mut rng);
        let anchor = Coord::random(&mut rng);
        let va = frame.vector(anchor);
        let mut pairs: Vec<(f64, f64)> = (0..150)
            .map(|_| {
                let p = Coord::random(&mut rng);
                (anchor.distance(p), frame.estimate(&va, &frame.vector(p)))
            })
            .collect();
        // Spearman-ish check: sort by true distance, count estimate
        // inversions among adjacent deciles.
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("no NaN"));
        let decile = pairs.len() / 10;
        let near_mean: f64 = pairs[..decile].iter().map(|p| p.1).sum::<f64>() / decile as f64;
        let far_mean: f64 = pairs[pairs.len() - decile..]
            .iter()
            .map(|p| p.1)
            .sum::<f64>()
            / decile as f64;
        assert!(
            far_mean > 2.0 * near_mean,
            "estimates should separate near from far: {near_mean} vs {far_mean}"
        );
    }

    #[test]
    fn explicit_frame_roundtrips() {
        let frame = LandmarkFrame::new(vec![Coord::new(0.0, 0.0), Coord::new(0.5, 0.5)]);
        assert_eq!(frame.len(), 2);
        assert!(!frame.is_empty());
        let v = frame.vector(Coord::new(0.0, 0.0));
        assert_eq!(v.components().len(), 2);
        assert_eq!(v.components()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "foreign vector")]
    fn mismatched_vectors_rejected() {
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let f1 = LandmarkFrame::random(3, &mut rng);
        let f2 = LandmarkFrame::random(5, &mut rng);
        let v1 = f1.vector(Coord::new(0.1, 0.1));
        let v2 = f2.vector(Coord::new(0.1, 0.1));
        let _ = f1.estimate(&v1, &v2);
    }
}
