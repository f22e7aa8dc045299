//! Deterministic random number generation.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// The simulation RNG: a seedable ChaCha12 generator.
///
/// ChaCha12 (rather than `rand::rngs::StdRng`) is used because its output
/// is specified and stable across `rand` releases, so recorded experiment
/// results stay reproducible.
///
/// `SimRng` supports cheap *forking*: [`SimRng::fork`] derives an
/// independent child generator from a label, so subsystems (workload
/// generation, forwarding decisions, churn, ...) can each own a stream
/// without their draws interleaving.
///
/// ```
/// use ert_sim::SimRng;
/// use rand::Rng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// let mut child = a.fork("workload");
/// let _ = child.gen::<u64>(); // independent of `a`'s future draws
/// ```
#[derive(Debug, Clone)]
pub struct SimRng(ChaCha12Rng);

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng(ChaCha12Rng::seed_from_u64(seed))
    }

    /// Derives an independent child generator from a textual label.
    ///
    /// Forking consumes one `u64` from `self` and mixes it with the
    /// label's bytes, so two forks with different labels — or the same
    /// label at different points in the parent's stream — are
    /// independent.
    pub fn fork(&mut self, label: &str) -> SimRng {
        let mut seed = self.0.next_u64();
        for (i, byte) in label.bytes().enumerate() {
            seed = seed
                .rotate_left(7)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((byte as u64) << (i % 8));
        }
        SimRng(ChaCha12Rng::seed_from_u64(seed))
    }

    /// Samples an exponential variate with the given rate (events per
    /// second), i.e. the interarrival time of a Poisson process.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exp_secs(&mut self, rate: f64) -> f64 {
        assert!(rate.is_finite() && rate > 0.0, "invalid rate: {rate}");
        // Inverse CDF; 1 - U in (0, 1] avoids ln(0).
        let u: f64 = self.0.gen::<f64>();
        -(1.0 - u).ln() / rate
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.0.gen_range(0..slice.len());
            Some(&slice[i])
        }
    }

    /// Picks `k` distinct indices uniformly at random from `0..n`
    /// (partial Fisher–Yates). Returns fewer than `k` when `n < k`.
    ///
    /// It costs O(n) whatever `k` is: the whole index list is built
    /// before the first draw. Its first index is drawn as
    /// `gen_range(0..n)`, so a caller that needs one index draws it
    /// directly, with the same result and the same stream state.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.0.gen_range(i..n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(1);
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let mut root = SimRng::seed_from(2);
        let mut snapshot = root.clone();
        let mut a = root.fork("alpha");
        let mut b = snapshot.fork("beta");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut rng = SimRng::seed_from(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exp_secs(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = SimRng::seed_from(4);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            let &x = rng.choose(&items).unwrap();
            seen[x - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rng.choose::<u8>(&[]), None);
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = SimRng::seed_from(5);
        let picks = rng.sample_indices(10, 4);
        assert_eq!(picks.len(), 4);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(picks.iter().all(|&i| i < 10));
        assert_eq!(rng.sample_indices(2, 5).len(), 2);
    }

    #[test]
    fn one_index_drawn_directly_is_the_first_sampled_index() {
        for (seed, n) in [(1, 1), (2, 2), (3, 7), (4, 256), (5, 1024), (6, 4097)] {
            let mut direct = SimRng::seed_from(seed).fork("source");
            let mut sampled = direct.clone();
            for _ in 0..50 {
                let i = direct.gen_range(0..n);
                assert_eq!(i, sampled.sample_indices(n, 1)[0], "n = {n}");
            }
            assert_eq!(direct.gen::<u64>(), sampled.gen::<u64>(), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn zero_rate_panics() {
        SimRng::seed_from(0).exp_secs(0.0);
    }
}
