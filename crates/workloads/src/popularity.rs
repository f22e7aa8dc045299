//! File-popularity models: Zipf-distributed and time-varying lookups.
//!
//! The paper's introduction motivates ERT with "nonuniform and
//! time-varying popular files": measurement studies of P2P file sharing
//! find request frequencies that are heavily skewed (approximately
//! Zipf) and whose hot set drifts over time. The Section 5.4 impulse is
//! the extreme static form; this module provides the graded forms:
//!
//! * [`zipf_lookups`] — keys drawn from a fixed catalogue with Zipf
//!   weights (rank-`k` probability ∝ `1/k^s`);
//! * [`shifting_hotspot_lookups`] — the same catalogue, but the hot
//!   ranks rotate every epoch, exercising the *time-varying* part of
//!   the claim (the periodic indegree adaptation is what is supposed to
//!   track it).

use ert_network::{KeyPick, Lookup, SourcePick};
use ert_sim::{SimDuration, SimRng, SimTime};
use rand::Rng;

/// A fixed catalogue of keys with Zipf-distributed request
/// probabilities.
///
/// ```
/// use ert_workloads::ZipfKeys;
/// use ert_sim::SimRng;
/// let mut rng = SimRng::seed_from(1);
/// let keys = ZipfKeys::new(100, 1.0, &mut rng);
/// let r = keys.sample_rank(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    /// Ring fractions of the catalogue's keys, rank order.
    fractions: Vec<f64>,
    /// Cumulative probability per rank.
    cdf: Vec<f64>,
}

impl ZipfKeys {
    /// Builds a catalogue of `n_keys` random keys with Zipf exponent
    /// `s` (`s = 0` is uniform; larger is more skewed; measurement
    /// studies of P2P traffic report `s ≈ 0.6–1.2`).
    ///
    /// # Panics
    ///
    /// Panics unless `n_keys >= 1` and `s >= 0` and finite.
    pub fn new(n_keys: usize, s: f64, rng: &mut SimRng) -> Self {
        assert!(n_keys >= 1, "need at least one key");
        assert!(s >= 0.0 && s.is_finite(), "invalid Zipf exponent: {s}");
        let fractions: Vec<f64> = (0..n_keys).map(|_| rng.gen()).collect();
        let weights: Vec<f64> = (1..=n_keys).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfKeys { fractions, cdf }
    }

    /// Number of keys in the catalogue.
    pub fn len(&self) -> usize {
        self.fractions.len()
    }

    /// Whether the catalogue is empty (never: construction requires one
    /// key).
    pub fn is_empty(&self) -> bool {
        self.fractions.is_empty()
    }

    /// Draws a rank according to the Zipf weights.
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The ring fraction of the key at `rank`, with ranks rotated by
    /// `rotation` (used by the shifting-hotspot workload).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len`.
    pub fn key_at(&self, rank: usize, rotation: usize) -> f64 {
        assert!(rank < self.fractions.len(), "rank out of range");
        self.fractions[(rank + rotation) % self.fractions.len()]
    }
}

/// A Poisson lookup stream whose keys follow a static Zipf popularity
/// over a fixed catalogue. Sources are uniform.
///
/// # Panics
///
/// Panics if `rate_per_sec` is not strictly positive (catalogue
/// construction validates its own inputs).
pub fn zipf_lookups(
    count: usize,
    rate_per_sec: f64,
    n_keys: usize,
    exponent: f64,
    rng: &mut SimRng,
) -> Vec<Lookup> {
    assert!(rate_per_sec > 0.0, "invalid rate: {rate_per_sec}");
    let keys = ZipfKeys::new(n_keys, exponent, rng);
    let mut t = SimTime::ZERO;
    (0..count)
        .map(|_| {
            t += SimDuration::from_secs_f64(rng.exp_secs(rate_per_sec));
            let rank = keys.sample_rank(rng);
            Lookup {
                at: t,
                source: SourcePick::Random,
                key: KeyPick::RingFraction(keys.key_at(rank, 0)),
            }
        })
        .collect()
}

/// A Zipf lookup stream whose hot set **drifts**: every
/// `epoch_lookups` lookups, the rank-to-key mapping rotates by one, so
/// yesterday's most popular file becomes unpopular and a cold file
/// takes its place. This is the "time-varying file popularity" the
/// periodic indegree adaptation targets.
///
/// # Panics
///
/// Panics if `rate_per_sec` is not strictly positive or
/// `epoch_lookups` is zero.
pub fn shifting_hotspot_lookups(
    count: usize,
    rate_per_sec: f64,
    n_keys: usize,
    exponent: f64,
    epoch_lookups: usize,
    rng: &mut SimRng,
) -> Vec<Lookup> {
    assert!(rate_per_sec > 0.0, "invalid rate: {rate_per_sec}");
    assert!(epoch_lookups > 0, "epoch must cover at least one lookup");
    let keys = ZipfKeys::new(n_keys, exponent, rng);
    let mut t = SimTime::ZERO;
    (0..count)
        .map(|i| {
            t += SimDuration::from_secs_f64(rng.exp_secs(rate_per_sec));
            let rotation = i / epoch_lookups;
            let rank = keys.sample_rank(rng);
            Lookup {
                at: t,
                source: SourcePick::Random,
                key: KeyPick::RingFraction(keys.key_at(rank, rotation)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn zipf_rank_frequencies_decay() {
        let mut rng = SimRng::seed_from(10);
        let keys = ZipfKeys::new(50, 1.0, &mut rng);
        let mut counts = [0u32; 50];
        for _ in 0..40_000 {
            counts[keys.sample_rank(&mut rng)] += 1;
        }
        // Rank 1 ~ 2x rank 2 ~ 10x rank 10 under s = 1.
        assert!(
            counts[0] as f64 > 1.6 * counts[1] as f64,
            "{:?}",
            &counts[..5]
        );
        assert!(counts[0] as f64 > 6.0 * counts[9] as f64);
        // Every rank still appears.
        assert!(counts.iter().filter(|&&c| c > 0).count() >= 45);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let mut rng = SimRng::seed_from(11);
        let keys = ZipfKeys::new(10, 0.0, &mut rng);
        let mut counts = vec![0u32; 10];
        for _ in 0..20_000 {
            counts[keys.sample_rank(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1600..=2400).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn zipf_lookups_reuse_the_catalogue() {
        let mut rng = SimRng::seed_from(12);
        let ls = zipf_lookups(5000, 100.0, 30, 1.0, &mut rng);
        let mut distinct: BTreeMap<u64, u32> = BTreeMap::new();
        for l in &ls {
            if let KeyPick::RingFraction(f) = l.key {
                *distinct.entry((f * 1e12) as u64).or_insert(0) += 1;
            }
        }
        assert!(distinct.len() <= 30);
        let max = distinct.values().max().copied().unwrap();
        assert!(max as usize > 5000 / 10, "hot key should dominate: {max}");
    }

    #[test]
    fn shifting_hotspot_changes_the_hot_key() {
        let mut rng = SimRng::seed_from(13);
        let ls = shifting_hotspot_lookups(4000, 100.0, 20, 1.2, 1000, &mut rng);
        let hot_of = |slice: &[Lookup]| {
            let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
            for l in slice {
                if let KeyPick::RingFraction(f) = l.key {
                    *counts.entry((f * 1e12) as u64).or_insert(0) += 1;
                }
            }
            counts.into_iter().max_by_key(|&(_, c)| c).map(|(k, _)| k)
        };
        let first = hot_of(&ls[..1000]);
        let last = hot_of(&ls[3000..]);
        assert_ne!(first, last, "hot key should drift between epochs");
    }

    #[test]
    fn key_at_wraps_rotation() {
        let mut rng = SimRng::seed_from(14);
        let keys = ZipfKeys::new(5, 1.0, &mut rng);
        assert_eq!(keys.key_at(2, 0), keys.key_at(0, 2));
        assert_eq!(keys.key_at(4, 3), keys.key_at(2, 5));
        assert_eq!(keys.len(), 5);
        assert!(!keys.is_empty());
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn key_at_checks_rank() {
        let mut rng = SimRng::seed_from(15);
        let keys = ZipfKeys::new(3, 1.0, &mut rng);
        let _ = keys.key_at(3, 0);
    }
}
