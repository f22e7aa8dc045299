//! The id → index map of a driver's fixed member list.

/// A driver's member ids, sorted, and the map from an id to its
/// position among them — the position of its node in the driver's
/// node vector.
///
/// Built once from an immutable list and never written after. The ids
/// are cut into buckets by their top bits: bucket `b` holds the ids
/// with `id >> shift == b`, and `dir[b]..dir[b + 1]` is its run in
/// `ids`. [`PeerIndex::index_of`] binary-searches that one run.
///
/// *Exact.* `id >> shift` is monotone in `id` and the ids ascend, so
/// the ids of one bucket are one contiguous run, and `dir[b]` — the
/// number of ids in buckets below `b` — is where it starts. A member
/// lies in its own bucket's run and the search there finds it at its
/// global position `dir[b] + k`. A non-member is either in a bucket
/// inside the directory, whose run does not hold it, or past the last
/// bucket (above every member: `CLIENT_ADDR`, or an id off the ring),
/// where the directory has no entry. So `index_of` is `binary_search`
/// over the whole list, `Ok` and `Err` alike.
///
/// *Fast.* The shift keeps about one bucket per member over the span
/// of the largest id, so a uniform id set puts O(1) ids in a bucket on
/// average and a lookup costs one shift, two directory reads and a
/// search of a run of length one or two. A clustered set degrades to
/// one binary search of its bucket, never worse than over the whole
/// list.
#[derive(Debug, Clone)]
pub struct PeerIndex {
    ids: Vec<u64>,
    dir: Vec<usize>,
    shift: u32,
}

impl PeerIndex {
    /// Indexes `ids`; `None` unless they ascend strictly.
    pub fn new(ids: Vec<u64>) -> Option<PeerIndex> {
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        let Some(&max) = ids.last() else {
            return Some(PeerIndex {
                ids,
                dir: vec![0],
                shift: 0,
            });
        };
        // 2^dir_bits ≥ n buckets over the bit length of the largest id
        // (a shift of 64 would overflow; 63 leaves at most two buckets).
        let dir_bits = ids.len().next_power_of_two().trailing_zeros();
        let shift = (u64::BITS - max.leading_zeros())
            .saturating_sub(dir_bits)
            .min(u64::BITS - 1);
        let buckets = (max >> shift) as usize + 1;
        let mut dir = Vec::with_capacity(buckets + 1);
        let mut at = 0;
        for b in 0..=buckets as u64 {
            while ids.get(at).is_some_and(|&id| id >> shift < b) {
                at += 1;
            }
            dir.push(at);
        }
        Some(PeerIndex { ids, dir, shift })
    }

    /// The position of `id` among the members, if it is one.
    #[inline]
    pub fn index_of(&self, id: u64) -> Option<usize> {
        let b = usize::try_from(id >> self.shift).ok()?;
        let (&lo, &hi) = (self.dir.get(b)?, self.dir.get(b + 1)?);
        let run = self.ids.get(lo..hi)?;
        run.binary_search(&id).ok().map(|k| lo + k)
    }

    /// The member ids, ascending.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether there are no members.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ert_sim::SimRng;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::BTreeSet;

    /// The client's address on the wire (`ert-node`'s `CLIENT_ADDR`).
    const CLIENT_ADDR: u64 = u64::MAX;

    /// A ring width and a sorted distinct id set on it, of one of the
    /// shapes that stress the directory, drawn from `seed`: uniform over
    /// the ring, clustered in a few narrow runs, all inside one
    /// bucket's span, empty, or one member.
    fn id_set(seed: u64) -> (u32, Vec<u64>) {
        let mut rng = SimRng::seed_from(seed);
        let bits: u32 = rng.gen_range(1..=64);
        let ring_max = u64::MAX >> (64 - bits);
        let mut ids = BTreeSet::new();
        match seed % 5 {
            0 => {
                let n = rng.gen_range(0..300usize).min(ring_max as usize);
                while ids.len() < n {
                    ids.insert(rng.gen_range(0..=ring_max));
                }
            }
            1 => {
                for _ in 0..rng.gen_range(1..5) {
                    let base = rng.gen_range(0..=ring_max.saturating_sub(64));
                    for _ in 0..rng.gen_range(1..40) {
                        ids.insert((base + rng.gen_range(0..64u64)).min(ring_max));
                    }
                }
            }
            2 => {
                // Every id shares its top bits with the largest: with at
                // most 64 members the shift is at least bits − 6, far
                // wider than the 256-id span.
                let top = 1u64 << (bits.max(20) - 1);
                for _ in 0..rng.gen_range(1..64) {
                    ids.insert(top + rng.gen_range(0..256u64));
                }
            }
            3 => {}
            _ => {
                ids.insert(rng.gen_range(0..=ring_max));
            }
        }
        (bits, ids.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `index_of` is `binary_search(..).ok()` over the sorted list:
        /// for every member and its two neighbours, for arbitrary ids
        /// (mostly non-members), for `CLIENT_ADDR` and for ids at or
        /// above `2^bits`.
        #[test]
        fn index_of_is_binary_search(seed in 0u64..u64::MAX) {
            let (bits, ids) = id_set(seed);
            let index = PeerIndex::new(ids.clone()).unwrap();
            prop_assert_eq!(index.ids(), &ids[..]);
            prop_assert_eq!(index.len(), ids.len());
            let mut rng = SimRng::seed_from(!seed);
            let arbitrary: Vec<u64> = (0..64).map(|_| rng.gen_range(0..=u64::MAX)).collect();
            let ring = 1u128 << bits;
            let off_ring = [ring, ring + 1, ring * 2]
                .into_iter()
                .filter_map(|id| u64::try_from(id).ok());
            let near = ids
                .iter()
                .flat_map(|&id| [id.wrapping_sub(1), id, id.wrapping_add(1)]);
            for id in near.chain(arbitrary).chain(off_ring).chain([CLIENT_ADDR, 0]) {
                prop_assert_eq!(index.index_of(id), ids.binary_search(&id).ok(), "id {}", id);
            }
        }
    }

    #[test]
    fn unsorted_or_repeated_ids_are_refused() {
        assert!(PeerIndex::new(vec![3, 1]).is_none());
        assert!(PeerIndex::new(vec![1, 1]).is_none());
        assert!(PeerIndex::new(vec![]).is_some_and(|p| p.is_empty()));
    }

    #[test]
    fn a_uniform_set_has_about_one_member_per_bucket() {
        let ids: Vec<u64> = (0..1024u64).map(|i| i * 64 + (i * 37) % 64).collect();
        let index = PeerIndex::new(ids).unwrap();
        let widest = index.dir.windows(2).map(|w| w[1] - w[0]).max();
        assert_eq!(widest, Some(1));
    }
}
