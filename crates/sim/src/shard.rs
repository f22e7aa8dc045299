//! Shared-nothing sharded event core.
//!
//! [`ShardedEngine`] splits the event population across `S` shard
//! reactors, each owning a private priority queue. Cross-shard
//! schedules travel through bounded explicit mailboxes (one per
//! ordered shard pair) that are drained at deterministic barriers
//! before every pop. Events are merged under the canonical
//! `(time, seq)` sort key — the same total order the single-queue
//! [`Engine`](crate::Engine) uses — so a sharded run pops the exact
//! event sequence of the sequential engine for *any* shard count and
//! *any* routing function. Shard-count invariance is a theorem of the
//! construction, not a tuning outcome:
//!
//! * `seq` is a single global counter assigned in schedule order, so
//!   two engines fed the same schedule calls assign identical keys;
//! * the pop barrier drains every mailbox into its target heap first,
//!   so the merge minimum ranges over the full pending set;
//! * the merge minimum over disjoint heaps of a set equals the
//!   minimum of the one heap holding the whole set.
//!
//! [`ShardMap`] is the companion key→shard partition: the top
//! `ceil(log2 S)` bits of ring position select one of `2^k` prefix
//! buckets, and a static remap table folds buckets onto shards when
//! `S` is not a power of two (each shard owns 1 or 2 buckets, so the
//! max/min shard-population ratio is bounded by 2 for uniform keys).

use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Default bound on each cross-shard mailbox. Overflow is not an
/// error: the full mailbox is flushed straight into the target heap
/// (a deterministic early barrier), trading barrier batching for
/// memory.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 1024;

/// Static key→shard partition by ID-space prefix.
///
/// `k = ceil(log2 S)` top bits of the ring position select a prefix
/// bucket; `remap[bucket] = bucket * S / 2^k` folds the `2^k` buckets
/// onto the `S` shards. For power-of-two `S` the remap is the
/// identity; otherwise every shard receives 1 or 2 consecutive
/// buckets, bounding the max/min shard-population ratio by 2 under
/// uniform keys.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    buckets: usize,
    remap: Vec<usize>,
}

impl ShardMap {
    /// Builds the partition for `shards >= 1` reactors.
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded core needs at least one shard");
        let k = usize::BITS - (shards - 1).leading_zeros(); // ceil(log2 S)
        let buckets = 1usize << k;
        let remap = (0..buckets).map(|b| b * shards / buckets).collect();
        ShardMap {
            shards,
            buckets,
            remap,
        }
    }

    /// Number of shard reactors.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of prefix buckets (`2^ceil(log2 S)`).
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Shard owning a prefix bucket.
    ///
    /// # Panics
    /// Panics when `bucket >= self.buckets()`.
    pub fn shard_of_bucket(&self, bucket: usize) -> usize {
        self.remap[bucket]
    }

    /// Shard owning linear ring position `lin` on a ring of `ring`
    /// total positions. Total for every `lin < ring` (positions past
    /// the ring clamp into the last bucket rather than panicking, so
    /// the map stays total even for callers with a stale ring size).
    pub fn shard_of(&self, lin: u64, ring: u64) -> usize {
        debug_assert!(ring > 0, "empty ring has no shards");
        let bucket = if ring == 0 {
            0
        } else {
            // Scale in u128 so `lin * buckets` cannot overflow; the
            // ring is not necessarily a power of two (Cycloid ring).
            ((u128::from(lin) * self.buckets as u128) / u128::from(ring)) as usize
        };
        self.remap[bucket.min(self.buckets - 1)]
    }
}

/// Heap entry: same `(time, seq)` key and reversed ordering as the
/// single-queue engine's internal entry, so a min-heap pops earliest
/// time first with FIFO tie-breaks on the *global* schedule order.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min key.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Counters describing cross-shard traffic, exposed for telemetry and
/// the bench trajectory. Not part of any run report — reports stay
/// byte-identical across shard counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events that crossed a shard boundary through a mailbox.
    pub cross_shard_messages: u64,
    /// Mailboxes flushed early because they hit the capacity bound.
    pub mailbox_overflow_flushes: u64,
    /// Barrier drains performed (one before every pop attempt).
    pub barrier_drains: u64,
}

/// A discrete-event core split into `S` shared-nothing shard reactors.
///
/// Mirrors the [`Engine`](crate::Engine) surface — `schedule_at` /
/// `schedule_in` / `pop` / `now` / `events_processed` / `pending` —
/// with one addition: every schedule names the target shard. The
/// event sequence popped is byte-identical to the single-queue engine
/// fed the same schedule calls, for any shard count, routing function,
/// and mailbox capacity (see the module docs for why).
#[derive(Debug)]
pub struct ShardedEngine<E> {
    /// One private event heap per shard reactor.
    heaps: Vec<BinaryHeap<Entry<E>>>,
    /// Bounded mailboxes, `from * S + to` flattened. Only cross-shard
    /// schedules pass through a mailbox.
    mailboxes: Vec<Vec<Entry<E>>>,
    mailbox_capacity: usize,
    /// Global schedule counter: the FIFO tie-break shared by every
    /// shard, and the reason the merge order matches the sequential
    /// engine exactly.
    seq: u64,
    now: SimTime,
    processed: u64,
    /// Shard of the most recently popped event — the reactor whose
    /// handler is currently scheduling. Its own schedules go straight
    /// to its heap; everything else is a cross-shard message.
    current_shard: usize,
    stats: ShardStats,
}

impl<E> ShardedEngine<E> {
    /// Creates an empty sharded core at time zero with the
    /// [`DEFAULT_MAILBOX_CAPACITY`].
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_mailbox_capacity(shards, DEFAULT_MAILBOX_CAPACITY)
    }

    /// Creates an empty sharded core with an explicit mailbox bound
    /// (≥ 1). Exposed so the drain-permutation property tests can
    /// force overflow flushes at arbitrary points.
    ///
    /// # Panics
    /// Panics when `shards` or `capacity` is zero.
    pub fn with_mailbox_capacity(shards: usize, capacity: usize) -> Self {
        assert!(shards >= 1, "a sharded core needs at least one shard");
        assert!(capacity >= 1, "mailboxes must hold at least one event");
        ShardedEngine {
            heaps: (0..shards).map(|_| BinaryHeap::new()).collect(),
            mailboxes: (0..shards * shards).map(|_| Vec::new()).collect(),
            mailbox_capacity: capacity,
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            current_shard: 0,
            stats: ShardStats::default(),
        }
    }

    /// Number of shard reactors.
    pub fn shards(&self) -> usize {
        self.heaps.len()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Events still pending across every heap and mailbox.
    pub fn pending(&self) -> usize {
        self.heaps.iter().map(BinaryHeap::len).sum::<usize>()
            + self.mailboxes.iter().map(Vec::len).sum::<usize>()
    }

    /// Shard of the most recently popped event.
    pub fn current_shard(&self) -> usize {
        self.current_shard
    }

    /// Cross-shard traffic counters.
    pub fn shard_stats(&self) -> ShardStats {
        self.stats
    }

    /// Schedules `event` on `shard` at absolute time `time`.
    ///
    /// A schedule targeting the currently running shard goes straight
    /// to its heap; any other target is a cross-shard message routed
    /// through the bounded `current → target` mailbox (flushed early
    /// if full, drained at the next barrier otherwise).
    ///
    /// # Panics
    /// Panics if `time` is before the current simulation time or
    /// `shard` is out of range.
    pub fn schedule_at(&mut self, time: SimTime, shard: usize, event: E) {
        assert!(
            time >= self.now,
            "scheduling into the past: {time} < {}",
            self.now
        );
        assert!(shard < self.heaps.len(), "shard {shard} out of range");
        let entry = Entry {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if shard == self.current_shard {
            self.heaps[shard].push(entry);
            return;
        }
        self.stats.cross_shard_messages += 1;
        let slot = self.current_shard * self.heaps.len() + shard;
        self.mailboxes[slot].push(entry);
        if self.mailboxes[slot].len() >= self.mailbox_capacity {
            // Backpressure: flush the full mailbox straight into the
            // target heap. Deterministic — triggered by a capacity
            // count, not by timing.
            self.stats.mailbox_overflow_flushes += 1;
            let drained = std::mem::take(&mut self.mailboxes[slot]);
            self.heaps[shard].extend(drained);
        }
    }

    /// Schedules `event` on `shard` after `delay` from now.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, shard: usize, event: E) {
        let time = self.now + delay;
        assert!(shard < self.heaps.len(), "shard {shard} out of range");
        let entry = Entry {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if shard == self.current_shard {
            self.heaps[shard].push(entry);
            return;
        }
        self.stats.cross_shard_messages += 1;
        let slot = self.current_shard * self.heaps.len() + shard;
        self.mailboxes[slot].push(entry);
        if self.mailboxes[slot].len() >= self.mailbox_capacity {
            self.stats.mailbox_overflow_flushes += 1;
            let drained = std::mem::take(&mut self.mailboxes[slot]);
            self.heaps[shard].extend(drained);
        }
    }

    /// The deterministic barrier: drains every cross-shard mailbox
    /// into its target heap. Called internally before every pop; safe
    /// to call at any extra point (heap order is by `(time, seq)`, so
    /// *when* a message lands in the heap never changes the merge).
    pub fn drain_cross_shard(&mut self) {
        self.stats.barrier_drains += 1;
        let shards = self.heaps.len();
        for from in 0..shards {
            for to in 0..shards {
                let slot = from * shards + to;
                if !self.mailboxes[slot].is_empty() {
                    let drained = std::mem::take(&mut self.mailboxes[slot]);
                    self.heaps[to].extend(drained);
                }
            }
        }
    }

    /// Pops the globally next event: barrier-drains the mailboxes,
    /// then takes the minimum `(time, seq)` across the shard heads.
    /// Advances time and hands control to the owning shard.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.drain_cross_shard();
        let winner = self
            .heaps
            .iter()
            .enumerate()
            .filter_map(|(s, h)| h.peek().map(|e| ((e.time, e.seq), s)))
            .min()
            .map(|(_, s)| s)?;
        // The winner was just peeked non-empty; `?` (never taken) keeps
        // the path panic-free for the D4 gate.
        let entry = self.heaps[winner].pop()?;
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        self.processed += 1;
        self.current_shard = winner;
        Some((entry.time, entry.event))
    }

    /// Earliest pending event time, if any (mailboxes included).
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap_min = self
            .heaps
            .iter()
            .filter_map(|h| h.peek().map(|e| e.time))
            .min();
        let mail_min = self
            .mailboxes
            .iter()
            .flat_map(|m| m.iter().map(|e| e.time))
            .min();
        match (heap_min, mail_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::time::SimDuration;

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    #[test]
    fn shard_map_identity_for_power_of_two() {
        let m = ShardMap::new(8);
        assert_eq!(m.shards(), 8);
        assert_eq!(m.buckets(), 8);
        for b in 0..8 {
            assert_eq!(m.shard_of_bucket(b), b);
        }
    }

    #[test]
    fn shard_map_folds_non_power_of_two() {
        let m = ShardMap::new(3);
        assert_eq!(m.buckets(), 4);
        let owners: Vec<usize> = (0..4).map(|b| m.shard_of_bucket(b)).collect();
        assert_eq!(owners, vec![0, 0, 1, 2]);
        // Every shard owns at least one bucket.
        for s in 0..3 {
            assert!(owners.contains(&s), "shard {s} owns no bucket");
        }
    }

    #[test]
    fn shard_of_is_total_and_monotone() {
        let m = ShardMap::new(5);
        let ring = 97; // not a power of two, like a Cycloid ring
        let mut last = 0;
        for lin in 0..ring {
            let s = m.shard_of(lin, ring);
            assert!(s < 5);
            assert!(s >= last, "shard map not monotone over the ring");
            last = s;
        }
        // Stale callers past the ring clamp into the last shard.
        assert_eq!(m.shard_of(ring + 10, ring), 4);
    }

    #[test]
    fn single_shard_matches_engine_exactly() {
        let mut eng: Engine<u32> = Engine::new();
        let mut sh: ShardedEngine<u32> = ShardedEngine::new(1);
        for (time, ev) in [(5, 1), (3, 2), (5, 3), (0, 4), (3, 5)] {
            eng.schedule_at(t(time), ev);
            sh.schedule_at(t(time), 0, ev);
        }
        loop {
            let a = eng.pop();
            let b = sh.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(eng.events_processed(), sh.events_processed());
        assert_eq!(eng.now(), sh.now());
    }

    /// The load-bearing property: for an arbitrary deterministic
    /// routing function the sharded pop sequence equals the
    /// single-queue pop sequence, including FIFO order among equal
    /// timestamps.
    #[test]
    fn sharded_pop_sequence_matches_engine_under_routing() {
        for shards in [1usize, 2, 3, 4, 8] {
            let mut eng: Engine<u64> = Engine::new();
            let mut sh: ShardedEngine<u64> = ShardedEngine::new(shards);
            // Deterministic pseudo-random schedule with many ties.
            let mut x = 0x9e37_79b9_u64;
            for i in 0..500u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let time = t(x % 17);
                let shard = (x >> 32) as usize % shards;
                eng.schedule_at(time, i);
                sh.schedule_at(time, shard, i);
            }
            // Interleave pops with fresh schedules, exercising the
            // current-shard fast path and cross-shard mailboxes.
            let mut reschedule = 0u64;
            loop {
                let a = eng.pop();
                let b = sh.pop();
                assert_eq!(a, b, "diverged at {shards} shards");
                let Some((now, ev)) = a else { break };
                if ev < 500 && reschedule < 300 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let delay = SimDuration::from_micros(x % 5);
                    let shard = (x >> 40) as usize % shards;
                    eng.schedule_at(now + delay, 1000 + reschedule);
                    sh.schedule_at(now + delay, shard, 1000 + reschedule);
                    reschedule += 1;
                }
            }
            assert_eq!(eng.events_processed(), sh.events_processed());
        }
    }

    /// Mailbox capacity (overflow-flush timing) never changes the pop
    /// sequence — the drain permutation invariance in unit form.
    #[test]
    fn mailbox_capacity_is_invisible() {
        let run = |cap: usize| -> Vec<(SimTime, u64)> {
            let mut sh: ShardedEngine<u64> = ShardedEngine::with_mailbox_capacity(4, cap);
            let mut x = 7u64;
            for i in 0..200u64 {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                sh.schedule_at(t(x % 11), (x >> 16) as usize % 4, i);
            }
            let mut out = Vec::new();
            while let Some(p) = sh.pop() {
                out.push(p);
            }
            out
        };
        let baseline = run(1);
        for cap in [2, 3, 7, 64, 1024] {
            assert_eq!(baseline, run(cap), "capacity {cap} changed the merge");
        }
    }

    /// Extra barrier drains at arbitrary points are harmless.
    #[test]
    fn extra_barriers_do_not_change_order() {
        let mut a: ShardedEngine<u32> = ShardedEngine::new(3);
        let mut b: ShardedEngine<u32> = ShardedEngine::new(3);
        for (time, shard, ev) in [(4, 1, 1), (4, 2, 2), (2, 0, 3), (4, 1, 4)] {
            a.schedule_at(t(time), shard, ev);
            b.schedule_at(t(time), shard, ev);
            b.drain_cross_shard(); // eager barrier after every schedule
        }
        loop {
            let x = a.pop();
            b.drain_cross_shard();
            let y = b.pop();
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn cross_shard_traffic_is_counted() {
        let mut sh: ShardedEngine<u32> = ShardedEngine::with_mailbox_capacity(2, 2);
        sh.schedule_at(t(1), 0, 1); // current shard (0): direct
        sh.schedule_at(t(1), 1, 2); // cross: mailbox 0→1
        sh.schedule_at(t(2), 1, 3); // cross: hits capacity 2 → flush
        let s = sh.shard_stats();
        assert_eq!(s.cross_shard_messages, 2);
        assert_eq!(s.mailbox_overflow_flushes, 1);
        assert_eq!(sh.pending(), 3);
        while sh.pop().is_some() {}
        assert!(sh.shard_stats().barrier_drains >= 4);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics_like_engine() {
        let mut sh: ShardedEngine<u32> = ShardedEngine::new(2);
        sh.schedule_at(t(5), 0, 1);
        sh.pop();
        sh.schedule_at(t(1), 0, 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::<u32>::new(0);
    }
}
