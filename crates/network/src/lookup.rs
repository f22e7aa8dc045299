//! Workload vocabulary: lookup and churn schedules.
//!
//! Generators in `ert-workloads` produce these descriptions; the network
//! resolves them against the live membership when they fire (a "random
//! source" drawn at generation time could name a node that has since
//! departed).

use ert_sim::SimTime;
use serde::Serialize;

/// How a lookup's source node is chosen when the lookup fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum SourcePick {
    /// A uniformly random live node.
    Random,
    /// The live node owning the given fraction of the ring — used by the
    /// skewed-lookup "impulse" to pin sources to a contiguous interval
    /// of the ID space (Section 5.4).
    RingFraction(f64),
}

/// How a lookup's target key is chosen when the lookup fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum KeyPick {
    /// A uniformly random key.
    Random,
    /// The key at the given fraction of the ring — the impulse workload
    /// draws from 50 fixed fractions.
    RingFraction(f64),
}

/// One scheduled lookup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Lookup {
    /// When the query is injected.
    pub at: SimTime,
    /// Source selection rule.
    pub source: SourcePick,
    /// Key selection rule.
    pub key: KeyPick,
}

/// One scheduled membership change.
///
/// # Ordering at equal timestamps
///
/// A schedule may put several events at the same instant (a mass-leave
/// blast, or exponential gaps that round to the same microsecond). The
/// network applies equal-time events in the canonical order given by
/// [`ChurnEvent::sort_key`] — `Join` before `Leave`, joins tie-broken
/// by capacity bits — **not** in schedule-slice order, so permuting a
/// schedule never changes a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ChurnEvent {
    /// A node with the given raw capacity joins.
    Join {
        /// When it joins.
        at: SimTime,
        /// Its raw (un-normalized) capacity.
        capacity: f64,
    },
    /// A uniformly random live node departs.
    Leave {
        /// When it departs.
        at: SimTime,
    },
}

impl ChurnEvent {
    /// The event's scheduled time.
    pub fn at(&self) -> SimTime {
        match *self {
            ChurnEvent::Join { at, .. } | ChurnEvent::Leave { at } => at,
        }
    }

    /// The canonical ordering key: time first, then `Join` before
    /// `Leave` (arrivals keep the membership up before random
    /// departures draw from it), then the join capacity's bits so even
    /// same-instant joins order deterministically. Two equal-time
    /// `Leave`s are interchangeable — both remove a uniformly random
    /// host — so their mutual order cannot affect a run.
    pub fn sort_key(&self) -> (SimTime, u8, u64) {
        match *self {
            ChurnEvent::Join { at, capacity } => (at, 0, capacity.to_bits()),
            ChurnEvent::Leave { at } => (at, 1, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_key_orders_time_then_kind_then_capacity() {
        let t = SimTime::from_micros(100);
        let join_small = ChurnEvent::Join {
            at: t,
            capacity: 100.0,
        };
        let join_big = ChurnEvent::Join {
            at: t,
            capacity: 900.0,
        };
        let leave = ChurnEvent::Leave { at: t };
        let early_leave = ChurnEvent::Leave {
            at: SimTime::from_micros(1),
        };
        let mut events = vec![leave, join_big, early_leave, join_small];
        events.sort_by_key(ChurnEvent::sort_key);
        assert_eq!(events, vec![early_leave, join_small, join_big, leave]);
    }

    #[test]
    fn churn_event_time_accessor() {
        let j = ChurnEvent::Join {
            at: SimTime::from_micros(5),
            capacity: 100.0,
        };
        let l = ChurnEvent::Leave {
            at: SimTime::from_micros(9),
        };
        assert_eq!(j.at(), SimTime::from_micros(5));
        assert_eq!(l.at(), SimTime::from_micros(9));
    }
}
