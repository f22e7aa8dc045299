//! The time-ordered event queue.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A priority queue of events ordered by simulated time.
///
/// Events scheduled at the same instant are delivered in the order they
/// were scheduled (FIFO), which keeps simulations deterministic: every
/// event carries a strictly increasing `seq`, and the queue pops in
/// `(time, seq)` order.
///
/// Two sources hold the pending events: a sorted lane and a binary
/// heap. [`EventQueue::schedule`] appends to the lane when the lane is
/// empty or its back is due no later than the new event, and pushes
/// on the heap otherwise. A simulation that schedules its arrivals up
/// front in time order keeps them all in the lane, so the heap holds
/// only the events in flight.
///
/// The lane changes no pop. Appends are time-monotone and `seq` grows
/// with every schedule, so the lane is sorted by `(time, seq)`; the
/// heap pops its minimum under the same key. [`EventQueue::pop`] takes
/// the smaller of the lane's front and the heap's top, and since
/// `(time, seq)` is a total order with no two events equal under it,
/// merging the two sorted sources pops exactly the sequence one heap
/// holding every event would pop.
///
/// ```
/// use ert_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(5), "late");
/// q.schedule(SimTime::from_micros(1), "early");
/// q.schedule(SimTime::from_micros(1), "early-2");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(1), "early-2")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events appended in `(time, seq)` order.
    lane: VecDeque<Scheduled<E>>,
    /// Events due before the lane's back when they were scheduled.
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we pop the earliest event.
        other.key().cmp(&self.key())
    }
}

impl<E> Scheduled<E> {
    /// The total order events pop in.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`: on the lane when that keeps
    /// it sorted, on the heap otherwise.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let scheduled = Scheduled { time, seq, event };
        match self.lane.back() {
            Some(back) if back.time > time => self.heap.push(scheduled),
            _ => self.lane.push_back(scheduled),
        }
    }

    /// Whether the earliest pending event is the lane's front.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(lane), Some(heap)) => lane.key() < heap.key(),
            (lane, _) => lane.is_some(),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }?;
        Some((s.time, s.event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lane_first() {
            self.lane.front().map(|s| s.time)
        } else {
            self.heap.peek().map(|s| s.time)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 5, 25] {
            q.schedule(SimTime::from_micros(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let drained: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(drained, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
