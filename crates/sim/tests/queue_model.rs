//! Model test for the event queue: the sorted lane beside the heap
//! pops exactly what one `BinaryHeap` holding every event pops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use ert_sim::{EventQueue, SimDuration, SimTime};

fn t(micros: u64) -> SimTime {
    SimTime::from_micros(micros)
}

/// The queue before the lane: one min-heap keyed by `(time, seq)`.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    seq: u64,
}

impl HeapModel {
    fn schedule(&mut self, time: SimTime, event: usize) {
        self.heap.push(Reverse((time, self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        self.heap
            .pop()
            .map(|Reverse((time, _, event))| (time, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pop for pop against the model: a monotone pre-scheduled run (the
    /// lane's case) and an arbitrary schedule (mostly the heap's), both
    /// over a few distinct instants so lane and heap tie often, then
    /// popped handlers scheduling again at or after the clock. After
    /// every step the popped event, `peek_time`, `len` and `is_empty`
    /// agree.
    #[test]
    fn the_lane_queue_pops_as_the_heap_model(
        run in prop::collection::vec(0u64..23, 0..120),
        loose in prop::collection::vec(0u64..23, 0..120),
        interleave in 0u64..u64::MAX,
        handlers in prop::collection::vec((0u64..23, 0u8..3), 1..64),
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model = HeapModel::default();
        let mut run = run;
        run.sort_unstable();
        // Interleave the two inputs under the mask, so heap pushes land
        // between lane appends as well as after them.
        let (mut i, mut j, mut next_id) = (0, 0, 0usize);
        while i < run.len() || j < loose.len() {
            let bit = (i + j) % 64;
            let from_run = j == loose.len() || (i < run.len() && interleave >> bit & 1 == 0);
            let time = if from_run {
                i += 1;
                run[i - 1]
            } else {
                j += 1;
                loose[j - 1]
            };
            q.schedule(t(time), next_id);
            model.schedule(t(time), next_id);
            next_id += 1;
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.peek_time());
        }
        let mut pops = 0usize;
        loop {
            let (got, want) = (q.pop(), model.pop());
            prop_assert_eq!(got, want, "diverged after {} pops", pops);
            pops += 1;
            let Some((now, event)) = got else { break };
            // A popped handler schedules 0-2 follow-ups at or after the
            // clock, ties with pending events included.
            let (dt, count) = handlers[event % handlers.len()];
            if pops < 400 {
                for k in 0..u64::from(count) {
                    let at = now + SimDuration::from_micros((dt + k) % 23);
                    q.schedule(at, next_id);
                    model.schedule(at, next_id);
                    next_id += 1;
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.len() == 0);
            prop_assert_eq!(q.peek_time(), model.peek_time());
        }
        prop_assert!(q.is_empty());
    }
}
