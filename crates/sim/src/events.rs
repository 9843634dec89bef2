//! The discrete-event core shared by the SHARD simulator and the
//! serializable baseline.
//!
//! Events are ordered by `(time, sequence-number)`: ties in simulated
//! time resolve in insertion order, which keeps runs deterministic for a
//! fixed seed and schedule.
//!
//! A run knows its client schedule up front — thousands of invocations —
//! while far fewer messages and ticks are in flight at once. So the
//! queue keeps two sources: a heap for what is scheduled as the run goes,
//! and the schedule loaded in one call ([`EventQueue::schedule_all`]),
//! sorted once and read from its front. `pop` takes the smaller head of
//! the two by `(time, seq)`, which is exactly the order scheduling every
//! event one by one gives; the heap's sifts then cost the log of what is
//! in flight, not of the whole schedule.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulated time in abstract ticks (the experiments treat one tick as a
/// millisecond, but nothing depends on the unit).
pub type SimTime = u64;

/// A time-ordered event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// The bulk-loaded schedule, ascending by `(time, seq)`.
    sorted: VecDeque<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            sorted: VecDeque::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq();
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Schedules every `(time, event)` of `schedule`, in the order given
    /// — pops come out exactly as if each had been
    /// [`schedule`](EventQueue::schedule)d in turn — but without sifting
    /// any of them through the heap: the batch is sorted once and merged
    /// with the heap as the queue is popped.
    pub fn schedule_all(&mut self, schedule: impl IntoIterator<Item = (SimTime, E)>) {
        for (time, event) in schedule {
            let seq = self.next_seq();
            self.sorted.push_back(Entry { time, seq, event });
        }
        // Keys are unique, so any sort is the stable one; a schedule
        // that arrives in time order is one ascending run.
        self.sorted
            .make_contiguous()
            .sort_unstable_by_key(Entry::key);
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_heap = match (self.heap.peek(), self.sorted.front()) {
            (Some(Reverse(h)), Some(s)) => h < s,
            (heap, _) => heap.is_some(),
        };
        let e = if from_heap {
            self.heap.pop().map(|Reverse(e)| e)
        } else {
            self.sorted.pop_front()
        }?;
        Some((e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.sorted.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(7, ());
        q.schedule(3, ());
        q.schedule_all([(9, ()), (1, ())]);
        assert_eq!(q.len(), 4);
        q.pop();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(10, "x");
        assert_eq!(q.pop(), Some((10, "x")));
        q.schedule(5, "y");
        q.schedule(1, "z");
        assert_eq!(q.pop(), Some((1, "z")));
        q.schedule(2, "w");
        assert_eq!(q.pop(), Some((2, "w")));
        assert_eq!(q.pop(), Some((5, "y")));
    }

    /// What the kernel relies on: an event scheduled before the bulk
    /// load wins a tie against it (a crash window's kill), one scheduled
    /// after loses (a delivery held to the same tick).
    #[test]
    fn bulk_ties_keep_scheduling_order() {
        let mut q = EventQueue::new();
        q.schedule(5, "kill");
        q.schedule_all([(5, "invoke"), (3, "early")]);
        q.schedule(5, "tick");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [(3, "early"), (5, "kill"), (5, "invoke"), (5, "tick")]
        );
    }

    /// How one event enters the queue, in a scripted run.
    #[derive(Clone, Debug)]
    enum Step {
        /// One `schedule` at this time.
        Schedule(SimTime),
        /// One pop, then a `schedule` at the popped time plus this
        /// delay — an event scheduled while the queue drains.
        PopThenSchedule(SimTime),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u64..20).prop_map(Step::Schedule),
            (0u64..6).prop_map(Step::PopThenSchedule),
        ]
    }

    proptest! {
        /// A bulk-loaded schedule, with events scheduled before it and
        /// while popping — small time ranges, so ties are everywhere —
        /// pops in exactly the order scheduling each event one by one
        /// gives.
        #[test]
        fn bulk_load_pops_like_one_by_one_scheduling(
            before in proptest::collection::vec(0u64..20, 0..8),
            bulk in proptest::collection::vec(0u64..20, 0..40),
            steps in proptest::collection::vec(step(), 0..60),
        ) {
            let mut one = EventQueue::new();
            let mut all = EventQueue::new();
            let mut id = 0usize;
            let mut fresh = || { id += 1; id };
            for &t in &before {
                let e = fresh();
                one.schedule(t, e);
                all.schedule(t, e);
            }
            let batch: Vec<(SimTime, usize)> = bulk.iter().map(|&t| (t, fresh())).collect();
            for &(t, e) in &batch {
                one.schedule(t, e);
            }
            all.schedule_all(batch);
            prop_assert_eq!(one.len(), all.len());
            for s in &steps {
                match *s {
                    Step::Schedule(t) => {
                        let e = fresh();
                        one.schedule(t, e);
                        all.schedule(t, e);
                    }
                    Step::PopThenSchedule(delay) => {
                        let popped = one.pop();
                        prop_assert_eq!(popped, all.pop());
                        if let Some((now, _)) = popped {
                            let e = fresh();
                            one.schedule(now + delay, e);
                            all.schedule(now + delay, e);
                        }
                    }
                }
                prop_assert_eq!(one.len(), all.len());
            }
            while let Some(popped) = one.pop() {
                prop_assert_eq!(Some(popped), all.pop());
            }
            prop_assert!(all.is_empty());
        }
    }
}
