//! The pending-event queue both engines run on: a std [`BinaryHeap`]
//! ordered by `(timestamp, FIFO insertion sequence)`.
//!
//! `seq` is unique per entry, so `(at, seq)` is a total order that never
//! looks at the payload: two runs that schedule the same events in the
//! same order pop them in the same order, which is what every
//! fingerprint in the repo rests on. Schedules are clamped to the time
//! of the most recent pop, so the clock is monotone.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry; the ordering ignores the payload entirely.
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    /// Reversed `(at, seq)` so `BinaryHeap`'s max-heap pops the minimum.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic `(SimTime, FIFO seq)` priority queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Time of the most recent pop; schedules are clamped to it.
    now: u64,
    /// FIFO counter: ties on `at` pop in insertion order.
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    /// Time of the most recent pop (events before this are gone).
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.now)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at `at` (clamped to `now`), assigning it the next
    /// FIFO position.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.seq += 1;
        self.heap.push(Entry {
            at: at.as_micros().max(self.now),
            seq: self.seq,
            event,
        });
    }

    /// Time of the next pending event without mutating the queue.
    #[inline]
    pub fn peek_min_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| SimTime(e.at))
    }

    /// Pops the earliest event if its time is `<= limit`.
    #[inline]
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.at > limit.as_micros() {
            return None;
        }
        let e = self.heap.pop().expect("peeked entry must pop");
        self.now = e.at;
        Some((SimTime(e.at), e.event))
    }

    /// Pops the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference queue: a `Vec` kept stable-sorted by time, so ties sit
    /// in insertion order by construction.
    struct SortedRef {
        now: u64,
        items: Vec<(u64, u32)>,
    }

    impl SortedRef {
        fn schedule(&mut self, at: u64, event: u32) {
            self.items.push((at.max(self.now), event));
            self.items.sort_by_key(|&(at, _)| at);
        }
        fn pop_until(&mut self, limit: u64) -> Option<(SimTime, u32)> {
            if self.items.first()?.0 > limit {
                return None;
            }
            let (at, event) = self.items.remove(0);
            self.now = at;
            Some((SimTime(at), event))
        }
    }

    #[test]
    fn ties_pop_in_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(50), 1u32);
        q.schedule(SimTime(10), 2);
        q.schedule(SimTime(50), 3);
        q.schedule(SimTime(10), 4);
        let got: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(at, ev)| (at.as_micros(), ev))
            .collect();
        assert_eq!(got, vec![(10, 2), (10, 4), (50, 1), (50, 3)]);
        assert!(q.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any interleaving of schedules (ties, near / mid / far /
        /// 2^45-range deltas, past times that clamp) and bounded pops, the
        /// queue pops the identical sequence to the sorted-`Vec` reference.
        #[test]
        fn pops_identically_to_sorted_vec_reference(ops in proptest::collection::vec(
            (0u8..8, any::<u64>()), 1..200usize,
        )) {
            let mut q = EventQueue::new();
            let mut reference = SortedRef { now: 0, items: Vec::new() };
            let mut payload = 0u32;
            for (kind, raw) in ops {
                match kind {
                    // Schedule at now + tie / near / mid / far / 2^45 delta.
                    0..=4 => {
                        let delta = match kind {
                            0 => raw % 4,
                            1 => raw % 64,
                            2 => raw % 100_000,
                            3 => raw % (1 << 36),
                            _ => raw % (1 << 45),
                        };
                        payload += 1;
                        let at = q.now().as_micros().saturating_add(delta);
                        q.schedule(SimTime(at), payload);
                        reference.schedule(at, payload);
                    }
                    // Schedule at an absolute (possibly past) time: clamps.
                    5 => {
                        payload += 1;
                        let at = raw % 200_000;
                        q.schedule(SimTime(at), payload);
                        reference.schedule(at, payload);
                    }
                    // Pop a bounded batch.
                    _ => {
                        let head = reference.items.first().map(|&(at, _)| at);
                        prop_assert_eq!(q.peek_min_at(), head.map(SimTime));
                        let limit = head.map_or(0, |at| at.saturating_add(raw % 5_000));
                        for _ in 0..(raw % 8 + 1) {
                            prop_assert_eq!(
                                q.pop_until(SimTime(limit)),
                                reference.pop_until(limit)
                            );
                        }
                    }
                }
                prop_assert_eq!(q.len(), reference.items.len());
                prop_assert_eq!(q.now().as_micros(), reference.now);
            }
            // Drain: full order must match exactly.
            loop {
                let got = q.pop();
                prop_assert_eq!(got, reference.pop_until(u64::MAX));
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
