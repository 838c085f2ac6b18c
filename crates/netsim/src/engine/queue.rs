//! The event queue: a `(time, seq)`-ordered priority queue with a FIFO
//! bucket fast path for events scheduled at the current instant.
//!
//! Same-instant cascades dominate sparse transfer graphs (a delivery
//! readies its dependents *now*, a recovery re-readies every parked
//! injection *now*), and routing those through the binary heap costs a
//! sift per event. The bucket holds them in push order instead: pushes
//! at exactly the current instant append to a FIFO, and `pop` merges
//! heap and bucket by the same `(time, seq)` key the heap alone used to
//! enforce — so the pop sequence is bit-for-bit the one a pure heap
//! would produce.
//!
//! Safety of the merge: events are never scheduled in the past, so once
//! an entry at time `t` has been popped (making `t` the bucket instant),
//! every entry still in the heap has time `>= t`. Heap entries at
//! exactly `t` were pushed *before* the bucket opened at `t` and thus
//! carry smaller sequence numbers than anything in the bucket; the
//! comparison in [`EventQueue::pop`] orders them first.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A simulation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    /// Dependencies satisfied: enter the source node's injection queue.
    Ready(u32),
    /// Sender CPU finished injecting: the flow goes live.
    InjectionDone(u32),
    /// Possible flow completion; valid only for the tagged rate epoch.
    FlowCheck { epoch: u64 },
    /// Transfer delivered at the destination.
    Delivered(u32),
    /// Scheduled fault (index into the run's `FaultPlan`).
    Fault(u32),
}

/// Time ordering key: total order on f64 plus a sequence number so
/// simultaneous events process in creation order (determinism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub time: f64,
    pub seq: u64,
    pub event: Event,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Events at exactly `bucket_time`, in push (= seq) order.
    bucket: VecDeque<Entry>,
    bucket_time: f64,
    seq: u64,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue {
            heap: BinaryHeap::new(),
            bucket: VecDeque::new(),
            bucket_time: 0.0,
            seq: 0,
        }
    }

    /// Schedule `event` at `time`. Sequence numbers are assigned in push
    /// order; ties in time resolve in favor of the earlier push.
    pub fn push(&mut self, time: f64, event: Event) {
        debug_assert!(time.is_finite() && time >= 0.0);
        self.seq += 1;
        let e = Entry {
            time,
            seq: self.seq,
            event,
        };
        if time == self.bucket_time {
            self.bucket.push_back(e);
        } else {
            self.heap.push(Reverse(e));
        }
    }

    /// Pop the earliest event by `(time, seq)`.
    pub fn pop(&mut self) -> Option<Entry> {
        let take_heap = match (self.heap.peek(), self.bucket.front()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(Reverse(h)), Some(b)) => h.time < b.time || (h.time == b.time && h.seq < b.seq),
        };
        let e = if take_heap {
            let Reverse(e) = self.heap.pop().unwrap();
            e
        } else {
            self.bucket.pop_front().unwrap()
        };
        self.bucket_time = e.time;
        Some(e)
    }

    /// True when no pending event shares the instant `now` — the epoch
    /// boundary test that batches rate recomputation.
    pub fn is_boundary(&self, now: f64) -> bool {
        self.heap
            .peek()
            .map(|Reverse(e)| e.time > now)
            .unwrap_or(true)
            && self.bucket.front().map(|e| e.time > now).unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(2.0, Event::Ready(0));
        q.push(1.0, Event::Ready(1));
        q.push(1.0, Event::Ready(2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(
            order,
            vec![Event::Ready(1), Event::Ready(2), Event::Ready(0)]
        );
    }

    #[test]
    fn same_instant_pushes_are_fifo_behind_earlier_heap_entries() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::Ready(0));
        q.push(1.0, Event::Ready(1));
        // Pop the first entry at t=1; the bucket instant is now 1.0 and
        // Ready(1) is still pending in the heap.
        assert_eq!(q.pop().unwrap().event, Event::Ready(0));
        // Same-instant pushes go to the bucket but must pop *after* the
        // older heap entry at the same time.
        q.push(1.0, Event::Ready(2));
        q.push(1.0, Event::Ready(3));
        assert!(!q.is_boundary(1.0));
        assert_eq!(q.pop().unwrap().event, Event::Ready(1));
        assert_eq!(q.pop().unwrap().event, Event::Ready(2));
        assert_eq!(q.pop().unwrap().event, Event::Ready(3));
        assert!(q.is_boundary(1.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn boundary_sees_bucket_and_heap() {
        let mut q = EventQueue::new();
        q.push(0.0, Event::Ready(0)); // bucket (bucket_time starts at 0)
        q.push(5.0, Event::Ready(1)); // heap
        assert!(!q.is_boundary(0.0));
        let e = q.pop();
        assert_eq!(e.unwrap().time, 0.0);
        assert!(q.is_boundary(0.0));
        assert!(!q.is_boundary(5.0));
    }
}
