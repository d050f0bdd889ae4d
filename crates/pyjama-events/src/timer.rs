//! Delayed events: a deadline-ordered timer queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use pyjama_sync::Mutex;

use crate::event::Event;

struct TimerEntry {
    deadline: Instant,
    seq: u64,
    event: Event,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deadline
            .cmp(&other.deadline)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A thread-safe min-heap of (deadline, event) pairs.
///
/// The event loop integrates this: before blocking on the main queue it asks
/// [`TimerQueue::next_deadline`] and wakes in time to
/// [`drain_due`](TimerQueue::drain_due) expired
/// timers into the dispatch path.
pub struct TimerQueue {
    inner: Mutex<TimerState>,
}

struct TimerState {
    heap: BinaryHeap<Reverse<TimerEntry>>,
    next_seq: u64,
    closed: bool,
}

impl TimerQueue {
    /// Creates an empty timer queue.
    pub fn new() -> Self {
        TimerQueue {
            inner: Mutex::new(TimerState {
                heap: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
            }),
        }
    }

    /// Schedules `event` to become due after `delay`.
    pub fn schedule(&self, delay: Duration, event: Event) {
        self.schedule_at(Instant::now() + delay, event);
    }

    /// Schedules `event` to become due at `deadline`. After
    /// [`close`](Self::close) the event is dropped instead.
    pub fn schedule_at(&self, deadline: Instant, event: Event) {
        let mut g = self.inner.lock();
        if g.closed {
            drop(g);
            drop(event);
            return;
        }
        let seq = g.next_seq;
        g.next_seq += 1;
        g.heap.push(Reverse(TimerEntry {
            deadline,
            seq,
            event,
        }));
    }

    /// Earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.inner.lock().heap.peek().map(|Reverse(e)| e.deadline)
    }

    /// Removes and returns all events whose deadline is at or before `now`,
    /// in deadline order.
    pub fn drain_due(&self, now: Instant) -> Vec<Event> {
        let mut g = self.inner.lock();
        let mut due = Vec::new();
        while let Some(Reverse(top)) = g.heap.peek() {
            if top.deadline <= now {
                let Reverse(e) = g.heap.pop().expect("peeked entry exists");
                due.push(e.event);
            } else {
                break;
            }
        }
        due
    }

    /// Drops every pending timer and every one scheduled from now on. The
    /// events are dropped outside the lock: their captures may run
    /// arbitrary code when dropped, scheduling included.
    pub fn close(&self) {
        let heap = {
            let mut g = self.inner.lock();
            g.closed = true;
            std::mem::take(&mut g.heap)
        };
        drop(heap);
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.inner.lock().heap.len()
    }

    /// True when no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TimerQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyjama_sync::Mutex as PMutex;
    use std::sync::Arc;

    #[test]
    fn due_events_drain_in_deadline_order() {
        let tq = TimerQueue::new();
        let order = Arc::new(PMutex::new(Vec::new()));
        let now = Instant::now();
        for (delay_ms, tag) in [(30u64, "c"), (10, "a"), (20, "b")] {
            let order = Arc::clone(&order);
            tq.schedule_at(
                now + Duration::from_millis(delay_ms),
                Event::new(move || order.lock().push(tag)),
            );
        }
        for e in tq.drain_due(now + Duration::from_millis(25)) {
            e.dispatch();
        }
        assert_eq!(*order.lock(), vec!["a", "b"]);
        assert_eq!(tq.len(), 1);
    }

    #[test]
    fn nothing_due_before_deadline() {
        let tq = TimerQueue::new();
        tq.schedule(Duration::from_secs(60), Event::new(|| {}));
        assert!(tq.drain_due(Instant::now()).is_empty());
        assert_eq!(tq.len(), 1);
    }

    #[test]
    fn next_deadline_is_minimum() {
        let tq = TimerQueue::new();
        assert!(tq.next_deadline().is_none());
        let now = Instant::now();
        tq.schedule_at(now + Duration::from_millis(50), Event::new(|| {}));
        tq.schedule_at(now + Duration::from_millis(10), Event::new(|| {}));
        let d = tq.next_deadline().unwrap();
        assert!(d <= now + Duration::from_millis(10));
    }

    #[test]
    fn equal_deadlines_fifo() {
        let tq = TimerQueue::new();
        let order = Arc::new(PMutex::new(Vec::new()));
        let deadline = Instant::now();
        for i in 0..3 {
            let order = Arc::clone(&order);
            tq.schedule_at(deadline, Event::new(move || order.lock().push(i)));
        }
        for e in tq.drain_due(deadline) {
            e.dispatch();
        }
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }
}
