//! The priority-ordered event queue behind a loop.
//!
//! Almost all traffic in practice is [`Priority::Normal`] (the default), for
//! which priority order degenerates to FIFO. The queue therefore runs a
//! plain `VecDeque` fast lane while every queued event is Normal, and only
//! falls back to the binary heap for the duration of a *mixed episode*: the
//! first non-Normal push migrates the pending fast-lane events into the heap
//! (keeping their sequence numbers, so ordering is unchanged), and once the
//! heap drains the queue reverts to the fast lane.
//!
//! The queue never blocks. It keeps the parker of the thread running its
//! loop (its *owner*) and notifies it after every push and on close; the
//! loop thread pops with [`EventQueue::try_pop`] and parks on its own
//! parker when the queue is empty (see [`crate::parker`]).

use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use pyjama_sync::Mutex;

use crate::event::{Event, Priority};
use crate::parker::WakeSignal;

/// Queue entry ordering: priority first, then FIFO by sequence number.
struct Entry {
    priority: Priority,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority wins; within a priority, lower seq
        // (older) wins, so reverse the seq comparison.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Inner {
    /// FIFO fast lane, holding `(seq, event)` pairs. Non-empty only while
    /// `mixed` is false (i.e. every queued event is `Priority::Normal`).
    fifo: VecDeque<(u64, Event)>,
    /// Priority heap, used only during a mixed episode (`mixed` is true).
    heap: BinaryHeap<Entry>,
    /// True while a non-Normal event has been seen and the heap has not yet
    /// drained. Exactly one of `fifo`/`heap` is in use at a time.
    mixed: bool,
    next_seq: u64,
    closed: bool,
    /// Parker of the thread running the loop, notified (after the lock is
    /// released) on every push and on close.
    owner: Option<Arc<WakeSignal>>,
}

impl Inner {
    /// Removes the next event in dispatch order from whichever lane is
    /// active, reverting to the fast lane once the heap drains.
    fn take_next(&mut self) -> Option<Event> {
        if self.mixed {
            let e = self.heap.pop().map(|e| e.event);
            if self.heap.is_empty() {
                self.mixed = false;
            }
            e
        } else {
            self.fifo.pop_front().map(|(_, e)| e)
        }
    }

    fn queued(&self) -> usize {
        self.fifo.len() + self.heap.len()
    }
}

/// A thread-safe event queue with priorities and close.
///
/// Closing the queue rejects later pushes and wakes the owner; remaining
/// events can still be drained.
pub struct EventQueue {
    inner: Mutex<Inner>,
}

impl EventQueue {
    /// Creates an empty, open queue.
    pub fn new() -> Self {
        EventQueue {
            inner: Mutex::new(Inner {
                fifo: VecDeque::new(),
                heap: BinaryHeap::new(),
                mixed: false,
                next_seq: 0,
                closed: false,
                owner: None,
            }),
        }
    }

    /// Enqueues an event. Returns `false` (dropping the event) if the queue
    /// is closed.
    pub fn push(&self, event: Event) -> bool {
        let mut g = self.inner.lock();
        if g.closed {
            return false;
        }
        let seq = g.next_seq;
        g.next_seq += 1;
        let priority = event.priority();
        if !g.mixed && priority == Priority::Normal {
            g.fifo.push_back((seq, event));
        } else {
            if !g.mixed {
                // First non-Normal event: begin a mixed episode. Migrate the
                // pending fast-lane events with their original sequence
                // numbers, so relative order is exactly what the heap alone
                // would have produced.
                g.mixed = true;
                let inner = &mut *g;
                for (s, e) in inner.fifo.drain(..) {
                    inner.heap.push(Entry {
                        priority: Priority::Normal,
                        seq: s,
                        event: e,
                    });
                }
            }
            g.heap.push(Entry {
                priority,
                seq,
                event,
            });
        }
        let owner = g.owner.clone();
        drop(g);
        if let Some(o) = owner {
            o.notify();
        }
        true
    }

    /// Removes the highest-priority event without blocking.
    pub fn try_pop(&self) -> Option<Event> {
        self.inner.lock().take_next()
    }

    /// Drains up to `max` events in dispatch order under a single lock
    /// acquisition, appending them to `out`. Returns the number taken.
    ///
    /// Batching amortises the lock handshake across events: a pump that
    /// would otherwise lock once per event locks once per batch. Order is
    /// identical to `max` consecutive [`try_pop`](Self::try_pop) calls.
    pub fn try_pop_batch(&self, max: usize, out: &mut Vec<Event>) -> usize {
        if max == 0 {
            return 0;
        }
        let mut g = self.inner.lock();
        let mut taken = 0;
        while taken < max {
            match g.take_next() {
                Some(e) => {
                    out.push(e);
                    taken += 1;
                }
                None => break,
            }
        }
        taken
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.inner.lock().queued()
    }

    /// True while the queue is running on the FIFO fast lane (no non-Normal
    /// event queued since the last time the heap drained). Exposed for tests
    /// and diagnostics; dispatch order does not depend on it.
    pub fn is_fast_path(&self) -> bool {
        !self.inner.lock().mixed
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: future pushes are rejected and the owner wakes to
    /// observe it.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.wake_owner();
    }

    /// Wakes the owner without an event: it re-reads its timers and its
    /// quit flag.
    pub(crate) fn wake_owner(&self) {
        let owner = self.inner.lock().owner.clone();
        if let Some(o) = owner {
            o.notify();
        }
    }

    /// Makes `owner` the parker notified on push and close; returns the
    /// previous one. The thread running the loop installs its own.
    pub(crate) fn set_owner(&self, owner: Option<Arc<WakeSignal>>) -> Option<Arc<WakeSignal>> {
        std::mem::replace(&mut self.inner.lock().owner, owner)
    }

    /// True once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn noop() -> Event {
        Event::new(|| {})
    }

    #[test]
    fn fifo_within_priority() {
        let q = EventQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let order = Arc::clone(&order);
            q.push(Event::new(move || order.lock().push(i)));
        }
        while let Some(e) = q.try_pop() {
            e.dispatch();
        }
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn high_priority_jumps_queue() {
        let q = EventQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        q.push(Event::new(move || o.lock().push("normal")));
        let o = Arc::clone(&order);
        q.push(Event::new(move || o.lock().push("high")).with_priority(Priority::High));
        let o = Arc::clone(&order);
        q.push(Event::new(move || o.lock().push("low")).with_priority(Priority::Low));
        while let Some(e) = q.try_pop() {
            e.dispatch();
        }
        assert_eq!(*order.lock(), vec!["high", "normal", "low"]);
    }

    /// A short park that reports whether a permit was pending or arrived.
    fn woken(owner: &WakeSignal) -> bool {
        owner.park_until(Instant::now() + Duration::from_millis(10))
    }

    #[test]
    fn push_and_close_notify_the_owner_only() {
        let q = EventQueue::new();
        let owner = Arc::new(WakeSignal::new());
        q.push(noop());
        assert!(q.set_owner(Some(Arc::clone(&owner))).is_none());
        assert!(!woken(&owner), "a push before the owner was set notifies nobody");
        q.push(noop());
        assert!(woken(&owner), "push must notify the owner");
        assert!(!woken(&owner), "one push, one permit");
        q.close();
        assert!(woken(&owner), "close must notify the owner");
        let prev = q.set_owner(None).expect("owner installed");
        assert!(Arc::ptr_eq(&prev, &owner));
        q.wake_owner();
        assert!(!woken(&owner), "a removed owner is not notified");
    }

    #[test]
    fn close_rejects_push_and_allows_draining_remaining() {
        let q = EventQueue::new();
        q.push(noop());
        q.push(noop());
        q.close();
        assert!(q.is_closed());
        assert!(!q.push(noop()));
        assert!(q.try_pop().is_some());
        assert!(q.try_pop().is_some());
        assert!(q.try_pop().is_none());
    }

    /// Four producers, one owner that parks whenever the queue is empty:
    /// every push after the owner's failed pop must wake it.
    #[test]
    fn parked_owner_dispatches_every_concurrent_push() {
        let q = Arc::new(EventQueue::new());
        let dispatched = Arc::new(AtomicUsize::new(0));
        const N: usize = 2_000;
        let consumer = {
            let q = Arc::clone(&q);
            let d = Arc::clone(&dispatched);
            std::thread::spawn(move || {
                let me = crate::parker::current();
                q.set_owner(Some(Arc::clone(&me)));
                while d.load(Ordering::Relaxed) < N {
                    match q.try_pop() {
                        Some(e) => e.dispatch(),
                        None => me.park(),
                    }
                }
            })
        };
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let d = Arc::clone(&dispatched);
                std::thread::spawn(move || {
                    for _ in 0..N / 4 {
                        let d = Arc::clone(&d);
                        q.push(Event::new(move || {
                            d.fetch_add(1, Ordering::Relaxed);
                        }));
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        consumer.join().unwrap();
        assert_eq!(dispatched.load(Ordering::Relaxed), N);
    }

    #[test]
    fn mixed_episode_migrates_fast_lane_and_reverts_after_drain() {
        let q = EventQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let o = Arc::clone(&order);
            q.push(Event::new(move || o.lock().push(i)));
        }
        assert!(q.is_fast_path(), "normal-only traffic stays on the fast lane");

        let o = Arc::clone(&order);
        q.push(Event::new(move || o.lock().push(99)).with_priority(Priority::High));
        assert!(!q.is_fast_path(), "a non-Normal push starts a mixed episode");
        for i in 3..5 {
            let o = Arc::clone(&order);
            q.push(Event::new(move || o.lock().push(i)));
        }
        assert_eq!(q.len(), 6);

        while let Some(e) = q.try_pop() {
            e.dispatch();
        }
        // The high event jumps the queue; the migrated fast-lane events and
        // the mid-episode normals keep their original FIFO order.
        assert_eq!(*order.lock(), vec![99, 0, 1, 2, 3, 4]);
        assert!(q.is_fast_path(), "draining the heap ends the episode");

        // Post-episode traffic is FIFO again without heap involvement.
        order.lock().clear();
        for i in 0..4 {
            let o = Arc::clone(&order);
            q.push(Event::new(move || o.lock().push(i)));
        }
        assert!(q.is_fast_path());
        while let Some(e) = q.try_pop() {
            e.dispatch();
        }
        assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn low_priority_alone_still_forces_heap_order() {
        let q = EventQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        q.push(Event::new(move || o.lock().push("low")).with_priority(Priority::Low));
        assert!(!q.is_fast_path(), "Low is non-Normal and must use the heap");
        let o = Arc::clone(&order);
        q.push(Event::new(move || o.lock().push("normal")));
        while let Some(e) = q.try_pop() {
            e.dispatch();
        }
        assert_eq!(*order.lock(), vec!["normal", "low"]);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let q = EventQueue::new();
        assert!(q.is_empty());
        q.push(noop());
        q.push(noop());
        assert_eq!(q.len(), 2);
        q.try_pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn batch_pop_preserves_dispatch_order() {
        let q = EventQueue::new();
        let order = Arc::new(pyjama_sync::Mutex::new(Vec::new()));
        for i in 0..5 {
            let o = Arc::clone(&order);
            q.push(Event::new(move || o.lock().push(i)));
        }
        let mut batch = Vec::new();
        assert_eq!(q.try_pop_batch(3, &mut batch), 3);
        assert_eq!(q.try_pop_batch(10, &mut batch), 2);
        assert_eq!(q.try_pop_batch(1, &mut batch), 0, "drained");
        for e in batch {
            e.dispatch();
        }
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn batch_pop_respects_priority_lanes() {
        let q = EventQueue::new();
        let order = Arc::new(pyjama_sync::Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        q.push(Event::new(move || o.lock().push("normal")));
        let o = Arc::clone(&order);
        q.push(Event::new(move || o.lock().push("high")).with_priority(Priority::High));
        let mut batch = Vec::new();
        assert_eq!(q.try_pop_batch(8, &mut batch), 2);
        for e in batch {
            e.dispatch();
        }
        assert_eq!(*order.lock(), vec!["high", "normal"]);
    }
}
