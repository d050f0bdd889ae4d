//! The loop's one queue: ready events and timers under one lock.
//!
//! A loop holds one [`EventQueue`]: a FIFO lane per
//! [`Priority`](crate::Priority), a heap of delayed events ordered by
//! deadline, the `closed` flag and the parker of the thread running the
//! loop (its *owner*). One step, [`EventQueue::next`],
//! decides what the loop dispatches next under a single lock hold: the
//! earliest due timer; else the oldest event of the highest non-empty lane;
//! else the deadline to park until. `run`, `run_until_idle` and the
//! re-entrant pump all dispatch through it, so they agree on the order.
//! Only `run` stops at a close: the other two still drain what a closed
//! queue holds, so a handler awaiting a round trip through its own loop
//! finishes after `quit`.
//!
//! The queue never blocks. A post, a schedule and a close notify the owner
//! from one place, after the lock is released; the loop thread parks on
//! its own parker when `next` finds nothing due (see [`crate::parker`]).

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use pyjama_sync::{Mutex, MutexGuard};

use crate::event::Event;
use crate::parker::WakeSignal;

/// A delayed event. Ordered by deadline, then by schedule order, so equal
/// deadlines fire FIFO.
struct Timer {
    deadline: Instant,
    seq: u64,
    event: Event,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// What [`EventQueue::next`] found.
pub(crate) enum Next {
    /// A timer whose deadline has passed.
    Timer(Event),
    /// The oldest event of the highest non-empty lane.
    Ready(Event),
    /// Nothing to dispatch.
    Idle(Idle),
}

/// Why [`EventQueue::next`] found nothing to dispatch.
pub(crate) enum Idle {
    /// Nothing is due before this deadline (`None`: no timer is pending).
    Until(Option<Instant>),
    /// The loop has quit (reported only to a caller that stops at close).
    Closed,
}

struct Inner {
    /// One FIFO lane per priority, indexed by `Priority as usize`.
    lanes: [VecDeque<Event>; 3],
    timers: BinaryHeap<Reverse<Timer>>,
    next_seq: u64,
    closed: bool,
    /// Parker of the thread running the loop.
    owner: Option<Arc<WakeSignal>>,
}

/// A loop's ready events and timers.
///
/// Closing the queue rejects later posts and schedules. What is still
/// queued stays until [`clear`](Self::clear), and [`next`](Self::next)
/// still hands it out unless its caller stops at close.
pub(crate) struct EventQueue {
    inner: Mutex<Inner>,
}

impl EventQueue {
    /// Creates an empty, open queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            inner: Mutex::new(Inner {
                lanes: Default::default(),
                timers: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
                owner: None,
            }),
        }
    }

    /// Enqueues an event in its priority's lane. A closed queue hands the
    /// event back.
    pub(crate) fn push(&self, event: Event) -> Result<(), Event> {
        let mut g = self.inner.lock();
        if g.closed {
            return Err(event);
        }
        g.lanes[event.priority() as usize].push_back(event);
        notify_owner(g);
        Ok(())
    }

    /// Schedules `event` to become due at `deadline`, which is also the
    /// time its queueing latency counts from. A closed queue hands the
    /// event back.
    pub(crate) fn schedule_at(&self, deadline: Instant, mut event: Event) -> Result<(), Event> {
        let mut g = self.inner.lock();
        if g.closed {
            return Err(event);
        }
        event.fired_at = deadline;
        let seq = g.next_seq;
        g.next_seq += 1;
        g.timers.push(Reverse(Timer {
            deadline,
            seq,
            event,
        }));
        // The owner re-reads its (possibly earlier) deadline.
        notify_owner(g);
        Ok(())
    }

    /// The loop's one dispatch step: [`Idle::Closed`] if the queue is
    /// closed and the caller `stops_at_close`; else the earliest timer due
    /// at `now`; else the oldest event of the highest non-empty lane; else
    /// the deadline to park until.
    pub(crate) fn next(&self, now: Instant, stops_at_close: bool) -> Next {
        let mut g = self.inner.lock();
        if stops_at_close && g.closed {
            return Next::Idle(Idle::Closed);
        }
        if g.timers.peek().is_some_and(|t| t.0.deadline <= now) {
            let Reverse(t) = g.timers.pop().expect("peeked timer exists");
            return Next::Timer(t.event);
        }
        match g.lanes.iter_mut().rev().find_map(VecDeque::pop_front) {
            Some(e) => Next::Ready(e),
            None => Next::Idle(Idle::Until(g.timers.peek().map(|t| t.0.deadline))),
        }
    }

    /// Earliest pending deadline, if any.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.inner.lock().timers.peek().map(|t| t.0.deadline)
    }

    /// Number of queued events, not counting timers.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().lanes.iter().map(VecDeque::len).sum()
    }

    /// Closes the queue: later posts and schedules are rejected and the
    /// owner wakes to observe it.
    pub(crate) fn close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        notify_owner(g);
    }

    /// Closes the queue and drops everything still queued. The events are
    /// dropped outside the lock: their captures may run arbitrary code when
    /// dropped, posting included.
    pub(crate) fn clear(&self) {
        let taken = {
            let mut g = self.inner.lock();
            g.closed = true;
            (std::mem::take(&mut g.lanes), std::mem::take(&mut g.timers))
        };
        drop(taken);
    }

    /// Makes `owner` the parker notified on post, schedule and close;
    /// returns the previous one. The thread running the loop installs its
    /// own.
    pub(crate) fn set_owner(&self, owner: Option<Arc<WakeSignal>>) -> Option<Arc<WakeSignal>> {
        std::mem::replace(&mut self.inner.lock().owner, owner)
    }
}

/// Releases the lock, then notifies the owner it named.
fn notify_owner(g: MutexGuard<'_, Inner>) {
    let owner = g.owner.clone();
    drop(g);
    if let Some(o) = owner {
        o.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Priority;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn noop() -> Event {
        Event::new(|| {})
    }

    /// Runs every event `next` hands out at `now` and returns the tags they
    /// logged, in dispatch order.
    fn drain<T: Copy>(q: &EventQueue, now: Instant, order: &Mutex<Vec<T>>) -> Vec<T> {
        loop {
            match q.next(now, false) {
                Next::Timer(e) | Next::Ready(e) => e.dispatch(),
                Next::Idle(_) => return std::mem::take(&mut *order.lock()),
            }
        }
    }

    fn tagged<T: Send + 'static>(order: &Arc<Mutex<Vec<T>>>, tag: T) -> Event {
        let o = Arc::clone(order);
        Event::new(move || o.lock().push(tag))
    }

    #[test]
    fn fifo_within_priority() {
        let q = EventQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            q.push(tagged(&order, i)).unwrap();
        }
        assert_eq!(drain(&q, Instant::now(), &order), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn high_priority_jumps_queue() {
        let q = EventQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        q.push(tagged(&order, "normal")).unwrap();
        q.push(tagged(&order, "high").with_priority(Priority::High))
            .unwrap();
        q.push(tagged(&order, "low").with_priority(Priority::Low))
            .unwrap();
        assert_eq!(
            drain(&q, Instant::now(), &order),
            vec!["high", "normal", "low"]
        );
    }

    #[test]
    fn lanes_keep_fifo_order_around_a_high_event() {
        let q = EventQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            q.push(tagged(&order, i)).unwrap();
        }
        q.push(tagged(&order, 99).with_priority(Priority::High))
            .unwrap();
        for i in 3..5 {
            q.push(tagged(&order, i)).unwrap();
        }
        assert_eq!(q.len(), 6);
        assert_eq!(drain(&q, Instant::now(), &order), vec![99, 0, 1, 2, 3, 4]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn low_priority_runs_after_later_normal() {
        let q = EventQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        q.push(tagged(&order, "low").with_priority(Priority::Low))
            .unwrap();
        q.push(tagged(&order, "normal")).unwrap();
        assert_eq!(drain(&q, Instant::now(), &order), vec!["normal", "low"]);
    }

    #[test]
    fn due_timers_run_in_deadline_order() {
        let q = EventQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let now = Instant::now();
        for (delay_ms, tag) in [(30u64, "c"), (10, "a"), (20, "b")] {
            q.schedule_at(now + Duration::from_millis(delay_ms), tagged(&order, tag))
                .unwrap();
        }
        assert_eq!(
            drain(&q, now + Duration::from_millis(25), &order),
            vec!["a", "b"]
        );
        assert_eq!(q.next_deadline(), Some(now + Duration::from_millis(30)));
    }

    #[test]
    fn nothing_due_before_deadline() {
        let q = EventQueue::new();
        let now = Instant::now();
        let deadline = now + Duration::from_secs(60);
        q.schedule_at(deadline, noop()).unwrap();
        assert!(matches!(q.next(now, false), Next::Idle(Idle::Until(Some(d))) if d == deadline));
        assert!(matches!(q.next(deadline, false), Next::Timer(_)));
        assert!(matches!(q.next(deadline, false), Next::Idle(Idle::Until(None))));
    }

    #[test]
    fn next_deadline_is_minimum() {
        let q = EventQueue::new();
        assert!(q.next_deadline().is_none());
        let now = Instant::now();
        q.schedule_at(now + Duration::from_millis(50), noop())
            .unwrap();
        q.schedule_at(now + Duration::from_millis(10), noop())
            .unwrap();
        assert_eq!(q.next_deadline(), Some(now + Duration::from_millis(10)));
    }

    #[test]
    fn equal_deadlines_fifo() {
        let q = EventQueue::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let deadline = Instant::now();
        for i in 0..3 {
            q.schedule_at(deadline, tagged(&order, i)).unwrap();
        }
        assert_eq!(drain(&q, deadline, &order), vec![0, 1, 2]);
    }

    /// A short park that reports whether a permit was pending or arrived.
    fn woken(owner: &WakeSignal) -> bool {
        owner.park_until(Instant::now() + Duration::from_millis(10))
    }

    #[test]
    fn push_schedule_and_close_notify_the_owner_only() {
        let q = EventQueue::new();
        let owner = Arc::new(WakeSignal::new());
        q.push(noop()).unwrap();
        assert!(q.set_owner(Some(Arc::clone(&owner))).is_none());
        assert!(
            !woken(&owner),
            "a push before the owner was set notifies nobody"
        );
        q.push(noop()).unwrap();
        assert!(woken(&owner), "push must notify the owner");
        assert!(!woken(&owner), "one push, one permit");
        q.schedule_at(Instant::now(), noop()).unwrap();
        assert!(woken(&owner), "schedule must notify the owner");
        q.close();
        assert!(woken(&owner), "close must notify the owner");
        let prev = q.set_owner(None).expect("owner installed");
        assert!(Arc::ptr_eq(&prev, &owner));
        q.close();
        assert!(!woken(&owner), "a removed owner is not notified");
    }

    /// A closed queue rejects posts, stops `run` (which stops at close) and
    /// still hands what it holds to the other callers.
    #[test]
    fn close_rejects_push_and_allows_draining_remaining() {
        let q = EventQueue::new();
        q.push(noop()).unwrap();
        q.push(noop()).unwrap();
        q.schedule_at(Instant::now(), noop()).unwrap();
        q.close();
        assert!(
            q.push(noop()).is_err(),
            "a closed queue hands the event back"
        );
        assert!(q.schedule_at(Instant::now(), noop()).is_err());
        let now = Instant::now();
        assert!(matches!(q.next(now, true), Next::Idle(Idle::Closed)));
        assert!(q.next_deadline().is_some(), "the pending timer stays");
        assert!(matches!(q.next(now, false), Next::Timer(_)));
        assert!(matches!(q.next(now, false), Next::Ready(_)));
        assert!(matches!(q.next(now, false), Next::Ready(_)));
        assert!(matches!(q.next(now, false), Next::Idle(Idle::Until(None))));
    }

    #[test]
    fn clear_closes_and_drops_everything_queued() {
        let q = EventQueue::new();
        let dropped = Arc::new(());
        for _ in 0..2 {
            let d = Arc::clone(&dropped);
            q.push(Event::new(move || drop(d))).unwrap();
        }
        let d = Arc::clone(&dropped);
        q.schedule_at(Instant::now(), Event::new(move || drop(d)))
            .unwrap();
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_deadline(), None);
        assert_eq!(Arc::strong_count(&dropped), 1, "clear drops every event");
        assert!(q.push(noop()).is_err(), "a cleared queue is closed");
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
                    match q.next(Instant::now(), false) {
                        Next::Timer(e) | Next::Ready(e) => e.dispatch(),
                        Next::Idle(_) => me.park(),
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
                        }))
                        .unwrap();
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
    fn len_tracks_pushes_and_pops() {
        let q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(noop()).unwrap();
        q.push(noop()).unwrap();
        q.schedule_at(Instant::now() + Duration::from_secs(60), noop())
            .unwrap();
        assert_eq!(q.len(), 2, "timers are not counted");
        assert!(matches!(q.next(Instant::now(), false), Next::Ready(_)));
        assert_eq!(q.len(), 1);
    }
}
