//! The dispatch loop, with re-entrant pumping.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama_metrics::{LatencyRecorder, OccupancyTracker};
use pyjama_trace::{arg as trace_arg, Stage};

use crate::event::{Event, EventId, Priority};
use crate::queue::{EventQueue, QueueWaker};
use crate::timer::TimerQueue;

thread_local! {
    /// Stack of loops running on this thread (normally depth ≤ 1; re-entrant
    /// pumping never pushes, only nested `run` calls would).
    static CURRENT: RefCell<Vec<Arc<Shared>>> = const { RefCell::new(Vec::new()) };
}

/// Counters describing a loop's dispatch history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Events dispatched to completion (including panicked ones).
    pub dispatched: u64,
    /// Handlers that panicked (the loop survives, like AWT).
    pub panicked: u64,
    /// Events dispatched re-entrantly via `pump_once` from inside a handler.
    pub reentrant: u64,
    /// Deepest observed dispatch nesting.
    pub max_depth: u32,
}

pub(crate) struct Shared {
    name: String,
    pub(crate) queue: EventQueue,
    timers: TimerQueue,
    quit: AtomicBool,
    dispatched: AtomicU64,
    panicked: AtomicU64,
    reentrant: AtomicU64,
    depth: AtomicU32,
    max_depth: AtomicU32,
    occupancy: pyjama_sync::Mutex<Option<Arc<OccupancyTracker>>>,
    queue_latency: pyjama_sync::Mutex<Option<Arc<LatencyRecorder>>>,
}

impl Shared {
    fn dispatch(self: &Arc<Self>, event: Event, reentrant: bool) {
        if let Some(lat) = self.queue_latency.lock().clone() {
            lat.record(event.fired_at().elapsed());
        }
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
        let occ = if depth == 1 {
            self.occupancy.lock().clone()
        } else {
            None
        };
        if let Some(ref o) = occ {
            o.enter();
        }
        let trace = event.trace_id();
        pyjama_trace::emit(trace, Stage::EventDispatchBegin, depth);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| event.dispatch()));
        pyjama_trace::emit(
            trace,
            Stage::EventDispatchEnd,
            if result.is_err() {
                trace_arg::END_PANICKED
            } else {
                trace_arg::END_OK
            },
        );
        if let Some(ref o) = occ {
            o.exit();
        }
        self.depth.fetch_sub(1, Ordering::Relaxed);
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        if reentrant {
            self.reentrant.fetch_add(1, Ordering::Relaxed);
        }
        if result.is_err() {
            self.panicked.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Dispatch one due-timer or queued event without blocking.
    pub(crate) fn pump_once(self: &Arc<Self>, reentrant: bool) -> bool {
        for e in self.timers.drain_due(Instant::now()) {
            pyjama_trace::emit(e.trace_id(), Stage::TimerFired, 0);
            self.queue.push(e.with_priority(Priority::High));
        }
        match self.queue.try_pop() {
            Some(e) => {
                self.dispatch(e, reentrant);
                true
            }
            None => false,
        }
    }

    fn stats(&self) -> LoopStats {
        LoopStats {
            dispatched: self.dispatched.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            reentrant: self.reentrant.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed),
        }
    }
}

/// A single-threaded event dispatch loop.
///
/// Create it, hand out [`EventLoopHandle`]s, then call [`run`](Self::run) on
/// the thread that is to become the dispatch thread. `run` returns after
/// [`EventLoopHandle::quit`].
pub struct EventLoop {
    shared: Arc<Shared>,
}

impl EventLoop {
    /// Creates a loop with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        EventLoop {
            shared: Arc::new(Shared {
                name: name.into(),
                queue: EventQueue::new(),
                timers: TimerQueue::new(),
                quit: AtomicBool::new(false),
                dispatched: AtomicU64::new(0),
                panicked: AtomicU64::new(0),
                reentrant: AtomicU64::new(0),
                depth: AtomicU32::new(0),
                max_depth: AtomicU32::new(0),
                occupancy: pyjama_sync::Mutex::new(None),
                queue_latency: pyjama_sync::Mutex::new(None),
            }),
        }
    }

    /// Attaches an occupancy tracker: outermost handler dispatches are
    /// recorded as busy time.
    pub fn attach_occupancy(&self, occ: Arc<OccupancyTracker>) {
        *self.shared.occupancy.lock() = Some(occ);
    }

    /// Attaches a recorder of queueing latency (event fired → dispatch
    /// start).
    pub fn attach_queue_latency(&self, lat: Arc<LatencyRecorder>) {
        *self.shared.queue_latency.lock() = Some(lat);
    }

    /// Returns a clonable, `Send + Sync` handle for posting events.
    pub fn handle(&self) -> EventLoopHandle {
        EventLoopHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the dispatch loop on the current thread until quit.
    ///
    /// While inside a handler, the loop is discoverable via
    /// [`crate::pump::try_pump_current`], which is how the runtime's `await`
    /// mode processes "other event handlers in the system" (§IV-B).
    pub fn run(self) {
        let shared = Arc::clone(&self.shared);
        CURRENT.with(|c| c.borrow_mut().push(Arc::clone(&shared)));
        struct TlsGuard;
        impl Drop for TlsGuard {
            fn drop(&mut self) {
                CURRENT.with(|c| {
                    c.borrow_mut().pop();
                });
            }
        }
        let _g = TlsGuard;

        while !shared.quit.load(Ordering::SeqCst) {
            // Dispatch everything already due.
            let due = shared.timers.drain_due(Instant::now());
            let had_due = !due.is_empty();
            for e in due {
                pyjama_trace::emit(e.trace_id(), Stage::TimerFired, 0);
                shared.dispatch(e, false);
            }
            if had_due {
                continue; // re-check quit between batches
            }
            // Block for the next event, but wake for the next timer deadline.
            let popped = match shared.timers.next_deadline() {
                Some(deadline) => shared.queue.pop_until(deadline),
                None => shared.queue.pop(),
            };
            match popped {
                Some(e) => shared.dispatch(e, false),
                None => {
                    // Either a timer became due (loop around) or the queue
                    // closed for shutdown.
                    if shared.queue.is_closed() && shared.queue.is_empty() {
                        break;
                    }
                }
            }
        }
    }

    /// Processes queued events and *currently due* timers until none remain,
    /// then returns. Useful in tests: no second thread needed.
    pub fn run_until_idle(&self) {
        let shared = Arc::clone(&self.shared);
        CURRENT.with(|c| c.borrow_mut().push(Arc::clone(&shared)));
        struct TlsGuard;
        impl Drop for TlsGuard {
            fn drop(&mut self) {
                CURRENT.with(|c| {
                    c.borrow_mut().pop();
                });
            }
        }
        let _g = TlsGuard;
        while shared.pump_once(false) {}
    }

    /// The loop's diagnostic name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }
}

/// Nothing runs a loop once its `EventLoop` is gone, so its queued events
/// and pending timers can never be dispatched. Dropping them, and refusing
/// later posts, breaks the cycle an event holding a handle to its own loop
/// (a recurring tick) would otherwise form.
impl Drop for EventLoop {
    fn drop(&mut self) {
        self.shared.queue.close();
        self.shared.timers.close();
        let mut queued = Vec::new();
        self.shared.queue.try_pop_batch(usize::MAX, &mut queued);
    }
}

/// A clonable handle for posting events to an [`EventLoop`] from any thread.
#[derive(Clone)]
pub struct EventLoopHandle {
    shared: Arc<Shared>,
}

impl EventLoopHandle {
    /// Posts a handler as a normal-priority event. Returns its id, or `None`
    /// if the loop has shut down.
    pub fn post(&self, f: impl FnOnce() + Send + 'static) -> Option<EventId> {
        self.post_event(Event::new(f))
    }

    /// Posts a pre-built event.
    pub fn post_event(&self, event: Event) -> Option<EventId> {
        let id = event.id();
        // Emit before the push so the posted timestamp causally precedes
        // any dispatch of the same event on the loop thread.
        pyjama_trace::emit(event.trace_id(), Stage::EventPosted, 0);
        if self.shared.queue.push(event) {
            Some(id)
        } else {
            None
        }
    }

    /// Schedules a handler to run after `delay`.
    pub fn post_delayed(&self, delay: Duration, f: impl FnOnce() + Send + 'static) {
        self.shared.timers.schedule(delay, Event::new(f));
        // Wake the loop so it can observe the (possibly earlier) deadline.
        self.shared
            .queue
            .push(Event::new(|| {}).with_priority(Priority::High).with_label("timer-wake"));
    }

    /// Requests the loop to stop after the current event; pending events are
    /// discarded.
    pub fn quit(&self) {
        self.shared.quit.store(true, Ordering::SeqCst);
        self.shared.queue.close();
    }

    /// True when called from the thread currently running this loop.
    pub fn is_loop_thread(&self) -> bool {
        CURRENT.with(|c| {
            c.borrow()
                .iter()
                .any(|s| Arc::ptr_eq(s, &self.shared))
        })
    }

    /// Registers a waker notified whenever an event is posted to this loop
    /// (or the loop shuts down). Used by the runtime's await barrier so a
    /// parked EDT wakes the instant new work arrives. Returns a token for
    /// [`remove_waker`](Self::remove_waker).
    pub fn add_waker(&self, waker: Arc<dyn QueueWaker>) -> u64 {
        self.shared.queue.add_waker(waker)
    }

    /// Removes a waker registered with [`add_waker`](Self::add_waker).
    pub fn remove_waker(&self, id: u64) {
        self.shared.queue.remove_waker(id)
    }

    /// The deadline of the earliest pending delayed event, if any. A parked
    /// helper bounds its sleep by this: a timer firing is the one wake no
    /// post-side hook can deliver.
    pub fn next_timer_deadline(&self) -> Option<Instant> {
        self.shared.timers.next_deadline()
    }

    /// Number of queued (not yet dispatched) events.
    pub fn pending(&self) -> usize {
        self.shared.queue.len()
    }

    /// Dispatch statistics so far.
    pub fn stats(&self) -> LoopStats {
        self.shared.stats()
    }

    /// The loop's diagnostic name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }
}

impl std::fmt::Debug for EventLoopHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoopHandle")
            .field("name", &self.shared.name)
            .field("pending", &self.pending())
            .finish()
    }
}

pub(crate) fn current_shared() -> Option<Arc<Shared>> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

pub(crate) fn handle_from_shared(shared: Arc<Shared>) -> EventLoopHandle {
    EventLoopHandle { shared }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyjama_sync::Mutex;

    #[test]
    fn run_until_idle_dispatches_everything() {
        let el = EventLoop::new("test");
        let h = el.handle();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let log = Arc::clone(&log);
            h.post(move || log.lock().push(i));
        }
        el.run_until_idle();
        assert_eq!(*log.lock(), vec![0, 1, 2]);
        assert_eq!(h.stats().dispatched, 3);
    }

    #[test]
    fn run_on_thread_and_quit() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let t = std::thread::spawn(move || el.run());
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        h.post(move || d.store(true, Ordering::SeqCst));
        while !done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        h.quit();
        t.join().unwrap();
        assert!(h.post(|| {}).is_none(), "posting after quit is rejected");
    }

    #[test]
    fn delayed_events_fire_after_delay() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let fired = Arc::new(Mutex::new(None::<Instant>));
        let t0 = Instant::now();
        let f = Arc::clone(&fired);
        let h2 = h.clone();
        h.post_delayed(Duration::from_millis(30), move || {
            *f.lock() = Some(Instant::now());
            h2.quit();
        });
        let t = std::thread::spawn(move || el.run());
        t.join().unwrap();
        let at = fired.lock().expect("delayed event fired");
        assert!(at.duration_since(t0) >= Duration::from_millis(30));
    }

    #[test]
    fn handler_panic_does_not_kill_loop() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        h.post(|| panic!("handler bug"));
        let ok = Arc::new(AtomicBool::new(false));
        let ok2 = Arc::clone(&ok);
        h.post(move || ok2.store(true, Ordering::SeqCst));
        el.run_until_idle();
        assert!(ok.load(Ordering::SeqCst));
        let stats = h.stats();
        assert_eq!(stats.dispatched, 2);
        assert_eq!(stats.panicked, 1);
    }

    #[test]
    fn is_loop_thread_only_inside_handlers() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        assert!(!h.is_loop_thread());
        let observed = Arc::new(AtomicBool::new(false));
        let o = Arc::clone(&observed);
        let h2 = h.clone();
        h.post(move || o.store(h2.is_loop_thread(), Ordering::SeqCst));
        el.run_until_idle();
        assert!(observed.load(Ordering::SeqCst));
    }

    #[test]
    fn occupancy_is_recorded() {
        let el = EventLoop::new("edt");
        let occ = Arc::new(OccupancyTracker::new());
        el.attach_occupancy(Arc::clone(&occ));
        let h = el.handle();
        h.post(|| std::thread::sleep(Duration::from_millis(5)));
        el.run_until_idle();
        assert!(occ.busy() >= Duration::from_millis(5));
        assert_eq!(occ.intervals(), 1);
    }

    #[test]
    fn queue_latency_recorded() {
        let el = EventLoop::new("edt");
        let lat = Arc::new(LatencyRecorder::new());
        el.attach_queue_latency(Arc::clone(&lat));
        let h = el.handle();
        h.post(|| {});
        std::thread::sleep(Duration::from_millis(5));
        el.run_until_idle();
        assert_eq!(lat.count(), 1);
        assert!(lat.max() >= Duration::from_millis(5));
    }

    #[test]
    fn quit_discards_pending() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let ran = Arc::new(AtomicBool::new(false));
        let h2 = h.clone();
        h.post(move || h2.quit());
        let r = Arc::clone(&ran);
        h.post(move || r.store(true, Ordering::SeqCst));
        let t = std::thread::spawn(move || el.run());
        t.join().unwrap();
        assert!(!ran.load(Ordering::SeqCst));
    }
}
