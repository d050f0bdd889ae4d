//! The dispatch loop, with re-entrant pumping.
//!
//! A loop has one queue, ready events and timers under one lock
//! (`queue.rs`), and one dispatch step (`Shared::step`):
//! [`EventLoop::run`], [`EventLoop::run_until_idle`] and the re-entrant pump
//! ([`crate::pump`]) all take their next event through it, so a due timer,
//! a High event and a Normal one dispatch in the same order wherever the
//! loop is driven from. Only `run` stops at `quit`; the other two still
//! drain what is queued. `run` has one wait point: with nothing due it parks
//! until the deadline the step returned. The thread running a loop installs
//! its own parker as the queue's owner, so a post, a schedule or a `quit`
//! wakes it wherever it parks: idle in `run`, or inside a handler's await
//! barrier.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use pyjama_metrics::{LatencyRecorder, OccupancyTracker};
use pyjama_trace::{arg as trace_arg, Stage};

use crate::event::Event;
use crate::parker::{self, WakeSignal};
use crate::queue::{EventQueue, Idle, Next};

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
    /// Events dispatched re-entrantly by a pump from inside a handler.
    pub reentrant: u64,
    /// Deepest observed dispatch nesting.
    pub max_depth: u32,
}

/// Who takes a dispatch step.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Driver {
    /// [`EventLoop::run`], the one driver that stops at `quit`.
    Run,
    /// [`EventLoop::run_until_idle`].
    UntilIdle,
    /// A handler's re-entrant pump ([`crate::pump`]).
    Pump,
}

pub(crate) struct Shared {
    name: String,
    queue: EventQueue,
    dispatched: AtomicU64,
    panicked: AtomicU64,
    reentrant: AtomicU64,
    depth: AtomicU32,
    max_depth: AtomicU32,
    occupancy: OnceLock<Arc<OccupancyTracker>>,
    queue_latency: OnceLock<Arc<LatencyRecorder>>,
}

impl Shared {
    fn dispatch(&self, event: Event, reentrant: bool) {
        if let Some(lat) = self.queue_latency.get() {
            lat.record(event.fired_at().elapsed());
        }
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
        let occ = self.occupancy.get().filter(|_| depth == 1);
        if let Some(o) = occ {
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
        if let Some(o) = occ {
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

    /// The one dispatch step: dispatches what [`EventQueue::next`] hands
    /// out and returns `None`, or returns why there was nothing.
    pub(crate) fn step(&self, driver: Driver) -> Option<Idle> {
        let event = match self.queue.next(Instant::now(), driver == Driver::Run) {
            Next::Timer(e) => {
                pyjama_trace::emit(e.trace_id(), Stage::TimerFired, 0);
                e
            }
            Next::Ready(e) => e,
            Next::Idle(idle) => return Some(idle),
        };
        self.dispatch(event, driver == Driver::Pump);
        None
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
                dispatched: AtomicU64::new(0),
                panicked: AtomicU64::new(0),
                reentrant: AtomicU64::new(0),
                depth: AtomicU32::new(0),
                max_depth: AtomicU32::new(0),
                occupancy: OnceLock::new(),
                queue_latency: OnceLock::new(),
            }),
        }
    }

    /// Attaches an occupancy tracker: outermost handler dispatches are
    /// recorded as busy time. The first tracker attached stays.
    pub fn attach_occupancy(&self, occ: Arc<OccupancyTracker>) {
        let _ = self.shared.occupancy.set(occ);
    }

    /// Attaches a recorder of queueing latency: from an event's creation,
    /// or a delayed event's deadline, to its dispatch. The first recorder
    /// attached stays.
    pub fn attach_queue_latency(&self, lat: Arc<LatencyRecorder>) {
        let _ = self.shared.queue_latency.set(lat);
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
    /// mode processes "other event handlers in the system" (§IV-B). With
    /// nothing due, the thread parks on its parker until a post, a quit or
    /// the next timer deadline.
    pub fn run(self) {
        let running = Running::enter(&self.shared);
        loop {
            match self.shared.step(Driver::Run) {
                None => {}
                // A post, a schedule or a quit after the step notifies the
                // parker, so the park returns at once.
                Some(Idle::Until(deadline)) => {
                    running.parker.park_deadline(deadline);
                }
                Some(Idle::Closed) => break,
            }
        }
    }

    /// Processes queued events and *currently due* timers until none remain,
    /// then returns, also after a quit. Useful in tests: no second thread
    /// needed.
    pub fn run_until_idle(&self) {
        let _running = Running::enter(&self.shared);
        while self.shared.step(Driver::UntilIdle).is_none() {}
    }

    /// The loop's diagnostic name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }
}

/// The current thread running a loop: it is discoverable through
/// [`current_shared`] and its parker is the queue's owner. Dropping it
/// restores both, so a nested run on the same thread unwinds cleanly.
struct Running {
    shared: Arc<Shared>,
    parker: Arc<WakeSignal>,
    prev_owner: Option<Arc<WakeSignal>>,
}

impl Running {
    fn enter(shared: &Arc<Shared>) -> Running {
        CURRENT.with(|c| c.borrow_mut().push(Arc::clone(shared)));
        let parker = parker::current();
        let prev_owner = shared.queue.set_owner(Some(Arc::clone(&parker)));
        Running {
            shared: Arc::clone(shared),
            parker,
            prev_owner,
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.shared.queue.set_owner(self.prev_owner.take());
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Nothing runs a loop once its `EventLoop` is gone, so its queued events
/// and pending timers can never be dispatched. Dropping them, and refusing
/// later posts, breaks the cycle an event holding a handle to its own loop
/// (a recurring tick) would otherwise form.
impl Drop for EventLoop {
    fn drop(&mut self) {
        self.shared.queue.clear();
    }
}

/// A clonable handle for posting events to an [`EventLoop`] from any thread.
#[derive(Clone)]
pub struct EventLoopHandle {
    shared: Arc<Shared>,
}

impl EventLoopHandle {
    /// Posts a handler as a normal-priority event. A loop that has shut
    /// down hands the event back.
    pub fn post(&self, f: impl FnOnce() + Send + 'static) -> Result<(), Event> {
        self.post_event(Event::new(f))
    }

    /// Posts a pre-built event. A loop that has shut down hands it back.
    pub fn post_event(&self, event: Event) -> Result<(), Event> {
        // Emit before the push so the posted timestamp causally precedes
        // any dispatch of the same event on the loop thread.
        pyjama_trace::emit(event.trace_id(), Stage::EventPosted, 0);
        self.shared.queue.push(event)
    }

    /// Schedules a handler to run after `delay`. A loop that has shut down
    /// drops it.
    pub fn post_delayed(&self, delay: Duration, f: impl FnOnce() + Send + 'static) {
        let _ = self
            .shared
            .queue
            .schedule_at(Instant::now() + delay, Event::new(f));
    }

    /// Requests the loop to stop after the current event and rejects later
    /// posts. Pending events are discarded when the loop stops; until then a
    /// handler that is still running can pump them, so an await whose block
    /// waits on a round trip through this loop still finishes.
    pub fn quit(&self) {
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

    /// The deadline of the earliest pending delayed event, if any. A parked
    /// loop thread bounds its sleep by this: a timer falling due is the one
    /// wake nothing notifies.
    pub fn next_timer_deadline(&self) -> Option<Instant> {
        self.shared.queue.next_deadline()
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
    use crate::event::Priority;
    use pyjama_sync::Mutex;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn run_until_idle_dispatches_everything() {
        let el = EventLoop::new("test");
        let h = el.handle();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let log = Arc::clone(&log);
            h.post(move || log.lock().push(i)).unwrap();
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
        h.post(move || d.store(true, Ordering::SeqCst)).unwrap();
        while !done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        h.quit();
        t.join().unwrap();
        assert!(h.post(|| {}).is_err(), "posting after quit is rejected");
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

    /// A delayed post on a running, parked loop: the schedule wakes the
    /// loop thread itself, so no extra event is dispatched to do it.
    #[test]
    fn delayed_post_wakes_parked_loop_and_dispatches_only_its_handler() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let t = std::thread::spawn(move || el.run());
        std::thread::sleep(Duration::from_millis(10)); // let the loop park
        let fired = Arc::new(Mutex::new(None::<Instant>));
        let f = Arc::clone(&fired);
        let delay = Duration::from_millis(30);
        let t0 = Instant::now();
        h.post_delayed(delay, move || *f.lock() = Some(Instant::now()));
        while fired.lock().is_none() {
            assert!(t0.elapsed() < Duration::from_secs(5), "delayed post never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        let at = fired.lock().expect("fired");
        assert!(at.duration_since(t0) >= delay, "fired before its deadline");
        assert_eq!(h.stats().dispatched, 1, "only the real handler is dispatched");
        h.quit();
        t.join().unwrap();
    }

    /// The loop thread parks on its own parker when idle; a post and a quit
    /// from another thread must each wake it.
    #[test]
    fn post_and_quit_wake_a_parked_loop_thread() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let t = std::thread::spawn(move || el.run());
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(10)); // parked by now
            let (tx, rx) = std::sync::mpsc::channel();
            h.post(move || tx.send(()).unwrap()).unwrap();
            rx.recv_timeout(Duration::from_secs(5))
                .expect("a post must wake the parked loop thread");
        }
        std::thread::sleep(Duration::from_millis(10));
        let t0 = Instant::now();
        h.quit();
        t.join().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn handler_panic_does_not_kill_loop() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        h.post(|| panic!("handler bug")).unwrap();
        let ok = Arc::new(AtomicBool::new(false));
        let ok2 = Arc::clone(&ok);
        h.post(move || ok2.store(true, Ordering::SeqCst)).unwrap();
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
        h.post(move || o.store(h2.is_loop_thread(), Ordering::SeqCst))
            .unwrap();
        el.run_until_idle();
        assert!(observed.load(Ordering::SeqCst));
    }

    #[test]
    fn occupancy_is_recorded() {
        let el = EventLoop::new("edt");
        let occ = Arc::new(OccupancyTracker::new());
        el.attach_occupancy(Arc::clone(&occ));
        let h = el.handle();
        h.post(|| std::thread::sleep(Duration::from_millis(5)))
            .unwrap();
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
        h.post(|| {}).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        el.run_until_idle();
        assert_eq!(lat.count(), 1);
        assert!(lat.max() >= Duration::from_millis(5));
    }

    /// A delayed event's latency counts from its deadline: the delay it
    /// asked for is not time spent queueing. Bounded by the time measured
    /// around the run, so a late wake-up of the sleep cannot fail it.
    #[test]
    fn timer_queue_latency_counts_from_its_deadline() {
        let el = EventLoop::new("edt");
        let lat = Arc::new(LatencyRecorder::new());
        el.attach_queue_latency(Arc::clone(&lat));
        let delay = Duration::from_millis(50);
        let t0 = Instant::now();
        el.handle().post_delayed(delay, || {});
        std::thread::sleep(delay + Duration::from_millis(10));
        el.run_until_idle();
        let bound = t0.elapsed() - delay + Duration::from_millis(1);
        assert_eq!(lat.count(), 1);
        assert!(
            lat.max() <= bound,
            "recorded {:?} for a {delay:?} timer, at most {bound:?} was queueing",
            lat.max()
        );
    }

    /// `run` and `run_until_idle` dispatch through one step, so a due timer
    /// and an already-queued High event run in the same order under both:
    /// the timer first.
    #[test]
    fn due_timer_precedes_queued_high_event_under_run_and_run_until_idle() {
        for use_run in [false, true] {
            let el = EventLoop::new("edt");
            let h = el.handle();
            let order = Arc::new(Mutex::new(Vec::new()));
            let o = Arc::clone(&order);
            h.post_delayed(Duration::ZERO, move || o.lock().push("timer"));
            let o = Arc::clone(&order);
            let high = Event::new(move || o.lock().push("high"));
            h.post_event(high.with_priority(Priority::High)).unwrap();
            if use_run {
                let hq = h.clone();
                h.post_event(Event::new(move || hq.quit()).with_priority(Priority::Low))
                    .unwrap();
                el.run();
            } else {
                el.run_until_idle();
            }
            assert_eq!(*order.lock(), vec!["timer", "high"], "under run: {use_run}");
        }
    }

    /// After `quit` a handler's pump still dispatches what is queued; only
    /// `run` stops, and discards the rest.
    #[test]
    fn pump_drains_a_quit_loop_but_run_stops() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (hq, l) = (h.clone(), Arc::clone(&log));
        h.post(move || {
            hq.quit();
            let pumped = crate::pump::try_pump_current();
            l.lock().push(("pumped", pumped));
        })
        .unwrap();
        for tag in ["a", "b"] {
            let l = Arc::clone(&log);
            h.post(move || l.lock().push((tag, true))).unwrap();
        }
        el.run();
        assert_eq!(*log.lock(), vec![("a", true), ("pumped", true)]);
    }

    #[test]
    fn quit_discards_pending() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let ran = Arc::new(AtomicBool::new(false));
        let h2 = h.clone();
        h.post(move || h2.quit()).unwrap();
        let r = Arc::clone(&ran);
        h.post(move || r.store(true, Ordering::SeqCst)).unwrap();
        let t = std::thread::spawn(move || el.run());
        t.join().unwrap();
        assert!(!ran.load(Ordering::SeqCst));
    }
}
