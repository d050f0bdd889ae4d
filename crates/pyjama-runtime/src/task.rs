//! Target regions and completion handles.
//!
//! The Pyjama compiler "will restructure a target block as a runnable
//! TargetRegion class, with its run() function implementing the user code"
//! (§IV-A). [`TargetRegion`] is that runnable; [`TaskHandle`] is the
//! completion state that the scheduling modes synchronise on.
//!
//! Every thread waiting on a handle — `wait`, `join`, the `await` barrier —
//! enlists its own parker ([`pyjama_events::parker`]) on the handle's
//! waiter list and parks on it; the terminal transition drains the list and
//! notifies each parker.
//! A `name_as(tag)` region also holds an entry of its tag's latch in a
//! slot on its core, which the terminal transition releases.

use std::any::Any;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama_events::inline::InlineFn;
use pyjama_events::{parker, LatchGuard};
use pyjama_sync::Mutex;
use pyjama_trace::{arg as trace_arg, Stage, TraceId};

use crate::invoke::Tag;
use crate::parker::WakeSignal;

/// Lifecycle of a target block instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Posted but not yet started.
    Pending,
    /// Currently executing on some thread.
    Running,
    /// Completed normally.
    Finished,
    /// The block panicked; the payload is delivered to the first joiner.
    Panicked,
    /// Rejected before it could run (e.g. posted to a shut-down pool); the
    /// body was dropped without executing. Terminal, like `Finished`, so
    /// waiters are released rather than deadlocked.
    Cancelled,
}

impl TaskState {
    /// True for states the task can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Finished | TaskState::Panicked | TaskState::Cancelled
        )
    }

    fn as_u8(self) -> u8 {
        match self {
            TaskState::Pending => 0,
            TaskState::Running => 1,
            TaskState::Finished => 2,
            TaskState::Panicked => 3,
            TaskState::Cancelled => 4,
        }
    }

    fn from_u8(v: u8) -> TaskState {
        match v {
            0 => TaskState::Pending,
            1 => TaskState::Running,
            2 => TaskState::Finished,
            3 => TaskState::Panicked,
            _ => TaskState::Cancelled,
        }
    }
}

struct Core {
    state: Mutex<CoreState>,
    /// The lifecycle state, written only under the mutex (so it is stable
    /// while the mutex is held), readable without it. `state()` /
    /// `is_finished()` / the recycler's eligibility checks sit on the
    /// per-post hot path; taking the mutex there costs more than the read
    /// itself, and a lock would buy nothing — a locked read is stale the
    /// instant the lock drops, exactly like an `Acquire` load of this tag.
    tag: AtomicU8,
}

struct CoreState {
    panic_payload: Option<Box<dyn Any + Send>>,
    /// Parkers of the threads waiting for the terminal transition, one
    /// entry per wait (nested waits of one thread enlist it twice). The
    /// transition drains it in place, so a recycled region keeps the
    /// capacity and a warm wait allocates nothing.
    waiters: Vec<Arc<WakeSignal>>,
    /// The `name_as` tag this instance is counted in, until it is terminal.
    name_tag: Option<(Arc<Tag>, LatchGuard)>,
}

/// A clonable handle observing one target block's completion.
#[derive(Clone)]
pub struct TaskHandle {
    core: Arc<Core>,
    label: Arc<str>,
    trace: TraceId,
}

impl TaskHandle {
    fn new(label: Arc<str>, trace: TraceId) -> Self {
        TaskHandle {
            core: Arc::new(Core {
                state: Mutex::new(CoreState {
                    panic_payload: None,
                    waiters: Vec::new(),
                    name_tag: None,
                }),
                tag: AtomicU8::new(TaskState::Pending.as_u8()),
            }),
            label,
            trace,
        }
    }

    /// The causal trace id this block carries ([`TraceId::NONE`] when
    /// tracing was disabled at creation).
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Current lifecycle state. Lock-free: reads the atomic mirror of the
    /// state, which every writer updates while holding the core mutex. The
    /// `Acquire` load pairs with the writer's `Release` store, so anything
    /// the block wrote before finishing is visible once a terminal state is
    /// observed.
    pub fn state(&self) -> TaskState {
        TaskState::from_u8(self.core.tag.load(Ordering::Acquire))
    }

    /// True once the block has reached a terminal state (finished normally,
    /// panicked, or was cancelled before running).
    pub fn is_finished(&self) -> bool {
        self.state().is_terminal()
    }

    /// Blocks until the task finishes. Does not propagate panics.
    pub fn wait(&self) {
        self.wait_deadline(None);
    }

    /// Blocks until the task finishes or `timeout` elapses. Returns `true`
    /// if the task finished.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        self.wait_deadline(Some(Instant::now() + timeout))
    }

    fn wait_deadline(&self, deadline: Option<Instant>) -> bool {
        let Some(waiter) = self.enlist() else {
            return true;
        };
        while !self.is_finished() {
            if !waiter.parker.park_deadline(deadline) {
                return self.is_finished();
            }
        }
        true
    }

    /// Blocks until the task finishes, then re-raises its panic (if any) on
    /// the calling thread — mirroring the behaviour a synchronous execution
    /// of the block would have had.
    pub fn join(&self) {
        self.wait();
        // Only the Panicked transition stores a payload, under the lock
        // that also publishes the state: skip the lock otherwise.
        if self.state() != TaskState::Panicked {
            return;
        }
        let payload = self.core.state.lock().panic_payload.take();
        if let Some(p) = payload {
            std::panic::resume_unwind(p);
        }
    }

    /// Enlists the calling thread's parker for the terminal transition.
    /// `None` when the task is already terminal. The returned waiter leaves
    /// the list when dropped, unless the transition already drained it.
    pub(crate) fn enlist(&self) -> Option<Waiter<'_>> {
        if self.is_finished() {
            return None;
        }
        let parker = parker::current();
        let mut g = self.core.state.lock();
        if self.is_finished() {
            return None;
        }
        g.waiters.push(Arc::clone(&parker));
        Some(Waiter {
            handle: self,
            parker,
        })
    }

    /// Diagnostic label of the region this handle belongs to.
    pub fn label(&self) -> &str {
        &self.label
    }

    fn transition(&self, to: TaskState, payload: Option<Box<dyn Any + Send>>) {
        let mut g = self.core.state.lock();
        self.core.tag.store(to.as_u8(), Ordering::Release);
        // A tagged instance's panic is re-raised by `wait(tag)`: it goes to
        // the tag before the entry that the wait counts is released.
        let held = if to.is_terminal() { g.name_tag.take() } else { None };
        match (payload, &held) {
            (Some(p), Some((tag, _))) => {
                tag.panic.lock().get_or_insert(p);
            }
            (Some(p), None) => g.panic_payload = Some(p),
            (None, _) => {}
        }
        // Waiters loop until terminal, so only the terminal transition
        // notifies. Draining in place under the lock keeps the list's
        // capacity for the region's next incarnation; a notify is a permit
        // swap plus, for a parked waiter, one futex wake, and a woken
        // waiter needs this lock only to take a panic payload.
        if to.is_terminal() {
            for w in g.waiters.drain(..) {
                w.notify();
            }
        }
        drop(g);
        drop(held);
    }
}

/// One wait's entry on a [`TaskHandle`]'s waiter list: the waiting thread's
/// parker. Entries of one thread are interchangeable, so leaving removes
/// any one of them.
pub(crate) struct Waiter<'a> {
    handle: &'a TaskHandle,
    /// The waiting thread's own parker: park on it.
    pub(crate) parker: Arc<WakeSignal>,
}

impl Drop for Waiter<'_> {
    fn drop(&mut self) {
        // A terminal state is published under the lock in the same hold
        // that drains the list, so the entry is gone or about to be.
        if self.handle.is_finished() {
            return;
        }
        let mut g = self.handle.core.state.lock();
        if let Some(i) = g.waiters.iter().position(|w| Arc::ptr_eq(w, &self.parker)) {
            g.waiters.swap_remove(i);
        }
    }
}

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("label", &self.label)
            .field("state", &self.state())
            .finish()
    }
}

/// A restructured target block: the user code as a one-shot runnable plus
/// its completion handle.
///
/// Regions are pooled: the public constructors acquire from the recycler
/// slab ([`crate::slab`]) and executors hand terminal regions back via
/// [`crate::slab::release`], so a steady-state post reuses a previous
/// region's `Arc` + `Core` allocations and (with a small capture set) the
/// body is stored inline — zero allocator traffic per post.
pub struct TargetRegion {
    body: Mutex<Option<InlineFn>>,
    handle: TaskHandle,
}

impl TargetRegion {
    /// Wraps user code into a region with a diagnostic label.
    pub fn new(label: impl Into<String>, body: impl FnOnce() + Send + 'static) -> Arc<Self> {
        Self::with_label(Arc::from(label.into()), body)
    }

    /// Wraps user code into a region reusing an already-interned label.
    ///
    /// Repeated posts with the same diagnostic label (e.g. a persistent
    /// connection re-arming itself as a chain of regions) clone the `Arc`
    /// instead of re-allocating the string on every post; with the recycler
    /// warm and a small capture set the whole post allocates nothing.
    pub fn with_label(label: Arc<str>, body: impl FnOnce() + Send + 'static) -> Arc<Self> {
        Self::with_label_trace(label, TraceId::mint(), body)
    }

    /// Wraps user code into a region that continues an *existing* causal
    /// flow instead of minting a new one — e.g. an HTTP connection
    /// re-arming itself posts each serve step under the connection's id,
    /// so the whole request chain reconstructs as one trace.
    pub fn with_label_trace(
        label: Arc<str>,
        trace: TraceId,
        body: impl FnOnce() + Send + 'static,
    ) -> Arc<Self> {
        crate::slab::acquire(label, trace, InlineFn::new(body))
    }

    /// Constructs a region bypassing the recycler slab: always a fresh
    /// `Arc` + `Core`, never a reused one. This is the pre-recycler
    /// allocation behaviour, kept as the baseline arm for the
    /// `post_hotpath` bench and for tests that need regions with
    /// slab-independent identity. Still counted by `alloc_stats()`.
    pub fn unpooled(
        label: Arc<str>,
        trace: TraceId,
        body: impl FnOnce() + Send + 'static,
    ) -> Arc<Self> {
        crate::slab::fresh(label, trace, InlineFn::new(body))
    }

    /// Raw construction; only [`crate::slab`] calls this (it owns the
    /// `AllocCounters` bookkeeping).
    pub(crate) fn construct(label: Arc<str>, trace: TraceId, body: InlineFn) -> Arc<Self> {
        Arc::new(TargetRegion {
            body: Mutex::new(Some(body)),
            handle: TaskHandle::new(label, trace),
        })
    }

    /// True when the body panicked (the region is poisoned and must be
    /// retired, never recycled).
    pub(crate) fn poisoned(&self) -> bool {
        self.handle.state() == TaskState::Panicked
    }

    /// True when this region may *rest* in the recycler slab: terminal,
    /// unpoisoned, body consumed. Deliberately does **not** check for
    /// outstanding [`TaskHandle`]s — the poster's returned handle routinely
    /// outlives the worker's release by nanoseconds (post, execute and
    /// release all race the end of the posting statement), and rejecting
    /// the park for that transient pin would turn a huge fraction of
    /// steady-state releases into drops. Parking is harmless: a resting
    /// region is never mutated, so a surviving handle still observes the
    /// terminal state. The pin check is deferred to [`Self::recyclable`]
    /// at *acquire* time, when the transient handle is long dead.
    ///
    /// Lock-free: both paths into `Finished`/`Cancelled` consume the body
    /// *before* transitioning (`execute` takes it before `Running`,
    /// `cancel` takes-and-drops it before `Cancelled`), so observing either
    /// state already proves the body slot is empty — no body lock needed.
    pub(crate) fn slab_eligible(&self) -> bool {
        let eligible = matches!(
            self.handle.state(),
            TaskState::Finished | TaskState::Cancelled
        );
        debug_assert!(!eligible || self.body.lock().is_none());
        eligible
    }

    /// True when this region can be reset for reuse: no outstanding
    /// [`TaskHandle`] pins the core (clones can only originate from
    /// existing handles, so a strong count of 1 proves exclusivity), the
    /// lifecycle is terminal and unpoisoned, and the body was consumed.
    pub(crate) fn recyclable(&self) -> bool {
        Arc::strong_count(&self.handle.core) == 1 && self.slab_eligible()
    }

    /// Re-arms a recycled region in place: fresh label/trace/body, core
    /// state back to `Pending`, panic payload cleared; the terminal
    /// transition already drained the waiter list, keeping its capacity.
    /// The caller must hold the only reference (`Arc::get_mut` succeeded)
    /// and have verified
    /// [`recyclable`](Self::recyclable).
    pub(crate) fn reset(&mut self, label: Arc<str>, trace: TraceId, body: InlineFn) {
        // `recyclable()` proved the core's strong count is 1 and we hold
        // `&mut self`, so exclusive access lets us skip both mutexes.
        let core = Arc::get_mut(&mut self.handle.core)
            .expect("reset requires an unpinned core (recyclable() was checked)");
        let g = core.state.get_mut();
        core.tag.store(TaskState::Pending.as_u8(), Ordering::Release);
        g.panic_payload = None;
        debug_assert!(g.waiters.is_empty() && g.name_tag.is_none());
        self.handle.label = label;
        self.handle.trace = trace;
        *self.body.get_mut() = Some(body);
    }

    /// Counts this region into a `name_as` tag until it is terminal (or dropped).
    pub(crate) fn hold_tag(&self, tag: Arc<Tag>) {
        let entry = tag.latch.enter();
        self.handle.core.state.lock().name_tag = Some((tag, entry));
    }

    /// The completion handle.
    pub fn handle(&self) -> TaskHandle {
        self.handle.clone()
    }

    /// The causal trace id this region carries (no handle clone).
    pub fn trace_id(&self) -> TraceId {
        self.handle.trace
    }

    /// Executes the user code on the calling thread, exactly once.
    ///
    /// Panics inside the block are caught and stored on the handle (a
    /// virtual target must survive misbehaving blocks); they re-raise at
    /// [`TaskHandle::join`]. Calling `execute` a second time is a no-op.
    pub fn execute(&self) {
        let body = self.body.lock().take();
        let Some(body) = body else { return };
        pyjama_trace::emit(self.handle.trace, Stage::RegionRunBegin, 0);
        self.handle.transition(TaskState::Running, None);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body.call())) {
            Ok(()) => {
                self.handle.transition(TaskState::Finished, None);
                pyjama_trace::emit(self.handle.trace, Stage::RegionRunEnd, trace_arg::END_OK);
            }
            Err(p) => {
                self.handle.transition(TaskState::Panicked, Some(p));
                pyjama_trace::emit(
                    self.handle.trace,
                    Stage::RegionRunEnd,
                    trace_arg::END_PANICKED,
                );
            }
        }
    }

    /// Rejects the region without running it: the body is dropped and the
    /// handle transitions to [`TaskState::Cancelled`], releasing any waiter
    /// (`wait`/`join` return normally; there is no panic to propagate).
    ///
    /// Used when a region races into a target that can no longer execute it,
    /// e.g. a post to a worker pool that has begun shutdown. Returns `true`
    /// if this call cancelled the region; `false` if it already started
    /// executing (or was already cancelled), in which case the existing
    /// outcome stands.
    pub fn cancel(&self) -> bool {
        let body = self.body.lock().take();
        if body.is_none() {
            return false;
        }
        drop(body);
        self.handle.transition(TaskState::Cancelled, None);
        pyjama_trace::emit(self.handle.trace, Stage::RegionCancelled, 0);
        true
    }
}

impl Drop for TargetRegion {
    fn drop(&mut self) {
        // Only ever runs for regions leaving the pool for good (slab-held
        // regions live as raw pointers and never drop): live → dropped in
        // the recycler's conservation law.
        crate::slab::note_region_drop();
    }
}

impl std::fmt::Debug for TargetRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetRegion")
            .field("label", &self.handle.label)
            .field("state", &self.handle.state())
            .finish()
    }
}

/// A typed future over a target block that produces a value.
///
/// The paper's blocks are statements (they communicate through the shared
/// data context); `TargetFuture` is the small extension a Rust API needs so
/// examples can retrieve results without shared mutable state.
pub struct TargetFuture<R> {
    handle: TaskHandle,
    slot: Arc<Mutex<Option<R>>>,
}

impl<R: Send + 'static> TargetFuture<R> {
    /// Wraps a value-producing closure into a runnable region plus a typed
    /// future observing it.
    pub fn wrap(
        label: impl Into<String>,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> (Arc<TargetRegion>, TargetFuture<R>) {
        let slot = Arc::new(Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        let region = TargetRegion::new(label, move || {
            let r = f();
            *slot2.lock() = Some(r);
        });
        let fut = TargetFuture {
            handle: region.handle(),
            slot,
        };
        (region, fut)
    }

    /// The untyped completion handle.
    pub fn handle(&self) -> &TaskHandle {
        &self.handle
    }

    /// Blocks until the block completes and returns its value, re-raising
    /// its panic if it had one.
    pub fn join(self) -> R {
        self.handle.join();
        self.slot.lock().take().expect("completed without panic")
    }

    /// Non-blocking: returns the value if already complete.
    pub fn try_take(&self) -> Option<R> {
        if self.handle.is_finished() {
            self.slot.lock().take()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn region_executes_once() {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let r = TargetRegion::new("t", move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(r.handle().state(), TaskState::Pending);
        r.execute();
        r.execute();
        assert_eq!(n.load(Ordering::SeqCst), 1);
        assert_eq!(r.handle().state(), TaskState::Finished);
    }

    #[test]
    fn wait_blocks_until_finished() {
        let r = TargetRegion::new("t", || std::thread::sleep(Duration::from_millis(10)));
        let h = r.handle();
        let t = std::thread::spawn(move || r.execute());
        h.wait();
        assert!(h.is_finished());
        t.join().unwrap();
    }

    #[test]
    fn wait_timeout_expires_on_pending_task() {
        let r = TargetRegion::new("t", || {});
        let h = r.handle();
        assert!(!h.wait_timeout(Duration::from_millis(10)));
        r.execute();
        assert!(h.wait_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn panic_is_captured_and_rethrown_at_join() {
        let r = TargetRegion::new("t", || panic!("block failed"));
        r.execute();
        assert_eq!(r.handle().state(), TaskState::Panicked);
        let h = r.handle();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()));
        assert!(err.is_err());
        // Second join does not re-panic (payload consumed).
        r.handle().join();
    }

    #[test]
    fn handle_observes_from_other_thread() {
        let r = TargetRegion::new("t", || {});
        let h = r.handle();
        let t = std::thread::spawn(move || {
            h.wait();
            true
        });
        std::thread::sleep(Duration::from_millis(5));
        r.execute();
        assert!(t.join().unwrap());
    }

    #[test]
    fn future_returns_value() {
        let (region, fut) = TargetFuture::wrap("sum", || 2 + 2);
        assert!(fut.try_take().is_none());
        region.execute();
        assert_eq!(fut.join(), 4);
    }

    #[test]
    fn future_try_take_after_completion() {
        let (region, fut) = TargetFuture::wrap("v", || "ok");
        region.execute();
        assert_eq!(fut.try_take(), Some("ok"));
        assert_eq!(fut.try_take(), None, "value is taken once");
    }

    #[test]
    fn future_propagates_panic() {
        let (region, fut) = TargetFuture::<i32>::wrap("boom", || panic!("x"));
        region.execute();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || fut.join()));
        assert!(err.is_err());
    }

    #[test]
    fn label_is_preserved() {
        let r = TargetRegion::new("my-label", || {});
        assert_eq!(r.handle().label(), "my-label");
    }

    #[test]
    fn with_label_shares_the_interned_label() {
        let label: Arc<str> = Arc::from("conn");
        let r1 = TargetRegion::new("x", || {});
        drop(r1);
        let a = TargetRegion::with_label(Arc::clone(&label), || {});
        let b = TargetRegion::with_label(Arc::clone(&label), || {});
        assert_eq!(a.handle().label(), "conn");
        assert_eq!(b.handle().label(), "conn");
        // Both handles point at the same interned string.
        assert!(std::ptr::eq(
            a.handle().label().as_ptr(),
            b.handle().label().as_ptr()
        ));
        a.execute();
        b.execute();
        assert!(a.handle().is_finished() && b.handle().is_finished());
    }

    #[test]
    fn cancel_is_terminal_and_releases_waiters() {
        let r = TargetRegion::new("t", || unreachable!("must never run"));
        let h = r.handle();
        let waiter = {
            let h = h.clone();
            std::thread::spawn(move || {
                h.wait();
                h.state()
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        assert!(r.cancel());
        assert_eq!(waiter.join().unwrap(), TaskState::Cancelled);
        assert!(h.is_finished());
        h.join(); // no panic to propagate
        // Cancelling again (or executing) is a no-op.
        assert!(!r.cancel());
        r.execute();
        assert_eq!(h.state(), TaskState::Cancelled);
    }

    #[test]
    fn cancel_after_execute_is_noop() {
        let r = TargetRegion::new("t", || {});
        r.execute();
        assert!(!r.cancel());
        assert_eq!(r.handle().state(), TaskState::Finished);
    }

    fn waiters(h: &TaskHandle) -> usize {
        h.core.state.lock().waiters.len()
    }

    #[test]
    fn terminal_transition_notifies_and_drains_waiters() {
        let r = TargetRegion::new("t", || {});
        let h = r.handle();
        let w = h.enlist().expect("pending task enlists");
        let nested = h.enlist().expect("a nested wait enlists the same parker again");
        assert!(Arc::ptr_eq(&w.parker, &nested.parker));
        assert_eq!(waiters(&h), 2);
        drop(nested);
        assert_eq!(waiters(&h), 1, "leaving removes one entry, not every entry of the thread");
        r.execute();
        assert_eq!(waiters(&h), 0, "the terminal transition drains the list");
        // It must have set the permit: a park now returns immediately.
        assert!(w.parker.park_until(Instant::now() + Duration::from_secs(5)));
        drop(w);
        assert!(h.enlist().is_none(), "a terminal task enlists nobody");
    }

    #[test]
    fn timed_out_wait_leaves_the_list() {
        let r = TargetRegion::new("t", || {});
        let h = r.handle();
        assert!(!h.wait_timeout(Duration::from_millis(5)));
        assert_eq!(waiters(&h), 0);
        r.execute();
    }
}
