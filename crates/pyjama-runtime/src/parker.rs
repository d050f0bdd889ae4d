//! The wake-driven parker behind the `await` logical barrier.
//!
//! The barrier used to fall back to a timed poll: park for a 200µs quantum,
//! re-check, repeat. Any work arriving while the encountering thread was
//! parked waited out the remainder of the quantum before being helped, and a
//! plain thread burnt a wakeup per quantum on a condition that can only
//! change once. [`WakeSignal`] replaces that with real wakeups.
//!
//! One signal is created per barrier entry and registered with every source
//! that can either resolve the barrier or produce work for it to help with:
//!
//! 1. the terminal transition of the awaited [`TaskHandle`]
//!    ([`TaskHandle::add_waker`](crate::task)),
//! 2. events posted to the event loop the thread is currently running
//!    (`pyjama-events`' [`QueueWaker`] hook on the loop's queue),
//! 3. regions enqueued on — or shutdown of — the worker pool the thread
//!    belongs to ([`WorkerTarget`] waker registration).
//!
//! ## Why registration is race-free
//!
//! `notify` stores a *permit* that a later `park` consumes without blocking,
//! so a wake arriving between "no work observed" and "thread parked" is
//! never lost. The barrier registers with all sources *before* its first
//! check: work or completion that predates registration is caught by the
//! check, anything later sets the permit. Deregistration is by token through
//! RAII guards; tokens are never reused, so a deregistration racing a
//! concurrent drain (task completion takes the waker list) or a re-entrant
//! barrier on the same thread (which holds its own signal and tokens) cannot
//! remove the wrong entry — the ABA hazard of a slot-based scheme does not
//! exist here.
//!
//! ## One permit on the one eventcount
//!
//! The permit is an `AtomicBool`; `park` is an [`EventCount`] wait (spin 0)
//! that swaps it out. `notify` calls the eventcount only when it is the call
//! that set the permit: a pending permit proves an earlier `notify` set it
//! and woke (or will be seen by) the same park, so a burst of posts to one
//! parked worker costs one wake.
//!
//! Timers are the one wake that has no post-side hook (nothing "arrives"
//! when a deadline passes), so a parked EDT bounds its sleep by the loop's
//! next timer deadline — an exact event time, not a poll quantum.
//!
//! Model-checked twin: `pyjama-check/src/models/parker.rs` ports
//! [`WakeSignal`] (on `ModelEventCount`, the twin of [`EventCount`]) and
//! the `await_until_inner` accounting loop onto instrumented shims and
//! explores the notify-vs-park and wake-vs-deadline races (plus mutations
//! that re-lose the permit, suppress the wake by a flag `park` never
//! clears, and re-introduce the timeout spurious-undercount). Keep the port
//! in sync with protocol changes here — DESIGN.md §5h.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pyjama_sync::{EventCount, Wait};
use pyjama_events::{pump, EventLoopHandle, QueueWaker};
use pyjama_metrics::park::ParkCounters;
pub use pyjama_metrics::park::ParkStats;
use pyjama_trace::Stage;

use crate::task::TaskHandle;
use crate::worker::WorkerTarget;

/// Process-wide parker counters (all barriers, all threads).
static COUNTERS: ParkCounters = ParkCounters::new();

/// Snapshot of the process-wide park/wake counters: how often await barriers
/// actually blocked, how often wake sources fired, and how many wakeups
/// delivered no work.
pub fn park_stats() -> ParkStats {
    COUNTERS.snapshot()
}

/// Zeroes the process-wide park/wake counters. Increments racing the reset
/// land on either side of it; quiesce barriers first for exact figures.
pub fn reset_park_stats() {
    COUNTERS.reset();
}

/// A one-thread parker with permit semantics: `notify` from any thread,
/// `park` from the owning thread. A notify delivered while the owner is not
/// parked is stored and satisfies the next park immediately.
pub struct WakeSignal {
    /// A pending wake not yet consumed by `park`.
    permit: AtomicBool,
    wake: EventCount,
}

impl WakeSignal {
    /// A fresh signal with no pending permit.
    pub fn new() -> Self {
        WakeSignal {
            permit: AtomicBool::new(false),
            wake: EventCount::new(),
        }
    }

    /// Wakes the owning thread: sets the permit and, if no permit was
    /// already pending, releases a parked owner. Callable from any thread,
    /// any number of times; permits do not accumulate, and neither do
    /// condvar wakes — a pending permit means the wake is in flight.
    pub fn notify(&self) {
        COUNTERS.notifies.inc();
        if !self.permit.swap(true, Ordering::SeqCst) {
            self.wake.notify();
        }
    }

    /// Blocks until a permit is available, then consumes it. Returns
    /// immediately (without blocking) if a permit is already pending.
    pub fn park(&self) {
        self.park_inner(None);
    }

    /// Like [`park`](Self::park) but gives up at `deadline`. Returns `true`
    /// if a permit was consumed, `false` on timeout.
    pub fn park_until(&self, deadline: Instant) -> bool {
        self.park_inner(Some(deadline))
    }

    fn park_inner(&self, deadline: Option<Instant>) -> bool {
        let waited = self
            .wake
            .wait(0, deadline, || self.permit.swap(false, Ordering::SeqCst));
        match waited {
            Wait::Spun => true,
            Wait::Parked => {
                COUNTERS.parks.inc();
                COUNTERS.wakes.inc();
                true
            }
            Wait::TimedOut => {
                COUNTERS.parks.inc();
                false
            }
        }
    }
}

impl Default for WakeSignal {
    fn default() -> Self {
        Self::new()
    }
}

impl QueueWaker for WakeSignal {
    fn wake(&self) {
        self.notify();
    }
}

/// RAII deregistration from the awaited task's waker list.
struct TaskWakerGuard<'a> {
    handle: &'a TaskHandle,
    id: u64,
}

impl Drop for TaskWakerGuard<'_> {
    fn drop(&mut self) {
        self.handle.remove_waker(self.id);
    }
}

/// RAII deregistration from an event loop's queue wakers.
struct LoopWakerGuard {
    handle: EventLoopHandle,
    id: u64,
}

impl Drop for LoopWakerGuard {
    fn drop(&mut self) {
        self.handle.remove_waker(self.id);
    }
}

/// The wake-driven logical barrier loop shared by
/// [`Runtime::await_barrier`](crate::Runtime::await_barrier) and the
/// deadline-bounded pumping joins. Helps (pumps the current event loop,
/// drains the current pool's queue) while work is available; parks on a
/// [`WakeSignal`] otherwise. Returns whether `handle` reached a terminal
/// state (always `true` when `deadline` is `None`).
pub(crate) fn await_until(handle: &TaskHandle, deadline: Option<Instant>) -> bool {
    if handle.is_finished() {
        return true;
    }
    let trace = handle.trace_id();
    pyjama_trace::emit(trace, Stage::BarrierEnter, 0);
    let finished = await_until_inner(handle, deadline, trace);
    pyjama_trace::emit(trace, Stage::BarrierExit, finished as u32);
    finished
}

fn await_until_inner(handle: &TaskHandle, deadline: Option<Instant>, trace: pyjama_trace::TraceId) -> bool {
    let signal = Arc::new(WakeSignal::new());

    // Register with every wake source *before* the first work check. Any
    // post or completion from here on sets the permit; anything earlier is
    // observed by the checks below. The guards deregister on every exit
    // path, including a propagating panic.
    let _task_guard = TaskWakerGuard {
        id: handle.add_waker(Arc::clone(&signal)),
        handle,
    };
    let loop_handle = pump::current_handle();
    let _loop_guard = loop_handle.as_ref().map(|h| LoopWakerGuard {
        id: h.add_waker(Arc::clone(&signal) as Arc<dyn QueueWaker>),
        handle: h.clone(),
    });
    let _pool_guard = WorkerTarget::register_current_waker(&signal);

    let mut woke_with_no_work = false;
    loop {
        if handle.is_finished() {
            return true;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                // The wake that brought us to this exit (if any) delivered
                // no work either — record it before leaving, or deadline
                // exits would silently eat one no-work wakeup.
                if woke_with_no_work {
                    COUNTERS.spurious_wakes.inc();
                }
                return handle.is_finished();
            }
        }
        if pump::try_pump_current() || WorkerTarget::help_current_thread_pool() {
            woke_with_no_work = false;
            continue;
        }
        if woke_with_no_work {
            COUNTERS.spurious_wakes.inc();
        }
        // Nothing to help with: park until a wake source fires, bounding the
        // sleep only by real deadlines (the caller's, or the loop's next
        // timer) — never by a poll quantum.
        let timer = loop_handle.as_ref().and_then(|h| h.next_timer_deadline());
        let until = match (deadline, timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        pyjama_trace::emit(trace, Stage::BarrierPark, 0);
        let notified = match until {
            Some(d) => signal.park_until(d),
            None => {
                signal.park();
                true
            }
        };
        // A timeout return is still a wakeup: if the next iteration finds
        // no work, it was a no-work wakeup regardless of who caused it.
        // (The old `woke_with_no_work = notified` under-counted: every
        // timeout-then-idle cycle was invisible in the spurious stats.
        // The model checker's parker-timeout-not-spurious mutation keeps
        // this exact bug pinned — see pyjama-check.)
        woke_with_no_work = true;
        pyjama_trace::emit(trace, Stage::BarrierWake, notified as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn notify_before_park_is_not_lost() {
        let s = WakeSignal::new();
        s.notify();
        let t0 = Instant::now();
        s.park(); // must not block
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn permits_do_not_accumulate() {
        let s = WakeSignal::new();
        s.notify();
        s.notify();
        s.park(); // consumes the single stored permit
        assert!(
            !s.park_until(Instant::now() + Duration::from_millis(10)),
            "second park must time out: permits are binary"
        );
    }

    #[test]
    fn park_blocks_until_notify() {
        let s = Arc::new(WakeSignal::new());
        let released = Arc::new(AtomicBool::new(false));
        let (s2, r2) = (Arc::clone(&s), Arc::clone(&released));
        let t = std::thread::spawn(move || {
            s2.park();
            r2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!released.load(Ordering::SeqCst), "park must block");
        s.notify();
        t.join().unwrap();
        assert!(released.load(Ordering::SeqCst));
    }

    /// Two rounds, each notified twice once the owner is parked: the second
    /// notify of a round usually finds the permit pending and skips the
    /// condvar wake, and that suppression must not leak into the next
    /// park. (When the owner wins the race, the second notify lands in its
    /// next park instead — a no-work wake the round loop absorbs.)
    #[test]
    fn suppressed_wake_does_not_outlive_its_park() {
        let s = Arc::new(WakeSignal::new());
        let stage = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let acked = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (s2, st2, ack2) = (Arc::clone(&s), Arc::clone(&stage), Arc::clone(&acked));
        let t = std::thread::spawn(move || {
            for round in 1..=2 {
                while st2.load(Ordering::SeqCst) < round {
                    s2.park();
                }
                ack2.store(round, Ordering::SeqCst);
            }
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        for round in 1..=2 {
            while s.wake.sleepers() == 0 {
                std::thread::yield_now();
            }
            stage.store(round, Ordering::SeqCst);
            s.notify();
            s.notify();
            while acked.load(Ordering::SeqCst) < round {
                assert!(
                    Instant::now() < deadline,
                    "round {round}: the parked owner was never woken"
                );
                std::thread::yield_now();
            }
        }
        t.join().unwrap();
    }

    #[test]
    fn park_until_times_out_without_notify() {
        let s = WakeSignal::new();
        let t0 = Instant::now();
        assert!(!s.park_until(t0 + Duration::from_millis(20)));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn park_until_woken_by_notify() {
        let s = Arc::new(WakeSignal::new());
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            s2.notify();
        });
        assert!(s.park_until(Instant::now() + Duration::from_secs(5)));
        t.join().unwrap();
    }

    #[test]
    fn counters_record_park_and_wake() {
        let before = park_stats();
        let s = Arc::new(WakeSignal::new());
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            s2.notify();
        });
        s.park();
        t.join().unwrap();
        let after = park_stats();
        assert!(after.parks > before.parks);
        assert!(after.wakes > before.wakes);
        assert!(after.notifies > before.notifies);
    }

    #[test]
    fn await_until_deadline_expires_on_stuck_task() {
        let region = crate::task::TargetRegion::new("never-runs", || {});
        let handle = region.handle();
        let t0 = Instant::now();
        assert!(!await_until(
            &handle,
            Some(t0 + Duration::from_millis(30))
        ));
        assert!(t0.elapsed() >= Duration::from_millis(30));
        // The barrier's waker guards must have deregistered.
        region.execute(); // no stale waker to notify; nothing panics
    }

    #[test]
    fn await_until_timeout_counts_spurious_wake() {
        // A stuck task with a deadline: the barrier parks, times out, and
        // exits having found no work. That timeout wake must show up in the
        // spurious counter — the pre-PR-6 code cleared `woke_with_no_work`
        // on timeout returns and never recorded timeout-then-idle cycles.
        let before = park_stats();
        let region = crate::task::TargetRegion::new("stuck", || {});
        let handle = region.handle();
        assert!(!await_until(
            &handle,
            Some(Instant::now() + Duration::from_millis(30))
        ));
        let after = park_stats();
        assert!(
            after.spurious_wakes > before.spurious_wakes,
            "timeout-then-idle exit must count as a spurious (no-work) wake"
        );
    }

    #[test]
    fn await_until_wakes_on_completion_not_by_polling() {
        // A plain thread (no loop, no pool): the only wake source is the
        // task's terminal transition. The barrier must return promptly after
        // it and must park at most a couple of times (no poll storm).
        let before = park_stats();
        let region = crate::task::TargetRegion::new("slow", || {
            std::thread::sleep(Duration::from_millis(50));
        });
        let handle = region.handle();
        let runner = {
            let region = std::sync::Arc::clone(&region);
            std::thread::spawn(move || region.execute())
        };
        assert!(await_until(&handle, None));
        runner.join().unwrap();
        let after = park_stats();
        // Old behaviour: 50ms / 200µs ≈ 250 timed parks. Wake-driven: the
        // thread parks once (maybe twice under scheduling noise). Other
        // tests run concurrently, so bound the *delta* loosely.
        assert!(
            after.parks - before.parks < 50,
            "parks jumped by {} — looks like polling",
            after.parks - before.parks
        );
    }
}
