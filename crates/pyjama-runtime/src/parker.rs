//! The wake-driven `await` logical barrier.
//!
//! With nothing to help with, the encountering thread parks on its own
//! parker ([`WakeSignal`], see [`pyjama_events::parker`]), which every
//! source that can end the barrier or hand it work already notifies:
//!
//! 1. the awaited [`TaskHandle`]'s terminal transition (the barrier enlists
//!    the parker on the handle's waiter list), or for `wait(tag)` an exit
//!    that drains a slot of the tag's [`Latch`](pyjama_events::Latch);
//! 2. a post to the event loop the thread is running (the thread running a
//!    loop is its queue's owner);
//! 3. a region enqueued on — or shutdown of — the worker pool the thread
//!    belongs to (a member parked here publishes `parked` like an idle
//!    worker, so `wake_one` can pick it).
//!
//! Nothing is registered with the loop or the pool and the handle's entry
//! is the parker itself, so there is no token and no allocation. The loop
//! re-checks its handle before each help pass and each park, so a wake
//! consumed by a nested wait on the same thread costs it nothing. Timers
//! are the one wake nothing notifies, so a parked EDT bounds its sleep by
//! the loop's next timer deadline — an exact event time, never a poll
//! quantum.
//!
//! Model-checked twin: `pyjama-check/src/models/parker.rs` ports
//! `await_until_inner`'s accounting and its nesting (DESIGN.md §5h).

use std::time::Instant;

use pyjama_events::parker::note_spurious_wake;
pub use pyjama_events::parker::{park_stats, reset_park_stats, ParkStats, WakeSignal};
use pyjama_events::pump;
use pyjama_trace::{Stage, TraceId};

use crate::task::TaskHandle;
use crate::worker::WorkerTarget;

/// The barrier on one task handle (the `await` clause and the
/// deadline-bounded pumping joins).
pub(crate) fn await_until(handle: &TaskHandle, deadline: Option<Instant>) -> bool {
    await_cond(handle.trace_id(), deadline, || handle.is_finished(), || handle.enlist())
}

/// The wake-driven logical barrier loop. Helps (pumps the current event
/// loop, drains the current pool's queue) while work is available and
/// `done` is false; parks on the thread's parker otherwise, which the guard
/// `enlist` returns keeps on the list of whatever makes `done` true.
/// Returns whether `done` holds (always `true` when `deadline` is `None`).
pub(crate) fn await_cond<W>(
    trace: TraceId,
    deadline: Option<Instant>,
    mut done: impl FnMut() -> bool,
    enlist: impl FnOnce() -> W,
) -> bool {
    if done() {
        return true;
    }
    pyjama_trace::emit(trace, Stage::BarrierEnter, 0);
    // Enlist *before* the first work check: a completion from here on sets
    // the permit; an earlier one is observed by the checks below. The
    // waiter leaves the list on every exit path, a propagating panic too.
    let _waiter = enlist();
    let finished = await_until_inner(trace, deadline, done);
    pyjama_trace::emit(trace, Stage::BarrierExit, finished as u32);
    finished
}

fn await_until_inner(trace: TraceId, deadline: Option<Instant>, mut done: impl FnMut() -> bool) -> bool {
    let parker = pyjama_events::parker::current();
    let loop_handle = pump::current_handle();
    let mut woke_with_no_work = false;
    loop {
        if done() {
            return true;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                // The wake that brought us to this exit (if any) delivered
                // no work either — record it before leaving, or deadline
                // exits would silently eat one no-work wakeup.
                if woke_with_no_work {
                    note_spurious_wake();
                }
                return done();
            }
        }
        if pump::try_pump_current() || WorkerTarget::help_current_thread_pool() {
            woke_with_no_work = false;
            continue;
        }
        if woke_with_no_work {
            note_spurious_wake();
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
        let notified = WorkerTarget::park_current(&parker, until);
        // A timeout return is still a wakeup: if the next iteration finds
        // no work, it was a no-work wakeup regardless of who caused it
        // (pyjama-check's parker-timeout-not-spurious mutation pins this).
        woke_with_no_work = true;
        pyjama_trace::emit(trace, Stage::BarrierWake, notified as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

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
        // The barrier's waiter must have left the handle's list: only the
        // thread-local slot and this clone still hold the parker.
        assert_eq!(std::sync::Arc::strong_count(&pyjama_events::parker::current()), 2);
        region.execute();
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
        // Counted on this thread's own parker: other tests park in parallel.
        let me = pyjama_events::parker::current();
        let before = me.parks();
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
        // Old behaviour: 50ms / 200µs ≈ 250 timed parks. Wake-driven: the
        // thread parks once (maybe twice under scheduling noise).
        let parks = me.parks() - before;
        assert!(parks < 5, "parked {parks} times — looks like polling");
    }
}
