//! Model port of the one parker per thread: the permit-based
//! [`WakeSignal`] on the one eventcount (`pyjama-events/src/parker.rs`)
//! and the `await_until_inner` barrier loop (`pyjama-runtime/src/parker.rs`)
//! with its spurious-wake accounting.
//!
//! Port map:
//! - [`ModelWakeSignal::notify`]     ⇔ `pyjama-events/src/parker.rs::WakeSignal::notify`
//! - [`ModelWakeSignal::park`]       ⇔ `pyjama-events/src/parker.rs::WakeSignal::park`
//! - [`ModelWakeSignal::park_timed`] ⇔ `pyjama-events/src/parker.rs::WakeSignal::park_until`
//!   (the deadline is abstracted: the scheduler may fire the timeout at
//!   any moment, so every wake-vs-deadline race is explored)
//! - the park itself is [`ModelEventCount::wait`] with spin 0
//!   ⇔ `EventCount::wait(0, ..)`
//! - [`model_await`]                 ⇔ `pyjama-runtime/src/parker.rs::await_until_inner`
//!   (help sources collapsed to one `take_work` closure, which may itself
//!   wait on the same signal as a nested wait does; the caller deadline is
//!   modelled as "a timed park timed out")
//!
//! [`WakeSignal`]: ModelWakeSignal

use crate::models::event_count::{ModelEventCount, ModelWait};
use crate::models::Mutation;
use crate::shim::atomic::{AtomicBool, Ordering};

/// ⇔ `pyjama-events/src/parker.rs::WakeSignal`: an `AtomicBool` permit on
/// an eventcount.
pub struct ModelWakeSignal {
    permit: AtomicBool,
    /// Only read under [`Mutation::ParkerStickyWokenFlag`]: "a notify
    /// already woke the owner", set by `notify` and never cleared.
    woken: AtomicBool,
    wake: ModelEventCount,
    mutation: Mutation,
}

impl ModelWakeSignal {
    /// `mutation` applies to the signal and to its eventcount.
    pub fn new(mutation: Mutation) -> Self {
        ModelWakeSignal {
            permit: AtomicBool::named("signal.permit", false),
            woken: AtomicBool::named("signal.woken", false),
            wake: ModelEventCount::new(mutation),
            mutation,
        }
    }

    /// ⇔ `WakeSignal::notify`: a permit already pending returns after one
    /// load; otherwise swap the permit in and notify the eventcount only if
    /// this call set it (a pending permit means an earlier notify set it
    /// and its wake is in flight or will be seen by the park).
    pub fn notify(&self) {
        let pending = self.permit.load(Ordering::SeqCst);
        let fast_return = if self.mutation == Mutation::ParkerFastPathOnClearPermit {
            // BUG: the fast path's test inverted. A notify that finds the
            // permit clear, the one case that must set it, returns.
            !pending
        } else {
            pending
        };
        if fast_return {
            return;
        }
        if self.mutation == Mutation::ParkerNotifySkipPermit && self.wake.sleepers() == 0 {
            // BUG: only wake a currently-parked owner. A notify landing in
            // the window between the owner's "no work" check and its park
            // is dropped on the floor — the lost wakeup the permit exists
            // to prevent.
            return;
        }
        let pending = self.permit.swap(true, Ordering::SeqCst);
        let wake = if self.mutation == Mutation::ParkerStickyWokenFlag {
            // BUG: suppress the wake by "someone already woke it", a flag
            // `park` never clears. The first wake silences every later
            // one: the owner's second park sleeps on a set permit.
            !self.woken.swap(true, Ordering::SeqCst)
        } else {
            !pending
        };
        if wake {
            self.wake.notify();
        }
    }

    /// ⇔ `WakeSignal::park`: consume a pending permit or block for one.
    pub fn park(&self) {
        self.wake.wait(0, false, || self.permit.swap(false, Ordering::SeqCst));
    }

    /// ⇔ `WakeSignal::park_until`, deadline abstracted to a scheduler
    /// choice. Returns `true` if a permit was consumed, `false` on timeout.
    pub fn park_timed(&self) -> bool {
        self.wake.wait(0, true, || self.permit.swap(false, Ordering::SeqCst)) != ModelWait::TimedOut
    }
}

/// What [`model_await`] observed, with ground truth alongside the
/// protocol's own accounting so a scenario can assert they agree.
pub struct AwaitOutcome {
    pub finished: bool,
    /// No-work wakeups as counted by the (possibly mutated) protocol logic
    /// — what `COUNTERS.spurious_wakes.inc()` would have seen.
    pub spurious: u64,
    /// Ground truth: parks whose wakeup (notify *or* timeout) was followed
    /// by a no-work iteration or the deadline exit.
    pub actual_idle_wakes: u64,
}

/// ⇔ `pyjama-runtime/src/parker.rs::await_until_inner`, reduced to its
/// accounting skeleton:
/// `finished`/`take_work` stand in for the task handle and the help
/// sources (both are scenario-provided closures running on shim state),
/// and the caller deadline fires when a timed park times out.
///
/// Under [`Mutation::ParkerTimeoutNotSpurious`] this reproduces the
/// pre-PR-6 logic (`woke_with_no_work = notified`), which under-counts:
/// a timeout wake followed by an idle iteration is a real no-work wakeup
/// the old code never recorded. Under [`Mutation::ParkerNestedSkipRecheck`]
/// a successful help pass goes straight to the park, skipping the
/// `finished()` re-check at the top of the loop.
pub fn model_await(
    signal: &ModelWakeSignal,
    finished: impl Fn() -> bool,
    take_work: impl Fn() -> bool,
    timed: bool,
    mutation: Mutation,
) -> AwaitOutcome {
    let mut spurious = 0u64;
    let mut actual_idle_wakes = 0u64;
    let mut woke_with_no_work = false;
    let mut woke_at_all = false;
    let mut deadline_hit = false;
    loop {
        if finished() {
            return AwaitOutcome { finished: true, spurious, actual_idle_wakes };
        }
        if deadline_hit {
            // Deadline-expiry exit: the wake that got us here delivered no
            // work either, so it must be recorded before returning.
            if woke_with_no_work {
                spurious += 1;
            }
            if woke_at_all {
                actual_idle_wakes += 1;
            }
            return AwaitOutcome { finished: finished(), spurious, actual_idle_wakes };
        }
        if take_work() {
            woke_with_no_work = false;
            woke_at_all = false;
            if mutation == Mutation::ParkerNestedSkipRecheck {
                // BUG: the helped work may have waited on this same signal
                // and consumed the wake meant for us; parking now, before
                // re-checking `finished`, sleeps through it.
                signal.park();
            }
            continue;
        }
        if woke_with_no_work {
            spurious += 1;
        }
        if woke_at_all {
            actual_idle_wakes += 1;
        }
        let notified = if timed {
            let n = signal.park_timed();
            if !n {
                deadline_hit = true;
            }
            n
        } else {
            signal.park();
            true
        };
        woke_at_all = true;
        woke_with_no_work = if mutation == Mutation::ParkerTimeoutNotSpurious {
            // BUG (pre-PR-6): a timeout return reported "not woken", so the
            // following idle iteration was never counted as spurious.
            notified
        } else {
            true
        };
    }
}
