//! Model port of `pyjama-runtime/src/parker.rs` — the permit-based
//! [`WakeSignal`] eventcount and the `await_until_inner` barrier loop's
//! spurious-wake accounting.
//!
//! Port map:
//! - [`ModelWakeSignal::notify`]     ⇔ `parker.rs::WakeSignal::notify`
//! - [`ModelWakeSignal::park`]       ⇔ `parker.rs::WakeSignal::park`
//! - [`ModelWakeSignal::park_timed`] ⇔ `parker.rs::WakeSignal::park_until`
//!   (the deadline is abstracted: the scheduler may fire the timeout at
//!   any moment, so every wake-vs-deadline race is explored)
//! - [`model_await`]                 ⇔ `parker.rs::await_until_inner`
//!   (help sources collapsed to one work counter; the caller deadline is
//!   modelled as "a timed park timed out")

use crate::models::Mutation;
use crate::shim::sync::{Condvar, Mutex};

struct SignalState {
    permit: bool,
    parked: bool,
    /// Only read under [`Mutation::ParkerStickyWokenFlag`]: "a notify
    /// already woke the owner", set by `notify` and never cleared.
    woken: bool,
}

/// ⇔ `parker.rs::WakeSignal`: one-thread parker with permit semantics.
pub struct ModelWakeSignal {
    state: Mutex<SignalState>,
    cond: Condvar,
    mutation: Mutation,
}

impl ModelWakeSignal {
    pub fn new(mutation: Mutation) -> Self {
        ModelWakeSignal {
            state: Mutex::named("signal.state", SignalState { permit: false, parked: false, woken: false }),
            cond: Condvar::named("signal.cond"),
            mutation,
        }
    }

    /// ⇔ `WakeSignal::notify`: store the permit; wake the owner if it is
    /// parked and no permit was already pending (a pending permit means an
    /// earlier notify saw the same park and its wake is in flight).
    pub fn notify(&self) {
        let mut g = self.state.lock();
        if self.mutation == Mutation::ParkerNotifySkipPermit && !g.parked {
            // BUG: only wake a currently-parked owner. A notify landing in
            // the window between the owner's "no work" check and its park
            // is dropped on the floor — the lost wakeup the permit exists
            // to prevent.
            drop(g);
            return;
        }
        let pending = std::mem::replace(&mut g.permit, true);
        let wake = if self.mutation == Mutation::ParkerStickyWokenFlag {
            // BUG: suppress the wake by "someone already woke it", a flag
            // `park` never clears. The first park's wake silences every
            // later one: the owner's second park sleeps on a set permit.
            let wake = g.parked && !g.woken;
            g.woken |= wake;
            wake
        } else {
            g.parked && !pending
        };
        drop(g);
        if wake {
            self.cond.notify_all();
        }
    }

    /// ⇔ `WakeSignal::park`: consume a pending permit or block for one.
    pub fn park(&self) {
        let mut g = self.state.lock();
        if g.permit {
            g.permit = false;
            return;
        }
        g.parked = true;
        while !g.permit {
            self.cond.wait(&mut g);
        }
        g.permit = false;
        g.parked = false;
    }

    /// ⇔ `WakeSignal::park_until`, deadline abstracted to a scheduler
    /// choice. Returns `true` if a permit was consumed, `false` on timeout.
    pub fn park_timed(&self) -> bool {
        let mut g = self.state.lock();
        if g.permit {
            g.permit = false;
            return true;
        }
        g.parked = true;
        while !g.permit {
            if self.cond.wait_timed(&mut g) {
                break;
            }
        }
        g.parked = false;
        let notified = g.permit;
        g.permit = false;
        notified
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

/// ⇔ `parker.rs::await_until_inner`, reduced to its accounting skeleton:
/// `finished`/`take_work` stand in for the task handle and the help
/// sources (both are scenario-provided closures running on shim state),
/// and the caller deadline fires when a timed park times out.
///
/// Under [`Mutation::ParkerTimeoutNotSpurious`] this reproduces the
/// pre-PR-6 logic (`woke_with_no_work = notified`), which under-counts:
/// a timeout wake followed by an idle iteration is a real no-work wakeup
/// the old code never recorded.
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
