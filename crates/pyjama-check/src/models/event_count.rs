//! Model port of `pyjama-sync/src/event_count.rs` — the one spin-then-park
//! wait every production park site is built on (omp pool slot, team
//! barrier, task drain, the runtime's `WakeSignal`).
//!
//! Port map:
//! - [`ModelEventCount::wait`]   ⇔ `event_count.rs::EventCount::wait` +
//!   `park` (the spin is `spin` plain `ready()` probes; the deadline is
//!   abstracted: a `timed` wait may be resumed by a scheduler-chosen
//!   timeout at any moment, after which the deadline has passed)
//! - [`ModelEventCount::notify`] ⇔ `event_count.rs::EventCount::notify`

use crate::models::Mutation;
use crate::shim::atomic::{AtomicUsize, Ordering};
use crate::shim::sync::{Condvar, Mutex};

/// ⇔ `pyjama_sync::Wait`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelWait {
    Spun,
    Parked,
    TimedOut,
}

/// ⇔ `pyjama_sync::EventCount`: sleeper count + lock + condvar.
pub struct ModelEventCount {
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
    mutation: Mutation,
}

impl ModelEventCount {
    pub fn new(mutation: Mutation) -> Self {
        ModelEventCount {
            sleepers: AtomicUsize::named("ec.sleepers", 0),
            lock: Mutex::named("ec.lock", ()),
            cond: Condvar::named("ec.cond"),
            mutation,
        }
    }

    /// ⇔ `EventCount::wait`: probe `ready()` up to `spin` extra times, then
    /// take the lock, publish as a sleeper (SeqCst), re-check and block.
    pub fn wait(&self, spin: u32, timed: bool, mut ready: impl FnMut() -> bool) -> ModelWait {
        let mut spins = 0u32;
        while !ready() {
            if spins == spin {
                return self.park(timed, ready);
            }
            spins += 1;
        }
        ModelWait::Spun
    }

    /// ⇔ `EventCount::park`.
    fn park(&self, timed: bool, mut ready: impl FnMut() -> bool) -> ModelWait {
        // BUG (EventCountRecheckBeforePublish): publish the sleeper only
        // after the first re-check. A notify whose condition store and
        // sleeper read both land in between sees nobody asleep and skips
        // the wake; the waiter then blocks on a condition already true.
        let mut g = self.lock.lock();
        let mut published = self.mutation != Mutation::EventCountRecheckBeforePublish;
        if published {
            self.sleepers.fetch_add(1, Ordering::SeqCst);
        }
        let mut blocked = false;
        let mut timed_out = false;
        let outcome = loop {
            if ready() {
                break if blocked { ModelWait::Parked } else { ModelWait::Spun };
            }
            if timed_out {
                break ModelWait::TimedOut;
            }
            if !published {
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                published = true;
            }
            if timed {
                timed_out = self.cond.wait_timed(&mut g);
            } else {
                self.cond.wait(&mut g);
            }
            blocked = true;
        };
        if published {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
        drop(g);
        outcome
    }

    /// ⇔ `EventCount::notify`: pass through the lock, then `notify_all`
    /// iff a sleeper is registered (checked before and under the lock).
    pub fn notify(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            if self.mutation == Mutation::EventCountNotifySkipLock {
                // BUG: notify without passing through the lock. It can land
                // while the sleeper holds the lock between its failed
                // re-check and its condvar wait — nobody is waiting yet,
                // the wake is lost, and the sleeper then blocks for good.
                self.cond.notify_all();
                return;
            }
            let sleeping = {
                let _g = self.lock.lock();
                self.sleepers.load(Ordering::Relaxed) > 0
            };
            if sleeping {
                self.cond.notify_all();
            }
        }
    }

    /// ⇔ `EventCount::sleepers`.
    pub fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }
}
