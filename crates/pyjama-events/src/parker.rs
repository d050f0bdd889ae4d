//! One parker per thread.
//!
//! Algorithm 1's `await` has one waiting party, the encountering thread, and
//! so does every other wait in the runtime: a loop thread idle on its queue,
//! a pool worker idle on its pool, a thread joining a task handle, a caller
//! of [`Edt::invoke_and_wait`](crate::Edt::invoke_and_wait). Each parks on
//! the calling thread's [`WakeSignal`] ([`current`]), and each wake source
//! notifies the parkers of the threads that wait on it: an event loop's
//! queue its loop thread's, on every post, schedule and quit; a task handle
//! those on its waiter list, at its terminal transition; a worker pool one
//! member published as `parked` (the pool slot owns the member's parker,
//! see [`adopt`]).
//!
//! **Why a shared permit loses no wake.** `notify` stores a permit that a
//! later `park` consumes without blocking, so a wake landing between
//! "condition false" and "thread parked" is never lost. One permit serves
//! every wait of the thread, so a park may consume a permit set for another
//! wait: a wait nested in a helped handler takes the wake meant for the
//! outer await. The outer wait loses nothing, because every wait re-checks
//! its own condition after each wake and before each park: its condition
//! became true before the notify, and it checks again once the nested wait
//! returns. A stray permit costs one no-work wake.
//!
//! The permit is an `AtomicBool`; `park` is an [`EventCount`] wait (spin 0)
//! that swaps it out, and `notify` calls the eventcount only when it is the
//! call that set the permit, so a burst of posts to one parked thread costs
//! one wake.
//!
//! Model-checked twin: `pyjama-check/src/models/parker.rs`, including two
//! nested waits sharing one permit (DESIGN.md §5h).

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pyjama_metrics::park::ParkCounters;
pub use pyjama_metrics::park::ParkStats;
use pyjama_sync::{EventCount, Wait};

/// Process-wide parker counters (all parkers, all threads).
static COUNTERS: ParkCounters = ParkCounters::new();

/// Snapshot of the process-wide park/wake counters: how often threads
/// actually blocked, how often wake sources fired, and how many wakeups
/// delivered no work.
pub fn park_stats() -> ParkStats {
    COUNTERS.snapshot()
}

/// Zeroes the process-wide park/wake counters. Increments racing the reset
/// land on either side of it; quiesce waiters first for exact figures.
pub fn reset_park_stats() {
    COUNTERS.reset();
}

/// Records a wakeup that found neither its condition met nor work to help
/// with (the await barrier's accounting).
pub fn note_spurious_wake() {
    COUNTERS.spurious_wakes.inc();
}

thread_local! {
    static PARKER: OnceCell<Arc<WakeSignal>> = const { OnceCell::new() };
}

/// The calling thread's parker, created on first use.
pub fn current() -> Arc<WakeSignal> {
    PARKER
        .try_with(|p| Arc::clone(p.get_or_init(|| Arc::new(WakeSignal::new()))))
        // During thread-local teardown a private signal still works: the
        // wait enlists it with its wake source like any other.
        .unwrap_or_else(|_| Arc::new(WakeSignal::new()))
}

/// Makes `signal` the calling thread's parker. A worker pool calls this
/// first thing on each member thread, so the slot it notifies is the
/// parker every wait on that thread parks on.
pub fn adopt(signal: Arc<WakeSignal>) {
    PARKER.with(|p| {
        let fresh = p.set(signal).is_ok();
        debug_assert!(fresh, "adopt must precede the thread's first wait");
    });
}

/// A one-thread parker with permit semantics: `notify` from any thread,
/// `park` from the owning thread. A notify delivered while the owner is not
/// parked is stored and satisfies the next park immediately.
pub struct WakeSignal {
    /// A pending wake not yet consumed by `park`.
    permit: AtomicBool,
    wake: EventCount,
    /// Blocking parks on this signal alone (see [`parks`](Self::parks)).
    parks: AtomicU64,
}

impl WakeSignal {
    /// A fresh signal with no pending permit.
    pub fn new() -> Self {
        WakeSignal {
            permit: AtomicBool::new(false),
            wake: EventCount::new(),
            parks: AtomicU64::new(0),
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
        self.park_deadline(None);
    }

    /// Like [`park`](Self::park) but gives up at `deadline`. Returns `true`
    /// if a permit was consumed, `false` on timeout.
    pub fn park_until(&self, deadline: Instant) -> bool {
        self.park_deadline(Some(deadline))
    }

    /// [`park_until`](Self::park_until) when there is a deadline, else
    /// [`park`](Self::park) (and `true`).
    pub fn park_deadline(&self, deadline: Option<Instant>) -> bool {
        let waited = self
            .wake
            .wait(0, deadline, || self.permit.swap(false, Ordering::SeqCst));
        if waited != Wait::Spun {
            COUNTERS.parks.inc();
            // Only the owner parks: a plain load and store count exactly.
            self.parks.store(self.parks.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
        if waited == Wait::Parked {
            COUNTERS.wakes.inc();
        }
        waited != Wait::TimedOut
    }

    /// Blocking parks of this signal's owner, timed-out ones included.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

impl Default for WakeSignal {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
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
        let stage = Arc::new(AtomicUsize::new(0));
        let acked = Arc::new(AtomicUsize::new(0));
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
    fn a_signal_counts_only_its_own_blocking_parks() {
        let s = WakeSignal::new();
        s.notify();
        s.park(); // the pending permit: no block, not counted
        assert_eq!(s.parks(), 0);
        assert!(!s.park_until(Instant::now() + Duration::from_millis(5)));
        assert_eq!(s.parks(), 1, "a timed-out park blocked");
        let other = WakeSignal::new();
        assert!(!other.park_until(Instant::now() + Duration::from_millis(5)));
        assert_eq!(s.parks(), 1, "another signal's park is not this one's");
    }

    #[test]
    fn current_is_per_thread_and_stable() {
        let a = current();
        assert!(Arc::ptr_eq(&a, &current()), "one parker per thread");
        let other = std::thread::spawn(current).join().unwrap();
        assert!(!Arc::ptr_eq(&a, &other));
    }

    #[test]
    fn adopted_signal_is_the_threads_parker() {
        let slot = Arc::new(WakeSignal::new());
        let s2 = Arc::clone(&slot);
        let same = std::thread::spawn(move || {
            adopt(Arc::clone(&s2));
            Arc::ptr_eq(&s2, &current())
        })
        .join()
        .unwrap();
        assert!(same);
    }
}
