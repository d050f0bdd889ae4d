//! The workspace's one way to park a thread: a spin-then-park eventcount.
//!
//! An idle omp pool worker awaiting a fork, the leader collecting joins, the
//! team barrier, a task drainer at region end and the runtime's `WakeSignal`
//! all wait on an atomic condition the same way:
//!
//! * The waiter checks `ready()`, spinning up to
//!   [`spin::budget(spin)`](crate::spin::budget) times, then takes the
//!   lock, publishes itself as a sleeper (SeqCst) and re-checks `ready()`
//!   before blocking.
//! * [`notify`](EventCount::notify), called after the SeqCst store that
//!   makes `ready()` true, passes through the lock and calls `notify_all`
//!   only when a sleeper is registered.
//!
//! In the SC order either the notifier's sleeper read follows the publish —
//! then it takes the lock, which the waiter holds from its re-check until
//! the condvar releases it, so the waiter is queued on the condvar before
//! the notify — or it precedes it, and the re-check sees the store. No wake is lost. Waiters on different conditions may share one
//! eventcount (the pool slot's worker and leader do): each re-checks its
//! own `ready()`.
//!
//! Model-checked twin: `pyjama-check/src/models/event_count.rs` (DESIGN.md
//! §5h).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::{Condvar, Mutex};

/// How an [`EventCount::wait`] ended, so callers can keep their spin/park
/// counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// `ready()` held without blocking: while spinning, or at the re-check
    /// under the lock.
    Spun,
    /// The waiter blocked at least once before `ready()` held.
    Parked,
    /// The deadline passed with `ready()` still false.
    TimedOut,
}

/// A sleeper count, a lock and a condvar: see the module docs.
#[derive(Debug, Default)]
pub struct EventCount {
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl EventCount {
    pub const fn new() -> Self {
        EventCount {
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Waits until `ready()` returns true or `deadline` passes. `ready` must
    /// read the condition with SeqCst; it may consume it (a permit swap), as
    /// it is not called again once it returned true. `spin` is the site's
    /// default spin limit, resolved through [`crate::spin::budget`]; 0 never
    /// spins.
    pub fn wait(&self, spin: u32, deadline: Option<Instant>, mut ready: impl FnMut() -> bool) -> Wait {
        let limit = crate::spin::budget(spin);
        let mut spins = 0u32;
        while !ready() {
            if spins == limit {
                return self.park(deadline, ready);
            }
            std::hint::spin_loop();
            spins += 1;
        }
        Wait::Spun
    }

    #[cold]
    fn park(&self, deadline: Option<Instant>, mut ready: impl FnMut() -> bool) -> Wait {
        // The count changes only under the lock, so a notifier that takes
        // it sees exactly the waiters that are blocked or about to be.
        let mut g = self.lock.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut blocked = false;
        let outcome = loop {
            if ready() {
                break if blocked { Wait::Parked } else { Wait::Spun };
            }
            match deadline {
                None => self.cond.wait(&mut g),
                Some(d) if Instant::now() >= d => break Wait::TimedOut,
                Some(d) => {
                    self.cond.wait_until(&mut g, d);
                }
            }
            blocked = true;
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        outcome
    }

    /// Wakes every registered sleeper. Call after the SeqCst store that
    /// makes a waiter's `ready()` true; takes the lock only when a sleeper
    /// is registered.
    pub fn notify(&self) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Passing through the lock orders this notify after any sleeper's
        // re-check, so the condvar call may follow the unlock: a woken
        // sleeper then does not block on a lock its waker still holds. The
        // count re-read under the lock skips the syscall when the sleeper
        // left meanwhile.
        let sleeping = {
            let _g = self.lock.lock();
            self.sleepers.load(Ordering::Relaxed) > 0
        };
        if sleeping {
            self.cond.notify_all();
        }
    }

    /// Waiters currently past their spin (registered as sleepers).
    pub fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn notify_before_wait_is_not_lost() {
        let ec = EventCount::new();
        let flag = AtomicBool::new(false);
        flag.store(true, Ordering::SeqCst);
        ec.notify();
        let t0 = Instant::now();
        let w = ec.wait(0, None, || flag.load(Ordering::SeqCst));
        assert_eq!(w, Wait::Spun, "a condition set before the wait must not block");
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn spin_zero_wait_parks_until_notified_from_another_thread() {
        let ec = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (ec2, flag2) = (Arc::clone(&ec), Arc::clone(&flag));
        let t = std::thread::spawn(move || ec2.wait(0, None, || flag2.load(Ordering::SeqCst)));
        while ec.sleepers() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "the waiter must block");
        flag.store(true, Ordering::SeqCst);
        ec.notify();
        assert_eq!(t.join().unwrap(), Wait::Parked);
        assert_eq!(ec.sleepers(), 0);
    }

    #[test]
    fn deadline_wait_times_out() {
        let ec = EventCount::new();
        let t0 = Instant::now();
        let w = ec.wait(0, Some(t0 + Duration::from_millis(20)), || false);
        assert_eq!(w, Wait::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(ec.sleepers(), 0, "a timed-out waiter must deregister");
    }

    #[test]
    fn notify_without_sleepers_leaves_the_lock_free() {
        let ec = Arc::new(EventCount::new());
        let held = ec.lock.try_lock().expect("lock free before");
        // While this thread holds the lock, a notify that took it would
        // block; with no sleeper registered it must not touch it.
        let ec2 = Arc::clone(&ec);
        let t = std::thread::spawn(move || ec2.notify());
        let deadline = Instant::now() + Duration::from_secs(5);
        while !t.is_finished() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let finished = t.is_finished();
        drop(held);
        t.join().unwrap();
        assert!(finished, "notify with no sleeper blocked on the lock");
        assert!(ec.lock.try_lock().is_some());
    }

    #[test]
    fn one_notify_wakes_waiters_on_different_conditions() {
        let ec = Arc::new(EventCount::new());
        let a = Arc::new(AtomicBool::new(false));
        let b = Arc::new(AtomicBool::new(false));
        let spawn = |flag: &Arc<AtomicBool>| {
            let (ec, flag) = (Arc::clone(&ec), Arc::clone(flag));
            std::thread::spawn(move || ec.wait(0, None, || flag.load(Ordering::SeqCst)))
        };
        let (ta, tb) = (spawn(&a), spawn(&b));
        while ec.sleepers() < 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        a.store(true, Ordering::SeqCst);
        b.store(true, Ordering::SeqCst);
        ec.notify();
        // Either may still have been between its publish and its re-check
        // (then it spun); what matters is that one notify released both.
        assert_ne!(ta.join().unwrap(), Wait::TimedOut);
        assert_ne!(tb.join().unwrap(), Wait::TimedOut);
        assert_eq!(ec.sleepers(), 0);
    }
}
