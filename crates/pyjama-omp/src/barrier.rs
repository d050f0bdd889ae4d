//! A reusable sense-reversing spin-then-park barrier.
//!
//! The team barrier is the hottest synchronisation primitive in a
//! fork-join runtime: with pooled workers, every region pays the join
//! barrier even when its body is sub-microsecond, and every `ctx.barrier()`
//! pays it again. The previous design took a mutex and a condvar
//! round-trip on *every* arrival; for region bodies shorter than a context
//! switch that lock traffic dominated the region.
//!
//! This barrier keeps the classic sense-reversing shape but moves the fast
//! path entirely onto atomics:
//!
//! * Arrival is one `fetch_sub` on the remaining-count. The last arrival
//!   resets the count and bumps the atomic *generation word*, which is the
//!   only thing waiters watch — the sense reversal that makes immediate
//!   reuse safe (a thread can never lap a barrier it has not exited).
//! * Waiters spin a bounded budget ([`SPIN_LIMIT`], calibrated so that
//!   sub-µs region bodies and back-to-back barriers resolve without a
//!   syscall), then park on a condvar with the same permit discipline as
//!   `pyjama-runtime`'s parker: the sleeper count is published *before*
//!   re-checking the generation under the lock, and the opener notifies
//!   under the same lock, so a wake between "spin failed" and "parked"
//!   is never lost.
//! * [`Barrier::quiesce`] lets an owner whose barrier lives on its stack
//!   wait until every other participant has fully stepped out of
//!   [`wait`](Barrier::wait) before the memory is reclaimed — each
//!   waiter's very last touch of the barrier is a `Release` decrement of
//!   the active count, and `quiesce` acquires on it. (Region *join* does
//!   not go through this barrier at all: pooled workers signal completion
//!   into their own `'static` slots — see [`crate::pool`] — so this
//!   barrier only serves explicit `ctx.barrier()` rendezvous.)
//!
//! Spin-vs-park outcomes are counted in the crate's [`TeamStats`]
//! (`pyjama_omp::team_stats()`) so a traced run can show whether its
//! barriers resolve in the spin window.
//!
//! [`TeamStats`]: pyjama_metrics::TeamStats

use std::sync::atomic::{AtomicUsize, Ordering};

use pyjama_sync::{Condvar, Mutex};

use crate::COUNTERS;

/// Spin budget before a waiter parks, in `spin_loop` iterations. Sized for
/// the "small kernel region" regime: a few microseconds of spinning —
/// enough for every member of an empty or sub-µs region to arrive, far too
/// short to matter when a member is off running a millisecond kernel.
/// Collapses to zero on single-CPU machines (see [`crate::spin::budget`]).
const SPIN_LIMIT: u32 = 4096;

/// A reusable barrier for a fixed-size team.
pub struct Barrier {
    n: usize,
    /// Threads still to arrive in the current generation.
    remaining: AtomicUsize,
    /// Bumps every time the barrier opens. Waiters watch this word (not the
    /// count), which is what makes immediate reuse lap-safe.
    generation: AtomicUsize,
    /// Waiters currently parked on the condvar.
    sleepers: AtomicUsize,
    /// Participants currently inside `wait` (see [`Barrier::quiesce`]).
    active: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl Barrier {
    /// Creates a barrier for `n` participants.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        Barrier {
            n,
            remaining: AtomicUsize::new(n),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Blocks until all `n` participants have called `wait` in this
    /// generation. Returns `true` on exactly one participant per generation
    /// (the "leader", the last to arrive), `false` on the others.
    pub fn wait(&self) -> bool {
        self.active.fetch_add(1, Ordering::SeqCst);
        let gen = self.generation.load(Ordering::SeqCst);
        let leader = if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last arrival: reset the count for the next generation *before*
            // opening this one — a released waiter may re-enter immediately.
            self.remaining.store(self.n, Ordering::SeqCst);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // Sleepers publish themselves before re-checking the
                // generation under this lock; holding it across the notify
                // closes the publish/park window.
                let _g = self.lock.lock();
                self.cond.notify_all();
            }
            true
        } else {
            self.wait_slow(gen);
            false
        };
        // Last touch of barrier memory on every path: `quiesce` acquires on
        // this count before the owner may free the barrier.
        self.active.fetch_sub(1, Ordering::Release);
        leader
    }

    /// The non-leader path: bounded spin on the generation word, then park.
    fn wait_slow(&self, gen: usize) {
        let limit = crate::spin::budget(SPIN_LIMIT);
        let mut spins = 0u32;
        while spins < limit {
            if self.generation.load(Ordering::SeqCst) != gen {
                COUNTERS.barrier_spins.inc();
                return;
            }
            std::hint::spin_loop();
            spins += 1;
        }
        let mut g = self.lock.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        COUNTERS.barrier_parks.inc();
        while self.generation.load(Ordering::SeqCst) == gen {
            self.cond.wait(&mut g);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Spins (then yields) until no participant is inside [`wait`]. After
    /// `quiesce` returns, the owner may drop the barrier even though other
    /// participants are pooled threads that outlive it: their final access
    /// was the `Release` decrement this method acquires on.
    ///
    /// Only meaningful after the caller's own `wait` returned — every other
    /// participant has then arrived and is merely stepping out.
    ///
    /// [`wait`]: Barrier::wait
    pub fn quiesce(&self) {
        let limit = crate::spin::budget(SPIN_LIMIT);
        let mut spins = 0u32;
        while self.active.load(Ordering::Acquire) != 0 {
            if spins < limit {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            spins = spins.saturating_add(1);
        }
    }
}

impl std::fmt::Debug for Barrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Barrier").field("participants", &self.n).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_participant_never_blocks() {
        let b = Barrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
        b.quiesce();
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = Barrier::new(0);
    }

    #[test]
    fn all_threads_rendezvous() {
        const N: usize = 8;
        let b = Arc::new(Barrier::new(N));
        let before = Arc::new(AtomicUsize::new(0));
        let after = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..N)
            .map(|_| {
                let b = Arc::clone(&b);
                let before = Arc::clone(&before);
                let after = Arc::clone(&after);
                std::thread::spawn(move || {
                    before.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    // Everyone must have arrived before anyone proceeds.
                    assert_eq!(before.load(Ordering::SeqCst), N);
                    after.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(after.load(Ordering::SeqCst), N);
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        const N: usize = 4;
        const GENS: usize = 50;
        let b = Arc::new(Barrier::new(N));
        let leaders = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..N)
            .map(|_| {
                let b = Arc::clone(&b);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for _ in 0..GENS {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), GENS);
    }

    #[test]
    fn immediate_reuse_has_no_lost_wakeups() {
        // Stress rapid consecutive generations; a naive count-based barrier
        // deadlocks here when a fast thread laps a slow one.
        const N: usize = 3;
        const GENS: usize = 500;
        let b = Arc::new(Barrier::new(N));
        let hs: Vec<_> = (0..N)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..GENS {
                        b.wait();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
    }

    #[test]
    fn parked_waiter_is_woken() {
        // Force the slow path: one thread waits far longer than the spin
        // budget before the opener arrives, so it must park and be notified.
        let b = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || b2.wait());
        std::thread::sleep(std::time::Duration::from_millis(50));
        b.wait();
        t.join().unwrap();
        b.quiesce();
    }

    #[test]
    fn quiesce_returns_after_all_exits() {
        const N: usize = 4;
        const GENS: usize = 200;
        let b = Arc::new(Barrier::new(N));
        let hs: Vec<_> = (1..N)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..GENS {
                        b.wait();
                    }
                })
            })
            .collect();
        for _ in 0..GENS {
            b.wait();
        }
        // After our last wait every other participant has arrived; quiesce
        // must observe all of them leaving.
        b.quiesce();
        assert_eq!(b.active.load(Ordering::SeqCst), 0);
        for h in hs {
            h.join().unwrap();
        }
    }
}
