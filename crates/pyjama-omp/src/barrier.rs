//! A reusable sense-reversing spin-then-park barrier: the rendezvous
//! behind `ctx.barrier()`. (Region *join* does not go through it: pooled
//! workers signal completion into their own `'static` slots — see
//! [`crate::pool`] — and the leader does not pop the frame holding the
//! barrier until every member has signalled, so no participant can still
//! be inside [`Barrier::wait`] when the barrier is dropped.)
//!
//! * Arrival is one `fetch_sub` on the remaining-count. The last arrival
//!   resets the count and bumps the atomic *generation word*, which is the
//!   only thing waiters watch — the sense reversal that makes immediate
//!   reuse safe (a thread can never lap a barrier it has not exited).
//! * Waiters wait on the workspace's one [`EventCount`] for the generation
//!   word to move: a bounded spin ([`SPIN_LIMIT`], calibrated so that
//!   sub-µs region bodies and back-to-back barriers resolve without a
//!   syscall), then a park. The opener's notify takes the eventcount's
//!   lock only when someone sleeps.
//!
//! Spin-vs-park outcomes are counted in the crate's [`TeamStats`]
//! (`pyjama_omp::team_stats()`) so a traced run can show whether its
//! barriers resolve in the spin window.
//!
//! [`TeamStats`]: pyjama_metrics::TeamStats

use std::sync::atomic::{AtomicUsize, Ordering};

use pyjama_sync::{EventCount, Wait};

use crate::COUNTERS;

/// Spin budget before a waiter parks, in `spin_loop` iterations. Sized for
/// the "small kernel region" regime: a few microseconds of spinning —
/// enough for every member of an empty or sub-µs region to arrive, far too
/// short to matter when a member is off running a millisecond kernel.
/// Collapses to zero on single-CPU machines (see [`pyjama_sync::spin::budget`]).
const SPIN_LIMIT: u32 = 4096;

/// A reusable barrier for a fixed-size team.
pub struct Barrier {
    n: usize,
    /// Threads still to arrive in the current generation.
    remaining: AtomicUsize,
    /// Bumps every time the barrier opens. Waiters watch this word (not the
    /// count), which is what makes immediate reuse lap-safe.
    generation: AtomicUsize,
    /// Non-leaders park here until the generation moves.
    opened: EventCount,
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
            opened: EventCount::new(),
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
        let gen = self.generation.load(Ordering::SeqCst);
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last arrival: reset the count for the next generation *before*
            // opening this one — a released waiter may re-enter immediately.
            self.remaining.store(self.n, Ordering::SeqCst);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            self.opened.notify();
            return true;
        }
        let waited = self.opened.wait(SPIN_LIMIT, None, || {
            self.generation.load(Ordering::SeqCst) != gen
        });
        if waited == Wait::Parked {
            COUNTERS.barrier_parks.inc();
        } else {
            COUNTERS.barrier_spins.inc();
        }
        false
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
    }
}
