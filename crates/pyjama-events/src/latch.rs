//! One counted wait. [`Latch::enter`] counts an entry and returns a guard
//! whose drop is the exit; a waiter parks on its own parker
//! ([`parker::current`]) and re-checks after every wake. It serves
//! `name_as(tag)` … `wait(tag)` (§III-C), the PJ run's quiesce, the HTTP
//! server's drain and the thread-per-request baseline's idle wait.
//!
//! `wait(tag)` covers the instances tagged *before* it, so the count has
//! two slots, phaser-style. An entry goes into the slot of the current
//! generation, and a generation wait ([`Latch::generation`]) (1) waits
//! until the other slot, an earlier overlapping wait's, has drained,
//! (2) flips the generation so later entries go into that empty slot, and
//! (3) waits until its own slot has drained. A flip always goes into an
//! empty slot, so a guard's one-bit slot stays valid.
//!
//! Entry and exit are one atomic add each. An exit that drains a slot takes
//! the waiter lock only if `waiting` is non-zero; a waiter counts itself in
//! before it re-checks, both `SeqCst`, so one of them sees the other.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Instant;

use pyjama_sync::Mutex;

use crate::parker::{self, WakeSignal};

/// An outstanding count with two generation slots and a waiter list.
#[derive(Default)]
pub struct Latch {
    /// Entries per slot: slot 0 in the low 32 bits, slot 1 in the high 32.
    counts: AtomicU64,
    /// The current generation; its low bit is the slot entries go into.
    generation: AtomicUsize,
    /// Enlisted waiters, readable without the lock.
    waiting: AtomicUsize,
    /// The waiting threads' parkers, one entry per wait.
    waiters: Mutex<Vec<Arc<WakeSignal>>>,
}

impl Latch {
    /// Counts one entry until the returned guard drops.
    pub fn enter(self: &Arc<Self>) -> LatchGuard {
        let slot = self.generation.load(SeqCst) & 1;
        self.counts.fetch_add(1 << (32 * slot), SeqCst);
        let ptr = Arc::into_raw(Arc::clone(self)).map_addr(|a| a | slot);
        LatchGuard(NonNull::new(ptr.cast_mut()).expect("an Arc is non-null"))
    }

    fn slot_count(&self, generation: usize) -> u32 {
        (self.counts.load(SeqCst) >> (32 * (generation & 1))) as u32
    }

    /// Entries not yet exited, over both slots.
    pub fn outstanding(&self) -> usize {
        self.slot_count(0) as usize + self.slot_count(1) as usize
    }

    /// Starts a wait on every entry made so far: the returned check, polled
    /// between parks, turns true once they have all exited (steps 1–3).
    pub fn generation(&self) -> impl FnMut() -> bool + '_ {
        let own = self.generation.load(SeqCst);
        let (next, mut flipped) = (own.wrapping_add(1), false);
        move || {
            if !flipped && self.generation.load(SeqCst) == own {
                if self.slot_count(next) != 0 {
                    return false;
                }
                let _ = self.generation.compare_exchange(own, next, SeqCst, SeqCst);
            }
            flipped = true;
            // A second flip past `own` found this wait's slot drained.
            self.generation.load(SeqCst).wrapping_sub(own) >= 2 || self.slot_count(own) == 0
        }
    }

    /// Enlists the calling thread's parker until the waiter drops: an exit
    /// that drains a slot notifies it.
    pub fn enlist(&self) -> LatchWaiter<'_> {
        let parker = parker::current();
        self.waiters.lock().push(Arc::clone(&parker));
        self.waiting.fetch_add(1, SeqCst);
        LatchWaiter { latch: self, parker }
    }

    /// Parks until the count is zero or `deadline` passes; returns whether
    /// it reached zero.
    pub fn wait_idle(&self, deadline: Option<Instant>) -> bool {
        let waiter = self.enlist();
        while self.outstanding() > 0 {
            if !waiter.parker.park_deadline(deadline) {
                return self.outstanding() == 0;
            }
        }
        true
    }
}

/// One entry: an `Arc` of the latch with the slot in the pointer's low bit
/// (the latch is 8-aligned), so a guard is one word beside a region's
/// captures.
pub struct LatchGuard(NonNull<Latch>);

// SAFETY: the guard owns one strong count of an `Arc<Latch>`, and `Latch`
// is `Send + Sync`.
unsafe impl Send for LatchGuard {}

impl Drop for LatchGuard {
    fn drop(&mut self) {
        let slot = self.0.as_ptr().addr() & 1;
        // SAFETY: `enter` made the pointer with `Arc::into_raw` and set only
        // the low bit, which alignment leaves clear; this is its one
        // `from_raw`.
        let latch = unsafe { Arc::from_raw(self.0.as_ptr().map_addr(|a| a & !1)) };
        let before = latch.counts.fetch_sub(1 << (32 * slot), SeqCst);
        if (before >> (32 * slot)) as u32 == 1 && latch.waiting.load(SeqCst) > 0 {
            latch.waiters.lock().iter().for_each(|w| w.notify());
        }
    }
}

/// One wait's entry on a latch's waiter list; leaves the list on drop.
pub struct LatchWaiter<'a> {
    latch: &'a Latch,
    parker: Arc<WakeSignal>,
}

impl Drop for LatchWaiter<'_> {
    fn drop(&mut self) {
        let mut g = self.latch.waiters.lock();
        if let Some(i) = g.iter().position(|w| Arc::ptr_eq(w, &self.parker)) {
            g.swap_remove(i);
        }
        self.latch.waiting.fetch_sub(1, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A generation wait from a plain thread, as `wait(tag)` runs it when
    /// there is nothing to help with.
    fn wait_generation(latch: &Latch, deadline: Instant) -> bool {
        let mut done = latch.generation();
        if done() {
            return true;
        }
        let waiter = latch.enlist();
        while !done() {
            if !waiter.parker.park_until(deadline) {
                return done();
            }
        }
        true
    }

    fn listed(latch: &Latch) -> (usize, usize) {
        (latch.waiting.load(SeqCst), latch.waiters.lock().len())
    }

    #[test]
    fn guards_count_until_they_drop() {
        let latch = Arc::new(Latch::default());
        let a = latch.enter();
        let b = latch.enter();
        assert_eq!(latch.outstanding(), 2);
        drop(a);
        assert_eq!(latch.outstanding(), 1);
        drop(b);
        assert_eq!(latch.outstanding(), 0);
        assert!(latch.wait_idle(None), "an idle latch returns at once");
        assert_eq!(Arc::strong_count(&latch), 1, "every guard released its Arc");
        assert_eq!(std::mem::size_of::<LatchGuard>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn wait_idle_parks_until_the_last_exit() {
        let latch = Arc::new(Latch::default());
        let guard = latch.enter();
        let exited = Arc::new(AtomicBool::new(false));
        let e2 = Arc::clone(&exited);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            e2.store(true, SeqCst);
            drop(guard);
        });
        let me = parker::current();
        let parks = me.parks();
        assert!(latch.wait_idle(Some(Instant::now() + Duration::from_secs(10))));
        assert!(exited.load(SeqCst));
        assert!(me.parks() - parks < 5, "woken by the exit, not by polling");
        assert_eq!(listed(&latch), (0, 0));
        t.join().unwrap();
    }

    #[test]
    fn expired_wait_leaves_the_waiter_list() {
        let latch = Arc::new(Latch::default());
        let guard = latch.enter();
        let t0 = Instant::now();
        assert!(!latch.wait_idle(Some(t0 + Duration::from_millis(20))));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(!wait_generation(&latch, Instant::now() + Duration::from_millis(5)));
        assert_eq!(listed(&latch), (0, 0), "both waits left the list");
        drop(guard);
        assert!(latch.wait_idle(None));
    }

    #[test]
    fn a_wait_covers_entries_made_before_it_and_no_later_ones() {
        let latch = Arc::new(Latch::default());
        let a = latch.enter(); // generation 0, slot 0
        let mut first = latch.generation();
        assert!(!first(), "waits for a");
        assert_eq!(latch.generation.load(SeqCst), 1, "the first wait flipped");
        let b = latch.enter(); // slot 1: after the wait began
        // An overlapping second wait: slot 0 still holds the first wait's
        // generation, so it does not flip, and entries made meanwhile join
        // its own slot.
        let mut second = latch.generation();
        assert!(!second());
        assert_eq!(latch.generation.load(SeqCst), 1);
        let c = latch.enter(); // slot 1
        drop(a);
        assert!(first(), "b and c were entered after the first wait began");
        assert!(!second(), "the second wait covers b, and c as well");
        assert_eq!(latch.generation.load(SeqCst), 2, "flipped into the drained slot 0");
        let d = latch.enter(); // slot 0: after the second wait's flip
        drop(b);
        assert!(!second());
        drop(c);
        assert!(second(), "d does not delay the second wait");
        assert_eq!(latch.outstanding(), 1);
        drop(d);
        assert_eq!(latch.outstanding(), 0);
        assert!(latch.generation()());
    }

    #[test]
    fn repeated_waits_race_concurrent_enters_and_exits() {
        // Three churn threads enter and exit on their own; the waiting
        // thread also hands each of them guards it entered, and every wait
        // must return only after all guards handed before it have dropped.
        // A second waiter overlaps with generation waits of its own.
        const ROUNDS: usize = 300;
        let latch = Arc::new(Latch::default());
        let dropped = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut churn = Vec::new();
        let mut handoff = Vec::new();
        for i in 0..3 {
            let (tx, rx) = mpsc::channel::<LatchGuard>();
            handoff.push(tx);
            let (latch, dropped) = (Arc::clone(&latch), Arc::clone(&dropped));
            let stop = Arc::clone(&stop);
            churn.push(std::thread::spawn(move || {
                let mut n = 0u32;
                while !stop.load(SeqCst) {
                    let own = latch.enter();
                    if let Ok(g) = rx.try_recv() {
                        if n % 3 == i {
                            std::thread::yield_now();
                        }
                        dropped.fetch_add(1, SeqCst);
                        drop(g);
                    }
                    drop(own);
                    n = n.wrapping_add(1);
                }
                for g in rx.try_iter() {
                    dropped.fetch_add(1, SeqCst);
                    drop(g);
                }
            }));
        }
        let overlap = {
            let (latch, stop) = (Arc::clone(&latch), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(SeqCst) {
                    assert!(wait_generation(&latch, deadline), "overlapping wait hung");
                }
            })
        };
        for round in 1..=ROUNDS {
            for tx in &handoff {
                tx.send(latch.enter()).unwrap();
            }
            assert!(wait_generation(&latch, deadline), "round {round}: wait hung");
            assert_eq!(dropped.load(SeqCst), 3 * round, "round {round} returned early");
        }
        stop.store(true, SeqCst);
        for t in churn {
            t.join().unwrap();
        }
        overlap.join().unwrap();
        assert!(latch.wait_idle(Some(deadline)));
        assert_eq!(listed(&latch), (0, 0));
        assert_eq!(Arc::strong_count(&latch), 1);
    }
}
