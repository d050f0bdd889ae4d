//! The persistent fork-join worker pool behind [`parallel`].
//!
//! Every `parallel` region used to spawn `num_threads - 1` fresh OS
//! threads and join them at region end — tens of microseconds of kernel
//! work before a single kernel iteration ran, paid on *every* GUI event
//! handler in the paper's evaluation. Real OpenMP runtimes never do this:
//! libgomp-style "hot teams" keep worker threads alive between regions.
//! This module is that mechanism:
//!
//! * A **global, lazily-grown pool** of parked worker threads. A region
//!   *leases* workers for its lifetime; leasing never blocks (the pool
//!   spawns on shortage), so nested and concurrent regions cannot
//!   deadlock against each other.
//! * A **hot-team fast path**: after a region joins, the caller keeps its
//!   leased workers in a thread-local cache. A back-to-back region of the
//!   same size reuses them directly — no pool lock, no lease, no release.
//!   A size change releases the cached team and leases afresh; caller
//!   exit returns the cache to the global pool.
//! * A **lifetime-erased dispatch protocol** ([`Job`]): the region closure
//!   borrows the caller's stack (`'env`), while pool workers are
//!   `'static` threads. [`parallel`] erases the borrow behind a raw
//!   pointer, which is sound because the leader collects a per-worker
//!   *done* signal ([`Worker::wait_done`]) — stored in the worker's own
//!   `'static` slot strictly after its last touch of the job — before
//!   `parallel` returns. The same argument `std::thread::scope` makes
//!   with joins; the public scoped `'env` API is unchanged for all
//!   callers.
//!
//! Workers waiting for a fork use the same spin-then-park discipline as
//! the team barrier: a bounded spin keeps back-to-back regions
//! syscall-free, then the worker parks on its slot's condvar. Activations
//! are counted in [`TeamStats`] (`threads_spawned` vs `threads_reused`;
//! see the conservation law there).
//!
//! Model-checked twin: `pyjama-check/src/models/pool_join.rs` ports the
//! [`Slot`] publish/next_job/signal_done/wait_done protocol and the lease
//! discipline onto instrumented shims; its mutation suite re-introduces
//! the early-done and skipped-notify bugs and asserts the checker catches
//! them. Keep the port in sync with protocol changes here — DESIGN.md §5h
//! also carries the full join soundness argument.
//!
//! [`parallel`]: crate::parallel
//! [`TeamStats`]: pyjama_metrics::TeamStats

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use pyjama_sync::{Condvar, Mutex};

use crate::COUNTERS;

/// Spin budget of an idle worker before parking, in `spin_loop`
/// iterations. Matches the barrier's budget: back-to-back regions re-fork
/// within the window; longer gaps park the worker (zero CPU).
const IDLE_SPIN: u32 = 4096;

/// A lifetime-erased team-member dispatch: calling `run(tid)` runs one
/// member of the forking region.
///
/// # Safety contract
/// The erased closure borrows the leader's stack frame. The leader must
/// not return from that frame until it has collected every published
/// `Job`'s done signal ([`Worker::wait_done`]) — `parallel` upholds this.
#[derive(Clone, Copy)]
pub(crate) struct Job {
    member: *const (dyn Fn(usize) + Sync),
}

// Safety: the pointee is `Sync` (the bound is in the erased type) and the
// leader keeps it alive for the duration of every call (see the struct
// docs), so sending the pointer to a pool worker is safe.
unsafe impl Send for Job {}

impl Job {
    /// Erases `member`'s borrow lifetime.
    ///
    /// # Safety
    /// The caller guarantees the referent outlives every [`run`](Job::run)
    /// invocation (the publish/wait_done protocol).
    // The transmute changes only the trait object's lifetime bound; a
    // plain `as` cast cannot spell that for fat pointers.
    #[allow(clippy::transmute_ptr_to_ptr, clippy::useless_transmute)]
    pub unsafe fn erase<'a>(member: &'a (dyn Fn(usize) + Sync + 'a)) -> Job {
        Job {
            member: std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + 'a),
                *const (dyn Fn(usize) + Sync + 'static),
            >(member),
        }
    }

    /// Runs one team member.
    ///
    /// # Safety
    /// Only callable while the leader's frame is alive (see [`Job::erase`]).
    unsafe fn run(self, tid: usize) {
        (*self.member)(tid)
    }
}

/// The fork/join mailbox of one pool worker. The leaseholder publishes at
/// most one job at a time, the worker consumes it before running and
/// signals `done` after its last touch of the job, and the leaseholder
/// collects that signal ([`Worker::wait_done`]) before publishing the next
/// job — so both directions are clean single-producer/single-consumer
/// handoffs.
struct Slot {
    /// True when `job` holds an unconsumed dispatch.
    full: AtomicBool,
    /// True while the worker is parked on `cond` (publisher skips the lock
    /// entirely when the worker is still spinning).
    parked: AtomicBool,
    /// True when the worker finished its dispatched member. Set *after* the
    /// worker's final access to the job — this flag lives in the worker's
    /// own `'static` allocation, so observing it proves the worker holds no
    /// reference into the leaseholder's stack frame.
    done: AtomicBool,
    /// True while the leaseholder is parked in [`Worker::wait_done`].
    joiner_parked: AtomicBool,
    job: UnsafeCell<Option<(Job, usize)>>,
    lock: Mutex<()>,
    cond: Condvar,
}

// Safety: `job` is only written by the leaseholder while `full` is false
// and only read by the worker after observing `full` (SeqCst pairing), so
// the UnsafeCell is never accessed concurrently.
unsafe impl Sync for Slot {}

/// One pooled worker thread's shared handle.
pub(crate) struct Worker {
    slot: Slot,
    /// True until the first member activation (which "consumes" the spawn
    /// in the [`TeamStats`](pyjama_metrics::TeamStats) conservation law).
    fresh: AtomicBool,
}

impl Worker {
    fn new() -> Self {
        Worker {
            slot: Slot {
                full: AtomicBool::new(false),
                parked: AtomicBool::new(false),
                done: AtomicBool::new(false),
                joiner_parked: AtomicBool::new(false),
                job: UnsafeCell::new(None),
                lock: Mutex::new(()),
                cond: Condvar::new(),
            },
            fresh: AtomicBool::new(true),
        }
    }

    /// Publishes a member dispatch to this worker. Only the current
    /// leaseholder may call this, and every publish must be matched by a
    /// [`Worker::wait_done`] before the next publish or release.
    pub(crate) fn publish(&self, job: Job, tid: usize) {
        debug_assert!(!self.slot.full.load(Ordering::SeqCst), "slot still full");
        debug_assert!(
            !self.slot.done.load(Ordering::SeqCst),
            "previous dispatch was never joined"
        );
        unsafe { *self.slot.job.get() = Some((job, tid)) };
        self.slot.full.store(true, Ordering::SeqCst);
        if self.slot.parked.load(Ordering::SeqCst) {
            // Holding the lock across the notify closes the race with a
            // worker that published `parked` but has not yet slept.
            let _g = self.slot.lock.lock();
            self.slot.cond.notify_one();
        }
    }

    /// Worker side: spin-then-park until a job is published, then consume it.
    fn next_job(&self) -> (Job, usize) {
        let limit = crate::spin::budget(IDLE_SPIN);
        let mut spins = 0u32;
        while !self.slot.full.load(Ordering::SeqCst) {
            if spins < limit {
                std::hint::spin_loop();
                spins += 1;
                continue;
            }
            let mut g = self.slot.lock.lock();
            self.slot.parked.store(true, Ordering::SeqCst);
            if !self.slot.full.load(Ordering::SeqCst) {
                self.slot.cond.wait(&mut g);
            }
            self.slot.parked.store(false, Ordering::SeqCst);
        }
        let job = unsafe { (*self.slot.job.get()).take() }.expect("full slot holds a job");
        self.slot.full.store(false, Ordering::SeqCst);
        job
    }

    /// Worker side: reports the dispatched member finished. Called strictly
    /// after the worker's last touch of the job.
    fn signal_done(&self) {
        self.slot.done.store(true, Ordering::SeqCst);
        if self.slot.joiner_parked.load(Ordering::SeqCst) {
            // Lock across the notify: the joiner publishes `joiner_parked`
            // and re-checks `done` under this lock before sleeping.
            let _g = self.slot.lock.lock();
            self.slot.cond.notify_all();
        }
    }

    /// Leaseholder side: blocks until this worker's published dispatch has
    /// fully finished, then re-arms the slot for the next publish.
    ///
    /// Spin-then-park like the team barrier; outcomes land in the same
    /// barrier spin/park counters (the collected joins *are* this runtime's
    /// join barrier). Once this returns, the worker's `done` store — its
    /// final access ordered after the job ran — has been acquired, so the
    /// job's borrows are dead and the worker is idle, safe to re-lease.
    pub(crate) fn wait_done(&self) {
        let limit = crate::spin::budget(IDLE_SPIN);
        let mut spins = 0u32;
        let mut parked = false;
        while !self.slot.done.load(Ordering::SeqCst) {
            if spins < limit {
                std::hint::spin_loop();
                spins += 1;
                continue;
            }
            let mut g = self.slot.lock.lock();
            self.slot.joiner_parked.store(true, Ordering::SeqCst);
            if !self.slot.done.load(Ordering::SeqCst) {
                if !parked {
                    parked = true;
                    COUNTERS.barrier_parks.inc();
                }
                self.slot.cond.wait(&mut g);
            }
            self.slot.joiner_parked.store(false, Ordering::SeqCst);
        }
        if !parked {
            COUNTERS.barrier_spins.inc();
        }
        self.slot.done.store(false, Ordering::SeqCst);
    }
}

fn worker_loop(me: Arc<Worker>) {
    loop {
        let (job, tid) = me.next_job();
        COUNTERS.member_activations.inc();
        if me.fresh.swap(false, Ordering::Relaxed) {
            // This activation consumed the spawn recorded at thread birth.
        } else {
            COUNTERS.threads_reused.inc();
        }
        // `Job::run` executes `Team::run_member`, which catches member
        // panics itself; a panic escaping here would mean we could never
        // signal done and the leader's join would hang forever, so fail
        // loudly instead (mirrors libgomp's fatal-error policy).
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            job.run(tid)
        }));
        if r.is_err() {
            eprintln!("pyjama-omp: panic escaped a pooled team member; aborting");
            std::process::abort();
        }
        me.signal_done();
    }
}

/// Idle (unleased) workers.
static POOL: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());
/// Monotonic worker name counter.
static WORKER_SEQ: AtomicUsize = AtomicUsize::new(0);

fn spawn_worker() -> Arc<Worker> {
    COUNTERS.threads_spawned.inc();
    let w = Arc::new(Worker::new());
    let runner = Arc::clone(&w);
    let seq = WORKER_SEQ.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name(format!("omp-pool-{seq}"))
        .spawn(move || worker_loop(runner))
        .expect("failed to spawn omp pool worker");
    w
}

/// Takes `k` workers: pooled ones first, spawning the shortfall. Never
/// blocks on busy workers, so nested/concurrent regions cannot deadlock.
fn lease(k: usize) -> Vec<Arc<Worker>> {
    let mut out = Vec::with_capacity(k);
    {
        let mut idle = POOL.lock();
        while out.len() < k {
            match idle.pop() {
                Some(w) => out.push(w),
                None => break,
            }
        }
    }
    while out.len() < k {
        out.push(spawn_worker());
    }
    out
}

/// Returns workers to the global idle pool.
fn release(workers: Vec<Arc<Worker>>) {
    if !workers.is_empty() {
        POOL.lock().extend(workers);
    }
}

/// The caller's cached hot team; returned to the global pool when the
/// caller thread exits.
struct HotTeam {
    workers: Vec<Arc<Worker>>,
}

impl Drop for HotTeam {
    fn drop(&mut self) {
        release(std::mem::take(&mut self.workers));
    }
}

thread_local! {
    static HOT: RefCell<HotTeam> = const { RefCell::new(HotTeam { workers: Vec::new() }) };
}

/// Runs `body` with `k` leased workers, serving from the caller's hot team
/// when the size matches. Returns `body`'s result.
///
/// The cached team is *taken out* of the thread-local for the duration of
/// `body`, so a nested `parallel` on the same thread (the caller is a team
/// member too) leases its own workers instead of aliasing the outer lease.
/// On the way out the outer composition wins the cache slot — it is the
/// one that repeats across event handlers — and any team the nested region
/// cached is released to the global pool.
pub(crate) fn with_workers<R>(k: usize, body: impl FnOnce(&[Arc<Worker>], bool) -> R) -> R {
    debug_assert!(k > 0, "zero-worker regions bypass the pool");
    let cached = HOT.with(|h| std::mem::take(&mut h.borrow_mut().workers));
    let (workers, hot) = if cached.len() == k {
        (cached, true)
    } else {
        release(cached);
        (lease(k), false)
    };
    if hot {
        COUNTERS.regions_hot.inc();
    }
    let r = body(&workers, hot);
    // Only reached when every published job has joined (body ends with the
    // `wait_done` collection loop), so the workers are idle again and safe
    // to re-lease. If body ever unwound mid-protocol the lease would leak —
    // never to the pool — which is the safe failure mode.
    HOT.with(|h| {
        let prev = std::mem::replace(&mut h.borrow_mut().workers, workers);
        release(prev);
    });
    r
}

/// Number of idle (unleased) workers in the global pool. Diagnostics; the
/// value is stale the moment it is read.
pub fn idle_workers() -> usize {
    POOL.lock().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn lease_spawns_then_pool_reuses() {
        // Private leases: take workers, return them, take again — the pool
        // must hand the same workers back rather than spawning.
        let a = lease(2);
        let ptrs: Vec<*const Worker> = a.iter().map(Arc::as_ptr).collect();
        release(a);
        let b = lease(2);
        assert!(
            b.iter().all(|w| ptrs.contains(&Arc::as_ptr(w))),
            "released workers must be re-leased, not respawned"
        );
        release(b);
    }

    #[test]
    fn publish_wakes_a_parked_worker() {
        let workers = lease(1);
        let w = &workers[0];
        // Give the worker time to exhaust its spin budget and park.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let ran = AtomicU64::new(0);
        {
            let member = |tid: usize| {
                ran.fetch_add(tid as u64 + 10, Ordering::SeqCst);
            };
            let job = unsafe { Job::erase(&member) };
            w.publish(job, 3);
            w.wait_done();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 13);
        release(workers);
    }

    #[test]
    fn with_workers_caches_hot_team() {
        // Same size back-to-back: second call must be hot with identical
        // workers. Size change: cold again.
        let first = with_workers(2, |ws, hot| {
            assert!(!hot, "first lease on this thread cannot be hot");
            ws.iter().map(Arc::as_ptr).collect::<Vec<_>>()
        });
        let second = with_workers(2, |ws, hot| {
            assert!(hot, "same-size refork must hit the hot path");
            ws.iter().map(Arc::as_ptr).collect::<Vec<_>>()
        });
        assert_eq!(first, second, "hot team must be the same workers");
        with_workers(3, |ws, hot| {
            assert!(!hot, "size change must re-lease");
            assert_eq!(ws.len(), 3);
        });
    }
}
