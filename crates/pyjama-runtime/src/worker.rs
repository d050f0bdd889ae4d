//! Worker virtual targets: fixed-size thread pools with a work-stealing
//! scheduler.
//!
//! `virtual_target_create_worker(tname, m)` creates "a worker virtual target
//! with maximum of m threads" (Table II). A worker target's lifecycle "lasts
//! throughout the program" (§III-D); dropping the handle shuts the pool down
//! (join on drop) because a Rust library must not leak threads.
//!
//! ## Scheduling
//!
//! The pool used to funnel every submit, pop and await-barrier help through
//! one `Mutex<VecDeque>` and a condition variable, so an m-thread pool serialized on a
//! single lock exactly where the HTTP and GUI benchmarks stress it hardest.
//! It now schedules through three distributed sources:
//!
//! * a **per-thread [`ChaseLev`] deque** — a pool thread posting to its own
//!   pool pushes here (owner LIFO, no lock, cache-warm);
//! * **sibling deques** — an idle thread steals the oldest item from another
//!   member's deque;
//! * a **global FIFO injector** (short `Mutex<VecDeque>` critical section) —
//!   external submissions land here, preserving the observable FIFO
//!   ordering of same-producer regions.
//!
//! Both remote sources are **batched** (PR 10): a steal claims up to half
//! the victim's run (`steal_half`, surplus re-queued on the thief's own
//! deque), and an injector hit drains up to [`INJECTOR_BATCH`] tasks under
//! one lock hold into a per-worker pending buffer that is consumed — still
//! in FIFO order — before the next drain. Idle siblings rescue from a busy
//! worker's buffer front, so batching never strands a task behind a
//! blocking handler. Batch amortisation is observable
//! through the `steal_batches`/`injector_batches` counters; the
//! executed-conservation law is unchanged because moved tasks are counted
//! at final acquisition (steal-moved → `local_pops`, injector-moved →
//! `injector_pops`).
//!
//! Members look for work in that order (local, buffered, steal, injector)
//! and park when every source is dry. Each slot owns its member thread's
//! parker (the thread adopts the slot's [`WakeSignal`] as the one parker
//! every wait on it uses, see `pyjama_events::parker`). A member parks as
//! `parked` in two places: idle in its run loop, and inside an `await`
//! barrier with nothing to help with. An enqueue wakes exactly **one**
//! `parked` member, and a woken thread that finds more work pending
//! cascades the wake to the next sleeper. Only shutdown notifies everyone.
//! The park/wake handshake is the standard eventcount protocol: a thread
//! marks itself parked, fences, re-checks all sources, and only then
//! blocks; a producer publishes the item, fences, and only then scans for
//! sleepers — one side always observes the other.
//!
//! The await logical barrier's helping path (`help_one`,
//! [`WorkerTarget::help_current_thread_pool`], Algorithm 1 line 15) runs the
//! same local-pop → steal → injector sequence, so a member blocked in an
//! `await` drains work without contending on a pool-wide lock.
//!
//! ## Live resize
//!
//! The pool's *slot capacity* is fixed at construction, but its *logical
//! size* (`target_threads`) changes at runtime through [`WorkerTarget::
//! resize`] — this is what the control plane's worker subscriber calls. A
//! worker whose index falls at or above the target gracefully **retires**:
//! it drains its own deque into the FIFO injector (so no accepted region is
//! ever stranded behind a parked thread), wakes a survivor to pick the
//! drained work up, flags itself `retired` (which makes `wake_one` skip it
//! — it must not be chosen to serve new work) and parks on its own signal
//! until a later grow raises the target past its index or shutdown fires.
//! Growing reuses the existing spawn path for never-started slots and just
//! notifies retired ones; the permit semantics of [`WakeSignal`] make the
//! store-target-then-notify / check-target-then-park race lose no wakeups.
//! The retire drain handshake is model-checked in
//! `pyjama-check/src/models/config_cell.rs` (DESIGN.md §5k), including the
//! seeded mutation that skips the drain and loses a region.
//!
//! Model-checked twin: `pyjama-check/src/models/pool_join.rs` ports the
//! injector's post/shutdown/final-drain protocol and the eventcount park
//! (`ModelInjector`) onto instrumented shims; the checked invariant is that
//! an accepted post's `injector_len` increment happens-before the SeqCst
//! shutdown read that gates the final drain, so accepted regions are never
//! stranded. Keep the port in sync with protocol changes here — DESIGN.md
//! §5h.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use pyjama_sync::Mutex;
use pyjama_trace::{arg as trace_arg, Stage};

use crate::deque::{ChaseLev, Steal};
use crate::executor::{TargetKind, TargetStats, TargetCounters, VirtualTarget};
use crate::parker::WakeSignal;
use crate::task::TargetRegion;

/// What the current thread knows about the pool it belongs to.
struct WorkerCtx {
    inner: Weak<Inner>,
    /// This thread's slot index — its deque in `Inner::slots`.
    index: usize,
}

thread_local! {
    /// The worker target the current thread belongs to, if any.
    static CURRENT_WORKER: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

/// How many injector tasks one drain may claim under a single lock hold:
/// the first runs immediately, up to `INJECTOR_BATCH - 1` more are buffered
/// on the draining worker. Small enough that a slow handler holds at most a
/// handful of FIFO tasks hostage, large enough to amortise the lock to
/// noise under external load.
const INJECTOR_BATCH: usize = 8;

/// Per-pool-thread scheduler state.
struct WorkerSlot {
    /// The thread's own deque: owner pushes/pops the bottom, siblings steal
    /// the top. The owner-only discipline is structural — only pool thread
    /// `i` (its run loop and its re-entrant helping, which are sequential on
    /// that thread) ever calls `push`/`pop` on slot `i`.
    deque: ChaseLev<Arc<TargetRegion>>,
    /// Injector tasks this worker claimed in a batched drain but has not
    /// yet run. The owner consumes the front between handlers; an idle
    /// sibling that finds every deque dry *rescues* from the front too, so
    /// a handler blocking mid-batch cannot starve co-batched tasks. The
    /// lock is only taken when `pending_len` reads non-zero.
    pending: Mutex<VecDeque<Arc<TargetRegion>>>,
    /// Lock-free mirror of `pending.len()` so `queue_len` stays lock-free.
    pending_len: AtomicUsize,
    /// The member thread's parker: every wait on that thread parks on it.
    signal: Arc<WakeSignal>,
    /// True while the thread is inside (or committing to) a park in its run
    /// loop or in an await; producers scan this to pick a single thread to
    /// wake.
    parked: AtomicBool,
    /// True while the thread is retired by a shrink (parked indefinitely,
    /// deque drained). Retired slots are *not* wake candidates: `parked`
    /// stays false the whole time, so `wake_one` never picks them.
    retired: AtomicBool,
    /// The scheduler counters of this slot's thread (see [`SlotCounters`]).
    counts: SlotCounters,
}

/// The counters one member thread bumps as it acquires and runs work:
/// `executed`, `helped`, the pops, steals and batches. Only the slot's own
/// thread writes them, with [`Counter::add_owned`] (a plain load and
/// store), so counting an execution costs no shared read-modify-write;
/// `posted` and `rejected`, which any thread may bump, stay in
/// `Inner::stats`. Aligned to its own cache lines, so these writes do not
/// share a line with the slot fields producers scan (`parked`).
///
/// [`Counter::add_owned`]: pyjama_metrics::Counter::add_owned
#[repr(align(128))]
#[derive(Default)]
struct SlotCounters(TargetCounters);

/// The injector's lock also serializes posts against shutdown, preserving
/// the old single-lock guarantee that a post either lands before shutdown
/// (and runs) or observes it (and cancels).
struct Injector {
    tasks: VecDeque<Arc<TargetRegion>>,
    shutdown: bool,
}

struct Inner {
    name: String,
    slots: Box<[WorkerSlot]>,
    injector: Mutex<Injector>,
    /// Injector length mirror for lock-free `pending()` and the pre-park
    /// re-check. SeqCst on both sides of the eventcount handshake.
    injector_len: AtomicUsize,
    /// Lock-free mirror of `Injector::shutdown`.
    shutdown: AtomicBool,
    /// Logical pool size: workers with `index >= target_threads` retire.
    /// Bounded above by `slots.len()` (the fixed capacity). SeqCst so the
    /// retire check composes with the eventcount handshake's fences.
    target_threads: AtomicUsize,
    /// The counters any thread may bump: `posted`, `rejected`.
    stats: TargetCounters,
    /// What [`WorkerTarget::reset_stats`] last read: `stats()` reports the
    /// growth since. Slot counters are never reset (their owners write
    /// them without a read-modify-write), so a reset records a baseline.
    baseline: Mutex<TargetStats>,
}

impl Inner {
    /// This thread's slot index, if it is a member of *this* pool.
    fn member_index(&self) -> Option<usize> {
        CURRENT_WORKER.with(|c| {
            c.borrow()
                .as_ref()
                .filter(|ctx| std::ptr::eq(ctx.inner.as_ptr(), self as *const Inner))
                .map(|ctx| ctx.index)
        })
    }

    /// Member `me`'s own counters; only `me`'s thread may bump them.
    fn owned(&self, me: usize) -> &TargetCounters {
        &self.slots[me].counts.0
    }

    /// The pool's counters as raw totals: the shared set plus every slot's.
    fn raw_stats(&self) -> TargetStats {
        self.slots
            .iter()
            .fold(self.stats.snapshot(), |sum, s| sum.plus(&s.counts.0.snapshot()))
    }

    /// Member `me` pops a task from worker `who`'s batch-drain buffer — its
    /// own on the fast path, a busy sibling's when rescuing (see
    /// `try_steal`). Buffered tasks count as `injector_pops` of the member
    /// that takes them, at consumption time, so the conservation law is
    /// batch-size independent.
    fn pop_buffered(&self, who: usize, me: usize) -> Option<Arc<TargetRegion>> {
        let slot = &self.slots[who];
        if slot.pending_len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let region = {
            let mut buf = slot.pending.lock();
            let region = buf.pop_front()?;
            slot.pending_len.store(buf.len(), Ordering::Relaxed);
            region
        };
        self.owned(me).injector_pops.inc_owned();
        Some(region)
    }

    /// Pops the oldest externally submitted region, recording the hit, and
    /// drains up to `INJECTOR_BATCH - 1` follow-ups into this worker's
    /// pending buffer under the same lock hold — one synchronisation
    /// amortised over the batch. The buffer is consumed (FIFO) before the
    /// next drain, so one producer's posts still run in post order.
    fn pop_injector(&self, me: usize) -> Option<Arc<TargetRegion>> {
        if self.injector_len.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let mut g = self.injector.lock();
        let region = g.tasks.pop_front()?;
        let extra = g.tasks.len().min(INJECTOR_BATCH - 1);
        if extra > 0 {
            // Lock order injector → pending, same as `retire_park`; the
            // buffer lock is owner-only so this never waits.
            let slot = &self.slots[me];
            let mut buf = slot.pending.lock();
            buf.extend(g.tasks.drain(..extra));
            slot.pending_len.store(buf.len(), Ordering::Relaxed);
        }
        // Decrement while still holding the lock so the lock-free mirror
        // never over-reports a popped item (post's increment is likewise
        // under the lock).
        self.injector_len.fetch_sub(1 + extra, Ordering::SeqCst);
        drop(g);
        let counts = self.owned(me);
        counts.injector_pops.inc_owned();
        counts.injector_batches.inc_owned();
        counts.injector_moved.add_owned(extra as u64);
        Some(region)
    }

    /// Probes every sibling deque once, starting after `me`. A probe that
    /// loses a claim race ([`Steal::Retry`]) moves on to the next victim —
    /// the contended item went to someone else, and spinning on one hot
    /// deque would starve the other sources.
    ///
    /// A hit is a **batched** steal: `steal_half` claims up to half the
    /// victim's run, returning the oldest task to run now and pushing the
    /// surplus onto `me`'s own deque (this is the caller's thread, so the
    /// owner-push discipline holds). The surplus stays stealable by third
    /// parties and executes as later `local_pops`.
    fn try_steal(&self, me: usize) -> Option<Arc<TargetRegion>> {
        let n = self.slots.len();
        let counts = self.owned(me);
        for i in 1..n {
            let victim = (me + i) % n;
            counts.steal_attempts.inc_owned();
            let (result, moved) = self.slots[victim].deque.steal_half(&self.slots[me].deque);
            match result {
                Steal::Item(region) => {
                    counts.steals.inc_owned();
                    if moved > 0 {
                        counts.steal_batches.inc_owned();
                        counts.steal_moved.add_owned(moved as u64);
                    }
                    return Some(region);
                }
                Steal::Empty | Steal::Retry => debug_assert_eq!(moved, 0),
            }
            // Rescue: the victim batch-drained injector tasks but is stuck
            // in a long (or blocking) handler. Without this, co-batched
            // tasks would be invisible to idle siblings until the handler
            // returns — a liveness hole the pre-batching injector did not
            // have. FIFO is preserved (rescues take the buffer's front).
            if let Some(region) = self.pop_buffered(victim, me) {
                return Some(region);
            }
        }
        None
    }

    /// One acquisition pass for a member thread: own deque, then the
    /// batch-drain buffer, then siblings, then the injector. Shared by the
    /// run loop and the helping paths.
    fn acquire(&self, me: usize) -> Option<Arc<TargetRegion>> {
        if let Some(region) = self.slots[me].deque.pop() {
            self.owned(me).local_pops.inc_owned();
            pyjama_trace::emit(region.trace_id(), Stage::RegionDequeued, trace_arg::DEQ_LOCAL);
            return Some(region);
        }
        if let Some(region) = self.pop_buffered(me, me) {
            pyjama_trace::emit(
                region.trace_id(),
                Stage::RegionDequeued,
                trace_arg::DEQ_INJECTOR,
            );
            // Cascade like the injector path: remaining buffered tasks are
            // rescuable by siblings, so one more sleeper can be productive.
            if self.has_pending() {
                self.wake_one();
            }
            return Some(region);
        }
        if let Some(region) = self.try_steal(me) {
            pyjama_trace::emit(region.trace_id(), Stage::RegionDequeued, trace_arg::DEQ_STEAL);
            // Cascade: the victim still has work (or the injector does), so
            // one more sleeper can be productive.
            if self.has_pending() {
                self.wake_one();
            }
            return Some(region);
        }
        if let Some(region) = self.pop_injector(me) {
            pyjama_trace::emit(
                region.trace_id(),
                Stage::RegionDequeued,
                trace_arg::DEQ_INJECTOR,
            );
            if self.has_pending() {
                self.wake_one();
            }
            return Some(region);
        }
        None
    }

    /// Whether any source has queued work (racy; used for re-checks and
    /// cascade decisions, never for correctness-critical emptiness).
    fn has_pending(&self) -> bool {
        self.injector_len.load(Ordering::SeqCst) > 0
            || self
                .slots
                .iter()
                .any(|s| !s.deque.is_empty() || s.pending_len.load(Ordering::Relaxed) > 0)
    }

    /// Lock-free queue length: injector, every member deque, and every
    /// member's batch-drain buffer (claimed but not yet run).
    fn queue_len(&self) -> usize {
        self.injector_len.load(Ordering::SeqCst)
            + self
                .slots
                .iter()
                .map(|s| s.deque.len() + s.pending_len.load(Ordering::Relaxed))
                .sum::<usize>()
    }

    /// Wakes a single `parked` member: idle in its run loop, or parked in an
    /// await. Callers must have published the new work (and fenced) first.
    fn wake_one(&self) {
        if let Some(slot) = self.slots.iter().find(|s| s.parked.load(Ordering::SeqCst)) {
            slot.signal.notify();
        }
    }

    /// The eventcount park of member `me`: declare `parked`, fence,
    /// re-check, then block on the thread's parker. A producer publishes
    /// first and scans second, so either the re-check sees the item or the
    /// producer sees `parked`. An `idle` member (its run loop) leaves on
    /// shutdown, so a flagged shutdown ends its wait like work does, and
    /// its block is traced as a worker park; an await keeps waiting for its
    /// handle. `false` on timeout.
    fn park_member(&self, me: usize, deadline: Option<Instant>, idle: bool) -> bool {
        let slot = &self.slots[me];
        slot.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let woke = if self.has_pending() || (idle && self.shutdown.load(Ordering::SeqCst)) {
            true
        } else {
            let trace = |stage| {
                if idle {
                    pyjama_trace::emit(pyjama_trace::TraceId::NONE, stage, me as u32);
                }
            };
            trace(Stage::WorkerPark);
            let woke = slot.signal.park_deadline(deadline);
            trace(Stage::WorkerWake);
            woke
        };
        slot.parked.store(false, Ordering::SeqCst);
        woke
    }

    /// Runs one region acquired by member `me` from inside a handler (the
    /// await barrier's helping); `false` when every source is dry.
    fn help(&self, me: usize) -> bool {
        let Some(region) = self.acquire(me) else { return false };
        self.run(me, region);
        self.owned(me).helped.inc_owned();
        true
    }

    /// Member `me` executes one region on behalf of the pool, then offers
    /// it back to the region recycler — on the steady-state path (nothing
    /// pinning the region) the next post reuses it instead of allocating.
    fn run(&self, me: usize, region: Arc<TargetRegion>) {
        // Counted before running: a waiter released by the region's
        // completion must never observe a snapshot missing this execution.
        self.owned(me).executed.inc_owned();
        region.execute();
        crate::slab::release(region);
    }

    /// The member thread run loop: acquire → execute; park when dry; exit
    /// once shutdown is flagged and every source is dry. Items can never be
    /// stranded: a post accepted before shutdown increments `injector_len`
    /// under the injector lock *before* the flag flips, so after a SeqCst
    /// read of `shutdown == true` the final drain below is guaranteed to
    /// observe it; after the flag is set no source can grow (late posts are
    /// rejected, member pushes are drained by their own thread's final
    /// drain), and any already-popped region is executed by its holder
    /// before that holder's next (and final) empty check.
    fn run_loop(self: &Arc<Self>, me: usize) {
        pyjama_events::parker::adopt(Arc::clone(&self.slots[me].signal));
        CURRENT_WORKER.with(|c| {
            *c.borrow_mut() = Some(WorkerCtx {
                inner: Arc::downgrade(self),
                index: me,
            });
        });
        loop {
            // Live-shrink check: a resize lowered the target below our
            // index. Retire (drain own deque → injector, park) until a
            // grow or shutdown; either way, re-evaluate from the top.
            if me >= self.target_threads.load(Ordering::SeqCst)
                && !self.shutdown.load(Ordering::SeqCst)
            {
                self.retire_park(me);
                continue;
            }
            if let Some(region) = self.acquire(me) {
                self.run(me, region);
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                // Drain once more before exiting: a producer may have won
                // the injector lock (post accepted) between our failed
                // acquire above and the flag flip, with every sibling past
                // its own acquire too — so no parked thread existed for
                // wake_one to pick. Without this pass that region would be
                // neither executed nor cancelled and its waiters would hang.
                while let Some(region) = self.acquire(me) {
                    self.run(me, region);
                }
                return;
            }
            self.park_member(me, None, true);
        }
    }

    /// Graceful retire after a shrink: drain our deque into the injector
    /// (zero lost regions — the items become stealable FIFO work for the
    /// survivors), wake a survivor for them, then park until a grow raises
    /// the target past `me` or shutdown fires. Called only from the slot's
    /// own run loop, so the owner-only deque discipline holds throughout.
    fn retire_park(&self, me: usize) {
        let slot = &self.slots[me];
        {
            let mut g = self.injector.lock();
            while let Some(region) = slot.deque.pop() {
                g.tasks.push_back(region);
                // Under the lock, exactly like `post` — the lock-free
                // mirror never under-reports queued work.
                self.injector_len.fetch_add(1, Ordering::SeqCst);
            }
            // Batch-drained-but-unrun injector tasks go back too (front,
            // preserving FIFO relative to tasks still in the injector that
            // were posted after them). They are re-counted by the batch
            // gauges on the next drain but execute exactly once.
            let mut buf = slot.pending.lock();
            while let Some(region) = buf.pop_back() {
                g.tasks.push_front(region);
                self.injector_len.fetch_add(1, Ordering::SeqCst);
            }
            slot.pending_len.store(0, Ordering::Relaxed);
            // If shutdown was flagged while we held the lock, the drained
            // items are still safe: this thread re-checks shutdown at the
            // top of its run loop and performs the final drain itself.
        }
        // `parked` stays false: wake_one must not pick a retired worker to
        // serve new work. Resize-grow and shutdown notify this slot's
        // signal directly; the permit makes the check/park race lossless.
        slot.retired.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Cascade any outstanding work to a survivor. This covers both the
        // just-drained items and a wake_one that picked *us* (as a parked
        // candidate) right before the shrink landed — without this, that
        // post's wakeup would retire along with us and strand its region
        // until the next unrelated wake.
        if self.has_pending() {
            self.wake_one();
        }
        while me >= self.target_threads.load(Ordering::SeqCst)
            && !self.shutdown.load(Ordering::SeqCst)
        {
            pyjama_trace::emit(pyjama_trace::TraceId::NONE, Stage::WorkerPark, me as u32);
            slot.signal.park();
            pyjama_trace::emit(pyjama_trace::TraceId::NONE, Stage::WorkerWake, me as u32);
        }
        slot.retired.store(false, Ordering::SeqCst);
    }

    /// Cancels a region that can no longer be executed by this pool.
    fn reject(&self, region: Arc<TargetRegion>) {
        // A producer racing the pool's shutdown degrades gracefully: the
        // region is rejected in a terminal Cancelled state, so waiters are
        // released instead of the producer panicking.
        self.stats.rejected.inc();
        region.cancel();
        crate::slab::release(region);
    }
}

/// Why a [`WorkerTarget::resize`] request was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResizeError {
    /// A pool of zero workers can never drain its queue.
    Zero,
    /// The request exceeds the pool's fixed slot capacity.
    ExceedsCapacity {
        /// Workers requested.
        requested: usize,
        /// The pool's immutable slot capacity.
        capacity: usize,
    },
    /// The pool is shutting down; its size can no longer change.
    ShutDown,
}

impl std::fmt::Display for ResizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResizeError::Zero => write!(f, "pool size must be >= 1"),
            ResizeError::ExceedsCapacity { requested, capacity } => {
                write!(f, "requested {requested} workers exceeds capacity {capacity}")
            }
            ResizeError::ShutDown => write!(f, "pool is shut down"),
        }
    }
}

impl std::error::Error for ResizeError {}

/// A thread-pool virtual target with a fixed slot capacity and a live
/// resizable logical size.
pub struct WorkerTarget {
    inner: Arc<Inner>,
    /// One entry per slot: `Some` once a thread has been spawned for that
    /// slot (it stays alive — possibly retired-parked — until shutdown).
    threads: Mutex<Vec<Option<JoinHandle<()>>>>,
}

impl WorkerTarget {
    /// Zeroes this pool's counters (posted/executed/steal sources) as
    /// [`stats`](VirtualTarget::stats) reports them: records the current
    /// totals as the baseline later reads subtract. Quiesce the pool first
    /// for exact figures; each cell is read once, so an increment racing
    /// the reset lands on either side of it.
    pub fn reset_stats(&self) {
        *self.inner.baseline.lock() = self.inner.raw_stats();
    }

    /// Creates a worker target named `name` with `m` threads (Table II's
    /// `virtual_target_create_worker`). Slot capacity — the ceiling for
    /// later [`resize`](Self::resize) grows — defaults to `m` with doubling
    /// headroom up to 64 slots, so control-plane grows have room without
    /// reserving thousands of empty deques.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(name: impl Into<String>, m: usize) -> Arc<Self> {
        let capacity = m.max((m * 2).min(64));
        Self::with_capacity(name, m, capacity)
    }

    /// Creates a worker target with an explicit slot capacity (`capacity`
    /// is the hard ceiling for later resizes; only `m` threads start).
    ///
    /// # Panics
    /// Panics if `m == 0` or `capacity < m`.
    pub fn with_capacity(name: impl Into<String>, m: usize, capacity: usize) -> Arc<Self> {
        assert!(m > 0, "a worker virtual target needs at least one thread");
        assert!(capacity >= m, "capacity must be at least the initial size");
        let name = name.into();
        let slots = (0..capacity)
            .map(|_| WorkerSlot {
                deque: ChaseLev::new(),
                pending: Mutex::new(VecDeque::new()),
                pending_len: AtomicUsize::new(0),
                signal: Arc::new(WakeSignal::new()),
                parked: AtomicBool::new(false),
                retired: AtomicBool::new(false),
                counts: SlotCounters::default(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let inner = Arc::new(Inner {
            name: name.clone(),
            slots,
            injector: Mutex::new(Injector {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            injector_len: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            target_threads: AtomicUsize::new(m),
            stats: TargetCounters::default(),
            baseline: Mutex::new(TargetStats::default()),
        });
        let threads = (0..capacity)
            .map(|i| {
                if i < m {
                    Some(Self::spawn_slot(&inner, &name, i))
                } else {
                    None
                }
            })
            .collect();
        Arc::new(WorkerTarget {
            inner,
            threads: Mutex::new(threads),
        })
    }

    fn spawn_slot(inner: &Arc<Inner>, name: &str, i: usize) -> JoinHandle<()> {
        let inner = Arc::clone(inner);
        std::thread::Builder::new()
            .name(format!("{name}-{i}"))
            .spawn(move || inner.run_loop(i))
            .expect("failed to spawn worker thread")
    }

    /// Logical pool size (the live resize target), not slot capacity.
    pub fn num_threads(&self) -> usize {
        self.inner.target_threads.load(Ordering::SeqCst)
    }

    /// Fixed slot capacity — the hard ceiling for [`resize`](Self::resize).
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Changes the logical pool size at runtime; returns the previous size.
    ///
    /// Shrink is graceful: each worker at or above the new target drains
    /// its deque into the injector (no in-flight region is dropped) and
    /// parks; its thread stays alive for cheap regrow. Grow wakes retired
    /// slots and spawns never-started ones through the same path `new`
    /// uses. In-flight regions on retiring workers run to completion
    /// before the retire check is reached, so a resize never interrupts
    /// handler execution.
    pub fn resize(&self, n: usize) -> Result<usize, ResizeError> {
        if n == 0 {
            return Err(ResizeError::Zero);
        }
        let capacity = self.inner.slots.len();
        if n > capacity {
            return Err(ResizeError::ExceedsCapacity { requested: n, capacity });
        }
        // The threads lock serializes resizes with each other and with
        // shutdown (which holds it while joining).
        let mut threads = self.threads.lock();
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(ResizeError::ShutDown);
        }
        let old = self.inner.target_threads.swap(n, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if n > old {
            for i in old..n {
                match &threads[i] {
                    // Retired (or about to retire) thread: the permit from
                    // this notify guarantees its check/park loop observes
                    // the raised target.
                    Some(_) => self.inner.slots[i].signal.notify(),
                    None => threads[i] = Some(Self::spawn_slot(&self.inner, &self.inner.name, i)),
                }
            }
        } else {
            // Wake shrunk-away workers so they observe the lowered target
            // and retire instead of sleeping as stale wake candidates.
            for i in n..old {
                self.inner.slots[i].signal.notify();
            }
        }
        Ok(old)
    }

    /// Requests shutdown: queued regions still run, then threads exit.
    /// Blocks until all pool threads have joined. Idempotent.
    ///
    /// When invoked *from a pool thread* (e.g. the last `Arc` of a runtime
    /// was dropped inside a target block), the calling thread cannot join
    /// itself; it is detached instead and exits naturally when it drains
    /// the queue.
    pub fn shutdown(&self) {
        // Take the injector lock so the flag flip serializes with racing
        // posts: a post either landed (and will be drained below) or sees
        // the flag and cancels.
        self.inner.injector.lock().shutdown = true;
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Shutdown is the one event that notifies everyone: idle members
        // re-check and exit, members parked in an await re-check rather
        // than sleep through it.
        for slot in self.inner.slots.iter() {
            slot.signal.notify();
        }
        let me = std::thread::current().id();
        let mut threads = self.threads.lock();
        for t in threads.drain(..).flatten() {
            if t.thread().id() == me {
                drop(t); // detach: a thread must not join itself
            } else {
                let _ = t.join();
            }
        }
    }

    /// Help-process one pending task of the worker pool the current thread
    /// belongs to. Free function used by the await logical barrier when the
    /// encountering thread is itself a pool worker. Runs the same
    /// local-pop → steal → injector acquisition as the pool's run loop.
    pub fn help_current_thread_pool() -> bool {
        current_member().is_some_and(|(inner, me)| inner.help(me))
    }

    /// Parks the calling thread on its parker, `parker`, until a wake or
    /// `deadline`; `false` on timeout. A pool member first publishes itself
    /// as `parked`, exactly as its idle run loop does, so a post that finds
    /// no idle member wakes it to help.
    pub(crate) fn park_current(parker: &WakeSignal, deadline: Option<Instant>) -> bool {
        match current_member() {
            Some((inner, me)) => {
                debug_assert!(std::ptr::eq(parker, &*inner.slots[me].signal));
                inner.park_member(me, deadline, false)
            }
            None => parker.park_deadline(deadline),
        }
    }
}

/// The pool the current thread is a member of, and its slot index.
fn current_member() -> Option<(Arc<Inner>, usize)> {
    let (weak, me) = CURRENT_WORKER
        .with(|c| c.borrow().as_ref().map(|ctx| (ctx.inner.clone(), ctx.index)))?;
    Some((weak.upgrade()?, me))
}

impl VirtualTarget for WorkerTarget {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn kind(&self) -> TargetKind {
        TargetKind::Worker
    }

    fn post(&self, region: Arc<TargetRegion>) {
        let inner = &*self.inner;
        let trace = region.trace_id();
        if let Some(me) = inner.member_index() {
            if inner.shutdown.load(Ordering::SeqCst) {
                inner.reject(region);
                return;
            }
            // Member fast path: owner push, no lock. (If shutdown raced in
            // after the check above, this thread's own run loop still drains
            // the deque before exiting — nothing is stranded.)
            // The posted event is recorded *before* the push so its
            // timestamp causally precedes any dequeue on another thread.
            pyjama_trace::emit(trace, Stage::RegionPosted, trace_arg::POST_MEMBER);
            inner.slots[me].deque.push(region);
        } else {
            // Recorded before the lock for the same causal-order reason; a
            // post that then loses the shutdown race simply shows
            // posted → cancelled in its flow.
            pyjama_trace::emit(trace, Stage::RegionPosted, trace_arg::POST_INJECTOR);
            let mut g = inner.injector.lock();
            if g.shutdown {
                drop(g);
                inner.reject(region);
                return;
            }
            g.tasks.push_back(region);
            // Increment under the lock: once an item is visible to a locked
            // pop, the lock-free mirror already reports it, so the length
            // fast path in `pop_injector` can never hide a queued region.
            inner.injector_len.fetch_add(1, Ordering::SeqCst);
            drop(g);
        }
        inner.stats.posted.inc();
        // Publish-then-scan half of the eventcount handshake (see run_loop).
        fence(Ordering::SeqCst);
        inner.wake_one();
    }

    fn is_member(&self) -> bool {
        self.inner.member_index().is_some()
    }

    fn help_one(&self) -> bool {
        self.inner.member_index().is_some_and(|me| self.inner.help(me))
    }

    fn pending(&self) -> usize {
        self.inner.queue_len()
    }

    fn stats(&self) -> TargetStats {
        self.inner.raw_stats().since(&self.inner.baseline.lock())
    }
}

impl Drop for WorkerTarget {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for WorkerTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerTarget")
            .field("name", &self.inner.name)
            .field("threads", &self.num_threads())
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::time::{Duration, Instant};

    #[test]
    fn executes_posted_regions() {
        let w = WorkerTarget::new("w", 2);
        let n = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..10 {
            let n = Arc::clone(&n);
            let r = TargetRegion::new("t", move || {
                n.fetch_add(1, Ordering::SeqCst);
            });
            handles.push(r.handle());
            w.post(r);
        }
        for h in &handles {
            h.wait();
        }
        assert_eq!(n.load(Ordering::SeqCst), 10);
        assert_eq!(w.stats().executed, 10);
        assert_eq!(w.stats().posted, 10);
    }

    #[test]
    fn membership_detected_from_inside() {
        let w = WorkerTarget::new("w", 1);
        assert!(!w.is_member());
        let seen = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&seen);
        let w2 = Arc::clone(&w);
        let r = TargetRegion::new("t", move || s.store(w2.is_member(), Ordering::SeqCst));
        let h = r.handle();
        w.post(r);
        h.wait();
        assert!(seen.load(Ordering::SeqCst));
    }

    #[test]
    fn membership_distinguishes_pools() {
        let a = WorkerTarget::new("a", 1);
        let b = WorkerTarget::new("b", 1);
        let ok = Arc::new(AtomicBool::new(false));
        let okc = Arc::clone(&ok);
        let a2 = Arc::clone(&a);
        let b2 = Arc::clone(&b);
        let r = TargetRegion::new("t", move || {
            okc.store(a2.is_member() && !b2.is_member(), Ordering::SeqCst);
        });
        let h = r.handle();
        a.post(r);
        h.wait();
        assert!(ok.load(Ordering::SeqCst));
    }

    #[test]
    fn help_one_from_member_thread() {
        let w = WorkerTarget::new("w", 1);
        // Occupy the single pool thread, then have it help-process a
        // second region from inside the first.
        let helped_inside = Arc::new(AtomicBool::new(false));
        let hi = Arc::clone(&helped_inside);
        let w2 = Arc::clone(&w);

        let gate = Arc::new(AtomicBool::new(false));
        let gate2 = Arc::clone(&gate);
        let first = TargetRegion::new("first", move || {
            // Wait for the second region to be queued behind us.
            while !gate2.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            hi.store(w2.help_one(), Ordering::SeqCst);
        });
        let h1 = first.handle();
        w.post(first);

        let second = TargetRegion::new("second", || {});
        let h2 = second.handle();
        w.post(second);
        gate.store(true, Ordering::SeqCst);

        h1.wait();
        h2.wait();
        assert!(helped_inside.load(Ordering::SeqCst));
        assert_eq!(w.stats().helped, 1);
    }

    #[test]
    fn help_one_from_non_member_is_false() {
        let w = WorkerTarget::new("w", 1);
        let r = TargetRegion::new("t", || {});
        w.post(r);
        assert!(!w.help_one());
    }

    #[test]
    fn help_current_thread_pool_outside_pool_is_false() {
        assert!(!WorkerTarget::help_current_thread_pool());
    }

    #[test]
    fn shutdown_runs_remaining_tasks() {
        let w = WorkerTarget::new("w", 2);
        let n = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let n = Arc::clone(&n);
            w.post(TargetRegion::new("t", move || {
                n.fetch_add(1, Ordering::SeqCst);
            }));
        }
        w.shutdown();
        assert_eq!(n.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let w = WorkerTarget::new("w", 1);
        w.shutdown();
        w.shutdown();
    }

    #[test]
    fn post_after_shutdown_cancels_instead_of_panicking() {
        // Regression: this used to assert (panic) on the producer thread.
        let w = WorkerTarget::new("w", 1);
        w.shutdown();
        let r = TargetRegion::new("late", || unreachable!("must never run"));
        let h = r.handle();
        w.post(r);
        assert_eq!(h.state(), TaskState::Cancelled);
        h.wait(); // terminal: returns immediately
        h.join(); // no panic to propagate
        assert_eq!(w.stats().rejected, 1);
        assert_eq!(w.stats().posted, 0);
    }

    #[test]
    fn racing_producers_during_shutdown_end_terminal_never_lost() {
        // Producers race the pool's shutdown: every region must end in a
        // terminal state — Finished (it ran) or Cancelled (it was rejected),
        // never lost in a dead queue. Every accepted post must have run.
        for _ in 0..20 {
            let w = WorkerTarget::new("w", 2);
            let producers: Vec<_> = (0..4)
                .map(|_| {
                    let w = Arc::clone(&w);
                    std::thread::spawn(move || {
                        let mut handles = Vec::new();
                        for _ in 0..10 {
                            let r = TargetRegion::new("t", || {});
                            handles.push(r.handle());
                            w.post(r);
                        }
                        handles
                    })
                })
                .collect();
            w.shutdown();
            let mut finished = 0u64;
            let mut cancelled = 0u64;
            for p in producers {
                for h in p.join().expect("producer must not panic") {
                    h.wait(); // would hang forever on a lost region
                    match h.state() {
                        TaskState::Finished => finished += 1,
                        TaskState::Cancelled => cancelled += 1,
                        s => panic!("non-terminal or unexpected state {s:?}"),
                    }
                }
            }
            assert_eq!(finished + cancelled, 40);
            let s = w.stats();
            assert_eq!(s.posted, finished, "every accepted post must execute");
            assert_eq!(s.executed, finished);
            assert_eq!(s.rejected, cancelled);
        }
    }

    /// One member is blocked in a handler, the other is parked in an await
    /// with nothing to help with: a post must wake the awaiting member,
    /// which runs it from inside its barrier.
    #[test]
    fn member_parked_in_await_is_woken_by_a_post() {
        let w = WorkerTarget::with_capacity("w", 2, 2);
        let gate = Arc::new(AtomicBool::new(false));
        let g2 = Arc::clone(&gate);
        let busy = TargetRegion::new("busy", move || {
            while !g2.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let hb = busy.handle();
        w.post(busy);
        while hb.state() == TaskState::Pending {
            std::thread::sleep(Duration::from_millis(1));
        }

        let stuck = TargetRegion::new("stuck", || {});
        let hs = stuck.handle();
        let awaiting = TargetRegion::new("awaiting", move || {
            assert!(crate::parker::await_until(&hs, None));
        });
        let ha = awaiting.handle();
        w.post(awaiting);
        while ha.state() == TaskState::Pending {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Both members are inside regions now: a `parked` flag can only be
        // the await's.
        let t0 = Instant::now();
        while !w.inner.slots.iter().any(|s| s.parked.load(Ordering::SeqCst)) {
            assert!(t0.elapsed() < Duration::from_secs(5), "the await never parked");
            std::thread::sleep(Duration::from_millis(1));
        }

        let probe = TargetRegion::new("probe", || {});
        let hp = probe.handle();
        w.post(probe);
        let probe_ran = hp.wait_timeout(Duration::from_secs(5));
        let both_held = !hb.is_finished() && !ha.is_finished();
        // Release both members before asserting: a failed assertion must
        // not leave the pool's drop joining a member that never returns.
        gate.store(true, Ordering::SeqCst);
        stuck.execute();
        ha.wait();
        hb.wait();
        assert!(probe_ran, "a post must wake the member parked in its await");
        assert!(both_held, "the probe ran while both members were held");
        assert_eq!(w.stats().helped, 1, "the probe ran inside the await barrier");
    }

    #[test]
    fn same_producer_external_posts_run_fifo() {
        // Regression: external submissions flow through the FIFO injector,
        // so one producer's regions execute in post order on a 1-thread
        // pool — the observable ordering the old single queue provided.
        let w = WorkerTarget::new("w", 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..100 {
            let o = Arc::clone(&order);
            let r = TargetRegion::new("t", move || o.lock().push(i));
            handles.push(r.handle());
            w.post(r);
        }
        for h in &handles {
            h.wait();
        }
        assert_eq!(*order.lock(), (0..100).collect::<Vec<_>>());
        let s = w.stats();
        assert_eq!(s.injector_pops, 100);
        assert_eq!(s.local_pops, 0);
        assert_eq!(s.steals, 0);
    }

    #[test]
    fn member_posts_pop_locally_lifo() {
        // A pool thread posting to its own pool takes the owner fast path:
        // the regions land on its deque and are popped newest-first.
        let w = WorkerTarget::new("w", 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let w2 = Arc::clone(&w);
        let o2 = Arc::clone(&order);
        let outer = TargetRegion::new("outer", move || {
            for i in 0..3 {
                let o = Arc::clone(&o2);
                w2.post(TargetRegion::new("sub", move || o.lock().push(i)));
            }
        });
        let h = outer.handle();
        w.post(outer);
        h.wait();
        w.shutdown(); // drains the member deque
        assert_eq!(*order.lock(), vec![2, 1, 0], "owner pops are LIFO");
        let s = w.stats();
        assert_eq!(s.local_pops, 3);
        assert_eq!(s.injector_pops, 1);
        assert_eq!(s.executed, 4);
    }

    #[test]
    fn idle_sibling_steals_from_member_deque() {
        // The member that owns a deque is blocked, so its queued region can
        // only run if the idle sibling steals it.
        let w = WorkerTarget::new("w", 2);
        let stolen_ran = Arc::new(AtomicBool::new(false));
        let w2 = Arc::clone(&w);
        let sr = Arc::clone(&stolen_ran);
        let outer = TargetRegion::new("outer", move || {
            let sr2 = Arc::clone(&sr);
            let item = TargetRegion::new("stolen", move || sr2.store(true, Ordering::SeqCst));
            let h = item.handle();
            w2.post(item); // member fast path → this thread's deque
            let t0 = Instant::now();
            while !h.is_finished() {
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "sibling never stole the queued item"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let h = outer.handle();
        w.post(outer);
        h.wait();
        assert!(stolen_ran.load(Ordering::SeqCst));
        let s = w.stats();
        assert_eq!(s.steals, 1, "the item can only have arrived by stealing");
        assert!(s.steal_attempts >= 1);
        assert_eq!(s.local_pops, 0);
        assert_eq!(s.injector_pops, 1);
    }

    #[test]
    fn scheduler_counters_account_for_every_execution() {
        // Conservation: every executed region was acquired through exactly
        // one of the three sources.
        let w = WorkerTarget::new("w", 4);
        let inner_handles = Arc::new(Mutex::new(Vec::new()));
        let mut outer_handles = Vec::new();
        for _ in 0..100 {
            let w2 = Arc::clone(&w);
            let ih = Arc::clone(&inner_handles);
            let r = TargetRegion::new("outer", move || {
                let sub = TargetRegion::new("sub", || {});
                ih.lock().push(sub.handle());
                w2.post(sub); // member fast path
            });
            outer_handles.push(r.handle());
            w.post(r);
        }
        for h in &outer_handles {
            h.wait();
        }
        let inner_handles = std::mem::take(&mut *inner_handles.lock());
        for h in &inner_handles {
            h.wait();
        }
        let s = w.stats();
        assert_eq!(s.posted, 200);
        assert_eq!(s.executed, 200);
        assert_eq!(
            s.executed,
            s.local_pops + s.steals + s.injector_pops,
            "each execution must be acquired exactly once: {s:?}"
        );
        assert_eq!(s.injector_pops, 100, "external posts drain via the injector");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = WorkerTarget::new("w", 0);
    }

    #[test]
    fn panicking_region_does_not_kill_pool() {
        let w = WorkerTarget::new("w", 1);
        let bad = TargetRegion::new("bad", || panic!("task bug"));
        let hb = bad.handle();
        w.post(bad);
        hb.wait();
        let ok = TargetRegion::new("ok", || {});
        let ho = ok.handle();
        w.post(ok);
        ho.wait();
        assert_eq!(ho.state(), TaskState::Finished);
    }

    #[test]
    fn dropping_last_handle_on_pool_thread_does_not_deadlock_or_panic() {
        // Regression: the final Arc<WorkerTarget> dropped *inside* a target
        // block used to make the pool thread join itself (EDEADLK panic).
        let w = WorkerTarget::new("w", 2);
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        let w_inner = Arc::clone(&w);
        let r = TargetRegion::new("self-drop", move || {
            // This closure owns what will become the last reference.
            drop(w_inner);
            d.store(true, Ordering::SeqCst);
        });
        let h = r.handle();
        w.post(r);
        drop(w); // the task's clone is now the last one
        h.wait();
        assert!(done.load(Ordering::SeqCst));
        // Give the detached thread a moment to exit cleanly.
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn parallelism_matches_pool_size() {
        // With 4 threads, 4 sleeping tasks overlap: total wall clock well
        // under 4 × sleep.
        let w = WorkerTarget::new("w", 4);
        let t0 = std::time::Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = TargetRegion::new("t", || std::thread::sleep(Duration::from_millis(50)));
                let h = r.handle();
                w.post(r);
                h
            })
            .collect();
        for h in &handles {
            h.wait();
        }
        assert!(t0.elapsed() < Duration::from_millis(150), "{:?}", t0.elapsed());
    }

    #[test]
    fn resize_validates_bounds() {
        let w = WorkerTarget::with_capacity("w", 2, 4);
        assert_eq!(w.num_threads(), 2);
        assert_eq!(w.capacity(), 4);
        assert_eq!(w.resize(0), Err(ResizeError::Zero));
        assert_eq!(
            w.resize(5),
            Err(ResizeError::ExceedsCapacity { requested: 5, capacity: 4 })
        );
        assert_eq!(w.resize(4), Ok(2));
        assert_eq!(w.num_threads(), 4);
        w.shutdown();
        assert_eq!(w.resize(2), Err(ResizeError::ShutDown));
    }

    #[test]
    fn shrink_retires_grow_revives_and_work_keeps_flowing() {
        let w = WorkerTarget::with_capacity("w", 8, 16);
        let n = Arc::new(AtomicUsize::new(0));
        let post_wave = |count: usize| {
            let mut handles = Vec::new();
            for _ in 0..count {
                let n = Arc::clone(&n);
                let r = TargetRegion::new("t", move || {
                    n.fetch_add(1, Ordering::SeqCst);
                });
                handles.push(r.handle());
                w.post(r);
            }
            for h in &handles {
                h.wait();
            }
        };
        post_wave(50);
        assert_eq!(w.resize(2), Ok(8));
        post_wave(50);
        assert_eq!(w.resize(8), Ok(2));
        post_wave(50);
        // Grow into never-spawned slots too.
        assert_eq!(w.resize(16), Ok(8));
        post_wave(50);
        assert_eq!(n.load(Ordering::SeqCst), 200);
        let s = w.stats();
        assert_eq!(s.executed, 200, "no region lost across resizes: {s:?}");
        assert_eq!(s.executed, s.local_pops + s.steals + s.injector_pops);
    }

    #[test]
    fn shrink_under_load_loses_nothing() {
        // Regions queued on about-to-retire workers' deques must drain to
        // the injector and still execute. Posting from inside regions puts
        // work on member deques, then a shrink races the wave.
        for _ in 0..10 {
            let w = WorkerTarget::with_capacity("w", 8, 16);
            let inner_handles = Arc::new(Mutex::new(Vec::new()));
            let mut outer = Vec::new();
            for _ in 0..40 {
                let w2 = Arc::clone(&w);
                let ih = Arc::clone(&inner_handles);
                let r = TargetRegion::new("outer", move || {
                    let sub = TargetRegion::new("sub", || {});
                    ih.lock().push(sub.handle());
                    w2.post(sub); // member fast path → this worker's deque
                });
                outer.push(r.handle());
                w.post(r);
            }
            w.resize(2).unwrap();
            for h in &outer {
                h.wait();
            }
            for h in std::mem::take(&mut *inner_handles.lock()) {
                h.wait(); // would hang forever on a lost region
            }
            let s = w.stats();
            assert_eq!(s.posted, 80);
            assert_eq!(s.executed, 80, "shrink dropped a region: {s:?}");
        }
    }

    #[test]
    fn retired_workers_exit_cleanly_on_shutdown() {
        let w = WorkerTarget::with_capacity("w", 4, 8);
        w.resize(1).unwrap();
        // Give retirees a moment to park, then shut down: join must not hang.
        std::thread::sleep(Duration::from_millis(10));
        w.shutdown();
    }

    #[test]
    fn pending_is_lock_free_and_sums_all_sources() {
        let w = WorkerTarget::new("w", 1);
        assert_eq!(w.pending(), 0);
        // Occupy the pool thread so posted regions stay queued.
        let gate = Arc::new(AtomicBool::new(false));
        let g2 = Arc::clone(&gate);
        let blocker = TargetRegion::new("blocker", move || {
            while !g2.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let hb = blocker.handle();
        w.post(blocker);
        while hb.state() == TaskState::Pending {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut handles = Vec::new();
        for _ in 0..5 {
            let r = TargetRegion::new("queued", || {});
            handles.push(r.handle());
            w.post(r);
        }
        assert_eq!(w.pending(), 5);
        gate.store(true, Ordering::SeqCst);
        for h in &handles {
            h.wait();
        }
        assert_eq!(w.pending(), 0);
    }
}
