//! Parallel regions, teams and worksharing.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use pyjama_sync::Mutex;
use pyjama_trace::{arg as trace_arg, Stage, TraceId};

use crate::barrier::Barrier;
use crate::pool::{self, Job};
use crate::registry::ConstructRegistry;
use crate::schedule::{static_block, Schedule};
use crate::sync;
use crate::tasks::TaskQueue;
use crate::COUNTERS;

/// The shared state of one parallel region's thread team.
pub struct Team<'s> {
    num_threads: usize,
    barrier: Barrier,
    registry: ConstructRegistry,
    tasks: TaskQueue<'s>,
    member_panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<'s> Team<'s> {
    fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0, "a team needs at least one thread");
        Team {
            num_threads,
            barrier: Barrier::new(num_threads),
            registry: ConstructRegistry::new(),
            tasks: TaskQueue::new(),
            member_panic: Mutex::new(None),
        }
    }

    fn run_member<F>(&self, tid: usize, f: &F)
    where
        F: for<'t> Fn(&Ctx<'t, 's>) + Sync,
    {
        let ctx = Ctx {
            team: self,
            tid,
            construct_counter: Cell::new(0),
        };
        // A panicking member must still run to completion (and, on a pool
        // worker, signal done) or the leader's join waits forever; capture
        // and resurface at region end instead.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&ctx)));
        if let Err(p) = r {
            let mut g = self.member_panic.lock();
            if g.is_none() {
                *g = Some(p);
            }
        }
        // The end of a region is a task scheduling point: finish every
        // explicit task before this member reports completion. The join
        // itself is not a team-wide rendezvous — each pooled worker signals
        // its own slot and goes idle; the leader collects all signals.
        self.tasks.drain();
    }
}

/// A team member's view of its parallel region — the receiver for all
/// worksharing and synchronisation constructs.
pub struct Ctx<'t, 's> {
    team: &'t Team<'s>,
    tid: usize,
    /// Per-thread construct encounter counter; pairs construct instances
    /// across threads (SPMD matching).
    construct_counter: Cell<u64>,
}

impl<'t, 's> Ctx<'t, 's> {
    /// `omp_get_thread_num()`.
    pub fn thread_num(&self) -> usize {
        self.tid
    }

    /// `omp_get_num_threads()`.
    pub fn num_threads(&self) -> usize {
        self.team.num_threads
    }

    /// True on the master thread (thread 0) — in an event-driven program,
    /// the thread that encountered `omp parallel` (e.g. the EDT).
    pub fn is_master(&self) -> bool {
        self.tid == 0
    }

    fn next_key(&self) -> u64 {
        let k = self.construct_counter.get();
        self.construct_counter.set(k + 1);
        k
    }

    pub(crate) fn next_construct_key(&self) -> u64 {
        self.next_key()
    }

    pub(crate) fn construct_registry(&self) -> &ConstructRegistry {
        &self.team.registry
    }

    // ---------------------------------------------------------------- sync

    /// `omp barrier`: also a task scheduling point.
    pub fn barrier(&self) {
        self.team.tasks.drain();
        self.team.barrier.wait();
    }

    /// `omp critical(name)`: program-wide named mutual exclusion.
    pub fn critical<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        sync::critical(name, f)
    }

    /// `omp master`: runs `f` on thread 0 only; no implied barrier.
    pub fn master(&self, f: impl FnOnce()) {
        if self.is_master() {
            f();
        }
    }

    /// `omp single`: the first thread to arrive runs `f`; the construct
    /// ends with an implicit barrier. Returns whether *this* thread ran it.
    pub fn single(&self, f: impl FnOnce()) -> bool {
        let ran = self.single_nowait(f);
        self.barrier();
        ran
    }

    /// `omp single nowait`: as [`single`](Self::single) without the barrier.
    pub fn single_nowait(&self, f: impl FnOnce()) -> bool {
        let key = self.next_key();
        let claim = self.team.registry.get_or_create(key, || AtomicBool::new(false));
        let won = !claim.swap(true, Ordering::SeqCst);
        if won {
            f();
        }
        won
    }

    // ---------------------------------------------------------------- loops

    /// `omp for schedule(...)`: workshares `range` across the team, calling
    /// `body(i)` for each index. Implicit barrier at the end.
    pub fn for_range(&self, range: Range<usize>, schedule: Schedule, body: impl Fn(usize) + Sync) {
        self.for_range_nowait(range, schedule, body);
        self.barrier();
    }

    /// `omp for schedule(...) nowait`: as [`for_range`](Self::for_range)
    /// without the closing barrier.
    pub fn for_range_nowait(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        body: impl Fn(usize) + Sync,
    ) {
        schedule.validate().expect("invalid schedule");
        let n = range.end.saturating_sub(range.start);
        let base = range.start;
        let nt = self.team.num_threads;
        let key = self.next_key();

        match schedule {
            Schedule::Static { chunk: None } => {
                for i in static_block(n, nt, self.tid) {
                    body(base + i);
                }
            }
            Schedule::Static { chunk: Some(c) } => {
                // Cyclic distribution of fixed chunks.
                let mut start = self.tid * c;
                while start < n {
                    let end = (start + c).min(n);
                    for i in start..end {
                        body(base + i);
                    }
                    start += nt * c;
                }
            }
            Schedule::Dynamic { chunk } => {
                let next = self.team.registry.get_or_create(key, || AtomicUsize::new(0));
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    for i in start..end {
                        body(base + i);
                    }
                }
            }
            Schedule::Guided { min_chunk } => {
                // Lock-free cursor, matching the `Dynamic` path: the chunk
                // size depends on how much is left, so claiming is a CAS on
                // (cursor -> cursor + chunk) rather than a plain fetch_add.
                let next = self.team.registry.get_or_create(key, || AtomicUsize::new(0));
                let mut cur = next.load(Ordering::Relaxed);
                'grab: loop {
                    let (start, end) = loop {
                        if cur >= n {
                            break 'grab;
                        }
                        let remaining = n - cur;
                        let chunk = (remaining / nt).max(min_chunk).min(remaining);
                        match next.compare_exchange_weak(
                            cur,
                            cur + chunk,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break (cur, cur + chunk),
                            Err(seen) => cur = seen,
                        }
                    };
                    for i in start..end {
                        body(base + i);
                    }
                    cur = next.load(Ordering::Relaxed);
                }
            }
        }
    }

    /// `omp for reduction(...)`: workshares `range`, folding each thread's
    /// assigned iterations locally with `fold` and combining thread-local
    /// results with `combine`. All threads return the final value.
    pub fn for_reduce<T>(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        identity: T,
        fold: impl Fn(T, usize) -> T + Sync,
        combine: impl Fn(T, T) -> T + Sync,
    ) -> T
    where
        T: Clone + Send + Sync + 'static,
    {
        struct Slot<T> {
            locals: Mutex<Vec<T>>,
            result: Mutex<Option<T>>,
        }
        let key = self.next_key();
        let slot = self.team.registry.get_or_create(key, || Slot::<T> {
            locals: Mutex::new(Vec::new()),
            result: Mutex::new(None),
        });

        let mut acc = identity;
        // Fold assigned iterations locally (no barrier: we synchronise via
        // the two reduction barriers below).
        let acc_cell = Mutex::new(Some(acc));
        self.for_range_nowait(range, schedule, |i| {
            let mut g = acc_cell.lock();
            let cur = g.take().expect("accumulator present");
            *g = Some(fold(cur, i));
        });
        acc = acc_cell.into_inner().expect("accumulator present");

        slot.locals.lock().push(acc);
        if self.team.barrier.wait() {
            // Leader combines all thread-local partials.
            let mut locals = slot.locals.lock();
            let mut it = locals.drain(..);
            let first = it.next().expect("at least one local per thread");
            let total = it.fold(first, combine);
            *slot.result.lock() = Some(total);
        }
        self.team.barrier.wait();
        let out = slot
            .result
            .lock()
            .clone()
            .expect("reduction result published by leader");
        out
    }

    // ---------------------------------------------------------------- tasks

    /// `omp task`: queues `f` for asynchronous execution by the team. The
    /// task must complete before the region ends.
    pub fn task(&self, f: impl FnOnce() + Send + 's) {
        self.team.tasks.push(f);
    }

    /// `omp taskwait` (simplified to all outstanding tasks): the calling
    /// thread helps execute queued tasks until none remain.
    pub fn taskwait(&self) {
        self.team.tasks.drain();
    }

    /// Number of queued-or-running explicit tasks (diagnostics).
    pub fn tasks_outstanding(&self) -> usize {
        self.team.tasks.outstanding()
    }
}

/// `omp parallel num_threads(n)`: forks a team of `num_threads` (the caller
/// becomes thread 0 and participates), runs `f` on every member, and joins.
///
/// Workers are *leased* from a persistent process-wide pool rather than
/// spawned — the first region of a given size on a caller thread grows the
/// pool, every later one reuses parked threads, and back-to-back regions of
/// the same size skip even the lease (the hot-team fast path; see
/// [`crate::pool`]). Region entry therefore costs a handful of atomic
/// publishes instead of `num_threads - 1` `clone(2)` calls.
///
/// Panics from any member or task are resurfaced on the caller after the
/// whole team has joined.
///
/// # Safety argument (why the scoped `'env` borrow stays sound)
///
/// The pool threads are `'static`, but they only ever touch `f` and the
/// team through a [`Job`] published for this region, and `parallel` does
/// not return — does not even pop this stack frame — until the leader has
/// observed every worker's *done* signal. A worker publishes that signal
/// into its own `'static` slot strictly after its last touch of the job
/// (`Release`/`Acquire` pairing in [`pool::Worker::wait_done`]), so once
/// the join completes no pool thread holds any reference into this frame.
/// That is the same "all users joined before the borrow dies" guarantee
/// `std::thread::scope` provides, established by slot signals instead of
/// `join(2)`.
pub fn parallel<'env, F>(num_threads: usize, f: F)
where
    F: for<'t> Fn(&Ctx<'t, 'env>) + Sync + 'env,
{
    assert!(num_threads > 0, "a team needs at least one thread");
    COUNTERS.regions_forked.inc();
    let trace = TraceId::mint();
    pyjama_trace::emit(trace, Stage::TeamFork, num_threads as u32);

    let team = Team::new(num_threads);
    let mut hot = false;
    if num_threads == 1 {
        // A one-thread team is just the caller; no pool involvement.
        team.run_member(0, &f);
    } else {
        let member = |tid: usize| team.run_member(tid, &f);
        // Safety: `member` (and everything it borrows) outlives every run —
        // see the join-signal argument in the function docs.
        let job = unsafe { Job::erase(&member) };
        hot = pool::with_workers(num_threads - 1, |workers, hot| {
            for (i, w) in workers.iter().enumerate() {
                w.publish(job, i + 1);
            }
            team.run_member(0, &f);
            // The join: collect every worker's done signal. After this loop
            // no pool thread references `member` or the team.
            for w in workers {
                w.wait_done();
            }
            hot
        });
    }

    pyjama_trace::emit(
        trace,
        Stage::TeamJoin,
        if hot { trace_arg::JOIN_HOT } else { trace_arg::JOIN_COLD },
    );
    if let Some(p) = team.tasks.take_panic() {
        std::panic::resume_unwind(p);
    }
    let member_panic = team.member_panic.lock().take();
    if let Some(p) = member_panic {
        std::panic::resume_unwind(p);
    }
}

/// `omp parallel for`: the ubiquitous combined construct.
pub fn parallel_for<F>(num_threads: usize, range: Range<usize>, schedule: Schedule, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel(num_threads, |ctx| {
        ctx.for_range_nowait(range.clone(), schedule, &body);
    });
}

/// `omp parallel for reduction(...)`: combined parallel loop + reduction,
/// returning the reduced value to the caller.
pub fn parallel_reduce<T, F, C>(
    num_threads: usize,
    range: Range<usize>,
    schedule: Schedule,
    identity: T,
    fold: F,
    combine: C,
) -> T
where
    T: Clone + Send + Sync + 'static,
    F: Fn(T, usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    let out: Mutex<Option<T>> = Mutex::new(None);
    parallel(num_threads, |ctx| {
        let v = ctx.for_reduce(range.clone(), schedule, identity.clone(), &fold, &combine);
        if ctx.is_master() {
            *out.lock() = Some(v);
        }
    });
    out.into_inner().expect("master published the reduction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn team_runs_all_members() {
        let seen = Mutex::new(HashSet::new());
        parallel(4, |ctx| {
            seen.lock().insert(ctx.thread_num());
            assert_eq!(ctx.num_threads(), 4);
        });
        assert_eq!(*seen.lock(), (0..4).collect::<HashSet<_>>());
    }

    #[test]
    fn master_participates_as_thread_zero() {
        let caller = std::thread::current().id();
        let master_is_caller = AtomicBool::new(false);
        parallel(3, |ctx| {
            if ctx.is_master() {
                master_is_caller
                    .store(std::thread::current().id() == caller, Ordering::SeqCst);
            }
        });
        assert!(
            master_is_caller.load(Ordering::SeqCst),
            "the encountering thread must be the team's master (fork-join)"
        );
    }

    #[test]
    fn single_thread_team_works() {
        let n = AtomicU64::new(0);
        parallel(1, |ctx| {
            ctx.barrier();
            ctx.single(|| {
                n.fetch_add(1, Ordering::SeqCst);
            });
            ctx.for_range(0..10, Schedule::default_static(), |_| {
                n.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(n.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn static_loop_covers_every_iteration_once() {
        let hits = (0..1000).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        parallel(4, |ctx| {
            ctx.for_range(0..1000, Schedule::default_static(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn static_chunked_loop_covers_every_iteration_once() {
        let hits = (0..997).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        parallel(3, |ctx| {
            ctx.for_range(0..997, Schedule::Static { chunk: Some(16) }, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dynamic_loop_covers_every_iteration_once() {
        let hits = (0..1003).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        parallel(4, |ctx| {
            ctx.for_range(0..1003, Schedule::Dynamic { chunk: 7 }, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn guided_loop_covers_every_iteration_once() {
        let hits = (0..2048).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        parallel(4, |ctx| {
            ctx.for_range(0..2048, Schedule::Guided { min_chunk: 4 }, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nonzero_range_start_respected() {
        let sum = AtomicU64::new(0);
        parallel(3, |ctx| {
            ctx.for_range(100..200, Schedule::Dynamic { chunk: 9 }, |i| {
                assert!((100..200).contains(&i));
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), (100..200u64).sum());
    }

    #[test]
    fn empty_range_is_fine() {
        parallel(4, |ctx| {
            ctx.for_range(10..10, Schedule::default_static(), |_| {
                panic!("no iterations should run");
            });
            ctx.for_range(10..10, Schedule::Dynamic { chunk: 1 }, |_| {
                panic!("no iterations should run");
            });
        });
    }

    #[test]
    fn consecutive_loops_use_fresh_state() {
        // Two dynamic loops back to back: the second must restart from 0.
        let first = (0..50).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let second = (0..50).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        parallel(4, |ctx| {
            ctx.for_range(0..50, Schedule::Dynamic { chunk: 3 }, |i| {
                first[i].fetch_add(1, Ordering::Relaxed);
            });
            ctx.for_range(0..50, Schedule::Dynamic { chunk: 3 }, |i| {
                second[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(first.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(second.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_runs_exactly_once() {
        let n = AtomicU64::new(0);
        parallel(8, |ctx| {
            ctx.single(|| {
                n.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(n.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn consecutive_singles_each_run_once() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        parallel(4, |ctx| {
            ctx.single(|| {
                a.fetch_add(1, Ordering::SeqCst);
            });
            ctx.single(|| {
                b.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(a.load(Ordering::SeqCst), 1);
        assert_eq!(b.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn master_only_thread_zero() {
        let who = Mutex::new(Vec::new());
        parallel(4, |ctx| {
            ctx.master(|| who.lock().push(ctx.thread_num()));
        });
        assert_eq!(*who.lock(), vec![0]);
    }

    #[test]
    fn barrier_synchronises_phases() {
        let phase1 = AtomicU64::new(0);
        parallel(4, |ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            assert_eq!(phase1.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn reduction_sums_correctly() {
        let total = parallel_reduce(
            4,
            0..10_000,
            Schedule::default_static(),
            0u64,
            |acc, i| acc + i as u64,
            |a, b| a + b,
        );
        assert_eq!(total, (0..10_000u64).sum());
    }

    #[test]
    fn reduction_with_dynamic_schedule() {
        let total = parallel_reduce(
            3,
            0..5_000,
            Schedule::Dynamic { chunk: 13 },
            0u64,
            |acc, i| acc + i as u64,
            |a, b| a + b,
        );
        assert_eq!(total, (0..5_000u64).sum());
    }

    #[test]
    fn in_region_reduce_returns_same_value_to_all_threads() {
        let values = Mutex::new(Vec::new());
        parallel(4, |ctx| {
            let v = ctx.for_reduce(
                0..100,
                Schedule::default_static(),
                0u64,
                |acc, i| acc + i as u64,
                |a, b| a + b,
            );
            values.lock().push(v);
        });
        let vs = values.into_inner();
        assert_eq!(vs.len(), 4);
        assert!(vs.iter().all(|&v| v == 4950));
    }

    #[test]
    fn two_reductions_in_one_region() {
        let results = Mutex::new((0u64, 0u64));
        parallel(3, |ctx| {
            let s = ctx.for_reduce(0..100, Schedule::default_static(), 0u64, |a, i| a + i as u64, |a, b| a + b);
            let m = ctx.for_reduce(1..11, Schedule::default_static(), 1u64, |a, i| a * i as u64, |a, b| a * b);
            if ctx.is_master() {
                *results.lock() = (s, m);
            }
        });
        let (s, m) = results.into_inner();
        assert_eq!(s, 4950);
        assert_eq!(m, 3_628_800); // 10!
    }

    #[test]
    fn tasks_run_before_region_ends() {
        let n = AtomicU64::new(0);
        parallel(4, |ctx| {
            if ctx.is_master() {
                for _ in 0..20 {
                    ctx.task(|| {
                        n.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }
        });
        assert_eq!(n.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn taskwait_completes_tasks() {
        let n = AtomicU64::new(0);
        parallel(4, |ctx| {
            ctx.single(|| {
                for _ in 0..10 {
                    ctx.task(|| {
                        n.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            ctx.taskwait();
            assert_eq!(n.load(Ordering::SeqCst), 10);
        });
    }

    #[test]
    fn tasks_capture_borrowed_environment() {
        let data = [1u64, 2, 3, 4];
        let sum = AtomicU64::new(0);
        parallel(2, |ctx| {
            ctx.single_nowait(|| {
                for chunk in data.chunks(2) {
                    let sum = &sum;
                    ctx.task(move || {
                        sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::SeqCst);
                    });
                }
            });
        });
        assert_eq!(sum.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn member_panic_propagates_without_deadlock() {
        let r = std::panic::catch_unwind(|| {
            parallel(4, |ctx| {
                if ctx.thread_num() == 2 {
                    panic!("member failed");
                }
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn task_panic_propagates_after_join() {
        let r = std::panic::catch_unwind(|| {
            parallel(2, |ctx| {
                ctx.single_nowait(|| ctx.task(|| panic!("task failed")));
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn parallel_for_convenience() {
        let hits = (0..100).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        parallel_for(4, 0..100, Schedule::Dynamic { chunk: 5 }, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        parallel(0, |_| {});
    }

    #[test]
    fn critical_from_ctx() {
        let v = Mutex::new(0u64);
        parallel(8, |ctx| {
            for _ in 0..100 {
                ctx.critical("ctx-crit", || {
                    let cur = *v.lock();
                    *v.lock() = cur + 1;
                });
            }
        });
        assert_eq!(*v.lock(), 800);
    }

    #[test]
    fn nested_parallel_regions() {
        // Inner regions form their own teams (nested parallelism).
        let count = AtomicU64::new(0);
        parallel(2, |_outer| {
            parallel(2, |_inner| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }
}
