//! Model ports of the omp pool's fork-join slot protocol
//! (`pyjama-omp/src/pool.rs`) and the runtime injector's shutdown
//! protocol (`pyjama-runtime/src/worker.rs`).
//!
//! Port map:
//! - [`ModelSlot::publish`]     ⇔ `pool.rs::Worker::publish`
//! - [`ModelSlot::next_job`]    ⇔ `pool.rs::Worker::next_job`
//!   (spin budget taken as 0 — the model goes straight to the park path,
//!   which is the interesting one; spinning adds schedules, not states)
//! - [`ModelSlot::signal_done`] ⇔ `pool.rs::Worker::signal_done`
//! - [`ModelSlot::wait_done`]   ⇔ `pool.rs::Worker::wait_done`
//! - both directions park on one [`ModelEventCount`] ⇔ `Slot::wake`
//! - [`ModelSlot::worker_run`]  ⇔ `pool.rs::worker_loop` body
//! - [`ModelPool`]              ⇔ `pool.rs::lease`/`release` + the hot-team
//!   take-out discipline of `with_workers`
//! - [`ModelInjector`]          ⇔ `worker.rs::post`/`run_loop` idle-park /
//!   `shutdown` / final drain

use crate::models::event_count::ModelEventCount;
use crate::models::Mutation;
use crate::shim::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::shim::sync::Mutex;

/// Sentinel for "no job value"; scenarios use small positive job ids.
pub const NO_JOB: u64 = u64::MAX;

/// ⇔ `pool.rs::Slot` + `Worker`: the single-producer/single-consumer
/// fork-join mailbox. The leader-stack-borrowing `Job` is modelled as a
/// `u64` job id; the worker's "last touch of the job" is a write of
/// `job * 2` into `frame`, standing in for results written through the
/// erased borrow into the leader's frame.
pub struct ModelSlot {
    full: AtomicBool,
    done: AtomicBool,
    job: AtomicU64,
    /// The "leader's stack frame": written by the worker as its last touch.
    pub frame: AtomicU64,
    wake: ModelEventCount,
    mutation: Mutation,
}

impl ModelSlot {
    pub fn new(mutation: Mutation) -> Self {
        ModelSlot {
            full: AtomicBool::named("slot.full", false),
            done: AtomicBool::named("slot.done", false),
            job: AtomicU64::named("slot.job", NO_JOB),
            frame: AtomicU64::named("slot.frame", NO_JOB),
            wake: ModelEventCount::new(mutation),
            mutation,
        }
    }

    /// Leaseholder side. ⇔ `Worker::publish`: job write, SeqCst full
    /// publish, eventcount notify.
    pub fn publish(&self, job: u64) {
        self.job.store(job, Ordering::Relaxed);
        self.full.store(true, Ordering::SeqCst);
        if self.mutation == Mutation::PoolPublishSkipNotify {
            // BUG: leave a parked worker asleep on a full slot.
            return;
        }
        self.wake.notify();
    }

    /// Worker side. ⇔ `Worker::next_job` with spin budget 0.
    pub fn next_job(&self) -> u64 {
        self.wake.wait(0, false, || self.full.load(Ordering::SeqCst));
        let job = self.job.load(Ordering::Relaxed);
        self.full.store(false, Ordering::SeqCst);
        job
    }

    /// Worker side. ⇔ `Worker::signal_done`.
    pub fn signal_done(&self) {
        self.done.store(true, Ordering::SeqCst);
        self.wake.notify();
    }

    /// Leaseholder side. ⇔ `Worker::wait_done` with spin budget 0.
    pub fn wait_done(&self) {
        self.wake.wait(0, false, || self.done.load(Ordering::SeqCst));
        self.done.store(false, Ordering::SeqCst);
    }

    /// ⇔ one iteration of `pool.rs::worker_loop`: consume a job, run the
    /// member (here: write the result into the leader's frame — the last
    /// touch), then signal done. Returns the job it ran.
    pub fn worker_run(&self) -> u64 {
        let job = self.next_job();
        if self.mutation == Mutation::PoolDoneBeforeLastTouch {
            // BUG: report done while the job's shared state is still about
            // to be written. The joiner may retire the frame first.
            self.signal_done();
            self.frame.store(job.wrapping_mul(2), Ordering::Relaxed);
        } else {
            self.frame.store(job.wrapping_mul(2), Ordering::Relaxed);
            self.signal_done();
        }
        job
    }
}

/// ⇔ `pool.rs::POOL` + `lease`/`release`: worker identities only. Leasing
/// never blocks — shortfall "spawns" fresh ids — so concurrent and nested
/// regions cannot deadlock against the pool.
pub struct ModelPool {
    idle: Mutex<Vec<u64>>,
    next_id: AtomicUsize,
}

impl ModelPool {
    pub fn new() -> Self {
        ModelPool {
            idle: Mutex::named("pool.idle", Vec::new()),
            next_id: AtomicUsize::named("pool.next_id", 0),
        }
    }

    /// ⇔ `pool.rs::lease`: pooled workers first, spawn the shortfall.
    pub fn lease(&self, k: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(k);
        {
            let mut idle = self.idle.lock();
            while out.len() < k {
                match idle.pop() {
                    Some(w) => out.push(w),
                    None => break,
                }
            }
        }
        while out.len() < k {
            out.push(self.next_id.fetch_add(1, Ordering::SeqCst) as u64);
        }
        out
    }

    /// ⇔ `pool.rs::release`.
    pub fn release(&self, workers: Vec<u64>) {
        if !workers.is_empty() {
            self.idle.lock().extend(workers);
        }
    }
}

impl Default for ModelPool {
    fn default() -> Self {
        Self::new()
    }
}

/// ⇔ `worker.rs`: the shared injector with its shutdown protocol and the
/// idle worker's eventcount park. Jobs are opaque ids; `executed` and
/// `rejected` make the conservation law `executed + rejected == posted`
/// checkable by scenarios.
pub struct ModelInjector {
    /// Queue + shutdown flag, both only mutated under this lock
    /// (⇔ `worker.rs` taking the injector lock in `post` and `shutdown`).
    queue: Mutex<InjState>,
    /// ⇔ `injector_len`: incremented under the lock by an accepted post.
    len: AtomicUsize,
    /// ⇔ the SeqCst shutdown atomic read by workers outside the lock.
    shutdown_flag: AtomicBool,
    /// ⇔ the idle worker's `parked` flag in the eventcount protocol.
    parked: AtomicBool,
    signal: super::parker::ModelWakeSignal,
    pub executed: AtomicUsize,
    pub rejected: AtomicUsize,
    mutation: Mutation,
}

struct InjState {
    jobs: Vec<u64>,
    shutdown: bool,
}

impl ModelInjector {
    pub fn new(mutation: Mutation) -> Self {
        ModelInjector {
            queue: Mutex::named("inj.queue", InjState { jobs: Vec::new(), shutdown: false }),
            len: AtomicUsize::named("inj.len", 0),
            shutdown_flag: AtomicBool::named("inj.shutdown", false),
            parked: AtomicBool::named("inj.parked", false),
            signal: super::parker::ModelWakeSignal::new(Mutation::None),
            executed: AtomicUsize::named("inj.executed", 0),
            rejected: AtomicUsize::named("inj.rejected", 0),
            mutation,
        }
    }

    /// ⇔ `worker.rs::post`: accept/reject under the injector lock (the len
    /// increment — an RMW, hence a TSO flush — happens inside it), then
    /// fence and wake. Returns whether the post was accepted.
    pub fn post(&self, job: u64) -> bool {
        {
            let mut g = self.queue.lock();
            if g.shutdown {
                drop(g);
                self.rejected.fetch_add(1, Ordering::SeqCst);
                return false;
            }
            g.jobs.push(job);
            self.len.fetch_add(1, Ordering::SeqCst);
        }
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            self.signal.notify();
        }
        true
    }

    /// ⇔ `worker.rs::shutdown`: flip the flag under the injector lock (so
    /// it serializes against every accept decision), then publish it SeqCst
    /// and wake the parked worker for its final drain.
    pub fn shutdown(&self) {
        {
            let mut g = self.queue.lock();
            g.shutdown = true;
        }
        self.shutdown_flag.store(true, Ordering::SeqCst);
        self.signal.notify();
    }

    fn take(&self) -> Option<u64> {
        let mut g = self.queue.lock();
        let job = g.jobs.pop();
        if job.is_some() {
            self.len.fetch_sub(1, Ordering::SeqCst);
        }
        job
    }

    /// ⇔ `worker.rs::run_loop` for an injector-only worker: execute while
    /// work is pending, park via the eventcount when idle, and on observing
    /// shutdown perform the final drain before exiting.
    ///
    /// The checked invariant (the satellite-3 scenario): every *accepted*
    /// post is executed — acceptance under the lock happens-before the
    /// SeqCst shutdown read that gates the drain, so the drain must see it.
    pub fn worker_loop(&self) {
        loop {
            if let Some(_job) = self.take() {
                self.executed.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            if self.shutdown_flag.load(Ordering::SeqCst) {
                if self.mutation != Mutation::ShutdownSkipFinalDrain {
                    // Final drain: posts accepted before the flag flipped
                    // are still queued; executing them keeps the
                    // conservation law intact.
                    while let Some(_job) = self.take() {
                        self.executed.fetch_add(1, Ordering::SeqCst);
                    }
                }
                // BUG (ShutdownSkipFinalDrain): exit with accepted posts
                // still queued — `executed + rejected < posted`.
                return;
            }
            // Eventcount park ⇔ `run_loop`: advertise parked, fence, then
            // re-check for pending work or shutdown before sleeping.
            self.parked.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if self.len.load(Ordering::SeqCst) > 0 || self.shutdown_flag.load(Ordering::SeqCst) {
                self.parked.store(false, Ordering::SeqCst);
                continue;
            }
            self.signal.park();
            self.parked.store(false, Ordering::SeqCst);
        }
    }
}
