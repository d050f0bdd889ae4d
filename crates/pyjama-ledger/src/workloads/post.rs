//! The two posting workloads: the same worker pool reached through its two
//! dispatch paths. `post_injector` posts from outside the pool (injector →
//! wake-one → batched pop); `post_member_fanout` posts from a pool thread
//! to its own deque, so the sibling only gets work by stealing. A change to
//! one path should move its workload and leave the other alone.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pyjama_runtime::{Mode, Runtime, TargetRegion, VirtualTarget, WorkerTarget};

use super::{check_pool_conservation, spin, Rng, POOL_THREADS};
use crate::clock;
use crate::harness::{Counters, Micro, SliceRec, Workload};
use crate::spans::{self, Kind};
use crate::stats::ratio;

/// Regions the injector workload keeps in flight at most.
const MAX_IN_FLIGHT: u64 = 256;
/// Children one fan-out root pushes.
const FANOUT: usize = 1024;
/// One operation in this many carries a latency sample.
const SAMPLE_EVERY: u64 = 64;
/// How long the generator waits for posted work before calling it lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Latency samples pushed by region bodies on pool threads and drained by
/// the generator once the pool is quiet. Pre-sized; lock-free.
struct SampleSink {
    slots: Box<[AtomicU64]>,
    len: AtomicUsize,
}

impl SampleSink {
    fn new(cap: usize) -> SampleSink {
        SampleSink {
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            len: AtomicUsize::new(0),
        }
    }

    fn push(&self, v: u64) {
        let i = self.len.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(i) {
            slot.store(v, Ordering::Relaxed);
        }
    }

    /// Call only after synchronising with every pusher (the completion
    /// counters' Release/Acquire pair does that).
    fn drain_into(&self, out: &mut Vec<u64>) {
        let n = self.len.swap(0, Ordering::Relaxed).min(self.slots.len());
        out.extend(self.slots[..n].iter().map(|s| s.load(Ordering::Relaxed)));
    }
}

fn pool_counters(worker: &WorkerTarget) -> Counters {
    Counters {
        target: worker.stats(),
        ..Counters::process_wide()
    }
}

// -------------------------------------------------------------- injector

struct InjectorShared {
    /// Bodies finished. AcqRel on increment, Acquire on the generator's
    /// reads, so sample and checksum writes are visible once it catches up.
    done: AtomicU64,
    /// The `done` value that completes the batch in flight: the body that
    /// reaches it wakes the generator.
    batch_end: AtomicU64,
    /// Sum of the op ids of executed bodies: a lost region and a region run
    /// twice cannot cancel out.
    op_sum: AtomicU64,
    samples: SampleSink,
    batch_lock: Mutex<()>,
    batch_cv: Condvar,
}

/// `post_injector`: one external thread posts near-empty `nowait` regions
/// in batches of `MAX_IN_FLIGHT`, sleeping until each batch has run. Both
/// workers have parked by then, so every batch exercises the whole path:
/// injector push, wake-one, batched pops, park.
pub struct Injector {
    rt: Arc<Runtime>,
    worker: Arc<WorkerTarget>,
    shared: Arc<InjectorShared>,
    posted: u64,
    expect_sum: u64,
    post_ns: u64,
}

impl Injector {
    pub fn setup(_seed: u64) -> Result<Injector, String> {
        let rt = Arc::new(Runtime::new());
        let worker = rt.virtual_target_create_worker("worker", POOL_THREADS);
        let mut w = Injector {
            rt,
            worker,
            shared: Arc::new(InjectorShared {
                done: AtomicU64::new(0),
                batch_end: AtomicU64::new(0),
                op_sum: AtomicU64::new(0),
                samples: SampleSink::new(1 << 18),
                batch_lock: Mutex::new(()),
                batch_cv: Condvar::new(),
            }),
            posted: 0,
            expect_sum: 0,
            post_ns: 0,
        };
        let mut rec = SliceRec::default();
        w.run(Instant::now() + Duration::from_secs(1), 1, &mut rec);
        if rec.failed > 0 {
            return Err("first post never ran".into());
        }
        Ok(w)
    }

    fn post_one(&mut self) {
        self.posted += 1;
        let op = self.posted;
        self.expect_sum = self.expect_sum.wrapping_add(op);
        let shared = Arc::clone(&self.shared);
        // 0 marks an unsampled operation.
        let t_call = if op.is_multiple_of(SAMPLE_EVERY) {
            clock::now_ns()
        } else {
            0
        };
        // Three captured words: the body stays in the region's inline storage.
        self.rt.target("worker", Mode::NoWait, move || {
            if t_call != 0 {
                let t_run = clock::now_ns();
                shared.samples.push(t_run - t_call);
                if spans::enabled() {
                    let t_end = clock::now_ns();
                    spans::record(Kind::Handler, op, t_run, t_end);
                    spans::record(Kind::ClientRequest, op, t_call, t_end);
                }
            }
            shared.op_sum.fetch_add(op, Ordering::Relaxed);
            let done = shared.done.fetch_add(1, Ordering::AcqRel) + 1;
            if done == shared.batch_end.load(Ordering::Acquire) {
                // Through the lock, so the wake cannot slip between the
                // generator's check and its wait.
                drop(
                    shared
                        .batch_lock
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner),
                );
                shared.batch_cv.notify_one();
            }
        });
    }

    /// Posts `n` regions and sleeps until all of them have run. Returns how
    /// many never did.
    fn batch(&mut self, n: u64) -> u64 {
        let end = self.posted + n;
        self.shared.batch_end.store(end, Ordering::Release);
        let t0 = clock::now_ns();
        for _ in 0..n {
            self.post_one();
        }
        self.post_ns += clock::now_ns() - t0;
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        let mut guard = self
            .shared
            .batch_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            let done = self.shared.done.load(Ordering::Acquire);
            let left = give_up.saturating_duration_since(Instant::now());
            if done >= end || left.is_zero() {
                return end - done.min(end);
            }
            guard = self
                .shared
                .batch_cv
                .wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

impl Workload for Injector {
    const TRACE_WINDOW_OPS: u64 = 16 * MAX_IN_FLIGHT;

    fn run(&mut self, deadline: Instant, max_ops: u64, rec: &mut SliceRec) {
        let mut started = 0;
        while started < max_ops && Instant::now() < deadline {
            let n = MAX_IN_FLIGHT.min(max_ops - started);
            let lost = self.batch(n);
            started += n;
            rec.attempted += n;
            rec.ops += n - lost;
            rec.failed += lost;
        }
        self.shared.samples.drain_into(&mut rec.lat_ns);
    }

    fn counters(&self) -> Counters {
        pool_counters(&self.worker)
    }

    fn post_call_ns(&self) -> u64 {
        self.post_ns
    }

    fn check(&self, delta: &Counters, _ops: u64) -> Result<(), String> {
        let got = self.shared.op_sum.load(Ordering::Relaxed);
        if got != self.expect_sum {
            return Err(format!(
                "guard op_checksum: bodies summed to {got}, want {}",
                self.expect_sum
            ));
        }
        let t = &delta.target;
        let injector = ratio(t.injector_pops as f64, t.executed as f64);
        if injector < 0.99 {
            return Err(format!(
                "guard injector_share: {injector:.4} < 0.99 (local {} steals {} injector {})",
                t.local_pops, t.steals, t.injector_pops
            ));
        }
        check_pool_conservation(&self.worker)
    }
}

// ---------------------------------------------------------------- fanout

/// One child's seeded work: `spin(iters, start)`, ~1 µs.
#[derive(Clone, Copy)]
struct ChildWork {
    iters: u64,
    start: u64,
}

struct FanoutShared {
    worker: Arc<WorkerTarget>,
    rt: Arc<Runtime>,
    label: Arc<str>,
    work: Vec<ChildWork>,
    /// Children of the current round still to finish.
    remaining: AtomicU64,
    /// Wrapping sum of the children's spin results this round.
    sum: AtomicU64,
    /// First op id of the current round.
    round_base: AtomicU64,
    /// Nanoseconds roots spent inside their post loops.
    post_ns: AtomicU64,
    samples: SampleSink,
    round_done: Mutex<bool>,
    round_cv: Condvar,
}

/// `post_member_fanout`: a root region on a pool thread pushes `FANOUT`
/// children through `VirtualTarget::post`; an operation is one child.
pub struct Fanout {
    shared: Arc<FanoutShared>,
    expect_sum: u64,
    rounds: u64,
}

impl Fanout {
    pub fn setup(seed: u64) -> Result<Fanout, String> {
        let mut rng = Rng::new(seed);
        let work: Vec<ChildWork> = (0..FANOUT)
            .map(|_| ChildWork {
                iters: rng.range(300, 600),
                start: rng.next_u64(),
            })
            .collect();
        // The expectation is a direct computation, not a pool round trip.
        let expect_sum = work
            .iter()
            .fold(0u64, |acc, w| acc.wrapping_add(spin(w.iters, w.start)));
        let rt = Arc::new(Runtime::new());
        let worker = rt.virtual_target_create_worker("worker", POOL_THREADS);
        let mut w = Fanout {
            shared: Arc::new(FanoutShared {
                worker,
                rt,
                label: Arc::from("fanout child"),
                work,
                remaining: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                round_base: AtomicU64::new(0),
                post_ns: AtomicU64::new(0),
                samples: SampleSink::new(1 << 18),
                round_done: Mutex::new(false),
                round_cv: Condvar::new(),
            }),
            expect_sum,
            rounds: 0,
        };
        let mut rec = SliceRec::default();
        w.round(&mut rec);
        if rec.failed > 0 {
            return Err("first fan-out round failed".into());
        }
        Ok(w)
    }

    /// The root's body: runs on a pool thread, so every post takes the
    /// member path onto that thread's own deque.
    fn root(shared: &Arc<FanoutShared>) {
        let base = shared.round_base.load(Ordering::Relaxed);
        let t0 = clock::now_ns();
        for idx in 0..FANOUT as u64 {
            let op = base + idx;
            let t_call = if op.is_multiple_of(SAMPLE_EVERY) {
                clock::now_ns()
            } else {
                0
            };
            let child = Arc::clone(shared);
            let region = TargetRegion::with_label(Arc::clone(&shared.label), move || {
                Fanout::child(&child, op, t_call);
            });
            shared.worker.post(region);
        }
        shared
            .post_ns
            .fetch_add(clock::now_ns() - t0, Ordering::Relaxed);
    }

    fn child(shared: &FanoutShared, op: u64, t_call: u64) {
        let t_run = if t_call != 0 { clock::now_ns() } else { 0 };
        let work = shared.work[(op % FANOUT as u64) as usize];
        let out = spin(work.iters, work.start);
        shared.sum.fetch_add(out, Ordering::Relaxed);
        if t_call != 0 {
            shared.samples.push(t_run - t_call);
            if spans::enabled() {
                let t_end = clock::now_ns();
                spans::record(Kind::Handler, op, t_run, t_end);
                spans::record(Kind::ClientRequest, op, t_call, t_end);
            }
        }
        // AcqRel: the last child observes every sibling's sum and sample.
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *shared
                .round_done
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = true;
            shared.round_cv.notify_one();
        }
    }

    /// Posts one root and sleeps until its last child has run.
    fn round(&mut self, rec: &mut SliceRec) {
        let shared = &self.shared;
        shared
            .round_base
            .store(self.rounds * FANOUT as u64, Ordering::Relaxed);
        shared.sum.store(0, Ordering::Relaxed);
        shared.remaining.store(FANOUT as u64, Ordering::Release);
        *shared
            .round_done
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = false;
        self.rounds += 1;
        rec.attempted += FANOUT as u64;

        let root = Arc::clone(shared);
        shared
            .rt
            .target("worker", Mode::NoWait, move || Fanout::root(&root));

        let mut done = shared
            .round_done
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        while !*done {
            let left = give_up.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            done = shared
                .round_cv
                .wait_timeout(done, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let finished = *done;
        drop(done);
        if finished && shared.sum.load(Ordering::Relaxed) == self.expect_sum {
            rec.ops += FANOUT as u64;
        } else {
            rec.failed += FANOUT as u64;
        }
        shared.samples.drain_into(&mut rec.lat_ns);
    }
}

impl Workload for Fanout {
    const TRACE_WINDOW_OPS: u64 = 2 * FANOUT as u64;

    fn run(&mut self, deadline: Instant, max_ops: u64, rec: &mut SliceRec) {
        let mut started = 0;
        while started < max_ops && Instant::now() < deadline {
            self.round(rec);
            started += FANOUT as u64;
        }
    }

    fn counters(&self) -> Counters {
        pool_counters(&self.shared.worker)
    }

    fn post_call_ns(&self) -> u64 {
        self.shared.post_ns.load(Ordering::Relaxed)
    }

    /// Same-pool `Runtime::target` calls from inside a root: Algorithm 1's
    /// member short-circuit, the region lifecycle with no queue in it.
    fn micro(&mut self) -> Micro {
        const POSTS: u64 = 64 * FANOUT as u64;
        let ns = Arc::new(AtomicU64::new(0));
        let (shared, out) = (Arc::clone(&self.shared), Arc::clone(&ns));
        self.shared.rt.target("worker", Mode::Wait, move || {
            let hits = Arc::new(AtomicU64::new(0));
            let t0 = clock::now_ns();
            for _ in 0..POSTS {
                let hits = Arc::clone(&hits);
                shared.rt.target("worker", Mode::NoWait, move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            let spent = clock::now_ns() - t0;
            // Inline means already executed when `target` returned.
            if hits.load(Ordering::Relaxed) == POSTS {
                out.store(spent, Ordering::Relaxed);
            }
        });
        Micro {
            inline_ns_per_post: ns.load(Ordering::Relaxed) as f64 / POSTS as f64,
            ..Micro::default()
        }
    }

    fn check(&self, delta: &Counters, _ops: u64) -> Result<(), String> {
        let t = &delta.target;
        if t.steals == 0 {
            return Err("guard steal_share: no child was stolen; steal_half never ran".into());
        }
        let injector = ratio(t.injector_pops as f64, t.executed as f64);
        if injector >= 0.01 {
            return Err(format!(
                "guard injector_share: {injector:.4} >= 0.01 (local {} steals {} injector {})",
                t.local_pops, t.steals, t.injector_pops
            ));
        }
        check_pool_conservation(&self.shared.worker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_sink_drains_and_saturates() {
        let sink = SampleSink::new(2);
        sink.push(5);
        sink.push(6);
        sink.push(7); // over capacity: dropped, not out of bounds
        let mut out = Vec::new();
        sink.drain_into(&mut out);
        assert_eq!(out, vec![5, 6]);
        sink.push(8);
        sink.drain_into(&mut out);
        assert_eq!(out, vec![5, 6, 8]);
    }
}
