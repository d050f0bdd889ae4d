//! A `java.util.concurrent.ExecutorService`-style fixed thread pool.
//!
//! Deliberately *not* the same object as the runtime's
//! `pyjama_runtime`-style worker target: an `ExecutorService` has no
//! thread-context awareness and no scheduling clauses — submitting is all
//! it does. The Figure 7 baseline combines it with `invokeLater`-style
//! posts for GUI updates, exactly as §II-A describes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pyjama_sync::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Inner {
    queue: Mutex<VecDeque<Job>>,
    cond: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-size thread pool with `submit → Future` semantics.
pub struct ExecutorService {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ExecutorService {
    /// `Executors.newFixedThreadPool(n)`.
    pub fn new_fixed(n: usize) -> Self {
        assert!(n > 0, "pool needs at least one thread");
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let threads = (0..n)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("executor-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let mut q = inner.queue.lock();
                            loop {
                                if let Some(j) = q.pop_front() {
                                    break Some(j);
                                }
                                if inner.shutdown.load(Ordering::SeqCst) {
                                    break None;
                                }
                                inner.cond.wait(&mut q);
                            }
                        };
                        match job {
                            Some(j) => {
                                // Pool threads survive panicking jobs.
                                let _ = std::panic::catch_unwind(
                                    std::panic::AssertUnwindSafe(j),
                                );
                            }
                            None => return,
                        }
                    })
                    .expect("failed to spawn executor thread")
            })
            .collect();
        ExecutorService {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// Submits a runnable; returns nothing (`execute`).
    pub fn execute(&self, f: impl FnOnce() + Send + 'static) {
        assert!(
            !self.inner.shutdown.load(Ordering::SeqCst),
            "executor has been shut down"
        );
        self.inner.queue.lock().push_back(Box::new(f));
        self.inner.cond.notify_one();
    }

    /// Submits a value-returning task (`submit`), yielding a [`JFuture`].
    pub fn submit<R: Send + 'static>(
        &self,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> JFuture<R> {
        let state = Arc::new(FutureState {
            slot: Mutex::new(FutureSlot::Pending),
            cond: Condvar::new(),
        });
        let s2 = Arc::clone(&state);
        self.execute(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let mut g = s2.slot.lock();
            *g = match r {
                Ok(v) => FutureSlot::Done(Some(v)),
                Err(_) => FutureSlot::Panicked,
            };
            drop(g);
            s2.cond.notify_all();
        });
        JFuture { state }
    }

    /// Queued (not yet started) jobs.
    pub fn queue_len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Pool size.
    pub fn pool_size(&self) -> usize {
        self.threads.lock().len()
    }

    /// `shutdown()` + `awaitTermination`: runs remaining jobs, joins all
    /// threads. Idempotent.
    pub fn shutdown(&self) {
        // Stored under the queue lock: a pool thread checks the flag and
        // enters `cond.wait` in one hold of that lock, so the notify below
        // cannot fall between its check and its wait.
        let q = self.inner.queue.lock();
        self.inner.shutdown.store(true, Ordering::SeqCst);
        drop(q);
        self.inner.cond.notify_all();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ExecutorService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

enum FutureSlot<R> {
    Pending,
    Done(Option<R>),
    Panicked,
}

struct FutureState<R> {
    slot: Mutex<FutureSlot<R>>,
    cond: Condvar,
}

/// A blocking future for a submitted task (`java.util.concurrent.Future`).
pub struct JFuture<R> {
    state: Arc<FutureState<R>>,
}

impl<R> JFuture<R> {
    /// Blocks until the task completes, returning its value.
    ///
    /// # Panics
    /// Panics if the task panicked (analogous to `ExecutionException`).
    pub fn get(self) -> R {
        let mut g = self.state.slot.lock();
        loop {
            match &mut *g {
                FutureSlot::Pending => self.state.cond.wait(&mut g),
                FutureSlot::Done(v) => return v.take().expect("value taken once"),
                FutureSlot::Panicked => panic!("task panicked (ExecutionException)"),
            }
        }
    }

    /// Blocks up to `timeout`; `None` on expiry.
    pub fn get_timeout(self, timeout: Duration) -> Option<R> {
        let deadline = Instant::now() + timeout;
        let mut g = self.state.slot.lock();
        loop {
            match &mut *g {
                FutureSlot::Pending => {
                    if self.state.cond.wait_until(&mut g, deadline).timed_out()
                        && matches!(*g, FutureSlot::Pending) {
                            return None;
                        }
                }
                FutureSlot::Done(v) => return Some(v.take().expect("value taken once")),
                FutureSlot::Panicked => panic!("task panicked (ExecutionException)"),
            }
        }
    }

    /// Non-blocking completion check (`isDone`).
    pub fn is_done(&self) -> bool {
        !matches!(*self.state.slot.lock(), FutureSlot::Pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn submit_returns_value() {
        let ex = ExecutorService::new_fixed(2);
        let f = ex.submit(|| 6 * 7);
        assert_eq!(f.get(), 42);
    }

    #[test]
    fn execute_runs_all_jobs() {
        let ex = ExecutorService::new_fixed(4);
        let n = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let n = Arc::clone(&n);
            ex.execute(move || {
                n.fetch_add(1, Ordering::SeqCst);
            });
        }
        ex.shutdown();
        assert_eq!(n.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn futures_complete_concurrently() {
        let ex = ExecutorService::new_fixed(4);
        let t0 = Instant::now();
        let fs: Vec<_> = (0..4)
            .map(|_| ex.submit(|| std::thread::sleep(Duration::from_millis(40))))
            .collect();
        for f in fs {
            f.get();
        }
        assert!(t0.elapsed() < Duration::from_millis(140), "{:?}", t0.elapsed());
    }

    #[test]
    fn get_timeout_expires_for_slow_task() {
        let ex = ExecutorService::new_fixed(1);
        let f = ex.submit(|| std::thread::sleep(Duration::from_millis(200)));
        assert!(f.get_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn is_done_flips() {
        let ex = ExecutorService::new_fixed(1);
        let f = ex.submit(|| 1);
        while !f.is_done() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(f.get(), 1);
    }

    #[test]
    #[should_panic(expected = "ExecutionException")]
    fn panicking_task_panics_at_get() {
        let ex = ExecutorService::new_fixed(1);
        let f = ex.submit(|| -> i32 { panic!("bad task") });
        f.get();
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        let ex = ExecutorService::new_fixed(1);
        ex.execute(|| panic!("boom"));
        let f = ex.submit(|| "still alive");
        assert_eq!(f.get(), "still alive");
    }

    #[test]
    #[should_panic(expected = "shut down")]
    fn execute_after_shutdown_panics() {
        let ex = ExecutorService::new_fixed(1);
        ex.shutdown();
        ex.execute(|| {});
    }

    #[test]
    fn shutdown_is_idempotent() {
        let ex = ExecutorService::new_fixed(2);
        ex.shutdown();
        ex.shutdown();
    }
}
