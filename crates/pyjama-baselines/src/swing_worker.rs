//! The `javax.swing.SwingWorker` pattern (paper Figure 3).
//!
//! A `SwingWorker<T, V>` runs `doInBackground` off the EDT, streams interim
//! `V` chunks through `publish`, which the framework coalesces and delivers
//! to `process` *on the EDT*, and finally calls `done` on the EDT. "The
//! underlying implementation of SwingWorker maintains a default
//! 10-thread-max thread pool" (§V-A) — reproduced by
//! [`SwingWorkerPool::default_pool`].

use std::sync::Arc;

use pyjama_sync::Mutex;
use pyjama_events::EventLoopHandle;

use crate::executor_service::ExecutorService;

/// The shared background pool all workers execute on.
pub struct SwingWorkerPool {
    executor: ExecutorService,
}

impl SwingWorkerPool {
    /// A pool with `n` threads.
    pub fn new(n: usize) -> Self {
        SwingWorkerPool {
            executor: ExecutorService::new_fixed(n),
        }
    }

    /// Swing's default: 10 threads.
    pub fn default_pool() -> Self {
        Self::new(10)
    }

    fn execute(&self, f: impl FnOnce() + Send + 'static) {
        self.executor.execute(f);
    }
}

/// Handle passed to the background closure for streaming interim results.
pub struct Publisher<V: Send + 'static> {
    edt: EventLoopHandle,
    pending: Arc<Mutex<Vec<V>>>,
    process: Arc<dyn Fn(Vec<V>) + Send + Sync>,
}

impl<V: Send + 'static> Publisher<V> {
    /// `publish(v)`: queues a chunk; chunks are coalesced and delivered to
    /// the `process` callback on the EDT.
    pub fn publish(&self, v: V) {
        let schedule = {
            let mut g = self.pending.lock();
            g.push(v);
            g.len() == 1 // first chunk since the last drain → schedule a drain
        };
        if schedule {
            let pending = Arc::clone(&self.pending);
            let process = Arc::clone(&self.process);
            // A stopped EDT drops the drain, as `invokeLater` would.
            let _ = self.edt.post(move || {
                let chunk: Vec<V> = std::mem::take(&mut *pending.lock());
                if !chunk.is_empty() {
                    process(chunk);
                }
            });
        }
    }
}

/// A background worker with EDT-marshalled progress and completion, built
/// with a fluent API:
///
/// ```no_run
/// # use pyjama_baselines::swing_worker::{SwingWorker, SwingWorkerPool};
/// # use pyjama_events::Edt;
/// # let edt = Edt::spawn("edt");
/// # let pool = SwingWorkerPool::default_pool();
/// SwingWorker::new(edt.handle())
///     .process(|chunks: Vec<u32>| { /* S2: progress, on the EDT */ })
///     .done(|result: String| { /* S4: completion, on the EDT */ })
///     .execute(&pool, |publisher| {
///         // S1/S3: background computation
///         publisher.publish(50);
///         "finished".to_string()
///     });
/// ```
pub struct SwingWorker<T: Send + 'static, V: Send + 'static> {
    edt: EventLoopHandle,
    process: Option<Arc<dyn Fn(Vec<V>) + Send + Sync>>,
    done: Option<Box<dyn FnOnce(T) + Send>>,
}

impl<T: Send + 'static, V: Send + 'static> SwingWorker<T, V> {
    /// Starts building a worker bound to the given EDT.
    pub fn new(edt: EventLoopHandle) -> Self {
        SwingWorker {
            edt,
            process: None,
            done: None,
        }
    }

    /// Sets the `process` callback (runs on the EDT with coalesced chunks).
    pub fn process(mut self, f: impl Fn(Vec<V>) + Send + Sync + 'static) -> Self {
        self.process = Some(Arc::new(f));
        self
    }

    /// Sets the `done` callback (runs on the EDT with the final value).
    pub fn done(mut self, f: impl FnOnce(T) + Send + 'static) -> Self {
        self.done = Some(Box::new(f));
        self
    }

    /// `execute()`: submits `background` to the pool. Progress flows through
    /// the [`Publisher`]; when the background closure returns, `done` is
    /// posted to the EDT with its value.
    pub fn execute(
        self,
        pool: &SwingWorkerPool,
        background: impl FnOnce(&Publisher<V>) -> T + Send + 'static,
    ) {
        let edt = self.edt.clone();
        let publisher = Publisher {
            edt: self.edt.clone(),
            pending: Arc::new(Mutex::new(Vec::new())),
            process: self.process.unwrap_or_else(|| Arc::new(|_| {})),
        };
        let done = self.done;
        pool.execute(move || {
            let result = background(&publisher);
            if let Some(done) = done {
                let _ = edt.post(move || done(result));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyjama_events::Edt;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn wait_until(flag: &AtomicBool) {
        let t0 = std::time::Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(t0.elapsed() < Duration::from_secs(5), "timed out");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn background_runs_off_edt_done_runs_on_edt() {
        let edt = Edt::spawn("edt");
        let pool = SwingWorkerPool::new(2);
        let h = edt.handle();
        let bg_on_edt = Arc::new(AtomicBool::new(true));
        let done_on_edt = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));

        let b2 = Arc::clone(&bg_on_edt);
        let d2 = Arc::clone(&done_on_edt);
        let f2 = Arc::clone(&finished);
        let h2 = h.clone();
        let h3 = h.clone();
        SwingWorker::<u64, ()>::new(h)
            .done(move |v| {
                assert_eq!(v, 99);
                d2.store(h3.is_loop_thread(), Ordering::SeqCst);
                f2.store(true, Ordering::SeqCst);
            })
            .execute(&pool, move |_| {
                b2.store(h2.is_loop_thread(), Ordering::SeqCst);
                99
            });

        wait_until(&finished);
        assert!(!bg_on_edt.load(Ordering::SeqCst), "background must not run on EDT");
        assert!(done_on_edt.load(Ordering::SeqCst), "done must run on EDT");
    }

    #[test]
    fn publish_delivers_all_chunks_in_order_on_edt() {
        let edt = Edt::spawn("edt");
        let pool = SwingWorkerPool::new(1);
        let received = Arc::new(Mutex::new(Vec::new()));
        let finished = Arc::new(AtomicBool::new(false));

        let r2 = Arc::clone(&received);
        let f2 = Arc::clone(&finished);
        SwingWorker::<(), u32>::new(edt.handle())
            .process(move |chunk| r2.lock().extend(chunk))
            .done(move |_| f2.store(true, Ordering::SeqCst))
            .execute(&pool, |publisher| {
                for i in 0..50 {
                    publisher.publish(i);
                }
            });

        wait_until(&finished);
        edt.invoke_and_wait(|| {}); // drain any trailing process event
        let got = received.lock().clone();
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "chunks lost or reordered");
    }

    #[test]
    fn coalescing_batches_multiple_chunks_per_process_call() {
        let edt = Edt::spawn("edt");
        let pool = SwingWorkerPool::new(1);
        let calls = Arc::new(Mutex::new(Vec::new()));
        let finished = Arc::new(AtomicBool::new(false));

        let c2 = Arc::clone(&calls);
        let f2 = Arc::clone(&finished);
        // Park the EDT briefly so publishes pile up and coalesce.
        edt.invoke_later(|| std::thread::sleep(Duration::from_millis(30)));
        SwingWorker::<(), u32>::new(edt.handle())
            .process(move |chunk| c2.lock().push(chunk.len()))
            .done(move |_| f2.store(true, Ordering::SeqCst))
            .execute(&pool, |publisher| {
                for i in 0..20 {
                    publisher.publish(i);
                }
            });

        wait_until(&finished);
        edt.invoke_and_wait(|| {});
        let sizes = calls.lock().clone();
        assert_eq!(sizes.iter().sum::<usize>(), 20);
        assert!(
            sizes.len() < 20,
            "expected coalescing to batch chunks, got {sizes:?}"
        );
    }

    #[test]
    fn worker_without_callbacks_still_runs() {
        let edt = Edt::spawn("edt");
        let pool = SwingWorkerPool::new(1);
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        SwingWorker::<(), ()>::new(edt.handle()).execute(&pool, move |_| {
            r2.store(true, Ordering::SeqCst);
        });
        wait_until(&ran);
    }

    #[test]
    fn many_workers_share_the_pool() {
        let edt = Edt::spawn("edt");
        let pool = SwingWorkerPool::default_pool();
        let done = Arc::new(Mutex::new(0usize));
        for _ in 0..30 {
            let d = Arc::clone(&done);
            SwingWorker::<(), ()>::new(edt.handle())
                .done(move |_| *d.lock() += 1)
                .execute(&pool, |_| {
                    std::thread::sleep(Duration::from_millis(2));
                });
        }
        let t0 = std::time::Instant::now();
        while *done.lock() < 30 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
