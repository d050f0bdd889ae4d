//! Thread-per-request: the "most traditional approach" (§II-A).
//!
//! Every event spawns a brand-new OS thread. The paper lists its two
//! drawbacks: the multithreading expertise demanded, and "the salient
//! drawback of non-scalability, since excessively creating threads could
//! decrease the application's performance". This type exists so the
//! benchmarks can measure that overhead against pooled approaches.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama_events::Latch;

/// Spawns one thread per offloaded handler and counts them.
#[derive(Default)]
pub struct ThreadPerRequest {
    spawned: AtomicU64,
    live: Arc<Latch>,
}

impl ThreadPerRequest {
    /// Creates a spawner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offloads `f` to a freshly spawned thread (detached, like the classic
    /// pattern — completion is the handler's own business).
    pub fn offload(&self, f: impl FnOnce() + Send + 'static) {
        self.spawned.fetch_add(1, Ordering::Relaxed);
        let entry = self.live.enter();
        std::thread::spawn(move || {
            let _entry = entry;
            f();
        });
    }

    /// Total threads ever spawned.
    pub fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Threads currently running handlers.
    pub fn live(&self) -> u64 {
        self.live.outstanding() as u64
    }

    /// Parks until all spawned handlers have finished, or `timeout` passes.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.live.wait_idle(Some(Instant::now() + timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn offload_runs_on_new_thread() {
        let tpr = ThreadPerRequest::new();
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        tpr.offload(move || {
            tx.send(std::thread::current().id() != caller).unwrap();
        });
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        assert_eq!(tpr.spawned(), 1);
    }

    #[test]
    fn live_count_rises_and_falls() {
        let tpr = ThreadPerRequest::new();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let gate = Arc::new(std::sync::Barrier::new(5));
        for _ in 0..4 {
            let g = Arc::clone(&gate);
            let tx = tx.clone();
            tpr.offload(move || {
                tx.send(()).unwrap();
                g.wait();
            });
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(tpr.live(), 4);
        gate.wait(); // release them
        assert!(tpr.wait_idle(Duration::from_secs(5)));
        assert_eq!(tpr.live(), 0);
        assert_eq!(tpr.spawned(), 4);
    }

    #[test]
    fn wait_idle_times_out_while_busy() {
        let tpr = ThreadPerRequest::new();
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        tpr.offload(move || {
            g.wait();
        });
        assert!(!tpr.wait_idle(Duration::from_millis(20)));
        gate.wait();
        assert!(tpr.wait_idle(Duration::from_secs(5)));
    }

    #[test]
    fn panicking_handler_still_decrements_live() {
        let tpr = ThreadPerRequest::new();
        tpr.offload(|| panic!("handler bug"));
        assert!(tpr.wait_idle(Duration::from_secs(5)));
        assert_eq!(tpr.live(), 0);
    }
}
