//! A dedicated event-dispatch thread, in the style of the AWT/Swing EDT.
//!
//! The loop is built and configured before its thread starts, so spawning
//! needs no handshake. [`Edt::invoke_and_wait`] parks the caller on its own
//! parker ([`crate::parker`]) until the handler has filled the result slot.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pyjama_sync::Mutex;

use crate::eventloop::{EventLoop, EventLoopHandle, LoopStats};
use crate::parker;

/// An owned dispatch thread running an [`EventLoop`].
///
/// GUI frameworks confine all widget access to one such thread (§II-A:
/// "updates to the GUI should only be executed by the EDT"). `Edt` provides
/// the two `SwingUtilities`-style entry points, [`invoke_later`]
/// (asynchronous post) and [`invoke_and_wait`] (synchronous round-trip).
///
/// [`invoke_later`]: Edt::invoke_later
/// [`invoke_and_wait`]: Edt::invoke_and_wait
pub struct Edt {
    handle: EventLoopHandle,
    thread: Option<JoinHandle<()>>,
}

impl Edt {
    /// Spawns a new dispatch thread named `name`. Its loop accepts events
    /// from the moment this returns.
    pub fn spawn(name: impl Into<String>) -> Self {
        Self::spawn_with(name, |_| {})
    }

    /// Like [`spawn`](Self::spawn), but lets the caller configure the loop
    /// (attach occupancy/latency instrumentation) before it starts.
    pub fn spawn_with(name: impl Into<String>, configure: impl FnOnce(&EventLoop)) -> Self {
        let name = name.into();
        let el = EventLoop::new(name.clone());
        configure(&el);
        let handle = el.handle();
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || el.run())
            .expect("failed to spawn EDT thread");
        Edt {
            handle,
            thread: Some(thread),
        }
    }

    /// Posts a handler to run on the EDT (SwingUtilities.invokeLater). A
    /// stopped EDT drops it.
    pub fn invoke_later(&self, f: impl FnOnce() + Send + 'static) {
        let _ = self.handle.post(f);
    }

    /// Runs `f` on the EDT and blocks until it completes, returning its
    /// value (SwingUtilities.invokeAndWait).
    ///
    /// Unlike Swing — which throws when called from the EDT — calling this
    /// *on* the EDT runs `f` inline, since blocking there would deadlock.
    pub fn invoke_and_wait<R: Send + 'static>(&self, f: impl FnOnce() -> R + Send + 'static) -> R {
        if self.handle.is_loop_thread() {
            return f();
        }
        let me = parker::current();
        let slot: Arc<Mutex<Option<std::thread::Result<R>>>> = Arc::new(Mutex::new(None));
        let (slot2, waiter) = (Arc::clone(&slot), Arc::clone(&me));
        let posted = self.handle.post(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            *slot2.lock() = Some(r);
            waiter.notify();
        });
        assert!(posted.is_ok(), "invoke_and_wait on a stopped EDT");
        let result = loop {
            if let Some(r) = slot.lock().take() {
                break r;
            }
            me.park();
        };
        result.unwrap_or_else(|p| std::panic::resume_unwind(p))
    }

    /// Schedules a handler to run on the EDT after `delay`.
    pub fn invoke_delayed(&self, delay: Duration, f: impl FnOnce() + Send + 'static) {
        self.handle.post_delayed(delay, f);
    }

    /// True when called from the dispatch thread itself.
    pub fn is_edt(&self) -> bool {
        self.handle.is_loop_thread()
    }

    /// The underlying loop handle (for registering as a virtual target).
    pub fn handle(&self) -> EventLoopHandle {
        self.handle.clone()
    }

    /// Dispatch statistics.
    pub fn stats(&self) -> LoopStats {
        self.handle.stats()
    }

    /// Stops the loop and joins the thread. Idempotent.
    ///
    /// If called *on the EDT itself* (e.g. the owner was dropped inside a
    /// handler), the thread is detached instead of joined — a thread cannot
    /// join itself; the loop still exits once the handler returns.
    pub fn shutdown(&mut self) {
        self.handle.quit();
        if let Some(t) = self.thread.take() {
            if t.thread().id() == std::thread::current().id() {
                drop(t);
            } else {
                let _ = t.join();
            }
        }
    }
}

impl Drop for Edt {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Edt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Edt").field("name", &self.handle.name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn invoke_later_runs_on_edt_thread() {
        let edt = Edt::spawn("edt-test");
        let h = edt.handle();
        let on_edt = Arc::new(AtomicBool::new(false));
        let o = Arc::clone(&on_edt);
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        edt.invoke_later(move || {
            o.store(h.is_loop_thread(), Ordering::SeqCst);
            d.store(true, Ordering::SeqCst);
        });
        while !done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(on_edt.load(Ordering::SeqCst));
    }

    #[test]
    fn invoke_and_wait_returns_value() {
        let edt = Edt::spawn("edt-test");
        let v = edt.invoke_and_wait(|| 6 * 7);
        assert_eq!(v, 42);
    }

    #[test]
    fn invoke_and_wait_from_edt_runs_inline() {
        let edt = Arc::new(Edt::spawn("edt-test"));
        let e2 = Arc::clone(&edt);
        let v = edt.invoke_and_wait(move || e2.invoke_and_wait(|| 7));
        assert_eq!(v, 7);
    }

    #[test]
    fn invoke_and_wait_propagates_panic() {
        let edt = Edt::spawn("edt-test");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            edt.invoke_and_wait(|| panic!("widget error"))
        }));
        assert!(r.is_err());
        // EDT still alive afterwards.
        assert_eq!(edt.invoke_and_wait(|| 1), 1);
    }

    #[test]
    fn events_execute_in_fifo_order() {
        let edt = Edt::spawn("edt-test");
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let c = Arc::clone(&counter);
            edt.invoke_later(move || {
                // Each event asserts it's the i-th to run.
                let prev = c.fetch_add(1, Ordering::SeqCst);
                assert_eq!(prev, i);
            });
        }
        // Barrier: round-trip guarantees all prior events dispatched.
        edt.invoke_and_wait(|| {});
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn is_edt_false_from_outside() {
        let edt = Edt::spawn("edt-test");
        assert!(!edt.is_edt());
        assert!(edt.invoke_and_wait({
            let h = edt.handle();
            move || h.is_loop_thread()
        }));
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut edt = Edt::spawn("edt-test");
        edt.shutdown();
        edt.shutdown();
        drop(edt);
    }

    #[test]
    fn invoke_delayed_runs() {
        let edt = Edt::spawn("edt-test");
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        edt.invoke_delayed(Duration::from_millis(20), move || {
            d.store(true, Ordering::SeqCst)
        });
        let t0 = std::time::Instant::now();
        while !done.load(Ordering::SeqCst) {
            assert!(t0.elapsed() < Duration::from_secs(5), "timer never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
