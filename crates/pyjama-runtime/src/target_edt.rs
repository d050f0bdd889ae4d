//! EDT virtual targets: a registered event-dispatch thread as an executor.
//!
//! `virtual_target_register_edt(tname)`: "the thread which invokes this
//! function will be registered as a virtual target named tname" (Table II).
//! Here the EDT is represented by its [`EventLoopHandle`]; a target block
//! posted to an EDT target becomes an event on that loop, and the member
//! short-circuit makes `target virtual(edt)` free when already on the EDT —
//! exactly the *thread-context awareness* of §III-B.

use std::sync::Arc;

use pyjama_events::pump;
use pyjama_events::EventLoopHandle;

use crate::executor::{TargetKind, TargetStats, TargetCounters, VirtualTarget};
use crate::task::TargetRegion;

/// A virtual target backed by an event loop's dispatch thread.
pub struct EdtTarget {
    name: String,
    handle: EventLoopHandle,
    stats: TargetCounters,
}

impl EdtTarget {
    /// Wraps an event loop as a named virtual target.
    pub fn new(name: impl Into<String>, handle: EventLoopHandle) -> Arc<Self> {
        Arc::new(EdtTarget {
            name: name.into(),
            handle,
            stats: TargetCounters::default(),
        })
    }

    /// The underlying loop handle.
    pub fn loop_handle(&self) -> &EventLoopHandle {
        &self.handle
    }
}

impl VirtualTarget for EdtTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> TargetKind {
        TargetKind::Edt
    }

    fn post(&self, region: Arc<TargetRegion>) {
        self.stats.posted.inc();
        let posted = self.handle.post({
            let region = Arc::clone(&region);
            move || {
                region.execute();
                // Offer the region back to the recycler. Best effort: if
                // the poster's clone is still in flight the region just
                // drops normally.
                crate::slab::release(region);
            }
        });
        if posted.is_none() {
            // The loop has shut down; a block that can never run must not
            // deadlock waiters. Execute inline as a last resort — the data
            // context is shared either way; only thread affinity is lost.
            region.execute();
            crate::slab::release(region);
        } else {
            self.stats.executed.inc();
        }
    }

    fn is_member(&self) -> bool {
        self.handle.is_loop_thread()
    }

    fn help_one(&self) -> bool {
        if !self.is_member() {
            return false;
        }
        let helped = pump::try_pump_current();
        if helped {
            self.stats.helped.inc();
        }
        helped
    }

    fn pending(&self) -> usize {
        self.handle.pending()
    }

    fn stats(&self) -> TargetStats {
        self.stats.snapshot()
    }
}

impl std::fmt::Debug for EdtTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdtTarget")
            .field("name", &self.name)
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyjama_events::Edt;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn posts_become_events_on_the_loop() {
        let edt = Edt::spawn("edt");
        let target = EdtTarget::new("edt", edt.handle());
        let ran_on_loop = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran_on_loop);
        let lh = edt.handle();
        let region = TargetRegion::new("t", move || {
            r2.store(lh.is_loop_thread(), Ordering::SeqCst);
        });
        let h = region.handle();
        target.post(region);
        h.wait();
        assert!(ran_on_loop.load(Ordering::SeqCst));
        assert_eq!(target.stats().posted, 1);
    }

    #[test]
    fn member_only_on_the_dispatch_thread() {
        let edt = Edt::spawn("edt");
        let target = EdtTarget::new("edt", edt.handle());
        assert!(!target.is_member());
        let t2 = Arc::clone(&target);
        assert!(edt.invoke_and_wait(move || t2.is_member()));
    }

    #[test]
    fn help_one_pumps_reentrantly() {
        let edt = Edt::spawn("edt");
        let target = EdtTarget::new("edt", edt.handle());
        let observed = Arc::new(AtomicBool::new(false));

        // Handler A (on the EDT) helps; event B queued behind it is pumped
        // from inside A.
        let t2 = Arc::clone(&target);
        let o2 = Arc::clone(&observed);
        let ib = Arc::new(AtomicBool::new(false));
        let ib2 = Arc::clone(&ib);
        edt.invoke_later(move || {
            // Give B time to be queued.
            while !ib2.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            o2.store(t2.help_one(), Ordering::SeqCst);
        });
        edt.invoke_later({
            let ib = Arc::clone(&ib);
            move || {
                let _ = &ib;
            }
        });
        ib.store(true, Ordering::SeqCst);
        edt.invoke_and_wait(|| {});
        assert!(observed.load(Ordering::SeqCst));
        assert_eq!(target.stats().helped, 1);
    }

    #[test]
    fn help_one_from_outside_is_false() {
        let edt = Edt::spawn("edt");
        let target = EdtTarget::new("edt", edt.handle());
        assert!(!target.help_one());
    }

    #[test]
    fn post_after_shutdown_executes_inline() {
        let mut edt = Edt::spawn("edt");
        let target = EdtTarget::new("edt", edt.handle());
        edt.shutdown();
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let region = TargetRegion::new("t", move || r2.store(true, Ordering::SeqCst));
        let h = region.handle();
        target.post(region);
        h.wait();
        assert!(ran.load(Ordering::SeqCst));
    }
}
