//! Recurring timers — `javax.swing.Timer`-style periodic events.
//!
//! The GUI benchmarks and examples need tickers (paper Figure 1's stream
//! of incoming requests); this module provides a cancelable periodic
//! event source built on the loop's delayed-post primitive.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::eventloop::EventLoopHandle;

/// Handle to a running periodic timer; dropping it does **not** stop the
/// timer (like Swing), call [`cancel`](IntervalHandle::cancel).
#[derive(Clone)]
pub struct IntervalHandle {
    cancelled: Arc<AtomicBool>,
    fired: Arc<AtomicU64>,
}

impl IntervalHandle {
    /// Stops the timer after at most one more firing.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// True once cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Number of times the callback has run.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }
}

impl EventLoopHandle {
    /// Schedules `f` to run on the loop every `period`, starting one
    /// period from now, until cancelled (or the loop shuts down).
    pub fn post_interval(
        &self,
        period: Duration,
        f: impl Fn() + Send + Sync + 'static,
    ) -> IntervalHandle {
        let handle = IntervalHandle {
            cancelled: Arc::new(AtomicBool::new(false)),
            fired: Arc::new(AtomicU64::new(0)),
        };
        schedule_tick(self.clone(), period, Arc::new(f), handle.clone());
        handle
    }
}

fn schedule_tick(
    loop_handle: EventLoopHandle,
    period: Duration,
    f: Arc<dyn Fn() + Send + Sync>,
    interval: IntervalHandle,
) {
    let lh = loop_handle.clone();
    loop_handle.post_delayed(period, move || {
        if interval.cancelled.load(Ordering::SeqCst) {
            return;
        }
        f();
        interval.fired.fetch_add(1, Ordering::SeqCst);
        schedule_tick(lh, period, f, interval);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edt::Edt;
    use std::time::Instant;

    #[test]
    fn interval_fires_repeatedly_until_cancelled() {
        let edt = Edt::spawn("edt");
        let ih = edt.handle().post_interval(Duration::from_millis(5), || {});
        let t0 = Instant::now();
        while ih.fired() < 3 {
            assert!(t0.elapsed() < Duration::from_secs(10), "timer never fired 3×");
            std::thread::sleep(Duration::from_millis(1));
        }
        ih.cancel();
        assert!(ih.is_cancelled());
        let after = ih.fired();
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            ih.fired() <= after + 1,
            "at most one more firing after cancel"
        );
    }

    #[test]
    fn multiple_intervals_coexist() {
        let edt = Edt::spawn("edt");
        let fast = edt.handle().post_interval(Duration::from_millis(3), || {});
        let slow = edt.handle().post_interval(Duration::from_millis(30), || {});
        let t0 = Instant::now();
        while fast.fired() < 8 {
            assert!(t0.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            fast.fired() > slow.fired(),
            "fast ticker must outpace slow one: {} vs {}",
            fast.fired(),
            slow.fired()
        );
        fast.cancel();
        slow.cancel();
    }

    #[test]
    fn interval_callback_runs_on_the_loop_thread() {
        let edt = Edt::spawn("edt");
        let h = edt.handle();
        let on_loop = Arc::new(AtomicBool::new(false));
        let o2 = Arc::clone(&on_loop);
        let h2 = h.clone();
        let ih = h.post_interval(Duration::from_millis(2), move || {
            o2.store(h2.is_loop_thread(), Ordering::SeqCst);
        });
        let t0 = Instant::now();
        while ih.fired() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(1));
        }
        ih.cancel();
        assert!(on_loop.load(Ordering::SeqCst));
    }

    #[test]
    fn interval_rearms_after_handler_slower_than_period() {
        // A handler outlasting its own period must not kill the ticker:
        // each completion schedules the next tick, so firing continues
        // (at the handler's pace) instead of stopping after one round.
        let edt = Edt::spawn("edt");
        let ih = edt.handle().post_interval(Duration::from_millis(2), || {
            std::thread::sleep(Duration::from_millis(15));
        });
        let t0 = Instant::now();
        while ih.fired() < 3 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "slow handler stopped the interval after {} fires",
                ih.fired()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        ih.cancel();
    }

    #[test]
    fn cancel_during_running_handler_stops_future_ticks() {
        // Cancel lands while a tick's handler is mid-run: the in-flight
        // tick finishes (its firing already counted or about to be), but
        // the re-arm it performs must observe the flag and go dead.
        let edt = Edt::spawn("edt");
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (e2, r2) = (Arc::clone(&entered), Arc::clone(&release));
        let ih = edt.handle().post_interval(Duration::from_millis(2), move || {
            e2.store(true, Ordering::SeqCst);
            let t0 = Instant::now();
            while !r2.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let t0 = Instant::now();
        while !entered.load(Ordering::SeqCst) {
            assert!(t0.elapsed() < Duration::from_secs(10), "first tick never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        ih.cancel(); // mid-flight: the handler is blocked inside its run
        release.store(true, Ordering::SeqCst);
        // Wait out several would-be periods; the count must settle at the
        // in-flight firing alone.
        std::thread::sleep(Duration::from_millis(40));
        let settled = ih.fired();
        assert!(settled <= 1, "cancel mid-flight allowed {settled} fires");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ih.fired(), settled, "timer kept ticking after cancel");
    }

    #[test]
    fn shut_down_loop_frees_its_pending_tick() {
        // The callback owns a guard that counts its drop. The pending tick
        // holds a handle to its own loop; unless the loop drops its timers
        // on exit, the loop, the tick and the callback outlive shutdown and
        // the count stays at 0.
        struct Guard(Arc<AtomicU64>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let edt = Edt::spawn("edt");
        let guard = Guard(Arc::clone(&drops));
        let ih = edt.handle().post_interval(Duration::from_millis(2), move || {
            let _ = &guard;
        });
        let t0 = Instant::now();
        while ih.fired() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "timer never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(edt);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "callback leaked with its loop");

        // Same for a loop that never ran.
        let el = crate::eventloop::EventLoop::new("never-run");
        let guard = Guard(Arc::clone(&drops));
        el.handle().post_interval(Duration::from_secs(60), move || {
            let _ = &guard;
        });
        drop(el);
        assert_eq!(drops.load(Ordering::SeqCst), 2, "callback leaked with its loop");

        // Due ticks still queued when the loop quits: a re-entrant pump
        // dispatches one of the two, which re-arms itself.
        let el = crate::eventloop::EventLoop::new("quit-with-queued-tick");
        let h = el.handle();
        for _ in 0..2 {
            let guard = Guard(Arc::clone(&drops));
            h.post_interval(Duration::from_millis(1), move || {
                let _ = &guard;
            });
        }
        let hq = h.clone();
        let pumped = Arc::new(AtomicBool::new(false));
        let p = Arc::clone(&pumped);
        h.post(move || {
            std::thread::sleep(Duration::from_millis(5));
            p.store(crate::pump::try_pump_current(), Ordering::SeqCst);
            hq.quit();
        })
        .unwrap();
        el.run();
        assert!(pumped.load(Ordering::SeqCst), "no due tick was pumped");
        assert_eq!(drops.load(Ordering::SeqCst), 4, "queued tick leaked with its loop");

        // A tick scheduled through a handle that outlives its loop.
        let guard = Guard(Arc::clone(&drops));
        h.post_interval(Duration::from_secs(60), move || {
            let _ = &guard;
        });
        drop(h);
        assert_eq!(drops.load(Ordering::SeqCst), 5, "tick leaked after its loop");
    }

    #[test]
    fn cancelled_handle_reports_zero_future_fires() {
        let edt = Edt::spawn("edt");
        let ih = edt
            .handle()
            .post_interval(Duration::from_millis(500), || {});
        ih.cancel();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ih.fired(), 0);
    }
}
