//! Event coalescing — AWT/Swing-style collapsing of redundant updates.
//!
//! GUI frameworks coalesce repaint and progress events: if an update for
//! the same key is still queued, the new one *replaces* it instead of
//! piling up behind a slow EDT. The paper's broadcast-style `nowait`
//! progress updates (§III-C: "broadcasting interim updates") are exactly
//! the events worth coalescing.

use std::collections::HashMap;
use std::sync::Arc;

use pyjama_sync::Mutex;

use crate::eventloop::EventLoopHandle;

type Job = Box<dyn FnOnce() + Send>;
/// The freshest not-yet-dispatched handler for one key.
type Slot = Arc<Mutex<Option<Job>>>;

/// Posts keyed events to a loop, collapsing same-key events that have not
/// yet dispatched.
pub struct Coalescer {
    handle: EventLoopHandle,
    pending: Arc<Mutex<HashMap<String, Slot>>>,
}

impl Coalescer {
    /// Wraps a loop handle.
    pub fn new(handle: EventLoopHandle) -> Self {
        Coalescer {
            handle,
            pending: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Posts `f` under `key`. If a `key` event is still queued, its
    /// handler is replaced by `f` (the stale update is dropped) and no new
    /// event is enqueued.
    pub fn post(&self, key: &str, f: impl FnOnce() + Send + 'static) {
        let mut pending = self.pending.lock();
        if let Some(slot) = pending.get(key) {
            let mut g = slot.lock();
            if g.is_some() {
                // Still queued: replace the stale handler.
                *g = Some(Box::new(f));
                return;
            }
            // Already dispatched (slot emptied); fall through to repost.
        }
        let slot: Slot = Arc::new(Mutex::new(Some(Box::new(f))));
        pending.insert(key.to_string(), Arc::clone(&slot));
        drop(pending);

        let pending_map = Arc::clone(&self.pending);
        let owned_key = key.to_string();
        let posted = self.handle.post(move || {
            // Take the freshest handler and clear the key before running,
            // so a post from inside the handler re-enqueues.
            let job = {
                let job = slot.lock().take();
                pending_map.lock().remove(&owned_key);
                job
            };
            if let Some(job) = job {
                job();
            }
        });
        if posted.is_err() {
            // The loop has shut down: no event will ever clear the key.
            self.pending.lock().remove(key);
        }
    }

    /// Number of keys with a queued (not yet dispatched) event.
    pub fn pending_keys(&self) -> usize {
        self.pending.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventLoop;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn burst_of_same_key_updates_coalesces_to_latest() {
        let el = EventLoop::new("edt");
        let c = Coalescer::new(el.handle());
        let last = Arc::new(AtomicU64::new(0));
        let runs = Arc::new(AtomicU64::new(0));
        for i in 1..=100u64 {
            let last = Arc::clone(&last);
            let runs = Arc::clone(&runs);
            c.post("progress", move || {
                last.store(i, Ordering::SeqCst);
                runs.fetch_add(1, Ordering::SeqCst);
            });
        }
        el.run_until_idle();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "99 stale updates dropped");
        assert_eq!(last.load(Ordering::SeqCst), 100, "the freshest survives");
    }

    #[test]
    fn different_keys_do_not_coalesce() {
        let el = EventLoop::new("edt");
        let c = Coalescer::new(el.handle());
        let runs = Arc::new(AtomicU64::new(0));
        for key in ["a", "b", "c"] {
            let runs = Arc::clone(&runs);
            c.post(key, move || {
                runs.fetch_add(1, Ordering::SeqCst);
            });
        }
        el.run_until_idle();
        assert_eq!(runs.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn post_after_dispatch_enqueues_again() {
        let el = EventLoop::new("edt");
        let c = Coalescer::new(el.handle());
        let runs = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&runs);
        c.post("k", move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        el.run_until_idle();
        let r = Arc::clone(&runs);
        c.post("k", move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        el.run_until_idle();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        assert_eq!(c.pending_keys(), 0);
    }

    #[test]
    fn coalesced_event_keeps_its_queue_position_among_plain_events() {
        // Replacing a queued handler must not move the event: a same-key
        // repost updates the payload in place, so the coalesced event still
        // dispatches *before* plain events posted after the original, and
        // the plain events around it are unaffected.
        let el = EventLoop::new("edt");
        let h = el.handle();
        let c = Coalescer::new(h.clone());
        let order = Arc::new(Mutex::new(Vec::new()));

        let o = Arc::clone(&order);
        c.post("progress", move || o.lock().push("stale"));
        let o = Arc::clone(&order);
        h.post(move || o.lock().push("plain-1")).unwrap();
        // Replaces the queued "stale" payload; position stays first.
        let o = Arc::clone(&order);
        c.post("progress", move || o.lock().push("fresh"));
        let o = Arc::clone(&order);
        h.post(move || o.lock().push("plain-2")).unwrap();

        el.run_until_idle();
        assert_eq!(*order.lock(), vec!["fresh", "plain-1", "plain-2"]);
    }

    #[test]
    fn mixed_keys_and_plain_events_all_run_with_latest_payloads() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let c = Coalescer::new(h.clone());
        let last_a = Arc::new(AtomicU64::new(0));
        let last_b = Arc::new(AtomicU64::new(0));
        let plain = Arc::new(AtomicU64::new(0));
        for i in 1..=10u64 {
            let a = Arc::clone(&last_a);
            c.post("a", move || a.store(i, Ordering::SeqCst));
            let b = Arc::clone(&last_b);
            c.post("b", move || b.store(i * 100, Ordering::SeqCst));
            let p = Arc::clone(&plain);
            h.post(move || {
                p.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        el.run_until_idle();
        assert_eq!(last_a.load(Ordering::SeqCst), 10);
        assert_eq!(last_b.load(Ordering::SeqCst), 1000);
        assert_eq!(plain.load(Ordering::SeqCst), 10, "plain events never coalesce");
        assert_eq!(c.pending_keys(), 0);
    }

    #[test]
    fn post_to_a_shut_down_loop_leaves_no_pending_key() {
        let el = EventLoop::new("edt");
        let c = Coalescer::new(el.handle());
        el.handle().quit();
        c.post("k", || {});
        assert_eq!(
            c.pending_keys(),
            0,
            "a rejected post must not strand its key"
        );
    }

    #[test]
    fn repost_from_inside_handler_works() {
        let el = EventLoop::new("edt");
        let c = Arc::new(Coalescer::new(el.handle()));
        let runs = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let r2 = Arc::clone(&runs);
        c.post("k", move || {
            r2.fetch_add(1, Ordering::SeqCst);
            let r3 = Arc::clone(&r2);
            c2.post("k", move || {
                r3.fetch_add(1, Ordering::SeqCst);
            });
        });
        el.run_until_idle();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }
}
