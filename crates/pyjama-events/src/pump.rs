//! Re-entrant pumping — the hook behind the paper's `await` mode.
//!
//! Algorithm 1 (§IV-B) implements `await` as a *logical barrier*:
//!
//! ```text
//! while B is not finished do
//!     T.processAnotherEventHandler()
//! end while
//! ```
//!
//! For the EDT, "the current experimental version of Pyjama achieves this by
//! slightly modifying the event queue dispatching mechanism in the Java AWT
//! runtime library". Our event loop exposes the same capability directly:
//! from inside a handler, [`try_pump_current`] dispatches one other pending
//! event on the same loop, re-entrantly. It takes the same dispatch step as
//! the loop's own `run`, so a due timer, a High event and a Normal one
//! dispatch in the same order whether the loop or an await drives it. It
//! keeps dispatching what is queued after the loop has quit: a handler
//! awaiting a block that waits on a round trip through this loop must still
//! finish, or the loop could never stop.
//!
//! When the loop has *nothing* pending, the barrier does not poll this
//! function: it parks on the thread's own parker, which the loop's queue
//! notifies on every post, schedule and quit (the thread running a loop is
//! the queue's owner, see [`crate::parker`]). One `try_pump_current` call
//! then dispatches the newly arrived event. The barrier bounds that park by
//! the loop's next timer deadline, read through [`current_handle`].

use crate::eventloop::{current_shared, handle_from_shared, Driver, EventLoopHandle};

/// If the current thread is running an [`crate::EventLoop`], dispatch one
/// pending event (or due timer) re-entrantly and return `true`. Returns
/// `false` when not on a loop thread or when nothing is pending.
pub fn try_pump_current() -> bool {
    match current_shared() {
        Some(shared) => shared.step(Driver::Pump).is_none(),
        None => false,
    }
}

/// True when the current thread is running an event loop (i.e. we are inside
/// a handler, or inside `run_until_idle`).
pub fn is_event_loop_thread() -> bool {
    current_shared().is_some()
}

/// Handle to the loop the current thread is running, if any.
pub fn current_handle() -> Option<EventLoopHandle> {
    current_shared().map(handle_from_shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventLoop;
    use pyjama_sync::Mutex;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn pumping_off_loop_thread_is_false() {
        assert!(!try_pump_current());
        assert!(!is_event_loop_thread());
        assert!(current_handle().is_none());
    }

    #[test]
    fn handler_can_pump_a_later_event() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let order = Arc::new(Mutex::new(Vec::new()));

        // First handler pumps; the second event runs *inside* the first.
        let o1 = Arc::clone(&order);
        h.post(move || {
            o1.lock().push("first:start");
            while try_pump_current() {}
            o1.lock().push("first:end");
        })
        .unwrap();
        let o2 = Arc::clone(&order);
        h.post(move || o2.lock().push("second")).unwrap();

        el.run_until_idle();
        assert_eq!(
            *order.lock(),
            vec!["first:start", "second", "first:end"],
            "second event must be dispatched re-entrantly inside the first"
        );
        assert_eq!(h.stats().reentrant, 1);
        assert_eq!(h.stats().max_depth, 2);
    }

    #[test]
    fn current_handle_posts_back_to_same_loop() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        h.post(move || {
            let me = current_handle().expect("inside a handler");
            let r = Arc::clone(&r);
            me.post(move || r.store(true, Ordering::SeqCst)).unwrap();
        })
        .unwrap();
        el.run_until_idle();
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn is_event_loop_thread_true_inside_handler() {
        let el = EventLoop::new("edt");
        let h = el.handle();
        let seen = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&seen);
        h.post(move || s.store(is_event_loop_thread(), Ordering::SeqCst))
            .unwrap();
        el.run_until_idle();
        assert!(seen.load(Ordering::SeqCst));
    }
}
