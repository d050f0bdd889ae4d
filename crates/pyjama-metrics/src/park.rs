//! Park/wake counters for the runtime's wake-driven await barrier.
//!
//! The `await` logical barrier blocks on a per-barrier parker that task
//! completion, event posts and pool enqueues all notify. These counters make
//! that machinery observable: how often threads actually blocked, how often
//! a notification had to wake a blocked thread, and how many wakeups
//! delivered no work (spurious). A healthy barrier shows `wakes` close to
//! `parks` and a small `spurious_wakes` fraction; a regression back towards
//! polling would show up as `parks` vastly exceeding `notifies`, which counts
//! only the notifications that delivered a new permit.

crate::counter_set! {
    /// Cumulative parker counters. Increments are single relaxed atomic adds
    /// so recording does not perturb the wake path being measured.
    pub struct ParkCounters => ParkStats {
        /// Times a thread actually blocked (entered a condvar wait) with
        /// nothing to do.
        parks: Counter,
        /// Times a blocked thread was released by a notification (not by a
        /// deadline).
        wakes: Counter,
        /// Notifications that set a parker's permit, whether or not its
        /// owner was blocked. A notify that finds the permit already
        /// pending (an earlier wake not yet consumed) returns after one
        /// load and is not counted.
        notifies: Counter,
        /// Wakeups consumed by a thread that then found neither completed
        /// work nor anything to help with.
        spurious_wakes: Counter,
    }
}
