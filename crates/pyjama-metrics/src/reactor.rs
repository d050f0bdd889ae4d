//! Readiness-reactor counters for the epoll serving policy.
//!
//! The reactor inverts the serving pipeline: instead of worker threads
//! blocking in `read`, one reactor thread owns every accepted socket and
//! turns kernel readiness into posted target regions. These counters make
//! that event flow auditable end to end, with a conservation law analogous
//! to the scheduler's `executed == local + steals + injector`:
//!
//! > **`readiness_events == dispatched + spurious_ready`**
//!
//! Every readiness notification the reactor consumes either dispatched a
//! registered connection into the worker pool or hit a token with no
//! registration behind it (structurally zero on the Linux epoll path, where
//! a one-shot report disarms the socket until its owner re-arms it, and an
//! evicted socket is deregistered before its slot is reused).
//! A violation means readiness notifications are being dropped or double
//! counted — exactly the class of bug an ownership-transfer reactor can
//! hide for a long time.

crate::counter_set! {
    /// Cumulative reactor counters. Increments are single relaxed atomic
    /// adds so recording does not perturb the readiness hot path.
    pub struct ReactorCounters => ReactorStats {
        /// Connections registered with the reactor for the first time.
        registered: Counter,
        /// Read-interest re-registrations: a served connection waiting for
        /// its next request, or for the rest of a partially-received one.
        rearms_read: Counter,
        /// Write-interest re-registrations after a short response write
        /// (`EPOLLOUT` re-arm: the response did not fit the socket buffer).
        rearms_write: Counter,
        /// Readiness notifications consumed for connection tokens
        /// (wake-pipe traffic is counted separately as `wakeups`).
        readiness_events: Counter,
        /// Notifications that dispatched a connection into the worker pool.
        dispatched: Counter,
        /// Notifications whose token had no registration behind it.
        spurious_ready: Counter,
        /// Idle connections evicted at their deadline.
        evicted_idle: Counter,
        /// Wake-pipe wakeups (only `stop` writes the pipe: registering a
        /// connection wakes nobody).
        wakeups: Counter,
    }
}

impl ReactorStats {
    /// Total re-registrations, whatever the interest.
    pub fn rearms(&self) -> u64 {
        self.rearms_read + self.rearms_write
    }

    /// The reactor conservation law: every consumed readiness notification
    /// either dispatched a connection or was spurious. Check only when the
    /// reactor is quiescent (shut down, or no I/O in flight).
    pub fn readiness_balanced(&self) -> bool {
        self.readiness_events == self.dispatched + self.spurious_ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn law_violation_is_detected() {
        let c = ReactorCounters::new();
        c.readiness_events.inc();
        assert!(!c.snapshot().readiness_balanced(), "consumed but not accounted");
        c.dispatched.inc();
        assert!(c.snapshot().readiness_balanced());
    }

    #[test]
    fn rearms_counts_both_interests() {
        let c = ReactorCounters::new();
        c.rearms_read.add(2);
        c.rearms_write.inc();
        assert_eq!(c.snapshot().rearms(), 3);
    }
}
