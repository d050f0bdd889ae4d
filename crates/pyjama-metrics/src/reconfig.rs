//! Reconfiguration counters for the live control plane.
//!
//! A running server is retuned by publishing immutable config snapshots
//! through `pyjama-control`; each successful publish bumps a monotonically
//! increasing *generation*. These counters record the control plane's
//! decision history — snapshots applied, snapshots rejected by validation,
//! and subscriber callbacks notified — plus the current generation, so a
//! test (or the `/admin` stats endpoint) can assert "exactly one
//! reconfiguration was applied during this window" without reaching into
//! the control plane's internals.

crate::counter_set! {
    /// Cumulative control-plane counters. Reconfiguration is rare, but the
    /// counters follow the same zero-perturbation idiom as the data-plane
    /// counter sets.
    pub struct ReconfigCounters => ReconfigStats {
        /// Snapshots validated and published.
        applied: Counter,
        /// Snapshots rejected by validation.
        rejected: Counter,
        /// Subscriber callbacks run across all published snapshots.
        subscribers_notified: Counter,
        /// Current config generation (0 = still on the initial config). It
        /// mirrors the control plane's monotonic generation, which never
        /// goes backwards while the process lives, so `reset` keeps it and
        /// `since` reports it rather than a delta.
        generation: Gauge,
    }
}

impl ReconfigCounters {
    /// A validated snapshot was published; `generation` is the new current
    /// generation.
    pub fn record_applied(&self, generation: u64) {
        self.applied.inc();
        self.generation.set(generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applied_tracks_generation() {
        let c = ReconfigCounters::new();
        c.record_applied(1);
        c.rejected.inc();
        c.record_applied(2);
        c.subscribers_notified.inc();
        c.subscribers_notified.inc();
        let s = c.snapshot();
        assert_eq!(s.applied, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.subscribers_notified, 2);
        assert_eq!(s.generation, 2);
    }

    #[test]
    fn reset_preserves_generation() {
        let c = ReconfigCounters::new();
        c.record_applied(7);
        c.reset();
        let s = c.snapshot();
        assert_eq!(s.applied, 0);
        assert_eq!(s.generation, 7);
    }

    #[test]
    fn since_reports_window_deltas_and_current_generation() {
        let c = ReconfigCounters::new();
        c.record_applied(1);
        let s1 = c.snapshot();
        c.record_applied(2);
        c.rejected.inc();
        let d = c.snapshot().since(&s1);
        assert_eq!(d.applied, 1);
        assert_eq!(d.rejected, 1);
        assert_eq!(d.generation, 2);
    }
}
