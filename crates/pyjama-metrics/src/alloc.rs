//! Region/event recycling counters and their conservation law.
//!
//! The runtime recycles terminal `TargetRegion` allocations through a
//! bounded slab (per-thread stacks over a shared pool) instead of dropping
//! them, so the steady-state posting path never touches the global
//! allocator. These counters make the slab auditable. Every region a program ever sees is in exactly one of
//! three places once constructed:
//!
//! * **live** — checked out: queued, running, or awaiting release (gauge);
//! * **recycled** — resting in the slab awaiting reuse (gauge);
//! * **dropped** — retired for good: slab full, panicked/poisoned, or still
//!   pinned by an outstanding handle at release time (cumulative).
//!
//! which gives the conservation law checked at quiesce:
//!
//! ```text
//! allocated == recycled + live + dropped
//! ```
//!
//! where `allocated` cumulatively counts *fresh* constructions only. A slab
//! hit increments `reused` instead — `reused / (allocated + reused)` is the
//! recycler's hit rate, and a steady-state hit rate of 1.0 is exactly the
//! "0 allocations per post" property the `post_hotpath` bench gates.

crate::counter_set! {
    /// Cumulative + gauge counters for an allocation recycler. Exact
    /// equality in the conservation law is only expected at quiesce (no
    /// region in flight).
    pub struct AllocCounters => AllocStats {
        /// Fresh constructions (cumulative; slab misses).
        allocated: Counter,
        /// Slab hits (cumulative; posts that allocated nothing).
        reused: Counter,
        /// Regions retired for good (cumulative).
        dropped: Counter,
        /// Of `dropped`, those retired because their body panicked (this
        /// only attributes the reason; the retirement is a `record_drop`).
        poisoned: Counter,
        /// Regions currently checked out.
        live: Gauge,
        /// Regions currently resting in the slab.
        recycled: Gauge,
    }
}

/// The lifecycle transitions. Each moves one region between the law's
/// terms in one call; they are the supported way to record a transition
/// (the cells are public, so nothing stops a caller bumping one term alone).
impl AllocCounters {
    /// A fresh region was constructed (slab miss). It starts live.
    pub fn record_fresh(&self) {
        self.allocated.inc();
        self.live.add(1);
    }

    /// A region was taken from the slab (hit): recycled → live.
    pub fn record_reuse(&self) {
        self.reused.inc();
        self.recycled.sub(1);
        self.live.add(1);
    }

    /// A parked region was claimed from the slab but found still pinned at
    /// reset time (recycled → live); the caller retires it, and its drop
    /// records live → dropped. Not counted as a reuse — the claim produced
    /// no recycled region.
    pub fn record_unpark(&self) {
        self.recycled.sub(1);
        self.live.add(1);
    }

    /// A terminal region entered the slab: live → recycled.
    pub fn record_recycle(&self) {
        self.recycled.add(1);
        self.live.sub(1);
    }

    /// A live region was retired for good (slab full, pinned by a handle,
    /// or simply dropped by its owner): live → dropped.
    pub fn record_drop(&self) {
        self.dropped.inc();
        self.live.sub(1);
    }
}

impl AllocStats {
    /// The conservation law `allocated == recycled + live + dropped`.
    /// Exact at quiesce; transiently off by in-flight transitions otherwise.
    pub fn conserved(&self) -> bool {
        self.allocated == self.recycled + self.live + self.dropped
    }

    /// Fraction of acquisitions served from the slab, in `[0, 1]`.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.allocated + self.reused;
        if total == 0 {
            0.0
        } else {
            self.reused as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_conserved() {
        let c = AllocCounters::new();
        let s = c.snapshot();
        assert_eq!(s, AllocStats::default());
        assert!(s.conserved());
        assert_eq!(s.reuse_rate(), 0.0);
    }

    #[test]
    fn lifecycle_conserves() {
        let c = AllocCounters::new();
        // Two fresh regions; one recycles, one drops.
        c.record_fresh();
        c.record_fresh();
        c.record_recycle();
        c.record_drop();
        let s = c.snapshot();
        assert_eq!(s.allocated, 2);
        assert_eq!(s.recycled, 1);
        assert_eq!(s.live, 0);
        assert_eq!(s.dropped, 1);
        assert!(s.conserved());

        // Reuse the recycled one, then poison-drop it.
        c.record_reuse();
        c.poisoned.inc();
        c.record_drop();
        let s = c.snapshot();
        assert_eq!(s.reused, 1);
        assert_eq!(s.poisoned, 1);
        assert_eq!(s.dropped, 2);
        assert!(s.conserved());
        assert_eq!(s.reuse_rate(), 1.0 / 3.0);
    }

    #[test]
    fn since_diffs_cumulative_keeps_gauges() {
        let c = AllocCounters::new();
        c.record_fresh();
        let s1 = c.snapshot();
        c.record_fresh();
        c.record_recycle();
        let d = c.snapshot().since(&s1);
        assert_eq!(d.allocated, 1);
        assert_eq!(d.live, 1, "gauge carried, not diffed");
        assert_eq!(d.recycled, 1);
    }
}
