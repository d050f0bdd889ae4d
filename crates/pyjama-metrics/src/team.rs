//! Fork-join team counters for the persistent `omp parallel` thread pool.
//!
//! Every `parallel` region *leases* pre-spawned pool workers instead of
//! spawning OS threads, and the hot-team fast path skips even the lease
//! when back-to-back regions have the same composition. These counters
//! make that machinery observable: a healthy steady state shows
//! `threads_spawned` flat (the pool stopped growing), `threads_reused`
//! tracking `member_activations`, and `regions_hot` close to
//! `regions_forked`. The barrier pair shows how often the spin-then-park
//! join resolved within its spin budget (`barrier_spins`) versus having
//! to park a thread (`barrier_parks`).
//!
//! Conservation law: every member activation is served either by a thread
//! spawned for it or by a reused pooled thread, so once all regions have
//! joined,
//!
//! ```text
//! threads_spawned + threads_reused == member_activations
//! ```
//!
//! ([`TeamStats::activations_conserved`]; asserted by the root
//! `omp_pool` acceptance tests).

crate::counter_set! {
    /// Cumulative fork-join pool counters. Increments are single relaxed
    /// atomic adds so recording does not perturb the region hot path.
    pub struct TeamCounters => TeamStats {
        /// Parallel regions forked (any team size, pooled or serial).
        regions_forked: Counter,
        /// Regions served by the caller's cached hot team (lease skipped).
        regions_hot: Counter,
        /// OS threads the pool spawned.
        threads_spawned: Counter,
        /// Member activations served by an already-running pooled thread.
        threads_reused: Counter,
        /// Team-member activations on pool workers (the caller/master is not
        /// counted: it is neither spawned nor leased).
        member_activations: Counter,
        /// Barrier waits that resolved inside the spin budget.
        barrier_spins: Counter,
        /// Barrier waits that parked after exhausting the spin budget.
        barrier_parks: Counter,
    }
}

impl TeamStats {
    /// The pool's conservation law: with all regions joined, every member
    /// activation consumed exactly one spawn or one reuse.
    pub fn activations_conserved(&self) -> bool {
        self.threads_spawned + self.threads_reused == self.member_activations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_law_detects_imbalance() {
        let c = TeamCounters::new();
        c.threads_spawned.inc();
        assert!(
            !c.snapshot().activations_conserved(),
            "a spawn with no activation must violate the law"
        );
        c.member_activations.inc();
        assert!(c.snapshot().activations_conserved());
    }
}
