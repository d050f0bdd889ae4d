//! The virtual-target abstraction.
//!
//! "Conceptually, a virtual target represents a type of execution
//! environment defining its thread affiliation … and scale" (§III-D). Two
//! concrete kinds exist, matching the paper's experimental Pyjama: worker
//! thread pools ([`crate::WorkerTarget`]) and registered event-dispatch
//! threads ([`crate::EdtTarget`]).

use std::sync::Arc;

use crate::task::TargetRegion;

/// Which kind of execution environment a virtual target is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// A pool of background worker threads (`virtual_target_create_worker`).
    Worker,
    /// A registered event-dispatch thread (`virtual_target_register_edt`).
    Edt,
}

/// A named software executor that target blocks can be offloaded to.
///
/// Implementations must uphold the paper's *thread-context awareness*
/// contract: [`is_member`](VirtualTarget::is_member) reports whether the
/// *calling* thread already belongs to this execution environment, in which
/// case Algorithm 1 runs the block synchronously instead of posting it.
pub trait VirtualTarget: Send + Sync {
    /// The target's registered name (the directive's `name-tag`).
    fn name(&self) -> &str;

    /// The execution-environment kind.
    fn kind(&self) -> TargetKind;

    /// Enqueues a region for asynchronous execution (Algorithm 1, line 8:
    /// `E.post(B)`).
    fn post(&self, region: Arc<TargetRegion>);

    /// True when the calling thread is a member of this target's thread
    /// group (Algorithm 1, line 6: `T ∈ E`).
    fn is_member(&self) -> bool;

    /// If the calling thread is a member, execute one *other* pending item
    /// from this target's queue (the `await` logical barrier's
    /// `processAnotherEventHandler`, line 15). Returns `true` if something
    /// was processed. Non-members must return `false`.
    fn help_one(&self) -> bool;

    /// Number of regions posted and not yet started.
    fn pending(&self) -> usize;

    /// Counters for tests and reports.
    fn stats(&self) -> TargetStats;
}

pyjama_metrics::counter_set! {
    /// Per-target counters: Algorithm 1's accounting (posted, inline,
    /// executed) and, for worker pools, the work-stealing scheduler's.
    ///
    /// A worker pool takes work from three sources: the owner's per-thread
    /// deque (LIFO), sibling deques (steals), and a global FIFO injector for
    /// external submissions. A healthy pool under member-produced load shows
    /// mostly `local_pops`; external load drains through `injector_pops`;
    /// imbalance shows up as `steals`. A high `steal_attempts`-to-`steals`
    /// ratio means threads are scanning empty siblings: the pool is
    /// starved, not unbalanced. Both acquisition paths can take *several*
    /// blocks per synchronisation; the per-block counters still count each
    /// executed block once, and the batch counters count synchronisation
    /// events, so `injector_pops / injector_batches` and
    /// `(steals + steal_moved) / steal_batches` are the realised
    /// amortisation factors. The scheduler fields stay zero for targets
    /// without distributed queues, e.g. EDTs. A worker pool keeps the
    /// fields only its members bump in one set per member thread, written
    /// without a read-modify-write, and sums them into its snapshot.
    pub struct TargetCounters => TargetStats {
        /// Blocks posted asynchronously.
        posted: Counter,
        /// Blocks run synchronously because the encountering thread was
        /// already a member (Algorithm 1 line 7).
        inline: Counter,
        /// Blocks executed by the target's own threads.
        executed: Counter,
        /// Blocks executed by a member thread *helping* during an await
        /// barrier.
        helped: Counter,
        /// Blocks rejected (cancelled without running) because the target
        /// could no longer execute them, e.g. a post racing a pool shutdown.
        rejected: Counter,
        /// Blocks taken from the executing thread's own deque.
        local_pops: Counter,
        /// Blocks stolen from a sibling thread's deque and run directly.
        steals: Counter,
        /// Sibling deques probed while looking for work (hit or miss).
        steal_attempts: Counter,
        /// Blocks taken from the pool's global FIFO injector.
        injector_pops: Counter,
        /// Successful `steal_half` batches (each also counts one `steals`).
        steal_batches: Counter,
        /// Surplus blocks a `steal_half` moved onto the thief's own deque
        /// (they run as `local_pops` later).
        steal_moved: Counter,
        /// Injector drains (each takes 1..=N blocks under one lock hold).
        injector_batches: Counter,
        /// Blocks an injector drain buffered beyond the first (they run as
        /// `injector_pops` when dispatched).
        injector_moved: Counter,
    }
}

impl TargetStats {
    /// The scheduler's conservation law: every executed block left through
    /// exactly one of the three queue sources, so for a quiesced worker pool
    /// `executed == local_pops + steals + injector_pops` must hold.
    /// Batch-moved blocks are not a fourth source: a steal-moved block runs
    /// as a later `local_pop`, an injector-moved block as a later
    /// `injector_pop`.
    pub fn pops_total(&self) -> u64 {
        self.local_pops + self.steals + self.injector_pops
    }

    /// Batch-accounting consistency: every batch contributes exactly one
    /// directly-run block, so the per-block counters must dominate the
    /// batch counters (`steals >= steal_batches`, `local_pops >=
    /// steal_moved`, `injector_pops >= injector_batches` once the moved
    /// blocks have run). Checked at quiesce by the pool's stress tests.
    pub fn batches_consistent(&self) -> bool {
        self.steals >= self.steal_batches
            && self.local_pops >= self.steal_moved
            && self.injector_pops >= self.injector_batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_counters_track_amortisation() {
        let c = TargetCounters::new();
        // A steal_half that claimed 4 blocks: 1 run directly, 3 moved.
        c.steals.inc();
        c.steal_batches.inc();
        c.steal_moved.add(3);
        // The 3 moved blocks later pop locally.
        c.local_pops.add(3);
        // An injector drain of 2: 1 run now, 1 buffered, both injector_pops.
        c.injector_pops.inc();
        c.injector_batches.inc();
        c.injector_moved.inc();
        c.injector_pops.inc();
        let s = c.snapshot();
        assert_eq!(s.steal_batches, 1);
        assert_eq!(s.steal_moved, 3);
        assert_eq!(s.injector_batches, 1);
        assert_eq!(s.injector_moved, 1);
        assert_eq!(s.pops_total(), 1 + 3 + 2);
        assert!(s.batches_consistent());
    }
}
