//! Bytecode-VM counters for the PJ compiler's register VM.
//!
//! The VM is a workload generator for every other subsystem: its `Dispatch`
//! ops feed target regions into the runtime's virtual targets and fork
//! `parallel` teams on the hot-team pool. These counters make the lowering
//! auditable, with a conservation law tying the compiler's view to the
//! runtime's:
//!
//! > **`target_dispatches == Σ (posted + inline)` over the run's targets**
//!
//! Every `target` directive the VM executes goes through exactly one
//! `Runtime::try_target` call, which the runtime accounts as either a posted
//! region or a member-inline short-circuit. A violation means the VM lowered
//! a directive without dispatching it (or dispatched one twice) — precisely
//! the kind of bug a dual-engine compiler can mask, because output-equality
//! tests still pass when the work ran on the wrong substrate.
//!
//! `ops_executed` and `frames_pushed` are batched in thread-locals by the
//! dispatch loop and flushed once per VM entry, so the per-op cost is a
//! register increment, not an atomic.

crate::counter_set! {
    /// Cumulative VM counters. Increments are relaxed atomic adds (batched
    /// for the per-op counters) so recording does not perturb the dispatch
    /// loop.
    pub struct VmCounters => VmStats {
        /// Bytecode ops executed by dispatch loops (flushed once per VM
        /// entry).
        ops_executed: Counter,
        /// Call frames pushed, one per chunk entry: calls, closures, loop
        /// bodies (flushed once per VM entry).
        frames_pushed: Counter,
        /// `target` directives dispatched through `Runtime::try_target`.
        target_dispatches: Counter,
        /// `parallel` / `parallel for` teams forked.
        team_regions: Counter,
    }
}

impl VmStats {
    /// The VM conservation law: every `target` dispatch the VM recorded must
    /// be accounted by the runtime as posted or inline. `runtime_dispatches`
    /// is `Σ (posted + inline)` over the run's virtual targets (the
    /// compiler surfaces it as `RunOutput::target_posts`). Check after the
    /// run has quiesced.
    pub fn dispatches_balanced(&self, runtime_dispatches: u64) -> bool {
        self.target_dispatches == runtime_dispatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn law_violation_is_detected() {
        let c = VmCounters::new();
        c.target_dispatches.inc();
        assert!(
            !c.snapshot().dispatches_balanced(0),
            "dispatch the runtime never saw"
        );
        assert!(!c.snapshot().dispatches_balanced(2), "double-counted dispatch");
        assert!(c.snapshot().dispatches_balanced(1));
    }
}
