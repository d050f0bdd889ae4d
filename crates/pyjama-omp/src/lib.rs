//! A classic fork-join OpenMP substrate.
//!
//! The paper's model is *complementary* to traditional OpenMP: virtual
//! targets handle asynchronous offloading while `omp parallel` / `omp for`
//! keep accelerating compute kernels. The evaluation needs both — the
//! "synchronous parallel" baseline runs kernels with the EDT as master
//! thread of a fork-join team, and the "asynchronous parallel" mode nests a
//! parallel region inside an offloaded target block (§V).
//!
//! This crate implements the fork-join subset the paper relies on:
//!
//! * [`parallel`] — a parallel region; the encountering thread becomes the
//!   team's master (thread 0) and **participates**, which is precisely the
//!   property that makes the fork-join model hostile to event-dispatch
//!   threads (§I: "the traditional fork-join model forces the master thread
//!   … to participate in the work-sharing region").
//! * Worksharing loops with `static` / `dynamic` / `guided` schedules
//!   ([`Ctx::for_range`], [`Schedule`]).
//! * Reductions ([`Ctx::for_reduce`], [`parallel_reduce`]).
//! * Synchronisation: [`Ctx::barrier`], [`Ctx::critical`], [`Ctx::single`],
//!   [`Ctx::master`].
//! * Explicit tasks confined to the region ([`Ctx::task`],
//!   [`Ctx::taskwait`]) — "the lifetime of a task is confined inside a
//!   parallel region" (§VI-B).
//!
//! # Persistent hot teams
//!
//! Forking a region does **not** spawn threads. A process-wide pool of
//! parked workers ([`pool`]) is leased per region, and each caller thread
//! keeps its last team composition cached ("hot team", libgomp-style), so
//! back-to-back regions of the same size re-dispatch onto the same parked
//! threads with two atomic handoffs and no lock on the global pool. Fork
//! dispatch, region join, explicit [`Ctx::barrier`] (a sense-reversing
//! [`Barrier`]) and the region-end task drain all wait on
//! [`pyjama_sync::EventCount`], the workspace's one spin-then-park wait,
//! with spin budgets that collapse to zero on single-CPU machines.
//! [`team_stats`] exposes counters (regions forked, threads spawned vs
//! reused, barrier spins vs parks) that satisfy the conservation law
//! `threads_spawned + threads_reused == member_activations`.
//!
//! # SPMD discipline
//!
//! As in OpenMP, every thread of a team must encounter the same worksharing
//! and synchronisation constructs in the same order; construct instances
//! are matched across threads by encounter order.
//!
//! ```
//! use pyjama_omp::{parallel, Schedule};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let sum = AtomicU64::new(0);
//! parallel(4, |ctx| {
//!     ctx.for_range(0..1000usize, Schedule::Static { chunk: None }, |i| {
//!         sum.fetch_add(i as u64, Ordering::Relaxed);
//!     });
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 499_500);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod barrier;
pub mod pool;
pub mod registry;
pub mod schedule;
pub mod sections;
pub mod sync;
pub mod tasks;
pub mod team;

pub use barrier::Barrier;
pub use pyjama_metrics::TeamStats;
pub use schedule::Schedule;
pub use sections::parallel_sections;
pub use team::{parallel, parallel_for, parallel_reduce, Ctx, Team};

/// The crate-wide team/barrier counter block (see [`team_stats`]).
pub(crate) static COUNTERS: pyjama_metrics::TeamCounters = pyjama_metrics::TeamCounters::new();

/// Snapshot of the process-wide fork-join counters.
///
/// Counters are cumulative; diff two snapshots with [`TeamStats::since`] to
/// scope them to a phase. The invariant `threads_spawned + threads_reused
/// == member_activations` holds whenever no region is mid-fork.
pub fn team_stats() -> TeamStats {
    COUNTERS.snapshot()
}

/// Resets the process-wide fork-join counters to zero.
///
/// Prefer diffing [`team_stats`] snapshots in concurrent code — a reset
/// races with regions forked by other threads.
pub fn reset_team_stats() {
    COUNTERS.reset();
}

/// The default team size: the machine's available parallelism.
///
/// Mirrors the `nthreads-var` ICV with its implementation-defined default.
pub fn default_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_num_threads_is_positive() {
        assert!(super::default_num_threads() >= 1);
    }
}
