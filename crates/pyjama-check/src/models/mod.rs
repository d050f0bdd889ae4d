//! Model ports of pyjama's core lock-free protocols — the Chase–Lev deque,
//! the one spin-then-park eventcount and the permit parker built on it, the
//! fork-join slot, the injector shutdown, the config-snapshot cell and the
//! worker-retire drain — written against the [`crate::shim`] layer so the
//! checker can explore their interleavings.
//!
//! Every production park site (omp pool slot, team barrier, task drain,
//! and `pyjama-events/src/parker.rs::WakeSignal`, the one parker per thread
//! that every runtime wait parks on) waits on `pyjama_sync::EventCount`, so
//! all of them rest on one model: [`event_count::ModelEventCount`]. The
//! parker and pool-slot models are built on it rather than on private
//! lock/condvar handshakes of their own.
//!
//! ## Port-sync discipline
//!
//! These are **manual, line-faithful ports**, not cfg-swapped production
//! code: putting the checker inside `pyjama-runtime` would drag it onto the
//! production dependency graph and force shim types through hot paths. The
//! cost is drift risk, paid down two ways:
//!
//! 1. every model function cites the file/function it ports
//!    (`deque.rs::pop`, `event_count.rs::wait`, `pool.rs::signal_done`) and
//!    keeps the same operation order and memory orderings, and
//! 2. the production modules carry a reciprocal comment pointing here, so
//!    a reviewer touching an ordering knows a model must move with it.
//!
//! ## Mutations
//!
//! Each model takes a [`Mutation`] that re-introduces one specific bug —
//! usually a weakened ordering or a dropped protocol step. The scenario
//! suite asserts the checker *catches* every mutation and *passes* the
//! faithful port; that asymmetry is the evidence the checker has teeth
//! (a checker that passes everything is indistinguishable from one that
//! checks nothing).

pub mod config_cell;
pub mod deque;
pub mod event_count;
pub mod parker;
pub mod pool_join;

/// A deliberately re-introduced bug for checker-teeth tests. `None` is the
/// faithful port; every other variant must be caught by the scenario suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Faithful port — must pass every scenario.
    None,
    /// `cell.rs::publish`: swap the snapshot pointer *before* writing the
    /// snapshot's contents. A reader landing in between observes a torn
    /// (generation, contents) pair — exactly what the contents-then-Release
    /// swap order forbids.
    CellPublishPtrFirst,
    /// `deque.rs::pop`: drop the SeqCst fence between the bottom decrement
    /// and the top read, and keep the bottom store buffered (Relaxed). The
    /// classic Chase–Lev store→load hazard: a thief can double-claim the
    /// last item.
    DequePopSkipFence,
    /// `deque.rs::push`: publish the new bottom before writing the item
    /// slot. A thief can steal an uninitialised slot.
    DequePushBottomFirst,
    /// `deque.rs::steal`: take the item without the claiming top CAS. Two
    /// thieves (or thief and owner) both return the same item.
    DequeStealSkipCas,
    /// `deque.rs::steal_half`: when the claiming top CAS loses the race,
    /// keep the already-read item anyway instead of discarding the whole
    /// batch. The winner of the CAS also claims that item — double claim.
    DequeStealHalfKeepOnCasFail,
    /// `event_count.rs::park`: re-check `ready()` under the lock *before*
    /// publishing the sleeper. A notify between the two sees no sleeper and
    /// skips the wake (deadlock).
    EventCountRecheckBeforePublish,
    /// `event_count.rs::notify`: call `notify_all` without passing through
    /// the lock. The wake can fall between the sleeper's failed re-check
    /// and its condvar wait (deadlock).
    EventCountNotifySkipLock,
    /// `pyjama-events/src/parker.rs::notify`: skip setting the permit when
    /// the owner is not registered as an eventcount sleeper. The
    /// notify-between-check-and-park window becomes a lost wakeup
    /// (deadlock).
    ParkerNotifySkipPermit,
    /// `pyjama-events/src/parker.rs::notify`: the pending-permit fast path
    /// returns when the permit is *clear* instead of set. No notify ever
    /// sets the permit, so an owner that parks before the condition turns
    /// true sleeps forever (deadlock).
    ParkerFastPathOnClearPermit,
    /// `pyjama-events/src/parker.rs::notify`: suppress the condvar wake by
    /// a "someone already woke it" flag that `park` never clears, instead
    /// of by the pending permit. The second park cycle never gets its wake
    /// (deadlock).
    ParkerStickyWokenFlag,
    /// `pyjama-runtime/src/parker.rs::await_until_inner` as it was before
    /// PR 6: a timed park that returns by timeout clears
    /// `woke_with_no_work`, so timeout-then-idle cycles never count as
    /// spurious. Caught by the spurious-accounting assertion scenario.
    ParkerTimeoutNotSpurious,
    /// `pyjama-runtime/src/parker.rs::await_until_inner`: after a help pass,
    /// park without re-checking the handle. The helped handler's nested
    /// wait shares the thread's one permit and may have consumed the wake
    /// meant for this wait, so the park sleeps through a completion that
    /// already happened (deadlock).
    ParkerNestedSkipRecheck,
    /// `pool.rs::run_worker`: store `done` *before* the last touch of the
    /// job's shared state. The joiner can observe done and retire the frame
    /// while the worker still writes into it.
    PoolDoneBeforeLastTouch,
    /// `pool.rs::Slot::publish`: skip the eventcount notify. Lost wakeup: a
    /// parked worker sleeps forever on a full slot.
    PoolPublishSkipNotify,
    /// `worker.rs::retire_park`: park on a shrink without draining the own
    /// deque into the injector. The stranded regions are unreachable until
    /// an unrelated grow or shutdown — their waiters deadlock.
    RetireSkipDrain,
    /// `worker.rs::run_loop` shutdown path: return immediately on observing
    /// shutdown instead of performing the final injector drain. Accepted
    /// posts are dropped — `executed + rejected != posted`.
    ShutdownSkipFinalDrain,
}
