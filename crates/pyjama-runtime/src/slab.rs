//! Region recycler: a bounded slab of terminal [`TargetRegion`]s.
//!
//! Every post used to allocate a fresh `Arc<TargetRegion>` (and inside it a
//! fresh `Arc<Core>`); every completion dropped them. On the steady-state
//! hot path — the reactor re-arming a region per readiness event, the VM
//! posting a region per directive — that is two allocator round trips per
//! task for memory whose shape never changes. This module keeps terminal
//! regions and reissues them:
//!
//! * **release** (executor side): after a region runs, if it is terminal
//!   (`Finished`/`Cancelled`, body consumed) and no other region `Arc`
//!   clone exists, the `Arc` is parked on the releasing thread's stack.
//!   An outstanding [`TaskHandle`](crate::task::TaskHandle) does
//!   not block the park: the poster's handle routinely outlives the
//!   worker's release by nanoseconds, a resting region is never mutated,
//!   and acquire re-checks the pin before resetting anything.
//!   Poisoned (panicked) regions are **never** recycled: a panic can leave
//!   the panic payload consumed or not, and the cheap guarantee that a
//!   reissued region is indistinguishable from a fresh one is worth more
//!   than one salvaged allocation. They retire through the normal drop
//!   path and are attributed in `AllocStats::poisoned`.
//! * **acquire** (constructor side): [`TargetRegion::with_label_trace`]
//!   takes a parked region, resets it in place (state → `Pending`, fresh
//!   label/trace/body, wakers cleared with capacity kept), and returns it.
//!   The caller always supplies the trace id — minted fresh or an explicit
//!   flow continuation — so a recycled region can never leak its previous
//!   incarnation's identity into the trace.
//!
//! ## Shape: per-thread stacks over a batched shared pool
//!
//! Each thread parks up to [`CACHE_CAP`] regions on a private stack:
//! release pushes, acquire pops, no synchronisation. The stacks trade
//! through one bounded pool (a `Mutex<Vec>` of at most [`POOL_CAP`]
//! regions) in batches of [`BATCH`]: a thread whose stack is empty
//! refills a batch under one lock hold, and a thread whose stack is full
//! flushes its oldest batch. Posting is rarely symmetric — an external
//! poster (the reactor, a load generator) only acquires, pool workers only
//! release — so a one-sided thread pays one lock hold per [`BATCH`]
//! regions, and a burst of a thousand in-flight regions still comes back
//! as reuse. A parked region is an ordinary `Arc` owned by exactly one
//! stack or by the pool; no pointer is published or claimed atomically,
//! so there is no ABA to argue.
//!
//! A stack is handed back when its thread exits (a worker of a dropped
//! pool, an EDT): its destructor flushes every region to the pool, and
//! what does not fit is retired (`unpark` + drop), so the accounting stays
//! exact and no region is stranded in a dead thread.
//!
//! Memory bound: `POOL_CAP + CACHE_CAP × threads` resting regions, one
//! region `Arc` plus one `Core` `Arc` each (about 200 bytes on x86_64) —
//! ≈ 0.8 MiB for a full pool, 13 KiB per thread stack.
//!
//! Accounting lives in [`pyjama_metrics::AllocCounters`]; see
//! [`alloc_stats`] and the `allocated == recycled + live + dropped` law.

use std::cell::RefCell;
use std::sync::Arc;

use pyjama_sync::Mutex;
use pyjama_events::inline::InlineFn;
use pyjama_metrics::{AllocCounters, AllocStats};
use pyjama_trace::TraceId;

use crate::task::TargetRegion;

/// Regions one thread parks privately before flushing a batch.
const CACHE_CAP: usize = 64;
/// Regions the shared pool holds; a flush beyond it retires the rest.
const POOL_CAP: usize = 4096;
/// Regions moved per pool lock hold, in either direction.
const BATCH: usize = 32;

static POOL: Mutex<Vec<Arc<TargetRegion>>> = Mutex::new(Vec::new());

static ALLOC: AllocCounters = AllocCounters::new();

/// One thread's stack of parked regions, top = most recently released.
struct Cache(Vec<Arc<TargetRegion>>);

impl Drop for Cache {
    /// Thread exit: hand every cached region back to the shared pool.
    fn drop(&mut self) {
        let n = self.0.len();
        flush(&mut self.0, n);
    }
}

thread_local! {
    static CACHE: RefCell<Cache> = const { RefCell::new(Cache(Vec::new())) };
}

/// Moves the `n` oldest regions of `stack` to the shared pool under one
/// lock hold. Those that do not fit are retired: recycled → live (unpark),
/// then live → dropped by the region's `Drop`.
fn flush(stack: &mut Vec<Arc<TargetRegion>>, n: usize) {
    let mut pool = POOL.lock();
    let fit = n.min(POOL_CAP - pool.len());
    pool.extend(stack.drain(..fit));
    drop(pool);
    for region in stack.drain(..n - fit) {
        ALLOC.record_unpark();
        drop(region);
    }
}

/// Moves up to [`BATCH`] regions from the shared pool onto `stack`.
fn refill(stack: &mut Vec<Arc<TargetRegion>>) {
    let mut pool = POOL.lock();
    let from = pool.len().saturating_sub(BATCH);
    stack.extend(pool.drain(from..));
}

/// Snapshot of the recycler's conservation-law counters
/// (`allocated == recycled + live + dropped`, exact at quiesce).
pub fn alloc_stats() -> AllocStats {
    ALLOC.snapshot()
}

/// Constructs a fresh region, bypassing the slab (but not the accounting).
pub(crate) fn fresh(label: Arc<str>, trace: TraceId, body: InlineFn) -> Arc<TargetRegion> {
    ALLOC.record_fresh();
    TargetRegion::construct(label, trace, body)
}

/// Acquires a region: recycled when a parked one is available, fresh
/// otherwise. Backs every public `TargetRegion` constructor.
pub(crate) fn acquire(label: Arc<str>, trace: TraceId, body: InlineFn) -> Arc<TargetRegion> {
    // `try_with` fails only while this thread's TLS is being torn down.
    let parked = CACHE
        .try_with(|c| {
            let stack = &mut c.borrow_mut().0;
            if stack.is_empty() {
                refill(stack);
            }
            stack.pop()
        })
        .ok()
        .flatten();
    if let Some(mut region) = parked {
        match Arc::get_mut(&mut region) {
            Some(r) if r.recyclable() => {
                ALLOC.record_reuse();
                r.reset(label, trace, body);
                return region;
            }
            // A long-lived handle (e.g. a name_as tag registration) still
            // pins the core: retire this region through the normal drop
            // path and construct fresh. The slab never reissues a pinned
            // core — only the park was optimistic.
            _ => {
                ALLOC.record_unpark();
                drop(region);
            }
        }
    }
    fresh(label, trace, body)
}

/// Offers a terminal region back to the slab. Call with the executor's
/// (presumed last) `Arc` after `execute`. Regions pinned by another region
/// `Arc` clone and poisoned regions fall through to a plain drop; a full
/// pool retires the overflow (bounded capacity). An outstanding
/// `TaskHandle` does **not** block the park — the poster's handle
/// routinely outlives the release by nanoseconds, and a resting region is
/// never mutated, so the handle keeps observing the terminal state;
/// `acquire` re-checks the pin before any reset.
pub fn release(region: Arc<TargetRegion>) {
    if region.poisoned() {
        ALLOC.poisoned.inc();
        return; // normal drop; attributed above
    }
    if Arc::strong_count(&region) != 1 || !region.slab_eligible() {
        return; // region Arc pinned or not terminal: normal drop
    }
    // If this thread's stack is already gone (TLS teardown), the closure
    // is dropped uncalled and the region with it: a plain live → dropped.
    let _ = CACHE.try_with(move |c| {
        let stack = &mut c.borrow_mut().0;
        if stack.len() == CACHE_CAP {
            flush(stack, BATCH);
        }
        ALLOC.record_recycle();
        stack.push(region);
    });
}

/// Hook for [`TargetRegion`]'s `Drop`: live → dropped.
pub(crate) fn note_region_drop() {
    ALLOC.record_drop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Serialises the tests that flood or drain the shared pool, so they
    /// cannot disturb one another.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Addresses of the regions parked on the calling thread's stack.
    fn cached_here() -> Vec<usize> {
        CACHE.with(|c| {
            c.borrow()
                .0
                .iter()
                .map(|r| Arc::as_ptr(r) as usize)
                .collect()
        })
    }

    /// Retires everything resting in the shared pool.
    fn retire_pool() {
        let all: Vec<_> = POOL.lock().drain(..).collect();
        for region in all {
            ALLOC.record_unpark();
            drop(region);
        }
    }

    /// A run, terminal region ready for `release`. Built unpooled, so
    /// making it never touches the calling thread's stack.
    fn spent(label: &str) -> Arc<TargetRegion> {
        let r = TargetRegion::unpooled(Arc::from(label), TraceId::NONE, || {});
        r.execute();
        r
    }

    /// Executes and releases a region, returning whether the follow-up
    /// acquisition reused it. Serial, so the thread's stack makes it
    /// deterministic.
    fn roundtrip() -> bool {
        let before = alloc_stats();
        release(spent("slab-test"));
        let r2 = TargetRegion::new("slab-test", || {});
        let reused = alloc_stats().since(&before).reused >= 1;
        r2.execute();
        drop(r2);
        reused
    }

    #[test]
    fn release_then_acquire_reuses() {
        assert!(roundtrip(), "serial release→acquire must hit the cache");
    }

    /// The law is exact only at quiesce; unit tests in this binary run
    /// concurrently and hold live regions, so poll until balance.
    fn assert_conserved_eventually() {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let s = alloc_stats();
            if s.conserved() {
                return;
            }
            if Instant::now() > deadline {
                panic!(
                    "allocated {} != recycled {} + live {} + dropped {}",
                    s.allocated, s.recycled, s.live, s.dropped
                );
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn conservation_law_holds_at_quiesce() {
        for _ in 0..10 {
            release(spent("law"));
        }
        assert_conserved_eventually();
    }

    #[test]
    fn panicked_region_is_retired_not_reused() {
        let before = alloc_stats();
        let r = TargetRegion::new("boom", || panic!("x"));
        r.execute();
        assert_eq!(r.handle().state(), TaskState::Panicked);
        let addr = Arc::as_ptr(&r) as usize;
        release(r);
        // Counter deltas are process-wide (sibling tests retire regions
        // too); the stack is this thread's own, so its check is exact.
        let d = alloc_stats().since(&before);
        assert!(d.poisoned >= 1, "panic attributed: {d:?}");
        assert!(d.dropped >= 1, "poisoned region retired: {d:?}");
        assert!(!cached_here().contains(&addr), "poisoned region parked");
        // The next region must be fresh or a reuse of some *other* clean
        // region — never the poisoned one. Its state must be Pending with
        // no payload.
        let r2 = TargetRegion::new("clean", || {});
        assert_eq!(r2.handle().state(), TaskState::Pending);
        r2.execute();
        r2.handle().join(); // no stale panic payload
    }

    #[test]
    fn pinned_region_parks_but_is_never_reissued() {
        let r = spent("pinned");
        let h = r.handle(); // outstanding handle pins the core
        let before = alloc_stats();
        release(r); // parks on top of this thread's stack despite the pin
        assert!(h.is_finished(), "handle still observes the terminal state");

        // Acquire pops the parked region, finds the core still pinned,
        // retires it and falls back to a fresh construction — the pinned
        // core is never reset underneath the live handle.
        let r2 = TargetRegion::new("fresh-fallback", || {});
        assert_eq!(r2.handle().state(), TaskState::Pending);
        let d = alloc_stats().since(&before);
        assert!(d.dropped >= 1, "pinned region retired at acquire: {d:?}");
        assert!(d.allocated >= 1, "fallback constructed fresh: {d:?}");
        assert_eq!(h.state(), TaskState::Finished, "old handle undisturbed");
        r2.execute();
        drop(h);
    }

    #[test]
    fn exhaustion_falls_back_to_plain_drop() {
        let _serial = SERIAL.lock();
        // More than this thread's stack and the whole shared pool can hold,
        // with margin for regions concurrently refilled by sibling tests.
        let regions: Vec<_> = (0..CACHE_CAP + POOL_CAP + 4 * BATCH)
            .map(|_| spent("fill"))
            .collect();
        let before = alloc_stats();
        for r in regions {
            release(r);
        }
        let d = alloc_stats().since(&before);
        assert!(
            d.dropped >= 1,
            "overflow beyond {CACHE_CAP} cached + {POOL_CAP} pooled must retire: {d:?}"
        );
        assert!(
            POOL.lock().len() <= POOL_CAP,
            "the pool never exceeds its bound"
        );
        retire_pool(); // leave room for the other tests
        assert_conserved_eventually();
        // And acquiring still works fine afterwards.
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let r = TargetRegion::new("after", move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        r.execute();
        assert_eq!(n.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn recycled_region_carries_the_new_label_and_trace() {
        let r = TargetRegion::with_label_trace(Arc::from("first"), TraceId::NONE, || {});
        r.execute();
        release(r);
        let r2 = TargetRegion::with_label_trace(Arc::from("second"), TraceId::NONE, || {});
        assert_eq!(r2.handle().label(), "second");
        r2.execute();
    }

    /// Two threads trade through the pool in whole batches: the releasing
    /// one flushes its oldest batch when its stack is full and hands the
    /// rest back at exit; the acquiring one refills a batch in one lock
    /// hold when its stack is empty.
    #[test]
    fn batch_flush_on_full_stack_and_refill_on_empty() {
        let _serial = SERIAL.lock();
        retire_pool();
        std::thread::spawn(|| {
            for _ in 0..CACHE_CAP {
                release(spent("flush"));
            }
            assert_eq!(cached_here().len(), CACHE_CAP);
            let oldest = cached_here()[..BATCH].to_vec();
            release(spent("flush"));
            let kept = cached_here();
            assert_eq!(kept.len(), CACHE_CAP - BATCH + 1, "one batch flushed");
            assert!(
                oldest.iter().all(|p| !kept.contains(p)),
                "the oldest batch left"
            );
            // Exits with a non-empty stack: the destructor hands it back.
        })
        .join()
        .unwrap();
        assert_conserved_eventually();

        // Headroom above the handed-back regions, so a sibling test's
        // refill cannot leave less than a batch for the thread below.
        for _ in 0..4 * BATCH {
            let region = spent("headroom");
            ALLOC.record_recycle();
            POOL.lock().push(region);
        }
        std::thread::spawn(|| {
            assert!(cached_here().is_empty(), "a new thread starts empty");
            let mut regions = vec![TargetRegion::new("refill", || {})];
            assert_eq!(cached_here().len(), BATCH - 1, "one refill moved a batch");
            for left in (0..BATCH - 1).rev() {
                regions.push(TargetRegion::new("refill", || {}));
                assert_eq!(cached_here().len(), left, "served from the stack");
            }
            for r in &regions {
                r.execute();
            }
        })
        .join()
        .unwrap();
        assert_conserved_eventually();
    }
}
