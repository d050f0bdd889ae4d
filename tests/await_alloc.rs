//! An `await` allocates nothing once warm. The barrier parks on the calling
//! thread's own parker and enlists it on the awaited handle's waiter list,
//! whose capacity survives region recycling; a region and its handle come
//! from the recycler. So a warm `Mode::Await` from a plain thread makes no
//! allocator call at all.
//!
//! This suite installs a counting global allocator, so it is its own test
//! binary with a single test: no other test's allocations can land in the
//! counted window. The pool has one worker so that every region comes back
//! through one worker's recycler cache: with two, a shift of load between
//! the workers can leave up to a cache's worth of regions resting in the
//! other worker's private stack, and each recycler miss constructs a fresh
//! region (three allocations) — a recycler effect, not the await's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pyjama::runtime::{Mode, Runtime};

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Counts allocator entries (alloc, alloc_zeroed, realloc) process-wide
/// while counting is on.
struct CountingAlloc;

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed statistic and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARM: u64 = 1_000;
const AWAITS: u64 = 10_000;

#[test]
fn warm_await_from_a_plain_thread_allocates_nothing() {
    let rt = Runtime::new();
    rt.virtual_target_create_worker("worker", 1);
    let await_once = || {
        rt.target("worker", Mode::Await, || {});
    };
    for _ in 0..WARM {
        await_once();
    }
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..AWAITS {
        await_once();
    }
    COUNTING.store(false, Ordering::SeqCst);
    let per_await = CALLS.load(Ordering::SeqCst) as f64 / AWAITS as f64;
    assert!(
        per_await < 0.01,
        "{per_await:.3} allocations per warm await (want < 0.01)"
    );
}
