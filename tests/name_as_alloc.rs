//! A `name_as` region allocates only its caller's `Mode`. The tag is a
//! latch found by name without allocating; its instances enter and exit it
//! with atomic adds; a region and its handle come from the recycler; and
//! `wait(tag)` parks on the caller's own parker, enlisted on the tag's
//! waiter list, whose capacity survives between waits. So once warm, the
//! one allocator call left per region is the `Mode::NameAs(String)` clone
//! the caller passes to `target`.
//!
//! This suite installs a counting global allocator, so it is its own test
//! binary with a single test: no other test's allocations can land in the
//! counted window. The pool has one worker so that every region comes back
//! through one worker's recycler cache (see `await_alloc.rs`).

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
const ROUNDS: u64 = 1_000;
const FAN: u64 = 8;

#[test]
fn warm_name_as_region_allocates_only_its_mode() {
    let rt = Runtime::new();
    rt.virtual_target_create_worker("worker", 1);
    let mode = Mode::name_as("fan");
    let round = || {
        for _ in 0..FAN {
            rt.target("worker", mode.clone(), || {});
        }
        rt.wait_tag("fan");
    };
    for _ in 0..WARM {
        round();
    }
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..ROUNDS {
        round();
    }
    COUNTING.store(false, Ordering::SeqCst);
    let per_region = CALLS.load(Ordering::SeqCst) as f64 / (ROUNDS * FAN) as f64;
    assert!(
        per_region < 1.01,
        "{per_region:.3} allocations per warm name_as region (want < 1.01: the Mode clone)"
    );
    assert_eq!(rt.tag_outstanding("fan"), 0);
}
