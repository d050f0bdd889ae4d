//! Integration test: the work-stealing worker scheduler, observed through
//! the public API only (`Runtime` + `VirtualTarget::stats`).
//!
//! The per-worker deque / global injector split is an implementation detail;
//! what these tests pin down is the observable contract: same-producer FIFO
//! for external posts, no lost or duplicated executions, and the
//! [`TargetStats`] acquisition counters conserving every execution.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pyjama::runtime::{Mode, Runtime, TargetRegion, TargetStats, VirtualTarget};

fn spin_until(deadline_ms: u64, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for condition");
        std::thread::yield_now();
    }
}

#[test]
fn steal_counters_conserve_every_execution() {
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_create_worker("worker", 4);

    const OUTER: usize = 200;
    let done = Arc::new(AtomicUsize::new(0));
    let inline_done = Arc::new(AtomicUsize::new(0));
    for _ in 0..OUTER {
        let rt2 = Arc::clone(&rt);
        let done = Arc::clone(&done);
        let inline_done = Arc::clone(&inline_done);
        rt.target("worker", Mode::NoWait, move || {
            // A nested target from a member thread takes Algorithm 1's
            // member short-circuit and runs inline, not through the queues.
            let i2 = Arc::clone(&inline_done);
            rt2.target("worker", Mode::NoWait, move || {
                i2.fetch_add(1, Ordering::SeqCst);
            });
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    spin_until(5_000, || {
        done.load(Ordering::SeqCst) == OUTER && inline_done.load(Ordering::SeqCst) == OUTER
    });

    let target = rt.lookup("worker").unwrap();
    spin_until(5_000, || target.pending() == 0);
    let s = target.stats();
    // The nested member posts took the inline short-circuit, so only the
    // external posts flow through the scheduler.
    assert_eq!(s.posted, OUTER as u64, "every external post is counted");
    assert_eq!(s.executed, OUTER as u64);
    assert_eq!(s.rejected, 0);
    // Conservation: each executed region was acquired through exactly one
    // scheduler path — the owner's deque, a steal, or the global injector.
    assert_eq!(
        s.executed,
        s.local_pops + s.steals + s.injector_pops,
        "acquisition counters must account for every execution: {s:?}",
    );
    assert!(
        s.injector_pops > 0,
        "external posts land in the injector: {s:?}",
    );
}

#[test]
fn external_posts_from_one_producer_run_fifo() {
    let rt = Runtime::new();
    rt.virtual_target_create_worker("solo", 1);

    const N: usize = 64;
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..N {
        let order = Arc::clone(&order);
        rt.target("solo", Mode::NoWait, move || {
            order.lock().unwrap().push(i);
        });
    }
    spin_until(5_000, || order.lock().unwrap().len() == N);
    assert_eq!(
        *order.lock().unwrap(),
        (0..N).collect::<Vec<_>>(),
        "a single producer's posts must execute in submission order",
    );
}

#[test]
fn pool_drains_everything_under_concurrent_external_producers() {
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_create_worker("pool", 4);

    const PRODUCERS: usize = 8;
    const PER: usize = 50;
    let done = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|_| {
            let rt = Arc::clone(&rt);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for _ in 0..PER {
                    let d = Arc::clone(&done);
                    rt.target("pool", Mode::NoWait, move || {
                        d.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    spin_until(5_000, || done.load(Ordering::SeqCst) == PRODUCERS * PER);

    let s = rt.lookup("pool").unwrap().stats();
    assert_eq!(s.posted, (PRODUCERS * PER) as u64);
    assert_eq!(s.executed, (PRODUCERS * PER) as u64);
    assert_eq!(s.executed, s.local_pops + s.steals + s.injector_pops);
}

/// The fields a quiesced pool no longer moves. An idle member may still
/// probe its siblings once more before it parks, so `steal_attempts` can
/// grow after the last region completed; every other field is final.
fn settled(s: &TargetStats) -> TargetStats {
    TargetStats {
        steal_attempts: 0,
        ..*s
    }
}

#[test]
fn reset_stats_then_more_work_reads_exact_counts() {
    let rt = Runtime::new();
    let pool = rt.virtual_target_create_worker("pool", 2);
    for _ in 0..100 {
        rt.target("pool", Mode::Wait, || {});
    }
    assert_eq!(pool.stats().executed, 100);

    // Every execution was counted before its waiter was released, so a
    // reset now leaves nothing but late sibling probes.
    pool.reset_stats();
    assert_eq!(settled(&pool.stats()), TargetStats::default());

    for _ in 0..50 {
        rt.target("pool", Mode::Wait, || {});
    }
    let s = pool.stats();
    assert_eq!(s.posted, 50, "{s:?}");
    assert_eq!(s.executed, 50, "{s:?}");
    assert_eq!(s.pops_total(), 50, "{s:?}");
    assert_eq!((s.rejected, s.helped), (0, 0), "{s:?}");

    // A second reset is relative to the first one's totals too.
    pool.reset_stats();
    rt.target("pool", Mode::Wait, || {});
    let s = pool.stats();
    assert_eq!((s.posted, s.executed, s.pops_total()), (1, 1, 1), "{s:?}");
}

/// Spins until `ready`, giving up at `deadline` (then `false`). Region
/// bodies use it so a broken scheduler fails the test instead of hanging.
fn spin_deadline(deadline: Instant, ready: impl Fn() -> bool) -> bool {
    while !ready() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn executed_equals_pops_after_steals_and_rescues() {
    let rt = Runtime::new();
    let pool = rt.virtual_target_create_worker("pool", 2);
    let deadline = Instant::now() + Duration::from_secs(10);
    let stuck = Arc::new(AtomicBool::new(false));

    // Rescues: both members block in a gate, then eight external posts
    // queue up. The first member out of its gate drains all eight in one
    // batch and runs the first, which blocks until the other seven have
    // run; only its sibling can run them, by rescuing them from the
    // drainer's buffer.
    let entered = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    for _ in 0..2 {
        let (entered, release, stuck) = (
            Arc::clone(&entered),
            Arc::clone(&release),
            Arc::clone(&stuck),
        );
        rt.target("pool", Mode::NoWait, move || {
            entered.fetch_add(1, Ordering::SeqCst);
            if !spin_deadline(deadline, || release.load(Ordering::SeqCst)) {
                stuck.store(true, Ordering::SeqCst);
            }
        });
    }
    spin_until(5_000, || entered.load(Ordering::SeqCst) == 2);
    let rescued = Arc::new(AtomicUsize::new(0));
    let blocker = {
        let (rescued, stuck) = (Arc::clone(&rescued), Arc::clone(&stuck));
        rt.target("pool", Mode::NoWait, move || {
            if !spin_deadline(deadline, || rescued.load(Ordering::SeqCst) == 7) {
                stuck.store(true, Ordering::SeqCst);
            }
        })
    };
    for _ in 0..7 {
        let rescued = Arc::clone(&rescued);
        rt.target("pool", Mode::NoWait, move || {
            rescued.fetch_add(1, Ordering::SeqCst);
        });
    }
    release.store(true, Ordering::SeqCst);
    blocker.wait();

    // Steals: a member pushes 256 children onto its own deque and blocks
    // until its sibling has stolen and run a quarter of them.
    const CHILDREN: usize = 256;
    let children_done = Arc::new(AtomicUsize::new(0));
    let root = {
        let (pool, done, stuck) = (
            Arc::clone(&pool),
            Arc::clone(&children_done),
            Arc::clone(&stuck),
        );
        rt.target("pool", Mode::NoWait, move || {
            for _ in 0..CHILDREN {
                let done = Arc::clone(&done);
                pool.post(TargetRegion::new("child", move || {
                    done.fetch_add(1, Ordering::SeqCst);
                }));
            }
            if !spin_deadline(deadline, || done.load(Ordering::SeqCst) >= CHILDREN / 4) {
                stuck.store(true, Ordering::SeqCst);
            }
        })
    };
    root.wait();
    spin_until(5_000, || children_done.load(Ordering::SeqCst) == CHILDREN);
    spin_until(5_000, || pool.pending() == 0);
    assert!(!stuck.load(Ordering::SeqCst), "a blocking region timed out");

    let s = pool.stats();
    let posted = (2 + 8 + 1 + CHILDREN) as u64;
    assert_eq!((s.posted, s.executed), (posted, posted), "{s:?}");
    assert_eq!(s.executed, s.pops_total(), "conservation: {s:?}");
    assert!(s.batches_consistent(), "{s:?}");
    assert!(s.steals > 0, "the sibling stole children: {s:?}");
    assert!(
        s.injector_moved >= 7,
        "the eight posts were drained in one batch: {s:?}"
    );
}
