//! Soak tests: the substrates under sustained, mixed load. Each test is
//! sized to finish in a couple of seconds while still exercising the
//! contention paths (queue churn, tag-registry compaction, re-entrant
//! pumping under fire, team reuse).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama::events::{Edt, Priority};
use pyjama::omp::{parallel, parallel_reduce, Schedule};
use pyjama::runtime::{Mode, Runtime};

#[test]
fn event_loop_sustains_mixed_priorities_and_timers() {
    let edt = Edt::spawn("stress-edt");
    let dispatched = Arc::new(AtomicU64::new(0));
    const IMMEDIATE: u64 = 2_000;
    const TIMERS: u64 = 50;

    for i in 0..IMMEDIATE {
        let d = Arc::clone(&dispatched);
        let h = edt.handle();
        let prio = match i % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        h.post_event(
            pyjama::events::Event::new(move || {
                d.fetch_add(1, Ordering::Relaxed);
            })
            .with_priority(prio),
        )
        .unwrap();
    }
    for i in 0..TIMERS {
        let d = Arc::clone(&dispatched);
        edt.invoke_delayed(Duration::from_millis(i % 20), move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
    }
    let t0 = Instant::now();
    while dispatched.load(Ordering::Relaxed) < IMMEDIATE + TIMERS {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "only {}/{} events dispatched",
            dispatched.load(Ordering::Relaxed),
            IMMEDIATE + TIMERS
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = edt.stats();
    assert_eq!(stats.panicked, 0);
    assert!(stats.dispatched >= IMMEDIATE + TIMERS);
}

#[test]
fn runtime_sustains_thousands_of_tagged_blocks() {
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_create_worker("a", 2);
    rt.virtual_target_create_worker("b", 2);
    let count = Arc::new(AtomicU64::new(0));
    const N: u64 = 2_000;

    for i in 0..N {
        let c = Arc::clone(&count);
        let target = if i % 2 == 0 { "a" } else { "b" };
        let tag = if i % 4 < 2 { "even-ish" } else { "odd-ish" };
        rt.target(target, Mode::name_as(tag), move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        // Interleave waits to exercise generation flips under churn.
        if i % 500 == 499 {
            rt.wait_tag("even-ish");
        }
    }
    rt.wait_tag("even-ish");
    rt.wait_tag("odd-ish");
    assert_eq!(count.load(Ordering::Relaxed), N);
    // Every tagged instance left its tag's count: nothing accumulates.
    assert_eq!(rt.tag_outstanding("even-ish"), 0);
    assert_eq!(rt.tag_outstanding("odd-ish"), 0);
}

#[test]
fn repeated_parallel_regions_do_not_leak_state() {
    // 100 fork-joins in a row: construct-registry keys, barrier
    // generations and task queues must all reset cleanly.
    for round in 0..100usize {
        let sum = parallel_reduce(
            3,
            0..200,
            if round % 2 == 0 {
                Schedule::Static { chunk: None }
            } else {
                Schedule::Dynamic { chunk: 7 }
            },
            0u64,
            |acc, i| acc + i as u64,
            |a, b| a + b,
        );
        assert_eq!(sum, (0..200u64).sum());
    }
}

#[test]
fn deep_task_recursion_inside_region() {
    // Tasks spawning tasks spawning tasks — a small fork-join tree.
    let count = AtomicU64::new(0);
    parallel(3, |ctx| {
        ctx.single_nowait(|| {
            fn spawn_tree<'s>(
                ctx: &pyjama::omp::Ctx<'_, 's>,
                count: &'s AtomicU64,
                depth: u32,
            ) {
                count.fetch_add(1, Ordering::Relaxed);
                if depth == 0 {
                    return;
                }
                // Tasks cannot capture ctx (lifetime), so recurse inline and
                // only leaf work goes to tasks.
                for _ in 0..2 {
                    ctx.task(move || {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                    spawn_tree(ctx, count, depth - 1);
                }
            }
            spawn_tree(ctx, &count, 6);
        });
        ctx.taskwait();
    });
    // Inline visits V(d) = 2^(d+1) - 1 = 127; leaf tasks T(d) = 2^(d+1) - 2
    // = 126 (depth-0 calls return before spawning).
    let total = count.load(Ordering::Relaxed);
    assert_eq!(total, 253, "127 inline visits + 126 leaf tasks");
}

#[test]
fn edt_pumping_under_continuous_await_load() {
    // A stream of await-handlers on the EDT, each offloading to one
    // worker, with ticker events interleaved: nothing may deadlock and
    // every handler must complete.
    let edt = Edt::spawn("edt");
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_register_edt("edt", edt.handle()).unwrap();
    rt.virtual_target_create_worker("worker", 2);

    let completed = Arc::new(AtomicU64::new(0));
    let ticks = Arc::new(AtomicU64::new(0));
    const HANDLERS: u64 = 30;

    for _ in 0..HANDLERS {
        let rt2 = Arc::clone(&rt);
        let done = Arc::clone(&completed);
        edt.invoke_later(move || {
            rt2.target("worker", Mode::Await, || {
                std::thread::sleep(Duration::from_millis(2));
            });
            done.fetch_add(1, Ordering::Relaxed);
        });
        let t = Arc::clone(&ticks);
        edt.invoke_later(move || {
            t.fetch_add(1, Ordering::Relaxed);
        });
    }
    let t0 = Instant::now();
    while completed.load(Ordering::Relaxed) < HANDLERS {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "await storm deadlocked at {}/{}",
            completed.load(Ordering::Relaxed),
            HANDLERS
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(ticks.load(Ordering::Relaxed), HANDLERS);
    assert_eq!(edt.stats().panicked, 0);
    // Re-entrant dispatch must actually have happened under this load.
    assert!(edt.stats().reentrant > 0);
}

#[test]
fn worker_churn_create_destroy_many_pools() {
    // Pools created and destroyed in a loop: no thread leaks, no panics
    // (regression guard for the self-join fix).
    for i in 0..40 {
        let rt = Runtime::new();
        let w = rt.virtual_target_create_worker(format!("w{i}"), 2);
        let n = Arc::new(AtomicU64::new(0));
        for _ in 0..20 {
            let n = Arc::clone(&n);
            rt.target(&format!("w{i}"), Mode::name_as("t"), move || {
                n.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_tag("t");
        assert_eq!(n.load(Ordering::Relaxed), 20);
        drop(rt);
        w.shutdown();
    }
}
