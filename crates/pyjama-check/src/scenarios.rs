//! The adversarial scenario suite: the ported protocols driven through
//! their known-hairy windows, plus the seeded-mutation tests that
//! prove the checker catches reintroduced bugs.
//!
//! Structure of every mutation test: the *same* scenario closure is run
//! with `Mutation::None` (must pass) elsewhere in this file, and with one
//! mutation (must fail) here — and the failing schedule must reproduce via
//! [`Checker::replay`], which is the acceptance bar for "single-line seed
//! replay on failure".

use std::sync::atomic::{AtomicUsize, Ordering as StdOrd};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use crate::models::config_cell::{ModelConfigCell, ModelRetirePool};
use crate::models::deque::{ModelDeque, ModelSteal};
use crate::models::event_count::{ModelEventCount, ModelWait};
use crate::models::parker::{model_await, ModelWakeSignal};
use crate::models::pool_join::{ModelInjector, ModelPool, ModelSlot, NO_JOB};
use crate::models::Mutation;
use crate::shim;
use crate::shim::Ordering::SeqCst;
use crate::{Checker, FailureReport};

/// Budget used by the bigger scenarios: enough DFS to cover the shallow
/// prefixes, a seeded random pass for the deep tail. Small scenarios use
/// `Checker::default()` and often complete their DFS outright.
fn wide() -> Checker {
    Checker { max_schedules: 400, random_iters: 300, ..Checker::default() }
}

fn assert_caught(name: &str, fail: Option<FailureReport>) -> FailureReport {
    fail.unwrap_or_else(|| panic!("mutation scenario '{name}' was NOT caught — checker has no teeth"))
}

/// Re-runs a caught failure from its recorded schedule and asserts it
/// reproduces — the replay workflow every failure report prints.
fn assert_replays(fail: &FailureReport, f: impl Fn() + Send + Sync + 'static) {
    let again = Checker::default()
        .replay(&fail.name, &fail.schedule, f)
        .unwrap_or_else(|| panic!("schedule {:?} did not reproduce '{}'", fail.schedule, fail.name));
    assert_eq!(again.message, fail.message, "replay found a different failure");
}

// ---------------------------------------------------------------- litmus

/// Store buffering (Dekker): with Relaxed stores both threads can read 0 —
/// the TSO outcome the store buffers exist to model. The checker must find
/// it (this is a *positive* test of the memory model's weakness).
#[test]
fn tso_litmus_store_buffering_relaxed_found() {
    let fail = Checker::default().find_failure("sb-relaxed", || {
        let x = Arc::new(shim::AtomicU64::named("x", 0));
        let y = Arc::new(shim::AtomicU64::named("y", 0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let r2 = Arc::new(StdMutex::new(u64::MAX));
        let r2w = Arc::clone(&r2);
        let t = shim::thread::spawn("t2", move || {
            y2.store(1, shim::Ordering::Relaxed);
            *r2w.lock().unwrap() = x2.load(shim::Ordering::Relaxed);
        });
        x.store(1, shim::Ordering::Relaxed);
        let r1 = y.load(shim::Ordering::Relaxed);
        t.join();
        let r2v = *r2.lock().unwrap();
        assert!(!(r1 == 0 && r2v == 0), "both saw 0: store->load reordering");
    });
    assert!(fail.is_some(), "TSO model failed to exhibit store buffering");
}

/// The same litmus with SeqCst everywhere must be clean in *every*
/// interleaving — and the tree is small enough for a complete DFS.
#[test]
fn tso_litmus_store_buffering_seqcst_clean() {
    let report = Checker::exhaustive(100_000).check("sb-seqcst", || {
        let x = Arc::new(shim::AtomicU64::named("x", 0));
        let y = Arc::new(shim::AtomicU64::named("y", 0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let r2 = Arc::new(StdMutex::new(u64::MAX));
        let r2w = Arc::clone(&r2);
        let t = shim::thread::spawn("t2", move || {
            y2.store(1, SeqCst);
            *r2w.lock().unwrap() = x2.load(SeqCst);
        });
        x.store(1, SeqCst);
        let r1 = y.load(SeqCst);
        t.join();
        let r2v = *r2.lock().unwrap();
        assert!(!(r1 == 0 && r2v == 0), "SeqCst SB must forbid 0/0");
    });
    assert!(report.dfs_complete, "SeqCst litmus should DFS-complete");
    assert!(report.schedules > 1, "expected more than one interleaving");
}

/// A genuinely lost notify must surface as a deadlock, not a hang.
#[test]
fn lost_notify_reported_as_deadlock() {
    let fail = Checker::default().find_failure("lost-notify", || {
        let sig = Arc::new(ModelWakeSignal::new(Mutation::None));
        let t = {
            let sig = Arc::clone(&sig);
            shim::thread::spawn("sleeper", move || sig.park())
        };
        // Nobody ever notifies: the sleeper can never finish.
        t.join();
    });
    let fail = assert_caught("lost-notify", fail);
    assert!(fail.message.contains("deadlock"), "got: {}", fail.message);
}

// ----------------------------------------------------------------- deque

/// Scenario: steal-vs-owner-pop around the last item, all interleavings.
/// Owner pushes, pops to empty; a thief steals concurrently. Every pushed
/// item must be claimed exactly once, by somebody.
fn deque_one_item_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let d = Arc::new(ModelDeque::new(4, mutation));
        let claims = Arc::new(StdMutex::new(Vec::<u64>::new()));
        d.push(7);
        let t = {
            let (d, claims) = (Arc::clone(&d), Arc::clone(&claims));
            shim::thread::spawn("thief", move || {
                for _ in 0..3 {
                    match d.steal() {
                        ModelSteal::Item(v) => {
                            assert_ne!(v, u64::MAX, "stole an uninitialised slot");
                            claims.lock().unwrap().push(v);
                            break;
                        }
                        ModelSteal::Empty => break,
                        ModelSteal::Retry => continue,
                    }
                }
            })
        };
        while let Some(v) = d.pop() {
            claims.lock().unwrap().push(v);
        }
        t.join();
        let got = claims.lock().unwrap().clone();
        assert_eq!(got.iter().filter(|&&v| v == 7).count(), 1, "claims: {got:?}");
    }
}

/// Two items, a second thief: exercises the non-last pop path (no CAS) and
/// thief-vs-thief CAS races alongside the owner.
fn deque_two_items_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let d = Arc::new(ModelDeque::new(4, mutation));
        let claims = Arc::new(StdMutex::new(Vec::<u64>::new()));
        d.push(10);
        d.push(20);
        let spawn_thief = |n: &str| {
            let (d, claims) = (Arc::clone(&d), Arc::clone(&claims));
            shim::thread::spawn(n, move || {
                let mut grabbed = 0;
                for _ in 0..4 {
                    match d.steal() {
                        ModelSteal::Item(v) => {
                            assert_ne!(v, u64::MAX, "stole an uninitialised slot");
                            claims.lock().unwrap().push(v);
                            grabbed += 1;
                            if grabbed == 2 {
                                break;
                            }
                        }
                        ModelSteal::Empty => break,
                        ModelSteal::Retry => continue,
                    }
                }
            })
        };
        let t1 = spawn_thief("thief-1");
        let t2 = spawn_thief("thief-2");
        while let Some(v) = d.pop() {
            claims.lock().unwrap().push(v);
        }
        t1.join();
        t2.join();
        let got = claims.lock().unwrap().clone();
        for item in [10u64, 20] {
            assert_eq!(
                got.iter().filter(|&&v| v == item).count(),
                1,
                "item {item} claim count wrong; claims: {got:?}"
            );
        }
    }
}

/// Push racing a thief from the start (push not yet globally visible).
fn deque_push_vs_steal_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let d = Arc::new(ModelDeque::new(4, mutation));
        let t = {
            let d = Arc::clone(&d);
            shim::thread::spawn("thief", move || {
                for _ in 0..2 {
                    if let ModelSteal::Item(v) = d.steal() {
                        assert_ne!(v, u64::MAX, "stole an uninitialised slot");
                        break;
                    }
                }
            })
        };
        d.push(7);
        while d.pop().is_some() {}
        t.join();
    }
}

/// Batched steal: two thieves `steal_half` from a 3-item victim into
/// private deques of their own while the owner pops. The first claims of
/// the two batches race on the same `top` CAS — the window the
/// keep-on-CAS-fail mutant turns into a double claim. Every item must be
/// claimed exactly once across owner pops, batch firsts and dest drains.
fn deque_steal_half_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let d = Arc::new(ModelDeque::new(8, mutation));
        let claims = Arc::new(StdMutex::new(Vec::<u64>::new()));
        for item in [1u64, 2, 3] {
            d.push(item);
        }
        let spawn_thief = |n: &str| {
            let (d, claims) = (Arc::clone(&d), Arc::clone(&claims));
            shim::thread::spawn(n, move || {
                // Thief-private destination: the thief is its owner.
                let dest = ModelDeque::new(8, Mutation::None);
                for _ in 0..2 {
                    match d.steal_half(&dest) {
                        (ModelSteal::Item(v), _) => {
                            assert_ne!(v, u64::MAX, "stole an uninitialised slot");
                            claims.lock().unwrap().push(v);
                            break;
                        }
                        (ModelSteal::Empty, moved) | (ModelSteal::Retry, moved) => {
                            assert_eq!(moved, 0, "a miss must not move surplus");
                        }
                    }
                }
                while let Some(v) = dest.pop() {
                    assert_ne!(v, u64::MAX, "moved an uninitialised slot");
                    claims.lock().unwrap().push(v);
                }
            })
        };
        let t1 = spawn_thief("thief-1");
        let t2 = spawn_thief("thief-2");
        while let Some(v) = d.pop() {
            claims.lock().unwrap().push(v);
        }
        t1.join();
        t2.join();
        let got = claims.lock().unwrap().clone();
        for item in [1u64, 2, 3] {
            assert_eq!(
                got.iter().filter(|&&v| v == item).count(),
                1,
                "item {item} claim count wrong; claims: {got:?}"
            );
        }
    }
}

#[test]
fn deque_steal_vs_owner_pop_at_empty_ok() {
    wide().check("deque-1item", deque_one_item_scenario(Mutation::None));
}

#[test]
fn deque_two_items_two_thieves_ok() {
    wide().check("deque-2items", deque_two_items_scenario(Mutation::None));
}

#[test]
fn deque_push_vs_steal_ok() {
    wide().check("deque-push-steal", deque_push_vs_steal_scenario(Mutation::None));
}

#[test]
fn mutation_deque_pop_skip_fence_caught() {
    let fail = wide().find_failure(
        "deque-pop-skip-fence",
        deque_two_items_scenario(Mutation::DequePopSkipFence),
    );
    let fail = assert_caught("deque-pop-skip-fence", fail);
    assert_replays(&fail, deque_two_items_scenario(Mutation::DequePopSkipFence));
}

#[test]
fn mutation_deque_push_bottom_first_caught() {
    let fail = wide().find_failure(
        "deque-push-bottom-first",
        deque_push_vs_steal_scenario(Mutation::DequePushBottomFirst),
    );
    let fail = assert_caught("deque-push-bottom-first", fail);
    assert_replays(&fail, deque_push_vs_steal_scenario(Mutation::DequePushBottomFirst));
}

#[test]
fn mutation_deque_steal_skip_cas_caught() {
    let fail = wide().find_failure(
        "deque-steal-skip-cas",
        deque_one_item_scenario(Mutation::DequeStealSkipCas),
    );
    let fail = assert_caught("deque-steal-skip-cas", fail);
    assert_replays(&fail, deque_one_item_scenario(Mutation::DequeStealSkipCas));
}

#[test]
fn deque_steal_half_ok() {
    wide().check("deque-steal-half", deque_steal_half_scenario(Mutation::None));
}

#[test]
fn mutation_deque_steal_half_keep_on_cas_fail_caught() {
    let fail = wide().find_failure(
        "deque-steal-half-keep-on-cas-fail",
        deque_steal_half_scenario(Mutation::DequeStealHalfKeepOnCasFail),
    );
    let fail = assert_caught("deque-steal-half-keep-on-cas-fail", fail);
    assert_replays(
        &fail,
        deque_steal_half_scenario(Mutation::DequeStealHalfKeepOnCasFail),
    );
}

// ----------------------------------------------------------- event count

/// Scenario: notify racing a spin-exhausted wait. The waiter probes the
/// flag twice more before publishing itself as a sleeper; the notifier
/// sets the flag and notifies. Every interleaving must get the waiter out
/// (a lost wake surfaces as deadlock) with the sleeper count back at zero.
fn ec_spin_exhausted_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let ec = Arc::new(ModelEventCount::new(mutation));
        let flag = Arc::new(shim::AtomicBool::named("ready", false));
        let t = {
            let (ec, flag) = (Arc::clone(&ec), Arc::clone(&flag));
            shim::thread::spawn("notifier", move || {
                flag.store(true, SeqCst);
                ec.notify();
            })
        };
        let w = ec.wait(2, false, || flag.load(SeqCst));
        assert_ne!(w, ModelWait::TimedOut, "an untimed wait cannot time out");
        assert!(flag.load(SeqCst), "wait returned before the condition held");
        t.join();
        assert_eq!(ec.sleepers(), 0, "a released waiter stayed registered");
    }
}

/// Scenario: notify racing a deadline. The timed wait may time out at any
/// moment, the notify's wake included; a timed-out wait must report the
/// condition still false at its last check, and the untimed re-wait that
/// follows must still be released by the in-flight notify.
fn ec_deadline_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let ec = Arc::new(ModelEventCount::new(mutation));
        let flag = Arc::new(shim::AtomicBool::named("ready", false));
        let t = {
            let (ec, flag) = (Arc::clone(&ec), Arc::clone(&flag));
            shim::thread::spawn("notifier", move || {
                flag.store(true, SeqCst);
                ec.notify();
            })
        };
        if ec.wait(0, true, || flag.load(SeqCst)) == ModelWait::TimedOut {
            let w = ec.wait(0, false, || flag.load(SeqCst));
            assert_ne!(w, ModelWait::TimedOut);
        }
        assert!(flag.load(SeqCst), "wait returned before the condition held");
        t.join();
        assert_eq!(ec.sleepers(), 0, "a released waiter stayed registered");
    }
}

/// Scenario: two waiters on different conditions share one eventcount (the
/// pool slot's worker and leader, or several barrier members). Each
/// notify wakes every sleeper; each must re-check its own condition.
fn ec_two_conditions_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let ec = Arc::new(ModelEventCount::new(mutation));
        let a = Arc::new(shim::AtomicBool::named("a", false));
        let b = Arc::new(shim::AtomicBool::named("b", false));
        let waiter = {
            let (ec, a) = (Arc::clone(&ec), Arc::clone(&a));
            shim::thread::spawn("waiter-a", move || {
                ec.wait(0, false, || a.load(SeqCst));
            })
        };
        let notifier = {
            let (ec, a, b) = (Arc::clone(&ec), Arc::clone(&a), Arc::clone(&b));
            shim::thread::spawn("notifier", move || {
                b.store(true, SeqCst);
                ec.notify();
                a.store(true, SeqCst);
                ec.notify();
            })
        };
        ec.wait(0, false, || b.load(SeqCst));
        waiter.join();
        notifier.join();
        assert_eq!(ec.sleepers(), 0);
    }
}

#[test]
fn event_count_notify_vs_spin_exhausted_wait_ok() {
    wide().check("ec-spin-exhausted", ec_spin_exhausted_scenario(Mutation::None));
}

#[test]
fn event_count_notify_vs_deadline_ok() {
    wide().check("ec-deadline", ec_deadline_scenario(Mutation::None));
}

#[test]
fn event_count_two_conditions_one_count_ok() {
    wide().check("ec-two-conditions", ec_two_conditions_scenario(Mutation::None));
}

#[test]
fn mutation_event_count_recheck_before_publish_caught() {
    let m = Mutation::EventCountRecheckBeforePublish;
    let fail = wide().find_failure("ec-recheck-first", ec_spin_exhausted_scenario(m));
    let fail = assert_caught("ec-recheck-first", fail);
    assert!(fail.message.contains("deadlock"), "expected lost wakeup, got: {}", fail.message);
    assert_replays(&fail, ec_spin_exhausted_scenario(m));
}

#[test]
fn mutation_event_count_notify_skip_lock_caught() {
    let m = Mutation::EventCountNotifySkipLock;
    let fail = wide().find_failure("ec-skip-lock", ec_spin_exhausted_scenario(m));
    let fail = assert_caught("ec-skip-lock", fail);
    assert!(fail.message.contains("deadlock"), "expected lost wakeup, got: {}", fail.message);
    assert_replays(&fail, ec_spin_exhausted_scenario(m));
    let fail = wide().find_failure("ec-skip-lock-deadline", ec_deadline_scenario(m));
    let fail = assert_caught("ec-skip-lock-deadline", fail);
    assert_replays(&fail, ec_deadline_scenario(m));
}

// ---------------------------------------------------------------- parker

/// Scenario: notify-between-check-and-park. The completer flips `finished`
/// and notifies; the parker checks then parks. The permit must make every
/// interleaving terminate (a lost wakeup surfaces as deadlock).
fn parker_race_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let sig = Arc::new(ModelWakeSignal::new(mutation));
        let finished = Arc::new(shim::AtomicBool::named("finished", false));
        let t = {
            let (sig, finished) = (Arc::clone(&sig), Arc::clone(&finished));
            shim::thread::spawn("completer", move || {
                finished.store(true, SeqCst);
                sig.notify();
            })
        };
        while !finished.load(SeqCst) {
            sig.park();
        }
        t.join();
    }
}

/// Scenario: spurious-wake accounting of the `await_until_inner` loop. A
/// stray notify delivers no work; the deadline eventually fires. The
/// protocol's spurious count must equal ground truth in every schedule.
fn parker_spurious_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let sig = Arc::new(ModelWakeSignal::new(Mutation::None));
        let t = {
            let sig = Arc::clone(&sig);
            shim::thread::spawn("stray-waker", move || sig.notify())
        };
        let out = model_await(&sig, || false, || false, true, mutation);
        t.join();
        assert!(!out.finished);
        assert_eq!(
            out.spurious, out.actual_idle_wakes,
            "spurious accounting diverged from ground truth"
        );
    }
}

/// Scenario: two park cycles, each round notified twice. The second
/// notify of a round finds the permit pending (or lands in the owner's
/// next park) and must skip only a wake that is already in flight — never
/// the wake a later park needs.
fn parker_two_cycle_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let sig = Arc::new(ModelWakeSignal::new(mutation));
        let stage = Arc::new(shim::AtomicU64::named("stage", 0));
        let t = {
            let (sig, stage) = (Arc::clone(&sig), Arc::clone(&stage));
            shim::thread::spawn("notifier", move || {
                for round in 1..=2 {
                    stage.store(round, SeqCst);
                    sig.notify();
                    sig.notify();
                }
            })
        };
        for round in 1..=2 {
            while stage.load(SeqCst) < round {
                sig.park();
            }
        }
        t.join();
    }
}

/// Scenario: two nested waits on one thread share one parker, as an
/// await's helped handler waiting on another handle does. The outer wait
/// (`model_await`) helps once; the helped work is an inner wait
/// (⇔ `task.rs::TaskHandle::wait_deadline`: `while !finished { park }`).
/// Each condition has its own completer, and each notifies once. When the
/// outer completer fires during the inner wait, the inner wait consumes
/// the permit set for the outer one; the outer wait must re-check before
/// it parks.
fn parker_nested_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let sig = Arc::new(ModelWakeSignal::new(Mutation::None));
        let outer = Arc::new(shim::AtomicBool::named("outer.finished", false));
        let inner = Arc::new(shim::AtomicBool::named("inner.finished", false));
        let completers: Vec<_> = [("outer-completer", &outer), ("inner-completer", &inner)]
            .into_iter()
            .map(|(name, flag)| {
                let (sig, flag) = (Arc::clone(&sig), Arc::clone(flag));
                shim::thread::spawn(name, move || {
                    flag.store(true, SeqCst);
                    sig.notify();
                })
            })
            .collect();
        let helped = std::cell::Cell::new(false);
        let out = model_await(
            &sig,
            || outer.load(SeqCst),
            || {
                if helped.replace(true) {
                    return false;
                }
                while !inner.load(SeqCst) {
                    sig.park();
                }
                true
            },
            false,
            mutation,
        );
        assert!(out.finished);
        for t in completers {
            t.join();
        }
    }
}

#[test]
fn parker_nested_waits_share_one_permit_ok() {
    wide().check("parker-nested", parker_nested_scenario(Mutation::None));
}

#[test]
fn mutation_parker_nested_skip_recheck_caught() {
    let fail = wide().find_failure(
        "parker-nested-skip-recheck",
        parker_nested_scenario(Mutation::ParkerNestedSkipRecheck),
    );
    let fail = assert_caught("parker-nested-skip-recheck", fail);
    assert!(fail.message.contains("deadlock"), "expected lost wakeup, got: {}", fail.message);
    assert_replays(&fail, parker_nested_scenario(Mutation::ParkerNestedSkipRecheck));
}

#[test]
fn parker_two_park_cycles_ok() {
    wide().check("parker-two-cycles", parker_two_cycle_scenario(Mutation::None));
}

#[test]
fn mutation_parker_sticky_woken_flag_caught() {
    let fail = wide().find_failure(
        "parker-sticky-woken",
        parker_two_cycle_scenario(Mutation::ParkerStickyWokenFlag),
    );
    let fail = assert_caught("parker-sticky-woken", fail);
    assert!(fail.message.contains("deadlock"), "expected lost wakeup, got: {}", fail.message);
    assert_replays(&fail, parker_two_cycle_scenario(Mutation::ParkerStickyWokenFlag));
}

#[test]
fn parker_notify_between_check_and_park_ok() {
    // Small protocol: the DFS usually completes; either way no failure.
    wide().check("parker-race", parker_race_scenario(Mutation::None));
}

#[test]
fn parker_spurious_accounting_ok() {
    wide().check("parker-spurious", parker_spurious_scenario(Mutation::None));
}

#[test]
fn mutation_parker_notify_skip_permit_caught() {
    let fail = wide().find_failure(
        "parker-skip-permit",
        parker_race_scenario(Mutation::ParkerNotifySkipPermit),
    );
    let fail = assert_caught("parker-skip-permit", fail);
    assert!(fail.message.contains("deadlock"), "expected lost wakeup, got: {}", fail.message);
    assert_replays(&fail, parker_race_scenario(Mutation::ParkerNotifySkipPermit));
}

/// The pre-PR-6 `await_until_inner` bug, reproduced as a mutation: timeout
/// wakes cleared `woke_with_no_work`, under-counting spurious wakes.
#[test]
fn mutation_parker_timeout_not_spurious_caught() {
    let fail = wide().find_failure(
        "parker-timeout-not-spurious",
        parker_spurious_scenario(Mutation::ParkerTimeoutNotSpurious),
    );
    let fail = assert_caught("parker-timeout-not-spurious", fail);
    assert_replays(&fail, parker_spurious_scenario(Mutation::ParkerTimeoutNotSpurious));
}

// ------------------------------------------------------------- pool join

/// Scenario: leader publishes, waits done, then immediately retires the
/// frame (overwrites it). The worker's result write is its last touch of
/// the frame; `done` must order after it in every interleaving.
fn pool_join_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let slot = Arc::new(ModelSlot::new(mutation));
        let t = {
            let slot = Arc::clone(&slot);
            shim::thread::spawn("worker", move || {
                slot.worker_run();
            })
        };
        slot.publish(21);
        slot.wait_done();
        // The join is the leader's licence to reclaim the frame: the
        // worker's result must already be there...
        let v = slot.frame.load(SeqCst);
        assert_eq!(v, 42, "leader popped the frame before the worker's last touch");
        // ...and retiring it must not race a late worker write.
        slot.frame.store(NO_JOB, SeqCst);
        t.join();
        assert_eq!(slot.frame.load(SeqCst), NO_JOB, "late write into a retired frame");
    }
}

/// Back-to-back regions on one slot: exercises the done re-arm.
fn pool_two_jobs_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let slot = Arc::new(ModelSlot::new(mutation));
        let t = {
            let slot = Arc::clone(&slot);
            shim::thread::spawn("worker", move || {
                slot.worker_run();
                slot.worker_run();
            })
        };
        for job in [3u64, 4] {
            slot.publish(job);
            slot.wait_done();
            assert_eq!(slot.frame.load(SeqCst), job * 2, "stale frame after join");
        }
        t.join();
    }
}

/// Scenario: nested/concurrent leases must never alias a worker. Models
/// `with_workers`' hot-team take-out: the nested region leases fresh
/// because the outer one holds the cache contents.
fn pool_lease_scenario() -> impl Fn() + Send + Sync {
    move || {
        let pool = Arc::new(ModelPool::new());
        // Seed the idle pool the way a finished region's release would.
        pool.release(vec![100, 101]);
        let active = Arc::new(StdMutex::new(Vec::<u64>::new()));
        let claim = |active: &StdMutex<Vec<u64>>, team: &[u64]| {
            let mut a = active.lock().unwrap();
            for w in team {
                assert!(!a.contains(w), "worker {w} leased twice concurrently");
                a.push(*w);
            }
        };
        let unclaim = |active: &StdMutex<Vec<u64>>, team: &[u64]| {
            active.lock().unwrap().retain(|w| !team.contains(w));
        };
        let t = {
            let (pool, active) = (Arc::clone(&pool), Arc::clone(&active));
            shim::thread::spawn("peer-region", move || {
                let team = pool.lease(1);
                claim(&active, &team);
                shim::yield_now();
                unclaim(&active, &team);
                pool.release(team);
            })
        };
        // Outer region takes its team (hot cache modelled as taken out)...
        let outer = pool.lease(1);
        claim(&active, &outer);
        // ...and a nested region on the same thread leases afresh — the
        // cache is empty while the outer lease is live.
        let inner = pool.lease(1);
        claim(&active, &inner);
        assert!(
            inner.iter().all(|w| !outer.contains(w)),
            "nested region aliased the outer team: {outer:?} vs {inner:?}"
        );
        unclaim(&active, &inner);
        pool.release(inner);
        unclaim(&active, &outer);
        pool.release(outer);
        t.join();
    }
}

#[test]
fn pool_leader_join_vs_last_touch_ok() {
    wide().check("pool-join", pool_join_scenario(Mutation::None));
}

#[test]
fn pool_two_jobs_rearm_ok() {
    wide().check("pool-2jobs", pool_two_jobs_scenario(Mutation::None));
}

#[test]
fn pool_nested_lease_no_aliasing_ok() {
    wide().check("pool-nested-lease", pool_lease_scenario());
}

#[test]
fn mutation_pool_done_before_last_touch_caught() {
    let fail = wide().find_failure(
        "pool-done-early",
        pool_join_scenario(Mutation::PoolDoneBeforeLastTouch),
    );
    let fail = assert_caught("pool-done-early", fail);
    assert_replays(&fail, pool_join_scenario(Mutation::PoolDoneBeforeLastTouch));
}

#[test]
fn mutation_pool_publish_skip_notify_caught() {
    let fail = wide().find_failure(
        "pool-skip-notify",
        pool_join_scenario(Mutation::PoolPublishSkipNotify),
    );
    let fail = assert_caught("pool-skip-notify", fail);
    assert!(fail.message.contains("deadlock"), "expected lost wakeup, got: {}", fail.message);
    assert_replays(&fail, pool_join_scenario(Mutation::PoolPublishSkipNotify));
}

// ----------------------------------------------------- injector shutdown

/// Scenario: shutdown-vs-post. A post accepted under the injector lock
/// happens-before the SeqCst shutdown read that gates the worker's final
/// drain, so `executed == accepted` must hold in every interleaving.
fn shutdown_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let inj = Arc::new(ModelInjector::new(mutation));
        let accepted = Arc::new(AtomicUsize::new(0));
        let worker = {
            let inj = Arc::clone(&inj);
            shim::thread::spawn("worker", move || inj.worker_loop())
        };
        let poster = {
            let (inj, accepted) = (Arc::clone(&inj), Arc::clone(&accepted));
            shim::thread::spawn("poster", move || {
                for job in [1u64, 2] {
                    if inj.post(job) {
                        accepted.fetch_add(1, StdOrd::SeqCst);
                    }
                }
            })
        };
        inj.shutdown();
        worker.join();
        poster.join();
        let acc = accepted.load(StdOrd::SeqCst);
        let exec = inj.executed.load(SeqCst);
        let rej = inj.rejected.load(SeqCst);
        assert_eq!(exec, acc, "accepted posts stranded at shutdown");
        assert_eq!(exec + rej, 2, "conservation law: executed + rejected == posted");
    }
}

#[test]
fn shutdown_vs_post_final_drain_ok() {
    wide().check("shutdown-drain", shutdown_scenario(Mutation::None));
}

// ------------------------------------------------------------ config cell

/// Scenario: a reader races two publishers through the snapshot cell. In
/// every interleaving a read must return a consistent (generation,
/// contents) pair — `payload == generation + 1` is the encoded contract —
/// and generations must be monotone per reader.
fn cell_torn_pair_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let cell = Arc::new(ModelConfigCell::new(4, mutation));
        let reader = {
            let cell = Arc::clone(&cell);
            shim::thread::spawn("reader", move || {
                let mut last_gen = 0;
                for _ in 0..3 {
                    let (generation, payload) = cell.read();
                    assert_eq!(
                        payload,
                        generation + 1,
                        "torn snapshot: generation {generation} with payload {payload}"
                    );
                    assert!(generation >= last_gen, "generation went backwards");
                    last_gen = generation;
                }
            })
        };
        let publisher = {
            let cell = Arc::clone(&cell);
            shim::thread::spawn("publisher-2", move || {
                cell.publish();
            })
        };
        cell.publish();
        reader.join();
        publisher.join();
        // Publishers serialize on the retire lock: exactly two generations.
        let (generation, payload) = cell.read();
        assert_eq!(generation, 2, "publisher serialization lost a generation");
        assert_eq!(payload, 3);
    }
}

#[test]
fn cell_publish_read_never_torn_ok() {
    wide().check("cell-torn-pair", cell_torn_pair_scenario(Mutation::None));
}

#[test]
fn mutation_cell_publish_ptr_first_caught() {
    let fail = wide().find_failure(
        "cell-ptr-first",
        cell_torn_pair_scenario(Mutation::CellPublishPtrFirst),
    );
    let fail = assert_caught("cell-ptr-first", fail);
    assert_replays(&fail, cell_torn_pair_scenario(Mutation::CellPublishPtrFirst));
}

// ---------------------------------------------------- worker retire drain

/// Scenario: a live shrink races a member that just posted regions onto
/// its own deque. The retiring worker must hand its deque to the injector
/// and cascade a wake, so both regions execute *before* any grow or
/// shutdown — a skipped drain strands them and every thread ends up
/// parked (deadlock).
fn retire_drain_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let pool = Arc::new(ModelRetirePool::new(2, 2, mutation));
        let w0 = {
            let pool = Arc::clone(&pool);
            shim::thread::spawn("worker-0", move || pool.run_loop(0))
        };
        let w1 = {
            let pool = Arc::clone(&pool);
            shim::thread::spawn("worker-1", move || {
                pool.push_local(1, 10);
                pool.push_local(1, 20);
                pool.run_loop(1)
            })
        };
        pool.resize(1);
        // Both regions must complete on the surviving worker (or on the
        // retiree itself, if it won the race to run them before retiring).
        pool.wait_done();
        pool.shutdown();
        w0.join();
        w1.join();
        assert_eq!(pool.executed.load(SeqCst), 2, "region lost across live shrink");
    }
}

/// Shrink-then-grow: the retired slot must revive on resize-grow and the
/// pool must still drain an injector post afterwards.
fn retire_regrow_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let pool = Arc::new(ModelRetirePool::new(2, 1, mutation));
        let w0 = {
            let pool = Arc::clone(&pool);
            shim::thread::spawn("worker-0", move || pool.run_loop(0))
        };
        let w1 = {
            let pool = Arc::clone(&pool);
            shim::thread::spawn("worker-1", move || {
                pool.push_local(1, 30);
                pool.run_loop(1)
            })
        };
        pool.resize(1);
        pool.resize(2);
        pool.wait_done();
        pool.shutdown();
        w0.join();
        w1.join();
        assert_eq!(pool.executed.load(SeqCst), 1);
    }
}

#[test]
fn retire_drain_no_lost_regions_ok() {
    wide().check("retire-drain", retire_drain_scenario(Mutation::None));
}

#[test]
fn retire_shrink_grow_revives_ok() {
    wide().check("retire-regrow", retire_regrow_scenario(Mutation::None));
}

#[test]
fn mutation_retire_skip_drain_caught() {
    let fail = wide().find_failure(
        "retire-skip-drain",
        retire_drain_scenario(Mutation::RetireSkipDrain),
    );
    let fail = assert_caught("retire-skip-drain", fail);
    assert!(fail.message.contains("deadlock"), "expected stranded regions, got: {}", fail.message);
    assert_replays(&fail, retire_drain_scenario(Mutation::RetireSkipDrain));
}

#[test]
fn mutation_shutdown_skip_final_drain_caught() {
    let fail = wide().find_failure(
        "shutdown-skip-drain",
        shutdown_scenario(Mutation::ShutdownSkipFinalDrain),
    );
    let fail = assert_caught("shutdown-skip-drain", fail);
    assert_replays(&fail, shutdown_scenario(Mutation::ShutdownSkipFinalDrain));
}
