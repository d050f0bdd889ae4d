//! Cross-crate smoke test of the model checker through the umbrella API:
//! the core protocols explored deterministically, a fixed seed set, and
//! the mutation-teeth guarantee (≥5 reintroduced bugs caught, failing
//! schedules replayable). The full scenario matrix lives in
//! `pyjama-check`'s own test suite; this is the tier-1 wiring check.

use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use pyjama::check::models::config_cell::ModelConfigCell;
use pyjama::check::models::deque::{ModelDeque, ModelSteal};
use pyjama::check::models::parker::ModelWakeSignal;
use pyjama::check::models::pool_join::ModelInjector;
use pyjama::check::models::Mutation;
use pyjama::check::shim;
use pyjama::check::shim::Ordering::SeqCst;
use pyjama::check::Checker;

/// Tier-1 budget: bounded DFS plus a fixed-seed random tail, fast on one
/// CPU. 400+300 is the smallest budget that reliably catches every seeded
/// mutation below (the shutdown drain bug in particular needs the random
/// tail to reach the park→post→shutdown→wake ordering).
fn checker() -> Checker {
    Checker { max_schedules: 400, random_iters: 300, ..Checker::default() }
}

fn deque_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
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

fn parker_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
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

fn shutdown_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let inj = Arc::new(ModelInjector::new(mutation));
        let worker = {
            let inj = Arc::clone(&inj);
            shim::thread::spawn("worker", move || inj.worker_loop())
        };
        // Post from a third thread so the race window (post accepted while
        // the worker is between its empty take and its shutdown-flag read)
        // is actually schedulable against main's shutdown.
        let accepted = Arc::new(StdMutex::new(0usize));
        let poster = {
            let (inj, accepted) = (Arc::clone(&inj), Arc::clone(&accepted));
            shim::thread::spawn("poster", move || {
                if inj.post(1) {
                    *accepted.lock().unwrap() += 1;
                }
            })
        };
        inj.shutdown();
        poster.join();
        worker.join();
        let exec = inj.executed.load(SeqCst);
        assert_eq!(exec, *accepted.lock().unwrap(), "accepted post stranded at shutdown");
    }
}

fn cell_scenario(mutation: Mutation) -> impl Fn() + Send + Sync {
    move || {
        let cell = Arc::new(ModelConfigCell::new(3, mutation));
        let reader = {
            let cell = Arc::clone(&cell);
            shim::thread::spawn("reader", move || {
                for _ in 0..2 {
                    let (generation, payload) = cell.read();
                    assert_eq!(payload, generation + 1, "torn snapshot at gen {generation}");
                }
            })
        };
        cell.publish();
        reader.join();
        assert_eq!(cell.read(), (1, 2));
    }
}

#[test]
fn correct_protocols_pass_deterministic_exploration() {
    let c = checker();
    for (name, f) in [
        ("deque", Box::new(deque_scenario(Mutation::None)) as Box<dyn Fn() + Send + Sync>),
        ("parker", Box::new(parker_scenario(Mutation::None))),
        ("shutdown", Box::new(shutdown_scenario(Mutation::None))),
        ("config-cell", Box::new(cell_scenario(Mutation::None))),
    ] {
        let report = c.check(name, f);
        println!("scenario '{name}': {} schedules explored (dfs_complete={})",
            report.schedules, report.dfs_complete);
        assert!(report.schedules > 1);
    }
}

#[test]
fn at_least_three_mutations_caught_and_replayable() {
    let c = checker();
    let mut caught = 0;

    if let Some(fail) = c.find_failure("deque-steal-skip-cas", deque_scenario(Mutation::DequeStealSkipCas)) {
        caught += 1;
        println!("caught deque mutation after {} schedules: {}", fail.schedules_explored, fail.message);
        let replayed = c
            .replay("deque-steal-skip-cas", &fail.schedule, deque_scenario(Mutation::DequeStealSkipCas))
            .expect("recorded schedule must reproduce the deque failure");
        assert_eq!(replayed.message, fail.message);
    }

    if let Some(fail) = c.find_failure("parker-skip-permit", parker_scenario(Mutation::ParkerNotifySkipPermit)) {
        caught += 1;
        println!("caught parker mutation after {} schedules: {}", fail.schedules_explored, fail.message);
        assert!(fail.message.contains("deadlock"), "lost wakeup must surface as deadlock");
        let replayed = c
            .replay("parker-skip-permit", &fail.schedule, parker_scenario(Mutation::ParkerNotifySkipPermit))
            .expect("recorded schedule must reproduce the parker deadlock");
        assert_eq!(replayed.message, fail.message);
    }

    if let Some(fail) = c.find_failure("shutdown-skip-drain", shutdown_scenario(Mutation::ShutdownSkipFinalDrain)) {
        caught += 1;
        println!("caught shutdown mutation after {} schedules: {}", fail.schedules_explored, fail.message);
        let replayed = c
            .replay("shutdown-skip-drain", &fail.schedule, shutdown_scenario(Mutation::ShutdownSkipFinalDrain))
            .expect("recorded schedule must reproduce the drain failure");
        assert_eq!(replayed.message, fail.message);
    }

    if let Some(fail) = c.find_failure("cell-publish-ptr-first", cell_scenario(Mutation::CellPublishPtrFirst)) {
        caught += 1;
        println!("caught cell mutation after {} schedules: {}", fail.schedules_explored, fail.message);
        let replayed = c
            .replay("cell-publish-ptr-first", &fail.schedule, cell_scenario(Mutation::CellPublishPtrFirst))
            .expect("recorded schedule must reproduce the torn snapshot");
        assert_eq!(replayed.message, fail.message);
    }

    if let Some(fail) = c.find_failure("parker-fast-path-on-clear", parker_scenario(Mutation::ParkerFastPathOnClearPermit)) {
        caught += 1;
        println!("caught parker fast-path mutation after {} schedules: {}", fail.schedules_explored, fail.message);
        assert!(fail.message.contains("deadlock"), "lost wakeup must surface as deadlock");
        let replayed = c
            .replay("parker-fast-path-on-clear", &fail.schedule, parker_scenario(Mutation::ParkerFastPathOnClearPermit))
            .expect("recorded schedule must reproduce the parker deadlock");
        assert_eq!(replayed.message, fail.message);
    }

    assert!(caught >= 5, "only {caught}/5 seeded mutations caught — checker lost its teeth");
}
