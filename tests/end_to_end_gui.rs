//! Integration: the full GUI stack (gui + events + runtime + kernels +
//! baselines), exercising the responsiveness claims of §V-A.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama::baselines::{SwingWorker, SwingWorkerPool};
use pyjama::gui::{ConfinementPolicy, Gui};
use pyjama::kernels::{KernelKind, Workload};
use pyjama::runtime::{Mode, Runtime};

/// Full Figure 6 pipeline on real widgets, worker and EDT, with the
/// confinement checker in Enforce mode — any GUI access off the EDT would
/// panic the test.
#[test]
fn figure6_pipeline_respects_thread_confinement() {
    let gui = Gui::launch(ConfinementPolicy::Enforce);
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_register_edt("edt", gui.edt_handle()).unwrap();
    rt.virtual_target_create_worker("worker", 2);

    let panel = gui.panel("panel");
    let button = gui.button("go");
    {
        let rt = Arc::clone(&rt);
        let panel = Arc::clone(&panel);
        button.on_click(move || {
            panel.show_msg("Started EDT handling");
            let rt2 = Arc::clone(&rt);
            let panel2 = Arc::clone(&panel);
            rt.target("worker", Mode::NoWait, move || {
                let checksum = Workload::tiny(KernelKind::Crypt).run(None);
                let panel3 = Arc::clone(&panel2);
                rt2.target("edt", Mode::Wait, move || {
                    panel3.show_msg(format!("Finished! checksum={checksum:x}"));
                });
            });
        });
    }
    gui.click(&button);
    let t0 = Instant::now();
    while panel.messages().len() < 2 {
        assert!(t0.elapsed() < Duration::from_secs(30), "pipeline stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    let msgs = panel.messages();
    assert_eq!(msgs[0], "Started EDT handling");
    assert!(msgs[1].starts_with("Finished!"));
    assert_eq!(gui.confinement().violation_count(), 0);
    gui.shutdown();
}

/// Offloading with `nowait` leaves the EDT free: a burst of clicks is all
/// acknowledged (first GUI update) long before the kernels finish.
#[test]
fn nowait_offload_keeps_edt_responsive_under_burst() {
    let gui = Gui::launch(ConfinementPolicy::Enforce);
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_register_edt("edt", gui.edt_handle()).unwrap();
    rt.virtual_target_create_worker("worker", 2);

    let acknowledged = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let button = gui.button("go");
    {
        let rt = Arc::clone(&rt);
        let ack = Arc::clone(&acknowledged);
        let done = Arc::clone(&completed);
        button.on_click(move || {
            ack.fetch_add(1, Ordering::SeqCst); // immediate GUI feedback
            let done = Arc::clone(&done);
            rt.target("worker", Mode::NoWait, move || {
                Workload::tiny(KernelKind::Series).run(None);
                done.fetch_add(1, Ordering::SeqCst);
            });
        });
    }

    const BURST: u64 = 12;
    for _ in 0..BURST {
        gui.click(&button);
    }
    // All acknowledgements arrive quickly (EDT never blocked on a kernel)…
    let t0 = Instant::now();
    while acknowledged.load(Ordering::SeqCst) < BURST {
        assert!(t0.elapsed() < Duration::from_secs(5), "EDT blocked");
        std::thread::sleep(Duration::from_millis(1));
    }
    // …even though the kernels may still be running.
    let t0 = Instant::now();
    while completed.load(Ordering::SeqCst) < BURST {
        assert!(t0.elapsed() < Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(2));
    }
    gui.shutdown();
}

/// SwingWorker baseline and Pyjama produce identical kernel results — the
/// offloading strategy must not change computation outcomes.
#[test]
fn baselines_and_pyjama_agree_on_kernel_results() {
    let gui = Gui::launch(ConfinementPolicy::Enforce);
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_register_edt("edt", gui.edt_handle()).unwrap();
    rt.virtual_target_create_worker("worker", 2);
    let pool = SwingWorkerPool::new(2);

    let workload = Workload::tiny(KernelKind::RayTracer);
    let expected = workload.run(None);

    // Via SwingWorker:
    let sw_result = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&sw_result);
    SwingWorker::<u64, ()>::new(gui.edt_handle())
        .done(move |v| {
            r2.store(v, Ordering::SeqCst);
        })
        .execute(&pool, move |_| workload.run(None));

    // Via Pyjama submit:
    let fut = rt.submit("worker", move || workload.run(None)).unwrap();
    assert_eq!(fut.join(), expected);

    let t0 = Instant::now();
    while sw_result.load(Ordering::SeqCst) == 0 {
        assert!(t0.elapsed() < Duration::from_secs(30));
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(sw_result.load(Ordering::SeqCst), expected);
    gui.shutdown();
}

/// The occupancy instrumentation separates foreground from background
/// handling: sequential handlers keep the EDT busy, offloaded ones do not.
#[test]
fn occupancy_distinguishes_foreground_from_background() {
    let run = |offload: bool| -> f64 {
        let gui = Gui::launch(ConfinementPolicy::Enforce);
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_register_edt("edt", gui.edt_handle()).unwrap();
        rt.virtual_target_create_worker("worker", 2);
        gui.occupancy().start_window();

        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..5 {
            let rt2 = Arc::clone(&rt);
            let done2 = Arc::clone(&done);
            gui.invoke_later(move || {
                if offload {
                    let d = Arc::clone(&done2);
                    rt2.target("worker", Mode::NoWait, move || {
                        std::thread::sleep(Duration::from_millis(10));
                        d.fetch_add(1, Ordering::SeqCst);
                    });
                } else {
                    std::thread::sleep(Duration::from_millis(10));
                    done2.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let t0 = Instant::now();
        while done.load(Ordering::SeqCst) < 5 {
            assert!(t0.elapsed() < Duration::from_secs(30));
            std::thread::sleep(Duration::from_millis(1));
        }
        let f = gui.occupancy().busy_fraction();
        gui.shutdown();
        f
    };
    let fg = run(false);
    let bg = run(true);
    assert!(
        bg < fg,
        "offloaded busy fraction {bg:.3} must be below sequential {fg:.3}"
    );
}

/// Spins until `flag` is set; panics after 10 s so a stuck run fails.
fn wait_for(flag: &AtomicBool, what: &str) {
    let t0 = Instant::now();
    while !flag.load(Ordering::SeqCst) {
        assert!(t0.elapsed() < Duration::from_secs(10), "{what} never happened");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// An EDT handler awaits a worker block that waits on a round trip back
/// to the EDT (the Figure 6 pattern, with `await` instead of `nowait`), and
/// another thread quits the EDT while that round trip is queued. The
/// handler's await still dispatches it, so the handler, the block and
/// `shutdown` all finish.
#[test]
fn quit_while_an_awaited_round_trip_is_queued_still_finishes() {
    let gui = Gui::launch(ConfinementPolicy::Enforce);
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_register_edt("edt", gui.edt_handle()).unwrap();
    rt.virtual_target_create_worker("worker", 1);
    let edt = gui.edt_handle();

    let blocker_running = Arc::new(AtomicBool::new(false));
    let release_blocker = Arc::new(AtomicBool::new(false));
    let round_trip_ran = Arc::new(AtomicBool::new(false));
    let (handler_done, handler_done_rx) = std::sync::mpsc::channel();
    {
        let rt = Arc::clone(&rt);
        let edt2 = edt.clone();
        let (running, release) = (Arc::clone(&blocker_running), Arc::clone(&release_blocker));
        let ran = Arc::clone(&round_trip_ran);
        edt.post(move || {
            let rt2 = Arc::clone(&rt);
            rt.target("worker", Mode::Await, move || {
                // Keep the EDT busy inside the handler's await until the
                // round trip below is queued and the loop has quit.
                let r = Arc::clone(&running);
                edt2.post(move || {
                    r.store(true, Ordering::SeqCst);
                    wait_for(&release, "release of the blocker");
                })
                .unwrap();
                wait_for(&running, "the blocker");
                rt2.target("edt", Mode::Wait, move || ran.store(true, Ordering::SeqCst));
            });
            handler_done.send(()).unwrap();
        })
        .unwrap();
    }
    wait_for(&blocker_running, "the blocker");
    let t0 = Instant::now();
    while edt.pending() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "round trip never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    edt.quit();
    release_blocker.store(true, Ordering::SeqCst);

    let (shut, shut_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        gui.shutdown();
        shut.send(()).unwrap();
    });
    handler_done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the awaiting handler never finished");
    assert!(round_trip_ran.load(Ordering::SeqCst));
    shut_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown never joined the EDT");
}
