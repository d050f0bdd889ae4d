//! Regression test for the wake-driven `await` barrier: an event posted to
//! the EDT while it is blocked in `Mode::Await` must be dispatched by a real
//! wakeup, not after a polling quantum (the old implementation parked in
//! 200µs slices, adding up to a full quantum of latency per event).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama::events::Edt;
use pyjama::runtime::{Mode, Runtime};

#[test]
fn event_posted_during_await_is_dispatched_by_wakeup() {
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_create_worker("worker", 1);
    let edt = Edt::spawn("edt");
    let h = edt.handle();

    let park_before = pyjama::runtime::park_stats();

    // Hold the EDT inside an await barrier: the awaited worker block only
    // returns once the gate is released, so every probe event below can
    // only be dispatched by the barrier's re-entrant helping.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let rt2 = Arc::clone(&rt);
    h.post(move || {
        rt2.target("worker", Mode::Await, move || {
            entered_tx.send(()).unwrap();
            let _ = gate_rx.recv();
        });
    })
    .unwrap();
    entered_rx.recv().unwrap();

    // Take the minimum over a batch of probes so one unlucky scheduling
    // hiccup cannot fail the test; what must be impossible is *every* probe
    // waiting out a poll quantum.
    let mut best = Duration::MAX;
    for _ in 0..20 {
        // Give the EDT a moment to finish the previous dispatch and park.
        std::thread::sleep(Duration::from_millis(2));
        let (ack_tx, ack_rx) = mpsc::channel::<Instant>();
        let t0 = Instant::now();
        h.post(move || {
            let _ = ack_tx.send(Instant::now());
        })
        .unwrap();
        let dispatched_at = ack_rx.recv().unwrap();
        best = best.min(dispatched_at.duration_since(t0));
    }
    gate_tx.send(()).unwrap();

    let bound = if cfg!(debug_assertions) {
        Duration::from_millis(40)
    } else {
        Duration::from_micros(100)
    };
    assert!(
        best < bound,
        "best post→dispatch latency {best:?} exceeds {bound:?} — \
         the await barrier looks like it is polling again"
    );

    let park_after = pyjama::runtime::park_stats();
    assert!(
        park_after.parks > park_before.parks,
        "the await barrier must actually park between probes"
    );
    assert!(
        park_after.wakes > park_before.wakes,
        "posted events must wake the parked EDT"
    );
    assert!(
        park_after.notifies > park_before.notifies,
        "wake sources must have fired"
    );
}
