//! Acceptance: one HTTP request served by the Pyjama reactor is
//! reconstructible **end to end** from the exported Chrome trace — accept,
//! region post, worker dequeue (with provenance), run, response write —
//! as one connected flow along a single [`TraceId`]; and the scheduler's
//! conservation law holds over the same window. The reactor's readiness
//! hop inside that flow is checked by `tests/reactor.rs`.
//!
//! Everything here goes through public API only: `trace::enable/collect`,
//! `Trace::write_chrome`, and the validator/parser that `trace_check`
//! itself uses — so this test exercises the exact pipeline a user gets
//! from `--trace out.json` + `trace_check out.json`.
//!
//! Single `#[test]`: tracing is process-global state, and the harness runs
//! tests in one binary concurrently.

use std::sync::Arc;

use pyjama::http::{http_post, HttpServer, Request, Response, ServingPolicy, Status};
use pyjama::runtime::{reset_park_stats, Runtime, VirtualTarget};
use pyjama::trace::validate::{parse_trace_events, validate_chrome_trace};
use pyjama::trace::{arg, Stage, TraceId};

fn handler(req: &Request) -> Response {
    // Enough compute that the region-run slice has a real duration.
    let mut acc = 0u64;
    for (i, b) in req.body.iter().enumerate() {
        acc = acc.wrapping_mul(31).wrapping_add(*b as u64 + i as u64);
    }
    Response::ok(acc.to_le_bytes().to_vec())
}

/// Timestamp of the single `stage` event in `chain`, panicking with a
/// readable message if it is absent.
fn ts_of(chain: &[(u32, pyjama::trace::TraceEvent)], stage: Stage) -> u64 {
    chain
        .iter()
        .find(|(_, e)| e.stage == stage)
        .unwrap_or_else(|| panic!("flow is missing {stage:?}: {chain:#?}"))
        .1
        .ts_ns
}

#[test]
fn one_request_is_one_connected_flow_in_the_export() {
    pyjama::trace::set_ring_capacity(1 << 14);
    pyjama::trace::enable();
    pyjama::trace::clear();
    reset_park_stats();

    let rt = Arc::new(Runtime::new());
    let worker = rt.virtual_target_create_worker("worker", 2);
    let before = worker.stats();

    let mut server = HttpServer::start(
        ServingPolicy::Reactor {
            runtime: Arc::clone(&rt),
            target: "worker".into(),
        },
        handler,
    )
    .unwrap();
    server.reset_conn_stats();

    let resp = http_post(server.addr(), "/hash", vec![0xA5; 256]).unwrap();
    assert_eq!(resp.status, Status::Ok);

    // `served` ticks after the response write, so the client can see its
    // response a moment before `ResponseWritten` lands in a ring: spin.
    let t0 = std::time::Instant::now();
    while server.served() < 1 && t0.elapsed() < std::time::Duration::from_secs(5) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(server.served(), 1);
    let conn_stats = server.conn_stats();
    server.shutdown();

    pyjama::trace::disable();
    let trace = pyjama::trace::collect();

    // --- locate the request's flow: the id minted at accept --------------
    assert_eq!(conn_stats.accepted, 1, "one http_post = one connection");
    let accepted: Vec<TraceId> = trace
        .iter_events()
        .filter(|(_, e)| e.stage == Stage::ConnAccepted)
        .map(|(_, e)| e.id)
        .collect();
    assert_eq!(accepted.len(), 1, "exactly one ConnAccepted event");
    let id = accepted[0];
    assert_ne!(id, TraceId::NONE);

    // --- the in-process chain is causally ordered ------------------------
    let chain = trace.events_for(id);
    let t_accept = ts_of(&chain, Stage::ConnAccepted);
    let t_post = ts_of(&chain, Stage::RegionPosted);
    let t_deq = ts_of(&chain, Stage::RegionDequeued);
    let t_run = ts_of(&chain, Stage::RegionRunBegin);
    let t_resp = ts_of(&chain, Stage::ResponseWritten);
    assert!(
        t_accept <= t_post && t_post <= t_deq && t_deq <= t_run && t_run <= t_resp,
        "stages out of causal order: accept={t_accept} post={t_post} \
         dequeue={t_deq} run={t_run} respond={t_resp}"
    );
    let deq = chain
        .iter()
        .find(|(_, e)| e.stage == Stage::RegionDequeued)
        .unwrap();
    assert!(
        matches!(
            deq.1.arg,
            arg::DEQ_LOCAL | arg::DEQ_STEAL | arg::DEQ_INJECTOR | arg::DEQ_HELP
        ),
        "dequeue provenance must be a known source, got {}",
        deq.1.arg
    );

    // --- export, validate, and re-find the same chain in the JSON --------
    let path = std::env::temp_dir().join("pyjama_trace_pipeline_test.json");
    trace.write_chrome(&path).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    let summary = validate_chrome_trace(&json).expect("exported trace must validate");
    assert!(summary.flows >= 1, "the request must export as a flow");
    assert!(
        summary.threads >= 2,
        "reactor and worker are different threads"
    );

    let parsed = parse_trace_events(&json).unwrap();
    let slices: Vec<&str> = parsed
        .iter()
        .filter(|e| e.ph == "X" && e.trace_id == Some(id.raw()))
        .map(|e| e.name.as_str())
        .collect();
    for want in [
        "conn_accepted",
        "region_posted(", // decorated with how it was queued
        "region_dequeued(",
        "region_run",
        "response_written",
    ] {
        assert!(
            slices.iter().any(|n| n.starts_with(want)),
            "exported flow {} lacks a {want} slice; has {slices:?}",
            id.raw()
        );
    }
    // The flow arrows along the id connect first to last event: exactly one
    // start and one finish with this id.
    let starts = parsed
        .iter()
        .filter(|e| e.ph == "s" && e.id == Some(id.raw()))
        .count();
    let finishes = parsed
        .iter()
        .filter(|e| e.ph == "f" && e.id == Some(id.raw()))
        .count();
    assert_eq!((starts, finishes), (1, 1), "one connected flow per request");

    // --- conservation law over the same window ---------------------------
    // The pool is quiescent (request served, server down), so every
    // executed region left through exactly one queue source.
    let delta = worker.stats().since(&before);
    assert!(delta.executed >= 1, "the serve region ran on the pool");
    assert_eq!(
        delta.executed,
        delta.pops_total(),
        "executed == local + steals + injector pops: {delta:?}"
    );

    // Reset paths stay usable mid-process.
    worker.reset_stats();
    let zeroed = worker.stats();
    assert_eq!(zeroed.executed, 0);
    assert_eq!(zeroed.posted, 0);

    std::fs::remove_file(&path).ok();
}
