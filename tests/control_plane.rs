//! Integration: the live control plane end to end — atomic reconfiguration
//! of a serving stack under load, admission-control shed/recover, and
//! whole-snapshot rejection leaving the old generation serving.

use std::sync::Arc;
use std::time::Duration;

use pyjama::control::{ConfigError, ControlPlane};
use pyjama::http::{
    http_get, http_post, HttpServer, LoadGenerator, Request, Response, ServerOptions,
    ServingPolicy, Status,
};
use pyjama::runtime::{Runtime, WorkerTarget};

/// A controlled Reactor-policy server over a worker target of `m` threads,
/// with the plane driving both the pool size and the admission gate.
fn start_controlled(
    m: usize,
    handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
) -> (HttpServer, ControlPlane, Arc<WorkerTarget>) {
    let rt = Arc::new(Runtime::new());
    let target = rt.virtual_target_create_worker("worker", m);
    let plane = ControlPlane::new();
    plane.attach_worker_target(&target);
    let server = HttpServer::start_controlled(
        ServingPolicy::Reactor {
            runtime: rt,
            target: "worker".into(),
        },
        ServerOptions::default(),
        &plane,
        handler,
    )
    .unwrap();
    (server, plane, target)
}

/// Shrink 8 → 2 → 8 while a closed-loop wave is in flight: zero request
/// failures, every resize applied as its own generation, and the admission
/// conservation law holds throughout.
#[test]
fn live_resize_mid_wave_loses_no_requests() {
    let (mut server, plane, target) = start_controlled(8, |req| {
        // A touch of latency so the wave is still in flight when the
        // resizes land mid-stream.
        std::thread::sleep(Duration::from_micros(300));
        Response::ok(req.body.clone())
    });
    let mut cfg = plane.config();
    cfg.workers = 8;
    plane.apply(cfg).expect("align config with the 8-thread pool");

    let addr = server.addr();
    let wave =
        std::thread::spawn(move || LoadGenerator::new(8, 40, "/echo", vec![7u8; 64]).run(addr));
    // Let the wave ramp, then shrink into it and grow back out of it.
    std::thread::sleep(Duration::from_millis(30));
    cfg.workers = 2;
    plane.apply(cfg).expect("live shrink");
    std::thread::sleep(Duration::from_millis(30));
    cfg.workers = 8;
    plane.apply(cfg).expect("live grow");

    let report = wave.join().unwrap();
    assert_eq!(report.failed, 0, "a live resize must not fail requests");
    assert_eq!(report.shed, 0, "admission control is disabled here");
    assert_eq!(report.completed, 8 * 40);

    let stats = plane.stats();
    assert_eq!(stats.applied, 3, "align + shrink + grow");
    assert_eq!(stats.rejected, 0);
    assert_eq!(plane.generation(), 3);
    assert_eq!(target.num_threads(), 8, "pool follows the final generation");

    let adm = server.admission_stats();
    assert!(
        adm.balanced(),
        "offered {} != admitted {} + shed {}",
        adm.offered,
        adm.admitted,
        adm.shed
    );
    assert_eq!(adm.shed, 0);
    server.shutdown();
}

/// Shed/recover cycle. Phase 1: a single slow worker with a tight admission
/// threshold under a 6-user closed-loop wave — the backlogged dequeues must
/// shed with the configured `Retry-After`, and shed + completed must
/// account for every request. Phase 2: raise the threshold away (0 =
/// disabled) and the same load completes with zero sheds.
#[test]
fn admission_sheds_under_overload_and_recovers_on_reconfig() {
    let (mut server, plane, _target) = start_controlled(1, |_req| {
        std::thread::sleep(Duration::from_millis(2));
        Response::ok(b"ok".to_vec())
    });
    let mut cfg = plane.config();
    cfg.workers = 1;
    cfg.admission_threshold = 1;
    cfg.retry_after_secs = 7;
    plane.apply(cfg).expect("enable admission control");

    let users = 6u64;
    let per_user = 30u64;
    let overload = LoadGenerator::new(users as usize, per_user as usize, "/work", vec![1u8; 8])
        .with_shed_backoff(Duration::from_millis(2));
    let addr = server.addr();
    let wave = {
        let overload = overload.clone();
        std::thread::spawn(move || overload.run(addr))
    };
    // While the wave keeps the queue deep, a bystander request should get
    // shed eventually — and the 429 must advertise the configured value.
    let mut saw_429 = None;
    for _ in 0..200 {
        let resp = http_get(addr, "/probe").unwrap();
        if resp.status.code() == 429 {
            saw_429 = Some(resp);
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = wave.join().unwrap();
    assert_eq!(report.failed, 0, "sheds are not failures");
    assert!(report.shed > 0, "overload past the threshold must shed");
    assert_eq!(
        report.completed + report.shed,
        users * per_user,
        "every request is either admitted or shed"
    );
    let shed_resp = saw_429.expect("a probe during sustained overload must observe a 429");
    assert_eq!(
        shed_resp.retry_after(),
        Some(7),
        "shed response must advertise the configured Retry-After"
    );

    // Recover: disable admission control; the identical wave now completes
    // in full with no sheds.
    cfg.admission_threshold = 0;
    plane.apply(cfg).expect("disable admission control");
    let recovered = overload.run(addr);
    assert_eq!(recovered.shed, 0, "threshold 0 disables shedding");
    assert_eq!(recovered.failed, 0);
    assert_eq!(recovered.completed, users * per_user);

    let adm = server.admission_stats();
    assert!(adm.balanced());
    assert!(adm.shed >= report.shed, "server-side sheds cover the client's count");
    server.shutdown();
}

/// Whole-snapshot rejection: an invalid config must change nothing — same
/// generation, same effective limits, old config still serving.
#[test]
fn invalid_config_is_rejected_and_old_generation_serves() {
    let (mut server, plane, _target) = start_controlled(2, |req| Response::ok(req.body.clone()));
    let mut cfg = plane.config();
    cfg.workers = 2;
    cfg.max_body_bytes = 2048;
    plane.apply(cfg).expect("baseline generation");
    let gen_before = plane.generation();

    // Field validation failure: zero workers.
    cfg.workers = 0;
    assert_eq!(plane.apply(cfg), Err(ConfigError::ZeroWorkers));

    // Precheck failure: beyond the attached pool's fixed slot capacity.
    cfg.workers = 4096;
    match plane.apply(cfg) {
        Err(ConfigError::ExceedsPoolCapacity { requested, .. }) => assert_eq!(requested, 4096),
        other => panic!("expected ExceedsPoolCapacity, got {other:?}"),
    }

    let stats = plane.stats();
    assert_eq!(plane.generation(), gen_before, "rejected configs must not publish");
    assert_eq!(stats.rejected, 2);
    assert_eq!(plane.config().workers, 2, "old snapshot still current");

    // The old generation's limits are still live on the wire: a body within
    // the 2 KiB cap serves, one over it is rejected, and a fresh small
    // request still gets a 200 afterwards.
    let ok = http_post(server.addr(), "/echo", vec![1u8; 1024]).unwrap();
    assert_eq!(ok.status, Status::Ok);
    let too_big = http_post(server.addr(), "/echo", vec![1u8; 4096]).unwrap();
    assert_eq!(too_big.status, Status::BadRequest, "over-cap body is refused");
    let again = http_post(server.addr(), "/echo", vec![2u8; 64]).unwrap();
    assert_eq!(again.status, Status::Ok);
    assert_eq!(again.body, vec![2u8; 64]);
    server.shutdown();
}
