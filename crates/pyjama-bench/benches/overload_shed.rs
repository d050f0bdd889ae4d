//! Admission-control overload shedding and live-reconfiguration gates.
//!
//! Three asserted gates, which are the artifact (run as
//! `cargo bench -p pyjama-bench --bench overload_shed`; CI smoke-runs it
//! with `PJ_BENCH_QUICK=1`):
//!
//! 1. **Snapshot-read overhead** — one `ConfigCell` read (the per-request
//!    cost the serving loop pays to follow live config) must stay ≤ 2
//!    ns/op, measured as best-of-rounds over a hot loop.
//! 2. **Live resize under load** — shrinking the worker pool mid-wave must
//!    lose nothing: zero failed requests, exactly one applied generation.
//! 3. **Overload shed** — at ~8× closed-loop saturation of a
//!    sleep-handler server, the admission-controlled arm must keep the p99
//!    of *admitted* requests within 2× of the uncontended p99, while the
//!    unprotected baseline visibly degrades (its p99 at least 2× worse
//!    than the controlled arm's). The conservation law
//!    `offered == admitted + shed` is asserted on the server counters.
//!
//! The handler sleeps rather than computes so the serving capacity is
//! deadline-bound, not CPU-bound — the gate then measures queueing policy,
//! not scheduler contention on a small runner.
//!
//! Results land in `bench_results/overload_shed.{txt,csv}`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama_control::{Config, ControlPlane};
use pyjama_http::{HttpServer, LoadGenerator, Request, Response, ServerOptions, ServingPolicy};
use pyjama_runtime::Runtime;

const WORKERS: usize = 4;
/// Handler "service time": a sleep, so capacity is deadline-bound.
const SERVICE: Duration = Duration::from_millis(2);
/// Gate 1 budget: one Acquire load plus a dereference.
const MAX_READ_NS: f64 = 2.0;
/// Gate 3 budgets.
const MAX_CONTROLLED_P99_RATIO: f64 = 2.0;
const MIN_BASELINE_DEGRADATION: f64 = 2.0;

fn quick() -> bool {
    std::env::var("PJ_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn sleep_handler(_req: &Request) -> Response {
    std::thread::sleep(SERVICE);
    Response::ok(b"done".to_vec())
}

/// A controlled Pyjama-policy server over a fresh `WORKERS`-thread target.
fn start_server(plane: &ControlPlane) -> HttpServer {
    let rt = Arc::new(Runtime::new());
    let target = rt.virtual_target_create_worker("worker", WORKERS);
    plane.attach_worker_target(&target);
    HttpServer::start_controlled(
        ServingPolicy::Reactor {
            runtime: rt,
            target: "worker".into(),
        },
        ServerOptions::default(),
        plane,
        sleep_handler,
    )
    .expect("start controlled server")
}

fn apply(plane: &ControlPlane, f: impl FnOnce(&mut Config)) {
    let mut cfg = plane.config();
    f(&mut cfg);
    plane.apply(cfg).expect("config apply");
}

// ------------------------------------------------- gate 1: snapshot reads

/// Best-of-rounds ns per `ConfigHandle::read` over a hot loop.
fn measure_read_ns(rounds: usize, iters: u64) -> f64 {
    let plane = ControlPlane::new();
    apply(&plane, |c| c.workers = WORKERS);
    let handle = plane.handle();
    let mut best = f64::MAX;
    for _ in 0..rounds {
        let mut acc = 0u64;
        let t0 = Instant::now();
        for _ in 0..iters {
            acc = acc.wrapping_add(std::hint::black_box(handle.read()).generation);
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        std::hint::black_box(acc);
        best = best.min(ns);
    }
    best
}

// ---------------------------------------------- gate 2: resize under load

struct ResizeOutcome {
    failed: u64,
    completed: u64,
    applied_delta: u64,
    generation_delta: u64,
}

fn measure_resize_under_load(requests_per_user: usize) -> ResizeOutcome {
    let plane = ControlPlane::new();
    apply(&plane, |c| c.workers = WORKERS);
    let mut server = start_server(&plane);
    let before = plane.stats();

    let addr = server.addr();
    let wave = std::thread::spawn(move || {
        LoadGenerator::new(WORKERS * 2, requests_per_user, "/w", vec![0u8; 16]).run(addr)
    });
    std::thread::sleep(Duration::from_millis(20));
    apply(&plane, |c| c.workers = WORKERS / 2);
    let report = wave.join().expect("wave");
    let after = plane.stats();
    server.shutdown();
    ResizeOutcome {
        failed: report.failed + report.shed,
        completed: report.completed,
        applied_delta: after.applied - before.applied,
        generation_delta: after.generation - before.generation,
    }
}

// -------------------------------------------------- gate 3: overload shed

struct Arm {
    label: &'static str,
    users: usize,
    p99: Duration,
    completed: u64,
    shed: u64,
    throughput: f64,
}

fn run_arm(
    label: &'static str,
    threshold: usize,
    users: usize,
    requests_per_user: usize,
) -> Arm {
    let plane = ControlPlane::new();
    apply(&plane, |c| {
        c.workers = WORKERS;
        c.admission_threshold = threshold;
    });
    let mut server = start_server(&plane);
    let report = LoadGenerator::new(users, requests_per_user, "/w", vec![0u8; 16])
        .with_shed_backoff(Duration::from_millis(4))
        .run(server.addr());
    assert_eq!(report.failed, 0, "{label}: no request may hard-fail");
    let adm = server.admission_stats();
    assert!(
        adm.balanced(),
        "{label}: conservation violated: offered {} != admitted {} + shed {}",
        adm.offered,
        adm.admitted,
        adm.shed
    );
    server.shutdown();
    Arm {
        label,
        users,
        p99: report.p99_response,
        completed: report.completed,
        shed: report.shed,
        throughput: report.throughput,
    }
}

fn main() {
    let (read_rounds, read_iters) = if quick() { (3, 200_000) } else { (7, 2_000_000) };
    let resize_reqs = if quick() { 20 } else { 60 };
    let shed_reqs = if quick() { 15 } else { 60 };

    let mut txt = String::new();
    let mut csv = String::from("gate,metric,value\n");

    // Gate 1: snapshot-read overhead.
    let read_ns = measure_read_ns(read_rounds, read_iters);
    println!("config snapshot read: {read_ns:.2} ns/op (budget {MAX_READ_NS} ns)");
    let _ = writeln!(txt, "snapshot_read_ns {read_ns:.3}  (budget {MAX_READ_NS})");
    let _ = writeln!(csv, "read,ns_per_op,{read_ns:.3}");
    assert!(
        read_ns <= MAX_READ_NS,
        "ConfigCell read {read_ns:.2} ns/op exceeds the {MAX_READ_NS} ns budget"
    );

    // Gate 2: live resize under load.
    let resize = measure_resize_under_load(resize_reqs);
    println!(
        "live shrink mid-wave: {} completed, {} failed, {} generation(s) applied",
        resize.completed, resize.failed, resize.applied_delta
    );
    let _ = writeln!(
        txt,
        "resize_under_load completed={} failed={} applied={}",
        resize.completed, resize.failed, resize.applied_delta
    );
    let _ = writeln!(csv, "resize,failed,{}", resize.failed);
    let _ = writeln!(csv, "resize,applied,{}", resize.applied_delta);
    assert_eq!(resize.failed, 0, "live resize must not fail or shed requests");
    assert_eq!(resize.completed, (WORKERS * 2 * resize_reqs) as u64);
    assert_eq!(resize.applied_delta, 1, "exactly one applied generation");
    assert_eq!(resize.generation_delta, 1);

    // Gate 3: overload shed. Uncontended reference first, then ~8x
    // closed-loop saturation with and without the admission gate.
    let uncontended = run_arm("uncontended", 0, WORKERS, shed_reqs);
    let baseline = run_arm("baseline-overload", 0, WORKERS * 8, shed_reqs);
    // Threshold: half the pool of queued headroom — an admitted request
    // waits at most ~(threshold/WORKERS + 1) service times.
    let controlled = run_arm("controlled-overload", WORKERS / 2, WORKERS * 8, shed_reqs);

    println!(
        "{:<20} {:>6} {:>10} {:>10} {:>8} {:>10}",
        "arm", "users", "p99_us", "req/s", "shed", "completed"
    );
    for arm in [&uncontended, &baseline, &controlled] {
        println!(
            "{:<20} {:>6} {:>10} {:>10.0} {:>8} {:>10}",
            arm.label,
            arm.users,
            arm.p99.as_micros(),
            arm.throughput,
            arm.shed,
            arm.completed
        );
        let _ = writeln!(
            txt,
            "{} users={} p99_us={} shed={} completed={}",
            arm.label,
            arm.users,
            arm.p99.as_micros(),
            arm.shed,
            arm.completed
        );
        let _ = writeln!(csv, "shed,{}_p99_us,{}", arm.label, arm.p99.as_micros());
    }

    let controlled_ratio = controlled.p99.as_secs_f64() / uncontended.p99.as_secs_f64().max(1e-9);
    let degradation = baseline.p99.as_secs_f64() / controlled.p99.as_secs_f64().max(1e-9);
    println!(
        "controlled p99 = {controlled_ratio:.2}x uncontended (budget {MAX_CONTROLLED_P99_RATIO}x); \
         baseline p99 = {degradation:.2}x controlled (must exceed {MIN_BASELINE_DEGRADATION}x)"
    );
    let _ = writeln!(txt, "controlled_p99_ratio {controlled_ratio:.3}");
    let _ = writeln!(txt, "baseline_degradation {degradation:.3}");
    let _ = writeln!(csv, "shed,controlled_p99_ratio,{controlled_ratio:.3}");
    let _ = writeln!(csv, "shed,baseline_degradation,{degradation:.3}");

    assert!(baseline.shed == 0 && uncontended.shed == 0, "threshold 0 must never shed");
    assert!(controlled.shed > 0, "8x overload past the threshold must shed");
    assert!(
        controlled_ratio <= MAX_CONTROLLED_P99_RATIO,
        "admitted p99 under overload is {controlled_ratio:.2}x uncontended, \
         budget {MAX_CONTROLLED_P99_RATIO}x"
    );
    assert!(
        degradation >= MIN_BASELINE_DEGRADATION,
        "unprotected baseline p99 only {degradation:.2}x the controlled arm — \
         overload did not degrade the baseline, gate is vacuous"
    );

    std::fs::create_dir_all("bench_results").ok();
    std::fs::write("bench_results/overload_shed.txt", &txt).expect("write txt");
    std::fs::write("bench_results/overload_shed.csv", &csv).expect("write csv");
    println!("wrote bench_results/overload_shed.txt, bench_results/overload_shed.csv");
    println!("overload-shed gates hold ✓");
}
