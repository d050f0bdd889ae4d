//! **C10K** — the reactor's connection-ceiling benchmark: a Fig-9-style
//! run at 10,000 virtual users (each holding one keep-alive connection),
//! which no thread-per-connection policy can attempt, plus a head-to-head
//! throughput gate against the Jetty keep-alive baseline at 4 workers.
//!
//! Phase A holds `conns` keep-alive connections (default 10,000; ~1,000
//! under `PJ_BENCH_QUICK=1`) open against a 4-worker reactor server and
//! drives synchronized request waves over all of them, reporting wave
//! throughput and per-request p50/p99/p999 latency. Two process-level
//! tricks make the scale honest: a thread-per-user load generator cannot
//! reach 10k users, so a few client threads multiplex the sockets
//! directly; and the client runs in a *separate process* (this binary
//! re-executed with `PJ_C10K_ROLE=client`) so the server process holds all
//! 10,000 sockets within its own fd limit — containers that refuse
//! `setrlimit` raises cap a single process well below 2×10k fds.
//!
//! Phase B is the regression gate: `run_http_benchmark` at the paper's
//! 100-user scale, Jetty vs the reactor-served Pyjama flavor, asserting the
//! reactor's req/s is not worse than the paper's Jetty keep-alive baseline
//! (within a 10% noise floor, best of two attempts — single cells on a
//! small CI machine are noisy).
//!
//! Run: `cargo run --release -p pyjama-bench --bin c10k`

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama_bench::httpbench::{run_http_benchmark, HttpBenchConfig, ServerFlavor};
use pyjama_bench::report::{ms, Table};
use pyjama_http::{
    nofile_limit_at_least, HttpServer, Request, Response, ServerOptions, ServingPolicy, Status,
};
use pyjama_metrics::LatencyRecorder;
use pyjama_runtime::Runtime;

const CLIENT_THREADS: usize = 8;
const WORKERS: usize = 4;

fn connect_retry(addr: SocketAddr) -> TcpStream {
    let mut last = None;
    for _ in 0..400 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    panic!("connect kept failing: {last:?}");
}

fn keepalive_wire() -> Vec<u8> {
    let mut req = Request::new("POST", "/c10k", b"ping".to_vec());
    req.headers.insert("connection", "keep-alive");
    let mut wire = Vec::new();
    req.write_into(&mut wire);
    wire
}

/// One synchronized wave: every connection sends one request, then every
/// response is read back and its per-connection latency recorded.
fn wave(socks: &mut [TcpStream], wire: &[u8], latency: &LatencyRecorder) {
    let chunk = socks.len().div_ceil(CLIENT_THREADS).max(1);
    std::thread::scope(|s| {
        for part in socks.chunks_mut(chunk) {
            s.spawn(move || {
                let mut starts = Vec::with_capacity(part.len());
                for sock in part.iter_mut() {
                    starts.push(Instant::now());
                    sock.write_all(wire).unwrap();
                }
                for (sock, start) in part.iter().zip(starts) {
                    let mut r = BufReader::with_capacity(512, sock);
                    let resp = Response::read_from(&mut r).unwrap();
                    assert_eq!(resp.status, Status::Ok);
                    assert_eq!(resp.body, b"ping");
                    latency.record_since(start);
                }
            });
        }
    });
}

/// The load-generator role, run in a child process: connect `conns`
/// keep-alive sockets (first request riding along with each connect),
/// drive `waves` synchronized waves, and report machine-readable results
/// on the last stdout line.
fn run_client(addr: SocketAddr, conns: usize, waves: usize) {
    nofile_limit_at_least(conns as u64 + 256);
    let wire = keepalive_wire();

    let t_ramp = Instant::now();
    let per = conns.div_ceil(CLIENT_THREADS);
    let mut socks: Vec<TcpStream> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                let wire = &wire;
                let count = per.min(conns.saturating_sub(t * per));
                s.spawn(move || {
                    let mut v = Vec::with_capacity(count);
                    for _ in 0..count {
                        let mut sock = connect_retry(addr);
                        sock.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                        sock.write_all(wire).unwrap();
                        v.push(sock);
                    }
                    v
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(socks.len(), conns);
    // Drain the ramp wave's responses (unmeasured: it includes connect cost).
    std::thread::scope(|s| {
        let chunk = socks.len().div_ceil(CLIENT_THREADS).max(1);
        for part in socks.chunks(chunk) {
            s.spawn(move || {
                for sock in part.iter() {
                    let mut r = BufReader::with_capacity(512, sock);
                    let resp = Response::read_from(&mut r).unwrap();
                    assert_eq!(resp.status, Status::Ok);
                }
            });
        }
    });
    let ramp = t_ramp.elapsed();
    println!("ramp-up: {conns} connections + first responses in {ramp:?}");

    let latency = LatencyRecorder::new();
    let t_waves = Instant::now();
    for w in 0..waves {
        let t0 = Instant::now();
        wave(&mut socks, &wire, &latency);
        println!("wave {}/{waves}: {conns} responses in {:?}", w + 1, t0.elapsed());
    }
    let wall = t_waves.elapsed();
    println!(
        "RESULT ramp_ms={} wall_ms={} p50_us={} p99_us={} p999_us={}",
        ramp.as_millis(),
        wall.as_millis(),
        latency.quantile(0.5).as_micros(),
        latency.quantile(0.99).as_micros(),
        latency.quantile(0.999).as_micros(),
    );
}

fn parse_result(line: &str) -> std::collections::HashMap<String, u64> {
    line.trim_start_matches("RESULT ")
        .split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn main() {
    if std::env::var("PJ_C10K_ROLE").as_deref() == Ok("client") {
        let addr: SocketAddr = std::env::var("PJ_C10K_ADDR").unwrap().parse().unwrap();
        let conns: usize = std::env::var("PJ_C10K_CONNS").unwrap().parse().unwrap();
        let waves: usize = std::env::var("PJ_C10K_WAVES").unwrap().parse().unwrap();
        run_client(addr, conns, waves);
        return;
    }

    let quick = pyjama_bench::quick_mode();
    let want: usize = if quick { 1_000 } else { 10_000 };
    let waves: usize = if quick { 2 } else { 3 };

    // The client process owns the other end of every socket, so this
    // (server) process needs ~1 fd per connection plus headroom.
    let limit = nofile_limit_at_least(want as u64 + 512);
    let conns = want.min(limit.saturating_sub(512) as usize);
    assert_eq!(
        conns, want,
        "fd limit {limit} cannot hold {want} server-side sockets"
    );

    println!(
        "=== C10K — {conns} keep-alive connections, {WORKERS}-worker reactor, {waves} waves ==="
    );

    // --- Phase A: hold the connections, drive synchronized waves ---------
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_create_worker("worker", WORKERS);
    let opts = ServerOptions {
        idle_timeout: Duration::from_secs(600),
        io_timeout: Duration::from_secs(30),
        ..ServerOptions::default()
    };
    let mut server = HttpServer::start_with(
        ServingPolicy::Reactor {
            runtime: Arc::clone(&rt),
            target: "worker".into(),
        },
        opts,
        |req| Response::ok(req.body.clone()),
    )
    .expect("start reactor server");

    let exe = std::env::current_exe().expect("own path");
    let mut child = std::process::Command::new(exe)
        .env("PJ_C10K_ROLE", "client")
        .env("PJ_C10K_ADDR", server.addr().to_string())
        .env("PJ_C10K_CONNS", conns.to_string())
        .env("PJ_C10K_WAVES", waves.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn client process");
    let mut result = None;
    for line in BufReader::new(child.stdout.take().unwrap()).lines() {
        let line = line.expect("client stdout");
        if line.starts_with("RESULT ") {
            result = Some(parse_result(&line));
        } else {
            println!("client: {line}");
        }
    }
    let status = child.wait().expect("client process");
    assert!(status.success(), "client process failed: {status}");
    let result = result.expect("client RESULT line");

    assert_eq!(server.errors(), 0, "no connection may fail");
    let conn_stats = server.conn_stats();
    assert_eq!(conn_stats.accepted, conns as u64);
    server.shutdown();
    let stats = server.reactor_stats().expect("reactor stats");
    assert!(
        stats.readiness_balanced(),
        "conservation law violated: {stats:?}"
    );
    assert_eq!(stats.registered, conns as u64);

    let requests = (conns * waves) as u64;
    let wall = Duration::from_millis(result["wall_ms"].max(1));
    let rps = requests as f64 / wall.as_secs_f64();
    let (p50, p99, p999) = (
        Duration::from_micros(result["p50_us"]),
        Duration::from_micros(result["p99_us"]),
        Duration::from_micros(result["p999_us"]),
    );
    let mut table = Table::new(&[
        "conns", "workers", "waves", "req/s", "p50", "p99", "p999",
    ]);
    table.row(vec![
        conns.to_string(),
        WORKERS.to_string(),
        waves.to_string(),
        format!("{rps:.0}"),
        ms(p50),
        ms(p99),
        ms(p999),
    ]);
    print!("{}", table.render());
    println!(
        "reactor counters: dispatched={} rearms_read={} rearms_write={} spurious={} evicted_idle={}",
        stats.dispatched, stats.rearms_read, stats.rearms_write, stats.spurious_ready,
        stats.evicted_idle
    );

    // --- Phase B: throughput gate vs the Jetty keep-alive baseline -------
    let (users, reqs) = if quick { (20, 3) } else { (100, 5) };
    let config = HttpBenchConfig {
        users,
        requests_per_user: reqs,
        worker_threads: WORKERS,
        omp_parallel_per_event: None,
        payload: 2048,
        work_factor: if quick { 8 } else { 24 },
        io_ms: 10,
        keepalive: true,
    };
    println!("\ngate: jetty vs reactor at {WORKERS} workers, {users} users × {reqs} requests");
    let mut ratio = 0.0;
    let mut gate = (0.0, 0.0);
    // Best of two attempts: single cells on a small machine are noisy.
    for attempt in 0..2 {
        let jetty = run_http_benchmark(ServerFlavor::Jetty, &config);
        let reactor = run_http_benchmark(ServerFlavor::Pyjama, &config);
        assert_eq!(jetty.failed, 0, "jetty gate cell had failures");
        assert_eq!(reactor.failed, 0, "reactor gate cell had failures");
        let r = reactor.throughput / jetty.throughput.max(1e-9);
        println!(
            "attempt {}: jetty {:.1} req/s, reactor {:.1} req/s (ratio {r:.2})",
            attempt + 1,
            jetty.throughput,
            reactor.throughput
        );
        if r > ratio {
            ratio = r;
            gate = (jetty.throughput, reactor.throughput);
        }
        if ratio >= 0.9 {
            break;
        }
    }
    assert!(
        ratio >= 0.9,
        "reactor req/s ({:.1}) worse than jetty keep-alive ({:.1}) at {WORKERS} workers",
        gate.1,
        gate.0
    );

    let out = "bench_results/c10k.csv";
    let mut csv = Table::new(&[
        "conns",
        "workers",
        "waves",
        "requests",
        "throughput_rps",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "dispatched",
        "rearms_read",
        "rearms_write",
        "spurious_ready",
        "evicted_idle",
        "gate_jetty_rps",
        "gate_reactor_rps",
        "failed",
    ]);
    csv.row(vec![
        conns.to_string(),
        WORKERS.to_string(),
        waves.to_string(),
        requests.to_string(),
        format!("{rps:.2}"),
        ms(p50),
        ms(p99),
        ms(p999),
        stats.dispatched.to_string(),
        stats.rearms_read.to_string(),
        stats.rearms_write.to_string(),
        stats.spurious_ready.to_string(),
        stats.evicted_idle.to_string(),
        format!("{:.2}", gate.0),
        format!("{:.2}", gate.1),
        "0".to_string(),
    ]);
    csv.write_csv(out).expect("write csv");
    println!("\nwrote {out}");
}
