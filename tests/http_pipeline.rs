//! Integration: the persistent-connection lifecycle — pipelining, idle
//! eviction, `connection: close` mid-stream, the per-connection request
//! cap, worker non-blocking under idle keep-alive sockets, and keep-alive
//! clients racing server shutdown.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama::http::{
    ClientConn, HttpServer, Request, Response, ServerOptions, ServingPolicy, Status,
};
use pyjama::runtime::Runtime;

fn echo(req: &Request) -> Response {
    Response::ok(req.body.clone())
}

fn keep_alive_request(path: &str, body: Vec<u8>) -> Request {
    let mut req = Request::new("POST", path, body);
    req.headers.insert("connection", "keep-alive");
    req
}

/// The Pyjama policy: `target virtual(worker) nowait` regions posted by
/// the readiness reactor.
fn pyjama_server(workers: usize, opts: ServerOptions) -> (HttpServer, Arc<Runtime>) {
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_create_worker("worker", workers);
    let server = HttpServer::start_with(
        ServingPolicy::Reactor {
            runtime: Arc::clone(&rt),
            target: "worker".into(),
        },
        opts,
        echo,
    )
    .unwrap();
    (server, rt)
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(5), "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(3));
    }
}

/// Three requests written in a single `write_all`, three responses read
/// back — true pipelining on one socket, under both policies.
#[test]
fn pipelined_requests_are_served_in_order_on_one_socket() {
    let policies: Vec<(&str, HttpServer, Option<Arc<Runtime>>)> = {
        let jetty = HttpServer::start(ServingPolicy::JettyPool { threads: 2 }, echo).unwrap();
        let (pyjama_srv, rt) = pyjama_server(2, ServerOptions::default());
        vec![("jetty", jetty, None), ("pyjama", pyjama_srv, Some(rt))]
    };
    for (name, mut server, _rt) in policies {
        let mut wire = Vec::new();
        for i in 0..3u8 {
            let mut one = Vec::new();
            keep_alive_request(&format!("/r{i}"), vec![i; 8]).write_into(&mut one);
            wire.extend_from_slice(&one);
        }
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(&wire).unwrap(); // all three at once
        let mut reader = BufReader::new(stream);
        for i in 0..3u8 {
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.status, Status::Ok, "{name} response {i}");
            assert_eq!(resp.body, vec![i; 8], "{name} responses must stay in order");
        }
        wait_for(|| server.served() == 3, "served==3");
        let stats = server.conn_stats();
        assert_eq!(stats.accepted, 1, "{name}: one socket");
        assert!(
            stats.pipelined >= 1,
            "{name}: back-to-back requests must be detected as pipelined ({stats:?})"
        );
        server.shutdown();
    }
}

/// An idle keep-alive connection is evicted at the idle timeout and counted;
/// the client's single retry hides the eviction.
#[test]
fn idle_keep_alive_connection_is_evicted_and_counted() {
    for policy_is_pyjama in [false, true] {
        let opts = ServerOptions {
            idle_timeout: Duration::from_millis(100),
            ..ServerOptions::default()
        };
        let (mut server, _rt) = if policy_is_pyjama {
            let (s, rt) = pyjama_server(2, opts);
            (s, Some(rt))
        } else {
            (
                HttpServer::start_with(ServingPolicy::JettyPool { threads: 2 }, opts, echo)
                    .unwrap(),
                None,
            )
        };
        let mut conn = ClientConn::new(server.addr());
        let req = keep_alive_request("/echo", b"one".to_vec());
        assert_eq!(conn.send(&req).unwrap().body, b"one");
        wait_for(
            || server.conn_stats().timed_out_idle >= 1,
            "idle eviction counted",
        );
        // The evicted connection is stale; ClientConn reconnects under the
        // hood and the request still succeeds.
        assert_eq!(conn.send(&req).unwrap().body, b"one");
        wait_for(|| server.served() == 2, "served==2");
        assert!(server.conn_stats().accepted >= 2);
        server.shutdown();
    }
}

/// `connection: close` honored mid-stream: two keep-alive requests reuse the
/// socket, the third announces close and the server hangs up after it.
#[test]
fn connection_close_is_honored_mid_stream() {
    for policy_is_pyjama in [false, true] {
        let (mut server, _rt) = if policy_is_pyjama {
            let (s, rt) = pyjama_server(2, ServerOptions::default());
            (s, Some(rt))
        } else {
            (
                HttpServer::start(ServingPolicy::JettyPool { threads: 2 }, echo).unwrap(),
                None,
            )
        };
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut wire = Vec::new();
        for i in 0..2u8 {
            keep_alive_request("/ka", vec![i; 4]).write_into(&mut wire);
            stream.write_all(&wire).unwrap();
            let resp = Response::read_from(&mut reader).unwrap();
            assert!(!resp.announces_close(), "request {i} keeps the conn alive");
        }
        Request::new("POST", "/bye", b"done".to_vec()).write_into(&mut wire); // default: close
        stream.write_all(&wire).unwrap();
        let resp = Response::read_from(&mut reader).unwrap();
        assert!(resp.announces_close(), "server must echo the close intent");
        let mut rest = Vec::new();
        assert_eq!(
            reader.read_to_end(&mut rest).unwrap(),
            0,
            "server must close after the close-marked response"
        );
        wait_for(|| server.served() == 3, "served==3");
        let stats = server.conn_stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.reused, 2, "{stats:?}");
        server.shutdown();
    }
}

/// The per-connection request cap closes the connection with the final
/// response; a persistent client transparently reconnects.
#[test]
fn max_requests_per_conn_cap_closes_and_reconnects() {
    let opts = ServerOptions {
        max_requests_per_conn: 2,
        ..ServerOptions::default()
    };
    let mut server =
        HttpServer::start_with(ServingPolicy::JettyPool { threads: 2 }, opts, echo).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut wire = Vec::new();
    keep_alive_request("/1", vec![1]).write_into(&mut wire);
    stream.write_all(&wire).unwrap();
    assert!(!Response::read_from(&mut reader).unwrap().announces_close());
    keep_alive_request("/2", vec![2]).write_into(&mut wire);
    stream.write_all(&wire).unwrap();
    let second = Response::read_from(&mut reader).unwrap();
    assert!(
        second.announces_close(),
        "response hitting the cap must announce close"
    );
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);

    // A ClientConn sending 4 requests against cap 2 needs ≥ 2 connections.
    let mut conn = ClientConn::new(server.addr());
    let req = keep_alive_request("/echo", b"x".to_vec());
    for _ in 0..4 {
        assert_eq!(conn.send(&req).unwrap().status.code(), 200);
    }
    wait_for(|| server.served() == 6, "served==6");
    assert!(server.conn_stats().accepted >= 3);
    server.shutdown();
}

/// Acceptance criterion: under the Pyjama policy no worker thread blocks on
/// an idle keep-alive socket — 2× pool-size idle connections are held open
/// while fresh requests keep being served, and the parked connections still
/// answer when they speak again.
#[test]
fn pyjama_idle_conns_do_not_block_workers() {
    let workers = 2;
    let opts = ServerOptions {
        idle_timeout: Duration::from_secs(30), // parked conns stay parked
        ..ServerOptions::default()
    };
    let (mut server, _rt) = pyjama_server(workers, opts);

    // Hold 2× pool-size connections open, each having served one request.
    let mut parked: Vec<ClientConn> = Vec::new();
    let req = keep_alive_request("/park", b"held".to_vec());
    for _ in 0..2 * workers {
        let mut c = ClientConn::new(server.addr());
        assert_eq!(c.send(&req).unwrap().body, b"held");
        parked.push(c);
    }
    wait_for(|| server.served() == 4, "parked conns served once each");

    // Every worker would now be blocked if idle connections pinned threads.
    // Fresh requests must still flow.
    for i in 0..8u8 {
        let resp = pyjama::http::http_post(server.addr(), "/fresh", vec![i; 4]).unwrap();
        assert_eq!(resp.body, vec![i; 4], "fresh request {i} while 4 conns idle");
    }
    wait_for(|| server.served() == 12, "fresh requests served");

    // The parked connections are still live sessions.
    for c in parked.iter_mut() {
        assert_eq!(c.send(&req).unwrap().body, b"held");
    }
    wait_for(|| server.served() == 16, "parked conns resumed");
    assert!(server.conn_stats().reused >= 4);
    server.shutdown();
}

/// Malformed framing answered with 400 immediately, not after a timeout.
#[test]
fn malformed_requests_get_400_fast() {
    let cases: [&[u8]; 3] = [
        b"POST /x HTTP/1.1\r\n\r\nbody-with-no-length",
        b"POST /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
        b"POST /x HTTP/1.1\r\ncontent-length: 999999999999\r\n\r\n",
    ];
    let (mut server, _rt) = pyjama_server(2, ServerOptions::default());
    for raw in cases {
        let t0 = Instant::now();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(raw).unwrap();
        let resp = Response::read_from(&mut BufReader::new(stream)).unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        assert!(
            t0.elapsed() < Duration::from_millis(400),
            "400 must beat the I/O timeout (took {:?})",
            t0.elapsed()
        );
    }
    // The error counter is bumped around the 400 write; the client can read
    // the response a moment before the increment lands.
    wait_for(|| server.errors() >= 3, "errors>=3");
    server.shutdown();
}

/// Stress: keep-alive clients race server shutdown. No stranded client (all
/// client threads finish), no double-counted request (`served` is monotone
/// and ends ≥ the number of client-observed completions).
#[test]
fn keep_alive_clients_racing_shutdown_are_never_stranded() {
    for round in 0..3 {
        let (mut server, _rt) = pyjama_server(2, ServerOptions::default());
        let addr = server.addr();
        let stop_clients = Arc::new(AtomicBool::new(false));
        let completed = Arc::new(std::sync::atomic::AtomicU64::new(0));

        // A sampler asserting `served` never decreases (the old
        // increment-then-undo scheme was observably non-monotone).
        let served_monotone = {
            let stop = Arc::clone(&stop_clients);
            let shared = server.served_probe();
            std::thread::spawn(move || {
                let mut last = 0u64;
                let mut ok = true;
                while !stop.load(Ordering::SeqCst) {
                    let now = shared();
                    ok &= now >= last;
                    last = now;
                    std::thread::sleep(Duration::from_micros(200));
                }
                ok
            })
        };

        let clients: Vec<_> = (0..4)
            .map(|u| {
                let stop = Arc::clone(&stop_clients);
                let completed = Arc::clone(&completed);
                std::thread::spawn(move || {
                    let mut conn =
                        ClientConn::new(addr).with_read_timeout(Duration::from_secs(2));
                    let req = keep_alive_request("/stress", vec![u as u8; 16]);
                    while !stop.load(Ordering::SeqCst) {
                        match conn.send(&req) {
                            Ok(resp) if resp.status.code() == 200 => {
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            // Shutdown races surface as closed connections —
                            // fine, just stop sending.
                            _ => break,
                        }
                    }
                })
            })
            .collect();

        // Let traffic flow briefly, then yank the server mid-stream.
        std::thread::sleep(Duration::from_millis(30 + 20 * round));
        server.shutdown();
        stop_clients.store(true, Ordering::SeqCst);
        for c in clients {
            c.join().expect("client threads must all finish — none stranded");
        }
        assert!(
            served_monotone.join().unwrap(),
            "served counter must be monotone"
        );
        // Every client-observed completion was written (and counted) by the
        // server; the server may have served a response whose read raced
        // shutdown, so served >= completed.
        assert!(
            server.served() >= completed.load(Ordering::Relaxed),
            "served {} < client completions {} — double count or lost write",
            server.served(),
            completed.load(Ordering::Relaxed)
        );
    }
}
