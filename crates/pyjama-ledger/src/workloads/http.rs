//! The three HTTP workloads. All of them serve through
//! `ServingPolicy::Reactor` on a 2-thread worker pool, with the generator
//! holding two connections and one request outstanding on each (write both,
//! read both). Nothing sleeps: the handler is either an echo or the paper's
//! §V-B encryption service.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pyjama_http::message::ReadScratch;
use pyjama_http::{HttpServer, Request, Response, ServerOptions, ServingPolicy, Status};
use pyjama_kernels::crypt::{encrypt_seq, IdeaKey};
use pyjama_runtime::{Runtime, VirtualTarget, WorkerTarget};

use super::{check_pool_conservation, fold64, Rng, POOL_THREADS};
use crate::clock;
use crate::harness::{time_per_call, Counters, Micro, SliceRec, Workload};
use crate::spans::{self, Kind};

/// Connections the generator holds, one request outstanding on each.
const CONNS: usize = 2;
/// Echo request body.
const SMALL_BODY: usize = 64;
/// Encryption-service request body and how many times the handler repeats
/// it before encrypting (the paper's benchmark configuration).
const CRYPT_BODY: usize = 2048;
const WORK_FACTOR: usize = 32;
/// Length of a churn round; each is one slice, on a freshly started server.
pub const CHURN_ROUND_SECONDS: f64 = 0.5;
/// Connections per churn round at most: stays under the loopback
/// ephemeral-port range (~28k), so `TIME_WAIT` can never refuse a connect
/// within a round. Half a second is ~15k connections here; a round that
/// gets this far ends early.
const CHURN_ROUND_CAP: u64 = 20_000;
/// Width of the `x-op` header's value, patched in place per request.
const OP_DIGITS: usize = 10;

/// What the server's handler does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Service {
    /// Respond with the request body.
    Echo,
    /// Repeat the body `WORK_FACTOR` times, IDEA-encrypt it, respond with a
    /// digest of the ciphertext.
    Crypt,
}

/// The encryption service's response body for a ciphertext.
fn crypt_digest(cipher: &[u8]) -> Vec<u8> {
    let mut out = fold64(cipher).to_le_bytes().to_vec();
    out.extend_from_slice(&cipher[..56]);
    out
}

/// One pre-serialised request and the response body it must produce.
struct Input {
    wire: Vec<u8>,
    /// Offset of the `x-op` digits inside `wire`.
    op_at: usize,
    expect: Vec<u8>,
}

impl Input {
    fn stamp(&mut self, op: u64) {
        let mut v = op;
        for b in self.wire[self.op_at..self.op_at + OP_DIGITS]
            .iter_mut()
            .rev()
        {
            *b = b'0' + (v % 10) as u8;
            v /= 10;
        }
    }
}

/// Seeded request bodies with their expected responses. The expectation for
/// the encryption service is a direct kernel call, not a server round trip.
fn make_inputs(service: Service, close: bool, seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    let key = IdeaKey::benchmark_key();
    // Few enough encryption inputs that preparing them stays small next to
    // the set-up it is timed with.
    let (count, len, path) = match service {
        Service::Echo => (64, SMALL_BODY, "/echo"),
        Service::Crypt => (8, CRYPT_BODY, "/encrypt"),
    };
    (0..count)
        .map(|_| {
            let body = rng.bytes(len);
            let expect = match service {
                Service::Echo => body.clone(),
                Service::Crypt => {
                    let mut work = body.repeat(WORK_FACTOR);
                    encrypt_seq(&key, &mut work);
                    crypt_digest(&work)
                }
            };
            let mut req = Request::new("POST", path, body);
            req.headers
                .insert("connection", if close { "close" } else { "keep-alive" });
            req.headers.insert("x-op", "0".repeat(OP_DIGITS));
            let mut wire = Vec::new();
            req.write_into(&mut wire);
            let marker = b"x-op: ";
            let op_at = wire
                .windows(marker.len())
                .position(|w| w == marker)
                .expect("x-op header was just inserted")
                + marker.len();
            Input {
                wire,
                op_at,
                expect,
            }
        })
        .collect()
}

/// The handler the benchmark hands the server, wrapped so the traced pass
/// records `handler` and `kernels.call` spans under the request's op id.
fn handler(service: Service) -> impl Fn(&Request) -> Response + Send + Sync + 'static {
    let key = IdeaKey::benchmark_key();
    move |req| {
        let traced = spans::enabled();
        let t0 = if traced { clock::now_ns() } else { 0 };
        let op = if traced {
            req.headers
                .get("x-op")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        } else {
            0
        };
        let body = match service {
            Service::Echo => req.body.clone(),
            Service::Crypt => {
                if req.body.is_empty() || req.body.len() % 8 != 0 {
                    return Response::error(Status::BadRequest, "body must be whole 8-byte blocks");
                }
                let mut work = req.body.repeat(WORK_FACTOR);
                let k0 = if traced { clock::now_ns() } else { 0 };
                encrypt_seq(&key, &mut work);
                if traced {
                    spans::record(Kind::KernelCall, op, k0, clock::now_ns());
                }
                crypt_digest(&work)
            }
        };
        let resp = Response::ok(body);
        if traced {
            spans::record(Kind::Handler, op, t0, clock::now_ns());
        }
        resp
    }
}

/// Pool, runtime and server options shared by the three workloads.
fn start_runtime() -> (Arc<Runtime>, Arc<WorkerTarget>) {
    let rt = Arc::new(Runtime::new());
    let worker = rt.virtual_target_create_worker("worker", POOL_THREADS);
    (rt, worker)
}

fn start_server(rt: &Arc<Runtime>, service: Service) -> Result<HttpServer, String> {
    let opts = ServerOptions {
        // Keep-alive sessions must survive the whole run on two accepts.
        max_requests_per_conn: u32::MAX,
        idle_timeout: Duration::from_secs(120),
        ..ServerOptions::default()
    };
    HttpServer::start_with(
        ServingPolicy::Reactor {
            runtime: Arc::clone(rt),
            target: "worker".into(),
        },
        opts,
        handler(service),
    )
    .map_err(|e| format!("server start: {e}"))
}

/// The generator's side of one connection.
struct ClientConn {
    reader: BufReader<TcpStream>,
    resp: Response,
    scratch: ReadScratch,
}

impl ClientConn {
    fn connect(addr: SocketAddr) -> std::io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung server becomes a failed operation, not a hung benchmark.
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(ClientConn {
            reader: BufReader::with_capacity(4096, stream),
            resp: Response::ok(Vec::new()),
            scratch: ReadScratch::new(),
        })
    }

    fn send(&mut self, wire: &[u8]) -> std::io::Result<()> {
        self.reader.get_mut().write_all(wire)
    }

    /// Reads one response; true when it is a `200` carrying `expect`.
    fn recv_matches(&mut self, expect: &[u8]) -> bool {
        Response::read_into(&mut self.reader, &mut self.resp, &mut self.scratch).is_ok()
            && self.resp.status == Status::Ok
            && self.resp.body == expect
    }
}

fn layer_counters(worker: &WorkerTarget, server: &HttpServer) -> Counters {
    Counters {
        target: worker.stats(),
        reactor: server.reactor_stats().unwrap_or_default(),
        conn: server.conn_stats(),
        ..Counters::process_wide()
    }
}

/// Direct timings of the codec (and, for the encryption service, the
/// kernel) on the workload's exact bytes.
fn codec_micro(service: Service, input: &Input, connection: &str) -> Micro {
    let mut req = Request::empty();
    let parse = time_per_call(20_000, || {
        let _ = std::hint::black_box(Request::parse_into(
            std::hint::black_box(&input.wire),
            &mut req,
        ));
    });
    let resp = Response::ok(input.expect.clone());
    let mut buf = Vec::with_capacity(256);
    let serialize = time_per_call(20_000, || {
        std::hint::black_box(&resp).write_into(&mut buf, Some(connection));
        std::hint::black_box(&buf);
    });
    let crypt_ns_per_kib = match service {
        Service::Echo => 0.0,
        Service::Crypt => {
            let key = IdeaKey::benchmark_key();
            let mut work = req.body.repeat(WORK_FACTOR);
            let kib = work.len() as f64 / 1024.0;
            time_per_call(50, || encrypt_seq(&key, std::hint::black_box(&mut work))) / kib
        }
    };
    Micro {
        parse_ns_per_req: parse,
        serialize_ns_per_resp: serialize,
        crypt_ns_per_kib,
        ..Micro::default()
    }
}

// ------------------------------------------------------------ keep-alive

/// `http_small_keepalive` and `http_crypt_keepalive`: closed loop over two
/// persistent connections.
pub struct Keepalive {
    service: Service,
    inputs: Vec<Input>,
    conns: Vec<ClientConn>,
    next_op: u64,
    server: HttpServer,
    worker: Arc<WorkerTarget>,
    _rt: Arc<Runtime>,
}

impl Keepalive {
    /// Starts pool and server, connects, and completes one request per
    /// connection.
    pub fn setup(service: Service, seed: u64) -> Result<Keepalive, String> {
        let inputs = make_inputs(service, false, seed);
        let (rt, worker) = start_runtime();
        let server = start_server(&rt, service)?;
        let conns = (0..CONNS)
            .map(|_| ClientConn::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let mut w = Keepalive {
            service,
            inputs,
            conns,
            next_op: 1,
            server,
            worker,
            _rt: rt,
        };
        let mut rec = SliceRec::default();
        w.round_trip(&mut rec);
        if rec.failed > 0 {
            return Err("first request failed".into());
        }
        Ok(w)
    }

    /// Writes one request on every connection, then reads every response.
    fn round_trip(&mut self, rec: &mut SliceRec) {
        let n = self.inputs.len();
        let mut sent = [(0u64, 0u64, false); CONNS];
        for (c, slot) in sent.iter_mut().enumerate() {
            let op = self.next_op;
            self.next_op += 1;
            let input = &mut self.inputs[op as usize % n];
            input.stamp(op);
            let t0 = clock::now_ns();
            let ok = self.conns[c].send(&input.wire).is_ok();
            *slot = (op, t0, ok);
            rec.attempted += 1;
        }
        for (c, &(op, t0, sent_ok)) in sent.iter().enumerate() {
            let expect = &self.inputs[op as usize % n].expect;
            if sent_ok && self.conns[c].recv_matches(expect) {
                let t1 = clock::now_ns();
                rec.lat_ns.push(t1 - t0);
                rec.ops += 1;
                spans::record(Kind::ClientRequest, op, t0, t1);
            } else {
                rec.failed += 1;
                // The stream's framing is unknown now; start a fresh one (the
                // `accepted == 2` guard then names the run invalid).
                if let Ok(fresh) = ClientConn::connect(self.server.addr()) {
                    self.conns[c] = fresh;
                }
            }
        }
    }
}

impl Workload for Keepalive {
    const TRACE_WINDOW_OPS: u64 = 2_000;

    fn run(&mut self, deadline: Instant, max_ops: u64, rec: &mut SliceRec) {
        let mut started = 0;
        while started < max_ops && Instant::now() < deadline {
            self.round_trip(rec);
            started += CONNS as u64;
        }
    }

    fn counters(&self) -> Counters {
        layer_counters(&self.worker, &self.server)
    }

    fn micro(&mut self) -> Micro {
        codec_micro(self.service, &self.inputs[0], "keep-alive")
    }

    fn check(&self, _delta: &Counters, _ops: u64) -> Result<(), String> {
        let accepted = self.server.conn_stats().accepted;
        if accepted != CONNS as u64 {
            return Err(format!(
                "guard keepalive_accepts: accepted {accepted}, want {CONNS}"
            ));
        }
        if self.server.errors() != 0 {
            return Err(format!("guard server_errors: {}", self.server.errors()));
        }
        check_pool_conservation(&self.worker)
    }
}

// ----------------------------------------------------------------- churn

/// `http_conn_churn`: the echo request with `connection: close`, one
/// connection per request, each round against a freshly started server.
pub struct Churn {
    inputs: Vec<Input>,
    next_op: u64,
    /// Connections opened against the current server.
    round_conns: u64,
    server: Option<HttpServer>,
    /// Reactor and connection counters of servers already retired.
    retired: Counters,
    worker: Arc<WorkerTarget>,
    rt: Arc<Runtime>,
}

impl Churn {
    pub fn setup(seed: u64) -> Result<Churn, String> {
        let inputs = make_inputs(Service::Echo, true, seed);
        let (rt, worker) = start_runtime();
        let server = start_server(&rt, Service::Echo)?;
        let mut w = Churn {
            inputs,
            next_op: 1,
            round_conns: 0,
            server: Some(server),
            retired: Counters::default(),
            worker,
            rt,
        };
        let mut rec = SliceRec::default();
        w.round_trip(&mut rec);
        if rec.failed > 0 {
            return Err("first request failed".into());
        }
        Ok(w)
    }

    fn server(&self) -> &HttpServer {
        self.server
            .as_ref()
            .expect("a server runs between begin_slice calls")
    }

    /// Opens `CONNS` connections, one request on each, then drops them.
    fn round_trip(&mut self, rec: &mut SliceRec) {
        let addr = self.server().addr();
        let n = self.inputs.len();
        let mut open: Vec<(u64, u64, Option<ClientConn>)> = Vec::with_capacity(CONNS);
        for _ in 0..CONNS {
            let op = self.next_op;
            self.next_op += 1;
            self.round_conns += 1;
            rec.attempted += 1;
            // The operation includes the connect.
            let t0 = clock::now_ns();
            open.push((op, t0, ClientConn::connect(addr).ok()));
        }
        for (op, _, conn) in open.iter_mut() {
            let input = &mut self.inputs[*op as usize % n];
            input.stamp(*op);
            if conn.as_mut().is_some_and(|c| c.send(&input.wire).is_err()) {
                *conn = None;
            }
        }
        for (op, t0, conn) in open {
            let expect = &self.inputs[op as usize % n].expect;
            if conn.is_some_and(|mut c| c.recv_matches(expect)) {
                let t1 = clock::now_ns();
                rec.lat_ns.push(t1 - t0);
                rec.ops += 1;
                spans::record(Kind::ClientRequest, op, t0, t1);
            } else {
                rec.failed += 1;
            }
        }
    }
}

impl Workload for Churn {
    const TRACE_WINDOW_OPS: u64 = 1_000;

    /// Retires the running server and starts a fresh one on a fresh port.
    fn begin_slice(&mut self) {
        if let Some(mut old) = self.server.take() {
            old.shutdown();
            let last = layer_counters(&self.worker, &old);
            self.retired.reactor = add_reactor(&self.retired.reactor, &last.reactor);
            self.retired.conn = add_conn(&self.retired.conn, &last.conn);
        }
        self.server = Some(start_server(&self.rt, Service::Echo).expect("server restarts"));
        self.round_conns = 0;
    }

    fn run(&mut self, deadline: Instant, max_ops: u64, rec: &mut SliceRec) {
        let mut started = 0;
        while started < max_ops && self.round_conns < CHURN_ROUND_CAP && Instant::now() < deadline {
            self.round_trip(rec);
            started += CONNS as u64;
        }
    }

    fn slice_full(&self) -> bool {
        self.round_conns >= CHURN_ROUND_CAP
    }

    fn counters(&self) -> Counters {
        let live = layer_counters(&self.worker, self.server());
        Counters {
            reactor: add_reactor(&self.retired.reactor, &live.reactor),
            conn: add_conn(&self.retired.conn, &live.conn),
            ..live
        }
    }

    fn micro(&mut self) -> Micro {
        codec_micro(Service::Echo, &self.inputs[0], "close")
    }

    fn check(&self, delta: &Counters, ops: u64) -> Result<(), String> {
        if delta.conn.accepted != ops {
            return Err(format!(
                "guard churn_accepts: accepted {} != completed operations {ops}",
                delta.conn.accepted
            ));
        }
        if delta.conn.reused != 0 {
            return Err(format!(
                "guard churn_reuse: {} connections were reused",
                delta.conn.reused
            ));
        }
        check_pool_conservation(&self.worker)
    }
}

fn add_reactor(
    a: &pyjama_metrics::ReactorStats,
    b: &pyjama_metrics::ReactorStats,
) -> pyjama_metrics::ReactorStats {
    pyjama_metrics::ReactorStats {
        registered: a.registered + b.registered,
        rearms_read: a.rearms_read + b.rearms_read,
        rearms_write: a.rearms_write + b.rearms_write,
        readiness_events: a.readiness_events + b.readiness_events,
        dispatched: a.dispatched + b.dispatched,
        spurious_ready: a.spurious_ready + b.spurious_ready,
        evicted_idle: a.evicted_idle + b.evicted_idle,
        wakeups: a.wakeups + b.wakeups,
    }
}

fn add_conn(
    a: &pyjama_metrics::ConnStats,
    b: &pyjama_metrics::ConnStats,
) -> pyjama_metrics::ConnStats {
    pyjama_metrics::ConnStats {
        accepted: a.accepted + b.accepted,
        reused: a.reused + b.reused,
        pipelined: a.pipelined + b.pipelined,
        timed_out_idle: a.timed_out_idle + b.timed_out_idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_rewrites_only_the_op_digits() {
        let mut inputs = make_inputs(Service::Echo, false, 1);
        let before = inputs[0].wire.clone();
        inputs[0].stamp(1234567);
        let mut req = Request::empty();
        assert!(matches!(
            Request::parse_into(&inputs[0].wire, &mut req),
            Ok(pyjama_http::ParseStatus::Complete { .. })
        ));
        assert_eq!(req.headers.get("x-op"), Some("0001234567"));
        assert_eq!(req.headers.get("connection"), Some("keep-alive"));
        assert_eq!(req.body, inputs[0].expect);
        assert_eq!(inputs[0].wire.len(), before.len());
    }

    #[test]
    fn crypt_expectation_covers_every_block() {
        let key = IdeaKey::benchmark_key();
        let mut a = vec![7u8; 64 * 1024];
        encrypt_seq(&key, &mut a);
        let mut b = a.clone();
        *b.last_mut().unwrap() ^= 1;
        assert_ne!(crypt_digest(&a), crypt_digest(&b));
        assert_eq!(crypt_digest(&a).len(), 64);
    }
}
