//! The HTTP server with pluggable serving policies and persistent
//! (keep-alive) connections.
//!
//! Connections are accepted by a small shard of acceptor threads. Both
//! policies serve a connection with the same `Conn` and the same serving
//! step (`serve_step`): write the staged response, then parse, admit and
//! handle the next request and stage its response, until the connection
//! has to wait. They differ only in who waits, and how:
//!
//! * **JettyPool** — the paper's baseline. A pool thread owns the
//!   connection for its lifetime and waits in place: the socket has read
//!   and write timeouts, and a read that times out re-checks shutdown and
//!   the idle or mid-request deadline (thread-pinned sessions, as a
//!   thread-per-request pool does keep-alive).
//! * **Reactor** — the Pyjama policy: the paper's
//!   `target virtual(worker) nowait` handler offload, driven by readiness.
//!   Every socket goes non-blocking into the epoll reactor (`reactor`
//!   module), and a kernel readiness event posts a serving region to the
//!   virtual target, so no thread ever owns an idle connection. A
//!   half-received request or a response the socket buffer would not take
//!   re-arms the reactor, and a later region resumes at the exact byte —
//!   tens of thousands of keep-alive connections on a bounded pool.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pyjama_control::{ConfigHandle, ControlPlane};
use pyjama_events::Latch;
use pyjama_metrics::{AdmissionCounters, AdmissionStats, ConnCounters, ConnStats, ReactorStats};
use pyjama_runtime::{Runtime, TargetRegion, VirtualTarget, WorkerTarget};
use pyjama_trace::{arg as trace_arg, Stage, TraceId};

use crate::conn::Conn;
use crate::message::{ParseStatus, ReadError, Request, Response, Status};
use crate::reactor::{Interest, Reactor, ReactorShared, Reg, RegKind};

/// The request handler: pure application logic, shared across policies so
/// the benchmark isolates the *serving strategy*.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// How incoming connections are turned into handler executions.
#[derive(Clone)]
pub enum ServingPolicy {
    /// Jetty-style: a fixed pool of `threads` workers; each connection is
    /// handed to a pool thread which serves it until it closes.
    JettyPool {
        /// Pool size.
        threads: usize,
    },
    /// Pyjama-style: handlers are offloaded to the named virtual target
    /// with `nowait` — `//#omp target virtual(worker) nowait` around the
    /// handler body. An epoll reactor thread owns every accepted socket and
    /// posts a serving region whenever the kernel reports readiness. No
    /// blocking connection I/O anywhere; the connection ceiling is the fd
    /// limit, not the thread count.
    Reactor {
        /// The runtime owning the target.
        runtime: Arc<Runtime>,
        /// Virtual-target name (a worker pool).
        target: String,
    },
}

/// Tunables for the serving pipeline. [`Default`] matches the benchmark
/// configuration; [`HttpServer::start`] uses it.
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Number of acceptor threads sharing the listener.
    pub acceptors: usize,
    /// Honor HTTP/1.1 keep-alive. When `false` every response carries
    /// `connection: close` (the pre-keep-alive behaviour, kept as the
    /// baseline the benchmarks compare against).
    pub keep_alive: bool,
    /// Close a connection after this many responses.
    pub max_requests_per_conn: u32,
    /// Evict a keep-alive connection idle for this long.
    pub idle_timeout: Duration,
    /// Per-read/write deadline on client sockets. A client that stalls
    /// mid-request (or never drains a response) fails its own I/O within
    /// this bound instead of pinning a serving thread forever.
    pub io_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            acceptors: 2,
            keep_alive: true,
            max_requests_per_conn: 1000,
            idle_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_millis(500),
        }
    }
}

/// Live-control context attached by [`HttpServer::start_controlled`].
struct ControlCtx {
    /// Lock-free config reads: one `Acquire` load per access.
    handle: ConfigHandle,
    /// Queue-depth probe for admission decisions — pending regions on the
    /// serving pool/target. Wired once the policy's pool exists (it is
    /// built after the shared state that carries this context).
    depth: OnceLock<Arc<dyn Fn() -> usize + Send + Sync>>,
}

struct ServerShared {
    handler: Handler,
    stop: AtomicBool,
    served: AtomicU64,
    errors: AtomicU64,
    conn: ConnCounters,
    /// Reactor-policy regions posted but not yet finished. The virtual
    /// target belongs to the application's runtime — `shutdown` cannot join
    /// it, so it drains this latch instead.
    drain: Arc<Latch>,
    opts: ServerOptions,
    /// Admission accounting: `offered == admitted + shed` always holds.
    admission: AdmissionCounters,
    /// `Some` only for [`HttpServer::start_controlled`] servers.
    control: Option<ControlCtx>,
}

impl ServerShared {
    /// Options for a *new* session: the construction-time options overlaid
    /// with the live config snapshot (one `Acquire` load when controlled).
    /// Existing sessions keep the options they were accepted under.
    fn effective_opts(&self) -> ServerOptions {
        match &self.control {
            Some(ctl) => {
                let cfg = ctl.handle.config();
                ServerOptions {
                    acceptors: self.opts.acceptors,
                    keep_alive: self.opts.keep_alive,
                    max_requests_per_conn: cfg.max_requests_per_conn.max(1),
                    idle_timeout: Duration::from_millis(cfg.idle_timeout_ms),
                    io_timeout: Duration::from_millis(cfg.io_timeout_ms),
                }
            }
            None => self.opts,
        }
    }

    /// The live request-body cap (the codec default when uncontrolled).
    fn max_body(&self) -> usize {
        match &self.control {
            Some(ctl) => ctl.handle.config().max_body_bytes,
            None => crate::message::MAX_BODY_BYTES,
        }
    }

    /// Admission decision for one parsed request: `None` admits it; `Some`
    /// carries the `429 Retry-After` the caller writes *instead of* running
    /// the handler. Every offered request lands in exactly one of
    /// `admitted`/`shed`, preserving `offered == admitted + shed`.
    fn admit(&self, trace: TraceId) -> Option<Response> {
        self.admission.offered.inc();
        if let Some(ctl) = &self.control {
            let cfg = ctl.handle.config();
            if cfg.admission_threshold > 0 {
                let depth = ctl.depth.get().map_or(0, |probe| probe());
                if depth > cfg.admission_threshold {
                    self.admission.shed.inc();
                    pyjama_trace::emit(
                        trace,
                        Stage::AdmissionShed,
                        depth.min(u32::MAX as usize) as u32,
                    );
                    return Some(Response::too_many_requests(cfg.retry_after_secs));
                }
            }
        }
        self.admission.admitted.inc();
        None
    }
}

/// A running HTTP server bound to an ephemeral loopback port.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    acceptors: Vec<JoinHandle<()>>,
    pool: Option<Arc<WorkerTarget>>,
    reactor: Option<Reactor>,
}

impl HttpServer {
    /// Starts a server with the given policy, default options and handler.
    pub fn start(
        policy: ServingPolicy,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        Self::start_with(policy, ServerOptions::default(), handler)
    }

    /// Starts a server with explicit [`ServerOptions`].
    pub fn start_with(
        policy: ServingPolicy,
        opts: ServerOptions,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        Self::start_inner(policy, opts, None, handler)
    }

    /// Starts a server wired to a live [`ControlPlane`]: connection limits
    /// and deadlines for *new* sessions, the request-body cap, and the
    /// admission threshold all follow the plane's current config snapshot
    /// (each read is one `Acquire` load). When the pending-region depth on
    /// the serving pool exceeds `Config::admission_threshold`, further
    /// requests are shed with `429 Retry-After` instead of queueing.
    pub fn start_controlled(
        policy: ServingPolicy,
        opts: ServerOptions,
        plane: &ControlPlane,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        Self::start_inner(policy, opts, Some(plane.handle()), handler)
    }

    fn start_inner(
        policy: ServingPolicy,
        mut opts: ServerOptions,
        control: Option<ConfigHandle>,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        opts.acceptors = opts.acceptors.max(1);
        opts.max_requests_per_conn = opts.max_requests_per_conn.max(1);

        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            handler: Arc::new(handler),
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            conn: ConnCounters::new(),
            drain: Arc::default(),
            opts,
            admission: AdmissionCounters::new(),
            control: control.map(|handle| ControlCtx {
                handle,
                depth: OnceLock::new(),
            }),
        });

        let (pool, reactor, sink) = match &policy {
            ServingPolicy::JettyPool { threads } => {
                // The Jetty policy needs its own pool; reuse WorkerTarget
                // (it is a plain fixed pool when used without the runtime's
                // semantics).
                let pool = WorkerTarget::new("jetty-pool", (*threads).max(1));
                let sink = AcceptSink::Jetty {
                    pool: Arc::clone(&pool),
                    label: Arc::from("http-conn"),
                };
                (Some(pool), None, sink)
            }
            ServingPolicy::Reactor { runtime, target } => {
                let reactor_shared = ReactorShared::new_controlled(
                    shared.control.as_ref().map(|c| c.handle.clone()),
                )?;
                // Resolve the target once; when it is not registered (yet)
                // fall back to a per-request lookup so each failed dispatch
                // is counted instead of the server refusing to start.
                let dispatch = match runtime.lookup(target) {
                    Ok(t) => Dispatch::Direct(t),
                    Err(_) => Dispatch::Lookup {
                        runtime: Arc::clone(runtime),
                        name: target.clone(),
                    },
                };
                let ctx = Arc::new(ReactorCtx {
                    post: TargetPost {
                        shared: Arc::clone(&shared),
                        dispatch,
                        label: Arc::from(format!("target virtual({target}) reactor").as_str()),
                    },
                    reactor: Arc::clone(&reactor_shared),
                });
                // Kernel readiness → one serving region. Both hooks run on
                // the reactor thread, so they only post and count. The
                // region captures the boxed connection and two `Arc`s, small
                // enough to be stored inline: posting allocates nothing.
                let on_ready = {
                    let ctx = Arc::clone(&ctx);
                    move |conn: Box<Conn>, interest: Interest| {
                        let arg = match interest {
                            Interest::Read => trace_arg::READY_READABLE,
                            Interest::Write => trace_arg::READY_WRITABLE,
                        };
                        pyjama_trace::emit(conn.trace, Stage::ReactorReady, arg);
                        let ctx2 = Arc::clone(&ctx);
                        let trace = conn.trace;
                        let posted =
                            ctx.post.post(trace, move || drive_reactor_conn(conn, &ctx2));
                        if !posted {
                            ctx.post.shared.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                };
                let on_timeout = {
                    let shared = Arc::clone(&shared);
                    move |conn: Box<Conn>, idle: bool| {
                        pyjama_trace::emit(conn.trace, Stage::ReactorReady, trace_arg::READY_TIMEOUT);
                        if idle {
                            // Normal keep-alive lifecycle: the client went
                            // quiet between requests.
                            shared.conn.timed_out_idle.inc();
                        } else {
                            // Stalled mid-request or mid-response.
                            shared.errors.fetch_add(1, Ordering::Relaxed);
                        }
                        drop(conn); // closes the socket
                    }
                };
                let reactor = Reactor::spawn(Arc::clone(&reactor_shared), on_ready, on_timeout)?;
                (None, Some(reactor), AcceptSink::Reactor { ctx })
            }
        };

        // Wire the admission depth probe now that the serving pool exists:
        // queue depth is the pending-region count on whatever executes the
        // handlers for this policy.
        if let Some(ctl) = &shared.control {
            let probe: Arc<dyn Fn() -> usize + Send + Sync> = match &sink {
                AcceptSink::Jetty { pool, .. } => {
                    let pool = Arc::clone(pool);
                    Arc::new(move || pool.pending())
                }
                AcceptSink::Reactor { ctx } => {
                    // Weak: `ctx` owns the `ServerShared` that owns this
                    // probe, and a strong capture would keep both alive.
                    let ctx = Arc::downgrade(ctx);
                    Arc::new(move || ctx.upgrade().map_or(0, |ctx| ctx.post.dispatch.pending()))
                }
            };
            let _ = ctl.depth.set(probe);
        }

        let mut acceptors = Vec::with_capacity(opts.acceptors);
        for i in 0..opts.acceptors {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let sink = sink.clone();
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("http-acceptor-{i}"))
                    .spawn(move || accept_loop(listener, shared, sink))
                    .expect("failed to spawn acceptor"),
            );
        }

        Ok(HttpServer {
            addr,
            shared,
            acceptors,
            pool,
            reactor,
        })
    }

    /// The bound address (`127.0.0.1:<ephemeral>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far (counted after the response write succeeds,
    /// so the value is monotone — it never decrements).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// A detached probe for [`served`](Self::served): a closure another
    /// thread can poll while this handle stays usable (e.g. a monotonicity
    /// sampler racing `shutdown`).
    pub fn served_probe(&self) -> impl Fn() -> u64 + Send + Sync + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.served.load(Ordering::Relaxed)
    }

    /// Connections/requests that failed mid-flight.
    pub fn errors(&self) -> u64 {
        self.shared.errors.load(Ordering::Relaxed)
    }

    /// Admission-control counters. The conservation law
    /// `offered == admitted + shed` holds on a quiesced server.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.shared.admission.snapshot()
    }

    /// A detached probe for [`admission_stats`](Self::admission_stats),
    /// e.g. for wiring into an [`AdminServer`](crate::admin::AdminServer)
    /// while this handle stays usable.
    pub fn admission_probe(&self) -> impl Fn() -> AdmissionStats + Send + Sync + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.admission.snapshot()
    }

    /// Connection-lifecycle counters (accepts, reuse, pipelining, idle
    /// evictions).
    pub fn conn_stats(&self) -> ConnStats {
        self.shared.conn.snapshot()
    }

    /// Zeroes the connection-lifecycle counters. Quiesce the server first
    /// for exact figures; increments racing the reset land on either side.
    pub fn reset_conn_stats(&self) {
        self.shared.conn.reset();
    }

    /// The options the server is running with (normalised).
    pub fn options(&self) -> ServerOptions {
        self.shared.opts
    }

    /// Reactor counters (registrations, readiness events, dispatches,
    /// re-arms and their conservation law) — `Some` only under
    /// [`ServingPolicy::Reactor`].
    pub fn reactor_stats(&self) -> Option<ReactorStats> {
        self.reactor.as_ref().map(|r| r.stats())
    }

    /// Stops accepting, unblocks and joins every acceptor, stops the reactor
    /// (closing registered connections) and shuts the Jetty pool down.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock `accept`: each blocked acceptor consumes exactly one
        // throwaway connection, so make one per acceptor thread.
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        }
        for a in self.acceptors.drain(..) {
            let _ = a.join();
        }
        // Stop the reactor before quiescing: registered connections close
        // (clients see EOF) and an in-flight region that tries to re-arm
        // afterwards finds the table closed and drops its connection.
        // (Kept in place, not taken: `reactor_stats` stays readable on the
        // quiesced server, where the conservation law is exact.)
        if let Some(reactor) = self.reactor.as_mut() {
            reactor.shutdown();
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        // Quiesce serving regions still running on the application's worker
        // target (which is not ours to join): with `stop` set, the acceptors
        // gone and the reactor closed, no region re-arms, so the count only
        // falls. The deadline is a backstop against a target that was shut
        // down underneath us with regions still queued.
        self.shared.drain.wait_idle(Some(Instant::now() + Duration::from_secs(5)));
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where an acceptor hands a fresh connection.
#[derive(Clone)]
enum AcceptSink {
    Jetty {
        pool: Arc<WorkerTarget>,
        label: Arc<str>,
    },
    Reactor {
        ctx: Arc<ReactorCtx>,
    },
}

/// How the Reactor policy reaches its virtual target.
enum Dispatch {
    /// Resolved once at startup — the hot path posts with no registry
    /// access or name formatting.
    Direct(Arc<dyn VirtualTarget>),
    /// The target was unknown at startup; retry the lookup per request.
    Lookup { runtime: Arc<Runtime>, name: String },
}

impl Dispatch {
    /// Pending (posted, not yet started) regions on the resolved target;
    /// 0 when the target cannot be resolved.
    fn pending(&self) -> usize {
        match self {
            Dispatch::Direct(t) => t.pending(),
            Dispatch::Lookup { runtime, name } => {
                runtime.lookup(name).map(|t| t.pending()).unwrap_or(0)
            }
        }
    }
}

/// A drain-counted post of a `nowait` region to the virtual target —
/// the dispatch half of the Reactor policy.
struct TargetPost {
    shared: Arc<ServerShared>,
    dispatch: Dispatch,
    /// Interned region label: re-posting clones the `Arc` instead of
    /// formatting a fresh string per request.
    label: Arc<str>,
}

/// Everything a Reactor-policy serving region needs: the target post plus
/// the reactor the connection re-arms through.
struct ReactorCtx {
    post: TargetPost,
    reactor: Arc<ReactorShared>,
}

impl TargetPost {
    /// Posts `body` to the virtual target as a `nowait` region continuing
    /// the connection's trace flow. Returns `false` when the target cannot
    /// be resolved.
    fn post(&self, trace: TraceId, body: impl FnOnce() + Send + 'static) -> bool {
        // Count the region in flight until `body` (with its counter updates)
        // has finished, or until the region drops unrun: `shutdown` drains.
        let entry = self.shared.drain.enter();
        let region = TargetRegion::with_label_trace(Arc::clone(&self.label), trace, move || {
            body();
            drop(entry);
        });
        match &self.dispatch {
            Dispatch::Direct(t) => t.post(region),
            Dispatch::Lookup { runtime, name } => match runtime.lookup(name) {
                Ok(t) => t.post(region),
                Err(_) => return false,
            },
        }
        true
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>, sink: AcceptSink) {
    let mut consecutive_errors: u32 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => {
                consecutive_errors = 0;
                s
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failures (ECONNABORTED, EMFILE, …) used
                // to busy-spin this thread at 100% CPU. Back off
                // exponentially instead, capped at 128ms so recovery from a
                // brief fd exhaustion stays prompt.
                consecutive_errors = consecutive_errors.saturating_add(1);
                std::thread::sleep(Duration::from_millis(1u64 << consecutive_errors.min(7)));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Capture this session's effective options once, at accept: a live
        // reconfiguration changes sessions accepted after it, never one
        // mid-flight.
        let session_opts = shared.effective_opts();
        // Each policy sets the socket mode it waits in: the reactor never
        // blocks on a socket, a pool thread blocks in bounded slices.
        let conn = Conn::new(stream).and_then(|conn| {
            let sock = conn.socket();
            match &sink {
                AcceptSink::Reactor { .. } => sock.set_nonblocking(true)?,
                AcceptSink::Jetty { .. } => {
                    sock.set_read_timeout(Some(POOL_READ_SLICE))?;
                    sock.set_write_timeout(Some(session_opts.io_timeout))?;
                }
            }
            Ok(conn)
        });
        let mut conn = match conn {
            Ok(c) => c,
            Err(_) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        shared.conn.accepted.inc();
        conn.trace = TraceId::mint();
        conn.opts = session_opts;
        pyjama_trace::emit(conn.trace, Stage::ConnAccepted, 0);
        match &sink {
            AcceptSink::Reactor { ctx } => {
                // Straight to the reactor with read interest: the first
                // readiness event reads the first request.
                ctx.reactor.register(Reg {
                    conn,
                    interest: Interest::Read,
                    deadline: Instant::now() + session_opts.idle_timeout,
                    idle: true,
                    kind: RegKind::Initial,
                });
            }
            AcceptSink::Jetty { pool, label } => {
                // A pool thread owns the whole keep-alive session.
                let shared = Arc::clone(&shared);
                let trace = conn.trace;
                pool.post(TargetRegion::with_label_trace(
                    Arc::clone(label),
                    trace,
                    move || serve_on_pool_thread(conn, &shared),
                ));
            }
        }
    }
}

/// What a connection waits for when a serving step returns.
enum Wait {
    /// More request bytes; `idle` when none of the next request has arrived.
    Read { idle: bool },
    /// Room in the socket buffer for the rest of the staged response.
    Write,
    /// The step's request budget ran out with the connection still runnable.
    Budget,
    /// Closed: dropping the connection closes the socket.
    Closed,
}

/// True for an error that means "not now": `WouldBlock` from a non-blocking
/// socket, or a socket timeout (`WouldBlock` on Unix, `TimedOut` elsewhere).
fn must_wait(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The serving step both policies run. It resumes the connection's state
/// machine exactly where the last step (or the accept) left it: it writes
/// the staged response, then parses the next request out of the buffered
/// bytes, admits it, runs the handler (or sheds it) and stages the
/// response — at most `budget` requests — until the connection must wait
/// for the socket or closes. It counts every outcome; the caller only
/// decides how to wait.
fn serve_step(conn: &mut Conn, shared: &ServerShared, mut budget: u32) -> Wait {
    let opts = conn.opts;
    // One Acquire load per step: a live body-cap change applies from the
    // next step onwards.
    let max_body = shared.max_body();
    loop {
        // Phase 1: push staged response bytes.
        if conn.has_pending_output() {
            match conn.write_step() {
                Ok(()) => {
                    // Count only after the write succeeded: `served` is
                    // monotone and a request is never double-counted.
                    conn.served += 1;
                    shared.served.fetch_add(1, Ordering::Relaxed);
                    pyjama_trace::emit(conn.trace, Stage::ResponseWritten, conn.served);
                    if conn.served > 1 {
                        shared.conn.reused.inc();
                    }
                    if conn.buffered() > 0 {
                        shared.conn.pipelined.inc();
                    }
                    if conn.close_after_write || shared.stop.load(Ordering::SeqCst) {
                        return Wait::Closed;
                    }
                }
                Err(e) if must_wait(&e) => return Wait::Write,
                Err(_) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    return Wait::Closed;
                }
            }
        }
        // Phase 2: parse the next request out of the accumulated bytes.
        if budget == 0 {
            return Wait::Budget;
        }
        match conn.parse_step(max_body) {
            Ok(ParseStatus::Complete { .. }) => {
                let resp = match shared.admit(conn.trace) {
                    Some(shed) => shed,
                    None => run_handler(shared, &conn.req),
                };
                // `opts` are the session's options, captured at accept.
                let close = conn.req.wants_close()
                    || !opts.keep_alive
                    || conn.served + 1 >= opts.max_requests_per_conn
                    || shared.stop.load(Ordering::SeqCst);
                conn.stage_response(&resp, close);
                budget -= 1;
            }
            Ok(ParseStatus::NeedMore) => match conn.read_step() {
                Ok(0) => {
                    // EOF. Truncated request bytes — or a connection that
                    // never produced a request — count as errors; a clean
                    // close between requests doesn't.
                    if conn.buffered() > 0 || conn.served == 0 {
                        shared.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    return Wait::Closed;
                }
                Ok(_) => {}
                Err(e) if must_wait(&e) => {
                    return Wait::Read {
                        idle: conn.buffered() == 0,
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    return Wait::Closed;
                }
            },
            Err(ReadError::BadRequest(msg)) => {
                // Answer 400 and close; the staged write goes through the
                // same resumable write path above.
                let resp = Response::error(Status::BadRequest, msg);
                conn.stage_response(&resp, true);
                shared.errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                return Wait::Closed;
            }
        }
    }
}

/// How long a pool thread's read waits before it re-checks shutdown and
/// the connection's deadline (the socket's read timeout).
const POOL_READ_SLICE: Duration = Duration::from_millis(50);

/// The Jetty-policy driver: the pool thread that owns `conn` runs the
/// serving step and waits in place until the connection closes. A wait
/// with no progress ends at its deadline — `idle_timeout` between
/// requests, `io_timeout` before the first request and mid-request — at
/// most one read slice late. A write that times out is a stalled client.
fn serve_on_pool_thread(mut conn: Box<Conn>, shared: &ServerShared) {
    // The wait in progress: the progress mark it began at, and its deadline.
    let mut waiting = None;
    loop {
        let idle = match serve_step(&mut conn, shared, u32::MAX) {
            Wait::Read { idle } => idle,
            // Four billion requests in one step; just continue.
            Wait::Budget => continue,
            Wait::Closed => return,
            Wait::Write => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let between_requests = idle && conn.served > 0;
        let mark = (conn.served, conn.buffered());
        let deadline = match waiting {
            Some((since, deadline)) if since == mark => deadline,
            _ if between_requests => Instant::now() + conn.opts.idle_timeout,
            _ => Instant::now() + conn.opts.io_timeout,
        };
        if Instant::now() >= deadline {
            if between_requests {
                shared.conn.timed_out_idle.inc();
            } else {
                shared.errors.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        waiting = Some((mark, deadline));
    }
}

/// How many requests one Reactor-policy serving region may answer before
/// it re-posts itself — keeps one fast pipelining client from monopolising
/// a pool worker.
const REACTOR_REQUEST_BUDGET: u32 = 32;

/// The Reactor-policy driver, run as a serving region: one serving step,
/// then the connection goes back to the reactor for whatever it waits for
/// — read interest for the next (or the rest of a) request, write interest
/// for a response the socket buffer would not take — so no worker thread
/// ever blocks on connection I/O.
fn drive_reactor_conn(mut conn: Box<Conn>, ctx: &Arc<ReactorCtx>) {
    let (interest, idle) = match serve_step(&mut conn, &ctx.post.shared, REACTOR_REQUEST_BUDGET) {
        Wait::Closed => return,
        Wait::Budget => {
            // Yield the worker and continue in a fresh region. Buffered bytes
            // never re-trigger kernel readiness, so this must re-post
            // directly rather than re-arm through the reactor.
            pyjama_trace::emit(conn.trace, Stage::ConnRearm, conn.served);
            let ctx2 = Arc::clone(ctx);
            let trace = conn.trace;
            if !ctx.post.post(trace, move || drive_reactor_conn(conn, &ctx2)) {
                ctx.post.shared.errors.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        // Socket buffer full: wait for EPOLLOUT.
        Wait::Write => (Interest::Write, false),
        // The read buffer stays: the reactor's sweep releases it if the
        // connection is still idle then.
        Wait::Read { idle } => (Interest::Read, idle),
    };
    let (kind, arg) = match interest {
        Interest::Read => (RegKind::RearmRead, trace_arg::REARM_READ),
        Interest::Write => (RegKind::RearmWrite, trace_arg::REARM_WRITE),
    };
    let timeout = if idle {
        conn.opts.idle_timeout
    } else {
        conn.opts.io_timeout
    };
    pyjama_trace::emit(conn.trace, Stage::ReactorRearm, arg);
    ctx.reactor.register(Reg {
        conn,
        interest,
        deadline: Instant::now() + timeout,
        idle,
        kind,
    });
}

fn run_handler(shared: &ServerShared, req: &Request) -> Response {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (shared.handler)(req))) {
        Ok(resp) => resp,
        Err(_) => Response::error(Status::InternalServerError, "handler panicked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{http_post, ClientConn};
    use std::io::{BufReader, Write as _};

    fn echo_handler(req: &Request) -> Response {
        Response::ok(req.body.clone())
    }

    /// `served` is bumped after the response write, so a client can observe
    /// its response a moment before the counter: spin briefly.
    fn wait_served(server: &HttpServer, n: u64) {
        let t0 = Instant::now();
        while server.served() < n && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.served(), n);
    }

    /// Both policies, the reactor on a fresh two-worker target.
    fn both_policies() -> [ServingPolicy; 2] {
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_create_worker("worker", 2);
        [
            ServingPolicy::JettyPool { threads: 2 },
            ServingPolicy::Reactor {
                runtime: rt,
                target: "worker".into(),
            },
        ]
    }

    /// The error counter lands around the connection's end: spin briefly.
    fn wait_errors(server: &HttpServer) -> u64 {
        let t0 = Instant::now();
        while server.errors() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        server.errors()
    }

    #[test]
    fn jetty_policy_serves_requests() {
        let mut server =
            HttpServer::start(ServingPolicy::JettyPool { threads: 4 }, echo_handler).unwrap();
        let resp = http_post(server.addr(), "/echo", b"hello".to_vec()).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, b"hello");
        wait_served(&server, 1);
        assert_eq!(server.conn_stats().accepted, 1);
        server.shutdown();
    }

    #[test]
    fn reactor_policy_serves_requests() {
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_create_worker("worker", 4);
        let mut server = HttpServer::start(
            ServingPolicy::Reactor {
                runtime: Arc::clone(&rt),
                target: "worker".into(),
            },
            echo_handler,
        )
        .unwrap();
        let resp = http_post(server.addr(), "/echo", b"reactor".to_vec()).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, b"reactor");
        wait_served(&server, 1);
        let stats = server.reactor_stats().expect("reactor policy");
        assert_eq!(stats.registered, 1);
        assert!(stats.dispatched >= 1);
        assert!(stats.readiness_balanced(), "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn reactor_keep_alive_session_reuses_one_socket() {
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_create_worker("worker", 2);
        let mut server = HttpServer::start(
            ServingPolicy::Reactor {
                runtime: rt,
                target: "worker".into(),
            },
            echo_handler,
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..3u8 {
            let mut req = Request::new("POST", "/echo", vec![i; 4]);
            req.headers.insert("connection", "keep-alive");
            let mut wire = Vec::new();
            req.write_into(&mut wire);
            stream.write_all(&wire).unwrap();
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.body, vec![i; 4]);
            assert!(!resp.announces_close());
            // Pace the session so the serving region drains the socket and
            // re-arms between requests. (Unpaced, the next request can land
            // before the region hits `WouldBlock`, and one region serves
            // the whole session — the fast path, but not what this test is
            // exercising.)
            std::thread::sleep(Duration::from_millis(40));
        }
        wait_served(&server, 3);
        let stats = server.conn_stats();
        assert_eq!(stats.accepted, 1, "one socket for all three requests");
        assert_eq!(stats.reused, 2);
        let rs = server.reactor_stats().unwrap();
        assert!(rs.rearms() >= 2, "between-request re-arms expected: {rs:?}");
        assert!(rs.dispatched >= 3, "each paced request needs its own dispatch: {rs:?}");
        assert!(rs.readiness_balanced(), "{rs:?}");
        server.shutdown();
    }

    #[test]
    fn reactor_idle_connection_evicted_not_errored() {
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_create_worker("worker", 2);
        let opts = ServerOptions {
            idle_timeout: Duration::from_millis(100),
            ..ServerOptions::default()
        };
        let mut server = HttpServer::start_with(
            ServingPolicy::Reactor {
                runtime: rt,
                target: "worker".into(),
            },
            opts,
            echo_handler,
        )
        .unwrap();
        // A connection that never sends a request goes idle past the
        // deadline: evicted as keep-alive lifecycle, not an error.
        let silent = TcpStream::connect(server.addr()).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        use std::io::Read as _;
        let mut buf = [0u8; 8];
        assert_eq!((&silent).read(&mut buf).unwrap(), 0, "server closed it");
        let t0 = Instant::now();
        while server.conn_stats().timed_out_idle == 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.conn_stats().timed_out_idle, 1);
        assert_eq!(server.errors(), 0);
        assert_eq!(server.reactor_stats().unwrap().evicted_idle, 1);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_served() {
        let mut server =
            HttpServer::start(ServingPolicy::JettyPool { threads: 8 }, echo_handler).unwrap();
        let addr = server.addr();
        let hs: Vec<_> = (0..16)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = format!("client-{i}").into_bytes();
                    let resp = http_post(addr, "/echo", body.clone()).unwrap();
                    assert_eq!(resp.body, body);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        wait_served(&server, 16);
        server.shutdown();
    }

    #[test]
    fn keep_alive_session_serves_multiple_requests_on_one_socket() {
        let mut server =
            HttpServer::start(ServingPolicy::JettyPool { threads: 2 }, echo_handler).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..3u8 {
            let mut req = Request::new("POST", "/echo", vec![i; 4]);
            req.headers.insert("connection", "keep-alive");
            let mut wire = Vec::new();
            req.write_into(&mut wire);
            stream.write_all(&wire).unwrap();
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.body, vec![i; 4]);
            assert!(!resp.announces_close());
        }
        wait_served(&server, 3);
        let stats = server.conn_stats();
        assert_eq!(stats.accepted, 1, "one socket for all three requests");
        assert_eq!(stats.reused, 2);
        server.shutdown();
    }

    #[test]
    fn keep_alive_disabled_closes_after_each_response() {
        let opts = ServerOptions {
            keep_alive: false,
            ..ServerOptions::default()
        };
        let mut server =
            HttpServer::start_with(ServingPolicy::JettyPool { threads: 2 }, opts, echo_handler)
                .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut req = Request::new("POST", "/echo", b"x".to_vec());
        req.headers.insert("connection", "keep-alive");
        let mut wire = Vec::new();
        req.write_into(&mut wire);
        stream.write_all(&wire).unwrap();
        let mut reader = BufReader::new(stream);
        let resp = Response::read_from(&mut reader).unwrap();
        assert!(resp.announces_close(), "keep_alive=false must force close");
        use std::io::Read as _;
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "server closed");
        assert_eq!(server.conn_stats().reused, 0);
        server.shutdown();
    }

    #[test]
    fn panicking_handler_becomes_500() {
        let mut server = HttpServer::start(ServingPolicy::JettyPool { threads: 2 }, |req| {
            if req.path == "/boom" {
                panic!("handler bug");
            }
            Response::ok(vec![])
        })
        .unwrap();
        let resp = http_post(server.addr(), "/boom", vec![]).unwrap();
        assert_eq!(resp.status, Status::InternalServerError);
        // Server still works afterwards.
        let ok = http_post(server.addr(), "/fine", vec![]).unwrap();
        assert_eq!(ok.status, Status::Ok);
        server.shutdown();
    }

    #[test]
    fn malformed_post_gets_400_immediately() {
        for policy in both_policies() {
            let mut server = HttpServer::start(policy, echo_handler).unwrap();
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // POST with a body but no content-length: previously this stalled
            // until the I/O timeout; now it must be answered right away.
            let t0 = Instant::now();
            stream.write_all(b"POST /x HTTP/1.1\r\n\r\nrogue").unwrap();
            let resp = Response::read_from(&mut BufReader::new(stream)).unwrap();
            assert_eq!(resp.status, Status::BadRequest);
            assert!(
                t0.elapsed() < Duration::from_millis(400),
                "400 must not wait for the I/O timeout (took {:?})",
                t0.elapsed()
            );
            assert!(wait_errors(&server) >= 1);
            server.shutdown();
        }
    }

    #[test]
    fn unknown_target_counts_error() {
        let rt = Arc::new(Runtime::new()); // no targets registered
        let mut server = HttpServer::start(
            ServingPolicy::Reactor {
                runtime: rt,
                target: "ghost".into(),
            },
            echo_handler,
        )
        .unwrap();
        // The request cannot be dispatched; the client sees a dropped
        // connection or empty response.
        let _ = http_post(server.addr(), "/echo", b"x".to_vec());
        assert!(wait_errors(&server) >= 1);
        server.shutdown();
    }

    #[test]
    fn stalled_client_times_out_and_does_not_block_accepts() {
        // A connection that never sends a request used to pin the single
        // pool thread indefinitely; with per-connection I/O timeouts it
        // fails within the I/O timeout and later requests are served.
        let mut server =
            HttpServer::start(ServingPolicy::JettyPool { threads: 1 }, echo_handler).unwrap();
        let stalled = TcpStream::connect(server.addr()).unwrap(); // sends nothing
        std::thread::sleep(Duration::from_millis(50)); // ensure it is accepted first
        let resp = http_post(server.addr(), "/echo", b"alive".to_vec()).unwrap();
        assert_eq!(resp.body, b"alive");
        assert!(wait_errors(&server) >= 1, "the stalled connection must be counted");
        drop(stalled);
        server.shutdown();
    }

    #[test]
    fn stalled_client_does_not_block_reactor_acceptor() {
        // Under the Reactor policy an acceptor never reads: a silent
        // connection sits registered with the reactor while later clients
        // are accepted and served.
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_create_worker("worker", 2);
        let mut server = HttpServer::start(
            ServingPolicy::Reactor {
                runtime: rt,
                target: "worker".into(),
            },
            echo_handler,
        )
        .unwrap();
        let stalled = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let resp = http_post(server.addr(), "/echo", b"alive".to_vec()).unwrap();
        assert_eq!(resp.body, b"alive");
        drop(stalled);
        server.shutdown();
    }

    #[test]
    fn eof_is_an_error_only_mid_request() {
        for policy in both_policies() {
            let mut server = HttpServer::start(policy, echo_handler).unwrap();
            // A keep-alive request answered, then the client's close between
            // requests: the normal end of a session.
            let mut req = Request::new("POST", "/echo", b"ok".to_vec());
            req.headers.insert("connection", "keep-alive");
            let resp = ClientConn::new(server.addr()).send(&req).unwrap();
            assert!(!resp.announces_close());
            // A body cut short by the client's close: the connection ends
            // with no response and counts as an error.
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .write_all(b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
                .unwrap();
            drop(stream);
            assert_eq!(wait_errors(&server), 1);
            std::thread::sleep(Duration::from_millis(100));
            assert_eq!(server.errors(), 1, "a clean close is not an error");
            assert_eq!(server.served(), 1);
            server.shutdown();
        }
    }

    #[test]
    fn controlled_reactor_server_frees_its_shared_state() {
        // The admission depth probe lives in the server's shared state; it
        // must not keep that state alive once the server is gone.
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_create_worker("worker", 2);
        let plane = ControlPlane::new();
        let mut server = HttpServer::start_controlled(
            ServingPolicy::Reactor {
                runtime: rt,
                target: "worker".into(),
            },
            ServerOptions::default(),
            &plane,
            echo_handler,
        )
        .unwrap();
        let resp = http_post(server.addr(), "/echo", b"once".to_vec()).unwrap();
        assert_eq!(resp.body, b"once");
        let shared = Arc::downgrade(&server.shared);
        server.shutdown();
        drop(server);
        // A finished region drops its captures just after it stops counting
        // as in flight: allow that moment.
        let t0 = Instant::now();
        while shared.upgrade().is_some() && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(shared.upgrade().is_none(), "the server's shared state outlived it");
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut server =
            HttpServer::start(ServingPolicy::JettyPool { threads: 1 }, echo_handler).unwrap();
        server.shutdown();
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_all_acceptor_shards() {
        for acceptors in [1usize, 2, 4] {
            let opts = ServerOptions {
                acceptors,
                ..ServerOptions::default()
            };
            let mut server = HttpServer::start_with(
                ServingPolicy::JettyPool { threads: 1 },
                opts,
                echo_handler,
            )
            .unwrap();
            assert_eq!(server.options().acceptors, acceptors);
            // Must return promptly with every shard joined, not hang on
            // an acceptor that never got woken.
            let t0 = Instant::now();
            server.shutdown();
            assert!(
                t0.elapsed() < Duration::from_secs(3),
                "shutdown with {acceptors} acceptors took {:?}",
                t0.elapsed()
            );
        }
    }

    #[test]
    fn options_are_normalised() {
        let opts = ServerOptions {
            acceptors: 0,
            max_requests_per_conn: 0,
            ..ServerOptions::default()
        };
        let mut server =
            HttpServer::start_with(ServingPolicy::JettyPool { threads: 1 }, opts, echo_handler)
                .unwrap();
        assert_eq!(server.options().acceptors, 1);
        assert_eq!(server.options().max_requests_per_conn, 1);
        server.shutdown();
    }
}
