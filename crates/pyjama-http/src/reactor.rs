//! The readiness reactor behind [`ServingPolicy::Reactor`]: one thread
//! turning kernel readiness on every accepted socket into posted target
//! regions.
//!
//! [`ServingPolicy::Reactor`]: crate::server::ServingPolicy::Reactor
//!
//! A thread-pinned policy tops out at one blocked thread per connection
//! (Jetty). This module takes every blocking read out of the pipeline,
//! acceptors included: every accepted socket goes non-blocking and is
//! registered with epoll once, for life (elsewhere the reactor sweeps the
//! registrations with non-blocking peeks). When the
//! kernel reports readiness, the reactor *transfers ownership* of the
//! connection to the worker pool, and a bounded pool serves however many
//! thousand connections are currently readable — C10K on a handful of
//! threads.
//!
//! **Arming protocol.** The registration table — the epoll instance and the
//! token → [`Reg`] slab — lives in [`ReactorShared`] behind one mutex. The
//! thread that owns a connection arms it under that lock: the acceptor
//! `ADD`s a fresh socket, the worker whose region is done with it `MOD`s it,
//! always with `EPOLLONESHOT`. A report disarms the socket in the kernel,
//! so the reactor takes the registration out of the slab under the same lock
//! and hands the connection over with no `EPOLL_CTL_DEL`: nothing can report
//! it again until its next owner re-arms it, and because `MOD` re-checks
//! readiness, bytes that arrived while the connection was out are not lost.
//! Registration never wakes the reactor; the wake pipe only delivers `stop`.
//!
//! Deadlines are swept coarsely (~25 ms) and `epoll_wait` never sleeps past
//! the next sweep, so deadlines fire although registering wakes nobody. A
//! connection past its deadline is evicted via `on_timeout`, which
//! distinguishes *idle* evictions (between requests — normal keep-alive
//! lifecycle) from *stalled* ones (mid-request or mid-response — an error).
//! The same sweep releases the buffers of every connection that has stayed
//! idle since the previous sweep, so a busy keep-alive connection keeps its
//! read buffer across requests and a parked one holds none.
//!
//! Every readiness notification is accounted against the
//! [`ReactorCounters`] conservation law `readiness_events == dispatched +
//! spurious_ready`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pyjama_sync::Mutex;
use pyjama_control::ConfigHandle;
use pyjama_metrics::ReactorCounters;
use pyjama_trace::TraceId;

use crate::message::{ParseStatus, ReadError, Request, Response};
use crate::server::ServerOptions;

/// Spare room a read needs in the connection's read buffer.
const READ_CHUNK: usize = 16 * 1024;

/// Default deadline sweep cadence. Evictions are late by at most this much
/// — fine for timeouts measured in hundreds of milliseconds. A control
/// plane overrides it live through `Config::sweep_interval_ms`; this
/// constant is the uncontrolled default and matches `Config::DEFAULT`.
const SWEEP_MS: u64 = 25;

// ---------------------------------------------------------------------------
// Per-connection state
// ---------------------------------------------------------------------------

/// A connection as the reactor sees it: a non-blocking socket plus the
/// buffers that make request parsing and response writing *resumable* — a
/// `WouldBlock` at any byte boundary parks the connection back in the
/// reactor and a later readiness event picks up exactly where it left off.
/// It lives in one `Box` from accept to close, so handing it between the
/// reactor and a serving region moves one pointer.
pub(crate) struct ReactorConn {
    sock: TcpStream,
    /// Read buffer: `inbuf[..inlen]` are received, unparsed request bytes
    /// (possibly several pipelined requests; parsed ones are drained off the
    /// front), the rest is zeroed room the next read lands in. Kept across
    /// requests; only the deadline sweep releases it.
    inbuf: Vec<u8>,
    inlen: usize,
    /// Parsed-request shell, reused across requests.
    pub(crate) req: Request,
    /// Serialised response head, reused across responses.
    head: Vec<u8>,
    /// Response body being written (owned copy so the region that produced
    /// it can retire while the write waits for `EPOLLOUT`).
    body: Vec<u8>,
    /// Bytes of `head ++ body` already written.
    out_pos: usize,
    /// True while a staged response has unwritten bytes.
    pending: bool,
    /// Close the socket once the staged response is fully written.
    pub(crate) close_after_write: bool,
    /// Requests fully served (response written) on this connection.
    pub(crate) served: u32,
    /// Causal trace id minted at accept.
    pub(crate) trace: TraceId,
    /// Effective per-session options captured at accept (a live
    /// reconfiguration applies to *new* sessions).
    pub(crate) opts: ServerOptions,
    /// The socket is in the poller's interest set: its first arm `ADD`s it,
    /// every later one `MOD`s it. Closing the socket removes it, so a new
    /// connection that reuses the fd number starts over with an `ADD`.
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    in_poller: bool,
    /// A deadline sweep has seen the current registration idle; the next
    /// one releases its buffers. Cleared by every registration.
    swept_idle: bool,
}

impl ReactorConn {
    /// Wraps an accepted stream: `TCP_NODELAY` and non-blocking for life.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Box<ReactorConn>> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Box::new(ReactorConn {
            sock: stream,
            inbuf: Vec::new(),
            inlen: 0,
            req: Request::empty(),
            head: Vec::new(),
            body: Vec::new(),
            out_pos: 0,
            pending: false,
            close_after_write: false,
            served: 0,
            trace: TraceId::NONE,
            opts: ServerOptions::default(),
            in_poller: false,
            swept_idle: false,
        }))
    }

    /// Received request bytes not yet parsed.
    pub(crate) fn buffered(&self) -> usize {
        self.inlen
    }

    /// One non-blocking read into the read buffer. `Ok(0)` is EOF;
    /// `WouldBlock` propagates (the caller re-arms read interest).
    pub(crate) fn read_step(&mut self) -> std::io::Result<usize> {
        // Zero only growth: the initialised room is reused by every request.
        let want = self.inlen + READ_CHUNK;
        if self.inbuf.len() < want {
            self.inbuf.resize(want, 0);
        }
        let n = (&self.sock).read(&mut self.inbuf[self.inlen..])?;
        self.inlen += n;
        Ok(n)
    }

    /// Tries to parse the next request off the front of the read buffer; a
    /// complete request is drained from it (pipelined successors stay).
    /// `max_body` is the (possibly config-sourced) body cap.
    pub(crate) fn parse_step(&mut self, max_body: usize) -> Result<ParseStatus, ReadError> {
        let status =
            Request::parse_into_capped(&self.inbuf[..self.inlen], &mut self.req, max_body)?;
        if let ParseStatus::Complete { consumed } = status {
            self.inbuf.copy_within(consumed..self.inlen, 0);
            self.inlen -= consumed;
        }
        Ok(status)
    }

    /// Stages `resp` for writing (head serialised into the reused buffer,
    /// body copied so the response can outlive the handler's region).
    pub(crate) fn stage_response(&mut self, resp: &Response, close: bool) {
        let tok = if close { "close" } else { "keep-alive" };
        resp.write_head_into(&mut self.head, Some(tok));
        self.body.clear();
        self.body.extend_from_slice(&resp.body);
        self.out_pos = 0;
        self.pending = true;
        self.close_after_write = close;
    }

    /// True while staged response bytes remain unwritten.
    pub(crate) fn has_pending_output(&self) -> bool {
        self.pending
    }

    /// Releases buffer capacity an idle connection no longer needs. With
    /// tens of thousands of parked keep-alive connections, per-connection
    /// buffers (the 16 KiB read room, a possibly-large last response body)
    /// dominate the server's memory footprint; an idle connection keeps
    /// only its small reusable head buffer.
    fn release_idle_buffers(&mut self) {
        debug_assert!(self.inlen == 0 && !self.pending);
        self.inbuf = Vec::new();
        if self.body.capacity() > 4096 {
            self.body = Vec::new();
        }
    }

    /// Pushes staged response bytes at the socket until done or the socket
    /// buffer fills. `Ok(())` means fully written; `WouldBlock` propagates
    /// (the caller re-arms write interest and a later `EPOLLOUT` resumes
    /// from `out_pos`).
    pub(crate) fn write_step(&mut self) -> std::io::Result<()> {
        use std::io::IoSlice;
        let total = self.head.len() + self.body.len();
        while self.out_pos < total {
            let written = if self.out_pos < self.head.len() {
                let head_rest = &self.head[self.out_pos..];
                if self.body.is_empty() {
                    (&self.sock).write(head_rest)
                } else {
                    (&self.sock)
                        .write_vectored(&[IoSlice::new(head_rest), IoSlice::new(&self.body)])
                }
            } else {
                (&self.sock).write(&self.body[self.out_pos - self.head.len()..])
            };
            match written {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "failed to write whole response",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.pending = false;
        Ok(())
    }
}

impl std::fmt::Debug for ReactorConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorConn")
            .field("peer", &self.sock.peer_addr().ok())
            .field("served", &self.served)
            .field("buffered", &self.inlen)
            .field("pending_out", &self.pending)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Registration protocol
// ---------------------------------------------------------------------------

/// What the registration waits for — and, once it fires, the readiness that
/// dispatched the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Interest {
    /// Request bytes (or EOF / error — the read path disambiguates).
    Read,
    /// Socket buffer space for a stalled response write (error / hangup go
    /// down the write path too: the next write surfaces them).
    Write,
}

/// Why the connection is (re-)entering the reactor — drives the counter
/// taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RegKind {
    /// Fresh from `accept`.
    Initial,
    /// Re-armed for its next request (or the rest of a partial one).
    RearmRead,
    /// Re-armed after a short response write.
    RearmWrite,
}

/// One registration handed to the reactor.
pub(crate) struct Reg {
    pub(crate) conn: Box<ReactorConn>,
    pub(crate) interest: Interest,
    /// Evict if no readiness arrives by this instant.
    pub(crate) deadline: Instant,
    /// True when the connection is *between* requests — eviction is then
    /// normal keep-alive lifecycle, not an error.
    pub(crate) idle: bool,
    pub(crate) kind: RegKind,
}

/// Armed registrations by token: token `i + 1` names `slab[i]` (token 0 is
/// the wake pipe). A slot is filled and its socket armed under one lock
/// hold, so a report always finds its registration in place.
#[derive(Default)]
struct Table {
    slab: Vec<Option<Reg>>,
    free: Vec<usize>,
    /// Set by `stop`: later registrations are refused (socket closed).
    closed: bool,
}

impl Table {
    fn insert(&mut self, reg: Reg) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(reg);
                i
            }
            None => {
                self.slab.push(Some(reg));
                self.slab.len() - 1
            }
        }
    }

    fn take(&mut self, idx: usize) -> Option<Reg> {
        let reg = self.slab.get_mut(idx)?.take()?;
        self.free.push(idx);
        Some(reg)
    }
}

/// State shared between registering threads and the reactor thread.
pub(crate) struct ReactorShared {
    table: Mutex<Table>,
    poller: Poller,
    pub(crate) counters: ReactorCounters,
    /// Live config for the sweep cadence; `None` pins the built-in default.
    control: Option<ConfigHandle>,
}

impl ReactorShared {
    /// Fresh reactor state (creates the poller), uncontrolled.
    #[cfg(test)]
    pub(crate) fn new() -> std::io::Result<Arc<Self>> {
        Self::new_controlled(None)
    }

    /// Reactor state whose sweep cadence follows a live config handle
    /// (one `Acquire` load per event-loop iteration). Fails with the OS
    /// error when the poller cannot be created.
    pub(crate) fn new_controlled(control: Option<ConfigHandle>) -> std::io::Result<Arc<Self>> {
        Ok(Arc::new(ReactorShared {
            table: Mutex::new(Table::default()),
            poller: Poller::new()?,
            counters: ReactorCounters::new(),
            control,
        }))
    }

    /// The deadline-sweep interval for this iteration: one `Acquire` load
    /// when controlled, the built-in default otherwise.
    fn sweep_interval_ms(&self) -> u64 {
        self.control
            .as_ref()
            .map_or(SWEEP_MS, |h| h.config().sweep_interval_ms)
    }

    /// Arms `reg.conn` for one report of `reg.interest` and files it in the
    /// table. Only the connection's owner calls this — the acceptor for a
    /// fresh socket, the worker whose region is done with it. After `stop`
    /// the connection is dropped (socket closed): the client observes EOF,
    /// never a stranded half-open connection.
    pub(crate) fn register(&self, mut reg: Reg) {
        let kind = reg.kind;
        reg.conn.swept_idle = false;
        let mut table = self.table.lock();
        if table.closed {
            return; // `reg` drops after the guard: the socket closes unlocked
        }
        match kind {
            RegKind::Initial => self.counters.record_registered(),
            RegKind::RearmRead => self.counters.record_rearm_read(),
            RegKind::RearmWrite => self.counters.record_rearm_write(),
        }
        let idx = table.insert(reg);
        let reg = table.slab[idx].as_mut().expect("just inserted");
        if !self.poller.arm(&mut reg.conn, reg.interest, idx as u64 + 1) {
            // Arming fails only on a dead socket; dropping closes it.
            table.take(idx);
        }
    }

    /// Closes the table (later registrations are refused), closes every
    /// registered connection — clients see EOF — and wakes the reactor so
    /// it exits. Idempotent.
    pub(crate) fn stop(&self) {
        let regs = {
            let mut table = self.table.lock();
            table.closed = true;
            table.free.clear();
            std::mem::take(&mut table.slab)
        };
        self.poller.wake();
        drop(regs);
    }

    /// The deadline sweep: takes every registration past its deadline out of
    /// the table — disarmed, so its token cannot fire for the next occupant
    /// of its slot — and evicts it via `on_timeout`; releases the buffers of
    /// every connection that has stayed idle since the previous sweep (one
    /// re-armed between requests of a busy session keeps them).
    fn sweep(&self, expired: &mut Vec<Reg>, on_timeout: &impl Fn(Box<ReactorConn>, bool)) {
        let now = Instant::now();
        {
            let mut table = self.table.lock();
            for idx in 0..table.slab.len() {
                let due = match table.slab[idx].as_mut() {
                    Some(reg) if reg.deadline <= now => {
                        self.poller.disarm(&mut reg.conn);
                        true
                    }
                    Some(reg) => {
                        if reg.idle && reg.conn.swept_idle {
                            reg.conn.release_idle_buffers();
                        }
                        reg.conn.swept_idle = reg.idle;
                        false
                    }
                    None => false,
                };
                if due {
                    expired.extend(table.take(idx));
                }
            }
        }
        for reg in expired.drain(..) {
            if reg.idle {
                self.counters.record_evicted_idle();
            }
            on_timeout(reg.conn, reg.idle);
        }
    }
}

/// The reactor thread plus its shared state. Dropping (or
/// [`shutdown`](Reactor::shutdown)) stops the thread and closes every
/// still-registered connection.
pub(crate) struct Reactor {
    shared: Arc<ReactorShared>,
    thread: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Spawns the reactor over `shared`. `on_ready` receives dispatched
    /// connections (ownership transferred — the kernel has disarmed them
    /// and they are out of the table) with the interest that fired;
    /// `on_timeout` receives deadline-evicted ones with their `idle` flag.
    /// Both run on the reactor thread, so they must be cheap — the serving
    /// policy just posts a target region / bumps a counter.
    pub(crate) fn spawn(
        shared: Arc<ReactorShared>,
        on_ready: impl Fn(Box<ReactorConn>, Interest) + Send + 'static,
        on_timeout: impl Fn(Box<ReactorConn>, bool) + Send + 'static,
    ) -> std::io::Result<Reactor> {
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("http-reactor".into())
                .spawn(move || reactor_loop(shared, on_ready, on_timeout))?
        };
        Ok(Reactor {
            shared,
            thread: Some(thread),
        })
    }

    /// Snapshot of the reactor's counters.
    pub(crate) fn stats(&self) -> pyjama_metrics::ReactorStats {
        self.shared.counters.snapshot()
    }

    /// Stops and joins the reactor; registered connections are closed.
    /// Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.shared.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// File-descriptor budget
// ---------------------------------------------------------------------------

/// Ensures `RLIMIT_NOFILE` allows at least `want` open descriptors and
/// returns the resulting soft limit. Raising the *hard* limit needs
/// privilege; without it the soft limit is raised as far as the hard limit
/// allows. C10K needs ~2 fds per loopback connection when client and server
/// share a process, so benchmarks and tests size their connection counts
/// off the returned value.
pub fn nofile_limit_at_least(want: u64) -> u64 {
    #[cfg(target_os = "linux")]
    {
        let mut lim = sys::RLimit { cur: 0, max: 0 };
        if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) } != 0 {
            return want;
        }
        if lim.cur >= want {
            return lim.cur;
        }
        // Privileged path first: raise both limits to `want`.
        let raised = sys::RLimit {
            cur: want,
            max: lim.max.max(want),
        };
        if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &raised) } == 0 {
            return raised.cur;
        }
        // Unprivileged: soft up to the existing hard limit.
        let raised = sys::RLimit {
            cur: want.min(lim.max),
            max: lim.max,
        };
        if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &raised) } == 0 {
            return raised.cur;
        }
        lim.cur
    }
    #[cfg(not(target_os = "linux"))]
    {
        want
    }
}

// ---------------------------------------------------------------------------
// Linux: epoll
// ---------------------------------------------------------------------------

/// Raw epoll + rlimit FFI, declared here to keep the crate std-only (no
/// libc dependency).
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    pub(super) const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;
    pub(super) const EPOLLONESHOT: u32 = 1 << 30;

    /// `struct epoll_event`. glibc packs it on x86-64 only (the kernel ABI
    /// there has no padding between `events` and `data`); other arches use
    /// natural alignment. Fields must be copied out by value — never
    /// borrowed — because of the packed variant.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub(super) const RLIMIT_NOFILE: c_int = 7;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        pub(super) fn epoll_ctl(
            epfd: c_int,
            op: c_int,
            fd: c_int,
            event: *mut EpollEvent,
        ) -> c_int;
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub(super) fn close(fd: c_int) -> c_int;
        pub(super) fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub(super) fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }
}

#[cfg(target_os = "linux")]
use std::{os::raw::c_int, os::unix::io::AsRawFd as _, os::unix::net::UnixStream};

/// Token of the wake pipe; connection tokens are slab index + 1.
#[cfg(target_os = "linux")]
const WAKE_TOKEN: u64 = 0;

/// The epoll instance plus the wake pipe that delivers `stop` (its read end
/// is in the set as token 0, level-triggered and never drained: `stop` is
/// terminal).
#[cfg(target_os = "linux")]
struct Poller {
    epfd: c_int,
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

#[cfg(target_os = "linux")]
impl Poller {
    fn new() -> std::io::Result<Poller> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        // SAFETY: no pointer arguments; the result is checked.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // From here on `Drop` closes `epfd`.
        let poller = Poller {
            epfd,
            wake_tx,
            wake_rx,
        };
        let wake_fd = poller.wake_rx.as_raw_fd();
        poller.ctl(sys::EPOLL_CTL_ADD, wake_fd, sys::EPOLLIN, WAKE_TOKEN)?;
        Ok(poller)
    }

    fn ctl(&self, op: c_int, fd: c_int, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, properly laid out `epoll_event` for the
        // duration of the call; `epfd` is open until `Drop`.
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) } == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }

    /// Arms `conn` for one report of `interest` under `token`. Fails only
    /// on a dead socket.
    fn arm(&self, conn: &mut ReactorConn, interest: Interest, token: u64) -> bool {
        let events = sys::EPOLLONESHOT
            | sys::EPOLLERR
            | sys::EPOLLHUP
            | match interest {
                Interest::Read => sys::EPOLLIN | sys::EPOLLRDHUP,
                Interest::Write => sys::EPOLLOUT,
            };
        let op = if conn.in_poller {
            sys::EPOLL_CTL_MOD
        } else {
            sys::EPOLL_CTL_ADD
        };
        let ok = self.ctl(op, conn.sock.as_raw_fd(), events, token).is_ok();
        conn.in_poller |= ok;
        ok
    }

    /// Takes an armed socket out of the set, so its token goes quiet while
    /// the socket stays open.
    fn disarm(&self, conn: &mut ReactorConn) {
        if conn.in_poller {
            let _ = self.ctl(sys::EPOLL_CTL_DEL, conn.sock.as_raw_fd(), 0, 0);
            conn.in_poller = false;
        }
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        let (buf, len) = (events.as_mut_ptr(), events.len() as c_int);
        // SAFETY: the kernel writes at most `len` entries into `buf`, a live
        // exclusive borrow for the duration of the call.
        let n = unsafe { sys::epoll_wait(self.epfd, buf, len, timeout_ms) };
        if n < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    fn wake(&self) {
        // A full pipe means a wake is already pending; any error here is
        // therefore ignorable.
        let _ = (&self.wake_tx).write(&[1]);
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from `epoll_create1` and is closed only here.
        unsafe { sys::close(self.epfd) };
    }
}

/// The epoll event loop: wait (never past the next deadline sweep), take
/// every reported registration out of the table under one lock hold, hand
/// the connections to `on_ready` outside it, sweep when due. Until `stop`
/// closes the table.
#[cfg(target_os = "linux")]
fn reactor_loop(
    shared: Arc<ReactorShared>,
    on_ready: impl Fn(Box<ReactorConn>, Interest),
    on_timeout: impl Fn(Box<ReactorConn>, bool),
) {
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
    let mut ready = Vec::with_capacity(events.len());
    let mut expired = Vec::new();
    let mut next_sweep = Instant::now() + Duration::from_millis(shared.sweep_interval_ms());

    loop {
        // One Acquire load per iteration: a reconfigured sweep interval
        // takes effect on the next tick without restarting the reactor.
        let sweep_ms = shared.sweep_interval_ms();
        let timeout_ms = next_sweep
            .saturating_duration_since(Instant::now())
            .as_millis()
            .min(sweep_ms as u128)
            .max(1) as i32;
        let n = match shared.poller.wait(&mut events, timeout_ms) {
            Ok(n) => n,
            Err(e) => {
                if e.kind() != std::io::ErrorKind::Interrupted {
                    std::thread::sleep(Duration::from_millis(1));
                }
                0
            }
        };
        {
            let mut table = shared.table.lock();
            if table.closed {
                break;
            }
            for ev in &events[..n] {
                // Copy by value: `EpollEvent` is packed on x86-64.
                let token = ev.data;
                if token == WAKE_TOKEN {
                    shared.counters.record_wakeup();
                    continue;
                }
                shared.counters.record_readiness_event();
                match table.take((token - 1) as usize) {
                    Some(reg) => {
                        shared.counters.record_dispatched();
                        ready.push((reg.conn, reg.interest));
                    }
                    None => shared.counters.record_spurious_ready(),
                }
            }
        }
        for (conn, interest) in ready.drain(..) {
            on_ready(conn, interest);
        }

        let now = Instant::now();
        if now >= next_sweep {
            next_sweep = now + Duration::from_millis(sweep_ms);
            shared.sweep(&mut expired, &on_timeout);
        }
    }
}

// ---------------------------------------------------------------------------
// Portable fallback: non-blocking sweep
// ---------------------------------------------------------------------------

/// Without epoll there is nothing to arm: a registration is live once it is
/// in the table, and the reactor finds readiness by probing.
#[cfg(not(target_os = "linux"))]
struct Poller;

#[cfg(not(target_os = "linux"))]
impl Poller {
    fn new() -> std::io::Result<Poller> {
        Ok(Poller)
    }

    fn arm(&self, _conn: &mut ReactorConn, _interest: Interest, _token: u64) -> bool {
        true
    }

    fn disarm(&self, _conn: &mut ReactorConn) {}

    fn wake(&self) {}
}

/// Portable reactor over the same table: a non-blocking `peek` sweep every
/// couple of milliseconds. Read-interest sockets dispatch when a peek
/// reports bytes, EOF or error; write-interest sockets dispatch every tick
/// (the write path simply hits `WouldBlock` again if the buffer is still
/// full). O(registered) per tick — correct anywhere std's `TcpStream`
/// works, if not C10K-fast.
#[cfg(not(target_os = "linux"))]
fn reactor_loop(
    shared: Arc<ReactorShared>,
    on_ready: impl Fn(Box<ReactorConn>, Interest),
    on_timeout: impl Fn(Box<ReactorConn>, bool),
) {
    let mut ready = Vec::new();
    let mut expired = Vec::new();
    let mut probe = [0u8; 1];
    let mut next_sweep = Instant::now() + Duration::from_millis(shared.sweep_interval_ms());
    loop {
        {
            let mut table = shared.table.lock();
            if table.closed {
                break;
            }
            for idx in 0..table.slab.len() {
                let fire = match &table.slab[idx] {
                    Some(reg) => match reg.interest {
                        Interest::Write => true,
                        // Data, `Ok(0)` = EOF, or an error to surface.
                        Interest::Read => !matches!(
                            reg.conn.sock.peek(&mut probe),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
                        ),
                    },
                    None => false,
                };
                if fire {
                    let reg = table.take(idx).expect("checked above");
                    shared.counters.record_readiness_event();
                    shared.counters.record_dispatched();
                    ready.push((reg.conn, reg.interest));
                }
            }
        }
        for (conn, interest) in ready.drain(..) {
            on_ready(conn, interest);
        }

        let now = Instant::now();
        if now >= next_sweep {
            next_sweep = now + Duration::from_millis(shared.sweep_interval_ms());
            shared.sweep(&mut expired, &on_timeout);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    fn reg(conn: Box<ReactorConn>, interest: Interest, deadline: Instant, idle: bool) -> Reg {
        Reg {
            conn,
            interest,
            deadline,
            idle,
            kind: RegKind::Initial,
        }
    }

    fn rearm(conn: Box<ReactorConn>) -> Reg {
        Reg {
            conn,
            interest: Interest::Read,
            deadline: Instant::now() + Duration::from_secs(30),
            idle: true,
            kind: RegKind::RearmRead,
        }
    }

    /// Reads and parses until one whole request is in `c.req`.
    fn read_request(c: &mut ReactorConn) {
        while !matches!(
            c.parse_step(crate::message::MAX_BODY_BYTES).unwrap(),
            ParseStatus::Complete { .. }
        ) {
            assert!(c.read_step().unwrap() > 0);
        }
    }

    #[test]
    fn readable_socket_is_dispatched_with_ownership() {
        let shared = ReactorShared::new().unwrap();
        let (ready_tx, ready_rx) = mpsc::channel();
        let mut reactor = Reactor::spawn(
            Arc::clone(&shared),
            move |c, r| ready_tx.send((c, r)).unwrap(),
            |_, _| panic!("no timeout expected"),
        )
        .unwrap();

        let (mut client, server) = pair();
        shared.register(reg(
            ReactorConn::new(server).unwrap(),
            Interest::Read,
            Instant::now() + Duration::from_secs(30),
            true,
        ));
        std::thread::sleep(Duration::from_millis(20));
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();

        let (mut c, r) = ready_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(r, Interest::Read);
        assert!(c.read_step().unwrap() > 0);
        assert!(matches!(
            c.parse_step(crate::message::MAX_BODY_BYTES).unwrap(),
            ParseStatus::Complete { .. }
        ));
        assert_eq!(c.req.path, "/");
        reactor.shutdown();
        let s = shared.counters.snapshot();
        assert_eq!(s.registered, 1);
        assert_eq!(s.dispatched, 1);
        assert!(s.readiness_balanced(), "{s:?}");
    }

    #[test]
    fn idle_deadline_evicts_with_idle_flag() {
        let shared = ReactorShared::new().unwrap();
        let (to_tx, to_rx) = mpsc::channel();
        let mut reactor = Reactor::spawn(
            Arc::clone(&shared),
            |_, _| panic!("no readiness expected"),
            move |c, idle| to_tx.send((c, idle)).unwrap(),
        )
        .unwrap();
        let (client, server) = pair();
        shared.register(reg(
            ReactorConn::new(server).unwrap(),
            Interest::Read,
            Instant::now() + Duration::from_millis(60),
            true,
        ));
        let (evicted, idle) = to_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(idle);
        drop(evicted);
        // The client observes the close as EOF.
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 8];
        use std::io::Read as _;
        assert_eq!((&client).read(&mut buf).unwrap(), 0);
        reactor.shutdown();
        assert_eq!(shared.counters.snapshot().evicted_idle, 1);
    }

    #[test]
    fn write_interest_fires_on_writable_socket() {
        let shared = ReactorShared::new().unwrap();
        let (ready_tx, ready_rx) = mpsc::channel();
        let mut reactor = Reactor::spawn(
            Arc::clone(&shared),
            move |c, r| ready_tx.send((c, r)).unwrap(),
            |_, _| panic!("no timeout expected"),
        )
        .unwrap();
        let (_client, server) = pair();
        let mut conn = ReactorConn::new(server).unwrap();
        conn.stage_response(&Response::ok(b"hi".to_vec()), false);
        shared.register(Reg {
            conn,
            interest: Interest::Write,
            deadline: Instant::now() + Duration::from_secs(30),
            idle: false,
            kind: RegKind::RearmWrite,
        });
        let (mut c, r) = ready_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(r, Interest::Write);
        c.write_step().unwrap();
        assert!(!c.has_pending_output());
        reactor.shutdown();
        let s = shared.counters.snapshot();
        assert_eq!(s.rearms_write, 1);
        assert!(s.readiness_balanced(), "{s:?}");
    }

    #[test]
    fn peer_close_counts_as_readiness_not_leak() {
        let shared = ReactorShared::new().unwrap();
        let (ready_tx, ready_rx) = mpsc::channel();
        let mut reactor = Reactor::spawn(
            Arc::clone(&shared),
            move |c, r| ready_tx.send((c, r)).unwrap(),
            |_, _| {},
        )
        .unwrap();
        let (client, server) = pair();
        shared.register(reg(
            ReactorConn::new(server).unwrap(),
            Interest::Read,
            Instant::now() + Duration::from_secs(30),
            true,
        ));
        std::thread::sleep(Duration::from_millis(20));
        drop(client); // EOF must surface as readiness
        let (mut c, _) = ready_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(c.read_step().unwrap(), 0, "EOF");
        reactor.shutdown();
    }

    #[test]
    fn shutdown_closes_registered_conns_and_is_idempotent() {
        let shared = ReactorShared::new().unwrap();
        let mut reactor =
            Reactor::spawn(Arc::clone(&shared), |_, _| {}, |_, _| {}).unwrap();
        let (client, server) = pair();
        shared.register(reg(
            ReactorConn::new(server).unwrap(),
            Interest::Read,
            Instant::now() + Duration::from_secs(30),
            true,
        ));
        std::thread::sleep(Duration::from_millis(20));
        reactor.shutdown();
        reactor.shutdown();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        use std::io::Read as _;
        let mut buf = [0u8; 8];
        assert_eq!((&client).read(&mut buf).unwrap(), 0, "socket must be closed");
        // Registering after stop silently closes the connection too.
        let (client2, server2) = pair();
        shared.register(reg(
            ReactorConn::new(server2).unwrap(),
            Interest::Read,
            Instant::now() + Duration::from_secs(30),
            true,
        ));
        client2
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!((&client2).read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn rearms_racing_shutdown_all_close_their_sockets() {
        // Workers keep re-arming connections while `shutdown` runs. Every
        // re-arm lands either in the table before `stop` closes it (and is
        // closed with it) or after (and is refused): no socket is left open
        // with no owner, so every client sees its connection end.
        const CONNS: usize = 32;
        let shared = ReactorShared::new().unwrap();
        let (ready_tx, ready_rx) = mpsc::channel::<Box<ReactorConn>>();
        let ready_rx = Arc::new(std::sync::Mutex::new(ready_rx));
        let mut reactor = Reactor::spawn(
            Arc::clone(&shared),
            move |c, _| ready_tx.send(c).unwrap(),
            |_, _| {},
        )
        .unwrap();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&ready_rx);
                std::thread::spawn(move || loop {
                    let next = rx.lock().unwrap().recv();
                    let Ok(mut c) = next else { return };
                    while matches!(c.read_step(), Ok(n) if n > 0) {
                        c.inlen = 0;
                    }
                    shared.register(rearm(c));
                })
            })
            .collect();

        let mut clients = Vec::new();
        for _ in 0..CONNS {
            let (client, server) = pair();
            shared.register(reg(
                ReactorConn::new(server).unwrap(),
                Interest::Read,
                Instant::now() + Duration::from_secs(30),
                true,
            ));
            clients.push(client);
        }
        // Keep readiness flowing on every connection until shutdown is done.
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<TcpStream> = clients.iter().map(|c| c.try_clone().unwrap()).collect();
        let pump = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    for mut w in &writers {
                        let _ = w.write(b"x");
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        reactor.shutdown();
        done.store(true, std::sync::atomic::Ordering::Release);
        pump.join().unwrap();

        // `shared` is still alive here, so a registration stranded in the
        // table would keep its socket open and its client would time out.
        let deadline = Instant::now() + Duration::from_secs(5);
        for (i, client) in clients.iter().enumerate() {
            use std::io::Read as _;
            let mut buf = [0u8; 256];
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                assert!(!left.is_zero(), "client {i} saw no EOF within the deadline");
                client.set_read_timeout(Some(left)).unwrap();
                match (&*client).read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
                    Err(e) => panic!("client {i} saw no EOF within the deadline: {e}"),
                }
            }
        }
        for w in workers {
            w.join().unwrap();
        }
        assert!(shared.counters.snapshot().readiness_balanced());
    }

    #[test]
    fn many_registered_conns_dispatch_individually() {
        let shared = ReactorShared::new().unwrap();
        let (ready_tx, ready_rx) = mpsc::channel();
        let mut reactor = Reactor::spawn(
            Arc::clone(&shared),
            move |c, _| ready_tx.send(c).unwrap(),
            |_, _| {},
        )
        .unwrap();
        let mut clients = Vec::new();
        for _ in 0..64 {
            let (client, server) = pair();
            shared.register(reg(
                ReactorConn::new(server).unwrap(),
                Interest::Read,
                Instant::now() + Duration::from_secs(30),
                true,
            ));
            clients.push(client);
        }
        std::thread::sleep(Duration::from_millis(30));
        for (i, client) in clients.iter_mut().enumerate() {
            client
                .write_all(format!("GET /c{i} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
        }
        let mut paths: Vec<String> = (0..64)
            .map(|_| {
                let mut c = ready_rx.recv_timeout(Duration::from_secs(2)).unwrap();
                read_request(&mut c);
                c.req.path.clone()
            })
            .collect();
        paths.sort();
        let mut expect: Vec<String> = (0..64).map(|i| format!("/c{i}")).collect();
        expect.sort();
        assert_eq!(paths, expect);
        reactor.shutdown();
        let s = shared.counters.snapshot();
        assert_eq!(s.registered, 64);
        assert_eq!(s.dispatched, 64);
        assert!(s.readiness_balanced(), "{s:?}");
    }

    #[test]
    fn bytes_arriving_while_disarmed_dispatch_on_rearm() {
        // One-shot: after a report the socket stays disarmed until its owner
        // re-arms it. Bytes that land in between raise no event by
        // themselves; the `MOD` re-checks readiness and reports them.
        let shared = ReactorShared::new().unwrap();
        let (ready_tx, ready_rx) = mpsc::channel();
        let mut reactor = Reactor::spawn(
            Arc::clone(&shared),
            move |c, _| ready_tx.send(c).unwrap(),
            |_, _| panic!("no timeout expected"),
        )
        .unwrap();
        let (mut client, server) = pair();
        shared.register(reg(
            ReactorConn::new(server).unwrap(),
            Interest::Read,
            Instant::now() + Duration::from_secs(30),
            true,
        ));
        client.write_all(b"GET /first HTTP/1.1\r\n\r\n").unwrap();
        let mut c = ready_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        read_request(&mut c);
        assert_eq!(c.req.path, "/first");
        #[cfg(target_os = "linux")]
        assert!(c.in_poller, "the accept arm ADDed the socket");

        // The connection is out (disarmed); the next request arrives now.
        client.write_all(b"GET /second HTTP/1.1\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            ready_rx.try_recv().is_err(),
            "a disarmed socket must not be reported"
        );
        shared.register(rearm(c));
        let mut c = ready_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        read_request(&mut c);
        assert_eq!(c.req.path, "/second");
        reactor.shutdown();
        let s = shared.counters.snapshot();
        let counts = (s.registered, s.rearms_read, s.dispatched);
        assert_eq!(counts, (1, 1, 2), "{s:?}");
        assert!(s.wakeups <= 1, "only stop wakes the reactor: {s:?}");
        assert!(s.readiness_balanced(), "{s:?}");
    }

    #[test]
    fn slab_slots_are_reused_across_generations() {
        let shared = ReactorShared::new().unwrap();
        let (ready_tx, ready_rx) = mpsc::channel();
        let mut reactor = Reactor::spawn(
            Arc::clone(&shared),
            move |c, _| ready_tx.send(c).unwrap(),
            |_, _| {},
        )
        .unwrap();
        // Several rounds of register → ready → re-arm → ready → close over
        // the same couple of slots: stale-token bugs show up as misdelivered
        // connections. Closing frees the fd number, and the next round's
        // accept usually gets it back: that socket is new to epoll and must
        // be ADDed, not MODed, or it would never be reported.
        for round in 0..8 {
            let (mut client, server) = pair();
            let conn = ReactorConn::new(server).unwrap();
            assert!(!conn.in_poller);
            shared.register(reg(
                conn,
                Interest::Read,
                Instant::now() + Duration::from_secs(30),
                true,
            ));
            for step in 0..2 {
                client
                    .write_all(format!("GET /r{round}s{step} HTTP/1.1\r\n\r\n").as_bytes())
                    .unwrap();
                let mut c = ready_rx.recv_timeout(Duration::from_secs(2)).unwrap();
                read_request(&mut c);
                assert_eq!(c.req.path, format!("/r{round}s{step}"));
                if step == 0 {
                    shared.register(rearm(c));
                }
            }
        }
        reactor.shutdown();
        let s = shared.counters.snapshot();
        let counts = (s.registered, s.rearms_read, s.dispatched);
        assert_eq!(counts, (8, 8, 16), "{s:?}");
        assert!(s.readiness_balanced(), "{s:?}");
    }

    #[test]
    fn sweep_releases_an_idle_connections_read_buffer() {
        let shared = ReactorShared::new().unwrap();
        let (ready_tx, ready_rx) = mpsc::channel();
        let mut reactor = Reactor::spawn(
            Arc::clone(&shared),
            move |c, _| ready_tx.send(c).unwrap(),
            |_, _| panic!("no timeout expected"),
        )
        .unwrap();
        let (mut client, server) = pair();
        shared.register(reg(
            ReactorConn::new(server).unwrap(),
            Interest::Read,
            Instant::now() + Duration::from_secs(30),
            true,
        ));
        client.write_all(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
        let mut c = ready_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        read_request(&mut c);
        assert!(c.inbuf.capacity() >= READ_CHUNK, "serving holds its buffer");

        // Re-armed idle, the connection sits through a few sweeps.
        shared.register(rearm(c));
        std::thread::sleep(Duration::from_millis(4 * SWEEP_MS));
        client.write_all(b"GET /b HTTP/1.1\r\n\r\n").unwrap();
        let mut c = ready_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(c.inbuf.capacity(), 0, "the sweep released the idle buffer");
        read_request(&mut c);
        assert_eq!(c.req.path, "/b");
        reactor.shutdown();
    }

    #[test]
    fn nofile_limit_reports_a_usable_budget() {
        let n = nofile_limit_at_least(1024);
        assert!(n >= 64, "absurdly low fd budget: {n}");
    }

    #[test]
    fn conn_write_step_resumes_after_would_block() {
        let (client, server) = pair();
        let mut conn = ReactorConn::new(server).unwrap();
        // A body far larger than any socket buffer forces WouldBlock.
        let body = vec![0xA5u8; 16 * 1024 * 1024];
        conn.stage_response(&Response::ok(body.clone()), true);
        let mut stalled = false;
        let reader = std::thread::spawn(move || {
            use std::io::Read as _;
            // Give the writer time to fill the socket buffer first.
            std::thread::sleep(Duration::from_millis(50));
            let mut all = Vec::new();
            (&client).read_to_end(&mut all).unwrap();
            all
        });
        loop {
            match conn.write_step() {
                Ok(()) => break,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    stalled = true;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(stalled, "16 MiB must not fit a loopback socket buffer");
        drop(conn); // close so the reader sees EOF
        let all = reader.join().unwrap();
        let body_start = all
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head terminator")
            + 4;
        assert_eq!(&all[body_start..], &body[..], "body must arrive intact");
    }
}
