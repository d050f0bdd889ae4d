//! Per-connection serving state for persistent (keep-alive) connections.
//!
//! [`ConnState`] owns everything one TCP connection needs across its whole
//! lifetime — the buffered reader, the parsed-request shell, the line
//! scratch and the outgoing head buffer — so that serving request *n+1* on
//! a connection allocates nothing the serving of request *n* did not
//! already allocate. Responses leave as one `writev` over `[head, body]`
//! (with `TCP_NODELAY` set, so the kernel does not hold the tail of a
//! response hostage to Nagle/delayed-ACK interplay): the body is never
//! copied into the head buffer, and the common case is still a single
//! syscall.

use std::io::{BufRead, BufReader, IoSlice, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pyjama_trace::TraceId;

use crate::message::{ReadError, ReadScratch, Request, Response};
use crate::server::ServerOptions;

/// One accepted connection and its reusable serving buffers.
pub(crate) struct ConnState {
    /// Write half (`try_clone` of the reader's stream — same socket).
    write: TcpStream,
    /// Buffered read half; persists so pipelined bytes are never dropped.
    reader: BufReader<TcpStream>,
    /// Parsed-request shell, reused across requests.
    pub(crate) req: Request,
    /// Line scratch for the parser.
    scratch: ReadScratch,
    /// Outgoing head serialisation buffer, reused across responses (the
    /// body is sent as its own `writev` slice, never copied in here).
    out: Vec<u8>,
    /// Requests fully served (written) on this connection.
    pub(crate) served: u32,
    /// Causal trace id minted at accept; the region serving the connection
    /// continues this flow.
    pub(crate) trace: TraceId,
    /// Effective per-session options captured at accept. A live
    /// reconfiguration changes *new* sessions; this one keeps the limits it
    /// was admitted under.
    pub(crate) opts: ServerOptions,
}

impl ConnState {
    /// Wraps an accepted stream: sets `TCP_NODELAY` plus the per-I/O
    /// timeouts and splits read/write halves.
    pub(crate) fn new(stream: TcpStream, io_timeout: Duration) -> std::io::Result<ConnState> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        let write = stream.try_clone()?;
        Ok(ConnState {
            write,
            reader: BufReader::new(stream),
            req: Request::empty(),
            scratch: ReadScratch::new(),
            out: Vec::new(),
            served: 0,
            trace: TraceId::NONE,
            opts: ServerOptions::default(),
        })
    }

    /// True when bytes of a further request are already buffered — the
    /// client pipelined.
    pub(crate) fn has_buffered(&self) -> bool {
        !self.reader.buffer().is_empty()
    }

    /// Parses the next request into the reused shell.
    pub(crate) fn read_request(&mut self) -> Result<(), ReadError> {
        Request::read_into(&mut self.reader, &mut self.req, &mut self.scratch)
    }

    /// Parses the next request with a config-sourced body cap.
    pub(crate) fn read_request_capped(&mut self, max_body: usize) -> Result<(), ReadError> {
        Request::read_into_capped(&mut self.reader, &mut self.req, &mut self.scratch, max_body)
    }

    /// Serialises `resp`'s head (with the connection header forced to
    /// `close`/`keep-alive` per `close`) into the reused buffer and sends
    /// head + body as one vectored write (a single `writev` syscall when
    /// the socket buffer has room; short writes continue where they left
    /// off).
    pub(crate) fn write_response(&mut self, resp: &Response, close: bool) -> std::io::Result<()> {
        let tok = if close { "close" } else { "keep-alive" };
        resp.write_head_into(&mut self.out, Some(tok));
        write_all_vectored(&mut self.write, &self.out, &resp.body)?;
        self.write.flush()
    }

    /// The underlying socket (for readiness polling).
    pub(crate) fn socket(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    /// Restores the per-I/O read timeout (after readiness waiting fiddled
    /// with it).
    pub(crate) fn set_read_timeout(&self, t: Duration) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(t))
    }
}

/// Writes the concatenation of `a` then `b` to `w`, preferring one
/// `write_vectored` (`writev`) per attempt so the fast path is a single
/// syscall with no copy joining the slices. Short writes continue from the
/// exact offset reached; `Interrupted` retries.
///
/// (Hand-rolled continuation arithmetic instead of `IoSlice::advance_slices`
/// to stay on long-stable std APIs.)
pub(crate) fn write_all_vectored(
    w: &mut impl Write,
    a: &[u8],
    b: &[u8],
) -> std::io::Result<()> {
    let (mut a, mut b) = (a, b);
    while !a.is_empty() || !b.is_empty() {
        let written = if a.is_empty() {
            w.write(b)
        } else if b.is_empty() {
            w.write(a)
        } else {
            w.write_vectored(&[IoSlice::new(a), IoSlice::new(b)])
        };
        match written {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole response",
                ))
            }
            Ok(n) => {
                let from_a = n.min(a.len());
                a = &a[from_a..];
                b = &b[n - from_a..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl std::fmt::Debug for ConnState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnState")
            .field("peer", &self.socket().peer_addr().ok())
            .field("served", &self.served)
            .finish()
    }
}

/// Outcome of waiting for the next request on a persistent connection.
#[derive(Debug)]
pub(crate) enum NextRequest {
    /// Request bytes are available; `pipelined` when they were already
    /// buffered before the wait (no read happened in between).
    Ready {
        /// True when the bytes were sitting in the read buffer already.
        pipelined: bool,
    },
    /// The peer closed the connection cleanly.
    Eof,
    /// No request arrived within the deadline.
    IdleTimeout,
    /// The server began shutdown while waiting.
    Stopped,
    /// Transport failure (payload kept for `Debug` diagnostics only).
    Err(#[allow(dead_code)] std::io::Error),
}

/// Blocks (in short slices, so `stop` stays responsive) until request bytes
/// are available on `conn`, the peer closes, `deadline` passes, or `stop`
/// is raised. Used by the pool-thread (Jetty-style) session loop; the
/// Reactor policy hands idle connections to the epoll reactor instead.
pub(crate) fn wait_readable(
    conn: &mut ConnState,
    deadline: Instant,
    io_timeout: Duration,
    stop: &AtomicBool,
) -> NextRequest {
    if conn.has_buffered() {
        return NextRequest::Ready { pipelined: true };
    }
    const SLICE: Duration = Duration::from_millis(50);
    loop {
        if stop.load(Ordering::SeqCst) {
            return NextRequest::Stopped;
        }
        let now = Instant::now();
        if now >= deadline {
            return NextRequest::IdleTimeout;
        }
        let wait = SLICE.min(deadline - now);
        if let Err(e) = conn.socket().set_read_timeout(Some(wait.max(Duration::from_millis(1)))) {
            return NextRequest::Err(e);
        }
        match conn.reader.fill_buf() {
            Ok([]) => return NextRequest::Eof,
            Ok(_) => {
                return match conn.set_read_timeout(io_timeout) {
                    Ok(()) => NextRequest::Ready { pipelined: false },
                    Err(e) => NextRequest::Err(e),
                };
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return NextRequest::Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    #[test]
    fn ready_pipelined_when_bytes_already_buffered() {
        let (mut client, server) = pair();
        let mut conn = ConnState::new(server, Duration::from_millis(500)).unwrap();
        let mut wire = Vec::new();
        Request::new("GET", "/a", Vec::new()).write_to(&mut wire).unwrap();
        Request::new("GET", "/b", Vec::new()).write_to(&mut wire).unwrap();
        client.write_all(&wire).unwrap();

        // First read buffers both requests; only one is consumed.
        conn.read_request().unwrap();
        assert_eq!(conn.req.path, "/a");
        assert!(conn.has_buffered());
        let stop = AtomicBool::new(false);
        let next = wait_readable(
            &mut conn,
            Instant::now() + Duration::from_secs(1),
            Duration::from_millis(500),
            &stop,
        );
        assert!(matches!(next, NextRequest::Ready { pipelined: true }), "{next:?}");
        conn.read_request().unwrap();
        assert_eq!(conn.req.path, "/b");
    }

    #[test]
    fn wait_sees_late_arriving_bytes_without_pipelined_flag() {
        let (mut client, server) = pair();
        let mut conn = ConnState::new(server, Duration::from_millis(500)).unwrap();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            Request::new("GET", "/late", Vec::new()).write_to(&mut client).unwrap();
            client
        });
        let stop = AtomicBool::new(false);
        let next = wait_readable(
            &mut conn,
            Instant::now() + Duration::from_secs(2),
            Duration::from_millis(500),
            &stop,
        );
        assert!(matches!(next, NextRequest::Ready { pipelined: false }), "{next:?}");
        conn.read_request().unwrap();
        assert_eq!(conn.req.path, "/late");
        drop(t.join().unwrap());
    }

    #[test]
    fn wait_reports_eof_on_peer_close() {
        let (client, server) = pair();
        let mut conn = ConnState::new(server, Duration::from_millis(500)).unwrap();
        drop(client);
        let stop = AtomicBool::new(false);
        let next = wait_readable(
            &mut conn,
            Instant::now() + Duration::from_secs(1),
            Duration::from_millis(500),
            &stop,
        );
        assert!(matches!(next, NextRequest::Eof), "{next:?}");
    }

    #[test]
    fn wait_times_out_and_honors_stop() {
        let (_client, server) = pair();
        let mut conn = ConnState::new(server, Duration::from_millis(500)).unwrap();
        let stop = AtomicBool::new(false);
        let t0 = Instant::now();
        let next = wait_readable(
            &mut conn,
            Instant::now() + Duration::from_millis(80),
            Duration::from_millis(500),
            &stop,
        );
        assert!(matches!(next, NextRequest::IdleTimeout), "{next:?}");
        assert!(t0.elapsed() >= Duration::from_millis(75));

        stop.store(true, Ordering::SeqCst);
        let next = wait_readable(
            &mut conn,
            Instant::now() + Duration::from_secs(10),
            Duration::from_millis(500),
            &stop,
        );
        assert!(matches!(next, NextRequest::Stopped), "{next:?}");
    }

    /// A writer that accepts at most `limit` bytes per call — exercises the
    /// short-write continuation across the head/body slice boundary.
    struct Trickle {
        limit: usize,
        calls: usize,
        data: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.limit);
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut left = self.limit;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(left);
                self.data.extend_from_slice(&b[..take]);
                n += take;
                left -= take;
                if left == 0 {
                    break;
                }
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_continues_across_short_writes() {
        let head = b"HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n";
        let body = b"hello world";
        // Every per-call limit, including ones that split mid-head,
        // exactly at the boundary, and mid-body.
        for limit in 1..=head.len() + body.len() {
            let mut w = Trickle { limit, calls: 0, data: Vec::new() };
            write_all_vectored(&mut w, head, body).unwrap();
            let mut want = head.to_vec();
            want.extend_from_slice(body);
            assert_eq!(w.data, want, "limit={limit}");
        }
        // Unconstrained writer: exactly one (vectored) call.
        let mut w = Trickle { limit: usize::MAX, calls: 0, data: Vec::new() };
        write_all_vectored(&mut w, head, body).unwrap();
        assert_eq!(w.calls, 1, "fast path must be a single syscall");
    }

    #[test]
    fn vectored_write_handles_empty_sides() {
        for (a, b) in [(&b""[..], &b"body"[..]), (&b"head"[..], &b""[..]), (&b""[..], &b""[..])] {
            let mut w = Trickle { limit: 3, calls: 0, data: Vec::new() };
            write_all_vectored(&mut w, a, b).unwrap();
            let mut want = a.to_vec();
            want.extend_from_slice(b);
            assert_eq!(w.data, want);
        }
    }

    #[test]
    fn write_response_is_single_buffered_write_with_override() {
        let (client, server) = pair();
        let mut conn = ConnState::new(server, Duration::from_millis(500)).unwrap();
        let resp = Response::ok(b"abc".to_vec());
        conn.write_response(&resp, false).unwrap();
        let cap = conn.out.capacity();
        let ptr = conn.out.as_ptr();
        conn.write_response(&resp, true).unwrap();
        assert_eq!(conn.out.capacity(), cap, "out buffer must be reused");
        assert_eq!(conn.out.as_ptr(), ptr);

        let mut reader = BufReader::new(client);
        let first = Response::read_from(&mut reader).unwrap();
        assert!(!first.announces_close());
        let second = Response::read_from(&mut reader).unwrap();
        assert!(second.announces_close());
        assert_eq!(second.body, b"abc");
    }
}
