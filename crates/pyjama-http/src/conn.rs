//! One accepted HTTP connection, as both serving policies drive it.
//!
//! [`Conn`] owns the socket plus the buffers that make request parsing and
//! response writing *resumable*: a `WouldBlock` (or a read timeout) at any
//! byte boundary leaves the connection exactly where it stopped, and the
//! next step picks up from there. The same buffers are reused across every
//! request on a keep-alive connection, so serving request *n+1* allocates
//! nothing the serving of request *n* did not already allocate. A response
//! leaves as one `writev` over `[head, body]` (with `TCP_NODELAY` set, so
//! the kernel does not hold the tail of a response hostage to
//! Nagle/delayed-ACK interplay): the body is never copied into the head
//! buffer, and the common case is a single syscall.
//!
//! The socket's mode is the serving policy's choice, made at accept: the
//! reactor makes it non-blocking, the Jetty pool gives it read and write
//! timeouts. `Conn` itself works over either.

use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;

use pyjama_trace::TraceId;

use crate::message::{ParseStatus, ReadError, Request, Response};
use crate::server::ServerOptions;

/// Spare room a read needs in the connection's read buffer.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// One connection and its reusable serving buffers. It lives in one `Box`
/// from accept to close, so handing it between the reactor and a serving
/// region moves one pointer.
pub(crate) struct Conn {
    sock: TcpStream,
    /// Read buffer: `inbuf[..inlen]` are received, unparsed request bytes
    /// (possibly several pipelined requests; parsed ones are drained off the
    /// front), the rest is zeroed room the next read lands in. Kept across
    /// requests; only the reactor's deadline sweep releases it.
    pub(crate) inbuf: Vec<u8>,
    pub(crate) inlen: usize,
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
    /// The socket is in the reactor's interest set: its first arm `ADD`s
    /// it, every later one `MOD`s it. Closing the socket removes it, so a
    /// new connection that reuses the fd number starts over with an `ADD`.
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    pub(crate) in_poller: bool,
    /// A reactor deadline sweep has seen the current registration idle; the
    /// next one releases its buffers. Cleared by every registration.
    pub(crate) swept_idle: bool,
}

impl Conn {
    /// Wraps an accepted stream and sets `TCP_NODELAY`. The caller sets the
    /// socket's blocking mode.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Box<Conn>> {
        stream.set_nodelay(true)?;
        Ok(Box::new(Conn {
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

    /// The underlying socket.
    pub(crate) fn socket(&self) -> &TcpStream {
        &self.sock
    }

    /// Received request bytes not yet parsed.
    pub(crate) fn buffered(&self) -> usize {
        self.inlen
    }

    /// One read into the read buffer. `Ok(0)` is EOF; `WouldBlock` (or a
    /// read timeout) propagates and the caller waits for more bytes.
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
    pub(crate) fn release_idle_buffers(&mut self) {
        debug_assert!(self.inlen == 0 && !self.pending);
        self.inbuf = Vec::new();
        if self.body.capacity() > 4096 {
            self.body = Vec::new();
        }
    }

    /// Pushes staged response bytes at the socket until done or the socket
    /// will not take more. `Ok(())` means fully written; `WouldBlock` (or a
    /// write timeout) propagates, and a later call resumes where this one
    /// stopped.
    pub(crate) fn write_step(&mut self) -> std::io::Result<()> {
        write_resumable(&mut &self.sock, &self.head, &self.body, &mut self.out_pos)?;
        self.pending = false;
        Ok(())
    }
}

/// Writes `head ++ body` to `w`, starting at byte `*pos` of the pair and
/// advancing `*pos` past every byte written, so a call that fails (for
/// example with `WouldBlock`) can be repeated and continues from the exact
/// offset reached. While head bytes remain, both sides go out in one
/// `write_vectored` (`writev`): the fast path is a single syscall with no
/// copy joining the slices. `Interrupted` retries.
pub(crate) fn write_resumable(
    w: &mut impl Write,
    head: &[u8],
    body: &[u8],
    pos: &mut usize,
) -> std::io::Result<()> {
    let total = head.len() + body.len();
    while *pos < total {
        let written = if *pos < head.len() {
            let head_rest = &head[*pos..];
            if body.is_empty() {
                w.write(head_rest)
            } else {
                w.write_vectored(&[IoSlice::new(head_rest), IoSlice::new(body)])
            }
        } else {
            w.write(&body[*pos - head.len()..])
        };
        match written {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole response",
                ))
            }
            Ok(n) => *pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    /// A writer that accepts at most `limit` bytes per call — exercises the
    /// short-write continuation across the head/body slice boundary. When
    /// `blocking`, every second call fails with `WouldBlock` instead, as a
    /// full non-blocking socket does.
    struct Trickle {
        limit: usize,
        blocking: bool,
        calls: usize,
        data: Vec<u8>,
    }

    impl Trickle {
        fn new(limit: usize, blocking: bool) -> Trickle {
            Trickle {
                limit,
                blocking,
                calls: 0,
                data: Vec::new(),
            }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.blocking && self.calls.is_multiple_of(2) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
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

    /// Writes `head ++ body` to `w` to completion, resuming after every
    /// `WouldBlock`; returns how many times it had to resume.
    fn write_all_resuming(w: &mut Trickle, head: &[u8], body: &[u8]) -> usize {
        let mut pos = 0;
        let mut resumed = 0;
        loop {
            match write_resumable(w, head, body, &mut pos) {
                Ok(()) => return resumed,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => resumed += 1,
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn vectored_write_continues_across_short_writes() {
        let head = b"HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n";
        let body = b"hello world";
        let mut want = head.to_vec();
        want.extend_from_slice(body);
        // Every per-call limit, including ones that split mid-head,
        // exactly at the boundary, and mid-body; and the same with every
        // other call refusing with `WouldBlock`, so each continuation
        // starts from an offset a previous call left behind.
        for limit in 1..=head.len() + body.len() {
            for blocking in [false, true] {
                let mut w = Trickle::new(limit, blocking);
                let resumed = write_all_resuming(&mut w, head, body);
                assert_eq!(w.data, want, "limit={limit} blocking={blocking}");
                assert_eq!(resumed > 0, blocking && limit < want.len());
            }
        }
        // Unconstrained writer: exactly one (vectored) call.
        let mut w = Trickle::new(usize::MAX, false);
        write_all_resuming(&mut w, head, body);
        assert_eq!(w.calls, 1, "fast path must be a single syscall");
    }

    #[test]
    fn vectored_write_handles_empty_sides() {
        for (a, b) in [
            (&b""[..], &b"body"[..]),
            (&b"head"[..], &b""[..]),
            (&b""[..], &b""[..]),
        ] {
            let mut w = Trickle::new(3, true);
            write_all_resuming(&mut w, a, b);
            let mut want = a.to_vec();
            want.extend_from_slice(b);
            assert_eq!(w.data, want);
        }
    }

    #[test]
    fn stage_and_write_reuse_the_head_buffer_with_override() {
        let (client, server) = pair();
        let mut conn = Conn::new(server).unwrap();
        let resp = Response::ok(b"abc".to_vec());
        conn.stage_response(&resp, false);
        conn.write_step().unwrap();
        let cap = conn.head.capacity();
        let ptr = conn.head.as_ptr();
        conn.stage_response(&resp, true);
        conn.write_step().unwrap();
        assert!(!conn.has_pending_output());
        assert_eq!(conn.head.capacity(), cap, "head buffer must be reused");
        assert_eq!(conn.head.as_ptr(), ptr);

        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(client);
        let first = Response::read_from(&mut reader).unwrap();
        assert!(!first.announces_close());
        let second = Response::read_from(&mut reader).unwrap();
        assert!(second.announces_close());
        assert_eq!(second.body, b"abc");
    }
}
