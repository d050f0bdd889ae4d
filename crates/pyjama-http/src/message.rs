//! A minimal HTTP/1.1 codec: enough for the encryption-service benchmark.
//!
//! The hot path is allocation-conscious: [`Request::parse_into`] parses the
//! bytes a connection has received so far into a *reused* [`Request`]
//! (method/path `String`s, [`Headers`] slots and the body `Vec` all keep
//! their capacity across requests on a persistent connection), and
//! [`Response::write_head_into`] serialises status line and headers into
//! one reused `Vec<u8>`, so the server answers with one vectored write of
//! head and body instead of a burst of small writes. The server has this
//! one request parser; the blocking [`Response::read_into`] is the client's.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};

/// Largest accepted message body. A hostile `content-length` beyond this is
/// answered with `400 Bad Request` instead of an attempted allocation, so a
/// single header cannot OOM a worker.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Largest accepted header count per message (anti-abuse bound).
pub const MAX_HEADERS: usize = 128;

/// Largest accepted request head (request line + headers + blank line) for
/// the incremental parser. A client that dribbles garbage without ever
/// completing its head is rejected at this bound instead of growing the
/// connection's buffer forever.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Response status codes the service uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// 200.
    Ok,
    /// 400.
    BadRequest,
    /// 404.
    NotFound,
    /// 429 — shed by admission control; retry after the advertised delay.
    TooManyRequests,
    /// 500.
    InternalServerError,
}

impl Status {
    /// Numeric code.
    pub fn code(&self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::TooManyRequests => 429,
            Status::InternalServerError => 500,
        }
    }

    /// Reason phrase.
    pub fn reason(&self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::TooManyRequests => "Too Many Requests",
            Status::InternalServerError => "Internal Server Error",
        }
    }
}

/// An ordered header map with case-insensitive names.
///
/// Backed by a `Vec` of `(name, value)` slots with a logical length:
/// [`clear`](Headers::clear) keeps the slot `String`s alive, so parsing the
/// next request on a persistent connection reuses their capacity instead of
/// re-allocating per header. Lookup compares names with
/// `eq_ignore_ascii_case` — no per-lookup or per-header lowercasing.
#[derive(Default)]
pub struct Headers {
    entries: Vec<(String, String)>,
    live: usize,
}

impl Headers {
    /// An empty header map.
    pub fn new() -> Self {
        Headers {
            entries: Vec::new(),
            live: 0,
        }
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Removes all headers, keeping slot capacity for reuse.
    pub fn clear(&mut self) {
        self.live = 0;
    }

    /// The value of `name` (ASCII case-insensitive), if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries[..self.live]
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// True when `name` is present (ASCII case-insensitive).
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Iterates `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries[..self.live]
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Sets `name` to `value`, replacing an existing entry with the same
    /// (case-insensitive) name. The value is formatted into a reused slot
    /// `String`, so `headers.insert("content-length", body.len())` does not
    /// allocate once the slot exists.
    pub fn insert(&mut self, name: &str, value: impl std::fmt::Display) {
        let slot = self.slot_for(name);
        slot.1.clear();
        let _ = write!(slot.1, "{value}");
    }

    /// Finds (or creates, reusing a dead slot when possible) the slot for
    /// `name`, with the name written into it.
    fn slot_for(&mut self, name: &str) -> &mut (String, String) {
        if let Some(i) = self.entries[..self.live]
            .iter()
            .position(|(k, _)| k.eq_ignore_ascii_case(name))
        {
            return &mut self.entries[i];
        }
        if self.live == self.entries.len() {
            self.entries.push((String::new(), String::new()));
        }
        let slot = &mut self.entries[self.live];
        self.live += 1;
        slot.0.clear();
        slot.0.push_str(name);
        slot
    }
}

impl Clone for Headers {
    fn clone(&self) -> Self {
        Headers {
            entries: self.entries[..self.live].to_vec(),
            live: self.live,
        }
    }
}

impl std::fmt::Debug for Headers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl PartialEq for Headers {
    /// Order-independent; names compare case-insensitively.
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live
            && self
                .iter()
                .all(|(k, v)| other.get(k).is_some_and(|ov| ov == v))
    }
}

impl Eq for Headers {}

impl std::ops::Index<&str> for Headers {
    type Output = str;

    fn index(&self, name: &str) -> &str {
        self.get(name)
            .unwrap_or_else(|| panic!("no header named {name:?}"))
    }
}

/// Reused line buffer for response parsing. One per client connection.
#[derive(Debug, Default)]
pub struct ReadScratch {
    line: String,
}

impl ReadScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Why a message could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly before the first byte of a
    /// message — the normal end of a persistent connection, not an error.
    Eof,
    /// The message is malformed in a way the sender should be told about:
    /// answer `400 Bad Request` and close.
    BadRequest(&'static str),
    /// Transport failure (timeout, reset, truncation mid-message).
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl ReadError {
    /// Collapses into an `io::Error` for the non-streaming entry points.
    pub fn into_io(self) -> std::io::Error {
        match self {
            ReadError::Eof => std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a request",
            ),
            ReadError::BadRequest(msg) => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
            }
            ReadError::Io(e) => e,
        }
    }
}

/// Outcome of one incremental parse attempt over a byte buffer
/// ([`Request::parse_into`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseStatus {
    /// A full request was parsed; the first `consumed` bytes of the buffer
    /// belong to it (head + body) and must be drained before the next call.
    Complete {
        /// Bytes of the buffer consumed by this request.
        consumed: usize,
    },
    /// The buffer ends mid-head or mid-body; read more bytes and call again
    /// with the grown buffer.
    NeedMore,
}

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Request target, e.g. `/encrypt`.
    pub path: String,
    /// Header map (names matched case-insensitively).
    pub headers: Headers,
    /// Message body.
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a request with a body and a correct `content-length`.
    pub fn new(method: impl Into<String>, path: impl Into<String>, body: Vec<u8>) -> Self {
        let mut headers = Headers::new();
        headers.insert("content-length", body.len());
        headers.insert("connection", "close");
        Request {
            method: method.into(),
            path: path.into(),
            headers,
            body,
        }
    }

    /// An empty request shell whose buffers [`parse_into`](Request::parse_into)
    /// fills and reuses.
    pub fn empty() -> Self {
        Request {
            method: String::new(),
            path: String::new(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// True when the sender asked for the connection to be closed after
    /// this request (`connection: close`; HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Serialises into `buf` (cleared first): request line, headers, blank
    /// line, body — ready for a single `write_all`.
    pub fn write_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        let _ = write!(
            ByteWriter(buf),
            "{} {} HTTP/1.1\r\n",
            self.method,
            self.path
        );
        for (k, v) in self.headers.iter() {
            let _ = write!(ByteWriter(buf), "{k}: {v}\r\n");
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&self.body);
    }

    /// Serialises onto a writer (buffers internally; one write + flush).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(128 + self.body.len());
        self.write_into(&mut buf);
        w.write_all(&buf)?;
        w.flush()
    }

    /// Incremental, resumable parse of one request from the front of `buf`.
    ///
    /// Bytes arrive whenever the kernel says so, possibly one at a time
    /// across many reads. This parser is *pure* over the bytes accumulated
    /// so far — it never blocks and never consumes; on
    /// [`ParseStatus::Complete`] the caller drains `consumed` bytes and
    /// keeps any pipelined remainder. On [`ParseStatus::NeedMore`] the
    /// caller reads more and simply calls again with the grown buffer
    /// (re-parsing the head is cheap next to the socket I/O around it).
    ///
    /// Framing rules (the server turns [`ReadError::BadRequest`] into an
    /// immediate `400` instead of stalling on a body that will never come):
    ///
    /// * `POST`/`PUT`/`PATCH` **must** carry a `content-length`;
    /// * a `content-length` that does not parse as an integer is rejected;
    /// * a `content-length` above [`MAX_BODY_BYTES`] is rejected;
    /// * a head that exceeds [`MAX_HEAD_BYTES`] without completing is
    ///   rejected, so a slow-loris client cannot grow the connection
    ///   buffer forever.
    pub fn parse_into(buf: &[u8], req: &mut Request) -> Result<ParseStatus, ReadError> {
        Self::parse_into_capped(buf, req, MAX_BODY_BYTES)
    }

    /// [`parse_into`](Request::parse_into) with an explicit body cap — the
    /// server reads it from the live config snapshot once per serving
    /// step; [`MAX_BODY_BYTES`] remains the default.
    pub fn parse_into_capped(
        buf: &[u8],
        req: &mut Request,
        max_body: usize,
    ) -> Result<ParseStatus, ReadError> {
        let Some(head_end) = find_head_end(buf) else {
            if buf.len() > MAX_HEAD_BYTES {
                return Err(ReadError::BadRequest("request head too large"));
            }
            return Ok(ParseStatus::NeedMore);
        };
        if head_end > MAX_HEAD_BYTES {
            return Err(ReadError::BadRequest("request head too large"));
        }
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| ReadError::BadRequest("request head is not valid utf-8"))?;
        let mut lines = head.split('\n').map(|l| l.trim_end());
        {
            let mut parts = lines.next().unwrap_or("").split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/") => {
                    req.method.clear();
                    req.method.push_str(m);
                    req.path.clear();
                    req.path.push_str(p);
                }
                _ => return Err(ReadError::BadRequest("malformed request line")),
            }
        }
        req.headers.clear();
        for line in lines {
            if line.is_empty() {
                break;
            }
            if req.headers.len() >= MAX_HEADERS {
                return Err(ReadError::BadRequest("too many headers"));
            }
            if let Some((k, v)) = line.split_once(':') {
                req.headers.insert(k.trim(), v.trim());
            }
        }

        let body_expected = matches!(req.method.as_str(), "POST" | "PUT" | "PATCH");
        let len = match req.headers.get("content-length") {
            None if body_expected => {
                return Err(ReadError::BadRequest("missing content-length"))
            }
            None => 0,
            Some(v) => v
                .trim()
                .parse::<u64>()
                .map_err(|_| ReadError::BadRequest("unparseable content-length"))?,
        };
        if len > max_body as u64 {
            return Err(ReadError::BadRequest("body exceeds size limit"));
        }
        let total = head_end + len as usize;
        if buf.len() < total {
            return Ok(ParseStatus::NeedMore);
        }
        req.body.clear();
        req.body.extend_from_slice(&buf[head_end..total]);
        Ok(ParseStatus::Complete { consumed: total })
    }
}

/// Index one past the head's terminating blank line (the first line that
/// trims to empty), or `None` when the head is still incomplete. Lines are
/// `\n`-terminated, with trailing whitespace (including `\r`) ignored.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0;
    for (i, &b) in buf.iter().enumerate() {
        if b == b'\n' {
            if buf[line_start..i].iter().all(|c| c.is_ascii_whitespace()) {
                return Some(i + 1);
            }
            line_start = i + 1;
        }
    }
    None
}

/// An HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Header map (names matched case-insensitively).
    pub headers: Headers,
    /// Message body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a body and correct framing headers.
    pub fn new(status: Status, body: Vec<u8>) -> Self {
        let mut headers = Headers::new();
        headers.insert("content-length", body.len());
        headers.insert("connection", "close");
        Response {
            status,
            headers,
            body,
        }
    }

    /// `200 OK` with a body.
    pub fn ok(body: Vec<u8>) -> Self {
        Self::new(Status::Ok, body)
    }

    /// An error response with a text body.
    pub fn error(status: Status, msg: &str) -> Self {
        Self::new(status, msg.as_bytes().to_vec())
    }

    /// A `429 Too Many Requests` shed response advertising when the client
    /// should retry. Deliberately does **not** announce close: shedding
    /// protects the handler queue, and tearing down the keep-alive
    /// connection would punish the client twice (and cost an accept on
    /// retry).
    pub fn too_many_requests(retry_after_secs: u32) -> Self {
        let mut resp = Self::new(Status::TooManyRequests, b"shed: retry later".to_vec());
        resp.headers.insert("retry-after", retry_after_secs);
        resp.headers.insert("connection", "keep-alive");
        resp
    }

    /// The `Retry-After` delay in seconds, when present and numeric (the
    /// HTTP-date form is not used by this server).
    pub fn retry_after(&self) -> Option<u64> {
        self.headers
            .get("retry-after")
            .and_then(|v| v.trim().parse().ok())
    }

    /// True when this response announces the connection will close.
    pub fn announces_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Serialises only the head (status line, headers, blank line) into
    /// `buf` (cleared first), leaving the body to be sent as its own slice —
    /// the vectored-write path hands `[head, body]` to one `writev` instead
    /// of copying the body into the head buffer first.
    ///
    /// With `connection: Some(tok)` any `connection` header carried by the
    /// response is *replaced* by `connection: tok` — the serving loop, not
    /// the handler, decides connection lifetime under keep-alive.
    pub fn write_head_into(&self, buf: &mut Vec<u8>, connection: Option<&str>) {
        buf.clear();
        let _ = write!(
            ByteWriter(buf),
            "HTTP/1.1 {} {}\r\n",
            self.status.code(),
            self.status.reason()
        );
        for (k, v) in self.headers.iter() {
            if connection.is_some() && k.eq_ignore_ascii_case("connection") {
                continue;
            }
            let _ = write!(ByteWriter(buf), "{k}: {v}\r\n");
        }
        if let Some(tok) = connection {
            let _ = write!(ByteWriter(buf), "connection: {tok}\r\n");
        }
        buf.extend_from_slice(b"\r\n");
    }

    /// Serialises into `buf` (cleared first) as one contiguous message:
    /// [`write_head_into`](Response::write_head_into) plus the body.
    pub fn write_into(&self, buf: &mut Vec<u8>, connection: Option<&str>) {
        self.write_head_into(buf, connection);
        buf.extend_from_slice(&self.body);
    }

    /// Serialises onto a writer (buffers internally; one write + flush).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(128 + self.body.len());
        self.write_into(&mut buf, None);
        w.write_all(&buf)?;
        w.flush()
    }

    /// Parses one response from a buffered reader.
    pub fn read_from(r: &mut BufReader<impl Read>) -> std::io::Result<Response> {
        let mut scratch = ReadScratch::new();
        let mut resp = Response {
            status: Status::InternalServerError,
            headers: Headers::new(),
            body: Vec::new(),
        };
        Response::read_into(r, &mut resp, &mut scratch).map_err(ReadError::into_io)?;
        Ok(resp)
    }

    /// Parses one response into `resp`, reusing its buffers and `scratch`.
    pub fn read_into(
        r: &mut BufReader<impl Read>,
        resp: &mut Response,
        scratch: &mut ReadScratch,
    ) -> Result<(), ReadError> {
        scratch.line.clear();
        if r.read_line(&mut scratch.line)? == 0 {
            return Err(ReadError::Eof);
        }
        let code: u16 = scratch
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or(ReadError::BadRequest("malformed status line"))?;
        resp.status = match code {
            200 => Status::Ok,
            400 => Status::BadRequest,
            404 => Status::NotFound,
            429 => Status::TooManyRequests,
            _ => Status::InternalServerError,
        };
        read_header_block(r, &mut resp.headers, &mut scratch.line)?;
        // Responses stay lenient about a missing/odd content-length (treated
        // as an empty body) but share the size cap.
        let len = resp
            .headers
            .get("content-length")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
        if len > MAX_BODY_BYTES as u64 {
            return Err(ReadError::BadRequest("body exceeds size limit"));
        }
        resp.body.clear();
        resp.body.resize(len as usize, 0);
        r.read_exact(&mut resp.body)?;
        Ok(())
    }
}

/// Reads header lines until the blank separator into `headers` (cleared
/// first), reusing `line` as scratch.
fn read_header_block(
    r: &mut BufReader<impl Read>,
    headers: &mut Headers,
    line: &mut String,
) -> Result<(), ReadError> {
    headers.clear();
    loop {
        line.clear();
        if r.read_line(line)? == 0 {
            return Err(ReadError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed inside header block",
            )));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            return Ok(());
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::BadRequest("too many headers"));
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            headers.insert(k.trim(), v.trim());
        }
    }
}

/// `fmt::Write` over a byte buffer, so header serialisation can use `write!`
/// without the `io::Write` error plumbing (writes to a `Vec` cannot fail).
struct ByteWriter<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for ByteWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `wire` as exactly one whole request into fresh storage.
    fn parse_whole(wire: &[u8]) -> Result<Request, ReadError> {
        let mut req = Request::empty();
        match Request::parse_into(wire, &mut req)? {
            ParseStatus::Complete { consumed } => {
                assert_eq!(consumed, wire.len(), "bytes left after the request");
                Ok(req)
            }
            ParseStatus::NeedMore => panic!("incomplete request: {wire:?}"),
        }
    }

    #[test]
    fn request_round_trips() {
        let req = Request::new("POST", "/encrypt", b"secret payload".to_vec());
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let parsed = parse_whole(&buf).unwrap();
        assert_eq!(parsed.method, "POST");
        assert_eq!(parsed.path, "/encrypt");
        assert_eq!(parsed.body, b"secret payload");
        assert_eq!(&parsed.headers["content-length"], "14");
    }

    #[test]
    fn response_round_trips() {
        let resp = Response::ok(vec![1, 2, 3, 4]);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let mut reader = BufReader::new(&buf[..]);
        let parsed = Response::read_from(&mut reader).unwrap();
        assert_eq!(parsed.status, Status::Ok);
        assert_eq!(parsed.body, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_body_is_fine() {
        let req = Request::new("GET", "/", Vec::new());
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let parsed = parse_whole(&buf).unwrap();
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn malformed_request_line_is_error() {
        assert!(Request::parse_into(b"NONSENSE\r\n\r\n", &mut Request::empty()).is_err());
    }

    #[test]
    fn truncated_body_is_error() {
        // A truncated body never completes; the serving step counts EOF
        // on it as an error (`server::tests::eof_is_an_error_only_mid_request`).
        let text = b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc";
        let status = Request::parse_into(text, &mut Request::empty()).unwrap();
        assert_eq!(status, ParseStatus::NeedMore);
    }

    #[test]
    fn header_lookup_is_case_insensitive_values_trimmed() {
        let text = b"GET /x HTTP/1.1\r\nX-Custom:   hello  \r\n\r\n";
        let parsed = parse_whole(text).unwrap();
        assert_eq!(&parsed.headers["x-custom"], "hello");
        assert_eq!(&parsed.headers["X-CUSTOM"], "hello");
    }

    #[test]
    fn missing_content_length_means_empty_body_for_get() {
        let text = b"GET / HTTP/1.1\r\n\r\n";
        let parsed = parse_whole(text).unwrap();
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn post_without_content_length_is_bad_request() {
        // Regression: this used to be parsed as an empty body, leaving any
        // actual body bytes to poison the next request on the connection
        // (or the reader stalling on them until the I/O timeout).
        let text = b"POST /submit HTTP/1.1\r\n\r\nrogue body";
        let err = Request::parse_into(text, &mut Request::empty());
        assert!(matches!(err, Err(ReadError::BadRequest(_))), "{err:?}");
    }

    #[test]
    fn unparseable_content_length_is_bad_request() {
        let text = b"POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n";
        let err = Request::parse_into(text, &mut Request::empty());
        assert!(matches!(err, Err(ReadError::BadRequest(_))), "{err:?}");
    }

    #[test]
    fn oversized_content_length_is_bad_request_not_an_allocation() {
        let text = b"POST / HTTP/1.1\r\ncontent-length: 999999999999\r\n\r\n";
        let mut req = Request::empty();
        let err = Request::parse_into(text, &mut req);
        assert!(matches!(err, Err(ReadError::BadRequest(_))), "{err:?}");
        assert!(req.body.capacity() <= MAX_BODY_BYTES);
    }

    #[test]
    fn clean_eof_before_request_is_eof_not_bad_request() {
        // Nothing received is just "no request yet"; the serving step
        // decides what EOF on an empty buffer means.
        let status = Request::parse_into(b"", &mut Request::empty());
        assert!(matches!(status, Ok(ParseStatus::NeedMore)), "{status:?}");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let mut stream = Vec::new();
        for i in 0..5u8 {
            let mut b = Vec::new();
            Request::new("POST", format!("/r{i}"), vec![i; 8]).write_to(&mut b).unwrap();
            stream.extend_from_slice(&b);
        }
        let mut rest = &stream[..];
        let mut req = Request::empty();
        for i in 0..5u8 {
            let ParseStatus::Complete { consumed } = Request::parse_into(rest, &mut req).unwrap()
            else {
                panic!("request {i} incomplete");
            };
            rest = &rest[consumed..];
            assert_eq!(req.path, format!("/r{i}"));
            assert_eq!(req.body, vec![i; 8]);
        }
        assert!(rest.is_empty());
        assert!(matches!(
            Request::parse_into(rest, &mut req),
            Ok(ParseStatus::NeedMore)
        ));
    }

    #[test]
    fn large_binary_body_round_trips() {
        let body: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let req = Request::new("POST", "/bulk", body.clone());
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let parsed = parse_whole(&buf).unwrap();
        assert_eq!(parsed.body, body);
    }

    #[test]
    fn unknown_status_code_maps_to_500() {
        let text = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        let parsed = Response::read_from(&mut BufReader::new(&text[..])).unwrap();
        assert_eq!(parsed.status, Status::InternalServerError);
    }

    #[test]
    fn body_bytes_are_not_textually_interpreted() {
        // CRLFs inside a body must not confuse framing.
        let body = b"\r\n\r\nGET / HTTP/1.1\r\n\r\n".to_vec();
        let req = Request::new("POST", "/x", body.clone());
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let parsed = parse_whole(&buf).unwrap();
        assert_eq!(parsed.body, body);
    }

    #[test]
    fn status_codes() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::BadRequest.code(), 400);
        assert_eq!(Status::NotFound.code(), 404);
        assert_eq!(Status::TooManyRequests.code(), 429);
        assert_eq!(Status::InternalServerError.code(), 500);
    }

    #[test]
    fn too_many_requests_round_trips_with_retry_after() {
        let resp = Response::too_many_requests(7);
        assert!(!resp.announces_close(), "shed must keep the connection");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let parsed = Response::read_from(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(parsed.status, Status::TooManyRequests);
        assert_eq!(parsed.retry_after(), Some(7));
        assert_eq!(Response::ok(Vec::new()).retry_after(), None);
    }

    #[test]
    fn capped_parsers_honor_a_tighter_limit() {
        let mut wire = Vec::new();
        Request::new("POST", "/big", vec![0u8; 4096]).write_to(&mut wire).unwrap();
        let mut req = Request::empty();
        // Default cap: fine.
        assert!(matches!(
            Request::parse_into(&wire, &mut req),
            Ok(ParseStatus::Complete { .. })
        ));
        // Tight cap: rejected before any body copy.
        let err = Request::parse_into_capped(&wire, &mut req, 1024);
        assert!(matches!(err, Err(ReadError::BadRequest(_))), "{err:?}");
    }

    #[test]
    fn error_response_carries_message() {
        let resp = Response::error(Status::NotFound, "no such route");
        assert_eq!(resp.body, b"no such route");
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn headers_insert_replaces_case_insensitively() {
        let mut h = Headers::new();
        h.insert("Content-Length", 10);
        h.insert("content-length", 20);
        assert_eq!(h.len(), 1);
        assert_eq!(&h["CONTENT-LENGTH"], "20");
    }

    #[test]
    fn headers_clear_keeps_slot_allocations() {
        let mut h = Headers::new();
        h.insert("x-first", "one");
        h.insert("x-second", "two");
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.get("x-first"), None);
        h.insert("x-third", "three");
        assert_eq!(h.len(), 1);
        assert_eq!(&h["x-third"], "three");
    }

    #[test]
    fn headers_equality_is_order_and_case_independent() {
        let mut a = Headers::new();
        a.insert("Alpha", "1");
        a.insert("beta", "2");
        let mut b = Headers::new();
        b.insert("BETA", "2");
        b.insert("alpha", "1");
        assert_eq!(a, b);
        b.insert("gamma", "3");
        assert_ne!(a, b);
    }

    #[test]
    fn too_many_headers_is_bad_request() {
        let mut text = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            text.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        text.extend_from_slice(b"\r\n");
        let err = Request::parse_into(&text, &mut Request::empty());
        assert!(matches!(err, Err(ReadError::BadRequest(_))), "{err:?}");
    }

    #[test]
    fn response_write_into_overrides_connection_header() {
        let resp = Response::ok(b"hi".to_vec()); // Response::new says close
        let mut buf = Vec::new();
        resp.write_into(&mut buf, Some("keep-alive"));
        let text = String::from_utf8_lossy(&buf).to_lowercase();
        assert!(text.contains("connection: keep-alive"), "{text}");
        assert!(!text.contains("connection: close"), "{text}");
        let parsed = Response::read_from(&mut BufReader::new(&buf[..])).unwrap();
        assert!(!parsed.announces_close());
        assert_eq!(parsed.body, b"hi");
    }

    // --- incremental parser ------------------------------------------------

    #[test]
    fn parse_into_completes_only_with_full_request() {
        let mut wire = Vec::new();
        Request::new("POST", "/inc", b"hello-world".to_vec())
            .write_to(&mut wire)
            .unwrap();
        let mut req = Request::empty();
        // Every strict prefix is NeedMore; the full buffer completes with
        // consumed == len. This is the slow-loris property: byte-at-a-time
        // arrival never errors and never consumes early.
        for cut in 0..wire.len() {
            let status = Request::parse_into(&wire[..cut], &mut req).unwrap();
            assert_eq!(status, ParseStatus::NeedMore, "prefix of {cut} bytes");
        }
        let status = Request::parse_into(&wire, &mut req).unwrap();
        assert_eq!(
            status,
            ParseStatus::Complete {
                consumed: wire.len()
            }
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/inc");
        assert_eq!(req.body, b"hello-world");
    }

    #[test]
    fn parse_into_leaves_pipelined_bytes_unconsumed() {
        let mut wire = Vec::new();
        Request::new("POST", "/a", vec![1u8; 8]).write_to(&mut wire).unwrap();
        let first_len = wire.len();
        Request::new("POST", "/b", vec![2u8; 4]).write_to(&mut wire).unwrap();

        let mut req = Request::empty();
        let status = Request::parse_into(&wire, &mut req).unwrap();
        assert_eq!(status, ParseStatus::Complete { consumed: first_len });
        assert_eq!(req.path, "/a");
        let status = Request::parse_into(&wire[first_len..], &mut req).unwrap();
        assert_eq!(
            status,
            ParseStatus::Complete {
                consumed: wire.len() - first_len
            }
        );
        assert_eq!(req.path, "/b");
        assert_eq!(req.body, vec![2u8; 4]);
    }

    #[test]
    fn parse_into_rejects_unbounded_head() {
        let mut req = Request::empty();
        // Garbage with no terminator: tolerated until the cap, then 400.
        let garbage = vec![b'a'; MAX_HEAD_BYTES + 1];
        let err = Request::parse_into(&garbage, &mut req);
        assert!(matches!(err, Err(ReadError::BadRequest(_))), "{err:?}");
        // Under the cap it is just an incomplete head.
        let status = Request::parse_into(&garbage[..1024], &mut req).unwrap();
        assert_eq!(status, ParseStatus::NeedMore);
    }

    #[test]
    fn parse_into_reuses_request_buffers() {
        let mut wire = Vec::new();
        Request::new("POST", "/r", vec![5u8; 64]).write_to(&mut wire).unwrap();
        let mut req = Request::empty();
        Request::parse_into(&wire, &mut req).unwrap();
        let body_ptr = req.body.as_ptr();
        let cap = req.body.capacity();
        let mut wire2 = Vec::new();
        Request::new("POST", "/r2", vec![6u8; 32]).write_to(&mut wire2).unwrap();
        Request::parse_into(&wire2, &mut req).unwrap();
        assert_eq!(req.path, "/r2");
        assert_eq!(req.body, vec![6u8; 32]);
        assert_eq!(req.body.as_ptr(), body_ptr, "body buffer must be reused");
        assert_eq!(req.body.capacity(), cap);
    }

    /// What a connection's parser makes of a byte stream: the requests it
    /// completes (each with its `consumed`), then the `400` message it
    /// stops at, if any.
    type Parsed = (Vec<(Request, usize)>, Option<&'static str>);

    /// Feeds `wire` to one reused request shell the way a connection
    /// receives it: the buffer grows to each of `cuts` in turn and then to
    /// the whole, and after each growth every request it completes is
    /// drained off the front, as `Conn::parse_step` does.
    fn parse_fed(wire: &[u8], cuts: impl IntoIterator<Item = usize>, req: &mut Request) -> Parsed {
        let mut done = Vec::new();
        let mut start = 0;
        for end in cuts.into_iter().chain([wire.len()]) {
            loop {
                match Request::parse_into(&wire[start..end], req) {
                    Ok(ParseStatus::Complete { consumed }) => {
                        done.push((req.clone(), consumed));
                        start += consumed;
                    }
                    Ok(ParseStatus::NeedMore) => break,
                    Err(ReadError::BadRequest(msg)) => return (done, Some(msg)),
                    Err(e) => panic!("the parser reports only bad requests: {e:?}"),
                }
            }
        }
        (done, None)
    }

    #[test]
    fn split_arrival_parses_exactly_like_whole_arrival() {
        let wire = |r: Request| {
            let mut w = Vec::new();
            r.write_into(&mut w);
            w
        };
        let post = wire(Request::new("POST", "/echo", b"hello world".to_vec()));
        let get = wire(Request::new("GET", "/g", Vec::new()));
        let crlf_body = b"\r\n\r\nGET / HTTP/1.1\r\n\r\n".to_vec();
        let crlf = wire(Request::new("POST", "/crlf", crlf_body));
        let lf = b"POST /lf HTTP/1.1\ncontent-length: 3\n\nabcGET /b HTTP/1.1\n\n".to_vec();
        let sized = |len: &str| format!("POST / HTTP/1.1\r\ncontent-length: {len}\r\n\r\n");
        let mut too_many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            too_many.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        too_many.extend_from_slice(b"\r\n");
        // Streams that are whole requests, back to back.
        let valid = [
            b"GET /a HTTP/1.1\r\nhost: x\r\n\r\n".to_vec(),
            post.clone(),
            crlf,
            [post.clone(), get.clone()].concat(),
            [get.clone(), post].concat(),
            lf,
        ];
        // Streams that end in a 400, with its message.
        let malformed = [
            (b"NONSENSE\r\n\r\n".to_vec(), "malformed request line"),
            (
                b"POST /x HTTP/1.1\r\n\r\nrogue".to_vec(),
                "missing content-length",
            ),
            (sized("nan").into_bytes(), "unparseable content-length"),
            (
                sized("999999999999").into_bytes(),
                "body exceeds size limit",
            ),
            (too_many, "too many headers"),
            (
                [get, b"BAD\n\n".to_vec()].concat(),
                "malformed request line",
            ),
        ];
        let cases = valid.iter().map(|w| (w, None));
        let cases = cases.chain(malformed.iter().map(|(w, msg)| (w, Some(*msg))));
        // One shell throughout, reused as a connection reuses it.
        let mut req = Request::empty();
        for (wire, error) in cases {
            let whole = parse_fed(wire, [], &mut req);
            assert_eq!(whole.1, error, "{wire:?}");
            if error.is_none() {
                let consumed: usize = whole.0.iter().map(|(_, n)| n).sum();
                assert_eq!(consumed, wire.len(), "{wire:?}");
            }
            for cut in 0..=wire.len() {
                let split = parse_fed(wire, [cut], &mut req);
                assert_eq!(split, whole, "split at {cut} of {wire:?}");
            }
            let trickled = parse_fed(wire, 1..wire.len(), &mut req);
            assert_eq!(trickled, whole, "byte at a time: {wire:?}");
        }

        // A head that never ends is refused once it passes the cap, however
        // it arrives. (Each parse rescans the buffer, so splits are every
        // byte around the cap and every 251st below it, to stay quadratic
        // in a small number.)
        let garbage = vec![b'a'; MAX_HEAD_BYTES + 64];
        let whole = parse_fed(&garbage, [], &mut req);
        assert_eq!(whole, (Vec::new(), Some("request head too large")));
        let near_cap = MAX_HEAD_BYTES - 64..=garbage.len();
        for cut in (0..MAX_HEAD_BYTES).step_by(251).chain(near_cap) {
            let split = parse_fed(&garbage, [cut], &mut req);
            assert_eq!(split, whole, "split at {cut}");
        }
    }

    #[test]
    fn write_head_into_plus_body_equals_write_into() {
        let resp = Response::ok(b"payload".to_vec());
        let mut whole = Vec::new();
        resp.write_into(&mut whole, Some("keep-alive"));
        let mut head = Vec::new();
        resp.write_head_into(&mut head, Some("keep-alive"));
        let mut joined = head.clone();
        joined.extend_from_slice(&resp.body);
        assert_eq!(whole, joined);
        assert!(head.ends_with(b"\r\n\r\n"));
    }

    #[test]
    fn wants_close_reflects_connection_header() {
        let mut req = Request::new("GET", "/", Vec::new());
        assert!(req.wants_close(), "Request::new defaults to close");
        req.headers.insert("Connection", "Keep-Alive");
        assert!(!req.wants_close());
    }
}
