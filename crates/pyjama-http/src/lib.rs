//! HTTP service substrate for the paper's second case study (§V-B).
//!
//! The paper implements "an HTTP service that provides data encryption to
//! web users" two ways: with Jetty's thread-pool framework ("a
//! thread-per-request policy but reuses a fixed number of threads from a
//! thread pool") and with Pyjama's virtual targets ("to offload the
//! time-consuming computations to worker threads"). This crate provides:
//!
//! * [`message`] — a small HTTP/1.1 request/response codec with an
//!   allocation-conscious hot path (reusable request shells, header slots
//!   and serialisation buffers; `Content-Length` bodies, 8 MiB cap).
//! * [`server`] — a TCP server over loopback with persistent (keep-alive,
//!   pipelining-capable) connections, a sharded accept path, and pluggable
//!   [`ServingPolicy`]: [`ServingPolicy::JettyPool`] (the paper's
//!   baseline: thread-pinned sessions) or [`ServingPolicy::Reactor`] (the
//!   Pyjama policy: an epoll reactor owns every socket non-blocking and
//!   kernel readiness posts each request's `target virtual(worker) nowait`
//!   serving region — tens of thousands of keep-alive connections on a
//!   bounded pool).
//! * [`client`] — a blocking client, the persistent-connection
//!   [`ClientConn`], and the closed-loop [`LoadGenerator`]: "100 virtual
//!   users, with each user sending a constant number of requests",
//!   measuring throughput (responses/sec) and latency percentiles.
//! * [`admin`] — the `/admin` control surface on its own listener: inspect
//!   and atomically reconfigure a live server started with
//!   [`HttpServer::start_controlled`], whose connection limits, body cap
//!   and admission threshold (shed with `429 Retry-After` under overload)
//!   follow the control plane's current config snapshot.
//!
//! Everything runs over real loopback sockets; no external web server or
//! load-testing tool is required.

pub mod admin;
pub mod client;
pub(crate) mod conn;
pub mod message;
pub(crate) mod reactor;
pub mod server;

pub use admin::{AdminServer, AdmissionProbe};
pub use client::{http_get, http_post, ClientConn, LoadGenerator, LoadReport};
pub use message::{
    Headers, ParseStatus, ReadError, Request, Response, Status, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
pub use reactor::nofile_limit_at_least;
pub use server::{HttpServer, ServerOptions, ServingPolicy};
