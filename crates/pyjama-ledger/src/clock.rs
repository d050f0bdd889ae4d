//! One monotonic clock for every latency and span the ledger records.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Pins the epoch; call first thing in `main` so `now_ns()` also measures
/// time since process start.
pub fn init() {
    epoch();
}

/// Nanoseconds since [`init`].
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The `Instant` that reads as `ns` on this clock.
pub fn instant_at(ns: u64) -> Instant {
    epoch() + Duration::from_nanos(ns)
}
