//! Connection-lifecycle counters for the persistent-connection HTTP server.
//!
//! Fig. 9 of the paper measures an HTTP encryption service; with keep-alive
//! in play, throughput depends on how well connections are *reused*, not
//! just how fast handlers run. These counters separate the two: `accepted`
//! counts TCP connections, `reused` counts requests served on a connection
//! beyond its first, `pipelined` counts requests that were already buffered
//! when the previous response was written, and `timed_out_idle` counts
//! keep-alive connections evicted for idling. A healthy keep-alive workload
//! shows `reused ≫ accepted`; a `connection: close` workload shows
//! `reused == 0` with `accepted` equal to the request count.

crate::counter_set! {
    /// Cumulative connection-lifecycle counters. Increments are single
    /// relaxed atomic adds so recording does not perturb the serving hot
    /// path.
    pub struct ConnCounters => ConnStats {
        /// TCP connections accepted.
        accepted: Counter,
        /// Requests served on a connection beyond its first.
        reused: Counter,
        /// Requests found already buffered behind the previous one when its
        /// response went out (true HTTP pipelining, no read wait between).
        pipelined: Counter,
        /// Idle keep-alive connections evicted by timeout.
        timed_out_idle: Counter,
    }
}

impl ConnStats {
    /// Mean requests served per accepted connection, given a total request
    /// count (`reused` only counts the non-first requests).
    pub fn requests_per_connection(&self) -> f64 {
        if self.accepted == 0 {
            return 0.0;
        }
        (self.accepted + self.reused) as f64 / self.accepted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_per_connection_ratio() {
        let s = ConnStats {
            accepted: 10,
            reused: 40,
            pipelined: 0,
            timed_out_idle: 0,
        };
        assert!((s.requests_per_connection() - 5.0).abs() < 1e-9);
        assert_eq!(ConnStats::default().requests_per_connection(), 0.0);
    }
}
