//! Admission-control counters for the overload-shedding HTTP front door.
//!
//! Under sustained overload a server that accepts every request collapses:
//! queue depth grows without bound and every response — including the ones
//! it *could* have served quickly — pays the full queueing delay. The
//! admission controller instead sheds excess requests with `429 Retry-After`
//! the moment queue depth crosses a configured threshold, keeping latency of
//! the *admitted* stream bounded. These counters make that decision
//! auditable: every request the server looked at is `offered`, and each one
//! is then either `admitted` (handed to a handler) or `shed` (answered 429
//! without running the handler). The conservation law
//! `offered == admitted + shed` holds at every quiescent point — a request
//! is never silently dropped and never double-counted.

crate::counter_set! {
    /// Cumulative admission-control counters. Increments are single relaxed
    /// atomic adds so the admission check stays off the serving hot path's
    /// critical section.
    pub struct AdmissionCounters => AdmissionStats {
        /// Requests that reached the admission decision point.
        offered: Counter,
        /// Requests admitted to a handler.
        admitted: Counter,
        /// Requests shed with `429 Retry-After` (handler never ran).
        shed: Counter,
    }
}

impl AdmissionStats {
    /// Conservation law: every offered request was either admitted or shed.
    /// Only meaningful at quiescent points (no admission decision in
    /// flight between its `offered` and `admitted`/`shed` increments).
    pub fn balanced(&self) -> bool {
        self.offered == self.admitted + self.shed
    }

    /// Fraction of offered requests shed (0.0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_offered_is_balanced_with_zero_shed_rate() {
        let s = AdmissionStats::default();
        assert!(s.balanced());
        assert_eq!(s.shed_rate(), 0.0);
    }

    #[test]
    fn conservation_law_holds_when_recorded_in_pairs() {
        let c = AdmissionCounters::new();
        for i in 0..100 {
            c.offered.inc();
            if i % 3 == 0 {
                c.shed.inc();
            } else {
                c.admitted.inc();
            }
        }
        let s = c.snapshot();
        assert_eq!(s.offered, 100);
        assert!(s.balanced(), "offered {} != admitted {} + shed {}", s.offered, s.admitted, s.shed);
        assert!((s.shed_rate() - 0.34).abs() < 0.01);
    }

    #[test]
    fn imbalance_is_detectable() {
        let c = AdmissionCounters::new();
        c.offered.inc();
        assert!(!c.snapshot().balanced());
        c.admitted.inc();
        assert!(c.snapshot().balanced());
    }

    #[test]
    fn concurrent_offer_admit_pairs_conserve() {
        let c = std::sync::Arc::new(AdmissionCounters::new());
        let hs: Vec<_> = (0..4)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.offered.inc();
                        if (t + i) % 2 == 0 {
                            c.admitted.inc();
                        } else {
                            c.shed.inc();
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.offered, 4000);
        assert!(s.balanced());
    }
}
