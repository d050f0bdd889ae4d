//! Stage-to-stage deltas out of `pyjama_trace` windows.
//!
//! `Trace::stage_delta` would do, but it buckets into a histogram with 1 µs
//! linear steps — coarser than the sub-microsecond gaps between reactor
//! stages — and rescans every event per flow id. This walks the same
//! collected [`Trace`] once and keeps exact nanoseconds.

use pyjama_trace::{Stage, Trace};

/// Nanoseconds from each `from` event to the next `to` event of the same
/// flow id; a flow that cycles through the pair (one keep-alive connection,
/// one region per request) yields one sample per completed cycle. A `to`
/// whose `from` fell before the window is skipped.
pub fn stage_deltas(trace: &Trace, from: Stage, to: Stage) -> Vec<u64> {
    let mut events: Vec<(u64, u64, bool)> = trace
        .iter_events()
        .filter(|(_, e)| e.id.is_some() && (e.stage == from || e.stage == to))
        .map(|(_, e)| (e.id.raw(), e.ts_ns, e.stage == from))
        .collect();
    // `from` sorts before `to` on a timestamp tie, so a zero-length stage
    // still pairs up.
    events.sort_unstable_by_key(|&(id, ts, is_from)| (id, ts, !is_from));
    let mut out = Vec::new();
    let mut pending: Option<(u64, u64)> = None;
    for (id, ts, is_from) in events {
        if is_from {
            pending = Some((id, ts));
        } else if let Some((pid, start)) = pending.take() {
            if pid == id {
                out.push(ts.saturating_sub(start));
            }
        }
    }
    out
}

/// Median of `samples` (sorts in place); 0 when empty.
pub fn median_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    crate::stats::percentile_sorted(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyjama_trace::{ThreadTrace, TraceEvent, TraceId};

    fn ev(ts: u64, id: u64, stage: Stage) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            id: TraceId::from_raw(id),
            stage,
            arg: 0,
        }
    }

    #[test]
    fn pairs_per_flow_across_threads_and_cycles() {
        let trace = Trace {
            threads: vec![
                ThreadTrace {
                    tid: 1,
                    label: "reactor".into(),
                    events: vec![
                        ev(100, 1, Stage::RegionPosted),
                        ev(150, 2, Stage::RegionPosted),
                        ev(1000, 1, Stage::RegionPosted),
                    ],
                    dropped: 0,
                },
                ThreadTrace {
                    tid: 2,
                    label: "worker".into(),
                    events: vec![
                        ev(50, 3, Stage::RegionRunBegin), // `from` predates the window
                        ev(130, 1, Stage::RegionRunBegin),
                        ev(400, 2, Stage::RegionRunBegin),
                        ev(1007, 1, Stage::RegionRunBegin),
                        ev(2000, 0, Stage::RegionRunBegin), // untraced flow
                    ],
                    dropped: 0,
                },
            ],
        };
        let mut d = stage_deltas(&trace, Stage::RegionPosted, Stage::RegionRunBegin);
        d.sort_unstable();
        assert_eq!(d, vec![7, 30, 250]);
        assert_eq!(median_ns(&mut d), 30);
        assert!(stage_deltas(&trace, Stage::EventPosted, Stage::EventDispatchBegin).is_empty());
    }
}
