//! Benchmark-side spans: recorded around the calls the benchmark makes
//! into each layer (and inside the closures it hands them), kept in
//! pre-sized per-thread vectors, analysed and written out after the pass.
//!
//! The tree per operation is `client.request` ⊃ `handler` ⊃
//! `kernels.call`; spans of one operation share its `op` id. A span's self
//! time is its duration minus the part of it its children cover.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::Json;

/// Which layer boundary a span brackets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// The whole operation as the generator sees it.
    ClientRequest,
    /// The closure the benchmark handed to the system, on its thread.
    Handler,
    /// A kernel call inside the handler.
    KernelCall,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClientRequest => "client.request",
            Kind::Handler => "handler",
            Kind::KernelCall => "kernels.call",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Dense id of the recording thread.
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans each thread can hold; further records are counted as overflow.
const PER_THREAD_CAP: usize = 1 << 18;

static ENABLED: AtomicBool = AtomicBool::new(false);
static OVERFLOW: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
/// One thread's spans. Only the owner pushes; `drain` is the other locker.
type Buffer = Arc<Mutex<Vec<Span>>>;

static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    /// The calling thread's dense id and buffer, once it has recorded.
    static LOCAL: RefCell<Option<(u32, Buffer)>> = const { RefCell::new(None) };
}

/// Turns span recording on or off (off: `record` is one relaxed load).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one span on the calling thread's buffer.
pub fn record(kind: Kind, op: u64, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|cell| {
        let mut cell = cell.borrow_mut();
        let (tid, buf) = cell.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(Vec::with_capacity(PER_THREAD_CAP)));
            BUFFERS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(&buf));
            (NEXT_TID.fetch_add(1, Ordering::Relaxed), buf)
        });
        let mut spans = buf.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < PER_THREAD_CAP {
            spans.push(Span {
                kind,
                op,
                start_ns,
                end_ns,
                tid: *tid,
            });
        } else {
            OVERFLOW.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Takes every recorded span out of every thread's buffer, by start time.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buf in BUFFERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        all.append(&mut buf.lock().unwrap_or_else(PoisonError::into_inner));
    }
    all.sort_by_key(|s| (s.start_ns, s.tid));
    all
}

/// Spans dropped because a thread's buffer was full.
pub fn overflow() -> u64 {
    OVERFLOW.load(Ordering::Relaxed)
}

/// `parent`'s duration minus the part of it covered by `children`.
/// Children are clipped to the parent and may overlap each other (two team
/// members running at once): the union is subtracted, never a sum.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.dur_ns() - covered
}

/// Per-operation figures derived from one pass's spans.
#[derive(Default, Debug)]
pub struct SpanSummary {
    /// `client.request` self time (span − handlers), one per operation.
    pub client_self_ns: Vec<u64>,
    /// `handler` durations.
    pub handler_ns: Vec<u64>,
}

/// Groups spans by operation and computes the tree's self times. Handlers
/// whose `client.request` was not recorded (unsampled) still count toward
/// the handler figures.
pub fn summarize(spans: &[Span]) -> SpanSummary {
    let mut by_op: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(s);
    }
    let mut out = SpanSummary::default();
    for group in by_op.values() {
        let pick =
            |k: Kind| -> Vec<Span> { group.iter().filter(|s| s.kind == k).map(|s| **s).collect() };
        let handlers = pick(Kind::Handler);
        for c in pick(Kind::ClientRequest) {
            out.client_self_ns.push(self_time_ns(&c, &handlers));
        }
        out.handler_ns.extend(handlers.iter().map(Span::dur_ns));
    }
    out
}

/// Chrome `about://tracing` rendering of (at most `limit`) spans.
pub fn to_chrome_json(spans: &[Span], limit: usize, meta: Json) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .take(limit)
        .map(|s| {
            Json::obj()
                .with("name", s.kind.name())
                .with("ph", "X")
                .with("ts", s.start_ns as f64 / 1e3)
                .with("dur", s.dur_ns() as f64 / 1e3)
                .with("pid", 1u64)
                .with("tid", u64::from(s.tid))
                .with("args", Json::obj().with("op", s.op))
        })
        .collect();
    Json::obj()
        .with("traceEvents", events)
        .with("displayTimeUnit", "ns")
        .with(
            "meta",
            meta.with("spans_recorded", spans.len())
                .with("spans_written", spans.len().min(limit))
                .with("spans_overflowed", overflow()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, op: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            op,
            start_ns,
            end_ns,
            tid: 1,
        }
    }

    #[test]
    fn self_time_nested_child() {
        let p = span(Kind::ClientRequest, 1, 100, 200);
        let c = span(Kind::Handler, 1, 120, 150);
        assert_eq!(self_time_ns(&p, &[c]), 70);
        assert_eq!(self_time_ns(&p, &[]), 100);
    }

    #[test]
    fn self_time_overlapping_children_subtract_their_union() {
        let p = span(Kind::ClientRequest, 1, 0, 100);
        let a = span(Kind::Handler, 1, 10, 60);
        let b = span(Kind::Handler, 1, 40, 80); // overlaps a by 20
        let c = span(Kind::Handler, 1, 45, 50); // inside both
        assert_eq!(self_time_ns(&p, &[a, b, c]), 30);
        assert_eq!(self_time_ns(&p, &[c, b, a]), 30, "order-independent");
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let p = span(Kind::Handler, 1, 100, 200);
        let early = span(Kind::KernelCall, 1, 50, 120);
        let late = span(Kind::KernelCall, 1, 190, 400);
        let outside = span(Kind::KernelCall, 1, 300, 400);
        assert_eq!(self_time_ns(&p, &[early, late, outside]), 70);
        let cover = span(Kind::KernelCall, 1, 0, 1000);
        assert_eq!(self_time_ns(&p, &[cover]), 0);
    }

    #[test]
    fn summarize_builds_the_tree_per_op() {
        let spans = [
            span(Kind::ClientRequest, 1, 0, 100),
            span(Kind::Handler, 1, 20, 80),
            span(Kind::KernelCall, 1, 30, 70),
            span(Kind::Handler, 2, 0, 10), // unsampled op: no client span
        ];
        let s = summarize(&spans);
        assert_eq!(s.client_self_ns, vec![40]);
        let mut h = s.handler_ns.clone();
        h.sort_unstable();
        assert_eq!(h, vec![10, 60]);
    }

    #[test]
    fn chrome_json_caps_output() {
        let spans = [
            span(Kind::Handler, 7, 1000, 3000),
            span(Kind::Handler, 8, 4000, 5000),
        ];
        let j = to_chrome_json(&spans, 1, Json::obj().with("workload", "t"));
        assert_eq!(j.get("traceEvents").unwrap().as_arr().unwrap().len(), 1);
        let meta = j.get("meta").unwrap();
        assert_eq!(meta.get("spans_recorded").unwrap().as_f64(), Some(2.0));
        assert_eq!(meta.get("workload").unwrap().as_str(), Some("t"));
        assert!(Json::parse(&j.render()).is_ok());
    }
}
