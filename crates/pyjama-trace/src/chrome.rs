//! Chrome `about://tracing` / Perfetto JSON export.
//!
//! The exporter writes one event object per line inside `traceEvents`,
//! which keeps the output greppable and lets the validator and tests parse
//! it without a full JSON library:
//!
//! * paired stages (`region_run` begin/end, `event_dispatch`, barrier and
//!   worker park/wake) become `"ph":"X"` complete slices with a real
//!   duration;
//! * unpaired lifecycle points become 1 µs `"X"` slivers (Perfetto renders
//!   zero-duration slices poorly, and a sliver gives flow arrows a slice
//!   to anchor to);
//! * each non-zero [`TraceId`](crate::TraceId) with at least two events
//!   becomes a flow: `"ph":"s"` at its first event, `"ph":"t"` steps, and
//!   a closing `"ph":"f"` (`"bp":"e"`) at its last — the arrows you follow
//!   in the viewer to walk one request across threads.
//!
//! Timestamps are microseconds (Chrome's unit) with nanosecond precision
//! kept as fractional digits.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::collect::Trace;
use crate::event::{arg as argv, Stage, TraceEvent};

/// Sliver width, in ns, for point events (1 µs).
const POINT_DUR_NS: u64 = 1_000;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000)
}

/// Decorated slice name: provenance/outcome folded into the label so the
/// viewer shows `region_dequeued(steal)` at a glance.
fn slice_name(ev: &TraceEvent) -> String {
    match ev.stage {
        Stage::RegionDequeued => {
            format!("region_dequeued({})", argv::provenance_name(ev.arg))
        }
        Stage::RegionPosted => {
            let how = match ev.arg {
                argv::POST_INJECTOR => "injector",
                argv::POST_MEMBER => "member",
                argv::POST_EDT => "edt",
                _ => "?",
            };
            format!("region_posted({how})")
        }
        Stage::ReactorReady => {
            let why = match ev.arg {
                argv::READY_READABLE => "readable",
                argv::READY_TIMEOUT => "timeout",
                argv::READY_WRITABLE => "writable",
                _ => "?",
            };
            format!("reactor_ready({why})")
        }
        Stage::ReactorRearm => {
            let interest = match ev.arg {
                argv::REARM_READ => "read",
                argv::REARM_WRITE => "write",
                _ => "?",
            };
            format!("reactor_rearm({interest})")
        }
        Stage::ConfigPublish => format!("config_publish(gen {})", ev.arg),
        Stage::AdmissionShed => format!("admission_shed(depth {})", ev.arg),
        s => s.name().to_string(),
    }
}

struct ChromeEvent {
    line: String,
}

fn complete_event(tid: u32, ev: &TraceEvent, dur_ns: u64) -> ChromeEvent {
    let name = slice_name(ev);
    ChromeEvent {
        line: format!(
            "{{\"name\":\"{}\",\"cat\":\"pyjama\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"trace_id\":{},\"arg\":{}}}}}",
            esc(&name),
            tid,
            us(ev.ts_ns),
            us(dur_ns.max(POINT_DUR_NS)),
            ev.id.raw(),
            ev.arg
        ),
    }
}

fn flow_event(ph: char, id: u64, tid: u32, ts_ns: u64) -> ChromeEvent {
    // Flow timestamps are nudged inside the 1 µs anchor sliver so viewers
    // bind the arrow to the slice that starts at the same instant.
    let bp = if ph == 'f' { ",\"bp\":\"e\"" } else { "" };
    ChromeEvent {
        line: format!(
            "{{\"name\":\"flow\",\"cat\":\"pyjama\",\"ph\":\"{}\",\"id\":{},\"pid\":1,\"tid\":{},\"ts\":{}{}}}",
            ph,
            id,
            tid,
            us(ts_ns + POINT_DUR_NS / 2),
            bp
        ),
    }
}

fn thread_name_event(tid: u32, label: &str) -> ChromeEvent {
    ChromeEvent {
        line: format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            tid,
            esc(label)
        ),
    }
}

impl Trace {
    /// Serializes the whole trace to Chrome trace JSON (one event object
    /// per line). Load the result in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out: Vec<ChromeEvent> = Vec::with_capacity(self.len() + 64);

        for th in &self.threads {
            out.push(thread_name_event(th.tid, &th.label));
        }

        // Duration slices: pair opening stages with their closer on the
        // same thread and the same flow id; everything else is a sliver.
        for th in &self.threads {
            // A paired slice is finished (and pushed) at its *closer*, so a
            // slice whose body emitted events lands after them with an
            // earlier begin timestamp. Buffer per thread and sort by begin
            // ts: viewers nest slices by timestamp anyway, and the
            // validator's per-thread monotonicity check reads file order.
            let mut slices: Vec<(u64, ChromeEvent)> = Vec::with_capacity(th.events.len());
            // (stage-that-closes, id) -> index into `open`
            let mut open: Vec<(Stage, u64, &TraceEvent)> = Vec::new();
            for ev in &th.events {
                if ev.stage.is_closer() {
                    if let Some(pos) = open
                        .iter()
                        .rposition(|(close, id, _)| *close == ev.stage && *id == ev.id.raw())
                    {
                        let (_, _, begin) = open.remove(pos);
                        let dur = ev.ts_ns.saturating_sub(begin.ts_ns);
                        slices.push((begin.ts_ns, complete_event(th.tid, begin, dur)));
                        continue;
                    }
                    // Closer without an opener (opener dropped): sliver.
                    slices.push((ev.ts_ns, complete_event(th.tid, ev, 0)));
                } else if let Some(close) = ev.stage.closes_with() {
                    open.push((close, ev.id.raw(), ev));
                } else {
                    slices.push((ev.ts_ns, complete_event(th.tid, ev, 0)));
                }
            }
            // Intervals still open at collection time: sliver at the begin.
            for (_, _, begin) in open {
                slices.push((begin.ts_ns, complete_event(th.tid, begin, 0)));
            }
            slices.sort_by_key(|(ts, _)| *ts);
            out.extend(slices.into_iter().map(|(_, ev)| ev));
        }

        // Flow arrows along every multi-event trace id.
        for id in self.ids() {
            let chain = self.events_for(id);
            if chain.len() < 2 {
                continue;
            }
            let last = chain.len() - 1;
            for (i, (tid, ev)) in chain.iter().enumerate() {
                let ph = if i == 0 {
                    's'
                } else if i == last {
                    'f'
                } else {
                    't'
                };
                out.push(flow_event(ph, id.raw(), *tid, ev.ts_ns));
            }
        }

        let mut json = String::with_capacity(out.len() * 96 + 64);
        json.push_str("{\"traceEvents\":[\n");
        for (i, ev) in out.iter().enumerate() {
            json.push_str(&ev.line);
            if i + 1 < out.len() {
                json.push(',');
            }
            json.push('\n');
        }
        json.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        json
    }

    /// Writes [`Trace::to_chrome_json`] to `path`, creating parent
    /// directories as needed.
    pub fn write_chrome(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{ThreadTrace, Trace};
    use crate::event::{Stage, TraceEvent};
    use crate::id::TraceId;

    fn ev(ts: u64, id: u64, stage: Stage, arg: u32) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            id: TraceId::from_raw(id),
            stage,
            arg,
        }
    }

    fn two_thread_trace() -> Trace {
        Trace {
            threads: vec![
                ThreadTrace {
                    tid: 1,
                    label: "poster".into(),
                    events: vec![ev(1_000, 7, Stage::RegionPosted, argv::POST_INJECTOR)],
                    dropped: 0,
                },
                ThreadTrace {
                    tid: 2,
                    label: "worker-0".into(),
                    events: vec![
                        ev(2_000, 7, Stage::RegionDequeued, argv::DEQ_STEAL),
                        ev(3_000, 7, Stage::RegionRunBegin, 0),
                        ev(9_000, 7, Stage::RegionRunEnd, argv::END_OK),
                    ],
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn export_contains_flow_start_and_finish() {
        let json = two_thread_trace().to_chrome_json();
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        assert!(json.contains("\"bp\":\"e\""));
        assert!(json.contains("region_dequeued(steal)"));
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn run_begin_end_become_one_duration_slice() {
        let json = two_thread_trace().to_chrome_json();
        // 3_000ns..9_000ns => a 6 µs slice starting at ts 3.000
        assert!(json.contains("\"name\":\"region_run\""));
        assert!(json.contains("\"ts\":3.000,\"dur\":6.000"), "{json}");
        assert!(
            !json.contains("region_run_end"),
            "closer consumed by pairing: {json}"
        );
    }

    #[test]
    fn export_is_valid_per_own_validator() {
        let json = two_thread_trace().to_chrome_json();
        let summary = crate::validate::validate_chrome_trace(&json).expect("valid");
        assert_eq!(summary.flows, 1);
        assert!(summary.events >= 3);
        assert_eq!(summary.threads, 2);
    }

    #[test]
    fn escapes_hostile_thread_labels() {
        let t = Trace {
            threads: vec![ThreadTrace {
                tid: 1,
                label: "we\"ird\\name\n".into(),
                events: vec![ev(10, 0, Stage::WorkerPark, 0)],
                dropped: 0,
            }],
        };
        let json = t.to_chrome_json();
        assert!(json.contains("we\\\"ird\\\\name\\n"));
    }
}
