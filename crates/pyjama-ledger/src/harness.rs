//! The measurement loop every workload shares: warm-up, then a measured
//! window cut into slices, each run in chunks with a burst of the
//! host-speed reference between them, counters snapshotted around the
//! window, and — in the traced pass — one bounded `pyjama_trace` window per
//! slice plus benchmark-side spans.

use std::time::{Duration, Instant};

use pyjama_events::LoopStats;
use pyjama_metrics::{AllocStats, ConnStats, ParkStats, ReactorStats, TeamStats};
use pyjama_runtime::TargetStats;
use pyjama_trace::Trace;

use crate::hostref::HostRef;
use crate::spans::Span;
use crate::{alloc, procfs, spans, stats};

/// What one child process is asked to measure.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warmup: Duration,
    pub slices: usize,
    pub slice_len: Duration,
    pub traced: bool,
}

/// Nominal slice length. Short on purpose: this runs on shared sandboxes
/// where the host takes the CPU away for milliseconds at a time, about once
/// a second. In a one-second slice such a hiccup lands in nearly every
/// slice and owns the slice's p99; in quarter-second slices it lands in a
/// minority, and the median over slices drops them.
const SLICE_SECONDS: f64 = 0.25;

impl Plan {
    /// `seconds` of measurement in `SLICE_SECONDS` slices after a warm-up
    /// of a quarter of that (2 s at most).
    pub fn new(seconds: f64, traced: bool) -> Plan {
        let slices = ((seconds / SLICE_SECONDS).round() as usize).max(1);
        Plan {
            warmup: Duration::from_secs_f64((seconds / 4.0).min(2.0)),
            slices,
            slice_len: Duration::from_secs_f64(seconds / slices as f64),
            traced,
        }
    }

    /// The same window cut into slices of about `seconds` each.
    pub fn with_slice_seconds(mut self, seconds: f64) -> Plan {
        let total = self.slice_len * self.slices as u32;
        self.slices = ((total.as_secs_f64() / seconds).round() as usize).max(1);
        self.slice_len = total / self.slices as u32;
        self
    }
}

/// How long a workload runs between two bursts of the host-speed reference.
/// Short next to the seconds the host's speed holds a level, long next to
/// the ~1 ms a burst takes.
pub const CHUNK: Duration = Duration::from_millis(25);

/// Per-thread `pyjama_trace` ring size for the traced pass. One window is
/// a few thousand operations, far below this, so a window never laps.
pub const TRACE_RING_EVENTS: usize = 1 << 16;

/// What a workload appends to while it runs one slice.
#[derive(Default)]
pub struct SliceRec {
    /// Latency samples of operations completed in this slice.
    pub lat_ns: Vec<u64>,
    /// How late the open-loop generator fired each event.
    pub gen_lag_ns: Vec<u64>,
    /// Operations completed and verified.
    pub ops: u64,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or verified wrong.
    pub failed: u64,
}

impl SliceRec {
    fn reset(&mut self) {
        self.lat_ns.clear();
        self.gen_lag_ns.clear();
        self.ops = 0;
        self.attempted = 0;
        self.failed = 0;
    }
}

/// Every counter any layer exposes, as one snapshot. Layers a workload does
/// not start stay zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub target: TargetStats,
    pub park: ParkStats,
    pub slab: AllocStats,
    pub reactor: ReactorStats,
    pub conn: ConnStats,
    pub team: TeamStats,
    pub edt: LoopStats,
    pub edt_busy_ns: u64,
}

impl Counters {
    /// The process-wide counters; workloads add their own instances' on top.
    pub fn process_wide() -> Counters {
        Counters {
            park: pyjama_runtime::park_stats(),
            slab: pyjama_runtime::alloc_stats(),
            team: pyjama_omp::team_stats(),
            ..Counters::default()
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            target: self.target.since(&earlier.target),
            park: self.park.since(&earlier.park),
            slab: self.slab.since(&earlier.slab),
            reactor: self.reactor.since(&earlier.reactor),
            conn: self.conn.since(&earlier.conn),
            team: self.team.since(&earlier.team),
            edt: LoopStats {
                dispatched: self.edt.dispatched.saturating_sub(earlier.edt.dispatched),
                panicked: self.edt.panicked.saturating_sub(earlier.edt.panicked),
                reentrant: self.edt.reentrant.saturating_sub(earlier.edt.reentrant),
                // A high-water mark, not a rate: keep the later value.
                max_depth: self.edt.max_depth,
            },
            edt_busy_ns: self.edt_busy_ns.saturating_sub(earlier.edt_busy_ns),
        }
    }
}

/// Direct timings of public layer functions on the workload's exact inputs,
/// taken after the measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Micro {
    pub parse_ns_per_req: f64,
    pub serialize_ns_per_resp: f64,
    pub crypt_ns_per_kib: f64,
    pub inline_ns_per_post: f64,
}

/// One workload: a system under test plus its load generator.
pub trait Workload {
    /// Operations per `pyjama_trace` window in the traced pass — small
    /// enough that no ring laps, large enough for a stable median. A window
    /// also ends with the slice's first chunk.
    const TRACE_WINDOW_OPS: u64;

    /// Untimed preparation before each slice (and before the warm-up).
    fn begin_slice(&mut self) {}

    /// Generates load until `deadline` or until `max_ops` operations have
    /// been started in this call, whichever comes first.
    fn run(&mut self, deadline: Instant, max_ops: u64, rec: &mut SliceRec);

    /// Waits for operations still in flight after the last slice and books
    /// the ones that never finish as failed.
    fn quiesce(&mut self, _rec: &mut SliceRec) {}

    /// Called before a burst of the host-speed reference: waits until
    /// nothing of the workload is running. Closed loops are quiet whenever
    /// `run` has returned.
    fn pause(&mut self) {}

    /// Called after the burst: an open loop moves its schedule on by the
    /// time it stood still, so the pause fires no backlog.
    fn resume(&mut self, _paused: Duration) {}

    /// True when the current slice can take no more operations (a churn
    /// round that has used up its connections).
    fn slice_full(&self) -> bool {
        false
    }

    /// Snapshot of every counter this workload's layers expose.
    fn counters(&self) -> Counters;

    /// Nanoseconds the generator spent inside post calls so far (0 when the
    /// workload posts nothing itself).
    fn post_call_ns(&self) -> u64 {
        0
    }

    /// Direct timings, taken after the window.
    fn micro(&mut self) -> Micro {
        Micro::default()
    }

    /// Validity guards: did the run exercise what the workload claims?
    /// `delta` covers the measured window, `ops` its completed operations.
    fn check(&self, delta: &Counters, ops: u64) -> Result<(), String>;
}

/// One measured slice, reduced. Wall and CPU time cover the chunks the
/// workload ran, not the reference bursts between them.
#[derive(Clone, Copy, Debug)]
pub struct SliceOut {
    pub wall_s: f64,
    pub ops: u64,
    pub cpu_us: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub samples: u64,
    /// Median duration of the reference bursts around this slice's chunks.
    pub ref_ns: f64,
}

impl SliceOut {
    /// Host speed during the slice relative to the nominal host: above 1
    /// when the reference ran faster than `nominal_ns`. 1 without a
    /// reference.
    pub fn speed(&self, nominal_ns: f64) -> f64 {
        if self.ref_ns > 0.0 && nominal_ns > 0.0 {
            nominal_ns / self.ref_ns
        } else {
            1.0
        }
    }
}

/// Everything one pass measured.
pub struct Measured {
    pub slices: Vec<SliceOut>,
    pub attempted: u64,
    pub failed: u64,
    pub ops: u64,
    pub wall_s: f64,
    /// CPU seconds of the generator thread over the window.
    pub gen_cpu_s: f64,
    pub gen_lag_p99_ns: u64,
    pub delta: Counters,
    pub post_call_ns: u64,
    pub alloc_calls: u64,
    pub micro: Micro,
    pub windows: Vec<Trace>,
    pub spans: Vec<Span>,
    pub peak_rss_mb: f64,
}

/// How per-slice values are scaled to the nominal host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Norm {
    /// Nominal duration of one reference burst; 0 reports raw values.
    pub nominal_ns: f64,
    /// Whether throughput scales with host speed. Not in an open loop: its
    /// rate is the schedule's.
    pub rate: bool,
}

impl Norm {
    pub const RAW: Norm = Norm {
        nominal_ns: 0.0,
        rate: false,
    };
}

impl Measured {
    fn per_slice(&self, f: impl Fn(&SliceOut) -> f64) -> Vec<f64> {
        self.slices.iter().map(f).collect()
    }

    /// Completed operations per second. Normalised: at nominal host speed.
    pub fn ops_per_s(&self, n: Norm) -> Vec<f64> {
        self.per_slice(|s| {
            let speed = if n.rate { s.speed(n.nominal_ns) } else { 1.0 };
            s.ops as f64 / s.wall_s / speed
        })
    }

    pub fn latency_p50_us(&self, n: Norm) -> Vec<f64> {
        self.per_slice(|s| s.p50_ns as f64 / 1e3 * s.speed(n.nominal_ns))
    }

    pub fn latency_p99_us(&self, n: Norm) -> Vec<f64> {
        self.per_slice(|s| s.p99_ns as f64 / 1e3 * s.speed(n.nominal_ns))
    }

    pub fn cpu_us_per_op(&self, n: Norm) -> Vec<f64> {
        self.per_slice(|s| {
            if s.ops == 0 {
                0.0
            } else {
                s.cpu_us / s.ops as f64 * s.speed(n.nominal_ns)
            }
        })
    }

    /// Host speed per slice, relative to the nominal host.
    pub fn host_speed(&self, n: Norm) -> Vec<f64> {
        self.per_slice(|s| s.speed(n.nominal_ns))
    }

    pub fn ref_us(&self) -> Vec<f64> {
        self.per_slice(|s| s.ref_ns / 1e3)
    }

    pub fn samples(&self) -> u64 {
        self.slices.iter().map(|s| s.samples).sum()
    }
}

/// One burst of the reference with the workload quiet around it.
fn reference_burst<W: Workload>(w: &mut W, href: &mut HostRef) -> Result<u64, String> {
    let t0 = Instant::now();
    w.pause();
    let ns = href.burst()?;
    w.resume(t0.elapsed());
    Ok(ns)
}

/// Runs the warm-up and the measured window of `plan` against `w`. Every
/// slice runs in `CHUNK`s with a burst of `href` before each and after the
/// last; the slice's wall and CPU time are its chunks' only.
pub fn measure<W: Workload>(
    w: &mut W,
    plan: &Plan,
    href: &mut HostRef,
) -> Result<Measured, String> {
    let mut rec = SliceRec::default();
    rec.lat_ns.reserve(1 << 20);

    // In the traced pass `pyjama_trace` is already on (the child enables it
    // before set-up), so each thread's ring is allocated and first-touched
    // during the warm-up, outside the window. The reference warms up too.
    w.begin_slice();
    let warm_end = Instant::now() + plan.warmup;
    loop {
        reference_burst(w, href)?;
        let now = Instant::now();
        if now >= warm_end || w.slice_full() {
            break;
        }
        w.run((now + CHUNK).min(warm_end), u64::MAX, &mut rec);
    }
    if rec.failed > 0 {
        return Err(format!(
            "warm-up: {} of {} operations failed",
            rec.failed, rec.attempted
        ));
    }

    let mut slices = Vec::with_capacity(plan.slices);
    let mut windows = Vec::new();
    let (mut attempted, mut failed, mut ops) = (0u64, 0u64, 0u64);
    let mut lag = Vec::new();
    let (mut wall_s, mut gen_cpu_ns) = (0.0f64, 0u64);
    // Burst durations of the current slice; sized once, outside the window.
    let mut bursts: Vec<u64> = Vec::with_capacity(64);

    spans::set_enabled(plan.traced);
    alloc::set_counting(plan.traced);
    let alloc0 = alloc::calls();
    let c0 = w.counters();
    let post0 = w.post_call_ns();
    for i in 0..plan.slices {
        rec.reset();
        w.begin_slice();
        let deadline = Instant::now() + plan.slice_len;
        let (mut slice_wall, mut slice_cpu_ns) = (Duration::ZERO, 0u64);
        bursts.clear();
        bursts.push(reference_burst(w, href)?);
        let mut first_chunk = true;
        loop {
            let cpu0 = procfs::process_cpu_ns();
            let gen0 = procfs::thread_cpu_ns();
            let t0 = Instant::now();
            let chunk_end = (t0 + CHUNK).min(deadline);
            if plan.traced && first_chunk {
                pyjama_trace::clear();
                w.run(chunk_end, W::TRACE_WINDOW_OPS, &mut rec);
                let window = pyjama_trace::collect();
                if window.dropped() != 0 {
                    return Err(format!(
                        "guard trace_dropped: window {i} lost {} events",
                        window.dropped()
                    ));
                }
                windows.push(window);
            }
            first_chunk = false;
            w.run(chunk_end, u64::MAX, &mut rec);
            let last = Instant::now() >= deadline || w.slice_full();
            if last && i + 1 == plan.slices {
                w.quiesce(&mut rec);
            }
            slice_wall += t0.elapsed();
            slice_cpu_ns += procfs::process_cpu_ns() - cpu0;
            gen_cpu_ns += procfs::thread_cpu_ns() - gen0;
            bursts.push(reference_burst(w, href)?);
            if last {
                break;
            }
        }
        let (p50_ns, p99_ns) = stats::p50_p99(&mut rec.lat_ns);
        // The median burst: one the host interrupted must not speak for
        // the slice.
        bursts.sort_unstable();
        slices.push(SliceOut {
            wall_s: slice_wall.as_secs_f64(),
            ops: rec.ops,
            cpu_us: slice_cpu_ns as f64 / 1e3,
            p50_ns,
            p99_ns,
            samples: rec.lat_ns.len() as u64,
            ref_ns: stats::percentile_sorted(&bursts, 0.5) as f64,
        });
        wall_s += slice_wall.as_secs_f64();
        attempted += rec.attempted;
        failed += rec.failed;
        ops += rec.ops;
        lag.extend_from_slice(&rec.gen_lag_ns);
    }
    let gen_cpu_s = gen_cpu_ns as f64 / 1e9;
    let delta = w.counters().since(&c0);
    let post_call_ns = w.post_call_ns() - post0;
    let alloc_calls = alloc::calls() - alloc0;
    alloc::set_counting(false);
    spans::set_enabled(false);
    pyjama_trace::disable();
    // Before the micro timings and the guards: neither belongs to the
    // measured window's footprint.
    let peak_rss_mb = procfs::peak_rss_mb();

    w.check(&delta, ops)?;
    lag.sort_unstable();
    Ok(Measured {
        slices,
        attempted,
        failed,
        ops,
        wall_s,
        gen_cpu_s,
        gen_lag_p99_ns: stats::percentile_sorted(&lag, 0.99),
        delta,
        post_call_ns,
        alloc_calls,
        micro: if plan.traced {
            w.micro()
        } else {
            Micro::default()
        },
        windows,
        spans: spans::drain(),
        peak_rss_mb,
    })
}

/// Times `iters` calls of `f` and returns nanoseconds per call.
pub fn time_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cuts_quarter_second_slices_and_scales_warmup() {
        let p = Plan::new(8.0, false);
        assert_eq!(
            (p.slices, p.slice_len, p.warmup),
            (32, Duration::from_millis(250), Duration::from_secs(2))
        );
        let p = Plan::new(0.3, true);
        assert_eq!(p.slices, 1);
        assert_eq!(p.slice_len, Duration::from_secs_f64(0.3));
        assert_eq!(p.warmup, Duration::from_secs_f64(0.075));
        let p = Plan::new(8.0, false).with_slice_seconds(0.5);
        assert_eq!((p.slices, p.slice_len), (16, Duration::from_millis(500)));
        assert_eq!(Plan::new(0.3, false).with_slice_seconds(0.5).slices, 1);
    }

    #[test]
    fn measured_reduces_slices() {
        let slice = |ops, wall_s, cpu_us| SliceOut {
            wall_s,
            ops,
            cpu_us,
            p50_ns: 2000,
            p99_ns: 9000,
            samples: 3,
            ref_ns: 0.0,
        };
        let m = Measured {
            slices: vec![
                slice(100, 1.0, 500.0),
                slice(300, 2.0, 600.0),
                slice(0, 1.0, 5.0),
            ],
            attempted: 400,
            failed: 0,
            ops: 400,
            wall_s: 4.0,
            gen_cpu_s: 0.0,
            gen_lag_p99_ns: 0,
            delta: Counters::default(),
            post_call_ns: 0,
            alloc_calls: 0,
            micro: Micro::default(),
            windows: Vec::new(),
            spans: Vec::new(),
            peak_rss_mb: 0.0,
        };
        assert_eq!(m.ops_per_s(Norm::RAW), vec![100.0, 150.0, 0.0]);
        assert_eq!(m.cpu_us_per_op(Norm::RAW), vec![5.0, 2.0, 0.0]);
        assert_eq!(m.latency_p50_us(Norm::RAW), vec![2.0; 3]);
        assert_eq!(m.latency_p99_us(Norm::RAW), vec![9.0; 3]);
        assert_eq!(m.samples(), 9);
        assert_eq!(stats::median(&m.ops_per_s(Norm::RAW)), 100.0);
    }

    #[test]
    fn normalising_scales_times_by_the_host_speed_of_the_slice() {
        // The reference took twice its nominal time: the host ran at half
        // speed, so times halve and the closed-loop rate doubles.
        let s = SliceOut {
            wall_s: 1.0,
            ops: 100,
            cpu_us: 400.0,
            p50_ns: 2000,
            p99_ns: 9000,
            samples: 3,
            ref_ns: 2_000.0,
        };
        assert_eq!(s.speed(1_000.0), 0.5);
        assert_eq!(s.speed(0.0), 1.0);
        let m = Measured {
            slices: vec![s],
            attempted: 100,
            failed: 0,
            ops: 100,
            wall_s: 1.0,
            gen_cpu_s: 0.0,
            gen_lag_p99_ns: 0,
            delta: Counters::default(),
            post_call_ns: 0,
            alloc_calls: 0,
            micro: Micro::default(),
            windows: Vec::new(),
            spans: Vec::new(),
            peak_rss_mb: 0.0,
        };
        let closed = Norm {
            nominal_ns: 1_000.0,
            rate: true,
        };
        assert_eq!(m.ops_per_s(closed), vec![200.0]);
        assert_eq!(m.latency_p50_us(closed), vec![1.0]);
        assert_eq!(m.latency_p99_us(closed), vec![4.5]);
        assert_eq!(m.cpu_us_per_op(closed), vec![2.0]);
        assert_eq!(m.host_speed(closed), vec![0.5]);
        // An open loop's rate is its schedule's, whatever the host does.
        let open = Norm {
            rate: false,
            ..closed
        };
        assert_eq!(m.ops_per_s(open), vec![100.0]);
        assert_eq!(m.latency_p50_us(open), vec![1.0]);
    }
}
