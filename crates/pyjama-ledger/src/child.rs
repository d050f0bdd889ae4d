//! One workload in one process. The runner re-executes itself as
//! `pyjama-ledger child …` so every workload gets its own global counters,
//! trace rings, omp pool and `VmHWM`; the result goes back to the parent as
//! one line of JSON on stdout.

use std::io::Write as _;

use crate::harness::{measure, Measured, Norm, Plan, Workload};
use crate::hostref::HostRef;
use crate::json::Json;
use crate::layer::layer_metrics;
use crate::schema::{WorkloadSpec, WORKLOADS};
use crate::workloads::{gui, http, omp, post};
use crate::{clock, procfs, spans, stats};

/// Spans written to a `trace_<workload>.json` at most (the rest are still
/// analysed; the file is for looking at, not for computing from).
const TRACE_FILE_SPANS: usize = 20_000;
/// A pass whose generator thread was on-CPU for more than this share of the
/// window is flagged: its numbers describe the generator as much as the
/// system.
const GENERATOR_BOUND_SHARE: f64 = 0.9;

pub struct ChildOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Pin the process to one CPU before anything else.
    pub one_cpu: bool,
    /// Set up, complete the first operation, report and exit.
    pub setup_only: bool,
    /// Report and exit before setting anything up: what a process of this
    /// runner costs the host to start, the reference `setup_s` is
    /// normalised by.
    pub spawn_only: bool,
    /// Directory for `trace_<workload>.json`.
    pub out_dir: Option<String>,
}

/// Line a set-up probe prints once its first operation has completed.
pub const READY: &str = "READY";

/// Runs the workload `opts` names; returns the JSON the parent reads
/// (`None` for a set-up probe, which has already said [`READY`]).
pub fn run(opts: &ChildOpts) -> Result<Option<Json>, String> {
    // First thing, so every thread the layers spawn inherits it. One CPU for
    // generator and system alike: on the 2-vCPU sandboxes this runs in, a
    // wake that crosses CPUs costs several times the software path it is
    // meant to expose (64-byte echo: 45 µs CPU per request unpinned, 12 µs
    // pinned) and varies ±15 % from second to second. See README, Limits.
    let pinned = if opts.one_cpu {
        procfs::pin_to_one_cpu()
    } else {
        None
    };
    if opts.spawn_only {
        println!("{READY}");
        let _ = std::io::stdout().flush();
        return Ok(None);
    }
    if opts.traced {
        // Before set-up: ids are only minted while tracing is on, and the
        // keep-alive connections are accepted during set-up.
        pyjama_trace::set_ring_capacity(crate::harness::TRACE_RING_EVENTS);
        pyjama_trace::enable();
    }
    let plan = Plan::new(opts.seconds, opts.traced);
    let seed = opts.seed;
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == opts.workload)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    match spec.name {
        "http_small_keepalive" => drive(opts, spec, plan, pinned, || {
            http::Keepalive::setup(http::Service::Echo, seed)
        }),
        "http_crypt_keepalive" => drive(opts, spec, plan, pinned, || {
            http::Keepalive::setup(http::Service::Crypt, seed)
        }),
        // Each slice is one round on a fresh server.
        "http_conn_churn" => drive(
            opts,
            spec,
            plan.with_slice_seconds(http::CHURN_ROUND_SECONDS),
            pinned,
            || http::Churn::setup(seed),
        ),
        "post_injector" => drive(opts, spec, plan, pinned, || post::Injector::setup(seed)),
        "post_member_fanout" => drive(opts, spec, plan, pinned, || post::Fanout::setup(seed)),
        "gui_await" => drive(opts, spec, plan, pinned, || gui::GuiAwait::setup(seed)),
        "omp_regions" => drive(opts, spec, plan, pinned, || omp::OmpRegions::setup(seed)),
        other => Err(format!("workload `{other}` has no driver")),
    }
}

fn drive<W: Workload>(
    opts: &ChildOpts,
    spec: &WorkloadSpec,
    plan: Plan,
    pinned: Option<usize>,
    setup: impl FnOnce() -> Result<W, String>,
) -> Result<Option<Json>, String> {
    let mut w = setup().map_err(|e| format!("setup: {e}"))?;
    // The clock's epoch is the first thing `main` pins, so this is process
    // start → first operation completed.
    let setup_s = clock::now_ns() as f64 / 1e9;
    if opts.setup_only {
        println!("{READY}");
        let _ = std::io::stdout().flush();
        return Ok(None);
    }
    // After the timed set-up: the reference is the benchmark's, not the
    // system's.
    let mut href = HostRef::start(spec.reference)?;
    let m = measure(&mut w, &plan, &mut href)?;
    drop(href);
    drop(w);
    let mut out = report(spec, &m, setup_s);
    out.set("pinned_cpu", pinned.map_or(Json::Null, Json::from));
    if opts.traced {
        if let Some(dir) = &opts.out_dir {
            write_spans(dir, opts, &m)?;
        }
        let mut layer = Json::obj();
        for (name, value) in layer_metrics(&m) {
            layer.set(name, value);
        }
        out.set("per_layer", layer);
    }
    Ok(Some(out))
}

/// The four time metrics of `m`, per slice, scaled by `n`.
fn timed(m: &Measured, n: Norm) -> [(&'static str, Vec<f64>); 4] {
    [
        ("ops_per_s", m.ops_per_s(n)),
        ("latency_p50_us", m.latency_p50_us(n)),
        ("latency_p99_us", m.latency_p99_us(n)),
        ("cpu_us_per_op", m.cpu_us_per_op(n)),
    ]
}

fn report(spec: &WorkloadSpec, m: &Measured, setup_s: f64) -> Json {
    let norm = Norm {
        nominal_ns: spec.ref_nominal_us * 1e3,
        rate: spec.closed_loop,
    };
    // End-to-end times are normalised to the nominal host, slice by slice,
    // then reduced; the raw ones ride along.
    let (mut slices, mut end_to_end, mut raw_slices, mut raw) =
        (Json::obj(), Json::obj(), Json::obj(), Json::obj());
    for (name, values) in timed(m, norm) {
        end_to_end.set(name, stats::median(&values));
        slices.set(name, &values[..]);
    }
    for (name, values) in timed(m, Norm::RAW) {
        raw.set(name, stats::median(&values));
        raw_slices.set(name, &values[..]);
    }
    let host = Json::obj()
        .with("speed", stats::median(&m.host_speed(norm)))
        .with("ref_us", stats::median(&m.ref_us()));
    raw_slices
        .set("host_speed", &m.host_speed(norm)[..])
        .set("ref_us", &m.ref_us()[..]);
    end_to_end
        .set("fail_share", m.failed as f64 / m.attempted.max(1) as f64)
        .set("peak_rss_mb", m.peak_rss_mb)
        .set("setup_s", setup_s);
    let busy = m.gen_cpu_s / m.wall_s;
    let mut flags = Vec::new();
    if busy > GENERATOR_BOUND_SHARE {
        flags.push(Json::from("generator-bound"));
    }
    Json::obj()
        .with("workload", spec.name)
        .with("attempted", m.attempted)
        .with("failed", m.failed)
        .with("ops", m.ops)
        .with("latency_samples", m.samples())
        .with("end_to_end", end_to_end)
        .with("slices", slices)
        .with("raw", raw)
        .with("host", host)
        .with("raw_slices", raw_slices)
        .with("flags", flags)
}

fn write_spans(dir: &str, opts: &ChildOpts, m: &Measured) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = format!("{dir}/trace_{}.json", opts.workload);
    let meta = Json::obj()
        .with("workload", opts.workload.as_str())
        .with("seed", opts.seed)
        .with("seconds", opts.seconds);
    let doc = spans::to_chrome_json(&m.spans, TRACE_FILE_SPANS, meta);
    std::fs::write(&path, doc.render()).map_err(|e| format!("write {path}: {e}"))
}
