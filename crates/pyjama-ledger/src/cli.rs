//! The runner: argument parsing, the parent that spawns one child per
//! workload and pass, and the two output shapes — the ledger (every metric
//! of every workload, for people and for `compare`) and the driver's
//! contract line (`--trace 0|1` with one `--workload`).

use std::io::{BufRead as _, BufReader, Read as _};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::child::{self, ChildOpts, READY};
use crate::json::Json;
use crate::schema::{self, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::POOL_THREADS;
use crate::{compare, stats};

/// Fresh processes set up per run; `setup_s` is their median.
const SETUP_PROBES: usize = 25;
/// What starting a process of the runner takes on the nominal host, seconds
/// (spawn to the first line of `main`; the median over quiet runs on the
/// sandbox class this was written on). `setup_s` is reported as it would
/// read on a host where it takes exactly this.
const NOMINAL_SPAWN_S: f64 = 0.0012;
/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = schema::RUN_SECONDS as f64;

const USAGE: &str = "\
usage: pyjama-ledger run [--seed S] [--seconds T] [--traced] [--repeat N] [--workload W] [--out DIR]
       pyjama-ledger run --workload W --seed S --seconds T --trace 0|1     (driver contract line)
       pyjama-ledger compare A.json B.json
       pyjama-ledger benchmark-json";

struct RunOpts {
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    workload: Option<String>,
    /// `Some` selects the driver's contract output.
    contract_trace: Option<bool>,
    out_dir: String,
}

/// Entry point of the `pyjama-ledger` binary; returns the exit code.
pub fn main() -> i32 {
    crate::clock::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("run") => fail_with(parse_run(rest).and_then(|o| run(&o))),
        Some("child") => child_main(rest),
        Some("compare") => fail_with(compare::main(rest)),
        Some("benchmark-json") => {
            println!("{}", schema::benchmark_json().pretty());
            0
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    }
}

fn fail_with(r: Result<i32, String>) -> i32 {
    r.unwrap_or_else(|e| {
        eprintln!("pyjama-ledger: {e}");
        1
    })
}

/// `--key value` pairs and bare `--flag`s, in order.
fn parse_flags(args: &[String], bare: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`\n{USAGE}"));
        };
        if bare.contains(&key) {
            out.push((key.to_string(), String::new()));
        } else {
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            out.push((key.to_string(), v.clone()));
        }
    }
    Ok(out)
}

fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("--{key}: cannot read `{v}`"))
}

fn known_workload(name: &str) -> Result<(), String> {
    if WORKLOADS.iter().any(|w| w.name == name) {
        Ok(())
    } else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        Err(format!(
            "unknown workload `{name}`; one of: {}",
            names.join(", ")
        ))
    }
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        repeat: 1,
        workload: None,
        contract_trace: None,
        out_dir: "crates/pyjama-ledger/out".into(),
    };
    for (k, v) in parse_flags(args, &["traced"])? {
        match k.as_str() {
            "seed" => o.seed = num(&k, &v)?,
            "seconds" => o.seconds = num(&k, &v)?,
            "traced" => o.traced = true,
            "repeat" => o.repeat = num(&k, &v)?,
            "workload" => {
                known_workload(&v)?;
                o.workload = Some(v);
            }
            "trace" => {
                o.contract_trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "out" => o.out_dir = v,
            _ => return Err(format!("unknown option --{k}\n{USAGE}")),
        }
    }
    if !(o.seconds.is_finite() && o.seconds > 0.0 && o.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if o.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    if o.contract_trace.is_some() && o.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(o)
}

fn child_main(args: &[String]) -> i32 {
    let parsed = parse_flags(args, &["setup-only", "spawn-only"]).and_then(|flags| {
        let mut o = ChildOpts {
            workload: String::new(),
            seed: 1,
            seconds: DEFAULT_SECONDS,
            traced: false,
            one_cpu: false,
            setup_only: false,
            spawn_only: false,
            out_dir: None,
        };
        for (k, v) in flags {
            match k.as_str() {
                "workload" => o.workload = v,
                "seed" => o.seed = num(&k, &v)?,
                "seconds" => o.seconds = num(&k, &v)?,
                "traced" => o.traced = v == "1",
                "one-cpu" => o.one_cpu = v == "1",
                "setup-only" => o.setup_only = true,
                "spawn-only" => o.spawn_only = true,
                "out" => o.out_dir = Some(v),
                _ => return Err(format!("unknown child option --{k}")),
            }
        }
        Ok(o)
    });
    match parsed.and_then(|o| child::run(&o)) {
        Ok(json) => {
            if let Some(json) = json {
                println!("{}", json.render());
            }
            0
        }
        Err(e) => {
            println!("{}", Json::obj().with("error", e).render());
            2
        }
    }
}

// ---------------------------------------------------------------- parent

fn one_cpu(workload: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == workload && w.one_cpu)
}

/// How far a child goes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// Right after process start.
    AfterSpawn,
    /// After set-up and the first completed operation.
    AfterSetup,
    /// After the whole pass.
    Never,
}

fn spawn_child(
    o: &RunOpts,
    workload: &str,
    seconds: f64,
    traced: bool,
    stop: Stop,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .args(["--one-cpu", if one_cpu(workload) { "1" } else { "0" }])
        .args(["--out", &o.out_dir])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    match stop {
        Stop::AfterSpawn => {
            cmd.arg("--spawn-only");
        }
        Stop::AfterSetup => {
            cmd.arg("--setup-only");
        }
        Stop::Never => {}
    }
    cmd.spawn().map_err(|e| format!("spawn child: {e}"))
}

/// Waits for `child` to exit, killing it at `deadline`. Polls with a
/// growing pause: prompt for a probe that exits within a millisecond,
/// nearly silent next to a pass that runs for seconds.
fn reap(mut child: Child, deadline: Instant) -> Result<(), String> {
    let mut pause = Duration::from_micros(500);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return Ok(()),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(pause);
                pause = (pause * 2).min(Duration::from_millis(100));
            }
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("child timed out and was killed".into());
            }
            Err(e) => return Err(format!("wait for child: {e}")),
        }
    }
}

/// One full pass of `workload` in a fresh process; its result JSON.
fn run_pass(o: &RunOpts, workload: &str, seconds: f64, traced: bool) -> Result<Json, String> {
    let mut child = spawn_child(o, workload, seconds, traced, Stop::Never)?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // Warm-up + window + drain timeouts, with room to spare; far inside the
    // driver's 180 s.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 1.5 + 45.0);
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let reaped = reap(child, deadline);
    let text = reader
        .join()
        .map_err(|_| "child stdout reader panicked".to_string())?;
    reaped?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let json = Json::parse(last)
        .map_err(|e| format!("{workload}: unreadable child output ({e}): {last:?}"))?;
    match json.get("error").and_then(Json::as_str) {
        Some(e) => Err(format!("{workload}: {e}")),
        None => Ok(json),
    }
}

/// Seconds from spawning a probe child to its `READY` line.
fn probe(o: &RunOpts, workload: &str, stop: Stop) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut child = spawn_child(o, workload, 1.0, false, stop)?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let read = stdout.read_line(&mut line);
    let took = t0.elapsed().as_secs_f64();
    reap(child, Instant::now() + Duration::from_secs(30))?;
    drop(stdout);
    match read {
        Ok(_) if line.trim() == READY => Ok(took),
        _ => Err(format!("{workload}: set-up probe failed: {}", line.trim())),
    }
}

/// Set-up probes of one workload: `SETUP_PROBES` fresh processes that set
/// up and complete one operation, each next to one that only starts.
struct SetupProbes {
    /// Spawn to first completed operation, seconds.
    setup_s: Vec<f64>,
    /// Spawn to the first line of `main`, seconds: the host's share.
    spawn_s: Vec<f64>,
}

impl SetupProbes {
    fn run(o: &RunOpts, workload: &str) -> Result<SetupProbes, String> {
        let mut p = SetupProbes {
            setup_s: Vec::with_capacity(SETUP_PROBES),
            spawn_s: Vec::with_capacity(SETUP_PROBES),
        };
        for _ in 0..SETUP_PROBES {
            p.spawn_s.push(probe(o, workload, Stop::AfterSpawn)?);
            p.setup_s.push(probe(o, workload, Stop::AfterSetup)?);
        }
        Ok(p)
    }

    /// Scale from measured to nominal-host seconds: starting a process is
    /// as exposed to the host's speed as anything else the ledger times.
    fn to_nominal(&self) -> f64 {
        let spawn = stats::median(&self.spawn_s);
        if spawn > 0.0 {
            NOMINAL_SPAWN_S / spawn
        } else {
            1.0
        }
    }

    /// Each probe's set-up time on the nominal host.
    fn normalised(&self) -> Vec<f64> {
        let k = self.to_nominal();
        self.setup_s.iter().map(|s| s * k).collect()
    }
}

/// Everything measured for one workload.
struct WorkloadResult {
    untraced: Json,
    traced: Option<Json>,
    setup: Option<SetupProbes>,
}

impl WorkloadResult {
    fn e2e(&self, name: &str) -> f64 {
        if let ("setup_s", Some(p)) = (name, &self.setup) {
            return stats::median(&p.normalised());
        }
        self.untraced
            .get("end_to_end")
            .and_then(|e| e.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn slices(&self, name: &str) -> Vec<f64> {
        if name == "setup_s" {
            return self.setup.as_ref().map_or_else(Vec::new, SetupProbes::normalised);
        }
        self.untraced
            .get("slices")
            .map(|s| s.nums(name))
            .unwrap_or_default()
    }

    /// The untraced pass's values before normalisation.
    fn raw(&self) -> Json {
        let mut raw = self.untraced.get("raw").cloned().unwrap_or_else(Json::obj);
        if let Some(p) = &self.setup {
            raw.set("setup_s", stats::median(&p.setup_s))
                .set("spawn_s", stats::median(&p.spawn_s));
        }
        raw
    }

    fn count(&self, key: &str) -> u64 {
        let of = |j: &Json| j.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        of(&self.untraced) + self.traced.as_ref().map_or(0, of)
    }

    /// Per-layer metric by name: the traced pass's, plus the overhead the
    /// two passes' throughputs imply.
    fn layer(&self, name: &str) -> f64 {
        let Some(traced) = &self.traced else {
            return 0.0;
        };
        // `raw.*` and `host.*` are the untraced pass's groups of that name.
        if let Some((group @ ("raw" | "host"), key)) = name.split_once('.') {
            return self
                .untraced
                .get(group)
                .and_then(|g| g.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
        if name == "trace.overhead_share" {
            let rate = |j: &Json| {
                j.get("end_to_end")
                    .and_then(|e| e.get("ops_per_s"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            let base = rate(&self.untraced);
            return if base > 0.0 {
                1.0 - rate(traced) / base
            } else {
                0.0
            };
        }
        traced
            .get("per_layer")
            .and_then(|l| l.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn flags(&self) -> Vec<Json> {
        let mut out: Vec<Json> = Vec::new();
        for pass in std::iter::once(&self.untraced).chain(self.traced.as_ref()) {
            for f in pass.get("flags").and_then(Json::as_arr).unwrap_or_default() {
                if !out.contains(f) {
                    out.push(f.clone());
                }
            }
        }
        out
    }
}

/// Measures one workload: set-up probes and the untraced pass, plus the
/// traced pass when asked. `untraced_s`/`traced_s` are the window lengths.
fn measure_workload(
    o: &RunOpts,
    workload: &str,
    probes: bool,
    untraced_s: f64,
    traced_s: Option<f64>,
) -> Result<WorkloadResult, String> {
    Ok(WorkloadResult {
        setup: probes
            .then(|| SetupProbes::run(o, workload))
            .transpose()?,
        untraced: run_pass(o, workload, untraced_s, false)?,
        traced: traced_s
            .map(|s| run_pass(o, workload, s, true))
            .transpose()?,
    })
}

fn metric_json(spec: &MetricSpec, value: f64, slices: &[f64]) -> Json {
    let mut j = Json::obj()
        .with("value", value)
        .with("unit", spec.unit)
        .with("better", spec.better.as_str());
    if spec.bound > 0.0 {
        j.set("bound", spec.bound);
    }
    if slices.len() > 1 {
        let (q1, q3) = stats::quartiles(slices);
        j.set("q1", q1).set("q3", q3).set("slices", slices);
    }
    j
}

fn ledger_entry(r: &WorkloadResult) -> Json {
    let mut e2e = Json::obj();
    for spec in END_TO_END {
        e2e.set(
            spec.name,
            metric_json(spec, r.e2e(spec.name), &r.slices(spec.name)),
        );
    }
    e2e.set(
        "fail_share",
        Json::obj()
            .with("value", r.e2e("fail_share"))
            .with("unit", "share")
            .with("better", "lower"),
    );
    let mut entry = Json::obj()
        .with("end_to_end", e2e)
        .with("raw", r.raw())
        .with(
            "host",
            r.untraced.get("host").cloned().unwrap_or_else(Json::obj),
        )
        .with("attempted", r.count("attempted"))
        .with("failed", r.count("failed"))
        .with("latency_samples", r.count("latency_samples"))
        .with("guards", "ok")
        .with("flags", r.flags());
    if r.traced.is_some() {
        let mut layer = Json::obj();
        for spec in PER_LAYER {
            layer.set(spec.name, metric_json(spec, r.layer(spec.name), &[]));
        }
        entry.set("per_layer", layer);
    }
    entry
}

fn meta(o: &RunOpts) -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("commit", env("LEDGER_COMMIT"))
        .with("rustc", env("LEDGER_RUSTC"))
        .with("build_mode", env("LEDGER_BUILD_MODE"))
        .with("seed", o.seed)
        .with("seconds", o.seconds)
        .with(
            "traced_seconds",
            if o.traced { o.seconds / 2.0 } else { 0.0 },
        )
        .with("warmup_seconds", (o.seconds / 4.0).min(2.0))
        .with("setup_probes", SETUP_PROBES)
        .with("nominal_spawn_s", NOMINAL_SPAWN_S)
        .with("reference_chunk_ms", crate::harness::CHUNK.as_millis() as u64)
        .with(
            "reference_nominal_us",
            WORKLOADS.iter().fold(Json::obj(), |j, w| {
                j.with(w.name, w.ref_nominal_us)
            }),
        )
        .with("pool_threads", POOL_THREADS)
        .with(
            "one_cpu_workloads",
            WORKLOADS
                .iter()
                .filter(|w| w.one_cpu)
                .map(|w| Json::from(w.name))
                .collect::<Vec<_>>(),
        )
        .with("generator_threads", 1u64)
        .with("http_connections", 2u64)
        .with("serving_policy", "Reactor")
}

fn run(o: &RunOpts) -> Result<i32, String> {
    if let Some(trace) = o.contract_trace {
        return Ok(contract(o, trace));
    }
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("create {}: {e}", o.out_dir))?;
    for i in 1..=o.repeat {
        let mut workloads = Json::obj();
        for w in WORKLOADS
            .iter()
            .filter(|w| o.workload.as_deref().is_none_or(|n| n == w.name))
        {
            eprintln!("[{i}/{}] {} ...", o.repeat, w.name);
            let traced_s = o.traced.then_some(o.seconds / 2.0);
            let r = measure_workload(o, w.name, true, o.seconds, traced_s)?;
            if r.count("failed") > 0 {
                return Err(format!(
                    "{}: {} operations failed",
                    w.name,
                    r.count("failed")
                ));
            }
            workloads.set(w.name, ledger_entry(&r));
        }
        let doc = Json::obj()
            .with("meta", meta(o))
            .with("workloads", workloads);
        let path = format!("{}/ledger_{i}.json", o.out_dir);
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
        println!("{}", doc.pretty());
    }
    Ok(0)
}

/// The driver's contract: one workload, one line, end-to-end metrics with
/// `--trace 0` and per-layer metrics with `--trace 1`. The traced run
/// splits its seconds between an untraced and a traced pass, because
/// `trace.overhead_share` needs both.
fn contract(o: &RunOpts, trace: bool) -> i32 {
    let workload = o.workload.as_deref().expect("checked by parse_run");
    let measured = if trace {
        measure_workload(o, workload, false, o.seconds / 2.0, Some(o.seconds / 2.0))
    } else {
        measure_workload(o, workload, true, o.seconds, None)
    };
    let r = match measured {
        Ok(r) => r,
        Err(e) => {
            // No result line: the run is invalid, not merely slow.
            eprintln!("pyjama-ledger: {e}");
            return 1;
        }
    };
    let mut metrics = Json::obj();
    let specs = if trace { PER_LAYER } else { END_TO_END };
    for spec in specs {
        let value = if trace {
            r.layer(spec.name)
        } else {
            r.e2e(spec.name)
        };
        metrics.set(
            spec.name,
            Json::obj().with("value", value).with("unit", spec.unit),
        );
    }
    let failed = r.count("failed");
    let line = Json::obj()
        .with("correct", failed == 0)
        .with("attempted", r.count("attempted").max(1))
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{}", line.render());
    0
}
