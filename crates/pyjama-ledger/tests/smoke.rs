//! End-to-end smoke run of the `pyjama-ledger` binary: all seven workloads,
//! both passes, at 0.3 s — every guard must hold and nothing may fail.
//!
//! Under cargo the binary comes from `CARGO_BIN_EXE_pyjama-ledger`; the
//! staged harness (`run.sh test`) passes it in `PYJAMA_LEDGER_BIN`.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use pyjama_ledger::json::Json;
use pyjama_ledger::schema::{END_TO_END, PER_LAYER, WORKLOADS};

fn binary() -> PathBuf {
    std::env::var_os("PYJAMA_LEDGER_BIN")
        .map(PathBuf::from)
        .or_else(|| option_env!("CARGO_BIN_EXE_pyjama-ledger").map(PathBuf::from))
        .expect("set PYJAMA_LEDGER_BIN to the pyjama-ledger binary")
}

/// A scratch directory next to the binary (inside the build directory).
fn out_dir(name: &str) -> PathBuf {
    let dir = binary()
        .parent()
        .expect("binary has a directory")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn value(entry: &Json, group: &str, metric: &str) -> f64 {
    entry
        .get(group)
        .and_then(|g| g.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{group}.{metric} missing"))
}

#[test]
fn all_seven_workloads_run_clean_in_both_passes() {
    let out = out_dir("ledger-smoke-out");
    let t0 = Instant::now();
    let run = Command::new(binary())
        .args([
            "run",
            "--seconds",
            "0.3",
            "--traced",
            "--seed",
            "7",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("runner starts");
    let took = t0.elapsed();
    assert!(
        run.status.success(),
        "runner failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(took < Duration::from_secs(15), "smoke run took {took:?}");

    let doc = Json::parse(&String::from_utf8(run.stdout).unwrap()).expect("one JSON object");
    assert_eq!(
        doc.get("meta").unwrap().get("seed").unwrap().as_f64(),
        Some(7.0)
    );
    let workloads = doc.get("workloads").unwrap();
    assert_eq!(workloads.fields().len(), WORKLOADS.len());
    for w in WORKLOADS {
        let entry = workloads
            .get(w.name)
            .unwrap_or_else(|| panic!("{} missing", w.name));
        assert_eq!(value(entry, "end_to_end", "fail_share"), 0.0, "{}", w.name);
        assert_eq!(
            entry.get("failed").unwrap().as_f64(),
            Some(0.0),
            "{}",
            w.name
        );
        assert_eq!(
            entry.get("guards").unwrap().as_str(),
            Some("ok"),
            "{}",
            w.name
        );
        for m in END_TO_END {
            let v = value(entry, "end_to_end", m.name);
            assert!(v > 0.0 && v.is_finite(), "{} {} = {v}", w.name, m.name);
        }
        for m in PER_LAYER {
            assert!(
                value(entry, "per_layer", m.name).is_finite(),
                "{} {}",
                w.name,
                m.name
            );
        }
        let spans = out.join(format!("trace_{}.json", w.name));
        let spans =
            Json::parse(&std::fs::read_to_string(&spans).expect("span file written")).unwrap();
        assert!(
            !spans
                .get("traceEvents")
                .unwrap()
                .as_arr()
                .unwrap()
                .is_empty(),
            "{}",
            w.name
        );
    }

    // The two dispatch paths are separately exercised.
    let layer = |w: &str, m: &str| value(workloads.get(w).unwrap(), "per_layer", m);
    assert!(layer("post_member_fanout", "runtime.steal_share") > 0.0);
    assert!(layer("post_member_fanout", "runtime.injector_share") < 0.01);
    assert!(layer("post_injector", "runtime.injector_share") >= 0.99);
    // Layers a workload bypasses read zero there.
    assert_eq!(layer("post_injector", "reactor.readiness_per_req"), 0.0);
    assert_eq!(layer("http_small_keepalive", "http.accepts_per_op"), 0.0);
    assert!((layer("http_conn_churn", "http.accepts_per_op") - 1.0).abs() < 1e-9);
    assert!(layer("http_small_keepalive", "http.stage_ready_to_post_ns_p50") > 0.0);
    assert!(layer("http_crypt_keepalive", "kernels.crypt_ns_per_kib") > 0.0);
    assert!(layer("gui_await", "events.queue_wait_us_p50") > 0.0);
    assert!(layer("omp_regions", "omp.fork_join_ns_per_region") > 0.0);
    // Pinned workloads carry a host-speed reference, the others report raw.
    assert!(layer("http_small_keepalive", "host.ref_us") > 0.0);
    assert!(layer("http_small_keepalive", "raw.ops_per_s") > 0.0);
    assert_eq!(layer("omp_regions", "host.speed"), 1.0);

    // A result set compares clean against itself.
    let ledger = out.join("ledger_1.json");
    let cmp = Command::new(binary())
        .arg("compare")
        .arg(&ledger)
        .arg(&ledger)
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(table.contains("0 worse"), "{table}");
}

#[test]
fn contract_line_has_exactly_the_contract_keys() {
    for (trace, specs) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let run = Command::new(binary())
            .args([
                "run",
                "--workload",
                "post_injector",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .args(["--out"])
            .arg(out_dir("ledger-contract-out"))
            .output()
            .expect("runner starts");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap();
        let names: Vec<&str> = metrics.fields().iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = specs.iter().map(|s| s.name).collect();
        assert_eq!(names, want, "--trace {trace}");
        for s in specs {
            let m = metrics.get(s.name).unwrap();
            assert_eq!(m.get("unit").unwrap().as_str(), Some(s.unit));
            assert!(m.get("value").unwrap().as_f64().is_some());
        }
    }
}

#[test]
fn unknown_workload_and_bad_flags_are_refused() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "0"],
        &["run", "--seconds", "0"],
        &["frobnicate"],
    ] {
        let run = Command::new(binary()).args(args).output().unwrap();
        assert!(!run.status.success(), "{args:?} should fail");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
