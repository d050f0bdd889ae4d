//! **Figure 9 (§V-B)**: HTTP encryption-service throughput vs number of
//! concurrent worker threads — Jetty-style vs Pyjama virtual targets, each
//! with and without per-event `omp parallel` kernels.
//!
//! Paper: "both Jetty and Pyjama have good scaling performance as the
//! number of concurrency worker threads increases. When the
//! parallelization of each event (using //omp parallel) is used … it
//! initially results in dramatically better throughput. Yet, as the number
//! of concurrency worker threads is increased, the throughput levels off
//! … because every parallelization computation spawns its own set of
//! worker threads, and] the total number of threads in the system soars."
//!
//! Run: `cargo run --release -p pyjama-bench --bin fig9_http_throughput`

use pyjama_bench::httpbench::{run_http_benchmark, HttpBenchConfig, ServerFlavor};
use pyjama_bench::report::{ms, Table};

fn main() {
    let trace_path = pyjama_bench::trace_arg();
    if trace_path.is_some() {
        // A full sweep spins up fresh server threads per cell and every
        // ring stays registered until the final export; small rings keep
        // the sweep's footprint bounded.
        pyjama_trace::set_ring_capacity(8192);
    }
    let quick = pyjama_bench::quick_mode();
    let thread_sweep: Vec<usize> = if quick {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let (users, reqs) = if quick { (10, 3) } else { (100, 5) };
    let omp_width = 4;

    let variants: [(&str, ServerFlavor, Option<usize>); 4] = [
        ("jetty", ServerFlavor::Jetty, None),
        ("pyjama", ServerFlavor::Pyjama, None),
        ("jetty+parallel", ServerFlavor::Jetty, Some(omp_width)),
        ("pyjama+parallel", ServerFlavor::Pyjama, Some(omp_width)),
    ];

    println!(
        "=== Figure 9 — encryption service, {users} virtual users × {reqs} requests ===\n"
    );
    // The keep-alive sweep: `false` reproduces the paper-era
    // connection-per-request baseline, `true` is the persistent-connection
    // pipeline. The printed table shows keep-alive numbers; the CSV keeps
    // both.
    let mut header = vec!["workers".to_string()];
    header.extend(variants.iter().map(|(n, _, _)| format!("{n} (resp/s)")));
    let mut table = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut csv = Table::new(&[
        "variant",
        "keepalive",
        "worker_threads",
        "throughput_rps",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "mean_response_ms",
        "queue_delay_p99_ms",
        "reused_conns",
        "failed",
    ]);

    for &threads in &thread_sweep {
        let mut row = vec![threads.to_string()];
        for (name, flavor, omp) in &variants {
            for keepalive in [false, true] {
                let config = HttpBenchConfig {
                    users,
                    requests_per_user: reqs,
                    worker_threads: threads,
                    omp_parallel_per_event: *omp,
                    payload: 2048,
                    work_factor: if quick { 8 } else { 24 },
                    io_ms: 10,
                    keepalive,
                };
                let r = run_http_benchmark(*flavor, &config);
                assert_eq!(
                    r.failed, 0,
                    "{name} at {threads} workers (keepalive={keepalive}) had failures"
                );
                if keepalive {
                    row.push(format!("{:.1}", r.throughput));
                }
                csv.row(vec![
                    name.to_string(),
                    keepalive.to_string(),
                    threads.to_string(),
                    format!("{:.2}", r.throughput),
                    ms(r.p50_response),
                    ms(r.p99_response),
                    ms(r.p999_response),
                    ms(r.mean_response),
                    ms(r.queue_delay_p99),
                    r.conns.reused.to_string(),
                    r.failed.to_string(),
                ]);
            }
        }
        table.row(row);
    }
    print!("{}", table.render());

    let out = "bench_results/fig9_http_throughput.csv";
    csv.write_csv(out).expect("write csv");
    println!("\nwrote {out}");
    println!(
        "\nexpected shape: plain jetty and pyjama scale comparably with worker threads;\n\
         the +parallel variants win at low worker counts (idle cores absorb the inner\n\
         teams) then level off or degrade as worker_threads × omp_width oversubscribes\n\
         the machine — the paper's thread-scheduling-overhead plateau. The CSV's\n\
         keepalive=false rows are the connection-per-request baseline; keepalive=true\n\
         amortises TCP setup and the codec's buffers across each user's requests.\n\
         The pyjama rows are served by the readiness reactor; its win over jetty is\n\
         the connection ceiling, measured separately by the c10k bin."
    );
    pyjama_bench::finish_trace(trace_path.as_deref());
}
