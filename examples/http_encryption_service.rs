//! The §V-B case study: an HTTP service "that provides data encryption to
//! web users", served Jetty-style and Pyjama-style, under a closed-loop
//! virtual-user load.
//!
//! Run with: `cargo run --release --example http_encryption_service`
//!
//! Pass `--trace trace.json` to record the causal event trace and export
//! it as Chrome `about://tracing` JSON (open chrome://tracing and load the
//! file; each request's accept → offload → respond chain is one flow).

use std::sync::Arc;

use pyjama::http::{HttpServer, LoadGenerator, Response, ServingPolicy};
use pyjama::kernels::crypt::{encrypt_seq, IdeaKey};
use pyjama::runtime::Runtime;

fn encryption_handler() -> impl Fn(&pyjama::http::Request) -> Response + Send + Sync + 'static {
    let key = IdeaKey::benchmark_key();
    move |req: &pyjama::http::Request| {
        // Pad to the IDEA block size, encrypt, return ciphertext.
        let mut data = req.body.clone();
        while !data.len().is_multiple_of(8) {
            data.push(0);
        }
        // A larger working set to make each request CPU-bound, like the
        // paper's kernel-backed requests.
        let mut work = data.repeat(64);
        encrypt_seq(&key, &mut work);
        Response::ok(work[..data.len().max(8)].to_vec())
    }
}

fn trace_arg() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace" {
            pyjama::trace::enable();
            return Some(args.next().expect("--trace requires a file path"));
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            pyjama::trace::enable();
            return Some(p.to_string());
        }
    }
    None
}

fn main() {
    let trace_path = trace_arg();
    let users = 16;
    let requests_per_user = 20;
    let payload = vec![0x5Au8; 1024];

    // --- Jetty-style: fixed pool, thread-per-request -------------------
    let mut jetty = HttpServer::start(
        ServingPolicy::JettyPool { threads: 4 },
        encryption_handler(),
    )
    .expect("start jetty-style server");
    let report_jetty =
        LoadGenerator::new(users, requests_per_user, "/encrypt", payload.clone()).run(jetty.addr());
    jetty.shutdown();

    // --- Pyjama-style: readiness reactor + virtual target offload --------
    let rt = Arc::new(Runtime::new());
    rt.virtual_target_create_worker("worker", 4);
    let mut pyjama_srv = HttpServer::start(
        ServingPolicy::Reactor {
            runtime: Arc::clone(&rt),
            target: "worker".into(),
        },
        encryption_handler(),
    )
    .expect("start pyjama server");
    let report_pyjama =
        LoadGenerator::new(users, requests_per_user, "/encrypt", payload).run(pyjama_srv.addr());
    pyjama_srv.shutdown();

    println!("encryption service under {users} virtual users × {requests_per_user} requests\n");
    println!(
        "{:<22} {:>12} {:>8} {:>16} {:>14} {:>12}",
        "policy", "throughput", "failed", "mean response", "p99 response", "completed"
    );
    for (name, r) in [("jetty-pool(4)", &report_jetty), ("pyjama-virtual(4)", &report_pyjama)] {
        println!(
            "{:<22} {:>8.1}/s {:>8} {:>16.2?} {:>14.2?} {:>12}",
            name, r.throughput, r.failed, r.mean_response, r.p99_response, r.completed
        );
    }
    println!("\n→ both policies saturate the same 4 compute threads; the shape matches");
    println!("  Figure 9's finding that Pyjama's virtual targets keep pace with Jetty.");

    if let Some(path) = trace_path {
        pyjama::trace::disable();
        let trace = pyjama::trace::collect();
        trace.write_chrome(&path).expect("write chrome trace");
        println!(
            "\nwrote {} trace events from {} threads to {path} — load it in chrome://tracing",
            trace.len(),
            trace.threads.len()
        );
    }
}
