//! The §V-B HTTP throughput benchmark (Figure 9).
//!
//! "The load benchmark is set up with 100 virtual users, with each user
//! sending a constant number of requests. The throughput measures the
//! application's ability to process requests. … When the parallelization
//! of each event (using //omp parallel) is used in combination with either
//! Jetty or Pyjama, it initially results in dramatically better
//! throughput. Yet, as the number of concurrency worker threads is
//! increased, the throughput levels off …"

use std::sync::Arc;

use pyjama_http::{HttpServer, LoadGenerator, Response, ServerOptions, ServingPolicy};
use pyjama_metrics::ConnStats;
use pyjama_kernels::crypt::{encrypt_par, encrypt_seq, IdeaKey};
use pyjama_runtime::Runtime;

/// Which server implementation handles requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServerFlavor {
    /// Jetty-style fixed-pool thread-per-request.
    Jetty,
    /// `target virtual(worker) nowait` offload, posted by the readiness
    /// reactor on kernel readiness (`ServingPolicy::Reactor`).
    Pyjama,
}

impl ServerFlavor {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ServerFlavor::Jetty => "jetty",
            ServerFlavor::Pyjama => "pyjama",
        }
    }
}

/// One Figure 9 measurement.
#[derive(Clone, Debug)]
pub struct HttpBenchResult {
    /// Responses per second.
    pub throughput: f64,
    /// Mean response time.
    pub mean_response: std::time::Duration,
    /// Median response time.
    pub p50_response: std::time::Duration,
    /// 99th-percentile response time.
    pub p99_response: std::time::Duration,
    /// 99.9th-percentile response time (the C10K tail).
    pub p999_response: std::time::Duration,
    /// Requests that failed.
    pub failed: u64,
    /// Server-side connection-lifecycle counters (accepts, reuse,
    /// pipelining, idle evictions) — separates connection overhead from
    /// handler cost in the Fig. 9 comparison.
    pub conns: ConnStats,
    /// 99th-percentile scheduling delay between a region being posted and
    /// its handler starting to run, measured from the trace stage
    /// histogram (`RegionPosted → RegionRunBegin`). Isolates queueing cost
    /// from handler cost in the Fig. 9 curves. Zero for cells that post no
    /// regions (pure Jetty with tracing unavailable).
    pub queue_delay_p99: std::time::Duration,
}

/// Configuration of one Figure 9 cell.
#[derive(Clone, Copy, Debug)]
pub struct HttpBenchConfig {
    /// Concurrent virtual users (paper: 100).
    pub users: usize,
    /// Requests per user (constant, closed-loop).
    pub requests_per_user: usize,
    /// Serving worker threads (the swept x-axis).
    pub worker_threads: usize,
    /// `Some(n)`: each request's encryption runs under `omp parallel`
    /// with `n` threads (the paper's per-event parallelisation); `None`:
    /// plain sequential kernel per request.
    pub omp_parallel_per_event: Option<usize>,
    /// Request payload size in bytes.
    pub payload: usize,
    /// How many times the payload is encrypted per request (knob to make
    /// requests CPU-bound like the paper's kernels).
    pub work_factor: usize,
    /// Simulated backend I/O per request (ms). The paper's 16-core Xeon
    /// gave each request real parallel capacity; on a small CI machine
    /// this latency phase supplies the per-request concurrency headroom
    /// that makes worker-thread scaling observable (documented
    /// substitution, see DESIGN.md/EXPERIMENTS.md).
    pub io_ms: u64,
    /// HTTP keep-alive on both sides: each virtual user holds one
    /// persistent connection for all its requests and the server honors
    /// it. `false` reproduces the original connection-per-request
    /// (`connection: close`) baseline.
    pub keepalive: bool,
}

impl Default for HttpBenchConfig {
    fn default() -> Self {
        HttpBenchConfig {
            users: 100,
            requests_per_user: 5,
            worker_threads: 4,
            omp_parallel_per_event: None,
            payload: 2048,
            work_factor: 32,
            io_ms: 0,
            keepalive: true,
        }
    }
}

fn encryption_handler(
    config: &HttpBenchConfig,
) -> impl Fn(&pyjama_http::Request) -> Response + Send + Sync + 'static {
    let key = IdeaKey::benchmark_key();
    let omp = config.omp_parallel_per_event;
    let work_factor = config.work_factor.max(1);
    let io = std::time::Duration::from_millis(config.io_ms);
    move |req| {
        if io > std::time::Duration::ZERO {
            std::thread::sleep(io); // simulated backend fetch
        }
        let mut data = req.body.clone();
        while data.len() % 8 != 0 {
            data.push(0);
        }
        let mut work = data.repeat(work_factor);
        match omp {
            // "The encryption computation can be parallelized by adopting
            // traditional OpenMP directives."
            Some(n) => encrypt_par(&key, &mut work, n),
            None => encrypt_seq(&key, &mut work),
        }
        Response::ok(work[..64.min(work.len())].to_vec())
    }
}

/// Runs one (flavor × worker-threads × per-event-parallel × keep-alive)
/// cell.
pub fn run_http_benchmark(flavor: ServerFlavor, config: &HttpBenchConfig) -> HttpBenchResult {
    // The queue-delay column comes from the trace subsystem. Enable it for
    // the duration of this cell if the caller hasn't already (e.g. via
    // `--trace`), and window the collection to this cell's events so a
    // multi-cell sweep doesn't blend measurements. Small rings keep the
    // sweep's memory bounded: each cell spins up fresh server threads and
    // dead threads' rings stay registered until the final collect.
    let tracing_was_on = pyjama_trace::enabled();
    if !tracing_was_on {
        pyjama_trace::set_ring_capacity(8192);
        pyjama_trace::enable();
    }
    let cell_start_ns = pyjama_trace::now_ns();

    let opts = ServerOptions {
        keep_alive: config.keepalive,
        ..ServerOptions::default()
    };
    let mut server = match flavor {
        ServerFlavor::Jetty => HttpServer::start_with(
            ServingPolicy::JettyPool {
                threads: config.worker_threads,
            },
            opts,
            encryption_handler(config),
        )
        .expect("start jetty server"),
        ServerFlavor::Pyjama => {
            let rt = Arc::new(Runtime::new());
            rt.virtual_target_create_worker("worker", config.worker_threads);
            HttpServer::start_with(
                ServingPolicy::Reactor {
                    runtime: rt,
                    target: "worker".into(),
                },
                opts,
                encryption_handler(config),
            )
            .expect("start pyjama server")
        }
    };

    let payload = vec![0xA5u8; config.payload];
    let report = LoadGenerator::new(
        config.users,
        config.requests_per_user,
        "/encrypt",
        payload,
    )
    .with_keepalive(config.keepalive)
    .run(server.addr());
    let conns = server.conn_stats();
    server.shutdown();

    let window = pyjama_trace::collect().after(cell_start_ns);
    if !tracing_was_on {
        pyjama_trace::disable();
    }
    let queue_delay_p99 = std::time::Duration::from_nanos(window.queue_delay().quantile(0.99));

    HttpBenchResult {
        throughput: report.throughput,
        mean_response: report.mean_response,
        p50_response: report.p50_response,
        p99_response: report.p99_response,
        p999_response: report.p999_response,
        failed: report.failed,
        conns,
        queue_delay_p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_http_benchmark` flips the global trace switch for its window;
    /// serialize the tests that call it so cells don't blend.
    static CELL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn cell_lock() -> std::sync::MutexGuard<'static, ()> {
        CELL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tiny(worker_threads: usize, omp: Option<usize>) -> HttpBenchConfig {
        HttpBenchConfig {
            users: 8,
            requests_per_user: 3,
            worker_threads,
            omp_parallel_per_event: omp,
            payload: 512,
            work_factor: 8,
            io_ms: 2,
            keepalive: true,
        }
    }

    #[test]
    fn both_flavors_serve_all_requests() {
        let _g = cell_lock();
        for flavor in [ServerFlavor::Jetty, ServerFlavor::Pyjama] {
            let r = run_http_benchmark(flavor, &tiny(2, None));
            assert_eq!(r.failed, 0, "{flavor:?}");
            assert!(r.throughput > 0.0, "{flavor:?}");
            assert!(
                r.conns.reused > 0,
                "{flavor:?}: keep-alive must reuse connections ({:?})",
                r.conns
            );
        }
    }

    #[test]
    fn keepalive_off_reproduces_conn_per_request_baseline() {
        let _g = cell_lock();
        let cfg = HttpBenchConfig {
            keepalive: false,
            ..tiny(2, None)
        };
        let r = run_http_benchmark(ServerFlavor::Jetty, &cfg);
        assert_eq!(r.failed, 0);
        assert_eq!(r.conns.reused, 0, "{:?}", r.conns);
        assert_eq!(r.conns.accepted, 24, "one connection per request");
    }

    #[test]
    fn queue_delay_p99_is_measured_for_pyjama() {
        let _g = cell_lock();
        let r = run_http_benchmark(ServerFlavor::Pyjama, &tiny(2, None));
        assert_eq!(r.failed, 0);
        assert!(
            r.queue_delay_p99 > std::time::Duration::ZERO,
            "pyjama cells must observe a posted→run delay, got {:?}",
            r.queue_delay_p99
        );
        // The cell turned tracing on only for its own window.
        assert!(!pyjama_trace::enabled());
    }

    #[test]
    fn per_event_parallel_works() {
        let _g = cell_lock();
        let r = run_http_benchmark(ServerFlavor::Pyjama, &tiny(2, Some(2)));
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn flavor_names() {
        assert_eq!(ServerFlavor::Jetty.name(), "jetty");
        assert_eq!(ServerFlavor::Pyjama.name(), "pyjama");
    }
}
