//! Per-layer metrics out of one traced pass: counter deltas over the
//! window, stage medians out of the `pyjama_trace` windows, span self
//! times, and the direct timings.

use pyjama_trace::{Stage, Trace};

use crate::harness::{Measured, Norm};
use crate::spans;
use crate::stats::{self, ratio};
use crate::tracewin::{median_ns, stage_deltas};

/// Median over windows of each window's median `from → to` delta, ns.
fn stage_p50(windows: &[Trace], from: Stage, to: Stage) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .filter_map(|w| {
            let mut d = stage_deltas(w, from, to);
            (!d.is_empty()).then(|| median_ns(&mut d) as f64)
        })
        .collect();
    stats::median(&per_window)
}

fn p50(samples: &mut [u64]) -> f64 {
    median_ns(samples) as f64
}

/// Every per-layer metric the traced pass yields by itself (see
/// `schema::outside_traced_pass` for the rest), by name. Layers the workload never touched read 0.
pub fn layer_metrics(m: &Measured) -> Vec<(&'static str, f64)> {
    let ops = m.ops as f64;
    let kops = ops / 1e3;
    let d = &m.delta;
    let w = &m.windows;

    let ready_to_post = stage_p50(w, Stage::ReactorReady, Stage::RegionPosted);
    let post_to_run = stage_p50(w, Stage::RegionPosted, Stage::RegionRunBegin);
    let run_to_written = stage_p50(w, Stage::RegionRunBegin, Stage::ResponseWritten);
    let written_to_rearm = stage_p50(w, Stage::ResponseWritten, Stage::ReactorRearm);
    let latency_p50_ns = stats::median(&m.latency_p50_us(Norm::RAW)) * 1e3;
    // Only the reactor's chain decomposes a request; elsewhere there is
    // nothing to attribute.
    let unattributed = if ready_to_post > 0.0 && latency_p50_ns > 0.0 {
        1.0 - (ready_to_post + post_to_run + run_to_written + written_to_rearm) / latency_p50_ns
    } else {
        0.0
    };

    let mut s = spans::summarize(&m.spans);
    let t = &d.target;
    let executed = t.executed as f64;
    let barrier_waits = (d.team.barrier_spins + d.team.barrier_parks) as f64;

    vec![
        ("http.parse_ns_per_req", m.micro.parse_ns_per_req),
        ("http.serialize_ns_per_resp", m.micro.serialize_ns_per_resp),
        ("http.serve_self_us_p50", p50(&mut s.client_self_ns) / 1e3),
        ("http.handler_us_p50", p50(&mut s.handler_ns) / 1e3),
        ("http.stage_ready_to_post_ns_p50", ready_to_post),
        ("runtime.stage_post_to_run_ns_p50", post_to_run),
        ("http.stage_run_to_written_ns_p50", run_to_written),
        ("http.stage_written_to_rearm_ns_p50", written_to_rearm),
        ("http.unattributed_share", unattributed),
        ("http.accepts_per_op", ratio(d.conn.accepted as f64, ops)),
        ("http.conn_reuse_share", ratio(d.conn.reused as f64, ops)),
        (
            "reactor.readiness_per_req",
            ratio(d.reactor.readiness_events as f64, ops),
        ),
        (
            "reactor.rearms_per_req",
            ratio(d.reactor.rearms() as f64, ops),
        ),
        (
            "reactor.wakeups_per_req",
            ratio(d.reactor.wakeups as f64, ops),
        ),
        (
            "reactor.spurious_share",
            ratio(
                d.reactor.spurious_ready as f64,
                d.reactor.readiness_events as f64,
            ),
        ),
        ("kernels.crypt_ns_per_kib", m.micro.crypt_ns_per_kib),
        (
            "runtime.post_ns_per_op",
            ratio(m.post_call_ns as f64, t.posted as f64),
        ),
        ("runtime.inline_ns_per_post", m.micro.inline_ns_per_post),
        (
            "runtime.injector_share",
            ratio(t.injector_pops as f64, executed),
        ),
        (
            "runtime.local_pop_share",
            ratio(t.local_pops as f64, executed),
        ),
        ("runtime.steal_share", ratio(t.steals as f64, executed)),
        (
            "runtime.steal_hit_ratio",
            ratio(t.steals as f64, t.steal_attempts as f64),
        ),
        (
            "runtime.steal_batch_mean",
            ratio((t.steals + t.steal_moved) as f64, t.steals as f64),
        ),
        (
            "runtime.injector_batch_mean",
            ratio(t.injector_pops as f64, t.injector_batches as f64),
        ),
        ("runtime.parks_per_kop", ratio(d.park.parks as f64, kops)),
        (
            "runtime.spurious_wake_share",
            ratio(d.park.spurious_wakes as f64, d.park.wakes as f64),
        ),
        (
            "runtime.notifies_per_kop",
            ratio(d.park.notifies as f64, kops),
        ),
        (
            "runtime.slab_reuse_share",
            ratio(
                d.slab.reused as f64,
                (d.slab.allocated + d.slab.reused) as f64,
            ),
        ),
        ("alloc.calls_per_op", ratio(m.alloc_calls as f64, ops)),
        (
            "events.queue_wait_us_p50",
            stage_p50(w, Stage::EventPosted, Stage::EventDispatchBegin) / 1e3,
        ),
        (
            "events.edt_busy_share",
            ratio(d.edt_busy_ns as f64 / 1e9, m.wall_s),
        ),
        (
            "events.reentrant_share",
            ratio(d.edt.reentrant as f64, d.edt.dispatched as f64),
        ),
        ("events.max_depth", f64::from(d.edt.max_depth)),
        (
            "omp.fork_join_ns_per_region",
            if d.team.regions_forked > 0 {
                p50(&mut s.client_self_ns)
            } else {
                0.0
            },
        ),
        (
            "omp.hot_region_share",
            ratio(d.team.regions_hot as f64, d.team.regions_forked as f64),
        ),
        (
            "omp.barrier_park_share",
            ratio(d.team.barrier_parks as f64, barrier_waits),
        ),
        ("omp.threads_spawned", d.team.threads_spawned as f64),
        ("client.busy_share", ratio(m.gen_cpu_s, m.wall_s)),
        ("client.gen_lag_p99_us", m.gen_lag_p99_ns as f64 / 1e3),
        ("client.self_ns_per_req", ratio(m.gen_cpu_s * 1e9, ops)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Counters, Micro, SliceOut};
    use crate::schema::PER_LAYER;

    #[test]
    fn names_match_the_schema_in_order() {
        let m = Measured {
            slices: vec![SliceOut {
                wall_s: 1.0,
                ops: 10,
                cpu_us: 1.0,
                p50_ns: 1,
                p99_ns: 2,
                samples: 10,
                ref_ns: 0.0,
            }],
            attempted: 10,
            failed: 0,
            ops: 10,
            wall_s: 1.0,
            gen_cpu_s: 0.5,
            gen_lag_p99_ns: 0,
            delta: Counters::default(),
            post_call_ns: 0,
            alloc_calls: 20,
            micro: Micro::default(),
            windows: Vec::new(),
            spans: Vec::new(),
            peak_rss_mb: 1.0,
        };
        let got = layer_metrics(&m);
        let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = PER_LAYER
            .iter()
            .map(|s| s.name)
            .filter(|n| !crate::schema::outside_traced_pass(n))
            .collect();
        assert_eq!(names, want);
        let value = |name: &str| got.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(value("alloc.calls_per_op"), 2.0);
        assert_eq!(value("client.busy_share"), 0.5);
        assert_eq!(
            value("runtime.steal_share"),
            0.0,
            "untouched layers read 0, not NaN"
        );
        assert!(got.iter().all(|(_, v)| v.is_finite()));
    }
}
