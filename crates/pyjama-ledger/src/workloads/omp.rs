//! `omp_regions` — back-to-back `pyjama_omp::parallel_for` regions on the
//! generator thread, two members each running `region_overhead`'s small
//! kernel (~20 µs). The kernel is fixed work, so what moves this workload
//! is the fork-join path: team lease, member activation, join barrier.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pyjama_omp::{parallel_for, Schedule};

use super::{spin, Rng, POOL_THREADS};
use crate::clock;
use crate::harness::{Counters, SliceRec, Workload};
use crate::spans::{self, Kind};

/// Iterations of the small kernel: ~20 µs per member, the size of
/// `region_overhead`'s "smallest real kernel".
const KERNEL_ITERS: u64 = 9_000;
/// Distinct seeded kernel inputs the regions cycle through.
const INPUTS: usize = 64;

pub struct OmpRegions {
    /// Per region input: each member's kernel start value.
    starts: Vec<[u64; POOL_THREADS]>,
    /// Wrapping sum of the members' results, from direct kernel calls.
    expect: Vec<u64>,
    regions: u64,
}

impl OmpRegions {
    pub fn setup(seed: u64) -> Result<OmpRegions, String> {
        let mut rng = Rng::new(seed);
        let starts: Vec<[u64; POOL_THREADS]> = (0..INPUTS)
            .map(|_| std::array::from_fn(|_| rng.next_u64()))
            .collect();
        let expect = starts
            .iter()
            .map(|s| {
                s.iter()
                    .fold(0u64, |acc, &v| acc.wrapping_add(spin(KERNEL_ITERS, v)))
            })
            .collect();
        let mut w = OmpRegions {
            starts,
            expect,
            regions: 0,
        };
        // The first region spawns the pool's worker.
        let mut rec = SliceRec::default();
        w.region(&mut rec);
        if rec.failed > 0 {
            return Err("first region reduced to the wrong value".into());
        }
        Ok(w)
    }

    fn region(&mut self, rec: &mut SliceRec) {
        self.regions += 1;
        let op = self.regions;
        let input = &self.starts[op as usize % INPUTS];
        let sum = AtomicU64::new(0);
        rec.attempted += 1;
        let t0 = clock::now_ns();
        parallel_for(
            POOL_THREADS,
            0..POOL_THREADS,
            Schedule::Static { chunk: None },
            |i| {
                let h0 = clock::now_ns();
                let out = spin(KERNEL_ITERS, input[i]);
                sum.fetch_add(out, Ordering::Relaxed);
                let h1 = clock::now_ns();
                spans::record(Kind::KernelCall, op, h0, h1);
                spans::record(Kind::Handler, op, h0, h1);
            },
        );
        let t1 = clock::now_ns();
        if sum.load(Ordering::Relaxed) == self.expect[op as usize % INPUTS] {
            rec.ops += 1;
            rec.lat_ns.push(t1 - t0);
            spans::record(Kind::ClientRequest, op, t0, t1);
        } else {
            rec.failed += 1;
        }
    }
}

impl Workload for OmpRegions {
    const TRACE_WINDOW_OPS: u64 = 2_000;

    fn run(&mut self, deadline: Instant, max_ops: u64, rec: &mut SliceRec) {
        let mut started = 0;
        while started < max_ops && Instant::now() < deadline {
            self.region(rec);
            started += 1;
        }
    }

    fn counters(&self) -> Counters {
        Counters::process_wide()
    }

    fn check(&self, delta: &Counters, ops: u64) -> Result<(), String> {
        if delta.team.regions_forked != ops {
            return Err(format!(
                "guard omp_regions: pool forked {} regions for {ops} operations",
                delta.team.regions_forked
            ));
        }
        let t = pyjama_omp::team_stats();
        if !t.activations_conserved() {
            return Err(format!(
                "guard omp_activations: spawned {} + reused {} != activations {}",
                t.threads_spawned, t.threads_reused, t.member_activations
            ));
        }
        Ok(())
    }
}
