//! # pyjama-check — deterministic interleaving checking for the lock-free core
//!
//! A loom-style model checker for the protocols pyjama's runtime trusts:
//! the Chase–Lev deque, the one spin-then-park `EventCount` and the
//! `WakeSignal` permit park on it, the omp pool's done-signal join, the
//! control plane's snapshot cell and the live-shrink retire drain. Code
//! under test runs on **virtual threads** whose every shared-memory operation goes through instrumented shims
//! ([`shim`]) and becomes a scheduling point; the [`Checker`] then executes
//! the closure under many interleavings — bounded-exhaustive DFS first,
//! seeded random schedules beyond that — and reports any failing schedule
//! as a readable operation trace plus a one-line replay recipe.
//!
//! ```
//! use pyjama_check::{Checker, shim};
//! use shim::Ordering::SeqCst;
//! use std::sync::Arc;
//!
//! // Two threads CAS the same counter: exactly one wins.
//! Checker::default().check("cas-once", || {
//!     let x = Arc::new(shim::AtomicU64::named("x", 0));
//!     let x2 = Arc::clone(&x);
//!     let t = shim::thread::spawn("racer", move || {
//!         let _ = x2.compare_exchange(0, 1, SeqCst, SeqCst);
//!     });
//!     let _ = x.compare_exchange(0, 2, SeqCst, SeqCst);
//!     t.join();
//!     let v = x.load(SeqCst);
//!     assert!(v == 1 || v == 2);
//! });
//! ```
//!
//! ## What a failure looks like
//!
//! An assertion, deadlock (lost wakeup), or op-budget livelock stops the
//! run; [`Checker::check`] panics with the schedule (a dot-separated choice
//! vector), the tail of the operation trace, and a `PJ_CHECK_REPLAY`
//! one-liner that re-runs exactly that interleaving. Programmatic callers
//! use [`Checker::find_failure`] / [`Checker::replay`] — that is how the
//! seeded-mutation regression tests pin known-bad schedules.
//!
//! ## Fidelity and limitations
//!
//! Interleavings are explored at shim-operation granularity under a **TSO
//! store-buffer** memory model (see [`shim`]): weakening a SeqCst store or
//! fence to Relaxed really delays its global visibility, so eventcount /
//! Dekker-style store→load hazards are caught. Load→load and store→store
//! reordering (non-TSO weak memory) are *not* modelled, timed waits ignore
//! actual durations (a timeout is just always possible), and `notify_one`
//! wakes FIFO. DESIGN.md §5h documents the model in full.

pub mod models;
pub(crate) mod sched;
#[cfg(test)]
mod scenarios;
pub mod shim;

use std::sync::Arc;

pub use models::Mutation;

/// Exploration budget and determinism knobs. `Default` is sized for CI on
/// one CPU: a DFS pass capped at `max_schedules`, then `random_iters`
/// seeded random schedules if the DFS was truncated.
#[derive(Clone, Debug)]
pub struct Checker {
    /// Cap on DFS schedules before falling back to random exploration.
    pub max_schedules: usize,
    /// Random schedules run when (and only when) the DFS pass truncated.
    pub random_iters: usize,
    /// Seed for the random pass; fixed by default so CI is deterministic.
    pub seed: u64,
    /// Per-schedule operation budget; exceeding it is reported as livelock.
    pub max_ops: usize,
    /// DFS backtracking depth cap: decisions beyond it always take branch 0
    /// and are not backtracked (counts toward `truncated`).
    pub depth_cap: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            max_schedules: 1500,
            random_iters: 200,
            seed: 0x5EED_CAFE,
            max_ops: 5000,
            depth_cap: 400,
        }
    }
}

/// What an exploration did — returned on success so callers (and CI logs)
/// can see coverage instead of silent truncation.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Total schedules executed (DFS + random).
    pub schedules: u64,
    /// True when the DFS pass covered the whole choice tree within its
    /// caps; false means the random pass supplemented a truncated DFS.
    pub dfs_complete: bool,
}

/// A failing schedule, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Scenario name the checker was invoked with.
    pub name: String,
    /// The failure headline (panic message, deadlock, or livelock).
    pub message: String,
    /// The choice vector identifying the interleaving.
    pub schedule: Vec<usize>,
    /// Human-readable tail of the operation trace.
    pub trace: String,
    /// Schedules explored before this failure surfaced.
    pub schedules_explored: u64,
    /// Seed of the random pass, when the failure came from one.
    pub seed: Option<u64>,
}

impl FailureReport {
    /// The full multi-line report [`Checker::check`] panics with.
    pub fn render(&self) -> String {
        let sched_str = schedule_string(&self.schedule);
        let seed_line = match self.seed {
            Some(s) => format!("\nfound by random pass, seed {s:#x}"),
            None => String::new(),
        };
        format!(
            "pyjama-check: scenario '{}' failed after {} schedule(s)\n\
             failure: {}{}\n\
             schedule: {}\n\
             replay: PJ_CHECK_REPLAY='{}:{}' (or Checker::replay)\n\
             trace (last ops):\n{}",
            self.name,
            self.schedules_explored,
            self.message,
            seed_line,
            sched_str,
            self.name,
            sched_str,
            self.trace,
        )
    }
}

fn schedule_string(s: &[usize]) -> String {
    s.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(".")
}

fn parse_schedule(s: &str) -> Vec<usize> {
    s.split(['.', ','])
        .filter(|p| !p.is_empty())
        .map(|p| p.trim().parse().expect("PJ_CHECK_REPLAY: not a number"))
        .collect()
}

fn render_trace(out: &sched::RunOutcome, tail: usize) -> String {
    let start = out.trace.len().saturating_sub(tail);
    let mut s = String::new();
    if start > 0 {
        s.push_str(&format!("  … {start} earlier op(s) elided …\n"));
    }
    for (tid, desc) in &out.trace[start..] {
        let name = out
            .thread_names
            .get(*tid)
            .map(String::as_str)
            .unwrap_or("?");
        s.push_str(&format!("  [{tid}:{name}] {desc}\n"));
    }
    s
}

impl Checker {
    /// A configuration that only runs the bounded-exhaustive DFS pass.
    pub fn exhaustive(max_schedules: usize) -> Self {
        Checker { max_schedules, random_iters: 0, ..Checker::default() }
    }

    /// A configuration that skips DFS and runs `iters` seeded random
    /// schedules — for state spaces known to dwarf the DFS budget.
    pub fn random(iters: usize, seed: u64) -> Self {
        Checker { max_schedules: 0, random_iters: iters, seed, ..Checker::default() }
    }

    /// Explores `f` under many interleavings; panics with a rendered
    /// [`FailureReport`] on the first failing schedule. Honors
    /// `PJ_CHECK_REPLAY='<name>:<c0.c1…>'` by replaying exactly that
    /// schedule when `<name>` matches.
    pub fn check(&self, name: &str, f: impl Fn() + Send + Sync + 'static) -> Report {
        match self.explore(name, Arc::new(f)) {
            Ok(report) => report,
            Err(fail) => panic!("{}", fail.render()),
        }
    }

    /// Like [`check`](Self::check) but returns the failure instead of
    /// panicking — the entry point for mutation tests that *expect* the
    /// checker to find a bug.
    pub fn find_failure(
        &self,
        name: &str,
        f: impl Fn() + Send + Sync + 'static,
    ) -> Option<FailureReport> {
        self.explore(name, Arc::new(f)).err()
    }

    /// Runs exactly one schedule, given by its choice vector (as printed in
    /// a failure report). Returns the failure if it reproduces.
    pub fn replay(
        &self,
        name: &str,
        schedule: &[usize],
        f: impl Fn() + Send + Sync + 'static,
    ) -> Option<FailureReport> {
        let out = sched::run_once(
            Arc::new(f),
            sched::Mode::Dfs,
            schedule.to_vec(),
            self.seed,
            self.max_ops,
        );
        self.outcome_to_failure(name, out, 1, None)
    }

    fn outcome_to_failure(
        &self,
        name: &str,
        out: sched::RunOutcome,
        schedules: u64,
        seed: Option<u64>,
    ) -> Option<FailureReport> {
        let message = out.failure.clone()?;
        Some(FailureReport {
            name: name.to_string(),
            message,
            schedule: out.choices.iter().map(|c| c.picked).collect(),
            trace: render_trace(&out, 120),
            schedules_explored: schedules,
            seed,
        })
    }

    fn explore(
        &self,
        name: &str,
        f: Arc<dyn Fn() + Send + Sync>,
    ) -> Result<Report, FailureReport> {
        // Replay mode: run the requested schedule and nothing else.
        if let Ok(replay) = std::env::var("PJ_CHECK_REPLAY") {
            if let Some((n, sched_str)) = replay.split_once(':') {
                if n == name {
                    let out = sched::run_once(
                        Arc::clone(&f),
                        sched::Mode::Dfs,
                        parse_schedule(sched_str),
                        self.seed,
                        self.max_ops,
                    );
                    return match self.outcome_to_failure(name, out, 1, None) {
                        Some(fail) => Err(fail),
                        None => Ok(Report { schedules: 1, dfs_complete: false }),
                    };
                }
            }
        }

        let mut schedules = 0u64;
        let mut truncated = false;
        let mut dfs_complete = false;

        // Pass 1: bounded-exhaustive DFS over the choice tree.
        let mut prefix: Vec<usize> = Vec::new();
        loop {
            if schedules as usize >= self.max_schedules {
                break;
            }
            let out = sched::run_once(
                Arc::clone(&f),
                sched::Mode::Dfs,
                prefix.clone(),
                self.seed,
                self.max_ops,
            );
            schedules += 1;
            if out.failure.is_some() {
                return Err(self.outcome_to_failure(name, out, schedules, None).unwrap());
            }
            if out.choices.len() > self.depth_cap {
                truncated = true;
            }
            match sched::dfs_advance(&out.choices, self.depth_cap) {
                Some(next) => prefix = next,
                None => {
                    dfs_complete = !truncated;
                    break;
                }
            }
        }

        // Pass 2: seeded random schedules, only when DFS didn't cover the
        // whole tree.
        if !dfs_complete {
            for i in 0..self.random_iters {
                let seed = self.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let out = sched::run_once(
                    Arc::clone(&f),
                    sched::Mode::Random,
                    Vec::new(),
                    seed,
                    self.max_ops,
                );
                schedules += 1;
                if out.failure.is_some() {
                    return Err(self
                        .outcome_to_failure(name, out, schedules, Some(seed))
                        .unwrap());
                }
            }
        }

        Ok(Report { schedules, dfs_complete })
    }
}

/// Explores `$body` under the default [`Checker`] budget; panics with a
/// replayable failure report on any bad interleaving.
///
/// ```
/// pyjama_check::check!("nothing-shared", || {});
/// ```
#[macro_export]
macro_rules! check {
    ($name:expr, $body:expr) => {
        $crate::Checker::default().check($name, $body)
    };
    ($name:expr, $cfg:expr, $body:expr) => {
        ($cfg).check($name, $body)
    };
}
