//! # pyjama-ledger — the perf ledger
//!
//! One command, seven workloads, end-to-end and per-layer numbers for the
//! whole Pyjama-RS stack (see `README.md` next to this crate for every
//! workload and metric). The ledger measures layers from outside: it times
//! calls into their public functions, wraps the closures it hands them, and
//! reads the counters and stage stamps they already expose.
//!
//! * [`cli`] — the `pyjama-ledger` binary: `run`, `compare`,
//!   `benchmark-json`, and the internal `child` re-exec.
//! * [`harness`] — warm-up, sliced measurement window, counter deltas.
//! * [`hostref`] — the interleaved host-speed reference every time is
//!   normalised by.
//! * [`workloads`] — the seven systems under test and their generators.
//! * [`layer`], [`spans`], [`tracewin`] — the traced pass's per-layer maths.
//! * [`compare`] — verdicts between two result sets.
//! * [`schema`] — metric names, units, bounds; the source of
//!   `BENCHMARK.json`.

pub mod alloc;
pub mod child;
pub mod cli;
pub mod clock;
pub mod compare;
pub mod harness;
pub mod hostref;
pub mod json;
pub mod layer;
pub mod procfs;
pub mod schema;
pub mod spans;
pub mod stats;
pub mod tracewin;
pub mod workloads;
