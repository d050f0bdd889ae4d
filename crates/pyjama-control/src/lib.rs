//! Live control plane for the Pyjama-RS event-driven runtime.
//!
//! Long-lived event-driven processes — the paper's GUI pumps and HTTP
//! services — cannot be bounced to retune a worker count or a connection
//! limit. This crate makes reconfiguration *another event in the system*:
//!
//! * [`Config`] — one immutable `Copy` snapshot of every tunable knob
//!   (pool sizes, per-connection limits, reactor sweep interval, spin
//!   budget, admission thresholds), validated as a whole.
//! * [`ConfigCell`] — a hand-rolled, std-only arc-swap in the leaky-epoch
//!   style: readers pay exactly one `Acquire` load (gated ≤ 2 ns/op by the
//!   `overload_shed` bench); replaced snapshots are retired, never freed,
//!   while the cell lives, which is what makes the unguarded `&Config`
//!   sound. See DESIGN.md §5k for the ordering argument and the
//!   pyjama-check model that exercises it.
//! * [`ControlPlane`] — the single write path: validate → diff → publish →
//!   notify subscribers, with a generation counter, `ReconfigCounters`,
//!   and `ConfigPublish`/`ConfigApply` trace stages forming one causal
//!   flow per reconfiguration.
//!
//! Built-in wiring: [`ControlPlane::attach_worker_target`] grows/shrinks a
//! `pyjama-runtime` work-stealing pool live (graceful retire — a removed
//! worker drains its deque into the injector before parking permanently),
//! and [`ControlPlane::attach_spin_budget`] retunes
//! `pyjama_sync::spin::budget()` on the fly. `pyjama-http` consumes a
//! [`ConfigHandle`] for connection limits, the reactor sweep interval, the
//! body cap, and 429 admission shedding, and exposes the plane over an
//! `/admin` HTTP listener.

pub mod cell;
pub mod config;
pub mod plane;

pub use cell::{ConfigCell, Snapshot};
pub use config::{Config, ConfigDiff, ConfigError};
pub use plane::{ConfigHandle, ControlPlane};
