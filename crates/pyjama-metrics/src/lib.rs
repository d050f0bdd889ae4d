//! Measurement infrastructure for the Pyjama-RS reproduction of
//! *Towards an Event-Driven Programming Model for OpenMP* (ICPP 2016).
//!
//! The paper evaluates its programming model with two kinds of metrics:
//!
//! * **Response time** of GUI events — the "time flow from the event firing
//!   to the finish of its event handling" (§V-A). [`LatencyRecorder`]
//!   captures individual samples, and [`Histogram`] summarises them
//!   (mean, percentiles).
//! * **Throughput** of an HTTP service — "responses/sec" under a constant
//!   load of virtual users (§V-B). [`ThroughputMeter`] counts completions
//!   over a wall-clock window.
//!
//! [`OccupancyTracker`] quantifies *responsiveness* directly: the fraction
//! of wall-clock time the event dispatch thread (EDT) spends busy inside
//! handlers, which is the quantity the paper's offloading directives are
//! designed to minimise.
//!
//! Everything else a subsystem counts is a **counter set**, declared once
//! with [`counter_set!`]: a list of documented [`Counter`] and [`Gauge`]
//! fields from which the macro derives the atomic `XCounters`, its
//! `XStats` snapshot, `snapshot`/`reset`/`since` and `fields()` (see
//! [`counter_set`](mod@counter_set)). What makes a set more than a tally is
//! the conservation law written on top of its snapshot, such as the
//! reactor's `readiness_events == dispatched + spurious_ready` or the
//! recycler's `allocated == recycled + live + dropped`. The sets declared
//! here live in one module per subsystem (`admission`, `alloc`, `conn`,
//! `park`, `reactor`, `reconfig`, `team`, `vm`); the scheduler's
//! `TargetCounters` is declared next to the virtual targets in
//! pyjama-runtime.
//!
//! Everything here is synchronisation-cheap (atomics or a short
//! `pyjama_sync` critical section) so that recording does not perturb the
//! systems being measured.

pub mod admission;
pub mod alloc;
pub mod conn;
pub mod counter_set;
pub mod histogram;
pub mod latency;
pub mod occupancy;
pub mod park;
pub mod reactor;
pub mod reconfig;
pub mod stats;
pub mod team;
pub mod throughput;
pub mod timeline;
pub mod vm;

pub use admission::{AdmissionCounters, AdmissionStats};
pub use alloc::{AllocCounters, AllocStats};
pub use conn::{ConnCounters, ConnStats};
pub use counter_set::{Counter, Gauge};
pub use histogram::Histogram;
pub use latency::LatencyRecorder;
pub use occupancy::OccupancyTracker;
pub use park::{ParkCounters, ParkStats};
pub use reactor::{ReactorCounters, ReactorStats};
pub use reconfig::{ReconfigCounters, ReconfigStats};
pub use stats::{OnlineStats, Summary};
pub use team::{TeamCounters, TeamStats};
pub use throughput::ThroughputMeter;
pub use timeline::{Timeline, TimelineEvent, TimelineEventKind};
pub use vm::{VmCounters, VmStats};
