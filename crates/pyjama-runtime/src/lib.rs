//! The Pyjama runtime: **virtual targets** for OpenMP-style asynchronous
//! offloading — the core contribution of *Towards an Event-Driven
//! Programming Model for OpenMP* (ICPP 2016).
//!
//! The paper extends the OpenMP 4.0 `target` directive with a `virtual`
//! clause: instead of offloading a block to a hardware accelerator, a
//! *virtual target* is "a software-level executor capable of offloading the
//! target block from the thread which encounters this target directive"
//! (§III-A). Because virtual targets share the host's memory there is no
//! data mapping; the block runs with the data context it closes over.
//!
//! ## The model in one example
//!
//! The paper's Figure 6, transliterated:
//!
//! ```
//! use pyjama_runtime::{Runtime, Mode};
//! use std::sync::{Arc, atomic::{AtomicBool, Ordering}};
//!
//! let rt = Arc::new(Runtime::new());
//! rt.virtual_target_create_worker("worker", 2); // Table II
//! # // Normally an Edt registers itself; a worker stands in for it here.
//! rt.virtual_target_create_worker("edt", 1);
//!
//! let done = Arc::new(AtomicBool::new(false));
//! let rt2 = Arc::clone(&rt);
//! let done2 = Arc::clone(&done);
//!
//! // //#omp target virtual(worker) nowait
//! let job = rt.target("worker", Mode::NoWait, move || {
//!     // ... downloadAndCompute(hscode) ...
//!     // //#omp target virtual(edt)  — default mode: wait
//!     rt2.target("edt", Mode::Wait, move || {
//!         done2.store(true, Ordering::SeqCst); // Panel.showMsg("Finished!")
//!     });
//! });
//! # job.wait(); // a nowait block's handle: only the example waits for it
//! # assert!(done.load(Ordering::SeqCst));
//! ```
//!
//! ## Scheduling modes (Table I)
//!
//! | clause | [`Mode`] | encountering thread |
//! |---|---|---|
//! | *(none)* | [`Mode::Wait`] | blocks until the block finishes |
//! | `nowait` | [`Mode::NoWait`] | skips past, never notified |
//! | `name_as(t)` | [`Mode::name_as`] | skips past, counted in tag `t`'s latch; later `wait(t)` = [`Runtime::wait_tag`] waits for the count of blocks tagged before it |
//! | `await` | [`Mode::Await`] | skips blocking: **processes other events/tasks** until done |
//!
//! ## Algorithm 1
//!
//! [`Runtime::invoke_target_block`] is a line-for-line reimplementation of
//! the paper's Algorithm 1, including the member-thread short-circuit (a
//! thread already inside the target executes the block synchronously) and
//! the `await` *logical barrier* that keeps dispatching other work.

pub mod asyncio;
pub(crate) mod deque;
pub mod device;
pub mod directive;
pub mod executor;
pub mod invoke;
pub mod macros;
pub mod mode;
pub mod parker;
pub mod registry;
pub mod slab;
pub mod target_edt;
pub mod task;
pub mod worker;

pub use device::{DeviceTarget, SimulatedDevice};
pub use directive::{Clause, TargetDirective, TargetProperty};
pub use executor::{TargetKind, TargetStats, VirtualTarget};
pub use mode::Mode;
pub use parker::{park_stats, reset_park_stats, ParkStats, WakeSignal};
pub use registry::{Runtime, RuntimeError};
pub use slab::alloc_stats;
pub use target_edt::EdtTarget;
pub use task::{TargetFuture, TargetRegion, TaskHandle, TaskState};
pub use worker::{ResizeError, WorkerTarget};
