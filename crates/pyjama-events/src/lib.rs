//! Event-loop / event-dispatch-thread (EDT) substrate.
//!
//! Event-driven applications are driven by "an infinite loop (known as the
//! event-loop) with associated event listeners" (§II-A of the paper). This
//! crate provides that substrate:
//!
//! * [`Event`] — a unit of dispatch: a handler (stored inline via
//!   [`InlineFn`] when its captures are small) plus priority and
//!   correlation metadata.
//! * [`EventLoop`] — the dispatch loop. It has one queue, a FIFO lane per
//!   [`Priority`] and the timer heap under one lock, and one dispatch step
//!   that takes a due timer first, then the oldest event of the highest
//!   lane. `run`, `run_until_idle` and the one non-standard capability the
//!   paper's `await` mode requires, **re-entrant pumping**, all dispatch
//!   through that step. Pyjama "achieves this by slightly modifying the
//!   event queue dispatching mechanism in the Java AWT runtime library"
//!   (§IV-B); here the analogous hook is [`pump::try_pump_current`],
//!   callable from inside a handler.
//! * [`Edt`] — a dedicated dispatch thread owning an event loop, with
//!   `invoke_later` / `invoke_and_wait` in the style of
//!   `SwingUtilities`.
//! * [`recurring`] — `javax.swing.Timer`-style periodic events on top of
//!   the loop's delayed posts.
//! * [`parker`] — one parker per thread: every wait in the runtime parks on
//!   the waiting thread's own [`WakeSignal`], and every wake source
//!   notifies it.
//! * [`latch`] — one counted wait: an outstanding count whose waiters park
//!   on their own parkers until it drains, by generation (`wait(tag)`) or
//!   to zero (a drain).
//!
//! The crate deliberately knows nothing about virtual targets; the runtime
//! crate layers the paper's offloading semantics on top of these hooks.

pub mod coalesce;
pub mod edt;
pub mod event;
pub mod eventloop;
pub mod inline;
pub mod latch;
pub mod parker;
pub mod pump;
mod queue;
pub mod recurring;

pub use coalesce::Coalescer;
pub use edt::Edt;
pub use event::{Event, Priority};
pub use inline::InlineFn;
pub use latch::{Latch, LatchGuard};
pub use eventloop::{EventLoop, EventLoopHandle, LoopStats};
pub use parker::WakeSignal;
pub use recurring::IntervalHandle;
