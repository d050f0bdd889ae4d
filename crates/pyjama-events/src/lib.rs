//! Event-loop / event-dispatch-thread (EDT) substrate.
//!
//! Event-driven applications are driven by "an infinite loop (known as the
//! event-loop) with associated event listeners" (§II-A of the paper). This
//! crate provides that substrate:
//!
//! * [`Event`] — a unit of dispatch: a handler (stored inline via
//!   [`InlineFn`] when its captures are small) plus priority and
//!   correlation metadata.
//! * [`EventQueue`] — the priority-ordered queue behind a loop; it wakes
//!   the thread running the loop on every post.
//! * [`EventLoop`] — the dispatch loop itself, with the one non-standard
//!   capability the paper's `await` mode requires: **re-entrant pumping**.
//!   Pyjama "achieves this by slightly modifying the event queue dispatching
//!   mechanism in the Java AWT runtime library" (§IV-B); here the analogous
//!   hook is [`EventLoop`]'s `pump_once`, reachable from inside a handler
//!   through [`pump::try_pump_current`].
//! * [`Edt`] — a dedicated dispatch thread owning an event loop, with
//!   `invoke_later` / `invoke_and_wait` in the style of
//!   `SwingUtilities`.
//! * [`timer`] — delayed event scheduling.
//! * [`parker`] — one parker per thread: every wait in the runtime parks on
//!   the waiting thread's own [`WakeSignal`], and every wake source
//!   notifies it.
//!
//! The crate deliberately knows nothing about virtual targets; the runtime
//! crate layers the paper's offloading semantics on top of these hooks.

pub mod coalesce;
pub mod edt;
pub mod event;
pub mod eventloop;
pub mod inline;
pub mod parker;
pub mod pump;
pub mod queue;
pub mod recurring;
pub mod timer;

pub use coalesce::Coalescer;
pub use edt::Edt;
pub use event::{Event, EventId, Priority};
pub use inline::InlineFn;
pub use eventloop::{EventLoop, EventLoopHandle, LoopStats};
pub use parker::WakeSignal;
pub use queue::EventQueue;
pub use recurring::IntervalHandle;
pub use timer::TimerQueue;
