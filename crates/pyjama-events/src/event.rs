//! The unit of dispatch.

use std::time::Instant;

use pyjama_trace::TraceId;

use crate::inline::InlineFn;

/// Dispatch priority. Events of equal priority dispatch in FIFO order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Dispatched before everything else (e.g. quit, urgent repaints).
    High = 2,
    /// Ordinary events.
    #[default]
    Normal = 1,
    /// Background/idle work.
    Low = 0,
}

/// An event: a one-shot handler plus metadata.
///
/// In an event-driven framework "the listener triggers the callback function
/// implemented by programmers" (§II-A); an `Event` is that callback, queued.
pub struct Event {
    priority: Priority,
    /// Creation time; a delayed event's deadline once scheduled.
    pub(crate) fired_at: Instant,
    trace: TraceId,
    handler: InlineFn,
}

impl Event {
    /// Creates a normal-priority event from a handler.
    pub fn new(handler: impl FnOnce() + Send + 'static) -> Self {
        Event {
            priority: Priority::Normal,
            fired_at: Instant::now(),
            trace: TraceId::mint(),
            handler: InlineFn::new(handler),
        }
    }

    /// Sets the priority (builder style).
    pub fn with_priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// The event's priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// When the event was created ("fired"), or, for a delayed event, the
    /// deadline it was scheduled for: its queueing latency counts from here.
    pub fn fired_at(&self) -> Instant {
        self.fired_at
    }

    /// The causal trace id minted at creation (NONE while tracing is off).
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// True when the handler's captures are stored inline (no allocation).
    pub fn handler_is_inline(&self) -> bool {
        self.handler.is_inline()
    }

    /// Consumes the event and runs its handler.
    pub fn dispatch(self) {
        self.handler.call()
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn dispatch_runs_handler_once() {
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        let e = Event::new(move || r2.store(true, Ordering::SeqCst));
        e.dispatch();
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn builder_sets_metadata() {
        let e = Event::new(|| {}).with_priority(Priority::High);
        assert_eq!(e.priority(), Priority::High);
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
    }
}
