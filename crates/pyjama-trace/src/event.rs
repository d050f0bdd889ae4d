//! The trace event vocabulary.
//!
//! One [`Stage`] per lifecycle transition the runtime can witness. The set
//! mirrors the paper's event pipeline (post → queue → dispatch), the
//! work-stealing executor (post → dequeue → run), the §5c await barrier
//! (enter → park → wake → exit) and the HTTP connection lifecycle
//! (accept → reactor ready → re-arm → response). Each recorded
//! [`TraceEvent`] is a fixed-size `Copy` value — no allocation on the hot
//! path, ever.

use crate::id::TraceId;

/// A lifecycle stage. The discriminants are stable (they are what the ring
/// buffer stores), so only append new variants; a retired stage leaves its
/// discriminant unassigned (19 and 20 are retired).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    // -- event-loop layer (pyjama-events) ---------------------------------
    /// An event was pushed onto an event queue.
    EventPosted = 0,
    /// The EDT started dispatching the event's handler.
    EventDispatchBegin = 1,
    /// The handler returned (arg 1 = panicked).
    EventDispatchEnd = 2,
    /// A due timer migrated from the timer queue to the event queue.
    TimerFired = 3,

    // -- executor layer (pyjama-runtime) ----------------------------------
    /// `invoke_target_block` accepted a region (arg = mode, see [`arg`]).
    RegionInvoked = 4,
    /// A region was enqueued on a target (arg: injector/member/EDT).
    RegionPosted = 5,
    /// Member short-circuit: the caller runs the region inline.
    RegionInline = 6,
    /// A worker pulled the region out of a queue (arg: local/steal/
    /// injector/help provenance).
    RegionDequeued = 7,
    /// The region body started executing.
    RegionRunBegin = 8,
    /// The region body finished (arg 1 = panicked).
    RegionRunEnd = 9,
    /// The region was cancelled before running.
    RegionCancelled = 10,

    // -- §5c await barrier -------------------------------------------------
    /// A thread entered `await_until` for this handle.
    BarrierEnter = 11,
    /// The awaiting thread found no work to help with and parked.
    BarrierPark = 12,
    /// The parked thread woke (notify, timer deadline, or spurious).
    BarrierWake = 13,
    /// The await completed (task terminal or deadline).
    BarrierExit = 14,

    // -- worker thread state (no trace id) ---------------------------------
    /// A pool worker went to sleep on its eventcount (arg = worker index).
    WorkerPark = 15,
    /// A pool worker woke up (arg = worker index).
    WorkerWake = 16,

    // -- HTTP connection chain (pyjama-http) --------------------------------
    /// A TCP connection was accepted (arg = acceptor shard).
    ConnAccepted = 17,
    /// The connection re-armed: its next serve step was posted as a region.
    ConnRearm = 18,
    /// A response was written back to the socket (arg = requests served on
    /// this connection so far).
    ResponseWritten = 21,

    // -- fork-join teams (pyjama-omp) ---------------------------------------
    /// A parallel region forked its team (arg = team size). Emitted by the
    /// encountering thread; closes with [`Stage::TeamJoin`], so a traced run
    /// shows each region's full fork-to-join span as one slice.
    TeamFork = 22,
    /// The region joined: every member passed the join barrier and the
    /// team quiesced (arg = 1 if the hot-team fast path served the fork).
    TeamJoin = 23,

    // -- readiness reactor (pyjama-http, ServingPolicy::Reactor) -----------
    /// The reactor dispatched a connection on kernel readiness (arg:
    /// readable/writable/timeout, see [`arg::READY_READABLE`]).
    ReactorReady = 24,
    /// A serving region re-registered its connection with the reactor
    /// (arg 0 = read interest, 1 = write interest after a short write).
    ReactorRearm = 25,

    // -- live control plane (pyjama-control) --------------------------------
    /// A validated config snapshot was atomically published (arg = low 32
    /// bits of the new generation). The publish and every subscriber apply
    /// share one minted trace id, so a reconfig is one causal flow.
    ConfigPublish = 26,
    /// One subscriber applied the published snapshot (arg = subscriber
    /// index in registration order).
    ConfigApply = 27,
    /// The admission controller shed a request with `429 Retry-After`
    /// (arg = observed queue depth at the decision point).
    AdmissionShed = 28,
}

/// `arg` value vocabularies, per stage.
pub mod arg {
    /// [`super::Stage::RegionPosted`]: pushed onto the global FIFO injector.
    pub const POST_INJECTOR: u32 = 0;
    /// [`super::Stage::RegionPosted`]: pushed onto the posting member's own deque.
    pub const POST_MEMBER: u32 = 1;
    /// [`super::Stage::RegionPosted`]: posted to an EDT target's event loop.
    pub const POST_EDT: u32 = 2;

    /// [`super::Stage::RegionDequeued`]: owner popped its own deque.
    pub const DEQ_LOCAL: u32 = 0;
    /// [`super::Stage::RegionDequeued`]: stolen from a sibling's deque.
    pub const DEQ_STEAL: u32 = 1;
    /// [`super::Stage::RegionDequeued`]: taken from the global injector.
    pub const DEQ_INJECTOR: u32 = 2;
    /// [`super::Stage::RegionDequeued`]: pulled by an outside helper
    /// (`help_one` during an await).
    pub const DEQ_HELP: u32 = 3;

    /// [`super::Stage::RegionInvoked`] mode operands.
    pub const MODE_WAIT: u32 = 0;
    pub const MODE_NOWAIT: u32 = 1;
    pub const MODE_NAMEAS: u32 = 2;
    pub const MODE_AWAIT: u32 = 3;

    /// [`super::Stage::RegionRunEnd`] / [`super::Stage::EventDispatchEnd`]: clean return.
    pub const END_OK: u32 = 0;
    /// [`super::Stage::RegionRunEnd`] / [`super::Stage::EventDispatchEnd`]: the body panicked.
    pub const END_PANICKED: u32 = 1;

    /// [`super::Stage::ReactorReady`]: socket readable.
    pub const READY_READABLE: u32 = 0;
    /// [`super::Stage::ReactorReady`]: deadline elapsed.
    pub const READY_TIMEOUT: u32 = 1;
    /// [`super::Stage::ReactorReady`]: socket writable (EPOLLOUT re-arm fired).
    pub const READY_WRITABLE: u32 = 2;

    /// [`super::Stage::ReactorRearm`]: registered for read readiness.
    pub const REARM_READ: u32 = 0;
    /// [`super::Stage::ReactorRearm`]: registered for write readiness.
    pub const REARM_WRITE: u32 = 1;

    /// [`super::Stage::TeamJoin`]: the fork leased (or spawned) workers.
    pub const JOIN_COLD: u32 = 0;
    /// [`super::Stage::TeamJoin`]: the fork reused the caller's hot team.
    pub const JOIN_HOT: u32 = 1;

    /// Human label for a `RegionDequeued` provenance value.
    pub fn provenance_name(arg: u32) -> &'static str {
        match arg {
            DEQ_LOCAL => "local",
            DEQ_STEAL => "steal",
            DEQ_INJECTOR => "injector",
            DEQ_HELP => "help",
            _ => "?",
        }
    }
}

impl Stage {
    /// Reconstructs a stage from its stored discriminant.
    pub fn from_u8(v: u8) -> Option<Stage> {
        use Stage::*;
        Some(match v {
            0 => EventPosted,
            1 => EventDispatchBegin,
            2 => EventDispatchEnd,
            3 => TimerFired,
            4 => RegionInvoked,
            5 => RegionPosted,
            6 => RegionInline,
            7 => RegionDequeued,
            8 => RegionRunBegin,
            9 => RegionRunEnd,
            10 => RegionCancelled,
            11 => BarrierEnter,
            12 => BarrierPark,
            13 => BarrierWake,
            14 => BarrierExit,
            15 => WorkerPark,
            16 => WorkerWake,
            17 => ConnAccepted,
            18 => ConnRearm,
            21 => ResponseWritten,
            22 => TeamFork,
            23 => TeamJoin,
            24 => ReactorReady,
            25 => ReactorRearm,
            26 => ConfigPublish,
            27 => ConfigApply,
            28 => AdmissionShed,
            _ => return None,
        })
    }

    /// Snake-case display name (used as the Chrome slice name).
    pub fn name(self) -> &'static str {
        use Stage::*;
        match self {
            EventPosted => "event_posted",
            EventDispatchBegin => "event_dispatch",
            EventDispatchEnd => "event_dispatch_end",
            TimerFired => "timer_fired",
            RegionInvoked => "region_invoked",
            RegionPosted => "region_posted",
            RegionInline => "region_inline",
            RegionDequeued => "region_dequeued",
            RegionRunBegin => "region_run",
            RegionRunEnd => "region_run_end",
            RegionCancelled => "region_cancelled",
            BarrierEnter => "barrier_enter",
            BarrierPark => "barrier_park",
            BarrierWake => "barrier_wake",
            BarrierExit => "barrier_exit",
            WorkerPark => "worker_park",
            WorkerWake => "worker_wake",
            ConnAccepted => "conn_accepted",
            ConnRearm => "conn_rearm",
            ResponseWritten => "response_written",
            TeamFork => "team_fork",
            TeamJoin => "team_join",
            ReactorReady => "reactor_ready",
            ReactorRearm => "reactor_rearm",
            ConfigPublish => "config_publish",
            ConfigApply => "config_apply",
            AdmissionShed => "admission_shed",
        }
    }

    /// If this stage opens an interval closed by another stage *on the same
    /// thread*, returns the closing stage. The Chrome exporter turns such
    /// pairs into duration slices.
    pub fn closes_with(self) -> Option<Stage> {
        use Stage::*;
        match self {
            EventDispatchBegin => Some(EventDispatchEnd),
            RegionRunBegin => Some(RegionRunEnd),
            BarrierPark => Some(BarrierWake),
            WorkerPark => Some(WorkerWake),
            TeamFork => Some(TeamJoin),
            _ => None,
        }
    }

    /// True for stages that close an interval (consumed by the pairing
    /// scan; exported standalone only when their opener was dropped).
    pub fn is_closer(self) -> bool {
        use Stage::*;
        matches!(
            self,
            EventDispatchEnd | RegionRunEnd | BarrierWake | WorkerWake | TeamJoin
        )
    }
}

/// One recorded lifecycle event. 24 bytes, `Copy`, lives in a per-thread
/// ring slot; never heap-allocated on the emit path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch (first `enable()`), monotone per
    /// thread because it derives from `Instant`.
    pub ts_ns: u64,
    /// The causal flow this event belongs to (0 = none).
    pub id: TraceId,
    /// Which lifecycle transition happened.
    pub stage: Stage,
    /// Stage-specific operand (see [`arg`]).
    pub arg: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every assigned discriminant: 0..=28 minus the retired 19 and 20.
    fn assigned() -> impl Iterator<Item = u8> {
        (0..=28u8).filter(|v| !matches!(v, 19 | 20))
    }

    #[test]
    fn stage_roundtrips_through_u8() {
        for v in assigned() {
            let s = Stage::from_u8(v).expect("valid discriminant");
            assert_eq!(s as u8, v);
            assert!(!s.name().is_empty());
        }
        for retired in [19, 20, 200] {
            assert_eq!(Stage::from_u8(retired), None);
        }
    }

    #[test]
    fn pairing_is_consistent() {
        for v in assigned() {
            let s = Stage::from_u8(v).unwrap();
            if let Some(close) = s.closes_with() {
                assert!(close.is_closer(), "{close:?} must be a closer");
            }
        }
    }

    #[test]
    fn event_is_small() {
        assert!(std::mem::size_of::<TraceEvent>() <= 24);
    }
}
