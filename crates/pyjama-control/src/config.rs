//! The immutable configuration snapshot and its validation/diff logic.
//!
//! A [`Config`] is a plain `Copy` struct of every runtime-tunable knob.
//! Nothing in the data plane ever mutates one: to change a value, build a
//! modified copy and hand it to `ControlPlane::apply`, which validates it
//! as a whole (so a half-nonsensical config can never be half-applied) and
//! publishes it atomically. Field defaults exactly match the constants the
//! data plane used before the control plane existed (`ServerOptions`
//! defaults, the 25 ms reactor sweep, the 8 MiB body cap), so a server that
//! never reconfigures behaves identically to one built before this crate.

use std::fmt;

/// Every runtime-tunable knob, as one immutable snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// Logical worker-thread count for attached work-stealing pools.
    pub workers: usize,
    /// Close a connection after this many responses (HTTP).
    pub max_requests_per_conn: u32,
    /// Evict a keep-alive connection idle for this many milliseconds.
    pub idle_timeout_ms: u64,
    /// Per-read/write socket deadline, milliseconds.
    pub io_timeout_ms: u64,
    /// Reactor deadline-sweep interval, milliseconds (was a hard-coded 25).
    pub sweep_interval_ms: u64,
    /// Largest request body accepted, bytes (was a hard-coded 8 MiB).
    pub max_body_bytes: usize,
    /// Spin budget override for every spinning `EventCount` wait
    /// (`pyjama_sync::spin`; `None` = leave the built-in/`PJ_SPIN_BUDGET`
    /// default in force).
    pub spin_budget: Option<u32>,
    /// Shed requests with 429 when queue depth exceeds this
    /// (0 = admission control disabled).
    pub admission_threshold: usize,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u32,
}

impl Config {
    /// The defaults the data plane shipped with before it was configurable.
    pub const DEFAULT: Config = Config {
        workers: 4,
        max_requests_per_conn: 1000,
        idle_timeout_ms: 2_000,
        io_timeout_ms: 500,
        sweep_interval_ms: 25,
        max_body_bytes: 8 * 1024 * 1024,
        spin_budget: None,
        admission_threshold: 0,
        retry_after_secs: 1,
    };

    /// Whole-snapshot validation. A config is accepted or rejected as a
    /// unit; there is no partial application.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.workers > 4096 {
            return Err(ConfigError::TooManyWorkers(self.workers));
        }
        if self.max_requests_per_conn == 0 {
            return Err(ConfigError::ZeroRequestsPerConn);
        }
        if self.idle_timeout_ms == 0 || self.io_timeout_ms == 0 {
            return Err(ConfigError::ZeroTimeout);
        }
        if self.sweep_interval_ms == 0 || self.sweep_interval_ms > 60_000 {
            return Err(ConfigError::BadSweepInterval(self.sweep_interval_ms));
        }
        if self.max_body_bytes < 1024 {
            return Err(ConfigError::BodyCapTooSmall(self.max_body_bytes));
        }
        Ok(())
    }

    /// Which subsystems a transition from `old` to `self` touches.
    pub fn diff(&self, old: &Config) -> ConfigDiff {
        ConfigDiff {
            workers: self.workers != old.workers,
            spin_budget: self.spin_budget != old.spin_budget,
            conn_limits: self.max_requests_per_conn != old.max_requests_per_conn
                || self.idle_timeout_ms != old.idle_timeout_ms
                || self.io_timeout_ms != old.io_timeout_ms,
            sweep_interval: self.sweep_interval_ms != old.sweep_interval_ms,
            max_body: self.max_body_bytes != old.max_body_bytes,
            admission: self.admission_threshold != old.admission_threshold
                || self.retry_after_secs != old.retry_after_secs,
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::DEFAULT
    }
}

/// Which knob groups changed between two snapshots. Subscribers use this to
/// skip work for fields they do not own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConfigDiff {
    /// Worker-pool size changed.
    pub workers: bool,
    /// Spin-budget override changed.
    pub spin_budget: bool,
    /// Per-connection limits (max requests, idle/io deadlines) changed.
    pub conn_limits: bool,
    /// Reactor sweep interval changed.
    pub sweep_interval: bool,
    /// Body-size cap changed.
    pub max_body: bool,
    /// Admission threshold or retry-after changed.
    pub admission: bool,
}

impl ConfigDiff {
    /// True when anything at all changed.
    pub fn any(&self) -> bool {
        self.workers
            || self.spin_budget
            || self.conn_limits
            || self.sweep_interval
            || self.max_body
            || self.admission
    }
}

/// Why a candidate config was rejected. The old generation keeps serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0` — a pool with no threads can never drain its queue.
    ZeroWorkers,
    /// `workers` beyond any plausible deployment (guards against a typo'd
    /// POST spawning thousands of threads).
    TooManyWorkers(usize),
    /// `max_requests_per_conn == 0` would close every connection before
    /// its first response.
    ZeroRequestsPerConn,
    /// A zero idle/io deadline would time out every socket instantly.
    ZeroTimeout,
    /// Sweep interval of 0 would spin the reactor; above 60 s deadlines
    /// effectively stop firing.
    BadSweepInterval(u64),
    /// A body cap below 1 KiB rejects even trivial POSTs.
    BodyCapTooSmall(usize),
    /// A resize asked for more workers than the attached pool's fixed slot
    /// capacity (reported by the runtime subscriber at apply time).
    ExceedsPoolCapacity {
        /// Workers requested.
        requested: usize,
        /// The pool's immutable slot capacity.
        capacity: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be >= 1"),
            ConfigError::TooManyWorkers(n) => write!(f, "workers {n} exceeds sanity cap 4096"),
            ConfigError::ZeroRequestsPerConn => {
                write!(f, "max_requests_per_conn must be >= 1")
            }
            ConfigError::ZeroTimeout => write!(f, "idle/io timeouts must be >= 1 ms"),
            ConfigError::BadSweepInterval(ms) => {
                write!(f, "sweep_interval_ms {ms} outside 1..=60000")
            }
            ConfigError::BodyCapTooSmall(b) => {
                write!(f, "max_body_bytes {b} below 1 KiB floor")
            }
            ConfigError::ExceedsPoolCapacity { requested, capacity } => write!(
                f,
                "workers {requested} exceeds attached pool capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(Config::default(), Config::DEFAULT);
        Config::DEFAULT.validate().expect("defaults must validate");
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let ok = Config::DEFAULT;
        assert_eq!(
            Config { workers: 0, ..ok }.validate(),
            Err(ConfigError::ZeroWorkers)
        );
        assert_eq!(
            Config { workers: 5000, ..ok }.validate(),
            Err(ConfigError::TooManyWorkers(5000))
        );
        assert_eq!(
            Config { max_requests_per_conn: 0, ..ok }.validate(),
            Err(ConfigError::ZeroRequestsPerConn)
        );
        assert_eq!(
            Config { idle_timeout_ms: 0, ..ok }.validate(),
            Err(ConfigError::ZeroTimeout)
        );
        assert_eq!(
            Config { sweep_interval_ms: 0, ..ok }.validate(),
            Err(ConfigError::BadSweepInterval(0))
        );
        assert_eq!(
            Config { max_body_bytes: 16, ..ok }.validate(),
            Err(ConfigError::BodyCapTooSmall(16))
        );
    }

    #[test]
    fn diff_flags_only_what_changed() {
        let a = Config::DEFAULT;
        assert_eq!(a.diff(&a), ConfigDiff::default());
        assert!(!a.diff(&a).any());

        let b = Config { workers: 8, ..a };
        let d = b.diff(&a);
        assert!(d.workers && d.any());
        assert!(!d.conn_limits && !d.admission && !d.sweep_interval);

        let c = Config {
            admission_threshold: 64,
            idle_timeout_ms: 5_000,
            ..a
        };
        let d = c.diff(&a);
        assert!(d.admission && d.conn_limits);
        assert!(!d.workers);
    }

    #[test]
    fn errors_display() {
        let e = ConfigError::ExceedsPoolCapacity { requested: 99, capacity: 8 };
        assert!(e.to_string().contains("99"));
        assert!(ConfigError::ZeroWorkers.to_string().contains("workers"));
    }
}
