//! One way to count: the [`counter_set!`](crate::counter_set!) declaration.
//!
//! A counter set is a struct of relaxed atomic cells that the measured code
//! bumps (`XCounters`), plus a plain-`u64` snapshot of it (`XStats`) that
//! reports, tests and conservation laws read. Every set in the workspace is
//! declared once, as a list of documented fields, and the macro derives the
//! rest:
//!
//! * `XCounters` with one public cell per field, `const fn new` (usable in
//!   `static` position) and `Default`;
//! * `XCounters::snapshot()` and `XCounters::reset()`;
//! * `XStats` with one `pub u64` per field, in declaration order, deriving
//!   `Clone, Copy, Debug, Default, PartialEq, Eq`;
//! * `XStats::since(&earlier)`, the growth over a window;
//! * `XStats::fields()`, every `(name, value)` pair in declaration order.
//!
//! A field is either a [`Counter`], which only goes up, or a [`Gauge`], a
//! current level that may go down (`live`, `recycled`) or be overwritten
//! (`generation`). The kind decides two things: `reset()` zeroes counters
//! and leaves gauges alone, and `since()` diffs counters (saturating, so a
//! reset in between reads as zero rather than wrapping) while it carries
//! gauges from the later snapshot, because a gauge delta means nothing.
//!
//! Every cell update is a single `Relaxed` atomic operation, so recording
//! does not perturb the path being measured. A snapshot is therefore only
//! "consistent enough": a conservation law over it is exact only at
//! quiesce, and increments racing a `reset()` land on either side of it.
//! Laws and derived ratios are hand-written methods on the generated
//! `XStats`, next to each declaration.

use std::sync::atomic::{AtomicU64, Ordering};

/// A cumulative cell of a counter set: it only goes up between resets.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zero cell, usable in `static` position.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Counts one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Counts `n` events at once.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// For the generated `XCounters::reset` only; resetting one cell
    /// alone breaks the set's laws.
    #[doc(hidden)]
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    #[doc(hidden)]
    pub fn since(later: u64, earlier: u64) -> u64 {
        later.saturating_sub(earlier)
    }
}

/// A level cell of a counter set: it moves both ways, survives `reset()`,
/// and `since()` reports its later value.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zero cell, usable in `static` position.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Raises the level by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// For the generated `XCounters::reset` only: a gauge keeps its level.
    #[doc(hidden)]
    pub fn reset(&self) {}

    #[doc(hidden)]
    pub fn since(later: u64, _earlier: u64) -> u64 {
        later
    }
}

/// Declares a counter set: `XCounters` (atomic cells) and its snapshot
/// `XStats`, from one list of documented `field: Counter` or
/// `field: Gauge` entries. See the [module docs](mod@crate::counter_set) for
/// what is generated.
///
/// ```
/// pyjama_metrics::counter_set! {
///     /// Requests seen by a front door.
///     pub struct DoorCounters => DoorStats {
///         /// Requests that arrived.
///         arrived: Counter,
///         /// Requests in flight right now.
///         in_flight: Gauge,
///     }
/// }
///
/// let c = DoorCounters::new();
/// c.arrived.inc();
/// c.in_flight.add(1);
/// let s = c.snapshot();
/// assert_eq!(s, DoorStats { arrived: 1, in_flight: 1 });
/// assert_eq!(s.fields(), [("arrived", 1), ("in_flight", 1)]);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $counters:ident => $stats:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident : $cell:ident
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $counters {
            $(
                $(#[$fmeta])*
                pub $field: $crate::$cell,
            )+
        }

        impl $counters {
            /// An all-zero counter set, usable in `static` position.
            pub const fn new() -> Self {
                $counters {
                    $($field: $crate::$cell::new(),)+
                }
            }

            /// Reads every cell (relaxed; exact only at quiesce).
            pub fn snapshot(&self) -> $stats {
                $stats {
                    $($field: self.$field.get(),)+
                }
            }

            /// Zeroes every counter and leaves every gauge as it is.
            pub fn reset(&self) {
                $(self.$field.reset();)+
            }
        }

        #[doc = concat!("Snapshot of [`", stringify!($counters), "`].")]
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $stats {
            $(
                $(#[$fmeta])*
                pub $field: u64,
            )+
        }

        impl $stats {
            /// Growth between an earlier snapshot and this one: counters
            /// are diffed (saturating, so a reset in between reads as
            /// zero), gauges carry this snapshot's value.
            pub fn since(&self, earlier: &$stats) -> $stats {
                $stats {
                    $($field: $crate::$cell::since(self.$field, earlier.$field),)+
                }
            }

            /// Every `(field name, value)` pair, in declaration order.
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($field)),+].len()] {
                [$((stringify!($field), self.$field)),+]
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    crate::counter_set! {
        /// A set exercising both cell kinds.
        struct ProbeCounters => ProbeStats {
            /// A counter.
            first: Counter,
            /// A second counter, bumped in batches.
            second: Counter,
            /// A level.
            level: Gauge,
        }
    }

    #[test]
    fn counter_set_machinery() {
        // Starts at zero.
        let c = ProbeCounters::new();
        assert_eq!(c.snapshot(), ProbeStats::default());

        // `inc`/`add` and the gauge's moves show up in the snapshot.
        c.first.inc();
        c.first.inc();
        c.second.add(5);
        c.level.set(7);
        c.level.add(2);
        c.level.sub(2);
        let s1 = c.snapshot();
        assert_eq!(s1, ProbeStats { first: 2, second: 5, level: 7 });

        // `fields()` follows declaration order.
        assert_eq!(s1.fields(), [("first", 2), ("second", 5), ("level", 7)]);

        // `since` diffs counters and carries the gauge from the later side.
        c.second.add(3);
        c.level.set(4);
        let d = c.snapshot().since(&s1);
        assert_eq!(d, ProbeStats { first: 0, second: 3, level: 4 });

        // `reset` zeroes counters and keeps gauges.
        c.reset();
        assert_eq!(c.snapshot(), ProbeStats { first: 0, second: 0, level: 4 });

        // Across a reset, `since` saturates instead of wrapping.
        c.first.inc();
        let d = c.snapshot().since(&s1);
        assert_eq!(d, ProbeStats { first: 0, second: 0, level: 4 });

        // 4 threads × 1,000 increments are conserved.
        let c = Arc::new(ProbeCounters::default());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.first.inc();
                        c.second.add(2);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.first, 4000);
        assert_eq!(s.second, 8000);
    }
}
