//! The [`ControlPlane`]: validate → diff → publish → notify.
//!
//! One plane owns one [`ConfigCell`] plus an ordered list of subscribers.
//! `apply` is the only write path: it validates the candidate as a whole
//! (including registered *prechecks* such as "the attached pool has enough
//! slot capacity"), publishes atomically, then runs each subscriber with
//! the new config and the field-level diff. Publish and every subscriber
//! application share one minted [`TraceId`], so a reconfiguration shows up
//! in the Chrome export as a single causal flow:
//! `config_publish → config_apply(0) → config_apply(1) → …`.
//!
//! Data-plane readers never touch the plane — they hold a [`ConfigHandle`]
//! (a clone of the cell's `Arc`) and pay one `Acquire` load per read.

use std::sync::{Arc, Mutex, Weak};

use pyjama_metrics::{ReconfigCounters, ReconfigStats};
use pyjama_runtime::WorkerTarget;
use pyjama_trace::{Stage, TraceId};

use crate::cell::{ConfigCell, Snapshot};
use crate::config::{Config, ConfigDiff, ConfigError};

/// A cheap clonable read handle onto the plane's config cell. This is what
/// the data plane (HTTP server, reactor loop) holds: `read()` is one
/// `Acquire` load.
#[derive(Clone, Debug)]
pub struct ConfigHandle {
    cell: Arc<ConfigCell>,
}

impl ConfigHandle {
    /// The current snapshot (config + generation), lock-free.
    #[inline]
    pub fn read(&self) -> &Snapshot {
        self.cell.read()
    }

    /// A copy of the current config.
    #[inline]
    pub fn config(&self) -> Config {
        self.cell.read().config
    }

    /// The current generation (0 until the first `apply`).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// A handle serving [`Config::DEFAULT`] forever (generation 0), for
    /// data-plane components constructed without a control plane.
    pub fn fixed_default() -> ConfigHandle {
        ConfigHandle {
            cell: Arc::new(ConfigCell::new()),
        }
    }
}

type Callback = Box<dyn Fn(&Config, &ConfigDiff) + Send + Sync>;
type Precheck = Box<dyn Fn(&Config) -> Result<(), ConfigError> + Send + Sync>;

struct Subscriber {
    name: &'static str,
    apply: Callback,
}

struct PlaneInner {
    cell: Arc<ConfigCell>,
    counters: ReconfigCounters,
    /// Serializes `apply` end to end so subscribers observe generations in
    /// publish order. Holds the subscriber list; registration and apply
    /// contend on the same lock, which is fine — both are control-path.
    subscribers: Mutex<Vec<Subscriber>>,
    prechecks: Mutex<Vec<Precheck>>,
}

/// The control-plane handle. Clones share the same cell, counters and
/// subscriber list.
#[derive(Clone)]
pub struct ControlPlane {
    inner: Arc<PlaneInner>,
}

impl ControlPlane {
    /// A plane serving [`Config::DEFAULT`] at generation 0.
    pub fn new() -> ControlPlane {
        ControlPlane {
            inner: Arc::new(PlaneInner {
                cell: Arc::new(ConfigCell::new()),
                counters: ReconfigCounters::new(),
                subscribers: Mutex::new(Vec::new()),
                prechecks: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A read handle for data-plane components.
    pub fn handle(&self) -> ConfigHandle {
        ConfigHandle {
            cell: Arc::clone(&self.inner.cell),
        }
    }

    /// A copy of the current config (starting point for a modified copy).
    pub fn config(&self) -> Config {
        self.inner.cell.read().config
    }

    /// Current generation (0 until the first successful `apply`).
    pub fn generation(&self) -> u64 {
        self.inner.cell.generation()
    }

    /// Control-plane counter snapshot (applied/rejected/generation).
    pub fn stats(&self) -> ReconfigStats {
        self.inner.counters.snapshot()
    }

    /// Registers a subscriber run (in registration order) after every
    /// successful publish. The callback receives the new config and the
    /// diff against the previous generation; it must not call back into
    /// `apply` (the plane lock is held).
    pub fn subscribe(
        &self,
        name: &'static str,
        apply: impl Fn(&Config, &ConfigDiff) + Send + Sync + 'static,
    ) {
        self.inner
            .subscribers
            .lock()
            .unwrap()
            .push(Subscriber { name, apply: Box::new(apply) });
    }

    /// Registers a validation hook run before publish; any error rejects
    /// the candidate and leaves the old generation serving.
    pub fn add_precheck(
        &self,
        check: impl Fn(&Config) -> Result<(), ConfigError> + Send + Sync + 'static,
    ) {
        self.inner.prechecks.lock().unwrap().push(Box::new(check));
    }

    /// Validates, publishes, and fans `config` out to every subscriber.
    /// On any validation failure nothing is published: readers keep seeing
    /// the previous generation, and `stats().rejected` increments.
    pub fn apply(&self, config: Config) -> Result<u64, ConfigError> {
        // One lock serializes the whole apply: validate → publish → notify.
        let subscribers = self.inner.subscribers.lock().unwrap();

        if let Err(e) = config.validate() {
            self.inner.counters.rejected.inc();
            return Err(e);
        }
        for check in self.inner.prechecks.lock().unwrap().iter() {
            if let Err(e) = check(&config) {
                self.inner.counters.rejected.inc();
                return Err(e);
            }
        }

        let old = self.inner.cell.read().config;
        let diff = config.diff(&old);

        let flow = TraceId::mint();
        let generation = self.inner.cell.publish(config);
        pyjama_trace::emit(flow, Stage::ConfigPublish, generation as u32);

        let snap = self.inner.cell.read();
        for (i, sub) in subscribers.iter().enumerate() {
            (sub.apply)(&snap.config, &diff);
            let _ = sub.name; // names surface through /admin stats later
            pyjama_trace::emit(flow, Stage::ConfigApply, i as u32);
            self.inner.counters.subscribers_notified.inc();
        }
        self.inner.counters.record_applied(generation);
        Ok(generation)
    }

    /// Wires a work-stealing pool to `Config::workers`: registers a
    /// precheck (the requested size must fit the pool's fixed slot
    /// capacity) and a subscriber that resizes the pool whenever the
    /// worker count changes. The pool is held weakly — dropping it
    /// elsewhere simply makes the subscriber a no-op. Attachment does not
    /// resize; only subsequent `apply` calls do.
    pub fn attach_worker_target(&self, target: &Arc<WorkerTarget>) {
        let weak: Weak<WorkerTarget> = Arc::downgrade(target);
        let cap_probe = weak.clone();
        self.add_precheck(move |cfg| match cap_probe.upgrade() {
            Some(t) if cfg.workers > t.capacity() => Err(ConfigError::ExceedsPoolCapacity {
                requested: cfg.workers,
                capacity: t.capacity(),
            }),
            _ => Ok(()),
        });
        self.subscribe("worker-pool", move |cfg, diff| {
            if !diff.workers {
                return;
            }
            if let Some(t) = weak.upgrade() {
                // The precheck bounded cfg.workers by capacity, so the
                // only residual failure is a concurrent shutdown — losing
                // the resize then is correct.
                let _ = t.resize(cfg.workers);
            }
        });
    }

    /// Wires the runtime spin budget to `Config::spin_budget`: when the
    /// override changes, the new value takes effect on the next
    /// `spin::budget()` call in every pool.
    pub fn attach_spin_budget(&self) {
        self.subscribe("spin-budget", |cfg, diff| {
            if diff.spin_budget {
                pyjama_omp::spin::set_spin_budget(cfg.spin_budget);
            }
        });
    }
}

impl Default for ControlPlane {
    fn default() -> Self {
        ControlPlane::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn apply_publishes_and_bumps_generation() {
        let plane = ControlPlane::new();
        assert_eq!(plane.generation(), 0);
        let mut cfg = plane.config();
        cfg.workers = 2;
        let generation = plane.apply(cfg).expect("valid config");
        assert_eq!(generation, 1);
        assert_eq!(plane.handle().config().workers, 2);
        let s = plane.stats();
        assert_eq!((s.applied, s.rejected, s.generation), (1, 0, 1));
    }

    #[test]
    fn invalid_config_rejected_old_generation_serves() {
        let plane = ControlPlane::new();
        let mut cfg = plane.config();
        cfg.workers = 3;
        plane.apply(cfg).unwrap();

        let mut bad = plane.config();
        bad.workers = 0;
        assert_eq!(plane.apply(bad), Err(ConfigError::ZeroWorkers));
        assert_eq!(plane.handle().config().workers, 3);
        assert_eq!(plane.generation(), 1);
        let s = plane.stats();
        assert_eq!((s.applied, s.rejected), (1, 1));
    }

    #[test]
    fn subscribers_see_new_config_and_diff_in_order() {
        let plane = ControlPlane::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        for tag in ["a", "b"] {
            let seen = Arc::clone(&seen);
            plane.subscribe(if tag == "a" { "a" } else { "b" }, move |cfg, diff| {
                seen.lock().unwrap().push((tag, cfg.workers, diff.workers));
            });
        }
        let mut cfg = plane.config();
        cfg.workers = 7;
        plane.apply(cfg).unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(&*seen, &[("a", 7, true), ("b", 7, true)]);
        assert_eq!(plane.stats().subscribers_notified, 2);
    }

    #[test]
    fn precheck_rejection_skips_publish_and_subscribers() {
        let plane = ControlPlane::new();
        let notified = Arc::new(AtomicUsize::new(0));
        let n = Arc::clone(&notified);
        plane.subscribe("counter", move |_, _| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        plane.add_precheck(|cfg| {
            if cfg.workers > 8 {
                Err(ConfigError::ExceedsPoolCapacity { requested: cfg.workers, capacity: 8 })
            } else {
                Ok(())
            }
        });
        let mut cfg = plane.config();
        cfg.workers = 16;
        assert!(matches!(
            plane.apply(cfg),
            Err(ConfigError::ExceedsPoolCapacity { requested: 16, capacity: 8 })
        ));
        assert_eq!(plane.generation(), 0);
        assert_eq!(notified.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn handle_reads_are_shared_across_clones() {
        let plane = ControlPlane::new();
        let h1 = plane.handle();
        let h2 = plane.clone().handle();
        let mut cfg = plane.config();
        cfg.admission_threshold = 42;
        plane.apply(cfg).unwrap();
        assert_eq!(h1.config().admission_threshold, 42);
        assert_eq!(h2.read().generation, 1);
    }

    #[test]
    fn fixed_default_handle_serves_defaults() {
        let h = ConfigHandle::fixed_default();
        assert_eq!(h.generation(), 0);
        assert_eq!(h.config(), Config::DEFAULT);
    }
}
