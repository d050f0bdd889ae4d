//! The runtime registry: named virtual targets and the Table II functions.
//!
//! ## Resolving a name on the post path
//!
//! Pyjama compiles each `target virtual(name)` directive, so its runtime
//! never resolves a name while the program runs. Here a directive names
//! its target by `&str` on every post, so each posting thread keeps a small
//! resolution cache (`Resolved`) in front of the registry lock. An entry
//! is keyed by the *registry version* it was resolved under: every
//! [`Runtime::new`], `register` and `clear` draws a fresh version from one
//! process-wide counter, so a version names one registry state of one
//! runtime for the life of the process, and an entry can never match a
//! different runtime, a later state or a dropped runtime. A hit is one
//! version load, a name compare and two reference-count increments (the
//! target's `Weak` upgrade and the label's clone); it takes no lock and
//! hashes nothing. The entry holds the target as a `Weak`, so a cache
//! never keeps a pool alive after `clear()` or after its runtime drops.
//! Neither a hit nor a refill allocates: the cache is a fixed array, and
//! the name is compared against the interned label it already holds.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use pyjama_sync::RwLock;

use pyjama_events::EventLoopHandle;

use crate::executor::VirtualTarget;
use crate::invoke::Tag;
use crate::target_edt::EdtTarget;
use crate::worker::WorkerTarget;

/// Errors surfaced by registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A directive referenced a target name that was never registered.
    UnknownTarget(String),
    /// Registering a name that is already taken.
    DuplicateTarget(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::UnknownTarget(n) => write!(f, "unknown virtual target `{n}`"),
            RuntimeError::DuplicateTarget(n) => {
                write!(f, "virtual target `{n}` is already registered")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The Pyjama runtime: a registry of named virtual targets plus the name
/// tags of `name_as`/`wait(tag)`.
///
/// "At the initializing stage … the runtime functions of Table II are
/// required to be invoked with specific parameters" (§III-D):
///
/// * [`virtual_target_register_edt`](Runtime::virtual_target_register_edt)
/// * [`virtual_target_create_worker`](Runtime::virtual_target_create_worker)
///
/// The offloading entry points ([`target`](Runtime::target),
/// [`invoke_target_block`](Runtime::invoke_target_block),
/// [`wait_tag`](Runtime::wait_tag)) live in [`crate::invoke`].
pub struct Runtime {
    targets: RwLock<HashMap<String, Registered>>,
    /// The registry version: stored under the `targets` write lock by every
    /// change, drawn from [`VERSIONS`].
    version: AtomicU64,
    /// Name tags, created on first use and looked up by `&str` after.
    pub(crate) tags: RwLock<HashMap<Box<str>, Arc<Tag>>>,
    /// ICV in the spirit of `default-device-var`: the target used when a
    /// directive omits the target-property clause.
    default_target: RwLock<Option<String>>,
}

/// A registered target plus its interned region label.
///
/// `Runtime::target` used to `format!("target virtual({name})")` on every
/// post — a per-post heap allocation on the hottest path in the runtime.
/// The label only depends on the registration name, so it is computed once
/// here and every post clones the `Arc<str>`.
struct Registered {
    target: Arc<dyn VirtualTarget>,
    region_label: Arc<str>,
}

/// The label every registered target's regions carry; the name sits
/// between the prefix and the closing parenthesis.
const LABEL_PREFIX: &str = "target virtual(";

fn region_label(name: &str) -> Arc<str> {
    Arc::from(format!("{LABEL_PREFIX}{name})"))
}

/// The registered name inside an interned region label.
fn label_name(label: &str) -> &str {
    &label[LABEL_PREFIX.len()..label.len() - 1]
}

/// Process-wide source of registry versions. Starts at 1: an empty cache
/// entry's version 0 never matches.
static VERSIONS: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    VERSIONS.fetch_add(1, Ordering::Relaxed)
}

/// Entries in each thread's resolution cache: a thread that posts by name
/// usually names one or two targets.
const RESOLVED_ENTRIES: usize = 4;

/// One by-name resolution cached on the posting thread.
struct Resolved {
    /// The registry version the entry was resolved under.
    version: u64,
    target: Weak<dyn VirtualTarget>,
    /// The interned region label; also the entry's name (see [`label_name`]).
    label: Arc<str>,
}

/// A thread's resolution cache: a fixed array refilled round-robin.
struct ResolveCache {
    entries: [Option<Resolved>; RESOLVED_ENTRIES],
    next: usize,
}

impl ResolveCache {
    fn hit(&self, version: u64, name: &str) -> Option<(Arc<dyn VirtualTarget>, Arc<str>)> {
        let e = self
            .entries
            .iter()
            .flatten()
            .find(|e| e.version == version && label_name(&e.label) == name)?;
        Some((e.target.upgrade()?, Arc::clone(&e.label)))
    }

    fn fill(&mut self, version: u64, target: &Arc<dyn VirtualTarget>, label: &Arc<str>) {
        self.entries[self.next] = Some(Resolved {
            version,
            target: Arc::downgrade(target),
            label: Arc::clone(label),
        });
        self.next = (self.next + 1) % RESOLVED_ENTRIES;
    }
}

thread_local! {
    static RESOLVED: RefCell<ResolveCache> = const {
        RefCell::new(ResolveCache { entries: [const { None }; RESOLVED_ENTRIES], next: 0 })
    };
}

impl Runtime {
    /// Creates an empty runtime (no targets registered).
    pub fn new() -> Self {
        Runtime {
            targets: RwLock::new(HashMap::new()),
            version: AtomicU64::new(next_version()),
            tags: RwLock::new(HashMap::new()),
            default_target: RwLock::new(None),
        }
    }

    /// Table II: registers an event loop's dispatch thread as a virtual
    /// target named `tname`.
    ///
    /// The paper's signature registers *the calling thread*; in Rust the
    /// loop is reified as an [`EventLoopHandle`], so the EDT is identified
    /// by its handle rather than implicitly.
    pub fn virtual_target_register_edt(
        &self,
        tname: impl Into<String>,
        handle: EventLoopHandle,
    ) -> Result<Arc<EdtTarget>, RuntimeError> {
        let tname = tname.into();
        let target = EdtTarget::new(tname.clone(), handle);
        self.register(tname, Arc::clone(&target) as Arc<dyn VirtualTarget>)?;
        Ok(target)
    }

    /// Table II: creates a worker virtual target named `tname` with a
    /// maximum of `m` threads.
    pub fn virtual_target_create_worker(
        &self,
        tname: impl Into<String>,
        m: usize,
    ) -> Arc<WorkerTarget> {
        let tname = tname.into();
        let target = WorkerTarget::new(tname.clone(), m);
        self.register(tname, Arc::clone(&target) as Arc<dyn VirtualTarget>)
            .expect("duplicate virtual target name");
        target
    }

    /// Registers an externally constructed target under its name.
    pub fn register(
        &self,
        name: impl Into<String>,
        target: Arc<dyn VirtualTarget>,
    ) -> Result<(), RuntimeError> {
        let name = name.into();
        let mut g = self.targets.write();
        if g.contains_key(&name) {
            return Err(RuntimeError::DuplicateTarget(name));
        }
        if g.is_empty() {
            *self.default_target.write() = Some(name.clone());
        }
        let region_label = region_label(&name);
        g.insert(name, Registered { target, region_label });
        self.version.store(next_version(), Ordering::Release);
        Ok(())
    }

    /// Looks up a target by name.
    pub fn lookup(&self, name: &str) -> Result<Arc<dyn VirtualTarget>, RuntimeError> {
        self.targets
            .read()
            .get(name)
            .map(|r| Arc::clone(&r.target))
            .ok_or_else(|| RuntimeError::UnknownTarget(name.to_string()))
    }

    /// Resolves a target together with its interned region label (computed
    /// once at registration, so the posting hot path never formats): from
    /// the calling thread's resolution cache when it holds this name at the
    /// current registry version, else under the registry lock, refilling
    /// the cache.
    pub(crate) fn resolve(
        &self,
        name: &str,
    ) -> Result<(Arc<dyn VirtualTarget>, Arc<str>), RuntimeError> {
        let version = self.version.load(Ordering::Acquire);
        // `try_with`: during thread-local teardown, resolve under the lock.
        if let Some(hit) = RESOLVED.try_with(|c| c.borrow().hit(version, name)).ok().flatten() {
            return Ok(hit);
        }
        let g = self.targets.read();
        // Stable while the read lock is held: changes store it under the
        // write lock.
        let version = self.version.load(Ordering::Relaxed);
        let r = g
            .get(name)
            .ok_or_else(|| RuntimeError::UnknownTarget(name.to_string()))?;
        let (target, label) = (Arc::clone(&r.target), Arc::clone(&r.region_label));
        drop(g);
        let _ = RESOLVED.try_with(|c| c.borrow_mut().fill(version, &target, &label));
        Ok((target, label))
    }

    /// True when `name` is registered.
    pub fn has_target(&self, name: &str) -> bool {
        self.targets.read().contains_key(name)
    }

    /// Names of all registered targets (unordered).
    pub fn target_names(&self) -> Vec<String> {
        self.targets.read().keys().cloned().collect()
    }

    /// Sets the default target ICV (used when a directive has no
    /// target-property clause, cf. `default-device-var` §III-A).
    pub fn set_default_target(&self, name: impl Into<String>) -> Result<(), RuntimeError> {
        let name = name.into();
        if !self.has_target(&name) {
            return Err(RuntimeError::UnknownTarget(name));
        }
        *self.default_target.write() = Some(name);
        Ok(())
    }

    /// The default target name, if any (the first registered target unless
    /// overridden).
    pub fn default_target(&self) -> Option<String> {
        self.default_target.read().clone()
    }

    /// Unregisters every target. Worker pools shut down when their last
    /// `Arc` drops; this severs the runtime's references (resolution caches
    /// hold only `Weak`s). The targets drop after the lock is released, so
    /// a pool's shutdown never joins a thread that waits on the registry.
    pub fn clear(&self) {
        let taken = {
            let mut g = self.targets.write();
            self.version.store(next_version(), Ordering::Release);
            std::mem::take(&mut *g)
        };
        *self.default_target.write() = None;
        drop(taken);
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("targets", &self.target_names())
            .field("default_target", &self.default_target())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::TargetKind;
    use pyjama_events::Edt;

    #[test]
    fn create_worker_registers_by_name() {
        let rt = Runtime::new();
        rt.virtual_target_create_worker("worker", 2);
        assert!(rt.has_target("worker"));
        let t = rt.lookup("worker").unwrap();
        assert_eq!(t.kind(), TargetKind::Worker);
        assert_eq!(t.name(), "worker");
    }

    #[test]
    fn register_edt_by_handle() {
        let rt = Runtime::new();
        let edt = Edt::spawn("edt");
        rt.virtual_target_register_edt("edt", edt.handle()).unwrap();
        let t = rt.lookup("edt").unwrap();
        assert_eq!(t.kind(), TargetKind::Edt);
    }

    #[test]
    fn unknown_target_is_an_error() {
        let rt = Runtime::new();
        match rt.lookup("ghost") {
            Err(RuntimeError::UnknownTarget(n)) => assert_eq!(n, "ghost"),
            Err(other) => panic!("expected UnknownTarget, got {other:?}"),
            Ok(_) => panic!("expected UnknownTarget, got Ok"),
        }
    }

    #[test]
    #[should_panic(expected = "duplicate virtual target name")]
    fn duplicate_worker_name_panics() {
        let rt = Runtime::new();
        rt.virtual_target_create_worker("w", 1);
        rt.virtual_target_create_worker("w", 1);
    }

    #[test]
    fn duplicate_edt_name_is_error() {
        let rt = Runtime::new();
        let edt = Edt::spawn("edt");
        rt.virtual_target_register_edt("edt", edt.handle()).unwrap();
        let err = rt.virtual_target_register_edt("edt", edt.handle());
        assert!(matches!(err, Err(RuntimeError::DuplicateTarget(_))));
    }

    #[test]
    fn first_registration_becomes_default() {
        let rt = Runtime::new();
        assert!(rt.default_target().is_none());
        rt.virtual_target_create_worker("a", 1);
        rt.virtual_target_create_worker("b", 1);
        assert_eq!(rt.default_target().as_deref(), Some("a"));
        rt.set_default_target("b").unwrap();
        assert_eq!(rt.default_target().as_deref(), Some("b"));
        assert!(rt.set_default_target("zzz").is_err());
    }

    #[test]
    fn clear_unregisters() {
        let rt = Runtime::new();
        rt.virtual_target_create_worker("w", 1);
        rt.clear();
        assert!(!rt.has_target("w"));
        assert!(rt.default_target().is_none());
    }

    // ----- the per-thread resolution cache ------------------------------

    use crate::mode::Mode;
    use std::sync::atomic::AtomicUsize;

    /// Posts to `name` by name and waits; the pool's `executed` count says
    /// which pool ran it.
    fn post_by_name(rt: &Runtime, name: &str) {
        rt.target(name, Mode::Wait, || {});
    }

    #[test]
    fn clear_and_reregister_reaches_the_new_target() {
        let rt = Runtime::new();
        let old = rt.virtual_target_create_worker("worker", 1);
        post_by_name(&rt, "worker"); // fills this thread's cache
        assert_eq!(old.stats().executed, 1);
        rt.clear();
        assert!(matches!(
            rt.try_target("worker", Mode::Wait, || {}),
            Err(RuntimeError::UnknownTarget(_))
        ));
        let new = rt.virtual_target_create_worker("worker", 1);
        post_by_name(&rt, "worker");
        assert_eq!(new.stats().executed, 1, "the re-registered target ran it");
        assert_eq!(old.stats().executed, 1, "the cleared target did not");
    }

    #[test]
    fn two_runtimes_on_one_thread_keep_their_own_targets() {
        let (a, b) = (Runtime::new(), Runtime::new());
        let wa = a.virtual_target_create_worker("worker", 1);
        let wb = b.virtual_target_create_worker("worker", 1);
        for _ in 0..3 {
            post_by_name(&a, "worker");
            post_by_name(&b, "worker");
            post_by_name(&b, "worker");
        }
        assert_eq!((wa.stats().executed, wb.stats().executed), (3, 6));
    }

    #[test]
    fn a_cached_resolution_keeps_no_target_alive() {
        let rt = Runtime::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let worker = rt.virtual_target_create_worker("worker", 1);
        let weak: Weak<WorkerTarget> = Arc::downgrade(&worker);
        drop(worker);
        let r = Arc::clone(&ran);
        rt.target("worker", Mode::Wait, move || {
            r.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(ran.load(std::sync::atomic::Ordering::SeqCst), 1);
        // This thread's cache now holds the target; dropping the runtime
        // must still drop the pool (and join its thread).
        drop(rt);
        assert!(weak.upgrade().is_none(), "the resolution cache kept the pool alive");

        // Likewise after `clear()` on a live runtime.
        let rt = Runtime::new();
        let weak = Arc::downgrade(&rt.virtual_target_create_worker("worker", 1));
        post_by_name(&rt, "worker");
        rt.clear();
        assert!(weak.upgrade().is_none(), "the resolution cache kept the pool alive");
    }

    #[test]
    fn resolution_cache_survives_more_names_than_entries() {
        let rt = Runtime::new();
        let names: Vec<String> = (0..RESOLVED_ENTRIES + 2).map(|i| format!("w{i}")).collect();
        let pools: Vec<_> = names.iter().map(|n| rt.virtual_target_create_worker(n.as_str(), 1)).collect();
        for _ in 0..2 {
            for n in &names {
                post_by_name(&rt, n);
            }
        }
        for p in &pools {
            assert_eq!(p.stats().executed, 2);
        }
    }

    #[test]
    fn target_names_lists_all() {
        let rt = Runtime::new();
        rt.virtual_target_create_worker("w1", 1);
        rt.virtual_target_create_worker("w2", 1);
        let mut names = rt.target_names();
        names.sort();
        assert_eq!(names, vec!["w1", "w2"]);
    }
}
