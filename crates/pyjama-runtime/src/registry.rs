//! The runtime registry: named virtual targets and the Table II functions.

use std::collections::HashMap;
use std::sync::Arc;

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

impl Runtime {
    /// Creates an empty runtime (no targets registered).
    pub fn new() -> Self {
        Runtime {
            targets: RwLock::new(HashMap::new()),
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
        let region_label = Arc::from(format!("target virtual({name})"));
        g.insert(name, Registered { target, region_label });
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

    /// Looks up a target together with its interned region label (computed
    /// once at registration, so the posting hot path never formats).
    pub(crate) fn lookup_with_label(
        &self,
        name: &str,
    ) -> Result<(Arc<dyn VirtualTarget>, Arc<str>), RuntimeError> {
        self.targets
            .read()
            .get(name)
            .map(|r| (Arc::clone(&r.target), Arc::clone(&r.region_label)))
            .ok_or_else(|| RuntimeError::UnknownTarget(name.to_string()))
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
    /// `Arc` drops; this severs the runtime's references.
    pub fn clear(&self) {
        self.targets.write().clear();
        *self.default_target.write() = None;
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
