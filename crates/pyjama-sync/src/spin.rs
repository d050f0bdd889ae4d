//! Adaptive spin budgets for [`EventCount::wait`](crate::EventCount::wait).
//!
//! Spinning before a park only pays when the thread being waited for can
//! make progress *while we spin* — i.e. when there is more than one
//! hardware thread. On a single-CPU machine every spin iteration delays the
//! thread that would satisfy the wait (the classic spin-on-uniprocessor
//! pathology; libgomp likewise throttles its wait policy when threads are
//! oversubscribed).
//!
//! The policy is overridable — `OMP_WAIT_POLICY`-style control without the
//! full ICV machinery — by [`set_spin_budget`] (tests use `Some(0)` to force
//! the park paths; the control plane's `spin_budget` knob calls it) and by
//! the `PJ_SPIN_BUDGET` environment variable, read once. Without either, a
//! site spins its own limit on multi-core machines and not at all on a
//! single hardware thread. A site whose limit is 0 (the runtime's
//! `WakeSignal`) never spins, whatever the override.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Sentinel for "no override": budgets are real spin counts well below it.
const UNSET: u32 = u32::MAX;

/// Process-wide override; [`UNSET`] when the default applies.
static OVERRIDE: AtomicU32 = AtomicU32::new(UNSET);

/// Overrides every spinning site's budget: `Some(n)` pins each site to `n`
/// iterations (0 forces immediate parking), `None` restores the default.
/// Takes effect on the next [`budget`] call.
pub fn set_spin_budget(limit: Option<u32>) {
    OVERRIDE.store(limit.map_or(UNSET, |n| n.min(UNSET - 1)), Ordering::Relaxed);
}

/// The default budget when it does not depend on the site: `PJ_SPIN_BUDGET`
/// if set, else 0 on a single hardware thread. `None`: each site spins its
/// own limit. Probed once.
fn fixed_default() -> Option<u32> {
    static FIXED: OnceLock<Option<u32>> = OnceLock::new();
    *FIXED.get_or_init(|| {
        let env = std::env::var("PJ_SPIN_BUDGET").ok();
        let single = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        env.and_then(|v| v.trim().parse::<u32>().ok())
            .map(|v| v.min(UNSET - 1))
            .or(single.then_some(0))
    })
}

/// Resolves the effective spin budget for a site whose default is `limit`:
/// 0 stays 0, then [`set_spin_budget`] wins, then `PJ_SPIN_BUDGET`, then the
/// adaptive default (`limit` on multi-core, `0` on a single hardware thread).
pub fn budget(limit: u32) -> u32 {
    match OVERRIDE.load(Ordering::Relaxed) {
        _ if limit == 0 => 0,
        UNSET => fixed_default().unwrap_or(limit),
        o => o,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the override is process-global and the test
    // harness runs tests concurrently.
    #[test]
    fn budget_default_override_and_release() {
        set_spin_budget(None);
        let b = budget(4096);
        assert!(b == 4096 || b == 0);
        // Deterministic per process (same adaptive answer every call).
        assert_eq!(b, budget(4096));

        set_spin_budget(Some(7));
        assert_eq!(budget(4096), 7);
        assert_eq!(budget(0), 0, "a site that never spins is not made to");
        set_spin_budget(Some(0));
        assert_eq!(budget(4096), 0, "zero must force the park path");
        set_spin_budget(None);
        let after = budget(4096);
        assert_eq!(after, b, "None must restore the adaptive default");
    }
}
