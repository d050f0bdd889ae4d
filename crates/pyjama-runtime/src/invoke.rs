//! Algorithm 1: `invokeTargetBlock` and the scheduling-mode semantics.
//!
//! A name tag (§III-C) is a counted latch ([`pyjama_events::Latch`]):
//! `name_as(tag)` enters it before the block is posted or run, the block's
//! terminal transition exits it, and `wait(tag)` waits, helping as `await`
//! does, for the latch generation of the instances tagged before it.

use std::any::Any;
use std::sync::Arc;

use pyjama_events::Latch;
use pyjama_sync::Mutex;
use pyjama_trace::{arg as trace_arg, Stage, TraceId};

use crate::executor::VirtualTarget;
use crate::mode::Mode;
use crate::registry::{Runtime, RuntimeError};
use crate::task::{TargetFuture, TargetRegion, TaskHandle};

fn mode_arg(mode: &Mode) -> u32 {
    match mode {
        Mode::Wait => trace_arg::MODE_WAIT,
        Mode::NoWait => trace_arg::MODE_NOWAIT,
        Mode::NameAs(_) => trace_arg::MODE_NAMEAS,
        Mode::Await => trace_arg::MODE_AWAIT,
    }
}

/// A name tag: the latch its outstanding instances hold, and the first
/// panic among them, which `wait(tag)` re-raises.
#[derive(Default)]
pub(crate) struct Tag {
    pub(crate) latch: Arc<Latch>,
    pub(crate) panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Runtime {
    /// `name_as(tag)`: counts `region` into the tag (created on first use)
    /// before it is posted or run, so a racing `wait(tag)` covers it.
    /// Inlined: every post makes the `NameAs` check.
    #[inline]
    fn enter_tag(&self, mode: &Mode, region: &TargetRegion) {
        let Mode::NameAs(name) = mode else { return };
        let found = self.tags.read().get(name.as_str()).cloned();
        region.hold_tag(found.unwrap_or_else(|| {
            Arc::clone(self.tags.write().entry(name.as_str().into()).or_default())
        }));
    }

    /// The paper's Algorithm 1, verbatim in structure:
    ///
    /// ```text
    /// procedure invokeTargetBlock(T, E, B, a)
    ///     if T ∈ E then B.exec()           // synchronous, member thread
    ///     else E.post(B)                   // asynchronous
    ///     if a is nowait or name_as then return
    ///     if a is await then
    ///         while B is not finished do T.processAnotherEventHandler()
    ///     else T.wait()                    // default option
    /// ```
    ///
    /// Returns the block's [`TaskHandle`] so callers can observe or
    /// re-synchronise later regardless of mode.
    pub fn invoke_target_block(
        &self,
        target: &Arc<dyn VirtualTarget>,
        mode: Mode,
        region: Arc<TargetRegion>,
    ) -> TaskHandle {
        let handle = region.handle();
        pyjama_trace::emit(handle.trace_id(), Stage::RegionInvoked, mode_arg(&mode));

        self.enter_tag(&mode, &region);

        if target.is_member() {
            // Line 6–7: already in the execution environment — the directive
            // is "simply ignored" (§III-B) and the block runs synchronously.
            // The region goes back to the recycler exactly as it would after
            // a pool execution: a nested-directive loop on a member thread
            // re-arms one region out of the thread-local cache instead of
            // allocating per post. (`release` re-checks eligibility; the
            // handle above does not block the park — see `slab`.)
            pyjama_trace::emit(handle.trace_id(), Stage::RegionInline, 0);
            region.execute();
            crate::slab::release(region);
        } else {
            // Line 8.
            target.post(region);
        }

        match mode {
            // Line 10–11.
            Mode::NoWait | Mode::NameAs(_) => {}
            // Line 13–15: logical barrier.
            Mode::Await => {
                self.await_barrier(&handle);
                handle.join();
            }
            // Line 17: default.
            Mode::Wait => {
                handle.join();
            }
        }
        handle
    }

    /// Directive-style entry point: `//#omp target virtual(name) <mode>`
    /// around `block`.
    ///
    /// # Panics
    /// Panics if `name` is not a registered virtual target, or if the block
    /// panicked and `mode` synchronises with it (`Wait`/`Await`) — matching
    /// the behaviour the sequential program would have had.
    pub fn target(&self, name: &str, mode: Mode, block: impl FnOnce() + Send + 'static) -> TaskHandle {
        self.try_target(name, mode, block)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking variant of [`target`](Runtime::target).
    pub fn try_target(
        &self,
        name: &str,
        mode: Mode,
        block: impl FnOnce() + Send + 'static,
    ) -> Result<TaskHandle, RuntimeError> {
        let (target, label) = self.resolve(name)?;
        // The label was interned at registration: no per-post `format!`.
        let region = TargetRegion::with_label(label, block);
        Ok(self.invoke_target_block(&target, mode, region))
    }

    /// A directive with no target-property clause: dispatches to the
    /// default-target ICV (cf. `default-device-var`, §III-A).
    ///
    /// # Panics
    /// Panics when no target has ever been registered.
    pub fn target_default(&self, mode: Mode, block: impl FnOnce() + Send + 'static) -> TaskHandle {
        let name = self
            .default_target()
            .expect("no virtual target registered (default-device-var unset)");
        self.target(&name, mode, block)
    }

    /// `target virtual(name) if(cond)`: with `cond == false` the directive
    /// is disabled and the block executes synchronously on the encountering
    /// thread — OpenMP's standard `if` clause semantics.
    pub fn target_if(
        &self,
        name: &str,
        mode: Mode,
        cond: bool,
        block: impl FnOnce() + Send + 'static,
    ) -> TaskHandle {
        if cond {
            self.target(name, mode, block)
        } else {
            let region = TargetRegion::new(format!("target virtual({name}) if(false)"), block);
            let handle = region.handle();
            self.enter_tag(&mode, &region);
            region.execute();
            // Wait/Await semantics are trivially satisfied; propagate panics
            // as a synchronous execution would (a tagged one at `wait(tag)`).
            if matches!(handle.state(), crate::task::TaskState::Panicked) {
                handle.join();
            }
            handle
        }
    }

    /// Offloads a value-producing closure; a typed future for results.
    pub fn submit<R: Send + 'static>(
        &self,
        name: &str,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> Result<TargetFuture<R>, RuntimeError> {
        let target = self.lookup(name)?;
        let (region, fut) = TargetFuture::wrap(format!("submit to {name}"), f);
        if target.is_member() {
            region.execute();
        } else {
            target.post(region);
        }
        Ok(fut)
    }

    /// The `wait(tag)` clause: suspends until every block instance tagged
    /// `name_as(tag)` *so far* has finished. While suspended, the
    /// encountering thread helps: it pumps its own event loop or processes
    /// its own worker pool's queue, so a `wait` on the EDT keeps the
    /// application responsive.
    pub fn wait_tag(&self, tag: &str) {
        let Some(tag) = self.tags.read().get(tag).cloned() else {
            return;
        };
        let enlist = || tag.latch.enlist();
        crate::parker::await_cond(TraceId::NONE, None, tag.latch.generation(), enlist);
        // Propagate the first panic, if any — after all instances finished,
        // mirroring a sequential execution order.
        let panic = tag.panic.lock().take();
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    }

    /// Instances tagged `name_as(tag)` that have not finished (diagnostic).
    pub fn tag_outstanding(&self, tag: &str) -> usize {
        self.tags.read().get(tag).map_or(0, |t| t.latch.outstanding())
    }

    /// The `await` logical barrier (Algorithm 1 lines 13–16): while the
    /// block is unfinished, process other event handlers or tasks.
    ///
    /// * On an event-loop thread (the EDT), pump the loop re-entrantly.
    /// * On a worker-pool thread, execute another task from the pool queue.
    /// * When there is nothing to help with, park on the thread's own
    ///   [`WakeSignal`](crate::parker::WakeSignal), which all three wake
    ///   sources notify — the awaited handle's completion, an event posted
    ///   to this thread's loop, a task enqueued on this thread's pool. No
    ///   timed polling: work arriving mid-park is helped immediately, and a
    ///   plain thread sleeps exactly until the block finishes.
    pub fn await_barrier(&self, handle: &TaskHandle) {
        crate::parker::await_until(handle, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;
    use pyjama_sync::Mutex;
    use pyjama_events::{Edt, EventLoop};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn rt_with_worker(m: usize) -> Runtime {
        let rt = Runtime::new();
        rt.virtual_target_create_worker("worker", m);
        rt
    }

    // ----- Mode::Wait (default) ------------------------------------------

    #[test]
    fn wait_blocks_until_block_finishes() {
        let rt = rt_with_worker(1);
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        let h = rt.target("worker", Mode::Wait, move || {
            std::thread::sleep(Duration::from_millis(20));
            d.store(true, Ordering::SeqCst);
        });
        // By the time target() returns, the block must have completed.
        assert!(done.load(Ordering::SeqCst));
        assert_eq!(h.state(), TaskState::Finished);
    }

    #[test]
    fn wait_runs_block_on_target_thread() {
        let rt = rt_with_worker(1);
        let worker = rt.lookup("worker").unwrap();
        let on_worker = Arc::new(AtomicBool::new(false));
        let o = Arc::clone(&on_worker);
        let w2 = Arc::clone(&worker);
        rt.target("worker", Mode::Wait, move || {
            o.store(w2.is_member(), Ordering::SeqCst);
        });
        assert!(on_worker.load(Ordering::SeqCst));
    }

    #[test]
    fn wait_propagates_block_panic() {
        let rt = rt_with_worker(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.target("worker", Mode::Wait, || panic!("inside block"));
        }));
        assert!(r.is_err());
    }

    // ----- Mode::NoWait ----------------------------------------------------

    #[test]
    fn nowait_returns_immediately() {
        let rt = rt_with_worker(1);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let h = rt.target("worker", Mode::NoWait, move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Encountering thread got here while the block is still running.
        assert!(!h.is_finished());
        gate.store(true, Ordering::SeqCst);
        h.wait();
    }

    #[test]
    fn nowait_swallows_panics_silently() {
        let rt = rt_with_worker(1);
        let h = rt.target("worker", Mode::NoWait, || panic!("ignored"));
        h.wait();
        assert_eq!(h.state(), TaskState::Panicked);
        // No propagation: "the code block can be safely invoked and ignored".
    }

    // ----- Mode::NameAs + wait_tag ------------------------------------------

    #[test]
    fn name_as_tag_synchronises_all_instances() {
        let rt = rt_with_worker(2);
        let n = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let n = Arc::clone(&n);
            rt.target("worker", Mode::name_as("batch"), move || {
                std::thread::sleep(Duration::from_millis(5));
                n.fetch_add(1, Ordering::SeqCst);
            });
        }
        rt.wait_tag("batch");
        assert_eq!(n.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn wait_tag_on_unused_tag_returns_immediately() {
        let rt = rt_with_worker(1);
        rt.wait_tag("never-used");
    }

    #[test]
    fn wait_tag_propagates_panic_from_instance() {
        let rt = rt_with_worker(1);
        rt.target("worker", Mode::name_as("t"), || panic!("tagged failure"));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.wait_tag("t")));
        assert!(r.is_err());
    }

    #[test]
    fn separate_tags_do_not_interfere() {
        let rt = rt_with_worker(2);
        let slow_done = Arc::new(AtomicBool::new(false));
        let sd = Arc::clone(&slow_done);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        rt.target("worker", Mode::name_as("slow"), move || {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            sd.store(true, Ordering::SeqCst);
        });
        rt.target("worker", Mode::name_as("fast"), || {});
        rt.wait_tag("fast"); // must not wait for "slow"
        assert!(!slow_done.load(Ordering::SeqCst));
        gate.store(true, Ordering::SeqCst);
        rt.wait_tag("slow");
        assert!(slow_done.load(Ordering::SeqCst));
    }

    #[test]
    fn wait_tag_on_the_edt_covers_only_blocks_tagged_before_it() {
        // An EDT handler tags a gated block and waits for the tag. While
        // that wait pumps, a second handler tags another gated block and
        // opens the first gate. The wait covers the first block only, so it
        // returns while the second is still gated (a single counter would
        // hold it until the test opens the second gate below).
        let rt = Arc::new(rt_with_worker(2));
        let edt = Edt::spawn("edt");
        let gates = [Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false))];
        let gated = |gate: &Arc<AtomicBool>| {
            let g = Arc::clone(gate);
            move || {
                while !g.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        let block1 = gated(&gates[0]);
        let block2 = gated(&gates[1]);
        let open1 = Arc::clone(&gates[0]);
        let second_gated = Arc::clone(&gates[1]);
        let returned = Arc::new(AtomicBool::new(false));
        let (rt1, edt_handle, ret) = (Arc::clone(&rt), edt.handle(), Arc::clone(&returned));
        edt.invoke_later(move || {
            rt1.target("worker", Mode::name_as("t"), block1);
            let rt2 = Arc::clone(&rt1);
            edt_handle
                .post(move || {
                    rt2.target("worker", Mode::name_as("t"), block2);
                    open1.store(true, Ordering::SeqCst);
                })
                .unwrap();
            rt1.wait_tag("t");
            ret.store(!second_gated.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        let t0 = std::time::Instant::now();
        while !returned.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let in_time = returned.load(Ordering::SeqCst);
        gates[1].store(true, Ordering::SeqCst);
        assert!(in_time, "the EDT's wait(t) waited for a block tagged after it began");
        rt.wait_tag("t");
        assert_eq!(rt.tag_outstanding("t"), 0);
    }

    // ----- Mode::Await -------------------------------------------------------

    #[test]
    fn await_completes_like_wait_off_loop() {
        let rt = rt_with_worker(1);
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        rt.target("worker", Mode::Await, move || {
            std::thread::sleep(Duration::from_millis(10));
            d.store(true, Ordering::SeqCst);
        });
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn await_on_edt_processes_other_events() {
        // The signature behaviour of `await` (§III-C): while the offloaded
        // block runs, the EDT dispatches *other* events.
        let rt = Arc::new(rt_with_worker(1));
        let el = EventLoop::new("edt");
        let h = el.handle();
        let order = Arc::new(Mutex::new(Vec::new()));

        let o1 = Arc::clone(&order);
        let rt2 = Arc::clone(&rt);
        h.post(move || {
            o1.lock().push("handler1:start");
            let o_in = Arc::clone(&o1);
            rt2.target("worker", Mode::Await, move || {
                std::thread::sleep(Duration::from_millis(30));
                o_in.lock().push("offloaded-block");
            });
            o1.lock().push("handler1:continuation");
        })
        .unwrap();
        let o2 = Arc::clone(&order);
        h.post(move || o2.lock().push("handler2")).unwrap();

        el.run_until_idle();

        let log = order.lock().clone();
        let pos = |s: &str| log.iter().position(|x| *x == s).unwrap_or_else(|| panic!("missing {s} in {log:?}"));
        // handler2 ran while handler1 awaited — before handler1's continuation.
        assert!(pos("handler2") > pos("handler1:start"));
        assert!(pos("handler2") < pos("handler1:continuation"));
        // The continuation only ran after the offloaded block finished.
        assert!(pos("offloaded-block") < pos("handler1:continuation"));
    }

    #[test]
    fn await_on_worker_thread_helps_pool_queue() {
        // A worker thread awaiting a block on *another* target keeps
        // processing its own pool's queue.
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_create_worker("pool", 1);
        rt.virtual_target_create_worker("other", 1);

        let helped = Arc::new(AtomicBool::new(false));
        let rt2 = Arc::clone(&rt);
        let helped2 = Arc::clone(&helped);

        let outer = {
            let rt = Arc::clone(&rt2);
            let helped = Arc::clone(&helped2);
            move || {
                // Queue a second task behind us on our own (single-threaded)
                // pool; it can only run if we help while awaiting.
                let helped_inner = Arc::clone(&helped);
                rt.target("pool", Mode::NoWait, move || {
                    helped_inner.store(true, Ordering::SeqCst);
                });
                rt.target("other", Mode::Await, || {
                    std::thread::sleep(Duration::from_millis(30));
                });
                assert!(
                    helped.load(Ordering::SeqCst),
                    "queued pool task should have been helped during await"
                );
            }
        };
        rt.target("pool", Mode::Wait, outer);
    }

    #[test]
    fn await_on_plain_thread_parks_and_wakes() {
        // A plain thread has nothing to help with: the barrier must block on
        // the wake signal (observable in the park metrics) and return
        // promptly when the task's terminal transition notifies it.
        let before = crate::parker::park_stats();
        let rt = rt_with_worker(1);
        rt.target("worker", Mode::Await, || {
            std::thread::sleep(Duration::from_millis(30));
        });
        let after = crate::parker::park_stats();
        assert!(after.parks > before.parks, "the barrier must have parked");
        assert!(after.notifies > before.notifies, "completion must notify");
    }

    #[test]
    fn reentrant_awaits_nest_without_missing_wakeups() {
        // An EDT handler awaits; while helping it dispatches another handler
        // that awaits again (nested barrier, own signal and registrations).
        // Both must resolve, and the inner deregistration must not detach
        // the outer barrier's wakers.
        let rt = Arc::new(rt_with_worker(2));
        let el = EventLoop::new("edt");
        let h = el.handle();
        let done = Arc::new(AtomicUsize::new(0));

        let rt1 = Arc::clone(&rt);
        let d1 = Arc::clone(&done);
        h.post(move || {
            let rt_in = Arc::clone(&rt1);
            let d_in = Arc::clone(&d1);
            rt1.target("worker", Mode::Await, move || {
                std::thread::sleep(Duration::from_millis(20));
                let _ = &rt_in;
                d_in.fetch_add(1, Ordering::SeqCst);
            });
            d1.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        let rt2 = Arc::clone(&rt);
        let d2 = Arc::clone(&done);
        h.post(move || {
            rt2.target("worker", Mode::Await, {
                let d = Arc::clone(&d2);
                move || {
                    std::thread::sleep(Duration::from_millis(10));
                    d.fetch_add(1, Ordering::SeqCst);
                }
            });
            d2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();

        el.run_until_idle();
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn stress_awaits_race_posts_completions_and_shutdown() {
        // ABA-style stress for the waker registration protocol: many awaits
        // enter and exit barriers while producers keep posting and pools
        // shut down, across several rounds so registrations/deregistrations
        // interleave with notifies in every order.
        for _ in 0..10 {
            let rt = Arc::new(Runtime::new());
            rt.virtual_target_create_worker("a", 2);
            rt.virtual_target_create_worker("b", 2);
            let total = Arc::new(AtomicUsize::new(0));

            let drivers: Vec<_> = (0..4)
                .map(|i| {
                    let rt = Arc::clone(&rt);
                    let total = Arc::clone(&total);
                    std::thread::spawn(move || {
                        let (own, other) = if i % 2 == 0 { ("a", "b") } else { ("b", "a") };
                        for _ in 0..25 {
                            let t = Arc::clone(&total);
                            rt.target(own, Mode::NoWait, move || {
                                t.fetch_add(1, Ordering::SeqCst);
                            });
                            let t = Arc::clone(&total);
                            rt.target(other, Mode::Await, move || {
                                t.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    })
                })
                .collect();
            for d in drivers {
                d.join().unwrap();
            }
            // Dropping the runtime shuts both pools down; queued nowait
            // regions drain first, so every increment happened.
            drop(rt);
            assert_eq!(total.load(Ordering::SeqCst), 4 * 25 * 2);
        }
    }

    #[test]
    fn await_propagates_panic() {
        let rt = rt_with_worker(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.target("worker", Mode::Await, || panic!("awaited failure"));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn target_default_uses_icv() {
        let rt = rt_with_worker(1);
        rt.virtual_target_create_worker("other", 1);
        let ran_on = Arc::new(Mutex::new(String::new()));
        let worker = rt.lookup("worker").unwrap();
        let other = rt.lookup("other").unwrap();

        let r = Arc::clone(&ran_on);
        let (w2, o2) = (Arc::clone(&worker), Arc::clone(&other));
        rt.target_default(Mode::Wait, move || {
            let name = if w2.is_member() { "worker" } else if o2.is_member() { "other" } else { "?" };
            *r.lock() = name.to_string();
        });
        assert_eq!(*ran_on.lock(), "worker", "first-registered target is the default");

        rt.set_default_target("other").unwrap();
        let r = Arc::clone(&ran_on);
        let (w2, o2) = (Arc::clone(&worker), Arc::clone(&other));
        rt.target_default(Mode::Wait, move || {
            let name = if w2.is_member() { "worker" } else if o2.is_member() { "other" } else { "?" };
            *r.lock() = name.to_string();
        });
        assert_eq!(*ran_on.lock(), "other");
    }

    #[test]
    #[should_panic(expected = "no virtual target registered")]
    fn target_default_without_targets_panics() {
        let rt = Runtime::new();
        rt.target_default(Mode::Wait, || {});
    }

    // ----- member short-circuit (Algorithm 1 line 6-7) -----------------------

    #[test]
    fn member_thread_executes_synchronously() {
        let rt = Arc::new(rt_with_worker(1));
        let rt2 = Arc::clone(&rt);
        let inline_before = rt.lookup("worker").unwrap().stats().inline;
        let _ = inline_before;
        rt.target("worker", Mode::Wait, move || {
            // From inside the worker, a nested nowait-target on the same
            // worker must run synchronously (directive "simply ignored"),
            // so by the next statement it is already finished.
            let h = rt2.target("worker", Mode::NoWait, || {});
            assert!(h.is_finished(), "member short-circuit must run inline");
        });
        let stats = rt.lookup("worker").unwrap().stats();
        // One block posted (the outer), none for the inner.
        assert_eq!(stats.posted, 1);
    }

    #[test]
    fn edt_member_short_circuit() {
        let rt = Arc::new(Runtime::new());
        let edt = Edt::spawn("edt");
        rt.virtual_target_register_edt("edt", edt.handle()).unwrap();
        let rt2 = Arc::clone(&rt);
        let inline_ran = edt.invoke_and_wait(move || {
            let h = rt2.target("edt", Mode::NoWait, || {});
            h.is_finished()
        });
        assert!(inline_ran);
    }

    // ----- if clause ----------------------------------------------------------

    #[test]
    fn if_false_runs_synchronously_on_caller() {
        let rt = rt_with_worker(1);
        let caller = std::thread::current().id();
        let same_thread = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&same_thread);
        let h = rt.target_if("worker", Mode::NoWait, false, move || {
            s.store(std::thread::current().id() == caller, Ordering::SeqCst);
        });
        assert!(h.is_finished());
        assert!(same_thread.load(Ordering::SeqCst));
    }

    #[test]
    fn if_true_behaves_like_plain_target() {
        let rt = rt_with_worker(1);
        let h = rt.target_if("worker", Mode::Wait, true, || {});
        assert!(h.is_finished());
    }

    #[test]
    fn if_false_with_name_as_still_registers_tag() {
        let rt = rt_with_worker(1);
        rt.target_if("worker", Mode::name_as("t"), false, || {});
        assert_eq!(rt.tag_outstanding("t"), 0, "the finished instance left the count");
        rt.wait_tag("t");
    }

    #[test]
    fn if_false_with_name_as_registers_before_running() {
        // Regression: the tag used to be registered *after* the synchronous
        // execution, so a wait_tag racing the block could miss the instance.
        // Observed from inside the block itself: the instance must already
        // be registered while the block runs.
        let rt = Arc::new(rt_with_worker(1));
        let seen = Arc::new(AtomicUsize::new(usize::MAX));
        let rt2 = Arc::clone(&rt);
        let s2 = Arc::clone(&seen);
        rt.target_if("worker", Mode::name_as("ordered"), false, move || {
            s2.store(rt2.tag_outstanding("ordered"), Ordering::SeqCst);
        });
        assert_eq!(
            seen.load(Ordering::SeqCst),
            1,
            "tag must be visible before the block runs"
        );
        assert_eq!(rt.tag_outstanding("ordered"), 0);
        rt.wait_tag("ordered");
    }

    // ----- submit / futures ---------------------------------------------------

    #[test]
    fn submit_returns_value() {
        let rt = rt_with_worker(2);
        let fut = rt.submit("worker", || 21 * 2).unwrap();
        assert_eq!(fut.join(), 42);
    }

    #[test]
    fn submit_to_unknown_target_errors() {
        let rt = Runtime::new();
        assert!(rt.submit("ghost", || 1).is_err());
    }

    #[test]
    fn try_target_unknown_is_error_not_panic() {
        let rt = Runtime::new();
        assert!(matches!(
            rt.try_target("ghost", Mode::NoWait, || {}),
            Err(RuntimeError::UnknownTarget(_))
        ));
    }

    // ----- Figure 6 end-to-end --------------------------------------------------

    #[test]
    fn figure6_pipeline_nested_virtual_targets() {
        // buttonOnClick: EDT → worker (nowait) → { compute; edt(update) } …
        let rt = Arc::new(Runtime::new());
        let edt = Edt::spawn("edt");
        rt.virtual_target_register_edt("edt", edt.handle()).unwrap();
        rt.virtual_target_create_worker("worker", 2);

        let log = Arc::new(Mutex::new(Vec::new()));
        let l0 = Arc::clone(&log);
        let rt2 = Arc::clone(&rt);
        let done = Arc::new(AtomicBool::new(false));
        let d2 = Arc::clone(&done);

        edt.invoke_later(move || {
            l0.lock().push("edt:collect-input");
            let l1 = Arc::clone(&l0);
            let rt3 = Arc::clone(&rt2);
            let d3 = Arc::clone(&d2);
            rt2.target("worker", Mode::NoWait, move || {
                l1.lock().push("worker:download-and-compute");
                let l2 = Arc::clone(&l1);
                rt3.target("edt", Mode::Wait, move || {
                    l2.lock().push("edt:display-img");
                });
                l1.lock().push("worker:after-display");
                let l3 = Arc::clone(&l1);
                rt3.target("edt", Mode::Wait, move || {
                    l3.lock().push("edt:finished-msg");
                });
                d3.store(true, Ordering::SeqCst);
            });
            l0.lock().push("edt:handler-done");
        });

        let t0 = std::time::Instant::now();
        while !done.load(Ordering::SeqCst) {
            assert!(t0.elapsed() < Duration::from_secs(5), "pipeline deadlocked");
            std::thread::sleep(Duration::from_millis(1));
        }
        let log = log.lock().clone();
        let pos = |s: &str| log.iter().position(|x| *x == s).unwrap();
        assert!(pos("edt:handler-done") < pos("edt:display-img") || pos("edt:collect-input") < pos("edt:display-img"));
        assert!(pos("worker:download-and-compute") < pos("edt:display-img"));
        assert!(pos("edt:display-img") < pos("worker:after-display"));
        assert!(pos("worker:after-display") < pos("edt:finished-msg"));
    }
}
