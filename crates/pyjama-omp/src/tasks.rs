//! Explicit tasks, confined to their parallel region.
//!
//! OpenMP `task` blocks execute asynchronously on the team; an orphaned
//! task (outside any region) runs sequentially — the very limitation (§I)
//! that motivates the paper's virtual targets. This queue lives inside a
//! [`crate::Team`]; tasks are run by whichever team thread reaches a
//! scheduling point (`taskwait`, `barrier`, region end) first.
//!
//! A member that finds the queue empty while a task is still running
//! elsewhere waits on the workspace's one [`EventCount`]: a short spin, then
//! a park until a push gives it work or the last task completes. The queue
//! length is mirrored in an atomic so that check takes no lock, and every
//! change it waits for notifies, so the park needs no timed re-poll.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use pyjama_sync::{EventCount, Mutex, Wait};

type Task<'s> = Box<dyn FnOnce() + Send + 's>;

/// Spin budget of a waiting drainer before it parks. Short: the task it
/// waits on runs elsewhere and rarely finishes within a spin.
const DRAIN_SPIN: u32 = 128;

/// A region-scoped task queue.
pub struct TaskQueue<'s> {
    queue: Mutex<VecDeque<Task<'s>>>,
    /// `queue.len()`, updated under the queue lock, read without it.
    queued: AtomicUsize,
    /// Tasks queued or currently running.
    outstanding: AtomicUsize,
    /// First panic payload from any task, re-raised at region end.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Drainers park here waiting for a mid-flight task elsewhere (see
    /// [`TaskQueue::drain`]).
    activity: EventCount,
}

impl<'s> TaskQueue<'s> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        TaskQueue {
            queue: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            panic: Mutex::new(None),
            activity: EventCount::new(),
        }
    }

    /// Enqueues a task.
    pub fn push(&self, f: impl FnOnce() + Send + 's) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        {
            let mut q = self.queue.lock();
            q.push_back(Box::new(f));
            self.queued.fetch_add(1, Ordering::SeqCst);
        }
        // A parked drainer can help run the new task.
        self.activity.notify();
    }

    /// Pops and runs one task on the calling thread. Returns `false` when
    /// the queue was empty. Task panics are captured (first wins) so the
    /// team can finish its barriers before the panic resurfaces.
    pub fn run_one(&self) -> bool {
        let task = {
            let mut q = self.queue.lock();
            let task = q.pop_front();
            if task.is_some() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
            }
            task
        };
        match task {
            Some(t) => {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(t));
                if let Err(p) = r {
                    let mut g = self.panic.lock();
                    if g.is_none() {
                        *g = Some(p);
                    }
                }
                if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
                    // Last task done: release drainers waiting for zero.
                    self.activity.notify();
                }
                true
            }
            None => false,
        }
    }

    /// Runs queued tasks until none are queued *and* none are running
    /// anywhere (the `taskwait` scheduling point, simplified to "all tasks"
    /// rather than "child tasks").
    ///
    /// When the queue is empty but a task is still mid-flight on another
    /// member, the member spins briefly and then parks until a push or the
    /// last completion wakes it — a long-running task on one member does
    /// not burn a core on every other member sitting at the region end.
    pub fn drain(&self) {
        loop {
            while self.run_one() {}
            if self.outstanding.load(Ordering::SeqCst) == 0 {
                return;
            }
            self.wait_for_task_activity(DRAIN_SPIN);
        }
    }

    /// Blocks until the mid-flight picture may have changed: every task
    /// completed or a new task was pushed for us to help with.
    fn wait_for_task_activity(&self, spin: u32) -> Wait {
        self.activity.wait(spin, None, || {
            self.outstanding.load(Ordering::SeqCst) == 0 || self.queued.load(Ordering::SeqCst) > 0
        })
    }

    /// Tasks queued or running.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::SeqCst)
    }

    /// Takes the first captured panic payload, if any.
    pub fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock().take()
    }
}

impl Default for TaskQueue<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn push_and_run_one() {
        let n = AtomicU64::new(0);
        let q = TaskQueue::new();
        q.push(|| {
            n.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(q.outstanding(), 1);
        assert!(q.run_one());
        assert!(!q.run_one());
        assert_eq!(q.outstanding(), 0);
        drop(q);
        assert_eq!(n.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let q = Arc::new(TaskQueue::<'static>::new());
        let n = Arc::new(AtomicU64::new(0));
        let q2 = Arc::clone(&q);
        let n2 = Arc::clone(&n);
        q.push(move || {
            n2.fetch_add(1, Ordering::SeqCst);
            let n3 = Arc::clone(&n2);
            q2.push(move || {
                n3.fetch_add(10, Ordering::SeqCst);
            });
        });
        q.drain();
        assert_eq!(n.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn drain_waits_for_tasks_running_elsewhere() {
        let q = Arc::new(TaskQueue::<'static>::new());
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        q.push(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            n2.fetch_add(1, Ordering::SeqCst);
        });
        // Another thread steals and runs the task...
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            q2.run_one();
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        // ... while drain() on this thread must still wait for it.
        q.drain();
        assert_eq!(n.load(Ordering::SeqCst), 1);
        h.join().unwrap();
    }

    /// A drainer waiting (spin 0) on a 50 ms task running on another member
    /// blocks once and is woken by the completion; a 5 ms timed re-poll
    /// would wake it about ten times in the same window.
    #[test]
    fn drainer_blocks_once_on_a_long_task_elsewhere() {
        let q = Arc::new(TaskQueue::<'static>::new());
        let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let s2 = Arc::clone(&started);
        q.push(move || {
            s2.store(true, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
        let q2 = Arc::clone(&q);
        let member = std::thread::spawn(move || q2.run_one());
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // `drain`'s loop, with the wake-ups counted.
        let mut wakeups = 0;
        let mut parked = 0;
        loop {
            while q.run_one() {}
            if q.outstanding() == 0 {
                break;
            }
            if q.wait_for_task_activity(0) == Wait::Parked {
                parked += 1;
            }
            wakeups += 1;
        }
        assert!(member.join().unwrap());
        assert_eq!(wakeups, 1, "the drainer re-polled instead of blocking");
        assert_eq!(parked, 1, "a spin-0 wait on a running task must park");
    }

    #[test]
    fn panics_are_captured_not_propagated() {
        let q = TaskQueue::new();
        q.push(|| panic!("task a"));
        q.push(|| panic!("task b"));
        q.drain();
        assert!(q.take_panic().is_some(), "first panic retained");
        assert!(q.take_panic().is_none(), "payload taken once");
    }

    #[test]
    fn fifo_order_on_single_thread() {
        let log = Mutex::new(Vec::new());
        let q = TaskQueue::new();
        let lr = &log;
        for i in 0..5 {
            q.push(move || lr.lock().push(i));
        }
        q.drain();
        drop(q);
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }
}
