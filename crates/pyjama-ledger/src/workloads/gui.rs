//! `gui_await` — the paper's §V-A scenario as an open loop: events fire at
//! a `pyjama_gui::Gui` EDT on a schedule, whether or not earlier ones have
//! finished. Each handler offloads Crypt with `target virtual(worker)
//! await` — the EDT pumps other events re-entrantly while it waits — then
//! updates a label in the continuation. Latency runs from the moment an
//! event was *due*, so a stalled EDT charges the wait to every event behind
//! it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pyjama_gui::{ConfinementPolicy, Gui, Label};
use pyjama_kernels::crypt::{encrypt_seq, IdeaKey};
use pyjama_runtime::{Mode, Runtime, VirtualTarget, WorkerTarget};

use super::{check_pool_conservation, fold64, Rng, POOL_THREADS};
use crate::clock;
use crate::harness::{time_per_call, Counters, Micro, SliceRec, Workload};
use crate::spans::{self, Kind};

/// Offered rate: one event per `INTERVAL_NS`.
const INTERVAL_NS: u64 = 1_000_000;
/// Seeded per-event jitter, below the interval so due times stay ordered.
const JITTER_NS: u64 = 500_000;
/// Bytes each handler encrypts.
const PAYLOAD: usize = 4096;
/// Distinct payloads (and jitter values) the events cycle through.
const INPUTS: usize = 8;
const JITTERS: usize = 1024;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

fn label_text(op: u64, digest: u64) -> String {
    format!("evt {op} {digest:016x}")
}

/// One finished event, as the continuation on the EDT saw it.
struct Done {
    due_ns: u64,
    done_ns: u64,
}

struct Shared {
    rt: Arc<Runtime>,
    label: Arc<Label>,
    key: IdeaKey,
    inputs: Vec<Vec<u8>>,
    /// Digest of each input's ciphertext, from a direct kernel call.
    expect: Vec<u64>,
    finished: Mutex<Vec<Done>>,
    /// Events whose continuation ran (verified or not).
    completed: AtomicU64,
    /// Events whose ciphertext digest was wrong.
    wrong: AtomicU64,
    /// The event whose continuation ran last (nested handlers finish out of
    /// order, so this is not simply the last one fired).
    last_op: AtomicU64,
}

pub struct GuiAwait {
    shared: Arc<Shared>,
    jitter_ns: Vec<u64>,
    /// Clock value of event 0's nominal slot.
    start_ns: u64,
    fired: u64,
    /// Completions already booked into a slice.
    booked: u64,
    worker: Arc<WorkerTarget>,
    gui: Gui,
}

impl GuiAwait {
    pub fn setup(seed: u64) -> Result<GuiAwait, String> {
        let mut rng = Rng::new(seed);
        let key = IdeaKey::benchmark_key();
        let inputs: Vec<Vec<u8>> = (0..INPUTS).map(|_| rng.bytes(PAYLOAD)).collect();
        let expect = inputs
            .iter()
            .map(|p| {
                let mut buf = p.clone();
                encrypt_seq(&key, &mut buf);
                fold64(&buf)
            })
            .collect();
        let jitter_ns = (0..JITTERS).map(|_| rng.range(0, JITTER_NS)).collect();

        // The calling thread is the generator; it paces by sleeping.
        crate::procfs::tighten_timer_slack();
        let gui = Gui::launch(ConfinementPolicy::Enforce);
        let rt = Arc::new(Runtime::new());
        rt.virtual_target_register_edt("edt", gui.edt_handle())
            .map_err(|e| format!("register edt: {e}"))?;
        let worker = rt.virtual_target_create_worker("worker", POOL_THREADS);
        let shared = Arc::new(Shared {
            rt,
            label: gui.label("status"),
            key,
            inputs,
            expect,
            finished: Mutex::new(Vec::with_capacity(4096)),
            completed: AtomicU64::new(0),
            wrong: AtomicU64::new(0),
            last_op: AtomicU64::new(0),
        });
        let mut w = GuiAwait {
            shared,
            jitter_ns,
            start_ns: clock::now_ns(),
            fired: 0,
            booked: 0,
            worker,
            gui,
        };
        let mut rec = SliceRec::default();
        w.run(Instant::now() + Duration::from_secs(1), 1, &mut rec);
        w.quiesce(&mut rec);
        if rec.failed > 0 || rec.ops != 1 {
            return Err("first event never finished".into());
        }
        // The schedule proper starts with the warm-up.
        w.start_ns = clock::now_ns() - w.fired * INTERVAL_NS;
        Ok(w)
    }

    fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + k * INTERVAL_NS + self.jitter_ns[k as usize % JITTERS]
    }

    /// Posts event `op`'s handler to the EDT.
    fn fire(&self, op: u64, due_ns: u64) {
        let sh = Arc::clone(&self.shared);
        self.gui.invoke_later(move || {
            let h0 = clock::now_ns();
            let digest = Arc::new(AtomicU64::new(0));
            let (sh2, out) = (Arc::clone(&sh), Arc::clone(&digest));
            // //#omp target virtual(worker) await
            sh.rt.target("worker", Mode::Await, move || {
                let mut buf = sh2.inputs[op as usize % INPUTS].clone();
                let k0 = clock::now_ns();
                encrypt_seq(&sh2.key, &mut buf);
                spans::record(Kind::KernelCall, op, k0, clock::now_ns());
                out.store(fold64(&buf), Ordering::Release);
            });
            // Continuation: back on the EDT, after the block.
            let got = digest.load(Ordering::Acquire);
            sh.label.set_text(label_text(op, got));
            let done_ns = clock::now_ns();
            if got == sh.expect[op as usize % INPUTS] {
                sh.finished
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Done { due_ns, done_ns });
            } else {
                sh.wrong.fetch_add(1, Ordering::Relaxed);
            }
            spans::record(Kind::Handler, op, h0, done_ns);
            spans::record(Kind::ClientRequest, op, due_ns, done_ns);
            sh.last_op.store(op, Ordering::Relaxed);
            sh.completed.fetch_add(1, Ordering::Release);
        });
    }

    /// Books every completion since the last call into `rec`.
    fn book(&mut self, rec: &mut SliceRec) {
        let done = std::mem::take(
            &mut *self
                .shared
                .finished
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        rec.ops += done.len() as u64;
        rec.lat_ns
            .extend(done.iter().map(|d| d.done_ns.saturating_sub(d.due_ns)));
        let completed = self.shared.completed.load(Ordering::Acquire);
        rec.failed += completed - self.booked - done.len() as u64;
        self.booked = completed;
    }
}

impl Workload for GuiAwait {
    /// Every event of a slice's first chunk: a few dozen events, a few
    /// hundred trace events, well inside a ring.
    const TRACE_WINDOW_OPS: u64 = u64::MAX;

    fn run(&mut self, deadline: Instant, max_ops: u64, rec: &mut SliceRec) {
        let mut started = 0;
        while started < max_ops {
            let due_ns = self.due_ns(self.fired);
            let due = clock::instant_at(due_ns);
            if due >= deadline {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            rec.gen_lag_ns.push(clock::now_ns().saturating_sub(due_ns));
            self.fired += 1;
            self.fire(self.fired, due_ns);
            rec.attempted += 1;
            started += 1;
        }
        if started < max_ops {
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        }
        self.book(rec);
    }

    /// Lets every fired event finish (they are booked by the next `run`).
    fn pause(&mut self) {
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        while self.shared.completed.load(Ordering::Acquire) < self.fired && Instant::now() < give_up
        {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// The schedule stood still while the generator was away.
    fn resume(&mut self, paused: Duration) {
        self.start_ns += paused.as_nanos() as u64;
    }

    fn quiesce(&mut self, rec: &mut SliceRec) {
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        while self.shared.completed.load(Ordering::Acquire) < self.fired && Instant::now() < give_up
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.book(rec);
        // Fired but never finished: timed out.
        rec.failed += self.fired - self.booked;
    }

    fn counters(&self) -> Counters {
        Counters {
            target: self.worker.stats(),
            edt: self.gui.edt_handle().stats(),
            edt_busy_ns: self.gui.occupancy().busy().as_nanos() as u64,
            ..Counters::process_wide()
        }
    }

    fn micro(&mut self) -> Micro {
        let mut buf = self.shared.inputs[0].clone();
        let kib = buf.len() as f64 / 1024.0;
        let ns = time_per_call(500, || {
            encrypt_seq(&self.shared.key, std::hint::black_box(&mut buf))
        });
        Micro {
            crypt_ns_per_kib: ns / kib,
            ..Micro::default()
        }
    }

    fn check(&self, _delta: &Counters, _ops: u64) -> Result<(), String> {
        let sh = &self.shared;
        let wrong = sh.wrong.load(Ordering::Relaxed);
        if wrong != 0 {
            return Err(format!(
                "guard crypt_digest: {wrong} events produced a wrong ciphertext"
            ));
        }
        let last = sh.last_op.load(Ordering::Relaxed);
        let want = label_text(last, sh.expect[last as usize % INPUTS]);
        let got = sh.label.text();
        if got != want {
            return Err(format!(
                "guard final_label: label reads {got:?}, want {want:?}"
            ));
        }
        let sets = sh.label.set_count();
        if sets != self.fired {
            return Err(format!(
                "guard label_updates: {sets} updates for {} events",
                self.fired
            ));
        }
        check_pool_conservation(&self.worker)
    }
}
