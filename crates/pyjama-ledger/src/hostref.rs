//! The host-speed reference: a fixed piece of work that uses the same
//! operating-system facilities as a workload but none of this repository's
//! code, run in short bursts *between* the chunks of every measured slice.
//!
//! Why: the sandboxes the ledger runs in are a few vCPUs of a shared host.
//! Their speed moves in steps that last seconds to a minute — about +30 %
//! when the host clocks up, −25 % to −50 % when a neighbour shares the core
//! — and every time the ledger reports moves with them, by more than any
//! bound it could state. The reference moves the same way at the same
//! moment (measured: r = 0.96 between a slice's echo throughput and its
//! reference bursts), so each slice's times are scaled by
//! `nominal / measured` reference time: they read as they would on a host
//! where the reference takes its nominal time. Raw values are reported next
//! to the normalised ones.
//!
//! A burst is a [`Recipe`]: loopback ping-pongs, loopback connect/close
//! cycles and two-thread fork-joins over a fixed compute kernel, in the
//! proportions of the workload it accompanies. Helper threads are spawned
//! after the child pinned itself, so they run where the workload runs.
//! Nothing here allocates after `start`.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Bytes of one reference message: the size of the echo workloads' request.
const MSG: usize = 160;
/// Connections the ping-pong holds, like the HTTP workloads' generator.
const CONNS: usize = 2;
/// Words of the compute kernel's table: 4 KiB, resident in L1.
const TABLE: usize = 512;

/// What one burst does: `rounds` times the same few steps, in the order of
/// the fields. Counts are fixed per workload, so a burst is the same work
/// every time and its duration measures only the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Recipe {
    pub rounds: u32,
    /// Per round: sleeps of [`NAP`] on the calling thread — the timer
    /// wake-up of an idle CPU that a mostly idle open loop pays on every
    /// event, and that leaves whatever follows with cold caches.
    pub naps: u32,
    /// Per round: "write a message on both connections, read both echoes".
    pub ping_pongs: u32,
    /// Per round: loopback connections opened, used for one echo, closed.
    pub churns: u32,
    /// Per round: fork-joins — wake the parked helper thread, both sides
    /// run the compute kernel, sleep until the helper is done. The hand-off
    /// of threads that take turns on one CPU.
    pub fork_joins: u32,
    /// Iterations of the compute kernel per fork-join side.
    pub compute_iters: u32,
}

/// Length of one nap.
const NAP: Duration = Duration::from_micros(50);

/// Fixed high-throughput work: four independent multiply–xorshift chains
/// and a read-modify-write into a small table per step. Unlike a single
/// dependent chain it keeps several execution ports and the L1 busy, so a
/// neighbour on the sibling hyperthread slows it like it slows real code.
#[inline(never)]
pub fn compute(iters: u32, table: &mut [u64; TABLE]) -> u64 {
    let (mut a, mut b, mut c, mut d) = (
        0x9E37_79B9_7F4A_7C15u64,
        0xBF58_476D_1CE4_E5B9u64,
        0x94D0_49BB_1331_11EBu64,
        0x2545_F491_4F6C_DD1Du64,
    );
    for i in 0..u64::from(iters) {
        a = (a ^ (a >> 29)).wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
        b = (b ^ (b >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        c = (c ^ (c >> 27)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        d = (d ^ (d >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let j = (a ^ b) as usize % TABLE;
        table[j] = table[j].wrapping_add(c ^ d);
    }
    a ^ b ^ c ^ d ^ table[0]
}

/// Loopback echo peers: persistent connections for the ping-pong and an
/// acceptor for the connect/close cycle.
struct Net {
    conns: Vec<TcpStream>,
    churn_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

fn echo_until_closed(mut s: TcpStream) {
    let mut buf = [0u8; MSG];
    while s.read_exact(&mut buf).is_ok() && s.write_all(&buf).is_ok() {}
}

impl Net {
    fn start() -> std::io::Result<Net> {
        let mut threads = Vec::new();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let mut conns = Vec::with_capacity(CONNS);
        for _ in 0..CONNS {
            let c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            let (s, _) = listener.accept()?;
            s.set_nodelay(true)?;
            threads.push(std::thread::spawn(move || echo_until_closed(s)));
            conns.push(c);
        }
        drop(listener);

        let acceptor = TcpListener::bind("127.0.0.1:0")?;
        let churn_addr = acceptor.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut buf = [0u8; MSG];
            while let Ok((mut s, _)) = acceptor.accept() {
                if stopped.load(Ordering::Acquire) {
                    return;
                }
                // One echo, then the server side closes first, as the HTTP
                // server does on `connection: close`.
                if s.read_exact(&mut buf).is_ok() {
                    let _ = s.write_all(&buf);
                }
            }
        }));
        Ok(Net {
            conns,
            churn_addr,
            stop,
            threads,
        })
    }

    fn ping_pong(&mut self) -> std::io::Result<()> {
        let msg = [0x5Au8; MSG];
        let mut buf = [0u8; MSG];
        for c in &mut self.conns {
            c.write_all(&msg)?;
        }
        for c in &mut self.conns {
            c.read_exact(&mut buf)?;
        }
        Ok(())
    }

    fn churn(&mut self) -> std::io::Result<()> {
        let msg = [0xA5u8; MSG];
        let mut buf = [0u8; MSG];
        let mut c = TcpStream::connect(self.churn_addr)?;
        c.set_nodelay(true)?;
        c.write_all(&msg)?;
        c.read_exact(&mut buf)
    }
}

impl Drop for Net {
    fn drop(&mut self) {
        // Closing the connections ends the echo threads; the acceptor needs
        // one last connection to see the flag.
        self.conns.clear();
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.churn_addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The fork-join helper: parked until the caller bumps `go`, then runs the
/// kernel and publishes the generation it finished.
struct ForkJoin {
    shared: Arc<ForkShared>,
    helper: Option<JoinHandle<()>>,
    table: Box<[u64; TABLE]>,
}

struct ForkShared {
    /// Generation requested; `u64::MAX` asks the helper to exit.
    go: AtomicU64,
    /// Generation finished.
    done: AtomicU64,
    iters: AtomicU64,
    caller: Thread,
}

impl ForkJoin {
    fn start() -> ForkJoin {
        let shared = Arc::new(ForkShared {
            go: AtomicU64::new(0),
            done: AtomicU64::new(0),
            iters: AtomicU64::new(0),
            caller: std::thread::current(),
        });
        let sh = Arc::clone(&shared);
        let helper = std::thread::spawn(move || {
            let mut table = Box::new([0u64; TABLE]);
            let mut seen = 0;
            loop {
                let go = sh.go.load(Ordering::Acquire);
                if go == u64::MAX {
                    return;
                }
                if go == seen {
                    std::thread::park();
                    continue;
                }
                seen = go;
                std::hint::black_box(compute(
                    sh.iters.load(Ordering::Relaxed) as u32,
                    &mut table,
                ));
                sh.done.store(seen, Ordering::Release);
                sh.caller.unpark();
            }
        });
        ForkJoin {
            shared,
            helper: Some(helper),
            table: Box::new([0u64; TABLE]),
        }
    }

    fn fork_join(&mut self, iters: u32) {
        let sh = &self.shared;
        sh.iters.store(u64::from(iters), Ordering::Relaxed);
        let generation = sh.go.load(Ordering::Relaxed) + 1;
        sh.go.store(generation, Ordering::Release);
        self.helper
            .as_ref()
            .expect("helper runs until drop")
            .thread()
            .unpark();
        std::hint::black_box(compute(iters, &mut self.table));
        while sh.done.load(Ordering::Acquire) != generation {
            std::thread::park();
        }
    }
}

impl Drop for ForkJoin {
    fn drop(&mut self) {
        self.shared.go.store(u64::MAX, Ordering::Release);
        if let Some(h) = self.helper.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

/// A started reference: call [`HostRef::burst`] from the generator thread
/// while the workload is quiet.
pub struct HostRef {
    recipe: Recipe,
    net: Option<Net>,
    fork: Option<ForkJoin>,
}

impl HostRef {
    /// Starts the peers `recipe` needs. Must be called on the thread that
    /// will call `burst`.
    pub fn start(recipe: Recipe) -> Result<HostRef, String> {
        let net = if recipe.ping_pongs > 0 || recipe.churns > 0 {
            Some(Net::start().map_err(|e| format!("host reference: {e}"))?)
        } else {
            None
        };
        let fork = (recipe.fork_joins > 0).then(ForkJoin::start);
        Ok(HostRef { recipe, net, fork })
    }

    /// Runs the recipe once; nanoseconds it took (0 for an empty recipe).
    pub fn burst(&mut self) -> Result<u64, String> {
        let r = self.recipe;
        let t0 = Instant::now();
        for _ in 0..r.rounds {
            for _ in 0..r.naps {
                std::thread::sleep(NAP);
            }
            if let Some(net) = &mut self.net {
                for _ in 0..r.ping_pongs {
                    net.ping_pong()
                        .map_err(|e| format!("host reference ping-pong: {e}"))?;
                }
                for _ in 0..r.churns {
                    net.churn()
                        .map_err(|e| format!("host reference churn: {e}"))?;
                }
            }
            if let Some(fork) = &mut self.fork {
                for _ in 0..r.fork_joins {
                    fork.fork_join(r.compute_iters);
                }
            }
        }
        Ok(if r.rounds == 0 {
            0
        } else {
            t0.elapsed().as_nanos() as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_is_deterministic_and_depends_on_iters() {
        let mut t1 = Box::new([0u64; TABLE]);
        let mut t2 = Box::new([0u64; TABLE]);
        assert_eq!(compute(1000, &mut t1), compute(1000, &mut t2));
        let mut t3 = Box::new([0u64; TABLE]);
        assert_ne!(compute(1001, &mut t3), compute(1000, &mut Box::new([0u64; TABLE])));
    }

    #[test]
    fn every_primitive_runs_and_stops() {
        let mut h = HostRef::start(Recipe {
            rounds: 2,
            naps: 1,
            ping_pongs: 3,
            churns: 2,
            fork_joins: 4,
            compute_iters: 500,
        })
        .unwrap();
        assert!(h.burst().unwrap() > 0);
        assert!(h.burst().unwrap() > 0);
        drop(h); // joins every helper thread
        let mut none = HostRef::start(Recipe::default()).unwrap();
        assert_eq!(none.burst(), Ok(0));
    }
}
