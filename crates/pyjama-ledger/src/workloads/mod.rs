//! The seven workloads. Each module owns a system under test, the load
//! generator for it, and the validity guards that prove the run exercised
//! what the workload claims.
//!
//! Load shape shared by all of them: generator and system in one process,
//! worker pools of [`POOL_THREADS`] threads, exactly one generator thread.

pub mod gui;
pub mod http;
pub mod omp;
pub mod post;

use pyjama_runtime::{VirtualTarget, WorkerTarget};

/// Threads in every worker pool the workloads create.
pub const POOL_THREADS: usize = 2;

/// Folds all of `data` into 8 bytes — cheap next to an encryption, but it
/// makes a digest depend on every ciphertext block.
pub fn fold64(data: &[u8]) -> u64 {
    data.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .fold(0u64, |acc, w| acc.rotate_left(5) ^ w)
}

/// Guard: `executed == local_pops + steals + injector_pops` on a quiesced
/// pool — every executed region left through exactly one queue.
pub fn check_pool_conservation(worker: &WorkerTarget) -> Result<(), String> {
    let s = worker.stats();
    if s.executed != s.pops_total() {
        return Err(format!(
            "guard pool_conservation: executed {} != local {} + steals {} + injector {}",
            s.executed, s.local_pops, s.steals, s.injector_pops
        ));
    }
    Ok(())
}

/// splitmix64: the ledger's only source of randomness. Inputs are a pure
/// function of `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo).max(1)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            v.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        v.truncate(len);
        v
    }
}

/// `iters` steps of a multiply–xorshift chain, ~2 ns each. Every step needs
/// the previous one's result and the xorshift defeats closed forms, so the
/// optimiser can neither elide nor vectorise it; the result doubles as the
/// operation's checkable output.
#[inline(never)]
pub fn spin(iters: u64, start: u64) -> u64 {
    let mut acc = start;
    for i in 0..iters {
        acc = (acc ^ (acc >> 29))
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, {
            let mut r = Rng::new(8);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        });
        let mut r = Rng::new(1);
        assert!((0..100).all(|_| (10..20).contains(&r.range(10, 20))));
        assert_eq!(Rng::new(3).bytes(13).len(), 13);
        assert_eq!(Rng::new(3).bytes(13), Rng::new(3).bytes(13));
    }

    #[test]
    fn spin_depends_on_both_inputs() {
        assert_eq!(spin(100, 5), spin(100, 5));
        assert_ne!(spin(100, 5), spin(100, 6));
        assert_ne!(spin(100, 5), spin(101, 5));
    }
}
