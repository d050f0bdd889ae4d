//! Offline stand-in for the `rand` crate, used only by the staged `rustc`
//! build. pyjama-kernels' Monte-Carlo kernel is the one user
//! (`StdRng::seed_from_u64`, `gen::<f64>()`, `gen_range` over an `f64`
//! range); no ledger workload runs that kernel, so the stream only has to
//! be deterministic, not rand's.

use std::ops::Range;

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Values `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample(bits: u64) -> Self;
}

impl Standard for f64 {
    fn sample(bits: u64) -> f64 {
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for u64 {
    fn sample(bits: u64) -> u64 {
        bits
    }
}

impl Standard for u32 {
    fn sample(bits: u64) -> u32 {
        (bits >> 32) as u32
    }
}

/// Ranges `Rng::gen_range` can sample.
pub trait SampleRange<T> {
    fn sample_from(self, bits: u64) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from(self, bits: u64) -> f64 {
        self.start + (self.end - self.start) * f64::sample(bits)
    }
}

impl SampleRange<u64> for Range<u64> {
    fn sample_from(self, bits: u64) -> u64 {
        self.start + bits % (self.end - self.start).max(1)
    }
}

impl SampleRange<usize> for Range<usize> {
    fn sample_from(self, bits: u64) -> usize {
        self.start + (bits % (self.end - self.start).max(1) as u64) as usize
    }
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self.next_u64())
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self.next_u64())
    }
}

pub mod rngs {
    /// splitmix64: deterministic, seedable, dependency-free.
    #[derive(Clone, Debug)]
    pub struct StdRng(pub(crate) u64);
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng(seed)
    }
}

impl Rng for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
