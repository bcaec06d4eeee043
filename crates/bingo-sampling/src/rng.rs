//! Deterministic, seedable random number generators.
//!
//! The paper's GPU kernels use per-thread counter-based RNG; here we provide
//! small, fast, reproducible generators implementing [`rand::RngCore`] so
//! that every experiment in the repository can be replayed exactly.

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64 generator, mainly used to expand seeds for the other RNGs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a raw 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Produce the next 64-bit output.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG-XSH-RR 64/32-based generator with 128-bit state ("Pcg64" in the public
/// API). Fast, statistically strong, and reproducible across platforms.
#[derive(Debug, Clone)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

const PCG_MULT: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

impl Pcg64 {
    /// Create a generator from an explicit state/stream pair.
    pub fn new(state: u128, stream: u128) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng.state = rng.state.wrapping_add(state);
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng
    }

    /// Advance the state and return 64 pseudo-random bits (PCG-XSL-RR).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let rot = (self.state >> 122) as u32;
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        xored.rotate_right(rot)
    }

    /// The raw `(state, increment)` pair, for serializing an in-flight
    /// generator (e.g. a forwarded walker's RNG crossing a process
    /// boundary). Round-trips exactly through
    /// [`Pcg64::from_raw_parts`] — unlike [`Pcg64::new`], which scrambles
    /// its inputs to decorrelate user-chosen seeds.
    pub fn to_raw_parts(&self) -> (u128, u128) {
        (self.state, self.inc)
    }

    /// Rebuild a generator from a raw `(state, increment)` pair previously
    /// read with [`Pcg64::to_raw_parts`]. The low increment bit is forced
    /// to 1 (a PCG stream invariant) so no byte pattern can produce an
    /// invalid generator.
    pub fn from_raw_parts(state: u128, inc: u128) -> Self {
        Pcg64 {
            state,
            inc: inc | 1,
        }
    }
}

impl RngCore for Pcg64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> std::result::Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Pcg64 {
    type Seed = [u8; 16];

    fn from_seed(seed: Self::Seed) -> Self {
        let state = u128::from_le_bytes(seed);
        Pcg64::new(state, 0xda3e_39cb_94b9_5bdb)
    }

    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let lo = sm.next() as u128;
        let hi = sm.next() as u128;
        Pcg64::new((hi << 64) | lo, sm.next() as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn pcg_is_deterministic_and_seed_sensitive() {
        let mut a = Pcg64::seed_from_u64(1);
        let mut b = Pcg64::seed_from_u64(1);
        let mut c = Pcg64::seed_from_u64(2);
        let xs: Vec<u64> = (0..50).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..50).map(|_| b.next()).collect();
        let zs: Vec<u64> = (0..50).map(|_| c.next()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn pcg_gen_range_is_in_bounds() {
        let mut rng = Pcg64::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let k = rng.gen_range(0..10usize);
            assert!(k < 10);
        }
    }

    #[test]
    fn pcg_output_is_roughly_uniform() {
        let mut rng = Pcg64::seed_from_u64(99);
        let mut buckets = [0usize; 16];
        let n = 64_000;
        for _ in 0..n {
            buckets[(rng.next() >> 60) as usize] += 1;
        }
        let expected = n as f64 / 16.0;
        for &b in &buckets {
            assert!((b as f64 - expected).abs() < expected * 0.15);
        }
    }

    #[test]
    fn pcg_raw_parts_round_trip_mid_stream() {
        let mut rng = Pcg64::seed_from_u64(11);
        for _ in 0..17 {
            rng.next();
        }
        let (state, inc) = rng.to_raw_parts();
        let mut resumed = Pcg64::from_raw_parts(state, inc);
        let expect: Vec<u64> = (0..32).map(|_| rng.next()).collect();
        let got: Vec<u64> = (0..32).map(|_| resumed.next()).collect();
        assert_eq!(expect, got, "raw parts must resume the exact stream");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Pcg64::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
