//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment for this repository has no access to crates.io, so
//! this local shim provides exactly the surface the workspace uses:
//! [`RngCore`], [`Rng`] (`gen`, `gen_range`, `gen_bool`), [`SeedableRng`],
//! [`Error`], and [`rngs::mock::StepRng`]. The generator itself
//! (`Pcg64`) lives in `bingo-sampling::rng` and only relies on these
//! traits.
//!
//! Semantics follow rand 0.8 where observable: `gen::<f64>()` is uniform in
//! `[0, 1)` built from the top 53 bits of `next_u64`, and integer
//! `gen_range` uses the widening-multiply method (bias ≤ range/2^64, far
//! below anything a statistical test in this repository can detect).

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Error type carried by [`RngCore::try_fill_bytes`]. Infallible for every
/// generator in this workspace; it exists so trait signatures match rand 0.8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rng error")
    }
}

impl std::error::Error for Error {}

/// The core of a random number generator: raw 32/64-bit output words.
pub trait RngCore {
    /// Return the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Return the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fallible variant of [`RngCore::fill_bytes`].
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

pub mod distributions {
    //! Minimal distribution machinery backing [`Rng::gen`](crate::Rng::gen).

    use crate::RngCore;

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "standard" distribution: uniform floats in `[0, 1)`, uniform
    /// integers over the full type range, fair bools.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl Distribution<f64> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 high bits → [0, 1) with full double precision, as rand does.
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<u32> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<u64> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<usize> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
            rng.next_u64() as usize
        }
    }

    impl Distribution<bool> for Standard {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Types that can be drawn uniformly from a range by [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Draw uniformly from `[lo, hi)` (or `[lo, hi]` when `inclusive`).
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

#[inline]
fn widening_draw<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    // span == 0 encodes the full 2^64 range.
    if span == 0 {
        rng.next_u64()
    } else {
        ((rng.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self {
                let span = (hi - lo) as u64;
                let span = if inclusive { span.wrapping_add(1) } else { span };
                lo + widening_draw(rng, span) as $t
            }
        }
    )*};
}
impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self {
                let span = hi.wrapping_sub(lo) as u64;
                let span = if inclusive { span.wrapping_add(1) } else { span };
                lo.wrapping_add(widening_draw(rng, span) as $t)
            }
        }
    )*};
}
impl_sample_uniform_int!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, _inclusive: bool) -> Self {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * unit
    }
}

impl SampleUniform for f32 {
    #[inline]
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, _inclusive: bool) -> Self {
        let unit = (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        lo + (hi - lo) * unit
    }
}

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_in(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_in(rng, lo, hi, true)
    }
}

/// Convenience methods layered over [`RngCore`], mirroring rand 0.8.
pub trait Rng: RngCore {
    /// Draw a value from the [`distributions::Standard`] distribution.
    #[inline]
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// Draw a value uniformly from `range`.
    #[inline]
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        T: SampleUniform,
        S: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Return `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Fill `dest` entirely with random data.
    #[inline]
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be constructed from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Seed byte array type (e.g. `[u8; 16]`).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64`, expanding it with SplitMix64 exactly like
    /// rand 0.8's default implementation (good avalanche, no zero seeds).
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = state;
        let mut next = move || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }

    /// Construct by drawing the seed from another generator.
    fn from_rng<R: RngCore>(mut rng: R) -> Result<Self, Error> {
        let mut seed = Self::Seed::default();
        rng.try_fill_bytes(seed.as_mut())?;
        Ok(Self::from_seed(seed))
    }
}

pub mod rngs {
    //! Generator implementations bundled with the shim.

    pub mod mock {
        //! Deterministic mock generators for tests.

        use crate::{Error, RngCore};

        /// A mock generator returning an arithmetic sequence: `initial`,
        /// `initial + increment`, … (wrapping). API-compatible with
        /// `rand::rngs::mock::StepRng`.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct StepRng {
            v: u64,
            increment: u64,
        }

        impl StepRng {
            /// Create a `StepRng` yielding `initial`, then stepping by
            /// `increment`.
            pub fn new(initial: u64, increment: u64) -> Self {
                StepRng {
                    v: initial,
                    increment,
                }
            }
        }

        impl RngCore for StepRng {
            #[inline]
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }

            #[inline]
            fn next_u64(&mut self) -> u64 {
                let out = self.v;
                self.v = self.v.wrapping_add(self.increment);
                out
            }

            fn fill_bytes(&mut self, dest: &mut [u8]) {
                for chunk in dest.chunks_mut(8) {
                    let bytes = self.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&bytes[..chunk.len()]);
                }
            }

            fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
                self.fill_bytes(dest);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngs::mock::StepRng;

    #[test]
    fn gen_f64_is_in_unit_interval() {
        let mut rng = StepRng::new(0, 0x9E37_79B9_7F4A_7C15);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StepRng::new(3, 0x2545_F491_4F6C_DD1D);
        for _ in 0..1000 {
            let a = rng.gen_range(5..17u64);
            assert!((5..17).contains(&a));
            let b = rng.gen_range(0..=7usize);
            assert!(b <= 7);
            let c = rng.gen_range(-4..4i32);
            assert!((-4..4).contains(&c));
            let d = rng.gen_range(1.5..2.5f64);
            assert!((1.5..2.5).contains(&d));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = StepRng::new(1, 0x9E37_79B9_7F4A_7C15);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn seed_from_u64_is_deterministic_and_sensitive() {
        struct Raw([u8; 16]);
        impl SeedableRng for Raw {
            type Seed = [u8; 16];
            fn from_seed(seed: Self::Seed) -> Self {
                Raw(seed)
            }
        }
        impl RngCore for Raw {
            fn next_u32(&mut self) -> u32 {
                0
            }
            fn next_u64(&mut self) -> u64 {
                0
            }
            fn fill_bytes(&mut self, _dest: &mut [u8]) {}
            fn try_fill_bytes(&mut self, _dest: &mut [u8]) -> Result<(), Error> {
                Ok(())
            }
        }
        assert_eq!(Raw::seed_from_u64(7).0, Raw::seed_from_u64(7).0);
        assert_ne!(Raw::seed_from_u64(7).0, Raw::seed_from_u64(8).0);
        assert_ne!(Raw::seed_from_u64(0).0, [0u8; 16]);
    }

    #[test]
    fn step_rng_steps() {
        let mut rng = StepRng::new(10, 5);
        assert_eq!(rng.next_u64(), 10);
        assert_eq!(rng.next_u64(), 15);
        assert_eq!(rng.next_u32(), 20);
    }
}
