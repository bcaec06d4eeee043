//! Edge bias values.
//!
//! The paper supports both integer biases — radix-decomposed directly — and
//! floating-point biases, which are scaled by an amortization factor λ and
//! split into an integer part (radix groups) and a decimal remainder
//! (a dedicated group, §4.3). [`Bias`] is the `f64` bit pattern of the
//! weight, kept as two `u32` halves so it is 8 bytes with 4-byte alignment
//! and an [`Edge`](crate::Edge) is 12 bytes, not 24. A valid bias is
//! strictly positive and finite, so its sign bit is free: it carries the
//! "constructed as an integer" flag that lets the engine skip the λ
//! machinery when it is not needed.
//!
//! An adjacency slot keeps a bias in fewer words when it can (see
//! [`AdjacencyList`](crate::AdjacencyList)): an integer bias below 2^32 as
//! its **narrow** `u32` word, and one from 1 to 2^16 − 1 as its **compact**
//! `u16` word. Either word decodes to the very `from_int` bias, bit for bit.

/// A non-negative edge bias (transition weight).
///
/// Two biases are equal when they have the same value *and* were
/// constructed the same way: `from_int(5) != from_float(5.0)`. Every
/// invalid input (zero, negative, NaN, infinite) is stored as the one
/// encoding of `from_float(0.0)`, so `value()` of an invalid bias is `0.0`
/// and `is_valid()` is false.
// serde derives were dropped: the offline build environment has no serde,
// and nothing in the workspace serializes biases yet.
#[derive(Clone, Copy, PartialEq)]
pub struct Bias {
    /// Low half of the `f64` bit pattern.
    lo: u32,
    /// High half; its top bit (the `f64` sign) is the integral flag.
    hi: u32,
}

/// The `f64` sign bit, as it sits in [`Bias::hi`].
const INTEGRAL: u32 = 1 << 31;

const _: () = {
    assert!(std::mem::size_of::<Bias>() == 8);
    assert!(std::mem::align_of::<Bias>() == 4);
    // A `(src, dst, bias)` row, as edge lists are usually held.
    assert!(std::mem::size_of::<(crate::VertexId, crate::VertexId, Bias)>() == 16);
};

impl Bias {
    fn encode(value: f64, integral: bool) -> Self {
        if !(value.is_finite() && value > 0.0) {
            return Bias { lo: 0, hi: 0 };
        }
        let bits = value.to_bits();
        Bias {
            lo: bits as u32,
            hi: (bits >> 32) as u32 | if integral { INTEGRAL } else { 0 },
        }
    }

    /// Construct a bias from an integer weight.
    ///
    /// The weight is held as an `f64`, so integers above 2^53 round to the
    /// nearest representable value.
    pub fn from_int(value: u64) -> Self {
        Bias::encode(value as f64, true)
    }

    /// Construct a bias from a floating-point weight.
    ///
    /// Values that happen to be whole numbers are still tracked as
    /// floating-point; use [`Bias::from_int`] for the integer path.
    pub fn from_float(value: f64) -> Self {
        Bias::encode(value, false)
    }

    /// The numeric value of the bias.
    #[inline]
    pub fn value(&self) -> f64 {
        f64::from_bits(u64::from(self.hi & !INTEGRAL) << 32 | u64::from(self.lo))
    }

    /// Whether the bias was constructed as an integer.
    #[inline]
    pub fn is_integral(&self) -> bool {
        self.hi & INTEGRAL != 0
    }

    /// Whether the bias is valid for sampling: finite and strictly positive.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.lo | self.hi != 0
    }

    /// The integer part of the bias after scaling by `lambda`
    /// (the λ amortization factor of §4.3).
    #[inline]
    pub fn scaled_integer_part(&self, lambda: f64) -> u64 {
        (self.value() * lambda).floor() as u64
    }

    /// The fractional remainder of the bias after scaling by `lambda`.
    #[inline]
    pub fn scaled_fraction(&self, lambda: f64) -> f64 {
        let scaled = self.value() * lambda;
        scaled - scaled.floor()
    }

    /// The bias as a raw integer, if it was constructed as one.
    pub fn as_int(&self) -> Option<u64> {
        self.is_integral().then(|| self.value() as u64)
    }

    /// The one word a narrow adjacency slot keeps this bias in: an integer
    /// bias below 2^32 (see [`AdjacencyList`](crate::AdjacencyList)).
    #[inline]
    pub(crate) fn narrow(self) -> Option<u32> {
        let value = self.value();
        (self.is_integral() && value <= f64::from(u32::MAX)).then_some(value as u32)
    }

    /// The one word a compact adjacency slot keeps this bias in: an integer
    /// bias from 1 to 2^16 − 1.
    #[inline]
    pub(crate) fn compact(self) -> Option<u16> {
        self.narrow().and_then(|word| u16::try_from(word).ok())
    }

    /// The bias a narrow or compact slot's word stands for: `from_int` of
    /// it. A slot holds only a valid bias, so the word is not 0 and the
    /// check `from_int` makes is not needed.
    #[inline]
    pub(crate) fn from_narrow(word: u32) -> Self {
        debug_assert!(word > 0, "a narrow slot holds a valid bias");
        let bits = f64::from(word).to_bits();
        Bias {
            lo: bits as u32,
            hi: (bits >> 32) as u32 | INTEGRAL,
        }
    }

    /// The two words a wide adjacency slot keeps this bias in.
    #[inline]
    pub(crate) fn halves(self) -> [u32; 2] {
        [self.lo, self.hi]
    }

    /// The bias [`Bias::halves`] returned these words for.
    #[inline]
    pub(crate) fn from_halves([lo, hi]: [u32; 2]) -> Self {
        Bias { lo, hi }
    }
}

impl From<u64> for Bias {
    fn from(v: u64) -> Self {
        Bias::from_int(v)
    }
}

impl From<f64> for Bias {
    fn from(v: f64) -> Self {
        Bias::from_float(v)
    }
}

impl std::fmt::Debug for Bias {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bias")
            .field("value", &self.value())
            .field("integral", &self.is_integral())
            .finish()
    }
}

impl std::fmt::Display for Bias {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.as_int() {
            Some(int) => write!(f, "{int}"),
            None => write!(f, "{}", self.value()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_bias_round_trips() {
        let b = Bias::from_int(5);
        assert_eq!(b.value(), 5.0);
        assert!(b.is_integral());
        assert_eq!(b.as_int(), Some(5));
        assert!(b.is_valid());
        assert_eq!(format!("{b}"), "5");
    }

    #[test]
    fn float_bias_is_not_integral() {
        let b = Bias::from_float(0.554);
        assert!(!b.is_integral());
        assert_eq!(b.as_int(), None);
        assert!(b.is_valid());
    }

    #[test]
    fn invalid_biases_detected() {
        assert!(!Bias::from_float(0.0).is_valid());
        assert!(!Bias::from_float(-1.0).is_valid());
        assert!(!Bias::from_float(f64::NAN).is_valid());
        assert!(!Bias::from_float(f64::INFINITY).is_valid());
        assert!(!Bias::from_int(0).is_valid());
    }

    /// SplitMix64: seeded, well-mixed 64-bit words for the property tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn integers_below_two_to_53_round_trip_exactly() {
        let mut state = 53;
        let edge_cases = [1, 2, 5, u64::from(u32::MAX), (1 << 53) - 1];
        let seeded = std::iter::repeat_with(|| 1 + splitmix(&mut state) % ((1 << 53) - 1));
        for v in edge_cases.into_iter().chain(seeded.take(20_000)) {
            let b = Bias::from_int(v);
            assert_eq!(b.as_int(), Some(v));
            assert_eq!(b.value().to_bits(), (v as f64).to_bits());
            assert!(b.is_integral() && b.is_valid());
            assert_eq!(format!("{b}"), v.to_string());
            assert_ne!(
                b,
                Bias::from_float(v as f64),
                "{v}: the flag is part of equality"
            );
            assert_eq!(b, Bias::from_int(v));
        }
        // Above 2^53 the f64 rounds, as it always has.
        assert_eq!(Bias::from_int((1 << 53) + 1).as_int(), Some(1 << 53));
    }

    #[test]
    fn a_bias_keeps_narrow_exactly_when_it_is_an_integer_below_two_to_32() {
        let max = u64::from(u32::MAX);
        for v in [1, 2, 5, 1 << 16, 1 << 31, max - 1, max] {
            let b = Bias::from_int(v);
            assert_eq!(b.narrow(), Some(v as u32));
            assert_eq!(Bias::from_narrow(v as u32), b, "{v}: bit for bit");
        }
        for b in [
            Bias::from_int(max + 1),
            Bias::from_int(1 << 53),
            Bias::from_int(u64::MAX),
            Bias::from_float(1.0),
            Bias::from_float(0.5),
            Bias::from_int(0),
        ] {
            assert_eq!(b.narrow(), None, "{b:?}");
            assert_eq!(Bias::from_halves(b.halves()), b, "{b:?}");
        }
    }

    #[test]
    fn a_bias_keeps_compact_exactly_when_it_is_an_integer_below_two_to_16() {
        let mut state = 16;
        let edge_cases = [1, 2, 5, 255, 256, 1 << 15, (1 << 16) - 2, (1 << 16) - 1];
        let seeded = std::iter::repeat_with(|| 1 + splitmix(&mut state) % 0xFFFF);
        for v in edge_cases.into_iter().chain(seeded.take(20_000)) {
            let b = Bias::from_int(v);
            assert_eq!(b.compact(), Some(v as u16), "{v}");
            let word = u32::from(b.compact().unwrap());
            assert_eq!(Bias::from_narrow(word), b, "{v}: bit for bit");
            assert_eq!(Bias::from_narrow(word).as_int(), Some(v));
        }
        for b in [
            Bias::from_int(1 << 16),
            Bias::from_int((1 << 16) + 1),
            Bias::from_int(u64::from(u32::MAX)),
            Bias::from_int(1 << 40),
            Bias::from_float(1.0),
            Bias::from_float(0.5),
            Bias::from_float(65_535.0),
            Bias::from_int(0),
        ] {
            assert_eq!(b.compact(), None, "{b:?}");
        }
    }

    #[test]
    fn positive_finite_floats_round_trip_bit_for_bit() {
        let mut state = 64;
        let edge_cases = [
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            0.554,
            1.0,
            5.0,
            (1u64 << 53) as f64,
            f64::MAX,
        ];
        // Any bit pattern with the sign cleared is positive; drop the
        // non-finite exponent and zero.
        let seeded = std::iter::repeat_with(|| f64::from_bits(splitmix(&mut state) >> 1))
            .filter(|x| x.is_finite() && *x > 0.0);
        for x in edge_cases.into_iter().chain(seeded.take(20_000)) {
            let b = Bias::from_float(x);
            assert_eq!(b.value().to_bits(), x.to_bits(), "{x:e}");
            assert!(!b.is_integral() && b.is_valid());
            assert_eq!(b.as_int(), None);
            assert_eq!(format!("{b}"), format!("{x}"));
        }
    }

    #[test]
    fn every_invalid_input_is_invalid_and_rejected_by_the_graph() {
        let invalid = [
            Bias::from_float(0.0),
            Bias::from_float(-0.0),
            Bias::from_float(-1.0),
            Bias::from_float(-f64::MIN_POSITIVE),
            Bias::from_float(f64::NAN),
            Bias::from_float(f64::INFINITY),
            Bias::from_float(f64::NEG_INFINITY),
            Bias::from_int(0),
        ];
        let mut g = crate::dynamic_graph::running_example();
        let edges = g.num_edges();
        for b in invalid {
            assert!(!b.is_valid(), "{b:?}");
            assert_eq!(b, invalid[0], "one invalid encoding");
            assert_eq!(
                g.insert_edge(2, 3, b),
                Err(crate::GraphError::InvalidBias { src: 2, dst: 3 })
            );
            assert_eq!(
                g.update_bias(2, 4, b),
                Err(crate::GraphError::InvalidBias { src: 2, dst: 4 })
            );
        }
        assert_eq!(g.num_edges(), edges);
        assert_eq!(
            g.neighbors(2).unwrap().edge(1).unwrap().bias,
            Bias::from_int(4)
        );
    }

    #[test]
    fn lambda_scaling_matches_paper_example() {
        // Paper §4.3: bias 0.554 with λ = 10 → integer part 5, fraction 0.54.
        let b = Bias::from_float(0.554);
        assert_eq!(b.scaled_integer_part(10.0), 5);
        assert!((b.scaled_fraction(10.0) - 0.54).abs() < 1e-9);

        let b = Bias::from_float(0.726);
        assert_eq!(b.scaled_integer_part(10.0), 7);
        assert!((b.scaled_fraction(10.0) - 0.26).abs() < 1e-9);

        let b = Bias::from_float(0.32);
        assert_eq!(b.scaled_integer_part(10.0), 3);
        assert!((b.scaled_fraction(10.0) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn integer_bias_has_no_fraction_at_unit_lambda() {
        let b = Bias::from_int(13);
        assert_eq!(b.scaled_integer_part(1.0), 13);
        assert_eq!(b.scaled_fraction(1.0), 0.0);
    }

    #[test]
    fn from_impls() {
        let a: Bias = 7u64.into();
        let b: Bias = 7.5f64.into();
        assert!(a.is_integral());
        assert!(!b.is_integral());
    }
}
