//! λ-amortized handling of floating-point biases (§4.3).
//!
//! Radix decomposition needs integer biases, but real workloads carry
//! floating-point edge weights. Bingo multiplies every bias by an
//! amortization factor λ, radix-decomposes the integer part of the scaled
//! value, and parks the fractional remainder in a dedicated *decimal group*
//! that is sampled by ITS/rejection. Choosing λ so that the decimal group's
//! total weight stays below `1/d` of the vertex total keeps the expected
//! sampling cost `O(1)` (§4.4).

use bingo_graph::Bias;

/// A bias split into its λ-scaled integer part and fractional remainder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledBias {
    /// Integer part of `bias · λ`, radix-decomposed into groups.
    pub integer: u64,
    /// Fractional remainder of `bias · λ`, accumulated in the decimal group.
    pub fraction: f64,
}

impl ScaledBias {
    /// Split a bias using the amortization factor `lambda`.
    pub fn new(bias: Bias, lambda: f64) -> Self {
        if bias.is_integral() && (lambda - 1.0).abs() < f64::EPSILON {
            // Fast path: integer biases with λ = 1 need no scaling at all.
            return ScaledBias {
                integer: bias.as_int().unwrap_or(0),
                fraction: 0.0,
            };
        }
        ScaledBias {
            integer: bias.scaled_integer_part(lambda),
            fraction: bias.scaled_fraction(lambda),
        }
    }

    /// The total scaled weight (`integer + fraction = bias · λ`).
    pub fn total(&self) -> f64 {
        self.integer as f64 + self.fraction
    }

    /// Whether the scaled bias contributes anything to the decimal group.
    pub fn has_fraction(&self) -> bool {
        self.fraction > 0.0
    }
}

/// Pick a λ for a vertex such that the decimal group's share of the total
/// weight is below `1 / degree`, following the analysis of §4.4. Starts at
/// `initial` and doubles until the bound holds (or a 2^40 cap is reached).
/// `biases` is read once per λ tried, so a caller passes a view of its
/// edges rather than a copy of their biases.
pub fn choose_lambda(biases: impl ExactSizeIterator<Item = f64> + Clone, initial: f64) -> f64 {
    let degree = biases.len();
    if degree == 0 {
        return initial.max(1.0);
    }
    let mut lambda = initial.max(1.0);
    let cap = (1u64 << 40) as f64;
    loop {
        let mut integer_sum = 0.0;
        let mut fraction_sum = 0.0;
        for b in biases.clone() {
            let scaled = b * lambda;
            integer_sum += scaled.floor();
            fraction_sum += scaled - scaled.floor();
        }
        let total = integer_sum + fraction_sum;
        if total <= 0.0 || fraction_sum / total < 1.0 / degree as f64 || lambda >= cap {
            return lambda;
        }
        lambda *= 2.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_bias_with_unit_lambda_has_no_fraction() {
        let s = ScaledBias::new(Bias::from_int(13), 1.0);
        assert_eq!(s.integer, 13);
        assert_eq!(s.fraction, 0.0);
        assert!(!s.has_fraction());
        assert_eq!(s.total(), 13.0);
    }

    #[test]
    fn paper_example_lambda_ten() {
        // §4.3: biases 0.554, 0.726, 0.32 with λ = 10.
        let a = ScaledBias::new(Bias::from_float(0.554), 10.0);
        let b = ScaledBias::new(Bias::from_float(0.726), 10.0);
        let c = ScaledBias::new(Bias::from_float(0.32), 10.0);
        assert_eq!((a.integer, b.integer, c.integer), (5, 7, 3));
        assert!((a.fraction - 0.54).abs() < 1e-9);
        assert!((b.fraction - 0.26).abs() < 1e-9);
        assert!((c.fraction - 0.20).abs() < 1e-9);
        // W_D / (W_I + W_D) = 1/16 < 1/3 as the paper computes.
        let wd = a.fraction + b.fraction + c.fraction;
        let wi = (a.integer + b.integer + c.integer) as f64;
        assert!((wd / (wi + wd) - 1.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_preserves_relative_weights() {
        let lambda = 64.0;
        let x = ScaledBias::new(Bias::from_float(0.3), lambda);
        let y = ScaledBias::new(Bias::from_float(0.6), lambda);
        assert!((y.total() / x.total() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn choose_lambda_meets_the_bound() {
        let biases = [0.554, 0.726, 0.32, 0.149, 0.621];
        let lambda = choose_lambda(biases.into_iter(), 2.0);
        let mut wi = 0.0;
        let mut wd = 0.0;
        for &b in &biases {
            let s = b * lambda;
            wi += s.floor();
            wd += s - s.floor();
        }
        assert!(wd / (wi + wd) < 1.0 / biases.len() as f64);
    }

    #[test]
    fn choose_lambda_handles_edge_cases() {
        assert_eq!(choose_lambda(std::iter::empty(), 4.0), 4.0);
        assert!(choose_lambda(std::iter::empty(), 0.0) >= 1.0);
        // Integer-valued floats are already fine at λ = 1.
        assert_eq!(choose_lambda([2.0, 4.0, 8.0].into_iter(), 1.0), 1.0);
    }
}
