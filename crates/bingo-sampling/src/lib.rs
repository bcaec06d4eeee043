//! # bingo-sampling
//!
//! Classical Monte Carlo sampling algorithms used throughout the Bingo
//! reproduction, both as building blocks of the radix-factorized sampler and
//! as the baselines the paper compares against (Table 1):
//!
//! * [`AliasTable`] — Walker/Vose alias method: `O(d)` construction, `O(1)`
//!   sampling, `O(d)` per update (rebuild).
//! * [`CdfTable`] — inverse transform sampling on a prefix-sum array:
//!   `O(d)` construction, `O(log d)` sampling, `O(1)` append / `O(d)` delete.
//! * [`RejectionSampler`] — rejection sampling against the maximum bias:
//!   `O(1)` updates, expected `O(d·max(w)/Σw)` sampling.
//! * [`reservoir_sample_indexed`] — weighted reservoir sampling (the
//!   FlowWalker substrate): no auxiliary state, `O(d)` per sample.
//!
//! All samplers implement the [`Sampler`] trait and operate on non-negative
//! `f64` weights. Deterministic, seedable RNGs live in [`rng`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod its;
pub mod rejection;
pub mod reservoir;
pub mod rng;
pub mod stats;

pub use alias::AliasTable;
pub use its::CdfTable;
pub use rejection::RejectionSampler;
pub use reservoir::reservoir_sample_indexed;

use rand::Rng;

/// Errors produced by sampler construction and updates.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplingError {
    /// The candidate set is empty, so nothing can be sampled.
    EmptyCandidateSet,
    /// A weight was negative or not finite.
    InvalidWeight {
        /// Index of the offending weight.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// All weights are zero; the distribution is undefined.
    ZeroTotalWeight,
    /// An index passed to an update operation is out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The number of candidates currently stored.
        len: usize,
    },
}

impl std::fmt::Display for SamplingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplingError::EmptyCandidateSet => write!(f, "candidate set is empty"),
            SamplingError::InvalidWeight { index, value } => {
                write!(f, "invalid weight {value} at index {index}")
            }
            SamplingError::ZeroTotalWeight => write!(f, "all weights are zero"),
            SamplingError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for {len} candidates")
            }
        }
    }
}

impl std::error::Error for SamplingError {}

/// Result alias for sampling operations.
pub type Result<T> = std::result::Result<T, SamplingError>;

/// A discrete sampler over candidates `0..len()` with fixed weights.
///
/// The probability of returning candidate `i` must equal
/// `w_i / Σ_j w_j` (Equation 2 of the paper).
pub trait Sampler {
    /// Number of candidates in the sampling space.
    fn len(&self) -> usize;

    /// Whether the sampling space is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all weights.
    fn total_weight(&self) -> f64;

    /// Draw one candidate index according to the weight distribution.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize;
}

/// A sampler whose candidate set can be mutated in place.
///
/// The per-operation complexities differ between implementations and are the
/// subject of Table 1 in the paper.
pub trait DynamicSampler: Sampler {
    /// Append a new candidate with the given weight, returning its index.
    fn insert(&mut self, weight: f64) -> Result<usize>;

    /// Remove the candidate at `index`. Implementations may reorder the
    /// remaining candidates (swap-remove); the return value is the index of
    /// the candidate that was moved into `index`, if any.
    fn remove(&mut self, index: usize) -> Result<Option<usize>>;

    /// Change the weight of candidate `index`.
    fn update_weight(&mut self, index: usize, weight: f64) -> Result<()>;
}

/// Validate a slice of weights: all finite and non-negative with a positive
/// total. Returns the total weight.
pub fn validate_weights(weights: &[f64]) -> Result<f64> {
    if weights.is_empty() {
        return Err(SamplingError::EmptyCandidateSet);
    }
    let mut total = 0.0;
    for (index, &value) in weights.iter().enumerate() {
        if !value.is_finite() || value < 0.0 {
            return Err(SamplingError::InvalidWeight { index, value });
        }
        total += value;
    }
    if total <= 0.0 {
        return Err(SamplingError::ZeroTotalWeight);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_weights_accepts_positive() {
        assert_eq!(validate_weights(&[1.0, 2.0, 3.0]).unwrap(), 6.0);
    }

    #[test]
    fn validate_weights_rejects_empty() {
        assert_eq!(
            validate_weights(&[]).unwrap_err(),
            SamplingError::EmptyCandidateSet
        );
    }

    #[test]
    fn validate_weights_rejects_negative() {
        let err = validate_weights(&[1.0, -2.0]).unwrap_err();
        assert!(matches!(err, SamplingError::InvalidWeight { index: 1, .. }));
    }

    #[test]
    fn validate_weights_rejects_nan() {
        let err = validate_weights(&[f64::NAN]).unwrap_err();
        assert!(matches!(err, SamplingError::InvalidWeight { index: 0, .. }));
    }

    #[test]
    fn validate_weights_rejects_all_zero() {
        assert_eq!(
            validate_weights(&[0.0, 0.0]).unwrap_err(),
            SamplingError::ZeroTotalWeight
        );
    }

    #[test]
    fn error_display_is_informative() {
        let msg = format!("{}", SamplingError::IndexOutOfBounds { index: 5, len: 3 });
        assert!(msg.contains('5') && msg.contains('3'));
    }
}
