//! Rejection sampling.
//!
//! Rejection sampling keeps no auxiliary structure beyond the maximum bias:
//! pick a candidate uniformly, accept it with probability `w_i / max(w)`.
//! Updates are `O(1)` (amortized — deleting the maximum requires a rescan),
//! but the expected sampling cost is `O(d · max(w) / Σ w)`, which degrades
//! badly on skewed bias distributions. Bingo uses bounded-rejection sampling
//! for its *dense* groups, where the acceptance rate is ≥ α% by construction.

use crate::{validate_weights, DynamicSampler, Result, Sampler, SamplingError};
use rand::Rng;

/// A rejection sampler over an explicit weight vector.
#[derive(Debug, Clone)]
pub struct RejectionSampler {
    weights: Vec<f64>,
    max_weight: f64,
    total: f64,
}

impl RejectionSampler {
    /// Build a rejection sampler. `O(d)` (one pass for the maximum).
    pub fn new(weights: &[f64]) -> Result<Self> {
        let total = validate_weights(weights)?;
        let max_weight = weights.iter().cloned().fold(0.0, f64::max);
        Ok(RejectionSampler {
            weights: weights.to_vec(),
            max_weight,
            total,
        })
    }

    /// The raw weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of memory bytes used (the weight vector only).
    pub fn memory_bytes(&self) -> usize {
        self.weights.len() * std::mem::size_of::<f64>()
    }

    fn rescan_max(&mut self) {
        self.max_weight = self.weights.iter().cloned().fold(0.0, f64::max);
    }
}

impl Sampler for RejectionSampler {
    fn len(&self) -> usize {
        self.weights.len()
    }

    fn total_weight(&self) -> f64 {
        self.total
    }

    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        debug_assert!(!self.weights.is_empty() && self.max_weight > 0.0);
        loop {
            let i = rng.gen_range(0..self.weights.len());
            let threshold = rng.gen::<f64>() * self.max_weight;
            if threshold < self.weights[i] {
                return i;
            }
        }
    }
}

impl DynamicSampler for RejectionSampler {
    /// Append a candidate: `O(1)`.
    fn insert(&mut self, weight: f64) -> Result<usize> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(SamplingError::InvalidWeight {
                index: self.weights.len(),
                value: weight,
            });
        }
        self.weights.push(weight);
        self.total += weight;
        if weight > self.max_weight {
            self.max_weight = weight;
        }
        Ok(self.weights.len() - 1)
    }

    /// Swap-remove a candidate: `O(1)` unless the maximum is removed, in
    /// which case the envelope is rescanned (`O(d)`).
    fn remove(&mut self, index: usize) -> Result<Option<usize>> {
        if index >= self.weights.len() {
            return Err(SamplingError::IndexOutOfBounds {
                index,
                len: self.weights.len(),
            });
        }
        let removed = self.weights.swap_remove(index);
        self.total -= removed;
        let moved = if index < self.weights.len() {
            Some(self.weights.len())
        } else {
            None
        };
        if (removed - self.max_weight).abs() < f64::EPSILON {
            self.rescan_max();
        }
        Ok(moved)
    }

    /// Update a weight: `O(1)` unless the old maximum shrinks.
    fn update_weight(&mut self, index: usize, weight: f64) -> Result<()> {
        if index >= self.weights.len() {
            return Err(SamplingError::IndexOutOfBounds {
                index,
                len: self.weights.len(),
            });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(SamplingError::InvalidWeight {
                index,
                value: weight,
            });
        }
        let old = self.weights[index];
        self.weights[index] = weight;
        self.total += weight - old;
        if weight > self.max_weight {
            self.max_weight = weight;
        } else if (old - self.max_weight).abs() < f64::EPSILON {
            self.rescan_max();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg64;
    use crate::stats::empirical_distribution;
    use rand::SeedableRng;

    #[test]
    fn distribution_matches_weights() {
        let s = RejectionSampler::new(&[5.0, 4.0, 3.0]).unwrap();
        let mut rng = Pcg64::seed_from_u64(21);
        let freq = empirical_distribution(|r| r_sample(&s, r), 3, 300_000, &mut rng);
        assert!((freq[0] - 5.0 / 12.0).abs() < 0.01);
        assert!((freq[1] - 4.0 / 12.0).abs() < 0.01);
        assert!((freq[2] - 3.0 / 12.0).abs() < 0.01);
    }

    fn r_sample<R: rand::Rng>(s: &RejectionSampler, rng: &mut R) -> usize {
        s.sample(rng)
    }

    #[test]
    fn insert_updates_envelope() {
        let mut s = RejectionSampler::new(&[1.0, 2.0]).unwrap();
        s.insert(10.0).unwrap();
        assert_eq!(s.max_weight, 10.0);
        assert_eq!(s.total_weight(), 13.0);
    }

    #[test]
    fn removing_max_rescans_envelope() {
        let mut s = RejectionSampler::new(&[1.0, 9.0, 2.0]).unwrap();
        assert_eq!(s.max_weight, 9.0);
        let moved = s.remove(1).unwrap();
        assert_eq!(moved, Some(2));
        assert_eq!(s.max_weight, 2.0);
        assert!((s.total_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn update_weight_maintains_envelope_and_total() {
        let mut s = RejectionSampler::new(&[4.0, 2.0]).unwrap();
        s.update_weight(0, 1.0).unwrap();
        assert_eq!(s.max_weight, 2.0);
        assert!((s.total_weight() - 3.0).abs() < 1e-12);
        s.update_weight(1, 20.0).unwrap();
        assert_eq!(s.max_weight, 20.0);
    }

    #[test]
    fn error_paths() {
        let mut s = RejectionSampler::new(&[1.0]).unwrap();
        assert!(s.remove(9).is_err());
        assert!(s.update_weight(9, 1.0).is_err());
        assert!(s.insert(f64::NAN).is_err());
        assert!(RejectionSampler::new(&[0.0]).is_err());
    }
}
