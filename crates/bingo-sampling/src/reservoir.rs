//! Weighted reservoir sampling.
//!
//! FlowWalker — one of the baselines the paper compares against — performs
//! every random-walk step by weighted reservoir sampling directly over the
//! adjacency list, keeping no auxiliary structure at all. Updates are
//! therefore free, but each sample costs a full `O(d)` scan, which is the
//! asymptotic weakness Figure 16 of the paper measures.
//!
//! [`reservoir_sample_indexed`] is the single-pass "running total" scheme:
//! item `i` replaces the current winner with probability
//! `w_i / Σ_{j ≤ i} w_j`. It draws one uniform per item and needs no
//! `powf`, unlike the A-Res keys `u^(1/w)` of Efraimidis and Spirakis,
//! which select with the same distribution.

use rand::Rng;

/// Single-pass weighted selection using running totals: item `i` replaces the
/// current selection with probability `w_i / Σ_{j ≤ i} w_j`. Returns `None`
/// if the iterator is empty or all weights are zero.
///
/// Complexity: one pass, `O(d)` time, `O(1)` space.
pub fn reservoir_sample_indexed<R, I>(weights: I, rng: &mut R) -> Option<usize>
where
    R: Rng + ?Sized,
    I: IntoIterator<Item = f64>,
{
    let mut running = 0.0;
    let mut selected: Option<usize> = None;
    for (i, w) in weights.into_iter().enumerate() {
        if w <= 0.0 || !w.is_finite() {
            continue;
        }
        running += w;
        if selected.is_none() || rng.gen::<f64>() * running < w {
            selected = Some(i);
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg64;
    use crate::stats::{chi_square_uniformity, empirical_distribution};
    use rand::SeedableRng;

    #[test]
    fn empty_input_returns_none() {
        let mut rng = Pcg64::seed_from_u64(1);
        assert_eq!(reservoir_sample_indexed(std::iter::empty(), &mut rng), None);
    }

    #[test]
    fn all_zero_weights_return_none() {
        let mut rng = Pcg64::seed_from_u64(2);
        let w = [0.0, 0.0, 0.0];
        assert_eq!(reservoir_sample_indexed(w.iter().copied(), &mut rng), None);
    }

    #[test]
    fn single_positive_weight_always_selected() {
        let mut rng = Pcg64::seed_from_u64(3);
        let w = [0.0, 7.0, 0.0];
        for _ in 0..100 {
            assert_eq!(
                reservoir_sample_indexed(w.iter().copied(), &mut rng),
                Some(1)
            );
        }
    }

    #[test]
    fn indexed_distribution_matches_weights() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let mut rng = Pcg64::seed_from_u64(5);
        let freq = empirical_distribution(
            |r| reservoir_sample_indexed(w.iter().copied(), r).unwrap(),
            4,
            200_000,
            &mut rng,
        );
        for (i, f) in freq.iter().enumerate() {
            assert!((f - (i + 1) as f64 / 10.0).abs() < 0.01);
        }
    }

    #[test]
    fn uniform_weights_pass_chi_square() {
        let w = [1.0; 16];
        let mut rng = Pcg64::seed_from_u64(6);
        let mut counts = vec![0usize; 16];
        for _ in 0..64_000 {
            counts[reservoir_sample_indexed(w.iter().copied(), &mut rng).unwrap()] += 1;
        }
        // 15 degrees of freedom, 0.999 critical value ≈ 37.7.
        assert!(chi_square_uniformity(&counts) < 37.7);
    }
}
