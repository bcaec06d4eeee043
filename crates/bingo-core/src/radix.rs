//! Radix-based bias decomposition (§4.1).
//!
//! Every integer bias `w` is decomposed into its set bits:
//! `D(w) = { 2^k | w ∧ 2^k ≠ 0 }` (Equation 3). Grouping the sub-biases by
//! bit position gives the per-group bias `W(p_k) = Σ_i (w_i ∧ 2^k)`
//! (Equation 4); because every member of group `k` contributes exactly
//! `2^k`, intra-group sampling is uniform, which is what makes Bingo's
//! two-stage sampling `O(1)`.

/// Maximum number of radix groups (64-bit biases).
pub const MAX_GROUPS: usize = 64;

/// Iterator over the set-bit positions of a bias (the decomposition `D(w)`).
#[derive(Debug, Clone)]
pub struct RadixDecomposition {
    remaining: u64,
}

impl Iterator for RadixDecomposition {
    type Item = u8;

    #[inline]
    fn next(&mut self) -> Option<u8> {
        if self.remaining == 0 {
            return None;
        }
        let bit = self.remaining.trailing_zeros() as u8;
        self.remaining &= self.remaining - 1;
        Some(bit)
    }
}

/// Decompose an integer bias into its set-bit positions (Equation 3).
///
/// `decompose(5)` yields bits `[0, 2]`, i.e. `5 = 2^0 + 2^2`.
#[inline]
pub fn decompose(bias: u64) -> RadixDecomposition {
    RadixDecomposition { remaining: bias }
}

/// Number of groups needed to represent biases up to `max_bias`
/// (`K = log2(max(w)) + 1`).
#[inline]
pub fn groups_for_max_bias(max_bias: u64) -> usize {
    if max_bias == 0 {
        0
    } else {
        64 - max_bias.leading_zeros() as usize
    }
}

/// Whether an integer bias contributes to the radix group of bit `k`
/// (the membership test `w ∧ 2^k ≠ 0`).
#[inline]
pub fn in_group(bias: u64, bit: u8) -> bool {
    bit < 64 && bias & (1u64 << bit) != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_matches_binary_representation() {
        assert_eq!(decompose(0).collect::<Vec<_>>(), Vec::<u8>::new());
        assert_eq!(decompose(1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(decompose(5).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(decompose(4).collect::<Vec<_>>(), vec![2]);
        assert_eq!(decompose(3).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(decompose(u64::MAX).count(), 64);
    }

    #[test]
    fn decomposition_reconstructs_the_bias() {
        for w in [1u64, 5, 12, 255, 1023, 0xDEAD_BEEF] {
            let sum: u64 = decompose(w).map(|b| 1u64 << b).sum();
            assert_eq!(sum, w);
        }
    }

    #[test]
    fn group_count() {
        assert_eq!(groups_for_max_bias(0), 0);
        assert_eq!(groups_for_max_bias(1), 1);
        assert_eq!(groups_for_max_bias(5), 3);
        assert_eq!(groups_for_max_bias(8), 4);
        assert_eq!(groups_for_max_bias(u64::MAX), 64);
    }

    #[test]
    fn membership() {
        assert!(in_group(5, 0));
        assert!(!in_group(5, 1));
        assert!(in_group(5, 2));
        assert!(!in_group(5, 64));
    }
}
