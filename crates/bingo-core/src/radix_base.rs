//! Bingo with arbitrary radix bases (§9.2, Figure 17).
//!
//! With a radix base `b > 2`, a bias is decomposed into base-`b` digits.
//! Members of group `b^i` no longer share the same sub-bias (their digit may
//! be anything in `1..b`), so a third level is added: within each group,
//! members are partitioned into *sub-groups* by digit value, an
//! inter-subgroup alias table picks the digit, and intra-subgroup sampling is
//! uniform again. Larger bases reduce the number of groups `K` (and thus the
//! update cost and inverted-index memory) at the price of `b − 1` sub-groups
//! per group.
//!
//! The paper describes but does not evaluate this design (building the
//! nested structure on GPUs is hard); here it is implemented as a
//! self-contained per-vertex sampling space so the ablation benchmarks can
//! quantify the trade-off.

use bingo_sampling::{AliasTable, Sampler};
use rand::Rng;

/// Per-vertex sampling space using an arbitrary power-of-two radix base.
#[derive(Debug, Clone)]
pub struct RadixBaseSpace {
    base: u64,
    /// `digits[group][member]`: neighbor indices, partitioned per group into
    /// sub-groups by digit value. `subgroups[group][digit - 1]` is the member
    /// list of that digit.
    subgroups: Vec<Vec<Vec<u32>>>,
    /// Inter-subgroup alias tables, one per non-empty group.
    subgroup_alias: Vec<Option<AliasTable>>,
    /// Inter-group alias table.
    inter: Option<AliasTable>,
    /// The biases, kept so updates can recompute digit memberships.
    biases: Vec<u64>,
}

impl RadixBaseSpace {
    /// Build a space for integer biases with the given radix base
    /// (must be a power of two ≥ 2).
    pub fn build(biases: &[u64], base: u64) -> Self {
        assert!(
            base >= 2 && base.is_power_of_two(),
            "base must be a power of two ≥ 2"
        );
        let mut space = RadixBaseSpace {
            base,
            subgroups: Vec::new(),
            subgroup_alias: Vec::new(),
            inter: None,
            biases: biases.to_vec(),
        };
        space.rebuild();
        space
    }

    /// The radix base.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of groups `K_b = ceil(log_b(max bias + 1))`.
    pub fn num_groups(&self) -> usize {
        self.subgroups.len()
    }

    /// Current number of candidates.
    pub fn len(&self) -> usize {
        self.biases.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.biases.is_empty()
    }

    /// Total weight (sum of biases).
    pub fn total_weight(&self) -> u64 {
        self.biases.iter().sum()
    }

    fn digits_of(&self, mut bias: u64) -> Vec<(usize, u64)> {
        let mut digits = Vec::new();
        let mut group = 0usize;
        while bias > 0 {
            let digit = bias % self.base;
            if digit > 0 {
                digits.push((group, digit));
            }
            bias /= self.base;
            group += 1;
        }
        digits
    }

    /// Rebuild every level from the stored biases. `O(d · K_b)`.
    fn rebuild(&mut self) {
        let max = self.biases.iter().copied().max().unwrap_or(0);
        let mut num_groups = 0usize;
        let mut m = max;
        while m > 0 {
            num_groups += 1;
            m /= self.base;
        }
        self.subgroups = vec![vec![Vec::new(); (self.base - 1) as usize]; num_groups];
        for (idx, &bias) in self.biases.iter().enumerate() {
            for (group, digit) in self.digits_of(bias) {
                self.subgroups[group][(digit - 1) as usize].push(idx as u32);
            }
        }
        self.rebuild_tables();
    }

    fn rebuild_tables(&mut self) {
        self.subgroup_alias = self
            .subgroups
            .iter()
            .map(|subs| {
                let weights: Vec<f64> = subs
                    .iter()
                    .enumerate()
                    .map(|(digit_minus_one, members)| {
                        members.len() as f64 * (digit_minus_one as f64 + 1.0)
                    })
                    .collect();
                if weights.iter().sum::<f64>() > 0.0 {
                    AliasTable::new(&weights).ok()
                } else {
                    None
                }
            })
            .collect();
        let group_weights: Vec<f64> = self
            .subgroups
            .iter()
            .enumerate()
            .map(|(g, subs)| {
                let base_power = (self.base as f64).powi(g as i32);
                subs.iter()
                    .enumerate()
                    .map(|(d, members)| members.len() as f64 * (d as f64 + 1.0) * base_power)
                    .sum::<f64>()
            })
            .collect();
        self.inter = if group_weights.iter().sum::<f64>() > 0.0 {
            AliasTable::new(&group_weights).ok()
        } else {
            None
        };
    }

    /// Insert a new candidate, returning its index. `O(K_b)` plus the alias
    /// rebuilds over `K_b` and `b − 1` entries.
    pub fn insert(&mut self, bias: u64) -> usize {
        let idx = self.biases.len();
        self.biases.push(bias);
        let digits = self.digits_of(bias);
        let need_groups = digits.iter().map(|&(g, _)| g + 1).max().unwrap_or(0);
        while self.subgroups.len() < need_groups {
            self.subgroups
                .push(vec![Vec::new(); (self.base - 1) as usize]);
        }
        for (group, digit) in digits {
            self.subgroups[group][(digit - 1) as usize].push(idx as u32);
        }
        self.rebuild_tables();
        idx
    }

    /// Remove the candidate at `index` (swap-remove semantics: the last
    /// candidate takes its index). `O(K_b)` amortized.
    pub fn remove(&mut self, index: usize) -> Option<u64> {
        if index >= self.biases.len() {
            return None;
        }
        let removed_bias = self.biases[index];
        let last = self.biases.len() - 1;
        // Remove the target from its sub-groups.
        for (group, digit) in self.digits_of(removed_bias) {
            let members = &mut self.subgroups[group][(digit - 1) as usize];
            if let Some(pos) = members.iter().position(|&m| m == index as u32) {
                members.swap_remove(pos);
            }
        }
        // Remap the moved candidate (previously `last`) to `index`.
        if index != last {
            let moved_bias = self.biases[last];
            for (group, digit) in self.digits_of(moved_bias) {
                let members = &mut self.subgroups[group][(digit - 1) as usize];
                if let Some(pos) = members.iter().position(|&m| m == last as u32) {
                    members[pos] = index as u32;
                }
            }
        }
        self.biases.swap_remove(index);
        self.rebuild_tables();
        Some(removed_bias)
    }

    /// Sample a candidate index proportionally to its bias.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        let inter = self.inter.as_ref()?;
        for _ in 0..64 {
            let group = inter.sample(rng);
            let alias = match self.subgroup_alias.get(group).and_then(|a| a.as_ref()) {
                Some(a) => a,
                None => continue,
            };
            let digit_slot = alias.sample(rng);
            let members = &self.subgroups[group][digit_slot];
            if members.is_empty() {
                continue;
            }
            return Some(members[rng.gen_range(0..members.len())] as usize);
        }
        None
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        let members: usize = self
            .subgroups
            .iter()
            .flat_map(|subs| subs.iter())
            .map(|m| m.capacity() * std::mem::size_of::<u32>())
            .sum();
        let tables: usize = self
            .subgroup_alias
            .iter()
            .flatten()
            .map(AliasTable::memory_bytes)
            .sum::<usize>()
            + self
                .inter
                .as_ref()
                .map(AliasTable::memory_bytes)
                .unwrap_or(0);
        members + tables + self.biases.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sampling::rng::Pcg64;
    use bingo_sampling::stats::{empirical_distribution, max_abs_deviation, normalize};
    use rand::SeedableRng;

    #[test]
    fn figure_17_example_base_4() {
        // Figure 17: biases 2, 3, 10, 11.5 → the paper uses 2, 3, 10, 11 for
        // the base-4 illustration (integer part).
        let space = RadixBaseSpace::build(&[2, 3, 10, 11], 4);
        assert_eq!(space.base(), 4);
        // max = 11 → digits in base 4: 11 = 2*4 + 3 → 2 groups.
        assert_eq!(space.num_groups(), 2);
        assert_eq!(space.total_weight(), 26);
    }

    #[test]
    fn sampling_distribution_matches_biases_for_various_bases() {
        let biases = [5u64, 4, 3, 17, 100, 63, 1];
        let expected = normalize(&biases.iter().map(|&b| b as f64).collect::<Vec<_>>());
        for base in [2u64, 4, 8, 16] {
            let space = RadixBaseSpace::build(&biases, base);
            let mut rng = Pcg64::seed_from_u64(base);
            let freq = empirical_distribution(
                |r| space.sample(r).unwrap(),
                biases.len(),
                300_000,
                &mut rng,
            );
            assert!(
                max_abs_deviation(&freq, &expected) < 0.01,
                "base {base}: {freq:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn larger_bases_use_fewer_groups() {
        let biases: Vec<u64> = (1..=1000).collect();
        let base2 = RadixBaseSpace::build(&biases, 2);
        let base16 = RadixBaseSpace::build(&biases, 16);
        assert!(base16.num_groups() < base2.num_groups());
    }

    #[test]
    fn insert_and_remove_keep_distribution_correct() {
        let mut space = RadixBaseSpace::build(&[5, 4, 3], 4);
        space.insert(8);
        assert_eq!(space.len(), 4);
        assert_eq!(space.total_weight(), 20);
        // Remove index 0 (bias 5); index 3 (bias 8) moves into slot 0.
        assert_eq!(space.remove(0), Some(5));
        assert_eq!(space.len(), 3);
        assert_eq!(space.total_weight(), 15);

        let mut rng = Pcg64::seed_from_u64(9);
        let freq = empirical_distribution(|r| space.sample(r).unwrap(), 3, 200_000, &mut rng);
        // Slot 0 now holds bias 8, slot 1 bias 4, slot 2 bias 3.
        assert!(max_abs_deviation(&freq, &[8.0 / 15.0, 4.0 / 15.0, 3.0 / 15.0]) < 0.01);
    }

    #[test]
    fn remove_out_of_range_returns_none() {
        let mut space = RadixBaseSpace::build(&[1, 2], 4);
        assert_eq!(space.remove(5), None);
        assert_eq!(space.len(), 2);
    }

    #[test]
    fn empty_space_samples_nothing() {
        let space = RadixBaseSpace::build(&[], 4);
        let mut rng = Pcg64::seed_from_u64(3);
        assert!(space.is_empty());
        assert_eq!(space.sample(&mut rng), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_base_is_rejected() {
        let _ = RadixBaseSpace::build(&[1, 2, 3], 3);
    }

    #[test]
    fn memory_shrinks_with_larger_base_for_wide_biases() {
        let biases: Vec<u64> = (1..=2000).map(|i| i * 31).collect();
        let base2 = RadixBaseSpace::build(&biases, 2);
        let base16 = RadixBaseSpace::build(&biases, 16);
        // Fewer groups → fewer member copies (popcount vs digit count).
        assert!(base16.memory_bytes() < base2.memory_bytes());
    }
}
