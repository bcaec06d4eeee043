//! Per-vertex hierarchical sampling space (§4).
//!
//! A [`VertexSpace`] owns one vertex's adjacency list together with the
//! radix groups built over it, the decimal group for fractional bias
//! remainders, and the inter-group alias table. It supports:
//!
//! * `O(1)` sampling: alias-table selection of a group followed by uniform
//!   (or bounded-rejection, for dense groups) intra-group selection.
//! * `O(K)` streaming insertion and deletion (K = number of radix groups).
//! * Batched application of many updates with a single rebuild at the end,
//!   using the two-phase delete-and-swap compaction for the deletions.
//!
//! The space is 128 bytes inline and owns at most three heap blocks for an
//! all-integer vertex (an isolated vertex owns none):
//!
//! ```text
//! VertexSpace (128 B)
//!  ├─ group headers   32 B × K     kind, count, segment offsets, alias bucket
//!  ├─ group arena     2 B × words  member lists and inverted indices
//!  │                               (4 B from degree 2^16 − 1 on)
//!  ├─ adjacency       12 B × d     destination and bias per edge
//!  └─ decimal group   boxed, only while some bias has a fraction
//! ```
//!
//! It keeps no statistics beyond its two rebuild counters: every mutation
//! returns a [`VertexUpdateOutcome`] with the conversions and rebuilds it
//! caused, for the caller (normally the engine) to accumulate.

use crate::config::{BingoConfig, Lambda};
use crate::fixed::{choose_lambda, ScaledBias};
use crate::group::{DecimalGroup, GroupKind, GroupTable, GroupView};
use crate::memory::MemoryReport;
use crate::radix;
use crate::stats::ConversionMatrix;
use crate::{BingoError, Result};
use bingo_graph::adjacency::{AdjacencyList, Edge};
use bingo_graph::{Bias, VertexId};
use rand::Rng;

/// What one update — a streaming operation or a per-vertex batch — did to
/// a vertex's sampling space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VertexUpdateOutcome {
    /// Edges inserted.
    pub inserted: usize,
    /// Edges deleted.
    pub deleted: usize,
    /// Deletions that referenced edges not present in the graph.
    pub missing_deletes: usize,
    /// Rebuilds of the whole space from scratch (λ changes).
    pub full_rebuilds: u32,
    /// Rebuilds of the inter-group alias table.
    pub inter_rebuilds: u32,
    /// Representation checks and conversions performed (Table 4).
    pub conversions: ConversionMatrix,
}

impl VertexUpdateOutcome {
    /// Add another outcome's counts to this one.
    pub fn merge(&mut self, other: &VertexUpdateOutcome) {
        self.inserted += other.inserted;
        self.deleted += other.deleted;
        self.missing_deletes += other.missing_deletes;
        self.full_rebuilds += other.full_rebuilds;
        self.inter_rebuilds += other.inter_rebuilds;
        self.conversions.merge(&other.conversions);
    }
}

/// The decimal group of a vertex none of whose biases has a fraction.
static NO_DECIMAL: DecimalGroup = DecimalGroup::new();

/// The sampling space of a single vertex.
///
/// The representation thresholds are copied out of the [`BingoConfig`] the
/// space was built with, so a standalone space needs nothing else to mutate
/// itself; a fixed λ is simply the space's λ.
#[derive(Debug, Clone)]
pub struct VertexSpace {
    adj: AdjacencyList,
    groups: GroupTable,
    /// Present only while some scaled bias has a fractional remainder.
    decimal: Option<Box<DecimalGroup>>,
    lambda: f64,
    alpha_percent: f64,
    beta_percent: f64,
    full_rebuilds: u32,
    adaptive: bool,
    reclassify_on_streaming: bool,
    /// `Lambda::Auto`: λ follows the biases instead of staying fixed.
    lambda_auto: bool,
}

impl VertexSpace {
    /// Build the sampling space for an adjacency list.
    pub fn build(adj: AdjacencyList, config: BingoConfig) -> Self {
        let mut space = VertexSpace {
            adj,
            groups: GroupTable::new(),
            decimal: None,
            lambda: match config.lambda {
                Lambda::Fixed(l) => l.max(1.0),
                Lambda::Auto => 1.0,
            },
            alpha_percent: config.alpha_percent,
            beta_percent: config.beta_percent,
            full_rebuilds: 0,
            adaptive: config.adaptive,
            reclassify_on_streaming: config.reclassify_on_streaming,
            lambda_auto: config.lambda == Lambda::Auto,
        };
        space.rebuild_from_scratch();
        space
    }

    /// The vertex degree.
    pub fn degree(&self) -> usize {
        self.adj.degree()
    }

    /// The adjacency list backing this space.
    pub fn adjacency(&self) -> &AdjacencyList {
        &self.adj
    }

    /// The λ amortization factor currently in use.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The number of radix groups (K).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The radix groups in bit order (for inspection in tests and
    /// experiments).
    pub fn groups(&self) -> impl ExactSizeIterator<Item = GroupView<'_>> {
        self.groups.views()
    }

    /// The radix group of bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= num_groups()`.
    pub fn group(&self, bit: usize) -> GroupView<'_> {
        self.groups.view(bit)
    }

    /// The decimal group.
    pub fn decimal_group(&self) -> &DecimalGroup {
        self.decimal.as_deref().unwrap_or(&NO_DECIMAL)
    }

    /// Number of inter-group alias rebuilds performed.
    pub fn inter_rebuilds(&self) -> u64 {
        u64::from(self.groups.inter_rebuilds())
    }

    /// Number of full space rebuilds performed.
    pub fn full_rebuilds(&self) -> u64 {
        u64::from(self.full_rebuilds)
    }

    /// An empty outcome, and the rebuild counters to diff against once the
    /// update is done.
    fn begin(&self) -> (VertexUpdateOutcome, [u32; 2]) {
        (
            VertexUpdateOutcome::default(),
            [self.groups.inter_rebuilds(), self.full_rebuilds],
        )
    }

    fn finish(&self, mut outcome: VertexUpdateOutcome, before: [u32; 2]) -> VertexUpdateOutcome {
        outcome.inter_rebuilds = self.groups.inter_rebuilds().wrapping_sub(before[0]);
        outcome.full_rebuilds = self.full_rebuilds.wrapping_sub(before[1]);
        outcome
    }

    /// λ for the current biases, and whether the decimal group can be
    /// non-empty under it.
    fn resolve_lambda(&self) -> (f64, bool) {
        let has_float = self.adj.edges().iter().any(|e| !e.bias.is_integral());
        let lambda = if !self.lambda_auto {
            self.lambda
        } else if has_float {
            let biases: Vec<f64> = self.adj.edges().iter().map(|e| e.bias.value()).collect();
            choose_lambda(&biases, 2.0)
        } else {
            1.0
        };
        (lambda, has_float || (lambda - 1.0).abs() >= f64::EPSILON)
    }

    fn scaled(&self, edge: &Edge) -> ScaledBias {
        ScaledBias::new(edge.bias, self.lambda)
    }

    /// Rebuild groups, decimal group, λ and the inter-group alias table from
    /// the adjacency list. `O(d · K)`.
    fn rebuild_from_scratch(&mut self) {
        self.full_rebuilds = self.full_rebuilds.wrapping_add(1);
        let (lambda, may_have_fractions) = self.resolve_lambda();
        self.lambda = lambda;
        let edges = self.adj.edges();
        let (adaptive, alpha, beta) = (self.adaptive, self.alpha_percent, self.beta_percent);
        self.groups.rebuild(
            edges.len(),
            |idx| ScaledBias::new(edges[idx].bias, lambda).integer,
            |cardinality| classify(adaptive, alpha, beta, cardinality, edges.len()),
        );
        self.decimal = None;
        if may_have_fractions {
            for (idx, edge) in edges.iter().enumerate() {
                let s = ScaledBias::new(edge.bias, lambda);
                if s.has_fraction() {
                    self.decimal
                        .get_or_insert_with(Box::default)
                        .insert(idx as u32, s.fraction);
                }
            }
        }
        self.rebuild_inter();
    }

    fn decimal_weight(&self) -> f64 {
        self.decimal.as_ref().map_or(0.0, |d| d.weight())
    }

    /// Rebuild only the inter-group alias table. `O(K)`.
    fn rebuild_inter(&mut self) {
        self.groups.rebuild_inter(self.decimal_weight());
    }

    /// Reclassify every group's representation against the current degree,
    /// converting representations and recording the conversions (Table 4),
    /// then let the group arena reclaim the holes relocations left behind.
    fn reclassify(&mut self, conversions: &mut ConversionMatrix) {
        let degree = self.adj.degree();
        let lambda = self.lambda;
        let (adaptive, alpha, beta) = (self.adaptive, self.alpha_percent, self.beta_percent);
        for bit in 0..self.groups.len() {
            conversions.record_check();
            let current = self.groups.kind(bit);
            let cardinality = self.groups.cardinality(bit);
            let desired = classify(adaptive, alpha, beta, cardinality, degree);
            if current == desired {
                continue;
            }
            // Converting out of a dense group scans the adjacency list to
            // recover the member list.
            let edges = self.adj.edges();
            self.groups.convert(bit, desired, degree, |i| {
                radix::in_group(ScaledBias::new(edges[i].bias, lambda).integer, bit as u8)
            });
            conversions.record(current, desired);
        }
        self.groups.reclaim(degree);
    }

    /// Insert the new edge into the radix groups without touching the
    /// inter-group alias table. Returns `true` when the insertion requires a
    /// full rebuild instead: a floating-point bias arrived while λ = 1, or
    /// the degree outgrew the group table's word width.
    fn insert_into_groups(&mut self, idx: u32, bias: Bias) -> bool {
        if !bias.is_integral() && (self.lambda - 1.0).abs() < f64::EPSILON && self.lambda_auto {
            return true;
        }
        if !self.groups.fits(self.adj.degree()) {
            return true;
        }
        let s = ScaledBias::new(bias, self.lambda);
        self.groups.ensure(radix::groups_for_max_bias(s.integer));
        for bit in radix::decompose(s.integer) {
            self.groups.insert(bit as usize, idx);
        }
        if s.has_fraction() {
            self.decimal
                .get_or_insert_with(Box::default)
                .insert(idx, s.fraction);
        }
        false
    }

    /// Streaming insertion of an edge (§4.2): append to the adjacency list,
    /// update the affected groups, rebuild the inter-group alias table.
    /// `O(K)`.
    pub fn insert(&mut self, dst: VertexId, bias: Bias) -> Result<VertexUpdateOutcome> {
        if !bias.is_valid() {
            return Err(BingoError::InvalidBias { dst });
        }
        let (mut outcome, before) = self.begin();
        outcome.inserted = 1;
        let idx = self.adj.push(Edge::new(dst, bias)) as u32;
        if self.insert_into_groups(idx, bias) {
            self.rebuild_from_scratch();
            return Ok(self.finish(outcome, before));
        }
        if self.reclassify_on_streaming {
            self.reclassify(&mut outcome.conversions);
        }
        self.rebuild_inter();
        Ok(self.finish(outcome, before))
    }

    /// Remove the edge at neighbor index `idx` from all group structures
    /// (but not yet from the adjacency list).
    fn remove_from_groups(&mut self, idx: u32) {
        let edge = match self.adj.edge(idx as usize) {
            Some(e) => *e,
            None => return,
        };
        let s = self.scaled(&edge);
        for bit in radix::decompose(s.integer) {
            if (bit as usize) < self.groups.len() {
                self.groups.remove(bit as usize, idx);
            }
        }
        if s.has_fraction() {
            if let Some(decimal) = self.decimal.as_mut() {
                decimal.remove(idx);
                if decimal.is_empty() {
                    self.decimal = None;
                }
            }
        }
    }

    /// Propagate an adjacency-list move (`old_idx → new_idx`) to all group
    /// structures. Must be called *after* the adjacency list was compacted.
    fn remap_groups(&mut self, old_idx: u32, new_idx: u32) {
        let edge = match self.adj.edge(new_idx as usize) {
            Some(e) => *e,
            None => return,
        };
        let s = self.scaled(&edge);
        for bit in radix::decompose(s.integer) {
            if (bit as usize) < self.groups.len() {
                self.groups.remap(bit as usize, old_idx, new_idx);
            }
        }
        if s.has_fraction() {
            if let Some(decimal) = self.decimal.as_mut() {
                decimal.remap(old_idx, new_idx);
            }
        }
    }

    /// Streaming deletion of the edge at neighbor index `idx` (§4.2):
    /// locate the edge in its groups via the inverted indices, swap it with
    /// each group's tail, swap-delete it from the adjacency list, and remap
    /// the adjacency entry that moved into the hole. `O(K)`. Returns the
    /// removed edge.
    pub fn delete_at(&mut self, idx: usize) -> Result<(Edge, VertexUpdateOutcome)> {
        if idx >= self.adj.degree() {
            return Err(BingoError::NeighborIndexOutOfRange {
                index: idx,
                degree: self.adj.degree(),
            });
        }
        let (mut outcome, before) = self.begin();
        outcome.deleted = 1;
        self.remove_from_groups(idx as u32);
        let out = self
            .adj
            .swap_delete(idx)
            .expect("index checked against degree");
        if let Some(old_last) = out.moved_from {
            self.remap_groups(old_last as u32, idx as u32);
        }
        if self.reclassify_on_streaming {
            self.reclassify(&mut outcome.conversions);
        }
        self.rebuild_inter();
        Ok((out.removed, self.finish(outcome, before)))
    }

    /// Streaming deletion of the first edge pointing at `dst`. Returns the
    /// removed edge.
    pub fn delete(&mut self, dst: VertexId) -> Result<(Edge, VertexUpdateOutcome)> {
        let idx = self.adj.find(dst).ok_or(BingoError::EdgeNotFound { dst })?;
        self.delete_at(idx)
    }

    /// Update the bias of the first edge pointing at `dst`.
    ///
    /// Implemented as delete + insert of the same destination, which is how
    /// the paper describes bias updates (§4.2).
    pub fn update_bias(&mut self, dst: VertexId, bias: Bias) -> Result<VertexUpdateOutcome> {
        if !bias.is_valid() {
            return Err(BingoError::InvalidBias { dst });
        }
        let (_, mut outcome) = self.delete(dst)?;
        outcome.merge(&self.insert(dst, bias)?);
        Ok(outcome)
    }

    /// Apply a per-vertex batch of updates: all insertions first, then all
    /// deletions through the two-phase delete-and-swap compaction, then a
    /// single reclassify + inter-group rebuild (§5.2, Figure 10(a)).
    pub fn apply_batch(
        &mut self,
        inserts: &[(VertexId, Bias)],
        deletes: &[VertexId],
    ) -> VertexUpdateOutcome {
        let (mut outcome, before) = self.begin();

        // Phase 1: insertions (append + group updates, no rebuild yet).
        // Once an insertion calls for a full rebuild the groups are stale
        // until phase 3 rebuilds them, so the rest of the batch only edits
        // the adjacency list.
        let mut needs_full_rebuild = false;
        for &(dst, bias) in inserts {
            if !bias.is_valid() {
                continue;
            }
            let idx = self.adj.push(Edge::new(dst, bias)) as u32;
            needs_full_rebuild = needs_full_rebuild || self.insert_into_groups(idx, bias);
            outcome.inserted += 1;
        }

        // Phase 2: deletions. Resolve destinations to distinct neighbor
        // indices (duplicate edges are deleted oldest-first, as the paper
        // specifies for re-inserted edges).
        let mut to_delete: Vec<usize> = Vec::with_capacity(deletes.len());
        let mut taken = vec![false; self.adj.degree()];
        for &dst in deletes {
            let found = self
                .adj
                .iter()
                .find(|(i, e)| e.dst == dst && !taken[*i])
                .map(|(i, _)| i);
            match found {
                Some(i) => {
                    taken[i] = true;
                    to_delete.push(i);
                }
                None => outcome.missing_deletes += 1,
            }
        }
        if !to_delete.is_empty() {
            // Remove from group structures while neighbor indices are still
            // valid, then compact the adjacency list in one two-phase pass
            // and patch the moved indices.
            if !needs_full_rebuild {
                for &idx in &to_delete {
                    self.remove_from_groups(idx as u32);
                }
            }
            let (_removed, moves) = self.adj.delete_many(&to_delete);
            if !needs_full_rebuild {
                for (from, to) in moves {
                    self.remap_groups(from as u32, to as u32);
                }
            }
            outcome.deleted = to_delete.len();
        }

        // Phase 3: one rebuild for the whole batch.
        if needs_full_rebuild {
            self.rebuild_from_scratch();
        } else {
            self.reclassify(&mut outcome.conversions);
            self.rebuild_inter();
        }
        self.finish(outcome, before)
    }

    /// Total (λ-scaled) sampling weight of the vertex.
    pub fn total_weight(&self) -> f64 {
        self.groups.total_weight() + self.decimal_weight()
    }

    /// Sample a neighbor index in `O(1)` expected time (Theorem 4.1
    /// guarantees the distribution equals the bias-proportional one).
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        if !self.groups.has_inter() {
            return None;
        }
        // Bounded retry: a sampled group can only be empty due to floating
        // point drift in the alias table; retry a few times before giving up.
        for _ in 0..64 {
            let g = self.groups.sample_group(rng);
            if g == self.groups.len() {
                if let Some(idx) = self.decimal.as_ref().and_then(|d| d.sample(rng)) {
                    return Some(idx as usize);
                }
                continue;
            }
            match self.groups.kind(g) {
                GroupKind::Empty => continue,
                GroupKind::Dense => {
                    // Bounded rejection sampling over the raw adjacency list:
                    // the acceptance rate is > α% by construction (§5.1).
                    let degree = self.adj.degree();
                    if degree == 0 {
                        continue;
                    }
                    loop {
                        let i = rng.gen_range(0..degree);
                        let edge = self.adj.edge(i).expect("index within degree");
                        if radix::in_group(self.scaled(edge).integer, g as u8) {
                            return Some(i);
                        }
                    }
                }
                _ => {
                    if let Some(idx) = self.groups.sample_member(g, rng) {
                        return Some(idx as usize);
                    }
                }
            }
        }
        None
    }

    /// Sample a neighbor vertex id.
    pub fn sample_neighbor<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<VertexId> {
        self.sample_index(rng)
            .and_then(|i| self.adj.edge(i))
            .map(|e| e.dst)
    }

    /// Memory accounting for this vertex (Figure 11 breakdown). The
    /// per-representation fields count what each structure needs, as they
    /// always have; `structure_bytes` is everything else the space occupies
    /// (the inline struct, the rest of the group headers, arena holes and
    /// slack), so `resident_bytes()` is what the allocator handed out.
    pub fn memory_report(&self) -> MemoryReport {
        let mut report = MemoryReport {
            adjacency_bytes: self.adj.memory_bytes(),
            inter_group_bytes: self.groups.inter_bytes(),
            decimal_bytes: self.decimal_group().memory_bytes(),
            ..MemoryReport::default()
        };
        for g in self.groups.views() {
            report.add_group(g.kind(), g.memory_bytes());
        }
        let boxed_decimal = self
            .decimal
            .as_ref()
            .map_or(0, |d| std::mem::size_of_val(&**d));
        let resident = std::mem::size_of::<Self>()
            + self.adj.memory_bytes()
            + self.groups.heap_bytes()
            + boxed_decimal
            + report.decimal_bytes;
        report.structure_bytes = resident - report.total_bytes();
        report
    }

    /// Exact per-neighbor transition probabilities implied by the current
    /// structures. Used by tests to verify Theorem 4.1.
    pub fn exact_probabilities(&self) -> Vec<f64> {
        let total: f64 = self.adj.edges().iter().map(|e| e.bias.value()).sum();
        if total <= 0.0 {
            return vec![0.0; self.adj.degree()];
        }
        self.adj
            .edges()
            .iter()
            .map(|e| e.bias.value() / total)
            .collect()
    }

    /// Check every structural invariant of the sampling space. Used by the
    /// property-based tests; returns a description of the first violation.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let degree = self.adj.degree();
        // 0. The group arena is laid out consistently.
        self.groups.check_layout(degree)?;
        // 1. Group cardinalities and memberships match the adjacency biases.
        for g in self.groups.views() {
            let bit = g.bit();
            let expected: Vec<u32> = self
                .adj
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| radix::in_group(self.scaled(e).integer, bit))
                .map(|(i, _)| i as u32)
                .collect();
            if g.cardinality() != expected.len() {
                return Err(format!(
                    "group 2^{bit}: cardinality {} != expected {}",
                    g.cardinality(),
                    expected.len()
                ));
            }
            if let Some(members) = g.members() {
                let mut members: Vec<u32> = members.collect();
                members.sort_unstable();
                if members != expected {
                    return Err(format!(
                        "group 2^{bit}: members {members:?} != {expected:?}"
                    ));
                }
            }
        }
        // 2. Decimal group total matches the fractional remainders.
        let expected_fraction: f64 = self
            .adj
            .edges()
            .iter()
            .map(|e| self.scaled(e).fraction)
            .sum();
        if (self.decimal_weight() - expected_fraction).abs() > 1e-6 {
            return Err(format!(
                "decimal weight {} != expected {expected_fraction}",
                self.decimal_weight()
            ));
        }
        // 3. The inter-group table exists exactly when there is weight.
        let has_weight = self.total_weight() > 0.0;
        if has_weight != self.groups.has_inter() {
            return Err("inter-group alias table presence mismatch".to_string());
        }
        // 4. Total scaled weight equals λ × total bias.
        let total_bias: f64 = self.adj.edges().iter().map(|e| e.bias.value()).sum();
        if (self.total_weight() - total_bias * self.lambda).abs() > 1e-6 * (1.0 + total_bias) {
            return Err(format!(
                "total weight {} != lambda × bias total {}",
                self.total_weight(),
                total_bias * self.lambda
            ));
        }
        Ok(())
    }
}

/// The representation a group of `cardinality` edges gets on a vertex of
/// `degree` edges. With adaptation off (the "BS" baseline) every non-empty
/// group is regular.
fn classify(
    adaptive: bool,
    alpha_percent: f64,
    beta_percent: f64,
    cardinality: usize,
    degree: usize,
) -> GroupKind {
    if !adaptive {
        return if cardinality == 0 {
            GroupKind::Empty
        } else {
            GroupKind::Regular
        };
    }
    GroupKind::classify(cardinality, degree, alpha_percent, beta_percent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_graph::dynamic_graph::running_example;
    use bingo_sampling::rng::Pcg64;
    use bingo_sampling::stats::{empirical_distribution, max_abs_deviation};
    use rand::SeedableRng;

    fn vertex2_space(config: BingoConfig) -> VertexSpace {
        let g = running_example();
        VertexSpace::build(g.neighbors(2).unwrap().clone(), config)
    }

    #[test]
    fn running_example_groups_match_paper() {
        // Vertex 2, biases 5, 4, 3: group 2^0 = {edges 0, 2}, 2^1 = {2},
        // 2^2 = {0, 1}; group biases 2, 2, 8.
        let space = vertex2_space(BingoConfig::baseline());
        assert_eq!(space.num_groups(), 3);
        assert_eq!(space.group(0).cardinality(), 2);
        assert_eq!(space.group(1).cardinality(), 1);
        assert_eq!(space.group(2).cardinality(), 2);
        assert_eq!(space.group(0).weight(), 2.0);
        assert_eq!(space.group(1).weight(), 2.0);
        assert_eq!(space.group(2).weight(), 8.0);
        assert_eq!(space.total_weight(), 12.0);
        assert_eq!(space.lambda(), 1.0);
        space.check_invariants().unwrap();
    }

    #[test]
    fn theorem_4_1_sampling_distribution_is_preserved() {
        for config in [BingoConfig::default(), BingoConfig::baseline()] {
            let space = vertex2_space(config);
            let mut rng = Pcg64::seed_from_u64(42);
            let freq =
                empirical_distribution(|r| space.sample_index(r).unwrap(), 3, 300_000, &mut rng);
            let expected = space.exact_probabilities();
            assert!(
                max_abs_deviation(&freq, &expected) < 0.01,
                "distribution deviates: {freq:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn sample_neighbor_returns_destinations() {
        let space = vertex2_space(BingoConfig::default());
        let mut rng = Pcg64::seed_from_u64(7);
        for _ in 0..100 {
            let dst = space.sample_neighbor(&mut rng).unwrap();
            assert!([1, 4, 5].contains(&dst));
        }
    }

    #[test]
    fn empty_vertex_samples_nothing() {
        let space = VertexSpace::build(AdjacencyList::new(), BingoConfig::default());
        let mut rng = Pcg64::seed_from_u64(1);
        assert_eq!(space.sample_index(&mut rng), None);
        assert_eq!(space.total_weight(), 0.0);
        space.check_invariants().unwrap();
    }

    #[test]
    fn streaming_insert_matches_paper_figure_5() {
        // Insert edge (2, 3, 3): bias 3 = 2^0 + 2^1, so groups 2^0 and 2^1
        // each gain the new neighbor index 3.
        let mut space = vertex2_space(BingoConfig::baseline());
        space.insert(3, Bias::from_int(3)).unwrap();
        assert_eq!(space.degree(), 4);
        assert_eq!(space.group(0).cardinality(), 3);
        assert_eq!(space.group(1).cardinality(), 2);
        assert_eq!(space.group(2).cardinality(), 2);
        assert_eq!(space.total_weight(), 15.0);
        space.check_invariants().unwrap();

        // Distribution still matches the biases.
        let mut rng = Pcg64::seed_from_u64(3);
        let freq = empirical_distribution(|r| space.sample_index(r).unwrap(), 4, 200_000, &mut rng);
        assert!(max_abs_deviation(&freq, &space.exact_probabilities()) < 0.01);
    }

    #[test]
    fn streaming_delete_matches_paper_figure_6() {
        // Delete edge (2, 1, 5): groups 2^0 and 2^2 lose neighbor index 0.
        let mut space = vertex2_space(BingoConfig::baseline());
        let (removed, outcome) = space.delete(1).unwrap();
        assert_eq!(outcome.deleted, 1);
        assert_eq!(outcome.inter_rebuilds, 1);
        assert_eq!(removed.dst, 1);
        assert_eq!(removed.bias.value(), 5.0);
        assert_eq!(space.degree(), 2);
        assert_eq!(space.group(0).cardinality(), 1);
        assert_eq!(space.group(1).cardinality(), 1);
        assert_eq!(space.group(2).cardinality(), 1);
        assert_eq!(space.total_weight(), 7.0);
        space.check_invariants().unwrap();
        // Deleting a missing edge fails cleanly.
        assert!(space.delete(1).is_err());
    }

    #[test]
    fn insert_then_delete_round_trips() {
        let mut space = vertex2_space(BingoConfig::default());
        let before = space.total_weight();
        space.insert(3, Bias::from_int(6)).unwrap();
        space.delete(3).unwrap();
        assert_eq!(space.total_weight(), before);
        assert_eq!(space.degree(), 3);
        space.check_invariants().unwrap();
    }

    #[test]
    fn invalid_operations_are_rejected() {
        let mut space = vertex2_space(BingoConfig::default());
        assert!(space.delete(99).is_err());
        assert!(space.delete_at(17).is_err());
        for invalid in [
            Bias::from_int(0),
            Bias::from_float(0.0),
            Bias::from_float(-0.0),
            Bias::from_float(-1.0),
            Bias::from_float(f64::NAN),
            Bias::from_float(f64::INFINITY),
            Bias::from_float(f64::NEG_INFINITY),
        ] {
            assert_eq!(
                space.insert(9, invalid),
                Err(BingoError::InvalidBias { dst: 9 })
            );
            assert_eq!(
                space.update_bias(1, invalid),
                Err(BingoError::InvalidBias { dst: 1 })
            );
            assert_eq!(space.apply_batch(&[(9, invalid)], &[]).inserted, 0);
        }
        assert_eq!(space.degree(), 3);
        space.check_invariants().unwrap();
    }

    #[test]
    fn update_bias_changes_distribution() {
        let mut space = vertex2_space(BingoConfig::default());
        space.update_bias(4, Bias::from_int(100)).unwrap();
        space.check_invariants().unwrap();
        let mut rng = Pcg64::seed_from_u64(11);
        let mut hits = 0;
        for _ in 0..10_000 {
            if space.sample_neighbor(&mut rng) == Some(4) {
                hits += 1;
            }
        }
        // Neighbor 4 now carries 100 / 108 of the weight.
        assert!(hits as f64 / 10_000.0 > 0.85);
    }

    #[test]
    fn floating_point_biases_follow_paper_example() {
        // §4.3 example with λ fixed at 10.
        let mut adj = AdjacencyList::new();
        adj.push(Edge::new(1, Bias::from_float(0.554)));
        adj.push(Edge::new(4, Bias::from_float(0.726)));
        adj.push(Edge::new(5, Bias::from_float(0.32)));
        let config = BingoConfig {
            lambda: Lambda::Fixed(10.0),
            ..BingoConfig::default()
        };
        let space = VertexSpace::build(adj, config);
        assert_eq!(space.lambda(), 10.0);
        // Integer parts 5, 7, 3 → groups 2^0 {5,7,3}, 2^1 {7,3}, 2^2 {5,7}.
        assert_eq!(space.num_groups(), 3);
        assert_eq!(space.group(0).cardinality(), 3);
        assert_eq!(space.group(1).cardinality(), 2);
        assert_eq!(space.group(2).cardinality(), 2);
        assert_eq!(space.decimal_group().cardinality(), 3);
        assert!((space.decimal_group().weight() - 1.0).abs() < 1e-9);
        space.check_invariants().unwrap();

        // Theorem 4.1 still holds with the decimal group in play.
        let mut rng = Pcg64::seed_from_u64(5);
        let freq = empirical_distribution(|r| space.sample_index(r).unwrap(), 3, 300_000, &mut rng);
        assert!(max_abs_deviation(&freq, &space.exact_probabilities()) < 0.01);
    }

    #[test]
    fn auto_lambda_keeps_decimal_group_small() {
        let mut adj = AdjacencyList::new();
        for i in 0..20u32 {
            adj.push(Edge::new(i, Bias::from_float(0.05 + 0.01 * i as f64)));
        }
        let space = VertexSpace::build(adj, BingoConfig::default());
        assert!(space.lambda() > 1.0);
        let share = space.decimal_group().weight() / space.total_weight();
        assert!(share < 1.0 / 20.0, "decimal share {share} too large");
        space.check_invariants().unwrap();
    }

    #[test]
    fn float_insert_into_integer_space_triggers_full_rebuild() {
        let mut space = vertex2_space(BingoConfig::default());
        assert_eq!(space.lambda(), 1.0);
        let rebuilds_before = space.full_rebuilds();
        space.insert(3, Bias::from_float(0.5)).unwrap();
        assert!(space.full_rebuilds() > rebuilds_before);
        assert!(space.lambda() > 1.0);
        space.check_invariants().unwrap();
        let mut rng = Pcg64::seed_from_u64(9);
        let freq = empirical_distribution(|r| space.sample_index(r).unwrap(), 4, 200_000, &mut rng);
        assert!(max_abs_deviation(&freq, &space.exact_probabilities()) < 0.01);
    }

    #[test]
    fn the_decimal_box_goes_when_the_last_fraction_does() {
        let config = BingoConfig {
            lambda: Lambda::Fixed(10.0),
            ..BingoConfig::default()
        };
        let mut space = vertex2_space(config);
        assert!(space.decimal.is_none());
        space.insert(3, Bias::from_float(0.25)).unwrap();
        space.insert(0, Bias::from_float(0.75)).unwrap();
        assert_eq!(space.decimal_group().cardinality(), 2);
        space.delete(3).unwrap();
        assert!(space.decimal.is_some());
        space.apply_batch(&[], &[0]);
        assert!(space.decimal.is_none());
        assert_eq!(space.memory_report().decimal_bytes, 0);
        space.check_invariants().unwrap();
    }

    #[test]
    fn adaptive_classification_creates_dense_and_one_element_groups() {
        // 10 edges, 9 odd biases (dense 2^0 group), one huge bias for a
        // one-element group.
        let mut adj = AdjacencyList::new();
        for i in 0..9u32 {
            adj.push(Edge::new(i, Bias::from_int(2 * u64::from(i) + 1)));
        }
        adj.push(Edge::new(9, Bias::from_int(1 << 12)));
        let space = VertexSpace::build(adj, BingoConfig::default());
        assert_eq!(space.group(0).kind(), GroupKind::Dense);
        assert_eq!(space.group(12).kind(), GroupKind::OneElement);
        space.check_invariants().unwrap();

        // Distribution must still match despite the dense representation.
        let mut rng = Pcg64::seed_from_u64(13);
        let freq =
            empirical_distribution(|r| space.sample_index(r).unwrap(), 10, 400_000, &mut rng);
        assert!(max_abs_deviation(&freq, &space.exact_probabilities()) < 0.01);
    }

    #[test]
    fn baseline_config_only_uses_regular_groups() {
        let mut adj = AdjacencyList::new();
        for i in 0..16u32 {
            adj.push(Edge::new(i, Bias::from_int(u64::from(i) + 1)));
        }
        let space = VertexSpace::build(adj, BingoConfig::baseline());
        for g in space.groups() {
            assert!(matches!(g.kind(), GroupKind::Regular | GroupKind::Empty));
        }
    }

    #[test]
    fn adaptive_uses_less_memory_than_baseline() {
        let mut adj = AdjacencyList::new();
        for i in 0..256u32 {
            adj.push(Edge::new(i, Bias::from_int(u64::from(i % 63) + 1)));
        }
        let adaptive = VertexSpace::build(adj.clone(), BingoConfig::default());
        let baseline = VertexSpace::build(adj, BingoConfig::baseline());
        assert!(
            adaptive.memory_report().sampling_bytes() < baseline.memory_report().sampling_bytes()
        );
    }

    #[test]
    fn batch_apply_inserts_and_deletes_with_single_rebuild() {
        let mut space = vertex2_space(BingoConfig::default());
        let rebuilds_before = space.inter_rebuilds();
        let outcome = space.apply_batch(
            &[
                (3, Bias::from_int(3)),
                (0, Bias::from_int(7)),
                (5, Bias::from_int(2)),
            ],
            &[1, 4, 99],
        );
        assert_eq!(outcome.inserted, 3);
        assert_eq!(outcome.deleted, 2);
        assert_eq!(outcome.missing_deletes, 1);
        assert_eq!(space.degree(), 4);
        // Exactly one inter-group rebuild for the whole batch.
        assert_eq!(space.inter_rebuilds(), rebuilds_before + 1);
        space.check_invariants().unwrap();

        let mut rng = Pcg64::seed_from_u64(21);
        let freq = empirical_distribution(|r| space.sample_index(r).unwrap(), 4, 200_000, &mut rng);
        assert!(max_abs_deviation(&freq, &space.exact_probabilities()) < 0.01);
    }

    #[test]
    fn batch_deleting_duplicate_edges_removes_both_copies() {
        let mut adj = AdjacencyList::new();
        adj.push(Edge::new(1, Bias::from_int(2)));
        adj.push(Edge::new(1, Bias::from_int(4)));
        adj.push(Edge::new(2, Bias::from_int(8)));
        let mut space = VertexSpace::build(adj, BingoConfig::default());
        let outcome = space.apply_batch(&[], &[1, 1]);
        assert_eq!(outcome.deleted, 2);
        assert_eq!(space.degree(), 1);
        space.check_invariants().unwrap();
    }

    #[test]
    fn batch_with_everything_deleted_leaves_empty_space() {
        let mut space = vertex2_space(BingoConfig::default());
        let outcome = space.apply_batch(&[], &[1, 4, 5]);
        assert_eq!(outcome.deleted, 3);
        assert_eq!(space.degree(), 0);
        assert_eq!(space.total_weight(), 0.0);
        let mut rng = Pcg64::seed_from_u64(2);
        assert_eq!(space.sample_index(&mut rng), None);
        space.check_invariants().unwrap();
    }

    #[test]
    fn conversions_are_recorded_when_groups_change_kind() {
        // Start with a small degree (dense groups), then grow the degree so
        // the same group must become regular/sparse.
        let mut adj = AdjacencyList::new();
        adj.push(Edge::new(0, Bias::from_int(1)));
        adj.push(Edge::new(1, Bias::from_int(1)));
        let mut space = VertexSpace::build(adj, BingoConfig::default());
        assert_eq!(space.group(0).kind(), GroupKind::Dense);
        let mut total = VertexUpdateOutcome::default();
        for i in 2..40u32 {
            total.merge(&space.insert(i, Bias::from_int(2)).unwrap());
        }
        // Group 2^0 now holds 2 of 40 edges (5%) → sparse.
        assert_eq!(space.group(0).kind(), GroupKind::Sparse);
        assert!(total.conversions.total_conversions() > 0);
        assert_eq!(total.inserted, 38);
        assert_eq!(total.inter_rebuilds, 38);
        space.check_invariants().unwrap();
    }

    #[test]
    fn memory_report_counts_every_group() {
        let space = vertex2_space(BingoConfig::default());
        let report = space.memory_report();
        let counted: usize = report.group_counts.iter().sum();
        let non_empty = space
            .groups()
            .filter(|g| g.kind() != GroupKind::Empty)
            .count();
        assert_eq!(counted, non_empty);
        assert!(report.adjacency_bytes > 0);
        assert!(report.inter_group_bytes > 0);
    }

    #[test]
    fn the_space_stays_within_128_bytes() {
        // 2^18 vertices hold 32 MiB of these inline; the engine owns the
        // config and the conversion matrix so that a space need not.
        assert!(std::mem::size_of::<VertexSpace>() <= 128);
    }

    /// A degree-`degree` vertex whose eight radix groups each hold about a
    /// quarter of the edges, i.e. are all regular.
    fn regular_hub(degree: u32, rng: &mut Pcg64) -> VertexSpace {
        let mut adj = AdjacencyList::with_capacity(degree as usize);
        for dst in 0..degree {
            adj.push(Edge::new(dst, quarter_bits_bias(rng)));
        }
        let space = VertexSpace::build(adj, BingoConfig::default());
        assert!(space.groups().all(|g| g.kind() == GroupKind::Regular));
        space
    }

    /// An 8-bit bias with every bit set with probability 1/4.
    fn quarter_bits_bias(rng: &mut Pcg64) -> Bias {
        use rand::Rng;
        loop {
            let w = rng.gen::<u32>() & rng.gen::<u32>() & 0xFF;
            if w != 0 {
                return Bias::from_int(u64::from(w));
            }
        }
    }

    #[test]
    fn streaming_updates_on_a_wide_hub_relocate_o_k_words_per_event() {
        let space = hub_relocates_o_k_words_per_event(1 << 16);
        assert!(space.groups.is_wide());
    }

    #[test]
    fn streaming_updates_on_a_narrow_hub_relocate_o_k_words_per_event() {
        let space = hub_relocates_o_k_words_per_event(1 << 15);
        assert!(!space.groups.is_wide());
    }

    fn hub_relocates_o_k_words_per_event(degree: u32) -> VertexSpace {
        use crate::group::RELOCATED_WORDS;
        use rand::Rng;
        const EVENTS: u32 = 10_000;
        let mut rng = Pcg64::seed_from_u64(0x4B);
        let mut space = regular_hub(degree, &mut rng);
        let k = space.num_groups() as u64;
        // Words the groups occupy before the first event.
        let built = space.groups.arena_capacity() as u64;
        RELOCATED_WORDS.with(|c| c.set(0));

        for i in 0..EVENTS {
            space
                .insert(degree + i, quarter_bits_bias(&mut rng))
                .unwrap();
            if i % 1000 == 0 {
                space.check_invariants().unwrap();
            }
        }
        for i in 0..EVENTS {
            let idx = rng.gen_range(0..space.degree());
            space.delete_at(idx).unwrap();
            if i % 1000 == 0 {
                space.check_invariants().unwrap();
            }
        }
        space.check_invariants().unwrap();

        // The exact-size build leaves no room, so the first touches move
        // every segment once and squeeze the holes out once (a few times
        // what was built). From then on segments have headroom and an event
        // moves a bounded number of words per group, amortised — an `O(d)`
        // shift per event would be three orders of magnitude over this.
        let relocated = RELOCATED_WORDS.with(|c| c.get());
        let events = 2 * u64::from(EVENTS);
        assert!(
            relocated <= 6 * built + 32 * k * events,
            "{relocated} words relocated over {events} events on {k} groups ({built} words built)"
        );
        space
    }

    /// Draw 200 000 samples, bin them by neighbor index modulo 64 and hold
    /// the chi-square against `exact_probabilities()` at the 99.9 % level.
    fn assert_samples_match_exact_probabilities(space: &VertexSpace, rng: &mut Pcg64) {
        use bingo_sampling::stats::{chi_square, chi_square_critical_999};
        const BINS: usize = 64;
        let mut expected = [0.0; BINS];
        for (idx, p) in space.exact_probabilities().into_iter().enumerate() {
            expected[idx % BINS] += p;
        }
        let mut observed = [0usize; BINS];
        for _ in 0..200_000 {
            observed[space.sample_index(rng).unwrap() % BINS] += 1;
        }
        let chi2 = chi_square(&observed, &expected);
        assert!(
            chi2 < chi_square_critical_999(BINS - 1),
            "chi-square {chi2} at degree {}",
            space.degree()
        );
    }

    #[test]
    fn a_hub_crossing_the_narrow_limit_is_promoted_once_and_never_flip_flops() {
        use rand::Rng;
        const LIMIT: u32 = u16::MAX as u32;
        let mut rng = Pcg64::seed_from_u64(0x16);
        let mut space = regular_hub(LIMIT - 2, &mut rng);
        assert!(!space.groups.is_wide());
        assert_samples_match_exact_probabilities(&space, &mut rng);
        let arena_bytes = |space: &VertexSpace| {
            let report = space.memory_report();
            report.sparse_bytes + report.regular_bytes
        };
        // An exact-size build: the arena is the segments, at two bytes a word.
        assert_eq!(arena_bytes(&space), 2 * space.groups.arena_capacity());

        // Inserts across the limit: the one that reaches it rebuilds the
        // space with wide words, the others stream.
        let rebuilds = space.full_rebuilds();
        for dst in LIMIT - 2..LIMIT + 4 {
            let was_wide = space.groups.is_wide();
            let outcome = space.insert(dst, quarter_bits_bias(&mut rng)).unwrap();
            space.check_invariants().unwrap();
            let promoted = space.groups.is_wide() && !was_wide;
            assert_eq!(promoted, space.degree() == LIMIT as usize);
            assert_eq!(outcome.full_rebuilds, u32::from(promoted));
            if promoted {
                assert_eq!(arena_bytes(&space), 4 * space.groups.arena_capacity());
            }
        }
        assert!(space.groups.is_wide());
        assert_eq!(space.full_rebuilds(), rebuilds + 1);
        assert_samples_match_exact_probabilities(&space, &mut rng);

        // Deletes back below the limit stream too: no demotion, no rebuild.
        while space.degree() > LIMIT as usize - 6 {
            let idx = rng.gen_range(0..space.degree());
            space.delete_at(idx).unwrap();
            space.check_invariants().unwrap();
        }
        // ... and so does a hub hovering at the limit.
        for round in 0..4 {
            while space.degree() < LIMIT as usize + 2 {
                space.insert(round, quarter_bits_bias(&mut rng)).unwrap();
            }
            space.check_invariants().unwrap();
            while space.degree() > LIMIT as usize - 2 {
                space.delete_at(0).unwrap();
            }
            space.check_invariants().unwrap();
        }
        assert!(space.groups.is_wide());
        assert_eq!(space.full_rebuilds(), rebuilds + 1);
        assert_samples_match_exact_probabilities(&space, &mut rng);

        // A rebuild from scratch (here: the first fractional bias under
        // `Lambda::Auto`) keeps the words wide while the degree is 2^15 or
        // more (`group.rs` tests the demotion below it).
        while space.degree() > 1 << 15 {
            space.delete_at(space.degree() - 1).unwrap();
        }
        space.insert(7, Bias::from_float(2.5)).unwrap();
        assert_eq!(space.full_rebuilds(), rebuilds + 2);
        assert_eq!(space.degree(), (1 << 15) + 1);
        assert!(space.groups.is_wide());
        space.check_invariants().unwrap();
    }

    #[test]
    fn a_batch_that_crosses_the_narrow_limit_rebuilds_once() {
        const LIMIT: u32 = u16::MAX as u32;
        let mut rng = Pcg64::seed_from_u64(0x17);
        let mut space = regular_hub(LIMIT - 3, &mut rng);
        let inserts: Vec<(VertexId, Bias)> = (0..8)
            .map(|i| (LIMIT + i, quarter_bits_bias(&mut rng)))
            .collect();
        let outcome = space.apply_batch(&inserts, &[0, 1, 2]);
        assert_eq!((outcome.inserted, outcome.deleted), (8, 3));
        assert_eq!(outcome.full_rebuilds, 1);
        assert_eq!(space.degree(), LIMIT as usize + 2);
        assert!(space.groups.is_wide());
        space.check_invariants().unwrap();
        assert_samples_match_exact_probabilities(&space, &mut rng);
    }

    #[test]
    fn delete_heavy_churn_hands_arena_holes_back() {
        use rand::Rng;
        let mut rng = Pcg64::seed_from_u64(0xD1);
        let mut space = regular_hub(4096, &mut rng);
        // Grow first, so relocations leave holes behind, then delete nine
        // edges in ten.
        for i in 0..2048 {
            space.insert(4096 + i, quarter_bits_bias(&mut rng)).unwrap();
        }
        while space.degree() > 600 {
            let idx = rng.gen_range(0..space.degree());
            space.delete_at(idx).unwrap();
        }
        space.check_invariants().unwrap();
        let live: usize = space
            .groups()
            .map(|g| match g.kind() {
                GroupKind::Sparse => g.cardinality(),
                GroupKind::Regular => g.cardinality() + space.degree(),
                _ => 0,
            })
            .sum();
        assert!(live > 0);
        let capacity = space.groups.arena_capacity();
        assert!(
            capacity <= 2 * live + 16,
            "arena holds {capacity} words for {live} live ones"
        );
    }
}
