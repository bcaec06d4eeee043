//! Per-vertex sampling space (§4), in one of two representations.
//!
//! A [`VertexSpace`] holds one vertex's adjacency list — the very block of
//! the graph it was built from, until either side writes to it (see
//! [`AdjacencyList`]). Above
//! [`DIRECT_MAX_DEGREE`] edges it is **factorized**: the radix groups built
//! over the list, the decimal group for fractional bias remainders and the
//! inter-group alias table, which give:
//!
//! * `O(1)` sampling: alias-table selection of a group followed by uniform
//!   (or bounded-rejection, for dense groups) intra-group selection.
//! * `O(K)` streaming insertion and deletion (K = number of radix groups),
//!   locating the edge included: the vertex's *edge index*, a probe table
//!   from destination to neighbor index kept in the group arena, finds it
//!   in one cluster of a few slots instead of a scan of the list.
//! * Batched application of many updates with a single rebuild at the end,
//!   using the two-phase delete-and-swap compaction for the deletions.
//!
//! Group adaptation (§5.1, Equation 9) picks a representation per *group*;
//! the level above it picks one per *vertex*. Under `adaptive: true` a
//! vertex rebuilt at [`DIRECT_MAX_DEGREE`] edges or fewer is **direct**: it
//! keeps the adjacency list and the cached bias total, and nothing else. A
//! sample is one draw below the total and one pass over the edges, an
//! update edits the list and re-adds the total — both bounded by the
//! constant, so still the paper's `O(1)`. The insert that takes a direct
//! vertex above [`DIRECT_MAX_DEGREE`] factorizes it (one rebuild from
//! scratch), and a factorized vertex goes back to direct when deletes take
//! it down to [`DIRECT_DEMOTE_DEGREE`] (one more); both are counted as full
//! rebuilds. With adaptation off (the paper's "BS") every vertex is
//! factorized.
//!
//! The space is 48 bytes inline and keeps no copy of the configuration:
//! whoever owns it (normally the engine, which has one [`BingoConfig`] for
//! all of them) passes the configuration to every call that changes it. A
//! direct vertex holds one heap block, an all-integer factorized one three
//! (an isolated vertex holds none):
//!
//! ```text
//! VertexSpace (48 B)
//!  ├─ adjacency       8 B × slots  destination and bias per edge — 8 B while
//!  │                  or 12 B      every bias is an integer below 2^32, else
//!  │                  + 16 B       12 — behind a count header: shared with the
//!  │                               graph (and the engine's clones) until the
//!  │                               first write
//!  └─ group table     boxed,       only above DIRECT_MAX_DEGREE edges (or "BS"):
//!      │              72 B + 24 B × K   λ, edge-index and arena handles, then
//!      │                               the K group headers — kind, count,
//!      │                               segment offset, alias bucket — in the
//!      │                               same allocation
//!      ├─ group arena     2 B × words  member lists with their probe tables,
//!      │                               and the edge index (4 B from degree
//!      │                               2^16 − 1 on)
//!      └─ decimal group   boxed, only while some bias has a fraction
//! ```
//!
//! A factorized sample therefore reads the record, the table (alias bucket
//! and group header, one block), one arena word and the adjacency block: a
//! chain of four dependent loads over two heap blocks and the adjacency.
//!
//! A direct vertex keeps no index: finding an edge among at most
//! [`DIRECT_MAX_DEGREE`] is the scan it always was.
//!
//! It keeps no statistics beyond its two rebuild counters: every mutation
//! returns a [`VertexUpdateOutcome`] with the conversions and rebuilds it
//! caused and the adjacency slots it read to find its edges, for the caller
//! (normally the engine) to accumulate.

use crate::config::BingoConfig;
use crate::fixed::{choose_lambda, ScaledBias};
use crate::group::{DecimalGroup, GroupKind, GroupTable, GroupView};
use crate::memory::MemoryReport;
use crate::radix;
use crate::stats::ConversionMatrix;
use crate::{BingoError, Result};
use bingo_graph::adjacency::{AdjacencyList, Edge, Edges};
use bingo_graph::{Bias, VertexId};
use rand::Rng;
use std::sync::Arc;

/// The largest degree an adaptive vertex is stored direct at.
///
/// Set by measurement, not taste: the direct sample is a scan, so its worst
/// case is this degree, and the benchmark's `core.vertex_space.sample_ns.deg16`
/// times exactly that. At 16 it reads 18.3 ns against the 26.4 ns of the
/// factorized sample it replaces (medians of ten traced pairs, limit 30; see
/// CHANGES.md, PR 17) while vertices of 1–16 edges hold 73 % of the group
/// headers on the `engine_batch` graph and nearly all of them on the
/// `service_deepwalk` one.
pub const DIRECT_MAX_DEGREE: usize = 16;

/// The degree at which deletes turn a factorized vertex back into a direct
/// one. Half of [`DIRECT_MAX_DEGREE`], so a vertex hovering around either
/// constant is not rebuilt over and over: between two rebuilds of one
/// vertex lie at least eight updates.
pub const DIRECT_DEMOTE_DEGREE: usize = DIRECT_MAX_DEGREE / 2;

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
    /// Rebuilds of the whole space from scratch (λ changes, and a vertex
    /// changing between the direct and the factorized representation).
    pub full_rebuilds: u32,
    /// Rebuilds of the inter-group alias table.
    pub inter_rebuilds: u32,
    /// Adjacency slots read while locating the edges to delete or rewrite:
    /// the scan of a direct vertex, the edge-index probes of a factorized
    /// one.
    pub edges_scanned: u64,
    /// Group-arena words copied or entered afresh: member lists moved to
    /// a bigger segment and their probe tables refilled, compactions, edge
    /// index refills and the arena's own reallocations. A rebuild from
    /// scratch moves none.
    pub arena_words_moved: u64,
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
        self.edges_scanned += other.edges_scanned;
        self.arena_words_moved += other.arena_words_moved;
        self.conversions.merge(&other.conversions);
    }
}

/// The decimal group of a vertex none of whose biases has a fraction.
static NO_DECIMAL: DecimalGroup = DecimalGroup::new();

/// Tries a dense group's rejection sampling gets before it falls back to a
/// scan.
const DENSE_TRIES: usize = 64;

/// The representation Equation 9 gives a group of `cardinality` edges on a
/// vertex of `degree` edges. With adaptation off (the "BS" baseline) every
/// non-empty group is regular.
fn classify(config: &BingoConfig, cardinality: usize, degree: usize) -> GroupKind {
    if !config.adaptive {
        return if cardinality == 0 {
            GroupKind::Empty
        } else {
            GroupKind::Regular
        };
    }
    GroupKind::classify(cardinality, degree)
}

/// Everything only a factorized vertex needs: the group table, which also
/// carries λ and the decimal group. The methods take the adjacency list the
/// groups and the edge index cover; the space keeps them in step.
///
/// The table is shared by every clone of the space and written
/// copy-on-write, like the adjacency block beside it: reads go through the
/// `Arc`, writes through [`Factorized::table`].
#[derive(Debug, Clone)]
struct Factorized {
    groups: Arc<GroupTable>,
}

impl Factorized {
    /// The table, to write: copied first while a clone of the space holds
    /// it too.
    fn table(&mut self) -> &mut GroupTable {
        GroupTable::make_mut(&mut self.groups)
    }

    /// The λ amortization factor the groups were built with.
    fn lambda(&self) -> f64 {
        self.groups.fixed.lambda
    }

    fn scaled(&self, bias: Bias) -> ScaledBias {
        ScaledBias::new(bias, self.lambda())
    }

    fn decimal_weight(&self) -> f64 {
        self.groups
            .fixed
            .decimal
            .as_ref()
            .map_or(0.0, |d| d.weight())
    }

    fn total_weight(&self) -> f64 {
        self.groups.total_weight() + self.decimal_weight()
    }

    /// Choose λ for the adjacency list, build groups, edge index and
    /// decimal group under it, then the inter-group alias table; `prev` is
    /// what the vertex had before, if it was factorized. `O(d · K)`.
    fn rebuilt(prev: Option<Factorized>, edges: Edges<'_>, config: &BingoConfig) -> Self {
        let lambda = Self::lambda_for(edges);
        let mut factorized = Factorized {
            groups: GroupTable::rebuilt(
                prev.map(|f| f.groups),
                edges.len(),
                |idx| ScaledBias::new(edges.bias(idx), lambda).integer,
                dst_of(edges),
                |cardinality| classify(config, cardinality, edges.len()),
            ),
        };
        let groups = factorized.table();
        groups.fixed.lambda = lambda;
        // λ is 1 exactly when every bias is integral: no remainders.
        let fractions = edges
            .iter()
            .map(|e| ScaledBias::new(e.bias, lambda).fraction);
        groups.fixed.decimal = if lambda > 1.0 {
            DecimalGroup::of(fractions).map(Box::new)
        } else {
            None
        };
        factorized.rebuild_inter();
        factorized
    }

    /// λ for `edges` (§4.3): 1 while every bias is integral, so nothing is
    /// scaled, otherwise the one [`choose_lambda`] derives from the biases.
    fn lambda_for(edges: Edges<'_>) -> f64 {
        if edges.iter().all(|e| e.bias.is_integral()) {
            return 1.0;
        }
        choose_lambda(edges.iter().map(|e| e.bias.value()), 2.0)
    }

    /// Rebuild only the inter-group alias table. `O(K)`.
    fn rebuild_inter(&mut self) {
        let decimal_weight = self.decimal_weight();
        self.table().rebuild_inter(decimal_weight);
    }

    /// Reclassify every group's representation against the current degree,
    /// converting representations and recording the conversions (Table 4),
    /// then let the group arena reclaim the holes relocations left behind.
    fn reclassify(
        &mut self,
        edges: Edges<'_>,
        config: &BingoConfig,
        conversions: &mut ConversionMatrix,
    ) {
        let degree = edges.len();
        let lambda = self.lambda();
        let groups = self.table();
        for bit in 0..groups.len() {
            conversions.record_check();
            let current = groups.kind(bit);
            let cardinality = groups.cardinality(bit);
            let desired = classify(config, cardinality, degree);
            if current == desired {
                continue;
            }
            // Converting out of a dense group scans the adjacency list to
            // recover the member list.
            groups.convert(bit, desired, degree, |i| {
                radix::in_group(ScaledBias::new(edges.bias(i), lambda).integer, bit as u8)
            });
            conversions.record(current, desired);
        }
        groups.reclaim(degree, dst_of(edges));
    }

    /// Insert the edge just pushed onto `edges`, its last, into the radix
    /// groups and the edge index without touching the inter-group alias
    /// table. Returns `true` when the insertion requires a full rebuild
    /// instead: a floating-point bias arrived while λ is 1, or the degree
    /// outgrew the group table's word width.
    fn insert(&mut self, edges: Edges<'_>) -> bool {
        let idx = edges.len() as u32 - 1;
        let bias = edges.bias(idx as usize);
        if !bias.is_integral() && (self.lambda() - 1.0).abs() < f64::EPSILON {
            return true;
        }
        if !self.groups.fits(edges.len()) {
            return true;
        }
        let s = self.scaled(bias);
        GroupTable::ensure(&mut self.groups, radix::groups_for_max_bias(s.integer));
        let groups = self.table();
        groups.index_insert(idx, dst_of(edges));
        for bit in radix::decompose(s.integer) {
            groups.insert(bit as usize, idx);
        }
        if s.has_fraction() {
            let decimal = groups.fixed.decimal.get_or_insert_with(Box::default);
            decimal.insert(idx, s.fraction);
        }
        false
    }

    /// Remove the edge at neighbor index `idx` from all group structures
    /// and the edge index (the adjacency list, `edges`, still holds it).
    fn remove(&mut self, idx: u32, edges: Edges<'_>) {
        let s = self.scaled(edges.bias(idx as usize));
        let groups = self.table();
        groups.index_remove(idx, dst_of(edges));
        for bit in radix::decompose(s.integer) {
            if (bit as usize) < groups.len() {
                groups.remove(bit as usize, idx);
            }
        }
        if s.has_fraction() {
            let decimal = &mut groups.fixed.decimal;
            if let Some(group) = decimal.as_mut() {
                group.remove(idx);
                if group.is_empty() {
                    *decimal = None;
                }
            }
        }
    }

    /// Propagate an adjacency-list move of `edge` (`old_idx → new_idx`) to
    /// all group structures and the edge index.
    fn remap(&mut self, old_idx: u32, new_idx: u32, edge: Edge) {
        let s = self.scaled(edge.bias);
        let groups = self.table();
        if old_idx != new_idx {
            groups.index_remap(old_idx, new_idx, edge.dst);
        }
        for bit in radix::decompose(s.integer) {
            if (bit as usize) < groups.len() {
                groups.remap(bit as usize, old_idx, new_idx);
            }
        }
        if s.has_fraction() {
            if let Some(decimal) = groups.fixed.decimal.as_mut() {
                decimal.remap(old_idx, new_idx);
            }
        }
    }

    /// Two-stage sample: a group from the inter-group alias table, then a
    /// member of it.
    fn sample_index<R: Rng + ?Sized>(&self, edges: Edges<'_>, rng: &mut R) -> Option<usize> {
        if !self.groups.has_inter() {
            return None;
        }
        // Bounded retry: a sampled group can only be empty due to floating
        // point drift in the alias table; retry a few times before giving up.
        for _ in 0..64 {
            let g = self.groups.sample_group(rng);
            if g == self.groups.len() {
                let decimal = self.groups.fixed.decimal.as_ref();
                if let Some(idx) = decimal.and_then(|d| d.sample(rng)) {
                    return Some(idx as usize);
                }
                continue;
            }
            match self.groups.kind(g) {
                GroupKind::Empty => continue,
                GroupKind::Dense => {
                    if let Some(idx) = self.sample_dense(g, edges, rng) {
                        return Some(idx);
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

    /// A uniform member of the dense group `g`, by rejection over the raw
    /// adjacency list: every update reclassifies, so a dense group holds
    /// more than α% of the edges and a try is accepted at least that often
    /// (§5.1). The tries are bounded all the same, and past them one more
    /// draw picks the r-th member, found by one scan.
    fn sample_dense<R: Rng + ?Sized>(
        &self,
        g: usize,
        edges: Edges<'_>,
        rng: &mut R,
    ) -> Option<usize> {
        if edges.is_empty() {
            return None;
        }
        crate::group::note_read(edges.as_ptr());
        let in_group = |bias: Bias| radix::in_group(self.scaled(bias).integer, g as u8);
        for _ in 0..DENSE_TRIES {
            let i = rng.gen_range(0..edges.len());
            if in_group(edges.bias(i)) {
                return Some(i);
            }
        }
        let r = rng.gen_range(0..self.groups.cardinality(g));
        let mut members = edges
            .iter()
            .enumerate()
            .filter(|(_, edge)| in_group(edge.bias));
        members.nth(r).map(|(i, _)| i)
    }
}

/// Destination by neighbor index: how a vertex's edge index reads its keys
/// back.
fn dst_of(edges: Edges<'_>) -> impl Fn(u32) -> VertexId + '_ {
    move |idx| edges.dst(idx as usize)
}

/// The cached bias total of a direct vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DirectTotal {
    /// Every bias is integral and the sum fits: the sample is an integer
    /// draw, so the distribution is exact even beyond 2^53.
    Exact(u64),
    /// Some bias has a fraction (or sixteen integers overflowed `u64`).
    Approx(f64),
}

impl DirectTotal {
    fn of(edges: Edges<'_>) -> Self {
        let mut exact = Some(0u64);
        let mut approx = 0.0;
        for edge in edges {
            approx += edge.bias.value();
            exact = exact.and_then(|sum| sum.checked_add(edge.bias.as_int()?));
        }
        exact.map_or(DirectTotal::Approx(approx), DirectTotal::Exact)
    }

    fn value(self) -> f64 {
        match self {
            DirectTotal::Exact(total) => total as f64,
            DirectTotal::Approx(total) => total,
        }
    }
}

/// What a space keeps besides its adjacency list: the cached bias total of
/// a direct vertex ([`DirectTotal`], spelled out) or the groups of a
/// factorized one. Every variant carries the space's count of full
/// rebuilds, which the tag's padding has room for and the space has not.
#[derive(Debug, Clone)]
enum Repr {
    Exact {
        total: u64,
        full_rebuilds: u32,
    },
    Approx {
        total: f64,
        full_rebuilds: u32,
    },
    Factorized {
        factorized: Factorized,
        full_rebuilds: u32,
    },
}

impl Repr {
    fn direct(total: DirectTotal, full_rebuilds: u32) -> Self {
        match total {
            DirectTotal::Exact(total) => Repr::Exact {
                total,
                full_rebuilds,
            },
            DirectTotal::Approx(total) => Repr::Approx {
                total,
                full_rebuilds,
            },
        }
    }

    fn full_rebuilds(&self) -> u32 {
        let (Repr::Exact { full_rebuilds, .. }
        | Repr::Approx { full_rebuilds, .. }
        | Repr::Factorized { full_rebuilds, .. }) = self;
        *full_rebuilds
    }

    fn direct_total(&self) -> Option<DirectTotal> {
        match *self {
            Repr::Exact { total, .. } => Some(DirectTotal::Exact(total)),
            Repr::Approx { total, .. } => Some(DirectTotal::Approx(total)),
            Repr::Factorized { .. } => None,
        }
    }

    fn factorized(&self) -> Option<&Factorized> {
        match self {
            Repr::Factorized { factorized, .. } => Some(factorized),
            _ => None,
        }
    }

    fn factorized_mut(&mut self) -> Option<&mut Factorized> {
        match self {
            Repr::Factorized { factorized, .. } => Some(factorized),
            _ => None,
        }
    }
}

/// The sampling space of a single vertex.
///
/// The space keeps no configuration. [`VertexSpace::build`] and every call
/// that changes the space take the [`BingoConfig`] to act under, and the
/// caller passes the same one each time (the engine passes its own); the
/// sampling and inspection methods need none.
#[derive(Debug, Clone)]
pub struct VertexSpace {
    adj: AdjacencyList,
    repr: Repr,
}

/// The two reference counts in front of a group table in its allocation.
const TABLE_COUNTS_BYTES: usize = 2 * std::mem::size_of::<usize>();

// 2^18 vertices hold 12 MiB of these inline; the engine owns the config and
// the conversion matrix, and the table's allocation what only a factorized
// vertex needs, so that a space need not.
const _: () = assert!(std::mem::size_of::<VertexSpace>() <= 48);

impl VertexSpace {
    /// Build the sampling space for an adjacency list.
    pub fn build(adj: AdjacencyList, config: BingoConfig) -> Self {
        let mut space = VertexSpace::unbuilt();
        space.adj = adj;
        space.rebuild_from_scratch(&config);
        space
    }

    /// An isolated vertex no build has counted yet: what
    /// [`BingoEngine::build_ranges`](crate::BingoEngine::build_ranges) fills
    /// its array with before the spaces are built into it.
    pub(crate) fn unbuilt() -> Self {
        VertexSpace {
            adj: AdjacencyList::new(),
            repr: Repr::Exact {
                total: 0,
                full_rebuilds: 0,
            },
        }
    }

    /// The vertex degree.
    pub fn degree(&self) -> usize {
        self.adj.degree()
    }

    /// The adjacency list backing this space.
    pub fn adjacency(&self) -> &AdjacencyList {
        &self.adj
    }

    /// Whether the vertex is stored direct: no radix groups, sampled by one
    /// pass over its at most [`DIRECT_MAX_DEGREE`] edges.
    pub fn is_direct(&self) -> bool {
        self.repr.factorized().is_none()
    }

    /// The λ amortization factor currently in use (1 for a direct vertex,
    /// which scales nothing).
    pub fn lambda(&self) -> f64 {
        self.repr.factorized().map_or(1.0, Factorized::lambda)
    }

    fn groups_table(&self) -> &GroupTable {
        match self.repr.factorized() {
            Some(f) => &f.groups,
            None => GroupTable::none(),
        }
    }

    /// The number of radix groups (K); none on a direct vertex.
    pub fn num_groups(&self) -> usize {
        self.groups_table().len()
    }

    /// The radix groups in bit order (for inspection in tests and
    /// experiments).
    pub fn groups(&self) -> impl ExactSizeIterator<Item = GroupView<'_>> {
        self.groups_table().views()
    }

    /// The radix group of bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= num_groups()`.
    pub fn group(&self, bit: usize) -> GroupView<'_> {
        self.groups_table().view(bit)
    }

    /// The decimal group.
    pub fn decimal_group(&self) -> &DecimalGroup {
        self.groups_table()
            .fixed
            .decimal
            .as_deref()
            .unwrap_or(&NO_DECIMAL)
    }

    /// Number of inter-group alias rebuilds of the current factorization:
    /// a direct vertex has none, and a vertex factorized again starts over.
    /// The engine's [`EngineStats`](crate::EngineStats) keep the running
    /// total.
    pub fn inter_rebuilds(&self) -> u64 {
        u64::from(self.groups_table().inter_rebuilds())
    }

    /// Number of full space rebuilds performed.
    pub fn full_rebuilds(&self) -> u64 {
        u64::from(self.repr.full_rebuilds())
    }

    /// Re-add the cached total of a direct vertex after its edges changed.
    /// One pass over at most [`DIRECT_MAX_DEGREE`] edges, and no drift: the
    /// cache always equals a fresh sum.
    fn refresh_direct_total(&mut self) {
        let total = DirectTotal::of(self.adj.edges());
        self.repr = Repr::direct(total, self.repr.full_rebuilds());
    }

    /// Whether a factorized vertex left with `degree` edges goes back to
    /// direct.
    fn demotes_at(&self, degree: usize, config: &BingoConfig) -> bool {
        config.adaptive && !self.is_direct() && degree <= DIRECT_DEMOTE_DEGREE
    }

    /// An empty outcome, and the rebuild counters and arena words moved to
    /// diff against once the update is done.
    fn begin(&self) -> (VertexUpdateOutcome, ([u32; 2], u64)) {
        let groups = self.groups_table();
        (
            VertexUpdateOutcome::default(),
            (
                [groups.inter_rebuilds(), self.repr.full_rebuilds()],
                groups.words_moved(),
            ),
        )
    }

    fn finish(
        &self,
        mut outcome: VertexUpdateOutcome,
        (before, moved): ([u32; 2], u64),
    ) -> VertexUpdateOutcome {
        // An update that leaves the vertex direct rebuilt no alias table and
        // keeps no arena: it either found it direct or dropped its groups,
        // counters and all.
        (outcome.inter_rebuilds, outcome.arena_words_moved) = match self.repr.factorized() {
            Some(f) => (
                f.groups.inter_rebuilds().wrapping_sub(before[0]),
                f.groups.words_moved().saturating_sub(moved),
            ),
            None => (0, 0),
        };
        outcome.full_rebuilds = self.repr.full_rebuilds().wrapping_sub(before[1]);
        outcome
    }

    /// Rebuild the space from the adjacency list, choosing the
    /// representation from the degree: direct (drop the groups, re-add the
    /// total) or factorized (λ, groups, decimal group and inter-group alias
    /// table, `O(d · K)`).
    fn rebuild_from_scratch(&mut self, config: &BingoConfig) {
        let full_rebuilds = self.repr.full_rebuilds().wrapping_add(1);
        let edges = self.adj.edges();
        if config.adaptive && edges.len() <= DIRECT_MAX_DEGREE {
            self.repr = Repr::direct(DirectTotal::of(edges), full_rebuilds);
            return;
        }
        let vacated = Repr::Exact {
            total: 0,
            full_rebuilds,
        };
        let prev = match std::mem::replace(&mut self.repr, vacated) {
            Repr::Factorized { factorized, .. } => Some(factorized),
            _ => None,
        };
        self.repr = Repr::Factorized {
            factorized: Factorized::rebuilt(prev, edges, config),
            full_rebuilds,
        };
    }

    /// Reclassify the groups and rebuild the inter-group alias table: the
    /// tail of every update that kept the groups current.
    fn settle_groups(&mut self, config: &BingoConfig, conversions: &mut ConversionMatrix) {
        let f = self
            .repr
            .factorized_mut()
            .expect("the vertex is factorized");
        f.reclassify(self.adj.edges(), config, conversions);
        f.rebuild_inter();
    }

    /// Streaming insertion of an edge (§4.2): append to the adjacency list,
    /// enter it into the edge index, update the affected groups, rebuild
    /// the inter-group alias table. `O(K)`, amortised over the moves of
    /// full segments. A direct vertex appends and re-adds its total, or is
    /// factorized if the edge takes it above [`DIRECT_MAX_DEGREE`].
    pub fn insert(
        &mut self,
        dst: VertexId,
        bias: Bias,
        config: &BingoConfig,
    ) -> Result<VertexUpdateOutcome> {
        if !bias.is_valid() {
            return Err(BingoError::InvalidBias { dst });
        }
        let (mut outcome, before) = self.begin();
        outcome.inserted = 1;
        self.adj.push(Edge::new(dst, bias));
        let degree = self.adj.degree();
        match self.repr.factorized_mut() {
            None if degree <= DIRECT_MAX_DEGREE => self.refresh_direct_total(),
            None => self.rebuild_from_scratch(config),
            Some(f) => {
                if f.insert(self.adj.edges()) {
                    self.rebuild_from_scratch(config);
                } else {
                    self.settle_groups(config, &mut outcome.conversions);
                }
            }
        }
        Ok(self.finish(outcome, before))
    }

    /// Streaming deletion of the edge at neighbor index `idx` (§4.2):
    /// locate the edge in its groups via their probe tables, swap it with
    /// each group's tail, swap-delete it from the adjacency list, and remap
    /// the adjacency entry that moved into the hole — in the groups and in
    /// the edge index. `O(K)` expected: a probe reads one cluster of its
    /// table, whose length does not depend on the degree. A direct vertex
    /// swap-deletes and re-adds its total; a factorized one the delete
    /// leaves with [`DIRECT_DEMOTE_DEGREE`] edges becomes direct. Returns
    /// the removed edge.
    pub fn delete_at(
        &mut self,
        idx: usize,
        config: &BingoConfig,
    ) -> Result<(Edge, VertexUpdateOutcome)> {
        if idx >= self.adj.degree() {
            return Err(BingoError::NeighborIndexOutOfRange {
                index: idx,
                degree: self.adj.degree(),
            });
        }
        let (mut outcome, before) = self.begin();
        outcome.deleted = 1;
        // The groups of a vertex about to drop them need no upkeep.
        let demotes = self.demotes_at(self.adj.degree() - 1, config);
        let mut groups = self.repr.factorized_mut().filter(|_| !demotes);
        if let Some(f) = groups.as_mut() {
            f.remove(idx as u32, self.adj.edges());
        }
        let out = self
            .adj
            .swap_delete(idx)
            .expect("index checked against degree");
        if let (Some(f), Some(old_last)) = (groups, out.moved_from) {
            let moved = self.adj.edge(idx).expect("the moved edge is in range");
            f.remap(old_last as u32, idx as u32, moved);
        }
        if demotes {
            self.rebuild_from_scratch(config);
        } else if self.is_direct() {
            self.refresh_direct_total();
        } else {
            self.settle_groups(config, &mut outcome.conversions);
        }
        Ok((out.removed, self.finish(outcome, before)))
    }

    /// Streaming deletion of the first edge pointing at `dst`. Returns the
    /// removed edge.
    pub fn delete(
        &mut self,
        dst: VertexId,
        config: &BingoConfig,
    ) -> Result<(Edge, VertexUpdateOutcome)> {
        let (found, scanned) = self.find_counting(dst);
        let idx = found.ok_or(BingoError::EdgeNotFound { dst })?;
        let (edge, mut outcome) = self.delete_at(idx, config)?;
        outcome.edges_scanned = scanned as u64;
        Ok((edge, outcome))
    }

    /// Neighbor index of the first edge pointing at `dst` — the lowest, if
    /// several do. A factorized vertex asks its edge index, a direct one
    /// scans its at most [`DIRECT_MAX_DEGREE`] edges.
    pub fn find(&self, dst: VertexId) -> Option<usize> {
        self.find_counting(dst).0
    }

    /// [`VertexSpace::find`], and the number of adjacency slots it read:
    /// what an update that locates this edge adds to
    /// [`VertexUpdateOutcome::edges_scanned`].
    pub fn find_counting(&self, dst: VertexId) -> (Option<usize>, usize) {
        let edges = self.adj.edges();
        match self.repr.factorized() {
            Some(f) => {
                let (found, scanned) = f.groups.find_edge(dst, dst_of(edges));
                (found.map(|idx| idx as usize), scanned)
            }
            None => {
                let found = self.adj.find(dst);
                (found, found.map_or(edges.len(), |idx| idx + 1))
            }
        }
    }

    /// Whether some edge points at `dst`: one probe of the edge index, or
    /// a scan of at most [`DIRECT_MAX_DEGREE`] edges on a direct vertex.
    pub fn has_edge(&self, dst: VertexId) -> bool {
        match self.repr.factorized() {
            Some(f) => f.groups.has_edge(dst, dst_of(self.adj.edges())),
            None => self.adj.find(dst).is_some(),
        }
    }

    /// The destination of every edge, in neighbor-index order (repeats
    /// included), in a new `Vec`.
    pub fn destinations(&self) -> Vec<VertexId> {
        let edges = self.adj.edges();
        // `for_each` reads the slots in one pass per width; `collect` would
        // ask the iterator for one edge at a time.
        let mut ids = Vec::with_capacity(edges.len());
        edges.iter().for_each(|e| ids.push(e.dst));
        ids
    }

    /// The distinct destinations of the edges in increasing order: the
    /// membership fingerprint a sharded deployment ships for a vertex
    /// another shard asks about. `O(d log d)`, in a new `Vec`.
    pub fn sorted_neighbors(&self) -> Vec<VertexId> {
        let mut ids = self.destinations();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Update the bias of the first edge pointing at `dst`.
    ///
    /// Implemented as delete + insert of the same destination, which is how
    /// the paper describes bias updates (§4.2).
    pub fn update_bias(
        &mut self,
        dst: VertexId,
        bias: Bias,
        config: &BingoConfig,
    ) -> Result<VertexUpdateOutcome> {
        if !bias.is_valid() {
            return Err(BingoError::InvalidBias { dst });
        }
        let (_, mut outcome) = self.delete(dst, config)?;
        outcome.merge(&self.insert(dst, bias, config)?);
        Ok(outcome)
    }

    /// Apply a per-vertex batch of updates: all insertions first, then all
    /// deletions — each located through the edge index, `O(K)` like a
    /// streamed one — through the two-phase delete-and-swap compaction,
    /// then a single reclassify + inter-group rebuild (§5.2, Figure 10(a)). A
    /// direct vertex only edits its adjacency list; whichever
    /// representation the vertex ends the batch in, it changes at most once.
    pub fn apply_batch(
        &mut self,
        inserts: &[(VertexId, Bias)],
        deletes: &[VertexId],
        config: &BingoConfig,
    ) -> VertexUpdateOutcome {
        let (mut outcome, before) = self.begin();

        // Phase 1: insertions (append + group updates, no rebuild yet).
        // A direct vertex has no groups, and once an insertion calls for a
        // full rebuild the groups are stale until phase 3 rebuilds them: in
        // both cases the batch only edits the adjacency list.
        let mut groups_stale = self.is_direct();
        for &(dst, bias) in inserts {
            if !bias.is_valid() {
                continue;
            }
            self.adj.push(Edge::new(dst, bias));
            if let Some(f) = self.repr.factorized_mut().filter(|_| !groups_stale) {
                groups_stale = f.insert(self.adj.edges());
            }
            outcome.inserted += 1;
        }

        // Phase 2: deletions. Resolve destinations to distinct neighbor
        // indices (duplicate edges are deleted oldest-first, as the paper
        // specifies for re-inserted edges): the i-th delete of one
        // destination takes the i-th lowest index pointing at it. With
        // current groups an edge leaves them and the edge index — neighbor
        // indices are valid until the compaction below — as soon as it is
        // resolved, so the next lookup of its destination finds the next
        // copy. Without them (a direct vertex, or groups a rebuild is about
        // to replace) the lookup is a scan that skips what is already taken.
        let mut to_delete: Vec<usize> = Vec::with_capacity(deletes.len());
        let mut groups = self.repr.factorized_mut().filter(|_| !groups_stale);
        let edges = self.adj.edges();
        for &dst in deletes {
            let (found, scanned) = match groups.as_mut() {
                Some(f) => {
                    let (found, scanned) = f.groups.find_edge(dst, dst_of(edges));
                    if let Some(idx) = found {
                        f.remove(idx, edges);
                    }
                    (found.map(|idx| idx as usize), scanned)
                }
                None => {
                    let mut at = edges.iter().enumerate();
                    let found = at.position(|(i, e)| e.dst == dst && !to_delete.contains(&i));
                    (found, found.map_or(edges.len(), |idx| idx + 1))
                }
            };
            outcome.edges_scanned += scanned as u64;
            match found {
                Some(idx) => to_delete.push(idx),
                None => outcome.missing_deletes += 1,
            }
        }
        if !to_delete.is_empty() {
            // Compact the adjacency list in one two-phase pass and patch
            // the indices of the edges it moved.
            to_delete.sort_unstable();
            let moves = self.adj.delete_sorted(&to_delete);
            if let Some(f) = groups {
                for (from, to) in moves {
                    let moved = self.adj.edge(to).expect("the moved edge is in range");
                    f.remap(from as u32, to as u32, moved);
                }
            }
            outcome.deleted = to_delete.len();
        }

        // Phase 3: one rebuild for the whole batch.
        let degree = self.adj.degree();
        if self.is_direct() && degree <= DIRECT_MAX_DEGREE {
            self.refresh_direct_total();
        } else if groups_stale || self.demotes_at(degree, config) {
            self.rebuild_from_scratch(config);
        } else {
            self.settle_groups(config, &mut outcome.conversions);
        }
        self.finish(outcome, before)
    }

    /// Total sampling weight of the vertex: λ-scaled when factorized, the
    /// plain bias total when direct.
    pub fn total_weight(&self) -> f64 {
        match &self.repr {
            Repr::Factorized { factorized, .. } => factorized.total_weight(),
            direct => direct.direct_total().map_or(0.0, DirectTotal::value),
        }
    }

    /// Sample a neighbor index in `O(1)` expected time (Theorem 4.1
    /// guarantees the distribution equals the bias-proportional one).
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        match &self.repr {
            Repr::Factorized { factorized, .. } => factorized.sample_index(self.adj.edges(), rng),
            direct => self.sample_direct(direct.direct_total()?, rng),
        }
    }

    /// Inverse-transform sample of a direct vertex: one draw below the
    /// cached total, one pass over the edges counting the running sums at or
    /// below the draw — as many edges lie before the one it fell on. The
    /// pass has no early exit, so nothing in it depends on the draw but the
    /// count. Integer totals draw an integer, and integers up to 2^53 add up
    /// exactly in `f64`; only beyond that does the pass add in `u64`.
    fn sample_direct<R: Rng + ?Sized>(&self, total: DirectTotal, rng: &mut R) -> Option<usize> {
        const EXACT_IN_F64: u64 = 1 << 53;
        let edges = self.adj.edges();
        let below = match total {
            DirectTotal::Exact(0) => return None,
            DirectTotal::Exact(total) if total > EXACT_IN_F64 => {
                let below = rng.gen_range(0..total);
                let mut sum = 0u64;
                // Integral, and the sum of all of them fits a `u64`.
                let before = edges.iter().filter(|e| {
                    sum += e.bias.value() as u64;
                    sum <= below
                });
                return Some(before.count());
            }
            DirectTotal::Exact(total) => rng.gen_range(0..total) as f64,
            DirectTotal::Approx(total) if total > 0.0 => rng.gen::<f64>() * total,
            DirectTotal::Approx(_) => return None,
        };
        let mut sum = 0.0;
        let before = edges.iter().filter(|e| {
            sum += e.bias.value();
            sum <= below
        });
        // Rounding can leave a fractional draw a hair past the last sum.
        Some(before.count().min(edges.len() - 1))
    }

    /// Sample a neighbor vertex id.
    pub fn sample_neighbor<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<VertexId> {
        let idx = self.sample_index(rng)?;
        crate::group::note_read(self.adj.edges().as_ptr());
        self.adj.edge(idx).map(|e| e.dst)
    }

    /// Memory accounting for this vertex (Figure 11 breakdown). The
    /// per-representation fields count what each structure needs, as they
    /// always have; `structure_bytes` is everything else the space occupies
    /// (the inline struct, the group table's fixed fields, the rest of the
    /// group headers, arena holes and slack), so `resident_bytes()` is what
    /// the allocator handed out for everything this space references. The
    /// adjacency block and the group table are counted in full even while
    /// the graph or a clone of this space holds them too.
    pub fn memory_report(&self) -> MemoryReport {
        let mut report = MemoryReport {
            adjacency_bytes: self.adj.memory_bytes(),
            ..MemoryReport::default()
        };
        let blocks = if self.adj.is_narrow() {
            &mut report.narrow_blocks
        } else {
            &mut report.wide_blocks
        };
        *blocks = usize::from(report.adjacency_bytes > 0);
        let mut resident = std::mem::size_of::<Self>() + report.adjacency_bytes;
        match self.repr.factorized() {
            None => report.direct_vertices = 1,
            Some(f) => {
                report.inter_group_bytes = f.groups.inter_bytes();
                report.index_bytes = f.groups.index_bytes();
                for g in f.groups.views() {
                    report.add_group(g.kind(), g.memory_bytes());
                }
                // The table's own allocation — the `Arc`'s counts, fixed
                // fields and headers — and the arena it points to.
                resident +=
                    TABLE_COUNTS_BYTES + std::mem::size_of_val(&*f.groups) + f.groups.heap_bytes();
                if let Some(decimal) = &f.groups.fixed.decimal {
                    report.decimal_bytes = decimal.memory_bytes();
                    resident += std::mem::size_of_val(&**decimal) + report.decimal_bytes;
                }
            }
        }
        report.structure_bytes = resident - report.total_bytes();
        report
    }

    /// Check every structural invariant of the sampling space, and that its
    /// representation is one `config` allows at this degree. Used by the
    /// property-based tests; returns a description of the first violation.
    pub fn check_invariants(&self, config: &BingoConfig) -> std::result::Result<(), String> {
        let degree = self.adj.degree();
        let Some(f) = self.repr.factorized() else {
            // A direct vertex has no groups and no decimal box to get out
            // of step (both live in the table it lacks).
            if !config.adaptive {
                return Err("direct vertex under a non-adaptive config".to_string());
            }
            if degree > DIRECT_MAX_DEGREE {
                return Err(format!("direct vertex of {degree} edges"));
            }
            let fresh = DirectTotal::of(self.adj.edges());
            if self.repr.direct_total() != Some(fresh) {
                return Err(format!(
                    "cached total {:?} != recomputed {fresh:?}",
                    self.repr.direct_total()
                ));
            }
            return Ok(());
        };
        if self.demotes_at(degree, config) {
            return Err(format!("factorized adaptive vertex of {degree} edges"));
        }
        // 0. The group arena is laid out consistently, and its probe tables
        // — the groups' and the edge index — hold exactly what they should.
        f.groups.check_layout(degree)?;
        f.groups.check_index(degree, dst_of(self.adj.edges()))?;
        // 1. Group cardinalities and memberships match the adjacency biases.
        for g in f.groups.views() {
            let bit = g.bit();
            let expected: Vec<u32> = self
                .adj
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| radix::in_group(f.scaled(e.bias).integer, bit))
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
            .map(|e| f.scaled(e.bias).fraction)
            .sum();
        if (f.decimal_weight() - expected_fraction).abs() > 1e-6 {
            return Err(format!(
                "decimal weight {} != expected {expected_fraction}",
                f.decimal_weight()
            ));
        }
        // 3. The inter-group table exists exactly when there is weight.
        let has_weight = f.total_weight() > 0.0;
        if has_weight != f.groups.has_inter() {
            return Err("inter-group alias table presence mismatch".to_string());
        }
        // 4. Total scaled weight equals λ × total bias.
        let total_bias: f64 = self.adj.edges().iter().map(|e| e.bias.value()).sum();
        if (f.total_weight() - total_bias * f.lambda()).abs() > 1e-6 * (1.0 + total_bias) {
            return Err(format!(
                "total weight {} != lambda × bias total {}",
                f.total_weight(),
                total_bias * f.lambda()
            ));
        }
        Ok(())
    }
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
        let config = BingoConfig::baseline();
        let space = vertex2_space(config);
        assert_eq!(space.num_groups(), 3);
        assert_eq!(space.group(0).cardinality(), 2);
        assert_eq!(space.group(1).cardinality(), 1);
        assert_eq!(space.group(2).cardinality(), 2);
        assert_eq!(space.group(0).weight(), 2.0);
        assert_eq!(space.group(1).weight(), 2.0);
        assert_eq!(space.group(2).weight(), 8.0);
        assert_eq!(space.total_weight(), 12.0);
        assert_eq!(space.lambda(), 1.0);
        space.check_invariants(&config).unwrap();
    }

    #[test]
    fn theorem_4_1_sampling_distribution_is_preserved() {
        for config in [BingoConfig::default(), BingoConfig::baseline()] {
            let space = vertex2_space(config);
            let mut rng = Pcg64::seed_from_u64(42);
            let freq =
                empirical_distribution(|r| space.sample_index(r).unwrap(), 3, 300_000, &mut rng);
            let expected = normalized_biases(&space);
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
        let config = BingoConfig::default();
        let space = VertexSpace::build(AdjacencyList::new(), config);
        let mut rng = Pcg64::seed_from_u64(1);
        assert_eq!(space.sample_index(&mut rng), None);
        assert_eq!(space.total_weight(), 0.0);
        space.check_invariants(&config).unwrap();
    }

    #[test]
    fn streaming_insert_matches_paper_figure_5() {
        // Insert edge (2, 3, 3): bias 3 = 2^0 + 2^1, so groups 2^0 and 2^1
        // each gain the new neighbor index 3.
        let config = BingoConfig::baseline();
        let mut space = vertex2_space(config);
        space.insert(3, Bias::from_int(3), &config).unwrap();
        assert_eq!(space.degree(), 4);
        assert_eq!(space.group(0).cardinality(), 3);
        assert_eq!(space.group(1).cardinality(), 2);
        assert_eq!(space.group(2).cardinality(), 2);
        assert_eq!(space.total_weight(), 15.0);
        space.check_invariants(&config).unwrap();

        // Distribution still matches the biases.
        let mut rng = Pcg64::seed_from_u64(3);
        let freq = empirical_distribution(|r| space.sample_index(r).unwrap(), 4, 200_000, &mut rng);
        assert!(max_abs_deviation(&freq, &normalized_biases(&space)) < 0.01);
    }

    #[test]
    fn streaming_delete_matches_paper_figure_6() {
        // Delete edge (2, 1, 5): groups 2^0 and 2^2 lose neighbor index 0.
        let config = BingoConfig::baseline();
        let mut space = vertex2_space(config);
        let (removed, outcome) = space.delete(1, &config).unwrap();
        assert_eq!(outcome.deleted, 1);
        assert_eq!(outcome.inter_rebuilds, 1);
        assert_eq!(removed.dst, 1);
        assert_eq!(removed.bias.value(), 5.0);
        assert_eq!(space.degree(), 2);
        assert_eq!(space.group(0).cardinality(), 1);
        assert_eq!(space.group(1).cardinality(), 1);
        assert_eq!(space.group(2).cardinality(), 1);
        assert_eq!(space.total_weight(), 7.0);
        space.check_invariants(&config).unwrap();
        // Deleting a missing edge fails cleanly.
        assert!(space.delete(1, &config).is_err());
    }

    #[test]
    fn insert_then_delete_round_trips() {
        let config = BingoConfig::default();
        let mut space = vertex2_space(config);
        let before = space.total_weight();
        space.insert(3, Bias::from_int(6), &config).unwrap();
        space.delete(3, &config).unwrap();
        assert_eq!(space.total_weight(), before);
        assert_eq!(space.degree(), 3);
        space.check_invariants(&config).unwrap();
    }

    #[test]
    fn invalid_operations_are_rejected() {
        let config = BingoConfig::default();
        let mut space = vertex2_space(config);
        assert!(space.delete(99, &config).is_err());
        assert!(space.delete_at(17, &config).is_err());
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
                space.insert(9, invalid, &config),
                Err(BingoError::InvalidBias { dst: 9 })
            );
            assert_eq!(
                space.update_bias(1, invalid, &config),
                Err(BingoError::InvalidBias { dst: 1 })
            );
            assert_eq!(space.apply_batch(&[(9, invalid)], &[], &config).inserted, 0);
        }
        assert_eq!(space.degree(), 3);
        space.check_invariants(&config).unwrap();
    }

    #[test]
    fn update_bias_changes_distribution() {
        let config = BingoConfig::default();
        let mut space = vertex2_space(config);
        space.update_bias(4, Bias::from_int(100), &config).unwrap();
        space.check_invariants(&config).unwrap();
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
        // The biases of the §4.3 example. The paper scales them by λ = 10
        // (`bingo-graph`'s `bias.rs` pins that arithmetic); the engine
        // doubles λ from 2 until the decimal group's share falls below
        // 1 / degree: at λ = 4 the remainders 0.216 + 0.904 + 0.28 are 1.4
        // of 6.4.
        let mut adj = AdjacencyList::new();
        adj.push(Edge::new(1, Bias::from_float(0.554)));
        adj.push(Edge::new(4, Bias::from_float(0.726)));
        adj.push(Edge::new(5, Bias::from_float(0.32)));
        let config = BingoConfig::baseline();
        let space = VertexSpace::build(adj, config);
        assert_eq!(space.lambda(), 4.0);
        // Integer parts 2, 2, 1 → groups 2^0 {1}, 2^1 {2, 2}.
        assert_eq!(space.num_groups(), 2);
        assert_eq!(space.group(0).cardinality(), 1);
        assert_eq!(space.group(1).cardinality(), 2);
        assert_eq!(space.decimal_group().cardinality(), 3);
        assert!((space.decimal_group().weight() - 1.4).abs() < 1e-9);
        space.check_invariants(&config).unwrap();

        // Theorem 4.1 still holds with the decimal group in play.
        let mut rng = Pcg64::seed_from_u64(5);
        let freq = empirical_distribution(|r| space.sample_index(r).unwrap(), 3, 300_000, &mut rng);
        assert!(max_abs_deviation(&freq, &normalized_biases(&space)) < 0.01);
    }

    #[test]
    fn auto_lambda_keeps_decimal_group_small() {
        let mut adj = AdjacencyList::new();
        for i in 0..20u32 {
            adj.push(Edge::new(i, Bias::from_float(0.05 + 0.01 * i as f64)));
        }
        let config = BingoConfig::default();
        let space = VertexSpace::build(adj, config);
        assert!(space.lambda() > 1.0);
        let share = space.decimal_group().weight() / space.total_weight();
        assert!(share < 1.0 / 20.0, "decimal share {share} too large");
        space.check_invariants(&config).unwrap();
    }

    #[test]
    fn float_insert_into_integer_space_triggers_full_rebuild() {
        let config = BingoConfig::baseline();
        let mut space = vertex2_space(config);
        assert_eq!(space.lambda(), 1.0);
        let rebuilds_before = space.full_rebuilds();
        space.insert(3, Bias::from_float(0.5), &config).unwrap();
        assert!(space.full_rebuilds() > rebuilds_before);
        assert!(space.lambda() > 1.0);
        space.check_invariants(&config).unwrap();
        let mut rng = Pcg64::seed_from_u64(9);
        let freq = empirical_distribution(|r| space.sample_index(r).unwrap(), 4, 200_000, &mut rng);
        assert!(max_abs_deviation(&freq, &normalized_biases(&space)) < 0.01);
    }

    #[test]
    fn the_decimal_box_goes_when_the_last_fraction_does() {
        let config = BingoConfig::baseline();
        let has_box = |space: &VertexSpace| {
            let factorized = space.repr.factorized().expect("baseline factorizes");
            factorized.groups.fixed.decimal.is_some()
        };
        let mut space = vertex2_space(config);
        assert!(!has_box(&space));
        space.insert(3, Bias::from_float(0.25), &config).unwrap();
        space.insert(0, Bias::from_float(0.75), &config).unwrap();
        assert_eq!(space.decimal_group().cardinality(), 2);
        space.delete(3, &config).unwrap();
        assert!(has_box(&space));
        space.apply_batch(&[], &[0], &config);
        assert!(!has_box(&space));
        assert_eq!(space.memory_report().decimal_bytes, 0);
        space.check_invariants(&config).unwrap();
    }

    #[test]
    fn adaptive_classification_creates_dense_and_one_element_groups() {
        // 20 edges (a factorized vertex), 19 odd biases (dense 2^0 group),
        // one huge bias for a one-element group.
        let mut adj = AdjacencyList::new();
        for i in 0..19u32 {
            adj.push(Edge::new(i, Bias::from_int(2 * u64::from(i) + 1)));
        }
        adj.push(Edge::new(19, Bias::from_int(1 << 12)));
        let config = BingoConfig::default();
        let space = VertexSpace::build(adj, config);
        assert!(!space.is_direct());
        assert_eq!(space.group(0).kind(), GroupKind::Dense);
        assert_eq!(space.group(12).kind(), GroupKind::OneElement);
        space.check_invariants(&config).unwrap();

        // Distribution must still match despite the dense representation.
        let mut rng = Pcg64::seed_from_u64(13);
        let freq =
            empirical_distribution(|r| space.sample_index(r).unwrap(), 20, 400_000, &mut rng);
        assert!(max_abs_deviation(&freq, &normalized_biases(&space)) < 0.01);
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
        let config = BingoConfig::baseline();
        let mut space = vertex2_space(config);
        let rebuilds_before = space.inter_rebuilds();
        let outcome = space.apply_batch(
            &[
                (3, Bias::from_int(3)),
                (0, Bias::from_int(7)),
                (5, Bias::from_int(2)),
            ],
            &[1, 4, 99],
            &config,
        );
        assert_eq!(outcome.inserted, 3);
        assert_eq!(outcome.deleted, 2);
        assert_eq!(outcome.missing_deletes, 1);
        assert_eq!(space.degree(), 4);
        // Exactly one inter-group rebuild for the whole batch.
        assert_eq!(space.inter_rebuilds(), rebuilds_before + 1);
        space.check_invariants(&config).unwrap();

        let mut rng = Pcg64::seed_from_u64(21);
        let freq = empirical_distribution(|r| space.sample_index(r).unwrap(), 4, 200_000, &mut rng);
        assert!(max_abs_deviation(&freq, &normalized_biases(&space)) < 0.01);
    }

    #[test]
    fn batch_deleting_duplicate_edges_removes_both_copies() {
        let mut adj = AdjacencyList::new();
        adj.push(Edge::new(1, Bias::from_int(2)));
        adj.push(Edge::new(1, Bias::from_int(4)));
        adj.push(Edge::new(2, Bias::from_int(8)));
        let config = BingoConfig::default();
        let mut space = VertexSpace::build(adj, config);
        let outcome = space.apply_batch(&[], &[1, 1], &config);
        assert_eq!(outcome.deleted, 2);
        assert_eq!(space.degree(), 1);
        space.check_invariants(&config).unwrap();
    }

    #[test]
    fn batch_with_everything_deleted_leaves_empty_space() {
        let config = BingoConfig::default();
        let mut space = vertex2_space(config);
        let outcome = space.apply_batch(&[], &[1, 4, 5], &config);
        assert_eq!(outcome.deleted, 3);
        assert_eq!(space.degree(), 0);
        assert_eq!(space.total_weight(), 0.0);
        let mut rng = Pcg64::seed_from_u64(2);
        assert_eq!(space.sample_index(&mut rng), None);
        space.check_invariants(&config).unwrap();
    }

    #[test]
    fn conversions_are_recorded_when_groups_change_kind() {
        // Start with every edge in one (dense) group, then grow the degree
        // so the same group must become regular/sparse.
        let mut adj = AdjacencyList::new();
        for i in 0..20u32 {
            adj.push(Edge::new(i, Bias::from_int(1)));
        }
        let config = BingoConfig::default();
        let mut space = VertexSpace::build(adj, config);
        assert_eq!(space.group(0).kind(), GroupKind::Dense);
        let mut total = VertexUpdateOutcome::default();
        for i in 20..400u32 {
            total.merge(&space.insert(i, Bias::from_int(2), &config).unwrap());
        }
        // Group 2^0 now holds 20 of 400 edges (5%) → sparse.
        assert_eq!(space.group(0).kind(), GroupKind::Sparse);
        assert!(total.conversions.total_conversions() > 0);
        assert_eq!(total.inserted, 380);
        assert_eq!(total.inter_rebuilds, 380);
        space.check_invariants(&config).unwrap();
    }

    #[test]
    fn memory_report_counts_every_group() {
        let space = vertex2_space(BingoConfig::baseline());
        let report = space.memory_report();
        assert_eq!(report.direct_vertices, 0);
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
    fn a_direct_vertex_is_its_adjacency_and_48_inline_bytes() {
        assert_eq!(std::mem::size_of::<VertexSpace>(), 48);
        // The fat pointer to the table, tag and rebuild counter beside it.
        assert_eq!(std::mem::size_of::<Repr>(), 24);
        let space = vertex2_space(BingoConfig::default());
        assert!(space.is_direct());
        assert_eq!(space.num_groups(), 0);
        assert_eq!(space.groups().len(), 0);
        assert_eq!(space.decimal_group().cardinality(), 0);
        assert_eq!((space.lambda(), space.total_weight()), (1.0, 12.0));
        assert_eq!((space.inter_rebuilds(), space.full_rebuilds()), (0, 1));
        let report = space.memory_report();
        assert_eq!(report.direct_vertices, 1);
        assert_eq!(report.group_counts, [0; 4]);
        assert_eq!(report.sampling_bytes(), 0);
        assert_eq!(report.adjacency_bytes, space.adjacency().memory_bytes());
        assert_eq!(report.structure_bytes, 48);
    }

    #[test]
    fn a_factorized_sample_reads_two_heap_blocks_and_the_adjacency() {
        use crate::group::BLOCKS_READ;
        let mut rng = Pcg64::seed_from_u64(0xB10C);
        let space = regular_hub(1024, &mut rng);
        let table = space.groups_table();
        // What the space holds: the table (the `Arc`'s counts, fixed fields
        // and headers in one allocation), the arena, the adjacency block.
        let report = space.memory_report();
        assert_eq!(
            report.resident_bytes(),
            48 + 16 + std::mem::size_of_val(table) + table.heap_bytes() + report.adjacency_bytes
        );
        assert_eq!(std::mem::size_of_val(table), 72 + 24 * space.num_groups());
        for _ in 0..1000 {
            BLOCKS_READ.with(|blocks| blocks.borrow_mut().clear());
            space.sample_neighbor(&mut rng).unwrap();
            let read = BLOCKS_READ.with(|blocks| blocks.borrow().clone());
            let edges = space.adjacency().edges().as_ptr() as usize;
            assert_eq!(read.len(), 3, "{read:x?}");
            assert_eq!(read[0], std::ptr::from_ref(table).cast::<u8>() as usize);
            assert_eq!(read[2], edges);
        }
        // A dense group reads no arena word: the table and the adjacency.
        let biases = vec![Bias::from_int(1); 40];
        let dense = space_of(&biases, BingoConfig::default());
        assert_eq!(dense.group(0).kind(), GroupKind::Dense);
        BLOCKS_READ.with(|blocks| blocks.borrow_mut().clear());
        dense.sample_neighbor(&mut rng).unwrap();
        assert_eq!(BLOCKS_READ.with(|blocks| blocks.borrow().len()), 2);
    }

    /// An RNG that replays `words` and then panics: what a test needs to
    /// steer a draw down one path.
    struct Scripted(std::vec::IntoIter<u64>);

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("the script covers every draw")
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unreachable!("no draw fills bytes")
        }
        fn try_fill_bytes(&mut self, _: &mut [u8]) -> std::result::Result<(), rand::Error> {
            unreachable!("no draw fills bytes")
        }
    }

    /// The word `gen_range(0..n)` turns into `i` (a widening multiply).
    fn word_for(i: usize, n: usize) -> u64 {
        (((i as u128) << 64).div_ceil(n as u128)) as u64
    }

    #[test]
    fn a_dense_draw_that_misses_every_try_scans_for_the_rth_member() {
        // 40 edges, all but the first in group 2^0: dense, and a try that
        // lands on edge 0 misses it.
        let biases: Vec<Bias> = (0..40u64)
            .map(|i| Bias::from_int(2 + u64::from(i > 0)))
            .collect();
        let space = space_of(&biases, BingoConfig::default());
        assert_eq!(space.group(0).kind(), GroupKind::Dense);
        let f = space.repr.factorized().expect("40 edges factorize");
        let edges = space.adjacency().edges();
        // A try that lands on a member returns it at once.
        let mut hit = Scripted(vec![0, 0, word_for(7, 40)].into_iter());
        assert_eq!(f.sample_dense(0, edges, &mut hit), Some(7));
        assert_eq!(hit.0.len(), 0);
        // DENSE_TRIES misses, then the r-th of the 39 members, by one scan.
        for r in 0..39 {
            let mut words = vec![0; DENSE_TRIES];
            words.push(word_for(r, 39));
            let mut miss = Scripted(words.into_iter());
            assert_eq!(f.sample_dense(0, edges, &mut miss), Some(r + 1));
            assert_eq!(miss.0.len(), 0);
        }
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
        assert!(space.groups_table().is_wide());
    }

    #[test]
    fn streaming_updates_on_a_narrow_hub_relocate_o_k_words_per_event() {
        let space = hub_relocates_o_k_words_per_event(1 << 15);
        assert!(!space.groups_table().is_wide());
    }

    fn hub_relocates_o_k_words_per_event(degree: u32) -> VertexSpace {
        let config = BingoConfig::default();
        use rand::Rng;
        const EVENTS: u32 = 10_000;
        let mut rng = Pcg64::seed_from_u64(0x4B);
        let mut space = regular_hub(degree, &mut rng);
        let k = space.num_groups() as u64;
        // Words the groups occupy before the first event.
        let built = space.groups_table().arena_capacity() as u64;
        let mut total = VertexUpdateOutcome::default();

        for i in 0..EVENTS {
            let outcome = space
                .insert(degree + i, quarter_bits_bias(&mut rng), &config)
                .unwrap();
            total.merge(&outcome);
            if i % 1000 == 0 {
                space.check_invariants(&config).unwrap();
            }
        }
        for i in 0..EVENTS {
            let idx = rng.gen_range(0..space.degree());
            total.merge(&space.delete_at(idx, &config).unwrap().1);
            if i % 1000 == 0 {
                space.check_invariants(&config).unwrap();
            }
        }
        space.check_invariants(&config).unwrap();
        assert_eq!(total.full_rebuilds, 0);

        // The exact-size build leaves no room, so the first touches move
        // every segment once and squeeze the holes out once (a few times
        // what was built). From then on segments have headroom and an event
        // moves a bounded number of words per group, amortised — an `O(d)`
        // shift per event would be three orders of magnitude over this.
        let relocated = total.arena_words_moved;
        let events = 2 * u64::from(EVENTS);
        assert!(
            relocated <= 6 * built + 32 * k * events,
            "{relocated} words relocated over {events} events on {k} groups ({built} words built)"
        );
        space
    }

    /// Each edge's bias divided by the sum of the adjacency list's biases,
    /// in neighbor order: the transition probabilities samples are tested
    /// against (Theorem 4.1). It reads none of the radix groups, the
    /// decimal group or the alias tables.
    fn normalized_biases(space: &VertexSpace) -> Vec<f64> {
        let edges = space.adjacency().edges();
        let total: f64 = edges.iter().map(|e| e.bias.value()).sum();
        edges.iter().map(|e| e.bias.value() / total).collect()
    }

    /// Draw 200 000 samples, bin them by neighbor index modulo 64 and hold
    /// the chi-square against [`normalized_biases`] at the 99.9 % level.
    fn assert_samples_match_exact_probabilities(space: &VertexSpace, rng: &mut Pcg64) {
        use bingo_sampling::stats::{chi_square, chi_square_critical_999};
        const BINS: usize = 64;
        let mut expected = [0.0; BINS];
        for (idx, p) in normalized_biases(space).into_iter().enumerate() {
            expected[idx % BINS] += p;
        }
        let mut observed = [0usize; BINS];
        for _ in 0..200_000 {
            observed[space.sample_index(rng).unwrap() % BINS] += 1;
        }
        let chi2 = chi_square(&observed, &expected);
        // A single bin leaves nothing to deviate: any positive bound holds.
        let occupied = expected.iter().filter(|&&p| p > 0.0).count();
        assert!(
            chi2 < chi_square_critical_999(occupied.max(2) - 1),
            "chi-square {chi2} at degree {}",
            space.degree()
        );
    }

    #[test]
    fn a_hub_crossing_the_narrow_limit_is_promoted_once_and_never_flip_flops() {
        let config = BingoConfig::default();
        use rand::Rng;
        const LIMIT: u32 = u16::MAX as u32;
        let mut rng = Pcg64::seed_from_u64(0x16);
        let mut space = regular_hub(LIMIT - 2, &mut rng);
        assert!(!space.groups_table().is_wide());
        assert_samples_match_exact_probabilities(&space, &mut rng);
        let arena_bytes = |space: &VertexSpace| {
            let report = space.memory_report();
            report.sparse_bytes + report.regular_bytes + report.index_bytes
        };
        // An exact-size build: the arena is the segments, at two bytes a word.
        assert_eq!(
            arena_bytes(&space),
            2 * space.groups_table().arena_capacity()
        );

        // Inserts across the limit: the one that reaches it rebuilds the
        // space with wide words, the others stream.
        let rebuilds = space.full_rebuilds();
        for dst in LIMIT - 2..LIMIT + 4 {
            let was_wide = space.groups_table().is_wide();
            let outcome = space
                .insert(dst, quarter_bits_bias(&mut rng), &config)
                .unwrap();
            space.check_invariants(&config).unwrap();
            let promoted = space.groups_table().is_wide() && !was_wide;
            assert_eq!(promoted, space.degree() == LIMIT as usize);
            assert_eq!(outcome.full_rebuilds, u32::from(promoted));
            if promoted {
                assert_eq!(
                    arena_bytes(&space),
                    4 * space.groups_table().arena_capacity()
                );
            }
        }
        assert!(space.groups_table().is_wide());
        assert_eq!(space.full_rebuilds(), rebuilds + 1);
        assert_samples_match_exact_probabilities(&space, &mut rng);

        // Deletes back below the limit stream too: no demotion, no rebuild.
        while space.degree() > LIMIT as usize - 6 {
            let idx = rng.gen_range(0..space.degree());
            space.delete_at(idx, &config).unwrap();
            space.check_invariants(&config).unwrap();
        }
        // ... and so does a hub hovering at the limit.
        for round in 0..4 {
            while space.degree() < LIMIT as usize + 2 {
                space
                    .insert(round, quarter_bits_bias(&mut rng), &config)
                    .unwrap();
            }
            space.check_invariants(&config).unwrap();
            while space.degree() > LIMIT as usize - 2 {
                space.delete_at(0, &config).unwrap();
            }
            space.check_invariants(&config).unwrap();
        }
        assert!(space.groups_table().is_wide());
        assert_eq!(space.full_rebuilds(), rebuilds + 1);
        assert_samples_match_exact_probabilities(&space, &mut rng);

        // A rebuild from scratch (here: the first fractional bias, which
        // takes λ above 1) keeps the words wide while the degree is 2^15 or
        // more (`group.rs` tests the demotion below it).
        while space.degree() > 1 << 15 {
            space.delete_at(space.degree() - 1, &config).unwrap();
        }
        space.insert(7, Bias::from_float(2.5), &config).unwrap();
        assert_eq!(space.full_rebuilds(), rebuilds + 2);
        assert_eq!(space.degree(), (1 << 15) + 1);
        assert!(space.groups_table().is_wide());
        space.check_invariants(&config).unwrap();
    }

    #[test]
    fn a_batch_that_crosses_the_narrow_limit_rebuilds_once() {
        let config = BingoConfig::default();
        const LIMIT: u32 = u16::MAX as u32;
        let mut rng = Pcg64::seed_from_u64(0x17);
        let mut space = regular_hub(LIMIT - 3, &mut rng);
        let inserts: Vec<(VertexId, Bias)> = (0..8)
            .map(|i| (LIMIT + i, quarter_bits_bias(&mut rng)))
            .collect();
        let outcome = space.apply_batch(&inserts, &[0, 1, 2], &config);
        assert_eq!((outcome.inserted, outcome.deleted), (8, 3));
        assert_eq!(outcome.full_rebuilds, 1);
        assert_eq!(space.degree(), LIMIT as usize + 2);
        assert!(space.groups_table().is_wide());
        space.check_invariants(&config).unwrap();
        assert_samples_match_exact_probabilities(&space, &mut rng);
    }

    #[test]
    fn delete_heavy_churn_hands_arena_holes_back() {
        let config = BingoConfig::default();
        use rand::Rng;
        let mut rng = Pcg64::seed_from_u64(0xD1);
        let mut space = regular_hub(4096, &mut rng);
        // Grow first, so relocations leave holes behind, then delete nine
        // edges in ten.
        for i in 0..2048 {
            space
                .insert(4096 + i, quarter_bits_bias(&mut rng), &config)
                .unwrap();
        }
        while space.degree() > 600 {
            let idx = rng.gen_range(0..space.degree());
            space.delete_at(idx, &config).unwrap();
        }
        space.check_invariants(&config).unwrap();
        // A listed group's members and the probe table over them, and the
        // edge index over the whole list.
        let table = |entries: usize| entries + entries / 2 + 1;
        let live: usize = space
            .groups()
            .map(|g| match g.kind() {
                GroupKind::Sparse | GroupKind::Regular => g.cardinality() + table(g.cardinality()),
                _ => 0,
            })
            .sum::<usize>()
            + table(space.degree());
        assert!(live > table(space.degree()));
        // A compaction fires once the arena holds half the live words (and
        // 16) beyond them.
        let capacity = space.groups_table().arena_capacity();
        assert!(
            capacity <= live + live / 2 + 16,
            "arena holds {capacity} words for {live} live ones"
        );
    }

    /// FNV-1a over every field of a factorized vertex's table.
    fn layout_hash(f: &Factorized) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for word in f.groups.layout_words() {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Every field a build from scratch writes — headers, arena words, edge
    /// index, width, λ, the inter-group table and the decimal group — hashed
    /// over seeded adjacency lists. The constants were recorded on the build
    /// that walked every set bit of every bias and wrote one word at a time;
    /// any later build must produce the same tables.
    #[test]
    fn rebuilt_tables_are_pinned() {
        use bingo_graph::generators::BiasDistribution;
        use rand::Rng;
        let mut rng = Pcg64::seed_from_u64(0x9A7);
        // Destinations repeat: the edge index keeps duplicate keys.
        let mut edges = |degree: usize, bias: &dyn Fn(&mut Pcg64) -> Bias| -> Vec<Edge> {
            (0..degree)
                .map(|_| {
                    let dst = rng.gen_range(0..2 * degree as VertexId);
                    Edge::new(dst, bias(&mut rng))
                })
                .collect()
        };
        let power_law = |rng: &mut Pcg64| {
            let dist = BiasDistribution::PowerLaw {
                alpha: 1.6,
                max: 4096,
            };
            dist.sample(rng, 0)
        };
        let float = |rng: &mut Pcg64| Bias::from_float(rng.gen_range(0.05..40.0));
        // Bit 0 on 45 of 100 edges (dense), bit 1 on 20 (regular), bit 2 on
        // 5 (sparse), bit 3 on none (empty), bit 4 on one (one-element),
        // bit 5 on all.
        let five_kinds: Vec<Edge> = (0..100u32)
            .map(|i| {
                let mut w = 1 << 5 | u64::from(i < 45) | u64::from(i % 5 == 0) << 1;
                w |= u64::from(i % 20 == 3) << 2 | u64::from(i == 99) << 4;
                Edge::new(i * 7 % 61, Bias::from_int(w))
            })
            .collect();
        let (adaptive, baseline) = (BingoConfig::default(), BingoConfig::baseline());
        let mut hashes = Vec::new();
        let mut pin = |f: &Factorized| hashes.push(layout_hash(f));
        let rebuilt = |prev, edges: &[Edge], config| {
            let list: AdjacencyList = edges.iter().copied().collect();
            Factorized::rebuilt(prev, list.edges(), config)
        };

        for degree in [17, 300, 3000] {
            let list = edges(degree, &power_law);
            pin(&rebuilt(None, &list, &adaptive));
            pin(&rebuilt(None, &list, &baseline));
        }
        let list = edges(500, &float);
        let f = rebuilt(None, &list, &adaptive);
        assert!(f.lambda() > 1.0 && f.groups.fixed.decimal.is_some());
        pin(&f);

        let f = rebuilt(None, &five_kinds, &adaptive);
        let kinds: Vec<GroupKind> = f.groups.views().map(|g| g.kind()).collect();
        for kind in GroupKind::all().into_iter().chain([GroupKind::Empty]) {
            assert!(kinds.contains(&kind), "no {kind:?} group in {kinds:?}");
        }
        pin(&f);

        // Promotion to wide at 2^16 − 1 edges, a rebuild that keeps the
        // table wide above 2^15 and one that takes it narrow below.
        let hub = edges(u16::MAX as usize, &power_law);
        let wide = rebuilt(None, &hub, &adaptive);
        assert!(wide.groups.is_wide());
        pin(&wide);
        let still_wide = rebuilt(Some(wide), &hub[..40_000], &adaptive);
        assert!(still_wide.groups.is_wide());
        pin(&still_wide);
        let narrow = rebuilt(Some(still_wide), &hub[..30_000], &adaptive);
        assert!(!narrow.groups.is_wide());
        pin(&narrow);

        let pinned = [
            0xe409_a7f5_c693_05f2, // power law, 17 edges
            0xe922_0607_3f33_9f22, //   all regular
            0xefa7_487d_00c9_e8a8, // power law, 300 edges
            0xabcb_d70b_a5b2_1169, //   all regular
            0x154c_28fd_03a4_e815, // power law, 3 000 edges
            0xcc98_9fa9_a85d_fef3, //   all regular
            0xcb8f_c8b2_4a51_b204, // float biases, λ > 1
            0xa7e9_b11e_35cf_7378, // all five kinds
            0xfe08_7e2e_026f_338c, // 2^16 − 1 edges: wide
            0x4bdb_150b_5788_3aa4, //   rebuilt at 40 000: still wide
            0xc523_8080_72b5_61a3, //   rebuilt at 30 000: narrow
        ];
        assert_eq!(hashes, pinned);
    }

    /// A vertex of `biases.len()` edges to destinations `0, 1, ...`.
    fn space_of(biases: &[Bias], config: BingoConfig) -> VertexSpace {
        let edges = biases
            .iter()
            .enumerate()
            .map(|(dst, &bias)| Edge::new(dst as VertexId, bias));
        VertexSpace::build(edges.collect(), config)
    }

    /// Integer, fractional, or — every third edge — one among the other.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Biases {
        Integer,
        Float,
        Mixed,
    }

    impl Biases {
        fn draw(self, nth: u32, rng: &mut Pcg64) -> Bias {
            use rand::Rng;
            if self == Biases::Float || (self == Biases::Mixed && nth.is_multiple_of(3)) {
                Bias::from_float(rng.gen_range(0.05..40.0))
            } else {
                Bias::from_int(rng.gen_range(1..=4095u64))
            }
        }
    }

    #[test]
    fn a_vertex_changes_representation_once_per_crossing_and_never_in_between() {
        for biases in [Biases::Integer, Biases::Float, Biases::Mixed] {
            let mut rng = Pcg64::seed_from_u64(0x17);
            let mut draws = Pcg64::seed_from_u64(0x71);
            let config = BingoConfig::default();
            let mut space = space_of(&[], config);
            let mut next_dst = 0;
            // One event, its invariants, and whether it rebuilt the space.
            let mut step = |space: &mut VertexSpace, insert: bool| {
                let outcome = if insert {
                    next_dst += 1;
                    let bias = biases.draw(next_dst, &mut rng);
                    space.insert(next_dst, bias, &config).unwrap()
                } else {
                    space.delete_at(space.degree() / 2, &config).unwrap().1
                };
                space.check_invariants(&config).unwrap();
                assert_eq!(outcome.inter_rebuilds, u32::from(!space.is_direct()));
                outcome.full_rebuilds
            };
            assert!(space.is_direct());
            assert_eq!(space.full_rebuilds(), 1);

            // 0 -> 17: direct all the way up, factorized by the 17th insert.
            for degree in 1..=DIRECT_MAX_DEGREE + 1 {
                let rebuilt = step(&mut space, true);
                assert_eq!(space.is_direct(), degree <= DIRECT_MAX_DEGREE);
                assert_eq!(rebuilt, u32::from(degree == DIRECT_MAX_DEGREE + 1));
            }
            // 17 -> 8: factorized all the way down, direct by the delete
            // that reaches 8.
            for degree in (DIRECT_DEMOTE_DEGREE..=DIRECT_MAX_DEGREE).rev() {
                let rebuilt = step(&mut space, false);
                assert_eq!(space.is_direct(), degree == DIRECT_DEMOTE_DEGREE);
                assert_eq!(rebuilt, u32::from(degree == DIRECT_DEMOTE_DEGREE));
            }
            assert_eq!(space.full_rebuilds(), 3);
            // Hovering between 9 and 16 moves nothing, whichever way the
            // vertex came in: direct now ...
            let hover =
                |space: &mut VertexSpace, step: &mut dyn FnMut(&mut VertexSpace, bool) -> u32| {
                    for _ in 0..4 {
                        while space.degree() < DIRECT_MAX_DEGREE {
                            assert_eq!(step(space, true), 0);
                        }
                        while space.degree() > DIRECT_DEMOTE_DEGREE + 1 {
                            assert_eq!(step(space, false), 0);
                        }
                    }
                };
            hover(&mut space, &mut step);
            assert!(space.is_direct());
            // ... and factorized after one more crossing.
            while space.degree() <= DIRECT_MAX_DEGREE {
                step(&mut space, true);
            }
            assert_eq!(space.full_rebuilds(), 4);
            assert_eq!(step(&mut space, false), 0);
            hover(&mut space, &mut step);
            assert!(!space.is_direct());
            assert_eq!(space.full_rebuilds(), 4);
            // 9 -> 0 -> 20: one demotion, an empty vertex, one promotion.
            while space.degree() > 0 {
                step(&mut space, false);
            }
            assert_eq!(space.full_rebuilds(), 5);
            assert_eq!(space.total_weight(), 0.0);
            assert_eq!(space.sample_index(&mut draws), None);
            while space.degree() < 20 {
                step(&mut space, true);
            }
            assert!(!space.is_direct());
            assert_eq!(space.full_rebuilds(), 6);
            assert_samples_match_exact_probabilities(&space, &mut draws);
        }
    }

    #[test]
    fn a_batch_that_crosses_a_representation_threshold_rebuilds_once() {
        let mut rng = Pcg64::seed_from_u64(0x18);
        let biases: Vec<Bias> = (0..12).map(|i| Biases::Integer.draw(i, &mut rng)).collect();
        let config = BingoConfig::default();
        let mut space = space_of(&biases, config);
        assert!(space.is_direct());
        // Up: 12 + 9 - 2 = 19 edges.
        let inserts: Vec<(VertexId, Bias)> = (100..109)
            .map(|dst| (dst, Biases::Integer.draw(dst, &mut rng)))
            .collect();
        let outcome = space.apply_batch(&inserts, &[0, 1, 77], &config);
        assert_eq!(
            (outcome.inserted, outcome.deleted, outcome.missing_deletes),
            (9, 2, 1)
        );
        assert_eq!((outcome.full_rebuilds, outcome.inter_rebuilds), (1, 1));
        assert!(!space.is_direct());
        space.check_invariants(&config).unwrap();
        assert_samples_match_exact_probabilities(&space, &mut rng);
        // Level: a factorized vertex keeps its groups current and settles
        // them once.
        let outcome = space.apply_batch(&inserts[..1], &[2], &config);
        assert_eq!((outcome.full_rebuilds, outcome.inter_rebuilds), (0, 1));
        space.check_invariants(&config).unwrap();
        // Down: 19 + 1 - 12 = 8 edges.
        let deletes: Vec<VertexId> = (100..109).chain(3..6).collect();
        let outcome = space.apply_batch(&inserts[..1], &deletes, &config);
        assert_eq!((outcome.inserted, outcome.deleted), (1, 12));
        assert_eq!((outcome.full_rebuilds, outcome.inter_rebuilds), (1, 0));
        assert!(space.is_direct());
        assert_eq!(space.degree(), DIRECT_DEMOTE_DEGREE);
        space.check_invariants(&config).unwrap();
        assert_samples_match_exact_probabilities(&space, &mut rng);
        // Level again: a direct vertex rebuilds nothing at all.
        let outcome = space.apply_batch(&inserts[..4], &[6], &config);
        assert_eq!((outcome.full_rebuilds, outcome.inter_rebuilds), (0, 0));
        assert_eq!(outcome.conversions, ConversionMatrix::new());
        space.check_invariants(&config).unwrap();
        assert_eq!(space.full_rebuilds(), 3);
    }

    #[test]
    fn rewrites_and_emptying_work_in_both_representations() {
        // `baseline()` factorizes at every degree, `default()` not at these.
        for config in [BingoConfig::default(), BingoConfig::baseline()] {
            let mut rng = Pcg64::seed_from_u64(0x19);
            let mut space = space_of(
                &[Bias::from_int(5), Bias::from_int(4), Bias::from_float(1.5)],
                config,
            );
            assert_eq!(space.is_direct(), config.adaptive);
            space.update_bias(1, Bias::from_int(40), &config).unwrap();
            space.update_bias(2, Bias::from_int(3), &config).unwrap();
            space.check_invariants(&config).unwrap();
            assert_eq!(normalized_biases(&space).len(), 3);
            assert_samples_match_exact_probabilities(&space, &mut rng);
            for dst in [0, 2, 1] {
                let (removed, outcome) = space.delete(dst, &config).unwrap();
                assert_eq!((removed.dst, outcome.deleted), (dst, 1));
                space.check_invariants(&config).unwrap();
            }
            assert_eq!((space.degree(), space.total_weight()), (0, 0.0));
            assert_eq!(space.sample_index(&mut rng), None);
            assert_eq!(
                space.delete(0, &config),
                Err(BingoError::EdgeNotFound { dst: 0 })
            );
            space.insert(7, Bias::from_float(0.25), &config).unwrap();
            space.insert(8, Bias::from_int(2), &config).unwrap();
            space.check_invariants(&config).unwrap();
            assert_eq!(space.is_direct(), config.adaptive);
            assert_samples_match_exact_probabilities(&space, &mut rng);
        }
    }

    #[test]
    fn both_representations_sample_the_exact_distribution() {
        for biases in [Biases::Integer, Biases::Float, Biases::Mixed] {
            for degree in [1, 2, DIRECT_DEMOTE_DEGREE, DIRECT_MAX_DEGREE, 40] {
                let mut rng = Pcg64::seed_from_u64(0x1A + degree as u64);
                let drawn: Vec<Bias> = (0..degree as u32)
                    .map(|i| biases.draw(i, &mut rng))
                    .collect();
                let config = BingoConfig::default();
                let space = space_of(&drawn, config);
                assert_eq!(space.is_direct(), degree <= DIRECT_MAX_DEGREE);
                space.check_invariants(&config).unwrap();
                assert_samples_match_exact_probabilities(&space, &mut rng);
            }
        }
    }

    #[test]
    fn a_direct_integer_total_beyond_two_to_53_is_still_drawn_exactly() {
        let mut rng = Pcg64::seed_from_u64(0x1B);
        let shares = [1u64 << 53, 1 << 52, 3 << 51, (1 << 52) + 1, 1 << 50];
        let biases: Vec<Bias> = shares.iter().map(|&w| Bias::from_int(w)).collect();
        let config = BingoConfig::default();
        let mut space = space_of(&biases, config);
        let total: u64 = shares.iter().sum();
        assert!(total > 1 << 53 && total % 2 == 1, "an `f64` cannot hold it");
        assert_eq!(space.repr.direct_total(), Some(DirectTotal::Exact(total)));
        space.check_invariants(&config).unwrap();
        assert_samples_match_exact_probabilities(&space, &mut rng);

        // An invalid bias is refused with the typed error and changes
        // nothing, the cached total included.
        let before = (space.adjacency().clone(), space.repr.direct_total());
        for invalid in [Bias::from_int(0), Bias::from_float(f64::NAN)] {
            assert_eq!(
                space.insert(9, invalid, &config),
                Err(BingoError::InvalidBias { dst: 9 })
            );
            assert_eq!(
                space.update_bias(0, invalid, &config),
                Err(BingoError::InvalidBias { dst: 0 })
            );
            assert_eq!(space.apply_batch(&[(9, invalid)], &[], &config).inserted, 0);
        }
        assert_eq!(
            (space.adjacency().clone(), space.repr.direct_total()),
            before
        );
        space.check_invariants(&config).unwrap();

        // Integers that overflow a `u64` between them fall back to `f64`.
        space.insert(5, Bias::from_int(u64::MAX), &config).unwrap();
        assert!(matches!(space.repr, Repr::Approx { .. }));
        space.check_invariants(&config).unwrap();
        // One fraction does too, and taking it away restores the integers.
        space.delete(5, &config).unwrap();
        space.insert(6, Bias::from_float(0.5), &config).unwrap();
        assert_eq!(
            space.repr.direct_total(),
            Some(DirectTotal::Approx(total as f64 + 0.5))
        );
        space.delete(6, &config).unwrap();
        assert_eq!(space.repr.direct_total(), Some(DirectTotal::Exact(total)));
    }

    #[test]
    fn check_invariants_knows_what_a_direct_vertex_may_hold() {
        let biases: Vec<Bias> = (1..=DIRECT_MAX_DEGREE as u64).map(Bias::from_int).collect();
        let config = BingoConfig::default();
        let space = space_of(&biases, config);
        space.check_invariants(&config).unwrap();

        // A cached total that is not the sum of the biases.
        let mut stale = space.clone();
        let total = biases.iter().map(|b| b.value() as u64).sum::<u64>();
        stale.repr = Repr::direct(DirectTotal::Exact(total + 1), 1);
        assert!(stale
            .check_invariants(&config)
            .unwrap_err()
            .contains("cached total"));
        let mut stale = space.clone();
        stale.adj.push(Edge::new(99, Bias::from_int(1)));
        stale.refresh_direct_total();
        // More edges than a direct vertex may scan.
        assert!(stale
            .check_invariants(&config)
            .unwrap_err()
            .contains("17 edges"));
        // A direct vertex where adaptation is off.
        let baseline = BingoConfig::baseline();
        assert!(space.check_invariants(&baseline).is_err());
        // Groups on a vertex small enough to have dropped them.
        let small = space_of(&biases[..DIRECT_DEMOTE_DEGREE], baseline);
        small.check_invariants(&baseline).unwrap();
        assert!(small
            .check_invariants(&config)
            .unwrap_err()
            .contains("factorized"));
    }
}
