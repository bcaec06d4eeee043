//! The whole-graph Bingo engine.
//!
//! [`BingoEngine`] holds one [`VertexSpace`] per vertex — mirroring the
//! paper's GPU design, which "treats each vertex as an individual object" —
//! and exposes the two functionalities of Figure 3: random-walk sampling
//! queries and graph updates (streaming or batched). Batched updates are
//! grouped by source vertex and applied to all touched vertices in parallel,
//! which is the CPU equivalent of the paper's per-vertex GPU kernels.

use crate::config::BingoConfig;
use crate::context::{ContextProvider, ContextProviderStats};
use crate::memory::MemoryReport;
use crate::stats::{ConversionMatrix, EngineStats};
use crate::vertex_space::{VertexSpace, VertexUpdateOutcome};
use crate::{BingoError, Result};
use bingo_graph::{Bias, DynamicGraph, UpdateBatch, UpdateEvent, VertexId};
use rand::Rng;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Outcome of ingesting a batch of updates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Edges inserted.
    pub inserted: usize,
    /// Edges deleted.
    pub deleted: usize,
    /// Deletions that referenced edges not present in the graph.
    pub missing_deletes: usize,
    /// Vertices whose sampling space was rebuilt from scratch (λ changes, and
    /// vertices crossing between the direct and the factorized
    /// representation).
    pub full_rebuilds: usize,
    /// Number of distinct vertices touched by the batch.
    pub touched_vertices: usize,
}

/// A radix-factorized sampling engine over a dynamic weighted graph.
///
/// An engine normally owns the sampling space of *every* vertex
/// (`vertex_base == 0`). For sharded deployments ([`build_range`] and
/// `bingo-service`), an engine owns a contiguous slice
/// `[vertex_base, vertex_base + spaces.len())` of the vertex-id space: it
/// stores out-edges only for its owned vertices, while destination ids may
/// point anywhere in the global graph of `global_vertices` vertices.
///
/// [`build_range`]: BingoEngine::build_range
#[derive(Debug, Clone)]
pub struct BingoEngine {
    spaces: Vec<VertexSpace>,
    /// Global vertex id of `spaces[0]` (0 for whole-graph engines).
    vertex_base: usize,
    /// Size of the global vertex-id space destinations are validated against.
    global_vertices: usize,
    config: BingoConfig,
    num_edges: usize,
    stats: EngineStats,
    /// Group-representation checks and conversions of every update so far
    /// (Table 4); the spaces report them per update and keep none.
    conversions: ConversionMatrix,
    /// Tally of the fingerprints encoded for the forwarded-context path.
    context: ContextProvider,
    /// The work lists of [`BingoEngine::apply_batch`], empty between
    /// batches and kept for their capacity.
    scratch: BatchScratch,
}

/// Vertices per slice of a spaces array that [`BingoEngine::build_ranges`]
/// hands the pool, from all the ranges in one loop: about a thousand slices
/// on a 2^18-vertex benchmark graph, each some tens of microseconds of work.
const BUILD_CHUNK: usize = 256;

/// What [`BingoEngine::apply_batch`] sorts a batch into.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    /// One key per owned event: local source above the event's position in
    /// the batch.
    keys: Vec<u64>,
    /// Per-vertex insert and delete lists, back to back.
    inserts: Vec<(VertexId, Bias)>,
    deletes: Vec<VertexId>,
    /// (local source, end of its inserts, end of its deletes), ascending.
    runs: Vec<(usize, usize, usize)>,
}

impl BatchScratch {
    fn clear(&mut self) {
        self.keys.clear();
        self.inserts.clear();
        self.deletes.clear();
        self.runs.clear();
    }

    fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.keys) + bytes(&self.inserts) + bytes(&self.deletes) + bytes(&self.runs)
    }
}

impl BingoEngine {
    /// Build the engine from a snapshot of a dynamic graph.
    ///
    /// Per-vertex sampling spaces are constructed in parallel. No edge is
    /// copied: each space takes a handle on its vertex's adjacency block,
    /// and whichever of the graph and the engine writes to a vertex first
    /// while the other is alive copies that one block.
    pub fn build(graph: &DynamicGraph, config: BingoConfig) -> Result<Self> {
        Self::build_range(graph, 0..graph.num_vertices(), config)
    }

    /// Build a shard engine owning the out-edges of the contiguous vertex
    /// range `range` of `graph` (§9.1's 1-D partitioning). The engine only
    /// stores sampling spaces for the owned vertices, but accepts global
    /// destination ids up to `graph.num_vertices()`.
    ///
    /// Queries for non-owned vertices behave as if the vertex were isolated
    /// (`degree` 0, `sample_neighbor` → `None`); mutations of non-owned
    /// sources return [`BingoError::VertexOutOfRange`]. A reversed range,
    /// or one past the graph's vertices, is [`BingoError::InvalidRange`].
    pub fn build_range(
        graph: &DynamicGraph,
        range: Range<usize>,
        config: BingoConfig,
    ) -> Result<Self> {
        let mut engines = Self::build_ranges(graph, std::slice::from_ref(&range), config)?;
        Ok(engines.pop().expect("one engine per range"))
    }

    /// [`BingoEngine::build_range`] for every range of `ranges`, returning
    /// the engines in the same order: a sharded service builds all its
    /// shards with one call. Ranges may be empty and need not be disjoint.
    /// If any range is reversed or runs past the graph's vertices, the
    /// first such one is named in a [`BingoError::InvalidRange`] and
    /// nothing is built.
    ///
    /// Every range gets one array of exactly its size, each space built
    /// into its place. The pool fills the 256-vertex slices of all the
    /// arrays in one loop, so no range waits for the last slice of
    /// the one before it, and no second copy of the spaces is ever handed
    /// out. What a slice holds depends on its vertices alone, not on who
    /// fills it.
    pub fn build_ranges(
        graph: &DynamicGraph,
        ranges: &[Range<usize>],
        config: BingoConfig,
    ) -> Result<Vec<Self>> {
        let global_vertices = graph.num_vertices();
        if let Some(bad) = ranges
            .iter()
            .find(|r| r.start > r.end || r.end > global_vertices)
        {
            return Err(BingoError::InvalidRange {
                range: bad.clone(),
                num_vertices: global_vertices,
            });
        }
        let mut arrays: Vec<Vec<VertexSpace>> = ranges
            .iter()
            .map(|range| {
                let mut spaces = Vec::with_capacity(range.len());
                spaces.resize_with(range.len(), VertexSpace::unbuilt);
                spaces
            })
            .collect();
        arrays
            .iter_mut()
            .zip(ranges)
            .flat_map(|(spaces, range)| {
                let firsts = (range.start..).step_by(BUILD_CHUNK);
                firsts.zip(spaces.chunks_mut(BUILD_CHUNK))
            })
            .into_par_iter()
            .for_each(|(first, slots)| {
                for (v, slot) in (first..).zip(slots) {
                    // A handle on the graph's block, not a copy of it.
                    let adj = graph
                        .neighbors(v as VertexId)
                        .expect("vertex within range")
                        .clone();
                    *slot = VertexSpace::build(adj, config);
                }
            });
        Ok(arrays
            .into_iter()
            .zip(ranges)
            .map(|(spaces, range)| Self::from_spaces(spaces, range.start, global_vertices, config))
            .collect())
    }

    /// Build an engine over an empty graph with `num_vertices` vertices.
    pub fn empty(num_vertices: usize, config: BingoConfig) -> Self {
        let spaces = (0..num_vertices)
            .map(|_| VertexSpace::build(Default::default(), config))
            .collect();
        Self::from_spaces(spaces, 0, num_vertices, config)
    }

    fn from_spaces(
        spaces: Vec<VertexSpace>,
        vertex_base: usize,
        global_vertices: usize,
        config: BingoConfig,
    ) -> Self {
        // Building a space is its first full and inter-group rebuild.
        let stats = EngineStats {
            inter_rebuilds: spaces.iter().map(VertexSpace::inter_rebuilds).sum(),
            full_rebuilds: spaces.iter().map(VertexSpace::full_rebuilds).sum(),
            ..EngineStats::default()
        };
        BingoEngine {
            num_edges: spaces.iter().map(VertexSpace::degree).sum(),
            spaces,
            vertex_base,
            global_vertices,
            config,
            stats,
            conversions: ConversionMatrix::new(),
            context: ContextProvider::default(),
            scratch: BatchScratch::default(),
        }
    }

    /// Fold what an update did to one vertex into the engine-wide rebuild
    /// counters and conversion matrix.
    fn absorb(&mut self, outcome: &VertexUpdateOutcome) {
        self.stats.inter_rebuilds += u64::from(outcome.inter_rebuilds);
        self.stats.full_rebuilds += u64::from(outcome.full_rebuilds);
        self.stats.edges_scanned += outcome.edges_scanned;
        self.conversions.merge(&outcome.conversions);
    }

    /// Number of vertices in the global vertex-id space. Equals the number
    /// of owned vertices for whole-graph engines.
    pub fn num_vertices(&self) -> usize {
        self.global_vertices
    }

    /// Global id of the first owned vertex (0 for whole-graph engines).
    pub fn vertex_base(&self) -> usize {
        self.vertex_base
    }

    /// Number of vertices whose out-edges this engine owns.
    pub fn num_owned(&self) -> usize {
        self.spaces.len()
    }

    /// The contiguous global-id range of owned vertices.
    pub fn owned_range(&self) -> std::ops::Range<usize> {
        self.vertex_base..self.vertex_base + self.spaces.len()
    }

    /// Whether this engine owns vertex `v`'s out-edges.
    #[inline]
    pub fn owns(&self, v: VertexId) -> bool {
        self.local(v).is_some()
    }

    /// Map a global vertex id to the local space index, if owned.
    #[inline]
    fn local(&self, v: VertexId) -> Option<usize> {
        (v as usize)
            .checked_sub(self.vertex_base)
            .filter(|&i| i < self.spaces.len())
    }

    /// Number of directed edges currently present.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The engine configuration.
    pub fn config(&self) -> &BingoConfig {
        &self.config
    }

    /// Aggregate activity statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Out-degree of `v` (0 for out-of-range or non-owned vertices).
    pub fn degree(&self, v: VertexId) -> usize {
        self.local(v).map(|i| self.spaces[i].degree()).unwrap_or(0)
    }

    /// The per-vertex sampling space of `v`.
    pub fn vertex_space(&self, v: VertexId) -> Result<&VertexSpace> {
        self.local(v)
            .map(|i| &self.spaces[i])
            .ok_or(BingoError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.global_vertices,
            })
    }

    /// The space of `v` to change, and the configuration to change it
    /// under.
    fn vertex_space_mut(&mut self, v: VertexId) -> Result<(&mut VertexSpace, &BingoConfig)> {
        let num_vertices = self.global_vertices;
        match self.local(v) {
            Some(i) => Ok((&mut self.spaces[i], &self.config)),
            None => Err(BingoError::VertexOutOfRange {
                vertex: v,
                num_vertices,
            }),
        }
    }

    /// Whether the edge `(src, dst)` exists: one probe of `src`'s edge
    /// index, or a scan of its at most 16 edges if it keeps none.
    pub fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.local(src)
            .is_some_and(|i| self.spaces[i].has_edge(dst))
    }

    /// Bias of the first edge `(src, dst)`, if present.
    pub fn edge_bias(&self, src: VertexId, dst: VertexId) -> Option<f64> {
        let space = &self.spaces[self.local(src)?];
        let idx = space.find(dst)?;
        space.adjacency().edge(idx).map(|e| e.bias.value())
    }

    /// Sample a neighbor of `v` proportionally to the edge biases, in `O(1)`
    /// expected time. Returns `None` for out-of-range or isolated vertices.
    #[inline]
    pub fn sample_neighbor<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> Option<VertexId> {
        self.spaces.get(self.local(v)?)?.sample_neighbor(rng)
    }

    /// Sorted, deduplicated out-neighbor ids of `v` — the compact adjacency
    /// fingerprint a sharded deployment attaches to forwarded second-order
    /// walkers (membership queries against a vertex another shard owns).
    /// Returns `None` when this engine does not own `v`.
    pub fn neighbor_fingerprint(&self, v: VertexId) -> Option<Vec<VertexId>> {
        let space = self.spaces.get(self.local(v)?)?;
        let mut adj: Vec<VertexId> = space.adjacency().edges().iter().map(|e| e.dst).collect();
        adj.sort_unstable();
        adj.dedup();
        Some(adj)
    }

    /// Does nothing: the engine pre-builds no fingerprints (see
    /// [`crate::context`]). Kept for callers that warmed the set it used
    /// to keep.
    pub fn warm_context(&mut self) {}

    /// [`BingoEngine::neighbor_fingerprint`] for the forwarded-context
    /// path: behind an `Arc`, so the caller's cache and every walker it
    /// hands the snapshot to share one copy, and counted. `None` when this
    /// engine does not own `v`.
    pub fn context_fingerprint_shared(&self, v: VertexId) -> Option<Arc<Vec<VertexId>>> {
        let fingerprint = self.neighbor_fingerprint(v)?;
        self.context.count_cold_build();
        Some(Arc::new(fingerprint))
    }

    /// Monotonic activity counters of the fingerprint path.
    pub fn context_provider_stats(&self) -> ContextProviderStats {
        self.context.stats()
    }

    /// Streaming edge insertion (`O(K)` for the affected vertex).
    pub fn insert_edge(&mut self, src: VertexId, dst: VertexId, bias: Bias) -> Result<()> {
        if (dst as usize) >= self.global_vertices {
            return Err(BingoError::VertexOutOfRange {
                vertex: dst,
                num_vertices: self.global_vertices,
            });
        }
        let (space, config) = self.vertex_space_mut(src)?;
        let outcome = space.insert(dst, bias, config)?;
        self.absorb(&outcome);
        self.num_edges += 1;
        self.stats.insertions += 1;
        Ok(())
    }

    /// Streaming edge deletion (`O(K)` for the affected vertex).
    pub fn delete_edge(&mut self, src: VertexId, dst: VertexId) -> Result<()> {
        let (space, config) = self.vertex_space_mut(src)?;
        let (_, outcome) = space.delete(dst, config)?;
        self.absorb(&outcome);
        self.num_edges -= 1;
        self.stats.deletions += 1;
        Ok(())
    }

    /// Streaming bias update of the edge `(src, dst)`.
    pub fn update_bias(&mut self, src: VertexId, dst: VertexId, bias: Bias) -> Result<()> {
        let (space, config) = self.vertex_space_mut(src)?;
        let outcome = space.update_bias(dst, bias, config)?;
        self.absorb(&outcome);
        Ok(())
    }

    /// Add a new isolated vertex and return its id. Vertex insertion is one
    /// of the "other graph updates" of §4.2 that reduce to trivial structure
    /// growth.
    /// # Panics
    ///
    /// Panics on a shard engine whose owned range does not end at the
    /// global vertex count: growing such a shard would claim ids owned by
    /// the next shard. Vertex insertion on sharded deployments belongs to
    /// the last shard (or a re-partitioning), not an interior one.
    pub fn add_vertex(&mut self) -> VertexId {
        assert_eq!(
            self.vertex_base + self.spaces.len(),
            self.global_vertices,
            "add_vertex on an interior shard engine would steal ids from the next shard"
        );
        let space = VertexSpace::build(Default::default(), self.config);
        self.stats.inter_rebuilds += space.inter_rebuilds();
        self.stats.full_rebuilds += space.full_rebuilds();
        self.spaces.push(space);
        self.global_vertices = self.vertex_base + self.spaces.len();
        (self.vertex_base + self.spaces.len() - 1) as VertexId
    }

    /// Delete vertex `v` by removing all of its **out-edges** (the paper
    /// implements vertex deletion through edge deletions). The vertex id
    /// stays valid but isolated; edges pointing *at* `v` from other vertices
    /// are untouched, matching how the 1-D-partitioned GPU implementation
    /// handles it (each owner only touches its own adjacency).
    ///
    /// Returns the number of edges removed.
    pub fn delete_vertex_out_edges(&mut self, v: VertexId) -> Result<usize> {
        let (space, config) = self.vertex_space_mut(v)?;
        let dsts: Vec<VertexId> = space.adjacency().edges().iter().map(|e| e.dst).collect();
        let outcome = space.apply_batch(&[], &dsts, config);
        self.absorb(&outcome);
        self.num_edges -= outcome.deleted;
        self.stats.deletions += outcome.deleted as u64;
        Ok(outcome.deleted)
    }

    /// Apply a single update event in streaming mode.
    pub fn apply_event(&mut self, event: &UpdateEvent) -> Result<()> {
        match *event {
            UpdateEvent::Insert { src, dst, bias } => self.insert_edge(src, dst, bias),
            UpdateEvent::Delete { src, dst } => self.delete_edge(src, dst),
            UpdateEvent::UpdateBias { src, dst, bias } => self.update_bias(src, dst, bias),
        }
    }

    /// Apply every event of a batch one at a time (streaming ingestion).
    /// Deletions of missing edges are skipped. Returns the number of events
    /// applied.
    pub fn apply_streaming(&mut self, batch: &UpdateBatch) -> usize {
        let mut applied = 0;
        for event in batch.events() {
            if self.apply_event(event).is_ok() {
                applied += 1;
            }
        }
        applied
    }

    /// Apply a batch of updates in parallel (§5.2): events are grouped by
    /// source vertex, every touched vertex ingests its insertions and
    /// deletions, and each vertex rebuilds its sampling space exactly once.
    /// The cost depends on the batch, not on how many vertices the engine
    /// owns.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> BatchOutcome {
        // CPU-side reordering step of Figure 10(a). One key per owned event,
        // local source above the event's position in the batch, so a plain
        // sort groups the events by vertex and keeps each vertex's in batch
        // order.
        let events = batch.events();
        assert!(
            events.len() <= u32::MAX as usize,
            "batch positions must fit the low half of a sort key"
        );
        // The lists live on the engine between batches, for their capacity.
        let mut scratch = std::mem::take(&mut self.scratch);
        let BatchScratch {
            keys,
            inserts,
            deletes,
            runs,
        } = &mut scratch;
        for (at, event) in events.iter().enumerate() {
            if let Some(src) = self.local(event.src()) {
                keys.push((src as u64) << 32 | at as u64);
            }
        }
        keys.sort_unstable();

        // Per-vertex work lists, back to back. Every owned source an event
        // names gets a run, whatever becomes of the event: each one
        // rebuilds once.
        for &key in keys.iter() {
            let (src, event) = ((key >> 32) as usize, &events[key as u32 as usize]);
            if runs.last().map(|run| run.0) != Some(src) {
                runs.push((src, 0, 0));
            }
            // Destinations are validated like insert_edge does on the
            // streaming path: an insert to a vertex outside the global id
            // space would create an edge no walk could ever follow.
            let valid_dst = |dst: VertexId| (dst as usize) < self.global_vertices;
            match *event {
                UpdateEvent::Insert { dst, bias, .. } => {
                    if valid_dst(dst) {
                        inserts.push((dst, bias));
                    }
                }
                UpdateEvent::Delete { dst, .. } => deletes.push(dst),
                UpdateEvent::UpdateBias { dst, bias, .. } => {
                    if valid_dst(dst) {
                        deletes.push(dst);
                        inserts.push((dst, bias));
                    }
                }
            }
            let run = runs.last_mut().expect("pushed above");
            (run.1, run.2) = (inserts.len(), deletes.len());
        }

        // Carve the touched spaces out of the owned slice, each with its
        // run of the two lists.
        let mut work = Vec::with_capacity(runs.len());
        let config = &self.config;
        let (mut spaces, mut base) = (&mut self.spaces[..], 0);
        let (mut inserts_from, mut deletes_from) = (0, 0);
        for &(src, inserts_to, deletes_to) in runs.iter() {
            let (space, later_spaces) = std::mem::take(&mut spaces)[src - base..]
                .split_first_mut()
                .expect("touched sources are owned");
            (spaces, base) = (later_spaces, src + 1);
            work.push((
                space,
                &inserts[inserts_from..inserts_to],
                &deletes[deletes_from..deletes_to],
            ));
            (inserts_from, deletes_from) = (inserts_to, deletes_to);
        }

        // Parallel per-vertex ingestion (the GPU kernel launch). The fold is
        // element-wise integer addition, so the chunked tree-combine the
        // `reduce` contract allows is exact. A vertex rebuilds from scratch
        // at most once per batch, so the summed rebuilds count vertices.
        // A low-degree vertex takes about half a microsecond and waking the
        // team about a hundred, so a batch touching fewer than 512 vertices
        // stays on the caller's thread.
        let applied = work
            .into_par_iter()
            .with_min_len(512)
            .map(|(space, inserts, deletes)| space.apply_batch(inserts, deletes, config))
            .reduce(VertexUpdateOutcome::default, |mut a, b| {
                a.merge(&b);
                a
            });
        self.absorb(&applied);
        let total = BatchOutcome {
            inserted: applied.inserted,
            deleted: applied.deleted,
            missing_deletes: applied.missing_deletes,
            full_rebuilds: applied.full_rebuilds as usize,
            touched_vertices: runs.len(),
        };
        self.num_edges += total.inserted;
        self.num_edges -= total.deleted;
        self.stats.insertions += total.inserted as u64;
        self.stats.deletions += total.deleted as u64;
        self.stats.batches += 1;
        scratch.clear();
        self.scratch = scratch;
        total
    }

    /// Aggregate memory report over all vertices (Figure 11).
    ///
    /// The parallel `reduce` requires an associative combine (see the
    /// `rayon` shim docs): [`MemoryReport::merge`] is element-wise integer
    /// addition of byte and group counters, which is associative and
    /// commutative, so the chunked tree-combine is exact.
    pub fn memory_report(&self) -> MemoryReport {
        let mut report = self
            .spaces
            .par_iter()
            .with_min_len(256)
            .map(VertexSpace::memory_report)
            .reduce(MemoryReport::default, |mut a, b| {
                a.merge(&b);
                a
            });
        // Each space counts its own inline bytes; the vector's spare
        // capacity is nobody's but the engine's, and so are the batch work
        // lists it keeps.
        report.structure_bytes += (self.spaces.capacity() - self.spaces.len())
            * std::mem::size_of::<VertexSpace>()
            + self.scratch.heap_bytes();
        report
    }

    /// Aggregate group-conversion statistics (Table 4).
    pub fn conversion_matrix(&self) -> ConversionMatrix {
        self.conversions
    }

    /// Reconstruct a [`DynamicGraph`] snapshot of the engine's current state
    /// (used by tests and by baselines that need a plain graph).
    pub fn snapshot_graph(&self) -> DynamicGraph {
        let mut g = DynamicGraph::new(self.global_vertices);
        for (i, space) in self.spaces.iter().enumerate() {
            let v = (self.vertex_base + i) as VertexId;
            for e in space.adjacency().edges() {
                g.insert_edge(v, e.dst, e.bias)
                    .expect("engine state is a valid graph");
            }
        }
        g
    }

    /// Verify the structural invariants of every vertex space. Intended for
    /// tests; returns the first violation found.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for (i, s) in self.spaces.iter().enumerate() {
            let v = self.vertex_base + i;
            s.check_invariants(&self.config)
                .map_err(|e| format!("vertex {v}: {e}"))?;
        }
        let edges: usize = self.spaces.iter().map(VertexSpace::degree).sum();
        if edges != self.num_edges {
            return Err(format!(
                "edge counter {} != sum of degrees {edges}",
                self.num_edges
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_graph::dynamic_graph::running_example;
    use bingo_graph::generators::{BiasDistribution, GraphGenerator};
    use bingo_graph::updates::{UpdateKind, UpdateStreamBuilder};
    use bingo_sampling::rng::Pcg64;
    use bingo_sampling::stats::{empirical_distribution, max_abs_deviation};
    use rand::SeedableRng;

    fn engine_from_running_example(config: BingoConfig) -> BingoEngine {
        BingoEngine::build(&running_example(), config).unwrap()
    }

    fn random_graph(seed: u64, vertices: usize, edges: usize) -> DynamicGraph {
        let mut rng = Pcg64::seed_from_u64(seed);
        GraphGenerator::ErdosRenyi { vertices, edges }
            .generate(BiasDistribution::UniformInt { lo: 1, hi: 63 }, &mut rng)
    }

    #[test]
    fn build_matches_graph_shape() {
        let engine = engine_from_running_example(BingoConfig::default());
        assert_eq!(engine.num_vertices(), 6);
        assert_eq!(engine.num_edges(), 8);
        assert_eq!(engine.degree(2), 3);
        assert_eq!(engine.degree(5), 0);
        assert!(engine.has_edge(2, 4));
        assert!(!engine.has_edge(4, 2));
        assert_eq!(engine.edge_bias(2, 1), Some(5.0));
        assert_eq!(engine.edge_bias(2, 9), None);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn sampling_distribution_matches_biases() {
        let engine = engine_from_running_example(BingoConfig::default());
        let mut rng = Pcg64::seed_from_u64(1);
        // Vertex 2: neighbors 1, 4, 5 with biases 5, 4, 3.
        let freq = empirical_distribution(
            |r| match engine.sample_neighbor(2, r).unwrap() {
                1 => 0,
                4 => 1,
                5 => 2,
                other => panic!("unexpected neighbor {other}"),
            },
            3,
            300_000,
            &mut rng,
        );
        assert!(max_abs_deviation(&freq, &[5.0 / 12.0, 4.0 / 12.0, 3.0 / 12.0]) < 0.01);
    }

    #[test]
    fn sampling_isolated_or_missing_vertex_returns_none() {
        let engine = engine_from_running_example(BingoConfig::default());
        let mut rng = Pcg64::seed_from_u64(2);
        assert_eq!(engine.sample_neighbor(5, &mut rng), None);
        assert_eq!(engine.sample_neighbor(100, &mut rng), None);
    }

    #[test]
    fn streaming_updates_keep_engine_consistent() {
        let mut engine = engine_from_running_example(BingoConfig::default());
        engine.insert_edge(2, 3, Bias::from_int(3)).unwrap();
        assert_eq!(engine.num_edges(), 9);
        assert!(engine.has_edge(2, 3));
        engine.delete_edge(2, 1).unwrap();
        assert_eq!(engine.num_edges(), 8);
        assert!(!engine.has_edge(2, 1));
        engine.update_bias(2, 4, Bias::from_int(9)).unwrap();
        assert_eq!(engine.edge_bias(2, 4), Some(9.0));
        engine.check_invariants().unwrap();
        assert!(engine.delete_edge(2, 1).is_err());
        assert!(engine.insert_edge(2, 99, Bias::from_int(1)).is_err());
        assert!(engine.insert_edge(99, 2, Bias::from_int(1)).is_err());
    }

    #[test]
    fn streaming_and_batched_ingestion_agree() {
        let graph = random_graph(3, 100, 1200);
        let mut setup = graph.clone();
        let mut rng = Pcg64::seed_from_u64(4);
        let batch =
            UpdateStreamBuilder::new(UpdateKind::Mixed, 300).build(&mut setup, 400, &mut rng);

        let mut streaming = BingoEngine::build(&setup, BingoConfig::default()).unwrap();
        let mut batched = BingoEngine::build(&setup, BingoConfig::default()).unwrap();
        let applied = streaming.apply_streaming(&batch);
        let outcome = batched.apply_batch(&batch);
        assert_eq!(applied, outcome.inserted + outcome.deleted);
        assert_eq!(streaming.num_edges(), batched.num_edges());
        streaming.check_invariants().unwrap();
        batched.check_invariants().unwrap();

        // Per-vertex degrees and destination multisets must agree. (Exact
        // biases can differ when duplicate (src, dst) edges with different
        // biases exist: the paper's batched mode deletes "the earlier
        // version first", which is not always the copy streaming picks.)
        for v in 0..streaming.num_vertices() as VertexId {
            assert_eq!(streaming.degree(v), batched.degree(v), "degree of {v}");
            let dsts = |e: &BingoEngine| {
                let mut d: Vec<VertexId> = e
                    .vertex_space(v)
                    .unwrap()
                    .adjacency()
                    .edges()
                    .iter()
                    .map(|edge| edge.dst)
                    .collect();
                d.sort_unstable();
                d
            };
            assert_eq!(dsts(&streaming), dsts(&batched), "neighbors of {v}");
        }
    }

    #[test]
    fn batched_outcome_counts_are_consistent() {
        let graph = random_graph(5, 60, 600);
        let mut setup = graph.clone();
        let mut rng = Pcg64::seed_from_u64(6);
        let batch =
            UpdateStreamBuilder::new(UpdateKind::Mixed, 200).build(&mut setup, 300, &mut rng);
        let mut engine = BingoEngine::build(&setup, BingoConfig::default()).unwrap();
        let before = engine.num_edges();
        let outcome = engine.apply_batch(&batch);
        assert_eq!(outcome.inserted, batch.num_insertions());
        assert_eq!(
            outcome.deleted + outcome.missing_deletes,
            batch.num_deletions()
        );
        assert_eq!(
            engine.num_edges(),
            before + outcome.inserted - outcome.deleted
        );
        assert!(outcome.touched_vertices > 0);
        assert_eq!(engine.stats().batches, 1);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn sampling_after_updates_matches_new_biases() {
        let mut engine = engine_from_running_example(BingoConfig::default());
        engine.delete_edge(2, 5).unwrap();
        engine.insert_edge(2, 3, Bias::from_int(11)).unwrap();
        // Vertex 2 now has neighbors 1 (5), 4 (4), 3 (11) → total 20.
        let mut rng = Pcg64::seed_from_u64(8);
        let freq = empirical_distribution(
            |r| match engine.sample_neighbor(2, r).unwrap() {
                1 => 0,
                4 => 1,
                3 => 2,
                other => panic!("unexpected neighbor {other}"),
            },
            3,
            300_000,
            &mut rng,
        );
        assert!(max_abs_deviation(&freq, &[0.25, 0.2, 0.55]) < 0.01);
    }

    #[test]
    fn empty_engine_supports_growth() {
        let mut engine = BingoEngine::empty(4, BingoConfig::default());
        assert_eq!(engine.num_edges(), 0);
        engine.insert_edge(0, 1, Bias::from_int(2)).unwrap();
        engine.insert_edge(0, 2, Bias::from_int(2)).unwrap();
        let mut rng = Pcg64::seed_from_u64(10);
        let n = engine.sample_neighbor(0, &mut rng).unwrap();
        assert!(n == 1 || n == 2);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_graph_round_trips() {
        let mut engine = engine_from_running_example(BingoConfig::default());
        engine.insert_edge(4, 0, Bias::from_int(2)).unwrap();
        let snapshot = engine.snapshot_graph();
        assert_eq!(snapshot.num_edges(), engine.num_edges());
        assert!(snapshot.has_edge(4, 0));
        let rebuilt = BingoEngine::build(&snapshot, BingoConfig::default()).unwrap();
        assert_eq!(rebuilt.num_edges(), engine.num_edges());
    }

    #[test]
    fn memory_report_adaptive_smaller_than_baseline() {
        let graph = random_graph(12, 200, 4000);
        let adaptive = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let baseline = BingoEngine::build(&graph, BingoConfig::baseline()).unwrap();
        let a = adaptive.memory_report();
        let b = baseline.memory_report();
        assert!(a.sampling_bytes() < b.sampling_bytes());
        assert!(a.group_counts.iter().sum::<usize>() > 0);
    }

    #[test]
    fn update_bias_events_in_batches() {
        let mut engine = engine_from_running_example(BingoConfig::default());
        let batch = UpdateBatch::new(vec![UpdateEvent::UpdateBias {
            src: 2,
            dst: 4,
            bias: Bias::from_int(40),
        }]);
        let outcome = engine.apply_batch(&batch);
        assert_eq!(outcome.inserted, 1);
        assert_eq!(outcome.deleted, 1);
        assert_eq!(engine.edge_bias(2, 4), Some(40.0));
        assert_eq!(engine.degree(2), 3);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn add_vertex_and_delete_vertex_out_edges() {
        let mut engine = engine_from_running_example(BingoConfig::default());
        let v = engine.add_vertex();
        assert_eq!(v, 6);
        assert_eq!(engine.num_vertices(), 7);
        engine.insert_edge(v, 2, Bias::from_int(3)).unwrap();
        assert_eq!(engine.degree(v), 1);

        // Deleting vertex 2's out-edges empties its space but keeps the id.
        let removed = engine.delete_vertex_out_edges(2).unwrap();
        assert_eq!(removed, 3);
        assert_eq!(engine.degree(2), 0);
        let mut rng = Pcg64::seed_from_u64(1);
        assert_eq!(engine.sample_neighbor(2, &mut rng), None);
        // Edges pointing at vertex 2 are untouched.
        assert!(engine.has_edge(0, 2));
        engine.check_invariants().unwrap();
        // Deleting an already-isolated vertex's edges removes nothing.
        assert_eq!(engine.delete_vertex_out_edges(2).unwrap(), 0);
        assert!(engine.delete_vertex_out_edges(99).is_err());
    }

    #[test]
    fn range_engine_owns_only_its_slice() {
        let graph = random_graph(21, 90, 900);
        let whole = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let mid = BingoEngine::build_range(&graph, 30..60, BingoConfig::default()).unwrap();

        assert_eq!(mid.num_vertices(), 90);
        assert_eq!(mid.num_owned(), 30);
        assert_eq!(mid.vertex_base(), 30);
        assert_eq!(mid.owned_range(), 30..60);
        mid.check_invariants().unwrap();

        let mut owned_edges = 0;
        for v in 0..90u32 {
            if (30..60).contains(&(v as usize)) {
                assert!(mid.owns(v));
                assert_eq!(mid.degree(v), whole.degree(v), "degree of {v}");
                owned_edges += mid.degree(v);
            } else {
                assert!(!mid.owns(v));
                assert_eq!(mid.degree(v), 0);
                let mut rng = Pcg64::seed_from_u64(1);
                assert_eq!(mid.sample_neighbor(v, &mut rng), None);
            }
        }
        assert_eq!(mid.num_edges(), owned_edges);

        // Sampling an owned vertex returns one of its true neighbors.
        let v = (30..60u32).max_by_key(|&v| whole.degree(v)).unwrap();
        if whole.degree(v) > 0 {
            let mut rng = Pcg64::seed_from_u64(2);
            let next = mid.sample_neighbor(v, &mut rng).unwrap();
            assert!(whole.has_edge(v, next));
        }

        // Mutations are accepted for owned sources (global dst ids are fine)
        // and rejected for non-owned sources.
        let mut mid = mid;
        mid.insert_edge(35, 89, Bias::from_int(7)).unwrap();
        assert!(mid.has_edge(35, 89));
        assert!(mid.insert_edge(5, 35, Bias::from_int(1)).is_err());
        mid.check_invariants().unwrap();

        // A snapshot round-trips through the global id space.
        let snap = mid.snapshot_graph();
        assert_eq!(snap.num_vertices(), 90);
        assert!(snap.has_edge(35, 89));
    }

    #[test]
    fn range_engines_partition_all_edges() {
        let graph = random_graph(22, 100, 1500);
        let shards: Vec<BingoEngine> = [0..25, 25..50, 50..75, 75..100]
            .into_iter()
            .map(|r| BingoEngine::build_range(&graph, r, BingoConfig::default()).unwrap())
            .collect();
        let total: usize = shards.iter().map(BingoEngine::num_edges).sum();
        assert_eq!(total, graph.num_edges());
        // Batched updates only touch the owning shard.
        let mut shards = shards;
        let batch = UpdateBatch::new(vec![
            UpdateEvent::Insert {
                src: 10,
                dst: 90,
                bias: Bias::from_int(4),
            },
            UpdateEvent::Insert {
                src: 80,
                dst: 3,
                bias: Bias::from_int(2),
            },
        ]);
        let outcomes: Vec<_> = shards.iter_mut().map(|s| s.apply_batch(&batch)).collect();
        assert_eq!(outcomes[0].inserted, 1);
        assert_eq!(outcomes[1].inserted, 0);
        assert_eq!(outcomes[2].inserted, 0);
        assert_eq!(outcomes[3].inserted, 1);
        assert!(shards[0].has_edge(10, 90));
        assert!(shards[3].has_edge(80, 3));
    }

    #[test]
    fn a_bad_range_is_named_and_an_empty_one_builds() {
        let graph = random_graph(23, 90, 900);
        let config = BingoConfig::default();
        let bad = |range: Range<usize>| {
            Err(BingoError::InvalidRange {
                range,
                num_vertices: 90,
            })
        };
        // Vertices 5 and 10 exist: the range itself is what is wrong.
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 10..5;
        assert_eq!(
            BingoEngine::build_range(&graph, reversed.clone(), config).map(|_| ()),
            bad(reversed.clone())
        );
        assert_eq!(
            BingoEngine::build_range(&graph, 80..91, config).map(|_| ()),
            bad(80..91)
        );
        // The first bad range of several is the one named, and nothing is
        // built.
        let ranges = [0..30, 95..95, reversed.clone(), 30..90];
        assert_eq!(
            BingoEngine::build_ranges(&graph, &ranges, config).map(|_| ()),
            bad(95..95)
        );
        let message = bad(reversed).unwrap_err().to_string();
        assert!(message.contains("10..5 is reversed"), "{message}");

        for range in [0..0, 45..45, 90..90] {
            let empty = BingoEngine::build_range(&graph, range.clone(), config).unwrap();
            assert_eq!((empty.num_owned(), empty.owned_range()), (0, range));
            assert_eq!((empty.num_vertices(), empty.num_edges()), (90, 0));
            empty.check_invariants().unwrap();
        }
        assert!(BingoEngine::build_ranges(&graph, &[], config)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn one_pass_over_four_ranges_builds_what_four_builds_do() {
        let graph = random_graph(24, 1200, 24_000);
        let ranges = [0..300, 300..301, 301..301, 301..1200];
        for config in [BingoConfig::default(), BingoConfig::baseline()] {
            let together = BingoEngine::build_ranges(&graph, &ranges, config).unwrap();
            assert_eq!(together.len(), ranges.len());
            for (engine, range) in together.iter().zip(&ranges) {
                let alone = BingoEngine::build_range(&graph, range.clone(), config).unwrap();
                assert_eq!(engine.owned_range(), *range);
                assert_eq!(engine.num_edges(), alone.num_edges());
                assert_eq!(engine.stats(), alone.stats());
                assert_eq!(engine.memory_report(), alone.memory_report());
                for v in 0..1200 {
                    assert_eq!(engine.degree(v), alone.degree(v), "degree of {v}");
                }
                let stream = |engine: &BingoEngine| {
                    let mut rng = Pcg64::seed_from_u64(25);
                    (0..20_000)
                        .map(|_| {
                            let v = rng.gen_range(range.start..range.end.max(range.start + 1));
                            engine.sample_neighbor(v as VertexId, &mut rng)
                        })
                        .collect::<Vec<_>>()
                };
                assert_eq!(stream(engine), stream(&alone));
                engine.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn context_fingerprints_are_encoded_on_demand_and_follow_updates() {
        let graph = random_graph(31, 120, 2400);
        let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let hub = (0..120u32).max_by_key(|&v| engine.degree(v)).unwrap();

        let fp1 = engine.context_fingerprint_shared(hub).unwrap();
        assert_eq!(Some(fp1.as_ref().clone()), engine.neighbor_fingerprint(hub));
        assert!(fp1.windows(2).all(|pair| pair[0] < pair[1]));
        engine.warm_context();
        let stats = engine.context_provider_stats();
        assert_eq!((stats.hot_hits, stats.cold_builds), (0, 1));

        // Streamed and batched updates both show in the next one.
        let dst = (0..120u32).find(|&d| !engine.has_edge(hub, d)).unwrap();
        engine.insert_edge(hub, dst, Bias::from_int(3)).unwrap();
        let fp2 = engine.context_fingerprint_shared(hub).unwrap();
        assert!(fp2.binary_search(&dst).is_ok(), "new edge visible");
        let batch = UpdateBatch::new(vec![UpdateEvent::Delete { src: hub, dst }]);
        engine.apply_batch(&batch);
        let fp3 = engine.context_fingerprint_shared(hub).unwrap();
        assert_eq!(fp3, fp1, "deleted edge gone");
        assert_eq!(engine.clone().context_provider_stats().cold_builds, 3);

        // Non-owned vertices have no fingerprint.
        let shard = BingoEngine::build_range(&graph, 0..10, BingoConfig::default()).unwrap();
        assert!(shard.context_fingerprint_shared(50).is_none());
        assert_eq!(shard.context_provider_stats().cold_builds, 0);
    }

    #[test]
    fn conversion_matrix_aggregates_across_vertices() {
        let graph = random_graph(15, 80, 800);
        let mut setup = graph.clone();
        let mut rng = Pcg64::seed_from_u64(16);
        let batch =
            UpdateStreamBuilder::new(UpdateKind::Mixed, 200).build(&mut setup, 400, &mut rng);
        let mut engine = BingoEngine::build(&setup, BingoConfig::default()).unwrap();
        engine.apply_streaming(&batch);
        let conversions = engine.conversion_matrix();
        assert!(conversions.checks > 0);
    }

    /// Σ over owned vertices of the per-space rebuild counters.
    fn summed_rebuilds(engine: &BingoEngine) -> (u64, u64) {
        (0..engine.num_vertices() as VertexId)
            .map(|v| engine.vertex_space(v).unwrap())
            .fold((0, 0), |(inter, full), s| {
                (inter + s.inter_rebuilds(), full + s.full_rebuilds())
            })
    }

    #[test]
    fn engine_stats_sum_the_per_vertex_rebuild_counters() {
        for config in [BingoConfig::baseline(), BingoConfig::default()] {
            let graph = random_graph(41, 120, 1800);
            let mut setup = graph.clone();
            let mut rng = Pcg64::seed_from_u64(42);
            let stream =
                UpdateStreamBuilder::new(UpdateKind::Mixed, 400).build(&mut setup, 900, &mut rng);
            let mut engine = BingoEngine::build(&setup, config).unwrap();
            // Only a factorized vertex has an alias table to build.
            let factorized = (0..120)
                .filter(|&v| !engine.vertex_space(v).unwrap().is_direct())
                .count();
            assert_eq!(factorized == 120, !config.adaptive);
            assert_eq!(engine.stats().inter_rebuilds, factorized as u64);
            assert_eq!(engine.stats().full_rebuilds, 120);

            let (streamed, batched) = stream.events().split_at(450);
            engine.apply_streaming(&UpdateBatch::new(streamed.to_vec()));
            // A bias rewrite is a delete plus an insert; a float arriving at
            // a factorized integer vertex rebuilds it from scratch.
            let dst = engine.vertex_space(7).unwrap().adjacency().edges()[0].dst;
            engine.update_bias(7, dst, Bias::from_int(9)).unwrap();
            engine.insert_edge(7, 8, Bias::from_float(0.5)).unwrap();
            let mut events = batched.to_vec();
            events.push(UpdateEvent::Insert {
                src: 9,
                dst: 10,
                bias: Bias::from_float(1.5),
            });
            let outcome = engine.apply_batch(&UpdateBatch::new(events));
            let v = engine.add_vertex();
            engine.insert_edge(v, 0, Bias::from_int(3)).unwrap();
            engine.delete_vertex_out_edges(3).unwrap();

            let (inter, full) = summed_rebuilds(&engine);
            assert_eq!(engine.stats().full_rebuilds, full);
            if config.adaptive {
                // A vertex that went back to direct dropped its alias-table
                // count with its groups; the engine's total keeps it.
                assert!(engine.stats().inter_rebuilds >= inter);
                assert!(full > 121, "some vertex changed representation");
            } else {
                assert_eq!(outcome.full_rebuilds, 1);
                assert_eq!(engine.stats().inter_rebuilds, inter);
                assert_eq!(full, 121 + 2, "two λ changes and one new vertex");
                assert!(inter > 121 + 450);
            }
            assert!(engine.conversion_matrix().checks > 0);
            engine.check_invariants().unwrap();
        }
    }

    #[test]
    fn batches_touch_only_their_sources_and_keep_per_vertex_event_order() {
        let graph = random_graph(51, 80, 1200);
        let mut setup = graph.clone();
        let mut rng = Pcg64::seed_from_u64(52);
        let stream =
            UpdateStreamBuilder::new(UpdateKind::Mixed, 300).build(&mut setup, 500, &mut rng);
        let mut events = stream.into_events();
        // Duplicate inserts and a rewrite between them make the order of one
        // vertex's events visible in its adjacency list.
        for bias in [3, 5] {
            events.push(UpdateEvent::Insert {
                src: 11,
                dst: 12,
                bias: Bias::from_int(bias),
            });
            events.push(UpdateEvent::UpdateBias {
                src: 11,
                dst: 12,
                bias: Bias::from_int(bias + 1),
            });
        }
        // An insert to a destination outside the id space is dropped, but
        // its source still counts as touched and rebuilds once.
        events.push(UpdateEvent::Insert {
            src: 13,
            dst: 80,
            bias: Bias::from_int(1),
        });

        for config in [BingoConfig::baseline(), BingoConfig::default()] {
            let mut whole = BingoEngine::build(&setup, config).unwrap();
            let mut by_vertex = whole.clone();
            let outcome = whole.apply_batch(&UpdateBatch::new(events.clone()));

            // The reference: one batch per source vertex, its events in order.
            let mut sources: Vec<VertexId> = events.iter().map(UpdateEvent::src).collect();
            sources.sort_unstable();
            sources.dedup();
            let mut expected = BatchOutcome::default();
            for &src in &sources {
                let own: Vec<UpdateEvent> =
                    events.iter().filter(|e| e.src() == src).copied().collect();
                let o = by_vertex.apply_batch(&UpdateBatch::new(own));
                assert_eq!(o.touched_vertices, 1);
                expected.inserted += o.inserted;
                expected.deleted += o.deleted;
                expected.missing_deletes += o.missing_deletes;
                expected.full_rebuilds += o.full_rebuilds;
                expected.touched_vertices += 1;
            }
            assert_eq!(outcome, expected);
            assert_eq!(outcome.touched_vertices, sources.len());
            for v in 0..80 {
                let (a, b) = (
                    whole.vertex_space(v).unwrap(),
                    by_vertex.vertex_space(v).unwrap(),
                );
                assert_eq!(a.adjacency(), b.adjacency(), "edges of {v}");
                assert_eq!(a.inter_rebuilds(), b.inter_rebuilds(), "rebuilds of {v}");
                // Factorized everywhere, every touched vertex shows its one
                // rebuild in its alias-table counter.
                if !config.adaptive {
                    let touched = sources.binary_search(&v).is_ok();
                    assert_eq!(a.inter_rebuilds(), 1 + u64::from(touched));
                }
            }
            assert_eq!(whole.conversion_matrix(), by_vertex.conversion_matrix());
            assert_eq!(
                whole.stats().inter_rebuilds,
                by_vertex.stats().inter_rebuilds
            );
            whole.check_invariants().unwrap();
        }
    }
}
