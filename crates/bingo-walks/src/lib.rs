//! # bingo-walks
//!
//! Random-walk applications and the parallel walker engine.
//!
//! The paper evaluates three applications — biased DeepWalk, node2vec and
//! personalized PageRank — on top of Bingo's sampling engine. All of them
//! reduce to the same inner operation: *a walker at vertex `u` picks one of
//! `u`'s out-edges proportionally to the transition biases*. That operation
//! is abstracted by the [`TransitionSampler`] trait, which `BingoEngine` and
//! every baseline system implement, so the applications, the walker engine,
//! and the evaluation workflow are shared across all systems.
//!
//! * [`model`] — the pluggable [`WalkModel`] trait: a custom walk
//!   application as an object-safe state machine, and the walker state
//!   and sampling surface it steps with.
//! * [`apps`] — the built-in applications: [`WalkSpec`], their model,
//!   stepped through one `match` generic over sampler and RNG; the
//!   [`Walk`] every execution layer holds (a spec or a custom model, so a
//!   custom application plugs into all of them); and the resumable
//!   [`WalkCursor`].
//! * [`engine`] — the parallel walker engine: one RNG stream per walker,
//!   rayon-parallel execution, visit-count aggregation.
//! * [`workflow`] — the paper's evaluation loop (§6.1): rounds of update
//!   ingestion followed by a full walk pass, with per-phase timing.
//! * [`analytics`] — the downstream consumers the paper's introduction
//!   motivates: PPR scores, SimRank, random-walk domination, GNN mini-batch
//!   fan-out sampling.
//! * [`walk_store`] — Wharf/FIRM-style incremental maintenance of stored
//!   walks: when an edge changes, only the affected suffixes are re-sampled
//!   from the updated engine (§7.2).
//! * [`wire`] — versioned fixed-width little-endian codecs for everything
//!   that crosses a shard boundary: walker frames, the walk section that
//!   names a forwarded walker's walk, carried contexts, and the
//!   negotiated 16-byte snapshot handles.
//!
//! ## Parallel execution contract
//!
//! Walk generation ([`WalkEngine`], [`WalkStore`] generation/refresh) and
//! the analytics fan-outs run on the `rayon` shim's thread team, so the
//! closures handed to `par_iter` pipelines must be `Fn + Send + Sync`:
//! derive all per-walker state (RNGs, cursors, scratch) *inside* the
//! closure from the walker index — never mutate captured state. Seeds are
//! index-derived, and the shim's chunking is thread-count-independent, so
//! for a fixed seed every walk output is bit-identical whether
//! `BINGO_THREADS=1` or the machine is saturated (pinned down by the
//! tier-1 `tests/parallelism.rs` regression tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod apps;
pub mod engine;
pub mod model;
pub mod walk_store;
pub mod wire;
pub mod workflow;

pub use analytics::{personalized_pagerank, random_walk_domination, sample_mini_batch, MiniBatch};
pub use apps::{
    DeepWalkConfig, Node2VecConfig, PprConfig, SimpleSamplingConfig, Walk, WalkCursor, WalkSpec,
};
pub use engine::{WalkEngine, WalkResults};
pub use model::{
    CarriedContext, ContextRequirement, SharedWalkModel, StepSampler, Transition, WalkModel,
    WalkState,
};
pub use walk_store::{RefreshStats, WalkStore};
pub use wire::{ContextHandle, FrameContext, WalkerFrame, WireError};
pub use workflow::{EvaluationWorkflow, IngestMode, IngestStats, RoundReport, WorkflowReport};

use bingo_core::BingoEngine;
use bingo_graph::{UpdateBatch, VertexId};
use rand::Rng;

/// Anything a walker can sample transitions from.
///
/// Implementations must return neighbors of `v` with probability
/// proportional to the edge biases (Equation 2 of the paper).
pub trait TransitionSampler: Sync {
    /// Number of vertices in the graph.
    fn num_vertices(&self) -> usize;

    /// Out-degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Sample one neighbor of `v` proportionally to the edge biases.
    /// Returns `None` when `v` has no out-edges.
    fn sample_neighbor<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> Option<VertexId>;

    /// Whether the edge `(src, dst)` exists (needed by second-order
    /// applications such as node2vec).
    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool;

    /// Bias of the edge `(src, dst)`, if present.
    fn edge_bias(&self, src: VertexId, dst: VertexId) -> Option<f64>;

    /// Whether this sampler owns `v`'s out-edges — i.e. whether
    /// [`TransitionSampler::has_edge`] answers authoritatively for
    /// `src == v`. Defaults to `true` (whole-graph samplers); range-sharded
    /// engines override it so second-order membership fallbacks can detect
    /// a missing carried context instead of silently reading "no edge"
    /// (see `bingo_walks::model`'s missing-context-fault docs).
    fn owns_vertex(&self, _v: VertexId) -> bool {
        true
    }
}

/// A sampler that can also ingest graph updates — the interface the
/// evaluation workflow drives for Bingo and for every baseline system.
pub trait DynamicWalkSystem: TransitionSampler {
    /// Human-readable system name used in reports ("Bingo", "KnightKing", …).
    fn name(&self) -> &'static str;

    /// Ingest a batch of updates in the requested mode. Systems that do not
    /// support incremental updates (the static baselines) rebuild their
    /// sampling structures from the updated graph, exactly as the paper does
    /// when evaluating them on dynamic workloads.
    fn ingest(&mut self, batch: &UpdateBatch, mode: IngestMode) -> IngestStats;

    /// Bytes of memory used by the sampling structures (and graph storage).
    fn memory_bytes(&self) -> usize;
}

impl TransitionSampler for BingoEngine {
    fn num_vertices(&self) -> usize {
        BingoEngine::num_vertices(self)
    }

    fn degree(&self, v: VertexId) -> usize {
        BingoEngine::degree(self, v)
    }

    #[inline]
    fn sample_neighbor<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> Option<VertexId> {
        BingoEngine::sample_neighbor(self, v, rng)
    }

    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        BingoEngine::has_edge(self, src, dst)
    }

    fn edge_bias(&self, src: VertexId, dst: VertexId) -> Option<f64> {
        BingoEngine::edge_bias(self, src, dst)
    }

    fn owns_vertex(&self, v: VertexId) -> bool {
        BingoEngine::owns(self, v)
    }
}

impl DynamicWalkSystem for BingoEngine {
    fn name(&self) -> &'static str {
        "Bingo"
    }

    fn ingest(&mut self, batch: &UpdateBatch, mode: IngestMode) -> IngestStats {
        // lint:allow(determinism): IngestStats latency measurement for
        // the bench comparison harness; walk output never observes it.
        let start = std::time::Instant::now();
        let (applied, skipped) = match mode {
            IngestMode::Streaming => {
                let applied = self.apply_streaming(batch);
                (applied, batch.len() - applied)
            }
            IngestMode::Batched => {
                let outcome = self.apply_batch(batch);
                (outcome.inserted + outcome.deleted, outcome.missing_deletes)
            }
        };
        IngestStats {
            applied,
            skipped,
            elapsed: start.elapsed(),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.memory_report().total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_core::BingoConfig;
    use bingo_graph::dynamic_graph::running_example;
    use bingo_graph::{Bias, UpdateEvent};
    use bingo_sampling::rng::Pcg64;
    use rand::SeedableRng;

    #[test]
    fn bingo_engine_implements_transition_sampler() {
        let engine = BingoEngine::build(&running_example(), BingoConfig::default()).unwrap();
        assert_eq!(TransitionSampler::num_vertices(&engine), 6);
        assert_eq!(TransitionSampler::degree(&engine, 2), 3);
        assert!(TransitionSampler::has_edge(&engine, 2, 4));
        assert_eq!(TransitionSampler::edge_bias(&engine, 2, 4), Some(4.0));
        let mut rng = Pcg64::seed_from_u64(1);
        assert!(TransitionSampler::sample_neighbor(&engine, 2, &mut rng).is_some());
    }

    #[test]
    fn bingo_engine_ingests_in_both_modes() {
        let mut streaming = BingoEngine::build(&running_example(), BingoConfig::default()).unwrap();
        let mut batched = streaming.clone();
        let batch = UpdateBatch::new(vec![
            UpdateEvent::Insert {
                src: 2,
                dst: 3,
                bias: Bias::from_int(3),
            },
            UpdateEvent::Delete { src: 2, dst: 1 },
        ]);
        let s = streaming.ingest(&batch, IngestMode::Streaming);
        let b = batched.ingest(&batch, IngestMode::Batched);
        assert_eq!(s.applied, 2);
        assert_eq!(b.applied, 2);
        assert_eq!(streaming.num_edges(), batched.num_edges());
        assert!(streaming.memory_bytes() > 0);
        assert_eq!(DynamicWalkSystem::name(&streaming), "Bingo");
    }
}
