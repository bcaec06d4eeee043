//! The paper's evaluation workflow (§6.1).
//!
//! One evaluation run consists of `R` rounds (10 in the paper); each round
//! ingests `BATCHSIZE` graph updates (100 K in the paper) and then performs
//! the graph application — a full walk pass with one walker per vertex. The
//! total time over all rounds is what Table 3 reports; the per-phase split
//! (update time vs. walk time) is what Figures 13 and 16 report.

use crate::apps::WalkSpec;
use crate::engine::WalkEngine;
use crate::DynamicWalkSystem;
use bingo_graph::UpdateBatch;
use std::time::Duration;

/// How updates are handed to the system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// One update at a time (low-latency streaming ingestion).
    Streaming,
    /// The whole batch at once (high-throughput batched ingestion).
    Batched,
}

/// Statistics returned by a system after ingesting one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Number of update events applied.
    pub applied: usize,
    /// Number of events skipped (e.g. deletions of missing edges).
    pub skipped: usize,
    /// Wall-clock time spent ingesting.
    pub elapsed: Duration,
}

/// Per-round measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundReport {
    /// Updates applied in this round.
    pub updates_applied: usize,
    /// Time spent ingesting updates.
    pub update_time: Duration,
    /// Time spent running the walk application.
    pub walk_time: Duration,
    /// Total steps walked this round.
    pub walk_steps: usize,
}

/// Aggregate measurements over all rounds.
#[derive(Debug, Clone, Default)]
pub struct WorkflowReport {
    /// The system's name.
    pub system: &'static str,
    /// The application's name.
    pub application: &'static str,
    /// Per-round breakdown.
    pub rounds: Vec<RoundReport>,
    /// Memory used by the system after the final round, in bytes.
    pub memory_bytes: usize,
}

impl WorkflowReport {
    /// Total update-ingestion time.
    pub fn total_update_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.update_time).sum()
    }

    /// Total walk time.
    pub fn total_walk_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.walk_time).sum()
    }

    /// Total runtime (updates + walks), the quantity Table 3 reports.
    pub fn total_time(&self) -> Duration {
        self.total_update_time() + self.total_walk_time()
    }

    /// Total updates applied over all rounds.
    pub fn total_updates(&self) -> usize {
        self.rounds.iter().map(|r| r.updates_applied).sum()
    }
}

/// The evaluation workflow driver.
#[derive(Debug, Clone, Copy)]
pub struct EvaluationWorkflow {
    /// Walk application to run after every round of updates.
    pub spec: WalkSpec,
    /// Update ingestion mode.
    pub mode: IngestMode,
    /// Seed for the walker RNG streams.
    pub seed: u64,
}

impl EvaluationWorkflow {
    /// Create a workflow for the given application and ingestion mode.
    pub fn new(spec: WalkSpec, mode: IngestMode) -> Self {
        EvaluationWorkflow {
            spec,
            mode,
            seed: 0xB1460,
        }
    }

    /// Run the workflow: for every batch, ingest it and then perform a full
    /// walk pass (one walker per vertex).
    pub fn run<S: DynamicWalkSystem>(
        &self,
        system: &mut S,
        batches: &[UpdateBatch],
    ) -> WorkflowReport {
        let walk_engine = WalkEngine::new(self.seed);
        let mut rounds = Vec::with_capacity(batches.len());
        for batch in batches {
            let ingest = system.ingest(batch, self.mode);
            // lint:allow(determinism): RoundReport wall-time measurement
            // (bench reporting); sampling is seed-driven and unaffected.
            let walk_start = std::time::Instant::now();
            let results = walk_engine.run_all_vertices(system, &self.spec);
            let walk_time = walk_start.elapsed();
            rounds.push(RoundReport {
                updates_applied: ingest.applied,
                update_time: ingest.elapsed,
                walk_time,
                walk_steps: results.total_steps(),
            });
        }
        WorkflowReport {
            system: system.name(),
            application: self.spec.name(),
            rounds,
            memory_bytes: system.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::DeepWalkConfig;
    use bingo_core::{BingoConfig, BingoEngine};
    use bingo_graph::generators::{BiasDistribution, GraphGenerator};
    use bingo_graph::updates::{UpdateKind, UpdateStreamBuilder};
    use bingo_sampling::rng::Pcg64;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (BingoEngine, Vec<UpdateBatch>) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let mut graph = GraphGenerator::ErdosRenyi {
            vertices: 80,
            edges: 900,
        }
        .generate(BiasDistribution::UniformInt { lo: 1, hi: 31 }, &mut rng);
        let stream =
            UpdateStreamBuilder::new(UpdateKind::Mixed, 300).build(&mut graph, 300, &mut rng);
        let batches = stream.chunks(100);
        let engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        (engine, batches)
    }

    #[test]
    fn workflow_runs_all_rounds_and_counts_time() {
        let (mut engine, batches) = setup(1);
        let workflow = EvaluationWorkflow::new(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 10 }),
            IngestMode::Batched,
        );
        let report = workflow.run(&mut engine, &batches);
        assert_eq!(report.rounds.len(), 3);
        assert_eq!(report.system, "Bingo");
        assert_eq!(report.application, "DeepWalk");
        assert!(report.total_updates() > 0);
        assert!(report.total_time() >= report.total_walk_time());
        assert!(report.memory_bytes > 0);
        assert!(!report.total_update_time().is_zero());
        assert!(report.rounds.iter().all(|r| r.walk_steps > 0));
        engine.check_invariants().unwrap();
    }

    #[test]
    fn streaming_and_batched_modes_apply_the_same_updates() {
        let (engine, batches) = setup(2);
        let mut streaming_engine = engine.clone();
        let mut batched_engine = engine;
        let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 5 });
        let streaming = EvaluationWorkflow::new(spec, IngestMode::Streaming)
            .run(&mut streaming_engine, &batches);
        let batched =
            EvaluationWorkflow::new(spec, IngestMode::Batched).run(&mut batched_engine, &batches);
        assert_eq!(streaming.total_updates(), batched.total_updates());
        assert_eq!(streaming_engine.num_edges(), batched_engine.num_edges());
    }

    #[test]
    fn empty_batch_list_produces_empty_report() {
        let (mut engine, _) = setup(4);
        let workflow = EvaluationWorkflow::new(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 5 }),
            IngestMode::Streaming,
        );
        let report = workflow.run(&mut engine, &[]);
        assert!(report.rounds.is_empty());
        assert_eq!(report.total_updates(), 0);
    }
}
