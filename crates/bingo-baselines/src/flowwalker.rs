//! FlowWalker-style baseline: reservoir sampling with no auxiliary state.
//!
//! FlowWalker (VLDB'24) performs every walk step by parallel weighted
//! reservoir sampling directly over the adjacency list, so it maintains no
//! sampling structure at all. Graph updates are therefore essentially free
//! (the paper's comparison simply "reloads the new graph after updates"),
//! but every sampling step costs a full `O(d)` scan of the vertex's edges —
//! the asymptotic behaviour Figure 16 measures, where FlowWalker's sampling
//! time collapses on high-degree graphs while its update time beats Bingo's.

use bingo_graph::{DynamicGraph, UpdateBatch, UpdateEvent, VertexId};
use bingo_sampling::reservoir_sample_indexed;
use bingo_walks::{DynamicWalkSystem, IngestMode, IngestStats, TransitionSampler};
use rand::Rng;

/// Reservoir-sampling walk system with zero auxiliary sampling state.
#[derive(Debug, Clone)]
pub struct FlowWalkerBaseline {
    graph: DynamicGraph,
}

impl FlowWalkerBaseline {
    /// Build the baseline from a graph snapshot.
    pub fn build(graph: &DynamicGraph) -> Self {
        FlowWalkerBaseline {
            graph: graph.clone(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }
}

impl TransitionSampler for FlowWalkerBaseline {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.graph.degree(v)
    }

    #[inline]
    fn sample_neighbor<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> Option<VertexId> {
        let adj = self.graph.neighbors(v).ok()?;
        if adj.is_empty() {
            return None;
        }
        // Weighted reservoir sampling: one O(d) pass, no auxiliary state.
        let idx = reservoir_sample_indexed(adj.edges().iter().map(|e| e.bias.value()), rng)?;
        adj.edge(idx).map(|e| e.dst)
    }

    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.graph.has_edge(src, dst)
    }

    fn edge_bias(&self, src: VertexId, dst: VertexId) -> Option<f64> {
        let adj = self.graph.neighbors(src).ok()?;
        adj.find(dst)
            .and_then(|i| adj.edge(i))
            .map(|e| e.bias.value())
    }
}

impl DynamicWalkSystem for FlowWalkerBaseline {
    fn name(&self) -> &'static str {
        "FlowWalker"
    }

    fn ingest(&mut self, batch: &UpdateBatch, _mode: IngestMode) -> IngestStats {
        // lint:allow(determinism): IngestStats latency measurement for
        // the bench comparison harness; walk output never observes it.
        let start = std::time::Instant::now();
        let mut applied = 0;
        let mut skipped = 0;
        for event in batch.events() {
            let ok = match *event {
                UpdateEvent::Insert { src, dst, bias } => {
                    self.graph.insert_edge(src, dst, bias).is_ok()
                }
                UpdateEvent::Delete { src, dst } => self.graph.delete_edge(src, dst).is_ok(),
                UpdateEvent::UpdateBias { src, dst, bias } => {
                    self.graph.update_bias(src, dst, bias).is_ok()
                }
            };
            if ok {
                applied += 1;
            } else {
                skipped += 1;
            }
        }
        // "Reload" the graph: FlowWalker keeps no sampling structure, so the
        // reload is just the graph mutation above.
        IngestStats {
            applied,
            skipped,
            elapsed: start.elapsed(),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_graph::dynamic_graph::running_example;
    use bingo_graph::Bias;
    use bingo_sampling::rng::Pcg64;
    use bingo_sampling::stats::{empirical_distribution, max_abs_deviation};
    use rand::SeedableRng;

    #[test]
    fn sampling_matches_bias_distribution() {
        let fw = FlowWalkerBaseline::build(&running_example());
        let mut rng = Pcg64::seed_from_u64(1);
        let freq = empirical_distribution(
            |r| match fw.sample_neighbor(2, r).unwrap() {
                1 => 0,
                4 => 1,
                5 => 2,
                other => panic!("unexpected {other}"),
            },
            3,
            200_000,
            &mut rng,
        );
        assert!(max_abs_deviation(&freq, &[5.0 / 12.0, 4.0 / 12.0, 3.0 / 12.0]) < 0.01);
    }

    #[test]
    fn updates_are_visible_immediately() {
        let mut fw = FlowWalkerBaseline::build(&running_example());
        let batch = UpdateBatch::new(vec![
            UpdateEvent::Insert {
                src: 5,
                dst: 0,
                bias: Bias::from_int(2),
            },
            UpdateEvent::Delete { src: 2, dst: 1 },
            UpdateEvent::UpdateBias {
                src: 2,
                dst: 4,
                bias: Bias::from_int(10),
            },
            UpdateEvent::Delete { src: 2, dst: 77 },
        ]);
        let stats = fw.ingest(&batch, IngestMode::Streaming);
        assert_eq!(stats.applied, 3);
        assert_eq!(stats.skipped, 1);
        assert!(fw.has_edge(5, 0));
        assert!(!fw.has_edge(2, 1));
        assert_eq!(fw.edge_bias(2, 4), Some(10.0));
        let mut rng = Pcg64::seed_from_u64(2);
        assert!(fw.sample_neighbor(5, &mut rng).is_some());
    }

    #[test]
    fn isolated_vertex_samples_nothing() {
        let fw = FlowWalkerBaseline::build(&running_example());
        let mut rng = Pcg64::seed_from_u64(3);
        assert_eq!(fw.sample_neighbor(5, &mut rng), None);
        assert_eq!(fw.sample_neighbor(42, &mut rng), None);
        assert_eq!(DynamicWalkSystem::name(&fw), "FlowWalker");
        assert!(fw.memory_bytes() > 0);
        assert_eq!(fw.degree(2), 3);
        assert_eq!(fw.num_vertices(), 6);
    }
}
