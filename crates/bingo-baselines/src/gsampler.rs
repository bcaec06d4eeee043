//! gSampler-style baseline: matrix-centric batch sampling over CSR + CDF.
//!
//! gSampler (SOSP'23) expresses graph sampling through matrix-centric APIs
//! over static CSR structures. It has no incremental update path, so — as in
//! the paper's evaluation — the whole sampling structure (CSR snapshot plus
//! per-vertex cumulative-distribution arrays for inverse transform sampling)
//! is reconstructed after every round of updates. Sampling costs `O(log d)`
//! per step (binary search in the vertex's CDF slice); the matrix
//! representation also carries noticeably more memory than the adjacency
//! list alone, which is why gSampler is the most memory-hungry system in
//! Table 3.

use bingo_graph::{CsrGraph, DynamicGraph, UpdateBatch, UpdateEvent, VertexId};
use bingo_walks::{DynamicWalkSystem, IngestMode, IngestStats, TransitionSampler};
use rand::Rng;

/// CSR + per-vertex CDF sampler rebuilt wholesale after every update round.
#[derive(Debug, Clone)]
pub struct GSamplerBaseline {
    graph: DynamicGraph,
    csr: CsrGraph,
    /// Per-vertex offsets into `cdf` (length `num_vertices + 1`).
    offsets: Vec<usize>,
    /// Per-edge cumulative bias, restarting at every vertex boundary.
    cdf: Vec<f64>,
    /// Number of full reconstructions performed (one per ingested batch).
    rebuilds: u64,
}

impl GSamplerBaseline {
    /// Build the baseline from a graph snapshot.
    pub fn build(graph: &DynamicGraph) -> Self {
        let graph = graph.clone();
        let mut baseline = GSamplerBaseline {
            csr: CsrGraph::default(),
            offsets: Vec::new(),
            cdf: Vec::new(),
            graph,
            rebuilds: 0,
        };
        baseline.reconstruct();
        baseline
    }

    /// Rebuild the CSR snapshot and every per-vertex CDF from the current
    /// graph state. `O(V + E)`.
    fn reconstruct(&mut self) {
        self.csr = self.graph.to_csr();
        let n = self.csr.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cdf = Vec::with_capacity(self.csr.num_edges());
        offsets.push(0);
        for v in 0..n as VertexId {
            let mut running = 0.0;
            for &b in self.csr.biases(v) {
                running += b;
                cdf.push(running);
            }
            offsets.push(cdf.len());
        }
        self.offsets = offsets;
        self.cdf = cdf;
        self.rebuilds += 1;
    }

    /// Number of full reconstructions performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The per-vertex CDF slice (cumulative biases of `v`'s edges).
    fn vertex_cdf(&self, v: VertexId) -> &[f64] {
        let v = v as usize;
        if v + 1 >= self.offsets.len() {
            return &[];
        }
        &self.cdf[self.offsets[v]..self.offsets[v + 1]]
    }
}

impl TransitionSampler for GSamplerBaseline {
    fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.csr.degree(v)
    }

    #[inline]
    fn sample_neighbor<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> Option<VertexId> {
        let cdf = self.vertex_cdf(v);
        if cdf.is_empty() {
            return None;
        }
        let total = cdf[cdf.len() - 1];
        if total <= 0.0 {
            return None;
        }
        // Inverse transform sampling: O(log d) binary search.
        let x = rng.gen::<f64>() * total;
        let idx = cdf.partition_point(|&c| c <= x).min(cdf.len() - 1);
        self.csr.neighbors(v).get(idx).copied()
    }

    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.csr.neighbors(src).contains(&dst)
    }

    fn edge_bias(&self, src: VertexId, dst: VertexId) -> Option<f64> {
        let pos = self.csr.neighbors(src).iter().position(|&d| d == dst)?;
        self.csr.biases(src).get(pos).copied()
    }
}

impl DynamicWalkSystem for GSamplerBaseline {
    fn name(&self) -> &'static str {
        "gSampler"
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
        // No incremental path: reconstruct the whole sampling structure.
        self.reconstruct();
        IngestStats {
            applied,
            skipped,
            elapsed: start.elapsed(),
        }
    }

    fn memory_bytes(&self) -> usize {
        // The matrix-centric representation keeps the dynamic graph, the CSR
        // snapshot, the offsets + CDF arrays, and intermediate matrix
        // buffers (modelled as one extra edge-sized array — the smallest
        // overhead gSampler's matrix API incurs).
        self.graph.memory_bytes()
            + self.csr.memory_bytes()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.cdf.capacity() * std::mem::size_of::<f64>()
            + self.csr.num_edges() * std::mem::size_of::<f64>()
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
    fn build_produces_consistent_csr_and_cdf() {
        let gs = GSamplerBaseline::build(&running_example());
        assert_eq!(gs.num_vertices(), 6);
        assert_eq!(gs.degree(2), 3);
        assert_eq!(gs.rebuilds(), 1);
        assert_eq!(gs.cdf.len(), 8);
        assert_eq!(gs.vertex_cdf(2), &[5.0, 9.0, 12.0]);
        assert!(gs.vertex_cdf(5).is_empty());
        assert!(gs.memory_bytes() > 0);
    }

    #[test]
    fn sampling_matches_bias_distribution() {
        let gs = GSamplerBaseline::build(&running_example());
        let mut rng = Pcg64::seed_from_u64(1);
        let freq = empirical_distribution(
            |r| match gs.sample_neighbor(2, r).unwrap() {
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
    fn ingestion_reconstructs_everything() {
        let mut gs = GSamplerBaseline::build(&running_example());
        let batch = UpdateBatch::new(vec![
            UpdateEvent::Insert {
                src: 2,
                dst: 3,
                bias: Bias::from_int(3),
            },
            UpdateEvent::Delete { src: 0, dst: 1 },
            UpdateEvent::Delete { src: 0, dst: 99 },
        ]);
        let stats = gs.ingest(&batch, IngestMode::Batched);
        assert_eq!(stats.applied, 2);
        assert_eq!(stats.skipped, 1);
        assert_eq!(gs.rebuilds(), 2);
        assert!(gs.has_edge(2, 3));
        assert!(!gs.has_edge(0, 1));
        assert_eq!(gs.edge_bias(2, 3), Some(3.0));
        assert_eq!(DynamicWalkSystem::name(&gs), "gSampler");
    }

    #[test]
    fn isolated_vertex_samples_nothing() {
        let gs = GSamplerBaseline::build(&running_example());
        let mut rng = Pcg64::seed_from_u64(2);
        assert_eq!(gs.sample_neighbor(5, &mut rng), None);
        assert_eq!(gs.sample_neighbor(100, &mut rng), None);
    }
}
