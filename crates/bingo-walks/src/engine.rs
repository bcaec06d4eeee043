//! The parallel walker engine.
//!
//! The paper launches one walker per vertex (§6.1) and executes all walkers
//! in parallel on the GPU. Here, walkers are executed on the `rayon` shim's
//! thread team (`BINGO_THREADS`/`available_parallelism` sized); each walker
//! derives its own RNG stream from the run seed and its walker index, so
//! results are **bit-identical** for a given seed regardless of the number
//! of threads. Walker closures run concurrently: they must be
//! `Fn + Send + Sync` — all per-walker state (RNG, cursor) lives inside the
//! closure body, never in captures.

use crate::apps::{Walk, WalkCursor};
use crate::TransitionSampler;
use bingo_graph::VertexId;
use bingo_sampling::rng::Pcg64;
use rand::SeedableRng;
use rayon::prelude::*;

/// The outcome of a walk pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalkResults {
    /// One path per walker, in walker order.
    pub paths: Vec<Vec<VertexId>>,
}

impl WalkResults {
    /// Total number of steps taken across all walkers.
    pub fn total_steps(&self) -> usize {
        self.paths.iter().map(|p| p.len().saturating_sub(1)).sum()
    }

    /// Number of walkers.
    pub fn num_walks(&self) -> usize {
        self.paths.len()
    }

    /// Per-vertex visit counts — the statistic PPR, SimRank and random-walk
    /// domination derive their scores from (§1).
    pub fn visit_counts(&self, num_vertices: usize) -> Vec<u64> {
        let mut counts = vec![0u64; num_vertices];
        for path in &self.paths {
            for &v in path {
                if (v as usize) < num_vertices {
                    counts[v as usize] += 1;
                }
            }
        }
        counts
    }

    /// Normalized visit frequencies.
    pub fn visit_frequencies(&self, num_vertices: usize) -> Vec<f64> {
        let counts = self.visit_counts(num_vertices);
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; num_vertices];
        }
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }
}

/// Runs walk applications over any [`TransitionSampler`].
#[derive(Debug, Clone, Copy)]
pub struct WalkEngine {
    /// Seed from which every walker's RNG stream is derived.
    pub seed: u64,
}

impl Default for WalkEngine {
    fn default() -> Self {
        WalkEngine { seed: 0x5EED }
    }
}

impl WalkEngine {
    /// Create a walk engine with the given seed.
    pub fn new(seed: u64) -> Self {
        WalkEngine { seed }
    }

    /// Run `walk` — a [`WalkSpec`](crate::WalkSpec), a shared custom
    /// model or a [`Walk`] — from the given start vertices, one walker per
    /// start, in parallel.
    pub fn run<S, W>(&self, sampler: &S, walk: &W, starts: &[VertexId]) -> WalkResults
    where
        S: TransitionSampler,
        W: Clone + Into<Walk>,
    {
        let walk: Walk = walk.clone().into();
        let seed = self.seed;
        let paths = starts
            .par_iter()
            .enumerate()
            .map(|(i, &start)| {
                let mut rng = Pcg64::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                let mut cursor = WalkCursor::new(walk.clone(), start);
                while cursor.step(sampler, &mut rng).is_some() {}
                cursor.into_path()
            })
            .collect();
        WalkResults { paths }
    }

    /// Run `walk` with one walker per vertex — the paper's default walker
    /// configuration (§6.1: "we initialize the vertex count number of
    /// random walkers").
    pub fn run_all_vertices<S, W>(&self, sampler: &S, walk: &W) -> WalkResults
    where
        S: TransitionSampler,
        W: Clone + Into<Walk>,
    {
        let starts: Vec<VertexId> = (0..sampler.num_vertices() as VertexId).collect();
        self.run(sampler, walk, &starts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{DeepWalkConfig, PprConfig, WalkSpec};
    use bingo_core::{BingoConfig, BingoEngine};
    use bingo_graph::{Bias, DynamicGraph};

    fn ring_engine(n: usize) -> BingoEngine {
        // Directed ring with a shortcut, all biases 1 except the shortcut.
        let mut g = DynamicGraph::new(n);
        for v in 0..n {
            g.insert_edge(v as VertexId, ((v + 1) % n) as VertexId, Bias::from_int(1))
                .unwrap();
        }
        g.insert_edge(0, (n / 2) as VertexId, Bias::from_int(3))
            .unwrap();
        BingoEngine::build(&g, BingoConfig::default()).unwrap()
    }

    #[test]
    fn one_walker_per_start_vertex() {
        let engine = ring_engine(16);
        let walk_engine = WalkEngine::new(7);
        let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 20 });
        let results = walk_engine.run(&engine, &spec, &[0, 5, 9]);
        assert_eq!(results.num_walks(), 3);
        assert_eq!(results.paths[0][0], 0);
        assert_eq!(results.paths[1][0], 5);
        assert_eq!(results.paths[2][0], 9);
        assert_eq!(results.total_steps(), 60);
    }

    #[test]
    fn run_all_vertices_launches_vertex_count_walkers() {
        let engine = ring_engine(32);
        let walk_engine = WalkEngine::default();
        let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 5 });
        let results = walk_engine.run_all_vertices(&engine, &spec);
        assert_eq!(results.num_walks(), 32);
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let engine = ring_engine(16);
        let spec = WalkSpec::Ppr(PprConfig::default());
        let a = WalkEngine::new(11).run_all_vertices(&engine, &spec);
        let b = WalkEngine::new(11).run_all_vertices(&engine, &spec);
        let c = WalkEngine::new(12).run_all_vertices(&engine, &spec);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn visit_counts_cover_all_visited_vertices() {
        let engine = ring_engine(8);
        let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 16 });
        let results = WalkEngine::new(3).run_all_vertices(&engine, &spec);
        let counts = results.visit_counts(8);
        // Every vertex is a start vertex, so every count is at least 1.
        assert!(counts.iter().all(|&c| c >= 1));
        let freqs = results.visit_frequencies(8);
        assert!((freqs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_results_are_harmless() {
        let results = WalkResults::default();
        assert_eq!(results.total_steps(), 0);
        assert_eq!(results.visit_frequencies(4), vec![0.0; 4]);
    }
}
