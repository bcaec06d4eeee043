//! Incremental maintenance of previously computed walks.
//!
//! Section 7.2 of the paper positions Bingo as *orthogonal* to systems such
//! as Wharf and FIRM, which index previously computed random walks so that,
//! when the graph changes, only the affected walks are recomputed — "once
//! the calculated random walks are identified, instead of rebuilding the
//! sampling space from scratch, Bingo can help them rapidly update the
//! random walks."
//!
//! [`WalkStore`] implements that integration: it stores a corpus of walks
//! together with an inverted index from vertices to the walk positions that
//! visit them. When an edge `(u, v)` is inserted or deleted, the store finds
//! every walk step that left `u` (deletions additionally filter on steps
//! that took the removed edge), truncates those walks at the affected
//! position, and re-samples their suffixes from the *updated* engine — which
//! is exactly where Bingo's `O(1)` sampling after an `O(K)` update pays off.
//! A refreshed walk continues the walk it was: the store keeps its
//! [`Walk`] and resumes a [`WalkCursor`] on the kept prefix, so a node2vec
//! suffix still weighs its steps by the previous vertex and a PPR suffix
//! still stops with the walk's stop probability.

use crate::apps::{Walk, WalkCursor};
use crate::engine::WalkEngine;
use crate::TransitionSampler;
use bingo_graph::VertexId;
use bingo_sampling::rng::{Pcg64, SplitMix64};
use rand::SeedableRng;
use rayon::prelude::*;

/// Statistics describing one incremental-maintenance pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Walks whose suffix had to be re-sampled.
    pub walks_refreshed: usize,
    /// Total steps that were discarded and re-sampled.
    pub steps_resampled: usize,
}

/// A corpus of stored walks with an inverted vertex → walk-position index.
#[derive(Debug, Clone)]
pub struct WalkStore {
    walks: Vec<Vec<VertexId>>,
    /// `index[v]` lists `(walk_id, position)` pairs where vertex `v` occurs.
    index: Vec<Vec<(u32, u32)>>,
    /// The walk every stored path runs; a refresh resumes it.
    walk: Walk,
    seed: u64,
    /// Refresh passes run so far; each pass seeds its suffixes afresh.
    refreshes: u64,
}

impl WalkStore {
    /// Build a store by running `walk` — a [`WalkSpec`](crate::WalkSpec),
    /// a shared custom model or a [`Walk`] — once from every start vertex
    /// over `sampler` (one walker per vertex, like the paper's evaluation).
    pub fn generate<S, W>(sampler: &S, walk: &W, seed: u64) -> Self
    where
        S: TransitionSampler,
        W: Clone + Into<Walk>,
    {
        let starts: Vec<VertexId> = (0..sampler.num_vertices() as VertexId).collect();
        Self::generate_from(sampler, walk, &starts, seed)
    }

    /// Build a store from explicit start vertices: the paths
    /// [`WalkEngine::run`] returns for `seed`.
    pub fn generate_from<S, W>(sampler: &S, walk: &W, starts: &[VertexId], seed: u64) -> Self
    where
        S: TransitionSampler,
        W: Clone + Into<Walk>,
    {
        let walk: Walk = walk.clone().into();
        let walks = WalkEngine::new(seed).run(sampler, &walk, starts).paths;
        Self::from_walks(walks, sampler.num_vertices(), walk, seed)
    }

    /// Build a store from walks computed elsewhere (e.g. collected from the
    /// sharded walk service). `walk` is the walk they ran, which a refresh
    /// resumes, and `seed` drives suffix re-sampling.
    pub fn from_walks(
        walks: Vec<Vec<VertexId>>,
        num_vertices: usize,
        walk: impl Into<Walk>,
        seed: u64,
    ) -> Self {
        let mut store = WalkStore {
            walks,
            index: Vec::new(),
            walk: walk.into(),
            seed,
            refreshes: 0,
        };
        store.rebuild_index(num_vertices);
        store
    }

    fn rebuild_index(&mut self, num_vertices: usize) {
        let mut index: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_vertices];
        for (walk_id, walk) in self.walks.iter().enumerate() {
            for (pos, &v) in walk.iter().enumerate() {
                if (v as usize) < index.len() {
                    index[v as usize].push((walk_id as u32, pos as u32));
                }
            }
        }
        self.index = index;
    }

    /// Number of stored walks.
    pub fn num_walks(&self) -> usize {
        self.walks.len()
    }

    /// The stored walks.
    pub fn walks(&self) -> &[Vec<VertexId>] {
        &self.walks
    }

    /// Total number of steps across all stored walks.
    pub fn total_steps(&self) -> usize {
        self.walks.iter().map(|w| w.len().saturating_sub(1)).sum()
    }

    /// Walk ids that visit vertex `v`.
    pub fn walks_visiting(&self, v: VertexId) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .index
            .get(v as usize)
            .map(|entries| entries.iter().map(|&(w, _)| w as usize).collect())
            .unwrap_or_default();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Approximate memory used by the stored walks and the inverted index.
    pub fn memory_bytes(&self) -> usize {
        let walks: usize = self
            .walks
            .iter()
            .map(|w| w.capacity() * std::mem::size_of::<VertexId>())
            .sum();
        let index: usize = self
            .index
            .iter()
            .map(|e| e.capacity() * std::mem::size_of::<(u32, u32)>())
            .sum();
        walks + index
    }

    /// Earliest position in each affected walk that must be invalidated
    /// because it *departed from* `src` (and, for deletions, stepped to
    /// `removed_dst`).
    fn affected_positions(
        &self,
        src: VertexId,
        removed_dst: Option<VertexId>,
    ) -> Vec<(usize, usize)> {
        let mut affected: std::collections::BTreeMap<usize, usize> = Default::default();
        let Some(entries) = self.index.get(src as usize) else {
            return Vec::new();
        };
        let target_length = self.walk.refresh_target();
        for &(walk_id, pos) in entries {
            let walk = &self.walks[walk_id as usize];
            let pos = pos as usize;
            // A step departs from `src` only if it is not the final vertex.
            if pos + 1 >= walk.len() {
                // A walk that *ended* at src could now be extendable after an
                // insertion; treat it as affected from its last position.
                if removed_dst.is_none() && walk.len() - 1 < target_length {
                    affected
                        .entry(walk_id as usize)
                        .and_modify(|p| *p = (*p).min(pos))
                        .or_insert(pos);
                }
                continue;
            }
            match removed_dst {
                // Deletion: only steps that actually traversed the removed
                // edge are invalid.
                Some(dst) if walk[pos + 1] != dst => continue,
                _ => {}
            }
            affected
                .entry(walk_id as usize)
                .and_modify(|p| *p = (*p).min(pos))
                .or_insert(pos);
        }
        affected.into_iter().collect()
    }

    fn resample_suffixes<S>(&mut self, sampler: &S, affected: Vec<(usize, usize)>) -> RefreshStats
    where
        S: TransitionSampler,
    {
        let (seed, refresh) = (self.seed, self.refreshes);
        self.refreshes += 1;
        let stats: Vec<(usize, usize, Vec<VertexId>)> = affected
            .par_iter()
            .map(|&(walk_id, from_pos)| {
                let mut rng = Pcg64::seed_from_u64(suffix_seed(seed, refresh, walk_id, from_pos));
                // Keep the prefix up to and including `from_pos`, then
                // resume the walk on the (updated) engine until it ends.
                let prefix = self.walks[walk_id][..=from_pos].to_vec();
                let mut cursor = WalkCursor::resume(self.walk.clone(), prefix)
                    .expect("a kept prefix holds at least the start vertex");
                while cursor.step(sampler, &mut rng).is_some() {}
                let new_walk = cursor.into_path();
                (walk_id, new_walk.len() - from_pos - 1, new_walk)
            })
            .collect();
        let mut result = RefreshStats::default();
        for (walk_id, new_steps, new_walk) in stats {
            result.walks_refreshed += 1;
            result.steps_resampled += new_steps;
            self.walks[walk_id] = new_walk;
        }
        result
    }

    /// React to an edge insertion `(src, dst)`: every stored walk that
    /// departs from `src` is re-sampled from that position so the new edge
    /// gets its proper probability mass, and walks that had stalled at `src`
    /// are extended. The `sampler` must already reflect the insertion.
    pub fn on_edge_inserted<S>(
        &mut self,
        sampler: &S,
        src: VertexId,
        _dst: VertexId,
    ) -> RefreshStats
    where
        S: TransitionSampler,
    {
        let affected = self.affected_positions(src, None);
        let stats = self.resample_suffixes(sampler, affected);
        if stats.walks_refreshed > 0 {
            self.rebuild_index(sampler.num_vertices());
        }
        stats
    }

    /// React to an edge deletion `(src, dst)`: only walks that traversed the
    /// removed edge are re-sampled. The `sampler` must already reflect the
    /// deletion.
    pub fn on_edge_deleted<S>(&mut self, sampler: &S, src: VertexId, dst: VertexId) -> RefreshStats
    where
        S: TransitionSampler,
    {
        let affected = self.affected_positions(src, Some(dst));
        let stats = self.resample_suffixes(sampler, affected);
        if stats.walks_refreshed > 0 {
            self.rebuild_index(sampler.num_vertices());
        }
        stats
    }

    /// Verify that every stored walk is a valid path in `sampler`'s current
    /// graph (used by tests; returns the first invalid step found).
    pub fn validate<S>(&self, sampler: &S) -> std::result::Result<(), (usize, VertexId, VertexId)>
    where
        S: TransitionSampler,
    {
        for (walk_id, walk) in self.walks.iter().enumerate() {
            for pair in walk.windows(2) {
                if !sampler.has_edge(pair[0], pair[1]) {
                    return Err((walk_id, pair[0], pair[1]));
                }
            }
        }
        Ok(())
    }
}

/// The RNG seed of one re-sampled suffix: the store's seed, the refresh
/// pass, the walk and the position, each folded in through a SplitMix64
/// round (the scheme of the service's walker seeds). A walk refreshed twice
/// at one position draws fresh uniforms the second time.
fn suffix_seed(seed: u64, refresh: u64, walk_id: usize, pos: usize) -> u64 {
    [refresh, walk_id as u64, pos as u64]
        .into_iter()
        .fold(seed, |acc, x| SplitMix64::new(acc ^ x).next())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{DeepWalkConfig, Node2VecConfig, PprConfig, WalkSpec};
    use bingo_core::{BingoConfig, BingoEngine};
    use bingo_graph::{Bias, DynamicGraph};

    fn ring_engine(n: usize) -> BingoEngine {
        let mut g = DynamicGraph::new(n);
        for v in 0..n as u32 {
            g.insert_edge(v, (v + 1) % n as u32, Bias::from_int(2))
                .unwrap();
            g.insert_edge(v, (v + 2) % n as u32, Bias::from_int(1))
                .unwrap();
        }
        BingoEngine::build(&g, BingoConfig::default()).unwrap()
    }

    fn spec() -> WalkSpec {
        WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 12 })
    }

    #[test]
    fn generate_builds_one_walk_per_vertex_with_index() {
        let engine = ring_engine(16);
        let store = WalkStore::generate(&engine, &spec(), 7);
        assert_eq!(store.num_walks(), 16);
        assert_eq!(store.total_steps(), 16 * 12);
        assert!(store.validate(&engine).is_ok());
        // Every vertex is the start of its own walk, so it is visited.
        for v in 0..16u32 {
            assert!(!store.walks_visiting(v).is_empty());
        }
        assert!(store.memory_bytes() > 0);
    }

    #[test]
    fn deletion_refreshes_only_walks_using_the_edge() {
        let mut engine = ring_engine(16);
        let mut store = WalkStore::generate(&engine, &spec(), 7);
        // Count walks that traverse the edge (0, 1) before the deletion.
        let uses_edge = store
            .walks()
            .iter()
            .filter(|w| w.windows(2).any(|p| p[0] == 0 && p[1] == 1))
            .count();
        engine.delete_edge(0, 1).unwrap();
        let stats = store.on_edge_deleted(&engine, 0, 1);
        assert_eq!(stats.walks_refreshed, uses_edge);
        // The corpus must be valid against the *updated* graph: no walk may
        // still traverse the deleted edge.
        assert!(store.validate(&engine).is_ok());
    }

    #[test]
    fn deletion_of_unused_edge_refreshes_nothing() {
        let mut engine = ring_engine(8);
        // Add an edge nobody has walked yet (it does not exist during
        // generation), then delete it again.
        let store_before = WalkStore::generate(&engine, &spec(), 3);
        engine.insert_edge(3, 7, Bias::from_int(1)).unwrap();
        engine.delete_edge(3, 7).unwrap();
        let mut store = store_before.clone();
        let stats = store.on_edge_deleted(&engine, 3, 7);
        assert_eq!(stats.walks_refreshed, 0);
        assert_eq!(store.walks(), store_before.walks());
    }

    #[test]
    fn insertion_gives_the_new_edge_probability_mass() {
        let mut engine = ring_engine(16);
        let mut store = WalkStore::generate(&engine, &spec(), 5);
        // Insert a heavy new edge out of vertex 4 and refresh.
        engine.insert_edge(4, 12, Bias::from_int(50)).unwrap();
        let stats = store.on_edge_inserted(&engine, 4, 12);
        assert!(stats.walks_refreshed > 0);
        assert!(store.validate(&engine).is_ok());
        // With bias 50 against 2 + 1, most refreshed departures from 4
        // should now take the new edge.
        let departures_via_new: usize = store
            .walks()
            .iter()
            .map(|w| w.windows(2).filter(|p| p[0] == 4 && p[1] == 12).count())
            .sum();
        assert!(departures_via_new > 0);
    }

    #[test]
    fn refreshed_walks_are_restored_to_target_length() {
        let mut engine = ring_engine(12);
        let mut store = WalkStore::generate(&engine, &spec(), 9);
        engine.delete_edge(5, 6).unwrap();
        store.on_edge_deleted(&engine, 5, 6);
        for walk in store.walks() {
            // The ring (minus one edge) still has an out-edge everywhere, so
            // every refreshed walk must reach the full target length again.
            assert_eq!(walk.len(), 13, "walk not restored: {walk:?}");
        }
    }

    #[test]
    fn a_second_refresh_of_the_same_event_draws_fresh_uniforms() {
        // The same insertion reported twice on an unchanged engine affects
        // the same walks at the same positions; the second pass must not
        // replay the first one's uniforms.
        let mut engine = ring_engine(16);
        let mut store = WalkStore::generate(&engine, &spec(), 5);
        engine.insert_edge(4, 12, Bias::from_int(3)).unwrap();
        let first = store.on_edge_inserted(&engine, 4, 12);
        let once = store.walks().to_vec();
        let second = store.on_edge_inserted(&engine, 4, 12);
        assert!(first.walks_refreshed > 0);
        assert_eq!(second.walks_refreshed, first.walks_refreshed);
        assert_ne!(
            store.walks(),
            &once[..],
            "the second refresh replayed the first"
        );
        assert!(store.validate(&engine).is_ok());
    }

    #[test]
    fn walks_visiting_unknown_vertex_is_empty() {
        let engine = ring_engine(4);
        let store = WalkStore::generate(&engine, &spec(), 1);
        assert!(store.walks_visiting(99).is_empty());
    }

    #[test]
    fn a_refreshed_ppr_suffix_stops_at_the_walks_rate() {
        // A resumed PPR walk stops before each step with probability s, so
        // a suffix of k steps has probability (1 − s)^k · s: mean
        // (1 − s) / s = 9 at s = 0.1, far below the 400-step cap.
        let mut engine = ring_engine(16);
        let spec = WalkSpec::Ppr(PprConfig {
            stop_probability: 0.1,
            max_length: 400,
        });
        let starts: Vec<VertexId> = (0..4_000).map(|i| i % 16).collect();
        let mut store = WalkStore::generate_from(&engine, &spec, &starts, 11);
        engine.insert_edge(4, 12, Bias::from_int(5)).unwrap();
        let stats = store.on_edge_inserted(&engine, 4, 12);
        assert!(stats.walks_refreshed > 1_000, "{stats:?}");
        let mean = stats.steps_resampled as f64 / stats.walks_refreshed as f64;
        assert!((mean - 9.0).abs() < 0.6, "mean suffix of {mean} steps");
        assert!(store.validate(&engine).is_ok());
    }

    #[test]
    fn a_refreshed_node2vec_suffix_backtracks_at_the_second_order_rate() {
        // An undirected 16-cycle: a step from m, having come from one
        // neighbor, returns there with weight 1/p = 4 against 1/q = 1 for
        // the other neighbor (never adjacent to the first): 4/5 of steps
        // backtrack, where a first-order draw would backtrack half of them.
        let n = 16u32;
        let mut graph = DynamicGraph::new(n as usize);
        for v in 0..n {
            graph
                .insert_edge(v, (v + 1) % n, Bias::from_int(1))
                .unwrap();
            graph
                .insert_edge(v, (v + n - 1) % n, Bias::from_int(1))
                .unwrap();
        }
        let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let spec = WalkSpec::Node2Vec(Node2VecConfig {
            walk_length: 20,
            p: 0.25,
            q: 1.0,
        });
        let starts: Vec<VertexId> = (0..3_200).map(|i| i % n).collect();
        let mut store = WalkStore::generate_from(&engine, &spec, &starts, 13);
        let before = store.walks().to_vec();
        engine.insert_edge(0, 8, Bias::from_int(1)).unwrap();
        let stats = store.on_edge_inserted(&engine, 0, 8);
        assert!(stats.walks_refreshed > 500, "{stats:?}");
        let (mut backtracks, mut steps) = (0usize, 0usize);
        for (old, new) in before.iter().zip(store.walks()) {
            // The refresh resumed at the first departure from vertex 0.
            let Some(from) = old[..old.len() - 1].iter().position(|&v| v == 0) else {
                continue;
            };
            for i in from.max(1)..new.len() - 1 {
                // Vertices 0 and 8 are off the plain cycle now.
                if new[i] != 0 && new[i] != 8 {
                    steps += 1;
                    backtracks += usize::from(new[i - 1] == new[i + 1]);
                }
            }
        }
        assert!(steps > 5_000, "{steps} refreshed steps");
        let rate = backtracks as f64 / steps as f64;
        assert!((rate - 0.8).abs() < 0.03, "backtrack rate {rate}");
        assert!(store.validate(&engine).is_ok());
    }

    #[test]
    fn a_ppr_store_that_never_stops_refreshes_to_its_cap() {
        // PPR with stop probability 0 expects walks of unbounded length;
        // a refresh must stop at the 25-step cap instead of growing the
        // walk until allocation fails.
        let mut engine = ring_engine(16);
        let spec = WalkSpec::Ppr(PprConfig {
            stop_probability: 0.0,
            max_length: 25,
        });
        let mut store = WalkStore::generate(&engine, &spec, 3);
        engine.insert_edge(4, 12, Bias::from_int(5)).unwrap();
        let stats = store.on_edge_inserted(&engine, 4, 12);
        assert!(stats.walks_refreshed > 0);
        for walk in store.walks() {
            assert!(walk.len() <= 26, "walk of {} vertices", walk.len());
        }
        assert!(store.validate(&engine).is_ok());
    }
}
