//! Walk-based graph analytics.
//!
//! The paper's introduction (§1) motivates random walks with four downstream
//! consumers: mini-batch construction for graph neural network training,
//! node embeddings for recommendation, and the "visit frequency" family —
//! personalized PageRank, SimRank and Random Walk Domination — where many
//! walks are launched and per-vertex visit counts become the score. This
//! module implements those consumers on top of any [`TransitionSampler`], so
//! they run unchanged over Bingo and over every baseline engine.

use crate::apps::PprConfig;
use crate::engine::{WalkEngine, WalkResults};
use crate::TransitionSampler;
use bingo_graph::VertexId;
use bingo_sampling::rng::Pcg64;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Monte-Carlo personalized PageRank scores from a single source.
///
/// Launches `num_walks` terminating walks from `source` and returns the
/// normalized visit frequencies — the estimator FORA/SpeedPPR-style systems
/// refine and the one the paper's PPR application uses.
pub fn personalized_pagerank<S>(
    sampler: &S,
    source: VertexId,
    num_walks: usize,
    config: PprConfig,
    seed: u64,
) -> Vec<f64>
where
    S: TransitionSampler,
{
    let starts = vec![source; num_walks];
    let engine = WalkEngine::new(seed);
    let results = engine.run(sampler, &crate::apps::WalkSpec::Ppr(config), &starts);
    results.visit_frequencies(sampler.num_vertices())
}

/// Estimate the SimRank similarity of two vertices by the meeting
/// probability of two backward-coupled random walks (Jeh & Widom's
/// random-surfer interpretation, estimated forward here because the
/// reproduction's graphs store out-edges).
///
/// Two walkers start at `a` and `b` and step simultaneously with decay
/// `c`; the estimate is the discounted probability that they first meet at
/// the same vertex at the same step.
pub fn simrank_estimate<S>(
    sampler: &S,
    a: VertexId,
    b: VertexId,
    num_pairs: usize,
    max_steps: usize,
    c: f64,
    seed: u64,
) -> f64
where
    S: TransitionSampler,
{
    if a == b {
        return 1.0;
    }
    // Each pair walks at most `max_steps` coupled steps — cheap enough
    // that unbounded splitting would be mostly dispatch overhead.
    let hits: f64 = (0..num_pairs)
        .into_par_iter()
        .with_min_len(32)
        .map(|i| {
            let mut rng = Pcg64::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            let mut x = a;
            let mut y = b;
            let mut discount = 1.0;
            for _ in 0..max_steps {
                discount *= c;
                let nx = sampler.sample_neighbor(x, &mut rng);
                let ny = sampler.sample_neighbor(y, &mut rng);
                match (nx, ny) {
                    (Some(nx), Some(ny)) => {
                        if nx == ny {
                            return discount;
                        }
                        x = nx;
                        y = ny;
                    }
                    _ => return 0.0,
                }
            }
            0.0
        })
        .sum();
    hits / num_pairs as f64
}

/// Random Walk Domination (§1, [Li et al. 2014]): greedily select `k` seed
/// vertices whose fixed-length walks cover as many distinct vertices as
/// possible.
///
/// Returns the selected seeds and the total number of distinct vertices
/// covered by their walks.
pub fn random_walk_domination<S>(
    sampler: &S,
    k: usize,
    walks_per_vertex: usize,
    walk_length: usize,
    seed: u64,
) -> (Vec<VertexId>, usize)
where
    S: TransitionSampler,
{
    let n = sampler.num_vertices();
    if n == 0 || k == 0 {
        return (Vec::new(), 0);
    }
    // Precompute the coverage set of every candidate vertex in parallel.
    let coverage: Vec<std::collections::HashSet<VertexId>> = (0..n as VertexId)
        .into_par_iter()
        .map(|v| {
            let mut rng = Pcg64::seed_from_u64(seed ^ u64::from(v).wrapping_mul(0xA24B_AED4));
            let mut covered = std::collections::HashSet::new();
            covered.insert(v);
            for _ in 0..walks_per_vertex {
                let mut current = v;
                for _ in 0..walk_length {
                    match sampler.sample_neighbor(current, &mut rng) {
                        Some(next) => {
                            covered.insert(next);
                            current = next;
                        }
                        None => break,
                    }
                }
            }
            covered
        })
        .collect();
    // Greedy max-coverage selection.
    let mut selected = Vec::with_capacity(k);
    let mut covered: std::collections::HashSet<VertexId> = std::collections::HashSet::new();
    let mut available: Vec<bool> = vec![true; n];
    for _ in 0..k.min(n) {
        let best = (0..n)
            .filter(|&v| available[v])
            .max_by_key(|&v| coverage[v].iter().filter(|x| !covered.contains(x)).count());
        let Some(best) = best else { break };
        available[best] = false;
        covered.extend(coverage[best].iter().copied());
        selected.push(best as VertexId);
    }
    let total = covered.len();
    (selected, total)
}

/// A sampled k-hop neighborhood ("mini-batch") around a set of seed
/// vertices, in the style of GraphSAGE fan-out sampling used to train GNNs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiniBatch {
    /// The seed vertices the batch was built around.
    pub seeds: Vec<VertexId>,
    /// All vertices included in the batch (seeds first, then sampled
    /// neighbors hop by hop, deduplicated).
    pub vertices: Vec<VertexId>,
    /// Sampled edges as `(src, dst)` pairs, oriented from the later hop
    /// toward the seeds.
    pub edges: Vec<(VertexId, VertexId)>,
}

impl MiniBatch {
    /// Number of distinct vertices in the batch.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of sampled edges in the batch.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// Sample a GNN training mini-batch: for each seed, sample `fanouts[h]`
/// biased neighbors at hop `h`, recursively.
pub fn sample_mini_batch<S, R>(
    sampler: &S,
    seeds: &[VertexId],
    fanouts: &[usize],
    rng: &mut R,
) -> MiniBatch
where
    S: TransitionSampler,
    R: Rng + ?Sized,
{
    let mut vertices: Vec<VertexId> = Vec::new();
    let mut seen: std::collections::HashSet<VertexId> = std::collections::HashSet::new();
    let mut edges = Vec::new();
    let mut frontier: Vec<VertexId> = seeds.to_vec();
    for &s in seeds {
        if seen.insert(s) {
            vertices.push(s);
        }
    }
    for &fanout in fanouts {
        let mut next_frontier = Vec::new();
        for &v in &frontier {
            for _ in 0..fanout {
                if let Some(neighbor) = sampler.sample_neighbor(v, rng) {
                    edges.push((v, neighbor));
                    if seen.insert(neighbor) {
                        vertices.push(neighbor);
                        next_frontier.push(neighbor);
                    }
                }
            }
        }
        frontier = next_frontier;
        if frontier.is_empty() {
            break;
        }
    }
    MiniBatch {
        seeds: seeds.to_vec(),
        vertices,
        edges,
    }
}

/// Convenience: run a full DeepWalk corpus and return the vertices ranked by
/// visit count (the "influence ranking" downstream consumers read off the
/// corpus).
pub fn visit_ranking(results: &WalkResults, num_vertices: usize) -> Vec<(VertexId, u64)> {
    let counts = results.visit_counts(num_vertices);
    let mut ranked: Vec<(VertexId, u64)> = counts
        .into_iter()
        .enumerate()
        .map(|(v, c)| (v as VertexId, c))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{DeepWalkConfig, WalkSpec};
    use bingo_core::{BingoConfig, BingoEngine};
    use bingo_graph::{Bias, DynamicGraph};

    /// A two-community graph: vertices 0..5 densely connected, 5..10 densely
    /// connected, one bridge edge between the communities.
    fn community_engine() -> BingoEngine {
        let mut g = DynamicGraph::new(10);
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    g.insert_edge(a, b, Bias::from_int(4)).unwrap();
                }
            }
        }
        for a in 5..10u32 {
            for b in 5..10u32 {
                if a != b {
                    g.insert_edge(a, b, Bias::from_int(4)).unwrap();
                }
            }
        }
        g.insert_undirected_edge(4, 5, Bias::from_int(1)).unwrap();
        BingoEngine::build(&g, BingoConfig::default()).unwrap()
    }

    #[test]
    fn ppr_concentrates_mass_near_the_source() {
        let engine = community_engine();
        let scores = personalized_pagerank(
            &engine,
            0,
            4000,
            PprConfig {
                stop_probability: 0.2,
                max_length: 100,
            },
            7,
        );
        assert_eq!(scores.len(), 10);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Mass inside the source's community must dominate the other one.
        let near: f64 = scores[0..5].iter().sum();
        let far: f64 = scores[5..10].iter().sum();
        assert!(near > far * 2.0, "near {near} vs far {far}");
    }

    #[test]
    fn simrank_is_higher_within_a_community() {
        let engine = community_engine();
        let same = simrank_estimate(&engine, 1, 2, 4000, 10, 0.8, 11);
        let cross = simrank_estimate(&engine, 1, 7, 4000, 10, 0.8, 11);
        assert!(same > cross, "same-community {same} vs cross {cross}");
        assert_eq!(simrank_estimate(&engine, 3, 3, 10, 5, 0.8, 1), 1.0);
    }

    #[test]
    fn domination_selects_seeds_from_both_communities() {
        let engine = community_engine();
        // Four six-step walks per vertex leave the greedy choice close: about
        // one seed in four breaks the tie towards two seeds on one side.
        let (seeds, covered) = random_walk_domination(&engine, 2, 4, 6, 5);
        assert_eq!(seeds.len(), 2);
        assert!(
            covered >= 8,
            "2 seeds should cover most of the graph: {covered}"
        );
        let first_community = seeds.iter().filter(|&&s| s < 5).count();
        assert_eq!(
            first_community, 1,
            "one seed per community expected: {seeds:?}"
        );
    }

    #[test]
    fn domination_handles_degenerate_inputs() {
        let engine = community_engine();
        assert_eq!(random_walk_domination(&engine, 0, 2, 4, 1).0.len(), 0);
        let (seeds, _) = random_walk_domination(&engine, 50, 1, 2, 1);
        assert_eq!(seeds.len(), 10);
    }

    #[test]
    fn mini_batch_respects_fanouts_and_edges_exist() {
        let engine = community_engine();
        let mut rng = Pcg64::seed_from_u64(5);
        let batch = sample_mini_batch(&engine, &[0, 7], &[3, 2], &mut rng);
        assert_eq!(batch.seeds, vec![0, 7]);
        assert!(batch.num_vertices() >= 2);
        // Hop-0 sampling: at most 2 seeds × 3 samples, plus hop-1 ≤ 6 × 2.
        assert!(batch.num_edges() <= 2 * 3 + 6 * 2);
        for &(src, dst) in &batch.edges {
            assert!(
                engine.has_edge(src, dst),
                "sampled edge ({src},{dst}) missing"
            );
        }
        // Empty fanouts produce only the seeds.
        let empty = sample_mini_batch(&engine, &[3], &[], &mut rng);
        assert_eq!(empty.num_vertices(), 1);
        assert_eq!(empty.num_edges(), 0);
    }

    #[test]
    fn visit_ranking_is_sorted_and_complete() {
        let engine = community_engine();
        let results = WalkEngine::new(3).run_all_vertices(
            &engine,
            &WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 10 }),
        );
        let ranking = visit_ranking(&results, engine.num_vertices());
        assert_eq!(ranking.len(), 10);
        for pair in ranking.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }
}
