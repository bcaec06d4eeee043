//! 1-D graph partitioning (§9.1).
//!
//! Multi-GPU Bingo distributes the graph by 1-D (per-vertex) partitioning
//! and moves *walkers* between devices rather than shipping sampling
//! structures. This module holds the vertex → partition map of that scheme:
//! the vertex range is split into contiguous partitions, uniformly or
//! balanced by out-degree. The deployment built on it — one range engine
//! ([`BingoEngine::build_range`](crate::BingoEngine::build_range)) per
//! partition over the graph's shared edge blocks, walkers forwarded between
//! them — is `bingo-service`'s `WalkService`.

use bingo_graph::{DynamicGraph, VertexId};

/// Maps vertices to partitions by contiguous ranges (1-D partitioning).
///
/// Two flavors share this type: the default *uniform* split (equal vertex
/// counts per partition, computed arithmetically) and an *explicit* split
/// with stored boundaries, produced by [`Partitioner::balanced_by_degree`]
/// to equalize per-partition edge (and therefore walk-step) load on skewed
/// graphs. Cloning is cheap in both cases — explicit boundaries are held
/// behind an `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioner {
    num_vertices: usize,
    num_partitions: usize,
    /// Explicit partition boundaries: `starts[p] .. starts[p + 1]` is the
    /// range of partition `p` (`len == num_partitions + 1`). `None` means
    /// uniform ranges computed on the fly.
    starts: Option<std::sync::Arc<[usize]>>,
}

impl Partitioner {
    /// Create a uniform partitioner for `num_vertices` vertices over
    /// `num_partitions` partitions (at least 1).
    pub fn new(num_vertices: usize, num_partitions: usize) -> Self {
        Partitioner {
            num_vertices,
            num_partitions: num_partitions.max(1),
            starts: None,
        }
    }

    /// Create a degree-balanced contiguous split: partition boundaries are
    /// chosen greedily so each partition's total out-degree approaches the
    /// fair share, instead of each partition's *vertex count*. On power-law
    /// graphs (where low ids concentrate the edges) this spreads walk-step
    /// load far more evenly across shards than the uniform split.
    pub fn balanced_by_degree(graph: &DynamicGraph, num_partitions: usize) -> Self {
        let weights: Vec<usize> = (0..graph.num_vertices())
            .map(|v| graph.degree(v as VertexId))
            .collect();
        Self::balanced_by_weight(&weights, num_partitions)
    }

    /// Create a contiguous split balancing arbitrary per-vertex weights
    /// (the primitive behind [`Partitioner::balanced_by_degree`]).
    fn balanced_by_weight(weights: &[usize], num_partitions: usize) -> Self {
        let n = weights.len();
        let p = num_partitions.max(1);
        let total: usize = weights.iter().sum();
        let mut starts = Vec::with_capacity(p + 1);
        starts.push(0usize);
        let mut assigned = 0usize;
        let mut v = 0usize;
        for part in 0..p - 1 {
            let remaining_parts = p - part;
            let target = (total - assigned).div_ceil(remaining_parts);
            let mut here = 0usize;
            // Take at least one vertex (when any remain), then stop at the
            // first vertex that would overshoot the fair share.
            while v < n && (here == 0 || here + weights[v] <= target) {
                here += weights[v];
                v += 1;
            }
            assigned += here;
            starts.push(v);
        }
        starts.push(n);
        Partitioner {
            num_vertices: n,
            num_partitions: p,
            starts: Some(starts.into()),
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// The partition owning vertex `v`.
    pub fn owner(&self, v: VertexId) -> usize {
        if self.num_vertices == 0 {
            return 0;
        }
        match &self.starts {
            Some(starts) => starts
                .partition_point(|&s| s <= v as usize)
                .saturating_sub(1)
                .min(self.num_partitions - 1),
            None => {
                let per = self.num_vertices.div_ceil(self.num_partitions);
                ((v as usize) / per).min(self.num_partitions - 1)
            }
        }
    }

    /// The contiguous vertex range `[start, end)` of partition `p`.
    pub fn range(&self, p: usize) -> (usize, usize) {
        match &self.starts {
            Some(starts) => (starts[p], starts[p + 1]),
            None => {
                let per = self.num_vertices.div_ceil(self.num_partitions);
                let start = (p * per).min(self.num_vertices);
                let end = ((p + 1) * per).min(self.num_vertices);
                (start, end)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_graph::Bias;

    #[test]
    fn partitioner_covers_all_vertices_exactly_once() {
        let p = Partitioner::new(10, 3);
        let mut counts = [0usize; 3];
        for v in 0..10u32 {
            counts[p.owner(v)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 10);
        // Ranges are consistent with owner().
        for part in 0..3 {
            let (start, end) = p.range(part);
            for v in start..end {
                assert_eq!(p.owner(v as VertexId), part);
            }
        }
    }

    #[test]
    fn degenerate_partitioners() {
        let p = Partitioner::new(5, 1);
        assert_eq!(p.owner(4), 0);
        let p = Partitioner::new(0, 4);
        assert_eq!(p.owner(0), 0);
        let p = Partitioner::new(3, 0);
        assert_eq!(p.num_partitions(), 1);
        let p = Partitioner::balanced_by_weight(&[], 3);
        assert_eq!(p.num_partitions(), 3);
        assert_eq!(p.range(2), (0, 0));
        let p = Partitioner::balanced_by_weight(&[7, 7], 1);
        assert_eq!(p.range(0), (0, 2));
    }

    #[test]
    fn balanced_by_weight_covers_all_vertices_exactly_once() {
        let weights = [100usize, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        let p = Partitioner::balanced_by_weight(&weights, 3);
        let mut counts = [0usize; 3];
        for v in 0..10u32 {
            counts[p.owner(v)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 10);
        for part in 0..3 {
            let (start, end) = p.range(part);
            for v in start..end {
                assert_eq!(p.owner(v as VertexId), part);
            }
        }
        // Ranges tile [0, n) contiguously.
        assert_eq!(p.range(0).0, 0);
        assert_eq!(p.range(2).1, 10);
        assert_eq!(p.range(0).1, p.range(1).0);
        assert_eq!(p.range(1).1, p.range(2).0);
    }

    #[test]
    fn balanced_by_degree_evens_out_a_skewed_graph() {
        // Vertex 0 carries half the edges: a uniform 2-way split puts
        // vertices [0, n/2) — nearly all the weight — on partition 0, while
        // the balanced split hands partition 0 little more than vertex 0.
        let n = 16usize;
        let mut g = DynamicGraph::new(n);
        for dst in 1..n as u32 {
            g.insert_edge(0, dst, Bias::from_int(1)).unwrap();
        }
        for v in 1..n as u32 {
            g.insert_edge(v, (v + 1) % n as u32, Bias::from_int(1))
                .unwrap();
        }
        let degree_of_range = |p: &Partitioner, part: usize| -> usize {
            let (s, e) = p.range(part);
            (s..e).map(|v| g.degree(v as VertexId)).sum()
        };
        let uniform = Partitioner::new(n, 2);
        let balanced = Partitioner::balanced_by_degree(&g, 2);
        let spread = |a: usize, b: usize| a.max(b) - a.min(b);
        let uniform_spread = spread(degree_of_range(&uniform, 0), degree_of_range(&uniform, 1));
        let balanced_spread = spread(degree_of_range(&balanced, 0), degree_of_range(&balanced, 1));
        assert!(
            balanced_spread < uniform_spread,
            "balanced {balanced_spread} vs uniform {uniform_spread}"
        );
    }
}
