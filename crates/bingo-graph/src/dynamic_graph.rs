//! The mutable weighted graph.
//!
//! [`DynamicGraph`] is the snapshot-model dynamic graph of Definition 2.1:
//! a vertex set `0..num_vertices` plus per-vertex adjacency arrays that can
//! be mutated by edge insertions, deletions and bias updates. All sampling
//! structures in `bingo-core` and the baselines are built over this graph,
//! observing its mutations either one at a time (streaming) or in batches.

use crate::adjacency::{AdjacencyList, Edge, SwapDelete};
use crate::csr::CsrGraph;
use crate::updates::{UpdateBatch, UpdateEvent};
use crate::{Bias, GraphError, Result, VertexId};

/// A dynamic, directed, weighted graph.
///
/// Undirected graphs are represented by inserting both edge directions, which
/// is what the dataset generators and loaders do by default.
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    adjacency: Vec<AdjacencyList>,
    num_edges: usize,
}

impl DynamicGraph {
    /// Create a graph with `num_vertices` isolated vertices.
    pub fn new(num_vertices: usize) -> Self {
        DynamicGraph {
            adjacency: vec![AdjacencyList::new(); num_vertices],
            num_edges: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of directed edges currently present.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree (out-degree) of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency
            .get(v as usize)
            .map(AdjacencyList::degree)
            .unwrap_or(0)
    }

    /// Maximum out-degree over all vertices.
    pub fn max_degree(&self) -> usize {
        self.adjacency
            .iter()
            .map(AdjacencyList::degree)
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.adjacency.is_empty() {
            0.0
        } else {
            self.num_edges as f64 / self.adjacency.len() as f64
        }
    }

    /// Adjacency list of `v`.
    pub fn neighbors(&self, v: VertexId) -> Result<&AdjacencyList> {
        self.adjacency
            .get(v as usize)
            .ok_or(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.adjacency.len(),
            })
    }

    /// Ensure the graph has at least `n` vertices, growing it if needed.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.adjacency.len() {
            self.adjacency.resize(n, AdjacencyList::new());
        }
    }

    /// Add a brand-new isolated vertex and return its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adjacency.push(AdjacencyList::new());
        (self.adjacency.len() - 1) as VertexId
    }

    fn check_vertex(&self, v: VertexId) -> Result<()> {
        if (v as usize) < self.adjacency.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.adjacency.len(),
            })
        }
    }

    /// Insert the directed edge `(src, dst)` with the given bias and return
    /// its neighbor index in `src`'s adjacency list.
    ///
    /// Duplicate edges are allowed (the paper explicitly supports inserting
    /// a just-deleted edge again); each insertion creates a new slot.
    pub fn insert_edge(&mut self, src: VertexId, dst: VertexId, bias: Bias) -> Result<usize> {
        self.check_vertex(src)?;
        self.check_vertex(dst)?;
        if !bias.is_valid() {
            return Err(GraphError::InvalidBias { src, dst });
        }
        let idx = self.adjacency[src as usize].push(Edge::new(dst, bias));
        self.num_edges += 1;
        Ok(idx)
    }

    /// Insert both directions of an undirected edge.
    pub fn insert_undirected_edge(&mut self, a: VertexId, b: VertexId, bias: Bias) -> Result<()> {
        self.insert_edge(a, b, bias)?;
        self.insert_edge(b, a, bias)?;
        Ok(())
    }

    /// Delete the first edge `(src, dst)` found, using swap-delete.
    ///
    /// Returns the [`SwapDelete`] record so samplers mirroring the adjacency
    /// layout (Bingo's inverted index) can update their neighbor indices.
    pub fn delete_edge(&mut self, src: VertexId, dst: VertexId) -> Result<SwapDelete> {
        self.check_vertex(src)?;
        let adj = &mut self.adjacency[src as usize];
        let idx = adj.find(dst).ok_or(GraphError::EdgeNotFound { src, dst })?;
        let out = adj
            .swap_delete(idx)
            .expect("index returned by find is valid");
        self.num_edges -= 1;
        Ok(out)
    }

    /// Delete the edge at a specific neighbor index of `src`.
    pub fn delete_edge_at(&mut self, src: VertexId, neighbor_index: usize) -> Result<SwapDelete> {
        self.check_vertex(src)?;
        let adj = &mut self.adjacency[src as usize];
        let degree = adj.degree();
        let out = adj
            .swap_delete(neighbor_index)
            .ok_or(GraphError::NeighborIndexOutOfRange {
                src,
                index: neighbor_index,
                degree,
            })?;
        self.num_edges -= 1;
        Ok(out)
    }

    /// Update the bias of the first edge `(src, dst)` found. Returns the old
    /// bias.
    pub fn update_bias(&mut self, src: VertexId, dst: VertexId, bias: Bias) -> Result<Bias> {
        self.check_vertex(src)?;
        if !bias.is_valid() {
            return Err(GraphError::InvalidBias { src, dst });
        }
        let adj = &mut self.adjacency[src as usize];
        let idx = adj.find(dst).ok_or(GraphError::EdgeNotFound { src, dst })?;
        Ok(adj
            .set_bias(idx, bias)
            .expect("index returned by find is valid"))
    }

    /// Whether the edge `(src, dst)` exists.
    pub fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.adjacency
            .get(src as usize)
            .map(|adj| adj.find(dst).is_some())
            .unwrap_or(false)
    }

    /// Apply a single update event to the graph. Deleting a missing edge is
    /// reported as an error; the batched-update machinery filters those out
    /// beforehand.
    pub fn apply(&mut self, event: &UpdateEvent) -> Result<()> {
        match *event {
            UpdateEvent::Insert { src, dst, bias } => {
                self.insert_edge(src, dst, bias)?;
            }
            UpdateEvent::Delete { src, dst } => {
                self.delete_edge(src, dst)?;
            }
            UpdateEvent::UpdateBias { src, dst, bias } => {
                self.update_bias(src, dst, bias)?;
            }
        }
        Ok(())
    }

    /// Apply a batch of update events in order, skipping deletions of edges
    /// that do not exist (which can happen with randomly generated mixed
    /// streams). Returns the number of events actually applied.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> usize {
        let mut applied = 0;
        for event in batch.events() {
            let ok = match *event {
                UpdateEvent::Delete { src, dst } => self.delete_edge(src, dst).is_ok(),
                ref other => self.apply(other).is_ok(),
            };
            if ok {
                applied += 1;
            }
        }
        applied
    }

    /// Build a static CSR snapshot of the current graph state.
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_dynamic(self)
    }

    /// Iterator over all `(src, edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, &Edge)> {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(v, adj)| adj.edges().iter().map(move |e| (v as VertexId, e)))
    }

    /// Total heap memory used by adjacency storage: every vertex's block
    /// (see [`AdjacencyList::memory_bytes`]) and the inline handles. A clone
    /// of the graph, or an engine built from it, shares the blocks until one
    /// side writes to them; a shared block appears in both reports.
    pub fn memory_bytes(&self) -> usize {
        self.adjacency
            .iter()
            .map(AdjacencyList::memory_bytes)
            .sum::<usize>()
            + self.adjacency.capacity() * std::mem::size_of::<AdjacencyList>()
    }
}

/// Build the 6-vertex running example used throughout the paper
/// (Figures 1, 2 and 4). Vertex 2's out-edges are `(2,1,5)`, `(2,4,4)`,
/// `(2,5,3)`; the remaining edges complete snapshot 1 of Figure 1.
pub fn running_example() -> DynamicGraph {
    let mut g = DynamicGraph::new(6);
    let edges: [(VertexId, VertexId, u64); 8] = [
        (0, 1, 6),
        (0, 2, 7),
        (1, 2, 5),
        (2, 1, 5),
        (2, 4, 4),
        (2, 5, 3),
        (3, 2, 5),
        (4, 3, 1),
    ];
    for (s, d, w) in edges {
        g.insert_edge(s, d, Bias::from_int(w))
            .expect("running example edges are valid");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_empty() {
        let g = DynamicGraph::new(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn insert_and_query_edges() {
        let mut g = DynamicGraph::new(6);
        g.insert_edge(2, 1, Bias::from_int(5)).unwrap();
        g.insert_edge(2, 4, Bias::from_int(4)).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(2), 2);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.neighbors(2).unwrap().total_bias(), 9.0);
    }

    #[test]
    fn insert_rejects_bad_input() {
        let mut g = DynamicGraph::new(2);
        assert!(matches!(
            g.insert_edge(0, 5, Bias::from_int(1)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            g.insert_edge(5, 0, Bias::from_int(1)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            g.insert_edge(0, 1, Bias::from_int(0)),
            Err(GraphError::InvalidBias { .. })
        ));
        assert!(matches!(
            g.insert_edge(0, 1, Bias::from_float(-2.0)),
            Err(GraphError::InvalidBias { .. })
        ));
    }

    #[test]
    fn duplicate_edges_are_allowed() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(0, 1, Bias::from_int(1)).unwrap();
        g.insert_edge(0, 1, Bias::from_int(2)).unwrap();
        assert_eq!(g.degree(0), 2);
        // Deleting removes the first matching copy only.
        g.delete_edge(0, 1).unwrap();
        assert_eq!(g.degree(0), 1);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn delete_edge_swaps_and_reports() {
        let mut g = super::running_example();
        let out = g.delete_edge(2, 1).unwrap();
        assert_eq!(out.removed.dst, 1);
        assert_eq!(out.removed_index, 0);
        assert_eq!(out.moved_from, Some(2));
        assert_eq!(g.degree(2), 2);
        assert!(!g.has_edge(2, 1));
        assert!(matches!(
            g.delete_edge(2, 1),
            Err(GraphError::EdgeNotFound { .. })
        ));
    }

    #[test]
    fn delete_edge_at_index() {
        let mut g = super::running_example();
        let before = g.num_edges();
        g.delete_edge_at(2, 1).unwrap();
        assert_eq!(g.num_edges(), before - 1);
        assert_eq!(
            g.delete_edge_at(2, 10),
            Err(GraphError::NeighborIndexOutOfRange {
                src: 2,
                index: 10,
                degree: 2
            })
        );
        assert_eq!(g.num_edges(), before - 1);
    }

    #[test]
    fn update_bias_returns_old_value() {
        let mut g = super::running_example();
        let old = g.update_bias(2, 4, Bias::from_int(9)).unwrap();
        assert_eq!(old.value(), 4.0);
        assert!(g.update_bias(2, 99, Bias::from_int(1)).is_err());
        assert!(g.update_bias(2, 4, Bias::from_int(0)).is_err());
    }

    #[test]
    fn undirected_insert_adds_both_directions() {
        let mut g = DynamicGraph::new(3);
        g.insert_undirected_edge(0, 1, Bias::from_int(2)).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn ensure_and_add_vertices() {
        let mut g = DynamicGraph::new(2);
        g.ensure_vertices(5);
        assert_eq!(g.num_vertices(), 5);
        g.ensure_vertices(3); // no shrink
        assert_eq!(g.num_vertices(), 5);
        let v = g.add_vertex();
        assert_eq!(v, 5);
        assert_eq!(g.num_vertices(), 6);
    }

    #[test]
    fn apply_events_roundtrip() {
        let mut g = DynamicGraph::new(4);
        g.apply(&UpdateEvent::Insert {
            src: 0,
            dst: 1,
            bias: Bias::from_int(3),
        })
        .unwrap();
        g.apply(&UpdateEvent::UpdateBias {
            src: 0,
            dst: 1,
            bias: Bias::from_int(7),
        })
        .unwrap();
        assert_eq!(g.neighbors(0).unwrap().edge(0).unwrap().bias.value(), 7.0);
        g.apply(&UpdateEvent::Delete { src: 0, dst: 1 }).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert!(g.apply(&UpdateEvent::Delete { src: 0, dst: 1 }).is_err());
    }

    #[test]
    fn running_example_matches_paper() {
        let g = super::running_example();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 8);
        let adj = g.neighbors(2).unwrap();
        assert_eq!(adj.degree(), 3);
        assert_eq!(adj.total_bias(), 12.0);
        assert_eq!(adj.max_bias(), 5.0);
    }

    #[test]
    fn edges_iterator_covers_everything() {
        let g = super::running_example();
        assert_eq!(g.edges().count(), 8);
        let from_two: Vec<VertexId> = g
            .edges()
            .filter(|(s, _)| *s == 2)
            .map(|(_, e)| e.dst)
            .collect();
        assert_eq!(from_two, vec![1, 4, 5]);
    }

    #[test]
    fn memory_accounting_is_positive_after_inserts() {
        let mut g = DynamicGraph::new(10);
        for i in 0..9u32 {
            g.insert_edge(0, i + 1, Bias::from_int(1)).unwrap();
        }
        assert!(g.memory_bytes() > 0);
    }
}
