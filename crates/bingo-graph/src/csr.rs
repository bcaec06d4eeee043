//! Static CSR (compressed sparse row) snapshots.
//!
//! The baselines the paper compares against (gSampler in particular) operate
//! on static snapshots that are rebuilt after every batch of updates.
//! [`CsrGraph`] is that snapshot format: an offsets array plus flat
//! destination and bias arrays.

use crate::dynamic_graph::DynamicGraph;
use crate::VertexId;

/// A read-only CSR snapshot of a [`DynamicGraph`].
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    dsts: Vec<VertexId>,
    biases: Vec<f64>,
}

impl CsrGraph {
    /// Build a CSR snapshot from the current state of a dynamic graph.
    /// `O(V + E)`.
    pub fn from_dynamic(graph: &DynamicGraph) -> Self {
        let n = graph.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut dsts = Vec::with_capacity(graph.num_edges());
        let mut biases = Vec::with_capacity(graph.num_edges());
        offsets.push(0);
        for v in 0..n {
            let adj = graph
                .neighbors(v as VertexId)
                .expect("vertex index within range");
            for e in adj.edges() {
                dsts.push(e.dst);
                biases.push(e.bias.value());
            }
            offsets.push(dsts.len());
        }
        CsrGraph {
            offsets,
            dsts,
            biases,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.dsts.len()
    }

    /// Out-degree of `v` (0 for out-of-range vertices).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        if v + 1 >= self.offsets.len() {
            return 0;
        }
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Destinations of `v`'s out-edges.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        if v + 1 >= self.offsets.len() {
            return &[];
        }
        &self.dsts[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Biases of `v`'s out-edges, parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn biases(&self, v: VertexId) -> &[f64] {
        let v = v as usize;
        if v + 1 >= self.offsets.len() {
            return &[];
        }
        &self.biases[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Total heap memory used by the snapshot.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.dsts.capacity() * std::mem::size_of::<VertexId>()
            + self.biases.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic_graph::running_example;

    #[test]
    fn csr_matches_dynamic_graph() {
        let g = running_example();
        let csr = g.to_csr();
        assert_eq!(csr.num_vertices(), g.num_vertices());
        assert_eq!(csr.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(csr.degree(v), g.degree(v));
            let dyn_dsts: Vec<VertexId> = g
                .neighbors(v)
                .unwrap()
                .edges()
                .iter()
                .map(|e| e.dst)
                .collect();
            assert_eq!(csr.neighbors(v), dyn_dsts.as_slice());
        }
        assert_eq!(csr.biases(2), &[5.0, 4.0, 3.0]);
    }

    #[test]
    fn out_of_range_vertex_has_empty_neighbors() {
        let csr = running_example().to_csr();
        assert_eq!(csr.degree(100), 0);
        assert!(csr.neighbors(100).is_empty());
        assert!(csr.biases(100).is_empty());
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = DynamicGraph::new(0);
        let csr = g.to_csr();
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert!(csr.memory_bytes() < 1024);
    }
}
