//! Per-vertex dynamic adjacency arrays.
//!
//! Each vertex owns a compact array of 12-byte [`Edge`] records (a `u32`
//! destination and an 8-byte, 4-aligned [`Bias`]). Insertion appends
//! (`O(1)` amortized) and deletion swap-removes (`O(1)`), matching the
//! dynamic-array design Bingo adopts from Hornet. Edges are addressed both
//! by destination vertex and by *neighbor index* — the position in the
//! array — because Bingo's radix groups store neighbor indices, not ids
//! (§4.2).

use crate::{Bias, VertexId};

/// One outgoing edge: destination vertex and sampling bias. 12 bytes — the
/// record every layer stores once per edge, so its size is pinned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Destination vertex.
    pub dst: VertexId,
    /// Sampling bias (transition weight).
    pub bias: Bias,
}

const _: () = assert!(std::mem::size_of::<Edge>() == 12);

impl Edge {
    /// Create an edge.
    pub fn new(dst: VertexId, bias: Bias) -> Self {
        Edge { dst, bias }
    }
}

/// The outcome of a swap-delete on an adjacency list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapDelete {
    /// The edge that was removed.
    pub removed: Edge,
    /// Index the edge occupied before removal.
    pub removed_index: usize,
    /// If another edge was moved into `removed_index` to keep the array
    /// compact, its *previous* index (always the old last index).
    pub moved_from: Option<usize>,
}

/// A dynamic adjacency list for a single vertex.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdjacencyList {
    edges: Vec<Edge>,
}

/// Edges removed by [`AdjacencyList::delete_many`], paired with the
/// neighbor index they occupied.
pub type RemovedEdges = Vec<(usize, Edge)>;
/// `(from, to)` index moves applied to surviving edges during compaction.
pub type EdgeMoves = Vec<(usize, usize)>;

impl AdjacencyList {
    /// Create an empty adjacency list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an adjacency list with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        AdjacencyList {
            edges: Vec::with_capacity(capacity),
        }
    }

    /// Number of outgoing edges (the vertex degree).
    #[inline]
    pub fn degree(&self) -> usize {
        self.edges.len()
    }

    /// Whether the vertex has no outgoing edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edge at neighbor index `i`.
    #[inline]
    pub fn edge(&self, i: usize) -> Option<&Edge> {
        self.edges.get(i)
    }

    /// All edges in neighbor-index order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over `(neighbor_index, edge)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Edge)> {
        self.edges.iter().enumerate()
    }

    /// Sum of all edge biases.
    pub fn total_bias(&self) -> f64 {
        self.edges.iter().map(|e| e.bias.value()).sum()
    }

    /// Maximum edge bias (0.0 when empty).
    pub fn max_bias(&self) -> f64 {
        self.edges
            .iter()
            .map(|e| e.bias.value())
            .fold(0.0, f64::max)
    }

    /// Find the neighbor index of the first edge pointing at `dst`.
    pub fn find(&self, dst: VertexId) -> Option<usize> {
        self.edges.iter().position(|e| e.dst == dst)
    }

    /// Append an edge, returning its neighbor index.
    pub fn push(&mut self, edge: Edge) -> usize {
        self.edges.push(edge);
        self.edges.len() - 1
    }

    /// Swap-remove the edge at neighbor index `i`.
    ///
    /// Returns `None` if `i` is out of bounds. The last edge (if any) is
    /// moved into position `i`, which callers must mirror in any structure
    /// that stores neighbor indices (Bingo's inverted index does exactly
    /// this).
    pub fn swap_delete(&mut self, i: usize) -> Option<SwapDelete> {
        if i >= self.edges.len() {
            return None;
        }
        let last = self.edges.len() - 1;
        let removed = self.edges.swap_remove(i);
        let moved_from = if i < last { Some(last) } else { None };
        Some(SwapDelete {
            removed,
            removed_index: i,
            moved_from,
        })
    }

    /// Delete many edges at once using the two-phase delete-and-swap
    /// compaction of §5.2 (Figure 10(b)).
    ///
    /// Returns the removed edges (paired with the neighbor index they
    /// occupied) and the `(from, to)` moves applied to surviving edges, so
    /// index structures built on top of the adjacency list can be patched.
    pub fn delete_many(&mut self, neighbor_indices: &[usize]) -> (RemovedEdges, EdgeMoves) {
        let removed: Vec<(usize, Edge)> = neighbor_indices
            .iter()
            .copied()
            .filter(|&i| i < self.edges.len())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|i| (i, self.edges[i]))
            .collect();
        let moves = crate::compaction::two_phase_delete_and_swap(&mut self.edges, neighbor_indices);
        (removed, moves)
    }

    /// Replace the bias of the edge at neighbor index `i`. Returns the old
    /// bias, or `None` if out of bounds.
    pub fn set_bias(&mut self, i: usize, bias: Bias) -> Option<Bias> {
        let edge = self.edges.get_mut(i)?;
        let old = edge.bias;
        edge.bias = bias;
        Some(old)
    }

    /// Bytes of heap memory used by this adjacency list.
    pub fn memory_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<Edge>()
    }
}

impl FromIterator<Edge> for AdjacencyList {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        AdjacencyList {
            edges: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_list() -> AdjacencyList {
        // Vertex 2 of the running example: (2,1,5), (2,4,4), (2,5,3).
        [
            Edge::new(1, Bias::from_int(5)),
            Edge::new(4, Bias::from_int(4)),
            Edge::new(5, Bias::from_int(3)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn push_and_degree() {
        let mut adj = AdjacencyList::new();
        assert!(adj.is_empty());
        assert_eq!(adj.push(Edge::new(1, Bias::from_int(5))), 0);
        assert_eq!(adj.push(Edge::new(4, Bias::from_int(4))), 1);
        assert_eq!(adj.degree(), 2);
        assert!(!adj.is_empty());
    }

    #[test]
    fn totals_match_running_example() {
        let adj = sample_list();
        assert_eq!(adj.total_bias(), 12.0);
        assert_eq!(adj.max_bias(), 5.0);
        assert_eq!(adj.degree(), 3);
    }

    #[test]
    fn find_locates_destination() {
        let adj = sample_list();
        assert_eq!(adj.find(4), Some(1));
        assert_eq!(adj.find(99), None);
    }

    #[test]
    fn swap_delete_middle_moves_last() {
        let mut adj = sample_list();
        let out = adj.swap_delete(0).unwrap();
        assert_eq!(out.removed.dst, 1);
        assert_eq!(out.removed_index, 0);
        assert_eq!(out.moved_from, Some(2));
        // Edge to 5 moved into slot 0.
        assert_eq!(adj.edge(0).unwrap().dst, 5);
        assert_eq!(adj.degree(), 2);
    }

    #[test]
    fn swap_delete_tail_moves_nothing() {
        let mut adj = sample_list();
        let out = adj.swap_delete(2).unwrap();
        assert_eq!(out.removed.dst, 5);
        assert_eq!(out.moved_from, None);
        assert_eq!(adj.degree(), 2);
    }

    #[test]
    fn swap_delete_out_of_bounds_is_none() {
        let mut adj = sample_list();
        assert!(adj.swap_delete(3).is_none());
        assert_eq!(adj.degree(), 3);
    }

    #[test]
    fn set_bias_replaces_and_returns_old() {
        let mut adj = sample_list();
        let old = adj.set_bias(1, Bias::from_int(9)).unwrap();
        assert_eq!(old.value(), 4.0);
        assert_eq!(adj.edge(1).unwrap().bias.value(), 9.0);
        assert!(adj.set_bias(7, Bias::from_int(1)).is_none());
    }

    #[test]
    fn iter_yields_indices_in_order() {
        let adj = sample_list();
        let idxs: Vec<usize> = adj.iter().map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![0, 1, 2]);
    }

    #[test]
    fn delete_many_removes_requested_edges() {
        let mut adj = sample_list();
        adj.push(Edge::new(7, Bias::from_int(2)));
        let (removed, moves) = adj.delete_many(&[0, 3]);
        assert_eq!(removed.len(), 2);
        let removed_dsts: Vec<VertexId> = removed.iter().map(|(_, e)| e.dst).collect();
        assert_eq!(removed_dsts, vec![1, 7]);
        assert_eq!(adj.degree(), 2);
        assert!(adj.find(1).is_none());
        assert!(adj.find(7).is_none());
        // Slot 0 was refilled by a surviving tail edge.
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].1, 0);
    }

    #[test]
    fn delete_many_with_empty_set_is_noop() {
        let mut adj = sample_list();
        let (removed, moves) = adj.delete_many(&[]);
        assert!(removed.is_empty());
        assert!(moves.is_empty());
        assert_eq!(adj.degree(), 3);
    }

    #[test]
    fn memory_grows_with_capacity() {
        let small = AdjacencyList::with_capacity(2);
        let large = AdjacencyList::with_capacity(1000);
        assert!(large.memory_bytes() > small.memory_bytes());
    }
}
