//! Per-vertex dynamic adjacency arrays.
//!
//! Each vertex owns a compact array of 12-byte [`Edge`] records (a `u32`
//! destination and an 8-byte, 4-aligned [`Bias`]). Insertion appends
//! (`O(1)` amortized: a full block is copied into one of twice the
//! capacity, starting at 4) and deletion swap-removes (`O(1)`), matching the
//! dynamic-array design Bingo adopts from Hornet. A graph that is still
//! loading does not push: it builds each vertex's block once, at the
//! capacity those pushes would have reached (see [`crate::dynamic_graph`]).
//! Edges are addressed both by destination vertex and by *neighbor index* —
//! the position in the array — because Bingo's radix groups store neighbor
//! indices, not ids (§4.2).
//!
//! The array is a copy-on-write block. Cloning an [`AdjacencyList`] shares
//! its block instead of copying it, so a graph, the engines built from it
//! and their clones keep one copy of every vertex's edges between them. The
//! first mutation through a handle whose block another handle can still
//! see copies the block once; a block nobody else sees is edited in place.

use crate::{Bias, VertexId};
use std::sync::Arc;

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
///
/// `Clone` shares the edges (see the module docs); equality and `Debug`
/// look at the edges only, never at the capacity or at who else holds the
/// block.
#[derive(Clone, Default)]
pub struct AdjacencyList {
    /// The block: its length is the capacity, `slots[..len]` are the edges,
    /// and nothing reads the slots past `len` (a fresh block fills them with
    /// an invalid-bias edge). `None` until the first edge needs room. It is
    /// written only through `Arc::get_mut` / `Arc::make_mut`, so never while
    /// another handle holds it.
    slots: Option<Arc<[Edge]>>,
    len: u32,
}

// `VertexSpace` embeds one of these per vertex; it is as wide as the `Vec`
// it replaced.
const _: () = assert!(std::mem::size_of::<AdjacencyList>() == 24);

/// The two reference counts in front of an `Arc`'s payload.
const BLOCK_HEADER_BYTES: usize = 2 * std::mem::size_of::<usize>();

/// Edges removed by [`AdjacencyList::delete_many`], paired with the
/// neighbor index they occupied.
pub type RemovedEdges = Vec<(usize, Edge)>;
/// `(from, to)` index moves applied to surviving edges during compaction.
pub type EdgeMoves = Vec<(usize, usize)>;

/// Neighbor indices are 32 bits wide everywhere above this type.
const MAX_EDGES: usize = u32::MAX as usize;

/// A fresh block of `capacity` slots starting with `edges` and then `more`.
fn new_block(edges: &[Edge], more: &[Edge], capacity: usize) -> Arc<[Edge]> {
    assert!(
        capacity <= MAX_EDGES,
        "an adjacency block of {capacity} slots"
    );
    let pad = Edge::new(0, Bias::from_float(0.0));
    // One allocation: `repeat_n` knows its length. Fill, then copy — both
    // straight-line loops.
    let mut block: Arc<[Edge]> = std::iter::repeat_n(pad, capacity).collect();
    let slots = Arc::get_mut(&mut block).expect("a block nobody else has seen");
    let (head, tail) = slots.split_at_mut(edges.len());
    head.copy_from_slice(edges);
    tail[..more.len()].copy_from_slice(more);
    block
}

impl AdjacencyList {
    /// Create an empty adjacency list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an adjacency list with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        AdjacencyList {
            slots: (capacity > 0).then(|| new_block(&[], &[], capacity)),
            len: 0,
        }
    }

    /// Make this empty list `degree` edges long, in one block of the
    /// capacity pushing that many edges grows it to (4, then doubling), and
    /// return the `degree` slots for the caller to write the edges into.
    /// Until then they hold an invalid-bias pad edge.
    pub(crate) fn load(&mut self, degree: usize) -> &mut [Edge] {
        debug_assert!(self.slots.is_none(), "a list is loaded once, empty");
        if degree == 0 {
            return &mut [];
        }
        self.len = degree as u32;
        let capacity = degree.next_power_of_two().clamp(4, MAX_EDGES);
        let block = self.slots.insert(new_block(&[], &[], capacity));
        &mut Arc::get_mut(block).expect("a block nobody else has seen")[..degree]
    }

    /// Number of outgoing edges (the vertex degree).
    #[inline]
    pub fn degree(&self) -> usize {
        self.len as usize
    }

    /// Whether the vertex has no outgoing edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The edge at neighbor index `i`.
    #[inline]
    pub fn edge(&self, i: usize) -> Option<&Edge> {
        self.edges().get(i)
    }

    /// All edges in neighbor-index order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        match &self.slots {
            Some(slots) => &slots[..self.len as usize],
            None => &[],
        }
    }

    /// Iterator over `(neighbor_index, edge)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Edge)> {
        self.edges().iter().enumerate()
    }

    /// Sum of all edge biases.
    pub fn total_bias(&self) -> f64 {
        self.edges().iter().map(|e| e.bias.value()).sum()
    }

    /// Maximum edge bias (0.0 when empty).
    pub fn max_bias(&self) -> f64 {
        self.edges()
            .iter()
            .map(|e| e.bias.value())
            .fold(0.0, f64::max)
    }

    /// Find the neighbor index of the first edge pointing at `dst`.
    pub fn find(&self, dst: VertexId) -> Option<usize> {
        self.edges().iter().position(|e| e.dst == dst)
    }

    /// Every slot of the block, writable: the block itself when this handle
    /// is the only one holding it, else a copy of the same capacity that
    /// replaces it here and leaves the other holders' untouched.
    fn slots_mut(&mut self) -> &mut [Edge] {
        match &mut self.slots {
            Some(slots) => Arc::make_mut(slots),
            None => &mut [],
        }
    }

    /// Append an edge, returning its neighbor index.
    #[inline]
    pub fn push(&mut self, edge: Edge) -> usize {
        let i = self.len as usize;
        // The bounds check reads the handle only; the one uniqueness check
        // is the only touch of the block's header. A missing, full or
        // shared block goes out of line.
        match &mut self.slots {
            Some(slots) if i < slots.len() => match Arc::get_mut(slots) {
                Some(slots) => slots[i] = edge,
                None => self.push_slow(edge),
            },
            _ => self.push_slow(edge),
        }
        self.len += 1;
        i
    }

    /// [`AdjacencyList::push`] when the block cannot take the edge as it is.
    #[cold]
    #[inline(never)]
    fn push_slow(&mut self, edge: Edge) {
        let i = self.len as usize;
        let capacity = self.slots.as_ref().map_or(0, |slots| slots.len());
        if i < capacity {
            // Shared, with room: the copy-on-write.
            self.slots_mut()[i] = edge;
        } else {
            // Full (or absent): double, as `Vec` does. Shared or not, the
            // edges are copied once.
            assert!(
                i < MAX_EDGES,
                "an adjacency list of {MAX_EDGES} edges is full"
            );
            let grown = (capacity * 2).clamp(4, MAX_EDGES);
            self.slots = Some(new_block(self.edges(), &[edge], grown));
        }
    }

    /// Swap-remove the edge at neighbor index `i`.
    ///
    /// Returns `None` if `i` is out of bounds. The last edge (if any) is
    /// moved into position `i`, which callers must mirror in any structure
    /// that stores neighbor indices (Bingo's inverted index does exactly
    /// this).
    pub fn swap_delete(&mut self, i: usize) -> Option<SwapDelete> {
        if i >= self.len as usize {
            return None;
        }
        let last = self.len as usize - 1;
        let slots = self.slots_mut();
        let removed = slots[i];
        slots[i] = slots[last];
        self.len -= 1;
        Some(SwapDelete {
            removed,
            removed_index: i,
            moved_from: (i < last).then_some(last),
        })
    }

    /// Delete many edges at once using the two-phase delete-and-swap
    /// compaction of §5.2 (Figure 10(b)).
    ///
    /// Returns the removed edges (paired with the neighbor index they
    /// occupied) and the `(from, to)` moves applied to surviving edges, so
    /// index structures built on top of the adjacency list can be patched.
    pub fn delete_many(&mut self, neighbor_indices: &[usize]) -> (RemovedEdges, EdgeMoves) {
        let len = self.len as usize;
        let delete = crate::compaction::normalized(neighbor_indices, len);
        if delete.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let removed = delete.iter().map(|&i| (i, self.edges()[i])).collect();
        (removed, self.delete_sorted(&delete))
    }

    /// [`AdjacencyList::delete_many`] for a caller that has the neighbor
    /// indices ascending, distinct and in range, and does not need the
    /// removed edges back: allocates only the moves it returns.
    ///
    /// # Panics
    ///
    /// Panics if `neighbor_indices` is not strictly ascending or names an
    /// index at or beyond the degree.
    pub fn delete_sorted(&mut self, neighbor_indices: &[usize]) -> EdgeMoves {
        let len = self.len as usize;
        assert!(
            neighbor_indices.windows(2).all(|pair| pair[0] < pair[1])
                && neighbor_indices.last().is_none_or(|&last| last < len),
            "neighbor indices to delete must be ascending, distinct and below the degree"
        );
        if neighbor_indices.is_empty() {
            return Vec::new();
        }
        let edges = &mut self.slots_mut()[..len];
        let (new_len, moves) = crate::compaction::compact(edges, neighbor_indices);
        self.len = new_len as u32;
        moves
    }

    /// Replace the bias of the edge at neighbor index `i`. Returns the old
    /// bias, or `None` if out of bounds.
    pub fn set_bias(&mut self, i: usize, bias: Bias) -> Option<Bias> {
        if i >= self.len as usize {
            return None;
        }
        Some(std::mem::replace(&mut self.slots_mut()[i].bias, bias))
    }

    /// Bytes of heap memory in this list's block: 12 per slot plus the
    /// block's 16-byte count header, rounded up to the header's alignment;
    /// 0 without a block. A block shared with other handles is counted in
    /// full by each of them.
    pub fn memory_bytes(&self) -> usize {
        match &self.slots {
            Some(slots) => (BLOCK_HEADER_BYTES + slots.len() * std::mem::size_of::<Edge>())
                .next_multiple_of(std::mem::align_of::<usize>()),
            None => 0,
        }
    }
}

impl PartialEq for AdjacencyList {
    fn eq(&self, other: &Self) -> bool {
        self.edges() == other.edges()
    }
}

impl std::fmt::Debug for AdjacencyList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdjacencyList")
            .field("edges", &self.edges())
            .finish()
    }
}

impl FromIterator<Edge> for AdjacencyList {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut list = AdjacencyList::with_capacity(iter.size_hint().0);
        for edge in iter {
            list.push(edge);
        }
        list
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
    fn memory_is_the_block_with_its_header() {
        let small = AdjacencyList::with_capacity(2);
        let large = AdjacencyList::with_capacity(1000);
        assert!(large.memory_bytes() > small.memory_bytes());
        assert_eq!(small.memory_bytes(), 16 + 2 * 12);
        // An odd capacity pads to the header's 8-byte alignment.
        assert_eq!(
            AdjacencyList::with_capacity(3).memory_bytes(),
            16 + 3 * 12 + 4
        );
        assert_eq!(AdjacencyList::new().memory_bytes(), 0);
        // Growth doubles.
        let mut adj = sample_list();
        assert_eq!(adj.memory_bytes(), 16 + 3 * 12 + 4);
        adj.push(Edge::new(7, Bias::from_int(2)));
        assert_eq!(adj.memory_bytes(), 16 + 6 * 12);
    }

    #[test]
    fn a_loaded_list_is_the_pushed_one_to_the_byte() {
        let edges: Vec<Edge> = (0..70)
            .map(|dst| Edge::new(dst, Bias::from_int(u64::from(dst) + 1)))
            .collect();
        for degree in 0..edges.len() {
            let mut pushed = AdjacencyList::new();
            for &edge in &edges[..degree] {
                pushed.push(edge);
            }
            let mut loaded = AdjacencyList::new();
            loaded.load(degree).copy_from_slice(&edges[..degree]);
            assert_eq!(loaded, pushed, "{degree}");
            assert_eq!(loaded.memory_bytes(), pushed.memory_bytes(), "{degree}");
        }
    }

    #[test]
    fn a_write_through_a_shared_handle_leaves_the_other_untouched() {
        let mut adj = sample_list();
        let snapshot = adj.clone();
        adj.set_bias(0, Bias::from_int(9));
        adj.swap_delete(1);
        adj.push(Edge::new(7, Bias::from_int(2)));
        assert_eq!(snapshot, sample_list());
        assert_ne!(adj, snapshot);
        // The copy kept the capacity; the snapshot, alone again, is written
        // in place.
        assert_eq!(adj.memory_bytes(), snapshot.memory_bytes());
        let mut snapshot = snapshot;
        drop(adj);
        snapshot.delete_many(&[0, 2]);
        assert_eq!(snapshot.edges(), &[Edge::new(4, Bias::from_int(4))]);
    }
}
