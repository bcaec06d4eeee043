//! Per-vertex dynamic adjacency arrays.
//!
//! Each vertex owns a compact array of edge slots. Insertion appends
//! (`O(1)` amortized: a full block is copied into one of half again the
//! capacity, starting at 4) and deletion swap-removes (`O(1)`), matching the
//! dynamic-array design Bingo adopts from Hornet. A graph that is still
//! loading does not push: it builds each vertex's block once, at the
//! capacity those pushes would have reached (see [`crate::dynamic_graph`]).
//! Edges are addressed both by destination vertex and by *neighbor index* —
//! the position in the array — because Bingo's radix groups store neighbor
//! indices, not ids (§4.2).
//!
//! # Slot widths
//!
//! A block holds its slots in one of two widths, and the data picks it:
//!
//! - **narrow**, 8 bytes a slot: the `u32` destination and the bias as one
//!   `u32` word. Only an integer bias below 2^32 keeps in it.
//! - **wide**, 12 bytes a slot: the destination and the two halves of any
//!   [`Bias`].
//!
//! Every block is allocated at the width its edges need: narrow when each of
//! them keeps narrow. That happens at a loading graph's first read, on a
//! growth copy and on a copy-on-write copy. A write that hands a narrow block
//! a bias that does not keep narrow widens it with one copy; nothing narrows
//! a block in place. Readers never see the width: [`AdjacencyList::edges`]
//! returns [`Edges`], which hands out the 12-byte [`Edge`] by value.
//!
//! # Sharing
//!
//! The array is a copy-on-write block. Cloning an [`AdjacencyList`] shares
//! its block instead of copying it, so a graph, the engines built from it
//! and their clones keep one copy of every vertex's edges between them. The
//! first mutation through a handle whose block another handle can still
//! see copies the block once; a block nobody else sees is edited in place.

use crate::{Bias, VertexId};
use std::sync::Arc;

/// One outgoing edge: destination vertex and sampling bias. 12 bytes — the
/// value every reader of an adjacency list is handed, so its size is pinned.
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

/// Words in a narrow slot: the destination, then an integer bias.
const NARROW: usize = 2;
/// Words in a wide slot: the destination, then the two halves of the bias.
const WIDE: usize = 3;

/// A dynamic adjacency list for a single vertex.
///
/// `Clone` shares the edges (see the module docs); equality and `Debug`
/// look at the edges only, never at the capacity, the slot width or who
/// else holds the block.
#[derive(Clone, Default)]
pub struct AdjacencyList {
    /// The block: capacity × slot-width words, slot `i` at word
    /// `i × width`; `len` slots are edges, and nothing reads the slots past
    /// them (a fresh block fills them with zeros: an invalid-bias edge at
    /// either width). `None` until the first edge needs room. It is written
    /// only through `Arc::get_mut`, so never while another handle holds it.
    slots: Option<Arc<[u32]>>,
    len: u32,
    /// Whether the slots are wide; in the handle's padding.
    wide: bool,
}

// `VertexSpace` embeds one of these per vertex; it is as wide as the `Vec`
// it replaced, the width flag included.
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

/// The capacity class after `capacity`: half again, from 4 up (4, 6, 9, 13,
/// 19, 28, …), at most [`MAX_EDGES`]. Over degrees spread evenly on a log
/// scale, half steps leave about 18 % of a block spare, doubling about 28 %.
fn grown(capacity: usize) -> usize {
    (capacity + capacity / 2).clamp(4, MAX_EDGES)
}

/// The capacity `degree` pushes into an empty list grow its block to: the
/// smallest class that holds them.
fn class_for(degree: usize) -> usize {
    let mut capacity = grown(0);
    while capacity < degree.min(MAX_EDGES) {
        capacity = grown(capacity);
    }
    capacity
}

/// Words per slot of a block of that width.
fn width(wide: bool) -> usize {
    if wide {
        WIDE
    } else {
        NARROW
    }
}

/// A block of `words` zeros, in one allocation: `repeat_n` knows its length.
fn zeroed(words: usize) -> Arc<[u32]> {
    std::iter::repeat_n(0, words).collect()
}

/// Write `edge` into `slot`, whose length is the block's width. A narrow
/// slot takes only an edge that keeps narrow.
#[inline]
fn write_slot(slot: &mut [u32], edge: Edge) {
    match slot {
        [dst, bias] => {
            *dst = edge.dst;
            *bias = edge
                .bias
                .narrow()
                .expect("a narrow slot holds an integer bias below 2^32");
        }
        [dst, lo, hi] => {
            *dst = edge.dst;
            [*lo, *hi] = edge.bias.halves();
        }
        _ => unreachable!("a slot is two or three words"),
    }
}

/// The edge a narrow slot holds.
#[inline]
fn narrow_edge(&[dst, bias]: &[u32; NARROW]) -> Edge {
    Edge::new(dst, Bias::from_narrow(bias))
}

/// The edge a wide slot holds.
#[inline]
fn wide_edge(&[dst, lo, hi]: &[u32; WIDE]) -> Edge {
    Edge::new(dst, Bias::from_halves([lo, hi]))
}

/// A fresh block of `capacity` slots starting with `edges`, and whether it
/// is wide: narrow exactly when every one of `edges` keeps narrow.
fn new_block(edges: impl Iterator<Item = Edge> + Clone, capacity: usize) -> (Arc<[u32]>, bool) {
    assert!(
        capacity <= MAX_EDGES,
        "an adjacency block of {capacity} slots"
    );
    let wide = !edges.clone().all(|e| e.bias.narrow().is_some());
    let width = width(wide);
    let mut block = zeroed(capacity * width);
    let words = Arc::get_mut(&mut block).expect("a block nobody else has seen");
    for (slot, edge) in words.chunks_exact_mut(width).zip(edges) {
        write_slot(slot, edge);
    }
    (block, wide)
}

/// The slots a loading list's edges are written into, in order: see
/// [`AdjacencyList::load`].
pub(crate) struct Fill<'a> {
    words: &'a mut [u32],
    width: usize,
}

impl Fill<'_> {
    /// Write the next edge.
    ///
    /// # Panics
    ///
    /// Panics past the degree the list was loaded with, or on an edge that
    /// does not keep narrow in a list loaded narrow.
    #[inline]
    pub(crate) fn put(&mut self, edge: Edge) {
        let (slot, rest) = std::mem::take(&mut self.words).split_at_mut(self.width);
        write_slot(slot, edge);
        self.words = rest;
    }
}

impl AdjacencyList {
    /// Create an empty adjacency list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an adjacency list with pre-allocated capacity (narrow: it has
    /// no edge that needs wide slots yet).
    pub fn with_capacity(capacity: usize) -> Self {
        AdjacencyList {
            slots: (capacity > 0).then(|| new_block(std::iter::empty(), capacity).0),
            ..AdjacencyList::default()
        }
    }

    /// Make this empty list `degree` edges long, in one block of the
    /// capacity pushing that many edges grows it to (4, then half again) and
    /// wide if `wide`, and return the slots for the caller to write the
    /// edges into. Until then they hold an invalid-bias pad edge.
    pub(crate) fn load(&mut self, degree: usize, wide: bool) -> Fill<'_> {
        debug_assert!(self.slots.is_none(), "a list is loaded once, empty");
        let width = width(wide);
        if degree == 0 {
            return Fill {
                words: &mut [],
                width,
            };
        }
        self.len = degree as u32;
        self.wide = wide;
        let capacity = class_for(degree);
        let block = self.slots.insert(zeroed(capacity * width));
        let words = Arc::get_mut(block).expect("a block nobody else has seen");
        Fill {
            words: &mut words[..degree * width],
            width,
        }
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

    /// Slots the block has room for (0 without a block).
    pub fn capacity(&self) -> usize {
        self.slots
            .as_ref()
            .map_or(0, |block| block.len() / width(self.wide))
    }

    /// Whether the slots are narrow, 8 bytes each (see the module docs). A
    /// list without a block has no wide edge, so it is narrow.
    #[inline]
    pub fn is_narrow(&self) -> bool {
        !self.wide
    }

    /// The edge at neighbor index `i`.
    #[inline]
    pub fn edge(&self, i: usize) -> Option<Edge> {
        self.edges().get(i)
    }

    /// The destination of the edge at neighbor index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the degree.
    #[inline]
    pub fn dst(&self, i: usize) -> VertexId {
        self.edges().dst(i)
    }

    /// The bias of the edge at neighbor index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the degree.
    #[inline]
    pub fn bias(&self, i: usize) -> Bias {
        self.edges().bias(i)
    }

    /// All edges in neighbor-index order.
    #[inline]
    pub fn edges(&self) -> Edges<'_> {
        let words = self.slots.as_deref().unwrap_or(&[]);
        let len = self.len as usize;
        Edges(if self.wide {
            Slots::Wide(&words.as_chunks::<WIDE>().0[..len])
        } else {
            Slots::Narrow(&words.as_chunks::<NARROW>().0[..len])
        })
    }

    /// Iterator over `(neighbor_index, edge)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Edge)> + '_ {
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
        // One scan per width: a node2vec step asks this of a direct vertex
        // for every candidate it draws.
        match self.edges().0 {
            Slots::Narrow(slots) => slots.iter().position(|slot| slot[0] == dst),
            Slots::Wide(slots) => slots.iter().position(|slot| slot[0] == dst),
        }
    }

    /// Replace the block with one [`new_block`] made.
    fn adopt(&mut self, (block, wide): (Arc<[u32]>, bool)) {
        self.slots = Some(block);
        self.wide = wide;
    }

    /// Every word of the block, writable, and the width of its slots: the
    /// block itself when this handle is the only one holding it, else a copy
    /// of the same capacity — at the width its edges need — that replaces it
    /// here and leaves the other holders' untouched.
    fn words_mut(&mut self) -> (&mut [u32], usize) {
        let shared = self
            .slots
            .as_mut()
            .is_some_and(|block| Arc::get_mut(block).is_none());
        if shared {
            self.adopt(new_block(self.edges().iter(), self.capacity()));
        }
        let width = width(self.wide);
        match &mut self.slots {
            Some(block) => (
                Arc::get_mut(block).expect("this handle alone holds the block"),
                width,
            ),
            None => (&mut [], width),
        }
    }

    /// Write `edge` into slot `i` in place, if the block lets it: this
    /// handle alone holds it, it has a slot `i`, and it is wide or `edge`
    /// keeps narrow. Whether it did.
    #[inline]
    fn put_in_place(&mut self, i: usize, edge: Edge) -> bool {
        let wide = self.wide;
        let width = width(wide);
        // The checks read the handle and the edge; the one uniqueness check
        // is the only touch of the block's header.
        match &mut self.slots {
            Some(block)
                if (i + 1) * width <= block.len() && (wide || edge.bias.narrow().is_some()) =>
            {
                match Arc::get_mut(block) {
                    Some(words) => {
                        write_slot(&mut words[i * width..(i + 1) * width], edge);
                        true
                    }
                    None => false,
                }
            }
            _ => false,
        }
    }

    /// The edges with `edge` at neighbor index `i`, in a fresh block of
    /// `capacity` slots: an index below the degree replaces that edge, the
    /// degree appends it.
    fn copy_with(&mut self, i: usize, edge: Edge, capacity: usize) {
        let edges = self.edges();
        let replaced = edges
            .iter()
            .enumerate()
            .map(move |(j, e)| if j == i { edge } else { e });
        let appended = (i == edges.len()).then_some(edge);
        self.adopt(new_block(replaced.chain(appended), capacity));
    }

    /// Append an edge, returning its neighbor index.
    #[inline]
    pub fn push(&mut self, edge: Edge) -> usize {
        let i = self.len as usize;
        // A missing, full or shared block, or a narrow one handed a wide
        // edge, goes out of line.
        if !self.put_in_place(i, edge) {
            self.push_slow(edge);
        }
        self.len += 1;
        i
    }

    /// [`AdjacencyList::push`] when the block cannot take the edge as it is:
    /// one copy, at the width every edge then needs, of the same capacity —
    /// the copy-on-write, or the widening — or, if full (or absent), of the
    /// next capacity class.
    #[cold]
    #[inline(never)]
    fn push_slow(&mut self, edge: Edge) {
        let i = self.len as usize;
        let capacity = self.capacity();
        let capacity = if i < capacity {
            capacity
        } else {
            assert!(
                i < MAX_EDGES,
                "an adjacency list of {MAX_EDGES} edges is full"
            );
            grown(capacity)
        };
        self.copy_with(i, edge, capacity);
    }

    /// Swap-remove the edge at neighbor index `i`.
    ///
    /// Returns `None` if `i` is out of bounds. The last edge (if any) is
    /// moved into position `i`, which callers must mirror in any structure
    /// that stores neighbor indices (Bingo's inverted index does exactly
    /// this).
    pub fn swap_delete(&mut self, i: usize) -> Option<SwapDelete> {
        let removed = self.edge(i)?;
        let last = self.len as usize - 1;
        let (words, width) = self.words_mut();
        words.copy_within(last * width..(last + 1) * width, i * width);
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
        let edges = self.edges();
        let removed = delete
            .iter()
            .map(|&i| (i, edges.get(i).expect("in range")))
            .collect();
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
        let (words, width) = self.words_mut();
        let (new_len, moves) = if width == WIDE {
            let slots = &mut words.as_chunks_mut::<WIDE>().0[..len];
            crate::compaction::compact(slots, neighbor_indices)
        } else {
            let slots = &mut words.as_chunks_mut::<NARROW>().0[..len];
            crate::compaction::compact(slots, neighbor_indices)
        };
        self.len = new_len as u32;
        moves
    }

    /// Replace the bias of the edge at neighbor index `i`. Returns the old
    /// bias, or `None` if out of bounds. A bias a narrow block cannot hold
    /// widens it, in the one copy a shared block would take anyway.
    pub fn set_bias(&mut self, i: usize, bias: Bias) -> Option<Bias> {
        let old = self.edge(i)?;
        let edge = Edge::new(old.dst, bias);
        if !self.put_in_place(i, edge) {
            self.copy_with(i, edge, self.capacity());
        }
        Some(old.bias)
    }

    /// Bytes of heap memory in this list's block: 8 per narrow slot or 12
    /// per wide one, plus the block's 16-byte count header, rounded up to
    /// the header's alignment; 0 without a block. A block shared with other
    /// handles is counted in full by each of them.
    pub fn memory_bytes(&self) -> usize {
        match &self.slots {
            Some(block) => (BLOCK_HEADER_BYTES + std::mem::size_of_val(&**block))
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

/// An adjacency list's edges in neighbor-index order, read by value whatever
/// the width of the slots they are kept in.
#[derive(Clone, Copy)]
pub struct Edges<'a>(Slots<'a>);

#[derive(Clone, Copy)]
enum Slots<'a> {
    Narrow(&'a [[u32; NARROW]]),
    Wide(&'a [[u32; WIDE]]),
}

impl<'a> Edges<'a> {
    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        match self.0 {
            Slots::Narrow(slots) => slots.len(),
            Slots::Wide(slots) => slots.len(),
        }
    }

    /// Whether there are none.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The edge at neighbor index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Edge> {
        match self.0 {
            Slots::Narrow(slots) => slots.get(i).map(narrow_edge),
            Slots::Wide(slots) => slots.get(i).map(wide_edge),
        }
    }

    /// The destination of the edge at neighbor index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn dst(&self, i: usize) -> VertexId {
        match self.0 {
            Slots::Narrow(slots) => slots[i][0],
            Slots::Wide(slots) => slots[i][0],
        }
    }

    /// The bias of the edge at neighbor index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn bias(&self, i: usize) -> Bias {
        match self.0 {
            Slots::Narrow(slots) => narrow_edge(&slots[i]).bias,
            Slots::Wide(slots) => wide_edge(&slots[i]).bias,
        }
    }

    /// The edges, in order.
    #[inline]
    pub fn iter(&self) -> EdgeIter<'a> {
        EdgeIter(match self.0 {
            Slots::Narrow(slots) => SlotIter::Narrow(slots.iter()),
            Slots::Wide(slots) => SlotIter::Wide(slots.iter()),
        })
    }

    /// The edges, copied out.
    pub fn to_vec(&self) -> Vec<Edge> {
        self.iter().collect()
    }

    /// Where the block's first slot is: the identity of the block, for
    /// telling whether two lists share one.
    pub fn as_ptr(&self) -> *const u32 {
        match self.0 {
            Slots::Narrow(slots) => slots.as_ptr().cast(),
            Slots::Wide(slots) => slots.as_ptr().cast(),
        }
    }
}

impl PartialEq for Edges<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<[Edge]> for Edges<'_> {
    fn eq(&self, other: &[Edge]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<Vec<Edge>> for Edges<'_> {
    fn eq(&self, other: &Vec<Edge>) -> bool {
        *self == **other
    }
}

impl std::fmt::Debug for Edges<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Edges<'a> {
    type Item = Edge;
    type IntoIter = EdgeIter<'a>;

    fn into_iter(self) -> EdgeIter<'a> {
        self.iter()
    }
}

/// The iterator of [`Edges::iter`].
#[derive(Clone)]
pub struct EdgeIter<'a>(SlotIter<'a>);

#[derive(Clone)]
enum SlotIter<'a> {
    Narrow(std::slice::Iter<'a, [u32; NARROW]>),
    Wide(std::slice::Iter<'a, [u32; WIDE]>),
}

impl Iterator for EdgeIter<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        match &mut self.0 {
            SlotIter::Narrow(slots) => slots.next().map(narrow_edge),
            SlotIter::Wide(slots) => slots.next().map(wide_edge),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.len();
        (len, Some(len))
    }

    // Sums, counts and `for` loops match the width once, not per edge.
    #[inline]
    fn fold<B, F: FnMut(B, Edge) -> B>(self, init: B, mut f: F) -> B {
        match self.0 {
            SlotIter::Narrow(slots) => slots.fold(init, |acc, slot| f(acc, narrow_edge(slot))),
            SlotIter::Wide(slots) => slots.fold(init, |acc, slot| f(acc, wide_edge(slot))),
        }
    }
}

impl DoubleEndedIterator for EdgeIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Edge> {
        match &mut self.0 {
            SlotIter::Narrow(slots) => slots.next_back().map(narrow_edge),
            SlotIter::Wide(slots) => slots.next_back().map(wide_edge),
        }
    }
}

impl ExactSizeIterator for EdgeIter<'_> {
    #[inline]
    fn len(&self) -> usize {
        match &self.0 {
            SlotIter::Narrow(slots) => slots.len(),
            SlotIter::Wide(slots) => slots.len(),
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
        assert_eq!(adj.dst(0), 5);
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
        assert_eq!(adj.bias(1).value(), 9.0);
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
        assert_eq!(small.memory_bytes(), 16 + 2 * 8);
        assert_eq!(AdjacencyList::with_capacity(3).memory_bytes(), 16 + 3 * 8);
        assert_eq!(AdjacencyList::new().memory_bytes(), 0);
        // Growth goes to the next class: half again, 4 at least.
        let mut adj = sample_list();
        assert_eq!(adj.memory_bytes(), 16 + 3 * 8);
        adj.push(Edge::new(7, Bias::from_int(2)));
        assert_eq!(adj.memory_bytes(), 16 + 4 * 8);
        assert_eq!(adj.capacity(), 4);
        adj.push(Edge::new(8, Bias::from_int(2)));
        assert_eq!(adj.capacity(), 6);
        // A float widens in place of the same capacity; an odd capacity of
        // wide slots pads to the header's 8-byte alignment.
        adj.set_bias(0, Bias::from_float(0.5));
        assert_eq!(adj.memory_bytes(), 16 + 6 * 12);
        let mut odd = AdjacencyList::with_capacity(3);
        odd.push(Edge::new(1, Bias::from_int(1 << 32)));
        assert_eq!(odd.memory_bytes(), 16 + 3 * 12 + 4);
    }

    #[test]
    fn an_edge_reads_back_as_it_was_written_at_either_width() {
        let max = u64::from(u32::MAX);
        let biases = [
            Bias::from_int(1),
            Bias::from_int(max),
            Bias::from_int(max + 1),
            Bias::from_float(3.0),
            Bias::from_float(0.125),
        ];
        for (k, &wide) in biases.iter().enumerate() {
            let mut adj = AdjacencyList::new();
            let mut edges = Vec::new();
            for (dst, &bias) in biases[..k].iter().enumerate() {
                edges.push(Edge::new(dst as VertexId, bias));
                adj.push(edges[dst]);
            }
            assert!(adj.is_narrow() == (k <= 2), "{k}");
            edges.push(Edge::new(u32::MAX, wide));
            adj.push(edges[k]);
            assert_eq!(adj.edges(), edges);
            assert_eq!(adj.is_narrow(), k < 2, "{k}");
            assert_eq!(adj.edges().iter().next_back(), Some(edges[k]));
            assert_eq!(adj.bias(k), wide);
            assert_eq!(adj.dst(k), u32::MAX);
            assert!(adj.edges().iter().rev().eq(edges.iter().rev().copied()));
        }
    }

    #[test]
    fn a_loaded_list_is_the_pushed_one_to_the_byte() {
        let edges: Vec<Edge> = (0..70)
            .map(|dst| Edge::new(dst, Bias::from_int(u64::from(dst) + 1)))
            .collect();
        let wide_edges: Vec<Edge> = edges
            .iter()
            .map(|e| Edge::new(e.dst, Bias::from_float(e.bias.value() / 4.0)))
            .collect();
        for edges in [&edges, &wide_edges] {
            let wide = !edges[0].bias.is_integral();
            for degree in 0..edges.len() {
                let mut pushed = AdjacencyList::new();
                for &edge in &edges[..degree] {
                    pushed.push(edge);
                }
                let mut loaded = AdjacencyList::new();
                let mut fill = loaded.load(degree, wide);
                for &edge in &edges[..degree] {
                    fill.put(edge);
                }
                assert_eq!(loaded, pushed, "{degree}");
                assert_eq!(loaded.memory_bytes(), pushed.memory_bytes(), "{degree}");
                assert_eq!(loaded.is_narrow(), pushed.is_narrow(), "{degree}");
            }
        }
    }

    #[test]
    fn a_load_takes_the_capacity_its_pushes_reach() {
        let mut pushed = AdjacencyList::new();
        for degree in 0..=4096 {
            let mut loaded = AdjacencyList::new();
            loaded.load(degree, false);
            assert_eq!(loaded.capacity(), pushed.capacity(), "{degree}");
            pushed.push(Edge::new(1, Bias::from_int(1)));
        }
        let classes: Vec<usize> = std::iter::successors(Some(4), |&c| Some(grown(c)))
            .take(8)
            .collect();
        assert_eq!(classes, [4, 6, 9, 13, 19, 28, 42, 63]);
        // The last class below the clamp grows to it, and so does a load
        // of more than that class holds.
        let below = std::iter::successors(Some(4), |&c| Some(grown(c)))
            .take_while(|&c| c < MAX_EDGES)
            .last()
            .unwrap();
        assert_eq!(grown(below), MAX_EDGES);
        assert_eq!(grown(MAX_EDGES), MAX_EDGES);
        assert_eq!(class_for(below), below);
        assert_eq!(class_for(below + 1), MAX_EDGES);
        assert_eq!(class_for(MAX_EDGES), MAX_EDGES);
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
        assert_eq!(snapshot.edges(), vec![Edge::new(4, Bias::from_int(4))]);
    }
}
