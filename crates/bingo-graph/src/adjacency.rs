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
//! A block is a run of `u16` words, and its slots come in one of three
//! widths; the data picks it:
//!
//! - **compact**, 6 bytes a slot: the `u32` destination and the bias as one
//!   `u16` word. Only an integer bias from 1 to 2^16 − 1 keeps in it.
//! - **narrow**, 8 bytes a slot: the destination and the bias as one `u32`.
//!   Only an integer bias below 2^32 keeps in it.
//! - **wide**, 12 bytes a slot: the destination and the two halves of any
//!   [`Bias`].
//!
//! One codec, generic over the slot's word count (3, 4 or 6), reads and
//! writes all three: the destination is the first two words, the bias the
//! rest, low word first. A slot's destination and bias stay adjacent: a
//! reader of one edge reads one slot, and a scan reads fewer cache lines
//! the narrower the slots.
//!
//! Every block is allocated at the narrowest width its edges allow. That
//! happens at a loading graph's first read, on a growth copy and on a
//! copy-on-write copy. A write that hands a block a bias its width cannot
//! hold widens it with one copy; nothing narrows a block in place. Readers
//! never see the width: [`AdjacencyList::edges`] returns [`Edges`], which
//! hands out the 12-byte [`Edge`] by value.
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

/// Words in a compact slot: the destination, then the bias as one word.
const COMPACT: usize = 3;
/// Words in a narrow slot: the destination, then the bias as a `u32`.
const NARROW: usize = 4;
/// Words in a wide slot: the destination, then the two halves of the bias.
const WIDE: usize = 6;

/// `$body` with `$W` the words in a slot of `$width`: one source, compiled
/// once for each width's slot size.
macro_rules! by_width {
    ($width:expr, $W:ident => $body:expr) => {
        match $width {
            SlotWidth::Compact => {
                const $W: usize = COMPACT;
                $body
            }
            SlotWidth::Narrow => {
                const $W: usize = NARROW;
                $body
            }
            SlotWidth::Wide => {
                const $W: usize = WIDE;
                $body
            }
        }
    };
}

/// The width of a block's slots (see the module docs), narrowest first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum SlotWidth {
    /// 6 bytes: the destination and an integer bias from 1 to 2^16 − 1.
    #[default]
    Compact,
    /// 8 bytes: the destination and an integer bias below 2^32.
    Narrow,
    /// 12 bytes: the destination and any bias.
    Wide,
}

impl SlotWidth {
    /// The narrowest width whose slot holds `bias`.
    #[inline]
    pub(crate) fn of(bias: Bias) -> SlotWidth {
        match bias.narrow() {
            Some(word) if word <= u32::from(u16::MAX) => SlotWidth::Compact,
            Some(_) => SlotWidth::Narrow,
            None => SlotWidth::Wide,
        }
    }

    /// `u16` words in a slot.
    #[inline]
    fn words(self) -> usize {
        by_width!(self, W => W)
    }
}

/// The `u32` in words `k` and `k + 1` of a slot, low word first.
#[inline]
fn word_pair(slot: &[u16], k: usize) -> u32 {
    u32::from(slot[k]) | u32::from(slot[k + 1]) << 16
}

/// The destination a slot of `W` words holds.
#[inline]
fn slot_dst<const W: usize>(slot: &[u16; W]) -> VertexId {
    word_pair(slot, 0)
}

/// The edge a slot of `W` words holds.
#[inline]
fn decode<const W: usize>(slot: &[u16; W]) -> Edge {
    let bias = match W {
        COMPACT => Bias::from_narrow(u32::from(slot[2])),
        NARROW => Bias::from_narrow(word_pair(slot, 2)),
        _ => Bias::from_halves([word_pair(slot, 2), word_pair(slot, 4)]),
    };
    Edge::new(slot_dst(slot), bias)
}

/// The slot of `W` words that holds `edge`, if its bias keeps at that
/// width.
#[inline]
fn encode<const W: usize>(edge: Edge) -> Option<[u16; W]> {
    let [lo, hi] = match W {
        COMPACT => [u32::from(edge.bias.compact()?), 0],
        NARROW => [edge.bias.narrow()?, 0],
        _ => edge.bias.halves(),
    };
    let words = [edge.dst, lo, hi].map(|word| [word as u16, (word >> 16) as u16]);
    Some(std::array::from_fn(|k| words.as_flattened()[k]))
}

/// A dynamic adjacency list for a single vertex.
///
/// `Clone` shares the edges (see the module docs); equality and `Debug`
/// look at the edges only, never at the capacity, the slot width or who
/// else holds the block.
#[derive(Clone, Default)]
pub struct AdjacencyList {
    /// The block: capacity × slot-width words, slot `i` at word
    /// `i × width`; `len` slots are edges, and nothing reads the slots past
    /// them (a fresh block fills them with zeros). `None` until the first
    /// edge needs room. It is written only through `Arc::get_mut`, so never
    /// while another handle holds it.
    slots: Option<Arc<[u16]>>,
    len: u32,
    /// The width of the slots; in the handle's padding.
    width: SlotWidth,
}

// `VertexSpace` embeds one of these per vertex; it is as wide as the `Vec`
// it replaced, the width tag included.
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

/// A block of `words` zeros, in one allocation: `repeat_n` knows its length.
fn zeroed(words: usize) -> Arc<[u16]> {
    std::iter::repeat_n(0, words).collect()
}

/// A fresh block of `capacity` slots starting with `edges`, at the
/// narrowest width that holds every one of them.
fn new_block(
    edges: impl Iterator<Item = Edge> + Clone,
    capacity: usize,
) -> (Arc<[u16]>, SlotWidth) {
    assert!(
        capacity <= MAX_EDGES,
        "an adjacency block of {capacity} slots"
    );
    let width = edges
        .clone()
        .map(|e| SlotWidth::of(e.bias))
        .max()
        .unwrap_or_default();
    let mut block = zeroed(capacity * width.words());
    let words = Arc::get_mut(&mut block).expect("a block nobody else has seen");
    by_width!(width, W => {
        for (slot, edge) in words.as_chunks_mut::<W>().0.iter_mut().zip(edges) {
            *slot = encode(edge).expect("the block is as wide as its widest edge");
        }
    });
    (block, width)
}

/// The slots a loading list's edges are written into, in order: see
/// [`AdjacencyList::load`].
pub(crate) struct Fill<'a> {
    words: &'a mut [u16],
    width: SlotWidth,
}

impl Fill<'_> {
    /// Write the next edge.
    ///
    /// # Panics
    ///
    /// Panics past the degree the list was loaded with, or on an edge whose
    /// bias does not keep at the width the list was loaded with.
    #[inline]
    pub(crate) fn put(&mut self, edge: Edge) {
        by_width!(self.width, W => {
            let (slot, rest) = std::mem::take(&mut self.words)
                .split_first_chunk_mut::<W>()
                .expect("no edge past the loaded degree");
            *slot = encode(edge).expect("a loaded list is as wide as its widest edge");
            self.words = rest;
        })
    }
}

impl AdjacencyList {
    /// Create an empty adjacency list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an adjacency list with pre-allocated capacity (compact: it
    /// has no edge that needs a wider slot yet).
    pub fn with_capacity(capacity: usize) -> Self {
        AdjacencyList {
            slots: (capacity > 0).then(|| new_block(std::iter::empty(), capacity).0),
            ..AdjacencyList::default()
        }
    }

    /// Make this empty list `degree` edges long, in one block of the
    /// capacity pushing that many edges grows it to (4, then half again) and
    /// of slots `width` wide, and return the slots for the caller to write
    /// the edges into. Until then they hold zeros.
    pub(crate) fn load(&mut self, degree: usize, width: SlotWidth) -> Fill<'_> {
        debug_assert!(self.slots.is_none(), "a list is loaded once, empty");
        if degree == 0 {
            return Fill {
                words: &mut [],
                width,
            };
        }
        self.len = degree as u32;
        self.width = width;
        let capacity = class_for(degree);
        let block = self.slots.insert(zeroed(capacity * width.words()));
        let words = Arc::get_mut(block).expect("a block nobody else has seen");
        Fill {
            words: &mut words[..degree * width.words()],
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
            .map_or(0, |block| block.len() / self.width.words())
    }

    /// The width of the slots (see the module docs). A list without a block
    /// has no edge that needs a wider slot, so it is compact.
    #[inline]
    pub fn slot_width(&self) -> SlotWidth {
        self.width
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
        Edges {
            words: &words[..self.len as usize * self.width.words()],
            width: self.width,
        }
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
        let words = self.edges().words;
        by_width!(self.width, W => {
            words.as_chunks::<W>().0.iter().position(|slot| slot_dst(slot) == dst)
        })
    }

    /// Replace the block with one [`new_block`] made.
    fn adopt(&mut self, (block, width): (Arc<[u16]>, SlotWidth)) {
        self.slots = Some(block);
        self.width = width;
    }

    /// Every word of the block, writable, and the width of its slots: the
    /// block itself when this handle is the only one holding it, else a copy
    /// of the same capacity — at the narrowest width its edges allow — that
    /// replaces it here and leaves the other holders' untouched.
    fn words_mut(&mut self) -> (&mut [u16], SlotWidth) {
        let shared = self
            .slots
            .as_mut()
            .is_some_and(|block| Arc::get_mut(block).is_none());
        if shared {
            self.adopt(new_block(self.edges().iter(), self.capacity()));
        }
        let width = self.width;
        match &mut self.slots {
            Some(block) => (
                Arc::get_mut(block).expect("this handle alone holds the block"),
                width,
            ),
            None => (&mut [], width),
        }
    }

    /// Write `edge` into slot `i` in place, if the block lets it: this
    /// handle alone holds it, it has a slot `i`, and its width holds the
    /// edge's bias. Whether it did.
    #[inline]
    fn put_in_place(&mut self, i: usize, edge: Edge) -> bool {
        by_width!(self.width, W => {
            // The checks read the handle and the edge; the one uniqueness
            // check is the only touch of the block's header.
            let Some(slot) = encode::<W>(edge) else {
                return false;
            };
            match &mut self.slots {
                Some(block) if (i + 1) * W <= block.len() => match Arc::get_mut(block) {
                    Some(words) => {
                        words.as_chunks_mut::<W>().0[i] = slot;
                        true
                    }
                    None => false,
                },
                _ => false,
            }
        })
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
        // A missing, full or shared block, or one too narrow for the edge,
        // goes out of line.
        if !self.put_in_place(i, edge) {
            self.push_slow(edge);
        }
        self.len += 1;
        i
    }

    /// [`AdjacencyList::push`] when the block cannot take the edge as it is:
    /// one copy, at the narrowest width every edge then allows, of the same
    /// capacity — the copy-on-write, or the widening — or, if full (or
    /// absent), of the next capacity class.
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
        let width = width.words();
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
        let (new_len, moves) = by_width!(width, W => {
            let slots = &mut words.as_chunks_mut::<W>().0[..len];
            crate::compaction::compact(slots, neighbor_indices)
        });
        self.len = new_len as u32;
        moves
    }

    /// Replace the bias of the edge at neighbor index `i`. Returns the old
    /// bias, or `None` if out of bounds. A bias the block's width cannot
    /// hold widens it, in the one copy a shared block would take anyway.
    pub fn set_bias(&mut self, i: usize, bias: Bias) -> Option<Bias> {
        let old = self.edge(i)?;
        let edge = Edge::new(old.dst, bias);
        if !self.put_in_place(i, edge) {
            self.copy_with(i, edge, self.capacity());
        }
        Some(old.bias)
    }

    /// Bytes of heap memory in this list's block: 6 per compact slot, 8 per
    /// narrow one or 12 per wide one, plus the block's 16-byte count header,
    /// rounded up to the header's alignment; 0 without a block. A block
    /// shared with other handles is counted in full by each of them.
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
pub struct Edges<'a> {
    /// The live slots' words.
    words: &'a [u16],
    width: SlotWidth,
}

impl<'a> Edges<'a> {
    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        by_width!(self.width, W => self.words.len() / W)
    }

    /// Whether there are none.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The edge at neighbor index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Edge> {
        by_width!(self.width, W => self.words.as_chunks::<W>().0.get(i).map(decode))
    }

    /// The destination of the edge at neighbor index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn dst(&self, i: usize) -> VertexId {
        by_width!(self.width, W => slot_dst(&self.words.as_chunks::<W>().0[i]))
    }

    /// The bias of the edge at neighbor index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn bias(&self, i: usize) -> Bias {
        by_width!(self.width, W => decode(&self.words.as_chunks::<W>().0[i]).bias)
    }

    /// The edges, in order.
    #[inline]
    pub fn iter(&self) -> EdgeIter<'a> {
        EdgeIter {
            words: self.words,
            width: self.width,
        }
    }

    /// The edges, copied out.
    pub fn to_vec(&self) -> Vec<Edge> {
        self.iter().collect()
    }

    /// Where the block's first slot is: the identity of the block, for
    /// telling whether two lists share one.
    pub fn as_ptr(&self) -> *const u16 {
        self.words.as_ptr()
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
pub struct EdgeIter<'a> {
    /// The words of the slots not yet read from either end.
    words: &'a [u16],
    width: SlotWidth,
}

impl Iterator for EdgeIter<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        by_width!(self.width, W => {
            let (slot, rest) = self.words.split_first_chunk::<W>()?;
            self.words = rest;
            Some(decode(slot))
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.len();
        (len, Some(len))
    }

    // Sums, counts and `for` loops match the width once, not per edge.
    #[inline]
    fn fold<B, F: FnMut(B, Edge) -> B>(self, init: B, mut f: F) -> B {
        by_width!(self.width, W => {
            let slots = self.words.as_chunks::<W>().0.iter();
            slots.fold(init, |acc, slot| f(acc, decode(slot)))
        })
    }
}

impl DoubleEndedIterator for EdgeIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Edge> {
        by_width!(self.width, W => {
            let (rest, slot) = self.words.split_last_chunk::<W>()?;
            self.words = rest;
            Some(decode(slot))
        })
    }
}

impl ExactSizeIterator for EdgeIter<'_> {
    #[inline]
    fn len(&self) -> usize {
        by_width!(self.width, W => self.words.len() / W)
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
        // Compact slots; an odd count of them pads to the header's 8-byte
        // alignment.
        assert_eq!(small.memory_bytes(), 16 + 2 * 6 + 4);
        assert_eq!(AdjacencyList::with_capacity(4).memory_bytes(), 16 + 4 * 6);
        assert_eq!(AdjacencyList::new().memory_bytes(), 0);
        // Growth goes to the next class: half again, 4 at least.
        let mut adj = sample_list();
        assert_eq!(adj.memory_bytes(), 16 + 3 * 6 + 6);
        adj.push(Edge::new(7, Bias::from_int(2)));
        assert_eq!(adj.memory_bytes(), 16 + 4 * 6);
        assert_eq!(adj.capacity(), 4);
        adj.push(Edge::new(8, Bias::from_int(2)));
        assert_eq!(adj.capacity(), 6);
        assert_eq!(adj.memory_bytes(), 16 + 6 * 6 + 4);
        // A bias past 2^16 − 1 widens to narrow slots, and a float to wide
        // ones, each at the same capacity.
        adj.set_bias(1, Bias::from_int(1 << 16));
        assert_eq!(adj.memory_bytes(), 16 + 6 * 8);
        adj.set_bias(0, Bias::from_float(0.5));
        assert_eq!(adj.memory_bytes(), 16 + 6 * 12);
        let mut odd = AdjacencyList::with_capacity(3);
        odd.push(Edge::new(1, Bias::from_int(1 << 32)));
        assert_eq!(odd.memory_bytes(), 16 + 3 * 12 + 4);
    }

    #[test]
    fn an_edge_reads_back_as_it_was_written_at_every_width() {
        let max16 = u64::from(u16::MAX);
        let max32 = u64::from(u32::MAX);
        // Each bias with the narrowest width that holds it.
        let biases = [
            (Bias::from_int(1), SlotWidth::Compact),
            (Bias::from_int(max16), SlotWidth::Compact),
            (Bias::from_int(max16 + 1), SlotWidth::Narrow),
            (Bias::from_int(max32), SlotWidth::Narrow),
            (Bias::from_int(max32 + 1), SlotWidth::Wide),
            (Bias::from_float(3.0), SlotWidth::Wide),
            (Bias::from_float(0.125), SlotWidth::Wide),
        ];
        for (k, &(last, width)) in biases.iter().enumerate() {
            let mut adj = AdjacencyList::new();
            let mut edges = Vec::new();
            for (dst, &(bias, _)) in biases[..k].iter().enumerate() {
                edges.push(Edge::new(dst as VertexId, bias));
                adj.push(edges[dst]);
            }
            let before = biases[..k].iter().map(|b| b.1).max().unwrap_or_default();
            assert_eq!(adj.slot_width(), before, "{k}");
            edges.push(Edge::new(u32::MAX, last));
            adj.push(edges[k]);
            assert_eq!(adj.edges(), edges);
            assert_eq!(adj.slot_width(), before.max(width), "{k}");
            assert_eq!(adj.edges().iter().next_back(), Some(edges[k]));
            assert_eq!(adj.bias(k), last);
            assert_eq!(adj.dst(k), u32::MAX);
            assert_eq!(adj.find(u32::MAX), Some(k));
            assert!(adj.edges().iter().rev().eq(edges.iter().rev().copied()));
        }
    }

    /// A list of `len` compact edges in a block of capacity 9, alone or
    /// with a clone holding its block.
    fn compact_list(len: u32) -> AdjacencyList {
        let mut adj = AdjacencyList::with_capacity(9);
        for dst in 0..len {
            adj.push(Edge::new(dst, Bias::from_int(u64::from(dst) + 1)));
        }
        adj
    }

    #[test]
    fn a_block_widens_with_one_copy_to_the_width_its_new_bias_needs() {
        use SlotWidth::{Compact, Narrow, Wide};
        let cases = [
            // Compact to narrow at the first integer past 2^16 − 1.
            (Bias::from_int(1 << 16), Compact, Narrow),
            // Compact or narrow to wide at a float or an integer past 2^32 − 1.
            (Bias::from_float(2.0), Compact, Wide),
            (Bias::from_int(1 << 32), Compact, Wide),
            (Bias::from_float(2.0), Narrow, Wide),
            (Bias::from_int(1 << 32), Narrow, Wide),
            // A bias the width holds writes in place.
            (Bias::from_int(u64::from(u16::MAX)), Compact, Compact),
            (Bias::from_int(u64::from(u32::MAX)), Narrow, Narrow),
        ];
        for (k, &(bias, from, to)) in cases.iter().enumerate() {
            for by_push in [false, true] {
                let mut adj = compact_list(5);
                if from == Narrow {
                    adj.set_bias(4, Bias::from_int(70_000));
                }
                assert_eq!(adj.slot_width(), from, "{k}");
                let (at, capacity) = (adj.edges().as_ptr(), adj.capacity());
                let mut expected = adj.edges().to_vec();
                if by_push {
                    adj.push(Edge::new(9, bias));
                    expected.push(Edge::new(9, bias));
                } else {
                    adj.set_bias(2, bias);
                    expected[2].bias = bias;
                }
                assert_eq!(adj.edges(), expected, "{k}");
                assert_eq!(adj.slot_width(), to, "{k}");
                assert_eq!(adj.capacity(), capacity, "{k}: one copy, same capacity");
                assert_eq!(adj.edges().as_ptr() == at, from == to, "{k}");
                // Nothing narrows a block in place: writing narrow biases
                // back leaves the width.
                adj.set_bias(2, Bias::from_int(1));
                adj.swap_delete(5.min(adj.degree() - 1));
                assert_eq!(adj.slot_width(), to, "{k}");
            }
        }
    }

    #[test]
    fn a_copy_takes_the_narrowest_width_and_a_shared_block_is_never_widened() {
        let mut adj = compact_list(6);
        adj.set_bias(0, Bias::from_float(0.5));
        adj.set_bias(1, Bias::from_int(1 << 20));
        assert_eq!(adj.slot_width(), SlotWidth::Wide);
        // The float goes: a copy-on-write copy is narrow, the widest edge
        // left needs no more.
        adj.swap_delete(0);
        let snapshot = adj.clone();
        let block = snapshot.edges().as_ptr();
        adj.set_bias(2, Bias::from_int(3));
        assert_eq!(adj.slot_width(), SlotWidth::Narrow);
        assert_eq!(snapshot.slot_width(), SlotWidth::Wide);
        // The 2^20 goes too: the next copy, a growth copy, is compact.
        adj.swap_delete(1);
        while adj.degree() < adj.capacity() {
            adj.push(Edge::new(7, Bias::from_int(7)));
        }
        adj.push(Edge::new(8, Bias::from_int(8)));
        assert_eq!(adj.slot_width(), SlotWidth::Compact);
        // A shared compact block handed a wide bias: the writer copies, wide;
        // the other holder keeps its block and width.
        let held = adj.clone();
        let at = held.edges().as_ptr();
        adj.set_bias(0, Bias::from_float(1.5));
        assert_eq!(adj.slot_width(), SlotWidth::Wide);
        assert_eq!(
            (held.slot_width(), held.edges().as_ptr()),
            (SlotWidth::Compact, at)
        );
        assert_eq!(held.bias(0), Bias::from_int(6));
        assert_eq!(snapshot.edges().as_ptr(), block);
        assert_eq!(snapshot.bias(0), Bias::from_int(6));
    }

    #[test]
    fn a_loaded_list_is_the_pushed_one_to_the_byte() {
        let edges: Vec<Edge> = (0..70)
            .map(|dst| Edge::new(dst, Bias::from_int(u64::from(dst) + 1)))
            .collect();
        let narrow_edges: Vec<Edge> = edges
            .iter()
            .map(|e| Edge::new(e.dst, Bias::from_int(e.bias.as_int().unwrap() << 16)))
            .collect();
        let wide_edges: Vec<Edge> = edges
            .iter()
            .map(|e| Edge::new(e.dst, Bias::from_float(e.bias.value() / 4.0)))
            .collect();
        for (edges, width) in [
            (&edges, SlotWidth::Compact),
            (&narrow_edges, SlotWidth::Narrow),
            (&wide_edges, SlotWidth::Wide),
        ] {
            for degree in 0..edges.len() {
                let mut pushed = AdjacencyList::new();
                for &edge in &edges[..degree] {
                    pushed.push(edge);
                }
                let mut loaded = AdjacencyList::new();
                let mut fill = loaded.load(degree, width);
                for &edge in &edges[..degree] {
                    fill.put(edge);
                }
                assert_eq!(loaded, pushed, "{degree}");
                assert_eq!(loaded.memory_bytes(), pushed.memory_bytes(), "{degree}");
                if degree > 0 {
                    assert_eq!(loaded.slot_width(), width, "{degree}");
                    assert_eq!(pushed.slot_width(), width, "{degree}");
                }
            }
        }
    }

    #[test]
    fn a_load_takes_the_capacity_its_pushes_reach() {
        let mut pushed = AdjacencyList::new();
        for degree in 0..=4096 {
            let mut loaded = AdjacencyList::new();
            loaded.load(degree, SlotWidth::Compact);
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
