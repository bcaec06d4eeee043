//! Radix groups, their adaptive representations, and the decimal group.
//!
//! A *radix group* `p_k` holds the neighbor indices of all edges whose
//! (λ-scaled, integer) bias has bit `k` set. Every member contributes the
//! same sub-bias `2^k`, so intra-group sampling is uniform. Groups are
//! stored in one of the adaptive representations of §5.1:
//!
//! * **Regular** and **sparse** (fewer than β% of the degree) — *listed*
//!   groups: the intra-group neighbor index list plus a probe table
//!   (neighbor index → position; `arena.rs` has the table) sized by the list,
//!   not by the degree, giving `O(1)` locate/delete. The two kinds share
//!   the layout and differ only in how Equation 9 classifies them.
//! * **Dense** (more than α% of the degree) — no structure at all; sampling
//!   rejects against the raw adjacency list and deletions only adjust a
//!   counter.
//! * **One-element** — just the single neighbor index.
//!
//! All groups of one vertex live in one table (`GroupTable`): a 24-byte header
//! per group over a single arena that holds every member list and probe
//! table as a segment. Dense and one-element groups are header only. The
//! header also carries the group's bucket of the inter-group alias table,
//! so a sample reads one header and at most one arena word. One more
//! segment of the same arena is the vertex's *edge index*, a probe table
//! from destination to neighbor index over the whole adjacency list, which
//! is how a delete, a bias rewrite or a membership query finds its edge
//! without scanning the list.
//!
//! The table is one allocation: its fixed fields (the arena's and the edge
//! index's handles, λ, the decimal group's box and alias bucket) and, as
//! the unsized tail behind them, the K headers. So the vertex record points
//! at the headers directly, and a factorized vertex is two allocations, the
//! table and the arena. The table sits behind an `Arc` and is written
//! copy-on-write (`GroupTable::make_mut`), as an adjacency block is: a
//! clone of the vertex costs a reference count, and the first write
//! through either handle copies the table for itself.
//!
//! ```text
//! table    [ fixed fields | 2^0 | 2^1 | 2^2 | ... ]   kind, count, segment offset, bucket
//!                 |           |           |
//! arena    [ members, table 2^0 | members, table 2^2 | edge index | hole | ... ]
//! ```
//!
//! A segment that outgrows its capacity moves to the arena's tail with a
//! quarter again its room and leaves a hole; nothing is ever shifted, so an
//! insert or delete costs `O(1)` amortised words per group. The arena
//! itself grows by an eighth. Once holes and capacity the segments no
//! longer use pass half the live words, the segments are laid out again
//! inside the arena's own buffer, which then shrinks in place: a churned
//! vertex stays near the size of a fresh build, and its memory stays in
//! the block (and the allocator arena) it was built in. Every word moved
//! is counted (`GroupTable::words_moved`).
//!
//! An arena word holds a neighbor index or a position in a member list,
//! both below the vertex degree. The arena is a buffer of `u16` halves: a
//! *narrow* table (degree below `NARROW_LIMIT` = 2^16 − 1, i.e. almost
//! every vertex) stores one half per word, a *wide* table two, low half
//! first. The width is chosen from the degree alone, and only by a rebuild
//! from scratch: the caller asks `GroupTable::fits` before an insert and
//! rebuilds when the answer is no (the one promotion), and a wide table
//! goes back to narrow only when it is rebuilt below `DEMOTE_BELOW` = 2^15
//! edges, so a hub hovering at the limit does not flip-flop.
//!
//! The *decimal group* (§4.3) stores the fractional remainders of λ-scaled
//! floating-point biases and is sampled by inverse-transform on demand.

use crate::arena::{self, set_word_as, slots_for, word, word_as, word_bytes, words, ProbeTable};
use crate::radix::{decompose, groups_for_max_bias, MAX_GROUPS};
use bingo_sampling::validate_weights;
use rand::Rng;
use std::sync::Arc;

/// Sentinel for "not present" entries of the decimal group's inverted
/// index.
const INVALID: u32 = u32::MAX;

/// Degrees from here on need wide words: a narrow word must hold every
/// neighbor index and position below the degree and still leave
/// `u16::MAX` free for the sentinel.
const NARROW_LIMIT: usize = u16::MAX as usize;

/// A wide table rebuilt from scratch below this degree becomes narrow again.
const DEMOTE_BELOW: usize = 1 << 15;

/// The largest degree a table indexes: a group segment or the edge index of
/// such a vertex, grown by half, still has a `u32` length.
const MAX_DEGREE: usize = (u32::MAX / 8) as usize;

/// Arena words a vertex may waste before holes are worth squeezing out;
/// keeps low-degree vertices from compacting over a handful of words.
const RECLAIM_SLACK_WORDS: usize = 16;

/// Equation 9's dense threshold α, in percent of the vertex degree, and its
/// sparse threshold β. Constants, not knobs: they are the values the paper
/// chose empirically (§5.1), and no workload here varies them.
const ALPHA_PERCENT: f64 = 40.0;
const BETA_PERCENT: f64 = 10.0;

/// The adaptive representation categories of Equation 9, plus `Empty` for
/// groups that currently hold no edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupKind {
    /// The group holds no edges and is never sampled.
    Empty,
    /// More than α% of the neighbors fall into this group.
    Dense,
    /// Exactly one neighbor falls into this group.
    OneElement,
    /// Fewer than β% of the neighbors (but more than one) fall into this
    /// group.
    Sparse,
    /// Everything else. Stored like a sparse group: neighbor index list
    /// plus a probe table over it.
    Regular,
}

impl GroupKind {
    /// Classify a group by its cardinality and the vertex degree
    /// (Equation 9 with the paper's precedence: dense first, at α = 40 %
    /// and β = 10 %).
    pub fn classify(cardinality: usize, degree: usize) -> Self {
        if cardinality == 0 || degree == 0 {
            GroupKind::Empty
        } else if cardinality as f64 / degree as f64 > ALPHA_PERCENT / 100.0 {
            GroupKind::Dense
        } else if cardinality == 1 {
            GroupKind::OneElement
        } else if (cardinality as f64 / degree as f64) < BETA_PERCENT / 100.0 {
            GroupKind::Sparse
        } else {
            GroupKind::Regular
        }
    }

    /// All non-empty kinds, in the order used by the figures.
    pub fn all() -> [GroupKind; 4] {
        [
            GroupKind::Dense,
            GroupKind::Regular,
            GroupKind::Sparse,
            GroupKind::OneElement,
        ]
    }
}

/// Fixed-size header of one radix group. The group's bit is its position
/// in the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GroupSlot {
    /// Inter-group alias bucket: probability of keeping this group when its
    /// bucket is drawn.
    prob: f64,
    /// Number of edges in the group.
    count: u32,
    /// Start of a listed group's segment in the arena: `cap` member words,
    /// then the `slots_for(cap)` words of its probe table. A one-element
    /// group keeps its single neighbor index here instead.
    off: u32,
    /// Members the segment has room for.
    cap: u32,
    kind: GroupKind,
    /// Inter-group alias bucket: the group drawn when `prob` rejects.
    alias: u8,
}

impl GroupSlot {
    const EMPTY: GroupSlot = GroupSlot {
        prob: 1.0,
        count: 0,
        off: 0,
        cap: 0,
        kind: GroupKind::Empty,
        alias: 0,
    };

    /// Drop the group's contents, keeping its inter-group bucket (the next
    /// `rebuild_inter` rewrites it). Its arena segment becomes a hole.
    fn clear(&mut self) {
        *self = GroupSlot {
            prob: self.prob,
            alias: self.alias,
            ..GroupSlot::EMPTY
        };
    }

    /// Whether the group keeps a member list and its probe table.
    fn is_listed(&self) -> bool {
        matches!(self.kind, GroupKind::Sparse | GroupKind::Regular)
    }

    /// The probe table (neighbor index → position) of a listed group.
    fn table(&self) -> ProbeTable {
        ProbeTable {
            off: self.off + self.cap,
            cap: slots_for(self.cap),
        }
    }
}

/// Arena words of a listed group's segment with room for `cap` members.
fn segment_words(cap: u32) -> u32 {
    cap + slots_for(cap)
}

fn weight_of(count: u32, bit: usize) -> f64 {
    count as f64 * (1u64 << bit) as f64
}

/// Read-only view of one radix group of a vertex.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    bit: u8,
    wide: bool,
    slot: &'a GroupSlot,
    arena: &'a [u16],
}

impl<'a> GroupView<'a> {
    /// The radix bit this group represents.
    pub fn bit(&self) -> u8 {
        self.bit
    }

    /// Current representation kind.
    pub fn kind(&self) -> GroupKind {
        self.slot.kind
    }

    /// Number of edges in the group.
    pub fn cardinality(&self) -> usize {
        self.slot.count as usize
    }

    /// Group bias `W(p_k) = |G_k| · 2^k` (Equation 4).
    pub fn weight(&self) -> f64 {
        weight_of(self.slot.count, self.bit as usize)
    }

    /// Explicit member list in sampling order, if one is kept (everything
    /// but dense groups).
    pub fn members(&self) -> Option<impl Iterator<Item = u32> + 'a> {
        let s = self.slot;
        let (only, listed) = match s.kind {
            GroupKind::Empty => (None, 0),
            GroupKind::Dense => return None,
            GroupKind::OneElement => (Some(s.off), 0),
            GroupKind::Sparse | GroupKind::Regular => (None, s.count),
        };
        Some(
            only.into_iter()
                .chain(words(self.arena, self.wide, s.off, listed)),
        )
    }

    /// Whether neighbor index `idx` is stored in this group. Dense groups
    /// answer `None` because membership is determined by the bias bit, which
    /// the group does not store.
    pub fn contains(&self, idx: u32) -> Option<bool> {
        if self.slot.is_listed() {
            return Some(position(self.slot, self.arena, self.wide, idx).is_some());
        }
        self.members().map(|mut m| m.any(|m| m == idx))
    }

    /// Bytes this group's representation needs (the Figure 11 breakdown):
    /// a counter for dense groups, the neighbor index for one-element
    /// groups (both `u32` header fields), the arena segment — member list
    /// and probe table, at the table's word size — for sparse and regular
    /// groups.
    pub fn memory_bytes(&self) -> usize {
        let s = self.slot;
        match s.kind {
            GroupKind::Empty => 0,
            GroupKind::Dense | GroupKind::OneElement => std::mem::size_of::<u32>(),
            GroupKind::Sparse | GroupKind::Regular => {
                segment_words(s.cap) as usize * word_bytes(self.wide)
            }
        }
    }
}

/// Where neighbor `idx` sits in the listed group `slot`: its slot in the
/// group's probe table and its position in the member list.
fn position(slot: &GroupSlot, arena: &[u16], wide: bool, idx: u32) -> Option<(u32, u32)> {
    slot.table()
        .probe(arena, wide, idx)
        .find(|&(_, pos)| word(arena, wide, (slot.off + pos) as usize) == idx)
}

/// What a table holds besides its headers: the part of its allocation whose
/// size does not depend on K.
#[derive(Debug, Clone)]
pub(crate) struct Fixed {
    /// Member lists and probe tables, one `u16` half per word (two when
    /// `wide`). The arena's end is the tail where relocated segments land;
    /// words no live segment covers are holes.
    arena: Vec<u16>,
    /// The edge index, a segment of the arena like any other: destination
    /// → neighbor index, one entry per edge of the adjacency list the
    /// groups index. Edges to one destination are all in it.
    index: ProbeTable,
    /// Alias bucket of the decimal group, the table's last candidate.
    tail_prob: f64,
    /// The decimal group; present only while some scaled bias has a
    /// fractional remainder. The table carries it for its owner and reads
    /// nothing of it: the owner passes its weight to `rebuild_inter`.
    pub(crate) decimal: Option<Box<DecimalGroup>>,
    /// The λ amortization factor the owner scaled the biases by; carried
    /// like `decimal`.
    pub(crate) lambda: f64,
    /// Arena words copied or entered afresh since the table was first
    /// built: segment moves, compactions, edge-index refills and the
    /// arena's own reallocations. A rebuild from scratch runs it on.
    words_moved: u64,
    inter_rebuilds: u32,
    tail_alias: u8,
    /// Whether the groups carry any weight, i.e. the alias table is usable.
    has_inter: bool,
    /// Whether an arena word is two halves. Set by `rebuild` only.
    wide: bool,
}

impl Fixed {
    const EMPTY: Fixed = Fixed {
        arena: Vec::new(),
        index: ProbeTable::NONE,
        tail_prob: 1.0,
        decimal: None,
        lambda: 1.0,
        words_moved: 0,
        inter_rebuilds: 0,
        tail_alias: 0,
        has_inter: false,
        wide: false,
    };
}

/// Every radix group of one vertex: the K headers (with the inter-group
/// alias table spread over them), and the arena their segments and the edge
/// index live in. The headers are the unsized tail of the table's own
/// allocation, so a table is always behind a pointer (an `Arc`), a sample
/// reads header and alias bucket one hop from the vertex record, and K
/// changes — a rebuild that finds another top bit, an insert that brings a
/// new one — by moving the table to an allocation of the new size
/// ([`GroupTable::rebuilt`], [`GroupTable::ensure`]).
#[derive(Debug)]
pub(crate) struct GroupTable<S: ?Sized = [GroupSlot]> {
    pub(crate) fixed: Fixed,
    slots: S,
}

#[cfg(test)]
thread_local! {
    /// Where the heap blocks start that a sample on this thread has read
    /// since a test last emptied the list: the table, its arena, the
    /// adjacency block.
    pub(crate) static BLOCKS_READ: std::cell::RefCell<Vec<usize>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Note that the sampling path reads the heap block at `_block`.
#[inline]
pub(crate) fn note_read<T: ?Sized>(_block: *const T) {
    #[cfg(test)]
    BLOCKS_READ.with(|blocks| {
        let at = _block.cast::<u8>() as usize;
        let mut blocks = blocks.borrow_mut();
        if !blocks.contains(&at) {
            blocks.push(at);
        }
    });
}

/// Edges whose scaled integers a build from scratch reads at a time: a
/// 2 KiB stack array, so the passes over them allocate nothing.
const BUILD_BLOCK: usize = 256;

/// The scaled integers of edges `first..` (at most [`BUILD_BLOCK`], up to
/// `degree`), written into `block`.
fn scaled_block(
    block: &mut [u64; BUILD_BLOCK],
    first: usize,
    degree: usize,
    integer_of: impl Fn(usize) -> u64,
) -> &[u64] {
    let block = &mut block[..BUILD_BLOCK.min(degree - first)];
    for (idx, w) in (first..).zip(block.iter_mut()) {
        *w = integer_of(idx);
    }
    block
}

/// Byte value `b` spread out to one 16-bit lane per bit: bits 0–3 in the
/// first word's lanes, bits 4–7 in the second's. Adding up the spreads of
/// one byte of every integer in a block sums eight bits at once, with no
/// branch per edge, and no lane can overflow within a block.
const SPREAD: [[u64; 2]; 256] = {
    let mut spread = [[0u64; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                spread[byte][bit / 4] |= 1 << (16 * (bit % 4));
            }
            bit += 1;
        }
        byte += 1;
    }
    spread
};

/// Add how many integers of `block` have each bit to `counts`, and return
/// the bits any of them has.
fn count_block(block: &[u64], counts: &mut [u32; MAX_GROUPS]) -> u64 {
    let bits = block.iter().fold(0, |bits, &w| bits | w);
    for byte in 0..groups_for_max_bias(bits).div_ceil(8) {
        let mut lanes = [0u64; 2];
        for &w in block {
            let spread = SPREAD[usize::from((w >> (8 * byte)) as u8)];
            lanes[0] += spread[0];
            lanes[1] += spread[1];
        }
        for (bit, count) in counts[8 * byte..][..8].iter_mut().enumerate() {
            *count += (lanes[bit / 4] >> (16 * (bit % 4))) as u32 & 0xFFFF;
        }
    }
    bits
}

/// Append the neighbor index of every edge of `block` (the first being
/// `first`) to the member list of each listed group (`listed`, a mask of
/// bits) its integer has the bit of; `cursor[bit]` is where that list's
/// next member goes. One pass per group and no branch per edge: every
/// edge's index is written at the cursor, and only a member moves it on,
/// so a member's write is the one that stays. The word past a finished
/// list — the first slot of its probe table, as the build lays them out —
/// keeps the last write of a non-member; the caller empties it again.
fn scatter<const WIDE: bool>(
    arena: &mut [u16],
    block: &[u64],
    first: u32,
    listed: u64,
    cursor: &mut [u32; MAX_GROUPS],
) {
    for bit in decompose(listed) {
        let mut at = cursor[bit as usize];
        for (idx, &w) in (first..).zip(block) {
            set_word_as::<WIDE>(arena, at as usize, idx);
            at += (w >> bit) as u32 & 1;
        }
        cursor[bit as usize] = at;
    }
}

/// Room a full member list of `cap` entries moves to when it must hold
/// `needed`: a quarter again, so the words a move copies are paid for by
/// the inserts since the last one.
fn grown(cap: u32, needed: u32) -> u32 {
    (cap + cap / 4).max(needed).max(4)
}

/// Room a member list of `used` entries gets at compaction: an eighth of
/// headroom, so the next insert does not move it straight away.
fn with_headroom(used: u32) -> u32 {
    used + used / 8
}

/// Entries the edge index of a full list of `degree` edges moves to:
/// half again. The index has more room than a member list, at growth and
/// at compaction ([`index_headroom`]), because its probes read adjacency
/// slots: an eighth would lengthen the clusters a delete scans.
fn index_grown(degree: u32) -> u32 {
    (degree + degree / 2).max(degree + 1).max(4)
}

/// Entries the edge index of `degree` edges has room for at compaction: a
/// quarter of headroom.
fn index_headroom(degree: u32) -> u32 {
    degree + degree / 4
}

impl GroupTable {
    /// The table of a vertex that has no groups.
    pub(crate) fn none() -> &'static Self {
        static NONE: GroupTable<[GroupSlot; 0]> = GroupTable {
            fixed: Fixed::EMPTY,
            slots: [],
        };
        &NONE
    }

    /// A table of `k` headers — the first of them copied from `slots`, the
    /// rest empty — in one allocation with `fixed` and the `Arc`'s counts.
    fn with_headers(fixed: Fixed, slots: &[GroupSlot], k: usize) -> Arc<Self> {
        fn sized<const K: usize>(fixed: Fixed) -> Arc<GroupTable> {
            Arc::new(GroupTable {
                fixed,
                slots: [GroupSlot::EMPTY; K],
            })
        }
        // Safe Rust sizes an unsized tail by coercion from an array, so by a
        // constant: one arm per K a 64-bit bias allows.
        macro_rules! sized_by {
            ($($k:literal)*) => {
                match k {
                    $($k => sized::<$k>(fixed),)*
                    _ => unreachable!("a bias has at most {MAX_GROUPS} bits"),
                }
            };
        }
        let mut table = sized_by!(
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
            33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62
            63 64
        );
        let kept = slots.len().min(k);
        Arc::get_mut(&mut table)
            .expect("a table nobody else has seen")
            .slots[..kept]
            .copy_from_slice(&slots[..kept]);
        table
    }

    /// A copy in an allocation of its own.
    pub(crate) fn copied(&self) -> Arc<Self> {
        Self::with_headers(self.fixed.clone(), &self.slots, self.slots.len())
    }

    /// The table behind `this`, to write: the table itself while no other
    /// handle holds it, else a copy that replaces it here and leaves the
    /// other holders' untouched.
    pub(crate) fn make_mut(this: &mut Arc<Self>) -> &mut Self {
        if Arc::get_mut(this).is_none() {
            *this = this.copied();
        }
        Arc::get_mut(this).expect("this handle alone holds the table")
    }

    /// Whether the table, at its current width, can index a vertex of
    /// `degree` edges. When it cannot, the caller rebuilds from scratch.
    pub(crate) fn fits(&self, degree: usize) -> bool {
        (self.fixed.wide || degree < NARROW_LIMIT) && degree <= MAX_DEGREE
    }

    /// Whether arena words are 32 bits.
    #[cfg(test)]
    pub(crate) fn is_wide(&self) -> bool {
        self.fixed.wide
    }

    /// Arena halves per word, as a shift.
    #[inline]
    fn shift(&self) -> usize {
        usize::from(self.fixed.wide)
    }

    #[inline]
    fn word(&self, i: u32) -> u32 {
        word(&self.fixed.arena, self.fixed.wide, i as usize)
    }

    #[inline]
    fn set_word(&mut self, i: u32, value: u32) {
        arena::set_word(&mut self.fixed.arena, self.fixed.wide, i as usize, value);
    }

    /// Arena length, in words.
    fn arena_len(&self) -> usize {
        self.fixed.arena.len() >> self.shift()
    }

    /// Arena capacity, in words.
    pub(crate) fn arena_capacity(&self) -> usize {
        self.fixed.arena.capacity() >> self.shift()
    }

    /// Number of groups (K).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn inter_rebuilds(&self) -> u32 {
        self.fixed.inter_rebuilds
    }

    /// Arena words moved since the table was first built (see
    /// `Fixed::words_moved`); a caller diffs two readings around an update.
    pub(crate) fn words_moved(&self) -> u64 {
        self.fixed.words_moved
    }

    fn note_moved(&mut self, words: usize) {
        self.fixed.words_moved += words as u64;
    }

    pub(crate) fn view(&self, bit: usize) -> GroupView<'_> {
        GroupView {
            bit: bit as u8,
            wide: self.fixed.wide,
            slot: &self.slots[bit],
            arena: &self.fixed.arena,
        }
    }

    pub(crate) fn views(&self) -> impl ExactSizeIterator<Item = GroupView<'_>> {
        (0..self.slots.len()).map(|bit| self.view(bit))
    }

    pub(crate) fn kind(&self, bit: usize) -> GroupKind {
        self.slots[bit].kind
    }

    pub(crate) fn cardinality(&self, bit: usize) -> usize {
        self.slots[bit].count as usize
    }

    /// Sum of all group biases.
    pub(crate) fn total_weight(&self) -> f64 {
        self.slots
            .iter()
            .enumerate()
            .map(|(bit, s)| weight_of(s.count, bit))
            .sum()
    }

    /// Build every group and the edge index from scratch for a vertex of
    /// `degree` edges, where `integer_of(idx)` is the scaled integer bias
    /// of edge `idx`, `dst_of(idx)` its destination and
    /// `classify(cardinality)` the representation a group of that size
    /// gets. `prev` is the table the vertex had, if it had one: its
    /// allocation is used again when K has not changed (this is where K
    /// follows the biases down as well as up), its width decides the new
    /// one's (this is the one place the word width is chosen) and its
    /// rebuild counter runs on. The inter-group table is left for the
    /// caller to rebuild.
    ///
    /// Two passes over the edges, each reading the scaled integers of
    /// [`BUILD_BLOCK`] edges at a time into one stack array. The *count
    /// pass* sums every bit of the block's integers with no branch per
    /// edge, eight bits at once ([`SPREAD`]); the counts give every header
    /// and the exact size of the arena, which is allocated once. The
    /// *scatter pass* then writes the neighbor indices into the member
    /// lists of the listed groups alone, through one write cursor per
    /// group and without reading a header, and notes the member of each
    /// one-element group; it is skipped when the vertex has neither. The
    /// probe tables over the lists and the edge index are filled last. The
    /// word width is fixed once for each of these loops, and every list
    /// and table is filled in neighbor-index order, so the table is the one
    /// an edge-by-edge build makes.
    pub(crate) fn rebuilt(
        prev: Option<Arc<Self>>,
        degree: usize,
        integer_of: impl Fn(usize) -> u64,
        dst_of: impl Fn(u32) -> u32,
        classify: impl Fn(usize) -> GroupKind,
    ) -> Arc<Self> {
        assert!(
            degree <= MAX_DEGREE,
            "a vertex of {degree} edges is past what arena offsets can index"
        );
        let mut block = [0u64; BUILD_BLOCK];
        let mut counts = [0u32; MAX_GROUPS];
        let mut all_bits = 0u64;
        for first in (0..degree).step_by(BUILD_BLOCK) {
            let block = scaled_block(&mut block, first, degree, &integer_of);
            all_bits |= count_block(block, &mut counts);
        }
        let k = groups_for_max_bias(all_bits);
        let mut shared = match prev {
            Some(mut prev) => match Arc::get_mut(&mut prev) {
                Some(table) if table.slots.len() != k => {
                    let fixed = std::mem::replace(&mut table.fixed, Fixed::EMPTY);
                    Self::with_headers(fixed, &[], k)
                }
                Some(_) => prev,
                // Another handle holds the old table: of its fixed fields a
                // rebuild keeps only the width and the two counters.
                None => Self::with_headers(
                    Fixed {
                        wide: prev.fixed.wide,
                        words_moved: prev.fixed.words_moved,
                        inter_rebuilds: prev.fixed.inter_rebuilds,
                        ..Fixed::EMPTY
                    },
                    &[],
                    k,
                ),
            },
            None => Self::with_headers(Fixed::EMPTY, &[], k),
        };
        let table = Arc::get_mut(&mut shared).expect("a table no other handle holds");
        table.fixed.wide = degree >= NARROW_LIMIT || (table.fixed.wide && degree >= DEMOTE_BELOW);
        let mut words = 0usize;
        // The listed groups and the one-element groups, as bit masks; where
        // the next member of each listed group goes.
        let (mut listed, mut single) = (0u64, 0u64);
        let mut cursor = [0u32; MAX_GROUPS];
        for (bit, header) in table.slots.iter_mut().enumerate() {
            let count = counts[bit];
            let mut slot = GroupSlot {
                count,
                kind: classify(count as usize),
                ..GroupSlot::EMPTY
            };
            match slot.kind {
                GroupKind::Empty | GroupKind::Dense => {}
                GroupKind::OneElement => single |= 1 << bit,
                GroupKind::Sparse | GroupKind::Regular => {
                    listed |= 1 << bit;
                    slot.off = words as u32;
                    cursor[bit] = slot.off;
                    slot.cap = count;
                    words += segment_words(count) as usize;
                }
            }
            *header = slot;
        }
        // (A sum past `u32` is caught below, before any offset is used.)
        table.fixed.index = ProbeTable {
            off: words as u32,
            cap: slots_for(degree as u32),
        };
        words += table.fixed.index.cap as usize;
        assert!(
            words < u32::MAX as usize,
            "group arena must stay addressable by u32 offsets"
        );
        table.fixed.arena = vec![u16::MAX; words << table.shift()];

        if listed | single != 0 {
            // A one-element group's member: the last edge whose integer has
            // the bit, which is the only one.
            let mut only = [0u32; MAX_GROUPS];
            let arena = &mut table.fixed.arena;
            for first in (0..degree).step_by(BUILD_BLOCK) {
                let block = scaled_block(&mut block, first, degree, &integer_of);
                if table.fixed.wide {
                    scatter::<true>(arena, block, first as u32, listed, &mut cursor);
                } else {
                    scatter::<false>(arena, block, first as u32, listed, &mut cursor);
                }
                if single != 0 {
                    for (idx, &w) in (first as u32..).zip(block) {
                        for bit in decompose(w & single) {
                            only[bit as usize] = idx;
                        }
                    }
                }
            }
            for bit in decompose(single) {
                table.slots[bit as usize].off = only[bit as usize];
            }
        }
        // Lists first, then the tables over them: the same fill a moved or
        // compacted segment gets. A list fills its segment's room, so the
        // word past it, which the scatter may have written, is the table's
        // first slot.
        for bit in decompose(listed) {
            let slot = table.slots[bit as usize];
            table.set_word(slot.off + slot.count, arena::EMPTY);
            table.fill_table(&slot);
        }
        table.fill_index(degree as u32, dst_of);
        shared
    }

    /// Make sure groups `0..bits` exist: a table with fewer moves, headers
    /// and all, to an allocation with room for them (a table another handle
    /// holds is copied into it).
    pub(crate) fn ensure(this: &mut Arc<Self>, bits: usize) {
        if this.slots.len() < bits {
            let fixed = match Arc::get_mut(this) {
                Some(table) => std::mem::replace(&mut table.fixed, Fixed::EMPTY),
                None => this.fixed.clone(),
            };
            *this = Self::with_headers(fixed, &this.slots, bits);
        }
    }

    /// Reserve `words` fresh words at the arena's tail, all empty, and
    /// return their offset. The arena grows by an eighth of its capacity at
    /// a time, so the copy a reallocation makes is paid for by the words
    /// appended since the last one, and a vertex carries little slack.
    fn alloc(&mut self, words: u32) -> u32 {
        let off = self.arena_len();
        let end = off + words as usize;
        assert!(
            end < u32::MAX as usize,
            "group arena must stay addressable by u32 offsets"
        );
        if end > self.arena_capacity() {
            self.note_moved(off);
            let additional = (words as usize).max(self.arena_capacity() / 8);
            self.fixed.arena.reserve_exact(additional << self.shift());
        }
        self.fixed.arena.resize(end << self.shift(), u16::MAX);
        off as u32
    }

    /// Enter every member of the listed group `slot` into its probe table,
    /// which is empty.
    fn fill_table(&mut self, slot: &GroupSlot) {
        fn fill<const WIDE: bool>(arena: &mut [u16], slot: &GroupSlot) {
            let table = slot.table();
            for pos in 0..slot.count {
                let member = word_as::<WIDE>(arena, (slot.off + pos) as usize);
                table.insert_as::<WIDE>(arena, member, pos);
            }
        }
        if self.fixed.wide {
            fill::<true>(&mut self.fixed.arena, slot);
        } else {
            fill::<false>(&mut self.fixed.arena, slot);
        }
    }

    /// Move the listed group `slot` to a fresh segment at the tail with
    /// room for `cap` members: the list is copied, the probe table filled
    /// afresh at its new size. The old words become a hole.
    fn regrow(&mut self, slot: &mut GroupSlot, cap: u32) {
        let off = self.alloc(segment_words(cap));
        let s = self.shift();
        self.fixed.arena.copy_within(
            (slot.off as usize) << s..((slot.off + slot.count) as usize) << s,
            (off as usize) << s,
        );
        (slot.off, slot.cap) = (off, cap);
        self.fill_table(slot);
        self.note_moved(2 * slot.count as usize);
    }

    /// Append `idx` to the listed group `slot`, moving it first if it is
    /// full.
    fn push_member(&mut self, slot: &mut GroupSlot, idx: u32) {
        if slot.count == slot.cap {
            self.regrow(slot, grown(slot.cap, slot.count + 1));
        }
        self.set_word(slot.off + slot.count, idx);
        slot.table()
            .insert(&mut self.fixed.arena, self.fixed.wide, idx, slot.count);
        slot.count += 1;
    }

    /// Add the edge with neighbor index `idx` to group `bit`.
    ///
    /// The caller is responsible for only inserting edges whose bias has
    /// this group's bit set. Representations are *not* reclassified here;
    /// that happens in the rebuild/reclassify step.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not fit the table's words, i.e. the caller
    /// skipped [`GroupTable::fits`].
    pub(crate) fn insert(&mut self, bit: usize, idx: u32) {
        assert!(
            self.fits(idx as usize + 1),
            "neighbor index {idx} needs a wide table"
        );
        let mut slot = self.slots[bit];
        match slot.kind {
            GroupKind::Empty => {
                slot.kind = GroupKind::OneElement;
                slot.off = idx;
                slot.count = 1;
            }
            GroupKind::Dense => slot.count += 1,
            GroupKind::OneElement => {
                let first = slot.off;
                slot.kind = GroupKind::Sparse;
                slot.off = self.alloc(segment_words(2));
                (slot.cap, slot.count) = (2, 0);
                self.push_member(&mut slot, first);
                self.push_member(&mut slot, idx);
            }
            GroupKind::Sparse | GroupKind::Regular => self.push_member(&mut slot, idx),
        }
        self.slots[bit] = slot;
    }

    /// Remove the edge with neighbor index `idx` from group `bit`: the
    /// group's tail member takes its place.
    ///
    /// Returns `true` if an entry was removed. Dense groups only decrement
    /// their counter (the caller has already checked membership via the bias
    /// bit).
    pub(crate) fn remove(&mut self, bit: usize, idx: u32) -> bool {
        let mut slot = self.slots[bit];
        match slot.kind {
            GroupKind::Empty => return false,
            GroupKind::Dense => slot.count -= 1,
            GroupKind::OneElement => {
                if slot.off != idx {
                    return false;
                }
                slot.count = 0;
            }
            GroupKind::Sparse | GroupKind::Regular => {
                let (table, off, wide) = (slot.table(), slot.off, self.fixed.wide);
                let Some((at, pos)) = position(&slot, &self.fixed.arena, wide, idx) else {
                    return false;
                };
                // The list is whole while the table closes the gap, so
                // every other entry still reads its key back.
                table.remove(&mut self.fixed.arena, wide, at, |arena, pos| {
                    word(arena, wide, (off + pos) as usize)
                });
                slot.count -= 1;
                let last = slot.count;
                if pos < last {
                    let moved = self.word(off + last);
                    let (at, _) = table
                        .probe(&self.fixed.arena, wide, moved)
                        .find(|&(_, pos)| pos == last)
                        .expect("every member is in its group's probe table");
                    table.set(&mut self.fixed.arena, wide, at, pos);
                    self.set_word(off + pos, moved);
                }
            }
        }
        if slot.count == 0 {
            slot.clear();
        }
        self.slots[bit] = slot;
        true
    }

    /// The neighbor index of a member changed (the adjacency list swap-moved
    /// the edge from `old_idx` to `new_idx`); update group `bit` accordingly.
    pub(crate) fn remap(&mut self, bit: usize, old_idx: u32, new_idx: u32) {
        if old_idx == new_idx {
            return;
        }
        let slot = &mut self.slots[bit];
        match slot.kind {
            GroupKind::Empty | GroupKind::Dense => {}
            GroupKind::OneElement => {
                if slot.off == old_idx {
                    slot.off = new_idx;
                }
            }
            GroupKind::Sparse | GroupKind::Regular => {
                let (table, off, wide) = (slot.table(), slot.off, self.fixed.wide);
                let Some((at, pos)) = position(slot, &self.fixed.arena, wide, old_idx) else {
                    return;
                };
                // The member is the entry's key: out under the old one, in
                // under the new.
                table.remove(&mut self.fixed.arena, wide, at, |arena, pos| {
                    word(arena, wide, (off + pos) as usize)
                });
                self.set_word(off + pos, new_idx);
                table.insert(&mut self.fixed.arena, wide, new_idx, pos);
            }
        }
    }

    /// Uniformly sample a member of group `bit`. Dense groups return
    /// `None`: they carry no member list, so the caller must fall back to
    /// rejection sampling over the adjacency list (§5.1).
    #[inline]
    pub(crate) fn sample_member<R: Rng + ?Sized>(&self, bit: usize, rng: &mut R) -> Option<u32> {
        let slot = &self.slots[bit];
        match slot.kind {
            GroupKind::Empty | GroupKind::Dense => None,
            GroupKind::OneElement => Some(slot.off),
            GroupKind::Sparse | GroupKind::Regular => {
                let pos = rng.gen_range(0..slot.count as usize);
                note_read(self.fixed.arena.as_ptr());
                Some(self.word(slot.off + pos as u32))
            }
        }
    }

    /// Convert group `bit` to the requested representation, keeping its
    /// members in order. Sparse and regular groups share a layout, so going
    /// from one to the other only renames the group.
    ///
    /// Dense groups store no members, so converting out of one recovers
    /// them by testing every neighbor index below `degree` with
    /// `is_member`.
    pub(crate) fn convert(
        &mut self,
        bit: usize,
        kind: GroupKind,
        degree: usize,
        is_member: impl Fn(usize) -> bool,
    ) {
        let mut slot = self.slots[bit];
        if slot.kind == kind || slot.kind == GroupKind::Empty {
            // An empty group has no members to re-represent.
            return;
        }
        if matches!(kind, GroupKind::Empty | GroupKind::Dense) {
            let count = slot.count;
            slot.clear();
            if kind == GroupKind::Dense {
                slot.kind = kind;
                slot.count = count;
            }
            self.slots[bit] = slot;
            return;
        }
        // The target keeps explicit members: list them first.
        match slot.kind {
            GroupKind::Dense if kind == GroupKind::OneElement => {
                match (0..degree).find(|&i| is_member(i)) {
                    Some(only) => {
                        slot.kind = kind;
                        slot.count = 1;
                        slot.off = only as u32;
                    }
                    None => slot.clear(),
                }
                self.slots[bit] = slot;
                return;
            }
            GroupKind::Dense => {
                slot.cap = slot.count;
                slot.off = self.alloc(segment_words(slot.cap));
                let mut found = 0;
                for idx in (0..degree)
                    .filter(|&i| is_member(i))
                    .take(slot.cap as usize)
                {
                    self.set_word(slot.off + found, idx as u32);
                    found += 1;
                }
                slot.count = found;
                self.fill_table(&slot);
                self.note_moved(found as usize);
            }
            GroupKind::OneElement => {
                let only = slot.off;
                slot.off = self.alloc(segment_words(1));
                slot.cap = 1;
                self.set_word(slot.off, only);
                self.fill_table(&slot);
                self.note_moved(1);
            }
            GroupKind::Sparse | GroupKind::Regular | GroupKind::Empty => {}
        }
        if slot.count == 0 {
            slot.clear();
        } else if kind == GroupKind::OneElement {
            slot.off = self.word(slot.off);
            slot.cap = 0;
            slot.kind = kind;
        } else {
            slot.kind = kind;
        }
        self.slots[bit] = slot;
    }

    /// Lowest neighbor index among the edges to `dst` (the oldest one,
    /// wherever swap-deletes have left the others), and how many adjacency
    /// slots — `dst_of` calls — finding it read: the length of the one
    /// cluster `dst` probes into, whatever the degree.
    pub(crate) fn find_edge(&self, dst: u32, dst_of: impl Fn(u32) -> u32) -> (Option<u32>, usize) {
        let (mut lowest, mut scanned) = (None, 0);
        for (_, idx) in self
            .fixed
            .index
            .probe(&self.fixed.arena, self.fixed.wide, dst)
        {
            scanned += 1;
            if dst_of(idx) == dst && lowest.is_none_or(|lowest| idx < lowest) {
                lowest = Some(idx);
            }
        }
        (lowest, scanned)
    }

    /// Whether any edge points at `dst`: [`GroupTable::find_edge`] that
    /// stops at the first one.
    pub(crate) fn has_edge(&self, dst: u32, dst_of: impl Fn(u32) -> u32) -> bool {
        self.fixed
            .index
            .probe(&self.fixed.arena, self.fixed.wide, dst)
            .any(|(_, idx)| dst_of(idx) == dst)
    }

    /// Enter the edge just pushed at neighbor index `idx` — the list's
    /// last — into the edge index. An index with no room left moves to the
    /// tail at half again its size and is filled afresh, like a group.
    pub(crate) fn index_insert(&mut self, idx: u32, dst_of: impl Fn(u32) -> u32) {
        if slots_for(idx + 1) <= self.fixed.index.cap {
            self.fixed
                .index
                .insert(&mut self.fixed.arena, self.fixed.wide, dst_of(idx), idx);
        } else {
            let cap = slots_for(index_grown(idx));
            self.fixed.index = ProbeTable {
                off: self.alloc(cap),
                cap,
            };
            self.fill_index(idx + 1, dst_of);
            self.note_moved(idx as usize + 1);
        }
    }

    /// Enter edges `0..degree` into the edge index, which is empty.
    fn fill_index(&mut self, degree: u32, dst_of: impl Fn(u32) -> u32) {
        fn fill<const WIDE: bool>(
            arena: &mut [u16],
            index: ProbeTable,
            degree: u32,
            dst_of: impl Fn(u32) -> u32,
        ) {
            for idx in 0..degree {
                index.insert_as::<WIDE>(arena, dst_of(idx), idx);
            }
        }
        let (arena, index) = (&mut self.fixed.arena, self.fixed.index);
        if self.fixed.wide {
            fill::<true>(arena, index, degree, dst_of);
        } else {
            fill::<false>(arena, index, degree, dst_of);
        }
    }

    /// Take the edge at neighbor index `idx` out of the edge index. The
    /// adjacency list still holds it, and every other edge the index knows.
    pub(crate) fn index_remove(&mut self, idx: u32, dst_of: impl Fn(u32) -> u32) {
        let (at, _) = self
            .fixed
            .index
            .probe(&self.fixed.arena, self.fixed.wide, dst_of(idx))
            .find(|&(_, found)| found == idx)
            .expect("every edge is in the edge index");
        self.fixed
            .index
            .remove(&mut self.fixed.arena, self.fixed.wide, at, |_, idx| {
                dst_of(idx)
            });
    }

    /// The adjacency list moved the edge to `dst` from neighbor index
    /// `old_idx` to `new_idx`.
    pub(crate) fn index_remap(&mut self, old_idx: u32, new_idx: u32, dst: u32) {
        let (at, _) = self
            .fixed
            .index
            .probe(&self.fixed.arena, self.fixed.wide, dst)
            .find(|&(_, found)| found == old_idx)
            .expect("every edge is in the edge index");
        self.fixed
            .index
            .set(&mut self.fixed.arena, self.fixed.wide, at, new_idx);
    }

    /// Bytes of the edge index, at capacity.
    pub(crate) fn index_bytes(&self) -> usize {
        self.fixed.index.cap as usize * word_bytes(self.fixed.wide)
    }

    /// Arena words a vertex of `degree` edges needs: every listed group's
    /// members and the probe table over them, and the edge index.
    fn live_words(&self, degree: usize) -> usize {
        let listed = self.slots.iter().filter(|s| s.is_listed());
        listed
            .map(|s| segment_words(s.count) as usize)
            .sum::<usize>()
            + slots_for(degree as u32) as usize
    }

    /// Squeeze holes and unused segment capacity out of the arena, inside
    /// its own buffer, once its capacity passes what a vertex of `degree`
    /// edges needs by half (and [`RECLAIM_SLACK_WORDS`]). A compaction
    /// leaves at most a quarter of headroom, so the next one waits for at
    /// least a quarter of the live words to be wasted again.
    ///
    /// The segments keep their order and move toward the front: each member
    /// list is copied, with an eighth of headroom, and its probe table
    /// filled again at the new size; the edge index goes last, with a
    /// quarter of headroom, and is filled again. The buffer then shrinks
    /// in place with one `shrink_to`. Where a list's new words would reach
    /// a list not yet moved, every list goes through a scratch copy of the
    /// live list words instead.
    ///
    /// Keeping the buffer keeps the vertex's memory in the block, and the
    /// allocator arena, it was built in: a fresh buffer would be allocated
    /// wherever the compacting thread allocates, and the block freed
    /// behind it could not be reused there. Each compaction is paid for by
    /// the relocations and removals that built up the waste, which keeps
    /// streaming updates `O(K)` amortised.
    pub(crate) fn reclaim(&mut self, degree: usize, dst_of: impl Fn(u32) -> u32) {
        let live = self.live_words(degree);
        if self.arena_capacity() <= live + live / 2 + RECLAIM_SLACK_WORDS {
            return;
        }
        // The listed groups in arena order, each with where its list is now.
        let mut order = [(0u32, 0u8); MAX_GROUPS];
        let mut listed = 0;
        for (bit, slot) in self.slots.iter().enumerate() {
            if slot.is_listed() {
                order[listed] = (slot.off, bit as u8);
                listed += 1;
            }
        }
        let order = &mut order[..listed];
        order.sort_unstable();
        let (mut words, mut list_words, mut in_place) = (0, 0, true);
        for (i, &(_, bit)) in order.iter().enumerate() {
            let slot = &mut self.slots[usize::from(bit)];
            in_place &= order
                .get(i + 1)
                .is_none_or(|&(next, _)| words + slot.count <= next);
            (slot.off, slot.cap) = (words, with_headroom(slot.count));
            words += segment_words(slot.cap);
            list_words += slot.count as usize;
        }
        self.fixed.index = ProbeTable {
            off: words,
            cap: slots_for(index_headroom(degree as u32)),
        };
        words += self.fixed.index.cap;

        let s = self.shift();
        let (arena, slots) = (&mut self.fixed.arena, &self.slots);
        let end = (words as usize) << s;
        if end > arena.len() {
            arena.resize(end, u16::MAX);
        }
        let list =
            |from: u32, slot: &GroupSlot| (from as usize) << s..((from + slot.count) as usize) << s;
        if in_place {
            for &(from, bit) in order.iter() {
                let slot = &slots[usize::from(bit)];
                arena.copy_within(list(from, slot), (slot.off as usize) << s);
            }
        } else {
            let mut scratch = Vec::with_capacity(list_words << s);
            for &(from, bit) in order.iter() {
                scratch.extend_from_slice(&arena[list(from, &slots[usize::from(bit)])]);
            }
            let mut rest = &scratch[..];
            for &(_, bit) in order.iter() {
                let slot = &slots[usize::from(bit)];
                let (head, tail) = rest.split_at((slot.count as usize) << s);
                arena[list(slot.off, slot)].copy_from_slice(head);
                rest = tail;
            }
        }
        // Every word past a list, up to the next segment, and the edge index
        // are empty again.
        for &(_, bit) in order.iter() {
            let slot = &slots[usize::from(bit)];
            arena[((slot.off + slot.count) as usize) << s
                ..((slot.off + segment_words(slot.cap)) as usize) << s]
                .fill(u16::MAX);
        }
        arena[(self.fixed.index.off as usize) << s..end].fill(u16::MAX);
        arena.truncate(end);
        arena.shrink_to(end);

        for &(_, bit) in order.iter() {
            let slot = self.slots[usize::from(bit)];
            self.fill_table(&slot);
        }
        self.fill_index(degree as u32, dst_of);
        self.note_moved(2 * list_words + degree);
    }

    /// Rebuild the inter-group alias table in place over the group biases
    /// and the decimal group's weight (Vose's algorithm, the same
    /// construction as `bingo_sampling::AliasTable`). `O(K)`, no
    /// allocation.
    pub(crate) fn rebuild_inter(&mut self, decimal_weight: f64) {
        self.fixed.inter_rebuilds = self.fixed.inter_rebuilds.wrapping_add(1);
        let k = self.slots.len();
        let mut weights = [0.0f64; MAX_GROUPS + 1];
        for (bit, slot) in self.slots.iter().enumerate() {
            weights[bit] = weight_of(slot.count, bit);
        }
        weights[k] = decimal_weight;
        let weights = &weights[..=k];
        let total: f64 = weights.iter().sum();
        self.fixed.has_inter = total > 0.0 && validate_weights(weights).is_ok();
        if !self.fixed.has_inter {
            return;
        }
        let avg = total / weights.len() as f64;
        // Partition candidates into "small" (below average) and "large".
        let mut small = [(0u8, 0.0f64); MAX_GROUPS + 1];
        let mut large = [(0u8, 0.0f64); MAX_GROUPS + 1];
        let (mut n_small, mut n_large) = (0, 0);
        for (i, &w) in weights.iter().enumerate() {
            if w < avg {
                small[n_small] = (i as u8, w);
                n_small += 1;
            } else {
                large[n_large] = (i as u8, w);
                n_large += 1;
            }
        }
        while n_small > 0 && n_large > 0 {
            n_small -= 1;
            n_large -= 1;
            let (si, sw) = small[n_small];
            let (li, lw) = large[n_large];
            self.set_bucket(si, sw / avg, li);
            let remaining = lw - (avg - sw);
            if remaining < avg {
                small[n_small] = (li, remaining);
                n_small += 1;
            } else {
                large[n_large] = (li, remaining);
                n_large += 1;
            }
        }
        // Whatever is left fills its bucket entirely (prob 1.0).
        for &(i, _) in small[..n_small].iter().chain(&large[..n_large]) {
            self.set_bucket(i, 1.0, i);
        }
    }

    fn set_bucket(&mut self, i: u8, prob: f64, alias: u8) {
        match self.slots.get_mut(i as usize) {
            Some(slot) => {
                slot.prob = prob;
                slot.alias = alias;
            }
            None => {
                self.fixed.tail_prob = prob;
                self.fixed.tail_alias = alias;
            }
        }
    }

    /// Whether the inter-group table can be sampled (the vertex carries
    /// weight).
    #[inline]
    pub(crate) fn has_inter(&self) -> bool {
        self.fixed.has_inter
    }

    /// Draw a group from the inter-group alias table: a bit in `0..len()`,
    /// or `len()` for the decimal group. Only meaningful while
    /// [`GroupTable::has_inter`] holds.
    #[inline]
    pub(crate) fn sample_group<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.slots.len() + 1);
        note_read(self);
        let (prob, alias) = match self.slots.get(i) {
            Some(slot) => (slot.prob, slot.alias),
            None => (self.fixed.tail_prob, self.fixed.tail_alias),
        };
        if rng.gen::<f64>() < prob {
            i
        } else {
            alias as usize
        }
    }

    /// Bytes the inter-group table needs: an 8-byte probability and a
    /// 1-byte alias per candidate (the groups plus the decimal group).
    pub(crate) fn inter_bytes(&self) -> usize {
        if self.fixed.has_inter {
            (self.slots.len() + 1) * (std::mem::size_of::<f64>() + std::mem::size_of::<u8>())
        } else {
            0
        }
    }

    /// Heap bytes the table holds besides its own allocation (fixed fields
    /// and headers, `size_of_val` of the table): the arena, at capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.fixed.arena.capacity() * std::mem::size_of::<u16>()
    }

    /// Check the arena layout: segments lie inside the arena and do not
    /// overlap, every member is a neighbor index below `degree`, and every
    /// group's probe table holds exactly the group's members, each
    /// reachable from its home slot.
    pub(crate) fn check_layout(&self, degree: usize) -> Result<(), String> {
        let index = (self.fixed.index.off as usize, self.fixed.index.cap as usize);
        let mut segments = vec![(index, "the edge index".to_string())];
        for (bit, s) in self.slots.iter().enumerate() {
            match s.kind {
                GroupKind::Empty if s.count != 0 => {
                    return Err(format!("group 2^{bit}: empty with count {}", s.count));
                }
                GroupKind::OneElement if s.count != 1 || s.off as usize >= degree => {
                    return Err(format!("group 2^{bit}: bad one-element header {s:?}"));
                }
                GroupKind::Sparse | GroupKind::Regular => {
                    if s.count == 0 || s.count > s.cap {
                        return Err(format!("group 2^{bit}: count {} cap {}", s.count, s.cap));
                    }
                    let segment = (s.off as usize, segment_words(s.cap) as usize);
                    segments.push((segment, format!("group 2^{bit}")));
                }
                _ => {}
            }
        }
        segments.sort_unstable();
        let mut end = 0;
        for ((off, len), owner) in &segments {
            if *off < end || off + len > self.arena_len() {
                return Err(format!(
                    "segment {off}+{len} of {owner} overlaps or leaves the arena"
                ));
            }
            end = off + len;
        }
        for (bit, s) in self.slots.iter().enumerate() {
            let Some(mut members) = self.view(bit).members() else {
                continue;
            };
            if let Some(m) = members.find(|&m| m as usize >= degree) {
                return Err(format!("group 2^{bit}: member {m} out of range"));
            }
            if s.is_listed() {
                s.table()
                    .check(&self.fixed.arena, self.fixed.wide, s.count, |pos| {
                        self.word(s.off + pos)
                    })
                    .map_err(|e| format!("group 2^{bit}: probe table: {e}"))?;
            }
        }
        Ok(())
    }

    /// Check the edge index exactly: one entry per edge of a vertex of
    /// `degree` edges whose destinations `dst_of` reads, each reachable
    /// from its home slot, and nothing else.
    pub(crate) fn check_index(
        &self,
        degree: usize,
        dst_of: impl Fn(u32) -> u32,
    ) -> Result<(), String> {
        self.fixed
            .index
            .check(&self.fixed.arena, self.fixed.wide, degree as u32, dst_of)
            .map_err(|e| format!("edge index: {e}"))
    }

    /// Every field of the table as words, in a fixed order: the headers,
    /// the fixed fields, the arena (capacity, then every half) and the
    /// decimal group's contents. What the layout pin hashes.
    #[cfg(test)]
    pub(crate) fn layout_words(&self) -> Vec<u64> {
        let f = &self.fixed;
        let mut out = vec![self.slots.len() as u64];
        for s in &self.slots {
            out.extend([
                s.prob.to_bits(),
                s.count.into(),
                s.off.into(),
                s.cap.into(),
                s.kind as u64,
                s.alias.into(),
            ]);
        }
        out.extend([
            f.index.off.into(),
            f.index.cap.into(),
            f.tail_prob.to_bits(),
            f.lambda.to_bits(),
            f.inter_rebuilds.into(),
            f.tail_alias.into(),
            f.has_inter.into(),
            f.wide.into(),
            f.arena.capacity() as u64,
        ]);
        out.extend(f.arena.iter().map(|&half| u64::from(half)));
        if let Some(d) = &f.decimal {
            out.extend([d.members.len() as u64, d.inverted.len() as u64]);
            out.extend(d.members.iter().map(|&m| u64::from(m)));
            out.extend(d.fractions.iter().map(|f| f.to_bits()));
            out.extend(d.inverted.iter().map(|&i| u64::from(i)));
            out.push(d.total.to_bits());
        }
        out
    }
}

/// The decimal group holding fractional remainders of λ-scaled biases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecimalGroup {
    members: Vec<u32>,
    fractions: Vec<f64>,
    /// neighbor index → position in `members` (INVALID when absent).
    inverted: Vec<u32>,
    total: f64,
}

impl DecimalGroup {
    /// Create an empty decimal group.
    pub const fn new() -> Self {
        DecimalGroup {
            members: Vec::new(),
            fractions: Vec::new(),
            inverted: Vec::new(),
            total: 0.0,
        }
    }

    /// The decimal group of a list whose edge `idx` has the `idx`-th of
    /// `fractions` as its remainder (zero for none), or `None` when no
    /// remainder is positive. One pass sizes every vector exactly, the
    /// second inserts in neighbor-index order.
    pub(crate) fn of(fractions: impl Iterator<Item = f64> + Clone) -> Option<Self> {
        let (mut members, mut span) = (0, 0);
        for (idx, fraction) in fractions.clone().enumerate() {
            if fraction > 0.0 {
                (members, span) = (members + 1, idx + 1);
            }
        }
        if members == 0 {
            return None;
        }
        let mut group = DecimalGroup {
            members: Vec::with_capacity(members),
            fractions: Vec::with_capacity(members),
            inverted: vec![INVALID; span],
            total: 0.0,
        };
        for (idx, fraction) in (0..).zip(fractions) {
            group.insert(idx, fraction);
        }
        Some(group)
    }

    /// Number of edges with a fractional remainder.
    pub fn cardinality(&self) -> usize {
        self.members.len()
    }

    /// Total fractional weight `W_D`.
    pub fn weight(&self) -> f64 {
        self.total
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Add the fractional remainder of edge `idx`.
    pub fn insert(&mut self, idx: u32, fraction: f64) {
        if fraction <= 0.0 {
            return;
        }
        if idx as usize >= self.inverted.len() {
            self.inverted.resize(idx as usize + 1, INVALID);
        }
        debug_assert_eq!(self.inverted[idx as usize], INVALID);
        self.inverted[idx as usize] = self.members.len() as u32;
        self.members.push(idx);
        self.fractions.push(fraction);
        self.total += fraction;
    }

    /// Remove edge `idx` from the decimal group, returning its fraction.
    pub fn remove(&mut self, idx: u32) -> Option<f64> {
        if idx as usize >= self.inverted.len() || self.inverted[idx as usize] == INVALID {
            return None;
        }
        let pos = self.inverted[idx as usize] as usize;
        let fraction = self.fractions[pos];
        self.members.swap_remove(pos);
        self.fractions.swap_remove(pos);
        self.inverted[idx as usize] = INVALID;
        if pos < self.members.len() {
            let moved = self.members[pos];
            self.inverted[moved as usize] = pos as u32;
        }
        self.total -= fraction;
        if self.members.is_empty() {
            self.total = 0.0;
        }
        Some(fraction)
    }

    /// The neighbor index of a member changed; update the mapping.
    pub fn remap(&mut self, old_idx: u32, new_idx: u32) {
        if old_idx == new_idx
            || old_idx as usize >= self.inverted.len()
            || self.inverted[old_idx as usize] == INVALID
        {
            return;
        }
        let pos = self.inverted[old_idx as usize] as usize;
        self.members[pos] = new_idx;
        self.inverted[old_idx as usize] = INVALID;
        if new_idx as usize >= self.inverted.len() {
            self.inverted.resize(new_idx as usize + 1, INVALID);
        }
        self.inverted[new_idx as usize] = pos as u32;
    }

    /// Sample a member proportionally to its fraction (inverse transform by
    /// linear scan — the decimal group is selected with probability
    /// `W_D / W`, which λ keeps below `1/d`, so the scan does not affect the
    /// expected `O(1)` sampling cost).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u32> {
        if self.members.is_empty() || self.total <= 0.0 {
            return None;
        }
        let x = rng.gen::<f64>() * self.total;
        let mut acc = 0.0;
        for (i, &f) in self.fractions.iter().enumerate() {
            acc += f;
            if x < acc {
                return Some(self.members[i]);
            }
        }
        self.members.last().copied()
    }

    /// Heap bytes used by the decimal group.
    pub fn memory_bytes(&self) -> usize {
        self.members.capacity() * std::mem::size_of::<u32>()
            + self.fractions.capacity() * std::mem::size_of::<f64>()
            + self.inverted.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sampling::rng::Pcg64;
    use bingo_sampling::{AliasTable, Sampler};
    use rand::SeedableRng;

    /// A table handle the tests write through as a space does: copy on
    /// write, so a clone is a snapshot.
    #[derive(Clone)]
    struct Table(Arc<GroupTable>);

    impl std::ops::Deref for Table {
        type Target = GroupTable;
        fn deref(&self) -> &GroupTable {
            &self.0
        }
    }

    impl std::ops::DerefMut for Table {
        fn deref_mut(&mut self) -> &mut GroupTable {
            GroupTable::make_mut(&mut self.0)
        }
    }

    /// A one-group table holding `members` in the given representation,
    /// over a vertex whose edge `idx` points at vertex `idx`. The tests
    /// below edit the groups alone, so only the build's edge index is in
    /// step with anything.
    fn table_of(kind: GroupKind, members: &[u32]) -> Table {
        let degree = members.iter().max().map_or(0, |&m| m as usize + 1);
        let t = GroupTable::rebuilt(
            None,
            degree,
            |idx| u64::from(members.contains(&(idx as u32))),
            |idx| idx,
            |_| kind,
        );
        t.check_index(degree, |idx| idx).unwrap();
        Table(t)
    }

    /// A table of `k` empty groups.
    fn empty_table(k: usize) -> Table {
        Table(GroupTable::with_headers(Fixed::EMPTY, &[], k))
    }

    fn members_of(t: &GroupTable, bit: usize) -> Option<Vec<u32>> {
        t.view(bit).members().map(Iterator::collect)
    }

    #[test]
    fn a_table_is_72_bytes_and_24_a_header_in_one_allocation() {
        assert_eq!(std::mem::size_of::<GroupSlot>(), 24);
        assert_eq!(std::mem::size_of::<GroupTable<[GroupSlot; 0]>>(), 72);
        for k in [0, 1, 7, MAX_GROUPS] {
            let t = empty_table(k);
            assert_eq!(t.len(), k);
            assert_eq!(std::mem::size_of_val(&*t), 72 + 24 * k);
            assert_eq!(t.heap_bytes(), 0);
        }
    }

    #[test]
    fn k_grows_by_moving_the_table_and_keeps_every_header() {
        let mut t = table_of(GroupKind::Regular, &[0, 3, 5]);
        GroupTable::ensure(&mut t.0, 1);
        assert_eq!(t.len(), 1);
        let before = (t.fixed.arena.clone(), t.fixed.index, t.slots[0]);
        GroupTable::ensure(&mut t.0, 9);
        assert_eq!(t.len(), 9);
        assert_eq!((t.fixed.arena.clone(), t.fixed.index, t.slots[0]), before);
        assert!(t.slots[1..].iter().all(|s| *s == GroupSlot::EMPTY));
        t.insert(8, 4);
        assert_eq!(members_of(&t, 8), Some(vec![4]));
        t.check_layout(6).unwrap();
        t.check_index(6, |idx| idx).unwrap();
        // A clone shares the table until either side writes, and the
        // writer copies it.
        let copy = t.clone();
        assert!(std::ptr::eq(&*copy, &*t));
        t.insert(8, 5);
        assert!(!std::ptr::eq(&*copy, &*t));
        assert_eq!(members_of(&copy, 8), Some(vec![4]));
        assert_eq!(members_of(&copy, 0), Some(vec![0, 3, 5]));
    }

    #[test]
    fn classify_follows_equation_9() {
        // α = 40, β = 10 (the paper's values).
        assert_eq!(GroupKind::classify(0, 10), GroupKind::Empty);
        assert_eq!(GroupKind::classify(5, 10), GroupKind::Dense);
        // |G| = 1 is one-element regardless of how small the ratio is.
        assert_eq!(GroupKind::classify(1, 100), GroupKind::OneElement);
        assert_eq!(GroupKind::classify(1, 5), GroupKind::OneElement);
        assert_eq!(GroupKind::classify(2, 10), GroupKind::Regular);
        assert_eq!(GroupKind::classify(2, 100), GroupKind::Sparse);
        // Dense takes precedence even for a single element on tiny degrees.
        assert_eq!(GroupKind::classify(1, 2), GroupKind::Dense);
        // Both comparisons are strict: exactly α % is not dense, exactly
        // β % not sparse.
        assert_eq!(GroupKind::classify(4, 10), GroupKind::Regular);
        assert_eq!(GroupKind::classify(41, 100), GroupKind::Dense);
        assert_eq!(GroupKind::classify(10, 100), GroupKind::Regular);
        assert_eq!(GroupKind::classify(9, 100), GroupKind::Sparse);
    }

    #[test]
    fn empty_group_behaviour() {
        let mut t = empty_table(4);
        assert_eq!(t.kind(3), GroupKind::Empty);
        assert_eq!(t.cardinality(3), 0);
        assert_eq!(t.view(3).weight(), 0.0);
        assert_eq!(t.view(3).bit(), 3);
        assert!(!t.remove(3, 5));
        let mut rng = Pcg64::seed_from_u64(1);
        assert_eq!(t.sample_member(3, &mut rng), None);
    }

    #[test]
    fn insert_progression_empty_one_sparse() {
        let mut t = empty_table(1);
        t.insert(0, 4);
        assert_eq!(t.kind(0), GroupKind::OneElement);
        t.insert(0, 7);
        assert_eq!(t.kind(0), GroupKind::Sparse);
        assert_eq!(t.cardinality(0), 2);
        assert_eq!(t.view(0).weight(), 2.0);
        assert_eq!(t.view(0).contains(4), Some(true));
        assert_eq!(t.view(0).contains(9), Some(false));
        assert_eq!(members_of(&t, 0), Some(vec![4, 7]));
        t.check_layout(8).unwrap();
    }

    #[test]
    fn regular_group_probe_table_consistency() {
        let mut t = table_of(GroupKind::Regular, &[0, 3, 5]);
        assert_eq!(t.kind(0), GroupKind::Regular);
        assert_eq!(t.cardinality(0), 3);
        assert_eq!(t.view(0).contains(3), Some(true));
        // Remove the head; the tail member (5) must take its place.
        assert!(t.remove(0, 0));
        assert_eq!(t.view(0).contains(0), Some(false));
        assert_eq!(t.view(0).contains(5), Some(true));
        assert_eq!(members_of(&t, 0), Some(vec![5, 3]));
        // Insert a new member, which outgrows the exact-size segment, and
        // check it is findable.
        t.insert(0, 9);
        assert_eq!(t.view(0).contains(9), Some(true));
        t.check_layout(10).unwrap();
        assert!(t.remove(0, 9));
        assert!(!t.remove(0, 9));
    }

    #[test]
    fn regular_group_remap_updates_indices() {
        let mut t = table_of(GroupKind::Regular, &[2, 6]);
        t.remap(0, 6, 1);
        assert_eq!(t.view(0).contains(6), Some(false));
        assert_eq!(t.view(0).contains(1), Some(true));
        // Remapping an absent index is a no-op.
        t.remap(0, 42, 3);
        assert_eq!(t.cardinality(0), 2);
        t.check_layout(7).unwrap();
    }

    #[test]
    fn sparse_and_one_element_remap() {
        let mut s = table_of(GroupKind::Sparse, &[1, 2, 3]);
        s.remap(0, 2, 9);
        assert_eq!(s.view(0).contains(9), Some(true));
        assert_eq!(s.view(0).contains(2), Some(false));
        assert_eq!(members_of(&s, 0), Some(vec![1, 9, 3]));
        s.check_layout(10).unwrap();
        let mut o = table_of(GroupKind::OneElement, &[4]);
        o.remap(0, 4, 8);
        assert_eq!(o.view(0).contains(8), Some(true));
    }

    #[test]
    fn dense_group_counts_only() {
        let mut t = table_of(GroupKind::Dense, &[0, 1, 2, 3, 4]);
        assert_eq!(t.kind(0), GroupKind::Dense);
        assert_eq!(t.cardinality(0), 5);
        assert_eq!(t.view(0).contains(0), None);
        assert!(t.view(0).members().is_none());
        // The edge index: a dense group has nothing in the arena.
        assert_eq!(t.heap_bytes(), t.index_bytes());
        assert_eq!(t.index_bytes(), 2 * slots_for(5) as usize);
        t.insert(0, 9);
        assert_eq!(t.cardinality(0), 6);
        assert!(t.remove(0, 9));
        assert_eq!(t.cardinality(0), 5);
        let mut rng = Pcg64::seed_from_u64(2);
        assert_eq!(t.sample_member(0, &mut rng), None);
        // Draining a dense group turns it empty.
        for _ in 0..5 {
            assert!(t.remove(0, 0));
        }
        assert_eq!(t.kind(0), GroupKind::Empty);
    }

    #[test]
    fn uniform_sampling_covers_all_members() {
        let t = table_of(GroupKind::Regular, &[10, 20, 30]);
        let mut rng = Pcg64::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(t.sample_member(0, &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn conversion_between_kinds_preserves_members() {
        let members = [1u32, 4, 6];
        let is_member = |i: usize| members.contains(&(i as u32));
        let mut t = table_of(GroupKind::Sparse, &members);
        t.convert(0, GroupKind::Regular, 7, is_member);
        assert_eq!(t.kind(0), GroupKind::Regular);
        assert_eq!(t.view(0).contains(4), Some(true));
        t.check_layout(7).unwrap();
        t.convert(0, GroupKind::Dense, 7, is_member);
        assert_eq!(t.kind(0), GroupKind::Dense);
        assert_eq!(t.cardinality(0), 3);
        // Converting out of dense recovers the members from the predicate.
        t.convert(0, GroupKind::Sparse, 7, is_member);
        assert_eq!(t.kind(0), GroupKind::Sparse);
        assert_eq!(members_of(&t, 0), Some(members.to_vec()));
        // Converting to the same kind is a no-op.
        t.convert(0, GroupKind::Sparse, 7, is_member);
        assert_eq!(t.cardinality(0), 3);
        t.convert(0, GroupKind::Regular, 7, is_member);
        t.convert(0, GroupKind::Sparse, 7, is_member);
        assert_eq!(members_of(&t, 0), Some(members.to_vec()));
        t.check_layout(7).unwrap();
    }

    #[test]
    fn one_element_conversions_round_trip() {
        let mut t = table_of(GroupKind::OneElement, &[5]);
        t.convert(0, GroupKind::Regular, 6, |i| i == 5);
        assert_eq!(t.kind(0), GroupKind::Regular);
        assert_eq!(t.view(0).contains(5), Some(true));
        t.check_layout(6).unwrap();
        t.convert(0, GroupKind::OneElement, 6, |i| i == 5);
        assert_eq!(members_of(&t, 0), Some(vec![5]));
        t.convert(0, GroupKind::Dense, 6, |i| i == 5);
        t.convert(0, GroupKind::OneElement, 6, |i| i == 5);
        assert_eq!(members_of(&t, 0), Some(vec![5]));
    }

    #[test]
    fn a_listed_group_costs_its_cardinality_whatever_the_degree() {
        // Five members of a 1000-edge vertex: a sparse and a regular group
        // are laid out alike, list and probe table, and neither pays for
        // the degree.
        let members = [3u32, 40, 500, 998, 999];
        let regular = table_of(GroupKind::Regular, &members);
        let sparse = table_of(GroupKind::Sparse, &members);
        let dense = table_of(GroupKind::Dense, &members);
        let listed = 2 * (5 + slots_for(5) as usize);
        assert_eq!(regular.view(0).memory_bytes(), listed);
        assert_eq!(sparse.view(0).memory_bytes(), listed);
        assert_eq!(dense.view(0).memory_bytes(), 4);
        // The build allocates the arena at exact size: the group's segment
        // and the edge index.
        assert_eq!(regular.fixed.index.cap, slots_for(1000));
        assert_eq!(regular.arena_capacity(), 5 + 8 + 1501);
        assert_eq!(sparse.arena_capacity(), 5 + 8 + 1501);
        assert_eq!(dense.arena_capacity(), 1501);
        // Sparse to regular and back renames the group and moves nothing.
        let mut t = Table(sparse.copied());
        assert_eq!(t.words_moved(), 0, "a build moves nothing");
        t.convert(0, GroupKind::Regular, 1000, |_| unreachable!());
        assert_eq!(t.kind(0), GroupKind::Regular);
        assert_eq!(t.fixed.arena, regular.fixed.arena);
        t.convert(0, GroupKind::Sparse, 1000, |_| unreachable!());
        assert_eq!(t.fixed.arena, sparse.fixed.arena);
        assert_eq!(t.words_moved(), 0);
    }

    #[test]
    fn relocated_segments_leave_holes_that_reclaim_squeezes_out() {
        let members: Vec<u32> = (0..64).collect();
        let mut t = table_of(GroupKind::Regular, &members);
        for idx in 64..200 {
            t.insert(0, idx);
            t.check_layout(idx as usize + 1).unwrap();
        }
        assert!(t.arena_len() > 800, "relocations left holes behind");
        for idx in 8..200 {
            assert!(t.remove(0, idx));
            t.check_layout(200).unwrap();
        }
        t.reclaim(8, |idx| idx);
        t.check_layout(8).unwrap();
        t.check_index(8, |idx| idx).unwrap();
        assert_eq!(members_of(&t, 0).unwrap().len(), 8);
        let live = t.live_words(8);
        assert_eq!(live, 8 + 13 + 13);
        assert!(t.arena_capacity() <= live + live / 2 + RECLAIM_SLACK_WORDS);
        assert_eq!(
            t.arena_capacity(),
            9 + 14 + 16,
            "members and their probe table with an eighth of headroom, \
             the edge index with a quarter"
        );
    }

    #[test]
    fn compaction_through_scratch_keeps_every_list_in_order() {
        // Edges 0..100 are in group 2^0, 100 and 101 in 2^1, 102..302 in
        // 2^2: the exact-size build lays the three segments out in that
        // order. Once edges 132..302 are gone the arena is past the
        // trigger, and 2^0's eighth of headroom puts 2^1's list on words
        // 2^2's list still holds: every list goes through the scratch copy.
        let bits = |idx: usize| match idx {
            0..100 => 1,
            100..102 => 2,
            _ => 4,
        };
        let mut t = Table(GroupTable::rebuilt(
            None,
            302,
            bits,
            |idx| idx,
            |_| GroupKind::Regular,
        ));
        assert_eq!(t.arena_capacity(), 251 + 6 + 501 + 454);
        for idx in (132..302).rev() {
            assert!(t.remove(2, idx));
        }
        let degree = 132;
        let live = t.live_words(degree);
        assert_eq!(live, 251 + 6 + 76 + 199);
        assert!(t.arena_capacity() > live + live / 2 + RECLAIM_SLACK_WORDS);
        t.reclaim(degree, |idx| idx);
        t.check_layout(degree).unwrap();
        t.check_index(degree, |idx| idx).unwrap();
        assert_eq!(members_of(&t, 0), Some((0..100).collect()));
        assert_eq!(members_of(&t, 1), Some(vec![100, 101]));
        assert_eq!(members_of(&t, 2), Some((102..132).collect()));
        // Room for 112, 2 and 33 members, each with its probe table, and
        // an edge index with room for 165 edges.
        assert_eq!(t.arena_capacity(), (112 + 169) + (2 + 4) + (33 + 50) + 248);
        assert_eq!(t.words_moved(), 2 * (100 + 2 + 30) + 132);
    }

    #[test]
    fn width_follows_the_degree_with_hysteresis() {
        // Every other neighbor is a member: one regular group.
        let rebuilt = |slot: &mut Option<Arc<GroupTable>>, degree: usize| {
            let dst_of = |idx: u32| idx.wrapping_mul(7919) % 50_000;
            let prev = slot.take();
            let t = &**slot.insert(GroupTable::rebuilt(
                prev,
                degree,
                |idx| (idx % 2) as u64,
                dst_of,
                |_| GroupKind::Regular,
            ));
            t.check_layout(degree).unwrap();
            t.check_index(degree, dst_of).unwrap();
            assert_eq!(t.arena_capacity(), t.live_words(degree));
            let arena_bytes = t.heap_bytes();
            assert_eq!(arena_bytes, t.arena_capacity() * word_bytes(t.is_wide()));
            assert_eq!(t.view(0).memory_bytes() + t.index_bytes(), arena_bytes);
            // Destinations repeat: the lowest neighbor index wins.
            let dst = dst_of(degree as u32 - 1);
            let (found, scanned) = t.find_edge(dst, dst_of);
            assert_eq!(found, (0..degree as u32).find(|&i| dst_of(i) == dst));
            assert!(scanned < 64 && t.has_edge(dst, dst_of));
            assert_eq!(t.find_edge(50_000, dst_of).0, None);
            t.is_wide()
        };
        let mut slot = None;
        assert!(!rebuilt(&mut slot, NARROW_LIMIT - 1));
        let t = slot.as_deref().unwrap();
        assert!(t.fits(NARROW_LIMIT - 1) && !t.fits(NARROW_LIMIT));
        assert_eq!(t.view(0).contains(NARROW_LIMIT as u32 - 2), Some(true));
        assert_eq!(t.view(0).contains(NARROW_LIMIT as u32 - 3), Some(false));
        assert!(rebuilt(&mut slot, NARROW_LIMIT));
        let t = slot.as_deref().unwrap();
        assert!(t.fits(1 << 20));
        assert_eq!(t.view(0).contains(NARROW_LIMIT as u32 - 2), Some(true));
        assert_eq!(t.view(0).contains(NARROW_LIMIT as u32 - 1), Some(false));
        let mut t = slot;
        // Wide stays wide down to 2^15 ...
        assert!(rebuilt(&mut t, NARROW_LIMIT - 1));
        assert!(rebuilt(&mut t, DEMOTE_BELOW));
        // ... goes narrow below it, and then needs the limit to widen again.
        assert!(!rebuilt(&mut t, DEMOTE_BELOW - 1));
        assert!(!rebuilt(&mut t, DEMOTE_BELOW));
        assert!(!rebuilt(&mut t, NARROW_LIMIT - 1));
    }

    #[test]
    #[should_panic(expected = "needs a wide table")]
    fn a_narrow_table_refuses_an_index_it_cannot_hold() {
        let mut t = table_of(GroupKind::Regular, &[0, 3, 5]);
        t.insert(0, NARROW_LIMIT as u32 - 1);
    }

    #[test]
    fn inter_table_matches_the_reference_alias_table() {
        // Same buckets as `AliasTable` means the same group for the same
        // two RNG draws, for any weights.
        let mut rng = Pcg64::seed_from_u64(77);
        for case in 0..200 {
            let k = 1 + case % 20;
            let mut t = empty_table(k);
            for bit in 0..k {
                for idx in 0..rng.gen_range(0..6u32) {
                    t.insert(bit, idx);
                }
            }
            let decimal = if case % 3 == 0 {
                0.0
            } else {
                rng.gen::<f64>() * 3.0
            };
            t.rebuild_inter(decimal);
            let mut weights: Vec<f64> = t.views().map(|g| g.weight()).collect();
            weights.push(decimal);
            let Ok(reference) = AliasTable::new(&weights) else {
                assert!(!t.has_inter());
                continue;
            };
            assert!(t.has_inter());
            let mut a = Pcg64::seed_from_u64(case as u64);
            let mut b = a.clone();
            for _ in 0..500 {
                assert_eq!(t.sample_group(&mut a), reference.sample(&mut b));
            }
        }
    }

    #[test]
    fn decimal_group_insert_remove_sample() {
        let mut d = DecimalGroup::new();
        assert!(d.is_empty());
        d.insert(0, 0.54);
        d.insert(1, 0.26);
        d.insert(2, 0.20);
        assert_eq!(d.cardinality(), 3);
        assert!((d.weight() - 1.0).abs() < 1e-9);
        // Zero fractions are ignored.
        d.insert(3, 0.0);
        assert_eq!(d.cardinality(), 3);

        let mut rng = Pcg64::seed_from_u64(4);
        let mut counts = [0usize; 3];
        for _ in 0..60_000 {
            counts[d.sample(&mut rng).unwrap() as usize] += 1;
        }
        assert!((counts[0] as f64 / 60_000.0 - 0.54).abs() < 0.02);

        assert_eq!(d.remove(1), Some(0.26));
        assert_eq!(d.remove(1), None);
        assert_eq!(d.cardinality(), 2);
        assert!((d.weight() - 0.74).abs() < 1e-9);
    }

    #[test]
    fn decimal_group_remap() {
        let mut d = DecimalGroup::new();
        d.insert(5, 0.3);
        d.remap(5, 2);
        assert_eq!(d.remove(5), None);
        assert_eq!(d.remove(2), Some(0.3));
        assert!(d.is_empty());
        assert_eq!(d.weight(), 0.0);
    }

    #[test]
    fn decimal_group_empty_sample_is_none() {
        let d = DecimalGroup::new();
        let mut rng = Pcg64::seed_from_u64(5);
        assert_eq!(d.sample(&mut rng), None);
    }
}
