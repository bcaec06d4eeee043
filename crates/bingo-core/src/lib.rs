//! # bingo-core
//!
//! The core contribution of the Bingo paper: a radix-based bias
//! factorization sampling engine for dynamically changing weighted graphs.
//!
//! * [`radix`] — the bias decomposition `D(w)` and the group count `K`
//!   (§4.1, Equation 3).
//! * [`fixed`] — λ-amortized handling of floating-point biases (§4.3).
//! * [`group`] — radix groups with the adaptive representations of §5.1
//!   (dense / one-element / sparse / regular), the decimal group, and the
//!   per-vertex edge index (destination → neighbor index). The last and
//!   the listed groups' own `neighbor index → position` tables are one
//!   self-keyed probe table over arena words, used twice.
//! * [`vertex_space`] — the per-vertex sampling space. Above 16 edges it
//!   is the paper's two-stage one: inter-group alias table + intra-group
//!   uniform sampling, with `O(K)` streaming updates — locating the edge
//!   included — and batched updates that rebuild once per vertex (§4.2,
//!   §5.2). At 16 edges or fewer an adaptive vertex is *direct*: no
//!   groups, no index, one bounded pass per sample or lookup.
//! * [`engine`] — the whole-graph engine: streaming and parallel batched
//!   ingestion, `O(1)` neighbor sampling, memory and conversion accounting.
//! * [`context`] — the adjacency-fingerprint path: the sorted neighbor ids
//!   a serialized forward ships for a snapshot (the service keeps a clone
//!   of the owner's vertex space, not the ids).
//! * [`radix_base`] — the arbitrary-radix-base extension of §9.2.
//! * [`partition`] — the 1-D vertex → partition map (§9.1).
//!
//! ## Memory layout
//!
//! Group adaptation exists so that the groups cost an acceptable amount of
//! space next to the adjacency array. The engine owns the configuration,
//! the conversion matrix and the rebuild totals once — it passes the
//! configuration into every call that changes a space — and a vertex is a
//! 48-byte [`VertexSpace`]. Equation 9 picks a representation per group;
//! one level up, the space picks one per vertex. Under `adaptive: true` a
//! vertex of at most [`vertex_space::DIRECT_MAX_DEGREE`] = 16 edges is
//! *direct* — its adjacency array and a cached bias total, sampled by one
//! draw below the total and one pass over the edges — and only above that
//! *factorized*, with everything the radix groups need behind one pointer:
//! the group table, whose K headers are the tail of its own allocation, so
//! a sample reads the record, the table, one arena word and the adjacency
//! block — four dependent loads over two heap blocks and the adjacency. A
//! factorized vertex goes back to direct when deletes take it down to
//! [`vertex_space::DIRECT_DEMOTE_DEGREE`] = 8; both changes are one
//! rebuild from scratch, counted as such. The constants were set on the
//! benchmark: the direct sample's worst case, degree 16, is the
//! `core.vertex_space.sample_ns.deg16` row, which did not get slower, and
//! vertices of 1–16 edges held 41 of the 56 MiB of group headers below.
//!
//! ```text
//! BingoEngine
//!  └─ Vec<VertexSpace>                    48 B each, inline; built in place
//!      ├─ adjacency       6 B × slots     destination and bias per edge (8 or 12 B
//!      │                                  a slot when a bias needs it; shared with the graph)
//!      └─ group table     boxed,          only above 16 edges, or under `baseline()`
//!          │              72 B + 24 B × K fixed fields (λ, arena and edge-index handles),
//!          │                              then the K headers: kind, count, segment offset
//!          │                              and capacity, inter-group alias bucket
//!          ├─ group arena     2 B × words one arena per vertex (4 B words
//!          │                              from degree 2^16 − 1 on)
//!          │    [ members, table 2^0 | members, table 2^3 | edge index | hole | ... ]
//!          └─ decimal group   boxed       only for floating-point remainders
//! ```
//!
//! Builds count first and fill an exact-size arena; a segment that outgrows
//! its capacity is relocated to the arena's tail with a quarter again its
//! room, never shifted, and once holes and slack pass half the live words
//! the segments are laid out again inside the arena's own buffer, which
//! shrinks in place (see
//! [`group`]); the words each update moves are counted
//! ([`EngineStats::arena_words_moved`]). A probe table costs one and a
//! half words per entry it has room for: the edge index that much per edge, a listed group two and a
//! half words per member where a regular group used to keep a word per
//! *edge of the vertex* beside its list. On the 2^18-vertex, 5.24 M-edge
//! benchmark graph, in MiB (the adjacency is the graph's own blocks from
//! the fifth column on, and no longer the build's):
//!
//! | | `Vec` per group | one arena per vertex | 12-byte edges, `u16` arena words | direct vertices, 72-byte space | shared adjacency | probe tables | built in place, 48-byte space, headers in the table | 6-byte edges |
//! |---|---:|---:|---:|---:|---:|---:|---:|---:|
//! | inline structs | 116 | 32 | 32 | 18 | 18 | 18 | 12 | unchanged |
//! | group headers | 81 | 56 (alias buckets included) | 56 | 15 | 15 | 11.4 | 11.4 (in the tables) | unchanged |
//! | table fixed fields (boxes) | | | | 2.6 | 2.6 | 2.9 | 2.1 | unchanged |
//! | members + inverted / probe tables | 179 | 121 | 60.5 | 56.4 | 56.4 | 29.6 | 29.6 | unchanged |
//! | edge index | | | | | | 13.4 | 13.4 | unchanged |
//! | inter-group tables | 46 | in the headers | in the headers | in the headers | in the headers | in the headers | in the headers | in the headers |
//! | adjacency | 120 | 120 | 60 | 60 | shared | shared | shared | shared: 41.2 of blocks, 53.9 at 8 B a slot |
//! | allocator overhead | 128 | 30 | 35 | 19 | 18 | 17 | ≈ 0 | unchanged |
//! | allocations per factorized vertex | | | | 3 | 3 | 3 | 2 | 2 |
//! | RSS added by `build` | 680 | 359 | 244 | 172 | 110 | 93 | 67 | 59 (the graph's first read: 74 → 59) |
//!
//! The seventh column's 26 MiB are mostly not in the rows above it: the build
//! used to collect the spaces through per-chunk vectors and copy them into
//! the result, and the allocator kept the transient second array (the 17
//! of "overhead"); it now fills one exactly sized array in place. The last
//! column is the same probe on seed 7, the tree with compact (6-byte) slots
//! against its parent with narrow (8-byte) ones, both measured then: every
//! one of the 156 854 blocks is compact (the largest bias is 37 553), the
//! build's own RSS is 58 → 59 (it shares the blocks), the graph's 74 → 59,
//! [`MemoryReport::resident_bytes`] 123.1 → 110.5 and bytes per edge
//! 24.6 → 22.1.
//!
//! On the flat 400 000-vertex graph of the `service_deepwalk` benchmark,
//! where 398 337 vertices have 1–16 edges, the direct-vertex step takes the
//! live heap from 142 to 64 MiB (headers 50.4 → 0.2, inline structs 48.8 →
//! 27.5); its 1 516 factorized vertices hold 27 k edges between them, so the
//! probe tables change nothing there. The in-place build and the 48-byte
//! space do: the RSS the build adds goes from 58 to 19 MiB (inline structs
//! 27.5 → 18.3, and no second copy of them).
//!
//! [`MemoryReport::resident_bytes`] reports the live total;
//! [`MemoryReport::sampling_bytes`] keeps the paper's Figure 11 meaning,
//! with the edge indices ([`MemoryReport::index_bytes`]) counted in;
//! [`MemoryReport::direct_vertices`] counts the vertices it has no groups
//! to report for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod config;
pub mod context;
pub mod engine;
pub mod fixed;
pub mod group;
pub mod memory;
pub mod partition;
pub mod radix;
pub mod radix_base;
pub mod stats;
pub mod vertex_space;

pub use config::BingoConfig;
pub use context::ContextProviderStats;
pub use engine::{BatchOutcome, BingoEngine};
pub use group::{DecimalGroup, GroupKind, GroupView};
pub use memory::MemoryReport;
pub use stats::{ConversionMatrix, EngineStats};
pub use vertex_space::{VertexSpace, VertexUpdateOutcome};

use bingo_graph::VertexId;

/// Errors produced by the Bingo engine.
#[derive(Debug, Clone, PartialEq)]
pub enum BingoError {
    /// A vertex id is outside the engine's vertex range.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// Number of vertices the engine manages.
        num_vertices: usize,
    },
    /// A vertex range to build an engine over is reversed or runs past the
    /// graph's vertices.
    InvalidRange {
        /// The offending range.
        range: std::ops::Range<usize>,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// The requested edge does not exist.
    EdgeNotFound {
        /// Destination vertex of the missing edge.
        dst: VertexId,
    },
    /// A neighbor index is out of range for the vertex degree.
    NeighborIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The vertex degree.
        degree: usize,
    },
    /// An edge bias was invalid (non-positive, NaN or infinite).
    InvalidBias {
        /// Destination vertex of the offending edge.
        dst: VertexId,
    },
    /// An error bubbled up from the graph substrate.
    Graph(bingo_graph::GraphError),
}

impl std::fmt::Display for BingoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BingoError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(f, "vertex {vertex} out of range ({num_vertices} vertices)"),
            BingoError::InvalidRange {
                range,
                num_vertices,
            } if range.start > range.end => {
                write!(
                    f,
                    "vertex range {range:?} is reversed ({num_vertices} vertices)"
                )
            }
            BingoError::InvalidRange {
                range,
                num_vertices,
            } => write!(
                f,
                "vertex range {range:?} runs past {num_vertices} vertices"
            ),
            BingoError::EdgeNotFound { dst } => write!(f, "edge to {dst} not found"),
            BingoError::NeighborIndexOutOfRange { index, degree } => {
                write!(f, "neighbor index {index} out of range (degree {degree})")
            }
            BingoError::InvalidBias { dst } => write!(f, "invalid bias for edge to {dst}"),
            BingoError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for BingoError {}

impl From<bingo_graph::GraphError> for BingoError {
    fn from(e: bingo_graph::GraphError) -> Self {
        BingoError::Graph(e)
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, BingoError>;
