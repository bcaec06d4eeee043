//! # bingo-graph
//!
//! Dynamic weighted graph substrate for the Bingo reproduction.
//!
//! The paper builds its sampling structures on top of Hornet-style dynamic
//! adjacency arrays on the GPU; this crate provides the CPU equivalent:
//!
//! * [`adjacency`] — per-vertex dynamic adjacency arrays with `O(1)`
//!   amortized append and `O(1)` swap-delete.
//! * [`DynamicGraph`] — the mutable weighted graph: edge insertion, deletion
//!   and bias updates, plus CSR snapshots for the static baselines.
//! * [`generators`] — R-MAT / Erdős–Rényi / preferential-attachment graph
//!   generators and the bias distributions used in the evaluation
//!   (uniform, Gaussian, power-law, degree-derived).
//! * [`updates`] — the paper's update-stream protocol (§6.1): edges are split
//!   into a base set A and a spare set B, and a stream of insertions,
//!   deletions or mixed events is drawn from them.
//! * [`datasets`] — scaled-down synthetic stand-ins for the five evaluation
//!   graphs (Amazon, Google, Citation, LiveJournal, Twitter).
//! * [`io`] — plain edge-list loading/saving so real datasets can be used
//!   when available.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod bias;
pub mod compaction;
pub mod csr;
pub mod datasets;
pub mod dynamic_graph;
pub mod generators;
pub mod io;
pub mod stats;
pub mod updates;

pub use adjacency::{AdjacencyList, Edge};
pub use bias::Bias;
pub use compaction::two_phase_delete_and_swap;
pub use csr::CsrGraph;
pub use datasets::{DatasetSpec, StandinDataset};
pub use dynamic_graph::DynamicGraph;
pub use generators::{BiasDistribution, GraphGenerator};
pub use updates::{UpdateBatch, UpdateEvent, UpdateKind, UpdateStreamBuilder};

/// Vertex identifier. The evaluation graphs fit comfortably in 32 bits.
pub type VertexId = u32;

/// Errors produced by graph construction and mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex id is outside the graph's vertex range.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// The requested edge does not exist.
    EdgeNotFound {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// An edge bias was invalid (negative, zero, NaN or infinite).
    InvalidBias {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// A parse error while loading a graph from text.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// An I/O error while loading or saving a graph.
    Io(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(f, "vertex {vertex} out of range ({num_vertices} vertices)"),
            GraphError::EdgeNotFound { src, dst } => write!(f, "edge ({src}, {dst}) not found"),
            GraphError::InvalidBias { src, dst } => {
                write!(f, "invalid bias for edge ({src}, {dst})")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
