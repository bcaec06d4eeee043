//! The engine's adjacency-fingerprint path.
//!
//! A fingerprint is the sorted, deduplicated neighbor ids of one vertex
//! ([`VertexSpace::sorted_neighbors`](crate::VertexSpace::sorted_neighbors)),
//! encoded on demand. Sharded deployments keep none per forwarded vertex:
//! `bingo-service` snapshots a walker's previous vertex as a clone of the
//! owner's [`VertexSpace`](crate::VertexSpace) — two reference counts,
//! sharing the adjacency block and the group table copy-on-write — and
//! answers membership with
//! [`VertexSpace::has_edge`](crate::VertexSpace::has_edge). Fingerprints
//! are built for the body of a serialized forward, from the snapshot when
//! one ships, and by
//! [`BingoEngine::context_fingerprint_shared`](crate::BingoEngine::context_fingerprint_shared).
//!
//! The engine used to pre-build the fingerprints of its top-degree
//! vertices as well and re-encode them in place whenever a batch touched
//! them. Under hub churn that re-sorted the largest adjacency lists on
//! every batch whether or not anyone asked for them again: with the
//! pre-build off, `service_node2vec_wire` applied twice the update events
//! per second at the same steps per second (as recorded in CHANGES.md).

/// Activity counters of the engine's fingerprint path, as reported by
/// [`BingoEngine::context_provider_stats`](crate::BingoEngine::context_provider_stats).
/// The engine keeps no pre-built set and no tally, so both read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextProviderStats {
    /// Fingerprint requests served from a pre-built set.
    pub hot_hits: u64,
    /// Fingerprint requests that encoded the vertex's snapshot on demand.
    pub cold_builds: u64,
}
