//! Counters of the engine's adjacency-fingerprint path.
//!
//! A fingerprint is the sorted, deduplicated neighbor ids of one vertex
//! ([`VertexSpace::sorted_neighbors`](crate::VertexSpace::sorted_neighbors)),
//! encoded on demand. Sharded deployments no longer keep one per forwarded
//! vertex: `bingo-service` snapshots a walker's previous vertex as a clone
//! of the owner's [`VertexSpace`](crate::VertexSpace) — two reference
//! counts, sharing the adjacency block and the group table copy-on-write —
//! and answers membership with
//! [`VertexSpace::has_edge`](crate::VertexSpace::has_edge). The fingerprint
//! path now serves two callers only: the body of a serialized forward,
//! built from the snapshot when one ships, and the benchmark's micro
//! measurement through
//! [`BingoEngine::context_fingerprint_shared`](crate::BingoEngine::context_fingerprint_shared),
//! which these counters tally.
//!
//! The engine used to pre-build the fingerprints of its top-degree
//! vertices as well and re-encode them in place whenever a batch touched
//! them. Under hub churn that re-sorted the largest adjacency lists on
//! every batch whether or not anyone asked for them again: with the
//! pre-build off, `service_node2vec_wire` applied twice the update events
//! per second at the same steps per second (as recorded in CHANGES.md).

use std::sync::atomic::{AtomicU64, Ordering};

/// Activity counters of the engine's fingerprint path (monotonic over the
/// engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextProviderStats {
    /// Fingerprint requests served from a pre-built set. The engine keeps
    /// none, so this stays 0; the field remains for callers that compute a
    /// hit rate from it.
    pub hot_hits: u64,
    /// Fingerprint requests that encoded the vertex's snapshot on demand:
    /// all of them.
    pub cold_builds: u64,
}

/// The tally behind [`ContextProviderStats`]. Requests come through
/// `&self` — concurrent walkers hold the engine's read lock — so it is an
/// atomic, which is also why it is a type of its own: the engine derives
/// `Clone`.
#[derive(Debug, Default)]
pub(crate) struct ContextProvider {
    cold_builds: AtomicU64,
}

impl Clone for ContextProvider {
    fn clone(&self) -> Self {
        ContextProvider {
            cold_builds: AtomicU64::new(self.stats().cold_builds),
        }
    }
}

impl ContextProvider {
    pub(crate) fn count_cold_build(&self) {
        // relaxed-ok: monotonic stat counter; no ordering required.
        self.cold_builds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ContextProviderStats {
        ContextProviderStats {
            hot_hits: 0,
            // relaxed-ok: monotonic stat counter; no ordering required.
            cold_builds: self.cold_builds.load(Ordering::Relaxed),
        }
    }
}
