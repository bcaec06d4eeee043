//! Epoch-versioned adjacency-fingerprint provider (KnightKing-style static
//! caches for hot hubs).
//!
//! Sharded deployments attach a membership snapshot of a walker's previous
//! vertex to every forwarded second-order walker. Hubs dominate that
//! traffic — a power-law graph forwards the same few high-degree
//! fingerprints thousands of times per wave — so rebuilding the sorted
//! adjacency `Vec` per forward is the dominant allocation cost.
//! The provider removes it: the top-k owned vertices by degree get
//! their fingerprints built **once per engine generation** and held behind
//! `Arc`s (handing one out is a pointer clone), while cold vertices are
//! built on demand. A structural mutation of the engine's edge set (insert
//! or delete — reweights keep membership intact) invalidates only the
//! snapshots of the vertices it touched: the update paths know their
//! source-vertex sets, so untouched hubs keep serving `Arc` clones across
//! epochs and touched hot hubs are re-encoded in place
//! (`ContextProvider::invalidate_vertices`). The hot set itself is built
//! lazily on the first request, so workloads that never capture context
//! (first-order walks) never pay for it.
//!
//! The provider is owned by [`BingoEngine`](crate::BingoEngine) and used
//! through [`BingoEngine::context_fingerprint`](crate::BingoEngine::context_fingerprint).

use bingo_graph::VertexId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Activity counters of the engine's context provider (monotonic over the
/// engine's lifetime, not reset by invalidation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextProviderStats {
    /// Fingerprint requests served from the hot-hub set (`Arc` clone).
    pub hot_hits: u64,
    /// Fingerprint requests that built a cold vertex's snapshot on demand.
    pub cold_builds: u64,
    /// Times the hot set was built (once per engine: invalidation is
    /// scoped, so nothing ever flushes it).
    pub hot_rebuilds: u64,
    /// Hot snapshots evicted by a structural update of their vertex.
    pub scoped_evictions: u64,
    /// Hot snapshots re-encoded in place after a scoped eviction.
    pub hot_refreshes: u64,
}

/// Per-generation cache of hot-hub adjacency fingerprints.
///
/// Lookups go through `&self` so concurrent walkers holding a shared
/// engine lock can serve fingerprints; the hit/miss tallies are atomics
/// for the same reason. Installing the hot set or evicting from it still
/// requires `&mut` — sharded deployments do both under their exclusive
/// engine lock (see [`BingoEngine::warm_context`](crate::BingoEngine::warm_context)).
#[derive(Debug, Default)]
pub(crate) struct ContextProvider {
    /// Snapshots of the top-k owned vertices by degree, valid for the
    /// current engine generation.
    hot: HashMap<VertexId, Arc<Vec<VertexId>>>,
    /// Whether `hot` has been installed.
    built: bool,
    /// Atomic so `&self` lookups can tally; monotonic counters only, no
    /// ordering relationship with the fingerprints themselves.
    hot_hits: AtomicU64,
    /// Atomic for the same reason as `hot_hits`.
    cold_builds: AtomicU64,
    hot_rebuilds: u64,
    scoped_evictions: u64,
    hot_refreshes: u64,
}

impl Clone for ContextProvider {
    fn clone(&self) -> Self {
        ContextProvider {
            hot: self.hot.clone(),
            built: self.built,
            // relaxed-ok: monotonic stat counters; no ordering required.
            hot_hits: AtomicU64::new(self.hot_hits.load(Ordering::Relaxed)),
            // relaxed-ok: monotonic stat counters; no ordering required.
            cold_builds: AtomicU64::new(self.cold_builds.load(Ordering::Relaxed)),
            hot_rebuilds: self.hot_rebuilds,
            scoped_evictions: self.scoped_evictions,
            hot_refreshes: self.hot_refreshes,
        }
    }
}

impl ContextProvider {
    /// Drop only the snapshots of `touched` vertices,
    /// returning the ids that were actually hot. The rest of the hot set —
    /// whose adjacency the update did not change — stays valid, and `built`
    /// stays `true`, so untouched hubs keep serving `Arc` clones across
    /// structural epochs. Callers re-encode the returned ids in place
    /// ([`ContextProvider::refresh_hot`]) so touched hubs do not silently
    /// degrade to cold builds.
    pub(crate) fn invalidate_vertices(&mut self, touched: &[VertexId]) -> Vec<VertexId> {
        let mut evicted = Vec::new();
        for &v in touched {
            if self.hot.remove(&v).is_some() {
                evicted.push(v);
            }
        }
        self.scoped_evictions += evicted.len() as u64;
        evicted
    }

    /// Re-install a freshly encoded snapshot for a vertex evicted by
    /// [`ContextProvider::invalidate_vertices`].
    pub(crate) fn refresh_hot(&mut self, v: VertexId, fingerprint: Arc<Vec<VertexId>>) {
        self.hot.insert(v, fingerprint);
        self.hot_refreshes += 1;
    }

    pub(crate) fn is_built(&self) -> bool {
        self.built
    }

    /// Install the freshly built hot set.
    pub(crate) fn install_hot(&mut self, hot: HashMap<VertexId, Arc<Vec<VertexId>>>) {
        self.hot = hot;
        self.built = true;
        self.hot_rebuilds += 1;
    }

    /// Look up `v` in the hot set (counts a hit on success).
    pub(crate) fn get(&self, v: VertexId) -> Option<Arc<Vec<VertexId>>> {
        let fp = self.hot.get(&v).cloned();
        if fp.is_some() {
            // relaxed-ok: monotonic stat counter; no ordering required.
            self.hot_hits.fetch_add(1, Ordering::Relaxed);
        }
        fp
    }

    pub(crate) fn count_cold_build(&self) {
        // relaxed-ok: monotonic stat counter; no ordering required.
        self.cold_builds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ContextProviderStats {
        ContextProviderStats {
            // relaxed-ok: monotonic stat counter; no ordering required.
            hot_hits: self.hot_hits.load(Ordering::Relaxed),
            // relaxed-ok: monotonic stat counter; no ordering required.
            cold_builds: self.cold_builds.load(Ordering::Relaxed),
            hot_rebuilds: self.hot_rebuilds,
            scoped_evictions: self.scoped_evictions,
            hot_refreshes: self.hot_refreshes,
        }
    }
}
