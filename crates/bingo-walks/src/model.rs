//! The pluggable walk-model API.
//!
//! Bingo's thesis is that radix-based bias factorization serves *arbitrary*
//! biased walk applications on dynamic graphs — so the walk semantics must
//! not be a closed set baked into the execution layers. [`WalkModel`] is
//! the open interface: a walk application is a small state machine that,
//! given the walker's [`WalkState`] and a sampling surface, produces one
//! [`Transition`] at a time.
//!
//! The built-in applications (DeepWalk, node2vec, PPR, simple sampling)
//! do not implement it: [`WalkSpec`](crate::WalkSpec) is their model, and
//! its one `match` steps them with the sampler and RNG types intact. Every
//! execution backend in this repository — [`WalkCursor`](crate::WalkCursor)
//! single-stepping, the parallel [`WalkEngine`](crate::WalkEngine),
//! [`WalkStore`](crate::WalkStore) generation, and the sharded
//! `bingo-service` — holds a [`Walk`](crate::Walk), either a spec or a
//! custom model, so a user-defined application plugs in wherever a spec
//! does without touching any execution code.
//!
//! The trait is **object-safe**: a custom model is shared as
//! `Arc<dyn WalkModel>` ([`SharedWalkModel`]) and steps through
//! `&dyn StepSampler` and `&mut dyn RngCore`.
//!
//! ## Cross-shard context
//!
//! Second-order models consult state beyond the current vertex: node2vec's
//! distance factor needs membership queries against the *previous* vertex's
//! adjacency, which in a sharded deployment may be owned by another shard.
//! A model declares this need through
//! [`WalkModel::required_context`]; the sharded service then captures a
//! compact membership snapshot of the previous vertex's adjacency on the
//! owning shard *before* forwarding the walker, and the model answers
//! membership queries from the carried snapshot via
//! [`WalkState::prev_adjacent`]. This removes the cross-shard edge-lookup
//! problem that previously forced the service to reject node2vec
//! submissions.
//!
//! ### Carried-context wire format
//!
//! A [`CarriedContext`] names the snapshotted vertex and answers
//! membership for its out-adjacency as it was at capture, so sharded and
//! single-engine runs answer membership queries *identically*. The owning
//! shard captures it as a clone of its [`bingo_core::VertexSpace`]
//! ([`CarriedContext::captured`]): two reference counts, with adjacency
//! block and group table shared copy-on-write, so a snapshot costs no copy
//! of the adjacency, and a membership query is one probe of the vertex's
//! edge index ([`bingo_core::VertexSpace::has_edge`]). Before the owner
//! next writes the vertex it releases its handle
//! ([`CarriedContext::release`]); a snapshot some walker still carries is
//! then frozen into its sorted ids, so the write happens in place and the
//! walker still answers as at capture. On the wire a snapshot is always
//! the sorted, deduplicated out-neighbor ids, built when a body ships; a
//! decoded body answers by binary search.
//!
//! All integers are **fixed-width little-endian**; nothing on the wire is
//! `usize` or otherwise platform-dependent. The codecs live in
//! [`crate::wire`]; [`CarriedContext::byte_len`] reports *exactly* the
//! number of bytes [`crate::wire::encode_context`] emits
//! ([`CONTEXT_ENVELOPE_BYTES`] = 9 of envelope plus the payload):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0 | 1 | wire version (always 1; a decoder rejects anything else) |
//! | 1 | 4 | snapshot vertex id (`u32` LE) |
//! | 5 | 4 | payload length in bytes (`u32` LE, `4 × entries`) |
//! | 9 | n | the sorted, strictly increasing neighbor ids, each a `u32` LE |
//!
//! Walker frames (the whole forwarded walker, version-prefixed the same
//! way), the walk section naming the walk a forwarded walker runs, and
//! the 16-byte snapshot *handle* that replaces a payload when the
//! receiver already caches the snapshot are specified in [`crate::wire`].
//!
//! ### Missing-context faults
//!
//! When a second-order model queries [`WalkState::prev_adjacent`] and no
//! valid snapshot is carried, the query falls back to the local sampler.
//! On a whole-graph sampler this is the correct answer; on a range-sharded
//! sampler that does **not** own the previous vertex it would silently
//! answer "no edge" and skew node2vec's distance factor. That condition is
//! a *capture fault* (the forwarding shard failed to attach context), so
//! `prev_adjacent` detects it via [`StepSampler::owns_vertex`] and counts
//! it ([`WalkState::take_context_misses`]); the sharded service drains the
//! counter into its per-shard `context_misses` statistic and
//! `debug_assert!`s that it stays zero, so a capture failure is loud in
//! tests instead of a quiet distribution skew.
//!
//! ## Writing a custom model
//!
//! A model not in the built-in set — a "temperature-biased" walk whose
//! termination probability rises as the walk cools — in a dozen lines:
//!
//! ```
//! use bingo_walks::model::{
//!     ContextRequirement, StepSampler, Transition, WalkModel, WalkState,
//! };
//! use bingo_walks::WalkCursor;
//! use bingo_core::{BingoConfig, BingoEngine};
//! use bingo_graph::{Bias, DynamicGraph};
//! use bingo_sampling::rng::Pcg64;
//! use rand::{Rng, RngCore, SeedableRng};
//! use std::sync::Arc;
//!
//! /// Terminate with probability `1 - exp(-steps / tau)`: early steps are
//! /// nearly always taken, late steps nearly never.
//! #[derive(Debug)]
//! struct TemperatureWalk {
//!     tau: f64,
//!     max_steps: usize,
//! }
//!
//! impl WalkModel for TemperatureWalk {
//!     fn name(&self) -> &str {
//!         "temperature"
//!     }
//!     fn expected_length(&self) -> usize {
//!         self.tau.ceil() as usize
//!     }
//!     fn max_steps(&self) -> usize {
//!         self.max_steps
//!     }
//!     fn required_context(&self) -> ContextRequirement {
//!         ContextRequirement::None // first-order: nothing to carry
//!     }
//!     fn step(
//!         &self,
//!         state: &WalkState,
//!         sampler: &dyn StepSampler,
//!         rng: &mut dyn RngCore,
//!     ) -> Transition {
//!         if state.steps_taken() >= self.max_steps {
//!             return Transition::Terminate;
//!         }
//!         let survive = (-(state.steps_taken() as f64) / self.tau).exp();
//!         if rng.gen::<f64>() >= survive {
//!             return Transition::Terminate;
//!         }
//!         match sampler.sample_neighbor_dyn(state.current(), rng) {
//!             Some(next) => Transition::Step(next),
//!             None => Transition::Terminate,
//!         }
//!     }
//! }
//!
//! // Drive it exactly like a built-in application.
//! let mut graph = DynamicGraph::new(8);
//! for v in 0..8u32 {
//!     graph.insert_edge(v, (v + 1) % 8, Bias::from_int(1)).unwrap();
//! }
//! let engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
//! let model: Arc<dyn WalkModel> = Arc::new(TemperatureWalk { tau: 4.0, max_steps: 32 });
//! let mut rng = Pcg64::seed_from_u64(7);
//! let mut cursor = WalkCursor::new(model, 0);
//! while cursor.step(&engine, &mut rng).is_some() {}
//! assert!(cursor.path().len() <= 33);
//! ```

use crate::TransitionSampler;
use bingo_core::VertexSpace;
use bingo_graph::VertexId;
use rand::RngCore;
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Cross-shard state a model needs alongside a forwarded walker.
///
/// Declared once per model through [`WalkModel::required_context`]; the
/// sharded service inspects it when a walker crosses an ownership boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextRequirement {
    /// The model only reads the walker's current vertex: nothing beyond the
    /// cursor itself has to travel with a forwarded walker.
    None,
    /// The model issues membership queries against the *previous* vertex's
    /// out-adjacency (second-order applications such as node2vec). The
    /// forwarding shard must attach a membership snapshot of the previous
    /// vertex ([`WalkState::carried_context`]) because the receiving shard
    /// does not own that vertex's edges.
    PreviousAdjacency,
}

/// The outcome of asking a model for one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Move the walker to this vertex.
    Step(VertexId),
    /// The walk is over (target length, dead end, or probabilistic stop).
    Terminate,
}

/// Bytes of the shared wire envelope: one version byte, the snapshot
/// vertex id, and the payload length (see the wire-format spec in the
/// module docs).
pub const CONTEXT_ENVELOPE_BYTES: usize =
    1 + std::mem::size_of::<VertexId>() + std::mem::size_of::<u32>();

/// A membership snapshot of one vertex's out-adjacency, captured by the
/// shard that owns it and carried with a forwarded walker. Cloning one is
/// a reference count. Two snapshots are equal when they name the same
/// vertex and the same neighbor set. See the module docs for the wire
/// format.
#[derive(Debug, Clone)]
pub struct CarriedContext {
    /// The vertex whose adjacency was snapshotted.
    pub vertex: VertexId,
    members: Members,
}

/// Where a [`CarriedContext`] answers membership from.
#[derive(Debug, Clone)]
enum Members {
    /// Sorted, deduplicated neighbor ids: a decoded wire body, or a
    /// context built with [`CarriedContext::exact`].
    Ids(Arc<Vec<VertexId>>),
    /// A capture of the owner's space, shared by every clone.
    Captured(Arc<Captured>),
}

/// A clone of the owner's vertex space until the owner releases it
/// ([`CarriedContext::release`]), and the sorted ids it has, built when
/// something first asks for them.
#[derive(Debug)]
struct Captured {
    /// Locked for the length of one query.
    state: Mutex<Capture>,
    /// How many distinct neighbors the snapshot has, once counted.
    distinct: OnceLock<u32>,
}

#[derive(Debug)]
enum Capture {
    /// Not released: the owner's space, and the sorted ids once a body
    /// was built, kept while another body may ship.
    Live {
        space: VertexSpace,
        body: Option<Arc<Vec<VertexId>>>,
    },
    /// Released while carried, before a body was built: the destinations
    /// the space had, sorted by the first query rather than under the
    /// owner's write guard.
    Frozen(Vec<VertexId>),
    /// Released, and sorted.
    Sorted(Arc<Vec<VertexId>>),
}

impl Captured {
    fn state(&self) -> MutexGuard<'_, Capture> {
        // Every write replaces the state whole, so a query that panicked
        // under the lock left nothing half done.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Capture {
    /// The sorted, deduplicated ids, built on first use.
    fn body(&mut self) -> &Arc<Vec<VertexId>> {
        if let Capture::Frozen(ids) = self {
            let mut ids = std::mem::take(ids);
            ids.sort_unstable();
            ids.dedup();
            *self = Capture::Sorted(Arc::new(ids));
        }
        match self {
            Capture::Live { space, body } => {
                body.get_or_insert_with(|| Arc::new(space.sorted_neighbors()))
            }
            Capture::Sorted(ids) => ids,
            Capture::Frozen(_) => unreachable!("sorted above"),
        }
    }
}

impl CarriedContext {
    /// Build a context from a sorted, deduplicated adjacency vector.
    pub fn exact(vertex: VertexId, adjacency: Vec<VertexId>) -> Self {
        CarriedContext {
            vertex,
            members: Members::Ids(Arc::new(adjacency)),
        }
    }

    /// Snapshot `vertex` as `space`, a clone of the owner's space: it
    /// shares the owner's adjacency block and group table copy-on-write
    /// and copies nothing. The owner must [`release`](Self::release) it
    /// before it next writes the vertex, or the write copies them.
    pub fn captured(vertex: VertexId, space: VertexSpace) -> Self {
        CarriedContext {
            vertex,
            members: Members::Captured(Arc::new(Captured {
                state: Mutex::new(Capture::Live { space, body: None }),
                distinct: OnceLock::new(),
            })),
        }
    }

    /// Give up the owner's handle on a captured snapshot, before the owner
    /// writes the vertex. If some clone still carries it — a walker in
    /// flight — the snapshot is frozen first: it keeps the sorted ids of a
    /// body it built, or else copies the space's destinations (`O(d)`, to
    /// be sorted by the first query), so the space it shared leaves every
    /// clone and the write happens in place. With no other clone nothing
    /// is kept.
    pub fn release(self) {
        if let Members::Captured(captured) = self.members {
            if Arc::strong_count(&captured) > 1 {
                let mut state = captured.state();
                let frozen = match &*state {
                    Capture::Live {
                        body: Some(ids), ..
                    } => Capture::Sorted(Arc::clone(ids)),
                    Capture::Live { space, body: None } => Capture::Frozen(space.destinations()),
                    Capture::Frozen(_) | Capture::Sorted(_) => return,
                };
                *state = frozen;
            }
        }
    }

    /// Take the sorted ids a captured snapshot built for its wire body
    /// while it still has the space to answer from: the owner calls it
    /// once no body of this snapshot will ship again, and frees what it
    /// returns where freeing holds up nobody.
    pub fn shed_body(&self) -> Option<Arc<Vec<VertexId>>> {
        match &self.members {
            Members::Captured(captured) => match &mut *captured.state() {
                Capture::Live { body, .. } => body.take(),
                _ => None,
            },
            Members::Ids(_) => None,
        }
    }

    /// Whether `candidate` is an out-neighbor of the snapshotted vertex:
    /// one probe of a captured space's edge index, or a binary search over
    /// sorted ids.
    pub fn contains(&self, candidate: VertexId) -> bool {
        let mut state = match &self.members {
            Members::Ids(ids) => return ids.binary_search(&candidate).is_ok(),
            Members::Captured(captured) => captured.state(),
        };
        match &mut *state {
            Capture::Live { space, .. } => space.has_edge(candidate),
            released => released.body().binary_search(&candidate).is_ok(),
        }
    }

    /// Number of distinct out-neighbors the snapshot holds: the entries of
    /// its wire body, which a captured space builds to count them.
    pub fn len(&self) -> usize {
        match &self.members {
            Members::Ids(ids) => ids.len(),
            Members::Captured(captured) => *captured
                .distinct
                .get_or_init(|| captured.state().body().len() as u32)
                as usize,
        }
    }

    /// Whether the snapshotted vertex has no out-neighbors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted, deduplicated out-neighbor ids: the wire body. A
    /// captured space sorts them when first asked (`O(d log d)`) and keeps
    /// them until [`shed_body`](Self::shed_body).
    pub fn sorted_ids(&self) -> Arc<Vec<VertexId>> {
        match &self.members {
            Members::Ids(ids) => Arc::clone(ids),
            Members::Captured(captured) => Arc::clone(captured.state().body()),
        }
    }

    /// Wire size of this context in bytes: envelope plus payload.
    pub fn byte_len(&self) -> usize {
        Self::exact_wire_len(self.len())
    }

    /// Wire size of a snapshot of `neighbors` entries — the per-forward
    /// baseline against which snapshot reuse and handle negotiation are
    /// accounted.
    pub fn exact_wire_len(neighbors: usize) -> usize {
        CONTEXT_ENVELOPE_BYTES + std::mem::size_of::<VertexId>() * neighbors
    }
}

impl PartialEq for CarriedContext {
    fn eq(&self, other: &Self) -> bool {
        self.vertex == other.vertex && self.sorted_ids() == other.sorted_ids()
    }
}

impl Eq for CarriedContext {}

/// Walker-private state visible to a [`WalkModel`] at every step.
///
/// The executing cursor owns and advances this state; models only read it.
/// It deliberately excludes the visited path — models that need history
/// beyond `prev` should not exist in a forwardable walker (the path lives
/// with the cursor, not on the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkState {
    current: VertexId,
    prev: Option<VertexId>,
    steps_taken: usize,
    carried: Option<CarriedContext>,
    /// Second-order membership queries that had to fall back to a sampler
    /// that does not own the previous vertex (capture faults; see the
    /// module docs). A `Cell` so the read-only model query surface can
    /// record the fault.
    context_misses: Cell<u64>,
}

impl WalkState {
    /// Fresh state positioned at `start` with no steps taken.
    pub fn new(start: VertexId) -> Self {
        WalkState {
            current: start,
            prev: None,
            steps_taken: 0,
            carried: None,
            context_misses: Cell::new(0),
        }
    }

    /// The walker's current vertex.
    #[inline]
    pub fn current(&self) -> VertexId {
        self.current
    }

    /// The vertex the walker stepped from, `None` before the first step.
    #[inline]
    pub fn prev(&self) -> Option<VertexId> {
        self.prev
    }

    /// Steps taken so far.
    #[inline]
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// The carried cross-shard context, if a forwarding shard attached one.
    pub fn carried_context(&self) -> Option<&CarriedContext> {
        self.carried.as_ref()
    }

    /// Whether the edge `prev → candidate` exists, answered from the
    /// carried membership snapshot when present (the sharded case — the
    /// local sampler does not own `prev`) and from `sampler` otherwise.
    ///
    /// Returns `false` when the walk has no previous vertex yet.
    ///
    /// When no valid snapshot is carried **and** the sampler does not own
    /// `prev` ([`StepSampler::owns_vertex`]), the fallback answer is
    /// unreliable — a range-sharded sampler always answers `false` for
    /// non-owned vertices. The condition is counted (drain it with
    /// [`WalkState::take_context_misses`]) instead of silently skewing the
    /// model's distribution.
    pub fn prev_adjacent<S: StepSampler + ?Sized>(&self, candidate: VertexId, sampler: &S) -> bool {
        let Some(prev) = self.prev else {
            return false;
        };
        if let Some(ctx) = &self.carried {
            if ctx.vertex == prev {
                return ctx.contains(candidate);
            }
        }
        if !sampler.owns_vertex(prev) {
            // Capture fault: the forwarding shard failed to attach (or
            // attached a mismatched) context. Record it loudly; the
            // degraded answer below keeps the walk alive in release.
            self.context_misses.set(self.context_misses.get() + 1);
        }
        sampler.has_edge(prev, candidate)
    }

    /// Capture faults recorded by [`WalkState::prev_adjacent`] since the
    /// last drain (see the module docs on missing-context faults).
    pub fn context_misses(&self) -> u64 {
        self.context_misses.get()
    }

    /// Read and reset the capture-fault counter. The sharded service calls
    /// this after every step and folds the count into its per-shard
    /// `context_misses` statistic.
    pub fn take_context_misses(&self) -> u64 {
        self.context_misses.take()
    }

    /// Record one taken transition: `prev ← current`, `current ← next`.
    /// Any carried context is dropped — after a locally-sampled step the
    /// previous vertex is owned by the stepping shard again.
    pub(crate) fn advance(&mut self, next: VertexId) {
        self.prev = Some(self.current);
        self.current = next;
        self.steps_taken += 1;
        self.carried = None;
    }

    /// Attach a forwarded-context snapshot (used by the sharded service
    /// right before handing the walker to another shard).
    pub(crate) fn set_carried(&mut self, ctx: CarriedContext) {
        self.carried = Some(ctx);
    }
}

/// Object-safe sampling surface handed to [`WalkModel::step`].
///
/// This is [`TransitionSampler`] with the generic RNG parameter erased so
/// that `dyn WalkModel` stays a valid type; every `TransitionSampler`
/// implements it automatically.
pub trait StepSampler {
    /// Number of vertices in the graph.
    fn num_vertices(&self) -> usize;

    /// Out-degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Sample one out-neighbor of `v` proportionally to the edge biases.
    fn sample_neighbor_dyn(&self, v: VertexId, rng: &mut dyn RngCore) -> Option<VertexId>;

    /// Whether the edge `(src, dst)` exists *in this sampler's view* — a
    /// range-sharded engine answers `false` for vertices it does not own,
    /// which is exactly why second-order models route membership through
    /// [`WalkState::prev_adjacent`] instead of calling this directly.
    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool;

    /// Whether this sampler owns `v`'s out-edges, i.e. whether
    /// [`StepSampler::has_edge`] answers authoritatively for `src == v`.
    /// Whole-graph samplers own everything; range-sharded engines own only
    /// their slice. [`WalkState::prev_adjacent`] uses this to distinguish
    /// a true "no edge" from a non-owning sampler's unconditional `false`.
    fn owns_vertex(&self, v: VertexId) -> bool;
}

impl<S: TransitionSampler> StepSampler for S {
    fn num_vertices(&self) -> usize {
        TransitionSampler::num_vertices(self)
    }

    fn degree(&self, v: VertexId) -> usize {
        TransitionSampler::degree(self, v)
    }

    #[inline]
    fn sample_neighbor_dyn(&self, v: VertexId, mut rng: &mut dyn RngCore) -> Option<VertexId> {
        TransitionSampler::sample_neighbor(self, v, &mut rng)
    }

    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        TransitionSampler::has_edge(self, src, dst)
    }

    fn owns_vertex(&self, v: VertexId) -> bool {
        TransitionSampler::owns_vertex(self, v)
    }
}

/// A pluggable walk application: a one-transition step function over the
/// walker state the executor keeps.
///
/// Implementations must be cheap to share (`Send + Sync`; backends clone
/// the [`SharedWalkModel`] per walker) and deterministic given the RNG stream:
/// all randomness must come from the `rng` argument, in a fixed draw order,
/// so a walk is reproducible for a seed regardless of which backend drives
/// it.
pub trait WalkModel: Send + Sync + std::fmt::Debug {
    /// Short human-readable application name used in reports.
    fn name(&self) -> &str;

    /// Expected (or exact) number of steps per walk, used for sizing.
    fn expected_length(&self) -> usize;

    /// Hard deterministic cap on the number of steps a walk can take.
    /// Unlike [`expected_length`](WalkModel::expected_length) this is
    /// always finite; schedulers use it to finish walkers without drawing
    /// randomness ([`WalkCursor::at_length_limit`](crate::WalkCursor::at_length_limit)).
    fn max_steps(&self) -> usize;

    /// What cross-shard state this model needs carried with a forwarded
    /// walker. Defaults to [`ContextRequirement::None`].
    fn required_context(&self) -> ContextRequirement {
        ContextRequirement::None
    }

    /// Produce the next transition for a walker in `state`.
    ///
    /// The executor applies a returned [`Transition::Step`] to the state
    /// (and the path); the model never mutates state itself. A model that
    /// has reached its termination condition must return
    /// [`Transition::Terminate`] *without* drawing randomness when the
    /// condition is deterministic (length caps), so that finished walks
    /// stay reproducible under schedulers that probe for completion.
    fn step(
        &self,
        state: &WalkState,
        sampler: &dyn StepSampler,
        rng: &mut dyn RngCore,
    ) -> Transition;
}

/// A shareable, type-erased custom walk model
/// ([`Walk::Custom`](crate::Walk::Custom)).
pub type SharedWalkModel = Arc<dyn WalkModel>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{DeepWalkConfig, Node2VecConfig, PprConfig, SimpleSamplingConfig};
    use crate::{Walk, WalkCursor, WalkSpec};
    use bingo_sampling::rng::Pcg64;
    use rand::{Rng, SeedableRng};

    /// A fixed fan-out sampler for exercising models without an engine.
    #[derive(Debug)]
    struct FanSampler {
        n: usize,
        edges: Vec<(VertexId, VertexId)>,
    }

    impl TransitionSampler for FanSampler {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn degree(&self, v: VertexId) -> usize {
            self.edges.iter().filter(|&&(s, _)| s == v).count()
        }
        fn sample_neighbor<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> Option<VertexId> {
            let out: Vec<VertexId> = self
                .edges
                .iter()
                .filter(|&&(s, _)| s == v)
                .map(|&(_, d)| d)
                .collect();
            if out.is_empty() {
                None
            } else {
                Some(out[rng.gen_range(0..out.len())])
            }
        }
        fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
            self.edges.contains(&(src, dst))
        }
        fn edge_bias(&self, src: VertexId, dst: VertexId) -> Option<f64> {
            TransitionSampler::has_edge(self, src, dst).then_some(1.0)
        }
    }

    fn fan() -> FanSampler {
        FanSampler {
            n: 5,
            edges: vec![(0, 1), (1, 2), (1, 0), (2, 3), (3, 4), (4, 0)],
        }
    }

    #[test]
    fn builtins_at_their_cap_terminate_without_drawing() {
        let state = WalkState::new(0);
        for spec in [
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 0 }),
            WalkSpec::SimpleSampling(SimpleSamplingConfig { walk_length: 0 }),
            WalkSpec::Node2Vec(Node2VecConfig {
                walk_length: 0,
                ..Node2VecConfig::default()
            }),
            WalkSpec::Ppr(PprConfig {
                stop_probability: 0.5,
                max_length: 0,
            }),
        ] {
            let mut rng = Pcg64::seed_from_u64(1);
            assert_eq!(
                spec.step(&state, &fan(), &mut rng),
                Transition::Terminate,
                "{}",
                spec.name()
            );
            assert_eq!(
                rng.to_raw_parts(),
                Pcg64::seed_from_u64(1).to_raw_parts(),
                "{} drew",
                spec.name()
            );
        }
    }

    #[test]
    fn state_advance_tracks_prev_and_drops_context() {
        let mut state = WalkState::new(3);
        state.set_carried(CarriedContext::exact(3, vec![1, 4]));
        assert!(state.carried_context().is_some());
        state.advance(4);
        assert_eq!(state.current(), 4);
        assert_eq!(state.prev(), Some(3));
        assert_eq!(state.steps_taken(), 1);
        assert!(
            state.carried_context().is_none(),
            "carried context is single-use"
        );
    }

    #[test]
    fn prev_adjacent_prefers_carried_snapshot_over_sampler() {
        let sampler = fan();
        let mut state = WalkState::new(1);
        state.advance(2); // prev = 1
                          // Without a snapshot the sampler answers: 1 → 0 exists.
        assert!(state.prev_adjacent(0, &sampler));
        assert!(!state.prev_adjacent(3, &sampler));
        // A snapshot claiming a different adjacency wins (the sharded case,
        // where the local sampler does not own prev and would answer false).
        state.set_carried(CarriedContext::exact(1, vec![3]));
        assert!(state.prev_adjacent(3, &sampler));
        assert!(!state.prev_adjacent(0, &sampler));
        assert_eq!(
            state.context_misses(),
            0,
            "an owning sampler or a valid snapshot never records a fault"
        );
    }

    /// A sampler standing in for a range-sharded engine: it owns nothing,
    /// so `has_edge` is never authoritative.
    #[derive(Debug)]
    struct DisownedSampler(FanSampler);

    impl TransitionSampler for DisownedSampler {
        fn num_vertices(&self) -> usize {
            self.0.n
        }
        fn degree(&self, v: VertexId) -> usize {
            TransitionSampler::degree(&self.0, v)
        }
        fn sample_neighbor<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> Option<VertexId> {
            self.0.sample_neighbor(v, rng)
        }
        fn has_edge(&self, _src: VertexId, _dst: VertexId) -> bool {
            false // a non-owning shard engine answers false unconditionally
        }
        fn edge_bias(&self, _src: VertexId, _dst: VertexId) -> Option<f64> {
            None
        }
        fn owns_vertex(&self, _v: VertexId) -> bool {
            false
        }
    }

    #[test]
    fn prev_adjacent_counts_misses_on_non_owning_sampler() {
        let sampler = DisownedSampler(fan());
        let mut state = WalkState::new(1);
        state.advance(2); // prev = 1, no carried context

        // The fallback still answers (degraded: false), but the capture
        // fault is recorded instead of silently passing as "no edge".
        assert!(!state.prev_adjacent(0, &sampler));
        assert_eq!(state.context_misses(), 1);
        assert!(!state.prev_adjacent(3, &sampler));
        assert_eq!(state.take_context_misses(), 2);
        assert_eq!(state.context_misses(), 0, "drain resets the counter");

        // With a valid carried snapshot no fault is recorded.
        state.set_carried(CarriedContext::exact(1, vec![3]));
        assert!(state.prev_adjacent(3, &sampler));
        assert_eq!(state.context_misses(), 0);

        // A *mismatched* snapshot (wrong vertex) is a fault again.
        state.set_carried(CarriedContext::exact(0, vec![3]));
        assert!(!state.prev_adjacent(3, &sampler));
        assert_eq!(state.context_misses(), 1);
    }

    #[test]
    fn only_node2vec_declares_previous_adjacency_context() {
        assert_eq!(
            WalkSpec::Node2Vec(Node2VecConfig::default()).required_context(),
            ContextRequirement::PreviousAdjacency
        );
        for spec in [
            WalkSpec::DeepWalk(DeepWalkConfig::default()),
            WalkSpec::Ppr(PprConfig::default()),
            WalkSpec::SimpleSampling(SimpleSamplingConfig::default()),
        ] {
            assert_eq!(spec.required_context(), ContextRequirement::None);
        }
    }

    #[test]
    fn a_custom_model_draws_what_the_builtin_draws() {
        /// DeepWalk written against the erased surface.
        #[derive(Debug)]
        struct ErasedDeepWalk(usize);

        impl WalkModel for ErasedDeepWalk {
            fn name(&self) -> &str {
                "erased"
            }
            fn expected_length(&self) -> usize {
                self.0
            }
            fn max_steps(&self) -> usize {
                self.0
            }
            fn step(
                &self,
                state: &WalkState,
                sampler: &dyn StepSampler,
                rng: &mut dyn RngCore,
            ) -> Transition {
                if state.steps_taken() >= self.0 {
                    return Transition::Terminate;
                }
                match sampler.sample_neighbor_dyn(state.current(), rng) {
                    Some(next) => Transition::Step(next),
                    None => Transition::Terminate,
                }
            }
        }

        // Step both through a cursor over the same fan sampler and seed:
        // same path, and the RNG left in the same state.
        let sampler = fan();
        let walk = |walk: Walk| {
            let mut rng = Pcg64::seed_from_u64(9);
            let mut cursor = WalkCursor::new(walk, 0);
            while cursor.step(&sampler, &mut rng).is_some() {}
            (cursor.into_path(), rng.to_raw_parts())
        };
        let custom = walk(Walk::Custom(Arc::new(ErasedDeepWalk(30))));
        assert_eq!(custom.0.len(), 31);
        assert_eq!(
            custom,
            walk(WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 30 }).into())
        );
    }

    #[test]
    fn carried_context_byte_len_counts_envelope_and_payload() {
        let ctx = CarriedContext::exact(7, vec![1, 2, 3]);
        assert_eq!(
            ctx.byte_len(),
            CONTEXT_ENVELOPE_BYTES + 3 * std::mem::size_of::<VertexId>()
        );
    }
}
