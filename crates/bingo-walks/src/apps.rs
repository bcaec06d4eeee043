//! Built-in walk applications (§2.2, §6.1) and the resumable walk cursor.
//!
//! * **Biased DeepWalk** — first-order walks of a fixed length; each step
//!   samples a neighbor proportionally to the edge bias.
//! * **node2vec** — second-order walks: the transition bias is additionally
//!   multiplied by `1/p`, `1` or `1/q` depending on the relation between the
//!   previous vertex and the candidate (Equation 1), applied by
//!   KnightKing-style rejection.
//! * **Personalized PageRank (PPR)** — walks terminate at every step with a
//!   fixed probability (1/80 in the evaluation, for an expected length of
//!   80).
//! * **Simple sampling** — unbiased fixed-length walks (the
//!   `random_walk_simple_sampling` kernel of §6).
//!
//! The walk *semantics* live in [`model`](crate::model) as
//! [`WalkModel`](crate::model::WalkModel) implementations; [`WalkSpec`] is
//! a thin, serializable constructor layer
//! that names a built-in model and its parameters. Execution — whether a
//! whole walk ([`WalkSpec::walk`]), one step at a time ([`WalkCursor`]), a
//! parallel pass ([`WalkEngine`](crate::WalkEngine)) or the sharded service
//! — always goes through the trait, so custom models plug in everywhere a
//! spec does.

use crate::model::{
    ContextRequirement, DeepWalkModel, Node2VecModel, PprModel, SharedWalkModel,
    SimpleSamplingModel, Transition, WalkState,
};
use crate::TransitionSampler;
use bingo_graph::VertexId;
use rand::{Rng, RngCore};
use std::sync::Arc;

/// Configuration of biased DeepWalk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepWalkConfig {
    /// Number of steps per walk (the paper uses 80).
    pub walk_length: usize,
}

impl Default for DeepWalkConfig {
    fn default() -> Self {
        DeepWalkConfig { walk_length: 80 }
    }
}

/// Configuration of node2vec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node2VecConfig {
    /// Number of steps per walk.
    pub walk_length: usize,
    /// Return parameter `p` (the paper uses 0.5).
    pub p: f64,
    /// In-out parameter `q` (the paper uses 2.0).
    pub q: f64,
}

impl Default for Node2VecConfig {
    fn default() -> Self {
        Node2VecConfig {
            walk_length: 80,
            p: 0.5,
            q: 2.0,
        }
    }
}

/// Configuration of personalized PageRank walks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PprConfig {
    /// Per-step termination probability (the paper uses 1/80).
    pub stop_probability: f64,
    /// Hard cap on the walk length to bound worst-case work.
    pub max_length: usize,
}

impl Default for PprConfig {
    fn default() -> Self {
        PprConfig {
            stop_probability: 1.0 / 80.0,
            max_length: 800,
        }
    }
}

/// Configuration of unbiased simple-sampling walks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpleSamplingConfig {
    /// Number of steps per walk.
    pub walk_length: usize,
}

impl Default for SimpleSamplingConfig {
    fn default() -> Self {
        SimpleSamplingConfig { walk_length: 80 }
    }
}

/// A fully-specified built-in walk application.
///
/// This is the constructor layer over the open [`WalkModel`] API: each
/// variant names a built-in model plus its parameters, and
/// [`WalkSpec::to_model`] instantiates it. Code that executes walks never
/// matches on this enum — it drives the model returned by `to_model`.
///
/// [`WalkModel`]: crate::model::WalkModel
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalkSpec {
    /// Biased DeepWalk.
    DeepWalk(DeepWalkConfig),
    /// node2vec second-order walks.
    Node2Vec(Node2VecConfig),
    /// Personalized PageRank walks.
    Ppr(PprConfig),
    /// Unbiased fixed-length walks.
    SimpleSampling(SimpleSamplingConfig),
}

impl WalkSpec {
    /// Instantiate the built-in [`WalkModel`](crate::model::WalkModel) this
    /// spec describes — the single place where the enum is interpreted.
    pub fn to_model(&self) -> SharedWalkModel {
        match *self {
            WalkSpec::DeepWalk(config) => Arc::new(DeepWalkModel { config }),
            WalkSpec::Node2Vec(config) => Arc::new(Node2VecModel { config }),
            WalkSpec::Ppr(config) => Arc::new(PprModel { config }),
            WalkSpec::SimpleSampling(config) => Arc::new(SimpleSamplingModel { config }),
        }
    }

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            WalkSpec::DeepWalk(_) => "DeepWalk",
            WalkSpec::Node2Vec(_) => "node2vec",
            WalkSpec::Ppr(_) => "PPR",
            WalkSpec::SimpleSampling(_) => "SimpleSampling",
        }
    }

    /// Expected (or exact) number of steps per walk, used for sizing.
    ///
    /// Allocation-free mirror of the model's
    /// [`expected_length`](crate::model::WalkModel::expected_length) (the
    /// `spec_names_match_model_names` test keeps the two in lock step).
    pub fn expected_length(&self) -> usize {
        match self {
            WalkSpec::DeepWalk(c) => c.walk_length,
            WalkSpec::Node2Vec(c) => c.walk_length,
            WalkSpec::Ppr(c) => (1.0 / c.stop_probability).round() as usize,
            WalkSpec::SimpleSampling(c) => c.walk_length,
        }
    }

    /// Hard (deterministic) cap on the number of steps a walk of this spec
    /// can take. Unlike [`expected_length`](WalkSpec::expected_length) this
    /// is always finite and is what sizing and refresh targets should be
    /// bounded by.
    pub fn max_steps(&self) -> usize {
        match self {
            WalkSpec::DeepWalk(c) => c.walk_length,
            WalkSpec::Node2Vec(c) => c.walk_length,
            WalkSpec::Ppr(c) => c.max_length,
            WalkSpec::SimpleSampling(c) => c.walk_length,
        }
    }

    /// Run one walk from `start` over `sampler`, returning the visited path
    /// (including the start vertex).
    ///
    /// Implemented by driving a [`WalkCursor`] to completion; callers that
    /// need to interleave walks with other work (the sharded walk service)
    /// drive the cursor step by step instead.
    pub fn walk<S, R>(&self, sampler: &S, start: VertexId, rng: &mut R) -> Vec<VertexId>
    where
        S: TransitionSampler + ?Sized,
        R: Rng + ?Sized,
    {
        let mut cursor = WalkCursor::new(*self, start);
        while cursor.step(sampler, rng).is_some() {}
        cursor.into_path()
    }
}

/// Resumable, frontier-friendly walker state.
///
/// A `WalkCursor` replaces the walker-owned loop: the owner of the sampling
/// structure advances the walk one transition at a time with
/// [`WalkCursor::step`], and can stop, hand the cursor to another shard, or
/// interleave graph updates between any two steps. Every application —
/// built-in or user-defined — runs through the same cursor by implementing
/// [`WalkModel`](crate::model::WalkModel), so the sharded walk service and
/// the single-machine walker engine share per-step logic.
#[derive(Debug, Clone)]
pub struct WalkCursor {
    model: SharedWalkModel,
    state: WalkState,
    path: Vec<VertexId>,
    done: bool,
}

impl WalkCursor {
    /// Create a cursor positioned at `start` running a built-in spec.
    pub fn new(spec: WalkSpec, start: VertexId) -> Self {
        Self::with_model(spec.to_model(), start)
    }

    /// Create a cursor positioned at `start` running an arbitrary model.
    pub fn with_model(model: SharedWalkModel, start: VertexId) -> Self {
        // Preallocation hint only: clamp so huge PPR max_length values
        // don't reserve memory walks will rarely use.
        let mut path =
            Vec::with_capacity(model.expected_length().min(model.max_steps()).min(4095) + 1);
        path.push(start);
        let state = model.init(start);
        WalkCursor {
            model,
            state,
            path,
            done: false,
        }
    }

    /// Rebuild a mid-walk cursor from a previously visited path — the
    /// receiving side of a serialized cross-shard hop. The walker resumes
    /// at the last path vertex with the second-to-last as its previous
    /// vertex and `path.len() - 1` steps taken, exactly the state an
    /// in-process forward would have handed over. Returns `None` when
    /// `path` is empty (a walker always has at least its start vertex).
    ///
    /// Forwarded walkers are never done (a shard finishes a walker locally
    /// rather than forwarding it), so the rebuilt cursor is live.
    pub fn resume(model: SharedWalkModel, path: Vec<VertexId>) -> Option<Self> {
        let mut state = model.init(*path.first()?);
        for &v in &path[1..] {
            state.advance(v);
        }
        debug_assert_eq!(Some(state.current()), path.last().copied());
        debug_assert_eq!(state.steps_taken(), path.len() - 1);
        Some(WalkCursor {
            model,
            state,
            path,
            done: false,
        })
    }

    /// The model this cursor is running.
    pub fn model(&self) -> &SharedWalkModel {
        &self.model
    }

    /// The cross-shard context the model needs with a forwarded walker.
    pub fn required_context(&self) -> ContextRequirement {
        self.model.required_context()
    }

    /// The walker's model-visible state (current/previous vertex, carried
    /// context).
    pub fn state(&self) -> &WalkState {
        &self.state
    }

    /// Drain the state's missing-context fault counter (see
    /// [`WalkState::take_context_misses`]).
    pub fn take_context_misses(&self) -> u64 {
        self.state.take_context_misses()
    }

    /// Attach a forwarded-context membership snapshot of the previous
    /// vertex's out-adjacency, captured by the shard that owns it. Returns
    /// `false` (and attaches nothing) when the walk has no previous vertex
    /// yet or when the snapshot describes a different vertex — attaching a
    /// mismatched snapshot would only surface later as a membership fault.
    pub fn set_forward_context(&mut self, context: crate::model::CarriedContext) -> bool {
        if self.state.prev() != Some(context.vertex) {
            return false;
        }
        self.state.set_carried(context);
        true
    }

    /// The walker's current vertex (the last vertex of the path).
    #[inline]
    pub fn current(&self) -> VertexId {
        self.state.current()
    }

    /// Number of steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.state.steps_taken()
    }

    /// Whether the walk has terminated (dead end, target length, or
    /// probabilistic stop).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether the cursor has reached its deterministic length limit, so
    /// the next [`WalkCursor::step`] returns `None` without sampling. This
    /// is ownership-independent: a sharded scheduler uses it to finish a
    /// walker locally instead of forwarding it for a no-op step.
    /// (Probabilistic stops — PPR — are not covered: those require drawing
    /// randomness.)
    pub fn at_length_limit(&self) -> bool {
        self.steps_taken() >= self.model.max_steps()
    }

    /// The path visited so far, including the start vertex.
    pub fn path(&self) -> &[VertexId] {
        &self.path
    }

    /// Consume the cursor, returning the visited path.
    pub fn into_path(self) -> Vec<VertexId> {
        self.path
    }

    /// Advance the walk by one transition produced by the model.
    ///
    /// Returns the vertex stepped to, or `None` once the walk has
    /// terminated (after which the cursor is [`done`](WalkCursor::is_done)
    /// and further calls keep returning `None` without drawing randomness).
    ///
    /// `sampler` must own the out-edges of [`current`](WalkCursor::current);
    /// in a sharded deployment the caller routes the cursor to the owning
    /// shard before stepping.
    pub fn step<S, R>(&mut self, sampler: &S, rng: &mut R) -> Option<VertexId>
    where
        S: TransitionSampler + ?Sized,
        R: Rng + ?Sized,
    {
        if self.done {
            return None;
        }
        // Erase the generics at the trait boundary: `&mut R` is itself an
        // RngCore (and Sized), so it coerces to `&mut dyn RngCore` even
        // when `R` is unsized; `SamplerBridge` does the same for `S`.
        let mut reborrow: &mut R = rng;
        let dyn_rng: &mut dyn RngCore = &mut reborrow;
        let bridge = crate::model::SamplerBridge(sampler);
        match self.model.step(&self.state, &bridge, dyn_rng) {
            Transition::Step(next) => {
                self.state.advance(next);
                self.path.push(next);
                Some(next)
            }
            Transition::Terminate => {
                self.done = true;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_core::{BingoConfig, BingoEngine};
    use bingo_graph::dynamic_graph::running_example;
    use bingo_graph::{Bias, DynamicGraph};
    use bingo_sampling::rng::Pcg64;
    use rand::SeedableRng;

    fn engine() -> BingoEngine {
        BingoEngine::build(&running_example(), BingoConfig::default()).unwrap()
    }

    /// A small strongly-connected weighted graph (triangle plus chords) so
    /// fixed-length walks never hit a dead end.
    fn cyclic_engine() -> BingoEngine {
        let mut g = DynamicGraph::new(4);
        let edges = [
            (0, 1, 1),
            (0, 2, 3),
            (1, 2, 2),
            (1, 0, 1),
            (2, 3, 5),
            (2, 0, 1),
            (3, 0, 1),
            (3, 1, 4),
        ];
        for (s, d, w) in edges {
            g.insert_edge(s, d, Bias::from_int(w)).unwrap();
        }
        BingoEngine::build(&g, BingoConfig::default()).unwrap()
    }

    #[test]
    fn walk_spec_names_and_lengths() {
        assert_eq!(
            WalkSpec::DeepWalk(DeepWalkConfig::default()).name(),
            "DeepWalk"
        );
        assert_eq!(
            WalkSpec::Node2Vec(Node2VecConfig::default()).name(),
            "node2vec"
        );
        assert_eq!(WalkSpec::Ppr(PprConfig::default()).name(), "PPR");
        assert_eq!(
            WalkSpec::SimpleSampling(SimpleSamplingConfig::default()).name(),
            "SimpleSampling"
        );
        assert_eq!(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 80 }).expected_length(),
            80
        );
        assert_eq!(WalkSpec::Ppr(PprConfig::default()).expected_length(), 80);
    }

    #[test]
    fn resume_rebuilds_mid_walk_cursor_state() {
        let model = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 10 }).to_model();
        assert!(
            WalkCursor::resume(model.clone(), vec![]).is_none(),
            "an empty path is not a walker"
        );
        let fresh = WalkCursor::resume(model.clone(), vec![3]).expect("single-vertex path");
        assert_eq!(fresh.current(), 3);
        assert_eq!(fresh.steps_taken(), 0);
        assert_eq!(fresh.state().prev(), None);
        assert!(!fresh.is_done());
        let mid = WalkCursor::resume(model, vec![3, 1, 2]).expect("mid-walk path");
        assert_eq!(mid.current(), 2);
        assert_eq!(mid.state().prev(), Some(1));
        assert_eq!(mid.steps_taken(), 2);
        assert_eq!(mid.path(), &[3, 1, 2]);

        // A resumed cursor continues exactly like the original: same model,
        // same state, same RNG stream → same next step.
        let engine = cyclic_engine();
        let mut original =
            WalkCursor::new(WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 6 }), 0);
        let mut rng = Pcg64::seed_from_u64(21);
        original.step(&engine, &mut rng);
        original.step(&engine, &mut rng);
        let mut resumed = WalkCursor::resume(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 6 }).to_model(),
            original.path().to_vec(),
        )
        .expect("resume");
        let mut rng_a = Pcg64::seed_from_u64(99);
        let mut rng_b = rng_a.clone();
        assert_eq!(
            original.step(&engine, &mut rng_a),
            resumed.step(&engine, &mut rng_b)
        );
        assert_eq!(original.path(), resumed.path());
    }

    #[test]
    fn spec_names_match_model_names() {
        for spec in [
            WalkSpec::DeepWalk(DeepWalkConfig::default()),
            WalkSpec::Node2Vec(Node2VecConfig::default()),
            WalkSpec::Ppr(PprConfig::default()),
            WalkSpec::SimpleSampling(SimpleSamplingConfig::default()),
        ] {
            let model = spec.to_model();
            assert_eq!(spec.name(), model.name());
            assert_eq!(spec.expected_length(), model.expected_length());
            assert_eq!(spec.max_steps(), model.max_steps());
        }
    }

    #[test]
    fn fixed_length_walk_respects_length_and_edges() {
        let engine = cyclic_engine();
        let mut rng = Pcg64::seed_from_u64(1);
        let path =
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 40 }).walk(&engine, 0, &mut rng);
        assert_eq!(path.len(), 41);
        for pair in path.windows(2) {
            assert!(engine.has_edge(pair[0], pair[1]), "invalid step {pair:?}");
        }
    }

    #[test]
    fn walk_stops_at_dead_end() {
        let engine = engine();
        let mut rng = Pcg64::seed_from_u64(2);
        // Vertex 5 has no out-edges in the running example.
        let path =
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 10 }).walk(&engine, 5, &mut rng);
        assert_eq!(path, vec![5]);
    }

    #[test]
    fn node2vec_low_p_backtracks_more_than_high_p() {
        let engine = cyclic_engine();
        let count_backtracks = |p: f64, q: f64, seed: u64| {
            let spec = WalkSpec::Node2Vec(Node2VecConfig {
                walk_length: 60,
                p,
                q,
            });
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut backtracks = 0usize;
            for start in [0u32, 1, 2, 3] {
                for _ in 0..200 {
                    let path = spec.walk(&engine, start, &mut rng);
                    for w in path.windows(3) {
                        if w[0] == w[2] {
                            backtracks += 1;
                        }
                    }
                }
            }
            backtracks
        };
        let low_p = count_backtracks(0.1, 1.0, 7);
        let high_p = count_backtracks(10.0, 1.0, 7);
        assert!(
            low_p > high_p,
            "low p should backtrack more: {low_p} vs {high_p}"
        );
    }

    #[test]
    fn node2vec_walks_are_valid_paths() {
        let engine = cyclic_engine();
        let mut rng = Pcg64::seed_from_u64(9);
        let path = WalkSpec::Node2Vec(Node2VecConfig::default()).walk(&engine, 0, &mut rng);
        assert!(path.len() > 2);
        for pair in path.windows(2) {
            assert!(engine.has_edge(pair[0], pair[1]));
        }
    }

    #[test]
    fn ppr_walk_length_matches_expectation() {
        let engine = cyclic_engine();
        let spec = WalkSpec::Ppr(PprConfig {
            stop_probability: 0.1,
            max_length: 1000,
        });
        let mut rng = Pcg64::seed_from_u64(3);
        let mut total = 0usize;
        let n = 20_000;
        for _ in 0..n {
            total += spec.walk(&engine, 0, &mut rng).len() - 1;
        }
        let mean = total as f64 / n as f64;
        // Expected number of steps before termination is (1 - s) / s = 9.
        assert!((mean - 9.0).abs() < 0.3, "mean walk length {mean}");
    }

    #[test]
    fn ppr_walk_respects_max_length() {
        let engine = cyclic_engine();
        let spec = WalkSpec::Ppr(PprConfig {
            stop_probability: 0.0,
            max_length: 25,
        });
        let mut rng = Pcg64::seed_from_u64(4);
        let path = spec.walk(&engine, 0, &mut rng);
        assert_eq!(path.len(), 26);
    }

    #[test]
    fn cursor_stepping_matches_whole_walk_for_a_fixed_seed() {
        let engine = cyclic_engine();
        for spec in [
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 12 }),
            WalkSpec::SimpleSampling(SimpleSamplingConfig { walk_length: 12 }),
            WalkSpec::Node2Vec(Node2VecConfig {
                walk_length: 12,
                p: 0.5,
                q: 2.0,
            }),
            WalkSpec::Ppr(PprConfig {
                stop_probability: 0.05,
                max_length: 40,
            }),
        ] {
            let mut rng_walk = Pcg64::seed_from_u64(21);
            let whole = spec.walk(&engine, 0, &mut rng_walk);

            let mut rng_cursor = Pcg64::seed_from_u64(21);
            let mut cursor = WalkCursor::new(spec, 0);
            assert_eq!(cursor.current(), 0);
            assert_eq!(cursor.steps_taken(), 0);
            while let Some(next) = cursor.step(&engine, &mut rng_cursor) {
                assert_eq!(cursor.current(), next);
            }
            assert!(cursor.is_done());
            // Terminated cursors stay terminated without consuming entropy.
            assert_eq!(cursor.step(&engine, &mut rng_cursor), None);
            assert_eq!(cursor.path(), whole.as_slice(), "{}", spec.name());
            assert_eq!(cursor.into_path(), whole);
        }
    }

    #[test]
    fn boxed_model_walks_match_enum_spec_walks_step_for_step() {
        // Trait-object safety: a cursor over `Arc<dyn WalkModel>` built by
        // hand must reproduce the spec-built cursor exactly under the same
        // seed, for every built-in application.
        use crate::model::{DeepWalkModel, Node2VecModel, PprModel, SimpleSamplingModel};
        let engine = cyclic_engine();
        let cases: Vec<(WalkSpec, SharedWalkModel)> = vec![
            (
                WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 15 }),
                Arc::new(DeepWalkModel {
                    config: DeepWalkConfig { walk_length: 15 },
                }),
            ),
            (
                WalkSpec::Node2Vec(Node2VecConfig {
                    walk_length: 15,
                    p: 0.25,
                    q: 4.0,
                }),
                Arc::new(Node2VecModel {
                    config: Node2VecConfig {
                        walk_length: 15,
                        p: 0.25,
                        q: 4.0,
                    },
                }),
            ),
            (
                WalkSpec::Ppr(PprConfig {
                    stop_probability: 0.1,
                    max_length: 30,
                }),
                Arc::new(PprModel {
                    config: PprConfig {
                        stop_probability: 0.1,
                        max_length: 30,
                    },
                }),
            ),
            (
                WalkSpec::SimpleSampling(SimpleSamplingConfig { walk_length: 15 }),
                Arc::new(SimpleSamplingModel {
                    config: SimpleSamplingConfig { walk_length: 15 },
                }),
            ),
        ];
        for (spec, model) in cases {
            let mut rng_spec = Pcg64::seed_from_u64(0xB0);
            let mut rng_model = Pcg64::seed_from_u64(0xB0);
            let mut spec_cursor = WalkCursor::new(spec, 1);
            let mut model_cursor = WalkCursor::with_model(model, 1);
            loop {
                let a = spec_cursor.step(&engine, &mut rng_spec);
                let b = model_cursor.step(&engine, &mut rng_model);
                assert_eq!(a, b, "{} diverged", spec.name());
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(spec_cursor.path(), model_cursor.path());
        }
    }

    #[test]
    fn cursor_respects_walk_length_and_dead_ends() {
        let engine = engine();
        // Vertex 5 has no out-edges: the cursor terminates immediately.
        let mut rng = Pcg64::seed_from_u64(3);
        let mut cursor = WalkCursor::new(WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 4 }), 5);
        assert_eq!(cursor.step(&engine, &mut rng), None);
        assert!(cursor.is_done());
        assert_eq!(cursor.path(), &[5]);

        // A cyclic graph: exactly walk_length steps are taken.
        let engine = cyclic_engine();
        let mut cursor = WalkCursor::new(WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 4 }), 0);
        let mut steps = 0;
        while cursor.step(&engine, &mut rng).is_some() {
            steps += 1;
        }
        assert_eq!(steps, 4);
        assert_eq!(cursor.steps_taken(), 4);
        assert!(cursor.at_length_limit());
    }

    #[test]
    fn cursor_tracks_model_state_and_forward_context() {
        let engine = cyclic_engine();
        let mut rng = Pcg64::seed_from_u64(8);
        let mut cursor = WalkCursor::new(WalkSpec::Node2Vec(Node2VecConfig::default()), 0);
        assert_eq!(
            cursor.required_context(),
            ContextRequirement::PreviousAdjacency
        );
        use crate::model::CarriedContext;
        // No previous vertex yet: context cannot attach.
        assert!(!cursor.set_forward_context(CarriedContext::exact(0, vec![1, 2])));
        cursor.step(&engine, &mut rng).unwrap();
        // A snapshot for the wrong vertex is refused too.
        assert!(!cursor.set_forward_context(CarriedContext::exact(99, vec![1, 2])));
        assert!(cursor.set_forward_context(CarriedContext::exact(0, vec![1, 2])));
        let ctx = cursor.state().carried_context().unwrap();
        assert_eq!(ctx.vertex, 0);
        assert_eq!(*ctx.adjacency, [1, 2]);
        // The next locally-sampled step drops the single-use snapshot.
        cursor.step(&engine, &mut rng).unwrap();
        assert!(cursor.state().carried_context().is_none());
    }

    #[test]
    fn walk_spec_dispatches_to_the_right_application() {
        let engine = cyclic_engine();
        let mut rng = Pcg64::seed_from_u64(5);
        for spec in [
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 10 }),
            WalkSpec::Node2Vec(Node2VecConfig {
                walk_length: 10,
                p: 0.5,
                q: 2.0,
            }),
            WalkSpec::Ppr(PprConfig::default()),
            WalkSpec::SimpleSampling(SimpleSamplingConfig { walk_length: 10 }),
        ] {
            let path = spec.walk(&engine, 1, &mut rng);
            assert!(!path.is_empty());
            assert_eq!(path[0], 1);
        }
    }
}
