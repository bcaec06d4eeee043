//! Built-in walk applications (§2.2, §6.1), the [`Walk`] every executor
//! runs, and the resumable walk cursor.
//!
//! * **Biased DeepWalk** — first-order walks of a fixed length; each step
//!   samples a neighbor proportionally to the edge bias.
//! * **node2vec** — second-order walks: the transition bias is additionally
//!   multiplied by `1/p`, `1` or `1/q` depending on the relation between the
//!   previous vertex and the candidate (Equation 1), applied by
//!   KnightKing-style rejection. A step draws until it accepts, which costs
//!   at most `s = max(p, 1, q) / min(p, 1, q)` draws in expectation; `s` is
//!   bounded by [`NODE2VEC_MAX_SPREAD`].
//! * **Personalized PageRank (PPR)** — walks terminate at every step with a
//!   fixed probability (1/80 in the evaluation, for an expected length of
//!   80).
//! * **Simple sampling** — unbiased fixed-length walks (the
//!   `random_walk_simple_sampling` kernel of §6).
//!
//! [`WalkSpec`] *is* the built-in model: a variant names an application
//! and its parameters, and [`WalkSpec::step`] runs one transition of it
//! through a single `match` that is generic over the sampler and RNG, so a
//! built-in step pays no dynamic dispatch. Applications outside the set
//! implement the open [`WalkModel`](crate::model::WalkModel) trait. Every
//! executor — a whole walk ([`WalkSpec::walk`]), one step at a time
//! ([`WalkCursor`]), a parallel pass ([`WalkEngine`](crate::WalkEngine)),
//! a [`WalkStore`](crate::WalkStore) or the sharded service — holds a
//! [`Walk`]: a spec or a shared custom model, so a custom model plugs in
//! everywhere a spec does.

use crate::model::{ContextRequirement, SharedWalkModel, Transition, WalkState};
use crate::TransitionSampler;
use bingo_graph::VertexId;
use rand::Rng;

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
    /// Return parameter `p` (the paper uses 0.5). Finite and positive,
    /// with `max(p, 1, q) / min(p, 1, q)` at most [`NODE2VEC_MAX_SPREAD`]:
    /// a step then costs at most that many draws in expectation.
    pub p: f64,
    /// In-out parameter `q` (the paper uses 2.0). Bounded with `p`; see
    /// [`Node2VecConfig::p`].
    pub q: f64,
}

impl Node2VecConfig {
    /// Whether `p` and `q` are finite and positive and their spread
    /// `s = max(p, 1, q) / min(p, 1, q)` is at most [`NODE2VEC_MAX_SPREAD`].
    /// `s` is the ratio of the largest factor of `1/p`, `1`, `1/q` to the
    /// smallest, so a rejection draw is accepted with probability at least
    /// `1/s` and a step costs at most `s` draws in expectation. The
    /// service, the gateway and the wire decoder refuse a spec that fails
    /// this; a step on one panics.
    pub fn has_valid_parameters(&self) -> bool {
        let (p, q) = (self.p, self.q);
        [p, q].iter().all(|x| x.is_finite() && *x > 0.0)
            && p.max(1.0).max(q) / p.min(1.0).min(q) <= NODE2VEC_MAX_SPREAD
    }
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

/// A built-in walk application and its parameters — the built-in model
/// itself: [`WalkSpec::step`] is its transition function.
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
    /// Unbounded for PPR with stop probability 0; see
    /// [`Walk::refresh_target`] for the clamped form.
    pub fn expected_length(&self) -> usize {
        match self {
            WalkSpec::Ppr(c) => (1.0 / c.stop_probability).round() as usize,
            _ => self.max_steps(),
        }
    }

    /// Hard (deterministic) cap on the number of steps a walk of this spec
    /// can take. Unlike [`expected_length`](WalkSpec::expected_length) this
    /// is always finite.
    pub fn max_steps(&self) -> usize {
        match *self {
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length })
            | WalkSpec::Node2Vec(Node2VecConfig { walk_length, .. })
            | WalkSpec::SimpleSampling(SimpleSamplingConfig { walk_length }) => walk_length,
            WalkSpec::Ppr(c) => c.max_length,
        }
    }

    /// What cross-shard state a forwarded walker of this spec needs:
    /// node2vec's distance factor reads the previous vertex's adjacency.
    pub fn required_context(&self) -> ContextRequirement {
        match self {
            WalkSpec::Node2Vec(_) => ContextRequirement::PreviousAdjacency,
            _ => ContextRequirement::None,
        }
    }

    /// Produce the next transition for a walker in `state` — the contract
    /// of [`WalkModel::step`](crate::model::WalkModel::step), with the
    /// sampler and RNG types kept static. A walker at its length cap
    /// terminates without drawing randomness.
    pub fn step<S, R>(&self, state: &WalkState, sampler: &S, rng: &mut R) -> Transition
    where
        S: TransitionSampler,
        R: Rng + ?Sized,
    {
        if state.steps_taken() >= self.max_steps() {
            return Transition::Terminate;
        }
        match *self {
            // Simple sampling is DeepWalk on unit biases: the same draw.
            WalkSpec::DeepWalk(_) | WalkSpec::SimpleSampling(_) => {}
            WalkSpec::Ppr(c) => {
                if rng.gen::<f64>() < c.stop_probability {
                    return Transition::Terminate;
                }
            }
            WalkSpec::Node2Vec(c) => {
                // The first step has no history: plain biased sampling.
                if let Some(prev) = state.prev() {
                    return node2vec_step(c, prev, state, sampler, rng);
                }
            }
        }
        match sampler.sample_neighbor(state.current(), rng) {
            Some(next) => Transition::Step(next),
            None => Transition::Terminate,
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
        S: TransitionSampler,
        R: Rng + ?Sized,
    {
        let mut cursor = WalkCursor::new(*self, start);
        while cursor.step(sampler, rng).is_some() {}
        cursor.into_path()
    }
}

/// The largest spread `max(p, 1, q) / min(p, 1, q)` a node2vec spec may
/// have ([`Node2VecConfig::has_valid_parameters`]). A rejection draw is
/// accepted with probability at least `1/s`, so a step costs at most
/// `s` draws in expectation and more than `40·s` with probability below
/// `e^-40`. Every `p` and `q` in `[1/64, 64]` pass. A constant, not a knob.
pub const NODE2VEC_MAX_SPREAD: f64 = 4096.0;

/// One node2vec transition after the first step. The factor `1/p`, `1` or
/// `1/q` is applied by rejection (KnightKing's approach, which the paper
/// adopts for second-order applications): sample from the static bias
/// distribution, accept with probability `f / max(f)`, and draw again
/// until a candidate is accepted. The accepted candidate is distributed
/// exactly as `w · f`. A draw is accepted with probability at least
/// `min(f) / max(f) = 1/s`, so a step costs at most
/// `s ≤ NODE2VEC_MAX_SPREAD` draws in expectation; the spread is asserted,
/// so a spec that skipped validation panics instead of spinning.
///
/// The distance factor is evaluated on the **directed out-adjacency of the
/// previous vertex** (`prev → candidate`), so a single membership
/// fingerprint of `prev` fully determines the factor — which is what lets
/// the sharded service forward node2vec walkers with a compact carried
/// context and still reproduce the single-engine transition distribution
/// exactly.
fn node2vec_step<S, R>(
    config: Node2VecConfig,
    prev: VertexId,
    state: &WalkState,
    sampler: &S,
    rng: &mut R,
) -> Transition
where
    S: TransitionSampler,
    R: Rng + ?Sized,
{
    assert!(
        config.has_valid_parameters(),
        "node2vec p = {}, q = {}: both must be finite and positive, with \
         max(p, 1, q) / min(p, 1, q) at most {NODE2VEC_MAX_SPREAD}",
        config.p,
        config.q
    );
    let inv_p = 1.0 / config.p;
    let inv_q = 1.0 / config.q;
    let max_factor = inv_p.max(1.0).max(inv_q);
    loop {
        let Some(candidate) = sampler.sample_neighbor(state.current(), rng) else {
            return Transition::Terminate;
        };
        let factor = if candidate == prev {
            inv_p
        } else if state.prev_adjacent(candidate, sampler) {
            1.0
        } else {
            inv_q
        };
        if rng.gen::<f64>() * max_factor < factor {
            return Transition::Step(candidate);
        }
    }
}

/// What an executor runs: a built-in [`WalkSpec`], stepped through its
/// generic `match`, or a shared custom
/// [`WalkModel`](crate::model::WalkModel), stepped through the
/// object-safe trait. Both convert into it, so every executor takes
/// either: `WalkEngine::new(seed).run(&engine, &spec, &starts)` or
/// `….run(&engine, &model, &starts)`.
#[derive(Debug, Clone)]
pub enum Walk {
    /// A built-in application.
    Builtin(WalkSpec),
    /// A user-defined model.
    Custom(SharedWalkModel),
}

impl From<WalkSpec> for Walk {
    fn from(spec: WalkSpec) -> Self {
        Walk::Builtin(spec)
    }
}

impl From<SharedWalkModel> for Walk {
    fn from(model: SharedWalkModel) -> Self {
        Walk::Custom(model)
    }
}

impl Walk {
    /// Short name used in reports.
    pub fn name(&self) -> &str {
        match self {
            Walk::Builtin(spec) => spec.name(),
            Walk::Custom(model) => model.name(),
        }
    }

    /// The built-in spec, `None` for a custom model.
    pub fn spec(&self) -> Option<&WalkSpec> {
        match self {
            Walk::Builtin(spec) => Some(spec),
            Walk::Custom(_) => None,
        }
    }

    /// Hard deterministic cap on the number of steps a walk can take.
    pub fn max_steps(&self) -> usize {
        match self {
            Walk::Builtin(spec) => spec.max_steps(),
            Walk::Custom(model) => model.max_steps(),
        }
    }

    /// The length a stored walk is re-extended to after an update (the
    /// [`WalkStore`](crate::WalkStore) refresh target): the expected
    /// length, clamped to the step cap — PPR's expected length is
    /// unbounded at stop probability 0.
    pub fn refresh_target(&self) -> usize {
        let expected = match self {
            Walk::Builtin(spec) => spec.expected_length(),
            Walk::Custom(model) => model.expected_length(),
        };
        expected.min(self.max_steps())
    }

    /// The cross-shard context a forwarded walker needs.
    pub fn required_context(&self) -> ContextRequirement {
        match self {
            Walk::Builtin(spec) => spec.required_context(),
            Walk::Custom(model) => model.required_context(),
        }
    }

    /// One transition: a built-in steps with the sampler and RNG types
    /// intact, a custom model through `&dyn StepSampler` and
    /// `&mut dyn RngCore`, which forwards every word to the same
    /// generator, so erasing the types changes no draw.
    pub fn step<S, R>(&self, state: &WalkState, sampler: &S, rng: &mut R) -> Transition
    where
        S: TransitionSampler,
        R: Rng + ?Sized,
    {
        match self {
            Walk::Builtin(spec) => spec.step(state, sampler, rng),
            Walk::Custom(model) => {
                // `&mut R` is itself a sized `RngCore`, so it erases even
                // when `R` is unsized.
                let mut rng = rng;
                model.step(state, sampler, &mut rng)
            }
        }
    }
}

/// Resumable, frontier-friendly walker state.
///
/// A `WalkCursor` replaces the walker-owned loop: the owner of the sampling
/// structure advances the walk one transition at a time with
/// [`WalkCursor::step`], and can stop, hand the cursor to another shard, or
/// interleave graph updates between any two steps. Built-in and custom
/// walks run through the same cursor, so the sharded walk service and the
/// single-machine walker engine share per-step logic.
#[derive(Debug, Clone)]
pub struct WalkCursor {
    walk: Walk,
    state: WalkState,
    path: Vec<VertexId>,
    done: bool,
}

impl WalkCursor {
    /// Create a cursor positioned at `start` running `walk` — a
    /// [`WalkSpec`] or a shared custom model.
    pub fn new(walk: impl Into<Walk>, start: VertexId) -> Self {
        let walk = walk.into();
        // Preallocation hint only: clamp so huge PPR max_length values
        // don't reserve memory walks will rarely use.
        let mut path = Vec::with_capacity(walk.refresh_target().min(4095) + 1);
        path.push(start);
        let state = WalkState::new(start);
        WalkCursor {
            walk,
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
    pub fn resume(walk: Walk, path: Vec<VertexId>) -> Option<Self> {
        let mut state = WalkState::new(*path.first()?);
        for &v in &path[1..] {
            state.advance(v);
        }
        debug_assert_eq!(Some(state.current()), path.last().copied());
        debug_assert_eq!(state.steps_taken(), path.len() - 1);
        Some(WalkCursor {
            walk,
            state,
            path,
            done: false,
        })
    }

    /// The walk this cursor is running.
    pub fn walk(&self) -> &Walk {
        &self.walk
    }

    /// The walker's model-visible state (current/previous vertex, carried
    /// context).
    pub fn state(&self) -> &WalkState {
        &self.state
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
        self.steps_taken() >= self.walk.max_steps()
    }

    /// The path visited so far, including the start vertex.
    pub fn path(&self) -> &[VertexId] {
        &self.path
    }

    /// Consume the cursor, returning the visited path.
    pub fn into_path(self) -> Vec<VertexId> {
        self.path
    }

    /// Advance the walk by one transition.
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
        S: TransitionSampler,
        R: Rng + ?Sized,
    {
        if self.done {
            return None;
        }
        match self.walk.step(&self.state, sampler, rng) {
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
        // PPR that never stops: an unbounded expectation, a finite cap,
        // and a refresh target clamped to the cap.
        let endless = Walk::from(WalkSpec::Ppr(PprConfig {
            stop_probability: 0.0,
            max_length: 25,
        }));
        assert_eq!(endless.spec().unwrap().expected_length(), usize::MAX);
        assert_eq!(endless.max_steps(), 25);
        assert_eq!(endless.refresh_target(), 25);
    }

    #[test]
    fn resume_rebuilds_mid_walk_cursor_state() {
        let walk = Walk::from(WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 10 }));
        assert!(
            WalkCursor::resume(walk.clone(), vec![]).is_none(),
            "an empty path is not a walker"
        );
        let fresh = WalkCursor::resume(walk.clone(), vec![3]).expect("single-vertex path");
        assert_eq!(fresh.current(), 3);
        assert_eq!(fresh.steps_taken(), 0);
        assert_eq!(fresh.state().prev(), None);
        assert!(!fresh.is_done());
        let mid = WalkCursor::resume(walk, vec![3, 1, 2]).expect("mid-walk path");
        assert_eq!(mid.current(), 2);
        assert_eq!(mid.state().prev(), Some(1));
        assert_eq!(mid.steps_taken(), 2);
        assert_eq!(mid.path(), &[3, 1, 2]);

        // A resumed cursor continues exactly like the original: same walk,
        // same state, same RNG stream → same next step.
        let engine = cyclic_engine();
        let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 6 });
        let mut original = WalkCursor::new(spec, 0);
        let mut rng = Pcg64::seed_from_u64(21);
        original.step(&engine, &mut rng);
        original.step(&engine, &mut rng);
        let mut resumed =
            WalkCursor::resume(spec.into(), original.path().to_vec()).expect("resume");
        let mut rng_a = Pcg64::seed_from_u64(99);
        let mut rng_b = rng_a.clone();
        assert_eq!(
            original.step(&engine, &mut rng_a),
            resumed.step(&engine, &mut rng_b)
        );
        assert_eq!(original.path(), resumed.path());
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
    fn node2vec_parameters_pass_up_to_the_spread_bound() {
        let config = |p: f64, q: f64| Node2VecConfig {
            walk_length: 80,
            p,
            q,
        };
        // Every corner of [1/64, 64]², the paper's (0.5, 2) and spreads of
        // exactly the bound from one side of 1.
        for (p, q) in [
            (1.0 / 64.0, 64.0),
            (64.0, 1.0 / 64.0),
            (1.0 / 64.0, 1.0 / 64.0),
            (64.0, 64.0),
            (0.5, 2.0),
            (NODE2VEC_MAX_SPREAD, 1.0),
            (1.0, 1.0 / NODE2VEC_MAX_SPREAD),
        ] {
            assert!(config(p, q).has_valid_parameters(), "p = {p}, q = {q}");
        }
        for (p, q) in [
            (1.0 / 64.0, 65.0),
            (1.0, NODE2VEC_MAX_SPREAD * 1.001),
            (1.0 / NODE2VEC_MAX_SPREAD, 1.001),
            (0.0, 1.0),
            (1.0, f64::NAN),
            (f64::INFINITY, 1.0),
        ] {
            assert!(!config(p, q).has_valid_parameters(), "p = {p}, q = {q}");
        }
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
            cursor.walk().required_context(),
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
        assert_eq!(*ctx.sorted_ids(), [1, 2]);
        // The next locally-sampled step drops the single-use snapshot.
        cursor.step(&engine, &mut rng).unwrap();
        assert!(cursor.state().carried_context().is_none());
    }
}
