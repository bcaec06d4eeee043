//! Golden bit-identity test for the per-vertex sampling space.
//!
//! The storage layout under `VertexSpace` may change; what it samples may
//! not. For a fixed seed this test drives an engine through streaming
//! inserts, deletes and bias rewrites, hub churn, a float-into-integer
//! insert (a λ change) and two `apply_batch` calls, then hashes 100 000
//! `sample_neighbor` draws plus DeepWalk(40) and node2vec(20) paths. The
//! two `*_baseline` constants below were recorded at commit 420444c (the
//! `Vec`-pair layout) and every later layout must reproduce them: same
//! member order inside every group, same Vose construction, same RNG draws
//! per sample. The rebuild and conversion counters are pinned next to the
//! hashes because the benchmark's `core.engine.*_per_event` rows are built
//! from them; the last test pins them on the benchmark's own `engine_batch`
//! inputs.
//!
//! The adaptive constants moved once, on purpose, when vertices of at most
//! 16 edges stopped keeping radix groups (PR 17): such a *direct* vertex
//! draws one number below its bias total where the factorized one drew an
//! alias bucket and a member, so the same seed walks other paths; it has no
//! alias table to rebuild and no groups to check or convert; and a vertex
//! crossing between the two representations is a full rebuild. What did not
//! move is the factorized path itself, which
//! `integer_biases_adaptive_every_vertex_factorized` holds to its
//! pre-change recording: the same script on a graph none of whose vertices
//! ever comes near the threshold, pinned at a0ff39f before the direct
//! representation existed. `integer_biases_adaptive`, `float_biases_adaptive`
//! and `engine_batch_stream_counters` were re-recorded only after that
//! fixture and both baselines reproduced their constants.

use bingo::graph::updates::UpdateKind;
use bingo::prelude::*;
use rand::Rng;

/// The frozen benchmark's input generator. The benchmark is a workspace of
/// its own, so its source file is the only way in; its three unit tests
/// ride along.
#[allow(dead_code)]
#[path = "../benchmark/src/inputs.rs"]
mod inputs;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn random_bias(float: bool, rng: &mut Pcg64) -> Bias {
    if float {
        Bias::from_float(rng.gen_range(0.05..40.0))
    } else {
        Bias::from_int(rng.gen_range(1..=4095u64))
    }
}

/// A random existing edge `(src, dst)`, or `None` when the draw lands on
/// an isolated vertex.
fn random_edge(engine: &BingoEngine, rng: &mut Pcg64) -> Option<(VertexId, VertexId)> {
    let src = rng.gen_range(0..engine.num_vertices()) as VertexId;
    let edges = engine.vertex_space(src).unwrap().adjacency().edges();
    if edges.is_empty() {
        return None;
    }
    Some((src, edges.dst(rng.gen_range(0..edges.len()))))
}

/// The graph a scenario starts from.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// R-MAT, 1 024 vertices, 12 edges each on average: mostly vertices of
    /// a handful of edges, a few hubs, some isolated ones.
    Skewed,
    /// Erdős–Rényi, 256 vertices, 80 edges each on average: no vertex is
    /// ever at or below [`DENSE_FLOOR`] edges, which the scenario asserts
    /// after every step.
    Dense,
}

/// Every vertex of a [`Shape::Dense`] scenario keeps more edges than this
/// (the degree at and below which an adaptive vertex is stored direct).
const DENSE_FLOOR: usize = 16;

fn assert_dense(shape: Shape, engine: &BingoEngine) {
    if shape == Shape::Dense {
        let min = (0..engine.num_vertices() as VertexId)
            .map(|v| engine.degree(v))
            .min();
        assert!(min > Some(DENSE_FLOOR), "a vertex fell to {min:?} edges");
    }
}

/// Hash of everything sampled after the update sequence, and the
/// `[inter_rebuilds, full_rebuilds, conversions, checks]` counters.
fn scenario(shape: Shape, float: bool, config: BingoConfig) -> (u64, [u64; 4]) {
    let mut rng = Pcg64::seed_from_u64(0xB1460 + u64::from(float));
    let bias = if float {
        BiasDistribution::UniformFloat { lo: 0.05, hi: 40.0 }
    } else {
        BiasDistribution::PowerLaw {
            alpha: 1.4,
            max: 4095,
        }
    };
    let mut graph = match shape {
        Shape::Skewed => GraphGenerator::RMat {
            scale: 10,
            avg_degree: 12,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        },
        Shape::Dense => GraphGenerator::ErdosRenyi {
            vertices: 256,
            edges: 256 * 80,
        },
    }
    .generate(bias, &mut rng);
    let stream =
        UpdateStreamBuilder::new(UpdateKind::Mixed, 1500).build(&mut graph, 3000, &mut rng);
    let n = graph.num_vertices();
    let mut engine = BingoEngine::build(&graph, config).unwrap();
    assert_dense(shape, &engine);

    // Streaming half: the stream's inserts and deletes, a bias rewrite
    // every seventh event.
    let events = stream.events();
    for (i, event) in events[..1500].iter().enumerate() {
        engine.apply_event(event).unwrap();
        if i % 7 == 0 {
            if let Some((src, dst)) = random_edge(&engine, &mut rng) {
                engine
                    .update_bias(src, dst, random_bias(float, &mut rng))
                    .unwrap();
            }
        }
        assert_dense(shape, &engine);
    }

    // Hub churn: grow the largest vertex, then delete from its middle, so
    // group storage outgrows what the build gave it and then shrinks.
    let hub = (0..n as VertexId)
        .max_by_key(|&v| engine.degree(v))
        .unwrap();
    for _ in 0..400 {
        let dst = rng.gen_range(0..n) as VertexId;
        engine
            .insert_edge(hub, dst, random_bias(float, &mut rng))
            .unwrap();
    }
    for _ in 0..300 {
        let edges = engine.vertex_space(hub).unwrap().adjacency().edges();
        let dst = edges.dst(rng.gen_range(0..edges.len()));
        engine.delete_edge(hub, dst).unwrap();
    }
    assert_dense(shape, &engine);

    // A float bias arriving at an all-integer vertex changes λ and rebuilds
    // the whole space; in the float scenario it is one more float.
    let (src, _) = std::iter::repeat_with(|| random_edge(&engine, &mut rng))
        .flatten()
        .next()
        .unwrap();
    engine
        .insert_edge(src, hub, Bias::from_float(0.625))
        .unwrap();

    // Batched half: two batches, each with bias rewrites mixed in; the
    // second also carries a float insert so a batch rebuilds from scratch.
    for (round, chunk) in events[1500..].chunks(750).enumerate() {
        let mut batch: Vec<UpdateEvent> = Vec::new();
        for (i, event) in chunk.iter().enumerate() {
            batch.push(*event);
            if i % 5 == 0 {
                if let Some((src, dst)) = random_edge(&engine, &mut rng) {
                    batch.push(UpdateEvent::UpdateBias {
                        src,
                        dst,
                        bias: random_bias(float, &mut rng),
                    });
                }
            }
        }
        if round == 1 {
            batch.push(UpdateEvent::Insert {
                src: (hub + 1) % n as VertexId,
                dst: hub,
                bias: Bias::from_float(2.375),
            });
        }
        engine.apply_batch(&UpdateBatch::new(batch));
        assert_dense(shape, &engine);
    }
    engine.check_invariants().unwrap();

    let mut hash = Fnv::new();
    let mut draw = Pcg64::seed_from_u64(0x5A17);
    for i in 0..100_000usize {
        let v = (i % n) as VertexId;
        hash.word(
            engine
                .sample_neighbor(v, &mut draw)
                .map_or(u64::MAX, u64::from),
        );
    }
    let all: Vec<VertexId> = (0..n as VertexId).collect();
    let deepwalk = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 40 });
    let node2vec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 20,
        p: 0.5,
        q: 2.0,
    });
    for spec in [deepwalk, node2vec] {
        for path in WalkEngine::new(99).run(&engine, &spec, &all).paths {
            hash.word(path.len() as u64);
            for v in path {
                hash.word(u64::from(v));
            }
        }
    }

    (hash.0, counters(&engine))
}

/// `[inter_rebuilds, full_rebuilds, conversions, checks]` of an engine, the
/// first two summed over its vertices the way the benchmark sums them.
fn counters(engine: &BingoEngine) -> [u64; 4] {
    let (mut inter, mut full) = (0, 0);
    for v in 0..engine.num_vertices() as VertexId {
        let space = engine.vertex_space(v).unwrap();
        inter += space.inter_rebuilds();
        full += space.full_rebuilds();
    }
    let conversions = engine.conversion_matrix();
    [
        inter,
        full,
        conversions.total_conversions(),
        conversions.checks,
    ]
}

fn check(name: &str, float: bool, config: BingoConfig, golden: (u64, [u64; 4])) {
    check_on(Shape::Skewed, name, float, config, golden);
}

fn check_on(shape: Shape, name: &str, float: bool, config: BingoConfig, golden: (u64, [u64; 4])) {
    let got = scenario(shape, float, config);
    assert_eq!(
        got, golden,
        "{name}: sampled paths or rebuild counters differ from the recorded layout \
         (got {:#018x}, {:?})",
        got.0, got.1
    );
}

#[test]
fn integer_biases_adaptive() {
    check(
        "integer/adaptive",
        false,
        BingoConfig::default(),
        (0xca64_0d58_30ac_37bf, [2402, 1033, 407, 25550]),
    );
}

#[test]
fn integer_biases_adaptive_every_vertex_factorized() {
    check_on(
        Shape::Dense,
        "integer/adaptive/dense",
        false,
        BingoConfig::default(),
        (0xd803_4a83_643f_4cb4, [3388, 258, 544, 36551]),
    );
}

#[test]
fn integer_biases_baseline() {
    check(
        "integer/baseline",
        false,
        BingoConfig::baseline(),
        (0xc634_7123_e006_1252, [4183, 1026, 1269, 33661]),
    );
}

#[test]
fn float_biases_adaptive() {
    check(
        "float/adaptive",
        true,
        BingoConfig::default(),
        (0xf890_93ac_77b8_8c42, [2360, 1032, 365, 18527]),
    );
}

#[test]
fn float_biases_baseline() {
    check(
        "float/baseline",
        true,
        BingoConfig::baseline(),
        (0x8a3b_336c_67c8_338a, [4235, 1048, 422, 25054]),
    );
}

/// The benchmark's `core.engine.{inter_rebuilds,full_rebuilds,conversions}_per_event`
/// rows divide these counters by the events of one batch, but of the batch
/// the wall clock lands on, so two commits of different speed report
/// different batches. Here the batches are fixed: the `engine_batch` graph
/// and update stream at seed 7, through 40 batches.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "2^18-vertex graph; CI runs this file with --release"
)]
fn engine_batch_stream_counters() {
    use inputs::{GraphShape, Inputs, UpdateMix, UpdateStream};
    let shape = GraphShape::LiveJournal {
        log2_vertices: 18,
        pairs_per_vertex: 10,
    };
    let inputs = Inputs::generate(shape, 64, 7);
    let mut engine = BingoEngine::build(&inputs.build_graph(), BingoConfig::default()).unwrap();
    let mix = UpdateMix {
        batch_events: 2_500,
        toward_hubs: false,
        bias_rewrites: true,
    };
    let mut stream = UpdateStream::new(&inputs, mix, 7);
    let mut touched = 0;
    for _ in 0..40 {
        touched += engine.apply_batch(&stream.next_batch()).touched_vertices;
    }
    assert_eq!(
        (counters(&engine), touched),
        ([85_492, 262_386, 7_072, 785_649], 92_606)
    );
}
