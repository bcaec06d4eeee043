//! End-to-end integration tests spanning every crate: graph generation,
//! update streams, the Bingo engine, the baselines, and the walk
//! applications working together.

use bingo::baselines::{FlowWalkerBaseline, GSamplerBaseline, KnightKingBaseline};
use bingo::prelude::*;
use bingo::service::TransportMode;
use bingo::walks::{
    DynamicWalkSystem, EvaluationWorkflow, IngestMode, PprConfig, SimpleSamplingConfig,
};
use bingo_graph::datasets::StandinDataset;
use bingo_graph::updates::UpdateKind;

fn test_graph(seed: u64, vertices: usize, edges: usize) -> DynamicGraph {
    let mut rng = Pcg64::seed_from_u64(seed);
    GraphGenerator::ErdosRenyi { vertices, edges }
        .generate(BiasDistribution::UniformInt { lo: 1, hi: 63 }, &mut rng)
}

#[test]
fn full_pipeline_generate_update_walk() {
    let mut rng = Pcg64::seed_from_u64(1);
    let mut graph = StandinDataset::Amazon.build(8_000, &mut rng);
    let stream = UpdateStreamBuilder::new(UpdateKind::Mixed, 500).build(&mut graph, 600, &mut rng);
    let batches = stream.chunks(200);

    let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let workflow = EvaluationWorkflow::new(
        WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 10 }),
        IngestMode::Batched,
    );
    let report = workflow.run(&mut engine, &batches);

    assert_eq!(report.rounds.len(), batches.len());
    assert!(report.total_updates() > 0);
    assert!(report.rounds.iter().all(|r| r.walk_steps > 0));
    engine.check_invariants().unwrap();
}

#[test]
fn streaming_and_batched_ingestion_reach_the_same_graph() {
    let mut rng = Pcg64::seed_from_u64(2);
    let mut graph = test_graph(2, 300, 4000);
    let stream =
        UpdateStreamBuilder::new(UpdateKind::Mixed, 1000).build(&mut graph, 1500, &mut rng);

    let mut streaming = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let mut batched = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    streaming.apply_streaming(&stream);
    batched.apply_batch(&stream);

    assert_eq!(streaming.num_edges(), batched.num_edges());
    for v in 0..streaming.num_vertices() as VertexId {
        assert_eq!(streaming.degree(v), batched.degree(v), "vertex {v}");
    }
    streaming.check_invariants().unwrap();
    batched.check_invariants().unwrap();
}

#[test]
fn every_system_survives_the_same_dynamic_workload() {
    let mut rng = Pcg64::seed_from_u64(3);
    let mut graph = test_graph(3, 200, 3000);
    let stream = UpdateStreamBuilder::new(UpdateKind::Mixed, 800).build(&mut graph, 800, &mut rng);
    let batches = stream.chunks(400);

    let spec = WalkSpec::Ppr(PprConfig {
        stop_probability: 0.1,
        max_length: 100,
    });
    let workflow = EvaluationWorkflow::new(spec, IngestMode::Batched);

    let mut bingo = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let mut kk = KnightKingBaseline::build(&graph);
    let mut gs = GSamplerBaseline::build(&graph);
    let mut fw = FlowWalkerBaseline::build(&graph);

    let reports = [
        workflow.run(&mut bingo, &batches),
        workflow.run(&mut kk, &batches),
        workflow.run(&mut gs, &batches),
        workflow.run(&mut fw, &batches),
    ];
    // All systems applied the same number of updates and produced walks.
    let applied: Vec<usize> = reports.iter().map(|r| r.total_updates()).collect();
    assert!(applied.iter().all(|&a| a == applied[0]), "{applied:?}");
    for report in &reports {
        assert!(report.memory_bytes > 0);
        assert!(report.rounds.iter().all(|r| r.walk_steps > 0));
    }
    // The final graphs agree on edge counts.
    assert_eq!(bingo.num_edges(), kk.graph().num_edges());
    assert_eq!(bingo.num_edges(), fw.graph().num_edges());
}

#[test]
fn bingo_memory_is_bounded_relative_to_baselines() {
    // Bingo trades memory for update speed (Table 1: O(d·K)); the adaptive
    // representation must keep that overhead within a small factor of the
    // alias-table baseline rather than the worst-case K×.
    let mut rng = Pcg64::seed_from_u64(4);
    let graph = StandinDataset::Google.build(4_000, &mut rng);
    let bingo = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let kk = KnightKingBaseline::build(&graph);
    let fw = FlowWalkerBaseline::build(&graph);
    let bingo_mem = DynamicWalkSystem::memory_bytes(&bingo);
    assert!(bingo_mem >= DynamicWalkSystem::memory_bytes(&fw));
    assert!(bingo_mem < 20 * DynamicWalkSystem::memory_bytes(&kk));
}

/// FNV-1a over every path's length and vertices.
fn path_hash(paths: &[Vec<VertexId>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let words = paths
        .iter()
        .flat_map(|p| std::iter::once(p.len() as u64).chain(p.iter().map(|&v| u64::from(v))));
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Path hashes of all four built-in walks through each executor: the
/// parallel `WalkEngine`, a hand-driven `WalkCursor` loop, and a 4-shard
/// service whose forwards cross the wire (checked equal to the same
/// service forwarding in process). Recorded before the built-ins moved
/// from four model structs into one `match` on `WalkSpec`; any change to
/// a built-in's draw order moves them.
#[test]
fn builtin_walks_are_pinned_through_every_executor() {
    const DEEPWALK: [u64; 3] = [
        0x7b6c_2d28_9838_e890,
        0x9e33_cd1d_9804_2147,
        0x208b_224d_d7ad_1a45,
    ];
    const PINNED: [(&str, [u64; 3]); 4] = [
        ("DeepWalk", DEEPWALK),
        // The same walk: one biased draw per step, on any bias.
        ("SimpleSampling", DEEPWALK),
        (
            "PPR",
            [
                0xfe12_24b5_26a2_5362,
                0x314b_57a3_31b8_fceb,
                0xc9f9_3978_39dc_fd32,
            ],
        ),
        (
            "node2vec",
            [
                0xbccb_9442_5719_b9ee,
                0xeacc_c15c_d303_6866,
                0x0f1e_c859_8951_b1ab,
            ],
        ),
    ];
    let graph = test_graph(6, 120, 1500);
    let engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let starts: Vec<VertexId> = (0..120).collect();
    let specs = [
        WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 20 }),
        WalkSpec::SimpleSampling(SimpleSamplingConfig { walk_length: 20 }),
        WalkSpec::Ppr(PprConfig {
            stop_probability: 0.1,
            max_length: 40,
        }),
        WalkSpec::Node2Vec(Node2VecConfig {
            walk_length: 20,
            p: 0.5,
            q: 2.0,
        }),
    ];
    let service_paths = |spec: WalkSpec, transport: TransportMode| {
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 4,
                seed: 61,
                transport,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let paths = service.wait(service.submit(spec, &starts).unwrap()).paths;
        let stats = service.shutdown();
        assert_eq!(stats.total_transport_fallbacks(), 0);
        paths
    };
    let mut observed = Vec::new();
    for spec in specs {
        let engine_paths = WalkEngine::new(41).run(&engine, &spec, &starts).paths;
        let cursor_paths: Vec<Vec<VertexId>> = starts
            .iter()
            .map(|&start| {
                let mut rng = Pcg64::seed_from_u64(51 ^ u64::from(start));
                let mut cursor = WalkCursor::new(spec, start);
                while cursor.step(&engine, &mut rng).is_some() {}
                cursor.into_path()
            })
            .collect();
        let wire_paths = service_paths(spec, TransportMode::Serialized);
        assert_eq!(
            wire_paths,
            service_paths(spec, TransportMode::InProcess),
            "{}: serialized forwards walk the in-process paths",
            spec.name()
        );
        observed.push((
            spec.name(),
            [
                path_hash(&engine_paths),
                path_hash(&cursor_paths),
                path_hash(&wire_paths),
            ],
        ));
    }
    assert_eq!(observed, PINNED);
}

#[test]
fn node2vec_runs_on_a_dynamic_graph_after_updates() {
    let graph = test_graph(5, 150, 2500);
    let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    // Apply a burst of streaming updates.
    for i in 0..200u32 {
        let src = i % 150;
        let dst = (i * 7 + 3) % 150;
        if src != dst {
            let _ = engine.insert_edge(src, dst, Bias::from_int(u64::from(i % 15) + 1));
        }
    }
    let walks = WalkEngine::new(9).run_all_vertices(
        &engine,
        &WalkSpec::Node2Vec(Node2VecConfig {
            walk_length: 15,
            p: 0.5,
            q: 2.0,
        }),
    );
    assert_eq!(walks.num_walks(), engine.num_vertices());
    // Every step must traverse an existing edge.
    for path in &walks.paths {
        for pair in path.windows(2) {
            assert!(engine.has_edge(pair[0], pair[1]), "invalid step {pair:?}");
        }
    }
}
