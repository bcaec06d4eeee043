//! Integration tests for the adaptive group representation (§5.1), the
//! floating-point bias path (§4.3), and the arbitrary-radix-base extension
//! (§9.2) at whole-engine scale.

use bingo::core::radix_base::RadixBaseSpace;
use bingo::core::GroupKind;
use bingo::prelude::*;
use bingo::sampling::stats::{chi_square, chi_square_critical_999, normalize};
use bingo_graph::datasets::StandinDataset;
use bingo_graph::updates::UpdateKind;
use rand::Rng;

#[test]
fn adaptive_engine_uses_every_group_kind_on_skewed_graphs() {
    let mut rng = Pcg64::seed_from_u64(1);
    let graph = StandinDataset::LiveJournal.build(4_000, &mut rng);
    let engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let report = engine.memory_report();
    // On a skewed graph with degree-derived biases, all four representations
    // should appear somewhere.
    assert!(report.count_for(GroupKind::Dense) > 0);
    assert!(report.count_for(GroupKind::Regular) > 0);
    assert!(report.count_for(GroupKind::OneElement) > 0);
    assert!(report.count_for(GroupKind::Sparse) > 0);
    // And the adaptive memory must not exceed the all-regular baseline.
    let baseline = BingoEngine::build(&graph, BingoConfig::baseline()).unwrap();
    assert!(report.sampling_bytes() <= baseline.memory_report().sampling_bytes());
}

/// Every group of `engine` has the kind Equation 9 gives it at the paper's
/// α = 40 % and β = 10 %.
fn assert_every_group_is_classified(engine: &BingoEngine) {
    for v in 0..engine.num_vertices() as VertexId {
        let space = engine.vertex_space(v).unwrap();
        for g in space.groups() {
            assert_eq!(
                g.kind(),
                GroupKind::classify(g.cardinality(), space.degree()),
                "vertex {v}, group 2^{}",
                g.bit()
            );
        }
    }
}

#[test]
fn adaptive_thresholds_change_the_group_mix() {
    let mut rng = Pcg64::seed_from_u64(2);
    let graph = StandinDataset::Google.build(4_000, &mut rng);
    let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let baseline = BingoEngine::build(&graph, BingoConfig::baseline()).unwrap();
    // The thresholds are constants: what they classify dense, sparse or
    // one-element, the all-regular baseline keeps regular.
    assert_every_group_is_classified(&engine);
    let (report, baseline_report) = (engine.memory_report(), baseline.memory_report());
    for kind in [GroupKind::Dense, GroupKind::Sparse, GroupKind::OneElement] {
        assert!(report.count_for(kind) > 0, "{kind:?}");
        assert_eq!(baseline_report.count_for(kind), 0, "{kind:?}");
    }
    assert!(report.count_for(GroupKind::Regular) < baseline_report.count_for(GroupKind::Regular));
    // Sampling matches the biases on the hub.
    let v = (0..graph.num_vertices() as VertexId)
        .max_by_key(|&v| graph.degree(v))
        .unwrap();
    let adj = graph.neighbors(v).unwrap();
    let expected = normalize(
        &adj.edges()
            .iter()
            .map(|e| e.bias.value())
            .collect::<Vec<_>>(),
    );
    let mut rng = Pcg64::seed_from_u64(3);
    let mut counts = vec![0usize; adj.degree()];
    for _ in 0..100_000 {
        let dst = engine.sample_neighbor(v, &mut rng).unwrap();
        counts[adj.find(dst).unwrap()] += 1;
    }
    // Merge duplicate destinations (R-MAT stand-ins contain multi-edges).
    let mut merged: std::collections::BTreeMap<VertexId, (usize, f64)> = Default::default();
    for (i, e) in adj.iter() {
        let entry = merged.entry(e.dst).or_insert((0, 0.0));
        entry.0 += counts[i];
        entry.1 += expected[i];
    }
    let observed: Vec<usize> = merged.values().map(|&(c, _)| c).collect();
    let probs: Vec<f64> = merged.values().map(|&(_, p)| p).collect();
    let stat = chi_square(&observed, &probs);
    assert!(stat < chi_square_critical_999(observed.len() - 1) * 1.5);
    // Every streamed update reclassifies the groups it keeps.
    let n = graph.num_vertices() as u32;
    for i in 0..200u32 {
        let (src, dst) = (i % n, (i * 31 + 7) % n);
        if src != dst {
            engine
                .insert_edge(src, dst, Bias::from_int(u64::from(i % 63) + 1))
                .unwrap();
        }
    }
    engine.check_invariants().unwrap();
    assert_every_group_is_classified(&engine);
}

#[test]
fn float_bias_engine_handles_mixed_update_workloads() {
    let mut rng = Pcg64::seed_from_u64(4);
    // Start from an integer-bias graph — a skewed one, so that some vertices
    // are above the direct threshold and factorized — then convert to
    // fractional biases.
    let base = StandinDataset::LiveJournal.build(8_000, &mut rng);
    let mut graph = DynamicGraph::new(base.num_vertices());
    for (src, e) in base.edges() {
        let jitter: f64 = rng.gen();
        graph
            .insert_edge(src, e.dst, Bias::from_float(e.bias.value() + jitter))
            .unwrap();
    }
    let mut stream_graph = graph.clone();
    let stream =
        UpdateStreamBuilder::new(UpdateKind::Mixed, 1000).build(&mut stream_graph, 1200, &mut rng);
    let mut engine = BingoEngine::build(&stream_graph, BingoConfig::default()).unwrap();
    let outcome = engine.apply_batch(&stream);
    assert_eq!(outcome.inserted, stream.num_insertions());
    engine.check_invariants().unwrap();
    // λ must be in effect on every factorized vertex (fractional biases);
    // a direct vertex scales nothing.
    let spaces = (0..engine.num_vertices() as VertexId).map(|v| engine.vertex_space(v).unwrap());
    let (direct, factorized): (Vec<_>, Vec<_>) = spaces.partition(|s| s.is_direct());
    assert!(!direct.is_empty() && direct.iter().all(|s| s.lambda() == 1.0));
    assert!(!factorized.is_empty() && factorized.iter().all(|s| s.lambda() > 1.0));
    // Walks still run.
    let walks = WalkEngine::new(5).run_all_vertices(
        &engine,
        &WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 8 }),
    );
    assert_eq!(walks.num_walks(), engine.num_vertices());
}

#[test]
fn radix_base_space_agrees_with_binary_engine_distribution() {
    // The §9.2 extension must produce the same distribution as the binary
    // factorization for the same bias vector.
    let biases: Vec<u64> = vec![5, 4, 3, 17, 100, 63, 1, 255, 12];
    let expected = normalize(&biases.iter().map(|&b| b as f64).collect::<Vec<_>>());

    // Binary engine over a single vertex.
    let mut graph = DynamicGraph::new(biases.len() + 1);
    for (i, &b) in biases.iter().enumerate() {
        graph
            .insert_edge(0, (i + 1) as VertexId, Bias::from_int(b))
            .unwrap();
    }
    let engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let base4 = RadixBaseSpace::build(&biases, 4);

    let mut rng = Pcg64::seed_from_u64(6);
    let trials = 200_000;
    let mut engine_counts = vec![0usize; biases.len()];
    let mut base4_counts = vec![0usize; biases.len()];
    for _ in 0..trials {
        let dst = engine.sample_neighbor(0, &mut rng).unwrap();
        engine_counts[(dst - 1) as usize] += 1;
        base4_counts[base4.sample(&mut rng).unwrap()] += 1;
    }
    let critical = chi_square_critical_999(biases.len() - 1) * 1.5;
    assert!(chi_square(&engine_counts, &expected) < critical);
    assert!(chi_square(&base4_counts, &expected) < critical);
}
