//! An engine holds the adjacency blocks of the graph it was built from; it
//! does not copy them.
//!
//! `AdjacencyList` is a copy-on-write block, and `BingoEngine::build_range`
//! takes each vertex's block from the graph by handle. This binary holds
//! that to the allocator's own count (its own binary, one test, for the
//! same reason as `memory_accounting.rs`): a build allocates no adjacency,
//! neither side ever sees the other's writes, sharing changes nothing that
//! is sampled, and once the graph is gone the blocks are edited in place.

mod common;

use bingo::core::vertex_space::VertexSpace;
use bingo::graph::updates::UpdateKind;
use bingo::prelude::*;
use bingo_graph::adjacency::{AdjacencyList, Edge};
use common::{calls, handed_out, live};
use rand::Rng;
use std::collections::HashSet;

const BIASES: BiasDistribution = BiasDistribution::PowerLaw {
    alpha: 1.6,
    max: 4096,
};
const SAMPLES: usize = 100_000;

/// R-MAT, 4 096 vertices, 10 edges each on average.
fn skewed(seed: u64) -> DynamicGraph {
    skewed_with(BIASES, seed)
}

fn skewed_with(biases: BiasDistribution, seed: u64) -> DynamicGraph {
    GraphGenerator::RMat {
        scale: 12,
        avg_degree: 10,
        a: 0.57,
        b: 0.19,
        c: 0.19,
    }
    .generate(biases, &mut Pcg64::seed_from_u64(seed))
}

/// Erdős–Rényi, 4 096 vertices, every degree near 8: no hubs, so a service
/// over it keeps next to nothing beside its engines.
fn flat(seed: u64) -> DynamicGraph {
    GraphGenerator::ErdosRenyi {
        vertices: 1 << 12,
        edges: 8 << 12,
    }
    .generate(BIASES, &mut Pcg64::seed_from_u64(seed))
}

/// Every `(src, edge)` of the graph, in order.
fn edges_of(graph: &DynamicGraph) -> Vec<(VertexId, Edge)> {
    graph.edges().map(|(src, edge)| (src, *edge)).collect()
}

fn engine_edges(engine: &BingoEngine) -> Vec<(VertexId, Edge)> {
    (0..engine.num_vertices() as VertexId)
        .flat_map(|v| {
            let edges = engine.vertex_space(v).unwrap().adjacency().edges();
            edges.iter().map(move |edge| (v, *edge))
        })
        .collect()
}

/// Takes 600 of the graph's edges out as the insertion pool and returns one
/// batch valid against what is left: 1 200 inserts and deletes in equal
/// parts, then a bias rewrite on 300 edges no delete names.
fn mixed_batch(graph: &mut DynamicGraph, rng: &mut Pcg64) -> UpdateBatch {
    let mut events = UpdateStreamBuilder::new(UpdateKind::Mixed, 600)
        .build(graph, 1200, rng)
        .into_events();
    let deleted: HashSet<(VertexId, VertexId)> = events
        .iter()
        .filter(|e| e.is_delete())
        .map(|e| match *e {
            UpdateEvent::Delete { src, dst } => (src, dst),
            _ => unreachable!("filtered to deletes"),
        })
        .collect();
    let candidates: Vec<(VertexId, VertexId)> = graph
        .edges()
        .map(|(src, edge)| (src, edge.dst))
        .filter(|pair| !deleted.contains(pair))
        .collect();
    for _ in 0..300 {
        let (src, dst) = candidates[rng.gen_range(0..candidates.len())];
        let bias = BIASES.sample(rng, 0);
        events.push(UpdateEvent::UpdateBias { src, dst, bias });
    }
    UpdateBatch::new(events)
}

fn samples(engine: &BingoEngine, seed: u64) -> Vec<Option<VertexId>> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let n = engine.num_vertices() as VertexId;
    (0..SAMPLES)
        .map(|_| engine.sample_neighbor(rng.gen_range(0..n), &mut rng))
        .collect()
}

// 2^18 vertices hold 12 MiB of these.
const _: () = assert!(std::mem::size_of::<VertexSpace>() <= 48);

/// What a build may cost beyond what it leaves behind. It hands out no
/// second copy of anything: the spaces are built into one array of exactly
/// their number (a collect through per-chunk `Vec`s handed the whole array
/// out twice), so the bytes it is handed are the bytes it leaves live, give
/// or take the pool's job lists. And a factorized vertex is
/// `calls_per_factorized` allocations: two on integer biases, the group
/// table — fixed fields and headers in one — and its arena, where headers
/// in a `Vec` of their own made it three; six on floating-point ones, where
/// the decimal group adds its box and three vectors, each at its final
/// size, and choosing λ copies nothing. A direct vertex is none.
fn a_build_hands_out_what_it_leaves_live(
    graph: &DynamicGraph,
    config: BingoConfig,
    calls_per_factorized: usize,
) {
    // A generated graph arrives still loading, and its first read builds
    // its adjacency blocks: read it here, so that they are not counted
    // against the engine's build below.
    let vertices = graph.num_vertices();
    let (live_before, out_before, calls_before) = (live(), handed_out(), calls());
    let engine = BingoEngine::build(graph, config).unwrap();
    let left = live() - live_before;
    let handed = handed_out() - out_before;
    let made = calls() - calls_before;
    let factorized = (0..vertices as VertexId)
        .filter(|&v| !engine.vertex_space(v).unwrap().is_direct())
        .count();
    eprintln!(
        "build: {handed} B handed out, {left} B left live, {made} calls, {factorized} factorized"
    );
    assert!(
        handed as f64 <= 1.05 * left as f64,
        "{handed} B handed out for {left} B left live"
    );
    // The array and the pool's bookkeeping for one parallel call.
    const FIXED_CALLS: usize = 8;
    assert!(
        made <= calls_per_factorized * factorized + FIXED_CALLS,
        "{made} allocator calls for {factorized} factorized vertices"
    );
}

/// Allocator calls made by `op`.
fn calls_of<T>(op: impl FnOnce() -> T) -> usize {
    let before = calls();
    op();
    calls() - before
}

/// A list of `degree` edges whose block has room for more.
fn list_with_room(degree: u32, capacity: usize) -> AdjacencyList {
    let mut list = AdjacencyList::with_capacity(capacity);
    for dst in 0..degree {
        list.push(Edge::new(dst, Bias::from_int(u64::from(dst % 255) + 1)));
    }
    list
}

/// The allocator calls of five streaming updates, each on its own: an
/// insert and a delete (on a factorized vertex these give the group arena
/// the headroom an exact-size build leaves out), the same again, and a bias
/// rewrite.
fn streaming_calls(space: &mut VertexSpace, config: &BingoConfig) -> [usize; 5] {
    let next = space.degree() as VertexId;
    let bias = Bias::from_int(7);
    let calls = [
        calls_of(|| space.insert(next, bias, config).unwrap()),
        calls_of(|| space.delete(next, config).unwrap()),
        calls_of(|| space.insert(next, bias, config).unwrap()),
        calls_of(|| space.delete(next, config).unwrap()),
        calls_of(|| space.update_bias(0, bias, config).unwrap()),
    ];
    space.check_invariants(config).unwrap();
    calls
}

#[test]
fn a_build_shares_the_graphs_blocks_and_neither_side_sees_the_others_writes() {
    if !common::counts_are_exact() {
        return;
    }
    let config = BingoConfig::default();
    let mut graph = skewed(20);
    let batch = mixed_batch(&mut graph, &mut Pcg64::seed_from_u64(21));
    let vertices = graph.num_vertices();
    // The first parallel build starts the worker pool, which keeps what it
    // allocates; so does the first service's `ensure_pool_workers`.
    drop(BingoEngine::build(&graph, config).unwrap());

    // (o) A build allocates once what it keeps: on a graph with hubs, on one
    // that is all direct vertices, with every vertex factorized, and on
    // floating-point biases. (Before the first service: what its threads
    // free as they wind down would be counted against the build.)
    a_build_hands_out_what_it_leaves_live(&graph, config, 2);
    a_build_hands_out_what_it_leaves_live(&flat(24), config, 2);
    a_build_hands_out_what_it_leaves_live(&graph, BingoConfig::baseline(), 2);
    let floats = BiasDistribution::UniformFloat { lo: 0.05, hi: 40.0 };
    a_build_hands_out_what_it_leaves_live(&skewed_with(floats, 26), config, 6);

    drop(WalkService::build(&graph, ServiceConfig::default()).unwrap());

    // (i) A build allocates no adjacency: what it allocates is the report
    // less the adjacency, and every block outlives the graph it came from
    // (a graph of its own, so nothing else holds its blocks).
    {
        let graph = skewed(25);
        let handles = graph.num_vertices() * std::mem::size_of::<AdjacencyList>();
        let blocks = graph.memory_bytes() - handles;
        let before = live();
        let engine = BingoEngine::build(&graph, config).unwrap();
        let allocated = live() - before;
        let report = engine.memory_report();
        assert_eq!(report.adjacency_bytes, blocks);
        assert_eq!(allocated, report.resident_bytes() - blocks);
        let before = live();
        drop(graph);
        assert_eq!(
            before - live(),
            handles,
            "dropping the graph frees no block"
        );
    }
    {
        let graph = flat(24);
        let handles = graph.num_vertices() * std::mem::size_of::<AdjacencyList>();
        let blocks = graph.memory_bytes() - handles;
        let service_config = ServiceConfig::default();
        assert_eq!(service_config.num_shards, 4);
        let before = live();
        let service = WalkService::build(&graph, service_config).unwrap();
        let allocated = live() - before;
        // The same four engines by hand: what they allocate, and the
        // smallest share of the adjacency any of them holds.
        let partitioner = service.partitioner();
        let (mut engines, mut smallest) = (0, usize::MAX);
        for shard in 0..4 {
            let (start, end) = partitioner.range(shard);
            let report = BingoEngine::build_range(&graph, start..end, service_config.engine)
                .unwrap()
                .memory_report();
            engines += report.resident_bytes() - report.adjacency_bytes;
            smallest = smallest.min(report.adjacency_bytes);
        }
        assert!(smallest * 5 > blocks, "every shard holds about a quarter");
        assert!(
            allocated < engines + smallest,
            "the service allocated {allocated} B for {engines} B of engines: had one shard \
             copied its blocks it would be {smallest} B more"
        );
        let before = live();
        drop(graph);
        assert_eq!(
            before - live(),
            handles,
            "dropping the graph frees no block"
        );
        service.shutdown();
    }

    // (ii) Isolation both ways, the other side alive throughout.
    let before = edges_of(&graph);
    let mut engine = BingoEngine::build(&graph, config).unwrap();
    assert_eq!(engine.apply_batch(&batch).missing_deletes, 0);
    assert!(
        edges_of(&graph) == before,
        "the graph saw the engine's batch"
    );
    assert_ne!(engine_edges(&engine), before);
    drop(engine);

    let engine = BingoEngine::build(&graph, config).unwrap();
    let mut written = graph.clone();
    assert_eq!(written.apply_batch(&batch), batch.len());
    assert!(
        engine_edges(&engine) == before,
        "the engine saw the graph's batch"
    );
    assert!(
        edges_of(&graph) == before,
        "the graph saw its clone's batch"
    );
    assert_ne!(edges_of(&written), before);
    engine.check_invariants().unwrap();
    drop((engine, written));

    // (iii) Sharing changes nothing that is sampled: an engine on the
    // graph's own blocks, the graph alive, against one on blocks made by
    // inserting every edge again, that graph dropped.
    let mut shared = BingoEngine::build(&graph, config).unwrap();
    let mut reinserted = DynamicGraph::new(vertices);
    for &(src, edge) in &before {
        reinserted.insert_edge(src, edge.dst, edge.bias).unwrap();
    }
    let mut alone = BingoEngine::build(&reinserted, config).unwrap();
    drop(reinserted);
    assert!(samples(&shared, 22) == samples(&alone, 22));
    for (i, chunk) in batch.chunks(500).iter().enumerate() {
        if i % 2 == 0 {
            assert_eq!(shared.apply_streaming(chunk), chunk.len());
            assert_eq!(alone.apply_streaming(chunk), chunk.len());
        } else {
            assert_eq!(shared.apply_batch(chunk), alone.apply_batch(chunk));
        }
    }
    assert!(samples(&shared, 23) == samples(&alone, 23));
    assert!(samples(&shared, 22) != samples(&alone, 23));
    assert!(engine_edges(&shared) == engine_edges(&alone));
    assert_eq!(shared.stats(), alone.stats());
    shared.check_invariants().unwrap();
    alone.check_invariants().unwrap();
    assert!(edges_of(&graph) == before);
    drop((shared, alone));

    // (iv) Once the graph is gone its blocks are the engine's alone:
    // nothing is copied. A direct vertex with room in its block takes a
    // streaming insert, delete and rewrite without an allocator call, as
    // it does in an engine that never shared anything (every edge
    // streamed into an empty one).
    let mut built = BingoEngine::build(&graph, config).unwrap();
    let mut streamed = BingoEngine::empty(vertices, config);
    for &(src, edge) in &before {
        streamed.insert_edge(src, edge.dst, edge.bias).unwrap();
    }
    let v = (0..vertices as VertexId)
        .find(|&v| graph.degree(v) == 5)
        .expect("a vertex of five edges, in a block of eight");
    let first = graph.neighbors(v).unwrap().edges()[0].dst;
    drop(graph);
    for engine in [&mut built, &mut streamed] {
        let ops = [
            calls_of(|| engine.insert_edge(v, 0, Bias::from_int(3)).unwrap()),
            calls_of(|| engine.update_bias(v, first, Bias::from_int(5)).unwrap()),
            calls_of(|| engine.delete_edge(v, first).unwrap()),
        ];
        assert_eq!(ops, [0, 0, 0]);
    }
    assert!(engine_edges(&built) == engine_edges(&streamed));

    // The same at the level of one vertex, direct and factorized, where a
    // space whose list was moved in — never shared — is there to compare
    // with; and a space whose list is still shared pays exactly one call
    // more, the copy, on its first touch and none after.
    for (degree, capacity) in [(5, 8), (40, 64), (3000, 4096)] {
        let mut never_shared = VertexSpace::build(list_with_room(degree, capacity), config);
        let list = list_with_room(degree, capacity);
        let mut once_shared = VertexSpace::build(list.clone(), config);
        drop(list);
        let list = list_with_room(degree, capacity);
        let mut still_shared = VertexSpace::build(list.clone(), config);

        let reference = streaming_calls(&mut never_shared, &config);
        assert_eq!(
            streaming_calls(&mut once_shared, &config),
            reference,
            "{degree}"
        );
        let mut one_copy = reference;
        one_copy[0] += 1;
        assert_eq!(
            streaming_calls(&mut still_shared, &config),
            one_copy,
            "{degree}"
        );
        assert_eq!(list, list_with_room(degree, capacity));
        assert_eq!(
            still_shared.adjacency().memory_bytes(),
            list.memory_bytes(),
            "the copy keeps the capacity"
        );
    }
}
