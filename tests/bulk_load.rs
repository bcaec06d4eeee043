//! A graph loaded edge by edge is built in one pass, and comes out as the
//! graph the same inserts make one push at a time.
//!
//! `DynamicGraph::new` starts a graph loading: `insert_edge` stages each
//! edge in a bucket for its source's vertex range, and the first read builds
//! every block once at its final capacity. This binary holds a loaded graph
//! to one whose every edge was pushed — each neighbor index returned, the
//! edge order, each vertex's block bytes — and holds the load to the
//! allocator's own count (its own binary, one test, as `memory_accounting.rs`
//! is): the staged edges take fewer bytes than the graph built from them (9
//! bytes a record against 8 a narrow slot plus the block's header and spare
//! capacity), so from `new` through the first read the live bytes never run
//! more than the staged per-vertex index and one bucket's records past the
//! built graph; the first read makes one allocation per non-isolated vertex
//! and per bucket and a few more, and nothing but the graph is left live
//! after it.

mod common;

use bingo::prelude::*;
use common::{calls, live, peak, reset_peak};
use rand::Rng;
use rayon::prelude::*;

/// Vertices per staging bucket, records per chunk of a bucket and bytes per
/// record, as `bingo_graph::dynamic_graph` stages them.
const BUCKET_VERTICES: usize = 256;
const CHUNK_RECORDS: usize = 128;
const RECORD_BYTES: usize = 9;

type Row = (VertexId, VertexId, Bias);

/// Hubs at the low ids, so the first buckets hold the most edges.
const RMAT: GraphGenerator = GraphGenerator::RMat {
    scale: 15,
    avg_degree: 10,
    a: 0.57,
    b: 0.19,
    c: 0.19,
};

/// Every bucket about the same.
const ERDOS_RENYI: GraphGenerator = GraphGenerator::ErdosRenyi {
    vertices: 1 << 15,
    edges: 8 << 15,
};

/// The generator's edges with power-law biases.
fn rows(generator: GraphGenerator, seed: u64) -> (usize, Vec<Row>) {
    let mut rng = Pcg64::seed_from_u64(seed);
    let (n, pairs) = generator.generate_edges(&mut rng);
    let biases = BiasDistribution::PowerLaw {
        alpha: 1.6,
        max: 4096,
    };
    let rows = pairs
        .into_iter()
        .map(|(src, dst)| (src, dst, biases.sample(&mut rng, 0)))
        .collect();
    (n, rows)
}

/// Every row inserted into a new graph, which stays loading.
fn load(n: usize, rows: &[Row]) -> DynamicGraph {
    let mut graph = DynamicGraph::new(n);
    for &(src, dst, bias) in rows {
        graph.insert_edge(src, dst, bias).unwrap();
    }
    graph
}

/// The same inserts into a loading graph and into one a read settled
/// first, so that every edge is pushed — rejected ones among them — with
/// the same results.
fn loaded_and_pushed(n: usize, rows: &[Row], seed: u64) -> (DynamicGraph, DynamicGraph) {
    let mut loaded = DynamicGraph::new(n);
    let mut pushed = DynamicGraph::new(n);
    assert_eq!(pushed.max_degree(), 0);
    let mut rng = Pcg64::seed_from_u64(seed);
    for &(src, dst, bias) in rows {
        let (src, dst, bias) = match rng.gen_range(0..1000) {
            0 => (n as VertexId, dst, bias),
            1 => (src, n as VertexId + 7, bias),
            2 => (src, dst, Bias::from_float(0.0)),
            _ => (src, dst, bias),
        };
        assert_eq!(
            loaded.insert_edge(src, dst, bias),
            pushed.insert_edge(src, dst, bias)
        );
    }
    (loaded, pushed)
}

fn samples(engine: &BingoEngine, seed: u64) -> Vec<Option<VertexId>> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let n = engine.num_vertices() as VertexId;
    (0..20_000)
        .map(|_| engine.sample_neighbor(rng.gen_range(0..n), &mut rng))
        .collect()
}

#[test]
fn a_loaded_graph_is_the_pushed_graph_built_in_one_pass() {
    for (name, generator, seed) in [("R-MAT", RMAT, 27), ("Erdős–Rényi", ERDOS_RENYI, 28)] {
        let (n, rows) = rows(generator, seed);

        // (i) The same graph, block for block.
        let (loaded, pushed) = loaded_and_pushed(n, &rows, seed);
        assert_eq!(loaded.num_edges(), pushed.num_edges(), "{name}");
        assert!(loaded.edges().eq(pushed.edges()), "{name}");
        for v in 0..n as VertexId {
            assert_eq!(
                loaded.neighbors(v).unwrap().memory_bytes(),
                pushed.neighbors(v).unwrap().memory_bytes(),
                "{name}: vertex {v}"
            );
        }
        assert_eq!(loaded.memory_bytes(), pushed.memory_bytes(), "{name}");
        drop((loaded, pushed));

        // (ii) What the load costs, to the allocator's count.
        if !common::counts_are_exact() {
            continue;
        }
        let before = live();
        reset_peak();
        let graph = load(n, &rows);
        let staged = live() - before;
        let calls_before = calls();
        assert_eq!(graph.num_vertices(), n);
        let first_read = calls() - calls_before;
        let settled = graph.memory_bytes();
        let load_peak = peak() - before;
        assert_eq!(live() - before, settled, "{name}: only the graph is left");
        // The graph is built bucket by bucket, each bucket's records freed
        // as they are read, and a bucket's blocks outweigh its records: the
        // load may run one bucket's records past the built graph, and the
        // per-vertex count and wide bit it stages, which live until the
        // build ends. (These graphs have no wide edge, so no bucket holds a
        // list of wide biases.)
        let index = n * std::mem::size_of::<u32>() + n.div_ceil(64) * std::mem::size_of::<u64>();
        let biggest_bucket = (0..n)
            .step_by(BUCKET_VERTICES)
            .map(|first| {
                let records = (first..(first + BUCKET_VERTICES).min(n))
                    .map(|v| graph.degree(v as VertexId))
                    .sum::<usize>();
                records.next_multiple_of(CHUNK_RECORDS) * RECORD_BYTES
            })
            .max()
            .unwrap_or(0);
        let bound = 1.02 * (settled + index + biggest_bucket) as f64;
        assert!(
            load_peak as f64 <= bound,
            "{name}: {load_peak} B live at the peak of a load that builds {settled} B \
             (+ {index} B of staged index, + {biggest_bucket} B of records in the biggest bucket)"
        );
        assert!(
            staged < settled,
            "{name}: {settled} B settled from {staged} B staged"
        );
        let non_isolated = (0..n as VertexId).filter(|&v| graph.degree(v) > 0).count();
        let buckets = n.div_ceil(BUCKET_VERTICES);
        assert!(
            first_read <= non_isolated + buckets + 8,
            "{name}: {first_read} allocator calls for {non_isolated} non-isolated vertices"
        );
        eprintln!(
            "{name}: peak {load_peak} B for {staged} B staged, {settled} B settled ({:.3}x), \
             bound {bound:.0} B; first read {first_read} calls, {non_isolated} non-isolated \
             vertices, {buckets} buckets",
            load_peak as f64 / settled as f64
        );
    }

    // (iii) A first read inside pool tasks completes, and an engine built
    // on a loading graph samples as one built on the pushed graph does.
    let (n, rows) = rows(RMAT, 29);
    let graph = load(n, &rows);
    let degrees: Vec<usize> = (0..n as VertexId)
        .into_par_iter()
        .map(|v| graph.degree(v))
        .collect();
    assert_eq!(degrees.iter().sum::<usize>(), rows.len());
    let (loaded, pushed) = loaded_and_pushed(n, &rows, 29);
    let config = BingoConfig::default();
    let on_loaded = BingoEngine::build(&loaded, config).unwrap();
    let on_pushed = BingoEngine::build(&pushed, config).unwrap();
    assert!(samples(&on_loaded, 30) == samples(&on_pushed, 30));
}
