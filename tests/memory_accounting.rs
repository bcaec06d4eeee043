//! `MemoryReport::resident_bytes` against the allocator's own count.
//!
//! The Figure 11 breakdown counts what each representation needs;
//! `structure_bytes` is meant to cover everything else the engine holds
//! (inline per-vertex structs, group headers, arena slack), so that the sum
//! is what the allocator actually handed out. This binary installs a
//! global allocator that tracks live bytes and compares, to the byte, on a
//! graph whose group arenas are all narrow (`u16` words), on one with a
//! hub past the 2^16 limit, whose arena is wide, on a flat-degree graph
//! (the `service_deepwalk` benchmark's shape) nearly all of whose vertices
//! are direct under the adaptive config and keep no groups at all, and on
//! one where every third vertex has an edge whose bias (a float, or an
//! integer past 2^32) only a wide, 12-byte adjacency slot holds; every
//! other graph here keeps all its blocks narrow, at 8 bytes a slot.
//!
//! An engine shares the adjacency blocks of the graph it was built from, so
//! there are two readings per case. While the graph is alive the build has
//! allocated everything in the report *except* the adjacency — the blocks
//! are the graph's, and both reports count them. Once the graph is dropped
//! the blocks are the engine's alone, and what is live since before the
//! graph was made is the whole report.

mod common;

use bingo::prelude::*;
use common::live;
use rand::Rng;

/// One vertex with more out-edges than a narrow group arena can index.
const HUB_DEGREE: usize = (1 << 16) + 1000;

#[test]
fn resident_bytes_match_what_the_build_allocates() {
    if !common::counts_are_exact() {
        return;
    }
    let rmat = |rng: &mut Pcg64| {
        GraphGenerator::RMat {
            scale: 14,
            avg_degree: 10,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
        .generate(
            BiasDistribution::PowerLaw {
                alpha: 1.6,
                max: 4096,
            },
            rng,
        )
    };
    let with_hub = |rng: &mut Pcg64| {
        let mut graph = rmat(rng);
        let n = graph.num_vertices() as VertexId;
        let hub = (0..n)
            .max_by_key(|&v| graph.degree(v))
            .expect("the graph has vertices");
        while graph.degree(hub) < HUB_DEGREE {
            let bias = Bias::from_int(rng.gen_range(1..=4096u64));
            graph.insert_edge(hub, rng.gen_range(0..n), bias).unwrap();
        }
        graph
    };
    // Erdős–Rényi, four generated edges per vertex, each mirrored: every
    // degree is near 8.
    let flat = |rng: &mut Pcg64| {
        let mut graph = DynamicGraph::new(1 << 14);
        let pairs = GraphGenerator::ErdosRenyi {
            vertices: 1 << 14,
            edges: 4 << 14,
        }
        .generate_edges(rng)
        .1;
        for (a, b) in pairs {
            graph
                .insert_edge(a, b, Bias::from_int(u64::from(b % 15) + 1))
                .unwrap();
            graph
                .insert_edge(b, a, Bias::from_int(u64::from(a % 15) + 1))
                .unwrap();
        }
        graph
    };
    // Every third vertex gets one edge a narrow slot cannot hold, before
    // the first read: its block is built wide.
    let mixed = |rng: &mut Pcg64| {
        let mut graph = rmat(rng);
        let n = graph.num_vertices() as VertexId;
        for v in (0..n).step_by(3) {
            let bias = match v % 2 {
                0 => Bias::from_float(rng.gen_range(0.5..8.0)),
                _ => Bias::from_int(rng.gen_range(1 << 32..1 << 40)),
            };
            graph.insert_edge(v, rng.gen_range(0..n), bias).unwrap();
        }
        graph
    };
    // The first parallel build starts the worker pool, which keeps what it
    // allocates.
    drop(BingoEngine::build(&rmat(&mut Pcg64::seed_from_u64(14)), BingoConfig::default()).unwrap());

    type MakeGraph<'a> = &'a dyn Fn(&mut Pcg64) -> DynamicGraph;
    let cases: [(&str, MakeGraph, BingoConfig); 8] = [
        ("adaptive", &rmat, BingoConfig::default()),
        ("baseline", &rmat, BingoConfig::baseline()),
        ("adaptive, wide hub", &with_hub, BingoConfig::default()),
        ("baseline, wide hub", &with_hub, BingoConfig::baseline()),
        ("adaptive, flat", &flat, BingoConfig::default()),
        ("baseline, flat", &flat, BingoConfig::baseline()),
        ("adaptive, mixed widths", &mixed, BingoConfig::default()),
        ("baseline, mixed widths", &mixed, BingoConfig::baseline()),
    ];
    for (name, make, config) in cases {
        let before_graph = live();
        let graph = make(&mut Pcg64::seed_from_u64(14));
        // A generated graph arrives still loading, and its first read builds
        // its adjacency blocks: this read keeps them out of the build's
        // window, and leaves live exactly the graph's `memory_bytes()`.
        let vertices = graph.num_vertices();
        let non_isolated = (0..vertices as VertexId)
            .filter(|&v| graph.degree(v) > 0)
            .count();
        let before_build = live();
        let engine = BingoEngine::build(&graph, config).unwrap();
        let allocated = live() - before_build;
        let report = engine.memory_report();
        let resident = report.resident_bytes();
        assert_eq!(
            resident - report.adjacency_bytes,
            allocated,
            "{name}: the report's resident bytes less the shared adjacency against what the \
             build allocated ({report:?})"
        );
        // The blocks are in the graph's report too: it is the blocks and
        // the graph's inline handles, and what making the graph allocated.
        let handles = vertices * std::mem::size_of::<bingo_graph::AdjacencyList>();
        assert_eq!(
            graph.memory_bytes(),
            report.adjacency_bytes + handles,
            "{name}"
        );
        assert_eq!(graph.memory_bytes(), before_build - before_graph, "{name}");
        drop(graph);
        assert_eq!(
            resident,
            live() - before_graph,
            "{name}: the report's resident bytes against the allocator's, the graph gone"
        );
        assert_eq!(engine.memory_report(), report, "{name}");
        // The part the report used to leave out is not small.
        assert!(report.structure_bytes * 10 > report.sampling_bytes());
        assert_eq!(resident, report.total_bytes() + report.structure_bytes);
        // Direct vertices are an adaptive engine's alone, and nearly all of
        // a flat graph's.
        assert_eq!(report.direct_vertices > 0, config.adaptive, "{name}");
        if config.adaptive && name.ends_with("flat") {
            assert!(report.direct_vertices * 100 > vertices * 95, "{name}");
        }
        // One block per non-isolated vertex; wide only where an edge needs it.
        let blocks = report.narrow_blocks + report.wide_blocks;
        assert_eq!(blocks, non_isolated, "{name}");
        if name.ends_with("widths") {
            assert_eq!(report.wide_blocks, vertices.div_ceil(3), "{name}");
        } else {
            assert_eq!(report.wide_blocks, 0, "{name}");
        }
        eprintln!(
            "{name}: the build allocated {allocated} B, resident {resident} B, of which \
             adjacency {} B ({} narrow blocks, {} wide) and structure {} B; {} of {vertices} \
             vertices direct",
            report.adjacency_bytes,
            report.narrow_blocks,
            report.wide_blocks,
            report.structure_bytes,
            report.direct_vertices
        );
    }
}
