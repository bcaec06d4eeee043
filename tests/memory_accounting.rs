//! `MemoryReport::resident_bytes` against the allocator's own count.
//!
//! The Figure 11 breakdown counts what each representation needs;
//! `structure_bytes` is meant to cover everything else the engine holds
//! (inline per-vertex structs, group headers, arena slack), so that the sum
//! is what the allocator actually handed out. This binary installs a
//! global allocator that tracks live bytes and compares, to the byte, on a
//! graph whose group arenas are all narrow (`u16` words), on one with a
//! hub past the 2^16 limit, whose arena is wide, and on a flat-degree graph
//! (the `service_deepwalk` benchmark's shape) nearly all of whose vertices
//! are direct under the adaptive config and keep no groups at all.

mod common;

use bingo::prelude::*;
use common::live;
use rand::Rng;

/// One vertex with more out-edges than a narrow group arena can index.
const HUB_DEGREE: usize = (1 << 16) + 1000;

#[test]
fn resident_bytes_match_what_the_build_allocates() {
    let mut rng = Pcg64::seed_from_u64(14);
    let graph = GraphGenerator::RMat {
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
        &mut rng,
    );
    let mut with_hub = graph.clone();
    let hub = (0..graph.num_vertices() as VertexId)
        .max_by_key(|&v| graph.degree(v))
        .expect("the graph has vertices");
    while with_hub.degree(hub) < HUB_DEGREE {
        let dst = rng.gen_range(0..graph.num_vertices() as VertexId);
        let bias = Bias::from_int(rng.gen_range(1..=4096u64));
        with_hub.insert_edge(hub, dst, bias).unwrap();
    }
    // Erdős–Rényi, four generated edges per vertex, each mirrored: every
    // degree is near 8.
    let mut flat = DynamicGraph::new(1 << 14);
    let pairs = GraphGenerator::ErdosRenyi {
        vertices: 1 << 14,
        edges: 4 << 14,
    }
    .generate_edges(&mut rng)
    .1;
    for (a, b) in pairs {
        flat.insert_edge(a, b, Bias::from_int(u64::from(b % 15) + 1))
            .unwrap();
        flat.insert_edge(b, a, Bias::from_int(u64::from(a % 15) + 1))
            .unwrap();
    }
    // The first parallel build starts the worker pool, which keeps what it
    // allocates.
    drop(BingoEngine::build(&graph, BingoConfig::default()).unwrap());

    for (name, graph, config) in [
        ("adaptive", &graph, BingoConfig::default()),
        ("baseline", &graph, BingoConfig::baseline()),
        ("adaptive, wide hub", &with_hub, BingoConfig::default()),
        ("baseline, wide hub", &with_hub, BingoConfig::baseline()),
        ("adaptive, flat", &flat, BingoConfig::default()),
        ("baseline, flat", &flat, BingoConfig::baseline()),
    ] {
        let before = live();
        let engine = BingoEngine::build(graph, config).unwrap();
        let allocated = live() - before;
        let report = engine.memory_report();
        let resident = report.resident_bytes();
        assert_eq!(
            resident, allocated,
            "{name}: the report's resident bytes against the allocator's ({report:?})"
        );
        // The part the report used to leave out is not small.
        assert!(report.structure_bytes * 10 > report.sampling_bytes());
        assert_eq!(resident, report.total_bytes() + report.structure_bytes);
        // Direct vertices are an adaptive engine's alone, and nearly all of
        // a flat graph's.
        let vertices = graph.num_vertices();
        assert_eq!(report.direct_vertices > 0, config.adaptive, "{name}");
        if config.adaptive && name.ends_with("flat") {
            assert!(report.direct_vertices * 100 > vertices * 95, "{name}");
        }
        eprintln!(
            "{name}: allocated {allocated} B, resident {resident} B, of which structure {} B; \
             {} of {vertices} vertices direct",
            report.structure_bytes, report.direct_vertices
        );
    }
}
