//! `MemoryReport::resident_bytes` against the allocator's own count.
//!
//! The Figure 11 breakdown counts what each representation needs;
//! `structure_bytes` is meant to cover everything else the engine holds
//! (inline per-vertex structs, group headers, arena slack), so that the sum
//! is what the allocator actually handed out. This binary installs a
//! global allocator that tracks live bytes and compares, to the byte, on a
//! graph whose group arenas are all narrow (`u16` words) and on one with a
//! hub past the 2^16 limit, whose arena is wide.

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
    // The first parallel build starts the worker pool, which keeps what it
    // allocates.
    drop(BingoEngine::build(&graph, BingoConfig::default()).unwrap());

    for (name, graph, config) in [
        ("adaptive", &graph, BingoConfig::default()),
        ("baseline", &graph, BingoConfig::baseline()),
        ("adaptive, wide hub", &with_hub, BingoConfig::default()),
        ("baseline, wide hub", &with_hub, BingoConfig::baseline()),
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
        eprintln!(
            "{name}: allocated {allocated} B, resident {resident} B, of which structure {} B",
            report.structure_bytes
        );
    }
}
