//! What the engine holds after a long run of balanced update batches,
//! against what it held when it was built.
//!
//! A build leaves the group arenas no room to grow: full group segments
//! move to the arena's tail with half again their capacity and leave holes.
//! The adjacency blocks are the ones the graph's own inserts grew (the
//! engine shares them, and owns them once the graph is dropped), so they
//! start with that slack and grow by half again when it is used up. This
//! binary applies 200 batches that keep the edge count level and pins how
//! far the footprint has drifted by then — as a ceiling relative to the
//! post-build figure, and still equal to the allocator's own count (its own
//! binary, one test, for the same reason as `memory_accounting.rs`). It is a
//! gauge for work on growth policies, not a steady state.
//!
//! Readings: with radix groups on every vertex 6 861 434 B built,
//! 9 130 154 B after the churn (1.331x, ceiling 1.40). With vertices of at
//! most 16 edges stored direct — 14 797 of this graph's 16 384 — 4 685 272 B
//! built, 6 160 404 B after (1.315x): both ends shrink by a third, and the
//! ratio barely moves, because what grew under churn was the adjacency
//! arrays (an exact-size copy of the graph's, 1.97 -> 3.04 MB either way),
//! not the groups. With the graph's own blocks instead of that copy
//! 5 740 280 B built, 6 453 164 B after (1.124x; adjacency 3.02 -> 3.34 MB):
//! the build is larger by the slack the graph's copy used to carry beside
//! the engine's, the churned figure by 5 %, and the ratio falls because the
//! first insert into a vertex no longer doubles anything. With groups sized
//! by their members (a probe table per listed group instead of a
//! degree-long inverted index per regular one) and an edge index per
//! factorized vertex 5 615 170 B built, 6 312 372 B after (1.124x): both
//! ends 2 % lower, the ratio where it was, and the engine's batch work
//! lists — kept between batches now, a few KiB here — are in both the report
//! and the allocator's count. The ceiling keeps the same 5 % over the
//! reading. With 8-byte narrow slots 4 228 714 B built, 4 827 852 B after
//! (1.142x; adjacency 2.30 MB after). With blocks sized in half steps (4,
//! 6, 9, 13, … instead of powers of two) 4 020 578 B built, 4 603 508 B
//! after (1.145x; adjacency 2.07 MB after): both ends 5 % lower, the ratio
//! where it was.

mod common;

use bingo::prelude::*;
use common::live;
use rand::Rng;

const BATCHES: usize = 200;
/// The `engine_batch` workload's 2 500 events per batch on 2^18 vertices,
/// scaled to this graph's 2^14: after 200 batches about half the vertices
/// have seen an insert.
const BATCH_EVENTS: usize = 160;
/// Resident bytes after the churn, over resident bytes after the build.
const CEILING: f64 = 1.18;
/// Inserts and rewrites draw from the law the graph was built with, so the
/// churn changes which edges exist, not what kind of graph it is.
const BIASES: BiasDistribution = BiasDistribution::PowerLaw {
    alpha: 1.6,
    max: 4096,
};

#[test]
fn balanced_churn_keeps_the_footprint_within_its_ceiling() {
    if !common::counts_are_exact() {
        return;
    }
    let mut rng = Pcg64::seed_from_u64(16);
    let graph = GraphGenerator::RMat {
        scale: 14,
        avg_degree: 10,
        a: 0.57,
        b: 0.19,
        c: 0.19,
    }
    .generate(BIASES, &mut rng);
    let n = graph.num_vertices() as VertexId;
    let edges = graph.num_edges();
    let mut live_edges: Vec<(VertexId, VertexId)> =
        graph.edges().map(|(s, e)| (s, e.dst)).collect();
    // The first parallel build starts the worker pool, which keeps what it
    // allocates.
    drop(BingoEngine::build(&graph, BingoConfig::default()).unwrap());

    // The engine shares the graph's adjacency blocks; with the graph gone
    // they are its alone, and every update below edits them in place.
    let with_graph = live();
    let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let before = with_graph - graph.memory_bytes();
    drop(graph);
    let built = engine.memory_report().resident_bytes();
    assert_eq!(built, live() - before);

    for _ in 0..BATCHES {
        // Of every five events two insert, two delete a live edge and one
        // rewrites a live edge's bias; deletes and rewrites are drawn from
        // the edges live before the batch.
        let mut events = Vec::with_capacity(BATCH_EVENTS);
        let mut back = Vec::new();
        for i in 0..BATCH_EVENTS {
            let bias = BIASES.sample(&mut rng, 0);
            if i % 5 < 2 {
                let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
                back.push((src, dst));
                events.push(UpdateEvent::Insert { src, dst, bias });
            } else {
                let (src, dst) = live_edges.swap_remove(rng.gen_range(0..live_edges.len()));
                if i % 5 < 4 {
                    events.push(UpdateEvent::Delete { src, dst });
                } else {
                    back.push((src, dst));
                    events.push(UpdateEvent::UpdateBias { src, dst, bias });
                }
            }
        }
        live_edges.extend(back);
        let outcome = engine.apply_batch(&UpdateBatch::new(events));
        assert_eq!(outcome.missing_deletes, 0);
    }
    assert_eq!(engine.num_edges(), edges);
    engine.check_invariants().unwrap();

    let report = engine.memory_report();
    let churned = report.resident_bytes();
    assert_eq!(
        churned,
        live() - before,
        "the report's resident bytes against the allocator's ({report:?})"
    );
    let growth = churned as f64 / built as f64;
    eprintln!(
        "built {built} B, after {BATCHES} batches of {BATCH_EVENTS} events {churned} B \
         ({growth:.3}x; adjacency {} B, structure {} B)",
        report.adjacency_bytes, report.structure_bytes
    );
    assert!(
        growth <= CEILING,
        "resident bytes grew {growth:.3}x over the build ({built} -> {churned} B)"
    );
}
