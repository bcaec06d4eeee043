//! What the engine holds after a long run of balanced update batches,
//! against what it held when it was built and against a fresh build of the
//! edges it ends with.
//!
//! A build leaves the group arenas no room to grow: full group segments
//! move to the arena's tail with a quarter again their capacity and leave
//! holes, which a compaction squeezes out once they pass a quarter of the
//! live words. The adjacency blocks are the ones the graph's own inserts
//! grew (the engine shares them, and owns them once the graph is dropped),
//! so they start with that slack and grow when it is used up. This binary
//! applies 200 batches that keep the edge count level and pins three things
//! (its own binary, one test, for the same reason as `memory_accounting.rs`):
//! how far the footprint has drifted by then, as a ceiling relative to the
//! post-build figure and still equal to the allocator's own count; the tax
//! of the churn, the churned footprint over that of an engine built afresh
//! from the same edges (holes, arena slack, over-grown segments and
//! blocks); and the group-arena words the updates moved per event, an
//! `O(K)` amortisation figure with no noise in it. It is a gauge for work on
//! growth policies, not a steady state.
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
//! where it was. With group tables copied on write behind an `Arc` (16 B of
//! counts each) 4 046 002 B built, 4 629 636 B after (1.144x), 1.145x a
//! fresh build of the churned edges (4 043 130 B). With segments that grow by a
//! quarter, an arena that grows by an eighth, compaction inside the arena's
//! own buffer once it holds half the live words beyond them (an eighth of
//! headroom per list, a quarter for the edge index), and a words-moved
//! counter in every table (8 B more each): 4 058 714 B built, 4 473 128 B
//! after (1.102x), 1.103x the fresh build (4 055 794 B), 38.5 arena words
//! moved per event (ceiling 40.4, the reading plus 5 %). The two ratios
//! keep a ceiling of 1.14, under the file's 5 % over the reading, so that
//! the growth policy before this one (1.144x, 1.145x) fails them both.
//! With 6-byte compact slots 3 646 922 B built, 4 024 992 B after (1.104x;
//! adjacency 1.62 MB after), 1.105x the fresh build (3 643 098 B), 38.5
//! words moved per event: both ends 10 % lower, the ratios within 0.002 of
//! where they were, the ceilings unchanged.

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
const CEILING: f64 = 1.14;
/// Resident bytes after the churn, over those of an engine built afresh
/// from the edges the churn left.
const TAX_CEILING: f64 = 1.14;
/// Group-arena words the updates moved, per event
/// (`EngineStats::arena_words_moved`).
const MOVED_PER_EVENT_CEILING: f64 = 40.4;
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

    // The same edges, loaded into a graph and built afresh: exact-size
    // arenas and adjacency blocks of the load's capacity classes.
    let graph = engine.snapshot_graph();
    let fresh_engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    drop(graph);
    let fresh = fresh_engine.memory_report().resident_bytes();
    let tax = churned as f64 / fresh as f64;
    let moved = engine.stats().arena_words_moved as f64 / (BATCHES * BATCH_EVENTS) as f64;
    eprintln!("a fresh build holds {fresh} B ({tax:.3}x); {moved:.1} arena words moved per event");
    assert!(
        tax <= TAX_CEILING,
        "the churned engine holds {tax:.3}x a fresh build of its edges ({churned} against {fresh} B)"
    );
    assert!(
        moved <= MOVED_PER_EVENT_CEILING,
        "{moved:.1} arena words moved per event"
    );
}
