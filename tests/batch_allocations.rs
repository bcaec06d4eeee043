//! What a batch may allocate.
//!
//! `VertexSpace::apply_batch` finds the edges its deletes name through the
//! vertex's edge index, one probe each, and takes each out of the index as
//! it is resolved — so there is no mask over the adjacency list, and what a
//! batch allocates depends on the batch, never on the degree: the list of
//! neighbor indices to compact away and the moves the compaction made. A
//! batch without deletes allocates nothing at all.
//! `BingoEngine::apply_batch` keeps the lists it sorts a batch into between
//! calls, so a batch costs the engine one allocation, not six and their
//! regrowth. A compaction of a vertex's group arena lays the segments out
//! again inside the arena's own buffer and shrinks it in place, so the
//! batch that triggers it allocates nothing the size of the arena. This
//! binary counts allocator calls and bytes (its own binary, one test, for
//! the same reason as `memory_accounting.rs`).

mod common;

use bingo::core::vertex_space::VertexSpace;
use bingo::core::GroupKind;
use bingo::prelude::*;
use bingo_graph::adjacency::{AdjacencyList, Edge};
use rand::Rng;

const DEGREE: u32 = 4096;

#[test]
fn an_insert_only_batch_allocates_only_what_growth_needs() {
    a_vertex_batch_allocates_for_its_events_not_for_the_degree();
    an_engine_batch_allocates_half_of_what_it_used_to();
    a_compaction_keeps_its_buffer();
}

fn a_vertex_batch_allocates_for_its_events_not_for_the_degree() {
    // Room in the adjacency array for every insert below.
    let mut adj = AdjacencyList::with_capacity(DEGREE as usize + 64);
    for dst in 0..DEGREE {
        adj.push(Edge::new(dst, Bias::from_int(u64::from(dst % 255) + 1)));
    }
    for config in [BingoConfig::default(), BingoConfig::baseline()] {
        let mut space = VertexSpace::build(adj.clone(), config);
        // The build's arena is exact-size: the first inserts move every
        // segment they touch to the tail, with headroom.
        space.apply_batch(&[(DEGREE, Bias::from_int(255))], &[], &config);
        space.apply_batch(&[(DEGREE + 1, Bias::from_int(255))], &[], &config);

        // From here on neither the adjacency array nor the arena has to
        // grow, so an insert-only batch allocates nothing at all.
        let before = common::calls();
        let outcome = space.apply_batch(&[(DEGREE + 2, Bias::from_int(255))], &[], &config);
        assert_eq!(common::calls() - before, 0, "adaptive: {}", config.adaptive);
        assert_eq!((outcome.inserted, outcome.inter_rebuilds), (1, 1));

        // A delete allocates the one-entry list of indices to compact away
        // and, unless the edge was the list's last, the one move that
        // filled its place: a few words, where a mask over the 4 099 edges
        // was kilobytes.
        for (dst, moves) in [(DEGREE + 2, 0), (7, 1)] {
            let (calls, bytes) = (common::calls(), common::handed_out());
            let outcome = space.apply_batch(&[], &[dst], &config);
            assert_eq!(common::calls() - calls, 1 + moves);
            // (A `Vec` of moves starts with room for four.)
            assert!(common::handed_out() - bytes <= 8 + 4 * 16 * moves);
            assert_eq!((outcome.deleted, outcome.missing_deletes), (1, 0));
            // One cluster of the edge index, not the list.
            assert!(outcome.edges_scanned <= 16, "{}", outcome.edges_scanned);
        }
        // A delete that finds nothing allocates its empty list's room.
        let bytes = common::handed_out();
        assert_eq!(
            space
                .apply_batch(&[], &[DEGREE + 9], &config)
                .missing_deletes,
            1
        );
        assert!(common::handed_out() - bytes <= 8);
        space.check_invariants(&config).unwrap();
    }
}

/// Allocator calls per event of the stream below at the parent of the
/// change that took the work lists onto the engine and the mask, the
/// normalised copy and the removed-edge list out of a vertex's batch
/// (b83be67: six lists and their regrowth per engine batch, four to five
/// allocations per vertex with a delete).
const CALLS_PER_EVENT_BEFORE: f64 = 2.4689;

fn an_engine_batch_allocates_half_of_what_it_used_to() {
    const BATCHES: usize = 40;
    const BATCH_EVENTS: usize = 500;
    let biases = BiasDistribution::PowerLaw {
        alpha: 1.6,
        max: 4096,
    };
    let mut rng = Pcg64::seed_from_u64(21);
    let graph = GraphGenerator::RMat {
        scale: 12,
        avg_degree: 10,
        a: 0.57,
        b: 0.19,
        c: 0.19,
    }
    .generate(biases, &mut rng);
    let n = graph.num_vertices() as VertexId;
    let mut live_edges: Vec<(VertexId, VertexId)> =
        graph.edges().map(|(s, e)| (s, e.dst)).collect();
    let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    // The blocks are the engine's alone: no first write copies one.
    drop(graph);

    let mut calls = 0;
    for _ in 0..BATCHES {
        // Of every five events two insert, two delete a live edge and one
        // rewrites a live edge's bias.
        let mut events = Vec::with_capacity(BATCH_EVENTS);
        let mut back = Vec::new();
        for i in 0..BATCH_EVENTS {
            let bias = biases.sample(&mut rng, 0);
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
        let batch = UpdateBatch::new(events);
        let before = common::calls();
        let outcome = engine.apply_batch(&batch);
        calls += common::calls() - before;
        assert_eq!(outcome.missing_deletes, 0);
    }
    engine.check_invariants().unwrap();
    let per_event = calls as f64 / (BATCHES * BATCH_EVENTS) as f64;
    eprintln!("{calls} allocator calls over {BATCHES} batches: {per_event:.4} per event");
    assert!(
        per_event <= CALLS_PER_EVENT_BEFORE / 2.0,
        "{per_event:.4} allocator calls per batch event, {CALLS_PER_EVENT_BEFORE} before"
    );
}

fn a_compaction_keeps_its_buffer() {
    // Twelve sparse groups of about 340 members each: the arena holds
    // their lists, the probe tables over them and the edge index.
    let mut adj = AdjacencyList::with_capacity(DEGREE as usize);
    for dst in 0..DEGREE {
        adj.push(Edge::new(dst, Bias::from_int(1 << (dst % 12))));
    }
    let config = BingoConfig::default();
    let mut space = VertexSpace::build(adj, config);
    assert!(space.groups().all(|g| g.kind() == GroupKind::Sparse));
    // The build's arena is exact-size: deletes shrink the live words under
    // it until the waste passes half of them, and the arena compacts.
    let mut compactions = 0;
    let mut next = DEGREE;
    while compactions < 3 {
        let deletes: Vec<VertexId> = (next - 32..next).collect();
        next -= 32;
        let resident = space.memory_report().resident_bytes();
        common::reset_largest();
        let reallocs = common::reallocs();
        let outcome = space.apply_batch(&[], &deletes, &config);
        let (largest, reallocs) = (common::largest(), common::reallocs() - reallocs);
        assert_eq!(outcome.deleted, 32);
        if space.memory_report().resident_bytes() >= resident {
            continue;
        }
        // Compacted: the batch moved every list and refilled every probe
        // table, and the segments now fill the arena.
        compactions += 1;
        space.check_invariants(&config).unwrap();
        assert!(outcome.arena_words_moved >= 3 * space.degree() as u64);
        let report = space.memory_report();
        let arena = report.sparse_bytes + report.index_bytes;
        // The buffer was shrunk in place: the one reallocation, and no
        // fresh block anywhere near the arena's size (a scratch copy of
        // the lists, when one is needed, is under a third of it).
        assert!(
            largest < arena / 2,
            "the compacting batch allocated {largest} B afresh for a {arena} B arena"
        );
        assert!(
            reallocs <= 1,
            "{reallocs} reallocations in the compacting batch"
        );
    }
}
