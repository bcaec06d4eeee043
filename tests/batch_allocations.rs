//! What a per-vertex batch may allocate.
//!
//! `VertexSpace::apply_batch` resolves its deletes through a `taken` mask
//! as long as the vertex's degree. A batch without deletes has nothing to
//! resolve and must not pay for the mask: on a hub that is kilobytes per
//! batch for nothing. This binary counts allocator calls (its own binary,
//! one test, for the same reason as `memory_accounting.rs`).

mod common;

use bingo::core::vertex_space::VertexSpace;
use bingo::prelude::*;
use bingo_graph::adjacency::{AdjacencyList, Edge};

const DEGREE: u32 = 4096;

#[test]
fn an_insert_only_batch_allocates_only_what_growth_needs() {
    // Room in the adjacency array for every insert below.
    let mut adj = AdjacencyList::with_capacity(DEGREE as usize + 64);
    for dst in 0..DEGREE {
        adj.push(Edge::new(dst, Bias::from_int(u64::from(dst % 255) + 1)));
    }
    for config in [BingoConfig::default(), BingoConfig::baseline()] {
        let mut space = VertexSpace::build(adj.clone(), config);
        // The build's arena is exact-size: the first inserts move every
        // segment they touch to the tail, with headroom.
        space.apply_batch(&[(DEGREE, Bias::from_int(255))], &[]);
        space.apply_batch(&[(DEGREE + 1, Bias::from_int(255))], &[]);

        // From here on neither the adjacency array nor the arena has to
        // grow, so an insert-only batch allocates nothing at all.
        let before = common::calls();
        let outcome = space.apply_batch(&[(DEGREE + 2, Bias::from_int(255))], &[]);
        assert_eq!(common::calls() - before, 0, "adaptive: {}", config.adaptive);
        assert_eq!((outcome.inserted, outcome.inter_rebuilds), (1, 1));

        // A delete does need the mask and the index list.
        let before = common::calls();
        let outcome = space.apply_batch(&[], &[DEGREE + 2]);
        assert!(common::calls() - before >= 2);
        assert_eq!(outcome.deleted, 1);
        space.check_invariants().unwrap();
    }
}
