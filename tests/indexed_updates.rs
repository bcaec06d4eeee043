//! The edge index and the groups' probe tables against a plain `Vec`.
//!
//! A factorized vertex finds an edge by destination through its edge index
//! and a member of a listed group through the group's probe table (see
//! `bingo_core`'s `arena` module); a direct vertex scans. Either way the
//! answer must be what a scan of the adjacency list gives: the lowest
//! neighbor index pointing at the destination, duplicates and all. Here a
//! `Vec<(dst, bias)>` model that replays the adjacency list's own moves
//! (append, swap-delete, two-phase compaction) drives one vertex through a
//! seeded stream laid out to cross every representation boundary, streamed
//! and batched, and after every event `find` must equal the model's first
//! position for every destination present and a few absent ones, the
//! adjacency list's normalized biases the model's weights, and
//! `check_invariants()` — which checks both kinds of table slot by slot —
//! must hold. A second, shorter stream moves the top bit: K grows with an
//! insert and with a bias rewrite and shrinks at the next rebuild after the
//! last holder of the top bit has left, across the same boundaries; it runs
//! under the default configuration and under `baseline()`, because a space
//! keeps no configuration of its own and acts under the one each call
//! passes it.
//!
//! The second half pins the counter the tables exist to move:
//! `edges_scanned`, the adjacency slots read to locate an edge. Its own
//! binary with one test, like the other users of `tests/common`: the hub
//! case also holds a delete to what it may allocate.

mod common;

use bingo::core::fixed::ScaledBias;
use bingo::core::radix::groups_for_max_bias;
use bingo::core::vertex_space::{VertexSpace, DIRECT_DEMOTE_DEGREE, DIRECT_MAX_DEGREE};
use bingo::core::{BingoError, VertexUpdateOutcome};
use bingo::prelude::*;
use bingo_graph::adjacency::{AdjacencyList, Edge};
use bingo_graph::two_phase_delete_and_swap;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn indexed_updates_match_a_scan_and_read_o_k_slots() {
    one_vertex_follows_its_model_across_every_boundary();
    k_follows_the_top_bit_under_every_configuration();
    a_delete_on_a_wide_hub_reads_o_k_slots_streamed_or_batched();
    hub_churn_scans_a_tenth_of_what_it_used_to();
    a_local_node2vec_step_scans_a_tenth_of_what_it_used_to();
}

/// Probe-table slots for `entries` entries (`arena::slots_for`).
fn slots_for(entries: usize) -> usize {
    entries + entries / 2 + 1
}

/// One vertex and the `Vec` it must agree with.
struct Harness {
    space: VertexSpace,
    /// What every call on `space` is passed; the space keeps no copy.
    config: BingoConfig,
    model: Vec<(VertexId, Bias)>,
    /// The K the space must have: the bits of the largest scaled bias at
    /// its last rebuild from scratch or inserted since, none while direct.
    k: usize,
    /// Everything the updates reported, summed.
    totals: VertexUpdateOutcome,
    /// Times the vertex changed between direct and factorized.
    representation_changes: usize,
    /// Times it was emptied, by a streamed delete and by a batch.
    emptied: [usize; 2],
    /// Updates without a rebuild from scratch after which the groups' heap
    /// bytes were more (a segment moved to the tail) or fewer (holes
    /// squeezed out) than before.
    arena_moves: [usize; 2],
}

impl Harness {
    fn new(config: BingoConfig) -> Self {
        Harness {
            space: VertexSpace::build(AdjacencyList::new(), config),
            config,
            model: Vec::new(),
            k: 0,
            totals: VertexUpdateOutcome::default(),
            representation_changes: 0,
            emptied: [0; 2],
            arena_moves: [0; 2],
        }
    }

    fn degree(&self) -> usize {
        self.model.len()
    }

    /// Heap bytes of everything but the adjacency block.
    fn group_bytes(&self) -> usize {
        let report = self.space.memory_report();
        report.resident_bytes() - report.adjacency_bytes
    }

    /// Bits of `bias` once the space's λ has scaled it.
    fn bits(&self, bias: Bias) -> usize {
        groups_for_max_bias(ScaledBias::new(bias, self.space.lambda()).integer)
    }

    /// Run one update, which inserts `inserted`, and hold the vertex to the
    /// model afterwards.
    fn apply(
        &mut self,
        full_check: bool,
        batched: bool,
        inserted: &[(VertexId, Bias)],
        update: impl FnOnce(
            &mut VertexSpace,
            &mut Vec<(VertexId, Bias)>,
            &BingoConfig,
        ) -> VertexUpdateOutcome,
    ) -> VertexUpdateOutcome {
        let (was_direct, bytes) = (self.space.is_direct(), self.group_bytes());
        let outcome = update(&mut self.space, &mut self.model, &self.config);
        self.totals.merge(&outcome);
        let edges = if outcome.full_rebuilds > 0 {
            self.k = 0;
            &self.model[..]
        } else {
            inserted
        };
        if !self.space.is_direct() {
            let bits = edges.iter().map(|e| self.bits(e.1));
            self.k = bits.fold(self.k, usize::max);
        }
        assert_eq!(self.space.num_groups(), self.k);
        self.representation_changes += usize::from(was_direct != self.space.is_direct());
        if self.model.is_empty() && outcome.deleted > 0 {
            self.emptied[usize::from(batched)] += 1;
        }
        if outcome.full_rebuilds == 0 {
            self.arena_moves[0] += usize::from(self.group_bytes() > bytes);
            self.arena_moves[1] += usize::from(self.group_bytes() < bytes);
        }
        self.check(full_check);
        outcome
    }

    fn insert(&mut self, full_check: bool, dst: VertexId, bias: Bias) -> VertexUpdateOutcome {
        self.apply(full_check, false, &[(dst, bias)], |space, model, config| {
            model.push((dst, bias));
            space.insert(dst, bias, config).unwrap()
        })
    }

    /// Streamed delete of the first edge to `dst`, which may not exist.
    fn delete(&mut self, full_check: bool, dst: VertexId) -> VertexUpdateOutcome {
        self.apply(full_check, false, &[], |space, model, config| {
            match model.iter().position(|e| e.0 == dst) {
                Some(first) => {
                    let (edge, outcome) = space.delete(dst, config).unwrap();
                    assert_eq!((edge.dst, edge.bias), model.swap_remove(first));
                    outcome
                }
                None => {
                    let refused = space.delete(dst, config);
                    assert_eq!(refused, Err(BingoError::EdgeNotFound { dst }));
                    VertexUpdateOutcome::default()
                }
            }
        })
    }

    /// Streamed bias rewrite: the first edge to `dst` goes, a new last one
    /// comes.
    fn update_bias(&mut self, full_check: bool, dst: VertexId, bias: Bias) {
        let present = self.model.iter().any(|e| e.0 == dst);
        let inserted = [(dst, bias)];
        let inserted = &inserted[..usize::from(present)];
        self.apply(full_check, false, inserted, |space, model, config| {
            let Some(first) = model.iter().position(|e| e.0 == dst) else {
                assert!(space.update_bias(dst, bias, config).is_err());
                return VertexUpdateOutcome::default();
            };
            model.swap_remove(first);
            model.push((dst, bias));
            space.update_bias(dst, bias, config).unwrap()
        });
    }

    /// One per-vertex batch: inserts, then deletes — the i-th delete of a
    /// destination takes the i-th lowest index pointing at it, which one
    /// pass over the list hands out — compacted in one two-phase pass.
    fn batch(
        &mut self,
        full_check: bool,
        inserts: &[(VertexId, Bias)],
        deletes: &[VertexId],
    ) -> VertexUpdateOutcome {
        self.apply(full_check, true, inserts, |space, model, config| {
            model.extend_from_slice(inserts);
            let mut wanted: BTreeMap<VertexId, usize> = BTreeMap::new();
            for &dst in deletes {
                *wanted.entry(dst).or_default() += 1;
            }
            let mut taken: Vec<usize> = Vec::new();
            for (idx, edge) in model.iter().enumerate() {
                if let Some(copies) = wanted.get_mut(&edge.0).filter(|copies| **copies > 0) {
                    *copies -= 1;
                    taken.push(idx);
                }
            }
            let missing: usize = wanted.values().sum();
            let (new_len, _) = two_phase_delete_and_swap(model, &taken);
            model.truncate(new_len);
            let outcome = space.apply_batch(inserts, deletes, config);
            assert_eq!(
                (outcome.inserted, outcome.deleted, outcome.missing_deletes),
                (inserts.len(), taken.len(), missing)
            );
            outcome
        })
    }

    /// The vertex against the model. The cheap half runs after every event
    /// at any degree; the full half — every destination, every invariant —
    /// whenever asked, which below a few thousand edges is always.
    fn check(&self, full: bool) {
        let edges = self.space.adjacency().edges();
        assert_eq!(edges.len(), self.model.len());
        for absent in [VertexId::MAX, VertexId::MAX - 7, 1 << 30] {
            assert_eq!(self.space.find(absent), None);
            assert!(!self.space.has_edge(absent));
        }
        if let Some(&(dst, _)) = self.model.last() {
            let first = self.model.iter().position(|e| e.0 == dst);
            assert_eq!(self.space.find(dst), first);
        }
        if !full {
            return;
        }
        assert!(edges
            .iter()
            .map(|e| (e.dst, e.bias))
            .eq(self.model.iter().copied()));
        self.space
            .check_invariants(&self.config)
            .unwrap_or_else(|e| panic!("{e} at degree {}", self.degree()));
        let mut first: BTreeMap<VertexId, usize> = BTreeMap::new();
        for (idx, &(dst, _)) in self.model.iter().enumerate() {
            first.entry(dst).or_insert(idx);
        }
        for (&dst, &idx) in &first {
            let (found, scanned) = self.space.find_counting(dst);
            assert_eq!(found, Some(idx), "first edge to {dst}");
            assert!(self.space.has_edge(dst));
            // A direct vertex reads up to the edge; a factorized one a
            // cluster of its edge index. Copies of an edge share a home
            // slot, so a list that is mostly copies has clusters as long as
            // that; one that mostly is not has clusters whose mean is a
            // handful of slots and whose longest grows with the logarithm
            // of the length.
            let bound = if self.space.is_direct() {
                idx + 1
            } else if 2 * first.len() > self.degree() {
                256
            } else {
                self.degree()
            };
            assert!(
                scanned <= bound,
                "{scanned} slots at degree {}",
                self.degree()
            );
            // A gap between two destinations is absent.
            if dst > 0 && !first.contains_key(&(dst - 1)) {
                assert_eq!(self.space.find(dst - 1), None);
            }
        }
        let total: f64 = self.model.iter().map(|e| e.1.value()).sum();
        let weights = self.model.iter().map(|e| {
            if total > 0.0 {
                e.1.value() / total
            } else {
                0.0
            }
        });
        assert!(normalized_biases(&self.space).into_iter().eq(weights));
    }
}

/// Each edge's bias over the sum of the adjacency list's biases, in
/// neighbor order.
fn normalized_biases(space: &VertexSpace) -> Vec<f64> {
    let edges = space.adjacency().edges();
    let total: f64 = edges.iter().map(|e| e.bias.value()).sum();
    edges.iter().map(|e| e.bias.value() / total).collect()
}

/// An integer bias of up to nine bits: bit 0 with probability `share_0`
/// (so the caller decides whether group 2^0 is sparse, regular or dense),
/// bits 1–7 with probability 1/4 each (regular groups), bit 8 with 3/5 (a
/// dense one).
fn bias_with(share_0: f64, rng: &mut Pcg64) -> Bias {
    let mut w = u64::from(rng.gen_bool(share_0));
    for bit in 1..8 {
        w |= u64::from(rng.gen_bool(0.25)) << bit;
    }
    w |= u64::from(rng.gen_bool(0.6)) << 8;
    Bias::from_int(w.max(2))
}

fn one_vertex_follows_its_model_across_every_boundary() {
    let mut rng = Pcg64::seed_from_u64(0x1D);
    let mut h = Harness::new(BingoConfig::default());

    // 1. Small degrees, a dozen destinations, so duplicates everywhere:
    // back and forth over 16 <-> 17 (promotion) and 9 <-> 8 (demotion), and
    // down to nothing, streamed and batched.
    for round in 0..60 {
        let ceiling = [12, 20, 40, 17][round % 4];
        while h.degree() < ceiling {
            let (dst, bias) = (rng.gen_range(0..12), bias_with(0.3, &mut rng));
            match rng.gen_range(0..4) {
                0 => {
                    let more = (rng.gen_range(0..12), bias_with(0.3, &mut rng));
                    let deletes = [rng.gen_range(0..14), dst];
                    h.batch(true, &[(dst, bias), more], &deletes);
                }
                1 if h.degree() > 0 => h.update_bias(true, dst, bias),
                _ => {
                    h.insert(true, dst, bias);
                }
            }
        }
        let floor = [0, 5, 8, 0][round % 4];
        while h.degree() > floor {
            let dst = rng.gen_range(0..13);
            if rng.gen_range(0..3) == 0 {
                let deletes: Vec<VertexId> = (0..rng.gen_range(1..6)).map(|_| dst).collect();
                h.batch(true, &[], &deletes);
            } else {
                h.delete(true, dst);
            }
        }
        if round % 4 == 3 {
            // Every edge in one batch, destination by destination.
            for _ in 0..DIRECT_MAX_DEGREE + 4 {
                h.insert(true, rng.gen_range(0..12), bias_with(0.3, &mut rng));
            }
            let all: Vec<VertexId> = h.model.iter().map(|e| e.0).collect();
            assert_eq!(h.batch(true, &[], &all).deleted, all.len());
        }
        assert!(h.degree() <= DIRECT_DEMOTE_DEGREE && h.space.is_direct());
    }
    assert!(h.representation_changes >= 100 && h.emptied[0] >= 10 && h.emptied[1] >= 10);
    assert_eq!(h.degree(), 0);

    // 2. A few hundred edges over 80 destinations, turned over while the
    // share of odd biases swings between 4 %, 25 % and 60 %: group 2^0
    // goes sparse -> regular -> dense and back, segments outgrow their room
    // and move, and shrinking the vertex to a tenth squeezes the holes out.
    for (share_0, target) in [
        (0.04, 200),
        (0.25, 200),
        (0.6, 200),
        (0.25, 200),
        (0.04, 200),
        (0.04, 20),
        (0.25, 400),
        (0.04, 20),
    ] {
        for _ in 0..800 {
            let dst = rng.gen_range(0..80);
            let grow = h.degree() < target || (h.degree() == target && rng.gen_bool(0.5));
            match rng.gen_range(0..8) {
                0 => {
                    let inserts: Vec<(VertexId, Bias)> = (0..rng.gen_range(0..6))
                        .map(|_| (rng.gen_range(0..80), bias_with(share_0, &mut rng)))
                        .collect();
                    let deletes: Vec<VertexId> = (0..if grow { 1 } else { 8 })
                        .map(|_| rng.gen_range(0..82))
                        .collect();
                    h.batch(true, &inserts, &deletes);
                }
                1 => h.update_bias(true, dst, bias_with(share_0, &mut rng)),
                _ if grow => {
                    h.insert(true, dst, bias_with(share_0, &mut rng));
                }
                _ => {
                    h.delete(true, dst);
                }
            }
        }
    }
    let seen = |from, to| h.totals.conversions.count(from, to) > 0;
    use GroupKind::{Dense, OneElement, Regular, Sparse};
    for (from, to) in [
        (Sparse, Regular),
        (Regular, Dense),
        (Dense, Regular),
        (Regular, Sparse),
        (Sparse, OneElement),
    ] {
        assert!(seen(from, to), "no {from:?} -> {to:?} conversion");
    }
    assert!(
        h.arena_moves[0] >= 20 && h.arena_moves[1] >= 5,
        "{:?}",
        h.arena_moves
    );

    // 3. A hub: up to the last narrow degree in batches, then event by
    // event over 2^16 - 2 <-> 2^16 - 1 — the insert that reaches the limit
    // rebuilds the vertex with 32-bit words, and nothing after it does.
    const LIMIT: usize = u16::MAX as usize;
    while h.degree() < LIMIT - 2 {
        let room = (LIMIT - 2 - h.degree()).min(4096);
        let inserts: Vec<(VertexId, Bias)> = (0..room)
            .map(|_| (rng.gen_range(0..40_000), bias_with(0.25, &mut rng)))
            .collect();
        let deletes: Vec<VertexId> = (0..room / 64).map(|_| rng.gen_range(0..40_000)).collect();
        h.batch(room < 4096, &inserts, &deletes);
    }
    // Two bytes a slot so far; a wide index of this degree is 4 x 1.5 a
    // slot at the least.
    let index_bytes = |h: &Harness| h.space.memory_report().index_bytes;
    assert!(index_bytes(&h) >= 2 * slots_for(h.degree()));
    assert!(index_bytes(&h) < 4 * slots_for(h.degree()));
    let rebuilds = h.space.full_rebuilds();
    for round in 0..2 {
        while h.degree() <= LIMIT {
            let outcome = h.insert(true, rng.gen_range(0..40_000), bias_with(0.25, &mut rng));
            let promoted = round == 0 && h.degree() == LIMIT;
            assert_eq!(outcome.full_rebuilds, u32::from(promoted));
            if promoted {
                // Rebuilt at exact size, four bytes a slot.
                assert_eq!(index_bytes(&h), 4 * slots_for(LIMIT));
            }
        }
        while h.degree() > LIMIT - 2 {
            let dst = h.model[rng.gen_range(0..h.degree())].0;
            if rng.gen_bool(0.5) {
                h.delete(true, dst);
            } else {
                h.batch(true, &[], &[dst, dst]);
            }
        }
    }
    assert_eq!(h.space.full_rebuilds(), rebuilds + 1);
    // One batch across the limit, duplicates among its deletes.
    let inserts: Vec<(VertexId, Bias)> = (0..12)
        .map(|_| (rng.gen_range(0..40_000), bias_with(0.25, &mut rng)))
        .collect();
    let dst = h.model[LIMIT / 2].0;
    h.batch(true, &inserts, &[dst, dst, dst, dst, 40_001]);

    // Down to 2^15 on wide tables — batches of 4 096 deletes, a quarter of
    // them naming a destination more than once or none at all, and a few
    // dozen streamed ones in between; then the first fractional bias
    // rebuilds the vertex (λ changes) and the words are narrow again.
    while h.degree() >= 1 << 15 {
        let deletes: Vec<VertexId> = (0..4096)
            .map(|i| match i % 4 {
                0 => rng.gen_range(0..40_000),
                _ => h.model[rng.gen_range(0..h.degree())].0,
            })
            .collect();
        h.batch(true, &[], &deletes);
        for _ in 0..32 {
            let dst = h.model[rng.gen_range(0..h.degree())].0;
            h.delete(false, dst);
        }
    }
    assert_eq!(h.space.full_rebuilds(), rebuilds + 1);
    assert!(index_bytes(&h) >= 4 * slots_for(h.degree()));
    assert_eq!(h.insert(true, 7, Bias::from_float(2.5)).full_rebuilds, 1);
    assert_eq!(index_bytes(&h), 2 * slots_for(h.degree()));
    assert!(h.degree() < 1 << 15 && h.space.lambda() > 1.0);

    // 4. Fractions in play (the decimal group has its own index), and down
    // to nothing in ever larger batches of deletes.
    let mut batch = 16;
    while h.degree() > 0 {
        let inserts: Vec<(VertexId, Bias)> = (0..8)
            .map(|_| {
                (
                    rng.gen_range(0..40_000),
                    Bias::from_float(rng.gen_range(0.5..300.0)),
                )
            })
            .collect();
        let deletes: Vec<VertexId> = (0..batch)
            .map(|_| h.model[rng.gen_range(0..h.degree())].0)
            .collect();
        h.batch(true, &inserts, &deletes);
        let all: Vec<VertexId> = h.model.iter().map(|e| e.0).collect();
        if all.len() < 64 {
            h.batch(true, &[], &all);
        }
        batch = (batch * 2).min(8192);
    }
    assert!(h.space.is_direct());
    eprintln!(
        "one vertex: {} inserts, {} deletes, {} full rebuilds, {} conversions, {} representation \
         changes, arena grew {} and shrank {} times, {:.2} slots scanned per located edge",
        h.totals.inserted,
        h.totals.deleted,
        h.totals.full_rebuilds,
        h.totals.conversions.total_conversions(),
        h.representation_changes,
        h.arena_moves[0],
        h.arena_moves[1],
        h.totals.edges_scanned as f64 / (h.totals.deleted + h.totals.missing_deletes) as f64
    );
}

/// An integer bias whose highest set bit is `top`.
fn bias_topped(top: u32, rng: &mut Pcg64) -> Bias {
    Bias::from_int(1 << top | rng.gen_range(0..1u64 << top))
}

/// The top-bit stream under the default configuration and under
/// `baseline()` (no direct vertices, every group regular). The harness
/// holds K to its model after every event — that is the check; what is
/// asserted here is that the stream does what it is laid out to do.
fn k_follows_the_top_bit_under_every_configuration() {
    for config in [BingoConfig::default(), BingoConfig::baseline()] {
        let mut rng = Pcg64::seed_from_u64(0x22);
        let mut h = Harness::new(config);
        // Whether the vertex must be direct: the hysteresis of 17 up and 8
        // down, under an adaptive configuration only.
        let mut direct = config.adaptive;
        let mut settle = |h: &Harness| {
            direct = config.adaptive
                && h.degree() <= DIRECT_MAX_DEGREE
                && (direct || h.degree() <= DIRECT_DEMOTE_DEGREE);
            assert_eq!(h.space.is_direct(), direct, "at degree {}", h.degree());
            if !config.adaptive {
                let mut kinds = h.space.groups().map(|g| g.kind());
                assert!(kinds.all(|k| matches!(k, GroupKind::Regular | GroupKind::Empty)));
            }
        };

        // 1. Small degrees. Four-bit biases up over 16 -> 17.
        for dst in 0..20 {
            h.insert(true, dst, bias_topped(rng.gen_range(0..4), &mut rng));
            settle(&h);
        }
        let k_small = h.k;
        assert!(k_small > 0 && !h.space.is_direct());
        // A new top bit arrives by insert, a higher one by a bias rewrite.
        h.insert(true, 100, bias_topped(9, &mut rng));
        assert!(h.k > k_small);
        let k_insert = h.k;
        h.update_bias(true, 3, bias_topped(13, &mut rng));
        assert!(h.k > k_insert);
        let k_peak = h.k;
        // A fraction: the first one rebuilds the vertex with a λ above 1,
        // and K follows the scaled biases.
        let rebuilt = h.insert(true, 200, Bias::from_float(2.55)).full_rebuilds;
        assert_eq!(rebuilt, 1);
        assert_eq!(h.space.decimal_group().cardinality(), 1);
        assert!(h.k >= k_peak);
        let k_peak = h.k;
        // The holders of the two top bits leave: the headers stay, empty.
        h.delete(true, 3);
        h.batch(true, &[], &[100]);
        assert_eq!(h.k, k_peak);
        assert_eq!(h.space.group(k_peak - 1).kind(), GroupKind::Empty);
        h.delete(true, 200);
        assert_eq!(h.space.decimal_group().cardinality(), 0);
        // Down over 9 -> 8 and back up over 16 -> 17, three times: a vertex
        // that goes direct on the way comes back with the K of the biases
        // it has left, one that never does keeps its headers.
        for _ in 0..3 {
            while h.degree() > DIRECT_DEMOTE_DEGREE - 1 {
                let dst = h.model[rng.gen_range(0..h.degree())].0;
                if rng.gen_bool(0.5) {
                    h.delete(true, dst);
                } else {
                    h.batch(true, &[], &[dst]);
                }
                settle(&h);
            }
            while h.degree() < DIRECT_MAX_DEGREE + 2 {
                let (dst, bias) = (rng.gen_range(0..20), bias_topped(3, &mut rng));
                if rng.gen_bool(0.5) {
                    h.insert(true, dst, bias);
                } else {
                    h.batch(true, &[(dst, bias)], &[]);
                }
                settle(&h);
            }
            if config.adaptive {
                assert!(h.k < k_peak);
            } else {
                assert_eq!(h.k, k_peak);
            }
        }

        // 2. A hub. Up to the last narrow degrees in batches of nine-bit
        // biases, two higher top bits by rewrite and by insert, both holders
        // gone again, and then the insert that reaches the `u16` limit: it
        // rebuilds the vertex, wide, with the K of what is left.
        const LIMIT: usize = u16::MAX as usize;
        while h.degree() < LIMIT - 4 {
            let room = (LIMIT - 4 - h.degree()).min(4096);
            let inserts: Vec<(VertexId, Bias)> = (0..room)
                .map(|_| (rng.gen_range(0..40_000), bias_with(0.25, &mut rng)))
                .collect();
            h.batch(room < 4096, &inserts, &[]);
        }
        let k_hub = h.k;
        // (Destinations no batch above draws, so each names one edge.)
        h.insert(true, 50_001, bias_topped(3, &mut rng));
        h.update_bias(true, 50_001, bias_topped(17, &mut rng));
        h.insert(true, 50_000, bias_topped(21, &mut rng));
        assert!(h.k > k_hub);
        let k_peak = h.k;
        h.batch(true, &[], &[50_001, 50_000]);
        assert_eq!((h.k, h.degree()), (k_peak, LIMIT - 4));
        let index_bytes = |h: &Harness| h.space.memory_report().index_bytes;
        for _ in 0..6 {
            let rebuilt = h
                .insert(true, rng.gen_range(0..40_000), bias_with(0.25, &mut rng))
                .full_rebuilds;
            assert_eq!(rebuilt, u32::from(h.degree() == LIMIT));
            if rebuilt == 1 {
                // Rebuilt at exact size, four bytes a slot.
                assert_eq!(index_bytes(&h), 4 * slots_for(LIMIT));
            }
        }
        assert!(h.k < k_peak && h.k <= k_hub);
        // On wide words the same again, and back below the limit: nothing
        // rebuilds, so K only grows.
        let k_wide = h.k;
        h.insert(true, 50_002, bias_topped(19, &mut rng));
        assert!(h.k > k_wide);
        let k_peak = h.k;
        while h.degree() > LIMIT - 2 {
            h.delete(true, h.model[h.degree() - 1].0);
        }
        assert_eq!(h.k, k_peak);
        assert_eq!(h.space.group(k_peak - 1).kind(), GroupKind::Empty);
        settle(&h);
        eprintln!(
            "top bit, adaptive {}: K {k_small} -> {k_insert} -> ... -> {k_hub} -> {k_wide} -> {k_peak}, \
             {} full rebuilds",
            config.adaptive, h.totals.full_rebuilds
        );
    }
}

fn a_delete_on_a_wide_hub_reads_o_k_slots_streamed_or_batched() {
    const DEGREE: u32 = 1 << 16;
    let mut rng = Pcg64::seed_from_u64(0x1E);
    let mut adj = AdjacencyList::with_capacity(DEGREE as usize);
    // Destinations as a graph has them: anywhere, some of them twice.
    let mut present: Vec<VertexId> = (0..DEGREE).map(|_| 2 * rng.gen_range(0..1 << 20)).collect();
    for &dst in &present {
        adj.push(Edge::new(dst, bias_with(0.25, &mut rng)));
    }
    let config = BingoConfig::default();
    let mut space = VertexSpace::build(adj, config);
    let k = space.num_groups() as u64;
    assert!((8..=12).contains(&k));

    // The bound is in K: a delete reads one cluster of the edge index —
    // five slots in the mean at a load of two thirds, whatever the degree,
    // and the longest of 98 305 slots' worth of clusters is a hundred or
    // so — where a scan of this list reads 32 768 on average.
    let (mut scanned, mut worst) = (0, 0);
    const DELETES: u64 = 400;
    for i in 0..DELETES {
        let dst = present.swap_remove(rng.gen_range(0..present.len()));
        let outcome = if i % 2 == 0 {
            space.delete(dst, &config).unwrap().1
        } else {
            let (calls, bytes) = (common::calls(), common::handed_out());
            let outcome = space.apply_batch(&[], &[dst], &config);
            // The index list and the move: nothing as long as the degree.
            assert!(common::calls() - calls <= 2 && common::handed_out() - bytes <= 72);
            outcome
        };
        assert_eq!((outcome.deleted, outcome.missing_deletes), (1, 0));
        assert!(outcome.edges_scanned <= 32 * k, "{}", outcome.edges_scanned);
        scanned += outcome.edges_scanned;
        worst = worst.max(outcome.edges_scanned);
        // A miss is no dearer.
        assert!(space.find_counting(dst + 1).1 as u64 <= 32 * k);
    }
    space.check_invariants(&config).unwrap();
    assert!(
        scanned <= k * DELETES,
        "{scanned} slots over {DELETES} deletes"
    );
    eprintln!(
        "degree 2^16, K = {k}: {:.2} slots per delete, {worst} at worst",
        scanned as f64 / DELETES as f64
    );
}

/// A skewed graph: a few vertices hold most edges.
fn skewed_graph(rng: &mut Pcg64) -> DynamicGraph {
    GraphGenerator::RMat {
        scale: 13,
        avg_degree: 16,
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
}

/// The edge an event has to find before it can act, if any.
fn located(event: &UpdateEvent) -> Option<(VertexId, VertexId)> {
    match *event {
        UpdateEvent::Insert { .. } => None,
        UpdateEvent::Delete { src, dst } | UpdateEvent::UpdateBias { src, dst, .. } => {
            Some((src, dst))
        }
    }
}

/// Adjacency slots a scan for the first edge to `dst` reads.
fn scan_cost(engine: &BingoEngine, src: VertexId, dst: VertexId) -> u64 {
    let adj = engine.vertex_space(src).unwrap().adjacency();
    adj.find(dst).map_or(adj.degree(), |idx| idx + 1) as u64
}

/// Slots per located edge on the stream below when every locate was
/// `AdjacencyList::find` (the parent, b83be67): what [`scan_cost`] adds up
/// to, recorded.
const HUB_CHURN_SCANNED_BEFORE: u64 = 1_170_920;

fn hub_churn_scans_a_tenth_of_what_it_used_to() {
    const EVENTS: usize = 12_000;
    let mut rng = Pcg64::seed_from_u64(0x1F);
    let graph = skewed_graph(&mut rng);
    let n = graph.num_vertices() as VertexId;
    // An edge drawn uniformly hangs off a hub more often than not.
    let mut live: Vec<(VertexId, VertexId)> = graph.edges().map(|(s, e)| (s, e.dst)).collect();
    let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    drop(graph);

    let mut before = 0;
    let mut edges_located = 0;
    let mut pending: Vec<UpdateEvent> = Vec::new();
    for i in 0..EVENTS {
        let bias = Bias::from_int(rng.gen_range(1..=4096));
        let event = match i % 4 {
            0 => {
                let (src, dst) = (live[rng.gen_range(0..live.len())].0, rng.gen_range(0..n));
                live.push((src, dst));
                UpdateEvent::Insert { src, dst, bias }
            }
            1 => {
                let (src, dst) = live[rng.gen_range(0..live.len())];
                UpdateEvent::UpdateBias { src, dst, bias }
            }
            _ => {
                let (src, dst) = live.swap_remove(rng.gen_range(0..live.len()));
                UpdateEvent::Delete { src, dst }
            }
        };
        // Half the stream goes in one event at a time, half in batches of
        // 64 (whose deletes see the batch's inserts, as the scan did).
        if (i / 64) % 2 == 0 {
            if let Some((src, dst)) = located(&event) {
                before += scan_cost(&engine, src, dst);
                edges_located += 1;
            }
            engine.apply_event(&event).unwrap();
        } else {
            pending.push(event);
            if pending.len() == 64 {
                let mut replay = engine.clone();
                for event in &pending {
                    if let UpdateEvent::Insert { src, dst, bias } = *event {
                        replay.insert_edge(src, dst, bias).unwrap();
                    }
                }
                for (src, dst) in pending.iter().filter_map(located) {
                    before += scan_cost(&replay, src, dst);
                    edges_located += 1;
                }
                let outcome = engine.apply_batch(&UpdateBatch::new(std::mem::take(&mut pending)));
                assert_eq!(outcome.missing_deletes, 0);
            }
        }
    }
    engine.check_invariants().unwrap();
    let now = engine.stats().edges_scanned;

    // One delete on every vertex that has an edge, in one batch: enough
    // vertices for the batch to go to the worker team, and each lookup is
    // what the same lookup reads before the batch, so the team's sum is
    // checked exactly.
    let mut expected = 0;
    let mut events = Vec::new();
    for src in 0..n {
        let space = engine.vertex_space(src).unwrap();
        if let Some(edge) = space.adjacency().edges().iter().next_back() {
            expected += space.find_counting(edge.dst).1 as u64;
            events.push(UpdateEvent::Delete { src, dst: edge.dst });
        }
    }
    assert!(
        events.len() > 4000,
        "{} vertices have an edge",
        events.len()
    );
    let outcome = engine.apply_batch(&UpdateBatch::new(events));
    assert_eq!(outcome.missing_deletes, 0);
    assert_eq!(engine.stats().edges_scanned - now, expected);
    engine.check_invariants().unwrap();

    eprintln!(
        "hub churn: {edges_located} edges located, {:.1} slots each by scan, {:.2} now",
        before as f64 / edges_located as f64,
        now as f64 / edges_located as f64
    );
    assert_eq!(before, HUB_CHURN_SCANNED_BEFORE);
    assert!(now * 10 <= before, "{now} slots scanned against {before}");
}

/// An engine whose `has_edge` counts what the lookup reads now and what a
/// scan of the list would have read.
struct CountingSampler<'a> {
    engine: &'a BingoEngine,
    now: AtomicU64,
    before: AtomicU64,
}

impl TransitionSampler for CountingSampler<'_> {
    fn num_vertices(&self) -> usize {
        self.engine.num_vertices()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.engine.degree(v)
    }

    fn sample_neighbor<R: Rng + ?Sized>(&self, v: VertexId, rng: &mut R) -> Option<VertexId> {
        self.engine.sample_neighbor(v, rng)
    }

    fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        let (found, scanned) = self.engine.vertex_space(src).unwrap().find_counting(dst);
        // relaxed-ok: a statistic that publishes no other data.
        self.now.fetch_add(scanned as u64, Ordering::Relaxed);
        let before = scan_cost(self.engine, src, dst);
        // relaxed-ok: as above.
        self.before.fetch_add(before, Ordering::Relaxed);
        assert_eq!(found.is_some(), self.engine.has_edge(src, dst));
        found.is_some()
    }

    fn edge_bias(&self, src: VertexId, dst: VertexId) -> Option<f64> {
        self.engine.edge_bias(src, dst)
    }
}

/// Slots the walks below read for membership when `has_edge` was a scan.
const NODE2VEC_SCANNED_BEFORE: u64 = 66_956_320;

fn a_local_node2vec_step_scans_a_tenth_of_what_it_used_to() {
    let mut rng = Pcg64::seed_from_u64(0x20);
    let graph = skewed_graph(&mut rng);
    let engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let sampler = CountingSampler {
        engine: &engine,
        now: AtomicU64::new(0),
        before: AtomicU64::new(0),
    };
    let spec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 20,
        p: 0.5,
        q: 2.0,
    });
    let results = WalkEngine::new(0x21).run_all_vertices(&sampler, &spec);
    let steps = results.total_steps() as f64;
    let (now, before) = (sampler.now.into_inner(), sampler.before.into_inner());
    eprintln!(
        "node2vec: {steps} steps, {:.1} slots per step by scan, {:.2} now",
        before as f64 / steps,
        now as f64 / steps
    );
    assert_eq!(before, NODE2VEC_SCANNED_BEFORE);
    assert!(now * 10 <= before, "{now} slots scanned against {before}");
}
