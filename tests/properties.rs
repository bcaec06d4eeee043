//! Property-based tests on the core data structures and invariants.
//!
//! Originally written with proptest; the offline build environment has no
//! registry access, so the same properties are exercised with a hand-rolled
//! randomized-case loop (64 seeded cases per property, like the original
//! `ProptestConfig::with_cases(64)`), which keeps failures reproducible:
//! every assertion message carries the case seed.
//!
//! * Theorem 4.1 — the radix factorization never changes transition
//!   probabilities, for arbitrary bias vectors.
//! * The per-vertex sampling space keeps its structural invariants under
//!   arbitrary interleaved insert/delete sequences, both streaming and
//!   batched.
//! * An adaptive vertex is direct or factorized as its update history says,
//!   never as a side effect, and every change is one counted rebuild.
//! * The two-phase delete-and-swap compaction preserves exactly the
//!   surviving elements and reports valid moves.
//! * A copy-on-write `AdjacencyList` behaves as a plain `Vec<Edge>` under
//!   any interleaving of writes, clones and drops, and a clone never sees
//!   a write made through another handle. Its slots are narrow or wide
//!   exactly as the width rules say, and a clone's width never changes.
//! * Alias tables and CDF tables stay consistent under arbitrary weights.

use bingo::core::vertex_space::{VertexSpace, DIRECT_DEMOTE_DEGREE, DIRECT_MAX_DEGREE};
use bingo::core::BingoConfig;
use bingo::prelude::*;
use bingo::sampling::CdfTable;
use bingo_graph::adjacency::{AdjacencyList, Edge};
use bingo_graph::two_phase_delete_and_swap;
use rand::Rng;

const CASES: u64 = 64;

fn adjacency_from(biases: &[u64]) -> AdjacencyList {
    let mut adj = AdjacencyList::new();
    for (i, &b) in biases.iter().enumerate() {
        adj.push(Edge::new(i as u32, Bias::from_int(b.max(1))));
    }
    adj
}

/// A random vector with length in `len_range` and elements in `value_range`.
fn random_vec(
    rng: &mut Pcg64,
    len_range: std::ops::Range<usize>,
    value_range: std::ops::Range<u64>,
) -> Vec<u64> {
    let len = rng.gen_range(len_range);
    (0..len)
        .map(|_| rng.gen_range(value_range.clone()))
        .collect()
}

/// Theorem 4.1: the per-group weights of the factorized space sum to the
/// original total bias, and every group's weight is cardinality × 2^k.
#[test]
fn radix_factorization_preserves_total_bias() {
    for case in 0..CASES {
        let mut rng = Pcg64::seed_from_u64(0xFAC7_0000 + case);
        let biases = random_vec(&mut rng, 1..200, 1..100_000);
        let config = BingoConfig::default();
        let space = VertexSpace::build(adjacency_from(&biases), config);
        let total: u64 = biases.iter().sum();
        assert!(
            (space.total_weight() - total as f64).abs() < 1e-6,
            "case {case}: total weight mismatch"
        );
        for group in space.groups() {
            let expected = group.cardinality() as f64 * (1u64 << group.bit()) as f64;
            assert_eq!(group.weight(), expected, "case {case}");
        }
        assert!(space.check_invariants(&config).is_ok(), "case {case}");
    }
}

/// The sampling space keeps its invariants under arbitrary interleaved
/// streaming insertions and deletions.
#[test]
fn vertex_space_invariants_hold_under_streaming_ops() {
    for case in 0..CASES {
        let mut rng = Pcg64::seed_from_u64(0x57E4_0000 + case);
        let initial = random_vec(&mut rng, 1..60, 1..1024);
        let adaptive = rng.gen_bool(0.5);
        let config = if adaptive {
            BingoConfig::default()
        } else {
            BingoConfig::baseline()
        };
        let mut space = VertexSpace::build(adjacency_from(&initial), config);
        let num_ops = rng.gen_range(0..80usize);
        for _ in 0..num_ops {
            let op: u8 = rng.gen_range(0..2u8);
            let dst: u32 = rng.gen_range(0..80u32);
            let bias = rng.gen_range(1..1024u64);
            match op {
                0 => {
                    space.insert(dst, Bias::from_int(bias), &config).unwrap();
                }
                _ => {
                    let _ = space.delete(dst, &config);
                }
            }
            assert!(
                space.check_invariants(&config).is_ok(),
                "case {case}: {:?}",
                space.check_invariants(&config)
            );
        }
    }
}

/// Batched application reaches the same degree and total weight as applying
/// the same operations one at a time.
#[test]
fn batched_and_streaming_vertex_updates_agree() {
    for case in 0..CASES {
        let mut rng = Pcg64::seed_from_u64(0xBA7C_0000 + case);
        let initial = random_vec(&mut rng, 1..40, 1..512);
        let num_inserts = rng.gen_range(0..30usize);
        let insert_pairs: Vec<(VertexId, Bias)> = (0..num_inserts)
            .map(|_| {
                (
                    rng.gen_range(100..200u32),
                    Bias::from_int(rng.gen_range(1..512u64)),
                )
            })
            .collect();
        let num_deletes = rng.gen_range(0..20usize);
        // Deletions target destinations present in the initial list.
        let deletes: Vec<VertexId> = (0..num_deletes)
            .map(|_| (rng.gen_range(0..40usize) % initial.len()) as VertexId)
            .collect();
        let adj = adjacency_from(&initial);

        let config = BingoConfig::default();
        let mut streaming = VertexSpace::build(adj.clone(), config);
        for &(dst, bias) in &insert_pairs {
            streaming.insert(dst, bias, &config).unwrap();
        }
        let mut streaming_deleted = 0;
        for &dst in &deletes {
            if streaming.delete(dst, &config).is_ok() {
                streaming_deleted += 1;
            }
        }

        let mut batched = VertexSpace::build(adj, config);
        let outcome = batched.apply_batch(&insert_pairs, &deletes, &config);

        assert_eq!(outcome.inserted, insert_pairs.len(), "case {case}");
        assert_eq!(outcome.deleted, streaming_deleted, "case {case}");
        assert_eq!(batched.degree(), streaming.degree(), "case {case}");
        assert!(
            (batched.total_weight() - streaming.total_weight()).abs() < 1e-6,
            "case {case}"
        );
        assert!(batched.check_invariants(&config).is_ok(), "case {case}");
    }
}

/// An adaptive vertex's representation follows its degree with hysteresis:
/// direct when built at 16 edges or fewer, factorized by the insert that
/// reaches 17, direct again by the delete that reaches 8 — and every other
/// event, streaming or batched, leaves it alone. Each change is exactly one
/// full rebuild, in the outcome and in the space's counter.
#[test]
fn the_representation_follows_the_degree_with_hysteresis() {
    for case in 0..CASES {
        let mut rng = Pcg64::seed_from_u64(0xD14E_0000 + case);
        let initial = random_vec(&mut rng, 0..40, 1..4096);
        let config = BingoConfig::default();
        let mut space = VertexSpace::build(adjacency_from(&initial), config);
        let mut direct = initial.len() <= DIRECT_MAX_DEGREE;
        let mut rebuilds = 1;
        assert_eq!(space.is_direct(), direct, "case {case}");
        for step in 0..200u32 {
            let before = space.degree();
            let outcome = match rng.gen_range(0..5u8) {
                // A batch of a few inserts and deletes: one decision, on the
                // degree it ends at.
                0 => {
                    let inserts: Vec<(VertexId, Bias)> = (0..rng.gen_range(0..6u32))
                        .map(|i| (1000 + i, Bias::from_int(rng.gen_range(1..4096u64))))
                        .collect();
                    let deletes: Vec<VertexId> = (0..rng.gen_range(0..6usize).min(before))
                        .map(|i| space.adjacency().dst(i))
                        .collect();
                    space.apply_batch(&inserts, &deletes, &config)
                }
                1 | 2 if before > 0 => {
                    space
                        .delete_at(rng.gen_range(0..before), &config)
                        .unwrap()
                        .1
                }
                _ => {
                    let bias = Bias::from_int(rng.gen_range(1..4096u64));
                    space.insert(2000 + step, bias, &config).unwrap()
                }
            };
            let degree = space.degree();
            let crossed = if direct {
                degree > DIRECT_MAX_DEGREE
            } else {
                degree <= DIRECT_DEMOTE_DEGREE
            };
            direct ^= crossed;
            rebuilds += u64::from(crossed);
            assert_eq!(space.is_direct(), direct, "case {case} step {step}");
            assert_eq!(outcome.full_rebuilds, u32::from(crossed), "case {case}");
            assert_eq!(space.full_rebuilds(), rebuilds, "case {case}");
            assert_eq!(
                space.num_groups() == 0,
                direct || degree == 0,
                "case {case}"
            );
            assert!(
                space.check_invariants(&config).is_ok(),
                "case {case} step {step}: {:?}",
                space.check_invariants(&config)
            );
        }
    }
}

/// Two-phase delete-and-swap removes exactly the requested positions and
/// reports moves that land in the compacted range.
#[test]
fn two_phase_compaction_preserves_survivors() {
    for case in 0..CASES {
        let mut rng = Pcg64::seed_from_u64(0xC0DE_0000 + case);
        let len = rng.gen_range(1..200usize);
        let num_deletes = rng.gen_range(0..100usize);
        let deletes: Vec<usize> = (0..num_deletes)
            .map(|_| rng.gen_range(0..220usize))
            .collect();
        let original: Vec<usize> = (0..len).collect();
        let mut items = original.clone();
        let (new_len, moves) = two_phase_delete_and_swap(&mut items, &deletes);
        items.truncate(new_len);
        let delete_set: std::collections::HashSet<usize> =
            deletes.iter().copied().filter(|&d| d < len).collect();
        let mut expected: Vec<usize> = original
            .iter()
            .copied()
            .filter(|v| !delete_set.contains(v))
            .collect();
        let mut got = items.clone();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected, "case {case}");
        for (from, to) in moves {
            assert!(to < items.len(), "case {case}");
            assert!(from >= items.len(), "case {case}");
        }
    }
}

/// An edge whose bias is, with probability `wide`, one only a wide slot
/// holds (an integer above 2^32 or a float), and otherwise an integer that
/// keeps narrow; the 2^32 boundary is drawn often on both sides.
fn edge_of_width(rng: &mut Pcg64, wide: f64) -> Edge {
    const MAX: u64 = u32::MAX as u64;
    let bias = match (rng.gen_bool(wide), rng.gen_range(0..4u32)) {
        (false, 0) => Bias::from_int(MAX),
        (false, _) => Bias::from_int(rng.gen_range(1..1000u64)),
        (true, 0) => Bias::from_int(MAX + 1),
        (true, 1) => Bias::from_int(rng.gen_range(MAX + 1..1 << 53)),
        (true, _) => Bias::from_float(rng.gen_range(0.01..50.0f64)),
    };
    Edge::new(rng.gen_range(0..64u32), bias)
}

fn random_edge(rng: &mut Pcg64) -> Edge {
    edge_of_width(rng, 0.5)
}

/// Whether a narrow slot holds `edge`: an integer bias below 2^32.
fn keeps_narrow(edge: &Edge) -> bool {
    edge.bias.as_int().is_some_and(|v| v <= u64::from(u32::MAX))
}

/// The list equals its model through every read accessor.
fn assert_matches_model(list: &AdjacencyList, model: &[Edge], context: &str) {
    assert_eq!(list.edges(), *model, "{context}");
    assert_eq!(list.degree(), model.len(), "{context}");
    assert_eq!(list.is_empty(), model.is_empty(), "{context}");
    assert_eq!(list.edge(model.len()), None, "{context}");
    assert_eq!(list.edge(0), model.first().copied(), "{context}");
    for (i, e) in model.iter().enumerate() {
        assert_eq!((list.dst(i), list.bias(i)), (e.dst, e.bias), "{context}");
    }
    // A narrow list holds only edges that keep narrow.
    assert!(
        !list.is_narrow() || model.iter().all(keeps_narrow),
        "{context}"
    );
    let dst = model.last().map_or(0, |e| e.dst);
    assert_eq!(
        list.find(dst),
        model.iter().position(|e| e.dst == dst),
        "{context}"
    );
}

/// The block a handle holds, as the width rules see it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Block {
    /// `None` without a block.
    at: Option<*const u32>,
    narrow: bool,
}

fn block_of(list: &AdjacencyList) -> Block {
    Block {
        at: (list.memory_bytes() > 0).then(|| list.edges().as_ptr()),
        narrow: list.is_narrow(),
    }
}

/// An `AdjacencyList` shares its block with its clones and copies it on the
/// first write through a shared handle. Whatever the interleaving of
/// `push` / `swap_delete` / `delete_many` / `set_bias` / `clone` / dropping
/// a clone / carrying on through a clone instead, the list is the `Vec` a
/// plain implementation would hold, and every clone still alive is the
/// snapshot taken when it was cloned.
///
/// The width rules, checked after every write: a write copies the block
/// exactly when the block is shared, a push finds it full, or a narrow
/// block is handed a bias that does not keep narrow; a copy is narrow
/// exactly when every edge it is made with keeps narrow (for a delete, the
/// edges before it); a write that does not copy leaves the width alone. A
/// clone's block — width and address — never changes while the list writes,
/// widening included.
#[test]
fn adjacency_list_is_a_vec_and_its_clones_are_snapshots() {
    // Copies that widened a narrow block, and that took a wide one narrow.
    let (mut widened, mut narrowed) = (0, 0);
    for case in 0..CASES {
        let mut rng = Pcg64::seed_from_u64(0xC0E0_0000 + case);
        // From all narrow to half the edges wide.
        let wide = [0.0, 0.02, 0.1, 0.5][case as usize % 4];
        let mut list = match case % 3 {
            0 => AdjacencyList::new(),
            1 => AdjacencyList::with_capacity(rng.gen_range(0..40usize)),
            _ => (0..rng.gen_range(0..40u32))
                .map(|_| edge_of_width(&mut rng, wide))
                .collect(),
        };
        let mut model: Vec<Edge> = list.edges().to_vec();
        let mut clones: Vec<(AdjacencyList, Vec<Edge>, Block)> = Vec::new();
        for step in 0..300 {
            let context = format!("case {case} step {step}");
            let before = block_of(&list);
            let shared = before.at.is_some() && clones.iter().any(|c| c.2.at == before.at);
            let full = list.degree() == list.capacity();
            let pre_write = model.clone();
            // For a write: the edges a copy of the block is made with, and
            // whether the write copies even if the block is not shared.
            let mut write: Option<(&[Edge], bool)> = None;
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    let edge = edge_of_width(&mut rng, wide);
                    assert_eq!(list.push(edge), model.len(), "{context}");
                    model.push(edge);
                    write = Some((&model, full || (before.narrow && !keeps_narrow(&edge))));
                }
                4 => {
                    let i = rng.gen_range(0..model.len() + 2);
                    let out = list.swap_delete(i);
                    if i < model.len() {
                        let last = model.len() - 1;
                        let out = out.expect("in range");
                        assert_eq!(out.removed, model.swap_remove(i), "{context}");
                        assert_eq!(out.removed_index, i, "{context}");
                        assert_eq!(out.moved_from, (i < last).then_some(last), "{context}");
                        write = Some((&pre_write, false));
                    } else {
                        assert_eq!(out, None, "{context}");
                    }
                }
                5 => {
                    // Duplicates and out-of-range positions included.
                    let positions: Vec<usize> = (0..rng.gen_range(0..8usize))
                        .map(|_| rng.gen_range(0..model.len() + 3))
                        .collect();
                    let (removed, moves) = list.delete_many(&positions);
                    let mut expected: Vec<usize> = positions
                        .iter()
                        .copied()
                        .filter(|&i| i < model.len())
                        .collect();
                    expected.sort_unstable();
                    expected.dedup();
                    let expected: Vec<(usize, Edge)> =
                        expected.into_iter().map(|i| (i, model[i])).collect();
                    assert_eq!(removed, expected, "{context}");
                    // The moves say where every displaced survivor went;
                    // nothing else changed place.
                    let before = model.clone();
                    model.truncate(before.len() - removed.len());
                    for (from, to) in moves {
                        assert!(from >= model.len(), "{context}");
                        model[to] = before[from];
                    }
                    if !removed.is_empty() {
                        write = Some((&pre_write, false));
                    }
                }
                6 => {
                    let i = rng.gen_range(0..model.len() + 2);
                    let bias = edge_of_width(&mut rng, wide).bias;
                    let old = list.set_bias(i, bias);
                    match model.get_mut(i) {
                        Some(edge) => {
                            assert_eq!(old, Some(edge.bias), "{context}");
                            edge.bias = bias;
                            let widens = before.narrow && !keeps_narrow(edge);
                            write = Some((&model, widens));
                        }
                        None => assert_eq!(old, None, "{context}"),
                    }
                }
                7 => {
                    let clone = list.clone();
                    assert_eq!(block_of(&clone), before, "{context}: a clone shares");
                    clones.push((clone, model.clone(), before));
                }
                8 => {
                    if !clones.is_empty() {
                        clones.swap_remove(rng.gen_range(0..clones.len()));
                    }
                }
                _ => {
                    // Carry on through a clone; the list so far becomes one
                    // of the snapshots.
                    if !clones.is_empty() {
                        let k = rng.gen_range(0..clones.len());
                        let (other, snapshot, block) = &mut clones[k];
                        std::mem::swap(&mut list, other);
                        std::mem::swap(&mut model, snapshot);
                        *block = block_of(other);
                    }
                }
            }
            if let Some((made_with, forced)) = write {
                let after = block_of(&list);
                let copied = after.at != before.at;
                assert_eq!(
                    copied,
                    shared || forced,
                    "{context}: {before:?} -> {after:?}"
                );
                let narrow = if copied {
                    made_with.iter().all(keeps_narrow)
                } else {
                    before.narrow
                };
                assert_eq!(after.narrow, narrow, "{context}: {before:?} -> {after:?}");
                widened += usize::from(before.narrow && !after.narrow);
                narrowed += usize::from(!before.narrow && after.narrow);
            }
            assert_matches_model(&list, &model, &context);
            for (clone, snapshot, block) in &clones {
                assert_matches_model(clone, snapshot, &context);
                assert_eq!(block_of(clone), *block, "{context}: a clone's block moved");
            }
        }
    }
    assert!(
        widened > 50 && narrowed > 20,
        "{widened} widened, {narrowed} narrowed"
    );
}

/// Capacity, and whatever deleted edges left in the slots past the length,
/// are invisible: construction, equality and `Debug` see the edges only.
#[test]
fn adjacency_list_shows_only_its_live_edges() {
    let mut rng = Pcg64::seed_from_u64(0xC0E1_0000);
    let edges: Vec<Edge> = (0..23).map(|_| random_edge(&mut rng)).collect();

    let roomy = AdjacencyList::with_capacity(100);
    assert_matches_model(&roomy, &[], "with_capacity");
    assert_eq!(roomy, AdjacencyList::new());
    assert!(roomy.memory_bytes() > 0 && AdjacencyList::new().memory_bytes() == 0);
    assert_eq!(AdjacencyList::with_capacity(0).memory_bytes(), 0);

    let collected: AdjacencyList = edges.iter().copied().collect();
    assert_matches_model(&collected, &edges, "collect");
    // An iterator that cannot say how long it is collects to the same list.
    let filtered: AdjacencyList = edges.iter().copied().filter(|_| true).collect();
    assert_eq!(filtered, collected);

    // The same edges reached another way: more capacity, and slots past
    // the length that once held other edges.
    let mut worn = roomy;
    for &edge in &edges {
        worn.push(edge);
    }
    for _ in 0..9 {
        worn.push(random_edge(&mut rng));
    }
    worn.delete_many(&(23..30).collect::<Vec<_>>());
    worn.swap_delete(24);
    worn.swap_delete(23);
    assert_ne!(worn.memory_bytes(), collected.memory_bytes());
    assert_eq!(worn, collected);
    assert_eq!(format!("{worn:?}"), format!("{collected:?}"));
    assert!(format!("{collected:?}").matches("Edge {").count() == edges.len());

    let mut shorter = collected.clone();
    shorter.swap_delete(22);
    assert_ne!(shorter, collected);
    assert_eq!(collected.degree(), 23);
}

/// Alias tables and CDF tables agree on the total weight and only produce
/// in-range samples for arbitrary weight vectors.
#[test]
fn alias_and_cdf_tables_are_consistent() {
    for case in 0..CASES {
        let mut rng = Pcg64::seed_from_u64(0xA11A_0000 + case);
        let len = rng.gen_range(1..100usize);
        let weights: Vec<f64> = (0..len).map(|_| rng.gen_range(0.01..1000.0f64)).collect();
        let alias = AliasTable::new(&weights).unwrap();
        let cdf = CdfTable::new(&weights).unwrap();
        let total: f64 = weights.iter().sum();
        assert!(
            (alias.total_weight() - total).abs() < 1e-6 * total,
            "case {case}"
        );
        assert!(
            (cdf.total_weight() - total).abs() < 1e-6 * total,
            "case {case}"
        );
        for _ in 0..50 {
            assert!(alias.sample(&mut rng) < weights.len(), "case {case}");
            assert!(cdf.sample(&mut rng) < weights.len(), "case {case}");
        }
    }
}

/// Floating-point biases: λ-scaling preserves relative weights for the λ
/// the engine derives from them.
#[test]
fn float_bias_space_preserves_relative_weights() {
    for case in 0..CASES {
        let mut rng = Pcg64::seed_from_u64(0xF10A_0000 + case);
        let len = rng.gen_range(2..40usize);
        let biases: Vec<f64> = (0..len).map(|_| rng.gen_range(0.01..50.0f64)).collect();
        let mut adj = AdjacencyList::new();
        for (i, &b) in biases.iter().enumerate() {
            adj.push(Edge::new(i as u32, Bias::from_float(b)));
        }
        let config = BingoConfig::default();
        let space = VertexSpace::build(adj, config);
        assert!(space.check_invariants(&config).is_ok(), "case {case}");
        let total: f64 = biases.iter().sum();
        // total_weight = λ × Σ bias.
        let lambda = space.lambda();
        assert!(
            (space.total_weight() - lambda * total).abs() < 1e-6 * (1.0 + lambda * total),
            "case {case}"
        );
    }
}

#[test]
fn regression_empty_delete_list() {
    // Plain test guarding a corner the random cases may not hit: deleting
    // from an empty space and batching with empty inputs.
    let config = BingoConfig::default();
    let mut space = VertexSpace::build(AdjacencyList::new(), config);
    assert!(space.delete(0, &config).is_err());
    let outcome = space.apply_batch(&[], &[], &config);
    assert_eq!(outcome.inserted + outcome.deleted, 0);
    assert!(space.check_invariants(&config).is_ok());
}
