//! Criterion bench: scaling behaviour behind Table 1 — how the per-update
//! cost grows with degree for Bingo (O(K)) vs the alias method (O(d)) — and
//! the ablation for the arbitrary-radix-base extension (§9.2).

use bingo_core::radix_base::RadixBaseSpace;
use bingo_core::{BingoConfig, VertexSpace};
use bingo_graph::adjacency::{AdjacencyList, Edge};
use bingo_graph::Bias;
use bingo_sampling::rng::Pcg64;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};

fn build_adjacency(degree: usize, max_bias: u64, seed: u64) -> AdjacencyList {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut adj = AdjacencyList::new();
    for i in 0..degree {
        adj.push(Edge::new(
            i as u32,
            Bias::from_int(rng.gen_range(1..=max_bias)),
        ));
    }
    adj
}

/// Update cost vs the number of radix groups K (max bias sweeps from 2^4 to
/// 2^20 at a fixed degree) — the K-dependence the complexity analysis
/// predicts.
fn bench_update_vs_k(c: &mut Criterion) {
    let degree = 4096;
    let config = BingoConfig::default();
    let mut group = c.benchmark_group("bingo_update_vs_K");
    for bits in [4u32, 10, 20] {
        let adj = build_adjacency(degree, (1u64 << bits) - 1, bits as u64);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, _| {
            b.iter_batched(
                || VertexSpace::build(adj.clone(), config),
                |mut space| {
                    let bias = Bias::from_int(3);
                    space.insert(degree as u32 + 1, bias, &config).unwrap();
                    space.delete_at(0, &config).unwrap();
                    space
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Radix-base ablation: larger bases reduce K and the per-update work at the
/// price of a third sampling level.
fn bench_radix_bases(c: &mut Criterion) {
    let mut rng = Pcg64::seed_from_u64(11);
    let biases: Vec<u64> = (0..8192).map(|_| rng.gen_range(1..1_000_000u64)).collect();
    let mut group = c.benchmark_group("radix_base_ablation");
    for base in [2u64, 4, 16, 256] {
        let space = RadixBaseSpace::build(&biases, base);
        group.bench_with_input(BenchmarkId::new("sample", base), &base, |b, _| {
            let mut rng = Pcg64::seed_from_u64(base);
            b.iter(|| space.sample(&mut rng))
        });
        group.bench_with_input(BenchmarkId::new("insert_delete", base), &base, |b, _| {
            b.iter_batched(
                || RadixBaseSpace::build(&biases, base),
                |mut s| {
                    let idx = s.insert(12345);
                    s.remove(idx);
                    s
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_update_vs_k, bench_radix_bases);
criterion_main!(benches);
