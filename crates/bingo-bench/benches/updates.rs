//! Criterion bench: streaming insertion / deletion cost of Bingo vs the
//! alias-rebuild baseline (Table 1's "Insertion"/"Deletion" columns and
//! Figure 16(a)).

use bingo_core::{BingoConfig, VertexSpace};
use bingo_graph::adjacency::{AdjacencyList, Edge};
use bingo_graph::Bias;
use bingo_sampling::rng::Pcg64;
use bingo_sampling::{AliasTable, DynamicSampler};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};

fn build_adjacency(degree: usize, seed: u64) -> AdjacencyList {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut adj = AdjacencyList::new();
    for i in 0..degree {
        adj.push(Edge::new(
            i as u32,
            Bias::from_int(rng.gen_range(1..1024u64)),
        ));
    }
    adj
}

fn bench_streaming_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_updates");
    for degree in [256usize, 4096, 32768] {
        let adj = build_adjacency(degree, degree as u64);
        let weights: Vec<f64> = adj.edges().iter().map(|e| e.bias.value()).collect();
        let config = BingoConfig::default();

        group.bench_with_input(BenchmarkId::new("bingo_insert", degree), &degree, |b, _| {
            b.iter_batched(
                || VertexSpace::build(adj.clone(), config),
                |mut space| {
                    space
                        .insert(degree as u32 + 1, Bias::from_int(777), &config)
                        .unwrap();
                    space
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("bingo_delete", degree), &degree, |b, _| {
            b.iter_batched(
                || VertexSpace::build(adj.clone(), config),
                |mut space| {
                    space.delete_at(0, &config).unwrap();
                    space
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(
            BenchmarkId::new("alias_rebuild_insert", degree),
            &degree,
            |b, _| {
                b.iter_batched(
                    || AliasTable::new(&weights).unwrap(),
                    |mut table| {
                        table.insert(777.0).unwrap();
                        table
                    },
                    BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("alias_rebuild_delete", degree),
            &degree,
            |b, _| {
                b.iter_batched(
                    || AliasTable::new(&weights).unwrap(),
                    |mut table| {
                        table.remove(0).unwrap();
                        table
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_streaming_updates);
criterion_main!(benches);
