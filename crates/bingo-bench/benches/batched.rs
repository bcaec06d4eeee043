//! Criterion bench: batched vs streaming ingestion of a whole update batch
//! (the microbenchmark behind Figure 12) and the two-phase delete-and-swap
//! compaction primitive.

use bingo_bench::common::ExperimentConfig;
use bingo_core::{BingoConfig, BingoEngine};
use bingo_graph::datasets::StandinDataset;
use bingo_graph::two_phase_delete_and_swap;
use bingo_graph::updates::UpdateKind;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

fn bench_batch_ingestion(c: &mut Criterion) {
    let config = ExperimentConfig {
        scale: 8000,
        batch_size: 1000,
        rounds: 1,
        ..ExperimentConfig::default()
    };
    let mut group = c.benchmark_group("batch_ingestion");
    group.sample_size(10);
    for kind in [
        UpdateKind::InsertOnly,
        UpdateKind::DeleteOnly,
        UpdateKind::Mixed,
    ] {
        let (graph, batches) = config.prepare(StandinDataset::LiveJournal, kind);
        let batch = batches[0].clone();
        let label = match kind {
            UpdateKind::InsertOnly => "insert",
            UpdateKind::DeleteOnly => "delete",
            UpdateKind::Mixed => "mixed",
        };
        group.bench_with_input(BenchmarkId::new("streaming", label), &batch, |b, batch| {
            b.iter_batched(
                || BingoEngine::build(&graph, BingoConfig::default()).unwrap(),
                |mut engine| {
                    engine.apply_streaming(batch);
                    engine
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("batched", label), &batch, |b, batch| {
            b.iter_batched(
                || BingoEngine::build(&graph, BingoConfig::default()).unwrap(),
                |mut engine| {
                    engine.apply_batch(batch);
                    engine
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_two_phase_compaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("two_phase_delete_and_swap");
    for size in [1_000usize, 100_000] {
        let items: Vec<u64> = (0..size as u64).collect();
        let deletes: Vec<usize> = (0..size).step_by(3).collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter_batched(
                || items.clone(),
                |mut v| {
                    let (new_len, _moves) = two_phase_delete_and_swap(&mut v, &deletes);
                    v.truncate(new_len);
                    v
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_ingestion, bench_two_phase_compaction);
criterion_main!(benches);
