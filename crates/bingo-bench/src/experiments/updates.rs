//! Figures 12 and 16: update ingestion experiments.

use crate::common::{timed, ExperimentConfig, ResultTable};
use bingo_baselines::FlowWalkerBaseline;
use bingo_core::{BingoConfig, BingoEngine};
use bingo_graph::datasets::StandinDataset;
use bingo_graph::updates::UpdateKind;
use bingo_sampling::rng::Pcg64;
use bingo_walks::{DynamicWalkSystem, IngestMode, TransitionSampler};
use rand::{Rng, SeedableRng};

/// Figure 12 — streaming vs batched ingestion throughput (updates per
/// second) for insertion / deletion / mixed workloads on every dataset.
pub fn fig12(config: &ExperimentConfig) -> ResultTable {
    let kinds = [
        ("Insertion", UpdateKind::InsertOnly),
        ("Deletion", UpdateKind::DeleteOnly),
        ("Mixed", UpdateKind::Mixed),
    ];
    let mut table = ResultTable::new(
        "Figure 12: streaming vs batched update throughput (updates/s)",
        &[
            "workload",
            "dataset",
            "streaming_ups",
            "batched_ups",
            "batched_speedup",
        ],
    );
    for (kind_name, kind) in kinds {
        for dataset in StandinDataset::all() {
            let (graph, batches) = config.prepare(dataset, kind);
            let total_updates: usize = batches.iter().map(|b| b.len()).sum();

            let mut streaming_engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
            let (_, streaming_time) = timed(|| {
                for batch in &batches {
                    streaming_engine.ingest(batch, IngestMode::Streaming);
                }
            });
            let mut batched_engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
            let (_, batched_time) = timed(|| {
                for batch in &batches {
                    batched_engine.ingest(batch, IngestMode::Batched);
                }
            });
            let streaming_ups = total_updates as f64 / streaming_time.as_secs_f64().max(1e-9);
            let batched_ups = total_updates as f64 / batched_time.as_secs_f64().max(1e-9);
            table.push_row(vec![
                kind_name.to_string(),
                dataset.spec().abbrev.to_string(),
                format!("{streaming_ups:.0}"),
                format!("{batched_ups:.0}"),
                format!("{:.2}", batched_ups / streaming_ups.max(1e-9)),
            ]);
        }
    }
    table
}

/// Figure 16 — piecewise breakdown: time to perform `n` insertions, `n`
/// deletions and `n` sampling operations in Bingo vs FlowWalker.
pub fn fig16(config: &ExperimentConfig) -> ResultTable {
    let n = (config.batch_size * config.rounds).max(1000);
    let mut table = ResultTable::new(
        format!("Figure 16: piecewise breakdown — {n} inserts / deletes / samples (s)"),
        &[
            "dataset",
            "bingo_insert_s",
            "bingo_delete_s",
            "bingo_sample_s",
            "flowwalker_update_s",
            "flowwalker_sample_s",
            "sampling_speedup",
        ],
    );
    for dataset in StandinDataset::all() {
        let mut rng = config.rng(dataset.spec().paper_vertices ^ 16);
        let graph = dataset.build(config.scale, &mut rng);
        let (_, insert_batch) = config.prepare(dataset, UpdateKind::InsertOnly);
        let (_, delete_batch) = config.prepare(dataset, UpdateKind::DeleteOnly);
        let insert_events: Vec<_> = insert_batch
            .iter()
            .flat_map(|b| b.events().iter().copied())
            .take(n)
            .collect();
        let delete_events: Vec<_> = delete_batch
            .iter()
            .flat_map(|b| b.events().iter().copied())
            .take(n)
            .collect();

        // Bingo: streaming insertions, deletions, then sampling.
        let mut bingo = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let (_, bingo_insert) = timed(|| {
            for e in &insert_events {
                let _ = bingo.apply_event(e);
            }
        });
        let (_, bingo_delete) = timed(|| {
            for e in &delete_events {
                let _ = bingo.apply_event(e);
            }
        });
        let starts = sample_targets(&bingo, n, config.seed ^ 21);
        let mut srng = Pcg64::seed_from_u64(config.seed ^ 22);
        let (_, bingo_sample) = timed(|| {
            for &v in &starts {
                std::hint::black_box(bingo.sample_neighbor(v, &mut srng));
            }
        });

        // FlowWalker: graph mutation (its "update"), then O(d) sampling.
        let mut fw = FlowWalkerBaseline::build(&graph);
        let (_, fw_update) = timed(|| {
            for e in insert_events.iter().chain(delete_events.iter()) {
                let _ = fw.ingest(
                    &bingo_graph::UpdateBatch::new(vec![*e]),
                    IngestMode::Streaming,
                );
            }
        });
        let mut srng = Pcg64::seed_from_u64(config.seed ^ 22);
        let (_, fw_sample) = timed(|| {
            for &v in &starts {
                std::hint::black_box(fw.sample_neighbor(v, &mut srng));
            }
        });

        table.push_row(vec![
            dataset.spec().abbrev.to_string(),
            format!("{:.4}", bingo_insert.as_secs_f64()),
            format!("{:.4}", bingo_delete.as_secs_f64()),
            format!("{:.4}", bingo_sample.as_secs_f64()),
            format!("{:.4}", fw_update.as_secs_f64()),
            format!("{:.4}", fw_sample.as_secs_f64()),
            format!(
                "{:.2}",
                fw_sample.as_secs_f64() / bingo_sample.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    table
}

/// Pick `n` sampling targets biased toward high-degree vertices (walkers
/// overwhelmingly sample from well-connected vertices).
fn sample_targets(engine: &BingoEngine, n: usize, seed: u64) -> Vec<bingo_graph::VertexId> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let num_vertices = TransitionSampler::num_vertices(engine) as u32;
    let mut targets = Vec::with_capacity(n);
    let mut candidates = 0usize;
    while targets.len() < n && candidates < n * 20 {
        candidates += 1;
        let v = rng.gen_range(0..num_vertices);
        if engine.degree(v) > 0 {
            targets.push(v);
        }
    }
    // Pad with vertex 0 if the graph is so sparse we ran out of attempts.
    while targets.len() < n {
        targets.push(0);
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tables::smoke_config;

    #[test]
    fn fig12_batched_is_not_slower_than_streaming_on_average() {
        let mut config = smoke_config();
        config.batch_size = 400;
        config.scale = 8000;
        let t = fig12(&config);
        assert_eq!(t.rows.len(), 15);
        let mean_speedup: f64 = t
            .rows
            .iter()
            .map(|r| r[4].parse::<f64>().unwrap())
            .sum::<f64>()
            / t.rows.len() as f64;
        assert!(
            mean_speedup > 0.8,
            "batched ingestion should not be dramatically slower on average: {mean_speedup}"
        );
    }

    #[test]
    fn fig16_reports_all_datasets_with_positive_times() {
        let mut config = smoke_config();
        config.scale = 16_000;
        config.batch_size = 200;
        let t = fig16(&config);
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            for cell in &row[1..6] {
                assert!(cell.parse::<f64>().unwrap() >= 0.0);
            }
        }
    }
}
