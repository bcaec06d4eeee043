//! Figures 11, 13 and 14: memory savings of the adaptive group
//! representation, its time impact, and integer vs floating-point biases.

use crate::common::{fmt_mib, timed, ExperimentConfig, ResultTable};
use bingo_core::vertex_space::DIRECT_MAX_DEGREE;
use bingo_core::{BingoConfig, BingoEngine};
use bingo_graph::datasets::StandinDataset;
use bingo_graph::generators::BiasDistribution;
use bingo_graph::updates::UpdateKind;
use bingo_graph::{Bias, DynamicGraph};
use bingo_walks::{DeepWalkConfig, EvaluationWorkflow, IngestMode, WalkSpec};
use rand::Rng;

/// Figure 11 — memory consumption of the baseline (all-regular, "BS") vs the
/// group-adaptive design ("GA"), overall and per group kind, plus the ratio
/// of group kinds per dataset, and how many adjacency blocks keep compact
/// (6-byte), narrow (8-byte) and wide (12-byte) slots. The last column is
/// the verdict CI gates on:
/// the adaptive design must need strictly fewer sampling bytes than the
/// baseline on every dataset. The ratios are over the groups GA keeps: a
/// vertex of at most [`DIRECT_MAX_DEGREE`] edges is direct under GA and has
/// none, so the table's note says how many those are.
pub fn fig11(config: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 11: adaptive group representation — memory (MiB) BS vs GA",
        &[
            "dataset",
            "BS_total",
            "GA_total",
            "saving_x",
            "GA_dense",
            "GA_one_element",
            "GA_sparse",
            "GA_regular",
            "ratio_dense",
            "ratio_regular",
            "ratio_sparse",
            "ratio_one_element",
            "compact_blocks",
            "narrow_blocks",
            "wide_blocks",
            "GA_lt_BS",
        ],
    );
    let mut direct = Vec::new();
    for dataset in StandinDataset::all() {
        let mut rng = config.rng(dataset.spec().paper_vertices ^ 11);
        let graph = dataset.build(config.scale, &mut rng);
        let baseline = BingoEngine::build(&graph, BingoConfig::baseline()).unwrap();
        let adaptive = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let bs = baseline.memory_report();
        let ga = adaptive.memory_report();
        let ratios = ga.group_ratios();
        direct.push(format!(
            "{} {}",
            dataset.spec().abbrev,
            count_and_share(ga.direct_vertices, graph.num_vertices())
        ));
        table.push_row(vec![
            dataset.spec().abbrev.to_string(),
            fmt_mib(bs.sampling_bytes()),
            fmt_mib(ga.sampling_bytes()),
            format!(
                "{:.2}",
                bs.sampling_bytes() as f64 / ga.sampling_bytes().max(1) as f64
            ),
            fmt_mib(ga.dense_bytes),
            fmt_mib(ga.one_element_bytes),
            fmt_mib(ga.sparse_bytes),
            fmt_mib(ga.regular_bytes),
            format!("{:.3}", ratios[0]),
            format!("{:.3}", ratios[1]),
            format!("{:.3}", ratios[2]),
            format!("{:.3}", ratios[3]),
            ga.compact_blocks.to_string(),
            ga.narrow_blocks.to_string(),
            ga.wide_blocks.to_string(),
            if ga.sampling_bytes() < bs.sampling_bytes() {
                "PASS"
            } else {
                "FAIL"
            }
            .to_string(),
        ]);
    }
    table.notes.push(format!(
        "GA keeps no groups on a vertex of at most {DIRECT_MAX_DEGREE} edges (direct); \
         GA_* and ratio_* cover the rest, and both totals include the edge indices of the \
         factorized vertices. Direct vertices: {}",
        direct.join(", ")
    ));
    table
}

/// `count of total (share %)`.
pub(crate) fn count_and_share(count: usize, total: usize) -> String {
    let share = 100.0 * count as f64 / total.max(1) as f64;
    format!("{count} of {total} ({share:.1} %)")
}

/// Figure 13 — time breakdown of the BS vs GA designs: update (insert/delete
/// + rebuild) time and sampling time under mixed updates.
pub fn fig13(config: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 13: time (s) breakdown — BS vs GA (mixed updates + DeepWalk)",
        &[
            "dataset",
            "BS_update_s",
            "BS_sampling_s",
            "GA_update_s",
            "GA_sampling_s",
            "GA_speedup",
        ],
    );
    let spec = WalkSpec::DeepWalk(DeepWalkConfig {
        walk_length: config.walk_length,
    });
    for dataset in StandinDataset::all() {
        let (graph, batches) = config.prepare(dataset, UpdateKind::Mixed);
        let workflow = EvaluationWorkflow::new(spec, IngestMode::Batched);

        let mut bs = BingoEngine::build(&graph, BingoConfig::baseline()).unwrap();
        let bs_report = workflow.run(&mut bs, &batches);
        let mut ga = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let ga_report = workflow.run(&mut ga, &batches);

        table.push_row(vec![
            dataset.spec().abbrev.to_string(),
            format!("{:.3}", bs_report.total_update_time().as_secs_f64()),
            format!("{:.3}", bs_report.total_walk_time().as_secs_f64()),
            format!("{:.3}", ga_report.total_update_time().as_secs_f64()),
            format!("{:.3}", ga_report.total_walk_time().as_secs_f64()),
            format!(
                "{:.2}",
                bs_report.total_time().as_secs_f64()
                    / ga_report.total_time().as_secs_f64().max(1e-9)
            ),
        ]);
    }
    table
}

fn with_float_biases(graph: &DynamicGraph, rng: &mut impl Rng) -> DynamicGraph {
    // "The floating-point bias is the integer bias added with a random
    // floating-point value between 0 − 1.00" (§6.4).
    let mut out = DynamicGraph::new(graph.num_vertices());
    for (src, edge) in graph.edges() {
        let b = Bias::from_float(edge.bias.value() + rng.gen::<f64>());
        out.insert_edge(src, edge.dst, b)
            .expect("copied edge is valid");
    }
    out
}

/// Figure 14 — runtime and memory with integer vs floating-point biases.
pub fn fig14(config: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 14: integer vs floating-point bias — time (s) and memory (MiB)",
        &[
            "dataset",
            "int_time_s",
            "float_time_s",
            "time_ratio",
            "int_mem_MiB",
            "float_mem_MiB",
            "mem_ratio",
        ],
    );
    let spec = WalkSpec::DeepWalk(DeepWalkConfig {
        walk_length: config.walk_length,
    });
    for dataset in StandinDataset::all() {
        let (graph, batches) = config.prepare(dataset, UpdateKind::Mixed);
        let mut rng = config.rng(14);
        let float_graph = with_float_biases(&graph, &mut rng);
        // The float update stream reuses the integer stream's structure but
        // rewrites insertion biases to be fractional.
        let float_batches: Vec<_> = batches
            .iter()
            .map(|b| {
                bingo_graph::UpdateBatch::new(
                    b.events()
                        .iter()
                        .map(|e| match *e {
                            bingo_graph::UpdateEvent::Insert { src, dst, bias } => {
                                bingo_graph::UpdateEvent::Insert {
                                    src,
                                    dst,
                                    bias: Bias::from_float(bias.value() + 0.37),
                                }
                            }
                            other => other,
                        })
                        .collect(),
                )
            })
            .collect();

        let workflow = EvaluationWorkflow::new(spec, IngestMode::Batched);
        let mut int_engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let (int_report, _) = timed(|| workflow.run(&mut int_engine, &batches));
        let mut float_engine = BingoEngine::build(&float_graph, BingoConfig::default()).unwrap();
        let (float_report, _) = timed(|| workflow.run(&mut float_engine, &float_batches));

        let it = int_report.total_time().as_secs_f64();
        let ft = float_report.total_time().as_secs_f64();
        let im = int_report.memory_bytes;
        let fm = float_report.memory_bytes;
        table.push_row(vec![
            dataset.spec().abbrev.to_string(),
            format!("{it:.3}"),
            format!("{ft:.3}"),
            format!("{:.2}", ft / it.max(1e-9)),
            fmt_mib(im),
            fmt_mib(fm),
            format!("{:.2}", fm as f64 / im.max(1) as f64),
        ]);
    }
    table
}

/// Helper used by fig15c and tests: build one dataset stand-in with an
/// explicit bias distribution.
pub fn dataset_with_bias(
    config: &ExperimentConfig,
    dataset: StandinDataset,
    bias: BiasDistribution,
    salt: u64,
) -> DynamicGraph {
    let mut rng = config.rng(salt);
    dataset.build_with_bias(config.scale, bias, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tables::smoke_config;

    #[test]
    fn fig11_shows_memory_savings_for_every_dataset() {
        let t = fig11(&smoke_config());
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            let saving: f64 = row[3].parse().unwrap();
            assert!(
                saving >= 1.0,
                "GA must not use more memory than BS: {row:?}"
            );
            // Over the groups GA keeps; a flat graph may keep none at all.
            let ratios: f64 = row[8..12].iter().map(|s| s.parse::<f64>().unwrap()).sum();
            assert!((ratios - 1.0).abs() < 0.01 || ratios == 0.0);
            // The stand-ins' biases are integers below 2^16: every block
            // compact.
            assert!(
                row[12].parse::<usize>().unwrap() > 0 && row[13] == "0" && row[14] == "0",
                "{row:?}"
            );
            assert_eq!(row[15], "PASS", "GA must need fewer bytes than BS: {row:?}");
        }
        assert!(t.notes[0].contains("AM ") && t.notes[0].contains("TW "));
        assert!(t.render().contains("Direct vertices: AM "));
    }

    #[test]
    fn fig13_reports_both_designs() {
        let mut config = smoke_config();
        config.scale = 16_000;
        let t = fig13(&config);
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            assert!(row[1].parse::<f64>().unwrap() >= 0.0);
            assert!(row[3].parse::<f64>().unwrap() >= 0.0);
        }
    }

    #[test]
    fn fig14_float_overhead_is_moderate() {
        let mut config = smoke_config();
        config.scale = 16_000;
        let t = fig14(&config);
        assert_eq!(t.rows.len(), 5);
        for row in &t.rows {
            let mem_ratio: f64 = row[6].parse().unwrap();
            assert!(mem_ratio >= 0.9, "float memory should not shrink: {row:?}");
            assert!(
                mem_ratio < 5.0,
                "float memory overhead should stay moderate: {row:?}"
            );
        }
    }
}
