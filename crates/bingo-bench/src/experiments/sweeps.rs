//! Figures 9 and 15 and the §9.2 radix-base ablation: parameter sweeps.

use crate::common::{fmt_mib, timed, ExperimentConfig, ResultTable};
use crate::experiments::memory::{count_and_share, dataset_with_bias};
use bingo_baselines::GSamplerBaseline;
use bingo_core::radix_base::RadixBaseSpace;
use bingo_core::vertex_space::DIRECT_MAX_DEGREE;
use bingo_core::{radix, BingoConfig, BingoEngine};
use bingo_graph::datasets::StandinDataset;
use bingo_graph::generators::BiasDistribution;
use bingo_graph::updates::{UpdateKind, UpdateStreamBuilder};
use bingo_graph::VertexId;
use bingo_walks::{DeepWalkConfig, EvaluationWorkflow, IngestMode, WalkSpec};
use rand::Rng;

/// Figure 9 — fraction of edges that fall into each radix group for
/// uniform, Gaussian and power-law bias distributions (10-bit biases). The
/// ratios describe the groups of a factorized vertex; the table's note says
/// how many vertices of the five stand-in graphs are direct instead.
pub fn fig9(config: &ExperimentConfig) -> ResultTable {
    let distributions = [
        ("Uniform", BiasDistribution::UniformInt { lo: 1, hi: 1023 }),
        (
            "Gauss",
            BiasDistribution::Gaussian {
                mean: 512.0,
                std_dev: 128.0,
            },
        ),
        (
            "Power-law",
            BiasDistribution::PowerLaw {
                alpha: 2.0,
                max: 1023,
            },
        ),
    ];
    let mut table = ResultTable::new(
        "Figure 9: group element ratio per radix group (10-bit biases)",
        &[
            "distribution",
            "g0",
            "g1",
            "g2",
            "g3",
            "g4",
            "g5",
            "g6",
            "g7",
            "g8",
            "g9",
        ],
    );
    let samples = 100_000usize;
    for (name, dist) in distributions {
        let mut rng = config.rng(9 ^ samples as u64 ^ name.len() as u64);
        let mut counts = [0usize; 10];
        for _ in 0..samples {
            let bias = dist.sample(&mut rng, 0).value() as u64;
            for bit in radix::decompose(bias.min(1023)) {
                if (bit as usize) < 10 {
                    counts[bit as usize] += 1;
                }
            }
        }
        let mut row = vec![name.to_string()];
        for c in counts {
            row.push(format!("{:.3}", c as f64 / samples as f64));
        }
        table.push_row(row);
    }
    // The figure itself needs no graph, so the note must not make it build
    // paper-scale ones: the count is taken at 1/1000 or smaller.
    let scale = config.scale.max(1_000);
    let (mut direct, mut vertices) = (0, 0);
    for dataset in StandinDataset::all() {
        let mut rng = config.rng(dataset.spec().paper_vertices ^ 9);
        let graph = dataset.build(scale, &mut rng);
        vertices += graph.num_vertices();
        direct += (0..graph.num_vertices())
            .filter(|&v| graph.degree(v as VertexId) <= DIRECT_MAX_DEGREE)
            .count();
    }
    table.notes.push(format!(
        "the groups of a factorized vertex; under the adaptive config a vertex of at most \
         {DIRECT_MAX_DEGREE} edges is direct and keeps none: {} across the five stand-ins at \
         scale 1/{scale}",
        count_and_share(direct, vertices)
    ));
    table
}

/// Figure 15(a) — runtime of gSampler vs Bingo for a fixed number of
/// updates ingested in varying batch sizes (LiveJournal stand-in).
pub fn fig15a(config: &ExperimentConfig) -> ResultTable {
    let total_updates = (config.batch_size * config.rounds).max(1000);
    let batch_sizes: Vec<usize> = [10, 25, 50, 75, 100]
        .iter()
        .map(|pct| (total_updates * pct / 100).max(1))
        .collect();
    let mut table = ResultTable::new(
        format!(
            "Figure 15a: runtime (s) vs batch size — {total_updates} total updates, LJ stand-in"
        ),
        &["batch_size", "gSampler_s", "Bingo_s"],
    );
    let spec = WalkSpec::DeepWalk(DeepWalkConfig {
        walk_length: config.walk_length,
    });
    for &batch_size in &batch_sizes {
        let sweep_config = ExperimentConfig {
            batch_size,
            rounds: total_updates.div_ceil(batch_size),
            ..*config
        };
        let (graph, batches) = sweep_config.prepare(StandinDataset::LiveJournal, UpdateKind::Mixed);
        let workflow = EvaluationWorkflow::new(spec, IngestMode::Batched);
        let mut gs = GSamplerBaseline::build(&graph);
        let gs_report = workflow.run(&mut gs, &batches);
        let mut bingo = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let bingo_report = workflow.run(&mut bingo, &batches);
        table.push_row(vec![
            batch_size.to_string(),
            format!("{:.3}", gs_report.total_time().as_secs_f64()),
            format!("{:.3}", bingo_report.total_time().as_secs_f64()),
        ]);
    }
    table
}

/// Figure 15(b) — runtime of gSampler vs Bingo at increasing walk lengths.
pub fn fig15b(config: &ExperimentConfig) -> ResultTable {
    let walk_lengths = [20usize, 40, 60, 80, 100];
    let mut table = ResultTable::new(
        "Figure 15b: runtime (s) vs walk length (LJ stand-in, mixed updates)",
        &["walk_length", "gSampler_s", "Bingo_s"],
    );
    let (graph, batches) = config.prepare(StandinDataset::LiveJournal, UpdateKind::Mixed);
    for &walk_length in &walk_lengths {
        let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length });
        let workflow = EvaluationWorkflow::new(spec, IngestMode::Batched);
        let mut gs = GSamplerBaseline::build(&graph);
        let gs_report = workflow.run(&mut gs, &batches);
        let mut bingo = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let bingo_report = workflow.run(&mut bingo, &batches);
        table.push_row(vec![
            walk_length.to_string(),
            format!("{:.3}", gs_report.total_time().as_secs_f64()),
            format!("{:.3}", bingo_report.total_time().as_secs_f64()),
        ]);
    }
    table
}

/// Figure 15(c) — Bingo's runtime and memory under different bias
/// distributions.
pub fn fig15c(config: &ExperimentConfig) -> ResultTable {
    let distributions = [
        ("Uniform", BiasDistribution::UniformInt { lo: 1, hi: 255 }),
        (
            "Gauss",
            BiasDistribution::Gaussian {
                mean: 128.0,
                std_dev: 32.0,
            },
        ),
        (
            "Power-law",
            BiasDistribution::PowerLaw {
                alpha: 2.0,
                max: 255,
            },
        ),
    ];
    let mut table = ResultTable::new(
        "Figure 15c: Bingo runtime (s) and memory (MiB) vs bias distribution (LJ stand-in)",
        &["distribution", "time_s", "memory_MiB"],
    );
    let spec = WalkSpec::DeepWalk(DeepWalkConfig {
        walk_length: config.walk_length,
    });
    for (name, dist) in distributions {
        let mut graph = dataset_with_bias(config, StandinDataset::LiveJournal, dist, 15);
        let mut rng = config.rng(150 + name.len() as u64);
        let total = config.batch_size * config.rounds;
        let stream = UpdateStreamBuilder::new(UpdateKind::Mixed, total.min(graph.num_edges() / 2))
            .build(&mut graph, total, &mut rng);
        let batches = stream.chunks(config.batch_size.max(1));
        let workflow = EvaluationWorkflow::new(spec, IngestMode::Batched);
        let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
        let report = workflow.run(&mut engine, &batches);
        table.push_row(vec![
            name.to_string(),
            format!("{:.3}", report.total_time().as_secs_f64()),
            fmt_mib(report.memory_bytes),
        ]);
    }
    table
}

/// §9.2 ablation — a larger radix base means fewer groups `K` at the price
/// of a third sampling level (`base − 1` sub-groups per group): per-sample
/// and per-update cost of one 8 192-candidate [`RadixBaseSpace`] per base.
/// The paper describes the design without evaluating it.
pub fn radix_base(config: &ExperimentConfig) -> ResultTable {
    const SAMPLES: usize = 200_000;
    const UPDATES: usize = 200;
    let mut rng = config.rng(92);
    let biases: Vec<u64> = (0..8192).map(|_| rng.gen_range(1..1_000_000u64)).collect();
    let mut table = ResultTable::new(
        "Radix-base ablation (§9.2): cost per operation vs base (8192 candidates, biases < 10^6)",
        &["base", "groups", "sample_ns", "insert_delete_ns"],
    );
    for base in [2u64, 4, 16, 256] {
        let mut space = RadixBaseSpace::build(&biases, base);
        let (_, sampling) = timed(|| {
            for _ in 0..SAMPLES {
                std::hint::black_box(space.sample(&mut rng));
            }
        });
        // An insert at the end and its removal leave the space as it was.
        let (_, updating) = timed(|| {
            for _ in 0..UPDATES {
                let idx = space.insert(12345);
                space.remove(idx);
            }
        });
        table.push_row(vec![
            base.to_string(),
            space.num_groups().to_string(),
            format!("{:.0}", sampling.as_nanos() as f64 / SAMPLES as f64),
            format!("{:.0}", updating.as_nanos() as f64 / UPDATES as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tables::smoke_config;

    #[test]
    fn fig9_rows_follow_the_expected_shapes() {
        let t = fig9(&smoke_config());
        assert_eq!(t.rows.len(), 3);
        // Uniform biases: every bit set with probability ~0.5.
        let uniform: Vec<f64> = t.rows[0][1..].iter().map(|s| s.parse().unwrap()).collect();
        for &r in &uniform {
            assert!(
                (r - 0.5).abs() < 0.05,
                "uniform ratios should hover at 0.5: {r}"
            );
        }
        // Power-law biases: low bits far more populated than high bits.
        let power: Vec<f64> = t.rows[2][1..].iter().map(|s| s.parse().unwrap()).collect();
        assert!(power[0] > power[9] + 0.2);
        assert!(t.notes[0].contains("is direct and keeps none"));
    }

    #[test]
    fn radix_base_groups_shrink_as_the_base_grows() {
        let t = radix_base(&smoke_config());
        let groups: Vec<usize> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        // 20-bit biases: ceil(20 / log2(base)) groups.
        assert_eq!(groups, [20, 10, 5, 3]);
    }

    #[test]
    fn fig15a_runtime_decreases_or_holds_with_larger_batches() {
        let mut config = smoke_config();
        config.scale = 16_000;
        config.batch_size = 300;
        config.rounds = 2;
        let t = fig15a(&config);
        assert_eq!(t.rows.len(), 5);
        let first: f64 = t.rows[0][2].parse().unwrap();
        let last: f64 = t.rows[4][2].parse().unwrap();
        // Larger batches should not be dramatically slower for Bingo.
        assert!(last <= first * 3.0 + 0.5);
    }

    #[test]
    fn fig15b_sweeps_five_walk_lengths() {
        let mut config = smoke_config();
        config.scale = 16_000;
        let t = fig15b(&config);
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0][0], "20");
        assert_eq!(t.rows[4][0], "100");
        for row in &t.rows {
            assert!(row[1].parse::<f64>().unwrap() >= 0.0);
            assert!(row[2].parse::<f64>().unwrap() >= 0.0);
        }
    }

    #[test]
    fn fig15c_covers_three_distributions() {
        let mut config = smoke_config();
        config.scale = 16_000;
        let t = fig15c(&config);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert!(row[2].parse::<f64>().unwrap() > 0.0);
        }
    }
}
