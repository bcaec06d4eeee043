//! Tables 1–4 of the paper.

use crate::common::{fmt_mib, timed, ExperimentConfig, ResultTable};
use bingo_baselines::{FlowWalkerBaseline, GSamplerBaseline, KnightKingBaseline};
use bingo_core::{BingoConfig, BingoEngine, VertexSpace};
use bingo_graph::adjacency::{AdjacencyList, Edge};
use bingo_graph::datasets::StandinDataset;
use bingo_graph::updates::UpdateKind;
use bingo_graph::Bias;
use bingo_sampling::{AliasTable, CdfTable, DynamicSampler, RejectionSampler, Sampler};
use bingo_walks::{
    DeepWalkConfig, EvaluationWorkflow, IngestMode, Node2VecConfig, PprConfig, WalkSpec,
};
use rand::Rng;

/// Table 1 — complexity comparison of Bingo vs alias / ITS / rejection.
///
/// The paper's Table 1 is analytical; this experiment validates it
/// empirically by measuring per-operation cost at increasing degrees and
/// reporting how the cost grows from the smallest to the largest degree
/// (≈ 1 means constant, ≈ d-ratio means linear).
pub fn table1(config: &ExperimentConfig) -> ResultTable {
    let degrees = [256usize, 1024, 4096, 16384];
    let mut rng = config.rng(1);
    let samples_per_op = 2000;

    #[derive(Default, Clone, Copy)]
    struct Costs {
        insert_ns: f64,
        delete_ns: f64,
        sample_ns: f64,
    }

    let mut measure = |degree: usize| -> [Costs; 4] {
        let biases: Vec<u64> = (0..degree).map(|_| rng.gen_range(1..1024u64)).collect();
        let weights: Vec<f64> = biases.iter().map(|&b| b as f64).collect();
        let mut out = [Costs::default(); 4];

        // Bingo vertex space.
        let mut adj = AdjacencyList::new();
        for (i, &b) in biases.iter().enumerate() {
            adj.push(Edge::new(i as u32, Bias::from_int(b)));
        }
        let engine_config = BingoConfig::default();
        let mut space = VertexSpace::build(adj, engine_config);
        let (_, t) = timed(|| {
            for i in 0..samples_per_op {
                let bias = Bias::from_int(1 + (i as u64 % 1023));
                space
                    .insert((degree + i) as u32, bias, &engine_config)
                    .unwrap();
            }
        });
        out[0].insert_ns = t.as_nanos() as f64 / samples_per_op as f64;
        let (_, t) = timed(|| {
            for i in 0..samples_per_op {
                space.delete((degree + i) as u32, &engine_config).unwrap();
            }
        });
        out[0].delete_ns = t.as_nanos() as f64 / samples_per_op as f64;
        let mut srng = config.rng(2);
        let (_, t) = timed(|| {
            for _ in 0..samples_per_op {
                std::hint::black_box(space.sample_index(&mut srng));
            }
        });
        out[0].sample_ns = t.as_nanos() as f64 / samples_per_op as f64;

        // Alias table.
        let mut alias = AliasTable::new(&weights).unwrap();
        let (_, t) = timed(|| {
            for i in 0..200 {
                alias.insert((i % 1023) as f64 + 1.0).unwrap();
            }
        });
        out[1].insert_ns = t.as_nanos() as f64 / 200.0;
        let (_, t) = timed(|| {
            for _ in 0..200 {
                alias.remove(alias.len() - 1).unwrap();
            }
        });
        out[1].delete_ns = t.as_nanos() as f64 / 200.0;
        let (_, t) = timed(|| {
            for _ in 0..samples_per_op {
                std::hint::black_box(alias.sample(&mut srng));
            }
        });
        out[1].sample_ns = t.as_nanos() as f64 / samples_per_op as f64;

        // ITS (CDF table).
        let mut its = CdfTable::new(&weights).unwrap();
        let (_, t) = timed(|| {
            for i in 0..samples_per_op {
                its.insert((i % 1023) as f64 + 1.0).unwrap();
            }
        });
        out[2].insert_ns = t.as_nanos() as f64 / samples_per_op as f64;
        let (_, t) = timed(|| {
            for _ in 0..200 {
                its.remove(0).unwrap();
            }
        });
        out[2].delete_ns = t.as_nanos() as f64 / 200.0;
        let (_, t) = timed(|| {
            for _ in 0..samples_per_op {
                std::hint::black_box(its.sample(&mut srng));
            }
        });
        out[2].sample_ns = t.as_nanos() as f64 / samples_per_op as f64;

        // Rejection sampling.
        let mut rej = RejectionSampler::new(&weights).unwrap();
        let (_, t) = timed(|| {
            for i in 0..samples_per_op {
                rej.insert((i % 1023) as f64 + 1.0).unwrap();
            }
        });
        out[3].insert_ns = t.as_nanos() as f64 / samples_per_op as f64;
        let (_, t) = timed(|| {
            for _ in 0..200 {
                rej.remove(0).unwrap();
            }
        });
        out[3].delete_ns = t.as_nanos() as f64 / 200.0;
        let (_, t) = timed(|| {
            for _ in 0..samples_per_op {
                std::hint::black_box(rej.sample(&mut srng));
            }
        });
        out[3].sample_ns = t.as_nanos() as f64 / samples_per_op as f64;
        out
    };

    let names = ["Bingo", "Alias", "ITS", "Rejection"];
    let mut table = ResultTable::new(
        "Table 1: per-operation cost (ns) vs degree — Bingo vs Alias/ITS/Rejection",
        &["method", "degree", "insert_ns", "delete_ns", "sample_ns"],
    );
    for &d in &degrees {
        let costs = measure(d);
        for (i, name) in names.iter().enumerate() {
            table.push_row(vec![
                name.to_string(),
                d.to_string(),
                format!("{:.0}", costs[i].insert_ns),
                format!("{:.0}", costs[i].delete_ns),
                format!("{:.0}", costs[i].sample_ns),
            ]);
        }
    }
    table
}

/// Table 2 — dataset statistics: the paper's graphs and the generated
/// stand-ins actually used in this reproduction.
pub fn table2(config: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        format!(
            "Table 2: datasets (paper) and stand-ins (scale 1/{})",
            config.scale
        ),
        &[
            "dataset",
            "abbr",
            "paper_V",
            "paper_E",
            "paper_avg_deg",
            "paper_max_deg",
            "standin_V",
            "standin_E",
            "standin_avg_deg",
            "standin_max_deg",
        ],
    );
    for dataset in StandinDataset::all() {
        let spec = dataset.spec();
        let mut rng = config.rng(spec.paper_vertices);
        let g = dataset.build(config.scale, &mut rng);
        table.push_row(vec![
            spec.name.to_string(),
            spec.abbrev.to_string(),
            spec.paper_vertices.to_string(),
            spec.paper_edges.to_string(),
            format!("{:.1}", spec.paper_avg_degree),
            spec.paper_max_degree.to_string(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            format!("{:.1}", g.avg_degree()),
            g.max_degree().to_string(),
        ]);
    }
    table
}

fn walk_spec(app: &str, config: &ExperimentConfig) -> WalkSpec {
    match app {
        "DeepWalk" => WalkSpec::DeepWalk(DeepWalkConfig {
            walk_length: config.walk_length,
        }),
        "node2vec" => WalkSpec::Node2Vec(Node2VecConfig {
            walk_length: config.walk_length,
            p: 0.5,
            q: 2.0,
        }),
        "PPR" => WalkSpec::Ppr(PprConfig {
            stop_probability: 1.0 / config.walk_length.max(1) as f64,
            max_length: config.walk_length * 10,
        }),
        other => panic!("unknown application {other}"),
    }
}

/// Table 3 — runtime and memory of Bingo vs KnightKing, gSampler and
/// FlowWalker for DeepWalk / node2vec / PPR under insertion / deletion /
/// mixed update streams, on every dataset stand-in.
pub fn table3(config: &ExperimentConfig) -> ResultTable {
    table3_filtered(
        config,
        &StandinDataset::all(),
        &["DeepWalk", "node2vec", "PPR"],
    )
}

/// Table 3 restricted to specific datasets / applications (used for quick
/// runs and by the unit tests).
fn table3_filtered(
    config: &ExperimentConfig,
    datasets: &[StandinDataset],
    apps: &[&str],
) -> ResultTable {
    let kinds = [
        ("Insertion", UpdateKind::InsertOnly),
        ("Deletion", UpdateKind::DeleteOnly),
        ("Mixed", UpdateKind::Mixed),
    ];
    let mut table = ResultTable::new(
        "Table 3: Bingo vs SOTA — total runtime (s) and memory (MiB)",
        &[
            "application",
            "updates",
            "dataset",
            "system",
            "runtime_s",
            "memory_MiB",
            "speedup_vs_bingo",
        ],
    );
    for &app in apps {
        for (kind_name, kind) in kinds {
            for &dataset in datasets {
                let (graph, batches) = config.prepare(dataset, kind);
                let spec = walk_spec(app, config);
                let workflow = EvaluationWorkflow::new(spec, IngestMode::Batched);

                let mut bingo = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
                let bingo_report = workflow.run(&mut bingo, &batches);
                let bingo_time = bingo_report.total_time().as_secs_f64();

                let mut push = |name: &str, runtime: f64, memory: usize| {
                    let speedup = if name == "Bingo" {
                        "-".to_string()
                    } else {
                        format!("{:.2}", runtime / bingo_time.max(1e-9))
                    };
                    table.push_row(vec![
                        app.to_string(),
                        kind_name.to_string(),
                        dataset.spec().abbrev.to_string(),
                        name.to_string(),
                        format!("{runtime:.3}"),
                        fmt_mib(memory),
                        speedup,
                    ]);
                };
                push("Bingo", bingo_time, bingo_report.memory_bytes);

                let mut kk = KnightKingBaseline::build(&graph);
                let r = workflow.run(&mut kk, &batches);
                push("KnightKing", r.total_time().as_secs_f64(), r.memory_bytes);

                let mut gs = GSamplerBaseline::build(&graph);
                let r = workflow.run(&mut gs, &batches);
                push("gSampler", r.total_time().as_secs_f64(), r.memory_bytes);

                let mut fw = FlowWalkerBaseline::build(&graph);
                let r = workflow.run(&mut fw, &batches);
                push("FlowWalker", r.total_time().as_secs_f64(), r.memory_bytes);
            }
        }
    }
    table
}

/// Table 4 — group-conversion ratios while ingesting mixed updates on the
/// LiveJournal stand-in.
pub fn table4(config: &ExperimentConfig) -> ResultTable {
    use bingo_core::GroupKind;
    let (graph, batches) = config.prepare(StandinDataset::LiveJournal, UpdateKind::Mixed);
    let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    for batch in &batches {
        engine.apply_batch(batch);
    }
    let conversions = engine.conversion_matrix();
    let kinds = [
        ("Dense", GroupKind::Dense),
        ("Regular", GroupKind::Regular),
        ("Sparse", GroupKind::Sparse),
        ("One element", GroupKind::OneElement),
    ];
    let mut table = ResultTable::new(
        "Table 4: group conversion ratio (LJ stand-in, mixed updates)",
        &["from \\ to", "Dense", "Regular", "Sparse", "One element"],
    );
    for (from_name, from) in kinds {
        let mut row = vec![from_name.to_string()];
        for (_, to) in kinds {
            if from == to {
                row.push("—".to_string());
            } else {
                row.push(format!("{:.4}%", conversions.ratio(from, to) * 100.0));
            }
        }
        table.push_row(row);
    }
    table
}

/// A tiny smoke configuration used by unit tests.
pub fn smoke_config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 8000,
        batch_size: 100,
        rounds: 1,
        walk_length: 5,
        seed: 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_all_methods_and_degrees() {
        let mut config = smoke_config();
        config.seed = 1;
        let t = table1(&config);
        assert_eq!(t.rows.len(), 4 * 4);
        assert!(t.rows.iter().any(|r| r[0] == "Bingo"));
    }

    #[test]
    fn table2_lists_five_datasets() {
        let t = table2(&smoke_config());
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0][1], "AM");
        assert_eq!(t.rows[4][1], "TW");
    }

    #[test]
    fn table3_smoke_run_has_all_systems() {
        let t = table3_filtered(&smoke_config(), &[StandinDataset::Amazon], &["DeepWalk"]);
        // 1 app × 3 kinds × 1 dataset × 4 systems.
        assert_eq!(t.rows.len(), 12);
        let systems: std::collections::HashSet<&str> =
            t.rows.iter().map(|r| r[3].as_str()).collect();
        assert_eq!(systems.len(), 4);
        // Every runtime parses as a positive float.
        for row in &t.rows {
            assert!(row[4].parse::<f64>().unwrap() >= 0.0);
        }
    }

    #[test]
    fn table4_has_four_by_four_shape() {
        let t = table4(&smoke_config());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.rows[0].len(), 5);
        assert_eq!(t.rows[0][1], "—");
    }
}
