//! `repro` — regenerate the tables and figures of the Bingo paper.
//!
//! ```text
//! repro all                       # every experiment at laptop scale
//! repro table3                    # one experiment
//! repro table3 --scale 500 --batch 10000 --rounds 10 --walk-length 80
//! repro list                      # list available experiments
//! repro pairs --pr 22 --parent <bin> --change <bin> --workload engine_batch --seed 7 --n 10 [--trace | --setup]
//!                                 # alternating runs (or set-ups) of two builds of the repo benchmark
//! ```
//!
//! Results are printed to stdout and written as CSV files under `results/`.

use bingo_bench::common::ExperimentConfig;
use bingo_bench::experiments;
use bingo_bench::pairs::{self, PairsArgs};
use bingo_bench::ResultTable;

struct Experiment {
    name: &'static str,
    description: &'static str,
    run: fn(&ExperimentConfig) -> ResultTable,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        description: "Complexity comparison: Bingo vs Alias/ITS/Rejection (per-op cost vs degree)",
        run: experiments::table1,
    },
    Experiment {
        name: "table2",
        description: "Dataset statistics: paper graphs vs generated stand-ins",
        run: experiments::table2,
    },
    Experiment {
        name: "table3",
        description: "Bingo vs KnightKing/gSampler/FlowWalker: runtime and memory",
        run: experiments::table3,
    },
    Experiment {
        name: "table4",
        description: "Group-type conversion ratios (LJ stand-in, mixed updates)",
        run: experiments::table4,
    },
    Experiment {
        name: "fig9",
        description: "Group element ratio per radix group for three bias distributions",
        run: experiments::fig9,
    },
    Experiment {
        name: "fig11",
        description: "Adaptive group representation: memory savings BS vs GA",
        run: experiments::fig11,
    },
    Experiment {
        name: "fig12",
        description: "Streaming vs batched update throughput",
        run: experiments::fig12,
    },
    Experiment {
        name: "fig13",
        description: "Time breakdown BS vs GA",
        run: experiments::fig13,
    },
    Experiment {
        name: "fig14",
        description: "Integer vs floating-point bias: time and memory",
        run: experiments::fig14,
    },
    Experiment {
        name: "fig15a",
        description: "Runtime vs update batch size (gSampler vs Bingo)",
        run: experiments::fig15a,
    },
    Experiment {
        name: "fig15b",
        description: "Runtime vs walk length (gSampler vs Bingo)",
        run: experiments::fig15b,
    },
    Experiment {
        name: "fig15c",
        description: "Runtime and memory vs bias distribution",
        run: experiments::fig15c,
    },
    Experiment {
        name: "fig16",
        description:
            "Piecewise breakdown: insertions, deletions and sampling (Bingo vs FlowWalker)",
        run: experiments::fig16,
    },
    Experiment {
        name: "radix_base",
        description: "Radix-base ablation (§9.2): sample and update cost vs base",
        run: experiments::radix_base,
    },
];

fn print_usage() {
    eprintln!("usage: repro <experiment|all|list> [--scale N] [--batch N] [--rounds N] [--walk-length N] [--seed N] [--paper-scale]");
    eprintln!("       repro pairs --pr N --parent <bin> --change <bin> --workload W [--seed N] [--n N] [--trace | --setup]");
    eprintln!("experiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<10} {}", e.name, e.description);
    }
}

fn parse_config(args: &[String]) -> Result<ExperimentConfig, String> {
    let mut config = ExperimentConfig::default();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        if key == "--paper-scale" {
            config = ExperimentConfig::paper_scale();
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?
            .parse::<u64>()
            .map_err(|_| format!("invalid value for {key}"))?;
        match key {
            "--scale" => config.scale = value.max(1),
            "--batch" => config.batch_size = value as usize,
            "--rounds" => config.rounds = value as usize,
            "--walk-length" => config.walk_length = value as usize,
            "--seed" => config.seed = value,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(config)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(target) = args.first().cloned() else {
        print_usage();
        std::process::exit(2);
    };
    if target == "list" {
        print_usage();
        return;
    }
    if target == "pairs" {
        match PairsArgs::parse(&args[1..]).and_then(|args| pairs::run(&args)) {
            Ok(path) => println!("\nwritten {}", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                print_usage();
                std::process::exit(2);
            }
        }
        return;
    }
    let config = match parse_config(&args[1..]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };
    println!(
        "configuration: scale=1/{} batch={} rounds={} walk_length={} seed={:#x}",
        config.scale, config.batch_size, config.rounds, config.walk_length, config.seed
    );
    println!("(paper parameters: scale=1/1 batch=100000 rounds=10 walk_length=80 — pass --paper-scale on a large machine)");

    let selected: Vec<&Experiment> = if target == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        match EXPERIMENTS.iter().find(|e| e.name == target) {
            Some(e) => vec![e],
            None => {
                eprintln!("unknown experiment '{target}'");
                print_usage();
                std::process::exit(2);
            }
        }
    };

    for experiment in selected {
        eprintln!("\nrunning {} — {}", experiment.name, experiment.description);
        let start = std::time::Instant::now();
        let table = (experiment.run)(&config);
        let elapsed = start.elapsed();
        table.print();
        match table.write_csv(experiment.name) {
            Ok(path) => println!("written {}", path.display()),
            Err(e) => eprintln!("could not write CSV for {}: {e}", experiment.name),
        }
        // Machine-readable one-liner for trajectory capture.
        println!("{}", table.json_summary(experiment.name, elapsed));
        eprintln!(
            "{} finished in {:.1}s",
            experiment.name,
            elapsed.as_secs_f64()
        );
    }
}
