//! Command line of the repo benchmark.
//!
//! ```text
//! bingo-benchmark [run] --workload W --seed N --seconds S --trace 0|1 [--quick]
//! bingo-benchmark ledger --seeds 1,2,3 --out FILE [--seconds S] [--quick] [--reverse]
//! bingo-benchmark compare BASELINE.json CANDIDATE.json
//! ```
//!
//! (`setup --workload W --seed N` is the timed run's own helper: one
//! set-up in a fresh process.)
//!
//! `run` is what `BENCHMARK.json`'s command invokes: one workload, one
//! pass kind, one JSON object as the last line of standard output.

use bingo_benchmark::json::Json;
use bingo_benchmark::ledger::{self, Contract, MetricDef};
use bingo_benchmark::workloads::{self, RunOutcome, Workload};
use bingo_benchmark::{micro, stats};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  bingo-benchmark [run] --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]
  bingo-benchmark ledger --seeds <a,b,..> --out <file> [--seconds <n>] [--quick] [--reverse]
  bingo-benchmark compare <baseline.json> <candidate.json>";

/// Where traced passes leave their spans: `benchmark/out/`, next to the
/// sources this binary was built from.
fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", workload.name()))
}

struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.value(flag)
            .ok_or_else(|| format!("missing {flag}"))?
            .parse()
            .map_err(|_| format!("bad value for {flag}"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.value("--workload").ok_or("missing --workload")?;
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// Render a run's result line, checking it against the contract: exactly
/// the contract's names, each with a finite value. With `absent_is_zero` a
/// name the run did not measure reads 0, like every figure that does not
/// apply to a workload.
fn result_line(
    outcome: &RunOutcome,
    expected: &[MetricDef],
    absent_is_zero: bool,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(expected.len());
    for def in expected {
        let value = match outcome.metrics.get(&def.name) {
            Some(value) => value,
            None if absent_is_zero => 0.0,
            None => return Err(format!("metric {} was not measured", def.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite", def.name));
        }
        metrics.push((
            def.name.clone(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.clone())),
            ]),
        ));
    }
    if let Some((name, _)) = outcome
        .metrics
        .iter()
        .find(|(name, _)| !expected.iter().any(|d| d.name == *name))
    {
        return Err(format!("metric {name} is not in BENCHMARK.json"));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render())
}

/// Pin the worker team before anything touches the pool, so a run on a
/// bigger box is not a different experiment. Returns `(nproc, threads)`.
fn pin_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(4);
    std::env::set_var("BINGO_THREADS", threads.to_string());
    (nproc, threads)
}

/// Returns whether the run was correct; its result line is printed either
/// way.
fn run(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload()?;
    let seed: u64 = flags.parsed("--seed")?;
    let seconds: f64 = flags.parsed("--seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    let traced = match flags.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let quick = flags.has("--quick");

    let (nproc, threads) = pin_threads();
    eprintln!(
        "{} seed={seed} seconds={seconds} trace={} quick={quick} nproc={nproc} BINGO_THREADS={threads}",
        workload.name(),
        u8::from(traced)
    );

    let contract = Contract::load();
    let (line, correct) = if traced {
        let mut outcome =
            workloads::run_traced(workload, seed, seconds, quick, &trace_path(workload));
        // The micro passes and the ladder run on a graph of their own, so
        // one traced run measures them for all: `engine_batch`'s, the bare
        // engine the ladder's lowest rungs stand on. Elsewhere they read 0.
        let with_micro = workload == Workload::EngineBatch;
        if with_micro {
            outcome.metrics.extend(micro::run(seed, quick));
        }
        (
            result_line(&outcome, &contract.per_layer, !with_micro)?,
            outcome.correct,
        )
    } else {
        // Quick mode times the one set-up the pass needs anyway.
        let more_setups = (1..if quick { 1 } else { workloads::SETUP_REPS })
            .map(|_| child_setup(workload, seed))
            .collect::<Result<Vec<f64>, String>>()?;
        let outcome = workloads::run_timed(workload, seed, seconds, quick, &more_setups);
        (
            result_line(&outcome, &contract.end_to_end, false)?,
            outcome.correct,
        )
    };
    println!("{line}");
    Ok(correct)
}

/// Time one set-up in a child process with a fresh heap.
fn child_setup(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args([
            "setup",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| format!("set-up child failed with {}", output.status))
}

/// `setup`: one full-size set-up, its seconds on standard output.
fn setup(flags: &Flags) -> Result<(), String> {
    let workload = flags.workload()?;
    pin_threads();
    println!(
        "{}",
        workloads::setup_once(workload, flags.parsed("--seed")?, false)
    );
    Ok(())
}

/// Run `run` in a child process (peak memory is per process) and parse
/// its result line. A run that failed its checks exits 1 and still has one;
/// anything else that is not success printed none.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command.args([
        "run",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if quick {
        command.arg("--quick");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!(
            "{workload} seed {seed}: run exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    Json::parse(line)
}

/// Returns whether every run was correct; the ledger is written either
/// way, so a failed check can be looked at.
fn ledger(flags: &Flags) -> Result<bool, String> {
    let contract = Contract::load();
    let quick = flags.has("--quick");
    let seconds: f64 = match flags.value("--seconds") {
        Some(_) => flags.parsed("--seconds")?,
        None if quick => 1.5,
        None => contract.run_seconds,
    };
    let seeds: Vec<u64> = flags
        .value("--seeds")
        .ok_or("missing --seeds")?
        .split(',')
        .map(|s| s.parse().map_err(|_| format!("bad seed {s}")))
        .collect::<Result<_, _>>()?;
    let out = flags.value("--out").ok_or("missing --out")?;
    let mut order: Vec<&String> = contract.workloads.iter().collect();
    if flags.has("--reverse") {
        order.reverse();
    }

    let number = |run: &Json, key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in order {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); contract.end_to_end.len()];
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        for &seed in &seeds {
            let run = child_run(workload, seed, seconds, false, quick)?;
            attempted += number(&run, "attempted");
            failed += number(&run, "failed");
            correct &= run.get("correct").and_then(Json::as_bool) == Some(true);
            for (def, series) in contract.end_to_end.iter().zip(&mut values) {
                let value = run
                    .get("metrics")
                    .and_then(|m| m.get(&def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload}: run lacks {}", def.name))?;
                series.push(value);
            }
        }
        let traced = child_run(workload, seeds[0], seconds, true, quick)?;
        correct &= traced.get("correct").and_then(Json::as_bool) == Some(true);
        all_correct &= correct;
        let end_to_end = contract
            .end_to_end
            .iter()
            .zip(&values)
            .map(|(def, series)| {
                println!(
                    "{workload:<22} {:<22} median {:>14.4} {:<8} spread {:5.2}%  range {:5.2}%",
                    def.name,
                    stats::median(series),
                    def.unit,
                    100.0 * stats::iqr_share(series),
                    100.0 * (stats::quantile(series, 1.0) - stats::quantile(series, 0.0))
                        / stats::median(series).abs().max(f64::MIN_POSITIVE),
                );
                (
                    def.name.clone(),
                    Json::obj(vec![
                        ("unit", Json::Str(def.unit.clone())),
                        (
                            "values",
                            Json::Arr(series.iter().map(|&v| Json::Num(v)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        workloads.push((
            workload.clone(),
            Json::obj(vec![
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::Obj(end_to_end)),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let ledger = Json::obj(vec![
        ("quick", Json::Bool(quick)),
        ("seconds", Json::Num(seconds)),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(out, ledger.render() + "\n").map_err(|e| format!("{out}: {e}"))?;
    Ok(all_correct)
}

/// Returns whether the candidate is no worse than the baseline.
fn compare(args: &[String]) -> Result<bool, String> {
    let [baseline, candidate] = args else {
        return Err("compare takes two ledger files".to_string());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = ledger::compare(&Contract::load(), &read(baseline)?, &read(candidate)?)?;
    for row in &comparison.rows {
        println!("{row}");
    }
    Ok(!comparison.regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Exit 0: done and good. Exit 1: done, but a check failed or the
    // candidate regressed. Exit 2: could not be done.
    let good = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("ledger") => ledger(&Flags(args[1..].to_vec())),
        Some("run") => run(&Flags(args[1..].to_vec())),
        Some("setup") => setup(&Flags(args[1..].to_vec())).map(|()| true),
        Some(flag) if flag.starts_with("--") => run(&Flags(args)),
        _ => Err(USAGE.to_string()),
    };
    match good {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
