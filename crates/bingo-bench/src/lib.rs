//! # bingo-bench
//!
//! Benchmark harness that regenerates every table and figure of the Bingo
//! paper's evaluation (§6) on scaled-down stand-in datasets.
//!
//! The `repro` binary drives the experiments:
//!
//! ```text
//! cargo run --release -p bingo-bench --bin repro -- all
//! cargo run --release -p bingo-bench --bin repro -- table3 --scale 2000 --batch 2000
//! ```
//!
//! and, for a perf PR's evidence, alternating parent/change runs of the
//! repository benchmark (see [`pairs`]):
//!
//! ```text
//! repro pairs --pr 22 --parent <bin> --change <bin> --workload engine_batch --seed 7 --n 10
//! ```
//!
//! Each experiment prints a human-readable table to stdout and writes a CSV
//! file under `results/`. Absolute numbers differ from the paper (CPU
//! stand-ins instead of A100 GPUs and billion-edge graphs); the quantities
//! to compare are the *relative* ones: who wins, by roughly what factor, and
//! how the trends move with the swept parameter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod experiments;
pub mod pairs;

pub use common::{ExperimentConfig, ResultTable};
