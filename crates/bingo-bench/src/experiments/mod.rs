//! One module per group of tables/figures from the paper's evaluation.
//!
//! | Experiment | Paper artefact | Function |
//! |---|---|---|
//! | Complexity microbenchmark | Table 1 | [`tables::table1`] |
//! | Dataset statistics | Table 2 | [`tables::table2`] |
//! | Bingo vs SOTA runtime & memory | Table 3 | [`tables::table3`] |
//! | Group conversion ratio | Table 4 | [`tables::table4`] |
//! | Group element ratio per distribution | Figure 9 | [`sweeps::fig9`] |
//! | Adaptive-group memory savings | Figure 11 | [`memory::fig11`] |
//! | Streaming vs batched throughput | Figure 12 | [`updates::fig12`] |
//! | BS vs GA time breakdown | Figure 13 | [`memory::fig13`] |
//! | Integer vs floating-point bias | Figure 14 | [`memory::fig14`] |
//! | Batch size / walk length / distribution sweeps | Figure 15 | [`sweeps::fig15a`] etc. |
//! | Piecewise update & sampling breakdown | Figure 16 | [`updates::fig16`] |
//! | Radix-base ablation | §9.2 (described, not evaluated) | [`sweeps::radix_base`] |
//!
//! Only the paper's own artefacts live here. What the serving stack costs is
//! timed by the repository benchmark (`benchmark/`, one ledger row per
//! layer); what it must do is asserted by the tests under `tests/`.

pub mod memory;
pub mod sweeps;
pub mod tables;
pub mod updates;

pub use memory::{fig11, fig13, fig14};
pub use sweeps::{fig15a, fig15b, fig15c, fig9, radix_base};
pub use tables::{table1, table2, table3, table4};
pub use updates::{fig12, fig16};
