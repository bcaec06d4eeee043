//! Shared infrastructure for the experiment harness: configuration, dataset
//! preparation, timing helpers, and result tables (stdout + CSV).

use bingo_graph::datasets::StandinDataset;
use bingo_graph::updates::{UpdateKind, UpdateStreamBuilder};
use bingo_graph::{DynamicGraph, UpdateBatch};
use bingo_sampling::rng::Pcg64;
use bingo_telemetry::json::{JsonArray, JsonObject};
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Global knobs shared by every experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Divisor applied to the real dataset sizes when generating stand-ins
    /// (the paper's graphs divided by `scale`).
    pub scale: u64,
    /// Updates per batch (the paper uses 100 000).
    pub batch_size: usize,
    /// Number of rounds (the paper uses 10).
    pub rounds: usize,
    /// Walk length for DeepWalk / node2vec (the paper uses 80).
    pub walk_length: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 2000,
            batch_size: 2000,
            rounds: 3,
            walk_length: 20,
            seed: 0xB1460,
        }
    }
}

impl ExperimentConfig {
    /// Configuration matching the paper's parameters (only practical on a
    /// large machine; the default is a laptop-scale version).
    pub fn paper_scale() -> Self {
        ExperimentConfig {
            scale: 1,
            batch_size: 100_000,
            rounds: 10,
            walk_length: 80,
            seed: 0xB1460,
        }
    }

    /// A deterministic RNG derived from the experiment seed and a salt.
    pub fn rng(&self, salt: u64) -> Pcg64 {
        Pcg64::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Build the stand-in graph for `dataset` plus an update stream of
    /// `rounds × batch_size` events of the given kind, split into per-round
    /// batches. Returns `(initial_graph, batches)`.
    pub fn prepare(
        &self,
        dataset: StandinDataset,
        kind: UpdateKind,
    ) -> (DynamicGraph, Vec<UpdateBatch>) {
        let mut rng = self.rng(dataset.spec().paper_vertices ^ kind_salt(kind));
        let mut graph = dataset.build(self.scale, &mut rng);
        let total_updates = self.rounds * self.batch_size;
        // Reserve the insertion pool exactly as §6.1 does: 10 × BATCHSIZE
        // edges (bounded by half the graph so tiny stand-ins stay usable).
        let reserve = (total_updates).min(graph.num_edges() / 2);
        let stream =
            UpdateStreamBuilder::new(kind, reserve).build(&mut graph, total_updates, &mut rng);
        let batches = stream.chunks(self.batch_size.max(1));
        (graph, batches)
    }
}

fn kind_salt(kind: UpdateKind) -> u64 {
    match kind {
        UpdateKind::InsertOnly => 1,
        UpdateKind::DeleteOnly => 2,
        UpdateKind::Mixed => 3,
    }
}

/// Time a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A printable, CSV-exportable result table.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Table title (e.g. "Table 3: Bingo vs SOTA").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// What the table covers and what it leaves out, printed between the
    /// title and the header.
    pub notes: Vec<String>,
}

impl ResultTable {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render the table for stdout.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n=== {} ===\n", self.title));
        for note in &self.notes {
            out.push_str(&format!("({note})\n"));
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// One-line machine-readable JSON summary of an experiment run, for
    /// trajectory capture (`BENCH_*.json`-style tooling). Built on the
    /// shared [`bingo_telemetry::json`] writer (the offline build
    /// environment has no serde); cell values are emitted as JSON strings.
    pub fn json_summary(&self, name: &str, elapsed: Duration) -> String {
        let mut headers = JsonArray::new();
        for h in &self.headers {
            headers.push_str_elem(h);
        }
        let mut rows = JsonArray::new();
        for row in &self.rows {
            let mut cells = JsonArray::new();
            for cell in row {
                cells.push_str_elem(cell);
            }
            rows.push_raw(&cells.finish());
        }
        let mut obj = JsonObject::new();
        obj.field_str("experiment", name)
            .field_str("title", &self.title)
            .field_num("elapsed_s", format!("{:.3}", elapsed.as_secs_f64()))
            .field_raw("headers", &headers.finish())
            .field_raw("rows", &rows.finish());
        if !self.notes.is_empty() {
            let mut notes = JsonArray::new();
            for note in &self.notes {
                notes.push_str_elem(note);
            }
            obj.field_raw("notes", &notes.finish());
        }
        obj.finish()
    }

    /// Write the table as CSV under `results/<name>.csv` (relative to the
    /// workspace root, falling back to the current directory).
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut content = String::new();
        content.push_str(&self.headers.join(","));
        content.push('\n');
        for row in &self.rows {
            content.push_str(&row.join(","));
            content.push('\n');
        }
        std::fs::write(&path, content)?;
        Ok(path)
    }
}

/// The directory experiment CSVs are written to.
pub fn results_dir() -> PathBuf {
    // Prefer the workspace root (two levels up from this crate) when it
    // exists, otherwise use ./results.
    let candidate = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results");
    if candidate.parent().map(|p| p.exists()).unwrap_or(false) {
        candidate
    } else {
        PathBuf::from("results")
    }
}

/// Format a byte count as mebibytes with two decimals.
pub fn fmt_mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_laptop_scale() {
        let c = ExperimentConfig::default();
        assert!(c.scale > 1);
        assert!(c.batch_size <= 10_000);
        assert_eq!(ExperimentConfig::paper_scale().batch_size, 100_000);
    }

    #[test]
    fn prepare_generates_rounds_times_batch_updates() {
        let config = ExperimentConfig {
            scale: 4000,
            batch_size: 200,
            rounds: 2,
            ..ExperimentConfig::default()
        };
        let (graph, batches) = config.prepare(StandinDataset::Amazon, UpdateKind::Mixed);
        assert!(graph.num_edges() > 0);
        assert_eq!(batches.len(), 2);
        let total: usize = batches.iter().map(UpdateBatch::len).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn prepare_is_deterministic() {
        let config = ExperimentConfig {
            scale: 4000,
            batch_size: 100,
            rounds: 1,
            ..ExperimentConfig::default()
        };
        let (g1, b1) = config.prepare(StandinDataset::Google, UpdateKind::InsertOnly);
        let (g2, b2) = config.prepare(StandinDataset::Google, UpdateKind::InsertOnly);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(b1, b2);
    }

    #[test]
    fn result_table_renders_and_writes_csv() {
        let mut t = ResultTable::new("Test table", &["a", "b"]);
        t.push_row(vec!["1".into(), "long-cell".into()]);
        let rendered = t.render();
        assert!(rendered.contains("Test table"));
        assert!(rendered.contains("long-cell"));
        let path = t.write_csv("test_table_unit").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn json_summary_escapes_its_strings() {
        let mut t = ResultTable::new("Quote \" table", &["a"]);
        t.push_row(vec!["x\ny".into()]);
        let plain = t.json_summary("unit", Duration::from_millis(1500));
        assert!(plain.contains("\"experiment\":\"unit\""));
        assert!(plain.contains("\"elapsed_s\":1.500"));
        assert!(plain.contains("Quote \\\" table"));
        assert!(plain.contains("x\\ny"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_mib(1024 * 1024), "1.00");
        let (x, d) = timed(|| 2 + 2);
        assert_eq!(x, 4);
        assert!(d.as_nanos() > 0);
    }
}
