//! Transport experiment: what the serialized distribution boundary costs.
//!
//! Goes beyond the paper's single-machine evaluation: every cross-shard
//! forward is round-tripped through the versioned wire format of
//! `bingo_walks::wire` (encode → carry → decode → rebuild) and compared
//! with plain in-process forwarding on the same seed. Three quantities
//! matter: the walk output must be **bit-identical** (the `identical`
//! column), the per-forward wire cost (`bytes_per_fwd`) with the handle
//! hit rate that keeps it low, and the throughput delta — the price of
//! making the accounted bytes real bytes. A final row runs the snapshot
//! caches under structural churn: scoped invalidation evicts only the
//! touched vertices, so the handle hit rate must stay high across epochs.

use crate::common::{timed, ExperimentConfig, ResultTable};
use bingo_graph::{Bias, DynamicGraph, UpdateBatch, UpdateEvent, VertexId};
use bingo_service::{ServiceConfig, TransportMode, WalkService};
use bingo_walks::{Node2VecConfig, WalkSpec};

const NUM_VERTICES: usize = 128;
const WAVES: usize = 3;
const CHURN_ROUNDS: u32 = 8;

/// A vertex-transitive ring with chords: out-degree 4, so an exact
/// membership snapshot (25 bytes) is larger than a 16-byte handle and
/// negotiation engages.
fn chord_graph() -> DynamicGraph {
    let n = NUM_VERTICES as u32;
    let mut g = DynamicGraph::new(NUM_VERTICES);
    for v in 0..n {
        for (shift, bias) in [(1, 3), (2, 2), (5, 2), (9, 1)] {
            g.insert_edge(v, (v + shift) % n, Bias::from_int(bias))
                .unwrap();
        }
    }
    g
}

fn spec(config: &ExperimentConfig) -> WalkSpec {
    WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: config.walk_length.clamp(4, 40),
        p: 0.5,
        q: 2.0,
    })
}

fn build(config: &ExperimentConfig, shards: usize, mode: TransportMode) -> WalkService {
    let graph = chord_graph();
    WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: shards,
            seed: config.seed,
            transport: mode,
            ..ServiceConfig::default()
        },
    )
    .expect("service builds")
}

/// `WAVES` identical node2vec waves from every vertex; repeat waves in
/// one epoch are what let handle negotiation hit.
fn run_waves(service: &WalkService, config: &ExperimentConfig) -> Vec<Vec<VertexId>> {
    let starts: Vec<VertexId> = (0..NUM_VERTICES as VertexId).collect();
    let mut paths = Vec::new();
    for _ in 0..WAVES {
        let results = service.wait(service.submit(spec(config), &starts).expect("submit"));
        paths.extend(results.paths);
    }
    paths
}

/// Serialized round-trip vs in-process forwarding, plus the snapshot
/// caches' hit rate under structural churn.
pub fn transport(config: &ExperimentConfig) -> ResultTable {
    let mut table = ResultTable::new(
        "Transport: serialized wire round-trip vs in-process forwarding",
        &[
            "mode",
            "shards",
            "walks",
            "kstep/s",
            "fwd",
            "wire_bytes",
            "bytes_per_fwd",
            "handle_hit_rate",
            "identical",
        ],
    );

    for &shards in &[2usize, 4, 8] {
        let mut baseline_paths = None;
        for mode in [TransportMode::InProcess, TransportMode::Serialized] {
            let service = build(config, shards, mode);
            let (paths, elapsed) = timed(|| run_waves(&service, config));
            let stats = service.shutdown();
            let identical = match &baseline_paths {
                None => {
                    baseline_paths = Some(paths);
                    "-".to_string()
                }
                Some(base) => if *base == paths { "yes" } else { "NO" }.to_string(),
            };
            let fwd = stats.total_forwards();
            let wire_bytes = stats.total_transport_bytes_sent();
            table.push_row(vec![
                match mode {
                    TransportMode::InProcess => "inprocess",
                    TransportMode::Serialized => "serialized",
                }
                .to_string(),
                shards.to_string(),
                stats.total_walks_completed().to_string(),
                format!(
                    "{:.1}",
                    stats.total_steps() as f64 / elapsed.as_secs_f64().max(1e-9) / 1e3
                ),
                fwd.to_string(),
                wire_bytes.to_string(),
                format!("{:.1}", wire_bytes as f64 / fwd.max(1) as f64),
                format!("{:.3}", stats.handle_hit_rate()),
                identical,
            ]);
        }
    }

    // Scoped invalidation under structural churn: one touched vertex per
    // shard per round, a walk wave between rounds.
    let service = build(config, 4, TransportMode::InProcess);
    let starts: Vec<VertexId> = (0..NUM_VERTICES as VertexId).collect();
    let span = NUM_VERTICES as u32 / 4;
    let (_, elapsed) = timed(|| {
        for round in 0..CHURN_ROUNDS {
            service.wait(service.submit(spec(config), &starts).expect("submit"));
            let events: Vec<UpdateEvent> = (0..4)
                .map(|shard| {
                    let src = shard * span + round;
                    UpdateEvent::Insert {
                        src,
                        dst: (src + 17 + round) % NUM_VERTICES as u32,
                        bias: Bias::from_int(1),
                    }
                })
                .collect();
            let receipt = service.ingest(&UpdateBatch::new(events));
            service.sync(receipt);
        }
    });
    let stats = service.shutdown();
    let fwd = stats.total_forwards();
    table.push_row(vec![
        "scoped-inval".to_string(),
        "4".to_string(),
        stats.total_walks_completed().to_string(),
        format!(
            "{:.1}",
            stats.total_steps() as f64 / elapsed.as_secs_f64().max(1e-9) / 1e3
        ),
        fwd.to_string(),
        stats.total_context_bytes().to_string(),
        format!(
            "{:.1}",
            stats.total_context_bytes() as f64 / fwd.max(1) as f64
        ),
        format!("{:.3}", stats.handle_hit_rate()),
        "-".to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialized_rows_are_bit_identical_and_churn_keeps_handles_hitting() {
        let config = ExperimentConfig {
            walk_length: 8,
            ..ExperimentConfig::default()
        };
        let table = transport(&config);
        assert_eq!(table.rows.len(), 7, "3 shard pairs + the churn row");
        for row in &table.rows {
            if row[0] == "serialized" {
                assert_eq!(row[8], "yes", "serialized must match in-process: {row:?}");
                assert!(
                    row[5].parse::<u64>().unwrap() > 0,
                    "frames shipped: {row:?}"
                );
            }
            if row[0] == "inprocess" {
                assert_eq!(row[5], "0", "no frames in-process: {row:?}");
            }
        }
        let churn = table.rows.last().expect("churn row");
        assert_eq!(churn[0], "scoped-inval");
        let hit: f64 = churn[7].parse().unwrap();
        // 0.949 on this workload; flushing every snapshot a structurally
        // updated shard owns (the retired wholesale policy) measured 0.692.
        assert!(hit > 0.9, "churn must not cool the snapshot caches: {hit}");
    }
}
