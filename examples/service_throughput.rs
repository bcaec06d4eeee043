//! Sharded walk service under load: four shards serve a DeepWalk wave after
//! every batch of a 12 000-event insert/delete/reweight stream, without
//! waiting for the wave before the next batch. Then the same service — the
//! one that applied the updates — is checked: the busiest vertex's
//! transitions are chi-squared against the fully-updated graph, a node2vec
//! wave exercises the forwarded-context path (over the serialized
//! transport, so the context bytes it reports were framed), and the
//! `ServiceStats` are printed as their one JSON rendering.
//!
//! The example asserts what it shows and exits non-zero otherwise. What
//! the stack *costs* — steps/s, the hottest shard's step share, telemetry
//! overhead — is measured by the repository benchmark (`benchmark/`), not
//! here.
//!
//! ```text
//! cargo run --release --example service_throughput
//! ```

use bingo::prelude::*;
use bingo::sampling::stats::{chi_square, chi_square_critical_999};
use bingo::service::{PartitionStrategy, ServiceConfig, TransportMode};
use bingo_graph::updates::UpdateKind;
use std::collections::BTreeMap;

const SHARDS: usize = 4;
const TOTAL_EVENTS: usize = 12_000;
const BATCH_SIZE: usize = 600;
const WALK_LEN: usize = 20;

fn main() {
    // A scaled-down LiveJournal stand-in plus a mixed update stream.
    let mut rng = Pcg64::seed_from_u64(0x5E71CE);
    let mut graph = bingo::graph::datasets::StandinDataset::LiveJournal.build(1_000, &mut rng);
    let stream = UpdateStreamBuilder::new(UpdateKind::Mixed, TOTAL_EVENTS).build(
        &mut graph,
        TOTAL_EVENTS,
        &mut rng,
    );
    let batches = stream.chunks(BATCH_SIZE);
    println!(
        "graph: {} vertices, {} edges; update stream: {} events in {} batches",
        graph.num_vertices(),
        graph.num_edges(),
        stream.len(),
        batches.len()
    );

    // The power-law stand-in concentrates degree in the low vertex ids; the
    // degree-balanced split keeps them from all landing on shard 0.
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: SHARDS,
            seed: 0x7417,
            partition: PartitionStrategy::DegreeBalanced,
            transport: TransportMode::Serialized,
            ..ServiceConfig::default()
        },
    )
    .expect("service builds");

    // Updates beside walks: one wave up front, one after every batch, none
    // of them waited for until the whole stream is in.
    let starts: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
    let spec = WalkSpec::DeepWalk(DeepWalkConfig {
        walk_length: WALK_LEN,
    });
    let t0 = std::time::Instant::now();
    let mut tickets = vec![service.submit(spec, &starts).expect("submit")];
    let mut last_receipt = None;
    for batch in &batches {
        last_receipt = Some(service.ingest(batch));
        tickets.push(service.submit(spec, &starts).expect("submit"));
    }
    let waves: Vec<TicketResults> = tickets.into_iter().map(|t| service.wait(t)).collect();
    let elapsed = t0.elapsed();
    service.sync(last_receipt.expect("at least one batch"));

    let total_steps: usize = waves.iter().map(TicketResults::total_steps).sum();
    let total_walks: usize = waves.iter().map(|w| w.paths.len()).sum();
    println!(
        "served {total_walks} walks ({total_steps} steps) across {} waves while ingesting {} \
         events in {:.3}s ({:.0} ksteps/s)",
        waves.len(),
        stream.len(),
        elapsed.as_secs_f64(),
        total_steps as f64 / elapsed.as_secs_f64() / 1e3,
    );

    // The service now holds the fully-updated graph: chi-square the busiest
    // vertex's transitions against the edge biases of a mirror that applied
    // the same stream.
    let mut mirror = graph.clone();
    mirror.apply_batch(&stream);
    let v = (0..mirror.num_vertices() as VertexId)
        .max_by_key(|&v| mirror.degree(v))
        .expect("non-empty graph");
    let mut expected: BTreeMap<VertexId, f64> = BTreeMap::new();
    for e in mirror.neighbors(v).expect("vertex in range").edges() {
        *expected.entry(e.dst).or_insert(0.0) += e.bias.value();
    }
    let total_bias: f64 = expected.values().sum();
    let probs: Vec<f64> = expected.values().map(|w| w / total_bias).collect();

    let trials = 60_000;
    let ticket = service
        .submit(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 1 }),
            &vec![v; trials],
        )
        .expect("submit");
    let results = service.wait(ticket);
    let mut counts: BTreeMap<VertexId, usize> = expected.keys().map(|&dst| (dst, 0)).collect();
    for path in &results.paths {
        *counts.get_mut(&path[1]).expect("sampled an alive edge") += 1;
    }
    let observed: Vec<usize> = counts.values().copied().collect();
    let stat = chi_square(&observed, &probs);
    let critical = chi_square_critical_999(probs.len() - 1) * 1.5;
    println!(
        "chi-square validation at vertex {v} (degree {}, {} distinct dsts): \
         stat {stat:.2} vs critical {critical:.2}",
        mirror.degree(v),
        probs.len(),
    );

    // A node2vec wave: the second-order factor needs the previous vertex's
    // adjacency, which crosses shards inside forwarded context
    // fingerprints.
    let n2v = service.wait(
        service
            .submit_all_vertices(WalkSpec::Node2Vec(Node2VecConfig {
                walk_length: WALK_LEN,
                p: 0.5,
                q: 2.0,
            }))
            .expect("submit node2vec"),
    );
    println!(
        "node2vec wave: {} walks, {} steps",
        n2v.paths.len(),
        n2v.total_steps()
    );

    // Snapshots are captured once per (vertex, epoch) and Arc-shared by
    // every walker forwarded in the same wave, so the bytes materialized
    // fall far below one exact Vec per forward.
    let stats = service.shutdown();
    println!("service stats: {}", stats.to_json());
    let shrink = stats.context_shrink_factor();

    assert!(stream.len() >= 10_000, "example must ingest >= 10k events");
    assert!(
        stats
            .per_shard
            .iter()
            .all(|s| s.epoch == batches.len() as u64),
        "every shard applied every batch"
    );
    assert!(stat < critical, "sampling distribution diverged");
    assert_eq!(
        n2v.paths.len(),
        mirror.num_vertices(),
        "node2vec wave served"
    );
    assert!(
        stats.total_context_bytes() > 0,
        "node2vec forwards carried context"
    );
    assert!(
        shrink >= 5.0,
        "forwarded-context bytes must drop >=5x vs the exact-Vec baseline ({shrink:.1}x)"
    );
    assert!(
        stats.context_cache_hit_rate() > 0.0,
        "wave-shared snapshots must be reused"
    );
    assert_eq!(
        stats.total_context_misses(),
        0,
        "no second-order membership query may fall back to a non-owning shard"
    );
    println!("ok");
}
