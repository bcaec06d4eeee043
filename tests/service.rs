//! Integration tests for the sharded walk service (`bingo-service`):
//!
//! * statistical equivalence — sampling through 4 shards must reproduce the
//!   single-engine edge-transition distribution (chi-square test), for
//!   first-order walks *and* for node2vec's second-order transitions
//!   (which require the forwarded adjacency-fingerprint context);
//! * forwarded-context integrity — every context snapshot attached to a
//!   forwarded walker must equal the previous vertex's true adjacency;
//! * update/walk interleaving — while update batches stream in, every walk
//!   step must traverse an edge that was alive at the epoch the owning
//!   shard had reached when it sampled the step (no torn or stale groups),
//!   and a flushed batch is applied ahead of the walkers queued behind it.

use bingo::prelude::*;
use bingo::sampling::stats::{chi_square, chi_square_critical_999};
use bingo::service::{ServiceConfig, TransportMode};
use bingo_graph::updates::UpdateKind;
use bingo_graph::UpdateStreamBuilder;
use rand::RngCore;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

/// A graph whose vertex 0 has neighbors owned by all four shards, with
/// biases spanning several radix groups.
fn cross_shard_fanout_graph() -> (DynamicGraph, Vec<(VertexId, u64)>) {
    let n = 40;
    let mut graph = DynamicGraph::new(n);
    let fanout: Vec<(VertexId, u64)> = vec![
        (5, 5),
        (9, 60),
        (12, 4),
        (15, 3),
        (22, 17),
        (28, 1),
        (33, 8),
        (38, 2),
    ];
    for &(dst, w) in &fanout {
        graph.insert_edge(0, dst, Bias::from_int(w)).unwrap();
    }
    // Give every vertex an out-edge so multi-step walks never dead-end.
    for v in 1..n as u32 {
        graph
            .insert_edge(v, (v + 1) % n as u32, Bias::from_int(1))
            .unwrap();
    }
    (graph, fanout)
}

#[test]
fn sharded_sampling_matches_single_engine_distribution() {
    let (graph, fanout) = cross_shard_fanout_graph();
    let single = BingoEngine::build(&graph, BingoConfig::default()).unwrap();

    // Expected transition probabilities out of vertex 0, read back from the
    // single engine so the test really compares service vs engine.
    let total: f64 = fanout
        .iter()
        .map(|&(dst, _)| single.edge_bias(0, dst).unwrap())
        .sum();
    let probs: Vec<f64> = fanout
        .iter()
        .map(|&(dst, _)| single.edge_bias(0, dst).unwrap() / total)
        .collect();
    let slot: HashMap<VertexId, usize> = fanout
        .iter()
        .enumerate()
        .map(|(i, &(dst, _))| (dst, i))
        .collect();

    let trials = 60_000;

    // Sharded service: one-step walks from vertex 0.
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            seed: 0xD15B,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    assert_eq!(service.num_shards(), 4);
    let starts = vec![0 as VertexId; trials];
    let ticket = service
        .submit(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 1 }),
            &starts,
        )
        .unwrap();
    let results = service.wait(ticket);
    let mut service_counts = vec![0usize; fanout.len()];
    for path in &results.paths {
        assert_eq!(path.len(), 2, "every walk takes exactly one step");
        service_counts[slot[&path[1]]] += 1;
    }

    // Single engine: the same number of direct samples.
    let mut rng = Pcg64::seed_from_u64(0x51);
    let mut engine_counts = vec![0usize; fanout.len()];
    for _ in 0..trials {
        let dst = single.sample_neighbor(0, &mut rng).unwrap();
        engine_counts[slot[&dst]] += 1;
    }

    let critical = chi_square_critical_999(fanout.len() - 1) * 1.5;
    let service_stat = chi_square(&service_counts, &probs);
    let engine_stat = chi_square(&engine_counts, &probs);
    assert!(
        service_stat < critical,
        "sharded distribution off: chi2 {service_stat:.2} vs critical {critical:.2} ({service_counts:?})"
    );
    assert!(
        engine_stat < critical,
        "single-engine distribution off: chi2 {engine_stat:.2} vs critical {critical:.2}"
    );

    // All walkers were dequeued on vertex 0's owner shard, and one-step
    // walkers finish where their last step was taken instead of being
    // forwarded for a no-op step (the scheduler's length-limit check).
    // Steps are attributed to the *executing* shard: idle peers may steal
    // batches out of the hot shard's inbox, so shard 0's own step count
    // plus the stolen visits (one step each here) covers every trial.
    let stats = service.shutdown();
    assert_eq!(stats.total_steps(), trials as u64);
    assert_eq!(stats.total_forwards(), 0);
    assert_eq!(stats.per_shard[0].walkers_received, trials as u64);
    assert_eq!(
        stats.per_shard[0].steps + stats.total_stolen_walkers(),
        trials as u64,
        "every step ran on the owner shard or a stealing peer"
    );
}

/// The consistency contract under concurrent updates, for a first- and a
/// second-order walk over both transports.
#[test]
fn concurrent_updates_and_walks_respect_epoch_liveness() {
    let deepwalk = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 20 });
    let node2vec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 20,
        p: 0.5,
        q: 2.0,
    });
    for spec in [deepwalk, node2vec] {
        for transport in [TransportMode::InProcess, TransportMode::Serialized] {
            check_epoch_liveness(spec, transport);
        }
    }
}

/// Every step traverses an edge alive at the (shard, epoch) it records, a
/// walker's epochs on one shard never decrease, and a wave submitted after
/// `sync` runs entirely at the last epoch.
fn check_epoch_liveness(spec: WalkSpec, transport: TransportMode) {
    let case = format!("{} over {transport:?}", spec.name());
    // Build a base graph plus a valid mixed update stream.
    let mut rng = Pcg64::seed_from_u64(0xEC0);
    let mut graph = GraphGenerator::ErdosRenyi {
        vertices: 200,
        edges: 3000,
    }
    .generate(BiasDistribution::UniformInt { lo: 1, hi: 63 }, &mut rng);
    let stream = UpdateStreamBuilder::new(UpdateKind::Mixed, 800).build(&mut graph, 600, &mut rng);
    let batches = stream.chunks(100);

    let num_shards = 4;
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards,
            seed: 0xE90C,
            record_epochs: true,
            transport,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let partitioner = service.partitioner();

    // Interleave: one wave of walks between every pair of update batches,
    // WITHOUT waiting for the walks before ingesting the next batch.
    let mut tickets = Vec::new();
    let starts: Vec<VertexId> = (0..200).collect();
    tickets.push(service.submit(spec, &starts).unwrap());
    let mut last_receipt = None;
    for batch in &batches {
        let receipt = service.ingest(batch);
        last_receipt = Some(receipt);
        tickets.push(service.submit(spec, &starts).unwrap());
    }
    // One final quiesced wave: every step must see the last epoch.
    let receipt = last_receipt.expect("at least one batch");
    service.sync(receipt);
    let final_ticket = service.submit(spec, &starts).unwrap();

    let waves: Vec<_> = tickets.into_iter().map(|t| service.wait(t)).collect();
    let final_wave = service.wait(final_ticket);

    // Mirror the router: per-shard edge-multiset timeline, one snapshot per
    // epoch. Shard s at epoch e holds the initial owned edges plus the
    // first e per-shard slices of the update stream.
    let mut live: Vec<HashMap<(VertexId, VertexId), i64>> = vec![HashMap::new(); num_shards];
    for (src, edge) in graph.edges() {
        *live[partitioner.owner(src)]
            .entry((src, edge.dst))
            .or_insert(0) += 1;
    }
    let mut snapshots: Vec<Vec<HashMap<(VertexId, VertexId), i64>>> = vec![live.clone()];
    for batch in &batches {
        let splits = batch.split_by_owner(num_shards, |v| partitioner.owner(v));
        for (shard, split) in splits.iter().enumerate() {
            for event in split.events() {
                match *event {
                    UpdateEvent::Insert { src, dst, .. } => {
                        *live[shard].entry((src, dst)).or_insert(0) += 1;
                    }
                    UpdateEvent::Delete { src, dst } => {
                        if let Some(c) = live[shard].get_mut(&(src, dst)) {
                            if *c > 0 {
                                *c -= 1;
                            }
                        }
                    }
                    UpdateEvent::UpdateBias { .. } => { /* liveness unchanged */ }
                }
            }
        }
        snapshots.push(live.clone());
    }

    // Every traced step must traverse an edge alive at its (shard, epoch),
    // and a walker's epochs on any one shard never go back.
    let mut checked = 0usize;
    for wave in waves.iter().chain(std::iter::once(&final_wave)) {
        for (path, trace) in wave.paths.iter().zip(&wave.traces) {
            assert_eq!(
                trace.len(),
                path.len() - 1,
                "{case}: one trace entry per step"
            );
            let mut last_epoch = vec![0u64; num_shards];
            for t in trace {
                assert_eq!(
                    partitioner.owner(t.src),
                    t.shard,
                    "{case}: steps are sampled by the owner of their source"
                );
                let epoch = t.epoch as usize;
                assert!(
                    epoch < snapshots.len(),
                    "{case}: epoch within the flushed range"
                );
                let alive = snapshots[epoch][t.shard]
                    .get(&(t.src, t.dst))
                    .copied()
                    .unwrap_or(0);
                assert!(
                    alive > 0,
                    "{case}: step {}→{} on shard {} not alive at epoch {}",
                    t.src,
                    t.dst,
                    t.shard,
                    t.epoch
                );
                assert!(
                    t.epoch >= last_epoch[t.shard],
                    "{case}: a walker went back from epoch {} to {} on shard {}",
                    last_epoch[t.shard],
                    t.epoch,
                    t.shard
                );
                last_epoch[t.shard] = t.epoch;
                checked += 1;
            }
        }
    }
    assert!(
        checked > 1000,
        "{case}: enough steps were checked ({checked})"
    );

    // The quiesced wave must run entirely at the final epoch.
    let final_epoch = batches.len() as u64;
    for trace in &final_wave.traces {
        for t in trace {
            assert_eq!(
                t.epoch, final_epoch,
                "{case}: post-sync steps see every update"
            );
        }
    }

    let stats = service.shutdown();
    assert_eq!(
        stats.per_shard.iter().map(|s| s.epoch).max().unwrap(),
        final_epoch,
        "{case}"
    );
    assert_eq!(
        stats.total_updates_applied() as usize,
        {
            // Deletions of already-deleted duplicates are skipped by the
            // engine, exactly as the mirror skips them; insertions all apply.
            let mut mirror_applied = 0usize;
            let mut live: HashMap<(VertexId, VertexId), i64> = HashMap::new();
            for (src, edge) in graph.edges() {
                *live.entry((src, edge.dst)).or_insert(0) += 1;
            }
            for batch in &batches {
                for event in batch.events() {
                    match *event {
                        UpdateEvent::Insert { src, dst, .. } => {
                            *live.entry((src, dst)).or_insert(0) += 1;
                            mirror_applied += 1;
                        }
                        UpdateEvent::Delete { src, dst } => {
                            if let Some(c) = live.get_mut(&(src, dst)) {
                                if *c > 0 {
                                    *c -= 1;
                                    mirror_applied += 1;
                                }
                            }
                        }
                        UpdateEvent::UpdateBias { .. } => mirror_applied += 2,
                    }
                }
            }
            mirror_applied
        },
        "{case}"
    );
}

/// A one-step walk whose single step meets the test at `entered`, then
/// parks at `gate` until the test meets it there too — holding the shard's
/// activation (and its engine read guard) mid-visit in between.
#[derive(Debug)]
struct GateModel {
    entered: Arc<Barrier>,
    gate: Arc<Barrier>,
}

impl WalkModel for GateModel {
    fn name(&self) -> &str {
        "gate"
    }

    fn expected_length(&self) -> usize {
        1
    }

    fn max_steps(&self) -> usize {
        1
    }

    fn step(
        &self,
        _state: &WalkState,
        _sampler: &dyn StepSampler,
        _rng: &mut dyn RngCore,
    ) -> Transition {
        self.entered.wait();
        self.gate.wait();
        Transition::Terminate
    }
}

/// A flushed batch is applied ahead of every walker still queued on its
/// shard: walkers submitted before an `ingest`, but not yet dequeued when
/// it lands, step at the new epoch.
#[test]
fn an_update_overtakes_queued_walkers() {
    let n = 16u32;
    let mut graph = DynamicGraph::new(n as usize);
    for v in 0..n {
        graph
            .insert_edge(v, (v + 1) % n, Bias::from_int(1))
            .unwrap();
    }
    // One shard: no peer can steal the queued walkers.
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 1,
            record_epochs: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let entered = Arc::new(Barrier::new(2));
    let gate = Arc::new(Barrier::new(2));
    let model: SharedWalkModel = Arc::new(GateModel {
        entered: Arc::clone(&entered),
        gate: Arc::clone(&gate),
    });
    let gated = service.submit(model, &[0]).unwrap();
    entered.wait();
    // The shard's activation is parked inside the gate's step: these
    // walkers queue behind it, and the update queues after them.
    let starts: Vec<VertexId> = (0..n).collect();
    let queued = service
        .submit(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 6 }),
            &starts,
        )
        .unwrap();
    let receipt = service.ingest(&UpdateBatch::new(vec![UpdateEvent::Insert {
        src: 0,
        dst: 8,
        bias: Bias::from_int(1),
    }]));
    // Only now may the update apply: until the gate opens, its step holds
    // the engine read guard the write guard waits on.
    gate.wait();
    assert_eq!(receipt.epoch, 1);
    service.wait(gated);
    let results = service.wait(queued);
    service.sync(receipt);
    for trace in &results.traces {
        assert_eq!(trace.len(), 6);
        for t in trace {
            assert_eq!(t.epoch, 1, "a queued walker stepped before the update");
        }
    }
    service.shutdown();
}

/// A 4-shard graph engineered so node2vec's second transition out of vertex
/// `HUB` has an analytically known distribution that *depends on the
/// previous vertex's adjacency*: candidate 15 is an out-neighbor of the
/// start vertex (distance factor 1), candidate 0 is the start itself
/// (factor 1/p), and the rest are at distance 2 (factor 1/q). Walkers start
/// on shard 0 and the hub lives on shard 2, so the second step can only be
/// sampled correctly if the forwarding shard shipped vertex 0's adjacency
/// fingerprint along with the walker.
const HUB: VertexId = 25;

fn node2vec_fanout_graph() -> (DynamicGraph, Vec<(VertexId, u64)>) {
    let n = 40;
    let mut graph = DynamicGraph::new(n);
    // Start vertex 0: a dominant edge to the hub plus one edge to 15 that
    // puts 15 at distance 1 from the start.
    graph.insert_edge(0, HUB, Bias::from_int(50)).unwrap();
    graph.insert_edge(0, 15, Bias::from_int(1)).unwrap();
    // The hub's fan-out spans all four shards.
    let fanout: Vec<(VertexId, u64)> = vec![
        (0, 3),  // backtrack → factor 1/p
        (15, 4), // out-neighbor of prev → factor 1
        (5, 2),  // distance 2 → factor 1/q
        (12, 6), // distance 2 → factor 1/q
        (33, 5), // distance 2 → factor 1/q
        (38, 1), // distance 2 → factor 1/q
    ];
    for &(dst, w) in &fanout {
        graph.insert_edge(HUB, dst, Bias::from_int(w)).unwrap();
    }
    // Liveness edges elsewhere (never sampled by the 2-step walks below,
    // but they keep the graph free of accidental dead ends).
    for v in 1..n as u32 {
        if v != HUB {
            graph
                .insert_edge(v, (v + 1) % n as u32, Bias::from_int(1))
                .unwrap();
        }
    }
    (graph, fanout)
}

#[test]
fn sharded_node2vec_matches_single_engine_distribution() {
    let (graph, fanout) = node2vec_fanout_graph();
    let p = 0.5;
    let q = 2.0;
    let spec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 2,
        p,
        q,
    });

    // Analytic second-step distribution out of HUB given prev = 0: the
    // rejection sampler accepts candidate x with probability ∝ bias(x) ·
    // factor(x), factor = 1/p for the backtrack, 1 for out-neighbors of
    // the previous vertex, 1/q otherwise.
    let factor = |dst: VertexId| -> f64 {
        if dst == 0 {
            1.0 / p
        } else if graph.has_edge(0, dst) {
            1.0
        } else {
            1.0 / q
        }
    };
    let masses: Vec<f64> = fanout
        .iter()
        .map(|&(dst, w)| w as f64 * factor(dst))
        .collect();
    let total: f64 = masses.iter().sum();
    let probs: Vec<f64> = masses.iter().map(|m| m / total).collect();
    let slot: HashMap<VertexId, usize> = fanout
        .iter()
        .enumerate()
        .map(|(i, &(dst, _))| (dst, i))
        .collect();

    let trials = 60_000;

    // Sharded service: 2-step node2vec walks from vertex 0. The first step
    // lands on HUB (shard 2) with probability 50/51; the walker is
    // forwarded from shard 0 with vertex 0's adjacency fingerprint.
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            seed: 0x20D2,
            transport: TransportMode::Serialized,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let starts = vec![0 as VertexId; trials];
    let results = service.wait(service.submit(spec, &starts).unwrap());
    let mut service_counts = vec![0usize; fanout.len()];
    let mut service_total = 0usize;
    for path in &results.paths {
        if path.len() == 3 && path[1] == HUB {
            service_counts[slot[&path[2]]] += 1;
            service_total += 1;
        }
    }

    // Single engine: the same walks, same analytic expectation.
    let single = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let mut rng = Pcg64::seed_from_u64(0x51E5);
    let mut engine_counts = vec![0usize; fanout.len()];
    let mut engine_total = 0usize;
    for _ in 0..trials {
        let path = spec.walk(&single, 0, &mut rng);
        if path.len() == 3 && path[1] == HUB {
            engine_counts[slot[&path[2]]] += 1;
            engine_total += 1;
        }
    }

    assert!(service_total > trials * 9 / 10, "most walks route via HUB");
    assert!(engine_total > trials * 9 / 10);

    let critical = chi_square_critical_999(fanout.len() - 1) * 1.5;
    let service_stat = chi_square(&service_counts, &probs);
    let engine_stat = chi_square(&engine_counts, &probs);
    assert!(
        service_stat < critical,
        "sharded node2vec off: chi2 {service_stat:.2} vs critical {critical:.2} ({service_counts:?})"
    );
    assert!(
        engine_stat < critical,
        "single-engine node2vec off: chi2 {engine_stat:.2} vs critical {critical:.2} ({engine_counts:?})"
    );

    // The context actually travelled: forwarded second-order walkers
    // shipped adjacency bytes between shards.
    let stats = service.shutdown();
    assert!(stats.total_forwards() > 0);
    assert!(
        stats.total_context_bytes() > 0,
        "node2vec forwards must carry the previous vertex's fingerprint"
    );
}

#[test]
fn forwarded_context_matches_true_adjacency() {
    let (graph, _) = node2vec_fanout_graph();
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            seed: 0xC0DE,
            transport: TransportMode::Serialized,
            record_epochs: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let partitioner = service.partitioner();
    let spec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 12,
        p: 0.5,
        q: 2.0,
    });
    let starts: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
    let results = service.wait(service.submit(spec, &starts).unwrap());

    let mut captured = 0usize;
    for contexts in &results.contexts {
        for ctx in contexts {
            // The capture happened on the shard owning the snapshotted
            // vertex...
            assert_eq!(
                partitioner.owner(ctx.vertex),
                ctx.shard,
                "context captured by the owner of vertex {}",
                ctx.vertex
            );
            // ...and the fingerprint is exactly that vertex's sorted true
            // out-adjacency (the graph saw no updates in this test).
            let mut expected: Vec<VertexId> = graph
                .neighbors(ctx.vertex)
                .expect("vertex in range")
                .edges()
                .iter()
                .map(|e| e.dst)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(
                ctx.adjacency, expected,
                "carried context of vertex {} diverged",
                ctx.vertex
            );
            captured += 1;
        }
    }
    assert!(
        captured > 0,
        "multi-shard node2vec must capture forwarded contexts"
    );
    let stats = service.shutdown();
    assert!(stats.total_context_bytes() > 0);
}

/// A 4-shard graph whose node2vec walks cross two shard boundaries on
/// consecutive steps: vertex 0 (shard 0) routes almost all walks to
/// `HUB1 = 15` (shard 1), which routes almost all second steps to
/// `HUB2 = 25` (shard 2). The *third* transition — out of `HUB2`, with
/// previous vertex `HUB1` — has an analytically known distribution that
/// depends on `HUB1`'s adjacency, so it is only sampled correctly if the
/// context captured on shard 0 was consumed by the step at shard 1 and a
/// fresh snapshot of `HUB1` was re-captured for the forward to shard 2.
const HUB1: VertexId = 15;
const HUB2: VertexId = 25;

fn two_boundary_graph() -> (DynamicGraph, Vec<(VertexId, u64)>) {
    let n = 40;
    let mut graph = DynamicGraph::new(n);
    graph.insert_edge(0, HUB1, Bias::from_int(50)).unwrap();
    graph.insert_edge(0, 35, Bias::from_int(1)).unwrap();
    // HUB1's adjacency defines the distance-1 set for the third step.
    graph.insert_edge(HUB1, HUB2, Bias::from_int(50)).unwrap();
    graph.insert_edge(HUB1, 35, Bias::from_int(3)).unwrap();
    graph.insert_edge(HUB1, 5, Bias::from_int(2)).unwrap();
    // HUB2's fan-out spans all four shards.
    let fanout: Vec<(VertexId, u64)> = vec![
        (HUB1, 3), // backtrack → factor 1/p
        (35, 4),   // out-neighbor of HUB1 → factor 1
        (5, 2),    // out-neighbor of HUB1 → factor 1
        (8, 6),    // distance 2 → factor 1/q
        (22, 5),   // distance 2 → factor 1/q
        (38, 1),   // distance 2 → factor 1/q
    ];
    for &(dst, w) in &fanout {
        graph.insert_edge(HUB2, dst, Bias::from_int(w)).unwrap();
    }
    for v in 1..n as u32 {
        if v != HUB1 && v != HUB2 {
            graph
                .insert_edge(v, (v + 1) % n as u32, Bias::from_int(1))
                .unwrap();
        }
    }
    (graph, fanout)
}

#[test]
fn sharded_node2vec_across_two_boundaries_matches_analytic_distribution() {
    let (graph, fanout) = two_boundary_graph();
    let p = 0.5;
    let q = 2.0;
    let spec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 3,
        p,
        q,
    });

    // Analytic third-step distribution out of HUB2 given prev = HUB1.
    let factor = |dst: VertexId| -> f64 {
        if dst == HUB1 {
            1.0 / p
        } else if graph.has_edge(HUB1, dst) {
            1.0
        } else {
            1.0 / q
        }
    };
    let masses: Vec<f64> = fanout
        .iter()
        .map(|&(dst, w)| w as f64 * factor(dst))
        .collect();
    let total: f64 = masses.iter().sum();
    let probs: Vec<f64> = masses.iter().map(|m| m / total).collect();
    let slot: HashMap<VertexId, usize> = fanout
        .iter()
        .enumerate()
        .map(|(i, &(dst, _))| (dst, i))
        .collect();
    let critical = chi_square_critical_999(fanout.len() - 1) * 1.5;
    let trials = 60_000;

    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            seed: 0x2B0D,
            record_epochs: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let starts = vec![0 as VertexId; trials];
    let results = service.wait(service.submit(spec, &starts).unwrap());
    let mut counts = vec![0usize; fanout.len()];
    let mut via = 0usize;
    for path in &results.paths {
        if path.len() == 4 && path[1] == HUB1 && path[2] == HUB2 {
            counts[slot[&path[3]]] += 1;
            via += 1;
        }
    }
    assert!(
        via > trials * 8 / 10,
        "most walks route 0→HUB1→HUB2 ({via})"
    );
    let stat = chi_square(&counts, &probs);
    assert!(
        stat < critical,
        "two-boundary node2vec off: chi2 {stat:.2} vs {critical:.2} ({counts:?})"
    );

    // The walkers that took the 0→HUB1→HUB2 spine were forwarded twice
    // with a capture each time: context for vertex 0 (captured on
    // shard 0), consumed at HUB1, then context for HUB1 re-captured on
    // shard 1 for the forward to shard 2.
    let recaptured = results
        .contexts
        .iter()
        .filter(|ctxs| ctxs.iter().any(|c| c.vertex == 0) && ctxs.iter().any(|c| c.vertex == HUB1))
        .count();
    assert!(
        recaptured > trials / 2,
        "consecutive boundary crossings re-capture context ({recaptured})"
    );

    let stats = service.shutdown();
    assert_eq!(
        stats.total_context_misses(),
        0,
        "no membership query fell back to a non-owning engine"
    );
    assert!(
        stats.total_context_cache_hits() > 0,
        "snapshots were reused"
    );

    // Single engine, same analytic expectation.
    let single = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let mut rng = Pcg64::seed_from_u64(0x2B1D);
    let mut counts = vec![0usize; fanout.len()];
    for _ in 0..trials {
        let path = spec.walk(&single, 0, &mut rng);
        if path.len() == 4 && path[1] == HUB1 && path[2] == HUB2 {
            counts[slot[&path[3]]] += 1;
        }
    }
    let stat = chi_square(&counts, &probs);
    assert!(
        stat < critical,
        "single-engine reference off: chi2 {stat:.2} vs {critical:.2}"
    );
}

#[test]
fn context_byte_accounting_matches_recorded_traces() {
    let (graph, _) = node2vec_fanout_graph();
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            seed: 0xACC7,
            transport: TransportMode::Serialized,
            record_epochs: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let spec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 12,
        p: 0.5,
        q: 2.0,
    });
    let starts: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
    let results = service.wait(service.submit(spec, &starts).unwrap());
    let partitioner = service.partitioner();
    let stats = service.shutdown();

    // The frames split exactly into path, context and header bytes. A
    // walker leaves from path index i when step i crossed into another
    // shard's range before the 12-step cap, with i + 1 vertices (4 bytes
    // each) on its path; every frame has the same 62 bytes of fixed fields
    // (`bingo_walks::wire`) and the node2vec walk section.
    let (mut forwards, mut path_bytes) = (0u64, 0u64);
    for path in &results.paths {
        for i in 1..path.len().min(12) {
            if partitioner.owner(path[i]) != partitioner.owner(path[i - 1]) {
                forwards += 1;
                path_bytes += 4 * (i as u64 + 1);
            }
        }
    }
    assert_eq!(stats.total_forwards(), forwards);
    assert_eq!(stats.total_transport_path_bytes(), path_bytes);
    let header_bytes =
        stats.total_transport_bytes_sent() - path_bytes - stats.total_context_bytes();
    let frame_header = 62 + bingo::walks::wire::walk_section_len(Some(&spec)) as u64;
    assert_eq!(header_bytes, forwards * frame_header);

    // `context_bytes_forwarded` is exactly the sum of the billed bytes of
    // every recorded capture, and `context_bytes_raw` is the sum of what
    // the exact-Vec baseline would have shipped for the same captures.
    let traces: Vec<_> = results.contexts.iter().flatten().collect();
    assert!(!traces.is_empty());
    let billed: u64 = traces.iter().map(|t| t.bytes_sent as u64).sum();
    assert_eq!(stats.total_context_bytes(), billed);
    let raw: u64 = traces
        .iter()
        .map(|t| CarriedContext::exact_wire_len(t.adjacency.len()) as u64)
        .sum();
    assert_eq!(stats.total_context_bytes_raw(), raw);
    // Per-trace billing follows handle negotiation: a snapshot bigger
    // than a handle is offered to the receiver, and bills either the
    // 16-byte handle (receiver already held the snapshot) or the full
    // body (first forward of that snapshot to this owner). Small
    // snapshots are never offered and always ship the body.
    let mut offered = 0u64;
    let mut handle_billed = 0u64;
    for t in &traces {
        let wire = CarriedContext::exact_wire_len(t.adjacency.len());
        if wire > bingo::service::CONTEXT_HANDLE_BYTES {
            offered += 1;
            if t.bytes_sent == bingo::service::CONTEXT_HANDLE_BYTES {
                handle_billed += 1;
            } else {
                assert_eq!(t.bytes_sent, wire, "non-handle forwards bill the body");
            }
        } else {
            assert_eq!(t.bytes_sent, wire, "small snapshots are never offered");
        }
    }
    assert_eq!(stats.total_handle_offers(), offered);
    assert_eq!(stats.total_handle_hits(), handle_billed);
    assert_eq!(stats.total_body_requests(), offered - handle_billed);
    assert!(handle_billed > 0, "repeat forwards ride the 16-byte handle");
    // Cache bookkeeping: one hit or miss per capture, and reuse happened.
    assert_eq!(
        stats.total_context_cache_hits() + stats.total_context_cache_misses(),
        traces.len() as u64
    );
    assert!(
        stats.total_context_cache_hits() > 0,
        "same-wave snapshots reused"
    );
    assert_eq!(stats.total_context_misses(), 0, "no capture faults");
}

#[test]
fn submit_all_vertices_on_empty_graph_completes_immediately() {
    let graph = DynamicGraph::new(0);
    let service = WalkService::build(&graph, ServiceConfig::default()).unwrap();
    // "One walk per vertex" over zero vertices is a valid request for
    // nothing, not an EmptySubmission error.
    let ticket = service
        .submit_all_vertices(WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 4 }))
        .expect("empty all-vertices submission is valid");
    let results = service.wait(ticket);
    assert!(results.paths.is_empty());
    assert_eq!(results.total_steps(), 0);
    // An explicitly empty start list is still an error.
    assert_eq!(
        service.submit(WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 4 }), &[]),
        Err(bingo::service::ServiceError::EmptySubmission)
    );
    let stats = service.shutdown();
    assert_eq!(stats.total_walks_completed(), 0);
}

/// node2vec on a directed path with `q = 1e9`: from its second step on, the
/// only candidate is no neighbor of the previous vertex, so every draw is
/// rejected with probability `1 − 1/(2 · 10^9)` and the step gives up at its
/// trial cap. The walk engine and the service both end those walks and
/// count them; a `p` or `q` that is not finite and positive never gets that
/// far.
#[test]
fn node2vec_walks_ended_at_the_rejection_cap_are_counted() {
    let n = 8;
    let mut graph = DynamicGraph::new(n);
    for v in 0..n as VertexId - 1 {
        graph.insert_edge(v, v + 1, Bias::from_int(1)).unwrap();
    }
    let spec = |p: f64, q: f64| {
        WalkSpec::Node2Vec(Node2VecConfig {
            walk_length: 10,
            p,
            q,
        })
    };
    let starts: Vec<VertexId> = (0..n as VertexId).collect();
    // The walks from the last two vertices end at the path's end instead.
    let capped = n - 2;

    let engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let results = WalkEngine::new(5).run(&engine, &spec(0.5, 1e9), &starts);
    assert_eq!(results.rejection_capped, capped);
    for (start, path) in starts.iter().zip(&results.paths) {
        let expected: Vec<VertexId> = (*start..(*start + 2).min(n as VertexId)).collect();
        assert_eq!(*path, expected, "one step, then the cap");
    }
    let unbent = WalkEngine::new(5).run(&engine, &spec(0.5, 2.0), &starts);
    assert_eq!(unbent.rejection_capped, 0);

    for mode in [TransportMode::InProcess, TransportMode::Serialized] {
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 2,
                transport: mode,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let ticket = service.submit(spec(0.5, 1e9), &starts).unwrap();
        assert_eq!(service.wait(ticket).paths.len(), n);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for (p, q) in [(bad, 1.0), (1.0, bad)] {
                let err = service.submit(spec(p, q), &starts).unwrap_err();
                assert!(
                    matches!(err, bingo::service::ServiceError::InvalidNode2Vec { .. }),
                    "{mode:?} p = {p}, q = {q}: {err:?}"
                );
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.total_node2vec_capped(), capped as u64, "{mode:?}");
        assert!(stats
            .to_json()
            .contains(&format!("\"node2vec_capped\":{capped}")));
    }
}
