//! Integration tests for the sharded walk service (`bingo-service`):
//!
//! * statistical equivalence — sampling through 4 shards must reproduce the
//!   single-engine edge-transition distribution (chi-square test), for
//!   first-order walks *and* for node2vec's second-order transitions
//!   (which require the forwarded adjacency-fingerprint context);
//! * the consistency contract, read off the paths a ticket returns — while
//!   update batches stream in, each visit of a walker to a shard samples
//!   one epoch of that shard, a walker's epochs on one shard never
//!   decrease, a wave submitted after `sync` sees every update, and a
//!   flushed batch is applied ahead of the walkers queued behind it,
//!   whether the owner runs them or a peer would steal them;
//! * context accounting — the bytes, cache and handle counters a
//!   serialized node2vec wave bills, derived from its paths.

use bingo::core::partition::Partitioner;
use bingo::prelude::*;
use bingo::sampling::stats::{chi_square, chi_square_critical_999};
use bingo::service::{ServiceConfig, ShardTransport, TransportMode};
use bingo::walks::{wire, WireError};
use bingo_graph::updates::UpdateKind;
use bingo_graph::UpdateStreamBuilder;
use gate::GateModel;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[path = "common/gate.rs"]
mod gate;

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

/// The consistency contract, checked from what a ticket returns — its
/// paths — beside the graph, the update stream and the partitioner.
///
/// The checker mirrors each shard's edge multiset, one snapshot per epoch:
/// shard `s` at epoch `e` holds its initial owned edges plus the first `e`
/// per-shard slices of the stream. A walk's maximal run of consecutive
/// steps whose sources one shard owns is one visit; a visit holds that
/// shard's engine read guard, so it samples exactly one epoch.
struct PathChecker {
    partitioner: Partitioner,
    /// `snapshots[e][s]`: shard `s`'s live edge counts at epoch `e`.
    snapshots: Vec<Vec<HashMap<(VertexId, VertexId), i64>>>,
    /// What the engines count as applied: every insert, every delete of a
    /// live edge, and a bias rewrite as a delete plus an insert.
    applied: u64,
}

impl PathChecker {
    fn new(graph: &DynamicGraph, batches: &[UpdateBatch], partitioner: Partitioner) -> Self {
        let num_shards = partitioner.num_partitions();
        let mut live: Vec<HashMap<(VertexId, VertexId), i64>> = vec![HashMap::new(); num_shards];
        for (src, edge) in graph.edges() {
            *live[partitioner.owner(src)]
                .entry((src, edge.dst))
                .or_insert(0) += 1;
        }
        let mut snapshots = vec![live.clone()];
        let mut applied = 0;
        for batch in batches {
            let splits = batch.split_by_owner(num_shards, |v| partitioner.owner(v));
            for (shard, split) in splits.iter().enumerate() {
                for event in split.events() {
                    match *event {
                        UpdateEvent::Insert { src, dst, .. } => {
                            *live[shard].entry((src, dst)).or_insert(0) += 1;
                            applied += 1;
                        }
                        UpdateEvent::Delete { src, dst } => {
                            // The engine skips a delete of a missing edge.
                            if let Some(c) = live[shard].get_mut(&(src, dst)).filter(|c| **c > 0) {
                                *c -= 1;
                                applied += 1;
                            }
                        }
                        // Liveness unchanged.
                        UpdateEvent::UpdateBias { .. } => applied += 2,
                    }
                }
            }
            snapshots.push(live.clone());
        }
        PathChecker {
            partitioner,
            snapshots,
            applied,
        }
    }

    fn final_epoch(&self) -> usize {
        self.snapshots.len() - 1
    }

    /// Whether the step `src → dst` is alive at `epoch` on `src`'s shard.
    fn alive(&self, epoch: usize, src: VertexId, dst: VertexId) -> bool {
        let shard = self.partitioner.owner(src);
        self.snapshots[epoch][shard]
            .get(&(src, dst))
            .is_some_and(|&c| c > 0)
    }

    /// Check one walk: every visit is alive at one epoch, and that epoch
    /// never decreases along the walk for its shard. Taking the earliest
    /// feasible epoch for each visit is exact — it leaves every later
    /// visit to that shard the most room. Returns the steps checked.
    fn check(&self, path: &[VertexId]) -> Result<usize, String> {
        let steps = path.len().saturating_sub(1);
        let mut floor = vec![0usize; self.partitioner.num_partitions()];
        let mut start = 0;
        while start < steps {
            let shard = self.partitioner.owner(path[start]);
            let mut end = start + 1;
            while end < steps && self.partitioner.owner(path[end]) == shard {
                end += 1;
            }
            let visit = &path[start..=end];
            let epoch = (floor[shard]..self.snapshots.len())
                .find(|&e| visit.windows(2).all(|w| self.alive(e, w[0], w[1])))
                .ok_or_else(|| {
                    format!(
                        "visit {visit:?} on shard {shard} is alive at no one epoch from {} on",
                        floor[shard]
                    )
                })?;
            floor[shard] = epoch;
            start = end;
        }
        Ok(steps)
    }
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

/// Every visit of every walk is alive at one epoch of its shard, a
/// walker's epochs on one shard never decrease, and every step of a wave
/// submitted after `sync` is alive at the last epoch.
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

    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            seed: 0xE90C,
            transport,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

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
    let checker = PathChecker::new(&graph, &batches, service.partitioner());

    let mut checked = 0usize;
    for wave in waves.iter().chain(std::iter::once(&final_wave)) {
        for path in &wave.paths {
            checked += checker
                .check(path)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
        }
    }
    assert!(
        checked > 1000,
        "{case}: enough steps were checked ({checked})"
    );

    let final_epoch = checker.final_epoch();
    for path in &final_wave.paths {
        for w in path.windows(2) {
            assert!(
                checker.alive(final_epoch, w[0], w[1]),
                "{case}: post-sync step {}→{} is not alive at epoch {final_epoch}",
                w[0],
                w[1]
            );
        }
    }

    let stats = service.shutdown();
    assert_eq!(
        stats.per_shard.iter().map(|s| s.epoch).max().unwrap(),
        final_epoch as u64,
        "{case}"
    );
    assert_eq!(stats.total_updates_applied(), checker.applied, "{case}");
}

/// The checker rejects what the contract forbids: a visit whose steps are
/// alive only at two different epochs, and a shard's epoch going back
/// between two visits of one walk.
#[test]
fn the_path_checker_rejects_torn_visits_and_epochs_going_back() {
    // Two shards: 0 owns {0, 1}, 1 owns {2, 3}. Epoch 0 holds 0→1 and 1→3
    // on shard 0; epoch 1 holds 1→0 and 0→2 instead; 2→1 lives throughout.
    let mut graph = DynamicGraph::new(4);
    for (src, dst) in [(0, 1), (1, 3), (2, 1)] {
        graph.insert_edge(src, dst, Bias::from_int(1)).unwrap();
    }
    let batch = UpdateBatch::new(vec![
        UpdateEvent::Delete { src: 0, dst: 1 },
        UpdateEvent::Delete { src: 1, dst: 3 },
        UpdateEvent::Insert {
            src: 1,
            dst: 0,
            bias: Bias::from_int(1),
        },
        UpdateEvent::Insert {
            src: 0,
            dst: 2,
            bias: Bias::from_int(1),
        },
    ]);
    let checker = PathChecker::new(&graph, &[batch], Partitioner::new(4, 2));
    for ok in [&[0, 1][..], &[1, 0], &[0, 1, 3], &[2, 1, 0, 2], &[0, 2, 1]] {
        assert_eq!(checker.check(ok), Ok(ok.len() - 1), "{ok:?}");
    }
    // 0→1 is alive only at epoch 0 and 1→0 only at epoch 1: one visit
    // cannot have sampled both.
    assert!(checker.check(&[0, 1, 0]).is_err(), "torn visit accepted");
    // Shard 0's first visit (0→2) needs epoch 1, its second (1→3) epoch 0.
    assert!(
        checker.check(&[0, 2, 1, 3]).is_err(),
        "a shard's epoch went back"
    );
}

/// A flushed batch is applied ahead of every walker still queued on its
/// shard: walkers submitted before an `ingest`, but not yet dequeued when
/// it lands, step at the new epoch — which the paths show, since the batch
/// replaces vertex 0's only edge 0→1 with 0→8.
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
    let receipt = service.ingest(&UpdateBatch::new(vec![
        UpdateEvent::Delete { src: 0, dst: 1 },
        UpdateEvent::Insert {
            src: 0,
            dst: 8,
            bias: Bias::from_int(1),
        },
    ]));
    // Only now may the update apply: until the gate opens, its step holds
    // the engine read guard the write guard waits on.
    gate.wait();
    assert_eq!(receipt.epoch, 1);
    service.wait(gated);
    let results = service.wait(queued);
    service.sync(receipt);
    let mut from_zero = 0;
    for path in &results.paths {
        assert_eq!(path.len(), 7);
        for w in path.windows(2).filter(|w| w[0] == 0) {
            assert_eq!(w[1], 8, "a queued walker stepped before the update");
            from_zero += 1;
        }
    }
    assert!(from_zero > 0, "some queued walker passed vertex 0");
    service.shutdown();
}

/// A flushed batch goes ahead of the walkers queued on its shard even
/// when an idle peer would steal them: shard 0 is parked mid-visit by the
/// gate walker, a batch that replaces vertex 0's only edge 0→1 with 0→8
/// queues behind it, then 64 walkers. Each peer is woken by the backlog
/// and runs one walk of its own; on its way to idle it finds shard 0 deep
/// but with a batch pending, and must leave those walkers to shard 0,
/// which applies the batch first.
#[test]
fn a_pending_batch_overtakes_walkers_a_peer_would_steal() {
    for transport in [TransportMode::InProcess, TransportMode::Serialized] {
        pending_batch_overtakes_would_be_thieves(transport);
    }
}

fn pending_batch_overtakes_would_be_thieves(transport: TransportMode) {
    let n = 16u32;
    let mut graph = DynamicGraph::new(n as usize);
    for v in 0..n {
        graph
            .insert_edge(v, (v + 1) % n, Bias::from_int(1))
            .unwrap();
    }
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            transport,
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
    let receipt = service.ingest(&replace_0_to_1_with_0_to_8());
    // The batch is pending behind the parked activation; these walkers
    // queue behind it, and their backlog wakes the idle peers.
    let queued = service
        .submit(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 6 }),
            &[0; 64],
        )
        .unwrap();
    // One walk on each of shards 1–3 (uniform ranges of 4 vertices), so
    // each peer's task runs and reaches its idle transition.
    let own = service
        .submit(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 1 }),
            &[5, 9, 13],
        )
        .unwrap();
    assert_eq!(service.wait(own).total_steps(), 3);
    // Give a thief time to act, as it would past a batch it ignores.
    let deadline = Instant::now() + Duration::from_millis(300);
    while service.stats().total_stolen_walkers() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // The gate opens before anything is asserted: a failure must not leave
    // shard 0 parked under a service that waits for it on drop.
    let stolen_while_pending = service.stats().total_stolen_walkers();
    gate.wait();
    service.wait(gated);
    let results = service.wait(queued);
    service.sync(receipt);
    for path in &results.paths {
        assert_eq!(path.len(), 7);
        for w in path.windows(2).filter(|w| w[0] == 0) {
            assert_eq!(
                w[1], 8,
                "{transport:?}: a queued walker stepped 0→1 before the batch"
            );
        }
    }
    assert_eq!(
        stolen_while_pending, 0,
        "{transport:?}: a walker was stolen past a pending batch"
    );
    service.shutdown();
}

/// The batch the pending-batch tests ingest: vertex 0's only edge 0→1
/// becomes 0→8, so a path shows which side of it a step sampled.
fn replace_0_to_1_with_0_to_8() -> UpdateBatch {
    UpdateBatch::new(vec![
        UpdateEvent::Delete { src: 0, dst: 1 },
        UpdateEvent::Insert {
            src: 0,
            dst: 8,
            bias: Bias::from_int(1),
        },
    ])
}

/// Peers the pending-batch rule sent away come back once the batch is in:
/// the activation that applies it wakes them while the backlog is still
/// deep. Shard 0 is parked by the gate walker, a batch queues behind it,
/// then one-step walkers from vertex 0 (they finish on shard 0, so nothing
/// is ever pushed to a peer). Every peer the backlog wakes finds the batch
/// pending and parks; after the gate opens, only the wake-up that follows
/// the batch can bring a thief back.
#[test]
fn thieves_sent_away_by_a_pending_batch_return_once_it_is_applied() {
    let n = 16u32;
    let mut graph = DynamicGraph::new(n as usize);
    for v in 0..n {
        graph
            .insert_edge(v, (v + 1) % n, Bias::from_int(1))
            .unwrap();
    }
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
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
    let receipt = service.ingest(&replace_0_to_1_with_0_to_8());
    let starts = vec![0 as VertexId; 40_000];
    let flood = service
        .submit(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 1 }),
            &starts,
        )
        .unwrap();
    let stolen_while_pending = service.stats().total_stolen_walkers();
    gate.wait();
    service.wait(gated);
    let results = service.wait(flood);
    service.sync(receipt);
    assert_eq!(stolen_while_pending, 0);
    assert!(results.paths.iter().all(|p| p == &[0, 8]));
    let stats = service.shutdown();
    assert!(
        stats.total_stolen_walkers() > 0,
        "no peer came back to the backlog once the batch was in: {}",
        stats.to_json()
    );
}

/// `shutdown` drops the walkers still queued, and they leave the depth
/// gauge with them: the final stats show no phantom backlog, which the
/// obs watchdog would read as a stalled shard.
#[test]
fn shutdown_leaves_no_walker_on_the_depth_gauge() {
    let n = 64u32;
    let mut graph = DynamicGraph::new(n as usize);
    for v in 0..n {
        graph
            .insert_edge(v, (v + 1) % n, Bias::from_int(1))
            .unwrap();
    }
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    service
        .submit(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 80 }),
            &[0; 5_000],
        )
        .unwrap();
    let stats = service.shutdown();
    assert_eq!(stats.total_queue_depth(), 0, "{}", stats.to_json());
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

/// Paths of one serialized node2vec wave over `graph` on `num_shards`
/// shards, with the service's stats and partitioner.
fn serialized_node2vec_wave(
    graph: &DynamicGraph,
    num_shards: usize,
    starts: &[VertexId],
) -> (Vec<Vec<VertexId>>, ServiceStats, Partitioner) {
    let service = WalkService::build(
        graph,
        ServiceConfig {
            num_shards,
            seed: 0xC0DE,
            transport: TransportMode::Serialized,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let spec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 12,
        p: 0.5,
        q: 2.0,
    });
    let results = service.wait(service.submit(spec, starts).unwrap());
    let partitioner = service.partitioner();
    (results.paths, service.shutdown(), partitioner)
}

#[test]
fn forwarded_context_matches_true_adjacency() {
    // A 1-shard service never forwards a walker: every node2vec step reads
    // the previous vertex's adjacency from its own engine. A 4-shard
    // service reads it from the carried fingerprint instead — rebuilt from
    // the frame body on a vertex's first forward to a shard, resolved from
    // a 16-byte handle after that. Walker RNG streams do not depend on the
    // shard count, so the paths match the 1-shard reference only if every
    // carried fingerprint is the previous vertex's true adjacency.
    //
    // Handle path: 400 walkers from vertex 0 cross to the hub's shard, and
    // the hub's draw weights 15 by 1 (an out-neighbor of 0) but 5, 12, 33
    // and 38 by 1/q. Body path: every vertex of a dense graph (12
    // out-edges among 40 vertices, spanning all shards) is forwarded, and
    // shares most of its out-neighbors with the vertices it steps to.
    let (fanout, _) = node2vec_fanout_graph();
    let mut dense = DynamicGraph::new(40);
    for v in 0..40u32 {
        for k in 1..=12u32 {
            dense
                .insert_edge(v, (v + 3 * k) % 40, Bias::from_int(1 + (v * k) as u64 % 9))
                .unwrap();
        }
    }
    let all: Vec<VertexId> = (0..40).collect();
    let from_zero: Vec<VertexId> = all.iter().copied().chain([0; 400]).collect();
    for (name, graph, starts) in [("fanout", &fanout, &from_zero), ("dense", &dense, &all)] {
        let (reference, local, _) = serialized_node2vec_wave(graph, 1, starts);
        let (sharded, stats, partitioner) = serialized_node2vec_wave(graph, 4, starts);
        assert_eq!(local.total_forwards(), 0);
        assert!(
            stats.total_forwards() > 0 && stats.total_context_bytes() > 0,
            "{name}: multi-shard node2vec must forward walkers with context"
        );
        if name == "fanout" {
            // Walkers crossed into the hub's shard right after vertex 0,
            // so the hub step read vertex 0's carried fingerprint.
            assert_ne!(partitioner.owner(0), partitioner.owner(HUB));
            assert!(sharded.iter().any(|p| p.windows(2).any(|w| w == [0, HUB])));
            assert!(stats.total_handle_hits() > 0);
        }
        assert_eq!(
            sharded, reference,
            "{name}: carried context diverged from adjacency"
        );
    }
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

    // The chi-square above, with no membership query answered without
    // carried context, requires HUB1's snapshot to have been re-captured
    // on shard 1 after vertex 0's was consumed there.
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
fn context_byte_accounting_matches_the_paths() {
    let (graph, _) = node2vec_fanout_graph();
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            seed: 0xACC7,
            transport: TransportMode::Serialized,
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

    // A walker leaves from path index i when step i crossed into another
    // shard's range before the 12-step cap, with i + 1 vertices (4 bytes
    // each) on its path. The cursor drops carried context on every step,
    // so that forward captures path[i - 1] afresh: its sorted adjacency,
    // on its owner's snapshot map. No update runs, so nothing is evicted:
    // a vertex misses that map once, and a body larger than a handle is
    // offered on every forward and shipped once per (vertex, receiver) —
    // a body request — then rides the 16-byte handle. A smaller body is
    // never offered and always ships.
    let handle = bingo::service::CONTEXT_HANDLE_BYTES;
    let (mut forwards, mut path_bytes) = (0u64, 0u64);
    let (mut raw, mut billed, mut offers, mut hits) = (0u64, 0u64, 0u64, 0u64);
    let mut captured = HashSet::new();
    let mut holders = HashSet::new();
    for path in &results.paths {
        for i in 1..path.len().min(12) {
            let to = partitioner.owner(path[i]);
            if to == partitioner.owner(path[i - 1]) {
                continue;
            }
            forwards += 1;
            path_bytes += 4 * (i as u64 + 1);
            let prev = path[i - 1];
            captured.insert(prev);
            let neighbors: HashSet<VertexId> = graph
                .neighbors(prev)
                .expect("vertex in range")
                .edges()
                .iter()
                .map(|e| e.dst)
                .collect();
            let body = CarriedContext::exact_wire_len(neighbors.len());
            raw += body as u64;
            if body <= handle {
                billed += body as u64;
            } else if holders.insert((prev, to)) {
                offers += 1;
                billed += body as u64;
            } else {
                offers += 1;
                hits += 1;
                billed += handle as u64;
            }
        }
    }
    assert_eq!(stats.total_forwards(), forwards);
    assert_eq!(stats.total_transport_path_bytes(), path_bytes);
    // The frames split exactly into path, context and header bytes: every
    // frame has the same 62 bytes of fixed fields (`bingo_walks::wire`)
    // and the node2vec walk section.
    let header_bytes =
        stats.total_transport_bytes_sent() - path_bytes - stats.total_context_bytes();
    let frame_header = 62 + bingo::walks::wire::walk_section_len(Some(&spec)) as u64;
    assert_eq!(header_bytes, forwards * frame_header);

    assert_eq!(stats.total_context_bytes(), billed);
    assert_eq!(stats.total_context_bytes_raw(), raw);
    assert_eq!(stats.total_handle_offers(), offers);
    assert_eq!(stats.total_handle_hits(), hits);
    assert_eq!(stats.total_body_requests(), offers - hits);
    assert!(hits > 0, "repeat forwards ride the 16-byte handle");
    assert_eq!(
        stats.total_context_cache_misses(),
        captured.len() as u64,
        "one capture per forwarded vertex"
    );
    assert_eq!(
        stats.total_context_cache_hits(),
        forwards - captured.len() as u64
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

/// A directed path `0 → 1 → … → n − 1` of unit biases.
fn directed_path(n: usize) -> DynamicGraph {
    let mut graph = DynamicGraph::new(n);
    for v in 0..n as VertexId - 1 {
        graph.insert_edge(v, v + 1, Bias::from_int(1)).unwrap();
    }
    graph
}

fn node2vec(walk_length: usize, p: f64, q: f64) -> WalkSpec {
    WalkSpec::Node2Vec(Node2VecConfig { walk_length, p, q })
}

/// node2vec on a directed path at the spread bound, `p = 1, q = 4096`: from
/// its second step on, the only candidate is no neighbor of the previous
/// vertex, so each draw is accepted with probability 1/4096. A step draws
/// until it accepts, so every walk runs to its full length or to the
/// path's end, through the engine and through a 2-shard service under both
/// transports.
#[test]
fn node2vec_walks_at_the_spread_bound_run_to_full_length() {
    let n = 12;
    let walk_length = 10;
    let graph = directed_path(n);
    let spec = node2vec(walk_length, 1.0, 4096.0);
    let starts: Vec<VertexId> = (0..2 * n as VertexId).map(|i| i % n as VertexId).collect();
    let full = |start: VertexId| -> Vec<VertexId> {
        (start..=(start + walk_length as VertexId).min(n as VertexId - 1)).collect()
    };
    let expected: Vec<Vec<VertexId>> = starts.iter().map(|&s| full(s)).collect();

    let engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    assert_eq!(
        WalkEngine::new(5).run(&engine, &spec, &starts).paths,
        expected
    );
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
        let ticket = service.submit(spec, &starts).unwrap();
        assert_eq!(service.wait(ticket).paths, expected, "{mode:?}");
        assert!(service.shutdown().total_forwards() > 0, "{mode:?}");
    }
}

/// A `p` or `q` that is not finite and positive, or a spread
/// `max(p, 1, q) / min(p, 1, q)` above 4096, is refused where a spec enters:
/// by the service's submit and by the wire decoder (the gateway's submit:
/// `tests/gateway.rs`). A bare engine asserts it on the step that would use
/// it.
#[test]
fn node2vec_parameters_past_the_bound_are_refused_where_specs_enter() {
    let mut bad = vec![(1.0 / 64.0, 65.0), (1.0, 8192.0), (1.0 / 4097.0, 1.0)];
    for x in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        bad.extend([(x, 1.0), (1.0, x)]);
    }
    let graph = directed_path(4);
    let engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    for (p, q) in bad {
        let spec = node2vec(10, p, q);
        let err = service.submit(spec, &[0]).unwrap_err();
        assert!(
            matches!(err, bingo::service::ServiceError::InvalidNode2Vec { .. }),
            "p = {p}, q = {q}: {err:?}"
        );
        assert!(err.to_string().contains("at most 4096"), "{err}");

        let mut section = Vec::new();
        wire::encode_walk(Some(&spec), &mut section);
        assert!(
            matches!(wire::decode_walk(&section), Err(WireError::Corrupt(_))),
            "p = {p}, q = {q}"
        );

        let panic = std::panic::catch_unwind(|| WalkEngine::new(1).run(&engine, &spec, &[0]))
            .expect_err("a bare engine asserts the bound on the second step");
        let message = panic
            .downcast_ref::<String>()
            .expect("the assert formats its message");
        assert!(
            message.contains("max(p, 1, q) / min(p, 1, q) at most 4096"),
            "{message}"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.total_walks_completed(), 0, "nothing was queued");
}

/// Vertex 0 (shard 0) steps to `HUB` (shard 1) almost always; `HUB`'s
/// candidates carry all three node2vec factors against the previous vertex
/// 0: the way back, two out-neighbors of 0 and four vertices 0 has no edge
/// to. Weights put 59 %, 38 % and 3 % of the exact mass on the three.
fn three_factor_graph() -> (DynamicGraph, Vec<(VertexId, u64)>) {
    let n = 40;
    let mut graph = DynamicGraph::new(n);
    graph.insert_edge(0, HUB, Bias::from_int(1000)).unwrap();
    graph.insert_edge(0, 15, Bias::from_int(1)).unwrap();
    graph.insert_edge(0, 7, Bias::from_int(1)).unwrap();
    let fanout: Vec<(VertexId, u64)> = vec![
        (0, 6),    // backtrack → factor 1/p
        (15, 150), // out-neighbor of 0 → factor 1
        (7, 100),  // out-neighbor of 0 → factor 1
        (5, 256),  // no edge from 0 → factor 1/q
        (12, 384), // no edge from 0 → factor 1/q
        (33, 320), // no edge from 0 → factor 1/q
        (38, 320), // no edge from 0 → factor 1/q
    ];
    for &(dst, w) in &fanout {
        graph.insert_edge(HUB, dst, Bias::from_int(w)).unwrap();
    }
    for v in 1..n as VertexId {
        if v != HUB {
            graph
                .insert_edge(v, (v + 1) % n as VertexId, Bias::from_int(1))
                .unwrap();
        }
    }
    (graph, fanout)
}

/// At `p = 1/64, q = 64` — the bound's spread of 4096 — the second hop out
/// of `HUB` follows the exact `w · f` weights, chi-square at the 0.999
/// critical value, through the engine and through a 2-shard serialized
/// service that forwards every walker from vertex 0 to `HUB`'s shard.
#[test]
fn node2vec_at_the_spread_bound_matches_the_exact_second_order_weights() {
    let (graph, fanout) = three_factor_graph();
    let (p, q) = (1.0 / 64.0, 64.0);
    let spec = node2vec(2, p, q);
    let factor = |dst: VertexId| {
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
    let critical = chi_square_critical_999(fanout.len() - 1);
    let trials = 20_000;
    let starts = vec![0 as VertexId; trials];
    let check = |name: &str, paths: &[Vec<VertexId>]| {
        let mut counts = vec![0usize; fanout.len()];
        for path in paths {
            if path.len() == 3 && path[1] == HUB {
                counts[slot[&path[2]]] += 1;
            }
        }
        assert!(counts.iter().sum::<usize>() > trials * 99 / 100, "{name}");
        let stat = chi_square(&counts, &probs);
        assert!(
            stat < critical,
            "{name}: chi2 {stat:.2} vs critical {critical:.2} ({counts:?})"
        );
    };

    let engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
    check(
        "engine",
        &WalkEngine::new(0x3F).run(&engine, &spec, &starts).paths,
    );

    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 2,
            seed: 0x3F,
            transport: TransportMode::Serialized,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    assert_ne!(
        service.partitioner().owner(0),
        service.partitioner().owner(HUB)
    );
    let results = service.wait(service.submit(spec, &starts).unwrap());
    check("2-shard serialized service", &results.paths);
    let stats = service.shutdown();
    assert!(stats.total_context_bytes() > 0);
    assert_eq!(stats.total_context_misses(), 0);
}

/// An edit to a frame's visited path.
type PathRewrite = fn(&mut Vec<VertexId>);

/// A carrier that rewrites the visited path of every frame it carries and
/// re-encodes it; the walk section behind the frame is passed through.
struct PathRewriter(PathRewrite);

impl ShardTransport for PathRewriter {
    fn name(&self) -> &'static str {
        "path-rewriter"
    }

    fn carry(&self, _to: usize, frame: Vec<u8>) -> std::io::Result<Vec<u8>> {
        let (mut decoded, used) = wire::decode_walker(&frame).expect("the service frames decode");
        (self.0)(&mut decoded.path);
        let mut out = Vec::with_capacity(frame.len());
        wire::encode_walker(&decoded, &mut out);
        out.extend_from_slice(&frame[used..]);
        Ok(out)
    }
}

/// A serialized forward whose decoded path names a vertex past the graph,
/// or holds more vertices than the walk's `max_steps() + 1`, is unusable
/// bytes: the walker falls back to its in-process self, so the paths equal
/// the in-process run and every forward counts as a fallback.
#[test]
fn a_forward_whose_path_the_service_cannot_hold_falls_back() {
    let (graph, _) = cross_shard_fanout_graph();
    let spec = node2vec(12, 0.5, 2.0);
    let starts: Vec<VertexId> = (0..40).collect();
    let config = |transport| ServiceConfig {
        num_shards: 2,
        seed: 0xFA11,
        transport,
        ..ServiceConfig::default()
    };
    let reference = {
        let service = WalkService::build(&graph, config(TransportMode::InProcess)).unwrap();
        service.wait(service.submit(spec, &starts).unwrap()).paths
    };
    let rewrites: [(&str, PathRewrite); 2] = [
        ("a vertex past the graph", |path| path[0] = u32::MAX),
        ("a path past max_steps + 1", |path| {
            let last = *path.last().unwrap();
            path.resize(12 + 2, last);
        }),
    ];
    for (name, rewrite) in rewrites {
        let service = WalkService::build_with_transport(
            &graph,
            config(TransportMode::Serialized),
            Telemetry::disabled(),
            Arc::new(PathRewriter(rewrite)),
        )
        .unwrap();
        let paths = service.wait(service.submit(spec, &starts).unwrap()).paths;
        assert_eq!(paths, reference, "{name}");
        let stats = service.shutdown();
        assert!(stats.total_forwards() > 0, "{name}");
        assert_eq!(
            stats.total_transport_fallbacks(),
            stats.total_forwards(),
            "{name}"
        );
    }
}
