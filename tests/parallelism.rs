//! Tier-1 regression tests for the `rayon` shim's parallel runtime:
//! parallel execution must be invisible in every output.
//!
//! The load-bearing property is **bit-identical determinism**: an engine
//! build plus a node2vec walk pass must produce exactly the same
//! `WalkStore` contents whether the shim runs on one thread
//! (`BINGO_THREADS=1` regime, pinned here with `rayon::with_threads`) or a
//! full team. Per-walker RNG streams are index-derived and the shim's
//! chunk boundaries are thread-count-independent, so nothing about
//! scheduling may leak into the results.
//!
//! The same contract extends to the sharded service now that its shards
//! are resumable tasks on the shared pool: cross-shard batch stealing
//! changes *where* a walker's visit executes, never the visit itself
//! (thieves run against the owning shard's engine through the same
//! epoch-checked read path), so `WalkResults` must be bit-identical at
//! any thread count with stealing on or off.

use bingo::prelude::*;
use bingo::service::{ServiceConfig, TransportMode};
use bingo::walks::WalkStore;

fn test_graph(vertices: usize, edges: usize, seed: u64) -> DynamicGraph {
    let mut rng = Pcg64::seed_from_u64(seed);
    GraphGenerator::ErdosRenyi { vertices, edges }
        .generate(BiasDistribution::UniformInt { lo: 1, hi: 63 }, &mut rng)
}

/// Build an engine and run a full node2vec walk pass under a pinned thread
/// count, returning everything the comparison needs.
fn build_and_walk(graph: &DynamicGraph, threads: usize) -> (BingoEngine, WalkStore) {
    rayon::with_threads(threads, || {
        let engine = BingoEngine::build(graph, BingoConfig::default()).expect("engine builds");
        let spec = WalkSpec::Node2Vec(Node2VecConfig {
            walk_length: 16,
            p: 0.5,
            q: 2.0,
        });
        let store = WalkStore::generate(&engine, &spec, 0xDE7E_4214);
        (engine, store)
    })
}

#[test]
fn parallel_walk_store_is_bit_identical_to_sequential() {
    let graph = test_graph(600, 4800, 0xB1460);
    let (seq_engine, seq_store) = build_and_walk(&graph, 1);
    for threads in [2, 8] {
        let (par_engine, par_store) = build_and_walk(&graph, threads);
        // The engines are structurally equal…
        assert_eq!(seq_engine.num_edges(), par_engine.num_edges());
        for v in 0..graph.num_vertices() as VertexId {
            assert_eq!(
                seq_engine.degree(v),
                par_engine.degree(v),
                "degree of {v} with {threads} threads"
            );
        }
        assert_eq!(seq_engine.memory_report(), par_engine.memory_report());
        // …and the walk corpora are bit-identical, walk by walk.
        assert_eq!(
            seq_store.walks(),
            par_store.walks(),
            "WalkStore contents diverged at {threads} threads"
        );
        assert_eq!(seq_store.total_steps(), par_store.total_steps());
    }
}

#[test]
fn incremental_refresh_is_thread_count_independent() {
    let graph = test_graph(300, 2400, 0x5EED);
    let refresh = |threads: usize| {
        rayon::with_threads(threads, || {
            let mut engine =
                BingoEngine::build(&graph, BingoConfig::default()).expect("engine builds");
            let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 12 });
            let mut store = WalkStore::generate(&engine, &spec, 7);
            // Delete a popular edge and re-sample the affected suffixes —
            // the incremental path the paper's §7.2 integration serves.
            let hub = (0..graph.num_vertices() as VertexId)
                .max_by_key(|&v| engine.degree(v))
                .unwrap();
            let dst = engine.neighbor_fingerprint(hub).unwrap()[0];
            engine.delete_edge(hub, dst).unwrap();
            let stats = store.on_edge_deleted(&engine, hub, dst);
            (store, stats)
        })
    };
    let (seq_store, seq_stats) = refresh(1);
    let (par_store, par_stats) = refresh(4);
    assert_eq!(seq_stats, par_stats);
    assert_eq!(seq_store.walks(), par_store.walks());
}

#[test]
fn walk_engine_results_are_thread_count_independent() {
    let graph = test_graph(400, 3200, 0xCAFE);
    let engine = BingoEngine::build(&graph, BingoConfig::default()).expect("engine builds");
    let spec = WalkSpec::Ppr(PprConfig {
        stop_probability: 0.15,
        max_length: 40,
    });
    let run = |threads: usize| {
        rayon::with_threads(threads, || {
            WalkEngine::new(11).run_all_vertices(&engine, &spec)
        })
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(seq, par);
}

/// One sharded node2vec wave (second-order, so walkers are forwarded with
/// carried context) under a pinned team size, shard count and transport.
/// Returns the result paths, slotted by walker index.
fn service_walk_paths(
    graph: &DynamicGraph,
    threads: usize,
    shards: usize,
    transport: TransportMode,
) -> Vec<Vec<VertexId>> {
    rayon::with_threads(threads, || {
        let service = WalkService::build(
            graph,
            ServiceConfig {
                num_shards: shards,
                seed: 0x57EA_11CE,
                transport,
                ..ServiceConfig::default()
            },
        )
        .expect("service builds");
        let spec = WalkSpec::Node2Vec(Node2VecConfig {
            walk_length: 14,
            p: 0.5,
            q: 2.0,
        });
        let starts: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
        let results = service.wait(service.submit(spec, &starts).expect("submit"));
        service.shutdown();
        results.paths
    })
}

#[test]
fn service_results_are_thread_and_shard_count_independent() {
    // Walk paths depend only on the per-walker RNG stream and the engine
    // state at the observed epoch — never on which shard task (owner or
    // thief) executed the visit, on how many workers the pool has, or on
    // how the vertex space is sharded. The reference is a 1-shard service:
    // it never forwards a walker, so it carries no context, and has no peer
    // to steal from. Over the serialized transport the 4-shard walkers
    // rebuild their carried fingerprints from the frame or a handle; a
    // wrong fingerprint changes a node2vec draw, so the paths match only if
    // every carried context is the previous vertex's true adjacency.
    let graph = test_graph(240, 1900, 0x0577_EA11);
    let baseline = service_walk_paths(&graph, 1, 1, TransportMode::InProcess);
    assert_eq!(baseline.len(), graph.num_vertices());
    for transport in [TransportMode::InProcess, TransportMode::Serialized] {
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                service_walk_paths(&graph, threads, 4, transport),
                baseline,
                "4-shard {transport:?} WalkResults diverged from 1 shard at {threads} threads"
            );
        }
    }
}

#[test]
fn hot_shard_batches_are_stolen_by_idle_peers() {
    // Every walk starts on shard 0 and is one step long, so shard 0's
    // inbox floods far past the steal threshold while shards 1–3 sit
    // idle: the help-trigger must let them drain batches from shard 0's
    // inbox, and the stolen visits are attributed to the thieves.
    let n = 64usize;
    let mut graph = DynamicGraph::new(n);
    for v in 0..n as VertexId {
        graph
            .insert_edge(v, (v + 1) % n as VertexId, Bias::from_int(1))
            .unwrap();
    }
    let trials = 40_000;
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            seed: 0x57EA,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let starts = vec![0 as VertexId; trials];
    let results = service.wait(
        service
            .submit(
                WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 1 }),
                &starts,
            )
            .unwrap(),
    );
    assert_eq!(results.paths.len(), trials);
    let stats = service.shutdown();
    assert_eq!(stats.total_steps(), trials as u64);
    assert!(
        stats.total_stolen_walkers() > 0,
        "idle peers must steal from the flooded shard: {}",
        stats.to_json()
    );
    assert!(stats.total_stolen_batches() > 0);
    // Stolen visits are executed by non-owners: every step a peer shard
    // reports here came out of shard 0's inbox.
    let peer_steps: u64 = stats.per_shard[1..].iter().map(|s| s.steps).sum();
    let peer_stolen: u64 = stats.per_shard[1..].iter().map(|s| s.stolen_walkers).sum();
    assert_eq!(peer_steps, peer_stolen, "peer steps all come from steals");
    assert_eq!(
        stats.per_shard[0].steps + peer_steps,
        trials as u64,
        "owner + thieves cover every visit"
    );
}

#[test]
fn peers_with_walks_of_their_own_steal_from_a_hot_shard() {
    // The same flood on shard 0, but each of shards 1–3 also runs one walk
    // of its own, so its task reaches the idle transition whether or not
    // the help trigger woke it: on its way to idle it must drain batches
    // from shard 0's inbox, and the stolen visits are attributed to the
    // thieves.
    let n = 64usize;
    let mut graph = DynamicGraph::new(n);
    for v in 0..n as VertexId {
        graph
            .insert_edge(v, (v + 1) % n as VertexId, Bias::from_int(1))
            .unwrap();
    }
    let trials = 40_000;
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 4,
            seed: 0x57EA,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let one_step = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 1 });
    let starts = vec![0 as VertexId; trials];
    let flood = service.submit(one_step, &starts).unwrap();
    // One walk in each peer's uniform 16-vertex range, queued behind the
    // flood: one step each, never leaving its shard.
    let own = service.submit(one_step, &[16, 32, 48]).unwrap();
    let own_steps = service.wait(own).total_steps() as u64;
    assert_eq!(own_steps, 3);
    assert_eq!(service.wait(flood).paths.len(), trials);
    let stats = service.shutdown();
    assert_eq!(stats.total_steps(), trials as u64 + own_steps);
    assert!(
        stats.total_stolen_walkers() > 0,
        "idle peers must steal from the flooded shard: {}",
        stats.to_json()
    );
    assert!(stats.total_stolen_batches() > 0);
    // Stolen visits are executed by non-owners: every step a peer shard
    // reports here is its own walk's or came out of shard 0's inbox.
    let peer_steps: u64 = stats.per_shard[1..].iter().map(|s| s.steps).sum();
    let peer_stolen: u64 = stats.per_shard[1..].iter().map(|s| s.stolen_walkers).sum();
    assert_eq!(
        peer_steps,
        own_steps + peer_stolen,
        "peer steps are their own walks' plus stolen visits"
    );
    assert_eq!(
        stats.per_shard[0].steps + peer_stolen,
        trials as u64,
        "owner + thieves cover every visit"
    );
}

#[test]
fn pool_team_size_is_pinnable_per_scope() {
    assert!(rayon::current_num_threads() >= 1);
    assert_eq!(rayon::with_threads(1, rayon::current_num_threads), 1);
    assert_eq!(rayon::with_threads(6, rayon::current_num_threads), 6);
}
