//! What a walk service's snapshot maps keep per forwarded vertex, held to
//! the allocator's own count (its own binary, one test, as
//! `memory_accounting.rs`).
//!
//! A serialized node2vec service over four shards forwards walkers from
//! hubs of 2 500 distinct neighbors only: every other vertex links to the
//! hubs of its own shard, so every snapshot a shard captures is a hub's.
//! After three waves with a structural batch between them, one more batch
//! names every hub, which releases every snapshot; what that frees is what
//! the maps held beyond their own slots. A snapshot is a handle on the
//! owner's vertex space, so that must not grow with the hub's degree: a
//! map that kept the sorted neighbor ids of each hub would free 10 KB per
//! entry.

mod common;

use bingo::prelude::*;
use bingo::service::TransportMode;
use common::live;

const SHARDS: u32 = 4;
/// Vertices per shard under the uniform partition.
const RANGE: u32 = 1024;
const HUBS_PER_SHARD: u32 = 4;
const HUB_DEGREE: u32 = 2_500;
/// What a snapshot may keep beyond its map slot, in bytes.
const MAX_BYTES_PER_SNAPSHOT: usize = 256;

fn is_hub(v: VertexId) -> bool {
    v % RANGE < HUBS_PER_SHARD
}

/// Hubs link to 2 500 distinct non-hubs spread over every shard; a non-hub
/// links to two hubs of its own shard.
fn hub_graph() -> DynamicGraph {
    let vertices = SHARDS * RANGE;
    let mut graph = DynamicGraph::new(vertices as usize);
    let leaves: Vec<VertexId> = (0..vertices).filter(|&v| !is_hub(v)).collect();
    for v in 0..vertices {
        if is_hub(v) {
            for i in 0..HUB_DEGREE {
                let leaf = leaves[((v + 7 * i) % leaves.len() as u32) as usize];
                graph
                    .insert_edge(v, leaf, Bias::from_int(u64::from(i % 5) + 1))
                    .unwrap();
            }
        } else {
            let hubs = v - v % RANGE;
            for k in [v % HUBS_PER_SHARD, (v + 1) % HUBS_PER_SHARD] {
                graph.insert_edge(v, hubs + k, Bias::from_int(2)).unwrap();
            }
        }
    }
    graph
}

/// A structural batch: every event's source is in `srcs`, which must not
/// link to `far`.
fn touching(srcs: impl Iterator<Item = VertexId>, far: VertexId) -> UpdateBatch {
    UpdateBatch::new(
        srcs.map(|src| UpdateEvent::Delete { src, dst: far })
            .collect(),
    )
}

#[test]
fn snapshot_maps_keep_no_copy_of_a_hubs_adjacency() {
    if !common::counts_are_exact() {
        return;
    }
    let graph = hub_graph();
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: SHARDS as usize,
            transport: TransportMode::Serialized,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let node2vec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 12,
        p: 0.5,
        q: 2.0,
    });
    let hubs: Vec<VertexId> = (0..SHARDS * RANGE).filter(|&v| is_hub(v)).collect();
    // Hubs never link to hubs, nor does a non-hub to another shard's or
    // to hubs 0 and 1 of its own when it is 2 mod 4: deleting an edge to
    // vertex 1 from any of those touches the source and changes nothing.
    let far = hubs[1];
    let mut walked = 0;
    for wave in 0..3u32 {
        if wave > 0 {
            // Between waves: a batch on every hub, which evicts every
            // snapshot the last wave captured.
            service.sync(service.ingest(&touching(hubs.iter().copied(), far)));
        }
        let results = service.wait(service.submit_all_vertices(node2vec).unwrap());
        walked += results.paths.iter().filter(|p| p.len() > 2).count();
    }
    assert!(walked > 1000, "waves walked: {walked}");
    // A batch on non-hubs only: it evicts nothing, and drops the sorted
    // ids the last wave built for the bodies it shipped.
    service.sync(service.ingest(&touching((0..SHARDS).map(|s| s * RANGE + 102), far)));
    let (snapshots, holders) = service.snapshot_cache_occupancy();
    assert!(
        snapshots >= hubs.len() / 2 && holders > 0,
        "the last wave captured hub snapshots and shipped their bodies: {snapshots}, {holders}"
    );

    let before = live();
    service.sync(service.ingest(&touching(hubs.iter().copied(), far)));
    let freed = before.saturating_sub(live());
    eprintln!("released {snapshots} snapshots ({holders} holders): {freed} B freed");
    assert_eq!(
        service.snapshot_cache_occupancy(),
        (0, 0),
        "every hub released"
    );
    assert!(
        freed < MAX_BYTES_PER_SNAPSHOT * snapshots,
        "releasing {snapshots} hub snapshots freed {freed} B: {} B each",
        freed / snapshots
    );
    service.shutdown();
}
