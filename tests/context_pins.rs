//! Pins the forwarded-context accounting of a serialized node2vec
//! service. Three waves of one walk per vertex run on a fixed seed, with
//! a structural batch ingested and synced between waves, so the snapshot
//! caches fill, evict and refill. Every number below was recorded while
//! each shard still kept a second, receiver-side snapshot map beside its
//! own; folding that map into holder bits on the owner's entry must leave
//! all of them in place.

use bingo::prelude::*;
use bingo::service::{LoopbackTransport, ShardTransport, TransportMode};
use bingo::walks::wire::{self, FrameContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const VERTICES: usize = 260;

fn test_graph() -> DynamicGraph {
    let mut rng = Pcg64::seed_from_u64(30);
    GraphGenerator::ErdosRenyi {
        vertices: VERTICES,
        edges: 2_600,
    }
    .generate(BiasDistribution::UniformInt { lo: 1, hi: 63 }, &mut rng)
}

/// The structural batch between waves `wave` and `wave + 1`: inserts out
/// of 24 vertices spread over the id space, so every shard evicts.
fn structural_batch(wave: u32) -> UpdateBatch {
    UpdateBatch::new(
        (0..24u32)
            .map(|i| UpdateEvent::Insert {
                src: (i * 11 + wave * 5) % VERTICES as u32,
                dst: (i * 37 + wave * 17 + 3) % VERTICES as u32,
                bias: Bias::from_int(u64::from(i % 7) + 1),
            })
            .collect(),
    )
}

/// FNV-1a over every path's length and vertices.
fn path_hash(paths: &[Vec<VertexId>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let words = paths
        .iter()
        .flat_map(|p| std::iter::once(p.len() as u64).chain(p.iter().map(|&v| u64::from(v))));
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// What one three-wave run leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Accounting {
    path_hash: u64,
    context_bytes: u64,
    context_bytes_raw: u64,
    cache_hits: u64,
    cache_misses: u64,
    handle_offers: u64,
    handle_hits: u64,
    bytes_sent: u64,
    bytes_recv: u64,
    fallbacks: u64,
    /// `snapshot_cache_occupancy()` after each wave.
    occupancy: [(usize, usize); 3],
}

fn run(num_shards: usize, carrier: Arc<dyn ShardTransport>) -> Accounting {
    let graph = test_graph();
    let service = WalkService::build_with_transport(
        &graph,
        ServiceConfig {
            num_shards,
            seed: 0x30_C0DE,
            transport: TransportMode::Serialized,
            ..ServiceConfig::default()
        },
        Telemetry::disabled(),
        carrier,
    )
    .unwrap();
    let spec = WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: 12,
        p: 0.5,
        q: 2.0,
    });
    let mut paths = Vec::new();
    let mut occupancy = [(0, 0); 3];
    for (wave, slot) in occupancy.iter_mut().enumerate() {
        if wave > 0 {
            service.sync(service.ingest(&structural_batch(wave as u32)));
        }
        paths.extend(
            service
                .wait(service.submit_all_vertices(spec).unwrap())
                .paths,
        );
        *slot = service.snapshot_cache_occupancy();
    }
    let stats = service.shutdown();
    assert_eq!(stats.total_context_misses(), 0, "no capture faults");
    Accounting {
        path_hash: path_hash(&paths),
        context_bytes: stats.total_context_bytes(),
        context_bytes_raw: stats.total_context_bytes_raw(),
        cache_hits: stats.total_context_cache_hits(),
        cache_misses: stats.total_context_cache_misses(),
        handle_offers: stats.total_handle_offers(),
        handle_hits: stats.total_handle_hits(),
        bytes_sent: stats.total_transport_bytes_sent(),
        bytes_recv: stats.total_transport_bytes_recv(),
        fallbacks: stats.total_transport_fallbacks(),
        occupancy,
    }
}

#[test]
fn serialized_context_accounting_is_pinned() {
    let pinned = Accounting {
        path_hash: 0x2f65_aae1_f59e_d8f1,
        context_bytes: 129_554,
        context_bytes_raw: 311_249,
        cache_hits: 6_137,
        cache_misses: 308,
        handle_offers: 6_445,
        handle_hits: 5_651,
        bytes_sent: 844_145,
        bytes_recv: 844_145,
        fallbacks: 0,
        occupancy: [(258, 596), (260, 656), (260, 668)],
    };
    assert_eq!(run(4, Arc::new(LoopbackTransport)), pinned);
}

/// A loopback carrier that decodes every frame and counts, for one
/// receiving shard, the context sections that arrived as a handle and as
/// an inline body.
struct ContextSpy {
    watched: usize,
    handles: AtomicU64,
    bodies: AtomicU64,
}

impl ShardTransport for ContextSpy {
    fn name(&self) -> &'static str {
        "context-spy"
    }

    fn carry(&self, to: usize, frame: Vec<u8>) -> std::io::Result<Vec<u8>> {
        if to == self.watched {
            let (decoded, _) = wire::decode_walker(&frame).expect("the service frames decode");
            match decoded.context {
                FrameContext::Handle(_) => self.handles.fetch_add(1, Ordering::Relaxed),
                FrameContext::Inline(_) => self.bodies.fetch_add(1, Ordering::Relaxed),
                FrameContext::None => 0,
            };
        }
        Ok(frame)
    }
}

/// Holder bits are one `u64` per snapshot: shard 64 is never recorded as
/// a holder, so every snapshot it is sent travels as a body. Its walks
/// are the 4-shard walks all the same.
#[test]
fn a_shard_past_the_holder_bits_always_takes_the_body() {
    let spy = Arc::new(ContextSpy {
        watched: 64,
        handles: AtomicU64::new(0),
        bodies: AtomicU64::new(0),
    });
    let wide = run(65, spy.clone());
    assert_eq!(
        wide.path_hash,
        run(4, Arc::new(LoopbackTransport)).path_hash,
        "65 shards walk the 4-shard paths"
    );
    assert_eq!(wide.fallbacks, 0);
    assert!(wide.handle_hits > 0, "shards 0..64 still take handles");
    assert_eq!(
        spy.handles.load(Ordering::Relaxed),
        0,
        "shard 64 took a handle"
    );
    assert!(
        spy.bodies.load(Ordering::Relaxed) > 1,
        "shard 64 was sent snapshots"
    );
}
