//! Walker forwarding: what crosses a shard boundary, and how.
//!
//! One lock lives here, per shard: `service.shard_ctx_cache`, the map of
//! the context snapshots the shard captured. Capture, negotiation and
//! release take it under the owner's engine lock (order `shard_engine` →
//! `shard_ctx_cache`); handle resolution takes it with no other lock held.
//! "Shard `to` holds this snapshot" is bit `to` on the owner's entry.
//!
//! A snapshot is a copy-on-write handle on the owner's `VertexSpace`
//! ([`CarriedContext::captured`]): capturing one clones two reference
//! counts, and a membership query probes the vertex's edge index. Its
//! wire body is still the sorted distinct neighbor ids, built when a body
//! ships. A batch releases the map's handles on the vertices it writes
//! before it writes them, so the map never pins an old version and the
//! write happens in place: every vertex it writes leaves the map, holder
//! bits and all, and the next forward from it captures it afresh.
//!
//! [`TransportMode`](crate::TransportMode) is read once, at build: it
//! decides whether the service keeps a frame carrier. An in-process
//! forward moves the boxed walker with its captured context attached:
//! nothing is framed, so nothing is negotiated and no byte is billed. A
//! serialized forward negotiates under the owner's read guard, frames the
//! walker and the walk it runs, carries, rebuilds the walker from the
//! delivered bytes alone — no ticket table is consulted — and bills the
//! bytes it built: every counter named `*bytes*` counts bytes that sat in
//! a `Vec<u8>`.

use crate::service::{ServiceShared, WalkService};
use crate::shard::Walker;
use crate::stats::ShardCounters;
use crate::transport::ShardTransport;
use bingo_core::BingoEngine;
use bingo_graph::{UpdateBatch, VertexId};
use bingo_sampling::rng::Pcg64;
use bingo_telemetry::TraceStage;
use bingo_walks::wire::{self, ContextHandle, FrameContext, WalkerFrame};
use bingo_walks::{CarriedContext, ContextRequirement, Walk, WalkCursor};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes shipped when the receiving shard already holds the offered
/// `(vertex, epoch)` snapshot: the wire-format [`ContextHandle`] instead
/// of the payload (re-exported from [`bingo_walks::wire`], whose encoder
/// defines the layout). Snapshots whose payload is no larger than the
/// handle always ship inline — a handle would not save anything — so
/// negotiation only engages past this size.
pub use bingo_walks::wire::CONTEXT_HANDLE_BYTES;

/// One shard's snapshot map: per forwarded vertex, a copy-on-write handle
/// on the owner's `VertexSpace`, not a copy of its adjacency. Entry
/// presence implies validity: a batch evicts exactly the vertices it
/// writes, whatever the event kind, while every other entry stays warm
/// across the epoch advance. One slot per vertex, so occupancy is bounded
/// by the forwarded-vertex set no matter how many epochs pass, and an
/// entry's bytes do not grow with the vertex's degree.
pub(crate) struct SnapshotCache {
    entries: Mutex<Snapshots>,
    /// The epoch the shard's last shed covered, published after the shed
    /// has freed its ids: one store per activation that applied batches.
    shed_epoch: AtomicU64,
}

impl SnapshotCache {
    pub(crate) fn new() -> Self {
        let snapshots = Snapshots {
            map: HashMap::new(),
            bodies: Vec::new(),
        };
        SnapshotCache {
            entries: Mutex::new_named(snapshots, "service.shard_ctx_cache"),
            shed_epoch: AtomicU64::new(0),
        }
    }
}

/// What the lock guards: the snapshots, and the vertices whose snapshot
/// shipped a body since the shard last applied a batch. A body is sorted
/// once and serves every peer that asks for it in the same epoch; once
/// the next batches are in, [`ServiceShared::shed_bodies`] drops the ids
/// again (the space answers membership, and a later ship sorts them
/// afresh), so the map keeps sorted ids only for what shipped within one
/// epoch.
struct Snapshots {
    map: HashMap<VertexId, Snapshot>,
    bodies: Vec<VertexId>,
}

/// A snapshot this shard captured, reused by every walker forwarded while
/// no batch writes its vertex.
struct Snapshot {
    /// The capture epoch, which names the snapshot in a [`ContextHandle`].
    epoch: u64,
    ctx: CarriedContext,
    /// Bit `s` set: a serialized forward already sent shard `s` this
    /// snapshot's body, so the next forward to `s` ships a handle. Shards
    /// past index 63 are never recorded and always receive the body.
    holders: u64,
    /// Whether the vertex is in [`Snapshots::bodies`].
    body_listed: bool,
}

/// `shard`'s bit in [`Snapshot::holders`], 0 past index 63.
fn holder_bit(shard: usize) -> u64 {
    if shard < 64 {
        1 << shard
    } else {
        0
    }
}

impl Snapshot {
    /// Bill a serialized forward of this snapshot to shard `to` on the
    /// owner's counters `c`: a body larger than a handle is offered, and
    /// ships as a [`ContextHandle`] when `to` already holds it; otherwise
    /// the body ships and `to` becomes a holder (a body request: an offer
    /// without a hit). `context_bytes_raw` is the body-on-every-forward
    /// baseline, `context_bytes_forwarded` what the frame carries. A body
    /// that ships is noted in `bodies`.
    fn negotiate(
        &mut self,
        owner_shard: usize,
        to: usize,
        c: &ShardCounters,
        bodies: &mut Vec<VertexId>,
    ) -> (usize, Option<ContextHandle>) {
        let body_len = self.ctx.byte_len();
        let mut shipped = (body_len, None);
        if body_len > CONTEXT_HANDLE_BYTES {
            c.context_handle_offers.inc();
            let bit = holder_bit(to);
            if self.holders & bit != 0 {
                c.context_handle_hits.inc();
                let handle = ContextHandle {
                    vertex: self.ctx.vertex,
                    owner_shard: owner_shard as u32,
                    epoch: self.epoch,
                };
                shipped = (CONTEXT_HANDLE_BYTES, Some(handle));
            }
            self.holders |= bit;
        }
        if shipped.1.is_none() && !self.body_listed {
            self.body_listed = true;
            bodies.push(self.ctx.vertex);
        }
        c.context_bytes_raw.add(body_len as u64);
        c.context_bytes_forwarded.add(shipped.0 as u64);
        shipped
    }
}

/// What [`ServiceShared::attach_forward_context`] decided for one
/// forwarded snapshot, carried out of the engine-guarded section.
pub(crate) struct ForwardNegotiation {
    /// The capturing shard's snapshot map already held the snapshot.
    cache_hit: bool,
    /// Bytes billed and framed: the body when the receiver does not hold
    /// the snapshot, [`CONTEXT_HANDLE_BYTES`] when it does, 0 in process.
    bytes_sent: usize,
    /// `Some` when the receiver held the `(vertex, epoch)` snapshot: the
    /// wire frame ships this handle instead of the body.
    handle: Option<ContextHandle>,
}

impl ServiceShared {
    /// Capture the model-declared cross-shard context before forwarding:
    /// for second-order models, a membership snapshot of the walker's
    /// previous vertex — which this shard owns, because it just sampled the
    /// step that left it. A snapshot is a clone of the vertex's space,
    /// taken at most once per `(vertex, epoch)` and shared by every walker
    /// forwarded in the same wave.
    ///
    /// A serialized forward negotiates under the same map lock
    /// ([`Snapshot::negotiate`]). The caller holds `owner_shard`'s engine
    /// read guard: it pins the epoch the snapshot describes (no update
    /// can slip between capture and insert), and release runs under the
    /// write guard, so a snapshot and its holder bits always leave
    /// together.
    ///
    /// Returns `None` when the model carries no context or one is already
    /// attached.
    pub(crate) fn attach_forward_context(
        &self,
        owner_shard: usize,
        to: usize,
        engine: &BingoEngine,
        walker: &mut Walker,
    ) -> Option<ForwardNegotiation> {
        if walker.cursor.walk().required_context() != ContextRequirement::PreviousAdjacency {
            return None;
        }
        let state = walker.cursor.state();
        let Some(prev) = state.prev() else {
            return None; // no history yet: the model's first step needs none
        };
        if state.carried_context().is_some() || !engine.owns(prev) {
            return None;
        }
        let c = &self.counters[owner_shard];
        // The stored stamp is the *capture* epoch: a batch that does not
        // write `prev` advances the counter without invalidating its
        // snapshot, so entry presence (upheld by `release_snapshots`) — not
        // stamp freshness — is what implies validity.
        let (ctx, cache_hit, (bytes_sent, handle)) = {
            let mut entries = self.shards[owner_shard].snapshots.entries.lock();
            let Snapshots { map, bodies } = &mut *entries;
            let (snapshot, cache_hit) = match map.entry(prev) {
                Entry::Occupied(slot) => (slot.into_mut(), true),
                Entry::Vacant(slot) => {
                    let space = engine.vertex_space(prev).ok()?.clone();
                    let snapshot = Snapshot {
                        epoch: c.epoch.get_acquire(),
                        ctx: CarriedContext::captured(prev, space),
                        holders: 0,
                        body_listed: false,
                    };
                    (slot.insert(snapshot), false)
                }
            };
            let shipped = match self.carrier {
                Some(_) => snapshot.negotiate(owner_shard, to, c, bodies),
                None => (0, None),
            };
            (snapshot.ctx.clone(), cache_hit, shipped)
        };
        if cache_hit {
            c.context_cache_hits.inc();
        } else {
            c.context_cache_misses.inc();
        }
        walker.cursor.set_forward_context(ctx);
        Some(ForwardNegotiation {
            cache_hit,
            bytes_sent,
            handle,
        })
    }

    /// Release `shard_id`'s handles on the vertices `batch` writes, before
    /// it writes them, so no snapshot pins a version the write would have
    /// to copy ([`CarriedContext::release`]: one a walker in flight still
    /// carries is frozen into its sorted ids). Each leaves the map, holder
    /// bits and all, whatever the event kind, so a stale `(vertex, epoch)`
    /// can never satisfy a handle; the next forward from the vertex
    /// captures it afresh. Every other entry stays warm across the epoch
    /// advance. The caller holds `shard_id`'s engine write guard.
    pub(crate) fn release_snapshots(&self, shard_id: usize, batch: &UpdateBatch) {
        let mut entries = self.shards[shard_id].snapshots.entries.lock();
        let map = &mut entries.map;
        if map.is_empty() {
            return;
        }
        for e in batch.events() {
            if let Some(s) = map.remove(&e.src()) {
                s.ctx.release();
            }
        }
    }

    /// Once an activation of `shard_id` has applied its batches and woken
    /// `sync`, drop the sorted ids of the snapshots that shipped a body
    /// since the last time, then publish the epoch the shed covered. No
    /// engine guard is held and `sync` does not wait on it: it frees
    /// memory, and only [`WalkService::snapshot_cache_occupancy`] reads
    /// the published epoch. The ids are freed after the map's guard drops,
    /// so a handle resolution never waits on the free.
    pub(crate) fn shed_bodies(&self, shard_id: usize) {
        // Only this shard's activation applies its batches, so the epoch
        // stays put until the store below.
        let epoch = self.counters[shard_id].epoch.get_acquire();
        let cache = &self.shards[shard_id].snapshots;
        let mut entries = cache.entries.lock();
        let Snapshots { map, bodies } = &mut *entries;
        let shed: Vec<_> = bodies
            .drain(..)
            .filter_map(|v| {
                let s = map.get_mut(&v)?;
                s.body_listed = false;
                s.ctx.shed_body()
            })
            .collect();
        drop(entries);
        drop(shed);
        cache.shed_epoch.store(epoch, Ordering::Release);
    }

    /// Send `walker` on to shard `to`, with no engine lock held: the
    /// forward-hop trace lands after the visit's step-batch span, and the
    /// push touches inboxes and the pool injector only.
    pub(crate) fn forward(
        self: &Arc<Self>,
        owner_shard: usize,
        to: usize,
        mut walker: Box<Walker>,
        context: Option<ForwardNegotiation>,
    ) {
        if walker.sampled {
            let (cache_hit, bytes) = context
                .as_ref()
                .map_or((false, 0), |n| (n.cache_hit, n.bytes_sent));
            self.telemetry.trace(
                walker.ticket,
                walker.index,
                TraceStage::ForwardHop {
                    from_shard: owner_shard as u32,
                    to_shard: to as u32,
                    cache_hit,
                    bytes: bytes as u64,
                },
            );
        }
        walker.sent_at = self.telemetry.timer();
        let walker = match &self.carrier {
            Some(carrier) => {
                let handle = context.and_then(|n| n.handle);
                self.round_trip(carrier.as_ref(), owner_shard, to, walker, handle)
            }
            None => walker,
        };
        self.push_walker(to, walker);
    }

    /// Encode the walker into its versioned wire frame and walk section,
    /// hand the bytes to the carrier, decode what arrives, and rebuild the
    /// walker **from the bytes alone** — walk named by the walk section,
    /// cursor replayed from the path, RNG restored from its raw parts,
    /// context taken from the frame (inline body) or resolved from the
    /// owner's snapshot map (negotiated handle). The walker the receiving
    /// shard processes then contains exactly what crossed the wire, so
    /// serialized and in-process runs are bit-identical by construction,
    /// not by assumption.
    ///
    /// Any failure — carrier error, undecodable bytes, a frame that
    /// decodes to another walker's `(ticket, index)`, a walk section that
    /// names a custom model for a built-in walker, a path naming a vertex
    /// past the graph or longer than the walk's `max_steps() + 1`, a
    /// handle whose snapshot was evicted mid-flight — falls back to the
    /// original in-process walker and is counted as
    /// `service.transport.fallbacks`: the forward degrades to zero-copy
    /// instead of losing the walk (the attach-time context is still on
    /// its cursor, so even the evicted-handle race keeps the membership
    /// answers intact).
    fn round_trip(
        &self,
        carrier: &dyn ShardTransport,
        owner_shard: usize,
        to: usize,
        mut walker: Box<Walker>,
        handle: Option<ContextHandle>,
    ) -> Box<Walker> {
        let (rng_state, rng_inc) = walker.rng.to_raw_parts();
        let context = match handle {
            Some(h) => FrameContext::Handle(h),
            None => match walker.cursor.state().carried_context() {
                Some(ctx) => FrameContext::Inline(ctx.clone()),
                None => FrameContext::None,
            },
        };
        let frame = WalkerFrame {
            ticket: walker.ticket,
            index: walker.index,
            hops: walker.hops,
            context_misses: walker.context_misses,
            sampled: walker.sampled,
            rng_state,
            rng_inc,
            path: walker.cursor.path().to_vec(),
            context,
        };
        let spec = walker.cursor.walk().spec();
        let mut buf = Vec::with_capacity(frame.encoded_len() + wire::walk_section_len(spec));
        let sent = wire::encode_walker(&frame, &mut buf) + wire::encode_walk(spec, &mut buf);
        let c = &self.counters[owner_shard];
        c.transport_bytes_sent.add(sent as u64);
        // One `u32` per visited vertex.
        c.transport_path_bytes.add(4 * frame.path.len() as u64);
        match self.rebuild_from_wire(carrier, to, &mut walker, buf) {
            Some(rebuilt) => rebuilt,
            None => {
                c.transport_fallbacks.inc();
                walker
            }
        }
    }

    /// The receiving half of [`ServiceShared::round_trip`]: carry `frame`
    /// to shard `to` and rebuild `sent`'s successor from the delivered
    /// bytes. `None` means the bytes were not usable and `sent` is
    /// untouched; on success `sent`'s out-of-band baggage (the dwell stamp,
    /// a custom model — which has no wire form) moves onto the rebuilt
    /// walker.
    fn rebuild_from_wire(
        &self,
        carrier: &dyn ShardTransport,
        to: usize,
        sent: &mut Walker,
        frame: Vec<u8>,
    ) -> Option<Box<Walker>> {
        let delivered = carrier.carry(to, frame).ok()?;
        let (decoded, frame_len) = wire::decode_walker(&delivered).ok()?;
        // The finished walk is filed under the frame's own `(ticket,
        // index)`: a frame that names any walker but the one sent would
        // land in (or past) another walker's result slot.
        if (decoded.ticket, decoded.index) != (sent.ticket, sent.index) {
            return None;
        }
        let (spec, _) = wire::decode_walk(&delivered[frame_len..]).ok()?;
        let walk = match (spec, sent.cursor.walk()) {
            (Some(spec), _) => Walk::Builtin(spec),
            (None, Walk::Custom(model)) => Walk::Custom(Arc::clone(model)),
            (None, Walk::Builtin(_)) => return None,
        };
        // A path the service cannot hold — a vertex past the graph, more
        // vertices than the walk takes steps — is unusable bytes too.
        if decoded.path.len() > walk.max_steps().saturating_add(1)
            || decoded
                .path
                .iter()
                .any(|&v| v as usize >= self.num_vertices)
        {
            return None;
        }
        let mut cursor = WalkCursor::resume(walk, decoded.path)?;
        match decoded.context {
            FrameContext::Inline(ctx) => {
                cursor.set_forward_context(ctx);
            }
            FrameContext::Handle(h) => {
                let ctx = self
                    .resolve_handle(h, to)
                    .or_else(|| sent.cursor.state().carried_context().cloned())?;
                cursor.set_forward_context(ctx);
            }
            FrameContext::None => {}
        }
        self.counters[to]
            .transport_bytes_recv
            .add(delivered.len() as u64);
        Some(Box::new(Walker {
            ticket: decoded.ticket,
            index: decoded.index,
            cursor,
            rng: Pcg64::from_raw_parts(decoded.rng_state, decoded.rng_inc),
            hops: decoded.hops,
            context_misses: decoded.context_misses,
            sampled: decoded.sampled,
            sent_at: sent.sent_at.take(),
        }))
    }

    /// The snapshot `h` names, if its owner still has it at `h`'s epoch
    /// with shard `to` recorded as a holder.
    fn resolve_handle(&self, h: ContextHandle, to: usize) -> Option<CarriedContext> {
        let owner = self.shards.get(h.owner_shard as usize)?;
        let entries = owner.snapshots.entries.lock();
        let s = entries.map.get(&h.vertex)?;
        (s.epoch == h.epoch && s.holders & holder_bit(to) != 0).then(|| s.ctx.clone())
    }
}

impl WalkService {
    /// Point-in-time occupancy of the snapshot maps, summed across shards:
    /// `(snapshots, holders)` — the snapshots captured, and the shards
    /// recorded as holding one (always 0 when forwards move in process).
    /// Both are bounded by the set of vertices that actually forwarded
    /// context, **not** by how many epochs have passed (the regression the
    /// bounded-occupancy test pins).
    ///
    /// Returns once every shard has shed the bodies of the batches it has
    /// applied, so what they held is freed before the reading: a test that
    /// measures memory right after it does not count a late shed.
    pub fn snapshot_cache_occupancy(&self) -> (usize, usize) {
        let mut occupancy = (0, 0);
        for (shard, counters) in self.shared.shards.iter().zip(&self.shared.counters) {
            while shard.snapshots.shed_epoch.load(Ordering::Acquire) != counters.epoch.get_acquire()
            {
                std::thread::yield_now();
            }
            // Each map is released before the next is taken.
            let entries = shard.snapshots.entries.lock();
            let held: u32 = entries.map.values().map(|s| s.holders.count_ones()).sum();
            occupancy.0 += entries.map.len();
            occupancy.1 += held as usize;
        }
        occupancy
    }
}
