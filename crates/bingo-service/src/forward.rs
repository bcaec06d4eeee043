//! Walker forwarding: what crosses a shard boundary, and how.
//!
//! Two locks live here, both per shard and both taken only while the
//! owner's engine lock is held (orders `shard_engine` → `shard_ctx_cache`
//! and `shard_engine` → `shard_rx_cache`; the two are never held
//! together): the sender-side snapshot cache, which keeps a second-order
//! model's context from being captured more than once per `(vertex,
//! epoch)`, and the receiver-side cache a serialized forward negotiates
//! handles against.
//!
//! [`TransportMode`] is read once, in `wire_carrier`. An in-process
//! forward moves the boxed walker with its sender-cached context attached:
//! nothing is framed, so nothing is negotiated and no byte is billed. A
//! serialized forward negotiates under the owner's read guard, frames the
//! walker and the walk it runs, carries, rebuilds the walker from the
//! delivered bytes alone — no ticket table is consulted — and bills the
//! bytes it built: every counter named `*bytes*` counts bytes that sat in
//! a `Vec<u8>`.

use crate::service::{ServiceShared, WalkService};
use crate::shard::{ShardMsg, Walker};
use crate::transport::{ShardTransport, TransportMode};
use bingo_core::BingoEngine;
use bingo_graph::VertexId;
use bingo_sampling::rng::Pcg64;
use bingo_telemetry::TraceStage;
use bingo_walks::wire::{self, ContextHandle, FrameContext, WalkerFrame};
use bingo_walks::{CarriedContext, ContextRequirement, Walk, WalkCursor};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Bytes shipped when the receiver's snapshot cache already holds the
/// offered `(vertex, epoch)` snapshot: the wire-format
/// [`ContextHandle`] instead of the payload (re-exported from
/// [`bingo_walks::wire`], whose encoder defines the layout). Snapshots
/// whose payload is no larger than the handle always ship inline — a
/// handle would not save anything — so negotiation only engages past
/// this size.
pub use bingo_walks::wire::CONTEXT_HANDLE_BYTES;

/// One forwarded-context capture: the previous vertex whose adjacency was
/// snapshotted and the membership snapshot that travelled with the walker
/// (recorded when
/// [`ServiceConfig::record_epochs`](crate::ServiceConfig::record_epochs) is
/// set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextTrace {
    /// The vertex whose out-adjacency was captured (the walker's previous
    /// vertex at forward time).
    pub vertex: VertexId,
    /// The sorted adjacency fingerprint the snapshot holds.
    pub adjacency: Vec<VertexId>,
    /// Shard that owned `vertex` and captured the snapshot.
    pub shard: usize,
    /// The capturing shard's epoch at capture time.
    pub epoch: u64,
    /// Bytes billed to `context_bytes_forwarded` for this forward — what
    /// the wire frame ships: the snapshot's encoded size when the receiver
    /// had to be sent the body, [`CONTEXT_HANDLE_BYTES`] when the
    /// receiver's snapshot cache already held this `(vertex, epoch)` and a
    /// handle sufficed, 0 for an in-process forward (no frame).
    pub bytes_sent: usize,
    /// Whether the *sender's* encode cache already held the snapshot
    /// (encode reuse — independent of the receiver-side handle
    /// negotiation that decides `bytes_sent`).
    pub cache_hit: bool,
}

/// One shard's two snapshot caches. Entry presence implies validity:
/// structural update batches evict exactly the vertices they touched,
/// while bias-only batches and empty epoch ticks keep both tiers warm
/// (fingerprints are membership sets, which reweights never alter). One
/// slot per key, so occupancy is bounded by the forwarded-vertex set no
/// matter how many epochs pass.
pub(crate) struct SnapshotCaches {
    /// Sender side: snapshots captured on this shard, stamped with their
    /// capture epoch and reused by every walker forwarded in the same
    /// wave.
    context_cache: Mutex<HashMap<VertexId, (u64, CarriedContext)>>,
    /// Receiver side, keyed by `(owner_shard, vertex)`: a serialized
    /// forward whose `(vertex, epoch)` is already here ships a handle;
    /// otherwise the body ships and seeds this cache (newer captures
    /// overwrite). The owning shard's structural updates evict its touched
    /// keys from every peer's cache.
    rx_cache: Mutex<HashMap<(u32, VertexId), (u64, CarriedContext)>>,
}

impl SnapshotCaches {
    pub(crate) fn new() -> Self {
        SnapshotCaches {
            context_cache: Mutex::new_named(HashMap::new(), "service.shard_ctx_cache"),
            rx_cache: Mutex::new_named(HashMap::new(), "service.shard_rx_cache"),
        }
    }
}

/// The carrier forwards are framed for: `carrier` under
/// [`TransportMode::Serialized`], `None` (walkers move in process)
/// otherwise. The one place the mode is read.
pub(crate) fn wire_carrier(
    mode: TransportMode,
    carrier: Arc<dyn ShardTransport>,
) -> Option<Arc<dyn ShardTransport>> {
    (mode == TransportMode::Serialized).then_some(carrier)
}

/// What [`ServiceShared::attach_forward_context`] decided for one
/// forwarded snapshot, carried out of the engine-guarded section.
pub(crate) struct ForwardNegotiation {
    /// The *sender's* encode cache already held the snapshot.
    cache_hit: bool,
    /// Bytes billed and framed: the body on a receiver miss,
    /// [`CONTEXT_HANDLE_BYTES`] on a receiver hit, 0 in process.
    bytes_sent: usize,
    /// `Some` when the receiver held the `(vertex, epoch)` snapshot: the
    /// wire frame ships this handle instead of the body.
    handle: Option<ContextHandle>,
}

impl ServiceShared {
    /// Capture the model-declared cross-shard context before forwarding:
    /// for second-order models, a membership snapshot of the walker's
    /// previous vertex — which this shard owns, because it just sampled the
    /// step that left it. Snapshots are built at most once per `(vertex,
    /// epoch)` and reused by every walker forwarded in the same wave.
    ///
    /// The caller holds `owner_shard`'s engine read guard: it pins the
    /// epoch the fingerprint describes (no update can slip between capture
    /// and cache insert), and a serialized forward's handle negotiation
    /// happens under it too, so the owner's eviction sweep (under the
    /// write guard) can never fall between the capture and the receiver
    /// cache insert — a snapshot the sweep dropped is never seeded after
    /// it.
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
        // The stored stamp is the *capture* epoch: bias-only epoch ticks
        // advance the counter without invalidating membership, so entry
        // presence (upheld by `evict_snapshots`) — not stamp freshness —
        // is what implies validity.
        let (capture_epoch, ctx, cache_hit) = {
            let mut cache = self.shards[owner_shard].caches.context_cache.lock();
            match cache.get(&prev) {
                Some(&(stamp, ref cached)) => (stamp, cached.clone(), true),
                None => {
                    let ctx = CarriedContext {
                        vertex: prev,
                        adjacency: engine.context_fingerprint_shared(prev)?,
                    };
                    let stamp = c.epoch.get_acquire();
                    cache.insert(prev, (stamp, ctx.clone()));
                    (stamp, ctx, false)
                }
            }
        };
        if cache_hit {
            c.context_cache_hits.inc();
        } else {
            c.context_cache_misses.inc();
        }
        let (bytes_sent, handle) = if self.carrier.is_some() {
            self.negotiate(owner_shard, to, capture_epoch, &ctx)
        } else {
            (0, None)
        };
        if self.record_epochs {
            walker.contexts.push(ContextTrace {
                vertex: ctx.vertex,
                adjacency: ctx.adjacency.as_ref().clone(),
                shard: owner_shard,
                epoch: c.epoch.get_acquire(),
                bytes_sent,
                cache_hit,
            });
        }
        walker.cursor.set_forward_context(ctx);
        Some(ForwardNegotiation {
            cache_hit,
            bytes_sent,
            handle,
        })
    }

    /// Decide what a serialized forward ships for `ctx` and bill it: a
    /// snapshot shard `to` already holds at the same `(vertex, epoch)`
    /// goes as a [`ContextHandle`]; otherwise the encoded body ships and
    /// seeds `to`'s cache (a body request: an offer without a hit).
    /// Bodies no larger than a handle always ship inline.
    /// `context_bytes_raw` is the body-on-every-forward baseline,
    /// `context_bytes_forwarded` what the frame carries.
    fn negotiate(
        &self,
        owner_shard: usize,
        to: usize,
        capture_epoch: u64,
        ctx: &CarriedContext,
    ) -> (usize, Option<ContextHandle>) {
        let c = &self.counters[owner_shard];
        let body_len = ctx.byte_len();
        let (bytes_sent, handle) = if body_len > CONTEXT_HANDLE_BYTES {
            c.context_handle_offers.inc();
            let mut rx = self.shards[to].caches.rx_cache.lock();
            let key = (owner_shard as u32, ctx.vertex);
            match rx.get(&key) {
                Some(&(stamp, _)) if stamp == capture_epoch => {
                    c.context_handle_hits.inc();
                    let handle = ContextHandle {
                        vertex: ctx.vertex,
                        owner_shard: owner_shard as u32,
                        epoch: capture_epoch,
                    };
                    (CONTEXT_HANDLE_BYTES, Some(handle))
                }
                _ => {
                    rx.insert(key, (capture_epoch, ctx.clone()));
                    (body_len, None)
                }
            }
        } else {
            (body_len, None)
        };
        c.context_bytes_raw.add(body_len as u64);
        c.context_bytes_forwarded.add(bytes_sent as u64);
        (bytes_sent, handle)
    }

    /// Drop the snapshots of `touched` — the vertices whose adjacency
    /// membership a batch on `shard_id` changes — from that shard's sender
    /// cache and, when forwards are serialized, from every peer's receiver
    /// cache (which holds copies keyed to this shard), so a stale
    /// `(vertex, epoch)` can never satisfy a handle offer. Every other
    /// entry stays warm across the epoch advance. The caller holds
    /// `shard_id`'s engine write guard.
    pub(crate) fn evict_snapshots(&self, shard_id: usize, touched: &[VertexId]) {
        {
            let mut cache = self.shards[shard_id].caches.context_cache.lock();
            for v in touched {
                cache.remove(v);
            }
        }
        if self.carrier.is_some() {
            for peer in &self.shards {
                let mut rx = peer.caches.rx_cache.lock();
                for &v in touched {
                    rx.remove(&(shard_id as u32, v));
                }
            }
        }
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
        self.push(to, ShardMsg::Walker(walker));
    }

    /// Encode the walker into its versioned wire frame and walk section,
    /// hand the bytes to the carrier, decode what arrives, and rebuild the
    /// walker **from the bytes alone** — walk named by the walk section,
    /// cursor replayed from the path, RNG restored from its raw parts,
    /// context taken from the frame (inline body) or resolved from the
    /// receiver's snapshot cache (negotiated handle). The walker the
    /// receiving shard processes then contains exactly what crossed the
    /// wire, so serialized and in-process runs are bit-identical by
    /// construction, not by assumption.
    ///
    /// Any failure — carrier error, undecodable bytes, a frame that
    /// decodes to another walker's `(ticket, index)`, a walk section that
    /// names a custom model for a built-in walker, a handle whose snapshot
    /// was evicted mid-flight — falls back to the
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
        self.counters[owner_shard]
            .transport_bytes_sent
            .add(sent as u64);
        match self.rebuild_from_wire(carrier, to, &mut walker, buf) {
            Some(rebuilt) => rebuilt,
            None => {
                self.counters[owner_shard].transport_fallbacks.inc();
                walker
            }
        }
    }

    /// The receiving half of [`ServiceShared::round_trip`]: carry `frame`
    /// to shard `to` and rebuild `sent`'s successor from the delivered
    /// bytes. `None` means the bytes were not usable and `sent` is
    /// untouched; on success `sent`'s out-of-band baggage (step and context
    /// traces, the dwell stamp, a custom model — which has no wire form)
    /// moves onto the rebuilt walker.
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
        let mut cursor = WalkCursor::resume(walk, decoded.path)?;
        match decoded.context {
            FrameContext::Inline(ctx) => {
                cursor.set_forward_context(ctx);
            }
            FrameContext::Handle(h) => {
                let resolved = {
                    let rx = self.shards[to].caches.rx_cache.lock();
                    match rx.get(&(h.owner_shard, h.vertex)) {
                        Some(&(stamp, ref ctx)) if stamp == h.epoch => Some(ctx.clone()),
                        _ => None,
                    }
                };
                let ctx = resolved.or_else(|| sent.cursor.state().carried_context().cloned())?;
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
            trace: std::mem::take(&mut sent.trace),
            contexts: std::mem::take(&mut sent.contexts),
            context_misses: decoded.context_misses,
            sampled: decoded.sampled,
            sent_at: sent.sent_at.take(),
        }))
    }
}

impl WalkService {
    /// Point-in-time occupancy of the context snapshot caches:
    /// `(sender_entries, receiver_entries)` summed across shards — the
    /// sender-side encode caches and the receiver-side handle-negotiation
    /// caches (always empty when forwards move in process). Both are
    /// one-slot-per-key maps evicted by the structural updates that touch
    /// them, so occupancy is bounded by the set of vertices that actually
    /// forwarded context, **not** by how many epochs have passed (the
    /// regression the bounded-occupancy test pins).
    pub fn snapshot_cache_occupancy(&self) -> (usize, usize) {
        let mut sender = 0;
        let mut receiver = 0;
        for shard in &self.shared.shards {
            // Each released before the next is taken.
            sender += shard.caches.context_cache.lock().len();
            receiver += shard.caches.rx_cache.lock().len();
        }
        (sender, receiver)
    }
}
