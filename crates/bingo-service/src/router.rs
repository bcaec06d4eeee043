//! The update router behind `service.router`: split incoming events by
//! owning shard, coalesce streamed ones, and flush them as epochs.
//!
//! Every flush sends one (possibly empty) batch to every shard, so shard
//! epochs advance in lock step and a receipt's epoch names a cut across
//! the whole service. A flush pushes onto the shard inboxes while the
//! router lock is held (order `router` → `shard_inbox`), which is what
//! keeps two concurrent flushes from interleaving their batches.

use crate::service::WalkService;
use crate::shard::ShardMsg;
use bingo_graph::{UpdateBatch, UpdateEvent};
use parking_lot::Mutex;
use std::time::Duration;

/// Receipt returned by update ingestion: the epoch the flushed events
/// belong to. Once every shard's epoch (see
/// [`ServiceStats`](crate::ServiceStats)) reaches this value, all events of
/// this ingest are visible to new walk steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Epoch assigned to the flushed events (0 = nothing flushed yet).
    pub epoch: u64,
    /// Events routed in this ingest call.
    pub events_routed: usize,
}

struct RouterState {
    /// Per-shard buffered events awaiting a flush.
    buffers: Vec<Vec<UpdateEvent>>,
    /// Number of flush rounds so far == the epoch assigned to the last
    /// flush.
    flushes: u64,
}

/// Events a shard's router buffer coalesces before
/// [`WalkService::ingest_event`] flushes every buffer as one epoch. A
/// constant, not a knob: only streamed single events are coalesced, and no
/// workload here streams them (the benchmark and the examples ingest
/// batches, which flush at once).
pub(crate) const COALESCE_CAPACITY: usize = 4096;

pub(crate) struct Router {
    state: Mutex<RouterState>,
}

impl Router {
    pub(crate) fn new(num_shards: usize) -> Self {
        Router {
            state: Mutex::new_named(
                RouterState {
                    buffers: vec![Vec::new(); num_shards],
                    flushes: 0,
                },
                "service.router",
            ),
        }
    }
}

impl WalkService {
    /// Route a batch of update events to their owning shards and flush
    /// immediately: every shard receives its slice (empty slices included)
    /// as one new epoch. Returns the receipt carrying that epoch.
    pub fn ingest(&self, batch: &UpdateBatch) -> IngestReceipt {
        let partitioner = &self.shared.partitioner;
        let splits = batch.split_by_owner(self.num_shards(), |v| partitioner.owner(v));
        let mut router = self.router.state.lock();
        for (buffer, split) in router.buffers.iter_mut().zip(splits) {
            buffer.extend(split.into_events());
        }
        IngestReceipt {
            epoch: self.flush_locked(&mut router),
            events_routed: batch.len(),
        }
    }

    /// Stream a single event into the router's per-shard buffers. Buffers
    /// are coalesced until one of them holds 4 096 events, then all are
    /// flushed as one epoch. Returns a receipt only when a flush happened.
    pub fn ingest_event(&self, event: UpdateEvent) -> Option<IngestReceipt> {
        let mut router = self.router.state.lock();
        let owner = self.shared.partitioner.owner(event.src());
        router.buffers[owner].push(event);
        (router.buffers[owner].len() >= COALESCE_CAPACITY).then(|| IngestReceipt {
            epoch: self.flush_locked(&mut router),
            events_routed: 1,
        })
    }

    /// Flush all buffered streamed events to the shards as one epoch.
    pub fn flush(&self) -> IngestReceipt {
        IngestReceipt {
            epoch: self.flush_locked(&mut self.router.state.lock()),
            events_routed: 0,
        }
    }

    fn flush_locked(&self, router: &mut RouterState) -> u64 {
        router.flushes += 1;
        // `None` unless telemetry is detailed: the inbox-dwell stamp.
        let flushed_at = self.shared.telemetry.timer();
        for (shard, buffer) in router.buffers.iter_mut().enumerate() {
            let events = std::mem::take(buffer);
            self.shared.push(
                shard,
                ShardMsg::Update(UpdateBatch::new(events), flushed_at),
            );
        }
        router.flushes
    }

    /// Block until every shard has applied all updates up to and including
    /// `receipt`'s epoch, i.e. the ingested events are visible to every new
    /// walk step.
    pub fn sync(&self, receipt: IngestReceipt) {
        let mut spins = 0u32;
        loop {
            let reached = self
                .shared
                .counters
                .iter()
                .all(|c| c.epoch.get_acquire() >= receipt.epoch);
            if reached {
                return;
            }
            // Brief spin for the common fast case, then back off to sleeps
            // so large batch applies don't compete with a busy-polling
            // waiter for a core.
            spins += 1;
            if spins < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(
                    100u64.saturating_mul(u64::from((spins - 64).min(10) + 1)),
                ));
            }
        }
    }
}
