//! The update router behind `service.router`: split each ingested batch by
//! owning shard and flush it as one epoch.
//!
//! Every flush sends one (possibly empty) batch to every shard, so shard
//! epochs advance in lock step and a receipt's epoch names a cut across
//! the whole service. A flush pushes onto the shard inboxes while the
//! router lock is held (order `router` → `shard_inbox`), which is what
//! keeps two concurrent flushes from interleaving their batches.

use crate::service::WalkService;
use bingo_graph::UpdateBatch;
use parking_lot::Mutex;

/// Receipt returned by update ingestion: the epoch the flushed events
/// belong to. Once every shard's epoch (see
/// [`ServiceStats`](crate::ServiceStats)) reaches this value, all events of
/// this ingest are visible to new walk steps; [`WalkService::sync`] waits
/// for that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Epoch assigned to the flushed events (0 = nothing flushed yet).
    pub epoch: u64,
    /// Events routed in this ingest call.
    pub events_routed: usize,
}

pub(crate) struct Router {
    /// Number of flushes so far == the epoch assigned to the last flush.
    flushes: Mutex<u64>,
}

impl Router {
    pub(crate) fn new() -> Self {
        Router {
            flushes: Mutex::new_named(0, "service.router"),
        }
    }

    /// Flushes so far: the epoch of the last receipt issued.
    pub(crate) fn flushes(&self) -> u64 {
        *self.flushes.lock()
    }
}

impl WalkService {
    /// Route a batch of update events to their owning shards and flush
    /// immediately: every shard receives its slice (empty slices included)
    /// as one new epoch. Each shard applies its slice at its next
    /// activation, ahead of the walkers still queued there. Returns the
    /// receipt carrying that epoch.
    pub fn ingest(&self, batch: &UpdateBatch) -> IngestReceipt {
        let partitioner = &self.shared.partitioner;
        let splits = batch.split_by_owner(self.num_shards(), |v| partitioner.owner(v));
        let mut flushes = self.router.flushes.lock();
        *flushes += 1;
        // `None` unless telemetry is detailed: the inbox-dwell stamp.
        self.shared
            .push_updates(splits, self.shared.telemetry.timer());
        IngestReceipt {
            epoch: *flushes,
            events_routed: batch.len(),
        }
    }
}
