//! Shard tasks: the inbox (`service.shard_inbox`), the engine
//! (`service.shard_engine`), the scheduling latch, stealing, update
//! application and the walker visit loop.
//!
//! # Shard tasks, not shard threads
//!
//! Each shard is a small state machine (`ShardState`: a locked inbox
//! plus a schedule flag) whose work runs as **resumable tasks on the
//! process-wide worker pool** (the `rayon` shim's persistent parked
//! workers, grown to at least `num_shards` at build). Pushing a message
//! CASes the shard's flag from `IDLE` to `SCHEDULED` and spawns one
//! activation; an activation drains a bounded batch from the inbox,
//! processes it, and either re-enqueues itself (inbox still hot), steals
//! from a hot peer, or goes idle with a lost-wakeup-safe recheck.
//!
//! # Stealing happens at the queue, never at the engine
//!
//! An idle shard task may drain a batch of *forwarded-walker* messages
//! from the front of a hot peer's inbox and execute them — **against the
//! owning shard's engine**, through the same epoch-checked read path the
//! owner uses. Engines stay shard-owned behind a `RwLock`: walker visits
//! hold a read guard, update batches hold the write guard, so a steal can
//! never observe a torn update and per-shard epoch ordering is preserved
//! (thieves stop at the first non-walker message). Stealing is always on
//! and never changes walk output — paths depend only on each walker's
//! private RNG and the engine epoch it sampled under.

use crate::collect::FinishedWalk;
use crate::forward::{ContextTrace, ForwardNegotiation, SnapshotCache};
use crate::service::ServiceShared;
use bingo_core::BingoEngine;
use bingo_graph::{UpdateBatch, UpdateEvent, VertexId};
use bingo_sampling::rng::Pcg64;
use bingo_telemetry::{names, FlightEventKind, Histogram, Telemetry, TraceStage};
use bingo_walks::WalkCursor;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Messages one shard-task activation processes before re-enqueueing
/// itself, bounding how long a single shard can monopolize a pool worker.
const TASK_BATCH: usize = 32;
/// Maximum consecutive walker messages a thief drains from the front of a
/// victim's inbox in one steal.
const STEAL_BATCH: usize = 8;
/// Minimum inbox depth that makes a shard worth stealing from (and that
/// triggers help wakeups of idle peers on enqueue).
const STEAL_THRESHOLD: usize = 4;

/// [`ShardState::sched`]: no activation is scheduled; the next push must
/// CAS to `SCHED_SCHEDULED` and spawn one.
const SCHED_IDLE: u8 = 0;
/// [`ShardState::sched`]: an activation is queued or running and is
/// guaranteed to re-check the inbox before the shard goes idle.
const SCHED_SCHEDULED: u8 = 1;

/// One step of a serviced walk, annotated with the generation counter of
/// the shard that sampled it (recorded when
/// [`ServiceConfig::record_epochs`](crate::ServiceConfig::record_epochs) is
/// set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepTrace {
    /// Vertex the step departed from.
    pub src: VertexId,
    /// Vertex the step arrived at.
    pub dst: VertexId,
    /// Shard that owned `src` and sampled the step.
    pub shard: usize,
    /// The shard's epoch (update batches applied) when the step was taken.
    pub epoch: u64,
}

/// A walker in flight: a resumable cursor plus its private RNG stream.
pub(crate) struct Walker {
    pub(crate) ticket: u64,
    pub(crate) index: u32,
    pub(crate) cursor: WalkCursor,
    pub(crate) rng: Pcg64,
    pub(crate) hops: u32,
    pub(crate) trace: Vec<StepTrace>,
    pub(crate) contexts: Vec<ContextTrace>,
    /// Second-order membership queries degraded by a missing carried
    /// context (capture faults), accumulated across shards.
    pub(crate) context_misses: u64,
    /// Whether this walker is in the telemetry trace sample (decided once
    /// at submit via the deterministic sampling hash, carried along so
    /// every shard agrees without re-hashing).
    pub(crate) sampled: bool,
    /// When the last enqueue of this walker happened — `None` unless
    /// telemetry is detailed. Lets the receiving shard measure inbox
    /// dwell (and forward-hop latency for `hops > 0` arrivals) without
    /// any clock read in disabled mode.
    pub(crate) sent_at: Option<Instant>,
}

pub(crate) enum ShardMsg {
    Walker(Box<Walker>),
    /// Pre-split update batch for this shard; applying it bumps the shard's
    /// epoch by one, even when the batch is empty (epochs advance uniformly
    /// across shards, one per router flush). The stamp is the router-side
    /// flush time (`None` unless telemetry is detailed), for the
    /// inbox-dwell histogram.
    Update(UpdateBatch, Option<Instant>),
    Shutdown,
}

/// The shard-loop latency histograms, resolved once at service build.
/// Unlabeled (one distribution across shards — per-shard load skew already
/// shows in the busy/utilization counters); no-op handles that never
/// appear in the registry when telemetry is disabled.
pub(crate) struct ShardHists {
    /// `service.shard.step_batch_ns`: one walker visit (arrival →
    /// finish/forward).
    step_batch_ns: Histogram,
    /// `service.shard.inbox_dwell_ns`: message enqueue → dequeue.
    inbox_dwell_ns: Histogram,
    /// `service.shard.update_apply_ns`: one update-batch application.
    update_apply_ns: Histogram,
    /// `service.forward.hop_ns`: forward send → dequeue at the peer.
    forward_hop_ns: Histogram,
}

impl ShardHists {
    pub(crate) fn new(telemetry: &Telemetry) -> Self {
        ShardHists {
            step_batch_ns: telemetry.histogram(names::SERVICE_SHARD_STEP_BATCH_NS),
            inbox_dwell_ns: telemetry.histogram(names::SERVICE_SHARD_INBOX_DWELL_NS),
            update_apply_ns: telemetry.histogram(names::SERVICE_SHARD_UPDATE_APPLY_NS),
            forward_hop_ns: telemetry.histogram(names::SERVICE_FORWARD_HOP_NS),
        }
    }
}

/// One shard's task-visible state: inbox, scheduling latch, engine and
/// snapshot map. Everything a peer needs for stealing lives here behind
/// its own lock — and the engine is only ever reached through `engine`,
/// never through the inbox, so a thief can drain a queue without touching
/// sampling state.
pub(crate) struct ShardState {
    /// FIFO message queue. Pushers append under the lock; the shard's own
    /// task drains bounded batches from the front; thieves pop leading
    /// `Walker` messages only, preserving the shard's walker/update order.
    inbox: Mutex<VecDeque<ShardMsg>>,
    /// Two-state scheduling latch ([`SCHED_IDLE`]/[`SCHED_SCHEDULED`]):
    /// makes "at most one activation in flight per shard" a CAS and makes
    /// wakeups lost-wakeup-safe (see `run_shard_task`'s idle transition).
    sched: AtomicU8,
    /// Set once this shard has processed [`ShardMsg::Shutdown`]. Pushes to
    /// a terminated shard are dropped, like sends on a closed channel.
    terminated: AtomicBool,
    /// The shard's engine. Walker visits — the owner's or a thief's —
    /// sample under the read guard; update batches apply under the write
    /// guard, so no step ever observes a torn update.
    engine: RwLock<BingoEngine>,
    /// The forwarded-context snapshots this shard captured, locked only by
    /// `forward.rs`.
    pub(crate) snapshots: SnapshotCache,
}

impl ShardState {
    pub(crate) fn new(engine: BingoEngine) -> Self {
        ShardState {
            inbox: Mutex::new_named(VecDeque::new(), "service.shard_inbox"),
            sched: AtomicU8::new(SCHED_IDLE),
            terminated: AtomicBool::new(false),
            engine: RwLock::new_named(engine, "service.shard_engine"),
            snapshots: SnapshotCache::new(),
        }
    }
}

/// What a walker visit ended with — decided under the engine read guard,
/// acted on after it drops, so a forward or finish never holds an engine
/// lock while touching inboxes, the pool injector, or the ticket table.
enum VisitOutcome {
    /// The walk completed (or dead-ended) on this shard.
    Finished,
    /// The walk crossed into shard `to`'s range and must be forwarded;
    /// `context` is what the capture under the engine guard decided
    /// (`None` when the model carries no context).
    Forward {
        to: usize,
        context: Option<ForwardNegotiation>,
    },
}

impl ServiceShared {
    /// Enqueue a message on `shard`'s inbox and guarantee an activation
    /// will process it. When the enqueue leaves a deep backlog, idle peers
    /// are woken too so they can steal from it.
    pub(crate) fn push(self: &Arc<Self>, shard: usize, msg: ShardMsg) {
        if self.shards[shard].terminated.load(Ordering::Acquire) {
            // Shutdown raced this send: drop the message, like a send on a
            // closed channel (in-flight walkers are abandoned).
            return;
        }
        let depth;
        {
            let mut inbox = self.shards[shard].inbox.lock();
            inbox.push_back(msg);
            depth = inbox.len();
        }
        self.counters[shard].on_enqueue();
        self.schedule(shard);
        if depth >= STEAL_THRESHOLD {
            self.wake_helpers(shard);
        }
    }

    /// Make sure an activation is queued for `shard`: CAS the latch from
    /// IDLE to SCHEDULED and spawn one on the pool. A failed CAS means an
    /// activation is already in flight and will re-check the inbox before
    /// the shard goes idle — no message can be stranded.
    fn schedule(self: &Arc<Self>, shard: usize) {
        if self.shards[shard].terminated.load(Ordering::Acquire) {
            return;
        }
        if self.shards[shard]
            .sched
            .compare_exchange(
                SCHED_IDLE,
                SCHED_SCHEDULED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            self.telemetry
                .flight()
                .record(FlightEventKind::ShardUnpark {
                    shard: shard as u64,
                });
            let shared = Arc::clone(self);
            rayon::spawn(move || shared.run_shard_task(shard));
        }
    }

    /// Help trigger: schedule every idle peer of a hot shard. A woken peer
    /// with an empty inbox of its own goes straight to the steal path; the
    /// CAS in `schedule` makes this free for peers already running.
    fn wake_helpers(self: &Arc<Self>, hot: usize) {
        for peer in 0..self.shards.len() {
            if peer != hot {
                self.schedule(peer);
            }
        }
    }

    /// One shard-task activation: drain a bounded batch from the inbox
    /// (under the lock), process it (outside the lock), then either
    /// re-enqueue, steal, or go idle with a lost-wakeup-safe recheck.
    fn run_shard_task(self: Arc<Self>, shard_id: usize) {
        let me = &self.shards[shard_id];
        let mut batch = Vec::with_capacity(TASK_BATCH);
        {
            let mut inbox = me.inbox.lock();
            while batch.len() < TASK_BATCH {
                match inbox.pop_front() {
                    Some(msg) => batch.push(msg),
                    None => break,
                }
            }
        }
        for msg in batch {
            self.counters[shard_id].on_dequeue();
            // This stamp predates telemetry (it feeds `busy_nanos`), so
            // detailed mode reuses it for dwell/step-batch/apply timing
            // without adding clock reads to the disabled hot path.
            // lint:allow(determinism): worker busy-time stamp; stats only,
            // never influences sampling or walk output.
            let started = Instant::now();
            match msg {
                ShardMsg::Update(update, flushed_at) => {
                    self.record_dwell(flushed_at, started, false);
                    self.apply_update(shard_id, update);
                    if self.hists.update_apply_ns.is_enabled() {
                        self.hists
                            .update_apply_ns
                            .record_duration(started.elapsed());
                    }
                }
                ShardMsg::Walker(walker) => self.drive_walker(shard_id, shard_id, walker, started),
                ShardMsg::Shutdown => {
                    // Messages still queued (or drained into this batch)
                    // are dropped, like a closed channel's.
                    me.terminated.store(true, Ordering::Release);
                    self.mark_terminated();
                    return;
                }
            }
            self.counters[shard_id]
                .busy_nanos
                .add(started.elapsed().as_nanos() as u64);
        }
        // Inbox still hot: keep the SCHEDULED claim, yield this worker
        // slot, and continue on a fresh activation so one shard never
        // monopolizes a pool worker.
        if !me.inbox.lock().is_empty() {
            let shared = Arc::clone(&self);
            rayon::spawn(move || shared.run_shard_task(shard_id));
            return;
        }
        if self.try_steal(shard_id) {
            // Stolen visits may have forwarded walkers back to this shard
            // (and the victim may still be hot): look again.
            let shared = Arc::clone(&self);
            rayon::spawn(move || shared.run_shard_task(shard_id));
            return;
        }
        // Idle transition, lost-wakeup-safe: publish IDLE *first*, then
        // re-check the inbox. A concurrent push either sees IDLE (its CAS
        // schedules a fresh activation) or enqueued before our store and
        // is caught by this recheck.
        me.sched.store(SCHED_IDLE, Ordering::Release);
        self.telemetry.flight().record(FlightEventKind::ShardPark {
            shard: shard_id as u64,
        });
        if !me.inbox.lock().is_empty() {
            self.schedule(shard_id);
        }
    }

    /// Steal at the queue, never at the engine: drain up to
    /// [`STEAL_BATCH`] *leading walker messages* from the deepest
    /// backlogged peer and execute them here — against the victim's
    /// engine, through the same epoch-checked read path the owner uses.
    /// Stopping at the first non-walker message preserves the victim's
    /// walker/update order, so a stolen visit observes exactly the epoch
    /// the owner's task would have shown it. Returns whether anything was
    /// stolen.
    fn try_steal(self: &Arc<Self>, thief: usize) -> bool {
        // Pick the deepest backlog at or past the threshold — depth gauges
        // only, no peer locks taken during selection.
        let mut victim: Option<(usize, usize)> = None;
        for (peer, counters) in self.counters.iter().enumerate() {
            if peer == thief {
                continue;
            }
            let depth = counters.queue_depth().max(0) as usize;
            if depth >= STEAL_THRESHOLD && victim.is_none_or(|(_, best)| depth > best) {
                victim = Some((peer, depth));
            }
        }
        let Some((victim, _)) = victim else {
            return false;
        };
        let mut stolen = Vec::new();
        {
            let mut inbox = self.shards[victim].inbox.lock();
            while stolen.len() < STEAL_BATCH && matches!(inbox.front(), Some(ShardMsg::Walker(_))) {
                match inbox.pop_front() {
                    Some(ShardMsg::Walker(walker)) => stolen.push(walker),
                    _ => unreachable!("front was just matched as a walker"),
                }
            }
            // The inbox guard drops here, BEFORE any engine lock is taken:
            // holding it across the visit would deadlock against the
            // victim's own task (engine acquired while inbox wanted).
        }
        if stolen.is_empty() {
            return false;
        }
        let c = &self.counters[thief];
        c.stolen_batches.inc();
        c.stolen_walkers.add(stolen.len() as u64);
        self.telemetry
            .flight()
            .record(FlightEventKind::StealExecuted {
                thief: thief as u64,
                victim: victim as u64,
                walkers: stolen.len() as u64,
            });
        for walker in stolen {
            // Queue-depth accounting stays with the victim (its inbox
            // shrank); execution time is billed to the thief.
            self.counters[victim].on_dequeue();
            // lint:allow(determinism): busy-time stamp; stats only.
            let started = Instant::now();
            self.drive_walker(thief, victim, walker, started);
            self.counters[thief]
                .busy_nanos
                .add(started.elapsed().as_nanos() as u64);
        }
        true
    }

    /// Record how long a message sat in this shard's inbox (and, for a
    /// forwarded walker, the full forward-hop latency: peer send →
    /// dequeue here). `sent_at` is `None` unless telemetry is detailed.
    fn record_dwell(&self, sent_at: Option<Instant>, dequeued_at: Instant, forwarded: bool) {
        let Some(sent) = sent_at else { return };
        let dwell = dequeued_at.saturating_duration_since(sent);
        self.hists.inbox_dwell_ns.record_duration(dwell);
        if forwarded {
            self.hists.forward_hop_ns.record_duration(dwell);
        }
    }

    /// Close out one walker visit: record the step-batch latency and, for
    /// sampled walkers that actually stepped here, the `StepBatch`
    /// lifecycle span (attributed to the *owning* shard, whose engine and
    /// epoch the steps sampled under).
    fn end_visit(
        &self,
        owner_shard: usize,
        walker: &Walker,
        visit_start: Instant,
        visit_steps: u32,
    ) {
        if self.hists.step_batch_ns.is_enabled() {
            self.hists
                .step_batch_ns
                .record_duration(visit_start.elapsed());
        }
        if walker.sampled && visit_steps > 0 {
            self.telemetry.trace(
                walker.ticket,
                walker.index,
                TraceStage::StepBatch {
                    shard: owner_shard as u32,
                    steps: visit_steps,
                    epoch: self.counters[owner_shard].epoch.get(),
                },
            );
        }
    }

    fn apply_update(&self, shard_id: usize, batch: UpdateBatch) {
        // The vertices whose adjacency membership this batch changes —
        // the exact invalidation scope. Bias-only events stay out of it:
        // fingerprints are membership sets, which reweights never alter.
        let mut touched: Vec<VertexId> = batch
            .events()
            .iter()
            .filter(|e| !matches!(e, UpdateEvent::UpdateBias { .. }))
            .map(|e| e.src())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let mut engine = self.shards[shard_id].engine.write();
        if !touched.is_empty() {
            // Snapshots captured under the previous epoch may describe
            // adjacencies this batch changes.
            self.evict_snapshots(shard_id, &touched);
        }
        let outcome = engine.apply_batch(&batch);
        let c = &self.counters[shard_id];
        c.updates_applied
            .add((outcome.inserted + outcome.deleted) as u64);
        // Publish the new generation *after* the batch is fully applied
        // but *before* the write guard drops: a reader that acquires the
        // read lock and sees epoch e knows the engine reflects exactly the
        // first e flushed batches, never a partially applied one.
        c.epoch.add_release(1);
        self.telemetry
            .flight()
            .record(FlightEventKind::EpochAdvance {
                shard: shard_id as u64,
                epoch: c.epoch.get_acquire(),
            });
    }

    /// Run one walker visit: sample steps against `owner_shard`'s engine
    /// (under its read guard) until the walk finishes, dead-ends, or
    /// crosses out of the shard's range. `exec_shard` is the shard task
    /// doing the work — equal to `owner_shard` except for stolen visits —
    /// and is where the executed steps are attributed, so the stats
    /// measure where the CPU time actually went. Semantic counters
    /// (arrivals, forwards, completions, context accounting) and all
    /// traces stay with the owner.
    fn drive_walker(
        self: &Arc<Self>,
        exec_shard: usize,
        owner_shard: usize,
        mut walker: Box<Walker>,
        visit_start: Instant,
    ) {
        self.record_dwell(walker.sent_at.take(), visit_start, walker.hops > 0);
        self.counters[owner_shard].walkers_received.inc();
        let record = self.record_epochs;
        let mut visit_steps: u32 = 0;
        let outcome = {
            let engine = self.shards[owner_shard].engine.read();
            let outcome = loop {
                let current = walker.cursor.current();
                // A walker at its deterministic length limit takes no
                // further sample: finish it here instead of forwarding it
                // to another shard for a no-op step.
                if !walker.cursor.is_done() && walker.cursor.at_length_limit() {
                    break VisitOutcome::Finished;
                }
                if !engine.owns(current) {
                    // The walk crossed into another shard's range: forward.
                    let owner = self.partitioner.owner(current);
                    if owner == owner_shard {
                        // Defensive: a vertex nobody owns (it can only
                        // arise from a corrupted engine state) would
                        // self-forward forever; treat it as a dead end.
                        break VisitOutcome::Finished;
                    }
                    let context =
                        self.attach_forward_context(owner_shard, owner, &engine, &mut walker);
                    self.counters[owner_shard].walkers_forwarded.inc();
                    walker.hops += 1;
                    break VisitOutcome::Forward { to: owner, context };
                }
                let epoch = self.counters[owner_shard].epoch.get_acquire();
                let stepped = walker.cursor.step(&*engine, &mut walker.rng);
                let context_misses = walker.cursor.state().take_context_misses();
                if context_misses > 0 {
                    // A second-order membership query fell back to this
                    // shard's engine for a vertex it does not own: the
                    // forwarding shard failed to attach (or attached a
                    // mismatched) context. Keep serving — the distribution
                    // degrades instead of the walk dying — count it here,
                    // and let the waiter `debug_assert!` on it when it
                    // collects the ticket (panicking a pool worker would
                    // hang every waiter instead of failing loudly).
                    walker.context_misses += context_misses;
                    self.counters[owner_shard]
                        .context_misses
                        .add(context_misses);
                }
                match stepped {
                    Some(next) => {
                        self.counters[exec_shard].steps.inc();
                        visit_steps += 1;
                        if record {
                            walker.trace.push(StepTrace {
                                src: current,
                                dst: next,
                                shard: owner_shard,
                                epoch,
                            });
                        }
                    }
                    None => break VisitOutcome::Finished,
                }
            };
            self.end_visit(owner_shard, &walker, visit_start, visit_steps);
            outcome
            // The engine read guard drops here.
        };
        match outcome {
            VisitOutcome::Finished => self.finish_walker(owner_shard, *walker),
            VisitOutcome::Forward { to, context } => {
                self.forward(owner_shard, to, walker, context);
            }
        }
    }

    fn finish_walker(&self, owner_shard: usize, walker: Walker) {
        self.counters[owner_shard].walks_completed.inc();
        if walker.cursor.state().rejection_capped() {
            self.counters[owner_shard].node2vec_capped.inc();
        }
        self.collector.file(FinishedWalk {
            ticket: walker.ticket,
            index: walker.index,
            context_misses: walker.context_misses,
            sampled: walker.sampled,
            path: walker.cursor.into_path(),
            hops: walker.hops,
            trace: walker.trace,
            contexts: walker.contexts,
            // lint:allow(determinism): collect-latency stamp (telemetry).
            finished_at: Instant::now(),
        });
    }
}
