//! Shard tasks: the inbox (`service.shard_inbox`), the engine
//! (`service.shard_engine`), the scheduling latch, stealing, update
//! application and the walker visit loop.
//!
//! # Shard tasks, not shard threads
//!
//! Each shard is a small state machine (`ShardState`: a locked inbox
//! plus a schedule flag) whose work runs as **resumable tasks on the
//! process-wide worker pool** (the `rayon` shim's persistent parked
//! workers, grown to at least `num_shards` at build). A push CASes the
//! shard's flag from `IDLE` to `SCHEDULED` and spawns one activation. An
//! activation takes every pending update batch and up to `TASK_BATCH`
//! walkers under one inbox lock, applies the updates first, runs the
//! walkers, and then either re-enqueues itself (inbox still hot), steals
//! from a hot peer, or goes idle with a lost-wakeup-safe recheck.
//!
//! # Stealing happens at the queue, never at the engine
//!
//! A shard task that runs out of work of its own, on its way to idle,
//! may drain a batch of walkers from a hot peer's walker queue and run
//! them **against the owning shard's engine**, through the same read path
//! the owner uses. A push that leaves a deep backlog schedules the idle
//! peers for this (the help trigger), and so does an activation that
//! applied batches and left one. Engines stay shard-owned behind a
//! `RwLock`: walker visits hold a read guard and update batches hold the
//! write guard, so no step observes a torn update. A thief takes walkers only from a
//! victim that has applied every batch flushed to it, checked under the
//! victim's inbox lock: a pending batch goes ahead of every walker queued
//! behind it, stolen or not, and the thief tries the next-deepest backlog.
//! Stealing never changes walk output without concurrent updates: paths
//! depend only on each walker's private RNG and the engine epoch it
//! sampled under.

use crate::collect::FinishedWalk;
use crate::forward::{ForwardNegotiation, SnapshotCache};
use crate::service::ServiceShared;
use bingo_core::BingoEngine;
use bingo_graph::UpdateBatch;
use bingo_sampling::rng::Pcg64;
use bingo_telemetry::{names, FlightEventKind, Histogram, Telemetry, TraceStage};
use bingo_walks::WalkCursor;
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Walkers one shard-task activation runs before re-enqueueing itself,
/// bounding how long a single shard can monopolize a pool worker.
const TASK_BATCH: usize = 32;
/// Maximum walkers a thief drains from a victim's walker queue in one
/// steal.
const STEAL_BATCH: usize = 8;
/// Minimum inbox depth that makes a shard worth stealing from (and that
/// triggers help wakeups of idle peers).
const STEAL_THRESHOLD: usize = 4;

/// [`ShardState::sched`]: no activation is scheduled; the next push must
/// CAS to `SCHED_SCHEDULED` and spawn one.
const SCHED_IDLE: u8 = 0;
/// [`ShardState::sched`]: an activation is queued or running and is
/// guaranteed to re-check the inbox before the shard goes idle.
const SCHED_SCHEDULED: u8 = 1;

/// A walker in flight: a resumable cursor plus its private RNG stream.
pub(crate) struct Walker {
    pub(crate) ticket: u64,
    pub(crate) index: u32,
    pub(crate) cursor: WalkCursor,
    pub(crate) rng: Pcg64,
    pub(crate) hops: u32,
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

/// One shard's queued work, behind `service.shard_inbox`.
#[derive(Default)]
struct Inbox {
    /// Walkers waiting for a visit, in arrival order.
    walkers: VecDeque<Box<Walker>>,
    /// Flushed update batches not yet applied, in flush order. Applying one
    /// bumps the shard's epoch by one, even when it is empty (one epoch per
    /// router flush on every shard). The stamp is the flush time (`None`
    /// unless telemetry is detailed), for the inbox-dwell histogram.
    updates: Vec<(UpdateBatch, Option<Instant>)>,
    /// Batches ever queued here: the shard's epoch once all are applied.
    /// An activation takes `updates` before it applies them, so only this
    /// count tells a thief that a batch taken is not yet in.
    flushes: u64,
    /// Set by `stop_workers`: later walkers are dropped, like sends on a
    /// closed channel, and the next activation terminates the shard.
    shutdown: bool,
}

impl Inbox {
    fn has_work(&self) -> bool {
        !self.walkers.is_empty() || !self.updates.is_empty() || self.shutdown
    }

    /// Up to `max` walkers from the front of the queue.
    fn take_walkers(&mut self, max: usize) -> VecDeque<Box<Walker>> {
        let n = self.walkers.len().min(max);
        self.walkers.drain(..n).collect()
    }
}

/// The shard-loop latency histograms, resolved once at service build.
/// Labeled by service only (one distribution across shards — per-shard
/// load skew already shows in the busy/utilization counters); no-op
/// handles that never appear in the registry when telemetry is disabled.
pub(crate) struct ShardHists {
    /// `service.shard.step_batch_ns`: one walker visit (arrival →
    /// finish/forward).
    step_batch_ns: Histogram,
    /// `service.shard.inbox_dwell_ns`: walker or update enqueue → dequeue.
    inbox_dwell_ns: Histogram,
    /// `service.shard.update_apply_ns`: one update-batch application.
    update_apply_ns: Histogram,
    /// `service.forward.hop_ns`: forward send → dequeue at the peer.
    forward_hop_ns: Histogram,
}

impl ShardHists {
    pub(crate) fn new(telemetry: &Telemetry, labels: &[(&str, &str)]) -> Self {
        let histogram = |name| telemetry.histogram_with(name, labels);
        ShardHists {
            step_batch_ns: histogram(names::SERVICE_SHARD_STEP_BATCH_NS),
            inbox_dwell_ns: histogram(names::SERVICE_SHARD_INBOX_DWELL_NS),
            update_apply_ns: histogram(names::SERVICE_SHARD_UPDATE_APPLY_NS),
            forward_hop_ns: histogram(names::SERVICE_FORWARD_HOP_NS),
        }
    }
}

/// One shard's task-visible state: inbox, scheduling latch, engine and
/// snapshot map. Everything a peer needs for stealing lives here behind
/// its own lock — and the engine is only ever reached through `engine`,
/// never through the inbox, so a thief can drain a queue without touching
/// sampling state.
pub(crate) struct ShardState {
    /// Walkers and pending update batches. Pushers append under the lock;
    /// the shard's own task takes every update and a bounded batch of
    /// walkers; thieves take walkers only, once every batch is applied.
    inbox: Mutex<Inbox>,
    /// Two-state scheduling latch ([`SCHED_IDLE`]/[`SCHED_SCHEDULED`]):
    /// makes "at most one activation in flight per shard" a CAS and makes
    /// wakeups lost-wakeup-safe (see `run_shard_task`'s idle transition).
    /// The activation that terminates the shard leaves it `SCHEDULED`, so
    /// nothing is scheduled on a stopped shard.
    sched: AtomicU8,
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
            inbox: Mutex::new_named(Inbox::default(), "service.shard_inbox"),
            sched: AtomicU8::new(SCHED_IDLE),
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
    /// Queue `walker` on `shard` and guarantee an activation will run it.
    /// When the push leaves a deep backlog, idle peers are woken too so
    /// they can steal from it.
    pub(crate) fn push_walker(self: &Arc<Self>, shard: usize, walker: Box<Walker>) {
        let depth = {
            let mut inbox = self.shards[shard].inbox.lock();
            if inbox.shutdown {
                // Shutdown raced this send: drop the walker, like a send on
                // a closed channel.
                return;
            }
            inbox.walkers.push_back(walker);
            inbox.walkers.len()
        };
        self.counters[shard].on_enqueue();
        self.schedule(shard);
        if depth >= STEAL_THRESHOLD {
            self.wake_helpers(shard);
        }
    }

    /// Queue one flush: slice `s` of `splits` on shard `s`. Each shard's
    /// next activation applies its slice before any walker still queued
    /// there runs.
    pub(crate) fn push_updates(
        self: &Arc<Self>,
        splits: Vec<UpdateBatch>,
        flushed_at: Option<Instant>,
    ) {
        for (shard, split) in splits.into_iter().enumerate() {
            {
                let mut inbox = self.shards[shard].inbox.lock();
                inbox.updates.push((split, flushed_at));
                inbox.flushes += 1;
            }
            self.counters[shard].on_enqueue();
            self.schedule(shard);
        }
    }

    /// Ask every shard to stop: its next activation applies any pending
    /// updates, drops its queued walkers and terminates.
    pub(crate) fn push_shutdown(self: &Arc<Self>) {
        for (shard, state) in self.shards.iter().enumerate() {
            state.inbox.lock().shutdown = true;
            self.schedule(shard);
        }
    }

    /// Make sure an activation is queued for `shard`: CAS the latch from
    /// IDLE to SCHEDULED and spawn one on the pool. A failed CAS means an
    /// activation is already in flight (or the shard has terminated); a
    /// live one re-checks the inbox before the shard goes idle, so no
    /// push can be stranded.
    fn schedule(self: &Arc<Self>, shard: usize) {
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

    /// One shard-task activation: take every pending update and a bounded
    /// batch of walkers (under one inbox lock), apply the updates, run the
    /// walkers (outside the lock), then either re-enqueue, steal, or go
    /// idle with a lost-wakeup-safe recheck.
    fn run_shard_task(self: Arc<Self>, shard_id: usize) {
        let me = &self.shards[shard_id];
        let (updates, walkers, shutdown) = {
            let mut inbox = me.inbox.lock();
            // A stopping shard takes every walker, to drop them below.
            let max = if inbox.shutdown {
                usize::MAX
            } else {
                TASK_BATCH
            };
            (
                std::mem::take(&mut inbox.updates),
                inbox.take_walkers(max),
                inbox.shutdown,
            )
        };
        if !updates.is_empty() {
            // In flush order, one epoch each, each under its own write
            // guard.
            for (update, flushed_at) in updates {
                self.run_dequeued(shard_id, shard_id, |started| {
                    self.record_dwell(flushed_at, started, false);
                    self.apply_update(shard_id, update);
                    if self.hists.update_apply_ns.is_enabled() {
                        self.hists
                            .update_apply_ns
                            .record_duration(started.elapsed());
                    }
                });
            }
            // The write guards have dropped: wake `sync` with no engine
            // lock held.
            self.note_progress(false);
            self.shed_bodies(shard_id);
            // Peers woken while the batches were pending went idle without
            // stealing: wake them again if the backlog is still deep.
            // The walkers this activation took still count on the gauge.
            let backlog = self.counters[shard_id].queue_depth() - walkers.len() as i64;
            if !shutdown && backlog >= STEAL_THRESHOLD as i64 {
                self.wake_helpers(shard_id);
            }
        }
        if shutdown {
            // Every walker still queued is dropped, like a closed
            // channel's, and leaves the depth gauge with it.
            self.counters[shard_id].on_drop(walkers.len());
            self.note_progress(true);
            return;
        }
        for walker in walkers {
            self.run_dequeued(shard_id, shard_id, |started| {
                self.drive_walker(shard_id, shard_id, walker, started);
            });
        }
        // Inbox still hot: keep the SCHEDULED claim, yield this worker
        // slot, and continue on a fresh activation so one shard never
        // monopolizes a pool worker.
        if me.inbox.lock().has_work() {
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
        if me.inbox.lock().has_work() {
            self.schedule(shard_id);
        }
    }

    /// Steal at the queue, never at the engine: drain up to
    /// [`STEAL_BATCH`] walkers from a backlogged peer and run them here,
    /// against the victim's engine. Peers at or past the threshold are
    /// probed deepest first; one with a flushed batch not yet applied keeps
    /// its walkers (they step after the batch) and the next is tried.
    /// Returns whether anything was stolen.
    fn try_steal(self: &Arc<Self>, thief: usize) -> bool {
        // Rank the backlogs by depth gauge alone, no peer lock taken.
        let mut peers: Vec<(usize, usize)> = (0..self.counters.len())
            .filter(|&peer| peer != thief)
            .map(|peer| (peer, self.counters[peer].queue_depth().max(0) as usize))
            .filter(|&(_, depth)| depth >= STEAL_THRESHOLD)
            .collect();
        peers.sort_by_key(|&(peer, depth)| (std::cmp::Reverse(depth), peer));
        // Each probe holds one inbox guard, dropped BEFORE any engine lock
        // is taken: holding it across the visit would deadlock against the
        // victim's own task (engine acquired while inbox wanted).
        let taken = peers.into_iter().find_map(|(peer, _)| {
            let mut inbox = self.shards[peer].inbox.lock();
            // The epoch is published under the write guard once a batch is
            // in, so equality means no batch is pending or mid-apply.
            if inbox.flushes != self.counters[peer].epoch.get_acquire() {
                return None;
            }
            let stolen = inbox.take_walkers(STEAL_BATCH);
            (!stolen.is_empty()).then_some((peer, stolen))
        });
        let Some((victim, stolen)) = taken else {
            return false;
        };
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
            self.run_dequeued(victim, thief, |started| {
                self.drive_walker(thief, victim, walker, started);
            });
        }
        true
    }

    /// Run one item taken from `owner`'s inbox, billing its time to
    /// `exec`'s busy counter.
    fn run_dequeued(&self, owner: usize, exec: usize, run: impl FnOnce(Instant)) {
        self.counters[owner].on_dequeue();
        // This stamp predates telemetry (it feeds `busy_nanos`), so
        // detailed mode reuses it for dwell/step-batch/apply timing without
        // adding clock reads to the disabled hot path.
        // lint:allow(determinism): worker busy-time stamp; stats only,
        // never influences sampling or walk output.
        let started = Instant::now();
        run(started);
        self.counters[exec]
            .busy_nanos
            .add(started.elapsed().as_nanos() as u64);
    }

    /// Record how long a walker or update sat in this shard's inbox (and, for a
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
        let mut engine = self.shards[shard_id].engine.write();
        // Snapshots share the vertices' structures: released first, the
        // batch writes them in place instead of copying them.
        self.release_snapshots(shard_id, &batch);
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
                if stepped.is_none() {
                    break VisitOutcome::Finished;
                }
                self.counters[exec_shard].steps.inc();
                visit_steps += 1;
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
        self.collector.file(FinishedWalk {
            ticket: walker.ticket,
            index: walker.index,
            context_misses: walker.context_misses,
            sampled: walker.sampled,
            path: walker.cursor.into_path(),
            hops: walker.hops,
            // lint:allow(determinism): collect-latency stamp (telemetry).
            finished_at: Instant::now(),
        });
    }
}
