//! The sharded walk service: resumable shard tasks on the shared worker
//! pool, cross-shard batch stealing, the update router, and the ticketed
//! walk-submission API.
//!
//! # Shard tasks, not shard threads
//!
//! Shards no longer own dedicated OS threads. Each shard is a small state
//! machine (`ShardState`: a locked inbox plus a schedule flag) whose
//! work runs as **resumable tasks on the process-wide worker pool** (the
//! `rayon` shim's persistent parked workers, grown to at least
//! `num_shards` at build). Pushing a message CASes the shard's flag from
//! `IDLE` to `SCHEDULED` and spawns one activation; an activation drains a
//! bounded batch from the inbox, processes it, and either re-enqueues
//! itself (inbox still hot), steals from a hot peer, or goes idle with a
//! lost-wakeup-safe recheck.
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

use crate::stats::{ServiceStats, ShardCounters};
use crate::transport::{LoopbackTransport, ShardTransport, TransportMode};
use bingo_core::partition::Partitioner;
use bingo_core::{BingoConfig, BingoEngine, BingoError};
use bingo_graph::{DynamicGraph, UpdateBatch, UpdateEvent, VertexId};
use bingo_sampling::rng::{Pcg64, SplitMix64};
use bingo_telemetry::{names, FlightEventKind, Gauge, Histogram, Telemetry, TraceStage};
use bingo_walks::walk_store::WalkStore;
use bingo_walks::wire::{self, ContextHandle, FrameContext, WalkerFrame};
use bingo_walks::{CarriedContext, ContextRequirement, SharedWalkModel, WalkCursor, WalkSpec};
use parking_lot::{Condvar, Mutex, RwLock};
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors produced by the walk service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A start vertex is outside the service's vertex range.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// Number of vertices the service manages.
        num_vertices: usize,
    },
    /// A submission contained no start vertices.
    EmptySubmission,
    /// A shard's inbox is at [`ServiceConfig::max_inbox`]: the submission
    /// was rejected for admission control (no walker was enqueued).
    Saturated {
        /// The shard whose inbox is full.
        shard: usize,
        /// Messages queued on that shard when the submission was rejected.
        queued: usize,
        /// The configured inbox bound.
        capacity: usize,
        /// Whether resubmitting the same batch can ever succeed: `true`
        /// when the shard's share fits an *empty* inbox (the queue just
        /// needs to drain), `false` when the batch routes more walkers to
        /// one shard than [`ServiceConfig::max_inbox`] admits — retrying
        /// such a batch verbatim loops forever; it must be split instead.
        retryable: bool,
    },
    /// An error bubbled up from the engine layer.
    Core(BingoError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(f, "vertex {vertex} out of range ({num_vertices} vertices)"),
            ServiceError::EmptySubmission => write!(f, "no start vertices submitted"),
            ServiceError::Saturated {
                shard,
                queued,
                capacity,
                retryable,
            } => write!(
                f,
                "shard {shard} inbox saturated ({queued} queued, capacity {capacity}, {})",
                if *retryable {
                    "retryable"
                } else {
                    "batch exceeds capacity — split it"
                }
            ),
            ServiceError::Core(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl ServiceError {
    /// Whether backing off and resubmitting the same request can succeed.
    /// Only transient inbox saturation qualifies; validation errors and a
    /// batch too large for any inbox never will.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServiceError::Saturated {
                retryable: true,
                ..
            }
        )
    }
}

impl std::error::Error for ServiceError {}

impl From<BingoError> for ServiceError {
    fn from(e: BingoError) -> Self {
        ServiceError::Core(e)
    }
}

/// Result alias for service operations.
pub type Result<T> = std::result::Result<T, ServiceError>;

/// How the vertex space is split into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Equal vertex counts per shard (contiguous uniform ranges).
    #[default]
    Uniform,
    /// Contiguous ranges balanced by out-degree
    /// ([`Partitioner::balanced_by_degree`]): on skewed graphs this
    /// equalizes per-shard sampling load instead of vertex counts.
    DegreeBalanced,
}

/// Configuration of a [`WalkService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of vertex shards (resumable tasks on the shared worker
    /// pool). At least 1.
    pub num_shards: usize,
    /// Seed from which every walker's RNG stream is derived.
    pub seed: u64,
    /// Configuration of the per-shard Bingo engines.
    pub engine: BingoConfig,
    /// Per-shard router buffer size: streamed events are coalesced until
    /// any shard's buffer reaches this many events, then flushed to all
    /// shards as one epoch.
    pub coalesce_capacity: usize,
    /// Record, for every walk step, the epoch of the shard that sampled it,
    /// and every forwarded-context snapshot (used by consistency tests;
    /// costs one `Vec` push per step).
    pub record_epochs: bool,
    /// Admission bound on each shard's inbox: a submission is rejected with
    /// [`ServiceError::Saturated`] when it would push a shard's queue depth
    /// past this many messages. `0` (the default) keeps inboxes unbounded.
    /// The bound applies to walk admission only — in-flight walker forwards
    /// and update batches are never dropped.
    pub max_inbox: usize,
    /// How the vertex space is split into shards.
    pub partition: PartitionStrategy,
    /// How forwarded walkers cross the shard boundary. The default
    /// ([`TransportMode::InProcess`]) moves them as in-process
    /// allocations; [`TransportMode::Serialized`] round-trips every
    /// forward through the versioned wire format (encode → carry →
    /// decode → rebuild), making the accounted bytes real bytes while
    /// keeping walk output bit-identical. See [`crate::transport`].
    pub transport: TransportMode,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            num_shards: 4,
            seed: 0x5E41_11CE,
            engine: BingoConfig::default(),
            coalesce_capacity: 4096,
            record_epochs: false,
            max_inbox: 0,
            partition: PartitionStrategy::Uniform,
            transport: TransportMode::default(),
        }
    }
}

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

/// Bytes shipped when the receiver's snapshot cache already holds the
/// offered `(vertex, epoch)` snapshot: the wire-format
/// [`ContextHandle`] instead of the payload (re-exported from
/// [`bingo_walks::wire`], whose encoder defines the layout). Snapshots
/// whose payload is no larger than the handle always ship inline — a
/// handle would not save anything — so negotiation only engages past
/// this size.
pub use bingo_walks::wire::CONTEXT_HANDLE_BYTES;

/// Derive one walker's RNG seed from the submission seed and its
/// `(ticket, index)` coordinates.
///
/// Each component is folded in through a SplitMix64 finalizer round, so the
/// map from `(base, ticket, index)` to seeds has no exploitable algebraic
/// structure. The previous scheme XORed two odd-constant products, which
/// preserves low-bit linear structure (the parity of the seed was the
/// parity of `base ^ ticket ^ index`) and admits colliding
/// `(ticket, index)` pairs — identical Pcg64 streams for distinct walkers.
fn walker_seed(base: u64, ticket: u64, index: u64) -> u64 {
    let t = SplitMix64::new(base ^ ticket.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next();
    SplitMix64::new(t ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next()
}

/// One step of a serviced walk, annotated with the generation counter of
/// the shard that sampled it (recorded when
/// [`ServiceConfig::record_epochs`] is set).
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

/// One forwarded-context capture: the previous vertex whose adjacency was
/// snapshotted and the membership snapshot that travelled with the walker
/// (recorded when [`ServiceConfig::record_epochs`] is set).
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
    /// Bytes billed to `context_bytes_forwarded` for this forward — equal
    /// to what the wire frame ships: the snapshot's encoded size when the
    /// receiver had to be sent the body, [`CONTEXT_HANDLE_BYTES`] when
    /// the receiver's snapshot cache already held this `(vertex, epoch)`
    /// and a handle sufficed.
    pub bytes_sent: usize,
    /// Whether the *sender's* encode cache already held the snapshot
    /// (encode reuse — independent of the receiver-side handle
    /// negotiation that decides `bytes_sent`).
    pub cache_hit: bool,
}

/// A walker in flight: a resumable cursor plus its private RNG stream.
struct Walker {
    ticket: u64,
    index: u32,
    cursor: WalkCursor,
    rng: Pcg64,
    hops: u32,
    trace: Vec<StepTrace>,
    contexts: Vec<ContextTrace>,
    /// Second-order membership queries degraded by a missing carried
    /// context (capture faults), accumulated across shards.
    context_misses: u64,
    /// Whether this walker is in the telemetry trace sample (decided once
    /// at submit via the deterministic sampling hash, carried along so
    /// every shard agrees without re-hashing).
    sampled: bool,
    /// When the last enqueue of this walker happened — `None` unless
    /// telemetry is detailed. Lets the receiving shard measure inbox
    /// dwell (and forward-hop latency for `hops > 0` arrivals) without
    /// any clock read in disabled mode.
    sent_at: Option<Instant>,
}

/// A completed walk on its way back to the service handle.
struct FinishedWalk {
    ticket: u64,
    index: u32,
    path: Vec<VertexId>,
    hops: u32,
    trace: Vec<StepTrace>,
    contexts: Vec<ContextTrace>,
    /// Capture faults this walk experienced (see `Walker::context_misses`).
    context_misses: u64,
    /// Whether the walk is in the telemetry trace sample (see
    /// `Walker::sampled`); the collector emits its `Collect` span.
    sampled: bool,
    /// Worker-side completion time, so ticket latency measures when the
    /// walk actually finished, not when it was collected.
    finished_at: Instant,
}

enum ShardMsg {
    Walker(Box<Walker>),
    /// Pre-split update batch for this shard; applying it bumps the shard's
    /// epoch by one, even when the batch is empty (epochs advance uniformly
    /// across shards, one per router flush). The stamp is the router-side
    /// flush time (`None` unless telemetry is detailed), for the
    /// inbox-dwell histogram.
    Update(UpdateBatch, Option<Instant>),
    Shutdown,
}

/// Handle for retrieving the results of one walk submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WalkTicket(u64);

impl WalkTicket {
    /// The ticket's numeric id.
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// Receipt returned by update ingestion: the epoch the flushed events
/// belong to. Once every shard's epoch (see
/// [`ServiceStats`]) reaches this value, all events of
/// this ingest are visible to new walk steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Epoch assigned to the flushed events (0 = nothing flushed yet).
    pub epoch: u64,
    /// Events routed in this ingest call.
    pub events_routed: usize,
}

/// Results of one walk submission.
#[derive(Debug, Clone)]
pub struct TicketResults {
    /// The ticket these results answer.
    pub ticket: WalkTicket,
    /// The walk model that was run.
    pub model: SharedWalkModel,
    /// One path per submitted start vertex, in submission order.
    pub paths: Vec<Vec<VertexId>>,
    /// Cross-shard hops per walker.
    pub hops: Vec<u32>,
    /// Per-step epoch traces (empty unless
    /// [`ServiceConfig::record_epochs`]).
    pub traces: Vec<Vec<StepTrace>>,
    /// Forwarded-context captures per walker (empty unless
    /// [`ServiceConfig::record_epochs`]).
    pub contexts: Vec<Vec<ContextTrace>>,
    /// Wall-clock time from submission to the last walker finishing.
    pub latency: Duration,
}

impl TicketResults {
    /// Total steps across all walks of this ticket.
    pub fn total_steps(&self) -> usize {
        self.paths.iter().map(|p| p.len().saturating_sub(1)).sum()
    }

    /// Deposit the collected walks into a Wharf-style [`WalkStore`] for
    /// incremental maintenance, indexed over `num_vertices` vertices.
    ///
    /// The store's refresh target is the model's deterministic step cap,
    /// never PPR's unbounded expected length.
    pub fn into_walk_store(self, num_vertices: usize, seed: u64) -> WalkStore {
        let target = self.model.expected_length().min(self.model.max_steps());
        WalkStore::from_walks(self.paths, num_vertices, target, seed)
    }
}

struct PendingTicket {
    model: SharedWalkModel,
    walks: Vec<Option<FinishedWalk>>,
    received: usize,
    submitted_at: Instant,
    /// Latest worker-side completion time seen so far.
    last_finish: Option<Instant>,
}

/// Everything guarded by the service's `pending` mutex: the outstanding
/// tickets plus the single-drainer flag of the completion channel.
struct Collector {
    /// Outstanding (not yet fully collected) tickets.
    tickets: HashMap<u64, PendingTicket>,
    /// Whether some [`WalkService::wait`] caller currently owns the drain
    /// role (is blocked in `recv()` on the completion channel). Claiming
    /// the role and parking on the condvar both happen under this mutex,
    /// so a drainer's hand-off can never slip between a waiter's check and
    /// its park — the invariant that lets `wait` use untimed condvar waits
    /// instead of a sleep/poll loop.
    draining: bool,
}

struct RouterState {
    /// Per-shard buffered events awaiting a flush.
    buffers: Vec<Vec<UpdateEvent>>,
    /// Number of flush rounds so far == the epoch assigned to the last
    /// flush. Every flush sends one (possibly empty) batch to every shard,
    /// so shard epochs advance in lock step.
    flushes: u64,
}

/// A vertex-sharded, multi-threaded walk service over the Bingo engine.
///
/// See the crate-level documentation for a quickstart. Internally each
/// shard owns a [`BingoEngine`] built over its contiguous vertex range
/// ([`BingoEngine::build_range`]) behind a `RwLock`, and its inbox of
/// walker and update messages is processed by **resumable tasks on the
/// shared worker pool** (see the module docs) — walker visits sample under
/// the read guard, update batches apply under the write guard, so a walk
/// step can never observe a partially applied ("torn") update, and the
/// per-shard epoch counter totally orders steps against update batches.
/// Idle shard tasks steal forwarded-walker batches from hot shards'
/// inboxes; a stolen visit runs against the owning shard's engine through
/// the same epoch-checked read path, so stealing moves CPU work without
/// moving ownership.
///
/// Walks are submitted either as built-in [`WalkSpec`]s
/// ([`WalkService::submit`]) or as arbitrary
/// [`WalkModel`](bingo_walks::WalkModel) trait objects
/// ([`WalkService::submit_model`]). Second-order models (node2vec) are
/// fully supported: when a walker crosses a shard boundary, the owning
/// shard captures a membership snapshot of the previous vertex's adjacency
/// (built at most once per `(vertex, epoch)` and `Arc`-shared across the
/// wave) and forwards it with
/// the cursor, so the receiving shard can answer the model's membership
/// queries without a cross-shard edge lookup.
pub struct WalkService {
    partitioner: Partitioner,
    num_vertices: usize,
    seed: u64,
    coalesce_capacity: usize,
    max_inbox: usize,
    /// The state shard tasks run against, `Arc`-shared with every task
    /// activation in flight on the pool.
    shared: Arc<ServiceShared>,
    counters: Vec<Arc<ShardCounters>>,
    owned_counts: Vec<usize>,
    done_rx: Mutex<Receiver<FinishedWalk>>,
    pending: Mutex<Collector>,
    /// Signalled whenever finished walks are absorbed into `pending` and
    /// whenever the drain role is released, so waiters parked in
    /// [`WalkService::wait`] learn about their ticket completing (or about
    /// their turn to drain) without polling.
    pending_cv: Condvar,
    router: Mutex<RouterState>,
    next_ticket: AtomicU64,
    /// Set once [`WalkService::stop_workers`] has run, disarming the
    /// redundant stop from `Drop` after an explicit `shutdown()`.
    stopped: bool,
    started_at: Instant,
    /// The shared observability handle every layer records into; the
    /// per-shard [`ShardCounters`] are views over its registry.
    telemetry: Telemetry,
    /// `service.submit_ns`: submit call → all walkers enqueued.
    submit_ns: Histogram,
    /// `service.collect_ns`: walk finish → absorbed at the collector.
    collect_ns: Histogram,
    /// `service.ticket.latency_ns`: submit → last walk of the ticket done.
    ticket_latency_ns: Histogram,
    /// `service.update.epoch_lag`: router flushes − slowest shard's epoch,
    /// refreshed on every [`WalkService::stats`] call.
    epoch_lag: Gauge,
}

/// Mirror the thread-pool shim's cumulative profile into `telemetry`'s
/// registry as the `pool.*` counters ([`names::POOL_CALLS`],
/// [`names::POOL_CHUNKS_CLAIMED`], [`names::POOL_WORKER_BUSY_NS`],
/// [`names::POOL_WORKER_IDLE_NS`], [`names::POOL_SCOPE_NS`]) and the
/// persistent-runtime counters ([`names::RUNTIME_POOL_STEALS`],
/// [`names::RUNTIME_POOL_TASKS`], [`names::RUNTIME_POOL_PARK_NS`]).
///
/// The shim's global cells stay authoritative (they are process-wide, not
/// per-service); call this right before snapshotting or dumping the
/// registry so the exposition reflects the latest pool activity. The
/// nanosecond cells only advance once [`rayon::set_pool_profiling`] has
/// turned them on — [`WalkService::build_with_telemetry`] does whenever
/// the handle is detailed.
pub fn record_pool_profile(telemetry: &Telemetry) {
    let p = rayon::pool_profile();
    telemetry.counter(names::POOL_CALLS).set(p.calls);
    telemetry
        .counter(names::POOL_CHUNKS_CLAIMED)
        .set(p.chunks_claimed);
    telemetry
        .counter(names::POOL_WORKER_BUSY_NS)
        .set(p.worker_busy_ns);
    telemetry
        .counter(names::POOL_WORKER_IDLE_NS)
        .set(p.worker_idle_ns);
    telemetry.counter(names::POOL_SCOPE_NS).set(p.scope_ns);
    telemetry.counter(names::RUNTIME_POOL_STEALS).set(p.steals);
    telemetry.counter(names::RUNTIME_POOL_TASKS).set(p.tasks);
    telemetry
        .counter(names::RUNTIME_POOL_PARK_NS)
        .set(p.park_ns);
}

impl WalkService {
    /// Build a service over a snapshot of `graph`, partitioning the vertex
    /// space into [`ServiceConfig::num_shards`] contiguous shards (uniform
    /// or degree-balanced per [`ServiceConfig::partition`]) whose work runs
    /// as resumable tasks on the shared worker pool.
    ///
    /// Telemetry runs in the zero-added-cost disabled mode (stats still
    /// work — counters are always live); use
    /// [`WalkService::build_with_telemetry`] for latency histograms and
    /// lifecycle tracing.
    pub fn build(graph: &DynamicGraph, config: ServiceConfig) -> Result<Self> {
        Self::build_with_telemetry(graph, config, Telemetry::disabled())
    }

    /// [`WalkService::build`] recording into the given [`Telemetry`]
    /// handle. All per-shard counters register in its metric registry
    /// (labeled `shard="<i>"`); when the handle is detailed, the per-stage
    /// latency histograms (`service.submit_ns`,
    /// `service.shard.step_batch_ns`, `service.shard.inbox_dwell_ns`,
    /// `service.forward.hop_ns`, `service.collect_ns`, …) and sampled
    /// walker lifecycle traces light up too. See the crate-level
    /// "Observability" docs for the full taxonomy.
    pub fn build_with_telemetry(
        graph: &DynamicGraph,
        config: ServiceConfig,
        telemetry: Telemetry,
    ) -> Result<Self> {
        Self::build_with_transport(graph, config, telemetry, Arc::new(LoopbackTransport))
    }

    /// [`WalkService::build_with_telemetry`] with a custom
    /// [`ShardTransport`] carrying the encoded walker frames. Only
    /// meaningful with [`TransportMode::Serialized`] (the in-process mode
    /// never encodes a frame): every cross-shard forward is encoded,
    /// handed to `carrier`, and rebuilt from the bytes it returns — the
    /// hook the two-process demo uses to route forwards through a real
    /// loopback `TcpStream`. A carrier error (or undecodable or
    /// mis-addressed bytes) falls back to forwarding the original
    /// in-process walker, counted per shard as
    /// `service.transport.fallbacks`, so no walk is ever lost to the
    /// transport.
    pub fn build_with_transport(
        graph: &DynamicGraph,
        config: ServiceConfig,
        telemetry: Telemetry,
        carrier: Arc<dyn ShardTransport>,
    ) -> Result<Self> {
        if telemetry.is_detailed() {
            // Enable-only: another service (or the user) may already rely
            // on the pool profile, so detailed telemetry never turns the
            // shim's clocks back off.
            rayon::set_pool_profiling(true);
        }
        let num_vertices = graph.num_vertices();
        let num_shards = config.num_shards.max(1);
        let partitioner = match config.partition {
            PartitionStrategy::Uniform => Partitioner::new(num_vertices, num_shards),
            PartitionStrategy::DegreeBalanced => Partitioner::balanced_by_degree(graph, num_shards),
        };

        let counters: Vec<Arc<ShardCounters>> = (0..num_shards)
            .map(|shard| Arc::new(ShardCounters::register(&telemetry, shard)))
            .collect();
        // Shard-loop latency histograms are unlabeled (one distribution
        // across shards — per-shard load skew already shows in the busy/
        // utilization counters) and resolved once here; in disabled mode
        // they are no-op handles and never appear in the registry.
        let hists = ShardHists {
            step_batch_ns: telemetry.histogram(names::SERVICE_SHARD_STEP_BATCH_NS),
            inbox_dwell_ns: telemetry.histogram(names::SERVICE_SHARD_INBOX_DWELL_NS),
            update_apply_ns: telemetry.histogram(names::SERVICE_SHARD_UPDATE_APPLY_NS),
            forward_hop_ns: telemetry.histogram(names::SERVICE_FORWARD_HOP_NS),
        };
        let (done_tx, done_rx) = channel::<FinishedWalk>();

        // Shard tasks run on the process-wide worker pool: make sure it
        // has at least one parked worker per shard, so every shard can
        // make progress even when all of them are hot at once (and so
        // shutdown can't deadlock behind a task that never gets a slot).
        rayon::ensure_pool_workers(num_shards);

        let mut owned_counts = Vec::with_capacity(num_shards);
        let mut shards = Vec::with_capacity(num_shards);
        for shard_id in 0..num_shards {
            let (start, end) = partitioner.range(shard_id);
            owned_counts.push(end - start);
            let engine = BingoEngine::build_range(graph, start..end, config.engine)?;
            shards.push(ShardState {
                inbox: Mutex::new_named(VecDeque::new(), "service.shard_inbox"),
                sched: AtomicU8::new(SCHED_IDLE),
                terminated: AtomicBool::new(false),
                engine: RwLock::new_named(engine, "service.shard_engine"),
                context_cache: Mutex::new_named(HashMap::new(), "service.shard_ctx_cache"),
                rx_cache: Mutex::new_named(HashMap::new(), "service.shard_rx_cache"),
            });
        }
        let shared = Arc::new(ServiceShared {
            shards,
            partitioner: partitioner.clone(),
            counters: counters.clone(),
            done_tx,
            record_epochs: config.record_epochs,
            serialized: config.transport == TransportMode::Serialized,
            carrier,
            models: Mutex::new_named(HashMap::new(), "service.models"),
            telemetry: telemetry.clone(),
            hists,
            termination: Mutex::new_named(0, "service.termination"),
            termination_cv: Condvar::new(),
        });

        Ok(WalkService {
            partitioner,
            num_vertices,
            seed: config.seed,
            coalesce_capacity: config.coalesce_capacity.max(1),
            max_inbox: config.max_inbox,
            shared,
            counters,
            owned_counts,
            done_rx: Mutex::new_named(done_rx, "service.done_rx"),
            pending: Mutex::new_named(
                Collector {
                    tickets: HashMap::new(),
                    draining: false,
                },
                "service.pending",
            ),
            pending_cv: Condvar::new(),
            router: Mutex::new_named(
                RouterState {
                    buffers: vec![Vec::new(); num_shards],
                    flushes: 0,
                },
                "service.router",
            ),
            next_ticket: AtomicU64::new(1),
            stopped: false,
            // lint:allow(determinism): uptime epoch for stats/latency
            // reporting only; walk output never observes it.
            started_at: Instant::now(),
            submit_ns: telemetry.histogram(names::SERVICE_SUBMIT_NS),
            collect_ns: telemetry.histogram(names::SERVICE_COLLECT_NS),
            ticket_latency_ns: telemetry.histogram(names::SERVICE_TICKET_LATENCY_NS),
            epoch_lag: telemetry.gauge(names::SERVICE_UPDATE_EPOCH_LAG),
            telemetry,
        })
    }

    /// The observability handle this service records into. Clone it into
    /// co-located layers (the gateway does) so the whole stack shares one
    /// metric registry and one trace ring.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of shards (scheduled as tasks on the shared worker pool).
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Number of vertices in the serviced graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The vertex partitioner (shard = `partitioner().owner(v)`).
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner.clone()
    }

    /// Submit one walk per start vertex and return a ticket for collecting
    /// the results with [`WalkService::wait`].
    ///
    /// Walkers are fanned out to the shards owning their start vertices and
    /// hop between shards as the walk crosses ownership boundaries. Updates
    /// ingested concurrently become visible between steps, never within
    /// one. All built-in specs are servable, including `Node2Vec`: its
    /// second-order membership queries are answered from the carried
    /// adjacency fingerprint captured at forward time.
    pub fn submit(&self, spec: WalkSpec, starts: &[VertexId]) -> Result<WalkTicket> {
        self.submit_model(spec.to_model(), starts)
    }

    /// Submit one walk per start vertex for an arbitrary
    /// [`WalkModel`](bingo_walks::WalkModel).
    pub fn submit_model(&self, model: SharedWalkModel, starts: &[VertexId]) -> Result<WalkTicket> {
        self.submit_inner(model, starts, None)
    }

    /// [`WalkService::submit_model`] with a per-submission seed overriding
    /// [`ServiceConfig::seed`] (used by the `WalkClient` facade so local
    /// and sharded requests share one seeding knob).
    pub fn submit_model_seeded(
        &self,
        model: SharedWalkModel,
        starts: &[VertexId],
        seed: u64,
    ) -> Result<WalkTicket> {
        self.submit_inner(model, starts, Some(seed))
    }

    fn submit_inner(
        &self,
        model: SharedWalkModel,
        starts: &[VertexId],
        seed: Option<u64>,
    ) -> Result<WalkTicket> {
        if starts.is_empty() {
            return Err(ServiceError::EmptySubmission);
        }
        for &s in starts {
            if (s as usize) >= self.num_vertices {
                return Err(ServiceError::VertexOutOfRange {
                    vertex: s,
                    num_vertices: self.num_vertices,
                });
            }
        }
        if self.max_inbox > 0 {
            // Admission control: reject the whole submission up front when
            // any target shard cannot absorb its share. The check is a
            // racy snapshot — concurrent submitters can overshoot by one
            // batch — but a bound enforced at admission keeps inboxes from
            // growing without limit under sustained overload.
            let mut planned = vec![0usize; self.num_shards()];
            for &s in starts {
                planned[self.partitioner.owner(s)] += 1;
            }
            // A shard share larger than the bound can never be admitted, no
            // matter how the queues drain — report that first (and as
            // non-retryable) even when an earlier shard is merely
            // backlogged, so callers don't burn a retry budget on a batch
            // that must be split instead.
            if let Some((shard, _)) = planned
                .iter()
                .enumerate()
                .find(|&(_, &extra)| extra > self.max_inbox)
            {
                let queued = self.counters[shard].queue_depth().max(0) as usize;
                self.counters[shard].saturated_rejections.inc();
                self.telemetry
                    .flight()
                    .record(FlightEventKind::SaturatedBounce {
                        shard: shard as u64,
                        depth: queued as u64,
                    });
                return Err(ServiceError::Saturated {
                    shard,
                    queued,
                    capacity: self.max_inbox,
                    retryable: false,
                });
            }
            for (shard, &extra) in planned.iter().enumerate() {
                if extra == 0 {
                    continue;
                }
                let queued = self.counters[shard].queue_depth().max(0) as usize;
                if queued + extra > self.max_inbox {
                    self.counters[shard].saturated_rejections.inc();
                    self.telemetry
                        .flight()
                        .record(FlightEventKind::SaturatedBounce {
                            shard: shard as u64,
                            depth: queued as u64,
                        });
                    return Err(ServiceError::Saturated {
                        shard,
                        queued,
                        capacity: self.max_inbox,
                        retryable: true,
                    });
                }
            }
        }

        // relaxed-ok: ticket-id allocator; RMW atomicity alone guarantees
        // unique ids, and the ticket is published via the pending mutex.
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let base_seed = seed.unwrap_or(self.seed);
        self.pending.lock().tickets.insert(
            ticket,
            PendingTicket {
                model: model.clone(),
                walks: (0..starts.len()).map(|_| None).collect(),
                received: 0,
                // lint:allow(determinism): latency stamp feeding the
                // ticket-latency histogram (telemetry only).
                submitted_at: Instant::now(),
                last_finish: None,
            },
        );
        // Register the model for the serialized forward path (wire frames
        // carry the path, not the model); dropped when the ticket is
        // collected. Same lifecycle as the pending entry.
        self.shared.models.lock().insert(ticket, model.clone());
        // One stamp for the whole fanout: every walker of this submission
        // was enqueued "now" for dwell purposes, and disabled telemetry
        // pays zero clock reads (`timer()` returns `None` without one).
        let enqueued_at = self.telemetry.timer();
        for (index, &start) in starts.iter().enumerate() {
            let rng = Pcg64::seed_from_u64(walker_seed(base_seed, ticket, index as u64));
            let owner = self.partitioner.owner(start);
            let sampled = self.telemetry.is_sampled(ticket, index as u64);
            if sampled {
                self.telemetry.trace(
                    ticket,
                    index as u32,
                    TraceStage::Submit {
                        shard: owner as u32,
                        start: u64::from(start),
                    },
                );
            }
            let walker = Box::new(Walker {
                ticket,
                index: index as u32,
                cursor: WalkCursor::with_model(model.clone(), start),
                rng,
                hops: 0,
                trace: Vec::new(),
                contexts: Vec::new(),
                context_misses: 0,
                sampled,
                sent_at: enqueued_at,
            });
            self.shared.push(owner, ShardMsg::Walker(walker));
        }
        if let Some(started) = enqueued_at {
            self.submit_ns.record_duration(started.elapsed());
        }
        Ok(WalkTicket(ticket))
    }

    /// Submit one walker per vertex (the paper's default configuration).
    ///
    /// On a zero-vertex graph "one walker per vertex" is a perfectly valid
    /// request for nothing: it returns an immediately-complete ticket whose
    /// results hold no walks, rather than an [`ServiceError::EmptySubmission`]
    /// error (which is reserved for explicitly empty start lists).
    pub fn submit_all_vertices(&self, spec: WalkSpec) -> Result<WalkTicket> {
        if self.num_vertices == 0 {
            // relaxed-ok: ticket-id allocator (see submit_inner).
            let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
            self.pending.lock().tickets.insert(
                ticket,
                PendingTicket {
                    model: spec.to_model(),
                    walks: Vec::new(),
                    received: 0,
                    // lint:allow(determinism): latency stamp (telemetry).
                    submitted_at: Instant::now(),
                    last_finish: None,
                },
            );
            return Ok(WalkTicket(ticket));
        }
        let starts: Vec<VertexId> = (0..self.num_vertices as VertexId).collect();
        self.submit(spec, &starts)
    }

    /// Extract `ticket`'s results if every one of its walks has finished.
    /// The caller must hold the `pending` lock.
    fn take_if_complete(
        &self,
        pending: &mut HashMap<u64, PendingTicket>,
        ticket: WalkTicket,
    ) -> Option<TicketResults> {
        let entry = pending
            .get(&ticket.0)
            .expect("unknown or already-collected ticket");
        if entry.received != entry.walks.len() {
            return None;
        }
        let entry = pending.remove(&ticket.0).expect("entry present");
        // The ticket is done: no more forwards can need its model. (Lock
        // order: pending → models; `models` nests innermost everywhere.)
        self.shared.models.lock().remove(&ticket.0);
        let latency = entry
            .last_finish
            .map(|t| t.duration_since(entry.submitted_at))
            .unwrap_or_default();
        self.ticket_latency_ns.record_duration(latency);
        let mut paths = Vec::with_capacity(entry.walks.len());
        let mut hops = Vec::with_capacity(entry.walks.len());
        let mut traces = Vec::with_capacity(entry.walks.len());
        let mut contexts = Vec::with_capacity(entry.walks.len());
        for finished in entry.walks.into_iter() {
            let f = finished.expect("all walks received");
            paths.push(f.path);
            hops.push(f.hops);
            traces.push(f.trace);
            contexts.push(f.contexts);
        }
        Some(TicketResults {
            ticket,
            model: entry.model,
            paths,
            hops,
            traces,
            contexts,
            latency,
        })
    }

    /// Absorb any already-finished walks without blocking, then return
    /// `ticket`'s results if it is complete. Never blocks; use
    /// [`WalkService::wait`] to park until completion.
    pub fn try_wait(&self, ticket: WalkTicket) -> Option<TicketResults> {
        {
            let mut collector = self.pending.lock();
            if let Some(results) = self.take_if_complete(&mut collector.tickets, ticket) {
                return Some(results);
            }
        }
        if let Some(rx) = self.done_rx.try_lock() {
            let mut collector = self.pending.lock();
            while let Ok(finished) = rx.try_recv() {
                self.absorb(&mut collector.tickets, finished);
            }
            let results = self.take_if_complete(&mut collector.tickets, ticket);
            drop(collector);
            self.pending_cv.notify_all();
            return results;
        }
        None
    }

    /// Block until every walk of `ticket` has finished and return the
    /// collected results (walks are deposited in submission order).
    ///
    /// Exactly one waiter at a time owns the **drain role**: it parks in a
    /// blocking `recv()` on the completion channel (woken by the shard
    /// workers themselves) and absorbs finished walks for *every* ticket.
    /// All other waiters park on a condvar that the drainer signals after
    /// each absorb and when it hands the role off — so no thread ever
    /// sleep-polls, and a blocked waiter costs zero CPU until a walk of
    /// interest actually finishes.
    pub fn wait(&self, ticket: WalkTicket) -> TicketResults {
        let mut collector = self.pending.lock();
        loop {
            if let Some(results) = self.take_if_complete(&mut collector.tickets, ticket) {
                return results;
            }
            if !collector.draining {
                collector.draining = true;
                drop(collector);
                return self.drain_until_complete(ticket);
            }
            // Another waiter is draining. Parking happens under the same
            // mutex the drainer needs for absorbs and for releasing the
            // role, so its notify can never race past us: we either see
            // the new state on re-check or we are already parked when the
            // signal fires.
            collector = self.pending_cv.wait(collector);
        }
    }

    /// The drain role of [`WalkService::wait`]: block on the completion
    /// channel, absorb every finished walk, wake parked waiters, and return
    /// once `ticket` is complete (releasing the role).
    fn drain_until_complete(&self, ticket: WalkTicket) -> TicketResults {
        // If absorbing panics (the debug capture-fault assert), this guard
        // still releases the drain role and wakes the parked waiters so a
        // failing test fails loudly instead of hanging them forever.
        struct DrainGuard<'a>(&'a WalkService);
        impl Drop for DrainGuard<'_> {
            fn drop(&mut self) {
                self.0.pending.lock().draining = false;
                self.0.pending_cv.notify_all();
            }
        }
        let guard = DrainGuard(self);
        let rx = self.done_rx.lock();
        // Re-check completeness now that the channel lock is held: between
        // claiming the drain role and acquiring `done_rx`, a non-blocking
        // `try_wait` (e.g. the gateway dispatcher's completion poll) may
        // have drained the channel and absorbed this ticket's final walk —
        // blocking in `recv()` then would hang forever, since no further
        // send may ever come. Holding the channel lock closes the window:
        // every later absorb goes through this thread.
        {
            let mut collector = self.pending.lock();
            if let Some(results) = self.take_if_complete(&mut collector.tickets, ticket) {
                drop(collector);
                drop(guard);
                return results;
            }
        }
        loop {
            // Parks the thread until a shard worker finishes a walk; only
            // a worker-side send wakes it (no timeout, no polling).
            // lint:allow(lock-discipline): the single-drainer design holds
            // the `done_rx` channel lock across this blocking recv ON
            // PURPOSE — exactly one waiter may drain at a time, and the
            // hand-off protocol (claim under `pending`, release via
            // DrainGuard) guarantees no other thread can need `done_rx`
            // while we park here; see the method docs above.
            let finished = rx.recv().expect("shard workers alive");
            let mut collector = self.pending.lock();
            self.absorb(&mut collector.tickets, finished);
            while let Ok(more) = rx.try_recv() {
                self.absorb(&mut collector.tickets, more);
            }
            let done = self.take_if_complete(&mut collector.tickets, ticket);
            drop(collector);
            self.pending_cv.notify_all();
            if let Some(results) = done {
                drop(guard); // release the drain role, wake a successor
                return results;
            }
        }
    }

    fn absorb(&self, pending: &mut HashMap<u64, PendingTicket>, finished: FinishedWalk) {
        // Loud in debug builds (and deliberately on the *collector* thread:
        // a worker-thread panic would strand the walk and hang `wait()`
        // instead of failing the test): a capture fault means a forwarding
        // shard failed to attach second-order context and the membership
        // answer silently degraded. Release builds keep serving; the fault
        // stays visible as `ServiceStats::total_context_misses`.
        debug_assert!(
            finished.context_misses == 0,
            "walk {}#{} answered {} second-order membership queries without              carried context on a non-owning shard",
            finished.ticket,
            finished.index,
            finished.context_misses,
        );
        if self.collect_ns.is_enabled() {
            // Finish-to-absorb lag: how long the completed walk sat on the
            // completion channel before a drainer picked it up.
            self.collect_ns
                .record_duration(finished.finished_at.elapsed());
        }
        if let Some(entry) = pending.get_mut(&finished.ticket) {
            if finished.sampled {
                let latency = finished
                    .finished_at
                    .saturating_duration_since(entry.submitted_at);
                self.telemetry.trace(
                    finished.ticket,
                    finished.index,
                    TraceStage::Collect {
                        path_len: finished.path.len() as u32,
                        hops: finished.hops,
                        latency_ns: u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
                    },
                );
            }
            let slot = finished.index as usize;
            if entry.walks[slot].is_none() {
                entry.received += 1;
            }
            entry.last_finish = Some(
                entry
                    .last_finish
                    .map_or(finished.finished_at, |t| t.max(finished.finished_at)),
            );
            entry.walks[slot] = Some(finished);
        }
    }

    /// Route a batch of update events to their owning shards and flush
    /// immediately: every shard receives its slice (empty slices included)
    /// as one new epoch. Returns the receipt carrying that epoch.
    pub fn ingest(&self, batch: &UpdateBatch) -> IngestReceipt {
        let splits = batch.split_by_owner(self.num_shards(), |v| self.partitioner.owner(v));
        let mut router = self.router.lock();
        for (buffer, split) in router.buffers.iter_mut().zip(splits) {
            buffer.extend(split.into_events());
        }
        let epoch = self.flush_locked(&mut router);
        IngestReceipt {
            epoch,
            events_routed: batch.len(),
        }
    }

    /// Stream a single event into the router's per-shard buffers. Buffers
    /// are coalesced until one of them reaches
    /// [`ServiceConfig::coalesce_capacity`], then all are flushed as one
    /// epoch. Returns a receipt only when a flush happened.
    pub fn ingest_event(&self, event: UpdateEvent) -> Option<IngestReceipt> {
        let mut router = self.router.lock();
        let owner = self.partitioner.owner(event.src());
        router.buffers[owner].push(event);
        if router.buffers[owner].len() >= self.coalesce_capacity {
            let epoch = self.flush_locked(&mut router);
            Some(IngestReceipt {
                epoch,
                events_routed: 1,
            })
        } else {
            None
        }
    }

    /// Flush all buffered streamed events to the shards as one epoch.
    pub fn flush(&self) -> IngestReceipt {
        let mut router = self.router.lock();
        let epoch = self.flush_locked(&mut router);
        IngestReceipt {
            epoch,
            events_routed: 0,
        }
    }

    fn flush_locked(&self, router: &mut RouterState) -> u64 {
        router.flushes += 1;
        let flushed_at = self.telemetry.timer();
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

    /// The configured per-shard inbox bound (`0` = unbounded).
    pub fn max_inbox(&self) -> usize {
        self.max_inbox
    }

    /// A cheap point-in-time view of the admission-relevant state: current
    /// per-shard inbox occupancy, the configured bound, and the cumulative
    /// saturation-rejection count. This is the sampling hook an adaptive
    /// admission controller (see `bingo-gateway`) reads every tick — three
    /// relaxed atomic loads per shard, no allocation beyond the depth
    /// vector, unlike the full [`WalkService::stats`] snapshot.
    pub fn admission_snapshot(&self) -> AdmissionSnapshot {
        AdmissionSnapshot {
            queue_depths: self
                .counters
                .iter()
                .map(|c| c.queue_depth().max(0) as usize)
                .collect(),
            max_inbox: self.max_inbox,
            saturated_rejections: self
                .counters
                .iter()
                .map(|c| c.saturated_rejections.get())
                .sum(),
        }
    }

    /// Point-in-time occupancy of the context snapshot caches:
    /// `(sender_entries, receiver_entries)` summed across shards — the
    /// sender-side encode caches and the receiver-side handle-negotiation
    /// caches. Both are one-slot-per-key maps evicted by the structural
    /// updates that touch them, so occupancy is bounded by the set of
    /// vertices that actually forwarded context, **not** by how many
    /// epochs have passed (the regression the bounded-occupancy test
    /// pins).
    pub fn snapshot_cache_occupancy(&self) -> (usize, usize) {
        let mut sender = 0;
        let mut receiver = 0;
        for shard in &self.shared.shards {
            // Taken with no other lock held (each released before the
            // next); the engine → cache order only constrains nesting.
            sender += shard.context_cache.lock().len();
            receiver += shard.rx_cache.lock().len();
        }
        (sender, receiver)
    }

    /// Snapshot of per-shard throughput/occupancy counters.
    pub fn stats(&self) -> ServiceStats {
        // Refresh the update-epoch lag gauge: how many flushed epochs the
        // slowest shard has not yet applied (0 = fully caught up).
        let flushes = self.router.lock().flushes;
        let min_epoch = self
            .counters
            .iter()
            .map(|c| c.epoch.get_acquire())
            .min()
            .unwrap_or(0);
        self.epoch_lag.set(flushes.saturating_sub(min_epoch) as i64);
        ServiceStats {
            per_shard: self
                .counters
                .iter()
                .enumerate()
                .map(|(i, c)| c.snapshot(i, self.owned_counts[i]))
                .collect(),
            uptime: self.started_at.elapsed(),
        }
    }

    /// Stop all shard tasks and return the final statistics. Outstanding
    /// tickets should be waited on first; walkers still in flight when the
    /// shutdown message overtakes them are dropped.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop_workers();
        let stats = self.stats();
        // The `stopped` flag disarms the redundant second stop in Drop.
        stats
    }

    fn stop_workers(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        let n = self.shared.shards.len();
        for shard in 0..n {
            self.shared.push(shard, ShardMsg::Shutdown);
        }
        // Park until every shard task has processed its Shutdown. The pool
        // workers are daemon threads shared across services, so there is
        // no JoinHandle to join — termination is a counted condvar.
        let mut done = self.shared.termination.lock();
        while *done < n {
            done = self.shared.termination_cv.wait(done);
        }
    }
}

impl Drop for WalkService {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// A point-in-time view of the state admission decisions depend on — see
/// [`WalkService::admission_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Messages currently queued on each shard's inbox (clamped at 0).
    pub queue_depths: Vec<usize>,
    /// The configured [`ServiceConfig::max_inbox`] bound (`0` = unbounded).
    pub max_inbox: usize,
    /// Cumulative submissions rejected with [`ServiceError::Saturated`]
    /// across all shards since the service started.
    pub saturated_rejections: u64,
}

impl AdmissionSnapshot {
    /// Occupancy of the fullest inbox as a fraction of the bound, in
    /// `[0, 1]`-ish (transient overshoot past 1.0 is possible because
    /// forwarded walkers and update batches bypass admission). Returns 0
    /// when inboxes are unbounded — there is no pressure signal to read.
    pub fn peak_occupancy(&self) -> f64 {
        if self.max_inbox == 0 {
            return 0.0;
        }
        let peak = self.queue_depths.iter().copied().max().unwrap_or(0);
        peak as f64 / self.max_inbox as f64
    }
}

/// The shard-loop latency histograms, resolved once at service build and
/// cloned into every worker. No-op handles in disabled telemetry.
#[derive(Clone)]
struct ShardHists {
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

/// One shard's task-visible state: inbox, scheduling latch, engine and
/// forwarded-context cache. Everything a peer needs for stealing lives
/// here behind its own lock — and the engine is only ever reached through
/// `engine`, never through the inbox, so a thief can drain a queue without
/// touching sampling state.
struct ShardState {
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
    /// Sender-side encode cache: snapshots captured on this shard, stamped
    /// with their capture epoch and reused by every walker forwarded in
    /// the same wave. Entry presence implies validity — structural update
    /// batches evict exactly the vertices they touched, while bias-only
    /// batches and empty epoch ticks keep it warm (fingerprints are
    /// membership sets, which reweights never alter). One slot per vertex, so occupancy is
    /// bounded by the shard's forwarded-vertex set no matter how many
    /// epochs pass. Locked only while the engine lock is already held
    /// (order: engine → ctx_cache).
    context_cache: Mutex<HashMap<VertexId, (u64, CarriedContext)>>,
    /// Receiver-side snapshot cache for handle negotiation, keyed by
    /// `(owner_shard, vertex)` and holding the snapshot's capture epoch:
    /// a forward whose `(vertex, epoch)` is already here ships a true
    /// [`CONTEXT_HANDLE_BYTES`] handle; otherwise the body ships and
    /// seeds this cache. One slot per key (newer captures overwrite), so
    /// occupancy is bounded like `context_cache`; the owning shard's
    /// structural updates evict its touched keys from every peer's cache.
    /// Locked only while an engine lock is already held (order: engine →
    /// rx_cache), and never together with `context_cache`.
    rx_cache: Mutex<HashMap<(u32, VertexId), (u64, CarriedContext)>>,
}

/// What a walker visit ended with — decided under the engine read guard,
/// acted on after it drops, so a forward or finish never holds an engine
/// lock while touching inboxes, the pool injector, or the done channel.
enum VisitOutcome {
    /// The walk completed (or dead-ended) on this shard.
    Finished,
    /// The walk crossed into shard `to`'s range and must be forwarded;
    /// `context` describes the capture/negotiation done under the engine
    /// guard (`None` when the model carries no context). Carrying it out
    /// of the guarded section lets the forward-hop trace be recorded
    /// *after* the visit's step-batch span, preserving lifecycle order,
    /// and with no engine lock held — and gives the serialized forward
    /// path the negotiated handle for the wire frame.
    Forward {
        to: usize,
        context: Option<ForwardNegotiation>,
    },
}

/// What [`ServiceShared::attach_forward_context`] decided for one
/// forwarded snapshot, carried out of the engine-guarded section.
struct ForwardNegotiation {
    /// The *sender's* encode cache already held the snapshot.
    cache_hit: bool,
    /// Bytes billed — and, in serialized mode, actually framed: the body
    /// on a receiver miss, [`CONTEXT_HANDLE_BYTES`] on a receiver hit.
    bytes_sent: usize,
    /// `Some` when the receiver held the `(vertex, epoch)` snapshot: the
    /// wire frame ships this handle instead of the body.
    handle: Option<ContextHandle>,
}

/// The state shared by the service handle and every shard-task activation
/// in flight on the worker pool.
struct ServiceShared {
    shards: Vec<ShardState>,
    partitioner: Partitioner,
    counters: Vec<Arc<ShardCounters>>,
    done_tx: Sender<FinishedWalk>,
    record_epochs: bool,
    /// Whether forwarded walkers round-trip through the wire format
    /// ([`TransportMode::Serialized`]).
    serialized: bool,
    /// The frame carrier serialized forwards go through
    /// ([`LoopbackTransport`] unless
    /// [`WalkService::build_with_transport`] plugged a real one).
    carrier: Arc<dyn ShardTransport>,
    /// Walk models of outstanding tickets, so the serialized forward path
    /// can rebuild a cursor from a decoded frame (frames carry the path,
    /// not the model). Registered at submit, removed at collection.
    models: Mutex<HashMap<u64, SharedWalkModel>>,
    telemetry: Telemetry,
    hists: ShardHists,
    /// Number of shards that have processed their Shutdown message; the
    /// condvar wakes `stop_workers` when it reaches `shards.len()`.
    termination: Mutex<usize>,
    termination_cv: Condvar,
}

impl ServiceShared {
    /// Enqueue a message on `shard`'s inbox and guarantee an activation
    /// will process it. When the enqueue leaves a deep backlog, idle peers
    /// are woken too so they can steal from it.
    fn push(self: &Arc<Self>, shard: usize, msg: ShardMsg) {
        if self.shards[shard].terminated.load(Ordering::Acquire) {
            // Shutdown raced this send: drop the message, matching the old
            // closed-channel semantics (in-flight walkers are abandoned).
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
                    // are dropped, matching the old channel semantics.
                    self.mark_terminated(shard_id);
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

    /// Count this shard as terminated and wake `stop_workers`.
    fn mark_terminated(&self, shard_id: usize) {
        self.shards[shard_id]
            .terminated
            .store(true, Ordering::Release);
        let mut done = self.termination.lock();
        *done += 1;
        self.termination_cv.notify_all();
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
        let me = &self.shards[shard_id];
        let mut engine = me.engine.write();
        if !touched.is_empty() {
            // Snapshots captured under the previous epoch may describe
            // adjacencies this batch changes: evict them from this
            // shard's encode cache AND from every peer's receiver-side
            // handle cache (which holds copies keyed to this shard), so a
            // stale `(vertex, epoch)` can never satisfy a handle offer.
            // Exactly the touched vertices drop — every other entry stays
            // warm across the epoch advance — and bias-only batches and
            // empty epoch ticks evict nothing. (Lock order: engine →
            // ctx_cache / engine → rx_cache, same as the capture path;
            // the two caches are never held together.)
            {
                let mut cache = me.context_cache.lock();
                for &v in &touched {
                    cache.remove(&v);
                }
            }
            for peer in &self.shards {
                let mut rx = peer.rx_cache.lock();
                for &v in &touched {
                    rx.remove(&(shard_id as u32, v));
                }
            }
        }
        let outcome = engine.apply_batch(&batch);
        let c = &self.counters[shard_id];
        c.updates_applied
            .add((outcome.inserted + outcome.deleted) as u64);
        c.update_batches.inc();
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

    /// Capture the model-declared cross-shard context before forwarding:
    /// for second-order models, a membership snapshot of the walker's
    /// previous vertex — which this shard owns, because it just sampled the
    /// step that left it.
    ///
    /// Snapshots are built at most once per `(vertex, epoch)` and reused by
    /// every walker forwarded in the same wave. What actually ships is
    /// then **negotiated with the receiver's snapshot cache**: a snapshot
    /// the receiver already holds at the same `(vertex, epoch)` ships as a true
    /// [`CONTEXT_HANDLE_BYTES`] [`ContextHandle`]; otherwise the encoded
    /// body ships and seeds the receiver's cache (resolved synchronously
    /// here, so the "body request" costs no separate hop in-process —
    /// counted as `service.context.body_request` either way). Bodies no
    /// larger than a handle always ship inline. Byte accounting
    /// distinguishes the body-on-every-forward baseline
    /// (`context_bytes_raw`) from the bytes the negotiated wire frame
    /// carries
    /// (`context_bytes_forwarded` — real frame bytes in serialized mode).
    ///
    /// Returns the negotiation outcome when a snapshot was attached,
    /// `None` when the model carries no context or one is already
    /// attached.
    fn attach_forward_context(
        &self,
        owner_shard: usize,
        to: usize,
        engine: &BingoEngine,
        walker: &mut Walker,
    ) -> Option<ForwardNegotiation> {
        if walker.cursor.required_context() != ContextRequirement::PreviousAdjacency {
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
        // The caller holds the owner's engine read guard, so the cache
        // lock nests engine → ctx_cache — the same order `apply_update`
        // uses, and the guard also pins the epoch the fingerprint
        // describes (no update can slip between capture and cache insert).
        // The stored stamp is the *capture* epoch: bias-only epoch ticks
        // advance the counter without invalidating membership, so entry
        // presence (upheld by the eviction in `apply_update`) — not stamp
        // freshness — is what implies validity.
        let (capture_epoch, ctx, cache_hit) = {
            let mut cache = self.shards[owner_shard].context_cache.lock();
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
        let body_len = ctx.byte_len();
        // Handle negotiation with the receiving shard's snapshot cache
        // (engine → rx_cache, never while ctx_cache is held). Only worth
        // it when the handle is actually smaller than the body.
        let (bytes_sent, handle) = if body_len > CONTEXT_HANDLE_BYTES {
            c.context_handle_offers.inc();
            let mut rx = self.shards[to].rx_cache.lock();
            let key = (owner_shard as u32, prev);
            match rx.get(&key) {
                Some(&(stamp, _)) if stamp == capture_epoch => {
                    c.context_handle_hits.inc();
                    let handle = ContextHandle {
                        vertex: prev,
                        owner_shard: owner_shard as u32,
                        epoch: capture_epoch,
                    };
                    (CONTEXT_HANDLE_BYTES, Some(handle))
                }
                _ => {
                    rx.insert(key, (capture_epoch, ctx.clone()));
                    c.context_body_requests.inc();
                    (body_len, None)
                }
            }
        } else {
            (body_len, None)
        };
        c.context_bytes_raw.add(body_len as u64);
        c.context_bytes_forwarded.add(bytes_sent as u64);
        if cache_hit {
            c.context_cache_hits.inc();
        } else {
            c.context_cache_misses.inc();
        }
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

    /// Serialized-mode forward: encode the walker into its versioned wire
    /// frame, hand the bytes to the carrier, decode what arrives, and
    /// rebuild the walker **from the frame alone** — cursor replayed from
    /// the path, RNG restored from its raw parts, context taken from the
    /// frame (inline body) or resolved from the receiver's snapshot cache
    /// (negotiated handle). The walker the receiving shard processes then
    /// contains exactly what crossed the wire, so serialized and
    /// in-process runs are bit-identical by construction, not by
    /// assumption.
    ///
    /// Debug-only baggage (step/context traces, the dwell stamp) is moved
    /// out-of-band onto the rebuilt walker: it is collector-side
    /// diagnostics, not walk state, and a real remote protocol would ship
    /// it on a side channel if at all.
    ///
    /// Any failure — carrier error, undecodable bytes, a frame that
    /// decodes to another walker's `(ticket, index)`, unknown ticket, a
    /// handle whose snapshot was evicted mid-flight — falls back to the
    /// original in-process walker and is counted as
    /// `service.transport.fallbacks`: the forward degrades to zero-copy
    /// instead of losing the walk (the attach-time context is still on
    /// its cursor, so even the evicted-handle race keeps the membership
    /// answers intact).
    fn round_trip(
        &self,
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
        let mut buf = Vec::with_capacity(frame.encoded_len());
        let sent = wire::encode_walker(&frame, &mut buf);
        self.counters[owner_shard]
            .transport_bytes_sent
            .add(sent as u64);
        match self.rebuild_from_wire(to, &mut walker, buf) {
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
    /// untouched; on success `sent`'s out-of-band diagnostics move onto
    /// the rebuilt walker.
    fn rebuild_from_wire(
        &self,
        to: usize,
        sent: &mut Walker,
        frame: Vec<u8>,
    ) -> Option<Box<Walker>> {
        let delivered = self.carrier.carry(to, frame).ok()?;
        let (decoded, _) = wire::decode_walker(&delivered).ok()?;
        // The collector files a finished walk under the frame's own
        // `(ticket, index)`: a frame that names any walker but the one
        // sent would land in (or past) another walker's result slot.
        if (decoded.ticket, decoded.index) != (sent.ticket, sent.index) {
            return None;
        }
        let model = self.models.lock().get(&decoded.ticket).cloned()?;
        let mut cursor = WalkCursor::resume(model, decoded.path)?;
        match decoded.context {
            FrameContext::Inline(ctx) => {
                cursor.set_forward_context(ctx);
            }
            FrameContext::Handle(h) => {
                let resolved = {
                    let rx = self.shards[to].rx_cache.lock();
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
                let context_misses = walker.cursor.take_context_misses();
                if context_misses > 0 {
                    // A second-order membership query fell back to this
                    // shard's engine for a vertex it does not own: the
                    // forwarding shard failed to attach (or attached a
                    // mismatched) context. Keep serving — the distribution
                    // degrades instead of the walk dying — count it here,
                    // and let the collector side `debug_assert!` on it
                    // (panicking a pool worker would hang every waiter
                    // instead of failing loudly).
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
            // The engine read guard drops here: the forward/finish below
            // touches inboxes, the pool injector and the done channel with
            // no engine lock held.
        };
        match outcome {
            VisitOutcome::Finished => self.finish_walker(owner_shard, *walker),
            VisitOutcome::Forward { to, context } => {
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
                let walker = if self.serialized {
                    let handle = context.and_then(|n| n.handle);
                    self.round_trip(owner_shard, to, walker, handle)
                } else {
                    walker
                };
                self.push(to, ShardMsg::Walker(walker));
            }
        }
    }

    fn finish_walker(&self, owner_shard: usize, walker: Walker) {
        self.counters[owner_shard].walks_completed.inc();
        let _ = self.done_tx.send(FinishedWalk {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use std::collections::HashSet;

    #[test]
    fn walker_seeds_do_not_collide_across_ticket_index_pairs() {
        // Regression for the XOR-of-two-products seeding scheme: distinct
        // (ticket, index) pairs must map to distinct seeds. A few thousand
        // pairs over several base seeds; any collision means two walkers
        // share one Pcg64 stream.
        for base in [0u64, 0x5E41_11CE, u64::MAX] {
            let mut seen = HashSet::new();
            for ticket in 1..=100u64 {
                for index in 0..50u64 {
                    assert!(
                        seen.insert(walker_seed(base, ticket, index)),
                        "seed collision at base {base:#x}, pair ({ticket}, {index})"
                    );
                }
            }
        }
    }

    #[test]
    fn walker_seed_has_no_linear_low_bit_structure() {
        // The old scheme's seed parity equaled parity(base ^ ticket ^
        // index), so half the low-bit patterns could never occur. The
        // finalized seeds must hit both parities for fixed-parity inputs.
        let parities: HashSet<u64> = (0..16u64)
            .map(|i| walker_seed(7, 2 * i, 0) & 1) // even tickets only
            .collect();
        assert_eq!(parities.len(), 2, "both low-bit values occur");
    }

    #[test]
    fn walker_seeds_produce_distinct_streams() {
        let mut a = Pcg64::seed_from_u64(walker_seed(9, 1, 0));
        let mut b = Pcg64::seed_from_u64(walker_seed(9, 1, 1));
        let draws_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(draws_a, draws_b);
    }
}
