//! The service handle: configuration, errors, build, walk submission,
//! statistics and shutdown.
//!
//! The rest of the crate is filed by the lock it guards — [`crate::router`]
//! (`service.router`), [`crate::shard`] (`service.shard_inbox`,
//! `service.shard_engine`), [`crate::forward`] (`service.shard_ctx_cache`),
//! [`crate::collect`] (`service.pending`) — and
//! each adds its part of the public API as an `impl WalkService` block of
//! its own. This file keeps `service.progress`, the rendezvous `sync` and
//! `stop_workers` park on.

use crate::collect::{Collector, Notify};
use crate::router::{IngestReceipt, Router};
use crate::shard::{ShardHists, ShardState, Walker};
use crate::stats::{ServiceStats, ShardCounters};
use crate::transport::{LoopbackTransport, ShardTransport, TransportMode};
use bingo_core::partition::Partitioner;
use bingo_core::{BingoConfig, BingoEngine, BingoError};
use bingo_graph::{DynamicGraph, VertexId};
use bingo_sampling::rng::{Pcg64, SplitMix64};
use bingo_telemetry::{names, FlightEventKind, Histogram, Telemetry, TraceStage};
use bingo_walks::apps::NODE2VEC_MAX_SPREAD;
use bingo_walks::{Walk, WalkCursor, WalkSpec};
use parking_lot::{Condvar, Mutex};
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// A node2vec submission whose `p` or `q` is not finite and positive,
    /// or whose spread `max(p, 1, q) / min(p, 1, q)` exceeds
    /// [`NODE2VEC_MAX_SPREAD`]: a step costs up to the spread in expected
    /// rejection draws, so the bound keeps every step's cost bounded
    /// ([`Node2VecConfig::has_valid_parameters`](bingo_walks::Node2VecConfig::has_valid_parameters)).
    InvalidNode2Vec {
        /// The submitted return parameter.
        p: f64,
        /// The submitted in-out parameter.
        q: f64,
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
            ServiceError::InvalidNode2Vec { p, q } => {
                write!(
                    f,
                    "node2vec p = {p}, q = {q}: both must be finite and positive, with \
                     max(p, 1, q) / min(p, 1, q) at most {NODE2VEC_MAX_SPREAD} \
                     (the expected draws per step)"
                )
            }
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
///
/// Shard engines are always built with [`BingoConfig::default`], the
/// paper's adaptive configuration; the "BS" baseline
/// ([`BingoConfig::baseline`]) is built directly as a [`BingoEngine`]
/// (`repro` does).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of vertex shards (resumable tasks on the shared worker
    /// pool). At least 1.
    pub num_shards: usize,
    /// Seed from which every walker's RNG stream is derived.
    pub seed: u64,
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
    /// allocations and bills no bytes; [`TransportMode::Serialized`]
    /// round-trips every forward through the versioned wire format
    /// (encode → carry → decode → rebuild) and bills the frames, while
    /// keeping walk output bit-identical. See [`crate::transport`].
    pub transport: TransportMode,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            num_shards: 4,
            seed: 0x5E41_11CE,
            max_inbox: 0,
            partition: PartitionStrategy::Uniform,
            transport: TransportMode::default(),
        }
    }
}

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

/// Handle for retrieving the results of one walk submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WalkTicket(pub(crate) u64);

impl WalkTicket {
    /// The ticket's numeric id.
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// A vertex-sharded, multi-threaded walk service over the Bingo engine.
///
/// See the crate-level documentation for a quickstart. Internally each
/// shard owns a [`BingoEngine`] built over its contiguous vertex range
/// ([`BingoEngine::build_ranges`]) behind a `RwLock`, and its inbox of
/// walkers and pending update batches is processed by **resumable tasks on
/// the shared worker pool** (see [`crate::shard`]) — walker visits sample
/// under the read guard, update batches apply under the write guard, so a
/// walk step can never observe a partially applied ("torn") update. A
/// shard task on its way to idle (woken for it when a peer's backlog
/// grows) steals walkers from a hot shard's inbox,
/// once that shard has applied every batch flushed to it, and runs them
/// against the owning shard's engine, so stealing moves CPU work without
/// moving ownership.
///
/// A submission names a [`Walk`]: a built-in
/// [`WalkSpec`] or a shared custom
/// [`WalkModel`](bingo_walks::WalkModel) ([`WalkService::submit`]).
/// Second-order walks (node2vec) are
/// fully supported: when a walker crosses a shard boundary, the owning
/// shard captures a membership snapshot of the previous vertex's adjacency
/// (built at most once per `(vertex, epoch)` and `Arc`-shared across the
/// wave) and forwards it with
/// the cursor, so the receiving shard can answer the model's membership
/// queries without a cross-shard edge lookup.
pub struct WalkService {
    /// The state shard tasks run against, `Arc`-shared with every task
    /// activation in flight on the pool.
    pub(crate) shared: Arc<ServiceShared>,
    pub(crate) router: Router,
    seed: u64,
    max_inbox: usize,
    owned_counts: Vec<usize>,
    next_ticket: AtomicU64,
    /// Set once [`WalkService::stop_workers`] has run, disarming the
    /// redundant stop from `Drop` after an explicit `shutdown()`.
    stopped: bool,
    started_at: Instant,
    /// `service.submit_ns`: submit call → all walkers enqueued.
    submit_ns: Histogram,
}

/// The state shared by the service handle and every shard-task activation
/// in flight on the worker pool.
pub(crate) struct ServiceShared {
    pub(crate) shards: Vec<ShardState>,
    pub(crate) partitioner: Partitioner,
    /// Number of vertices in the serviced graph.
    pub(crate) num_vertices: usize,
    /// Registry-backed per-shard counters ([`ServiceStats`] is a view over
    /// them).
    pub(crate) counters: Vec<ShardCounters>,
    /// The observability handle every layer records into.
    pub(crate) telemetry: Telemetry,
    pub(crate) hists: ShardHists,
    /// The frame carrier serialized forwards go through; `None` moves
    /// walkers in process. The one place [`TransportMode`] is read.
    pub(crate) carrier: Option<Arc<dyn ShardTransport>>,
    pub(crate) collector: Collector,
    /// Number of shards that have terminated. A shard activation locks it
    /// and notifies `progress_cv` after it applies updates (waking `sync`)
    /// and when it terminates (waking `stop_workers`), always with no other
    /// lock held.
    progress: Mutex<usize>,
    progress_cv: Condvar,
}

/// Mirror the thread-pool shim's cumulative profile into `telemetry`'s
/// registry as the `pool.*` counters ([`names::POOL_CALLS`],
/// [`names::POOL_CHUNKS_CLAIMED`], [`names::POOL_WORKER_BUSY_NS`],
/// [`names::POOL_WORKER_IDLE_NS`], [`names::POOL_SCOPE_NS`]) and the
/// persistent-runtime counters ([`names::RUNTIME_POOL_STEALS`],
/// [`names::RUNTIME_POOL_TASKS`], [`names::RUNTIME_POOL_PARK_NS`]).
///
/// The shim's global cells stay authoritative (they are process-wide, not
/// per-service); call this right before reading the registry so it
/// reflects the latest pool activity (the obs plane does on every
/// `/metrics` and `/status` read). The nanosecond cells only advance once
/// [`rayon::set_pool_profiling`] has turned them on —
/// [`WalkService::build_with_telemetry`] does whenever the handle is
/// detailed.
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
    /// handle. All its metrics register in the handle's registry under
    /// this service's `service="<n>"` label (per-shard counters add
    /// `shard="<i>"`); when the handle is detailed, the per-stage
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

        // Shard tasks run on the process-wide worker pool: make sure it
        // has at least one parked worker per shard, so every shard can
        // make progress even when all of them are hot at once (and so
        // shutdown can't deadlock behind a task that never gets a slot).
        rayon::ensure_pool_workers(num_shards);

        let ranges: Vec<Range<usize>> = (0..num_shards)
            .map(|shard_id| {
                let (start, end) = partitioner.range(shard_id);
                start..end
            })
            .collect();
        let owned_counts = ranges.iter().map(|r| r.len()).collect();
        // Every metric this service registers carries its instance label.
        let instance = telemetry.registry().instance("service");
        let labels: &[(&str, &str)] = &[("service", &instance)];
        // Every shard's engine in one pass of the pool.
        let shards = BingoEngine::build_ranges(graph, &ranges, BingoConfig::default())?
            .into_iter()
            .map(ShardState::new)
            .collect();
        let shared = Arc::new(ServiceShared {
            shards,
            partitioner,
            num_vertices,
            counters: (0..num_shards)
                .map(|shard| ShardCounters::register(&telemetry, &instance, shard))
                .collect(),
            hists: ShardHists::new(&telemetry, labels),
            carrier: (config.transport == TransportMode::Serialized).then_some(carrier),
            collector: Collector::new(&telemetry, labels),
            progress: Mutex::new_named(0, "service.progress"),
            progress_cv: Condvar::new(),
            telemetry,
        });
        let telemetry = &shared.telemetry;

        Ok(WalkService {
            router: Router::new(),
            seed: config.seed,
            max_inbox: config.max_inbox,
            owned_counts,
            next_ticket: AtomicU64::new(1),
            stopped: false,
            // lint:allow(determinism): uptime epoch for stats/latency
            // reporting only; walk output never observes it.
            started_at: Instant::now(),
            submit_ns: telemetry.histogram_with(names::SERVICE_SUBMIT_NS, labels),
            shared,
        })
    }

    /// The observability handle this service records into. Clone it into
    /// co-located layers (the gateway does) so the whole stack shares one
    /// metric registry and one trace ring.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Number of shards (scheduled as tasks on the shared worker pool).
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Number of vertices in the serviced graph.
    pub fn num_vertices(&self) -> usize {
        self.shared.num_vertices
    }

    /// The vertex partitioner (shard = `partitioner().owner(v)`).
    pub fn partitioner(&self) -> Partitioner {
        self.shared.partitioner.clone()
    }

    /// Submit one walk per start vertex and return a ticket for collecting
    /// the results with [`WalkService::wait`].
    ///
    /// Walkers are fanned out to the shards owning their start vertices and
    /// hop between shards as the walk crosses ownership boundaries. Updates
    /// ingested concurrently become visible between steps, never within
    /// one. `walk` is a built-in [`WalkSpec`] or a
    /// shared custom model; every built-in is servable, including
    /// `Node2Vec`: its second-order membership queries are answered from
    /// the membership snapshot of the previous vertex captured at forward
    /// time.
    pub fn submit(&self, walk: impl Into<Walk>, starts: &[VertexId]) -> Result<WalkTicket> {
        self.submit_inner(walk.into(), starts, None, None)
    }

    /// [`WalkService::submit`] with an optional seed overriding
    /// [`ServiceConfig::seed`], and a notifier called once with the ticket
    /// when its last walk is filed: on a pool worker, with no service lock
    /// held, so the notifier may call the service — take the results with
    /// [`WalkService::try_wait`], submit more work. It must not block on
    /// walks, since it runs inside a shard activation. The gateway
    /// dispatches this way.
    pub fn submit_notify(
        &self,
        walk: impl Into<Walk>,
        starts: &[VertexId],
        seed: Option<u64>,
        notify: Arc<dyn Fn(WalkTicket) + Send + Sync>,
    ) -> Result<WalkTicket> {
        self.submit_inner(walk.into(), starts, seed, Some(notify))
    }

    /// The checks [`WalkService::submit`] makes before it enqueues
    /// anything: a non-empty start list, a node2vec `p` and `q` that
    /// [`Node2VecConfig::has_valid_parameters`](bingo_walks::Node2VecConfig::has_valid_parameters)
    /// accepts, and start vertices in range. The gateway makes them at its
    /// own submit, so a request it queues never fails them at dispatch.
    pub fn check_submission(&self, walk: &Walk, starts: &[VertexId]) -> Result<()> {
        if starts.is_empty() {
            return Err(ServiceError::EmptySubmission);
        }
        if let Some(WalkSpec::Node2Vec(c)) = walk.spec() {
            if !c.has_valid_parameters() {
                return Err(ServiceError::InvalidNode2Vec { p: c.p, q: c.q });
            }
        }
        for &s in starts {
            if (s as usize) >= self.num_vertices() {
                return Err(ServiceError::VertexOutOfRange {
                    vertex: s,
                    num_vertices: self.num_vertices(),
                });
            }
        }
        Ok(())
    }

    fn submit_inner(
        &self,
        walk: Walk,
        starts: &[VertexId],
        seed: Option<u64>,
        notify: Option<Notify>,
    ) -> Result<WalkTicket> {
        self.check_submission(&walk, starts)?;
        if self.max_inbox > 0 {
            // Admission control: reject the whole submission up front when
            // any target shard cannot absorb its share. The check is a
            // racy snapshot — concurrent submitters can overshoot by one
            // batch — but a bound enforced at admission keeps inboxes from
            // growing without limit under sustained overload.
            let mut planned = vec![0usize; self.num_shards()];
            for &s in starts {
                planned[self.shared.partitioner.owner(s)] += 1;
            }
            // A shard share larger than the bound can never be admitted, no
            // matter how the queues drain — report that first (and as
            // non-retryable) even when an earlier shard is merely
            // backlogged, so callers don't burn a retry budget on a batch
            // that must be split instead.
            if let Some(shard) = planned.iter().position(|&extra| extra > self.max_inbox) {
                return Err(self.reject_saturated(shard, self.queued(shard), false));
            }
            for (shard, &extra) in planned.iter().enumerate() {
                let queued = self.queued(shard);
                if extra > 0 && queued + extra > self.max_inbox {
                    return Err(self.reject_saturated(shard, queued, true));
                }
            }
        }

        let ticket = self.open_ticket(walk.clone(), starts.len(), notify);
        let base_seed = seed.unwrap_or(self.seed);
        let telemetry = &self.shared.telemetry;
        // One stamp for the whole fanout: every walker of this submission
        // was enqueued "now" for dwell purposes, and disabled telemetry
        // pays zero clock reads (`timer()` returns `None` without one).
        let enqueued_at = telemetry.timer();
        for (index, &start) in starts.iter().enumerate() {
            let rng = Pcg64::seed_from_u64(walker_seed(base_seed, ticket, index as u64));
            let owner = self.shared.partitioner.owner(start);
            let sampled = telemetry.is_sampled(ticket, index as u64);
            if sampled {
                telemetry.trace(
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
                cursor: WalkCursor::new(walk.clone(), start),
                rng,
                hops: 0,
                context_misses: 0,
                sampled,
                sent_at: enqueued_at,
            });
            self.shared.push_walker(owner, walker);
        }
        if let Some(started) = enqueued_at {
            self.submit_ns.record_duration(started.elapsed());
        }
        Ok(WalkTicket(ticket))
    }

    /// Messages queued on `shard`'s inbox right now (clamped at 0).
    fn queued(&self, shard: usize) -> usize {
        self.shared.counters[shard].queue_depth().max(0) as usize
    }

    /// Count and record one admission rejection at `shard` — the one
    /// `SaturatedBounce` flight event a bounce produces, whichever layer
    /// submitted — and build its error.
    fn reject_saturated(&self, shard: usize, queued: usize, retryable: bool) -> ServiceError {
        self.shared.counters[shard].saturated_rejections.inc();
        self.shared
            .telemetry
            .flight()
            .record(FlightEventKind::SaturatedBounce {
                shard: shard as u64,
                depth: queued as u64,
            });
        ServiceError::Saturated {
            shard,
            queued,
            capacity: self.max_inbox,
            retryable,
        }
    }

    /// Allocate a ticket id and open its entry of `walks` empty slots.
    fn open_ticket(&self, walk: Walk, walks: usize, notify: Option<Notify>) -> u64 {
        // relaxed-ok: ticket-id allocator; RMW atomicity alone guarantees
        // unique ids, and the ticket is published via the pending mutex.
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.shared.collector.open(ticket, walk, walks, notify);
        ticket
    }

    /// Submit one walker per vertex (the paper's default configuration).
    ///
    /// On a zero-vertex graph "one walker per vertex" is a perfectly valid
    /// request for nothing: it returns an immediately-complete ticket whose
    /// results hold no walks, rather than an [`ServiceError::EmptySubmission`]
    /// error (which is reserved for explicitly empty start lists).
    pub fn submit_all_vertices(&self, walk: impl Into<Walk>) -> Result<WalkTicket> {
        if self.num_vertices() == 0 {
            return Ok(WalkTicket(self.open_ticket(walk.into(), 0, None)));
        }
        let starts: Vec<VertexId> = (0..self.num_vertices() as VertexId).collect();
        self.submit(walk, &starts)
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
            queue_depths: (0..self.num_shards()).map(|s| self.queued(s)).collect(),
            max_inbox: self.max_inbox,
            saturated_rejections: self
                .shared
                .counters
                .iter()
                .map(|c| c.saturated_rejections.get())
                .sum(),
        }
    }

    /// Snapshot of per-shard throughput/occupancy counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            per_shard: self
                .shared
                .counters
                .iter()
                .enumerate()
                .map(|(i, c)| c.snapshot(i, self.owned_counts[i]))
                .collect(),
            uptime: self.started_at.elapsed(),
        }
    }

    /// Block until every shard has applied all updates up to and including
    /// `receipt`'s epoch, i.e. the ingested events are visible to every new
    /// walk step. Parks on `service.progress` until the shards get there.
    /// An epoch past the last flush waits for the flushes there are.
    pub fn sync(&self, receipt: IngestReceipt) {
        // Read under `service.router`, released before `service.progress`.
        let epoch = receipt.epoch.min(self.router.flushes());
        let reached = || {
            self.shared
                .counters
                .iter()
                .all(|c| c.epoch.get_acquire() >= epoch)
        };
        let mut progress = self.shared.progress.lock();
        while !reached() {
            progress = self.shared.progress_cv.wait(progress);
        }
    }

    /// Stop all shard tasks and return the final statistics. Outstanding
    /// tickets should be waited on first: walkers still queued or in
    /// flight when a shard stops are dropped.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop_workers();
        self.stats()
    }

    fn stop_workers(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.push_shutdown();
        let n = self.shared.shards.len();
        // Park until every shard task has terminated. The pool workers are
        // daemon threads shared across services, so there is no JoinHandle
        // to join — termination is a counted condvar.
        let mut done = self.shared.progress.lock();
        while *done < n {
            done = self.shared.progress_cv.wait(done);
        }
    }
}

impl ServiceShared {
    /// Wake everything parked on `service.progress`, counting one more
    /// terminated shard if `terminated`. Called with no other lock held.
    pub(crate) fn note_progress(&self, terminated: bool) {
        *self.progress.lock() += usize::from(terminated);
        self.progress_cv.notify_all();
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
