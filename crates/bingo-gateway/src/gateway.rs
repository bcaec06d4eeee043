//! The gateway proper: bounded per-tenant queues, the dispatcher thread
//! that runs DRR + AIMD, and the submission/collection API.

use crate::sched::{Chunk, DrrScheduler};
use crate::stats::{percentile_sorted, GatewayStats, TenantAccum, TenantStatsSnapshot};
use crate::window::{AimdConfig, AimdWindow, WindowEvent};
use bingo_graph::VertexId;
use bingo_service::{ServiceError, TenantId, TicketResults, WalkRequest, WalkService, WalkTicket};
use bingo_telemetry::{names, FlightEventKind, Histogram, Telemetry, TraceStage};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors produced by the gateway.
#[derive(Debug, Clone, PartialEq)]
pub enum GatewayError {
    /// The tenant's gateway queue is at its configured depth bound
    /// ([`GatewayConfig::max_queue_per_tenant`]): the submission was
    /// refused so one runaway tenant cannot consume unbounded gateway
    /// memory. Nothing already queued was dropped.
    Overloaded {
        /// The tenant whose queue is full.
        tenant: TenantId,
        /// Walkers queued for that tenant at rejection time.
        queued: usize,
        /// The configured per-tenant bound (walkers).
        capacity: usize,
    },
    /// The request failed [`WalkService::check_submission`] at submit
    /// (empty start set, vertex out of range, a node2vec `p` or `q` the
    /// service refuses) and nothing was queued — or a chunk hit a
    /// non-retryable rejection at dispatch time.
    Rejected(ServiceError),
    /// The gateway is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Overloaded {
                tenant,
                queued,
                capacity,
            } => write!(
                f,
                "tenant {tenant} queue overloaded ({queued} walkers queued, bound {capacity})"
            ),
            GatewayError::Rejected(e) => write!(f, "rejected by the walk service: {e}"),
            GatewayError::ShuttingDown => write!(f, "gateway is shutting down"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<ServiceError> for GatewayError {
    fn from(e: ServiceError) -> Self {
        GatewayError::Rejected(e)
    }
}

/// Configuration of a [`Gateway`].
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Maximum walkers per dispatched chunk: a submission goes out as
    /// consecutive slices of its start list of at most this many walkers.
    /// Clamped to the service's `max_inbox` (when bounded): a shard's share
    /// of a chunk is then at most the bound, so the chunk always fits
    /// empty inboxes — a larger share would be rejected as non-retryable.
    pub chunk_walkers: usize,
    /// DRR deficit earned per weight unit per round, in walkers. Values
    /// near `chunk_walkers` give the tightest weighted interleaving.
    pub quantum_walkers: usize,
    /// Bound on walkers queued per tenant; submissions beyond it are
    /// refused with [`GatewayError::Overloaded`].
    pub max_queue_per_tenant: usize,
    /// Bounds of the in-flight walker window.
    pub window: AimdConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            chunk_walkers: 32,
            quantum_walkers: 32,
            max_queue_per_tenant: 1 << 20,
            window: AimdConfig::default(),
        }
    }
}

/// Retry backoff for the one wait no notification ends: work is queued and
/// nothing of the gateway's is in flight, because another submitter's
/// walkers bounced the head chunk or the window is below it. A constant,
/// not a knob: no workload here sets another.
const TICK: Duration = Duration::from_micros(500);

/// Handle for retrieving one gateway submission's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GatewayTicket(u64);

impl GatewayTicket {
    /// The ticket's numeric id.
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// Results of one gateway submission, reassembled from its chunks.
#[derive(Debug, Clone)]
pub struct GatewayResults {
    /// The ticket these results answer.
    pub ticket: GatewayTicket,
    /// Tenant the submission was billed to.
    pub tenant: TenantId,
    /// One path per submitted start vertex, in submission order.
    pub paths: Vec<Vec<VertexId>>,
}

impl GatewayResults {
    /// Total steps across all walks.
    pub fn total_steps(&self) -> usize {
        self.paths.iter().map(|p| p.len().saturating_sub(1)).sum()
    }
}

/// One gateway submission being assembled from chunk completions.
struct Submission {
    tenant: TenantId,
    /// One path per original start, filled as chunks complete (empty
    /// until then).
    paths: Vec<Vec<VertexId>>,
    /// Walks not yet accounted (completed or failed).
    remaining: usize,
    /// Terminal failure, if any chunk was rejected non-retryably.
    error: Option<GatewayError>,
}

/// Everything guarded by the gateway's state mutex.
struct State {
    sched: DrrScheduler,
    submissions: HashMap<u64, Submission>,
    tenants: HashMap<TenantId, TenantAccum>,
    next_submission: u64,
    window_now: usize,
    window_min_seen: usize,
    window_max_seen: usize,
    /// Walkers dispatched to the service and not yet absorbed.
    in_flight_walkers: usize,
    /// Tickets the completion notifier reported, not yet absorbed.
    completed: Vec<WalkTicket>,
    shutdown: bool,
}

/// What the gateway handle, the dispatcher and the completion notifier
/// share. The service is not in it: the notifier lives in the service's
/// ticket table, so holding the service here would make a cycle.
struct Inner {
    config: GatewayConfig,
    /// `chunk_walkers` clamped to the service inbox bound.
    chunk_cap: usize,
    state: Mutex<State>,
    /// Wakes the dispatcher on completions, submissions and shutdown.
    work_cv: Condvar,
    /// Wakes submission waiters on completions.
    done_cv: Condvar,
    started_at: Instant,
    /// The service's observability handle, so gateway and service
    /// metrics/traces land in one registry.
    telemetry: Telemetry,
    /// This gateway's `gateway` instance label on that registry.
    instance: String,
    /// `gateway.dispatch_ns`: one service-submit call at dispatch.
    dispatch_ns: Histogram,
}

/// The per-tenant accumulator. [`Gateway::submit`] registers it before it
/// bills or queues anything to the tenant.
fn tenant_accum<'a>(state: &'a mut State, tenant: &TenantId) -> &'a mut TenantAccum {
    state
        .tenants
        .get_mut(tenant)
        .expect("`submit` registers a tenant before billing it")
}

/// The multi-tenant admission gateway in front of a [`WalkService`]. See
/// the crate-level documentation for the design tour.
pub struct Gateway {
    inner: Arc<Inner>,
    service: Arc<WalkService>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Build a gateway over `service` and spawn its dispatcher thread.
    ///
    /// The gateway inherits the service's [`Telemetry`] handle, so its
    /// per-tenant metrics, dispatch latencies and `GatewayDispatch` trace
    /// spans land in the same registry and trace ring as the service's —
    /// one `/metrics` scrape or `/trace` read shows the whole stack. Its
    /// metrics carry a `gateway="<n>"` instance label, so two gateways over
    /// one service keep their own counts.
    pub fn new(service: Arc<WalkService>, config: GatewayConfig) -> Gateway {
        let telemetry = service.telemetry().clone();
        let instance = telemetry.registry().instance("gateway");
        let max_inbox = service.max_inbox();
        let chunk_cap = if max_inbox > 0 {
            config.chunk_walkers.clamp(1, max_inbox)
        } else {
            config.chunk_walkers.max(1)
        };
        let window = AimdWindow::new(config.window);
        let inner = Arc::new(Inner {
            config,
            chunk_cap,
            state: Mutex::new_named(
                State {
                    sched: DrrScheduler::new(config.quantum_walkers.max(1)),
                    submissions: HashMap::new(),
                    tenants: HashMap::new(),
                    next_submission: 1,
                    window_now: window.window(),
                    window_min_seen: window.window(),
                    window_max_seen: window.window(),
                    in_flight_walkers: 0,
                    completed: Vec::new(),
                    shutdown: false,
                },
                "gateway.state",
            ),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            // lint:allow(determinism): uptime epoch for stats/telemetry
            // only; never feeds walk output.
            started_at: Instant::now(),
            dispatch_ns: telemetry
                .histogram_with(names::GATEWAY_DISPATCH_NS, &[("gateway", &instance)]),
            telemetry,
            instance,
        });
        let dispatcher = {
            let (inner, service) = (inner.clone(), service.clone());
            std::thread::Builder::new()
                .name("bingo-gateway-dispatch".into())
                .spawn(move || run_dispatcher(inner, service, window))
                .expect("spawn gateway dispatcher")
        };
        Gateway {
            inner,
            service,
            dispatcher: Some(dispatcher),
        }
    }

    /// The fronted walk service.
    pub fn service(&self) -> &WalkService {
        &self.service
    }

    /// Configure `tenant`'s scheduling weight ahead of its submissions
    /// (`0` is read as `1`). Submissions carrying an explicit
    /// [`WalkRequest::weight`] update it too (most recent explicit setting
    /// wins); submissions without one inherit it.
    pub fn set_tenant_weight(&self, tenant: impl Into<TenantId>, weight: u32) {
        self.inner
            .state
            .lock()
            .sched
            .set_weight(&tenant.into(), weight);
    }

    /// Queue a request for dispatch, billed to the request's tenant
    /// ([`WalkRequest::tenant`], default tenant when unset).
    ///
    /// Unlike submitting straight to the service, a request that would
    /// saturate a shard inbox is *parked*, not rejected: it waits in its
    /// tenant's queue until the dispatcher can admit its chunks within
    /// the fairness and backpressure budgets. Only a request the service
    /// would refuse ([`GatewayError::Rejected`]) or a tenant exceeding its
    /// own queue bound ([`GatewayError::Overloaded`]) is refused.
    pub fn submit(&self, request: WalkRequest) -> Result<GatewayTicket, GatewayError> {
        let WalkRequest {
            walk,
            starts,
            seed,
            tenant,
            weight,
        } = request;
        // One walk per vertex of an empty graph is a request for nothing,
        // as `WalkService::submit_all_vertices` has it: a submission with
        // no chunks that `wait` returns at once. Only an explicitly empty
        // start list is an `EmptySubmission`.
        let num_vertices = self.service.num_vertices();
        let explicit = starts.is_some();
        let starts = starts.unwrap_or_else(|| (0..num_vertices as VertexId).collect());
        if explicit || num_vertices > 0 {
            self.service.check_submission(&walk, &starts)?;
        }

        let mut state = self.inner.state.lock();
        if !state.tenants.contains_key(&tenant) {
            // First sight: register its counters with the state unlocked,
            // so no registry lock nests under it.
            drop(state);
            let mut accum =
                TenantAccum::register(&self.inner.telemetry, &self.inner.instance, &tenant);
            state = self.inner.state.lock();
            accum.index = state.tenants.len() as u32;
            state.tenants.entry(tenant.clone()).or_insert(accum);
        }
        if state.shutdown {
            return Err(GatewayError::ShuttingDown);
        }
        let queued = state.sched.queued_walkers(&tenant);
        let capacity = self.inner.config.max_queue_per_tenant;
        if queued + starts.len() > capacity {
            tenant_accum(&mut state, &tenant).rejected_overloaded.inc();
            return Err(GatewayError::Overloaded {
                tenant,
                queued,
                capacity,
            });
        }
        // An explicit per-request weight updates the tenant's share; a
        // request without one inherits whatever is configured (via
        // `set_tenant_weight` or an earlier weighted request) instead of
        // resetting it to the default.
        if let Some(weight) = weight {
            state.sched.set_weight(&tenant, weight);
        }

        let id = state.next_submission;
        state.next_submission += 1;
        state.submissions.insert(
            id,
            Submission {
                tenant: tenant.clone(),
                paths: vec![Vec::new(); starts.len()],
                remaining: starts.len(),
                error: None,
            },
        );
        // lint:allow(determinism): queue-wait timestamp feeding the
        // tenant wait histogram (telemetry); walks never observe it.
        let now = Instant::now();
        let cap = self.inner.chunk_cap;
        for (i, part) in starts.chunks(cap).enumerate() {
            state.sched.enqueue(Chunk {
                tenant: tenant.clone(),
                submission: id,
                walk: walk.clone(),
                starts: part.to_vec(),
                first: i * cap,
                seed,
                enqueued_at: now,
            });
        }
        let new_depth = state.sched.queued_walkers(&tenant);
        let accum = tenant_accum(&mut state, &tenant);
        accum.submitted_walks.add(starts.len() as u64);
        accum
            .peak_queued_walkers
            .raise(i64::try_from(new_depth).unwrap_or(i64::MAX));
        drop(state);
        self.inner.work_cv.notify_all();
        Ok(GatewayTicket(id))
    }

    /// Block until every walk of `ticket` completed (or its submission
    /// failed terminally) and return the assembled results.
    pub fn wait(&self, ticket: GatewayTicket) -> Result<GatewayResults, GatewayError> {
        let mut state = self.inner.state.lock();
        let sub = loop {
            match state.submissions.get(&ticket.0) {
                Some(sub) if sub.remaining == 0 => break state.submissions.remove(&ticket.0),
                Some(_) => state = self.inner.done_cv.wait(state),
                None => panic!("unknown or already-collected gateway ticket"),
            }
        };
        drop(state);
        let sub = sub.expect("checked present");
        match sub.error {
            Some(err) => Err(err),
            None => Ok(GatewayResults {
                ticket,
                tenant: sub.tenant,
                paths: sub.paths,
            }),
        }
    }

    /// Point-in-time gateway statistics.
    pub fn stats(&self) -> GatewayStats {
        // Copy the raw material out under the lock; the O(n log n)
        // percentile work happens after releasing it, so pollers sampling
        // stats in a tight loop don't serialize the dispatcher (which
        // needs this mutex for every dispatch and absorb).
        let (mut rows, mut stats) = {
            let state = self.inner.state.lock();
            let rows: Vec<(TenantStatsSnapshot, Vec<u64>)> = state
                .tenants
                .iter()
                .map(|(tenant, accum)| {
                    (
                        TenantStatsSnapshot {
                            tenant: tenant.clone(),
                            index: accum.index,
                            weight: state.sched.weight(tenant),
                            queued_walkers: state.sched.queued_walkers(tenant),
                            peak_queued_walkers: accum.peak_queued_walkers.get().max(0) as usize,
                            submitted_walks: accum.submitted_walks.get(),
                            dispatched_chunks: accum.dispatched_chunks.get(),
                            completed_walks: accum.completed_walks.get(),
                            completed_steps: accum.completed_steps.get(),
                            rejected_overloaded: accum.rejected_overloaded.get(),
                            saturated_requeues: accum.saturated_requeues.get(),
                            failed_walks: accum.failed_walks.get(),
                            wait_p50: Duration::ZERO,
                            wait_p99: Duration::ZERO,
                            wait_max: Duration::ZERO,
                        },
                        accum.wait_us.clone(),
                    )
                })
                .collect();
            let stats = GatewayStats {
                per_tenant: Vec::new(),
                window: state.window_now,
                window_min_seen: state.window_min_seen,
                window_max_seen: state.window_max_seen,
                in_flight_walkers: state.in_flight_walkers,
                uptime: self.inner.started_at.elapsed(),
            };
            (rows, stats)
        };
        for (snapshot, waits) in &mut rows {
            waits.sort_unstable();
            snapshot.wait_p50 = percentile_sorted(waits, 0.50);
            snapshot.wait_p99 = percentile_sorted(waits, 0.99);
            snapshot.wait_max = percentile_sorted(waits, 1.0);
        }
        stats.per_tenant = rows.into_iter().map(|(snapshot, _)| snapshot).collect();
        stats.per_tenant.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        stats
    }

    /// Age of the oldest chunk still waiting in a tenant queue, `None`
    /// when every queue is empty. The observability plane's stall
    /// watchdog uses this to spot a gateway whose backlog sits still
    /// (e.g. a wedged service keeping the window shut).
    pub fn oldest_queued_age(&self) -> Option<Duration> {
        let oldest = {
            let state = self.inner.state.lock();
            state.sched.oldest_enqueued_at()
        };
        oldest.map(|at| at.elapsed())
    }

    /// Drain every queued and in-flight chunk, stop the dispatcher, and
    /// return the final statistics. New submissions are refused from the
    /// moment this is called.
    pub fn shutdown(mut self) -> GatewayStats {
        self.stop();
        self.stats()
    }

    /// Refuse new work, then join the dispatcher once it has drained.
    fn stop(&mut self) {
        self.inner.state.lock().shutdown = true;
        self.inner.work_cv.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The dispatcher loop: absorb the chunks the service reported complete,
/// step the AIMD controller, dispatch under DRR within the window, park
/// until a completion, a submission or shutdown wakes it. Gateway and
/// service locks never nest: the service is called with `gateway.state`
/// released, and the notifier runs under no service lock.
fn run_dispatcher(inner: Arc<Inner>, service: Arc<WalkService>, mut window: AimdWindow) {
    let notify: Arc<dyn Fn(WalkTicket) + Send + Sync> = {
        let inner = Arc::clone(&inner);
        Arc::new(move |ticket| {
            let mut state = inner.state.lock();
            state.completed.push(ticket);
            // The dispatcher parks only with the list empty, so the first
            // push is the one that must wake it.
            if state.completed.len() == 1 {
                drop(state);
                inner.work_cv.notify_all();
            }
        })
    };
    // Each dispatched chunk, keyed by its service ticket.
    let mut in_flight: HashMap<WalkTicket, Chunk> = HashMap::new();
    let (mut completed, mut absorbed) = (Vec::new(), Vec::new());
    let mut window_limited = false;
    let mut state = inner.state.lock();
    loop {
        // Take exactly the notified chunks' results, with the lock
        // released, then step the controller on the service's occupancy
        // hook.
        std::mem::swap(&mut completed, &mut state.completed);
        drop(state);
        absorbed.extend(completed.drain(..).map(|ticket| {
            let chunk = in_flight.remove(&ticket).expect("a dispatched chunk");
            let results = service.try_wait(ticket);
            (chunk, results.expect("a notified ticket is complete"))
        }));
        let snapshot = service.admission_snapshot();
        let event = window.on_tick(
            snapshot.peak_occupancy(),
            snapshot.saturated_rejections,
            window_limited,
        );
        state = inner.state.lock();
        record_window(&inner, &mut state, &window, event);
        for (chunk, results) in absorbed.drain(..) {
            state.in_flight_walkers -= chunk.cost();
            settle(&inner, &mut state, chunk, Ok(results));
        }

        // Dispatch within the window, fairness order decided by the DRR
        // scheduler: pop a chunk under the lock, submit it without, and
        // account the outcome under the lock again.
        window_limited = false;
        loop {
            let budget = window.window().saturating_sub(state.in_flight_walkers);
            let next = (budget > 0).then(|| state.sched.next(budget)).flatten();
            let Some(chunk) = next else {
                // Queue non-empty but nothing fit the remaining budget:
                // the window, not the queues, is the limiter.
                window_limited = !state.sched.is_empty();
                break;
            };
            let tenant_index = tenant_accum(&mut state, &chunk.tenant).index;
            drop(state);
            let dispatch_started = inner.telemetry.timer();
            let submitted = service.submit_notify(
                chunk.walk.clone(),
                &chunk.starts,
                chunk.seed,
                Arc::clone(&notify),
            );
            let wait = chunk.enqueued_at.elapsed();
            if let Ok(ticket) = &submitted {
                if let Some(started) = dispatch_started {
                    inner.dispatch_ns.record_duration(started.elapsed());
                }
                // Stitch dispatch spans into the sampled lifecycles, keyed
                // as the service keyed their Submit spans.
                if inner.telemetry.tracer().is_some() {
                    let stage = TraceStage::GatewayDispatch {
                        tenant: tenant_index,
                        wait_ns: u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
                        gateway_ticket: chunk.submission,
                    };
                    for idx in 0..chunk.starts.len() as u32 {
                        if inner.telemetry.is_sampled(ticket.id(), idx.into()) {
                            inner.telemetry.trace(ticket.id(), idx, stage);
                        }
                    }
                }
            }
            state = inner.state.lock();
            match submitted {
                Ok(ticket) => {
                    state.in_flight_walkers += chunk.cost();
                    let accum = tenant_accum(&mut state, &chunk.tenant);
                    accum.dispatched_chunks.inc();
                    accum.record_wait(wait);
                    in_flight.insert(ticket, chunk);
                }
                Err(err) if err.is_retryable() => {
                    // The target inbox is full right now (the service
                    // recorded the bounce): park the chunk back at its
                    // queue front (nothing dropped, deficit refunded) and
                    // halve the window — we pushed too hard.
                    tenant_accum(&mut state, &chunk.tenant)
                        .saturated_requeues
                        .inc();
                    state.sched.requeue_front(chunk);
                    let ev = window.on_saturated();
                    record_window(&inner, &mut state, &window, ev);
                    break;
                }
                Err(err) => settle(&inner, &mut state, chunk, Err(err)),
            }
        }

        // Exit, go round again, or park.
        if state.shutdown && state.sched.is_empty() && in_flight.is_empty() {
            break;
        }
        if !state.completed.is_empty() {
            continue;
        }
        if in_flight.is_empty() && !state.sched.is_empty() {
            // Queued work and nothing of ours in flight: no completion
            // will come to wake us, so retry after a tick.
            state = inner.work_cv.wait_timeout(state, TICK).0;
        } else {
            // A completion, a submission or shutdown wakes us.
            state = inner.work_cv.wait(state);
        }
    }
}

/// Settle a chunk on its tenant and submission: a completed chunk's paths,
/// or the error of one the service refused for good, for the waiter.
fn settle(
    inner: &Inner,
    state: &mut State,
    chunk: Chunk,
    outcome: Result<TicketResults, ServiceError>,
) {
    let accum = tenant_accum(state, &chunk.tenant);
    match &outcome {
        Ok(results) => {
            accum.completed_walks.add(results.paths.len() as u64);
            accum.completed_steps.add(results.total_steps() as u64);
        }
        Err(_) => accum.failed_walks.add(chunk.cost() as u64),
    }
    if let Some(sub) = state.submissions.get_mut(&chunk.submission) {
        match outcome {
            Ok(results) => {
                let slots = &mut sub.paths[chunk.first..chunk.first + chunk.cost()];
                for (slot, path) in slots.iter_mut().zip(results.paths) {
                    *slot = path;
                }
            }
            Err(err) => _ = sub.error.get_or_insert(GatewayError::Rejected(err)),
        }
        sub.remaining = sub.remaining.saturating_sub(chunk.cost());
        if sub.remaining == 0 {
            inner.done_cv.notify_all();
        }
    }
}

/// Publish the controller's window into the shared state and record every
/// move in the flight recorder.
fn record_window(inner: &Inner, state: &mut State, window: &AimdWindow, event: WindowEvent) {
    let w = window.window();
    state.window_now = w;
    state.window_min_seen = state.window_min_seen.min(w);
    state.window_max_seen = state.window_max_seen.max(w);
    if event != WindowEvent::Hold {
        inner
            .telemetry
            .flight()
            .record(FlightEventKind::WindowChange { window: w as u64 });
    }
}
