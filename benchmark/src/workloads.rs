//! The four workloads: what each feeds the program, how a pass over one
//! is set up, driven, checked, and reduced to metrics.
//!
//! The harness touches the program only through public calls:
//! `DynamicGraph::insert_edge`, `BingoEngine::{build, apply_batch}`,
//! `WalkEngine::run`, `WalkService::{build_with_telemetry, submit, wait,
//! ingest, sync, stats}`, `Gateway::{new, submit, wait, stats}`.

use crate::alloc;
use crate::inputs::{GraphShape, Inputs, UpdateMix, UpdateStream};
use crate::load::{
    self, applications, check_paths, Clock, DriverShape, Frontend, GatewayFront, LoadLog,
    ServiceFront, Summary, TicketRec, UpdateRec, Window, TENANTS,
};
use crate::stats;
use crate::Metrics;
use bingo_core::{BingoConfig, BingoEngine};
use bingo_gateway::{AimdConfig, Gateway, GatewayConfig, GatewayStats};
use bingo_graph::{Bias, VertexId};
use bingo_sampling::stats::{chi_square, chi_square_critical_999};
use bingo_service::{PartitionStrategy, ServiceConfig, ServiceStats, TransportMode, WalkService};
use bingo_telemetry::{names, RegistrySnapshot, Telemetry};
use bingo_walks::{DeepWalkConfig, Node2VecConfig, WalkEngine, WalkSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineBatch,
    ServiceDeepwalk,
    ServiceNode2vecWire,
    GatewaySmallTickets,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EngineBatch,
        Workload::ServiceDeepwalk,
        Workload::ServiceNode2vecWire,
        Workload::GatewaySmallTickets,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineBatch => "engine_batch",
            Workload::ServiceDeepwalk => "service_deepwalk",
            Workload::ServiceNode2vecWire => "service_node2vec_wire",
            Workload::GatewaySmallTickets => "gateway_small_tickets",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec(self, quick: bool) -> Spec {
        // Full-size graphs put set-up at about one second and peak memory
        // below 1 GiB on every workload (the bare engine builds faster
        // than a service, so its graph is the denser one); quick mode
        // shrinks them 16-fold and keeps every code path.
        let lj = |pairs_per_vertex| GraphShape::LiveJournal {
            log2_vertices: if quick { 14 } else { 18 },
            pairs_per_vertex,
        };
        match self {
            // The batched-update regime on the bare engine: no service,
            // no gateway, no transport. One round is a 2 500-event
            // `apply_batch` followed by 32 DeepWalk(80) tickets. (Sizes
            // here and below are set so a 0.9 s segment holds three to
            // four times the 100 tickets, and a run twice the 100 batches,
            // that the figures reduced from them need.)
            Workload::EngineBatch => Spec {
                shape: lj(10),
                walk: WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 80 }),
                walk_len: 80,
                starts_per_ticket: 64,
                mix: UpdateMix {
                    batch_events: 2_500,
                    toward_hubs: false,
                    bias_rewrites: true,
                },
                period_ms: 0,
                transport: TransportMode::InProcess,
                through_gateway: false,
                lanes: 1,
                in_flight_per_lane: 1,
            },
            // Flat degrees and four shards: about three steps in four
            // cross a shard boundary, so inbox, forwarding, stealing and
            // collection carry the cost.
            Workload::ServiceDeepwalk => Spec {
                shape: GraphShape::Amazon {
                    vertices: if quick { 25_000 } else { 400_000 },
                },
                walk: WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 80 }),
                walk_len: 80,
                starts_per_ticket: 32,
                mix: UpdateMix {
                    batch_events: 1_000,
                    toward_hubs: false,
                    bias_rewrites: true,
                },
                period_ms: 50,
                transport: TransportMode::InProcess,
                through_gateway: false,
                lanes: 1,
                in_flight_per_lane: 8,
            },
            // Second-order walks over the serialized transport on a skewed
            // graph: context capture, snapshot caches, handle negotiation
            // and wire encode/decode, under structural churn at the hubs.
            Workload::ServiceNode2vecWire => Spec {
                shape: lj(9),
                walk: WalkSpec::Node2Vec(Node2VecConfig {
                    walk_length: 40,
                    p: 0.5,
                    q: 2.0,
                }),
                walk_len: 40,
                starts_per_ticket: 16,
                mix: UpdateMix {
                    batch_events: 1_000,
                    toward_hubs: true,
                    bias_rewrites: false,
                },
                period_ms: 100,
                transport: TransportMode::Serialized,
                through_gateway: false,
                lanes: 1,
                in_flight_per_lane: 8,
            },
            // Many tiny tickets from two tenants beside a fast trickle of
            // small batches: per-ticket fixed costs and the streaming
            // update path, with per-step work barely mattering.
            Workload::GatewaySmallTickets => Spec {
                shape: lj(9),
                walk: WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 10 }),
                walk_len: 10,
                starts_per_ticket: 16,
                mix: UpdateMix {
                    batch_events: 64,
                    toward_hubs: false,
                    bias_rewrites: true,
                },
                // The update path is busy about a quarter of the time at
                // this period; closer to saturation an open loop's latency
                // measures the backlog, not the program.
                period_ms: 25,
                transport: TransportMode::InProcess,
                through_gateway: true,
                lanes: TENANTS.len(),
                in_flight_per_lane: 32,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Spec {
    shape: GraphShape,
    walk: WalkSpec,
    walk_len: usize,
    starts_per_ticket: usize,
    mix: UpdateMix,
    /// Update period of the paced updater; 0 for `engine_batch`, whose one
    /// thread alternates batches and tickets itself.
    period_ms: u64,
    transport: TransportMode,
    through_gateway: bool,
    /// Closed-loop depth: `lanes × in_flight_per_lane` tickets outstanding
    /// (one lane per gateway tenant).
    lanes: usize,
    in_flight_per_lane: usize,
}

impl Spec {
    fn driver(&self) -> DriverShape {
        DriverShape {
            walk_len: self.walk_len,
            lanes: self.lanes,
            in_flight_per_lane: self.in_flight_per_lane,
        }
    }
}

/// `engine_batch`: tickets per update batch.
const TICKETS_PER_ROUND: usize = 32;
/// `engine_batch`: every 64th walk of a round's first ticket has each hop
/// checked against the engine's adjacency.
const HOP_CHECK_STRIDE: usize = 64;
/// Shards of every service the benchmark builds.
const SHARDS: usize = 4;
/// First-step samples drawn at the probe vertex after a pass.
const PROBE_SAMPLES: usize = 20_000;

/// What the figures reduced from a full-length pass rest on: three
/// segments in four hold at least this many tickets each (so the median of
/// the per-segment p95s is taken among well-filled segments, whatever a
/// stall of the host did to the rest), and the window holds at least this
/// many update batches (the update median).
const MIN_TICKETS_PER_SEGMENT: f64 = 100.0;
const MIN_BATCHES: f64 = 100.0;

/// How long one pass warms up and measures.
#[derive(Debug, Clone, Copy)]
struct PassPlan {
    warmup_s: f64,
    measure_s: f64,
    segments: usize,
    /// Fail the pass when it falls short of [`MIN_TICKETS_PER_SEGMENT`] or
    /// [`MIN_BATCHES`]. Off for the short quick and traced passes.
    floors: bool,
}

impl PassPlan {
    /// The pass both kinds of run time with everything switched off:
    /// `seconds` over 20 segments after a discarded warm-up.
    fn untraced(seconds: f64, quick: bool) -> PassPlan {
        PassPlan {
            warmup_s: if quick { 0.3 } else { 1.5 },
            measure_s: seconds,
            segments: if quick { 4 } else { 20 },
            floors: !quick,
        }
    }

    fn window(&self) -> Window {
        Window {
            start_ns: (self.warmup_s * 1e9) as u64,
            segment_ns: (self.measure_s * 1e9 / self.segments as f64) as u64,
            segments: self.segments,
        }
    }
}

/// Wall-clock parts of one set-up, edge list to ready-to-serve.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    graph_s: f64,
    engine_s: f64,
    service_s: f64,
    total_s: f64,
}

/// Everything one pass produced.
struct Pass {
    summary: Summary,
    log: LoadLog,
    setup: SetupTimes,
    /// Wall-clock length of the load phase.
    wall_s: f64,
    correct: bool,
    service: Option<ServiceStats>,
    gateway: Option<GatewayStats>,
    registry: Option<RegistrySnapshot>,
    trace_events_dropped: u64,
    /// Heap allocations (traced passes only) and worker-pool traffic
    /// during the load phase.
    allocs: alloc::AllocCounts,
    pool: rayon::PoolProfile,
    /// `engine_batch` only: exact rebuild and conversion counts of the
    /// first measured batch, per event.
    first_batch: Option<[f64; 3]>,
}

/// Exact first-step check at the probe vertex: pool neighbours whose
/// expected count is below five, then chi-square the rest. The threshold
/// is 1.5 × the 99.9 % critical value — far beyond chance for a correct
/// sampler (so a run never fails by luck), far below what a wrong
/// distribution produces at this sample size.
fn probe_is_exact(edges: &[(VertexId, Bias)], first_steps: &[VertexId]) -> Result<(), String> {
    let mut weight: BTreeMap<VertexId, f64> = BTreeMap::new();
    for &(dst, bias) in edges {
        *weight.entry(dst).or_insert(0.0) += bias.value();
    }
    let total: f64 = weight.values().sum();
    let samples = first_steps.len() as f64;
    let mut cell_of: BTreeMap<VertexId, usize> = BTreeMap::new();
    let mut probs = vec![0.0];
    for (&dst, &w) in &weight {
        let p = w / total;
        if p * samples < 5.0 {
            probs[0] += p;
            cell_of.insert(dst, 0);
        } else {
            cell_of.insert(dst, probs.len());
            probs.push(p);
        }
    }
    let mut observed = vec![0usize; probs.len()];
    for step in first_steps {
        match cell_of.get(step) {
            Some(&cell) => observed[cell] += 1,
            None => return Err(format!("probe stepped to {step}, which is not a neighbour")),
        }
    }
    if probs[0] == 0.0 {
        probs.remove(0);
        observed.remove(0);
    }
    if probs.len() < 2 {
        return Ok(());
    }
    let stat = chi_square(&observed, &probs);
    let limit = 1.5 * chi_square_critical_999(probs.len() - 1);
    if stat < limit {
        Ok(())
    } else {
        Err(format!(
            "probe first-step chi-square {stat:.1} over limit {limit:.1} ({} cells)",
            probs.len()
        ))
    }
}

/// End-of-pass checks. Each one made is an attempted operation and each
/// one that does not hold a failed operation, so a broken engine shows in
/// the failed share as well as in `correct`.
#[derive(Debug, Default)]
struct Checks {
    made: u64,
    problems: Vec<String>,
}

impl Checks {
    fn require(&mut self, outcome: Result<(), String>) {
        self.made += 1;
        self.problems.extend(outcome.err());
    }

    fn holds(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.require(if ok { Ok(()) } else { Err(problem()) });
    }
}

type Paths = Vec<Vec<VertexId>>;

fn first_steps(paths: &[Vec<VertexId>]) -> Result<Vec<VertexId>, String> {
    paths
        .iter()
        .map(|p| {
            p.get(1)
                .copied()
                .ok_or("probe walk took no step".to_string())
        })
        .collect()
}

// ---------------------------------------------------------------------
// engine_batch
// ---------------------------------------------------------------------

fn setup_engine(inputs: &Inputs, spec: &Spec) -> (BingoEngine, SetupTimes) {
    let t0 = Instant::now();
    let graph = inputs.build_graph();
    let graph_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let engine = BingoEngine::build(&graph, BingoConfig::default()).expect("engine builds");
    let engine_s = t1.elapsed().as_secs_f64();
    drop(graph);
    // Warm-up: first use spins up the worker pool.
    WalkEngine::new(0).run(&engine, &spec.walk, inputs.starts(0));
    let times = SetupTimes {
        graph_s,
        engine_s,
        service_s: 0.0,
        total_s: t0.elapsed().as_secs_f64(),
    };
    (engine, times)
}

fn rebuild_counts(engine: &BingoEngine) -> [u64; 3] {
    let (mut inter, mut full) = (0, 0);
    for v in 0..engine.num_vertices() as VertexId {
        let space = engine.vertex_space(v).expect("vertex in range");
        inter += space.inter_rebuilds();
        full += space.full_rebuilds();
    }
    [inter, full, engine.conversion_matrix().total_conversions()]
}

fn engine_pass(
    inputs: &Inputs,
    spec: &Spec,
    seed: u64,
    plan: PassPlan,
    traced: bool,
    mut engine: BingoEngine,
    setup: SetupTimes,
) -> Pass {
    let mut stream = UpdateStream::new(inputs, spec.mix, seed);
    let window = plan.window();
    let mut log = LoadLog::new(traced);
    let mut first_batch = None;
    let mut number = 0usize;
    let clock = Clock::start();
    while clock.now_ns() < window.end_ns() {
        let batch = stream.next_batch();
        let probing = traced && first_batch.is_none() && clock.now_ns() >= window.start_ns;
        let before = probing.then(|| rebuild_counts(&engine));
        let expected = applications(&batch);
        log.attempted += 1;
        log.applications_expected += expected;
        let start_ns = clock.now_ns();
        let outcome = engine.apply_batch(&batch);
        let visible_ns = clock.now_ns();
        let round = log.updates.len() as u64;
        let span = log.spans.push("update", start_ns, visible_ns, None, round);
        log.spans
            .push("core.apply_batch", start_ns, visible_ns, span, round);
        if (outcome.inserted + outcome.deleted) as u64 != expected || outcome.missing_deletes != 0 {
            log.fail(format!("batch not fully applied: {outcome:?}"));
        }
        if let Some(before) = before {
            let after = rebuild_counts(&engine);
            first_batch =
                Some([0, 1, 2].map(|i| (after[i] - before[i]) as f64 / batch.len() as f64));
        }
        log.updates.push(UpdateRec {
            due_ns: start_ns,
            start_ns,
            visible_ns,
            events: batch.len() as u32,
        });
        for i in 0..TICKETS_PER_ROUND {
            let starts = inputs.starts(number);
            log.attempted += 1;
            log.walks_submitted += starts.len() as u64;
            let submit_ns = clock.now_ns();
            let results = WalkEngine::new(seed ^ number as u64).run(&engine, &spec.walk, starts);
            let done_ns = clock.now_ns();
            let span = log
                .spans
                .push("ticket", submit_ns, done_ns, None, number as u64);
            log.spans
                .push("walks.run", submit_ns, done_ns, span, number as u64);
            number += 1;
            match check_paths(&results.paths, starts, spec.walk_len, inputs.num_vertices) {
                Ok(steps) => {
                    log.walks_returned += starts.len() as u64;
                    log.tickets.push(TicketRec {
                        submit_ns,
                        done_ns,
                        steps,
                    });
                }
                Err(e) => log.fail(e),
            }
            if i == 0 {
                for path in results.paths.iter().step_by(HOP_CHECK_STRIDE) {
                    if let Some(hop) = path.windows(2).find(|h| !engine.has_edge(h[0], h[1])) {
                        log.fail(format!("sampled hop {}->{} is not an edge", hop[0], hop[1]));
                    }
                }
            }
        }
    }
    let wall_s = clock.now_ns() as f64 / 1e9;

    let mut checks = Checks::default();
    checks.require(
        engine
            .check_invariants()
            .map_err(|e| format!("engine invariants: {e}")),
    );
    let probe_walk = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 1 });
    let probes =
        WalkEngine::new(seed).run(&engine, &probe_walk, &vec![inputs.probe; PROBE_SAMPLES]);
    checks
        .require(first_steps(&probes.paths).and_then(|s| probe_is_exact(stream.probe_edges(), &s)));
    checks.holds(engine.num_edges() == stream.live_edges(), || {
        format!(
            "engine holds {} edges, the stream's mirror {}",
            engine.num_edges(),
            stream.live_edges()
        )
    });
    finish(plan, log, checks, setup, wall_s, first_batch)
}

// ---------------------------------------------------------------------
// service and gateway workloads
// ---------------------------------------------------------------------

struct Stack {
    service: Arc<WalkService>,
    gateway: Option<Gateway>,
    telemetry: Telemetry,
}

/// Edge list to ready-to-serve: the graph, the service (and the gateway
/// over it), one warm-up ticket.
fn setup_stack(
    inputs: &Inputs,
    spec: &Spec,
    seed: u64,
    telemetry: Telemetry,
) -> (Stack, SetupTimes) {
    let t0 = Instant::now();
    let graph = inputs.build_graph();
    let graph_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let config = ServiceConfig {
        num_shards: SHARDS,
        seed,
        partition: PartitionStrategy::DegreeBalanced,
        transport: spec.transport,
        // Direct submission is never refused (unbounded inboxes); behind
        // the gateway the bound is what its AIMD window steers by.
        max_inbox: if spec.through_gateway { 512 } else { 0 },
        ..ServiceConfig::default()
    };
    let service = Arc::new(
        WalkService::build_with_telemetry(&graph, config, telemetry.clone())
            .expect("service builds"),
    );
    drop(graph);
    let gateway = spec.through_gateway.then(|| {
        Gateway::new(
            Arc::clone(&service),
            GatewayConfig {
                chunk_walkers: 32,
                quantum_walkers: 32,
                window: AimdConfig {
                    initial: 256,
                    min: 32,
                    max: 2048,
                    ..AimdConfig::default()
                },
                ..GatewayConfig::default()
            },
        )
    });
    let service_s = t1.elapsed().as_secs_f64();
    // Warm-up: one ticket end to end, so lazily started workers exist.
    let warm = service
        .submit(spec.walk, inputs.starts(0))
        .expect("warm-up ticket admitted");
    service.wait(warm);
    let times = SetupTimes {
        graph_s,
        engine_s: 0.0,
        service_s,
        total_s: t0.elapsed().as_secs_f64(),
    };
    let stack = Stack {
        service,
        gateway,
        telemetry,
    };
    (stack, times)
}

fn service_pass(
    inputs: &Inputs,
    spec: &Spec,
    seed: u64,
    plan: PassPlan,
    traced: bool,
    stack: Stack,
    setup: SetupTimes,
) -> Pass {
    let mut stream = UpdateStream::new(inputs, spec.mix, seed);
    let window = plan.window();
    let service = &*stack.service;
    let clock = Clock::start();
    let stop_ns = window.end_ns();
    let log = std::thread::scope(|scope| {
        let updater = scope.spawn(|| {
            load::pace_updates(
                service,
                &mut stream,
                spec.period_ms * 1_000_000,
                &clock,
                stop_ns,
                traced,
            )
        });
        let mut log = match &stack.gateway {
            Some(gateway) => load::drive(
                &GatewayFront {
                    gateway,
                    spec: spec.walk,
                },
                inputs,
                spec.driver(),
                &clock,
                stop_ns,
                traced,
            ),
            None => load::drive(
                &ServiceFront {
                    service,
                    spec: spec.walk,
                },
                inputs,
                spec.driver(),
                &clock,
                stop_ns,
                traced,
            ),
        };
        log.absorb(updater.join().expect("updater thread panicked"));
        log
    });
    let wall_s = clock.now_ns() as f64 / 1e9;

    // Quiescent now: every ticket waited for, every batch synced.
    let mut checks = Checks::default();
    let stats = service.stats();
    checks.holds(
        stats.total_updates_applied() == log.applications_expected,
        || {
            format!(
                "{} update applications, {} expected",
                stats.total_updates_applied(),
                log.applications_expected
            )
        },
    );
    let walks_expected = log.walks_submitted + spec.starts_per_ticket as u64; // + the warm-up ticket
    checks.holds(stats.total_walks_completed() == walks_expected, || {
        format!(
            "{} walks completed in the service, {walks_expected} submitted",
            stats.total_walks_completed()
        )
    });
    checks.holds(stats.total_context_misses() == 0, || {
        format!(
            "{} second-order queries answered without carried context",
            stats.total_context_misses()
        )
    });
    if spec.transport == TransportMode::Serialized {
        let (sent, recv) = (
            stats.total_transport_bytes_sent(),
            stats.total_transport_bytes_recv(),
        );
        checks.holds(sent != 0 && sent == recv, || {
            format!("transport sent {sent} bytes, received {recv}")
        });
    }
    let gateway_stats = stack.gateway.as_ref().map(Gateway::stats);
    // The probe enters where the workload's tickets do: behind the gateway
    // a 20 000-walk ticket is chunked, straight at a bounded inbox it
    // would be refused.
    fn one_ticket<F: Frontend>(front: &F, starts: &[VertexId]) -> Result<Paths, String> {
        front.submit(0, starts).and_then(|t| front.wait(t))
    }
    let spec_1 = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 1 });
    let probe_starts = vec![inputs.probe; PROBE_SAMPLES];
    let probes = match &stack.gateway {
        Some(gateway) => one_ticket(
            &GatewayFront {
                gateway,
                spec: spec_1,
            },
            &probe_starts,
        ),
        None => one_ticket(
            &ServiceFront {
                service,
                spec: spec_1,
            },
            &probe_starts,
        ),
    };
    checks.require(
        probes
            .and_then(|p| first_steps(&p))
            .and_then(|s| probe_is_exact(stream.probe_edges(), &s)),
    );

    let registry = stack
        .telemetry
        .is_detailed()
        .then(|| stack.telemetry.snapshot());
    let trace_events_dropped = stack.telemetry.tracer().map_or(0, |t| t.dropped());
    drop(stack);

    let mut pass = finish(plan, log, checks, setup, wall_s, None);
    pass.service = Some(stats);
    pass.gateway = gateway_stats;
    pass.registry = registry;
    pass.trace_events_dropped = trace_events_dropped;
    pass
}

fn finish(
    plan: PassPlan,
    mut log: LoadLog,
    mut checks: Checks,
    setup: SetupTimes,
    wall_s: f64,
    first_batch: Option<[f64; 3]>,
) -> Pass {
    let summary = load::summarize(&plan.window(), &log.tickets, &log.updates);
    checks.holds(log.walks_returned == log.walks_submitted, || {
        format!(
            "{} walks returned, {} submitted",
            log.walks_returned, log.walks_submitted
        )
    });
    // A p95 over a handful of tickets or a median over a handful of
    // batches is not the metric its name says: too little measured is a
    // failed run, not a noisy one.
    let (min_tickets, min_batches) = if plan.floors {
        (MIN_TICKETS_PER_SEGMENT, MIN_BATCHES)
    } else {
        (1.0, 1.0)
    };
    checks.holds(summary.p25_tickets_per_segment >= min_tickets, || {
        format!(
            "the quarter-emptiest segment completed {} tickets, {min_tickets} needed",
            summary.p25_tickets_per_segment
        )
    });
    checks.holds(summary.measured_batches >= min_batches, || {
        format!(
            "{} update batches in the window, {min_batches} needed",
            summary.measured_batches
        )
    });
    log.attempted += checks.made;
    log.failed += checks.problems.len() as u64;
    let correct = log.failed == 0;
    for p in checks.problems.iter().chain(&log.problems) {
        eprintln!("check failed: {p}");
    }
    Pass {
        summary,
        log,
        setup,
        wall_s,
        correct,
        service: None,
        gateway: None,
        registry: None,
        trace_events_dropped: 0,
        allocs: alloc::AllocCounts::default(),
        pool: rayon::PoolProfile::default(),
        first_batch,
    }
}

/// One ready-to-serve instance of what a workload runs against.
enum Served {
    Engine(BingoEngine),
    Stack(Stack),
}

fn setup(
    workload: Workload,
    inputs: &Inputs,
    spec: &Spec,
    seed: u64,
    traced: bool,
) -> (Served, SetupTimes) {
    if workload == Workload::EngineBatch {
        let (engine, times) = setup_engine(inputs, spec);
        (Served::Engine(engine), times)
    } else {
        let telemetry = if traced {
            Telemetry::enabled(seed)
        } else {
            Telemetry::disabled()
        };
        let (stack, times) = setup_stack(inputs, spec, seed, telemetry);
        (Served::Stack(stack), times)
    }
}

/// Set up once and run one pass on the result.
fn run_pass(
    workload: Workload,
    inputs: &Inputs,
    spec: &Spec,
    seed: u64,
    plan: PassPlan,
    traced: bool,
) -> Pass {
    let (served, times) = setup(workload, inputs, spec, seed, traced);
    // Counted from here, so set-up's allocations and pool traffic are not
    // billed to walk steps.
    rayon::reset_pool_profile();
    let allocs_before = alloc::counts();
    alloc::set_counting(traced);
    let mut pass = match served {
        Served::Engine(engine) => engine_pass(inputs, spec, seed, plan, traced, engine, times),
        Served::Stack(stack) => service_pass(inputs, spec, seed, plan, traced, stack, times),
    };
    alloc::set_counting(false);
    pass.allocs = alloc::counts().since(allocs_before);
    pass.pool = rayon::pool_profile();
    pass
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a run hands back to `main`.
pub struct RunOutcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Set-ups timed per run; the median is reported.
pub const SETUP_REPS: usize = 5;

/// One set-up from scratch, torn down again: what `setup_s` times. Run in
/// a process of its own, so the allocator starts as empty as it does for
/// a user — repeated builds in one process fragment the heap until a
/// set-up takes two to three times as long.
pub fn setup_once(workload: Workload, seed: u64, quick: bool) -> f64 {
    let spec = workload.spec(quick);
    let inputs = Inputs::generate(spec.shape, spec.starts_per_ticket, seed);
    setup(workload, &inputs, &spec, seed, false).1.total_s
}

/// Set up and run the untraced pass both kinds of run start with, and say
/// on standard error what it measured.
fn untraced_pass(
    workload: Workload,
    inputs: &Inputs,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> Pass {
    let plan = PassPlan::untraced(seconds, quick);
    let pass = run_pass(workload, inputs, spec, seed, plan, false);
    let s = pass.summary;
    eprintln!(
        "untraced pass: {:.0} steps/s (segment cv {:.1}%), ticket p50 {:.3} ms p95 {:.3} ms, \
         {:.0} update events/s, visible p50 {:.3} ms; {} tickets in the emptiest segment ({} in the quarter-emptiest), \
         {} batches, generator late p95 {:.3} ms",
        s.steps_per_s,
        s.segment_cv_pct,
        s.ticket_p50_ms,
        s.ticket_p95_ms,
        s.update_events_per_s,
        s.update_visible_p50_ms,
        s.min_tickets_per_segment,
        s.p25_tickets_per_segment,
        s.measured_batches,
        s.update_gen_late_p95_ms
    );
    pass
}

/// The timed run: one set-up and one untraced pass of `seconds`. `setup_s`
/// is the median of this process's set-up and the `more_setups` the caller
/// measured in fresh processes of their own; `peak_rss_mb` is read after
/// exactly one set-up and one pass.
pub fn run_timed(
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    more_setups: &[f64],
) -> RunOutcome {
    let spec = workload.spec(quick);
    let inputs = Inputs::generate(spec.shape, spec.starts_per_ticket, seed);
    let pass = untraced_pass(workload, &inputs, &spec, seed, seconds, quick);
    let peak_rss_mb = peak_rss_mib();
    let mut setup_s = vec![pass.setup.total_s];
    setup_s.extend_from_slice(more_setups);
    eprintln!("set-ups {setup_s:?} s, peak rss {peak_rss_mb:.1} MiB");
    let mut metrics = Metrics::new();
    metrics.put("setup_s", stats::median(&setup_s));
    metrics.put("peak_rss_mb", peak_rss_mb);
    RunOutcome {
        correct: pass.correct,
        attempted: pass.log.attempted,
        failed: pass.log.failed,
        metrics,
    }
}

/// The traced run: the same untraced pass as the timed run (the source of
/// the timing figures that are reported but gate nothing), then the traced
/// pass (harness spans on, program telemetry on, allocations counted) whose
/// spans go to `trace_path`. Returns the in-situ per-layer metrics; the
/// micro passes and the ladder are added by the caller.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    trace_path: &std::path::Path,
) -> RunOutcome {
    let spec = workload.spec(quick);
    let inputs = Inputs::generate(spec.shape, spec.starts_per_ticket, seed);
    let reference = untraced_pass(workload, &inputs, &spec, seed, seconds, quick);

    let traced_plan = PassPlan {
        warmup_s: if quick { 0.2 } else { 1.0 },
        measure_s: seconds * 0.5,
        segments: if quick { 4 } else { 10 },
        floors: false,
    };
    // The pool's clocks are off by default; the service switches them on
    // with detailed telemetry, the bare engine never would.
    rayon::set_pool_profiling(true);
    let pass = run_pass(workload, &inputs, &spec, seed, traced_plan, true);
    let (allocs, pool) = (pass.allocs, pass.pool);
    if let Err(e) = pass.log.spans.write_jsonl(trace_path) {
        eprintln!("cannot write {}: {e}", trace_path.display());
    }

    let (s, r) = (pass.summary, reference.summary);
    let spans = &pass.log.spans;
    let share = |part: &str, whole: &str| match spans.total_ns(whole) {
        0 => 0.0,
        whole_ns => 100.0 * spans.total_ns(part) as f64 / whole_ns as f64,
    };
    let all_steps: f64 = pass.log.tickets.iter().map(|t| f64::from(t.steps)).sum();
    let per_step = |x: u64| {
        if all_steps > 0.0 {
            x as f64 / all_steps
        } else {
            0.0
        }
    };
    let all_events: f64 = pass.log.updates.iter().map(|u| f64::from(u.events)).sum();

    let mut m = Metrics::new();
    m.put("graph.build_from_edges_s", pass.setup.graph_s);
    m.put("core.engine.build_s", pass.setup.engine_s);
    m.put("service.build_s", pass.setup.service_s);
    m.put(
        "walks.engine.step_ns",
        per_step(spans.total_ns("walks.run")),
    );
    let [inter, full, conversions] = pass.first_batch.unwrap_or_default();
    m.put(
        "core.engine.apply_batch_ns_per_event",
        if all_events > 0.0 {
            spans.total_ns("core.apply_batch") as f64 / all_events
        } else {
            0.0
        },
    );
    m.put("core.engine.inter_rebuilds_per_event", inter);
    m.put("core.engine.full_rebuilds_per_event", full);
    m.put("core.engine.conversions_per_event", conversions);

    // The program's own cell, so submissions the gateway's dispatcher makes
    // count too.
    m.put(
        "service.submit_ns",
        pass.registry.as_ref().map_or(0.0, |r| {
            r.histogram_across_labels(names::SERVICE_SUBMIT_NS).mean()
        }),
    );
    m.put(
        "service.ingest_ns_per_event",
        if all_events > 0.0 {
            spans.total_ns("service.ingest") as f64 / all_events
        } else {
            0.0
        },
    );
    m.put("service.sync_ns", spans.mean_ns("service.sync"));
    let hist_p50 = |name: &str| {
        pass.registry.as_ref().map_or(0.0, |r| {
            r.histogram_across_labels(name).quantile(0.5) as f64
        })
    };
    m.put(
        "service.collect_p50_ns",
        hist_p50(names::SERVICE_COLLECT_NS),
    );
    m.put(
        "service.inbox_dwell_p50_ns",
        hist_p50(names::SERVICE_SHARD_INBOX_DWELL_NS),
    );
    m.put(
        "service.step_batch_p50_ns",
        hist_p50(names::SERVICE_SHARD_STEP_BATCH_NS),
    );
    m.put(
        "service.forward_hop_p50_ns",
        hist_p50(names::SERVICE_FORWARD_HOP_NS),
    );
    m.put(
        "service.update_apply_p50_ns",
        hist_p50(names::SERVICE_SHARD_UPDATE_APPLY_NS),
    );
    let st = pass.service.clone().unwrap_or_default();
    let forwards = st.total_forwards();
    let per_forward = |x: u64| {
        if forwards > 0 {
            x as f64 / forwards as f64
        } else {
            0.0
        }
    };
    let received: u64 = st.per_shard.iter().map(|s| s.walkers_received).sum();
    m.put("service.forward_ratio", st.forward_ratio());
    m.put(
        "service.stolen_walker_share",
        if received > 0 {
            st.total_stolen_walkers() as f64 / received as f64
        } else {
            0.0
        },
    );
    m.put(
        "service.hottest_step_share_pct",
        100.0 * st.hottest_step_share(),
    );
    m.put("service.mean_utilization", st.mean_utilization());
    m.put(
        "service.queue_high_water",
        st.per_shard
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    m.put(
        "service.context.cache_hit_rate",
        st.context_cache_hit_rate(),
    );
    m.put("service.context.handle_hit_rate", st.handle_hit_rate());
    m.put(
        "service.context.bytes_per_forward",
        per_forward(st.total_context_bytes()),
    );
    m.put("service.context.misses", st.total_context_misses() as f64);
    m.put(
        "service.transport.bytes_per_forward",
        per_forward(st.total_transport_bytes_sent()),
    );
    m.put(
        "service.saturated_rejections",
        st.total_saturated_rejections() as f64,
    );

    let gw = pass.gateway.clone().unwrap_or_default();
    let worst_wait = |pick: fn(&bingo_gateway::TenantStatsSnapshot) -> std::time::Duration| {
        gw.per_tenant
            .iter()
            .map(|t| pick(t).as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    };
    m.put("gateway.submit_ns", spans.mean_ns("gateway.submit"));
    m.put("gateway.queue_wait_p50_ms", worst_wait(|t| t.wait_p50));
    m.put("gateway.queue_wait_p99_ms", worst_wait(|t| t.wait_p99));
    m.put(
        "gateway.dispatch_p50_ns",
        hist_p50(names::GATEWAY_DISPATCH_NS),
    );
    m.put("gateway.window_min", gw.window_min_seen as f64);
    m.put("gateway.window_max", gw.window_max_seen as f64);
    m.put(
        "gateway.saturated_requeues",
        gw.per_tenant
            .iter()
            .map(|t| t.saturated_requeues)
            .sum::<u64>() as f64,
    );
    m.put(
        "gateway.heavy_step_share_pct",
        100.0 * gw.completed_step_share(&bingo_gateway::TenantId::new(TENANTS[0].0)),
    );
    m.put(
        "gateway.rejected_overloaded",
        gw.per_tenant
            .iter()
            .map(|t| t.rejected_overloaded)
            .sum::<u64>() as f64,
    );

    let threads = rayon::current_num_threads();
    m.put("runtime.pool.threads", threads as f64);
    m.put(
        "runtime.pool.park_ratio",
        (pool.park_ns as f64 / (pass.wall_s * 1e9 * SHARDS.max(threads) as f64)).min(1.0),
    );
    m.put("runtime.pool.steals", pool.steals as f64);
    m.put(
        "telemetry.trace_events_dropped",
        pass.trace_events_dropped as f64,
    );

    m.put("alloc.count_per_step", per_step(allocs.allocations));
    m.put("alloc.bytes_per_step", per_step(allocs.bytes));
    m.put("harness.steps_per_ticket", s.steps_per_ticket);
    m.put(
        "harness.trace_overhead_pct",
        if r.steps_per_s > 0.0 {
            100.0 * (1.0 - s.steps_per_s / r.steps_per_s)
        } else {
            0.0
        },
    );
    let submit_span = if spec.through_gateway {
        "gateway.submit"
    } else if workload == Workload::EngineBatch {
        "walks.run"
    } else {
        "service.submit"
    };
    m.put(
        "harness.span.submit_share_pct",
        share(submit_span, "ticket"),
    );
    let ingest_span = if workload == Workload::EngineBatch {
        "core.apply_batch"
    } else {
        "service.ingest"
    };
    m.put(
        "harness.span.ingest_share_pct",
        share(ingest_span, "update"),
    );
    // What a user of the system sees, timed with everything switched off.
    // On a shared box these do not repeat within any bound worth gating
    // on (`NOISE.md`), so they are reported here and gate nothing.
    m.put("harness.steps_per_s", r.steps_per_s);
    m.put("harness.ticket_p50_ms", r.ticket_p50_ms);
    m.put("harness.ticket_p95_ms", r.ticket_p95_ms);
    m.put("harness.ticket_p99_ms", r.ticket_p99_ms);
    m.put("harness.ticket_max_ms", r.ticket_max_ms);
    m.put("harness.update_events_per_s", r.update_events_per_s);
    m.put("harness.update_visible_p50_ms", r.update_visible_p50_ms);
    m.put("harness.update_visible_p95_ms", r.update_visible_p95_ms);
    m.put("harness.update_gen_late_p95_ms", r.update_gen_late_p95_ms);
    m.put("harness.segment_cv_pct", r.segment_cv_pct);
    m.put("harness.min_tickets_per_segment", r.min_tickets_per_segment);
    m.put("harness.measured_batches", r.measured_batches);

    RunOutcome {
        correct: pass.correct && reference.correct,
        attempted: pass.log.attempted + reference.log.attempted,
        failed: pass.log.failed + reference.log.failed,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_check_accepts_the_exact_distribution_and_rejects_a_skewed_one() {
        let edges: Vec<(VertexId, Bias)> =
            (0..8).map(|d| (d, Bias::from_int(1 + d as u64))).collect();
        let total: u64 = (1..=8).sum();
        // Deterministic "samples": exactly proportional counts.
        let mut exact = Vec::new();
        let mut skewed = Vec::new();
        for &(dst, bias) in &edges {
            let n = (bias.value() as u64 * 3_600 / total) as usize;
            exact.extend(std::iter::repeat_n(dst, n));
            skewed.extend(std::iter::repeat_n(dst, 450));
        }
        assert!(probe_is_exact(&edges, &exact).is_ok());
        assert!(probe_is_exact(&edges, &skewed).is_err());
        assert!(probe_is_exact(&edges, &[99]).is_err(), "not a neighbour");
    }

    #[test]
    fn a_failed_end_of_pass_check_and_a_thin_window_fail_the_pass() {
        let plan = |floors| PassPlan {
            warmup_s: 0.0,
            measure_s: 2e-6,
            segments: 2,
            floors,
        };
        // Two tickets in each 1 µs segment, one batch in the window.
        let log = || {
            let mut log = LoadLog::new(false);
            for done_ns in [100, 200, 1_100, 1_200] {
                log.tickets.push(TicketRec {
                    submit_ns: 0,
                    done_ns,
                    steps: 10,
                });
            }
            log.updates.push(UpdateRec {
                due_ns: 10,
                start_ns: 10,
                visible_ns: 20,
                events: 5,
            });
            log.attempted = 5;
            log
        };
        let finish = |floors, checks| {
            finish(
                plan(floors),
                log(),
                checks,
                SetupTimes::default(),
                1.0,
                None,
            )
        };

        let good = finish(false, Checks::default());
        assert!(good.correct);
        assert_eq!((good.log.attempted, good.log.failed), (5 + 3, 0));

        let mut checks = Checks::default();
        checks.holds(true, || unreachable!());
        checks.require(Err("engine invariants: broken".to_string()));
        let broken = finish(false, checks);
        assert!(!broken.correct);
        assert_eq!((broken.log.attempted, broken.log.failed), (5 + 5, 1));

        // The same window is too thin for a full-length pass: 2 tickets a
        // segment and 1 batch where 100 of each are needed.
        let thin = finish(true, Checks::default());
        assert!(!thin.correct);
        assert_eq!(thin.log.failed, 2);
    }

    #[test]
    fn a_seed_fixes_every_workloads_inputs() {
        for w in Workload::ALL {
            let spec = w.spec(true);
            let a = Inputs::generate(spec.shape, spec.starts_per_ticket, 9);
            let b = Inputs::generate(spec.shape, spec.starts_per_ticket, 9);
            assert!(a == b, "{}: graph edges and start sets repeat", w.name());
            let mut sa = UpdateStream::new(&a, spec.mix, 9);
            let mut sb = UpdateStream::new(&b, spec.mix, 9);
            for _ in 0..4 {
                assert!(
                    sa.next_batch() == sb.next_batch(),
                    "{}: update stream repeats",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
