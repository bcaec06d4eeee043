//! # bingo-service
//!
//! A **vertex-sharded, multi-threaded walk service** over the Bingo engine:
//! the subsystem that serves concurrent random-walk traffic while graph
//! updates stream in — the serving-layer counterpart of the paper's
//! single-engine benchmarks, in the spirit of Wharf's
//! walks-under-streaming-updates setting.
//!
//! ## Architecture
//!
//! * The vertex space is split into `S` contiguous shards
//!   (`bingo_core::partition::Partitioner` — uniform or degree-balanced);
//!   each shard owns a [`bingo_core::BingoEngine`] built over its range,
//!   all of them in one pass of the pool by
//!   [`bingo_core::BingoEngine::build_ranges`]. Shards are **resumable
//!   tasks on the process-wide worker pool** (the `rayon` shim's
//!   persistent parked workers), not dedicated threads, and a shard task
//!   on its way to idle (woken for it when a peer's backlog grows) steals
//!   forwarded-walker batches from a hot shard's inbox — stealing happens at the queue, never at the engine,
//!   which stays shard-owned behind a read/write lock (see the [`shard`]
//!   module docs).
//! * An **update router** splits each ingested
//!   [`UpdateBatch`](bingo_graph::UpdateBatch) by owning shard
//!   (`UpdateBatch::split_by_owner`) and flushes it at once as one
//!   **epoch**: every shard queues its slice beside its walkers, applies it
//!   at its next activation ahead of them, and bumps its generation counter
//!   once the slice is fully applied — see [Consistency](#consistency).
//! * The **walk scheduler** fans submitted walks out to the shards owning
//!   their start vertices as resumable
//!   [`WalkCursor`](bingo_walks::WalkCursor)s. A step whose destination
//!   belongs to another shard re-enqueues the walker at that shard
//!   (walker forwarding, §9.1 of the paper). A submission names a
//!   [`Walk`](bingo_walks::Walk): a built-in
//!   [`WalkSpec`](bingo_walks::WalkSpec) or any custom
//!   [`WalkModel`](bingo_walks::WalkModel) trait object
//!   ([`WalkService::submit`]). Second-order walks (node2vec) are
//!   served too: a forwarding shard attaches the model-declared context —
//!   a membership snapshot of the walker's previous vertex — so the
//!   receiving shard answers membership queries without cross-shard edge
//!   lookups. Snapshots are exact and cheap: a snapshot is a
//!   copy-on-write handle on the owner's `VertexSpace` (two reference
//!   counts, no copy of the adjacency; membership is one probe of the
//!   vertex's edge index), while its wire body is still the sorted
//!   distinct neighbor ids, built when a body ships (see
//!   `bingo_walks::model` for the wire format). The owning shard's
//!   snapshot map holds it, so a `(vertex, epoch)` is captured at most
//!   once, and what a serialized forward ships is **negotiated** on that
//!   same entry, which records the shards already sent its body: a
//!   `(vertex, epoch)` the receiver already holds goes as a true 16-byte
//!   handle ([`CONTEXT_HANDLE_BYTES`]), a miss ships the body and records
//!   the receiver. A batch releases the map's handles on the vertices it
//!   writes before writing them, so the map never pins an old version: a
//!   batch evicts exactly the vertices it writes, holder bits and all,
//!   whatever the event kind, the next forward captures them afresh, and
//!   everything else stays warm. A snapshot still carried by a walker in
//!   flight is frozen into its sorted ids on release, so the walker
//!   answers as at capture and the write happens in place. A missing
//!   capture is **not** silently
//!   served as "no edge": the fallback is counted per shard
//!   (`context_misses`) and asserted on in debug builds. A finished walk
//!   is filed under its ticket by the shard task that finished it; a
//!   ticket's walks can be deposited into a
//!   [`WalkStore`](bingo_walks::walk_store::WalkStore).
//! * The **distribution boundary is pluggable** (see the [`transport`]
//!   and [`forward`] modules and the workspace README's *Distribution
//!   readiness* section): [`TransportMode::Serialized`] round-trips every
//!   forwarded walker through the versioned wire format of
//!   `bingo_walks::wire` — negotiate, encode the frame and the walk it
//!   runs, carry via a [`ShardTransport`], decode, rebuild from the bytes
//!   alone — and bills
//!   the bytes of the frames it built, so the same forwarding path works
//!   across process boundaries ([`WalkService::build_with_transport`];
//!   proven by `examples/two_process_demo.rs` over a loopback
//!   `TcpStream`). The default [`TransportMode::InProcess`] moves the
//!   boxed walker with its captured context: it frames, negotiates
//!   and bills nothing, so every handle and `*bytes*` counter reads 0.
//!   Walk output is bit-identical in both modes, and a frame that fails
//!   to arrive intact degrades that one forward to the in-process walker,
//!   counted as `service.transport.fallbacks`.
//! * Per-shard throughput, occupancy, epoch, and forwarded-context
//!   counters (raw vs materialized bytes, snapshot cache hits/misses,
//!   capture faults) are exposed as [`ServiceStats`]; admission control is
//!   available via [`ServiceConfig::max_inbox`], with a rejected
//!   submission carrying retryable metadata
//!   ([`ServiceError::Saturated`]) and the occupancy sampling hook
//!   [`WalkService::admission_snapshot`] feeding adaptive controllers.
//!
//! ## Serving stack: where the gateway wires in
//!
//! Under real multi-tenant traffic the service is fronted by
//! `bingo-gateway`, which turns the binary admit/reject decision of
//! `max_inbox` into queueing, per-tenant fairness and adaptive
//! backpressure:
//!
//! ```text
//!   tenant A ──┐  WalkRequest(.tenant("A").weight(3))
//!   tenant B ──┤
//!   tenant C ──┘       │
//!                ┌─────▼──────────────────────────────┐
//!                │ bingo-gateway                      │
//!                │  per-tenant FIFO queues (bounded:  │
//!                │  GatewayError::Overloaded past the │
//!                │  depth cap)                        │
//!                │  deficit-round-robin dispatcher    │
//!                │  AIMD in-flight window ◄───────────┼── admission_snapshot()
//!                └─────┬──────────────────▲───────────┘    (occupancy +
//!                      │ chunks,          │ completion      rejection deltas,
//!                      │ submit_notify()  │ notifier        sampled per wake-up)
//!                      │                  │ (ticket only)
//!                ┌─────▼──────────────────┴───────────┐
//!                │ WalkService                        │
//!                │  shard inboxes (max_inbox bound)   │
//!                │  shard tasks + BingoEngines on the │
//!                │  shared persistent worker pool     │
//!                └────────────────────────────────────┘
//! ```
//!
//! Direct [`WalkService::submit`] use stays fully supported — the gateway
//! is an optional front-end for workloads where submitters must not
//! starve each other; both take walks in and hand `wait(ticket).paths`
//! back. Both layers record into one
//! shared telemetry handle — see [Observability](#observability) below.
//!
//! ## Observability
//!
//! The whole serving stack records into a single
//! [`Telemetry`](bingo_telemetry::Telemetry) handle
//! ([`WalkService::build_with_telemetry`]; the gateway clones the
//! service's handle via [`WalkService::telemetry`], so gateway and shard
//! spans share one registry and one trace ring, which records without a
//! lock).
//!
//! **Metric taxonomy.** Names are stable, dot-separated
//! `layer.scope.metric` constants in [`bingo_telemetry::names`]
//! (`service.shard.*`, `service.context.*`, `gateway.tenant.*`, `pool.*`);
//! per-instance dimensions ride in labels, and they include the instance:
//! every metric a service registers carries `service="<n>"` and every one
//! a gateway registers `gateway="<n>"`, numbered per registry from `"0"`,
//! so two services (or gateways) on one handle never share a series;
//! shard index and tenant come after it. Only the process-wide `pool.*`
//! counters are unlabeled. Counters
//! and gauges are **always live** — [`ServiceStats`] and the gateway's
//! stats are views over the registry's atomics, costing exactly what raw
//! atomics cost — while duration histograms (log2-bucketed, nanoseconds,
//! `*_ns`) only exist in detailed mode. The thread-pool shim's profile
//! (calls, chunks, busy/idle nanos) is mirrored into the registry by
//! [`record_pool_profile`].
//!
//! **Modes.** `Telemetry::disabled()` (what [`WalkService::build`] uses)
//! adds nothing to the hot path: no clock reads, no histogram
//! registrations, no tracer. Detailed mode (`Telemetry::enabled(seed)`,
//! or `Telemetry::from_env` keyed on `BINGO_TELEMETRY=on|off`) records
//! per-stage latency histograms: `service.submit_ns`,
//! `service.shard.step_batch_ns`, `service.shard.inbox_dwell_ns`,
//! `service.shard.update_apply_ns`, `service.forward.hop_ns`,
//! `service.collect_ns`, `service.ticket.latency_ns`, and (through the
//! gateway) `gateway.tenant.wait_ns` / `gateway.dispatch_ns`.
//!
//! **Lifecycle traces.** Detailed mode samples walkers
//! **deterministically** — a pure hash of `(seed, ticket, walker)`, so the
//! sampled set is identical across runs, thread counts and layers — and
//! records spans, without taking a lock, into a bounded lock-free ring
//! (the flight recorder's ring type, a second instance): `submit` →
//! (`dispatch` when fronted by the gateway) → per-shard `step` batches →
//! cross-shard `hop`s (with cache hit/miss and billed context bytes) →
//! `collect`. A dump line reads like
//!
//! ```text
//! t5/w24: submit(s3 v441) -> dispatch(tenant0 g1 wait=883823ns)
//!   -> step(s3 x1 @e0) -> hop(s3->s1 miss 0B) -> step(s1 x2 @e0)
//!   -> hop(s1->s0 hit 0B) -> step(s0 x1 @e0) -> hop(s0->s2 miss 0B)
//!   -> step(s2 x1 @e0) -> collect(len=6 hops=3 3384692ns)
//! ```
//!
//! — walker 24 of service ticket 5 started on shard 3 at vertex 441, was
//! dispatched by the gateway as part of gateway ticket 1 of tenant 0 (the
//! first tenant to submit; `/status` lists each tenant's `"index"`) after
//! an 884µs queue wait, took 5 steps on four shards at update epoch 0 with
//! 3 hops (one context-cache hit; in-process forwards bill no bytes), and
//! finished its 6-vertex path 3.4 ms after service ticket 5 was
//! submitted. Spans recorded by different shard tasks stitch on
//! `(ticket, walker)` — see `bingo_telemetry::Tracer::lifecycles`.
//!
//! **Exposition.** A [`ServiceStats`] snapshot has one rendering,
//! [`ServiceStats::to_json`] (every total and ratio plus one object per
//! shard), which examples print and `/status` embeds. Everything above —
//! the registry as Prometheus text, that JSON, the trace ring, the flight
//! recorder's structured runtime events (steals, saturation bounces,
//! epoch advances, shard park/unpark), and a lazy stall watchdog — is served
//! over HTTP by the `bingo-obs` crate (`/metrics`, `/status`, `/trace`,
//! `/flight`, `/healthz`), opt-in via `BINGO_OBS=host:port`. See the
//! workspace README's *Observability* section for the endpoint table and
//! flight-event taxonomy.
//!
//! ## Concurrency invariants
//!
//! The service's locking is small and ordered; `bingo-lint` enforces the
//! discipline statically and `BINGO_LOCK_CHECK=on` checks it at runtime
//! (see the workspace README's *Concurrency invariants* section):
//!
//! * Named locks, each constructed and acquired in exactly one file:
//!   `service.router` (the flush counter, `router.rs`); per shard
//!   `service.shard_inbox` and `service.shard_engine` (an `RwLock`;
//!   `shard.rs`); per shard `service.shard_ctx_cache` (the snapshot map,
//!   whose entries carry the bits of the shards holding them;
//!   `forward.rs`); `service.pending` (the ticket table and its
//!   `pending_cv` condvar, `collect.rs`); and `service.progress` (the
//!   rendezvous `sync` and shutdown park on, `service.rs`). The nested
//!   orders are **`router` → `shard_inbox`** (a flush queues its slices
//!   under the router lock, so two flushes never interleave) and
//!   **`shard_engine` → `shard_ctx_cache`** (capture and negotiation
//!   under the read guard, release under the write guard; a serialized
//!   forward's handle resolution takes the map with no other lock held)
//!   — every path agrees, so the cross-function lock-order graph stays
//!   acyclic even jointly with the pool's `rayon.*` locks.
//!   `tests/lint.rs` holds this list and these orders to the code.
//! * `service.pending` and `service.progress` nest with nothing: a shard
//!   task files a finished walk, or announces applied updates, with no
//!   other lock held, and a waiter holds either only across its own check
//!   and condvar park — no lock is ever held across a blocking call, and
//!   the tree carries no `lint:allow(lock-discipline)`. A shard task that
//!   files a ticket's last walk calls the ticket's notifier after
//!   `service.pending` drops, with no lock held.
//! * Gateway and service locks never nest, in either direction: the
//!   gateway's dispatcher calls the service with `gateway.state`
//!   released, and its notifier takes `gateway.state` under no service
//!   lock (`tests/lint.rs` checks both directions on a run).
//! * Spans recorded under these locks (a step batch under the engine read
//!   guard, a collect under `service.pending`) take no lock: the tracer's
//!   ring is lock-free, and `tests/lint.rs` fails if a checked run takes
//!   any `telemetry.*` lock under a `service.*` or `gateway.*` one.
//! * Engines stay **shard-owned** behind `service.shard_engine`: walker
//!   visits (the owner's or a thief's) sample under the read guard,
//!   update batches apply under the write guard, and the epoch counter is
//!   published inside the write guard. Forwards and completions act only
//!   *after* the engine guard drops: no lock edge ever leaves an engine
//!   toward an inbox, the pool injector, the ticket table or
//!   `service.progress`.
//! * Steals take walkers, never pending updates, from a victim's inbox,
//!   and only from a victim that has applied every batch flushed to it
//!   (a thief probes the backlogged peers deepest first, one inbox lock
//!   at a time, and passes over one with a batch pending); the inbox
//!   guard drops before the victim's engine is read — the queue is the
//!   unit of theft, never the engine.
//! * Atomics: ticket IDs are `Relaxed` RMW allocations (annotated
//!   `relaxed-ok`); per-shard stats counters are `Relaxed` (telemetry
//!   registry); the per-shard scheduling latch CASes `AcqRel` and the
//!   idle transition publishes with `Release` before its lost-wakeup
//!   recheck — nothing in this crate uses an atomic for inter-thread sync
//!   without `Acquire`/`Release`.
//!
//! ## Consistency
//!
//! What a walk step observes while updates stream in (asserted on the
//! paths tickets return by `PathChecker` in `tests/service.rs`, for
//! DeepWalk and node2vec over both transports):
//!
//! * A visit — a walker's run of consecutive steps on one shard, under one
//!   read guard — samples one epoch of that shard: the first `e` flushed
//!   slices, never part of one.
//! * On one shard, a walker's epochs never decrease.
//! * A flushed batch becomes visible at that shard's next activation,
//!   ahead of every walker still queued there.
//! * After [`WalkService::sync`] returns for a receipt, every new step sees
//!   the receipt's events.
//! * Across shards, a walker may step on a shard that has not yet applied
//!   flushes another shard already showed it; nothing bounds that lag yet.
//! * A cross-shard node2vec step reads the current vertex's weights at the
//!   receiver's epoch, and the previous vertex's membership as of the
//!   sender's epoch when it forwarded: a snapshot's presence in the
//!   sender's map means it is valid, and release runs under the sender's
//!   write guard. The two epochs may differ by as much as the cross-shard
//!   lag, which is unbounded.
//!
//! ## Quickstart
//!
//! ```
//! use bingo_service::{ServiceConfig, WalkService};
//! use bingo_graph::{Bias, DynamicGraph, UpdateBatch, UpdateEvent};
//! use bingo_walks::{DeepWalkConfig, WalkSpec};
//!
//! // A small ring graph.
//! let mut graph = DynamicGraph::new(64);
//! for v in 0..64u32 {
//!     graph.insert_edge(v, (v + 1) % 64, Bias::from_int(2)).unwrap();
//!     graph.insert_edge(v, (v + 7) % 64, Bias::from_int(1)).unwrap();
//! }
//!
//! // Serve it from 4 shards.
//! let service = WalkService::build(
//!     &graph,
//!     ServiceConfig { num_shards: 4, ..ServiceConfig::default() },
//! )
//! .unwrap();
//!
//! // Submit a batch of walks...
//! let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 10 });
//! let ticket = service.submit(spec, &[0, 13, 40, 63]).unwrap();
//!
//! // ...ingest updates while the walks run...
//! let receipt = service.ingest(&UpdateBatch::new(vec![UpdateEvent::Insert {
//!     src: 3,
//!     dst: 42,
//!     bias: Bias::from_int(9),
//! }]));
//! service.sync(receipt); // wait until visible on every shard
//!
//! // ...and collect the results.
//! let results = service.wait(ticket);
//! assert_eq!(results.paths.len(), 4);
//! assert!(results.total_steps() > 0);
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.total_steps() as usize, results.total_steps());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collect;
pub mod forward;
pub mod request;
pub mod router;
pub mod service;
pub mod shard;
pub mod stats;
pub mod transport;

pub use collect::TicketResults;
pub use forward::CONTEXT_HANDLE_BYTES;
pub use request::{TenantId, WalkRequest, DEFAULT_TENANT};
pub use router::IngestReceipt;
pub use service::{
    record_pool_profile, AdmissionSnapshot, PartitionStrategy, ServiceConfig, ServiceError,
    WalkService, WalkTicket,
};
pub use stats::{ServiceStats, ShardStatsSnapshot};
pub use transport::{LoopbackTransport, ShardTransport, TransportMode};

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_graph::{Bias, DynamicGraph, UpdateBatch, UpdateEvent};
    use bingo_walks::{DeepWalkConfig, Node2VecConfig, PprConfig, WalkSpec};
    use std::sync::Arc;

    fn ring_graph(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new(n);
        for v in 0..n as u32 {
            g.insert_edge(v, (v + 1) % n as u32, Bias::from_int(2))
                .unwrap();
            g.insert_edge(v, (v + 2) % n as u32, Bias::from_int(1))
                .unwrap();
        }
        g
    }

    fn spec(len: usize) -> WalkSpec {
        WalkSpec::DeepWalk(DeepWalkConfig { walk_length: len })
    }

    #[test]
    fn walks_complete_and_are_valid_paths() {
        let graph = ring_graph(40);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let ticket = service.submit_all_vertices(spec(12)).unwrap();
        let results = service.wait(ticket);
        assert_eq!(results.paths.len(), 40);
        for (v, path) in results.paths.iter().enumerate() {
            assert_eq!(path[0], v as u32, "walk {v} starts at its start vertex");
            assert_eq!(path.len(), 13, "ring has no dead ends");
            for pair in path.windows(2) {
                assert!(graph.has_edge(pair[0], pair[1]), "invalid step {pair:?}");
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.total_steps(), 40 * 12);
        assert_eq!(stats.total_walks_completed(), 40);
        assert!(
            stats.total_forwards() > 0,
            "ring walks must cross shard boundaries"
        );
    }

    #[test]
    fn tickets_are_collected_independently_and_in_any_order() {
        let graph = ring_graph(24);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 3,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let t1 = service.submit(spec(5), &[0, 1, 2]).unwrap();
        let t2 = service.submit(spec(7), &[10, 11]).unwrap();
        assert_ne!(t1, t2);
        let r2 = service.wait(t2);
        let r1 = service.wait(t1);
        assert_eq!(r1.paths.len(), 3);
        assert_eq!(r2.paths.len(), 2);
        assert!(r1.paths.iter().all(|p| p.len() == 6));
        assert!(r2.paths.iter().all(|p| p.len() == 8));
        assert_eq!(r2.paths[0][0], 10);
    }

    #[test]
    fn results_are_deterministic_for_a_seed_when_quiescent() {
        let graph = ring_graph(30);
        let run = |seed: u64| {
            let service = WalkService::build(
                &graph,
                ServiceConfig {
                    num_shards: 4,
                    seed,
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            let ticket = service.submit_all_vertices(spec(9)).unwrap();
            service.wait(ticket).paths
        };
        assert_eq!(run(7), run(7), "same seed, same walks");
        assert_ne!(run(7), run(8), "different seed, different walks");
    }

    #[test]
    fn updates_become_visible_to_later_walks() {
        // Vertex 0 initially has a single out-edge 0→1; after the update it
        // has only 0→2 (delete + insert): later walks must take it.
        let mut graph = DynamicGraph::new(3);
        graph.insert_edge(0, 1, Bias::from_int(1)).unwrap();
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();

        let before = service.wait(service.submit(spec(1), &[0]).unwrap());
        assert_eq!(before.paths[0], vec![0, 1]);

        let receipt = service.ingest(&UpdateBatch::new(vec![
            UpdateEvent::Delete { src: 0, dst: 1 },
            UpdateEvent::Insert {
                src: 0,
                dst: 2,
                bias: Bias::from_int(5),
            },
        ]));
        assert_eq!(receipt.epoch, 1);
        service.sync(receipt);

        let after = service.wait(service.submit(spec(1), &[0]).unwrap());
        assert_eq!(after.paths[0], vec![0, 2]);
        let stats = service.stats();
        assert!(stats.per_shard.iter().all(|s| s.epoch == 1));
        assert_eq!(stats.total_updates_applied(), 2);
    }

    #[test]
    fn concurrent_waiters_all_complete() {
        // Regression: every waiter parked on the shared condvar must wake
        // when its own ticket completes (no lost-wakeup hang in wait()).
        let graph = ring_graph(32);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        std::thread::scope(|scope| {
            let service = &service;
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    scope.spawn(move || {
                        let mut steps = 0usize;
                        for round in 0..8 {
                            let starts: Vec<u32> = (0..32).map(|v| (v + i + round) % 32).collect();
                            let ticket = service.submit(spec(6), &starts).unwrap();
                            steps += service.wait(ticket).total_steps();
                        }
                        steps
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 8 * 32 * 6);
            }
        });
    }

    #[test]
    fn out_of_range_destinations_in_batches_are_dropped() {
        // Regression: an ingested insert with dst outside the vertex space
        // must not create an edge that livelocks walker forwarding.
        let graph = ring_graph(8);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let receipt = service.ingest(&UpdateBatch::new(vec![
            UpdateEvent::Insert {
                src: 3,
                dst: 10_000,
                bias: Bias::from_int(1_000_000),
            },
            UpdateEvent::UpdateBias {
                src: 4,
                dst: 20_000,
                bias: Bias::from_int(9),
            },
        ]));
        service.sync(receipt);
        assert_eq!(service.stats().total_updates_applied(), 0);
        // Walks from the would-be source terminate normally.
        let results = service.wait(service.submit(spec(10), &[3, 4]).unwrap());
        for path in &results.paths {
            assert_eq!(path.len(), 11);
            for &v in path {
                assert!((v as usize) < 8, "walk stayed in the vertex space");
            }
        }
    }

    #[test]
    fn walk_store_target_is_bounded_for_ppr() {
        // Regression: PPR with stop_probability 0 has an unbounded
        // *expected* length; the store's refresh target must use the
        // deterministic max_length cap instead.
        let graph = ring_graph(12);
        let service = WalkService::build(&graph, ServiceConfig::default()).unwrap();
        let ppr = WalkSpec::Ppr(bingo_walks::PprConfig {
            stop_probability: 0.0,
            max_length: 15,
        });
        let results = service.wait(service.submit_all_vertices(ppr).unwrap());
        let mut store = results.into_walk_store(12, 3);
        // Trigger a refresh; it must re-extend to max_length, not run away.
        let mut engine =
            bingo_core::BingoEngine::build(&graph, bingo_core::BingoConfig::default()).unwrap();
        engine.insert_edge(0, 6, Bias::from_int(50)).unwrap();
        store.on_edge_inserted(&engine, 0, 6);
        for walk in store.walks() {
            assert!(
                walk.len() <= 16,
                "refresh respected the cap: {}",
                walk.len()
            );
        }
    }

    #[test]
    fn ppr_walks_terminate_probabilistically() {
        let graph = ring_graph(32);
        let service = WalkService::build(&graph, ServiceConfig::default()).unwrap();
        let ticket = service
            .submit_all_vertices(WalkSpec::Ppr(PprConfig {
                stop_probability: 0.2,
                max_length: 50,
            }))
            .unwrap();
        let results = service.wait(ticket);
        let mean = results.total_steps() as f64 / results.paths.len() as f64;
        // Expected steps before termination: (1 - 0.2) / 0.2 = 4.
        assert!(mean > 1.0 && mean < 12.0, "mean PPR length {mean}");
    }

    #[test]
    fn submission_errors_are_reported() {
        let graph = ring_graph(8);
        let service = WalkService::build(&graph, ServiceConfig::default()).unwrap();
        assert_eq!(
            service.submit(spec(3), &[]),
            Err(ServiceError::EmptySubmission)
        );
        assert_eq!(
            service.submit(spec(3), &[99]),
            Err(ServiceError::VertexOutOfRange {
                vertex: 99,
                num_vertices: 8
            })
        );
    }

    #[test]
    fn node2vec_submissions_are_served() {
        // The former hard rejection of second-order specs is gone: the
        // carried adjacency-fingerprint context makes node2vec servable.
        let graph = ring_graph(24);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 4,
                transport: TransportMode::Serialized,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let ticket = service
            .submit(
                WalkSpec::Node2Vec(Node2VecConfig {
                    walk_length: 10,
                    p: 0.5,
                    q: 2.0,
                }),
                &[0, 6, 13, 23],
            )
            .expect("node2vec is servable");
        let results = service.wait(ticket);
        assert_eq!(results.paths.len(), 4);
        assert_eq!(results.walk.name(), "node2vec");
        for path in &results.paths {
            assert_eq!(path.len(), 11, "ring has no dead ends");
            for pair in path.windows(2) {
                assert!(graph.has_edge(pair[0], pair[1]), "invalid step {pair:?}");
            }
        }
        let stats = service.shutdown();
        assert!(stats.total_forwards() > 0, "ring walks cross shards");
        assert!(
            stats.total_context_bytes() > 0,
            "forwarded node2vec walkers carry context"
        );
    }

    #[test]
    fn bounded_inboxes_reject_oversized_submissions() {
        let graph = ring_graph(16);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 2,
                max_inbox: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        // 5 walkers aimed at shard 0's inbox (capacity 4) must be refused
        // atomically — nothing enqueued, error carries the shard.
        let err = service
            .submit(spec(3), &[0, 1, 2, 3, 4])
            .expect_err("submission exceeds the inbox bound");
        assert!(
            matches!(
                err,
                ServiceError::Saturated {
                    shard: 0,
                    capacity: 4,
                    ..
                }
            ),
            "unexpected error {err:?}"
        );
        // A batch whose share on a *later* shard permanently exceeds the
        // bound is reported as that shard's non-retryable rejection, even
        // though its shard-0 share fits (retrying it verbatim could never
        // succeed). Shard 1 owns vertices 8..16 here.
        let err = service
            .submit(spec(3), &[0, 1, 8, 9, 10, 11, 12, 13])
            .expect_err("6 walkers exceed shard 1's bound");
        assert!(
            matches!(
                err,
                ServiceError::Saturated {
                    shard: 1,
                    retryable: false,
                    ..
                }
            ),
            "unexpected error {err:?}"
        );
        // A fitting submission still goes through.
        let ok = service.submit(spec(3), &[0, 1, 8, 9]).unwrap();
        let results = service.wait(ok);
        assert_eq!(results.paths.len(), 4);
        let stats = service.shutdown();
        assert_eq!(stats.total_saturated_rejections(), 2);
        assert_eq!(stats.total_walks_completed(), 4);
    }

    #[test]
    fn wait_and_try_wait_interleave_without_losing_completions() {
        // A blocking waiter beside a notified submitter (the gateway
        // dispatcher's completion path): each must see exactly its own
        // tickets complete, the waiter must never park past its ticket's
        // last walk, and a notified ticket's results must be there at once.
        let graph = ring_graph(16);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        std::thread::scope(|scope| {
            let service = &service;
            let waiter = scope.spawn(move || {
                let mut steps = 0usize;
                for _ in 0..300 {
                    let t = service.submit(spec(3), &[1, 9]).unwrap();
                    steps += service.wait(t).total_steps();
                }
                steps
            });
            let notified = scope.spawn(move || {
                let (tx, rx) = std::sync::mpsc::channel();
                let notify: Arc<dyn Fn(WalkTicket) + Send + Sync> =
                    Arc::new(move |t| tx.send(t).unwrap());
                let mut steps = 0usize;
                for _ in 0..300 {
                    let t = service
                        .submit_notify(spec(3), &[2, 10], None, Arc::clone(&notify))
                        .unwrap();
                    assert_eq!(rx.recv().unwrap(), t, "only this ticket is in flight");
                    let results = service.try_wait(t).expect("a notified ticket is complete");
                    steps += results.total_steps();
                }
                steps
            });
            assert_eq!(waiter.join().unwrap(), 300 * 2 * 3);
            assert_eq!(notified.join().unwrap(), 300 * 2 * 3);
        });
    }

    #[test]
    fn a_notifier_fires_once_per_ticket_with_no_service_lock_held() {
        // The checker counts the locks a thread holds, so turn it on.
        parking_lot::force_enable_lock_check();
        let service = WalkService::build(
            &ring_graph(16),
            ServiceConfig {
                num_shards: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let notify: Arc<dyn Fn(WalkTicket) + Send + Sync> =
            Arc::new(move |t| tx.send((t, parking_lot::held_locks())).unwrap());
        let tickets: Vec<WalkTicket> = (0..64)
            .map(|k| {
                let starts = [k % 16, (k + 5) % 16, (k + 11) % 16];
                service
                    .submit_notify(spec(9), &starts, Some(k.into()), Arc::clone(&notify))
                    .unwrap()
            })
            .collect();
        drop(notify);
        let mut seen = std::collections::HashSet::new();
        for _ in &tickets {
            let (t, held) = rx.recv().unwrap();
            assert_eq!(held, 0, "ticket {} notified under a lock", t.id());
            assert!(seen.insert(t), "ticket {} notified twice", t.id());
            assert_eq!(service.try_wait(t).unwrap().paths.len(), 3);
        }
        assert!(tickets.iter().all(|t| seen.contains(t)));
        // Every shard task has terminated, and with it every entry that
        // held a notifier: no further call can come.
        service.shutdown();
        assert!(rx.recv().is_err(), "a notifier fired twice");
    }

    #[test]
    fn exact_capacity_submission_is_admitted() {
        // The admission boundary is strict: a submission routing exactly
        // `max_inbox` walkers to one shard fits, one more does not.
        let graph = ring_graph(16);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 2,
                max_inbox: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        // Vertices 0..8 belong to shard 0: exactly 4 walkers → admitted.
        let ticket = service
            .submit(spec(3), &[0, 1, 2, 3])
            .expect("exact-capacity submission is admitted");
        let results = service.wait(ticket);
        assert_eq!(results.paths.len(), 4);
        let stats = service.shutdown();
        assert_eq!(
            stats.total_saturated_rejections(),
            0,
            "no rejection at exactly max_inbox"
        );
    }

    #[test]
    fn saturation_retryability_distinguishes_batch_size_from_backlog() {
        // One shard (walkers never forward, so a walker occupies the
        // worker for its whole walk), inbox bound 2.
        let graph = ring_graph(8);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 1,
                max_inbox: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        // A batch larger than the inbox can never be admitted, no matter
        // how empty the queue: not retryable.
        let err = service
            .submit(spec(3), &[0, 1, 2])
            .expect_err("3 walkers exceed the 2-message bound");
        assert!(
            matches!(
                err,
                ServiceError::Saturated {
                    retryable: false,
                    ..
                }
            ),
            "oversized batch is a permanent rejection: {err:?}"
        );
        assert!(!err.is_retryable());

        // A fitting batch rejected only because the queue is momentarily
        // backlogged is retryable. Two long walks keep the single worker
        // busy (the second stays queued) while we probe.
        let busy = service.submit(spec(200_000), &[0, 1]).unwrap();
        let err = service
            .submit(spec(3), &[4, 5])
            .expect_err("inbox backlogged by the long walks");
        assert!(
            matches!(
                err,
                ServiceError::Saturated {
                    retryable: true,
                    ..
                }
            ),
            "fitting batch is retryable once the queue drains: {err:?}"
        );
        assert!(err.is_retryable());
        assert!(err.to_string().contains("retryable"));
        let results = service.wait(busy);
        assert_eq!(results.paths.len(), 2);
        let stats = service.shutdown();
        assert_eq!(
            stats.total_saturated_rejections(),
            2,
            "both rejections counted"
        );
    }

    #[test]
    fn custom_models_run_on_the_service() {
        use bingo_walks::model::{StepSampler, Transition, WalkModel, WalkState};
        use rand::RngCore;

        /// A fixed-length walk that stops early at even-numbered vertices
        /// after the half-way point — exercising a model the built-in enum
        /// cannot express.
        #[derive(Debug)]
        struct HalfEvenStop {
            length: usize,
        }

        impl WalkModel for HalfEvenStop {
            fn name(&self) -> &str {
                "half-even-stop"
            }
            fn expected_length(&self) -> usize {
                self.length
            }
            fn max_steps(&self) -> usize {
                self.length
            }
            fn step(
                &self,
                state: &WalkState,
                sampler: &dyn StepSampler,
                rng: &mut dyn RngCore,
            ) -> Transition {
                if state.steps_taken() >= self.length
                    || (state.steps_taken() * 2 >= self.length && state.current().is_multiple_of(2))
                {
                    return Transition::Terminate;
                }
                match sampler.sample_neighbor_dyn(state.current(), rng) {
                    Some(next) => Transition::Step(next),
                    None => Transition::Terminate,
                }
            }
        }

        // In process, and over the wire, where the walk section carries
        // only the custom tag and the model comes with the walker.
        let graph = ring_graph(20);
        let run = |transport: TransportMode| {
            let service = WalkService::build(
                &graph,
                ServiceConfig {
                    num_shards: 3,
                    transport,
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            let model: Arc<dyn WalkModel> = Arc::new(HalfEvenStop { length: 12 });
            let ticket = service.submit(model, &[1, 5, 11]).unwrap();
            let results = service.wait(ticket);
            assert_eq!(results.walk.name(), "half-even-stop");
            let stats = service.shutdown();
            assert_eq!(stats.total_transport_fallbacks(), 0);
            (results.paths, stats.total_forwards())
        };
        let (paths, _) = run(TransportMode::InProcess);
        let (wire_paths, wire_forwards) = run(TransportMode::Serialized);
        assert_eq!(wire_paths, paths, "the wire carries custom walkers intact");
        assert!(wire_forwards > 0, "ring walks cross shards");
        for path in &paths {
            assert!(path.len() <= 13);
            let last = *path.last().unwrap();
            // Terminated at the cap, or at an even vertex past half-way.
            assert!(path.len() == 13 || last % 2 == 0);
            for pair in path.windows(2) {
                assert!(graph.has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn results_deposit_into_a_walk_store() {
        let graph = ring_graph(20);
        let service = WalkService::build(&graph, ServiceConfig::default()).unwrap();
        let ticket = service.submit_all_vertices(spec(8)).unwrap();
        let results = service.wait(ticket);
        let store = results.into_walk_store(20, 5);
        assert_eq!(store.num_walks(), 20);
        assert_eq!(store.total_steps(), 20 * 8);
        for v in 0..20u32 {
            assert!(!store.walks_visiting(v).is_empty());
        }
    }

    #[test]
    fn sync_on_a_receipt_past_the_last_flush_returns() {
        // A receipt's fields are public, so a caller can name an epoch no
        // flush has reached: `sync` waits for the flushes there are.
        let graph = ring_graph(12);
        let service = WalkService::build(&graph, ServiceConfig::default()).unwrap();
        service.sync(IngestReceipt {
            epoch: 3,
            events_routed: 0,
        });
        let receipt = service.ingest(&UpdateBatch::new(Vec::new()));
        assert_eq!(receipt.epoch, 1);
        service.sync(IngestReceipt {
            epoch: 5,
            ..receipt
        });
        assert!(service.stats().per_shard.iter().all(|s| s.epoch == 1));
    }

    fn node2vec(len: usize) -> WalkSpec {
        WalkSpec::Node2Vec(Node2VecConfig {
            walk_length: len,
            p: 0.5,
            q: 2.0,
        })
    }

    #[test]
    fn serialized_transport_is_bit_identical_and_bills_real_bytes() {
        // The tentpole invariant: routing every forwarded walker through
        // encode → carry → decode → rebuild must not change a single step,
        // and in serialized mode the byte counters count real frames.
        let graph = ring_graph(24);
        let starts = [0u32, 6, 13, 23];
        let run = |mode: TransportMode| {
            let service = WalkService::build(
                &graph,
                ServiceConfig {
                    num_shards: 4,
                    transport: mode,
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            let results = service.wait(service.submit(node2vec(12), &starts).unwrap());
            let holders = service.snapshot_cache_occupancy().1;
            (results.paths, service.shutdown(), holders)
        };
        let (in_paths, in_stats, in_holders) = run(TransportMode::InProcess);
        let (ser_paths, ser_stats, _) = run(TransportMode::Serialized);
        assert_eq!(
            in_paths, ser_paths,
            "the wire round-trip must be invisible to walk output"
        );
        assert!(ser_stats.total_forwards() > 0, "ring walks cross shards");
        assert!(
            ser_stats.total_transport_bytes_sent() > 0,
            "serialized forwards ship frames"
        );
        assert_eq!(
            ser_stats.total_transport_bytes_sent(),
            ser_stats.total_transport_bytes_recv(),
            "the loopback carrier delivers every byte it is handed"
        );
        assert_eq!(
            in_stats.total_transport_bytes_sent(),
            0,
            "in-process forwards ship nothing"
        );
        assert_eq!(in_holders, 0, "in-process forwards record no holder");
        assert!(
            in_stats.total_handle_offers() == 0 && in_stats.total_context_bytes() == 0,
            "in-process forwards negotiate and bill nothing"
        );
        assert_eq!(
            ser_stats.total_context_misses(),
            0,
            "rebuilt walkers answer every membership query from the frame"
        );
    }

    #[test]
    fn handle_negotiation_ships_handles_on_repeat_forwards() {
        // The first submission records each receiver as a holder of the
        // snapshots it was sent (every offer ships the body); a second
        // identical submission in the same epoch finds them recorded, so
        // offers resolve to 16-byte handles.
        let graph = ring_graph(24);
        let starts: Vec<u32> = (0..24).collect();
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 4,
                transport: TransportMode::Serialized,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        service.wait(service.submit(node2vec(10), &starts).unwrap());
        service.wait(service.submit(node2vec(10), &starts).unwrap());
        let stats = service.shutdown();
        assert!(
            stats.total_handle_offers() > 0,
            "ring snapshots are larger than a handle, so offers happen"
        );
        assert!(stats.total_handle_hits() > 0, "repeat forwards hit");
        assert!(stats.total_body_requests() > 0, "first forwards seed");
        assert!(stats.handle_hit_rate() > 0.0);
    }

    #[test]
    fn snapshot_cache_occupancy_stays_bounded_across_epochs() {
        // Regression: the snapshot maps hold one slot per vertex, so a
        // long structural-update stream must not grow them — occupancy is
        // bounded by the forwarded-vertex set, never by epoch count.
        let graph = ring_graph(16);
        let num_shards = 4usize;
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards,
                transport: TransportMode::Serialized,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let starts: Vec<u32> = (0..16).collect();
        for i in 0..16u32 {
            service.wait(service.submit(node2vec(8), &starts).unwrap());
            let receipt = service.ingest(&UpdateBatch::new(vec![UpdateEvent::Insert {
                src: i,
                dst: (i + 5) % 16,
                bias: Bias::from_int(1),
            }]));
            service.sync(receipt);
            let (snapshots, holders) = service.snapshot_cache_occupancy();
            assert!(
                snapshots <= 16,
                "snapshots exceed the vertex set: {snapshots}"
            );
            assert!(
                holders <= num_shards * 16,
                "holders exceed (shard, vertex) pairs: {holders}"
            );
        }
        let (snapshots, holders) = service.snapshot_cache_occupancy();
        assert!(snapshots > 0 || holders > 0, "walks populated the maps");
        service.shutdown();
    }

    #[test]
    fn scoped_invalidation_keeps_untouched_snapshots_warm() {
        // A structural batch evicts only the vertices it touched. The
        // batch touches one vertex per shard (the router splits it by
        // owner), so at most four snapshots may leave the maps.
        let graph = ring_graph(16);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 4,
                transport: TransportMode::Serialized,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let starts: Vec<u32> = (0..16).collect();
        service.wait(service.submit(node2vec(10), &starts).unwrap());
        let before = service.snapshot_cache_occupancy();
        // One touched vertex in each shard's uniform 4-vertex range.
        let events: Vec<UpdateEvent> = [0u32, 4, 8, 12]
            .iter()
            .map(|&src| UpdateEvent::Insert {
                src,
                dst: (src + 7) % 16,
                bias: Bias::from_int(1),
            })
            .collect();
        let receipt = service.ingest(&UpdateBatch::new(events));
        service.sync(receipt);
        let after = service.snapshot_cache_occupancy();
        service.shutdown();
        assert!(
            before.0 > 0 && before.1 > 0,
            "walks captured snapshots and recorded holders: {before:?}"
        );
        assert!(
            after.0 + 4 >= before.0,
            "scoped eviction dropped more than the touched vertices: {before:?} -> {after:?}"
        );
        assert!(after.0 > 0, "untouched snapshots survive a scoped eviction");
    }

    #[test]
    fn a_reweight_releases_the_snapshots_it_writes() {
        // A bias-only batch writes the vertices it reweights: each of
        // their snapshots leaves the map, holder bits and all, and the next
        // forward from the vertex captures it afresh.
        let graph = ring_graph(16);
        let service = WalkService::build(
            &graph,
            ServiceConfig {
                num_shards: 4,
                transport: TransportMode::Serialized,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let starts: Vec<u32> = (0..16).collect();
        service.wait(service.submit(node2vec(10), &starts).unwrap());
        let before = service.snapshot_cache_occupancy();
        // Every vertex is reweighted, so every captured one is written.
        let events: Vec<UpdateEvent> = (0..16u32)
            .map(|src| UpdateEvent::UpdateBias {
                src,
                dst: (src + 1) % 16,
                bias: Bias::from_int(5),
            })
            .collect();
        service.sync(service.ingest(&UpdateBatch::new(events)));
        let after = service.snapshot_cache_occupancy();
        let misses = service.stats().total_context_cache_misses();
        service.wait(service.submit(node2vec(10), &starts).unwrap());
        let again = service.snapshot_cache_occupancy();
        let stats = service.shutdown();
        assert!(before.0 > 0 && before.1 > 0, "{before:?}");
        assert_eq!(after, (0, 0), "every written snapshot left the map");
        assert!(again.0 > 0, "the next wave captured the vertices again");
        assert_eq!(
            stats.total_context_cache_misses() - misses,
            again.0 as u64,
            "every snapshot in the map is a fresh capture"
        );
        assert_eq!(stats.total_transport_fallbacks(), 0);
    }

    /// Run node2vec over every vertex of a 24-ring on 4 serialized shards
    /// with `carrier`, returning the paths and the final stats.
    fn run_with_carrier(carrier: Arc<dyn ShardTransport>) -> (Vec<Vec<u32>>, ServiceStats) {
        let graph = ring_graph(24);
        let starts: Vec<u32> = (0..24).collect();
        let service = WalkService::build_with_transport(
            &graph,
            ServiceConfig {
                num_shards: 4,
                transport: TransportMode::Serialized,
                ..ServiceConfig::default()
            },
            bingo_telemetry::Telemetry::disabled(),
            carrier,
        )
        .unwrap();
        let results = service.wait(service.submit(node2vec(12), &starts).unwrap());
        (results.paths, service.shutdown())
    }

    #[test]
    fn failing_carrier_falls_back_and_counts_every_forward() {
        struct DeadTransport;
        impl ShardTransport for DeadTransport {
            fn name(&self) -> &'static str {
                "dead"
            }
            fn carry(&self, _to: usize, _frame: Vec<u8>) -> std::io::Result<Vec<u8>> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
        }
        let (reference, _) = run_with_carrier(Arc::new(LoopbackTransport));
        let (paths, stats) = run_with_carrier(Arc::new(DeadTransport));
        assert_eq!(paths, reference, "every walk completes on the fallback");
        assert!(stats.total_forwards() > 0, "ring walks cross shards");
        assert_eq!(
            stats.total_transport_fallbacks(),
            stats.total_forwards(),
            "each billed-but-undelivered forward is counted"
        );
        assert!(stats.total_transport_bytes_sent() > 0);
        assert_eq!(stats.total_transport_bytes_recv(), 0);
    }

    #[test]
    fn frame_naming_another_walker_is_rejected_not_absorbed() {
        // Flip a bit in the frame's walker-index field (offset 9..13): the
        // frame still decodes, but to a walker that was never sent. Filing
        // it would index past the ticket's 24 result slots.
        struct IndexCorruptingTransport;
        impl ShardTransport for IndexCorruptingTransport {
            fn name(&self) -> &'static str {
                "index-corrupting"
            }
            fn carry(&self, _to: usize, mut frame: Vec<u8>) -> std::io::Result<Vec<u8>> {
                frame[10] ^= 0x40;
                Ok(frame)
            }
        }
        let (reference, _) = run_with_carrier(Arc::new(LoopbackTransport));
        let (paths, stats) = run_with_carrier(Arc::new(IndexCorruptingTransport));
        assert_eq!(paths, reference, "mis-addressed frames never reach a slot");
        assert_eq!(stats.total_transport_fallbacks(), stats.total_forwards());
    }
}
