//! Integration tests for the multi-tenant gateway (`bingo-gateway`) over a
//! real sharded walk service:
//!
//! * DRR fairness property — under saturating offered load, two tenants
//!   with 3:1 weights must complete steps within tolerance of a 75/25
//!   split while both are backlogged;
//! * admission boundaries — per-tenant queue overflow returns
//!   `Overloaded` without touching already-queued work, and saturation
//!   bounces requeue (never drop) chunks;
//! * result integrity — chunked, fairness-reordered dispatch still
//!   returns every path in submission order;
//! * the dispatch unit — a ticket goes out as consecutive slices of at
//!   most `chunk_walkers` starts, whatever shards the starts lie on;
//! * the one timed wait — a chunk bounced by walkers the gateway did not
//!   submit, with nothing of its own in flight, is retried without any
//!   completion to wake the dispatcher;
//! * the empty graph — one walk per vertex of no vertices is a ticket that
//!   is already complete, as on the service.

use bingo::gateway::{AimdConfig, Gateway, GatewayConfig, GatewayError, TenantId};
use bingo::prelude::*;
use bingo::service::ServiceError;
use gate::GateModel;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[path = "common/gate.rs"]
mod gate;

fn ring_graph(n: usize) -> DynamicGraph {
    let mut g = DynamicGraph::new(n);
    for v in 0..n as u32 {
        g.insert_edge(v, (v + 1) % n as u32, Bias::from_int(2))
            .unwrap();
        g.insert_edge(v, (v + 5) % n as u32, Bias::from_int(1))
            .unwrap();
    }
    g
}

fn bounded_service(n: usize, shards: usize, max_inbox: usize) -> Arc<WalkService> {
    Arc::new(
        WalkService::build(
            &ring_graph(n),
            ServiceConfig {
                num_shards: shards,
                max_inbox,
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    )
}

#[test]
fn weighted_tenants_complete_within_tolerance_of_their_weights() {
    // Both tenants offer the same saturating load; weights 3:1. At the
    // moment the heavy tenant's offered walks complete, its share of all
    // completed steps must sit near 75% (loose tolerance: this runs in
    // debug builds on loaded CI machines).
    let service = bounded_service(256, 2, 32);
    let gateway = Gateway::new(
        service,
        GatewayConfig {
            chunk_walkers: 16,
            quantum_walkers: 16,
            window: AimdConfig {
                initial: 32,
                min: 16,
                max: 96,
            },
            ..GatewayConfig::default()
        },
    );
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 8 });
    let offered_per_tenant = 2_000u64;
    let mut tickets = Vec::new();
    for round in 0..(offered_per_tenant as usize / 100) {
        let starts: Vec<VertexId> = (0..100).map(|k| ((round * 7 + k) % 256) as u32).collect();
        tickets.push(
            gateway
                .submit(
                    WalkRequest::spec(spec)
                        .starts(starts.clone())
                        .tenant("heavy")
                        .weight(3),
                )
                .unwrap(),
        );
        tickets.push(
            gateway
                .submit(
                    WalkRequest::spec(spec)
                        .starts(starts)
                        .tenant("light")
                        .weight(1),
                )
                .unwrap(),
        );
    }
    let heavy = TenantId::new("heavy");
    let light = TenantId::new("light");
    let (heavy_cut, light_cut) = loop {
        let stats = gateway.stats();
        if stats.tenant(&heavy).map_or(0, |t| t.completed_walks) >= offered_per_tenant {
            break (
                stats.tenant(&heavy).map_or(0, |t| t.completed_steps),
                stats.tenant(&light).map_or(0, |t| t.completed_steps),
            );
        }
        std::thread::sleep(Duration::from_micros(300));
    };
    for t in tickets {
        gateway.wait(t).expect("no submission fails");
    }
    let stats = gateway.shutdown();

    let share = heavy_cut as f64 / (heavy_cut + light_cut).max(1) as f64;
    assert!(
        (share - 0.75).abs() <= 0.15,
        "heavy completed-step share {share:.3} not within 0.15 of 0.75 \
         (heavy {heavy_cut} vs light {light_cut} steps at cut)"
    );
    // Everything offered completed — queued under pressure, never dropped.
    // Tenants are numbered in first-submission order: heavy submits first.
    for (index, id) in [&heavy, &light].into_iter().enumerate() {
        let t = stats.tenant(id).expect("tenant served");
        assert_eq!(t.index as usize, index, "tenant {id}");
        assert_eq!(t.completed_walks, offered_per_tenant, "tenant {id}");
        assert_eq!(t.failed_walks, 0);
        assert_eq!(t.rejected_overloaded, 0);
    }
}

#[test]
fn queue_overflow_rejects_only_the_oversized_tenant() {
    let service = bounded_service(64, 2, 32);
    let gateway = Gateway::new(
        service,
        GatewayConfig {
            max_queue_per_tenant: 100,
            ..GatewayConfig::default()
        },
    );
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 4 });
    // Fill "greedy" to its bound across several submissions...
    let mut tickets = Vec::new();
    let mut rejections = 0;
    for _ in 0..5 {
        match gateway.submit(
            WalkRequest::spec(spec)
                .starts((0..40).collect())
                .tenant("greedy"),
        ) {
            Ok(t) => tickets.push(t),
            Err(GatewayError::Overloaded {
                tenant, capacity, ..
            }) => {
                assert_eq!(tenant.as_str(), "greedy");
                assert_eq!(capacity, 100);
                rejections += 1;
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    // The loop above races the dispatcher (a fast drain can keep the queue
    // under the bound), so force a deterministic overflow: one submission
    // larger than the whole bound is refused no matter how much was
    // drained, because admission checks `queued + incoming > capacity`.
    match gateway.submit(
        WalkRequest::spec(spec)
            .starts((0..150).map(|i| i % 64).collect())
            .tenant("greedy"),
    ) {
        Ok(_) => panic!("a 150-walker submission must overflow the 100-walker bound"),
        Err(GatewayError::Overloaded {
            tenant, capacity, ..
        }) => {
            assert_eq!(tenant.as_str(), "greedy");
            assert_eq!(capacity, 100);
            rejections += 1;
        }
        Err(other) => panic!("unexpected error {other:?}"),
    }
    // ...while a polite tenant still gets in.
    let polite = gateway
        .submit(
            WalkRequest::spec(spec)
                .starts((0..40).collect())
                .tenant("polite"),
        )
        .expect("another tenant's overflow must not affect this one");
    for t in tickets {
        assert_eq!(gateway.wait(t).unwrap().paths.len(), 40);
    }
    assert_eq!(gateway.wait(polite).unwrap().paths.len(), 40);
    let stats = gateway.shutdown();
    let greedy = stats.tenant(&TenantId::new("greedy")).unwrap();
    assert_eq!(greedy.rejected_overloaded as usize, rejections);
    assert!(
        rejections > 0,
        "at least one submission overflowed the 100-walker bound"
    );
    assert!(greedy.peak_queued_walkers <= 100, "bound never exceeded");
}

#[test]
fn saturation_requeues_preserve_every_walk_and_its_order() {
    // Inboxes of 4 under a window that overshoots: chunks bounce with
    // retryable Saturated and must come back in order, losing nothing.
    let service = bounded_service(96, 3, 4);
    let gateway = Gateway::new(
        service.clone(),
        GatewayConfig {
            chunk_walkers: 8, // clamped to 4 by the inbox bound
            window: AimdConfig {
                initial: 96,
                min: 4,
                ..AimdConfig::default()
            },
            ..GatewayConfig::default()
        },
    );
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 12 });
    let starts: Vec<VertexId> = (0..96).rev().collect();
    let ticket = gateway
        .submit(WalkRequest::spec(spec).starts(starts.clone()).tenant("t"))
        .unwrap();
    let results = gateway.wait(ticket).unwrap();
    assert_eq!(results.paths.len(), 96);
    for (path, &start) in results.paths.iter().zip(&starts) {
        assert_eq!(path[0], start, "submission order survives requeues");
        assert_eq!(path.len(), 13, "ring walks run to full length");
    }
    let stats = gateway.shutdown();
    let t = stats.tenant(&TenantId::new("t")).unwrap();
    assert_eq!(t.completed_walks, 96);
    assert_eq!(t.failed_walks, 0, "nothing dropped");
    // One bounce, one event: the service records the rejection, the
    // gateway only requeues.
    let flight = service.telemetry().flight();
    assert_eq!(flight.dropped(), 0, "the ring kept every event");
    let bounces = flight
        .events()
        .iter()
        .filter(|e| e.kind.tag() == "saturated")
        .count() as u64;
    assert_eq!(bounces, t.saturated_requeues);
}

#[test]
fn a_ticket_goes_out_in_contiguous_size_capped_chunks() {
    // Starts interleave the four shards (0, 16, 32, 48, 1, 17, …), so a
    // chunk per shard would be four chunks for either ticket.
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 6 });
    for (chunk_walkers, n, chunks) in [(32, 16, 1), (16, 40, 3)] {
        // A service each: tenant counters live in the service's registry.
        let service = bounded_service(64, 4, 0);
        let starts: Vec<VertexId> = (0..n).map(|i| i % 4 * 16 + i / 4).collect();
        let mut per_shard = [0; 4];
        for &v in &starts {
            per_shard[service.partitioner().owner(v)] += 1;
        }
        assert_eq!(per_shard, [n / 4; 4], "every shard holds a quarter");
        let gateway = Gateway::new(
            service,
            GatewayConfig {
                chunk_walkers,
                ..GatewayConfig::default()
            },
        );
        let ticket = gateway
            .submit(WalkRequest::spec(spec).starts(starts.clone()).tenant("t"))
            .unwrap();
        let results = gateway.wait(ticket).unwrap();
        assert_eq!(results.paths.len(), starts.len(), "every start covered");
        for (path, &start) in results.paths.iter().zip(&starts) {
            assert_eq!(path[0], start, "each path back at its start's index");
            assert_eq!(path.len(), 7);
        }
        let stats = gateway.shutdown();
        let t = stats.tenant(&TenantId::new("t")).unwrap();
        assert_eq!(
            t.dispatched_chunks, chunks,
            "{n} starts at chunk_walkers {chunk_walkers}: ⌈n / cap⌉ chunks"
        );
        assert_eq!((t.completed_walks, t.failed_walks), (u64::from(n), 0));
    }
}

#[test]
fn all_vertices_of_an_empty_graph_is_a_ticket_already_complete() {
    // `WalkService::submit_all_vertices` answers this request with an
    // empty ticket; the gateway must too, and queue nothing for it.
    let service =
        Arc::new(WalkService::build(&DynamicGraph::new(0), ServiceConfig::default()).unwrap());
    let gateway = Gateway::new(service, GatewayConfig::default());
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 4 });
    let ticket = gateway
        .submit(WalkRequest::spec(spec).all_vertices().tenant("t"))
        .expect("one walk per vertex of no vertices is a valid request");
    let results = gateway.wait(ticket).unwrap();
    assert!(results.paths.is_empty());
    assert_eq!(results.total_steps(), 0);
    // An explicitly empty start list is still an error.
    assert!(matches!(
        gateway.submit(WalkRequest::spec(spec).starts(vec![]).tenant("t")),
        Err(GatewayError::Rejected(ServiceError::EmptySubmission))
    ));
    let stats = gateway.shutdown();
    let t = stats.tenant(&TenantId::new("t")).unwrap();
    assert_eq!((t.submitted_walks, t.dispatched_chunks), (0, 0));
}

#[test]
fn an_invalid_node2vec_spec_is_refused_at_submit() {
    // A p or q the service refuses — zero, negative, NaN, infinite, or a
    // spread max(p, 1, q) / min(p, 1, q) above 4096 — comes back from
    // `submit` itself: nothing is queued, and no chunk fails at dispatch.
    let service = bounded_service(64, 2, 0);
    let gateway = Gateway::new(service.clone(), GatewayConfig::default());
    let node2vec = |p: f64, q: f64| {
        WalkSpec::Node2Vec(Node2VecConfig {
            walk_length: 8,
            p,
            q,
        })
    };
    let mut bad = vec![(1.0 / 64.0, 65.0), (1.0, 8192.0)];
    for x in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        bad.extend([(x, 1.0), (1.0, x)]);
    }
    for (p, q) in bad {
        let request = WalkRequest::spec(node2vec(p, q))
            .starts((0..16).collect())
            .tenant("t");
        match gateway.submit(request) {
            Err(GatewayError::Rejected(ServiceError::InvalidNode2Vec { .. })) => {}
            other => panic!("p = {p}, q = {q}: expected a refusal, got {other:?}"),
        }
        assert_eq!(gateway.stats().in_flight_walkers, 0);
    }
    assert!(
        gateway.stats().tenant(&TenantId::new("t")).is_none(),
        "a refused request registers nothing"
    );
    // The tenant's valid request afterwards is the only work it has.
    let ticket = gateway
        .submit(
            WalkRequest::spec(node2vec(0.5, 2.0))
                .starts((0..16).collect())
                .tenant("t"),
        )
        .unwrap();
    assert_eq!(gateway.wait(ticket).unwrap().paths.len(), 16);
    let stats = gateway.shutdown();
    let t = stats.tenant(&TenantId::new("t")).unwrap();
    assert_eq!(t.submitted_walks, 16);
    assert_eq!(t.completed_walks, 16);
    assert_eq!(t.failed_walks, 0);
    assert_eq!(service.stats().total_walks_completed(), 16);
}

#[test]
fn a_chunk_bounced_by_foreign_walkers_is_retried_with_nothing_in_flight() {
    // One shard, so no peer steals the walkers queued behind the gate.
    let max_inbox = 4;
    let service = bounded_service(16, 1, max_inbox);
    let entered = Arc::new(Barrier::new(2));
    let gate = Arc::new(Barrier::new(2));
    let model: SharedWalkModel = Arc::new(GateModel {
        entered: Arc::clone(&entered),
        gate: Arc::clone(&gate),
    });
    let gated = service.submit(model, &[0]).unwrap();
    entered.wait();
    // The shard's activation is parked in the gate's step: these walkers,
    // submitted straight to the service, fill its inbox to the bound.
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 4 });
    let filler = service.submit(spec, &[1, 2, 3, 4]).unwrap();
    assert_eq!(service.admission_snapshot().queue_depths, [max_inbox]);

    let gateway = Arc::new(Gateway::new(service.clone(), GatewayConfig::default()));
    let ticket = gateway
        .submit(WalkRequest::spec(spec).starts(vec![5, 6]).tenant("t"))
        .unwrap();
    let bounced = || {
        let events = service.telemetry().flight().events();
        events.iter().any(|e| e.kind.tag() == "saturated")
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while !bounced() {
        assert!(Instant::now() < deadline, "the gateway never dispatched");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(gateway.stats().in_flight_walkers, 0, "nothing in flight");
    // Once the gate opens the inbox drains, and no completion of the
    // gateway's own is coming: only the timed retry can dispatch the chunk.
    gate.wait();
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = Arc::clone(&gateway);
    let waiter = std::thread::spawn(move || tx.send(waiter.wait(ticket)).unwrap());
    let results = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the bounced chunk is retried and completes")
        .unwrap();
    waiter.join().unwrap();
    assert_eq!(results.paths.len(), 2);
    assert_eq!(results.paths[0][0], 5);
    assert_eq!(service.wait(filler).paths.len(), 4);
    service.wait(gated);
    let stats = gateway.stats();
    let t = stats.tenant(&TenantId::new("t")).unwrap();
    assert!(t.saturated_requeues >= 1);
    assert_eq!(t.completed_walks, 2);
}
