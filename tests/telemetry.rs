//! Tier-1 telemetry tests: histogram determinism, deterministic trace
//! sampling, cross-shard lifecycle stitching through a real service run,
//! and the zero-registration guarantee of the disabled mode.

use bingo::prelude::*;
use bingo::telemetry::hist::HistogramCore;
use bingo::telemetry::{
    bucket_index, bucket_lower_bound, names, HistogramSnapshot, TraceStage, NUM_BUCKETS,
    TRACE_CAPACITY,
};
use bingo::walks::WalkSpec;

/// A directed ring over `n` vertices: every walk of length >= n/shards is
/// guaranteed to cross every contiguous shard boundary.
fn ring(n: usize) -> DynamicGraph {
    let mut graph = DynamicGraph::new(n);
    for v in 0..n as VertexId {
        graph
            .insert_edge(v, (v + 1) % n as VertexId, Bias::from_int(1))
            .unwrap();
    }
    graph
}

// ---------------------------------------------------------------------------
// Histogram determinism
// ---------------------------------------------------------------------------

#[test]
fn bucket_boundaries_are_fixed_and_total() {
    // Bucket 0 holds zero; bucket i >= 1 holds [2^(i-1), 2^i).
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(2), 2);
    assert_eq!(bucket_index(3), 2);
    assert_eq!(bucket_index(4), 3);
    assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    for i in 1..NUM_BUCKETS {
        let lo = bucket_lower_bound(i);
        assert_eq!(bucket_index(lo), i, "lower edge lands in its own bucket");
        assert_eq!(bucket_index(lo - 1), i - 1, "edge - 1 lands one below");
    }
    assert_eq!(bucket_lower_bound(0), 0);
}

#[test]
fn histogram_buckets_are_thread_count_independent() {
    // The same multiset of values recorded under different team sizes (and
    // hence different interleavings) produces bit-identical snapshots.
    let values: Vec<u64> = (0..10_000u64)
        .map(|i| i.wrapping_mul(0x9E37) >> 3)
        .collect();
    let record_with = |threads: usize| -> HistogramSnapshot {
        let core = HistogramCore::new();
        rayon::with_threads(threads, || {
            use rayon::prelude::*;
            values.par_iter().for_each(|&v| core.record(v));
        });
        core.snapshot()
    };
    let one = record_with(1);
    let four = record_with(4);
    assert_eq!(one.buckets(), four.buckets());
    assert_eq!(one.sum(), four.sum());
    assert_eq!(one.quantile(0.5), four.quantile(0.5));
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    let mk = |values: &[u64]| -> HistogramSnapshot {
        let core = HistogramCore::new();
        for &v in values {
            core.record(v);
        }
        core.snapshot()
    };
    let a = mk(&[1, 5, 1 << 20, 0]);
    let b = mk(&[3, 3, 3, 1 << 40]);
    let c = mk(&[u64::MAX, 2]);

    let mut ab = a;
    ab.merge(&b);
    let mut ba = b;
    ba.merge(&a);
    assert_eq!(ab.buckets(), ba.buckets(), "merge commutes");
    assert_eq!(ab.sum(), ba.sum());

    let mut ab_c = ab;
    ab_c.merge(&c);
    let mut bc = b;
    bc.merge(&c);
    let mut a_bc = a;
    a_bc.merge(&bc);
    assert_eq!(ab_c.buckets(), a_bc.buckets(), "merge associates");
    assert_eq!(ab_c.sum(), a_bc.sum());
    assert_eq!(
        ab_c.count(),
        (a.count() + b.count() + c.count()),
        "counts add"
    );
}

#[test]
fn quantiles_are_exact_at_bucket_edges() {
    // Values sitting on bucket edges are reported exactly; a quantile never
    // exceeds its value's bucket edge.
    let core = HistogramCore::new();
    for k in [4u32, 4, 10, 10, 10, 20] {
        core.record(1u64 << k);
    }
    let snap = core.snapshot();
    assert_eq!(snap.count(), 6);
    assert_eq!(snap.quantile(0.0), 1 << 4);
    assert_eq!(snap.quantile(0.5), 1 << 10);
    assert_eq!(snap.quantile(1.0), 1 << 20);
    // Non-edge values floor to their bucket's lower edge.
    let core = HistogramCore::new();
    core.record((1 << 10) + 37);
    assert_eq!(core.snapshot().quantile(0.5), 1 << 10);
}

// ---------------------------------------------------------------------------
// Trace sampling
// ---------------------------------------------------------------------------

#[test]
fn sampling_set_is_a_pure_function_of_the_seed() {
    let a = Telemetry::enabled(0xB1A5);
    let b = Telemetry::enabled(0xB1A5);
    let c = Telemetry::enabled(0xB1A6);
    let set = |t: &Telemetry| -> Vec<(u64, u64)> {
        (1..8u64)
            .flat_map(|ticket| (0..512u64).map(move |w| (ticket, w)))
            .filter(|&(ticket, w)| t.is_sampled(ticket, w))
            .collect()
    };
    assert_eq!(set(&a), set(&b), "same seed, same sampled walkers");
    assert_ne!(set(&a), set(&c), "seed changes the set");
    assert!(!set(&a).is_empty());
}

#[test]
fn trace_ring_stays_bounded_under_saturation() {
    // Saturate the detailed mode's own ring: `trace` records whatever its
    // caller has decided to sample, so every event below is buffered.
    let tel = Telemetry::enabled(0xB1A5);
    let overflow = 1_000u32;
    let total = TRACE_CAPACITY as u32 + overflow;
    for w in 0..total {
        tel.trace(
            1,
            w,
            TraceStage::StepBatch {
                shard: 0,
                steps: 1,
                epoch: 0,
            },
        );
    }
    let tracer = tel.tracer().expect("tracing on");
    assert_eq!(tracer.len(), TRACE_CAPACITY, "ring never exceeds its bound");
    assert_eq!(
        tracer.dropped(),
        u64::from(overflow),
        "every eviction is counted"
    );
    let events = tracer.events();
    assert_eq!(
        events.first().map(|e| e.walker),
        Some(overflow),
        "eviction drops the oldest events"
    );
    assert_eq!(
        events.last().map(|e| e.walker),
        Some(total - 1),
        "newest kept"
    );
}

/// The per-stage latency histograms a service records in detailed mode and
/// never registers when telemetry is disabled.
const STAGE_HISTOGRAMS: [&str; 6] = [
    names::SERVICE_SUBMIT_NS,
    names::SERVICE_SHARD_STEP_BATCH_NS,
    names::SERVICE_SHARD_INBOX_DWELL_NS,
    names::SERVICE_FORWARD_HOP_NS,
    names::SERVICE_COLLECT_NS,
    names::SERVICE_TICKET_LATENCY_NS,
];

#[test]
fn lifecycles_stitch_across_shards_in_a_real_service_run() {
    // Enough walkers that the 1-in-64 sample holds several, then check
    // every sampled lifecycle: spans recorded by different shard worker
    // threads join on (ticket, walker) and alternate step/hop in ring
    // order.
    let graph = ring(64);
    let telemetry = Telemetry::enabled(7);
    let service = WalkService::build_with_telemetry(
        &graph,
        ServiceConfig {
            num_shards: 4,
            seed: 0x5717,
            ..ServiceConfig::default()
        },
        telemetry.clone(),
    )
    .expect("service builds");
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 40 });
    let starts: Vec<VertexId> = (0..1024).map(|i| i % 64).collect();
    let ticket = service.submit(spec, &starts).expect("submit");
    let results = service.wait(ticket);
    assert_eq!(results.paths.len(), starts.len());
    let stats = service.shutdown();
    assert!(stats.total_forwards() > 0, "ring walks must cross shards");

    let tracer = telemetry.tracer().expect("tracing on");
    let lifecycles = tracer.lifecycles();
    let sampled = (0..starts.len() as u64)
        .filter(|&w| telemetry.is_sampled(ticket.id(), w))
        .count();
    assert!(
        sampled > 0,
        "1-in-64 over {} walkers samples some",
        starts.len()
    );
    assert_eq!(
        lifecycles.len(),
        sampled,
        "exactly the sampled walkers are traced"
    );
    for ((_, walker), events) in &lifecycles {
        // Exactly one submit first, one collect last.
        assert!(
            matches!(events.first().unwrap().stage, TraceStage::Submit { .. }),
            "w{walker} starts with submit"
        );
        let TraceStage::Collect { path_len, hops, .. } = events.last().unwrap().stage else {
            panic!("w{walker} ends with collect");
        };
        assert_eq!(path_len as usize, 41, "full-length ring walk");
        // seq strictly increases within a lifecycle (stitching preserved
        // record order even across shard threads).
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        // Hops chain: each hop leaves the shard the previous span ran on.
        let mut current_shard: Option<u32> = None;
        let mut hop_count = 0u32;
        for e in events {
            match e.stage {
                TraceStage::Submit { shard, .. } => current_shard = Some(shard),
                TraceStage::StepBatch { shard, .. } => {
                    assert_eq!(Some(shard), current_shard, "steps run on the owning shard");
                }
                TraceStage::ForwardHop {
                    from_shard,
                    to_shard,
                    ..
                } => {
                    assert_eq!(Some(from_shard), current_shard, "hop leaves current shard");
                    assert_ne!(from_shard, to_shard, "forwards change ownership");
                    current_shard = Some(to_shard);
                    hop_count += 1;
                }
                TraceStage::GatewayDispatch { .. } | TraceStage::Collect { .. } => {}
            }
        }
        assert_eq!(hop_count, hops, "collect's hop count matches the trace");
        assert!(hops > 0, "40-step ring walks cross 16-vertex shards");
    }
    // The dump renders every lifecycle as one stitched line.
    let dump = tracer.dump();
    assert!(
        dump.contains("hop("),
        "dump shows cross-shard hops:\n{dump}"
    );
    assert_eq!(tracer.complete_lifecycle_lines().len(), sampled);
    // The per-stage histograms saw the same run: the mirror image of the
    // disabled-mode test below.
    let snap = telemetry.snapshot();
    for name in STAGE_HISTOGRAMS {
        assert!(
            snap.histogram_across_labels(name).count() > 0,
            "{name} must record in detailed mode"
        );
    }
}

#[test]
fn sampled_service_trace_set_is_thread_count_independent() {
    // The sampled (ticket, walker) set of a detailed service run does not
    // depend on the rayon team size.
    let run = |threads: usize| -> Vec<(u64, u32)> {
        rayon::with_threads(threads, || {
            let graph = ring(48);
            let telemetry = Telemetry::enabled(0xD15C);
            let service = WalkService::build_with_telemetry(
                &graph,
                ServiceConfig {
                    num_shards: 3,
                    seed: 0xD15C,
                    ..ServiceConfig::default()
                },
                telemetry.clone(),
            )
            .expect("service builds");
            let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 12 });
            let starts: Vec<VertexId> = (0..48).collect();
            for _ in 0..4 {
                let ticket = service.submit(spec, &starts).expect("submit");
                service.wait(ticket);
            }
            service.shutdown();
            telemetry
                .tracer()
                .expect("tracing on")
                .lifecycles()
                .into_keys()
                .collect()
        })
    };
    let one = run(1);
    let four = run(4);
    assert!(!one.is_empty(), "1-in-64 over 192 walkers samples some");
    assert_eq!(one, four, "sampled set identical across thread counts");
}

// ---------------------------------------------------------------------------
// Disabled mode and stats views
// ---------------------------------------------------------------------------

#[test]
fn disabled_service_registers_no_histograms_but_keeps_stats_live() {
    let graph = ring(32);
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 2,
            seed: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("service builds");
    let telemetry = service.telemetry().clone();
    assert!(!telemetry.is_detailed());
    assert!(telemetry.timer().is_none(), "no clock reads when disabled");
    assert!(telemetry.tracer().is_none(), "no tracer when disabled");

    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 8 });
    let starts: Vec<VertexId> = (0..32).collect();
    service.wait(service.submit(spec, &starts).expect("submit"));
    let snap = telemetry.snapshot();
    // Counters are the stats substrate — live even when disabled…
    assert!(
        snap.counter_across_labels(names::SERVICE_SHARD_STEPS) > 0,
        "steps counted through the registry"
    );
    // …while the latency histograms were never registered.
    for name in STAGE_HISTOGRAMS {
        assert_eq!(
            snap.histogram_across_labels(name).count(),
            0,
            "{name} must not be registered in disabled mode"
        );
    }
    let stats = service.shutdown();
    assert!(
        stats.total_steps() > 0,
        "ServiceStats reads the same atomics"
    );
}

#[test]
fn services_and_gateways_sharing_a_telemetry_keep_their_own_series() {
    use bingo::gateway::{Gateway, GatewayConfig, TenantId};
    use std::sync::Arc;

    // Two services on one handle: only A ingests and walks. B's stats,
    // which `sync`, the steal gate and admission read, must not see A's.
    let graph = ring(16);
    let telemetry = Telemetry::enabled(0xA11A5);
    let config = ServiceConfig {
        num_shards: 2,
        ..ServiceConfig::default()
    };
    let build = || WalkService::build_with_telemetry(&graph, config, telemetry.clone()).unwrap();
    let (a, b) = (build(), build());
    for k in 0..3 {
        let insert = |src: VertexId| UpdateEvent::Insert {
            src,
            dst: src + 3,
            bias: Bias::from_int(1),
        };
        a.sync(a.ingest(&UpdateBatch::new(vec![insert(k), insert(8 + k)])));
    }
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 16 });
    a.wait(a.submit(spec, &[0, 8]).unwrap());
    let epochs =
        |s: &WalkService| -> Vec<u64> { s.stats().per_shard.iter().map(|s| s.epoch).collect() };
    assert_eq!(epochs(&a), [3, 3]);
    assert_eq!(epochs(&b), [0, 0], "B applied no batch");
    assert!(a.stats().total_steps() > 0);
    assert_eq!(b.stats().total_steps(), 0, "B ran no walk");
    assert_eq!(b.stats().total_updates_applied(), 0);
    // A lone or first instance reads "0", the next "1".
    let snap = telemetry.snapshot();
    let epoch = |service| {
        snap.counter(
            names::SERVICE_SHARD_EPOCH,
            &[("service", service), ("shard", "1")],
        )
    };
    assert_eq!((epoch("0"), epoch("1")), (3, 0));
    let submits = |service| {
        snap.histogram(names::SERVICE_SUBMIT_NS, &[("service", service)])
            .count()
    };
    assert_eq!((submits("0"), submits("1")), (1, 0));
    b.shutdown();

    // Two gateways over A billing the same tenant name: one chunk through
    // the first, three (40 starts at a cap of 16) through the second.
    let service = Arc::new(a);
    let config = GatewayConfig {
        chunk_walkers: 16,
        ..GatewayConfig::default()
    };
    let first = Gateway::new(Arc::clone(&service), config);
    let second = Gateway::new(Arc::clone(&service), config);
    let request = |n: VertexId| {
        let starts = (0..n).map(|i| i % 16).collect();
        WalkRequest::spec(spec).starts(starts).tenant("t")
    };
    first.wait(first.submit(request(16)).unwrap()).unwrap();
    second.wait(second.submit(request(40)).unwrap()).unwrap();
    let chunks = |g: &Gateway| {
        g.stats()
            .tenant(&TenantId::new("t"))
            .unwrap()
            .dispatched_chunks
    };
    assert_eq!((chunks(&first), chunks(&second)), (1, 3));
}

#[test]
fn service_stats_to_json_reports_utilization() {
    let graph = ring(32);
    let service = WalkService::build(
        &graph,
        ServiceConfig {
            num_shards: 2,
            seed: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service builds");
    let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 8 });
    let starts: Vec<VertexId> = (0..32).collect();
    service.wait(service.submit(spec, &starts).expect("submit"));
    let stats = service.shutdown();
    let json = stats.to_json();
    assert_eq!(
        json.matches("\"utilization\":").count(),
        2,
        "one utilization per shard: {json}"
    );
    assert!(
        json.contains(&format!(
            "\"mean_utilization\":{:.4}",
            stats.mean_utilization()
        )),
        "totals report mean utilization: {json}"
    );
    assert!(stats.mean_utilization() >= 0.0);
}
