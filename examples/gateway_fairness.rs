//! Multi-tenant fairness under saturating load: two tenants with 3:1
//! weights push identical walk workloads through `bingo-gateway` against a
//! LiveJournal stand-in served by a bounded-inbox `WalkService`.
//!
//! While both tenants are backlogged, the deficit-round-robin dispatcher
//! must grant them step bandwidth in proportion to their weights: at the
//! moment the heavy tenant finishes its offered load, its share of all
//! completed steps must sit within ±10 percentage points of 75%. No
//! request may be dropped — saturation parks chunks in the tenant queues
//! (bounded, never exceeded) and the AIMD window adapts to the service's
//! inbox occupancy.
//!
//! The last line before `ok` is a machine-readable JSON summary: the
//! gateway's own `GatewayStats::to_json` (per-tenant counts, step shares,
//! queue-wait p50/p99, the range the AIMD window moved through) beside the
//! fairness verdicts; every verdict in it is also an `assert!` here, so
//! the example exits non-zero on its own. The run records into one
//! `Telemetry` handle across the gateway and the service, so sampled
//! walker lifecycles stitch the DRR dispatch to the shard-side spans;
//! `BINGO_TELEMETRY=off` opts out (no histograms, no tracer — CI runs the
//! example both ways).
//!
//! With `--obs`, the run additionally exposes the whole stack — gateway
//! and service — through the observability plane on an ephemeral loopback
//! port (printed as `obs_addr=`), then fetches its own `/healthz` and
//! `/status` and asserts on both.
//!
//! ```text
//! cargo run --release --example gateway_fairness [-- --obs]
//! ```

use bingo::gateway::{AimdConfig, TenantId};
use bingo::obs::{ObsConfig, ObsServer};
use bingo::prelude::*;
use bingo::telemetry::json::JsonObject;
use bingo::telemetry::{names, Tracer};
use rand::RngCore;
use std::io::{Read as IoRead, Write as IoWrite};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimal HTTP/1.0 GET against the exposition server: returns the body.
fn obs_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to obs server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read response to close");
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .expect("response has a header/body separator")
}

const SHARDS: usize = 4;
/// Scale divisor for the LiveJournal stand-in (~8k vertices).
const SCALE: u64 = 1_000;
const WALK_LEN: usize = 10;
const REQUESTS_PER_TENANT: usize = 200;
const WALKS_PER_REQUEST: usize = 100;
const HEAVY_WEIGHT: u32 = 3;
const LIGHT_WEIGHT: u32 = 1;
const QUEUE_BOUND: usize = 25_000;

fn main() {
    let obs_enabled = std::env::args().any(|a| a == "--obs");
    let mut rng = Pcg64::seed_from_u64(0x6A7E);
    let graph = bingo::graph::datasets::StandinDataset::LiveJournal.build(SCALE, &mut rng);
    let num_vertices = graph.num_vertices();
    println!(
        "graph: {} vertices, {} edges; tenants: heavy(w={HEAVY_WEIGHT}) vs light(w={LIGHT_WEIGHT}), \
         {REQUESTS_PER_TENANT} requests x {WALKS_PER_REQUEST} walks x {WALK_LEN} steps each",
        graph.num_vertices(),
        graph.num_edges(),
    );

    let telemetry = Telemetry::from_env(0x6A7E, true);
    let service = Arc::new(
        WalkService::build_with_telemetry(
            &graph,
            ServiceConfig {
                num_shards: SHARDS,
                seed: 0x6A7E,
                max_inbox: 64,
                partition: PartitionStrategy::DegreeBalanced,
                ..ServiceConfig::default()
            },
            telemetry.clone(),
        )
        .expect("service builds"),
    );
    let service_for_obs = Arc::clone(&service);
    let gateway = Arc::new(Gateway::new(
        service,
        GatewayConfig {
            chunk_walkers: 32,
            quantum_walkers: 32,
            max_queue_per_tenant: QUEUE_BOUND,
            window: AimdConfig {
                initial: 64,
                min: 32,
                max: 256,
            },
        },
    ));
    // With --obs, expose the full stack for the duration of the run; the
    // fetched values are printed at the end, after the drain.
    let obs_server = if obs_enabled {
        let server = ObsServer::serve(
            ObsConfig::default(),
            telemetry.clone(),
            Some(service_for_obs),
            Some(Arc::clone(&gateway)),
        )
        .expect("bind an ephemeral loopback port");
        println!("obs_addr={}", server.local_addr());
        Some(server)
    } else {
        None
    };

    // Saturating offered load: both tenants enqueue their full workload up
    // front (interleaved, so neither gets a head start), far more than the
    // in-flight window admits at once — the DRR dispatcher decides who
    // drains.
    let offered_walks = (REQUESTS_PER_TENANT * WALKS_PER_REQUEST) as u64;
    let spec = WalkSpec::DeepWalk(DeepWalkConfig {
        walk_length: WALK_LEN,
    });
    let mut start_rng = Pcg64::seed_from_u64(0xFA1);
    let mut random_starts = |n: usize| -> Vec<VertexId> {
        (0..n)
            .map(|_| (start_rng.next_u64() % num_vertices as u64) as VertexId)
            .collect()
    };
    let t0 = Instant::now();
    let mut heavy_tickets = Vec::new();
    let mut light_tickets = Vec::new();
    for _ in 0..REQUESTS_PER_TENANT {
        heavy_tickets.push(
            gateway
                .submit(
                    WalkRequest::spec(spec)
                        .starts(random_starts(WALKS_PER_REQUEST))
                        .tenant("heavy")
                        .weight(HEAVY_WEIGHT),
                )
                .expect("queued, not rejected"),
        );
        light_tickets.push(
            gateway
                .submit(
                    WalkRequest::spec(spec)
                        .starts(random_starts(WALKS_PER_REQUEST))
                        .tenant("light")
                        .weight(LIGHT_WEIGHT),
                )
                .expect("queued, not rejected"),
        );
    }

    // Fairness is measured while both tenants contend: sample the step
    // counters at the moment the heavy tenant's offered load completes.
    let heavy_id = TenantId::new("heavy");
    let light_id = TenantId::new("light");
    let (heavy_steps_at_cut, light_steps_at_cut) = loop {
        let stats = gateway.stats();
        let heavy = stats.tenant(&heavy_id).map_or(0, |t| t.completed_walks);
        if heavy >= offered_walks {
            break (
                stats.tenant(&heavy_id).map_or(0, |t| t.completed_steps),
                stats.tenant(&light_id).map_or(0, |t| t.completed_steps),
            );
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    let cut_total = (heavy_steps_at_cut + light_steps_at_cut).max(1);
    let heavy_share = heavy_steps_at_cut as f64 / cut_total as f64;
    let light_share = light_steps_at_cut as f64 / cut_total as f64;

    // Drain everything: every submission must complete with all its walks
    // (queued under backpressure, never dropped).
    let mut total_paths = 0usize;
    for ticket in heavy_tickets.into_iter().chain(light_tickets) {
        let results = gateway.wait(ticket).expect("no submission fails");
        // The stand-in has dead-end vertices, so walks may legitimately
        // stop early — but every submitted walk must come back, bounded by
        // the requested length.
        assert!(
            results.paths.iter().all(|p| p.len() <= WALK_LEN + 1),
            "no walk exceeds the requested length"
        );
        total_paths += results.paths.len();
    }
    let elapsed = t0.elapsed();
    // Scrape ourselves after the drain: every tenant's completions are in
    // the registry, and a healthy stack must report exactly that.
    if let Some(server) = &obs_server {
        let health = obs_get(server.local_addr(), "/healthz");
        println!("obs_healthz={}", health.trim());
        let status = obs_get(server.local_addr(), "/status");
        println!("obs_status={}", status.trim());
        assert_eq!(health.trim(), "ok", "/healthz must report healthy");
        assert!(
            status.contains("\"per_tenant\":["),
            "/status must carry the gateway tenant table"
        );
        server.shutdown();
    }
    let stats = gateway.stats();
    let heavy_t = stats.tenant(&heavy_id).expect("heavy tenant exists");
    let light_t = stats.tenant(&light_id).expect("light tenant exists");
    let expected_share = HEAVY_WEIGHT as f64 / (HEAVY_WEIGHT + LIGHT_WEIGHT) as f64;
    let fairness_ok = (heavy_share - expected_share).abs() <= 0.10;
    let dropped = heavy_t.failed_walks
        + light_t.failed_walks
        + (heavy_t.submitted_walks - heavy_t.completed_walks)
        + (light_t.submitted_walks - light_t.completed_walks);
    let overloaded = heavy_t.rejected_overloaded + light_t.rejected_overloaded;

    println!(
        "fairness cut at heavy completion: heavy {heavy_steps_at_cut} steps ({:.1}%), \
         light {light_steps_at_cut} steps ({:.1}%), target {:.1}% -> {}",
        100.0 * heavy_share,
        100.0 * light_share,
        100.0 * expected_share,
        if fairness_ok { "PASS" } else { "FAIL" },
    );
    println!(
        "drained {} walks in {:.3}s; window {} (seen {}..{}), {} saturation requeues",
        total_paths,
        elapsed.as_secs_f64(),
        stats.window,
        stats.window_min_seen,
        stats.window_max_seen,
        heavy_t.saturated_requeues + light_t.saturated_requeues,
    );

    // Detailed telemetry: the gateway records into the registry and trace
    // ring it shares with the service, so a sampled walker's lifecycle
    // stitches the DRR dispatch to the shard-side spans.
    let sample_lifecycle = if telemetry.is_detailed() {
        let snap = telemetry.snapshot();
        for name in [names::GATEWAY_TENANT_WAIT_NS, names::GATEWAY_DISPATCH_NS] {
            assert!(
                snap.histogram_across_labels(name).count() > 0,
                "the gateway must record {name} into the registry it shares with the service"
            );
        }
        let lifecycles = telemetry
            .tracer()
            .map(Tracer::complete_lifecycle_lines)
            .unwrap_or_default();
        let dispatched = lifecycles.iter().find(|l| l.contains("dispatch(")).cloned();
        println!(
            "sampled lifecycles: {} complete; example: {}",
            lifecycles.len(),
            dispatched.as_deref().unwrap_or("<none>"),
        );
        assert!(
            dispatched.is_some(),
            "at least one sampled lifecycle must stitch the gateway dispatch \
             to the service spans"
        );
        dispatched
    } else {
        None
    };

    let mut summary = JsonObject::new();
    summary
        .field_str("experiment", "gateway_fairness")
        .field_raw("gateway", &stats.to_json())
        .field_num("heavy_share", format!("{heavy_share:.4}"))
        .field_num("light_share", format!("{light_share:.4}"))
        .field_num("expected_share", format!("{expected_share:.4}"))
        .field_bool("fairness_ok", fairness_ok)
        .field_num("dropped", dropped)
        .field_num("overloaded", overloaded)
        .field_num("queue_bound", QUEUE_BOUND)
        .field_num("elapsed_s", format!("{:.3}", elapsed.as_secs_f64()));
    if let Some(line) = &sample_lifecycle {
        summary.field_str("sample_lifecycle", line);
    }
    println!("{}", summary.finish());

    // Hard acceptance criteria.
    assert_eq!(
        total_paths as u64,
        2 * offered_walks,
        "every offered walk completed"
    );
    assert_eq!(dropped, 0, "no request dropped");
    assert!(
        heavy_t.completed_walks == offered_walks && light_t.completed_walks == offered_walks,
        "both tenants were served in full"
    );
    assert_eq!(overloaded, 0, "queues absorbed the load without rejection");
    assert!(
        heavy_t.peak_queued_walkers <= QUEUE_BOUND && light_t.peak_queued_walkers <= QUEUE_BOUND,
        "per-tenant queue depth stayed under the configured bound"
    );
    assert!(
        fairness_ok,
        "heavy tenant's completed-step share {:.3} must be within 0.10 of {expected_share:.3}",
        heavy_share
    );
    assert!(
        stats.window_min_seen < stats.window_max_seen,
        "the AIMD controller adapted the window at least once"
    );
    println!("ok");
}
