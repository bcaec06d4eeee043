//! Sharded walk service under load: ≥4 shards serve concurrent walk waves
//! while a stream of ≥10k edge insert/delete/reweight events is ingested,
//! then the final sampling distribution is validated with a chi-square
//! test against the fully-updated graph and per-shard `ServiceStats` are
//! printed.
//!
//! The wave workload runs three times — on the uniform vertex split, on
//! the degree-balanced split (`Partitioner::balanced_by_degree`) and on
//! the visit-weighted split (`Partitioner::balanced_by_visits`, which
//! weighs vertices by seeded warm-up-walk traffic instead of raw degree) —
//! and prints two per-shard views of each: owner-attributed walker
//! routing (judges the partitioner — stealing never moves ownership) and
//! executed step share (judges the runtime — idle shards steal walker
//! batches out of hot shards' inboxes, so execution flattens even on a
//! skewed split). The printed `hottest_shard_step_share` (executed steps,
//! so stealing counts for the thief) is gated at ≤40% by CI. A node2vec
//! wave (served through the `WalkClient` facade) exercises the
//! forwarded-context path.
//!
//! Unless `BINGO_TELEMETRY=off`, the balanced workload then runs a third
//! time with detailed telemetry: the example prints per-stage latency
//! p50/p99 (submit, step batch, inbox dwell, forward hop, collection),
//! sampled walker lifecycle traces stitched across shards, the thread-pool
//! profile, and `telemetry_overhead_pct` — the detailed run's wall-clock
//! cost over the telemetry-disabled baseline (the disabled mode itself
//! adds no clock reads, so the baseline run *is* the no-telemetry cost).
//!
//! With `--obs`, the validation service additionally runs with the
//! observability plane attached: an exposition server binds an ephemeral
//! loopback port (printed as `obs_addr=`), and the example fetches its own
//! `/metrics` and `/healthz` over a plain `TcpStream` so CI can gate on the
//! scraped values in single-process output.
//!
//! ```text
//! cargo run --release --example service_throughput [-- --obs]
//! ```

use bingo::obs::{ObsConfig, ObsServer};
use bingo::prelude::*;
use bingo::sampling::stats::{chi_square, chi_square_critical_999};
use bingo::service::{PartitionStrategy, ServiceConfig};
use bingo::telemetry::{names, Tracer};
use bingo_graph::updates::UpdateKind;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Arc;

/// Minimal HTTP/1.0 GET against the exposition server: returns the body.
fn obs_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to obs server");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
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
const TOTAL_EVENTS: usize = 12_000;
const BATCH_SIZE: usize = 600;
const WALK_LEN: usize = 20;

/// Run the wave workload (one walk wave up front, one after every update
/// batch) on a fresh service with the given partition strategy, returning
/// the final stats and the wave results.
fn serve_waves(
    graph: &DynamicGraph,
    batches: &[UpdateBatch],
    partition: PartitionStrategy,
    telemetry: Telemetry,
) -> (ServiceStats, Vec<TicketResults>, std::time::Duration) {
    let service = WalkService::build_with_telemetry(
        graph,
        ServiceConfig {
            num_shards: SHARDS,
            seed: 0x7417,
            partition,
            ..ServiceConfig::default()
        },
        telemetry,
    )
    .expect("service builds");
    let starts: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
    let spec = WalkSpec::DeepWalk(DeepWalkConfig {
        walk_length: WALK_LEN,
    });

    let t0 = std::time::Instant::now();
    let mut tickets = vec![service.submit(spec, &starts).expect("submit")];
    let mut last_receipt = None;
    for batch in batches {
        last_receipt = Some(service.ingest(batch));
        tickets.push(service.submit(spec, &starts).expect("submit"));
    }
    let waves: Vec<TicketResults> = tickets.into_iter().map(|t| service.wait(t)).collect();
    let elapsed = t0.elapsed();
    service.sync(last_receipt.expect("at least one batch"));
    (service.shutdown(), waves, elapsed)
}

fn step_share(stats: &ServiceStats) -> Vec<f64> {
    let total = stats.total_steps().max(1) as f64;
    stats
        .per_shard
        .iter()
        .map(|s| 100.0 * s.steps as f64 / total)
        .collect()
}

/// Owner-attributed load: walker visits routed to each shard because it
/// owns the vertex, regardless of which task executed them. Stealing
/// moves *execution* between shards but never ownership, so this view —
/// not executed steps — is what judges partition quality.
fn owner_share(stats: &ServiceStats) -> Vec<f64> {
    let total: u64 = stats.per_shard.iter().map(|s| s.walkers_received).sum();
    let total = total.max(1) as f64;
    stats
        .per_shard
        .iter()
        .map(|s| 100.0 * s.walkers_received as f64 / total)
        .collect()
}

fn main() {
    // Observability is opt-in: the --obs flag (ephemeral port) or a
    // BINGO_OBS=host:port bind address. Neither set → no listener at all.
    let obs_enabled = std::env::args().any(|a| a == "--obs")
        || std::env::var(bingo::obs::OBS_ENV).is_ok_and(|v| !v.trim().is_empty());
    // A scaled-down LiveJournal stand-in plus a mixed update stream.
    let mut rng = Pcg64::seed_from_u64(0x5E71CE);
    let mut graph = bingo::graph::datasets::StandinDataset::LiveJournal.build(1_000, &mut rng);
    let stream = UpdateStreamBuilder::new(UpdateKind::Mixed, TOTAL_EVENTS).build(
        &mut graph,
        TOTAL_EVENTS,
        &mut rng,
    );
    let batches = stream.chunks(BATCH_SIZE);
    println!(
        "graph: {} vertices, {} edges; update stream: {} events in {} batches",
        graph.num_vertices(),
        graph.num_edges(),
        stream.len(),
        batches.len()
    );

    // Same wave workload on both partition strategies: the power-law
    // stand-in concentrates degree in the low vertex ids, so the uniform
    // split overloads shard 0 while the degree-balanced split evens out
    // the per-shard step share.
    let (uniform_stats, _, uniform_elapsed) = serve_waves(
        &graph,
        &batches,
        PartitionStrategy::Uniform,
        Telemetry::disabled(),
    );
    let (stats, waves, elapsed) = serve_waves(
        &graph,
        &batches,
        PartitionStrategy::DegreeBalanced,
        Telemetry::disabled(),
    );
    let (visit_stats, _, _) = serve_waves(
        &graph,
        &batches,
        PartitionStrategy::VisitWeighted,
        Telemetry::disabled(),
    );
    let fmt_shares =
        |shares: Vec<f64>| -> Vec<String> { shares.iter().map(|s| format!("{s:.1}%")).collect() };
    // Two views of the same load. Owner-attributed walker routing judges
    // the *partitioner* (stealing never moves ownership); executed steps
    // judge the *runtime* (stealing moves execution off hot shards).
    println!("\nper-shard owner load (% of walker visits routed by ownership):");
    println!(
        "  uniform split:          {:?}",
        fmt_shares(owner_share(&uniform_stats))
    );
    println!(
        "  degree-balanced split:  {:?}",
        fmt_shares(owner_share(&stats))
    );
    println!(
        "  visit-weighted split:   {:?}",
        fmt_shares(owner_share(&visit_stats))
    );
    println!("per-shard step share (% of all steps executed, thief-attributed):");
    println!(
        "  uniform split:          {:?}",
        fmt_shares(step_share(&uniform_stats))
    );
    println!(
        "  degree-balanced split:  {:?}",
        fmt_shares(step_share(&stats))
    );
    println!(
        "  visit-weighted split:   {:?}",
        fmt_shares(step_share(&visit_stats))
    );
    println!(
        "batch stealing: uniform {} batches ({} walkers), degree-balanced {} ({}), \
         visit-weighted {} ({})",
        uniform_stats.total_stolen_batches(),
        uniform_stats.total_stolen_walkers(),
        stats.total_stolen_batches(),
        stats.total_stolen_walkers(),
        visit_stats.total_stolen_batches(),
        visit_stats.total_stolen_walkers(),
    );
    // CI gates on this line: with a balanced split plus inbox stealing, no
    // shard task may end up executing more than 40% of all steps.
    let hottest = 100.0
        * stats
            .hottest_step_share()
            .max(visit_stats.hottest_step_share());
    println!("hottest_shard_step_share={hottest:.1}");

    let total_steps: usize = waves.iter().map(TicketResults::total_steps).sum();
    let total_walks: usize = waves.iter().map(|w| w.paths.len()).sum();
    println!(
        "\nserved {} walks ({} steps) across {} waves while ingesting {} events: \
         {:.3}s balanced vs {:.3}s uniform ({:.0} ksteps/s balanced)",
        total_walks,
        total_steps,
        waves.len(),
        stream.len(),
        elapsed.as_secs_f64(),
        uniform_elapsed.as_secs_f64(),
        total_steps as f64 / elapsed.as_secs_f64() / 1e3,
    );

    // Same balanced workload once more with detailed telemetry: per-stage
    // latency histograms, sampled lifecycle traces, the pool profile, and
    // the wall-clock overhead of recording it all.
    let telemetry = Telemetry::from_env(0x7417, true);
    if telemetry.is_detailed() {
        let (_, _, detailed_elapsed) = serve_waves(
            &graph,
            &batches,
            PartitionStrategy::DegreeBalanced,
            telemetry.clone(),
        );
        bingo::service::record_pool_profile(&telemetry);
        let snap = telemetry.snapshot();
        let stages = [
            ("submit", names::SERVICE_SUBMIT_NS),
            ("step_batch", names::SERVICE_SHARD_STEP_BATCH_NS),
            ("inbox_dwell", names::SERVICE_SHARD_INBOX_DWELL_NS),
            ("update_apply", names::SERVICE_SHARD_UPDATE_APPLY_NS),
            ("forward_hop", names::SERVICE_FORWARD_HOP_NS),
            ("collect", names::SERVICE_COLLECT_NS),
            ("ticket", names::SERVICE_TICKET_LATENCY_NS),
        ];
        println!("\nper-stage latency p50/p99 (ns, log2-bucket lower edges):");
        for (label, name) in stages {
            let h = snap.histogram_across_labels(name);
            println!(
                "  {label:<12} count={:<8} p50={:<10} p99={}",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.99)
            );
        }
        let step_batch_count = snap
            .histogram_across_labels(names::SERVICE_SHARD_STEP_BATCH_NS)
            .count();
        println!("step_batch_count={step_batch_count}");
        println!(
            "pool profile: calls={} chunks={} busy_ns={} idle_ns={}",
            snap.counter(names::POOL_CALLS, &[]),
            snap.counter(names::POOL_CHUNKS_CLAIMED, &[]),
            snap.counter(names::POOL_WORKER_BUSY_NS, &[]),
            snap.counter(names::POOL_WORKER_IDLE_NS, &[]),
        );

        // Sampled lifecycles: deterministic in (seed, ticket, walker), so
        // the same walkers are traced whatever BINGO_THREADS says. Print a
        // few stitched examples, preferring cross-shard journeys.
        let lifecycles = telemetry
            .tracer()
            .map(Tracer::complete_lifecycle_lines)
            .unwrap_or_default();
        let mut shown: Vec<&String> = lifecycles
            .iter()
            .filter(|l| l.contains("hop("))
            .take(2)
            .collect();
        shown.extend(lifecycles.iter().filter(|l| !l.contains("hop(")).take(1));
        println!(
            "sampled walker lifecycles: {} complete (showing {}):",
            lifecycles.len(),
            shown.len()
        );
        for line in shown {
            println!("  {line}");
        }

        let overhead_pct = 100.0 * (detailed_elapsed.as_secs_f64() - elapsed.as_secs_f64())
            / elapsed.as_secs_f64();
        println!(
            "telemetry_overhead_pct={overhead_pct:.1} (detailed {:.3}s vs disabled {:.3}s)",
            detailed_elapsed.as_secs_f64(),
            elapsed.as_secs_f64()
        );

        assert!(step_batch_count > 0, "step-batch latencies were recorded");
        assert!(
            snap.histogram_across_labels(names::SERVICE_FORWARD_HOP_NS)
                .count()
                > 0,
            "cross-shard hops recorded forward latencies"
        );
        assert!(
            lifecycles.iter().any(|l| l.contains("hop(")),
            "at least one sampled lifecycle crossed shards"
        );
    }

    // Validate the post-update sampling distribution on a fresh balanced
    // service over the fully-updated graph: pick the busiest vertex and
    // chi-square the service's transitions against the edge biases.
    let mut mirror = graph.clone();
    mirror.apply_batch(&stream);
    // With --obs the validation service records into a live registry so
    // the exposition server has something to serve.
    let obs_telemetry = if obs_enabled {
        Telemetry::enabled(0x7418)
    } else {
        Telemetry::disabled()
    };
    let service = Arc::new(
        WalkService::build_with_telemetry(
            &mirror,
            ServiceConfig {
                num_shards: SHARDS,
                seed: 0x7418,
                partition: PartitionStrategy::DegreeBalanced,
                ..ServiceConfig::default()
            },
            obs_telemetry.clone(),
        )
        .expect("service builds"),
    );
    let v = (0..mirror.num_vertices() as VertexId)
        .max_by_key(|&v| mirror.degree(v))
        .expect("non-empty graph");
    let mut expected: BTreeMap<VertexId, f64> = BTreeMap::new();
    for e in mirror.neighbors(v).expect("vertex in range").edges() {
        *expected.entry(e.dst).or_insert(0.0) += e.bias.value();
    }
    let total_bias: f64 = expected.values().sum();
    let probs: Vec<f64> = expected.values().map(|w| w / total_bias).collect();

    let trials = 60_000;
    let ticket = service
        .submit(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 1 }),
            &vec![v; trials],
        )
        .expect("submit");
    let results = service.wait(ticket);
    let mut counts: BTreeMap<VertexId, usize> = expected.keys().map(|&dst| (dst, 0)).collect();
    for path in &results.paths {
        *counts.get_mut(&path[1]).expect("sampled an alive edge") += 1;
    }
    let observed: Vec<usize> = counts.values().copied().collect();
    let stat = chi_square(&observed, &probs);
    let critical = chi_square_critical_999(probs.len() - 1) * 1.5;
    println!(
        "\nchi-square validation at vertex {v} (degree {}, {} distinct dsts): \
         stat {stat:.2} vs critical {critical:.2} → {}",
        mirror.degree(v),
        probs.len(),
        if stat < critical { "PASS" } else { "FAIL" }
    );

    // A node2vec wave through the unified client: the second-order factor
    // needs the previous vertex's adjacency, which crosses shards inside
    // forwarded context fingerprints.
    let client = WalkClient::sharded(&service);
    let n2v = client
        .submit(
            WalkRequest::spec(WalkSpec::Node2Vec(Node2VecConfig {
                walk_length: WALK_LEN,
                p: 0.5,
                q: 2.0,
            }))
            .all_vertices()
            .collect(CollectionMode::VisitCounts),
        )
        .expect("submit node2vec")
        .wait();
    println!(
        "node2vec wave via WalkClient: {} walks, {} steps",
        n2v.num_walks, n2v.total_steps
    );

    // With --obs, expose the validation service and scrape ourselves: the
    // printed lines are what CI gates on (nonzero step samples, healthy).
    if obs_enabled {
        // BINGO_OBS picks the bind address when set; --obs alone takes an
        // ephemeral loopback port.
        let from_env = bingo::obs::serve_from_env(&obs_telemetry, Some(Arc::clone(&service)), None);
        let server = match from_env {
            Some(server) => server,
            None => ObsServer::serve(
                ObsConfig::default(),
                obs_telemetry.clone(),
                Some(Arc::clone(&service)),
                None,
            )
            .expect("bind an ephemeral loopback port"),
        };
        println!("obs_addr={}", server.local_addr());
        let metrics = obs_get(server.local_addr(), "/metrics");
        let scraped_steps: u64 = metrics
            .lines()
            .filter(|l| l.starts_with("service_shard_steps"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum();
        println!("obs_metrics_steps_total={scraped_steps}");
        let health = obs_get(server.local_addr(), "/healthz");
        println!("obs_healthz={}", health.trim());
        assert!(
            scraped_steps > 0,
            "scraped /metrics must show executed steps"
        );
        assert_eq!(health.trim(), "ok", "/healthz must report healthy");
        server.shutdown();
    }

    let final_stats = service.stats();
    println!(
        "\nper-shard service stats (validation service):\n{}",
        final_stats.render()
    );

    // Forwarded-context volume of the node2vec wave: snapshots are
    // captured once per (vertex, epoch) and Arc-shared by every walker
    // forwarded in the same wave, so the bytes actually materialized shrink
    // far below the exact-Vec-per-forward baseline. The one-line summary is
    // grepped by CI so the reuse path cannot silently regress.
    let ctx_raw = final_stats.total_context_bytes_raw();
    let ctx_sent = final_stats.total_context_bytes();
    let hit_rate = final_stats.context_cache_hit_rate();
    let shrink = final_stats.context_shrink_factor();
    println!(
        "\nctx_bytes_raw={ctx_raw} ctx_bytes_sent={ctx_sent} cache_hit_rate={hit_rate:.3} \
         ctx_shrink={shrink:.1}x context_misses={}",
        final_stats.total_context_misses()
    );

    assert!(stream.len() >= 10_000, "example must ingest >= 10k events");
    assert!(
        stats
            .per_shard
            .iter()
            .all(|s| s.epoch == batches.len() as u64),
        "every shard applied every batch"
    );
    assert!(stat < critical, "sampling distribution diverged");
    assert_eq!(n2v.num_walks, mirror.num_vertices(), "node2vec wave served");
    assert!(
        final_stats.total_context_bytes() > 0,
        "node2vec forwards carried context"
    );
    assert!(
        shrink >= 5.0,
        "forwarded-context bytes must drop >=5x vs the exact-Vec baseline \
         (raw {ctx_raw} vs sent {ctx_sent}: {shrink:.1}x)"
    );
    assert!(hit_rate > 0.0, "wave-shared snapshots must be reused");
    assert_eq!(
        final_stats.total_context_misses(),
        0,
        "no second-order membership query may fall back to a non-owning shard"
    );
    // Partition quality is judged on owner-attributed routing: stealing
    // rebalances *execution* for every strategy (so executed-step shares
    // converge), but only a better partition reduces the walker traffic a
    // hub shard owns in the first place.
    let uniform_max = owner_share(&uniform_stats)
        .into_iter()
        .fold(0.0f64, f64::max);
    let balanced_max = owner_share(&stats).into_iter().fold(0.0f64, f64::max);
    assert!(
        balanced_max <= uniform_max + 1e-9,
        "degree-balanced split must not increase the hottest shard's owner load \
         ({balanced_max:.1}% vs {uniform_max:.1}%)"
    );
    assert!(
        hottest <= 40.0,
        "balanced split + batch stealing must keep the hottest shard at \
         <=40% of executed steps (got {hottest:.1}%)"
    );
    println!("ok");
}
