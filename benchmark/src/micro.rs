//! Micro passes and the stack-tax ladder: the cost of each layer in
//! isolation, on one small seeded graph, once per traced run.
//!
//! These are informational. They say *which* layer's cost moved when an
//! end-to-end metric does; they gate nothing. Every figure is the median
//! of a few repetitions of a fixed amount of work.

use crate::inputs::{GraphShape, Inputs, UpdateMix, UpdateStream};
use crate::load::TENANTS;
use crate::stats;
use crate::Metrics;
use bingo_baselines::{
    DynamicWalkSystem, FlowWalkerBaseline, GSamplerBaseline, IngestMode, KnightKingBaseline,
};
use bingo_core::partition::Partitioner;
use bingo_core::{BingoConfig, BingoEngine, VertexSpace};
use bingo_gateway::{Gateway, GatewayConfig};
use bingo_graph::{
    AdjacencyList, Bias, BiasDistribution, DynamicGraph, Edge, UpdateBatch, VertexId,
};
use bingo_obs::{ObsConfig, ObsServer};
use bingo_sampling::alias::AliasTable;
use bingo_sampling::its::CdfTable;
use bingo_sampling::rejection::RejectionSampler;
use bingo_sampling::rng::Pcg64;
use bingo_sampling::Sampler;
use bingo_service::{ServiceConfig, TransportMode, WalkRequest, WalkService};
use bingo_telemetry::{names, Telemetry};
use bingo_walks::model::CarriedContext;
use bingo_walks::wire::{self, FrameContext, WalkerFrame};
use bingo_walks::{DeepWalkConfig, Node2VecConfig, WalkCursor, WalkEngine, WalkSpec};
use rand::{Rng, RngCore, SeedableRng};
use rayon::prelude::*;
use std::hint::black_box;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 5;

/// Median nanoseconds per operation over [`REPS`] runs of `work`, each of
/// which performs `ops` operations.
fn ns_per_op(ops: u64, mut work: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            work();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&samples)
}

/// Like [`ns_per_op`] for work that reports how many operations it did.
fn ns_per_counted_op(mut work: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let ops = work().max(1);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&samples)
}

/// Power-law weights like the degree-derived biases of the workloads.
fn power_law_weights(n: usize, rng: &mut Pcg64) -> Vec<f64> {
    let law = BiasDistribution::PowerLaw {
        alpha: 2.0,
        max: 4096,
    };
    (0..n).map(|_| law.sample(rng, 0).value()).collect()
}

fn vertex_space_of(degree: usize, rng: &mut Pcg64) -> VertexSpace {
    let mut adj = AdjacencyList::with_capacity(degree);
    for (dst, w) in power_law_weights(degree, rng).into_iter().enumerate() {
        adj.push(Edge::new(dst as VertexId, Bias::from_int(w as u64)));
    }
    VertexSpace::build(adj, BingoConfig::default())
}

const DEEPWALK: WalkSpec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 80 });
const LADDER_TICKETS: usize = 16;

struct Bench<'a> {
    inputs: &'a Inputs,
    graph: DynamicGraph,
    engine: BingoEngine,
    seed: u64,
    /// Divides iteration counts in quick mode.
    shrink: u64,
    out: Metrics,
}

/// Run every micro pass and the ladder.
pub fn run(seed: u64, quick: bool) -> Metrics {
    let shape = GraphShape::LiveJournal {
        log2_vertices: if quick { 11 } else { 14 },
        pairs_per_vertex: 10,
    };
    let inputs = Inputs::generate(shape, 256, seed);
    let graph = inputs.build_graph();
    let engine = BingoEngine::build(&graph, BingoConfig::default()).expect("engine builds");
    let mut bench = Bench {
        inputs: &inputs,
        graph,
        engine,
        seed,
        shrink: if quick { 8 } else { 1 },
        out: Metrics::new(),
    };
    bench.graph_layer();
    bench.sampling_layer();
    bench.core_layer();
    bench.walks_layer();
    bench.runtime_layer();
    bench.telemetry_layer();
    bench.baselines();
    bench.ladder();
    bench.out
}

impl Bench<'_> {
    fn rng(&self, salt: u64) -> Pcg64 {
        Pcg64::seed_from_u64(self.seed ^ salt)
    }

    fn update_batch(&self, events: usize) -> UpdateBatch {
        let mix = UpdateMix {
            batch_events: events,
            toward_hubs: false,
            bias_rewrites: true,
        };
        UpdateStream::new(self.inputs, mix, self.seed).next_batch()
    }

    fn graph_layer(&mut self) {
        let n = self.inputs.num_vertices;
        let ops = 20_000 / self.shrink;
        let mut rng = self.rng(1);
        let fresh: Vec<(VertexId, VertexId)> = (0..ops)
            .map(|_| {
                let src = rng.gen_range(0..n) as VertexId;
                (
                    src,
                    (src + 1 + rng.gen_range(0..n as u32 - 1)) % n as VertexId,
                )
            })
            .collect();
        let mut graph = self.graph.clone();
        // Insert and delete the same edges, so every repetition starts
        // from the same graph.
        let mut insert_ns = Vec::new();
        let mut delete_ns = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            for &(s, d) in &fresh {
                black_box(graph.insert_edge(s, d, Bias::from_int(3)).is_ok());
            }
            insert_ns.push(t.elapsed().as_nanos() as f64 / ops as f64);
            let t = Instant::now();
            for &(s, d) in fresh.iter().rev() {
                black_box(graph.delete_edge(s, d).is_ok());
            }
            delete_ns.push(t.elapsed().as_nanos() as f64 / ops as f64);
        }
        self.out
            .put("graph.insert_edge_ns", stats::median(&insert_ns));
        self.out
            .put("graph.delete_edge_ns", stats::median(&delete_ns));

        let batch = self.update_batch(10_000 / self.shrink as usize);
        let partitioner = Partitioner::new(n, 4);
        self.out.put(
            "graph.split_by_owner_ns_per_event",
            ns_per_op(batch.len() as u64, || {
                black_box(batch.split_by_owner(4, |v| partitioner.owner(v)));
            }),
        );
    }

    fn sampling_layer(&mut self) {
        let mut rng = self.rng(2);
        let ops = 400_000 / self.shrink;
        self.out.put(
            "sampling.pcg64.next_ns",
            ns_per_op(ops, || {
                let mut acc = 0u64;
                for _ in 0..ops {
                    acc ^= rng.next_u64();
                }
                black_box(acc);
            }),
        );
        let weights = power_law_weights(1024, &mut rng);
        let alias = AliasTable::new(&weights).expect("valid weights");
        let its = CdfTable::new(&weights).expect("valid weights");
        let rejection = RejectionSampler::new(&weights).expect("valid weights");
        fn sample_ns<S: Sampler>(s: &S, ops: u64, rng: &mut Pcg64) -> f64 {
            ns_per_op(ops, || {
                let mut acc = 0usize;
                for _ in 0..ops {
                    acc ^= s.sample(rng);
                }
                black_box(acc);
            })
        }
        let ops = 200_000 / self.shrink;
        self.out
            .put("sampling.alias.sample_ns", sample_ns(&alias, ops, &mut rng));
        self.out
            .put("sampling.its.sample_ns", sample_ns(&its, ops, &mut rng));
        self.out.put(
            "sampling.rejection.sample_ns",
            sample_ns(&rejection, ops / 4, &mut rng),
        );
        let builds = 200 / self.shrink;
        self.out.put(
            "sampling.alias.build_ns_per_elem",
            ns_per_op(builds * weights.len() as u64, || {
                for _ in 0..builds {
                    black_box(AliasTable::new(black_box(&weights)).is_ok());
                }
            }),
        );
    }

    fn core_layer(&mut self) {
        let mut rng = self.rng(3);
        let ops = 200_000 / self.shrink;
        for (name, degree) in [
            ("core.vertex_space.sample_ns.deg16", 16),
            ("core.vertex_space.sample_ns.deg1024", 1024),
        ] {
            let space = vertex_space_of(degree, &mut rng);
            let ns = ns_per_op(ops, || {
                let mut acc = 0;
                for _ in 0..ops {
                    acc ^= space.sample_neighbor(&mut rng).unwrap_or(0);
                }
                black_box(acc);
            });
            self.out.put(name, ns);
        }

        let n = self.inputs.num_vertices;
        let engine = &self.engine;
        self.out.put(
            "core.engine.sample_ns",
            ns_per_op(ops, || {
                let mut acc = 0;
                for _ in 0..ops {
                    let v = rng.gen_range(0..n) as VertexId;
                    acc ^= engine.sample_neighbor(v, &mut rng).unwrap_or(0);
                }
                black_box(acc);
            }),
        );

        // Streaming single-edge updates: insert fresh edges, rewrite their
        // biases, delete them again — the engine ends where it started.
        let ops = 5_000 / self.shrink;
        let fresh: Vec<(VertexId, VertexId)> = (0..ops)
            .map(|_| {
                let src = rng.gen_range(0..n) as VertexId;
                (
                    src,
                    (src + 1 + rng.gen_range(0..n as u32 - 1)) % n as VertexId,
                )
            })
            .collect();
        let mut engine = self.engine.clone();
        let (mut ins, mut upd, mut del) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REPS {
            let t = Instant::now();
            for &(s, d) in &fresh {
                black_box(engine.insert_edge(s, d, Bias::from_int(5)).is_ok());
            }
            ins.push(t.elapsed().as_nanos() as f64 / ops as f64);
            let t = Instant::now();
            for &(s, d) in &fresh {
                black_box(engine.update_bias(s, d, Bias::from_int(9)).is_ok());
            }
            upd.push(t.elapsed().as_nanos() as f64 / ops as f64);
            let t = Instant::now();
            for &(s, d) in fresh.iter().rev() {
                black_box(engine.delete_edge(s, d).is_ok());
            }
            del.push(t.elapsed().as_nanos() as f64 / ops as f64);
        }
        self.out.put("core.engine.insert_ns", stats::median(&ins));
        self.out
            .put("core.engine.update_bias_ns", stats::median(&upd));
        self.out.put("core.engine.delete_ns", stats::median(&del));

        let batch = self.update_batch(2_000 / self.shrink as usize);
        let mut engine = self.engine.clone();
        let t = Instant::now();
        let applied = engine.apply_streaming(&batch);
        self.out.put(
            "core.engine.apply_streaming_ns_per_event",
            t.elapsed().as_nanos() as f64 / applied.max(1) as f64,
        );

        let report = self.engine.memory_report();
        self.out.put(
            "core.engine.bytes_per_edge",
            report.total_bytes() as f64 / self.engine.num_edges().max(1) as f64,
        );

        // Fingerprints of previous vertices as a second-order walk meets
        // them: drawn in proportion to degree, so mostly hubs.
        let mut engine = self.engine.clone();
        engine.warm_context();
        let before = engine.context_provider_stats();
        let ops = 20_000 / self.shrink;
        let edges = &self.inputs.edges;
        let ns = ns_per_op(ops, || {
            for _ in 0..ops {
                let v = edges[rng.gen_range(0..edges.len())].0;
                black_box(engine.context_fingerprint_shared(v));
            }
        });
        let after = engine.context_provider_stats();
        let hits = (after.hot_hits - before.hot_hits) as f64;
        let colds = (after.cold_builds - before.cold_builds) as f64;
        self.out.put("core.context.fingerprint_ns", ns);
        self.out
            .put("core.context.hit_rate", hits / (hits + colds).max(1.0));
    }

    fn walks_layer(&mut self) {
        let mut rng = self.rng(4);
        let spec = WalkSpec::Node2Vec(Node2VecConfig {
            walk_length: 40,
            p: 0.5,
            q: 2.0,
        });
        let engine = &self.engine;
        let starts = self.inputs.starts(0);
        self.out.put(
            "walks.cursor.node2vec_step_ns",
            ns_per_counted_op(|| {
                let mut steps = 0;
                for &start in starts {
                    let mut cursor = WalkCursor::new(spec, start);
                    while cursor.step(engine, &mut rng).is_some() {}
                    steps += cursor.steps_taken() as u64;
                }
                steps
            }),
        );

        let (rng_state, rng_inc) = rng.to_raw_parts();
        let frame = WalkerFrame {
            ticket: 7,
            index: 3,
            hops: 2,
            context_misses: 0,
            sampled: false,
            rng_state,
            rng_inc,
            path: starts[..20].to_vec(),
            context: FrameContext::None,
        };
        let ops = 100_000 / self.shrink;
        let mut buf = Vec::with_capacity(256);
        self.out.put(
            "walks.wire.encode_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    buf.clear();
                    black_box(wire::encode_walker(black_box(&frame), &mut buf));
                }
            }),
        );
        self.out.put(
            "walks.wire.decode_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    black_box(wire::decode_walker(black_box(&buf)).is_ok());
                }
            }),
        );
        self.out
            .put("walks.wire.frame_bytes", frame.encoded_len() as f64);
        let context = CarriedContext::exact(9, (0..256).collect());
        let ops = 20_000 / self.shrink;
        self.out.put(
            "walks.wire.context_encode_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    buf.clear();
                    black_box(wire::encode_context(black_box(&context), &mut buf));
                }
            }),
        );
    }

    fn runtime_layer(&mut self) {
        let tasks = 20_000 / self.shrink;
        self.out.put(
            "runtime.spawn_ns",
            ns_per_op(tasks, || {
                let done = Arc::new(AtomicU64::new(0));
                for _ in 0..tasks {
                    let done = Arc::clone(&done);
                    // Release/Acquire: the waiter below must see every
                    // task's increment before it stops the clock.
                    rayon::spawn(move || {
                        done.fetch_add(1, Ordering::Release);
                    });
                }
                while done.load(Ordering::Acquire) < tasks {
                    std::thread::yield_now();
                }
            }),
        );
        let items: Vec<u64> = (0..1024).collect();
        let calls = 2_000 / self.shrink;
        self.out.put(
            "runtime.par_iter_overhead_ns",
            ns_per_op(calls, || {
                for _ in 0..calls {
                    black_box(items.par_iter().map(|&x| x).sum::<u64>());
                }
            }),
        );
    }

    fn telemetry_layer(&mut self) {
        let telemetry = Telemetry::enabled(self.seed);
        let counter = telemetry.counter(names::POOL_CALLS);
        let histogram = telemetry.histogram(names::SERVICE_SUBMIT_NS);
        let ops = 400_000 / self.shrink;
        self.out.put(
            "telemetry.counter_inc_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    counter.inc();
                }
            }),
        );
        self.out.put(
            "telemetry.histogram_record_ns",
            ns_per_op(ops, || {
                for i in 0..ops {
                    histogram.record(black_box(i));
                }
            }),
        );
    }

    fn baselines(&mut self) {
        let batch = self.update_batch(1_000 / self.shrink as usize);
        let starts = self.inputs.starts(1);
        let seed = self.seed;
        fn measure<S: DynamicWalkSystem>(
            mut system: S,
            starts: &[VertexId],
            batch: &UpdateBatch,
            seed: u64,
        ) -> (f64, f64) {
            let step_ns = ns_per_counted_op(|| {
                WalkEngine::new(seed)
                    .run(&system, &DEEPWALK, starts)
                    .total_steps() as u64
            });
            let stats = system.ingest(batch, IngestMode::Batched);
            let update_ns = stats.elapsed.as_nanos() as f64 / batch.len().max(1) as f64;
            (step_ns, update_ns)
        }
        let results = [
            (
                "baselines.knightking.step_ns",
                "baselines.knightking.update_ns_per_event",
                measure(KnightKingBaseline::build(&self.graph), starts, &batch, seed),
            ),
            (
                "baselines.gsampler.step_ns",
                "baselines.gsampler.update_ns_per_event",
                measure(GSamplerBaseline::build(&self.graph), starts, &batch, seed),
            ),
            (
                "baselines.flowwalker.step_ns",
                "baselines.flowwalker.update_ns_per_event",
                measure(FlowWalkerBaseline::build(&self.graph), starts, &batch, seed),
            ),
        ];
        for (step_name, update_name, (step_ns, update_ns)) in results {
            self.out.put(step_name, step_ns);
            self.out.put(update_name, update_ns);
        }
    }

    /// One DeepWalk(80) walk driven by `next`, returning the steps taken.
    fn chain(start: VertexId, mut next: impl FnMut(VertexId) -> Option<VertexId>) -> u64 {
        let mut v = start;
        let mut steps = 0;
        while steps < 80 {
            match next(v) {
                Some(n) => v = n,
                None => break,
            }
            steps += 1;
        }
        black_box(v);
        steps
    }

    fn service(
        &self,
        shards: usize,
        transport: TransportMode,
        telemetry: Telemetry,
    ) -> WalkService {
        let config = ServiceConfig {
            num_shards: shards,
            seed: self.seed,
            transport,
            ..ServiceConfig::default()
        };
        WalkService::build_with_telemetry(&self.graph, config, telemetry).expect("service builds")
    }

    fn service_rung(&self, service: &WalkService) -> f64 {
        ns_per_counted_op(|| {
            (0..LADDER_TICKETS)
                .map(|t| {
                    let ticket = service
                        .submit(DEEPWALK, self.inputs.starts(t))
                        .expect("unbounded inbox admits");
                    service.wait(ticket).total_steps() as u64
                })
                .sum()
        })
    }

    /// ns per DeepWalk(80) step on the same graph and start sets, adding
    /// one layer per rung; a rung's delta over the one below is that
    /// layer's tax.
    fn ladder(&mut self) {
        let engine = &self.engine;
        let inputs = self.inputs;
        let mut rng = self.rng(5);
        let all_starts = || (0..LADDER_TICKETS).flat_map(|t| inputs.starts(t).iter().copied());

        let ns = ns_per_counted_op(|| {
            all_starts()
                .map(|s| {
                    Self::chain(s, |v| {
                        engine
                            .vertex_space(v)
                            .ok()
                            .and_then(|space| space.sample_neighbor(&mut rng))
                    })
                })
                .sum()
        });
        self.out.put("ladder.vertex_space_sample", ns);
        let ns = ns_per_counted_op(|| {
            all_starts()
                .map(|s| Self::chain(s, |v| engine.sample_neighbor(v, &mut rng)))
                .sum()
        });
        self.out.put("ladder.engine_sample", ns);
        let ns = ns_per_counted_op(|| {
            all_starts()
                .map(|s| {
                    let mut cursor = WalkCursor::new(DEEPWALK, s);
                    while cursor.step(engine, &mut rng).is_some() {}
                    cursor.steps_taken() as u64
                })
                .sum()
        });
        self.out.put("ladder.walk_cursor", ns);
        let ns = ns_per_counted_op(|| {
            (0..LADDER_TICKETS)
                .map(|t| {
                    WalkEngine::new(self.seed)
                        .run(engine, &DEEPWALK, inputs.starts(t))
                        .total_steps() as u64
                })
                .sum()
        });
        self.out.put("ladder.walk_engine", ns);

        let off = Telemetry::disabled;
        let one = self.service_rung(&self.service(1, TransportMode::InProcess, off()));
        self.out.put("ladder.service_shards1", one);
        let four_shards = Arc::new(self.service(4, TransportMode::InProcess, off()));
        let four = self.service_rung(&four_shards);
        self.out.put("ladder.service_shards4", four);
        let serialized = self.service_rung(&self.service(4, TransportMode::Serialized, off()));
        self.out.put("ladder.service_serialized", serialized);

        let gateway = Gateway::new(four_shards, GatewayConfig::default());
        let ns = ns_per_counted_op(|| {
            (0..LADDER_TICKETS)
                .map(|t| {
                    let request = WalkRequest::spec(DEEPWALK)
                        .starts(inputs.starts(t).to_vec())
                        .tenant(TENANTS[0].0);
                    let ticket = gateway.submit(request).expect("queue admits");
                    gateway
                        .wait(ticket)
                        .expect("ticket completes")
                        .total_steps() as u64
                })
                .sum()
        });
        gateway.shutdown();
        self.out.put("ladder.gateway", ns);

        let telemetry = Telemetry::enabled(self.seed);
        let observed = Arc::new(self.service(4, TransportMode::InProcess, telemetry.clone()));
        let on = self.service_rung(&observed);
        self.out.put("ladder.telemetry_on", on);
        self.out
            .put("telemetry.overhead_pct", 100.0 * (on / four - 1.0));
        self.out.put(
            "telemetry.snapshot_ns",
            ns_per_op(20, || {
                for _ in 0..20 {
                    black_box(telemetry.snapshot());
                }
            }),
        );
        self.out
            .put("obs.metrics_scrape_ms", scrape_ms(telemetry, observed));
    }
}

/// Median wall time of `GET /metrics` against the exposition server on an
/// ephemeral loopback port; 0 if the sandbox will not let it bind.
fn scrape_ms(telemetry: Telemetry, service: Arc<WalkService>) -> f64 {
    let server = match ObsServer::serve(ObsConfig::default(), telemetry, Some(service), None) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("note: exposition server cannot bind ({e}); obs.metrics_scrape_ms is 0");
            return 0.0;
        }
    };
    let scrape = || -> std::io::Result<f64> {
        let t = Instant::now();
        let mut stream = std::net::TcpStream::connect(server.local_addr())?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
        let mut body = Vec::new();
        stream.read_to_end(&mut body)?;
        black_box(body.len());
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };
    let samples: Vec<f64> = (0..REPS).filter_map(|_| scrape().ok()).collect();
    server.shutdown();
    stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_graph::UpdateEvent;

    #[test]
    fn chain_stops_at_a_dead_end_and_at_the_length_limit() {
        assert_eq!(Bench::chain(0, |v| (v < 5).then_some(v + 1)), 5);
        assert_eq!(Bench::chain(0, |v| Some(v + 1)), 80);
    }

    #[test]
    fn ingest_accounting_matches_the_events_the_baselines_see() {
        // The update events the baselines ingest are the stream's own.
        let inputs = Inputs::generate(GraphShape::Amazon { vertices: 600 }, 8, 1);
        let mix = UpdateMix {
            batch_events: 50,
            toward_hubs: false,
            bias_rewrites: true,
        };
        let batch = UpdateStream::new(&inputs, mix, 1).next_batch();
        let rewrites = batch
            .events()
            .iter()
            .filter(|e| matches!(e, UpdateEvent::UpdateBias { .. }))
            .count();
        assert_eq!(rewrites, 10);
        assert_eq!(batch.num_insertions(), 20);
        assert_eq!(batch.num_deletions(), 20);
    }
}
