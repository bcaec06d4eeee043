//! End-to-end tests for the observability plane: the exposition server's
//! HTTP endpoints, the stall watchdog's 503 flip on a deliberately wedged
//! shard, the event ring's concurrency contract under both the flight
//! recorder and the tracer, and the flight recorder's panic dump.

use bingo::obs::{ObsConfig, ObsServer, WatchdogConfig};
use bingo::prelude::*;
use bingo::telemetry::{
    FlightEvent, FlightEventKind, FlightRecorder, TraceEvent, TraceStage, Tracer,
};
use rand::RngCore;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Minimal HTTP/1.0 GET over a std TcpStream: returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    http_request(addr, &format!("GET {path} HTTP/1.0\r\n\r\n"))
}

fn http_request(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to obs server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read response to close");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body separator");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

fn ring_graph(n: u32) -> DynamicGraph {
    let mut graph = DynamicGraph::new(n as usize);
    for v in 0..n {
        graph
            .insert_edge(v, (v + 1) % n, Bias::from_int(1))
            .expect("ring edge fits the graph");
    }
    graph
}

#[test]
fn exposition_endpoints_round_trip() {
    let telemetry = Telemetry::enabled(7);
    let graph = ring_graph(64);
    let config = ServiceConfig {
        num_shards: 4,
        seed: 7,
        ..ServiceConfig::default()
    };
    let service = Arc::new(
        WalkService::build_with_telemetry(&graph, config, telemetry.clone())
            .expect("service builds on a ring graph"),
    );
    let starts: Vec<u32> = (0..32).collect();
    let ticket = service
        .submit(
            WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 8 }),
            &starts,
        )
        .expect("submit walks");
    let results = service.wait(ticket);
    assert_eq!(results.paths.len(), 32);

    let server = ObsServer::serve(
        ObsConfig::default(),
        telemetry.clone(),
        Some(Arc::clone(&service)),
        None,
    )
    .expect("bind an ephemeral loopback port");
    let addr = server.local_addr();

    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.0 200 OK");
    // Steps are billed to the shard that ran them, and a shard whose range
    // no walk reaches may still have stolen some: sum every shard's line.
    let steps: Vec<u64> = body
        .lines()
        .filter(|l| l.starts_with("service_shard_steps"))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("sample value parses")
        })
        .collect();
    assert_eq!(steps.len(), 4, "one step counter per shard: {body}");
    assert_eq!(steps.iter().sum::<u64>(), 32 * 8, "every step is counted");
    // Pool profile is folded in on scrape.
    assert!(body.contains("pool_calls"), "missing pool profile: {body}");

    let (status, body) = http_get(addr, "/status");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(body.contains("\"healthy\":true"), "status: {body}");
    assert!(body.contains("\"per_shard\":["), "status: {body}");
    // Both event rings report one shape; nothing overflowed in this run.
    let flight = telemetry.flight();
    assert!(flight.recorded() > 0, "the run parked and unparked shards");
    assert!(
        body.contains("\"flight\":{\"capacity\":1024,\"recorded\":"),
        "status: {body}"
    );
    let tracer = telemetry.tracer().expect("tracing on");
    let trace = format!(
        "\"trace\":{{\"capacity\":65536,\"recorded\":{},\"dropped\":0}}",
        tracer.recorded()
    );
    assert!(body.contains(&trace), "status: {body}");

    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert_eq!(body, "ok\n");

    let (status, body) = http_get(addr, "/flight");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(body.starts_with("flight recorder:"), "flight: {body}");

    let (status, _body) = http_get(addr, "/trace");
    assert_eq!(status, "HTTP/1.0 200 OK");

    let (status, _body) = http_get(addr, "/nope");
    assert_eq!(status, "HTTP/1.0 404 Not Found");

    let (status, _body) = http_request(addr, "POST /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, "HTTP/1.0 405 Method Not Allowed");

    // The obs plane counts itself in the registry it serves: one request
    // per endpoint above, one watchdog evaluation per /status and /healthz.
    let snap = telemetry.snapshot();
    let requests = bingo::telemetry::names::OBS_HTTP_REQUESTS;
    for endpoint in [
        "/metrics", "/status", "/healthz", "/flight", "/trace", "other",
    ] {
        assert_eq!(snap.counter(requests, &[("endpoint", endpoint)]), 1);
    }
    assert_eq!(
        snap.counter(bingo::telemetry::names::OBS_WATCHDOG_CHECKS, &[]),
        2
    );

    server.shutdown();
}

#[test]
fn status_reports_pool_counters_before_any_scrape() {
    // The pool profile lives in the shim's process-wide cells; `/status`
    // reads it from the registry, so it must fold the cells in itself
    // rather than show whatever the last `/metrics` scrape left there.
    use rayon::prelude::*;
    let total: u64 = (0..4096u64).collect::<Vec<_>>().into_par_iter().sum();
    assert_eq!(total, 4096 * 4095 / 2);

    let server = ObsServer::serve(ObsConfig::default(), Telemetry::disabled(), None, None)
        .expect("bind an ephemeral loopback port");
    let (status, body) = http_get(server.local_addr(), "/status");
    assert_eq!(status, "HTTP/1.0 200 OK");
    let calls: u64 = body
        .split_once("\"calls\":")
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .expect("/status carries the pool's call count");
    assert!(calls > 0, "a par_iter ran before this read: {body}");
    assert!(body.contains("\"service\":null,\"gateway\":null"), "{body}");
    server.shutdown();
}

/// A walk model whose first step blocks until the test opens the gate —
/// wedging the shard that executes it mid-step.
#[derive(Debug)]
struct WedgeModel {
    gate: Arc<AtomicBool>,
    entered: Arc<AtomicBool>,
}

impl WalkModel for WedgeModel {
    fn name(&self) -> &str {
        "wedge"
    }

    fn expected_length(&self) -> usize {
        1
    }

    fn max_steps(&self) -> usize {
        1
    }

    fn step(
        &self,
        _state: &WalkState,
        _sampler: &dyn StepSampler,
        _rng: &mut dyn RngCore,
    ) -> Transition {
        self.entered.store(true, Ordering::Release);
        while !self.gate.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Transition::Terminate
    }
}

#[test]
fn wedged_shard_flips_healthz_to_503() {
    let telemetry = Telemetry::enabled(11);
    let graph = ring_graph(8);
    let config = ServiceConfig {
        num_shards: 1,
        seed: 11,
        ..ServiceConfig::default()
    };
    let service = Arc::new(
        WalkService::build_with_telemetry(&graph, config, telemetry.clone())
            .expect("service builds on a ring graph"),
    );
    let server = ObsServer::serve(
        ObsConfig {
            watchdog: WatchdogConfig {
                stall_after: Duration::from_millis(50),
                ..WatchdogConfig::default()
            },
            ..ObsConfig::default()
        },
        telemetry.clone(),
        Some(Arc::clone(&service)),
        None,
    )
    .expect("bind an ephemeral loopback port");
    let addr = server.local_addr();

    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    let wedge: SharedWalkModel = Arc::new(WedgeModel {
        gate: Arc::clone(&gate),
        entered: Arc::clone(&entered),
    });
    let wedged_ticket = service
        .submit(Arc::clone(&wedge), &[0])
        .expect("submit the wedging walker");
    while !entered.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
    // A second walker now sits in the wedged shard's inbox: the shard
    // holds queued work while its progress counters are frozen.
    let queued_ticket = service
        .submit(Arc::clone(&wedge), &[1])
        .expect("submit the queued walker");

    // First check seeds the heartbeat baseline; the second, past the
    // threshold, must observe the frozen counters and trip.
    let (status, _body) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.0 200 OK");
    std::thread::sleep(Duration::from_millis(150));
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.0 503 Service Unavailable", "body: {body}");
    assert!(body.contains("shard 0 stalled"), "body: {body}");

    let (status, body) = http_get(addr, "/flight");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(body.contains("watchdog-trip shard=0"), "flight: {body}");

    // Un-wedge: both walks finish and health recovers.
    gate.store(true, Ordering::Release);
    assert_eq!(service.wait(wedged_ticket).paths.len(), 1);
    assert_eq!(service.wait(queued_ticket).paths.len(), 1);
    let (status, _body) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.0 200 OK");

    server.shutdown();
}

#[test]
fn serve_from_env_gates_on_the_env_var() {
    // No other test in this binary reads BINGO_OBS, so mutating the
    // process environment here cannot race with them.
    std::env::remove_var(bingo::obs::OBS_ENV);
    let telemetry = Telemetry::disabled();
    assert!(
        bingo::obs::serve_from_env(&telemetry, None, None).is_none(),
        "unset BINGO_OBS must mean no listener"
    );
    std::env::set_var(bingo::obs::OBS_ENV, "127.0.0.1:0");
    let server =
        bingo::obs::serve_from_env(&telemetry, None, None).expect("BINGO_OBS starts the server");
    std::env::remove_var(bingo::obs::OBS_ENV);
    let (status, body) = http_get(server.local_addr(), "/healthz");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert_eq!(body, "ok\n");
    server.shutdown();
}

#[test]
fn flight_ring_wraparound_under_concurrent_writers() {
    const CAPACITY: usize = 64;
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 20_000;
    const K: u64 = 0x5A5A_F00D_5A5A_F00D;
    // Self-checking payloads: every word of an event derives from its
    // first, so a slot read while two writers' words mix breaks a relation.
    let event = |x: u64| FlightEventKind::StealExecuted {
        thief: x,
        victim: x ^ K,
        walkers: x.rotate_left(17),
    };
    let intact = move |e: &FlightEvent| matches!(e.kind, FlightEventKind::StealExecuted { thief, .. } if e.kind == event(thief));
    let recorder = FlightRecorder::new(CAPACITY);
    let done = AtomicBool::new(false);
    // The reader and the writers start together.
    let start = std::sync::Barrier::new(WRITERS as usize + 1);
    std::thread::scope(|s| {
        let (recorder, start) = (&recorder, &start);
        s.spawn(|| {
            start.wait();
            loop {
                let finished = done.load(Ordering::Acquire);
                let events = recorder.events();
                let torn = events.iter().find(|e| !intact(e));
                assert!(torn.is_none(), "a torn slot read as whole: {torn:?}");
                if finished {
                    return;
                }
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        recorder.record(event(w << 32 | i));
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().expect("writer thread finishes");
        }
        done.store(true, Ordering::Release);
    });
    // The drop counter is exact, not sampled: every slot claim past
    // capacity is one dropped event.
    assert_eq!(recorder.recorded(), WRITERS * PER_WRITER);
    assert_eq!(recorder.dropped(), WRITERS * PER_WRITER - CAPACITY as u64);
    // Once the writers are done the ring holds exactly the last lap, in
    // tick order, however the writers raced.
    let events = recorder.events();
    let ticks: Vec<u64> = events.iter().map(|e| e.tick).collect();
    let last_lap: Vec<u64> =
        (WRITERS * PER_WRITER - CAPACITY as u64..WRITERS * PER_WRITER).collect();
    assert_eq!(ticks, last_lap);
    assert!(events.iter().all(intact));
}

#[test]
fn trace_ring_wraparound_under_concurrent_writers() {
    const CAPACITY: usize = 64;
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 20_000;
    const K: u64 = 0xA5A5_0DF0_A5A5_0DF0;
    // Self-checking payloads over all five words: the ticket, the walker
    // and every stage field derive from one counter, so a slot read while
    // two writers' words mix breaks a relation.
    let event = |x: u64| {
        let stage = TraceStage::GatewayDispatch {
            tenant: x as u32 ^ 0x5A5A_5A5A,
            wait_ns: x.rotate_left(17),
            gateway_ticket: x ^ K,
        };
        (x, (x >> 32) as u32 ^ x as u32, stage)
    };
    let intact = move |e: &TraceEvent| event(e.ticket) == (e.ticket, e.walker, e.stage);
    let tracer = Tracer::new(0, 1, CAPACITY);
    let done = AtomicBool::new(false);
    // The reader and the writers start together.
    let start = std::sync::Barrier::new(WRITERS as usize + 1);
    std::thread::scope(|s| {
        let (tracer, start) = (&tracer, &start);
        s.spawn(|| {
            start.wait();
            loop {
                let finished = done.load(Ordering::Acquire);
                let events = tracer.events();
                let torn = events.iter().find(|e| !intact(e));
                assert!(torn.is_none(), "a torn slot read as whole: {torn:?}");
                if finished {
                    return;
                }
            }
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        let (ticket, walker, stage) = event(w << 32 | i);
                        tracer.record(ticket, walker, stage);
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().expect("writer thread finishes");
        }
        done.store(true, Ordering::Release);
    });
    // The drop counter is exact: every record past capacity is one
    // evicted event.
    assert_eq!(tracer.recorded(), WRITERS * PER_WRITER);
    assert_eq!(tracer.dropped(), WRITERS * PER_WRITER - CAPACITY as u64);
    assert_eq!(tracer.len(), CAPACITY);
    // Once the writers are done the ring holds exactly the last lap, in
    // tick order, however the writers raced.
    let events = tracer.events();
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    let last_lap: Vec<u64> =
        (WRITERS * PER_WRITER - CAPACITY as u64..WRITERS * PER_WRITER).collect();
    assert_eq!(seqs, last_lap);
    assert!(events.iter().all(intact));
}

#[test]
fn panic_hook_dumps_last_recorded_event() {
    let recorder = FlightRecorder::new(16);
    recorder.record(FlightEventKind::ShardPark { shard: 3 });
    recorder.record(FlightEventKind::StealExecuted {
        thief: 1,
        victim: 0,
        walkers: 8,
    });
    let buffer: Arc<parking_lot::Mutex<Vec<u8>>> =
        Arc::new(parking_lot::Mutex::new_named(Vec::new(), "test.obs.sink"));
    struct BufSink(Arc<parking_lot::Mutex<Vec<u8>>>);
    impl Write for BufSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let sink: Box<dyn Write + Send> = Box::new(BufSink(Arc::clone(&buffer)));
    recorder.install_panic_hook_to(Arc::new(parking_lot::Mutex::new_named(
        sink,
        "test.obs.hook",
    )));

    let result = std::thread::spawn(|| panic!("forced panic for the flight hook")).join();
    assert!(result.is_err(), "the spawned thread must have panicked");
    // Detach our hook again so later panics in this binary behave normally.
    let _ = std::panic::take_hook();

    let dumped = String::from_utf8(buffer.lock().clone()).expect("dump is UTF-8");
    assert!(dumped.starts_with("flight recorder:"), "dump: {dumped}");
    assert!(
        dumped.contains("steal thief=1 victim=0 walkers=8"),
        "dump misses the last recorded event: {dumped}"
    );
    assert!(dumped.contains("park shard=3"), "dump: {dumped}");
}
