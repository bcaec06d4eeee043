//! The distribution boundary, made real across two OS processes.
//!
//! The parent runs a sharded [`WalkService`] in
//! [`TransportMode::Serialized`]: every cross-shard forward is encoded
//! into the versioned wire frame of `bingo::walks::wire` and handed to a
//! [`ShardTransport`] that writes it, length-prefixed, down a loopback
//! `TcpStream`. The peer is a *separate process* (this same binary,
//! re-executed with `--child <port>`) that plays the remote shard host at
//! the byte level: it reads each forward off the socket, decodes the
//! walker frame and the walk section after it (proving the forward is
//! self-contained: it names its walk), re-encodes both (proving the
//! format is canonical — the echo must be byte-identical), and sends it
//! back. Both sides count raw payload bytes.
//!
//! Three claims are asserted, then printed:
//!
//! 1. **Accounted bytes are wire bytes.** The payload bytes the parent
//!    wrote/read on the socket — and independently, the bytes the child
//!    counted — equal the service's `transport.bytes_sent` /
//!    `transport.bytes_recv` counters exactly.
//! 2. **Serialization is invisible to sampling.** The serialized run's
//!    walk paths are bit-identical to a single-process in-process run
//!    with the same seed, so the chi-square statistic over visit counts
//!    is unchanged (and both pass the 99.9% uniformity gate — the demo
//!    graph is vertex-transitive).
//! 3. **Snapshots survive churn.** Under an update-heavy phase, scoped
//!    context invalidation evicts only the touched vertices, so both the
//!    encode-reuse hit rate and the handle hit rate stay above 90% (flushing every snapshot a
//!    structurally updated shard owns measured 78% on this workload).
//!
//! ```text
//! cargo run --release --example two_process_demo
//! ```

use bingo::prelude::*;
use bingo::sampling::stats::{chi_square_critical_999, chi_square_uniformity};
use bingo::service::{ShardTransport, TransportMode};
use bingo::telemetry::Telemetry;
use bingo::walks::wire;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const NUM_VERTICES: usize = 64;
const SHARDS: usize = 4;
const WALK_LEN: usize = 16;
const WAVES: usize = 3;
const UPDATE_ROUNDS: usize = 8;

/// Shutdown sentinel in the length-prefix channel: the child answers
/// with its two byte counters and exits.
const BYE: u32 = u32::MAX;

// ---------------------------------------------------------------------
// The carrier: a length-prefixed loopback TCP request/response channel.
// ---------------------------------------------------------------------

/// Writes each frame as `[u32 le length][payload]`, reads the echoed
/// frame the same way, and counts payload bytes in both directions.
/// Shard tasks call `carry` concurrently; the mutex serializes the
/// request/response pairs on the single stream.
struct TcpTransport {
    stream: Mutex<TcpStream>,
    sent: AtomicU64,
    recv: AtomicU64,
}

impl ShardTransport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp-loopback"
    }

    fn carry(&self, _to: usize, frame: Vec<u8>) -> io::Result<Vec<u8>> {
        let mut s = self.stream.lock().expect("transport mutex");
        s.write_all(&(frame.len() as u32).to_le_bytes())?;
        s.write_all(&frame)?;
        self.sent.fetch_add(frame.len() as u64, Ordering::Relaxed);
        let mut len4 = [0u8; 4];
        s.read_exact(&mut len4)?;
        let n = u32::from_le_bytes(len4) as usize;
        let mut back = vec![0u8; n];
        s.read_exact(&mut back)?;
        self.recv.fetch_add(n as u64, Ordering::Relaxed);
        Ok(back)
    }
}

// ---------------------------------------------------------------------
// The child: a frame-bouncing remote shard host.
// ---------------------------------------------------------------------

/// Decode every incoming forward (walker frame, then walk section),
/// re-encode it, assert the bytes are identical (the wire format is
/// canonical), echo it back, and on the shutdown sentinel report how many
/// payload bytes crossed each way.
fn run_child(port: u16) -> ! {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("child: connect to parent");
    let (mut recv, mut sent) = (0u64, 0u64);
    loop {
        let mut len4 = [0u8; 4];
        stream.read_exact(&mut len4).expect("child: read length");
        let n = u32::from_le_bytes(len4);
        if n == BYE {
            stream
                .write_all(&recv.to_le_bytes())
                .expect("child: report");
            stream
                .write_all(&sent.to_le_bytes())
                .expect("child: report");
            stream.flush().expect("child: flush report");
            std::process::exit(0);
        }
        let mut frame = vec![0u8; n as usize];
        stream.read_exact(&mut frame).expect("child: read frame");
        recv += frame.len() as u64;
        let (decoded, used) =
            wire::decode_walker(&frame).expect("child: every frame must be self-contained");
        let (walk, walk_len) =
            wire::decode_walk(&frame[used..]).expect("child: every forward names its walk");
        assert!(walk.is_some(), "child: node2vec is a built-in walk");
        assert_eq!(used + walk_len, frame.len(), "child: no trailing bytes");
        let mut echo = Vec::with_capacity(frame.len());
        wire::encode_walker(&decoded, &mut echo);
        wire::encode_walk(walk.as_ref(), &mut echo);
        assert_eq!(echo, frame, "child: re-encode must be byte-identical");
        stream
            .write_all(&(echo.len() as u32).to_le_bytes())
            .expect("child: write length");
        stream.write_all(&echo).expect("child: write frame");
        sent += echo.len() as u64;
    }
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/// A vertex-transitive graph (every edge is a fixed shift mod n), so the
/// stationary visit distribution is uniform and chi-square can gate it.
/// Out-degree 4 makes exact membership snapshots 25 bytes — larger than
/// the 16-byte handle, so negotiation engages.
fn demo_graph() -> DynamicGraph {
    let n = NUM_VERTICES as u32;
    let mut g = DynamicGraph::new(NUM_VERTICES);
    for v in 0..n {
        for (shift, bias) in [(1, 3), (2, 2), (5, 2), (9, 1)] {
            g.insert_edge(v, (v + shift) % n, Bias::from_int(bias))
                .unwrap();
        }
    }
    g
}

fn node2vec() -> WalkSpec {
    WalkSpec::Node2Vec(Node2VecConfig {
        walk_length: WALK_LEN,
        p: 0.5,
        q: 2.0,
    })
}

fn config(transport: TransportMode) -> ServiceConfig {
    ServiceConfig {
        num_shards: SHARDS,
        transport,
        ..ServiceConfig::default()
    }
}

/// Submit `WAVES` identical node2vec waves from every vertex and return
/// the concatenated paths (wave order preserved) plus the final stats.
/// Repeat waves in one epoch are what make handle negotiation hit: the
/// first wave records every receiver as a holder, later waves ship
/// 16-byte handles.
fn run_waves(service: &WalkService) -> Vec<Vec<VertexId>> {
    let starts: Vec<VertexId> = (0..NUM_VERTICES as VertexId).collect();
    let mut paths = Vec::new();
    for _ in 0..WAVES {
        let results = service.wait(service.submit(node2vec(), &starts).unwrap());
        paths.extend(results.paths);
    }
    paths
}

fn visit_counts(paths: &[Vec<VertexId>]) -> Vec<usize> {
    let mut counts = vec![0usize; NUM_VERTICES];
    for path in paths {
        for &v in path {
            counts[v as usize] += 1;
        }
    }
    counts
}

/// The update-heavy phase for claim 3: alternate a walk wave with a
/// structural batch touching one vertex per shard, and report (sender
/// encode-reuse hit rate, receiver handle hit rate).
fn run_update_phase() -> (f64, f64) {
    let graph = demo_graph();
    let service = WalkService::build(&graph, config(TransportMode::Serialized)).unwrap();
    let starts: Vec<VertexId> = (0..NUM_VERTICES as VertexId).collect();
    let span = NUM_VERTICES as u32 / SHARDS as u32;
    for round in 0..UPDATE_ROUNDS as u32 {
        service.wait(service.submit(node2vec(), &starts).unwrap());
        // One touched vertex in each shard's uniform range: exactly
        // these four vertices drop out of the snapshot caches.
        let events: Vec<UpdateEvent> = (0..SHARDS as u32)
            .map(|shard| {
                let src = shard * span + round;
                UpdateEvent::Insert {
                    src,
                    dst: (src + 17 + round) % NUM_VERTICES as u32,
                    bias: Bias::from_int(1),
                }
            })
            .collect();
        let receipt = service.ingest(&UpdateBatch::new(events));
        service.sync(receipt);
    }
    let stats = service.shutdown();
    (stats.context_cache_hit_rate(), stats.handle_hit_rate())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--child" {
        run_child(args[2].parse().expect("child port argument"));
    }

    let graph = demo_graph();

    // ---- Claim 2 baseline: single-process, in-process forwarding. ----
    let service = WalkService::build(&graph, config(TransportMode::InProcess)).unwrap();
    let in_paths = run_waves(&service);
    let in_stats = service.shutdown();
    assert!(in_stats.total_forwards() > 0, "walks must cross shards");

    // ---- Serialized run: every forward crosses a real process boundary. ----
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let port = listener.local_addr().expect("listener addr").port();
    let exe = std::env::current_exe().expect("own binary path");
    let mut child = Command::new(exe)
        .arg("--child")
        .arg(port.to_string())
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn child process");
    let (stream, _) = listener.accept().expect("child connects back");
    let transport = Arc::new(TcpTransport {
        stream: Mutex::new(stream),
        sent: AtomicU64::new(0),
        recv: AtomicU64::new(0),
    });
    let service = WalkService::build_with_transport(
        &graph,
        config(TransportMode::Serialized),
        Telemetry::disabled(),
        transport.clone(),
    )
    .unwrap();
    let ser_paths = run_waves(&service);
    let ser_stats = service.shutdown();

    // Shut the child down and collect its independent byte counts.
    let (child_recv, child_sent) = {
        let mut s = transport.stream.lock().expect("transport mutex");
        s.write_all(&BYE.to_le_bytes()).expect("send shutdown");
        let mut report = [0u8; 16];
        s.read_exact(&mut report).expect("read child report");
        (
            u64::from_le_bytes(report[..8].try_into().unwrap()),
            u64::from_le_bytes(report[8..].try_into().unwrap()),
        )
    };
    let status = child.wait().expect("child exit status");
    assert!(status.success(), "child must exit cleanly: {status:?}");

    // ---- Claim 1: accounted bytes are wire bytes, to the byte. ----
    let socket_sent = transport.sent.load(Ordering::Relaxed);
    let socket_recv = transport.recv.load(Ordering::Relaxed);
    let accounted_sent = ser_stats.total_transport_bytes_sent();
    let accounted_recv = ser_stats.total_transport_bytes_recv();
    assert_eq!(accounted_sent, socket_sent, "sent counter vs socket");
    assert_eq!(accounted_recv, socket_recv, "recv counter vs socket");
    assert_eq!(child_recv, socket_sent, "child saw every sent byte");
    assert_eq!(child_sent, socket_recv, "parent saw every echoed byte");
    assert!(accounted_sent > 0, "serialized forwards shipped frames");
    println!(
        "transport_bytes sent={accounted_sent} recv={accounted_recv} \
         child_recv={child_recv} child_sent={child_sent}"
    );
    println!("transport_bytes_match=true");

    // ---- Claim 2: serialization is invisible to sampling. ----
    assert_eq!(
        in_paths, ser_paths,
        "serialized paths must be bit-identical to in-process paths"
    );
    println!("paths_identical=true");
    let chi_in = chi_square_uniformity(&visit_counts(&in_paths));
    let chi_ser = chi_square_uniformity(&visit_counts(&ser_paths));
    let critical = chi_square_critical_999(NUM_VERTICES - 1);
    assert!(
        (chi_in - chi_ser).abs() < 1e-9,
        "identical paths, identical statistic"
    );
    assert!(chi_ser < critical, "uniformity holds over the wire");
    println!(
        "chi_square_inprocess={chi_in:.3} chi_square_serialized={chi_ser:.3} \
         critical_999={critical:.3}"
    );

    // Handle negotiation across the wire: repeat waves hit warm caches.
    assert!(
        ser_stats.total_handle_offers() > 0,
        "snapshots beat 16 bytes"
    );
    assert!(
        ser_stats.total_handle_hits() > 0,
        "repeat waves hit handles"
    );
    println!(
        "handle_offers={} handle_hits={} body_requests={} handle_hit_rate={:.4}",
        ser_stats.total_handle_offers(),
        ser_stats.total_handle_hits(),
        ser_stats.total_body_requests(),
        ser_stats.handle_hit_rate(),
    );

    // ---- Claim 3: scoped invalidation keeps caches warm under churn. ----
    let (reuse, handles) = run_update_phase();
    assert!(
        reuse > 0.9,
        "sender encode reuse cooled under churn: {reuse:.4}"
    );
    assert!(
        handles > 0.9,
        "handle hits cooled under churn: {handles:.4}"
    );
    println!("scoped_cache_hit_rate={reuse:.4} scoped_handle_hit_rate={handles:.4}");
}
