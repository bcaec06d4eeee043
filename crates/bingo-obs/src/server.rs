//! The exposition server: a minimal HTTP/1.0 responder on
//! `std::net::TcpListener` serving the introspection endpoints.
//!
//! No HTTP library, no event loop, no dedicated thread pool: the accept
//! loop runs as one extra worker on the persistent rayon pool (grown by
//! [`rayon::spawn_blocking`] so walk throughput is untouched), and each
//! connection is handled as an ordinary pool job. Responses are
//! `Connection: close` HTTP/1.0 with explicit `Content-Length`, which
//! every Prometheus scraper, curl, and two-line `TcpStream` fetcher
//! understands.
//!
//! | endpoint   | body |
//! |------------|------|
//! | `/metrics` | Prometheus text format over the whole registry |
//! | `/status`  | JSON: watchdog + `ServiceStats::to_json` + `GatewayStats::to_json` + pool + the flight and trace rings' `{capacity, recorded, dropped}` (`trace` is `null` with tracing off) |
//! | `/trace`   | sampled walker lifecycle lines from the [`Tracer`]'s event ring |
//! | `/flight`  | flight-recorder dump (most recent structured events) |
//! | `/healthz` | `ok` (200) or a stall description (503) |
//!
//! [`Tracer`]: bingo_telemetry::Tracer

use crate::watchdog::{Watchdog, WatchdogConfig};
use bingo_gateway::Gateway;
use bingo_service::WalkService;
use bingo_telemetry::json::{JsonArray, JsonObject};
use bingo_telemetry::{names, Counter, Telemetry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`ObsServer::serve`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Address to bind, e.g. `127.0.0.1:9898`; port 0 picks an ephemeral
    /// port (read it back from [`ObsServer::local_addr`]).
    pub addr: String,
    /// Stall thresholds for the lazy watchdog behind `/healthz`.
    pub watchdog: WatchdogConfig,
    /// Per-connection read timeout: a client that connects and then says
    /// nothing cannot pin a pool worker.
    pub read_timeout: Duration,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            addr: "127.0.0.1:0".to_string(),
            watchdog: WatchdogConfig::default(),
            read_timeout: Duration::from_secs(2),
        }
    }
}

struct ServerInner {
    telemetry: Telemetry,
    service: Option<Arc<WalkService>>,
    gateway: Option<Arc<Gateway>>,
    watchdog: Watchdog,
    errors: Counter,
    read_timeout: Duration,
    shutdown: AtomicBool,
}

/// Handle to a running exposition server. Dropping it (or calling
/// [`ObsServer::shutdown`]) stops the accept loop.
pub struct ObsServer {
    inner: Arc<ServerInner>,
    local_addr: SocketAddr,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl ObsServer {
    /// Bind `config.addr`, install the flight-recorder panic hook, and
    /// start serving on the persistent worker pool. Returns once the
    /// listener is bound; the accept loop runs in the background.
    pub fn serve(
        config: ObsConfig,
        telemetry: Telemetry,
        service: Option<Arc<WalkService>>,
        gateway: Option<Arc<Gateway>>,
    ) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        telemetry.flight().install_panic_hook();
        let inner = Arc::new(ServerInner {
            watchdog: Watchdog::new(config.watchdog, &telemetry),
            errors: telemetry.counter(names::OBS_HTTP_ERRORS),
            telemetry,
            service,
            gateway,
            read_timeout: config.read_timeout,
            shutdown: AtomicBool::new(false),
        });
        let accept_inner = Arc::clone(&inner);
        rayon::spawn_blocking(move || accept_loop(listener, accept_inner));
        Ok(ObsServer { inner, local_addr })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop the accept loop. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection so the
        // loop observes the flag and exits.
        if let Ok(stream) = TcpStream::connect(self.local_addr) {
            drop(stream);
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<ServerInner>) {
    loop {
        let conn = listener.accept();
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        match conn {
            Ok((stream, _peer)) => {
                let conn_inner = Arc::clone(&inner);
                rayon::spawn(move || handle_conn(stream, &conn_inner));
            }
            Err(err) => {
                inner.errors.inc();
                eprintln!("obs: accept failed: {err}");
            }
        }
    }
}

/// Read a request head: everything up to the blank line, bounded so a
/// hostile client cannot make us buffer without limit.
fn read_request_head(stream: &mut TcpStream) -> std::io::Result<String> {
    const MAX_HEAD: usize = 8 * 1024;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_HEAD {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

fn handle_conn(mut stream: TcpStream, inner: &ServerInner) {
    let _ = stream.set_read_timeout(Some(inner.read_timeout));
    let head = match read_request_head(&mut stream) {
        Ok(head) => head,
        Err(err) => {
            inner.errors.inc();
            eprintln!("obs: request read failed: {err}");
            return;
        }
    };
    let (status, content_type, body) = respond(&head, inner);
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    if let Err(err) = stream
        .write_all(response.as_bytes())
        .and_then(|()| stream.flush())
    {
        inner.errors.inc();
        eprintln!("obs: response write failed: {err}");
    }
}

const TEXT: &str = "text/plain; charset=utf-8";
const PROM: &str = "text/plain; version=0.0.4";
const JSON: &str = "application/json";

/// Dispatch one parsed request to its endpoint handler.
fn respond(head: &str, inner: &ServerInner) -> (&'static str, &'static str, String) {
    let mut parts = head.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => {
            inner.errors.inc();
            return ("400 Bad Request", TEXT, "malformed request\n".to_string());
        }
    };
    if method != "GET" {
        inner.errors.inc();
        return ("405 Method Not Allowed", TEXT, "GET only\n".to_string());
    }
    let path = target.split('?').next().unwrap_or(target);
    let endpoint = match path {
        "/metrics" | "/status" | "/trace" | "/flight" | "/healthz" => path,
        _ => "other",
    };
    inner
        .telemetry
        .counter_with(names::OBS_HTTP_REQUESTS, &[("endpoint", endpoint)])
        .inc();
    match path {
        "/metrics" => ("200 OK", PROM, render_metrics(inner)),
        "/status" => ("200 OK", JSON, render_status(inner)),
        "/trace" => ("200 OK", TEXT, render_trace(inner)),
        "/flight" => ("200 OK", TEXT, inner.telemetry.flight().dump()),
        "/healthz" => {
            let report = inner
                .watchdog
                .check(inner.service.as_deref(), inner.gateway.as_deref());
            if report.healthy() {
                ("200 OK", TEXT, "ok\n".to_string())
            } else {
                let mut body = report.render();
                body.push('\n');
                ("503 Service Unavailable", TEXT, body)
            }
        }
        _ => {
            inner.errors.inc();
            (
                "404 Not Found",
                TEXT,
                "unknown endpoint; try /metrics /status /trace /flight /healthz\n".to_string(),
            )
        }
    }
}

fn render_metrics(inner: &ServerInner) -> String {
    // The pool profile lives in the shim's process-wide cells: fold it
    // into the registry so the scrape sees it.
    bingo_service::record_pool_profile(&inner.telemetry);
    inner.telemetry.snapshot().to_prometheus()
}

fn render_trace(inner: &ServerInner) -> String {
    match inner.telemetry.tracer() {
        Some(tracer) => tracer.dump(),
        None => "tracing off (disabled telemetry; BINGO_TELEMETRY=on turns it on)\n".to_string(),
    }
}

fn render_status(inner: &ServerInner) -> String {
    let report = inner
        .watchdog
        .check(inner.service.as_deref(), inner.gateway.as_deref());
    // Same fold as `/metrics`: the pool counters below read the registry.
    bingo_service::record_pool_profile(&inner.telemetry);
    let snapshot = inner.telemetry.snapshot();
    let mut root = JsonObject::new();
    root.field_raw(
        "uptime_s",
        &format!("{:.3}", inner.telemetry.uptime().as_secs_f64()),
    );
    root.field_bool("healthy", report.healthy());

    let mut dog = JsonObject::new();
    let mut stalled = JsonArray::new();
    for s in &report.stalled_shards {
        let mut obj = JsonObject::new();
        obj.field_num("shard", s.shard);
        obj.field_num("queue_depth", s.queue_depth);
        obj.field_num("stalled_ms", s.stalled_for.as_millis());
        stalled.push_raw(&obj.finish());
    }
    dog.field_raw("stalled_shards", &stalled.finish());
    dog.field_num(
        "gateway_oldest_queued_ms",
        report
            .gateway_oldest_queued
            .map(|d| d.as_millis())
            .unwrap_or(0),
    );
    dog.field_bool("gateway_stalled", report.gateway_stalled);
    dog.field_num("checks", snapshot.counter(names::OBS_WATCHDOG_CHECKS, &[]));
    dog.field_num("trips", snapshot.counter(names::OBS_WATCHDOG_TRIPS, &[]));
    root.field_raw("watchdog", &dog.finish());

    root.field_raw(
        "service",
        &inner
            .service
            .as_deref()
            .map_or_else(|| "null".to_string(), |s| s.stats().to_json()),
    );
    root.field_raw(
        "gateway",
        &inner
            .gateway
            .as_deref()
            .map_or_else(|| "null".to_string(), |g| g.stats().to_json()),
    );

    let mut pool = JsonObject::new();
    pool.field_num("workers", rayon::current_num_threads());
    pool.field_num("calls", snapshot.counter(names::POOL_CALLS, &[]));
    pool.field_num(
        "chunks_claimed",
        snapshot.counter(names::POOL_CHUNKS_CLAIMED, &[]),
    );
    pool.field_num("steals", snapshot.counter(names::RUNTIME_POOL_STEALS, &[]));
    pool.field_num("tasks", snapshot.counter(names::RUNTIME_POOL_TASKS, &[]));
    root.field_raw("pool", &pool.finish());

    let fl = inner.telemetry.flight();
    let flight = ring_json(fl.capacity(), fl.recorded(), fl.dropped());
    root.field_raw("flight", &flight);
    let trace = inner.telemetry.tracer();
    let trace = trace.map(|t| ring_json(t.capacity(), t.recorded(), t.dropped()));
    root.field_raw("trace", trace.as_deref().unwrap_or("null"));

    let mut body = root.finish();
    body.push('\n');
    body
}

/// One event ring's occupancy: the flight and trace blocks of `/status`.
fn ring_json(capacity: usize, recorded: u64, dropped: u64) -> String {
    let mut ring = JsonObject::new();
    ring.field_num("capacity", capacity);
    ring.field_num("recorded", recorded);
    ring.field_num("dropped", dropped).finish()
}
