//! `bingo-obs` — the introspection plane for a running Bingo stack.
//!
//! The service crate answers "run walks fast"; this crate answers "what
//! is the stack doing *right now*, and is it healthy?" without attaching
//! a debugger or restarting with logging. Three pieces:
//!
//! * **Exposition server** ([`ObsServer`]): a dependency-free HTTP/1.0
//!   responder on `std::net::TcpListener` serving `/metrics` (Prometheus
//!   text format), `/status` (JSON: the watchdog verdict,
//!   `ServiceStats::to_json`, `GatewayStats::to_json`, the pool profile
//!   and both event rings' occupancy), `/trace` (sampled walker
//!   lifecycles), `/flight` (flight recorder dump) and `/healthz`.
//!   Connections are handled as jobs on the persistent worker pool — no
//!   dedicated serving threads beyond the accept loop itself.
//! * **Flight recorder** (re-exported from `bingo-telemetry`): a bounded
//!   lock-free ring, the tracer's ring type, of structured runtime events
//!   — steals, saturation bounces, window moves, epoch advances, shard
//!   park/unpark — dumped via `/flight` and automatically on panic.
//! * **Stall watchdog** ([`Watchdog`]): a lazy progress-heartbeat check
//!   evaluated on `/healthz` and `/status` reads (no background clock
//!   thread) that flips `/healthz` to 503 when a shard sits on queued
//!   work without progress, or when the gateway's oldest queued chunk
//!   ages past a threshold.
//!
//! Everything is opt-in: with `BINGO_OBS` unset and no [`ObsServer`]
//! constructed, nothing binds, no thread starts, and the serving path
//! is untouched.
//!
//! ```no_run
//! use bingo_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled(7);
//! // ... build a WalkService / Gateway with this telemetry ...
//! let obs = bingo_obs::ObsServer::serve(
//!     bingo_obs::ObsConfig::default(), // 127.0.0.1, ephemeral port
//!     telemetry,
//!     None,
//!     None,
//! )
//! .expect("bind loopback");
//! eprintln!("metrics at http://{}/metrics", obs.local_addr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod server;
pub mod watchdog;

pub use server::{ObsConfig, ObsServer};
pub use watchdog::{StalledShard, Watchdog, WatchdogConfig, WatchdogReport, GATEWAY_SENTINEL};

// The flight recorder lives in bingo-telemetry (so the service can record
// into it without depending on this crate); re-export it here because the
// obs plane is where users meet it.
pub use bingo_telemetry::{FlightEvent, FlightEventKind, FlightRecorder};

use bingo_gateway::Gateway;
use bingo_service::WalkService;
use bingo_telemetry::Telemetry;
use std::sync::Arc;

/// Environment variable holding the exposition bind address
/// (`host:port`, e.g. `127.0.0.1:9898`; port `0` for ephemeral).
pub const OBS_ENV: &str = "BINGO_OBS";

/// Start the exposition server if `BINGO_OBS` is set to a bind address.
///
/// Unset or empty means "observability off": nothing binds, no task is
/// spawned, and `None` comes back immediately — the zero-overhead
/// default. A set-but-unbindable address logs to stderr and returns
/// `None` rather than taking the stack down over a diagnostics port.
pub fn serve_from_env(
    telemetry: &Telemetry,
    service: Option<Arc<WalkService>>,
    gateway: Option<Arc<Gateway>>,
) -> Option<ObsServer> {
    let addr = std::env::var(OBS_ENV).ok()?;
    if addr.trim().is_empty() {
        return None;
    }
    let config = ObsConfig {
        addr: addr.trim().to_string(),
        ..ObsConfig::default()
    };
    match ObsServer::serve(config, telemetry.clone(), service, gateway) {
        Ok(server) => Some(server),
        Err(err) => {
            eprintln!("obs: cannot bind {addr}: {err}; continuing without exposition");
            None
        }
    }
}
