//! Unified observability for the Bingo serving stack.
//!
//! Every layer — the sharded walk service, the multi-tenant gateway, the
//! parallel-runtime shim, the bench harness — records into one
//! [`Telemetry`] handle:
//!
//! * **Metrics** ([`Registry`]): named, labeled counters, gauges and
//!   deterministic log2-bucketed [`hist`] histograms. Registration takes a
//!   lock once per metric; recording is lock-free atomics. A snapshot has
//!   one rendering, Prometheus-style text
//!   ([`RegistrySnapshot::to_prometheus`]); the stats types of the service
//!   and gateway render their own views as JSON (`to_json()`) over the same
//!   atomics. The name vocabulary lives in [`names`].
//! * **Tracing** ([`Tracer`]): per-walker lifecycle spans (submit → tenant
//!   queue → DRR dispatch → shard step batches → cross-shard forward hops
//!   → collection) in a bounded lock-free ring, the [`flight`] recorder's
//!   ring type, with deterministic seeded sampling so every layer agrees
//!   on the sampled walker set without coordination.
//! * **Profiling**: the rayon-shim pool and the shard loops feed busy/idle
//!   nanos, batch-apply times and inbox dwell through the same registry.
//!
//! ## Modes
//!
//! [`Telemetry::disabled`] is the zero-added-cost mode: counters and
//! gauges stay live (the serving stack's `ServiceStats`/`GatewayStats` are
//! views over them, and they cost exactly what the pre-telemetry raw
//! atomics cost), while histogram handles become no-ops, `timer()` returns
//! `None` without reading the clock, and no tracer exists. The detailed
//! mode ([`Telemetry::enabled`]) turns on latency histograms and lifecycle
//! tracing; [`Telemetry::from_env`] picks one of the two from
//! `BINGO_TELEMETRY`. The sample rate and both ring bounds are constants
//! ([`TRACE_SAMPLE_ONE_IN`], [`TRACE_CAPACITY`], [`FLIGHT_CAPACITY`]).
//!
//! ```
//! use bingo_telemetry::{names, Telemetry, TraceStage};
//!
//! let tel = Telemetry::enabled(0xB1A5);
//! let steps = tel.counter_with(names::SERVICE_SHARD_STEPS, &[("shard", "0")]);
//! steps.add(128);
//! let lat = tel.histogram(names::SERVICE_COLLECT_NS);
//! lat.record(4096);
//! if tel.is_sampled(7, 0) {
//!     tel.trace(7, 0, TraceStage::Submit { shard: 0, start: 42 });
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter(names::SERVICE_SHARD_STEPS, &[("shard", "0")]), 128);
//! assert_eq!(snap.histogram(names::SERVICE_COLLECT_NS, &[]).quantile(0.5), 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod names;
pub mod registry;
pub mod trace;

pub use flight::{FlightEvent, FlightEventKind, FlightRecorder};
pub use hist::{bucket_index, bucket_lower_bound, HistogramSnapshot, NUM_BUCKETS};
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{MetricKey, MetricValue, Registry, RegistrySnapshot};
pub use trace::{TraceEvent, TraceStage, Tracer};

use std::sync::Arc;
use std::time::{Duration, Instant};

/// One walker in this many is traced in detailed mode
/// ([`Telemetry::enabled`]); every layer agrees on the sampled set without
/// coordination (see [`Tracer::is_sampled`]).
pub const TRACE_SAMPLE_ONE_IN: u64 = 64;

/// Bound on buffered trace events (48 bytes each, allocated at once): past
/// it the oldest event is overwritten and counted in [`Tracer::dropped`].
pub const TRACE_CAPACITY: usize = 65_536;

/// Bound on flight-recorder events. The recorder is always live (recording
/// a rare event is a handful of atomic stores), in every mode including
/// [`Telemetry::disabled`].
pub const FLIGHT_CAPACITY: usize = 1024;

struct Inner {
    registry: Registry,
    detailed: bool,
    tracer: Option<Tracer>,
    flight: FlightRecorder,
    started: Instant,
}

/// The shared observability handle threaded through the serving stack.
/// Cheap to clone; all clones record into the same registry and tracer.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("detailed", &self.inner.detailed)
            .field("tracing", &self.inner.tracer.is_some())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    fn with_tracer(tracer: Option<Tracer>) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                registry: Registry::new(),
                detailed: tracer.is_some(),
                tracer,
                flight: FlightRecorder::new(FLIGHT_CAPACITY),
                started: Instant::now(),
            }),
        }
    }

    /// The zero-added-cost mode: live counters/gauges (stats views keep
    /// working), no histograms, no clock reads, no tracing.
    pub fn disabled() -> Self {
        Telemetry::with_tracer(None)
    }

    /// Full detailed mode: histograms plus 1-in-[`TRACE_SAMPLE_ONE_IN`]
    /// lifecycle tracing under the given sampling seed, into a ring of
    /// [`TRACE_CAPACITY`] events.
    pub fn enabled(trace_seed: u64) -> Self {
        Telemetry::with_tracer(Some(Tracer::new(
            trace_seed,
            TRACE_SAMPLE_ONE_IN,
            TRACE_CAPACITY,
        )))
    }

    /// Resolve the mode from the `BINGO_TELEMETRY` environment variable:
    /// `off`/`0` → [`disabled`](Telemetry::disabled), `on`/`1`/`trace` →
    /// [`enabled`](Telemetry::enabled) with `trace_seed`, anything else
    /// (including unset) → `default_detailed` decides.
    pub fn from_env(trace_seed: u64, default_detailed: bool) -> Self {
        let choice = std::env::var("BINGO_TELEMETRY").unwrap_or_default();
        let detailed = match choice.trim() {
            "off" | "0" => false,
            "on" | "1" | "trace" => true,
            _ => default_detailed,
        };
        if detailed {
            Telemetry::enabled(trace_seed)
        } else {
            Telemetry::disabled()
        }
    }

    /// Whether latency histograms and timing stamps are on.
    #[inline]
    pub fn is_detailed(&self) -> bool {
        self.inner.detailed
    }

    /// A timing stamp — `None` (without reading the clock) when not
    /// detailed. Pair with [`Histogram::record_duration`].
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.inner.detailed {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Time since this handle was created.
    pub fn uptime(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// The underlying registry (for bulk registration).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The counter under `name` (no labels). Always live.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.registry.counter(name, &[])
    }

    /// The counter under `(name, labels)`. Always live.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.inner.registry.counter(name, labels)
    }

    /// The gauge under `name` (no labels). Always live.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.registry.gauge(name, &[])
    }

    /// The gauge under `(name, labels)`. Always live.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.inner.registry.gauge(name, labels)
    }

    /// The histogram under `name` — a no-op handle (and no registry entry)
    /// when not detailed.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// The histogram under `(name, labels)` — a no-op handle (and no
    /// registry entry) when not detailed.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        if self.inner.detailed {
            self.inner.registry.histogram(name, labels)
        } else {
            Histogram::noop()
        }
    }

    /// The tracer, if lifecycle tracing is on.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.inner.tracer.as_ref()
    }

    /// The flight recorder — always live, in every mode. See
    /// the [`crate::flight`] module for the event taxonomy.
    #[inline]
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Whether `(ticket, walker)` is in the sampled trace set (`false`
    /// when tracing is off).
    #[inline]
    pub fn is_sampled(&self, ticket: u64, walker: u64) -> bool {
        self.inner
            .tracer
            .as_ref()
            .is_some_and(|t| t.is_sampled(ticket, walker))
    }

    /// Record a lifecycle span for a sampled walker (no-op when tracing is
    /// off). Callers gate on [`is_sampled`](Telemetry::is_sampled) — or a
    /// cached copy of its answer — before building the stage.
    #[inline]
    pub fn trace(&self, ticket: u64, walker: u32, stage: TraceStage) {
        if let Some(tracer) = &self.inner.tracer {
            tracer.record(ticket, walker, stage);
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.inner.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_keeps_counters_but_drops_histograms_and_traces() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_detailed());
        assert!(tel.timer().is_none());
        assert!(tel.tracer().is_none());
        assert!(!tel.is_sampled(1, 1));
        tel.counter("c").add(3);
        let h = tel.histogram("h");
        h.record(5);
        tel.trace(1, 1, TraceStage::Submit { shard: 0, start: 0 });
        let snap = tel.snapshot();
        assert_eq!(snap.counter("c", &[]), 3, "counters stay live");
        assert!(snap.get("h", &[]).is_none(), "no histogram registered");
    }

    #[test]
    fn detailed_mode_records_everything() {
        let tel = Telemetry::enabled(9);
        assert!(tel.is_detailed());
        assert!(tel.timer().is_some());
        tel.histogram("lat").record(1 << 20);
        let sampled: Vec<u64> = (0..1000).filter(|&w| tel.is_sampled(3, w)).collect();
        assert!(!sampled.is_empty());
        tel.trace(
            3,
            sampled[0] as u32,
            TraceStage::Submit { shard: 1, start: 2 },
        );
        assert_eq!(tel.tracer().unwrap().len(), 1);
        assert_eq!(tel.snapshot().histogram("lat", &[]).quantile(0.5), 1 << 20);
    }

    #[test]
    fn from_env_default_decides_when_unset() {
        // BINGO_TELEMETRY is not set in the test environment.
        if std::env::var("BINGO_TELEMETRY").is_err() {
            assert!(Telemetry::from_env(1, true).is_detailed());
            assert!(!Telemetry::from_env(1, false).is_detailed());
        }
    }
}
