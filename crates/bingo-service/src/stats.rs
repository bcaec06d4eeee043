//! Service observability: per-shard throughput, occupancy and epoch
//! counters, aggregated into a [`ServiceStats`] snapshot.
//!
//! Since the telemetry refactor the counters are **views over the shared
//! [`bingo_telemetry::Registry`]**: every field of the (crate-internal)
//! `ShardCounters` is a
//! registry-backed handle registered under the stable taxonomy in
//! [`bingo_telemetry::names`] with a `shard` label, so `ServiceStats`, the
//! registry's Prometheus exposition and any external scraper all read the
//! same atomics. Recording cost is unchanged from the pre-registry raw
//! atomics: handles are resolved once at service build, and each record is
//! a single relaxed RMW. [`ServiceStats::to_json`] is the snapshot's one
//! rendering: the examples print it and the obs plane's `/status` embeds
//! it.

use bingo_telemetry::json::{JsonArray, JsonObject};
use bingo_telemetry::{names, Counter, Gauge, Telemetry};
use std::time::Duration;

/// Lock-free counters shared between one shard's task activations and the
/// service handle — registry-backed views (see the module docs). Writers
/// are whichever pool worker runs the shard's task (steps, updates, epoch
/// — or a thief's, for stolen visits) and the message pushers (queue
/// depth); readers take relaxed snapshots.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub steps: Counter,
    pub walkers_received: Counter,
    pub walkers_forwarded: Counter,
    pub walks_completed: Counter,
    pub updates_applied: Counter,
    /// Number of update batches applied so far — the shard's generation
    /// counter. A walk step that reads epoch `e` observed the engine state
    /// after exactly `e` batches. Written with [`Counter::add_release`]
    /// *after* the batch is fully applied; read with
    /// [`Counter::get_acquire`].
    pub epoch: Counter,
    /// Messages currently queued (sender-incremented, worker-decremented).
    pub queue_depth: Gauge,
    /// Highest queue depth the worker has observed on dequeue.
    pub queue_high_water: Gauge,
    /// Nanoseconds the worker spent processing messages (vs. idle).
    pub busy_nanos: Counter,
    /// Bytes of forwarded-context snapshots (membership fingerprints for
    /// second-order models) this shard actually materialized on outbound
    /// walkers: the encoded payload the first time a `(vertex, epoch)`
    /// snapshot ships, a small handle for every reuse.
    pub context_bytes_forwarded: Counter,
    /// Bytes shipping the full snapshot body on every forward (no handle
    /// negotiation) would have cost for the same forwards — the baseline
    /// `context_bytes_forwarded` is measured against.
    pub context_bytes_raw: Counter,
    /// Forwards whose membership snapshot was reused from this shard's
    /// `(vertex, epoch)` cache.
    pub context_cache_hits: Counter,
    /// Forwards whose snapshot had to be captured (cold vertex or first use
    /// this epoch).
    pub context_cache_misses: Counter,
    /// Second-order membership queries that fell back to this shard's
    /// engine for a vertex it does not own because the forwarded context
    /// was missing or mismatched (capture faults — should stay zero; the
    /// collector also `debug_assert!`s that each finished walk recorded
    /// none, on the waiter's thread when it collects the ticket).
    pub context_misses: Counter,
    /// Forwards where this shard offered the receiver a `(vertex, epoch)`
    /// snapshot handle instead of unconditionally shipping the body
    /// (bodies no larger than a handle always ship inline and are not
    /// offered).
    pub context_handle_offers: Counter,
    /// Offered handles whose receiver held the same `(vertex, epoch)`
    /// (its holder bit was set): the forward shipped the 16-byte handle.
    pub context_handle_hits: Counter,
    /// Bytes of encoded walker frames this shard handed to the
    /// [`ShardTransport`](crate::ShardTransport) (serialized mode only;
    /// zero in-process).
    pub transport_bytes_sent: Counter,
    /// The visited path's part of `transport_bytes_sent`, 4 B per vertex.
    pub transport_path_bytes: Counter,
    /// Bytes of walker frames delivered *to* this shard by the transport
    /// and successfully decoded (serialized mode only).
    pub transport_bytes_recv: Counter,
    /// Serialized forwards out of this shard that fell back to the
    /// in-process walker after their frame was billed to
    /// `transport_bytes_sent` (carrier error or unusable bytes).
    pub transport_fallbacks: Counter,
    /// Submissions rejected because this shard's inbox was at its
    /// configured `max_inbox` bound.
    pub saturated_rejections: Counter,
    /// Walker batches this shard's task drained from a hot peer's inbox
    /// (attributed to the *executing* shard, like `steps`, so the stolen
    /// work shows up where the CPU time went).
    pub stolen_batches: Counter,
    /// Walker visits this shard executed via stealing.
    pub stolen_walkers: Counter,
}

impl ShardCounters {
    /// Resolve this shard's counter set from the shared registry, keyed by
    /// the `service` instance label and a `shard` label. Counters and
    /// gauges are always live (disabled telemetry only turns off
    /// histograms and tracing), so the stats snapshots below work in every
    /// mode.
    pub(crate) fn register(telemetry: &Telemetry, service: &str, shard: usize) -> Self {
        let s = shard.to_string();
        let labels: &[(&str, &str)] = &[("service", service), ("shard", &s)];
        ShardCounters {
            steps: telemetry.counter_with(names::SERVICE_SHARD_STEPS, labels),
            walkers_received: telemetry.counter_with(names::SERVICE_SHARD_WALKERS_RECEIVED, labels),
            walkers_forwarded: telemetry
                .counter_with(names::SERVICE_SHARD_WALKERS_FORWARDED, labels),
            walks_completed: telemetry.counter_with(names::SERVICE_SHARD_WALKS_COMPLETED, labels),
            updates_applied: telemetry.counter_with(names::SERVICE_SHARD_UPDATES_APPLIED, labels),
            epoch: telemetry.counter_with(names::SERVICE_SHARD_EPOCH, labels),
            queue_depth: telemetry.gauge_with(names::SERVICE_SHARD_QUEUE_DEPTH, labels),
            queue_high_water: telemetry.gauge_with(names::SERVICE_SHARD_QUEUE_HIGH_WATER, labels),
            busy_nanos: telemetry.counter_with(names::SERVICE_SHARD_BUSY_NS, labels),
            context_bytes_forwarded: telemetry
                .counter_with(names::SERVICE_CONTEXT_BYTES_FORWARDED, labels),
            context_bytes_raw: telemetry.counter_with(names::SERVICE_CONTEXT_BYTES_RAW, labels),
            context_cache_hits: telemetry.counter_with(names::SERVICE_CONTEXT_CACHE_HITS, labels),
            context_cache_misses: telemetry
                .counter_with(names::SERVICE_CONTEXT_CACHE_MISSES, labels),
            context_misses: telemetry
                .counter_with(names::SERVICE_CONTEXT_MEMBERSHIP_FAULTS, labels),
            context_handle_offers: telemetry
                .counter_with(names::SERVICE_CONTEXT_HANDLE_OFFER, labels),
            context_handle_hits: telemetry.counter_with(names::SERVICE_CONTEXT_HANDLE_HIT, labels),
            transport_bytes_sent: telemetry.counter_with(names::TRANSPORT_BYTES_SENT, labels),
            transport_path_bytes: telemetry
                .counter_with(names::SERVICE_TRANSPORT_PATH_BYTES, labels),
            transport_bytes_recv: telemetry.counter_with(names::TRANSPORT_BYTES_RECV, labels),
            transport_fallbacks: telemetry.counter_with(names::SERVICE_TRANSPORT_FALLBACKS, labels),
            saturated_rejections: telemetry
                .counter_with(names::SERVICE_SHARD_SATURATED_REJECTIONS, labels),
            stolen_batches: telemetry.counter_with(names::SERVICE_SHARD_STOLEN_BATCHES, labels),
            stolen_walkers: telemetry.counter_with(names::SERVICE_SHARD_STOLEN_WALKERS, labels),
        }
    }

    pub(crate) fn on_enqueue(&self) {
        self.queue_depth.add(1);
    }

    pub(crate) fn on_dequeue(&self) {
        let depth = self.queue_depth.add(-1);
        if depth > 0 {
            self.queue_high_water.raise(depth);
        }
    }

    /// Take `n` walkers a stopping shard dropped off the depth gauge,
    /// leaving the high-water mark as it was.
    pub(crate) fn on_drop(&self, n: usize) {
        self.queue_depth.add(-(n as i64));
    }

    /// Current inbox occupancy (momentary; can read slightly negative
    /// during a concurrent enqueue/dequeue race).
    pub(crate) fn queue_depth(&self) -> i64 {
        self.queue_depth.get()
    }

    pub(crate) fn snapshot(&self, shard: usize, owned_vertices: usize) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            shard,
            owned_vertices,
            steps: self.steps.get(),
            walkers_received: self.walkers_received.get(),
            walkers_forwarded: self.walkers_forwarded.get(),
            walks_completed: self.walks_completed.get(),
            updates_applied: self.updates_applied.get(),
            epoch: self.epoch.get_acquire(),
            queue_depth: self.queue_depth.get().max(0),
            queue_high_water: self.queue_high_water.get().max(0) as u64,
            busy: Duration::from_nanos(self.busy_nanos.get()),
            context_bytes_forwarded: self.context_bytes_forwarded.get(),
            context_bytes_raw: self.context_bytes_raw.get(),
            context_cache_hits: self.context_cache_hits.get(),
            context_cache_misses: self.context_cache_misses.get(),
            context_misses: self.context_misses.get(),
            context_handle_offers: self.context_handle_offers.get(),
            context_handle_hits: self.context_handle_hits.get(),
            transport_bytes_sent: self.transport_bytes_sent.get(),
            transport_path_bytes: self.transport_path_bytes.get(),
            transport_bytes_recv: self.transport_bytes_recv.get(),
            transport_fallbacks: self.transport_fallbacks.get(),
            saturated_rejections: self.saturated_rejections.get(),
            stolen_batches: self.stolen_batches.get(),
            stolen_walkers: self.stolen_walkers.get(),
        }
    }
}

/// A point-in-time snapshot of one shard's counters.
#[derive(Debug, Clone, Default)]
pub struct ShardStatsSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Number of vertices whose out-edges this shard owns.
    pub owned_vertices: usize,
    /// Walk steps sampled by this shard.
    pub steps: u64,
    /// Walker messages dequeued (submissions + forwards in).
    pub walkers_received: u64,
    /// Walkers forwarded to another shard after crossing an ownership
    /// boundary.
    pub walkers_forwarded: u64,
    /// Walks that terminated on this shard.
    pub walks_completed: u64,
    /// Update events applied (insertions + deletions; a reweight counts as
    /// one delete plus one insert, as in the batched engine).
    pub updates_applied: u64,
    /// The shard's generation counter: update batches applied.
    pub epoch: u64,
    /// Inbox occupancy (messages queued) at snapshot time.
    pub queue_depth: i64,
    /// Highest observed inbound-queue depth.
    pub queue_high_water: u64,
    /// Time spent processing messages.
    pub busy: Duration,
    /// Bytes of forwarded-context snapshots actually materialized on
    /// outbound walkers (second-order models only): encoded payload on a
    /// cache miss, a handle on a hit.
    pub context_bytes_forwarded: u64,
    /// Bytes the exact-`Vec` format would have shipped for the same
    /// forwards (the pre-cache baseline).
    pub context_bytes_raw: u64,
    /// Forwards served from the shard's `(vertex, epoch)` snapshot cache.
    pub context_cache_hits: u64,
    /// Forwards that encoded a fresh snapshot.
    pub context_cache_misses: u64,
    /// Second-order membership queries degraded by a missing/mismatched
    /// carried context (capture faults; should be zero).
    pub context_misses: u64,
    /// Forwards where this shard offered the receiver a snapshot handle.
    pub context_handle_offers: u64,
    /// Offered handles the receiver already held (16-byte forward).
    pub context_handle_hits: u64,
    /// Encoded walker-frame bytes handed to the transport (serialized
    /// mode only).
    pub transport_bytes_sent: u64,
    /// The visited-path part of `transport_bytes_sent`.
    pub transport_path_bytes: u64,
    /// Walker-frame bytes delivered to this shard and decoded (serialized
    /// mode only).
    pub transport_bytes_recv: u64,
    /// Serialized forwards out of this shard that fell back to the
    /// in-process walker (frame sent, not usable on arrival).
    pub transport_fallbacks: u64,
    /// Submissions rejected at this shard's inbox bound.
    pub saturated_rejections: u64,
    /// Walker batches this shard drained from a hot peer's inbox
    /// (executing-shard attribution, like `steps`).
    pub stolen_batches: u64,
    /// Walker visits this shard executed via stealing.
    pub stolen_walkers: u64,
}

impl ShardStatsSnapshot {
    /// Fraction of `uptime` this shard's worker spent processing messages
    /// (busy / uptime, clamped to `[0, 1]`; 0 when uptime is zero). The
    /// complement is idle time parked on the inbox.
    fn utilization(&self, uptime: Duration) -> f64 {
        let secs = uptime.as_secs_f64();
        if secs > 0.0 {
            (self.busy.as_secs_f64() / secs).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Aggregate service statistics: one snapshot per shard plus uptime.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Per-shard snapshots, indexed by shard id.
    pub per_shard: Vec<ShardStatsSnapshot>,
    /// Wall-clock time since the service was built.
    pub uptime: Duration,
}

impl ServiceStats {
    /// Total walk steps across all shards.
    pub fn total_steps(&self) -> u64 {
        self.per_shard.iter().map(|s| s.steps).sum()
    }

    /// Total cross-shard walker forwards.
    pub fn total_forwards(&self) -> u64 {
        self.per_shard.iter().map(|s| s.walkers_forwarded).sum()
    }

    /// Total update events applied across all shards.
    pub fn total_updates_applied(&self) -> u64 {
        self.per_shard.iter().map(|s| s.updates_applied).sum()
    }

    /// Total completed walks.
    pub fn total_walks_completed(&self) -> u64 {
        self.per_shard.iter().map(|s| s.walks_completed).sum()
    }

    /// Total bytes of forwarded-context snapshots actually materialized on
    /// the wire between shards (after handle negotiation).
    pub fn total_context_bytes(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.context_bytes_forwarded)
            .sum()
    }

    /// Total bytes the exact-`Vec` wire format would have shipped for the
    /// same forwards — the baseline for the shrink factor.
    pub fn total_context_bytes_raw(&self) -> u64 {
        self.per_shard.iter().map(|s| s.context_bytes_raw).sum()
    }

    /// Total forwards served from a shard's `(vertex, epoch)` snapshot
    /// cache.
    pub fn total_context_cache_hits(&self) -> u64 {
        self.per_shard.iter().map(|s| s.context_cache_hits).sum()
    }

    /// Total forwards that encoded a fresh snapshot.
    pub fn total_context_cache_misses(&self) -> u64 {
        self.per_shard.iter().map(|s| s.context_cache_misses).sum()
    }

    /// Fraction of context-carrying forwards served from the snapshot
    /// caches (0 when nothing was forwarded).
    pub fn context_cache_hit_rate(&self) -> f64 {
        let hits = self.total_context_cache_hits();
        let total = hits + self.total_context_cache_misses();
        if total > 0 {
            hits as f64 / total as f64
        } else {
            0.0
        }
    }

    /// How many times smaller the materialized context bytes are than the
    /// exact-`Vec` baseline (1.0 when nothing was forwarded).
    pub fn context_shrink_factor(&self) -> f64 {
        let sent = self.total_context_bytes();
        if sent > 0 {
            self.total_context_bytes_raw() as f64 / sent as f64
        } else {
            1.0
        }
    }

    /// Total second-order membership queries degraded by a missing or
    /// mismatched carried context (capture faults; nonzero indicates a
    /// forwarding bug, not load).
    pub fn total_context_misses(&self) -> u64 {
        self.per_shard.iter().map(|s| s.context_misses).sum()
    }

    /// Total snapshot handles offered to receiving shards.
    pub fn total_handle_offers(&self) -> u64 {
        self.per_shard.iter().map(|s| s.context_handle_offers).sum()
    }

    /// Total offered handles the receiver already held.
    pub fn total_handle_hits(&self) -> u64 {
        self.per_shard.iter().map(|s| s.context_handle_hits).sum()
    }

    /// Total offered handles that shipped the body instead (and recorded
    /// the receiver as a holder): every offer is a hit or a body request.
    /// Saturating, because a snapshot taken mid-forward can read a hit
    /// whose offer it missed.
    pub fn total_body_requests(&self) -> u64 {
        self.total_handle_offers()
            .saturating_sub(self.total_handle_hits())
    }

    /// Fraction of offered handles the receiver already held (0 when no
    /// handle was ever offered). This is the negotiation's win rate: a
    /// hit ships 16 bytes where a miss ships the encoded body.
    pub fn handle_hit_rate(&self) -> f64 {
        let offers = self.total_handle_offers();
        if offers > 0 {
            self.total_handle_hits() as f64 / offers as f64
        } else {
            0.0
        }
    }

    /// Total encoded walker-frame bytes handed to the transport
    /// (serialized mode only; zero in-process).
    pub fn total_transport_bytes_sent(&self) -> u64 {
        self.per_shard.iter().map(|s| s.transport_bytes_sent).sum()
    }

    /// Total path bytes of the frames handed to the transport. The header
    /// bytes are the rest: sent − path − [`Self::total_context_bytes`].
    pub fn total_transport_path_bytes(&self) -> u64 {
        self.per_shard.iter().map(|s| s.transport_path_bytes).sum()
    }

    /// Total walker-frame bytes delivered and decoded (serialized mode
    /// only).
    pub fn total_transport_bytes_recv(&self) -> u64 {
        self.per_shard.iter().map(|s| s.transport_bytes_recv).sum()
    }

    /// Total serialized forwards that fell back to the in-process walker
    /// — the forwards behind any `bytes_sent` − `bytes_recv` gap.
    pub fn total_transport_fallbacks(&self) -> u64 {
        self.per_shard.iter().map(|s| s.transport_fallbacks).sum()
    }

    /// Total submissions rejected for inbox saturation.
    pub fn total_saturated_rejections(&self) -> u64 {
        self.per_shard.iter().map(|s| s.saturated_rejections).sum()
    }

    /// Total walker batches stolen from hot shards' inboxes.
    pub fn total_stolen_batches(&self) -> u64 {
        self.per_shard.iter().map(|s| s.stolen_batches).sum()
    }

    /// Total walker visits executed via stealing.
    pub fn total_stolen_walkers(&self) -> u64 {
        self.per_shard.iter().map(|s| s.stolen_walkers).sum()
    }

    /// The hottest shard's share of total executed steps, in `[0, 1]`
    /// (0 when nothing stepped). With stealing active this measures how
    /// evenly *execution* spread across shard tasks, independent of which
    /// shard owned the vertices.
    pub fn hottest_step_share(&self) -> f64 {
        let total = self.total_steps();
        if total == 0 {
            return 0.0;
        }
        let peak = self.per_shard.iter().map(|s| s.steps).max().unwrap_or(0);
        peak as f64 / total as f64
    }

    /// Total messages currently queued across all shard inboxes.
    pub fn total_queue_depth(&self) -> i64 {
        self.per_shard.iter().map(|s| s.queue_depth).sum()
    }

    /// Walk steps per wall-clock second since service start.
    fn steps_per_sec(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            self.total_steps() as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of steps whose destination crossed a shard boundary.
    pub fn forward_ratio(&self) -> f64 {
        let steps = self.total_steps();
        if steps > 0 {
            self.total_forwards() as f64 / steps as f64
        } else {
            0.0
        }
    }

    /// Mean worker utilization (busy / uptime) across all shards.
    pub fn mean_utilization(&self) -> f64 {
        if self.per_shard.is_empty() {
            return 0.0;
        }
        self.per_shard
            .iter()
            .map(|s| s.utilization(self.uptime))
            .sum::<f64>()
            / self.per_shard.len() as f64
    }

    /// The snapshot as one line of JSON — every total and ratio above plus
    /// one object per shard. The examples print it and the obs plane's
    /// `/status` embeds it as `"service"`. Ratios are fixed-precision and
    /// always finite (each guards its zero denominator).
    pub fn to_json(&self) -> String {
        let total_steps = self.total_steps().max(1);
        let mut shards = JsonArray::new();
        for s in &self.per_shard {
            let lookups = (s.context_cache_hits + s.context_cache_misses).max(1);
            let mut shard = JsonObject::new();
            shard
                .field_num("shard", s.shard)
                .field_num("owned_vertices", s.owned_vertices)
                .field_num("steps", s.steps)
                .field_num(
                    "step_share",
                    format!("{:.4}", s.steps as f64 / total_steps as f64),
                )
                .field_num("walkers_received", s.walkers_received)
                .field_num("walkers_forwarded", s.walkers_forwarded)
                .field_num("walks_completed", s.walks_completed)
                .field_num("updates_applied", s.updates_applied)
                .field_num("epoch", s.epoch)
                .field_num("queue_depth", s.queue_depth)
                .field_num("queue_high_water", s.queue_high_water)
                .field_num("stolen_walkers", s.stolen_walkers)
                .field_num("context_bytes_raw", s.context_bytes_raw)
                .field_num("context_bytes", s.context_bytes_forwarded)
                .field_num(
                    "context_cache_hit_rate",
                    format!("{:.4}", s.context_cache_hits as f64 / lookups as f64),
                )
                .field_num("busy_s", format!("{:.3}", s.busy.as_secs_f64()))
                .field_num("utilization", format!("{:.4}", s.utilization(self.uptime)));
            shards.push_raw(&shard.finish());
        }
        let mut out = JsonObject::new();
        out.field_num("shards", self.per_shard.len())
            .field_num("uptime_s", format!("{:.3}", self.uptime.as_secs_f64()))
            .field_num("total_steps", self.total_steps())
            .field_num("steps_per_sec", format!("{:.1}", self.steps_per_sec()))
            .field_num("walks_completed", self.total_walks_completed())
            .field_num("queue_depth", self.total_queue_depth())
            .field_num("forwards", self.total_forwards())
            .field_num("forward_ratio", format!("{:.4}", self.forward_ratio()))
            .field_num("updates_applied", self.total_updates_applied())
            .field_num("stolen_batches", self.total_stolen_batches())
            .field_num("stolen_walkers", self.total_stolen_walkers())
            .field_num(
                "hottest_step_share",
                format!("{:.4}", self.hottest_step_share()),
            )
            .field_num(
                "mean_utilization",
                format!("{:.4}", self.mean_utilization()),
            )
            .field_num("saturated_rejections", self.total_saturated_rejections())
            .field_num("context_bytes_raw", self.total_context_bytes_raw())
            .field_num("context_bytes", self.total_context_bytes())
            .field_num(
                "context_shrink",
                format!("{:.2}", self.context_shrink_factor()),
            )
            .field_num(
                "context_cache_hit_rate",
                format!("{:.4}", self.context_cache_hit_rate()),
            )
            .field_num("context_misses", self.total_context_misses())
            .field_num("handle_offers", self.total_handle_offers())
            .field_num("handle_hits", self.total_handle_hits())
            .field_num("body_requests", self.total_body_requests())
            .field_num("handle_hit_rate", format!("{:.4}", self.handle_hit_rate()))
            .field_num("transport_bytes_sent", self.total_transport_bytes_sent())
            .field_num("transport_path_bytes", self.total_transport_path_bytes())
            .field_num("transport_bytes_recv", self.total_transport_bytes_recv())
            .field_num("transport_fallbacks", self.total_transport_fallbacks())
            .field_raw("per_shard", &shards.finish());
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `to_json` must stay valid JSON on any snapshot: Rust prints a
    /// non-finite float as `NaN` / `inf`, which no JSON parser accepts.
    fn assert_finite_json(json: &str) {
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(
            !json.contains("NaN") && !json.contains("inf"),
            "non-finite number in {json}"
        );
    }

    #[test]
    fn counters_snapshot_roundtrip() {
        let c = ShardCounters::default();
        c.steps.add(10);
        c.on_enqueue();
        c.on_enqueue();
        c.on_dequeue();
        let snap = c.snapshot(3, 100);
        assert_eq!(snap.shard, 3);
        assert_eq!(snap.owned_vertices, 100);
        assert_eq!(snap.steps, 10);
        assert_eq!(snap.queue_high_water, 2);
    }

    #[test]
    fn registered_counters_are_registry_views() {
        let telemetry = Telemetry::disabled();
        let c = ShardCounters::register(&telemetry, "0", 2);
        c.steps.add(7);
        c.epoch.add_release(1);
        let snap = telemetry.snapshot();
        let labels = &[("service", "0"), ("shard", "2")];
        assert_eq!(
            snap.counter(names::SERVICE_SHARD_STEPS, labels),
            7,
            "ShardCounters and the registry share one atomic"
        );
        assert_eq!(snap.counter(names::SERVICE_SHARD_EPOCH, labels), 1);
        assert_eq!(c.snapshot(2, 10).steps, 7);
    }

    #[test]
    fn aggregate_math() {
        let stats = ServiceStats {
            per_shard: vec![
                ShardStatsSnapshot {
                    shard: 0,
                    steps: 30,
                    walkers_forwarded: 3,
                    ..Default::default()
                },
                ShardStatsSnapshot {
                    shard: 1,
                    steps: 70,
                    walkers_forwarded: 7,
                    ..Default::default()
                },
            ],
            uptime: Duration::from_secs(2),
        };
        assert_eq!(stats.total_steps(), 100);
        assert_eq!(stats.total_forwards(), 10);
        assert!((stats.steps_per_sec() - 50.0).abs() < 1e-9);
        assert!((stats.forward_ratio() - 0.1).abs() < 1e-12);
        let json = stats.to_json();
        assert!(json.contains("\"steps_per_sec\":50.0"), "{json}");
        assert!(json.contains("\"forward_ratio\":0.1000"), "{json}");
    }

    #[test]
    fn utilization_is_busy_over_uptime() {
        let stats = ServiceStats {
            per_shard: vec![
                ShardStatsSnapshot {
                    shard: 0,
                    busy: Duration::from_millis(500),
                    ..Default::default()
                },
                ShardStatsSnapshot {
                    shard: 1,
                    busy: Duration::from_millis(1500),
                    ..Default::default()
                },
            ],
            uptime: Duration::from_secs(2),
        };
        assert!((stats.per_shard[0].utilization(stats.uptime) - 0.25).abs() < 1e-12);
        assert!((stats.per_shard[1].utilization(stats.uptime) - 0.75).abs() < 1e-12);
        assert!((stats.mean_utilization() - 0.5).abs() < 1e-12);
        let json = stats.to_json();
        assert!(json.contains("\"utilization\":0.2500"), "per-shard: {json}");
        assert!(json.contains("\"mean_utilization\":0.5000"), "{json}");

        // Degenerate uptimes stay finite and clamped.
        let s = &stats.per_shard[1];
        assert_eq!(s.utilization(Duration::ZERO), 0.0);
        assert_eq!(s.utilization(Duration::from_millis(1)), 1.0, "clamped");
    }

    #[test]
    fn context_aggregates_and_hit_rate() {
        let stats = ServiceStats {
            per_shard: vec![
                ShardStatsSnapshot {
                    shard: 0,
                    context_bytes_raw: 8000,
                    context_bytes_forwarded: 700,
                    context_cache_hits: 90,
                    context_cache_misses: 10,
                    context_misses: 0,
                    ..Default::default()
                },
                ShardStatsSnapshot {
                    shard: 1,
                    context_bytes_raw: 2000,
                    context_bytes_forwarded: 300,
                    context_cache_hits: 30,
                    context_cache_misses: 70,
                    context_misses: 2,
                    ..Default::default()
                },
            ],
            uptime: Duration::from_secs(1),
        };
        assert_eq!(stats.total_context_bytes_raw(), 10_000);
        assert_eq!(stats.total_context_bytes(), 1_000);
        assert!((stats.context_shrink_factor() - 10.0).abs() < 1e-12);
        assert_eq!(stats.total_context_cache_hits(), 120);
        assert_eq!(stats.total_context_cache_misses(), 80);
        assert!((stats.context_cache_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(stats.total_context_misses(), 2);
        let json = stats.to_json();
        assert!(json.contains("\"context_misses\":2"), "{json}");
        assert!(json.contains("\"context_shrink\":10.00"), "{json}");

        // Nothing forwarded: neutral defaults, no division by zero.
        let idle = ServiceStats::default();
        assert_eq!(idle.context_cache_hit_rate(), 0.0);
        assert_eq!(idle.context_shrink_factor(), 1.0);
    }

    #[test]
    fn steal_aggregates_and_hottest_step_share() {
        let stats = ServiceStats {
            per_shard: vec![
                ShardStatsSnapshot {
                    shard: 0,
                    steps: 30,
                    stolen_batches: 2,
                    stolen_walkers: 12,
                    ..Default::default()
                },
                ShardStatsSnapshot {
                    shard: 1,
                    steps: 70,
                    ..Default::default()
                },
            ],
            uptime: Duration::from_secs(1),
        };
        assert_eq!(stats.total_stolen_batches(), 2);
        assert_eq!(stats.total_stolen_walkers(), 12);
        assert!((stats.hottest_step_share() - 0.7).abs() < 1e-12);
        let json = stats.to_json();
        assert!(
            json.contains("\"stolen_batches\":2,\"stolen_walkers\":12"),
            "{json}"
        );
        assert!(json.contains("\"hottest_step_share\":0.7000"), "{json}");
        assert!(json.contains("\"step_share\":0.3000"), "per-shard: {json}");
        // No steps at all: the share is defined as zero, not NaN.
        assert_eq!(ServiceStats::default().hottest_step_share(), 0.0);
    }

    #[test]
    fn negotiation_aggregates_and_handle_hit_rate() {
        let stats = ServiceStats {
            per_shard: vec![
                ShardStatsSnapshot {
                    shard: 0,
                    context_handle_offers: 60,
                    context_handle_hits: 45,
                    transport_bytes_sent: 4096,
                    transport_path_bytes: 1024,
                    transport_fallbacks: 3,
                    ..Default::default()
                },
                ShardStatsSnapshot {
                    shard: 1,
                    context_handle_offers: 40,
                    context_handle_hits: 30,
                    transport_bytes_recv: 4096,
                    ..Default::default()
                },
            ],
            uptime: Duration::from_secs(1),
        };
        assert_eq!(stats.total_handle_offers(), 100);
        assert_eq!(stats.total_handle_hits(), 75);
        assert_eq!(stats.total_body_requests(), 25);
        assert!((stats.handle_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(stats.total_transport_bytes_sent(), 4096);
        assert_eq!(stats.total_transport_path_bytes(), 1024);
        assert_eq!(stats.total_transport_bytes_recv(), 4096);
        assert_eq!(stats.total_transport_fallbacks(), 3);
        let json = stats.to_json();
        assert!(json.contains("\"body_requests\":25"), "{json}");
        assert!(json.contains("\"handle_hit_rate\":0.7500"), "{json}");
        assert!(
            json.contains("\"transport_bytes_sent\":4096,\"transport_path_bytes\":1024"),
            "{json}"
        );
        assert!(json.contains("\"transport_fallbacks\":3"), "{json}");
        // No offers at all: the rate is defined as zero, not NaN.
        assert_eq!(ServiceStats::default().handle_hit_rate(), 0.0);
    }

    #[test]
    fn degenerate_stats_stay_finite_and_render_valid_json() {
        // A busy single-shard service never forwards: steps accumulate
        // while every context counter stays zero. All derived ratios must
        // come back finite and neutral — no NaN, no division by zero —
        // and so must every number `to_json` writes.
        let stats = ServiceStats {
            per_shard: vec![ShardStatsSnapshot {
                shard: 0,
                steps: 1_000_000,
                walks_completed: 10_000,
                ..Default::default()
            }],
            uptime: Duration::from_secs(3),
        };
        assert_eq!(stats.context_shrink_factor(), 1.0);
        assert_eq!(stats.context_cache_hit_rate(), 0.0);
        assert_eq!(stats.forward_ratio(), 0.0);
        assert!(stats.context_shrink_factor().is_finite());
        assert!(stats.context_cache_hit_rate().is_finite());
        let json = stats.to_json();
        assert_finite_json(&json);
        assert!(json.contains("\"forwards\":0"), "{json}");

        // Zero uptime (snapshot taken immediately): rate guards hold.
        let instant = ServiceStats {
            per_shard: vec![ShardStatsSnapshot::default()],
            uptime: Duration::ZERO,
        };
        assert_eq!(instant.steps_per_sec(), 0.0);
        assert_eq!(instant.forward_ratio(), 0.0);
        assert!(instant.steps_per_sec().is_finite());
        assert_finite_json(&instant.to_json());

        // No shards, no uptime: the `Default` a stats reader starts from.
        let empty = ServiceStats::default().to_json();
        assert_finite_json(&empty);
        assert!(empty.contains("\"per_shard\":[]"), "{empty}");
    }
}
