//! Gateway observability: per-tenant queue/dispatch/completion counters,
//! queue-wait percentiles, and the range the AIMD window moved through.
//!
//! Like the service's shard counters, the per-tenant accumulators are
//! **views over the shared telemetry registry** (labeled `gateway="<n>"`
//! and `tenant="…"`), so
//! [`GatewayStats`], the registry's Prometheus exposition and external
//! scrapers read one set of atomics. The queue-wait reservoir (exact
//! microsecond percentiles) stays gateway-local; detailed telemetry
//! additionally records waits into the `gateway.tenant.wait_ns` registry
//! histogram. [`GatewayStats::to_json`] is the snapshot's one rendering:
//! the examples print it and the obs plane's `/status` embeds it.

use bingo_sampling::rng::SplitMix64;
use bingo_service::TenantId;
use bingo_telemetry::json::{JsonArray, JsonObject};
use bingo_telemetry::{names, Counter, Gauge, Histogram, Telemetry};
use std::time::Duration;

/// Cap on retained queue-wait samples per tenant. Retention beyond the cap
/// is **reservoir sampling** (Vitter's Algorithm R): every one of the
/// `wait_seen` dispatches so far has equal probability
/// `WAIT_SAMPLE_CAP / wait_seen` of being in the reservoir, so long-run
/// `wait_p50`/`wait_p99` track the whole run instead of freezing on the
/// first `WAIT_SAMPLE_CAP` (warm-up) dispatches.
pub const WAIT_SAMPLE_CAP: usize = 65_536;

/// Internal per-tenant accumulator (owned by the gateway state, snapshot
/// into [`TenantStatsSnapshot`]).
#[derive(Debug, Default)]
pub(crate) struct TenantAccum {
    /// First-submission order number, carried by `GatewayDispatch` spans.
    pub index: u32,
    pub submitted_walks: Counter,
    pub dispatched_chunks: Counter,
    pub completed_walks: Counter,
    pub completed_steps: Counter,
    pub rejected_overloaded: Counter,
    pub saturated_requeues: Counter,
    pub failed_walks: Counter,
    pub peak_queued_walkers: Gauge,
    /// `gateway.tenant.wait_ns` — the registry's log2-bucketed view of the
    /// queue waits (no-op unless telemetry is detailed).
    pub wait_ns: Histogram,
    /// Queue-wait (enqueue → dispatch) reservoir, microseconds.
    pub wait_us: Vec<u64>,
    /// Total waits ever recorded (retained or not).
    pub wait_seen: u64,
    /// SplitMix64 stream driving reservoir replacement. Lazily created
    /// from a fixed seed, so a given dispatch sequence always retains the
    /// same samples (deterministic, reproducible percentiles).
    reservoir_rng: Option<SplitMix64>,
}

impl TenantAccum {
    /// Resolve this tenant's counter set from the shared registry, keyed
    /// by the `gateway` instance label and a `tenant` label.
    pub(crate) fn register(telemetry: &Telemetry, gateway: &str, tenant: &TenantId) -> Self {
        let labels: &[(&str, &str)] = &[("gateway", gateway), ("tenant", tenant.as_str())];
        TenantAccum {
            submitted_walks: telemetry.counter_with(names::GATEWAY_TENANT_SUBMITTED_WALKS, labels),
            dispatched_chunks: telemetry
                .counter_with(names::GATEWAY_TENANT_DISPATCHED_CHUNKS, labels),
            completed_walks: telemetry.counter_with(names::GATEWAY_TENANT_COMPLETED_WALKS, labels),
            completed_steps: telemetry.counter_with(names::GATEWAY_TENANT_COMPLETED_STEPS, labels),
            rejected_overloaded: telemetry
                .counter_with(names::GATEWAY_TENANT_REJECTED_OVERLOADED, labels),
            saturated_requeues: telemetry
                .counter_with(names::GATEWAY_TENANT_SATURATED_REQUEUES, labels),
            failed_walks: telemetry.counter_with(names::GATEWAY_TENANT_FAILED_WALKS, labels),
            peak_queued_walkers: telemetry.gauge_with(names::GATEWAY_TENANT_PEAK_QUEUED, labels),
            wait_ns: telemetry.histogram_with(names::GATEWAY_TENANT_WAIT_NS, labels),
            ..TenantAccum::default()
        }
    }

    pub(crate) fn record_wait(&mut self, wait: Duration) {
        self.wait_ns.record_duration(wait);
        self.record_wait_in_reservoir(wait, WAIT_SAMPLE_CAP);
    }

    /// Algorithm R with an explicit cap (unit tests use a small one so the
    /// post-cap regime is reachable without 65k+ pushes).
    pub(crate) fn record_wait_in_reservoir(&mut self, wait: Duration, cap: usize) {
        let us = wait.as_micros().min(u128::from(u64::MAX)) as u64;
        self.wait_seen += 1;
        if self.wait_us.len() < cap {
            self.wait_us.push(us);
            return;
        }
        // Keep the newcomer with probability cap / seen, evicting a
        // uniformly random incumbent. The modulo bias is < cap / 2^64 —
        // unobservable next to the sampling noise of the percentiles.
        let rng = self.reservoir_rng.get_or_insert_with(|| SplitMix64::new(0));
        let j = rng.next() % self.wait_seen;
        if (j as usize) < cap {
            self.wait_us[j as usize] = us;
        }
    }
}

/// Point-in-time statistics for one tenant.
#[derive(Debug, Clone)]
pub struct TenantStatsSnapshot {
    /// The tenant.
    pub tenant: TenantId,
    /// Its first-submission order number, which its trace spans carry.
    pub index: u32,
    /// Its current scheduling weight.
    pub weight: u32,
    /// Walkers queued at the gateway right now.
    pub queued_walkers: usize,
    /// Highest queue depth (walkers) ever observed for this tenant.
    pub peak_queued_walkers: usize,
    /// Walkers in the requests [`Gateway::submit`](crate::Gateway::submit)
    /// accepted.
    pub submitted_walks: u64,
    /// Chunks handed to the walk service.
    pub dispatched_chunks: u64,
    /// Walks whose results came back.
    pub completed_walks: u64,
    /// Steps those walks took.
    pub completed_steps: u64,
    /// Submissions bounced with `GatewayError::Overloaded` (queue bound).
    pub rejected_overloaded: u64,
    /// Chunks the service refused with a retryable `Saturated` that were
    /// put back at the queue front (never dropped).
    pub saturated_requeues: u64,
    /// Walks lost to a non-retryable service rejection (terminal error on
    /// their submission; should stay zero in a well-configured deployment).
    pub failed_walks: u64,
    /// Median queue wait (enqueue → dispatch) across retained samples.
    pub wait_p50: Duration,
    /// 99th-percentile queue wait.
    pub wait_p99: Duration,
    /// Worst retained queue wait.
    pub wait_max: Duration,
}

/// Aggregate gateway statistics.
#[derive(Debug, Clone, Default)]
pub struct GatewayStats {
    /// Per-tenant snapshots, sorted by tenant id.
    pub per_tenant: Vec<TenantStatsSnapshot>,
    /// Current AIMD window (walkers).
    pub window: usize,
    /// Smallest window the controller reached.
    pub window_min_seen: usize,
    /// Largest window the controller reached.
    pub window_max_seen: usize,
    /// Walkers currently dispatched and not yet completed.
    pub in_flight_walkers: usize,
    /// Wall-clock time since the gateway was built.
    pub uptime: Duration,
}

impl GatewayStats {
    /// Stats row for `tenant`, if it ever submitted.
    pub fn tenant(&self, tenant: &TenantId) -> Option<&TenantStatsSnapshot> {
        self.per_tenant.iter().find(|t| &t.tenant == tenant)
    }

    /// Total completed steps across all tenants.
    fn total_completed_steps(&self) -> u64 {
        self.per_tenant.iter().map(|t| t.completed_steps).sum()
    }

    /// Total completed walks across all tenants.
    pub fn total_completed_walks(&self) -> u64 {
        self.per_tenant.iter().map(|t| t.completed_walks).sum()
    }

    /// `tenant`'s share of all completed steps, in `[0, 1]` (0 when
    /// nothing completed yet) — the quantity the fairness example and
    /// tests compare against the weight share.
    pub fn completed_step_share(&self, tenant: &TenantId) -> f64 {
        let total = self.total_completed_steps();
        if total == 0 {
            return 0.0;
        }
        self.tenant(tenant)
            .map_or(0.0, |t| t.completed_steps as f64 / total as f64)
    }

    /// The snapshot as one line of JSON — the window, the totals and one
    /// object per tenant. The examples print it and the obs plane's
    /// `/status` embeds it as `"gateway"`. Ratios are fixed-precision and
    /// always finite.
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        let mut tenants = JsonArray::new();
        for t in &self.per_tenant {
            let mut tenant = JsonObject::new();
            tenant
                .field_str("tenant", t.tenant.as_str())
                .field_num("index", t.index)
                .field_num("weight", t.weight)
                .field_num("queued_walkers", t.queued_walkers)
                .field_num("peak_queued_walkers", t.peak_queued_walkers)
                .field_num("submitted_walks", t.submitted_walks)
                .field_num("dispatched_chunks", t.dispatched_chunks)
                .field_num("completed_walks", t.completed_walks)
                .field_num("completed_steps", t.completed_steps)
                .field_num(
                    "step_share",
                    format!("{:.4}", self.completed_step_share(&t.tenant)),
                )
                .field_num("saturated_requeues", t.saturated_requeues)
                .field_num("rejected_overloaded", t.rejected_overloaded)
                .field_num("failed_walks", t.failed_walks)
                .field_num("wait_p50_ms", ms(t.wait_p50))
                .field_num("wait_p99_ms", ms(t.wait_p99))
                .field_num("wait_max_ms", ms(t.wait_max));
            tenants.push_raw(&tenant.finish());
        }
        let mut out = JsonObject::new();
        out.field_num("window", self.window)
            .field_num("window_min_seen", self.window_min_seen)
            .field_num("window_max_seen", self.window_max_seen)
            .field_num("in_flight_walkers", self.in_flight_walkers)
            .field_num(
                "queued_walkers",
                self.per_tenant
                    .iter()
                    .map(|t| t.queued_walkers)
                    .sum::<usize>(),
            )
            .field_num("completed_walks", self.total_completed_walks())
            .field_num("completed_steps", self.total_completed_steps())
            .field_num("uptime_s", format!("{:.3}", self.uptime.as_secs_f64()))
            .field_raw("per_tenant", &tenants.finish());
        out.finish()
    }
}

/// Nearest-rank percentile over *already sorted* wait samples, `q` in
/// `[0, 1]`. Callers sort once and read as many percentiles as they need.
pub(crate) fn percentile_sorted(sorted: &[u64], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    Duration::from_micros(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_tracks_the_whole_run_not_just_warmup() {
        let cap = 256;
        let mut accum = TenantAccum::default();
        // Warm-up: `cap` fast dispatches at 100µs.
        for _ in 0..cap {
            accum.record_wait_in_reservoir(Duration::from_micros(100), cap);
        }
        assert_eq!(accum.wait_us.len(), cap);
        assert_eq!(accum.wait_seen, cap as u64);
        // Then a long steady state 9× larger at 900µs. The truncating cap
        // this replaces would keep p50 frozen at 100µs forever.
        for _ in 0..9 * cap {
            accum.record_wait_in_reservoir(Duration::from_micros(900), cap);
        }
        assert_eq!(accum.wait_us.len(), cap, "reservoir never exceeds cap");
        assert_eq!(accum.wait_seen, 10 * cap as u64);
        let mut sorted = accum.wait_us.clone();
        sorted.sort_unstable();
        let p50 = percentile_sorted(&sorted, 0.5);
        assert_eq!(
            p50,
            Duration::from_micros(900),
            "median must reflect steady state (~90% of samples), not warm-up"
        );
        // Warm-up is still *represented* (each of the 10·cap waits has
        // probability 1/10 of retention; P(no 100µs survivor) ≈ 10^-12).
        assert!(
            sorted.first() == Some(&100),
            "some warm-up samples survive in the reservoir"
        );
    }

    #[test]
    fn reservoir_is_deterministic() {
        let feed = |n: u64| {
            let mut accum = TenantAccum::default();
            for i in 0..n {
                accum.record_wait_in_reservoir(Duration::from_micros(i * 7 % 1000), 128);
            }
            accum.wait_us
        };
        assert_eq!(feed(5000), feed(5000));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        s.sort_unstable();
        assert_eq!(percentile_sorted(&s, 0.5), Duration::from_micros(50));
        assert_eq!(percentile_sorted(&s, 0.99), Duration::from_micros(99));
        assert_eq!(percentile_sorted(&s, 0.0), Duration::from_micros(1));
        assert_eq!(percentile_sorted(&s, 1.0), Duration::from_micros(100));
        assert_eq!(percentile_sorted(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn step_share_handles_empty_and_partial() {
        let stats = GatewayStats::default();
        assert_eq!(stats.completed_step_share(&TenantId::new("a")), 0.0);

        let snap = |name: &str, steps: u64| TenantStatsSnapshot {
            tenant: TenantId::new(name),
            index: u32::from(name == "b"),
            weight: 1,
            queued_walkers: 0,
            peak_queued_walkers: 0,
            submitted_walks: 0,
            dispatched_chunks: 0,
            completed_walks: 0,
            completed_steps: steps,
            rejected_overloaded: 0,
            saturated_requeues: 0,
            failed_walks: 0,
            wait_p50: Duration::ZERO,
            wait_p99: Duration::ZERO,
            wait_max: Duration::ZERO,
        };
        let stats = GatewayStats {
            per_tenant: vec![snap("a", 75), snap("b", 25)],
            ..GatewayStats::default()
        };
        assert!((stats.completed_step_share(&TenantId::new("a")) - 0.75).abs() < 1e-12);
        assert!((stats.completed_step_share(&TenantId::new("b")) - 0.25).abs() < 1e-12);
        assert_eq!(stats.completed_step_share(&TenantId::new("c")), 0.0);
        let json = stats.to_json();
        assert!(json.contains("\"tenant\":\"a\",\"index\":0"), "{json}");
        assert!(json.contains("\"tenant\":\"b\",\"index\":1"), "{json}");
        assert!(json.contains("\"step_share\":0.7500"), "{json}");
        assert!(json.contains("\"completed_steps\":100"), "{json}");
    }

    #[test]
    fn to_json_of_default_stats_is_finite() {
        // Nothing submitted, no uptime: every ratio guards its zero
        // denominator, so no `NaN` / `inf` (invalid JSON) is written.
        let json = GatewayStats::default().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(
            !json.contains("NaN") && !json.contains("inf"),
            "non-finite number in {json}"
        );
        assert!(json.contains("\"per_tenant\":[]"), "{json}");
    }
}
