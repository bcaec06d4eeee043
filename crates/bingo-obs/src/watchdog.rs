//! The stall watchdog: lazy progress-heartbeat checks over the serving
//! stack.
//!
//! The watchdog owns **no thread and no timer**. Every evaluation happens
//! inside a caller's read — the exposition server runs one on `/healthz`
//! and `/status` — by comparing the stack's progress counters against the
//! values remembered from the previous evaluation:
//!
//! * a **shard** is stalled when its inbox holds queued messages while its
//!   progress counter (steps + walker arrivals + update epoch) has not
//!   moved for longer than [`WatchdogConfig::stall_after`] across
//!   evaluations;
//! * the **gateway** is stalled when its oldest queued chunk
//!   ([`Gateway::oldest_queued_age`]) has waited longer than
//!   [`WatchdogConfig::gateway_stall_after`].
//!
//! A trip flips `/healthz` to 503, bumps `obs.watchdog.trips`, and records
//! a [`FlightEventKind::WatchdogTrip`] in the flight recorder — once per
//! stall episode, not once per poll, so the bounded ring is not flooded by
//! a wedged shard being polled in a loop. Because detection needs two
//! evaluations separated by the threshold, a monitor polling `/healthz`
//! at any steady cadence converges on the right verdict; a single cold
//! read can only ever say "healthy so far".

use bingo_gateway::Gateway;
use bingo_service::WalkService;
use bingo_telemetry::{names, Counter, FlightEventKind, FlightRecorder, Telemetry};
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Sentinel "shard" id used for gateway trips in flight events, where the
/// payload schema only carries shard-shaped integers.
pub const GATEWAY_SENTINEL: u64 = u64::MAX;

/// Stall thresholds for the [`Watchdog`].
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// How long a shard may sit with a non-empty inbox and a frozen
    /// progress counter before it is declared stalled.
    pub stall_after: Duration,
    /// How long the gateway's oldest queued chunk may wait before the
    /// gateway is declared stalled.
    pub gateway_stall_after: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_after: Duration::from_secs(2),
            gateway_stall_after: Duration::from_secs(10),
        }
    }
}

/// One stalled shard in a [`WatchdogReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalledShard {
    /// The shard that stopped making progress.
    pub shard: usize,
    /// Messages sitting in its inbox at the check.
    pub queue_depth: i64,
    /// How long the progress counter has been frozen.
    pub stalled_for: Duration,
}

/// Outcome of one lazy watchdog evaluation.
#[derive(Debug, Clone, Default)]
pub struct WatchdogReport {
    /// Shards holding queued work without progress past the threshold.
    pub stalled_shards: Vec<StalledShard>,
    /// Age of the gateway's oldest queued chunk, when one is queued.
    pub gateway_oldest_queued: Option<Duration>,
    /// Whether that age exceeds the gateway threshold.
    pub gateway_stalled: bool,
}

impl WatchdogReport {
    /// `true` when nothing is stalled.
    pub fn healthy(&self) -> bool {
        self.stalled_shards.is_empty() && !self.gateway_stalled
    }

    /// One-line summary for the `/healthz` body.
    pub fn render(&self) -> String {
        if self.healthy() {
            return "ok".to_string();
        }
        let mut parts = Vec::new();
        for s in &self.stalled_shards {
            parts.push(format!(
                "shard {} stalled {}ms with {} queued",
                s.shard,
                s.stalled_for.as_millis(),
                s.queue_depth
            ));
        }
        if self.gateway_stalled {
            parts.push(format!(
                "gateway oldest queued chunk waited {}ms",
                self.gateway_oldest_queued.unwrap_or_default().as_millis()
            ));
        }
        format!("stalled: {}", parts.join("; "))
    }
}

/// Per-shard memory between evaluations.
#[derive(Debug, Clone, Copy)]
struct ShardMark {
    /// Progress counter value at the last observed change.
    progress: u64,
    /// When that change was observed.
    since: Instant,
    /// Whether this stall episode already recorded its trip.
    tripped: bool,
}

#[derive(Debug, Default)]
struct WatchdogState {
    shards: Vec<Option<ShardMark>>,
    gateway_tripped: bool,
}

/// The lazy stall watchdog. See the module docs for the detection model.
pub struct Watchdog {
    config: WatchdogConfig,
    state: Mutex<WatchdogState>,
    checks: Counter,
    trips: Counter,
    flight: FlightRecorder,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("config", &self.config)
            .field("checks", &self.checks.get())
            .field("trips", &self.trips.get())
            .finish()
    }
}

impl Watchdog {
    /// A watchdog recording its counters and trip events into `telemetry`.
    pub fn new(config: WatchdogConfig, telemetry: &Telemetry) -> Self {
        Watchdog {
            config,
            state: Mutex::new_named(WatchdogState::default(), "obs.watchdog.state"),
            checks: telemetry.counter(names::OBS_WATCHDOG_CHECKS),
            trips: telemetry.counter(names::OBS_WATCHDOG_TRIPS),
            flight: telemetry.flight().clone(),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> WatchdogConfig {
        self.config
    }

    /// Run one lazy evaluation against the current stack state.
    pub fn check(
        &self,
        service: Option<&WalkService>,
        gateway: Option<&Gateway>,
    ) -> WatchdogReport {
        self.checks.inc();
        // Observe the stack *before* taking the watchdog lock: stats()
        // and oldest_queued_age() acquire service/gateway locks, and
        // nesting them under obs.watchdog.state would add lock-order
        // edges this crate has no reason to own.
        let observed: Vec<(u64, i64)> = service
            .map(|s| {
                s.stats()
                    .per_shard
                    .iter()
                    .map(|sh| (sh.steps + sh.walkers_received + sh.epoch, sh.queue_depth))
                    .collect()
            })
            .unwrap_or_default();
        let gateway_oldest = gateway.and_then(|g| g.oldest_queued_age());
        let now = Instant::now();

        let mut report = WatchdogReport {
            gateway_oldest_queued: gateway_oldest,
            ..WatchdogReport::default()
        };
        let mut state = self.state.lock();
        if state.shards.len() < observed.len() {
            state.shards.resize(observed.len(), None);
        }
        for (shard, &(progress, depth)) in observed.iter().enumerate() {
            let mark = &mut state.shards[shard];
            let fresh = ShardMark {
                progress,
                since: now,
                tripped: false,
            };
            match mark {
                Some(m) if m.progress == progress && depth > 0 => {
                    let stalled_for = now.duration_since(m.since);
                    if stalled_for >= self.config.stall_after {
                        report.stalled_shards.push(StalledShard {
                            shard,
                            queue_depth: depth,
                            stalled_for,
                        });
                        if !m.tripped {
                            m.tripped = true;
                            self.trips.inc();
                            self.flight.record(FlightEventKind::WatchdogTrip {
                                shard: shard as u64,
                                depth: depth.max(0) as u64,
                            });
                        }
                    }
                }
                // Progress moved, or the inbox is empty: restart the
                // heartbeat window (an empty idle shard is healthy no
                // matter how long its counters sit still).
                _ => *mark = Some(fresh),
            }
        }
        match gateway_oldest {
            Some(age) if age >= self.config.gateway_stall_after => {
                report.gateway_stalled = true;
                if !state.gateway_tripped {
                    state.gateway_tripped = true;
                    self.trips.inc();
                    let queued = gateway
                        .map(|g| g.stats().per_tenant.iter().map(|t| t.queued_walkers).sum())
                        .unwrap_or(0usize);
                    self.flight.record(FlightEventKind::WatchdogTrip {
                        shard: GATEWAY_SENTINEL,
                        depth: queued as u64,
                    });
                }
            }
            _ => state.gateway_tripped = false,
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stack_is_healthy() {
        let telemetry = Telemetry::disabled();
        let dog = Watchdog::new(WatchdogConfig::default(), &telemetry);
        let report = dog.check(None, None);
        assert!(report.healthy());
        assert_eq!(report.render(), "ok");
        assert_eq!(
            telemetry
                .snapshot()
                .counter(names::OBS_WATCHDOG_CHECKS, &[]),
            1
        );
        assert_eq!(dog.trips.get(), 0);
    }

    #[test]
    fn report_render_names_the_stall() {
        let report = WatchdogReport {
            stalled_shards: vec![StalledShard {
                shard: 2,
                queue_depth: 5,
                stalled_for: Duration::from_millis(1500),
            }],
            gateway_oldest_queued: Some(Duration::from_millis(12_000)),
            gateway_stalled: true,
        };
        assert!(!report.healthy());
        let line = report.render();
        assert!(
            line.contains("shard 2 stalled 1500ms with 5 queued"),
            "{line}"
        );
        assert!(line.contains("gateway oldest queued chunk waited 12000ms"));
    }
}
