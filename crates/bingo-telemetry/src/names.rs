//! The stable metric-name taxonomy.
//!
//! Every layer of the serving stack registers its metrics under these
//! names, so dashboards, CI greps and tests key on one vocabulary.
//! Names are dot-separated `layer.scope.metric`; per-instance dimensions
//! (shard index, tenant name) ride in labels, not in the name. Durations
//! are always recorded in **nanoseconds** and suffixed `_ns`.
//!
//! Each name is a series of its own: none is derivable from another
//! (`handle_offer − handle_hit` is the body requests, `epoch` is the
//! batches applied), and every one is registered by non-test code —
//! `tests/lint.rs::metric_name_census` holds both the list and its count.
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `service.shard.steps` | counter | steps sampled by a shard |
//! | `service.shard.walkers_received` | counter | walker arrivals (fresh + forwarded) |
//! | `service.shard.walkers_forwarded` | counter | walkers forwarded to another shard |
//! | `service.shard.walks_completed` | counter | walks finished on a shard |
//! | `service.shard.updates_applied` | counter | update events applied |
//! | `service.shard.epoch` | counter | update epoch (Release-published) |
//! | `service.shard.queue_depth` | gauge | current inbox occupancy |
//! | `service.shard.queue_high_water` | gauge | max inbox occupancy seen |
//! | `service.shard.busy_ns` | counter | nanos spent processing messages |
//! | `service.shard.saturated_rejections` | counter | submits bounced off a full inbox |
//! | `service.context.bytes_forwarded` | counter | context bytes actually sent |
//! | `service.context.bytes_raw` | counter | exact-Vec baseline context bytes |
//! | `service.context.cache_hits` | counter | forwarded-context cache hits |
//! | `service.context.cache_misses` | counter | forwarded-context cache misses |
//! | `service.context.membership_faults` | counter | second-order fallback probes |
//! | `service.context.handle_offer` | counter | snapshot handles offered to receivers |
//! | `service.context.handle_hit` | counter | offered handles the receiver held |
//! | `transport.bytes_sent` | counter | encoded walker-frame bytes handed to the transport |
//! | `transport.bytes_recv` | counter | walker-frame bytes delivered and decoded |
//! | `service.transport.path_bytes` | counter | the visited-path part of `transport.bytes_sent` |
//! | `service.transport.fallbacks` | counter | serialized forwards that degraded to the in-process walker |
//! | `service.submit_ns` | histogram | submit call → all walkers enqueued |
//! | `service.shard.step_batch_ns` | histogram | one walker visit on a shard |
//! | `service.shard.inbox_dwell_ns` | histogram | message enqueue → dequeue |
//! | `service.shard.update_apply_ns` | histogram | one update batch application |
//! | `service.forward.hop_ns` | histogram | forward send → dequeue at peer |
//! | `service.collect_ns` | histogram | walk finish → absorbed at collector |
//! | `service.ticket.latency_ns` | histogram | submit → ticket complete |
//! | `gateway.tenant.submitted_walks` | counter | walks offered by a tenant |
//! | `gateway.tenant.completed_walks` | counter | walks completed for a tenant |
//! | `gateway.tenant.completed_steps` | counter | steps completed for a tenant |
//! | `gateway.tenant.failed_walks` | counter | walks lost to submit failures |
//! | `gateway.tenant.dispatched_chunks` | counter | chunks handed to the service |
//! | `gateway.tenant.saturated_requeues` | counter | dispatches bounced by saturation |
//! | `gateway.tenant.rejected_overloaded` | counter | submits rejected queue-full |
//! | `gateway.tenant.peak_queued` | gauge | max walkers queued at once |
//! | `gateway.tenant.wait_ns` | histogram | enqueue → DRR dispatch |
//! | `gateway.dispatch_ns` | histogram | one service-submit call |
//! | `pool.calls` | counter | top-level parallel calls |
//! | `pool.chunks_claimed` | counter | chunks executed by workers |
//! | `pool.worker.busy_ns` | counter | nanos workers spent in chunk bodies |
//! | `pool.worker.idle_ns` | counter | team-scope nanos not spent in chunks |
//! | `pool.scope_ns` | counter | wall nanos inside parallel scopes |
//! | `runtime.pool.steals` | counter | work items run by a helper, not the poster |
//! | `runtime.pool.tasks` | counter | detached tasks executed on the pool |
//! | `runtime.pool.park_ns` | counter | nanos workers spent condvar-parked |
//! | `service.shard.stolen_batches` | counter | walker batches stolen from a peer inbox |
//! | `service.shard.stolen_walkers` | counter | walker visits executed via stealing |
//! | `obs.http.requests` | counter | exposition requests served (labeled by endpoint) |
//! | `obs.http.errors` | counter | malformed/unroutable exposition requests |
//! | `obs.watchdog.checks` | counter | lazy watchdog evaluations |
//! | `obs.watchdog.trips` | counter | stall-watchdog trips (shard or gateway) |

/// `service.shard.steps` — steps sampled by a shard (counter).
pub const SERVICE_SHARD_STEPS: &str = "service.shard.steps";
/// `service.shard.walkers_received` — walker arrivals (counter).
pub const SERVICE_SHARD_WALKERS_RECEIVED: &str = "service.shard.walkers_received";
/// `service.shard.walkers_forwarded` — cross-shard forwards (counter).
pub const SERVICE_SHARD_WALKERS_FORWARDED: &str = "service.shard.walkers_forwarded";
/// `service.shard.walks_completed` — walks finished (counter).
pub const SERVICE_SHARD_WALKS_COMPLETED: &str = "service.shard.walks_completed";
/// `service.shard.updates_applied` — update events applied (counter).
pub const SERVICE_SHARD_UPDATES_APPLIED: &str = "service.shard.updates_applied";
/// `service.shard.epoch` — per-shard update epoch (counter, Release-published).
pub const SERVICE_SHARD_EPOCH: &str = "service.shard.epoch";
/// `service.shard.queue_depth` — current inbox occupancy (gauge).
pub const SERVICE_SHARD_QUEUE_DEPTH: &str = "service.shard.queue_depth";
/// `service.shard.queue_high_water` — max inbox occupancy (gauge).
pub const SERVICE_SHARD_QUEUE_HIGH_WATER: &str = "service.shard.queue_high_water";
/// `service.shard.busy_ns` — nanos processing messages (counter).
pub const SERVICE_SHARD_BUSY_NS: &str = "service.shard.busy_ns";
/// `service.shard.saturated_rejections` — inbox-full bounces (counter).
pub const SERVICE_SHARD_SATURATED_REJECTIONS: &str = "service.shard.saturated_rejections";
/// `service.context.bytes_forwarded` — context bytes sent (counter).
pub const SERVICE_CONTEXT_BYTES_FORWARDED: &str = "service.context.bytes_forwarded";
/// `service.context.bytes_raw` — exact-Vec baseline bytes (counter).
pub const SERVICE_CONTEXT_BYTES_RAW: &str = "service.context.bytes_raw";
/// `service.context.cache_hits` — forwarded-context cache hits (counter).
pub const SERVICE_CONTEXT_CACHE_HITS: &str = "service.context.cache_hits";
/// `service.context.cache_misses` — forwarded-context cache misses (counter).
pub const SERVICE_CONTEXT_CACHE_MISSES: &str = "service.context.cache_misses";
/// `service.context.membership_faults` — second-order fallbacks (counter).
pub const SERVICE_CONTEXT_MEMBERSHIP_FAULTS: &str = "service.context.membership_faults";
/// `service.context.handle_offer` — snapshot handles offered (counter).
pub const SERVICE_CONTEXT_HANDLE_OFFER: &str = "service.context.handle_offer";
/// `service.context.handle_hit` — offered handles the receiver held (counter).
pub const SERVICE_CONTEXT_HANDLE_HIT: &str = "service.context.handle_hit";
/// `transport.bytes_sent` — encoded walker-frame bytes handed to the
/// shard transport (counter; serialized mode only).
pub const TRANSPORT_BYTES_SENT: &str = "transport.bytes_sent";
/// `transport.bytes_recv` — walker-frame bytes delivered and decoded
/// (counter; serialized mode only).
pub const TRANSPORT_BYTES_RECV: &str = "transport.bytes_recv";
/// `service.transport.path_bytes` — the visited-path part of
/// `transport.bytes_sent`, one `u32` per vertex (counter; serialized mode
/// only). Header bytes are `bytes_sent − path_bytes −
/// service.context.bytes_forwarded`.
pub const SERVICE_TRANSPORT_PATH_BYTES: &str = "service.transport.path_bytes";
/// `service.transport.fallbacks` — serialized forwards whose frame was
/// sent but not usable on arrival (carrier error, undecodable or
/// mis-addressed bytes, unknown ticket, unresolvable handle), so the
/// original in-process walker was forwarded instead (counter). Explains
/// any `transport.bytes_sent` − `transport.bytes_recv` gap.
pub const SERVICE_TRANSPORT_FALLBACKS: &str = "service.transport.fallbacks";
/// `service.submit_ns` — submit-call latency (histogram).
pub const SERVICE_SUBMIT_NS: &str = "service.submit_ns";
/// `service.shard.step_batch_ns` — one walker visit (histogram).
pub const SERVICE_SHARD_STEP_BATCH_NS: &str = "service.shard.step_batch_ns";
/// `service.shard.inbox_dwell_ns` — enqueue → dequeue (histogram).
pub const SERVICE_SHARD_INBOX_DWELL_NS: &str = "service.shard.inbox_dwell_ns";
/// `service.shard.update_apply_ns` — one batch application (histogram).
pub const SERVICE_SHARD_UPDATE_APPLY_NS: &str = "service.shard.update_apply_ns";
/// `service.forward.hop_ns` — forward send → peer dequeue (histogram).
pub const SERVICE_FORWARD_HOP_NS: &str = "service.forward.hop_ns";
/// `service.collect_ns` — finish → absorbed (histogram).
pub const SERVICE_COLLECT_NS: &str = "service.collect_ns";
/// `service.ticket.latency_ns` — submit → complete (histogram).
pub const SERVICE_TICKET_LATENCY_NS: &str = "service.ticket.latency_ns";
/// `gateway.tenant.submitted_walks` — offered walks (counter).
pub const GATEWAY_TENANT_SUBMITTED_WALKS: &str = "gateway.tenant.submitted_walks";
/// `gateway.tenant.completed_walks` — completed walks (counter).
pub const GATEWAY_TENANT_COMPLETED_WALKS: &str = "gateway.tenant.completed_walks";
/// `gateway.tenant.completed_steps` — completed steps (counter).
pub const GATEWAY_TENANT_COMPLETED_STEPS: &str = "gateway.tenant.completed_steps";
/// `gateway.tenant.failed_walks` — walks lost to failures (counter).
pub const GATEWAY_TENANT_FAILED_WALKS: &str = "gateway.tenant.failed_walks";
/// `gateway.tenant.dispatched_chunks` — chunks dispatched (counter).
pub const GATEWAY_TENANT_DISPATCHED_CHUNKS: &str = "gateway.tenant.dispatched_chunks";
/// `gateway.tenant.saturated_requeues` — saturation bounces (counter).
pub const GATEWAY_TENANT_SATURATED_REQUEUES: &str = "gateway.tenant.saturated_requeues";
/// `gateway.tenant.rejected_overloaded` — queue-full rejections (counter).
pub const GATEWAY_TENANT_REJECTED_OVERLOADED: &str = "gateway.tenant.rejected_overloaded";
/// `gateway.tenant.peak_queued` — max walkers queued (gauge).
pub const GATEWAY_TENANT_PEAK_QUEUED: &str = "gateway.tenant.peak_queued";
/// `gateway.tenant.wait_ns` — queue wait (histogram).
pub const GATEWAY_TENANT_WAIT_NS: &str = "gateway.tenant.wait_ns";
/// `gateway.dispatch_ns` — one service-submit call (histogram).
pub const GATEWAY_DISPATCH_NS: &str = "gateway.dispatch_ns";
/// `pool.calls` — top-level parallel calls (counter).
pub const POOL_CALLS: &str = "pool.calls";
/// `pool.chunks_claimed` — chunks executed (counter).
pub const POOL_CHUNKS_CLAIMED: &str = "pool.chunks_claimed";
/// `pool.worker.busy_ns` — worker nanos in chunk bodies (counter).
pub const POOL_WORKER_BUSY_NS: &str = "pool.worker.busy_ns";
/// `pool.worker.idle_ns` — team nanos outside chunk bodies (counter).
pub const POOL_WORKER_IDLE_NS: &str = "pool.worker.idle_ns";
/// `pool.scope_ns` — wall nanos inside parallel scopes (counter).
pub const POOL_SCOPE_NS: &str = "pool.scope_ns";
/// `runtime.pool.steals` — work items run by a helper worker rather than
/// the thread that posted them (counter).
pub const RUNTIME_POOL_STEALS: &str = "runtime.pool.steals";
/// `runtime.pool.tasks` — detached tasks executed on the pool (counter).
pub const RUNTIME_POOL_TASKS: &str = "runtime.pool.tasks";
/// `runtime.pool.park_ns` — nanos workers spent condvar-parked (counter).
pub const RUNTIME_POOL_PARK_NS: &str = "runtime.pool.park_ns";
/// `service.shard.stolen_batches` — walker batches a shard task drained
/// from a hot peer's inbox (counter, attributed to the executing shard).
pub const SERVICE_SHARD_STOLEN_BATCHES: &str = "service.shard.stolen_batches";
/// `service.shard.stolen_walkers` — walker visits executed via stealing
/// (counter, attributed to the executing shard).
pub const SERVICE_SHARD_STOLEN_WALKERS: &str = "service.shard.stolen_walkers";
/// `obs.http.requests` — exposition requests served, labeled
/// `endpoint="/metrics"` etc. (counter).
pub const OBS_HTTP_REQUESTS: &str = "obs.http.requests";
/// `obs.http.errors` — malformed or unroutable exposition requests
/// (counter).
pub const OBS_HTTP_ERRORS: &str = "obs.http.errors";
/// `obs.watchdog.checks` — lazy stall-watchdog evaluations (counter).
pub const OBS_WATCHDOG_CHECKS: &str = "obs.watchdog.checks";
/// `obs.watchdog.trips` — stall-watchdog trips: a shard sat non-empty
/// without progress, or the gateway's oldest queued request aged past the
/// threshold (counter).
pub const OBS_WATCHDOG_TRIPS: &str = "obs.watchdog.trips";
