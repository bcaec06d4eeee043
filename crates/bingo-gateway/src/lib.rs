//! # bingo-gateway
//!
//! A **multi-tenant admission gateway** in front of the sharded
//! [`WalkService`](bingo_service::WalkService): the layer that turns the
//! service's binary admit/reject decision (`max_inbox` →
//! `ServiceError::Saturated`) into *queueing, fairness and adaptive
//! backpressure* — what a serving deployment absorbing walk traffic from
//! many independent submitters actually needs.
//!
//! ## Design
//!
//! * **Queued submission** ([`Gateway::submit`]): a request that would
//!   saturate a shard inbox is parked in its tenant's FIFO queue instead
//!   of erroring. Queues are bounded per tenant
//!   ([`GatewayConfig::max_queue_per_tenant`]); only a tenant exceeding
//!   its own bound is refused, with [`GatewayError::Overloaded`].
//! * **Fair scheduling** ([`sched`]): with no thread of its own, the
//!   gateway drains the queues where work appears (`submit`, completions,
//!   stalled waiters) by deficit round robin with configurable per-tenant weights
//!   ([`WalkRequest::weight`](bingo_service::WalkRequest::weight),
//!   [`Gateway::set_tenant_weight`]). While tenants stay backlogged, each
//!   receives dispatch bandwidth proportional to its weight — a weight-3
//!   tenant completes ~75% of the steps against a weight-1 tenant under
//!   saturating offered load (measured end to end by
//!   `examples/gateway_fairness.rs` and the DRR property tests).
//! * **Adaptive admission** ([`window`]): each chunk carries a notifier
//!   ([`WalkService::submit_notify`](bingo_service::WalkService::submit_notify))
//!   that, on completion, settles it, samples the service's occupancy hook
//!   ([`WalkService::admission_snapshot`](bingo_service::WalkService::admission_snapshot)),
//!   steps the in-flight walker window and dispatches the next chunks. The
//!   window moves AIMD-style — 8 walkers more while calm and
//!   window-limited, half on saturation rejections or an inbox more than
//!   three quarters full. Those are constants; [`AimdConfig`] sets only the
//!   window's start, floor and ceiling. A chunk the service refuses with a
//!   retryable `Saturated` goes back to the *front* of its queue (deficit
//!   refunded, nothing dropped); with nothing in flight, `wait` and
//!   `shutdown` retry it every 500 µs.
//! * **Chunked dispatch** ([`sched::Chunk`]): a start list is cut into
//!   consecutive slices of at most [`GatewayConfig::chunk_walkers`], each
//!   dispatched as one service ticket whatever shards its starts lie on,
//!   so fairness granularity is per-chunk (a giant request cannot
//!   monopolize a turn) and a completed chunk's paths go back into its
//!   submission as one slice.
//! * **Observability** ([`GatewayStats`], rendered once by
//!   [`GatewayStats::to_json`]): per-tenant queue depth and peak,
//!   dispatched/completed/rejected counts, queue-wait p50/p99, and the
//!   range the AIMD window moved through (each move is also a flight
//!   event). The gateway records into the **service's**
//!   telemetry handle
//!   ([`WalkService::telemetry`](bingo_service::WalkService::telemetry)) —
//!   build the service with
//!   [`WalkService::build_with_telemetry`](bingo_service::WalkService::build_with_telemetry)
//!   and the gateway's `gateway.tenant.wait_ns` / `gateway.dispatch_ns`
//!   histograms land in the same registry as the shard-side stages, and
//!   sampled walker lifecycles stitch a `dispatch(tenant<i> …)` span (`i`
//!   is the tenant's `"index"` in `to_json`, its first-submission order)
//!   between `submit` and the per-shard `step`/`hop` spans. See the
//!   "Observability" section of the `bingo_service` crate docs for the
//!   metric taxonomy and trace schema. The `bingo-obs` crate serves all
//!   of it over HTTP (`/metrics`, `/status`, `/healthz`, …) and watches
//!   the gateway for stalls via [`Gateway::oldest_queued_age`]; window
//!   moves and saturation bounces also land in its flight recorder
//!   (see the workspace README's *Observability* section).
//!
//! The wire-in diagram lives in the `bingo_service` crate docs; direct
//! service submission remains fully supported — the gateway is the
//! front-end for workloads where submitters must not starve each other.
//!
//! ## Quickstart
//!
//! ```
//! use bingo_gateway::{Gateway, GatewayConfig};
//! use bingo_graph::{Bias, DynamicGraph};
//! use bingo_service::{ServiceConfig, WalkRequest, WalkService};
//! use bingo_walks::{DeepWalkConfig, WalkSpec};
//! use std::sync::Arc;
//!
//! let mut graph = DynamicGraph::new(64);
//! for v in 0..64u32 {
//!     graph.insert_edge(v, (v + 1) % 64, Bias::from_int(2)).unwrap();
//!     graph.insert_edge(v, (v + 9) % 64, Bias::from_int(1)).unwrap();
//! }
//! let service = Arc::new(
//!     WalkService::build(
//!         &graph,
//!         ServiceConfig { num_shards: 2, max_inbox: 128, ..ServiceConfig::default() },
//!     )
//!     .unwrap(),
//! );
//! let gateway = Gateway::new(service, GatewayConfig::default());
//!
//! // Two tenants, 3:1 weights, the same workload.
//! let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 8 });
//! let heavy = gateway
//!     .submit(WalkRequest::spec(spec).all_vertices().tenant("heavy").weight(3))
//!     .unwrap();
//! let light = gateway
//!     .submit(WalkRequest::spec(spec).all_vertices().tenant("light").weight(1))
//!     .unwrap();
//!
//! let heavy_out = gateway.wait(heavy).unwrap();
//! let light_out = gateway.wait(light).unwrap();
//! assert_eq!(heavy_out.paths.len(), 64);
//! assert_eq!(light_out.paths.len(), 64);
//!
//! let stats = gateway.shutdown();
//! assert_eq!(stats.total_completed_walks(), 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gateway;
pub mod sched;
pub mod stats;
pub mod window;

pub use gateway::{Gateway, GatewayConfig, GatewayError, GatewayResults, GatewayTicket};
pub use stats::{GatewayStats, TenantStatsSnapshot};
pub use window::{AimdConfig, AimdWindow};

// Re-exported so gateway users name tenants without a direct
// `bingo-service` dependency.
pub use bingo_service::TenantId;

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_graph::{Bias, DynamicGraph};
    use bingo_service::{ServiceConfig, ServiceError, WalkRequest, WalkService};
    use bingo_walks::{DeepWalkConfig, WalkSpec};
    use std::sync::Arc;

    fn ring_graph(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new(n);
        for v in 0..n as u32 {
            g.insert_edge(v, (v + 1) % n as u32, Bias::from_int(2))
                .unwrap();
            g.insert_edge(v, (v + 3) % n as u32, Bias::from_int(1))
                .unwrap();
        }
        g
    }

    fn service(n: usize, max_inbox: usize) -> Arc<WalkService> {
        Arc::new(
            WalkService::build(
                &ring_graph(n),
                ServiceConfig {
                    num_shards: 2,
                    max_inbox,
                    ..ServiceConfig::default()
                },
            )
            .unwrap(),
        )
    }

    fn spec(len: usize) -> WalkSpec {
        WalkSpec::DeepWalk(DeepWalkConfig { walk_length: len })
    }

    #[test]
    fn submissions_complete_with_paths_in_order() {
        let gateway = Gateway::new(service(32, 64), GatewayConfig::default());
        let starts: Vec<u32> = (0..32).rev().collect();
        let ticket = gateway
            .submit(WalkRequest::spec(spec(6)).starts(starts.clone()))
            .unwrap();
        let results = gateway.wait(ticket).unwrap();
        assert_eq!(results.paths.len(), 32);
        for (path, &start) in results.paths.iter().zip(&starts) {
            assert_eq!(path[0], start, "chunked dispatch preserves order");
            assert_eq!(path.len(), 7);
        }
        assert_eq!(results.total_steps(), 32 * 6);
    }

    #[test]
    fn queue_bound_rejects_with_overloaded() {
        // Tiny per-tenant bound; an oversized submission is refused and
        // the error names the tenant, while a fitting one passes.
        let gateway = Gateway::new(
            service(32, 0),
            GatewayConfig {
                max_queue_per_tenant: 8,
                ..GatewayConfig::default()
            },
        );
        let err = gateway
            .submit(
                WalkRequest::spec(spec(4))
                    .starts((0..16).collect())
                    .tenant("greedy"),
            )
            .expect_err("16 walkers exceed the 8-walker bound");
        match err {
            GatewayError::Overloaded {
                tenant, capacity, ..
            } => {
                assert_eq!(tenant.as_str(), "greedy");
                assert_eq!(capacity, 8);
            }
            other => panic!("unexpected error {other:?}"),
        }
        let ok = gateway
            .submit(
                WalkRequest::spec(spec(4))
                    .starts((0..8).collect())
                    .tenant("greedy"),
            )
            .unwrap();
        assert_eq!(gateway.wait(ok).unwrap().paths.len(), 8);
        let stats = gateway.shutdown();
        let t = stats.tenant(&TenantId::new("greedy")).unwrap();
        assert_eq!(t.rejected_overloaded, 1);
        assert_eq!(t.completed_walks, 8);
    }

    #[test]
    fn validation_errors_pass_through_typed() {
        let gateway = Gateway::new(service(16, 0), GatewayConfig::default());
        assert_eq!(
            gateway.submit(WalkRequest::spec(spec(3)).starts(vec![])),
            Err(GatewayError::Rejected(ServiceError::EmptySubmission)).map(|t: GatewayTicket| t)
        );
        match gateway.submit(WalkRequest::spec(spec(3)).starts(vec![99])) {
            Err(GatewayError::Rejected(ServiceError::VertexOutOfRange { vertex: 99, .. })) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn saturated_chunks_requeue_and_finish_under_tiny_inboxes() {
        // max_inbox 4 with chunk/window larger: the pump must hit
        // Saturated, requeue at the front, shrink the window, and still
        // complete everything (nothing dropped).
        let gateway = Gateway::new(
            service(48, 4),
            GatewayConfig {
                chunk_walkers: 16, // clamped to 4 by the inbox bound
                window: AimdConfig {
                    initial: 64,
                    min: 4,
                    ..AimdConfig::default()
                },
                ..GatewayConfig::default()
            },
        );
        let ticket = gateway
            .submit(WalkRequest::spec(spec(8)).all_vertices().tenant("t"))
            .unwrap();
        let results = gateway.wait(ticket).unwrap();
        assert_eq!(results.paths.len(), 48);
        let stats = gateway.shutdown();
        let t = stats.tenant(&TenantId::new("t")).unwrap();
        assert_eq!(t.completed_walks, 48, "every walk served");
        assert_eq!(t.failed_walks, 0, "nothing dropped");
    }

    #[test]
    fn unweighted_submissions_inherit_the_configured_weight() {
        // Regression: a request without an explicit `.weight()` must not
        // reset a weight configured via `set_tenant_weight` back to 1.
        let gateway = Gateway::new(service(16, 0), GatewayConfig::default());
        gateway.set_tenant_weight("vip", 5);
        let t1 = gateway
            .submit(WalkRequest::spec(spec(4)).all_vertices().tenant("vip"))
            .unwrap();
        gateway.wait(t1).unwrap();
        assert_eq!(
            gateway
                .stats()
                .tenant(&TenantId::new("vip"))
                .unwrap()
                .weight,
            5,
            "unweighted submission inherits the configured weight"
        );
        // An explicit weight still updates it.
        let t2 = gateway
            .submit(
                WalkRequest::spec(spec(4))
                    .all_vertices()
                    .tenant("vip")
                    .weight(2),
            )
            .unwrap();
        gateway.wait(t2).unwrap();
        let stats = gateway.shutdown();
        assert_eq!(stats.tenant(&TenantId::new("vip")).unwrap().weight, 2);
    }

    #[test]
    fn shutdown_drains_then_refuses() {
        let gateway = Gateway::new(service(16, 0), GatewayConfig::default());
        let tickets: Vec<_> = (0..4)
            .map(|_| {
                gateway
                    .submit(WalkRequest::spec(spec(4)).all_vertices())
                    .unwrap()
            })
            .collect();
        for t in tickets {
            assert_eq!(gateway.wait(t).unwrap().paths.len(), 16);
        }
        let stats = gateway.shutdown();
        assert_eq!(stats.total_completed_walks(), 64);
        assert_eq!(stats.in_flight_walkers, 0);
    }
}
