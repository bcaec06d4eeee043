//! The walk request builder.
//!
//! A [`WalkRequest`] names a walk, its start vertices, an optional seed
//! and the tenant it is billed to. It goes to
//! `bingo_gateway::Gateway::submit`, which explodes it with
//! [`WalkRequest::into_parts`]; a caller holding a [`WalkService`]
//! submits the same fields through
//! [`WalkService::submit_notify`](crate::WalkService::submit_notify).
//! Either way the walks come back as `wait(ticket).paths`.
//!
//! [`WalkService`]: crate::WalkService

use bingo_graph::VertexId;
use bingo_walks::{TenantId, TicketMeta, Walk};

/// A builder describing one batch of walks.
#[derive(Debug, Clone)]
pub struct WalkRequest {
    walk: Walk,
    starts: Option<Vec<VertexId>>,
    seed: Option<u64>,
    meta: TicketMeta,
}

impl WalkRequest {
    /// Request walks of a built-in [`WalkSpec`](bingo_walks::WalkSpec)
    /// or of a shared custom model ([`Walk::Custom`]).
    pub fn spec(walk: impl Into<Walk>) -> Self {
        WalkRequest {
            walk: walk.into(),
            starts: None,
            seed: None,
            meta: TicketMeta::default(),
        }
    }

    /// Explicit start vertices, one walk per entry (in order).
    pub fn starts(mut self, starts: Vec<VertexId>) -> Self {
        self.starts = Some(starts);
        self
    }

    /// One walk per vertex of the backing graph — the paper's default
    /// walker configuration. This is the default when no starts are given.
    pub fn all_vertices(mut self) -> Self {
        self.starts = None;
        self
    }

    /// Seed for the walker RNG streams. Defaults to the service's
    /// [`ServiceConfig::seed`](crate::ServiceConfig::seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Bill this request to `tenant`. The service executes for every
    /// tenant identically; the gateway queues and drains each tenant's
    /// requests separately, so one heavy tenant cannot starve the rest.
    pub fn tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.meta.tenant = tenant.into();
        self
    }

    /// The tenant's relative scheduling weight (deficit-round-robin share
    /// under saturation; `0` is read as `1`). Requests that never call
    /// this inherit the tenant's configured weight instead of resetting
    /// it.
    pub fn weight(mut self, weight: u32) -> Self {
        self.meta.weight = Some(weight);
        self
    }

    /// The tenant/weight metadata attached to this request.
    pub fn meta(&self) -> &TicketMeta {
        &self.meta
    }

    /// Decompose the builder into its fields (the gateway's dispatcher
    /// consumes requests this way).
    pub fn into_parts(self) -> RequestParts {
        RequestParts {
            walk: self.walk,
            starts: self.starts,
            seed: self.seed,
            meta: self.meta,
        }
    }
}

/// The exploded fields of a [`WalkRequest`] — see
/// [`WalkRequest::into_parts`].
#[derive(Debug, Clone)]
pub struct RequestParts {
    /// The walk to run.
    pub walk: Walk,
    /// Explicit start vertices (`None` = one walk per vertex).
    pub starts: Option<Vec<VertexId>>,
    /// Seed override (`None` = the service's configured seed).
    pub seed: Option<u64>,
    /// Tenant/weight scheduling metadata.
    pub meta: TicketMeta,
}
