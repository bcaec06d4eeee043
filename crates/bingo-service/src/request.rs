//! The walk request builder and the tenant it is billed to.
//!
//! A [`WalkRequest`] names a walk, its start vertices, an optional seed
//! and the tenant it is billed to. It goes to
//! `bingo_gateway::Gateway::submit`, which reads its public fields; a
//! caller holding a [`WalkService`] submits the same fields through
//! [`WalkService::submit_notify`](crate::WalkService::submit_notify).
//! Either way the walks come back as `wait(ticket).paths`.
//!
//! [`WalkService`]: crate::WalkService

use bingo_graph::VertexId;
use bingo_walks::Walk;
use std::fmt;
use std::sync::Arc;

/// The tenant every request belongs to when none is named.
pub const DEFAULT_TENANT: &str = "default";

/// An interned tenant name: cheap to clone, hash and compare, so it can
/// ride on every queued chunk without re-allocating the string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// Intern a tenant name.
    pub fn new(name: impl AsRef<str>) -> Self {
        TenantId(Arc::from(name.as_ref()))
    }

    /// The tenant's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId::new(DEFAULT_TENANT)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        TenantId::new(name)
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> Self {
        TenantId::new(name)
    }
}

/// One batch of walks: built with the chained setters, read field by
/// field.
#[derive(Debug, Clone)]
pub struct WalkRequest {
    /// The walk to run.
    pub walk: Walk,
    /// Explicit start vertices, one walk per entry (`None` = one walk per
    /// vertex).
    pub starts: Option<Vec<VertexId>>,
    /// Seed override (`None` = the service's configured seed).
    pub seed: Option<u64>,
    /// The tenant the request is billed to.
    pub tenant: TenantId,
    /// Explicit relative scheduling weight (`None` = inherit the tenant's).
    pub weight: Option<u32>,
}

impl WalkRequest {
    /// Request walks of a built-in [`WalkSpec`](bingo_walks::WalkSpec)
    /// or of a shared custom model ([`Walk::Custom`]).
    pub fn spec(walk: impl Into<Walk>) -> Self {
        WalkRequest {
            walk: walk.into(),
            starts: None,
            seed: None,
            tenant: TenantId::default(),
            weight: None,
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

    /// Bill this request to `tenant` ([`DEFAULT_TENANT`] when never
    /// called). The service executes for every tenant identically; the
    /// gateway queues and drains each tenant's requests separately, so one
    /// heavy tenant cannot starve the rest.
    pub fn tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// The tenant's relative scheduling weight (deficit-round-robin share
    /// under saturation; `0` is read as `1`). Requests that never call
    /// this inherit the tenant's configured weight instead of resetting
    /// it.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = Some(weight);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_walks::{DeepWalkConfig, WalkSpec};
    use std::collections::HashSet;

    #[test]
    fn tenant_ids_intern_and_compare_by_name() {
        let a = TenantId::new("acme");
        let b: TenantId = "acme".into();
        let c: TenantId = String::from("other").into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string(), "acme");
        let set: HashSet<TenantId> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2, "equal names hash identically");
    }

    #[test]
    fn a_request_without_a_tenant_is_billed_to_the_default_one() {
        let spec = WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 4 });
        let request = WalkRequest::spec(spec).starts(vec![0, 1]);
        assert_eq!(request.tenant.as_str(), DEFAULT_TENANT);
        assert_eq!(request.weight, None, "an unset weight inherits");
        let request = request.tenant("acme").weight(0);
        assert_eq!((request.tenant.as_str(), request.weight), ("acme", Some(0)));
    }
}
