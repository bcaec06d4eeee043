//! # Bingo
//!
//! A Rust reproduction of *Bingo: Radix-based Bias Factorization for Random
//! Walk on Dynamic Graphs* (EuroSys 2025).
//!
//! Bingo is a random-walk engine for dynamically changing weighted graphs.
//! It decomposes every edge bias into its binary radix components, so that a
//! graph update only touches the `K = log2(max bias)` radix groups of the
//! affected vertex instead of all of its `d` neighbours, while sampling stays
//! `O(1)` through a two-level (inter-group alias table, intra-group uniform)
//! hierarchy.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`graph`] — dynamic graph substrate (Hornet-style dynamic adjacency
//!   arrays, generators, update streams, scaled-down dataset stand-ins).
//! * [`sampling`] — classical Monte Carlo samplers (alias, ITS, rejection,
//!   reservoir) used both inside Bingo and as baselines.
//! * [`core`] — the paper's contribution: radix-based bias factorization,
//!   adaptive group representation, streaming and batched updates.
//! * [`walks`] — random-walk applications (DeepWalk, node2vec, PPR) as one
//!   `WalkSpec` model, the pluggable `WalkModel` trait for custom ones, and
//!   the parallel walker engine.
//! * [`baselines`] — reimplementations of the systems the paper compares
//!   against (KnightKing, gSampler, FlowWalker).
//! * [`service`] — the serving layer: a vertex-sharded, multi-threaded walk
//!   service that answers concurrent walk requests while graph updates
//!   stream in, with per-shard epoch counters and walker forwarding.
//! * [`gateway`] — the multi-tenant front-end over the service: bounded
//!   per-tenant queues, deficit-round-robin fair scheduling with
//!   configurable weights, and AIMD adaptive backpressure driven by the
//!   service's occupancy counters.
//! * [`obs`] — the introspection plane: a dependency-free HTTP exposition
//!   server (`/metrics`, `/status`, `/trace`, `/flight`, `/healthz`), a
//!   lock-free flight recorder of runtime events (dumped on panic), and a
//!   lazy stall watchdog behind `/healthz`. Opt-in via `BINGO_OBS`.
//!
//! ## Quickstart
//!
//! ```
//! use bingo::prelude::*;
//!
//! // Build a small weighted graph.
//! let mut graph = DynamicGraph::new(6);
//! graph.insert_edge(2, 1, Bias::from_int(5)).unwrap();
//! graph.insert_edge(2, 4, Bias::from_int(4)).unwrap();
//! graph.insert_edge(2, 5, Bias::from_int(3)).unwrap();
//!
//! // Build the Bingo sampling engine on top of it.
//! let mut engine = BingoEngine::build(&graph, BingoConfig::default()).unwrap();
//!
//! // Sample a neighbour of vertex 2 in O(1).
//! let mut rng = Pcg64::seed_from_u64(7);
//! let next = engine.sample_neighbor(2, &mut rng).unwrap();
//! assert!([1, 4, 5].contains(&next));
//!
//! // Stream an update: the new edge is visible to the very next sample.
//! engine.insert_edge(2, 3, Bias::from_int(3)).unwrap();
//! ```
//!
//! ## Serving walks under streaming updates
//!
//! For concurrent walk traffic with updates streaming in, use the sharded
//! walk service:
//!
//! ```
//! use bingo::prelude::*;
//!
//! let mut graph = DynamicGraph::new(32);
//! for v in 0..32u32 {
//!     graph.insert_edge(v, (v + 1) % 32, Bias::from_int(1)).unwrap();
//! }
//! let service = WalkService::build(&graph, ServiceConfig::default()).unwrap();
//! let ticket = service
//!     .submit(WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 5 }), &[0, 16])
//!     .unwrap();
//! let receipt = service.ingest(&UpdateBatch::new(vec![UpdateEvent::Insert {
//!     src: 4,
//!     dst: 20,
//!     bias: Bias::from_int(3),
//! }]));
//! service.sync(receipt);
//! let results = service.wait(ticket);
//! assert_eq!(results.paths.len(), 2);
//! ```

pub use bingo_baselines as baselines;
pub use bingo_core as core;
pub use bingo_gateway as gateway;
pub use bingo_graph as graph;
pub use bingo_obs as obs;
pub use bingo_sampling as sampling;
pub use bingo_service as service;
pub use bingo_telemetry as telemetry;
pub use bingo_walks as walks;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use bingo_core::{BingoConfig, BingoEngine, GroupKind};
    pub use bingo_gateway::{Gateway, GatewayConfig, GatewayError, GatewayStats, GatewayTicket};
    pub use bingo_graph::{
        Bias, BiasDistribution, DynamicGraph, GraphGenerator, UpdateBatch, UpdateEvent,
        UpdateStreamBuilder, VertexId,
    };
    pub use bingo_obs::{ObsConfig, ObsServer, WatchdogConfig};
    pub use bingo_sampling::{rng::Pcg64, AliasTable, CdfTable, Sampler};
    pub use bingo_service::{
        IngestReceipt, PartitionStrategy, ServiceConfig, ServiceStats, TicketResults, WalkRequest,
        WalkService, WalkTicket,
    };
    pub use bingo_telemetry::Telemetry;
    pub use bingo_walks::{
        CarriedContext, ContextRequirement, DeepWalkConfig, Node2VecConfig, PprConfig,
        SharedWalkModel, StepSampler, Transition, TransitionSampler, Walk, WalkCursor, WalkEngine,
        WalkModel, WalkSpec, WalkState,
    };
    pub use rand::SeedableRng;
}
