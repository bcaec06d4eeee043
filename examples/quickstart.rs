//! Quickstart: build a small weighted graph, create the Bingo engine, run a
//! few biased random walks, stream some updates, and plug a custom walk
//! model into the same `WalkEngine`.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bingo::core::VertexSpace;
use bingo::prelude::*;
use bingo::walks::model::StepSampler;
use rand::{Rng, RngCore};
use std::sync::Arc;

fn main() {
    // 1. Build the paper's running example graph (Figure 1, snapshot 1).
    //    Vertex 2 has three out-edges: (2,1,5), (2,4,4), (2,5,3).
    let mut graph = DynamicGraph::new(6);
    let edges = [
        (0, 1, 6),
        (0, 2, 7),
        (1, 2, 5),
        (2, 1, 5),
        (2, 4, 4),
        (2, 5, 3),
        (3, 2, 5),
        (4, 3, 1),
    ];
    for (src, dst, bias) in edges {
        graph
            .insert_edge(src, dst, Bias::from_int(bias))
            .expect("edge is valid");
    }
    println!(
        "graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. Build the Bingo sampling engine (radix-factorized sampling spaces).
    let mut engine = BingoEngine::build(&graph, BingoConfig::default()).expect("engine builds");

    // Inspect vertex 2's radix groups: biases 5, 4, 3 decompose into groups
    // 2^0 = {5, 3}, 2^1 = {3}, 2^2 = {5, 4} with group biases 2, 2, 8. The
    // engine's own vertex 2 keeps none of this: under the default
    // (adaptive) config a vertex of at most 16 edges is stored direct — its
    // adjacency and a cached bias total, sampled by one pass — so the
    // printout factorizes the same three edges with `BingoConfig::baseline()`
    // (the paper's "BS": groups on every vertex).
    let adjacency = graph.neighbors(2).expect("vertex 2 exists").clone();
    let space = VertexSpace::build(adjacency, BingoConfig::baseline());
    println!("vertex 2 has {} radix groups:", space.num_groups());
    for group in space.groups() {
        println!(
            "  group 2^{}: {} edges, weight {}, representation {:?}",
            group.bit(),
            group.cardinality(),
            group.weight(),
            group.kind()
        );
    }
    let in_engine = engine.vertex_space(2).expect("vertex 2 exists");
    println!(
        "in the engine vertex 2 is {} ({} radix groups, total weight {})",
        if in_engine.is_direct() {
            "direct"
        } else {
            "factorized"
        },
        in_engine.num_groups(),
        in_engine.total_weight()
    );

    // 3. Sample neighbors of vertex 2 in O(1) and check the empirical
    //    distribution matches the biases 5:4:3.
    let mut rng = Pcg64::seed_from_u64(42);
    let mut counts = std::collections::BTreeMap::new();
    for _ in 0..12_000 {
        let next = engine
            .sample_neighbor(2, &mut rng)
            .expect("vertex 2 has edges");
        *counts.entry(next).or_insert(0u32) += 1;
    }
    println!("12,000 samples from vertex 2 (expect ≈ 5000 / 4000 / 3000):");
    for (neighbor, count) in &counts {
        println!("  neighbor {neighbor}: {count}");
    }

    // 4. Stream the updates from Figure 1: insert (2,3,3), then delete (2,1).
    engine
        .insert_edge(2, 3, Bias::from_int(3))
        .expect("insert is valid");
    engine.delete_edge(2, 1).expect("edge exists");
    println!(
        "after updates vertex 2 has degree {} and total weight {}",
        engine.degree(2),
        engine.vertex_space(2).unwrap().total_weight()
    );

    // 5. Run a DeepWalk pass: one 10-step walker per vertex.
    let walks = WalkEngine::new(7).run_all_vertices(
        &engine,
        &WalkSpec::DeepWalk(DeepWalkConfig { walk_length: 10 }),
    );
    println!(
        "DeepWalk: {} walks, {} total steps, first path: {:?}",
        walks.num_walks(),
        walks.total_steps(),
        walks.paths[0]
    );

    // 6. Walk applications are pluggable: implement `WalkModel` and hand
    //    the shared model to `WalkEngine::run` where step 5 passed a
    //    `WalkSpec` — the same model would run unchanged on a sharded
    //    `WalkService` (`submit`).
    #[derive(Debug)]
    struct TemperatureWalk {
        tau: f64,
        max_steps: usize,
    }

    impl WalkModel for TemperatureWalk {
        fn name(&self) -> &str {
            "temperature"
        }
        fn expected_length(&self) -> usize {
            self.tau.ceil() as usize
        }
        fn max_steps(&self) -> usize {
            self.max_steps
        }
        fn step(
            &self,
            state: &WalkState,
            sampler: &dyn StepSampler,
            rng: &mut dyn RngCore,
        ) -> Transition {
            // Survive a step with probability exp(-steps / tau): the walk
            // "cools" as it lengthens.
            let survive = (-(state.steps_taken() as f64) / self.tau).exp();
            if state.steps_taken() >= self.max_steps || rng.gen::<f64>() >= survive {
                return Transition::Terminate;
            }
            match sampler.sample_neighbor_dyn(state.current(), rng) {
                Some(next) => Transition::Step(next),
                None => Transition::Terminate,
            }
        }
    }

    let model: SharedWalkModel = Arc::new(TemperatureWalk {
        tau: 5.0,
        max_steps: 30,
    });
    let starts: Vec<VertexId> = (0..engine.num_vertices() as VertexId).collect();
    let output = WalkEngine::new(11).run(&engine, &model, &starts);
    println!(
        "custom temperature model: {} walks, {} steps, mean length {:.2}",
        output.num_walks(),
        output.total_steps(),
        output.total_steps() as f64 / output.num_walks() as f64
    );
}
