//! Fraud detection on a streaming transaction graph.
//!
//! The paper motivates dynamic random walks with fraud detection on
//! e-commerce platforms (§1): the transaction graph changes constantly, and
//! the walk-based features must reflect every update immediately, otherwise
//! "malicious users could commit a series of illicit activities" between
//! snapshot rebuilds.
//!
//! This example simulates that scenario end to end:
//!
//! 1. A synthetic account-to-account transaction graph (power-law degrees,
//!    transaction amounts as biases).
//! 2. A stream of new transactions (edge insertions, amount updates) and
//!    account closures (deletions) ingested one event at a time.
//! 3. After every burst of updates, personalized-PageRank walks from a
//!    watch-listed account estimate which counterparties are most exposed
//!    to it right now — the visit frequencies are the fraud-risk feature.
//!
//! ```text
//! cargo run --release --example fraud_detection
//! ```

use bingo::prelude::*;
use bingo::walks::PprConfig;
use rand::Rng;

const ACCOUNTS: usize = 2_000;
const INITIAL_TRANSACTIONS: usize = 12_000;
const BURSTS: usize = 5;
const UPDATES_PER_BURST: usize = 500;

fn main() {
    let mut rng = Pcg64::seed_from_u64(20_260_614);

    // 1. Initial transaction graph: preferential attachment so a few
    //    accounts (merchants, mule hubs) concentrate most of the volume.
    let generator = GraphGenerator::PreferentialAttachment {
        vertices: ACCOUNTS,
        edges_per_vertex: INITIAL_TRANSACTIONS / ACCOUNTS,
    };
    // Transaction amounts in the 1..1000 range, power-law distributed.
    let amounts = BiasDistribution::PowerLaw {
        alpha: 1.8,
        max: 1000,
    };
    let graph = generator.generate(amounts, &mut rng);
    println!(
        "transaction graph: {} accounts, {} transactions",
        graph.num_vertices(),
        graph.num_edges()
    );

    let mut engine = BingoEngine::build(&graph, BingoConfig::default()).expect("engine builds");
    let watchlisted: VertexId = 0; // the account under investigation
    let ppr = WalkSpec::Ppr(PprConfig {
        stop_probability: 1.0 / 40.0,
        max_length: 400,
    });

    for burst in 1..=BURSTS {
        // 2. Stream a burst of live updates: 70% new transactions, 20%
        //    amount corrections, 10% account-relationship removals.
        let mut inserted = 0;
        let mut updated = 0;
        let mut deleted = 0;
        for _ in 0..UPDATES_PER_BURST {
            let src = rng.gen_range(0..ACCOUNTS) as VertexId;
            let dst = rng.gen_range(0..ACCOUNTS) as VertexId;
            if src == dst {
                continue;
            }
            let roll: f64 = rng.gen();
            if roll < 0.7 {
                let amount = Bias::from_int(rng.gen_range(1..1000));
                if engine.insert_edge(src, dst, amount).is_ok() {
                    inserted += 1;
                }
            } else if roll < 0.9 {
                let amount = Bias::from_int(rng.gen_range(1..1000));
                if engine.update_bias(src, dst, amount).is_ok() {
                    updated += 1;
                } else if engine.insert_edge(src, dst, amount).is_ok() {
                    inserted += 1;
                }
            } else if engine.delete_edge(src, dst).is_ok() {
                deleted += 1;
            }
        }

        // 3. Immediately refresh the risk feature: 512 PPR walkers from the
        //    watch-listed account, visit frequency = exposure score.
        let starts = vec![watchlisted; 512];
        let walks = WalkEngine::new(1000 + burst as u64).run(&engine, &ppr, &starts);
        let freqs = walks.visit_frequencies(engine.num_vertices());
        let mut ranked: Vec<(usize, f64)> = freqs
            .iter()
            .copied()
            .enumerate()
            .filter(|&(v, f)| v as VertexId != watchlisted && f > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite frequencies"));

        println!(
            "\nburst {burst}: +{inserted} transactions, {updated} corrections, -{deleted} removals \
             (graph now has {} transactions)",
            engine.num_edges()
        );
        println!("  top-5 accounts most exposed to account {watchlisted}:");
        for (account, score) in ranked.iter().take(5) {
            println!("    account {account:>5}  exposure {score:.4}");
        }
    }

    let report = engine.memory_report();
    println!(
        "\nsampling structures: {:.2} MiB across {} radix groups (dense/regular/sparse/one-element = {:?}); \
         {} of {} vertices direct (at most 16 edges, no groups)",
        report.sampling_bytes() as f64 / (1024.0 * 1024.0),
        report.group_counts.iter().sum::<usize>(),
        report.group_counts,
        report.direct_vertices,
        engine.num_vertices()
    );
}
