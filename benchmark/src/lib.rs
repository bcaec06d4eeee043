//! The repo benchmark. See `benchmark/README.md` for what it measures and
//! why; `BENCHMARK.json` at the repo root names every metric it prints.

mod alloc;
mod inputs;
pub mod json;
pub mod ledger;
mod load;
pub mod micro;
mod spans;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// The benchmark's contract, compiled in so the names a run prints and
/// the names the contract lists cannot drift apart.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Named measurements in the order they were taken. Units live in
/// `BENCHMARK.json`, nowhere else.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}
