//! Seeded inputs: the edge list, the start sets and the update stream.
//!
//! Everything the program is fed is a pure function of `(shape, seed)`.
//! The program itself never sees the seed, only the generated inputs.

use bingo_graph::{Bias, DynamicGraph, GraphGenerator, UpdateBatch, UpdateEvent, VertexId};
use bingo_sampling::rng::Pcg64;
use rand::{Rng, SeedableRng};

/// Which stand-in graph a workload runs on (Table 2 of the paper, scaled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphShape {
    /// Skewed R-MAT with the LiveJournal stand-in's quadrant weights,
    /// `pairs_per_vertex` generated edges per vertex before mirroring.
    LiveJournal {
        log2_vertices: u32,
        pairs_per_vertex: usize,
    },
    /// Flat-degree Erdős–Rényi, the Amazon stand-in.
    Amazon { vertices: usize },
}

impl GraphShape {
    /// Directed edges are generated and then mirrored, so every vertex a
    /// walk can reach has a way out and walks run to their full length.
    fn generator(self) -> GraphGenerator {
        match self {
            GraphShape::LiveJournal {
                log2_vertices,
                pairs_per_vertex,
            } => GraphGenerator::RMat {
                scale: log2_vertices,
                avg_degree: pairs_per_vertex,
                a: 0.57,
                b: 0.19,
                c: 0.19,
            },
            GraphShape::Amazon { vertices } => GraphGenerator::ErdosRenyi {
                vertices,
                edges: vertices * 4,
            },
        }
    }
}

/// How a workload's update batches are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateMix {
    /// Events per batch.
    pub batch_events: usize,
    /// Draw insert sources in proportion to out-degree (hubs churn most)
    /// instead of uniformly.
    pub toward_hubs: bool,
    /// Every fifth event rewrites the bias of a live edge. When off the
    /// stream is purely structural (inserts and deletes).
    pub bias_rewrites: bool,
}

/// One generated edge.
pub type EdgeRow = (VertexId, VertexId, Bias);

/// Everything a workload is fed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub num_vertices: usize,
    /// The initial edge list; biases are the destination's in-degree (the
    /// paper's default, which follows a power law on skewed graphs).
    pub edges: Vec<EdgeRow>,
    /// Pre-drawn start sets, cycled through by ticket number.
    pub start_sets: Vec<Vec<VertexId>>,
    /// The vertex whose first-step distribution is checked at the end of a
    /// pass. The update stream only ever *adds* edges at this vertex, so
    /// its exact distribution stays known whatever the program does.
    pub probe: VertexId,
    /// The probe's out-edges, kept current by [`UpdateStream`].
    pub probe_edges: Vec<(VertexId, Bias)>,
}

const START_SETS: usize = 512;
/// The probe is the vertex with the largest out-degree not above this, so
/// a first-step chi-square has enough samples per neighbour.
const PROBE_MAX_DEGREE: usize = 96;

impl Inputs {
    pub fn generate(shape: GraphShape, starts_per_ticket: usize, seed: u64) -> Inputs {
        let mut rng = Pcg64::seed_from_u64(seed ^ 0xB1E6_0001);
        let (num_vertices, pairs) = shape.generator().generate_edges(&mut rng);
        let mut in_degree = vec![0u32; num_vertices];
        let mut out_degree = vec![0u32; num_vertices];
        for &(a, b) in &pairs {
            in_degree[a as usize] += 1;
            in_degree[b as usize] += 1;
            out_degree[a as usize] += 1;
            out_degree[b as usize] += 1;
        }
        let bias_of = |dst: VertexId| Bias::from_int(u64::from(in_degree[dst as usize].max(1)));
        let mut edges = Vec::with_capacity(pairs.len() * 2);
        for &(a, b) in &pairs {
            edges.push((a, b, bias_of(b)));
            edges.push((b, a, bias_of(a)));
        }

        let connected: Vec<VertexId> = (0..num_vertices as VertexId)
            .filter(|&v| out_degree[v as usize] > 0)
            .collect();
        let mut start_rng = Pcg64::seed_from_u64(seed ^ 0xB1E6_0002);
        let start_sets = (0..START_SETS)
            .map(|_| {
                (0..starts_per_ticket)
                    .map(|_| connected[start_rng.gen_range(0..connected.len())])
                    .collect()
            })
            .collect();

        let probe = (0..num_vertices as VertexId)
            .filter(|&v| (out_degree[v as usize] as usize) <= PROBE_MAX_DEGREE)
            .max_by_key(|&v| (out_degree[v as usize], std::cmp::Reverse(v)))
            .expect("graph has at least one vertex");
        let probe_edges = edges
            .iter()
            .filter(|e| e.0 == probe)
            .map(|e| (e.1, e.2))
            .collect();
        Inputs {
            num_vertices,
            edges,
            start_sets,
            probe,
            probe_edges,
        }
    }

    /// The graph a set-up starts from: every generated edge inserted.
    pub fn build_graph(&self) -> DynamicGraph {
        let mut graph = DynamicGraph::new(self.num_vertices);
        for &(src, dst, bias) in &self.edges {
            graph
                .insert_edge(src, dst, bias)
                .expect("generated edges are in range with valid biases");
        }
        graph
    }

    pub fn starts(&self, ticket: usize) -> &[VertexId] {
        &self.start_sets[ticket % self.start_sets.len()]
    }
}

/// The update stream: an endless, seeded sequence of balanced batches.
///
/// Of every five events two insert a new edge, two delete a live edge and
/// one rewrites a live edge's bias (or, for a purely structural mix, the
/// fifth alternates insert/delete), so the edge count stays level and
/// every segment of a run sees the same graph size. Deletes and rewrites
/// are drawn from the edges live *before* the batch, so no batch depends
/// on the order its own events are applied in.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    rng: Pcg64,
    mix: UpdateMix,
    num_vertices: usize,
    live: Vec<(VertexId, VertexId)>,
    probe: VertexId,
    probe_edges: Vec<(VertexId, Bias)>,
    batches: u64,
}

impl UpdateStream {
    pub fn new(inputs: &Inputs, mix: UpdateMix, seed: u64) -> UpdateStream {
        UpdateStream {
            rng: Pcg64::seed_from_u64(seed ^ 0xB1E6_0003),
            mix,
            num_vertices: inputs.num_vertices,
            live: inputs.edges.iter().map(|e| (e.0, e.1)).collect(),
            probe: inputs.probe,
            probe_edges: inputs.probe_edges.clone(),
            batches: 0,
        }
    }

    /// Current out-edges of the probe vertex, inserts included.
    pub fn probe_edges(&self) -> &[(VertexId, Bias)] {
        &self.probe_edges
    }

    pub fn live_edges(&self) -> usize {
        self.live.len()
    }

    fn take_live(&mut self) -> (VertexId, VertexId) {
        loop {
            let i = self.rng.gen_range(0..self.live.len());
            if self.live[i].0 != self.probe {
                return self.live.swap_remove(i);
            }
        }
    }

    pub fn next_batch(&mut self) -> UpdateBatch {
        let n = self.mix.batch_events;
        let mut events = Vec::with_capacity(n);
        let mut inserted = Vec::with_capacity(n / 2 + 1);
        let mut rewritten = Vec::new();
        for i in 0..n {
            let kind = match i % 5 {
                0 | 1 => 0,
                2 | 3 => 1,
                _ if self.mix.bias_rewrites => 2,
                _ => ((self.batches + (i / 5) as u64) % 2) as u8,
            };
            match kind {
                0 => {
                    let src = if self.mix.toward_hubs {
                        self.live[self.rng.gen_range(0..self.live.len())].0
                    } else {
                        self.rng.gen_range(0..self.num_vertices) as VertexId
                    };
                    let mut dst = self.rng.gen_range(0..self.num_vertices) as VertexId;
                    if dst == src {
                        dst = (dst + 1) % self.num_vertices as VertexId;
                    }
                    let bias = Bias::from_int(self.rng.gen_range(1..=64u64));
                    if src == self.probe {
                        self.probe_edges.push((dst, bias));
                    }
                    inserted.push((src, dst));
                    events.push(UpdateEvent::Insert { src, dst, bias });
                }
                1 => {
                    let (src, dst) = self.take_live();
                    events.push(UpdateEvent::Delete { src, dst });
                }
                _ => {
                    let (src, dst) = self.take_live();
                    rewritten.push((src, dst));
                    let bias = Bias::from_int(self.rng.gen_range(1..=64u64));
                    events.push(UpdateEvent::UpdateBias { src, dst, bias });
                }
            }
        }
        self.live.extend(rewritten);
        self.live.extend(inserted);
        self.batches += 1;
        UpdateBatch::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: UpdateMix = UpdateMix {
        batch_events: 100,
        toward_hubs: true,
        bias_rewrites: true,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let shape = GraphShape::LiveJournal {
            log2_vertices: 10,
            pairs_per_vertex: 7,
        };
        let a = Inputs::generate(shape, 16, 7);
        let b = Inputs::generate(shape, 16, 7);
        assert_eq!(a, b);
        let mut sa = UpdateStream::new(&a, MIX, 7);
        let mut sb = UpdateStream::new(&b, MIX, 7);
        for _ in 0..20 {
            assert_eq!(sa.next_batch(), sb.next_batch());
        }
        assert_ne!(a.edges, Inputs::generate(shape, 16, 8).edges);
    }

    #[test]
    fn stream_keeps_the_edge_count_level_and_the_mirror_exact() {
        let inputs = Inputs::generate(GraphShape::Amazon { vertices: 2_000 }, 8, 3);
        let mut graph = inputs.build_graph();
        let mut stream = UpdateStream::new(&inputs, MIX, 3);
        for _ in 0..200 {
            let batch = stream.next_batch();
            assert_eq!(graph.apply_batch(&batch), batch.len(), "no event may fail");
        }
        assert_eq!(graph.num_edges(), stream.live_edges());
        let drift = graph.num_edges() as f64 / inputs.edges.len() as f64;
        assert!((drift - 1.0).abs() < 0.01, "edge count drifted: {drift}");
        let mut got: Vec<_> = graph
            .neighbors(inputs.probe)
            .unwrap()
            .edges()
            .iter()
            .map(|e| (e.dst, e.bias.value().to_bits()))
            .collect();
        let mut want: Vec<_> = stream
            .probe_edges()
            .iter()
            .map(|e| (e.0, e.1.value().to_bits()))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn walks_cannot_dead_end_on_the_initial_graph() {
        let shape = GraphShape::LiveJournal {
            log2_vertices: 10,
            pairs_per_vertex: 7,
        };
        let inputs = Inputs::generate(shape, 16, 5);
        let mut has_out = vec![false; inputs.num_vertices];
        for e in &inputs.edges {
            has_out[e.0 as usize] = true;
        }
        assert!(inputs.edges.iter().all(|e| has_out[e.1 as usize]));
        assert!(inputs
            .start_sets
            .iter()
            .flatten()
            .all(|&v| has_out[v as usize]));
    }
}
