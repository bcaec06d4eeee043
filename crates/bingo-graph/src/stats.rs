//! Graph and bias statistics.
//!
//! The evaluation repeatedly reasons about degree and bias *distributions*:
//! Table 2 characterizes the datasets by average/maximum degree, Figure 9
//! derives group populations from the bias distribution, and the paper's
//! default bias assignment relies on real-graph degrees "naturally following
//! a power law". This module computes those summaries for any
//! [`DynamicGraph`], so the stand-in generators can be validated against the
//! real datasets' published shapes.

use crate::{DynamicGraph, VertexId};

/// Summary statistics of a graph's structure and biases.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Average out-degree.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Number of isolated (zero out-degree) vertices.
    pub isolated_vertices: usize,
    /// Minimum, mean and maximum edge bias.
    pub bias_min: f64,
    /// Mean edge bias.
    pub bias_mean: f64,
    /// Maximum edge bias.
    pub bias_max: f64,
    /// Estimated power-law exponent of the degree distribution (log-log
    /// regression slope over the degree histogram); `None` when the graph
    /// has too few distinct degrees to fit.
    pub degree_powerlaw_alpha: Option<f64>,
}

/// Compute the out-degree histogram: `histogram[d]` = number of vertices of
/// degree `d`.
fn degree_histogram(graph: &DynamicGraph) -> Vec<usize> {
    let mut histogram = vec![0usize; graph.max_degree() + 1];
    for v in 0..graph.num_vertices() as VertexId {
        histogram[graph.degree(v)] += 1;
    }
    histogram
}

/// Fit a power-law exponent to a histogram by least-squares regression in
/// log-log space, ignoring empty buckets and bucket zero. Returns `None`
/// when fewer than three non-empty buckets exist.
fn fit_powerlaw_exponent(histogram: &[usize]) -> Option<f64> {
    let points: Vec<(f64, f64)> = histogram
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, &count)| count > 0)
        .map(|(degree, &count)| ((degree as f64).ln(), (count as f64).ln()))
        .collect();
    if points.len() < 3 {
        return None;
    }
    let n = points.len() as f64;
    let sum_x: f64 = points.iter().map(|(x, _)| x).sum();
    let sum_y: f64 = points.iter().map(|(_, y)| y).sum();
    let sum_xx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sum_xy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let denom = n * sum_xx - sum_x * sum_x;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sum_xy - sum_x * sum_y) / denom;
    // P(d) ∝ d^-α  →  slope = -α.
    Some(-slope)
}

/// Compute the full [`GraphSummary`] of a graph.
pub fn summarize(graph: &DynamicGraph) -> GraphSummary {
    let mut isolated = 0usize;
    for v in 0..graph.num_vertices() as VertexId {
        if graph.degree(v) == 0 {
            isolated += 1;
        }
    }
    let mut bias_min = f64::INFINITY;
    let mut bias_max: f64 = 0.0;
    let mut bias_sum = 0.0;
    let mut edges = 0usize;
    for (_, e) in graph.edges() {
        let b = e.bias.value();
        bias_min = bias_min.min(b);
        bias_max = bias_max.max(b);
        bias_sum += b;
        edges += 1;
    }
    if edges == 0 {
        bias_min = 0.0;
    }
    GraphSummary {
        vertices: graph.num_vertices(),
        edges,
        avg_degree: graph.avg_degree(),
        max_degree: graph.max_degree(),
        isolated_vertices: isolated,
        bias_min,
        bias_mean: if edges == 0 {
            0.0
        } else {
            bias_sum / edges as f64
        },
        bias_max,
        degree_powerlaw_alpha: fit_powerlaw_exponent(&degree_histogram(graph)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic_graph::running_example;
    use crate::generators::{BiasDistribution, GraphGenerator};
    use crate::Bias;

    #[test]
    fn histogram_of_running_example() {
        let g = running_example();
        let histogram = degree_histogram(&g);
        // Degrees: v0=2, v1=1, v2=3, v3=1, v4=1, v5=0.
        assert_eq!(histogram, vec![1, 3, 1, 1]);
    }

    #[test]
    fn summary_of_running_example() {
        let s = summarize(&running_example());
        assert_eq!(s.vertices, 6);
        assert_eq!(s.edges, 8);
        assert_eq!(s.max_degree, 3);
        assert_eq!(s.isolated_vertices, 1);
        assert_eq!(s.bias_min, 1.0);
        assert_eq!(s.bias_max, 7.0);
        assert!((s.bias_mean - 36.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_summary_is_well_defined() {
        let s = summarize(&DynamicGraph::new(3));
        assert_eq!(s.edges, 0);
        assert_eq!(s.bias_min, 0.0);
        assert_eq!(s.bias_mean, 0.0);
        assert_eq!(s.isolated_vertices, 3);
        assert_eq!(s.degree_powerlaw_alpha, None);
    }

    #[test]
    fn powerlaw_fit_recovers_a_synthetic_exponent() {
        // Histogram following count(d) = C · d^-2 exactly.
        let histogram: Vec<usize> = (0..200)
            .map(|d| {
                if d == 0 {
                    0
                } else {
                    ((1_000_000.0 / (d as f64 * d as f64)).round()) as usize
                }
            })
            .collect();
        let alpha = fit_powerlaw_exponent(&histogram).unwrap();
        assert!((alpha - 2.0).abs() < 0.1, "estimated alpha {alpha}");
        assert_eq!(fit_powerlaw_exponent(&[0, 5]), None);
    }

    #[test]
    fn rmat_graphs_are_detectably_skewed_and_er_graphs_are_not() {
        struct Sm(u64);
        impl rand::RngCore for Sm {
            fn next_u32(&mut self) -> u32 {
                (self.next_u64() >> 32) as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                for chunk in dest.chunks_mut(8) {
                    let b = self.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&b[..chunk.len()]);
                }
            }
            fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
                self.fill_bytes(dest);
                Ok(())
            }
        }
        let mut rng = Sm(1);
        let rmat = GraphGenerator::RMat {
            scale: 11,
            avg_degree: 8,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
        .generate(BiasDistribution::Constant(1), &mut rng);
        let er = GraphGenerator::ErdosRenyi {
            vertices: 2048,
            edges: 2048 * 8,
        }
        .generate(BiasDistribution::Constant(1), &mut rng);
        let rmat_summary = summarize(&rmat);
        let er_summary = summarize(&er);
        // The R-MAT graph's max degree should be far above the ER graph's.
        assert!(rmat_summary.max_degree > 2 * er_summary.max_degree);
        let _ = Bias::from_int(1);
    }
}
