//! Engine configuration.

/// How the λ amortization factor for floating-point biases (§4.3) is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lambda {
    /// Pick λ automatically: 1 for all-integer biases, otherwise a power of
    /// two large enough that the decimal group stays below the `1/d`
    /// threshold the complexity analysis requires (§4.4) for typical
    /// degrees.
    Auto,
    /// Use a fixed λ.
    Fixed(f64),
}

/// Configuration of the Bingo engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BingoConfig {
    /// Enable adaptation, at both levels. Per group, the representations of
    /// §5.1 (dense / one-element / sparse / regular). Per vertex, the level
    /// above Equation 9: a vertex of at most
    /// [`DIRECT_MAX_DEGREE`](crate::vertex_space::DIRECT_MAX_DEGREE) = 16
    /// edges is *direct* — adjacency and a cached bias total, no groups,
    /// sampled by one bounded pass — until an insert takes it to 17, and a
    /// factorized vertex goes back to direct when deletes take it down to
    /// [`DIRECT_DEMOTE_DEGREE`](crate::vertex_space::DIRECT_DEMOTE_DEGREE)
    /// = 8. The two are constants, not knobs: 16 is where the benchmark's
    /// worst-case direct sample (`core.vertex_space.sample_ns.deg16`) still
    /// reads no slower than the factorized one it replaces, and vertices up
    /// to there held 41 of the 56 MiB of group headers on the
    /// `engine_batch` benchmark graph. Disabling adaptation reproduces the
    /// "BS" baseline of Figures 11 and 13: radix groups on every vertex,
    /// every group regular.
    pub adaptive: bool,
    /// Dense-group threshold α (percent of the vertex degree). A group
    /// holding more than `α%` of the neighbors is represented as dense.
    pub alpha_percent: f64,
    /// Sparse-group threshold β (percent of the vertex degree). A group
    /// holding fewer than `β%` of the neighbors (and more than one) is
    /// represented as sparse.
    pub beta_percent: f64,
    /// λ amortization factor for floating-point biases.
    pub lambda: Lambda,
    /// Reclassify group representations after every streaming update.
    /// Batched updates always reclassify once per touched vertex during the
    /// rebuild phase.
    pub reclassify_on_streaming: bool,
}

impl Default for BingoConfig {
    fn default() -> Self {
        // α = 40, β = 10 are the paper's empirically chosen thresholds.
        BingoConfig {
            adaptive: true,
            alpha_percent: 40.0,
            beta_percent: 10.0,
            lambda: Lambda::Auto,
            reclassify_on_streaming: true,
        }
    }
}

impl BingoConfig {
    /// The baseline configuration ("BS" in the paper's figures): no adaptive
    /// representation — every vertex keeps radix groups, every group is
    /// stored in the regular format.
    pub fn baseline() -> Self {
        BingoConfig {
            adaptive: false,
            ..Self::default()
        }
    }

    /// Resolve the λ factor for a set of biases.
    ///
    /// `has_float` says whether any bias is non-integral; `max_bias` is the
    /// largest bias value of the vertex (used to keep the scaled values well
    /// inside 64 bits).
    pub fn resolve_lambda(&self, has_float: bool) -> f64 {
        match self.lambda {
            Lambda::Fixed(l) => l.max(1.0),
            Lambda::Auto => {
                if has_float {
                    // 2^10: the decimal remainder of each edge is < 1/1024 of
                    // its integer part for biases ≥ 1, comfortably keeping
                    // the decimal group's share below 1/d for real degrees.
                    1024.0
                } else {
                    1.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_thresholds() {
        let c = BingoConfig::default();
        assert!(c.adaptive);
        assert_eq!(c.alpha_percent, 40.0);
        assert_eq!(c.beta_percent, 10.0);
        assert_eq!(c.lambda, Lambda::Auto);
    }

    #[test]
    fn baseline_disables_adaptation() {
        assert!(!BingoConfig::baseline().adaptive);
    }

    #[test]
    fn lambda_resolution() {
        let auto = BingoConfig::default();
        assert_eq!(auto.resolve_lambda(false), 1.0);
        assert_eq!(auto.resolve_lambda(true), 1024.0);
        let fixed = BingoConfig {
            lambda: Lambda::Fixed(10.0),
            ..BingoConfig::default()
        };
        assert_eq!(fixed.resolve_lambda(true), 10.0);
        let degenerate = BingoConfig {
            lambda: Lambda::Fixed(0.0),
            ..BingoConfig::default()
        };
        assert_eq!(degenerate.resolve_lambda(true), 1.0);
    }
}
