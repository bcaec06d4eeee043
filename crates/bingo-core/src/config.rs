//! Engine configuration.
//!
//! One switch, because only one trade-off is measured: adaptation on or off
//! (the paper's group-adaptive design against its "BS" baseline, Figures 11
//! and 13). Everything else the paper fixes is a constant, not a knob, and no
//! workload varies it:
//!
//! * the group thresholds α = 40 % and β = 10 % (§5.1, chosen empirically by
//!   the paper), `ALPHA_PERCENT` / `BETA_PERCENT` in `group.rs`;
//! * λ for floating-point biases (§4.3): 1 while every bias of a vertex is
//!   integral, otherwise derived from the biases by
//!   [`choose_lambda`](crate::fixed::choose_lambda) so that the decimal group
//!   stays below the `1/d` share the complexity analysis needs (§4.4);
//! * reclassification: every update that keeps a vertex's groups checks
//!   their kinds against Equation 9 again (Table 4 counts the checks).

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
}

impl Default for BingoConfig {
    fn default() -> Self {
        BingoConfig { adaptive: true }
    }
}

impl BingoConfig {
    /// The baseline configuration ("BS" in the paper's figures): no adaptive
    /// representation — every vertex keeps radix groups, every group is
    /// stored in the regular format.
    pub fn baseline() -> Self {
        BingoConfig { adaptive: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_adapts_and_baseline_does_not() {
        assert!(BingoConfig::default().adaptive);
        assert!(!BingoConfig::baseline().adaptive);
    }
}
