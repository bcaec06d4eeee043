//! Counters for group-type conversions and engine activity.
//!
//! Table 4 of the paper reports how often a group changes representation
//! (dense ↔ regular ↔ sparse ↔ one-element) while ingesting updates; the
//! [`ConversionMatrix`] collects exactly those counts.

use crate::group::GroupKind;

fn kind_index(kind: GroupKind) -> usize {
    match kind {
        GroupKind::Empty => 0,
        GroupKind::Dense => 1,
        GroupKind::OneElement => 2,
        GroupKind::Sparse => 3,
        GroupKind::Regular => 4,
    }
}

/// Matrix of group-kind conversion counts (`from` × `to`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConversionMatrix {
    counts: [[u64; 5]; 5],
    /// Total number of classification checks performed (the denominator of
    /// the conversion *ratio* in Table 4).
    pub checks: u64,
}

impl ConversionMatrix {
    /// Create an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one conversion from `from` to `to`.
    pub fn record(&mut self, from: GroupKind, to: GroupKind) {
        self.counts[kind_index(from)][kind_index(to)] += 1;
    }

    /// Record one classification check that did not convert.
    pub fn record_check(&mut self) {
        self.checks += 1;
    }

    /// Number of conversions from `from` to `to`.
    pub fn count(&self, from: GroupKind, to: GroupKind) -> u64 {
        self.counts[kind_index(from)][kind_index(to)]
    }

    /// Conversion ratio (conversions / checks) between two kinds, as the
    /// percentages reported in Table 4.
    pub fn ratio(&self, from: GroupKind, to: GroupKind) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            self.count(from, to) as f64 / self.checks as f64
        }
    }

    /// Total number of conversions between non-empty kinds.
    pub fn total_conversions(&self) -> u64 {
        let mut total = 0;
        for from in GroupKind::all() {
            for to in GroupKind::all() {
                total += self.count(from, to);
            }
        }
        total
    }

    /// Merge another matrix into this one.
    pub fn merge(&mut self, other: &ConversionMatrix) {
        for i in 0..5 {
            for j in 0..5 {
                self.counts[i][j] += other.counts[i][j];
            }
        }
        self.checks += other.checks;
    }
}

/// Aggregate counters describing engine activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of edges inserted (streaming + batched).
    pub insertions: u64,
    /// Number of edges deleted (streaming + batched).
    pub deletions: u64,
    /// Number of inter-group alias table rebuilds.
    pub inter_rebuilds: u64,
    /// Number of full per-vertex sampling-space rebuilds.
    pub full_rebuilds: u64,
    /// Number of batches ingested.
    pub batches: u64,
    /// Adjacency slots read while locating the edges that deletes and bias
    /// rewrites name (streaming + batched): the scan of a direct vertex,
    /// the edge-index probes of a factorized one.
    pub edges_scanned: u64,
    /// Group-arena words the updates copied or entered afresh (see
    /// [`VertexUpdateOutcome::arena_words_moved`](crate::VertexUpdateOutcome::arena_words_moved)).
    pub arena_words_moved: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut m = ConversionMatrix::new();
        m.record(GroupKind::Dense, GroupKind::Regular);
        m.record(GroupKind::Dense, GroupKind::Regular);
        m.record(GroupKind::Sparse, GroupKind::OneElement);
        m.record_check();
        m.record_check();
        m.record_check();
        m.record_check();
        assert_eq!(m.count(GroupKind::Dense, GroupKind::Regular), 2);
        assert_eq!(m.count(GroupKind::Regular, GroupKind::Dense), 0);
        assert_eq!(m.total_conversions(), 3);
        assert!((m.ratio(GroupKind::Dense, GroupKind::Regular) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_with_no_checks_is_zero() {
        let m = ConversionMatrix::new();
        assert_eq!(m.ratio(GroupKind::Dense, GroupKind::Sparse), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConversionMatrix::new();
        a.record(GroupKind::Dense, GroupKind::Sparse);
        a.record_check();
        let mut b = ConversionMatrix::new();
        b.record(GroupKind::Dense, GroupKind::Sparse);
        b.record(GroupKind::Regular, GroupKind::Dense);
        b.record_check();
        b.record_check();
        a.merge(&b);
        assert_eq!(a.count(GroupKind::Dense, GroupKind::Sparse), 2);
        assert_eq!(a.count(GroupKind::Regular, GroupKind::Dense), 1);
        assert_eq!(a.checks, 3);
    }

    #[test]
    fn empty_transitions_do_not_count_as_conversions() {
        let mut m = ConversionMatrix::new();
        m.record(GroupKind::Empty, GroupKind::OneElement);
        assert_eq!(m.total_conversions(), 0);
        assert_eq!(m.count(GroupKind::Empty, GroupKind::OneElement), 1);
    }
}
