//! Byte-accurate memory accounting for the sampling structures.
//!
//! The paper's Figure 11 breaks memory consumption down by group
//! representation (dense / one-element / sparse / regular) and compares the
//! group-adaptive design against the all-regular baseline. [`MemoryReport`]
//! carries the same breakdown; the benchmark harness prints it per dataset.
//!
//! The breakdown counts what each representation *needs*. What the engine
//! additionally *occupies* — the inline per-vertex structs, the rest of the
//! group headers, arena holes and slack — is reported as
//! [`MemoryReport::structure_bytes`], so that
//! [`MemoryReport::resident_bytes`] matches what the allocator handed out.

use crate::group::GroupKind;

/// Memory usage of one vertex's (or a whole engine's) sampling structures,
/// in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryReport {
    /// Adjacency-list storage (the graph itself): every block referenced,
    /// in full, whether or not another owner holds it too.
    pub adjacency_bytes: usize,
    /// Inter-group alias tables.
    pub inter_group_bytes: usize,
    /// Intra-group structures of dense groups.
    pub dense_bytes: usize,
    /// Intra-group structures of one-element groups.
    pub one_element_bytes: usize,
    /// Edge indices: the probe table from destination to neighbor index a
    /// factorized vertex finds its edges through (a direct vertex scans
    /// and keeps none).
    pub index_bytes: usize,
    /// Intra-group structures of sparse groups (member lists + the probe
    /// tables over them).
    pub sparse_bytes: usize,
    /// Intra-group structures of regular groups (member lists + the probe
    /// tables over them).
    pub regular_bytes: usize,
    /// Decimal-group structures (floating-point remainders).
    pub decimal_bytes: usize,
    /// Everything the sampling spaces occupy beyond the fields above: the
    /// inline `VertexSpace` structs, group headers, and arena words no group
    /// uses (holes and slack).
    pub structure_bytes: usize,
    /// Number of groups of each kind: `[dense, regular, sparse, one-element]`.
    pub group_counts: [usize; 4],
    /// Number of vertices stored direct (no radix groups at all; see
    /// [`VertexSpace`](crate::VertexSpace)). Their groups are in none of
    /// the counts above.
    pub direct_vertices: usize,
    /// Number of adjacency blocks with compact slots: 6 bytes an edge, every
    /// bias an integer from 1 to 2^16 − 1 (see
    /// [`AdjacencyList`](bingo_graph::AdjacencyList)).
    pub compact_blocks: usize,
    /// Number of adjacency blocks with narrow slots: 8 bytes an edge, every
    /// bias an integer below 2^32, some past 2^16 − 1.
    pub narrow_blocks: usize,
    /// Number of adjacency blocks with wide slots: 12 bytes an edge.
    pub wide_blocks: usize,
}

impl MemoryReport {
    /// Total bytes used by sampling structures (excluding the adjacency
    /// lists, which every system needs regardless of sampler), the edge
    /// indices that keep them updatable in `O(K)` included.
    pub fn sampling_bytes(&self) -> usize {
        self.inter_group_bytes
            + self.index_bytes
            + self.dense_bytes
            + self.one_element_bytes
            + self.sparse_bytes
            + self.regular_bytes
            + self.decimal_bytes
    }

    /// Total bytes including the graph adjacency storage.
    pub fn total_bytes(&self) -> usize {
        self.sampling_bytes() + self.adjacency_bytes
    }

    /// Bytes actually held: `total_bytes()` plus the structure overhead.
    /// This is the figure to compare against allocator statistics or RSS.
    ///
    /// An engine shares the adjacency blocks of the graph it was built from
    /// (and of its own clones) until one side writes to them, and a shared
    /// block appears in the report of every owner: while the graph is
    /// alive, what the build added to the process is `resident_bytes() -
    /// adjacency_bytes`; once it is dropped the blocks are the engine's
    /// alone and the engine's share of the heap is `resident_bytes()`.
    /// Group tables are shared the same way — by the clones of an engine
    /// or of a vertex space, such as the snapshots a walk service keeps —
    /// and a shared table, too, is counted in full by every owner.
    pub fn resident_bytes(&self) -> usize {
        self.total_bytes() + self.structure_bytes
    }

    /// Number of groups of a particular kind.
    pub fn count_for(&self, kind: GroupKind) -> usize {
        match kind {
            GroupKind::Dense => self.group_counts[0],
            GroupKind::Regular => self.group_counts[1],
            GroupKind::Sparse => self.group_counts[2],
            GroupKind::OneElement => self.group_counts[3],
            GroupKind::Empty => 0,
        }
    }

    /// Record a group of the given kind and byte size.
    pub fn add_group(&mut self, kind: GroupKind, bytes: usize) {
        match kind {
            GroupKind::Dense => {
                self.dense_bytes += bytes;
                self.group_counts[0] += 1;
            }
            GroupKind::Regular => {
                self.regular_bytes += bytes;
                self.group_counts[1] += 1;
            }
            GroupKind::Sparse => {
                self.sparse_bytes += bytes;
                self.group_counts[2] += 1;
            }
            GroupKind::OneElement => {
                self.one_element_bytes += bytes;
                self.group_counts[3] += 1;
            }
            GroupKind::Empty => {}
        }
    }

    /// Fraction of groups of each kind `[dense, regular, sparse,
    /// one-element]` (Figure 11(e)).
    pub fn group_ratios(&self) -> [f64; 4] {
        let total: usize = self.group_counts.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (i, &c) in self.group_counts.iter().enumerate() {
            out[i] = c as f64 / total as f64;
        }
        out
    }

    /// Merge another report into this one.
    pub fn merge(&mut self, other: &MemoryReport) {
        self.adjacency_bytes += other.adjacency_bytes;
        self.inter_group_bytes += other.inter_group_bytes;
        self.index_bytes += other.index_bytes;
        self.dense_bytes += other.dense_bytes;
        self.one_element_bytes += other.one_element_bytes;
        self.sparse_bytes += other.sparse_bytes;
        self.regular_bytes += other.regular_bytes;
        self.decimal_bytes += other.decimal_bytes;
        self.structure_bytes += other.structure_bytes;
        for i in 0..4 {
            self.group_counts[i] += other.group_counts[i];
        }
        self.direct_vertices += other.direct_vertices;
        self.compact_blocks += other.compact_blocks;
        self.narrow_blocks += other.narrow_blocks;
        self.wide_blocks += other.wide_blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut r = MemoryReport {
            adjacency_bytes: 100,
            inter_group_bytes: 10,
            ..MemoryReport::default()
        };
        r.add_group(GroupKind::Dense, 1);
        r.add_group(GroupKind::Regular, 40);
        r.add_group(GroupKind::Sparse, 5);
        r.add_group(GroupKind::OneElement, 2);
        r.decimal_bytes = 3;
        r.structure_bytes = 39;
        assert_eq!(r.sampling_bytes(), 61);
        assert_eq!(r.total_bytes(), 161);
        assert_eq!(r.resident_bytes(), 200);
        assert_eq!(r.count_for(GroupKind::Dense), 1);
    }

    #[test]
    fn ratios_sum_to_one() {
        let mut r = MemoryReport::default();
        r.add_group(GroupKind::Dense, 0);
        r.add_group(GroupKind::Dense, 0);
        r.add_group(GroupKind::Regular, 0);
        r.add_group(GroupKind::OneElement, 0);
        let ratios = r.group_ratios();
        assert!((ratios.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((ratios[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_has_zero_ratios() {
        let r = MemoryReport::default();
        assert_eq!(r.group_ratios(), [0.0; 4]);
        assert_eq!(r.total_bytes(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MemoryReport::default();
        a.add_group(GroupKind::Sparse, 8);
        a.adjacency_bytes = 16;
        let mut b = MemoryReport::default();
        b.add_group(GroupKind::Sparse, 8);
        b.decimal_bytes = 4;
        b.structure_bytes = 7;
        b.direct_vertices = 3;
        a.narrow_blocks = 2;
        b.narrow_blocks = 5;
        b.wide_blocks = 1;
        a.compact_blocks = 4;
        b.compact_blocks = 9;
        a.merge(&b);
        assert_eq!(a.direct_vertices, 3);
        assert_eq!(
            (a.compact_blocks, a.narrow_blocks, a.wide_blocks),
            (13, 7, 1)
        );
        assert_eq!(a.structure_bytes, 7);
        assert_eq!(a.sparse_bytes, 16);
        assert_eq!(a.count_for(GroupKind::Sparse), 2);
        assert_eq!(a.decimal_bytes, 4);
        assert_eq!(a.adjacency_bytes, 16);
    }
}
