//! Graph update events and the paper's update-stream protocol.
//!
//! Section 6.1 of the paper generates dynamic workloads as follows: the
//! original edge set is split into a base set **A** (loaded initially) and a
//! spare set **B** of `10 × BATCHSIZE` edges; each update either deletes a
//! random edge currently in A or inserts a random edge from B, producing a
//! stream of `10 × BATCHSIZE` events that is then ingested either one at a
//! time (streaming) or in `BATCHSIZE`-sized batches.

use crate::{Bias, DynamicGraph, VertexId};
use rand::Rng;

/// A single graph mutation. At most 20 bytes (two vertex ids, an 8-byte
/// 4-aligned [`Bias`] and the tag), so a batch of events stays compact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateEvent {
    /// Insert the edge `(src, dst)` with the given bias.
    Insert {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Sampling bias of the new edge.
        bias: Bias,
    },
    /// Delete one copy of the edge `(src, dst)`.
    Delete {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Replace the bias of the edge `(src, dst)`.
    UpdateBias {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// New bias.
        bias: Bias,
    },
}

const _: () = assert!(std::mem::size_of::<UpdateEvent>() <= 20);

impl UpdateEvent {
    /// The source vertex the event applies to (updates are grouped by source
    /// vertex for batched ingestion, §5.2).
    pub fn src(&self) -> VertexId {
        match *self {
            UpdateEvent::Insert { src, .. }
            | UpdateEvent::Delete { src, .. }
            | UpdateEvent::UpdateBias { src, .. } => src,
        }
    }

    /// Whether this event is an insertion.
    fn is_insert(&self) -> bool {
        matches!(self, UpdateEvent::Insert { .. })
    }

    /// Whether this event is a deletion.
    pub fn is_delete(&self) -> bool {
        matches!(self, UpdateEvent::Delete { .. })
    }
}

/// An ordered batch of update events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    events: Vec<UpdateEvent>,
}

impl UpdateBatch {
    /// Create a batch from a list of events.
    pub fn new(events: Vec<UpdateEvent>) -> Self {
        UpdateBatch { events }
    }

    /// The events in ingestion order.
    pub fn events(&self) -> &[UpdateEvent] {
        &self.events
    }

    /// Consume the batch, returning the events in ingestion order.
    pub fn into_events(self) -> Vec<UpdateEvent> {
        self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of insertions in the batch.
    pub fn num_insertions(&self) -> usize {
        self.events.iter().filter(|e| e.is_insert()).count()
    }

    /// Number of deletions in the batch.
    pub fn num_deletions(&self) -> usize {
        self.events.iter().filter(|e| e.is_delete()).count()
    }

    /// Split the batch into chunks of at most `chunk_size` events.
    pub fn chunks(&self, chunk_size: usize) -> Vec<UpdateBatch> {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.events
            .chunks(chunk_size)
            .map(|c| UpdateBatch::new(c.to_vec()))
            .collect()
    }

    /// Split the batch by partition owner: `owner(src)` maps every event's
    /// source vertex to one of `num_partitions` partitions, and the result
    /// holds one (possibly empty) sub-batch per partition with the original
    /// event order preserved within each partition.
    ///
    /// This is the router-side half of sharded ingestion: each sub-batch can
    /// be shipped to the engine shard owning those source vertices and
    /// applied there independently, because update semantics only depend on
    /// the source vertex's adjacency.
    pub fn split_by_owner<F>(&self, num_partitions: usize, owner: F) -> Vec<UpdateBatch>
    where
        F: Fn(VertexId) -> usize,
    {
        let mut parts: Vec<UpdateBatch> = (0..num_partitions.max(1))
            .map(|_| UpdateBatch::default())
            .collect();
        for &event in &self.events {
            let p = owner(event.src()).min(parts.len() - 1);
            parts[p].events.push(event);
        }
        parts
    }
}

impl FromIterator<UpdateEvent> for UpdateBatch {
    fn from_iter<T: IntoIterator<Item = UpdateEvent>>(iter: T) -> Self {
        UpdateBatch::new(iter.into_iter().collect())
    }
}

/// Kind of update stream generated by [`UpdateStreamBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Insertions only ("Insertion" workload).
    InsertOnly,
    /// Deletions only ("Deletion" workload).
    DeleteOnly,
    /// Equal mix of insertions and deletions ("Mixed" workload).
    Mixed,
}

/// Builds the paper's evaluation update streams from an initial graph.
///
/// The builder removes `reserve` edges from the initial graph into the spare
/// set **B** (so insertions re-add real edges), then draws the requested
/// number of events.
#[derive(Debug, Clone)]
pub struct UpdateStreamBuilder {
    kind: UpdateKind,
    reserve: usize,
}

impl UpdateStreamBuilder {
    /// Create a builder for the given workload kind, reserving
    /// `reserve` edges for the insertion pool.
    pub fn new(kind: UpdateKind, reserve: usize) -> Self {
        UpdateStreamBuilder { kind, reserve }
    }

    /// Prepare the graph and generate up to `count` update events.
    ///
    /// The graph is mutated: the reserved edges are removed (they form set
    /// B). The returned events are valid to apply in order against the
    /// mutated graph. An insert re-adds the next edge of B with its
    /// original bias, cycling through B; a delete removes a random edge
    /// still present. An event whose pool is empty — an insert when B is
    /// empty, a delete when no edge is left — is skipped, so the batch
    /// holds fewer than `count` events then.
    pub fn build<R: Rng + ?Sized>(
        &self,
        graph: &mut DynamicGraph,
        count: usize,
        rng: &mut R,
    ) -> UpdateBatch {
        // Collect the full edge list and pick `reserve` of them for set B.
        let mut all_edges: Vec<(VertexId, VertexId, Bias)> =
            graph.edges().map(|(src, e)| (src, e.dst, e.bias)).collect();
        // Fisher-Yates style partial shuffle for the reserved pool.
        let reserve = self.reserve.min(all_edges.len());
        for i in 0..reserve {
            let j = rng.gen_range(i..all_edges.len());
            all_edges.swap(i, j);
        }
        let pool_b: Vec<(VertexId, VertexId, Bias)> = all_edges[..reserve].to_vec();
        // Set A = graph minus pool B.
        for &(src, dst, _) in &pool_b {
            // Ignore failures from duplicate edges already removed.
            let _ = graph.delete_edge(src, dst);
        }
        // Track which A-edges exist so deletions stay valid, and which
        // B-edges have been inserted already.
        let mut a_edges: Vec<(VertexId, VertexId, Bias)> =
            graph.edges().map(|(src, e)| (src, e.dst, e.bias)).collect();
        let mut b_cursor = 0usize;
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            let do_insert = match self.kind {
                UpdateKind::InsertOnly => true,
                UpdateKind::DeleteOnly => false,
                UpdateKind::Mixed => i % 2 == 0,
            };
            if do_insert {
                // Insert the next edge from pool B (cycling if exhausted).
                if pool_b.is_empty() {
                    continue;
                }
                let (src, dst, bias) = pool_b[b_cursor % pool_b.len()];
                b_cursor += 1;
                events.push(UpdateEvent::Insert { src, dst, bias });
                a_edges.push((src, dst, bias));
            } else {
                if a_edges.is_empty() {
                    continue;
                }
                let idx = rng.gen_range(0..a_edges.len());
                let (src, dst, _) = a_edges.swap_remove(idx);
                events.push(UpdateEvent::Delete { src, dst });
            }
        }
        UpdateBatch::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic_graph::running_example;
    use crate::generators::{BiasDistribution, GraphGenerator};
    use rand::rngs::mock::StepRng;

    fn test_graph(seed: u64) -> DynamicGraph {
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
        let mut rng = Sm(seed);
        GraphGenerator::ErdosRenyi {
            vertices: 200,
            edges: 2000,
        }
        .generate(BiasDistribution::UniformInt { lo: 1, hi: 31 }, &mut rng)
    }

    #[test]
    fn event_accessors() {
        let e = UpdateEvent::Insert {
            src: 3,
            dst: 4,
            bias: Bias::from_int(2),
        };
        assert_eq!(e.src(), 3);
        assert!(e.is_insert());
        assert!(!e.is_delete());
        let d = UpdateEvent::Delete { src: 7, dst: 1 };
        assert_eq!(d.src(), 7);
        assert!(d.is_delete());
    }

    #[test]
    fn batch_counts() {
        let batch = UpdateBatch::new(vec![
            UpdateEvent::Insert {
                src: 1,
                dst: 2,
                bias: Bias::from_int(1),
            },
            UpdateEvent::Delete { src: 0, dst: 3 },
            UpdateEvent::Insert {
                src: 1,
                dst: 4,
                bias: Bias::from_int(2),
            },
        ]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.num_insertions(), 2);
        assert_eq!(batch.num_deletions(), 1);
    }

    #[test]
    fn chunks_partition_the_batch() {
        let events: Vec<UpdateEvent> = (0..10)
            .map(|i| UpdateEvent::Delete { src: i, dst: 0 })
            .collect();
        let batch = UpdateBatch::new(events);
        let chunks = batch.chunks(3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), 3);
        assert_eq!(chunks[3].len(), 1);
        let total: usize = chunks.iter().map(UpdateBatch::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn split_by_owner_partitions_events_in_order() {
        let events: Vec<UpdateEvent> = (0..12)
            .map(|i| UpdateEvent::Delete { src: i, dst: 0 })
            .collect();
        let batch = UpdateBatch::new(events);
        let parts = batch.split_by_owner(3, |v| (v as usize) / 4);
        assert_eq!(parts.len(), 3);
        for (p, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), 4);
            let srcs: Vec<u32> = part.events().iter().map(|e| e.src()).collect();
            let expected: Vec<u32> = (p as u32 * 4..p as u32 * 4 + 4).collect();
            assert_eq!(srcs, expected, "partition {p} must preserve order");
        }
        let total: usize = parts.iter().map(UpdateBatch::len).sum();
        assert_eq!(total, batch.len());
        // Out-of-range owners are clamped to the last partition.
        let clamped = batch.split_by_owner(2, |_| 99);
        assert_eq!(clamped[1].len(), 12);
    }

    #[test]
    fn insert_only_stream_contains_only_insertions() {
        let mut g = test_graph(1);
        let mut rng = StepRng::new(12345, 987_654_321);
        let batch =
            UpdateStreamBuilder::new(UpdateKind::InsertOnly, 500).build(&mut g, 400, &mut rng);
        assert!(!batch.is_empty());
        assert_eq!(batch.num_deletions(), 0);
        assert_eq!(batch.num_insertions(), batch.len());
    }

    #[test]
    fn delete_only_stream_is_applicable() {
        let mut g = test_graph(2);
        let before = g.num_edges();
        let mut rng = StepRng::new(7, 0x9E3779B97F4A7C15);
        let batch =
            UpdateStreamBuilder::new(UpdateKind::DeleteOnly, 0).build(&mut g, 300, &mut rng);
        assert_eq!(batch.num_insertions(), 0);
        let applied = g.apply_batch(&batch);
        assert_eq!(applied, batch.len());
        assert_eq!(g.num_edges(), before - applied);
    }

    #[test]
    fn mixed_stream_alternates_and_applies() {
        let mut g = test_graph(3);
        let mut rng = StepRng::new(99, 0x2545F4914F6CDD1D);
        let batch = UpdateStreamBuilder::new(UpdateKind::Mixed, 600).build(&mut g, 500, &mut rng);
        assert!(batch.num_insertions() > 0);
        assert!(batch.num_deletions() > 0);
        let applied = g.apply_batch(&batch);
        // Every generated event must be applicable in order.
        assert_eq!(applied, batch.len());
    }

    #[test]
    fn inserts_re_add_reserved_edges_and_an_empty_pool_is_skipped() {
        let original = running_example();
        let mut g = original.clone();
        let mut rng = StepRng::new(5, 11);
        let batch = UpdateStreamBuilder::new(UpdateKind::InsertOnly, 4).build(&mut g, 4, &mut rng);
        assert_eq!(batch.len(), 4);
        for e in batch.events() {
            let UpdateEvent::Insert { src, dst, bias } = *e else {
                panic!("an insert-only stream made {e:?}");
            };
            let adj = original.neighbors(src).unwrap();
            assert!(adj.edges().iter().any(|x| x.dst == dst && x.bias == bias));
        }
        // Nothing reserved, nothing to insert: every event is skipped.
        let mut g = original.clone();
        let batch = UpdateStreamBuilder::new(UpdateKind::InsertOnly, 0).build(&mut g, 4, &mut rng);
        assert!(batch.is_empty());
    }

    #[test]
    fn reserve_shrinks_initial_graph() {
        let mut g = test_graph(4);
        let before = g.num_edges();
        let mut rng = StepRng::new(13, 17);
        let _ = UpdateStreamBuilder::new(UpdateKind::InsertOnly, 100).build(&mut g, 10, &mut rng);
        assert!(g.num_edges() <= before - 90);
    }
}
