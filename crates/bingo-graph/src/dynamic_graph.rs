//! The mutable weighted graph.
//!
//! [`DynamicGraph`] is the snapshot-model dynamic graph of Definition 2.1:
//! a vertex set `0..num_vertices` plus per-vertex adjacency arrays that can
//! be mutated by edge insertions, deletions and bias updates. All sampling
//! structures in `bingo-core` and the baselines are built over this graph,
//! observing its mutations either one at a time (streaming) or in batches.
//!
//! # Loading
//!
//! The largest batch a graph ever takes is its first: every edge of the
//! initial snapshot. So a graph made by [`DynamicGraph::new`] starts out
//! *loading*, and is built in one pass instead of edge by edge:
//!
//! - **Staging.** Until its first read or its first `&mut` call other than
//!   [`DynamicGraph::insert_edge`], an insert makes the same checks and
//!   returns the same result as on a settled graph, but only appends the
//!   edge to a bucket for its source's range of 256 vertices, as a 9-byte
//!   record: the source's offset in the range, the destination and the
//!   bias's narrow word (see [`crate::adjacency`]). A bias with no narrow
//!   form is staged as word 0, which no narrow slot holds, and waits in its
//!   bucket's list of wide biases, in insertion order. The neighbor index
//!   comes from a per-vertex count, and a per-vertex bit records whether
//!   some staged bias needs a wide slot.
//! - **The first read builds.** The first `&self` call (any but
//!   [`DynamicGraph::num_edges`]) builds every vertex's block once, at the
//!   capacity the pushes would have grown it to and the slot width they
//!   would have left it at, with the same edges in the same order, so
//!   blocks, [`DynamicGraph::memory_bytes`] and every later write are those
//!   of a graph that was pushed. It costs one allocation per non-isolated
//!   vertex and one per bucket, and frees each bucket as its range is built,
//!   so the bytes live never run more than about one bucket past the staged
//!   edges or the built graph. The records take fewer bytes than the blocks
//!   built from them: 9 an edge, against an 8-byte narrow slot plus its share
//!   of the block's 16-byte header and spare capacity. So the built graph,
//!   not the staging, sets the load's high-water mark: the graph plus one
//!   bucket's records. That matters past the load, because the allocator
//!   keeps the heap a load reached resident: a byte a block saves is a byte
//!   of resident memory only while no staging sits above the graph, and
//!   would otherwise only widen the hole the freed records leave. Ranges are
//!   small because a graph may crowd its hubs into a few of them: with
//!   ranges of 4 096 vertices, the bytes live while loading a 2^14-vertex
//!   R-MAT graph of 12-byte slots peaked at 1.42 × the graph built, at 256
//!   vertices at 1.09 ×.
//!   Concurrent first readers wait for that one build, which runs on the
//!   reading thread. It stays there because building the buckets on the
//!   worker pool, measured, cut the first read from about 0.07 to 0.05 s on
//!   the benchmark graphs but raised their peak resident set by 17–20 MiB,
//!   most likely as blocks allocated on pool threads land in other
//!   allocator arenas.
//! - **Once.** The next `&mut` call adopts the built lists (or builds them,
//!   if nothing read first) and the graph is settled for good: later
//!   inserts push, as streaming updates do.

use crate::adjacency::{AdjacencyList, Edge, Fill, SwapDelete};
use crate::csr::CsrGraph;
use crate::updates::{UpdateBatch, UpdateEvent};
use crate::{Bias, GraphError, Result, VertexId};
use std::sync::{Mutex, OnceLock};

/// A dynamic, directed, weighted graph.
///
/// Undirected graphs are represented by inserting both edge directions, which
/// is what the dataset generators and loaders do by default. A new graph is
/// loading until its first read (see the [module docs](self)); a clone is
/// always settled, and shares the blocks of the graph it was cloned from.
pub struct DynamicGraph {
    /// Every vertex's list once the graph is settled; empty while loading.
    adjacency: Vec<AdjacencyList>,
    /// `Some` while the graph is loading.
    loading: Option<Loading>,
    num_edges: usize,
}

/// Vertices per staging bucket (see the module docs).
const BUCKET_VERTICES: usize = 256;

/// Records per chunk of a bucket. Chunks never grow, so a bucket holds less
/// than one chunk of room past its records and is never copied.
const CHUNK_RECORDS: usize = 128;

/// The staged edges' lock is held only to take them out, which cannot panic.
const UNPOISONED: &str = "nothing panics holding the staged edges";

/// A staged edge: the source's offset in its bucket, then the destination
/// and the bias's narrow word, little-endian.
type Record = [u8; 9];

/// The word a record stages a bias with no narrow form under. No narrow
/// slot holds it: a narrow bias is a valid integer, so at least 1.
const WIDE_WORD: u32 = 0;

/// The record of an edge to `dst` with narrow word `word`, out of the
/// vertex at `offset` in its bucket.
fn record(offset: usize, dst: VertexId, word: u32) -> Record {
    let [d0, d1, d2, d3] = dst.to_le_bytes();
    let [w0, w1, w2, w3] = word.to_le_bytes();
    [offset as u8, d0, d1, d2, d3, w0, w1, w2, w3]
}

/// The offset, destination and word of a [`record`].
#[inline]
fn fields(&[offset, d0, d1, d2, d3, w0, w1, w2, w3]: &Record) -> (usize, VertexId, u32) {
    let dst = VertexId::from_le_bytes([d0, d1, d2, d3]);
    (offset as usize, dst, u32::from_le_bytes([w0, w1, w2, w3]))
}

/// One vertex range's staged edges, in insertion order.
#[derive(Clone, Default)]
struct Bucket {
    chunks: Vec<Vec<Record>>,
    /// The bias of every record staged with [`WIDE_WORD`], in order.
    wide_biases: Vec<Bias>,
}

/// A loading graph: its staged edges, then the lists its first read built.
struct Loading {
    /// Taken out, whole, by the build.
    staged: Mutex<Staged>,
    built: OnceLock<Vec<AdjacencyList>>,
}

#[derive(Default)]
struct Staged {
    /// Edges staged per vertex so far.
    degrees: Vec<u32>,
    /// Bit `v % 64` of word `v / 64` is set once `v` has staged an edge
    /// that does not keep in a narrow slot: its block is built wide.
    wide: Vec<u64>,
    /// Bucket `b` holds the edges of vertices `b * BUCKET_VERTICES ..`.
    buckets: Vec<Bucket>,
}

impl Staged {
    fn new(num_vertices: usize) -> Self {
        Staged {
            degrees: vec![0; num_vertices],
            wide: vec![0; num_vertices.div_ceil(64)],
            buckets: vec![Bucket::default(); num_vertices.div_ceil(BUCKET_VERTICES)],
        }
    }

    /// Stage `edge` out of `src` and return its neighbor index.
    fn stage(&mut self, src: VertexId, edge: Edge) -> usize {
        let src = src as usize;
        let degree = &mut self.degrees[src];
        let index = *degree;
        *degree = index
            .checked_add(1)
            .expect("an adjacency list of u32::MAX edges is full");
        let bucket = &mut self.buckets[src / BUCKET_VERTICES];
        let word = edge.bias.narrow().unwrap_or_else(|| {
            self.wide[src / 64] |= 1 << (src % 64);
            bucket.wide_biases.push(edge.bias);
            WIDE_WORD
        });
        let record = record(src % BUCKET_VERTICES, edge.dst, word);
        match bucket.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK_RECORDS => chunk.push(record),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_RECORDS);
                chunk.push(record);
                bucket.chunks.push(chunk);
            }
        }
        index as usize
    }

    /// Every vertex's list, bucket by bucket: each block is made at its
    /// final capacity and the width its edges need, then each edge is
    /// written straight into the next free slot of its block while the
    /// bucket's chunks are freed as they are read. What is live runs past
    /// the staged edges, or the built graph, by about one bucket.
    fn build(self) -> Vec<AdjacencyList> {
        let Staged {
            degrees,
            wide,
            buckets,
        } = self;
        let mut lists = vec![AdjacencyList::new(); degrees.len()];
        let ranges = lists
            .chunks_mut(BUCKET_VERTICES)
            .zip(degrees.chunks(BUCKET_VERTICES));
        for (b, ((lists, degrees), bucket)) in ranges.zip(buckets).enumerate() {
            let first = b * BUCKET_VERTICES;
            let mut free: Vec<Fill<'_>> = lists
                .iter_mut()
                .zip(degrees)
                .zip(first..)
                .map(|((list, &degree), v)| {
                    list.load(degree as usize, wide[v / 64] & 1 << (v % 64) != 0)
                })
                .collect();
            let mut wide_biases = bucket.wide_biases.into_iter();
            for record in bucket.chunks.into_iter().flatten() {
                let (offset, dst, word) = fields(&record);
                let bias = match word {
                    WIDE_WORD => wide_biases.next().expect("one wide bias per wide record"),
                    word => Bias::from_narrow(word),
                };
                free[offset].put(Edge::new(dst, bias));
            }
        }
        lists
    }
}

impl Loading {
    /// The staged edges, taken out for the first read's build.
    fn take_staged(&self) -> Staged {
        let mut staged = self.staged.lock().expect(UNPOISONED);
        std::mem::take(&mut *staged)
    }

    /// The lists, built now if the first read has not built them.
    fn into_lists(self) -> Vec<AdjacencyList> {
        let Loading { staged, built } = self;
        built
            .into_inner()
            .unwrap_or_else(|| staged.into_inner().expect(UNPOISONED).build())
    }
}

impl Default for DynamicGraph {
    fn default() -> Self {
        DynamicGraph::new(0)
    }
}

impl Clone for DynamicGraph {
    fn clone(&self) -> Self {
        DynamicGraph {
            adjacency: self.lists().clone(),
            loading: None,
            num_edges: self.num_edges,
        }
    }
}

impl std::fmt::Debug for DynamicGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicGraph")
            .field("adjacency", self.lists())
            .field("num_edges", &self.num_edges)
            .finish()
    }
}

/// The edge `(src, dst)` of a graph of `num_vertices` vertices, or why it
/// cannot be inserted.
fn checked_edge(num_vertices: usize, src: VertexId, dst: VertexId, bias: Bias) -> Result<Edge> {
    for vertex in [src, dst] {
        if vertex as usize >= num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            });
        }
    }
    if !bias.is_valid() {
        return Err(GraphError::InvalidBias { src, dst });
    }
    Ok(Edge::new(dst, bias))
}

impl DynamicGraph {
    /// Create a graph with `num_vertices` isolated vertices. It is loading
    /// until its first read (see the [module docs](self)).
    pub fn new(num_vertices: usize) -> Self {
        DynamicGraph {
            adjacency: Vec::new(),
            loading: Some(Loading {
                staged: Mutex::new(Staged::new(num_vertices)),
                built: OnceLock::new(),
            }),
            num_edges: 0,
        }
    }

    /// Every vertex's list. The first call on a loading graph builds them.
    fn lists(&self) -> &Vec<AdjacencyList> {
        match &self.loading {
            None => &self.adjacency,
            Some(loading) => loading.built.get_or_init(|| loading.take_staged().build()),
        }
    }

    /// Every vertex's list, writable. A loading graph settles here for good.
    fn lists_mut(&mut self) -> &mut Vec<AdjacencyList> {
        if let Some(loading) = self.loading.take() {
            self.adjacency = loading.into_lists();
        }
        &mut self.adjacency
    }

    /// `v`'s list, writable.
    fn list_mut(&mut self, v: VertexId) -> Result<&mut AdjacencyList> {
        let lists = self.lists_mut();
        let num_vertices = lists.len();
        lists
            .get_mut(v as usize)
            .ok_or(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices,
            })
    }

    /// Where an insert stages its edge: a loading graph nothing has read.
    fn staging(&mut self) -> Option<&mut Staged> {
        let loading = self.loading.as_mut()?;
        if loading.built.get_mut().is_some() {
            return None;
        }
        Some(loading.staged.get_mut().expect(UNPOISONED))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.lists().len()
    }

    /// Number of directed edges currently present.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree (out-degree) of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.lists()
            .get(v as usize)
            .map(AdjacencyList::degree)
            .unwrap_or(0)
    }

    /// Maximum out-degree over all vertices.
    pub fn max_degree(&self) -> usize {
        self.lists()
            .iter()
            .map(AdjacencyList::degree)
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        match self.num_vertices() {
            0 => 0.0,
            n => self.num_edges as f64 / n as f64,
        }
    }

    /// Adjacency list of `v`.
    pub fn neighbors(&self, v: VertexId) -> Result<&AdjacencyList> {
        let lists = self.lists();
        lists.get(v as usize).ok_or(GraphError::VertexOutOfRange {
            vertex: v,
            num_vertices: lists.len(),
        })
    }

    /// Add a brand-new isolated vertex and return its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let lists = self.lists_mut();
        lists.push(AdjacencyList::new());
        (lists.len() - 1) as VertexId
    }

    /// Insert the directed edge `(src, dst)` with the given bias and return
    /// its neighbor index in `src`'s adjacency list.
    ///
    /// Duplicate edges are allowed (the paper explicitly supports inserting
    /// a just-deleted edge again); each insertion creates a new slot. On a
    /// loading graph the edge is staged (see the [module docs](self)).
    pub fn insert_edge(&mut self, src: VertexId, dst: VertexId, bias: Bias) -> Result<usize> {
        let idx = match self.staging() {
            Some(staged) => {
                let edge = checked_edge(staged.degrees.len(), src, dst, bias)?;
                staged.stage(src, edge)
            }
            None => {
                let lists = self.lists_mut();
                let edge = checked_edge(lists.len(), src, dst, bias)?;
                lists[src as usize].push(edge)
            }
        };
        self.num_edges += 1;
        Ok(idx)
    }

    /// Insert both directions of an undirected edge.
    pub fn insert_undirected_edge(&mut self, a: VertexId, b: VertexId, bias: Bias) -> Result<()> {
        self.insert_edge(a, b, bias)?;
        self.insert_edge(b, a, bias)?;
        Ok(())
    }

    /// Delete the first edge `(src, dst)` found, using swap-delete.
    ///
    /// Returns the [`SwapDelete`] record so samplers mirroring the adjacency
    /// layout (Bingo's inverted index) can update their neighbor indices.
    pub fn delete_edge(&mut self, src: VertexId, dst: VertexId) -> Result<SwapDelete> {
        let adj = self.list_mut(src)?;
        let idx = adj.find(dst).ok_or(GraphError::EdgeNotFound { src, dst })?;
        let out = adj
            .swap_delete(idx)
            .expect("index returned by find is valid");
        self.num_edges -= 1;
        Ok(out)
    }

    /// Update the bias of the first edge `(src, dst)` found. Returns the old
    /// bias.
    pub fn update_bias(&mut self, src: VertexId, dst: VertexId, bias: Bias) -> Result<Bias> {
        let adj = self.list_mut(src)?;
        if !bias.is_valid() {
            return Err(GraphError::InvalidBias { src, dst });
        }
        let idx = adj.find(dst).ok_or(GraphError::EdgeNotFound { src, dst })?;
        Ok(adj
            .set_bias(idx, bias)
            .expect("index returned by find is valid"))
    }

    /// Whether the edge `(src, dst)` exists.
    pub fn has_edge(&self, src: VertexId, dst: VertexId) -> bool {
        self.lists()
            .get(src as usize)
            .map(|adj| adj.find(dst).is_some())
            .unwrap_or(false)
    }

    /// Apply a single update event to the graph. Deleting a missing edge is
    /// reported as an error; the batched-update machinery filters those out
    /// beforehand.
    pub fn apply(&mut self, event: &UpdateEvent) -> Result<()> {
        match *event {
            UpdateEvent::Insert { src, dst, bias } => {
                self.insert_edge(src, dst, bias)?;
            }
            UpdateEvent::Delete { src, dst } => {
                self.delete_edge(src, dst)?;
            }
            UpdateEvent::UpdateBias { src, dst, bias } => {
                self.update_bias(src, dst, bias)?;
            }
        }
        Ok(())
    }

    /// Apply a batch of update events in order, skipping deletions of edges
    /// that do not exist (which can happen with randomly generated mixed
    /// streams). Returns the number of events actually applied.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> usize {
        let mut applied = 0;
        for event in batch.events() {
            let ok = match *event {
                UpdateEvent::Delete { src, dst } => self.delete_edge(src, dst).is_ok(),
                ref other => self.apply(other).is_ok(),
            };
            if ok {
                applied += 1;
            }
        }
        applied
    }

    /// Build a static CSR snapshot of the current graph state.
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_dynamic(self)
    }

    /// Iterator over all `(src, edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, Edge)> + '_ {
        self.lists()
            .iter()
            .enumerate()
            .flat_map(|(v, adj)| adj.edges().iter().map(move |e| (v as VertexId, e)))
    }

    /// Total heap memory used by adjacency storage: every vertex's block
    /// (see [`AdjacencyList::memory_bytes`]) and the inline handles. A clone
    /// of the graph, or an engine built from it, shares the blocks until one
    /// side writes to them; a shared block appears in both reports.
    pub fn memory_bytes(&self) -> usize {
        let lists = self.lists();
        lists.iter().map(AdjacencyList::memory_bytes).sum::<usize>()
            + lists.capacity() * std::mem::size_of::<AdjacencyList>()
    }
}

/// Build the 6-vertex running example used throughout the paper
/// (Figures 1, 2 and 4). Vertex 2's out-edges are `(2,1,5)`, `(2,4,4)`,
/// `(2,5,3)`; the remaining edges complete snapshot 1 of Figure 1.
pub fn running_example() -> DynamicGraph {
    let mut g = DynamicGraph::new(6);
    let edges: [(VertexId, VertexId, u64); 8] = [
        (0, 1, 6),
        (0, 2, 7),
        (1, 2, 5),
        (2, 1, 5),
        (2, 4, 4),
        (2, 5, 3),
        (3, 2, 5),
        (4, 3, 1),
    ];
    for (s, d, w) in edges {
        g.insert_edge(s, d, Bias::from_int(w))
            .expect("running example edges are valid");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_empty() {
        let g = DynamicGraph::new(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn insert_and_query_edges() {
        let mut g = DynamicGraph::new(6);
        g.insert_edge(2, 1, Bias::from_int(5)).unwrap();
        g.insert_edge(2, 4, Bias::from_int(4)).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(2), 2);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.neighbors(2).unwrap().total_bias(), 9.0);
    }

    #[test]
    fn insert_rejects_bad_input() {
        let mut g = DynamicGraph::new(2);
        assert!(matches!(
            g.insert_edge(0, 5, Bias::from_int(1)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            g.insert_edge(5, 0, Bias::from_int(1)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            g.insert_edge(0, 1, Bias::from_int(0)),
            Err(GraphError::InvalidBias { .. })
        ));
        assert!(matches!(
            g.insert_edge(0, 1, Bias::from_float(-2.0)),
            Err(GraphError::InvalidBias { .. })
        ));
    }

    #[test]
    fn duplicate_edges_are_allowed() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(0, 1, Bias::from_int(1)).unwrap();
        g.insert_edge(0, 1, Bias::from_int(2)).unwrap();
        assert_eq!(g.degree(0), 2);
        // Deleting removes the first matching copy only.
        g.delete_edge(0, 1).unwrap();
        assert_eq!(g.degree(0), 1);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn delete_edge_swaps_and_reports() {
        let mut g = super::running_example();
        let out = g.delete_edge(2, 1).unwrap();
        assert_eq!(out.removed.dst, 1);
        assert_eq!(out.removed_index, 0);
        assert_eq!(out.moved_from, Some(2));
        assert_eq!(g.degree(2), 2);
        assert!(!g.has_edge(2, 1));
        assert!(matches!(
            g.delete_edge(2, 1),
            Err(GraphError::EdgeNotFound { .. })
        ));
    }

    #[test]
    fn update_bias_returns_old_value() {
        let mut g = super::running_example();
        let old = g.update_bias(2, 4, Bias::from_int(9)).unwrap();
        assert_eq!(old.value(), 4.0);
        assert!(g.update_bias(2, 99, Bias::from_int(1)).is_err());
        assert!(g.update_bias(2, 4, Bias::from_int(0)).is_err());
    }

    #[test]
    fn undirected_insert_adds_both_directions() {
        let mut g = DynamicGraph::new(3);
        g.insert_undirected_edge(0, 1, Bias::from_int(2)).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn add_vertex_appends_an_isolated_vertex() {
        let mut g = DynamicGraph::new(2);
        let v = g.add_vertex();
        assert_eq!(v, 2);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.degree(v), 0);
    }

    #[test]
    fn apply_events_roundtrip() {
        let mut g = DynamicGraph::new(4);
        g.apply(&UpdateEvent::Insert {
            src: 0,
            dst: 1,
            bias: Bias::from_int(3),
        })
        .unwrap();
        g.apply(&UpdateEvent::UpdateBias {
            src: 0,
            dst: 1,
            bias: Bias::from_int(7),
        })
        .unwrap();
        assert_eq!(g.neighbors(0).unwrap().edge(0).unwrap().bias.value(), 7.0);
        g.apply(&UpdateEvent::Delete { src: 0, dst: 1 }).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert!(g.apply(&UpdateEvent::Delete { src: 0, dst: 1 }).is_err());
    }

    #[test]
    fn running_example_matches_paper() {
        let g = super::running_example();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 8);
        let adj = g.neighbors(2).unwrap();
        assert_eq!(adj.degree(), 3);
        assert_eq!(adj.total_bias(), 12.0);
        assert_eq!(adj.max_bias(), 5.0);
    }

    #[test]
    fn edges_iterator_covers_everything() {
        let g = super::running_example();
        assert_eq!(g.edges().count(), 8);
        let from_two: Vec<VertexId> = g
            .edges()
            .filter(|(s, _)| *s == 2)
            .map(|(_, e)| e.dst)
            .collect();
        assert_eq!(from_two, vec![1, 4, 5]);
    }

    fn is_loading(graph: &DynamicGraph) -> bool {
        graph.loading.is_some()
    }

    /// The vertices [`three_buckets`] gives edges only a wide slot holds:
    /// three in the first bucket (at offsets 0 and 255 among them), offset
    /// 255 of the second, and offset 0 and the last vertex of the third,
    /// partial one.
    const WIDE_SOURCES: [VertexId; 8] = [0, 7, 255, 300, 511, 512, 600, 611];

    /// Three buckets' worth of vertices, some with no edges, one with 40,
    /// and the [`WIDE_SOURCES`] with edges only a wide slot holds amid
    /// narrow ones: loading, or settled before the first insert, so that
    /// every edge is pushed.
    fn three_buckets(pushed: bool) -> DynamicGraph {
        let n = 2 * BUCKET_VERTICES + 100;
        let mut graph = DynamicGraph::new(n);
        if pushed {
            graph.lists_mut();
        }
        for i in 0..6 * n {
            let src = (i * 7919 % n) as VertexId;
            let dst = (i * 104_729 % n) as VertexId;
            graph
                .insert_edge(src, dst, Bias::from_int(i as u64 % 9 + 1))
                .unwrap();
            if i % 200 == 100 {
                // Each wide source gets a float, then an integer past
                // 2^32, between its narrow edges.
                let k = i / 200;
                let src = WIDE_SOURCES[k % WIDE_SOURCES.len()];
                let bias = match k / WIDE_SOURCES.len() % 2 {
                    0 => Bias::from_float(0.5 + k as f64),
                    _ => Bias::from_int((1 << 32) + k as u64),
                };
                graph.insert_edge(src, dst, bias).unwrap();
            }
        }
        for dst in 0..40 {
            graph.insert_edge(5, dst, Bias::from_int(2)).unwrap();
        }
        graph.insert_edge(7, 1, Bias::from_float(0.5)).unwrap();
        graph.insert_edge(300, 2, Bias::from_int(1 << 32)).unwrap();
        graph
    }

    #[test]
    fn a_loaded_block_is_wide_only_where_an_edge_needs_it() {
        let (loading, pushed) = (three_buckets(false), three_buckets(true));
        for v in 0..loading.num_vertices() as VertexId {
            let (list, twin) = (loading.neighbors(v).unwrap(), pushed.neighbors(v).unwrap());
            assert_eq!(list.is_narrow(), !WIDE_SOURCES.contains(&v), "vertex {v}");
            assert_eq!(list.is_narrow(), twin.is_narrow());
            assert_eq!(list.memory_bytes(), twin.memory_bytes());
            assert_eq!(list, twin, "vertex {v}");
        }
        // The wide edges are mid-list, of both kinds.
        for v in WIDE_SOURCES {
            let edges = loading.neighbors(v).unwrap().edges();
            let wide: Vec<usize> = (0..edges.len())
                .filter(|&i| edges.bias(i).narrow().is_none())
                .collect();
            assert!(wide.len() >= 2, "vertex {v}: {edges:?}");
            assert!(wide[0] > 0 && wide[0] + 1 < edges.len(), "vertex {v}");
        }
        assert!(loading.edges().eq(pushed.edges()));
    }

    #[test]
    fn a_rejected_insert_stages_nothing() {
        let mut loading = DynamicGraph::new(3);
        let mut settled = DynamicGraph::new(3);
        settled.lists_mut();
        for g in [&mut loading, &mut settled] {
            assert!(matches!(
                g.insert_edge(3, 0, Bias::from_int(1)),
                Err(GraphError::VertexOutOfRange { vertex: 3, .. })
            ));
            assert!(matches!(
                g.insert_edge(0, 7, Bias::from_int(1)),
                Err(GraphError::VertexOutOfRange { vertex: 7, .. })
            ));
            assert!(matches!(
                g.insert_edge(0, 1, Bias::from_float(-1.0)),
                Err(GraphError::InvalidBias { src: 0, dst: 1 })
            ));
        }
        let staged = loading.staging().expect("still loading");
        assert_eq!(staged.degrees, [0, 0, 0]);
        assert!(staged
            .buckets
            .iter()
            .all(|b| b.chunks.is_empty() && b.wide_biases.is_empty()));
        assert_eq!(loading.insert_edge(0, 2, Bias::from_int(4)), Ok(0));
        assert_eq!(settled.insert_edge(0, 2, Bias::from_int(4)), Ok(0));
        assert_eq!(loading.num_edges(), 1);
        assert_eq!(format!("{loading:?}"), format!("{settled:?}"));
    }

    /// `op` on a loading graph and on its settled twin: the same result and
    /// the same graph after, and the loading one settled by it.
    fn as_on_a_settled_twin<T: PartialEq + std::fmt::Debug>(op: impl Fn(&mut DynamicGraph) -> T) {
        let mut loading = three_buckets(false);
        let mut settled = three_buckets(true);
        assert!(is_loading(&loading) && !is_loading(&settled));
        assert_eq!(op(&mut loading), op(&mut settled));
        assert!(!is_loading(&loading));
        assert_eq!(loading.num_edges(), settled.num_edges());
        assert_eq!(loading.memory_bytes(), settled.memory_bytes());
        assert!(loading.edges().eq(settled.edges()));
    }

    #[test]
    fn every_other_write_settles_a_loading_graph_as_it_finds_it() {
        as_on_a_settled_twin(|g| g.delete_edge(5, 17));
        as_on_a_settled_twin(|g| g.delete_edge(5, 99));
        as_on_a_settled_twin(|g| g.delete_edge(9_000, 1));
        as_on_a_settled_twin(|g| g.update_bias(5, 30, Bias::from_int(9)));
        as_on_a_settled_twin(|g| g.update_bias(5, 30, Bias::from_int(0)));
        as_on_a_settled_twin(|g| {
            let batch = UpdateBatch::new(vec![
                UpdateEvent::Insert {
                    src: 5,
                    dst: 3,
                    bias: Bias::from_int(3),
                },
                UpdateEvent::Delete { src: 5, dst: 0 },
                UpdateEvent::Delete { src: 5, dst: 0 },
                UpdateEvent::UpdateBias {
                    src: 5,
                    dst: 1,
                    bias: Bias::from_int(6),
                },
            ]);
            g.apply_batch(&batch)
        });
        as_on_a_settled_twin(|g| g.add_vertex());
    }

    #[test]
    fn a_clone_of_a_loading_graph_is_settled_and_shares_its_blocks() {
        let graph = three_buckets(false);
        let clone = graph.clone();
        assert!(!is_loading(&clone));
        assert_eq!(clone.num_edges(), graph.num_edges());
        let mut shared = 0;
        for v in 0..graph.num_vertices() as VertexId {
            let (a, b) = (graph.neighbors(v).unwrap(), clone.neighbors(v).unwrap());
            assert_eq!(a, b);
            if !a.is_empty() {
                assert_eq!(a.edges().as_ptr(), b.edges().as_ptr(), "vertex {v}");
                shared += 1;
            }
        }
        assert!(shared > BUCKET_VERTICES);
    }

    #[test]
    fn concurrent_first_reads_see_one_build() {
        let graph = three_buckets(false);
        let barrier = std::sync::Barrier::new(8);
        let seen: Vec<(usize, usize)> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let lists = graph.lists();
                        (lists.as_ptr() as usize, lists[5].edges().as_ptr() as usize)
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|&read| read == seen[0]), "{seen:?}");
        assert!(graph.edges().eq(three_buckets(true).edges()));
    }

    #[test]
    fn memory_accounting_is_positive_after_inserts() {
        let mut g = DynamicGraph::new(10);
        for i in 0..9u32 {
            g.insert_edge(0, i + 1, Bias::from_int(1)).unwrap();
        }
        assert!(g.memory_bytes() > 0);
    }
}
