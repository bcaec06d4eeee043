//! Offline stand-in for the `rayon` crate — with a **real parallel
//! runtime** on a **persistent worker pool**.
//!
//! The build environment has no registry access, so this shim provides the
//! rayon entry points the workspace uses (`par_iter`, `into_par_iter`,
//! [`spawn`]) over its own executor: a lazily-initialized team of
//! condvar-parked daemon workers fed through a global injector (see the
//! `runtime` module's docs in the source), shared by the fork-join
//! combinators here and by `bingo-service`'s shard tasks.
//! Engine builds and walk passes in `bingo-core`/`bingo-walks` therefore
//! run genuinely multi-threaded, and a parallel call costs a queue push —
//! not a per-call thread spawn (the retired design spawned a scoped team
//! per call, which dominated sub-millisecond passes).
//!
//! ## Execution model
//!
//! * The team size comes from `BINGO_THREADS` (a positive integer), else
//!   [`std::thread::available_parallelism`]; [`current_num_threads`] reports
//!   it and [`with_threads`] pins it for a scope (shim extension used by the
//!   determinism tests). Workers are persistent daemons: the pool grows to
//!   the largest team ever requested (plus [`ensure_pool_workers`] floors)
//!   and parks idle workers on a condvar.
//! * Inputs are split into chunks whose boundaries depend only on the input
//!   length and [`ParIter::with_min_len`] — never on the thread count or on
//!   which participant claims which chunk — and outputs are reassembled in
//!   input order. **Every combinator is bit-identical across thread
//!   counts**, including chunked `reduce` and floating-point `sum`.
//!   Chunking is fused and range-based: chunk items are moved straight out
//!   of the one source buffer, never re-materialized per chunk.
//! * Worker panics are re-raised on the caller with their original payload;
//!   nested parallel calls inside a pool participant run sequentially
//!   inline.
//!
//! ## Closure contract
//!
//! Closures run concurrently on several threads, so combinators require
//! `Fn + Sync` (rayon requires `Fn + Send + Sync`; `Send` is implied here
//! because the closures are only *shared* across the team, never moved to
//! it) and item types must be `Send`. A closure that smuggles mutable state
//! (`FnMut` captures, `Cell`s, shared counters without atomics) does not
//! compile — which is the point: sequential execution silently tolerated
//! such latent bugs, parallel execution must not.
//!
//! [`ParIter::reduce`] additionally has a **semantic** contract the type
//! system cannot check: see its docs.

// The persistent pool serves *borrowed* fork-join jobs, which requires a
// contained lifetime erasure plus the fused chunk store's in-place item
// moves; every unsafe site is `#[allow]`ed individually next to its
// SAFETY argument (see `runtime.rs` / `pool.rs`). Everything else in the
// shim stays safe code.
#![deny(unsafe_code)]

mod pool;
mod runtime;

pub use pool::{
    current_num_threads, pool_profile, reset_pool_profile, set_pool_profiling, with_threads,
    PoolProfile,
};
pub use runtime::{ensure_pool_workers, spawn, spawn_blocking};

/// A per-item pipeline stage: takes each input item through the composed
/// combinator stack.
pub trait ParOp<In>: Sync {
    /// The pipeline's output item type at this stage.
    type Out;
    /// Process one item.
    fn apply(&self, item: In) -> Self::Out;
}

/// The identity stage: returns every item unchanged. The stage every freshly
/// constructed [`ParIter`] starts with.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl<T> ParOp<T> for Identity {
    type Out = T;
    #[inline]
    fn apply(&self, item: T) -> T {
        item
    }
}

/// [`ParIter::map`] stage.
pub struct MapOp<P, F> {
    inner: P,
    f: F,
}

impl<In, P, T, F> ParOp<In> for MapOp<P, F>
where
    P: ParOp<In>,
    F: Fn(P::Out) -> T + Sync,
{
    type Out = T;
    #[inline]
    fn apply(&self, item: In) -> T {
        (self.f)(self.inner.apply(item))
    }
}

/// A parallel iterator: a materialized source plus a lazily composed
/// per-item pipeline, executed chunk-wise on the shim's thread team with
/// input order preserved.
pub struct ParIter<S, P = Identity> {
    source: Vec<S>,
    op: P,
    min_len: usize,
}

impl<S: Send> ParIter<S> {
    /// Wrap an already-materialized source.
    fn from_vec(source: Vec<S>) -> Self {
        ParIter {
            source,
            op: Identity,
            min_len: 1,
        }
    }

    /// Pair every item with its index.
    ///
    /// Like rayon, this is only available while the pipeline is still
    /// index-preserving (directly on a source, before `map`).
    pub fn enumerate(self) -> ParIter<(usize, S)> {
        ParIter {
            source: self.source.into_iter().enumerate().collect(),
            op: Identity,
            min_len: self.min_len,
        }
    }
}

impl<S, P> ParIter<S, P>
where
    S: Send,
    P: ParOp<S>,
    P::Out: Send,
{
    /// Map every item through `f`.
    pub fn map<T, F>(self, f: F) -> ParIter<S, MapOp<P, F>>
    where
        F: Fn(P::Out) -> T + Sync,
    {
        ParIter {
            source: self.source,
            op: MapOp { inner: self.op, f },
            min_len: self.min_len,
        }
    }

    /// Lower bound on the number of items a chunk may contain. Rayon uses
    /// this to stop splitting; here it coarsens the executor's chunk size
    /// the same way, so tiny per-item workloads are not drowned in task
    /// dispatch overhead. The bound also feeds the sequential fast path: an
    /// input that fits in one chunk never touches the thread team.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = self.min_len.max(min);
        self
    }

    /// Execute the pipeline, returning all outputs in input order.
    fn run(self) -> Vec<P::Out> {
        let ParIter {
            source,
            op,
            min_len,
        } = self;
        let chunks = pool::run_chunks(source, min_len, |chunk| {
            chunk.map(|item| op.apply(item)).collect::<Vec<_>>()
        });
        let mut result = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for chunk in chunks {
            result.extend(chunk);
        }
        result
    }

    /// Collect into any `FromIterator` container, preserving input order.
    pub fn collect<C: FromIterator<P::Out>>(self) -> C {
        self.run().into_iter().collect()
    }

    /// Rayon-style reduce: fold from an identity element.
    ///
    /// # Associativity contract
    ///
    /// `op` **must be associative** and `identity()` must be a true identity
    /// for it. Each chunk is folded left-to-right from `identity()`, and the
    /// chunk accumulators are then combined left-to-right in chunk order —
    /// a tree of the same shape rayon produces. For associative `op` the
    /// result equals the plain sequential left fold; for a non-associative
    /// `op` the grouping (but nothing else — chunk boundaries are
    /// thread-count-independent) shows through, exactly as it would under
    /// rayon. Audit note: the `reduce` consumers in this workspace are
    /// `BingoEngine::memory_report` (`MemoryReport::merge`) and
    /// `BingoEngine::apply_batch` (`VertexUpdateOutcome::merge`); both are
    /// integer-wise addition — associative and commutative.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Out
    where
        ID: Fn() -> P::Out + Sync,
        OP: Fn(P::Out, P::Out) -> P::Out + Sync,
    {
        let ParIter {
            source,
            op: stage,
            min_len,
        } = self;
        let partials = pool::run_chunks(source, min_len, |chunk| {
            chunk.fold(identity(), |acc, item| op(acc, stage.apply(item)))
        });
        partials.into_iter().reduce(&op).unwrap_or_else(identity)
    }

    /// Run `f` on every item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Out) + Sync,
    {
        self.map(f).run();
    }

    /// Sum the items. Chunk partial sums are combined in chunk order, so
    /// floating-point totals are deterministic and thread-count-independent
    /// (though they may differ from a single sequential accumulation at the
    /// last-ulp level, as any chunked summation does).
    pub fn sum<T>(self) -> T
    where
        T: std::iter::Sum<P::Out> + std::iter::Sum<T> + Send,
    {
        let ParIter {
            source,
            op,
            min_len,
        } = self;
        pool::run_chunks(source, min_len, |chunk| {
            chunk.map(|item| op.apply(item)).sum::<T>()
        })
        .into_iter()
        .sum()
    }
}

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator: IntoIterator + Sized
where
    Self::Item: Send,
{
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item> {
        ParIter::from_vec(self.into_iter().collect())
    }
}

impl<T: IntoIterator + Sized> IntoParallelIterator for T where T::Item: Send {}

/// `par_iter()` on shared references (slices, vectors, maps, …).
pub trait IntoParallelRefIterator<'data> {
    /// The item type yielded by shared-reference iteration.
    type Item: Send;
    /// Iterate by shared reference.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoIterator,
    <&'data C as IntoIterator>::Item: Send,
{
    type Item = <&'data C as IntoIterator>::Item;
    fn par_iter(&'data self) -> ParIter<Self::Item> {
        ParIter::from_vec(self.into_iter().collect())
    }
}

pub mod prelude {
    //! Rayon-compatible prelude.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, with_threads};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_matches_sequential() {
        let v = vec![1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn range_into_par_iter() {
        let squares: Vec<usize> = (0..5usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn rayon_style_reduce() {
        let total = (1..=10u64).into_par_iter().reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 55);
        let empty = Vec::<u64>::new().into_par_iter().reduce(|| 7, |a, b| a + b);
        assert_eq!(empty, 7);
    }

    #[test]
    fn large_map_collect_preserves_order_across_thread_counts() {
        let expected: Vec<u64> = (0..50_000u64).map(|i| i.wrapping_mul(i)).collect();
        for threads in [1, 2, 8] {
            let got: Vec<u64> = with_threads(threads, || {
                (0..50_000u64)
                    .into_par_iter()
                    .map(|i| i.wrapping_mul(i))
                    .collect()
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn enumerate_pairs_items_with_their_index() {
        let indexed: Vec<(usize, char)> = ['a', 'b', 'c']
            .par_iter()
            .enumerate()
            .map(|(i, &c)| (i, c))
            .collect();
        assert_eq!(indexed, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
    }

    #[test]
    fn integer_sum() {
        let s: u64 = (1..=1000u64).into_par_iter().sum();
        assert_eq!(s, 500_500);
    }

    #[test]
    fn float_sum_is_thread_count_independent() {
        let one: f64 = with_threads(1, || {
            (0..100_000u64)
                .into_par_iter()
                .map(|i| 1.0 / (i + 1) as f64)
                .sum()
        });
        let eight: f64 = with_threads(8, || {
            (0..100_000u64)
                .into_par_iter()
                .map(|i| 1.0 / (i + 1) as f64)
                .sum()
        });
        assert_eq!(one.to_bits(), eight.to_bits());
    }

    #[test]
    fn reduce_matches_sequential_fold_for_associative_ops() {
        let data: Vec<u64> = (0..10_007u64).map(|i| i ^ 0xABCD).collect();
        let seq = data.iter().fold(u64::MAX, |a, &b| a.min(b));
        for threads in [1, 4] {
            let par = with_threads(threads, || {
                data.par_iter()
                    .map(|&x| x)
                    .reduce(|| u64::MAX, |a, b| a.min(b))
            });
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn with_min_len_bounds_split_granularity() {
        // With min_len >= len the input is one chunk: the pipeline runs
        // inline on the caller thread even with a large team.
        let caller = std::thread::current().id();
        with_threads(8, || {
            (0..100u32)
                .into_par_iter()
                .with_min_len(100)
                .for_each(|_| assert_eq!(std::thread::current().id(), caller));
        });
        // Results are unaffected by the bound.
        let a: Vec<u32> = (0..1000u32)
            .into_par_iter()
            .with_min_len(64)
            .map(|x| x + 1)
            .collect();
        let b: Vec<u32> = (0..1000u32).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                (0..10_000u32).into_par_iter().for_each(|x| {
                    if x == 7_777 {
                        panic!("walker exploded at {x}");
                    }
                });
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("walker exploded"), "payload: {msg:?}");
    }

    #[test]
    fn nested_par_iter_inside_a_pool_task_runs_inline() {
        let spawned = AtomicUsize::new(0);
        let totals: Vec<u64> = with_threads(4, || {
            (0..64u64)
                .into_par_iter()
                .map(|i| {
                    // Inside a worker the team size must report 1 and the
                    // nested pipeline must still produce correct results.
                    if current_num_threads() != 1 {
                        spawned.fetch_add(1, Ordering::Relaxed);
                    }
                    (0..100u64).into_par_iter().map(|j| i * j).sum()
                })
                .collect()
        });
        assert_eq!(totals.len(), 64);
        for (i, &t) in totals.iter().enumerate() {
            assert_eq!(t, i as u64 * 4950);
        }
        assert_eq!(spawned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn pool_sizing_is_overridable() {
        assert!(current_num_threads() >= 1);
        assert_eq!(with_threads(2, current_num_threads), 2);
    }
}
