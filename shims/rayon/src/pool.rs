//! Chunked execution over the persistent runtime: deterministic chunk
//! geometry, the fused chunk store, thread-team configuration, and the
//! pool profile counters.
//!
//! ## Design
//!
//! Every top-level parallel combinator goes through `run_chunks`:
//!
//! 1. The input items are split into **chunks** whose size depends only on
//!    the input length and the iterator's `with_min_len` bound — *never* on
//!    the thread count. Chunk boundaries are therefore deterministic, which
//!    makes every combinator (including floating-point `sum` and chunked
//!    `reduce`) produce bit-identical results whether the pool runs 1 or 64
//!    threads.
//! 2. Chunking is **fused and range-based**: the input vector is never
//!    re-materialized into per-chunk vectors. A `ChunkStore` keeps the
//!    one source buffer and hands out item *ranges* through an atomic
//!    claim cursor; the claimant moves items straight out of the buffer
//!    via the consuming `ChunkItems` iterator. An idle participant
//!    claims the next chunk the moment it finishes its own, so fast
//!    threads automatically absorb slow threads' backlog.
//! 3. Claimants are the **persistent parked workers** of
//!    `crate::runtime` plus the calling thread itself — no threads are
//!    spawned per call (the previous scoped-team design paid a
//!    spawn/join per pass, which dominated sub-millisecond workloads).
//!    Per-chunk results are written into order-preserving slots, so
//!    output order always matches input order.
//!
//! The team size is resolved lazily once per process from `BINGO_THREADS`
//! (else [`std::thread::available_parallelism`]) and can be overridden for a
//! scope with [`with_threads`] — the hook the determinism tests use to
//! compare 1-thread and N-thread runs in one process.
//!
//! ## Panics
//!
//! A panic inside a chunk body aborts the remaining chunks, is captured
//! with its original payload, and is re-raised on the calling thread once
//! every helper has checked out — exactly what callers of a sequential
//! iterator would observe, minus the work that was already in flight.
//!
//! ## Nesting
//!
//! A parallel call issued *from inside a pool participant* (nested
//! `par_iter`, including the posting caller while it works its own pass)
//! runs sequentially inline. The outer call already owns the team;
//! posting a second fan-out per participant would multiply scheduling
//! traffic without adding parallelism.

use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::runtime;

/// Upper bound on the number of chunks a parallel call is split into (before
/// `with_min_len` coarsening). More chunks than workers gives the
/// claim-cursor scheduler room to balance uneven per-item cost; a fixed
/// bound keeps chunk boundaries independent of the thread count so results
/// are bit-identical across pool sizes.
const TARGET_CHUNKS: usize = 64;

thread_local! {
    /// Set while the current thread participates in pool execution (a
    /// persistent worker, or the posting caller inside its own pass):
    /// nested parallel calls must run inline instead of fanning out again.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Scoped thread-count override installed by [`with_threads`].
    static THREAD_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Process-wide cumulative pool profile cells (shim extension, std-only so
/// the shim keeps zero mandatory dependencies; the serving stack mirrors
/// these into its telemetry registry under the `pool.*` /
/// `runtime.pool.*` metric names).
struct ProfileCells {
    calls: AtomicU64,
    chunks_claimed: AtomicU64,
    steals: AtomicU64,
    tasks: AtomicU64,
    worker_busy_ns: AtomicU64,
    worker_idle_ns: AtomicU64,
    park_ns: AtomicU64,
    scope_ns: AtomicU64,
}

impl ProfileCells {
    const fn new() -> Self {
        ProfileCells {
            calls: AtomicU64::new(0),
            chunks_claimed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            worker_busy_ns: AtomicU64::new(0),
            worker_idle_ns: AtomicU64::new(0),
            park_ns: AtomicU64::new(0),
            scope_ns: AtomicU64::new(0),
        }
    }
}

/// Cumulative cells: monotone, only ever added to (never reset), so a
/// concurrent reader can never observe a value going backwards.
static PROFILE: ProfileCells = ProfileCells::new();

/// Reset baseline: [`reset_pool_profile`] snapshots the cumulative cells
/// here instead of zeroing them, and [`pool_profile`] reports the
/// saturating difference. A `record` racing a reset lands entirely on the
/// cumulative side, so busy/idle deltas can never interleave negative.
static BASELINE: ProfileCells = ProfileCells::new();

/// Whether the nanosecond timers run. Call/chunk/steal/task counts are
/// always cheap and always collected; the busy/idle/park/scope clocks cost
/// two `Instant` reads per chunk (or park) and are off unless something
/// opts in.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// A point-in-time copy of the pool's profile since the last
/// [`reset_pool_profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolProfile {
    /// Top-level parallel calls executed (`run_chunks` entries, including
    /// sequential fast-path and nested-inline executions).
    pub calls: u64,
    /// Chunks executed. Chunk boundaries are thread-count-independent, so
    /// for a given workload this count is identical under any
    /// `BINGO_THREADS`.
    pub chunks_claimed: u64,
    /// Chunks executed by a pool worker other than the thread that posted
    /// them — the runtime's work-stealing traffic. Zero in a
    /// single-threaded configuration.
    pub steals: u64,
    /// Detached tasks ([`crate::spawn`]) executed by pool workers.
    pub tasks: u64,
    /// Nanoseconds participants spent inside chunk bodies (0 unless
    /// profiling is enabled).
    pub worker_busy_ns: u64,
    /// Participant wall nanoseconds inside a pass *not* spent in chunk
    /// bodies — claim traffic, slot writes (0 unless profiling is
    /// enabled).
    pub worker_idle_ns: u64,
    /// Nanoseconds workers spent parked on the injector condvar waiting
    /// for work (0 unless profiling is enabled). The warm-pool complement
    /// to `worker_idle_ns`: parked time is free, spinning time is not.
    pub park_ns: u64,
    /// Wall nanoseconds inside parallel sections, as seen by the calling
    /// thread (0 unless profiling is enabled).
    pub scope_ns: u64,
}

/// Turn the pool's nanosecond timers on or off (counts are always on).
/// `bingo_service::WalkService::build_with_telemetry` enables this
/// automatically when its telemetry handle is detailed.
pub fn set_pool_profiling(enabled: bool) {
    // relaxed-ok: an on/off stats switch; a late-observed toggle only
    // means one parallel call is profiled (or not) a beat later.
    PROFILING.store(enabled, Ordering::Relaxed);
}

/// Whether the nanosecond timers are currently on.
pub(crate) fn pool_profiling_enabled() -> bool {
    // relaxed-ok: see set_pool_profiling.
    PROFILING.load(Ordering::Relaxed)
}

/// The saturating difference between a cumulative cell and its reset
/// baseline.
fn delta(cell: &AtomicU64, base: &AtomicU64) -> u64 {
    // relaxed-ok: monotone stats counters read for reporting; torn
    // cross-counter snapshots are acceptable.
    cell.load(Ordering::Relaxed)
        .saturating_sub(base.load(Ordering::Relaxed)) // relaxed-ok: stats
}

/// A point-in-time copy of the pool's profile counters (cumulative cells
/// minus the [`reset_pool_profile`] baseline).
pub fn pool_profile() -> PoolProfile {
    PoolProfile {
        calls: delta(&PROFILE.calls, &BASELINE.calls),
        chunks_claimed: delta(&PROFILE.chunks_claimed, &BASELINE.chunks_claimed),
        steals: delta(&PROFILE.steals, &BASELINE.steals),
        tasks: delta(&PROFILE.tasks, &BASELINE.tasks),
        worker_busy_ns: delta(&PROFILE.worker_busy_ns, &BASELINE.worker_busy_ns),
        worker_idle_ns: delta(&PROFILE.worker_idle_ns, &BASELINE.worker_idle_ns),
        park_ns: delta(&PROFILE.park_ns, &BASELINE.park_ns),
        scope_ns: delta(&PROFILE.scope_ns, &BASELINE.scope_ns),
    }
}

/// Rebase the profile to zero by snapshotting every cumulative cell into
/// the baseline (for before/after measurements in tests and experiments).
///
/// The cumulative cells themselves are never written, so a `record` racing
/// the reset is simply attributed to one side or the other — unlike the
/// old store-zero scheme, the busy/idle deltas reported afterwards can
/// never interleave into negative (wrapped) values.
pub fn reset_pool_profile() {
    // relaxed-ok (all pairs below): stats snapshot; a concurrent record
    // between a cell's load and its baseline store lands on the
    // cumulative side and shows up in the next profile, never as a
    // negative delta.
    BASELINE
        .calls
        .store(PROFILE.calls.load(Ordering::Relaxed), Ordering::Relaxed); // relaxed-ok: stats
    BASELINE.chunks_claimed.store(
        PROFILE.chunks_claimed.load(Ordering::Relaxed), // relaxed-ok: stats
        Ordering::Relaxed,
    );
    BASELINE
        .steals
        .store(PROFILE.steals.load(Ordering::Relaxed), Ordering::Relaxed); // relaxed-ok: stats
    BASELINE
        .tasks
        .store(PROFILE.tasks.load(Ordering::Relaxed), Ordering::Relaxed); // relaxed-ok: stats
    BASELINE.worker_busy_ns.store(
        PROFILE.worker_busy_ns.load(Ordering::Relaxed), // relaxed-ok: stats
        Ordering::Relaxed,
    );
    BASELINE.worker_idle_ns.store(
        PROFILE.worker_idle_ns.load(Ordering::Relaxed), // relaxed-ok: stats
        Ordering::Relaxed,
    );
    BASELINE
        .park_ns
        .store(PROFILE.park_ns.load(Ordering::Relaxed), Ordering::Relaxed); // relaxed-ok: stats
    BASELINE
        .scope_ns
        .store(PROFILE.scope_ns.load(Ordering::Relaxed), Ordering::Relaxed); // relaxed-ok: stats
}

/// Record a participant's busy/idle split for one pass.
pub(crate) fn note_busy_idle(busy_ns: u64, idle_ns: u64) {
    // relaxed-ok: profiling accumulators, stats only.
    PROFILE.worker_busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
    // relaxed-ok: profiling accumulator, stats only.
    PROFILE.worker_idle_ns.fetch_add(idle_ns, Ordering::Relaxed);
}

/// Record caller-observed wall time for one parallel section.
pub(crate) fn note_scope(ns: u64) {
    // relaxed-ok: profiling accumulator, stats only.
    PROFILE.scope_ns.fetch_add(ns, Ordering::Relaxed);
}

/// Record work items executed by a helper worker (stolen from the poster).
pub(crate) fn note_steals(n: u64) {
    // relaxed-ok: stats counter.
    PROFILE.steals.fetch_add(n, Ordering::Relaxed);
}

/// Record one detached task executed by a pool worker.
pub(crate) fn note_task() {
    // relaxed-ok: stats counter.
    PROFILE.tasks.fetch_add(1, Ordering::Relaxed);
}

/// Record time a worker spent parked on the injector condvar.
pub(crate) fn note_park(ns: u64) {
    // relaxed-ok: profiling accumulator, stats only.
    PROFILE.park_ns.fetch_add(ns, Ordering::Relaxed);
}

/// Permanently mark the current thread as a pool worker (daemon worker
/// startup).
pub(crate) fn mark_pool_worker() {
    IN_POOL_WORKER.with(|flag| flag.set(true));
}

/// Guard that restores the previous pool-worker flag on drop (used by the
/// posting caller while it participates in its own pass).
pub(crate) struct WorkerMode(bool);

impl Drop for WorkerMode {
    fn drop(&mut self) {
        let prev = self.0;
        IN_POOL_WORKER.with(|flag| flag.set(prev));
    }
}

/// Enter pool-worker mode on the current thread until the guard drops.
pub(crate) fn enter_worker_mode() -> WorkerMode {
    WorkerMode(IN_POOL_WORKER.with(|flag| flag.replace(true)))
}

/// Parse a `BINGO_THREADS`-style value: a positive integer. `None` for
/// anything else (empty, zero, garbage), meaning "use the default".
pub(crate) fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The process-wide default team size: `BINGO_THREADS` if set and valid,
/// else [`std::thread::available_parallelism`], else 1. Resolved once.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        parse_threads(std::env::var("BINGO_THREADS").ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// The number of threads the *next* parallel call on this thread will use:
/// 1 inside a pool participant (nested calls run inline), else the
/// [`with_threads`] override if one is active, else the process default.
pub fn current_num_threads() -> usize {
    if IN_POOL_WORKER.with(std::cell::Cell::get) {
        return 1;
    }
    THREAD_OVERRIDE
        .with(std::cell::Cell::get)
        .unwrap_or_else(default_threads)
}

/// Run `f` with the pool team size pinned to `threads.max(1)` on this
/// thread (shim extension, not a rayon API). This is how the determinism
/// tests compare a 1-thread and an N-thread execution inside one process;
/// `BINGO_THREADS` serves the same purpose across processes. The override
/// is restored on exit, including on panic.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            THREAD_OVERRIDE.with(|cell| cell.set(prev));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|cell| cell.replace(Some(threads.max(1)))));
    f()
}

/// Deterministic chunk size: depends only on `len` and `min_len`, never on
/// the thread count (see the module docs for why).
fn chunk_size(len: usize, min_len: usize) -> usize {
    len.div_ceil(TARGET_CHUNKS).max(min_len).max(1)
}

/// The fused chunk store: the input vector plus an atomic claim cursor
/// over its deterministic chunk ranges. Items are moved straight out of
/// the one source buffer by the claimant — no per-chunk re-materialization.
///
/// Ownership protocol: the cursor hands each chunk index to exactly one
/// claimant, whose [`ChunkItems`] iterator consumes (or, on unwind, drops)
/// every item of that range exactly once. Dropping the store releases the
/// items of chunks that were never handed out and then frees the buffer.
pub(crate) struct ChunkStore<S> {
    /// The source buffer. `ManuallyDrop` because items are moved out
    /// in-place; the buffer itself is freed (without dropping items) in
    /// `Drop` after the unclaimed tail has been released.
    buf: ManuallyDrop<Vec<S>>,
    /// `buf.as_mut_ptr()`, captured once so item reads/drops go through a
    /// pointer with write provenance.
    base: *mut S,
    size: usize,
    num_chunks: usize,
    cursor: AtomicUsize,
}

// SAFETY: items are only touched through uniquely-claimed, disjoint chunk
// ranges (the atomic cursor hands each index to exactly one claimant), and
// they are moved — never shared — so `S: Send` is the right bound.
#[allow(unsafe_code)]
unsafe impl<S: Send> Sync for ChunkStore<S> {}

impl<S> ChunkStore<S> {
    fn new(items: Vec<S>, size: usize, num_chunks: usize) -> Self {
        let mut buf = ManuallyDrop::new(items);
        let base = buf.as_mut_ptr();
        ChunkStore {
            buf,
            base,
            size,
            num_chunks,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Claim the next chunk, returning its index and consuming iterator.
    /// Each index is handed out exactly once across all participants.
    pub(crate) fn claim(&self) -> Option<(usize, ChunkItems<S>)> {
        // AcqRel: the chunk-claim point. The RMW total order alone
        // guarantees unique claims, but acquire/release also orders each
        // claim with the claimant's buffer traffic, so no later claimer
        // (or the dropping owner) can observe a range ahead of the cursor
        // that handed it out.
        let i = self.cursor.fetch_add(1, Ordering::AcqRel);
        if i >= self.num_chunks {
            return None;
        }
        let start = i * self.size;
        let end = self.buf.len().min(start + self.size);
        Some((
            i,
            ChunkItems {
                base: self.base,
                next: start,
                end,
            },
        ))
    }
}

impl<S> Drop for ChunkStore<S> {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        // Acquire: pairs with the claim cursor's AcqRel so the tail
        // computed here cannot overlap a range some claimant took.
        let claimed = self.cursor.load(Ordering::Acquire).min(self.num_chunks);
        let tail = claimed * self.size;
        for i in tail..self.buf.len() {
            // SAFETY: indices >= `tail` were never handed out, so these
            // items are still live and owned by the store.
            unsafe { std::ptr::drop_in_place(self.base.add(i)) };
        }
        // SAFETY: every item has now been either moved out by a claimant,
        // dropped by a claimant's `ChunkItems`, or dropped above; zeroing
        // the length lets the Vec free the allocation without touching
        // them again.
        unsafe {
            self.buf.set_len(0);
            ManuallyDrop::drop(&mut self.buf);
        }
    }
}

/// Consuming iterator over one claimed chunk's items, moving them out of
/// the shared [`ChunkStore`] buffer. Dropping it mid-iteration (unwind in
/// a chunk body) drops the unconsumed remainder of the claimed range, so
/// item ownership stays exactly-once on every path.
///
/// Internal to the shim: instances never outlive the `run_chunks` pass
/// that created them (the pipeline closures consume them immediately).
pub(crate) struct ChunkItems<S> {
    base: *mut S,
    next: usize,
    end: usize,
}

impl<S> Iterator for ChunkItems<S> {
    type Item = S;

    #[allow(unsafe_code)]
    fn next(&mut self) -> Option<S> {
        if self.next >= self.end {
            return None;
        }
        let i = self.next;
        self.next += 1;
        // SAFETY: the range [start, end) was claimed by exactly one
        // participant (the store's atomic cursor), `i` is within the
        // source buffer, and the monotone `next` reads each index exactly
        // once; the buffer is `ManuallyDrop`, so the moved-out value is
        // never double-dropped.
        Some(unsafe { std::ptr::read(self.base.add(i)) })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl<S> ExactSizeIterator for ChunkItems<S> {}

impl<S> Drop for ChunkItems<S> {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        for i in self.next..self.end {
            // SAFETY: [next, end) of the claimed range was not consumed;
            // those items are still live and owned by this iterator.
            unsafe { std::ptr::drop_in_place(self.base.add(i)) };
        }
    }
}

/// Split `items` into deterministic chunks, apply `chunk_fn` to every chunk
/// on the persistent worker team (the caller participates), and return the
/// per-chunk results **in chunk order**.
///
/// `chunk_fn` must be safe to call concurrently from several threads
/// (`Sync`, shared by reference); each individual chunk is processed by
/// exactly one participant.
pub(crate) fn run_chunks<S, R, F>(items: Vec<S>, min_len: usize, chunk_fn: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(ChunkItems<S>) -> R + Sync,
{
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let size = chunk_size(len, min_len);
    let num_chunks = len.div_ceil(size);
    // relaxed-ok: stats counters (calls / chunks_claimed); nothing reads
    // them for synchronization.
    PROFILE.calls.fetch_add(1, Ordering::Relaxed);
    // relaxed-ok: stats counter.
    PROFILE
        .chunks_claimed
        .fetch_add(num_chunks as u64, Ordering::Relaxed);
    let profiling = pool_profiling_enabled();

    let workers = current_num_threads().min(num_chunks);
    let store = ChunkStore::new(items, size, num_chunks);
    if workers <= 1 {
        // Sequential fast path: same chunk boundaries, same results, no
        // pool traffic. This is also the nested-call path. The caller IS
        // the worker here: scope == busy, idle = 0.
        // lint:allow(determinism): opt-in profiling clock; never feeds
        // walk output, only the PoolProfile stats cells.
        let started = profiling.then(Instant::now);
        let mut out = Vec::with_capacity(num_chunks);
        while let Some((_, chunk)) = store.claim() {
            out.push(chunk_fn(chunk));
        }
        if let Some(started) = started {
            let ns = started.elapsed().as_nanos() as u64;
            note_scope(ns);
            note_busy_idle(ns, 0);
        }
        return out;
    }
    runtime::run_parallel(store, num_chunks, workers, profiling, chunk_fn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 16 ")), Some(16));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-2")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn chunk_size_honors_min_len_and_len() {
        assert_eq!(chunk_size(10, 1), 1);
        assert_eq!(chunk_size(10, 4), 4);
        assert_eq!(chunk_size(6400, 1), 100);
        assert_eq!(chunk_size(6400, 512), 512);
        assert_eq!(chunk_size(1, 1), 1);
        // min_len == 0 is treated as 1, never a zero-sized chunk.
        assert_eq!(chunk_size(10, 0), 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_num_threads();
        let inner = with_threads(3, current_num_threads);
        assert_eq!(inner, 3);
        assert_eq!(current_num_threads(), outer);
        // Zero is clamped to one.
        assert_eq!(with_threads(0, current_num_threads), 1);
        // The override survives a panic inside the scope.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_threads(5, || panic!("boom"));
        }));
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn profile_counts_calls_and_chunks() {
        // Other tests in this binary run concurrently and also bump the
        // global cells, so assert on deltas with ≥, never equality.
        let before = pool_profile();
        set_pool_profiling(true);
        let sums: Vec<u64> = with_threads(4, || {
            run_chunks((0..1_000u64).collect(), 1, |chunk| chunk.sum::<u64>())
        });
        set_pool_profiling(false);
        assert_eq!(sums.iter().sum::<u64>(), 1_000 * 999 / 2);
        let after = pool_profile();
        assert!(after.calls > before.calls);
        let expected_chunks = 1_000u64.div_ceil(chunk_size(1_000, 1) as u64);
        assert!(after.chunks_claimed >= before.chunks_claimed + expected_chunks);
        assert!(
            after.scope_ns > before.scope_ns,
            "profiling was on: the scope clock must have advanced"
        );
        assert!(after.worker_busy_ns > before.worker_busy_ns);
    }

    #[test]
    fn reset_rebases_without_negative_deltas() {
        // Run some profiled work, rebase, and check the reported deltas
        // are sane. Concurrent tests may add a little work between the
        // rebase and the read, so the assertion is "no wrap-around", not
        // "exactly zero": under the old store-zero scheme a record racing
        // the reset produced deltas near u64::MAX.
        set_pool_profiling(true);
        let _: Vec<u64> = with_threads(2, || {
            run_chunks((0..10_000u64).collect(), 1, |chunk| chunk.sum::<u64>())
        });
        set_pool_profiling(false);
        assert!(pool_profile().calls >= 1);
        reset_pool_profile();
        let after = pool_profile();
        let sane = 1 << 40;
        assert!(after.calls < sane, "calls wrapped: {}", after.calls);
        assert!(
            after.worker_busy_ns < sane,
            "busy wrapped: {}",
            after.worker_busy_ns
        );
        assert!(
            after.worker_idle_ns < sane,
            "idle wrapped: {}",
            after.worker_idle_ns
        );
        assert!(after.scope_ns < sane, "scope wrapped: {}", after.scope_ns);
    }

    #[test]
    fn run_chunks_preserves_chunk_order() {
        for &threads in &[1usize, 2, 7] {
            let sums: Vec<u64> = with_threads(threads, || {
                run_chunks((0..10_000u64).collect(), 1, |chunk| chunk.sum::<u64>())
            });
            let total: u64 = sums.iter().sum();
            assert_eq!(total, 10_000 * 9_999 / 2);
            // Per-chunk results come back in chunk order: they must match a
            // sequential walk over the same (thread-count-independent)
            // chunk boundaries exactly.
            let size = chunk_size(10_000, 1);
            let expected: Vec<u64> = (0..10_000u64)
                .collect::<Vec<_>>()
                .chunks(size)
                .map(|c| c.iter().sum())
                .collect();
            assert_eq!(sums, expected, "threads={threads}");
        }
    }

    #[test]
    fn chunk_store_drops_every_item_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted(#[allow(dead_code)] usize);
        impl Drop for Counted {
            fn drop(&mut self) {
                // relaxed-ok: test drop counter.
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        // relaxed-ok: test counter baseline.
        let before = DROPS.load(Ordering::Relaxed);
        // Fully consumed pass: every item moved out and dropped by the
        // chunk bodies.
        let counts: Vec<usize> =
            run_chunks((0..100).map(Counted).collect(), 1, |chunk| chunk.count());
        assert_eq!(counts.iter().sum::<usize>(), 100);
        // relaxed-ok: test counter.
        assert_eq!(DROPS.load(Ordering::Relaxed) - before, 100);

        // Aborted pass: a panic mid-chunk still drops the claimed chunk's
        // tail and the never-claimed chunks.
        // relaxed-ok: test counter baseline.
        let before = DROPS.load(Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(1, || {
                run_chunks((0..100).map(Counted).collect(), 1, |mut chunk| {
                    let first = chunk.next();
                    if first.is_some() {
                        panic!("abort mid-chunk");
                    }
                })
            })
        }));
        assert!(result.is_err());
        // relaxed-ok: test counter.
        assert_eq!(
            DROPS.load(Ordering::Relaxed) - before,
            100,
            "all items dropped exactly once on the panic path"
        );
    }
}
