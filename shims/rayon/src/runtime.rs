//! The persistent parked-worker runtime behind every parallel entry point.
//!
//! ## Why persistent
//!
//! The previous executor design spawned a fresh `std::thread::scope` team
//! per parallel call. Spawn/join cost is microseconds per thread, which
//! dominates sub-millisecond passes (short walk waves, small engine
//! builds). This module replaces it with **one lazily-initialized,
//! process-wide team of daemon workers** that park on a condvar between
//! work items. A parallel call only pays a mutex push and a notify; the
//! workers are already warm.
//!
//! ## Architecture
//!
//! * [`Runtime`] owns the **injector**: a mutex-protected pair of queues —
//!   a list of active fork-join [`Job`]s wanting helpers, and a FIFO of
//!   detached tasks ([`spawn`]). One condvar parks idle workers.
//! * Workers are daemons: spawned on demand ([`ensure_pool_workers`] grows
//!   the set, it never shrinks), never joined, parked when the injector is
//!   empty. `bingo-service` sizes the pool to its shard count and runs its
//!   shard workers as resumable detached tasks on the same team the
//!   fork-join combinators use.
//! * Fork-join work ([`crate::pool::run_chunks`]) is **borrowed, not
//!   boxed**: the job lives on the posting caller's stack and a
//!   lifetime-erased reference is published through the injector.
//!
//! ## Park/unpark protocol
//!
//! A worker holds the injector lock, takes the first available work item,
//! releases the lock, and runs the item; with nothing available it parks
//! on the injector condvar (atomically releasing the lock). Posters push
//! under the lock and notify after releasing it, so a wakeup can never be
//! lost: either the worker sees the new item on its locked re-check, or it
//! is parked and the notify lands.
//!
//! ## Soundness of the borrowed-job erasure
//!
//! The one `unsafe` corner of the shim is the lifetime erasure of
//! fork-join job references (`&'a dyn Job` → `&'static dyn Job`). The
//! posting protocol guarantees the reference never outlives the job:
//!
//! 1. The caller posts the job under the injector lock with a helper cap.
//! 2. A worker may pick the job up **only under the injector lock**, and
//!    checks into the job's [`Latch`] before releasing it (lock order:
//!    injector → latch).
//! 3. Before returning, the caller **revokes** the job under the injector
//!    lock — after revoke no new worker can discover the reference — and
//!    then waits on the latch until every checked-in helper has checked
//!    out.
//!
//! After revoke + latch-drain the caller again has exclusive ownership of
//! the job memory, so dropping it is sound. Helpers never touch the job
//! after their latch check-out, and the check-out's mutex release
//! happens-before the caller's wake-up observes the zero count.

use crate::pool::{self, ChunkItems, ChunkStore};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Completion latch shared by a posting caller and its helper workers:
/// counts helpers currently inside the job. The caller blocks in
/// [`Latch::wait_idle`] until every helper has checked out.
pub(crate) struct Latch {
    /// Number of helpers currently executing the job. Incremented under
    /// the injector lock at pickup (order: `rayon.inject` →
    /// `rayon.job_latch`), decremented with only the latch lock held.
    job_latch: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Self {
        Latch {
            job_latch: Mutex::new_named(0, "rayon.job_latch"),
            cv: Condvar::new(),
        }
    }

    /// Check a helper in. Called only under the injector lock, so a
    /// revoked job can never gain new helpers.
    fn enter(&self) {
        *self.job_latch.lock() += 1;
    }

    /// Check a helper out. The notify happens while the lock is held, so
    /// the waiting caller cannot observe zero and free the latch before
    /// this helper's unlock completes.
    fn exit(&self) {
        let mut active = self.job_latch.lock();
        *active -= 1;
        if *active == 0 {
            self.cv.notify_all();
        }
    }

    /// Block until no helper is inside the job.
    fn wait_idle(&self) {
        let mut active = self.job_latch.lock();
        while *active > 0 {
            active = self.cv.wait(active);
        }
    }
}

/// A fork-join work item helper workers can participate in. Shared by
/// reference between the posting caller (whose stack owns the job) and
/// helpers; the post/revoke/latch protocol in the module docs guarantees
/// the reference never outlives the job.
trait Job: Sync {
    /// Run (a share of) the job on the calling worker thread.
    fn execute(&self);
    /// The latch helpers check in and out of.
    fn latch(&self) -> &Latch;
}

/// One posted fork-join job in the injector.
struct JobSlot {
    job: &'static dyn Job,
    /// Helpers started so far; the slot is removed once `helpers` reaches
    /// `wanted`, capping pool fan-in per job.
    helpers: usize,
    wanted: usize,
}

/// Injector state behind the runtime mutex.
struct Inject {
    /// Active fork-join jobs still wanting helpers, oldest first.
    jobs: Vec<JobSlot>,
    /// Detached tasks ([`spawn`]), FIFO.
    tasks: VecDeque<Box<dyn FnOnce() + Send>>,
    /// Workers spawned so far; grows monotonically.
    workers: usize,
}

/// The process-wide persistent runtime: injector + worker parking lot.
struct Runtime {
    inject: Mutex<Inject>,
    cv: Condvar,
}

/// The lazily-initialized global runtime.
fn runtime() -> &'static Runtime {
    static RT: OnceLock<Runtime> = OnceLock::new();
    RT.get_or_init(|| Runtime {
        inject: Mutex::new_named(
            Inject {
                jobs: Vec::new(),
                tasks: VecDeque::new(),
                workers: 0,
            },
            "rayon.inject",
        ),
        cv: Condvar::new(),
    })
}

impl Runtime {
    /// Grow the persistent worker set to at least `n` daemon threads.
    fn ensure_workers(&'static self, n: usize) {
        let mut inject = self.inject.lock();
        while inject.workers < n {
            let id = inject.workers;
            std::thread::Builder::new()
                .name(format!("bingo-pool-{id}"))
                .spawn(move || self.worker_main())
                .expect("spawn pool worker");
            inject.workers += 1;
        }
    }

    /// Publish `job` for helper pickup, capped at `wanted` helpers.
    ///
    /// Contract (enforced by the callers in this module): the poster must
    /// call [`Runtime::revoke`] and then wait the job's latch idle before
    /// the job is dropped.
    fn post(&'static self, job: &dyn Job, wanted: usize) {
        if wanted == 0 {
            return;
        }
        // Lifetime erasure of the borrowed job; see the module docs for
        // the revoke + latch protocol that keeps this sound.
        #[allow(unsafe_code)]
        let job: &'static dyn Job =
            unsafe { std::mem::transmute::<&dyn Job, &'static dyn Job>(job) };
        {
            let mut inject = self.inject.lock();
            inject.jobs.push(JobSlot {
                job,
                helpers: 0,
                wanted,
            });
        }
        self.cv.notify_all();
    }

    /// Withdraw `job` from the injector so no *new* helper can pick it up;
    /// helpers already inside the job are drained via its latch.
    fn revoke(&'static self, job: &dyn Job) {
        let target = job as *const dyn Job as *const ();
        self.inject
            .lock()
            .jobs
            .retain(|slot| slot.job as *const dyn Job as *const () != target);
    }

    /// Queue a detached task and wake one parked worker for it.
    fn push_task(&'static self, task: Box<dyn FnOnce() + Send>) {
        self.ensure_workers(1);
        {
            let mut inject = self.inject.lock();
            inject.tasks.push_back(task);
        }
        self.cv.notify_one();
    }

    /// Take the first fork-join job still wanting helpers, checking the
    /// claimant into its latch. Runs under the injector lock.
    fn claim_job(inject: &mut Inject) -> Option<&'static dyn Job> {
        let slot = inject.jobs.first_mut()?;
        slot.helpers += 1;
        let job = slot.job;
        if slot.helpers >= slot.wanted {
            inject.jobs.remove(0);
        }
        job.latch().enter();
        Some(job)
    }

    /// Daemon worker body: serve fork-join jobs first (a caller is
    /// latch-waiting on them), then detached tasks, then park.
    fn worker_main(&'static self) {
        pool::mark_pool_worker();
        let mut inject = self.inject.lock();
        loop {
            if let Some(job) = Self::claim_job(&mut inject) {
                drop(inject);
                job.execute();
                job.latch().exit();
                inject = self.inject.lock();
                continue;
            }
            if let Some(task) = inject.tasks.pop_front() {
                drop(inject);
                // A detached task owns its own failure: a panic must not
                // take the worker (and every queued task behind it) down.
                let _ = catch_unwind(AssertUnwindSafe(task));
                pool::note_task();
                inject = self.inject.lock();
                continue;
            }
            // lint:allow(determinism): opt-in profiling clock, stats only.
            let parked = pool::pool_profiling_enabled().then(Instant::now);
            inject = self.cv.wait(inject);
            if let Some(parked) = parked {
                pool::note_park(parked.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// Grow the persistent worker pool to at least `n` daemon workers (shim
/// extension; rayon sizes its global pool at build time instead).
/// `bingo-service` calls this with its shard count so shard tasks never
/// serialize behind a one-worker pool on small machines.
pub fn ensure_pool_workers(n: usize) {
    runtime().ensure_workers(n);
}

/// Queue `f` onto the persistent pool as a detached, fire-and-forget task
/// (the rayon `spawn` shape, minus scoped lifetimes: `'static` only).
///
/// Tasks run with pool-worker semantics: nested parallel combinators
/// execute inline ([`crate::current_num_threads`] reports 1). A panicking
/// task is caught and dropped; it never takes the worker down.
pub fn spawn<F: FnOnce() + Send + 'static>(f: F) {
    runtime().push_task(Box::new(f));
}

/// Queue a long-lived, potentially blocking task (an accept loop, a
/// connection handler that may sit in a read) onto the persistent pool,
/// growing the pool by one worker first so the parked task never starves
/// fork-join passes or shard tasks of their workers (shim extension;
/// rayon proper has no blocking-task story).
pub fn spawn_blocking<F: FnOnce() + Send + 'static>(f: F) {
    let rt = runtime();
    let workers = rt.inject.lock().workers;
    rt.ensure_workers(workers + 1);
    rt.push_task(Box::new(f));
}

/// A chunked fork-join pass over a [`ChunkStore`]: caller and helpers
/// claim chunk indices from the store's atomic cursor and write per-chunk
/// results into order-preserving slots.
struct ChunkJob<'f, S, R, F> {
    store: ChunkStore<S>,
    outputs: Vec<Mutex<Option<R>>>,
    chunk_fn: &'f F,
    abort: AtomicBool,
    panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    latch: Latch,
    profiling: bool,
}

impl<S, R, F> ChunkJob<'_, S, R, F>
where
    S: Send,
    R: Send,
    F: Fn(ChunkItems<S>) -> R + Sync,
{
    /// Claim and run chunks until the store is drained or a panic aborts
    /// the pass. Both the posting caller and helper workers run this.
    fn claim_loop(&self, is_helper: bool) {
        // lint:allow(determinism): opt-in profiling clock, stats only.
        let started = self.profiling.then(Instant::now);
        let mut busy_ns = 0u64;
        let mut claimed = 0u64;
        loop {
            // Acquire: pairs with the Release store below so a participant
            // that observes the abort flag also observes everything the
            // panicking participant published before it.
            if self.abort.load(Ordering::Acquire) {
                break;
            }
            let Some((i, chunk)) = self.store.claim() else {
                break;
            };
            claimed += 1;
            // lint:allow(determinism): opt-in profiling clock.
            let chunk_started = self.profiling.then(Instant::now);
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.chunk_fn)(chunk)));
            if let Some(chunk_started) = chunk_started {
                busy_ns += chunk_started.elapsed().as_nanos() as u64;
            }
            match outcome {
                Ok(result) => {
                    *self.outputs[i].lock() = Some(result);
                }
                Err(payload) => {
                    // Release: publishes the panic decision (and everything
                    // before it) to Acquire readers.
                    self.abort.store(true, Ordering::Release);
                    self.panic_slot.lock().get_or_insert(payload);
                    break;
                }
            }
        }
        if is_helper && claimed > 0 {
            pool::note_steals(claimed);
        }
        if let Some(started) = started {
            let wall = started.elapsed().as_nanos() as u64;
            pool::note_busy_idle(busy_ns, wall.saturating_sub(busy_ns));
        }
    }

    /// Reassemble the per-chunk results in chunk order; re-raises a
    /// captured worker panic with its original payload. Requires exclusive
    /// ownership (post-revoke, latch idle).
    fn finish(self) -> Vec<R> {
        let ChunkJob {
            store,
            outputs,
            panic_slot,
            ..
        } = self;
        // Dropping the store releases the items of never-claimed chunks
        // (nonempty only after an aborted pass) and frees the buffer.
        drop(store);
        if let Some(payload) = panic_slot.into_inner() {
            resume_unwind(payload);
        }
        outputs
            .into_iter()
            .map(|slot| slot.into_inner().expect("all chunks completed"))
            .collect()
    }
}

impl<S, R, F> Job for ChunkJob<'_, S, R, F>
where
    S: Send,
    R: Send,
    F: Fn(ChunkItems<S>) -> R + Sync,
{
    fn execute(&self) {
        self.claim_loop(true);
    }
    fn latch(&self) -> &Latch {
        &self.latch
    }
}

/// Execute a chunked pass over `store` on the persistent pool: post the
/// job for up to `workers - 1` helpers, participate from the calling
/// thread, then revoke and drain before collecting. Called by
/// [`crate::pool::run_chunks`] once it has decided the pass is worth
/// parallelism.
pub(crate) fn run_parallel<S, R, F>(
    store: ChunkStore<S>,
    num_chunks: usize,
    workers: usize,
    profiling: bool,
    chunk_fn: F,
) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(ChunkItems<S>) -> R + Sync,
{
    let rt = runtime();
    rt.ensure_workers(workers.saturating_sub(1));
    let job = ChunkJob {
        store,
        outputs: (0..num_chunks)
            .map(|_| Mutex::new_named(None, "rayon.chunk_slot"))
            .collect(),
        chunk_fn: &chunk_fn,
        abort: AtomicBool::new(false),
        panic_slot: Mutex::new_named(None, "rayon.panic_slot"),
        latch: Latch::new(),
        profiling,
    };
    // lint:allow(determinism): opt-in profiling clock, stats only.
    let scope_started = profiling.then(Instant::now);
    rt.post(
        &job,
        workers.saturating_sub(1).min(num_chunks.saturating_sub(1)),
    );
    {
        // The caller is a full pool participant: nested parallel calls in
        // its chunk bodies run inline, exactly as they do on helpers.
        let _worker_mode = pool::enter_worker_mode();
        job.claim_loop(false);
    }
    rt.revoke(&job);
    job.latch.wait_idle();
    if let Some(scope_started) = scope_started {
        pool::note_scope(scope_started.elapsed().as_nanos() as u64);
    }
    job.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::sync::Mutex as StdMutex;
    use std::time::Duration;

    #[test]
    fn spawn_runs_detached_tasks_on_the_pool() {
        let (tx, rx) = mpsc::channel();
        spawn(move || {
            tx.send(std::thread::current().id())
                .expect("receiver alive");
        });
        let worker = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("task ran on the pool");
        assert_ne!(worker, std::thread::current().id());
    }

    #[test]
    fn spawn_survives_a_panicking_task() {
        spawn(|| panic!("task exploded"));
        let (tx, rx) = mpsc::channel();
        spawn(move || {
            tx.send(42u32).expect("receiver alive");
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(42));
    }

    #[test]
    fn helpers_steal_chunks_from_a_posted_pass() {
        // Every chunk body spins until two distinct threads have entered
        // chunk bodies of this pass: the posting caller plus one helper.
        // Termination is guaranteed — the pool has at least one parked
        // daemon worker and the post notifies it.
        let participants: StdMutex<HashSet<std::thread::ThreadId>> = StdMutex::new(HashSet::new());
        let before = crate::pool_profile().steals;
        let outputs: Vec<usize> = with_threads(2, || {
            crate::pool::run_chunks((0..64usize).collect(), 1, |chunk| {
                participants
                    .lock()
                    .expect("participant set")
                    .insert(std::thread::current().id());
                while participants.lock().expect("participant set").len() < 2 {
                    std::thread::yield_now();
                }
                chunk.sum::<usize>()
            })
        });
        assert_eq!(outputs.iter().sum::<usize>(), 64 * 63 / 2);
        assert!(
            crate::pool_profile().steals > before,
            "a helper must have claimed at least one chunk"
        );
    }
}
