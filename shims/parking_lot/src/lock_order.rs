//! The runtime lock-order checker behind `BINGO_LOCK_CHECK`.
//!
//! Every `Mutex`/`RwLock` in this shim registers its acquisitions here when
//! checking is enabled. The checker maintains:
//!
//! - a **thread-local held-lock stack** — the locks the current thread holds
//!   right now, in acquisition order;
//! - a **global lock-order graph** — a directed edge `A -> B` is recorded
//!   the first time any thread acquires `B` while holding `A`.
//!
//! Before an acquisition of `B` while holding `A` inserts the edge
//! `A -> B`, the checker searches the graph for an existing path
//! `B -> ... -> A`. Finding one means two call sites disagree about the
//! order of `A` and `B` — the classic ABBA deadlock shape — and the checker
//! panics with both sides of the inversion, *whether or not* the schedule
//! at hand would actually have deadlocked. Re-acquiring a lock the thread
//! already holds panics too (std's non-reentrant primitives would deadlock
//! or UB there).
//!
//! Enablement is process-wide: `BINGO_LOCK_CHECK=on|1|true` in the
//! environment (read once), or [`force_enable_lock_check`] from test code.
//! Disabled, the only cost per acquisition is one relaxed atomic load.
//!
//! The checker cross-validates the *static* lock-order graph that
//! `bingo-lint`'s `lock-discipline` rule extracts: the static pass sees
//! every code path but approximates guard lifetimes; this pass sees exact
//! lifetimes but only executed paths. CI runs the full workspace test suite
//! with `BINGO_LOCK_CHECK=on` so the two views check each other.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Set by [`force_enable_lock_check`]; OR-ed with the environment switch.
static FORCED: AtomicBool = AtomicBool::new(false);

/// Whether `BINGO_LOCK_CHECK` asked for checking (resolved once).
fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        matches!(
            std::env::var("BINGO_LOCK_CHECK").ok().as_deref(),
            Some("on" | "1" | "true")
        )
    })
}

/// Whether acquisitions are being checked.
#[inline]
pub fn lock_check_enabled() -> bool {
    // relaxed-ok: a plain on/off flag; readers need no ordering with the
    // graph state, which has its own internal mutex.
    FORCED.load(Ordering::Relaxed) || env_enabled()
}

/// Turn checking on for the rest of the process (tests use this instead of
/// the `BINGO_LOCK_CHECK` environment variable, which is read only once).
/// There is deliberately no way to turn checking back off: edges recorded
/// so far stay valid, and a disable racing in-flight acquisitions would
/// leave the held stacks inconsistent.
pub fn force_enable_lock_check() {
    // relaxed-ok: see lock_check_enabled.
    FORCED.store(true, Ordering::Relaxed);
}

/// Identity + display name of one lock instance. Ids are assigned lazily on
/// first checked acquisition, so unchecked runs never touch the registry.
#[derive(Debug)]
pub(crate) struct LockMeta {
    /// 0 = unassigned; ids start at 1.
    id: AtomicU32,
    /// Display name for diagnostics (`Mutex::new_named`), or a generic
    /// fallback.
    name: &'static str,
}

impl LockMeta {
    pub(crate) const fn new(name: &'static str) -> Self {
        LockMeta {
            id: AtomicU32::new(0),
            name,
        }
    }

    /// This lock's id, assigning the next free one on first use.
    fn id(&self) -> u32 {
        // relaxed-ok: the id cell is an allocator, not a publication point —
        // the value is unique per lock via compare_exchange's RMW atomicity,
        // and all cross-thread agreement happens under the graph mutex.
        let current = self.id.load(Ordering::Relaxed);
        if current != 0 {
            return current;
        }
        static NEXT_ID: AtomicU32 = AtomicU32::new(1);
        // relaxed-ok: unique-id allocator; RMW atomicity alone guarantees
        // distinct ids.
        let candidate = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: losing the race just adopts the winner's id.
        match self
            .id
            .compare_exchange(0, candidate, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => candidate,
            Err(winner) => winner,
        }
    }
}

thread_local! {
    /// Locks the current thread holds, in acquisition order.
    static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The global order graph. Guarded by a plain `std` mutex — the checker
/// must not recurse into the shim's own instrumented locks.
struct OrderGraph {
    /// Edges already recorded (`from -> to`).
    edges: HashSet<(u32, u32)>,
    /// Adjacency view of `edges` for path searches.
    adj: HashMap<u32, Vec<u32>>,
    /// Last-seen display name per id.
    names: HashMap<u32, &'static str>,
}

impl OrderGraph {
    fn name(&self, id: u32) -> &'static str {
        self.names.get(&id).copied().unwrap_or("?")
    }

    /// Depth-first search for a path `from -> ... -> to`, returned as the
    /// id sequence including both endpoints.
    fn path(&self, from: u32, to: u32) -> Option<Vec<u32>> {
        let mut stack = vec![vec![from]];
        let mut visited = HashSet::new();
        visited.insert(from);
        while let Some(path) = stack.pop() {
            let last = *path.last().expect("paths are non-empty");
            if last == to {
                return Some(path);
            }
            if let Some(nexts) = self.adj.get(&last) {
                for &next in nexts {
                    if visited.insert(next) {
                        let mut extended = path.clone();
                        extended.push(next);
                        if next == to {
                            return Some(extended);
                        }
                        stack.push(extended);
                    }
                }
            }
        }
        None
    }
}

fn graph() -> &'static Mutex<OrderGraph> {
    static GRAPH: OnceLock<Mutex<OrderGraph>> = OnceLock::new();
    GRAPH.get_or_init(|| {
        Mutex::new(OrderGraph {
            edges: HashSet::new(),
            adj: HashMap::new(),
            names: HashMap::new(),
        })
    })
}

/// Token proving the current thread pushed a lock onto its held stack.
/// Dropping it pops the lock (by id — guards may be dropped out of
/// acquisition order). `None` inside means checking was disabled at
/// acquisition time: nothing to pop.
#[derive(Debug)]
pub(crate) struct HeldLock(Option<(u32, &'static str)>);

impl HeldLock {
    /// A token that tracks nothing (checking disabled).
    pub(crate) const fn untracked() -> Self {
        HeldLock(None)
    }

    /// Pop this lock for the duration of a condvar wait (the primitive
    /// releases the lock while parked) and return the re-acquisition
    /// token. `Condvar::wait` re-pushes via [`reacquire`].
    pub(crate) fn release_for_wait(mut self) -> Option<(u32, &'static str)> {
        self.0.take().inspect(|&(id, _)| pop_held(id))
    }
}

impl Drop for HeldLock {
    fn drop(&mut self) {
        if let Some((id, _)) = self.0 {
            pop_held(id);
        }
    }
}

fn pop_held(id: u32) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&h| h == id) {
            held.remove(pos);
        }
    });
}

/// Record an acquisition attempt of `meta`'s lock by the current thread,
/// panicking on a lock-order inversion or a same-thread re-acquisition.
/// Call *before* blocking on the underlying primitive, so an acquisition
/// that would complete an ABBA cycle panics instead of deadlocking.
pub(crate) fn on_acquire(meta: &LockMeta) -> HeldLock {
    if !lock_check_enabled() {
        return HeldLock::untracked();
    }
    let id = meta.id();
    let held_now: Vec<u32> = HELD.with(|held| held.borrow().clone());
    // Diagnose under the graph mutex, panic after releasing it.
    let inversion: Option<String> = {
        let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
        g.names.insert(id, meta.name);
        if held_now.contains(&id) {
            Some(format!(
                "lock-order violation: thread {:?} re-acquired `{}` it already holds \
                 (non-reentrant primitive; this deadlocks outside the checker)",
                std::thread::current().name().unwrap_or("<unnamed>"),
                meta.name,
            ))
        } else {
            let mut found = None;
            for &h in &held_now {
                // An inversion exists if the graph already orders the new
                // lock *before* a held one.
                if let Some(path) = g.path(id, h) {
                    let chain: Vec<&str> = path.iter().map(|&p| g.name(p)).collect();
                    found = Some(format!(
                        "lock-order inversion: thread {:?} acquires `{}` while holding `{}`, \
                         but the established order is `{}` (BINGO_LOCK_CHECK; see the \
                         Concurrency invariants docs)",
                        std::thread::current().name().unwrap_or("<unnamed>"),
                        meta.name,
                        g.name(h),
                        chain.join("` -> `"),
                    ));
                    break;
                }
            }
            if found.is_none() {
                for &h in &held_now {
                    if g.edges.insert((h, id)) {
                        g.adj.entry(h).or_default().push(id);
                    }
                }
            }
            found
        }
    };
    if let Some(msg) = inversion {
        panic!("{msg}");
    }
    HELD.with(|held| held.borrow_mut().push(id));
    HeldLock(Some((id, meta.name)))
}

/// Re-push a lock released for a condvar wait (see
/// [`HeldLock::release_for_wait`]). The wake-up is a genuine
/// re-acquisition, so it goes through the full edge/inversion check
/// against whatever the thread still holds.
pub(crate) fn reacquire(token: Option<(u32, &'static str)>) -> HeldLock {
    match token {
        None => HeldLock::untracked(),
        // `on_acquire` would allocate a fresh id, so the push is inlined
        // with the original id to keep the graph at one node per lock.
        Some((id, name)) => {
            let held_now: Vec<u32> = HELD.with(|held| held.borrow().clone());
            let inversion: Option<String> = {
                let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
                let mut found = None;
                for &h in &held_now {
                    if h == id {
                        continue;
                    }
                    if let Some(path) = g.path(id, h) {
                        let chain: Vec<&str> = path.iter().map(|&p| g.name(p)).collect();
                        found = Some(format!(
                            "lock-order inversion re-acquiring `{}` after a condvar wait \
                             while holding `{}`: established order is `{}`",
                            name,
                            g.name(h),
                            chain.join("` -> `"),
                        ));
                        break;
                    }
                }
                if found.is_none() {
                    for &h in &held_now {
                        if h != id && g.edges.insert((h, id)) {
                            g.adj.entry(h).or_default().push(id);
                        }
                    }
                }
                found
            };
            if let Some(msg) = inversion {
                panic!("{msg}");
            }
            HELD.with(|held| held.borrow_mut().push(id));
            HeldLock(Some((id, name)))
        }
    }
}

/// Every `held -> acquired` pair recorded so far, by display name (checked
/// acquisitions only). Diagnostic hook for tests: lets a test hold the
/// documented lock orders to the ones a run actually took.
pub fn observed_order() -> BTreeSet<(&'static str, &'static str)> {
    let g = graph().lock().unwrap_or_else(PoisonError::into_inner);
    // lint:allow(determinism): collected into an ordered set.
    g.edges
        .iter()
        .map(|&(from, to)| (g.name(from), g.name(to)))
        .collect()
}

/// Number of locks the current thread holds (checked acquisitions only).
/// Diagnostic hook for tests.
pub fn held_locks() -> usize {
    HELD.with(|held| held.borrow().len())
}
