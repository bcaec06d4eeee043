//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives with parking_lot's non-poisoning API (a
//! `lock()` that returns the guard directly). Contention behaviour is
//! std's, which is more than adequate for this workspace's uses.
//!
//! ## Shim extensions
//!
//! Beyond the parking_lot API subset, this shim carries the workspace's
//! **runtime lock-order checker** (see [`lock_order`]): with
//! `BINGO_LOCK_CHECK=on` (or [`force_enable_lock_check`]) every
//! acquisition is recorded on a thread-local held-lock stack and in a
//! global lock-order graph, and an acquisition that contradicts the
//! established order — the ABBA deadlock shape — panics immediately, on
//! whatever schedule the test run happened to take. Locks can be named at
//! construction ([`Mutex::new_named`], [`RwLock::new_named`]) so
//! diagnostics and the graph speak the same vocabulary as `bingo-lint`'s
//! static lock-discipline rule.
//!
//! [`Condvar`] is also provided (std-style `wait(guard) -> guard`, not
//! parking_lot's `wait(&mut guard)`), integrated with the checker: the
//! wait releases the lock from the held stack and its wake-up re-runs the
//! full inversion check as a fresh acquisition.

#![forbid(unsafe_code)]

pub mod lock_order;

pub use lock_order::{force_enable_lock_check, held_locks, lock_check_enabled, observed_order};

use lock_order::{HeldLock, LockMeta};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutex whose `lock` never returns a poison error.
pub struct Mutex<T: ?Sized> {
    meta: LockMeta,
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]. Releasing it (drop) pops the lock
/// from the checker's held stack before the underlying mutex unlocks.
#[must_use = "if unused the Mutex will immediately unlock"]
pub struct MutexGuard<'a, T: ?Sized> {
    // Field order is drop order: pop the held-stack entry first, then
    // release the std guard. Both orders are correct (the stack is
    // thread-local); this one keeps "held" a subset of "actually locked".
    held: HeldLock,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub fn new(value: T) -> Self {
        Self::new_named(value, "mutex")
    }

    /// Create a new mutex carrying a display name for lock-order
    /// diagnostics (shim extension; `parking_lot` has no equivalent).
    pub fn new_named(value: T, name: &'static str) -> Self {
        Mutex {
            meta: LockMeta::new(name),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning (parking_lot semantics).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Check-then-block: an acquisition that would complete an ABBA
        // cycle panics here instead of deadlocking below.
        let held = lock_order::on_acquire(&self.meta);
        MutexGuard {
            held,
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            // Register only on success — a failed try_lock neither holds
            // nor orders anything. A successful one is a real acquisition
            // and participates fully in the order graph.
            Ok(g) => Some(MutexGuard {
                held: lock_order::on_acquire(&self.meta),
                inner: g,
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                held: lock_order::on_acquire(&self.meta),
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A condition variable for use with the shim's [`Mutex`]. The API is
/// std-shaped (`wait` consumes and returns the guard, never errors) since
/// the workspace is the only consumer; the real `parking_lot` takes
/// `&mut guard` instead.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Atomically release the guard's mutex and park until notified,
    /// re-acquiring the lock before returning. While parked the lock is
    /// *not* held — the checker's held stack reflects that, and the
    /// wake-up re-runs the inversion check as a fresh acquisition.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { held, inner } = guard;
        let token = held.release_for_wait();
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            held: lock_order::reacquire(token),
            inner,
        }
    }

    /// [`Condvar::wait`] with a timeout; the flag reports whether the wait
    /// timed out.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, std::sync::WaitTimeoutResult) {
        let MutexGuard { held, inner } = guard;
        let token = held.release_for_wait();
        let (inner, timed_out) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (
            MutexGuard {
                held: lock_order::reacquire(token),
                inner,
            },
            timed_out,
        )
    }
}

/// A reader-writer lock whose acquisition never returns a poison error.
pub struct RwLock<T: ?Sized> {
    meta: LockMeta,
    inner: std::sync::RwLock<T>,
}

/// Shared guard returned by [`RwLock::read`].
#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    // Present for its Drop effect (pops the checker's held stack).
    #[allow(dead_code)]
    held: HeldLock,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive guard returned by [`RwLock::write`].
#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    // Present for its Drop effect (pops the checker's held stack).
    #[allow(dead_code)]
    held: HeldLock,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a new lock.
    pub fn new(value: T) -> Self {
        Self::new_named(value, "rwlock")
    }

    /// Create a new lock with a display name for lock-order diagnostics
    /// (shim extension).
    pub fn new_named(value: T, name: &'static str) -> Self {
        RwLock {
            meta: LockMeta::new(name),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    ///
    /// The checker treats read and write acquisitions of one lock as the
    /// same graph node: a read-vs-write order inversion across two locks
    /// deadlocks just like write-vs-write.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = lock_order::on_acquire(&self.meta);
        RwLockReadGuard {
            held,
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = lock_order::on_acquire(&self.meta);
        RwLockWriteGuard {
            held,
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_handoff() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new_named(false, "cv.flag"), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut ready = lock.lock();
            *ready = true;
            drop(ready);
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut ready = lock.lock();
        while !*ready {
            ready = cv.wait(ready);
        }
        assert!(*ready);
        t.join().expect("notifier thread");
    }

    #[test]
    fn condvar_wait_timeout_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = m.lock();
        let (_g, result) = cv.wait_timeout(g, Duration::from_millis(1));
        assert!(result.timed_out());
    }

    // The checker tests run in one process with checking force-enabled;
    // force_enable is sticky, which is fine — correct lock usage only adds
    // edges and never panics.

    #[test]
    fn lock_order_inversion_panics() {
        force_enable_lock_check();
        let a = Mutex::new_named(0, "test.order.a");
        let b = Mutex::new_named(0, "test.order.b");
        {
            let _ga = a.lock();
            let _gb = b.lock(); // establishes a -> b
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock(); // b -> a: inversion
        }));
        let payload = result.expect_err("inversion must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("lock-order inversion"),
            "unexpected panic message: {msg}"
        );
        assert!(msg.contains("test.order.a") && msg.contains("test.order.b"));
        // The held stack unwound cleanly despite the panic.
        assert_eq!(held_locks(), 0);
    }

    #[test]
    fn recursive_acquisition_panics() {
        force_enable_lock_check();
        let m = Mutex::new_named(0, "test.recursive");
        let _g = m.lock();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _again = m.lock();
        }));
        let payload = result.expect_err("re-acquisition must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("re-acquired"), "unexpected message: {msg}");
    }

    #[test]
    fn consistent_order_never_panics() {
        force_enable_lock_check();
        let a = Mutex::new_named(0, "test.consistent.a");
        let b = Mutex::new_named(0, "test.consistent.b");
        for _ in 0..3 {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        assert_eq!(held_locks(), 0);
    }

    #[test]
    fn condvar_wait_releases_held_entry() {
        force_enable_lock_check();
        let m = Mutex::new_named((), "test.cv.held");
        let cv = Condvar::new();
        let g = m.lock();
        assert_eq!(held_locks(), 1);
        let (g, result) = cv.wait_timeout(g, Duration::from_millis(1));
        assert!(result.timed_out());
        assert_eq!(held_locks(), 1, "lock re-held after the wait");
        drop(g);
        assert_eq!(held_locks(), 0);
    }

    #[test]
    fn out_of_order_guard_drops_unwind_cleanly() {
        force_enable_lock_check();
        let a = Mutex::new_named(0, "test.drops.a");
        let b = Mutex::new_named(0, "test.drops.b");
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // dropped before gb: pop-by-id, not strict stack order
        assert_eq!(held_locks(), 1);
        drop(gb);
        assert_eq!(held_locks(), 0);
    }
}
