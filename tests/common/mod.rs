//! A global allocator that counts live bytes, their high-water mark, bytes
//! ever handed out, allocation calls, reallocations and the largest fresh
//! allocation, for the
//! test binaries that hold `MemoryReport::resident_bytes` against what the
//! allocator actually handed out, or an update against what it may
//! allocate. Each of them is its own binary with a single test, so nothing
//! else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static HANDED_OUT: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Count a fresh allocation (not a reallocation) of `bytes`.
fn count_fresh(bytes: usize) {
    // relaxed-ok: a statistic that publishes no other data.
    LARGEST.fetch_max(bytes, Ordering::Relaxed);
    count(bytes);
}

fn count(bytes: usize) {
    // relaxed-ok: statistics that publish no other data.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // relaxed-ok: as above.
    PEAK.fetch_max(live, Ordering::Relaxed);
    // relaxed-ok: as above.
    HANDED_OUT.fetch_add(bytes, Ordering::Relaxed);
    // relaxed-ok: as above.
    CALLS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_fresh(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_fresh(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // relaxed-ok: a statistic that publishes no other data.
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: as above.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // relaxed-ok: a statistic that publishes no other data.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Bytes currently allocated by this process.
#[allow(dead_code)]
pub fn live() -> usize {
    // relaxed-ok: read on the thread that just joined every builder.
    LIVE.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset_peak`]. A
/// reallocation counts its new block before it frees the old one.
#[allow(dead_code)]
pub fn peak() -> usize {
    // relaxed-ok: read on the only thread that allocates.
    PEAK.load(Ordering::Relaxed)
}

/// Start a new high-water mark at what is live now.
#[allow(dead_code)]
pub fn reset_peak() {
    // relaxed-ok: written on the only thread that allocates.
    PEAK.store(live(), Ordering::Relaxed);
}

/// Allocations and reallocations this process has made so far.
#[allow(dead_code)]
pub fn calls() -> usize {
    // relaxed-ok: read on the only thread that allocates.
    CALLS.load(Ordering::Relaxed)
}

/// Reallocations (growing or shrinking a block, moved or not) this
/// process has made so far; [`calls`] counts them too.
#[allow(dead_code)]
pub fn reallocs() -> usize {
    // relaxed-ok: read on the only thread that allocates.
    REALLOCS.load(Ordering::Relaxed)
}

/// The largest fresh allocation (reallocations aside) since the last
/// [`reset_largest`].
#[allow(dead_code)]
pub fn largest() -> usize {
    // relaxed-ok: read on the only thread that allocates.
    LARGEST.load(Ordering::Relaxed)
}

/// Start a new window for [`largest`].
#[allow(dead_code)]
pub fn reset_largest() {
    // relaxed-ok: written on the only thread that allocates.
    LARGEST.store(0, Ordering::Relaxed);
}

/// Bytes this process has ever been handed, freed since or not: what an
/// operation allocated is the difference of two readings around it.
#[allow(dead_code)]
pub fn handed_out() -> usize {
    // relaxed-ok: read on the only thread that allocates.
    HANDED_OUT.load(Ordering::Relaxed)
}

/// Whether the readings above are the code under test's alone. With
/// `BINGO_LOCK_CHECK=on` they are not: the runtime lock-order checker keeps
/// an entry per lock instance it meets (the pool's per-pass chunk slots
/// among them), allocated inside whatever window a test measures. The
/// byte-exact tests return early in that leg of CI, whose subject is lock
/// order, not bytes.
#[allow(dead_code)]
pub fn counts_are_exact() -> bool {
    !parking_lot::lock_check_enabled()
}
