//! `MemoryReport::resident_bytes` against the allocator's own count.
//!
//! The Figure 11 breakdown counts what each representation needs;
//! `structure_bytes` is meant to cover everything else the engine holds
//! (inline per-vertex structs, group headers, arena slack), so that the sum
//! is what the allocator actually handed out. This binary installs a
//! global allocator that tracks live bytes and compares. It is its own test
//! binary, with a single test, so nothing else allocates while it counts.

use bingo::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed-ok: a statistic that publishes no other data.
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // relaxed-ok: a statistic that publishes no other data.
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // relaxed-ok: a statistic that publishes no other data.
        LIVE.fetch_add(new_size, Ordering::Relaxed);
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

fn live() -> usize {
    // relaxed-ok: read on the thread that just joined every builder.
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn resident_bytes_match_what_the_build_allocates() {
    let mut rng = Pcg64::seed_from_u64(14);
    let graph = GraphGenerator::RMat {
        scale: 14,
        avg_degree: 10,
        a: 0.57,
        b: 0.19,
        c: 0.19,
    }
    .generate(
        BiasDistribution::PowerLaw {
            alpha: 1.6,
            max: 4096,
        },
        &mut rng,
    );
    // The first parallel build starts the worker pool, which keeps what it
    // allocates.
    drop(BingoEngine::build(&graph, BingoConfig::default()).unwrap());

    for (name, config) in [
        ("adaptive", BingoConfig::default()),
        ("baseline", BingoConfig::baseline()),
    ] {
        let before = live();
        let engine = BingoEngine::build(&graph, config).unwrap();
        let allocated = live() - before;
        let report = engine.memory_report();
        let resident = report.resident_bytes();
        assert!(
            resident.abs_diff(allocated) * 10 <= allocated,
            "{name}: report says {resident} B resident, the allocator holds {allocated} B \
             ({report:?})"
        );
        // The part the report used to leave out is not small.
        assert!(report.structure_bytes * 10 > report.sampling_bytes());
        assert_eq!(resident, report.total_bytes() + report.structure_bytes);
        eprintln!(
            "{name}: allocated {allocated} B, resident {resident} B, of which structure {} B",
            report.structure_bytes
        );
    }
}
