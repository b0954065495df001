//! A counting allocator for the `alloc.*` per-layer metrics.
//!
//! The harness binary installs [`CountingAlloc`] as its global allocator;
//! counting is switched on only inside traced windows, so an untraced
//! run pays one relaxed load per allocation and nothing else.
//!
//! `cold_catchup` allocates millions of times per op, so a traced
//! allocation must not cost an atomic read-modify-write: each thread
//! counts into a plain thread-local pair and folds it into the shared
//! totals every [`FLUSH_EVERY`] allocations. A window's reading can
//! therefore trail by up to that many allocations per thread — parts in
//! ten thousand of what a window counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const FLUSH_EVERY: u64 = 256;

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static LOCAL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

pub struct CountingAlloc;

#[inline]
fn note(size: usize) {
    // Relaxed throughout: statistics only.
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let _ = LOCAL.try_with(|local| {
        let (count, bytes) = local.get();
        let (count, bytes) = (count + 1, bytes + size as u64);
        if count >= FLUSH_EVERY {
            COUNT.fetch_add(count, Ordering::Relaxed);
            BYTES.fetch_add(bytes, Ordering::Relaxed);
            local.set((0, 0));
        } else {
            local.set((count, bytes));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off (process-wide).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn counters() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
