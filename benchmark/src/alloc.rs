//! A counting global allocator, armed only in traced passes.
//!
//! Disarmed it costs one relaxed load per call, so the untraced runs
//! that produce the end-to-end metrics see the system allocator's own
//! speed. Armed it counts calls and requested bytes and tracks the peak
//! of live bytes above the level at arming. The process is
//! single-threaded; the atomics only satisfy `GlobalAlloc: Sync` and
//! publish nothing, hence `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator installed by `main.rs`.
pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn on_alloc(size: usize) {
    if ARMED.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn on_free(size: usize) {
    if ARMED.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the bookkeeping around
// the calls touches only this module's atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and this allocator only hands out `System`'s
        // pointers.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes since arming.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    pub count: u64,
    pub bytes: u64,
}

/// Starts counting from zero.
pub fn arm() {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
}

/// The counters now (zeros while disarmed).
pub fn snapshot() -> Snapshot {
    Snapshot {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Stops counting; returns the peak of live bytes above the level at
/// arming.
pub fn disarm() -> u64 {
    ARMED.store(false, Relaxed);
    PEAK.load(Relaxed).max(0) as u64
}
