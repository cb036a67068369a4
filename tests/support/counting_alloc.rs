//! The workspace's one counting global allocator. Every `*_alloc.rs`
//! test binary includes this file with `#[path]` (cargo builds only the
//! top-level files of a `tests/` directory as targets) and reads the
//! counters its assertions need. Each counter is per thread, so the
//! harness's own threads do not leak into a count: allocations made,
//! bytes asked for, and bytes still live.

#![allow(dead_code)] // each binary reads only the counters it asserts on

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain thread-local `Cell`s and never allocate. `realloc` is the
// trait's default, an `alloc` and a `dealloc` through this impl, and is
// counted there.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size() as u64;
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + size));
        let _ = LIVE.try_with(|n| n.set(n.get() + size as i64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations `f` makes on this thread.
pub fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

/// Bytes allocated on this thread so far.
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes allocated on this thread and not yet freed.
pub fn live() -> i64 {
    LIVE.with(Cell::get)
}
