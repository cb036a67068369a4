//! Spawning is on the path of every simulated RPC, so what it takes from
//! the heap is pinned: a task moving into a slot another has left
//! allocates its boxed future and nothing else (the slot keeps its
//! waker), and a `deadline` is one task and one event, not two tasks. A
//! counting global allocator (per thread, so the harness's own threads
//! do not leak into the count) holds them to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use pcsi_sim::util::deadline;
use pcsi_sim::{Sim, SimHandle};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a plain thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// Both within the timer wheel's first 64 ns, where a timer is filed
// once and fired from where it lies: no cascade moves it to a slot that
// has yet to grow.
const FUTURE_DONE: Duration = Duration::from_nanos(10);
const TIMEOUT: Duration = Duration::from_nanos(50);

/// Leaves the simulator with nothing left to grow at virtual time zero:
/// both buffers of the ready queue, the task table with a free slot in
/// it, and the two timer-wheel slots the measured `deadline` files into
/// (two parked sleepers hold them).
async fn warm_up(h: &SimHandle) {
    for d in [FUTURE_DONE, TIMEOUT] {
        let h2 = h.clone();
        h.spawn_detached(async move { h2.sleep(d).await });
    }
    for _ in 0..4 {
        h.spawn(async {}).await;
    }
}

#[test]
fn a_task_moving_into_a_used_slot_allocates_its_future_only() {
    let mut sim = Sim::new(1);
    let h = sim.handle();
    let n = sim.block_on(async move {
        warm_up(&h).await;
        let h2 = h.clone();
        let before = allocs();
        h.spawn_detached(async move {
            h2.sleep(FUTURE_DONE).await;
        });
        let n = allocs() - before;
        // The task runs to its end on the slot's waker.
        h.sleep(TIMEOUT).await;
        assert_eq!(h.live_tasks(), 1, "only the root is left");
        n
    });
    assert_eq!(n, 1, "the boxed future, and no waker");
}

#[test]
fn a_deadline_the_future_wins_is_four_blocks() {
    let mut sim = Sim::new(1);
    let h = sim.handle();
    let (out, n) = sim.block_on(async move {
        warm_up(&h).await;
        let h2 = h.clone();
        let before = allocs();
        let out = deadline(&h, TIMEOUT, async move {
            h2.sleep(FUTURE_DONE).await;
            7u32
        })
        .await;
        (out, allocs() - before)
    });
    assert_eq!(out, Some(7));
    // The race channel, its queue's first push, the future's box, the
    // expiry event. No second task, and the first one's slot had a waker.
    assert_eq!(n, 4);
}
