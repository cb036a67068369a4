//! Spawning is on the path of every simulated RPC, so what it takes from
//! the heap is pinned: a task moving into a slot another has left
//! allocates its boxed future and nothing else (the slot keeps its
//! waker), and a `deadline` spawns no task: it is the future's box and
//! one event.
//! A counting global allocator (per thread, so the harness's own
//! threads do not leak into the count) holds them to it. A race the
//! future wins leaves no timer pending.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use pcsi_sim::sync::oneshot;
use pcsi_sim::util::deadline;
use pcsi_sim::{Sim, SimHandle, SimTime, TimerEvent};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs;

// Both within the timer wheel's first 64 ns, where a timer is filed
// once and fired from where it lies: no cascade moves it to a slot that
// has yet to grow.
const FUTURE_DONE: Duration = Duration::from_nanos(10);
const TIMEOUT: Duration = Duration::from_nanos(50);

/// Wakes the warm-up when due.
struct Ping(Cell<Option<oneshot::Sender<()>>>);

impl TimerEvent for Ping {
    fn fire(self: Rc<Self>, _token: u64) {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(());
        }
    }
}

/// Leaves the simulator with nothing left to grow at virtual time zero:
/// both buffers of the ready queue, the task table with a free slot in
/// it, the two timer-wheel slots the measured sleep and `deadline` file
/// into (two parked sleepers hold them), and two free timer nodes, one
/// per timer the race registers (the future's sleep and its expiry): two
/// events due now fire before the clock moves.
async fn warm_up(h: &SimHandle) {
    for d in [FUTURE_DONE, TIMEOUT] {
        let h2 = h.clone();
        h.spawn_detached(async move { h2.sleep(d).await });
    }
    for _ in 0..4 {
        h.spawn(async {}).await;
    }
    let mut pongs = Vec::new();
    for _ in 0..2 {
        let (tx, rx) = oneshot::channel();
        h.schedule(h.now(), Rc::new(Ping(Cell::new(Some(tx)))), 0);
        pongs.push(rx);
    }
    for rx in pongs {
        let _ = rx.await;
    }
    assert_eq!(h.now(), SimTime::ZERO);
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
fn a_deadline_the_future_wins_is_two_blocks() {
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
    // The future's box and the expiry event: the future is polled in
    // the caller's task, and no channel carries its output.
    assert_eq!(n, 2);
}

#[test]
fn a_deadline_the_future_wins_leaves_no_timer_behind() {
    let mut sim = Sim::new(1);
    let h = sim.handle();
    let (before, during, after) = sim.block_on(async move {
        let before = h.pending_timers();
        // The sleep files one node however often it is polled, and it
        // has fired by the time the future reads the count.
        let h2 = h.clone();
        let out = deadline(&h, TIMEOUT, async move {
            h2.sleep(FUTURE_DONE).await;
            h2.pending_timers()
        })
        .await;
        (before, out, h.pending_timers())
    });
    assert_eq!(during, Some(1), "the expiry, while the race is on");
    assert_eq!(
        after, before,
        "the expiry is cancelled when the future wins"
    );
}
