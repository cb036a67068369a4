//! Small future combinators the simulator code needs.
//!
//! The simulation deliberately avoids external async runtimes, so the few
//! combinators used by protocol code (`join_all`, `deadline`, `Pacer`)
//! live here.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::rc::Rc;
use std::task::{Poll, Waker};
use std::time::Duration;

use crate::executor::{LocalBoxFuture, SimHandle};
use crate::time::SimTime;
use crate::wheel::{TimerEvent, TimerId};

/// Deterministic virtual-time rate gate.
///
/// Each [`Pacer::tick`] admits one unit of work at most once per
/// `interval`: the first tick passes immediately, later ticks sleep until
/// their slot. Slots are anchored to the previous *admission* (not the
/// call instant), so a caller that falls behind does not burst to catch
/// up. Used to pace background shard migration so data movement spreads
/// over virtual time instead of completing in one instant.
///
/// # Examples
///
/// ```
/// use pcsi_sim::{Sim, util::Pacer};
/// use std::time::Duration;
///
/// let mut sim = Sim::new(0);
/// let h = sim.handle();
/// let t = sim.block_on(async move {
///     let p = Pacer::new(h.clone(), Duration::from_micros(100));
///     for _ in 0..3 {
///         p.tick().await;
///     }
///     h.now()
/// });
/// // Ticks at 0µs, 100µs, 200µs.
/// assert_eq!(t.as_nanos(), 200_000);
/// ```
pub struct Pacer {
    handle: SimHandle,
    interval: Duration,
    next_slot: Cell<SimTime>,
}

impl Pacer {
    /// A pacer admitting one tick per `interval`, starting immediately.
    pub fn new(handle: SimHandle, interval: Duration) -> Self {
        Pacer {
            handle,
            interval,
            next_slot: Cell::new(SimTime::ZERO),
        }
    }

    /// Waits for the next admission slot.
    pub async fn tick(&self) {
        let now = self.handle.now();
        let slot = self.next_slot.get().max(now);
        self.next_slot.set(slot + self.interval);
        if slot > now {
            self.handle.sleep_until(slot).await;
        }
    }
}

/// Drives all `futures` concurrently and returns their outputs in input
/// order.
///
/// Unlike spawning, the futures run inside the caller's task; use
/// [`SimHandle::spawn`] when they must keep running past this call.
///
/// # Examples
///
/// ```
/// use pcsi_sim::{Sim, util::join_all};
/// use std::time::Duration;
///
/// let mut sim = Sim::new(0);
/// let h = sim.handle();
/// let out = sim.block_on(async move {
///     let futs = (0..3u64).map(|i| {
///         let h = h.clone();
///         async move {
///             h.sleep(Duration::from_nanos(100 - i)).await;
///             i
///         }
///     });
///     join_all(futs).await
/// });
/// assert_eq!(out, vec![0, 1, 2]);
/// ```
pub async fn join_all<T, F>(futures: impl IntoIterator<Item = F>) -> Vec<T>
where
    F: Future<Output = T> + 'static,
    T: 'static,
{
    let futures = futures.into_iter().enumerate();
    let mut futures: Vec<_> = futures
        .map(|(i, f)| Box::pin(async move { (i, f.await) }) as LocalBoxFuture<_>)
        .collect();
    let mut outputs: Vec<Option<T>> = futures.iter().map(|_| None).collect();
    poll_fn(|cx| {
        let mut done = |(i, out)| outputs[i] = Some(out);
        futures.retain_mut(|f| f.as_mut().poll(cx).map(&mut done).is_pending());
        if futures.is_empty() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
    .await;
    outputs
        .into_iter()
        .map(|out| out.expect("joined"))
        .collect()
}

/// Races `fut` against a timer: `Some(output)` if the future completes
/// within `dur`, `None` otherwise.
///
/// The future is polled in the caller's task, first where a task spawned
/// now would be: behind every task already runnable. Its expiry is an
/// event scheduled after that poll, so behind any timer the poll
/// registered: a future done in exactly `dur` by such a timer wins the
/// tie, by a later one loses it. A winner cancels the expiry.
///
/// On timeout the future is **not** cancelled: it moves to a detached
/// task and keeps running. Callers racing an RPC must therefore treat a
/// `None` as *ambiguous* (the request may still take effect) and lean on
/// request-level idempotence when retrying. Only the expiry hands the
/// future off: dropping a pending `deadline` drops the future and
/// cancels the expiry. No caller does; each awaits its race to the end.
pub async fn deadline<T: 'static>(
    handle: &SimHandle,
    dur: Duration,
    fut: impl Future<Output = T> + 'static,
) -> Option<T> {
    let mut fut: LocalBoxFuture<T> = Box::pin(fut);
    let (mut first, mut armed) = (true, None::<Armed>);
    let won = poll_fn(|cx| {
        if std::mem::take(&mut first) && handle.tasks_are_queued() {
            cx.waker().wake_by_ref();
            return Poll::Pending;
        }
        // Checked first: a future done by a timer behind the expiry lost
        // the race when the expiry fired.
        let waker = armed.as_ref().map(|Armed(.., expiry)| &expiry.0);
        if waker.is_some_and(|w| w.borrow().is_none()) {
            return Poll::Ready(None);
        }
        if let Poll::Ready(out) = fut.as_mut().poll(cx) {
            return Poll::Ready(Some(out));
        }
        match waker {
            Some(w) => *w.borrow_mut() = Some(cx.waker().clone()),
            None => {
                let expiry = Rc::new(Expiry(RefCell::new(Some(cx.waker().clone()))));
                let id = handle.schedule(handle.now() + dur, expiry.clone(), 0);
                armed = Some(Armed(handle, id, expiry));
            }
        }
        Poll::Pending
    })
    .await;
    if won.is_none() {
        handle.spawn_detached(async move {
            fut.await;
        });
    }
    won
}

/// The timer's side of a [`deadline`] race: wakes the racing task, and
/// leaves `None` behind to say the race is lost.
struct Expiry(RefCell<Option<Waker>>);

impl TimerEvent for Expiry {
    fn fire(self: Rc<Self>, _token: u64) {
        if let Some(waker) = self.0.take() {
            waker.wake();
        }
    }
}

/// A scheduled [`Expiry`], cancelled when the race ends without it.
struct Armed<'a>(&'a SimHandle, TimerId, Rc<Expiry>);

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        self.0.cancel(self.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::oneshot;
    use crate::Sim;

    #[test]
    fn join_all_empty() {
        let mut sim = Sim::new(0);
        let out: Vec<u32> = sim.block_on(join_all(Vec::<LocalBoxFuture<u32>>::new()));
        assert!(out.is_empty());
    }

    #[test]
    fn join_all_preserves_order_despite_timing() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let futs: Vec<_> = [30u64, 10, 20]
                .into_iter()
                .enumerate()
                .map(|(i, d)| {
                    let h = h.clone();
                    async move {
                        h.sleep(Duration::from_nanos(d)).await;
                        i
                    }
                })
                .collect();
            join_all(futs).await
        });
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn deadline_passes_through_fast_future() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let inner = h.clone();
            deadline(&h, Duration::from_micros(100), async move {
                inner.sleep(Duration::from_micros(10)).await;
                7u32
            })
            .await
        });
        assert_eq!(out, Some(7));
    }

    #[test]
    fn deadline_times_out_slow_future() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let out = sim.block_on(async move {
            let inner = h.clone();
            deadline(&h, Duration::from_micros(10), async move {
                inner.sleep(Duration::from_micros(100)).await;
                7u32
            })
            .await
        });
        assert_eq!(out, None);
    }

    /// When and with what `deadline` returns, for a future that
    /// finishes before the timer, after it, and at the same instant —
    /// on the timer its first poll registered (the future wins the tie)
    /// and on a later one (the timer does).
    #[test]
    fn deadline_returns_at_the_instant_the_winner_finishes() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let got = sim.block_on(async move {
            let mut got = Vec::new();
            for naps in [&[10u64][..], &[100], &[30], &[10, 20]] {
                let inner = h.clone();
                let start = h.now();
                let out = deadline(&h, Duration::from_micros(30), async move {
                    for &nap in naps {
                        inner.sleep(Duration::from_micros(nap)).await;
                    }
                    naps.len()
                })
                .await;
                got.push((out, (h.now() - start).as_micros()));
                // Let the loser finish before the next round.
                h.sleep(Duration::from_micros(200)).await;
            }
            got
        });
        assert_eq!(
            got,
            vec![(Some(1), 10), (None, 30), (Some(1), 30), (None, 30)]
        );
    }

    /// A race started while another task is runnable first polls its
    /// future behind that task, where a spawned task's first poll is.
    #[test]
    fn deadline_first_polls_its_future_behind_the_runnable_tasks() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let order = sim.block_on(async move {
            let log = Rc::new(RefCell::new(Vec::new()));
            let task = Rc::clone(&log);
            h.spawn_detached(async move { task.borrow_mut().push("task") });
            let race = Rc::clone(&log);
            let fut = async move { race.borrow_mut().push("future") };
            deadline(&h, Duration::from_micros(1), fut).await;
            log.take()
        });
        assert_eq!(order, ["task", "future"]);
    }

    #[test]
    fn deadline_loser_keeps_running_detached() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let (done_tx, done_rx) = oneshot::channel();
        let out = sim.block_on({
            let h = h.clone();
            async move {
                let inner = h.clone();
                let timed = deadline(&h, Duration::from_micros(10), async move {
                    inner.sleep(Duration::from_micros(100)).await;
                    let _ = done_tx.send(42u32);
                })
                .await;
                assert!(timed.is_none());
                // The loser still completes after its own sleep elapses.
                done_rx.await.ok()
            }
        });
        assert_eq!(out, Some(42));
    }

    #[test]
    fn pacer_spaces_ticks_and_absorbs_lateness() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let times = sim.block_on({
            let h = h.clone();
            async move {
                let p = Pacer::new(h.clone(), Duration::from_micros(10));
                let mut times = Vec::new();
                p.tick().await;
                times.push(h.now().as_nanos());
                p.tick().await;
                times.push(h.now().as_nanos());
                // Fall behind by several intervals, then tick twice: the
                // first passes immediately (no burst of owed slots), the
                // second is spaced a full interval after it.
                h.sleep(Duration::from_micros(50)).await;
                p.tick().await;
                times.push(h.now().as_nanos());
                p.tick().await;
                times.push(h.now().as_nanos());
                times
            }
        });
        assert_eq!(times, vec![0, 10_000, 60_000, 70_000]);
    }
}
