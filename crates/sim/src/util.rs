//! Small future combinators the simulator code needs.
//!
//! The simulation deliberately avoids external async runtimes, so the few
//! combinators used by protocol code (`join_all`, `deadline`, `Pacer`)
//! live here.

use std::cell::Cell;
use std::future::{poll_fn, Future};
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::executor::{LocalBoxFuture, SimHandle};
use crate::sync::mpsc;
use crate::time::SimTime;
use crate::wheel::TimerEvent;

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
pub fn join_all<T, F>(futures: impl IntoIterator<Item = F>) -> JoinAll<T>
where
    F: Future<Output = T> + 'static,
    T: 'static,
{
    JoinAll {
        futures: futures
            .into_iter()
            .map(|f| Some(Box::pin(f) as LocalBoxFuture<T>))
            .collect(),
        outputs: Vec::new(),
    }
}

/// Future returned by [`join_all`].
pub struct JoinAll<T> {
    futures: Vec<Option<LocalBoxFuture<T>>>,
    outputs: Vec<Option<T>>,
}

// `JoinAll` never pins its outputs; the inner futures are heap-pinned boxes.
impl<T> Unpin for JoinAll<T> {}

impl<T> Future for JoinAll<T> {
    type Output = Vec<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<T>> {
        let this = self.get_mut();
        if this.outputs.is_empty() {
            this.outputs.resize_with(this.futures.len(), || None);
        }
        let mut done = true;
        for (slot, out) in this.futures.iter_mut().zip(this.outputs.iter_mut()) {
            if let Some(fut) = slot {
                match fut.as_mut().poll(cx) {
                    Poll::Ready(v) => {
                        *out = Some(v);
                        *slot = None;
                    }
                    Poll::Pending => done = false,
                }
            }
        }
        if done {
            Poll::Ready(
                this.outputs
                    .iter_mut()
                    .map(|o| o.take().expect("join_all output missing"))
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    }
}

/// Races `fut` against a timer: `Some(output)` if the future completes
/// within `dur`, `None` otherwise.
///
/// On timeout the future is **not** cancelled — it was spawned as its own
/// task and keeps running detached. Callers racing an RPC must therefore
/// treat a `None` as *ambiguous* (the request may still take effect) and
/// lean on request-level idempotence when retrying.
pub async fn deadline<T: 'static>(
    handle: &SimHandle,
    dur: Duration,
    fut: impl Future<Output = T> + 'static,
) -> Option<T> {
    let (tx, mut rx) = mpsc::channel();
    let h = handle.clone();
    // The future reports through the channel; no JoinHandle needed.
    handle.spawn_detached(async move {
        let mut fut = pin!(fut);
        let first = poll_fn(|cx| Poll::Ready(fut.as_mut().poll(cx))).await;
        let out = match first {
            Poll::Ready(out) => out,
            Poll::Pending => {
                // Registered after the first poll, so behind any timer
                // that poll registered: a future done in exactly `dur`
                // by such a timer wins the tie, by a later one loses it.
                let expiry = Rc::new(Expiry(tx.clone()));
                h.schedule(h.now() + dur, expiry, 0);
                fut.await
            }
        };
        let _ = tx.send(Some(out));
    });
    match rx.recv().await {
        Some(first) => first,
        None => unreachable!("deadline: the future vanished"),
    }
}

/// The timer's side of a [`deadline`] race: `None` down the channel.
struct Expiry<T>(mpsc::Sender<Option<T>>);

impl<T> TimerEvent for Expiry<T> {
    fn fire(self: Rc<Self>, _token: u64) {
        // The receiver is gone if the future won.
        let _ = self.0.send(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn deadline_loser_keeps_running_detached() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let (done_tx, mut done_rx) = mpsc::channel();
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
                done_rx.recv().await
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
