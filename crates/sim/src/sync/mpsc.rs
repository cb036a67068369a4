//! Unbounded multi-producer, single-consumer channel.
//!
//! Used for mailbox-style actors (storage replicas, schedulers) and for
//! fan-in patterns such as quorum collection.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Shared<T> {
    queue: VecDeque<T>,
    rx_waker: Option<Waker>,
    senders: usize,
    rx_alive: bool,
}

/// Creates a connected `(Sender, Receiver)` pair.
///
/// # Examples
///
/// ```
/// use pcsi_sim::{Sim, sync::mpsc};
///
/// let mut sim = Sim::new(0);
/// let h = sim.handle();
/// let total = sim.block_on(async move {
///     let (tx, mut rx) = mpsc::channel::<u32>();
///     for i in 0..3 {
///         let tx = tx.clone();
///         h.spawn(async move { tx.send(i).unwrap(); });
///     }
///     drop(tx);
///     let mut sum = 0;
///     while let Some(v) = rx.recv().await {
///         sum += v;
///     }
///     sum
/// });
/// assert_eq!(total, 3);
/// ```
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(RefCell::new(Shared {
        queue: VecDeque::new(),
        rx_waker: None,
        senders: 1,
        rx_alive: true,
    }));
    (
        Sender {
            shared: Rc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// The sending half; clonable.
pub struct Sender<T> {
    shared: Rc<RefCell<Shared<T>>>,
}

impl<T> Sender<T> {
    /// Enqueues `value`, waking the receiver if it is waiting.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut s = self.shared.borrow_mut();
        if !s.rx_alive {
            return Err(SendError(value));
        }
        s.queue.push_back(value);
        if let Some(w) = s.rx_waker.take() {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.borrow_mut().senders += 1;
        Sender {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.shared.borrow_mut();
        s.senders -= 1;
        if s.senders == 0 {
            if let Some(w) = s.rx_waker.take() {
                w.wake();
            }
        }
    }
}

/// The receiving half.
pub struct Receiver<T> {
    shared: Rc<RefCell<Shared<T>>>,
}

impl<T> Receiver<T> {
    /// Receives the next value; `None` when all senders are dropped and the
    /// queue is drained.
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { rx: self }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.borrow_mut().rx_alive = false;
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    rx: &'a mut Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.rx.shared.borrow_mut();
        if let Some(v) = s.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if s.senders == 0 {
            return Poll::Ready(None);
        }
        s.rx_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;
    use std::time::Duration;

    #[test]
    fn fifo_order_preserved() {
        let mut sim = Sim::new(0);
        let got = sim.block_on(async {
            let (tx, mut rx) = channel();
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut v = Vec::new();
            while let Some(x) = rx.recv().await {
                v.push(x);
            }
            v
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_wakes_on_late_send() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let got = sim.block_on(async move {
            let (tx, mut rx) = channel::<u8>();
            let h2 = h.clone();
            h.spawn(async move {
                h2.sleep(Duration::from_millis(1)).await;
                tx.send(9).unwrap();
            });
            rx.recv().await
        });
        assert_eq!(got, Some(9));
    }

    #[test]
    fn closes_when_all_senders_drop() {
        let mut sim = Sim::new(0);
        let got = sim.block_on(async {
            let (tx, mut rx) = channel::<u8>();
            let tx2 = tx.clone();
            drop(tx);
            drop(tx2);
            rx.recv().await
        });
        assert_eq!(got, None);
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u8>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }
}
