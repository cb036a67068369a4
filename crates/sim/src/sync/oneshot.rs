//! Single-value, single-use channel.
//!
//! The building block for [`crate::JoinHandle`].

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Error returned when the counterpart endpoint was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Closed;

impl fmt::Display for Closed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("oneshot channel closed")
    }
}

impl std::error::Error for Closed {}

struct Shared<T> {
    value: Option<T>,
    waker: Option<Waker>,
    tx_alive: bool,
    rx_alive: bool,
}

/// Creates a connected sender/receiver pair.
pub(crate) fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Rc::new(RefCell::new(Shared {
        value: None,
        waker: None,
        tx_alive: true,
        rx_alive: true,
    }));
    (
        Sender {
            shared: Rc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The sending half; consumed by [`Sender::send`].
pub(crate) struct Sender<T> {
    shared: Rc<RefCell<Shared<T>>>,
}

impl<T> Sender<T> {
    /// Delivers `value`; returns it back if the receiver is gone.
    pub(crate) fn send(self, value: T) -> Result<(), T> {
        let mut s = self.shared.borrow_mut();
        if !s.rx_alive {
            return Err(value);
        }
        s.value = Some(value);
        if let Some(w) = s.waker.take() {
            w.wake();
        }
        Ok(())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.shared.borrow_mut();
        s.tx_alive = false;
        // Waking lets a pending receiver observe the closure.
        if let Some(w) = s.waker.take() {
            w.wake();
        }
    }
}

/// The receiving half; awaiting it yields the sent value.
pub(crate) struct Receiver<T> {
    shared: Rc<RefCell<Shared<T>>>,
}

impl<T> Future for Receiver<T> {
    type Output = Result<T, Closed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.shared.borrow_mut();
        if let Some(v) = s.value.take() {
            return Poll::Ready(Ok(v));
        }
        if !s.tx_alive {
            return Poll::Ready(Err(Closed));
        }
        s.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.borrow_mut().rx_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;
    use std::time::Duration;

    #[test]
    fn sends_across_tasks() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let v = sim.block_on(async move {
            let (tx, rx) = channel::<u32>();
            let h2 = h.clone();
            h.spawn(async move {
                h2.sleep(Duration::from_micros(1)).await;
                tx.send(5).unwrap();
            });
            rx.await.unwrap()
        });
        assert_eq!(v, 5);
    }

    #[test]
    fn dropped_sender_closes() {
        let mut sim = Sim::new(0);
        let r = sim.block_on(async {
            let (tx, rx) = channel::<u32>();
            drop(tx);
            rx.await
        });
        assert_eq!(r, Err(Closed));
    }

    #[test]
    fn dropped_receiver_rejects_send() {
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(1));
    }
}
