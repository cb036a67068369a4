//! FIFO objects.
//!
//! A FIFO connects pipeline stages: producers append messages, consumers
//! pop them in order, waiting when the queue is empty (Figure 2 feeds its
//! post-processing function through one). The implementation is
//! waker-based and executor-agnostic; the kernel charges transport time
//! separately, so the queue itself is pure coordination.
//!
//! Waiters are registered in a keyed list that the *consumer* maintains:
//! a push wakes the front waiter by reference but leaves the entry in
//! place, and the waiter removes itself when it actually dequeues (or
//! when its future is dropped). This closes the lost-wakeup window of
//! the obvious "pop a waker and wake it" design — a `Pop` future that
//! is woken and then dropped without being polled hands the wakeup to
//! the next waiter instead of stranding a queued message.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use bytes::Bytes;
use pcsi_core::PcsiError;

struct FifoState {
    queue: VecDeque<Bytes>,
    /// Registered consumers in arrival order, keyed so a future can
    /// find and remove its own entry on dequeue or drop.
    waiters: VecDeque<(u64, Waker)>,
    next_waiter: u64,
    closed: bool,
    capacity: Option<usize>,
    /// Messages taken so far, queued or streamed: the next one's seq.
    taken: u64,
}

impl FifoState {
    fn wake_front(&self) {
        if let Some((_, w)) = self.waiters.front() {
            w.wake_by_ref();
        }
    }

    fn remove_waiter(&mut self, key: u64) {
        if let Some(i) = self.waiters.iter().position(|(k, _)| *k == key) {
            self.waiters.remove(i);
        }
    }
}

/// A multi-producer, multi-consumer byte-message FIFO.
///
/// Clones share the queue.
///
/// # Examples
///
/// ```
/// use pcsi_fs::FifoQueue;
/// use bytes::Bytes;
///
/// let f = FifoQueue::unbounded();
/// f.push(Bytes::from_static(b"m1")).unwrap();
/// assert_eq!(f.try_pop().unwrap(), Bytes::from_static(b"m1"));
/// assert!(f.try_pop().is_none());
/// ```
#[derive(Clone)]
pub struct FifoQueue {
    state: Rc<RefCell<FifoState>>,
}

impl FifoQueue {
    /// A FIFO with no capacity bound.
    pub fn unbounded() -> Self {
        Self::with_capacity(None)
    }

    /// A FIFO rejecting pushes beyond `capacity` queued messages.
    pub fn bounded(capacity: usize) -> Self {
        Self::with_capacity(Some(capacity))
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        FifoQueue {
            state: Rc::new(RefCell::new(FifoState {
                queue: VecDeque::new(),
                waiters: VecDeque::new(),
                next_waiter: 0,
                closed: false,
                capacity,
                taken: 0,
            })),
        }
    }

    /// Enqueues a message, waking one waiting consumer.
    ///
    /// Fails with [`PcsiError::Overloaded`] when a bounded FIFO is full
    /// and with [`PcsiError::InvalidReference`] after close.
    pub fn push(&self, msg: Bytes) -> Result<(), PcsiError> {
        let mut s = self.state.borrow_mut();
        if s.closed {
            return Err(PcsiError::InvalidReference("fifo is closed".into()));
        }
        if let Some(cap) = s.capacity {
            if s.queue.len() >= cap {
                return Err(PcsiError::Overloaded(format!("fifo full ({cap} messages)")));
            }
        }
        s.queue.push_back(msg);
        s.taken += 1;
        s.wake_front();
        Ok(())
    }

    /// Non-blocking push that hands the message back instead of
    /// constructing an error when a bounded FIFO is full — the shape a
    /// retry loop wants.
    ///
    /// Returns `Ok(None)` when queued, `Ok(Some(msg))` when the FIFO is
    /// at capacity, and `Err` when it is closed.
    pub fn try_push(&self, msg: Bytes) -> Result<Option<Bytes>, PcsiError> {
        let mut s = self.state.borrow_mut();
        if s.closed {
            return Err(PcsiError::InvalidReference("fifo is closed".into()));
        }
        if let Some(cap) = s.capacity {
            if s.queue.len() >= cap {
                return Ok(Some(msg));
            }
        }
        s.queue.push_back(msg);
        s.taken += 1;
        s.wake_front();
        Ok(None)
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<Bytes> {
        self.state.borrow_mut().queue.pop_front()
    }

    /// Pops the next message, waiting while the queue is empty.
    ///
    /// Resolves to `Err` if the FIFO is closed while empty.
    pub fn pop(&self) -> Pop {
        Pop {
            state: Rc::clone(&self.state),
            registered: None,
        }
    }

    /// Closes the FIFO: pending and future pops of an empty queue fail,
    /// already-queued messages still drain.
    pub fn close(&self) {
        let mut s = self.state.borrow_mut();
        s.closed = true;
        for (_, w) in &s.waiters {
            w.wake_by_ref();
        }
    }

    /// Queued message count.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The FIFO's one message sequence: the number the next message
    /// gets, which is every message it has taken so far — queued, or
    /// streamed past the queue (see [`FifoQueue::count_streamed`]).
    pub fn next_seq(&self) -> u64 {
        self.state.borrow().taken
    }

    /// Counts a message that a subscribed FIFO pushed to its subscribers
    /// instead of queueing, so both modes number from one sequence.
    pub fn count_streamed(&self) {
        self.state.borrow_mut().taken += 1;
    }
}

/// Future returned by [`FifoQueue::pop`].
pub struct Pop {
    state: Rc<RefCell<FifoState>>,
    /// Key of this future's entry in the waiter list, once registered.
    registered: Option<u64>,
}

impl Future for Pop {
    type Output = Result<Bytes, PcsiError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let state = Rc::clone(&self.state);
        let mut s = state.borrow_mut();
        if let Some(msg) = s.queue.pop_front() {
            if let Some(key) = self.registered.take() {
                s.remove_waiter(key);
                // Another message may still be queued for the consumer
                // behind us; this dequeue consumed the wake.
                if !s.queue.is_empty() {
                    s.wake_front();
                }
            }
            return Poll::Ready(Ok(msg));
        }
        if s.closed {
            if let Some(key) = self.registered.take() {
                s.remove_waiter(key);
            }
            return Poll::Ready(Err(PcsiError::InvalidReference("fifo is closed".into())));
        }
        match self.registered {
            Some(key) => {
                // Refresh the stored waker in place (it may belong to a
                // different task wrapper after a spurious wake).
                if let Some(entry) = s.waiters.iter_mut().find(|(k, _)| *k == key) {
                    entry.1 = cx.waker().clone();
                }
            }
            None => {
                let key = s.next_waiter;
                s.next_waiter += 1;
                s.waiters.push_back((key, cx.waker().clone()));
                drop(s);
                self.registered = Some(key);
            }
        }
        Poll::Pending
    }
}

impl Drop for Pop {
    fn drop(&mut self) {
        if let Some(key) = self.registered.take() {
            let mut s = self.state.borrow_mut();
            s.remove_waiter(key);
            // If we were woken for a message we never collected, pass
            // the wakeup on instead of stranding the message.
            if !s.queue.is_empty() {
                s.wake_front();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let f = FifoQueue::unbounded();
        for i in 0..5u8 {
            f.push(Bytes::from(vec![i])).unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(f.try_pop().unwrap()[0], i);
        }
        assert_eq!(f.next_seq(), 5);
    }

    #[test]
    fn bounded_rejects_overflow() {
        let f = FifoQueue::bounded(2);
        f.push(Bytes::from_static(b"a")).unwrap();
        f.push(Bytes::from_static(b"b")).unwrap();
        assert!(matches!(
            f.push(Bytes::from_static(b"c")),
            Err(PcsiError::Overloaded(_))
        ));
        f.try_pop();
        assert!(f.push(Bytes::from_static(b"c")).is_ok());
    }

    #[test]
    fn try_push_returns_the_message_when_full() {
        let f = FifoQueue::bounded(1);
        assert!(f.try_push(Bytes::from_static(b"a")).unwrap().is_none());
        // Full: the message comes back untouched, no error allocated.
        let back = f.try_push(Bytes::from_static(b"b")).unwrap();
        assert_eq!(back, Some(Bytes::from_static(b"b")));
        assert_eq!(f.len(), 1);
        // Draining frees the slot.
        f.try_pop().unwrap();
        assert!(f.try_push(Bytes::from_static(b"b")).unwrap().is_none());
        // Closed beats full: an error, not a bounce.
        f.close();
        assert!(f.try_push(Bytes::from_static(b"c")).is_err());
    }

    #[test]
    fn close_drains_then_errors() {
        let f = FifoQueue::unbounded();
        f.push(Bytes::from_static(b"last")).unwrap();
        f.close();
        assert!(f.push(Bytes::from_static(b"x")).is_err());
        assert_eq!(f.try_pop().unwrap(), Bytes::from_static(b"last"));
        assert!(f.try_pop().is_none());
    }

    /// Async behaviour is exercised with a trivial single-future executor
    /// to keep this crate free of a pcsi-sim dependency.
    fn poll_once<F: Future>(fut: &mut Pin<Box<F>>) -> Poll<F::Output> {
        use std::task::Wake;
        struct Noop;
        impl Wake for Noop {
            fn wake(self: std::sync::Arc<Self>) {}
        }
        let waker = std::task::Waker::from(std::sync::Arc::new(Noop));
        let mut cx = Context::from_waker(&waker);
        fut.as_mut().poll(&mut cx)
    }

    /// A waker that records wakes, so tests can observe who got woken.
    fn counting_waker() -> (Waker, std::sync::Arc<std::sync::atomic::AtomicU32>) {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        use std::task::Wake;
        struct Count(Arc<AtomicU32>);
        impl Wake for Count {
            fn wake(self: Arc<Self>) {
                self.wake_by_ref();
            }
            fn wake_by_ref(self: &Arc<Self>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let count = Arc::new(AtomicU32::new(0));
        let waker = Waker::from(Arc::new(Count(count.clone())));
        (waker, count)
    }

    #[test]
    fn pop_waits_until_push() {
        let f = FifoQueue::unbounded();
        let mut pop = Box::pin(f.pop());
        assert!(poll_once(&mut pop).is_pending());
        f.push(Bytes::from_static(b"late")).unwrap();
        match poll_once(&mut pop) {
            Poll::Ready(Ok(b)) => assert_eq!(b, Bytes::from_static(b"late")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pop_on_closed_empty_fails() {
        let f = FifoQueue::unbounded();
        let mut pop = Box::pin(f.pop());
        assert!(poll_once(&mut pop).is_pending());
        f.close();
        match poll_once(&mut pop) {
            Poll::Ready(Err(PcsiError::InvalidReference(_))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn close_wakes_every_pending_waiter() {
        let f = FifoQueue::unbounded();
        let (wa, ca) = counting_waker();
        let (wb, cb) = counting_waker();
        let mut pa = Box::pin(f.pop());
        let mut pb = Box::pin(f.pop());
        assert!(pa.as_mut().poll(&mut Context::from_waker(&wa)).is_pending());
        assert!(pb.as_mut().poll(&mut Context::from_waker(&wb)).is_pending());
        f.close();
        use std::sync::atomic::Ordering;
        assert!(ca.load(Ordering::Relaxed) >= 1, "first waiter not woken");
        assert!(cb.load(Ordering::Relaxed) >= 1, "second waiter not woken");
        // Both resolve to the closed error when re-polled.
        assert!(matches!(
            pa.as_mut().poll(&mut Context::from_waker(&wa)),
            Poll::Ready(Err(PcsiError::InvalidReference(_)))
        ));
        assert!(matches!(
            pb.as_mut().poll(&mut Context::from_waker(&wb)),
            Poll::Ready(Err(PcsiError::InvalidReference(_)))
        ));
    }

    #[test]
    fn multi_consumer_sees_every_message_in_order() {
        // Two concurrent consumers, interleaved with pushes: between
        // them they must observe every message exactly once, and each
        // consumer's own sequence must be in FIFO order.
        let f = FifoQueue::unbounded();
        let (wa, _) = counting_waker();
        let (wb, _) = counting_waker();
        let mut got = Vec::new();
        let mut pa = Box::pin(f.pop());
        let mut pb = Box::pin(f.pop());
        assert!(pa.as_mut().poll(&mut Context::from_waker(&wa)).is_pending());
        assert!(pb.as_mut().poll(&mut Context::from_waker(&wb)).is_pending());
        for i in 0..6u8 {
            f.push(Bytes::from(vec![i])).unwrap();
            // Alternate which consumer polls first; whoever resolves
            // replaces their future with a fresh pop.
            let (first, second): (&mut Pin<Box<Pop>>, _) = if i % 2 == 0 {
                (&mut pa, &mut pb)
            } else {
                (&mut pb, &mut pa)
            };
            match first
                .as_mut()
                .poll(&mut Context::from_waker(if i % 2 == 0 { &wa } else { &wb }))
            {
                Poll::Ready(Ok(b)) => {
                    got.push(b[0]);
                    *first = Box::pin(f.pop());
                    assert!(first
                        .as_mut()
                        .poll(&mut Context::from_waker(if i % 2 == 0 { &wa } else { &wb }))
                        .is_pending());
                }
                other => panic!("unexpected {other:?}"),
            }
            assert!(second
                .as_mut()
                .poll(&mut Context::from_waker(if i % 2 == 0 { &wb } else { &wa }))
                .is_pending());
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn woken_pop_dropped_without_poll_hands_the_message_on() {
        // The lost-wakeup regression: waiter A is woken by a push, then
        // its future is dropped before ever being polled. The queued
        // message must flow to waiter B, not sit stranded.
        let f = FifoQueue::unbounded();
        let (wa, ca) = counting_waker();
        let (wb, cb) = counting_waker();
        let mut pa = Box::pin(f.pop());
        let mut pb = Box::pin(f.pop());
        assert!(pa.as_mut().poll(&mut Context::from_waker(&wa)).is_pending());
        assert!(pb.as_mut().poll(&mut Context::from_waker(&wb)).is_pending());
        f.push(Bytes::from_static(b"msg")).unwrap();
        use std::sync::atomic::Ordering;
        assert_eq!(ca.load(Ordering::Relaxed), 1, "front waiter should wake");
        assert_eq!(
            cb.load(Ordering::Relaxed),
            0,
            "only the front waiter wakes per push"
        );
        // A is cancelled without being polled again.
        drop(pa);
        assert!(
            cb.load(Ordering::Relaxed) >= 1,
            "drop must hand the wakeup to B"
        );
        match pb.as_mut().poll(&mut Context::from_waker(&wb)) {
            Poll::Ready(Ok(b)) => assert_eq!(b, Bytes::from_static(b"msg")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clones_share_state() {
        let f = FifoQueue::unbounded();
        let g = f.clone();
        f.push(Bytes::from_static(b"shared")).unwrap();
        assert_eq!(g.try_pop().unwrap(), Bytes::from_static(b"shared"));
    }
}
