//! The virtual-time async executor.
//!
//! [`Sim`] owns the run loop; [`SimHandle`] is the cheap, clonable capability
//! that simulated components use to read the clock, sleep, and spawn tasks.
//!
//! The scheduling discipline is: poll every runnable task until none remain,
//! then advance the clock to the earliest pending timer and wake it. Within
//! one instant, tasks run in FIFO wake order and timers fire in
//! (deadline, registration-sequence) order, which makes runs deterministic.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::rng::RngStreams;
use crate::sync::oneshot;
use crate::time::SimTime;
use crate::wheel::{Fire, TimerEvent, TimerId, TimerWheel};

/// A non-`Send` boxed future, the unit of spawning in the simulator.
pub type LocalBoxFuture<T> = Pin<Box<dyn Future<Output = T> + 'static>>;

type TaskId = usize;

/// The multi-producer ready queue shared between the executor and wakers.
///
/// Wakers may be invoked from inside a task poll (while the executor's
/// `RefCell` state is borrowed), so this queue deliberately lives behind a
/// `Mutex` rather than the `RefCell`. The mutex is never contended — the
/// simulation is single-threaded — it only provides the `Sync` contract the
/// `Waker` API requires.
#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<TaskId>>,
}

impl ReadyQueue {
    fn queue(&self) -> MutexGuard<'_, VecDeque<TaskId>> {
        self.queue.lock().expect("ready queue poisoned")
    }
}

/// Per-slot waker: pushes the slot's id onto the shared ready queue.
///
/// The `queued` flag collapses redundant wakes between polls so a task woken
/// by several channels in one instant is polled once. The waker belongs to
/// the slot, not to one task: a wake left behind by a finished tenant and
/// the spawn of the next one share the flag, so the newcomer is polled
/// once for the two.
struct TaskWaker {
    id: TaskId,
    // Strong reference: the queue holds only task ids (never wakers), so
    // no cycle is possible, and skipping a `Weak::upgrade` per wake
    // matters on the hot path.
    ready: Arc<ReadyQueue>,
    queued: AtomicBool,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            self.ready.queue().push_back(self.id);
        }
    }
}

/// One entry of the task table. It outlives its tenants: a finished
/// task leaves the slot on the free list with its waker in place, and
/// the next spawn moves in without allocating one.
struct Slot {
    /// The tenant; `None` between tenants.
    future: Option<LocalBoxFuture<()>>,
    waker: Arc<TaskWaker>,
    /// The `waker` pre-wrapped as a `Waker`, built once per slot so each
    /// poll borrows it instead of cloning and dropping an `Arc`.
    waker_obj: Waker,
}

struct Inner {
    now: SimTime,
    /// A slot is out of the table (`None`) only while it is polled.
    tasks: Vec<Option<Slot>>,
    free: Vec<TaskId>,
    /// Pending timers, fired in `(deadline, seq)` order. The wheel's
    /// anchor tracks `now` exactly: it advances only when a timer pops,
    /// and `now` is set to each popped deadline.
    timers: TimerWheel,
    live_tasks: usize,
    polls: u64,
    /// Closures [`SimHandle::on_sim_drop`] registered.
    teardowns: Vec<Box<dyn FnOnce()>>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            now: SimTime::ZERO,
            tasks: Vec::new(),
            free: Vec::new(),
            timers: TimerWheel::new(),
            live_tasks: 0,
            polls: 0,
            teardowns: Vec::new(),
        }
    }
}

/// A deterministic discrete-event simulation instance.
///
/// Construct one per experiment with a seed, obtain a [`SimHandle`], build
/// the simulated world, and drive it with [`Sim::block_on`].
///
/// # Examples
///
/// ```
/// use pcsi_sim::Sim;
/// use std::time::Duration;
///
/// let mut sim = Sim::new(7);
/// let h = sim.handle();
/// let sum = sim.block_on(async move {
///     let a = h.spawn({
///         let h = h.clone();
///         async move {
///             h.sleep(Duration::from_micros(10)).await;
///             1u32
///         }
///     });
///     let b = h.spawn(async { 2u32 });
///     a.await + b.await
/// });
/// assert_eq!(sum, 3);
/// ```
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
    ready: Arc<ReadyQueue>,
    rng: RngStreams,
}

impl Sim {
    /// Creates a simulation whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            inner: Rc::new(RefCell::new(Inner::new())),
            ready: Arc::new(ReadyQueue::default()),
            rng: RngStreams::new(seed),
        }
    }

    /// Returns a clonable handle for use inside the simulated world.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            inner: Rc::clone(&self.inner),
            ready: Arc::clone(&self.ready),
            rng: self.rng.clone(),
        }
    }

    /// Runs `root` to completion, advancing virtual time as needed.
    ///
    /// Background tasks spawned via [`SimHandle::spawn`] keep running while
    /// the root future is pending, but the loop exits as soon as the root
    /// completes (remaining background tasks are dropped with the `Sim`
    /// unless the caller blocks on them too).
    ///
    /// # Panics
    ///
    /// Panics on deadlock: the root future is pending but no task is
    /// runnable and no timer is outstanding.
    pub fn block_on<T: 'static>(&mut self, root: impl Future<Output = T> + 'static) -> T {
        let h = self.handle();
        let join = h.spawn(root);
        let mut join = Box::pin(join);
        let waker = noop_waker();

        loop {
            self.drain_ready();

            // Check the root before advancing time.
            let mut cx = Context::from_waker(&waker);
            if let Poll::Ready(v) = join.as_mut().poll(&mut cx) {
                return v;
            }

            if !self.advance_to_next_timer() {
                panic!(
                    "simulation deadlock at {}: root future pending, \
                     no runnable tasks, no timers",
                    self.inner.borrow().now
                );
            }
        }
    }

    /// Polls runnable tasks until the ready queue is empty.
    fn drain_ready(&mut self) {
        loop {
            // Unlocked again before the poll, which may wake tasks.
            let Some(id) = self.ready.queue().pop_front() else {
                return;
            };
            self.poll_task(id);
        }
    }

    /// Advances the clock to the earliest timer and fires it: wakes the
    /// sleeping task, or runs the event.
    ///
    /// Returns `false` if no timers are pending.
    fn advance_to_next_timer(&mut self) -> bool {
        let fire = {
            let mut inner = self.inner.borrow_mut();
            match inner.timers.pop() {
                Some((deadline_ns, fire)) => {
                    let deadline = SimTime::from_nanos(deadline_ns);
                    debug_assert!(deadline >= inner.now, "timer in the past");
                    inner.now = deadline.max(inner.now);
                    fire
                }
                None => return false,
            }
        };
        // Outside the borrow: an event reads the clock and schedules.
        fire.fire();
        true
    }

    fn poll_task(&mut self, id: TaskId) {
        // Take the slot out so the task can re-borrow `inner` (to spawn,
        // register timers, ...) while being polled.
        let mut slot = {
            let mut inner = self.inner.borrow_mut();
            inner.polls += 1;
            inner.tasks[id]
                .take()
                .expect("one task is polled at a time")
        };
        slot.waker.queued.store(false, Ordering::Release);

        // No tenant: a wake that outlived the task it was meant for.
        let finished = slot.future.take().and_then(|mut future| {
            let mut cx = Context::from_waker(&slot.waker_obj);
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(()) => Some(future),
                Poll::Pending => {
                    slot.future = Some(future);
                    None
                }
            }
        });
        let mut inner = self.inner.borrow_mut();
        inner.tasks[id] = Some(slot);
        if finished.is_some() {
            inner.free.push(id);
            inner.live_tasks -= 1;
        }
        // The finished future's destructor may spawn: release first.
        drop(inner);
    }

    /// Total number of task polls performed so far (a determinism probe).
    pub fn poll_count(&self) -> u64 {
        self.inner.borrow().polls
    }
}

/// Tasks hold [`SimHandle`]s, which hold the task table, and a scheduled
/// [`TimerEvent`] holds its object, which as a rule holds a handle too:
/// cycles no reference count unwinds. Dropping the `Sim` ends the
/// simulation, so it empties the table and the timer wheel, and every
/// future and event, with whatever it owns, is freed; the
/// [`SimHandle::on_sim_drop`] closures run first.
impl Drop for Sim {
    fn drop(&mut self) {
        // A future's destructor may itself spawn; go round until one
        // round's destructors have left nothing behind.
        loop {
            // Unwinding out of a poll may find the cell borrowed; then
            // the tasks leak, as they all did before, rather than
            // panicking twice.
            let Ok(mut inner) = self.inner.try_borrow_mut() else {
                return;
            };
            let teardowns = std::mem::take(&mut inner.teardowns);
            let tasks = std::mem::take(&mut inner.tasks);
            let timers = std::mem::replace(&mut inner.timers, TimerWheel::new());
            // Ids on the free list index the table just taken.
            inner.free.clear();
            inner.live_tasks = 0;
            // Teardowns and futures' destructors call back into `inner`
            // (to spawn, to read the clock): release it first.
            drop(inner);
            if teardowns.is_empty() && tasks.is_empty() && timers.len() == 0 {
                return;
            }
            teardowns.into_iter().for_each(|f| f());
            drop(tasks);
            drop(timers);
        }
    }
}

/// A waker that wakes no task, for a poll no task owns: the root join
/// handle's (progress is driven by the ready queue and timers), or a
/// detached call's handler polled in its arrival event.
pub fn noop_waker() -> Waker {
    Waker::from(Arc::new(NoopWaker))
}

struct NoopWaker;

impl Wake for NoopWaker {
    fn wake(self: Arc<Self>) {}
}

/// A clonable capability for interacting with the simulation from inside it.
#[derive(Clone)]
pub struct SimHandle {
    inner: Rc<RefCell<Inner>>,
    ready: Arc<ReadyQueue>,
    rng: RngStreams,
}

impl SimHandle {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// The number of live (spawned, not yet finished) tasks.
    pub fn live_tasks(&self) -> usize {
        self.inner.borrow().live_tasks
    }

    /// Whether a task is queued to run at this instant, ahead of any
    /// woken from now on (the task being polled, once it woke itself).
    pub(crate) fn tasks_are_queued(&self) -> bool {
        !self.ready.queue().is_empty()
    }

    /// Timers and events scheduled and not yet fired or cancelled.
    pub fn pending_timers(&self) -> usize {
        self.inner.borrow().timers.len()
    }

    /// The simulation's named RNG streams.
    pub fn rng(&self) -> &RngStreams {
        &self.rng
    }

    /// Runs `f` when the [`Sim`] is dropped. For state that sits in a
    /// reference cycle outside the task table — a service table whose
    /// handlers own the table's owner — so the end of the simulation
    /// frees it too.
    pub fn on_sim_drop(&self, f: impl FnOnce() + 'static) {
        self.inner.borrow_mut().teardowns.push(Box::new(f));
    }

    /// Spawns a task; the returned [`JoinHandle`] resolves to its output.
    ///
    /// Dropping the handle detaches the task (it keeps running).
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let (tx, rx) = oneshot::channel();
        self.spawn_boxed(Box::pin(async move {
            // The receiver may be gone (detached); ignore send failure.
            let _ = tx.send(fut.await);
        }));
        JoinHandle { rx }
    }

    /// Spawns a task whose result nobody awaits: no result channel is
    /// allocated. Use for fire-and-forget work (fan-out sends, detached
    /// background deliveries) on hot paths.
    pub fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        self.spawn_boxed(Box::pin(fut));
    }

    fn spawn_boxed(&self, wrapped: LocalBoxFuture<()>) {
        let mut inner = self.inner.borrow_mut();
        inner.live_tasks += 1;
        if let Some(id) = inner.free.pop() {
            let slot = inner.tasks[id].as_mut().expect("a free slot is at rest");
            slot.future = Some(wrapped);
            // Queues the slot, unless a wake meant for the last tenant
            // already has: that entry, further up the queue, is then
            // this task's first poll.
            slot.waker.wake_by_ref();
            return;
        }
        let id = inner.tasks.len();
        let waker = Arc::new(TaskWaker {
            id,
            ready: Arc::clone(&self.ready),
            queued: AtomicBool::new(true),
        });
        let waker_obj = Waker::from(Arc::clone(&waker));
        inner.tasks.push(Some(Slot {
            future: Some(wrapped),
            waker,
            waker_obj,
        }));
        drop(inner);
        self.ready.queue().push_back(id);
    }

    /// Fires `event` with `token` at the instant `at`, in registration
    /// order among the timers and events of that instant. An `at` that
    /// is not in the future means now: the event fires once the tasks
    /// that are runnable now have run, before the clock moves.
    pub fn schedule(&self, at: SimTime, event: Rc<dyn TimerEvent>, token: u64) -> TimerId {
        let mut inner = self.inner.borrow_mut();
        let at = at.max(inner.now);
        inner
            .timers
            .insert(at.as_nanos(), Fire::Event(event, token))
    }

    /// Unschedules the event `id` names and drops it at once. A no-op
    /// for an event that already fired or was cancelled.
    pub fn cancel(&self, id: TimerId) {
        let event = self.inner.borrow_mut().timers.cancel(id);
        // Outside the borrow: the event's destructor may call back in.
        drop(event);
    }

    /// Returns a future that completes `d` later in virtual time.
    pub fn sleep(&self, d: Duration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Returns a future that completes at the absolute instant `at`
    /// (immediately if `at` is in the past).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            inner: Rc::clone(&self.inner),
            deadline: at,
            timer: None,
        }
    }
}

impl fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimHandle")
            .field("now", &self.now())
            .finish()
    }
}

/// Future returned by [`SimHandle::sleep`] and [`SimHandle::sleep_until`].
///
/// Holds only the executor core (not a full [`SimHandle`]), so
/// construction and drop stay at one refcount bump. Work a task waits
/// out sleeps (think times, backoffs, a write's media time, a handler's
/// own waits); a message's hops, a reply's wait to leave its server and
/// a request's arrival, whose event runs the handler, are timer events
/// on the fabric ([`SimHandle::schedule`]) and wake no task. A pending
/// sleep files one wheel node, however often it is polled: a poll from
/// another task (a race or a gather handing its work off) moves the
/// node's waker there, and the node keeps its place in the firing
/// order. Dropping a pending sleep cancels its node.
pub struct Sleep {
    inner: Rc<RefCell<Inner>>,
    deadline: SimTime,
    /// The node filed at the first pending poll.
    timer: Option<TimerId>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut inner = this.inner.borrow_mut();
        if inner.now >= this.deadline {
            // Woken by something else at the instant its node is due:
            // the node would wake the task once more for nothing.
            if let Some(id) = this.timer.take() {
                inner.timers.cancel(id);
            }
            return Poll::Ready(());
        }
        match this.timer.and_then(|id| inner.timers.waker_mut(id)) {
            Some(waker) => waker.clone_from(cx.waker()),
            None => {
                let wake = Fire::Wake(cx.waker().clone());
                this.timer = Some(inner.timers.insert(this.deadline.as_nanos(), wake));
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        // A `Sim` unwinding out of a poll may hold the cell.
        if let (Some(id), Ok(mut inner)) = (self.timer, self.inner.try_borrow_mut()) {
            inner.timers.cancel(id);
        }
    }
}

/// Handle to a spawned task's result.
///
/// Awaiting it yields the task output. Dropping it detaches the task.
pub struct JoinHandle<T> {
    rx: oneshot::Receiver<T>,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Ready(Ok(v)) => Poll::Ready(v),
            // The task can only vanish without sending if the whole `Sim`
            // was torn down, in which case nothing is polling us. Treat a
            // closed channel while still polled as a bug.
            Poll::Ready(Err(_)) => panic!("spawned task dropped without completing"),
            Poll::Pending => Poll::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_returns_value() {
        let mut sim = Sim::new(1);
        assert_eq!(sim.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn sleep_advances_clock_exactly() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let t = sim.block_on(async move {
            h.sleep(Duration::from_nanos(700)).await;
            h.sleep(Duration::from_micros(2)).await;
            h.now()
        });
        assert_eq!(t, SimTime::from_nanos(2_700));
    }

    #[test]
    fn spawned_tasks_interleave_deterministically() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let order = sim.block_on(async move {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut joins = Vec::new();
            for (i, delay) in [(0u32, 30u64), (1, 10), (2, 20)] {
                let h2 = h.clone();
                let log = Rc::clone(&log);
                joins.push(h.spawn(async move {
                    h2.sleep(Duration::from_nanos(delay)).await;
                    log.borrow_mut().push(i);
                }));
            }
            for j in joins {
                j.await;
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn simultaneous_timers_fire_in_registration_order() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let order = sim.block_on(async move {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut joins = Vec::new();
            for i in 0..8u32 {
                let h2 = h.clone();
                let log = Rc::clone(&log);
                joins.push(h.spawn(async move {
                    h2.sleep(Duration::from_nanos(100)).await;
                    log.borrow_mut().push(i);
                }));
            }
            for j in joins {
                j.await;
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut sim = Sim::new(1);
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn detached_tasks_keep_running() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let observed = sim.block_on(async move {
            let flag = Rc::new(RefCell::new(false));
            {
                let h2 = h.clone();
                let flag = Rc::clone(&flag);
                // Dropped immediately: detached (spawn already queued
                // the task; the handle is not a lazy future).
                let _detached = h.spawn(async move {
                    h2.sleep(Duration::from_nanos(5)).await;
                    *flag.borrow_mut() = true;
                });
            }
            h.sleep(Duration::from_nanos(10)).await;
            let v = *flag.borrow();
            v
        });
        assert!(observed);
    }

    #[test]
    fn dropping_the_sim_frees_parked_tasks_and_what_their_destructors_spawn() {
        /// Spawns one more task holding `token` when dropped.
        struct Respawn(SimHandle, Rc<()>, u32);
        impl Drop for Respawn {
            fn drop(&mut self) {
                if self.2 > 0 {
                    let next = Respawn(self.0.clone(), Rc::clone(&self.1), self.2 - 1);
                    self.0.spawn_detached(async move {
                        std::future::pending::<()>().await;
                        drop(next);
                    });
                }
            }
        }

        let mut sim = Sim::new(1);
        let h = sim.handle();
        let token = Rc::new(());
        let alive = Rc::downgrade(&token);
        sim.block_on({
            let h = h.clone();
            async move {
                // A finished task first, so the free list is not empty
                // when the table is taken.
                h.spawn(async {}).await;
                let guard = Respawn(h.clone(), token, 3);
                let h2 = h.clone();
                h.spawn_detached(async move {
                    loop {
                        h2.sleep(Duration::from_millis(1)).await;
                        let _ = &guard;
                    }
                });
                h.sleep(Duration::from_millis(3)).await;
            }
        });
        assert!(alive.upgrade().is_some(), "the ticker is still parked");
        drop(sim);
        assert!(alive.upgrade().is_none(), "every generation was dropped");
        assert_eq!(h.live_tasks(), 0);
    }

    #[test]
    fn dropping_the_sim_frees_scheduled_events_and_unexpired_deadlines() {
        /// An event that owns a handle, as a fabric in flight does: the
        /// wheel holds it, it holds the wheel.
        struct Holds(#[allow(dead_code)] SimHandle, #[allow(dead_code)] Rc<()>);
        impl TimerEvent for Holds {
            fn fire(self: Rc<Self>, _token: u64) {}
        }

        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (in_event, in_future) = (Rc::new(()), Rc::new(()));
        let alive = [Rc::downgrade(&in_event), Rc::downgrade(&in_future)];
        sim.block_on({
            let h = h.clone();
            async move {
                let far = h.now() + Duration::from_secs(3_600);
                h.schedule(far, Rc::new(Holds(h.clone(), in_event)), 0);
                // A deadline a long way from expiring, around a future
                // that never finishes: an event in the wheel, a task in
                // the table, a channel between them.
                let h2 = h.clone();
                h.spawn_detached(async move {
                    let never = async move {
                        std::future::pending::<()>().await;
                        drop(in_future);
                    };
                    crate::util::deadline(&h2, Duration::from_secs(60), never).await;
                });
                h.sleep(Duration::from_millis(1)).await;
            }
        });
        assert!(alive.iter().all(|w| w.upgrade().is_some()), "both pending");
        drop(sim);
        assert!(alive.iter().all(|w| w.upgrade().is_none()));
        drop(h);
    }

    /// Appends its token to a log when fired.
    struct Note(Rc<RefCell<Vec<u64>>>);
    impl TimerEvent for Note {
        fn fire(self: Rc<Self>, token: u64) {
            self.0.borrow_mut().push(token);
        }
    }

    #[test]
    fn an_event_scheduled_for_now_fires_after_the_runnable_tasks_and_before_the_clock_moves() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let note = Rc::new(Note(Rc::clone(&log)));
        sim.block_on({
            let log = Rc::clone(&log);
            async move {
                h.sleep(Duration::from_nanos(40)).await;
                h.schedule(h.now(), note.clone(), 1);
                // An instant already past means now, too.
                h.schedule(SimTime::from_nanos(3), note.clone(), 2);
                h.schedule(h.now() + Duration::from_nanos(1), note, 4);
                let log2 = Rc::clone(&log);
                // Spawned after the events were scheduled, run before.
                h.spawn_detached(async move { log2.borrow_mut().push(0) });
                log.borrow_mut().push(10);
                // Parks the root on a timer registered behind the two
                // events of this instant.
                h.sleep(Duration::from_nanos(1)).await;
                log.borrow_mut().push(3);
            }
        });
        assert_eq!(*log.borrow(), vec![10, 0, 1, 2, 4, 3]);
    }

    #[test]
    fn a_task_spawned_into_a_slot_with_a_stale_wake_queued_is_polled_once() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let polls = Rc::new(RefCell::new(0u32));
        sim.block_on({
            let polls = Rc::clone(&polls);
            async move {
                // The first tenant leaves a clone of its waker behind.
                let left_behind = Rc::new(RefCell::new(None));
                let stash = Rc::clone(&left_behind);
                h.spawn(std::future::poll_fn(move |cx| {
                    *stash.borrow_mut() = Some(cx.waker().clone());
                    Poll::Ready(())
                }))
                .await;
                let stale = left_behind.take().expect("the first tenant ran");
                // The spawn takes the slot just freed; the stale wake
                // lands between the spawn and the tenant's first poll.
                let counter = Rc::clone(&polls);
                h.spawn_detached(std::future::poll_fn(move |_| {
                    *counter.borrow_mut() += 1;
                    Poll::<()>::Pending
                }));
                stale.wake_by_ref();
                h.sleep(Duration::from_nanos(1)).await;
                assert_eq!(*polls.borrow(), 1, "the spawn and the wake are one poll");
                // A wake while the tenant is parked still reaches it.
                stale.wake();
                h.sleep(Duration::from_nanos(1)).await;
                assert_eq!(*polls.borrow(), 2);
            }
        });
    }

    #[test]
    fn identical_seeds_give_identical_schedules() {
        let run = |seed| {
            let mut sim = Sim::new(seed);
            let h = sim.handle();
            let end = sim.block_on(async move {
                let mut joins = Vec::new();
                for i in 0..50u64 {
                    let h2 = h.clone();
                    joins.push(h.spawn(async move {
                        let jitter = h2.rng().stream("jitter").gen_range(0..1000);
                        h2.sleep(Duration::from_nanos(i * 13 + jitter)).await;
                        h2.now().as_nanos()
                    }));
                }
                let mut acc = 0u64;
                for j in joins {
                    acc = acc.wrapping_mul(31).wrapping_add(j.await);
                }
                acc
            });
            (end, sim.poll_count())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0);
    }

    /// Polls `sleep` once from the task awaiting this.
    async fn poll_once(sleep: &mut Sleep) -> Poll<()> {
        std::future::poll_fn(|cx| Poll::Ready(Pin::new(&mut *sleep).poll(cx))).await
    }

    #[test]
    fn a_pending_sleep_files_one_timer_however_often_polled_and_none_once_dropped() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let (filed, dropped) = sim.block_on(async move {
            let mut nap = h.sleep(Duration::from_micros(10));
            for _ in 0..3 {
                assert!(poll_once(&mut nap).await.is_pending());
            }
            let filed = h.pending_timers();
            drop(nap);
            (filed, h.pending_timers())
        });
        assert_eq!((filed, dropped), (1, 0));
    }

    /// A race or a gather hands a pending sleep to another task; when it
    /// is due, the task that polled it first is not polled for it.
    #[test]
    fn a_sleep_moved_to_another_task_wakes_only_that_task() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let stash = Rc::new(RefCell::new(None));
        sim.block_on({
            let (h, stash) = (h.clone(), Rc::clone(&stash));
            async move {
                let (h2, first) = (h.clone(), Rc::clone(&stash));
                h.spawn_detached(async move {
                    let mut nap = h2.sleep(Duration::from_micros(10));
                    assert!(poll_once(&mut nap).await.is_pending());
                    *first.borrow_mut() = Some(nap);
                    std::future::pending::<()>().await;
                });
                h.sleep(Duration::from_nanos(1)).await;
                let nap = stash.borrow_mut().take().expect("the first task ran");
                h.spawn_detached(nap);
                h.sleep(Duration::from_nanos(1)).await;
            }
        });
        let before = sim.poll_count();
        sim.block_on(async move { h.sleep(Duration::from_micros(20)).await });
        // The root's two polls and the second task's one: no wake is left
        // behind for the first task.
        assert_eq!(sim.poll_count() - before, 3);
    }

    #[test]
    fn sleep_until_past_is_immediate() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let t = sim.block_on(async move {
            h.sleep(Duration::from_micros(5)).await;
            h.sleep_until(SimTime::from_micros(1)).await;
            h.now()
        });
        assert_eq!(t, SimTime::from_micros(5));
    }
}
