//! The message fabric: delivery, queueing, transports, RPC, faults.
//!
//! [`Fabric`] is the one component every distributed piece of the system
//! talks through. It charges each message
//!
//! 1. **transport overhead** — the Table-1 "socket overhead" (5 µs) per
//!    endpoint for TCP-like messages; RDMA-like messages skip it,
//! 2. **egress serialization** — a per-node NIC queue at the generation's
//!    line rate, so concurrent senders on one node contend realistically,
//! 3. **propagation** — the hop-class one-way delay with jitter.
//!
//! Fault injection (node crashes, partitions) lives here too, because the
//! network is where faults are observed.

use fxhash::{FxHashMap, FxHashSet};
use std::cell::{OnceCell, RefCell};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use bytes::Bytes;
use pcsi_metrics::{Counter, Histogram, Metrics};
use pcsi_sim::executor::LocalBoxFuture;
use pcsi_sim::{SimHandle, SimTime, TimerEvent};

use crate::latency::LatencyModel;
use crate::node::NodeId;
use crate::topology::{HopClass, Topology};

/// Table 1: "Socket overhead — 5,000 ns", charged per TCP-like endpoint.
pub const SOCKET_OVERHEAD: Duration = Duration::from_nanos(5_000);

/// Per-message overhead of the RDMA-like transport (doorbell + completion).
pub const RDMA_OVERHEAD: Duration = Duration::from_nanos(300);

/// How long a sender waits before declaring a silently-lost message dead.
/// Dropped messages surface as [`NetError::Dropped`] after this timeout,
/// so callers observe loss as latency, the way a real RTO behaves.
pub(crate) const RETRANSMIT_TIMEOUT: Duration = Duration::from_millis(2);

/// Seeded message-level fault probabilities for a link (or the whole
/// fabric). Layered *under* the crash/partition API: crashes and
/// partitions are absolute, these are per-message coin flips drawn from
/// the deterministic `"net-faults"` RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageFaults {
    /// Probability a message is silently lost. The sender burns
    /// `RETRANSMIT_TIMEOUT` and then observes [`NetError::Dropped`].
    pub drop: f64,
    /// Probability an RPC request is delivered (and executed) twice.
    /// Models at-least-once delivery; handlers must be idempotent.
    pub duplicate: f64,
    /// Probability a message is hit by a queueing delay spike.
    pub delay_spike: f64,
    /// Extra one-way delay charged by a single spike.
    pub spike: Duration,
}

impl MessageFaults {
    /// No faults at all; the default.
    pub const NONE: MessageFaults = MessageFaults {
        drop: 0.0,
        duplicate: 0.0,
        delay_spike: 0.0,
        spike: Duration::ZERO,
    };

    /// True when any probability is non-zero (i.e. RNG draws are needed).
    pub(crate) fn active(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.delay_spike > 0.0
    }
}

impl Default for MessageFaults {
    fn default() -> Self {
        MessageFaults::NONE
    }
}

/// Message transports with different per-message costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Kernel TCP sockets: per-endpoint socket overhead.
    Tcp,
    /// Kernel-bypass, RDMA-like: near-zero per-message overhead. The
    /// "emerging fast network" only pays off with this transport — the
    /// paper's point that web-service overheads will dominate otherwise.
    Rdma,
}

impl Transport {
    /// Per-endpoint processing overhead.
    pub(crate) fn endpoint_overhead(self) -> Duration {
        match self {
            Transport::Tcp => SOCKET_OVERHEAD,
            Transport::Rdma => RDMA_OVERHEAD,
        }
    }
}

/// Network-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination node is crashed.
    NodeDown(NodeId),
    /// A partition separates the endpoints.
    Partitioned(NodeId, NodeId),
    /// No service with that name is bound on the destination.
    NoService(String),
    /// The message was silently lost; the sender gave up after the
    /// retransmission timeout.
    Dropped(NodeId, NodeId),
    /// Application-level failure surfaced through the RPC layer.
    Remote(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NodeDown(n) => write!(f, "node {n} is down"),
            NetError::Partitioned(a, b) => write!(f, "network partition between {a} and {b}"),
            NetError::NoService(s) => write!(f, "no service {s:?} bound"),
            NetError::Dropped(a, b) => write!(f, "message from {a} to {b} dropped"),
            NetError::Remote(m) => write!(f, "remote error: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Context passed to RPC handlers.
#[derive(Debug, Clone, Copy)]
pub struct CallCtx {
    /// The caller's node.
    pub from: NodeId,
    /// The node the handler runs on.
    pub to: NodeId,
    /// Trace context propagated by [`Fabric::call_traced`]; `None` for
    /// untraced calls. Handlers parent their spans under it.
    pub trace: Option<pcsi_trace::TraceContext>,
}

/// An RPC handler bound to a `(node, service)` pair.
pub type RpcHandler = Rc<dyn Fn(Bytes, CallCtx) -> LocalBoxFuture<Result<Bytes, NetError>>>;

struct State {
    /// Handlers by node, then service name, so the per-call lookup is
    /// two borrowed-key probes — no `(NodeId, String)` tuple (and no
    /// `String` allocation) per RPC.
    services: FxHashMap<NodeId, FxHashMap<String, RpcHandler>>,
    down: FxHashSet<NodeId>,
    /// Symmetric set of blocked node pairs (stored with a <= b).
    blocked: FxHashSet<(NodeId, NodeId)>,
    egress_busy_until: Vec<SimTime>,
    /// Fault probabilities applied to every non-local link without a
    /// per-link override.
    default_faults: MessageFaults,
    /// Per-link overrides (symmetric, stored with a <= b).
    link_faults: FxHashMap<(NodeId, NodeId), MessageFaults>,
    /// Cached: true iff any configured fault is active. When false,
    /// `deliver` makes zero fault-RNG draws, so enabling the machinery
    /// costs nothing for fault-free runs.
    faults_armed: bool,
    /// Messages in flight, by slab slot: a slot is taken when a message
    /// first has to wait and is the token of the events that move it.
    /// The slots on `free_hops` hold whatever their last message left.
    hops: Vec<Hop>,
    free_hops: Vec<usize>,
}

impl State {
    fn rearm_faults(&mut self) {
        self.faults_armed =
            self.default_faults.active() || self.link_faults.values().any(MessageFaults::active);
    }

    fn park(&mut self, hop: Hop) -> usize {
        match self.free_hops.pop() {
            Some(slot) => {
                self.hops[slot] = hop;
                slot
            }
            None => {
                self.hops.push(hop);
                self.hops.len() - 1
            }
        }
    }
}

/// The message a delivery moves.
#[derive(Clone, Copy)]
struct Message {
    from: NodeId,
    to: NodeId,
    bytes: usize,
    transport: Transport,
}

/// What a message does next, once the wait before it is over.
#[derive(Clone, Copy)]
enum Stage {
    /// Reachability, the counters, the fault draws.
    Start,
    /// The sender's endpoint overhead.
    Send,
    /// The sender's NIC queue: serialize behind what is queued.
    Egress,
    /// The wire, with its jitter draw.
    Propagate,
    /// Reachability again, then the receiver's endpoint overhead.
    Receive,
    /// Delivered.
    Arrive,
    /// Lost: the sender has sat out the retransmission timeout.
    GiveUp,
}

/// Where [`FabricInner::advance`] left a message.
enum Step {
    /// Nothing happens before this instant; then the stage runs.
    Wait(SimTime, Stage),
    Done(Result<(), NetError>),
}

/// One message in flight.
struct Hop {
    msg: Message,
    /// What the pending event does.
    next: Stage,
    /// The task awaiting the delivery; `None` once it has dropped the
    /// future, and the message then stops at its next stage.
    waiter: Option<Waker>,
    /// Set on arrival or failure, for the woken task to collect.
    outcome: Option<Result<(), NetError>>,
}

/// The shared message fabric. Cheap to clone.
#[derive(Clone)]
pub struct Fabric {
    inner: Rc<FabricInner>,
}

struct FabricInner {
    handle: SimHandle,
    topology: Topology,
    latency: LatencyModel,
    state: RefCell<State>,
    /// Cached handles to the deterministic fault/jitter streams. A
    /// stream handle shares state with every other handle to the same
    /// name, and stream seeds are a pure function of `(seed, name)`,
    /// so grabbing them eagerly here draws the exact sequences the
    /// per-message lookups used to — without a map probe per message.
    faults_rng: pcsi_sim::DetRng,
    jitter_rng: pcsi_sim::DetRng,
    messages: Counter,
    bytes: Counter,
    dropped: Counter,
    duplicated: Counter,
    delayed: Counter,
    /// Per-message payload-size histogram; recorded only once a metrics
    /// registry is bound (the counters above are always-on cells).
    msg_bytes: OnceCell<Histogram>,
}

impl Fabric {
    /// Creates a fabric over `topology` with the given latency model.
    pub fn new(handle: SimHandle, topology: Topology, latency: LatencyModel) -> Self {
        let n = topology.len();
        let faults_rng = handle.rng().stream("net-faults");
        let jitter_rng = handle.rng().stream("net-jitter");
        let fabric = Fabric {
            inner: Rc::new(FabricInner {
                handle,
                topology,
                latency,
                state: RefCell::new(State {
                    services: FxHashMap::default(),
                    down: FxHashSet::default(),
                    blocked: FxHashSet::default(),
                    egress_busy_until: vec![SimTime::ZERO; n],
                    default_faults: MessageFaults::NONE,
                    link_faults: FxHashMap::default(),
                    faults_armed: false,
                    hops: Vec::new(),
                    free_hops: Vec::new(),
                }),
                messages: Counter::new(),
                bytes: Counter::new(),
                dropped: Counter::new(),
                duplicated: Counter::new(),
                delayed: Counter::new(),
                msg_bytes: OnceCell::new(),
                faults_rng,
                jitter_rng,
            }),
        };
        // A bound handler owns its service, which owns a clone of this
        // fabric: a cycle no reference count unwinds. The end of the
        // simulation empties the table, outside the borrow because a
        // handler's destructor may unbind.
        let weak = Rc::downgrade(&fabric.inner);
        fabric.inner.handle.on_sim_drop(move || {
            if let Some(inner) = weak.upgrade() {
                let services = std::mem::take(&mut inner.state.borrow_mut().services);
                drop(services);
            }
        });
        fabric
    }

    /// The cluster layout.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// The latency model in force.
    pub fn latency(&self) -> &LatencyModel {
        &self.inner.latency
    }

    /// The simulation handle (for components built on the fabric).
    pub fn handle(&self) -> &SimHandle {
        &self.inner.handle
    }

    /// Publishes the fabric's telemetry on `metrics`: the always-on
    /// message/byte/fault counters become registered series (same cells
    /// the accessors read), and a per-message payload-size histogram
    /// starts recording. Bound once, by whoever deploys the fabric
    /// (`Fabric::new` has no registry argument); a second call panics.
    pub fn set_metrics(&self, m: &Metrics) {
        m.bind_counter("fabric.messages", &[], &self.inner.messages);
        m.bind_counter("fabric.bytes", &[], &self.inner.bytes);
        m.bind_counter("fabric.dropped", &[], &self.inner.dropped);
        m.bind_counter("fabric.duplicated", &[], &self.inner.duplicated);
        m.bind_counter("fabric.delayed", &[], &self.inner.delayed);
        let bound = self
            .inner
            .msg_bytes
            .set(m.histogram("fabric.message_bytes", &[]));
        assert!(bound.is_ok(), "the fabric's metrics are bound once");
    }

    /// Total messages delivered so far.
    pub fn message_count(&self) -> u64 {
        self.inner.messages.get()
    }

    /// Total payload bytes moved so far.
    pub fn bytes_moved(&self) -> u64 {
        self.inner.bytes.get()
    }

    /// Binds `handler` as `service` on `node`, replacing any previous
    /// binding.
    pub fn bind(&self, node: NodeId, service: &str, handler: RpcHandler) {
        self.inner
            .state
            .borrow_mut()
            .services
            .entry(node)
            .or_default()
            .insert(service.to_owned(), handler);
    }

    /// Removes a service binding; later calls to it fail with
    /// [`NetError::NoService`]. Needed for ephemeral per-subscription
    /// endpoints (streaming) so closed subscriptions don't leak
    /// handlers. Unbinding a name that was never bound is a no-op.
    pub fn unbind(&self, node: NodeId, service: &str) {
        let mut s = self.inner.state.borrow_mut();
        if let Some(services) = s.services.get_mut(&node) {
            services.remove(service);
        }
    }

    /// Marks a node crashed (`true`) or recovered (`false`).
    pub fn set_node_down(&self, node: NodeId, down: bool) {
        let mut s = self.inner.state.borrow_mut();
        if down {
            s.down.insert(node);
        } else {
            s.down.remove(&node);
        }
    }

    /// Installs a partition separating every node in `a` from every node
    /// in `b` (both directions).
    pub fn partition(&self, a: &[NodeId], b: &[NodeId]) {
        let mut s = self.inner.state.borrow_mut();
        for &x in a {
            for &y in b {
                s.blocked.insert(ordered(x, y));
            }
        }
    }

    /// Removes all partitions (crashed nodes stay crashed).
    pub fn heal_partitions(&self) {
        self.inner.state.borrow_mut().blocked.clear();
    }

    /// Sets the fault probabilities applied to every non-local link
    /// that has no per-link override.
    pub fn set_message_faults(&self, faults: MessageFaults) {
        let mut s = self.inner.state.borrow_mut();
        s.default_faults = faults;
        s.rearm_faults();
    }

    /// Sets fault probabilities for the (symmetric) link `a <-> b`,
    /// overriding the fabric-wide default for that link.
    pub fn set_link_faults(&self, a: NodeId, b: NodeId, faults: MessageFaults) {
        let mut s = self.inner.state.borrow_mut();
        s.link_faults.insert(ordered(a, b), faults);
        s.rearm_faults();
    }

    /// Clears all message faults, fabric-wide and per-link.
    pub fn clear_message_faults(&self) {
        let mut s = self.inner.state.borrow_mut();
        s.default_faults = MessageFaults::NONE;
        s.link_faults.clear();
        s.faults_armed = false;
    }

    /// Messages silently lost by fault injection so far.
    pub fn messages_dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// RPC requests duplicated by fault injection so far.
    pub fn messages_duplicated(&self) -> u64 {
        self.inner.duplicated.get()
    }

    /// Messages hit by an injected delay spike so far.
    pub fn messages_delayed(&self) -> u64 {
        self.inner.delayed.get()
    }

    /// One message's worth of delay — transport overhead, egress
    /// queueing, propagation — or the fault that ends it. Local messages
    /// skip the NIC entirely. The awaiting task is polled twice: to
    /// start the message and to collect its outcome.
    fn deliver(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        transport: Transport,
    ) -> Delivery<'_> {
        Delivery {
            fabric: &self.inner,
            msg: Message {
                from,
                to,
                bytes,
                transport,
            },
            slot: None,
        }
    }

    /// Messages that hold a slab slot.
    #[cfg(test)]
    fn hops_in_flight(&self) -> usize {
        let s = self.inner.state.borrow();
        s.hops.len() - s.free_hops.len()
    }

    /// Moves `bytes` from `from` to `to`, returning the transfer time.
    ///
    /// Used for bulk data movement (object replication, intermediate
    /// results); the paper's §4.1 data-movement argument is measured with
    /// this call.
    pub async fn transfer(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        transport: Transport,
    ) -> Result<Duration, NetError> {
        let start = self.inner.handle.now();
        self.deliver(from, to, bytes, transport).await?;
        Ok(self.inner.handle.now() - start)
    }

    /// Performs an RPC: request delivery, handler execution, response
    /// delivery.
    pub async fn call(
        &self,
        from: NodeId,
        to: NodeId,
        service: &str,
        transport: Transport,
        payload: Bytes,
    ) -> Result<Bytes, NetError> {
        self.call_traced(from, to, service, transport, payload, None)
            .await
    }

    /// Like [`Fabric::call`], but carries a trace context to the
    /// handler (surfaced as [`CallCtx::trace`]). The context's
    /// [`pcsi_trace::TraceContext::WIRE_LEN`] bytes ride the request and
    /// are charged to virtual time like any other payload bytes, so a
    /// traced message is honestly a little bigger than an untraced one.
    pub async fn call_traced(
        &self,
        from: NodeId,
        to: NodeId,
        service: &str,
        transport: Transport,
        payload: Bytes,
        trace: Option<pcsi_trace::TraceContext>,
    ) -> Result<Bytes, NetError> {
        let req_len = payload.len()
            + trace
                .map(|_| pcsi_trace::TraceContext::WIRE_LEN)
                .unwrap_or(0);

        // Seeded duplicate injection: with probability `duplicate` the
        // request is delivered twice and the handler runs twice, the
        // second response discarded — at-least-once delivery. The coin
        // is flipped before the first delivery so the draw sequence does
        // not depend on handler behavior.
        let faults = self.inner.faults_for(from, to);
        let duplicate = faults.duplicate > 0.0 && self.inner.faults_rng.bool(faults.duplicate);

        self.deliver(from, to, req_len, transport).await?;

        let handler = {
            let s = self.inner.state.borrow();
            s.services
                .get(&to)
                .and_then(|svcs| svcs.get(service))
                .cloned()
                .ok_or_else(|| NetError::NoService(service.to_owned()))?
        };

        if duplicate {
            self.inner.duplicated.incr();
            let fabric = self.clone();
            // The duplicate shares the request frame: `Bytes::clone` is
            // a refcount bump on the same backing buffer, and both
            // deliveries charge the full wire length (`req_len`
            // includes trace-context bytes the payload alone lacks).
            let dup_payload = payload.clone();
            let dup_handler = Rc::clone(&handler);
            self.inner.handle.spawn_detached(async move {
                // The duplicate takes its own trip through the fabric
                // (and may itself be dropped or delayed) before the
                // handler re-executes; its response goes nowhere.
                if fabric.deliver(from, to, req_len, transport).await.is_ok() {
                    let _ = dup_handler(dup_payload, CallCtx { from, to, trace }).await;
                }
            });
        }

        let response = handler(payload, CallCtx { from, to, trace }).await?;

        let resp_len = response.len();
        self.deliver(to, from, resp_len, transport).await?;
        Ok(response)
    }
}

impl FabricInner {
    /// The fault probabilities in force on the link `from -> to`, or
    /// `NONE` when no fault is armed anywhere (the common case; no RNG
    /// draws happen then).
    fn faults_for(&self, from: NodeId, to: NodeId) -> MessageFaults {
        let s = self.state.borrow();
        if !s.faults_armed || from == to {
            return MessageFaults::NONE;
        }
        s.link_faults
            .get(&ordered(from, to))
            .copied()
            .unwrap_or(s.default_faults)
    }

    fn check_reachable(&self, from: NodeId, to: NodeId) -> Result<(), NetError> {
        let s = self.state.borrow();
        if s.down.contains(&to) {
            return Err(NetError::NodeDown(to));
        }
        if s.down.contains(&from) {
            return Err(NetError::NodeDown(from));
        }
        if s.blocked.contains(&ordered(from, to)) {
            return Err(NetError::Partitioned(from, to));
        }
        Ok(())
    }

    /// Runs `msg` forward from `stage` until it has to wait or is done.
    /// Each stage touches the shared state — counters, the egress
    /// queue, the RNG streams, reachability — at the instant the wait
    /// before it ends, and a wait of zero length runs straight on.
    fn advance(&self, msg: Message, mut stage: Stage) -> Step {
        let Message {
            from,
            to,
            bytes,
            transport,
        } = msg;
        loop {
            let now = self.handle.now();
            let (until, next) = match stage {
                Stage::Start => {
                    if let Err(e) = self.check_reachable(from, to) {
                        return Step::Done(Err(e));
                    }
                    self.messages.incr();
                    self.bytes.add(bytes as u64);
                    if let Some(h) = self.msg_bytes.get() {
                        h.record(bytes as u64);
                    }
                    if self.topology.hop_class(from, to) == HopClass::Local {
                        // Same machine: no NIC, no propagation; charge
                        // endpoint overhead once (loopback still crosses
                        // the socket layer). Loopback never loses
                        // messages, so faults are skipped too.
                        (now + transport.endpoint_overhead(), Stage::Arrive)
                    } else {
                        self.draw_faults(msg, now)
                    }
                }
                Stage::Send => (now + transport.endpoint_overhead(), Stage::Egress),
                Stage::Egress => {
                    let ser = self.latency.serialization(bytes);
                    let mut s = self.state.borrow_mut();
                    let busy = &mut s.egress_busy_until[from.0 as usize];
                    *busy = (*busy).max(now) + ser;
                    (*busy, Stage::Propagate)
                }
                Stage::Propagate => {
                    // Serialization was charged at the egress queue.
                    let hop = self.topology.hop_class(from, to);
                    let prop = self.latency.one_way(hop, 0, &self.jitter_rng);
                    (now + prop, Stage::Receive)
                }
                Stage::Receive => {
                    // The receiver may have died while the message was
                    // in flight.
                    if let Err(e) = self.check_reachable(from, to) {
                        return Step::Done(Err(e));
                    }
                    (now + transport.endpoint_overhead(), Stage::Arrive)
                }
                Stage::Arrive => return Step::Done(Ok(())),
                Stage::GiveUp => return Step::Done(Err(NetError::Dropped(from, to))),
            };
            if until > now {
                return Step::Wait(until, next);
            }
            stage = next;
        }
    }

    /// Seeded message faults: drop (the sender burns the RTO and errors)
    /// and delay spike (extra one-way latency). The draws come from the
    /// deterministic "net-faults" stream; when no fault is armed no draw
    /// happens at all, so fault-free runs are byte-identical to runs on
    /// a fabric without the machinery.
    fn draw_faults(&self, msg: Message, now: SimTime) -> (SimTime, Stage) {
        let faults = self.faults_for(msg.from, msg.to);
        if faults.active() {
            let rng = &self.faults_rng;
            if faults.drop > 0.0 && rng.bool(faults.drop) {
                self.dropped.incr();
                let rto = msg.transport.endpoint_overhead() + RETRANSMIT_TIMEOUT;
                return (now + rto, Stage::GiveUp);
            }
            if faults.delay_spike > 0.0 && rng.bool(faults.delay_spike) {
                self.delayed.incr();
                return (now + faults.spike, Stage::Send);
            }
        }
        (now, Stage::Send)
    }
}

/// A message's timer: moves the hop in slot `token` on from the stage it
/// was waiting for.
impl TimerEvent for FabricInner {
    fn fire(self: Rc<Self>, token: u64) {
        let slot = token as usize;
        let (msg, stage) = {
            let mut s = self.state.borrow_mut();
            let hop = &mut s.hops[slot];
            if hop.waiter.is_none() {
                s.free_hops.push(slot);
                return;
            }
            (hop.msg, hop.next)
        };
        match self.advance(msg, stage) {
            Step::Wait(until, next) => {
                self.state.borrow_mut().hops[slot].next = next;
                self.handle.schedule(until, Rc::clone(&self) as _, token);
            }
            Step::Done(outcome) => {
                let waiter = {
                    let mut s = self.state.borrow_mut();
                    let hop = &mut s.hops[slot];
                    hop.outcome = Some(outcome);
                    hop.waiter.take()
                };
                if let Some(waiter) = waiter {
                    waiter.wake();
                }
            }
        }
    }
}

/// Future of [`Fabric::deliver`]. Lazy: the message starts at the first
/// poll.
struct Delivery<'a> {
    fabric: &'a Rc<FabricInner>,
    msg: Message,
    /// The hop's slab slot while the message is in flight.
    slot: Option<usize>,
}

impl Future for Delivery<'_> {
    type Output = Result<(), NetError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let fabric = self.fabric;
        let Some(slot) = self.slot else {
            return match fabric.advance(self.msg, Stage::Start) {
                Step::Done(outcome) => Poll::Ready(outcome),
                Step::Wait(until, next) => {
                    let slot = fabric.state.borrow_mut().park(Hop {
                        msg: self.msg,
                        next,
                        waiter: Some(cx.waker().clone()),
                        outcome: None,
                    });
                    self.slot = Some(slot);
                    fabric
                        .handle
                        .schedule(until, Rc::clone(fabric) as _, slot as u64);
                    Poll::Pending
                }
            };
        };
        let mut s = fabric.state.borrow_mut();
        let hop = &mut s.hops[slot];
        match hop.outcome.take() {
            Some(outcome) => {
                s.free_hops.push(slot);
                self.slot = None;
                Poll::Ready(outcome)
            }
            None => {
                // Woken for something else the task awaits.
                if !hop.waiter.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                    hop.waiter = Some(cx.waker().clone());
                }
                Poll::Pending
            }
        }
    }
}

impl Drop for Delivery<'_> {
    fn drop(&mut self) {
        let Some(slot) = self.slot else { return };
        let mut s = self.fabric.state.borrow_mut();
        let hop = &mut s.hops[slot];
        if hop.outcome.is_some() {
            s.free_hops.push(slot);
        } else {
            // The pending event finds no waiter and frees the slot.
            hop.waiter = None;
        }
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::NetworkGeneration;
    use pcsi_sim::Sim;
    use proptest::strategy::Strategy as _;

    fn echo_handler() -> RpcHandler {
        Rc::new(|payload, _ctx| Box::pin(async move { Ok(payload) }))
    }

    /// A TCP call to `echo`, given up on after `within` — the way the
    /// store's migration races its RPCs.
    async fn echo_within(
        fabric: &Fabric,
        from: NodeId,
        to: NodeId,
        payload: Bytes,
        within: Duration,
    ) -> Option<Result<Bytes, NetError>> {
        let racing = fabric.clone();
        let call = async move { racing.call(from, to, "echo", Transport::Tcp, payload).await };
        pcsi_sim::util::deadline(fabric.handle(), within, call).await
    }

    fn build(sim: &Sim, generation: NetworkGeneration) -> Fabric {
        Fabric::new(
            sim.handle(),
            Topology::uniform(2, 2),
            LatencyModel::deterministic(generation),
        )
    }

    /// The delivery this fabric had before a message became a chain of
    /// timer events: the same stages, each a `sleep` of the calling
    /// task. The oracle the state machine is held to.
    impl Fabric {
        async fn deliver_oracle(
            &self,
            from: NodeId,
            to: NodeId,
            bytes: usize,
            transport: Transport,
        ) -> Result<(), NetError> {
            self.inner.check_reachable(from, to)?;
            let h = &self.inner.handle;
            self.inner.messages.incr();
            self.inner.bytes.add(bytes as u64);
            if let Some(h) = self.inner.msg_bytes.get() {
                h.record(bytes as u64);
            }

            let hop = self.inner.topology.hop_class(from, to);
            if hop == HopClass::Local {
                // Same machine: no NIC, no propagation; charge endpoint
                // overhead once (loopback still crosses the socket layer).
                // Loopback never loses messages, so faults are skipped too.
                h.sleep(transport.endpoint_overhead()).await;
                return Ok(());
            }

            // Seeded message faults: drop (sender burns the RTO and errors)
            // and delay spike (extra one-way latency). The draws come from
            // the deterministic "net-faults" stream; when no fault is armed
            // no draw happens at all, so fault-free runs are byte-identical
            // to runs on a fabric without the machinery.
            let faults = self.inner.faults_for(from, to);
            if faults.active() {
                let rng = &self.inner.faults_rng;
                if faults.drop > 0.0 && rng.bool(faults.drop) {
                    self.inner.dropped.incr();
                    h.sleep(transport.endpoint_overhead() + RETRANSMIT_TIMEOUT)
                        .await;
                    return Err(NetError::Dropped(from, to));
                }
                if faults.delay_spike > 0.0 && rng.bool(faults.delay_spike) {
                    self.inner.delayed.incr();
                    h.sleep(faults.spike).await;
                }
            }

            // Sender-side endpoint overhead.
            h.sleep(transport.endpoint_overhead()).await;

            // Egress NIC queue: serialize after everything already queued.
            let ser = self.inner.latency.serialization(bytes);
            let tx_done = {
                let mut s = self.inner.state.borrow_mut();
                let busy = s.egress_busy_until[from.0 as usize].max(h.now());
                let done = busy + ser;
                s.egress_busy_until[from.0 as usize] = done;
                done
            };
            h.sleep_until(tx_done).await;

            // Propagation with jitter (serialization already charged above).
            let prop = self.inner.latency.one_way(hop, 0, &self.inner.jitter_rng);
            h.sleep(prop).await;

            // Receiver may have died while the message was in flight.
            self.inner.check_reachable(from, to)?;

            // Receiver-side endpoint overhead.
            h.sleep(transport.endpoint_overhead()).await;
            Ok(())
        }
    }

    /// One generated message: when it starts, its endpoints, its size,
    /// its transport, and the size of the reply that follows it back
    /// (if any). Driven the way `call_traced` drives a request: the
    /// duplicate coin first, the detached second copy after arrival.
    type Msg = (u64, u32, u32, usize, bool, Option<usize>);
    /// One generated flip of the fabric's fault state: when, which
    /// kind, two nodes, a probability and a spike length.
    type Flip = (u64, u8, u32, u32, f64, u64);

    /// What a schedule leaves behind: per message the instant it
    /// finished and how (the detached duplicates apart), then the
    /// message / byte / dropped / delayed counters, the egress queues,
    /// the next draw of both RNG streams and the end of time.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        finished: Vec<(u64, Result<(), NetError>)>,
        duplicates: Vec<(u64, Result<(), NetError>)>,
        counters: [u64; 4],
        egress_busy_until: Vec<SimTime>,
        next_draws: (u64, u64),
        end: u64,
    }

    fn run_schedule(seed: u64, msgs: &[Msg], flips: &[Flip], oracle: bool) -> (Outcome, u64) {
        async fn deliver(
            f: &Fabric,
            oracle: bool,
            from: NodeId,
            to: NodeId,
            bytes: usize,
            transport: Transport,
        ) -> Result<(), NetError> {
            if oracle {
                f.deliver_oracle(from, to, bytes, transport).await
            } else {
                f.deliver(from, to, bytes, transport).await
            }
        }

        let mut sim = Sim::new(seed);
        let h = sim.handle();
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(2, 2),
            LatencyModel::new(NetworkGeneration::Dc2021),
        );
        let (finished, duplicates) = sim.block_on({
            let fabric = fabric.clone();
            let (msgs, flips) = (msgs.to_vec(), flips.to_vec());
            async move {
                for (at, kind, a, b, p, spike) in flips {
                    let (fabric, h2) = (fabric.clone(), h.clone());
                    let (a, b) = (NodeId(a), NodeId(b));
                    h.spawn_detached(async move {
                        h2.sleep_until(SimTime::from_nanos(at)).await;
                        let faults = |drop, duplicate, delay_spike| MessageFaults {
                            drop,
                            duplicate,
                            delay_spike,
                            spike: Duration::from_nanos(spike),
                        };
                        match kind {
                            0 => fabric.set_node_down(a, true),
                            1 => fabric.set_node_down(a, false),
                            2 => fabric.partition(&[a], &[b]),
                            3 => fabric.heal_partitions(),
                            4 => fabric.set_link_faults(a, b, faults(p, 0.0, 0.0)),
                            5 => fabric.set_link_faults(a, b, faults(0.0, p, 0.0)),
                            6 => fabric.set_link_faults(a, b, faults(0.0, 0.0, p)),
                            7 => fabric.set_message_faults(faults(p / 2.0, p / 2.0, p)),
                            _ => fabric.clear_message_faults(),
                        }
                    });
                }
                let duplicates = Rc::new(RefCell::new(Vec::new()));
                let mut joins = Vec::new();
                for (at, from, to, bytes, rdma, reply) in msgs {
                    let (fabric, h2) = (fabric.clone(), h.clone());
                    let duplicates = Rc::clone(&duplicates);
                    let (from, to) = (NodeId(from), NodeId(to));
                    let transport = if rdma {
                        Transport::Rdma
                    } else {
                        Transport::Tcp
                    };
                    joins.push(h.spawn(async move {
                        h2.sleep_until(SimTime::from_nanos(at)).await;
                        let faults = fabric.inner.faults_for(from, to);
                        let duplicate = faults.duplicate > 0.0
                            && fabric.inner.faults_rng.bool(faults.duplicate);
                        let mut out = deliver(&fabric, oracle, from, to, bytes, transport).await;
                        if out.is_ok() && duplicate {
                            let (fabric, h3) = (fabric.clone(), h2.clone());
                            h2.spawn_detached(async move {
                                let out =
                                    deliver(&fabric, oracle, from, to, bytes, transport).await;
                                duplicates.borrow_mut().push((h3.now().as_nanos(), out));
                            });
                        }
                        if let (Ok(()), Some(reply)) = (&out, reply) {
                            out = deliver(&fabric, oracle, to, from, reply, transport).await;
                        }
                        (h2.now().as_nanos(), out)
                    }));
                }
                let mut finished = Vec::new();
                for join in joins {
                    finished.push(join.await);
                }
                // Past any duplicate's spike and retransmission timeout.
                h.sleep(Duration::from_millis(20)).await;
                let duplicates = duplicates.take();
                (finished, duplicates)
            }
        });
        if !oracle {
            assert_eq!(fabric.hops_in_flight(), 0, "a slab slot leaked");
        }
        let inner = &fabric.inner;
        let outcome = Outcome {
            finished,
            duplicates,
            counters: [
                inner.messages.get(),
                inner.bytes.get(),
                inner.dropped.get(),
                inner.delayed.get(),
            ],
            egress_busy_until: inner.state.borrow().egress_busy_until.clone(),
            next_draws: (inner.faults_rng.u64(), inner.jitter_rng.u64()),
            end: sim.handle().now().as_nanos(),
        };
        (outcome, sim.poll_count())
    }

    proptest::proptest! {
        /// The state machine against the code it replaced: overlapping
        /// messages over every hop class and both transports, jitter
        /// on, faults armed per link and fabric-wide, nodes and
        /// partitions flipped mid-flight. Every message finishes at the
        /// same instant with the same result, every counter, egress
        /// queue and RNG stream ends in the same state, and no schedule
        /// costs more polls than it did.
        #[test]
        fn the_state_machine_delivers_exactly_what_the_sleeping_task_did(
            seed in proptest::prelude::any::<u64>(),
            msgs in proptest::collection::vec(
                (
                    0u64..400_000,
                    0u32..4,
                    0u32..4,
                    proptest::prop_oneof![
                        proptest::strategy::Just(0usize),
                        1usize..2_000,
                        50_000usize..400_000,
                    ],
                    proptest::prelude::any::<bool>(),
                    proptest::prop_oneof![
                        proptest::strategy::Just(None),
                        (0usize..100_000).prop_map(Some),
                    ],
                ),
                1..65,
            ),
            flips in proptest::collection::vec(
                (0u64..600_000, 0u8..9, 0u32..4, 0u32..4, 0.0f64..1.0, 0u64..300_000),
                0..10,
            ),
        ) {
            let (new, new_polls) = run_schedule(seed, &msgs, &flips, false);
            let (old, old_polls) = run_schedule(seed, &msgs, &flips, true);
            proptest::prop_assert_eq!(&new, &old);
            proptest::prop_assert!(new_polls <= old_polls, "{new_polls} > {old_polls}");
        }
    }

    /// The fault kinds of `pcsi_chaos::FaultPlan` that are the fabric's
    /// to inject, each flipped on and off under sixteen clients calling
    /// with a deadline short enough to abandon calls mid-hop: once the
    /// faults are healed and the stragglers have run out, no message
    /// holds a slab slot.
    #[test]
    fn no_hop_outlives_quiescence_under_any_fault_plan() {
        /// Turns a plan's fault on or off.
        type Toggle = fn(&Fabric, bool);
        let plans: [(&str, Toggle); 5] = [
            ("None", |_, _| {}),
            ("CrashRestart", |f, on| f.set_node_down(NodeId(2), on)),
            ("PartitionHeal", |f, on| match on {
                true => f.partition(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]),
                false => f.heal_partitions(),
            }),
            ("MessageFaults", |f, on| match on {
                true => f.set_message_faults(MessageFaults {
                    drop: 0.1,
                    duplicate: 0.3,
                    delay_spike: 0.3,
                    spike: Duration::from_micros(400),
                }),
                false => f.clear_message_faults(),
            }),
            ("Drops", |f, on| match on {
                true => f.set_link_faults(
                    NodeId(0),
                    NodeId(2),
                    MessageFaults {
                        drop: 0.5,
                        ..MessageFaults::NONE
                    },
                ),
                false => f.clear_message_faults(),
            }),
        ];
        for (plan, flip) in plans {
            let mut sim = Sim::new(0xC0FFEE);
            let fabric = Fabric::new(
                sim.handle(),
                Topology::uniform(2, 2),
                LatencyModel::new(NetworkGeneration::Dc2021),
            );
            for node in 0..4 {
                fabric.bind(NodeId(node), "echo", echo_handler());
            }
            let h = sim.handle();
            let in_flight_mid_run = sim.block_on({
                let fabric = fabric.clone();
                async move {
                    let clients: Vec<_> = (0..16u32)
                        .map(|c| {
                            let fabric = fabric.clone();
                            h.spawn(async move {
                                for i in 0..24 {
                                    let to = NodeId((c + i) % 4);
                                    let payload = Bytes::from(vec![0u8; 64 << (i % 8)]);
                                    let within = Duration::from_micros(150 + 20 * u64::from(c));
                                    let _ =
                                        echo_within(&fabric, NodeId(c % 4), to, payload, within)
                                            .await;
                                }
                            })
                        })
                        .collect();
                    let mut seen = 0;
                    for round in 0..12 {
                        h.sleep(Duration::from_micros(333)).await;
                        flip(&fabric, round % 2 == 0);
                        seen = seen.max(fabric.hops_in_flight());
                    }
                    flip(&fabric, false);
                    for client in clients {
                        client.await;
                    }
                    h.sleep(Duration::from_millis(20)).await;
                    seen
                }
            });
            assert!(in_flight_mid_run > 0, "{plan}: nothing was in flight");
            assert_eq!(fabric.hops_in_flight(), 0, "{plan}");
        }
    }

    #[test]
    fn a_delivery_dropped_mid_hop_stops_at_its_next_stage_and_frees_its_slot() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        let h = sim.handle();
        sim.block_on({
            let fabric = fabric.clone();
            async move {
                let mut delivery =
                    Box::pin(fabric.deliver(NodeId(0), NodeId(2), 4096, Transport::Tcp));
                std::future::poll_fn(|cx| {
                    assert!(delivery.as_mut().poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
                assert_eq!(fabric.hops_in_flight(), 1);
                // In the sender's endpoint overhead.
                h.sleep(Duration::from_micros(1)).await;
                drop(delivery);
                h.sleep(Duration::from_millis(1)).await;
            }
        });
        assert_eq!(fabric.hops_in_flight(), 0);
        assert_eq!(fabric.message_count(), 1, "counted when it started");
        // It never reached the egress queue.
        let s = fabric.inner.state.borrow();
        assert_eq!(s.egress_busy_until[0], SimTime::ZERO);
    }

    #[test]
    fn dropping_the_sim_frees_a_fabric_with_deliveries_in_flight() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(2), "echo", echo_handler());
        let h = sim.handle();
        sim.block_on({
            let fabric = fabric.clone();
            async move {
                for to in 1..4 {
                    let fabric = fabric.clone();
                    h.spawn_detached(async move {
                        let _ = fabric
                            .transfer(NodeId(0), NodeId(to), 1 << 20, Transport::Tcp)
                            .await;
                    });
                }
                let racing = fabric.clone();
                h.spawn_detached(async move {
                    let (payload, within) = (Bytes::from_static(b"x"), Duration::from_millis(250));
                    let _ = echo_within(&racing, NodeId(1), NodeId(2), payload, within).await;
                });
                h.sleep(Duration::from_micros(7)).await;
            }
        });
        assert_eq!(fabric.hops_in_flight(), 4);
        // The wheel holds the fabric through four events and a
        // deadline's expiry, the task table through five futures.
        let alive = Rc::downgrade(&fabric.inner);
        drop(fabric);
        assert!(alive.upgrade().is_some());
        drop(sim);
        assert!(alive.upgrade().is_none());
    }

    #[test]
    fn rpc_roundtrip_echoes() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(2), "echo", echo_handler());
        let out = sim.block_on({
            let fabric = fabric.clone();
            async move {
                fabric
                    .call(
                        NodeId(0),
                        NodeId(2),
                        "echo",
                        Transport::Tcp,
                        Bytes::from_static(b"hi"),
                    )
                    .await
            }
        });
        assert_eq!(out.unwrap(), Bytes::from_static(b"hi"));
        assert_eq!(fabric.message_count(), 2);
    }

    #[test]
    fn unbind_removes_the_service() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(2), "ephemeral", echo_handler());
        // Unbinding an unknown name is a no-op.
        fabric.unbind(NodeId(3), "ephemeral");
        fabric.unbind(NodeId(2), "never-bound");
        let (first, second) = sim.block_on({
            let fabric = fabric.clone();
            async move {
                let first = fabric
                    .call(
                        NodeId(0),
                        NodeId(2),
                        "ephemeral",
                        Transport::Tcp,
                        Bytes::from_static(b"a"),
                    )
                    .await;
                fabric.unbind(NodeId(2), "ephemeral");
                let second = fabric
                    .call(
                        NodeId(0),
                        NodeId(2),
                        "ephemeral",
                        Transport::Tcp,
                        Bytes::from_static(b"b"),
                    )
                    .await;
                (first, second)
            }
        });
        assert_eq!(first.unwrap(), Bytes::from_static(b"a"));
        assert_eq!(second.unwrap_err(), NetError::NoService("ephemeral".into()));
    }

    #[test]
    fn cross_rack_rpc_costs_about_one_rtt_plus_sockets() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(2), "echo", echo_handler());
        let h = sim.handle();
        let elapsed = sim.block_on({
            let fabric = fabric.clone();
            async move {
                let t0 = h.now();
                fabric
                    .call(
                        NodeId(0),
                        NodeId(2),
                        "echo",
                        Transport::Tcp,
                        Bytes::from_static(b"x"),
                    )
                    .await
                    .unwrap();
                h.now() - t0
            }
        });
        // RTT 200us + 4 socket overheads (2 per direction) = 220us.
        let expect = Duration::from_micros(220);
        let err =
            (elapsed.as_nanos() as f64 - expect.as_nanos() as f64).abs() / expect.as_nanos() as f64;
        assert!(err < 0.02, "elapsed {elapsed:?} expected ~{expect:?}");
    }

    #[test]
    fn rdma_is_cheaper_than_tcp() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::FastEmerging);
        fabric.bind(NodeId(2), "echo", echo_handler());
        let h = sim.handle();
        let (tcp, rdma) = sim.block_on({
            let fabric = fabric.clone();
            async move {
                let t0 = h.now();
                fabric
                    .call(NodeId(0), NodeId(2), "echo", Transport::Tcp, Bytes::new())
                    .await
                    .unwrap();
                let tcp = h.now() - t0;
                let t1 = h.now();
                fabric
                    .call(NodeId(0), NodeId(2), "echo", Transport::Rdma, Bytes::new())
                    .await
                    .unwrap();
                (tcp, h.now() - t1)
            }
        });
        // On the fast network the socket overhead dominates: TCP pays
        // 4 x 5us = 20us, RDMA pays ~1.2us + RTT.
        assert!(tcp > rdma * 5, "tcp {tcp:?} rdma {rdma:?}");
    }

    #[test]
    fn local_delivery_skips_the_network() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2005);
        fabric.bind(NodeId(0), "echo", echo_handler());
        let h = sim.handle();
        let elapsed = sim.block_on({
            let fabric = fabric.clone();
            async move {
                let t0 = h.now();
                fabric
                    .call(
                        NodeId(0),
                        NodeId(0),
                        "echo",
                        Transport::Tcp,
                        Bytes::from_static(b"x"),
                    )
                    .await
                    .unwrap();
                h.now() - t0
            }
        });
        // Two endpoint overheads only, far below the 1ms RTT.
        assert!(elapsed < Duration::from_micros(15), "elapsed {elapsed:?}");
    }

    #[test]
    fn egress_queue_serializes_bulk_transfers() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        let h = sim.handle();
        // Two 10 MB transfers from the same node must take ~2x one.
        let mb = 10 * 1024 * 1024;
        let (one, two) = sim.block_on({
            let fabric = fabric.clone();
            let h = h.clone();
            async move {
                let t0 = h.now();
                fabric
                    .transfer(NodeId(0), NodeId(2), mb, Transport::Rdma)
                    .await
                    .unwrap();
                let one = h.now() - t0;
                let t1 = h.now();
                let f2 = fabric.clone();
                let a = h.spawn({
                    let f = f2.clone();
                    async move { f.transfer(NodeId(0), NodeId(2), mb, Transport::Rdma).await }
                });
                let b = h.spawn({
                    let f = f2.clone();
                    async move { f.transfer(NodeId(0), NodeId(3), mb, Transport::Rdma).await }
                });
                a.await.unwrap();
                b.await.unwrap();
                (one, h.now() - t1)
            }
        });
        let ratio = two.as_secs_f64() / one.as_secs_f64();
        assert!((1.8..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn downed_node_unreachable_until_recovery() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(1), "echo", echo_handler());
        let out = sim.block_on({
            let fabric = fabric.clone();
            async move {
                fabric.set_node_down(NodeId(1), true);
                let err = fabric
                    .call(NodeId(0), NodeId(1), "echo", Transport::Tcp, Bytes::new())
                    .await
                    .unwrap_err();
                fabric.set_node_down(NodeId(1), false);
                let ok = fabric
                    .call(NodeId(0), NodeId(1), "echo", Transport::Tcp, Bytes::new())
                    .await;
                (err, ok.is_ok())
            }
        });
        assert_eq!(out.0, NetError::NodeDown(NodeId(1)));
        assert!(out.1);
    }

    #[test]
    fn partition_blocks_both_directions_and_heals() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(0), "echo", echo_handler());
        fabric.bind(NodeId(3), "echo", echo_handler());
        let results = sim.block_on({
            let fabric = fabric.clone();
            async move {
                fabric.partition(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
                let a = fabric
                    .call(NodeId(0), NodeId(3), "echo", Transport::Tcp, Bytes::new())
                    .await;
                let b = fabric
                    .call(NodeId(3), NodeId(0), "echo", Transport::Tcp, Bytes::new())
                    .await;
                // Same side still works.
                let c = fabric
                    .call(NodeId(1), NodeId(0), "echo", Transport::Tcp, Bytes::new())
                    .await;
                fabric.heal_partitions();
                let d = fabric
                    .call(NodeId(0), NodeId(3), "echo", Transport::Tcp, Bytes::new())
                    .await;
                (a.is_err(), b.is_err(), c.is_ok(), d.is_ok())
            }
        });
        assert_eq!(results, (true, true, true, true));
    }

    #[test]
    fn certain_drop_surfaces_after_the_retransmit_timeout() {
        let mut sim = Sim::new(7);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(2), "echo", echo_handler());
        let h = sim.handle();
        let (err, elapsed) = sim.block_on({
            let fabric = fabric.clone();
            async move {
                fabric.set_message_faults(MessageFaults {
                    drop: 1.0,
                    ..MessageFaults::NONE
                });
                let t0 = h.now();
                let err = fabric
                    .call(NodeId(0), NodeId(2), "echo", Transport::Tcp, Bytes::new())
                    .await
                    .unwrap_err();
                (err, h.now() - t0)
            }
        });
        assert_eq!(err, NetError::Dropped(NodeId(0), NodeId(2)));
        assert!(elapsed >= RETRANSMIT_TIMEOUT, "elapsed {elapsed:?}");
        assert_eq!(fabric.messages_dropped(), 1);
    }

    #[test]
    fn certain_duplicate_executes_the_handler_twice() {
        let mut sim = Sim::new(7);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        let hits = Rc::new(std::cell::Cell::new(0u32));
        fabric.bind(NodeId(2), "count", {
            let hits = hits.clone();
            Rc::new(move |payload, _ctx| {
                let hits = hits.clone();
                Box::pin(async move {
                    hits.set(hits.get() + 1);
                    Ok(payload)
                })
            })
        });
        let h = sim.handle();
        sim.block_on({
            let fabric = fabric.clone();
            let h = h.clone();
            async move {
                fabric.set_message_faults(MessageFaults {
                    duplicate: 1.0,
                    ..MessageFaults::NONE
                });
                fabric
                    .call(NodeId(0), NodeId(2), "count", Transport::Tcp, Bytes::new())
                    .await
                    .unwrap();
                // Let the detached duplicate finish its delivery.
                h.sleep(Duration::from_millis(5)).await;
            }
        });
        assert_eq!(hits.get(), 2);
        assert_eq!(fabric.messages_duplicated(), 1);
    }

    #[test]
    fn delay_spike_slows_the_message_down() {
        let mut sim = Sim::new(7);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(2), "echo", echo_handler());
        let h = sim.handle();
        let (clean, spiked) = sim.block_on({
            let fabric = fabric.clone();
            async move {
                let t0 = h.now();
                fabric
                    .call(NodeId(0), NodeId(2), "echo", Transport::Tcp, Bytes::new())
                    .await
                    .unwrap();
                let clean = h.now() - t0;
                fabric.set_message_faults(MessageFaults {
                    delay_spike: 1.0,
                    spike: Duration::from_millis(1),
                    ..MessageFaults::NONE
                });
                let t1 = h.now();
                fabric
                    .call(NodeId(0), NodeId(2), "echo", Transport::Tcp, Bytes::new())
                    .await
                    .unwrap();
                (clean, h.now() - t1)
            }
        });
        // Both legs spike: at least 2 ms of extra latency.
        assert!(
            spiked >= clean + Duration::from_millis(2),
            "clean {clean:?} spiked {spiked:?}"
        );
        assert_eq!(fabric.messages_delayed(), 2);
    }

    #[test]
    fn per_link_faults_override_the_default_and_clear_restores() {
        let mut sim = Sim::new(7);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(2), "echo", echo_handler());
        fabric.bind(NodeId(3), "echo", echo_handler());
        let results = sim.block_on({
            let fabric = fabric.clone();
            async move {
                // Default drops everything, but link 0<->3 is clean.
                fabric.set_message_faults(MessageFaults {
                    drop: 1.0,
                    ..MessageFaults::NONE
                });
                fabric.set_link_faults(NodeId(0), NodeId(3), MessageFaults::NONE);
                let lossy = fabric
                    .call(NodeId(0), NodeId(2), "echo", Transport::Tcp, Bytes::new())
                    .await;
                let clean = fabric
                    .call(NodeId(0), NodeId(3), "echo", Transport::Tcp, Bytes::new())
                    .await;
                fabric.clear_message_faults();
                let healed = fabric
                    .call(NodeId(0), NodeId(2), "echo", Transport::Tcp, Bytes::new())
                    .await;
                (lossy.is_err(), clean.is_ok(), healed.is_ok())
            }
        });
        assert_eq!(results, (true, true, true));
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = Sim::new(seed);
            let fabric = build(&sim, NetworkGeneration::Dc2021);
            fabric.bind(NodeId(2), "echo", echo_handler());
            let h = sim.handle();
            let outcomes = sim.block_on({
                let fabric = fabric.clone();
                async move {
                    fabric.set_message_faults(MessageFaults {
                        drop: 0.3,
                        duplicate: 0.2,
                        delay_spike: 0.3,
                        spike: Duration::from_micros(300),
                    });
                    let mut outcomes = Vec::new();
                    for _ in 0..40 {
                        let r = fabric
                            .call(NodeId(0), NodeId(2), "echo", Transport::Tcp, Bytes::new())
                            .await;
                        outcomes.push(r.is_ok());
                    }
                    h.sleep(Duration::from_millis(5)).await;
                    outcomes
                }
            });
            (
                outcomes,
                fabric.messages_dropped(),
                fabric.messages_duplicated(),
                fabric.messages_delayed(),
                sim.poll_count(),
            )
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b);
        assert!(
            a.1 > 0 && a.2 > 0 && a.3 > 0,
            "faults actually fired: {a:?}"
        );
        let c = run(100);
        assert_ne!(a, c);
    }

    #[test]
    fn a_call_raced_against_a_deadline_times_out_or_passes_through() {
        let mut sim = Sim::new(3);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(2), "echo", echo_handler());
        let (fast, slow) = sim.block_on({
            let fabric = fabric.clone();
            async move {
                // A generous deadline: the call completes normally.
                let hi = Bytes::from_static(b"hi");
                let within = |d| echo_within(&fabric, NodeId(0), NodeId(2), hi.clone(), d);
                let fast = within(Duration::from_millis(10)).await;
                // A deadline shorter than one endpoint overhead: times out.
                let slow = within(Duration::from_nanos(100)).await;
                (fast, slow)
            }
        });
        assert_eq!(fast, Some(Ok(Bytes::from_static(b"hi"))));
        assert_eq!(slow, None);
    }

    #[test]
    fn missing_service_reported() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        let err = sim.block_on({
            let fabric = fabric.clone();
            async move {
                fabric
                    .call(NodeId(0), NodeId(1), "ghost", Transport::Tcp, Bytes::new())
                    .await
                    .unwrap_err()
            }
        });
        assert_eq!(err, NetError::NoService("ghost".into()));
    }
}
