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

/// A handler's answer: the reply's frame, or what builds it, and the
/// instant it leaves the server, where its hop starts. A bare frame
/// leaves at once.
pub struct Reply {
    frame: Frame,
    /// When the reply leaves; an instant already past means now.
    leaves: SimTime,
}

/// A reply's frame, built by the handler or at the leave instant.
enum Frame {
    Built(Bytes),
    Later(Box<dyn FnOnce() -> Bytes>),
}

impl Reply {
    /// A reply of `frame` that leaves at `leaves`: a server's work that
    /// changes no state, such as a read's media time, rides its hop.
    pub fn at(leaves: SimTime, frame: Bytes) -> Reply {
        let frame = Frame::Built(frame);
        Reply { frame, leaves }
    }

    /// A reply that leaves at `leaves`, its frame built by `build` then,
    /// in the event that starts its hop: a state change that waits on
    /// the server's work runs there, with no task woken for it. A call
    /// dropped before `leaves` drops `build` unrun.
    pub fn later(leaves: SimTime, build: impl FnOnce() -> Bytes + 'static) -> Reply {
        let frame = Frame::Later(Box::new(build));
        Reply { frame, leaves }
    }

    /// The frame, a deferred one built at its leave instant: how a reply
    /// no hop carries, a duplicate's, is run out.
    async fn settle(self, handle: &SimHandle) -> Bytes {
        match self.frame {
            Frame::Built(frame) => frame,
            Frame::Later(build) => {
                handle.sleep_until(self.leaves).await;
                build()
            }
        }
    }
}

impl From<Bytes> for Reply {
    fn from(frame: Bytes) -> Reply {
        Reply::at(SimTime::ZERO, frame)
    }
}

/// A handler's own future, polled for its [`Reply`] whatever its output
/// type: the box the fabric keeps holds that future and nothing else.
trait Answer {
    fn poll_reply(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<Reply, NetError>>;
}

impl<F, R> Answer for F
where
    F: Future<Output = Result<R, NetError>>,
    R: Into<Reply>,
{
    fn poll_reply(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<Reply, NetError>> {
        self.poll(cx).map_ok(Into::into)
    }
}

/// A pending handler future.
type Answering = Pin<Box<dyn Answer>>;

/// A handler bound to a `(node, service)` pair; calling it does not poll
/// its future yet.
type Handler = Rc<dyn Fn(Bytes, CallCtx) -> Answering>;

struct State {
    /// Handlers by node, then service name, so the per-call lookup is
    /// two borrowed-key probes — no `(NodeId, String)` tuple per RPC. A
    /// call carries the table's name to its arrival, so only a call to a
    /// name that is not bound allocates one.
    services: FxHashMap<NodeId, FxHashMap<Rc<str>, Handler>>,
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
    /// Messages in flight and calls being served, by slab slot: a slot
    /// is taken when a delivery is made and is the token of the
    /// events that move it. The slots on `free_hops` hold no call.
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
    leaves: SimTime,
}

/// What a message does next, once the wait before it is over.
#[derive(Clone, Copy)]
enum Stage {
    /// Reachability, the counters, the fault draws, once it leaves.
    Start,
    /// The sender's endpoint overhead.
    Send,
    /// The sender's NIC queue: serialize behind what is queued.
    Egress,
    /// The wire, with its jitter draw.
    Propagate,
    /// Reachability again, then the receiver's endpoint overhead.
    Receive,
    /// Delivered; a request is served.
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

/// One message in flight, or the call it belongs to.
struct Hop {
    msg: Message,
    /// What the pending event does.
    next: Stage,
    /// Who takes the outcome, from the first poll or the detach; `None`
    /// before either, and once the task has dropped the future (the
    /// message then stops at its next stage).
    waiter: Option<Waiter>,
    /// Set on arrival or failure, for the woken task or the continuation
    /// to take: the reply's frame, or an empty one for a message that is
    /// no call.
    outcome: Option<Result<Bytes, NetError>>,
    /// The RPC, when the message is one.
    call: Option<Call>,
}

impl Hop {
    /// The call's pending handler future, taken out of the slot.
    fn take_serving(&mut self) -> Option<Answering> {
        match self.call.take_if(|c| matches!(c, Call::Serving(_))) {
            Some(Call::Serving(serving)) => Some(serving),
            _ => None,
        }
    }
}

/// Who takes a hop's outcome.
enum Waiter {
    /// The task awaiting the delivery, woken once the outcome is set.
    Task(Waker),
    /// A detached call's continuation, run in the event that sets it.
    Detached(Box<dyn FnOnce(Result<Bytes, NetError>)>),
}

/// An RPC request as it leaves the caller.
struct Request {
    /// The service it names, looked up when it arrives.
    service: Rc<str>,
    payload: Bytes,
    ctx: CallCtx,
    /// Whether the duplicate coin, flipped at its start, said run twice.
    duplicate: bool,
}

/// Where an RPC is: its request on the way, its handler pending, or its
/// reply on the way back.
enum Call {
    Request(Request),
    Serving(Answering),
    Reply(Frame),
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
    /// Wakes no task: a detached call's handler is first polled with it.
    idle: Waker,
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
                idle: pcsi_sim::executor::noop_waker(),
            }),
        };
        // A bound handler owns its service, which owns a clone of this
        // fabric, and so may a pending handler's future, a deferred
        // reply's builder or a detached call's continuation in the slab:
        // a cycle no reference count unwinds. The end of the simulation
        // empties the table and takes the slab's calls and waiters,
        // leaving their slots for the calls' own drops, and drops both
        // outside the borrow because a destructor may unbind.
        let weak = Rc::downgrade(&fabric.inner);
        fabric.inner.handle.on_sim_drop(move || {
            if let Some(inner) = weak.upgrade() {
                let mut s = inner.state.borrow_mut();
                let services = std::mem::take(&mut s.services);
                let hops = s.hops.iter_mut();
                let calls: Vec<_> = hops.map(|h| (h.call.take(), h.waiter.take())).collect();
                drop(s);
                drop((services, calls));
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
    /// binding. The handler answers a bare frame, which leaves at once,
    /// or a [`Reply`] naming the instant it leaves the server: its hop
    /// starts then, with no task woken to start it.
    pub fn bind<H, F, R>(&self, node: NodeId, service: &str, handler: Rc<H>)
    where
        H: Fn(Bytes, CallCtx) -> F + ?Sized + 'static,
        F: Future<Output = Result<R, NetError>> + 'static,
        R: Into<Reply>,
    {
        let handler: Handler =
            Rc::new(move |payload, ctx| -> Answering { Box::pin(handler(payload, ctx)) });
        let mut s = self.inner.state.borrow_mut();
        let table = s.services.entry(node).or_default();
        table.insert(Rc::from(service), handler);
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
    /// queueing, propagation — or the fault that ends it, once it
    /// `leaves`. Local messages skip the NIC entirely. The message, with
    /// the request a call sends, waits in a slab slot for the delivery's
    /// first poll to start it; the awaiting task is polled to start it
    /// and to collect its outcome, an empty frame for a message that is
    /// no call.
    fn deliver(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        transport: Transport,
        leaves: SimTime,
        request: Option<Request>,
    ) -> Delivery {
        let slot = self.inner.state.borrow_mut().park(Hop {
            msg: Message {
                from,
                to,
                bytes,
                transport,
                leaves,
            },
            next: Stage::Start,
            waiter: None,
            outcome: None,
            call: request.map(Call::Request),
        });
        Delivery {
            fabric: Rc::clone(&self.inner),
            slot: Some(slot),
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
        self.deliver(from, to, bytes, transport, start, None)
            .await?;
        Ok(self.inner.handle.now() - start)
    }

    /// Performs an RPC: request delivery, handler execution, response
    /// delivery from the instant the reply leaves the server. The request's
    /// arrival runs the handler, and a handler that answers at once starts
    /// the reply there too: the caller is polled to send the request and to
    /// collect the reply, and for a pending handler's own wakes.
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
    /// Not `async`: the request waits in the fabric from now, so the
    /// call's future holds its delivery and none of these arguments.
    pub fn call_traced(
        &self,
        from: NodeId,
        to: NodeId,
        service: &str,
        transport: Transport,
        payload: Bytes,
        trace: Option<pcsi_trace::TraceContext>,
    ) -> Delivery {
        let req_len = payload.len() + trace.map_or(0, |_| pcsi_trace::TraceContext::WIRE_LEN);
        let service = {
            let s = self.inner.state.borrow();
            let bound = s.services.get(&to).and_then(|t| t.get_key_value(service));
            bound.map_or_else(|| Rc::from(service), |(name, _)| Rc::clone(name))
        };

        let request = Request {
            service,
            payload,
            ctx: CallCtx { from, to, trace },
            duplicate: false,
        };
        let now = self.inner.handle.now();
        self.deliver(from, to, req_len, transport, now, Some(request))
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
            ..
        } = msg;
        loop {
            let now = self.handle.now();
            let (until, next) = match stage {
                Stage::Start if msg.leaves > now => (msg.leaves, Stage::Start),
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

    /// Moves the hop in `slot` on from its pending stage until it has to
    /// wait or its outcome is set; true once it is set. A request that
    /// arrives is served here, so its event is where the handler runs.
    fn step(self: &Rc<Self>, slot: usize) -> bool {
        let (mut msg, stage) = {
            let s = self.state.borrow();
            (s.hops[slot].msg, s.hops[slot].next)
        };
        if matches!(stage, Stage::Start) && msg.leaves <= self.handle.now() {
            self.leave(slot, &mut msg);
        }
        let arrived = match self.advance(msg, stage) {
            Step::Wait(until, next) => {
                self.state.borrow_mut().hops[slot].next = next;
                self.handle
                    .schedule(until, Rc::clone(self) as _, slot as u64);
                return false;
            }
            Step::Done(arrived) => arrived,
        };
        let mut s = self.state.borrow_mut();
        let hop = &mut s.hops[slot];
        let outcome = match (arrived, hop.call.take()) {
            (Ok(()), Some(Call::Request(request))) => {
                drop(s);
                return self.arrive(slot, msg, request);
            }
            (Ok(()), Some(Call::Reply(Frame::Built(frame)))) => Ok(frame),
            (Ok(()), _) => Ok(Bytes::new()),
            (Err(e), _) => Err(e),
        };
        hop.outcome = Some(outcome);
        true
    }

    /// The message in `slot` leaves. A request flips its duplicate coin
    /// first (at-least-once delivery: it is delivered and served twice,
    /// the second reply dropped), so the draw sequence does not depend on
    /// handler behavior. A reply's deferred frame is built, outside the
    /// state borrow, and its length taken before any counter is charged.
    fn leave(&self, slot: usize, msg: &mut Message) {
        let faults = self.faults_for(msg.from, msg.to);
        let mut s = self.state.borrow_mut();
        let call = &mut s.hops[slot].call;
        if let Some(Call::Request(request)) = call {
            request.duplicate = faults.duplicate > 0.0 && self.faults_rng.bool(faults.duplicate);
        }
        let Some(Call::Reply(Frame::Later(build))) =
            call.take_if(|c| matches!(c, Call::Reply(Frame::Later(_))))
        else {
            return;
        };
        drop(s);
        let frame = build();
        msg.bytes = frame.len();
        let mut s = self.state.borrow_mut();
        let hop = &mut s.hops[slot];
        (hop.msg.bytes, hop.call) = (msg.bytes, Some(Call::Reply(Frame::Built(frame))));
    }

    /// A request has arrived: the service it names is looked up now, its
    /// duplicate starts if the coin said so, and the handler is polled
    /// once with the caller's waker, before anything else is scheduled.
    fn arrive(self: &Rc<Self>, slot: usize, msg: Message, request: Request) -> bool {
        let (payload, ctx) = (request.payload, request.ctx);
        let found = match self.state.borrow().services.get(&msg.to) {
            Some(table) => table.get(&*request.service).cloned(),
            None => None,
        };
        let Some(handler) = found else {
            let e = NetError::NoService(request.service.to_string());
            self.state.borrow_mut().hops[slot].outcome = Some(Err(e));
            return true;
        };
        if request.duplicate {
            self.duplicated.incr();
            // The duplicate shares the request frame: `Bytes::clone` is
            // a refcount bump on the same backing buffer, and both
            // deliveries charge the full wire length (`msg.bytes`
            // includes trace-context bytes the payload alone lacks).
            let (inner, dup, dup_payload) = (Rc::clone(self), handler.clone(), payload.clone());
            self.handle.spawn_detached(async move {
                // The duplicate takes its own trip through the fabric
                // (and may itself be dropped or delayed) from the instant
                // the request left, before the handler re-executes; its
                // reply goes nowhere.
                let fabric = Fabric { inner };
                let (from, to, bytes) = (msg.from, msg.to, msg.bytes);
                let arrived = fabric.deliver(from, to, bytes, msg.transport, msg.leaves, None);
                if arrived.await.is_ok() {
                    let mut answer = dup(dup_payload, ctx);
                    let answered = std::future::poll_fn(|cx| answer.as_mut().poll_reply(cx)).await;
                    drop(answer);
                    if let Ok(reply) = answered {
                        reply.settle(&fabric.inner.handle).await;
                    }
                }
            });
        }
        let waker = match &self.state.borrow().hops[slot].waiter {
            Some(Waiter::Task(waker)) => waker.clone(),
            _ => self.idle.clone(),
        };
        let serving = handler(payload, ctx);
        self.serve(slot, serving, &mut Context::from_waker(&waker))
    }

    /// Polls the handler of the call in `slot`: parks its future there
    /// while it is pending (a detached call's goes to a task of its own),
    /// starts the reply at its leave instant once it answers. True once
    /// the call's outcome is set.
    fn serve(self: &Rc<Self>, slot: usize, mut serving: Answering, cx: &mut Context<'_>) -> bool {
        let Poll::Ready(answer) = serving.as_mut().poll_reply(cx) else {
            self.state.borrow_mut().hops[slot].call = Some(Call::Serving(serving));
            self.drive(slot);
            return false;
        };
        // Outside the borrow: the finished future's destructor may call in.
        drop(serving);
        let mut s = self.state.borrow_mut();
        let hop = &mut s.hops[slot];
        match answer {
            Ok(Reply { frame, leaves }) => {
                // A deferred frame's length is known once it is built.
                let bytes = match &frame {
                    Frame::Built(frame) => frame.len(),
                    Frame::Later(_) => 0,
                };
                let m = &mut hop.msg;
                (m.from, m.to, m.bytes, m.leaves) = (m.to, m.from, bytes, leaves);
                hop.next = Stage::Start;
                hop.call = Some(Call::Reply(frame));
                drop(s);
                self.step(slot)
            }
            Err(e) => {
                hop.outcome = Some(Err(e));
                true
            }
        }
    }

    /// A detached call whose handler is pending, if the call in `slot` is
    /// one, is awaited by a task of its own: it polls the handler to its
    /// end and hands the continuation the outcome.
    fn drive(self: &Rc<Self>, slot: usize) {
        let mut s = self.state.borrow_mut();
        let hop = &mut s.hops[slot];
        let pending = matches!(hop.call, Some(Call::Serving(_)));
        let detached = |w: &mut Waiter| pending && matches!(w, Waiter::Detached(_));
        let Some(Waiter::Detached(then)) = hop.waiter.take_if(detached) else {
            return;
        };
        hop.waiter = Some(Waiter::Task(self.idle.clone()));
        drop(s);
        let call = Delivery {
            fabric: Rc::clone(self),
            slot: Some(slot),
        };
        self.handle.spawn_detached(async move { then(call.await) });
    }

    /// The hop in `slot` has its outcome: its task is woken to collect it,
    /// or the slot is freed and a detached call's continuation takes it.
    fn settle(&self, slot: usize) {
        let mut s = self.state.borrow_mut();
        match s.hops[slot].waiter.take() {
            Some(Waiter::Task(waker)) => {
                drop(s);
                waker.wake();
            }
            Some(Waiter::Detached(then)) => {
                let outcome = s.hops[slot].outcome.take();
                s.free_hops.push(slot);
                drop(s);
                then(outcome.expect("a settled hop has its outcome"));
            }
            None => {}
        }
    }

    /// The awaiting task polls the message in `slot`: the first poll
    /// starts it, a later one keeps the task's waker and polls a pending
    /// handler. True once the outcome is set.
    fn resume(self: &Rc<Self>, slot: usize, cx: &mut Context<'_>) -> bool {
        let mut s = self.state.borrow_mut();
        let hop = &mut s.hops[slot];
        if hop.outcome.is_some() {
            return true;
        }
        // A message parked by `deliver` has no waiter until its first poll.
        let started = hop.waiter.is_some();
        if !matches!(&hop.waiter, Some(Waiter::Task(w)) if w.will_wake(cx.waker())) {
            hop.waiter = Some(Waiter::Task(cx.waker().clone()));
        }
        if !started {
            drop(s);
            return self.step(slot);
        }
        // Otherwise woken for something else the task awaits.
        let Some(serving) = hop.take_serving() else {
            return false;
        };
        drop(s);
        self.serve(slot, serving, cx)
    }
}

/// A message's timer: moves the hop in slot `token` on from the stage it
/// was waiting for, and settles it once the outcome is set.
impl TimerEvent for FabricInner {
    fn fire(self: Rc<Self>, token: u64) {
        let slot = token as usize;
        let mut s = self.state.borrow_mut();
        if s.hops[slot].waiter.is_none() {
            // The call was dropped: its request or reply goes no further,
            // and a deferred reply's builder is dropped unrun, outside the
            // borrow (its destructor may call in).
            let call = s.hops[slot].call.take();
            s.free_hops.push(slot);
            drop(s);
            drop(call);
            return;
        }
        drop(s);
        if self.step(slot) {
            self.settle(slot);
        }
    }
}

/// A message or call on its way ([`Fabric::call_traced`]), awaited or
/// detached. Lazy: it starts at the first poll, or at the detach.
pub struct Delivery {
    fabric: Rc<FabricInner>,
    /// The hop's slab slot until its outcome is collected.
    slot: Option<usize>,
}

impl Delivery {
    /// Gives the call up without cancelling it: it finishes in the
    /// fabric's timer events, and `then` takes the outcome in the event
    /// that sets it (now, if it is set). A handler pending now or at its
    /// arrival is polled to its end by a task of its own, which hands
    /// `then` the outcome.
    pub fn detach(mut self, then: impl FnOnce(Result<Bytes, NetError>) + 'static) {
        let (inner, then) = (&self.fabric, Waiter::Detached(Box::new(then)));
        let slot = self.slot.take().expect("a delivery is detached once");
        let mut s = inner.state.borrow_mut();
        let started = s.hops[slot].waiter.replace(then).is_some();
        let done = s.hops[slot].outcome.is_some();
        drop(s);
        if done || (!started && inner.step(slot)) {
            inner.settle(slot);
        } else {
            inner.drive(slot);
        }
    }
}

impl Future for Delivery {
    type Output = Result<Bytes, NetError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let slot = self.slot.expect("a delivery is not polled once done");
        if !self.fabric.resume(slot, cx) {
            return Poll::Pending;
        }
        self.slot = None;
        let mut s = self.fabric.state.borrow_mut();
        s.free_hops.push(slot);
        let outcome = s.hops[slot].outcome.take();
        Poll::Ready(outcome.expect("a done hop has its outcome"))
    }
}

impl Drop for Delivery {
    fn drop(&mut self) {
        let Some(slot) = self.slot else { return };
        let mut s = self.fabric.state.borrow_mut();
        let hop = &mut s.hops[slot];
        let serving = hop.take_serving();
        if serving.is_none() && hop.outcome.is_none() && hop.waiter.is_some() {
            // The pending event finds no waiter and frees the slot.
            hop.waiter = None;
        } else {
            // Done, never started, or its handler pending (no event is
            // to come for it): the slot goes now.
            (hop.outcome, hop.call) = (None, None);
            s.free_hops.push(slot);
        }
        // Outside the borrow: the handler's destructor may call in.
        drop(s);
        drop(serving);
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

    /// Binds an echo as `service` on `node`, written as
    /// `benchmark/src/probes.rs` writes its own: a change to `bind`'s
    /// bounds that stops that expression compiling fails here first.
    fn bind_echo(fabric: &Fabric, node: NodeId, service: &str) {
        fabric.bind(
            node,
            service,
            Rc::new(|payload, _ctx| Box::pin(async move { Ok(payload) })),
        );
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

        /// The RPC this fabric made before a request's arrival served it:
        /// the caller, woken by the arrival, looked the service up, ran
        /// the handler in its own poll and sent the reply. The oracle the
        /// call is held to.
        async fn call_oracle(
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
            let faults = self.inner.faults_for(from, to);
            let duplicate = faults.duplicate > 0.0 && self.inner.faults_rng.bool(faults.duplicate);
            let ctx = CallCtx { from, to, trace };

            let now = self.inner.handle.now();
            self.deliver(from, to, req_len, transport, now, None)
                .await?;

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
                let dup_payload = payload.clone();
                let dup_handler = handler.clone();
                self.inner.handle.spawn_detached(async move {
                    let arrived = fabric
                        .deliver(from, to, req_len, transport, now, None)
                        .await;
                    if arrived.is_ok() {
                        let mut answer = dup_handler(dup_payload, ctx);
                        let answered = std::future::poll_fn(|cx| answer.as_mut().poll_reply(cx));
                        if let Ok(reply) = answered.await {
                            reply.settle(&fabric.inner.handle).await;
                        }
                    }
                });
            }

            let mut answer = handler(payload, ctx);
            let reply = std::future::poll_fn(|cx| answer.as_mut().poll_reply(cx)).await?;
            let leaves = reply.leaves;
            let frame = reply.settle(&self.inner.handle).await;
            let len = frame.len();
            self.deliver(to, from, len, transport, leaves, None).await?;
            Ok(frame)
        }
    }

    /// One generated message: when it starts, its endpoints, its size,
    /// its transport, and the size and service time (ns) of the reply
    /// that follows it back (if any). Driven the way `call_traced` drives
    /// a request: the duplicate coin first, the detached second copy
    /// after arrival, the reply leaving once its service time is over.
    type Msg = (u64, u32, u32, usize, bool, Option<(usize, u64)>);
    /// One generated flip of the fabric's fault state: when, which
    /// kind, two nodes, a probability and a spike length.
    type Flip = (u64, u8, u32, u32, f64, u64);

    /// What a schedule leaves behind: per message the instant it
    /// finished and how (the detached duplicates apart), and the state
    /// the fabric ends in.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        finished: Vec<(u64, Result<(), NetError>)>,
        duplicates: Vec<(u64, Result<(), NetError>)>,
        ends: Ends,
    }

    /// The message / byte / dropped / delayed / duplicated counters, the
    /// egress queues, the next draw of both RNG streams and the end of
    /// time.
    #[derive(Debug, PartialEq)]
    struct Ends {
        counters: [u64; 5],
        egress_busy_until: Vec<SimTime>,
        next_draws: (u64, u64),
        end: u64,
    }

    impl Ends {
        fn of(fabric: &Fabric) -> Ends {
            let inner = &fabric.inner;
            Ends {
                counters: [
                    inner.messages.get(),
                    inner.bytes.get(),
                    inner.dropped.get(),
                    inner.delayed.get(),
                    inner.duplicated.get(),
                ],
                egress_busy_until: inner.state.borrow().egress_busy_until.clone(),
                next_draws: (inner.faults_rng.u64(), inner.jitter_rng.u64()),
                end: inner.handle.now().as_nanos(),
            }
        }
    }

    /// Sets fault state at `at`, as generated: down, up, partition, heal,
    /// per-link drop / duplicate / spike, fabric-wide faults, or clear.
    fn flip_faults(fabric: &Fabric, (at, kind, a, b, p, spike): Flip) {
        let (fabric, h) = (fabric.clone(), fabric.handle().clone());
        let (a, b) = (NodeId(a), NodeId(b));
        h.clone().spawn_detached(async move {
            h.sleep_until(SimTime::from_nanos(at)).await;
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

    /// Runs a schedule on the state machine or on the oracle; returns
    /// what it left, its polls, and whether some reply waited out a
    /// service time.
    fn run_schedule(seed: u64, msgs: &[Msg], flips: &[Flip], oracle: bool) -> (Outcome, u64, bool) {
        /// The oracle is the handler that slept out its service time
        /// before its reply started.
        async fn deliver(
            f: &Fabric,
            oracle: bool,
            (from, to): (NodeId, NodeId),
            bytes: usize,
            transport: Transport,
            leaves: SimTime,
        ) -> Result<(), NetError> {
            if oracle {
                f.handle().sleep_until(leaves).await;
                f.deliver_oracle(from, to, bytes, transport).await
            } else {
                f.deliver(from, to, bytes, transport, leaves, None)
                    .await
                    .map(drop)
            }
        }

        let mut sim = Sim::new(seed);
        let h = sim.handle();
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(2, 2),
            LatencyModel::new(NetworkGeneration::Dc2021),
        );
        let waited = Rc::new(std::cell::Cell::new(false));
        let (finished, duplicates) = sim.block_on({
            let (fabric, waited) = (fabric.clone(), Rc::clone(&waited));
            let (msgs, flips) = (msgs.to_vec(), flips.to_vec());
            async move {
                for flip in flips {
                    flip_faults(&fabric, flip);
                }
                let duplicates = Rc::new(RefCell::new(Vec::new()));
                let mut joins = Vec::new();
                for (at, from, to, bytes, rdma, reply) in msgs {
                    let (fabric, h2) = (fabric.clone(), h.clone());
                    let (duplicates, waited) = (Rc::clone(&duplicates), Rc::clone(&waited));
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
                        let now = h2.now();
                        let mut out =
                            deliver(&fabric, oracle, (from, to), bytes, transport, now).await;
                        if out.is_ok() && duplicate {
                            let (fabric, h3) = (fabric.clone(), h2.clone());
                            h2.spawn_detached(async move {
                                let out =
                                    deliver(&fabric, oracle, (from, to), bytes, transport, now)
                                        .await;
                                duplicates.borrow_mut().push((h3.now().as_nanos(), out));
                            });
                        }
                        if let (Ok(()), Some((reply, service))) = (&out, reply) {
                            waited.set(waited.get() || service > 0);
                            let leaves = h2.now() + Duration::from_nanos(service);
                            out = deliver(&fabric, oracle, (to, from), reply, transport, leaves)
                                .await;
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
        let ends = Ends::of(&fabric);
        let outcome = Outcome {
            finished,
            duplicates,
            ends,
        };
        (outcome, sim.poll_count(), waited.get())
    }

    proptest::proptest! {
        /// The state machine against the code it replaced: overlapping
        /// messages over every hop class and both transports, jitter
        /// on, faults armed per link and fabric-wide, nodes and
        /// partitions flipped mid-flight, replies leaving after a service
        /// time. Every message finishes at the same instant with the same
        /// result, every counter, egress queue and RNG stream ends in the
        /// same state, no schedule costs more polls than it did, and one
        /// where a reply waited costs fewer.
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
                        (0usize..100_000, 0u64..50_000).prop_map(Some),
                    ],
                ),
                1..65,
            ),
            flips in proptest::collection::vec(
                (0u64..600_000, 0u8..9, 0u32..4, 0u32..4, 0.0f64..1.0, 0u64..300_000),
                0..10,
            ),
        ) {
            let (new, new_polls, waited) = run_schedule(seed, &msgs, &flips, false);
            let (old, old_polls, _) = run_schedule(seed, &msgs, &flips, true);
            proptest::prop_assert_eq!(&new, &old);
            proptest::prop_assert!(new_polls <= old_polls, "{new_polls} > {old_polls}");
            proptest::prop_assert!(!waited || new_polls < old_polls, "a reply waited: {new_polls}");
        }
    }

    /// One generated call: when, its endpoints, its request size, its
    /// transport, and the service shape it names with its reply's size
    /// and service time (ns).
    type CallSpec = (u64, u32, u32, usize, bool, (u8, usize, u64));
    /// One handler run: when, on which node, which shape and binding,
    /// and its request's size.
    type Run = (u64, u32, u8, u32, usize);
    /// The service names of the four handler shapes: answers at once,
    /// names its leave instant, sleeps its service time out, builds its
    /// frame at its leave instant.
    const SHAPES: [&str; 4] = ["now", "timed", "sleepy", "later"];

    /// Binds shape `shape` as binding `version` on `node`. The handler
    /// logs its run and reads the reply's size and service time from the
    /// request's first 16 bytes; a deferred frame logs its build too.
    fn bind_shape(
        fabric: &Fabric,
        node: NodeId,
        shape: u8,
        version: u32,
        log: &Rc<RefCell<Vec<Run>>>,
    ) {
        let (h, log) = (fabric.handle().clone(), Rc::clone(log));
        let note = move |h: &SimHandle, len: usize| {
            let entry = (h.now().as_nanos(), node.0, shape, version, len);
            log.borrow_mut().push(entry);
        };
        let run = {
            let note = note.clone();
            move |payload: &Bytes| {
                note(&h, payload.len());
                let word = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().unwrap());
                let frame = Bytes::from(vec![0u8; word(0) as usize]);
                (frame, h.now() + Duration::from_nanos(word(8)), h.clone())
            }
        };
        let name = SHAPES[usize::from(shape)];
        match shape {
            0 => fabric.bind(
                node,
                name,
                Rc::new(move |p, _| {
                    let (frame, ..) = run(&p);
                    std::future::ready(Ok(frame))
                }),
            ),
            1 => fabric.bind(
                node,
                name,
                Rc::new(move |p, _| {
                    let (frame, leaves, _) = run(&p);
                    std::future::ready(Ok(Reply::at(leaves, frame)))
                }),
            ),
            2 => fabric.bind(
                node,
                name,
                Rc::new(move |p, _| {
                    let (frame, leaves, h) = run(&p);
                    async move {
                        h.sleep_until(leaves).await;
                        Ok(frame)
                    }
                }),
            ),
            _ => fabric.bind(
                node,
                name,
                Rc::new(move |p, _| {
                    let ((frame, leaves, h), note) = (run(&p), note.clone());
                    let build = move || {
                        note(&h, frame.len());
                        frame
                    };
                    std::future::ready(Ok(Reply::later(leaves, build)))
                }),
            ),
        }
    }

    /// What a call schedule leaves behind: per call the instant it
    /// finished and its reply's size or error, every handler run in
    /// order (duplicates included), and the state the fabric ends in.
    #[derive(Debug, PartialEq)]
    struct CallOutcome {
        finished: Vec<(u64, Result<usize, NetError>)>,
        runs: Vec<Run>,
        ends: Ends,
    }

    /// Runs a call schedule through `call` or through the oracle, with
    /// fault flips (kinds 0..=8, as `flip_faults`) and, for kinds 9 and
    /// 10, an unbind or a rebind of shape `b % 4` on node `a`; returns what
    /// it left and its polls.
    fn run_calls(
        seed: u64,
        calls: &[CallSpec],
        flips: &[Flip],
        oracle: bool,
    ) -> (CallOutcome, u64) {
        let mut sim = Sim::new(seed);
        let h = sim.handle();
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(2, 2),
            LatencyModel::new(NetworkGeneration::Dc2021),
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        for node in 0..4 {
            for shape in 0..4 {
                bind_shape(&fabric, NodeId(node), shape, 0, &log);
            }
        }
        for (version, &flip) in (1..).zip(flips) {
            let (at, kind, a, b, ..) = flip;
            let (fabric, h2, log) = (fabric.clone(), h.clone(), Rc::clone(&log));
            let (node, shape) = (NodeId(a), (b % 4) as u8);
            match kind {
                9 | 10 => h.spawn_detached(async move {
                    h2.sleep_until(SimTime::from_nanos(at)).await;
                    match kind {
                        9 => fabric.unbind(node, SHAPES[usize::from(shape)]),
                        _ => bind_shape(&fabric, node, shape, version, &log),
                    }
                }),
                _ => flip_faults(&fabric, flip),
            }
        }
        let finished = sim.block_on({
            let (fabric, calls) = (fabric.clone(), calls.to_vec());
            async move {
                let mut joins = Vec::new();
                for (at, from, to, bytes, rdma, (shape, reply, service)) in calls {
                    let (fabric, h2) = (fabric.clone(), h.clone());
                    let mut payload = vec![0u8; bytes.max(16)];
                    payload[..8].copy_from_slice(&(reply as u64).to_le_bytes());
                    payload[8..16].copy_from_slice(&service.to_le_bytes());
                    let transport = if rdma {
                        Transport::Rdma
                    } else {
                        Transport::Tcp
                    };
                    joins.push(h.spawn(async move {
                        h2.sleep_until(SimTime::from_nanos(at)).await;
                        let (from, to) = (NodeId(from), NodeId(to));
                        let (name, payload) = (SHAPES[usize::from(shape)], Bytes::from(payload));
                        let reply = if oracle {
                            fabric
                                .call_oracle(from, to, name, transport, payload, None)
                                .await
                        } else {
                            fabric.call(from, to, name, transport, payload).await
                        };
                        (h2.now().as_nanos(), reply.map(|frame| frame.len()))
                    }));
                }
                let mut finished = Vec::new();
                for join in joins {
                    finished.push(join.await);
                }
                // Past any duplicate's spike, service time and timeout.
                h.sleep(Duration::from_millis(20)).await;
                finished
            }
        });
        assert_eq!(fabric.hops_in_flight(), 0, "a slab slot leaked");
        let outcome = CallOutcome {
            finished,
            runs: log.take(),
            ends: Ends::of(&fabric),
        };
        (outcome, sim.poll_count())
    }

    proptest::proptest! {
        /// A call against the body it replaced, where the caller ran the
        /// handler after the request's arrival woke it: overlapping calls
        /// to handlers that answer at once, name a leave instant, sleep or
        /// build their frame at their leave instant, over every hop class
        /// and both transports, with faults, nodes and partitions flipped
        /// and services unbound and rebound mid-flight. Every call finishes
        /// at the same instant with the same reply, every handler runs and
        /// every deferred frame is built at the same instant in the same
        /// order, the fabric ends in the same state, no schedule costs
        /// more polls, and one where a handler ran costs fewer.
        #[test]
        fn a_call_served_in_its_arrival_event_does_what_the_woken_caller_did(
            seed in proptest::prelude::any::<u64>(),
            calls in proptest::collection::vec(
                (
                    0u64..400_000,
                    0u32..4,
                    0u32..4,
                    proptest::prop_oneof![
                        proptest::strategy::Just(16usize),
                        16usize..2_000,
                        50_000usize..400_000,
                    ],
                    proptest::prelude::any::<bool>(),
                    (0u8..4, 0usize..100_000, 0u64..50_000),
                ),
                1..49,
            ),
            flips in proptest::collection::vec(
                (0u64..600_000, 0u8..11, 0u32..4, 0u32..4, 0.0f64..1.0, 0u64..300_000),
                0..10,
            ),
        ) {
            let (new, new_polls) = run_calls(seed, &calls, &flips, false);
            let (old, old_polls) = run_calls(seed, &calls, &flips, true);
            proptest::prop_assert_eq!(&new, &old);
            proptest::prop_assert!(new_polls <= old_polls, "{new_polls} > {old_polls}");
            let served = !new.runs.is_empty();
            proptest::prop_assert!(!served || new_polls < old_polls, "a handler ran: {new_polls}");
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
                bind_echo(&fabric, NodeId(node), "echo");
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

    /// A reply that leaves after a service time starts its hop then:
    /// its server, set down during the wait, fails the call with
    /// `NodeDown` at the leave instant, as a handler that slept the wait
    /// out did.
    #[test]
    fn a_reply_is_checked_for_reachability_at_its_leave_instant() {
        const SERVICE: Duration = Duration::from_micros(30);
        /// Notes the request's arrival, sets the server down a third of
        /// the way into its service time, and returns when it ends.
        fn serve(fabric: &Fabric, arrived: &std::cell::Cell<SimTime>) -> SimTime {
            let h = fabric.handle().clone();
            arrived.set(h.now());
            let fabric = fabric.clone();
            h.spawn_detached(async move {
                fabric.handle().sleep(SERVICE / 3).await;
                fabric.set_node_down(NodeId(2), true);
            });
            h.now() + SERVICE
        }
        let run = |sleeps: bool| {
            let mut sim = Sim::new(3);
            let fabric = build(&sim, NetworkGeneration::Dc2021);
            let arrived = Rc::new(std::cell::Cell::new(SimTime::ZERO));
            let (f, a) = (fabric.clone(), Rc::clone(&arrived));
            if sleeps {
                let slept = Rc::new(move |payload, _| {
                    let leaves = serve(&f, &a);
                    let h = f.handle().clone();
                    async move {
                        h.sleep_until(leaves).await;
                        Ok(payload)
                    }
                });
                fabric.bind(NodeId(2), "serve", slept);
            } else {
                let booked = Rc::new(move |frame, _| {
                    let leaves = serve(&f, &a);
                    async move { Ok(Reply::at(leaves, frame)) }
                });
                fabric.bind(NodeId(2), "serve", booked);
            }
            let h = sim.handle();
            let result = sim.block_on(async move {
                let reply = fabric
                    .call(NodeId(0), NodeId(2), "serve", Transport::Tcp, Bytes::new())
                    .await;
                (reply, h.now())
            });
            (result, arrived.get())
        };
        let ((reply, at), arrived) = run(false);
        assert_eq!(reply, Err(NetError::NodeDown(NodeId(2))));
        assert_eq!(at, arrived + SERVICE);
        assert_eq!(run(true), ((reply, at), arrived));
    }

    /// The arrivals of a deferred-reply service's requests and the
    /// builds of its frames, in order.
    type Log = Rc<RefCell<Vec<(&'static str, SimTime)>>>;

    /// Binds `defer` on node 2: it notes each request's arrival and
    /// answers `Reply::later`, leaving `SERVICE` later with a frame that
    /// notes its build. With `sleeps` it sleeps the service time out and
    /// answers the frame instead.
    fn bind_deferred(fabric: &Fabric, sleeps: bool) -> Log {
        const SERVICE: Duration = Duration::from_micros(30);
        let log: Log = Rc::default();
        let (h, l) = (fabric.handle().clone(), Rc::clone(&log));
        let defer = Rc::new(move |_, _| {
            let (h, l) = (h.clone(), Rc::clone(&l));
            l.borrow_mut().push(("arrived", h.now()));
            let (leaves, clock) = (h.now() + SERVICE, h.clone());
            let build = move || {
                l.borrow_mut().push(("built", clock.now()));
                Bytes::from_static(b"built")
            };
            async move {
                if sleeps {
                    h.sleep_until(leaves).await;
                    return Ok(Reply::from(build()));
                }
                Ok(Reply::later(leaves, build))
            }
        });
        fabric.bind(NodeId(2), "defer", defer);
        log
    }

    /// A deferred reply's frame is built once, at its leave instant, in
    /// the event that starts its hop: the caller is polled to send and to
    /// collect, and once more when the handler sleeps to that instant.
    #[test]
    fn a_deferred_reply_is_built_once_at_its_leave_instant_without_a_wake() {
        let run = |sleeps: bool| {
            let mut sim = Sim::new(1);
            let fabric = build(&sim, NetworkGeneration::Dc2021);
            let log = bind_deferred(&fabric, sleeps);
            let reply = sim.block_on(async move {
                let call = fabric.call(NodeId(0), NodeId(2), "defer", Transport::Tcp, Bytes::new());
                call.await
            });
            assert_eq!(reply, Ok(Bytes::from_static(b"built")));
            (log.take(), sim.poll_count())
        };
        let ((log, polls), (slept, sleeping_polls)) = (run(false), run(true));
        let [("arrived", arrived), ("built", built)] = log[..] else {
            panic!("{log:?}");
        };
        assert_eq!(built, arrived + Duration::from_micros(30));
        assert_eq!(log, slept);
        assert_eq!((polls, sleeping_polls), (2, 3));
    }

    /// A duplicated request's copy answers its own deferred reply, which
    /// the detached copy runs out: each frame is built once, at its own
    /// copy's leave instant.
    #[test]
    fn a_duplicated_request_builds_each_copys_deferred_reply_at_its_own_instant() {
        let mut sim = Sim::new(7);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        let log = bind_deferred(&fabric, false);
        let certain = MessageFaults {
            duplicate: 1.0,
            ..MessageFaults::NONE
        };
        fabric.set_link_faults(NodeId(0), NodeId(2), certain);
        let h = sim.handle();
        let reply = sim.block_on({
            let fabric = fabric.clone();
            async move {
                let call = fabric.call(NodeId(0), NodeId(2), "defer", Transport::Tcp, Bytes::new());
                let reply = call.await;
                // Past the copy's arrival and its service time.
                h.sleep(Duration::from_millis(5)).await;
                reply
            }
        });
        assert_eq!(reply, Ok(Bytes::from_static(b"built")));
        assert_eq!(fabric.messages_duplicated(), 1);
        let log = log.take();
        let of = |kind, wait| -> Vec<_> {
            let entries = log.iter().filter(|e| e.0 == kind);
            entries.map(|e| e.1 + wait).collect()
        };
        let arrivals = of("arrived", Duration::ZERO);
        assert_eq!(arrivals.len(), 2, "{log:?}");
        assert_ne!(arrivals[0], arrivals[1], "the copy takes its own trip");
        assert_eq!(
            of("built", Duration::ZERO),
            of("arrived", Duration::from_micros(30))
        );
        assert_eq!(fabric.hops_in_flight(), 0);
    }

    /// A call dropped before its deferred reply leaves drops the builder
    /// unrun; the reply's event then frees the slot.
    #[test]
    fn a_call_dropped_before_its_reply_leaves_never_builds_the_frame() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        let log = bind_deferred(&fabric, false);
        let h = sim.handle();
        let in_flight = sim.block_on({
            let fabric = fabric.clone();
            async move {
                let call = fabric.call(NodeId(0), NodeId(2), "defer", Transport::Tcp, Bytes::new());
                let mut call = Box::pin(call);
                std::future::poll_fn(|cx| {
                    assert!(call.as_mut().poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
                // Past the request's ~110 µs, inside the service time.
                h.sleep(Duration::from_micros(120)).await;
                drop(call);
                let in_flight = fabric.hops_in_flight();
                h.sleep(Duration::from_micros(30)).await;
                in_flight
            }
        });
        assert_eq!(in_flight, 1, "the pending reply's event holds the slot");
        assert_eq!(fabric.hops_in_flight(), 0);
        let log = log.take();
        assert!(matches!(log[..], [("arrived", _)]), "{log:?}");
    }

    #[test]
    fn a_delivery_dropped_mid_hop_stops_at_its_next_stage_and_frees_its_slot() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        let h = sim.handle();
        sim.block_on({
            let fabric = fabric.clone();
            async move {
                let delivery =
                    fabric.deliver(NodeId(0), NodeId(2), 4096, Transport::Tcp, h.now(), None);
                let mut delivery = Box::pin(delivery);
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
        bind_echo(&fabric, NodeId(2), "echo");
        // A handler that holds the fabric and an `Rc` while it sleeps.
        let held = Rc::new(RefCell::new(std::rc::Weak::new()));
        let (f, w) = (fabric.clone(), Rc::clone(&held));
        let hold = Rc::new(move |payload, _| {
            let (fabric, owned) = (f.clone(), Rc::new(()));
            *w.borrow_mut() = Rc::downgrade(&owned);
            async move {
                fabric.handle().sleep(Duration::from_secs(1)).await;
                drop(owned);
                Ok(payload)
            }
        });
        fabric.bind(NodeId(0), "hold", hold);
        // A reply whose builder holds the fabric and an `Rc` until it leaves.
        let deferred = Rc::new(RefCell::new(std::rc::Weak::new()));
        let (f, w) = (fabric.clone(), Rc::clone(&deferred));
        let defer = Rc::new(move |_, _| {
            let (fabric, owned) = (f.clone(), Rc::new(()));
            *w.borrow_mut() = Rc::downgrade(&owned);
            let leaves = fabric.handle().now() + Duration::from_secs(1);
            let build = move || {
                drop((fabric, owned));
                Bytes::new()
            };
            std::future::ready(Ok(Reply::later(leaves, build)))
        });
        fabric.bind(NodeId(0), "defer", defer);
        // A detached call whose continuation holds the fabric and an `Rc`.
        let detached = Rc::new(RefCell::new(std::rc::Weak::new()));
        let h = sim.handle();
        sim.block_on({
            let (fabric, w) = (fabric.clone(), Rc::clone(&detached));
            async move {
                let (holding, owned) = (fabric.clone(), Rc::new(()));
                *w.borrow_mut() = Rc::downgrade(&owned);
                let call = fabric.call_traced(
                    NodeId(1),
                    NodeId(2),
                    "echo",
                    Transport::Tcp,
                    Bytes::new(),
                    None,
                );
                call.detach(move |_| drop((holding, owned)));
                for service in ["hold", "defer"] {
                    let holding = fabric.clone();
                    h.spawn_detached(async move {
                        let call = holding.call(
                            NodeId(0),
                            NodeId(0),
                            service,
                            Transport::Tcp,
                            Bytes::new(),
                        );
                        let _ = call.await;
                    });
                }
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
        // Three transfers, the echo's and the detached call's requests, the
        // pending `hold` and the deferred reply.
        assert_eq!(fabric.hops_in_flight(), 7);
        assert!(held.borrow().upgrade().is_some());
        assert!(deferred.borrow().upgrade().is_some());
        assert!(detached.borrow().upgrade().is_some());
        // The wheel holds the fabric through six events and a deadline's
        // expiry, the task table through seven futures, the slab through
        // the pending handler, the reply's builder and the continuation.
        let alive = Rc::downgrade(&fabric.inner);
        drop(fabric);
        assert!(alive.upgrade().is_some());
        drop(sim);
        assert!(alive.upgrade().is_none());
        assert!(held.borrow().upgrade().is_none());
        assert!(deferred.borrow().upgrade().is_none());
        assert!(detached.borrow().upgrade().is_none());
    }

    /// The service is looked up when the request arrives: one unbound
    /// while its request is in flight fails the call with `NoService`
    /// there, and one rebound reaches the new handler.
    #[test]
    fn a_service_unbound_or_rebound_in_flight_is_seen_at_arrival() {
        fn answer(fabric: &Fabric, text: &'static str) {
            let frame = Bytes::from_static(text.as_bytes());
            fabric.bind(
                NodeId(2),
                "svc",
                Rc::new(move |_, _| std::future::ready(Ok(frame.clone()))),
            );
        }
        let run = |flip: fn(&Fabric)| {
            let mut sim = Sim::new(1);
            let fabric = build(&sim, NetworkGeneration::Dc2021);
            answer(&fabric, "old");
            let h = sim.handle();
            sim.block_on(async move {
                let call = fabric.call(NodeId(0), NodeId(2), "svc", Transport::Tcp, Bytes::new());
                let mut call = Box::pin(call);
                std::future::poll_fn(|cx| {
                    assert!(call.as_mut().poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
                // Mid-way through the request's ~110 µs.
                h.sleep(Duration::from_micros(50)).await;
                flip(&fabric);
                call.await
            })
        };
        let unbound = run(|f| f.unbind(NodeId(2), "svc"));
        assert_eq!(unbound, Err(NetError::NoService("svc".into())));
        let rebound = run(|f| answer(f, "new"));
        assert_eq!(rebound, Ok(Bytes::from_static(b"new")));
    }

    /// A call dropped while its handler is pending drops the handler's
    /// future at that instant and frees its slot.
    #[test]
    fn a_call_dropped_while_its_handler_is_pending_drops_the_handler_at_once() {
        /// Notes the instant it is dropped.
        struct Guard(SimHandle, Rc<std::cell::Cell<Option<SimTime>>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.1.set(Some(self.0.now()));
            }
        }
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        let dropped = Rc::new(std::cell::Cell::new(None));
        let (h, d) = (sim.handle(), Rc::clone(&dropped));
        let slow = Rc::new(move |payload, _| {
            let (h, guard) = (h.clone(), Guard(h.clone(), Rc::clone(&d)));
            async move {
                h.sleep(Duration::from_millis(1)).await;
                drop(guard);
                Ok(payload)
            }
        });
        fabric.bind(NodeId(2), "slow", slow);
        let h = sim.handle();
        let (pending, at) = sim.block_on({
            let (fabric, dropped) = (fabric.clone(), Rc::clone(&dropped));
            async move {
                let call = fabric.call(NodeId(0), NodeId(2), "slow", Transport::Tcp, Bytes::new());
                let mut call = Box::pin(call);
                std::future::poll_fn(|cx| {
                    assert!(call.as_mut().poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
                // Past the request's arrival, inside the handler's sleep.
                h.sleep(Duration::from_micros(300)).await;
                let pending = (fabric.hops_in_flight(), dropped.get());
                drop(call);
                assert_eq!(fabric.hops_in_flight(), 0);
                (pending, h.now())
            }
        });
        assert_eq!(pending, (1, None));
        assert_eq!(dropped.get(), Some(at));
    }

    /// What calls came to, and when.
    type Outcomes = Vec<(SimTime, Result<Bytes, NetError>)>;

    /// What a detached call's `then` was handed.
    type Taken = Rc<RefCell<Outcomes>>;

    /// Arms a fresh fabric before a call.
    type Setup = fn(&Fabric);

    /// Appends each outcome it is handed to `taken`, with its instant.
    fn taker(h: &SimHandle, taken: &Taken) -> impl FnOnce(Result<Bytes, NetError>) + 'static {
        let (h, taken) = (h.clone(), Rc::clone(taken));
        move |out| taken.borrow_mut().push((h.now(), out))
    }

    /// A call of node 2's echo from node 0, on a fresh fabric `setup` has
    /// armed: awaited, detached at once, or never made (`None`). Returns
    /// what the call came to and when, and the run's task polls and
    /// messages, once the run is quiet.
    fn echo_run(detach: Option<bool>, setup: Setup) -> (Outcomes, u64, u64) {
        let mut sim = Sim::new(7);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        bind_echo(&fabric, NodeId(2), "echo");
        setup(&fabric);
        let taken = Taken::default();
        let h = sim.handle();
        sim.block_on({
            let (fabric, take) = (fabric.clone(), taker(&h, &taken));
            async move {
                let hi = Bytes::from_static(b"hi");
                let call =
                    fabric.call_traced(NodeId(0), NodeId(2), "echo", Transport::Tcp, hi, None);
                match detach {
                    Some(true) => call.detach(take),
                    Some(false) => take(call.await),
                    None => drop(call),
                }
                h.sleep(Duration::from_millis(10)).await;
            }
        });
        assert_eq!(fabric.hops_in_flight(), 0);
        (taken.take(), sim.poll_count(), fabric.message_count())
    }

    /// A detached call is polled by no task: its request and reply move
    /// in timer events, `then` takes the reply in the event that delivers
    /// it, and the two count as messages just as an awaited call's.
    #[test]
    fn a_detached_call_costs_no_poll_and_counts_its_messages_as_an_awaited_one() {
        let none = |_: &Fabric| {};
        let (awaited, _, awaited_msgs) = echo_run(Some(false), none);
        let (taken, polls, msgs) = echo_run(Some(true), none);
        let (_, no_call_polls, _) = echo_run(None, none);
        assert!(
            matches!(&taken[..], [(_, Ok(hi))] if hi[..] == b"hi"[..]),
            "{taken:?}"
        );
        assert_eq!(taken, awaited);
        assert_eq!((msgs, awaited_msgs), (2, 2));
        assert_eq!(polls, no_call_polls, "a poll after the detach");
    }

    /// A detached call that fails hands `then` the error once, in the
    /// event that sets it: its target set down mid-flight (the request's
    /// receive), or a certain drop (the sender's give-up).
    #[test]
    fn a_detached_calls_then_takes_an_error_once_in_its_event() {
        let plans: [(Setup, NetError); 2] = [
            (
                |f| {
                    let fabric = f.clone();
                    f.handle().spawn_detached(async move {
                        fabric.handle().sleep(Duration::from_micros(50)).await;
                        fabric.set_node_down(NodeId(2), true);
                    });
                },
                NetError::NodeDown(NodeId(2)),
            ),
            (
                |f| {
                    f.set_message_faults(MessageFaults {
                        drop: 1.0,
                        ..MessageFaults::NONE
                    })
                },
                NetError::Dropped(NodeId(0), NodeId(2)),
            ),
        ];
        for (setup, error) in plans {
            let (awaited, _, awaited_msgs) = echo_run(Some(false), setup);
            let (taken, polls, msgs) = echo_run(Some(true), setup);
            let (_, no_call_polls, _) = echo_run(None, setup);
            assert!(
                matches!(&taken[..], [(_, Err(e))] if *e == error),
                "{taken:?}"
            );
            assert_eq!((taken, msgs), (awaited, awaited_msgs));
            assert_eq!(polls, no_call_polls, "{error}: a poll after the detach");
        }
    }

    /// A detached call's handler that is pending, at its arrival or at
    /// the detach, is polled to its end by a task of its own: the reply
    /// comes when an awaited call's does.
    #[test]
    fn a_detached_calls_pending_handler_runs_to_its_end() {
        // `None` awaits the call; `Some(after)` detaches it `after` it
        // started, or before it did for zero.
        let run = |detach: Option<Duration>| {
            let mut sim = Sim::new(1);
            let fabric = build(&sim, NetworkGeneration::Dc2021);
            let h = sim.handle();
            let slow = Rc::new(move |payload, _| {
                let h = h.clone();
                async move {
                    h.sleep(Duration::from_millis(1)).await;
                    Ok(payload)
                }
            });
            fabric.bind(NodeId(2), "slow", slow);
            let taken = Taken::default();
            let h = sim.handle();
            sim.block_on({
                let (fabric, take) = (fabric.clone(), taker(&h, &taken));
                async move {
                    let hi = Bytes::from_static(b"hi");
                    let mut call =
                        fabric.call_traced(NodeId(0), NodeId(2), "slow", Transport::Tcp, hi, None);
                    match detach {
                        None => take((&mut call).await),
                        Some(after) if after.is_zero() => call.detach(take),
                        Some(after) => {
                            std::future::poll_fn(|cx| {
                                assert!(Pin::new(&mut call).poll(cx).is_pending());
                                Poll::Ready(())
                            })
                            .await;
                            h.sleep(after).await;
                            call.detach(take);
                        }
                    }
                    h.sleep(Duration::from_millis(10)).await;
                }
            });
            assert_eq!(fabric.hops_in_flight(), 0);
            taken.take()
        };
        let awaited = run(None);
        assert!(
            matches!(&awaited[..], [(_, Ok(hi))] if hi[..] == b"hi"[..]),
            "{awaited:?}"
        );
        assert_eq!(run(Some(Duration::ZERO)), awaited, "pending at its arrival");
        // Past the request's ~110 µs, inside the handler's sleep.
        let late = run(Some(Duration::from_micros(300)));
        assert_eq!(late, awaited, "pending at the detach");
    }

    /// The caller is polled to send the request and to collect the reply;
    /// the woken caller that ran the handler was polled once more.
    #[test]
    fn an_rpc_to_an_echo_handler_costs_its_caller_two_polls() {
        let polls = |oracle: bool| {
            let mut sim = Sim::new(1);
            let fabric = build(&sim, NetworkGeneration::Dc2021);
            bind_echo(&fabric, NodeId(2), "echo");
            let reply = sim.block_on(async move {
                let (from, to, hi) = (NodeId(0), NodeId(2), Bytes::from_static(b"hi"));
                match oracle {
                    true => (fabric.call_oracle(from, to, "echo", Transport::Tcp, hi, None)).await,
                    false => fabric.call(from, to, "echo", Transport::Tcp, hi).await,
                }
            });
            assert_eq!(reply, Ok(Bytes::from_static(b"hi")));
            sim.poll_count()
        };
        assert_eq!((polls(false), polls(true)), (2, 3));
    }

    #[test]
    fn rpc_roundtrip_echoes() {
        let mut sim = Sim::new(1);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        bind_echo(&fabric, NodeId(2), "echo");
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
        bind_echo(&fabric, NodeId(2), "ephemeral");
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
        bind_echo(&fabric, NodeId(2), "echo");
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
        bind_echo(&fabric, NodeId(2), "echo");
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
        bind_echo(&fabric, NodeId(0), "echo");
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
        bind_echo(&fabric, NodeId(1), "echo");
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
        bind_echo(&fabric, NodeId(0), "echo");
        bind_echo(&fabric, NodeId(3), "echo");
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
        bind_echo(&fabric, NodeId(2), "echo");
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
        bind_echo(&fabric, NodeId(2), "echo");
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
        bind_echo(&fabric, NodeId(2), "echo");
        bind_echo(&fabric, NodeId(3), "echo");
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
            bind_echo(&fabric, NodeId(2), "echo");
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
        bind_echo(&fabric, NodeId(2), "echo");
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
