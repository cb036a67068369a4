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
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_metrics::{Counter, Histogram, Metrics};
use pcsi_sim::executor::LocalBoxFuture;
use pcsi_sim::{SimHandle, SimTime};

use crate::latency::LatencyModel;
use crate::node::NodeId;
use crate::topology::Topology;

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
    /// The caller's deadline elapsed before the call completed. The call
    /// itself keeps running detached, so the outcome is ambiguous.
    DeadlineExceeded,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NodeDown(n) => write!(f, "node {n} is down"),
            NetError::Partitioned(a, b) => write!(f, "network partition between {a} and {b}"),
            NetError::NoService(s) => write!(f, "no service {s:?} bound"),
            NetError::Dropped(a, b) => write!(f, "message from {a} to {b} dropped"),
            NetError::Remote(m) => write!(f, "remote error: {m}"),
            NetError::DeadlineExceeded => f.write_str("call deadline exceeded"),
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
}

impl State {
    fn rearm_faults(&mut self) {
        self.faults_armed =
            self.default_faults.active() || self.link_faults.values().any(MessageFaults::active);
    }
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

    /// The fault probabilities in force on the link `from -> to`, or
    /// `NONE` when no fault is armed anywhere (the common case; no RNG
    /// draws happen then).
    fn faults_for(&self, from: NodeId, to: NodeId) -> MessageFaults {
        let s = self.inner.state.borrow();
        if !s.faults_armed || from == to {
            return MessageFaults::NONE;
        }
        s.link_faults
            .get(&ordered(from, to))
            .copied()
            .unwrap_or(s.default_faults)
    }

    fn check_reachable(&self, from: NodeId, to: NodeId) -> Result<(), NetError> {
        let s = self.inner.state.borrow();
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

    /// Delivers one message worth of delay: transport overhead, egress
    /// queueing, propagation. Local messages skip the NIC entirely.
    async fn deliver(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        transport: Transport,
    ) -> Result<(), NetError> {
        self.check_reachable(from, to)?;
        let h = &self.inner.handle;
        self.inner.messages.incr();
        self.inner.bytes.add(bytes as u64);
        if let Some(h) = self.inner.msg_bytes.get() {
            h.record(bytes as u64);
        }

        let hop = self.inner.topology.hop_class(from, to);
        if hop == crate::topology::HopClass::Local {
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
        let faults = self.faults_for(from, to);
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
        self.check_reachable(from, to)?;

        // Receiver-side endpoint overhead.
        h.sleep(transport.endpoint_overhead()).await;
        Ok(())
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
        let faults = self.faults_for(from, to);
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

    /// Like [`Fabric::call`], but gives up after `deadline` with
    /// [`NetError::DeadlineExceeded`].
    ///
    /// The abandoned call keeps running detached: the handler may still
    /// execute and its effects may still land. Callers must treat a
    /// deadline error as *ambiguous* and retry only idempotent requests.
    pub async fn call_with_deadline(
        &self,
        from: NodeId,
        to: NodeId,
        service: &str,
        transport: Transport,
        payload: Bytes,
        deadline: Duration,
    ) -> Result<Bytes, NetError> {
        let fabric = self.clone();
        let service = service.to_owned();
        let raced = pcsi_sim::util::deadline(&self.inner.handle, deadline, async move {
            fabric.call(from, to, &service, transport, payload).await
        })
        .await;
        raced.unwrap_or(Err(NetError::DeadlineExceeded))
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

    fn echo_handler() -> RpcHandler {
        Rc::new(|payload, _ctx| Box::pin(async move { Ok(payload) }))
    }

    fn build(sim: &Sim, generation: NetworkGeneration) -> Fabric {
        Fabric::new(
            sim.handle(),
            Topology::uniform(2, 2),
            LatencyModel::deterministic(generation),
        )
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
    fn call_with_deadline_times_out_and_passes_through() {
        let mut sim = Sim::new(3);
        let fabric = build(&sim, NetworkGeneration::Dc2021);
        fabric.bind(NodeId(2), "echo", echo_handler());
        let (fast, slow) = sim.block_on({
            let fabric = fabric.clone();
            async move {
                // A generous deadline: the call completes normally.
                let fast = fabric
                    .call_with_deadline(
                        NodeId(0),
                        NodeId(2),
                        "echo",
                        Transport::Tcp,
                        Bytes::from_static(b"hi"),
                        Duration::from_millis(10),
                    )
                    .await;
                // A deadline shorter than one endpoint overhead: times out.
                let slow = fabric
                    .call_with_deadline(
                        NodeId(0),
                        NodeId(2),
                        "echo",
                        Transport::Tcp,
                        Bytes::from_static(b"hi"),
                        Duration::from_nanos(100),
                    )
                    .await;
                (fast, slow)
            }
        });
        assert_eq!(fast.unwrap(), Bytes::from_static(b"hi"));
        assert_eq!(slow.unwrap_err(), NetError::DeadlineExceeded);
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
