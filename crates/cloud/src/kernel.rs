//! The PCSI kernel: `CloudInterface` over the simulated provider.
//!
//! The kernel owns the control plane — object metadata, capability
//! generations, FIFO queues, device handlers, the id allocator — and
//! delegates the data plane to the replicated store and the FaaS runtime.
//! Consistent with the paper's stateful-reference argument (§3.2),
//! **capability checks are local table lookups** (free), while **data
//! movement is always charged**: store RPCs, cache I/O time, invocation
//! dispatch hops. Contrast with the REST gateway in [`crate::rest`],
//! which re-authenticates cryptographically on every request.
//!
//! Clients are per-node: [`Kernel::client`] binds an origin node (and a
//! billing account), so every operation pays the network distance from
//! where it actually runs. Function bodies get a client bound to the node
//! the scheduler picked — data locality is visible to them too.

use fxhash::FxHashMap;
use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use pcsi_core::api::{CreateOptions, InvokeRequest, InvokeResponse};
use pcsi_core::id::IdAllocator;
use pcsi_core::{
    CloudInterface, Consistency, Mutability, ObjectId, ObjectKind, ObjectMeta, PcsiError,
    Reference, Rights,
};
use pcsi_faas::function::{DataPlane, FunctionImage};
use pcsi_faas::registry::Goal;
use pcsi_faas::runtime::Runtime;
use pcsi_fs::device::{DeviceHandler, DeviceOp, DeviceRegistry};
use pcsi_fs::{DirEntry, Directory, FifoQueue};
use pcsi_net::{Fabric, NodeId, Transport};
use pcsi_obs::Telemetry;
use pcsi_sim::executor::LocalBoxFuture;
use pcsi_sim::SimTime;
use pcsi_store::{gc, ReplicatedStore};
use pcsi_stream::{Publisher, Subscription};
use pcsi_trace::{AttrValue, TraceContext};

use crate::billing::Billing;

/// One row of the op table: what an operation is called, and what it
/// asks of the reference it is handed.
struct OpRow {
    /// The span every call opens.
    span: &'static str,
    /// The `op` label of `kernel.ops` / `kernel.op_ns` / `kernel.errors`.
    label: &'static str,
    right: Rights,
    /// [`ObjectKind::name`]s served; empty serves every kind.
    kinds: &'static [&'static str],
    /// What a refused kind is told the operation needs.
    expected: &'static str,
}

/// The fourteen kernel operations: `CloudInterface`'s thirteen and
/// `subscribe`. The discriminant indexes [`OPS`].
#[derive(Clone, Copy)]
enum Op {
    Create,
    Read,
    Write,
    Append,
    Pop,
    Stat,
    SetMutability,
    Delete,
    Link,
    Unlink,
    Lookup,
    List,
    Invoke,
    Subscribe,
}

impl Op {
    fn row(self) -> &'static OpRow {
        &OPS[self as usize]
    }
}

macro_rules! op_row {
    ($label:literal, $right:ident, [$($kind:literal),*], $expected:literal) => {
        OpRow {
            span: concat!("kernel.", $label),
            label: $label,
            right: Rights::$right,
            kinds: &[$($kind),*],
            expected: $expected,
        }
    };
}

/// The op table, in [`Op`]'s order: right × kind × op in one place
/// (DESIGN §4.11 prints it; a test holds the two together). `create`
/// takes no reference and `lookup` admits layer by layer as it resolves;
/// every other op is admitted against its row before its body runs.
static OPS: [OpRow; 14] = [
    op_row!("create", NONE, [], ""),
    op_row!(
        "read",
        READ,
        ["regular", "function", "directory", "device"],
        "byte object (use pop for FIFOs)"
    ),
    op_row!(
        "write",
        WRITE,
        ["regular", "function", "socket", "device"],
        "writable object"
    ),
    op_row!(
        "append",
        APPEND,
        ["regular", "function", "fifo", "socket"],
        "appendable object"
    ),
    op_row!("pop", READ, ["fifo", "socket"], "fifo or socket"),
    op_row!("stat", READ, [], ""),
    op_row!("set_mutability", MANAGE, [], ""),
    op_row!("delete", MANAGE, [], ""),
    op_row!("link", WRITE, ["directory"], "directory"),
    op_row!("unlink", WRITE, ["directory"], "directory"),
    op_row!("lookup", READ, ["directory"], "directory"),
    op_row!("list", READ, ["directory"], "directory"),
    op_row!("invoke", INVOKE, ["function"], "function"),
    op_row!("subscribe", READ, ["fifo", "socket"], "fifo or socket"),
];

/// `link`'s row for its second reference: publishing a name delegates
/// the target, whatever it is, so the caller must hold GRANT on it.
static LINK_TARGET: OpRow = op_row!("link", GRANT, [], "");

/// One entry of the object table. `queue` is `Some` exactly for FIFOs
/// and sockets ([`Kernel::insert`] is the only place entries are made).
#[derive(Clone)]
struct Object {
    meta: ObjectMeta,
    queue: Option<FifoQueue>,
}

struct Inner {
    fabric: Fabric,
    store: ReplicatedStore,
    runtime: Runtime,
    billing: Billing,
    alloc: RefCell<IdAllocator>,
    objects: RefCell<FxHashMap<ObjectId, Object>>,
    devices: RefCell<DeviceRegistry>,
    /// Cross-node push fan-out for subscribed FIFOs/sockets.
    publisher: Publisher,
    goal: Goal,
    /// The deployment's telemetry, the same handles the store and the
    /// FaaS runtime were built with. Every `CloudInterface` op opens a
    /// root span on the tracer (the context flows down through the store
    /// and the runtime) and records a per-op count and latency histogram
    /// in the registry; two control-plane transitions, a revocation and
    /// a GC sweep that collects something, append typed records to the
    /// journal (a delete appends none).
    telemetry: Telemetry,
    /// Resolved `kernel.ops`/`kernel.op_ns` series per [`Op`], filled on
    /// the op's first use, so the per-op hot path skips the registry's
    /// label-string lookup. The error counter is *not* cached: it is
    /// registered lazily on first error, keeping rendered snapshots
    /// identical to the uncached path.
    op_series: RefCell<[Option<(pcsi_metrics::Counter, pcsi_metrics::Histogram)>; 14]>,
}

/// FIFO/socket queue bound for objects created without an explicit
/// [`CreateOptions::fifo_capacity`]. Appends beyond it fail with a
/// retryable [`PcsiError::Overloaded`].
const DEFAULT_FIFO_CAPACITY: usize = 1024;

/// The provider kernel. Cheap to clone.
#[derive(Clone)]
pub struct Kernel {
    inner: Rc<Inner>,
}

impl Kernel {
    /// Assembles a kernel over deployed substrates. `telemetry` is the
    /// one the store and the runtime were built with, so one registry,
    /// one trace sink and one journal cover every layer; the kernel
    /// hands its registry on to the streaming publisher it deploys.
    pub fn new(
        fabric: Fabric,
        store: ReplicatedStore,
        runtime: Runtime,
        billing: Billing,
        goal: Goal,
        telemetry: &Telemetry,
    ) -> Self {
        let realm = fabric.handle().rng().seed() ^ 0x5043_5349; // "PCSI"
        let publisher = Publisher::deploy(fabric.clone(), telemetry.metrics.clone());
        Kernel {
            inner: Rc::new(Inner {
                fabric,
                store,
                runtime,
                billing,
                alloc: RefCell::new(IdAllocator::new(realm)),
                objects: RefCell::new(FxHashMap::default()),
                devices: RefCell::new(DeviceRegistry::default()),
                publisher,
                goal,
                telemetry: telemetry.clone(),
                op_series: RefCell::default(),
            }),
        }
    }

    /// A client whose operations originate from `node`, billed to
    /// `account`.
    pub fn client(&self, node: NodeId, account: &str) -> KernelClient {
        KernelClient {
            kernel: self.clone(),
            node,
            account: account.into(),
            ctx: None,
        }
    }

    /// Enters a new object in the table — with its queue, bounded by
    /// `capacity` (default [`DEFAULT_FIFO_CAPACITY`]), when it is a FIFO
    /// or socket: an unconsumed backlog turns into retryable
    /// backpressure, never unbounded memory — and mints the first
    /// reference to it.
    fn insert(&self, id: ObjectId, meta: ObjectMeta, capacity: Option<usize>) -> Reference {
        let queue = matches!(meta.kind, ObjectKind::Fifo | ObjectKind::Socket)
            .then(|| FifoQueue::bounded(capacity.unwrap_or(DEFAULT_FIFO_CAPACITY).max(1)));
        let object = Object { meta, queue };
        self.inner.objects.borrow_mut().insert(id, object);
        Reference::mint(id, Rights::ALL, 0)
    }

    /// Creates a provider-internal FIFO synchronously (no client, no
    /// fabric hop, no span): the control plane's path for namespace
    /// infrastructure like the `alerts` stream, which must exist before
    /// any workload task runs. The returned reference is a perfectly
    /// ordinary FIFO reference — clients `subscribe()` / `pop` it like
    /// any PR 9 stream.
    pub(crate) fn create_system_fifo(&self, capacity: usize) -> Reference {
        let id = self.inner.alloc.borrow_mut().alloc();
        let now = self.inner.fabric.handle().now().as_nanos();
        let meta = ObjectMeta::new(
            ObjectKind::Fifo,
            Mutability::AppendOnly,
            Consistency::Linearizable,
            now,
        );
        self.insert(id, meta, Some(capacity))
    }

    /// Appends to a provider-internal FIFO synchronously: [`Kernel::enqueue`]
    /// at the queue itself, and when the queue is full the *oldest* entry
    /// is evicted — a control-plane stream is a ring of recent history,
    /// not a backpressure source for the kernel itself.
    pub(crate) fn append_system_fifo(&self, r: &Reference, data: Bytes) -> Result<(), PcsiError> {
        let queue = self
            .inner
            .objects
            .borrow()
            .get(&r.id())
            .and_then(|o| o.queue.clone());
        let queue = queue.ok_or(PcsiError::NotFound(r.id()))?;
        self.enqueue(r.id(), &queue, data, true).map(drop)
    }

    /// One message arrives at the home of queue `id`. A subscribed queue
    /// is in push mode: the event fans out to subscribers instead of
    /// accumulating for poppers, and backpressure comes from the slowest
    /// credit window. Otherwise it queues; a full queue refuses it with a
    /// retryable [`PcsiError::Overloaded`], or with `evict_oldest` makes
    /// room. Returns the message's sequence number, one count per queue
    /// in both modes; a refused message takes none.
    fn enqueue(
        &self,
        id: ObjectId,
        queue: &FifoQueue,
        data: Bytes,
        evict_oldest: bool,
    ) -> Result<u64, PcsiError> {
        let seq = queue.next_seq();
        if self.inner.publisher.subscriber_count(id) > 0 {
            let ts = self.inner.fabric.handle().now().as_nanos();
            self.inner.publisher.publish(id, seq, data, ts)?;
            queue.count_streamed();
        } else if !evict_oldest {
            queue.push(data)?;
        } else if let Some(back) = queue.try_push(data)? {
            queue.try_pop();
            queue.try_push(back)?;
        }
        self.update_meta(id, |m| {
            m.size = queue.len() as u64;
            m.version += 1;
        });
        Ok(seq)
    }

    /// Registers a host body for a function image name.
    pub fn register_body(&self, name: &str, body: pcsi_faas::function::FunctionBody) {
        self.inner.runtime.register_body(name, body);
    }

    /// Registers a device class handler.
    pub fn register_device(&self, class: &str, handler: DeviceHandler) {
        self.inner.devices.borrow_mut().register(class, handler);
    }

    /// The streaming publisher (owner-side subscription state).
    pub fn publisher(&self) -> &Publisher {
        &self.inner.publisher
    }

    /// Number of live (metadata-tracked) objects.
    pub fn live_objects(&self) -> usize {
        self.inner.objects.borrow().len()
    }

    /// Revokes every outstanding reference to `id` by bumping its
    /// generation; the holder of a newer reference must be re-issued one
    /// through a namespace or delegation.
    pub fn revoke(&self, id: ObjectId) -> Result<Reference, PcsiError> {
        let mut objects = self.inner.objects.borrow_mut();
        let object = objects.get_mut(&id).ok_or(PcsiError::NotFound(id))?;
        object.meta.generation += 1;
        let generation = object.meta.generation;
        drop(objects);
        if let Some(j) = &self.inner.telemetry.journal {
            j.append("kernel", "revoke", format!("id={id:?} gen={generation}"));
        }
        Ok(Reference::mint(id, Rights::ALL, generation))
    }

    /// Runs a reachability GC from `roots`.
    ///
    /// Edges come from directory contents; unreachable objects lose their
    /// metadata, store replicas, FIFO queues and cache entries. Returns
    /// the collected object count.
    pub fn run_gc(&self, roots: &[Reference]) -> usize {
        let edges = |id: ObjectId| -> Vec<ObjectId> {
            let is_dir = {
                let objects = self.inner.objects.borrow();
                matches!(
                    objects.get(&id).map(|o| &o.meta.kind),
                    Some(ObjectKind::Directory)
                )
            };
            if !is_dir {
                return Vec::new();
            }
            // Provider-internal read straight from any replica engine.
            for replica in self.inner.store.replicas() {
                let bytes = replica.with_engine(|e| e.get(id).map(|o| o.data.clone()));
                if let Some(bytes) = bytes {
                    if let Ok(dir) = Directory::decode(&bytes) {
                        return dir.target_ids();
                    }
                }
            }
            Vec::new()
        };
        let all: Vec<ObjectId> = self.inner.objects.borrow().keys().copied().collect();
        let dead = gc::mark(roots.iter().map(Reference::id), edges, all);
        gc::sweep(&self.inner.store, &dead);
        for id in &dead {
            self.remove(*id);
            self.inner.store.invalidate_cached(*id);
        }
        if !dead.is_empty() {
            if let Some(j) = &self.inner.telemetry.journal {
                j.append("kernel", "gc", format!("collected={}", dead.len()));
            }
        }
        dead.len()
    }

    /// Drops `id` from the table. A queue closes with it: blocked poppers
    /// wake to see the close, and cross-node subscriptions end after
    /// their buffered frames drain.
    fn remove(&self, id: ObjectId) {
        let removed = self.inner.objects.borrow_mut().remove(&id);
        if let Some(queue) = removed.and_then(|o| o.queue) {
            queue.close();
            self.inner.publisher.close_object(id);
        }
    }

    /// The one admission, a local table lookup: the object exists, the
    /// reference was minted in its current generation and carries the
    /// right, and the object is of a kind the operation serves — refused
    /// in that order. What comes back is the entry as admitted.
    fn admit(&self, r: &Reference, needs: &OpRow) -> Result<Object, PcsiError> {
        let objects = self.inner.objects.borrow();
        let object = objects.get(&r.id()).ok_or(PcsiError::NotFound(r.id()))?;
        if object.meta.generation != r.generation() {
            return Err(PcsiError::InvalidReference(format!(
                "reference to {:?} was revoked (generation {} != {})",
                r.id(),
                r.generation(),
                object.meta.generation
            )));
        }
        r.require(needs.right)?;
        let kind = object.meta.kind.name();
        if !needs.kinds.is_empty() && !needs.kinds.contains(&kind) {
            return Err(PcsiError::WrongKind {
                id: r.id(),
                expected: needs.expected,
                actual: kind,
            });
        }
        Ok(object.clone())
    }

    fn update_meta(&self, id: ObjectId, f: impl FnOnce(&mut ObjectMeta)) {
        if let Some(object) = self.inner.objects.borrow_mut().get_mut(&id) {
            f(&mut object.meta);
        }
    }
}

/// A per-origin, per-account kernel client.
#[derive(Clone)]
pub struct KernelClient {
    kernel: Kernel,
    node: NodeId,
    account: Rc<str>,
    /// Trace context operations run under: `None` for user-facing
    /// clients (each op opens a root span), `Some` for clients handed to
    /// function bodies (ops nest under the invocation).
    ctx: Option<TraceContext>,
}

impl KernelClient {
    /// The node this client's operations originate from.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// The FaaS runtime (graph planning reads its warm pools and cluster
    /// state).
    pub(crate) fn runtime(&self) -> &Runtime {
        &self.inner().runtime
    }

    fn inner(&self) -> &Inner {
        &self.kernel.inner
    }

    fn store_client(&self) -> pcsi_store::StoreClient {
        self.inner().store.client(self.node).traced(self.ctx)
    }

    /// A clone whose operations (and store calls) run under `ctx` —
    /// used to nest an op's work under the span just opened for it.
    fn with_ctx(&self, ctx: Option<TraceContext>) -> KernelClient {
        KernelClient {
            ctx: ctx.or(self.ctx),
            ..self.clone()
        }
    }

    /// Runs one kernel operation: opens its span — a root when this
    /// client faces a user, a child when it is a function body's data
    /// plane — hands `body` a client whose work (and store calls) nests
    /// under that span, then records the op's series and closes the span.
    async fn op<T, Fut>(
        &self,
        op: Op,
        body: impl FnOnce(KernelClient) -> Fut,
    ) -> Result<T, PcsiError>
    where
        Fut: Future<Output = Result<T, PcsiError>>,
    {
        let tracer = &self.inner().telemetry.tracer;
        let mut span = pcsi_trace::child_or_root(tracer, self.ctx, op.row().span);
        let started = self.inner().fabric.handle().now();
        let result = body(self.with_ctx(span.ctx())).await;
        let trace = span.ctx().map(|c| c.trace.0);
        self.record_op(op, started, result.is_ok(), trace);
        if let Err(e) = &result {
            span.attr_with("error", || AttrValue::Text(e.to_string()));
        }
        span.finish();
        result
    }

    /// [`KernelClient::op`] on a reference: `r` is admitted against the
    /// op's row first (inside the span, so a refusal is recorded like any
    /// other failure) and `body` gets the object it names.
    async fn op_on<T, Fut>(
        &self,
        op: Op,
        r: &Reference,
        body: impl FnOnce(KernelClient, Object) -> Fut,
    ) -> Result<T, PcsiError>
    where
        Fut: Future<Output = Result<T, PcsiError>>,
    {
        self.op(op, |this| async move {
            let object = this.kernel.admit(r, op.row())?;
            body(this, object).await
        })
        .await
    }

    /// Records one completed `CloudInterface` op into the registry (if
    /// there is one): per-op count, per-op error count, latency histogram.
    /// When the op ran under a sampled trace, the latency histogram also
    /// retains `(trace, elapsed)` as the bucket's exemplar — the join
    /// key that lets a firing latency alert name its offending trace.
    fn record_op(&self, op: Op, started: SimTime, ok: bool, trace: Option<u64>) {
        let inner = self.inner();
        let Some(m) = &inner.telemetry.metrics else {
            return;
        };
        let labels = [("op", op.row().label)];
        let mut series = inner.op_series.borrow_mut();
        let (ops, op_ns) = series[op as usize].get_or_insert_with(|| {
            (
                m.counter("kernel.ops", &labels),
                m.histogram("kernel.op_ns", &labels),
            )
        });
        ops.incr();
        if !ok {
            m.counter("kernel.errors", &labels).incr();
        }
        let elapsed = inner.fabric.handle().now() - started;
        op_ns.record_duration(elapsed);
        if let Some(trace) = trace {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            op_ns.exemplar(ns, trace);
        }
    }

    /// Reads the complete contents of a byte object (helper used by
    /// lookups, invoke, and the public `read`). Node-local caching of
    /// immutable bytes and stable append-only prefixes happens inside the
    /// store client, which also knows the authoritative mutability.
    async fn read_raw(&self, id: ObjectId, meta: &ObjectMeta) -> Result<Bytes, PcsiError> {
        self.read_with_fallback(id, 0, u64::MAX, meta.consistency)
            .await
    }

    /// Store read honoring the consistency menu, with one escape hatch:
    /// an *eventual* read that finds no replica copy retries at quorum
    /// strength before reporting `NotFound` — absence of a live object is
    /// a replication race, not legitimate staleness.
    async fn read_with_fallback(
        &self,
        id: ObjectId,
        offset: u64,
        len: u64,
        consistency: Consistency,
    ) -> Result<Bytes, PcsiError> {
        let read = match self.store_client().read(id, offset, len, consistency).await {
            Err(PcsiError::NotFound(_)) if consistency == Consistency::Eventual => {
                self.store_client()
                    .read(id, offset, len, Consistency::Linearizable)
                    .await
            }
            other => other,
        };
        Ok(read?.1)
    }

    /// Loads and decodes an admitted directory object.
    async fn load_dir(&self, id: ObjectId, meta: &ObjectMeta) -> Result<Directory, PcsiError> {
        Directory::decode(&self.read_raw(id, meta).await?)
    }

    /// Persists a directory object (directories are linearizable).
    async fn store_dir(&self, id: ObjectId, dir: &Directory) -> Result<(), PcsiError> {
        let bytes = dir.encode();
        let size = bytes.len() as u64;
        self.store_client()
            .put(id, bytes, Mutability::Mutable, Consistency::Linearizable)
            .await?;
        self.kernel.update_meta(id, |m| {
            m.size = size;
            m.version += 1;
        });
        Ok(())
    }

    /// Resolves a path through a **union** of directory layers, topmost
    /// first (§3.2: "PCSI will include support for union file systems,
    /// allowing one namespace to be superimposed on top of another").
    ///
    /// Each path segment is looked up in every layer top-down; a whiteout
    /// in a higher layer hides the name in all lower ones. Once a segment
    /// resolves in some layer, deeper segments resolve within that
    /// subtree only (overlayfs semantics for non-merged subdirectories).
    /// A one-layer union is [`CloudInterface::lookup`], and is recorded
    /// as the same `lookup` op.
    pub async fn lookup_union(
        &self,
        layers: &[Reference],
        path: &str,
    ) -> Result<Reference, PcsiError> {
        self.op(Op::Lookup, |this| this.resolve(layers, path)).await
    }

    /// Opens a cross-node subscription on a FIFO or socket object: the
    /// object's home node pushes every subsequent append to this
    /// client's node under credit-based flow control. `window` is the
    /// credit window (and receive-buffer bound); `0` takes the provider
    /// default. Requires [`Rights::READ`].
    ///
    /// While an object has subscribers it is in push mode: appends fan
    /// out instead of queueing for [`CloudInterface::pop`].
    pub async fn subscribe(&self, r: &Reference, window: u32) -> Result<Subscription, PcsiError> {
        self.op_on(Op::Subscribe, r, |this, _| async move {
            let home = this.inner().store.placement().primary(r.id());
            let publisher = &this.inner().publisher;
            publisher.subscribe(this.node, r.id(), home, window).await
        })
        .await
    }

    /// Invokes with an explicit optimizer goal (the `CloudInterface`
    /// method uses the kernel default): the optimizer picks the variant,
    /// the instance is placed near this client's node, and the request
    /// and response bodies cross the fabric between the two.
    pub async fn invoke_goal(
        &self,
        f: &Reference,
        req: InvokeRequest,
        goal: Goal,
    ) -> Result<InvokeResponse, PcsiError> {
        self.op(Op::Invoke, |this| async move {
            let image = this.load_function(f).await?;
            let route = Route {
                variant: None,
                pin: None,
                sources: &[(this.node, req.body.len())],
                reply_to: Some(this.node),
            };
            let (resp, _) = this.run_function(&image, goal, route, req).await?;
            Ok(resp)
        })
        .await
    }

    /// Invokes one stage of a task graph under the kernel's default goal:
    /// the same `kernel.invoke` op as [`KernelClient::invoke_goal`], on an
    /// image [`KernelClient::load_function`] already admitted, routed as
    /// the graph's plan says. Returns the response and the node it ran on.
    pub(crate) async fn invoke_stage(
        &self,
        image: &FunctionImage,
        route: Route<'_>,
        req: InvokeRequest,
    ) -> Result<(InvokeResponse, NodeId), PcsiError> {
        let goal = self.inner().goal;
        self.op(Op::Invoke, |this| {
            this.run_function(image, goal, route, req)
        })
        .await
    }

    /// Admission, the first half of every invocation: the reference must
    /// carry the invoke right and name a function object, whose image is
    /// read and decoded. A graph executor calls this for every stage
    /// before it plans, so a stage the caller may not invoke fails the
    /// whole submission before anything runs.
    pub(crate) async fn load_function(&self, f: &Reference) -> Result<FunctionImage, PcsiError> {
        let function = self.kernel.admit(f, Op::Invoke.row())?;
        FunctionImage::decode(&self.read_raw(f.id(), &function.meta).await?)
    }

    /// Execution, the second half of every invocation and the only route
    /// from this crate to the runtime: schedule (`faas.schedule` span),
    /// pull the request's bytes onto the chosen node, run the lease, send
    /// the response where `route` says, bill the account.
    async fn run_function(
        self,
        image: &FunctionImage,
        goal: Goal,
        route: Route<'_>,
        req: InvokeRequest,
    ) -> Result<(InvokeResponse, NodeId), PcsiError> {
        let runtime = &self.inner().runtime;

        // Scheduling: the runtime picks the variant and reserves an
        // instance near this client, in one synchronous section — so
        // concurrent invocations cannot race each other onto a single
        // slot, and the span is zero-width in virtual time: it marks the
        // decision point on the timeline.
        let tracer = &self.inner().telemetry.tracer;
        let mut sched_span = pcsi_trace::child_of(tracer, self.ctx, "faas.schedule");
        let scheduled = runtime
            .choose_variant(image, route.variant, req.body.len(), goal)
            .and_then(|variant| {
                let lease = runtime.reserve(image, variant, route.pin, Some(self.node));
                lease.map(|lease| (variant, lease))
            });
        let (variant, lease) = match scheduled {
            Ok(scheduled) => scheduled,
            Err(e) => {
                sched_span.attr_with("error", || AttrValue::Text(e.to_string()));
                sched_span.finish();
                return Err(e);
            }
        };
        let node = lease.node();
        sched_span.attr("node", u64::from(node.0));
        sched_span.attr("cold", if lease.is_cold() { "true" } else { "false" });
        sched_span.finish();

        // Dispatch hops: each part of the request travels from where it
        // sits to the chosen node (the slot is already held, so awaiting
        // here is safe).
        for &(from, len) in route.sources {
            self.hop(from, node, len).await?;
        }

        // The body's data plane originates from the execution node; its
        // data-plane ops trace as children of this invocation.
        let body_client: Rc<dyn DataPlane> = Rc::new(KernelClient {
            node,
            ..self.clone()
        });
        let (resp, ran_on) = runtime
            .run_lease(lease, image, variant, req, body_client, self.ctx)
            .await?;

        // Response hop.
        if let Some(to) = route.reply_to {
            self.hop(ran_on, to, resp.body.len()).await?;
        }

        self.inner().billing.charge_request(&self.account);
        self.inner().billing.charge_compute(
            &self.account,
            &variant.demand,
            std::time::Duration::from_nanos(resp.billed_ns),
        );
        Ok((resp, ran_on))
    }

    /// Moves an invocation body of `len` bytes between two nodes; free
    /// when they are one node.
    async fn hop(&self, from: NodeId, to: NodeId, len: usize) -> Result<(), PcsiError> {
        if from != to {
            self.inner()
                .fabric
                .transfer(from, to, len.max(64), Transport::Rdma)
                .await
                .map_err(|e| PcsiError::Fault(e.to_string()))?;
        }
        Ok(())
    }
}

/// Where one invocation runs and how its bytes travel — what differs
/// between a client's `invoke` and a stage of a task graph.
pub(crate) struct Route<'a> {
    /// The variant the caller names; `None` lets the optimizer choose
    /// for the goal.
    pub(crate) variant: Option<&'a str>,
    /// The node a graph plan pins the instance to; `None` places it near
    /// the caller.
    pub(crate) pin: Option<NodeId>,
    /// The request body's parts as `(node holding it, bytes)`: each part
    /// not already on the execution node crosses the fabric to it.
    pub(crate) sources: &'a [(NodeId, usize)],
    /// Where the response body is sent; `None` leaves it on the execution
    /// node, for the consuming stage's own dispatch to fetch.
    pub(crate) reply_to: Option<NodeId>,
}

impl CloudInterface for KernelClient {
    async fn create(&self, opts: CreateOptions) -> Result<Reference, PcsiError> {
        self.op(Op::Create, |this| this.create_impl(opts)).await
    }

    async fn read(&self, r: &Reference, offset: u64, len: u64) -> Result<Bytes, PcsiError> {
        self.op_on(Op::Read, r, |this, object| async move {
            match &object.meta.kind {
                ObjectKind::Device(class) => {
                    let op = DeviceOp::Read { offset };
                    let out = this.inner().devices.borrow().dispatch(class, op)?;
                    // The handler renders whole: a read takes its first `len` bytes.
                    let len = usize::try_from(len).unwrap_or(usize::MAX);
                    Ok(out.slice(..out.len().min(len)))
                }
                _ => {
                    this.read_with_fallback(r.id(), offset, len, object.meta.consistency)
                        .await
                }
            }
        })
        .await
    }

    async fn write(&self, r: &Reference, offset: u64, data: Bytes) -> Result<(), PcsiError> {
        self.op_on(Op::Write, r, |this, object| async move {
            match (&object.queue, &object.meta.kind) {
                (Some(queue), _) => this.enqueue(r.id(), queue, data).await.map(drop),
                (None, ObjectKind::Device(class)) => {
                    let op = DeviceOp::Write(data);
                    this.inner().devices.borrow().dispatch(class, op)?;
                    Ok(())
                }
                (None, _) => {
                    // Saturate rather than wrap: the store rejects absurd
                    // ranges itself, and metadata must not panic first.
                    let end = offset.saturating_add(data.len() as u64);
                    this.store_client()
                        .write_at(r.id(), offset, data, object.meta.consistency)
                        .await?;
                    this.kernel.update_meta(r.id(), |m| {
                        m.size = m.size.max(end);
                        m.version += 1;
                    });
                    Ok(())
                }
            }
        })
        .await
    }

    async fn append(&self, r: &Reference, data: Bytes) -> Result<u64, PcsiError> {
        self.op_on(Op::Append, r, |this, object| async move {
            if let Some(queue) = &object.queue {
                return this.enqueue(r.id(), queue, data).await;
            }
            let len = data.len() as u64;
            this.store_client()
                .append(r.id(), data, object.meta.consistency)
                .await?;
            let mut at = 0;
            this.kernel.update_meta(r.id(), |m| {
                at = m.size;
                m.size += len;
                m.version += 1;
            });
            Ok(at)
        })
        .await
    }

    async fn pop(&self, r: &Reference) -> Result<Bytes, PcsiError> {
        self.op_on(Op::Pop, r, |this, object| async move {
            // The row admits only kinds that are made with a queue.
            let queue = object.queue.ok_or(PcsiError::NotFound(r.id()))?;
            let msg = queue.pop().await?;
            let home = this.inner().store.placement().primary(r.id());
            this.hop(home, this.node, msg.len()).await?;
            this.kernel
                .update_meta(r.id(), |m| m.size = queue.len() as u64);
            Ok(msg)
        })
        .await
    }

    async fn stat(&self, r: &Reference) -> Result<ObjectMeta, PcsiError> {
        self.op_on(Op::Stat, r, |_, object| async { Ok(object.meta) })
            .await
    }

    async fn set_mutability(&self, r: &Reference, to: Mutability) -> Result<(), PcsiError> {
        self.op_on(Op::SetMutability, r, |this, object| async move {
            let meta = object.meta;
            // Validate the Figure-1 transition before touching the store.
            meta.mutability.transition_to(to)?;
            if matches!(meta.kind, ObjectKind::Regular | ObjectKind::Function) {
                this.store_client()
                    .set_mutability(r.id(), to, meta.consistency)
                    .await?;
            }
            this.kernel.update_meta(r.id(), |m| {
                m.mutability = to;
                m.version += 1;
            });
            Ok(())
        })
        .await
    }

    async fn delete(&self, r: &Reference) -> Result<(), PcsiError> {
        self.op_on(Op::Delete, r, |this, object| async move {
            if matches!(
                object.meta.kind,
                ObjectKind::Regular | ObjectKind::Function | ObjectKind::Directory
            ) {
                // The store-level delete also drops node-local cached copies.
                this.store_client().delete(r.id()).await?;
            }
            this.kernel.remove(r.id());
            Ok(())
        })
        .await
    }

    async fn link(&self, dir: &Reference, name: &str, target: &Reference) -> Result<(), PcsiError> {
        self.op_on(Op::Link, dir, |this, object| async move {
            this.kernel.admit(target, &LINK_TARGET)?;
            let mut d = this.load_dir(dir.id(), &object.meta).await?;
            d.link(name, DirEntry::new(target.id(), target.rights()))?;
            this.store_dir(dir.id(), &d).await
        })
        .await
    }

    async fn unlink(&self, dir: &Reference, name: &str) -> Result<(), PcsiError> {
        self.op_on(Op::Unlink, dir, |this, object| async move {
            let mut d = this.load_dir(dir.id(), &object.meta).await?;
            d.unlink(name)?;
            this.store_dir(dir.id(), &d).await
        })
        .await
    }

    async fn lookup(&self, dir: &Reference, path: &str) -> Result<Reference, PcsiError> {
        self.lookup_union(std::slice::from_ref(dir), path).await
    }

    async fn list(&self, dir: &Reference) -> Result<Vec<String>, PcsiError> {
        self.op_on(Op::List, dir, |this, object| async move {
            Ok(this.load_dir(dir.id(), &object.meta).await?.names())
        })
        .await
    }

    async fn invoke(&self, f: &Reference, req: InvokeRequest) -> Result<InvokeResponse, PcsiError> {
        self.invoke_goal(f, req, self.inner().goal).await
    }
}

/// What the operations above share. `create_impl` and `resolve` take the
/// client by value: `KernelClient::op` hands them the clone that runs
/// under the span just opened, and the body's future owns it.
impl KernelClient {
    async fn create_impl(self, opts: CreateOptions) -> Result<Reference, PcsiError> {
        if !matches!(opts.kind, ObjectKind::Regular | ObjectKind::Function)
            && !opts.initial.is_empty()
        {
            return Err(PcsiError::BadPayload(format!(
                "{} objects cannot take initial contents",
                opts.kind
            )));
        }
        if let ObjectKind::Device(class) = &opts.kind {
            if !self.inner().devices.borrow().has(class) {
                return Err(PcsiError::NameNotFound(format!("device class {class:?}")));
            }
        }
        let id = self.inner().alloc.borrow_mut().alloc();
        let now = self.inner().fabric.handle().now().as_nanos();
        let mut meta = ObjectMeta::new(opts.kind.clone(), opts.mutability, opts.consistency, now);
        let stored = match &opts.kind {
            ObjectKind::Regular | ObjectKind::Function => Some((opts.initial, opts.mutability)),
            ObjectKind::Directory => Some((Directory::new().encode(), Mutability::Mutable)),
            ObjectKind::Fifo | ObjectKind::Socket | ObjectKind::Device(_) => None,
        };
        if let Some((bytes, mutability)) = stored {
            meta.size = bytes.len() as u64;
            // Creation is always durably replicated (majority sync): an
            // object must be readable everywhere the moment its reference
            // exists, whatever its steady-state consistency.
            self.store_client()
                .put(id, bytes, mutability, Consistency::Linearizable)
                .await?;
        }
        Ok(self.kernel.insert(id, meta, opts.fifo_capacity))
    }

    /// One message from this client to queue `id`: it crosses the fabric
    /// to the queue's home (the placement primary), so distance matters,
    /// and is enqueued there — refused when the queue is full.
    async fn enqueue(
        &self,
        id: ObjectId,
        queue: &FifoQueue,
        data: Bytes,
    ) -> Result<u64, PcsiError> {
        let home = self.inner().store.placement().primary(id);
        self.hop(self.node, home, data.len()).await?;
        self.kernel.enqueue(id, queue, data, false)
    }

    /// The one name resolver: `path` through `layers`, topmost first.
    /// The first segment is searched down the stack — the first layer
    /// holding the name decides, and a whiteout there hides it below —
    /// and every later segment in the one directory the previous one
    /// resolved to. Each layer is admitted as it is reached.
    async fn resolve(self, layers: &[Reference], path: &str) -> Result<Reference, PcsiError> {
        let segments = pcsi_fs::path::split(path)?;
        let mut resolved = layers
            .first()
            .cloned()
            .ok_or_else(|| PcsiError::BadPayload("union lookup needs layers".into()))?;
        for (depth, seg) in segments.iter().enumerate() {
            let stack = match depth {
                0 => layers,
                _ => std::slice::from_ref(&resolved),
            };
            let mut found = None;
            for layer in stack {
                let object = self.kernel.admit(layer, Op::Lookup.row())?;
                let dir = self.read_raw(layer.id(), &object.meta).await?;
                let Some(entry) = Directory::find(&dir, seg)? else {
                    continue;
                };
                if !entry.whiteout {
                    let gen = {
                        let objects = self.inner().objects.borrow();
                        objects
                            .get(&entry.id)
                            .ok_or(PcsiError::NotFound(entry.id))?
                            .meta
                            .generation
                    };
                    found = Some(Reference::mint(entry.id, entry.rights, gen));
                }
                break;
            }
            resolved = found.ok_or_else(|| PcsiError::NameNotFound(seg.clone()))?;
        }
        Ok(resolved)
    }
}

impl DataPlane for KernelClient {
    fn read(
        &self,
        r: &Reference,
        offset: u64,
        len: u64,
    ) -> LocalBoxFuture<Result<Bytes, PcsiError>> {
        let this = self.clone();
        let r = r.clone();
        Box::pin(async move { CloudInterface::read(&this, &r, offset, len).await })
    }

    fn write(
        &self,
        r: &Reference,
        offset: u64,
        data: Bytes,
    ) -> LocalBoxFuture<Result<(), PcsiError>> {
        let this = self.clone();
        let r = r.clone();
        Box::pin(async move { CloudInterface::write(&this, &r, offset, data).await })
    }

    fn append(&self, r: &Reference, data: Bytes) -> LocalBoxFuture<Result<u64, PcsiError>> {
        let this = self.clone();
        let r = r.clone();
        Box::pin(async move { CloudInterface::append(&this, &r, data).await })
    }

    fn pop(&self, r: &Reference) -> LocalBoxFuture<Result<Bytes, PcsiError>> {
        let this = self.clone();
        let r = r.clone();
        Box::pin(async move { CloudInterface::pop(&this, &r).await })
    }

    fn invoke(
        &self,
        f: &Reference,
        req: InvokeRequest,
    ) -> LocalBoxFuture<Result<InvokeResponse, PcsiError>> {
        let this = self.clone();
        let f = f.clone();
        Box::pin(async move { CloudInterface::invoke(&this, &f, req).await })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::Lab;
    use crate::CloudBuilder;

    /// DESIGN §4.11's table is this module's [`OPS`], row for row.
    #[test]
    fn design_prints_the_op_table() {
        let design = include_str!("../../../DESIGN.md");
        for (row, note) in OPS
            .iter()
            .map(|r| (r, ""))
            .chain([(&LINK_TARGET, " (target)")])
        {
            let kinds = match row.kinds {
                [] => "any".to_owned(),
                kinds => kinds.join(", "),
            };
            let line = format!(
                "| `{}`{note} | {:?} | {kinds} | {} |",
                row.label, row.right, row.expected
            );
            assert!(design.contains(&line), "DESIGN.md lacks the row\n{line}");
            assert_eq!(row.span, format!("kernel.{}", row.label));
        }
    }

    /// Regression: a full system FIFO popped one entry and pushed one but
    /// still counted `size += 1`, so `stat(alerts).size` climbed past the
    /// ring's capacity.
    #[test]
    fn a_full_system_fifo_stays_at_its_capacity() {
        let builder = CloudBuilder::new().deterministic_network();
        Lab::run(7, builder, |Lab { cloud, .. }| async move {
            let ring = cloud.kernel.create_system_fifo(4);
            for i in 0..300u32 {
                let line = Bytes::from(i.to_le_bytes().to_vec());
                cloud.kernel.append_system_fifo(&ring, line).unwrap();
            }
            let c = cloud.kernel.client(NodeId(0), "ops");
            let meta = c.stat(&ring).await.unwrap();
            assert_eq!((meta.size, meta.version), (4, 300));
            // The ring holds the newest four.
            for want in 296..300u32 {
                let got = CloudInterface::pop(&c, &ring).await.unwrap();
                assert_eq!(&got[..], want.to_le_bytes());
            }
            assert_eq!(c.stat(&ring).await.unwrap().size, 0);
        });
    }
}
