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
use pcsi_faas::registry::{choose_variant, Goal};
use pcsi_faas::runtime::Runtime;
use pcsi_fs::device::{DeviceHandler, DeviceRegistry};
use pcsi_fs::{DirEntry, Directory, FifoQueue};
use pcsi_net::{Fabric, NodeId, Transport};
use pcsi_obs::{JournalExt, Telemetry};
use pcsi_sim::executor::LocalBoxFuture;
use pcsi_sim::SimTime;
use pcsi_store::{gc, ReplicatedStore};
use pcsi_stream::{Publisher, StreamConfig, Subscription};
use pcsi_trace::{AttrValue, SpanHandle, TraceContext};

use crate::billing::Billing;

struct MetaEntry {
    meta: ObjectMeta,
}

struct Inner {
    fabric: Fabric,
    store: ReplicatedStore,
    runtime: Runtime,
    billing: Billing,
    alloc: RefCell<IdAllocator>,
    meta: RefCell<FxHashMap<ObjectId, MetaEntry>>,
    fifos: RefCell<FxHashMap<ObjectId, FifoQueue>>,
    devices: RefCell<DeviceRegistry>,
    /// Cross-node push fan-out for subscribed FIFOs/sockets.
    publisher: Publisher,
    goal: Goal,
    /// The deployment's telemetry, the same handles the store and the
    /// FaaS runtime were built with. Every `CloudInterface` op opens a
    /// root span on the tracer (the context flows down through the store
    /// and the runtime) and records a per-op count and latency histogram
    /// in the registry; control-plane transitions — deletes,
    /// revocations, GC sweeps — append typed records to the journal.
    telemetry: Telemetry,
    /// Resolved `kernel.ops`/`kernel.op_ns` series per op name, so the
    /// per-op hot path skips the registry's label-string lookup. The
    /// error counter is *not* cached: it is registered lazily on first
    /// error, keeping rendered snapshots identical to the uncached path.
    op_series: RefCell<FxHashMap<&'static str, (pcsi_metrics::Counter, pcsi_metrics::Histogram)>>,
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
        let publisher = Publisher::deploy(
            fabric.clone(),
            StreamConfig::default(),
            telemetry.metrics.clone(),
        );
        Kernel {
            inner: Rc::new(Inner {
                fabric,
                store,
                runtime,
                billing,
                alloc: RefCell::new(IdAllocator::new(realm)),
                meta: RefCell::new(FxHashMap::default()),
                fifos: RefCell::new(FxHashMap::default()),
                devices: RefCell::new(DeviceRegistry::new()),
                publisher,
                goal,
                telemetry: telemetry.clone(),
                op_series: RefCell::new(FxHashMap::default()),
            }),
        }
    }

    /// A client whose operations originate from `node`, billed to
    /// `account`.
    pub fn client(&self, node: NodeId, account: &str) -> KernelClient {
        KernelClient {
            kernel: self.clone(),
            node,
            account: account.to_owned(),
            ctx: None,
        }
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
        self.inner
            .fifos
            .borrow_mut()
            .insert(id, FifoQueue::bounded(capacity.max(1)));
        self.inner.meta.borrow_mut().insert(id, MetaEntry { meta });
        Reference::mint(id, Rights::ALL, 0)
    }

    /// Appends to a provider-internal FIFO synchronously. Subscribed
    /// queues push to their subscribers (credit-controlled); otherwise
    /// the payload queues for poppers, and when the queue is full the
    /// *oldest* entry is evicted — a control-plane stream is a ring of
    /// recent history, not a backpressure source for the kernel itself.
    pub(crate) fn append_system_fifo(&self, r: &Reference, data: Bytes) -> Result<(), PcsiError> {
        let fifo = self
            .inner
            .fifos
            .borrow()
            .get(&r.id())
            .cloned()
            .ok_or(PcsiError::NotFound(r.id()))?;
        if self.inner.publisher.has_subscribers(r.id()) {
            let ts = self.inner.fabric.handle().now().as_nanos();
            self.inner.publisher.publish(r.id(), data, ts)?;
            self.update_meta(r.id(), |m| m.version += 1);
            return Ok(());
        }
        if let Some(back) = fifo.try_push(data)? {
            fifo.try_pop();
            fifo.try_push(back)?;
        }
        self.update_meta(r.id(), |m| {
            m.size += 1;
            m.version += 1;
        });
        Ok(())
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
        self.inner.meta.borrow().len()
    }

    /// Revokes every outstanding reference to `id` by bumping its
    /// generation; the holder of a newer reference must be re-issued one
    /// through a namespace or delegation.
    pub fn revoke(&self, id: ObjectId) -> Result<Reference, PcsiError> {
        let mut meta = self.inner.meta.borrow_mut();
        let entry = meta.get_mut(&id).ok_or(PcsiError::NotFound(id))?;
        entry.meta.generation += 1;
        let generation = entry.meta.generation;
        drop(meta);
        self.inner
            .telemetry
            .journal
            .with(|j| j.append("kernel", "revoke", format!("id={id:?} gen={generation}")));
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
                let meta = self.inner.meta.borrow();
                matches!(
                    meta.get(&id).map(|e| &e.meta.kind),
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
        let all: Vec<ObjectId> = self.inner.meta.borrow().keys().copied().collect();
        let dead = gc::mark(roots.iter().map(Reference::id), edges, all);
        gc::sweep(&self.inner.store, &dead);
        let mut meta = self.inner.meta.borrow_mut();
        let mut fifos = self.inner.fifos.borrow_mut();
        for id in &dead {
            meta.remove(id);
            if let Some(fifo) = fifos.remove(id) {
                fifo.close();
                self.inner.publisher.close_object(*id);
            }
            self.inner.store.invalidate_cached(*id);
        }
        if !dead.is_empty() {
            self.inner
                .telemetry
                .journal
                .with(|j| j.append("kernel", "gc", format!("collected={}", dead.len())));
        }
        dead.len()
    }

    fn check(&self, r: &Reference, needed: Rights) -> Result<ObjectMeta, PcsiError> {
        let meta = self.inner.meta.borrow();
        let entry = meta.get(&r.id()).ok_or(PcsiError::NotFound(r.id()))?;
        if entry.meta.generation != r.generation() {
            return Err(PcsiError::InvalidReference(format!(
                "reference to {:?} was revoked (generation {} != {})",
                r.id(),
                r.generation(),
                entry.meta.generation
            )));
        }
        r.require(needed)?;
        Ok(entry.meta.clone())
    }

    fn update_meta(&self, id: ObjectId, f: impl FnOnce(&mut ObjectMeta)) {
        if let Some(entry) = self.inner.meta.borrow_mut().get_mut(&id) {
            f(&mut entry.meta);
        }
    }
}

/// A per-origin, per-account kernel client.
#[derive(Clone)]
pub struct KernelClient {
    kernel: Kernel,
    node: NodeId,
    account: String,
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
            kernel: self.kernel.clone(),
            node: self.node,
            account: self.account.clone(),
            ctx: ctx.or(self.ctx),
        }
    }

    /// Opens the span for one kernel operation: a root when this client
    /// faces a user, a child when it is a function body's data plane.
    fn op_span(&self, name: &'static str) -> SpanHandle {
        match &self.inner().telemetry.tracer {
            Some(t) => match self.ctx {
                Some(ctx) => t.child(ctx, name),
                None => t.root(name),
            },
            None => SpanHandle::disabled(),
        }
    }

    /// Runs one kernel operation: opens its `kernel.<op>` span, hands
    /// `body` a client whose work (and store calls) nests under that
    /// span, then records the op's series and closes the span. `name`
    /// is the span name; the part after `kernel.` is the `op` label.
    async fn op<T, Fut>(
        &self,
        name: &'static str,
        body: impl FnOnce(KernelClient) -> Fut,
    ) -> Result<T, PcsiError>
    where
        Fut: Future<Output = Result<T, PcsiError>>,
    {
        let mut span = self.op_span(name);
        let started = self.inner().fabric.handle().now();
        let result = body(self.with_ctx(span.ctx())).await;
        let trace = span.ctx().map(|c| c.trace.0);
        self.record_op(&name["kernel.".len()..], started, result.is_ok(), trace);
        if let Err(e) = &result {
            span.attr_with("error", || AttrValue::Text(e.to_string()));
        }
        span.finish();
        result
    }

    /// Records one completed `CloudInterface` op into the registry (if
    /// there is one): per-op count, per-op error count, latency histogram.
    /// When the op ran under a sampled trace, the latency histogram also
    /// retains `(trace, elapsed)` as the bucket's exemplar — the join
    /// key that lets a firing latency alert name its offending trace.
    fn record_op(&self, op: &'static str, started: SimTime, ok: bool, trace: Option<u64>) {
        let inner = self.inner();
        let Some(m) = &inner.telemetry.metrics else {
            return;
        };
        let labels = [("op", op)];
        let mut series = inner.op_series.borrow_mut();
        let (ops, op_ns) = series.entry(op).or_insert_with(|| {
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
        let (_tag, data) = self
            .read_with_fallback(id, 0, u64::MAX, meta.consistency)
            .await?;
        Ok(data)
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
    ) -> Result<(pcsi_store::Tag, Bytes), PcsiError> {
        match self.store_client().read(id, offset, len, consistency).await {
            Err(PcsiError::NotFound(_)) if consistency == Consistency::Eventual => {
                self.store_client()
                    .read(id, offset, len, Consistency::Linearizable)
                    .await
            }
            other => other,
        }
    }

    /// The stored bytes of a directory object.
    async fn read_dir(&self, id: ObjectId, meta: &ObjectMeta) -> Result<Bytes, PcsiError> {
        if meta.kind != ObjectKind::Directory {
            return Err(PcsiError::WrongKind {
                id,
                expected: "directory",
                actual: meta.kind.name(),
            });
        }
        self.read_raw(id, meta).await
    }

    /// Loads and decodes a directory object.
    async fn load_dir(&self, id: ObjectId, meta: &ObjectMeta) -> Result<Directory, PcsiError> {
        Directory::decode(&self.read_dir(id, meta).await?)
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
        self.op("kernel.lookup", |this| this.resolve(layers, path))
            .await
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
        self.op("kernel.subscribe", |this| this.subscribe_impl(r, window))
            .await
    }

    async fn subscribe_impl(self, r: &Reference, window: u32) -> Result<Subscription, PcsiError> {
        let meta = self.kernel.check(r, Rights::READ)?;
        if !matches!(meta.kind, ObjectKind::Fifo | ObjectKind::Socket) {
            return Err(PcsiError::WrongKind {
                id: r.id(),
                expected: "fifo or socket",
                actual: meta.kind.name(),
            });
        }
        let publisher = self.inner().publisher.clone();
        let window = if window == 0 {
            publisher.config().default_window
        } else {
            window
        };
        let home = self.inner().store.placement().primary(r.id());
        Subscription::open(
            self.inner().fabric.clone(),
            publisher.alloc_sub(self.node),
            self.node,
            r.id(),
            home,
            window,
            publisher.config().transport,
            self.inner().telemetry.metrics.clone(),
        )
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
        self.op("kernel.invoke", |this| async move {
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
        self.op("kernel.invoke", |this| {
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
        let meta = self.kernel.check(f, Rights::INVOKE)?;
        if meta.kind != ObjectKind::Function {
            return Err(PcsiError::WrongKind {
                id: f.id(),
                expected: "function",
                actual: meta.kind.name(),
            });
        }
        let image_bytes = self.read_raw(f.id(), &meta).await?;
        FunctionImage::decode(&image_bytes)
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
        let warm = |v: &str| !runtime.warm_nodes(&image.name, v).is_empty();

        // Scheduling: variant choice plus placement/reservation. The
        // section is synchronous (no awaits), so the span is zero-width
        // in virtual time — it marks the decision point on the timeline.
        let mut sched_span = match &self.inner().telemetry.tracer {
            Some(t) => t.child_of(self.ctx, "faas.schedule"),
            None => SpanHandle::disabled(),
        };
        // Warm instances are always preferred (their resources are pinned
        // and they skip the boot); the placement policy governs where new
        // instances go. Placement and reservation share one synchronous
        // section, so concurrent invocations cannot race each other onto
        // a single slot and spuriously overload a node. (The runtime's
        // policy is the kernel's policy — both come from the builder.)
        let scheduled = (|| -> Result<_, PcsiError> {
            let variant = match route.variant {
                Some(name) => image
                    .variant(name)
                    .ok_or_else(|| PcsiError::NoViableVariant(name.to_owned()))?,
                None => choose_variant(image, req.body.len(), goal, warm)?,
            };
            let lease = match route.pin {
                Some(node) => runtime.reserve_on(image, variant, node),
                None => runtime.reserve_placed(image, variant, Some(self.node)),
            };
            let lease = lease.map_err(|e| match e {
                PcsiError::Overloaded(_) => PcsiError::Overloaded(format!(
                    "no capacity for {}/{}",
                    image.name, variant.name
                )),
                other => other,
            })?;
            Ok((variant.clone(), lease))
        })();
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
            kernel: self.kernel.clone(),
            node,
            account: self.account.clone(),
            ctx: self.ctx,
        });
        let (resp, ran_on) = runtime
            .run_lease(lease, image, &variant, req, body_client, self.ctx)
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
        self.op("kernel.create", |this| this.create_impl(opts))
            .await
    }

    async fn read(&self, r: &Reference, offset: u64, len: u64) -> Result<Bytes, PcsiError> {
        self.op("kernel.read", |this| this.read_impl(r, offset, len))
            .await
    }

    async fn write(&self, r: &Reference, offset: u64, data: Bytes) -> Result<(), PcsiError> {
        self.op("kernel.write", |this| this.write_impl(r, offset, data))
            .await
    }

    async fn append(&self, r: &Reference, data: Bytes) -> Result<u64, PcsiError> {
        self.op("kernel.append", |this| this.append_impl(r, data))
            .await
    }

    async fn pop(&self, r: &Reference) -> Result<Bytes, PcsiError> {
        self.op("kernel.pop", |this| this.pop_impl(r)).await
    }

    async fn stat(&self, r: &Reference) -> Result<ObjectMeta, PcsiError> {
        self.op("kernel.stat", |this| async move {
            this.kernel.check(r, Rights::READ)
        })
        .await
    }

    async fn set_mutability(&self, r: &Reference, to: Mutability) -> Result<(), PcsiError> {
        self.op("kernel.set_mutability", |this| {
            this.set_mutability_impl(r, to)
        })
        .await
    }

    async fn delete(&self, r: &Reference) -> Result<(), PcsiError> {
        self.op("kernel.delete", |this| this.delete_impl(r)).await
    }

    async fn link(&self, dir: &Reference, name: &str, target: &Reference) -> Result<(), PcsiError> {
        self.op("kernel.link", |this| this.link_impl(dir, name, target))
            .await
    }

    async fn unlink(&self, dir: &Reference, name: &str) -> Result<(), PcsiError> {
        self.op("kernel.unlink", |this| this.unlink_impl(dir, name))
            .await
    }

    async fn lookup(&self, dir: &Reference, path: &str) -> Result<Reference, PcsiError> {
        self.op("kernel.lookup", |this| {
            this.resolve(std::slice::from_ref(dir), path)
        })
        .await
    }

    async fn list(&self, dir: &Reference) -> Result<Vec<String>, PcsiError> {
        self.op("kernel.list", |this| this.list_impl(dir)).await
    }

    async fn invoke(&self, f: &Reference, req: InvokeRequest) -> Result<InvokeResponse, PcsiError> {
        self.invoke_goal(f, req, self.inner().goal).await
    }
}

/// Operation bodies. Each takes the client by value: [`KernelClient::op`]
/// hands it the clone that runs under the span just opened, and the
/// body's future owns it.
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
        meta.size = opts.initial.len() as u64;

        match &opts.kind {
            ObjectKind::Regular | ObjectKind::Function => {
                // Creation is always durably replicated (majority sync):
                // an object must be readable everywhere the moment its
                // reference exists, whatever its steady-state consistency.
                self.store_client()
                    .put(id, opts.initial, opts.mutability, Consistency::Linearizable)
                    .await?;
            }
            ObjectKind::Directory => {
                let dir = Directory::new();
                let bytes = dir.encode();
                meta.size = bytes.len() as u64;
                self.store_client()
                    .put(id, bytes, Mutability::Mutable, Consistency::Linearizable)
                    .await?;
            }
            ObjectKind::Fifo | ObjectKind::Socket => {
                // Queues are always bounded: an unconsumed backlog turns
                // into retryable backpressure, never unbounded memory.
                let capacity = opts.fifo_capacity.unwrap_or(DEFAULT_FIFO_CAPACITY).max(1);
                self.inner()
                    .fifos
                    .borrow_mut()
                    .insert(id, FifoQueue::bounded(capacity));
            }
            ObjectKind::Device(_) => {}
        }
        self.inner()
            .meta
            .borrow_mut()
            .insert(id, MetaEntry { meta });
        Ok(Reference::mint(id, Rights::ALL, 0))
    }

    async fn read_impl(self, r: &Reference, offset: u64, len: u64) -> Result<Bytes, PcsiError> {
        let meta = self.kernel.check(r, Rights::READ)?;
        match &meta.kind {
            ObjectKind::Regular | ObjectKind::Function | ObjectKind::Directory => {
                let (_tag, data) = self
                    .read_with_fallback(r.id(), offset, len, meta.consistency)
                    .await?;
                Ok(data)
            }
            ObjectKind::Device(class) => {
                self.inner().devices.borrow().dispatch(class, Bytes::new())
            }
            ObjectKind::Fifo | ObjectKind::Socket => Err(PcsiError::WrongKind {
                id: r.id(),
                expected: "byte object (use pop for FIFOs)",
                actual: meta.kind.name(),
            }),
        }
    }

    async fn write_impl(self, r: &Reference, offset: u64, data: Bytes) -> Result<(), PcsiError> {
        let meta = self.kernel.check(r, Rights::WRITE)?;
        match &meta.kind {
            ObjectKind::Regular | ObjectKind::Function => {
                // Saturate rather than wrap: the store rejects absurd
                // ranges itself, and metadata must not panic first.
                let end = offset.saturating_add(data.len() as u64);
                self.store_client()
                    .write_at(r.id(), offset, data, meta.consistency)
                    .await?;
                self.kernel.update_meta(r.id(), |m| {
                    m.size = m.size.max(end);
                    m.version += 1;
                });
                Ok(())
            }
            ObjectKind::Device(class) => {
                self.inner().devices.borrow().dispatch(class, data)?;
                Ok(())
            }
            ObjectKind::Socket => {
                let fifo = self
                    .inner()
                    .fifos
                    .borrow()
                    .get(&r.id())
                    .cloned()
                    .ok_or(PcsiError::NotFound(r.id()))?;
                if self.inner().publisher.has_subscribers(r.id()) {
                    let ts = self.inner().fabric.handle().now().as_nanos();
                    self.inner().publisher.publish(r.id(), data, ts)?;
                    return Ok(());
                }
                fifo.push(data)
            }
            other => Err(PcsiError::WrongKind {
                id: r.id(),
                expected: "writable object",
                actual: other.name(),
            }),
        }
    }

    async fn append_impl(self, r: &Reference, data: Bytes) -> Result<u64, PcsiError> {
        let meta = self.kernel.check(r, Rights::APPEND)?;
        match &meta.kind {
            ObjectKind::Regular | ObjectKind::Function => {
                let len = data.len() as u64;
                self.store_client()
                    .append(r.id(), data, meta.consistency)
                    .await?;
                let mut at = 0;
                self.kernel.update_meta(r.id(), |m| {
                    at = m.size;
                    m.size += len;
                    m.version += 1;
                });
                Ok(at)
            }
            ObjectKind::Fifo | ObjectKind::Socket => {
                let fifo = self
                    .inner()
                    .fifos
                    .borrow()
                    .get(&r.id())
                    .cloned()
                    .ok_or(PcsiError::NotFound(r.id()))?;
                // FIFO messages traverse the fabric to the queue's home
                // (placement primary), so distance matters.
                let home = self.inner().store.placement().primary(r.id());
                self.hop(self.node, home, data.len()).await?;
                // A subscribed queue is in push mode: the event fans out
                // to subscribers instead of accumulating for poppers,
                // and backpressure comes from the slowest credit window.
                if self.inner().publisher.has_subscribers(r.id()) {
                    let ts = self.inner().fabric.handle().now().as_nanos();
                    let seq = self.inner().publisher.publish(r.id(), data, ts)?;
                    self.kernel.update_meta(r.id(), |m| m.version += 1);
                    return Ok(seq);
                }
                let at = fifo.total_pushed();
                fifo.push(data)?;
                self.kernel.update_meta(r.id(), |m| {
                    m.size += 1;
                    m.version += 1;
                });
                Ok(at)
            }
            other => Err(PcsiError::WrongKind {
                id: r.id(),
                expected: "appendable object",
                actual: other.name(),
            }),
        }
    }

    async fn pop_impl(self, r: &Reference) -> Result<Bytes, PcsiError> {
        let meta = self.kernel.check(r, Rights::READ)?;
        if !matches!(meta.kind, ObjectKind::Fifo | ObjectKind::Socket) {
            return Err(PcsiError::WrongKind {
                id: r.id(),
                expected: "fifo or socket",
                actual: meta.kind.name(),
            });
        }
        let fifo = self
            .inner()
            .fifos
            .borrow()
            .get(&r.id())
            .cloned()
            .ok_or(PcsiError::NotFound(r.id()))?;
        let msg = fifo.pop().await?;
        let home = self.inner().store.placement().primary(r.id());
        self.hop(home, self.node, msg.len()).await?;
        self.kernel
            .update_meta(r.id(), |m| m.size = m.size.saturating_sub(1));
        Ok(msg)
    }

    async fn set_mutability_impl(self, r: &Reference, to: Mutability) -> Result<(), PcsiError> {
        let meta = self.kernel.check(r, Rights::MANAGE)?;
        // Validate the Figure-1 transition before touching the store.
        meta.mutability.transition_to(to)?;
        if matches!(meta.kind, ObjectKind::Regular | ObjectKind::Function) {
            self.store_client()
                .set_mutability(r.id(), to, meta.consistency)
                .await?;
        }
        self.kernel.update_meta(r.id(), |m| {
            m.mutability = to;
            m.version += 1;
        });
        Ok(())
    }

    async fn delete_impl(self, r: &Reference) -> Result<(), PcsiError> {
        let meta = self.kernel.check(r, Rights::MANAGE)?;
        if matches!(
            meta.kind,
            ObjectKind::Regular | ObjectKind::Function | ObjectKind::Directory
        ) {
            // The store-level delete also drops node-local cached copies.
            self.store_client().delete(r.id()).await?;
        }
        self.inner().meta.borrow_mut().remove(&r.id());
        if let Some(fifo) = self.inner().fifos.borrow_mut().remove(&r.id()) {
            // Wake blocked poppers (they see the queue close) and end
            // any cross-node subscriptions after their buffered frames
            // drain.
            fifo.close();
            self.inner().publisher.close_object(r.id());
        }
        Ok(())
    }

    async fn link_impl(
        self,
        dir: &Reference,
        name: &str,
        target: &Reference,
    ) -> Result<(), PcsiError> {
        let dmeta = self.kernel.check(dir, Rights::WRITE)?;
        // Publishing a name delegates the target: GRANT required.
        self.kernel.check(target, Rights::GRANT)?;
        let mut d = self.load_dir(dir.id(), &dmeta).await?;
        d.link(name, DirEntry::new(target.id(), target.rights()))?;
        self.store_dir(dir.id(), &d).await
    }

    async fn unlink_impl(self, dir: &Reference, name: &str) -> Result<(), PcsiError> {
        let dmeta = self.kernel.check(dir, Rights::WRITE)?;
        let mut d = self.load_dir(dir.id(), &dmeta).await?;
        d.unlink(name)?;
        self.store_dir(dir.id(), &d).await
    }

    /// The one name resolver: `path` through `layers`, topmost first.
    /// The first segment is searched down the stack — the first layer
    /// holding the name decides, and a whiteout there hides it below —
    /// and every later segment in the one directory the previous one
    /// resolved to.
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
                let meta = self.kernel.check(layer, Rights::READ)?;
                let dir = self.read_dir(layer.id(), &meta).await?;
                let Some(entry) = Directory::find(&dir, seg)? else {
                    continue;
                };
                if !entry.whiteout {
                    let gen = {
                        let meta = self.inner().meta.borrow();
                        meta.get(&entry.id)
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

    async fn list_impl(self, dir: &Reference) -> Result<Vec<String>, PcsiError> {
        let meta = self.kernel.check(dir, Rights::READ)?;
        let d = self.load_dir(dir.id(), &meta).await?;
        Ok(d.names())
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
