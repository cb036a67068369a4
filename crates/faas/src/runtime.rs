//! The function runtime: warm pools, cold starts, autoscaling.
//!
//! The runtime realizes serverless execution semantics on the simulated
//! cluster: instances are created on demand (scale from zero), pay a
//! backend-specific cold start, serve one invocation at a time, linger
//! warm for a keep-alive window, and are reaped afterwards — releasing
//! their resources back to the cluster. "Abstraction that hides servers,
//! pay-per-use without capacity reservations, and autoscaling from zero"
//! (§2.4) falls out of this lifecycle.
//!
//! One `Instance` value carries a sandbox through all of it: allocated
//! (by a reservation, a pre-warm or a steal), booting, warm in its pool,
//! leased to an invocation, then warm again or released. It carries the
//! allocation it was made with, and `Inner::settle` is the one place it
//! re-enters a pool or gives that allocation back after it ran or booted.
//!
//! Two optional layers sit on top of the reactive core (both off by
//! default, see [`RuntimeConfig`]):
//!
//! * a **predictive autoscaler** ([`crate::autoscale`]) that estimates
//!   per-(function, variant) arrival rates and boots sandboxes ahead of
//!   demand — deep pools for slow-booting backends, shallow for Wasm —
//!   including phantom arrivals for downstream task-graph stages, and
//! * a **scavenged capacity class**: instances placed on consolidated
//!   spare capacity are tagged preemptible, and a placement that finds
//!   no room may evict the newest-idle preemptible instance instead of
//!   rejecting the request (§4.2's scavenging as a resource class, not
//!   just a policy).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::VecDeque;

use fxhash::FxHashMap;
use std::rc::Rc;
use std::time::Duration;

use pcsi_core::api::{InvokeRequest, InvokeResponse};
use pcsi_core::PcsiError;
use pcsi_metrics::{Counter, Gauge, Histogram};
use pcsi_net::node::Resources;
use pcsi_net::NodeId;
use pcsi_obs::{Journal, Telemetry};
use pcsi_sim::{SimHandle, SimTime};
use pcsi_trace::Tracer;

use crate::autoscale::{
    AutoscaleConfig, PrewarmEdge, RateEstimator, MAX_ACTIONS_PER_SCAN, STEAL_HIGH, STEAL_LOW,
};
use crate::cluster::ClusterState;
use crate::function::{DataPlane, FnCtx, FunctionImage, Variant};
use crate::graph::{StageSpec, TaskGraph};
use crate::isolation::Backend;
use crate::registry::{self, FunctionRegistry, Goal};
use crate::scheduler::{place, utilization_key, Placed, PlacementPolicy};

/// Runtime tuning knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Placement policy for new instances.
    pub policy: PlacementPolicy,
    /// How long an idle instance stays warm.
    pub keep_alive: Duration,
    /// How often the reaper scans for idle instances.
    pub reap_interval: Duration,
    /// When placement finds no room, evict the newest-idle preemptible
    /// (scavenge-placed) instance and retry instead of rejecting.
    pub preemption: bool,
    /// Predictive warm-pool autoscaler knobs (disabled by default).
    pub autoscale: AutoscaleConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            policy: PlacementPolicy::Locality,
            keep_alive: Duration::from_secs(60),
            reap_interval: Duration::from_secs(5),
            preemption: false,
            autoscale: AutoscaleConfig::default(),
        }
    }
}

type PoolKey = (String, String); // (function name, variant name)

/// One sandbox, from its allocation to its release.
#[derive(Clone, Copy)]
struct Instance {
    node: NodeId,
    /// What was allocated for it, and so what its release gives back —
    /// whichever variant of its pool later leases it.
    demand: Resources,
    /// What it boots as (a stolen instance re-boots with it).
    backend: Backend,
    /// Scavenge-placed instances may be evicted to make room for a
    /// provisioned placement (see [`RuntimeConfig::preemption`]).
    preemptible: bool,
    /// The node's eviction epoch when the instance was allocated there:
    /// one that runs or boots through an eviction is discarded instead
    /// of re-pooled.
    epoch: u64,
}

/// Everything the runtime keeps per (function, variant).
#[derive(Default)]
struct Pool {
    /// Idle instances and the instant each went idle, oldest first.
    warm: VecDeque<(SimTime, Instance)>,
    /// Pre-warm and steal boots in flight (so one scan does not
    /// over-boot while earlier boots are still sleeping).
    booting: usize,
    /// Autoscaler state; `None` unless the autoscaler is on and the key
    /// has seen an arrival (real or phantom).
    scaler: Option<KeyState>,
}

/// Per-key autoscaler state: the estimator, the variant to boot, and
/// the most recently computed pool target (the reaper's floor — idle
/// instances inside the predicted working set survive keep-alive).
struct KeyState {
    est: RateEstimator,
    variant: Variant,
    target: usize,
}

/// A reserved instance (see [`Runtime::reserve`]): a warm one taken out
/// of its pool, or one allocated for a cold boot.
///
/// [`Runtime::run_lease`] settles it back into the pool when the
/// invocation finishes. Until then the lease is armed: dropped unsettled
/// — never run, or abandoned mid-flight — it releases the instance's
/// allocation, so an abandoned reservation never leaks.
pub struct Lease {
    key: PoolKey,
    instance: Instance,
    cold_start: bool,
    guard: Option<ClusterState>,
}

impl Lease {
    /// The node this lease is bound to.
    pub fn node(&self) -> NodeId {
        self.instance.node
    }

    /// True if running this lease will pay a cold start.
    pub fn is_cold(&self) -> bool {
        self.cold_start
    }

    /// Disarms the lease and settles its instance.
    fn settle(mut self, inner: &Inner) {
        self.guard = None;
        inner.settle(std::mem::take(&mut self.key), self.instance);
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(cluster) = self.guard.take() {
            cluster.release(self.instance.node, &self.instance.demand);
        }
    }
}

/// The deployed function runtime. Cheap to clone.
#[derive(Clone)]
pub struct Runtime {
    inner: Rc<Inner>,
}

struct Inner {
    handle: SimHandle,
    cluster: ClusterState,
    registry: RefCell<FunctionRegistry>,
    config: RuntimeConfig,
    /// The pool table: one entry per (function, variant) the runtime has
    /// reserved, booted or predicted for.
    pools: RefCell<FxHashMap<PoolKey, Pool>>,
    /// Per-node eviction epoch: bumped by `evict_node` so in-flight
    /// invocations can detect that their node died under them.
    node_epochs: RefCell<Vec<u64>>,
    /// Graph-derived phantom-arrival rules.
    prewarm_edges: RefCell<Vec<PrewarmEdge>>,
    invocations: Counter,
    cold_starts: Counter,
    rejections: Counter,
    /// Invocations whose body returned an error.
    failures: Counter,
    /// Warm instances evicted to make room for another placement.
    preemptions: Counter,
    /// Instances booted proactively by the autoscaler.
    prewarms: Counter,
    /// Idle instances migrated off overloaded nodes.
    rebalances: Counter,
    /// Concurrent in-flight invocations right now (a gauge so the
    /// metrics registry can publish the live value).
    in_flight: Gauge,
    peak_in_flight: std::cell::Cell<u32>,
    /// Latency histograms, recorded only when metrics are on.
    hists: Option<FaasHists>,
    /// Optional tracer: invocations record cold-start and body spans
    /// under the caller's context.
    tracer: Option<Tracer>,
    /// Optional structured event journal: cold starts and preemptions
    /// record typed events. Absent means disabled.
    journal: Option<Journal>,
}

/// Histograms recorded per invocation when metrics are enabled.
struct FaasHists {
    /// Cold-start boot time, nanoseconds.
    cold_start_ns: Histogram,
    /// End-to-end invocation latency (cold start included), nanoseconds.
    invoke_ns: Histogram,
}

/// The nodes of the warm instances of `function`/`variant`, in pool
/// order. Compares names, so asking builds no key.
fn warm_on<'a>(
    pools: &'a FxHashMap<PoolKey, Pool>,
    function: &'a str,
    variant: &'a str,
) -> impl Iterator<Item = NodeId> + 'a {
    pools
        .iter()
        .filter(move |((f, v), _)| f == function && v == variant)
        .flat_map(|(_, pool)| pool.warm.iter().map(|(_, i)| i.node))
}

impl Runtime {
    /// Creates the runtime and starts its reaper task (plus the
    /// pre-warmer when the autoscaler is enabled). With metrics on, the
    /// always-on counters are published as named series and the latency
    /// histograms record; invocation spans record into the telemetry's
    /// tracer; cold starts and preemptions append to its journal.
    pub fn new(
        handle: SimHandle,
        cluster: ClusterState,
        config: RuntimeConfig,
        telemetry: &Telemetry,
    ) -> Self {
        let nodes = cluster.len();
        let mut inner = Inner {
            handle,
            cluster,
            registry: RefCell::new(FunctionRegistry::new()),
            config,
            pools: RefCell::new(FxHashMap::default()),
            node_epochs: RefCell::new(vec![0; nodes]),
            prewarm_edges: RefCell::new(Vec::new()),
            invocations: Counter::new(),
            cold_starts: Counter::new(),
            rejections: Counter::new(),
            failures: Counter::new(),
            preemptions: Counter::new(),
            prewarms: Counter::new(),
            rebalances: Counter::new(),
            in_flight: Gauge::new(),
            peak_in_flight: std::cell::Cell::new(0),
            hists: None,
            tracer: telemetry.tracer.clone(),
            journal: telemetry.journal.clone(),
        };
        if let Some(m) = &telemetry.metrics {
            m.bind_counter("faas.invocations", &[], &inner.invocations);
            m.bind_counter("faas.cold_starts", &[], &inner.cold_starts);
            m.bind_counter("faas.rejections", &[], &inner.rejections);
            m.bind_counter("faas.failures", &[], &inner.failures);
            m.bind_counter("faas.preemptions", &[], &inner.preemptions);
            m.bind_counter("faas.prewarms", &[], &inner.prewarms);
            m.bind_counter("faas.rebalances", &[], &inner.rebalances);
            m.bind_gauge("faas.in_flight", &[], &inner.in_flight);
            inner.hists = Some(FaasHists {
                cold_start_ns: m.histogram("faas.cold_start_ns", &[]),
                invoke_ns: m.histogram("faas.invoke_ns", &[]),
            });
        }
        let inner = Rc::new(inner);
        let reaper = Rc::clone(&inner);
        inner.handle.spawn_detached(async move {
            loop {
                reaper.handle.sleep(reaper.config.reap_interval).await;
                reaper.reap();
            }
        });
        // The pre-warmer draws no randomness (virtual time and arrival
        // counts only).
        if inner.config.autoscale.enabled {
            let scanner = Rc::clone(&inner);
            inner.handle.spawn_detached(async move {
                loop {
                    scanner
                        .handle
                        .sleep(scanner.config.autoscale.interval)
                        .await;
                    scanner.scan();
                }
            });
        }
        Runtime { inner }
    }

    /// Registers a host body for an image name.
    pub fn register_body(&self, name: &str, body: crate::function::FunctionBody) {
        self.inner.registry.borrow_mut().register(name, body);
    }

    /// Derives pre-warm rules from a task graph: every arrival at a
    /// stage's function counts as a phantom arrival for its consumers,
    /// so the autoscaler warms downstream pools before the upstream
    /// stage finishes. `variant_of` names the variant each downstream
    /// stage will run as (stages mapped to `None` are skipped). No-op
    /// unless the autoscaler is enabled.
    pub fn register_prewarm_graph(
        &self,
        graph: &TaskGraph,
        variant_of: impl Fn(&StageSpec) -> Option<Variant>,
    ) {
        let mut edges = crate::autoscale::edges_from_graph(graph, variant_of);
        self.inner.prewarm_edges.borrow_mut().append(&mut edges);
    }

    /// The cluster allocation state (experiments sample utilization here).
    pub fn cluster(&self) -> &ClusterState {
        &self.inner.cluster
    }

    /// Total invocations served.
    pub fn invocations(&self) -> u64 {
        self.inner.invocations.get()
    }

    /// Invocations that paid a cold start.
    pub fn cold_starts(&self) -> u64 {
        self.inner.cold_starts.get()
    }

    /// Invocations rejected for lack of resources.
    pub fn rejections(&self) -> u64 {
        self.inner.rejections.get()
    }

    /// Invocations whose body returned an error.
    pub fn failures(&self) -> u64 {
        self.inner.failures.get()
    }

    /// Warm instances evicted to make room for another placement.
    pub fn preemptions(&self) -> u64 {
        self.inner.preemptions.get()
    }

    /// Instances booted proactively by the autoscaler.
    pub fn prewarms(&self) -> u64 {
        self.inner.prewarms.get()
    }

    /// Idle instances migrated off overloaded nodes.
    pub fn rebalances(&self) -> u64 {
        self.inner.rebalances.get()
    }

    /// Highest concurrent in-flight invocation count observed.
    pub fn peak_concurrency(&self) -> u32 {
        self.inner.peak_in_flight.get()
    }

    /// The node of each warm (idle) instance of a variant, in pool order
    /// (graph planning co-locates stages where these overlap).
    pub fn warm_nodes(&self, function: &str, variant: &str) -> Vec<NodeId> {
        warm_on(&self.inner.pools.borrow(), function, variant).collect()
    }

    /// Invokes `image` as the variant [`Runtime::choose_variant`] picks
    /// for `goal`, reserved near `hint` and run at once. Returns the
    /// response and the node that served it.
    pub async fn invoke(
        &self,
        image: &FunctionImage,
        goal: Goal,
        req: InvokeRequest,
        data: Rc<dyn DataPlane>,
        hint: Option<NodeId>,
    ) -> Result<(InvokeResponse, NodeId), PcsiError> {
        let variant = self.choose_variant(image, None, req.body.len(), goal)?;
        let lease = self.reserve(image, variant, None, hint)?;
        self.run_lease(lease, image, variant, req, data, None).await
    }

    /// The variant of `image` to run: the one `named`, else the
    /// optimizer's pick for `goal` and a `payload_len`-byte request,
    /// knowing which variants have a warm instance somewhere.
    pub fn choose_variant<'a>(
        &self,
        image: &'a FunctionImage,
        named: Option<&str>,
        payload_len: usize,
        goal: Goal,
    ) -> Result<&'a Variant, PcsiError> {
        match named {
            Some(name) => image
                .variant(name)
                .ok_or_else(|| PcsiError::NoViableVariant(name.to_owned())),
            None => {
                let pools = self.inner.pools.borrow();
                registry::choose_variant(image, payload_len, goal, |v| {
                    warm_on(&pools, &image.name, v).next().is_some()
                })
            }
        }
    }

    /// Reserves an instance of `variant` **synchronously**: no `await`
    /// separates the choice of instance from the allocation, so callers
    /// that reserve in one synchronous section cannot race each other
    /// onto the same slot. Counts as an arrival for the autoscaler.
    ///
    /// A warm instance always wins — its resources are already pinned and
    /// it skips the boot — and is leased as it is, at the size it was
    /// allocated with. With `pin` the reservation is bound to that node (a
    /// graph plan's co-location): its warm instance, else a cold boot
    /// there. Without, it takes a warm instance on `near`, else one on the
    /// lowest-id node holding any, else a cold boot wherever the placement
    /// policy puts it (preferring `near`, and preempting scavenged
    /// instances if enabled). `Overloaded` when nothing fits.
    ///
    /// The lease is normally passed to [`Runtime::run_lease`]; dropping it
    /// releases its allocation instead.
    pub fn reserve(
        &self,
        image: &FunctionImage,
        variant: &Variant,
        pin: Option<NodeId>,
        near: Option<NodeId>,
    ) -> Result<Lease, PcsiError> {
        let inner = &*self.inner;
        let key: PoolKey = (image.name.clone(), variant.name.clone());
        inner.note_arrival(&key, variant);
        let warm = inner.pools.borrow_mut().get_mut(&key).and_then(|pool| {
            let on = |node| pool.warm.iter().position(|(_, i)| i.node == node);
            let lowest = || (0..pool.warm.len()).min_by_key(|&at| pool.warm[at].1.node);
            let at = match pin {
                Some(node) => on(node),
                None => near.and_then(on).or_else(lowest),
            }?;
            pool.warm.remove(at)
        });
        let (instance, cold_start) = match warm {
            Some((_, instance)) => (instance, false),
            None => {
                let at = match pin {
                    Some(node) => Some(Placed {
                        node,
                        scavenged: false,
                    }),
                    None => inner.place_instance(&variant.demand, near),
                };
                let Some(instance) = at.and_then(|at| inner.allocate(at, variant)) else {
                    inner.rejections.incr();
                    return Err(PcsiError::Overloaded(format!(
                        "no capacity for {}/{}",
                        image.name, variant.name
                    )));
                };
                (instance, true)
            }
        };
        Ok(Lease {
            key,
            instance,
            cold_start,
            guard: Some(inner.cluster.clone()),
        })
    }

    /// Runs an invocation on a reserved lease. With an incoming trace
    /// context the cold-start wait and the body execution record as child
    /// spans.
    pub async fn run_lease(
        &self,
        lease: Lease,
        image: &FunctionImage,
        variant: &Variant,
        req: InvokeRequest,
        data: Rc<dyn DataPlane>,
        trace: Option<pcsi_trace::TraceContext>,
    ) -> Result<(InvokeResponse, NodeId), PcsiError> {
        // Resolve the body first: failing here drops the armed lease,
        // which releases the reservation.
        let body = self.inner.registry.borrow().body(&image.name)?;
        let (node, cold_start) = (lease.node(), lease.cold_start);
        let span_of = |name| pcsi_trace::child_of(&self.inner.tracer, trace, name);
        let started = self.inner.handle.now();
        if cold_start {
            self.inner.cold_starts.incr();
            if let Some(j) = &self.inner.journal {
                j.append(
                    "faas",
                    "cold_start",
                    format!("fn={} variant={} node={}", image.name, variant.name, node.0),
                );
            }
            let boot = lease.instance.backend.cold_start();
            if let Some(h) = &self.inner.hists {
                h.cold_start_ns.record_duration(boot);
            }
            let cold_span = span_of("faas.cold_start");
            self.inner.handle.sleep(boot).await;
            cold_span.finish();
        }

        self.inner.invocations.incr();
        self.inner.in_flight.add(1);
        let in_flight = self.inner.in_flight.get().max(0) as u32;
        self.inner
            .peak_in_flight
            .set(self.inner.peak_in_flight.get().max(in_flight));

        let mut invoke_span = span_of("faas.invoke");
        invoke_span.attr("node", u64::from(node.0));

        // The isolation boundary crossing.
        self.inner
            .handle
            .sleep(variant.backend.call_overhead())
            .await;
        let exec_started = self.inner.handle.now();

        let ctx = FnCtx {
            body: req.body,
            inputs: req.inputs,
            outputs: req.outputs,
            data,
            handle: self.inner.handle.clone(),
            speedup: variant.speedup,
        };
        let result = body(ctx).await;
        invoke_span.finish();
        self.inner.in_flight.add(-1);

        let now = self.inner.handle.now();
        if let Some(st) = self
            .inner
            .pools
            .borrow_mut()
            .get_mut(&lease.key)
            .and_then(|pool| pool.scaler.as_mut())
        {
            st.est.record_service(now - exec_started);
        }
        // A failed invocation does not destroy the sandbox.
        lease.settle(&self.inner);

        // Latency is recorded on every outcome: error latencies (which
        // include cold-start time) count toward SLO attainment too.
        let billed = now - started;
        if let Some(h) = &self.inner.hists {
            h.invoke_ns.record_duration(billed);
        }
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                self.inner.failures.incr();
                return Err(e);
            }
        };
        Ok((
            InvokeResponse {
                body: out,
                billed_ns: billed.as_nanos() as u64,
                cold_start,
            },
            node,
        ))
    }

    /// Evicts every warm instance on `node` and releases its resources —
    /// the control plane's reaction to a node crash. In-flight
    /// invocations on the node fail through their own paths; this purges
    /// the pools so routing stops sending work there, and bumps the
    /// node's eviction epoch so in-flight instances are discarded on
    /// return instead of re-pooled onto a dead node.
    pub fn evict_node(&self, node: NodeId) {
        let inner = &*self.inner;
        inner.node_epochs.borrow_mut()[node.0 as usize] += 1;
        for pool in inner.pools.borrow_mut().values_mut() {
            pool.warm.retain(|(_, i)| {
                let dead = i.node == node;
                if dead {
                    inner.cluster.release(node, &i.demand);
                }
                !dead
            });
        }
    }
}

impl Inner {
    fn epoch(&self, node: NodeId) -> u64 {
        self.node_epochs.borrow()[node.0 as usize]
    }

    /// Allocates `variant`'s demand where `at` says: the birth of every
    /// instance. `None` (and no change) if it does not fit.
    fn allocate(&self, at: Placed, variant: &Variant) -> Option<Instance> {
        self.cluster
            .try_allocate(at.node, &variant.demand)
            .then(|| Instance {
                node: at.node,
                demand: variant.demand,
                backend: variant.backend,
                preemptible: at.scavenged,
                epoch: self.epoch(at.node),
            })
    }

    /// Where an instance goes once it has run or booted — the one place:
    /// back into its pool, idle from now, unless its node was evicted
    /// since it was allocated there. Then the sandbox died with the node,
    /// and its allocation is released here (`evict_node` frees only
    /// pooled instances).
    fn settle(&self, key: PoolKey, instance: Instance) {
        if self.epoch(instance.node) == instance.epoch {
            let idle = (self.handle.now(), instance);
            self.pools
                .borrow_mut()
                .entry(key)
                .or_default()
                .warm
                .push_back(idle);
        } else {
            self.cluster.release(instance.node, &instance.demand);
        }
    }

    /// Boots an allocated instance in the background: `booting += 1`, its
    /// backend's cold start, then [`Inner::settle`]. Pre-warms and steals
    /// boot here.
    fn boot(self: &Rc<Self>, key: PoolKey, instance: Instance) {
        self.pools
            .borrow_mut()
            .entry(key.clone())
            .or_default()
            .booting += 1;
        let inner = Rc::clone(self);
        self.handle.spawn_detached(async move {
            inner.handle.sleep(instance.backend.cold_start()).await;
            if let Some(pool) = inner.pools.borrow_mut().get_mut(&key) {
                pool.booting -= 1;
            }
            inner.settle(key, instance);
        });
    }

    /// Takes the newest-idle instance `eligible` admits out of its pool,
    /// cluster-wide, with the instant it went idle. Deterministic: ties
    /// break toward the lower (function, variant) key, then the lower
    /// node id, then the earlier place in the pool.
    fn take_newest_idle(
        &self,
        eligible: impl Fn(&Instance) -> bool,
    ) -> Option<(PoolKey, SimTime, Instance)> {
        let eligible = &eligible;
        let mut pools = self.pools.borrow_mut();
        let (_, key, _, at) = pools
            .iter()
            .flat_map(|(key, pool)| {
                pool.warm
                    .iter()
                    .enumerate()
                    .filter(move |(_, (_, i))| eligible(i))
                    .map(move |(at, (since, i))| (Reverse(*since), key, i.node, at))
            })
            .min()?;
        let key = key.clone();
        let (since, instance) = pools.get_mut(&key)?.warm.remove(at)?;
        Some((key, since, instance))
    }

    /// Places a new instance, evicting newest-idle preemptible instances
    /// as needed when preemption is enabled.
    fn place_instance(&self, demand: &Resources, near: Option<NodeId>) -> Option<Placed> {
        loop {
            let placed = place(&self.cluster, self.config.policy, demand, near);
            if placed.is_some() || !self.config.preemption || !self.preempt_one() {
                return placed;
            }
        }
    }

    /// Evicts the newest-idle preemptible warm instance cluster-wide and
    /// releases its resources. Returns false if none exists.
    fn preempt_one(&self) -> bool {
        let Some(((function, variant), _, victim)) = self.take_newest_idle(|i| i.preemptible)
        else {
            return false;
        };
        self.cluster.release(victim.node, &victim.demand);
        self.preemptions.incr();
        if let Some(j) = &self.journal {
            j.append(
                "faas",
                "preemption",
                format!("fn={function} variant={variant} node={}", victim.node.0),
            );
        }
        true
    }

    /// Records an arrival for the autoscaler's estimators — including
    /// phantom arrivals for downstream stages of registered task graphs.
    fn note_arrival(&self, key: &PoolKey, variant: &Variant) {
        if !self.config.autoscale.enabled {
            return;
        }
        let mut pools = self.pools.borrow_mut();
        let mut arrive = |key: PoolKey, variant: &Variant| {
            let pool = pools.entry(key).or_default();
            let st = pool.scaler.get_or_insert_with(|| KeyState {
                est: RateEstimator::default(),
                variant: variant.clone(),
                target: 0,
            });
            st.est.record_arrival();
        };
        for edge in self.prewarm_edges.borrow().iter() {
            if edge.upstream == key.0 {
                arrive(
                    (edge.function.clone(), edge.variant.name.clone()),
                    &edge.variant,
                );
            }
        }
        arrive(key.clone(), variant);
    }

    /// The reaper's pass: releases instances idle past keep-alive. The
    /// autoscaler's predicted working set is a reap floor: keep-alive only
    /// trims the excess, so pools the estimator still expects traffic for
    /// survive the night. Floors drop to zero as estimators idle-reset, so
    /// quiescent pools still fully drain.
    fn reap(&self) {
        let now = self.handle.now();
        for pool in self.pools.borrow_mut().values_mut() {
            let floor = pool.scaler.as_ref().map_or(0, |st| st.target);
            let mut left = pool.warm.len();
            pool.warm.retain(|(since, i)| {
                let reap = left > floor && now.saturating_since(*since) > self.config.keep_alive;
                if reap {
                    left -= 1;
                    self.cluster.release(i.node, &i.demand);
                }
                !reap
            });
        }
    }

    /// One pre-warmer scan: tick every estimator, boot toward the per-key
    /// targets, then run the work-stealing pass, all within one action
    /// budget.
    fn scan(self: &Rc<Self>) {
        let cfg = &self.config.autoscale;
        let (dt, alpha, idle_limit) = (cfg.interval.as_secs_f64(), cfg.alpha(), cfg.idle_limit());
        let mut plans: Vec<(PoolKey, Variant, usize)> = Vec::new();
        for (key, pool) in self.pools.borrow_mut().iter_mut() {
            if let Some(st) = &mut pool.scaler {
                st.est.tick(dt, alpha, idle_limit);
                st.target = st.est.target(st.variant.backend);
                if st.target > 0 {
                    plans.push((key.clone(), st.variant.clone(), st.target));
                }
            }
        }
        // Boot in key order, independent of hash-map iteration order.
        plans.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut actions = 0usize;
        for (key, variant, target) in plans {
            let have = self
                .pools
                .borrow()
                .get(&key)
                .map_or(0, |pool| pool.warm.len() + pool.booting);
            for _ in have..target {
                if actions >= MAX_ACTIONS_PER_SCAN || !self.prewarm_one(&key, &variant) {
                    break;
                }
                actions += 1;
            }
        }
        self.rebalance_pass(&mut actions);
    }

    /// Boots one instance toward a pool target. Placement never preempts
    /// (speculative capacity must not evict anything).
    fn prewarm_one(self: &Rc<Self>, key: &PoolKey, variant: &Variant) -> bool {
        let Some(instance) = place(&self.cluster, self.config.policy, &variant.demand, None)
            .and_then(|at| self.allocate(at, variant))
        else {
            return false;
        };
        self.prewarms.incr();
        self.boot(key.clone(), instance);
        true
    }

    /// Work stealing: drains idle warm instances off nodes above the
    /// high watermark onto the least-utilized node below the low
    /// watermark, one at a time until watermarks hold or the action
    /// budget runs out. The moved instance re-boots on its new node.
    fn rebalance_pass(self: &Rc<Self>, actions: &mut usize) {
        let cluster = &self.cluster;
        while *actions < MAX_ACTIONS_PER_SCAN {
            let Some((key, since, victim)) =
                self.take_newest_idle(|i| cluster.node_utilization(i.node) > STEAL_HIGH)
            else {
                return;
            };
            let target = cluster
                .nodes()
                .into_iter()
                .filter(|&n| {
                    n != victim.node
                        && cluster.node_utilization(n) < STEAL_LOW
                        && cluster.fits(n, &victim.demand)
                })
                .min_by_key(|&n| (utilization_key(cluster, n), n))
                // `fits` held just now, in this synchronous section.
                .filter(|&n| cluster.try_allocate(n, &victim.demand));
            let Some(target) = target else {
                // Nowhere to put it: back at the end of its pool, and stop.
                let mut pools = self.pools.borrow_mut();
                pools
                    .entry(key)
                    .or_default()
                    .warm
                    .push_back((since, victim));
                return;
            };
            cluster.release(victim.node, &victim.demand);
            self.rebalances.incr();
            *actions += 1;
            let moved = Instance {
                node: target,
                epoch: self.epoch(target),
                ..victim
            };
            self.boot(key, moved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::WorkModel;
    use bytes::Bytes;
    use pcsi_core::Reference;
    use pcsi_net::Topology;
    use pcsi_sim::executor::LocalBoxFuture;
    use pcsi_sim::Sim;

    /// A data plane that refuses everything (bodies in these tests only
    /// compute).
    struct NoData;

    impl DataPlane for NoData {
        fn read(&self, _: &Reference, _: u64, _: u64) -> LocalBoxFuture<Result<Bytes, PcsiError>> {
            Box::pin(async { Err(PcsiError::Fault("no data plane".into())) })
        }
        fn write(&self, _: &Reference, _: u64, _: Bytes) -> LocalBoxFuture<Result<(), PcsiError>> {
            Box::pin(async { Err(PcsiError::Fault("no data plane".into())) })
        }
        fn append(&self, _: &Reference, _: Bytes) -> LocalBoxFuture<Result<u64, PcsiError>> {
            Box::pin(async { Err(PcsiError::Fault("no data plane".into())) })
        }
        fn pop(&self, _: &Reference) -> LocalBoxFuture<Result<Bytes, PcsiError>> {
            Box::pin(async { Err(PcsiError::Fault("no data plane".into())) })
        }
        fn invoke(
            &self,
            _: &Reference,
            _: InvokeRequest,
        ) -> LocalBoxFuture<Result<InvokeResponse, PcsiError>> {
            Box::pin(async { Err(PcsiError::Fault("no data plane".into())) })
        }
    }

    fn setup(sim: &Sim) -> Runtime {
        setup_with(
            sim,
            RuntimeConfig {
                policy: PlacementPolicy::Locality,
                keep_alive: Duration::from_secs(10),
                reap_interval: Duration::from_secs(1),
                ..RuntimeConfig::default()
            },
        )
    }

    fn setup_with(sim: &Sim, config: RuntimeConfig) -> Runtime {
        let cluster = ClusterState::new(&Topology::uniform(2, 2));
        let rt = Runtime::new(sim.handle(), cluster, config, &Telemetry::default());
        rt.register_body(
            "work",
            Rc::new(|ctx: FnCtx| {
                Box::pin(async move {
                    ctx.compute(Duration::from_millis(10)).await;
                    Ok(ctx.body)
                })
            }),
        );
        rt
    }

    fn image() -> FunctionImage {
        FunctionImage::simple("work", WorkModel::fixed(Duration::from_millis(10)), 4)
    }

    fn request() -> InvokeRequest {
        InvokeRequest::with_body(&b"payload"[..])
    }

    fn total_allocated_cpu(rt: &Runtime) -> u32 {
        rt.cluster()
            .nodes()
            .iter()
            .map(|&n| rt.cluster().allocated(n).cpu)
            .sum()
    }

    #[test]
    fn cold_then_warm() {
        let mut sim = Sim::new(1);
        let rt = setup(&sim);
        let h = sim.handle();
        let (first, second) = sim.block_on({
            let rt = rt.clone();
            async move {
                let img = image();
                let t0 = h.now();
                let (r1, n1) = rt
                    .invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await
                    .unwrap();
                let d1 = h.now() - t0;
                let t1 = h.now();
                let (r2, n2) = rt
                    .invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await
                    .unwrap();
                let d2 = h.now() - t1;
                assert!(r1.cold_start);
                assert!(!r2.cold_start);
                assert_eq!(n1, n2, "warm reuse should stay on the same node");
                assert_eq!(&r2.body[..], b"payload");
                (d1, d2)
            }
        });
        // Cold pays the 250 ms container boot; warm is ~10 ms of work.
        assert!(first > Duration::from_millis(250), "first {first:?}");
        assert!(second < Duration::from_millis(15), "second {second:?}");
        assert_eq!(rt.cold_starts(), 1);
        assert_eq!(rt.invocations(), 2);
        assert_eq!(rt.warm_nodes("work", "cpu").len(), 1);
    }

    #[test]
    fn concurrency_scales_instances() {
        let mut sim = Sim::new(1);
        let rt = setup(&sim);
        let h = sim.handle();
        sim.block_on({
            let rt = rt.clone();
            let h = h.clone();
            async move {
                let img = image();
                let mut joins = Vec::new();
                for _ in 0..8 {
                    let rt = rt.clone();
                    let img = img.clone();
                    joins.push(h.spawn(async move {
                        rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                            .await
                            .unwrap()
                    }));
                }
                for j in joins {
                    j.await;
                }
            }
        });
        // 8 concurrent requests, one instance each (FaaS concurrency=1).
        assert_eq!(rt.cold_starts(), 8);
        assert_eq!(rt.peak_concurrency(), 8);
        assert_eq!(rt.warm_nodes("work", "cpu").len(), 8);
    }

    #[test]
    fn keep_alive_reaping_frees_resources() {
        let mut sim = Sim::new(1);
        let rt = setup(&sim);
        let h = sim.handle();
        sim.block_on({
            let rt = rt.clone();
            let h = h.clone();
            async move {
                let img = image();
                rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await
                    .unwrap();
                assert_eq!(
                    total_allocated_cpu(&rt),
                    4,
                    "instance pins its cores while warm"
                );
                // Sleep past keep-alive + reap interval.
                h.sleep(Duration::from_secs(15)).await;
                assert_eq!(
                    total_allocated_cpu(&rt),
                    0,
                    "reaper must release idle instances"
                );
                assert_eq!(rt.warm_nodes("work", "cpu").len(), 0);
            }
        });
    }

    #[test]
    fn exhaustion_yields_overloaded() {
        let mut sim = Sim::new(1);
        let rt = setup(&sim);
        // 4 nodes x 32 cores, 4 cores per instance: 32 instances fit.
        let h = sim.handle();
        let errors = sim.block_on({
            let rt = rt.clone();
            let h = h.clone();
            async move {
                let img = image();
                let mut joins = Vec::new();
                for _ in 0..40 {
                    let rt = rt.clone();
                    let img = img.clone();
                    joins.push(h.spawn(async move {
                        rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                            .await
                    }));
                }
                let mut errs = 0;
                for j in joins {
                    if j.await.is_err() {
                        errs += 1;
                    }
                }
                errs
            }
        });
        assert_eq!(errors, 8);
        assert_eq!(rt.rejections(), 8);
    }

    #[test]
    fn explicit_placement_respected() {
        let mut sim = Sim::new(1);
        let rt = setup(&sim);
        let node = sim.block_on({
            let rt = rt.clone();
            async move {
                let img = image();
                let variant = img.variant("cpu").unwrap().clone();
                let lease = rt.reserve(&img, &variant, Some(NodeId(3)), None).unwrap();
                let (_, node) = rt
                    .run_lease(lease, &img, &variant, request(), Rc::new(NoData), None)
                    .await
                    .unwrap();
                node
            }
        });
        assert_eq!(node, NodeId(3));
    }

    #[test]
    fn failing_body_surfaces_error_but_keeps_instance() {
        let mut sim = Sim::new(1);
        let rt = setup(&sim);
        rt.register_body(
            "boom",
            Rc::new(|_ctx| Box::pin(async { Err(PcsiError::FunctionFailed("kaput".into())) })),
        );
        let err = sim.block_on({
            let rt = rt.clone();
            async move {
                let img = FunctionImage::simple("boom", WorkModel::fixed(Duration::ZERO), 1);
                rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await
                    .unwrap_err()
            }
        });
        assert!(matches!(err, PcsiError::FunctionFailed(_)));
        assert_eq!(rt.warm_nodes("boom", "cpu").len(), 1);
    }

    #[test]
    fn billed_time_reflects_execution() {
        let mut sim = Sim::new(1);
        let rt = setup(&sim);
        let (cold_billed, warm_billed) = sim.block_on({
            let rt = rt.clone();
            async move {
                let img = image();
                let (r1, _) = rt
                    .invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await
                    .unwrap();
                let (r2, _) = rt
                    .invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await
                    .unwrap();
                (r1.billed_ns, r2.billed_ns)
            }
        });
        // Cold includes the 250 ms boot; warm is just the ~10 ms of work.
        assert!(cold_billed > 250_000_000);
        assert!(
            (9_000_000..15_000_000).contains(&warm_billed),
            "{warm_billed}"
        );
    }

    #[test]
    fn unknown_body_is_an_error() {
        let mut sim = Sim::new(1);
        let rt = setup(&sim);
        let err = sim.block_on({
            let rt = rt.clone();
            async move {
                let img = FunctionImage::simple("ghost", WorkModel::fixed(Duration::ZERO), 1);
                rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await
                    .unwrap_err()
            }
        });
        assert!(matches!(err, PcsiError::FunctionFailed(_)));
    }

    /// Regression (leaked cold-boot reservation): an invocation of an
    /// unregistered image allocates resources in `reserve` and then fails
    /// the body lookup — before the `Lease` drop guard, that allocation
    /// leaked forever and permanently shrank the cluster.
    #[test]
    fn unknown_body_releases_its_reservation() {
        let mut sim = Sim::new(1);
        let rt = setup(&sim);
        sim.block_on({
            let rt = rt.clone();
            async move {
                let img = FunctionImage::simple("ghost", WorkModel::fixed(Duration::ZERO), 1);
                rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await
                    .unwrap_err();
            }
        });
        assert_eq!(
            total_allocated_cpu(&rt),
            0,
            "failed body lookup must release the cold-boot reservation"
        );
    }

    /// Regression (re-pooling onto an evicted node): an instance whose
    /// node is evicted mid-flight used to return to the warm pool anyway,
    /// routing new work to a dead node and later double-releasing in the
    /// reaper. The eviction epoch discards it and releases its in-flight
    /// allocation (which `evict_node` could not see).
    #[test]
    fn evict_mid_flight_discards_the_returning_instance() {
        let mut sim = Sim::new(1);
        let rt = setup(&sim);
        let h = sim.handle();
        sim.block_on({
            let rt = rt.clone();
            let h = h.clone();
            async move {
                let img = image();
                let join = h.spawn({
                    let rt = rt.clone();
                    let img = img.clone();
                    async move {
                        rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                            .await
                    }
                });
                // Past the 250 ms boot, inside the 10 ms body.
                h.sleep(Duration::from_millis(255)).await;
                let node = rt.warm_nodes("work", "cpu");
                assert!(node.is_empty(), "instance is in flight, not pooled");
                rt.evict_node(NodeId(0));
                let res = join.await;
                assert!(res.is_ok(), "the body itself completes");
                assert_eq!(
                    rt.warm_nodes("work", "cpu").len(),
                    0,
                    "evicted node must not re-enter the pool"
                );
                assert_eq!(total_allocated_cpu(&rt), 0, "allocation must balance");
                // A reap cycle later nothing double-releases (would panic).
                h.sleep(Duration::from_secs(15)).await;
            }
        });
    }

    /// Regression (failed invocations invisible to latency metrics):
    /// error latencies now land in `faas.invoke_ns` and bump the
    /// `faas.failures` counter.
    #[test]
    fn failed_invocations_record_latency_and_failures() {
        let mut sim = Sim::new(1);
        let m = pcsi_metrics::Metrics::new();
        let rt = Runtime::new(
            sim.handle(),
            ClusterState::new(&Topology::uniform(2, 2)),
            RuntimeConfig::default(),
            &Telemetry {
                metrics: Some(m.clone()),
                ..Telemetry::default()
            },
        );
        rt.register_body(
            "boom",
            Rc::new(|_ctx| Box::pin(async { Err(PcsiError::FunctionFailed("kaput".into())) })),
        );
        sim.block_on({
            let rt = rt.clone();
            async move {
                let img = FunctionImage::simple("boom", WorkModel::fixed(Duration::ZERO), 1);
                rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await
                    .unwrap_err();
            }
        });
        assert_eq!(rt.failures(), 1);
        let invoke_ns = m.histogram("faas.invoke_ns", &[]);
        assert_eq!(
            invoke_ns.count(),
            1,
            "the failed invocation's latency must be recorded"
        );
    }

    /// A provisioned placement that finds no room evicts the newest-idle
    /// scavenged instance instead of rejecting.
    #[test]
    fn preemption_reclaims_scavenged_capacity() {
        let mut sim = Sim::new(1);
        let rt = setup_with(
            &sim,
            RuntimeConfig {
                policy: PlacementPolicy::Scavenge,
                keep_alive: Duration::from_secs(100),
                reap_interval: Duration::from_secs(1),
                preemption: true,
                ..RuntimeConfig::default()
            },
        );
        rt.register_body(
            "solo",
            Rc::new(|ctx: FnCtx| Box::pin(async move { Ok(ctx.body) })),
        );
        let h = sim.handle();
        sim.block_on({
            let rt = rt.clone();
            let h = h.clone();
            async move {
                // Fill the whole cluster (4 nodes x 32 cores / 4-core
                // instances = 32) with scavenge-placed warm instances.
                let img = image();
                let mut joins = Vec::new();
                for _ in 0..32 {
                    let rt = rt.clone();
                    let img = img.clone();
                    joins.push(h.spawn(async move {
                        rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                            .await
                            .unwrap()
                    }));
                }
                for j in joins {
                    j.await;
                }
                assert_eq!(rt.warm_nodes("work", "cpu").len(), 32);
                // A new function finds no room — preemption makes some.
                let solo = FunctionImage::simple("solo", WorkModel::fixed(Duration::ZERO), 4);
                let res = rt
                    .invoke(&solo, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await;
                assert!(res.is_ok(), "preemption should make room: {res:?}");
            }
        });
        assert_eq!(rt.preemptions(), 1);
        assert_eq!(rt.warm_nodes("work", "cpu").len(), 31);
        assert_eq!(rt.rejections(), 0);
    }

    /// The pre-warmer boots instances ahead of steady traffic so later
    /// arrivals stop paying cold starts.
    #[test]
    fn prewarmer_boots_ahead_of_demand() {
        let mut sim = Sim::new(1);
        let rt = setup_with(
            &sim,
            RuntimeConfig {
                policy: PlacementPolicy::Locality,
                keep_alive: Duration::from_secs(10),
                reap_interval: Duration::from_secs(1),
                autoscale: AutoscaleConfig {
                    interval: Duration::from_millis(100),
                    window: Duration::from_secs(2),
                    ..AutoscaleConfig::enabled()
                },
                ..RuntimeConfig::default()
            },
        );
        let h = sim.handle();
        sim.block_on({
            let rt = rt.clone();
            let h = h.clone();
            async move {
                let img = image();
                let fire = |rt: Runtime, img: FunctionImage| async move {
                    let _ = rt
                        .invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                        .await;
                };
                // Ramp: 10 rps for 1.5 s, then a 100 rps burst for 2.5 s.
                // The estimator sees the rise and boots the pool deeper
                // than reactive traffic alone would have.
                for _ in 0..15 {
                    h.spawn(fire(rt.clone(), img.clone()));
                    h.sleep(Duration::from_millis(100)).await;
                }
                for _ in 0..250 {
                    h.spawn(fire(rt.clone(), img.clone()));
                    h.sleep(Duration::from_millis(10)).await;
                }
            }
        });
        assert!(rt.prewarms() >= 1, "prewarms {}", rt.prewarms());
        assert!(
            rt.cold_starts() <= 8,
            "the predictive pool should absorb the burst warm: {} cold starts",
            rt.cold_starts()
        );
    }

    /// Arrivals at an upstream task-graph stage warm the downstream
    /// stage's pool before any downstream invocation happens.
    #[test]
    fn graph_edges_prewarm_downstream_stages() {
        let mut sim = Sim::new(1);
        let rt = setup_with(
            &sim,
            RuntimeConfig {
                policy: PlacementPolicy::Locality,
                keep_alive: Duration::from_secs(10),
                reap_interval: Duration::from_secs(1),
                autoscale: AutoscaleConfig {
                    interval: Duration::from_millis(100),
                    window: Duration::from_secs(2),
                    ..AutoscaleConfig::enabled()
                },
                ..RuntimeConfig::default()
            },
        );
        let graph = TaskGraph::linear(&["work", "transform"]);
        rt.register_prewarm_graph(&graph, |stage| {
            (stage.function == "transform").then(|| Variant::cpu(2))
        });
        let h = sim.handle();
        sim.block_on({
            let rt = rt.clone();
            let h = h.clone();
            async move {
                let img = image();
                for _ in 0..150 {
                    let rt = rt.clone();
                    let img = img.clone();
                    h.spawn(async move {
                        let _ = rt
                            .invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                            .await;
                    });
                    h.sleep(Duration::from_millis(20)).await;
                }
            }
        });
        assert!(
            !rt.warm_nodes("transform", "cpu").is_empty(),
            "downstream pool must be pre-warmed by upstream arrivals"
        );
    }

    /// Idle instances on a node above the high watermark migrate to an
    /// underutilized node.
    #[test]
    fn rebalance_drains_an_overloaded_node() {
        let mut sim = Sim::new(1);
        let rt = setup_with(
            &sim,
            RuntimeConfig {
                policy: PlacementPolicy::Scavenge,
                keep_alive: Duration::from_secs(100),
                reap_interval: Duration::from_secs(10),
                autoscale: AutoscaleConfig {
                    interval: Duration::from_millis(100),
                    window: Duration::from_secs(2),
                    ..AutoscaleConfig::enabled()
                },
                ..RuntimeConfig::default()
            },
        );
        let h = sim.handle();
        sim.block_on({
            let rt = rt.clone();
            let h = h.clone();
            async move {
                // Scavenge packs 8 x 4-core instances onto node 0 (full).
                let img = image();
                let mut joins = Vec::new();
                for _ in 0..8 {
                    let rt = rt.clone();
                    let img = img.clone();
                    joins.push(h.spawn(async move {
                        rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                            .await
                            .unwrap()
                    }));
                }
                for j in joins {
                    j.await;
                }
                // Let the autoscaler run a few scans.
                h.sleep(Duration::from_secs(2)).await;
            }
        });
        assert!(rt.rebalances() >= 1, "rebalances {}", rt.rebalances());
        let nodes = rt.warm_nodes("work", "cpu");
        assert!(
            nodes.iter().any(|&n| n != NodeId(0)),
            "some instance must have moved off node 0: {nodes:?}"
        );
    }

    /// The autoscaler's target is the reaper's floor: idle instances up
    /// to it outlive keep-alive (so the pre-warmer has nothing to reboot),
    /// the excess is trimmed, and the pool drains to zero once the key's
    /// estimator idle-resets.
    #[test]
    fn reaper_keeps_the_predicted_working_set_until_the_key_idles() {
        let mut sim = Sim::new(1);
        let rt = setup_with(
            &sim,
            RuntimeConfig {
                policy: PlacementPolicy::Locality,
                keep_alive: Duration::from_millis(500),
                reap_interval: Duration::from_millis(100),
                autoscale: AutoscaleConfig {
                    interval: Duration::from_millis(100),
                    window: Duration::from_secs(2),
                    ..AutoscaleConfig::enabled()
                },
                ..RuntimeConfig::default()
            },
        );
        let h = sim.handle();
        let (at_stop, past_keep_alive) = sim.block_on({
            let rt = rt.clone();
            let h = h.clone();
            async move {
                let img = image();
                // 50 rps for 2 s, then silence.
                for _ in 0..100 {
                    let rt = rt.clone();
                    let img = img.clone();
                    h.spawn(async move {
                        let _ = rt
                            .invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                            .await;
                    });
                    h.sleep(Duration::from_millis(20)).await;
                }
                h.sleep(Duration::from_millis(300)).await;
                let at_stop = (rt.warm_nodes("work", "cpu").len(), rt.prewarms());
                // Every instance has now idled past the 500 ms keep-alive;
                // the key has not idled for its 2 s window yet.
                h.sleep(Duration::from_millis(700)).await;
                let past_keep_alive = (rt.warm_nodes("work", "cpu").len(), rt.prewarms());
                // Past the window: the estimator resets and the floor with it.
                h.sleep(Duration::from_secs(3)).await;
                assert_eq!(
                    rt.warm_nodes("work", "cpu").len(),
                    0,
                    "quiescent pools drain"
                );
                assert_eq!(total_allocated_cpu(&rt), 0);
                (at_stop, past_keep_alive)
            }
        });
        let ((warm_at_stop, prewarms), (warm_later, prewarms_later)) = (at_stop, past_keep_alive);
        assert!(prewarms > 0, "the autoscaler pre-warmed during the traffic");
        assert!(
            0 < warm_later && warm_later < warm_at_stop,
            "the floor keeps part of the pool past keep-alive: {warm_at_stop} -> {warm_later}"
        );
        assert_eq!(
            prewarms_later, prewarms,
            "nothing under the floor was reaped and rebooted"
        );
    }

    /// Two preemptible instances idle since the same instant on node 0,
    /// in pools `a` and `b` (each one invocation, `b` first). Fills the
    /// rest of the cluster by hand and returns the runtime.
    fn two_tied_idle_instances(sim: &mut Sim, autoscale: AutoscaleConfig) -> Runtime {
        let rt = setup_with(
            sim,
            RuntimeConfig {
                policy: PlacementPolicy::Scavenge,
                keep_alive: Duration::from_secs(100),
                reap_interval: Duration::from_secs(10),
                preemption: true,
                autoscale,
            },
        );
        for name in ["a", "b", "c"] {
            rt.register_body(
                name,
                Rc::new(|ctx: FnCtx| Box::pin(async move { Ok(ctx.body) })),
            );
        }
        let h = sim.handle();
        sim.block_on({
            let rt = rt.clone();
            async move {
                let joins: Vec<_> = ["b", "a"]
                    .into_iter()
                    .map(|name| {
                        let rt = rt.clone();
                        let img = FunctionImage::simple(name, WorkModel::fixed(Duration::ZERO), 4);
                        h.spawn(async move {
                            rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                                .await
                                .unwrap()
                        })
                    })
                    .collect();
                for j in joins {
                    j.await;
                }
            }
        });
        assert_eq!(rt.warm_nodes("a", "cpu"), vec![NodeId(0)]);
        assert_eq!(rt.warm_nodes("b", "cpu"), vec![NodeId(0)]);
        rt
    }

    /// A preemption between two instances idle since the same instant
    /// takes the one in the lower (function, variant) pool.
    #[test]
    fn preemption_ties_break_toward_the_lower_pool_key() {
        let mut sim = Sim::new(1);
        let rt = two_tied_idle_instances(&mut sim, AutoscaleConfig::default());
        rt.cluster().try_allocate(NodeId(0), &Resources::cpu(24, 0));
        for n in 1..4 {
            rt.cluster().try_allocate(NodeId(n), &Resources::cpu(32, 0));
        }
        sim.block_on({
            let rt = rt.clone();
            async move {
                let img = FunctionImage::simple("c", WorkModel::fixed(Duration::ZERO), 4);
                rt.invoke(&img, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await
                    .unwrap();
            }
        });
        assert_eq!(rt.preemptions(), 1);
        assert_eq!(
            rt.warm_nodes("a", "cpu").len(),
            0,
            "a's instance is the victim"
        );
        assert_eq!(rt.warm_nodes("b", "cpu").len(), 1);
        assert_eq!(rt.warm_nodes("c", "cpu"), vec![NodeId(0)]);
    }

    /// The steal pass breaks the same tie the same way: on one overloaded
    /// node, the instance in the lower pool moves.
    #[test]
    fn steal_ties_break_toward_the_lower_pool_key() {
        let mut sim = Sim::new(1);
        let rt = two_tied_idle_instances(
            &mut sim,
            AutoscaleConfig {
                interval: Duration::from_millis(100),
                window: Duration::from_secs(2),
                ..AutoscaleConfig::enabled()
            },
        );
        // Node 0 at 100%: moving one 4-core instance brings it to 87.5%,
        // under the high watermark, so exactly one moves.
        rt.cluster().try_allocate(NodeId(0), &Resources::cpu(24, 0));
        let h = sim.handle();
        sim.block_on(async move { h.sleep(Duration::from_secs(1)).await });
        assert_eq!(rt.rebalances(), 1);
        assert_eq!(rt.prewarms(), 0);
        assert_eq!(
            rt.warm_nodes("a", "cpu"),
            vec![NodeId(1)],
            "a's instance moves"
        );
        assert_eq!(rt.warm_nodes("b", "cpu"), vec![NodeId(0)]);
    }
}
