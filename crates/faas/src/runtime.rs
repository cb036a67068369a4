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
use std::collections::VecDeque;

use fxhash::FxHashMap;
use std::rc::Rc;
use std::time::Duration;

use pcsi_core::api::{InvokeRequest, InvokeResponse};
use pcsi_core::PcsiError;
use pcsi_metrics::{Counter, Gauge, Histogram};
use pcsi_net::node::Resources;
use pcsi_net::NodeId;
use pcsi_obs::{Journal, JournalExt, Telemetry};
use pcsi_sim::{SimHandle, SimTime};
use pcsi_trace::Tracer;

use crate::autoscale::{
    AutoscaleConfig, PrewarmEdge, RateEstimator, MAX_ACTIONS_PER_SCAN, STEAL_HIGH, STEAL_LOW,
};
use crate::cluster::ClusterState;
use crate::function::{DataPlane, FnCtx, FunctionImage, Variant};
use crate::graph::{StageSpec, TaskGraph};
use crate::registry::{choose_variant, FunctionRegistry, Goal};
use crate::scheduler::{place_classed, Placed, PlacementPolicy, PlacementRequest};

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

struct WarmInstance {
    node: NodeId,
    idle_since: SimTime,
    demand: Resources,
    /// Scavenge-placed instances may be evicted to make room for a
    /// provisioned placement (see [`RuntimeConfig::preemption`]).
    preemptible: bool,
}

/// Per-key autoscaler state: the estimator, the variant to boot, and
/// the most recently computed pool target (the reaper's floor — idle
/// instances inside the predicted working set survive keep-alive).
struct KeyState {
    est: RateEstimator,
    variant: Variant,
    target: usize,
}

/// A reserved instance slot (see [`Runtime::reserve_placed`]).
///
/// Holding a lease means either a warm instance was taken out of the
/// pool or resources were allocated for a cold boot; `run_lease` turns it
/// back into a warm pool entry when the invocation finishes. A lease
/// dropped without running releases its allocation back to the cluster —
/// an abandoned reservation never leaks.
pub struct Lease {
    key: PoolKey,
    node: NodeId,
    cold_start: bool,
    preemptible: bool,
    /// Node eviction epoch at reservation time: if the node is evicted
    /// while the invocation is in flight, the instance is discarded
    /// instead of re-pooled.
    epoch: u64,
    demand: Resources,
    /// Armed until the lease is run: dropping an armed lease releases
    /// the allocation (the sandbox it stood for is gone either way).
    guard: Option<ClusterState>,
}

impl Lease {
    /// The node this lease is bound to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// True if running this lease will pay a cold start.
    pub fn is_cold(&self) -> bool {
        self.cold_start
    }

    /// Disarms the drop guard and decomposes the lease; the caller takes
    /// over the instance's accounting.
    fn into_parts(mut self) -> (PoolKey, NodeId, bool, bool, u64, Resources) {
        self.guard = None;
        (
            std::mem::take(&mut self.key),
            self.node,
            self.cold_start,
            self.preemptible,
            self.epoch,
            self.demand,
        )
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // Releasing is correct for both lease kinds: a cold reservation
        // never materialized an instance, and a warm instance was already
        // removed from the pool — dropping the lease destroys it.
        if let Some(cluster) = self.guard.take() {
            cluster.release(self.node, &self.demand);
        }
    }
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease")
            .field("key", &self.key)
            .field("node", &self.node)
            .field("cold_start", &self.cold_start)
            .field("preemptible", &self.preemptible)
            .field("demand", &self.demand)
            .finish()
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
    pools: RefCell<FxHashMap<PoolKey, VecDeque<WarmInstance>>>,
    /// Per-node eviction epoch: bumped by `evict_node` so in-flight
    /// invocations can detect that their node died under them.
    node_epochs: RefCell<Vec<u64>>,
    /// Autoscaler estimators per pool key (empty unless enabled).
    scaler: RefCell<FxHashMap<PoolKey, KeyState>>,
    /// Pre-warm boots currently in flight per key (so one scan does not
    /// over-boot while earlier boots are still sleeping).
    booting: RefCell<FxHashMap<PoolKey, usize>>,
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
            scaler: RefCell::new(FxHashMap::default()),
            booting: RefCell::new(FxHashMap::default()),
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
        let rt = Runtime {
            inner: Rc::new(inner),
        };
        rt.start_reaper();
        rt.start_autoscaler();
        rt
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

    /// Nodes currently holding a warm instance of a variant (the kernel
    /// feeds these to the placement policy).
    pub fn warm_nodes(&self, function: &str, variant: &str) -> Vec<NodeId> {
        self.inner
            .pools
            .borrow()
            .get(&(function.to_owned(), variant.to_owned()))
            .map(|p| p.iter().map(|w| w.node).collect())
            .unwrap_or_default()
    }

    /// Count of currently warm (idle) instances of a variant.
    pub fn warm_count(&self, function: &str, variant: &str) -> usize {
        self.inner
            .pools
            .borrow()
            .get(&(function.to_owned(), variant.to_owned()))
            .map(VecDeque::len)
            .unwrap_or(0)
    }

    /// Invokes `image`, letting the optimizer pick the variant for `goal`
    /// and the placement policy pick the node (optionally biased toward
    /// `hint`). Returns the response and the node that served it.
    pub async fn invoke(
        &self,
        image: &FunctionImage,
        goal: Goal,
        req: InvokeRequest,
        data: Rc<dyn DataPlane>,
        hint: Option<NodeId>,
    ) -> Result<(InvokeResponse, NodeId), PcsiError> {
        let variant = {
            let pools = self.inner.pools.borrow();
            let warm = |vname: &str| {
                pools
                    .get(&(image.name.clone(), vname.to_owned()))
                    .map(|p| !p.is_empty())
                    .unwrap_or(false)
            };
            choose_variant(image, req.body.len(), goal, warm)?.clone()
        };
        let lease = self.reserve_placed(image, &variant, hint)?;
        self.run_lease(lease, image, &variant, req, data, None)
            .await
    }

    /// Reserves an instance slot of `variant` on `node` and nowhere else
    /// (a graph plan's co-location): the node's warm instance if it has
    /// one, else a cold boot there. Counts as an arrival for the
    /// autoscaler like [`Runtime::reserve_placed`].
    pub fn reserve_on(
        &self,
        image: &FunctionImage,
        variant: &Variant,
        node: NodeId,
    ) -> Result<Lease, PcsiError> {
        self.note_arrival(image, variant);
        self.reserve_classed(image, variant, node, false)
    }

    /// Reserves an instance slot on `node` **synchronously**: a warm
    /// instance is taken from the pool, or resources are allocated for a
    /// cold boot. Because no `await` separates the placement decision
    /// from the reservation, callers that place-then-reserve in one
    /// synchronous section cannot race each other onto the same slot.
    /// `preemptible` is the capacity class for a cold boot: warm
    /// instances keep the class they were born with.
    ///
    /// The lease is normally passed to [`Runtime::run_lease`] (which
    /// releases it into the warm pool afterwards); a dropped lease
    /// releases its allocation back to the cluster instead.
    fn reserve_classed(
        &self,
        image: &FunctionImage,
        variant: &Variant,
        node: NodeId,
        preemptible: bool,
    ) -> Result<Lease, PcsiError> {
        let key: PoolKey = (image.name.clone(), variant.name.clone());
        let warm = {
            let mut pools = self.inner.pools.borrow_mut();
            match pools.get_mut(&key) {
                Some(pool) => {
                    let pos = pool.iter().position(|w| w.node == node);
                    pos.map(|i| pool.remove(i).expect("position valid"))
                }
                None => None,
            }
        };
        let (cold_start, preemptible) = match &warm {
            Some(w) => (false, w.preemptible),
            None => {
                if !self.inner.cluster.try_allocate(node, &variant.demand) {
                    self.inner.rejections.incr();
                    return Err(PcsiError::Overloaded(format!(
                        "node {node} cannot fit {:?}",
                        variant.demand
                    )));
                }
                (true, preemptible)
            }
        };
        Ok(Lease {
            key,
            node,
            cold_start,
            preemptible,
            epoch: self.inner.node_epochs.borrow()[node.0 as usize],
            demand: variant.demand,
            guard: Some(self.inner.cluster.clone()),
        })
    }

    /// Reserves wherever the policy puts it: warm-first, then placement
    /// (with preemption of scavenged instances if enabled). One
    /// synchronous section — safe under concurrency.
    pub fn reserve_placed(
        &self,
        image: &FunctionImage,
        variant: &Variant,
        hint: Option<NodeId>,
    ) -> Result<Lease, PcsiError> {
        self.note_arrival(image, variant);
        let warm_nodes = self.warm_nodes(&image.name, &variant.name);
        // Warm instances are always preferred — their resources are
        // already pinned and they skip the boot. The placement policy
        // governs where *new* instances go. Prefer a warm instance on the
        // hint node, then the lowest-id warm node (deterministic).
        let warm_choice = hint
            .filter(|h| warm_nodes.contains(h))
            .or_else(|| warm_nodes.iter().copied().min());
        if let Some(node) = warm_choice {
            return self.reserve_classed(image, variant, node, false);
        }
        // `place_instance` and `reserve_classed` share this synchronous
        // section: no other task can interleave between the decision and
        // the allocation.
        let placed = self.place_instance(variant.demand, hint).ok_or_else(|| {
            self.inner.rejections.incr();
            PcsiError::Overloaded(format!(
                "no node fits {:?} for {}/{}",
                variant.demand, image.name, variant.name
            ))
        })?;
        self.reserve_classed(image, variant, placed.node, placed.scavenged)
    }

    /// Places a new instance, evicting newest-idle preemptible instances
    /// as needed when preemption is enabled.
    fn place_instance(&self, demand: Resources, hint: Option<NodeId>) -> Option<Placed> {
        loop {
            let placed = place_classed(
                &self.inner.cluster,
                self.inner.config.policy,
                &PlacementRequest {
                    demand,
                    prefer_node: hint,
                },
            );
            if placed.is_some() {
                return placed;
            }
            if !self.inner.config.preemption || !self.preempt_one() {
                return None;
            }
        }
    }

    /// Evicts the newest-idle preemptible warm instance cluster-wide and
    /// releases its resources. Deterministic: ties break toward the
    /// lower (function, variant) key, then the lower node id. Returns
    /// false if no preemptible instance exists.
    fn preempt_one(&self) -> bool {
        let mut pools = self.inner.pools.borrow_mut();
        let mut best: Option<(SimTime, PoolKey, NodeId)> = None;
        for (key, pool) in pools.iter() {
            for w in pool.iter().filter(|w| w.preemptible) {
                let better = match &best {
                    None => true,
                    Some((t, k, n)) => {
                        w.idle_since > *t || (w.idle_since == *t && (key, w.node) < (k, *n))
                    }
                };
                if better {
                    best = Some((w.idle_since, key.clone(), w.node));
                }
            }
        }
        let Some((idle_since, key, node)) = best else {
            return false;
        };
        let pool = pools.get_mut(&key).expect("candidate pool exists");
        let pos = pool
            .iter()
            .position(|w| w.node == node && w.idle_since == idle_since && w.preemptible)
            .expect("candidate instance exists");
        let victim = pool.remove(pos).expect("position valid");
        self.inner.cluster.release(victim.node, &victim.demand);
        self.inner.preemptions.incr();
        self.inner.journal.with(|j| {
            j.append(
                "faas",
                "preemption",
                format!("fn={} variant={} node={}", key.0, key.1, node.0),
            );
        });
        true
    }

    /// Records an arrival for the autoscaler's estimators — including
    /// phantom arrivals for downstream stages of registered task graphs.
    fn note_arrival(&self, image: &FunctionImage, variant: &Variant) {
        if !self.inner.config.autoscale.enabled {
            return;
        }
        let mut scaler = self.inner.scaler.borrow_mut();
        for edge in self.inner.prewarm_edges.borrow().iter() {
            if edge.upstream == image.name {
                let key = (edge.function.clone(), edge.variant.name.clone());
                scaler
                    .entry(key)
                    .or_insert_with(|| KeyState {
                        est: RateEstimator::default(),
                        variant: edge.variant.clone(),
                        target: 0,
                    })
                    .est
                    .record_arrival();
            }
        }
        scaler
            .entry((image.name.clone(), variant.name.clone()))
            .or_insert_with(|| KeyState {
                est: RateEstimator::default(),
                variant: variant.clone(),
                target: 0,
            })
            .est
            .record_arrival();
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
        // Resolve the body first: failing here drops `lease`, whose
        // guard releases the reservation (an unknown image used to leak
        // its cold allocation forever).
        let body = self.inner.registry.borrow().body(&image.name)?;
        let (key, node, cold_start, preemptible, epoch, demand) = lease.into_parts();
        let span_of = |name| pcsi_trace::child_of(&self.inner.tracer, trace, name);
        let started = self.inner.handle.now();
        if cold_start {
            self.inner.cold_starts.incr();
            self.inner.journal.with(|j| {
                j.append(
                    "faas",
                    "cold_start",
                    format!("fn={} variant={} node={}", image.name, variant.name, node.0),
                );
            });
            let boot = variant.backend.cold_start();
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
        if self.inner.config.autoscale.enabled {
            if let Some(st) = self.inner.scaler.borrow_mut().get_mut(&key) {
                st.est.record_service(now - exec_started);
            }
        }

        // Return the instance to the warm pool regardless of outcome (a
        // failed invocation does not destroy the sandbox) — unless the
        // node was evicted mid-flight: then the sandbox died with the
        // node, so discard it and release the allocation `evict_node`
        // could not see (it only frees *pooled* instances).
        if self.inner.node_epochs.borrow()[node.0 as usize] == epoch {
            self.inner
                .pools
                .borrow_mut()
                .entry(key)
                .or_default()
                .push_back(WarmInstance {
                    node,
                    idle_since: now,
                    demand,
                    preemptible,
                });
        } else {
            self.inner.cluster.release(node, &demand);
        }

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
        self.inner.node_epochs.borrow_mut()[node.0 as usize] += 1;
        let mut pools = self.inner.pools.borrow_mut();
        for pool in pools.values_mut() {
            let mut kept = VecDeque::new();
            while let Some(w) = pool.pop_front() {
                if w.node == node {
                    self.inner.cluster.release(w.node, &w.demand);
                } else {
                    kept.push_back(w);
                }
            }
            *pool = kept;
        }
    }

    fn start_reaper(&self) {
        let inner = Rc::clone(&self.inner);
        let h = self.inner.handle.clone();
        h.clone().spawn(async move {
            loop {
                h.sleep(inner.config.reap_interval).await;
                let now = h.now();
                let mut pools = inner.pools.borrow_mut();
                let scaler = inner.scaler.borrow();
                for (key, pool) in pools.iter_mut() {
                    // The autoscaler's predicted working set is a reap
                    // floor: keep-alive only trims the excess, so pools
                    // the estimator still expects traffic for survive
                    // the night. Floors drop to zero as estimators
                    // idle-reset, so quiescent pools still fully drain.
                    let floor = if inner.config.autoscale.enabled {
                        scaler.get(key).map_or(0, |st| st.target)
                    } else {
                        0
                    };
                    let keep_alive = inner.config.keep_alive;
                    let mut kept = VecDeque::new();
                    while let Some(w) = pool.pop_front() {
                        let above_floor = kept.len() + pool.len() >= floor;
                        if above_floor && now.saturating_since(w.idle_since) > keep_alive {
                            inner.cluster.release(w.node, &w.demand);
                        } else {
                            kept.push_back(w);
                        }
                    }
                    *pool = kept;
                }
            }
        });
    }

    /// The pre-warmer: every scan interval, tick the estimators, boot
    /// toward the per-key targets, and run the work-stealing rebalance
    /// pass. Spawned only when the autoscaler is enabled; draws no
    /// randomness (virtual time and arrival counts only).
    fn start_autoscaler(&self) {
        if !self.inner.config.autoscale.enabled {
            return;
        }
        let inner = Rc::clone(&self.inner);
        let h = self.inner.handle.clone();
        h.clone().spawn(async move {
            let cfg = inner.config.autoscale.clone();
            let dt = cfg.interval.as_secs_f64();
            let alpha = cfg.alpha();
            let idle_limit = cfg.idle_limit();
            loop {
                h.sleep(cfg.interval).await;
                let mut actions = 0usize;
                // Tick every estimator and compute targets. Keys are
                // sorted so the scan order (and thus the boot order) is
                // independent of hash-map iteration order.
                let mut plans: Vec<(PoolKey, Variant, usize)> = Vec::new();
                {
                    let mut scaler = inner.scaler.borrow_mut();
                    let mut keys: Vec<PoolKey> = scaler.keys().cloned().collect();
                    keys.sort();
                    for key in keys {
                        let st = scaler.get_mut(&key).expect("key just listed");
                        st.est.tick(dt, alpha, idle_limit);
                        let target = st.est.target(st.variant.backend);
                        st.target = target;
                        if target > 0 {
                            plans.push((key, st.variant.clone(), target));
                        }
                    }
                }
                for (key, variant, target) in plans {
                    if actions >= MAX_ACTIONS_PER_SCAN {
                        break;
                    }
                    let have = {
                        let warm = inner
                            .pools
                            .borrow()
                            .get(&key)
                            .map(VecDeque::len)
                            .unwrap_or(0);
                        let booting = inner.booting.borrow().get(&key).copied().unwrap_or(0);
                        warm + booting
                    };
                    for _ in have..target {
                        if actions >= MAX_ACTIONS_PER_SCAN
                            || !Self::prewarm_one(&inner, &key, &variant)
                        {
                            break;
                        }
                        actions += 1;
                    }
                }
                Self::rebalance_pass(&inner, &mut actions);
            }
        });
    }

    /// Boots one instance toward a pool target. Placement never preempts
    /// (speculative capacity must not evict anything); the allocation is
    /// taken synchronously and the boot sleep runs in a spawned task that
    /// re-checks the node's eviction epoch before pooling.
    fn prewarm_one(inner: &Rc<Inner>, key: &PoolKey, variant: &Variant) -> bool {
        let placed = place_classed(
            &inner.cluster,
            inner.config.policy,
            &PlacementRequest {
                demand: variant.demand,
                prefer_node: None,
            },
        );
        let Some(placed) = placed else { return false };
        if !inner.cluster.try_allocate(placed.node, &variant.demand) {
            return false;
        }
        *inner.booting.borrow_mut().entry(key.clone()).or_insert(0) += 1;
        inner.prewarms.incr();
        let node = placed.node;
        let preemptible = placed.scavenged;
        let epoch = inner.node_epochs.borrow()[node.0 as usize];
        let demand = variant.demand;
        let boot = variant.backend.cold_start();
        let key = key.clone();
        let inner = Rc::clone(inner);
        let h = inner.handle.clone();
        h.clone().spawn(async move {
            h.sleep(boot).await;
            if let Some(b) = inner.booting.borrow_mut().get_mut(&key) {
                *b = b.saturating_sub(1);
            }
            if inner.node_epochs.borrow()[node.0 as usize] == epoch {
                inner
                    .pools
                    .borrow_mut()
                    .entry(key)
                    .or_default()
                    .push_back(WarmInstance {
                        node,
                        idle_since: h.now(),
                        demand,
                        preemptible,
                    });
            } else {
                inner.cluster.release(node, &demand);
            }
        });
        true
    }

    /// Work stealing: drains idle warm instances off nodes above the
    /// high watermark onto the least-utilized node below the low
    /// watermark, one at a time until watermarks hold or the action
    /// budget runs out. The moved instance re-boots on its new node.
    fn rebalance_pass(inner: &Rc<Inner>, actions: &mut usize) {
        while *actions < MAX_ACTIONS_PER_SCAN {
            // Newest-idle instance on any overloaded node (deterministic
            // tie-break on key then node, independent of map order).
            let mut cand: Option<(SimTime, PoolKey, NodeId)> = None;
            {
                let pools = inner.pools.borrow();
                for (key, pool) in pools.iter() {
                    for w in pool {
                        if inner.cluster.node_utilization(w.node) <= STEAL_HIGH {
                            continue;
                        }
                        let better = match &cand {
                            None => true,
                            Some((t, k, n)) => {
                                w.idle_since > *t || (w.idle_since == *t && (key, w.node) < (k, *n))
                            }
                        };
                        if better {
                            cand = Some((w.idle_since, key.clone(), w.node));
                        }
                    }
                }
            }
            let Some((idle_since, key, node)) = cand else {
                return;
            };
            let victim = {
                let mut pools = inner.pools.borrow_mut();
                let pool = pools.get_mut(&key).expect("candidate pool exists");
                let pos = pool
                    .iter()
                    .position(|w| w.node == node && w.idle_since == idle_since)
                    .expect("candidate instance exists");
                pool.remove(pos).expect("position valid")
            };
            let target = inner
                .cluster
                .nodes()
                .into_iter()
                .filter(|&n| {
                    n != node
                        && inner.cluster.node_utilization(n) < STEAL_LOW
                        && inner.cluster.fits(n, &victim.demand)
                })
                .min_by(|a, b| {
                    crate::scheduler::utilization_key(&inner.cluster, *a)
                        .cmp(&crate::scheduler::utilization_key(&inner.cluster, *b))
                        .then(a.cmp(b))
                });
            let Some(target) = target else {
                // Nowhere to put it: put the instance back and stop.
                inner
                    .pools
                    .borrow_mut()
                    .entry(key)
                    .or_default()
                    .push_back(victim);
                return;
            };
            inner.cluster.release(victim.node, &victim.demand);
            assert!(
                inner.cluster.try_allocate(target, &victim.demand),
                "fits() held in the same synchronous section"
            );
            inner.rebalances.incr();
            *actions += 1;
            // The stolen instance re-boots on its new node; track it as
            // booting so the pre-warmer does not double-fill the gap.
            *inner.booting.borrow_mut().entry(key.clone()).or_insert(0) += 1;
            let demand = victim.demand;
            let preemptible = victim.preemptible;
            let epoch = inner.node_epochs.borrow()[target.0 as usize];
            // Boot cost of the variant if the scaler knows it; a
            // container-class boot otherwise (the conservative case).
            let boot = inner
                .scaler
                .borrow()
                .get(&key)
                .map(|st| st.variant.backend.cold_start())
                .unwrap_or_else(|| crate::isolation::Backend::Container.cold_start());
            let key2 = key.clone();
            let inner2 = Rc::clone(inner);
            let h = inner.handle.clone();
            h.clone().spawn(async move {
                h.sleep(boot).await;
                if let Some(b) = inner2.booting.borrow_mut().get_mut(&key2) {
                    *b = b.saturating_sub(1);
                }
                if inner2.node_epochs.borrow()[target.0 as usize] == epoch {
                    inner2
                        .pools
                        .borrow_mut()
                        .entry(key2)
                        .or_default()
                        .push_back(WarmInstance {
                            node: target,
                            idle_since: h.now(),
                            demand,
                            preemptible,
                        });
                } else {
                    inner2.cluster.release(target, &demand);
                }
            });
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
        assert_eq!(rt.warm_count("work", "cpu"), 1);
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
        assert_eq!(rt.warm_count("work", "cpu"), 8);
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
                assert_eq!(rt.warm_count("work", "cpu"), 0);
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
                let lease = rt.reserve_on(&img, &variant, NodeId(3)).unwrap();
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
        assert_eq!(rt.warm_count("boom", "cpu"), 1);
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
                    rt.warm_count("work", "cpu"),
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
                assert_eq!(rt.warm_count("work", "cpu"), 32);
                // A new function finds no room — preemption makes some.
                let solo = FunctionImage::simple("solo", WorkModel::fixed(Duration::ZERO), 4);
                let res = rt
                    .invoke(&solo, Goal::MinLatency, request(), Rc::new(NoData), None)
                    .await;
                assert!(res.is_ok(), "preemption should make room: {res:?}");
            }
        });
        assert_eq!(rt.preemptions(), 1);
        assert_eq!(rt.warm_count("work", "cpu"), 31);
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
            rt.warm_count("transform", "cpu") > 0,
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
}
