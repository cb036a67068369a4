//! One-call deployment of a simulated cloud.
//!
//! [`CloudBuilder`] wires the substrates together in the right order:
//! telemetry → topology → fabric → replicated store → cluster state →
//! runtime → kernel → devices. The [`Telemetry`] (registry, tracer,
//! journal) comes first because every later constructor takes it.
//! Experiments and examples construct everything through the builder so
//! configurations stay comparable.

use std::time::Duration;

use pcsi_faas::cluster::ClusterState;
use pcsi_faas::registry::Goal;
use pcsi_faas::runtime::{Runtime, RuntimeConfig};
use pcsi_faas::scheduler::PlacementPolicy;
use pcsi_metrics::Metrics;
use pcsi_net::{Fabric, LatencyModel, NetworkGeneration, Topology};
use pcsi_obs::{Obs, ObsConfig, Telemetry};
use pcsi_sim::SimHandle;
use pcsi_store::{ReplicatedStore, StoreConfig};
use pcsi_trace::{Sampling, Tracer};

use crate::billing::Billing;
use crate::kernel::Kernel;

/// Retained-message bound of the control plane's `alerts` FIFO. With no
/// subscriber the queue keeps the newest `ALERTS_FIFO_CAPACITY` lines
/// (oldest evicted — the kernel never blocks on its own control
/// stream); with subscribers the stream layer's credit flow applies.
pub(crate) const ALERTS_FIFO_CAPACITY: usize = 256;

/// Registers the standard device classes every namespace can expect
/// (§3.2's "device interfaces to system services").
///
/// * `clock` — read returns the current virtual time as nanoseconds
///   (little-endian u64),
/// * `random` — read returns 32 deterministic pseudo-random bytes from
///   the simulation's `device-random` stream,
/// * `null` — accepts and discards writes, reads empty,
/// * `log` — writes append to a kernel-held diagnostic log; reads return
///   the whole log (bounded at 64 KiB),
/// * `metrics` — read returns the rendered metrics snapshot of the
///   deployment's registry (a marker comment when metrics are off), so a
///   function can observe the system with a plain file read through its
///   capability-scoped namespace,
/// * `events` — a read at offset `N` returns the rendered structured
///   event journal from sequence number `N` on (a marker comment when
///   observability is off): offset 0 is the whole journal, and a tailing
///   client reads at the header's `appended` count to get only what is
///   new. The cursor is the reader's own offset, so every reader tails
///   independently. Writes are discarded.
fn register_standard_devices(kernel: &Kernel, handle: &SimHandle, telemetry: &Telemetry) {
    use bytes::Bytes;
    use pcsi_fs::device::DeviceOp;
    use std::cell::RefCell;
    use std::rc::Rc;

    let h = handle.clone();
    kernel.register_device(
        "clock",
        Rc::new(move |_input| Ok(Bytes::from(h.now().as_nanos().to_le_bytes().to_vec()))),
    );

    let rng = handle.rng().stream("device-random");
    kernel.register_device(
        "random",
        Rc::new(move |_input| {
            let mut buf = vec![0u8; 32];
            rng.fill_bytes(&mut buf);
            Ok(Bytes::from(buf))
        }),
    );

    kernel.register_device("null", Rc::new(|_input| Ok(Bytes::new())));

    let log: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    kernel.register_device(
        "log",
        Rc::new(move |op| {
            let mut l = log.borrow_mut();
            match op {
                DeviceOp::Read { .. } => Ok(Bytes::from(l.clone())),
                DeviceOp::Write(input) => {
                    if l.len() + input.len() <= 64 * 1024 {
                        l.extend_from_slice(&input);
                    }
                    Ok(Bytes::new())
                }
            }
        }),
    );

    // The class is registered even when metrics are off, so namespaces
    // (and the programs reading them) look identical either way — only
    // the snapshot's contents differ.
    let metrics = telemetry.metrics.clone();
    kernel.register_device(
        "metrics",
        Rc::new(move |_input| match &metrics {
            Some(m) => Ok(Bytes::from(m.render())),
            None => Ok(Bytes::from_static(b"# pcsi-metrics disabled\n")),
        }),
    );

    // Like `metrics`, the class exists either way so namespaces look
    // identical; only the journal's presence differs.
    let journal = telemetry.journal.clone();
    kernel.register_device(
        "events",
        Rc::new(move |op| match (&journal, op) {
            (_, DeviceOp::Write(_)) => Ok(Bytes::new()),
            (None, DeviceOp::Read { .. }) => Ok(Bytes::from_static(b"# pcsi-obs disabled\n")),
            (Some(j), DeviceOp::Read { offset }) => Ok(Bytes::from(j.render_since(offset))),
        }),
    );
}

/// Configuration for a simulated cloud deployment.
#[derive(Clone)]
pub struct CloudBuilder {
    topology: Topology,
    generation: NetworkGeneration,
    deterministic_net: bool,
    store: StoreConfig,
    runtime: RuntimeConfig,
    sampling: Sampling,
    trace_capacity: usize,
    metrics: bool,
    observability: Option<ObsConfig>,
}

impl Default for CloudBuilder {
    fn default() -> Self {
        CloudBuilder {
            topology: Topology::heterogeneous(2, 4),
            generation: NetworkGeneration::Dc2021,
            deterministic_net: false,
            store: StoreConfig::default(),
            runtime: RuntimeConfig::default(),
            sampling: Sampling::Off,
            trace_capacity: 16384,
            metrics: false,
            observability: None,
        }
    }
}

impl CloudBuilder {
    /// Starts from defaults: 2 compute racks × 4 nodes plus a GPU rack
    /// and a TPU rack, 2021 network, 3-replica NVMe store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cluster topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Sets the network generation.
    pub fn network(mut self, g: NetworkGeneration) -> Self {
        self.generation = g;
        self
    }

    /// Disables network jitter (calibration runs).
    pub fn deterministic_network(mut self) -> Self {
        self.deterministic_net = true;
        self
    }

    /// Sets the store configuration.
    pub fn store(mut self, c: StoreConfig) -> Self {
        self.store = c;
        self
    }

    /// Restricts the initial storage placement ring to `nodes`
    /// (shorthand over [`CloudBuilder::store`]). Replica engines still
    /// launch on every node, so the excluded ones are warm standbys a
    /// later [`ReplicatedStore::join_node`] can admit without restarts.
    pub fn storage_ring(mut self, nodes: Vec<pcsi_net::NodeId>) -> Self {
        self.store.ring_nodes = Some(nodes);
        self
    }

    /// Sets the FaaS runtime's placement policy.
    pub fn placement(mut self, p: PlacementPolicy) -> Self {
        self.runtime.policy = p;
        self
    }

    /// Sets the FaaS runtime's instance keep-alive window.
    pub fn keep_alive(mut self, d: Duration) -> Self {
        self.runtime.keep_alive = d;
        self
    }

    /// Enables (or tunes) the FaaS runtime's predictive warm-pool
    /// autoscaler. Off by default.
    pub fn autoscale(mut self, c: pcsi_faas::AutoscaleConfig) -> Self {
        self.runtime.autoscale = c;
        self
    }

    /// Lets provisioned placements evict scavenged warm instances when
    /// the cluster is full.
    pub fn preemption(mut self, enabled: bool) -> Self {
        self.runtime.preemption = enabled;
        self
    }

    /// Enables distributed tracing at the given sampling policy.
    ///
    /// The default is [`Sampling::Off`]: no tracer is created, no span
    /// IDs are drawn, and every layer's instrumentation collapses to a
    /// no-op, so untraced runs are bit-for-bit identical to builds of
    /// this crate that predate tracing.
    pub fn tracing(mut self, s: Sampling) -> Self {
        self.sampling = s;
        self
    }

    /// Caps the number of finished spans retained in the trace sink
    /// (oldest evicted first). Default 16384.
    pub fn trace_capacity(mut self, spans: usize) -> Self {
        self.trace_capacity = spans;
        self
    }

    /// Enables the unified metrics registry: every layer (kernel ops,
    /// store client, replica protocol, fabric, FaaS runtime, baselines)
    /// publishes its counters and latency histograms into one registry,
    /// readable as a text snapshot through the `metrics` device class.
    ///
    /// The default is off: no registry exists, instrumentation collapses
    /// to a per-event `Option` check, and — because the registry draws
    /// no randomness and never touches virtual time — enabling it cannot
    /// perturb a seeded run either way.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Enables the observability control plane: a structured event
    /// journal every layer appends typed records to (exposed as the
    /// `events` device), an SLO engine evaluating `config.rules` on
    /// virtual-clock ticks, and an `alerts` FIFO carrying every alert
    /// transition as an appended line — tailed with a plain
    /// `subscribe()` like any other stream.
    ///
    /// The default is off: no journal exists, every hook collapses to an
    /// `Option` check, no RNG stream is created and no task is spawned,
    /// so disabled runs are bit-for-bit identical to builds predating
    /// this crate. Rules are evaluated against the metrics registry, so
    /// a non-empty `config.rules` creates it whatever
    /// [`CloudBuilder::metrics`] says; for the journal and devices
    /// alone, leave the rules empty — with no registry no evaluator task
    /// runs.
    pub fn observability(mut self, config: ObsConfig) -> Self {
        self.observability = Some(config);
        self
    }

    /// Deploys the cloud onto a simulation.
    pub fn build(self, handle: &SimHandle) -> Cloud {
        let obs = self
            .observability
            .as_ref()
            .map(|cfg| Obs::new(handle, cfg).expect("malformed SLO rule"));
        // Rules are evaluated against the registry, so having any
        // creates it.
        let rules = self
            .observability
            .as_ref()
            .is_some_and(|cfg| !cfg.rules.is_empty());
        let telemetry = Telemetry {
            metrics: (self.metrics || rules).then(Metrics::new),
            tracer: match self.sampling {
                Sampling::Off => None,
                s => Some(Tracer::new(handle, s, self.trace_capacity)),
            },
            journal: obs.as_ref().map(Obs::journal),
        };

        let latency = if self.deterministic_net {
            LatencyModel::deterministic(self.generation)
        } else {
            LatencyModel::new(self.generation)
        };
        let fabric = Fabric::new(handle.clone(), self.topology, latency);
        if let Some(m) = &telemetry.metrics {
            fabric.set_metrics(m);
        }
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            self.store,
            &telemetry,
        );
        let cluster = ClusterState::new(fabric.topology());
        let runtime = Runtime::new(handle.clone(), cluster, self.runtime, &telemetry);
        let billing = Billing::new();
        let kernel = Kernel::new(
            fabric.clone(),
            store.clone(),
            runtime.clone(),
            billing.clone(),
            Goal::Balanced,
            &telemetry,
        );
        register_standard_devices(&kernel, handle, &telemetry);
        // The alerts FIFO and the evaluator task. The FIFO exists
        // whenever observability is on (uniform namespaces); the ticker
        // only runs when there is a registry to evaluate against.
        let alerts = obs.as_ref().map(|o| {
            let r = kernel.create_system_fifo(ALERTS_FIFO_CAPACITY);
            if let Some(m) = &telemetry.metrics {
                let interval = self.observability.as_ref().expect("obs is set").interval;
                let (o, m, k, h, r) = (
                    o.clone(),
                    m.clone(),
                    kernel.clone(),
                    handle.clone(),
                    r.clone(),
                );
                handle.spawn_detached(async move {
                    loop {
                        h.sleep(interval).await;
                        for line in o.tick(&m, h.now().as_nanos()) {
                            let mut bytes = line.into_bytes();
                            bytes.push(b'\n');
                            let _ = k.append_system_fifo(&r, bytes::Bytes::from(bytes));
                        }
                    }
                });
            }
            r
        });
        Cloud {
            fabric,
            store,
            runtime,
            billing,
            kernel,
            tracer: telemetry.tracer,
            metrics: telemetry.metrics,
            obs,
            alerts,
        }
    }
}

/// A deployed simulated cloud.
#[derive(Clone)]
pub struct Cloud {
    /// The datacenter network.
    pub fabric: Fabric,
    /// The replicated object store.
    pub store: ReplicatedStore,
    /// The FaaS runtime.
    pub runtime: Runtime,
    /// The billing meter.
    pub billing: Billing,
    /// The PCSI kernel.
    pub kernel: Kernel,
    /// The trace collector, when tracing is enabled.
    pub tracer: Option<Tracer>,
    /// The unified metrics registry, when metrics are enabled.
    pub metrics: Option<Metrics>,
    /// The observability control plane, when enabled.
    pub obs: Option<Obs>,
    /// A reference to the `alerts` FIFO (subscribe to tail alert
    /// transitions), when observability is enabled.
    pub alerts: Option<pcsi_core::Reference>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::Lab;

    #[test]
    fn default_build_deploys_everything() {
        Lab::run(1, CloudBuilder::new(), |Lab { cloud, .. }| async move {
            assert_eq!(cloud.fabric.topology().len(), 2 * 4 + 4 + 4);
            assert_eq!(cloud.store.replicas().len(), cloud.fabric.topology().len());
            assert_eq!(cloud.kernel.live_objects(), 0);
        });
    }

    #[test]
    fn standard_devices_are_registered() {
        use pcsi_core::api::CreateOptions;
        use pcsi_core::{CloudInterface, Consistency, Mutability, ObjectKind};
        use pcsi_net::NodeId;

        let builder = CloudBuilder::new().deterministic_network();
        Lab::run(3, builder, |Lab { cloud, h, .. }| async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            let mk = |class: &str| CreateOptions {
                kind: ObjectKind::Device(class.into()),
                mutability: Mutability::Immutable,
                consistency: Consistency::Eventual,
                initial: bytes::Bytes::new(),
                fifo_capacity: None,
            };
            // clock advances with virtual time.
            let clock = c.create(mk("clock")).await.unwrap();
            let t1 = c.read(&clock, 0, 8).await.unwrap();
            h.sleep(std::time::Duration::from_micros(50)).await;
            let t2 = c.read(&clock, 0, 8).await.unwrap();
            let n1 = u64::from_le_bytes(t1[..8].try_into().unwrap());
            let n2 = u64::from_le_bytes(t2[..8].try_into().unwrap());
            assert!(n2 > n1);

            // random yields fresh bytes per read.
            let random = c.create(mk("random")).await.unwrap();
            let r1 = c.read(&random, 0, 32).await.unwrap();
            let r2 = c.read(&random, 0, 32).await.unwrap();
            assert_eq!(r1.len(), 32);
            assert_ne!(r1, r2);

            // log accumulates writes and reads them back.
            let log = c.create(mk("log")).await.unwrap();
            c.write(&log, 0, bytes::Bytes::from_static(b"alpha;"))
                .await
                .unwrap();
            c.write(&log, 0, bytes::Bytes::from_static(b"beta;"))
                .await
                .unwrap();
            assert_eq!(&c.read(&log, 0, 64).await.unwrap()[..], b"alpha;beta;");

            // null swallows everything.
            let null = c.create(mk("null")).await.unwrap();
            c.write(&null, 0, bytes::Bytes::from_static(b"void"))
                .await
                .unwrap();
            assert!(c.read(&null, 0, 8).await.unwrap().is_empty());
        });
    }

    #[test]
    fn storage_ring_subset_routes_and_survives_a_join() {
        use pcsi_core::api::CreateOptions;
        use pcsi_core::CloudInterface;
        use pcsi_net::NodeId;

        let topo = Topology::uniform(2, 3);
        let nodes = topo.node_ids();
        let spare = *nodes.last().unwrap();
        let ring: Vec<NodeId> = nodes[..nodes.len() - 1].to_vec();
        let builder = CloudBuilder::new()
            .topology(topo)
            .deterministic_network()
            .storage_ring(ring.clone());
        Lab::run(9, builder, move |Lab { cloud, .. }| async move {
            let mut members = cloud.store.placement().storage_nodes();
            members.sort();
            assert_eq!(members, ring);

            let c = cloud.kernel.client(NodeId(0), "t");
            let mut refs = Vec::new();
            for k in 0..24u8 {
                let r = c
                    .create(CreateOptions::regular().with_initial(vec![k; 48]))
                    .await
                    .unwrap();
                refs.push((k, r));
            }

            // Admit the spare node mid-flight and keep the data readable
            // through the kernel both during and after the migration.
            let moved = cloud.store.join_node(spare).await.unwrap();
            assert!(moved > 0, "a 6th node must attract some shards");
            assert!(cloud.store.placement().is_member(spare));
            for (k, r) in &refs {
                assert_eq!(c.read(r, 0, 48).await.unwrap(), vec![*k; 48]);
            }

            // And back out again: decommission restores a spare-free ring.
            let moved_back = cloud.store.decommission_node(spare).await.unwrap();
            assert!(moved_back > 0);
            assert!(!cloud.store.placement().is_member(spare));
            for (k, r) in &refs {
                assert_eq!(c.read(r, 0, 48).await.unwrap(), vec![*k; 48]);
            }
        });
    }

    /// Rules need a registry to evaluate against, so naming any creates
    /// it: `.observability(rules)` without `.metrics(true)` still runs
    /// the evaluator and publishes transitions on the `alerts` FIFO.
    #[test]
    fn rules_alone_fire_an_alert_line() {
        use pcsi_core::api::CreateOptions;
        use pcsi_core::CloudInterface;
        use pcsi_net::NodeId;

        let builder = CloudBuilder::new()
            .deterministic_network()
            .observability(ObsConfig {
                rules: vec![
                    "write-p50: p50(kernel.op_ns{op=\"write\"}) < 1ns over 10ms for 1 clear 1"
                        .into(),
                ],
                interval: Duration::from_millis(5),
                ..ObsConfig::default()
            });
        Lab::run(4, builder, |Lab { cloud, h, .. }| async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            let r = c
                .create(CreateOptions::regular().with_initial(vec![0u8; 8]))
                .await
                .unwrap();
            c.write(&r, 0, bytes::Bytes::from_static(b"x"))
                .await
                .unwrap();
            h.sleep(Duration::from_millis(20)).await;
            // Checked first: a pop of an empty FIFO would wait forever.
            let log = cloud.obs.unwrap().alert_log();
            assert!(log.contains("rule=write-p50"), "no transition: {log:?}");
            let line = c.pop(&cloud.alerts.unwrap()).await.unwrap();
            let line = String::from_utf8_lossy(&line);
            assert!(line.contains("rule=write-p50"), "{line}");
        });
    }

    /// A read of the `events` device object `events` at `offset`, as text.
    async fn events_at(
        c: &crate::KernelClient,
        events: &pcsi_core::Reference,
        offset: u64,
    ) -> String {
        use pcsi_core::CloudInterface;
        let text = c.read(events, offset, 1 << 20).await.unwrap();
        String::from_utf8(text.to_vec()).unwrap()
    }

    /// Creates an `events` device object through `c`.
    async fn open_events(c: &crate::KernelClient) -> pcsi_core::Reference {
        use pcsi_core::api::CreateOptions;
        use pcsi_core::{CloudInterface, Consistency, Mutability, ObjectKind};
        let opts = CreateOptions {
            kind: ObjectKind::Device("events".into()),
            mutability: Mutability::Mutable,
            consistency: Consistency::Eventual,
            initial: bytes::Bytes::new(),
            fifo_capacity: None,
        };
        c.create(opts).await.unwrap()
    }

    /// The `detail` field of each record line of an `events` read.
    fn details(text: &str) -> Vec<&str> {
        let records = text.lines().skip(1);
        records.map(|l| l.rsplit(' ').next().unwrap()).collect()
    }

    /// The `events` device served from a read's offset, through the
    /// kernel, from a journal that has wrapped: the header counts what
    /// was appended and dropped, and only retained records numbered from
    /// the offset on come back.
    #[test]
    fn an_events_read_serves_the_retained_tail_from_its_offset() {
        use pcsi_net::NodeId;

        let builder = CloudBuilder::new()
            .deterministic_network()
            .observability(ObsConfig {
                journal_capacity: 4,
                ..ObsConfig::default()
            });
        Lab::run(5, builder, |Lab { cloud, .. }| async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            let events = open_events(&c).await;
            let journal = cloud.obs.as_ref().unwrap().journal();
            for i in 0..10 {
                journal.append("test", "tick", format!("i={i}"));
            }
            let appended = journal.appended();
            let header = format!(
                "# obs.events capacity=4 appended={appended} dropped={}",
                appended - 4
            );
            // Seqs `appended - 4 ..` are retained (i=6..=9).
            for (from, want) in [(0, 6..10), (appended - 7, 6..10), (appended - 2, 8..10)] {
                let text = events_at(&c, &events, from).await;
                assert_eq!(text.lines().next(), Some(header.as_str()), "{text}");
                let want: Vec<String> = want.map(|i| format!("i={i}")).collect();
                assert_eq!(details(&text), want, "from {from}: {text}");
                assert!(text.contains(&format!("event seq={} ", appended - 1)));
            }
            assert!(details(&events_at(&c, &events, appended).await).is_empty());
        });
    }

    /// A device read honours its length like any other read: the
    /// rendered journal comes back cut to the bytes asked for.
    #[test]
    fn a_device_read_returns_at_most_len_bytes() {
        use pcsi_core::CloudInterface;
        use pcsi_net::NodeId;

        let builder = CloudBuilder::new()
            .deterministic_network()
            .observability(ObsConfig::default());
        Lab::run(7, builder, |Lab { cloud, .. }| async move {
            let c = cloud.kernel.client(NodeId(0), "t");
            let events = open_events(&c).await;
            let journal = cloud.obs.as_ref().unwrap().journal();
            journal.append("test", "tick", "i=0");
            let whole = events_at(&c, &events, 0).await;
            assert!(whole.len() > 16, "{whole}");
            for len in [0, 1, 16] {
                let cut = c.read(&events, 0, len).await.unwrap();
                assert_eq!(&cut[..], &whole.as_bytes()[..len as usize]);
            }
        });
    }

    /// Two clients tail the journal through `events` objects of their
    /// own, their reads interleaved: each read carries its own cursor,
    /// so each client gets exactly the records since its last read.
    #[test]
    fn interleaved_events_readers_each_get_their_own_delta() {
        use pcsi_net::NodeId;

        let builder = CloudBuilder::new()
            .deterministic_network()
            .observability(ObsConfig::default());
        Lab::run(6, builder, |Lab { cloud, .. }| async move {
            let (a, b) = (
                cloud.kernel.client(NodeId(0), "a"),
                cloud.kernel.client(NodeId(1), "b"),
            );
            let (events_a, events_b) = (open_events(&a).await, open_events(&b).await);
            let journal = cloud.obs.as_ref().unwrap().journal();
            let tick = |names: &[&str]| {
                for name in names {
                    journal.append("test", "tick", *name);
                }
            };
            // Each reader's cursor: the next sequence number it has not read.
            let (mut at_a, mut at_b) = (journal.appended(), journal.appended());
            let tail = |c, events, at: &mut u64| {
                let from = *at;
                *at = journal.appended();
                async move { events_at(c, events, from).await }
            };
            tick(&["x1", "x2"]);
            assert_eq!(details(&tail(&a, &events_a, &mut at_a).await), ["x1", "x2"]);
            tick(&["y1"]);
            assert_eq!(
                details(&tail(&b, &events_b, &mut at_b).await),
                ["x1", "x2", "y1"]
            );
            assert_eq!(details(&tail(&a, &events_a, &mut at_a).await), ["y1"]);
            tick(&["z1"]);
            assert_eq!(details(&tail(&b, &events_b, &mut at_b).await), ["z1"]);
            assert_eq!(details(&tail(&a, &events_a, &mut at_a).await), ["z1"]);
        });
    }

    #[test]
    fn builder_options_apply() {
        let builder = CloudBuilder::new()
            .topology(Topology::uniform(1, 3))
            .network(NetworkGeneration::FastEmerging)
            .deterministic_network()
            .placement(PlacementPolicy::LoadBalance);
        Lab::run(1, builder, |Lab { cloud, .. }| async move {
            assert_eq!(cloud.fabric.topology().len(), 3);
            assert_eq!(
                cloud.fabric.latency().generation(),
                NetworkGeneration::FastEmerging
            );
        });
    }
}
