//! Allocation-accounting property sweep.
//!
//! Random seeded interleavings of invoke / evict / reap / preempt (with
//! the predictive autoscaler and work stealing running throughout) must
//! leave `ClusterState` allocation balanced at exactly zero once the
//! system quiesces: every cold reservation, warm instance, pre-warm boot,
//! preemption, steal, and mid-flight eviction accounted for. A leak shows
//! up as residual allocation; a double-free panics inside
//! `ClusterState::release`.
//!
//! Like the chaos sweeps, the seed count scales with the `FAAS_SEEDS`
//! env var (default 16; CI runs 128). Any failure prints the seed —
//! re-run with that seed for a byte-identical replay.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::api::{InvokeRequest, InvokeResponse};
use pcsi_core::{PcsiError, Reference};
use pcsi_faas::autoscale::AutoscaleConfig;
use pcsi_faas::function::{DataPlane, FnCtx, FunctionImage, WorkModel};
use pcsi_faas::registry::Goal;
use pcsi_faas::runtime::{Runtime, RuntimeConfig};
use pcsi_faas::{ClusterState, PlacementPolicy, TaskGraph, Variant};
use pcsi_net::{NodeId, Topology};
use pcsi_sim::executor::LocalBoxFuture;
use pcsi_sim::Sim;

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

/// One full scenario on one seed; panics (with the seed in the message)
/// if allocation does not balance to zero at quiescence.
fn run_seed(seed: u64) {
    let mut sim = Sim::new(seed);
    let cluster = ClusterState::new(&Topology::uniform(2, 2));
    let rt = Runtime::new(
        sim.handle(),
        cluster.clone(),
        RuntimeConfig {
            // Scavenge + preemption: every instance is preemptible, so
            // the preempt path actually fires under pressure.
            policy: PlacementPolicy::Scavenge,
            keep_alive: Duration::from_millis(500),
            reap_interval: Duration::from_millis(100),
            preemption: true,
            autoscale: AutoscaleConfig {
                interval: Duration::from_millis(100),
                window: Duration::from_secs(1),
                ..AutoscaleConfig::enabled()
            },
        },
        &pcsi_obs::Telemetry::default(),
    );
    rt.register_body(
        "upstream",
        Rc::new(|ctx: FnCtx| {
            Box::pin(async move {
                ctx.compute(Duration::from_millis(8)).await;
                Ok(ctx.body)
            })
        }),
    );
    rt.register_body(
        "steady",
        Rc::new(|ctx: FnCtx| {
            Box::pin(async move {
                ctx.compute(Duration::from_millis(15)).await;
                Ok(ctx.body)
            })
        }),
    );
    rt.register_body(
        "flaky",
        Rc::new(|_ctx| Box::pin(async { Err(PcsiError::FunctionFailed("flaky".into())) })),
    );
    // Graph edge: upstream arrivals pre-warm a downstream pool that is
    // never actually invoked — its instances must still drain to zero.
    let graph = TaskGraph::linear(&["upstream", "downstream"]);
    rt.register_prewarm_graph(&graph, |stage| {
        (stage.function == "downstream").then(|| Variant::wasm(1))
    });
    // An edge that names `steady`'s variant at another size: its 2-core
    // pre-warmed instances share the pool of the 8-core invocations, and
    // each must be released at the size it was allocated with.
    let graph = TaskGraph::linear(&["upstream", "steady"]);
    rt.register_prewarm_graph(&graph, |stage| {
        (stage.function == "steady").then(|| Variant::cpu(2))
    });

    let h = sim.handle();
    sim.block_on({
        let rt = rt.clone();
        let h = h.clone();
        async move {
            let mut joins = Vec::new();
            // Four workers issue a random mix of invocations.
            for worker in 0..4u64 {
                let rt = rt.clone();
                let h = h.clone();
                joins.push(h.clone().spawn(async move {
                    let rng = h.rng().stream_indexed("faas-accounting-worker", worker);
                    for _ in 0..24 {
                        h.sleep(Duration::from_millis(rng.gen_range(0..40))).await;
                        let req = InvokeRequest::with_body(&b"x"[..]);
                        let data: Rc<dyn DataPlane> = Rc::new(NoData);
                        match rng.gen_range(0..6) {
                            0 | 1 => {
                                let img = FunctionImage::simple(
                                    "upstream",
                                    WorkModel::fixed(Duration::from_millis(8)),
                                    4,
                                );
                                let _ = rt.invoke(&img, Goal::MinLatency, req, data, None).await;
                            }
                            2 => {
                                let img = FunctionImage::simple(
                                    "steady",
                                    WorkModel::fixed(Duration::from_millis(15)),
                                    8,
                                );
                                let _ = rt.invoke(&img, Goal::MinLatency, req, data, None).await;
                            }
                            3 => {
                                let img = FunctionImage::simple(
                                    "flaky",
                                    WorkModel::fixed(Duration::ZERO),
                                    2,
                                );
                                let _ = rt.invoke(&img, Goal::MinLatency, req, data, None).await;
                            }
                            4 => {
                                // Unregistered image: the reservation must
                                // be released by the lease drop guard.
                                let img = FunctionImage::simple(
                                    "ghost",
                                    WorkModel::fixed(Duration::ZERO),
                                    2,
                                );
                                let _ = rt.invoke(&img, Goal::MinLatency, req, data, None).await;
                            }
                            _ => {
                                let img = FunctionImage::simple(
                                    "upstream",
                                    WorkModel::fixed(Duration::from_millis(8)),
                                    4,
                                );
                                let node = NodeId(rng.gen_range(0..4) as u32);
                                let variant = img.variant("cpu").unwrap().clone();
                                if let Ok(lease) = rt.reserve(&img, &variant, Some(node), None) {
                                    let _ =
                                        rt.run_lease(lease, &img, &variant, req, data, None).await;
                                }
                            }
                        }
                    }
                }));
            }
            // A chaos task evicts random nodes mid-run.
            joins.push(h.clone().spawn({
                let rt = rt.clone();
                let h = h.clone();
                async move {
                    let rng = h.rng().stream("faas-accounting-chaos");
                    for _ in 0..3 {
                        h.sleep(Duration::from_millis(150 + rng.gen_range(0..400)))
                            .await;
                        rt.evict_node(NodeId(rng.gen_range(0..4) as u32));
                    }
                }
            }));
            for j in joins {
                j.await;
            }
            // Quiesce: the estimators idle-reset after a full window, the
            // last pre-warm boots land, and the reaper drains the pools.
            h.sleep(Duration::from_secs(10)).await;
        }
    });

    for node in cluster.nodes() {
        assert!(
            cluster.allocated(node).is_zero(),
            "seed {seed}: node {node} left with {:?} allocated \
             (invocations {}, cold {}, preempt {}, prewarm {}, rebalance {}, rejections {})",
            cluster.allocated(node),
            rt.invocations(),
            rt.cold_starts(),
            rt.preemptions(),
            rt.prewarms(),
            rt.rebalances(),
            rt.rejections(),
        );
    }
}

#[test]
fn allocation_balances_to_zero_across_interleavings() {
    // 16 seeds unless `FAAS_SEEDS` says otherwise.
    for s in 0..pcsi_sim::rng::sweep_width("FAAS_SEEDS", 16) as u64 {
        run_seed(0xFAA5_0000 + s);
    }
}
