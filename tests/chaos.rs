//! Cross-crate integration: fault injection against the full stack.
//!
//! The consistency contract under crashes, partitions and message-level
//! faults: linearizable histories must linearize, eventual objects must
//! converge once the network heals. The seeded sweeps here delegate to
//! the `pcsi-chaos` harness — `CHAOS_SEEDS` widens them — while the one
//! hand-built scenario pins down a mechanism the generic checkers don't
//! isolate: invocations failing over off a crashed node. The store's
//! own fault scenarios (read repair, write failover) are its unit tests.

use std::time::Duration;

use bytes::Bytes;
use pcsi_chaos::{run_scenario, sweep_seeds, FaultPlan, ScenarioConfig};
use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::CloudInterface;
use pcsi_net::NodeId;

/// Seeded crash/restart and partition/heal schedules while workers
/// hammer linearizable registers through the full kernel stack: every
/// recorded history must pass the linearizability checker. This replaces
/// the old three-hand-seed monotonicity test — the checker subsumes the
/// monotone-reads invariant and the sweep covers far more schedules.
#[test]
fn linearizability_survives_seeded_crash_and_partition_sweeps() {
    for (base, plan) in [
        (0x0C_4A05u64, FaultPlan::CrashRestart),
        (0x0F_4A05u64, FaultPlan::PartitionHeal),
    ] {
        for &seed in &sweep_seeds(base, 6) {
            let report = run_scenario(
                seed,
                &ScenarioConfig {
                    plan,
                    ..ScenarioConfig::default()
                },
            );
            assert!(
                report.ok(),
                "plan {plan:?} seed {seed} violated the contract:\n{}",
                report.render()
            );
        }
    }
}

/// Seeded message-fault and mixed schedules: eventual registers must be
/// byte-identical on every replica after heal + anti-entropy quiescence,
/// and no read may observe a never-written value. Replaces the single
/// hand-built partition/heal convergence test.
#[test]
fn eventual_convergence_survives_seeded_fault_sweeps() {
    for (base, plan) in [
        (0xE_0001u64, FaultPlan::MessageFaults),
        (0xE_0002u64, FaultPlan::Mixed),
    ] {
        for &seed in &sweep_seeds(base, 6) {
            let report = run_scenario(
                seed,
                &ScenarioConfig {
                    plan,
                    ..ScenarioConfig::default()
                },
            );
            assert!(
                report.ok(),
                "plan {plan:?} seed {seed} violated the contract:\n{}",
                report.render()
            );
        }
    }
}

/// Seeded observability sweeps: under a primary kill plus a drop
/// spike, the SLO engine must raise *exactly* the expected alerts —
/// per rule one pending → firing → resolved walk, no flap, no miss —
/// the `alerts` FIFO subscription must deliver the engine's transition
/// log losslessly, and the firing latency rule must pin a histogram
/// exemplar that joins back to a rendered trace. `CHAOS_SEEDS` widens
/// the sweep in CI.
#[test]
fn alert_fidelity_survives_seeded_fault_sweeps() {
    for &seed in &sweep_seeds(0x0B5_0001, 6) {
        let report = pcsi_chaos::run_obs_scenario(seed);
        assert!(
            report.ok(),
            "seed {seed} violated alert fidelity:\n{}",
            report.render()
        );
    }
}

/// Crashing a node with warm function instances: subsequent invocations
/// fail over to fresh instances elsewhere (cold start, correct result).
#[test]
fn invocations_fail_over_when_a_warm_node_crashes() {
    use pcsi_core::api::InvokeRequest;
    use pcsi_faas::function::{FunctionImage, WorkModel};
    use std::rc::Rc;

    let builder = CloudBuilder::new().deterministic_network();
    Lab::run(505, builder, |Lab { cloud, .. }| async move {
        cloud.kernel.register_body(
            "svc",
            Rc::new(|ctx| {
                Box::pin(async move {
                    ctx.compute(Duration::from_millis(1)).await;
                    Ok(Bytes::from_static(b"ok"))
                })
            }),
        );
        let client = cloud.kernel.client(NodeId(0), "chaos");
        let image = FunctionImage::simple("svc", WorkModel::fixed(Duration::from_millis(1)), 2);
        let f = client
            .create(CreateOptions::function(image.encode()))
            .await
            .unwrap();

        let first = client.invoke(&f, InvokeRequest::default()).await.unwrap();
        assert!(first.cold_start);
        let warm_node = cloud.runtime.warm_nodes("svc", "cpu")[0];

        // Kill the node holding the warm instance; the control plane
        // purges its pool entries, and a client elsewhere fails over to a
        // fresh instance. (The original client may have been co-located
        // with the instance, so invoke from a surviving node.)
        cloud.fabric.set_node_down(warm_node, true);
        cloud.runtime.evict_node(warm_node);
        let survivor = cloud
            .fabric
            .topology()
            .node_ids()
            .into_iter()
            .find(|&n| n != warm_node)
            .unwrap();
        let client2 = cloud.kernel.client(survivor, "chaos");
        let second = client2.invoke(&f, InvokeRequest::default()).await.unwrap();
        assert_eq!(&second.body[..], b"ok");
        assert!(second.cold_start, "failover must boot a fresh instance");
        let new_warm = cloud.runtime.warm_nodes("svc", "cpu");
        assert!(!new_warm.contains(&warm_node));
    });
}
