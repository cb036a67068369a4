//! Cross-crate integration: fault injection against the full stack.
//!
//! The consistency contract under crashes, partitions and message-level
//! faults: linearizable histories must linearize, eventual objects must
//! converge once the network heals. The seeded sweeps here delegate to
//! the `pcsi-chaos` harness — `CHAOS_SEEDS` widens them — while the
//! remaining hand-built scenarios pin down mechanisms (read repair,
//! failover) the generic checkers don't isolate.

use std::time::Duration;

use bytes::Bytes;
use pcsi_chaos::{run_scenario, sweep_seeds, FaultPlan, ScenarioConfig};
use pcsi_cloud::CloudBuilder;
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency, PcsiError};
use pcsi_net::NodeId;
use pcsi_sim::Sim;

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

/// One-RTT linearizable reads under a partition: a lagging replica's
/// stale tag must never win the read quorum, and once the partition
/// heals, quorum reads that observe the laggard must read-repair it —
/// with anti-entropy disabled, repair is the *only* way it can catch up.
#[test]
fn one_rtt_reads_stay_fresh_and_repair_stale_replicas() {
    use pcsi_core::{Mutability, ObjectId};
    use pcsi_net::{Fabric, LatencyModel, NetworkGeneration, Topology};
    use pcsi_store::{MediaTier, ReplicatedStore, RetryPolicy, StoreConfig, Tag};

    for seed in [606u64, 707] {
        let mut sim = Sim::new(seed);
        let h = sim.handle();
        sim.block_on(async move {
            // Raw store, jittered fabric. Anti-entropy off and caching off
            // so every read exercises the one-RTT quorum protocol and any
            // convergence we see is attributable to read repair alone.
            let fabric = Fabric::new(
                h.clone(),
                Topology::uniform(3, 3),
                LatencyModel::new(NetworkGeneration::Dc2021),
            );
            let store = ReplicatedStore::launch(
                fabric.clone(),
                fabric.topology().node_ids(),
                StoreConfig {
                    n_replicas: 3,
                    tier: MediaTier::Dram,
                    anti_entropy: None,
                    inline_read_max: 64 * 1024,
                    cache_bytes: 0,
                    // Single-shot: this test pins down the raw one-RTT
                    // read/repair protocol, not the recovery layer.
                    retry: RetryPolicy::none(),
                    ring_nodes: None,
                },
                &pcsi_obs::Telemetry::default(),
            );
            let id = ObjectId::from_parts(9, 1);
            let replicas = store.placement().replicas(id);
            let laggard = replicas[2];
            let outsider = fabric
                .topology()
                .node_ids()
                .into_iter()
                .find(|n| !replicas.contains(n))
                .unwrap();
            let writer = store.client(outsider);

            let mut acked: Tag = writer
                .put(
                    id,
                    Bytes::from(vec![0u8; 64]),
                    Mutability::Mutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
            let mut acked_val = 0u8;

            for round in 1..=40u32 {
                // Cut the third replica off mid-run; majority writes keep
                // succeeding while it silently goes stale.
                if round == 10 {
                    let others: Vec<NodeId> = fabric
                        .topology()
                        .node_ids()
                        .into_iter()
                        .filter(|&n| n != laggard)
                        .collect();
                    fabric.partition(&[laggard], &others);
                }
                if round == 25 {
                    fabric.heal_partitions();
                }

                // Stop writing once the partition heals: post-heal writes
                // would converge the laggard through ordinary replication,
                // and we want read repair to be the only path back.
                if round < 25 {
                    let value = (round % 251) as u8;
                    match writer
                        .write_at(
                            id,
                            0,
                            Bytes::from(vec![value; 64]),
                            Consistency::Linearizable,
                        )
                        .await
                    {
                        Ok(tag) => {
                            acked = tag;
                            acked_val = value;
                        }
                        Err(e) => assert!(
                            matches!(e, PcsiError::QuorumUnavailable { .. } | PcsiError::Fault(_)),
                            "seed {seed} round {round}: unexpected write error {e:?}"
                        ),
                    }
                }

                // Read from a client co-located with the laggard: its
                // (possibly stale) local reply always lands in the first
                // majority, which is exactly the case one-RTT reads must
                // survive — and after healing, the case that triggers
                // read repair.
                match store
                    .client(laggard)
                    .read_all(id, Consistency::Linearizable)
                    .await
                {
                    Ok((tag, data)) => {
                        assert!(
                            tag >= acked,
                            "seed {seed} round {round}: one-RTT read returned tag {tag:?} \
                             older than last acked write {acked:?}"
                        );
                        assert_eq!(
                            data[0], acked_val,
                            "seed {seed} round {round}: stale payload"
                        );
                    }
                    Err(e) => assert!(
                        matches!(e, PcsiError::QuorumUnavailable { .. } | PcsiError::Fault(_)),
                        "seed {seed} round {round}: unexpected read error {e:?}"
                    ),
                }
                h.sleep(Duration::from_millis(2)).await;
            }

            // Quorum reads observed the laggard's stale tags after the
            // heal, so read repair must have pushed state to it.
            let repaired: u64 = store.replicas().iter().map(|r| r.repaired_count()).sum();
            assert!(repaired > 0, "seed {seed}: no read repair happened");
            h.sleep(Duration::from_millis(5)).await;
            let (tag, val) = store.replica_on(laggard).unwrap().with_engine(|e| {
                let tag = e.get(id).map(|o| o.tag);
                let val = e.read(id, 0, 1).map(|b| b[0]);
                (tag, val)
            });
            assert_eq!(
                tag,
                Some(acked),
                "seed {seed}: laggard tag did not converge"
            );
            assert_eq!(
                val.ok(),
                Some(acked_val),
                "seed {seed}: laggard value did not converge"
            );
        });
    }
}

/// Crashing a node with warm function instances: subsequent invocations
/// fail over to fresh instances elsewhere (cold start, correct result).
#[test]
fn invocations_fail_over_when_a_warm_node_crashes() {
    use pcsi_core::api::InvokeRequest;
    use pcsi_faas::function::{FunctionImage, WorkModel};
    use std::rc::Rc;

    let mut sim = Sim::new(505);
    let h = sim.handle();
    sim.block_on(async move {
        let cloud = CloudBuilder::new().deterministic_network().build(&h);
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
