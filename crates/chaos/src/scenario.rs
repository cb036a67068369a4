//! Seeded chaos scenarios over the full cloud stack.
//!
//! [`run_scenario`] builds a complete [`CloudBuilder`] deployment
//! inside a fresh deterministic simulation, lets client workers hammer
//! a set of register objects through the kernel while a fault driver
//! executes a seeded schedule (crashes, partitions, message faults),
//! then heals everything, drives anti-entropy to quiescence, and runs
//! the [`crate::checker`] suite over the recorded history.
//!
//! Everything — the fault schedule, the worker interleaving, the
//! network jitter — derives from the one seed, so a failing seed
//! reproduces byte-identically: re-running it yields the same
//! [`Report::render`] output, byte for byte.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use pcsi_cloud::{CloudBuilder, Lab};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency, ObjectId};
use pcsi_metrics::Metrics;
use pcsi_net::{MessageFaults, NodeId, Topology};
use pcsi_sim::rng::DetRng;
use pcsi_sim::util::Pacer;
use pcsi_store::{ReplicatedStore, RetryPolicy, StoreConfig};
use pcsi_trace::{render_trace, AttrValue, Sampling};

use crate::checker::{check_converged, check_linearizable, check_reads_observe_writes};
use crate::history::{encode_value, Op, Recorder};
use crate::report::{net_line, Faults, Report};

/// What kind of faults the seeded schedule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// No faults: a healthy cluster (baseline for the checkers).
    None,
    /// One node at a time crashes, then restarts.
    CrashRestart,
    /// One node at a time is partitioned away, then healed.
    PartitionHeal,
    /// Fabric-wide message faults (drop / duplicate / delay spikes)
    /// toggle on and off.
    MessageFaults,
    /// All of the above, chosen per event.
    Mixed,
    /// Persistent 5% fabric-wide message drops for the whole run while
    /// the target register's primary crashes and restarts. The store
    /// runs a tight [`pcsi_store::RetryPolicy`] (per-attempt deadline
    /// below the fabric's retransmit timeout), so this schedule is the
    /// one the client fault-recovery layer must fully mask: a single
    /// dropped message, or a dead primary with a live majority, must
    /// never surface as a client-visible error. Workers run on any
    /// node, the crashing primary included; an operation whose own
    /// client node was down at some point of it is the one kind of
    /// failure `client-errors` does not count under this plan.
    Drops,
    /// Live rebalancing under fire: the deployment starts with one
    /// storage node held out of the placement ring, and mid-run the
    /// fault driver joins it — migrating every affected shard — while
    /// 5% fabric-wide drops persist and storage nodes crash and restart
    /// *during* the migration. The drain retries around the faults,
    /// finishes on the healed fabric, and the usual checkers then run
    /// over a history that straddles the epoch change: freezes, moves
    /// and stale-epoch rejections must all be invisible to clients.
    Rebalance,
}

/// Scenario shape. The seed controls every random choice; the config
/// controls the sizes.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Fault schedule kind.
    pub plan: FaultPlan,
    /// Concurrent client workers.
    pub workers: usize,
    /// Operations each worker issues.
    pub ops_per_worker: usize,
    /// Registers created at `Consistency::Linearizable`.
    pub lin_objects: usize,
    /// Registers created at `Consistency::Eventual`.
    pub ev_objects: usize,
    /// Deliberately break freshness: a reader co-located with a
    /// partitioned-away replica reads the first linearizable register
    /// through the *eventual* (closest-replica) path, bypassing the
    /// read quorum. The linearizability checker must reject the
    /// resulting history. Implies a targeted partition schedule
    /// regardless of `plan`, and workers hammer only that register.
    pub inject_stale_reads: bool,
    /// Trace sampling for the run. The default is [`Sampling::Off`],
    /// which leaves the run bit-for-bit identical to an untraced build;
    /// with sampling on, a checker violation's report carries the
    /// rendered span tree of an operation on the violating object.
    pub sampling: Sampling,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            plan: FaultPlan::Mixed,
            workers: 4,
            ops_per_worker: 24,
            lin_objects: 2,
            ev_objects: 2,
            inject_stale_reads: false,
            sampling: Sampling::Off,
        }
    }
}

/// The seeds a sweep test should run: `base..base + n`, where `n` is
/// the `CHAOS_SEEDS` environment variable if set (CI cranks it up),
/// else `default_n`.
///
/// # Panics
///
/// Panics if `CHAOS_SEEDS` is set to something that is not a count.
pub fn sweep_seeds(base: u64, default_n: usize) -> Vec<u64> {
    let n = sweep_width(std::env::var("CHAOS_SEEDS").ok().as_deref(), default_n);
    (0..n as u64).map(|i| base + i).collect()
}

/// The sweep width for a `CHAOS_SEEDS` value: `default_n` when unset. A
/// set value that does not parse is a typo in the invocation; falling
/// back to the small default would turn a CI sweep into a smoke test that
/// still prints green, so it panics instead.
fn sweep_width(chaos_seeds: Option<&str>, default_n: usize) -> usize {
    match chaos_seeds {
        None => default_n,
        Some(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_SEEDS={s:?} is not a seed count")),
    }
}

/// Runs one seeded scenario end to end and returns its report. The
/// body's `recovery … client-errors=` counts the operation failures the
/// workers actually observed: the fault-recovery layer should mask
/// transient faults, so under [`FaultPlan::Drops`] it must be zero.
pub fn run_scenario(seed: u64, cfg: &ScenarioConfig) -> Report {
    let cfg = cfg.clone();
    let retry = if matches!(cfg.plan, FaultPlan::Drops | FaultPlan::Rebalance) {
        RetryPolicy::tight()
    } else {
        RetryPolicy::default()
    };
    // The rebalance schedule deploys with the last node held out of the
    // placement ring — the warm standby the fault driver joins mid-run.
    // (The builder's default topology, restated here for the node list.)
    let all_nodes = Topology::heterogeneous(2, 4).node_ids();
    let spare = (cfg.plan == FaultPlan::Rebalance).then(|| *all_nodes.last().unwrap());
    let builder = CloudBuilder::new()
        .tracing(cfg.sampling)
        .metrics(true)
        .store(StoreConfig {
            // Anti-entropy is driven manually after heal, so the
            // quiescence point is explicit and bounded.
            anti_entropy: None,
            retry,
            ring_nodes: spare.map(|s| all_nodes.iter().copied().filter(|&n| n != s).collect()),
            ..StoreConfig::default()
        });
    Lab::run(seed, builder, move |lab| drive(lab, seed, cfg, spare))
}

async fn drive(lab: Lab, seed: u64, cfg: ScenarioConfig, spare: Option<NodeId>) -> Report {
    let (cloud, h) = (&lab.cloud, &lab.h);
    let store = cloud.store.clone();
    let fabric = cloud.fabric.clone();
    let nodes = fabric.topology().node_ids();
    let recorder = Recorder::install(&store);

    // Register objects, all initialized to value 0.
    let creator = cloud.kernel.client(NodeId(0), "chaos");
    let mut objects: Vec<(pcsi_core::Reference, Consistency)> = Vec::new();
    for i in 0..cfg.lin_objects + cfg.ev_objects {
        let consistency = if i < cfg.lin_objects {
            Consistency::Linearizable
        } else {
            Consistency::Eventual
        };
        let obj = creator
            .create(
                CreateOptions::regular()
                    .with_consistency(consistency)
                    .with_initial(encode_value(0)),
            )
            .await
            .expect("object creation on a healthy cluster");
        recorder.track(obj.id());
        objects.push((obj, consistency));
    }
    let target: ObjectId = objects[0].0.id();
    // The injection scenarios partition the target's last replica away
    // (the primary is the first, so majority writes keep succeeding).
    // The drop schedule instead crashes the primary itself, forcing
    // client failovers.
    let target_replicas = store.placement().replicas(target);
    let laggard = target_replicas[target_replicas.len() - 1];
    let primary = target_replicas[0];

    // The fault driver runs until the workers are done, then heals
    // everything it broke.
    let faults = Faults::new(h, &fabric);
    let stop = Rc::new(Cell::new(false));
    let driver = {
        let store2 = store.clone();
        let faults = faults.clone();
        let stop = stop.clone();
        let plan = cfg.plan;
        let nodes = nodes.clone();
        let inject = cfg.inject_stale_reads;
        h.spawn(async move {
            if inject {
                drive_targeted_partitions(&faults, laggard, &stop).await;
            } else if plan == FaultPlan::Drops {
                drive_drops(&faults, primary, &stop).await;
            } else if plan == FaultPlan::Rebalance {
                let spare = spare.expect("rebalance plan always picks a spare");
                drive_rebalance(&store2, &faults, spare, &stop).await;
            } else {
                drive_faults(&faults, plan, &nodes, &stop).await;
            }
        })
    };

    // Client workers hammer the registers through the kernel, counting
    // every operation failure they actually observe.
    let client_errors: Rc<Cell<u64>> = Rc::default();
    let mut workers = Vec::new();
    for w in 0..cfg.workers {
        let rng = h.rng().stream_indexed("chaos-worker", w as u64);
        let node = nodes[rng.gen_range(0..nodes.len() as u64) as usize];
        let client = cloud.kernel.client(node, "chaos");
        let refs: Vec<pcsi_core::Reference> = objects.iter().map(|(r, _)| r.clone()).collect();
        let h2 = h.clone();
        let ops_per_worker = cfg.ops_per_worker;
        let inject = cfg.inject_stale_reads;
        let errs = client_errors.clone();
        let faults = faults.clone();
        let drops = cfg.plan == FaultPlan::Drops;
        workers.push(h.spawn(async move {
            for i in 0..ops_per_worker {
                h2.sleep(Duration::from_nanos(rng.gen_range(100_000..900_000)))
                    .await;
                let flips = faults.flips(node);
                // In injection mode every worker hammers the target
                // register so the stale window is guaranteed traffic.
                let obj = if inject {
                    &refs[0]
                } else {
                    &refs[rng.gen_range(0..refs.len() as u64) as usize]
                };
                let failed = if rng.bool(0.5) {
                    let value = ((w as u64 + 1) << 32) | (i as u64 + 1);
                    client.write(obj, 0, encode_value(value)).await.is_err()
                } else {
                    client.read(obj, 0, 8).await.is_err()
                };
                // A client on a crashed machine is down with it. The
                // simulator keeps its task running, and each attempt it
                // makes fails on the spot at its own dead NIC, spending
                // the attempt budget long before the deadline; a real
                // client would have died with nobody left to see the
                // error. The drop schedule's zero-error contract is about
                // clients that stayed up, so it leaves out an operation
                // whose own node was down at any point of it.
                let client_died = flips % 2 == 1 || faults.flips(node) != flips;
                if failed && !(drops && client_died) {
                    errs.set(errs.get() + 1);
                }
            }
        }));
    }

    // The freshness saboteur: reads the linearizable target through
    // the eventual (closest-replica) path from the node the fault
    // driver keeps partitioning away — a read-quorum bypass.
    if cfg.inject_stale_reads {
        let reader = store.client(laggard);
        let rng = h.rng().stream("chaos-bug-reader");
        let h2 = h.clone();
        workers.push(h.spawn(async move {
            for _ in 0..16 {
                h2.sleep(Duration::from_nanos(rng.gen_range(300_000..900_000)))
                    .await;
                let _ = reader.read(target, 0, 8, Consistency::Eventual).await;
            }
        }));
    }

    for worker in workers {
        worker.await;
    }
    stop.set(true);
    driver.await;

    // Heal + quiescence: drain in-flight repair/replication, then run
    // anti-entropy rounds until every register converges (bounded).
    h.sleep(Duration::from_millis(10)).await;
    let ids: Vec<ObjectId> = objects.iter().map(|(r, _)| r.id()).collect();
    for _ in 0..64 {
        if ids.iter().all(|&id| check_converged(&store, id).is_ok()) {
            break;
        }
        for replica in store.replicas() {
            replica.anti_entropy_once().await;
        }
        h.sleep(Duration::from_millis(1)).await;
    }

    // Check the contract.
    let ops = recorder.take();
    let mut violations = Vec::new();
    for (obj, consistency) in &objects {
        let id = obj.id();
        let object_ops: Vec<Op> = ops.iter().filter(|o| o.object == id).cloned().collect();
        if *consistency == Consistency::Linearizable {
            if let Err(v) = check_linearizable(id, 0, &object_ops) {
                violations.push(v);
            }
        }
        if let Err(v) = check_reads_observe_writes(id, 0, &object_ops) {
            violations.push(v);
        }
        if let Err(v) = check_converged(&store, id) {
            violations.push(v);
        }
    }

    // With tracing on, attach the span tree of a traced store operation
    // on the first violating object — the timeline a human debugs from.
    let mut tail = String::new();
    let violation_trace = violations.first().and_then(|v| {
        let tracer = cloud.tracer.as_ref()?;
        let spans = tracer.sink().snapshot();
        let needle = format!("{:?}", v.object);
        let trace = spans.iter().find_map(|s| {
            s.attrs
                .iter()
                .any(|(k, val)| *k == "object" && matches!(val, AttrValue::Text(t) if *t == needle))
                .then_some(s.trace)
        })?;
        Some(render_trace(&spans, trace))
    });
    if let Some(trace) = violation_trace {
        tail.push_str("trace of an operation on the violating object:\n");
        tail.push_str(&trace);
    }
    // The aggregate view a human reads next to the op-level history:
    // every layer's counters and latency histograms at the end of the run.
    tail.push_str(
        &cloud
            .metrics
            .as_ref()
            .map(Metrics::render)
            .unwrap_or_default(),
    );

    let mut body = format!("ops {}\n", ops.len());
    for op in &ops {
        body.push_str(&format!("op {}\n", op.render()));
    }
    body.push_str(&net_line(&fabric));
    let retry = store.retry_stats();
    body.push_str(&format!(
        "recovery retries={} failovers={} timeouts={} client-errors={}\n",
        retry.retries,
        retry.failovers,
        retry.timeouts,
        client_errors.get()
    ));
    Report {
        title: format!("chaos scenario seed={seed} plan={:?}", cfg.plan),
        seed,
        faults: faults.log(),
        body,
        violations: violations.iter().map(ToString::to_string).collect(),
        tail,
    }
}

/// The general seeded fault schedule: every ~0.8–3 ms pick an action
/// for the plan, keeping at most one node crashed and one partitioned
/// at a time (so linearizable quorums usually stay available). On
/// stop, everything heals.
async fn drive_faults(faults: &Faults, plan: FaultPlan, nodes: &[NodeId], stop: &Rc<Cell<bool>>) {
    let (h, fabric) = (&faults.h, &faults.fabric);
    let rng = h.rng().stream("chaos-fault-schedule");
    let mut downed: Option<NodeId> = None;
    let mut partitioned = false;
    let mut faults_on = false;
    while !stop.get() {
        h.sleep(Duration::from_nanos(rng.gen_range(800_000..3_000_000)))
            .await;
        if stop.get() {
            break;
        }
        let action = match plan {
            FaultPlan::None => continue,
            FaultPlan::CrashRestart => 0,
            FaultPlan::PartitionHeal => 1,
            FaultPlan::MessageFaults => 2,
            FaultPlan::Mixed => rng.gen_range(0..3),
            FaultPlan::Drops => unreachable!("Drops runs its own driver"),
            FaultPlan::Rebalance => unreachable!("Rebalance runs its own driver"),
        };
        match action {
            0 => match downed.take() {
                Some(node) => faults.restart(node),
                None => {
                    let node = pick(&rng, nodes);
                    faults.crash(node);
                    downed = Some(node);
                }
            },
            1 => {
                if partitioned {
                    faults.heal_partitions();
                } else {
                    faults.isolate(pick(&rng, nodes));
                }
                partitioned = !partitioned;
            }
            _ => {
                if faults_on {
                    fabric.clear_message_faults();
                    faults.note("clear-message-faults");
                } else {
                    let mix = MessageFaults {
                        drop: 0.02 + 0.06 * rng.f64(),
                        duplicate: 0.05,
                        delay_spike: 0.10,
                        spike: Duration::from_micros(200 + rng.gen_range(0..400)),
                    };
                    fabric.set_message_faults(mix);
                    faults.note(format_args!(
                        "message-faults drop={:.3} dup={:.3} spike={:.3}/{}us",
                        mix.drop,
                        mix.duplicate,
                        mix.delay_spike,
                        mix.spike.as_micros()
                    ));
                }
                faults_on = !faults_on;
            }
        }
    }
    faults.heal_all();
}

/// The drop schedule: 5% of all fabric messages vanish for the entire
/// run, and on top of that the target register's primary repeatedly
/// crashes and restarts. Every worker operation therefore races lost
/// requests, lost responses, lost replication traffic, and a dead
/// coordinator — the exact conditions the client recovery layer
/// (deadlines, retries, failover) exists to mask. On stop the drops
/// clear and the primary restarts, so quiescence runs on a healthy
/// fabric.
async fn drive_drops(faults: &Faults, primary: NodeId, stop: &Rc<Cell<bool>>) {
    let h = &faults.h;
    let rng = h.rng().stream("chaos-fault-schedule");
    faults.drops(0.05);
    while !stop.get() {
        h.sleep(Duration::from_nanos(rng.gen_range(1_500_000..3_000_000)))
            .await;
        if stop.get() {
            break;
        }
        faults.crash(primary);
        h.sleep(Duration::from_nanos(rng.gen_range(1_000_000..2_500_000)))
            .await;
        faults.restart(primary);
    }
    faults.heal_all();
}

/// The rebalance schedule: 5% fabric-wide drops for the whole run;
/// after the workers build some history on the reduced ring, the spare
/// node joins and a paced drain migrates every affected shard — while
/// a killer task crashes and restarts storage nodes *during* the
/// migration, so moves race dead old owners, dead new owners, and lost
/// snapshot/install traffic. Stalled drains simply retry. Once the
/// workers finish, the faults heal and the drain runs to completion on
/// the healthy fabric, so the checkers see a fully flipped epoch.
async fn drive_rebalance(
    store: &ReplicatedStore,
    faults: &Faults,
    spare: NodeId,
    stop: &Rc<Cell<bool>>,
) {
    let (h, fabric) = (&faults.h, &faults.fabric);
    let rng = h.rng().stream("chaos-fault-schedule");
    faults.drops(0.05);
    h.sleep(Duration::from_nanos(rng.gen_range(1_000_000..2_000_000)))
        .await;

    let pinned = store.begin_join(spare).len();
    faults.note(format_args!("join {spare} pinned={pinned}"));

    // Crash/restart one storage node at a time while shards move. The
    // spare is spared: it must stay up to receive its data, and with at
    // most one other node down a majority of every 3-replica set stays
    // reachable.
    let killer = {
        let faults = faults.clone();
        let h2 = h.clone();
        let stop = stop.clone();
        let rng = h.rng().stream("chaos-rebalance-killer");
        let candidates: Vec<NodeId> = fabric
            .topology()
            .node_ids()
            .into_iter()
            .filter(|&n| n != spare)
            .collect();
        h.spawn(async move {
            while !stop.get() {
                h2.sleep(Duration::from_nanos(rng.gen_range(800_000..2_000_000)))
                    .await;
                if stop.get() {
                    break;
                }
                let victim = pick(&rng, &candidates);
                faults.crash(victim);
                h2.sleep(Duration::from_nanos(rng.gen_range(600_000..1_500_000)))
                    .await;
                faults.restart(victim);
            }
        })
    };

    // Paced drain under fire; a stalled drain surfaces a retryable
    // error and the loop tries again (each stall already slept through
    // its backoff rounds, so this cannot spin on virtual time).
    let pacer = Pacer::new(h.clone(), Duration::from_micros(400));
    while !stop.get() && !store.placement().pending_moves().is_empty() {
        let _ = store.drain_moves(Some(&pacer)).await;
    }
    while !stop.get() {
        h.sleep(Duration::from_micros(250)).await;
    }
    killer.await;
    faults.heal_all();

    // Finish any moves the faulty window left behind, on a healthy
    // fabric, so quiescence and the checkers run against the new ring.
    while !store.placement().pending_moves().is_empty() {
        if store.drain_moves(None).await.is_err() {
            h.sleep(Duration::from_millis(1)).await;
        }
    }
    faults.note(format_args!(
        "drain-complete epoch={}",
        store.placement().epoch()
    ));
}

/// The injection schedule: repeatedly partition exactly `laggard`
/// away so its local replica of the target register goes stale while
/// majority writes proceed — the window the freshness saboteur reads
/// in.
async fn drive_targeted_partitions(faults: &Faults, laggard: NodeId, stop: &Rc<Cell<bool>>) {
    let h = &faults.h;
    let rng = h.rng().stream("chaos-fault-schedule");
    while !stop.get() {
        h.sleep(Duration::from_nanos(rng.gen_range(400_000..1_200_000)))
            .await;
        if stop.get() {
            break;
        }
        faults.isolate(laggard);
        h.sleep(Duration::from_nanos(rng.gen_range(2_000_000..5_000_000)))
            .await;
        faults.heal_partitions();
    }
    faults.heal_all();
}

fn pick(rng: &DetRng, nodes: &[NodeId]) -> NodeId {
    nodes[rng.gen_range(0..nodes.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::sweep_width;

    #[test]
    fn sweep_width_is_the_default_only_when_unset() {
        assert_eq!(sweep_width(None, 6), 6);
        assert_eq!(sweep_width(Some("128"), 6), 128);
        assert_eq!(sweep_width(Some(" 128 "), 6), 128);
    }

    #[test]
    #[should_panic(expected = "CHAOS_SEEDS=\"12x\" is not a seed count")]
    fn sweep_width_rejects_a_typo() {
        sweep_width(Some("12x"), 6);
    }

    #[test]
    #[should_panic(expected = "CHAOS_SEEDS=\"\" is not a seed count")]
    fn sweep_width_rejects_an_empty_value() {
        sweep_width(Some(""), 6);
    }
}
