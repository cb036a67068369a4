//! Seeded chaos scenarios over the full cloud stack.
//!
//! [`run_scenario`] builds a complete [`CloudBuilder`] deployment
//! inside a fresh deterministic simulation, lets client workers hammer
//! a set of register objects through the kernel while a fault driver
//! executes a seeded schedule (crashes, partitions, message faults),
//! then heals everything, drives anti-entropy to quiescence, and runs
//! the [`crate::checker`] suite over the history the workers recorded.
//!
//! Everything — the fault schedule, the worker interleaving, the
//! network jitter — derives from the one seed, so a failing seed
//! reproduces byte-identically: re-running it yields the same
//! [`Report::render`] output, byte for byte.

use std::cell::{Cell, RefCell};
use std::ops::Range;
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
use crate::history::{decode_value, encode_value, Op, OpKind};
use crate::report::{net_line, Faults, Report};

/// What kind of faults the seeded schedule injects. Each plan also fixes
/// the scenario's shape: 4 workers × 24 ops over 2 linearizable and 2
/// eventual registers, except [`FaultPlan::StaleReads`].
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
    /// A deliberate freshness bug the linearizability checker must
    /// reject: the fault driver keeps partitioning away the last replica
    /// of the one linearizable register, and a saboteur co-located with
    /// it reads the register through the *eventual* (closest-replica)
    /// path, bypassing the read quorum. 3 workers × 20 ops, all on that
    /// register.
    StaleReads,
}

/// Which seeded driver breaks the deployment.
enum Schedule {
    /// Every ~0.8–3 ms one of these actions (none: a healthy run).
    Random(&'static [Action]),
    /// 5% drops plus a crashing primary.
    Drops,
    /// 5% drops, a mid-run join of `spare`, and crashes during the moves.
    Rebalance { spare: NodeId },
    /// The target's last replica partitioned away, again and again.
    StaleReads,
}

#[derive(Clone, Copy)]
enum Action {
    Crash,
    Partition,
    Messages,
}

/// Which plan and whether to trace: everything else a scenario does
/// follows from the plan and the seed.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Fault schedule kind.
    pub plan: FaultPlan,
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
    let n = pcsi_sim::rng::sweep_width("CHAOS_SEEDS", default_n);
    (0..n as u64).map(|i| base + i).collect()
}

/// Runs one seeded scenario end to end and returns its report. The
/// body's `recovery … client-errors=` counts the operation failures the
/// workers actually observed: the fault-recovery layer should mask
/// transient faults, so under [`FaultPlan::Drops`] it must be zero.
pub fn run_scenario(seed: u64, cfg: &ScenarioConfig) -> Report {
    use Action::{Crash, Messages, Partition};
    // The builder's default topology, restated here for the node list:
    // the rebalance schedule deploys with the last node held out of the
    // placement ring — the warm standby the fault driver joins mid-run.
    let all_nodes = Topology::heterogeneous(2, 4).node_ids();
    let spare = *all_nodes.last().expect("the topology has nodes");
    let (retry, schedule) = match cfg.plan {
        FaultPlan::None => (RetryPolicy::default(), Schedule::Random(&[])),
        FaultPlan::CrashRestart => (RetryPolicy::default(), Schedule::Random(&[Crash])),
        FaultPlan::PartitionHeal => (RetryPolicy::default(), Schedule::Random(&[Partition])),
        FaultPlan::MessageFaults => (RetryPolicy::default(), Schedule::Random(&[Messages])),
        FaultPlan::Mixed => (
            RetryPolicy::default(),
            Schedule::Random(&[Crash, Partition, Messages]),
        ),
        FaultPlan::Drops => (RetryPolicy::tight(), Schedule::Drops),
        FaultPlan::Rebalance => (RetryPolicy::tight(), Schedule::Rebalance { spare }),
        FaultPlan::StaleReads => (RetryPolicy::default(), Schedule::StaleReads),
    };
    let ring_nodes = matches!(schedule, Schedule::Rebalance { .. })
        .then(|| all_nodes.iter().copied().filter(|&n| n != spare).collect());
    let builder = CloudBuilder::new()
        .tracing(cfg.sampling)
        .metrics(true)
        .store(StoreConfig {
            // Anti-entropy is driven manually after heal, so the
            // quiescence point is explicit and bounded.
            anti_entropy: None,
            retry,
            ring_nodes,
            ..StoreConfig::default()
        });
    let plan = cfg.plan;
    Lab::run(seed, builder, move |lab| drive(lab, seed, plan, schedule))
}

async fn drive(lab: Lab, seed: u64, plan: FaultPlan, schedule: Schedule) -> Report {
    let (cloud, h) = (&lab.cloud, &lab.h);
    let store = cloud.store.clone();
    let fabric = cloud.fabric.clone();
    let nodes = fabric.topology().node_ids();
    // The plan's shape: workers × ops each, over linearizable +
    // eventual registers.
    let (workers, ops_per_worker, lin_objects, ev_objects): (usize, usize, usize, usize) =
        match plan {
            FaultPlan::StaleReads => (3, 20, 1, 0),
            _ => (4, 24, 2, 2),
        };

    // Register objects, all initialized to value 0.
    let creator = cloud.kernel.client(NodeId(0), "chaos");
    let mut objects: Vec<(pcsi_core::Reference, Consistency)> = Vec::new();
    for i in 0..lin_objects + ev_objects {
        let consistency = if i < lin_objects {
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
        objects.push((obj, consistency));
    }
    let target: ObjectId = objects[0].0.id();
    // The stale-read schedule partitions the target's last replica away
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
        let store = store.clone();
        let faults = faults.clone();
        let stop = stop.clone();
        let nodes = nodes.clone();
        h.spawn(async move {
            let rng = faults.h.rng().stream("chaos-fault-schedule");
            match schedule {
                Schedule::Random(actions) => {
                    drive_faults(&faults, &rng, actions, &nodes, &stop).await
                }
                Schedule::Drops => {
                    faults.drops(0.05);
                    let crash = || {
                        faults.crash(primary);
                        primary
                    };
                    let gaps = (1_500_000..3_000_000, 1_000_000..2_500_000);
                    fault_then_undo(&faults, &rng, &stop, gaps, crash, |n| {
                        faults.restart(n);
                    })
                    .await;
                    faults.heal_all();
                }
                Schedule::Rebalance { spare } => {
                    drive_rebalance(&store, &faults, &rng, spare, &stop).await;
                }
                Schedule::StaleReads => {
                    let isolate = || {
                        faults.isolate(laggard);
                        laggard
                    };
                    let gaps = (400_000..1_200_000, 2_000_000..5_000_000);
                    fault_then_undo(&faults, &rng, &stop, gaps, isolate, |_| {
                        faults.heal_partitions();
                    })
                    .await;
                    faults.heal_all();
                }
            }
        })
    };

    // Client workers hammer the registers through the kernel. Each
    // stamps its operation's invocation before the kernel call and its
    // response after it, records the operation, and counts every failure
    // it actually observes.
    let history: Rc<RefCell<Vec<Op>>> = Rc::default();
    let client_errors: Rc<Cell<u64>> = Rc::default();
    let mut tasks = Vec::new();
    for w in 0..workers {
        let rng = h.rng().stream_indexed("chaos-worker", w as u64);
        let node = nodes[rng.gen_range(0..nodes.len() as u64) as usize];
        let client = cloud.kernel.client(node, "chaos");
        let refs: Vec<pcsi_core::Reference> = objects.iter().map(|(r, _)| r.clone()).collect();
        let h2 = h.clone();
        let history = history.clone();
        let errs = client_errors.clone();
        let faults = faults.clone();
        let drops = plan == FaultPlan::Drops;
        tasks.push(h.spawn(async move {
            for i in 0..ops_per_worker {
                h2.sleep(Duration::from_nanos(rng.gen_range(100_000..900_000)))
                    .await;
                let flips = faults.flips(node);
                // One register (`StaleReads`) is picked without a draw.
                let obj = match &refs[..] {
                    [only] => only,
                    refs => &refs[rng.gen_range(0..refs.len() as u64) as usize],
                };
                let invoke = h2.now();
                let kind = if rng.bool(0.5) {
                    let value = ((w as u64 + 1) << 32) | (i as u64 + 1);
                    let ok = client.write(obj, 0, encode_value(value)).await.is_ok();
                    Some(OpKind::Write { value, ok })
                } else {
                    read_kind(client.read(obj, 0, 8).await.ok().as_deref())
                };
                let failed = matches!(
                    kind,
                    Some(OpKind::Write { ok: false, .. } | OpKind::Read { value: None })
                );
                if let Some(kind) = kind {
                    history.borrow_mut().push(Op {
                        client: node,
                        object: obj.id(),
                        kind,
                        invoke,
                        response: h2.now(),
                    });
                }
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
    if plan == FaultPlan::StaleReads {
        let reader = store.client(laggard);
        let rng = h.rng().stream("chaos-bug-reader");
        let h2 = h.clone();
        let history = history.clone();
        tasks.push(h.spawn(async move {
            for _ in 0..16 {
                h2.sleep(Duration::from_nanos(rng.gen_range(300_000..900_000)))
                    .await;
                let invoke = h2.now();
                let read = reader.read(target, 0, 8, Consistency::Eventual).await;
                if let Some(kind) = read_kind(read.ok().map(|(_, data)| data).as_deref()) {
                    history.borrow_mut().push(Op {
                        client: laggard,
                        object: target,
                        kind,
                        invoke,
                        response: h2.now(),
                    });
                }
            }
        }));
    }

    for task in tasks {
        task.await;
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
    let ops = history.take();
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
        title: format!("chaos scenario seed={seed} plan={plan:?}"),
        seed,
        faults: faults.log(),
        body,
        violations: violations.iter().map(ToString::to_string).collect(),
        tail,
    }
}

/// What a register read observed, given the bytes it returned (`None`:
/// it failed and observed nothing). A payload that is not a register
/// value is left out of the history.
fn read_kind(data: Option<&[u8]>) -> Option<OpKind> {
    match data {
        Some(data) => decode_value(data).map(|v| OpKind::Read { value: Some(v) }),
        None => Some(OpKind::Read { value: None }),
    }
}

/// The general seeded fault schedule: every ~0.8–3 ms pick one of
/// `actions`, keeping at most one node crashed and one partitioned at a
/// time (so linearizable quorums usually stay available). On stop,
/// everything heals.
async fn drive_faults(
    faults: &Faults,
    rng: &DetRng,
    actions: &[Action],
    nodes: &[NodeId],
    stop: &Cell<bool>,
) {
    let h = &faults.h;
    let mut downed: Option<NodeId> = None;
    let mut partitioned = false;
    let mut faults_on = false;
    while !stop.get() {
        h.sleep(Duration::from_nanos(rng.gen_range(800_000..3_000_000)))
            .await;
        if stop.get() {
            break;
        }
        let action = match *actions {
            [] => continue,
            [only] => only,
            _ => actions[rng.gen_range(0..actions.len() as u64) as usize],
        };
        match action {
            Action::Crash => match downed.take() {
                Some(node) => faults.restart(node),
                None => {
                    let node = pick(rng, nodes);
                    faults.crash(node);
                    downed = Some(node);
                }
            },
            Action::Partition => {
                if partitioned {
                    faults.heal_partitions();
                } else {
                    faults.isolate(pick(rng, nodes));
                }
                partitioned = !partitioned;
            }
            Action::Messages => {
                if faults_on {
                    faults.clear_messages();
                } else {
                    faults.messages(MessageFaults {
                        drop: 0.02 + 0.06 * rng.f64(),
                        duplicate: 0.05,
                        delay_spike: 0.10,
                        spike: Duration::from_micros(200 + rng.gen_range(0..400)),
                    });
                }
                faults_on = !faults_on;
            }
        }
    }
    faults.heal_all();
}

/// The loop every targeted schedule runs: until `stop`, wait a draw
/// from `gap` (ns), `fault` a node, hold it a draw from `hold`, then
/// `undo` the fault on that node. The schedule heals what is left.
async fn fault_then_undo(
    faults: &Faults,
    rng: &DetRng,
    stop: &Cell<bool>,
    (gap, hold): (Range<u64>, Range<u64>),
    fault: impl Fn() -> NodeId,
    undo: impl Fn(NodeId),
) {
    let h = &faults.h;
    while !stop.get() {
        h.sleep(Duration::from_nanos(rng.gen_range(gap.clone())))
            .await;
        if stop.get() {
            break;
        }
        let node = fault();
        h.sleep(Duration::from_nanos(rng.gen_range(hold.clone())))
            .await;
        undo(node);
    }
}

/// Virtual time the healed fabric gets to finish the rebalance drain.
const DRAIN_BUDGET: Duration = Duration::from_secs(10);

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
    rng: &DetRng,
    spare: NodeId,
    stop: &Rc<Cell<bool>>,
) {
    let (h, fabric) = (&faults.h, &faults.fabric);
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
        let stop = stop.clone();
        let rng = h.rng().stream("chaos-rebalance-killer");
        let candidates: Vec<NodeId> = fabric
            .topology()
            .node_ids()
            .into_iter()
            .filter(|&n| n != spare)
            .collect();
        h.spawn(async move {
            let crash = || {
                let victim = pick(&rng, &candidates);
                faults.crash(victim);
                victim
            };
            let gaps = (800_000..2_000_000, 600_000..1_500_000);
            fault_then_undo(&faults, &rng, &stop, gaps, crash, |n| faults.restart(n)).await;
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
    // A drain still stuck after the budget is logged instead of retried
    // forever; the report then lacks `drain-complete`.
    let since = h.now();
    while !store.placement().pending_moves().is_empty() {
        if h.now() - since >= DRAIN_BUDGET {
            faults.note("drain-stalled");
            return;
        }
        if store.drain_moves(None).await.is_err() {
            h.sleep(Duration::from_millis(1)).await;
        }
    }
    faults.note(format_args!(
        "drain-complete epoch={}",
        store.placement().epoch()
    ));
}

fn pick(rng: &DetRng, nodes: &[NodeId]) -> NodeId {
    nodes[rng.gen_range(0..nodes.len() as u64) as usize]
}
