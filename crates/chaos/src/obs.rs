//! Seeded chaos for the observability control plane: alert fidelity
//! under a primary kill plus a fabric-wide drop spike.
//!
//! [`run_obs_scenario`] deploys a full [`pcsi_cloud::CloudBuilder`]
//! stack with metrics, tracing and observability enabled, subscribes to
//! the `alerts` FIFO like any other PR 9 stream, and drives a
//! three-phase workload against one linearizable register:
//!
//! 1. **healthy** — writes land in well under the latency SLO and no
//!    failovers occur, so no rule may leave `Ok`;
//! 2. **incident** — the register's primary is killed while 10% of all
//!    fabric messages drop: writes fail over and the ones that meet a
//!    drop pay retries, so *both* rules (a write-latency quantile and a
//!    failover burn rate) must walk pending → firing, exactly once;
//! 3. **healed** — the node restarts and drops clear; both rules must
//!    resolve, exactly once, and never re-fire.
//!
//! The fidelity contract is "exactly the expected alerts": per rule the
//! full lifecycle is `pending, firing, resolved` — a missed alert, a
//! flap (extra cycle), or a spurious rule firing is a violation. On top
//! of that the lines received through the `alerts` subscription must be
//! exactly the engine's transition log (streaming alerts loses
//! nothing), and the firing latency alert must carry a histogram
//! exemplar that joins back to a rendered trace ("p99 offender → span
//! tree"). Everything derives from the one seed and the report renders
//! byte-stably; `tests/determinism.rs` pins its fingerprint.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use pcsi_cloud::{CloudBuilder, Lab, ObsConfig};
use pcsi_core::api::CreateOptions;
use pcsi_core::{CloudInterface, Consistency};
use pcsi_net::{NodeId, Topology};
use pcsi_obs::exemplar_trace;
use pcsi_store::{RetryPolicy, StoreConfig};
use pcsi_trace::Sampling;

use crate::report::{Faults, Report};

/// The two rules the scenario installs, in declaration order.
///
/// The latency rule is a p99 because of what the incident looks like
/// from the histogram: once a client has failed over it writes to the
/// new coordinator directly, so only the writes that meet a drop or the
/// dead primary are slow — about one in ten — and the workers stuck in
/// those complete nothing meanwhile, leaving a dozen samples per 15 ms
/// window. A p90 rule sits on that fraction and clears mid-incident on a
/// 11/12 window (seed 11862029); at p99 one slow write breaches.
const RULES: [&str; 2] = [
    "write-p99: p99(kernel.op_ns{op=\"write\"}) < 2ms over 15ms for 2 clear 3",
    "failover-burn: burn(store.failovers / kernel.ops{op=\"write\"}) budget 5% \
     fast 10ms slow 25ms rate 1 for 2 clear 3",
];

/// Evaluation tick interval (virtual time).
const TICK: Duration = Duration::from_millis(5);

/// Runs one seeded observability chaos scenario end to end. The body
/// is the engine's alert transition log, how many of those lines the
/// `alerts` FIFO subscription delivered, the worst
/// `kernel.op_ns{op="write"}` exemplar at or above the latency threshold
/// (and whether its trace was still in the sink to join), and the
/// structured event journal.
pub fn run_obs_scenario(seed: u64) -> Report {
    let builder = CloudBuilder::new()
        .topology(Topology::uniform(2, 3))
        .tracing(Sampling::Always)
        .metrics(true)
        .observability(ObsConfig {
            rules: RULES.iter().map(|r| (*r).to_string()).collect(),
            interval: TICK,
            journal_capacity: 512,
        })
        .store(StoreConfig {
            anti_entropy: None,
            // Failover on, deadlines below the fabric's retransmit
            // timeout: the incident phase must surface as latency and
            // failovers, never as client errors.
            retry: RetryPolicy::tight(),
            ..StoreConfig::default()
        });
    Lab::run(seed, builder, move |lab| drive(lab, seed))
}

async fn drive(lab: Lab, seed: u64) -> Report {
    let (cloud, h) = (&lab.cloud, &lab.h);
    let obs = cloud.obs.clone().expect("observability is on");
    let alerts = cloud.alerts.clone().expect("alerts FIFO exists");
    let fabric = cloud.fabric.clone();
    let alerts_home = cloud.store.placement().primary(alerts.id());

    // One linearizable register whose primary is NOT the alerts FIFO's
    // home node — killing it must break writes, not alert delivery.
    let creator = cloud.kernel.client(NodeId(0), "obs-chaos");
    let (target, primary) = {
        let mut picked = None;
        for _ in 0..8 {
            let r = creator
                .create(
                    CreateOptions::regular()
                        .with_consistency(Consistency::Linearizable)
                        .with_initial(vec![0u8; 8]),
                )
                .await
                .expect("create on a healthy cluster");
            let p = cloud.store.placement().replicas(r.id())[0];
            if p != alerts_home {
                picked = Some((r, p));
                break;
            }
        }
        picked.expect("a register with primary != alerts home in 8 draws")
    };

    // Tail the alerts FIFO from the alerts home node (never faulted), so
    // the subscription itself cannot be the thing the incident breaks.
    let streamed: Rc<RefCell<Vec<String>>> = Rc::default();
    let sub = cloud
        .kernel
        .client(alerts_home, "obs-chaos")
        .subscribe(&alerts, 16)
        .await
        .expect("subscribe to the alerts FIFO");
    {
        let streamed = streamed.clone();
        h.spawn_detached(async move {
            while let Some(ev) = sub.next().await {
                let line = String::from_utf8_lossy(&ev.payload).trim_end().to_string();
                streamed.borrow_mut().push(line);
            }
        });
    }

    // Client workers hammer the one register for the whole run.
    let stop = Rc::new(Cell::new(false));
    let nodes = fabric.topology().node_ids();
    let mut workers = Vec::new();
    for w in 0..3usize {
        let rng = h.rng().stream_indexed("obs-chaos-worker", w as u64);
        let node = nodes[rng.gen_range(0..nodes.len() as u64) as usize];
        let client = cloud.kernel.client(node, "obs-chaos");
        let target = target.clone();
        let h2 = h.clone();
        let stop = stop.clone();
        workers.push(h.spawn(async move {
            let mut i = 0u64;
            while !stop.get() {
                h2.sleep(Duration::from_nanos(rng.gen_range(200_000..600_000)))
                    .await;
                i += 1;
                let value = ((w as u64 + 1) << 32) | i;
                let payload = bytes::Bytes::from(value.to_le_bytes().to_vec());
                let _ = client.write(&target, 0, payload).await;
            }
        }));
    }

    // The three-phase fault schedule, on the virtual clock.
    let faults = Faults::new(h, &fabric);
    h.sleep(Duration::from_millis(30)).await; // healthy: 6 ticks
    faults.drops(0.10);
    faults.crash(primary);
    h.sleep(Duration::from_millis(40)).await; // incident: 8 ticks
    faults.heal_all();
    h.sleep(Duration::from_millis(50)).await; // healed: 10 ticks

    stop.set(true);
    for worker in workers {
        worker.await;
    }
    // One more tick interval so in-flight FIFO pushes drain.
    h.sleep(TICK).await;

    // The engine's own log, and the lines the subscription delivered.
    let transitions: Vec<String> = obs.alert_log().lines().map(|l| l.to_string()).collect();
    let streamed: Vec<String> = streamed.borrow().clone();

    // The exemplar join: worst write above the latency threshold →
    // rendered span tree.
    let metrics = cloud.metrics.as_ref().expect("metrics are on");
    let exemplar = metrics
        .find_histogram("kernel.op_ns", &[("op", "write")])
        .and_then(|hist| hist.exemplar_ge(2_000_000));
    let exemplar_trace = match (&exemplar, &cloud.tracer) {
        (Some(ex), Some(t)) => exemplar_trace(t.sink(), ex),
        _ => None,
    };

    // Fidelity: per rule, exactly pending → firing → resolved.
    let mut violations = Vec::new();
    for rule in ["write-p99", "failover-burn"] {
        let phases: Vec<&str> = transitions
            .iter()
            .filter(|l| l.contains(&format!("rule={rule} ")))
            .filter_map(|l| {
                l.split_whitespace()
                    .find_map(|tok| tok.strip_prefix("phase="))
            })
            .collect();
        if phases != ["pending", "firing", "resolved"] {
            violations.push(format!(
                "rule {rule}: expected [pending, firing, resolved], got {phases:?}"
            ));
        }
    }
    if streamed != transitions {
        violations.push(format!(
            "alerts stream delivered {} lines, engine logged {}",
            streamed.len(),
            transitions.len()
        ));
    }
    if exemplar.is_none() {
        violations.push("no kernel.op_ns{op=write} exemplar above the threshold".to_owned());
    } else if exemplar_trace.is_none() {
        violations.push("exemplar trace not retained by the sink".to_owned());
    }

    let mut body = String::new();
    for t in &transitions {
        body.push_str(&format!("{t}\n"));
    }
    body.push_str(&format!(
        "streamed {}/{} lines match={}\n",
        streamed.len(),
        transitions.len(),
        streamed == transitions
    ));
    match &exemplar {
        Some(ex) => body.push_str(&format!(
            "exemplar trace={:016x} value={}ns joined={}\n",
            ex.trace,
            ex.value,
            exemplar_trace.is_some()
        )),
        None => body.push_str("exemplar none\n"),
    }
    body.push_str(&obs.journal().render());
    Report {
        title: format!("obs scenario seed={seed}"),
        seed,
        faults: faults.log(),
        body,
        violations,
        tail: String::new(),
    }
}
