//! `faas_diurnal` — the three-tenant diurnal FaaS mix, open loop.
//!
//! The PR 8 scenario under its predictive configuration: a `web`
//! container function (150 ms) at 60 ± 59 rps, an `api` microVM
//! function (80 ms) at 40 ± 39.5 rps, and an `ingest` (wasm, 5 ms) →
//! `transform` (container, 80 ms) pipeline at 25 ± 24.5 rps, on 60
//! sim-s days with the predictive autoscaler, preemption and the
//! ingest→transform pre-warm edge. The run opens on the first trough
//! (t = 45 s) and lasts five simulated days; requests come round-robin
//! from the eight compute nodes. One op is one driver-issued request;
//! the pipeline's two chained invocations are one op, and every kernel
//! `invoke` is also timed on its own.
//!
//! Chosen because the scheduler, warm pools, autoscaler scans, reaper
//! and sparse long timers put the work in `faas` and in `sim`'s timer
//! wheel rather than its ready queue, while `store.wire` and `proto`
//! are nearly idle (the store serves one function-image read per
//! invocation); its cold-start share and SLO misses are what the
//! paper's "efficient" claim rests on.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::{CloudBuilder, KernelClient};
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::{CloudInterface, Consistency, Mutability, ObjectKind, Reference};
use pcsi_faas::{AutoscaleConfig, FunctionImage, PlacementPolicy, TaskGraph, Variant, WorkModel};
use pcsi_net::NodeId;
use pcsi_sim::{DetRng, SimTime};

use super::{
    fail, open_loop, poisson_arrivals, run_pass, Driven, OpLog, Pass, Role, Telemetry, Window,
    Workload,
};
use crate::spans::SpanRec;

const DAY: Duration = Duration::from_secs(60);
/// The sine starts at its mean; three quarters of a day in, it bottoms.
const OPEN_AT: SimTime = SimTime::from_secs(45);
const DAYS: u32 = 5;
/// A quarter day: the autoscaler's estimators see their first dawn
/// before statistics start.
const WARMUP: Duration = Duration::from_secs(15);
const LIMIT: Duration = Duration::from_millis(300);
/// The default topology's compute nodes, ids 0..8.
const CLIENT_NODES: u32 = 8;

/// `(function, mean rps, amplitude rps)` per tenant; the pipeline
/// tenant's second stage is `transform`.
const TENANTS: [(&str, f64, f64); 3] = [
    ("web", 60.0, 59.0),
    ("api", 40.0, 39.5),
    ("ingest", 25.0, 24.5),
];

const REQUEST: usize = 0;
const INVOKE: usize = 1;

/// The seeded schedule: merged arrivals of the three tenants.
pub struct Plan {
    seed: u64,
    /// `(due, tenant)` in due order.
    arrivals: Rc<Vec<(SimTime, u8)>>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let (warm, until) = (OPEN_AT + WARMUP, OPEN_AT + DAY * DAYS);
        let mut arrivals = Vec::new();
        for (tenant, &(_, mean, amplitude)) in TENANTS.iter().enumerate() {
            let rng = DetRng::seeded(seed ^ (0x6661_6173 + tenant as u64));
            // Integral of `mean + amplitude·sin(2πt/DAY)` from 0 to t; the
            // amplitude stays below the mean, so the rate never clips.
            let expected = |t: SimTime| {
                let (t, day) = (t.as_secs_f64(), DAY.as_secs_f64());
                let omega = std::f64::consts::TAU / day;
                mean * t + amplitude / omega * (1.0 - (omega * t).cos())
            };
            for (from, to) in [(OPEN_AT, warm), (warm, until)] {
                arrivals.extend(
                    poisson_arrivals(&rng, from, to, expected)
                        .into_iter()
                        .map(|at| (at, tenant as u8)),
                );
            }
        }
        arrivals.sort();
        Plan {
            seed,
            arrivals: Rc::new(arrivals),
        }
    }
}

/// `(name, work, variant)` of the four functions.
fn functions() -> [(&'static str, Duration, Variant); 4] {
    [
        ("web", Duration::from_millis(150), Variant::cpu(2)),
        ("api", Duration::from_millis(80), Variant::microvm(1)),
        ("ingest", Duration::from_millis(5), Variant::wasm(1)),
        ("transform", Duration::from_millis(80), Variant::cpu(2)),
    ]
}

impl Workload for Plan {
    fn pass(&self, telemetry: Telemetry, rec: &SpanRec) -> Pass {
        let arrivals = Rc::clone(&self.arrivals);
        run_pass(
            (self.seed, LIMIT),
            telemetry,
            rec,
            |h| {
                let builder = CloudBuilder::new()
                    .placement(PlacementPolicy::Scavenge)
                    .keep_alive(Duration::from_secs(3))
                    .autoscale(AutoscaleConfig {
                        interval: Duration::from_millis(100),
                        window: Duration::from_secs(2),
                        ..AutoscaleConfig::enabled()
                    })
                    .preemption(true);
                telemetry.apply(builder).build(h)
            },
            |h, cloud| {
                Box::pin(async move {
                    let client = cloud.kernel.client(NodeId(0), "diurnal");
                    let mut refs: Vec<Reference> = Vec::new();
                    for (name, work, variant) in functions() {
                        cloud.kernel.register_body(
                            name,
                            Rc::new(move |ctx| {
                                Box::pin(async move {
                                    ctx.compute(work).await;
                                    Ok(Bytes::new())
                                })
                            }),
                        );
                        let image = FunctionImage {
                            name: name.into(),
                            work: WorkModel::fixed(work),
                            variants: vec![variant],
                        };
                        let created = client
                            .create(CreateOptions {
                                kind: ObjectKind::Function,
                                mutability: Mutability::Mutable,
                                consistency: Consistency::Linearizable,
                                initial: image.encode(),
                                fifo_capacity: None,
                            })
                            .await
                            .expect("create function");
                        refs.push(created);
                    }
                    let graph = TaskGraph::linear(&["ingest", "transform"]);
                    cloud.runtime.register_prewarm_graph(&graph, |stage| {
                        (stage.function == "transform").then(|| Variant::cpu(2))
                    });
                    h.sleep_until(OPEN_AT).await;
                    refs
                })
            },
            move |h, cloud, refs: Vec<Reference>, errors| {
                let stats_from = OPEN_AT + WARMUP;
                let log = OpLog::new(
                    stats_from,
                    &[("request", Role::Primary), ("invoke", Role::Part)],
                );
                let root = {
                    let log = Rc::clone(&log);
                    async move {
                        // Time-averaged cluster CPU utilisation, sampled
                        // every 100 ms of virtual time.
                        let stop = Rc::new(Cell::new(false));
                        let sampler = h.spawn({
                            let (h, stop) = (h.clone(), Rc::clone(&stop));
                            let cluster = cloud.runtime.cluster().clone();
                            async move {
                                let (mut sum, mut n) = (0.0f64, 0u64);
                                while !stop.get() {
                                    sum += cluster.mean_cpu_utilization();
                                    n += 1;
                                    h.sleep(Duration::from_millis(100)).await;
                                }
                                sum / n as f64
                            }
                        });
                        let started = (cloud.runtime.invocations(), cloud.runtime.failures());
                        let invoked_ok = Rc::new(Cell::new(0u64));
                        // Requests come round-robin from the eight compute
                        // nodes: whether a caller happens to hold a replica
                        // of the function image it reads is a per-seed
                        // accident (object ids derive from the seed), and
                        // with one calling node that accident alone moved
                        // events per op by 7 % between seeds.
                        let clients: Rc<Vec<KernelClient>> = Rc::new(
                            (0..CLIENT_NODES)
                                .map(|n| cloud.kernel.client(NodeId(n), "diurnal"))
                                .collect(),
                        );
                        let refs = Rc::new(refs);
                        let due_arrivals = Rc::clone(&arrivals);
                        open_loop(
                            &h,
                            arrivals.len(),
                            |i| due_arrivals[i].0,
                            |i, due| {
                                let tenant = arrivals[i].1 as usize;
                                let (h, log) = (h.clone(), Rc::clone(&log));
                                let (clients, refs, invoked_ok) = (
                                    Rc::clone(&clients),
                                    Rc::clone(&refs),
                                    Rc::clone(&invoked_ok),
                                );
                                Box::pin(async move {
                                    let client = &clients[i % clients.len()];
                                    // Tenant 2 chains ingest → transform.
                                    let stages: &[usize] =
                                        if tenant == 2 { &[2, 3] } else { &[tenant] };
                                    let mut ok = true;
                                    for &f in stages {
                                        let t0 = h.now();
                                        let done =
                                            client.invoke(&refs[f], InvokeRequest::default()).await;
                                        log.borrow_mut().record(INVOKE, t0, h.now(), done.is_ok());
                                        match done {
                                            Ok(_) => invoked_ok.set(invoked_ok.get() + 1),
                                            Err(_) => {
                                                ok = false;
                                                break;
                                            }
                                        }
                                    }
                                    log.borrow_mut().record(REQUEST, due, h.now(), ok);
                                })
                            },
                        )
                        .await;
                        let until = h.now();
                        stop.set(true);
                        let mean_cpu_util = sampler.await;
                        let ran = cloud.runtime.invocations() - started.0;
                        let failed = cloud.runtime.failures() - started.1;
                        if ran - failed != invoked_ok.get() {
                            fail(&errors, || {
                                format!(
                                    "runtime ran {ran} invocations and failed {failed}, \
                                     but {} returned to the driver",
                                    invoked_ok.get()
                                )
                            });
                        }
                        Driven {
                            until,
                            extra: BTreeMap::from([("faas.mean_cpu_util", mean_cpu_util)]),
                        }
                    }
                };
                Window {
                    log,
                    stats_from,
                    root: Box::pin(root),
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_follow_the_diurnal_curve() {
        let plan = Plan::new(3);
        let n = plan.arrivals.len() as f64;
        // Mean 125 requests/s over 300 s.
        assert!((n / 37_500.0 - 1.0).abs() < 0.001, "{n} arrivals");
        assert_eq!(Plan::new(4).arrivals.len(), plan.arrivals.len());
        assert!(plan.arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(plan.arrivals.iter().all(|&(t, _)| t >= OPEN_AT));
        // The run opens on a trough: the first quarter day is quiet
        // next to the quarter around the following peak.
        let within = |from: u64, to: u64| {
            plan.arrivals
                .iter()
                .filter(|&&(t, _)| t >= SimTime::from_secs(from) && t < SimTime::from_secs(to))
                .count()
        };
        assert!(within(45, 60) * 4 < within(60, 90));
    }
}
