//! `macro_day` — the stack as deployed, telemetry on, through a
//! topology change and a fault window.
//!
//! A 12-node topology (4 racks × 3) with a 3-node storage ring and the
//! program's own telemetry **on**: `metrics(true)`,
//! `tracing(Sampling::Ratio(0.01))`, `observability` with one latency
//! rule and one burn-rate rule on a 100 ms tick. One pass is
//! [`PASS`] of virtual time:
//!
//! * (a) 32 closed-loop clients, each thinking 2 – 3 ms between ops,
//!   3 linearizable 1 KiB writes : 1 read, on 256 private objects (8 per
//!   client): ~10,000 KV ops/s, about a quarter of the 3-node ring's
//!   capacity;
//! * (b) at [`JOIN_AT`] two warm standbys join the ring (3 → 5) and the
//!   shards drain under a pacer while traffic continues;
//! * (c) from [`DROP_FROM`] to [`DROP_TO`] every fabric message is
//!   dropped with probability 2 % (seeded);
//! * (d) one FIFO publisher at [`STREAM_RATE`] events/s to eight
//!   subscribers on other nodes, credit window 32;
//! * (e) the `web` function (container, 150 ms) at a steady
//!   [`FAAS_RATE`] rps.
//!
//! Chosen because it is the only workload where `stream`, migration,
//! the retry / deadline / failover loops and `metrics` / `trace` /
//! `obs` do work, and because it drives the store closed-loop through a
//! topology change — the same layer as `kv_mixed`, used differently.
//! Telemetry on here and off in the other three is what lets a
//! telemetry change show a gain here and no movement there.
//!
//! The sizes are the issue's sketch cut to ~1 host-second per pass, each
//! cut measured. Without think time the 32 clients complete ~54,000 KV
//! ops per simulated second (5.1 host-s for a 2 s day); eight simulated
//! seconds of that is one pass per run. So the day is 2 s, not 8, with
//! the join and the fault window at the same relative instants, and the
//! clients think. The stream runs at 2,000 events/s (a subscription's
//! pump carries ~5,000/s: at 4,000/s a third of the appends were
//! refused) and `web` at 200 rps, so each still has a sample inside the
//! shorter day. Shares of executor polls, each source run alone: KV
//! 0.67, stream 0.29, FaaS 0.04.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_cloud::{Cloud, CloudBuilder, KernelClient, ObsConfig};
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::{
    CloudInterface, Consistency, Mutability, ObjectKind, PcsiError, Reference, Rights,
};
use pcsi_faas::{FunctionImage, Variant, WorkModel};
use pcsi_net::{MessageFaults, NodeId, Topology};
use pcsi_sim::util::Pacer;
use pcsi_sim::{DetRng, SimHandle, SimTime};
use pcsi_trace::Sampling;

use super::{
    fail, fill, open_loop, run_pass, steady_arrivals, uniform_lane, Driven, OpLog, Pass, Role,
    Telemetry, Window, Workload,
};
use crate::spans::SpanRec;

/// Virtual length of the day, from the window's opening.
pub const PASS: Duration = Duration::from_millis(2_000);
const WARMUP: Duration = Duration::from_millis(100);
pub const JOIN_AT: Duration = Duration::from_millis(500);
pub const DROP_FROM: Duration = Duration::from_millis(1_000);
pub const DROP_TO: Duration = Duration::from_millis(1_250);
const DROP: f64 = 0.02;
pub const STREAM_RATE: f64 = 2_000.0;
pub const FAAS_RATE: f64 = 200.0;
const LIMIT: Duration = Duration::from_millis(10);

const RING: [u32; 3] = [0, 4, 8];
const JOINERS: [u32; 2] = [2, 10];
const PACE: Duration = Duration::from_millis(1);
const CLIENTS: usize = 32;
const OBJECTS_PER_CLIENT: usize = 8;
const VALUE: usize = 1024;
/// Think time between a client's ops, uniform over this range.
const THINK_NS: std::ops::Range<u64> = 2_000_000..3_000_000;
const SUBSCRIBERS: usize = 8;
const CREDIT_WINDOW: u32 = 32;
const PUBLISHER_NODE: NodeId = NodeId(1);
const FAAS_NODE: NodeId = NodeId(5);
const EVENT_BYTES: usize = 64;

const RULES: [&str; 2] = [
    "kv-write-p99: p99(kernel.op_ns{op=\"write\"}) < 10ms over 500ms for 2 clear 2",
    "retry-burn: burn(store.retries / kernel.ops{op=\"write\"}) budget 1% \
     fast 200ms slow 1s rate 1 for 1 clear 2",
];

const KV: usize = 0;
const READ: usize = 1;
const WRITE: usize = 2;
const INVOKE: usize = 3;
const PUBLISH: usize = 4;
const DELIVER: usize = 5;
const KV_DRAIN: usize = 6;

/// Which traffic sources run; all three except in the ablation passes
/// that measure each source's share of executor polls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parts {
    pub kv: bool,
    pub faas: bool,
    pub stream: bool,
}

const ALL: Parts = Parts {
    kv: true,
    faas: true,
    stream: true,
};

/// The seeded schedule: open-loop arrivals of (d) and (e); the closed
/// loop of (a) draws from per-client streams as it goes.
pub struct Plan {
    seed: u64,
    parts: Parts,
    publishes: Rc<Vec<SimTime>>,
    invokes: Rc<Vec<SimTime>>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        Plan::with_parts(seed, ALL)
    }

    fn with_parts(seed: u64, parts: Parts) -> Plan {
        let (warm, end) = (SimTime::ZERO + WARMUP, SimTime::ZERO + PASS);
        let arrivals = |salt: u64, rate: f64| {
            let rng = DetRng::seeded(seed ^ salt);
            Rc::new(steady_arrivals(
                &rng,
                &[(SimTime::ZERO, warm), (warm, end)],
                rate,
            ))
        };
        Plan {
            seed,
            parts,
            publishes: arrivals(0x7374_7265_616D, STREAM_RATE),
            invokes: arrivals(0x6D61_6372_6F66, FAAS_RATE),
        }
    }
}

struct Loaded {
    /// `objects[c]` are client `c`'s private objects.
    objects: Vec<Vec<Reference>>,
    web: Reference,
    fifo: Reference,
}

fn value_of(lane: u64) -> Bytes {
    Bytes::from(fill(lane, VALUE))
}

/// What a private object may legally hold: the last acknowledged write,
/// or any write since whose outcome the client never learnt.
#[derive(Debug, Clone)]
struct Expect {
    acked: u64,
    unknown: Vec<u64>,
}

impl Expect {
    fn allows(&self, lane: u64) -> bool {
        lane == self.acked || self.unknown.contains(&lane)
    }
}

async fn retrying<T>(
    h: &SimHandle,
    refused: &Cell<u64>,
    mut call: impl AsyncFnMut() -> Result<T, PcsiError>,
) -> Result<T, PcsiError> {
    // Backpressure and a lost transfer are both retryable by contract;
    // a producer or caller that gave up on them would not be a client
    // anyone runs. Bounded so a wedged layer fails the op, not the run.
    for _ in 0..64 {
        match call().await {
            Err(PcsiError::Overloaded(_) | PcsiError::Fault(_)) => {
                refused.set(refused.get() + 1);
                h.sleep(Duration::from_micros(50)).await;
            }
            other => return other,
        }
    }
    Err(PcsiError::Timeout)
}

impl Workload for Plan {
    fn ablations(&self) -> Vec<(&'static str, Box<dyn Workload>)> {
        let none = Parts {
            kv: false,
            faas: false,
            stream: false,
        };
        vec![
            (
                "kv",
                Box::new(Plan::with_parts(self.seed, Parts { kv: true, ..none })),
            ),
            (
                "faas",
                Box::new(Plan::with_parts(self.seed, Parts { faas: true, ..none })),
            ),
            (
                "stream",
                Box::new(Plan::with_parts(
                    self.seed,
                    Parts {
                        stream: true,
                        ..none
                    },
                )),
            ),
        ]
    }

    fn pass(&self, telemetry: Telemetry, rec: &SpanRec) -> Pass {
        let (seed, parts) = (self.seed, self.parts);
        let (publishes, invokes) = (Rc::clone(&self.publishes), Rc::clone(&self.invokes));
        run_pass(
            (seed, LIMIT),
            telemetry,
            rec,
            |h| {
                let builder = CloudBuilder::new()
                    .topology(Topology::uniform(4, 3))
                    .storage_ring(RING.map(NodeId).to_vec())
                    .metrics(true)
                    .tracing(Sampling::Ratio(0.01))
                    .observability(ObsConfig {
                        rules: RULES.map(String::from).to_vec(),
                        interval: Duration::from_millis(100),
                        ..ObsConfig::default()
                    });
                telemetry.apply(builder).build(h)
            },
            |_h, cloud| Box::pin(preload(cloud)),
            move |h, cloud, loaded: Loaded, errors| {
                let opened = h.now();
                let stats_from = opened + WARMUP;
                let log = OpLog::new(
                    stats_from,
                    &[
                        ("kv", Role::Primary),
                        ("read", Role::Part),
                        ("write", Role::Part),
                        ("invoke", Role::Op),
                        ("publish", Role::Op),
                        ("deliver", Role::Part),
                        ("kv_drain", Role::Part),
                    ],
                );
                let day = Day {
                    h,
                    cloud,
                    loaded: Rc::new(loaded),
                    log: Rc::clone(&log),
                    errors,
                    opened,
                    seed,
                    parts,
                    publishes,
                    invokes,
                };
                Window {
                    log,
                    stats_from,
                    root: Box::pin(day.run()),
                }
            },
        )
    }
}

async fn preload(cloud: Cloud) -> Loaded {
    let admin = cloud.kernel.client(NodeId(0), "macro");
    let mut objects = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let mut mine = Vec::with_capacity(OBJECTS_PER_CLIENT);
        for o in 0..OBJECTS_PER_CLIENT {
            let opts = CreateOptions::regular()
                .with_consistency(Consistency::Linearizable)
                .with_initial(value_of(initial_lane(c, o)));
            mine.push(admin.create(opts).await.expect("create object"));
        }
        objects.push(mine);
    }
    let work = Duration::from_millis(150);
    cloud.kernel.register_body(
        "web",
        Rc::new(move |ctx| {
            Box::pin(async move {
                ctx.compute(work).await;
                Ok(Bytes::new())
            })
        }),
    );
    let image = FunctionImage {
        name: "web".into(),
        work: WorkModel::fixed(work),
        variants: vec![Variant::cpu(2)],
    };
    let web = admin
        .create(CreateOptions {
            kind: ObjectKind::Function,
            mutability: Mutability::Mutable,
            consistency: Consistency::Linearizable,
            initial: image.encode(),
            fifo_capacity: None,
        })
        .await
        .expect("create function");
    let fifo = cloud
        .kernel
        .client(PUBLISHER_NODE, "macro")
        .create(CreateOptions::fifo())
        .await
        .expect("create fifo");
    Loaded { objects, web, fifo }
}

fn initial_lane(client: usize, object: usize) -> u64 {
    (1 << 63) | ((client as u64) << 8) | object as u64
}

/// Everything the day's tasks share.
struct Day {
    h: SimHandle,
    cloud: Cloud,
    loaded: Rc<Loaded>,
    log: Rc<RefCell<OpLog>>,
    errors: Rc<RefCell<Vec<String>>>,
    opened: SimTime,
    seed: u64,
    parts: Parts,
    publishes: Rc<Vec<SimTime>>,
    invokes: Rc<Vec<SimTime>>,
}

impl Day {
    async fn run(self) -> Driven {
        let h = &self.h;
        let end = self.opened + PASS;
        let draining = Rc::new(Cell::new(false));

        // (b) the topology change.
        let migration = h.spawn({
            let (h, store, draining) = (h.clone(), self.cloud.store.clone(), Rc::clone(&draining));
            let at = self.opened + JOIN_AT;
            async move {
                h.sleep_until(at).await;
                draining.set(true);
                for n in JOINERS {
                    store.begin_join(NodeId(n));
                }
                let pacer = Pacer::new(h.clone(), PACE);
                let mut moved = 0usize;
                while !store.placement().pending_moves().is_empty() {
                    match store.drain_moves(Some(&pacer)).await {
                        Ok(n) => moved += n,
                        // A round stalled by the fault window; go again.
                        Err(_) => h.sleep(Duration::from_millis(1)).await,
                    }
                }
                draining.set(false);
                (moved, h.now().saturating_since(at))
            }
        });

        // (c) the fault window.
        let faults = h.spawn({
            let (h, fabric, opened) = (h.clone(), self.cloud.fabric.clone(), self.opened);
            async move {
                h.sleep_until(opened + DROP_FROM).await;
                fabric.set_message_faults(MessageFaults {
                    drop: DROP,
                    ..MessageFaults::NONE
                });
                h.sleep_until(opened + DROP_TO).await;
                fabric.clear_message_faults();
            }
        });

        let kv = self.parts.kv.then(|| self.spawn_kv(end, &draining));
        let stream = self.parts.stream.then(|| h.spawn(self.stream()));
        let faas = self.parts.faas.then(|| h.spawn(self.faas()));

        let mut out = BTreeMap::new();
        if let Some(faas) = faas {
            faas.await;
        }
        if let Some(stream) = stream {
            out.extend(stream.await);
        }
        let expected = match kv {
            Some(clients) => {
                let mut all = Vec::new();
                for c in clients {
                    all.push(c.await);
                }
                Some(all)
            }
            None => None,
        };
        let until = h.now();
        faults.await;
        let (moved, drain) = migration.await;
        out.insert("store.migrate.objects_moved", moved as f64);
        out.insert("store.migrate.drain_ms", drain.as_secs_f64() * 1e3);

        // Each private object reads back its last acknowledged write
        // now that the drain is over and every client has stopped.
        if let Some(expected) = expected {
            let reader = self.cloud.kernel.client(NodeId(11), "macro");
            for (c, mine) in expected.iter().enumerate() {
                for (o, expect) in mine.iter().enumerate() {
                    let got = reader
                        .read(&self.loaded.objects[c][o], 0, VALUE as u64)
                        .await;
                    match got.as_deref().map(|d| uniform_lane(d, VALUE)) {
                        Ok(Some(lane)) if expect.allows(lane) => {}
                        other => {
                            fail(&self.errors, || {
                                format!("object {c}/{o} after the drain: {other:?}, expected {expect:?}")
                            })
                        }
                    }
                }
            }
        }
        Driven { until, extra: out }
    }

    /// (a) the closed-loop KV clients; each resolves to what its objects
    /// must hold at the end.
    fn spawn_kv(
        &self,
        end: SimTime,
        draining: &Rc<Cell<bool>>,
    ) -> Vec<pcsi_sim::JoinHandle<Vec<Expect>>> {
        (0..CLIENTS)
            .map(|c| {
                let (h, log, errors) = (
                    self.h.clone(),
                    Rc::clone(&self.log),
                    Rc::clone(&self.errors),
                );
                let (loaded, draining) = (Rc::clone(&self.loaded), Rc::clone(draining));
                let client = self.cloud.kernel.client(NodeId((c % 12) as u32), "macro");
                let rng = DetRng::seeded(self.seed ^ (0x6B76_0000 + c as u64));
                self.h.spawn(async move {
                    let mut expect: Vec<Expect> = (0..OBJECTS_PER_CLIENT)
                        .map(|o| Expect {
                            acked: initial_lane(c, o),
                            unknown: Vec::new(),
                        })
                        .collect();
                    let mut i = 0u64;
                    while h.now() < end {
                        let o = rng.gen_range(0..OBJECTS_PER_CLIENT as u64) as usize;
                        let r = &loaded.objects[c][o];
                        let t0 = h.now();
                        let in_drain = draining.get();
                        let ok = if i % 4 == 3 {
                            let got = client.read(r, 0, VALUE as u64).await;
                            log.borrow_mut().record(READ, t0, h.now(), got.is_ok());
                            match got.as_deref().map(|d| uniform_lane(d, VALUE)) {
                                Ok(Some(lane)) if expect[o].allows(lane) => {
                                    // A read that saw an unknown write
                                    // settles it: linearizable reads never
                                    // go back.
                                    if lane != expect[o].acked {
                                        expect[o] = Expect {
                                            acked: lane,
                                            unknown: Vec::new(),
                                        };
                                    }
                                    true
                                }
                                Ok(got) => {
                                    fail(&errors, || {
                                        format!(
                                            "object {c}/{o}: read {got:?}, expected {:?}",
                                            expect[o]
                                        )
                                    });
                                    false
                                }
                                Err(_) => false,
                            }
                        } else {
                            let lane = ((c as u64) << 40) | i;
                            let done = client.write(r, 0, value_of(lane)).await;
                            log.borrow_mut().record(WRITE, t0, h.now(), done.is_ok());
                            match done {
                                Ok(()) => {
                                    expect[o] = Expect {
                                        acked: lane,
                                        unknown: Vec::new(),
                                    };
                                    true
                                }
                                Err(_) => {
                                    expect[o].unknown.push(lane);
                                    false
                                }
                            }
                        };
                        log.borrow_mut().record(KV, t0, h.now(), ok);
                        if in_drain {
                            log.borrow_mut().record(KV_DRAIN, t0, h.now(), ok);
                        }
                        i += 1;
                        h.sleep(Duration::from_nanos(rng.gen_range(THINK_NS))).await;
                    }
                    expect
                })
            })
            .collect()
    }

    /// (d) the publisher and its eight subscribers.
    fn stream(&self) -> impl std::future::Future<Output = BTreeMap<&'static str, f64>> + 'static {
        let (h, cloud, log, errors) = (
            self.h.clone(),
            self.cloud.clone(),
            Rc::clone(&self.log),
            Rc::clone(&self.errors),
        );
        let (loaded, publishes, opened) = (
            Rc::clone(&self.loaded),
            Rc::clone(&self.publishes),
            self.opened,
        );
        async move {
            let fifo = loaded.fifo.clone();
            let tail = fifo.attenuate(Rights::READ).expect("attenuate to READ");
            let home = cloud.store.placement().primary(fifo.id());
            let nodes: Vec<NodeId> = cloud
                .fabric
                .topology()
                .node_ids()
                .into_iter()
                .filter(|&n| n != home && n != PUBLISHER_NODE)
                .take(SUBSCRIBERS)
                .collect();
            let mut consumers = Vec::new();
            for (s, &node) in nodes.iter().enumerate() {
                let sub = cloud
                    .kernel
                    .client(node, "macro")
                    .subscribe(&tail, CREDIT_WINDOW)
                    .await
                    .expect("subscribe");
                let (h, log, errors) = (h.clone(), Rc::clone(&log), Rc::clone(&errors));
                consumers.push(h.clone().spawn(async move {
                    let mut next = 0u64;
                    while let Some(ev) = sub.next().await {
                        let carried = ev
                            .payload
                            .get(..8)
                            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
                        if carried != Some(next) {
                            fail(&errors, || {
                                format!("subscriber {s}: event {carried:?} where {next} was due")
                            });
                        }
                        next += 1;
                        log.borrow_mut().record(
                            DELIVER,
                            SimTime::from_nanos(ev.ts_ns),
                            h.now(),
                            true,
                        );
                    }
                    next
                }));
            }
            let publisher = cloud.kernel.client(PUBLISHER_NODE, "macro");
            let refused = Cell::new(0u64);
            // Each event carries the count of events published before it,
            // so publishes go out one at a time in due order: a publish
            // that backpressure delays also delays its successors, and
            // each is timed from its own due instant.
            let mut published = 0u64;
            for &offset in publishes.iter() {
                let due = opened + offset.saturating_since(SimTime::ZERO);
                if h.now() < due {
                    h.sleep_until(due).await;
                }
                let mut payload = vec![0u8; EVENT_BYTES];
                payload[..8].copy_from_slice(&published.to_le_bytes());
                let payload = Bytes::from(payload);
                let done = retrying(&h, &refused, async || {
                    publisher.append(&fifo, payload.clone()).await
                })
                .await;
                published += u64::from(done.is_ok());
                log.borrow_mut().record(PUBLISH, due, h.now(), done.is_ok());
            }
            // Deleting the FIFO drains what is in flight, then closes
            // every subscription.
            publisher.delete(&fifo).await.expect("delete fifo");
            for (s, c) in consumers.into_iter().enumerate() {
                let seen = c.await;
                if seen != published {
                    fail(&errors, || {
                        format!("subscriber {s} saw {seen} of {published} events")
                    });
                }
            }
            let attempts = publishes.len() as u64 + refused.get();
            BTreeMap::from([(
                "stream.overloaded_frac",
                refused.get() as f64 / attempts as f64,
            )])
        }
    }

    /// (e) the steady `web` invocations.
    fn faas(&self) -> impl std::future::Future<Output = ()> + 'static {
        let (h, log) = (self.h.clone(), Rc::clone(&self.log));
        let (loaded, invokes, opened) = (
            Rc::clone(&self.loaded),
            Rc::clone(&self.invokes),
            self.opened,
        );
        let client: KernelClient = self.cloud.kernel.client(FAAS_NODE, "macro");
        async move {
            let due_invokes = Rc::clone(&invokes);
            open_loop(
                &h,
                invokes.len(),
                |i| opened + due_invokes[i].saturating_since(SimTime::ZERO),
                |_, due| {
                    let (h, log) = (h.clone(), Rc::clone(&log));
                    let (client, loaded) = (client.clone(), Rc::clone(&loaded));
                    Box::pin(async move {
                        let refused = Cell::new(0);
                        let done = retrying(&h, &refused, async || {
                            client.invoke(&loaded.web, InvokeRequest::default()).await
                        })
                        .await;
                        log.borrow_mut().record(INVOKE, due, h.now(), done.is_ok());
                    })
                },
            )
            .await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_tracks_unknown_writes() {
        let mut e = Expect {
            acked: 5,
            unknown: Vec::new(),
        };
        assert!(e.allows(5) && !e.allows(6));
        e.unknown.push(6);
        assert!(e.allows(5) && e.allows(6) && !e.allows(7));
    }
}
