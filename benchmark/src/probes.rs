//! Layer probes: isolated calls into each layer's public functions, in
//! the benchmark's own process, to price one unit of that layer's work
//! on the host clock.
//!
//! Per-op attribution on the host clock cannot come from spans around
//! awaited ops (they would cover every other task's work), so it is
//! counts × these unit costs. A probe that runs on the simulator also
//! reports the polls and messages it caused, so its unit cost can be
//! taken net of the executor's and the fabric's, which have probes of
//! their own.

use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pcsi_cloud::CloudBuilder;
use pcsi_core::api::{CreateOptions, InvokeRequest};
use pcsi_core::{CloudInterface, Mutability, ObjectId, PcsiError, Rights};
use pcsi_faas::{FunctionImage, Goal, WorkModel};
use pcsi_net::{Fabric, LatencyModel, NetworkGeneration, NodeId, Topology, Transport};
use pcsi_proto::http::{Method, Request as HttpRequest, Response as HttpResponse};
use pcsi_proto::sign::{sign_request, verify_request, Credentials, Scope};
use pcsi_proto::{binary, json, Value};
use pcsi_sim::Sim;
use pcsi_store::engine::Mutation;
use pcsi_store::wire::{self, Request, Response};
use pcsi_store::{MediaTier, Placement, StorageEngine, Tag};

use crate::spans::SpanRec;

/// One probe's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub name: &'static str,
    /// Host time of the probed loop alone.
    pub host: Duration,
    /// Units of work done (the divisor of the unit cost).
    pub units: u64,
    /// Executor polls and fabric messages the loop caused.
    pub polls: u64,
    pub msgs: u64,
}

const SEED: u64 = 0x70_726F_6265;

/// Runs every probe once, each inside its own span.
pub fn run_all(rec: &SpanRec) -> Vec<Probe> {
    type Entry = (&'static str, fn() -> Probe);
    let all: [Entry; 11] = [
        ("probe.sim", sim_polls),
        ("probe.net", net_echo),
        ("probe.store.wire", wire_frames),
        ("probe.store.engine", engine_apply),
        ("probe.store.placement", placement_lookup),
        ("probe.proto.sign", proto_sign),
        ("probe.proto.http", proto_http),
        ("probe.proto.json", proto_json),
        ("probe.proto.binary", proto_binary),
        ("probe.faas", faas_invoke),
        ("probe.stream", stream_delivery),
    ];
    all.iter()
        .map(|&(span, probe)| rec.span(span, probe))
        .collect()
}

fn pure(name: &'static str, units: u64, host: Duration) -> Probe {
    Probe {
        name,
        host,
        units,
        polls: 0,
        msgs: 0,
    }
}

/// `sim`: 256 tasks × jittered sleeps; one unit = one task poll.
fn sim_polls() -> Probe {
    const TASKS: u64 = 256;
    const ROUNDS: u64 = 400;
    let mut sim = Sim::new(SEED);
    let h = sim.handle();
    let t0 = Instant::now();
    sim.block_on({
        let h = h.clone();
        async move {
            let mut joins = Vec::new();
            for w in 0..TASKS {
                let h2 = h.clone();
                let rng = h.rng().stream_indexed("probe-timer", w);
                joins.push(h.spawn(async move {
                    for _ in 0..ROUNDS {
                        h2.sleep(Duration::from_nanos(rng.gen_range(50..5_000)))
                            .await;
                    }
                }));
            }
            for j in joins {
                j.await;
            }
        }
    });
    let host = t0.elapsed();
    Probe {
        name: "sim",
        host,
        units: sim.poll_count(),
        polls: sim.poll_count(),
        msgs: 0,
    }
}

/// `net`: back-to-back cross-rack RPC echoes; one unit = one message.
fn net_echo() -> Probe {
    const CALLS: u64 = 10_000;
    let mut sim = Sim::new(SEED);
    let fabric = Fabric::new(
        sim.handle(),
        Topology::uniform(2, 2),
        LatencyModel::new(NetworkGeneration::Dc2021),
    );
    fabric.bind(
        NodeId(3),
        "echo",
        Rc::new(|payload, _ctx| Box::pin(async move { Ok(payload) })),
    );
    let t0 = Instant::now();
    let msgs = sim.block_on({
        let fabric = fabric.clone();
        async move {
            let payload = Bytes::from(vec![0x5Au8; 256]);
            for _ in 0..CALLS {
                fabric
                    .call(
                        NodeId(0),
                        NodeId(3),
                        "echo",
                        Transport::Rdma,
                        payload.clone(),
                    )
                    .await
                    .expect("echo on a healthy fabric");
            }
            fabric.message_count()
        }
    });
    Probe {
        name: "net",
        host: t0.elapsed(),
        units: msgs,
        polls: sim.poll_count(),
        msgs,
    }
}

/// `store.wire`: a 1 KiB `Coordinate` and its `Data` reply, each encoded
/// and decoded; one unit = one frame (encode + decode).
fn wire_frames() -> Probe {
    const ITERS: u64 = 20_000;
    let payload = Bytes::from(vec![0xA5u8; 1024]);
    let req = Request::Coordinate {
        id: ObjectId::from_parts(7, SEED),
        mutation: Mutation::PutFull {
            data: payload.clone(),
            mutability: Mutability::Mutable,
        },
        sync_replicas: 2,
        req_id: 42,
        expires_ns: 0,
    };
    let resp = Response::Data {
        tag: Tag { seq: 9, writer: 1 },
        mutability: Mutability::Mutable,
        stable_len: payload.len() as u64,
        data: payload,
    };
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let frame = wire::encode_request(black_box(&req));
        black_box(wire::decode_request(&frame).expect("request round trip"));
        let frame = wire::encode_response(black_box(&resp));
        black_box(wire::decode_response(&frame).expect("response round trip"));
    }
    pure("store.wire", ITERS * 2, t0.elapsed())
}

/// `store.engine`: 64 B `WriteAt` applies over 4,096 objects of 1 KiB;
/// one unit = one apply.
fn engine_apply() -> Probe {
    const OBJECTS: u64 = 4_096;
    const APPLIES: u64 = 100_000;
    let mut engine = StorageEngine::new(MediaTier::Nvme);
    let mut tag = Tag { seq: 0, writer: 1 };
    for o in 0..OBJECTS {
        tag = tag.next(1);
        let put = Mutation::PutFull {
            data: Bytes::from(vec![0u8; 1024]),
            mutability: Mutability::Mutable,
        };
        engine
            .apply(ObjectId::from_parts(9, o), tag, &put)
            .expect("put");
    }
    let write = Mutation::WriteAt {
        offset: 0,
        data: Bytes::from(vec![0xEEu8; 64]),
    };
    let t0 = Instant::now();
    for i in 0..APPLIES {
        tag = tag.next(1);
        // A stride coprime to the object count visits them all.
        let id = ObjectId::from_parts(9, (i * 2_654_435_761) % OBJECTS);
        engine.apply(id, tag, black_box(&write)).expect("write");
    }
    black_box(engine.bytes_stored());
    pure("store.engine", APPLIES, t0.elapsed())
}

/// `store.placement`: replica-set lookups cycling over 16,384 ids, four
/// times the memo's cap, so every lookup recomputes; one unit = one
/// lookup.
fn placement_lookup() -> Probe {
    const IDS: u64 = 16_384;
    const ROUNDS: u64 = 4;
    let topology = Topology::heterogeneous(2, 4);
    let placement = Placement::new(&topology, topology.node_ids(), 3);
    let t0 = Instant::now();
    let mut acc = 0u32;
    for _ in 0..ROUNDS {
        for i in 0..IDS {
            acc ^= placement.primary(black_box(ObjectId::from_parts(3, i))).0;
        }
    }
    black_box(acc);
    pure("store.placement", IDS * ROUNDS, t0.elapsed())
}

fn rest_body() -> Vec<u8> {
    let item = Value::object([("value", Value::Str(json::base64_encode(&[0xC3u8; 1024])))]);
    json::encode(&item).into_bytes()
}

/// `proto` signing: SigV4-style sign + verify of a KV put; one unit =
/// one request.
fn proto_sign() -> Probe {
    const ITERS: u64 = 2_000;
    let creds = Credentials::new("AK1", b"bench-secret".to_vec());
    let scope = Scope::new("sim-west-1", "storage");
    let body = rest_body();
    let t0 = Instant::now();
    for i in 0..ITERS {
        let mut req = HttpRequest::new(Method::Put, "/kv/bench/k0001").with_body(body.clone());
        req.headers.insert("host", "api.sim-west-1.pcsi.cloud");
        let now = 1_700_000_000 + i;
        sign_request(&mut req, &creds, &scope, now);
        verify_request(black_box(&req), |_| Some(creds.clone()), &scope, now, 3600)
            .expect("own signature verifies");
    }
    pure("proto.sign", ITERS, t0.elapsed())
}

/// `proto` HTTP: frame + parse of a put request and its response; one
/// unit = one request/response pair.
fn proto_http() -> Probe {
    const ITERS: u64 = 10_000;
    let body = rest_body();
    let req = HttpRequest::new(Method::Put, "/kv/bench/k0001")
        .with_header("host", "api.sim-west-1.pcsi.cloud")
        .with_header("x-pcsi-key-id", "AK1")
        .with_header("x-pcsi-date", "1700000000")
        .with_body(body);
    let resp = HttpResponse::new(200)
        .with_header("content-type", "application/json")
        .with_body(&b"{\"ok\":true}"[..]);
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let wire = black_box(&req).encode();
        black_box(HttpRequest::decode(&wire).expect("request parses"));
        let wire = black_box(&resp).encode();
        black_box(HttpResponse::decode(&wire).expect("response parses"));
    }
    pure("proto.http", ITERS, t0.elapsed())
}

/// `proto` JSON: encode + decode of a 1 KiB value wrapped as the REST
/// item; one unit = one KiB of payload.
fn proto_json() -> Probe {
    const ITERS: u64 = 5_000;
    let payload = [0xC3u8; 1024];
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let item = Value::object([(
            "value",
            Value::Str(json::base64_encode(black_box(&payload))),
        )]);
        let text = json::encode(&item);
        let back = json::decode(&text).expect("item parses");
        let value = back
            .get("value")
            .and_then(Value::as_str)
            .and_then(json::base64_decode);
        black_box(value.expect("value decodes"));
    }
    pure("proto.json", ITERS, t0.elapsed())
}

/// `proto` binary codec: the same item with the bytes carried verbatim;
/// one unit = one KiB of payload.
fn proto_binary() -> Probe {
    const ITERS: u64 = 20_000;
    let payload = Bytes::from(vec![0xC3u8; 1024]);
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let item = Value::object([("value", Value::Bytes(black_box(&payload).clone()))]);
        let frame = binary::encode(&item);
        black_box(binary::decode(&frame).expect("item parses"));
    }
    pure("proto.binary", ITERS, t0.elapsed())
}

/// `faas`: a warm no-op function invoked back to back through
/// `Runtime::invoke`; one unit = one invocation.
fn faas_invoke() -> Probe {
    const CALLS: u64 = 5_000;
    let mut sim = Sim::new(SEED);
    let h = sim.handle();
    let cloud = CloudBuilder::new().build(&h);
    cloud
        .kernel
        .register_body("noop", Rc::new(|_ctx| Box::pin(async { Ok(Bytes::new()) })));
    let image = FunctionImage::simple("noop", WorkModel::fixed(Duration::from_micros(10)), 1);
    let data = Rc::new(cloud.kernel.client(NodeId(0), "probe"));
    let invoke = {
        let (runtime, image) = (cloud.runtime.clone(), image.clone());
        move || {
            let (runtime, image, data) = (runtime.clone(), image.clone(), Rc::clone(&data));
            async move {
                runtime
                    .invoke(
                        &image,
                        Goal::Balanced,
                        InvokeRequest::default(),
                        data,
                        Some(NodeId(0)),
                    )
                    .await
                    .expect("no-op invocation");
            }
        }
    };
    // The first call boots the instance; the loop then only sees it warm.
    sim.block_on(invoke());
    let (polls0, msgs0) = (sim.poll_count(), cloud.fabric.message_count());
    let t0 = Instant::now();
    sim.block_on(async move {
        for _ in 0..CALLS {
            invoke().await;
        }
    });
    Probe {
        name: "faas",
        host: t0.elapsed(),
        units: CALLS,
        polls: sim.poll_count() - polls0,
        msgs: cloud.fabric.message_count() - msgs0,
    }
}

/// `stream`: one publisher, one subscriber on another node, credit
/// window 32; one unit = one delivered event.
fn stream_delivery() -> Probe {
    const EVENTS: u64 = 5_000;
    let mut sim = Sim::new(SEED);
    let h = sim.handle();
    let cloud = CloudBuilder::new().build(&h);
    let (fifo, sub) = sim.block_on({
        let cloud = cloud.clone();
        async move {
            let producer = cloud.kernel.client(NodeId(0), "probe");
            let fifo = producer.create(CreateOptions::fifo()).await.expect("fifo");
            let home = cloud.store.placement().primary(fifo.id());
            let node = [NodeId(5), NodeId(6)]
                .into_iter()
                .find(|&n| n != home)
                .expect("two candidates, one home");
            let tail = fifo.attenuate(Rights::READ).expect("attenuate");
            let sub = cloud
                .kernel
                .client(node, "probe")
                .subscribe(&tail, 32)
                .await
                .expect("subscribe");
            (fifo, sub)
        }
    });
    let (polls0, msgs0) = (sim.poll_count(), cloud.fabric.message_count());
    let t0 = Instant::now();
    sim.block_on({
        let (h, cloud) = (h.clone(), cloud.clone());
        async move {
            let consumer = h.spawn(async move {
                let mut seen = 0u64;
                while seen < EVENTS && sub.next().await.is_some() {
                    seen += 1;
                }
                seen
            });
            let producer = cloud.kernel.client(NodeId(0), "probe");
            let payload = Bytes::from(vec![7u8; 64]);
            for _ in 0..EVENTS {
                loop {
                    match producer.append(&fifo, payload.clone()).await {
                        Ok(_) => break,
                        Err(PcsiError::Overloaded(_)) => h.sleep(Duration::from_micros(50)).await,
                        Err(e) => panic!("probe publish failed: {e}"),
                    }
                }
            }
            assert_eq!(consumer.await, EVENTS, "every probe event is delivered");
        }
    });
    Probe {
        name: "stream",
        host: t0.elapsed(),
        units: EVENTS,
        polls: sim.poll_count() - polls0,
        msgs: cloud.fabric.message_count() - msgs0,
    }
}
