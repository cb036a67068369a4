//! E1 — Table 1: representative latency of various operations.
//!
//! Three kinds of rows, each labeled with its provenance:
//!
//! * **simulated** — network RTTs measured by actually ping-ponging a
//!   message across the simulated fabric at each generation (validating
//!   that the model reproduces its calibration),
//! * **measured (host)** — the real wire-protocol implementations in
//!   `pcsi-proto` and `pcsi-store::wire`, timed on the machine running
//!   the experiment (expect these to be *faster* than the paper's 2021
//!   production stacks — the ordering and growth, not the absolutes, are
//!   the claim),
//! * **modeled** — isolation-boundary costs taken from the paper/vendor
//!   documentation and used as constants by the FaaS runtime.

use std::time::Instant;

use bytes::Bytes;
use pcsi_core::{Consistency, Mutability, ObjectId};
use pcsi_faas::isolation::Backend;
use pcsi_net::{Fabric, LatencyModel, NetworkGeneration, NodeId, Topology, Transport};
use pcsi_proto::http::{Method, Request, Response};
use pcsi_proto::sign::{sign_request, verify_request, Credentials, Scope};
use pcsi_proto::{json, Value};
use pcsi_sim::Sim;
use pcsi_store::engine::Mutation;
use pcsi_store::{wire, MediaTier, ReplicatedStore, StoreConfig, Tag};

/// One Table-1 row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Operation label (matches the paper where applicable).
    pub label: String,
    /// The paper's number (ns), if it lists one.
    pub paper_ns: Option<f64>,
    /// Our number (ns).
    pub ours_ns: f64,
    /// Provenance: `simulated`, `measured (host)`, or `modeled`.
    pub source: &'static str,
}

/// A `measured (host)` row: `op` timed on the host, amortized over enough
/// iterations to be stable.
fn host_row(label: impl Into<String>, paper_ns: Option<f64>, mut op: impl FnMut()) -> Row {
    // Warmup.
    for _ in 0..64 {
        op();
    }
    let mut best = f64::INFINITY;
    // Best-of-5 batches to shed scheduler noise.
    for _ in 0..5 {
        let iters = 2_000u32;
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        let per = t0.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
        best = best.min(per);
    }
    Row {
        label: label.into(),
        paper_ns,
        ours_ns: best,
        source: "measured (host)",
    }
}

/// Measures one cross-rack RTT on the simulated fabric at `generation`.
pub fn simulated_rtt(generation: NetworkGeneration, seed: u64) -> f64 {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let rtt = sim.block_on(async move {
        let fabric = Fabric::new(
            h.clone(),
            Topology::uniform(2, 2),
            LatencyModel::deterministic(generation),
        );
        // Raw propagation: two one-way transfers of an empty frame using
        // the RDMA transport so endpoint overheads stay negligible.
        let t0 = h.now();
        fabric
            .transfer(NodeId(0), NodeId(2), 0, Transport::Rdma)
            .await
            .unwrap();
        fabric
            .transfer(NodeId(2), NodeId(0), 0, Transport::Rdma)
            .await
            .unwrap();
        (h.now() - t0)
            .saturating_sub(4 * pcsi_net::fabric::RDMA_OVERHEAD)
            .as_nanos() as f64
    });
    rtt
}

/// Mean simulated latency (ns) of a linearizable 1 KiB read against a
/// 3-replica store, from a client that is *not* co-located with any
/// replica. The read fans `ReadWithTag` out to all replicas and the
/// newest tag among the first majority wins; with `one_rtt` the replies
/// carry the bytes, otherwise (`inline_read_max: 0`) they carry tags
/// only and the read pays a second, directed round trip.
/// Client caching is disabled so the number isolates protocol cost.
pub fn linearizable_read_ns(seed: u64, one_rtt: bool) -> f64 {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    sim.block_on(async move {
        let fabric = Fabric::new(
            h.clone(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Dram,
                anti_entropy: None,
                inline_read_max: if one_rtt { 64 * 1024 } else { 0 },
                cache_bytes: 0,
                ..StoreConfig::default()
            },
            &pcsi_cloud::Telemetry::default(),
        );
        let id = ObjectId::from_parts(1, 1);
        let replicas = store.placement().replicas(id);
        let outsider = fabric
            .topology()
            .node_ids()
            .into_iter()
            .find(|n| !replicas.contains(n))
            .unwrap();
        let client = store.client(outsider);
        client
            .put(
                id,
                Bytes::from(vec![0xCDu8; 1024]),
                Mutability::Mutable,
                Consistency::Linearizable,
            )
            .await
            .unwrap();

        let rounds = 32u32;
        let t0 = h.now();
        for _ in 0..rounds {
            client
                .read_all(id, Consistency::Linearizable)
                .await
                .unwrap();
        }
        (h.now() - t0).as_nanos() as f64 / f64::from(rounds)
    })
}

/// A representative 1 KB payload: a KV item with a binary value, the shape
/// REST data planes marshal all day.
pub fn sample_item() -> Value {
    Value::object([
        ("table", Value::from("users")),
        ("key", Value::from("user-000042")),
        ("version", Value::from(7i64)),
        ("value", Value::Bytes(Bytes::from(vec![0xABu8; 900]))),
    ])
}

/// Runs all Table-1 rows.
pub fn run(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();

    // Network generations (simulated, calibrated to the paper).
    for (generation, paper) in [
        (NetworkGeneration::Dc2005, 1_000_000.0),
        (NetworkGeneration::Dc2021, 200_000.0),
    ] {
        rows.push(Row {
            label: generation.label().to_owned(),
            paper_ns: Some(paper),
            ours_ns: simulated_rtt(generation, seed),
            source: "simulated",
        });
    }

    // Linearizable store reads: tag quorum plus a directed read vs. the
    // one-RTT quorum read (not in the paper's table; it quantifies this
    // repository's own fast path against the same fabric model).
    for (label, one_rtt) in [("two-phase", false), ("one-RTT", true)] {
        rows.push(Row {
            label: format!("Linearizable read, {label} (1 KiB, sim)"),
            paper_ns: None,
            ours_ns: linearizable_read_ns(seed, one_rtt),
            source: "simulated",
        });
    }

    // Object marshaling of a ~1 KB item: JSON encode + decode (the REST
    // path does both per request).
    let item = sample_item();
    let label = format!("Object marshaling ({} B JSON)", json::encode(&item).len());
    rows.push(host_row(label, Some(50_000.0), || {
        let text = json::encode(std::hint::black_box(&item));
        let back = json::decode(std::hint::black_box(&text)).unwrap();
        std::hint::black_box(back);
    }));

    // The PCSI-native binary codec, for contrast (not in the paper's
    // table; it is the paper's *proposal*): what replicas exchange for a
    // 1 KiB value — the `Coordinate` that puts it and the `Data` reply
    // that reads it back, each framed and parsed by the store's wire.
    let data = Bytes::from(vec![0xABu8; 1024]);
    let put = wire::Request::Coordinate {
        id: ObjectId::from_parts(1, 1),
        mutation: Mutation::PutFull {
            data: data.clone(),
            mutability: Mutability::Mutable,
        },
        sync_replicas: 2,
        req_id: 42,
        expires_ns: 0,
    };
    let got = wire::Response::Data {
        tag: Tag { seq: 9, writer: 1 },
        mutability: Mutability::Mutable,
        stable_len: 1024,
        data,
    };
    rows.push(host_row(
        "Object marshaling (PCSI binary codec)",
        None,
        || {
            let frame = wire::encode_request(std::hint::black_box(&put));
            std::hint::black_box(wire::decode_request(&frame).unwrap());
            let frame = wire::encode_response(std::hint::black_box(&got));
            std::hint::black_box(wire::decode_response(&frame).unwrap());
        },
    ));

    // HTTP protocol: frame + parse a request and a response.
    let body = Bytes::from(json::encode(&item).into_bytes());
    let label = "HTTP protocol (frame + parse, req + resp)";
    rows.push(host_row(label, Some(50_000.0), || {
        let req = Request::new(Method::Put, "/kv/users/user-000042")
            .with_header("host", "api.pcsi.cloud")
            .with_body(body.clone());
        let wire = req.encode();
        let parsed = Request::decode(std::hint::black_box(&wire)).unwrap();
        let resp = Response::new(200).with_body(&b"{\"ok\":true}"[..]);
        let rwire = resp.encode();
        let rparsed = Response::decode(std::hint::black_box(&rwire)).unwrap();
        std::hint::black_box((parsed, rparsed));
    }));

    // Request signature: sign + verify (the stateless auth tax).
    let creds = Credentials::new("AK", b"secret".to_vec());
    let scope = Scope::new("w", "kv");
    let label = "Request signing + verification (HMAC-SHA256, date-scoped key cached)";
    rows.push(host_row(label, None, || {
        let mut req = Request::new(Method::Get, "/kv/users/user-000042")
            .with_header("host", "api.pcsi.cloud");
        sign_request(&mut req, &creds, &scope, 1_700_000_000);
        verify_request(
            std::hint::black_box(&req),
            |_| Some(creds.clone()),
            &scope,
            1_700_000_000,
            300,
        )
        .unwrap();
    }));

    // Socket overhead: the per-endpoint constant charged by the fabric.
    rows.push(Row {
        label: "Socket overhead".into(),
        paper_ns: Some(5_000.0),
        ours_ns: pcsi_net::fabric::SOCKET_OVERHEAD.as_nanos() as f64,
        source: "modeled",
    });

    rows.push(Row {
        label: NetworkGeneration::FastEmerging.label().to_owned(),
        paper_ns: Some(1_000.0),
        ours_ns: simulated_rtt(NetworkGeneration::FastEmerging, seed),
        source: "simulated",
    });

    // Isolation boundaries (the runtime's per-call constants).
    for (backend, label, paper) in [
        (Backend::MicroVm, "KVM Hypervisor call", 700.0),
        (Backend::Container, "Linux System call", 500.0),
        (Backend::Wasm, "WebAssembly call - V8 Engine", 17.0),
    ] {
        rows.push(Row {
            label: label.into(),
            paper_ns: Some(paper),
            ours_ns: backend.call_overhead().as_nanos() as f64,
            source: "modeled",
        });
    }

    // A real syscall on the host, as a sanity anchor for the 500 ns row.
    rows.push(host_row("sched_yield(2) on this machine", None, || {
        std::thread::yield_now(); // sched_yield(2).
    }));

    rows
}

/// The ordering invariants Table 1 exists to convey; asserted by tests
/// and the report.
pub fn shape_holds(rows: &[Row]) -> Result<(), String> {
    let get = |label: &str| -> f64 {
        rows.iter()
            .find(|r| r.label.contains(label))
            .map(|r| r.ours_ns)
            .unwrap_or(f64::NAN)
    };
    let checks: Vec<(&str, bool)> = vec![
        (
            "2005 RTT > 2021 RTT > fast RTT",
            get("2005") > get("2021") && get("2021") > get("Emerging"),
        ),
        (
            "fast network RTT < socket overhead",
            get("Emerging") < get("Socket"),
        ),
        (
            "JSON marshal > binary codec",
            get("JSON") > get("binary codec"),
        ),
        (
            "one-RTT linearizable read beats two-phase",
            get("one-RTT") < get("two-phase"),
        ),
        (
            "hypervisor > syscall > wasm",
            get("Hypervisor") > get("System call") && get("System call") > get("WebAssembly"),
        ),
        (
            "2021 RTT >> wasm call",
            get("2021") > 1000.0 * get("WebAssembly"),
        ),
    ];
    for (name, ok) in checks {
        if !ok {
            return Err(format!("shape violated: {name}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn rtts_match_calibration_exactly() {
        assert_eq!(simulated_rtt(NetworkGeneration::Dc2005, 1), 1_000_000.0);
        assert_eq!(simulated_rtt(NetworkGeneration::Dc2021, 1), 200_000.0);
        assert_eq!(simulated_rtt(NetworkGeneration::FastEmerging, 1), 1_000.0);
    }

    #[test]
    fn table_shape_holds() {
        let rows = run(DEFAULT_SEED);
        assert!(rows.len() >= 10);
        shape_holds(&rows).unwrap();
    }

    #[test]
    fn sample_item_is_about_1kb() {
        let len = json::encode(&sample_item()).len();
        assert!((900..1600).contains(&len), "{len}");
    }

    #[test]
    fn host_row_is_sane() {
        let x = host_row("add", None, || {
            std::hint::black_box(1 + 1);
        })
        .ours_ns;
        assert!(x < 1_000.0, "trivial op measured at {x} ns");
    }
}
