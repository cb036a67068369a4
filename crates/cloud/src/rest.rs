//! The web-services baseline: a REST gateway (§2.1).
//!
//! A DynamoDB/S3-style front door: clients send signed HTTP requests; a
//! load balancer forwards them to a gateway, which parses the HTTP
//! message, re-verifies the request signature (statelessness — every
//! request re-authenticates), unmarshals JSON, performs the storage
//! operation, and marshals a response. All of this *actually happens* —
//! the byte-level codecs from `pcsi-proto` run on every request — and the
//! provider CPU time each step consumes, per the constants below, is spent
//! on one meter (`crate::billing`): slept in virtual time and billed to
//! the caller as one amount.
//!
//! ## CPU-time calibration
//!
//! | step | model | Table-1 anchor |
//! |------|-------|----------------|
//! | HTTP parse + format | 50 µs/request | "HTTP protocol: 50,000 ns" |
//! | JSON marshal/unmarshal | 10 µs + 40 ns/byte (1 KB ≈ 50 µs) | "Object marshaling (1k): >50,000 ns" |
//! | signature verification | 15 µs + 5 ns/byte | SigV4 canonicalization + 2 HMAC passes |
//! | load-balancer forwarding | 10 µs/request | L7 proxy cost |
//! | routing/metering/logging | 30 µs/request | typical service-mesh overhead |
//!
//! The host work behind the signature row is what the row says: both
//! sides keep the date-scoped signing key (`pcsi_proto::sign`), so a
//! request costs its canonicalization and the two passes of one HMAC.
//!
//! The NFS baseline (`crate::nfs`) performs the same storage work behind
//! a 3 µs/op binary protocol — the per-operation provider-CPU ratio
//! (~60×) is where the paper's 0.003 vs 0.18 USD/M cost gap comes from.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{Consistency, Mutability, ObjectId, PcsiError};
use pcsi_metrics::Metrics;
use pcsi_net::fabric::CallCtx;
use pcsi_net::{Fabric, NodeId, Transport};
use pcsi_proto::http::{Method, Request, Response};
use pcsi_proto::sign::{sign_request, verify_request, Credentials, Scope};
use pcsi_proto::{json, Value};
use pcsi_sim::SimHandle;
use pcsi_store::ReplicatedStore;
use pcsi_trace::{SpanHandle, TraceContext, Tracer};

use crate::billing::{Billing, Meter};

/// HTTP framing CPU per request.
pub(crate) const HTTP_CPU: Duration = Duration::from_micros(50);
/// JSON marshaling CPU: fixed part.
pub(crate) const MARSHAL_CPU_FIXED: Duration = Duration::from_micros(10);
/// JSON marshaling CPU: per byte.
pub(crate) const MARSHAL_CPU_PER_BYTE: Duration = Duration::from_nanos(40);
/// Signature verification CPU: fixed part.
pub(crate) const AUTH_CPU_FIXED: Duration = Duration::from_micros(15);
/// Signature verification CPU: per byte.
pub(crate) const AUTH_CPU_PER_BYTE: Duration = Duration::from_nanos(5);
/// Load-balancer forwarding CPU per request.
pub(crate) const LB_CPU: Duration = Duration::from_micros(10);
/// Routing, metering, logging CPU per request.
pub(crate) const ROUTING_CPU: Duration = Duration::from_micros(30);

/// Signature scope used by the simulated region.
pub(crate) fn scope() -> Scope {
    Scope::new("sim-west-1", "storage")
}

pub(crate) fn marshal_cpu(bytes: usize) -> Duration {
    MARSHAL_CPU_FIXED + MARSHAL_CPU_PER_BYTE * (bytes as u32)
}

pub(crate) fn auth_cpu(bytes: usize) -> Duration {
    AUTH_CPU_FIXED + AUTH_CPU_PER_BYTE * (bytes as u32)
}

/// Stateless authentication, the step every signed front door shares:
/// verifies `request` against `keys` at the current virtual time and
/// charges the verified account the flat request fee. A refusal is the
/// 403 to send; the signature check's CPU is the caller's to spend.
pub(crate) fn admit(
    h: &SimHandle,
    billing: &Billing,
    keys: &HashMap<String, Credentials>,
    request: &Request,
) -> Result<String, Response> {
    let now_s = h.now().as_secs_f64() as u64 + 1_700_000_000;
    let lookup = |id: &str| keys.get(id).cloned();
    if let Err(e) = verify_request(request, lookup, &scope(), now_s, 3600) {
        return Err(error_response(403, "AccessDenied", &e.to_string()));
    }
    let account = request.headers.get(pcsi_proto::sign::KEY_ID_HEADER);
    let account = account.unwrap_or("anonymous").to_owned();
    billing.charge_request(&account);
    Ok(account)
}

/// The deployed REST service.
#[derive(Clone)]
pub struct RestGateway {
    inner: Rc<Gateway>,
}

/// The load balancer, the gateway behind it and what both serve with:
/// one value the two fabric handlers and every client share.
struct Gateway {
    fabric: Fabric,
    store: ReplicatedStore,
    billing: Billing,
    keys: HashMap<String, Credentials>,
    door: FrontDoor,
    node: NodeId,
    tracer: RefCell<Option<Tracer>>,
    metrics: RefCell<Option<Metrics>>,
}

/// Derives the storage object id for a REST resource path.
///
/// The REST namespace is flat strings; ids are a stable 128-bit hash of
/// the path (so REST objects and kernel objects never collide: the REST
/// realm has the top bit set).
pub(crate) fn path_object_id(path: &str) -> ObjectId {
    let mut h1: u64 = 0xCBF2_9CE4_8422_2325;
    let mut h2: u64 = 0x8422_2325_CBF2_9CE4;
    for &b in path.as_bytes() {
        h1 = (h1 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        h2 = (h2 ^ u64::from(b))
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(17);
    }
    ObjectId::from_u128(((u128::from(h1) | (1 << 63)) << 64) | u128::from(h2))
}

impl RestGateway {
    /// Deploys the load balancer on `lb_node` and the gateway on
    /// `gateway_node`, with `keys` as the verifier's credential store.
    pub fn deploy(
        fabric: Fabric,
        store: ReplicatedStore,
        billing: Billing,
        lb_node: NodeId,
        gateway_node: NodeId,
        keys: HashMap<String, Credentials>,
    ) -> Self {
        let gateway = Rc::new(Gateway {
            fabric: fabric.clone(),
            store,
            billing,
            keys,
            door: FrontDoor {
                node: lb_node,
                service: "rest-lb",
                host: "api.sim-west-1.pcsi.cloud",
            },
            node: gateway_node,
            tracer: RefCell::new(None),
            metrics: RefCell::new(None),
        });
        let gw = Rc::clone(&gateway);
        let handler = Rc::new(move |payload, ctx: CallCtx| {
            let gw = Rc::clone(&gw);
            async move { Ok(Bytes::from(gw.handle(payload, ctx.trace).await.encode())) }
        });
        fabric.bind(gateway_node, "rest-gateway", handler);
        let gw = Rc::clone(&gateway);
        let handler = Rc::new(move |payload, ctx: CallCtx| {
            let gw = Rc::clone(&gw);
            async move { gw.forward(payload, ctx.trace).await }
        });
        fabric.bind(lb_node, "rest-lb", handler);
        RestGateway { inner: gateway }
    }

    /// Installs (or clears) the tracer used by the client, load
    /// balancer, and gateway instrumentation.
    pub fn set_tracer(&self, tracer: Option<Tracer>) {
        *self.inner.tracer.borrow_mut() = tracer;
    }

    /// Installs (or clears) the metrics registry: the gateway then counts
    /// every request by method and status (`rest.requests`) and records
    /// gateway-side latency (`rest.request_ns{method=…}`).
    pub fn set_metrics(&self, metrics: Option<Metrics>) {
        *self.inner.metrics.borrow_mut() = metrics;
    }

    /// A client bound to `from` with `creds`.
    pub fn client(&self, from: NodeId, creds: Credentials) -> RestClient {
        RestClient {
            gateway: self.clone(),
            from,
            creds,
        }
    }
}

impl Gateway {
    /// The load balancer: spends its CPU on its own node and forwards.
    async fn forward(
        &self,
        payload: Bytes,
        trace: Option<TraceContext>,
    ) -> Result<Bytes, pcsi_net::NetError> {
        let span = pcsi_trace::child_of(&self.tracer.borrow(), trace, "rest.lb");
        self.fabric.handle().sleep(LB_CPU).await;
        // The forward hop is a nested transport span so the balancer
        // span's self time is purely its CPU.
        let fwd_span = span.span("rest.transport");
        let result = self
            .fabric
            .call_traced(
                self.door.node,
                self.node,
                "rest-gateway",
                Transport::Tcp,
                payload,
                fwd_span.ctx(),
            )
            .await;
        fwd_span.finish();
        span.finish();
        result
    }

    /// The gateway: the real work. Every CPU step is spent on one meter
    /// that opens at what the balancer spent, and the verified account
    /// is billed for the lot once the response is built.
    async fn handle(&self, payload: Bytes, trace: Option<TraceContext>) -> Response {
        let h = self.fabric.handle();
        let started = h.now();
        let metrics = self.metrics.borrow().clone();
        let mut span = pcsi_trace::child_of(&self.tracer.borrow(), trace, "rest.gateway");
        let mut meter = Meter::new(h, LB_CPU);

        // 1. HTTP parse (+ later format): framing CPU.
        let parse_span = span.span("rest.http_parse");
        meter.spend(HTTP_CPU).await;
        parse_span.finish();
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                let resp = error_response(400, "BadHttp", &e.to_string());
                record_request(&metrics, "-", &resp, h.now() - started, span.ctx());
                return resp;
            }
        };
        let method = request.method.as_str();

        // 2. Stateless authentication: every request pays signature
        //    verification (the real HMAC work runs here).
        let auth_span = span.span("rest.auth");
        meter.spend(auth_cpu(payload.len())).await;
        let account = match admit(h, &self.billing, &self.keys, &request) {
            Ok(account) => account,
            Err(resp) => {
                record_request(&metrics, method, &resp, h.now() - started, span.ctx());
                return resp;
            }
        };
        auth_span.finish();

        // 3. Routing / metering / logging.
        let route_span = span.span("rest.route");
        meter.spend(ROUTING_CPU).await;
        route_span.finish();

        // 4. Dispatch by resource class.
        let resp = match self.dispatch(&request, &span, &mut meter).await {
            Ok(resp) => resp,
            Err(PcsiError::NotFound(_)) => error_response(404, "NoSuchKey", &request.target),
            Err(e) => error_response(500, "InternalError", &e.to_string()),
        };
        meter.bill(&self.billing, &account);
        span.attr("status", u64::from(resp.status));
        let ctx = span.ctx();
        span.finish();
        record_request(&metrics, method, &resp, h.now() - started, ctx);
        resp
    }

    /// The storage operation `request` names: a JSON item under `/kv/`
    /// (DynamoDB-like), raw bytes under `/objects/` (S3-like: no JSON
    /// body, still HTTP + auth). JSON marshalling is spent on `meter`.
    async fn dispatch(
        &self,
        request: &Request,
        span: &SpanHandle,
        meter: &mut Meter,
    ) -> Result<Response, PcsiError> {
        let path = &request.target;
        let client = self.store.client(self.node).traced(span.ctx());
        let id = path_object_id(path);
        let kv = path.starts_with("/kv/");
        if !kv && !path.starts_with("/objects/") {
            return Ok(error_response(404, "NoSuchResource", path));
        }
        // Every PUT is a DynamoDB-style durable write (majority).
        let put = |data| client.put(id, data, Mutability::Mutable, Consistency::Linearizable);
        match request.method {
            Method::Put if kv => {
                // JSON unmarshal of the item.
                let marshal_span = span.span("rest.marshal");
                meter.spend(marshal_cpu(request.body.len())).await;
                marshal_span.finish();
                let item = match json::decode(&String::from_utf8_lossy(&request.body)) {
                    Ok(item) => item,
                    Err(e) => return Ok(error_response(400, "BadJson", &e.to_string())),
                };
                let value = item
                    .get("value")
                    .and_then(Value::as_str)
                    .and_then(json::base64_decode)
                    .unwrap_or_default();
                put(Bytes::from(value)).await?;
                Ok(Response::new(200).with_body(&b"{\"ok\":true}"[..]))
            }
            Method::Put => {
                put(request.body.clone()).await?;
                Ok(Response::new(201))
            }
            Method::Get => {
                let (_tag, data) = client.read_all(id, Consistency::Eventual).await?;
                if !kv {
                    return Ok(Response::new(200).with_body(data));
                }
                // JSON marshal of the response item.
                let marshal_span = span.span("rest.marshal");
                let value = Value::object([("value", Value::Str(json::base64_encode(&data)))]);
                let body = json::encode(&value);
                meter.spend(marshal_cpu(body.len())).await;
                marshal_span.finish();
                Ok(Response::new(200)
                    .with_header("content-type", "application/json")
                    .with_body(body.into_bytes()))
            }
            Method::Delete => client.delete(id).await.map(|_| Response::new(204)),
            _ => Ok(error_response(400, "BadMethod", "unsupported")),
        }
    }
}

/// Counts one gateway request by method and status, and records the
/// gateway-side latency histogram. A no-op when metrics are off. Sampled
/// requests (a live trace context) additionally pin a histogram
/// exemplar, joining the latency bucket back to the offending trace.
fn record_request(
    metrics: &Option<Metrics>,
    method: &str,
    resp: &Response,
    elapsed: Duration,
    ctx: Option<pcsi_trace::TraceContext>,
) {
    if let Some(m) = metrics {
        let status = resp.status.to_string();
        m.counter("rest.requests", &[("method", method), ("status", &status)])
            .incr();
        let hist = m.histogram("rest.request_ns", &[("method", method)]);
        hist.record_duration(elapsed);
        if let Some(ctx) = ctx {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            hist.exemplar(ns, ctx.trace.0);
        }
    }
}

/// A refusal: `status` with a JSON `{error, message}` body.
pub(crate) fn error_response(status: u16, code: &str, message: &str) -> Response {
    let body = json::encode(&Value::object([
        ("error", Value::from(code)),
        ("message", Value::from(message)),
    ]));
    Response::new(status).with_body(body.into_bytes())
}

/// Errors surfaced to REST clients.
#[derive(Debug, Clone, PartialEq)]
pub enum RestError {
    /// Transport failure.
    Net(String),
    /// Non-2xx response.
    Http {
        /// Status code.
        status: u16,
        /// Response body.
        body: String,
    },
}

impl std::fmt::Display for RestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestError::Net(m) => write!(f, "network error: {m}"),
            RestError::Http { status, body } => write!(f, "HTTP {status}: {body}"),
        }
    }
}

impl std::error::Error for RestError {}

/// Where a signed request goes: the front door's node, its fabric
/// service and the `host` header it answers to.
pub(crate) struct FrontDoor {
    pub(crate) node: NodeId,
    pub(crate) service: &'static str,
    pub(crate) host: &'static str,
}

/// One signed HTTP round trip from `from` through `door`: host header,
/// signature, the client's own marshal and framing CPU (its machine's
/// time, not billed), the fabric call, and a non-2xx status turned into
/// [`RestError::Http`]. `span` parents the `rest.sign` / `rest.marshal`
/// / `rest.transport` stages and its context rides the request; SSE
/// passes a disabled one and sends no context bytes.
pub(crate) async fn signed_round_trip(
    fabric: &Fabric,
    from: NodeId,
    door: &FrontDoor,
    creds: &Credentials,
    mut request: Request,
    span: &SpanHandle,
) -> Result<Response, RestError> {
    let h = fabric.handle();
    let now_s = h.now().as_secs_f64() as u64 + 1_700_000_000;
    request.headers.insert("host", door.host);
    let sign_span = span.span("rest.sign");
    sign_request(&mut request, creds, &scope(), now_s);
    sign_span.finish();
    let marshal_span = span.span("rest.marshal");
    h.sleep(marshal_cpu(request.body.len()) + HTTP_CPU / 2)
        .await;
    let wire = Bytes::from(request.encode());
    marshal_span.finish();
    let transport_span = span.span("rest.transport");
    let raw = fabric
        .call_traced(
            from,
            door.node,
            door.service,
            Transport::Tcp,
            wire,
            transport_span.ctx(),
        )
        .await
        .map_err(|e| RestError::Net(e.to_string()))?;
    transport_span.finish();
    let response =
        Response::decode(&raw).map_err(|e| RestError::Net(format!("bad response: {e}")))?;
    if response.is_success() {
        Ok(response)
    } else {
        Err(RestError::Http {
            status: response.status,
            body: String::from_utf8_lossy(&response.body).into_owned(),
        })
    }
}

/// A REST client with credentials.
pub struct RestClient {
    gateway: RestGateway,
    from: NodeId,
    creds: Credentials,
}

impl RestClient {
    async fn send(&self, request: Request) -> Result<Response, RestError> {
        let inner = &self.gateway.inner;
        let mut span = pcsi_trace::child_or_root(&inner.tracer.borrow(), None, "rest.request");
        span.attr_with("target", || {
            pcsi_trace::AttrValue::Text(request.target.clone())
        });
        let (fabric, door) = (&inner.fabric, &inner.door);
        let result = signed_round_trip(fabric, self.from, door, &self.creds, request, &span).await;
        match &result {
            Ok(response) => span.attr("status", u64::from(response.status)),
            Err(RestError::Http { status, .. }) => span.attr("status", u64::from(*status)),
            Err(RestError::Net(_)) => {}
        }
        span.finish();
        result
    }

    /// `PUT /kv/{table}/{key}` with a JSON-wrapped value.
    pub async fn kv_put(&self, table: &str, key: &str, value: &[u8]) -> Result<(), RestError> {
        let body = json::encode(&Value::object([(
            "value",
            Value::Str(json::base64_encode(value)),
        )]));
        let req =
            Request::new(Method::Put, format!("/kv/{table}/{key}")).with_body(body.into_bytes());
        self.send(req).await.map(|_| ())
    }

    /// `GET /kv/{table}/{key}`, unwrapping the JSON item.
    pub async fn kv_get(&self, table: &str, key: &str) -> Result<Vec<u8>, RestError> {
        let req = Request::new(Method::Get, format!("/kv/{table}/{key}"));
        let resp = self.send(req).await?;
        let item = json::decode(&String::from_utf8_lossy(&resp.body))
            .map_err(|e| RestError::Net(format!("bad item JSON: {e}")))?;
        item.get("value")
            .and_then(Value::as_str)
            .and_then(json::base64_decode)
            .ok_or_else(|| RestError::Net("item missing value".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_net::{LatencyModel, NetworkGeneration, Topology};
    use pcsi_sim::Sim;
    use pcsi_store::{MediaTier, StoreConfig};

    fn deploy(sim: &Sim) -> (RestGateway, Billing) {
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Nvme,
                anti_entropy: None,
                ..StoreConfig::default()
            },
            &pcsi_obs::Telemetry::default(),
        );
        let billing = Billing::new();
        let mut keys = HashMap::new();
        keys.insert(
            "AK1".to_owned(),
            Credentials::new("AK1", b"secret1".to_vec()),
        );
        let gw = RestGateway::deploy(fabric, store, billing.clone(), NodeId(1), NodeId(4), keys);
        (gw, billing)
    }

    #[test]
    fn kv_put_get_roundtrip() {
        let mut sim = Sim::new(11);
        let (gw, billing) = deploy(&sim);
        let got = sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("AK1", b"secret1".to_vec()));
            c.kv_put("users", "alice", b"profile-data").await.unwrap();
            c.kv_get("users", "alice").await.unwrap()
        });
        assert_eq!(got, b"profile-data");
        assert_eq!(billing.request_count("AK1"), 2);
        assert!(billing.invoice("AK1").compute > 0.0);
    }

    #[test]
    fn object_api_roundtrip_and_delete() {
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("AK1", b"secret1".to_vec()));
            let blob: Vec<u8> = (0..=255).collect();
            let put = Request::new(Method::Put, "/objects/bkt/blob").with_body(blob.clone());
            c.send(put).await.unwrap();
            let got = c.send(Request::new(Method::Get, "/objects/bkt/blob")).await;
            assert_eq!(got.unwrap().body.to_vec(), blob);
            c.kv_put("t", "k", b"v").await.unwrap();
            c.send(Request::new(Method::Delete, "/kv/t/k"))
                .await
                .unwrap();
            let err = c.kv_get("t", "k").await.unwrap_err();
            assert!(matches!(err, RestError::Http { status: 404, .. }), "{err}");
        });
    }

    #[test]
    fn wrong_credentials_rejected() {
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        let err = sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("AK1", b"WRONG".to_vec()));
            c.kv_put("t", "k", b"v").await.unwrap_err()
        });
        assert!(matches!(err, RestError::Http { status: 403, .. }), "{err}");
    }

    #[test]
    fn unknown_key_id_rejected() {
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        let err = sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("GHOST", b"x".to_vec()));
            c.kv_get("t", "k").await.unwrap_err()
        });
        assert!(matches!(err, RestError::Http { status: 403, .. }));
    }

    #[test]
    fn missing_key_is_404() {
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        let err = sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("AK1", b"secret1".to_vec()));
            c.kv_get("none", "nothing").await.unwrap_err()
        });
        assert!(matches!(err, RestError::Http { status: 404, .. }));
    }

    #[test]
    fn rest_fetch_latency_exceeds_network_floor() {
        // E2's shape precondition: the REST path costs several times the
        // raw network RTT because of protocol CPU and extra hops.
        let mut sim = Sim::new(11);
        let (gw, _) = deploy(&sim);
        let h = sim.handle();
        let elapsed = sim.block_on({
            let h = h.clone();
            async move {
                let c = gw.client(NodeId(0), Credentials::new("AK1", b"secret1".to_vec()));
                c.kv_put("t", "k", &vec![7u8; 1024]).await.unwrap();
                let t0 = h.now();
                c.kv_get("t", "k").await.unwrap();
                h.now() - t0
            }
        });
        // One 2021-network RTT is 200 us; the full REST path should cost
        // well over 2x that.
        assert!(
            elapsed > Duration::from_micros(500),
            "REST GET took only {elapsed:?}"
        );
    }

    /// The provider CPU a traced request's spans show: the balancer's
    /// self time plus the gateway's own CPU stages.
    fn spent_ns(spans: &[pcsi_trace::Span]) -> u64 {
        let ns = |s: &pcsi_trace::Span| s.end.saturating_since(s.start).as_nanos() as u64;
        let span = |name| spans.iter().find(|s| s.name == name).expect(name);
        let children = |of: &pcsi_trace::Span| {
            let id = of.id;
            spans.iter().filter(move |s| s.parent == Some(id))
        };
        let lb = span("rest.lb");
        let stages = ["rest.http_parse", "rest.auth", "rest.route", "rest.marshal"];
        let gateway = children(span("rest.gateway")).filter(|s| stages.contains(&s.name));
        ns(lb) - children(lb).map(ns).sum::<u64>() + gateway.map(ns).sum::<u64>()
    }

    /// Every kind of request is billed, to the nanosecond, the CPU its
    /// spans show the balancer and the gateway spending.
    #[test]
    fn each_request_is_billed_the_cpu_it_spent() {
        let mut sim = Sim::new(11);
        let (gw, billing) = deploy(&sim);
        let tracer = Tracer::new(&sim.handle(), pcsi_trace::Sampling::Always, 4096);
        gw.set_tracer(Some(tracer.clone()));
        let one_core = pcsi_faas::registry::rate(&pcsi_net::node::Resources::cpu(1, 0));
        let wrong = sim.block_on(async move {
            let c = gw.client(NodeId(0), Credentials::new("AK1", b"secret1".to_vec()));
            let item = Value::object([("value", Value::Str(json::base64_encode(&[7; 1024])))]);
            let blob: Vec<u8> = (0..=255).collect();
            let mut wrong = Vec::new();
            for request in [
                Request::new(Method::Put, "/kv/t/k").with_body(json::encode(&item).into_bytes()),
                Request::new(Method::Get, "/kv/t/k"),
                Request::new(Method::Delete, "/kv/t/k"),
                Request::new(Method::Put, "/objects/b/o").with_body(blob),
                Request::new(Method::Get, "/objects/b/o"),
            ] {
                let what = format!("{} {}", request.method.as_str(), request.target);
                let before = billing.invoice("AK1").compute;
                c.send(request).await.unwrap();
                let billed = (billing.invoice("AK1").compute - before) / one_core * 1e9;
                let (billed, spent) = (billed.round() as u64, spent_ns(&tracer.sink().take()));
                if billed != spent {
                    wrong.push(format!("{what}: billed {billed} ns, spent {spent} ns"));
                }
            }
            wrong
        });
        assert!(wrong.is_empty(), "{wrong:#?}");
    }

    #[test]
    fn path_ids_are_stable_and_distinct() {
        let a = path_object_id("/kv/t/a");
        let b = path_object_id("/kv/t/b");
        assert_eq!(a, path_object_id("/kv/t/a"));
        assert_ne!(a, b);
        // REST realm ids have the top bit set (no kernel collision).
        assert_eq!(a.as_u128() >> 127, 1);
    }
}
