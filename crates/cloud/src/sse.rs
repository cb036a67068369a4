//! The REST *streaming* baseline: a Server-Sent-Events hub.
//!
//! This is what streaming looks like from outside the provider today: a
//! producer POSTs each event to an HTTP endpoint (full signed-request
//! cost — framing, signature verification, routing), and the hub pushes
//! it to every connected subscriber as a chunk-framed `text/event-stream`
//! write over TCP. Every event is re-framed *per connection* (SSE is a
//! per-socket text protocol — there is no fan-out sharing), the hub pays
//! marshaling CPU for each copy, and the only flow control is TCP's: a
//! slow subscriber's events queue unboundedly at the hub, because the
//! application layer has no credit window to push back through.
//!
//! Contrast with `pcsi-stream`: binary push frames encoded once and
//! shared across subscribers by reference, credit-based backpressure to
//! the producer, and no per-event HTTP/signature tax. `pcsi-bench`'s
//! `streaming` experiment prices the two against each other per event.
//!
//! Reconnects follow the SSE standard: the hub retains a bounded replay
//! buffer per stream, and a subscriber reconnecting with `Last-Event-ID`
//! receives everything it missed that is still in the buffer.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use pcsi_fs::FifoQueue;
use pcsi_net::fabric::RpcHandler;
use pcsi_net::{Fabric, NodeId, Transport};
use pcsi_proto::http::{Method, Request, Response};
use pcsi_proto::sign::{verify_request, Credentials};
use pcsi_proto::sse::{self, Event};
use pcsi_trace::SpanHandle;

use crate::billing::Billing;
use crate::rest::{
    auth_cpu, error_json, marshal_cpu, request_cpu, scope, signed_round_trip, FrontDoor, RestError,
    HTTP_CPU, LB_CPU, ROUTING_CPU,
};

/// Events a stream retains for `Last-Event-ID` replay.
pub(crate) const REPLAY_BUFFER: usize = 256;

/// Fabric service name of the hub endpoint.
pub(crate) const SSE_SERVICE: &str = "sse-hub";

/// Header carrying the subscriber's push endpoint (stands in for the
/// long-lived TCP connection a real SSE client holds open).
pub(crate) const ENDPOINT_HEADER: &str = "x-sse-endpoint";

fn conn_service(conn: u64) -> String {
    format!("sse-conn:{conn:016x}")
}

struct ConnState {
    node: NodeId,
    service: String,
    /// In-order pending frames (already chunk-framed); models the TCP
    /// send queue of this subscriber's socket — note the absence of any
    /// bound.
    pending: VecDeque<Bytes>,
    pumping: bool,
    dead: bool,
}

struct StreamState {
    next_id: u64,
    replay: VecDeque<(u64, Bytes)>,
    conns: Vec<(u64, Rc<RefCell<ConnState>>)>,
}

impl Default for StreamState {
    fn default() -> Self {
        StreamState {
            next_id: 1, // Last-Event-ID 0 means "from the start"
            replay: VecDeque::new(),
            conns: Vec::new(),
        }
    }
}

struct Inner {
    fabric: Fabric,
    billing: Billing,
    door: FrontDoor,
    keys: Rc<HashMap<String, Credentials>>,
    streams: RefCell<HashMap<String, StreamState>>,
    next_conn: Cell<u64>,
}

/// The deployed SSE hub.
#[derive(Clone)]
pub struct SseHub {
    inner: Rc<Inner>,
}

impl SseHub {
    /// Deploys the hub on `hub_node`. The load balancer of the full REST
    /// stack is elided (subscribers hold one long-lived connection, not
    /// per-request routing), but its CPU is still charged per request.
    pub fn deploy(
        fabric: Fabric,
        billing: Billing,
        hub_node: NodeId,
        keys: HashMap<String, Credentials>,
    ) -> Self {
        let hub = SseHub {
            inner: Rc::new(Inner {
                fabric: fabric.clone(),
                billing,
                door: FrontDoor {
                    node: hub_node,
                    service: SSE_SERVICE,
                    host: "streams.sim-west-1.pcsi.cloud",
                },
                keys: Rc::new(keys),
                streams: RefCell::new(HashMap::new()),
                next_conn: Cell::new(1),
            }),
        };
        let handler: RpcHandler = {
            let hub = hub.clone();
            Rc::new(move |payload, _ctx| {
                let hub = hub.clone();
                Box::pin(async move {
                    let resp = hub.handle(payload).await;
                    Ok(Bytes::from(resp.encode()))
                })
            })
        };
        fabric.bind(hub_node, SSE_SERVICE, handler);
        hub
    }

    /// A signed request from `from` to the hub (untraced: the SSE
    /// baseline carries no spans).
    async fn round_trip(
        &self,
        from: NodeId,
        creds: &Credentials,
        request: Request,
    ) -> Result<Response, RestError> {
        let (inner, span) = (&self.inner, SpanHandle::disabled());
        signed_round_trip(&inner.fabric, from, &inner.door, creds, request, &span).await
    }

    async fn handle(&self, payload: Bytes) -> Response {
        let h = self.inner.fabric.handle().clone();
        // HTTP parse + elided-LB forwarding + routing: the same
        // per-request tax the REST gateway pays.
        h.sleep(HTTP_CPU + LB_CPU + ROUTING_CPU).await;
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => return Response::new(400).with_body(error_json("BadHttp", &e.to_string())),
        };
        // Stateless auth on every request, streaming or not.
        h.sleep(auth_cpu(payload.len())).await;
        let now_s = h.now().as_secs_f64() as u64 + 1_700_000_000;
        let keys = Rc::clone(&self.inner.keys);
        let lookup = |id: &str| keys.get(id).cloned();
        if let Err(e) = verify_request(&request, lookup, &scope(), now_s, 3600) {
            return Response::new(403).with_body(error_json("AccessDenied", &e.to_string()));
        }
        let account = request
            .headers
            .get(pcsi_proto::sign::KEY_ID_HEADER)
            .unwrap_or("anonymous")
            .to_owned();
        self.inner.billing.charge_request(&account);
        self.inner.billing.charge_compute(
            &account,
            &pcsi_net::node::Resources::cpu(1, 0),
            request_cpu(request.body.len()),
        );

        let Some(stream) = request.target.strip_prefix("/streams/").map(str::to_owned) else {
            return Response::new(404).with_body(error_json("NoSuchResource", &request.target));
        };
        match request.method {
            Method::Post => self.publish_event(&stream, &account, request.body).await,
            Method::Get => self.subscribe(&stream, &request),
            Method::Delete => self.disconnect(&stream, &request),
            _ => Response::new(400).with_body(error_json("BadMethod", "unsupported")),
        }
    }

    async fn publish_event(&self, stream: &str, account: &str, payload: Bytes) -> Response {
        let h = self.inner.fabric.handle().clone();
        let id;
        let targets: Vec<Rc<RefCell<ConnState>>>;
        {
            let mut streams = self.inner.streams.borrow_mut();
            let state = streams.entry(stream.to_owned()).or_default();
            id = state.next_id;
            state.next_id += 1;
            state.replay.push_back((id, payload.clone()));
            while state.replay.len() > REPLAY_BUFFER {
                state.replay.pop_front();
            }
            targets = state.conns.iter().map(|(_, c)| Rc::clone(c)).collect();
        }
        // Frame and enqueue per connection: SSE shares nothing across
        // subscribers, so the hub pays marshaling CPU N times and each
        // copy is its own allocation.
        for conn in targets {
            let frame = Bytes::from(sse::encode_chunk(&Event::new(id, payload.clone()).encode()));
            h.sleep(marshal_cpu(frame.len())).await;
            self.inner.billing.charge_compute(
                account,
                &pcsi_net::node::Resources::cpu(1, 0),
                marshal_cpu(frame.len()),
            );
            conn.borrow_mut().pending.push_back(frame);
            self.pump(&conn);
        }
        Response::new(200)
            .with_header("content-type", "application/json")
            .with_body(format!("{{\"id\":{id}}}").into_bytes())
    }

    /// Drains one connection's queue in order — the simulator's stand-in
    /// for the in-order TCP socket under a real SSE response.
    fn pump(&self, conn: &Rc<RefCell<ConnState>>) {
        {
            let mut c = conn.borrow_mut();
            if c.pumping || c.dead || c.pending.is_empty() {
                return;
            }
            c.pumping = true;
        }
        let hub = self.clone();
        let conn = Rc::clone(conn);
        self.inner
            .fabric
            .handle()
            .clone()
            .spawn_detached(async move {
                loop {
                    let (frame, node, service) = {
                        let mut c = conn.borrow_mut();
                        match c.pending.front().cloned() {
                            Some(f) if !c.dead => (f, c.node, c.service.clone()),
                            _ => {
                                c.pumping = false;
                                return;
                            }
                        }
                    };
                    let sent = hub
                        .inner
                        .fabric
                        .call(hub.inner.door.node, node, &service, Transport::Tcp, frame)
                        .await
                        .is_ok();
                    let mut c = conn.borrow_mut();
                    if sent {
                        c.pending.pop_front();
                    } else {
                        // The socket broke: drop the connection and its queue.
                        c.dead = true;
                        c.pending.clear();
                        c.pumping = false;
                        drop(c);
                        hub.gc_dead_conns();
                        return;
                    }
                }
            });
    }

    fn gc_dead_conns(&self) {
        let mut streams = self.inner.streams.borrow_mut();
        for state in streams.values_mut() {
            state.conns.retain(|(_, c)| !c.borrow().dead);
        }
    }

    fn subscribe(&self, stream: &str, request: &Request) -> Response {
        let Some(service) = request.headers.get(ENDPOINT_HEADER).map(str::to_owned) else {
            return Response::new(400).with_body(error_json("NoEndpoint", "missing endpoint"));
        };
        let Some(node) = request
            .headers
            .get("x-sse-node")
            .and_then(|v| v.parse::<u32>().ok())
            .map(NodeId)
        else {
            return Response::new(400).with_body(error_json("NoEndpoint", "missing node"));
        };
        let after: u64 = request
            .headers
            .get("last-event-id")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let conn_id = self.inner.next_conn.get();
        self.inner.next_conn.set(conn_id + 1);
        let conn = Rc::new(RefCell::new(ConnState {
            node,
            service,
            pending: VecDeque::new(),
            pumping: false,
            dead: false,
        }));
        {
            let mut streams = self.inner.streams.borrow_mut();
            let state = streams.entry(stream.to_owned()).or_default();
            // Replay everything after the subscriber's last seen id that
            // the bounded buffer still holds.
            for (id, payload) in state.replay.iter().filter(|(id, _)| *id > after) {
                conn.borrow_mut()
                    .pending
                    .push_back(Bytes::from(sse::encode_chunk(
                        &Event::new(*id, payload.clone()).encode(),
                    )));
            }
            state.conns.push((conn_id, Rc::clone(&conn)));
        }
        self.pump(&conn);
        Response::new(200)
            .with_header("content-type", "text/event-stream")
            .with_header("transfer-encoding", "chunked")
            .with_header("cache-control", "no-store")
    }

    fn disconnect(&self, stream: &str, request: &Request) -> Response {
        let Some(service) = request.headers.get(ENDPOINT_HEADER) else {
            return Response::new(400).with_body(error_json("NoEndpoint", "missing endpoint"));
        };
        let mut streams = self.inner.streams.borrow_mut();
        if let Some(state) = streams.get_mut(stream) {
            state.conns.retain(|(_, c)| {
                let mut c = c.borrow_mut();
                if c.service == service {
                    c.dead = true;
                    c.pending.clear();
                    false
                } else {
                    true
                }
            });
        }
        Response::new(204)
    }
}

/// An event received by an [`SseSubscriber`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SseEvent {
    /// The hub-assigned event id (`Last-Event-ID` reconnect cursor).
    pub(crate) id: u64,
    /// The event payload.
    pub data: Bytes,
}

/// A connected SSE subscriber: binds a push endpoint on its node, sends
/// a signed `GET /streams/{name}`, and receives chunk-framed events.
pub struct SseSubscriber {
    hub: SseHub,
    node: NodeId,
    creds: Credentials,
    stream: String,
    service: String,
    queue: FifoQueue,
    last_id: Cell<u64>,
}

impl SseSubscriber {
    /// Connects to `stream` from `node`, paying the signed-request cost.
    pub async fn connect(
        hub: &SseHub,
        node: NodeId,
        creds: Credentials,
        stream: &str,
    ) -> Result<SseSubscriber, RestError> {
        let conn = hub.inner.next_conn.get() << 32 | u64::from(node.0);
        let service = conn_service(conn);
        // SSE applies no application-level flow control: the endpoint
        // buffer is unbounded, like the kernel socket buffer + browser
        // EventSource queue it models.
        let queue = FifoQueue::unbounded();
        let handler: RpcHandler = {
            let queue = queue.clone();
            Rc::new(move |frame: Bytes, _ctx| {
                let queue = queue.clone();
                let fut: pcsi_sim::executor::LocalBoxFuture<Result<Bytes, pcsi_net::NetError>> =
                    Box::pin(async move {
                        let _ = queue.push(frame);
                        Ok(Bytes::new())
                    });
                fut
            })
        };
        hub.inner.fabric.bind(node, &service, handler);
        let sub = SseSubscriber {
            hub: hub.clone(),
            node,
            creds,
            stream: stream.to_owned(),
            service,
            queue,
            last_id: Cell::new(0),
        };
        if let Err(e) = sub.send_connect().await {
            hub.inner.fabric.unbind(node, &sub.service);
            return Err(e);
        }
        Ok(sub)
    }

    async fn send_connect(&self) -> Result<(), RestError> {
        let request = Request::new(Method::Get, format!("/streams/{}", self.stream))
            .with_header(ENDPOINT_HEADER, &self.service)
            .with_header("x-sse-node", &self.node.0.to_string())
            .with_header("last-event-id", &self.last_id.get().to_string());
        self.hub
            .round_trip(self.node, &self.creds, request)
            .await
            .map(|_| ())
    }

    /// The next event, paying the client-side chunk + SSE parse. `None`
    /// after [`SseSubscriber::disconnect`].
    pub async fn next(&self) -> Option<SseEvent> {
        loop {
            let frame = self.queue.pop().await.ok()?;
            let (body, _) = sse::decode_chunk(&frame).ok()?;
            let Ok((event, _)) = Event::decode(&body) else {
                continue; // keep-alive comment or corrupt frame
            };
            let id = event.id.unwrap_or(0);
            // At-least-once across reconnects: the replay window may
            // overlap events already seen; SSE clients dedup by id.
            if id <= self.last_id.get() {
                continue;
            }
            self.last_id.set(id);
            return Some(SseEvent {
                id,
                data: event.data,
            });
        }
    }

    /// Simulates the connection dropping and re-establishing: sends a
    /// fresh signed `GET` with `Last-Event-ID`, so the hub replays what
    /// the buffer still holds. Events older than the replay window are
    /// lost — SSE's delivery guarantee is only as deep as the buffer.
    #[cfg(test)]
    pub(crate) async fn reconnect(&self) -> Result<(), RestError> {
        // Drop the old hub-side connection first (its queue dies with
        // the socket).
        let request = Request::new(Method::Delete, format!("/streams/{}", self.stream))
            .with_header(ENDPOINT_HEADER, &self.service);
        let _ = self.hub.round_trip(self.node, &self.creds, request).await;
        self.send_connect().await
    }

    /// Closes the connection: tells the hub, unbinds the endpoint, and
    /// ends [`SseSubscriber::next`] with `None` once drained.
    pub async fn disconnect(&self) {
        let request = Request::new(Method::Delete, format!("/streams/{}", self.stream))
            .with_header(ENDPOINT_HEADER, &self.service);
        let _ = self.hub.round_trip(self.node, &self.creds, request).await;
        self.hub.inner.fabric.unbind(self.node, &self.service);
        self.queue.close();
    }
}

/// A producer that POSTs events to a stream with full REST request cost.
pub struct SsePublisher {
    hub: SseHub,
    from: NodeId,
    creds: Credentials,
}

impl SsePublisher {
    /// A publisher sending from `from` with `creds`.
    pub fn new(hub: &SseHub, from: NodeId, creds: Credentials) -> Self {
        SsePublisher {
            hub: hub.clone(),
            from,
            creds,
        }
    }

    /// Publishes one event, returning its hub-assigned id.
    pub async fn publish(&self, stream: &str, payload: &[u8]) -> Result<u64, RestError> {
        let request =
            Request::new(Method::Post, format!("/streams/{stream}")).with_body(payload.to_vec());
        let response = self.hub.round_trip(self.from, &self.creds, request).await?;
        let text = String::from_utf8_lossy(&response.body);
        text.trim_start_matches("{\"id\":")
            .trim_end_matches('}')
            .parse()
            .map_err(|_| RestError::Net("bad publish response".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_net::{LatencyModel, NetworkGeneration, Topology};
    use pcsi_sim::Sim;
    use std::time::Duration;

    /// Live connections on `stream`.
    fn connection_count(hub: &SseHub, stream: &str) -> usize {
        let streams = hub.inner.streams.borrow();
        streams.get(stream).map_or(0, |s| s.conns.len())
    }

    /// Frames queued at the hub across all connections — the unbounded
    /// "TCP send queue" a slow SSE subscriber grows.
    fn queued_frames(hub: &SseHub) -> usize {
        let streams = hub.inner.streams.borrow();
        streams
            .values()
            .flat_map(|s| s.conns.iter())
            .map(|(_, c)| c.borrow().pending.len())
            .sum()
    }

    fn deploy(sim: &Sim) -> (SseHub, Billing) {
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(2, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let billing = Billing::new();
        let mut keys = HashMap::new();
        keys.insert(
            "AK1".to_owned(),
            Credentials::new("AK1", b"secret1".to_vec()),
        );
        let hub = SseHub::deploy(fabric, billing.clone(), NodeId(0), keys);
        (hub, billing)
    }

    fn creds() -> Credentials {
        Credentials::new("AK1", b"secret1".to_vec())
    }

    #[test]
    fn events_fan_out_to_subscribers_in_order() {
        let mut sim = Sim::new(21);
        let (hub, billing) = deploy(&sim);
        sim.block_on(async move {
            let a = SseSubscriber::connect(&hub, NodeId(2), creds(), "logs")
                .await
                .unwrap();
            let b = SseSubscriber::connect(&hub, NodeId(4), creds(), "logs")
                .await
                .unwrap();
            let publisher = SsePublisher::new(&hub, NodeId(5), creds());
            for i in 0..3u32 {
                publisher
                    .publish("logs", format!("line-{i}").as_bytes())
                    .await
                    .unwrap();
            }
            for sub in [&a, &b] {
                for want in 1..=3u64 {
                    let ev = sub.next().await.unwrap();
                    assert_eq!(ev.id, want);
                    assert_eq!(ev.data, Bytes::from(format!("line-{}", want - 1)));
                }
            }
            a.disconnect().await;
            b.disconnect().await;
            assert_eq!(connection_count(&hub, "logs"), 0);
            // Each request billed: 2 connects + 3 publishes + 2 disconnects.
            assert_eq!(billing.request_count("AK1"), 7);
        });
    }

    #[test]
    fn reconnect_replays_missed_events_from_last_event_id() {
        let mut sim = Sim::new(22);
        let (hub, _) = deploy(&sim);
        sim.block_on(async move {
            let sub = SseSubscriber::connect(&hub, NodeId(3), creds(), "s")
                .await
                .unwrap();
            let publisher = SsePublisher::new(&hub, NodeId(5), creds());
            publisher.publish("s", b"one").await.unwrap();
            assert_eq!(sub.next().await.unwrap().id, 1);

            // The connection silently breaks; events keep flowing.
            publisher.publish("s", b"two").await.unwrap();
            publisher.publish("s", b"three").await.unwrap();
            // (the client never read them — simulate by reconnecting
            // with the cursor at 1; the hub replays 2 and 3.)
            sub.reconnect().await.unwrap();
            let ev2 = sub.next().await.unwrap();
            let ev3 = sub.next().await.unwrap();
            assert_eq!((ev2.id, &ev2.data[..]), (2, &b"two"[..]));
            assert_eq!((ev3.id, &ev3.data[..]), (3, &b"three"[..]));
            sub.disconnect().await;
        });
    }

    #[test]
    fn events_older_than_the_replay_buffer_are_lost() {
        let mut sim = Sim::new(23);
        let (hub, _) = deploy(&sim);
        sim.block_on(async move {
            let publisher = SsePublisher::new(&hub, NodeId(5), creds());
            let total = REPLAY_BUFFER as u64 + 10;
            for i in 0..total {
                publisher
                    .publish("s", format!("{i}").as_bytes())
                    .await
                    .unwrap();
            }
            // A late subscriber asking for everything gets only what the
            // bounded buffer still holds.
            let sub = SseSubscriber::connect(&hub, NodeId(3), creds(), "s")
                .await
                .unwrap();
            let first = sub.next().await.unwrap();
            assert_eq!(first.id, total - REPLAY_BUFFER as u64 + 1);
            sub.disconnect().await;
        });
    }

    #[test]
    fn bad_signature_rejected() {
        let mut sim = Sim::new(24);
        let (hub, _) = deploy(&sim);
        sim.block_on(async move {
            let publisher =
                SsePublisher::new(&hub, NodeId(5), Credentials::new("AK1", b"WRONG".to_vec()));
            let err = publisher.publish("s", b"x").await.unwrap_err();
            assert!(matches!(err, RestError::Http { status: 403, .. }), "{err}");
        });
    }

    #[test]
    fn dead_subscriber_connection_is_collected() {
        let mut sim = Sim::new(25);
        let (hub, _) = deploy(&sim);
        let h = sim.handle();
        sim.block_on(async move {
            let sub = SseSubscriber::connect(&hub, NodeId(3), creds(), "s")
                .await
                .unwrap();
            // The endpoint vanishes without a DELETE (process crash).
            hub.inner.fabric.unbind(NodeId(3), &sub.service);
            let publisher = SsePublisher::new(&hub, NodeId(5), creds());
            publisher.publish("s", b"x").await.unwrap();
            h.sleep(Duration::from_millis(5)).await;
            assert_eq!(connection_count(&hub, "s"), 0);
            assert_eq!(queued_frames(&hub), 0);
        });
    }
}
