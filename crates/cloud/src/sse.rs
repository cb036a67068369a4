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
use std::time::Duration;

use bytes::Bytes;
use pcsi_fs::FifoQueue;
use pcsi_net::{Fabric, NodeId, Transport};
use pcsi_proto::http::{Method, Request, Response};
use pcsi_proto::sign::Credentials;
use pcsi_proto::sse::{self, Event};
use pcsi_sim::Ring;
use pcsi_trace::SpanHandle;

use crate::billing::{Billing, Meter};
use crate::rest::{
    admit, auth_cpu, error_response, marshal_cpu, signed_round_trip, FrontDoor, RestError,
    HTTP_CPU, LB_CPU, ROUTING_CPU,
};

/// Events a stream retains for `Last-Event-ID` replay.
pub(crate) const REPLAY_BUFFER: usize = 256;

/// Fabric service name of the hub endpoint.
pub(crate) const SSE_SERVICE: &str = "sse-hub";

/// Header carrying the subscriber's push endpoint (stands in for the
/// long-lived TCP connection a real SSE client holds open).
pub(crate) const ENDPOINT_HEADER: &str = "x-sse-endpoint";

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
    /// The newest encoded events. Ids start at 1 (`Last-Event-ID` 0
    /// means "from the start"), so event id `n` is record `n - 1`.
    replay: Ring<Bytes>,
    conns: Vec<Rc<RefCell<ConnState>>>,
}

impl Default for StreamState {
    fn default() -> Self {
        StreamState {
            replay: Ring::new(REPLAY_BUFFER),
            conns: Vec::new(),
        }
    }
}

struct Inner {
    fabric: Fabric,
    billing: Billing,
    door: FrontDoor,
    keys: HashMap<String, Credentials>,
    streams: RefCell<HashMap<String, StreamState>>,
    /// Numbers the push endpoint of each [`SseSubscriber::connect`].
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
    pub(crate) fn deploy(
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
                keys,
                streams: RefCell::new(HashMap::new()),
                next_conn: Cell::new(1),
            }),
        };
        let handler = {
            let hub = hub.clone();
            Rc::new(move |payload, _ctx| {
                let hub = hub.clone();
                async move {
                    let resp = hub.handle(payload).await;
                    Ok(Bytes::from(resp.encode()))
                }
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

    /// Serves one request, every CPU step spent on one meter that bills
    /// the verified account once the response is built.
    async fn handle(&self, payload: Bytes) -> Response {
        let inner = &self.inner;
        let h = inner.fabric.handle();
        let mut meter = Meter::new(h, Duration::ZERO);
        // HTTP parse + elided-LB forwarding + routing: the same
        // per-request tax the REST gateway pays.
        meter.spend(HTTP_CPU + LB_CPU + ROUTING_CPU).await;
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => return error_response(400, "BadHttp", &e.to_string()),
        };
        // Stateless auth on every request, streaming or not.
        meter.spend(auth_cpu(payload.len())).await;
        let account = match admit(h, &inner.billing, &inner.keys, &request) {
            Ok(account) => account,
            Err(refusal) => return refusal,
        };
        let resp = match request.target.strip_prefix("/streams/") {
            None => error_response(404, "NoSuchResource", &request.target),
            Some(stream) => match request.method {
                Method::Post => self.publish_event(stream, request.body, &mut meter).await,
                Method::Get => self.subscribe(stream, &request),
                Method::Delete => self.disconnect(stream, &request),
                _ => error_response(400, "BadMethod", "unsupported"),
            },
        };
        meter.bill(&inner.billing, &account);
        resp
    }

    async fn publish_event(&self, stream: &str, payload: Bytes, meter: &mut Meter) -> Response {
        let mut event = Bytes::new();
        let (id, targets) = {
            let mut streams = self.inner.streams.borrow_mut();
            let state = streams.entry(stream.to_owned()).or_default();
            let seq = state.replay.push(|seq| {
                event = Bytes::from(Event::new(seq + 1, payload).encode());
                event.clone()
            });
            (seq + 1, state.conns.clone())
        };
        // Frame and enqueue per connection: SSE shares nothing across
        // subscribers, so the hub pays marshaling CPU N times and each
        // copy is its own allocation.
        for conn in targets {
            let frame = Bytes::from(sse::encode_chunk(&event));
            meter.spend(marshal_cpu(frame.len())).await;
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
            state.conns.retain(|c| !c.borrow().dead);
        }
    }

    fn subscribe(&self, stream: &str, request: &Request) -> Response {
        let Some(service) = request.headers.get(ENDPOINT_HEADER).map(str::to_owned) else {
            return error_response(400, "NoEndpoint", "missing endpoint");
        };
        let Some(node) = request
            .headers
            .get("x-sse-node")
            .and_then(|v| v.parse::<u32>().ok())
            .map(NodeId)
        else {
            return error_response(400, "NoEndpoint", "missing node");
        };
        let after: u64 = request
            .headers
            .get("last-event-id")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let conn = {
            let mut streams = self.inner.streams.borrow_mut();
            let state = streams.entry(stream.to_owned()).or_default();
            // Replay every event after the subscriber's last seen id
            // (records from number `after` on) the buffer still holds.
            let replay = state.replay.since(after).into_iter();
            let conn = Rc::new(RefCell::new(ConnState {
                node,
                service,
                pending: replay.map(|e| Bytes::from(sse::encode_chunk(&e))).collect(),
                pumping: false,
                dead: false,
            }));
            state.conns.push(Rc::clone(&conn));
            conn
        };
        self.pump(&conn);
        Response::new(200)
            .with_header("content-type", "text/event-stream")
            .with_header("transfer-encoding", "chunked")
            .with_header("cache-control", "no-store")
    }

    fn disconnect(&self, stream: &str, request: &Request) -> Response {
        let Some(service) = request.headers.get(ENDPOINT_HEADER) else {
            return error_response(400, "NoEndpoint", "missing endpoint");
        };
        let mut streams = self.inner.streams.borrow_mut();
        if let Some(state) = streams.get_mut(stream) {
            state.conns.retain(|c| {
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
        // A fresh endpoint per connect, so two connects from one node in
        // flight at once never bind one name; fixed width, so every GET
        // carrying it is the same length.
        let conn = hub.inner.next_conn.get();
        hub.inner.next_conn.set(conn + 1);
        let service = format!("sse-conn:{:016x}", conn << 32 | u64::from(node.0));
        // SSE applies no application-level flow control: the endpoint
        // buffer is unbounded, like the kernel socket buffer + browser
        // EventSource queue it models.
        let queue = FifoQueue::unbounded();
        let handler = {
            let queue = queue.clone();
            Rc::new(move |frame, _ctx| {
                let _ = queue.push(frame);
                std::future::ready(Ok(Bytes::new()))
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
            .map(|c| c.borrow().pending.len())
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

    /// Two connects from one node in flight at once bind two endpoints,
    /// so one publish reaches each subscriber exactly once.
    #[test]
    fn concurrent_connects_from_one_node_each_get_every_event_once() {
        let mut sim = Sim::new(26);
        let (hub, _) = deploy(&sim);
        let h = sim.handle();
        sim.block_on(async move {
            let connect = |hub: &SseHub| {
                let hub = hub.clone();
                async move { SseSubscriber::connect(&hub, NodeId(3), creds(), "s").await }
            };
            let subs = pcsi_sim::util::join_all([connect(&hub), connect(&hub)]).await;
            let publisher = SsePublisher::new(&hub, NodeId(5), creds());
            publisher.publish("s", b"x").await.unwrap();
            h.sleep(Duration::from_millis(5)).await;
            for sub in subs {
                let sub = Rc::new(sub.unwrap());
                assert_eq!(sub.queue.len(), 1, "frames at {}", sub.service);
                let next = {
                    let sub = Rc::clone(&sub);
                    async move { sub.next().await.map(|ev| ev.id) }
                };
                let got = pcsi_sim::util::deadline(&h, Duration::from_millis(5), next).await;
                assert_eq!(got, Some(Some(1)), "event at {}", sub.service);
            }
        });
    }

    /// The hub bills a publish what it spent: its admission (framing,
    /// the elided balancer, routing and the signature check over the
    /// request as it arrived) and one marshal per subscriber's frame.
    #[test]
    fn a_publish_bills_its_admission_and_one_marshal_per_frame() {
        let mut sim = Sim::new(27);
        let (hub, billing) = deploy(&sim);
        let billed = sim.block_on({
            let hub = hub.clone();
            async move {
                let _a = SseSubscriber::connect(&hub, NodeId(2), creds(), "s").await;
                let _b = SseSubscriber::connect(&hub, NodeId(4), creds(), "s").await;
                let before = billing.invoice("AK1").compute;
                let publisher = SsePublisher::new(&hub, NodeId(5), creds());
                publisher.publish("s", b"payload").await.unwrap();
                billing.invoice("AK1").compute - before
            }
        });
        let mut post = Request::new(Method::Post, "/streams/s").with_body(b"payload".to_vec());
        post.headers.insert("host", hub.inner.door.host);
        pcsi_proto::sign::sign_request(&mut post, &creds(), &crate::rest::scope(), 1_700_000_000);
        let frame = sse::encode_chunk(&Event::new(1, Bytes::from_static(b"payload")).encode());
        let admission = HTTP_CPU + LB_CPU + ROUTING_CPU + auth_cpu(post.encode().len());
        let spent = admission + 2 * marshal_cpu(frame.len());
        let one_core = pcsi_faas::registry::rate(&pcsi_net::node::Resources::cpu(1, 0));
        assert_eq!((billed / one_core * 1e9).round() as u128, spent.as_nanos());
    }
}
