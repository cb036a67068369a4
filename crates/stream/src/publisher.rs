//! Owner-side streaming: the one subscribe entry point, the
//! subscription registry, per-subscription bounded buffers, and the
//! credit-gated pump that pushes frames through the fabric.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use fxhash::FxHashMap;
use pcsi_core::{ObjectId, PcsiError};
use pcsi_metrics::{Counter, Metrics};
use pcsi_net::fabric::CallCtx;
use pcsi_net::{Fabric, NodeId};

use crate::frame::{
    decode_stream_frame, encode_stream_frame, encode_stream_reply, CloseReason, StreamFrame,
    StreamReply,
};
use crate::{retried_call, sub_service, Subscription, PROBE_INTERVAL};

/// Fabric service (bound on every node) that accepts subscribe, grant
/// and close frames for objects homed there.
pub(crate) const STREAM_SERVICE: &str = "pcsi-stream";

/// Credit window a subscriber gets when it asks for `0`.
const DEFAULT_WINDOW: u32 = 32;

/// One frame queued for one subscription: a push, with its payload's
/// length, or a close (`None`). `wire` is shared — the same `Bytes`
/// across all subscribers of the event and all retransmits.
struct PendingFrame {
    wire: Bytes,
    payload_len: Option<usize>,
}

struct SubState {
    sub: u64,
    object: ObjectId,
    /// Node the object is homed on; pushes originate here.
    home: NodeId,
    /// Node the subscriber lives on.
    consumer: NodeId,
    /// Per-subscription push service bound on the consumer.
    service: String,
    /// Credit window granted at subscribe time — also the bound on
    /// `pending`.
    window: u32,
    /// Credit-spending frames dispatched so far (closes are free).
    sent: Cell<u64>,
    /// Cumulative consumed count reported by the consumer's grants.
    /// Monotone (`max` of all reports), so retransmitted or duplicated
    /// grants are idempotent; credits left = `window - (sent - acked)`.
    acked: Cell<u64>,
    pending: RefCell<VecDeque<PendingFrame>>,
    /// True while a pump task is draining `pending`.
    pumping: Cell<bool>,
    /// Set once the subscription is torn down, so a late pump iteration
    /// cannot resurrect it.
    dead: Cell<bool>,
    /// Wire bytes of the last pushed frame, kept as the liveness probe
    /// retransmitted while the subscription is credit-stalled.
    last_wire: RefCell<Option<Bytes>>,
    /// True while a probe task watches a credit-stalled subscription.
    probing: Cell<bool>,
}

impl SubState {
    /// The one stall rule: the next queued frame is a push and the
    /// window is spent — every credit is in flight or sitting unconsumed
    /// in the subscriber's buffer. Closes spend no credit, so teardown
    /// never stalls. The pump stops here, `kick` starts the probe
    /// instead of a pump, and the probe runs for as long as it holds.
    fn stalled(&self) -> bool {
        let unacked = self.sent.get().saturating_sub(self.acked.get());
        unacked >= u64::from(self.window)
            && self
                .pending
                .borrow()
                .front()
                .is_some_and(|f| f.payload_len.is_some())
    }
}

/// Lazily-resolved metric series. Registration happens on first
/// streaming activity, so workloads that never stream render snapshots
/// byte-identical to before this crate existed.
struct StreamSeries {
    subscriptions: Counter,
    frames: Counter,
    bytes: Counter,
    credit_stalls: Counter,
    closes: Counter,
}

struct Inner {
    fabric: Fabric,
    subs: RefCell<FxHashMap<u64, Rc<SubState>>>,
    /// Who listens to each object.
    objects: RefCell<FxHashMap<ObjectId, Vec<Rc<SubState>>>>,
    next_sub: Cell<u64>,
    metrics: Option<Metrics>,
    series: OnceCell<StreamSeries>,
}

/// The owner half of the streaming layer. One per kernel; cheap to
/// clone.
#[derive(Clone)]
pub struct Publisher {
    inner: Rc<Inner>,
}

impl Publisher {
    /// Creates a publisher and binds its control service on every node
    /// of the fabric's topology (any node can home an object). With a
    /// registry, the `stream.*` series register on the first streaming
    /// activity.
    pub fn deploy(fabric: Fabric, metrics: Option<Metrics>) -> Self {
        let p = Publisher {
            inner: Rc::new(Inner {
                fabric: fabric.clone(),
                subs: RefCell::new(FxHashMap::default()),
                objects: RefCell::new(FxHashMap::default()),
                next_sub: Cell::new(0),
                metrics,
                series: OnceCell::new(),
            }),
        };
        for node in fabric.topology().node_ids() {
            let p2 = p.clone();
            fabric.bind(
                node,
                STREAM_SERVICE,
                Rc::new(move |frame, ctx| std::future::ready(Ok(p2.handle_control(&frame, ctx)))),
            );
        }
        p
    }

    /// Subscribes a consumer on `node` to `object`, homed on `home`: the
    /// one way a subscription starts. `window` is the credit window (and
    /// the consumer's buffer bound); `0` takes the default of 32 frames.
    /// Subscription ids are allocated here, publisher-wide, so they are
    /// unique per kernel and reproduce per simulation; the consumer's
    /// latency series lands in this publisher's registry.
    pub async fn subscribe(
        &self,
        node: NodeId,
        object: ObjectId,
        home: NodeId,
        window: u32,
    ) -> Result<Subscription, PcsiError> {
        let n = self.inner.next_sub.get();
        self.inner.next_sub.set(n + 1);
        let sub = (u64::from(node.0) << 48) | n;
        let window = if window == 0 { DEFAULT_WINDOW } else { window };
        let (fabric, metrics) = (self.inner.fabric.clone(), self.inner.metrics.clone());
        Subscription::open(fabric, metrics, sub, node, object, home, window).await
    }

    /// Live subscription count for `id`. Nonzero flips a FIFO from pull
    /// mode to push fan-out.
    pub fn subscriber_count(&self, id: ObjectId) -> usize {
        self.inner.objects.borrow().get(&id).map_or(0, Vec::len)
    }

    /// Fans event `seq` out to every subscriber of `id`. The sequence is
    /// the caller's: the kernel numbers a FIFO's messages from one
    /// counter, queued or streamed.
    ///
    /// The frame is encoded **once**; each subscription queues a clone
    /// of the same `Bytes`. Backpressure is all-or-nothing: if any
    /// subscriber's pending buffer is full (its consumer has fallen a
    /// whole credit window behind), the append fails with a retryable
    /// [`PcsiError::Overloaded`] and no subscriber sees the event —
    /// credit flow control throttles the producer to the slowest
    /// consumer.
    pub fn publish(
        &self,
        id: ObjectId,
        seq: u64,
        payload: Bytes,
        ts_ns: u64,
    ) -> Result<(), PcsiError> {
        let targets = self.inner.objects.borrow().get(&id).cloned();
        let targets = targets.ok_or(PcsiError::NotFound(id))?;
        if let Some(full) = targets
            .iter()
            .find(|s| s.pending.borrow().len() >= s.window as usize)
        {
            return Err(PcsiError::Overloaded(format!(
                "stream backpressure: subscriber {:#x} is {} frames behind",
                full.sub, full.window
            )));
        }
        let payload_len = payload.len();
        let wire = encode_stream_frame(&StreamFrame::Push {
            seq,
            ts_ns,
            payload,
        });
        for sub in targets {
            self.enqueue(&sub, wire.clone(), Some(payload_len));
        }
        Ok(())
    }

    /// Ends every subscription on `id` (object deleted or closed). The
    /// close frame queues *behind* in-flight pushes, so subscribers
    /// drain everything already published before they see the end.
    pub fn close_object(&self, id: ObjectId) {
        let Some(subs) = self.inner.objects.borrow_mut().remove(&id) else {
            return;
        };
        for sub in subs {
            let wire = encode_stream_frame(&StreamFrame::Close {
                sub: sub.sub,
                reason: CloseReason::ObjectClosed,
            });
            self.enqueue(&sub, wire, None);
        }
    }

    /// Total frames the owner currently buffers across subscriptions
    /// (chaos asserts this stays within `subs × window`).
    pub fn buffered_frames(&self) -> usize {
        self.inner
            .subs
            .borrow()
            .values()
            .map(|s| s.pending.borrow().len())
            .sum()
    }

    fn series(&self) -> Option<&StreamSeries> {
        let m = self.inner.metrics.as_ref()?;
        Some(self.inner.series.get_or_init(|| StreamSeries {
            subscriptions: m.counter("stream.subscriptions", &[]),
            frames: m.counter("stream.frames", &[]),
            bytes: m.counter("stream.bytes", &[]),
            credit_stalls: m.counter("stream.credit_stalls", &[]),
            closes: m.counter("stream.closes", &[]),
        }))
    }

    /// Decodes and applies one control frame (runs on the object's home
    /// node). Control handling is synchronous; only pushes await.
    fn handle_control(&self, frame: &Bytes, ctx: CallCtx) -> Bytes {
        let reply = match decode_stream_frame(frame) {
            Ok(StreamFrame::Subscribe { id, sub, window }) => {
                self.register(id, sub, window, ctx.from, ctx.to)
            }
            Ok(StreamFrame::Grant { sub, consumed }) => self.grant(sub, consumed),
            Ok(StreamFrame::Close { sub, .. }) => {
                self.remove_sub(sub);
                StreamReply::Ok
            }
            Ok(StreamFrame::Push { .. }) => StreamReply::Err(PcsiError::Fault(
                "push frames flow owner→consumer only".into(),
            )),
            Err(e) => StreamReply::Err(PcsiError::Fault(e.to_string())),
        };
        encode_stream_reply(&reply)
    }

    /// Admits a subscription. Idempotent: a subscribe retransmitted
    /// after its reply was lost finds its own registration and is
    /// accepted again. A zero window is malformed (the default is the
    /// consumer side's to apply), and an id held for another consumer
    /// or object is refused.
    fn register(
        &self,
        object: ObjectId,
        sub: u64,
        window: u32,
        consumer: NodeId,
        home: NodeId,
    ) -> StreamReply {
        if window == 0 {
            return StreamReply::Err(PcsiError::Fault("credit window must be ≥ 1".into()));
        }
        if let Some(held) = self.inner.subs.borrow().get(&sub) {
            return if (held.consumer, held.object) == (consumer, object) {
                StreamReply::Ok
            } else {
                StreamReply::Err(PcsiError::Fault(format!(
                    "subscription {sub:#x} already exists"
                )))
            };
        }
        let state = Rc::new(SubState {
            sub,
            object,
            home,
            consumer,
            service: sub_service(sub),
            window,
            sent: Cell::new(0),
            acked: Cell::new(0),
            pending: RefCell::new(VecDeque::new()),
            pumping: Cell::new(false),
            dead: Cell::new(false),
            last_wire: RefCell::new(None),
            probing: Cell::new(false),
        });
        self.inner.subs.borrow_mut().insert(sub, Rc::clone(&state));
        let mut objects = self.inner.objects.borrow_mut();
        objects.entry(object).or_default().push(state);
        if let Some(s) = self.series() {
            s.subscriptions.incr();
        }
        StreamReply::Ok
    }

    fn grant(&self, sub: u64, consumed: u64) -> StreamReply {
        let Some(state) = self.inner.subs.borrow().get(&sub).cloned() else {
            return StreamReply::Err(PcsiError::Fault(format!("no subscription {sub:#x}")));
        };
        // Monotone: a stale, reordered, or retransmitted report can
        // only be ignored, never double-counted.
        state.acked.set(state.acked.get().max(consumed));
        self.kick(&state);
        StreamReply::Ok
    }

    /// Tears a subscription down and releases its buffers and credits.
    fn remove_sub(&self, sub: u64) {
        let Some(state) = self.inner.subs.borrow_mut().remove(&sub) else {
            return;
        };
        state.dead.set(true);
        state.pending.borrow_mut().clear();
        if let Some(subs) = self.inner.objects.borrow_mut().get_mut(&state.object) {
            subs.retain(|s| s.sub != sub);
        }
        if let Some(s) = self.series() {
            s.closes.incr();
        }
    }

    /// Queues a frame behind what `sub` already holds and starts its
    /// pump.
    fn enqueue(&self, sub: &Rc<SubState>, wire: Bytes, payload_len: Option<usize>) {
        let frame = PendingFrame { wire, payload_len };
        sub.pending.borrow_mut().push_back(frame);
        self.kick(sub);
    }

    /// Starts a pump task for `sub` unless one is already draining it
    /// or it has nothing to send; a stalled `sub` gets the probe
    /// instead. Every way into a stall passes here: the pump hands over
    /// when it spends the window with a push still queued, and a
    /// `publish` can find the window spent by a pump that already ran
    /// dry. A dead subscriber grants nothing, so only the probe reaps it.
    fn kick(&self, sub: &Rc<SubState>) {
        if sub.pumping.get() || sub.dead.get() || sub.pending.borrow().is_empty() {
            return;
        }
        if sub.stalled() {
            self.ensure_probe(sub);
            return;
        }
        sub.pumping.set(true);
        let this = self.clone();
        let sub = Rc::clone(sub);
        let handle = self.inner.fabric.handle().clone();
        handle.spawn_detached(async move { this.pump(sub).await });
    }

    /// Drains one subscription's pending queue while credits last.
    /// Sequential: the next frame goes out only after the previous one
    /// was acknowledged, so the consumer sees seqs in order.
    async fn pump(&self, sub: Rc<SubState>) {
        loop {
            if sub.dead.get() {
                return;
            }
            if sub.stalled() {
                sub.pumping.set(false);
                if let Some(s) = self.series() {
                    s.credit_stalls.incr();
                }
                self.kick(&sub);
                return;
            }
            let Some(frame) = sub.pending.borrow_mut().pop_front() else {
                sub.pumping.set(false);
                return;
            };
            if frame.payload_len.is_some() {
                sub.sent.set(sub.sent.get() + 1);
            }
            if !self.push(&sub, &frame.wire).await {
                return;
            }
            let Some(len) = frame.payload_len else {
                // The consumer has the close: the subscription is over.
                self.remove_sub(sub.sub);
                return;
            };
            *sub.last_wire.borrow_mut() = Some(frame.wire);
            if let Some(s) = self.series() {
                s.frames.incr();
                s.bytes.add(len as u64);
            }
        }
    }

    /// Watches a credit-stalled subscription for silent subscriber
    /// death. Every [`PROBE_INTERVAL`] the last pushed
    /// frame is retransmitted: a live consumer already accepted that
    /// seq, so its dedup path acknowledges without buffering; a dead
    /// consumer fails the call and the subscription is reaped,
    /// releasing the producer it was backpressuring. The probe stands
    /// down as soon as the subscription is no longer stalled.
    fn ensure_probe(&self, sub: &Rc<SubState>) {
        if sub.probing.get() || sub.dead.get() {
            return;
        }
        // Stalling at zero credits implies at least one pushed frame.
        let Some(wire) = sub.last_wire.borrow().clone() else {
            return;
        };
        sub.probing.set(true);
        let this = self.clone();
        let sub = Rc::clone(sub);
        let handle = self.inner.fabric.handle().clone();
        handle.clone().spawn_detached(async move {
            loop {
                handle.sleep(PROBE_INTERVAL).await;
                if sub.dead.get() {
                    return;
                }
                if !sub.stalled() {
                    sub.probing.set(false);
                    this.kick(&sub);
                    return;
                }
                if !this.push(&sub, &wire).await {
                    return;
                }
            }
        });
    }

    /// Sends one frame to `sub`'s consumer through the retried call.
    /// A frame that does not get through, or that the consumer refuses
    /// (a protocol violation), tears the subscription down: returns
    /// whether it was accepted.
    async fn push(&self, sub: &SubState, wire: &Bytes) -> bool {
        let fabric = &self.inner.fabric;
        let (from, to) = (sub.home, sub.consumer);
        let accepted = retried_call(fabric, from, to, &sub.service, wire, || true).await;
        if accepted.is_err() {
            self.remove_sub(sub.sub);
        }
        accepted.is_ok()
    }
}
