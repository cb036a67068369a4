//! Owner-side streaming: subscription registry, per-subscription
//! bounded buffers, and the credit-gated pump that pushes frames
//! through the fabric.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use fxhash::FxHashMap;
use pcsi_core::{ObjectId, PcsiError};
use pcsi_metrics::{Counter, Metrics};
use pcsi_net::fabric::{CallCtx, NetError};
use pcsi_net::{Fabric, NodeId};

use crate::frame::{
    decode_stream_frame, decode_stream_reply, encode_stream_frame, encode_stream_reply,
    CloseReason, StreamFrame, StreamReply,
};
use crate::{sub_service, DEFAULT_WINDOW, MAX_RETRIES, PROBE_INTERVAL, TRANSPORT};

/// Fabric service (bound on every node) that accepts subscribe, grant
/// and close frames for objects homed there.
pub(crate) const STREAM_SERVICE: &str = "pcsi-stream";

/// Pause between retransmits of a dropped push.
const RETRY_BACKOFF: Duration = Duration::from_micros(200);

/// One frame queued for one subscription. `wire` is shared — the same
/// `Bytes` across all subscribers of the event and all retransmits.
struct PendingFrame {
    wire: Bytes,
    payload_len: usize,
    is_close: bool,
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
    /// Credits remaining: the window minus frames in flight or sitting
    /// unconsumed in the subscriber's buffer.
    fn credits_left(&self) -> u64 {
        u64::from(self.window).saturating_sub(self.sent.get() - self.acked.get())
    }
}

/// Per-object stream head: the global event sequence and who listens.
#[derive(Default)]
struct ObjectStream {
    next_seq: Cell<u64>,
    subs: RefCell<Vec<u64>>,
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
    objects: RefCell<FxHashMap<ObjectId, Rc<ObjectStream>>>,
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
                Rc::new(move |frame, ctx| {
                    let p = p2.clone();
                    Box::pin(async move { Ok(p.handle_control(&frame, ctx)) })
                }),
            );
        }
        p
    }

    /// Allocates a subscription id for a consumer on `node`. Allocation
    /// is publisher-wide, so ids are unique per kernel and reproduce
    /// deterministically per simulation.
    pub fn alloc_sub(&self, node: NodeId) -> u64 {
        let n = self.inner.next_sub.get();
        self.inner.next_sub.set(n + 1);
        (u64::from(node.0) << 48) | n
    }

    /// True when `id` has at least one live subscription — the signal
    /// that flips a FIFO from pull mode to push fan-out.
    pub fn has_subscribers(&self, id: ObjectId) -> bool {
        self.inner
            .objects
            .borrow()
            .get(&id)
            .is_some_and(|o| !o.subs.borrow().is_empty())
    }

    /// Live subscription count for `id` (tests and reports).
    pub fn subscriber_count(&self, id: ObjectId) -> usize {
        self.inner
            .objects
            .borrow()
            .get(&id)
            .map_or(0, |o| o.subs.borrow().len())
    }

    /// Fans one event out to every subscriber of `id`.
    ///
    /// The frame is encoded **once**; each subscription queues a clone
    /// of the same `Bytes`. Backpressure is all-or-nothing: if any
    /// subscriber's pending buffer is full (its consumer has fallen a
    /// whole credit window behind), the append fails with a retryable
    /// [`PcsiError::Overloaded`] and no subscriber sees the event —
    /// credit flow control throttles the producer to the slowest
    /// consumer.
    pub fn publish(&self, id: ObjectId, payload: Bytes, ts_ns: u64) -> Result<u64, PcsiError> {
        let (seq, targets) = {
            let objects = self.inner.objects.borrow();
            let Some(obj) = objects.get(&id) else {
                return Err(PcsiError::NotFound(id));
            };
            let subs = self.inner.subs.borrow();
            let targets: Vec<Rc<SubState>> = obj
                .subs
                .borrow()
                .iter()
                .filter_map(|s| subs.get(s).cloned())
                .collect();
            for sub in &targets {
                if sub.pending.borrow().len() >= sub.window as usize {
                    return Err(PcsiError::Overloaded(format!(
                        "stream backpressure: subscriber {:#x} is {} frames behind",
                        sub.sub, sub.window
                    )));
                }
            }
            let seq = obj.next_seq.get();
            obj.next_seq.set(seq + 1);
            (seq, targets)
        };
        let wire = encode_stream_frame(&StreamFrame::Push {
            seq,
            ts_ns,
            payload: payload.clone(),
        });
        for sub in targets {
            sub.pending.borrow_mut().push_back(PendingFrame {
                wire: wire.clone(),
                payload_len: payload.len(),
                is_close: false,
            });
            self.kick(&sub);
        }
        Ok(seq)
    }

    /// Ends every subscription on `id` (object deleted or closed). The
    /// close frame queues *behind* in-flight pushes, so subscribers
    /// drain everything already published before they see the end.
    pub fn close_object(&self, id: ObjectId) {
        let sub_ids = match self.inner.objects.borrow_mut().remove(&id) {
            Some(obj) => obj.subs.borrow().clone(),
            None => return,
        };
        for sub_id in sub_ids {
            let Some(sub) = self.inner.subs.borrow().get(&sub_id).cloned() else {
                continue;
            };
            let wire = encode_stream_frame(&StreamFrame::Close {
                sub: sub_id,
                reason: CloseReason::ObjectClosed,
            });
            sub.pending.borrow_mut().push_back(PendingFrame {
                wire,
                payload_len: 0,
                is_close: true,
            });
            self.kick(&sub);
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
            Ok(StreamFrame::Push { .. }) => {
                StreamReply::Err("push frames flow owner→consumer only".into())
            }
            Err(e) => StreamReply::Err(e.to_string()),
        };
        encode_stream_reply(&reply)
    }

    fn register(
        &self,
        object: ObjectId,
        sub: u64,
        window: u32,
        consumer: NodeId,
        home: NodeId,
    ) -> StreamReply {
        let window = if window == 0 { DEFAULT_WINDOW } else { window };
        if self.inner.subs.borrow().contains_key(&sub) {
            return StreamReply::Err(format!("subscription {sub:#x} already exists"));
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
        self.inner.subs.borrow_mut().insert(sub, state);
        self.inner
            .objects
            .borrow_mut()
            .entry(object)
            .or_default()
            .subs
            .borrow_mut()
            .push(sub);
        if let Some(s) = self.series() {
            s.subscriptions.incr();
        }
        StreamReply::Ok
    }

    fn grant(&self, sub: u64, consumed: u64) -> StreamReply {
        let Some(state) = self.inner.subs.borrow().get(&sub).cloned() else {
            return StreamReply::Err(format!("no subscription {sub:#x}"));
        };
        // Monotone: a stale, reordered, or retransmitted report can
        // only be ignored, never double-counted.
        state.acked.set(state.acked.get().max(consumed));
        self.kick(&state);
        StreamReply::Ok
    }

    /// Tears a subscription down and releases its buffers and credits.
    fn remove_sub(&self, sub: u64) {
        let removed = self.inner.subs.borrow_mut().remove(&sub);
        if let Some(state) = removed {
            state.dead.set(true);
            state.pending.borrow_mut().clear();
            if let Some(obj) = self.inner.objects.borrow().get(&state.object) {
                obj.subs.borrow_mut().retain(|&s| s != sub);
            }
            if let Some(s) = self.series() {
                s.closes.incr();
            }
        }
    }

    /// Starts a pump task for `sub` unless one is already draining it.
    fn kick(&self, sub: &Rc<SubState>) {
        if sub.pumping.get() || sub.dead.get() || sub.pending.borrow().is_empty() {
            return;
        }
        if sub.credits_left() == 0 && !sub.pending.borrow().front().is_some_and(|f| f.is_close) {
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
            let frame = {
                let mut pending = sub.pending.borrow_mut();
                match pending.front() {
                    None => {
                        sub.pumping.set(false);
                        return;
                    }
                    // Close frames spend no credit: teardown must not
                    // deadlock on an exhausted window.
                    Some(f) if !f.is_close && sub.credits_left() == 0 => {
                        sub.pumping.set(false);
                        if let Some(s) = self.series() {
                            s.credit_stalls.incr();
                        }
                        self.ensure_probe(&sub);
                        return;
                    }
                    Some(_) => pending.pop_front().expect("front checked"),
                }
            };
            if !frame.is_close {
                sub.sent.set(sub.sent.get() + 1);
            }
            if !self.push_one(&sub, &frame).await {
                // push_one already tore the subscription down.
                return;
            }
            if frame.is_close {
                self.remove_sub(sub.sub);
                return;
            }
            *sub.last_wire.borrow_mut() = Some(frame.wire.clone());
            if let Some(s) = self.series() {
                s.frames.incr();
                s.bytes.add(frame.payload_len as u64);
            }
        }
    }

    /// Watches a credit-stalled subscription for silent subscriber
    /// death. Every [`PROBE_INTERVAL`] the last pushed
    /// frame is retransmitted: a live consumer already accepted that
    /// seq, so its dedup path acknowledges without buffering; a dead
    /// consumer fails the call and [`Publisher::push_one`] reaps the
    /// subscription, releasing the producer it was backpressuring. The
    /// probe stands down as soon as credits flow again.
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
                if sub.credits_left() > 0 || sub.pending.borrow().is_empty() {
                    sub.probing.set(false);
                    this.kick(&sub);
                    return;
                }
                let probe = PendingFrame {
                    wire: wire.clone(),
                    payload_len: 0,
                    is_close: false,
                };
                if !this.push_one(&sub, &probe).await {
                    // push_one already reaped the subscription.
                    return;
                }
            }
        });
    }

    /// Delivers one frame, retrying drops (idempotent: the consumer
    /// dedups by seq). Returns false after tearing the subscription
    /// down on terminal failure.
    async fn push_one(&self, sub: &Rc<SubState>, frame: &PendingFrame) -> bool {
        let fabric = self.inner.fabric.clone();
        let handle = fabric.handle().clone();
        let mut attempts = 0;
        loop {
            let outcome = fabric
                .call(
                    sub.home,
                    sub.consumer,
                    &sub.service,
                    TRANSPORT,
                    frame.wire.clone(),
                )
                .await;
            match outcome {
                Ok(reply) => match decode_stream_reply(&reply) {
                    Ok(StreamReply::Ok) => return true,
                    // The consumer refused the frame (or the reply was
                    // garbled): protocol violation, kill the stream.
                    _ => {
                        self.remove_sub(sub.sub);
                        return false;
                    }
                },
                Err(NetError::Dropped(..)) => {
                    attempts += 1;
                    if attempts > MAX_RETRIES {
                        self.remove_sub(sub.sub);
                        return false;
                    }
                    handle.sleep(RETRY_BACKOFF).await;
                }
                // Subscriber crashed, got partitioned away, or unbound
                // its service: release its credits and buffers.
                Err(_) => {
                    self.remove_sub(sub.sub);
                    return false;
                }
            }
        }
    }
}
