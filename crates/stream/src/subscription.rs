//! Consumer-side streaming: the per-subscription push endpoint, seq
//! dedup, the bounded receive buffer, and credit replenishment.

use std::cell::{Cell, OnceCell};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{ObjectId, PcsiError};
use pcsi_fs::FifoQueue;
use pcsi_metrics::{Histogram, Metrics};
use pcsi_net::{Fabric, NetError, NodeId};

use crate::frame::{
    decode_stream_frame, decode_stream_reply, encode_stream_frame, encode_stream_reply,
    CloseReason, StreamFrame, StreamReply,
};
use crate::{publisher::STREAM_SERVICE, sub_service, TRANSPORT};

/// Retries for lost control frames (grants, closes).
const CONTROL_RETRIES: u32 = 16;
const CONTROL_BACKOFF: Duration = Duration::from_micros(200);

/// One consumed stream event.
#[derive(Debug, Clone)]
pub struct StreamEvent {
    /// Object-global event sequence number.
    pub seq: u64,
    /// Virtual time the producer appended the event, in nanoseconds.
    pub ts_ns: u64,
    /// The event payload (zero-copy view of the received frame).
    pub payload: Bytes,
    /// Append-to-consume latency in virtual time.
    pub latency: Duration,
}

struct SubInner {
    fabric: Fabric,
    sub: u64,
    /// The consumer's node (where the push service is bound).
    node: NodeId,
    /// The object's home node (where control frames go).
    home: NodeId,
    service: String,
    window: u32,
    /// Received-but-unconsumed frames; bounded by the credit window, so
    /// subscriber memory cannot exceed `window` frames by construction.
    buffer: FifoQueue,
    /// Next expected seq; `None` until the first accepted frame.
    expected: Cell<Option<u64>>,
    /// High-water mark of `buffer` (chaos asserts it stays ≤ window).
    peak: Cell<usize>,
    consumed: Cell<u64>,
    /// Frames consumed since the last credit grant.
    ungrant: Cell<u32>,
    closed: Cell<bool>,
    close_reason: Cell<Option<CloseReason>>,
    /// Dedup-dropped duplicate deliveries (fault observability).
    duplicates: Cell<u64>,
    metrics: Option<Metrics>,
    /// Registered on the first delivery, like the publisher's series.
    latency_series: OnceCell<Histogram>,
}

impl SubInner {
    /// Handles one frame arriving on the subscription's push service.
    fn on_frame(&self, frame: &Bytes) -> Bytes {
        let reply = match decode_stream_frame(frame) {
            Ok(StreamFrame::Push { seq, .. }) => {
                if self.closed.get() {
                    StreamReply::Err("subscription closed".into())
                } else {
                    match self.expected.get() {
                        // A retransmit or fault-duplicated delivery of a
                        // frame we already accepted: acknowledge without
                        // buffering, so the subscriber sees each seq once.
                        Some(e) if seq < e => {
                            self.duplicates.set(self.duplicates.get() + 1);
                            StreamReply::Ok
                        }
                        // The pump is sequential, so a skipped seq can
                        // only mean protocol breakage. Refuse: the owner
                        // kills the stream rather than delivering a gap.
                        Some(e) if seq > e => {
                            StreamReply::Err(format!("seq gap: expected {e}, got {seq}"))
                        }
                        _ => match self.buffer.push(frame.clone()) {
                            Ok(()) => {
                                self.expected.set(Some(seq + 1));
                                self.peak.set(self.peak.get().max(self.buffer.len()));
                                StreamReply::Ok
                            }
                            // Over-window push: the owner spent credits
                            // we never granted. Protocol breakage.
                            Err(_) => StreamReply::Err("push exceeded the credit window".into()),
                        },
                    }
                }
            }
            Ok(StreamFrame::Close { reason, .. }) => {
                self.shutdown(reason);
                StreamReply::Ok
            }
            Ok(_) => StreamReply::Err("only push/close frames flow to consumers".into()),
            Err(e) => StreamReply::Err(e.to_string()),
        };
        encode_stream_reply(&reply)
    }

    /// Marks the subscription over and releases the push endpoint.
    /// Buffered frames stay consumable until drained.
    fn shutdown(&self, reason: CloseReason) {
        if self.closed.get() {
            return;
        }
        self.closed.set(true);
        self.close_reason.set(Some(reason));
        self.buffer.close();
        self.fabric.unbind(self.node, &self.service);
    }
}

/// A live subscription: call [`Subscription::next`] to consume events.
///
/// Dropping the handle does **not** cancel the stream (frames keep
/// arriving into the bounded buffer until credits run out); call
/// [`Subscription::cancel`] for an orderly close that releases owner-
/// side state immediately.
pub struct Subscription {
    inner: Rc<SubInner>,
}

impl Subscription {
    /// Opens a subscription: binds the consumer-side push service, then
    /// sends `Subscribe` to the object's home node. `window` must be at
    /// least 1 (callers resolve defaults before getting here).
    pub async fn open(
        fabric: Fabric,
        sub: u64,
        node: NodeId,
        object: ObjectId,
        home: NodeId,
        window: u32,
        metrics: Option<Metrics>,
    ) -> Result<Subscription, PcsiError> {
        if window == 0 {
            return Err(PcsiError::BadPayload("credit window must be ≥ 1".into()));
        }
        let inner = Rc::new(SubInner {
            fabric: fabric.clone(),
            sub,
            node,
            home,
            service: sub_service(sub),
            window,
            buffer: FifoQueue::bounded(window as usize),
            expected: Cell::new(None),
            peak: Cell::new(0),
            consumed: Cell::new(0),
            ungrant: Cell::new(0),
            closed: Cell::new(false),
            close_reason: Cell::new(None),
            duplicates: Cell::new(0),
            metrics,
            latency_series: OnceCell::new(),
        });
        let handler = {
            let inner = Rc::clone(&inner);
            Rc::new(move |frame: Bytes, _ctx: pcsi_net::fabric::CallCtx| {
                let inner = Rc::clone(&inner);
                let fut: pcsi_sim::executor::LocalBoxFuture<Result<Bytes, NetError>> =
                    Box::pin(async move { Ok(inner.on_frame(&frame)) });
                fut
            })
        };
        fabric.bind(node, &inner.service, handler);

        let wire = encode_stream_frame(&StreamFrame::Subscribe {
            id: object,
            sub,
            window,
        });
        let outcome = fabric
            .call(node, home, STREAM_SERVICE, TRANSPORT, wire)
            .await;
        match outcome {
            Ok(reply) => match decode_stream_reply(&reply) {
                Ok(StreamReply::Ok) => Ok(Subscription { inner }),
                Ok(StreamReply::Err(e)) => {
                    fabric.unbind(node, &inner.service);
                    Err(PcsiError::Fault(e))
                }
                Err(e) => {
                    fabric.unbind(node, &inner.service);
                    Err(PcsiError::Fault(e.to_string()))
                }
            },
            Err(e) => {
                fabric.unbind(node, &inner.service);
                Err(PcsiError::Fault(format!("subscribe failed: {e}")))
            }
        }
    }

    /// Consumes the next event, waiting for one to arrive. Returns
    /// `None` once the stream is closed and the buffer is drained.
    pub async fn next(&self) -> Option<StreamEvent> {
        let wire = self.inner.buffer.pop().await.ok()?;
        let Ok(StreamFrame::Push {
            seq,
            ts_ns,
            payload,
        }) = decode_stream_frame(&wire)
        else {
            // Only accepted push frames are buffered.
            return None;
        };
        let now = self.inner.fabric.handle().now().as_nanos();
        let latency = Duration::from_nanos(now.saturating_sub(ts_ns));
        self.record_latency(latency);
        self.inner.consumed.set(self.inner.consumed.get() + 1);

        // Replenish credits in half-window batches: frequent enough that
        // the producer rarely stalls, batched enough that grant traffic
        // stays a small fraction of push traffic. The grant carries the
        // cumulative consumed count, not the batch size — retransmitted
        // or duplicated grants are then idempotent at the owner.
        let ungrant = self.inner.ungrant.get() + 1;
        let threshold = (self.inner.window / 2).max(1);
        if ungrant >= threshold && !self.inner.closed.get() {
            self.inner.ungrant.set(0);
            self.send_control(
                StreamFrame::Grant {
                    sub: self.inner.sub,
                    consumed: self.inner.consumed.get(),
                },
                false,
            );
        } else {
            self.inner.ungrant.set(ungrant);
        }

        Some(StreamEvent {
            seq,
            ts_ns,
            payload,
            latency,
        })
    }

    /// Cancels the subscription: releases the push endpoint, wakes any
    /// blocked [`Subscription::next`], and tells the owner to free its
    /// state (best-effort, retried like every control frame).
    pub fn cancel(&self) {
        if self.inner.closed.get() {
            return;
        }
        self.inner.shutdown(CloseReason::Cancelled);
        self.send_control(
            StreamFrame::Close {
                sub: self.inner.sub,
                reason: CloseReason::Cancelled,
            },
            true,
        );
    }

    /// Simulates the subscriber process dying: the push endpoint
    /// vanishes without telling the owner anything. The owner discovers
    /// it on the next push and releases the subscription (chaos uses
    /// this to exercise crash semantics).
    pub fn kill(&self) {
        self.inner.shutdown(CloseReason::SubscriberLost);
    }

    /// Fire-and-forget control frame to the owner, retried on drops.
    fn send_control(&self, frame: StreamFrame, even_if_closed: bool) {
        let inner = Rc::clone(&self.inner);
        let wire = encode_stream_frame(&frame);
        let handle = self.inner.fabric.handle().clone();
        self.inner.fabric.handle().spawn_detached(async move {
            let mut attempts = 0;
            loop {
                if inner.closed.get() && !even_if_closed {
                    return;
                }
                let outcome = inner
                    .fabric
                    .call(
                        inner.node,
                        inner.home,
                        STREAM_SERVICE,
                        TRANSPORT,
                        wire.clone(),
                    )
                    .await;
                match outcome {
                    Ok(_) => return,
                    Err(NetError::Dropped(..)) => {
                        attempts += 1;
                        if attempts > CONTROL_RETRIES {
                            return;
                        }
                        handle.sleep(CONTROL_BACKOFF).await;
                    }
                    Err(_) => return,
                }
            }
        });
    }

    fn record_latency(&self, latency: Duration) {
        if let Some(m) = &self.inner.metrics {
            self.inner
                .latency_series
                .get_or_init(|| m.histogram("stream.frame_latency_ns", &[]))
                .record_duration(latency);
        }
    }

    /// The credit window (also the receive-buffer bound).
    pub fn window(&self) -> u32 {
        self.inner.window
    }

    /// Events consumed so far.
    pub fn consumed(&self) -> u64 {
        self.inner.consumed.get()
    }

    /// High-water mark of the receive buffer, in frames. Never exceeds
    /// [`Subscription::window`] — the bounded-memory claim chaos pins.
    pub fn peak_buffered(&self) -> usize {
        self.inner.peak.get()
    }

    /// Duplicate deliveries the seq dedup discarded.
    pub fn duplicates(&self) -> u64 {
        self.inner.duplicates.get()
    }

    /// True once a close frame arrived or the subscription was
    /// cancelled (buffered events may remain consumable).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.get()
    }

    /// Why the stream ended, once closed.
    pub fn close_reason(&self) -> Option<CloseReason> {
        self.inner.close_reason.get()
    }
}
