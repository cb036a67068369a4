#![forbid(unsafe_code)]
//! Cross-node streaming for FIFO and socket objects.
//!
//! The paper's universal storage interface makes queues and sockets
//! first-class objects ("everything is a file", §2.1), but a node-local
//! queue only helps consumers that poll it. This crate adds the push
//! half: a consumer anywhere in the topology opens a *subscription* on a
//! FIFO/socket through its namespace, and the object's home node pushes
//! every appended message through the fabric as it arrives.
//!
//! ## Credit-based flow control
//!
//! The consumer opens with a credit `window` (its own buffer bound). The
//! owner spends one credit per pushed frame and stalls when credits run
//! out; the consumer returns credits in batches as it consumes. Memory
//! is therefore bounded end to end: the owner buffers at most `window`
//! frames per subscription, the consumer at most `window` frames, and a
//! producer that outruns the slowest subscriber gets a retryable
//! [`PcsiError::Overloaded`] instead of unbounded growth.
//!
//! ## One lifecycle
//!
//! Every frame (subscribe, grant, close, push, stall probe) crosses the
//! fabric through one retried call, and each is idempotent at its
//! receiver: a repeated subscribe is accepted once, grants are
//! cumulative, and consumers dedup pushes by seq, so each seq arrives
//! exactly once and in order. A subscribe that still fails withdraws
//! itself with a best-effort close; a push that fails for good cancels
//! the subscription on both sides. A FIFO numbers queued and streamed
//! messages from one sequence.
//!
//! ## Fan-out is `Bytes::clone`
//!
//! Push frames carry no subscription id — routing rides the per-
//! subscription fabric service name — so one event is encoded once
//! (into a pooled buffer, see `pcsi-bytes`) and the same frame bytes are
//! shared by every subscriber's queue and every retransmit.

use std::time::Duration;

use bytes::Bytes;
use pcsi_net::{Fabric, NetError, NodeId, Transport};

use crate::frame::{decode_stream_reply, StreamReply};

pub mod frame;
pub mod publisher;
pub mod subscription;

pub use publisher::Publisher;
pub use subscription::{StreamEvent, Subscription};

// Re-exported so kernel-level callers see one streaming vocabulary.
pub use frame::CloseReason;
pub use pcsi_core::PcsiError;

/// How many times a dropped frame is retransmitted before its sender
/// gives up.
const MAX_RETRIES: u32 = 16;

/// Pause between retransmits of a dropped frame.
const RETRY_BACKOFF: Duration = Duration::from_micros(200);

/// How often a credit-stalled subscription probes its consumer for
/// liveness. A subscriber that dies silently stops granting; with zero
/// credits the pump would otherwise never push again, never discover
/// the death, and backpressure the producer forever. The probe
/// retransmits the last pushed frame: a live consumer dedups it by seq
/// (a cheap ack), a dead one fails the call and the subscription is
/// reaped.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(2);

/// Fabric service name for one subscription's push channel, bound on
/// the consumer node. Keeping the subscription id in the *name* (not in
/// push frames) is what makes fan-out encode-once.
pub(crate) fn sub_service(sub: u64) -> String {
    format!("stream-sub:{sub:016x}")
}

/// The one way a stream frame crosses the fabric: `wire` from `from` to
/// `service` on `to`, over RDMA (streams are the provider's internal
/// data plane, like FIFO transfers). A dropped frame is retransmitted up
/// to [`MAX_RETRIES`] times, [`RETRY_BACKOFF`] apart, while `go_on`
/// holds (asked before every attempt); any other failure is final.
/// `Ok` means the receiver accepted the frame.
pub(crate) async fn retried_call(
    fabric: &Fabric,
    from: NodeId,
    to: NodeId,
    service: &str,
    wire: &Bytes,
    go_on: impl Fn() -> bool,
) -> Result<(), PcsiError> {
    let mut retries = 0;
    loop {
        if !go_on() {
            return Err(PcsiError::Fault("stream frame withdrawn".into()));
        }
        match fabric
            .call(from, to, service, Transport::Rdma, wire.clone())
            .await
        {
            Ok(reply) => {
                return match decode_stream_reply(&reply) {
                    Ok(StreamReply::Ok) => Ok(()),
                    Ok(StreamReply::Err(refused)) => Err(refused),
                    Err(garbled) => Err(PcsiError::Fault(garbled.to_string())),
                }
            }
            Err(NetError::Dropped(..)) if retries < MAX_RETRIES => {
                retries += 1;
                fabric.handle().sleep(RETRY_BACKOFF).await;
            }
            Err(e) => return Err(PcsiError::Fault(e.to_string())),
        }
    }
}
