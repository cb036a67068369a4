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
//! ## Exactly-once inside the window
//!
//! Pushes ride [`pcsi_net::Fabric::call`], which can drop or duplicate under
//! injected faults. The owner retries dropped pushes (frames are seq-
//! numbered, so retries are idempotent) and the consumer drops frames it
//! has already accepted, so a subscriber observes each seq exactly once
//! and in order. Terminal failures (subscriber node down, handler gone,
//! retry budget exhausted) cancel the subscription and release its
//! credits and buffers on both sides.
//!
//! ## Fan-out is `Bytes::clone`
//!
//! Push frames carry no subscription id — routing rides the per-
//! subscription fabric service name — so one event is encoded once
//! (into a pooled buffer, see `pcsi-bytes`) and the same frame bytes are
//! shared by every subscriber's queue and every retransmit.

use pcsi_net::Transport;

pub mod frame;
pub mod publisher;
pub mod subscription;

pub use publisher::Publisher;
pub use subscription::{StreamEvent, Subscription};

// Re-exported so kernel-level callers see one streaming vocabulary.
pub use frame::CloseReason;
pub use pcsi_core::PcsiError;

/// Credit window used when a subscriber passes `0`.
pub const DEFAULT_WINDOW: u32 = 32;

/// How many times a dropped push is retried before the owner declares
/// the subscriber lost and cancels the subscription.
pub(crate) const MAX_RETRIES: u32 = 16;

/// Transport pushes and control frames ride on. Streams are part of the
/// provider's internal data plane, so they ride RDMA like FIFO
/// transfers.
pub(crate) const TRANSPORT: Transport = Transport::Rdma;

/// How often a credit-stalled subscription probes its consumer for
/// liveness. A subscriber that dies silently stops granting; with zero
/// credits the pump would otherwise never push again, never discover
/// the death, and backpressure the producer forever. The probe
/// retransmits the last pushed frame: a live consumer dedups it by seq
/// (a cheap ack), a dead one fails the call and the subscription is
/// reaped.
pub const PROBE_INTERVAL: std::time::Duration = std::time::Duration::from_millis(2);

/// Fabric service name for one subscription's push channel, bound on
/// the consumer node. Keeping the subscription id in the *name* (not in
/// push frames) is what makes fan-out encode-once.
pub(crate) fn sub_service(sub: u64) -> String {
    format!("stream-sub:{sub:016x}")
}
