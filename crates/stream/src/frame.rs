//! Frames of the cross-node subscription protocol, over the workspace's
//! one frame cursor ([`pcsi_proto::binary`]): push frames are built in
//! pooled buffers and a decoded payload is a zero-copy view of the
//! received frame. They travel on their own fabric services, so their
//! op codes are their own.

use bytes::Bytes;
use pcsi_core::ObjectId;
use pcsi_proto::binary::{DecodeError, Prefix::U32 as LEN, Reader, Writer};

/// Why a subscription ended, carried in [`StreamFrame::Close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The subscriber cancelled voluntarily.
    Cancelled,
    /// The streamed object was closed or deleted at the owner.
    ObjectClosed,
    /// The owner gave up on an unreachable subscriber.
    SubscriberLost,
}

/// Frames of the cross-node subscription protocol (PCSI streaming).
///
/// [`StreamFrame::Push`] deliberately does **not** carry a subscription
/// id: per-subscription routing rides the fabric service name, so one
/// encoded push frame is byte-identical for every subscriber of the
/// same event and fan-out is `Bytes::clone` per peer, not re-encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFrame {
    /// Consumer → owner: open a subscription on a FIFO/socket object.
    Subscribe {
        /// The streamed object.
        id: ObjectId,
        /// Subscription id, allocated by the consumer (unique per
        /// consumer node).
        sub: u64,
        /// Initial credit window: the owner may push this many frames
        /// before stalling for a [`StreamFrame::Grant`].
        window: u32,
    },
    /// Consumer → owner: report consumption, replenishing credits.
    ///
    /// Carries the **cumulative** consumed count rather than an
    /// increment, so a grant retransmitted after a dropped reply (or
    /// fault-duplicated in flight) is idempotent: the owner takes the
    /// max, and credits can never inflate past what the consumer
    /// actually drained. Incremental grants double-apply under exactly
    /// those faults and let the owner overrun the consumer's buffer.
    Grant {
        /// Target subscription.
        sub: u64,
        /// Total frames the consumer has consumed since subscribing.
        consumed: u64,
    },
    /// Owner → consumer: one streamed event.
    Push {
        /// Event sequence number (contiguous per subscription).
        seq: u64,
        /// Virtual-time nanoseconds when the producer appended the
        /// event — the consumer derives per-frame latency from it.
        ts_ns: u64,
        /// The event payload.
        payload: Bytes,
    },
    /// Either direction: the subscription is over.
    Close {
        /// Target subscription.
        sub: u64,
        /// Why it ended.
        reason: CloseReason,
    },
}

/// Acknowledgement for subscribe/grant/push/close deliveries.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamReply {
    /// Accepted.
    Ok,
    /// Rejected (unknown object, wrong kind, unknown subscription...),
    /// with the reason as text.
    Err(String),
}

/// Follows a rejection's op byte: the store wire's code for a free-text
/// error, the only kind these replies carry. It stays so reply frames
/// are the bytes peers already speak.
const ERR_TEXT: u8 = 4;

/// Encodes a stream frame.
pub fn encode_stream_frame(frame: &StreamFrame) -> Bytes {
    let mut w = Writer::with_capacity(64);
    match frame {
        StreamFrame::Subscribe { id, sub, window } => {
            w.u8(0);
            w.u128(id.as_u128());
            w.u64(*sub);
            w.u32(*window);
        }
        StreamFrame::Grant { sub, consumed } => {
            w.u8(1);
            w.u64(*sub);
            w.u64(*consumed);
        }
        StreamFrame::Push {
            seq,
            ts_ns,
            payload,
        } => {
            w.u8(2);
            w.u64(*seq);
            w.u64(*ts_ns);
            w.bytes(LEN, payload);
        }
        StreamFrame::Close { sub, reason } => {
            w.u8(3);
            w.u64(*sub);
            w.u8(match reason {
                CloseReason::Cancelled => 0,
                CloseReason::ObjectClosed => 1,
                CloseReason::SubscriberLost => 2,
            });
        }
    }
    w.finish()
}

/// Decodes a stream frame. The push payload comes back as a zero-copy
/// view of `buf`'s backing buffer.
pub fn decode_stream_frame(buf: &Bytes) -> Result<StreamFrame, DecodeError> {
    let mut r = Reader::new(buf);
    let frame = match r.u8()? {
        0 => StreamFrame::Subscribe {
            id: ObjectId::from_u128(r.u128()?),
            sub: r.u64()?,
            window: r.u32()?,
        },
        1 => StreamFrame::Grant {
            sub: r.u64()?,
            consumed: r.u64()?,
        },
        2 => StreamFrame::Push {
            seq: r.u64()?,
            ts_ns: r.u64()?,
            payload: r.bytes(LEN)?,
        },
        3 => StreamFrame::Close {
            sub: r.u64()?,
            reason: match r.u8()? {
                0 => CloseReason::Cancelled,
                1 => CloseReason::ObjectClosed,
                2 => CloseReason::SubscriberLost,
                b => return Err(DecodeError::BadTag(b)),
            },
        },
        b => return Err(DecodeError::BadTag(b)),
    };
    r.finish()?;
    Ok(frame)
}

/// Encodes a stream reply.
pub fn encode_stream_reply(reply: &StreamReply) -> Bytes {
    let mut w = Writer::with_capacity(64);
    match reply {
        StreamReply::Ok => w.u8(0),
        StreamReply::Err(msg) => {
            w.u8(1);
            w.u8(ERR_TEXT);
            w.str(LEN, msg);
        }
    }
    w.finish()
}

/// Decodes a stream reply.
pub fn decode_stream_reply(buf: &Bytes) -> Result<StreamReply, DecodeError> {
    let mut r = Reader::new(buf);
    let reply = match r.u8()? {
        0 => StreamReply::Ok,
        1 => match r.u8()? {
            ERR_TEXT => StreamReply::Err(r.str(LEN)?),
            b => return Err(DecodeError::BadTag(b)),
        },
        b => return Err(DecodeError::BadTag(b)),
    };
    r.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_proto::hash::hex;

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_parts(2, n)
    }

    /// The bytes the store's codec wrote for these frames before they
    /// moved here: a peer built from the parent commit reads them still.
    #[test]
    fn frames_encode_to_the_pinned_bytes() {
        let push = StreamFrame::Push {
            seq: 41,
            ts_ns: 123_456_789,
            payload: Bytes::from_static(b"event"),
        };
        assert_eq!(
            hex(&encode_stream_frame(&push)),
            "02290000000000000015cd5b0700000000050000006576656e74"
        );
        let refused = StreamReply::Err("no such subscription".into());
        assert_eq!(
            hex(&encode_stream_reply(&refused)),
            "0104140000006e6f207375636820737562736372697074696f6e"
        );
    }

    #[test]
    fn stream_frames_roundtrip() {
        let frames = vec![
            StreamFrame::Subscribe {
                id: oid(7),
                sub: 0x0001_0000_0000_002a,
                window: 16,
            },
            StreamFrame::Grant {
                sub: 9,
                consumed: 8,
            },
            StreamFrame::Push {
                seq: 41,
                ts_ns: 123_456_789,
                payload: Bytes::from_static(b"2026-08-08 event"),
            },
            StreamFrame::Push {
                seq: 0,
                ts_ns: 0,
                payload: Bytes::new(),
            },
            StreamFrame::Close {
                sub: 9,
                reason: CloseReason::Cancelled,
            },
            StreamFrame::Close {
                sub: 10,
                reason: CloseReason::ObjectClosed,
            },
            StreamFrame::Close {
                sub: 11,
                reason: CloseReason::SubscriberLost,
            },
        ];
        for f in frames {
            let wire = encode_stream_frame(&f);
            assert_eq!(decode_stream_frame(&wire).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn stream_replies_roundtrip() {
        let replies = vec![
            StreamReply::Ok,
            StreamReply::Err(String::new()),
            StreamReply::Err("no such subscription".into()),
        ];
        for rep in replies {
            let wire = encode_stream_reply(&rep);
            assert_eq!(decode_stream_reply(&wire).unwrap(), rep, "{rep:?}");
        }
    }

    #[test]
    fn stream_frame_truncation_detected() {
        let frames = vec![
            StreamFrame::Subscribe {
                id: oid(7),
                sub: 1,
                window: 4,
            },
            StreamFrame::Push {
                seq: 2,
                ts_ns: 3,
                payload: Bytes::from_static(b"payload"),
            },
            StreamFrame::Close {
                sub: 1,
                reason: CloseReason::SubscriberLost,
            },
        ];
        for f in frames {
            let wire = encode_stream_frame(&f);
            for cut in 0..wire.len() {
                assert!(
                    decode_stream_frame(&wire.slice(..cut)).is_err(),
                    "{f:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn stream_frame_junk_rejected() {
        // Unknown frame op.
        assert!(decode_stream_frame(&Bytes::from_static(&[99])).is_err());
        // Unknown close reason.
        let mut close = encode_stream_frame(&StreamFrame::Close {
            sub: 1,
            reason: CloseReason::Cancelled,
        })
        .to_vec();
        *close.last_mut().unwrap() = 77;
        assert!(decode_stream_frame(&Bytes::from(close)).is_err());
        // Trailing bytes.
        let mut wire = encode_stream_frame(&StreamFrame::Grant {
            sub: 1,
            consumed: 1,
        })
        .to_vec();
        wire.push(0);
        assert!(decode_stream_frame(&Bytes::from(wire)).is_err());
        // Replies: bad op, an error code other than text, trailing bytes.
        assert!(decode_stream_reply(&Bytes::from_static(&[9])).is_err());
        assert!(decode_stream_reply(&Bytes::from_static(&[1, 0, 0, 0, 0, 0])).is_err());
        let mut rep = encode_stream_reply(&StreamReply::Ok).to_vec();
        rep.push(0);
        assert!(decode_stream_reply(&Bytes::from(rep)).is_err());
    }

    #[test]
    fn push_payload_is_zero_copy() {
        let wire = encode_stream_frame(&StreamFrame::Push {
            seq: 1,
            ts_ns: 2,
            payload: Bytes::from_static(b"shared-view"),
        });
        let StreamFrame::Push { payload, .. } = decode_stream_frame(&wire).unwrap() else {
            panic!("wrong frame");
        };
        // The decoded payload must view the wire buffer, not copy it.
        let wire_ptr = wire.as_ptr() as usize;
        let payload_ptr = payload.as_ptr() as usize;
        assert!(payload_ptr >= wire_ptr && payload_ptr < wire_ptr + wire.len());
    }
}
