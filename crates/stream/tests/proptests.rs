//! Property-based tests for the streaming protocol's frames.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use pcsi_core::ObjectId;
use pcsi_stream::frame::{
    decode_stream_frame, decode_stream_reply, encode_stream_frame, encode_stream_reply,
    CloseReason, StreamFrame, StreamReply,
};

/// Every [`StreamFrame`] variant.
fn arb_stream_frame() -> impl Strategy<Value = StreamFrame> {
    let id = (any::<u64>(), any::<u64>())
        .prop_map(|(realm, serial)| ObjectId::from_parts(realm, serial));
    let payload = proptest::collection::vec(any::<u8>(), 0..64).prop_map(Bytes::from);
    let reason = prop_oneof![
        Just(CloseReason::Cancelled),
        Just(CloseReason::ObjectClosed),
        Just(CloseReason::SubscriberLost),
    ];
    prop_oneof![
        (id, any::<u64>(), any::<u32>()).prop_map(|(id, sub, window)| StreamFrame::Subscribe {
            id,
            sub,
            window
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(sub, consumed)| StreamFrame::Grant { sub, consumed }),
        (any::<u64>(), any::<u64>(), payload).prop_map(|(seq, ts_ns, payload)| {
            StreamFrame::Push {
                seq,
                ts_ns,
                payload,
            }
        }),
        (any::<u64>(), reason).prop_map(|(sub, reason)| StreamFrame::Close { sub, reason }),
    ]
}

fn arb_stream_reply() -> impl Strategy<Value = StreamReply> {
    prop_oneof![Just(StreamReply::Ok), ".{0,40}".prop_map(StreamReply::Err),]
}

/// Feeds `buf` to both decoders. Returning at all is the no-panic half;
/// the other half is that an accepted frame has no trailing bytes: its
/// re-encoding is exactly as long as the input.
fn decode_both_consuming_everything(buf: &Bytes) -> Result<(), TestCaseError> {
    if let Ok(frame) = decode_stream_frame(buf) {
        prop_assert_eq!(encode_stream_frame(&frame).len(), buf.len());
    }
    if let Ok(reply) = decode_stream_reply(buf) {
        prop_assert_eq!(encode_stream_reply(&reply).len(), buf.len());
    }
    Ok(())
}

proptest! {
    /// Stream frames round-trip exactly through the codec.
    #[test]
    fn wire_stream_frames_roundtrip(frame in arb_stream_frame()) {
        let wire = encode_stream_frame(&frame);
        prop_assert_eq!(decode_stream_frame(&wire).unwrap(), frame);
    }

    /// Stream replies round-trip exactly through the codec.
    #[test]
    fn wire_stream_replies_roundtrip(reply in arb_stream_reply()) {
        let wire = encode_stream_reply(&reply);
        prop_assert_eq!(decode_stream_reply(&wire).unwrap(), reply);
    }

    /// Every proper prefix of a stream frame fails to decode, and
    /// trailing garbage is rejected.
    #[test]
    fn wire_stream_frame_truncation_always_detected(
        frame in arb_stream_frame(),
        junk in any::<u8>(),
    ) {
        let wire = encode_stream_frame(&frame);
        for cut in 0..wire.len() {
            prop_assert!(decode_stream_frame(&wire.slice(..cut)).is_err(), "cut {} decoded", cut);
        }
        let mut extended = wire.to_vec();
        extended.push(junk);
        prop_assert!(decode_stream_frame(&Bytes::from(extended)).is_err());
    }

    /// Arbitrary bytes — what a confused or hostile peer can put on a
    /// stream service — never panic either decoder, and whatever does
    /// decode accounts for every input byte.
    #[test]
    fn wire_stream_decoders_are_total_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        decode_both_consuming_everything(&Bytes::from(raw))?;
    }

    /// One corrupted byte anywhere in a valid frame or reply: both
    /// decoders still return, and a frame that still decodes (as
    /// anything) is consumed whole.
    #[test]
    fn wire_stream_decoders_survive_single_byte_corruption(
        frame in arb_stream_frame(),
        reply in arb_stream_reply(),
        at in any::<u64>(),
        to in any::<u8>(),
    ) {
        for wire in [encode_stream_frame(&frame), encode_stream_reply(&reply)] {
            let mut bytes = wire.to_vec();
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] = to;
            decode_both_consuming_everything(&Bytes::from(bytes))?;
        }
    }
}
