//! Every binary decoder in the workspace reads through one cursor
//! (`pcsi_proto::binary::Reader`), so one property covers them all:
//! whatever bytes a peer or a client sends — noise, or a valid frame
//! whose count or length field claims 4 GiB — a decoder refuses or
//! accepts without panicking, and what it takes from the heap on the way
//! is bounded by the length of the input, not by what the input claims.
//! A byte-counting global allocator (per thread, so the harness's own
//! threads do not leak into the count) holds them to it. The NFS
//! baseline's decoders are private to `pcsi_cloud::nfs`; they are the
//! same `u32`-prefixed fields and have their forged-length test there.

use bytes::Bytes;
use pcsi_core::{Mutability, ObjectId, PcsiError, Rights};
use pcsi_faas::{FunctionImage, Variant, WorkModel};
use pcsi_fs::{DirEntry, Directory};
use pcsi_proto::binary::{self, Prefix, Writer};
use pcsi_proto::Value;
use pcsi_store::engine::StoredObject;
use pcsi_store::wire::{self, Request, Response};
use pcsi_store::Tag;
use pcsi_stream::frame::{self, StreamFrame, StreamReply};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::bytes;

/// A decoder by name; `true` when it accepted the input.
type Decoder = (&'static str, fn(&Bytes) -> bool);

const DECODERS: [Decoder; 8] = [
    ("store request", |b| wire::decode_request(b).is_ok()),
    ("store response", |b| wire::decode_response(b).is_ok()),
    ("stream frame", |b| frame::decode_stream_frame(b).is_ok()),
    ("stream reply", |b| frame::decode_stream_reply(b).is_ok()),
    ("function image", |b| FunctionImage::decode(b).is_ok()),
    ("directory", |b| Directory::decode(b).is_ok()),
    ("directory find", |b| Directory::find(b, "a").is_ok()),
    ("value", |b| binary::decode(b).is_ok()),
];

/// Heap bytes a decoder may take per input byte, and on top of that for
/// the error it builds. The worst honest case sets the factor: a one-byte
/// `null` becomes a whole [`Value`] in a vector that doubles as it
/// grows, a three-byte object entry a B-tree leaf.
const PER_INPUT_BYTE: u64 = 256;
const FLAT: u64 = 1024;

/// Runs every decoder over `input`; returns which accepted it.
fn decode_within_bound(input: &Bytes) -> Result<Vec<&'static str>, TestCaseError> {
    let mut accepted = Vec::new();
    for (name, decode) in DECODERS {
        let before = bytes();
        let ok = decode(input);
        let taken = bytes() - before;
        prop_assert!(
            taken <= FLAT + PER_INPUT_BYTE * input.len() as u64,
            "{} took {} heap bytes for {} input bytes",
            name,
            taken,
            input.len()
        );
        if ok {
            accepted.push(name);
        }
    }
    Ok(accepted)
}

/// A valid frame of every protocol, with the decoder that reads it and
/// the offset of each `u32` count or length field in it.
fn frames() -> Vec<(&'static str, Bytes, Vec<usize>)> {
    let tag = Tag { seq: 4, writer: 1 };
    let object = StoredObject {
        data: Bytes::from_static(b"state"),
        tag,
        mutability: Mutability::Mutable,
        stable_len: 5,
    };
    let push = wire::encode_request(&Request::Push {
        id: ObjectId::from_parts(2, 1),
        object: object.clone(),
        reqs: vec![(7, tag), (9, tag)],
    });
    let inventory = wire::encode_response(&Response::InventoryIs {
        entries: vec![(ObjectId::from_parts(2, 1), tag)],
    });
    let refused = wire::encode_response(&Response::Err(PcsiError::Fault("boom".into())));
    let event = frame::encode_stream_frame(&StreamFrame::Push {
        seq: 1,
        ts_ns: 2,
        payload: Bytes::from_static(b"event"),
    });
    let reply = frame::encode_stream_reply(&StreamReply::Err(PcsiError::Fault(
        "no such subscription".into(),
    )));
    let mut image = FunctionImage::simple("f", WorkModel::fixed(Default::default()), 1);
    image.variants.push(Variant::wasm(1));
    let mut dir = Directory::new();
    dir.link("a", DirEntry::new(ObjectId::from_parts(8, 1), Rights::READ))
        .expect("a valid name");
    vec![
        // [op][id 16][tag 12][mutability][stable_len 8] | len, data, count.
        ("store request", push, vec![38, 38 + 4 + 5]),
        ("store response", inventory, vec![1]),
        ("store response", refused, vec![2]),
        ("stream frame", event, vec![17]),
        ("stream reply", reply, vec![2]),
        // [name_len 2]["f"][fixed 8][per_byte 8] | count.
        ("function image", image.encode(), vec![19]),
        ("directory", dir.encode(), vec![0]),
        ("directory find", dir.encode(), vec![0]),
    ]
}

proptest! {
    /// Arbitrary bytes: no decoder panics or takes more heap than the
    /// input's length allows.
    #[test]
    fn noise_costs_no_more_than_its_length(
        raw in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        decode_within_bound(&Bytes::from(raw))?;
    }

    /// Four `0xFF` bytes written anywhere over a valid frame: the same
    /// bound, and where they land on a count or a length the frame's own
    /// decoder refuses it.
    #[test]
    fn a_forged_count_is_refused_before_anything_is_reserved_for_it(at in any::<usize>()) {
        for (decoder, frame, fields) in frames() {
            let sweep = at % (frame.len() - 3);
            for at in fields.iter().copied().chain([sweep]) {
                let mut forged = frame.to_vec();
                forged[at..at + 4].fill(0xFF);
                let accepted = decode_within_bound(&Bytes::from(forged))?;
                if fields.contains(&at) {
                    prop_assert!(!accepted.contains(&decoder), "{} at {}", decoder, at);
                }
            }
        }
    }
}

/// A [`Value`] counts with varints, and nests: an array or an object
/// that declares `u32::MAX` items is refused, and a nest in which every
/// level declares as many items as bytes remain — a count that passes
/// the check at each of 100 levels — has nothing reserved for it.
#[test]
fn a_value_cannot_reserve_by_declaring() {
    for tag in [0x07, 0x08] {
        let mut w = Writer::with_capacity(8);
        w.u8(tag);
        w.varint(u64::from(u32::MAX));
        let accepted = decode_within_bound(&w.finish()).expect("within the bound");
        assert!(accepted.is_empty(), "{accepted:?}");
    }
    let mut nest = vec![0x00];
    for _ in 0..100 {
        let mut w = Writer::with_capacity(nest.len() + 4);
        w.u8(0x07);
        w.bytes(Prefix::Varint, &nest);
        nest = w.finish().to_vec();
    }
    let accepted = decode_within_bound(&Bytes::from(nest)).expect("within the bound");
    assert!(accepted.is_empty(), "{accepted:?}");
    // The bound is not vacuous: an honest array of nulls costs what it
    // holds, which is more than the flat allowance.
    let honest = binary::encode(&Value::array((0..4096).map(|_| Value::Null)));
    let before = bytes();
    binary::decode(&honest).expect("an honest array decodes");
    assert!(bytes() - before > FLAT);
}
