//! Property-based tests for the wire protocols.
//!
//! The codecs are trusted by every layer above them; these properties are
//! the contract: roundtripping is identity, decoding never panics on
//! garbage, and the canonical encodings are deterministic.

use bytes::Bytes;
use proptest::prelude::*;

use pcsi_proto::http::{Method, Request, Response};
use pcsi_proto::sign::{sign_request, verify_request, Credentials, Scope};
use pcsi_proto::sse::{self, Event, SseError};
use pcsi_proto::{binary, hash, json, Value};

/// A strategy producing arbitrary `Value` trees (bounded depth/size).
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        // Finite floats only: JSON cannot carry NaN/Inf.
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::F64),
        ".{0,24}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|v| Value::Bytes(Bytes::from(v))),
    ];
    leaf.prop_recursive(3, 48, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            proptest::collection::btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Value::Object),
        ]
    })
}

/// `Value` equality modulo JSON's lossy spots (bytes become base64
/// strings), used to compare JSON roundtrips.
fn json_normalize(v: &Value) -> Value {
    match v {
        Value::Bytes(b) => Value::Str(json::base64_encode(b)),
        Value::Array(items) => Value::Array(items.iter().map(json_normalize).collect()),
        Value::Object(m) => Value::Object(
            m.iter()
                .map(|(k, v)| (k.clone(), json_normalize(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #[test]
    fn binary_roundtrip_is_identity(v in arb_value()) {
        let wire = binary::encode(&v);
        let back = binary::decode(&wire).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn json_roundtrip_matches_normalized(v in arb_value()) {
        let text = json::encode(&v);
        let back = json::decode(&text).unwrap();
        prop_assert_eq!(back, json_normalize(&v));
    }

    #[test]
    fn json_encoding_is_deterministic(v in arb_value()) {
        prop_assert_eq!(json::encode(&v), json::encode(&v.clone()));
    }

    #[test]
    fn binary_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = binary::decode(&bytes);
    }

    /// `decode` is fed files from disk (the bench snapshots) as well as
    /// request bodies: no input may panic it.
    #[test]
    fn json_decode_never_panics(
        s in ".{0,256}",
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = json::decode(&s);
        // Raw bytes, as far as a `&str` can carry them.
        let _ = json::decode(&String::from_utf8_lossy(&bytes));
        // The same bytes folded onto JSON's own alphabet, so nesting,
        // escapes and numbers are cut off at every possible place.
        const DENSE: &[u8] = b"{}[]\",:\\u/-+.eE0123456789 \ntrufalsn\x01";
        let dense: String = bytes.iter().map(|&b| DENSE[b as usize % DENSE.len()] as char).collect();
        let _ = json::decode(&dense);
    }

    #[test]
    fn http_request_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn base64_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let enc = json::base64_encode(&data);
        prop_assert_eq!(json::base64_decode(&enc).unwrap(), data);
    }

    #[test]
    fn http_request_roundtrip(
        target in "/[a-z0-9/._-]{0,40}",
        body in proptest::collection::vec(any::<u8>(), 0..256),
        header_val in "[ -~]{0,32}",
    ) {
        // Header values must not contain CR/LF (the framer does not do
        // obs-folding); printable ASCII covers the realistic space.
        let hv = header_val.trim();
        let req = Request::new(Method::Post, target.clone())
            .with_header("x-test", hv)
            .with_body(body.clone());
        let back = Request::decode(&req.encode()).unwrap();
        prop_assert_eq!(back.method, Method::Post);
        prop_assert_eq!(back.target, target);
        prop_assert_eq!(&back.body[..], &body[..]);
        prop_assert_eq!(back.headers.get("X-Test"), Some(hv));
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        split in 0usize..1024,
    ) {
        let split = split.min(data.len());
        let mut h = hash::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), hash::Sha256::digest(&data));
    }

    #[test]
    fn sse_event_roundtrip_is_identity(
        id in prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        event in prop_oneof![Just(None), "[a-z-]{1,16}".prop_map(Some)],
        // SSE payloads are event text: no CR, newlines allowed (they
        // split into multiple data: lines and rejoin on decode).
        data in "[^\r]{0,128}",
    ) {
        let ev = Event { id, event, data: Bytes::from(data) };
        let wire = ev.encode();
        let (back, used) = Event::decode(&wire).unwrap();
        prop_assert_eq!(back, ev);
        prop_assert_eq!(used, wire.len());
    }

    #[test]
    fn sse_truncation_always_detected(
        id in any::<u64>(),
        data in "[^\r]{0,64}",
    ) {
        let wire = Event::new(id, Bytes::from(data)).encode();
        for cut in 0..wire.len() {
            prop_assert_eq!(
                Event::decode(&wire[..cut]).unwrap_err(),
                SseError::Truncated
            );
        }
    }

    #[test]
    fn sse_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Event::decode(&bytes);
        let _ = sse::decode_chunk(&bytes);
    }

    #[test]
    fn chunk_roundtrip_and_truncation(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let wire = sse::encode_chunk(&payload);
        let (back, used) = sse::decode_chunk(&wire).unwrap();
        prop_assert_eq!(&back[..], &payload[..]);
        prop_assert_eq!(used, wire.len());
        for cut in 0..wire.len() {
            // A prefix is either recognizably incomplete or — when the
            // cut lands inside a payload that itself contains chunk
            // framing — a shorter valid chunk; it must never decode to
            // the full payload or panic.
            match sse::decode_chunk(&wire[..cut]) {
                Ok((_, u)) => prop_assert!(u <= cut),
                Err(e) => prop_assert_eq!(e, SseError::Truncated),
            }
        }
    }

    #[test]
    fn signatures_verify_and_tampering_is_detected(
        path in "/[a-z0-9/]{1,24}",
        body in proptest::collection::vec(any::<u8>(), 0..128),
        flip in 0usize..128,
    ) {
        let creds = Credentials::new("AK", b"secret".to_vec());
        let scope = Scope::new("r", "s");
        let mut req = Request::new(Method::Put, path).with_body(body.clone());
        sign_request(&mut req, &creds, &scope, 1_000);
        let lookup = |_: &str| Some(creds.clone());
        prop_assert!(verify_request(&req, lookup, &scope, 1_000, 300).is_ok());

        if !body.is_empty() {
            let mut tampered = body.clone();
            let i = flip % tampered.len();
            tampered[i] ^= 0xFF;
            req.body = Bytes::from(tampered);
            prop_assert!(verify_request(&req, lookup, &scope, 1_000, 300).is_err());
        }
    }
}
