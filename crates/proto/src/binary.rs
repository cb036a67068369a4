//! The PCSI-native compact binary codec, and the one frame cursor.
//!
//! The paper argues providers need "a non-REST implementation of their
//! existing APIs". This module is the data-plane half of that argument:
//! a [`Writer`] / [`Reader`] pair — fixed-width little-endian integers,
//! varints, length-prefixed bytes and strings carried verbatim (no
//! base64, no quoting, no scanning) — under every binary protocol in the
//! workspace: replication frames (`pcsi_store::wire`), streaming frames
//! (`pcsi_stream::frame`), the NFS baseline's ops, stored function
//! images and directories, and the [`Value`] encoding below. One cursor
//! means one truncation check, one rule for a declared count
//! ([`Reader::count`]) and one trailing-bytes check ([`Reader::finish`]).
//!
//! [`Value`] wire grammar (all integers little-endian):
//!
//! ```text
//! value   := tag payload
//! tag     := 0x00 null | 0x01 false | 0x02 true | 0x03 i64 | 0x04 f64
//!          | 0x05 str | 0x06 bytes | 0x07 array | 0x08 object
//! str     := varint(len) utf8-bytes
//! bytes   := varint(len) raw-bytes
//! array   := varint(count) value*
//! object  := varint(count) (str value)*
//! ```

use std::collections::BTreeMap;
use std::fmt;

use bytes::{Bytes, BytesMut};

use crate::value::Value;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_I64: u8 = 0x03;
const TAG_F64: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_BYTES: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

/// Maximum nesting depth accepted by the decoder.
pub(crate) const MAX_DEPTH: usize = 128;

/// Decoding errors: what [`Reader`] reports, plus the two a protocol
/// adds on top of it (an unknown discriminant, a [`Value`] nested too
/// deep). Each protocol maps this into the error type it returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended mid-field, or a declared length or count exceeds the
    /// bytes that are left.
    Truncated,
    /// Unknown tag (discriminant) byte.
    BadTag(u8),
    /// String payload was not UTF-8.
    BadUtf8,
    /// Varint longer than 10 bytes.
    BadVarint,
    /// Nesting exceeded `MAX_DEPTH`.
    TooDeep,
    /// Bytes remained after the frame.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated binary frame"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            DecodeError::BadUtf8 => f.write_str("invalid UTF-8 in string"),
            DecodeError::BadVarint => f.write_str("malformed varint"),
            DecodeError::TooDeep => f.write_str("nesting too deep"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// How a length or a count is written ahead of what it counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefix {
    /// Two bytes, little-endian.
    U16,
    /// Four bytes, little-endian.
    U32,
    /// LEB128, one to ten bytes.
    Varint,
}

/// Builds one frame in a pooled buffer.
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// An empty frame with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Appends `b` as it is.
    #[inline]
    fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends `v` as a LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    /// Appends a length or count `n`. A fixed-width prefix keeps the low
    /// bytes of an `n` it cannot hold.
    #[inline]
    pub fn count(&mut self, prefix: Prefix, n: usize) {
        match prefix {
            Prefix::U16 => self.u16(n as u16),
            Prefix::U32 => self.u32(n as u32),
            Prefix::Varint => self.varint(n as u64),
        }
    }

    /// Appends `b` behind its length.
    #[inline]
    pub fn bytes(&mut self, prefix: Prefix, b: &[u8]) {
        self.count(prefix, b.len());
        self.raw(b);
    }

    /// Appends `s` behind its length in bytes.
    #[inline]
    pub fn str(&mut self, prefix: Prefix, s: &str) {
        self.bytes(prefix, s.as_bytes());
    }

    /// The finished frame.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Bounds-checked cursor over a received frame.
///
/// Over a `&Bytes` frame ([`Reader::new`]) the payload fields that
/// [`Reader::bytes`] returns are zero-copy [`Bytes::slice`] views sharing
/// the frame's backing buffer — decoding a 1 MiB `PutFull` moves no
/// payload bytes. Over a plain slice ([`Reader::over`]) they are copies.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    frame: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `frame`.
    pub fn new(frame: &'a Bytes) -> Self {
        Reader {
            buf: frame,
            pos: 0,
            frame: Some(frame),
        }
    }

    /// A cursor at the start of a borrowed slice.
    pub fn over(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            frame: None,
        }
    }

    /// Bytes not yet read.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// A LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            value |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(DecodeError::BadVarint)
    }

    /// A declared length or count of items that take at least `min_item`
    /// bytes each on the wire. A count the remaining bytes cannot hold is
    /// refused here, so what a caller reserves for it is bounded by the
    /// input's length, whatever the frame claims.
    #[inline]
    pub fn count(&mut self, prefix: Prefix, min_item: usize) -> Result<usize, DecodeError> {
        let n = match prefix {
            Prefix::U16 => u64::from(self.u16()?),
            Prefix::U32 => u64::from(self.u32()?),
            Prefix::Varint => self.varint()?,
        };
        if n.saturating_mul(min_item as u64) > self.remaining() as u64 {
            return Err(DecodeError::Truncated);
        }
        Ok(n as usize)
    }

    /// A length-prefixed payload: a view of the frame when there is one,
    /// a copy otherwise.
    #[inline]
    pub fn bytes(&mut self, prefix: Prefix) -> Result<Bytes, DecodeError> {
        let len = self.count(prefix, 1)?;
        let start = self.pos;
        let raw = self.take(len)?;
        Ok(match self.frame {
            Some(frame) => frame.slice(start..start + len),
            None => Bytes::copy_from_slice(raw),
        })
    }

    /// A length-prefixed UTF-8 string, copied once from the frame.
    pub fn str(&mut self, prefix: Prefix) -> Result<String, DecodeError> {
        let len = self.count(prefix, 1)?;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| DecodeError::BadUtf8)
    }

    /// Ends the frame: anything left unread is an error.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

/// The fixed-width little-endian fields, one writer and one reader each.
macro_rules! fixed_width {
    ($($ty:ident),*) => {
        impl Writer {$(
            #[doc = concat!("Appends a little-endian `", stringify!($ty), "`.")]
            #[inline]
            pub fn $ty(&mut self, v: $ty) {
                self.raw(&v.to_le_bytes());
            }
        )*}
        impl Reader<'_> {$(
            #[doc = concat!("A little-endian `", stringify!($ty), "`.")]
            #[inline]
            pub fn $ty(&mut self) -> Result<$ty, DecodeError> {
                Ok($ty::from_le_bytes(self.array()?))
            }
        )*}
    };
}
fixed_width!(u8, u16, u32, u64, u128, i64, f64);

/// Encodes `value` to its binary form.
///
/// # Examples
///
/// ```
/// use pcsi_proto::{binary, Value};
///
/// let v = Value::array([Value::from(1i64), Value::from("two")]);
/// let wire = binary::encode(&v);
/// assert_eq!(binary::decode(&wire).unwrap(), v);
/// ```
pub fn encode(value: &Value) -> Bytes {
    let mut w = Writer::with_capacity(value.payload_size() + 16);
    write_value(&mut w, value);
    w.finish()
}

fn write_value(w: &mut Writer, value: &Value) {
    match value {
        Value::Null => w.u8(TAG_NULL),
        Value::Bool(false) => w.u8(TAG_FALSE),
        Value::Bool(true) => w.u8(TAG_TRUE),
        Value::I64(v) => {
            w.u8(TAG_I64);
            w.i64(*v);
        }
        Value::F64(v) => {
            w.u8(TAG_F64);
            w.f64(*v);
        }
        Value::Str(s) => {
            w.u8(TAG_STR);
            w.str(Prefix::Varint, s);
        }
        Value::Bytes(b) => {
            w.u8(TAG_BYTES);
            w.bytes(Prefix::Varint, b);
        }
        Value::Array(items) => {
            w.u8(TAG_ARRAY);
            w.count(Prefix::Varint, items.len());
            for item in items {
                write_value(w, item);
            }
        }
        Value::Object(map) => {
            w.u8(TAG_OBJECT);
            w.count(Prefix::Varint, map.len());
            for (k, v) in map {
                w.str(Prefix::Varint, k);
                write_value(w, v);
            }
        }
    }
}

/// Decodes a binary value; the entire input must be consumed.
pub fn decode(input: &[u8]) -> Result<Value, DecodeError> {
    let mut r = Reader::over(input);
    let v = read_value(&mut r, 0)?;
    r.finish()?;
    Ok(v)
}

fn read_value(r: &mut Reader, depth: usize) -> Result<Value, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    Ok(match r.u8()? {
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_I64 => Value::I64(r.i64()?),
        TAG_F64 => Value::F64(r.f64()?),
        TAG_STR => Value::Str(r.str(Prefix::Varint)?),
        TAG_BYTES => Value::Bytes(r.bytes(Prefix::Varint)?),
        TAG_ARRAY => {
            // Grown as items arrive, not reserved from the count: every
            // level of nesting could claim the whole remaining input.
            let mut items = Vec::new();
            for _ in 0..r.count(Prefix::Varint, 1)? {
                items.push(read_value(r, depth + 1)?);
            }
            Value::Array(items)
        }
        TAG_OBJECT => {
            let mut map = BTreeMap::new();
            for _ in 0..r.count(Prefix::Varint, 2)? {
                let key = r.str(Prefix::Varint)?;
                map.insert(key, read_value(r, depth + 1)?);
            }
            Value::Object(map)
        }
        t => return Err(DecodeError::BadTag(t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        decode(&encode(v)).expect("roundtrip")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::I64(0),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::F64(std::f64::consts::PI),
            Value::Str("héllo 🦀".into()),
            Value::Bytes(Bytes::from_static(&[0, 1, 2, 255])),
        ] {
            assert_eq!(roundtrip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let wire = encode(&Value::F64(f64::NAN));
        match decode(&wire).unwrap() {
            Value::F64(v) => assert!(v.is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn nested_roundtrip() {
        let v = Value::object([
            ("xs", Value::array((0..100).map(Value::I64))),
            (
                "blob",
                Value::Bytes(Bytes::from((0..=255u8).collect::<Vec<_>>())),
            ),
            ("meta", Value::object([("ok", Value::Bool(true))])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn binary_payload_is_verbatim_and_compact() {
        let payload = vec![0xAB; 1024];
        let v = Value::Bytes(Bytes::from(payload.clone()));
        let wire = encode(&v);
        // Tag + 2-byte varint + payload: no inflation, unlike base64 JSON.
        assert_eq!(wire.len(), 1 + 2 + 1024);
        let json = crate::json::encode(&v);
        assert!(json.len() > 1300, "JSON length {}", json.len());
        assert!(wire[3..].iter().all(|&b| b == 0xAB));
    }

    /// The bytes of a nested value as the parent of the shared cursor
    /// wrote them: moving the codec onto it changed no frame.
    #[test]
    fn a_nested_value_encodes_to_the_pinned_bytes() {
        let v = Value::object([
            ("xs", Value::array([Value::I64(-2), Value::from("two")])),
            ("blob", Value::Bytes(Bytes::from_static(&[0, 255]))),
            (
                "meta",
                Value::object([
                    ("ok", Value::Bool(true)),
                    ("half", Value::F64(0.5)),
                    ("none", Value::Null),
                ]),
            ),
        ]);
        assert_eq!(
            crate::hash::hex(&encode(&v)),
            "080304626c6f62060200ff046d65746108030468616c6604000000000000e03f046e6f6e6500026f6b\
             02027873070203feffffffffffffff050374776f"
        );
    }

    #[test]
    fn truncation_detected_everywhere() {
        let v = Value::object([("k", Value::Str("value".into()))]);
        let wire = encode(&v);
        for cut in 0..wire.len() {
            assert!(
                decode(&wire[..cut]).is_err(),
                "prefix of length {cut} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut wire = encode(&Value::Null).to_vec();
        wire.push(0x00);
        assert_eq!(decode(&wire), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn bad_tag_detected() {
        assert_eq!(decode(&[0x7F]), Err(DecodeError::BadTag(0x7F)));
    }

    #[test]
    fn bad_utf8_detected() {
        // TAG_STR, len 2, invalid UTF-8.
        assert_eq!(decode(&[TAG_STR, 2, 0xFF, 0xFE]), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn depth_limit_enforced() {
        let mut wire = Vec::new();
        for _ in 0..(MAX_DEPTH + 2) {
            wire.push(TAG_ARRAY);
            wire.push(1);
        }
        wire.push(TAG_NULL);
        assert_eq!(decode(&wire), Err(DecodeError::TooDeep));
    }

    #[test]
    fn varint_boundaries() {
        for len in [0usize, 1, 127, 128, 300, 16_384] {
            let v = Value::Bytes(Bytes::from(vec![7u8; len]));
            assert_eq!(roundtrip(&v), v, "len {len}");
        }
    }

    #[test]
    fn oversized_varint_rejected() {
        let wire = [
            TAG_BYTES, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
        ];
        assert_eq!(decode(&wire), Err(DecodeError::BadVarint));
    }

    #[test]
    fn huge_declared_array_fails_cleanly() {
        // Claims 2^32 elements but provides none: must error, not OOM.
        let mut w = Writer::with_capacity(8);
        w.u8(TAG_ARRAY);
        w.varint(1 << 32);
        assert_eq!(decode(&w.finish()), Err(DecodeError::Truncated));
    }
}
