//! The PCSI-native compact binary codec.
//!
//! The paper argues providers need "a non-REST implementation of their
//! existing APIs". This codec is the data-plane half of that argument: a
//! length-prefixed, tag-byte binary encoding of [`Value`] that carries
//! bytes verbatim (no base64), needs no quoting or escaping, and decodes
//! without scanning. Benchmarked head-to-head against [`crate::json`] in
//! the Table-1 experiment.
//!
//! Wire grammar (all integers little-endian):
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

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended mid-value.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
    /// String payload was not UTF-8.
    BadUtf8,
    /// Varint longer than 10 bytes.
    BadVarint,
    /// Nesting exceeded `MAX_DEPTH`.
    TooDeep,
    /// Bytes remained after the root value.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated binary value"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            DecodeError::BadUtf8 => f.write_str("invalid UTF-8 in string"),
            DecodeError::BadVarint => f.write_str("malformed varint"),
            DecodeError::TooDeep => f.write_str("nesting too deep"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

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
    let mut buf = BytesMut::with_capacity(estimate(value));
    encode_into(value, &mut buf);
    buf.freeze()
}

fn estimate(value: &Value) -> usize {
    value.payload_size() + 16
}

fn encode_into(value: &Value, out: &mut BytesMut) {
    match value {
        Value::Null => out.extend_from_slice(&[TAG_NULL]),
        Value::Bool(false) => out.extend_from_slice(&[TAG_FALSE]),
        Value::Bool(true) => out.extend_from_slice(&[TAG_TRUE]),
        Value::I64(v) => {
            out.extend_from_slice(&[TAG_I64]);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::F64(v) => {
            out.extend_from_slice(&[TAG_F64]);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Str(s) => {
            out.extend_from_slice(&[TAG_STR]);
            put_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.extend_from_slice(&[TAG_BYTES]);
            put_varint(b.len() as u64, out);
            out.extend_from_slice(b);
        }
        Value::Array(items) => {
            out.extend_from_slice(&[TAG_ARRAY]);
            put_varint(items.len() as u64, out);
            for item in items {
                encode_into(item, out);
            }
        }
        Value::Object(map) => {
            out.extend_from_slice(&[TAG_OBJECT]);
            put_varint(map.len() as u64, out);
            for (k, v) in map {
                put_varint(k.len() as u64, out);
                out.extend_from_slice(k.as_bytes());
                encode_into(v, out);
            }
        }
    }
}

/// Decodes a binary value; the entire input must be consumed.
pub fn decode(input: &[u8]) -> Result<Value, DecodeError> {
    let mut cursor = Cursor { buf: input, pos: 0 };
    let v = cursor.value(0)?;
    if cursor.pos != input.len() {
        return Err(DecodeError::TrailingBytes(input.len() - cursor.pos));
    }
    Ok(v)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            value |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(DecodeError::BadVarint)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.varint()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| DecodeError::BadUtf8)
    }

    fn value(&mut self, depth: usize) -> Result<Value, DecodeError> {
        if depth > MAX_DEPTH {
            return Err(DecodeError::TooDeep);
        }
        match self.byte()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_I64 => {
                let raw = self.take(8)?;
                Ok(Value::I64(i64::from_le_bytes(raw.try_into().unwrap())))
            }
            TAG_F64 => {
                let raw = self.take(8)?;
                Ok(Value::F64(f64::from_le_bytes(raw.try_into().unwrap())))
            }
            TAG_STR => Ok(Value::Str(self.string()?)),
            TAG_BYTES => {
                let len = self.varint()? as usize;
                Ok(Value::Bytes(Bytes::copy_from_slice(self.take(len)?)))
            }
            TAG_ARRAY => {
                let count = self.varint()? as usize;
                let mut items = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            TAG_OBJECT => {
                let count = self.varint()? as usize;
                let mut map = BTreeMap::new();
                for _ in 0..count {
                    let key = self.string()?;
                    let val = self.value(depth + 1)?;
                    map.insert(key, val);
                }
                Ok(Value::Object(map))
            }
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

fn put_varint(mut v: u64, out: &mut BytesMut) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.extend_from_slice(&[byte]);
            return;
        }
        out.extend_from_slice(&[byte | 0x80]);
    }
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
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[TAG_ARRAY]);
        put_varint(1 << 32, &mut buf);
        assert_eq!(decode(&buf), Err(DecodeError::Truncated));
    }
}
