//! JSON encoding and decoding of [`Value`].
//!
//! This is the marshaling layer of the REST baseline. It is a complete
//! RFC 8259 implementation: string escapes (including `\uXXXX` surrogate
//! pairs), integer/float distinction, nesting-depth limits, and precise
//! error positions. [`Value::Bytes`] encodes as a base64url string — the
//! textual inflation this forces on binary payloads is one of the concrete
//! overheads the paper's Table 1 calls "object marshaling".

use std::collections::BTreeMap;
use std::fmt;

use crate::hash::hex;
use crate::value::Value;

/// Maximum nesting depth accepted by the parser (stack-safety guard).
pub(crate) const MAX_DEPTH: usize = 128;

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub(crate) offset: usize,
    /// Human-readable description.
    pub(crate) message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Encodes `value` as compact JSON.
///
/// # Examples
///
/// ```
/// use pcsi_proto::{json, Value};
///
/// let v = Value::object([("a", Value::from(1i64)), ("b", Value::from("x\n"))]);
/// assert_eq!(json::encode(&v), r#"{"a":1,"b":"x\n"}"#);
/// ```
pub fn encode(value: &Value) -> String {
    let mut out = String::with_capacity(64);
    encode_into(value, &mut out);
    out
}

/// Encodes `value` into an existing buffer (saves allocation on hot paths).
pub(crate) fn encode_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(v) => {
            let mut buf = itoa_buf();
            out.push_str(format_i64(*v, &mut buf));
        }
        Value::F64(v) => encode_f64(*v, out),
        Value::Str(s) => encode_string(s, out),
        Value::Bytes(b) => {
            grow_for(out, b.len().div_ceil(3) * 4 + 2);
            out.push('"');
            base64_encode_into(b, out);
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_into(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_string(k, out);
                out.push(':');
                encode_into(v, out);
            }
            out.push('}');
        }
    }
}

fn itoa_buf() -> [u8; 20] {
    [0u8; 20]
}

/// Minimal integer formatter (avoids `format!` allocation inside the loop).
fn format_i64(mut v: i64, buf: &mut [u8; 20]) -> &str {
    if v == 0 {
        return "0";
    }
    let negative = v < 0;
    let mut i = buf.len();
    // Work in negative space so i64::MIN does not overflow on negation.
    if !negative {
        v = -v;
    }
    while v != 0 {
        i -= 1;
        buf[i] = b'0' + (-(v % 10)) as u8;
        v /= 10;
    }
    if negative {
        i -= 1;
        buf[i] = b'-';
    }
    // SAFETY-free: all bytes written are ASCII digits or '-'.
    std::str::from_utf8(&buf[i..]).expect("ascii digits")
}

fn encode_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{v}` gives the shortest roundtrippable representation in Rust.
        let s = format!("{v}");
        out.push_str(&s);
        // Ensure floats stay floats across a roundtrip.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Inf; encode as null like most web stacks.
        out.push_str("null");
    }
}

/// Length of the run of bytes at the front of `bytes` that a JSON string
/// carries as they are: everything up to the first `"`, `\` or control
/// character. All of those are ASCII, so a run of a `str` ends on a
/// character boundary.
fn plain_run(bytes: &[u8]) -> usize {
    fn special(b: u8) -> bool {
        b < 0x20 || b == b'"' || b == b'\\'
    }
    // Whole blocks first, each tested without an early exit so that the
    // compiler can test its bytes side by side.
    let mut run = 0;
    for block in bytes.chunks_exact(32) {
        if block.iter().fold(false, |hit, &b| hit | special(b)) {
            break;
        }
        run += block.len();
    }
    let rest = &bytes[run..];
    run + rest.iter().position(|&b| special(b)).unwrap_or(rest.len())
}

/// Makes room for `additional` bytes in one step, at the capacity that
/// doubling would have stopped at. An exact fit would be outgrown by
/// the very next `}` and double then, to nearly twice the size — and
/// these buffers are recycled (`bytes`' pool) into whatever holds the
/// next stored value.
fn grow_for(out: &mut String, additional: usize) {
    let needed = out.len() + additional;
    if needed > out.capacity() {
        out.reserve(needed.next_power_of_two() - out.len());
    }
}

/// Writes `s` quoted and escaped, copying each plain run whole.
fn encode_string(s: &str, out: &mut String) {
    grow_for(out, s.len() + 2);
    out.push('"');
    let mut rest = s;
    loop {
        let run = plain_run(rest.as_bytes());
        out.push_str(&rest[..run]);
        let Some(&special) = rest.as_bytes().get(run) else {
            break;
        };
        match special {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            b => {
                out.push_str("\\u00");
                out.push_str(&hex(&[b]));
            }
        }
        rest = &rest[run + 1..];
    }
    out.push('"');
}

/// Parses a JSON document into a [`Value`].
///
/// Trailing whitespace is allowed; trailing garbage is an error.
///
/// # Examples
///
/// ```
/// use pcsi_proto::{json, Value};
///
/// let v = json::decode(r#"{"n": [1, 2.5, null, true], "s": "three"}"#).unwrap();
/// assert_eq!(v.get("s").unwrap().as_str(), Some("three"));
/// ```
pub fn decode(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal, expected '{lit}'")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            self.pos += plain_run(&self.bytes[start..]);
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: require the low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.err("invalid float"))
        } else {
            // Integers that overflow i64 degrade to f64 (web-stack behaviour).
            match text.parse::<i64>() {
                Ok(v) => Ok(Value::I64(v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::F64)
                    .map_err(|_| self.err("invalid integer")),
            }
        }
    }
}

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Encodes bytes as unpadded base64url.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    base64_encode_into(data, &mut out);
    out
}

fn base64_encode_into(data: &[u8], out: &mut String) {
    fn sextet(n: u32, shift: u32) -> u8 {
        B64_ALPHABET[(n >> shift) as usize & 63]
    }
    // 48 bytes in, 64 characters out per block: whole triples in every
    // block but the last, which alone can end in one or two odd bytes.
    let mut buf = [0u8; 64];
    for block in data.chunks(48) {
        let triples = block.chunks_exact(3);
        let odd = triples.remainder();
        let mut len = 0;
        for (t, quad) in triples.zip(buf.chunks_exact_mut(4)) {
            let n = (u32::from(t[0]) << 16) | (u32::from(t[1]) << 8) | u32::from(t[2]);
            quad.copy_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
            len += 4;
        }
        if let Some(&a) = odd.first() {
            let b = odd.get(1).copied();
            let n = (u32::from(a) << 16) | (u32::from(b.unwrap_or(0)) << 8);
            buf[len..len + 3].copy_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6)]);
            len += if b.is_some() { 3 } else { 2 };
        }
        out.push_str(std::str::from_utf8(&buf[..len]).expect("the base64 alphabet is ASCII"));
    }
}

/// `B64_ALPHABET` inverted: a byte's six-bit value, or `B64_INVALID`.
const B64_REVERSE: [u8; 256] = {
    let mut table = [B64_INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[B64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};
const B64_INVALID: u8 = 0xFF;

/// Decodes unpadded base64url; `None` on invalid input.
pub fn base64_decode(text: &str) -> Option<Vec<u8>> {
    /// The characters' six-bit values, packed big-endian.
    fn sextets(chars: &[u8]) -> Option<u32> {
        let mut n = 0;
        for &c in chars {
            let v = B64_REVERSE[usize::from(c)];
            if v == B64_INVALID {
                return None;
            }
            n = (n << 6) | u32::from(v);
        }
        Some(n)
    }
    let bytes = text.as_bytes();
    if bytes.len() % 4 == 1 {
        return None;
    }
    // Four characters carry three bytes, and a tail of two or three
    // carries one or two: the length is known before the content.
    let mut out = vec![0u8; bytes.len() * 3 / 4];
    let quads = bytes.chunks_exact(4);
    let tail = quads.remainder();
    let (triples, carried) = out.split_at_mut(quads.len() * 3);
    for (quad, triple) in quads.zip(triples.chunks_exact_mut(3)) {
        let n = sextets(quad)?;
        triple.copy_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    if !tail.is_empty() {
        let n = sextets(tail)? << (6 * (4 - tail.len()));
        for (byte, shift) in carried.iter_mut().zip([16, 8]) {
            *byte = (n >> shift) as u8;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn roundtrip(v: &Value) -> Value {
        decode(&encode(v)).expect("roundtrip decode")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(0),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::F64(1.5),
            Value::F64(-0.25),
            Value::Str(String::new()),
            Value::Str("héllo \"world\"\n\t\\ 🦀".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "value {v:?}");
        }
    }

    #[test]
    fn floats_stay_floats() {
        assert_eq!(roundtrip(&Value::F64(2.0)), Value::F64(2.0));
        assert_eq!(encode(&Value::F64(2.0)), "2.0");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(encode(&Value::F64(f64::NAN)), "null");
        assert_eq!(encode(&Value::F64(f64::INFINITY)), "null");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Value::object([
            (
                "list",
                Value::array([Value::I64(1), Value::Str("two".into())]),
            ),
            (
                "inner",
                Value::object([("deep", Value::array([Value::Null]))]),
            ),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn bytes_encode_as_base64_strings() {
        let v = Value::Bytes(Bytes::from_static(b"\x00\x01\xFFhello"));
        let enc = encode(&v);
        let dec = decode(&enc).unwrap();
        let b64 = dec.as_str().expect("decoded as string");
        assert_eq!(base64_decode(b64).unwrap(), b"\x00\x01\xFFhello");
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(decode(r#""Aé🦀""#).unwrap(), Value::Str("Aé🦀".into()));
    }

    #[test]
    fn surrogate_errors_rejected() {
        assert!(decode(r#""\ud83e""#).is_err());
        assert!(decode(r#""\udd80""#).is_err());
        assert!(decode(r#""\ud83eA""#).is_err());
    }

    #[test]
    fn error_positions_reported() {
        let err = decode("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(decode("[1, 2").is_err());
        assert!(decode("").is_err());
        assert!(decode("12 34").unwrap_err().message.contains("trailing"));
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = decode(&deep).unwrap_err();
        assert!(err.message.contains("depth"));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = decode(" \t\n{ \"a\" : [ 1 , 2 ] }\r\n ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn integer_overflow_degrades_to_float() {
        let v = decode("99999999999999999999").unwrap();
        assert!(matches!(v, Value::F64(_)));
    }

    #[test]
    fn base64_roundtrips_all_lengths() {
        for len in 0..32 {
            let data: Vec<u8> = (0..len as u8).collect();
            let enc = base64_encode(&data);
            assert_eq!(base64_decode(&enc).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn base64_rejects_garbage() {
        assert!(base64_decode("!!!").is_none());
        assert!(base64_decode("A").is_none());
    }

    #[test]
    fn control_chars_escaped() {
        let v = Value::Str("\u{01}".into());
        assert_eq!(encode(&v), "\"\\u0001\"");
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = decode(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(2));
    }

    /// The encoder `encode_string` replaced, kept as its oracle: one
    /// `String::push` per `char`.
    fn encode_string_per_char(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// The base64 routines `base64_encode_into` and `base64_decode`
    /// replaced, kept as their oracles: one `push` per output unit and a
    /// `match` per input byte.
    fn base64_encode_per_push(data: &[u8]) -> String {
        let mut out = String::new();
        for chunk in data.chunks(3) {
            let b = [
                chunk[0],
                chunk.get(1).copied().unwrap_or(0),
                chunk.get(2).copied().unwrap_or(0),
            ];
            let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
            out.push(B64_ALPHABET[(n >> 18) as usize & 63] as char);
            out.push(B64_ALPHABET[(n >> 12) as usize & 63] as char);
            if chunk.len() > 1 {
                out.push(B64_ALPHABET[(n >> 6) as usize & 63] as char);
            }
            if chunk.len() > 2 {
                out.push(B64_ALPHABET[n as usize & 63] as char);
            }
        }
        out
    }

    fn base64_decode_per_push(text: &str) -> Option<Vec<u8>> {
        fn val(b: u8) -> Option<u32> {
            match b {
                b'A'..=b'Z' => Some(u32::from(b - b'A')),
                b'a'..=b'z' => Some(u32::from(b - b'a') + 26),
                b'0'..=b'9' => Some(u32::from(b - b'0') + 52),
                b'-' => Some(62),
                b'_' => Some(63),
                _ => None,
            }
        }
        let bytes = text.as_bytes();
        if bytes.len() % 4 == 1 {
            return None;
        }
        let mut out = Vec::new();
        for chunk in bytes.chunks(4) {
            let mut n = 0u32;
            for &b in chunk {
                n = (n << 6) | val(b)?;
            }
            n <<= 6 * (4 - chunk.len());
            out.push((n >> 16) as u8);
            if chunk.len() > 2 {
                out.push((n >> 8) as u8);
            }
            if chunk.len() > 3 {
                out.push(n as u8);
            }
        }
        Some(out)
    }

    fn assert_encodes_as_per_char(s: &str) {
        // A non-empty buffer, so a run copied to the wrong place shows.
        let (mut got, mut want) = (String::from("[1,"), String::from("[1,"));
        encode_string(s, &mut got);
        encode_string_per_char(s, &mut want);
        assert_eq!(got, want, "input {s:?}");
        assert_eq!(decode(&got[3..]).unwrap(), Value::Str(s.into()));
    }

    /// Every character that needs an escape, alone, doubled (an empty
    /// run between two escapes), between one-byte runs, and directly
    /// against two-, three- and four-byte UTF-8 on both sides.
    #[test]
    fn every_escape_matches_the_per_char_encoder_in_every_position() {
        assert_encodes_as_per_char("");
        assert_encodes_as_per_char("plain é 🦀");
        for c in (0u8..0x20).chain([b'"', b'\\', 0x7F]).map(char::from) {
            for s in [
                format!("{c}"),
                format!("{c}{c}"),
                format!("a{c}b{c}c"),
                format!("é{c}€{c}🦀"),
                format!("{c}🦀{c}"),
            ] {
                assert_encodes_as_per_char(&s);
            }
        }
    }

    /// 258 = five whole 48-byte blocks plus a block that ends in every
    /// remainder; each length is checked against the old encoder, the
    /// old decoder and itself.
    #[test]
    fn base64_matches_the_per_push_routines_at_every_length() {
        let data: Vec<u8> = (0..=258u32).map(|i| (i * 131 % 256) as u8).collect();
        for len in 0..=258 {
            let enc = base64_encode(&data[..len]);
            assert_eq!(enc, base64_encode_per_push(&data[..len]), "len {len}");
            assert_eq!(base64_decode(&enc).as_deref(), Some(&data[..len]));
            assert_eq!(base64_decode_per_push(&enc).as_deref(), Some(&data[..len]));
            // Appended to what a buffer already holds, as `encode` does.
            let mut out = String::from("\"");
            base64_encode_into(&data[..len], &mut out);
            assert_eq!(out[1..], enc, "len {len}");
        }
    }

    /// A byte outside the alphabet (ASCII or the first byte of a
    /// two-byte character) at every position of a valid encoding of
    /// every tail shape: `None`, as before, never a panic.
    #[test]
    fn base64_rejects_an_invalid_byte_at_every_position() {
        let data: Vec<u8> = (0..99u8).collect();
        for len in [96, 97, 98, 99] {
            let valid = base64_encode(&data[..len]);
            for at in 0..valid.len() {
                for bad in ["=", "+", "/", " ", "\u{0}", "\u{7f}", "é"] {
                    let text = format!("{}{bad}{}", &valid[..at], &valid[at + 1..]);
                    assert_eq!(base64_decode(&text), None, "len {len} at {at} {bad:?}");
                    assert_eq!(base64_decode_per_push(&text), None);
                }
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Strings dense in control characters, quotes, backslashes
            /// and multi-byte characters, so runs are mostly empty or
            /// one character long.
            #[test]
            fn encode_string_equals_the_per_char_encoder(
                dense in "[\u{0}-\u{1f}\"\\\\aé€🦀]{0,32}",
                any in ".{0,64}",
            ) {
                assert_encodes_as_per_char(&dense);
                assert_encodes_as_per_char(&any);
            }

            /// Arbitrary text, valid or not: the decoders agree, and a
            /// decoded value never outgrows three bytes per four
            /// characters (the capacity it was given).
            #[test]
            fn base64_decode_equals_the_per_push_decoder(
                text in "[A-Za-z0-9_=+/ é-]{0,48}",
                any in ".{0,48}",
                data in proptest::collection::vec(any::<u8>(), 0..300),
            ) {
                for text in [text, any, base64_encode(&data)] {
                    let got = base64_decode(&text);
                    prop_assert_eq!(&got, &base64_decode_per_push(&text));
                    if let Some(bytes) = got {
                        prop_assert!(bytes.len() <= text.len() * 3 / 4);
                    }
                }
                prop_assert_eq!(base64_encode(&data), base64_encode_per_push(&data));
            }
        }
    }
}
