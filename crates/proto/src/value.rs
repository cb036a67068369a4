//! The self-describing data model shared by every codec.
//!
//! [`Value`] plays the role `serde_json::Value` would play, but is owned by
//! this crate so the JSON and binary codecs can be benchmarked as pure
//! functions of it. Object keys live in a [`BTreeMap`] so encodings are
//! deterministic (required for request signing and for reproducible
//! simulations).

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;

/// A dynamically typed value, the payload unit of every protocol here.
///
/// # Examples
///
/// ```
/// use pcsi_proto::Value;
///
/// let v = Value::object([
///     ("id", Value::from(7i64)),
///     ("name", Value::from("weights")),
/// ]);
/// assert_eq!(v.get("id").and_then(Value::as_i64), Some(7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer (kept apart from `F64` for lossless ids).
    I64(i64),
    /// A double-precision float.
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// Raw bytes. JSON encodes these as base64url strings; the binary codec
    /// carries them verbatim (one of the paper's marshaling complaints).
    Bytes(Bytes),
    /// An ordered list.
    Array(Vec<Value>),
    /// A string-keyed map with deterministic (sorted) iteration order.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Array(items.into_iter().collect())
    }

    /// Field lookup on objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Returns the integer if this is `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float if this is `F64` (or a lossless view of `I64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string if this is `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the bool if this is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the array if this is `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the map if this is `Object`.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Approximate in-memory payload size in bytes, used by the simulator to
    /// charge serialization and transmission time.
    pub(crate) fn payload_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::I64(_) | Value::F64(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::Array(v) => v.iter().map(Value::payload_size).sum::<usize>() + 2 * v.len(),
            Value::Object(m) => m.iter().map(|(k, v)| k.len() + v.payload_size() + 4).sum(),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::I64(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Bytes> for Value {
    fn from(v: Bytes) -> Self {
        Value::Bytes(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(Bytes::from(v))
    }
}

impl fmt::Display for Value {
    /// Displays as compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::json::encode(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        let v = Value::object([
            ("b", Value::from(true)),
            ("i", Value::from(5i64)),
            ("f", Value::from(1.5)),
            ("s", Value::from("hi")),
            ("a", Value::array([Value::Null])),
        ]);
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("i").unwrap().as_i64(), Some(5));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("a"), Some(&Value::array([Value::Null])));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("x"), None);
    }

    #[test]
    fn i64_views_as_f64() {
        assert_eq!(Value::I64(3).as_f64(), Some(3.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn payload_size_scales_with_content() {
        let small = Value::from("ab");
        let big = Value::Bytes(Bytes::from(vec![0u8; 1024]));
        assert_eq!(small.payload_size(), 2);
        assert_eq!(big.payload_size(), 1024);
        let obj = Value::object([("k", big)]);
        assert!(obj.payload_size() > 1024);
    }

    #[test]
    fn object_keys_iterate_sorted() {
        let v = Value::object([("z", Value::Null), ("a", Value::Null), ("m", Value::Null)]);
        let keys: Vec<_> = v.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }
}
