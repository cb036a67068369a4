#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pcsi-proto — wire protocols, implemented for real
//!
//! The paper's Table 1 attributes most of the web-service overhead to
//! protocol work: object marshaling, HTTP framing, and per-request
//! authentication. To *measure* those rows rather than assume them, this
//! crate contains byte-level implementations of:
//!
//! * a self-describing [`value::Value`] data model shared by all codecs,
//! * a JSON encoder/decoder ([`json`]) — the REST baseline's marshaling,
//! * an HTTP/1.1 request/response framer and parser ([`http`]),
//! * SHA-256, HMAC-SHA256 and hex ([`hash`]) plus a SigV4-style request
//!   signature scheme ([`sign`]) — the REST baseline's stateless
//!   per-request access-control check,
//! * a compact length-prefixed binary codec ([`binary`]) — the PCSI-native
//!   alternative the paper argues for,
//! * Server-Sent Events framing plus HTTP chunked transfer encoding
//!   ([`sse`]) — the REST *streaming* baseline's per-event framing.
//!
//! Everything here is deterministic, allocation-conscious, and free of
//! third-party dependencies (apart from [`bytes`]) so Table 1's measured
//! rows and the `benchmark/` probes measure *this* code, not a library.

pub mod binary;
pub mod hash;
pub mod http;
pub mod json;
pub mod sign;
pub mod sse;
pub mod value;

pub use value::Value;
