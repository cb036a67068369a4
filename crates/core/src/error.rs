//! The PCSI error vocabulary.
//!
//! Every fallible interface operation returns `Result<_, PcsiError>`; the
//! variants are the "errno" set of the system. Unlike POSIX errno, errors
//! carry enough structure to be actionable programmatically (which object,
//! which rights were missing, which transition was rejected).
//!
//! An error crosses a PCSI-native wire (a replica's reply, a stream
//! receiver's refusal) in the one form [`PcsiError::encode`] writes, a
//! code byte and its fields, all integers little-endian:
//!
//! ```text
//! error := 0x00 id                      NotFound
//!        | 0x01 id level text           MutabilityViolation
//!        | 0x02 level level             InvalidMutabilityTransition
//!        | 0x03 u32 u32                 QuorumUnavailable (needed, got)
//!        | 0x04 text                    Fault
//!        | 0x05 text                    BadPayload
//! id    := u128
//! level := u8 (see Mutability::encode)
//! text  := u32(len) utf8-bytes
//! ```

use std::fmt;

use pcsi_proto::binary::{DecodeError, Prefix::U32 as LEN, Reader, Writer};

use crate::id::ObjectId;
use crate::mutability::Mutability;
use crate::rights::Rights;

/// Errors surfaced by the Portable Cloud System Interface.
#[derive(Debug, Clone, PartialEq)]
pub enum PcsiError {
    /// The object does not exist (or was reclaimed by the GC).
    NotFound(ObjectId),
    /// The reference lacks required rights.
    AccessDenied {
        /// Target object.
        id: ObjectId,
        /// Rights the operation needed.
        needed: Rights,
        /// Rights the reference held.
        held: Rights,
    },
    /// The requested mutability change violates Figure 1.
    InvalidMutabilityTransition {
        /// Current level.
        from: Mutability,
        /// Requested level.
        to: Mutability,
    },
    /// A write/append/resize conflicts with the object's mutability level.
    MutabilityViolation {
        /// Target object.
        id: ObjectId,
        /// Its current level.
        level: Mutability,
        /// The operation that was rejected (e.g. `"write"`).
        op: &'static str,
    },
    /// The operation does not apply to this object kind (e.g. reading a
    /// directory as a byte stream).
    WrongKind {
        /// Target object.
        id: ObjectId,
        /// What the operation expected.
        expected: &'static str,
        /// What the object actually is.
        actual: &'static str,
    },
    /// Directory entry already exists.
    AlreadyExists(String),
    /// Path or directory-entry name not found during resolution.
    NameNotFound(String),
    /// A quorum could not be assembled (too many replicas unreachable).
    QuorumUnavailable {
        /// Responses needed.
        needed: usize,
        /// Responses obtained before the deadline.
        got: usize,
    },
    /// The operation timed out.
    Timeout,
    /// A single peer could not be reached (message dropped, node down,
    /// link partitioned). Unlike [`PcsiError::QuorumUnavailable`] this says
    /// nothing about the quorum as a whole — a retry (possibly against a
    /// different replica) may well succeed.
    Unreachable(String),
    /// A function invocation failed inside the function body.
    FunctionFailed(String),
    /// No implementation variant of a function satisfies the request
    /// (e.g. no variant fits the latency goal).
    NoViableVariant(String),
    /// Admission control rejected the request (overload / quota).
    Overloaded(String),
    /// Attempted capability amplification or use of a revoked reference.
    InvalidReference(String),
    /// The payload was malformed (codec errors crossing the interface).
    BadPayload(String),
    /// Catch-all for substrate faults injected by tests.
    Fault(String),
}

impl fmt::Display for PcsiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcsiError::NotFound(id) => write!(f, "object {id:?} not found"),
            PcsiError::AccessDenied { id, needed, held } => write!(
                f,
                "access denied on {id:?}: needed {needed}, reference holds {held}"
            ),
            PcsiError::InvalidMutabilityTransition { from, to } => {
                write!(f, "mutability transition {from} -> {to} not allowed")
            }
            PcsiError::MutabilityViolation { id, level, op } => {
                write!(f, "cannot {op} {id:?}: object is {level}")
            }
            PcsiError::WrongKind {
                id,
                expected,
                actual,
            } => write!(f, "{id:?} is a {actual}, operation needs a {expected}"),
            PcsiError::AlreadyExists(name) => write!(f, "entry {name:?} already exists"),
            PcsiError::NameNotFound(name) => write!(f, "name {name:?} not found"),
            PcsiError::QuorumUnavailable { needed, got } => {
                write!(f, "quorum unavailable: needed {needed}, got {got}")
            }
            PcsiError::Timeout => f.write_str("operation timed out"),
            PcsiError::Unreachable(msg) => write!(f, "peer unreachable: {msg}"),
            PcsiError::FunctionFailed(msg) => write!(f, "function failed: {msg}"),
            PcsiError::NoViableVariant(msg) => write!(f, "no viable variant: {msg}"),
            PcsiError::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            PcsiError::InvalidReference(msg) => write!(f, "invalid reference: {msg}"),
            PcsiError::BadPayload(msg) => write!(f, "bad payload: {msg}"),
            PcsiError::Fault(msg) => write!(f, "substrate fault: {msg}"),
        }
    }
}

impl std::error::Error for PcsiError {}

impl PcsiError {
    /// True for errors a client can sensibly retry (transient overload,
    /// timeouts, unreachable peers, missing quorum).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            PcsiError::Timeout
                | PcsiError::Unreachable(_)
                | PcsiError::QuorumUnavailable { .. }
                | PcsiError::Overloaded(_)
                | PcsiError::Fault(_)
        )
    }

    /// Writes the error's wire form (module docs). The six variants a
    /// peer sends have a code of their own and arrive as themselves.
    /// Every other variant (`AccessDenied`, `WrongKind`, `AlreadyExists`,
    /// `NameNotFound`, `Timeout`, `Unreachable`, `FunctionFailed`,
    /// `NoViableVariant`, `Overloaded`, `InvalidReference`) is written
    /// as a `Fault` with its display text: no replica or stream
    /// receiver answers with one.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            PcsiError::NotFound(id) => {
                w.u8(0);
                w.u128(id.as_u128());
            }
            PcsiError::MutabilityViolation { id, level, op } => {
                w.u8(1);
                w.u128(id.as_u128());
                level.encode(w);
                w.str(LEN, op);
            }
            PcsiError::InvalidMutabilityTransition { from, to } => {
                w.u8(2);
                from.encode(w);
                to.encode(w);
            }
            PcsiError::QuorumUnavailable { needed, got } => {
                w.u8(3);
                w.u32(*needed as u32);
                w.u32(*got as u32);
            }
            PcsiError::Fault(msg) => {
                w.u8(4);
                w.str(LEN, msg);
            }
            PcsiError::BadPayload(msg) => {
                w.u8(5);
                w.str(LEN, msg);
            }
            other => {
                w.u8(4);
                w.str(LEN, &other.to_string());
            }
        }
    }

    /// Reads an error written by [`PcsiError::encode`]. A violation's
    /// operation comes back as `"write"`, `"append"` or `"resize"`, and
    /// as `"mutate"` for any other text.
    pub fn decode(r: &mut Reader) -> Result<PcsiError, DecodeError> {
        Ok(match r.u8()? {
            0 => PcsiError::NotFound(ObjectId::from_u128(r.u128()?)),
            1 => PcsiError::MutabilityViolation {
                id: ObjectId::from_u128(r.u128()?),
                level: Mutability::decode(r)?,
                op: match r.str(LEN)?.as_str() {
                    "write" => "write",
                    "append" => "append",
                    "resize" => "resize",
                    _ => "mutate",
                },
            },
            2 => PcsiError::InvalidMutabilityTransition {
                from: Mutability::decode(r)?,
                to: Mutability::decode(r)?,
            },
            3 => PcsiError::QuorumUnavailable {
                needed: r.u32()? as usize,
                got: r.u32()? as usize,
            },
            4 => PcsiError::Fault(r.str(LEN)?),
            5 => PcsiError::BadPayload(r.str(LEN)?),
            b => return Err(DecodeError::BadTag(b)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let id = ObjectId::from_parts(1, 1);
        let e = PcsiError::AccessDenied {
            id,
            needed: Rights::WRITE,
            held: Rights::READ,
        };
        let text = e.to_string();
        assert!(text.contains("WRITE") && text.contains("READ"), "{text}");
    }

    #[test]
    fn retryability_classification() {
        assert!(PcsiError::Timeout.is_retryable());
        assert!(PcsiError::Unreachable("link dropped".into()).is_retryable());
        assert!(PcsiError::QuorumUnavailable { needed: 2, got: 1 }.is_retryable());
        assert!(PcsiError::Overloaded("busy".into()).is_retryable());
        assert!(!PcsiError::NotFound(ObjectId::NIL).is_retryable());
        assert!(!PcsiError::InvalidMutabilityTransition {
            from: Mutability::Immutable,
            to: Mutability::Mutable
        }
        .is_retryable());
    }
}
