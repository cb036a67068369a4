//! Concurrent operation histories.
//!
//! An [`Op`] is one register operation a client made, with its
//! invoke/response interval in virtual time. The client records it: it
//! stamps `invoke` before the call and `response` after. Register values
//! are `u64`s carried as 8 little-endian bytes, so workloads write
//! encoded payloads and decode what reads observed.

use bytes::Bytes;
use pcsi_core::ObjectId;
use pcsi_net::NodeId;
use pcsi_sim::SimTime;

/// Encodes a register value as its 8-byte little-endian payload.
pub(crate) fn encode_value(v: u64) -> Bytes {
    Bytes::from(v.to_le_bytes().to_vec())
}

/// Decodes a register payload; `None` unless it is exactly 8 bytes.
pub(crate) fn decode_value(data: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = data.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// What a recorded operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A whole-register write. `ok` is false when the client saw an
    /// error — the write may still have taken effect at the primary
    /// (the quorum can be lost *after* the primary applied), so failed
    /// writes linearize optionally.
    Write {
        /// Value written.
        value: u64,
        /// Whether the client received an acknowledgement.
        ok: bool,
    },
    /// A register read; `None` when the read failed (observed nothing).
    Read {
        /// Value observed.
        value: Option<u64>,
    },
}

/// One operation in a concurrent history.
#[derive(Debug, Clone)]
pub struct Op {
    /// Node the operation originated from.
    pub client: NodeId,
    /// Object operated on.
    pub object: ObjectId,
    /// What happened.
    pub kind: OpKind,
    /// Invocation instant.
    pub invoke: SimTime,
    /// Response instant.
    pub response: SimTime,
}

impl Op {
    /// Stable single-line rendering (fingerprints, failure reports).
    pub fn render(&self) -> String {
        let what = match self.kind {
            OpKind::Write { value, ok } => {
                format!("W v={value:#x} {}", if ok { "ok" } else { "err" })
            }
            OpKind::Read { value: Some(v) } => format!("R v={v:#x}"),
            OpKind::Read { value: None } => "R err".to_owned(),
        };
        format!(
            "client={} obj={} {what} [{}, {}]ns",
            self.client,
            self.object,
            self.invoke.as_nanos(),
            self.response.as_nanos()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(decode_value(&encode_value(v)), Some(v));
        }
        assert_eq!(decode_value(b"short"), None);
        assert_eq!(decode_value(b"nine bytes"), None);
    }

    #[test]
    fn op_render_is_stable() {
        let op = Op {
            client: NodeId(3),
            object: ObjectId::from_parts(5, 9),
            kind: OpKind::Write {
                value: 0x10,
                ok: true,
            },
            invoke: SimTime::from_nanos(100),
            response: SimTime::from_nanos(250),
        };
        let r = op.render();
        assert!(r.contains("W v=0x10 ok"), "{r}");
        assert!(r.contains("[100, 250]ns"), "{r}");
    }
}
