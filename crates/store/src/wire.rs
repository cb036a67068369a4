//! The storage replication protocol codec.
//!
//! Replica traffic is encoded with a compact binary format (fixed-width
//! ids and tags, varint-free u32 lengths) rather than the JSON/HTTP
//! stack — this *is* the "non-REST implementation of existing APIs" the
//! paper says providers need at minimum (§2.1). Keeping it byte-accurate
//! also makes message sizes feed the fabric's bandwidth model honestly.
//!
//! This module owns the frames — [`Request`], [`Response`],
//! [`WireError`] and the store's field types (ids, tags, mutations, full
//! replica states). The bytes are read and written by the workspace's
//! one frame cursor, [`pcsi_proto::binary`]: frames are built in pooled
//! buffers and payload fields decode as zero-copy views of the received
//! frame. The streaming protocol's frames live in `pcsi_stream::frame`,
//! over the same cursor.

use std::fmt;

use bytes::Bytes;
use pcsi_core::{Mutability, ObjectId, PcsiError};
use pcsi_proto::binary::{DecodeError, Prefix::U32 as LEN, Reader, Writer};
use pcsi_trace::TraceContext;

use crate::engine::{Mutation, StoredObject};
use crate::version::Tag;

/// Requests understood by a replica node.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Client → primary: order and replicate a mutation.
    ///
    /// `sync_replicas` is how many replicas (including the primary) must
    /// have applied the mutation before the primary acknowledges:
    /// majority for linearizable objects, 1 for eventual objects.
    Coordinate {
        /// Target object.
        id: ObjectId,
        /// The mutation to order.
        mutation: Mutation,
        /// Acks required before success is reported.
        sync_replicas: u32,
        /// Store-unique request id. The network is at-least-once (the
        /// fabric can duplicate messages), so the primary deduplicates on
        /// this id and replays the recorded response instead of ordering
        /// the mutation twice.
        req_id: u64,
        /// Absolute virtual-time expiry of this *attempt* in
        /// nanoseconds, or 0 for "never". Set from the client's
        /// per-attempt deadline: past it the client has provably
        /// abandoned the attempt, so the coordinator must not order the
        /// mutation at a fresh tag — a slow coordination that mints
        /// after the client already succeeded through another
        /// coordinator would resurrect the mutation on top of later
        /// acknowledged writes.
        expires_ns: u64,
    },
    /// Primary → secondary: apply an ordered mutation.
    Apply {
        /// Target object.
        id: ObjectId,
        /// Tag assigned by the primary.
        tag: Tag,
        /// The mutation.
        mutation: Mutation,
        /// `req_id` of the coordination that ordered this mutation, or
        /// `0` for internal traffic with no client request behind it.
        /// Secondaries record it so a failed-over retry of the same
        /// client request replays instead of re-ordering.
        req_id: u64,
    },
    /// Read a byte range.
    Read {
        /// Target object.
        id: ObjectId,
        /// Byte offset.
        offset: u64,
        /// Max bytes to return.
        len: u64,
    },
    /// Report the newest tag held for an object (version quorum).
    TagOf {
        /// Target object.
        id: ObjectId,
    },
    /// Fetch the full replica state of an object (anti-entropy pull,
    /// read repair).
    Fetch {
        /// Target object.
        id: ObjectId,
    },
    /// List `(id, tag)` inventory (anti-entropy exchange).
    Inventory,
    /// One-RTT quorum read: report the newest local tag and, when the
    /// requested range fits `inline_limit`, the bytes themselves. A
    /// reply above the limit degrades to [`Response::TagIs`] and the
    /// client falls back to a directed [`Request::Read`].
    ReadWithTag {
        /// Target object.
        id: ObjectId,
        /// Byte offset.
        offset: u64,
        /// Max bytes to return.
        len: u64,
        /// Largest payload the replica may inline into the reply.
        inline_limit: u64,
    },
    /// Install a full object state (read repair push). The receiver
    /// keeps whichever tag is newest, exactly like an anti-entropy pull,
    /// so stale or duplicate pushes are harmless.
    Push {
        /// Target object.
        id: ObjectId,
        /// The state to install.
        object: StoredObject,
        /// The sender's request ledger for the object: `(req_id, tag)`
        /// of every client request contained in `object`'s history.
        /// Installed alongside the state so exactly-once dedup survives
        /// state transfer.
        reqs: Vec<(u64, Tag)>,
    },
    /// Migration driver → new owner: install a frozen object snapshot as
    /// part of a shard move. Semantically a [`Request::Push`] (newest tag
    /// wins, ledger installed alongside), but tagged with the topology
    /// epoch the driver computed the target set under: a receiver on a
    /// different epoch rejects with [`Response::WrongEpoch`] so a stale
    /// driver can never install state under an outdated ring.
    Migrate {
        /// Topology epoch the sender routed under.
        epoch: u64,
        /// Target object.
        id: ObjectId,
        /// The sealed snapshot to install.
        object: StoredObject,
        /// The old owners' request ledger for the object (see
        /// [`Request::Push::reqs`]).
        reqs: Vec<(u64, Tag)>,
        /// The move found a committed delete newer than any live state:
        /// install a tombstone at `object.tag` (whose `data` is empty)
        /// instead of live state, so stale old owners cannot resurrect
        /// the object after the flip.
        tombstone: bool,
    },
}

/// Replies from a replica node.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Mutation ordered and durably applied at the required replicas.
    Coordinated {
        /// The tag the mutation received.
        tag: Tag,
    },
    /// Mutation applied locally.
    Applied,
    /// Read result.
    Data {
        /// Tag of the state served.
        tag: Tag,
        /// Mutability level of the object — lets clients decide whether
        /// the bytes are safe to cache node-locally.
        mutability: Mutability,
        /// Stable-prefix length. The engine keeps this equal to the full
        /// object size after every mutation, so clients can both detect
        /// complete reads and bound append-only prefix caching.
        stable_len: u64,
        /// The bytes.
        data: Bytes,
    },
    /// Tag report.
    TagIs {
        /// Newest local tag (`Tag::ZERO` when absent).
        tag: Tag,
    },
    /// Full object state.
    Object {
        /// The replica state.
        object: StoredObject,
        /// The sender's request ledger for the object (see
        /// [`Request::Push::reqs`]). A receiver installing `object` must
        /// install these too, or a later failed-over retry of a request
        /// contained in the state would be re-applied.
        reqs: Vec<(u64, Tag)>,
    },
    /// The object is not present on this replica.
    Absent,
    /// Inventory listing.
    InventoryIs {
        /// Sorted `(id, tag)` pairs.
        entries: Vec<(ObjectId, Tag)>,
    },
    /// The receiver already holds state at least as new as the tag the
    /// sender tried to apply. Not an ack: a coordinator collecting
    /// replication acks must treat this as evidence it ordered at a
    /// stale tag (e.g. a restarted primary that missed failover writes)
    /// and catch up before retrying.
    Stale {
        /// The receiver's newest local tag.
        newest: Tag,
    },
    /// The receiver's current state already contains the request the
    /// sender tried to apply (matched by `req_id` in its ledger), so it
    /// was not applied again. Counts as a replication ack: the peer
    /// provably holds the mutation, exactly once.
    AlreadyApplied {
        /// The tag the receiver recorded the request at (may differ
        /// from the sender's tag after a failover re-order).
        tag: Tag,
    },
    /// The sender's [`Request::Migrate`] carried a topology epoch that
    /// does not match the receiver's ring. The install was refused; the
    /// driver must recompute the target set under the current epoch.
    WrongEpoch {
        /// The receiver's current topology epoch.
        current: u64,
    },
    /// A PCSI-level error.
    Err(WireError),
}

/// Errors carried across the wire with enough structure to reconstruct
/// the interesting [`PcsiError`] variants.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Object unknown.
    NotFound(ObjectId),
    /// Mutation violates the object's mutability level.
    MutabilityViolation {
        /// Target object.
        id: ObjectId,
        /// Current level.
        level: Mutability,
        /// Rejected operation.
        op: String,
    },
    /// Figure-1 transition rejected.
    InvalidTransition {
        /// Current level.
        from: Mutability,
        /// Requested level.
        to: Mutability,
    },
    /// Not enough replicas reachable.
    QuorumUnavailable {
        /// Acks needed.
        needed: u32,
        /// Acks obtained.
        got: u32,
    },
    /// Anything else.
    Other(String),
}

impl WireError {
    /// Converts a [`PcsiError`] for transmission.
    pub(crate) fn from_pcsi(e: &PcsiError) -> WireError {
        match e {
            PcsiError::NotFound(id) => WireError::NotFound(*id),
            PcsiError::MutabilityViolation { id, level, op } => WireError::MutabilityViolation {
                id: *id,
                level: *level,
                op: (*op).to_owned(),
            },
            PcsiError::InvalidMutabilityTransition { from, to } => WireError::InvalidTransition {
                from: *from,
                to: *to,
            },
            PcsiError::QuorumUnavailable { needed, got } => WireError::QuorumUnavailable {
                needed: *needed as u32,
                got: *got as u32,
            },
            other => WireError::Other(other.to_string()),
        }
    }

    /// Reconstructs a [`PcsiError`] on the client side.
    pub fn into_pcsi(self) -> PcsiError {
        match self {
            WireError::NotFound(id) => PcsiError::NotFound(id),
            WireError::MutabilityViolation { id, level, op } => PcsiError::MutabilityViolation {
                id,
                level,
                op: leak_op(&op),
            },
            WireError::InvalidTransition { from, to } => {
                PcsiError::InvalidMutabilityTransition { from, to }
            }
            WireError::QuorumUnavailable { needed, got } => PcsiError::QuorumUnavailable {
                needed: needed as usize,
                got: got as usize,
            },
            WireError::Other(msg) => PcsiError::Fault(msg),
        }
    }
}

/// Maps known operation names back to the `'static` strings
/// [`PcsiError::MutabilityViolation`] carries.
fn leak_op(op: &str) -> &'static str {
    match op {
        "write" => "write",
        "append" => "append",
        "resize" => "resize",
        _ => "mutate",
    }
}

/// Codec failure (corrupt or truncated message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage wire codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> Self {
        CodecError(e.to_string())
    }
}

// ---- the store's field types over the shared cursor ----------------------

fn write_id(w: &mut Writer, id: ObjectId) {
    w.u128(id.as_u128());
}

fn write_tag(w: &mut Writer, t: Tag) {
    w.u64(t.seq);
    w.u32(t.writer);
}

fn write_mutability(w: &mut Writer, m: Mutability) {
    w.u8(match m {
        Mutability::Mutable => 0,
        Mutability::FixedSize => 1,
        Mutability::AppendOnly => 2,
        Mutability::Immutable => 3,
    });
}

fn write_mutation(w: &mut Writer, m: &Mutation) {
    match m {
        Mutation::PutFull { data, mutability } => {
            w.u8(0);
            write_mutability(w, *mutability);
            w.bytes(LEN, data);
        }
        Mutation::WriteAt { offset, data } => {
            w.u8(1);
            w.u64(*offset);
            w.bytes(LEN, data);
        }
        Mutation::Append { data } => {
            w.u8(2);
            w.bytes(LEN, data);
        }
        Mutation::SetMutability { to } => {
            w.u8(3);
            write_mutability(w, *to);
        }
        Mutation::Delete => w.u8(4),
    }
}

/// A full replica state and the request ledger that travels with it.
fn write_state(w: &mut Writer, object: &StoredObject, reqs: &[(u64, Tag)]) {
    write_tag(w, object.tag);
    write_mutability(w, object.mutability);
    w.u64(object.stable_len);
    w.bytes(LEN, &object.data);
    w.count(LEN, reqs.len());
    for &(req_id, tag) in reqs {
        w.u64(req_id);
        write_tag(w, tag);
    }
}

fn read_id(r: &mut Reader) -> Result<ObjectId, CodecError> {
    Ok(ObjectId::from_u128(r.u128()?))
}

fn read_tag(r: &mut Reader) -> Result<Tag, CodecError> {
    Ok(Tag {
        seq: r.u64()?,
        writer: r.u32()?,
    })
}

fn read_mutability(r: &mut Reader) -> Result<Mutability, CodecError> {
    Ok(match r.u8()? {
        0 => Mutability::Mutable,
        1 => Mutability::FixedSize,
        2 => Mutability::AppendOnly,
        3 => Mutability::Immutable,
        b => return Err(CodecError(format!("bad mutability byte {b}"))),
    })
}

fn read_mutation(r: &mut Reader) -> Result<Mutation, CodecError> {
    Ok(match r.u8()? {
        0 => {
            let mutability = read_mutability(r)?;
            Mutation::PutFull {
                data: r.bytes(LEN)?,
                mutability,
            }
        }
        1 => Mutation::WriteAt {
            offset: r.u64()?,
            data: r.bytes(LEN)?,
        },
        2 => Mutation::Append {
            data: r.bytes(LEN)?,
        },
        3 => Mutation::SetMutability {
            to: read_mutability(r)?,
        },
        4 => Mutation::Delete,
        b => return Err(CodecError(format!("bad mutation kind {b}"))),
    })
}

fn read_state(r: &mut Reader) -> Result<(StoredObject, Vec<(u64, Tag)>), CodecError> {
    let tag = read_tag(r)?;
    let mutability = read_mutability(r)?;
    let stable_len = r.u64()?;
    let data = r.bytes(LEN)?;
    // A ledger entry is a `u64` request id and a 12-byte tag.
    let n = r.count(LEN, 20)?;
    let mut reqs = Vec::with_capacity(n);
    for _ in 0..n {
        reqs.push((r.u64()?, read_tag(r)?));
    }
    let object = StoredObject {
        data,
        tag,
        mutability,
        stable_len,
    };
    Ok((object, reqs))
}

// ---- request ----

/// Flag byte introducing the optional trailing [`TraceContext`]
/// extension on an encoded request. Exactly one value is valid, so a
/// stray trailing byte still fails decoding.
const TRACE_EXT_FLAG: u8 = 1;

/// Encodes a request.
pub fn encode_request(req: &Request) -> Bytes {
    encode_request_traced(req, None)
}

/// Encodes a request with an optional trailing trace-context extension:
/// `[flag = 1][trace id u64][parent span u64]`, 17 bytes. Absent
/// context encodes exactly like [`encode_request`], so old-format
/// frames and untraced frames are the same bytes — and a traced frame
/// honestly pays its extra wire bytes in virtual time.
pub fn encode_request_traced(req: &Request, ctx: Option<TraceContext>) -> Bytes {
    let mut w = Writer::with_capacity(64);
    write_request(&mut w, req);
    if let Some(ctx) = ctx {
        w.u8(TRACE_EXT_FLAG);
        w.raw(&ctx.encode());
    }
    w.finish()
}

fn write_request(w: &mut Writer, req: &Request) {
    match req {
        Request::Coordinate {
            id,
            mutation,
            sync_replicas,
            req_id,
            expires_ns,
        } => {
            w.u8(0);
            write_id(w, *id);
            w.u32(*sync_replicas);
            w.u64(*req_id);
            w.u64(*expires_ns);
            write_mutation(w, mutation);
        }
        Request::Apply {
            id,
            tag,
            mutation,
            req_id,
        } => {
            w.u8(1);
            write_id(w, *id);
            write_tag(w, *tag);
            w.u64(*req_id);
            write_mutation(w, mutation);
        }
        Request::Read { id, offset, len } => {
            w.u8(2);
            write_id(w, *id);
            w.u64(*offset);
            w.u64(*len);
        }
        Request::TagOf { id } => {
            w.u8(3);
            write_id(w, *id);
        }
        Request::Fetch { id } => {
            w.u8(4);
            write_id(w, *id);
        }
        Request::Inventory => w.u8(5),
        Request::ReadWithTag {
            id,
            offset,
            len,
            inline_limit,
        } => {
            w.u8(6);
            write_id(w, *id);
            w.u64(*offset);
            w.u64(*len);
            w.u64(*inline_limit);
        }
        Request::Push { id, object, reqs } => {
            w.u8(7);
            write_id(w, *id);
            write_state(w, object, reqs);
        }
        Request::Migrate {
            epoch,
            id,
            object,
            reqs,
            tombstone,
        } => {
            w.u8(8);
            w.u64(*epoch);
            w.u8(u8::from(*tombstone));
            write_id(w, *id);
            write_state(w, object, reqs);
        }
    }
}

/// Decodes a request. Payload fields come back as zero-copy views of
/// `buf`'s backing buffer.
pub fn decode_request(buf: &Bytes) -> Result<Request, CodecError> {
    let mut r = Reader::new(buf);
    let req = read_request(&mut r)?;
    r.finish()?;
    Ok(req)
}

/// Decodes a request plus its optional trailing trace context. Frames
/// without the extension (including every pre-extension frame) decode
/// with `None`; a present extension must be exactly
/// `[1][16 context bytes]` or the frame is rejected.
pub fn decode_request_traced(buf: &Bytes) -> Result<(Request, Option<TraceContext>), CodecError> {
    let mut r = Reader::new(buf);
    let req = read_request(&mut r)?;
    if r.remaining() == 0 {
        return Ok((req, None));
    }
    match r.u8()? {
        TRACE_EXT_FLAG => {}
        b => return Err(CodecError(format!("bad trace extension flag {b}"))),
    }
    let ctx = TraceContext::decode(r.take(TraceContext::WIRE_LEN)?)
        .ok_or_else(|| CodecError("short trace extension".to_string()))?;
    r.finish()?;
    Ok((req, Some(ctx)))
}

fn read_request(r: &mut Reader) -> Result<Request, CodecError> {
    Ok(match r.u8()? {
        0 => {
            let id = read_id(r)?;
            let sync_replicas = r.u32()?;
            let req_id = r.u64()?;
            let expires_ns = r.u64()?;
            Request::Coordinate {
                id,
                mutation: read_mutation(r)?,
                sync_replicas,
                req_id,
                expires_ns,
            }
        }
        1 => Request::Apply {
            id: read_id(r)?,
            tag: read_tag(r)?,
            req_id: r.u64()?,
            mutation: read_mutation(r)?,
        },
        2 => Request::Read {
            id: read_id(r)?,
            offset: r.u64()?,
            len: r.u64()?,
        },
        3 => Request::TagOf { id: read_id(r)? },
        4 => Request::Fetch { id: read_id(r)? },
        5 => Request::Inventory,
        6 => Request::ReadWithTag {
            id: read_id(r)?,
            offset: r.u64()?,
            len: r.u64()?,
            inline_limit: r.u64()?,
        },
        7 => {
            let id = read_id(r)?;
            let (object, reqs) = read_state(r)?;
            Request::Push { id, object, reqs }
        }
        8 => {
            let epoch = r.u64()?;
            let tombstone = match r.u8()? {
                0 => false,
                1 => true,
                b => return Err(CodecError(format!("bad tombstone flag {b}"))),
            };
            let id = read_id(r)?;
            let (object, reqs) = read_state(r)?;
            Request::Migrate {
                epoch,
                id,
                object,
                reqs,
                tombstone,
            }
        }
        b => return Err(CodecError(format!("bad request op {b}"))),
    })
}

// ---- response ----

/// Encodes a response.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut w = Writer::with_capacity(64);
    match resp {
        Response::Coordinated { tag } => {
            w.u8(0);
            write_tag(&mut w, *tag);
        }
        Response::Applied => w.u8(1),
        Response::Data {
            tag,
            mutability,
            stable_len,
            data,
        } => {
            w.u8(2);
            write_tag(&mut w, *tag);
            write_mutability(&mut w, *mutability);
            w.u64(*stable_len);
            w.bytes(LEN, data);
        }
        Response::TagIs { tag } => {
            w.u8(3);
            write_tag(&mut w, *tag);
        }
        Response::Object { object, reqs } => {
            w.u8(4);
            write_state(&mut w, object, reqs);
        }
        Response::Absent => w.u8(5),
        Response::InventoryIs { entries } => {
            w.u8(6);
            w.count(LEN, entries.len());
            for (id, tag) in entries {
                write_id(&mut w, *id);
                write_tag(&mut w, *tag);
            }
        }
        Response::Stale { newest } => {
            w.u8(8);
            write_tag(&mut w, *newest);
        }
        Response::AlreadyApplied { tag } => {
            w.u8(9);
            write_tag(&mut w, *tag);
        }
        Response::WrongEpoch { current } => {
            w.u8(10);
            w.u64(*current);
        }
        Response::Err(e) => {
            w.u8(7);
            write_wire_error(&mut w, e);
        }
    }
    w.finish()
}

fn write_wire_error(w: &mut Writer, e: &WireError) {
    match e {
        WireError::NotFound(id) => {
            w.u8(0);
            write_id(w, *id);
        }
        WireError::MutabilityViolation { id, level, op } => {
            w.u8(1);
            write_id(w, *id);
            write_mutability(w, *level);
            w.str(LEN, op);
        }
        WireError::InvalidTransition { from, to } => {
            w.u8(2);
            write_mutability(w, *from);
            write_mutability(w, *to);
        }
        WireError::QuorumUnavailable { needed, got } => {
            w.u8(3);
            w.u32(*needed);
            w.u32(*got);
        }
        WireError::Other(msg) => {
            w.u8(4);
            w.str(LEN, msg);
        }
    }
}

fn read_wire_error(r: &mut Reader) -> Result<WireError, CodecError> {
    Ok(match r.u8()? {
        0 => WireError::NotFound(read_id(r)?),
        1 => WireError::MutabilityViolation {
            id: read_id(r)?,
            level: read_mutability(r)?,
            op: r.str(LEN)?,
        },
        2 => WireError::InvalidTransition {
            from: read_mutability(r)?,
            to: read_mutability(r)?,
        },
        3 => WireError::QuorumUnavailable {
            needed: r.u32()?,
            got: r.u32()?,
        },
        4 => WireError::Other(r.str(LEN)?),
        b => return Err(CodecError(format!("bad error code {b}"))),
    })
}

/// Decodes a response. Payload fields come back as zero-copy views of
/// `buf`'s backing buffer.
pub fn decode_response(buf: &Bytes) -> Result<Response, CodecError> {
    let mut r = Reader::new(buf);
    let resp = match r.u8()? {
        0 => Response::Coordinated {
            tag: read_tag(&mut r)?,
        },
        1 => Response::Applied,
        2 => Response::Data {
            tag: read_tag(&mut r)?,
            mutability: read_mutability(&mut r)?,
            stable_len: r.u64()?,
            data: r.bytes(LEN)?,
        },
        3 => Response::TagIs {
            tag: read_tag(&mut r)?,
        },
        4 => {
            let (object, reqs) = read_state(&mut r)?;
            Response::Object { object, reqs }
        }
        5 => Response::Absent,
        6 => {
            // An inventory entry is a 16-byte id and a 12-byte tag.
            let n = r.count(LEN, 28)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((read_id(&mut r)?, read_tag(&mut r)?));
            }
            Response::InventoryIs { entries }
        }
        7 => Response::Err(read_wire_error(&mut r)?),
        8 => Response::Stale {
            newest: read_tag(&mut r)?,
        },
        9 => Response::AlreadyApplied {
            tag: read_tag(&mut r)?,
        },
        10 => Response::WrongEpoch { current: r.u64()? },
        b => return Err(CodecError(format!("bad response op {b}"))),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_parts(2, n)
    }

    #[test]
    fn traced_requests_roundtrip_and_untraced_frames_still_decode() {
        use pcsi_trace::{SpanId, TraceId};

        let req = Request::Read {
            id: oid(7),
            offset: 8,
            len: 16,
        };
        let ctx = TraceContext {
            trace: TraceId(0xDEAD_BEEF),
            parent: SpanId(0x1234_5678),
        };

        // Traced frame round-trips both halves.
        let traced = encode_request_traced(&req, Some(ctx));
        assert_eq!(
            traced.len(),
            encode_request(&req).len() + 1 + TraceContext::WIRE_LEN
        );
        assert_eq!(
            decode_request_traced(&traced).unwrap(),
            (req.clone(), Some(ctx))
        );

        // Untraced encoding is byte-identical to the pre-extension
        // format, and both decoders accept it.
        let plain = encode_request_traced(&req, None);
        assert_eq!(plain, encode_request(&req));
        assert_eq!(decode_request_traced(&plain).unwrap(), (req.clone(), None));
        assert_eq!(decode_request(&plain).unwrap(), req);

        // The strict decoder rejects the extension as trailing bytes.
        assert!(decode_request(&traced).is_err());

        // A bad flag byte or short context is rejected.
        let mut bad_flag = plain.to_vec();
        bad_flag.push(2);
        assert!(decode_request_traced(&Bytes::from(bad_flag)).is_err());
        let mut short = plain.to_vec();
        short.extend_from_slice(&[TRACE_EXT_FLAG, 0, 0, 0]);
        assert!(decode_request_traced(&Bytes::from(short)).is_err());
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Coordinate {
                id: oid(1),
                mutation: Mutation::PutFull {
                    data: Bytes::from_static(b"hello"),
                    mutability: Mutability::AppendOnly,
                },
                sync_replicas: 2,
                req_id: 1,
                expires_ns: 0,
            },
            Request::Apply {
                id: oid(2),
                tag: Tag { seq: 9, writer: 3 },
                mutation: Mutation::WriteAt {
                    offset: 4,
                    data: Bytes::from_static(b"x"),
                },
                req_id: 42,
            },
            Request::Read {
                id: oid(3),
                offset: 0,
                len: 1024,
            },
            Request::TagOf { id: oid(4) },
            Request::Fetch { id: oid(5) },
            Request::Inventory,
            Request::Coordinate {
                id: oid(6),
                mutation: Mutation::Delete,
                sync_replicas: 3,
                req_id: u64::MAX,
                expires_ns: u64::MAX,
            },
            Request::Apply {
                id: oid(7),
                tag: Tag { seq: 1, writer: 0 },
                mutation: Mutation::SetMutability {
                    to: Mutability::Immutable,
                },
                req_id: 0,
            },
            Request::Apply {
                id: oid(8),
                tag: Tag { seq: 2, writer: 1 },
                mutation: Mutation::Append {
                    data: Bytes::from_static(b"entry"),
                },
                req_id: u64::MAX,
            },
            Request::ReadWithTag {
                id: oid(9),
                offset: 16,
                len: u64::MAX,
                inline_limit: 64 * 1024,
            },
            Request::Push {
                id: oid(10),
                object: StoredObject {
                    data: Bytes::from_static(b"repaired"),
                    tag: Tag { seq: 11, writer: 2 },
                    mutability: Mutability::AppendOnly,
                    stable_len: 8,
                },
                reqs: vec![
                    (7, Tag { seq: 10, writer: 1 }),
                    (9, Tag { seq: 11, writer: 2 }),
                ],
            },
            Request::Push {
                id: oid(11),
                object: StoredObject {
                    data: Bytes::new(),
                    tag: Tag { seq: 1, writer: 0 },
                    mutability: Mutability::Mutable,
                    stable_len: 0,
                },
                reqs: vec![],
            },
        ];
        for req in reqs {
            let wire = encode_request(&req);
            assert_eq!(decode_request(&wire).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Coordinated {
                tag: Tag { seq: 7, writer: 1 },
            },
            Response::Applied,
            Response::Data {
                tag: Tag { seq: 1, writer: 2 },
                mutability: Mutability::Immutable,
                stable_len: 8,
                data: Bytes::from_static(b"\x00\x01binary"),
            },
            Response::TagIs { tag: Tag::ZERO },
            Response::Object {
                object: StoredObject {
                    data: Bytes::from_static(b"state"),
                    tag: Tag { seq: 3, writer: 1 },
                    mutability: Mutability::FixedSize,
                    stable_len: 5,
                },
                reqs: vec![(3, Tag { seq: 3, writer: 1 })],
            },
            Response::Absent,
            Response::InventoryIs {
                entries: vec![
                    (oid(1), Tag { seq: 1, writer: 0 }),
                    (oid(2), Tag { seq: 4, writer: 2 }),
                ],
            },
            Response::Err(WireError::NotFound(oid(9))),
            Response::Err(WireError::MutabilityViolation {
                id: oid(10),
                level: Mutability::Immutable,
                op: "write".into(),
            }),
            Response::Err(WireError::InvalidTransition {
                from: Mutability::Immutable,
                to: Mutability::Mutable,
            }),
            Response::Err(WireError::QuorumUnavailable { needed: 2, got: 1 }),
            Response::Err(WireError::Other("boom".into())),
            Response::Stale {
                newest: Tag { seq: 12, writer: 4 },
            },
            Response::AlreadyApplied {
                tag: Tag { seq: 6, writer: 2 },
            },
        ];
        for resp in resps {
            let wire = encode_response(&resp);
            assert_eq!(decode_response(&wire).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn truncation_detected() {
        let reqs = [
            Request::Read {
                id: oid(1),
                offset: 5,
                len: 10,
            },
            Request::ReadWithTag {
                id: oid(1),
                offset: 5,
                len: 10,
                inline_limit: 100,
            },
            Request::Push {
                id: oid(2),
                object: StoredObject {
                    data: Bytes::from_static(b"abc"),
                    tag: Tag { seq: 4, writer: 1 },
                    mutability: Mutability::Mutable,
                    stable_len: 3,
                },
                reqs: vec![(5, Tag { seq: 4, writer: 1 })],
            },
        ];
        for req in &reqs {
            let wire = encode_request(req);
            for cut in 0..wire.len() {
                assert!(
                    decode_request(&wire.slice(..cut)).is_err(),
                    "{req:?} cut {cut}"
                );
            }
        }
        let resps = [
            encode_response(&Response::Data {
                tag: Tag { seq: 4, writer: 1 },
                mutability: Mutability::AppendOnly,
                stable_len: 3,
                data: Bytes::from_static(b"abc"),
            }),
            encode_response(&Response::Stale {
                newest: Tag { seq: 4, writer: 1 },
            }),
        ];
        for resp in &resps {
            for cut in 0..resp.len() {
                assert!(
                    decode_response(&resp.slice(..cut)).is_err(),
                    "response cut {cut}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut wire = encode_request(&Request::Inventory).to_vec();
        wire.push(0);
        assert!(decode_request(&Bytes::from(wire)).is_err());
    }

    #[test]
    fn pcsi_error_conversion_roundtrip() {
        let errors = vec![
            PcsiError::NotFound(oid(1)),
            PcsiError::MutabilityViolation {
                id: oid(2),
                level: Mutability::AppendOnly,
                op: "write",
            },
            PcsiError::InvalidMutabilityTransition {
                from: Mutability::FixedSize,
                to: Mutability::AppendOnly,
            },
            PcsiError::QuorumUnavailable { needed: 3, got: 1 },
        ];
        for e in errors {
            let back = WireError::from_pcsi(&e).into_pcsi();
            assert_eq!(back, e, "{e:?}");
        }
        // Unstructured errors degrade to Fault with the message preserved.
        let misc = PcsiError::Timeout;
        assert_eq!(
            WireError::from_pcsi(&misc).into_pcsi(),
            PcsiError::Fault("operation timed out".into())
        );
    }

    #[test]
    fn bad_bytes_rejected() {
        assert!(decode_request(&Bytes::from_static(&[99])).is_err());
        assert!(decode_response(&Bytes::from_static(&[99])).is_err());
        assert!(decode_response(&Bytes::new()).is_err());
    }

    /// The bytes these frames had before the codec moved onto the shared
    /// cursor: a replica built from the parent commit reads them still.
    #[test]
    fn frames_encode_to_the_pinned_bytes() {
        use pcsi_proto::hash::hex;
        use pcsi_trace::{SpanId, TraceId};

        let req = Request::Coordinate {
            id: oid(1),
            mutation: Mutation::PutFull {
                data: Bytes::from_static(b"hello"),
                mutability: Mutability::AppendOnly,
            },
            sync_replicas: 2,
            req_id: 7,
            expires_ns: 9,
        };
        let plain = "00e2b7bfde784a30220200000000000000020000000700000000000000\
                     090000000000000000020500000068656c6c6f";
        assert_eq!(hex(&encode_request(&req)), plain);
        let ctx = TraceContext {
            trace: TraceId(0xDEAD_BEEF),
            parent: SpanId(0x1234_5678),
        };
        assert_eq!(
            hex(&encode_request_traced(&req, Some(ctx))),
            format!("{plain}01efbeadde000000007856341200000000")
        );
        let resp = Response::Data {
            tag: Tag { seq: 4, writer: 1 },
            mutability: Mutability::Immutable,
            stable_len: 3,
            data: Bytes::from_static(b"abc"),
        };
        assert_eq!(
            hex(&encode_response(&resp)),
            "0204000000000000000100000003030000000000000003000000616263"
        );
    }
}
