//! The storage replication protocol codec.
//!
//! Replica traffic is encoded with a compact hand-rolled binary format
//! (fixed-width ids and tags, varint-free u32 lengths) rather than the
//! JSON/HTTP stack — this *is* the "non-REST implementation of existing
//! APIs" the paper says providers need at minimum (§2.1). Keeping it
//! byte-accurate also makes message sizes feed the fabric's bandwidth
//! model honestly.

use std::fmt;

use bytes::{Bytes, BytesMut};
use pcsi_core::{Mutability, ObjectId, PcsiError};
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

// ---- primitive writers/readers ------------------------------------------

struct Writer {
    buf: BytesMut,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: BytesMut::with_capacity(64),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.extend_from_slice(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn id(&mut self, id: ObjectId) {
        self.buf.extend_from_slice(&id.as_u128().to_le_bytes());
    }

    fn tag(&mut self, t: Tag) {
        self.u64(t.seq);
        self.u32(t.writer);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    fn reqs(&mut self, reqs: &[(u64, Tag)]) {
        self.u32(reqs.len() as u32);
        for &(req_id, tag) in reqs {
            self.u64(req_id);
            self.tag(tag);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn mutability(&mut self, m: Mutability) {
        self.u8(match m {
            Mutability::Mutable => 0,
            Mutability::FixedSize => 1,
            Mutability::AppendOnly => 2,
            Mutability::Immutable => 3,
        });
    }

    fn mutation(&mut self, m: &Mutation) {
        match m {
            Mutation::PutFull { data, mutability } => {
                self.u8(0);
                self.mutability(*mutability);
                self.bytes(data);
            }
            Mutation::WriteAt { offset, data } => {
                self.u8(1);
                self.u64(*offset);
                self.bytes(data);
            }
            Mutation::Append { data } => {
                self.u8(2);
                self.bytes(data);
            }
            Mutation::SetMutability { to } => {
                self.u8(3);
                self.mutability(*to);
            }
            Mutation::Delete => self.u8(4),
        }
    }

    fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Borrowing decoder over a received frame.
///
/// Holds the frame as `&Bytes` (not `&[u8]`) so that payload fields can
/// be returned as zero-copy [`Bytes::slice`] views sharing the frame's
/// backing buffer: decoding a 1 MiB `PutFull` moves no payload bytes.
struct Reader<'a> {
    frame: &'a Bytes,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(frame: &'a Bytes) -> Self {
        Reader { frame, pos: 0 }
    }

    fn err(&self, what: &str) -> CodecError {
        CodecError(format!("truncated {what} at offset {}", self.pos))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        if self.frame.len() - self.pos < n {
            return Err(self.err(what));
        }
        let s = &self.frame[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    fn id(&mut self) -> Result<ObjectId, CodecError> {
        Ok(ObjectId::from_u128(u128::from_le_bytes(
            self.take(16, "object id")?.try_into().unwrap(),
        )))
    }

    fn tag(&mut self) -> Result<Tag, CodecError> {
        Ok(Tag {
            seq: self.u64()?,
            writer: self.u32()?,
        })
    }

    fn bytes(&mut self) -> Result<Bytes, CodecError> {
        let len = self.u32()? as usize;
        if self.frame.len() - self.pos < len {
            return Err(self.err("bytes"));
        }
        // Zero-copy: a view into the received frame, not a fresh
        // allocation. The payload keeps the frame's backing buffer
        // alive, which is the right trade in a simulator where frames
        // are dropped as soon as the request completes.
        let view = self.frame.slice(self.pos..self.pos + len);
        self.pos += len;
        Ok(view)
    }

    fn reqs(&mut self) -> Result<Vec<(u64, Tag)>, CodecError> {
        let n = self.u32()? as usize;
        let mut reqs = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            reqs.push((self.u64()?, self.tag()?));
        }
        Ok(reqs)
    }

    fn str(&mut self) -> Result<String, CodecError> {
        // Straight from the borrowed frame bytes to the owned String —
        // the old path went frame -> Bytes -> Vec -> String, copying
        // the text twice.
        let len = self.u32()? as usize;
        let raw = self.take(len, "string")?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CodecError("bad utf8".into()))
    }

    fn mutability(&mut self) -> Result<Mutability, CodecError> {
        Ok(match self.u8()? {
            0 => Mutability::Mutable,
            1 => Mutability::FixedSize,
            2 => Mutability::AppendOnly,
            3 => Mutability::Immutable,
            b => return Err(CodecError(format!("bad mutability byte {b}"))),
        })
    }

    fn mutation(&mut self) -> Result<Mutation, CodecError> {
        Ok(match self.u8()? {
            0 => {
                let mutability = self.mutability()?;
                Mutation::PutFull {
                    data: self.bytes()?,
                    mutability,
                }
            }
            1 => Mutation::WriteAt {
                offset: self.u64()?,
                data: self.bytes()?,
            },
            2 => Mutation::Append {
                data: self.bytes()?,
            },
            3 => Mutation::SetMutability {
                to: self.mutability()?,
            },
            4 => Mutation::Delete,
            b => return Err(CodecError(format!("bad mutation kind {b}"))),
        })
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.frame.len() {
            Ok(())
        } else {
            Err(CodecError(format!(
                "{} trailing bytes",
                self.frame.len() - self.pos
            )))
        }
    }
}

// ---- request ----

/// Flag byte introducing the optional trailing [`TraceContext`]
/// extension on an encoded request. Exactly one value is valid, so a
/// stray trailing byte still fails decoding.
const TRACE_EXT_FLAG: u8 = 1;

/// Encodes a request.
pub fn encode_request(req: &Request) -> Bytes {
    let mut w = Writer::new();
    write_request(&mut w, req);
    w.finish()
}

/// Encodes a request with an optional trailing trace-context extension:
/// `[flag = 1][trace id u64][parent span u64]`, 17 bytes. Absent
/// context encodes exactly like [`encode_request`], so old-format
/// frames and untraced frames are the same bytes — and a traced frame
/// honestly pays its extra wire bytes in virtual time.
pub fn encode_request_traced(req: &Request, ctx: Option<TraceContext>) -> Bytes {
    let mut w = Writer::new();
    write_request(&mut w, req);
    if let Some(ctx) = ctx {
        w.u8(TRACE_EXT_FLAG);
        w.buf.extend_from_slice(&ctx.encode());
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
            w.id(*id);
            w.u32(*sync_replicas);
            w.u64(*req_id);
            w.u64(*expires_ns);
            w.mutation(mutation);
        }
        Request::Apply {
            id,
            tag,
            mutation,
            req_id,
        } => {
            w.u8(1);
            w.id(*id);
            w.tag(*tag);
            w.u64(*req_id);
            w.mutation(mutation);
        }
        Request::Read { id, offset, len } => {
            w.u8(2);
            w.id(*id);
            w.u64(*offset);
            w.u64(*len);
        }
        Request::TagOf { id } => {
            w.u8(3);
            w.id(*id);
        }
        Request::Fetch { id } => {
            w.u8(4);
            w.id(*id);
        }
        Request::Inventory => w.u8(5),
        Request::ReadWithTag {
            id,
            offset,
            len,
            inline_limit,
        } => {
            w.u8(6);
            w.id(*id);
            w.u64(*offset);
            w.u64(*len);
            w.u64(*inline_limit);
        }
        Request::Push { id, object, reqs } => {
            w.u8(7);
            w.id(*id);
            w.tag(object.tag);
            w.mutability(object.mutability);
            w.u64(object.stable_len);
            w.bytes(&object.data);
            w.reqs(reqs);
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
            w.id(*id);
            w.tag(object.tag);
            w.mutability(object.mutability);
            w.u64(object.stable_len);
            w.bytes(&object.data);
            w.reqs(reqs);
        }
    }
}

/// Decodes a request. Payload fields come back as zero-copy views of
/// `buf`'s backing buffer.
pub fn decode_request(buf: &Bytes) -> Result<Request, CodecError> {
    let mut r = Reader::new(buf);
    let req = read_request(&mut r)?;
    r.done()?;
    Ok(req)
}

/// Decodes a request plus its optional trailing trace context. Frames
/// without the extension (including every pre-extension frame) decode
/// with `None`; a present extension must be exactly
/// `[1][16 context bytes]` or the frame is rejected.
pub fn decode_request_traced(buf: &Bytes) -> Result<(Request, Option<TraceContext>), CodecError> {
    let mut r = Reader::new(buf);
    let req = read_request(&mut r)?;
    if r.pos == r.frame.len() {
        return Ok((req, None));
    }
    match r.u8()? {
        TRACE_EXT_FLAG => {}
        b => return Err(CodecError(format!("bad trace extension flag {b}"))),
    }
    let raw = r.take(TraceContext::WIRE_LEN, "trace context")?;
    let ctx =
        TraceContext::decode(raw).ok_or_else(|| CodecError("short trace extension".to_string()))?;
    r.done()?;
    Ok((req, Some(ctx)))
}

fn read_request(r: &mut Reader) -> Result<Request, CodecError> {
    let req = match r.u8()? {
        0 => {
            let id = r.id()?;
            let sync_replicas = r.u32()?;
            let req_id = r.u64()?;
            let expires_ns = r.u64()?;
            Request::Coordinate {
                id,
                mutation: r.mutation()?,
                sync_replicas,
                req_id,
                expires_ns,
            }
        }
        1 => Request::Apply {
            id: r.id()?,
            tag: r.tag()?,
            req_id: r.u64()?,
            mutation: r.mutation()?,
        },
        2 => Request::Read {
            id: r.id()?,
            offset: r.u64()?,
            len: r.u64()?,
        },
        3 => Request::TagOf { id: r.id()? },
        4 => Request::Fetch { id: r.id()? },
        5 => Request::Inventory,
        6 => Request::ReadWithTag {
            id: r.id()?,
            offset: r.u64()?,
            len: r.u64()?,
            inline_limit: r.u64()?,
        },
        7 => {
            let id = r.id()?;
            let tag = r.tag()?;
            let mutability = r.mutability()?;
            let stable_len = r.u64()?;
            let data = r.bytes()?;
            let reqs = r.reqs()?;
            Request::Push {
                id,
                object: StoredObject {
                    data,
                    tag,
                    mutability,
                    stable_len,
                },
                reqs,
            }
        }
        8 => {
            let epoch = r.u64()?;
            let tombstone = match r.u8()? {
                0 => false,
                1 => true,
                b => return Err(CodecError(format!("bad tombstone flag {b}"))),
            };
            let id = r.id()?;
            let tag = r.tag()?;
            let mutability = r.mutability()?;
            let stable_len = r.u64()?;
            let data = r.bytes()?;
            let reqs = r.reqs()?;
            Request::Migrate {
                epoch,
                id,
                object: StoredObject {
                    data,
                    tag,
                    mutability,
                    stable_len,
                },
                reqs,
                tombstone,
            }
        }
        b => return Err(CodecError(format!("bad request op {b}"))),
    };
    Ok(req)
}

// ---- response ----

/// Encodes a response.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut w = Writer::new();
    match resp {
        Response::Coordinated { tag } => {
            w.u8(0);
            w.tag(*tag);
        }
        Response::Applied => w.u8(1),
        Response::Data {
            tag,
            mutability,
            stable_len,
            data,
        } => {
            w.u8(2);
            w.tag(*tag);
            w.mutability(*mutability);
            w.u64(*stable_len);
            w.bytes(data);
        }
        Response::TagIs { tag } => {
            w.u8(3);
            w.tag(*tag);
        }
        Response::Object { object, reqs } => {
            w.u8(4);
            w.tag(object.tag);
            w.mutability(object.mutability);
            w.u64(object.stable_len);
            w.bytes(&object.data);
            w.reqs(reqs);
        }
        Response::Absent => w.u8(5),
        Response::InventoryIs { entries } => {
            w.u8(6);
            w.u32(entries.len() as u32);
            for (id, tag) in entries {
                w.id(*id);
                w.tag(*tag);
            }
        }
        Response::Stale { newest } => {
            w.u8(8);
            w.tag(*newest);
        }
        Response::AlreadyApplied { tag } => {
            w.u8(9);
            w.tag(*tag);
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
            w.id(*id);
        }
        WireError::MutabilityViolation { id, level, op } => {
            w.u8(1);
            w.id(*id);
            w.mutability(*level);
            w.str(op);
        }
        WireError::InvalidTransition { from, to } => {
            w.u8(2);
            w.mutability(*from);
            w.mutability(*to);
        }
        WireError::QuorumUnavailable { needed, got } => {
            w.u8(3);
            w.u32(*needed);
            w.u32(*got);
        }
        WireError::Other(msg) => {
            w.u8(4);
            w.str(msg);
        }
    }
}

fn read_wire_error(r: &mut Reader) -> Result<WireError, CodecError> {
    Ok(match r.u8()? {
        0 => WireError::NotFound(r.id()?),
        1 => WireError::MutabilityViolation {
            id: r.id()?,
            level: r.mutability()?,
            op: r.str()?,
        },
        2 => WireError::InvalidTransition {
            from: r.mutability()?,
            to: r.mutability()?,
        },
        3 => WireError::QuorumUnavailable {
            needed: r.u32()?,
            got: r.u32()?,
        },
        4 => WireError::Other(r.str()?),
        b => return Err(CodecError(format!("bad error code {b}"))),
    })
}

/// Decodes a response. Payload fields come back as zero-copy views of
/// `buf`'s backing buffer.
pub fn decode_response(buf: &Bytes) -> Result<Response, CodecError> {
    let mut r = Reader::new(buf);
    let resp = match r.u8()? {
        0 => Response::Coordinated { tag: r.tag()? },
        1 => Response::Applied,
        2 => Response::Data {
            tag: r.tag()?,
            mutability: r.mutability()?,
            stable_len: r.u64()?,
            data: r.bytes()?,
        },
        3 => Response::TagIs { tag: r.tag()? },
        4 => {
            let tag = r.tag()?;
            let mutability = r.mutability()?;
            let stable_len = r.u64()?;
            let data = r.bytes()?;
            let reqs = r.reqs()?;
            Response::Object {
                object: StoredObject {
                    data,
                    tag,
                    mutability,
                    stable_len,
                },
                reqs,
            }
        }
        5 => Response::Absent,
        6 => {
            let n = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                entries.push((r.id()?, r.tag()?));
            }
            Response::InventoryIs { entries }
        }
        7 => Response::Err(read_wire_error(&mut r)?),
        8 => Response::Stale { newest: r.tag()? },
        9 => Response::AlreadyApplied { tag: r.tag()? },
        10 => Response::WrongEpoch { current: r.u64()? },
        b => return Err(CodecError(format!("bad response op {b}"))),
    };
    r.done()?;
    Ok(resp)
}

// ---- streaming subscription frames --------------------------------------

/// Why a subscription ended, carried in [`StreamFrame::Close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The subscriber cancelled voluntarily.
    Cancelled,
    /// The streamed object was closed or deleted at the owner.
    ObjectClosed,
    /// The owner gave up on an unreachable subscriber.
    SubscriberLost,
}

/// Frames of the cross-node subscription protocol (PCSI streaming).
///
/// These share the store codec's writer/reader (and therefore the
/// pooled `BytesMut` buffers and zero-copy payload views) but travel on
/// their own fabric services, so their op-code space is independent of
/// [`Request`]/[`Response`].
///
/// [`StreamFrame::Push`] deliberately does **not** carry a subscription
/// id: per-subscription routing rides the fabric service name, so one
/// encoded push frame is byte-identical for every subscriber of the
/// same event and fan-out is `Bytes::clone` per peer, not re-encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFrame {
    /// Consumer → owner: open a subscription on a FIFO/socket object.
    Subscribe {
        /// The streamed object.
        id: ObjectId,
        /// Subscription id, allocated by the consumer (unique per
        /// consumer node).
        sub: u64,
        /// Initial credit window: the owner may push this many frames
        /// before stalling for a [`StreamFrame::Grant`].
        window: u32,
    },
    /// Consumer → owner: report consumption, replenishing credits.
    ///
    /// Carries the **cumulative** consumed count rather than an
    /// increment, so a grant retransmitted after a dropped reply (or
    /// fault-duplicated in flight) is idempotent: the owner takes the
    /// max, and credits can never inflate past what the consumer
    /// actually drained. Incremental grants double-apply under exactly
    /// those faults and let the owner overrun the consumer's buffer.
    Grant {
        /// Target subscription.
        sub: u64,
        /// Total frames the consumer has consumed since subscribing.
        consumed: u64,
    },
    /// Owner → consumer: one streamed event.
    Push {
        /// Event sequence number (contiguous per subscription).
        seq: u64,
        /// Virtual-time nanoseconds when the producer appended the
        /// event — the consumer derives per-frame latency from it.
        ts_ns: u64,
        /// The event payload.
        payload: Bytes,
    },
    /// Either direction: the subscription is over.
    Close {
        /// Target subscription.
        sub: u64,
        /// Why it ended.
        reason: CloseReason,
    },
}

/// Acknowledgement for subscribe/grant/push/close deliveries.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamReply {
    /// Accepted.
    Ok,
    /// Rejected (unknown object, wrong kind, unknown subscription...).
    Err(WireError),
}

/// Encodes a stream frame.
pub fn encode_stream_frame(frame: &StreamFrame) -> Bytes {
    let mut w = Writer::new();
    match frame {
        StreamFrame::Subscribe { id, sub, window } => {
            w.u8(0);
            w.id(*id);
            w.u64(*sub);
            w.u32(*window);
        }
        StreamFrame::Grant { sub, consumed } => {
            w.u8(1);
            w.u64(*sub);
            w.u64(*consumed);
        }
        StreamFrame::Push {
            seq,
            ts_ns,
            payload,
        } => {
            w.u8(2);
            w.u64(*seq);
            w.u64(*ts_ns);
            w.bytes(payload);
        }
        StreamFrame::Close { sub, reason } => {
            w.u8(3);
            w.u64(*sub);
            w.u8(match reason {
                CloseReason::Cancelled => 0,
                CloseReason::ObjectClosed => 1,
                CloseReason::SubscriberLost => 2,
            });
        }
    }
    w.finish()
}

/// Decodes a stream frame. The push payload comes back as a zero-copy
/// view of `buf`'s backing buffer.
pub fn decode_stream_frame(buf: &Bytes) -> Result<StreamFrame, CodecError> {
    let mut r = Reader::new(buf);
    let frame = match r.u8()? {
        0 => StreamFrame::Subscribe {
            id: r.id()?,
            sub: r.u64()?,
            window: r.u32()?,
        },
        1 => StreamFrame::Grant {
            sub: r.u64()?,
            consumed: r.u64()?,
        },
        2 => StreamFrame::Push {
            seq: r.u64()?,
            ts_ns: r.u64()?,
            payload: r.bytes()?,
        },
        3 => StreamFrame::Close {
            sub: r.u64()?,
            reason: match r.u8()? {
                0 => CloseReason::Cancelled,
                1 => CloseReason::ObjectClosed,
                2 => CloseReason::SubscriberLost,
                b => return Err(CodecError(format!("bad close reason {b}"))),
            },
        },
        b => return Err(CodecError(format!("bad stream frame op {b}"))),
    };
    r.done()?;
    Ok(frame)
}

/// Encodes a stream reply.
pub fn encode_stream_reply(reply: &StreamReply) -> Bytes {
    let mut w = Writer::new();
    match reply {
        StreamReply::Ok => w.u8(0),
        StreamReply::Err(e) => {
            w.u8(1);
            write_wire_error(&mut w, e);
        }
    }
    w.finish()
}

/// Decodes a stream reply.
pub fn decode_stream_reply(buf: &Bytes) -> Result<StreamReply, CodecError> {
    let mut r = Reader::new(buf);
    let reply = match r.u8()? {
        0 => StreamReply::Ok,
        1 => StreamReply::Err(read_wire_error(&mut r)?),
        b => return Err(CodecError(format!("bad stream reply op {b}"))),
    };
    r.done()?;
    Ok(reply)
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

    #[test]
    fn stream_frames_roundtrip() {
        let frames = vec![
            StreamFrame::Subscribe {
                id: oid(7),
                sub: 0x0001_0000_0000_002a,
                window: 16,
            },
            StreamFrame::Grant {
                sub: 9,
                consumed: 8,
            },
            StreamFrame::Push {
                seq: 41,
                ts_ns: 123_456_789,
                payload: Bytes::from_static(b"2026-08-08 event"),
            },
            StreamFrame::Push {
                seq: 0,
                ts_ns: 0,
                payload: Bytes::new(),
            },
            StreamFrame::Close {
                sub: 9,
                reason: CloseReason::Cancelled,
            },
            StreamFrame::Close {
                sub: 10,
                reason: CloseReason::ObjectClosed,
            },
            StreamFrame::Close {
                sub: 11,
                reason: CloseReason::SubscriberLost,
            },
        ];
        for f in frames {
            let wire = encode_stream_frame(&f);
            assert_eq!(decode_stream_frame(&wire).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn stream_replies_roundtrip() {
        let replies = vec![
            StreamReply::Ok,
            StreamReply::Err(WireError::NotFound(oid(3))),
            StreamReply::Err(WireError::Other("no such subscription".into())),
        ];
        for rep in replies {
            let wire = encode_stream_reply(&rep);
            assert_eq!(decode_stream_reply(&wire).unwrap(), rep, "{rep:?}");
        }
    }

    #[test]
    fn stream_frame_truncation_detected() {
        let frames = vec![
            StreamFrame::Subscribe {
                id: oid(7),
                sub: 1,
                window: 4,
            },
            StreamFrame::Push {
                seq: 2,
                ts_ns: 3,
                payload: Bytes::from_static(b"payload"),
            },
            StreamFrame::Close {
                sub: 1,
                reason: CloseReason::SubscriberLost,
            },
        ];
        for f in frames {
            let wire = encode_stream_frame(&f);
            for cut in 0..wire.len() {
                assert!(
                    decode_stream_frame(&wire.slice(..cut)).is_err(),
                    "{f:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn stream_frame_junk_rejected() {
        // Unknown frame op.
        assert!(decode_stream_frame(&Bytes::from_static(&[99])).is_err());
        // Unknown close reason.
        let mut close = encode_stream_frame(&StreamFrame::Close {
            sub: 1,
            reason: CloseReason::Cancelled,
        })
        .to_vec();
        *close.last_mut().unwrap() = 77;
        assert!(decode_stream_frame(&Bytes::from(close)).is_err());
        // Trailing bytes.
        let mut wire = encode_stream_frame(&StreamFrame::Grant {
            sub: 1,
            consumed: 1,
        })
        .to_vec();
        wire.push(0);
        assert!(decode_stream_frame(&Bytes::from(wire)).is_err());
        // Replies: bad op and trailing bytes.
        assert!(decode_stream_reply(&Bytes::from_static(&[9])).is_err());
        let mut rep = encode_stream_reply(&StreamReply::Ok).to_vec();
        rep.push(0);
        assert!(decode_stream_reply(&Bytes::from(rep)).is_err());
    }

    #[test]
    fn push_payload_is_zero_copy() {
        let wire = encode_stream_frame(&StreamFrame::Push {
            seq: 1,
            ts_ns: 2,
            payload: Bytes::from_static(b"shared-view"),
        });
        let StreamFrame::Push { payload, .. } = decode_stream_frame(&wire).unwrap() else {
            panic!("wrong frame");
        };
        // The decoded payload must view the wire buffer, not copy it.
        let wire_ptr = wire.as_ptr() as usize;
        let payload_ptr = payload.as_ptr() as usize;
        assert!(payload_ptr >= wire_ptr && payload_ptr < wire_ptr + wire.len());
    }
}
