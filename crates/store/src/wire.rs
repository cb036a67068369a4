//! The storage replication protocol codec: a compact binary format (the
//! "non-REST implementation of existing APIs" of §2.1) whose byte counts
//! feed the fabric's bandwidth model.
//!
//! This module owns the frames, [`Request`] and [`Response`], and the
//! store's field types. A [`Response::Err`] carries the [`PcsiError`] in
//! `pcsi-core`'s codec ([`PcsiError::encode`]), a mutability its byte
//! ([`Mutability::encode`]). Bytes go through the workspace's one frame
//! cursor, [`pcsi_proto::binary`]: frames are built in pooled buffers,
//! payloads decode as views of the frame, and a frame whose payload a
//! receiver may keep is finished exactly sized.

use bytes::Bytes;
use pcsi_core::{Mutability, ObjectId, PcsiError};
use pcsi_proto::binary::{DecodeError, Prefix::U32 as LEN, Reader, Writer};

use crate::engine::{Mutation, StoredObject};
use crate::version::Tag;

/// Requests understood by a replica node.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Client → replica: coordinate a mutation.
    Coordinate {
        /// Target object.
        id: ObjectId,
        /// The mutation.
        mutation: Mutation,
        /// Replicas (the coordinator included) that must hold the write
        /// before success: a majority or more runs a ballot round, 1 an
        /// eventual write.
        sync_replicas: u32,
        /// Store-unique request id, the same on every retry and failover
        /// of one client operation. Replicas record it with the state
        /// that contains it, and a coordinator applies the mutation only
        /// to a state whose records lack it: a duplicate or a retry
        /// re-accepts the state holding it instead of applying it twice.
        req_id: u64,
        /// Absolute virtual-time expiry of this attempt (ns, 0 for none).
        /// Past it the client has moved on and may have succeeded
        /// elsewhere, so the coordinator must not order the mutation.
        expires_ns: u64,
    },
    /// Coordinator → replica: accept at `tag` the state `mutation` makes
    /// of the one at `base`. A replica applies it only on exactly `base`
    /// and, in a `round`, at or above its promise; anything else gets
    /// [`Response::Stale`], no ack, and a [`Request::Push`] of the whole
    /// state if it is merely behind.
    Apply {
        /// Target object.
        id: ObjectId,
        /// The ballot: the tag the state gets.
        tag: Tag,
        /// The tag of the state the mutation applies to.
        base: Tag,
        /// An accept of a linearizable round, held to the promise; an
        /// eventual write's fan-out is not (the newest tag wins).
        round: bool,
        /// The mutation.
        mutation: Mutation,
        /// The coordination's `req_id` (0: none), recorded with the state.
        req_id: u64,
    },
    /// Coordinator → replica: a round's first phase. Promise `ballot` and
    /// report the state held: whole ([`Response::Object`]) when live and
    /// newer than `have`, else its tag ([`Response::TagIs`]; newer than
    /// `have`, a tombstone). [`Response::Stale`] if it cannot promise.
    Prepare {
        /// Target object.
        id: ObjectId,
        /// The ballot to promise.
        ballot: Tag,
        /// The newest tag the coordinator holds.
        have: Tag,
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
    /// Fetch the replica state (anti-entropy, write-back, a migration's
    /// snapshot): whole ([`Response::Object`]) when live, else its tag
    /// ([`Response::TagIs`]: a tombstone's, or zero). A frozen object's
    /// fetch also promises the seal's lowest ballot, one sequence number
    /// above the tag held with writer `u32::MAX`.
    Fetch {
        /// Target object.
        id: ObjectId,
    },
    /// List `(id, tag)` inventory (anti-entropy exchange).
    Inventory,
    /// One-RTT quorum read: the newest local tag and, within
    /// `inline_limit`, the bytes (else [`Response::TagIs`] and the client
    /// reads the newest replica with [`Request::Read`]).
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
    /// Install a full object state at its tag (a read's write-back, a
    /// coordinator's repair). The receiver takes it when the tag is
    /// newer than its state and not below its promise, and answers
    /// [`Response::Applied`] then and when it holds exactly that tag,
    /// [`Response::Stale`] otherwise.
    Push {
        /// Target object.
        id: ObjectId,
        /// The state to install.
        object: StoredObject,
        /// `(req_id, tag)` of the client requests `object` contains,
        /// installed with it.
        reqs: Vec<(u64, Tag)>,
    },
    /// Migration driver → new owner: install a shard move's sealed
    /// snapshot, under the topology epoch the driver routed by (a
    /// receiver on another answers [`Response::WrongEpoch`]).
    Migrate {
        /// Topology epoch the sender routed under.
        epoch: u64,
        /// Target object.
        id: ObjectId,
        /// The sealed snapshot to install.
        object: StoredObject,
        /// The snapshot's request records (see [`Request::Push::reqs`]).
        reqs: Vec<(u64, Tag)>,
        /// Install a tombstone at `object.tag` instead: the move found a
        /// committed delete newer than any live state.
        tombstone: bool,
    },
}

/// Replies from a replica node.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The write holds at the required replicas.
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
        /// Mutability level: whether the bytes may be cached node-locally.
        mutability: Mutability,
        /// Stable-prefix length (the object's size): bounds append-only
        /// prefix caching.
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
        /// Its request records (see [`Request::Push::reqs`]).
        reqs: Vec<(u64, Tag)>,
    },
    /// Inventory listing.
    InventoryIs {
        /// `(id, tag)` pairs in the responder's engine order, not sorted.
        entries: Vec<(ObjectId, Tag)>,
    },
    /// A refusal, never an ack. To an `Apply`, `Prepare` or `Push`:
    /// `newest` is the higher of the tag accepted and the ballot
    /// promised; at or below the sender's ballot the receiver is behind
    /// or on another line (a `Push` repairs it), above it the ballot lost.
    /// To a `Migrate`: the receiver holds a tag above the seal.
    Stale {
        /// The receiver's newest accepted or promised tag.
        newest: Tag,
    },
    /// A [`Request::Migrate`] under another topology epoch was refused.
    WrongEpoch {
        /// The receiver's current topology epoch.
        current: u64,
    },
    /// A PCSI-level error.
    Err(PcsiError),
}

// ---- the store's field types over the shared cursor ----------------------

fn write_id(w: &mut Writer, id: ObjectId) {
    w.u128(id.as_u128());
}

fn write_tag(w: &mut Writer, t: Tag) {
    w.u64(t.seq);
    w.u32(t.writer);
}

fn write_mutation(w: &mut Writer, m: &Mutation) {
    match m {
        Mutation::PutFull { data, mutability } => {
            w.u8(0);
            mutability.encode(w);
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
            to.encode(w);
        }
        Mutation::Delete => w.u8(4),
    }
}

/// A full replica state and the request ledger that travels with it.
fn write_state(w: &mut Writer, object: &StoredObject, reqs: &[(u64, Tag)]) {
    write_tag(w, object.tag);
    object.mutability.encode(w);
    w.u64(object.stable_len);
    w.bytes(LEN, &object.data);
    w.count(LEN, reqs.len());
    for &(req_id, tag) in reqs {
        w.u64(req_id);
        write_tag(w, tag);
    }
}

fn read_id(r: &mut Reader) -> Result<ObjectId, DecodeError> {
    Ok(ObjectId::from_u128(r.u128()?))
}

fn read_tag(r: &mut Reader) -> Result<Tag, DecodeError> {
    Ok(Tag {
        seq: r.u64()?,
        writer: r.u32()?,
    })
}

fn read_bool(r: &mut Reader) -> Result<bool, DecodeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(DecodeError::BadTag(b)),
    }
}

fn read_mutation(r: &mut Reader) -> Result<Mutation, DecodeError> {
    Ok(match r.u8()? {
        0 => {
            let mutability = Mutability::decode(r)?;
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
            to: Mutability::decode(r)?,
        },
        4 => Mutation::Delete,
        b => return Err(DecodeError::BadTag(b)),
    })
}

fn read_state(r: &mut Reader) -> Result<(StoredObject, Vec<(u64, Tag)>), DecodeError> {
    let tag = read_tag(r)?;
    let mutability = Mutability::decode(r)?;
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

/// Encodes a request. A trace context is not part of the frame: it
/// rides the fabric's call beside it.
pub fn encode_request(req: &Request) -> Bytes {
    let mut w = Writer::with_capacity(64);
    write_request(&mut w, req);
    finish(
        w,
        matches!(
            req,
            Request::Apply { .. } | Request::Push { .. } | Request::Migrate { .. }
        ),
    )
}

/// Finishes a frame. A receiver may keep a payload field past the
/// frame's life — an engine stores an applied or installed object's
/// bytes, a cache admits a read's — and a kept view pins its whole
/// buffer, which for a pooled frame may have grown far past the frame
/// (up to the pool's 64 KiB cap). So a frame carrying such a payload
/// moves into a buffer of exactly its length; the pooled one is recycled.
fn finish(w: Writer, kept: bool) -> Bytes {
    let frame = w.finish();
    if kept {
        Bytes::copy_from_slice(&frame)
    } else {
        frame
    }
}

/// The [`Request::Apply`] frame that replicates `mutation` at `tag` on
/// `base`, and the mutation again with its payload a view of the frame's
/// own copy. A coordinator applies the returned mutation and fans the
/// frame out, so every replica of the write keeps a view of one
/// allocation.
pub(crate) fn apply_frame(
    (id, tag, base): (ObjectId, Tag, Tag),
    round: bool,
    mutation: &Mutation,
    req_id: u64,
) -> (Bytes, Mutation) {
    let apply = Request::Apply {
        id,
        tag,
        base,
        round,
        mutation: mutation.clone(),
        req_id,
    };
    let mut local = mutation.clone();
    let frame = encode_request(&apply);
    if let Mutation::PutFull { data, .. }
    | Mutation::WriteAt { data, .. }
    | Mutation::Append { data } = &mut local
    {
        // The payload is the request's last field.
        let view = frame.slice(frame.len() - data.len()..);
        debug_assert_eq!(view, *data);
        *data = view;
    }
    (frame, local)
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
            base,
            round,
            mutation,
            req_id,
        } => {
            w.u8(1);
            write_id(w, *id);
            write_tag(w, *tag);
            write_tag(w, *base);
            w.u8(u8::from(*round));
            w.u64(*req_id);
            write_mutation(w, mutation);
        }
        Request::Read { id, offset, len } => {
            w.u8(2);
            write_id(w, *id);
            w.u64(*offset);
            w.u64(*len);
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
        Request::Prepare { id, ballot, have } => {
            w.u8(9);
            write_id(w, *id);
            write_tag(w, *ballot);
            write_tag(w, *have);
        }
    }
}

/// Decodes a request. Payload fields come back as zero-copy views of
/// `buf`'s backing buffer.
pub fn decode_request(buf: &Bytes) -> Result<Request, DecodeError> {
    let mut r = Reader::new(buf);
    let req = read_request(&mut r)?;
    r.finish()?;
    Ok(req)
}

fn read_request(r: &mut Reader) -> Result<Request, DecodeError> {
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
            base: read_tag(r)?,
            round: read_bool(r)?,
            req_id: r.u64()?,
            mutation: read_mutation(r)?,
        },
        2 => Request::Read {
            id: read_id(r)?,
            offset: r.u64()?,
            len: r.u64()?,
        },
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
            let tombstone = read_bool(r)?;
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
        9 => Request::Prepare {
            id: read_id(r)?,
            ballot: read_tag(r)?,
            have: read_tag(r)?,
        },
        b => return Err(DecodeError::BadTag(b)),
    })
}

// ---- response ----

/// Encodes a response.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut w = Writer::with_capacity(match resp {
        // Op, count, then a 16-byte id and a 12-byte tag per entry.
        Response::InventoryIs { entries } => 5 + 28 * entries.len(),
        _ => 64,
    });
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
            mutability.encode(&mut w);
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
        Response::WrongEpoch { current } => {
            w.u8(10);
            w.u64(*current);
        }
        Response::Err(e) => {
            w.u8(7);
            e.encode(&mut w);
        }
    }
    finish(
        w,
        matches!(resp, Response::Data { .. } | Response::Object { .. }),
    )
}

/// Decodes a response. Payload fields come back as zero-copy views of
/// `buf`'s backing buffer.
pub fn decode_response(buf: &Bytes) -> Result<Response, DecodeError> {
    let mut r = Reader::new(buf);
    let resp = match r.u8()? {
        0 => Response::Coordinated {
            tag: read_tag(&mut r)?,
        },
        1 => Response::Applied,
        2 => Response::Data {
            tag: read_tag(&mut r)?,
            mutability: Mutability::decode(&mut r)?,
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
        6 => {
            // An inventory entry is a 16-byte id and a 12-byte tag.
            let n = r.count(LEN, 28)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((read_id(&mut r)?, read_tag(&mut r)?));
            }
            Response::InventoryIs { entries }
        }
        7 => Response::Err(PcsiError::decode(&mut r)?),
        8 => Response::Stale {
            newest: read_tag(&mut r)?,
        },
        10 => Response::WrongEpoch { current: r.u64()? },
        b => return Err(DecodeError::BadTag(b)),
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
                base: Tag { seq: 8, writer: 3 },
                round: true,
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
                base: Tag::ZERO,
                round: false,
                mutation: Mutation::SetMutability {
                    to: Mutability::Immutable,
                },
                req_id: 0,
            },
            Request::Apply {
                id: oid(8),
                tag: Tag { seq: 2, writer: 1 },
                base: Tag { seq: 1, writer: 4 },
                round: true,
                mutation: Mutation::Append {
                    data: Bytes::from_static(b"entry"),
                },
                req_id: u64::MAX,
            },
            Request::Prepare {
                id: oid(12),
                ballot: Tag { seq: 7, writer: 2 },
                have: Tag { seq: 5, writer: 1 },
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
            Response::InventoryIs {
                entries: vec![
                    (oid(1), Tag { seq: 1, writer: 0 }),
                    (oid(2), Tag { seq: 4, writer: 2 }),
                ],
            },
            Response::Err(PcsiError::NotFound(oid(9))),
            Response::Err(PcsiError::MutabilityViolation {
                id: oid(10),
                level: Mutability::Immutable,
                op: "write",
            }),
            Response::Err(PcsiError::InvalidMutabilityTransition {
                from: Mutability::Immutable,
                to: Mutability::Mutable,
            }),
            Response::Err(PcsiError::QuorumUnavailable { needed: 2, got: 1 }),
            Response::Err(PcsiError::Fault("boom".into())),
            Response::Err(PcsiError::BadPayload("offset overflows".into())),
            Response::Stale {
                newest: Tag { seq: 12, writer: 4 },
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

    /// `apply_frame` sends the bytes an `Apply` always encoded to, and
    /// hands back the same mutation with its payload a view of that
    /// frame.
    #[test]
    fn apply_frame_is_the_apply_encoding_and_its_payload_a_view_of_it() {
        let data = Bytes::from_static(b"payload");
        let mutations = [
            Mutation::PutFull {
                data: data.clone(),
                mutability: Mutability::Mutable,
            },
            Mutation::WriteAt {
                offset: 3,
                data: data.clone(),
            },
            Mutation::Append { data },
            Mutation::Delete,
        ];
        let (tag, base) = (Tag { seq: 2, writer: 1 }, Tag { seq: 1, writer: 1 });
        for mutation in &mutations {
            let (frame, local) = apply_frame((oid(1), tag, base), true, mutation, 9);
            let apply = Request::Apply {
                id: oid(1),
                tag,
                base,
                round: true,
                mutation: mutation.clone(),
                req_id: 9,
            };
            assert_eq!(frame, encode_request(&apply));
            assert_eq!(&local, mutation);
            if let Mutation::PutFull { data, .. }
            | Mutation::WriteAt { data, .. }
            | Mutation::Append { data } = &local
            {
                assert!(frame.as_ptr_range().contains(&data.as_ptr()), "{local:?}");
            }
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut wire = encode_request(&Request::Inventory).to_vec();
        wire.push(0);
        assert!(decode_request(&Bytes::from(wire)).is_err());
    }

    /// The six variants a peer sends arrive as themselves; any other
    /// crosses as a `Fault` carrying its display text.
    #[test]
    fn pcsi_errors_roundtrip() {
        let carried = vec![
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
            PcsiError::Fault("node 2 no longer replicates".into()),
            PcsiError::BadPayload("write range overflows at offset 9".into()),
        ];
        let arrives = |e: PcsiError| {
            let Response::Err(back) = decode_response(&encode_response(&Response::Err(e))).unwrap()
            else {
                panic!("not an error reply");
            };
            back
        };
        for e in carried {
            assert_eq!(arrives(e.clone()), e);
        }
        assert_eq!(
            arrives(PcsiError::Timeout),
            PcsiError::Fault("operation timed out".into())
        );
    }

    #[test]
    fn bad_bytes_rejected() {
        assert!(decode_request(&Bytes::from_static(&[99])).is_err());
        assert!(decode_response(&Bytes::from_static(&[99])).is_err());
        assert!(decode_response(&Bytes::new()).is_err());
        // An unknown error code or mutability byte is a bad tag.
        assert_eq!(
            decode_response(&Bytes::from_static(&[7, 6])),
            Err(DecodeError::BadTag(6))
        );
        assert_eq!(
            decode_response(&Bytes::from_static(&[7, 2, 4, 0])),
            Err(DecodeError::BadTag(4))
        );
    }

    /// The bytes these frames had before the codec moved onto the shared
    /// cursor: a replica built from the parent commit reads them still.
    #[test]
    fn frames_encode_to_the_pinned_bytes() {
        use pcsi_proto::hash::hex;

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
        assert_eq!(
            hex(&encode_request(&req)),
            "00e2b7bfde784a30220200000000000000020000000700000000000000\
             090000000000000000020500000068656c6c6f"
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
        // Error replies, one per code a replica sent before `BadPayload`
        // had its own.
        let errors = [
            (
                PcsiError::NotFound(oid(9)),
                "0700d8edfe497683973b0200000000000000",
            ),
            (
                PcsiError::MutabilityViolation {
                    id: oid(10),
                    level: Mutability::Immutable,
                    op: "write",
                },
                "070161821fd95904a927020000000000000003050000007772697465",
            ),
            (
                PcsiError::InvalidMutabilityTransition {
                    from: Mutability::Immutable,
                    to: Mutability::Mutable,
                },
                "07020300",
            ),
            (
                PcsiError::QuorumUnavailable { needed: 2, got: 1 },
                "07030200000001000000",
            ),
            (PcsiError::Fault("boom".into()), "070404000000626f6f6d"),
        ];
        for (e, pinned) in errors {
            assert_eq!(hex(&encode_response(&Response::Err(e))), pinned);
        }
    }
}
