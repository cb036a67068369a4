//! The stateful baseline: an NFS-like file service (§2.1).
//!
//! The paper's concrete data point: "fetching a 1KB object via the NFS
//! protocol takes 1.5 ms and costs 0.003 USD/M ... whereas fetching the
//! same data from DynamoDB takes 4.3 ms and costs 0.18 USD/M." The
//! structural difference is statefulness: an NFS client authenticates
//! once at mount time, gets a session, and then exchanges lean binary
//! messages referencing file handles — no HTTP, no JSON, no per-request
//! signature. Per operation the server burns ~`NFS_OP_CPU` of CPU
//! versus the REST gateway's ~180 µs (see `crate::rest`).
//!
//! The server is a single node with local NVMe (an appliance, not a
//! replicated cloud service) — which is also why it is cheaper and not
//! what you build a warehouse-scale system from; the paper's point is
//! that the *interface* cost gap is real, not that NFS should win.

use fxhash::FxHashMap;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{Mutability, ObjectId, PcsiError};
use pcsi_metrics::Metrics;
use pcsi_net::fabric::CallCtx;
use pcsi_net::{Fabric, NodeId, Transport};
use pcsi_obs::Telemetry;
use pcsi_proto::binary::{DecodeError, Prefix::U32 as LEN, Reader, Writer};
use pcsi_store::engine::{MediaTier, Mutation, StorageEngine};
use pcsi_store::version::Tag;
use pcsi_trace::{SpanHandle, TraceContext, Tracer};

use crate::billing::{Billing, Meter};

/// Server CPU per NFS operation (binary protocol decode + handle lookup).
pub(crate) const NFS_OP_CPU: Duration = Duration::from_micros(3);

/// Mount-time CPU (one-time credential verification).
pub(crate) const MOUNT_CPU: Duration = Duration::from_micros(200);

/// A file handle (stateful: meaningful only within a session).
pub(crate) type FileHandle = u64;

/// NFS protocol operations (compact binary encoding).
#[derive(Debug, Clone, PartialEq)]
enum NfsOp {
    /// Authenticate and open a session.
    Mount { secret: Vec<u8> },
    /// Resolve a name to a handle (creating the file if asked).
    Lookup {
        session: u64,
        name: String,
        create: bool,
    },
    /// Read a byte range.
    Read {
        session: u64,
        handle: FileHandle,
        offset: u64,
        len: u64,
    },
    /// Write a byte range.
    Write {
        session: u64,
        handle: FileHandle,
        offset: u64,
        data: Bytes,
    },
}

#[derive(Debug, Clone, PartialEq)]
enum NfsReply {
    Mounted { session: u64 },
    Handle { handle: FileHandle },
    Data { data: Bytes },
    Written { new_size: u64 },
    Error { code: u8, message: String },
}

// Error codes.
const E_AUTH: u8 = 1;
const E_SESSION: u8 = 2;
const E_NOENT: u8 = 3;
const E_IO: u8 = 4;

fn encode_op(op: &NfsOp) -> Bytes {
    let mut w = Writer::with_capacity(64);
    match op {
        NfsOp::Mount { secret } => {
            w.u8(0);
            w.bytes(LEN, secret);
        }
        NfsOp::Lookup {
            session,
            name,
            create,
        } => {
            w.u8(1);
            w.u64(*session);
            w.u8(u8::from(*create));
            w.str(LEN, name);
        }
        NfsOp::Read {
            session,
            handle,
            offset,
            len,
        } => {
            w.u8(2);
            w.u64(*session);
            w.u64(*handle);
            w.u64(*offset);
            w.u64(*len);
        }
        NfsOp::Write {
            session,
            handle,
            offset,
            data,
        } => {
            w.u8(3);
            w.u64(*session);
            w.u64(*handle);
            w.u64(*offset);
            w.bytes(LEN, data);
        }
    }
    w.finish()
}

fn decode_op(buf: &[u8]) -> Result<NfsOp, DecodeError> {
    let mut r = Reader::over(buf);
    let op = match r.u8()? {
        0 => {
            let n = r.count(LEN, 1)?;
            NfsOp::Mount {
                secret: r.take(n)?.to_vec(),
            }
        }
        1 => {
            let session = r.u64()?;
            let create = r.u8()? != 0;
            NfsOp::Lookup {
                session,
                name: r.str(LEN)?,
                create,
            }
        }
        2 => NfsOp::Read {
            session: r.u64()?,
            handle: r.u64()?,
            offset: r.u64()?,
            len: r.u64()?,
        },
        3 => NfsOp::Write {
            session: r.u64()?,
            handle: r.u64()?,
            offset: r.u64()?,
            data: r.bytes(LEN)?,
        },
        b => return Err(DecodeError::BadTag(b)),
    };
    r.finish()?;
    Ok(op)
}

fn encode_reply(reply: &NfsReply) -> Bytes {
    let mut w = Writer::with_capacity(32);
    match reply {
        NfsReply::Mounted { session } => {
            w.u8(0);
            w.u64(*session);
        }
        NfsReply::Handle { handle } => {
            w.u8(1);
            w.u64(*handle);
        }
        NfsReply::Data { data } => {
            w.u8(2);
            w.bytes(LEN, data);
        }
        NfsReply::Written { new_size } => {
            w.u8(3);
            w.u64(*new_size);
        }
        NfsReply::Error { code, message } => {
            w.u8(4);
            w.u8(*code);
            w.str(LEN, message);
        }
    }
    w.finish()
}

fn decode_reply(buf: &[u8]) -> Result<NfsReply, DecodeError> {
    let mut r = Reader::over(buf);
    let reply = match r.u8()? {
        0 => NfsReply::Mounted { session: r.u64()? },
        1 => NfsReply::Handle { handle: r.u64()? },
        2 => NfsReply::Data {
            data: r.bytes(LEN)?,
        },
        3 => NfsReply::Written { new_size: r.u64()? },
        4 => NfsReply::Error {
            code: r.u8()?,
            message: r.str(LEN)?,
        },
        b => return Err(DecodeError::BadTag(b)),
    };
    r.finish()?;
    Ok(reply)
}

struct ServerState {
    engine: StorageEngine,
    sessions: FxHashMap<u64, String>, // session -> account
    handles: FxHashMap<FileHandle, ObjectId>,
    names: FxHashMap<String, FileHandle>,
    next_session: u64,
    next_handle: FileHandle,
    next_file: u64,
    next_tag: u64,
}

/// The deployed NFS-like server.
#[derive(Clone)]
pub struct NfsServer {
    inner: Rc<Server>,
}

/// The server's node, what it serves with and its one mutable state:
/// one value the fabric handler and every client share.
struct Server {
    fabric: Fabric,
    node: NodeId,
    billing: Billing,
    secret: Vec<u8>,
    tracer: Option<Tracer>,
    metrics: Option<Metrics>,
    state: RefCell<ServerState>,
}

impl NfsServer {
    /// Deploys the server on `node` with local NVMe and one authorized
    /// secret. With a registry in `telemetry` the server counts every
    /// operation (`nfs.ops{op=…}` / `nfs.errors{op=…}`) and records
    /// server-side latency (`nfs.op_ns{op=…}`); with a tracer, client
    /// and server open spans.
    pub(crate) fn deploy(
        fabric: Fabric,
        billing: Billing,
        node: NodeId,
        secret: &[u8],
        telemetry: &Telemetry,
    ) -> Self {
        let server = Rc::new(Server {
            fabric: fabric.clone(),
            node,
            billing,
            secret: secret.to_vec(),
            tracer: telemetry.tracer.clone(),
            metrics: telemetry.metrics.clone(),
            state: RefCell::new(ServerState {
                engine: StorageEngine::new(MediaTier::Nvme),
                sessions: FxHashMap::default(),
                handles: FxHashMap::default(),
                names: FxHashMap::default(),
                next_session: 1,
                next_handle: 1,
                next_file: 1,
                next_tag: 1,
            }),
        });
        let inner = Rc::clone(&server);
        let handler = Rc::new(move |payload, ctx: CallCtx| {
            let server = Rc::clone(&inner);
            async move { Ok(encode_reply(&server.serve(payload, ctx.trace).await)) }
        });
        fabric.bind(node, "nfs", handler);
        NfsServer { inner: server }
    }

    /// Mounts from `from`, returning a session-scoped client.
    pub async fn mount(
        &self,
        from: NodeId,
        secret: &[u8],
        account: &str,
    ) -> Result<NfsClient, PcsiError> {
        // The mount message carries only the secret; the account is
        // recorded server-side once the server has opened the session.
        let reply = self
            .call(
                from,
                &NfsOp::Mount {
                    secret: secret.to_vec(),
                },
            )
            .await?;
        match reply {
            NfsReply::Mounted { session } => {
                let mut s = self.inner.state.borrow_mut();
                s.sessions.insert(session, account.to_owned());
                Ok(NfsClient {
                    server: self.clone(),
                    from,
                    session,
                })
            }
            NfsReply::Error { message, .. } => {
                let denied = PcsiError::AccessDenied {
                    id: ObjectId::NIL,
                    needed: pcsi_core::Rights::READ,
                    held: pcsi_core::Rights::NONE,
                };
                Err(PcsiError::Fault(format!("{denied}: {message}")))
            }
            other => Err(PcsiError::BadPayload(format!("unexpected reply {other:?}"))),
        }
    }

    async fn call(&self, from: NodeId, op: &NfsOp) -> Result<NfsReply, PcsiError> {
        let inner = &self.inner;
        let span = pcsi_trace::child_or_root(&inner.tracer, None, "nfs.request");
        let transport_span = span.span("nfs.transport");
        let raw = inner
            .fabric
            .call_traced(
                from,
                inner.node,
                "nfs",
                Transport::Tcp,
                encode_op(op),
                transport_span.ctx(),
            )
            .await
            .map_err(|e| PcsiError::Fault(e.to_string()))?;
        transport_span.finish();
        span.finish();
        decode_reply(&raw).map_err(|_| PcsiError::BadPayload("bad NFS reply".into()))
    }
}

/// Counts one served NFS operation and records its server-side latency.
/// A no-op when metrics are off.
fn record_nfs_op(metrics: &Option<Metrics>, op: &str, reply: &NfsReply, elapsed: Duration) {
    if let Some(m) = metrics {
        let labels = [("op", op)];
        m.counter("nfs.ops", &labels).incr();
        if matches!(reply, NfsReply::Error { .. }) {
            m.counter("nfs.errors", &labels).incr();
        }
        m.histogram("nfs.op_ns", &labels).record_duration(elapsed);
    }
}

impl Server {
    async fn serve(&self, payload: Bytes, trace: Option<TraceContext>) -> NfsReply {
        let span = pcsi_trace::child_of(&self.tracer, trace, "nfs.server");
        let h = self.fabric.handle();
        let started = h.now();
        let Ok(op) = decode_op(&payload) else {
            let reply = NfsReply::Error {
                code: E_IO,
                message: "malformed request".into(),
            };
            record_nfs_op(&self.metrics, "-", &reply, h.now() - started);
            return reply;
        };
        let name = match &op {
            NfsOp::Mount { .. } => "mount",
            NfsOp::Lookup { .. } => "lookup",
            NfsOp::Read { .. } => "read",
            NfsOp::Write { .. } => "write",
        };
        let reply = self.dispatch(op, &span).await;
        record_nfs_op(&self.metrics, name, &reply, h.now() - started);
        span.finish();
        reply
    }

    async fn dispatch(&self, op: NfsOp, span: &SpanHandle) -> NfsReply {
        let h = self.fabric.handle();
        let mut meter = Meter::new(h, Duration::ZERO);
        match op {
            NfsOp::Mount { secret } => {
                // One-time authentication; subsequent ops ride the session.
                // Unbilled: the client records the session's account after
                // the reply.
                let auth_span = span.span("nfs.auth");
                meter.spend(MOUNT_CPU).await;
                auth_span.finish();
                if !pcsi_proto::hash::ct_eq(&secret, &self.secret) {
                    return NfsReply::Error {
                        code: E_AUTH,
                        message: "bad credentials".into(),
                    };
                }
                let mut s = self.state.borrow_mut();
                let session = s.next_session;
                s.next_session += 1;
                s.sessions.entry(session).or_insert_with(|| "nfs".into());
                NfsReply::Mounted { session }
            }
            NfsOp::Lookup {
                session,
                name,
                create,
            } => {
                if let Err(stale) = self.open_op(meter, session, span).await {
                    return stale;
                }
                let mut s = self.state.borrow_mut();
                if let Some(&handle) = s.names.get(&name) {
                    return NfsReply::Handle { handle };
                }
                if !create {
                    return NfsReply::Error {
                        code: E_NOENT,
                        message: name,
                    };
                }
                let id = ObjectId::from_parts(0x4E46_5321, s.next_file); // "NFS!" realm.
                s.next_file += 1;
                let tag = Tag {
                    seq: s.next_tag,
                    writer: 0,
                };
                s.next_tag += 1;
                s.engine
                    .apply(
                        id,
                        tag,
                        &Mutation::PutFull {
                            data: Bytes::new(),
                            mutability: Mutability::Mutable,
                        },
                    )
                    .expect("create cannot violate mutability");
                let handle = s.next_handle;
                s.next_handle += 1;
                s.handles.insert(handle, id);
                s.names.insert(name, handle);
                NfsReply::Handle { handle }
            }
            NfsOp::Read {
                session,
                handle,
                offset,
                len,
            } => {
                if let Err(stale) = self.open_op(meter, session, span).await {
                    return stale;
                }
                let (result, io_time) = {
                    let s = self.state.borrow();
                    let Some(&id) = s.handles.get(&handle) else {
                        return NfsReply::Error {
                            code: E_NOENT,
                            message: format!("handle {handle}"),
                        };
                    };
                    let result = s.engine.read(id, offset, len);
                    let io = s
                        .engine
                        .tier()
                        .io_time(result.as_ref().map(|d| d.len()).unwrap_or(0));
                    (result, io)
                };
                let io_span = span.span("nfs.io");
                h.sleep(io_time).await;
                io_span.finish();
                match result {
                    Ok(data) => NfsReply::Data { data },
                    Err(e) => NfsReply::Error {
                        code: E_IO,
                        message: e.to_string(),
                    },
                }
            }
            NfsOp::Write {
                session,
                handle,
                offset,
                data,
            } => {
                if let Err(stale) = self.open_op(meter, session, span).await {
                    return stale;
                }
                let io = {
                    let s = self.state.borrow();
                    s.engine.tier().io_time(data.len())
                };
                let io_span = span.span("nfs.io");
                h.sleep(io).await;
                io_span.finish();
                let mut s = self.state.borrow_mut();
                let Some(&id) = s.handles.get(&handle) else {
                    return NfsReply::Error {
                        code: E_NOENT,
                        message: format!("handle {handle}"),
                    };
                };
                let tag = Tag {
                    seq: s.next_tag,
                    writer: 0,
                };
                s.next_tag += 1;
                match s.engine.apply(id, tag, &Mutation::WriteAt { offset, data }) {
                    Ok(()) => NfsReply::Written {
                        new_size: s.engine.get(id).map(|o| o.data.len() as u64).unwrap_or(0),
                    },
                    Err(e) => NfsReply::Error {
                        code: E_IO,
                        message: e.to_string(),
                    },
                }
            }
        }
    }

    /// What every op on a session does first: spends the op's CPU under an
    /// `nfs.op` span and bills it to the session's account. A stale session
    /// is refused, unbilled.
    async fn open_op(
        &self,
        mut meter: Meter,
        session: u64,
        span: &SpanHandle,
    ) -> Result<(), NfsReply> {
        let op_span = span.span("nfs.op");
        meter.spend(NFS_OP_CPU).await;
        op_span.finish();
        let Some(account) = self.state.borrow().sessions.get(&session).cloned() else {
            return Err(NfsReply::Error {
                code: E_SESSION,
                message: "stale session".into(),
            });
        };
        meter.bill(&self.billing, &account);
        Ok(())
    }
}

/// A mounted NFS client session.
pub struct NfsClient {
    server: NfsServer,
    from: NodeId,
    session: u64,
}

impl NfsClient {
    /// Resolves (optionally creating) a file, returning its handle.
    pub async fn lookup(&self, name: &str, create: bool) -> Result<FileHandle, PcsiError> {
        match self
            .server
            .call(
                self.from,
                &NfsOp::Lookup {
                    session: self.session,
                    name: name.to_owned(),
                    create,
                },
            )
            .await?
        {
            NfsReply::Handle { handle } => Ok(handle),
            NfsReply::Error {
                code: E_NOENT,
                message,
            } => Err(PcsiError::NameNotFound(message)),
            other => Err(PcsiError::BadPayload(format!("unexpected reply {other:?}"))),
        }
    }

    /// Reads a byte range.
    pub async fn read(
        &self,
        handle: FileHandle,
        offset: u64,
        len: u64,
    ) -> Result<Bytes, PcsiError> {
        match self
            .server
            .call(
                self.from,
                &NfsOp::Read {
                    session: self.session,
                    handle,
                    offset,
                    len,
                },
            )
            .await?
        {
            NfsReply::Data { data } => Ok(data),
            NfsReply::Error { message, .. } => Err(PcsiError::Fault(message)),
            other => Err(PcsiError::BadPayload(format!("unexpected reply {other:?}"))),
        }
    }

    /// Writes a byte range.
    pub async fn write(
        &self,
        handle: FileHandle,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, PcsiError> {
        match self
            .server
            .call(
                self.from,
                &NfsOp::Write {
                    session: self.session,
                    handle,
                    offset,
                    data: Bytes::copy_from_slice(data),
                },
            )
            .await?
        {
            NfsReply::Written { new_size } => Ok(new_size),
            NfsReply::Error { message, .. } => Err(PcsiError::Fault(message)),
            other => Err(PcsiError::BadPayload(format!("unexpected reply {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_net::{LatencyModel, NetworkGeneration, Topology};
    use pcsi_sim::Sim;

    fn deploy(sim: &Sim) -> (NfsServer, Billing) {
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(2, 2),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let billing = Billing::new();
        let server = NfsServer::deploy(
            fabric,
            billing.clone(),
            NodeId(3),
            b"nfs-secret",
            &Telemetry::default(),
        );
        (server, billing)
    }

    proptest::proptest! {
        /// Frames come from the peer: whatever a client puts on the `nfs`
        /// service and whatever comes back. Arbitrary bytes, and a valid
        /// frame of every kind with any one byte changed, decode or are
        /// refused — never panic — and what decodes is the whole frame.
        #[test]
        fn frame_decode_never_panics(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..128),
            at in proptest::prelude::any::<u64>(),
            to in proptest::prelude::any::<u8>(),
        ) {
            let ops = [
                NfsOp::Mount { secret: b"nfs-secret".to_vec() },
                NfsOp::Lookup { session: 7, name: "data.bin".into(), create: true },
                NfsOp::Read { session: 7, handle: 3, offset: 16, len: 1024 },
                NfsOp::Write { session: 7, handle: 3, offset: 0, data: Bytes::from_static(b"hello") },
            ];
            let replies = [
                NfsReply::Mounted { session: 7 },
                NfsReply::Handle { handle: 3 },
                NfsReply::Data { data: Bytes::from_static(b"hello") },
                NfsReply::Written { new_size: 5 },
                NfsReply::Error { code: E_NOENT, message: "no such file".into() },
            ];
            let valid = ops.iter().map(encode_op).chain(replies.iter().map(encode_reply));
            let corrupted = valid.map(|frame| {
                let mut bytes = frame.to_vec();
                let at = (at % bytes.len() as u64) as usize;
                bytes[at] = to;
                bytes
            });
            for bytes in corrupted.chain([raw]) {
                // (A boolean decodes from any nonzero byte, so only the
                // length is the same.)
                if let Ok(op) = decode_op(&bytes) {
                    proptest::prop_assert_eq!(encode_op(&op).len(), bytes.len());
                }
                if let Ok(reply) = decode_reply(&bytes) {
                    proptest::prop_assert_eq!(encode_reply(&reply).len(), bytes.len());
                }
            }
        }
    }

    #[test]
    fn mount_lookup_write_read() {
        let mut sim = Sim::new(13);
        let (server, billing) = deploy(&sim);
        let got = sim.block_on(async move {
            let c = server
                .mount(NodeId(0), b"nfs-secret", "acct")
                .await
                .unwrap();
            let fh = c.lookup("data.bin", true).await.unwrap();
            c.write(fh, 0, b"hello nfs").await.unwrap();
            // Handles are stable across lookups.
            assert_eq!(c.lookup("data.bin", false).await.unwrap(), fh);
            c.read(fh, 0, 100).await.unwrap()
        });
        assert_eq!(&got[..], b"hello nfs");
        assert!(billing.invoice("acct").compute > 0.0);
    }

    /// A failed mount leaves no session behind: a client naming session
    /// 0 is refused, not served and billed to the failed mounter.
    #[test]
    fn bad_secret_rejected_at_mount() {
        let mut sim = Sim::new(13);
        let (server, billing) = deploy(&sim);
        let (err, intruder_billed) = sim.block_on(async move {
            let owner = server
                .mount(NodeId(0), b"nfs-secret", "owner")
                .await
                .unwrap();
            let fh = owner.lookup("f", true).await.unwrap();
            owner.write(fh, 0, b"secret bytes").await.unwrap();
            assert!(server.mount(NodeId(1), b"wrong", "intruder").await.is_err());
            let session_zero = NfsClient {
                server: server.clone(),
                from: NodeId(1),
                session: 0,
            };
            let err = session_zero.read(fh, 0, 64).await.unwrap_err();
            (err, billing.invoice("intruder").compute > 0.0)
        });
        assert!(
            matches!(&err, PcsiError::Fault(m) if m == "stale session"),
            "{err:?}"
        );
        assert!(!intruder_billed, "a refused read was billed");
    }

    /// A session's account is billed its ops' CPU, found or not, and
    /// nothing for the mount that opened it.
    #[test]
    fn an_account_is_billed_op_cpu_per_op_and_nothing_for_its_mount() {
        let mut sim = Sim::new(13);
        let (server, billing) = deploy(&sim);
        let (at_mount, compute) = sim.block_on(async move {
            let c = server.mount(NodeId(0), b"nfs-secret", "acct").await;
            let at_mount = billing.invoice("acct");
            let c = c.unwrap();
            let fh = c.lookup("f", true).await.unwrap();
            c.write(fh, 0, b"hello").await.unwrap();
            c.read(fh, 0, 5).await.unwrap();
            c.lookup("ghost", false).await.unwrap_err();
            (at_mount, billing.invoice("acct").compute)
        });
        assert_eq!(at_mount, crate::billing::Invoice::default());
        let one_core = pcsi_faas::registry::rate(&pcsi_net::node::Resources::cpu(1, 0));
        let billed_ns = (compute / one_core * 1e9).round() as u128;
        assert_eq!(billed_ns, 4 * NFS_OP_CPU.as_nanos());
    }

    #[test]
    fn missing_file_and_stale_session() {
        let mut sim = Sim::new(13);
        let (server, _) = deploy(&sim);
        sim.block_on(async move {
            let c = server
                .mount(NodeId(0), b"nfs-secret", "acct")
                .await
                .unwrap();
            assert!(matches!(
                c.lookup("ghost", false).await,
                Err(PcsiError::NameNotFound(_))
            ));
            // Forged session.
            let forged = NfsClient {
                server: server.clone(),
                from: NodeId(0),
                session: 999,
            };
            let fh = 1;
            assert!(forged.read(fh, 0, 1).await.is_err());
        });
    }

    #[test]
    fn codec_roundtrips() {
        let ops = vec![
            NfsOp::Mount {
                secret: b"s".to_vec(),
            },
            NfsOp::Lookup {
                session: 7,
                name: "file".into(),
                create: true,
            },
            NfsOp::Read {
                session: 7,
                handle: 3,
                offset: 10,
                len: 20,
            },
            NfsOp::Write {
                session: 7,
                handle: 3,
                offset: 0,
                data: Bytes::from_static(b"xyz"),
            },
        ];
        for op in ops {
            assert_eq!(decode_op(&encode_op(&op)).unwrap(), op, "{op:?}");
        }
        let replies = vec![
            NfsReply::Mounted { session: 1 },
            NfsReply::Handle { handle: 2 },
            NfsReply::Data {
                data: Bytes::from_static(b"d"),
            },
            NfsReply::Written { new_size: 9 },
            NfsReply::Error {
                code: E_IO,
                message: "x".into(),
            },
        ];
        for r in replies {
            assert_eq!(decode_reply(&encode_reply(&r)).unwrap(), r, "{r:?}");
        }
        assert!(decode_op(&[]).is_err());
        assert!(decode_op(&[9]).is_err());
        assert!(decode_reply(&[9]).is_err());
    }

    /// The frames as the parent of the shared cursor wrote them, and the
    /// same frames with their length field claiming 4 GiB.
    #[test]
    fn frames_encode_to_the_pinned_bytes_and_forged_lengths_are_refused() {
        use pcsi_proto::hash::hex;

        let write = encode_op(&NfsOp::Write {
            session: 7,
            handle: 3,
            offset: 16,
            data: Bytes::from_static(b"hello"),
        });
        assert_eq!(
            hex(&write),
            "030700000000000000030000000000000010000000000000000500000068656c6c6f"
        );
        let error = encode_reply(&NfsReply::Error {
            code: E_NOENT,
            message: "no such file".into(),
        });
        assert_eq!(hex(&error), "04030c0000006e6f20737563682066696c65");

        let mut forged = write.to_vec();
        forged[25..29].fill(0xFF);
        assert_eq!(decode_op(&forged), Err(DecodeError::Truncated));
        let mut forged = error.to_vec();
        forged[2..6].fill(0xFF);
        assert_eq!(decode_reply(&forged), Err(DecodeError::Truncated));
    }

    #[test]
    fn nfs_read_is_about_one_rtt_plus_io() {
        let mut sim = Sim::new(13);
        let (server, _) = deploy(&sim);
        let h = sim.handle();
        let elapsed = sim.block_on({
            let h = h.clone();
            async move {
                let c = server.mount(NodeId(0), b"nfs-secret", "a").await.unwrap();
                let fh = c.lookup("f", true).await.unwrap();
                c.write(fh, 0, &vec![1u8; 1024]).await.unwrap();
                let t0 = h.now();
                c.read(fh, 0, 1024).await.unwrap();
                h.now() - t0
            }
        });
        // RTT 200us + sockets 20us + NFS op 3us + NVMe ~20us: ~245us,
        // and certainly well under half of the REST path's time.
        assert!(
            elapsed > Duration::from_micros(220) && elapsed < Duration::from_micros(300),
            "NFS GET took {elapsed:?}"
        );
    }
}
