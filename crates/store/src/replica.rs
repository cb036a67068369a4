//! The storage replica service: one [`ReplicaNode`] per storage node
//! owns the node's [`StorageEngine`] and serves the [`crate::wire`]
//! protocol. It coordinates the writes clients send it (a linearizable
//! one is a ballot round, `round.rs`; an eventual one is fanned out
//! without waiting), accepts and promises as a replica, serves reads, and
//! runs anti-entropy with a random peer so replicas converge after lost
//! messages.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use fxhash::FxHashMap;

use bytes::Bytes;
use pcsi_core::{Mutability, ObjectId, PcsiError};
use pcsi_metrics::{Counter, Histogram};
use pcsi_net::fabric::{CallCtx, NetError, Reply};
use pcsi_net::{Fabric, NodeId, Transport};
use pcsi_obs::Telemetry;
use pcsi_sim::sync::oneshot;
use pcsi_sim::SimTime;
use pcsi_trace::{SpanHandle, TraceContext, Tracer};

use crate::engine::{MediaTier, Mutation, StorageEngine, StoredObject};
use crate::placement::Placement;
use crate::quorum::{gather, rpc, Classified};
use crate::round::{accept, highest, plan, verdict, Accept, Ballots, Verdict};
use crate::version::Tag;
use crate::wire::{self, Request, Response};

/// Service name replicas bind on the fabric.
pub(crate) const STORE_SERVICE: &str = "pcsi-store";

/// Transport used for intra-store traffic (kernel-bypass).
pub(crate) const STORE_TRANSPORT: Transport = Transport::Rdma;

/// A storage replica bound to one node.
#[derive(Clone)]
pub struct ReplicaNode {
    inner: Rc<Inner>,
}

struct Inner {
    node: NodeId,
    fabric: Fabric,
    placement: Placement,
    engine: RefCell<StorageEngine>,
    /// The coordinations queued behind the one running, per object. See
    /// [`Turn`].
    turns: RefCell<FxHashMap<ObjectId, VecDeque<oneshot::Sender<()>>>>,
    /// When the node's storage device is next idle: [`book_io`] queues
    /// behind it, so one node's operations contend for its bandwidth.
    io_free_at: Cell<SimTime>,
    coordinated: Counter,
    applied: Counter,
    reads: Counter,
    fetched: Counter,
    synced_in: Counter,
    repaired: Counter,
    migrated_in: Counter,
    /// Acks per won round, this node included (with metrics on).
    quorum_acks: Option<Histogram>,
    /// The store's tracer: server spans nest under the client's attempt.
    tracer: Option<Tracer>,
}

impl ReplicaNode {
    /// Creates the replica and binds its service on the fabric; with
    /// metrics on, its counters are published as per-node series.
    pub(crate) fn start(
        fabric: Fabric,
        placement: Placement,
        node: NodeId,
        tier: MediaTier,
        telemetry: &Telemetry,
    ) -> Self {
        let mut inner = Inner {
            node,
            fabric: fabric.clone(),
            placement,
            engine: RefCell::new(StorageEngine::new(tier)),
            turns: RefCell::default(),
            io_free_at: Cell::new(SimTime::ZERO),
            coordinated: Counter::new(),
            applied: Counter::new(),
            reads: Counter::new(),
            fetched: Counter::new(),
            synced_in: Counter::new(),
            repaired: Counter::new(),
            migrated_in: Counter::new(),
            quorum_acks: None,
            tracer: telemetry.tracer.clone(),
        };
        if let Some(m) = &telemetry.metrics {
            let node = node.0.to_string();
            let labels = [("node", node.as_str())];
            m.bind_counter("replica.coordinated", &labels, &inner.coordinated);
            m.bind_counter("replica.applied", &labels, &inner.applied);
            m.bind_counter("replica.reads", &labels, &inner.reads);
            m.bind_counter("replica.fetched", &labels, &inner.fetched);
            m.bind_counter("replica.synced_in", &labels, &inner.synced_in);
            m.bind_counter("replica.repaired", &labels, &inner.repaired);
            m.bind_counter("replica.migrated_in", &labels, &inner.migrated_in);
            inner.quorum_acks = Some(m.histogram("replica.quorum_acks", &labels));
        }
        let inner = Rc::new(inner);
        let handler = Rc::clone(&inner);
        fabric.bind(
            node,
            STORE_SERVICE,
            Rc::new(move |payload, ctx: CallCtx| handle(Rc::clone(&handler), payload, ctx.trace)),
        );
        ReplicaNode { inner }
    }

    /// The node this replica runs on.
    pub(crate) fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Direct engine access for GC sweeps and white-box tests.
    pub fn with_engine<T>(&self, f: impl FnOnce(&mut StorageEngine) -> T) -> T {
        f(&mut self.inner.engine.borrow_mut())
    }

    /// Mutations this node was asked to coordinate.
    pub fn coordinated_count(&self) -> u64 {
        self.inner.coordinated.get()
    }

    /// Read-repair pushes received, whether installed or refused as no
    /// newer than the local state.
    pub fn repaired_count(&self) -> u64 {
        self.inner.repaired.get()
    }

    /// Full-object fetches served (anti-entropy pulls, write-back reads).
    pub fn fetched_count(&self) -> u64 {
        self.inner.fetched.get()
    }

    /// Spawns the periodic anti-entropy task (runs for the simulation's
    /// lifetime). `interval` is jittered ±20% per round to avoid lockstep.
    pub(crate) fn start_anti_entropy(&self, interval: Duration) {
        let inner = Rc::clone(&self.inner);
        let h = self.inner.fabric.handle().clone();
        h.clone().spawn(async move {
            let rng = h.rng().stream("anti-entropy");
            loop {
                let jitter = 0.8 + 0.4 * rng.f64();
                h.sleep(interval.mul_f64(jitter)).await;
                anti_entropy_round(&inner).await;
            }
        });
    }

    /// Runs one anti-entropy exchange immediately (tests).
    pub async fn anti_entropy_once(&self) {
        anti_entropy_round(&self.inner).await;
    }
}

/// This node's rounds on one object take turns, so each builds on the
/// state the last one left and a duplicate finds its original's record.
/// Dropping the turn hands it to the next round queued behind. A queued
/// round holds its turn from the moment it is handed over, so one
/// dropped before it claims the turn passes it on too.
struct Turn<'a> {
    inner: &'a Inner,
    id: ObjectId,
    /// Where the turn arrives while this round waits for it.
    queued: Option<oneshot::Receiver<()>>,
}

impl<'a> Turn<'a> {
    async fn take(inner: &'a Inner, id: ObjectId) -> Turn<'a> {
        let queued = inner.turns.borrow_mut().get_mut(&id).map(|queue| {
            let (tx, rx) = oneshot::channel();
            queue.push_back(tx);
            rx
        });
        if queued.is_none() {
            inner.turns.borrow_mut().insert(id, VecDeque::new());
        }
        let mut turn = Turn { inner, id, queued };
        if let Some(rx) = &mut turn.queued {
            let _ = rx.await;
            turn.queued = None;
        }
        turn
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        if let Some(mut rx) = self.queued.take() {
            // Dropped while queued: pass on only a turn handed over.
            let noop = &mut Context::from_waker(Waker::noop());
            if !matches!(Pin::new(&mut rx).poll(noop), Poll::Ready(Ok(()))) {
                return;
            }
        }
        let mut turns = self.inner.turns.borrow_mut();
        if let Some(queue) = turns.get_mut(&self.id) {
            // A waiter whose coordination was dropped no longer listens.
            while let Some(next) = queue.pop_front() {
                if next.send(()).is_ok() {
                    return;
                }
            }
        }
        turns.remove(&self.id);
    }
}

/// Books the media time of an operation touching `bytes` on this node's
/// serial device, FIFO behind the IO already booked, and returns when it
/// is done: an uncontended operation ends `io_time(bytes)` from now.
fn book_io(inner: &Inner, bytes: usize) -> SimTime {
    let t = inner.engine.borrow().tier().io_time(bytes);
    let end = inner.io_free_at.get().max(inner.fabric.handle().now()) + t;
    inner.io_free_at.set(end);
    end
}

/// Sleeps out [`book_io`]'s media time, where state changes after the IO
/// and the caller's work goes on after it.
async fn charge_io(inner: &Inner, bytes: usize) {
    let end = book_io(inner, bytes);
    inner.fabric.handle().sleep_until(end).await;
}

/// The reply of a handler whose state changes once its IO, booked to end
/// at `end`, is done: `change` runs then, in the event that starts the
/// reply's hop (no task is woken for it), and the span ends with it.
fn after_io(span: SpanHandle, end: SimTime, change: impl FnOnce() -> Response + 'static) -> Reply {
    Reply::later(end, move || {
        let response = change();
        span.finish();
        wire::encode_response(&response)
    })
}

/// The server-side span name for a request kind.
fn request_span_name(req: &Request) -> &'static str {
    match req {
        Request::Coordinate { .. } => "replica.coordinate",
        Request::Apply { .. } => "replica.apply",
        Request::Prepare { .. } => "replica.prepare",
        Request::Read { .. } | Request::ReadWithTag { .. } => "replica.read",
        Request::Fetch { .. } => "replica.fetch",
        Request::Inventory => "replica.inventory",
        Request::Push { .. } => "replica.push",
        Request::Migrate { .. } => "replica.migrate",
    }
}

/// Serves one store request, its span a child of the caller's `ctx`.
/// Never a transport error: a bad frame is answered with one.
async fn handle(
    inner: Rc<Inner>,
    payload: Bytes,
    ctx: Option<TraceContext>,
) -> Result<Reply, NetError> {
    let request = match wire::decode_request(&payload) {
        Ok(r) => r,
        Err(e) => {
            let e = PcsiError::Fault(format!("storage wire codec error: {e}"));
            return Ok(wire::encode_response(&Response::Err(e)).into());
        }
    };
    let mut span = pcsi_trace::child_of(&inner.tracer, ctx, request_span_name(&request));
    span.attr("node", u64::from(inner.node.0));
    let child_ctx = span.ctx();
    let mut leaves = SimTime::ZERO;
    let mut served = |(response, io_done)| {
        leaves = io_done;
        response
    };
    let response = match request {
        Request::Coordinate {
            id,
            mutation,
            sync_replicas,
            req_id,
            expires_ns,
        } => {
            let write = (id, mutation, req_id);
            coordinate(&inner, write, sync_replicas, expires_ns, child_ctx).await
        }
        Request::Apply {
            id,
            tag,
            base,
            round,
            mutation,
            req_id,
        } => {
            let end = book_io(&inner, mutation_bytes(&mutation));
            return Ok(after_io(span, end, move || {
                // An eventual write is held to nothing: the newest tag wins.
                let held = held(&inner, id, round);
                let floor = if round { held.floor() } else { Tag::ZERO };
                offer(&inner, id, (held.accepted, floor), (tag, base), |engine| {
                    engine.apply(id, tag, &mutation)?;
                    inner.applied.incr();
                    engine.record(id, req_id, tag);
                    Ok(())
                })
            }));
        }
        Request::Prepare { id, ballot, have } => {
            // A promise takes the state held, on the rule an accept does.
            let held = held(&inner, id, true);
            if let Some(refusal) = gate(&inner, id) {
                refusal
            } else if accept(held.accepted, held.floor(), ballot, held.accepted) != Accept::Take {
                let newest = held.accepted.max(held.floor());
                Response::Stale { newest }
            } else {
                inner.engine.borrow_mut().promise(id, ballot);
                served(report(&inner, id, have))
            }
        }
        Request::Read { id, offset, len } => {
            // A post-flip old owner serves nothing: the retryable error
            // sends the client back to the current replica set.
            if effective_member(&inner, id) {
                served(read_local(&inner, id, offset, len, u64::MAX, false))
            } else {
                stale_route(&inner, id)
            }
        }
        Request::ReadWithTag {
            id,
            offset,
            len,
            inline_limit,
        } => {
            if effective_member(&inner, id) {
                served(read_local(&inner, id, offset, len, inline_limit, true))
            } else {
                stale_route(&inner, id)
            }
        }
        Request::Fetch { id } => {
            // A frozen object's fetch is a migration's snapshot: the
            // seal's lowest ballot is promised to it, so a write after a
            // failed move prepares above any seal that move left behind.
            let tag = inner.engine.borrow().tag_of(id);
            if inner.placement.is_frozen(id) && tag != Tag::ZERO {
                inner.engine.borrow_mut().promise(id, tag.next(u32::MAX));
            }
            let reply = served(report(&inner, id, Tag::ZERO));
            if matches!(reply, Response::Object { .. }) {
                inner.fetched.incr();
            }
            reply
        }
        Request::Inventory => Response::InventoryIs {
            entries: inner.engine.borrow().inventory(),
        },
        Request::Push { id, object, reqs } => {
            let end = book_io(&inner, object.data.len());
            return Ok(after_io(span, end, move || {
                inner.repaired.incr();
                // Held to the promise alone.
                let (held, tag) = (held(&inner, id, false), object.tag);
                offer(
                    &inner,
                    id,
                    (held.accepted, held.promised),
                    (tag, held.accepted),
                    |engine| {
                        engine.sync_in(id, object, reqs, false);
                        Ok(())
                    },
                )
            }));
        }
        Request::Migrate {
            epoch,
            id,
            object,
            reqs,
            tombstone,
        } => {
            let end = book_io(&inner, object.data.len());
            return Ok(after_io(span, end, move || {
                migrate_install(&inner, epoch, id, object, reqs, tombstone)
            }));
        }
    };
    span.finish_at(leaves);
    Ok(Reply::at(leaves, wire::encode_response(&response)))
}

/// True when this node is in the *effective* replica set of `id` (the
/// pinned old owners mid-migration, the ring owners otherwise).
fn effective_member(inner: &Inner, id: ObjectId) -> bool {
    inner.placement.is_replica(id, inner.node)
}

/// A promise's report of the state `id` holds: whole when it is live and
/// newer than `have`, else its tag (a tombstone's, or zero). With the
/// instant its read of the media is done (past when it reads none).
fn report(inner: &Inner, id: ObjectId, have: Tag) -> (Response, SimTime) {
    let state = inner.engine.borrow().state(id);
    match state.filter(|(object, _)| object.tag > have) {
        Some((object, reqs)) => {
            let done = book_io(inner, object.data.len());
            (Response::Object { object, reqs }, done)
        }
        None => {
            let tag = inner.engine.borrow().tag_of(id);
            (Response::TagIs { tag }, SimTime::ZERO)
        }
    }
}

/// An acceptor's answer to a state offered at `ballot` on `base`, by
/// [`accept`] against `accepted` and `floor`; `take` installs it. No
/// await runs between the checks and `take`.
fn offer(
    inner: &Inner,
    id: ObjectId,
    (accepted, floor): (Tag, Tag),
    (ballot, base): (Tag, Tag),
    take: impl FnOnce(&mut StorageEngine) -> Result<(), PcsiError>,
) -> Response {
    if let Some(refusal) = gate(inner, id) {
        return refusal;
    }
    match accept(accepted, floor, ballot, base) {
        Accept::Have => Response::Applied,
        Accept::Take => match take(&mut inner.engine.borrow_mut()) {
            Ok(()) => Response::Applied,
            Err(e) => Response::Err(e),
        },
        Accept::Refuse(newest) => Response::Stale { newest },
    }
}

/// The refusal of a round's message, or of a push, while `id` is frozen
/// mid-migration (an ack would commit a write the snapshot cannot see)
/// or here outside its effective replica set (a post-flip old owner,
/// whose ack no future quorum consults).
fn gate(inner: &Inner, id: ObjectId) -> Option<Response> {
    if inner.placement.is_frozen(id) {
        Some(frozen(id))
    } else {
        (!effective_member(inner, id)).then(|| stale_route(inner, id))
    }
}

/// The retryable rejection for a request routed under a stale replica set.
fn stale_route(inner: &Inner, id: ObjectId) -> Response {
    Response::Err(PcsiError::Fault(format!(
        "node {} no longer replicates {id:?} (epoch {})",
        inner.node,
        inner.placement.epoch()
    )))
}

/// The retryable refusal for an object frozen mid-migration.
fn frozen(id: ObjectId) -> Response {
    Response::Err(PcsiError::Fault(format!(
        "{id:?} is frozen for shard migration"
    )))
}

/// Installs a migration's seal on a new owner: only under the sender's
/// topology epoch ([`Response::WrongEpoch`] otherwise), only on a *ring*
/// owner, and only when no newer tag is held here ([`Response::Stale`]:
/// a zombie line, or a late duplicate; the driver re-seals above it).
/// The seal is an accepted ballot that promises the next one to the new
/// primary, whose first write after the flip then needs no prepare.
fn migrate_install(
    inner: &Inner,
    epoch: u64,
    id: ObjectId,
    object: StoredObject,
    reqs: Vec<(u64, Tag)>,
    tombstone: bool,
) -> Response {
    let current = inner.placement.epoch();
    if epoch != current {
        return Response::WrongEpoch { current };
    }
    if !inner.placement.ring_replicas(id).contains(&inner.node) {
        return stale_route(inner, id);
    }
    let newest = inner.engine.borrow().tag_of(id);
    if newest > object.tag {
        return Response::Stale { newest };
    }
    // With `tombstone` the move found a majority-committed delete newer
    // than any live state it fetched: the tombstone itself lands (at the
    // seal tag), so a stale old owner can never resurrect the object
    // through anti-entropy inventory pulls.
    let seal = object.tag;
    let primary = inner.placement.ring_replicas(id)[0];
    let mut engine = inner.engine.borrow_mut();
    engine.sync_in(id, object, reqs, tombstone);
    engine.promise(id, seal.next(primary.0));
    inner.migrated_in.incr();
    Response::Applied
}

/// Serves a local read, with the instant its media time is done (past
/// when it reads none). For a one-RTT quorum read (`absent_as_tag`) an
/// absent object answers its tag (a tombstone's, else zero) so the reply
/// still counts, and a payload above `inline_limit` degrades to its tag.
fn read_local(
    inner: &Inner,
    id: ObjectId,
    offset: u64,
    len: u64,
    inline_limit: u64,
    absent_as_tag: bool,
) -> (Response, SimTime) {
    let found = inner.engine.borrow().get(id).map(|o| {
        let data = o.slice(offset, len);
        (o.tag, o.mutability, o.stable_len, data)
    });
    let Some((tag, mutability, stable_len, data)) = found else {
        let reply = if absent_as_tag {
            // Report the tombstone-aware tag: a deleted object's death
            // tag must outrank any stale replica's live tag in the
            // quorum max, otherwise a one-RTT read could resurrect it.
            Response::TagIs {
                tag: inner.engine.borrow().tag_of(id),
            }
        } else {
            Response::Err(PcsiError::NotFound(id))
        };
        return (reply, SimTime::ZERO);
    };
    if data.len() as u64 > inline_limit {
        return (Response::TagIs { tag }, SimTime::ZERO);
    }
    let done = book_io(inner, data.len());
    inner.reads.incr();
    let reply = Response::Data {
        tag,
        mutability,
        stable_len,
        data,
    };
    (reply, done)
}

/// Approximate payload size of a mutation, for IO accounting.
fn mutation_bytes(m: &Mutation) -> usize {
    match m {
        Mutation::PutFull { data, .. } => data.len(),
        Mutation::WriteAt { data, .. } => data.len(),
        Mutation::Append { data } => data.len(),
        Mutation::SetMutability { .. } | Mutation::Delete => 16,
    }
}

/// The refusal of an attempt whose expiry (`expires_ns`, 0: none) has
/// passed: its client has moved on, maybe to another coordinator.
fn expired(inner: &Inner, id: ObjectId, expires_ns: u64, when: &str) -> Option<Response> {
    let past = expires_ns != 0 && inner.fabric.handle().now().as_nanos() > expires_ns;
    let refusal = || PcsiError::Fault(format!("attempt for {id:?} expired {when}"));
    past.then(|| Response::Err(refusal()))
}

/// `id`'s ballots here. For a `round`, an object this node holds
/// nothing of has promised its first ballot to its placement primary,
/// so a fresh object's first write needs no prepare.
fn held(inner: &Inner, id: ObjectId, round: bool) -> Ballots {
    let stored = inner.engine.borrow().ballots(id);
    let (accepted, promised) = match stored {
        Some(ballots) => ballots,
        None if round => (Tag::ZERO, Tag::ZERO.next(inner.placement.primary(id).0)),
        None => (Tag::ZERO, Tag::ZERO),
    };
    Ballots { accepted, promised }
}

/// Coordinates the client write `(id, mutation, req_id)` here, the
/// primary or, after a failover, any replica. A linearizable one
/// (`sync_replicas` a majority or more) is a ballot round; an
/// eventual one is ordered on this node's state and fanned out without
/// waiting.
async fn coordinate(
    inner: &Rc<Inner>,
    (id, mutation, req_id): (ObjectId, Mutation, u64),
    sync_replicas: u32,
    expires_ns: u64,
    ctx: Option<TraceContext>,
) -> Response {
    if let Some(refusal) = expired(inner, id, expires_ns, "before coordination started") {
        return refusal;
    }
    if inner.placement.is_frozen(id) {
        return frozen(id);
    }
    let replicas = inner.placement.replicas(id);
    if !replicas.contains(&inner.node) {
        return Response::Err(PcsiError::Fault(format!(
            "node {} does not replicate {id:?} (replicas are {replicas:?})",
            inner.node
        )));
    }
    inner.coordinated.incr();
    let peers: Vec<NodeId> = replicas.into_iter().filter(|&n| n != inner.node).collect();
    let need = (sync_replicas.saturating_sub(1) as usize).min(peers.len());
    charge_io(inner, mutation_bytes(&mutation)).await;
    let (me, write) = (inner.node.0, (id, &mutation, req_id));
    if need == 0 {
        // A request this node's state holds is done.
        if let Some(tag) = inner.engine.borrow().recorded(id, req_id) {
            return Response::Coordinated { tag };
        }
        let held = held(inner, id, false);
        let (ballot, base) = (held.accepted.max(held.promised).next(me), held.accepted);
        return match order(inner, write, (ballot, base), false, expires_ns) {
            Ok(frame) => {
                let _ = replicate(inner, (id, ballot), (frame, ctx), &peers, 0).await;
                Response::Coordinated { tag: ballot }
            }
            Err(refusal) => refusal,
        };
    }
    let _turn = Turn::take(inner, id).await;
    // A coordination queued past its expiry does no work.
    if let Some(refusal) = expired(inner, id, expires_ns, "before its turn") {
        return refusal;
    }
    let mut got = 1;
    let raise = |newest| inner.engine.borrow_mut().promise(id, newest);
    // A skipped prepare, or a prepare, that lost to a higher ballot is
    // tried once more, prepared above it.
    for _ in 0..2 {
        let held = held(inner, id, true);
        let (ballot, skip) = plan(held, me);
        // A request the won state here holds is done.
        if let Some(tag) = inner.engine.borrow().recorded(id, req_id).filter(|_| skip) {
            return Response::Coordinated { tag };
        }
        if !skip {
            // A majority's promises, though a delete accepts at all.
            let quorum = inner.placement.majority() - 1;
            match prepare(inner, id, (ballot, held.accepted), &peers, quorum).await {
                Ok(()) => {}
                Err(Some(newest)) => {
                    raise(newest);
                    continue;
                }
                Err(None) => break,
            }
        }
        // The mutation applies only to a state that lacks the request;
        // one that holds it is re-accepted unchanged: a transition to its
        // own mutability level, or a delete of a deleted object.
        let (base, same) = {
            let engine = inner.engine.borrow();
            let same = engine.recorded(id, req_id).map(|_| match engine.get(id) {
                Some(object) => Mutation::SetMutability {
                    to: object.mutability,
                },
                None => Mutation::Delete,
            });
            (engine.tag_of(id), same)
        };
        let write = (id, same.as_ref().unwrap_or(&mutation), req_id);
        let frame = match order(inner, write, (ballot, base), true, expires_ns) {
            Ok(frame) => frame,
            Err(refusal) => return refusal,
        };
        match replicate(inner, (id, ballot), (frame, ctx), &peers, need).await {
            Ok(()) => {
                // Every ack promised this node's next ballot with the state
                // at `ballot`: unless this node promised another since, its
                // next write skips the prepare.
                let mut engine = inner.engine.borrow_mut();
                if matches!(engine.ballots(id), Some((a, p)) if a == ballot && p <= ballot) {
                    engine.promise(id, ballot.next(me));
                }
                return Response::Coordinated { tag: ballot };
            }
            Err((acked, lost)) => {
                got = acked;
                match lost {
                    Some(newest) => raise(newest),
                    None => break,
                }
            }
        }
    }
    let needed = need + 1;
    Response::Err(PcsiError::QuorumUnavailable { needed, got })
}

/// A round's first phase: `ballot` promised by `need` peers, then by
/// this node, which adopts the highest state the promises reported
/// (CASPaxos's prepare, DESIGN §4.3). Nothing awaits between the last
/// promise, the adoption and the caller's local accept. `Err` carries
/// the newest ballot a refusal named, if one did.
async fn prepare(
    inner: &Rc<Inner>,
    id: ObjectId,
    (ballot, have): (Tag, Tag),
    peers: &[NodeId],
    need: usize,
) -> Result<(), Option<Tag>> {
    let frame = wire::encode_request(&Request::Prepare { id, ballot, have });
    let classify = move |_, reply| {
        Classified::Now(match reply {
            Ok(Response::Object { object, reqs }) => Ok((object.tag, Some((object, reqs)))),
            // A newer tag without a state is a tombstone.
            Ok(Response::TagIs { tag }) => Ok((tag, None)),
            Ok(Response::Stale { newest }) => Err(Some(newest)),
            _ => Err(None),
        })
    };
    let targets = peers.iter().copied();
    let mut promises = gather(
        &inner.fabric,
        inner.node,
        targets,
        (frame, None),
        need,
        classify,
    )
    .await
    .map_err(|short| short.nacks.into_iter().flatten().max())?;
    let own = held(inner, id, true);
    if accept(own.accepted, own.floor(), ballot, own.accepted) != Accept::Take {
        return Err(Some(own.accepted.max(own.floor())));
    }
    let tags: Vec<Tag> = promises.iter().map(|p| p.0).collect();
    let mut engine = inner.engine.borrow_mut();
    if let Some(i) = highest(own.accepted, &tags) {
        let (tag, state) = promises.swap_remove(i);
        let tombstone = || {
            (
                StoredObject::new(Bytes::new(), tag, Mutability::Mutable),
                vec![],
            )
        };
        let ((object, reqs), dead) = state.map_or_else(|| (tombstone(), true), |s| (s, false));
        engine.sync_in(id, object, reqs, dead);
    }
    engine.promise(id, ballot);
    Ok(())
}

/// Orders `mutation` at `ballot` on `base` here, the local accept, once
/// the freeze and the attempt's expiry are checked again: a mutation
/// ordered in a migration's freeze window would be missed by the
/// snapshot and survive as a zombie above the seal. Returns the `Apply`
/// frame for the peers, whose payload the local state keeps a view of.
fn order(
    inner: &Inner,
    (id, mutation, req_id): (ObjectId, &Mutation, u64),
    (ballot, base): (Tag, Tag),
    round: bool,
    expires_ns: u64,
) -> Result<Bytes, Response> {
    if inner.placement.is_frozen(id) {
        return Err(frozen(id));
    }
    if let Some(refusal) = expired(inner, id, expires_ns, "before ordering") {
        return Err(refusal);
    }
    let (frame, local) = wire::apply_frame((id, ballot, base), round, mutation, req_id);
    let mut engine = inner.engine.borrow_mut();
    engine.apply(id, ballot, &local).map_err(Response::Err)?;
    engine.record(id, req_id, ballot);
    Ok(frame)
}

/// Fans the `Apply` frame of the state at `ballot`, traced by the
/// coordination's context, out to `peers` and waits for `need` acks ([`verdict`]); replication past `need` goes on
/// detached. A peer behind, or whose reply was lost, is repaired by a
/// push of the whole state and then counts. `Err` carries the acks (this
/// node included) and the newest ballot a refusal named.
async fn replicate(
    inner: &Rc<Inner>,
    (id, ballot): (ObjectId, Tag),
    frame: (Bytes, Option<TraceContext>),
    peers: &[NodeId],
    need: usize,
) -> Result<(), (usize, Option<Tag>)> {
    let owned = Rc::clone(inner);
    let classify = move |peer, reply| match verdict(&reply, ballot) {
        Verdict::Ack => Classified::Now(Ok(())),
        Verdict::Repair => Classified::Then(Box::pin(repair(Rc::clone(&owned), id, ballot, peer))),
        Verdict::Lost(newest) => Classified::Now(Err(Some(newest))),
        Verdict::No => Classified::Now(Err(None)),
    };
    let targets = peers.iter().copied();
    let short = match gather(&inner.fabric, inner.node, targets, frame, need, classify).await {
        Ok(acks) => {
            if let Some(h) = &inner.quorum_acks {
                h.record((acks.len() + 1) as u64);
            }
            return Ok(());
        }
        Err(short) => short,
    };
    Err((short.got + 1, short.nacks.into_iter().flatten().max()))
}

/// Pushes this node's state of `id` to `peer` if it is still the state
/// at `ballot` (`Ok` when the peer took it): the full-state transfer to
/// a peer that could not apply a delta.
async fn repair(
    inner: Rc<Inner>,
    id: ObjectId,
    ballot: Tag,
    peer: NodeId,
) -> Result<(), Option<Tag>> {
    let state = inner.engine.borrow().state(id);
    let Some((object, reqs)) = state.filter(|(object, _)| object.tag == ballot) else {
        return Err(None);
    };
    let frame = wire::encode_request(&Request::Push { id, object, reqs });
    match rpc(&inner.fabric, inner.node, peer, frame, None).await {
        Ok(Response::Applied) => Ok(()),
        _ => Err(None),
    }
}

/// Pulls the state of `id` from `holder` into the local engine if it is
/// newer (best effort: anti-entropy). The newest tag wins whatever this
/// node promised, so replicas converge once rounds stop (DESIGN §4.3).
/// `Err` means the fetch itself failed, not that `holder` had nothing
/// to give.
async fn catch_up(inner: &Rc<Inner>, id: ObjectId, holder: NodeId) -> Result<(), PcsiError> {
    let frame = wire::encode_request(&Request::Fetch { id });
    let reply = rpc(&inner.fabric, inner.node, holder, frame, None).await?;
    if let Response::Object { object, reqs } = reply {
        charge_io(inner, object.data.len()).await;
        inner.engine.borrow_mut().sync_in(id, object, reqs, false);
        inner.synced_in.incr();
    }
    Ok(())
}

/// One push-pull anti-entropy exchange with a random peer.
async fn anti_entropy_round(inner: &Rc<Inner>) {
    let peers: Vec<NodeId> = inner
        .placement
        .storage_nodes()
        .into_iter()
        .filter(|&n| n != inner.node)
        .collect();
    if peers.is_empty() {
        return;
    }
    let rng = inner.fabric.handle().rng().stream("anti-entropy-peer");
    let peer = *rng.choice(&peers);

    let frame = wire::encode_request(&Request::Inventory);
    // Peer down or partitioned: try next round.
    let Ok(Response::InventoryIs { mut entries }) =
        rpc(&inner.fabric, inner.node, peer, frame, None).await
    else {
        return;
    };

    // Only objects both replicate (this node effectively), and only
    // where they differ: this node pulls what the peer has newer and
    // pushes what the peer has older, so a replica that missed the last
    // write catches up from either side of the exchange.
    let tag_here = |id| inner.engine.borrow().tag_of(id);
    let behind =
        |&(id, peer_tag): &(ObjectId, Tag)| effective_member(inner, id) && peer_tag > tag_here(id);
    let ahead = |&(id, peer_tag): &(ObjectId, Tag)| {
        effective_member(inner, id)
            && peer_tag < tag_here(id)
            && inner.placement.is_replica(id, peer)
    };
    // The peer lists in its engine's order. One pass finds the first id
    // the two differ on; a round with none moves and sorts nothing.
    // Exchanges go in id order from there: every entry below that id
    // would match neither rule at this same instant, before any await.
    let differ = |e: &(ObjectId, Tag)| behind(e) || ahead(e);
    let Some(first) = entries.iter().filter(|e| differ(e)).map(|e| e.0).min() else {
        return;
    };
    entries.sort_unstable();
    let from = entries.partition_point(|e| e.0 < first);
    for entry in &entries[from..] {
        if behind(entry) && catch_up(inner, entry.0, peer).await.is_err() {
            return;
        }
        if ahead(entry) {
            let _ = repair(Rc::clone(inner), entry.0, tag_here(entry.0), peer).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, linearizable_put, oid, raw_append, replica_bytes};
    use crate::{RetryPolicy, StoreConfig};
    use pcsi_core::{Consistency, Mutability};
    use pcsi_net::{LatencyModel, Topology};
    use pcsi_sim::Sim;
    use std::collections::BTreeSet;
    use std::future::Future;

    fn id(n: u64) -> ObjectId {
        ObjectId::from_parts(7, n)
    }

    fn tag(seq: u64, writer: u32) -> Tag {
        Tag { seq, writer }
    }

    /// The store the white-box tests below were written against:
    /// [`testkit::config`] on NVMe.
    fn nvme() -> StoreConfig {
        StoreConfig {
            tier: MediaTier::Nvme,
            ..testkit::config()
        }
    }

    /// A peer's `Apply` changes its state in its reply's leave event, the
    /// instant its IO ends: its engine lacks the write 1 ns before that
    /// instant and holds it at it.
    #[test]
    fn a_peers_apply_lands_at_the_instant_its_io_ends() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = testkit::deploy(&sim, nvme());
        let x = id(1);
        let peer = store.placement().replicas(x)[1];
        let h = sim.handle();
        let held = sim.block_on(async move {
            let client = store.client(testkit::outsider(&store, x));
            h.spawn_detached(async move {
                linearizable_put(&client, x, Bytes::from_static(b"x")).await;
            });
            // The peer has booked no IO before the `Apply` arrives.
            let booked = || store.replica_on(peer).unwrap().inner.io_free_at.get();
            while booked() == SimTime::ZERO {
                h.sleep(Duration::from_micros(1)).await;
            }
            let end = booked();
            h.sleep_until(SimTime::from_nanos(end.as_nanos() - 1)).await;
            let before = replica_bytes(&store, peer, x);
            h.sleep_until(end).await;
            (before, replica_bytes(&store, peer, x))
        });
        assert_eq!(held, (vec![], b"x".to_vec()));
    }

    /// A `Fetch` ships the ledger describing the bytes it ships. An
    /// apply that lands while the fetch queues on the device must not
    /// ride along with bytes that predate it: a receiver installing such
    /// a reply would record a request its bytes lack.
    #[test]
    fn fetch_ships_only_requests_its_bytes_contain() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, nvme());
        let reply = sim.block_on(async move {
            let (id, data) = (id(1), Bytes::from(vec![7u8; 4096]));
            let t1 = linearizable_put(&store.client(NodeId(0)), id, data.clone()).await;
            let p = store.placement().replicas(id)[1];
            let call = |req: &Request| rpc(&fabric, p, p, wire::encode_request(req), None);
            let apply = call(&Request::Apply {
                id,
                tag: t1.next(9),
                base: t1,
                round: true,
                mutation: Mutation::WriteAt { offset: 0, data },
                req_id: 777,
            });
            let h = fabric.handle().clone();
            h.spawn_detached(async move {
                let _ = apply.await;
            });
            h.sleep(Duration::from_nanos(500)).await;
            call(&Request::Fetch { id }).await.unwrap()
        });
        let Response::Object { object, reqs } = reply else {
            panic!("expected the object, got {reply:?}");
        };
        assert!(
            reqs.iter().all(|&(_, t)| t <= object.tag),
            "the object at {} ships {reqs:?}",
            object.tag
        );
    }

    /// A replica answers for a request its state contains however many
    /// other objects it wrote since: the records live in the object's own
    /// engine entry, so no cross-object cap can push them out. A
    /// duplicated or retried coordination finds the record and re-sends
    /// the tag, and `Append` is not idempotent.
    #[test]
    fn a_request_on_an_idle_object_is_not_applied_twice() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, nvme());
        let (first, retry, held) = sim.block_on(async move {
            let x = id(1);
            linearizable_put(&store.client(NodeId(0)), x, Bytes::from_static(b"x")).await;
            let p = store.placement().replicas(x)[1];
            let call = |req: &Request| rpc(&fabric, p, p, wire::encode_request(req), None);
            let append = Request::Coordinate {
                id: x,
                mutation: Mutation::Append {
                    data: Bytes::from_static(b"a"),
                },
                sync_replicas: 2,
                req_id: 777,
                expires_ns: 0,
            };
            let first = call(&append).await.unwrap();
            // 4,097 writes to other objects p replicates, each a newer
            // request than 777.
            let others = (2..)
                .map(id)
                .filter(|&o| store.placement().is_replica(o, p));
            for (req_id, other) in (1_000..).zip(others.take(4_097)) {
                let put = Request::Apply {
                    id: other,
                    tag: Tag { seq: 1, writer: 9 },
                    base: Tag::ZERO,
                    round: false,
                    mutation: Mutation::PutFull {
                        data: Bytes::from_static(b"o"),
                        mutability: Mutability::Mutable,
                    },
                    req_id,
                };
                assert_eq!(call(&put).await.unwrap(), Response::Applied);
            }
            let retry = call(&append).await.unwrap();
            let replica = store.replica_on(p).expect("a replica on every node");
            let held = replica.with_engine(|e| e.read(x, 0, u64::MAX).unwrap());
            (first, retry, held)
        });
        assert!(matches!(first, Response::Coordinated { .. }), "{first:?}");
        assert_eq!(retry, first);
        assert_eq!(&held[..], b"xa");
    }

    /// The requester pulls in id order whatever order the responder
    /// lists in: a peer's engine lists unsorted, and the round sorts
    /// only when the two differ. What this node holds newer it pushes.
    #[test]
    fn anti_entropy_pulls_in_id_order_whatever_the_inventory_order() {
        let mut sim = Sim::new(42);
        let fabric = testkit::fabric(&sim, Topology::uniform(3, 1), LatencyModel::deterministic);
        let nodes = fabric.topology().node_ids();
        let placement = Placement::new(fabric.topology(), nodes, 3);
        let replica = ReplicaNode::start(
            fabric.clone(),
            placement,
            NodeId(0),
            MediaTier::Dram,
            &Telemetry::default(),
        );
        let object = |tag| StoredObject::new(Bytes::from_static(b"v"), tag, Mutability::Mutable);
        // Node 0's tag per object against the peers' seq 5: older (1, 5,
        // 8), equal (2, 7), newer (4), absent (3, 6).
        let held = [(1, 3), (2, 5), (4, 9), (5, 1), (7, 5), (8, 4)];
        replica.with_engine(|e| {
            for (n, seq) in held {
                e.sync_in(id(n), object(tag(seq, 1)), Vec::new(), false);
            }
        });
        let mut listed: Vec<(ObjectId, Tag)> = (1..=8).map(|n| (id(n), tag(5, 1))).collect();
        listed.sort_unstable_by(|a, b| b.cmp(a));
        let (fetched, pushed) = (
            Rc::new(RefCell::new(Vec::new())),
            Rc::new(RefCell::new(Vec::new())),
        );
        for peer in [NodeId(1), NodeId(2)] {
            let (listed, fetched, pushed) =
                (listed.clone(), Rc::clone(&fetched), Rc::clone(&pushed));
            let fake = Rc::new(move |payload: Bytes, _| {
                let response = match wire::decode_request(&payload).unwrap() {
                    Request::Inventory => Response::InventoryIs {
                        entries: listed.clone(),
                    },
                    Request::Fetch { id } => {
                        fetched.borrow_mut().push(id);
                        Response::Object {
                            object: object(tag(5, 1)),
                            reqs: Vec::new(),
                        }
                    }
                    Request::Push { id, .. } => {
                        pushed.borrow_mut().push(id);
                        Response::Applied
                    }
                    other => panic!("a fake peer got {other:?}"),
                };
                std::future::ready(Ok(wire::encode_response(&response)))
            });
            fabric.bind(peer, STORE_SERVICE, fake);
        }
        let round = replica.clone();
        sim.block_on(async move { round.anti_entropy_once().await });
        let mut behind: Vec<ObjectId> = [1, 3, 5, 6, 8].map(id).into();
        behind.sort_unstable();
        assert_eq!(*fetched.borrow(), behind);
        assert_eq!(*pushed.borrow(), [id(4)]);
        for (n, _) in listed {
            assert!(replica.with_engine(|e| e.tag_of(n)) >= tag(5, 1), "{n:?}");
        }
    }

    /// Every replica of a write keeps a view of the one `Apply` frame the
    /// coordinator applied from and fanned out; a later write gives each
    /// replica bytes of its own.
    #[test]
    fn replicas_of_a_put_share_one_payload_allocation() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, nvme());
        sim.block_on(async move {
            let id = id(1);
            let client = store.client(NodeId(0));
            linearizable_put(&client, id, Bytes::from(vec![7u8; 4096])).await;
            // The third replica applies after the majority acked.
            let h = fabric.handle().clone();
            h.sleep(Duration::from_millis(1)).await;
            let held = || -> Vec<Bytes> {
                let nodes = store.placement().replicas(id);
                let replica = |n| store.replica_on(n).expect("a replica on every node");
                let data = |n| replica(n).with_engine(|e| e.get(id).expect("applied").data.clone());
                nodes.into_iter().map(data).collect()
            };
            let ptrs: Vec<_> = held().iter().map(|d| d.as_ptr()).collect();
            assert_eq!(ptrs.len(), 3);
            assert!(ptrs.iter().all(|&p| p == ptrs[0]), "{ptrs:?}");

            let head = Bytes::from_static(b"head");
            let write = client.write_at(id, 0, head, Consistency::Linearizable);
            write.await.unwrap();
            h.sleep(Duration::from_millis(1)).await;
            let held = held();
            let ptrs: BTreeSet<_> = held.iter().map(|d| d.as_ptr()).collect();
            assert_eq!(
                ptrs.len(),
                3,
                "copy-on-write gives each replica its own bytes"
            );
            for data in &held {
                assert_eq!((&data[..4], data.len()), (&b"head"[..], 4096));
            }
        });
    }

    #[test]
    fn failover_reorder_does_not_double_apply() {
        // Regression for the exactly-once hole: a coordination succeeds
        // server-side at the primary (its fan-out reached one secondary)
        // but the ack to the client is lost. The client fails over; the
        // failover target never saw the request. Its round's prepare
        // finds the request in the records of the state a replica
        // accepted and re-accepts that state instead of applying the
        // non-idempotent append a second time.
        let mut sim = Sim::new(42);
        let config = StoreConfig {
            retry: RetryPolicy {
                attempt_timeout: None,
                op_deadline: None,
                attempts_per_target: 1,
                failover: true,
                base_backoff: Duration::from_micros(10),
                max_backoff: Duration::from_micros(10),
                jitter: 0.0,
            },
            ..testkit::config()
        };
        let (fabric, store) = testkit::deploy(&sim, config);
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(40);
                let replicas = store.placement().replicas(id);
                let (a, b) = (replicas[0], replicas[1]);
                let client_node = testkit::outsider(&store, id);
                let c = store.client(client_node);
                c.put(
                    id,
                    Bytes::from_static(b"base"),
                    Mutability::AppendOnly,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                // The primary cannot reach the failover target, so the
                // target will not learn of the append from the fan-out.
                fabric.partition(&[a], &[b]);
                // Once the primary has received the append (and before
                // it can reply), cut it off from the client: the
                // coordination still completes server-side (the third
                // replica acks the majority) but the client sees an
                // ambiguous transport error and fails over.
                let watcher = {
                    let ra = store.replica_on(a).unwrap().clone();
                    let fabric = fabric.clone();
                    let h = fabric.handle().clone();
                    async move {
                        while ra.coordinated_count() < 2 {
                            h.sleep(Duration::from_micros(1)).await;
                        }
                        fabric.partition(&[client_node], &[a]);
                    }
                };
                drop(fabric.handle().spawn(watcher));
                let tag = c
                    .append(id, Bytes::from_static(b"x"), Consistency::Linearizable)
                    .await
                    .expect("failover must absorb the lost-ack append");
                assert_eq!(tag.writer, b.0, "re-ordered by the failover target");
                assert!(store.retry_stats().failovers >= 1);
                fabric.heal_partitions();
                testkit::until_replicas_agree(&store, &replicas, id, b"basex").await;
                for &node in &replicas {
                    assert_eq!(
                        replica_bytes(&store, node, id),
                        b"basex",
                        "append applied exactly once on {node} after failover re-order",
                    );
                }
            }
        });
    }

    #[test]
    fn replay_does_not_ack_peers_ahead_without_the_request() {
        // Regression for the unsound replay ack: the primary applies a
        // write locally but loses its whole fan-out; while the client
        // backs off, two unrelated writes land on the other replicas
        // through a different coordinator. The retried coordination
        // replays at the recorded tag and finds both peers *ahead* of it
        // — on a history line that does not contain the write. Before
        // the fix `Stale { newest >= tag }` counted as an ack, so the
        // replay reported success while the write existed only on the
        // primary's losing line and silently vanished at convergence.
        let mut sim = Sim::new(42);
        let config = StoreConfig {
            retry: RetryPolicy {
                attempt_timeout: None,
                op_deadline: None,
                attempts_per_target: 2,
                failover: true,
                // A fixed, jitter-free backoff wide enough for the
                // concurrent writes to land inside it.
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(5),
                jitter: 0.0,
            },
            ..testkit::config()
        };
        let (fabric, store) = testkit::deploy(&sim, config);
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(41);
                let replicas = store.placement().replicas(id);
                let (a, b, c_node) = (replicas[0], replicas[1], replicas[2]);
                let client_node = testkit::outsider(&store, id);
                let client = store.client(client_node);
                client
                    .put(
                        id,
                        Bytes::from_static(b"p"),
                        Mutability::AppendOnly,
                        Consistency::Linearizable,
                    )
                    .await
                    .unwrap();
                // Isolate the primary from its peers (the client still
                // reaches it): attempt 1 applies locally, loses the
                // fan-out, and surfaces QuorumUnavailable.
                fabric.partition(&[a], &[b, c_node]);
                // During the client's backoff: land two writes on the
                // rest of the set through replica B, then heal — the
                // retry's replay now finds its peers ahead of the
                // recorded tag without holding the request.
                let racer = {
                    let store = store.clone();
                    let fabric = fabric.clone();
                    let h = fabric.handle().clone();
                    async move {
                        while store.retry_stats().retries < 1 {
                            h.sleep(Duration::from_micros(5)).await;
                        }
                        let r1 = raw_append(&fabric, client_node, b, id, b"a", 900).await;
                        assert!(matches!(r1, Response::Coordinated { .. }), "{r1:?}");
                        let r2 = raw_append(&fabric, client_node, b, id, b"b", 901).await;
                        assert!(matches!(r2, Response::Coordinated { .. }), "{r2:?}");
                        fabric.heal_partitions();
                    }
                };
                drop(fabric.handle().spawn(racer));
                let tag = client
                    .append(id, Bytes::from_static(b"x"), Consistency::Linearizable)
                    .await
                    .expect("failover must land the append on the winning line");
                // The retry must NOT claim success at the tag of its lost
                // first attempt. It prepares, learns the concurrent
                // writes from the promises and appends on top of them:
                // the primary itself now orders it, where the replay rule
                // could only fail and hand it to a failover target.
                assert!(tag.seq >= 4, "ordered above the concurrent writes: {tag}");
                let stats = store.retry_stats();
                assert!(stats.retries >= 1, "{stats:?}");
                testkit::until_replicas_agree(&store, &replicas, id, b"pabx").await;
                for &node in &replicas {
                    assert_eq!(
                        replica_bytes(&store, node, id),
                        b"pabx",
                        "acknowledged append must survive convergence on {node}",
                    );
                }
            }
        });
    }

    /// ROADMAP item 1's third shape, closed. The primary orders `r`
    /// with its fan-out lost, then `s` on top of it. Every `Apply` names
    /// its base, so the secondaries, which missed `r`, refuse the delta
    /// of `s` instead of appending it to the wrong bytes; a full-state
    /// transfer repairs them and, after anti-entropy, all three hold
    /// `prs`. Before, all three ended at one tag with `r` lost on two of
    /// them, and anti-entropy saw nothing to repair.
    #[test]
    fn a_gap_applied_append_is_refused_and_repaired() {
        let mut sim = Sim::new(42);
        let config = StoreConfig {
            retry: RetryPolicy::none(),
            ..testkit::config()
        };
        let (fabric, store) = testkit::deploy(&sim, config);
        sim.block_on(async move {
            let id = oid(42);
            let replicas = store.placement().replicas(id);
            let (a, b, c) = (replicas[0], replicas[1], replicas[2]);
            let client_node = testkit::outsider(&store, id);
            store
                .client(client_node)
                .put(
                    id,
                    Bytes::from_static(b"p"),
                    Mutability::AppendOnly,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
            testkit::drop_link(&fabric, a, b);
            testkit::drop_link(&fabric, a, c);
            let r = raw_append(&fabric, client_node, a, id, b"r", 700).await;
            let Response::Coordinated { tag: r_tag } = r else {
                panic!("{r:?}")
            };
            fabric.clear_message_faults();
            let s = raw_append(&fabric, client_node, a, id, b"s", 701).await;
            let Response::Coordinated { tag: s_tag } = s else {
                panic!("{s:?}")
            };
            assert!(s_tag > r_tag, "{s_tag} after {r_tag}");
            // The fan-out of `s` lands (and repairs what it cannot
            // apply) before anti-entropy looks; no replica ever holds the
            // gap-applied `ps`.
            for _ in 0..100 {
                fabric.handle().sleep(Duration::from_micros(10)).await;
                for node in [b, c] {
                    assert_ne!(replica_bytes(&store, node, id), b"ps", "{node} took a gap");
                }
            }
            testkit::until_replicas_agree(&store, &replicas, id, b"prs").await;
            for node in [a, b, c] {
                assert_eq!(replica_bytes(&store, node, id), b"prs", "on {node}");
            }
        });
    }

    /// An uncontended read's server span lasts exactly its media time:
    /// it ends when the reply leaves the replica.
    #[test]
    fn an_uncontended_reads_replica_span_lasts_its_media_time() {
        let mut sim = Sim::new(5);
        let fabric = testkit::fabric(&sim, Topology::uniform(3, 3), LatencyModel::deterministic);
        let tracer = Tracer::new(&sim.handle(), pcsi_trace::Sampling::Always, 256);
        let telemetry = Telemetry {
            tracer: Some(tracer.clone()),
            ..Telemetry::default()
        };
        let store = testkit::launch(&fabric, nvme(), &telemetry);
        let (id, data) = (id(1), Bytes::from(vec![7u8; 4096]));
        let client = store.client(testkit::outsider(&store, id));
        let h = fabric.handle().clone();
        let t = tracer.clone();
        sim.block_on(async move {
            linearizable_put(&client, id, data).await;
            // The write's straggling IO is long done.
            h.sleep(Duration::from_millis(1)).await;
            t.sink().take();
            client.read_all(id, Consistency::Eventual).await.unwrap();
        });
        let spans = tracer.sink().take();
        let read = spans.iter().find(|s| s.name == "replica.read");
        let read = read.expect("the replica's read span");
        let served = read.end.saturating_since(read.start);
        assert_eq!(served, MediaTier::Nvme.io_time(4096));
    }

    /// Rounds on one object take turns in the order they queued. A
    /// queued round whose future is dropped is passed over: the turn
    /// goes to the next one behind it, and the object's queue is gone
    /// once the last turn ends.
    #[test]
    fn a_turn_passes_over_a_dropped_waiter_to_the_next() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = testkit::deploy(&sim, testkit::config());
        let replica = store.replica_on(NodeId(0)).expect("a replica").clone();
        sim.block_on(async move {
            let (inner, x) = (&*replica.inner, id(1));
            let queued = || inner.turns.borrow().get(&x).map(VecDeque::len);
            let a = Turn::take(inner, x).await;
            let mut b = Box::pin(Turn::take(inner, x));
            let mut c = Box::pin(Turn::take(inner, x));
            std::future::poll_fn(|cx| {
                assert!(b.as_mut().poll(cx).is_pending(), "B waits behind A");
                assert!(c.as_mut().poll(cx).is_pending(), "C waits behind A");
                std::task::Poll::Ready(())
            })
            .await;
            assert_eq!(queued(), Some(2));
            drop(b);
            drop(a);
            // Ready at once: A's drop handed C the turn.
            let c = c.await;
            assert_eq!(queued(), Some(0), "C holds the turn, nothing queued");
            drop(c);
            assert_eq!(queued(), None);
        });
    }

    /// A queued round handed the turn and dropped before it claims it
    /// passes the turn on: A holds, B and C queue, A's drop hands B the
    /// turn, B is dropped unpolled, and C gets the turn.
    #[test]
    fn a_waiter_dropped_after_the_handover_passes_the_turn_on() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = testkit::deploy(&sim, testkit::config());
        let replica = store.replica_on(NodeId(0)).expect("a replica").clone();
        sim.block_on(async move {
            let (inner, x) = (&*replica.inner, id(1));
            let queued = || inner.turns.borrow().get(&x).map(VecDeque::len);
            let a = Turn::take(inner, x).await;
            let mut b = Box::pin(Turn::take(inner, x));
            let mut c = Box::pin(Turn::take(inner, x));
            std::future::poll_fn(|cx| {
                assert!(b.as_mut().poll(cx).is_pending(), "B waits behind A");
                assert!(c.as_mut().poll(cx).is_pending(), "C waits behind A");
                std::task::Poll::Ready(())
            })
            .await;
            drop(a);
            assert_eq!(queued(), Some(1), "A's drop handed B the turn");
            drop(b);
            let c = c.await;
            assert_eq!(queued(), Some(0), "C holds the turn, nothing queued");
            drop(c);
            assert_eq!(queued(), None);
        });
    }
}
