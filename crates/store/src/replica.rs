//! The storage replica service.
//!
//! One [`ReplicaNode`] runs on every storage node. It owns the node's
//! [`StorageEngine`], serves the [`crate::wire`] protocol over the fabric,
//! and plays two roles:
//!
//! * **primary** for objects whose replica set it heads: it orders
//!   mutations (assigns [`Tag`]s), applies them locally, and replicates
//!   them to the secondaries — synchronously up to the requested ack count
//!   (majority for linearizable objects), asynchronously beyond that;
//! * **secondary** for the rest: it applies replicated mutations and
//!   answers reads, tag queries and anti-entropy pulls.
//!
//! A background anti-entropy task periodically reconciles with a random
//! peer so asynchronously replicated (eventual) writes converge even when
//! the original replication message was lost to a crash or partition.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

use fxhash::{FxHashMap, FxHashSet};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{ObjectId, PcsiError};
use pcsi_metrics::{Counter, Histogram};
use pcsi_net::fabric::{CallCtx, RpcHandler};
use pcsi_net::{Fabric, NodeId, Transport};
use pcsi_obs::Telemetry;
use pcsi_sim::SimTime;
use pcsi_trace::{TraceContext, Tracer};

use crate::engine::{MediaTier, Mutation, StorageEngine, StoredObject};
use crate::placement::Placement;
use crate::quorum::{gather, rpc};
use crate::version::Tag;
use crate::wire::{self, Request, Response, WireError};

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
    /// The coordinate dedup table. See [`SeenCoordinates`].
    seen_coordinates: RefCell<SeenCoordinates>,
    /// Which client requests the local state provably contains — the
    /// exactly-once ledger. See [`ReqLedger`].
    ledger: RefCell<ReqLedger>,
    /// When the node's storage device is next idle. [`charge_io`] queues
    /// FIFO behind this, so concurrent operations on one node contend for
    /// its media bandwidth instead of overlapping for free — without it a
    /// single node would serve unbounded parallel IO and adding nodes
    /// could never raise aggregate throughput. Uncontended operations see
    /// exactly the seed's latency (the gate is never in the future).
    io_free_at: Cell<SimTime>,
    coordinated: Counter,
    applied: Counter,
    reads: Counter,
    fetched: Counter,
    synced_in: Counter,
    repaired: Counter,
    migrated_in: Counter,
    /// Synchronous-ack quorum sizes observed per coordination round
    /// (this node included). Recorded only when metrics are on.
    quorum_acks: Option<Histogram>,
    /// Optional tracer shared with the store's clients: server-side
    /// spans nest under the client attempt whose context rode the wire.
    tracer: Option<Tracer>,
}

impl ReplicaNode {
    /// Creates the replica and binds its service on the fabric. The
    /// protocol counters are always-on cells; with metrics on they are
    /// published as per-node series and the quorum-ack-size histogram
    /// records. Server-side spans record into the telemetry's tracer.
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
            seen_coordinates: RefCell::default(),
            ledger: RefCell::new(ReqLedger::default()),
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
        let handler: RpcHandler = {
            let inner = Rc::clone(&inner);
            Rc::new(move |payload, ctx| {
                let inner = Rc::clone(&inner);
                Box::pin(async move { Ok(handle(inner, payload, ctx).await) })
            })
        };
        fabric.bind(node, STORE_SERVICE, handler);
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

    /// Mutations this node ordered as primary.
    pub fn coordinated_count(&self) -> u64 {
        self.inner.coordinated.get()
    }

    /// Objects installed by read-repair pushes.
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

/// Completed coordinate-dedup entries kept per replica before the
/// oldest are evicted. An evicted request that is retried falls through
/// to [`coordinate`], whose [`ReqLedger`] lookup still replays it
/// honestly instead of re-ordering.
const SEEN_COORDINATES_CAP: usize = 4096;

/// Coordinate dedup table: which `req_id`s are executing right now, and
/// the tag of the **success** response of those that completed. The fabric
/// delivers at-least-once (duplicate injection) and clients retry, so a
/// re-delivered coordination must replay the response rather than order
/// the mutation a second time. Failed coordinations are *forgotten* so a
/// retry re-executes. `completed` is bounded at [`SEEN_COORDINATES_CAP`],
/// oldest `req_id` evicted first; an in-flight claim lives in its own set
/// and is never evicted — dropping one would let a concurrent duplicate
/// re-execute the coordination while the original still runs.
#[derive(Default)]
struct SeenCoordinates {
    in_flight: FxHashSet<u64>,
    completed: BTreeMap<u64, Tag>,
}

/// What a [`Request::Coordinate`] arrival finds in the dedup table.
#[derive(Debug, PartialEq)]
enum Claim {
    /// First arrival: the caller now owns the execution.
    Claimed,
    /// The original is still executing; wait for it.
    InFlight,
    /// The original succeeded: [`Response::Coordinated`] at this tag.
    Replay(Tag),
}

impl SeenCoordinates {
    fn claim(&mut self, req_id: u64) -> Claim {
        if let Some(&tag) = self.completed.get(&req_id) {
            Claim::Replay(tag)
        } else if self.in_flight.insert(req_id) {
            Claim::Claimed
        } else {
            Claim::InFlight
        }
    }

    /// Releases the claim on `req_id`, recording `resp` if it succeeded.
    fn finish(&mut self, req_id: u64, resp: &Response) {
        self.in_flight.remove(&req_id);
        if let Response::Coordinated { tag } = resp {
            self.completed.insert(req_id, *tag);
            if self.completed.len() > SEEN_COORDINATES_CAP {
                self.completed.pop_first();
            }
        }
    }
}

/// Ledger entries kept per object. A single client request retries for
/// at most one operation's deadline, so the dedup window only needs to
/// cover the requests that can still be in flight — not all history.
const LEDGER_PER_OBJECT: usize = 32;

/// Objects tracked in the ledger before the longest-idle one (smallest
/// newest `req_id`) is dropped.
const LEDGER_OBJECTS: usize = 4096;

/// Per-object record of which client requests (`req_id`) the replica's
/// **current state** for that object contains, and the tag each was
/// applied at.
///
/// The invariant — every recorded request is part of the history line
/// of the bytes currently stored — is what makes the exactly-once
/// machinery honest:
///
/// * a coordinator *replays* a recorded request at its recorded tag
///   instead of ordering it again;
/// * a secondary answers [`Response::AlreadyApplied`] for a recorded
///   request instead of applying it a second time at a fresh tag;
/// * a replication ack may be inferred from a peer's state **only**
///   through this ledger (or an exactly-equal tag) — never from
///   `newest >= tag`, because the engine admits tag gaps: a peer whose
///   tag advanced via a *different* write never applied this request.
///
/// To preserve the invariant across full-state transfer, the ledger is
/// **replaced, not merged** whenever `sync_in` installs an incoming
/// object: the incoming records describe the incoming state line; the
/// local records described a line that was just discarded.
#[derive(Default)]
struct ReqLedger {
    by_object: FxHashMap<ObjectId, Vec<(u64, Tag)>>,
    /// `(newest req_id, object)` for every tracked object. Client
    /// req_ids are allocated monotonically, so the first key is the
    /// object idle longest — found without scanning `by_object`, and
    /// unique, so eviction never depends on hash-map iteration order.
    by_idleness: BTreeSet<(u64, ObjectId)>,
}

/// The idleness key of an object's records (see [`ReqLedger`]).
fn newest_req(reqs: &[(u64, Tag)]) -> u64 {
    reqs.iter().map(|&(r, _)| r).max().unwrap_or(0)
}

impl ReqLedger {
    /// The tag `req_id` was applied at on the current state line, if
    /// recorded.
    fn lookup(&self, id: ObjectId, req_id: u64) -> Option<Tag> {
        self.by_object
            .get(&id)?
            .iter()
            .find(|&&(r, _)| r == req_id)
            .map(|&(_, tag)| tag)
    }

    /// Records that the current state line contains `req_id` at `tag`.
    fn record(&mut self, id: ObjectId, req_id: u64, tag: Tag) {
        let reqs = self.by_object.entry(id).or_default();
        self.by_idleness.remove(&(newest_req(reqs), id));
        match reqs.iter_mut().find(|(r, _)| *r == req_id) {
            // A replay at the recorded tag is idempotent; a catch-up
            // re-order moved the request to a newer tag on this line.
            Some(entry) => entry.1 = entry.1.max(tag),
            None => reqs.push((req_id, tag)),
        }
        if reqs.len() > LEDGER_PER_OBJECT {
            // Entries are appended in apply order, so the front is the
            // oldest — the one least likely to still be retried.
            reqs.remove(0);
        }
        self.by_idleness.insert((newest_req(reqs), id));
        self.evict_idle_objects();
    }

    /// Replaces the object's records with the ledger shipped alongside
    /// an installed full-state transfer.
    fn replace(&mut self, id: ObjectId, mut reqs: Vec<(u64, Tag)>) {
        if reqs.len() > LEDGER_PER_OBJECT {
            reqs.drain(..reqs.len() - LEDGER_PER_OBJECT);
        }
        if let Some(old) = self.by_object.remove(&id) {
            self.by_idleness.remove(&(newest_req(&old), id));
        }
        if !reqs.is_empty() {
            self.by_idleness.insert((newest_req(&reqs), id));
            self.by_object.insert(id, reqs);
        }
        self.evict_idle_objects();
    }

    /// The records to ship with a full-state transfer of `id`.
    fn snapshot(&self, id: ObjectId) -> Vec<(u64, Tag)> {
        self.by_object.get(&id).cloned().unwrap_or_default()
    }

    fn evict_idle_objects(&mut self) {
        while self.by_object.len() > LEDGER_OBJECTS {
            let (_, idle) = self.by_idleness.pop_first().expect("one key per object");
            self.by_object.remove(&idle);
        }
    }
}

/// Charges the engine's media time for an operation touching `bytes`,
/// queuing FIFO behind any IO already in flight on this node. The device
/// is a serial resource: an uncontended operation pays exactly
/// `io_time(bytes)` (identical to the seed), while concurrent operations
/// on one node back up behind each other — which is what lets a scaling
/// experiment observe aggregate throughput grow with node count.
async fn charge_io(inner: &Inner, bytes: usize) {
    let t = inner.engine.borrow().tier().io_time(bytes);
    let h = inner.fabric.handle();
    let now = h.now();
    let start = inner.io_free_at.get().max(now);
    let end = start + t;
    inner.io_free_at.set(end);
    h.sleep_until(end).await;
}

/// The server-side span name for a request kind.
fn request_span_name(req: &Request) -> &'static str {
    match req {
        Request::Coordinate { .. } => "replica.coordinate",
        Request::Apply { .. } => "replica.apply",
        Request::Read { .. } | Request::ReadWithTag { .. } => "replica.read",
        Request::TagOf { .. } => "replica.tag_of",
        Request::Fetch { .. } => "replica.fetch",
        Request::Inventory => "replica.inventory",
        Request::Push { .. } => "replica.push",
        Request::Migrate { .. } => "replica.migrate",
    }
}

async fn handle(inner: Rc<Inner>, payload: Bytes, call_ctx: CallCtx) -> Bytes {
    let (request, wire_ctx) = match wire::decode_request_traced(&payload) {
        Ok(r) => r,
        Err(e) => {
            return wire::encode_response(&Response::Err(WireError::Other(e.to_string())));
        }
    };
    // The store protocol carries the context in its own envelope; the
    // fabric-level context covers callers that route through `call_traced`.
    let trace_ctx = wire_ctx.or(call_ctx.trace);
    let mut span = pcsi_trace::child_of(&inner.tracer, trace_ctx, request_span_name(&request));
    span.attr("node", u64::from(inner.node.0));
    let child_ctx = span.ctx();
    let response = match request {
        Request::Coordinate {
            id,
            mutation,
            sync_replicas,
            req_id,
            expires_ns,
        } => {
            coordinate_dedup(
                &inner,
                req_id,
                id,
                mutation,
                sync_replicas,
                expires_ns,
                child_ctx,
            )
            .await
        }
        Request::Apply {
            id,
            tag,
            mutation,
            req_id,
        } => {
            charge_io(&inner, mutation_bytes(&mutation)).await;
            // Post-IO, pre-apply gates (no awaits below, so neither can
            // go stale between check and apply):
            //
            // * a frozen object is mid-migration-snapshot — acking an
            //   apply now would commit a write the snapshot cannot see;
            // * a node outside the effective replica set is a post-flip
            //   old owner — its ack would count toward a quorum no
            //   future reader consults.
            //
            // Exactly-once by req_id, before any tag math: a failed-over
            // coordinator re-orders the same client request at a fresh
            // higher tag, and a replica that already applied it must not
            // apply it again (Append is not idempotent).
            let duplicate = (req_id != 0)
                .then(|| inner.ledger.borrow().lookup(id, req_id))
                .flatten();
            if inner.placement.is_frozen(id) {
                Response::Err(WireError::Other(format!(
                    "{id:?} is frozen for shard migration"
                )))
            } else if !effective_member(&inner, id) {
                Response::Err(WireError::Other(format!(
                    "node {} no longer replicates {id:?}",
                    inner.node
                )))
            } else if let Some(recorded) = duplicate {
                Response::AlreadyApplied { tag: recorded }
            } else {
                let resp = {
                    let mut engine = inner.engine.borrow_mut();
                    let newest = engine.tag_of(id);
                    if tag <= newest {
                        // Refuse to ack a stale-tagged apply. A coordinator
                        // that restarted behind the replica set would
                        // otherwise collect acks for writes that are
                        // invisible to every read quorum.
                        Response::Stale { newest }
                    } else {
                        match engine.apply(id, tag, &mutation) {
                            Ok(()) => Response::Applied,
                            Err(e) => Response::Err(WireError::from_pcsi(&e)),
                        }
                    }
                };
                if matches!(resp, Response::Applied) {
                    inner.applied.incr();
                    if req_id != 0 {
                        inner.ledger.borrow_mut().record(id, req_id, tag);
                    }
                }
                resp
            }
        }
        Request::Read { id, offset, len } => {
            // Stale-routing rejection: a post-flip old owner must not
            // serve (possibly stale) data for an object it no longer
            // replicates; the retryable error sends the client back to
            // recompute the replica set under the current epoch.
            if effective_member(&inner, id) {
                read_local(&inner, id, offset, len, u64::MAX, false).await
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
                read_local(&inner, id, offset, len, inline_limit, true).await
            } else {
                stale_route(&inner, id)
            }
        }
        Request::TagOf { id } => Response::TagIs {
            tag: inner.engine.borrow().tag_of(id),
        },
        Request::Fetch { id } => {
            let obj = inner.engine.borrow().get(id).cloned();
            match obj {
                Some(object) => {
                    charge_io(&inner, object.data.len()).await;
                    inner.fetched.incr();
                    let reqs = inner.ledger.borrow().snapshot(id);
                    Response::Object { object, reqs }
                }
                None => Response::Absent,
            }
        }
        Request::Inventory => Response::InventoryIs {
            entries: inner.engine.borrow().inventory(),
        },
        Request::Push { id, object, reqs } => {
            charge_io(&inner, object.data.len()).await;
            install_state(&inner, id, object, reqs);
            inner.repaired.incr();
            Response::Applied
        }
        Request::Migrate {
            epoch,
            id,
            object,
            reqs,
            tombstone,
        } => {
            charge_io(&inner, object.data.len()).await;
            migrate_install(&inner, epoch, id, object, reqs, tombstone)
        }
    };
    span.finish();
    wire::encode_response(&response)
}

/// True when this node is in the *effective* replica set of `id` (the
/// pinned old owners mid-migration, the ring owners otherwise).
fn effective_member(inner: &Inner, id: ObjectId) -> bool {
    inner.placement.is_replica(id, inner.node)
}

/// The retryable rejection for a request routed under a stale replica set.
fn stale_route(inner: &Inner, id: ObjectId) -> Response {
    Response::Err(WireError::Other(format!(
        "node {} no longer replicates {id:?} (epoch {})",
        inner.node,
        inner.placement.epoch()
    )))
}

/// Installs a migration snapshot on a new owner.
///
/// The install is gated three ways:
///
/// * the sender's topology epoch must match ours ([`Response::WrongEpoch`]
///   otherwise) — a driver that raced a further topology change must
///   recompute its target set;
/// * this node must be a *ring* owner of the object (not an effective
///   owner: mid-move the effective set is still the old one);
/// * the local newest tag must not exceed the incoming seal. A newer
///   local tag means either a zombie line (a never-acknowledged local
///   apply the snapshot fetch could not see) or, for a late duplicate
///   frame, state the flipped object has legitimately moved past. Both
///   answer [`Response::Stale`]: the driver re-seals above the reported
///   tag and re-sends, erasing zombies without ever regressing state.
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
    if tombstone {
        // The move found a majority-committed delete newer than any live
        // state it fetched: land the tombstone itself (at the seal tag)
        // so a stale old owner can never resurrect the object through
        // anti-entropy inventory pulls.
        let _ = inner
            .engine
            .borrow_mut()
            .apply(id, object.tag, &Mutation::Delete);
        inner.ledger.borrow_mut().replace(id, reqs);
    } else {
        install_state(inner, id, object, reqs);
    }
    inner.migrated_in.incr();
    Response::Applied
}

/// Serves a local read. For one-RTT quorum reads (`absent_as_tag`), an
/// absent object answers [`Response::TagIs`] with [`Tag::ZERO`] so the
/// reply still counts toward the quorum, and payloads larger than
/// `inline_limit` degrade to a bare tag report (the client then issues a
/// directed read to the newest replica).
async fn read_local(
    inner: &Rc<Inner>,
    id: ObjectId,
    offset: u64,
    len: u64,
    inline_limit: u64,
    absent_as_tag: bool,
) -> Response {
    let snapshot = {
        let engine = inner.engine.borrow();
        engine.get(id).map(|o| (o.tag, o.mutability, o.stable_len))
    };
    let Some((tag, mutability, stable_len)) = snapshot else {
        return if absent_as_tag {
            // Report the tombstone-aware tag: a deleted object's death
            // tag must outrank any stale replica's live tag in the
            // quorum max, otherwise a one-RTT read could resurrect it.
            Response::TagIs {
                tag: inner.engine.borrow().tag_of(id),
            }
        } else {
            Response::Err(WireError::NotFound(id))
        };
    };
    let result = inner.engine.borrow().read(id, offset, len);
    match result {
        Ok(data) => {
            if data.len() as u64 > inline_limit {
                return Response::TagIs { tag };
            }
            charge_io(inner, data.len()).await;
            inner.reads.incr();
            Response::Data {
                tag,
                mutability,
                stable_len,
                data,
            }
        }
        Err(e) => Response::Err(WireError::from_pcsi(&e)),
    }
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

/// At-most-once execution of [`Request::Coordinate`]. The first arrival
/// of a `req_id` claims it and runs [`coordinate`]; any duplicate
/// delivery either replays the recorded success response or, while the
/// original is still in flight, waits for it to finish. Without this a
/// network-duplicated coordination would be ordered twice at a fresh
/// tag, silently reverting any write that landed in between. A *failed*
/// coordination is removed from the table so a client retry re-executes
/// instead of replaying the failure.
async fn coordinate_dedup(
    inner: &Rc<Inner>,
    req_id: u64,
    id: ObjectId,
    mutation: Mutation,
    sync_replicas: u32,
    expires_ns: u64,
    ctx: Option<TraceContext>,
) -> Response {
    loop {
        let claim = inner.seen_coordinates.borrow_mut().claim(req_id);
        match claim {
            Claim::Claimed => break,
            Claim::Replay(tag) => return Response::Coordinated { tag },
            Claim::InFlight => {
                inner.fabric.handle().sleep(Duration::from_micros(50)).await;
            }
        }
    }
    let resp = coordinate(inner, id, mutation, sync_replicas, req_id, expires_ns, ctx).await;
    inner.seen_coordinates.borrow_mut().finish(req_id, &resp);
    resp
}

/// Whether a [`Request::Coordinate`] attempt's absolute expiry has
/// passed (`expires_ns == 0` means no expiry). Simulated clocks are
/// global, so the coordinator can evaluate the client's deadline
/// exactly.
fn attempt_expired(inner: &Rc<Inner>, expires_ns: u64) -> bool {
    expires_ns != 0 && inner.fabric.handle().now().as_nanos() > expires_ns
}

/// How the synchronous part of a replication round ended.
enum ReplicateOutcome {
    /// Enough acks collected.
    Acked,
    /// A peer holds state newer than the ordered tag — this coordinator
    /// is behind (e.g. it restarted after writes failed over past it).
    Stale {
        /// The newest tag reported.
        newest: Tag,
        /// The peer that reported it (catch-up source).
        holder: NodeId,
    },
    /// Not enough reachable peers acked.
    Failed {
        /// Acks obtained, this node included.
        got: u32,
    },
}

/// Rounds of stale-tag catch-up a coordinator attempts before giving up
/// and letting the client's retry budget drive further progress.
const MAX_CATCHUP_ROUNDS: u32 = 3;

/// Coordinator-side mutation ordering and replication.
///
/// Historically only the placement-order primary coordinated; with
/// client-side failover *any replica of the object* may be asked to. A
/// failed-over coordinator may be behind the rest of the set (it missed
/// applies while down), which is caught two ways: secondaries refuse
/// stale-tagged applies with [`Response::Stale`] — and since at most a
/// minority of replicas can be behind an acknowledged write, a stale
/// coordination can never assemble a majority of acks — and on such
/// evidence the coordinator pulls the newest state, re-orders above it,
/// and retries ([`MAX_CATCHUP_ROUNDS`] times).
///
/// When the local [`ReqLedger`] shows the request is already contained
/// in this node's current state (it coordinated it before, or applied
/// its fan-out), the coordination **replays** replication at the
/// recorded tag instead of ordering again. A replay that finds peers
/// advanced past the recorded tag *without* holding the request does
/// not fabricate success: their history line does not contain the
/// write, so acking would let it silently vanish under LWW
/// convergence. The honest outcome is a retryable quorum failure — the
/// client's failover then re-orders the request on the winning line,
/// where [`Response::AlreadyApplied`] dedup keeps it exactly-once.
async fn coordinate(
    inner: &Rc<Inner>,
    id: ObjectId,
    mutation: Mutation,
    sync_replicas: u32,
    req_id: u64,
    expires_ns: u64,
    ctx: Option<TraceContext>,
) -> Response {
    if attempt_expired(inner, expires_ns) {
        return Response::Err(WireError::Other(format!(
            "attempt for {id:?} expired before coordination started"
        )));
    }
    if inner.placement.is_frozen(id) {
        return Response::Err(WireError::Other(format!(
            "{id:?} is frozen for shard migration"
        )));
    }
    let replicas = inner.placement.replicas(id);
    if !replicas.contains(&inner.node) {
        return Response::Err(WireError::Other(format!(
            "node {} does not replicate {id:?} (replicas are {replicas:?})",
            inner.node
        )));
    }
    inner.coordinated.incr();

    let peers: Vec<NodeId> = replicas
        .iter()
        .copied()
        .filter(|&n| n != inner.node)
        .collect();
    let need = (sync_replicas.saturating_sub(1) as usize).min(peers.len());

    charge_io(inner, mutation_bytes(&mutation)).await;

    let mut floor = Tag::ZERO;
    let mut last_got = 1u32;
    for _round in 0..=MAX_CATCHUP_ROUNDS {
        // A request this node's current state already contains — it
        // ordered it before, applied its fan-out, or a previous round
        // of this loop applied it and the catch-up pull failed to
        // replace the line — must not be applied locally again: replay
        // replication at the recorded tag.
        let recorded = (req_id != 0)
            .then(|| inner.ledger.borrow().lookup(id, req_id))
            .flatten();
        if let Some(tag) = recorded {
            return match replicate(inner, id, tag, &mutation, req_id, &peers, need, true, ctx).await
            {
                ReplicateOutcome::Acked => Response::Coordinated { tag },
                // Peers advanced past the recorded tag on a line that
                // does not contain this request: success here would be
                // a lie (the write loses LWW convergence). Surface a
                // retryable failure; the client's failover re-orders on
                // the winning line.
                ReplicateOutcome::Stale { .. } => Response::Err(WireError::QuorumUnavailable {
                    needed: sync_replicas,
                    got: 1,
                }),
                ReplicateOutcome::Failed { got } => Response::Err(WireError::QuorumUnavailable {
                    needed: sync_replicas,
                    got,
                }),
            };
        }
        // Re-check the freeze *after* every await since the entry check
        // (the IO charge, catch-up rounds): the check below and the
        // local apply share one borrow with no await between them, so a
        // mutation can never be minted inside a migration's freeze
        // window — the snapshot fetch would miss it, and its tag would
        // survive as a zombie line above the seal.
        if inner.placement.is_frozen(id) {
            return Response::Err(WireError::Other(format!(
                "{id:?} is frozen for shard migration"
            )));
        }
        // Never mint a fresh tag for an attempt the client has already
        // abandoned (its per-attempt deadline passed while this
        // coordination sat in IO queues or catch-up rounds). The client
        // may long since have succeeded through another coordinator and
        // issued *later* acknowledged writes; minting now would apply
        // this mutation at a tag above all of them on this node alone —
        // a zombie line that quorum reads and newest-tag-wins
        // anti-entropy would surface as a rollback of those writes.
        if attempt_expired(inner, expires_ns) {
            return Response::Err(WireError::Other(format!(
                "attempt for {id:?} expired before ordering"
            )));
        }
        // Order and apply locally. Charge the media time first: the tag
        // read and the apply must not straddle an await, or two
        // concurrent coordinations for the same object would both read
        // the current tag and assign the *same* tag to different
        // mutations — replicas then diverge at equal tags, which
        // anti-entropy can never repair. `floor` keeps re-orders above
        // any tag a peer reported via `Stale`, even when the catch-up
        // fetch itself failed (or hit a tombstone).
        let tag = {
            let mut engine = inner.engine.borrow_mut();
            let tag = engine.tag_of(id).max(floor).next(inner.node.0);
            if let Err(e) = engine.apply(id, tag, &mutation) {
                return Response::Err(WireError::from_pcsi(&e));
            }
            tag
        };
        if req_id != 0 {
            inner.ledger.borrow_mut().record(id, req_id, tag);
        }
        match replicate(inner, id, tag, &mutation, req_id, &peers, need, false, ctx).await {
            ReplicateOutcome::Acked => return Response::Coordinated { tag },
            ReplicateOutcome::Stale { newest, holder } => {
                floor = floor.max(newest);
                // On success this replaces both the state *and* the
                // ledger line, clearing this round's local record so the
                // next round re-orders fresh; on failure the record
                // stays and the next round replays instead — never a
                // second local apply on a line that already has one.
                let _ = catch_up(inner, id, holder).await;
            }
            ReplicateOutcome::Failed { got } => {
                last_got = got;
                break;
            }
        }
    }
    Response::Err(WireError::QuorumUnavailable {
        needed: sync_replicas,
        got: last_got,
    })
}

/// Fans an ordered mutation to `peers` and waits for `need` acks.
///
/// What counts as an ack is deliberately narrow — a peer's reply is an
/// ack only when it **proves** two things: the peer's state contains
/// this request, AND the peer's state-tag is at least the ordered tag.
/// The second half is what keeps the acked tag the maximum over every
/// line that contains the request — a majority then holds tags `>=`
/// the acked tag, so any later coordination that mints below it can
/// never assemble its own ack majority (the sets intersect, and the
/// intersection answers `Stale`). The qualifying replies:
///
/// * [`Response::Applied`] — it applied it just now (state `>=` tag);
/// * [`Response::AlreadyApplied`] at a recorded tag `>=` the ordered
///   tag — its ledger records the request on a line at or above ours;
/// * [`Response::AlreadyApplied`] at a **lower** recorded tag — the
///   peer holds the request on an older line (it acked a previous
///   coordination of this request that later failed over). Both lines
///   contain the request, but counting this alone once let an acked
///   write live only on the coordinator: the next coordination on the
///   behind peer minted *below* the acked tag and a quorum read
///   surfaced the old value as a rollback. The coordinator therefore
///   first pushes its full state (which contains the ordered tag) to
///   the peer and counts the ack only when the push round-trips — the
///   peer then provably holds state `>=` the ordered tag, installed or
///   already newer;
/// * in `replay` mode, [`Response::Stale`] at **exactly** the replayed
///   tag — tags are minted once, so state at that tag *is* this
///   mutation's apply (covers a peer whose ledger entry was evicted).
///
/// A `Stale` above the replayed tag is NOT an ack: the engine admits
/// tag gaps, so the peer may have advanced via a different write and
/// never applied this one. In fresh mode any `Stale` is evidence the
/// coordinator ordered at a stale tag.
#[allow(clippy::too_many_arguments)]
async fn replicate(
    inner: &Rc<Inner>,
    id: ObjectId,
    tag: Tag,
    mutation: &Mutation,
    req_id: u64,
    peers: &[NodeId],
    need: usize,
    replay: bool,
    ctx: Option<TraceContext>,
) -> ReplicateOutcome {
    // The Apply frame is identical for every peer: encode (and clone the
    // mutation into it) exactly once, then share the frozen bytes.
    let frame = wire::encode_request_traced(
        &Request::Apply {
            id,
            tag,
            mutation: mutation.clone(),
            req_id,
        },
        ctx,
    );
    let task_inner = Rc::clone(inner);
    let classify = move |peer, reply| async move {
        match reply {
            Ok(Response::Applied) => Ok(()),
            Ok(Response::AlreadyApplied { tag: recorded }) if recorded >= tag => Ok(()),
            Ok(Response::AlreadyApplied { .. }) => {
                // The peer holds this request on an older line. Its
                // dedup refusal is correct, but before this reply
                // may count toward the quorum the peer must be
                // brought up to (at least) the ordered tag — see
                // the ack rules above. Push the local state, which
                // contains the ordered apply.
                push_state_to(&task_inner, id, peer).await
            }
            Ok(Response::Stale { newest }) if replay && newest == tag => Ok(()),
            Ok(Response::Stale { newest }) => Err(Some((newest, peer))),
            _ => Err(None),
        }
    };
    let peers = peers.iter().copied();
    // Replication past `need` continues in the background (detached tasks).
    let short = match gather(&inner.fabric, inner.node, peers, frame, need, classify).await {
        Ok(acks) => {
            if let Some(h) = &inner.quorum_acks {
                h.record((acks.len() + 1) as u64);
            }
            return ReplicateOutcome::Acked;
        }
        Err(short) => short,
    };
    // The newest `Stale` evidence that arrived before the round was lost
    // names the catch-up source (the first reporter wins a tie).
    let mut stale: Option<(Tag, NodeId)> = None;
    for (newest, holder) in short.nacks.into_iter().flatten() {
        if stale.is_none_or(|(t, _)| t < newest) {
            stale = Some((newest, holder));
        }
    }
    match stale {
        Some((newest, holder)) => ReplicateOutcome::Stale { newest, holder },
        None => ReplicateOutcome::Failed {
            got: (short.got + 1) as u32,
        },
    }
}

/// Installs a full object state plus the request ledger describing it.
/// The ledger is replaced only when the state is — swapping one without
/// the other would break the "records ⊆ current state line" invariant
/// both dedup paths rely on.
fn install_state(inner: &Inner, id: ObjectId, object: StoredObject, reqs: Vec<(u64, Tag)>) {
    let installed = inner.engine.borrow_mut().sync_in(id, object);
    if installed {
        inner.ledger.borrow_mut().replace(id, reqs);
    }
}

/// Pushes the full local state of `id` (object plus request ledger) to
/// `peer`, returning `Ok(())` only when the peer acknowledged the push.
/// The peer installs it newest-wins, so a successful round-trip proves
/// the peer's state-tag is at least the local tag at snapshot time —
/// the guarantee [`replicate`] needs before counting a behind peer's
/// [`Response::AlreadyApplied`] as a quorum ack.
async fn push_state_to(
    inner: &Rc<Inner>,
    id: ObjectId,
    peer: NodeId,
) -> Result<(), Option<(Tag, NodeId)>> {
    let snapshot = inner.engine.borrow().get(id).cloned();
    let Some(object) = snapshot else {
        return Err(None);
    };
    let reqs = inner.ledger.borrow().snapshot(id);
    let frame = wire::encode_request(&Request::Push { id, object, reqs });
    match rpc(&inner.fabric, inner.node, peer, frame).await {
        Ok(Response::Applied) => Ok(()),
        _ => Err(None),
    }
}

/// Pulls the newest state of `id` from `holder` into the local engine
/// (best effort — a coordinator's tag floor guarantees progress even
/// when this fails). `Err` means the fetch itself failed, not that
/// `holder` had nothing to give.
async fn catch_up(inner: &Rc<Inner>, id: ObjectId, holder: NodeId) -> Result<(), PcsiError> {
    let frame = wire::encode_request(&Request::Fetch { id });
    let reply = rpc(&inner.fabric, inner.node, holder, frame).await?;
    if let Response::Object { object, reqs } = reply {
        charge_io(inner, object.data.len()).await;
        install_state(inner, id, object, reqs);
        inner.synced_in.incr();
    }
    Ok(())
}

/// One pull-based anti-entropy exchange with a random peer.
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
    let Ok(Response::InventoryIs { entries }) = rpc(&inner.fabric, inner.node, peer, frame).await
    else {
        return;
    };

    for (id, peer_tag) in entries {
        // Only track objects this node replicates.
        if !effective_member(inner, id) {
            continue;
        }
        let local_tag = inner.engine.borrow().tag_of(id);
        if peer_tag <= local_tag {
            continue;
        }
        if catch_up(inner, id, peer).await.is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_sim::rng::DetRng;

    fn id(n: u64) -> ObjectId {
        ObjectId::from_parts(7, n)
    }

    fn tag(seq: u64, writer: u32) -> Tag {
        Tag { seq, writer }
    }

    #[test]
    fn ledger_records_and_replaces() {
        let mut l = ReqLedger::default();
        l.record(id(1), 10, tag(3, 0));
        assert_eq!(l.lookup(id(1), 10), Some(tag(3, 0)));
        assert_eq!(l.lookup(id(1), 11), None);
        assert_eq!(l.lookup(id(2), 10), None);
        // Re-recording keeps the newest tag (catch-up re-order moved it).
        l.record(id(1), 10, tag(5, 1));
        assert_eq!(l.lookup(id(1), 10), Some(tag(5, 1)));
        l.record(id(1), 10, tag(4, 0));
        assert_eq!(l.lookup(id(1), 10), Some(tag(5, 1)));
        // A full-state install replaces, never merges: records from the
        // losing line must not survive next to the winner's.
        l.replace(id(1), vec![(20, tag(9, 2))]);
        assert_eq!(l.lookup(id(1), 10), None);
        assert_eq!(l.lookup(id(1), 20), Some(tag(9, 2)));
        // Replacing with an empty ledger drops the object entirely.
        l.replace(id(1), vec![]);
        assert_eq!(l.snapshot(id(1)), vec![]);
    }

    #[test]
    fn ledger_caps_records_per_object() {
        let mut l = ReqLedger::default();
        for r in 0..(LEDGER_PER_OBJECT as u64 + 8) {
            l.record(id(1), r, tag(r + 1, 0));
        }
        assert_eq!(l.snapshot(id(1)).len(), LEDGER_PER_OBJECT);
        // The oldest records fell off the front; the newest survive.
        assert_eq!(l.lookup(id(1), 0), None);
        assert_eq!(l.lookup(id(1), 7), None);
        assert_eq!(l.lookup(id(1), 8), Some(tag(9, 0)));
        // An oversized shipped ledger is trimmed the same way.
        let big: Vec<(u64, Tag)> = (0..(LEDGER_PER_OBJECT as u64 + 4))
            .map(|r| (r, tag(r + 1, 1)))
            .collect();
        l.replace(id(2), big);
        assert_eq!(l.snapshot(id(2)).len(), LEDGER_PER_OBJECT);
        assert_eq!(l.lookup(id(2), 3), None);
        assert_eq!(l.lookup(id(2), 4), Some(tag(5, 1)));
    }

    #[test]
    fn ledger_evicts_longest_idle_objects() {
        let mut l = ReqLedger::default();
        // req_ids are monotone across the client population, so object
        // insertion order here matches idleness order.
        for n in 0..(LEDGER_OBJECTS as u64 + 3) {
            l.record(id(n), n + 100, tag(1, 0));
        }
        assert_eq!(l.by_object.len(), LEDGER_OBJECTS);
        for n in 0..3 {
            assert_eq!(l.lookup(id(n), n + 100), None, "object {n} evicted");
        }
        for n in 3..6 {
            assert_eq!(l.lookup(id(n), n + 100), Some(tag(1, 0)));
        }
    }

    /// The dedup table [`SeenCoordinates`] replaced, kept as the oracle:
    /// one map (`None` = in flight) whose completed entries are counted
    /// by walking it after every coordination.
    #[derive(Default)]
    struct WalkedTable(BTreeMap<u64, Option<Response>>);

    impl WalkedTable {
        fn claim(&mut self, req_id: u64) -> Claim {
            match self.0.get(&req_id) {
                Some(Some(Response::Coordinated { tag })) => Claim::Replay(*tag),
                Some(Some(other)) => panic!("recorded a failure: {other:?}"),
                Some(None) => Claim::InFlight,
                None => {
                    self.0.insert(req_id, None);
                    Claim::Claimed
                }
            }
        }

        fn finish(&mut self, req_id: u64, resp: &Response) {
            let seen = &mut self.0;
            if matches!(resp, Response::Coordinated { .. }) {
                seen.insert(req_id, Some(resp.clone()));
            } else {
                seen.remove(&req_id);
            }
            let completed = seen.values().filter(|v| v.is_some()).count();
            for _ in SEEN_COORDINATES_CAP..completed {
                let oldest = seen
                    .iter()
                    .find(|(_, v)| v.is_some())
                    .map(|(&r, _)| r)
                    .expect("completed count > 0");
                seen.remove(&oldest);
            }
        }
    }

    #[test]
    fn seen_coordinates_keeps_what_the_walked_table_kept() {
        let (mut new, mut old) = (SeenCoordinates::default(), WalkedTable::default());
        let rng = DetRng::seeded(14);
        let mut running: Vec<u64> = Vec::new();
        let (mut completions, mut steps) = (0, 0);
        let mut next_req = 1u64;
        while completions < 3 * SEEN_COORDINATES_CAP {
            // Arrivals: mostly fresh requests, some duplicates of old
            // ones (completed, evicted or still running).
            let req_id = if rng.u64().is_multiple_of(4) {
                rng.gen_range(1..next_req + 1)
            } else {
                next_req += 1;
                next_req
            };
            let claim = new.claim(req_id);
            assert_eq!(claim, old.claim(req_id), "req {req_id}");
            if claim == Claim::Claimed {
                running.push(req_id);
            }
            // Departures: keep a few dozen claims in flight, finish a
            // random one, one in five as a failure.
            if running.len() > rng.gen_range(0..48) as usize {
                let req_id = running.swap_remove(rng.gen_range(0..running.len() as u64) as usize);
                let resp = if rng.u64().is_multiple_of(5) {
                    Response::Err(WireError::Other("quorum".into()))
                } else {
                    completions += 1;
                    Response::Coordinated {
                        tag: tag(req_id, 0),
                    }
                };
                new.finish(req_id, &resp);
                old.finish(req_id, &resp);
            }
            assert!(new.completed.len() <= SEEN_COORDINATES_CAP);
            steps += 1;
            // Every step: same size, same next victim. Periodically (and
            // on any doubt): the same surviving keys.
            let same_size = new.in_flight.len() + new.completed.len() == old.0.len();
            let oldest = old.0.iter().find(|(_, v)| v.is_some()).map(|(r, _)| r);
            if steps % 64 == 0 || !same_size || new.completed.keys().next() != oldest {
                let mut survivors: Vec<u64> = new.in_flight.iter().copied().collect();
                survivors.extend(new.completed.keys());
                survivors.sort_unstable();
                assert!(survivors.iter().eq(old.0.keys()), "after req {req_id}");
            }
        }
        assert_eq!(new.completed.len(), SEEN_COORDINATES_CAP);
        assert!(!running.is_empty(), "no in-flight claim at the end");
    }

    /// The ledger victim search the `by_idleness` index replaced, kept
    /// as the oracle: rescan every object's records per eviction.
    fn evict_idle_objects_by_scan(by_object: &mut FxHashMap<ObjectId, Vec<(u64, Tag)>>) {
        while by_object.len() > LEDGER_OBJECTS {
            let idle = by_object
                .iter()
                .map(|(&id, reqs)| (reqs.iter().map(|&(r, _)| r).max().unwrap_or(0), id))
                .min()
                .map(|(_, id)| id)
                .expect("non-empty");
            by_object.remove(&idle);
        }
    }

    #[test]
    fn ledger_evicts_the_victims_the_scan_evicted() {
        let mut new = ReqLedger::default();
        let mut old: FxHashMap<ObjectId, Vec<(u64, Tag)>> = FxHashMap::default();
        let rng = DetRng::seeded(15);
        let objects = 3 * LEDGER_OBJECTS as u64;
        for step in 1..=(4 * objects) {
            // Skewed towards recently introduced objects, so old ones go
            // idle; req_ids mostly grow, with retries of older ones.
            // One step in eight hits a hot object, overflowing its records.
            let object = match rng.gen_range(0..8) {
                0 => id(objects + rng.gen_range(0..16)),
                _ => id((step / 2).saturating_sub(rng.gen_range(0..6_000)) % objects),
            };
            let req_id = step.saturating_sub(rng.gen_range(0..64));
            if rng.u64().is_multiple_of(16) {
                // A full-state install: shipped records, sometimes none.
                let shipped: Vec<(u64, Tag)> = (0..rng.gen_range(0..3))
                    .map(|i| (req_id + i, tag(step, 1)))
                    .collect();
                new.replace(object, shipped.clone());
                if shipped.is_empty() {
                    old.remove(&object);
                } else {
                    old.insert(object, shipped);
                }
            } else {
                new.record(object, req_id, tag(step, 0));
                let reqs = old.entry(object).or_default();
                match reqs.iter_mut().find(|(r, _)| *r == req_id) {
                    Some(entry) => entry.1 = entry.1.max(tag(step, 0)),
                    None => reqs.push((req_id, tag(step, 0))),
                }
                if reqs.len() > LEDGER_PER_OBJECT {
                    reqs.remove(0);
                }
            }
            evict_idle_objects_by_scan(&mut old);
            assert_eq!(new.by_object.len(), new.by_idleness.len());
            if step % 64 == 0 || new.by_object.len() != old.len() {
                assert!(new.by_object == old, "diverged at step {step}");
            }
        }
        assert!(new.by_object == old);
        assert_eq!(old.len(), LEDGER_OBJECTS);
    }
}
