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
use std::collections::BTreeMap;

use fxhash::FxHashSet;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{ObjectId, PcsiError};
use pcsi_metrics::{Counter, Histogram};
use pcsi_net::fabric::RpcHandler;
use pcsi_net::{Fabric, NodeId, Transport};
use pcsi_obs::Telemetry;
use pcsi_sim::SimTime;
use pcsi_trace::{TraceContext, Tracer};

use crate::engine::{MediaTier, Mutation, StorageEngine, StoredObject};
use crate::placement::Placement;
use crate::quorum::{gather, rpc};
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
    /// The coordinate dedup table. See [`SeenCoordinates`].
    seen_coordinates: RefCell<SeenCoordinates>,
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
            Rc::new(move |payload, _| {
                let inner = Rc::clone(&inner);
                Box::pin(async move { Ok(handle(inner, payload).await) })
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

/// Completed coordinate-dedup entries kept per replica before the
/// oldest are evicted. An evicted request that is retried falls through
/// to [`coordinate`], whose lookup of the engine's request records still
/// replays it honestly instead of re-ordering.
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

async fn handle(inner: Rc<Inner>, payload: Bytes) -> Bytes {
    let (request, wire_ctx) = match wire::decode_request_traced(&payload) {
        Ok(r) => r,
        Err(e) => {
            return wire::encode_response(&Response::Err(PcsiError::Fault(format!(
                "storage wire codec error: {e}"
            ))));
        }
    };
    // The store protocol carries the context in its own envelope.
    let mut span = pcsi_trace::child_of(&inner.tracer, wire_ctx, request_span_name(&request));
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
            let duplicate = inner.engine.borrow().recorded(id, req_id);
            if inner.placement.is_frozen(id) {
                frozen(id)
            } else if !effective_member(&inner, id) {
                Response::Err(PcsiError::Fault(format!(
                    "node {} no longer replicates {id:?}",
                    inner.node
                )))
            } else if let Some(recorded) = duplicate {
                Response::AlreadyApplied { tag: recorded }
            } else {
                let mut engine = inner.engine.borrow_mut();
                let newest = engine.tag_of(id);
                if tag <= newest {
                    // Refuse to ack a stale-tagged apply. A coordinator
                    // that restarted behind the replica set would
                    // otherwise collect acks for writes that are
                    // invisible to every read quorum.
                    Response::Stale { newest }
                } else if let Err(e) = engine.apply(id, tag, &mutation) {
                    Response::Err(e)
                } else {
                    inner.applied.incr();
                    engine.record(id, req_id, tag);
                    Response::Applied
                }
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
            // Read before the IO charge: no engine borrow may live
            // across an await.
            let state = inner.engine.borrow().state(id);
            match state {
                Some((object, reqs)) => {
                    charge_io(&inner, object.data.len()).await;
                    inner.fetched.incr();
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
            inner.engine.borrow_mut().sync_in(id, object, reqs, false);
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
    // With `tombstone` the move found a majority-committed delete newer
    // than any live state it fetched: the tombstone itself lands (at the
    // seal tag), so a stale old owner can never resurrect the object
    // through anti-entropy inventory pulls.
    inner
        .engine
        .borrow_mut()
        .sync_in(id, object, reqs, tombstone);
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
    let found = inner.engine.borrow().get(id).map(|o| {
        let data = o.slice(offset, len);
        (o.tag, o.mutability, o.stable_len, data)
    });
    let Some((tag, mutability, stable_len, data)) = found else {
        return if absent_as_tag {
            // Report the tombstone-aware tag: a deleted object's death
            // tag must outrank any stale replica's live tag in the
            // quorum max, otherwise a one-RTT read could resurrect it.
            Response::TagIs {
                tag: inner.engine.borrow().tag_of(id),
            }
        } else {
            Response::Err(PcsiError::NotFound(id))
        };
    };
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
/// When the engine's request records show the request is already
/// contained in this node's current state (it coordinated it before, or
/// applied its fan-out), the coordination **replays** replication at the
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
        return Response::Err(PcsiError::Fault(format!(
            "attempt for {id:?} expired before coordination started"
        )));
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

    let peers: Vec<NodeId> = replicas
        .iter()
        .copied()
        .filter(|&n| n != inner.node)
        .collect();
    let need = (sync_replicas.saturating_sub(1) as usize).min(peers.len());

    charge_io(inner, mutation_bytes(&mutation)).await;

    let mut floor = Tag::ZERO;
    let mut got = 1u32;
    for _round in 0..=MAX_CATCHUP_ROUNDS {
        // A request this node's current state already contains — it
        // ordered it before, applied its fan-out, or a previous round
        // of this loop applied it and the catch-up pull failed to
        // replace the line — must not be applied locally again: replay
        // replication at the recorded tag.
        let recorded = inner.engine.borrow().recorded(id, req_id);
        let tag = match recorded {
            Some(tag) => tag,
            None => {
                // Re-check the freeze *after* every await since the
                // entry check (the IO charge, catch-up rounds): the
                // check and the local apply share no await, so a
                // mutation can never be minted inside a migration's
                // freeze window — the snapshot fetch would miss it, and
                // its tag would survive as a zombie line above the seal.
                if inner.placement.is_frozen(id) {
                    return frozen(id);
                }
                // Never mint a fresh tag for an attempt the client has
                // already abandoned (its deadline passed in IO queues or
                // catch-up rounds): it may have succeeded through another
                // coordinator and issued *later* acknowledged writes, and
                // minting now would put this mutation above all of them
                // on this node alone — a zombie line that quorum reads
                // and newest-tag-wins anti-entropy would surface as a
                // rollback of those writes.
                if attempt_expired(inner, expires_ns) {
                    return Response::Err(PcsiError::Fault(format!(
                        "attempt for {id:?} expired before ordering"
                    )));
                }
                // Order, then apply below. The media time was charged
                // first: the tag read and the apply must not straddle an
                // await, or two concurrent coordinations for the same
                // object would both read the current tag and assign the
                // *same* tag to different mutations — replicas then
                // diverge at equal tags, which anti-entropy can never
                // repair. `floor` keeps re-orders above any tag a peer
                // reported via `Stale`, even when the catch-up fetch
                // itself failed (or hit a tombstone).
                let newest = inner.engine.borrow().tag_of(id);
                newest.max(floor).next(inner.node.0)
            }
        };
        let replay = recorded.is_some();
        // A fresh order applies locally from the frame the peers get, so
        // every replica of the write keeps a view of one allocation.
        let (frame, local) = wire::apply_frame(id, tag, &mutation, req_id, ctx);
        if !replay {
            let mut engine = inner.engine.borrow_mut();
            if let Err(e) = engine.apply(id, tag, &local) {
                return Response::Err(e);
            }
            engine.record(id, req_id, tag);
        }
        match replicate(inner, id, tag, frame, &peers, need, replay).await {
            ReplicateOutcome::Acked => return Response::Coordinated { tag },
            // A replay's peers advanced past the recorded tag on a line
            // that does not contain this request: success here would be
            // a lie (the write loses LWW convergence). Surface a
            // retryable failure (`got` is still 1: `Failed` breaks); the
            // client's failover re-orders on the winning line.
            ReplicateOutcome::Stale { .. } if replay => break,
            ReplicateOutcome::Stale { newest, holder } => {
                floor = floor.max(newest);
                // On success this replaces both the state *and* the
                // ledger line, clearing this round's local record so the
                // next round re-orders fresh; on failure the record
                // stays and the next round replays instead — never a
                // second local apply on a line that already has one.
                let _ = catch_up(inner, id, holder).await;
            }
            ReplicateOutcome::Failed { got: acked } => {
                got = acked;
                break;
            }
        }
    }
    Response::Err(PcsiError::QuorumUnavailable {
        needed: sync_replicas as usize,
        got: got as usize,
    })
}

/// What one reply to the `Apply` at the ordered tag proves, by
/// [`ack_verdict`]. An ack must **prove** two things: the peer's state
/// contains this request, AND its state-tag is at least the ordered tag.
/// The second half keeps the acked tag the maximum over every line that
/// contains the request — a majority then holds tags `>=` it, so a later
/// coordination that mints below it can never assemble its own ack
/// majority (the sets intersect, and the intersection answers `Stale`).
#[derive(Debug, PartialEq)]
enum Verdict {
    /// `Applied` (state `>=` tag just now); `AlreadyApplied` at a tag
    /// `>=` ours (the ledger holds it on a line at or above ours); in
    /// replay mode, `Stale` at **exactly** the replayed tag (tags are
    /// minted once, so state at that tag *is* this mutation's apply —
    /// covers a peer whose ledger entry was evicted).
    Ack,
    /// `AlreadyApplied` *below* ours: the peer holds the request on an
    /// older line (it acked an earlier coordination that failed over).
    /// Counting that alone once let an acked write live only on the
    /// coordinator — the behind peer's next coordination minted below
    /// it and a quorum read surfaced a rollback — so the coordinator
    /// first pushes its state (which contains the ordered tag) and
    /// counts the ack only when the push round-trips.
    AckAfterPush,
    /// Any other `Stale`: no ack — the engine admits tag gaps, so a peer
    /// above the tag may have advanced via a different write — but in
    /// fresh mode, evidence that the coordinator ordered at a stale tag.
    Stale(Tag),
    /// Anything else: an error or a transport failure.
    No,
}

/// The ack rules as one table, row by row as [`Verdict`] states them.
fn ack_verdict(reply: &Result<Response, PcsiError>, tag: Tag, replay: bool) -> Verdict {
    match *reply {
        Ok(Response::Applied) => Verdict::Ack,
        Ok(Response::AlreadyApplied { tag: recorded }) if recorded >= tag => Verdict::Ack,
        Ok(Response::AlreadyApplied { .. }) => Verdict::AckAfterPush,
        Ok(Response::Stale { newest }) if replay && newest == tag => Verdict::Ack,
        Ok(Response::Stale { newest }) => Verdict::Stale(newest),
        _ => Verdict::No,
    }
}

/// Fans the `Apply` frame of a mutation ordered at `tag` to `peers` — one
/// frame for all of them — and waits for `need` replies that
/// [`ack_verdict`] counts as acks.
async fn replicate(
    inner: &Rc<Inner>,
    id: ObjectId,
    tag: Tag,
    frame: Bytes,
    peers: &[NodeId],
    need: usize,
    replay: bool,
) -> ReplicateOutcome {
    let task_inner = Rc::clone(inner);
    let classify = move |peer, reply| async move {
        match ack_verdict(&reply, tag, replay) {
            Verdict::Ack => Ok(()),
            Verdict::AckAfterPush => push_state_to(&task_inner, id, peer).await,
            Verdict::Stale(newest) => Err(Some((newest, peer))),
            Verdict::No => Err(None),
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
    let newer =
        |seen: (Tag, NodeId), next: (Tag, NodeId)| if next.0 > seen.0 { next } else { seen };
    match short.nacks.into_iter().flatten().reduce(newer) {
        Some((newest, holder)) => ReplicateOutcome::Stale { newest, holder },
        None => ReplicateOutcome::Failed {
            got: (short.got + 1) as u32,
        },
    }
}

/// Pushes the full local state of `id` (object plus request records) to
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
    let Some((object, reqs)) = inner.engine.borrow().state(id) else {
        return Err(None);
    };
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
        inner.engine.borrow_mut().sync_in(id, object, reqs, false);
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
    let Ok(Response::InventoryIs { mut entries }) =
        rpc(&inner.fabric, inner.node, peer, frame).await
    else {
        return;
    };

    // Only objects this node replicates, and only where the peer is newer.
    let behind = |&(id, peer_tag): &(ObjectId, Tag)| {
        effective_member(inner, id) && peer_tag > inner.engine.borrow().tag_of(id)
    };
    // The peer lists in its engine's order. One pass finds the first id
    // this node is behind on; a round with none pulls and sorts nothing.
    // Pulls go in id order from there: every entry below that id would
    // fail `behind` at this same instant, before any await.
    let Some(first) = entries.iter().filter(|e| behind(e)).map(|e| e.0).min() else {
        return;
    };
    entries.sort_unstable();
    let from = entries.partition_point(|e| e.0 < first);
    for entry in &entries[from..] {
        if behind(entry) && catch_up(inner, entry.0, peer).await.is_err() {
            return;
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
    use pcsi_sim::rng::DetRng;
    use pcsi_sim::Sim;
    use std::collections::BTreeSet;

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

    /// Every reply kind, replay off and on, against the rules as
    /// DESIGN §4.3 states them — written out, not derived.
    #[test]
    fn ack_table_covers_every_reply_kind() {
        let ordered = tag(5, 1);
        let (below, above) = (tag(4, 2), tag(5, 2));
        let ok = |r: Response| Ok::<_, PcsiError>(r);
        let data = Response::Data {
            tag: ordered,
            mutability: pcsi_core::Mutability::Mutable,
            stable_len: 0,
            data: Bytes::new(),
        };
        use Verdict::{Ack, AckAfterPush, No, Stale};
        // (reply, verdict in fresh mode, verdict in replay mode)
        let rows = [
            (ok(Response::Applied), Ack, Ack),
            (
                ok(Response::AlreadyApplied { tag: below }),
                AckAfterPush,
                AckAfterPush,
            ),
            (ok(Response::AlreadyApplied { tag: ordered }), Ack, Ack),
            (ok(Response::AlreadyApplied { tag: above }), Ack, Ack),
            (
                ok(Response::Stale { newest: below }),
                Stale(below),
                Stale(below),
            ),
            (ok(Response::Stale { newest: ordered }), Stale(ordered), Ack),
            (
                ok(Response::Stale { newest: above }),
                Stale(above),
                Stale(above),
            ),
            (ok(Response::Err(PcsiError::Fault("x".into()))), No, No),
            (ok(data), No, No),
            (Err(PcsiError::Unreachable("n3 down".into())), No, No),
        ];
        for (reply, fresh, replay) in rows {
            assert_eq!(ack_verdict(&reply, ordered, false), fresh, "{reply:?}");
            assert_eq!(
                ack_verdict(&reply, ordered, true),
                replay,
                "{reply:?} (replay)"
            );
        }
    }

    /// A `Fetch` ships the ledger describing the bytes it ships. An
    /// apply that lands while the fetch queues on the device must not
    /// ride along with bytes that predate it: a receiver installing such
    /// a reply would answer `AlreadyApplied` for a request it lacks.
    #[test]
    fn fetch_ships_only_requests_its_bytes_contain() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, nvme());
        let reply = sim.block_on(async move {
            let (id, data) = (id(1), Bytes::from(vec![7u8; 4096]));
            let t1 = linearizable_put(&store.client(NodeId(0)), id, data.clone()).await;
            let p = store.placement().replicas(id)[1];
            let call = |req: &Request| rpc(&fabric, p, p, wire::encode_request(req));
            let apply = call(&Request::Apply {
                id,
                tag: t1.next(9),
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
    /// failed-over coordinator re-sends the request at a fresh higher
    /// tag, and `Append` is not idempotent.
    #[test]
    fn a_request_on_an_idle_object_is_not_applied_twice() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, nvme());
        let (first, reply, held) = sim.block_on(async move {
            let x = id(1);
            let t1 = linearizable_put(&store.client(NodeId(0)), x, Bytes::from_static(b"x")).await;
            let p = store.placement().replicas(x)[1];
            let call = |req: &Request| rpc(&fabric, p, p, wire::encode_request(req));
            let append = |tag| Request::Apply {
                id: x,
                tag,
                mutation: Mutation::Append {
                    data: Bytes::from_static(b"a"),
                },
                req_id: 777,
            };
            let first = t1.next(9);
            assert_eq!(call(&append(first)).await.unwrap(), Response::Applied);
            // 4,097 writes to other objects p replicates, each a newer
            // request than 777.
            let others = (2..)
                .map(id)
                .filter(|&o| store.placement().is_replica(o, p));
            for (req_id, other) in (1_000..).zip(others.take(4_097)) {
                let put = Request::Apply {
                    id: other,
                    tag: Tag { seq: 1, writer: 9 },
                    mutation: Mutation::PutFull {
                        data: Bytes::from_static(b"o"),
                        mutability: Mutability::Mutable,
                    },
                    req_id,
                };
                assert_eq!(call(&put).await.unwrap(), Response::Applied);
            }
            let retry = call(&append(first.next(5))).await.unwrap();
            let replica = store.replica_on(p).expect("a replica on every node");
            let held = replica.with_engine(|e| e.read(x, 0, u64::MAX).unwrap());
            (first, retry, held)
        });
        assert_eq!(reply, Response::AlreadyApplied { tag: first });
        assert_eq!(&held[..], b"xa");
    }

    /// The requester pulls in id order whatever order the responder
    /// lists in: a peer's engine lists unsorted, and the round sorts
    /// only when it has something to pull.
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
        let fetched = Rc::new(RefCell::new(Vec::new()));
        for peer in [NodeId(1), NodeId(2)] {
            let (listed, fetched) = (listed.clone(), Rc::clone(&fetched));
            let fake: RpcHandler = Rc::new(move |payload, _| {
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
                    other => panic!("a fake peer got {other:?}"),
                };
                Box::pin(async move { Ok(wire::encode_response(&response)) })
            });
            fabric.bind(peer, STORE_SERVICE, fake);
        }
        let round = replica.clone();
        sim.block_on(async move { round.anti_entropy_once().await });
        let mut behind: Vec<ObjectId> = [1, 3, 5, 6, 8].map(id).into();
        behind.sort_unstable();
        assert_eq!(*fetched.borrow(), behind);
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
                    Response::Err(PcsiError::Fault("quorum".into()))
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

    #[test]
    fn failover_reorder_does_not_double_apply() {
        // Regression for the exactly-once hole: a coordination succeeds
        // server-side at the primary (its fan-out reached one secondary)
        // but the ack to the client is lost. The client fails over; the
        // failover target never saw the request and re-orders it at a
        // fresh higher tag. Replicas that already applied it must answer
        // `AlreadyApplied` instead of applying the non-idempotent append
        // a second time — before the fix they deduplicated only by tag,
        // and the fresh tag sailed past that check.
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
                // The replay against the primary must NOT have claimed
                // success at the recorded tag; the write lands re-ordered
                // by the failover target, above the concurrent writes.
                assert_eq!(tag.writer, b.0, "ordered by the failover target");
                assert!(tag.seq >= 4, "ordered above the concurrent writes: {tag}");
                let stats = store.retry_stats();
                assert!(stats.retries >= 2 && stats.failovers >= 1, "{stats:?}");
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

    /// OPEN BUG, pinned — ROADMAP item 1, a third shape of its root cause.
    /// A secondary applies an `Append` on top of whatever bytes it holds,
    /// so a tag gap corrupts it: the primary acknowledges `r` at 2@A with
    /// its fan-out lost, then `s` at 3@A lands on the secondaries on top of
    /// `p`. All three replicas end at tag 3@A, so anti-entropy sees nothing
    /// to repair, and the acknowledged `r` is gone from two of three
    /// replicas for good. Item 1's fix turns this assertion round.
    #[test]
    fn open_bug_item_1_gap_applied_append_diverges() {
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
            let at = |seq| Tag { seq, writer: a.0 };
            assert!(
                matches!(r, Response::Coordinated { tag } if tag == at(2)),
                "{r:?}"
            );
            fabric.clear_message_faults();
            let s = raw_append(&fabric, client_node, a, id, b"s", 701).await;
            assert!(
                matches!(s, Response::Coordinated { tag } if tag == at(3)),
                "{s:?}"
            );
            // Let the fan-out of `s` land before anti-entropy looks.
            fabric.handle().sleep(Duration::from_millis(1)).await;
            testkit::anti_entropy(&store, 8).await;
            let tag_on = |node: NodeId| {
                store
                    .replica_on(node)
                    .unwrap()
                    .with_engine(|e| e.get(id).map(|o| o.tag))
            };
            for node in [a, b, c] {
                assert_eq!(tag_on(node), Some(at(3)), "tag on {node}");
            }
            assert_eq!(replica_bytes(&store, a, id), b"prs");
            assert_eq!(replica_bytes(&store, b, id), b"ps", "r lost on {b}");
            assert_eq!(replica_bytes(&store, c, id), b"ps", "r lost on {c}");
        });
    }
}
