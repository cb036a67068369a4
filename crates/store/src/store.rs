//! The client-facing replicated store.
//!
//! [`ReplicatedStore`] launches one [`ReplicaNode`] per storage node and
//! hands out per-origin [`StoreClient`]s. A client maps the PCSI
//! consistency menu onto the replication machinery:
//!
//! | operation            | `Linearizable`                          | `Eventual`              |
//! |----------------------|-----------------------------------------|-------------------------|
//! | mutation             | primary + sync majority                 | primary only, async rest|
//! | read                 | one-RTT quorum read (newest of majority)| closest replica         |
//!
//! Mutations always pass through the object's primary, which gives every
//! object a total mutation order regardless of consistency level (the
//! menu controls *acknowledgement* and *read* behaviour, not ordering).
//!
//! Linearizable reads fan the read itself to every replica and take the
//! newest tag among the first majority of replies — one fabric round
//! trip, correct because any write-majority intersects any read-majority.
//! Payloads above [`StoreConfig::inline_read_max`] degrade to a tag
//! report plus a directed read (the former two-phase path). A quorum read
//! that observes divergent tags pushes the newest state to the stale
//! replicas in the background (read repair).
//!
//! Each client node also keeps a mutability-aware [`ObjectCache`]:
//! `IMMUTABLE` objects and the stable prefixes of `APPEND_ONLY` objects
//! are served node-locally at DRAM cost with zero fabric traffic.

use fxhash::FxHashMap;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{Consistency, Mutability, ObjectId, PcsiError};
use pcsi_metrics::Counter;
use pcsi_net::{Fabric, NodeId};
use pcsi_obs::{JournalExt, Telemetry};
use pcsi_sim::util::{join_all, Pacer};
use pcsi_sim::SimTime;
use pcsi_trace::{AttrValue, SpanHandle, TraceContext};

use crate::cache::ObjectCache;
use crate::engine::{MediaTier, Mutation, StoredObject};
use crate::placement::Placement;
use crate::quorum::{self, rpc};
use crate::recovery::{Attempt, Recovery};
use crate::replica::ReplicaNode;
use crate::retry::{RetryPolicy, RetryStats};
use crate::version::Tag;
use crate::wire::{self, Request, Response};

/// Store deployment configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Copies per object.
    pub n_replicas: usize,
    /// Media tier of every replica engine.
    pub tier: MediaTier,
    /// Anti-entropy period; `None` disables the background task (tests
    /// drive rounds manually).
    pub anti_entropy: Option<Duration>,
    /// Largest payload (bytes) replicas inline into a one-RTT quorum
    /// read reply. Larger objects fall back to the two-phase path (tag
    /// quorum, then a directed read from the newest replica). `0`
    /// disables the one-RTT path entirely and always uses two phases.
    pub inline_read_max: u64,
    /// Byte budget of each node-local client cache; `0` disables
    /// client-side caching.
    pub cache_bytes: usize,
    /// Client-side fault recovery: per-attempt deadlines, bounded
    /// seeded-jitter retries, and coordination failover.
    pub retry: RetryPolicy,
    /// Nodes initially in the placement ring. `None` (the default) puts
    /// every storage node in the ring. A subset leaves the rest running
    /// as warm standbys that hold no data until
    /// [`ReplicatedStore::join_node`] admits them — the elastic-scaling
    /// path.
    pub ring_nodes: Option<Vec<NodeId>>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            n_replicas: 3,
            tier: MediaTier::Nvme,
            anti_entropy: Some(Duration::from_millis(100)),
            inline_read_max: 64 * 1024,
            cache_bytes: 256 * 1024 * 1024,
            retry: RetryPolicy::default(),
            ring_nodes: None,
        }
    }
}

/// Aggregated client-cache counters across all nodes of a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from a node-local cache.
    pub hits: u64,
    /// Reads that had to go to the replicas.
    pub misses: u64,
    /// Entries evicted to stay within budget.
    pub evictions: u64,
}

/// One client-side store operation as observed at its boundary: the
/// invocation and response instants in virtual time plus the outcome.
/// Emitted through the [`HistoryTap`] for consistency checking — the
/// chaos harness records these into a concurrent history and runs a
/// linearizability checker over it.
#[derive(Debug, Clone)]
pub enum TapEvent {
    /// A client read (cache hits included).
    Read {
        /// Node the operation originated from.
        origin: NodeId,
        /// Object read.
        id: ObjectId,
        /// Consistency level the read was issued at.
        consistency: Consistency,
        /// Range start.
        offset: u64,
        /// Range length.
        len: u64,
        /// Invocation instant.
        invoke: SimTime,
        /// Response instant.
        response: SimTime,
        /// Served `(tag, data)` or the error rendered as a string.
        outcome: Result<(Tag, Bytes), String>,
    },
    /// A client mutation routed through the object's primary.
    Mutate {
        /// Node the operation originated from.
        origin: NodeId,
        /// Object mutated.
        id: ObjectId,
        /// Mutation kind (`"put"`, `"write_at"`, `"append"`,
        /// `"set_mutability"`, `"delete"`).
        op: &'static str,
        /// Payload bytes of the mutation (empty for payload-free ops).
        payload: Bytes,
        /// Synchronous acknowledgements the mutation waited for.
        sync_replicas: u32,
        /// Invocation instant.
        invoke: SimTime,
        /// Response instant.
        response: SimTime,
        /// Acknowledged tag or the error rendered as a string.
        outcome: Result<Tag, String>,
    },
}

/// Observer invoked once per completed client operation.
pub type HistoryTap = Rc<dyn Fn(&TapEvent)>;

/// The deployed storage system.
#[derive(Clone)]
pub struct ReplicatedStore {
    inner: Rc<StoreInner>,
}

struct StoreInner {
    fabric: Fabric,
    placement: Placement,
    replicas: Vec<ReplicaNode>,
    config: StoreConfig,
    /// One mutability-aware cache per client node, created lazily.
    /// Clients are handed out per call, so the cache state lives here.
    caches: RefCell<FxHashMap<NodeId, ObjectCache>>,
    /// Optional per-operation observer (chaos harness history recording).
    tap: RefCell<Option<HistoryTap>>,
    /// Store-unique [`Request::Coordinate`] id allocator. The fabric can
    /// duplicate messages and clients retry, so every coordination
    /// carries an id coordinators deduplicate on.
    next_req_id: Cell<u64>,
    /// Fault-recovery counters, aggregated across every client of this
    /// store.
    retries: Counter,
    failovers: Counter,
    timeouts: Counter,
    /// Objects a migration driver is currently moving. A freeze window
    /// must belong to exactly one driver — a second drain unfreezing an
    /// object mid-snapshot would readmit writes the first driver's
    /// snapshot cannot see — so concurrent drains skip claimed objects.
    migrating: RefCell<BTreeSet<ObjectId>>,
    /// The deployment's telemetry. With a registry, the always-on cells
    /// above (and every lazily created cache's) are published as named
    /// series; nothing is double-counted. Client operations open spans
    /// on the tracer, and the context rides the wire envelope so replica
    /// spans nest under the client attempt that caused them. Failovers
    /// and object migrations append typed records to the journal.
    telemetry: Telemetry,
}

impl ReplicatedStore {
    /// Launches replicas on `storage_nodes` and returns the store. The
    /// placement ring covers [`StoreConfig::ring_nodes`] when set (a
    /// subset of `storage_nodes`; the rest are warm standbys awaiting
    /// [`ReplicatedStore::join_node`]), else all of `storage_nodes`.
    ///
    /// `telemetry` reaches every replica and every client of this store.
    /// A registry publishes the same cells the accessors
    /// ([`ReplicatedStore::retry_stats`], [`ReplicatedStore::cache_stats`])
    /// read, so the two views agree by construction.
    pub fn launch(
        fabric: Fabric,
        storage_nodes: Vec<NodeId>,
        config: StoreConfig,
        telemetry: &Telemetry,
    ) -> Self {
        let ring = config
            .ring_nodes
            .clone()
            .unwrap_or_else(|| storage_nodes.clone());
        for n in &ring {
            assert!(
                storage_nodes.contains(n),
                "ring node {n:?} is not a storage node"
            );
        }
        let placement = Placement::new(fabric.topology(), ring, config.n_replicas);
        let replicas: Vec<ReplicaNode> = storage_nodes
            .iter()
            .map(|&node| {
                ReplicaNode::start(
                    fabric.clone(),
                    placement.clone(),
                    node,
                    config.tier,
                    telemetry,
                )
            })
            .collect();
        if let Some(interval) = config.anti_entropy {
            for r in &replicas {
                r.start_anti_entropy(interval);
            }
        }
        let inner = StoreInner {
            fabric,
            placement,
            replicas,
            config,
            caches: RefCell::new(FxHashMap::default()),
            tap: RefCell::new(None),
            next_req_id: Cell::new(0),
            retries: Counter::new(),
            failovers: Counter::new(),
            timeouts: Counter::new(),
            migrating: RefCell::new(BTreeSet::new()),
            telemetry: telemetry.clone(),
        };
        if let Some(m) = &telemetry.metrics {
            m.bind_counter("store.retries", &[], &inner.retries);
            m.bind_counter("store.failovers", &[], &inner.failovers);
            m.bind_counter("store.timeouts", &[], &inner.timeouts);
        }
        ReplicatedStore {
            inner: Rc::new(inner),
        }
    }

    /// Installs (or removes) the per-operation history tap. The tap sees
    /// every client read and mutation with its invoke/response interval;
    /// it must not issue store operations itself.
    pub fn set_history_tap(&self, tap: Option<HistoryTap>) {
        *self.inner.tap.borrow_mut() = tap;
    }

    fn emit_tap(&self, make: impl FnOnce() -> TapEvent) {
        // Clone the Rc out of the cell first so the observer runs with
        // no borrow held.
        let tap = self.inner.tap.borrow().clone();
        if let Some(tap) = tap {
            tap(&make());
        }
    }

    /// The placement function in force.
    pub fn placement(&self) -> &Placement {
        &self.inner.placement
    }

    /// The replica running on `node`, if it is a storage node.
    pub fn replica_on(&self, node: NodeId) -> Option<&ReplicaNode> {
        self.inner.replicas.iter().find(|r| r.node() == node)
    }

    /// All replicas (GC sweeps, tests).
    pub fn replicas(&self) -> &[ReplicaNode] {
        &self.inner.replicas
    }

    /// A client whose operations originate from `node`.
    pub fn client(&self, node: NodeId) -> StoreClient {
        StoreClient {
            store: self.clone(),
            origin: node,
            ctx: None,
        }
    }

    /// Drops `id` from every node-local client cache (deletes, GC).
    pub fn invalidate_cached(&self, id: ObjectId) {
        for cache in self.inner.caches.borrow_mut().values_mut() {
            cache.invalidate(id);
        }
    }

    /// Aggregated fault-recovery counters (retries, failovers, deadline
    /// expiries) across all clients of this store.
    pub fn retry_stats(&self) -> RetryStats {
        RetryStats {
            retries: self.inner.retries.get(),
            failovers: self.inner.failovers.get(),
            timeouts: self.inner.timeouts.get(),
        }
    }

    /// Aggregated client-cache counters across all nodes.
    pub fn cache_stats(&self) -> CacheStats {
        let caches = self.inner.caches.borrow();
        let mut stats = CacheStats::default();
        for cache in caches.values() {
            stats.hits += cache.hits();
            stats.misses += cache.misses();
            stats.evictions += cache.evictions();
        }
        stats
    }

    /// The cache for `node`, created (and published to the metrics
    /// registry when there is one) on first touch.
    fn with_cache<T>(&self, node: NodeId, f: impl FnOnce(&mut ObjectCache) -> T) -> T {
        let capacity = self.inner.config.cache_bytes;
        let mut caches = self.inner.caches.borrow_mut();
        let cache = caches.entry(node).or_insert_with(|| {
            let cache = ObjectCache::new(capacity);
            if let Some(m) = &self.inner.telemetry.metrics {
                cache.publish_metrics(m, &node.0.to_string());
            }
            cache
        });
        f(cache)
    }

    fn cache_get(&self, node: NodeId, id: ObjectId, offset: u64, len: u64) -> Option<(Tag, Bytes)> {
        if self.inner.config.cache_bytes == 0 {
            return None;
        }
        self.with_cache(node, |cache| cache.get(id, offset, len))
    }

    fn cache_admit(&self, node: NodeId, id: ObjectId, served: &Served) {
        if self.inner.config.cache_bytes == 0 {
            return;
        }
        // Only whole-from-zero data is admissible. The engine keeps
        // `stable_len` equal to the full object size after every
        // mutation, so it doubles as a completeness check for clamped
        // `read_all`-style reads; an append-only prefix is cacheable even
        // when the read was truncated by `len`.
        let complete = served.data.len() as u64 == served.stable_len;
        match served.mutability {
            Mutability::Immutable if complete => {}
            Mutability::AppendOnly => {}
            _ => return,
        }
        self.with_cache(node, |cache| {
            cache.admit(id, served.mutability, served.tag, served.data.clone())
        });
    }

    // ---- live rebalancing ----------------------------------------------

    /// Every object id any replica engine currently stores (sorted,
    /// deduplicated) — the work list scanned at a topology change.
    pub fn all_object_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = Vec::new();
        for r in &self.inner.replicas {
            ids.extend(
                r.with_engine(|e| e.inventory())
                    .into_iter()
                    .map(|(id, _)| id),
            );
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Admits `node` into the placement ring and pins every object whose
    /// replica set changes to its old owners; returns the pinned ids.
    /// Reads and writes keep routing to the old owners until
    /// [`ReplicatedStore::drain_moves`] migrates the data. `node` must be
    /// a storage node (a warm standby launched outside the initial ring,
    /// see [`StoreConfig::ring_nodes`]).
    pub fn begin_join(&self, node: NodeId) -> Vec<ObjectId> {
        assert!(
            self.replica_on(node).is_some(),
            "cannot join {node:?}: no replica engine runs there"
        );
        let ids = self.all_object_ids();
        self.inner
            .placement
            .begin_join(self.inner.fabric.topology(), node, &ids)
    }

    /// Removes `node` from the placement ring and pins every object whose
    /// replica set changes; returns the pinned ids. The departing node
    /// keeps serving its pinned objects until they migrate, so call
    /// [`ReplicatedStore::drain_moves`] before taking it down.
    pub fn begin_decommission(&self, node: NodeId) -> Vec<ObjectId> {
        let ids = self.all_object_ids();
        self.inner.placement.begin_leave(node, &ids)
    }

    /// Joins `node` and migrates every affected object before returning
    /// the number of objects moved.
    pub async fn join_node(&self, node: NodeId) -> Result<usize, PcsiError> {
        self.begin_join(node);
        self.drain_moves(None).await
    }

    /// Decommissions `node` and migrates every affected object off it
    /// before returning the number of objects moved. The node is safe to
    /// take down once this returns.
    pub async fn decommission_node(&self, node: NodeId) -> Result<usize, PcsiError> {
        self.begin_decommission(node);
        self.drain_moves(None).await
    }

    /// Migrates every pending move to completion, optionally paced (one
    /// object per [`Pacer`] tick) so background data movement spreads
    /// over time instead of saturating the fabric. Failed moves retry on
    /// the next round; a round that makes no progress at all backs off,
    /// and `MAX_STALLED_ROUNDS` fruitless rounds in a row surface a
    /// retryable error (e.g. a quorum of old owners stayed unreachable).
    /// Returns the number of objects moved by *this* call.
    pub async fn drain_moves(&self, pacer: Option<&Pacer>) -> Result<usize, PcsiError> {
        let handle = self.inner.fabric.handle().clone();
        let mut moved = 0usize;
        let mut stalled_rounds = 0u32;
        // The most recent failed move, kept so a stalled drain can say why.
        let mut last_err: Option<(ObjectId, PcsiError)> = None;
        loop {
            let pending = self.inner.placement.pending_moves();
            if pending.is_empty() {
                return Ok(moved);
            }
            let mut progressed = false;
            for id in pending {
                if let Some(p) = pacer {
                    p.tick().await;
                }
                match self.migrate_object(id).await {
                    Ok(true) => {
                        moved += 1;
                        progressed = true;
                    }
                    // Already moved (or claimed by a concurrent drain).
                    Ok(false) => {}
                    // Retryable: the next round tries again.
                    Err(e) => last_err = Some((id, e)),
                }
            }
            if progressed {
                stalled_rounds = 0;
            } else {
                stalled_rounds += 1;
                if stalled_rounds >= MAX_STALLED_ROUNDS {
                    let cause = match &last_err {
                        Some((id, e)) => format!("last error, on {id:?}: {e}"),
                        None => "every pending move is claimed by another drain".to_owned(),
                    };
                    let stalled = format!(
                        "{} moves pending after {stalled_rounds} fruitless rounds; {cause}",
                        self.inner.placement.pending_moves().len(),
                    );
                    self.inner.telemetry.journal.with(|j| {
                        j.append("store", "migration_stalled", stalled.clone());
                    });
                    return Err(PcsiError::Fault(format!(
                        "shard migration stalled: {stalled}"
                    )));
                }
                handle.sleep(DRAIN_RETRY_DELAY).await;
            }
        }
    }

    /// Migrates one pinned object: freezes writes, snapshots a majority
    /// of the old owners, installs a sealed copy on a majority of the
    /// new owners, and flips routing. `Ok(false)` when the object is not
    /// (or no longer) pinned, or another drain already claimed it. On
    /// error the freeze lifts and the pin stays — writes resume on the
    /// old owners and the move retries later.
    pub async fn migrate_object(&self, id: ObjectId) -> Result<bool, PcsiError> {
        // Claim before freezing (no await between): a second drain
        // unfreezing this object mid-snapshot would readmit writes the
        // first drain's snapshot cannot see.
        let Some(old) = self.inner.placement.move_old_set(id) else {
            return Ok(false);
        };
        if !self.inner.migrating.borrow_mut().insert(id) {
            return Ok(false);
        }
        self.inner.placement.freeze(id);
        let result = self.migrate_frozen(id, &old).await;
        match &result {
            Ok(()) => {
                self.inner.placement.complete_move(id);
                self.inner.telemetry.journal.with(|j| {
                    j.append(
                        "store",
                        "migration",
                        format!("id={id:?} old_owners={}", old.len()),
                    );
                });
            }
            Err(_) => self.inner.placement.unfreeze(id),
        }
        self.inner.migrating.borrow_mut().remove(&id);
        result.map(|()| true)
    }

    /// The move itself, run with `id` frozen.
    ///
    /// Exactly-once survives the move because the request ledger travels
    /// with the bytes: a client retrying a pre-move write replays against
    /// the new owners and is answered `AlreadyApplied` at its recorded
    /// tag instead of being applied twice.
    ///
    /// The installed copy is *sealed* one sequence number above the
    /// newest tag any reachable old owner reported (writer `u32::MAX`
    /// wins ties), so an uncommitted line a failed coordination left
    /// behind orders below the moved state and anti-entropy cannot
    /// resurrect lost-race bytes over it. A receiver holding an even
    /// newer tag answers [`Response::Stale`] and the driver re-seals
    /// above that.
    ///
    /// A committed delete survives the move the same way: an old owner
    /// whose tombstone tag exceeds every live tag turns the move into a
    /// tombstone install, so the delete cannot be undone by a stale
    /// minority holder feeding anti-entropy after the flip.
    async fn migrate_frozen(&self, id: ObjectId, old: &[NodeId]) -> Result<(), PcsiError> {
        let majority = self.inner.placement.majority();
        // The object's first new owner pulls: the transfer is charged
        // from the network position of the node that will own the data.
        let from = self.inner.placement.ring_replicas(id)[0];
        let tag_frame = wire::encode_request(&Request::TagOf { id });
        let fetch_frame = wire::encode_request(&Request::Fetch { id });
        // Snapshot every reachable old owner — a majority must answer,
        // and asking all of them lets the seal cover zombie tags on
        // reachable minorities too. TagOf runs *before* Fetch on each
        // node so a `reported > live` surplus can only mean a tombstone
        // (writes are frozen; anti-entropy can only raise the live tag).
        let fabric = &self.inner.fabric;
        let replies = join_all(old.iter().map(|&n| {
            let tag = rpc(fabric, from, n, tag_frame.clone(), MIGRATE_RPC_TIMEOUT);
            let state = rpc(fabric, from, n, fetch_frame.clone(), MIGRATE_RPC_TIMEOUT);
            async move { (tag.await, state.await) }
        }))
        .await;
        let mut heard = 0usize;
        let mut best: Option<(StoredObject, Vec<(u64, Tag)>)> = None;
        // Newest tag seen anywhere reachable (zombies and tombstones
        // included) — the seal floor.
        let mut max_seen = Tag::ZERO;
        // Newest committed-delete tag among the old owners.
        let mut tombstone = Tag::ZERO;
        for (tag, state) in replies {
            let reported = match tag {
                Ok(Response::TagIs { tag }) => tag,
                _ => continue,
            };
            let live = match state {
                Ok(Response::Object { object, reqs }) => {
                    let t = object.tag;
                    if best.as_ref().is_none_or(|(b, _)| t > b.tag) {
                        best = Some((object, reqs));
                    }
                    t
                }
                Ok(Response::Absent) => Tag::ZERO,
                _ => continue,
            };
            heard += 1;
            max_seen = max_seen.max(reported).max(live);
            if reported > live {
                tombstone = tombstone.max(reported);
            }
        }
        if heard < majority {
            return Err(PcsiError::QuorumUnavailable {
                needed: majority,
                got: heard,
            });
        }
        let best_tag = best.as_ref().map_or(Tag::ZERO, |(b, _)| b.tag);
        let deleted = tombstone > best_tag;
        if best.is_none() && !deleted {
            // Never written on any reachable old owner: nothing to move.
            return Ok(());
        }
        let (snapshot, reqs) = best.unwrap_or_else(|| {
            (
                StoredObject {
                    data: Bytes::new(),
                    tag: Tag::ZERO,
                    mutability: Mutability::Mutable,
                    stable_len: 0,
                },
                Vec::new(),
            )
        });
        let mut seal_seq = max_seen.seq + 1;
        for _ in 0..MAX_SEAL_ROUNDS {
            let epoch = self.inner.placement.epoch();
            let targets = self.inner.placement.ring_replicas(id);
            let sealed = StoredObject {
                data: if deleted {
                    Bytes::new()
                } else {
                    snapshot.data.clone()
                },
                tag: Tag {
                    seq: seal_seq,
                    writer: u32::MAX,
                },
                mutability: snapshot.mutability,
                stable_len: if deleted { 0 } else { snapshot.stable_len },
            };
            let frame = wire::encode_request(&Request::Migrate {
                epoch,
                id,
                object: sealed,
                reqs: reqs.clone(),
                tombstone: deleted,
            });
            let installs = join_all(
                targets
                    .iter()
                    .map(|&n| rpc(fabric, from, n, frame.clone(), MIGRATE_RPC_TIMEOUT)),
            )
            .await;
            let mut acks = 0usize;
            let mut newer: Option<Tag> = None;
            let mut raced_epoch = false;
            for reply in installs {
                match reply {
                    Ok(Response::Applied) => acks += 1,
                    Ok(Response::Stale { newest }) => {
                        newer = Some(newer.map_or(newest, |z| z.max(newest)));
                    }
                    Ok(Response::WrongEpoch { .. }) => raced_epoch = true,
                    _ => {}
                }
            }
            if acks >= majority {
                return Ok(());
            }
            if raced_epoch {
                // A further topology change landed mid-install; the
                // retry recomputes its targets under the new epoch.
                return Err(PcsiError::Fault(format!(
                    "migration of {id:?} raced a topology change"
                )));
            }
            match newer {
                Some(t) if t.seq >= seal_seq => seal_seq = t.seq + 1,
                _ => {
                    return Err(PcsiError::QuorumUnavailable {
                        needed: majority,
                        got: acks,
                    });
                }
            }
        }
        Err(PcsiError::Fault(format!(
            "migration of {id:?} kept losing seal races"
        )))
    }
}

/// Per-RPC deadline for migration traffic (snapshot fetches and sealed
/// installs). Short: a failed move just retries on the next drain round.
const MIGRATE_RPC_TIMEOUT: Option<Duration> = Some(Duration::from_millis(20));

/// Seal-raise rounds per install attempt. Each round seals above the
/// newest tag any receiver reported, so two is enough for every
/// quiescent race; more only lose to a live writer, which means the
/// epoch raced anyway.
const MAX_SEAL_ROUNDS: u32 = 4;

/// Consecutive fruitless drain rounds tolerated before the drain reports
/// the migration stalled.
const MAX_STALLED_ROUNDS: u32 = 512;

/// Back-off between fruitless drain rounds.
const DRAIN_RETRY_DELAY: Duration = Duration::from_millis(2);

/// A read as served by a replica (or the cache): payload plus the
/// metadata that drives caching decisions.
struct Served {
    tag: Tag,
    mutability: Mutability,
    stable_len: u64,
    data: Bytes,
}

impl Served {
    /// The read a [`Response::Data`] carries; any other reply is handed back.
    fn from_data(resp: Response) -> Result<Served, Response> {
        match resp {
            Response::Data {
                tag,
                mutability,
                stable_len,
                data,
            } => Ok(Served {
                tag,
                mutability,
                stable_len,
                data,
            }),
            other => Err(other),
        }
    }
}

/// One reply in a one-RTT quorum read.
struct QuorumReply {
    node: NodeId,
    tag: Tag,
    /// `None` when the replica answered with a bare tag report (payload
    /// above the inline limit, or object absent).
    served: Option<Served>,
}

/// A store client bound to an origin node (the node whose network position
/// the operations are charged from).
#[derive(Clone)]
pub struct StoreClient {
    store: ReplicatedStore,
    origin: NodeId,
    /// Incoming trace context: operation spans become children of it.
    /// Without one (a bare client) each operation opens a root span.
    ctx: Option<TraceContext>,
}

impl StoreClient {
    /// The origin node.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// Binds this client's operations to an incoming trace context, so
    /// store spans nest under the caller (e.g. a kernel op or a REST
    /// gateway request) instead of opening their own roots.
    pub fn traced(mut self, ctx: Option<TraceContext>) -> StoreClient {
        self.ctx = ctx;
        self
    }

    /// Opens the span for one client-facing store operation: a child of
    /// the bound context when one exists, else a fresh root (subject to
    /// sampling). Disabled (zero-cost) without a tracer.
    fn op_span(&self, name: &'static str) -> SpanHandle {
        match (&self.store.inner.telemetry.tracer, self.ctx) {
            (Some(t), Some(ctx)) => t.child(ctx, name),
            (Some(t), None) => t.root(name),
            (None, _) => SpanHandle::disabled(),
        }
    }

    /// Creates or replaces an object.
    pub async fn put(
        &self,
        id: ObjectId,
        data: Bytes,
        mutability: Mutability,
        consistency: Consistency,
    ) -> Result<Tag, PcsiError> {
        self.mutate(id, Mutation::PutFull { data, mutability }, consistency)
            .await
    }

    /// Overwrites a byte range.
    pub async fn write_at(
        &self,
        id: ObjectId,
        offset: u64,
        data: Bytes,
        consistency: Consistency,
    ) -> Result<Tag, PcsiError> {
        self.mutate(id, Mutation::WriteAt { offset, data }, consistency)
            .await
    }

    /// Appends bytes.
    pub async fn append(
        &self,
        id: ObjectId,
        data: Bytes,
        consistency: Consistency,
    ) -> Result<Tag, PcsiError> {
        self.mutate(id, Mutation::Append { data }, consistency)
            .await
    }

    /// Applies a mutability transition.
    pub async fn set_mutability(
        &self,
        id: ObjectId,
        to: Mutability,
        consistency: Consistency,
    ) -> Result<Tag, PcsiError> {
        self.mutate(id, Mutation::SetMutability { to }, consistency)
            .await
    }

    /// Deletes an object. Deletes are always replicated synchronously to
    /// the full replica set that is reachable (tombstones guard the rest).
    pub async fn delete(&self, id: ObjectId) -> Result<Tag, PcsiError> {
        let n = self.store.placement().replication_factor() as u32;
        let result = self.mutate_with_acks(id, Mutation::Delete, n).await;
        // Invalidate caches on success — and on *ambiguous* failure: a
        // timeout or unreachable peer may hide a tombstone that was
        // applied server-side with the ack lost in flight, and a cache
        // still serving the deleted object's "immutable" bytes would
        // never learn otherwise. Only a definitive server-side rejection
        // proves the delete had no effect.
        let ambiguous = matches!(&result, Err(e) if e.is_retryable());
        if result.is_ok() || ambiguous {
            self.store.invalidate_cached(id);
        }
        result
    }

    /// Routes a mutation through the object's primary.
    pub async fn mutate(
        &self,
        id: ObjectId,
        mutation: Mutation,
        consistency: Consistency,
    ) -> Result<Tag, PcsiError> {
        let acks = match consistency {
            Consistency::Linearizable => self.store.placement().majority() as u32,
            Consistency::Eventual => 1,
        };
        self.mutate_with_acks(id, mutation, acks).await
    }

    async fn mutate_with_acks(
        &self,
        id: ObjectId,
        mutation: Mutation,
        sync_replicas: u32,
    ) -> Result<Tag, PcsiError> {
        let (op, payload) = match &mutation {
            Mutation::PutFull { data, .. } => ("put", data.clone()),
            Mutation::WriteAt { data, .. } => ("write_at", data.clone()),
            Mutation::Append { data } => ("append", data.clone()),
            Mutation::SetMutability { .. } => ("set_mutability", Bytes::new()),
            Mutation::Delete => ("delete", Bytes::new()),
        };
        let invoke = self.store.inner.fabric.handle().now();
        let req_id = self.store.inner.next_req_id.get() + 1;
        self.store.inner.next_req_id.set(req_id);
        let mut span = self.op_span("store.mutate");
        span.attr("op", op);
        span.attr_with("object", || AttrValue::Text(format!("{id:?}")));
        span.attr("acks", u64::from(sync_replicas));
        let result = self
            .coordinate(id, &mutation, sync_replicas, req_id, &span)
            .await;
        if result.is_err() {
            span.attr("error", "true");
        }
        span.finish();
        self.store.emit_tap(|| TapEvent::Mutate {
            origin: self.origin,
            id,
            op,
            payload,
            sync_replicas,
            invoke,
            response: self.store.inner.fabric.handle().now(),
            outcome: result.as_ref().map(|&t| t).map_err(|e| e.to_string()),
        });
        result
    }

    /// The recovery driver for this client's operation under `parent`.
    fn recovery<'a>(&'a self, parent: &'a SpanHandle) -> Recovery<'a> {
        let inner = &self.store.inner;
        Recovery {
            handle: inner.fabric.handle(),
            policy: &inner.config.retry,
            retries: &inner.retries,
            timeouts: &inner.timeouts,
            parent,
        }
    }

    /// Drives one coordination to completion: the failover steps walk
    /// the replica set in placement order (any replica may coordinate;
    /// `req_id` dedup and stale-tag rejection keep the order single).
    async fn coordinate(
        &self,
        id: ObjectId,
        mutation: &Mutation,
        sync_replicas: u32,
        req_id: u64,
        parent: &SpanHandle,
    ) -> Result<Tag, PcsiError> {
        let inner = &self.store.inner;
        let next_target = |step: usize| {
            // Re-resolve placement at every failover step: a topology
            // change (join/decommission) mid-operation must steer the
            // remaining attempts at the object's *current* owners, not
            // the set in force when the operation started.
            let target = *self.store.placement().replicas(id).get(step)?;
            if step > 0 {
                inner.failovers.incr();
                inner.telemetry.journal.with(|j| {
                    j.append("store", "failover", format!("id={id:?} target={step}"));
                });
            }
            Some(target)
        };
        let attempt = |a: Attempt<'_, NodeId>| {
            a.span.attr("target", u64::from(a.target.0));
            if a.step > 0 {
                a.span.attr("failover", a.step as u64);
            }
            // Stamp the attempt's absolute expiry into the request: the
            // coordinator refuses to order past it, so an abandoned
            // attempt can never mint a fresh tag after this client has
            // moved on (and possibly acknowledged the operation through
            // another coordinator).
            let expires_ns = a
                .deadline
                .map_or(0, |d| (inner.fabric.handle().now() + d).as_nanos());
            let frame = wire::encode_request_traced(
                &Request::Coordinate {
                    id,
                    mutation: mutation.clone(),
                    sync_replicas,
                    req_id,
                    expires_ns,
                },
                a.span.ctx(),
            );
            let call = rpc(&inner.fabric, self.origin, *a.target, frame, None);
            async move {
                match call.await? {
                    Response::Coordinated { tag } => Ok(tag),
                    other => Err(PcsiError::Fault(format!("unexpected response {other:?}"))),
                }
            }
        };
        self.recovery(parent).run(next_target, attempt).await
    }

    /// Reads a byte range at the requested consistency level.
    ///
    /// Returns the served `(tag, data)`; the tag lets callers measure
    /// staleness (experiment E7).
    ///
    /// The read first consults the origin node's mutability-aware cache:
    /// immutable bytes and stable append-only prefixes are served locally
    /// at DRAM cost with zero fabric traffic, which is sound at *any*
    /// consistency level because such bytes can never change.
    pub async fn read(
        &self,
        id: ObjectId,
        offset: u64,
        len: u64,
        consistency: Consistency,
    ) -> Result<(Tag, Bytes), PcsiError> {
        let invoke = self.store.inner.fabric.handle().now();
        let mut span = self.op_span("store.read");
        span.attr(
            "consistency",
            match consistency {
                Consistency::Linearizable => "linearizable",
                Consistency::Eventual => "eventual",
            },
        );
        span.attr_with("object", || AttrValue::Text(format!("{id:?}")));
        let result = self.read_inner(id, offset, len, consistency, &span).await;
        if result.is_err() {
            span.attr("error", "true");
        }
        span.finish();
        self.store.emit_tap(|| TapEvent::Read {
            origin: self.origin,
            id,
            consistency,
            offset,
            len,
            invoke,
            response: self.store.inner.fabric.handle().now(),
            outcome: match &result {
                Ok((tag, data)) => Ok((*tag, data.clone())),
                Err(e) => Err(e.to_string()),
            },
        });
        result
    }

    async fn read_inner(
        &self,
        id: ObjectId,
        offset: u64,
        len: u64,
        consistency: Consistency,
        parent: &SpanHandle,
    ) -> Result<(Tag, Bytes), PcsiError> {
        if let Some((tag, data)) = self.store.cache_get(self.origin, id, offset, len) {
            let mut cache_span = parent.span("store.cache");
            cache_span.attr("hit", "true");
            let t = MediaTier::Dram.io_time(data.len());
            self.store.inner.fabric.handle().sleep(t).await;
            cache_span.finish();
            return Ok((tag, data));
        }
        // Reads are idempotent, so an abandoned attempt needs no further
        // care; the steps only bound how long the read keeps trying (an
        // eventual read rotates its target per attempt by itself).
        let steps = self.store.placement().replication_factor();
        let served = self
            .recovery(parent)
            .run(
                |step| (step < steps).then_some(()),
                |a| {
                    a.span.attr("attempt", u64::from(a.attempt));
                    let (attempt, ctx) = (a.attempt as usize, a.span.ctx());
                    self.clone()
                        .read_attempt(id, offset, len, consistency, attempt, ctx)
                },
            )
            .await?;
        if offset == 0 {
            self.store.cache_admit(self.origin, id, &served);
        }
        Ok((served.tag, served.data))
    }

    /// One read attempt. Takes the client by value so the future owns it
    /// and the driver can race it on a task of its own.
    async fn read_attempt(
        self,
        id: ObjectId,
        offset: u64,
        len: u64,
        consistency: Consistency,
        attempt: usize,
        ctx: Option<TraceContext>,
    ) -> Result<Served, PcsiError> {
        match consistency {
            Consistency::Eventual => {
                let replicas = self.store.placement().replicas(id);
                let closest = self.store.placement().closest_replica(
                    self.store.inner.fabric.topology(),
                    id,
                    self.origin,
                );
                // First try the closest replica; on retry rotate through
                // the rest of the set (any replica serves eventual reads).
                let target = if attempt == 0 || !self.store.inner.config.retry.failover {
                    closest
                } else {
                    let base = replicas.iter().position(|&n| n == closest).unwrap_or(0);
                    replicas[(base + attempt) % replicas.len()]
                };
                self.read_from(target, id, offset, len, ctx).await
            }
            Consistency::Linearizable => {
                let inline_limit = self.store.inner.config.inline_read_max;
                if inline_limit == 0 {
                    // Two-phase path: version quorum, then a directed
                    // read from the newest replica. Same write-back rule
                    // as the one-RTT path: a tag seen at fewer than a
                    // majority must be made durable before serving it.
                    let need = self.store.placement().majority();
                    let frame = wire::encode_request_traced(&Request::TagOf { id }, ctx);
                    let replies = self
                        .gather(id, &[], frame, need, |node, reply| match reply {
                            Ok(Response::TagIs { tag }) => Ok((node, tag)),
                            _ => Err(()),
                        })
                        .await?;
                    let &(newest_node, newest_tag) = replies
                        .iter()
                        .max_by_key(|(_, t)| *t)
                        .expect("quorum met implies at least one reply");
                    if newest_tag == Tag::ZERO {
                        return Err(PcsiError::NotFound(id));
                    }
                    let known: Vec<NodeId> = replies
                        .iter()
                        .filter(|(_, t)| *t == newest_tag)
                        .map(|(n, _)| *n)
                        .collect();
                    if known.len() < need {
                        self.write_back(id, newest_node, &known, need - known.len(), ctx)
                            .await?;
                    }
                    self.read_from(newest_node, id, offset, len, ctx).await
                } else {
                    self.read_one_rtt(id, offset, len, inline_limit, ctx).await
                }
            }
        }
    }

    /// One-RTT linearizable read: fan the read itself to every replica
    /// and take the newest tag among the first majority of replies. Any
    /// write-majority intersects any read-majority, so the newest tag
    /// seen is at least the last acknowledged write's. Replies above the
    /// inline limit degrade to a tag report, after which the newest
    /// replica is read directly (matching the old two-phase cost).
    ///
    /// When the quorum replies *disagree*, the newest value is known to
    /// be at fewer than a majority — a concurrent write may still be in
    /// flight. Returning it immediately would let a later read miss it
    /// (the classic regular-but-not-atomic register anomaly), so the
    /// read first **writes back**: it pushes the newest state until a
    /// majority durably holds it (ABD's second phase). The agreeing
    /// fast path stays one round trip.
    async fn read_one_rtt(
        &self,
        id: ObjectId,
        offset: u64,
        len: u64,
        inline_limit: u64,
        ctx: Option<TraceContext>,
    ) -> Result<Served, PcsiError> {
        let need = self.store.placement().majority();
        let frame = wire::encode_request_traced(
            &Request::ReadWithTag {
                id,
                offset,
                len,
                inline_limit,
            },
            ctx,
        );
        let mut replies = self
            .gather(id, &[], frame, need, |node, reply| {
                let (tag, served) = match reply.map(Served::from_data) {
                    Ok(Ok(served)) => (served.tag, Some(served)),
                    Ok(Err(Response::TagIs { tag })) => (tag, None),
                    _ => return Err(()),
                };
                Ok(QuorumReply { node, tag, served })
            })
            .await?;

        // Newest tag wins; on a tie prefer a reply that carried bytes.
        let mut best = 0usize;
        for i in 1..replies.len() {
            let (a, b) = (&replies[best], &replies[i]);
            if b.tag > a.tag || (b.tag == a.tag && b.served.is_some() && a.served.is_none()) {
                best = i;
            }
        }
        let best_tag = replies[best].tag;
        if best_tag == Tag::ZERO {
            return Err(PcsiError::NotFound(id));
        }
        let holders = replies.iter().filter(|r| r.tag == best_tag).count();
        if holders < need {
            let known: Vec<NodeId> = replies
                .iter()
                .filter(|r| r.tag == best_tag)
                .map(|r| r.node)
                .collect();
            self.write_back(id, replies[best].node, &known, need - holders, ctx)
                .await?;
        }
        let best_node = replies[best].node;
        match replies.swap_remove(best).served {
            Some(served) => Ok(served),
            // Payload above the inline limit (or a tombstone): read the
            // newest replica directly.
            None => self.read_from(best_node, id, offset, len, ctx).await,
        }
    }

    /// ABD write-back (doubles as read repair): fetches the newest state
    /// from `source` and pushes it to every replica not already known to
    /// hold it, returning once `need_acks` pushes succeeded — at which
    /// point a majority durably holds the value and any later read
    /// quorum must observe it. `sync_in` tag checks on the receivers
    /// make stale or duplicate pushes harmless; the remaining pushes
    /// finish detached.
    async fn write_back(
        &self,
        id: ObjectId,
        source: NodeId,
        known: &[NodeId],
        need_acks: usize,
        ctx: Option<TraceContext>,
    ) -> Result<(), PcsiError> {
        let fetch = wire::encode_request_traced(&Request::Fetch { id }, ctx);
        let fabric = &self.store.inner.fabric;
        let (object, reqs) = match rpc(fabric, self.origin, source, fetch, None).await {
            Ok(Response::Object { object, reqs }) => (object, reqs),
            // The object vanished between the read and the fetch —
            // a racing delete; surface it as such.
            Ok(Response::Absent) => return Err(PcsiError::NotFound(id)),
            _ => {
                return Err(PcsiError::QuorumUnavailable {
                    needed: need_acks,
                    got: 0,
                })
            }
        };
        // Encode the push once — it embeds the full object payload, so
        // re-encoding (and deep-cloning the object) per peer would cost
        // O(replicas × object size).
        let push = wire::encode_request_traced(&Request::Push { id, object, reqs }, ctx);
        self.gather(id, known, push, need_acks, |_, reply| match reply {
            Ok(Response::Applied) => Ok(()),
            _ => Err(()),
        })
        .await?;
        Ok(())
    }

    /// One quorum round from this client: `frame` goes to every replica
    /// of `id` outside `skip`, in placement order, and the first `need`
    /// replies `ack` accepts come back — or the quorum failure.
    async fn gather<A: 'static>(
        &self,
        id: ObjectId,
        skip: &[NodeId],
        frame: Bytes,
        need: usize,
        ack: impl Fn(NodeId, Result<Response, PcsiError>) -> Result<A, ()> + 'static,
    ) -> Result<Vec<A>, PcsiError> {
        let targets = self
            .store
            .placement()
            .replicas(id)
            .into_iter()
            .filter(|n| !skip.contains(n));
        let fabric = &self.store.inner.fabric;
        quorum::gather(fabric, self.origin, targets, frame, need, move |n, r| {
            std::future::ready(ack(n, r))
        })
        .await
        .map_err(|short| PcsiError::QuorumUnavailable {
            needed: need,
            got: short.got,
        })
    }

    async fn read_from(
        &self,
        replica: NodeId,
        id: ObjectId,
        offset: u64,
        len: u64,
        ctx: Option<TraceContext>,
    ) -> Result<Served, PcsiError> {
        let frame = wire::encode_request_traced(&Request::Read { id, offset, len }, ctx);
        let fabric = &self.store.inner.fabric;
        Served::from_data(rpc(fabric, self.origin, replica, frame, None).await?)
            .map_err(|other| PcsiError::Fault(format!("unexpected response {other:?}")))
    }

    /// Fetches the whole object at the requested consistency.
    pub async fn read_all(
        &self,
        id: ObjectId,
        consistency: Consistency,
    ) -> Result<(Tag, Bytes), PcsiError> {
        self.read(id, 0, u64::MAX, consistency).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{STORE_SERVICE, STORE_TRANSPORT};
    use pcsi_net::{LatencyModel, NetworkGeneration, Topology};
    use pcsi_sim::Sim;

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_parts(5, n)
    }

    /// Builds a 9-node cluster (3 racks x 3) with a 3-replica store.
    fn deploy(sim: &Sim, anti_entropy: bool) -> (Fabric, ReplicatedStore) {
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Dram,
                anti_entropy: if anti_entropy {
                    Some(Duration::from_millis(50))
                } else {
                    None
                },
                inline_read_max: 64 * 1024,
                cache_bytes: 1 << 20,
                ..StoreConfig::default()
            },
            &Telemetry::default(),
        );
        (fabric, store)
    }

    #[test]
    fn put_then_linearizable_read_roundtrips() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = deploy(&sim, false);
        let out = sim.block_on(async move {
            let c = store.client(NodeId(0));
            c.put(
                oid(1),
                Bytes::from_static(b"hello"),
                Mutability::Mutable,
                Consistency::Linearizable,
            )
            .await
            .unwrap();
            c.read_all(oid(1), Consistency::Linearizable).await.unwrap()
        });
        assert_eq!(&out.1[..], b"hello");
        assert_eq!(out.0.seq, 1);
    }

    #[test]
    fn linearizable_read_sees_latest_write_from_any_node() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = deploy(&sim, false);
        sim.block_on(async move {
            let writer = store.client(NodeId(0));
            let reader = store.client(NodeId(8));
            for i in 0..10u8 {
                writer
                    .put(
                        oid(1),
                        Bytes::from(vec![i]),
                        Mutability::Mutable,
                        Consistency::Linearizable,
                    )
                    .await
                    .unwrap();
                let (_, data) = reader
                    .read_all(oid(1), Consistency::Linearizable)
                    .await
                    .unwrap();
                assert_eq!(data[0], i, "stale linearizable read at i = {i}");
            }
        });
    }

    #[test]
    fn eventual_write_is_faster_than_linearizable() {
        let mut sim = Sim::new(42);
        let (fabric, store) = deploy(&sim, false);
        let h = fabric.handle().clone();
        let (lin, ev) = sim.block_on(async move {
            // Same object both times so the placement (and therefore the
            // client -> primary distance) is identical; client is not a
            // replica so both consistency levels pay the same first hop.
            let id = oid(1);
            let replicas = store.placement().replicas(id);
            let client_node = fabric
                .topology()
                .node_ids()
                .into_iter()
                .find(|n| !replicas.contains(n))
                .unwrap();
            let c = store.client(client_node);
            let t0 = h.now();
            c.put(
                id,
                Bytes::from_static(b"a"),
                Mutability::Mutable,
                Consistency::Linearizable,
            )
            .await
            .unwrap();
            let lin = h.now() - t0;
            let t1 = h.now();
            c.put(
                id,
                Bytes::from_static(b"b"),
                Mutability::Mutable,
                Consistency::Eventual,
            )
            .await
            .unwrap();
            (lin, h.now() - t1)
        });
        assert!(
            lin.as_nanos() > ev.as_nanos() * 13 / 10,
            "linearizable {lin:?} vs eventual {ev:?}"
        );
    }

    #[test]
    fn eventual_read_can_be_stale_then_converges() {
        let mut sim = Sim::new(42);
        let (fabric, store) = deploy(&sim, false);
        let h = fabric.handle().clone();
        sim.block_on({
            let store = store.clone();
            async move {
                let c = store.client(NodeId(0));
                let id = oid(7);
                c.put(
                    id,
                    Bytes::from_static(b"v1"),
                    Mutability::Mutable,
                    Consistency::Eventual,
                )
                .await
                .unwrap();
                c.put(
                    id,
                    Bytes::from_static(b"v2"),
                    Mutability::Mutable,
                    Consistency::Eventual,
                )
                .await
                .unwrap();
                // A reader sitting next to a secondary may see v1 or v2
                // immediately after the ack; after anti-entropy rounds it
                // must see v2 everywhere.
                for r in store.replicas() {
                    r.anti_entropy_once().await;
                }
                h.sleep(Duration::from_millis(5)).await;
                for node in [0u32, 3, 6, 8] {
                    let (tag, data) = store
                        .client(NodeId(node))
                        .read_all(id, Consistency::Eventual)
                        .await
                        .unwrap();
                    assert_eq!(&data[..], b"v2", "node {node} still stale");
                    assert_eq!(tag.seq, 2);
                }
            }
        });
    }

    #[test]
    fn linearizable_write_fails_without_majority() {
        let mut sim = Sim::new(42);
        let (fabric, store) = deploy(&sim, false);
        let err = sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(3);
                let replicas = store.placement().replicas(id);
                // Crash both secondaries: majority (2 of 3) unreachable.
                fabric.set_node_down(replicas[1], true);
                fabric.set_node_down(replicas[2], true);
                store
                    .client(NodeId(0))
                    .put(
                        id,
                        Bytes::from_static(b"x"),
                        Mutability::Mutable,
                        Consistency::Linearizable,
                    )
                    .await
                    .unwrap_err()
            }
        });
        assert!(
            matches!(err, PcsiError::QuorumUnavailable { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn eventual_write_survives_secondary_crashes() {
        let mut sim = Sim::new(42);
        let (fabric, store) = deploy(&sim, false);
        let ok = sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(4);
                let replicas = store.placement().replicas(id);
                let client_node = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .find(|n| !replicas.contains(n))
                    .unwrap();
                fabric.set_node_down(replicas[1], true);
                fabric.set_node_down(replicas[2], true);
                store
                    .client(client_node)
                    .put(
                        id,
                        Bytes::from_static(b"x"),
                        Mutability::Mutable,
                        Consistency::Eventual,
                    )
                    .await
                    .is_ok()
            }
        });
        assert!(ok);
    }

    #[test]
    fn linearizable_read_tolerates_one_crash() {
        let mut sim = Sim::new(42);
        let (fabric, store) = deploy(&sim, false);
        let data = sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(5);
                store
                    .client(NodeId(0))
                    .put(
                        id,
                        Bytes::from_static(b"resilient"),
                        Mutability::Mutable,
                        Consistency::Linearizable,
                    )
                    .await
                    .unwrap();
                let replicas = store.placement().replicas(id);
                fabric.set_node_down(replicas[0], true); // Even the primary.
                store
                    .client(NodeId(0))
                    .read_all(id, Consistency::Linearizable)
                    .await
                    .unwrap()
                    .1
            }
        });
        assert_eq!(&data[..], b"resilient");
    }

    #[test]
    fn missing_object_reported_not_found() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = deploy(&sim, false);
        let (lin, ev) = sim.block_on(async move {
            let c = store.client(NodeId(1));
            let lin = c.read_all(oid(99), Consistency::Linearizable).await;
            let ev = c.read_all(oid(99), Consistency::Eventual).await;
            (lin, ev)
        });
        assert!(matches!(lin, Err(PcsiError::NotFound(_))), "{lin:?}");
        assert!(matches!(ev, Err(PcsiError::NotFound(_))), "{ev:?}");
    }

    #[test]
    fn delete_propagates_and_tombstones() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = deploy(&sim, true);
        sim.block_on({
            let store = store.clone();
            async move {
                let c = store.client(NodeId(0));
                let id = oid(6);
                c.put(
                    id,
                    Bytes::from_static(b"temp"),
                    Mutability::Mutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                c.delete(id).await.unwrap();
                let r = c.read_all(id, Consistency::Linearizable).await;
                assert!(matches!(r, Err(PcsiError::NotFound(_))));
                // Anti-entropy must not resurrect it.
                for r in store.replicas() {
                    r.anti_entropy_once().await;
                }
                let r = c.read_all(id, Consistency::Eventual).await;
                assert!(matches!(r, Err(PcsiError::NotFound(_))));
            }
        });
    }

    #[test]
    fn append_only_workflow_through_store() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = deploy(&sim, false);
        sim.block_on(async move {
            let c = store.client(NodeId(2));
            let id = oid(8);
            c.put(
                id,
                Bytes::from_static(b""),
                Mutability::AppendOnly,
                Consistency::Linearizable,
            )
            .await
            .unwrap();
            c.append(id, Bytes::from_static(b"one,"), Consistency::Linearizable)
                .await
                .unwrap();
            c.append(id, Bytes::from_static(b"two"), Consistency::Linearizable)
                .await
                .unwrap();
            let err = c
                .write_at(id, 0, Bytes::from_static(b"X"), Consistency::Linearizable)
                .await
                .unwrap_err();
            assert!(matches!(err, PcsiError::MutabilityViolation { .. }));
            let (_, data) = c.read_all(id, Consistency::Linearizable).await.unwrap();
            assert_eq!(&data[..], b"one,two");
            // Seal it and verify writes of any kind now fail.
            c.set_mutability(id, Mutability::Immutable, Consistency::Linearizable)
                .await
                .unwrap();
            let err = c
                .append(id, Bytes::from_static(b"!"), Consistency::Linearizable)
                .await
                .unwrap_err();
            assert!(matches!(err, PcsiError::MutabilityViolation { .. }));
        });
    }

    #[test]
    fn one_rtt_read_is_faster_than_two_phase() {
        // Same cluster and workload, with only the inline threshold
        // toggled: the one-RTT quorum read must beat tag-quorum-then-read.
        let lat = |inline_read_max: u64| {
            let mut sim = Sim::new(42);
            let fabric = Fabric::new(
                sim.handle(),
                Topology::uniform(3, 3),
                LatencyModel::deterministic(NetworkGeneration::Dc2021),
            );
            let store = ReplicatedStore::launch(
                fabric.clone(),
                fabric.topology().node_ids(),
                StoreConfig {
                    n_replicas: 3,
                    tier: MediaTier::Dram,
                    anti_entropy: None,
                    inline_read_max,
                    cache_bytes: 0,
                    ..StoreConfig::default()
                },
                &Telemetry::default(),
            );
            let h = fabric.handle().clone();
            sim.block_on(async move {
                // Read from a node holding no replica: the two-phase
                // path's second hop is then a real cross-fabric RTT.
                let replicas = store.placement().replicas(oid(1));
                let client_node = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .find(|n| !replicas.contains(n))
                    .unwrap();
                let c = store.client(client_node);
                c.put(
                    oid(1),
                    Bytes::from(vec![7u8; 1024]),
                    Mutability::Mutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                let t0 = h.now();
                c.read_all(oid(1), Consistency::Linearizable).await.unwrap();
                h.now() - t0
            })
        };
        let one_rtt = lat(64 * 1024);
        let two_phase = lat(0);
        assert!(
            one_rtt.as_nanos() * 13 / 10 < two_phase.as_nanos(),
            "one-RTT {one_rtt:?} should clearly beat two-phase {two_phase:?}"
        );
    }

    #[test]
    fn large_objects_fall_back_to_directed_read() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = deploy(&sim, false);
        sim.block_on(async move {
            let c = store.client(NodeId(0));
            // Larger than the 64 KiB inline limit.
            let big = vec![9u8; 100 * 1024];
            c.put(
                oid(2),
                Bytes::from(big.clone()),
                Mutability::Mutable,
                Consistency::Linearizable,
            )
            .await
            .unwrap();
            let (tag, data) = c.read_all(oid(2), Consistency::Linearizable).await.unwrap();
            assert_eq!(tag.seq, 1);
            assert_eq!(data.len(), big.len());
        });
    }

    #[test]
    fn immutable_reads_hit_cache_with_zero_fabric_traffic() {
        let mut sim = Sim::new(42);
        let (fabric, store) = deploy(&sim, false);
        sim.block_on({
            let store = store.clone();
            async move {
                let c = store.client(NodeId(4));
                c.put(
                    oid(3),
                    Bytes::from_static(b"frozen asset"),
                    Mutability::Immutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                // First read fills the node-local cache.
                let (tag1, d1) = c.read_all(oid(3), Consistency::Linearizable).await.unwrap();
                let msgs_before = fabric.message_count();
                for _ in 0..10 {
                    let (tag, d) = c.read_all(oid(3), Consistency::Linearizable).await.unwrap();
                    assert_eq!(&d[..], &d1[..]);
                    assert_eq!(tag, tag1);
                }
                assert_eq!(
                    fabric.message_count(),
                    msgs_before,
                    "cached reads must not touch the fabric"
                );
                let stats = store.cache_stats();
                assert_eq!(stats.hits, 10);
                // A different node has its own (cold) cache.
                let other = store.client(NodeId(7));
                let before = store.cache_stats().misses;
                other.read_all(oid(3), Consistency::Eventual).await.unwrap();
                assert_eq!(store.cache_stats().misses, before + 1);
            }
        });
    }

    #[test]
    fn cache_stats_aggregate_evictions_across_nodes() {
        let mut sim = Sim::new(42);
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        // A 1 KiB per-node cache: each 400-byte immutable object fits,
        // but no node can hold all three at once.
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Dram,
                anti_entropy: None,
                inline_read_max: 64 * 1024,
                cache_bytes: 1024,
                ..StoreConfig::default()
            },
            &Telemetry::default(),
        );
        sim.block_on({
            let store = store.clone();
            async move {
                for n in 0..3u64 {
                    store
                        .client(NodeId(0))
                        .put(
                            oid(100 + n),
                            Bytes::from(vec![n as u8; 400]),
                            Mutability::Immutable,
                            Consistency::Linearizable,
                        )
                        .await
                        .unwrap();
                }
                // Two nodes each read all three objects: 2 entries fit,
                // the third admit evicts the LRU — once per node.
                for node in [NodeId(1), NodeId(5)] {
                    let c = store.client(node);
                    for n in 0..3u64 {
                        c.read_all(oid(100 + n), Consistency::Linearizable)
                            .await
                            .unwrap();
                    }
                }
            }
        });
        let stats = store.cache_stats();
        assert_eq!(stats.evictions, 2, "one eviction on each reading node");
        assert_eq!(stats.misses, 6, "every first read misses");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn delete_invalidates_cached_copies() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = deploy(&sim, false);
        sim.block_on(async move {
            let c = store.client(NodeId(0));
            c.put(
                oid(4),
                Bytes::from_static(b"short lived"),
                Mutability::Immutable,
                Consistency::Linearizable,
            )
            .await
            .unwrap();
            c.read_all(oid(4), Consistency::Linearizable).await.unwrap();
            c.delete(oid(4)).await.unwrap();
            let r = c.read_all(oid(4), Consistency::Linearizable).await;
            assert!(matches!(r, Err(PcsiError::NotFound(_))), "{r:?}");
        });
    }

    #[test]
    fn quorum_read_repairs_stale_replica() {
        let mut sim = Sim::new(44);
        let (fabric, store) = deploy(&sim, false); // No anti-entropy.
        let h = fabric.handle().clone();
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let c = store.client(NodeId(0));
                let id = oid(5);
                let replicas = store.placement().replicas(id);
                c.put(
                    id,
                    Bytes::from_static(b"v1"),
                    Mutability::Mutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                h.sleep(Duration::from_millis(5)).await;
                // Isolate one secondary, write v2 past it, then heal.
                let lagging = replicas[2];
                let others: Vec<NodeId> = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .filter(|&n| n != lagging)
                    .collect();
                fabric.partition(&[lagging], &others);
                c.put(
                    id,
                    Bytes::from_static(b"v2"),
                    Mutability::Mutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                fabric.heal_partitions();
                // Quorum reads observe the lagging replica's old tag and
                // push it the new state — no anti-entropy involved. Read
                // from a client co-located with the laggard so its (old)
                // reply is always part of the first majority.
                let reader = store.client(lagging);
                for _ in 0..5 {
                    let (tag, data) = reader
                        .read_all(id, Consistency::Linearizable)
                        .await
                        .unwrap();
                    assert_eq!(tag.seq, 2);
                    assert_eq!(&data[..], b"v2");
                    h.sleep(Duration::from_millis(2)).await;
                }
                let repaired: u64 = store.replicas().iter().map(|r| r.repaired_count()).sum();
                assert!(repaired > 0, "read repair should have fired");
                let local = store
                    .replica_on(lagging)
                    .unwrap()
                    .with_engine(|e| e.read(id, 0, 100).map(|b| b.to_vec()));
                assert_eq!(local.unwrap(), b"v2");
            }
        });
    }

    #[test]
    fn writes_fail_over_past_a_crashed_primary() {
        // The primary of the object is down, but a majority of replicas
        // is alive: the recovery layer must route the coordination to
        // the next replica in placement order instead of surfacing an
        // error to the client.
        let mut sim = Sim::new(42);
        let (fabric, store) = deploy(&sim, false);
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(30);
                let replicas = store.placement().replicas(id);
                let client_node = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .find(|n| !replicas.contains(n))
                    .unwrap();
                let c = store.client(client_node);
                c.put(
                    id,
                    Bytes::from_static(b"v1"),
                    Mutability::Mutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                fabric.set_node_down(replicas[0], true);
                let tag = c
                    .write_at(id, 0, Bytes::from_static(b"v2"), Consistency::Linearizable)
                    .await
                    .expect("a live majority must absorb the write");
                assert_eq!(tag.writer, replicas[1].0, "ordered by the failover target");
                let stats = store.retry_stats();
                assert!(stats.failovers >= 1, "failover never fired: {stats:?}");
                assert!(
                    stats.retries >= 1,
                    "per-target retries never fired: {stats:?}"
                );
                let (read_tag, data) = c.read_all(id, Consistency::Linearizable).await.unwrap();
                assert_eq!(read_tag, tag);
                assert_eq!(&data[..], b"v2");
            }
        });
    }

    #[test]
    fn dropped_messages_time_out_and_fail_over() {
        // Every message on the client <-> primary link vanishes. With a
        // per-attempt deadline below the fabric's retransmit timeout,
        // each attempt against the primary surfaces as a client-side
        // timeout — the path that finally generates `PcsiError::Timeout`
        // — and the write still succeeds via failover.
        let mut sim = Sim::new(42);
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Dram,
                anti_entropy: None,
                inline_read_max: 64 * 1024,
                cache_bytes: 0,
                retry: RetryPolicy {
                    attempt_timeout: Some(Duration::from_millis(1)),
                    ..RetryPolicy::default()
                },
                ring_nodes: None,
            },
            &Telemetry::default(),
        );
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(31);
                let replicas = store.placement().replicas(id);
                let client_node = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .find(|n| !replicas.contains(n))
                    .unwrap();
                fabric.set_link_faults(
                    client_node,
                    replicas[0],
                    pcsi_net::MessageFaults {
                        drop: 1.0,
                        duplicate: 0.0,
                        delay_spike: 0.0,
                        spike: Duration::ZERO,
                    },
                );
                let c = store.client(client_node);
                let tag = c
                    .put(
                        id,
                        Bytes::from_static(b"survives"),
                        Mutability::Mutable,
                        Consistency::Linearizable,
                    )
                    .await
                    .expect("a dropped link to the primary must not fail the write");
                assert_eq!(tag.writer, replicas[1].0);
                let stats = store.retry_stats();
                assert!(stats.timeouts >= 1, "attempts never timed out: {stats:?}");
                assert!(stats.failovers >= 1, "failover never fired: {stats:?}");
                let (_, data) = c.read_all(id, Consistency::Linearizable).await.unwrap();
                assert_eq!(&data[..], b"survives");
            }
        });
    }

    #[test]
    fn ambiguous_delete_failure_invalidates_caches() {
        // A delete that errs ambiguously may still have landed a
        // tombstone server-side (here: the full-set ack fails because
        // one Apply is dropped, but a majority did apply). The cache
        // must be invalidated on that ambiguous failure too — otherwise
        // a cached "immutable" copy serves deleted bytes forever.
        let mut sim = Sim::new(42);
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Dram,
                anti_entropy: None,
                inline_read_max: 64 * 1024,
                cache_bytes: 1 << 20,
                // Single-shot so the ambiguous verdict surfaces directly.
                retry: RetryPolicy::none(),
                ring_nodes: None,
            },
            &Telemetry::default(),
        );
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(32);
                let replicas = store.placement().replicas(id);
                let client_node = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .find(|n| !replicas.contains(n))
                    .unwrap();
                let c = store.client(client_node);
                c.put(
                    id,
                    Bytes::from_static(b"doomed"),
                    Mutability::Immutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                // Cache the immutable object on the client's node.
                c.read_all(id, Consistency::Linearizable).await.unwrap();
                // Lose the replication traffic to the last replica: the
                // tombstone lands on a majority, but the full-set delete
                // ack fails — an ambiguous outcome for the client.
                fabric.set_link_faults(
                    replicas[0],
                    replicas[2],
                    pcsi_net::MessageFaults {
                        drop: 1.0,
                        duplicate: 0.0,
                        delay_spike: 0.0,
                        spike: Duration::ZERO,
                    },
                );
                let err = c.delete(id).await.unwrap_err();
                assert!(
                    err.is_retryable(),
                    "delete verdict must be ambiguous: {err:?}"
                );
                fabric.clear_message_faults();
                // The cached copy must be gone: the next read goes to the
                // quorum and observes the tombstone instead of serving
                // the deleted bytes from cache.
                let r = c.read_all(id, Consistency::Linearizable).await;
                assert!(
                    matches!(r, Err(PcsiError::NotFound(_))),
                    "cache served a deleted object: {r:?}"
                );
            }
        });
    }

    /// Coordinates one append on `target` over the raw wire, bypassing
    /// the client recovery layer (fault-scenario choreography).
    async fn raw_append(
        fabric: &Fabric,
        from: NodeId,
        target: NodeId,
        id: ObjectId,
        data: &'static [u8],
        req_id: u64,
    ) -> Response {
        let req = wire::encode_request(&Request::Coordinate {
            id,
            mutation: Mutation::Append {
                data: Bytes::from_static(data),
            },
            sync_replicas: 1,
            req_id,
            expires_ns: 0,
        });
        let raw = fabric
            .call(from, target, STORE_SERVICE, STORE_TRANSPORT, req)
            .await
            .expect("raw coordinate must reach the target");
        wire::decode_response(&raw).unwrap()
    }

    fn replica_bytes(store: &ReplicatedStore, node: NodeId, id: ObjectId) -> Vec<u8> {
        store
            .replica_on(node)
            .unwrap()
            .with_engine(|e| e.read(id, 0, u64::MAX).map(|b| b.to_vec()))
            .unwrap_or_default()
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
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Dram,
                anti_entropy: None,
                inline_read_max: 64 * 1024,
                cache_bytes: 0,
                retry: RetryPolicy {
                    attempt_timeout: None,
                    op_deadline: None,
                    attempts_per_target: 1,
                    failover: true,
                    base_backoff: Duration::from_micros(10),
                    max_backoff: Duration::from_micros(10),
                    jitter: 0.0,
                },
                ring_nodes: None,
            },
            &Telemetry::default(),
        );
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(40);
                let replicas = store.placement().replicas(id);
                let (a, b) = (replicas[0], replicas[1]);
                let client_node = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .find(|n| !replicas.contains(n))
                    .unwrap();
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
                // Pulls target a random storage node (not necessarily a
                // fellow replica), so run rounds until the set agrees.
                for _ in 0..64 {
                    if replicas
                        .iter()
                        .all(|&n| replica_bytes(&store, n, id) == b"basex")
                    {
                        break;
                    }
                    for r in store.replicas() {
                        r.anti_entropy_once().await;
                    }
                }
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
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Dram,
                anti_entropy: None,
                inline_read_max: 64 * 1024,
                cache_bytes: 0,
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
                ring_nodes: None,
            },
            &Telemetry::default(),
        );
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(41);
                let replicas = store.placement().replicas(id);
                let (a, b, c_node) = (replicas[0], replicas[1], replicas[2]);
                let client_node = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .find(|n| !replicas.contains(n))
                    .unwrap();
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
                // Pulls target a random storage node (not necessarily a
                // fellow replica), so run rounds until the set agrees.
                for _ in 0..64 {
                    if replicas
                        .iter()
                        .all(|&n| replica_bytes(&store, n, id) == b"pabx")
                    {
                        break;
                    }
                    for r in store.replicas() {
                        r.anti_entropy_once().await;
                    }
                }
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

    /// 9 storage nodes with an 8-node initial ring: `NodeId(8)` runs a
    /// replica engine but holds no data until joined.
    fn deploy_with_standby(sim: &Sim) -> (Fabric, ReplicatedStore) {
        deploy_with_standby_observed(sim, &Telemetry::default())
    }

    fn deploy_with_standby_observed(sim: &Sim, telemetry: &Telemetry) -> (Fabric, ReplicatedStore) {
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let all = fabric.topology().node_ids();
        let store = ReplicatedStore::launch(
            fabric.clone(),
            all.clone(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Dram,
                anti_entropy: None,
                inline_read_max: 64 * 1024,
                cache_bytes: 0,
                ring_nodes: Some(all[..8].to_vec()),
                ..StoreConfig::default()
            },
            telemetry,
        );
        (fabric, store)
    }

    #[test]
    fn join_migrates_data_and_flips_routing() {
        let mut sim = Sim::new(42);
        let (_fabric, store) = deploy_with_standby(&sim);
        sim.block_on({
            let store = store.clone();
            async move {
                let spare = NodeId(8);
                assert!(!store.placement().is_member(spare));
                let c = store.client(NodeId(0));
                for n in 0..50u64 {
                    c.put(
                        oid(n),
                        Bytes::from(vec![n as u8; 64]),
                        Mutability::Mutable,
                        Consistency::Linearizable,
                    )
                    .await
                    .unwrap();
                }
                let epoch_before = store.placement().epoch();
                let moved = store.join_node(spare).await.unwrap();
                assert!(moved >= 1, "a 50-object join moved nothing");
                assert!(store.placement().is_member(spare));
                assert_eq!(store.placement().epoch(), epoch_before + 1);
                assert!(store.placement().pending_moves().is_empty());
                // The joiner owns (and physically holds) part of the space.
                let owns = (0..50u64)
                    .filter(|&n| store.placement().replicas(oid(n)).contains(&spare))
                    .count();
                assert!(owns >= 1, "the joiner took over no replica sets");
                assert!(
                    store.replica_on(spare).unwrap().migrated_in_count() >= 1,
                    "no sealed snapshot landed on the joiner"
                );
                // Every object still reads back correctly — including the
                // migrated ones, served by their new owners.
                for n in 0..50u64 {
                    let (_, data) = c.read_all(oid(n), Consistency::Linearizable).await.unwrap();
                    assert_eq!(&data[..], &vec![n as u8; 64][..], "object {n} corrupted");
                }
            }
        });
    }

    #[test]
    fn a_stalled_drain_says_why_and_journals_it() {
        let mut sim = Sim::new(42);
        let telemetry = Telemetry {
            journal: Some(pcsi_obs::Journal::new(&sim.handle(), 64)),
            ..Telemetry::default()
        };
        let (fabric, store) = deploy_with_standby_observed(&sim, &telemetry);
        let stalled = sim.block_on({
            let store = store.clone();
            async move {
                let spare = NodeId(8);
                let c = store.client(NodeId(0));
                for n in 0..50u64 {
                    let data = Bytes::from(vec![n as u8; 64]);
                    c.put(oid(n), data, Mutability::Mutable, Consistency::Linearizable)
                        .await
                        .unwrap();
                }
                // The joiner never gets to talk to the old owners, so the
                // objects it is to pull as first new owner cannot move.
                let others: Vec<NodeId> = (0..8).map(NodeId).collect();
                fabric.partition(&[spare], &others);
                store.join_node(spare).await
            }
        });
        let msg = stalled.expect_err("the drain must give up").to_string();
        assert!(msg.contains("shard migration stalled"), "{msg}");
        assert!(msg.contains("quorum unavailable: needed 2, got 0"), "{msg}");
        assert!(!store.placement().pending_moves().is_empty());
        // One record, on the failure path only, carrying the same cause.
        let journal = telemetry.journal.expect("built above");
        let records: Vec<_> = journal
            .events()
            .into_iter()
            .filter(|e| e.kind == "migration_stalled")
            .collect();
        assert_eq!(records.len(), 1, "{}", journal.render());
        assert_eq!(records[0].layer, "store");
        assert!(msg.ends_with(&records[0].detail), "{msg}");
    }

    #[test]
    fn decommission_moves_data_off_the_departing_node() {
        let mut sim = Sim::new(42);
        let (fabric, store) = deploy(&sim, false);
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let c = store.client(NodeId(0));
                for n in 0..50u64 {
                    c.put(
                        oid(n),
                        Bytes::from(vec![n as u8; 64]),
                        Mutability::Mutable,
                        Consistency::Linearizable,
                    )
                    .await
                    .unwrap();
                }
                let leaving = NodeId(3);
                store.decommission_node(leaving).await.unwrap();
                assert!(!store.placement().is_member(leaving));
                assert!(store.placement().pending_moves().is_empty());
                for n in 0..50u64 {
                    assert!(
                        !store.placement().replicas(oid(n)).contains(&leaving),
                        "object {n} still routed at the decommissioned node"
                    );
                }
                // The node can now actually go away without data loss.
                fabric.set_node_down(leaving, true);
                for n in 0..50u64 {
                    let (_, data) = c.read_all(oid(n), Consistency::Linearizable).await.unwrap();
                    assert_eq!(&data[..], &vec![n as u8; 64][..], "object {n} lost");
                }
            }
        });
    }

    #[test]
    fn migration_preserves_a_partially_replicated_delete() {
        // A delete lands on a majority but one replica keeps stale live
        // bytes (its replication message was dropped). Migrating the
        // object off the tombstoned primary must move the *delete*, not
        // resurrect the stale survivor's data — and anti-entropy
        // afterwards must not bring it back either.
        let mut sim = Sim::new(42);
        let fabric = Fabric::new(
            sim.handle(),
            Topology::uniform(3, 3),
            LatencyModel::deterministic(NetworkGeneration::Dc2021),
        );
        let store = ReplicatedStore::launch(
            fabric.clone(),
            fabric.topology().node_ids(),
            StoreConfig {
                n_replicas: 3,
                tier: MediaTier::Dram,
                anti_entropy: None,
                inline_read_max: 64 * 1024,
                cache_bytes: 0,
                retry: RetryPolicy::none(),
                ..StoreConfig::default()
            },
            &Telemetry::default(),
        );
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let id = oid(60);
                let replicas = store.placement().replicas(id);
                let client_node = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .find(|n| !replicas.contains(n))
                    .unwrap();
                let c = store.client(client_node);
                c.put(
                    id,
                    Bytes::from_static(b"doomed"),
                    Mutability::Mutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                // Drop the delete's replication to the last replica: the
                // tombstone lands on a majority, the straggler keeps the
                // live bytes.
                fabric.set_link_faults(
                    replicas[0],
                    replicas[2],
                    pcsi_net::MessageFaults {
                        drop: 1.0,
                        duplicate: 0.0,
                        delay_spike: 0.0,
                        spike: Duration::ZERO,
                    },
                );
                let err = c.delete(id).await.unwrap_err();
                assert!(err.is_retryable(), "delete should be ambiguous: {err:?}");
                fabric.clear_message_faults();
                assert_eq!(replica_bytes(&store, replicas[2], id), b"doomed");
                // Move the object off its (tombstoned) primary.
                store.decommission_node(replicas[0]).await.unwrap();
                let r = c.read_all(id, Consistency::Linearizable).await;
                assert!(
                    matches!(r, Err(PcsiError::NotFound(_))),
                    "migration resurrected a deleted object: {r:?}"
                );
                // The stale survivor must not resurrect it later either.
                for _ in 0..8 {
                    for r in store.replicas() {
                        r.anti_entropy_once().await;
                    }
                }
                let r = c.read_all(id, Consistency::Linearizable).await;
                assert!(
                    matches!(r, Err(PcsiError::NotFound(_))),
                    "anti-entropy resurrected a deleted object: {r:?}"
                );
            }
        });
    }

    #[test]
    fn writes_issued_during_a_migration_land_exactly_once() {
        // Client appends race a join's drain loop: every acknowledged
        // append must appear exactly once in the final bytes, no matter
        // how the freeze windows interleave with the writes.
        let mut sim = Sim::new(7);
        let (fabric, store) = deploy_with_standby(&sim);
        let h = fabric.handle().clone();
        sim.block_on({
            let store = store.clone();
            async move {
                let c = store.client(NodeId(0));
                let id = oid(70);
                c.put(
                    id,
                    Bytes::new(),
                    Mutability::AppendOnly,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                for n in 0..20u64 {
                    c.put(
                        oid(100 + n),
                        Bytes::from(vec![n as u8; 256]),
                        Mutability::Mutable,
                        Consistency::Linearizable,
                    )
                    .await
                    .unwrap();
                }
                // Background writer: one appender racing the drain.
                let writer = {
                    let store = store.clone();
                    let h = h.clone();
                    async move {
                        let c = store.client(NodeId(4));
                        let mut acked = Vec::new();
                        for i in 0..30u8 {
                            let payload = Bytes::from(vec![i]);
                            if c.append(id, payload.clone(), Consistency::Linearizable)
                                .await
                                .is_ok()
                            {
                                acked.push(i);
                            }
                            h.sleep(Duration::from_micros(200)).await;
                        }
                        acked
                    }
                };
                let writer_task = h.spawn(writer);
                let pacer = Pacer::new(h.clone(), Duration::from_micros(500));
                store.begin_join(NodeId(8));
                store.drain_moves(Some(&pacer)).await.unwrap();
                let acked = writer_task.await;
                // Quiesce: every replica of the final set converges.
                for _ in 0..8 {
                    for r in store.replicas() {
                        r.anti_entropy_once().await;
                    }
                }
                let (_, data) = c.read_all(id, Consistency::Linearizable).await.unwrap();
                for &b in &acked {
                    let count = data.iter().filter(|&&x| x == b).count();
                    assert_eq!(
                        count, 1,
                        "acked append {b} appears {count} times in {data:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn partition_isolates_minority_and_heals() {
        let mut sim = Sim::new(43);
        let (fabric, store) = deploy(&sim, true);
        let h = fabric.handle().clone();
        sim.block_on({
            let store = store.clone();
            let fabric = fabric.clone();
            async move {
                let c = store.client(NodeId(0));
                let id = oid(9);
                let replicas = store.placement().replicas(id);
                c.put(
                    id,
                    Bytes::from_static(b"v1"),
                    Mutability::Mutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                // Partition one secondary away from everyone.
                let isolated = replicas[2];
                let others: Vec<NodeId> = fabric
                    .topology()
                    .node_ids()
                    .into_iter()
                    .filter(|&n| n != isolated)
                    .collect();
                fabric.partition(&[isolated], &others);
                // Majority writes still succeed.
                c.put(
                    id,
                    Bytes::from_static(b"v2"),
                    Mutability::Mutable,
                    Consistency::Linearizable,
                )
                .await
                .unwrap();
                // Heal; anti-entropy catches the straggler up.
                fabric.heal_partitions();
                h.sleep(Duration::from_millis(400)).await;
                let local = store
                    .replica_on(isolated)
                    .unwrap()
                    .with_engine(|e| e.read(id, 0, 100).map(|b| b.to_vec()));
                assert_eq!(local.unwrap(), b"v2");
            }
        });
    }
}
