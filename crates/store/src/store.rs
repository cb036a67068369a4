//! The deployed store: configuration, launch and the per-node caches.
//!
//! [`ReplicatedStore`] launches one [`ReplicaNode`] per storage node and
//! hands out per-origin [`StoreClient`]s (the read and write paths live
//! in `client.rs`, live rebalancing in `migrate.rs`).
//!
//! Each client node also keeps a mutability-aware `ObjectCache`:
//! `IMMUTABLE` objects and the stable prefixes of `APPEND_ONLY` objects
//! are served node-locally at DRAM cost with zero fabric traffic.

use fxhash::FxHashMap;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{Consistency, Mutability, ObjectId};
use pcsi_metrics::Counter;
use pcsi_net::{Fabric, NodeId};
use pcsi_obs::Telemetry;
use pcsi_sim::SimTime;

use crate::cache::ObjectCache;
use crate::client::Served;
pub use crate::client::StoreClient;
use crate::engine::MediaTier;
use crate::placement::Placement;
use crate::replica::ReplicaNode;
use crate::retry::{RetryPolicy, RetryStats};
use crate::version::Tag;

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
    /// read reply. Above it every replica answers with its tag alone and
    /// the client reads the newest one directly: a second round trip.
    /// At `0` every non-empty read takes both.
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
/// Emitted through the `HistoryTap` for consistency checking — the
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
pub(crate) type HistoryTap = Rc<dyn Fn(&TapEvent)>;

/// The deployed storage system.
#[derive(Clone)]
pub struct ReplicatedStore {
    pub(crate) inner: Rc<StoreInner>,
}

pub(crate) struct StoreInner {
    pub(crate) fabric: Fabric,
    pub(crate) placement: Placement,
    pub(crate) replicas: Vec<ReplicaNode>,
    pub(crate) config: StoreConfig,
    /// One mutability-aware cache per client node, created lazily.
    /// Clients are handed out per call, so the cache state lives here.
    pub(crate) caches: RefCell<FxHashMap<NodeId, ObjectCache>>,
    /// Optional per-operation observer (chaos harness history recording).
    pub(crate) tap: RefCell<Option<HistoryTap>>,
    /// Store-unique [`Request::Coordinate`] id allocator. The fabric can
    /// duplicate messages and clients retry, so every coordination
    /// carries an id coordinators deduplicate on.
    pub(crate) next_req_id: Cell<u64>,
    /// Fault-recovery counters, aggregated across every client of this
    /// store.
    pub(crate) retries: Counter,
    pub(crate) failovers: Counter,
    pub(crate) timeouts: Counter,
    /// Objects a migration driver is currently moving. A freeze window
    /// must belong to exactly one driver — a second drain unfreezing an
    /// object mid-snapshot would readmit writes the first driver's
    /// snapshot cannot see — so concurrent drains skip claimed objects.
    pub(crate) migrating: RefCell<BTreeSet<ObjectId>>,
    /// The deployment's telemetry. With a registry, the always-on cells
    /// above (and every lazily created cache's) are published as named
    /// series; nothing is double-counted. Client operations open spans
    /// on the tracer, and the context rides the wire envelope so replica
    /// spans nest under the client attempt that caused them. Failovers
    /// and object migrations append typed records to the journal.
    pub(crate) telemetry: Telemetry,
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

    pub(crate) fn emit_tap(&self, make: impl FnOnce() -> TapEvent) {
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

    pub(crate) fn cache_get(
        &self,
        node: NodeId,
        id: ObjectId,
        offset: u64,
        len: u64,
    ) -> Option<(Tag, Bytes)> {
        if self.inner.config.cache_bytes == 0 {
            return None;
        }
        self.with_cache(node, |cache| cache.get(id, offset, len))
    }

    pub(crate) fn cache_admit(&self, node: NodeId, id: ObjectId, served: &Served) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Mutation;
    use crate::replica::{STORE_SERVICE, STORE_TRANSPORT};
    use crate::wire::{self, Request, Response};
    use pcsi_core::PcsiError;
    use pcsi_net::{LatencyModel, NetworkGeneration, Topology};
    use pcsi_sim::util::Pacer;
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
                    store
                        .replica_on(spare)
                        .unwrap()
                        .with_engine(|e| !e.ids().is_empty()),
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
