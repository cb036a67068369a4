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
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{Mutability, ObjectId};
use pcsi_metrics::Counter;
use pcsi_net::{Fabric, NodeId};
use pcsi_obs::Telemetry;

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
    /// Store-unique id allocator for [`crate::wire::Request::Coordinate`].
    /// The fabric can duplicate messages and clients retry, so every
    /// coordination carries an id coordinators deduplicate on.
    pub(crate) next_req_id: Cell<u64>,
    /// Fault-recovery counters, aggregated across every client of this
    /// store.
    pub(crate) retries: Counter,
    pub(crate) failovers: Counter,
    pub(crate) timeouts: Counter,
    /// The deployment's telemetry. With a registry, the always-on cells
    /// above (and every lazily created cache's) are published as named
    /// series; nothing is double-counted. Client operations open spans
    /// on the tracer, and the context rides each fabric call so replica
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
            next_req_id: Cell::new(0),
            retries: Counter::new(),
            failovers: Counter::new(),
            timeouts: Counter::new(),
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
    use crate::testkit::{self, oid};
    use pcsi_core::Consistency;
    use pcsi_sim::Sim;

    #[test]
    fn immutable_reads_hit_cache_with_zero_fabric_traffic() {
        let mut sim = Sim::new(42);
        let (fabric, store) = testkit::deploy(&sim, testkit::cached());
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
        // A 1 KiB per-node cache: each 400-byte immutable object fits,
        // but no node can hold all three at once.
        let config = StoreConfig {
            cache_bytes: 1024,
            ..testkit::config()
        };
        let (_fabric, store) = testkit::deploy(&sim, config);
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
}
