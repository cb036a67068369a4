#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pcsi-store — the replicated state substrate
//!
//! The paper's state layer (§3.2–3.3) promises a universal storage
//! interface with a two-item consistency menu and mutability-aware
//! implementation freedom. This crate is that implementation for the
//! simulated cloud:
//!
//! * [`engine::StorageEngine`] — a per-node object store with media tiers
//!   (DRAM / NVMe / disk) whose access times are charged to virtual time,
//! * [`replica::ReplicaNode`] — the storage service bound on each storage
//!   node, speaking a compact binary protocol ([`wire`]) over the fabric,
//! * [`placement::Placement`] — consistent hashing over virtual nodes,
//!   replica sets spread across racks (fault domains),
//! * [`store::ReplicatedStore`] — the deployed store: launches the
//!   replicas, owns the per-node caches and the recovery counters, and
//!   hands out per-origin clients,
//! * [`store::StoreClient`] (`client.rs`) — the read and write paths: a
//!   linearizable write is a ballot round accepted by a majority, an
//!   eventual one is replicated asynchronously; linearizable reads are
//!   **one fabric round trip** (large payloads add a directed read) and
//!   write divergent tags back; eventual reads hit the closest replica,
//! * `quorum.rs` — the one RPC round trip and the one quorum gather
//!   (frame to N replicas, go on at `need` acks) everything above shares,
//! * `recovery.rs` — the one driver executing the [`retry`] policy,
//! * `round.rs` — a linearizable write's ballot round as pure decisions,
//! * `migrate.rs` — live rebalancing: join, decommission, paced drain,
//! * `cache::ObjectCache` — node-local caching integrated into every
//!   [`store::StoreClient`] read, exploiting the Figure-1 mutability
//!   lattice: `IMMUTABLE` objects cache whole, `APPEND_ONLY` objects
//!   cache their stable prefix, mutable objects don't cache; hits are
//!   served at DRAM cost with zero fabric traffic
//!   ([`store::CacheStats`] aggregates the counters),
//! * [`gc::mark`] + [`gc::sweep`] — reachability garbage collection over the reference
//!   graph (unreachable objects are reclaimed, §3.2),
//! * [`version`] — the write [`Tag`] that orders mutations.
//!
//! Replica crashes and partitions are masked by the client's recovery
//! driver: deadlines, seeded-jitter retries, and failover to the next
//! replica, which the ballot round makes safe. Writes fail only when no
//! majority is reachable for the whole retry budget.

mod cache;
mod client;
pub mod engine;
pub mod gc;
mod migrate;
pub mod placement;
mod quorum;
mod recovery;
pub mod replica;
pub mod retry;
mod round;
pub mod store;
mod testkit;
pub mod version;
pub mod wire;

pub use engine::{MediaTier, StorageEngine, StoredObject};
pub use placement::Placement;
pub use replica::ReplicaNode;
pub use retry::{RetryPolicy, RetryStats};
pub use store::{CacheStats, ReplicatedStore, StoreClient, StoreConfig};
pub use version::Tag;
