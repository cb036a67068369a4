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
//! * [`placement::Placement`] — rendezvous-hashed replica sets spread
//!   across racks (fault domains),
//! * [`store::ReplicatedStore`] — the deployed store: launches the
//!   replicas, owns the per-node caches, the recovery counters and the
//!   history tap, and hands out per-origin clients,
//! * [`store::StoreClient`] (`client.rs`) — the read and write paths:
//!   mutations are serialized by each object's primary and replicated
//!   synchronously to a majority (linearizable) or asynchronously
//!   (eventual); linearizable reads are **one fabric round trip**, with
//!   payloads above [`store::StoreConfig::inline_read_max`] falling back
//!   to a tag quorum plus a directed read; quorum reads that observe
//!   divergent tags **read-repair** the stale replicas; eventual reads
//!   hit the closest replica,
//! * `quorum.rs` — the one RPC round trip and the one quorum gather
//!   (frame to N replicas, go on at `need` acks) everything above shares,
//! * `recovery.rs` — the one driver executing the [`retry`] policy,
//! * `migrate.rs` — live rebalancing: join, decommission, paced drain,
//! * `cache::ObjectCache` — node-local caching integrated into every
//!   [`store::StoreClient`] read, exploiting the Figure-1 mutability
//!   lattice: `IMMUTABLE` objects cache whole, `APPEND_ONLY` objects
//!   cache their stable prefix, mutable objects don't cache; hits are
//!   served at DRAM cost with zero fabric traffic
//!   ([`store::CacheStats`] aggregates the counters),
//! * [`gc::mark`] + [`gc::sweep`] — reachability garbage collection over the reference
//!   graph (unreachable objects are reclaimed, §3.2),
//! * [`version`] — write tags and version vectors for ordering and
//!   anti-entropy.
//!
//! Failure handling scope: replica crashes and partitions are tolerated on
//! the read path (any majority / any replica) and masked on the write path
//! by the client-side fault-recovery driver: per-attempt deadlines,
//! bounded seeded-jitter retries, and failover of the
//! coordination to the next replica in placement order (safe because
//! coordinations are deduplicated by `req_id` and stale-tag applies are
//! rejected, so any write majority still enforces a single order). Writes
//! fail only when no majority is reachable for the whole retry budget.

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
pub mod store;
pub mod version;
pub mod wire;

pub use engine::{MediaTier, StorageEngine, StoredObject};
pub use placement::Placement;
pub use replica::ReplicaNode;
pub use retry::{RetryPolicy, RetryStats};
pub use store::{CacheStats, ReplicatedStore, StoreClient, StoreConfig, TapEvent};
pub use version::{Tag, VersionVector};
