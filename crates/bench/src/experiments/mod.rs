//! The per-table / per-figure experiment implementations.

pub mod capability;
pub mod consistency;
pub mod crossover;
pub mod efficiency;
pub mod flexibility;
pub mod mutability;
pub mod pipeline;
pub mod recovery;
pub mod rest_vs_nfs;
pub mod shard_scaling;
pub mod stages;
pub mod streaming;
pub mod sweep;
pub mod table1;
pub mod ycsb;

/// The default seed every experiment uses unless told otherwise — keeps
/// the report byte-for-byte reproducible.
pub const DEFAULT_SEED: u64 = 0x5245_5354; // "REST"
