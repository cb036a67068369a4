#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # restless — The RESTless Cloud, reproduced in Rust
//!
//! Umbrella crate re-exporting the whole PCSI stack. Examples and
//! cross-crate integration tests live here; the implementation is in the
//! `pcsi-*` workspace crates:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`sim`] | deterministic virtual-time async executor, RNG streams, metrics |
//! | [`net`] | simulated datacenter: topology, Table-1 latency generations, transports |
//! | [`proto`] | real wire protocols: JSON, HTTP/1.1, SHA-256/HMAC signing, binary codec |
//! | [`store`] | replicated object storage: primary ordering, quorums, anti-entropy, caching, GC |
//! | [`fs`] | everything-is-a-file: directories, unions, FIFOs, devices |
//! | [`core`] | the PCSI interface: references, mutability lattice, consistency menu |
//! | [`faas`] | functions: variants, isolation backends, runtime, schedulers, task graphs |
//! | [`cloud`] | the provider: kernel, REST/NFS baselines, billing, workloads, pipelines |
//!
//! Start with [`cloud::CloudBuilder`] and the `examples/` directory.

pub use pcsi_cloud as cloud;
pub use pcsi_core as core;
pub use pcsi_faas as faas;
pub use pcsi_fs as fs;
pub use pcsi_net as net;
pub use pcsi_proto as proto;
pub use pcsi_sim as sim;
pub use pcsi_store as store;

/// The canonical "hello PCSI" snippet used by the README.
///
/// # Examples
///
/// ```
/// assert!(restless::hello().contains("PCSI"));
/// ```
pub fn hello() -> String {
    "PCSI: a portable cloud system interface (HotOS '21)".to_owned()
}
