#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pcsi-net — the simulated datacenter
//!
//! A warehouse-scale computer reduced to the pieces the paper's arguments
//! depend on:
//!
//! * a rack-structured [`topology::Topology`] of [`node::NodeSpec`]s with
//!   heterogeneous resources (CPU cores, GPUs, TPUs, memory),
//! * three [`latency::NetworkGeneration`]s calibrated to Table 1 —
//!   2005 datacenter (1 ms RTT), 2021 datacenter (200 µs RTT), and the
//!   emerging fast network (1 µs RTT),
//! * per-node NIC egress queues so bandwidth contention is modeled, not
//!   assumed away ([`fabric::Fabric`]),
//! * two transports: TCP-like (connection handshake + per-message socket
//!   overhead, Table 1's 5 µs row) and RDMA-like (no socket overhead),
//! * an RPC layer with per-node service registration, and
//! * fault injection: node crashes and network partitions, used by the
//!   storage quorum tests.
//!
//! All time passes on the `pcsi-sim` virtual clock; nothing here touches
//! wall-clock time.

pub mod fabric;
pub mod latency;
pub mod node;
pub mod topology;

pub use fabric::{Fabric, MessageFaults, NetError, Transport};
pub use latency::{LatencyModel, NetworkGeneration};
pub use node::{NodeId, NodeSpec};
pub use topology::Topology;
