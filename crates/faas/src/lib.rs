#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pcsi-faas — the computation layer (§3.1)
//!
//! Functions in PCSI are "narrow and resource homogeneous" transformations
//! over state, stored as objects, with *no implicit state* across
//! invocations. This crate implements:
//!
//! * [`isolation::Backend`] — execution platforms (container, microVM,
//!   WebAssembly, unikernel) with per-call overheads calibrated to
//!   Table 1 (syscall 500 ns, hypervisor call 700 ns, Wasm call 17 ns)
//!   and realistic cold-start times,
//! * [`function::FunctionImage`] — a function with multiple
//!   implementation [`function::Variant`]s (CPU / GPU / TPU / Wasm), the
//!   "multiple implementations of the same function ... allowing an
//!   optimizer to choose dynamically among them" (§3.1),
//! * `registry::FunctionRegistry` — host-side function bodies plus the
//!   INFaaS-style variant optimizer ([`registry::Goal`]),
//! * [`cluster::ClusterState`] — cluster-wide resource accounting,
//! * [`scheduler`] — placement policies (naive, locality/co-location,
//!   scavenging, load-balancing) and autoscaler bookkeeping,
//! * [`runtime::Runtime`] — per-node warm pools, cold starts, scale from
//!   zero, idle reaping, pay-per-use accounting,
//! * [`autoscale`] — the predictive warm-pool autoscaler: deterministic
//!   EWMA arrival-rate estimators, backend-aware pre-warm depth, and
//!   graph-aware phantom arrivals; plus the scavenged (preemptible)
//!   capacity class in the runtime,
//! * [`graph::TaskGraph`] — ahead-of-time task graphs with the
//!   co-location grouping used by experiment E4 (§4.1).
//!
//! The kernel in `pcsi-cloud` glues these to the state layer: function
//! bodies receive a [`function::DataPlane`] capability and the explicit
//! input/output references from the invocation request — nothing else.

pub mod autoscale;
pub mod cluster;
pub mod function;
pub mod graph;
pub mod isolation;
pub mod registry;
pub mod runtime;
pub mod scheduler;

pub use autoscale::AutoscaleConfig;
pub use cluster::ClusterState;
pub use function::{DataPlane, FnCtx, FunctionImage, Variant, WorkModel};
pub use graph::TaskGraph;
pub use isolation::Backend;
pub use registry::Goal;
pub use runtime::Runtime;
pub use scheduler::PlacementPolicy;
