#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pcsi-cloud — the simulated cloud provider
//!
//! The composition crate: everything below (simulation kernel, network,
//! protocols, storage, file layer, FaaS) assembled into a provider a
//! client can program against, in two ways:
//!
//! * the **PCSI kernel** ([`kernel::Kernel`]) — the paper's proposal,
//!   implementing [`pcsi_core::CloudInterface`]: capability references,
//!   everything-is-a-file state, two-item consistency menu, functions and
//!   task graphs; and
//! * the **web-services baselines** — [`rest::RestGateway`], a
//!   DynamoDB/S3-style HTTP + JSON + per-request-signature service,
//!   [`sse::SseHub`], its Server-Sent-Events streaming sibling, and
//!   [`nfs::NfsServer`], an NFS-like stateful session protocol — the
//!   §2.1 comparison targets.
//!
//! Plus the shared measurement machinery: [`billing::Billing`]
//! (pay-per-use ledgers with 2021-calibrated prices),
//! [`workload`] (Poisson / bursty / diurnal open-loop generators, Zipf
//! keys), [`build::CloudBuilder`] (one-call deployment), [`lab::Lab`]
//! (the fixture every experiment, chaos scenario and integration test
//! runs a deployment through), and [`pipelines`] (the Figure-2
//! model-serving pipeline, submitted as separate invocations, as one
//! task graph through [`graphs`], and as one fused function).

pub mod billing;
pub mod build;
pub mod graphs;
pub mod kernel;
pub mod lab;
pub mod nfs;
pub mod pipelines;
pub mod rest;
pub mod sse;
pub mod workload;

pub use billing::Billing;
pub use build::{Cloud, CloudBuilder};
pub use graphs::{GraphExecutor, GraphRun, StageBinding};
pub use kernel::{Kernel, KernelClient};
pub use lab::Lab;
pub use pcsi_obs::{Obs, ObsConfig, Telemetry};
