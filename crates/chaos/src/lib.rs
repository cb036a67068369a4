#![forbid(unsafe_code)]
//! Deterministic chaos testing for the RESTless cloud.
//!
//! The paper's consistency menu (§2.1) is a contract: `Linearizable`
//! objects behave like a single copy, `Eventual` objects converge once
//! the network calms down. This crate *checks* that contract instead of
//! spot-asserting it:
//!
//! * [`scenario`] drives seeded fault schedules — crash/restart,
//!   partition/heal, message-level faults (drop, duplicate, delay
//!   spikes), or a mix — against a full [`pcsi_cloud::CloudBuilder`]
//!   stack while client workers hammer the store,
//! * [`history`] is what the workers record: every client operation
//!   as an invoke/response interval in virtual time, stamped by the
//!   client around its own call,
//! * [`checker`] validates the recorded history: a Wing–Gong-style
//!   linearizability search for `Linearizable` objects, plus
//!   replica-convergence and reads-observe-writes checks for
//!   `Eventual` ones,
//! * [`stream`] does the same for the streaming layer: cross-node FIFO
//!   subscriptions under message drops and silent subscriber death,
//!   checking exactly-once in-order delivery within the credit window
//!   and bounded buffer memory on both sides,
//! * [`obs`] does it for the observability control plane: a primary
//!   kill plus a drop spike must raise exactly the expected alerts,
//! * [`report`] is what all three return — one [`Report`] with one
//!   `render` and one `fingerprint` — and the fault injector they drive.
//!
//! Everything runs inside the deterministic simulator, so any failing
//! seed reproduces byte-identically: `run_scenario(seed, cfg)` twice
//! yields the same operation history, the same fault schedule, and the
//! same verdict. The `CHAOS_SEEDS` environment variable widens the
//! sweep in CI without touching the tests.

pub mod checker;
pub mod history;
pub mod obs;
pub mod report;
pub mod scenario;
pub mod stream;

pub use checker::{check_converged, check_linearizable, check_reads_observe_writes, Violation};
pub use history::{Op, OpKind};
pub use obs::run_obs_scenario;
pub use report::Report;
pub use scenario::{run_scenario, sweep_seeds, FaultPlan, ScenarioConfig};
pub use stream::run_stream_scenario;
