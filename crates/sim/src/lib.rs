#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pcsi-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate every distributed component of the RESTless
//! Cloud reproduction runs on. It provides:
//!
//! * a single-threaded, deterministic **async executor** driven by a virtual
//!   clock ([`Sim`], [`SimHandle`]) — tasks are ordinary Rust futures, time
//!   only advances when every runnable task is blocked,
//! * virtual-time **timers** ([`SimHandle::sleep`],
//!   [`SimHandle::sleep_until`], [`util::deadline`]) and **events**
//!   that run at an instant without a task being polled for them
//!   ([`SimHandle::schedule`], [`TimerEvent`]),
//! * a waker-based **channel** ([`sync::mpsc`]), and
//! * named, seeded **random-number streams** ([`rng`]) so that two runs with
//!   the same seed produce byte-identical results regardless of the order in
//!   which components were constructed.
//!
//! The executor is intentionally *not* work-stealing or multi-threaded:
//! determinism is a hard requirement for reproducing the paper's
//! experiments, and a warehouse-scale computer simulated at
//! message/request granularity fits comfortably on one core.
//!
//! # Examples
//!
//! ```
//! use pcsi_sim::{Sim, SimTime};
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(42);
//! let h = sim.handle();
//! let out = sim.block_on(async move {
//!     h.sleep(Duration::from_millis(5)).await;
//!     h.now()
//! });
//! assert_eq!(out, SimTime::from_nanos(5_000_000));
//! ```

pub mod executor;
pub mod rng;
pub mod sync;
pub mod time;
pub mod util;
mod wheel;

pub use executor::{JoinHandle, LocalBoxFuture, Sim, SimHandle};
pub use rng::{DetRng, RngStreams, ZipfParams};
pub use time::SimTime;
pub use wheel::TimerEvent;
