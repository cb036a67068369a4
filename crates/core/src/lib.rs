#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pcsi-core — the Portable Cloud System Interface
//!
//! This crate defines the interface the paper proposes (§3): the types and
//! contracts of PCSI, independent of any implementation. The simulated
//! cloud provider in `pcsi-cloud` implements [`api::CloudInterface`]; the
//! benchmarks and examples program against it.
//!
//! The design follows the paper's two-abstraction model:
//!
//! * **State** — objects ([`object::ObjectKind`]: directories, regular
//!   files, FIFOs, sockets, device interfaces) named by [`id::ObjectId`],
//!   reached through capability [`reference::Reference`]s, configured with
//!   a [`mutability::Mutability`] level (Figure 1) and a
//!   [`consistency::Consistency`] level (§3.3's two-item menu).
//! * **Computation** — functions are objects too; invoking one requires a
//!   reference carrying [`rights::Rights::INVOKE`]. Task-graph types live
//!   in `pcsi-faas`, which builds on these primitives.
//!
//! Nothing here performs I/O; this crate is the "POSIX header" of the
//! system.

pub mod api;
pub mod consistency;
pub mod error;
pub mod id;
pub mod mutability;
pub mod object;
pub mod reference;
pub mod rights;

pub use api::CloudInterface;
pub use consistency::Consistency;
pub use error::PcsiError;
pub use id::ObjectId;
pub use mutability::Mutability;
pub use object::{ObjectKind, ObjectMeta};
pub use reference::Reference;
pub use rights::Rights;
