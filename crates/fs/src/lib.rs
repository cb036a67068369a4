#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # pcsi-fs — "everything is a file" (§3.2)
//!
//! The object-namespace layer of PCSI. This crate supplies the data
//! structures and algorithms the kernel composes with the replicated
//! store:
//!
//! * [`dir::Directory`] — name → (object, rights) maps with a compact
//!   byte serialization so directories are themselves ordinary stored
//!   objects,
//! * [`path`] — path validation and splitting (resolution is iterative in
//!   the kernel because each step may hit the network),
//! * [`union::UnionDir`] — union file systems with whiteouts, "allowing
//!   one namespace to be superimposed on top of another" (the Docker-layer
//!   pattern the paper cites),
//! * [`fifo::FifoQueue`] — FIFO objects connecting pipeline stages
//!   (Figure 2's post-processing hand-off),
//! * [`device::DeviceRegistry`] — device interfaces to system services.
//!
//! Design note: PCSI has **no global namespace**. Every function receives
//! a directory object as its root, so all paths here are relative and
//! `..` is rejected — upward traversal would reintroduce ambient
//! authority that the capability model deliberately removes.

pub mod device;
pub mod dir;
pub mod fifo;
pub mod path;
pub mod union;

pub use dir::{DirEntry, Directory};
pub use fifo::FifoQueue;
pub use union::UnionDir;
