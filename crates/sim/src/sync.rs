//! Waker-based synchronization primitives for simulated tasks.
//!
//! All primitives here are single-threaded (`Rc`-based) and integrate with
//! the virtual-time executor purely through the standard waker protocol, so
//! they would work under any single-threaded executor.

pub mod oneshot;
