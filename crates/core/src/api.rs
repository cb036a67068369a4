//! The PCSI system-call surface.
//!
//! [`CloudInterface`] is the portable contract the paper calls for: "a
//! standard model for state and computation". It is deliberately narrow —
//! object lifecycle, byte I/O, namespace manipulation, and function
//! invocation — and makes **no locality assumption in either direction**
//! (§2.2): an implementation may service a call from a node-local cache in
//! nanoseconds or from a remote quorum in milliseconds, and conforming
//! applications must be correct under both.
//!
//! The trait is implemented by the simulated provider kernel in
//! `pcsi-cloud`; a real provider would implement the same contract over
//! its own substrate, which is exactly the portability argument.

use bytes::Bytes;

use crate::consistency::Consistency;
use crate::error::PcsiError;
use crate::mutability::Mutability;
use crate::object::{ObjectKind, ObjectMeta};
use crate::reference::Reference;

/// Options for creating an object.
#[derive(Debug, Clone)]
pub struct CreateOptions {
    /// Kind of object to create.
    pub kind: ObjectKind,
    /// Initial mutability level.
    pub mutability: Mutability,
    /// Consistency level for subsequent operations.
    pub consistency: Consistency,
    /// Initial contents (must be empty for directories and FIFOs).
    pub initial: Bytes,
    /// Queue bound for FIFO/socket objects: at most this many messages
    /// may sit unconsumed before appends fail with a retryable
    /// backpressure error. `None` uses the provider's default bound;
    /// ignored for other kinds.
    pub fifo_capacity: Option<usize>,
}

impl CreateOptions {
    /// A mutable, eventually consistent regular object — the common case.
    pub fn regular() -> Self {
        CreateOptions {
            kind: ObjectKind::Regular,
            mutability: Mutability::Mutable,
            consistency: Consistency::Eventual,
            initial: Bytes::new(),
            fifo_capacity: None,
        }
    }

    /// An immutable regular object with the given contents.
    pub fn immutable(data: impl Into<Bytes>) -> Self {
        CreateOptions {
            kind: ObjectKind::Regular,
            mutability: Mutability::Immutable,
            consistency: Consistency::Eventual,
            initial: data.into(),
            fifo_capacity: None,
        }
    }

    /// A directory.
    pub fn directory() -> Self {
        CreateOptions {
            kind: ObjectKind::Directory,
            mutability: Mutability::Mutable,
            consistency: Consistency::Linearizable,
            initial: Bytes::new(),
            fifo_capacity: None,
        }
    }

    /// A FIFO.
    pub fn fifo() -> Self {
        CreateOptions {
            kind: ObjectKind::Fifo,
            mutability: Mutability::AppendOnly,
            consistency: Consistency::Linearizable,
            initial: Bytes::new(),
            fifo_capacity: None,
        }
    }

    /// A function whose `image_bytes` are its encoded image: mutable
    /// (updating the object redeploys the function) and linearizable.
    pub fn function(image_bytes: impl Into<Bytes>) -> Self {
        CreateOptions {
            kind: ObjectKind::Function,
            mutability: Mutability::Mutable,
            consistency: Consistency::Linearizable,
            initial: image_bytes.into(),
            fifo_capacity: None,
        }
    }

    /// Sets the mutability level, builder-style.
    pub fn with_mutability(mut self, m: Mutability) -> Self {
        self.mutability = m;
        self
    }

    /// Sets the consistency level, builder-style.
    pub fn with_consistency(mut self, c: Consistency) -> Self {
        self.consistency = c;
        self
    }

    /// Sets the initial contents, builder-style.
    pub fn with_initial(mut self, data: impl Into<Bytes>) -> Self {
        self.initial = data.into();
        self
    }

    /// Sets the FIFO/socket queue bound, builder-style.
    pub fn with_fifo_capacity(mut self, capacity: usize) -> Self {
        self.fifo_capacity = Some(capacity);
        self
    }
}

/// A function invocation request.
///
/// §3.1: "Function arguments include explicit data layer inputs and
/// outputs and a small pass-by-value request body."
#[derive(Debug, Clone, Default)]
pub struct InvokeRequest {
    /// Small pass-by-value body (budget-checked by implementations).
    pub body: Bytes,
    /// Explicit data-layer inputs the function may read.
    pub inputs: Vec<Reference>,
    /// Explicit data-layer outputs the function may write.
    pub outputs: Vec<Reference>,
}

impl InvokeRequest {
    /// Request with only a body.
    pub fn with_body(body: impl Into<Bytes>) -> Self {
        InvokeRequest {
            body: body.into(),
            ..Default::default()
        }
    }

    /// Adds an input reference, builder-style.
    pub fn input(mut self, r: Reference) -> Self {
        self.inputs.push(r);
        self
    }

    /// Adds an output reference, builder-style.
    pub fn output(mut self, r: Reference) -> Self {
        self.outputs.push(r);
        self
    }
}

/// A function invocation result.
#[derive(Debug, Clone, Default)]
pub struct InvokeResponse {
    /// Small pass-by-value response body.
    pub body: Bytes,
    /// Nanoseconds of billed execution time (pay-per-use accounting).
    pub billed_ns: u64,
    /// True if this invocation paid a cold-start.
    pub cold_start: bool,
}

/// The portable cloud system interface.
///
/// All methods are async: any call may be serviced locally (fast) or
/// remotely (slow), and callers must not assume either.
#[allow(async_fn_in_trait)] // Single-threaded simulation: no Send bounds wanted.
pub trait CloudInterface {
    /// Creates an object, returning a full-rights reference to it.
    async fn create(&self, opts: CreateOptions) -> Result<Reference, PcsiError>;

    /// Reads `len` bytes at `offset` (clamped to the object size).
    ///
    /// Requires [`crate::Rights::READ`].
    async fn read(&self, r: &Reference, offset: u64, len: u64) -> Result<Bytes, PcsiError>;

    /// Overwrites bytes at `offset`.
    ///
    /// Requires [`crate::Rights::WRITE`] and a mutability level that
    /// allows writes; growing the object additionally requires resize
    /// permission (`MUTABLE` only).
    async fn write(&self, r: &Reference, offset: u64, data: Bytes) -> Result<(), PcsiError>;

    /// Appends bytes, returning the offset they landed at.
    ///
    /// Requires [`crate::Rights::APPEND`]. For FIFOs this enqueues a
    /// message.
    async fn append(&self, r: &Reference, data: Bytes) -> Result<u64, PcsiError>;

    /// Dequeues the next message from a FIFO, waiting if it is empty.
    ///
    /// Requires [`crate::Rights::READ`].
    async fn pop(&self, r: &Reference) -> Result<Bytes, PcsiError>;

    /// Returns object metadata. Requires [`crate::Rights::READ`].
    async fn stat(&self, r: &Reference) -> Result<ObjectMeta, PcsiError>;

    /// Applies a Figure-1 mutability transition.
    ///
    /// Requires [`crate::Rights::MANAGE`].
    async fn set_mutability(&self, r: &Reference, to: Mutability) -> Result<(), PcsiError>;

    /// Deletes the object and revokes all outstanding references.
    ///
    /// Requires [`crate::Rights::MANAGE`].
    async fn delete(&self, r: &Reference) -> Result<(), PcsiError>;

    /// Creates a directory entry binding `name` to `target`.
    ///
    /// Requires `WRITE` on the directory and `GRANT` on the target (a
    /// name makes the target reachable by everyone who can read the
    /// directory, which is a delegation).
    async fn link(&self, dir: &Reference, name: &str, target: &Reference) -> Result<(), PcsiError>;

    /// Removes a directory entry. Requires `WRITE` on the directory.
    async fn unlink(&self, dir: &Reference, name: &str) -> Result<(), PcsiError>;

    /// Resolves a `/`-separated path relative to `dir`.
    ///
    /// There is no global root (§3.2): resolution always starts from a
    /// directory the caller holds. The returned reference carries the
    /// rights recorded in the directory entry.
    async fn lookup(&self, dir: &Reference, path: &str) -> Result<Reference, PcsiError>;

    /// Lists directory entries as `(name, rights)` pairs.
    async fn list(&self, dir: &Reference) -> Result<Vec<String>, PcsiError>;

    /// Invokes a function object.
    ///
    /// Requires [`crate::Rights::INVOKE`] on `f` and passes the request's
    /// input/output references to the function body — the *only* state it
    /// can touch (no implicit state, §3.1).
    async fn invoke(&self, f: &Reference, req: InvokeRequest) -> Result<InvokeResponse, PcsiError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_options_builders() {
        let o = CreateOptions::regular()
            .with_mutability(Mutability::AppendOnly)
            .with_consistency(Consistency::Linearizable)
            .with_initial(&b"x"[..]);
        assert_eq!(o.kind, ObjectKind::Regular);
        assert_eq!(o.mutability, Mutability::AppendOnly);
        assert_eq!(o.consistency, Consistency::Linearizable);
        assert_eq!(&o.initial[..], b"x");

        assert_eq!(CreateOptions::directory().kind, ObjectKind::Directory);
        assert_eq!(CreateOptions::fifo().kind, ObjectKind::Fifo);
        assert_eq!(
            CreateOptions::immutable(&b"data"[..]).mutability,
            Mutability::Immutable
        );
    }

    #[test]
    fn invoke_request_builders() {
        use crate::{ObjectId, Rights};
        let r1 = Reference::mint(ObjectId::from_parts(1, 1), Rights::READ, 0);
        let r2 = Reference::mint(ObjectId::from_parts(1, 2), Rights::WRITE, 0);
        let req = InvokeRequest::with_body(&b"args"[..])
            .input(r1.clone())
            .output(r2.clone());
        assert_eq!(&req.body[..], b"args");
        assert_eq!(req.inputs, vec![r1]);
        assert_eq!(req.outputs, vec![r2]);
    }
}
