//! Object kinds and metadata.
//!
//! §3.2: "Objects in PCSI comprise several basic types including
//! directories, regular files, FIFOs, sockets, and device interfaces to
//! system services. This is analogous to POSIX, though the behaviors of
//! each object type are somewhat different."

use std::fmt;

use crate::consistency::Consistency;
use crate::mutability::Mutability;

/// The basic object types of the state layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A name → reference map; the unit of namespace composition.
    Directory,
    /// A byte array (the common case; data, code images, models).
    Regular,
    /// A first-in-first-out pipe between functions (Figure 2's
    /// post-processing hand-off).
    Fifo,
    /// A connection endpoint (Figure 2's TCP object).
    Socket,
    /// A device interface to a system service, named by service class
    /// (e.g. `"metrics"`, `"invoker"`, `"clock"`).
    Device(String),
    /// An invocable function image. Functions are stored as objects in the
    /// data layer (§3.1) and invoked through references carrying
    /// [`crate::Rights::INVOKE`].
    Function,
}

impl ObjectKind {
    /// Short kind name for errors and listings.
    pub fn name(&self) -> &'static str {
        match self {
            ObjectKind::Directory => "directory",
            ObjectKind::Regular => "regular",
            ObjectKind::Fifo => "fifo",
            ObjectKind::Socket => "socket",
            ObjectKind::Device(_) => "device",
            ObjectKind::Function => "function",
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectKind::Device(class) => write!(f, "device({class})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Metadata returned by `stat`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectMeta {
    /// The object's kind.
    pub kind: ObjectKind,
    /// Current mutability level.
    pub mutability: Mutability,
    /// Configured consistency level.
    pub consistency: Consistency,
    /// Logical size in bytes (entry count for directories and FIFOs).
    pub size: u64,
    /// Monotone version counter, bumped by every mutation.
    pub version: u64,
    /// Creation time, nanoseconds of simulated time.
    pub(crate) created_at_ns: u64,
    /// Revocation generation (references from older generations are dead).
    pub generation: u32,
}

impl ObjectMeta {
    /// Fresh metadata for a newly created object.
    pub fn new(
        kind: ObjectKind,
        mutability: Mutability,
        consistency: Consistency,
        created_at_ns: u64,
    ) -> Self {
        ObjectMeta {
            kind,
            mutability,
            consistency,
            size: 0,
            version: 0,
            created_at_ns,
            generation: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_display() {
        assert_eq!(ObjectKind::Directory.name(), "directory");
        assert_eq!(
            ObjectKind::Device("metrics".into()).to_string(),
            "device(metrics)"
        );
        assert_eq!(ObjectKind::Fifo.to_string(), "fifo");
    }

    #[test]
    fn fresh_meta_defaults() {
        let m = ObjectMeta::new(
            ObjectKind::Regular,
            Mutability::Mutable,
            Consistency::Eventual,
            123,
        );
        assert_eq!(m.size, 0);
        assert_eq!(m.version, 0);
        assert_eq!(m.generation, 0);
        assert_eq!(m.created_at_ns, 123);
    }
}
