//! Write ordering: tags.
//!
//! Every committed mutation of an object carries a [`Tag`] — a Lamport
//!-style `(sequence, writer)` pair totally ordered so replicas agree on
//! the newest state during quorum reads and anti-entropy, which compares
//! per-object `(id, tag)` inventories and pulls what is newer.

use std::fmt;

/// A totally ordered write tag.
///
/// Ordering is `(seq, writer)` lexicographic: higher sequence wins;
/// equal sequences break ties by writer id (deterministic last-writer-wins
/// for concurrent eventual writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag {
    /// Logical sequence number.
    pub seq: u64,
    /// Id of the node that coordinated the write.
    pub writer: u32,
}

impl Tag {
    /// The zero tag (object never written).
    pub(crate) const ZERO: Tag = Tag { seq: 0, writer: 0 };

    /// The successor tag minted by `writer`.
    pub fn next(self, writer: u32) -> Tag {
        Tag {
            seq: self.seq + 1,
            writer,
        }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.seq, self.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_total_order() {
        let a = Tag { seq: 1, writer: 5 };
        let b = Tag { seq: 2, writer: 1 };
        let c = Tag { seq: 2, writer: 3 };
        assert!(a < b);
        assert!(b < c); // Tie on seq broken by writer.
        assert_eq!(Tag::ZERO.next(7), Tag { seq: 1, writer: 7 });
    }
}
