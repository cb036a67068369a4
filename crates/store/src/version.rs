//! Write ordering: tags and version vectors.
//!
//! Every committed mutation of an object carries a [`Tag`] — a Lamport
//!-style `(sequence, writer)` pair totally ordered so replicas agree on
//! the newest state during quorum reads and anti-entropy. A
//! [`VersionVector`] summarizes, per writer, the highest sequence a
//! replica has seen; anti-entropy diffs two vectors to decide what to
//! ship.

use std::collections::BTreeMap;
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

/// Per-writer high-water marks, used by anti-entropy.
///
/// # Examples
///
/// ```
/// use pcsi_store::{Tag, VersionVector};
///
/// let mut a = VersionVector::new();
/// a.observe(Tag { seq: 3, writer: 1 });
/// let mut b = VersionVector::new();
/// b.observe(Tag { seq: 1, writer: 1 });
/// assert!(a.dominates(&b));
/// assert!(!b.dominates(&a));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VersionVector {
    marks: BTreeMap<u32, u64>,
}

impl VersionVector {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a write with `tag` has been applied.
    pub fn observe(&mut self, tag: Tag) {
        let e = self.marks.entry(tag.writer).or_insert(0);
        *e = (*e).max(tag.seq);
    }

    /// Highest sequence seen from `writer`.
    pub(crate) fn get(&self, writer: u32) -> u64 {
        self.marks.get(&writer).copied().unwrap_or(0)
    }

    /// True if `self` has seen everything `other` has.
    pub fn dominates(&self, other: &VersionVector) -> bool {
        other.marks.iter().all(|(w, s)| self.get(*w) >= *s)
    }

    /// Pointwise maximum (merge after sync).
    pub fn merge(&mut self, other: &VersionVector) {
        for (w, s) in &other.marks {
            let e = self.marks.entry(*w).or_insert(0);
            *e = (*e).max(*s);
        }
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

    #[test]
    fn vector_observe_and_get() {
        let mut v = VersionVector::new();
        v.observe(Tag { seq: 5, writer: 2 });
        v.observe(Tag { seq: 3, writer: 2 }); // Lower: ignored.
        assert_eq!(v.get(2), 5);
        assert_eq!(v.get(9), 0);
    }

    #[test]
    fn dominance_and_concurrency() {
        let mut a = VersionVector::new();
        let mut b = VersionVector::new();
        a.observe(Tag { seq: 2, writer: 1 });
        b.observe(Tag { seq: 1, writer: 1 });
        assert!(a.dominates(&b));
        b.observe(Tag { seq: 4, writer: 2 });
        assert!(!a.dominates(&b) && !b.dominates(&a));
        a.merge(&b);
        assert!(a.dominates(&b));
        assert_eq!(a.get(1), 2);
        assert_eq!(a.get(2), 4);
    }

    #[test]
    fn empty_vector_is_dominated_by_all() {
        let empty = VersionVector::new();
        let mut v = VersionVector::new();
        v.observe(Tag { seq: 1, writer: 1 });
        assert!(v.dominates(&empty));
        assert!(empty.dominates(&empty));
    }
}
