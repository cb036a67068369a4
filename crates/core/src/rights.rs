//! Rights carried by capability references.
//!
//! Modeled after Capsicum's file-descriptor capabilities (cited in §3.2):
//! a reference bundles an object id with the set of operations the holder
//! may perform. Rights can only ever shrink along a delegation chain —
//! [`Rights::is_subset_of`] is the check [`crate::Reference::attenuate`]
//! enforces.

use std::fmt;
use std::ops::{BitAnd, BitOr};

/// A bitset of operations permitted through a reference.
///
/// # Examples
///
/// ```
/// use pcsi_core::Rights;
///
/// let rw = Rights::READ | Rights::WRITE;
/// assert!(rw.contains(Rights::READ));
/// assert!(!rw.contains(Rights::INVOKE));
/// assert!(Rights::READ.is_subset_of(rw));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rights(u8);

impl Rights {
    /// No operations.
    pub const NONE: Rights = Rights(0);
    /// Read object data and metadata.
    pub const READ: Rights = Rights(1 << 0);
    /// Overwrite object data (subject to the mutability level).
    pub const WRITE: Rights = Rights(1 << 1);
    /// Append to the object (meaningful for `APPEND_ONLY` and FIFOs).
    pub const APPEND: Rights = Rights(1 << 2);
    /// Invoke the object as a function.
    pub const INVOKE: Rights = Rights(1 << 3);
    /// Change mutability level, consistency config, or delete.
    pub const MANAGE: Rights = Rights(1 << 4);
    /// Mint attenuated references for other principals.
    pub const GRANT: Rights = Rights(1 << 5);
    /// Everything.
    pub const ALL: Rights = Rights(0b11_1111);

    /// True if every right in `other` is present in `self`.
    pub fn contains(self, other: Rights) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if `self` is a (non-strict) subset of `other`.
    pub fn is_subset_of(self, other: Rights) -> bool {
        other.contains(self)
    }

    /// Intersection of two rights sets.
    pub fn intersect(self, other: Rights) -> Rights {
        Rights(self.0 & other.0)
    }

    /// Raw bits, for wire encoding.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds from raw bits, masking unknown bits away.
    pub fn from_bits(bits: u8) -> Rights {
        Rights(bits & Rights::ALL.0)
    }
}

impl BitOr for Rights {
    type Output = Rights;

    fn bitor(self, rhs: Rights) -> Rights {
        Rights(self.0 | rhs.0)
    }
}

impl BitAnd for Rights {
    type Output = Rights;

    fn bitand(self, rhs: Rights) -> Rights {
        Rights(self.0 & rhs.0)
    }
}

impl fmt::Debug for Rights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        for (bit, name) in [
            (Rights::READ, "READ"),
            (Rights::WRITE, "WRITE"),
            (Rights::APPEND, "APPEND"),
            (Rights::INVOKE, "INVOKE"),
            (Rights::MANAGE, "MANAGE"),
            (Rights::GRANT, "GRANT"),
        ] {
            if self.contains(bit) {
                names.push(name);
            }
        }
        if names.is_empty() {
            f.write_str("NONE")
        } else {
            f.write_str(&names.join("|"))
        }
    }
}

impl fmt::Display for Rights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_subset() {
        let rw = Rights::READ | Rights::WRITE;
        assert!(rw.contains(Rights::READ));
        assert!(rw.contains(Rights::WRITE));
        assert!(rw.contains(rw));
        assert!(!rw.contains(Rights::ALL));
        assert!(Rights::NONE.is_subset_of(rw));
        assert!(rw.is_subset_of(Rights::ALL));
        assert!(!Rights::ALL.is_subset_of(rw));
    }

    #[test]
    fn intersect_shrinks() {
        let a = Rights::READ | Rights::WRITE | Rights::GRANT;
        let b = Rights::WRITE | Rights::INVOKE;
        assert_eq!(a.intersect(b), Rights::WRITE);
        assert_eq!((a & b), Rights::WRITE);
    }

    #[test]
    fn bits_roundtrip_and_mask() {
        assert_eq!(Rights::from_bits(Rights::ALL.bits()), Rights::ALL);
        // Unknown high bits are dropped.
        assert_eq!(Rights::from_bits(0xFF), Rights::ALL);
        assert_eq!(Rights::from_bits(0), Rights::NONE);
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", Rights::NONE), "NONE");
        assert_eq!(format!("{:?}", Rights::READ | Rights::GRANT), "READ|GRANT");
    }
}
