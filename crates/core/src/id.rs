//! Object and principal identifiers.
//!
//! PCSI has no global namespace (§3.2): objects are identified by flat,
//! unguessable 128-bit ids and reached through references or per-function
//! directory roots. Ids are minted by the kernel from a deterministic
//! counter mixed with the simulation seed, so runs are reproducible while
//! ids remain structurally unguessable to application code.

use std::fmt;

/// A 128-bit object identifier.
///
/// # Examples
///
/// ```
/// use pcsi_core::ObjectId;
///
/// let a = ObjectId::from_parts(1, 42);
/// let b = ObjectId::from_parts(1, 43);
/// assert_ne!(a, b);
/// assert_eq!(a.to_string().len(), 32);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u128);

impl ObjectId {
    /// The nil id, never assigned to a real object.
    pub const NIL: ObjectId = ObjectId(0);

    /// Builds an id from a `(realm, serial)` pair.
    ///
    /// The realm is typically a hash of the simulation seed plus tenant;
    /// the serial is a kernel counter. The pair is mixed so ids do not
    /// reveal allocation order (mirroring how providers avoid hot-spotting
    /// on sequential keys).
    pub fn from_parts(realm: u64, serial: u64) -> ObjectId {
        // Feistel-style mix of the serial so consecutive serials land far
        // apart, keyed by the realm.
        let mixed = mix(serial ^ realm.rotate_left(17));
        ObjectId((u128::from(realm) << 64) | u128::from(mixed))
    }

    /// Raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Rebuilds from a raw value (wire decoding).
    pub fn from_u128(v: u128) -> ObjectId {
        ObjectId(v)
    }
}

/// SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Short form for logs: realm dot low-32 of the mixed serial.
        write!(f, "oid:{:x}.{:08x}", (self.0 >> 64) as u64, self.0 as u32)
    }
}

/// A monotonically increasing id allocator for one kernel instance.
#[derive(Debug)]
pub struct IdAllocator {
    realm: u64,
    next_serial: u64,
}

impl IdAllocator {
    /// Creates an allocator for a realm (derived from the simulation seed).
    pub fn new(realm: u64) -> Self {
        IdAllocator {
            realm,
            next_serial: 1,
        }
    }

    /// Mints a fresh id; never returns [`ObjectId::NIL`].
    pub fn alloc(&mut self) -> ObjectId {
        let id = ObjectId::from_parts(self.realm, self.next_serial);
        self.next_serial += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn allocator_yields_unique_nonnil_ids() {
        let mut alloc = IdAllocator::new(7);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let id = alloc.alloc();
            assert_ne!(id, ObjectId::NIL);
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    #[test]
    fn ids_are_not_sequential() {
        let mut alloc = IdAllocator::new(7);
        let a = alloc.alloc().as_u128();
        let b = alloc.alloc().as_u128();
        assert!(a.abs_diff(b) > 1_000_000, "ids look sequential");
    }

    #[test]
    fn realms_do_not_collide() {
        let a = ObjectId::from_parts(1, 5);
        let b = ObjectId::from_parts(2, 5);
        assert_ne!(a, b);
    }

    #[test]
    fn display_and_roundtrip() {
        let id = ObjectId::from_parts(3, 9);
        assert_eq!(ObjectId::from_u128(id.as_u128()), id);
        assert_eq!(id.to_string().len(), 32);
        assert!(format!("{id:?}").starts_with("oid:"));
    }

    #[test]
    fn determinism_across_allocators() {
        let mut a = IdAllocator::new(11);
        let mut b = IdAllocator::new(11);
        for _ in 0..100 {
            assert_eq!(a.alloc(), b.alloc());
        }
    }
}
