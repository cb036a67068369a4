//! Directory objects.
//!
//! A directory is a sorted name → entry map. Each entry records the target
//! object *and the rights the name conveys*: looking a name up yields a
//! reference attenuated to those rights, which is how namespaces delegate
//! capabilities (§3.2 — an object is accessible to whoever holds a
//! reference *or a namespace containing it*).
//!
//! Directories serialize to a compact byte format so they live in the
//! replicated store like any other object.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use pcsi_core::{ObjectId, PcsiError, Rights};
use pcsi_proto::binary::{DecodeError, Prefix, Reader, Writer};

/// One directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// Target object.
    pub id: ObjectId,
    /// Rights conveyed by resolving this name.
    pub rights: Rights,
    /// Whiteout marker: in a union upper layer, hides a lower entry.
    pub whiteout: bool,
}

impl DirEntry {
    /// A normal entry.
    pub fn new(id: ObjectId, rights: Rights) -> Self {
        DirEntry {
            id,
            rights,
            whiteout: false,
        }
    }

    /// A whiteout entry (hides `name` in lower union layers).
    pub fn whiteout() -> Self {
        DirEntry {
            id: ObjectId::NIL,
            rights: Rights::NONE,
            whiteout: true,
        }
    }
}

/// A directory: deterministic, serializable name → entry map.
///
/// # Examples
///
/// ```
/// use pcsi_fs::{Directory, DirEntry};
/// use pcsi_core::{ObjectId, Rights};
///
/// let mut d = Directory::new();
/// d.link("weights", DirEntry::new(ObjectId::from_parts(1, 1), Rights::READ)).unwrap();
/// let bytes = d.encode();
/// let d2 = Directory::decode(&bytes).unwrap();
/// assert_eq!(d2.get("weights").unwrap().rights, Rights::READ);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Directory {
    entries: BTreeMap<String, DirEntry>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates an entry name: non-empty, no `/`, not `.` or `..`, and
    /// at most 255 bytes.
    pub(crate) fn validate_name(name: &str) -> Result<(), PcsiError> {
        if name.is_empty() || name == "." || name == ".." {
            return Err(PcsiError::BadPayload(format!(
                "invalid directory entry name {name:?}"
            )));
        }
        if name.contains('/') {
            return Err(PcsiError::BadPayload(format!(
                "entry name {name:?} contains '/'"
            )));
        }
        if name.len() > 255 {
            return Err(PcsiError::BadPayload("entry name too long".into()));
        }
        Ok(())
    }

    /// Adds an entry; fails if the name exists (use [`Directory::relink`]
    /// to replace).
    pub fn link(&mut self, name: &str, entry: DirEntry) -> Result<(), PcsiError> {
        Self::validate_name(name)?;
        if self.entries.contains_key(name) {
            return Err(PcsiError::AlreadyExists(name.to_owned()));
        }
        self.entries.insert(name.to_owned(), entry);
        Ok(())
    }

    /// Adds or replaces an entry.
    pub fn relink(&mut self, name: &str, entry: DirEntry) -> Result<(), PcsiError> {
        Self::validate_name(name)?;
        self.entries.insert(name.to_owned(), entry);
        Ok(())
    }

    /// Removes an entry.
    pub fn unlink(&mut self, name: &str) -> Result<DirEntry, PcsiError> {
        self.entries
            .remove(name)
            .ok_or_else(|| PcsiError::NameNotFound(name.to_owned()))
    }

    /// Looks an entry up.
    pub fn get(&self, name: &str) -> Option<&DirEntry> {
        self.entries.get(name)
    }

    /// Entry names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Iterates `(name, entry)` in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DirEntry)> {
        self.entries.iter().map(|(n, e)| (n.as_str(), e))
    }

    /// Ids of all non-whiteout targets (GC edge set).
    pub fn target_ids(&self) -> Vec<ObjectId> {
        self.entries
            .values()
            .filter(|e| !e.whiteout)
            .map(|e| e.id)
            .collect()
    }

    /// Serializes to bytes.
    ///
    /// Format per entry: `u16 name_len | name | u128 id | u8 rights |
    /// u8 flags`, preceded by a `u32` entry count.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(16 + self.entries.len() * 32);
        w.count(Prefix::U32, self.entries.len());
        for (name, e) in &self.entries {
            w.str(Prefix::U16, name);
            w.u128(e.id.as_u128());
            w.u8(e.rights.bits());
            w.u8(u8::from(e.whiteout));
        }
        w.finish()
    }

    /// Deserializes from bytes produced by [`Directory::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Directory, PcsiError> {
        let mut entries = BTreeMap::new();
        Self::scan(bytes, |name, entry| {
            entries.insert(name.to_owned(), entry);
        })
        .map_err(bad_frame)?;
        Ok(Directory { entries })
    }

    /// The entry `name` has in the encoded directory `bytes`: what
    /// `decode(bytes)?.get(name)` returns, error for error, read off the
    /// frame without building the map. The whole frame is validated, and
    /// of two entries under one name the later one counts, as it does in
    /// the map.
    pub fn find(bytes: &[u8], name: &str) -> Result<Option<DirEntry>, PcsiError> {
        let mut found = None;
        Self::scan(bytes, |entry_name, entry| {
            if entry_name == name {
                found = Some(entry);
            }
        })
        .map_err(bad_frame)?;
        Ok(found)
    }

    /// Walks the entries of an encoded directory in frame order.
    fn scan(bytes: &[u8], mut visit: impl FnMut(&str, DirEntry)) -> Result<(), DecodeError> {
        let mut r = Reader::over(bytes);
        // An entry is at least an empty name, the id and the two flags.
        for _ in 0..r.count(Prefix::U32, 2 + 16 + 2)? {
            let len = r.count(Prefix::U16, 1)?;
            let name = std::str::from_utf8(r.take(len)?).map_err(|_| DecodeError::BadUtf8)?;
            let entry = DirEntry {
                id: ObjectId::from_u128(r.u128()?),
                rights: Rights::from_bits(r.u8()?),
                whiteout: r.u8()? != 0,
            };
            visit(name, entry);
        }
        r.finish()
    }
}

fn bad_frame(e: DecodeError) -> PcsiError {
    PcsiError::BadPayload(format!("directory decode: {e}"))
}

impl fmt::Display for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dir[{} entries]", self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_parts(8, n)
    }

    #[test]
    fn link_get_unlink() {
        let mut d = Directory::new();
        d.link("a", DirEntry::new(oid(1), Rights::READ)).unwrap();
        assert_eq!(d.get("a").unwrap().id, oid(1));
        assert!(matches!(
            d.link("a", DirEntry::new(oid(2), Rights::READ)),
            Err(PcsiError::AlreadyExists(_))
        ));
        d.relink("a", DirEntry::new(oid(2), Rights::ALL)).unwrap();
        assert_eq!(d.get("a").unwrap().id, oid(2));
        d.unlink("a").unwrap();
        assert!(matches!(d.unlink("a"), Err(PcsiError::NameNotFound(_))));
        assert!(d.names().is_empty());
    }

    #[test]
    fn names_rejected() {
        let mut d = Directory::new();
        for bad in ["", ".", "..", "a/b"] {
            assert!(
                d.link(bad, DirEntry::new(oid(1), Rights::READ)).is_err(),
                "{bad:?} accepted"
            );
        }
        let long = "x".repeat(256);
        assert!(d.link(&long, DirEntry::new(oid(1), Rights::READ)).is_err());
        let ok = "x".repeat(255);
        assert!(d.link(&ok, DirEntry::new(oid(1), Rights::READ)).is_ok());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut d = Directory::new();
        d.link("weights", DirEntry::new(oid(1), Rights::READ))
            .unwrap();
        d.link(
            "uploads",
            DirEntry::new(oid(2), Rights::READ | Rights::APPEND),
        )
        .unwrap();
        d.link("münchen", DirEntry::new(oid(3), Rights::ALL))
            .unwrap();
        d.relink("hidden", DirEntry::whiteout()).unwrap();
        let decoded = Directory::decode(&d.encode()).unwrap();
        assert_eq!(decoded, d);
        assert!(decoded.get("hidden").unwrap().whiteout);
    }

    /// The stored bytes of a three-entry directory, one a whiteout, as
    /// the parent of the shared cursor wrote them; and the same bytes
    /// claiming 2^32 - 1 entries.
    #[test]
    fn a_directory_encodes_to_the_pinned_bytes_and_a_forged_count_is_refused() {
        let mut d = Directory::new();
        d.link("weights", DirEntry::new(oid(1), Rights::READ))
            .unwrap();
        d.link(
            "uploads",
            DirEntry::new(oid(2), Rights::READ | Rights::APPEND),
        )
        .unwrap();
        d.relink("hidden", DirEntry::whiteout()).unwrap();
        let wire = d.encode();
        assert_eq!(
            pcsi_proto::hash::hex(&wire),
            "03000000060068696464656e000000000000000000000000000000000001070075706c6f616473bf48\
             0c5d89f0566008000000000000000500070077656967687473777ffec2f7784af60800000000000000\
             0100"
        );
        let mut forged = wire.to_vec();
        forged[..4].fill(0xFF);
        assert!(Directory::decode(&forged).is_err());
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut d = Directory::new();
        d.link("a", DirEntry::new(oid(1), Rights::READ)).unwrap();
        let wire = d.encode();
        for cut in 1..wire.len() {
            assert!(Directory::decode(&wire[..cut]).is_err(), "cut {cut}");
            assert!(Directory::find(&wire[..cut], "a").is_err(), "cut {cut}");
        }
        let mut extra = wire.to_vec();
        extra.push(0);
        assert!(Directory::decode(&extra).is_err());
        // The name is found before the stray byte is: refused all the same.
        assert!(Directory::find(&extra, "a").is_err());
        assert!(Directory::decode(&[]).is_err());
    }

    #[test]
    fn find_reads_one_entry_and_the_later_of_two_wins() {
        let mut d = Directory::new();
        d.link("a", DirEntry::new(oid(1), Rights::READ)).unwrap();
        d.relink("gone", DirEntry::whiteout()).unwrap();
        let wire = d.encode();
        assert_eq!(Directory::find(&wire, "a").unwrap(), d.get("a").copied());
        assert!(Directory::find(&wire, "gone").unwrap().unwrap().whiteout);
        assert_eq!(Directory::find(&wire, "b").unwrap(), None);

        // `encode` never repeats a name; a frame that does decodes to
        // the map's last insert.
        let mut w = Writer::with_capacity(64);
        w.count(Prefix::U32, 2);
        for (id, rights) in [(oid(1), Rights::READ), (oid(2), Rights::ALL)] {
            w.str(Prefix::U16, "a");
            w.u128(id.as_u128());
            w.u8(rights.bits());
            w.u8(0);
        }
        let twice = w.finish();
        let later = DirEntry::new(oid(2), Rights::ALL);
        assert_eq!(Directory::find(&twice, "a").unwrap(), Some(later));
        assert_eq!(Directory::decode(&twice).unwrap().get("a"), Some(&later));
    }

    #[test]
    fn empty_roundtrip() {
        let d = Directory::new();
        assert_eq!(Directory::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn target_ids_skip_whiteouts() {
        let mut d = Directory::new();
        d.link("a", DirEntry::new(oid(1), Rights::READ)).unwrap();
        d.relink("gone", DirEntry::whiteout()).unwrap();
        assert_eq!(d.target_ids(), vec![oid(1)]);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut d = Directory::new();
        for name in ["zeta", "alpha", "mid"] {
            d.link(name, DirEntry::new(oid(1), Rights::READ)).unwrap();
        }
        assert_eq!(d.names(), vec!["alpha", "mid", "zeta"]);
    }
}
