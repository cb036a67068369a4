//! Union file systems (§3.2).
//!
//! "File system layering has proven valuable in building cloud
//! applications ... PCSI will include support for union file systems,
//! allowing one namespace to be superimposed on top of another."
//!
//! A [`UnionDir`] stacks directory layers, topmost first. Lookup walks
//! layers top-down; a whiteout entry in a higher layer hides the name in
//! all lower layers. Listing merges all layers with the same precedence
//! rule. Writes (link/unlink) go to the top layer only — lower layers are
//! typically shared, read-only base images.

use pcsi_core::PcsiError;

use crate::dir::{DirEntry, Directory};

/// A stack of directory layers, index 0 on top.
#[derive(Debug, Clone, Default)]
pub struct UnionDir {
    layers: Vec<Directory>,
}

impl UnionDir {
    /// Creates a union from layers, topmost first.
    pub fn new(layers: Vec<Directory>) -> Self {
        UnionDir { layers }
    }

    /// A union with a single empty writable layer above `base`.
    pub fn over(base: Directory) -> Self {
        UnionDir {
            layers: vec![Directory::new(), base],
        }
    }

    /// Resolves `name` through the layers.
    ///
    /// Returns `None` if absent or hidden by a whiteout.
    pub fn get(&self, name: &str) -> Option<&DirEntry> {
        for layer in &self.layers {
            if let Some(e) = layer.get(name) {
                return if e.whiteout { None } else { Some(e) };
            }
        }
        None
    }

    /// Merged listing: visible names in sorted order.
    pub fn names(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut hidden: Vec<&str> = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for layer in &self.layers {
            for (name, e) in layer.iter() {
                if seen.contains(&name) || hidden.contains(&name) {
                    continue;
                }
                if e.whiteout {
                    hidden.push(name);
                } else {
                    seen.push(name);
                    out.push(name.to_owned());
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Links into the top layer (replacing any top-layer entry, including
    /// whiteouts — re-creating a deleted name works).
    pub fn link(&mut self, name: &str, entry: DirEntry) -> Result<(), PcsiError> {
        if self.get(name).is_some() {
            return Err(PcsiError::AlreadyExists(name.to_owned()));
        }
        self.layers
            .first_mut()
            .ok_or_else(|| PcsiError::BadPayload("union has no layers".into()))?
            .relink(name, entry)
    }

    /// Unlinks a visible name.
    ///
    /// If the name exists only in a lower layer, a whiteout is written to
    /// the top layer; if it exists in the top layer it is removed there
    /// (plus a whiteout if a lower layer would otherwise re-expose it).
    pub fn unlink(&mut self, name: &str) -> Result<(), PcsiError> {
        if self.get(name).is_none() {
            return Err(PcsiError::NameNotFound(name.to_owned()));
        }
        let in_lower = self.layers[1..]
            .iter()
            .any(|l| l.get(name).map(|e| !e.whiteout).unwrap_or(false));
        let top = self
            .layers
            .first_mut()
            .ok_or_else(|| PcsiError::BadPayload("union has no layers".into()))?;
        if in_lower {
            top.relink(name, DirEntry::whiteout())
        } else {
            top.unlink(name).map(|_| ())
        }
    }

    /// Consumes the union, returning the (possibly modified) top layer
    /// for persistence.
    pub fn into_top(mut self) -> Directory {
        if self.layers.is_empty() {
            Directory::new()
        } else {
            self.layers.swap_remove(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_core::{ObjectId, Rights};

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_parts(9, n)
    }

    fn entry(n: u64) -> DirEntry {
        DirEntry::new(oid(n), Rights::READ)
    }

    fn base() -> Directory {
        let mut d = Directory::new();
        d.link("lib", entry(1)).unwrap();
        d.link("etc", entry(2)).unwrap();
        d
    }

    #[test]
    fn upper_layer_shadows_lower() {
        let mut top = Directory::new();
        top.link("lib", entry(10)).unwrap();
        let u = UnionDir::new(vec![top, base()]);
        assert_eq!(u.get("lib").unwrap().id, oid(10));
        assert_eq!(u.get("etc").unwrap().id, oid(2));
        assert!(u.get("missing").is_none());
    }

    #[test]
    fn whiteout_hides_lower_entry() {
        let mut u = UnionDir::over(base());
        u.unlink("lib").unwrap();
        assert!(u.get("lib").is_none());
        assert_eq!(u.names(), vec!["etc"]);
        // The base layer is untouched.
        assert_eq!(u.layers[1].get("lib").unwrap().id, oid(1));
        // Unlinking again reports not-found.
        assert!(matches!(u.unlink("lib"), Err(PcsiError::NameNotFound(_))));
    }

    #[test]
    fn recreate_after_whiteout() {
        let mut u = UnionDir::over(base());
        u.unlink("lib").unwrap();
        u.link("lib", entry(42)).unwrap();
        assert_eq!(u.get("lib").unwrap().id, oid(42));
        assert_eq!(u.names(), vec!["etc", "lib"]);
    }

    #[test]
    fn link_conflicts_with_visible_entry() {
        let mut u = UnionDir::over(base());
        assert!(matches!(
            u.link("etc", entry(9)),
            Err(PcsiError::AlreadyExists(_))
        ));
    }

    #[test]
    fn unlink_top_only_entry_removes_without_whiteout() {
        let mut u = UnionDir::over(base());
        u.link("scratch", entry(7)).unwrap();
        u.unlink("scratch").unwrap();
        assert!(u.get("scratch").is_none());
        // No whiteout needed: nothing below to hide.
        assert!(u.into_top().get("scratch").is_none());
    }

    #[test]
    fn merged_listing_dedups_across_layers() {
        let mut mid = Directory::new();
        mid.link("lib", entry(20)).unwrap();
        mid.link("bin", entry(21)).unwrap();
        let u = UnionDir::new(vec![Directory::new(), mid, base()]);
        assert_eq!(u.names(), vec!["bin", "etc", "lib"]);
        assert_eq!(u.get("lib").unwrap().id, oid(20)); // Middle wins over base.
    }

    #[test]
    fn three_layer_whiteout_in_middle() {
        let mut mid = Directory::new();
        mid.relink("lib", DirEntry::whiteout()).unwrap();
        let u = UnionDir::new(vec![Directory::new(), mid, base()]);
        assert!(u.get("lib").is_none());
        assert_eq!(u.names(), vec!["etc"]);
    }

    #[test]
    fn into_top_persists_mutations() {
        let mut u = UnionDir::over(base());
        u.unlink("lib").unwrap();
        u.link("new", entry(3)).unwrap();
        let top = u.into_top();
        assert!(top.get("lib").unwrap().whiteout);
        assert_eq!(top.get("new").unwrap().id, oid(3));
    }
}
