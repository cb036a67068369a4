//! Path validation and splitting.
//!
//! Paths in PCSI are always relative to a directory object the caller
//! holds; there is no global root and no upward traversal. Resolution is
//! performed step-by-step by the kernel (each step may fetch a directory
//! object over the network), so this module only handles the lexical
//! part.

use pcsi_core::PcsiError;

use crate::dir::Directory;

/// Splits a path into validated segments.
///
/// Rules: `/` separates segments; empty segments (leading, trailing or
/// doubled slashes) are ignored; `.` segments are dropped; `..` is
/// rejected (capability discipline: a namespace cannot reach above its
/// root); every remaining segment must be a valid entry name.
///
/// # Examples
///
/// ```
/// use pcsi_fs::path::split;
///
/// assert_eq!(split("a/b/c").unwrap(), vec!["a", "b", "c"]);
/// assert_eq!(split("./a//b/").unwrap(), vec!["a", "b"]);
/// assert!(split("a/../b").is_err());
/// assert_eq!(split("").unwrap(), Vec::<String>::new());
/// ```
pub fn split(path: &str) -> Result<Vec<String>, PcsiError> {
    let mut out = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => continue,
            ".." => {
                return Err(PcsiError::BadPayload(
                    "'..' traversal is not allowed in PCSI paths".into(),
                ))
            }
            name => {
                Directory::validate_name(name)?;
                out.push(name.to_owned());
            }
        }
    }
    Ok(out)
}

/// Joins segments back into a canonical path.
pub fn join(segments: &[String]) -> String {
    segments.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(split("a/b").unwrap(), vec!["a", "b"]);
        assert_eq!(split("/a/b/").unwrap(), vec!["a", "b"]);
        assert_eq!(split("a///b").unwrap(), vec!["a", "b"]);
        assert_eq!(split("././a").unwrap(), vec!["a"]);
        assert!(split("..").is_err());
        assert!(split("ok/../nope").is_err());
    }

    #[test]
    fn empty_and_dot_paths_resolve_to_self() {
        assert!(split("").unwrap().is_empty());
        assert!(split(".").unwrap().is_empty());
        assert!(split("///").unwrap().is_empty());
    }

    #[test]
    fn join_roundtrip() {
        let segs = split("x/y/z").unwrap();
        assert_eq!(join(&segs), "x/y/z");
    }
}
