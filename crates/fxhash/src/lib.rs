//! Vendored offline subset of the FxHash API.
//!
//! A multiply-and-rotate hasher in the style of the one rustc uses for
//! its interning tables. Two properties matter for this workspace:
//!
//! * **Fast on small keys.** The simulator's hot maps are keyed by
//!   `u64`/`u128` ids, node ids, and short service-name strings; Fx
//!   hashes those in a handful of cycles where SipHash-1-3 burns
//!   dozens.
//! * **Deterministic.** `std::collections::HashMap`'s default
//!   `RandomState` seeds differently per map instance; Fx has no seed
//!   at all, so hashes — and therefore map iteration order — are
//!   identical across runs and across maps. The repository's
//!   determinism suite does not *rely* on iteration order anywhere
//!   (it already passes under per-instance random seeding), but a
//!   fixed hasher removes the hazard class outright.
//!
//! Not DoS-resistant; never use it for keys an adversary controls. In
//! a closed-world simulation every key is our own, so that trade is
//! free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from rustc's `FxHasher` (a 64-bit golden-ratio-like
/// constant with good bit dispersion under multiplication).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A fast, deterministic, non-cryptographic hasher.
///
/// Implements the classic Fx mix: for each word of input,
/// `hash = (hash rotl 5) ^ word, then hash *= K`.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (chunk, rest) = bytes.split_at(8);
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
            bytes = rest;
        }
        if bytes.len() >= 4 {
            let (chunk, rest) = bytes.split_at(4);
            self.add_to_hash(u64::from(u32::from_le_bytes(chunk.try_into().unwrap())));
            bytes = rest;
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`HashMap`] using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
        assert_eq!(hash_of(&"service-name"), hash_of(&"service-name"));
        assert_eq!(hash_of(&(7u64, 9u32)), hash_of(&(7u64, 9u32)));
    }

    #[test]
    fn distinct_keys_disperse() {
        // Sanity, not a statistical test: nearby integers should not
        // collide and should differ in high bits (bucket selection
        // uses the top bits in hashbrown).
        let mut full = std::collections::HashSet::new();
        let mut high = std::collections::HashSet::new();
        for i in 0u64..1_000 {
            assert!(full.insert(hash_of(&i)), "collision at {i}");
            high.insert(hash_of(&i) >> 48);
        }
        // Sequential ints hash to multiples of K, whose top bits show
        // some lattice structure — hundreds of distinct values is
        // plenty; a broken mix would collapse to a handful.
        assert!(high.len() > 500, "high bits barely move: {}", high.len());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<String, u64> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
    }

    #[test]
    fn byte_stream_matches_wordwise_tail_handling() {
        // 8-, 4-, and sub-4-byte tails all mix; unequal inputs that
        // share a prefix must diverge.
        let a = hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13][..]);
        let b = hash_of(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14][..]);
        assert_ne!(a, b);
    }
}
