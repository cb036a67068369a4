//! Mutability-aware node-local object caching.
//!
//! The Figure-1 lattice exists to make caching sound by construction
//! (§3.3): an `IMMUTABLE` object can be cached anywhere forever; once
//! written, the prefix of an `APPEND_ONLY` object is equally stable;
//! `MUTABLE`/`FIXED_SIZE` objects are never cached here because any copy
//! may be invalidated by a remote write. The cache needs no invalidation
//! protocol at all — that is the paper's point.
//!
//! Entries remember the [`Tag`] the bytes were served under, so cached
//! reads report the same version information a replica read would.

use std::collections::BTreeMap;

use bytes::Bytes;
use fxhash::FxHashMap;
use pcsi_core::{Mutability, ObjectId};
use pcsi_metrics::{Counter, Metrics};

use crate::version::Tag;

/// What the cache remembers about one object.
#[derive(Debug, Clone)]
enum Entry {
    /// The complete, immutable contents.
    Full {
        /// The bytes.
        data: Bytes,
        /// Tag the contents were served under.
        tag: Tag,
    },
    /// The stable prefix of an append-only object.
    Prefix {
        /// The stable bytes.
        data: Bytes,
        /// Tag the prefix was served under.
        tag: Tag,
    },
}

impl Entry {
    fn data(&self) -> &Bytes {
        match self {
            Entry::Full { data, .. } | Entry::Prefix { data, .. } => data,
        }
    }

    fn tag(&self) -> Tag {
        match self {
            Entry::Full { tag, .. } | Entry::Prefix { tag, .. } => *tag,
        }
    }
}

/// An LRU byte-budgeted cache for one node.
#[derive(Debug, Default)]
pub(crate) struct ObjectCache {
    capacity_bytes: usize,
    used_bytes: usize,
    entries: FxHashMap<ObjectId, (Entry, u64)>,
    /// Every entry's last-use stamp → its id. Stamps are unique, so the
    /// first key is the LRU victim, found without scanning `entries`.
    by_stamp: BTreeMap<u64, ObjectId>,
    clock: u64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl ObjectCache {
    /// A cache holding at most `capacity_bytes` of payload.
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        ObjectCache {
            capacity_bytes,
            ..ObjectCache::default()
        }
    }

    /// Cache hits so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses so far.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries evicted to stay within budget so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Publishes this cache's counters as per-node series on `metrics`.
    /// The registry binds the very cells the accessors above read, so
    /// the snapshot and `cache_stats()` can never disagree.
    pub(crate) fn publish_metrics(&self, metrics: &Metrics, node: &str) {
        let labels = [("node", node)];
        metrics.bind_counter("store.cache.hits", &labels, &self.hits);
        metrics.bind_counter("store.cache.misses", &labels, &self.misses);
        metrics.bind_counter("store.cache.evictions", &labels, &self.evictions);
    }

    /// Serves `[offset, offset + len)` if the cached bytes cover it,
    /// together with the tag the bytes were cached under.
    ///
    /// For a `Full` entry any in-bounds range is servable (out-of-bounds
    /// reads clamp like the store does). For a `Prefix` entry only ranges
    /// that end inside the stable prefix are servable — a read past the
    /// prefix might observe newer appends, so it must go to a replica.
    pub(crate) fn get(&mut self, id: ObjectId, offset: u64, len: u64) -> Option<(Tag, Bytes)> {
        self.clock += 1;
        let clock = self.clock;
        let result = match self.entries.get_mut(&id) {
            Some((entry, stamp)) => {
                self.by_stamp.remove(stamp);
                self.by_stamp.insert(clock, id);
                *stamp = clock;
                let data = entry.data();
                let end = offset.saturating_add(len);
                let served = match entry {
                    Entry::Full { .. } => {
                        let size = data.len() as u64;
                        let start = offset.min(size) as usize;
                        let stop = end.min(size) as usize;
                        Some(data.slice(start..stop))
                    }
                    Entry::Prefix { .. } => {
                        if end <= data.len() as u64 {
                            Some(data.slice(offset as usize..end as usize))
                        } else {
                            None
                        }
                    }
                };
                served.map(|b| (entry.tag(), b))
            }
            None => None,
        };
        match result {
            Some(hit) => {
                self.hits.incr();
                Some(hit)
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Offers fetched data (served under `tag`) to the cache.
    ///
    /// * `Immutable` + full contents → cached whole.
    /// * `AppendOnly` + a prefix of known-stable length → cached as a
    ///   prefix; a longer stable prefix replaces a shorter one.
    /// * Anything else → ignored.
    ///
    /// `data` must start at offset 0 (partial-range fills are not cached —
    /// keeping the index simple is worth more than partial hits here).
    pub(crate) fn admit(&mut self, id: ObjectId, mutability: Mutability, tag: Tag, data: Bytes) {
        let entry = match mutability {
            Mutability::Immutable => Entry::Full { data, tag },
            Mutability::AppendOnly => {
                // Keep the longer stable prefix.
                if let Some((Entry::Prefix { data: existing, .. }, _)) = self.entries.get(&id) {
                    if existing.len() >= data.len() {
                        return;
                    }
                }
                Entry::Prefix { data, tag }
            }
            Mutability::Mutable | Mutability::FixedSize => return,
        };
        let new_len = entry.data().len();
        if new_len > self.capacity_bytes {
            return; // Larger than the whole cache.
        }
        self.invalidate(id);
        self.used_bytes += new_len;
        self.clock += 1;
        self.entries.insert(id, (entry, self.clock));
        self.by_stamp.insert(self.clock, id);
        self.evict_to_fit();
    }

    /// Drops an object (used when a deletion is observed).
    pub(crate) fn invalidate(&mut self, id: ObjectId) {
        if let Some((old, stamp)) = self.entries.remove(&id) {
            self.used_bytes -= old.data().len();
            self.by_stamp.remove(&stamp);
        }
    }

    fn evict_to_fit(&mut self) {
        while self.used_bytes > self.capacity_bytes {
            let (_, &victim) = self
                .by_stamp
                .first_key_value()
                .expect("over budget implies non-empty");
            self.invalidate(victim);
            self.evictions.incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcsi_sim::rng::DetRng;

    fn oid(n: u64) -> ObjectId {
        ObjectId::from_parts(6, n)
    }

    fn tag(seq: u64) -> Tag {
        Tag { seq, writer: 0 }
    }

    #[test]
    fn immutable_objects_cache_and_hit() {
        let mut c = ObjectCache::new(1024);
        c.admit(
            oid(1),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"payload"),
        );
        let (t, data) = c.get(oid(1), 0, 7).unwrap();
        assert_eq!(&data[..], b"payload");
        assert_eq!(t, tag(1));
        assert_eq!(&c.get(oid(1), 3, 10).unwrap().1[..], b"load"); // Clamped.
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn mutable_objects_never_cache() {
        let mut c = ObjectCache::new(1024);
        c.admit(
            oid(1),
            Mutability::Mutable,
            tag(1),
            Bytes::from_static(b"x"),
        );
        c.admit(
            oid(2),
            Mutability::FixedSize,
            tag(1),
            Bytes::from_static(b"y"),
        );
        assert!(c.get(oid(1), 0, 1).is_none());
        assert!(c.get(oid(2), 0, 1).is_none());
        assert_eq!(c.used_bytes, 0);
    }

    #[test]
    fn append_only_prefix_semantics() {
        let mut c = ObjectCache::new(1024);
        c.admit(
            oid(1),
            Mutability::AppendOnly,
            tag(1),
            Bytes::from_static(b"12345"),
        );
        // Inside the stable prefix: hit.
        assert_eq!(&c.get(oid(1), 1, 3).unwrap().1[..], b"234");
        // Past the prefix: must miss (appends may have happened).
        assert!(c.get(oid(1), 3, 10).is_none());
        // A longer prefix replaces, a shorter one is ignored.
        c.admit(
            oid(1),
            Mutability::AppendOnly,
            tag(2),
            Bytes::from_static(b"1234567890"),
        );
        let (t, data) = c.get(oid(1), 5, 5).unwrap();
        assert_eq!(&data[..], b"67890");
        assert_eq!(t, tag(2));
        c.admit(
            oid(1),
            Mutability::AppendOnly,
            tag(3),
            Bytes::from_static(b"12"),
        );
        assert_eq!(&c.get(oid(1), 5, 5).unwrap().1[..], b"67890");
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let mut c = ObjectCache::new(10);
        c.admit(
            oid(1),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"aaaa"),
        );
        c.admit(
            oid(2),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"bbbb"),
        );
        // Touch 1 so 2 becomes LRU.
        assert!(c.get(oid(1), 0, 1).is_some());
        c.admit(
            oid(3),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"cccc"),
        );
        assert!(c.used_bytes <= 10);
        assert!(c.get(oid(2), 0, 1).is_none(), "LRU entry should be gone");
        assert!(c.get(oid(1), 0, 1).is_some());
        assert!(c.get(oid(3), 0, 1).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn oversized_objects_bypass() {
        let mut c = ObjectCache::new(4);
        c.admit(
            oid(1),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"too big"),
        );
        assert_eq!(c.used_bytes, 0);
        assert!(c.get(oid(1), 0, 1).is_none());
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = ObjectCache::new(64);
        c.admit(
            oid(1),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"gone"),
        );
        c.invalidate(oid(1));
        assert!(c.get(oid(1), 0, 1).is_none());
        assert_eq!(c.used_bytes, 0);
        // Invalidating a missing id is a no-op.
        c.invalidate(oid(9));
    }

    #[test]
    fn growth_past_cached_prefix_hits_then_misses() {
        let mut c = ObjectCache::new(1024);
        // A 4-byte stable prefix is cached; the object then grows to 8
        // bytes remotely. Reads ending inside the cached prefix still
        // hit; reads into the grown tail must miss (the cache has no
        // idea the appends happened) until the longer prefix is
        // re-admitted.
        c.admit(
            oid(1),
            Mutability::AppendOnly,
            tag(1),
            Bytes::from_static(b"abcd"),
        );
        assert_eq!(&c.get(oid(1), 0, 4).unwrap().1[..], b"abcd");
        assert!(c.get(oid(1), 0, 8).is_none(), "past the cached prefix");
        assert!(c.get(oid(1), 4, 4).is_none(), "entirely in the grown tail");
        c.admit(
            oid(1),
            Mutability::AppendOnly,
            tag(2),
            Bytes::from_static(b"abcdefgh"),
        );
        assert_eq!(&c.get(oid(1), 0, 8).unwrap().1[..], b"abcdefgh");
        assert_eq!(&c.get(oid(1), 4, 4).unwrap().1[..], b"efgh");
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn zero_length_prefix_serves_only_empty_reads() {
        let mut c = ObjectCache::new(64);
        c.admit(oid(1), Mutability::AppendOnly, tag(1), Bytes::new());
        assert_eq!(c.used_bytes, 0);
        // A zero-length read inside the (empty) prefix is a hit; any
        // non-empty read must go to a replica.
        let (t, data) = c.get(oid(1), 0, 0).unwrap();
        assert_eq!(t, tag(1));
        assert!(data.is_empty());
        assert!(c.get(oid(1), 0, 1).is_none());
        // An empty prefix never replaces a longer cached one.
        c.admit(
            oid(1),
            Mutability::AppendOnly,
            tag(2),
            Bytes::from_static(b"xy"),
        );
        c.admit(oid(1), Mutability::AppendOnly, tag(3), Bytes::new());
        assert_eq!(&c.get(oid(1), 0, 2).unwrap().1[..], b"xy");
    }

    #[test]
    fn eviction_counter_counts_exactly_the_evicted_entries() {
        let mut c = ObjectCache::new(10);
        c.admit(
            oid(1),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"aaaa"),
        );
        c.admit(
            oid(2),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"bbbb"),
        );
        assert_eq!(c.evictions(), 0);
        // An 8-byte admit must evict *both* residents (one would leave
        // the cache at 12/10), and the counter must say exactly 2.
        c.admit(
            oid(3),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"cccccccc"),
        );
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.used_bytes, 8);
        // Replacing an entry in place is not an eviction...
        c.admit(
            oid(3),
            Mutability::Immutable,
            tag(2),
            Bytes::from_static(b"cc"),
        );
        // ...and neither is refusing an oversized object.
        c.admit(
            oid(4),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"far too big to fit"),
        );
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn readmitting_same_id_replaces_bytes_accounting() {
        let mut c = ObjectCache::new(64);
        c.admit(
            oid(1),
            Mutability::Immutable,
            tag(1),
            Bytes::from_static(b"aaaa"),
        );
        c.admit(
            oid(1),
            Mutability::Immutable,
            tag(2),
            Bytes::from_static(b"bb"),
        );
        assert_eq!(c.used_bytes, 2);
    }

    /// The eviction the `by_stamp` index replaced, kept as the oracle:
    /// a `min_by_key` over every entry per victim.
    fn evict_to_fit_by_scan(c: &mut ObjectCache, capacity_bytes: usize) {
        while c.used_bytes > capacity_bytes {
            let victim = c
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(id, _)| *id)
                .expect("over budget implies non-empty");
            c.invalidate(victim);
            c.evictions.incr();
        }
    }

    #[test]
    fn evicts_the_victims_the_scan_evicted() {
        const CAPACITY: usize = 4096;
        let mut new = ObjectCache::new(CAPACITY);
        // The oracle never evicts on its own; the scan does it after
        // every admit, at the real capacity. Both see the same calls, so
        // their clocks and stamps agree.
        let mut old = ObjectCache::new(usize::MAX);
        let rng = DetRng::seeded(16);
        for step in 0..20_000 {
            let id = oid(rng.gen_range(0..1_500));
            match rng.gen_range(0..8) {
                // Hits (and prefix misses) refresh the entry's stamp.
                0..=3 => {
                    let len = rng.gen_range(1..13);
                    assert_eq!(new.get(id, 0, len), old.get(id, 0, len), "step {step}");
                }
                4 => {
                    new.invalidate(id);
                    old.invalidate(id);
                }
                // Admits of 4..=12 bytes: in-place replacement, prefix
                // growth, and — once full — one or two evictions each.
                n => {
                    let mutability = if n == 5 {
                        Mutability::AppendOnly
                    } else {
                        Mutability::Immutable
                    };
                    let data = Bytes::from(vec![step as u8; rng.gen_range(4..13) as usize]);
                    new.admit(id, mutability, tag(step), data.clone());
                    old.admit(id, mutability, tag(step), data);
                    evict_to_fit_by_scan(&mut old, CAPACITY);
                }
            }
            assert_eq!(new.used_bytes, old.used_bytes, "step {step}");
            assert_eq!(new.by_stamp.len(), new.entries.len());
            assert_eq!(new.entries.len(), old.entries.len());
            assert!(new.entries.keys().all(|id| old.entries.contains_key(id)));
        }
        assert_eq!(new.evictions(), old.evictions());
        assert!(
            new.evictions() > 3_000,
            "only {} evictions",
            new.evictions()
        );
    }
}
