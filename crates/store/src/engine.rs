//! The per-node storage engine with media tiers.
//!
//! §3.2: "the cloud provider may use any type of underlying storage
//! medium, or a combination of several of them, to meet target
//! performance, cost, and availability criteria." The engine stores
//! objects in memory (this is a simulation) but charges each access the
//! latency and bandwidth of a configured [`MediaTier`], so experiments see
//! DRAM-vs-NVMe-vs-disk effects.

use fxhash::FxHashMap;
use std::collections::hash_map;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::{Mutability, ObjectId, PcsiError};

use crate::version::Tag;

/// Storage media with distinct latency/bandwidth envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaTier {
    /// DRAM-resident (memcached-class): ~100 ns access.
    Dram,
    /// NVMe flash: ~20 µs access, ~2 GB/s.
    Nvme,
    /// Spinning disk: ~4 ms access, ~200 MB/s.
    Hdd,
}

impl MediaTier {
    /// Fixed per-operation access latency.
    pub(crate) fn access_latency(self) -> Duration {
        match self {
            MediaTier::Dram => Duration::from_nanos(100),
            MediaTier::Nvme => Duration::from_micros(20),
            MediaTier::Hdd => Duration::from_millis(4),
        }
    }

    /// Sustained bandwidth in bytes/second.
    pub(crate) fn bandwidth_bps(self) -> u64 {
        match self {
            MediaTier::Dram => 50_000_000_000,
            MediaTier::Nvme => 2_000_000_000,
            MediaTier::Hdd => 200_000_000,
        }
    }

    /// Total time to move `bytes` through this tier once.
    pub fn io_time(self, bytes: usize) -> Duration {
        self.access_latency()
            + Duration::from_nanos(
                (bytes as u64).saturating_mul(1_000_000_000) / self.bandwidth_bps(),
            )
    }
}

/// One stored object replica: bytes plus ordering/mutability metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredObject {
    /// Object contents.
    pub data: Bytes,
    /// Tag of the last applied mutation.
    pub tag: Tag,
    /// Mutability level (replicated with the data so every replica can
    /// enforce it).
    pub mutability: Mutability,
    /// For `APPEND_ONLY`: length of the prefix known stable at the last
    /// mutation (equals `data.len()`; kept explicit for cache contracts).
    pub stable_len: u64,
}

impl StoredObject {
    /// A fresh object.
    pub(crate) fn new(data: Bytes, tag: Tag, mutability: Mutability) -> Self {
        let stable_len = data.len() as u64;
        StoredObject {
            data,
            tag,
            mutability,
            stable_len,
        }
    }

    /// `len` bytes at `offset`, clamped to the object's size.
    pub(crate) fn slice(&self, offset: u64, len: u64) -> Bytes {
        let size = self.data.len() as u64;
        let start = offset.min(size) as usize;
        let end = offset.saturating_add(len).min(size) as usize;
        self.data.slice(start..end)
    }
}

/// The mutations replicas apply. Produced by the primary, shipped to
/// secondaries, so every replica applies the identical deterministic op.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Replace the whole value (also used for create).
    PutFull {
        /// New contents.
        data: Bytes,
        /// Mutability of the object after the put.
        mutability: Mutability,
    },
    /// Overwrite a range in place.
    WriteAt {
        /// Byte offset.
        offset: u64,
        /// Bytes to splice in.
        data: Bytes,
    },
    /// Append bytes at the end.
    Append {
        /// Bytes to add.
        data: Bytes,
    },
    /// Apply a Figure-1 mutability transition.
    SetMutability {
        /// Target level.
        to: Mutability,
    },
    /// Remove the object.
    Delete,
}

/// Upper bound on a single object's size. Writes that would grow an
/// object past this are rejected before the engine tries to allocate, so
/// a hostile `WriteAt` offset cannot turn into a multi-gigabyte resize.
pub(crate) const MAX_OBJECT_BYTES: u64 = 1 << 32;

/// Request records kept per object: a request retries for at most one
/// operation's deadline, so only recent ones can come back.
const LEDGER_PER_OBJECT: usize = 32;

/// Everything a node holds for one object, so the bytes, the delete that
/// may have superseded them and the requests they contain change together.
#[derive(Debug, Default)]
struct Entry {
    /// The live replica state, absent once deleted or evicted.
    live: Option<StoredObject>,
    /// Tag at which the object was deleted. Mutations and anti-entropy
    /// pulls at or below it are ignored, so a straggling replica cannot
    /// resurrect a deleted object here.
    tombstone: Option<Tag>,
    /// `(req_id, tag)` of each client request the current state line
    /// contains, oldest first, at most [`LEDGER_PER_OBJECT`]: a round's
    /// proposer applies a request only to a state whose records lack it
    /// (DESIGN §4.3), so a full-state install ([`StorageEngine::sync_in`])
    /// **replaces** them with the installed line's.
    reqs: Vec<(u64, Tag)>,
    /// The ballot promised to a round (DESIGN §4.3; `crate::round`).
    promised: Tag,
}

impl Entry {
    /// The newest tag this entry has seen, live or deleted.
    fn newest(&self) -> Option<Tag> {
        self.live.as_ref().map(|o| o.tag).max(self.tombstone)
    }
}

/// A node-local object store; all methods are synchronous state changes,
/// timing is charged by the caller via [`MediaTier::io_time`].
#[derive(Debug)]
pub struct StorageEngine {
    tier: MediaTier,
    entries: FxHashMap<ObjectId, Entry>,
    bytes_stored: u64,
}

impl StorageEngine {
    /// An empty engine on the given tier.
    pub fn new(tier: MediaTier) -> Self {
        StorageEngine {
            tier,
            entries: FxHashMap::default(),
            bytes_stored: 0,
        }
    }

    /// The engine's media tier.
    pub fn tier(&self) -> MediaTier {
        self.tier
    }

    /// Total payload bytes held.
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored
    }

    /// Returns the full stored object, if present.
    pub fn get(&self, id: ObjectId) -> Option<&StoredObject> {
        self.entries.get(&id)?.live.as_ref()
    }

    /// Reads `len` bytes at `offset`, clamped to the object's size.
    pub fn read(&self, id: ObjectId, offset: u64, len: u64) -> Result<Bytes, PcsiError> {
        Ok(self
            .get(id)
            .ok_or(PcsiError::NotFound(id))?
            .slice(offset, len))
    }

    /// The tag of the newest applied mutation ([`Tag::ZERO`] if never
    /// written). Deleted objects report their tombstone tag, so version
    /// quorums order the delete after the states it superseded and a
    /// recreate gets a tag above the tombstone instead of being silently
    /// swallowed by it.
    pub(crate) fn tag_of(&self, id: ObjectId) -> Tag {
        self.entries
            .get(&id)
            .and_then(Entry::newest)
            .unwrap_or(Tag::ZERO)
    }

    /// The newest tag this node accepted for `id` and the ballot it
    /// promised, or `None` when it holds nothing of `id`.
    pub(crate) fn ballots(&self, id: ObjectId) -> Option<(Tag, Tag)> {
        let entry = self.entries.get(&id)?;
        Some((entry.newest().unwrap_or(Tag::ZERO), entry.promised))
    }

    /// Promises `id`'s next accept to no ballot below `ballot`. Promises
    /// only rise.
    pub(crate) fn promise(&mut self, id: ObjectId, ballot: Tag) {
        let entry = self.entries.entry(id).or_default();
        entry.promised = entry.promised.max(ballot);
    }

    /// Applies `mutation` under `tag`, enforcing mutability rules.
    ///
    /// Applying is idempotent by tag: a mutation at or below the stored
    /// tag is ignored (duplicate delivery during retries/anti-entropy).
    pub fn apply(&mut self, id: ObjectId, tag: Tag, mutation: &Mutation) -> Result<(), PcsiError> {
        let entry = match self.entries.entry(id) {
            hash_map::Entry::Occupied(entry) => entry.into_mut(),
            // Only a put or a delete starts an entry.
            hash_map::Entry::Vacant(slot) => match mutation {
                Mutation::PutFull { .. } | Mutation::Delete => slot.insert(Entry::default()),
                _ => return Err(PcsiError::NotFound(id)),
            },
        };
        if entry.newest().is_some_and(|newest| tag <= newest) {
            return Ok(()); // Stale, duplicate, or from before the delete.
        }
        match mutation {
            Mutation::PutFull { data, mutability } => {
                // Replacing an existing object wholesale is a write: an
                // immutable or append-only object cannot be overwritten
                // by a later put (clients cache immutable bytes on the
                // strength of this).
                if let Some(existing) = &entry.live {
                    if !existing.mutability.allows_write() {
                        return Err(PcsiError::MutabilityViolation {
                            id,
                            level: existing.mutability,
                            op: "write",
                        });
                    }
                    self.bytes_stored -= existing.data.len() as u64;
                }
                self.bytes_stored += data.len() as u64;
                entry.live = Some(StoredObject::new(data.clone(), tag, *mutability));
                Ok(())
            }
            Mutation::WriteAt { offset, data } => {
                let obj = entry.live.as_mut().ok_or(PcsiError::NotFound(id))?;
                if !obj.mutability.allows_write() {
                    return Err(PcsiError::MutabilityViolation {
                        id,
                        level: obj.mutability,
                        op: "write",
                    });
                }
                let end = offset.checked_add(data.len() as u64).ok_or_else(|| {
                    PcsiError::BadPayload(format!("write range overflows at offset {offset}"))
                })?;
                if end > MAX_OBJECT_BYTES {
                    return Err(PcsiError::BadPayload(format!(
                        "write to offset {offset} would grow object past {MAX_OBJECT_BYTES} bytes"
                    )));
                }
                if end > obj.data.len() as u64 && !obj.mutability.allows_resize() {
                    return Err(PcsiError::MutabilityViolation {
                        id,
                        level: obj.mutability,
                        op: "resize",
                    });
                }
                let mut buf = obj.data.to_vec();
                if end as usize > buf.len() {
                    self.bytes_stored += end - buf.len() as u64;
                    buf.resize(end as usize, 0);
                }
                buf[*offset as usize..end as usize].copy_from_slice(data);
                obj.data = Bytes::from(buf);
                obj.tag = tag;
                obj.stable_len = obj.data.len() as u64;
                Ok(())
            }
            Mutation::Append { data } => {
                let obj = entry.live.as_mut().ok_or(PcsiError::NotFound(id))?;
                if !obj.mutability.allows_append() {
                    return Err(PcsiError::MutabilityViolation {
                        id,
                        level: obj.mutability,
                        op: "append",
                    });
                }
                if obj.data.len() as u64 + data.len() as u64 > MAX_OBJECT_BYTES {
                    return Err(PcsiError::BadPayload(format!(
                        "append would grow object past {MAX_OBJECT_BYTES} bytes"
                    )));
                }
                let mut buf = obj.data.to_vec();
                buf.extend_from_slice(data);
                self.bytes_stored += data.len() as u64;
                obj.data = Bytes::from(buf);
                obj.tag = tag;
                obj.stable_len = obj.data.len() as u64;
                Ok(())
            }
            Mutation::SetMutability { to } => {
                let obj = entry.live.as_mut().ok_or(PcsiError::NotFound(id))?;
                obj.mutability = obj.mutability.transition_to(*to)?;
                obj.tag = tag;
                Ok(())
            }
            Mutation::Delete => {
                if let Some(gone) = entry.live.take() {
                    self.bytes_stored -= gone.data.len() as u64;
                }
                entry.tombstone = Some(tag);
                Ok(())
            }
        }
    }

    /// The tag `req_id` was applied at on the current state line of
    /// `id`, if recorded. `req_id` 0 is a request without identity:
    /// never recorded, never found.
    pub(crate) fn recorded(&self, id: ObjectId, req_id: u64) -> Option<Tag> {
        if req_id == 0 {
            return None;
        }
        let reqs = &self.entries.get(&id)?.reqs;
        reqs.iter()
            .find(|&&(r, _)| r == req_id)
            .map(|&(_, tag)| tag)
    }

    /// Records that the current state line of `id` contains `req_id` at
    /// `tag`. An object this node holds nothing of records nothing.
    pub(crate) fn record(&mut self, id: ObjectId, req_id: u64, tag: Tag) {
        let Some(entry) = self.entries.get_mut(&id).filter(|_| req_id != 0) else {
            return;
        };
        let reqs = &mut entry.reqs;
        match reqs.iter_mut().find(|(r, _)| *r == req_id) {
            // A round that re-accepted the state moved it to a newer tag.
            Some(record) => record.1 = record.1.max(tag),
            None => {
                // Nearly every object holds one record: size the first
                // allocation for it (a first `push` reserves four).
                if reqs.capacity() == 0 {
                    reqs.reserve_exact(1);
                }
                reqs.push((req_id, tag));
            }
        }
        if reqs.len() > LEDGER_PER_OBJECT {
            // Records are appended in apply order, so the front is the
            // oldest — the one least likely to still be retried.
            reqs.remove(0);
        }
    }

    /// The live state of `id` and the records of the requests it
    /// contains: what a full-state transfer ships.
    pub(crate) fn state(&self, id: ObjectId) -> Option<(StoredObject, Vec<(u64, Tag)>)> {
        let entry = self.entries.get(&id)?;
        Some((entry.live.clone()?, entry.reqs.clone()))
    }

    /// Removes an object's live state and request records without tag
    /// checks (GC path), keeping a tombstone. Returns whether there was
    /// live state to remove.
    pub(crate) fn evict(&mut self, id: ObjectId) -> bool {
        let Some(entry) = self.entries.get_mut(&id) else {
            return false;
        };
        let gone = entry.live.take();
        self.bytes_stored -= gone.as_ref().map_or(0, |o| o.data.len() as u64);
        entry.reqs = Vec::new();
        if entry.tombstone.is_none() {
            self.entries.remove(&id);
        }
        gone.is_some()
    }

    /// Installs a full replica state (anti-entropy pull, read repair,
    /// migration) with the records of the requests it contains, when
    /// its tag is newer than everything this node has seen of `id`.
    /// The records **replace** the local ones, never merge with them.
    /// With `tombstone`, the state is a delete at `incoming.tag` and its
    /// bytes are ignored.
    pub(crate) fn sync_in(
        &mut self,
        id: ObjectId,
        incoming: StoredObject,
        mut reqs: Vec<(u64, Tag)>,
        tombstone: bool,
    ) {
        let entry = self.entries.entry(id).or_default();
        if entry.newest().is_some_and(|newest| incoming.tag <= newest) {
            return;
        }
        reqs.drain(..reqs.len().saturating_sub(LEDGER_PER_OBJECT));
        entry.reqs = reqs;
        if let Some(gone) = entry.live.take() {
            self.bytes_stored -= gone.data.len() as u64;
        }
        if tombstone {
            entry.tombstone = Some(incoming.tag);
        } else {
            self.bytes_stored += incoming.data.len() as u64;
            entry.live = Some(incoming);
        }
    }

    /// The `(id, tag)` pair of every live object, unsorted: in engine
    /// order (the anti-entropy inventory).
    pub fn inventory(&self) -> Vec<(ObjectId, Tag)> {
        let live = self
            .entries
            .iter()
            .filter_map(|(id, e)| Some((*id, e.live.as_ref()?.tag)));
        live.collect()
    }

    /// All object ids present, unsorted: in engine order (the input of
    /// `all_object_ids`, which sorts).
    pub fn ids(&self) -> Vec<ObjectId> {
        self.inventory().into_iter().map(|(id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId::from_parts(1, n)
    }

    fn put(e: &mut StorageEngine, n: u64, data: &'static [u8], m: Mutability) -> Tag {
        let tag = Tag { seq: 1, writer: 0 };
        e.apply(
            id(n),
            tag,
            &Mutation::PutFull {
                data: Bytes::from_static(data),
                mutability: m,
            },
        )
        .unwrap();
        tag
    }

    #[test]
    fn media_tier_ordering() {
        assert!(MediaTier::Dram.io_time(1024) < MediaTier::Nvme.io_time(1024));
        assert!(MediaTier::Nvme.io_time(1024) < MediaTier::Hdd.io_time(1024));
        // Large transfers are bandwidth-bound.
        let big = 1 << 30;
        assert!(MediaTier::Nvme.io_time(big) > Duration::from_millis(400));
    }

    #[test]
    fn put_read_roundtrip_with_clamping() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"hello world", Mutability::Mutable);
        assert_eq!(&e.read(id(1), 0, 5).unwrap()[..], b"hello");
        assert_eq!(&e.read(id(1), 6, 100).unwrap()[..], b"world");
        assert_eq!(e.read(id(1), 50, 10).unwrap().len(), 0);
        assert!(e.read(id(2), 0, 1).is_err());
        assert_eq!(e.bytes_stored(), 11);
    }

    #[test]
    fn write_at_respects_mutability() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"aaaa", Mutability::FixedSize);
        let t2 = Tag { seq: 2, writer: 0 };
        e.apply(
            id(1),
            t2,
            &Mutation::WriteAt {
                offset: 1,
                data: Bytes::from_static(b"bb"),
            },
        )
        .unwrap();
        assert_eq!(&e.read(id(1), 0, 10).unwrap()[..], b"abba");
        // Growing a FIXED_SIZE object is a resize violation.
        let err = e
            .apply(
                id(1),
                Tag { seq: 3, writer: 0 },
                &Mutation::WriteAt {
                    offset: 3,
                    data: Bytes::from_static(b"ccc"),
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PcsiError::MutabilityViolation { op: "resize", .. }
        ));
    }

    #[test]
    fn append_only_rejects_overwrite_allows_append() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"log:", Mutability::AppendOnly);
        let err = e
            .apply(
                id(1),
                Tag { seq: 2, writer: 0 },
                &Mutation::WriteAt {
                    offset: 0,
                    data: Bytes::from_static(b"x"),
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PcsiError::MutabilityViolation { op: "write", .. }
        ));
        e.apply(
            id(1),
            Tag { seq: 2, writer: 0 },
            &Mutation::Append {
                data: Bytes::from_static(b"entry"),
            },
        )
        .unwrap();
        assert_eq!(&e.read(id(1), 0, 100).unwrap()[..], b"log:entry");
        assert_eq!(e.get(id(1)).unwrap().stable_len, 9);
    }

    #[test]
    fn immutable_rejects_everything_but_survives_reads() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"frozen", Mutability::Immutable);
        for (mutation, _op) in [
            (
                Mutation::WriteAt {
                    offset: 0,
                    data: Bytes::from_static(b"x"),
                },
                "write",
            ),
            (
                Mutation::Append {
                    data: Bytes::from_static(b"x"),
                },
                "append",
            ),
        ] {
            assert!(e
                .apply(id(1), Tag { seq: 9, writer: 0 }, &mutation)
                .is_err());
        }
        assert_eq!(&e.read(id(1), 0, 6).unwrap()[..], b"frozen");
    }

    #[test]
    fn mutability_transition_enforced_by_engine() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"x", Mutability::Mutable);
        e.apply(
            id(1),
            Tag { seq: 2, writer: 0 },
            &Mutation::SetMutability {
                to: Mutability::AppendOnly,
            },
        )
        .unwrap();
        let err = e
            .apply(
                id(1),
                Tag { seq: 3, writer: 0 },
                &Mutation::SetMutability {
                    to: Mutability::Mutable,
                },
            )
            .unwrap_err();
        assert!(matches!(err, PcsiError::InvalidMutabilityTransition { .. }));
    }

    #[test]
    fn stale_and_duplicate_tags_ignored() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"v1", Mutability::Mutable);
        // Duplicate tag: ignored.
        e.apply(
            id(1),
            Tag { seq: 1, writer: 0 },
            &Mutation::PutFull {
                data: Bytes::from_static(b"dup"),
                mutability: Mutability::Mutable,
            },
        )
        .unwrap();
        assert_eq!(&e.read(id(1), 0, 10).unwrap()[..], b"v1");
        // Newer tag applies.
        e.apply(
            id(1),
            Tag { seq: 2, writer: 0 },
            &Mutation::PutFull {
                data: Bytes::from_static(b"v2"),
                mutability: Mutability::Mutable,
            },
        )
        .unwrap();
        assert_eq!(&e.read(id(1), 0, 10).unwrap()[..], b"v2");
    }

    #[test]
    fn delete_and_accounting() {
        let mut e = StorageEngine::new(MediaTier::Nvme);
        put(&mut e, 1, b"12345678", Mutability::Mutable);
        put(&mut e, 2, b"abc", Mutability::Mutable);
        assert_eq!(e.bytes_stored(), 11);
        e.apply(id(1), Tag { seq: 2, writer: 0 }, &Mutation::Delete)
            .unwrap();
        assert_eq!(e.bytes_stored(), 3);
        assert_eq!(e.ids().len(), 1);
        assert!(e.read(id(1), 0, 1).is_err());
    }

    #[test]
    fn sync_in_keeps_newest() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"old", Mutability::Mutable);
        e.sync_in(
            id(1),
            StoredObject::new(
                Bytes::from_static(b"newer"),
                Tag { seq: 5, writer: 2 },
                Mutability::Mutable,
            ),
            vec![],
            false,
        );
        assert_eq!(&e.read(id(1), 0, 10).unwrap()[..], b"newer");
        // An older incoming state is ignored.
        e.sync_in(
            id(1),
            StoredObject::new(
                Bytes::from_static(b"ancient"),
                Tag { seq: 2, writer: 9 },
                Mutability::Mutable,
            ),
            vec![],
            false,
        );
        assert_eq!(&e.read(id(1), 0, 10).unwrap()[..], b"newer");
        assert_eq!(e.bytes_stored(), 5);
    }

    #[test]
    fn tombstones_block_resurrection() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"alive", Mutability::Mutable);
        e.apply(id(1), Tag { seq: 5, writer: 0 }, &Mutation::Delete)
            .unwrap();
        // A straggling pre-delete mutation must not bring it back.
        e.apply(
            id(1),
            Tag { seq: 3, writer: 1 },
            &Mutation::PutFull {
                data: Bytes::from_static(b"zombie"),
                mutability: Mutability::Mutable,
            },
        )
        .unwrap();
        assert!(e.read(id(1), 0, 10).is_err());
        // Neither may anti-entropy with an old tag.
        e.sync_in(
            id(1),
            StoredObject::new(
                Bytes::from_static(b"zombie"),
                Tag { seq: 4, writer: 2 },
                Mutability::Mutable,
            ),
            vec![],
            false,
        );
        assert!(e.get(id(1)).is_none());
    }

    #[test]
    fn read_with_extreme_offset_and_len_clamps() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"hello world", Mutability::Mutable);
        // `len == u64::MAX` is the read-everything idiom; the sum with
        // any offset must clamp, never wrap.
        assert_eq!(&e.read(id(1), 0, u64::MAX).unwrap()[..], b"hello world");
        assert_eq!(&e.read(id(1), 6, u64::MAX).unwrap()[..], b"world");
        assert_eq!(e.read(id(1), u64::MAX, u64::MAX).unwrap().len(), 0);
        assert_eq!(e.read(id(1), u64::MAX, 1).unwrap().len(), 0);
    }

    #[test]
    fn write_at_rejects_overflowing_and_oversized_ranges() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"x", Mutability::Mutable);
        // offset + len wraps u64: rejected, not silently misplaced.
        let err = e
            .apply(
                id(1),
                Tag { seq: 2, writer: 0 },
                &Mutation::WriteAt {
                    offset: u64::MAX,
                    data: Bytes::from_static(b"yz"),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PcsiError::BadPayload(_)));
        // A huge (but non-wrapping) offset would force an absurd resize:
        // rejected before any allocation happens.
        let err = e
            .apply(
                id(1),
                Tag { seq: 2, writer: 0 },
                &Mutation::WriteAt {
                    offset: MAX_OBJECT_BYTES,
                    data: Bytes::from_static(b"y"),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PcsiError::BadPayload(_)));
        // The object is untouched.
        assert_eq!(&e.read(id(1), 0, u64::MAX).unwrap()[..], b"x");
        assert_eq!(e.bytes_stored(), 1);
    }

    #[test]
    fn put_full_cannot_replace_unwritable_objects() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"frozen", Mutability::Immutable);
        let err = e
            .apply(
                id(1),
                Tag { seq: 2, writer: 0 },
                &Mutation::PutFull {
                    data: Bytes::from_static(b"thawed"),
                    mutability: Mutability::Mutable,
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PcsiError::MutabilityViolation { op: "write", .. }
        ));
        assert_eq!(&e.read(id(1), 0, u64::MAX).unwrap()[..], b"frozen");
    }

    #[test]
    fn tombstone_tag_reported_and_recreate_outranks_it() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"alive", Mutability::Mutable);
        e.apply(id(1), Tag { seq: 5, writer: 0 }, &Mutation::Delete)
            .unwrap();
        // The delete stays visible to version quorums.
        assert_eq!(e.tag_of(id(1)), Tag { seq: 5, writer: 0 });
        // A recreate ordered after the tombstone takes effect.
        e.apply(
            id(1),
            Tag { seq: 6, writer: 1 },
            &Mutation::PutFull {
                data: Bytes::from_static(b"reborn"),
                mutability: Mutability::Mutable,
            },
        )
        .unwrap();
        assert_eq!(&e.read(id(1), 0, u64::MAX).unwrap()[..], b"reborn");
        assert_eq!(e.tag_of(id(1)), Tag { seq: 6, writer: 1 });
    }

    #[test]
    fn inventory_is_complete() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        let c = put(&mut e, 3, b"c", Mutability::Mutable);
        let a = put(&mut e, 1, b"a", Mutability::Mutable);
        let inv: std::collections::BTreeSet<_> = e.inventory().into_iter().collect();
        assert_eq!(inv, [(id(1), a), (id(3), c)].into());
        assert_eq!(e.tag_of(id(3)).seq, 1);
        assert_eq!(e.tag_of(id(99)), Tag::ZERO);
    }

    fn tag(seq: u64, writer: u32) -> Tag {
        Tag { seq, writer }
    }

    fn object(data: &'static [u8], tag: Tag) -> StoredObject {
        StoredObject::new(Bytes::from_static(data), tag, Mutability::Mutable)
    }

    #[test]
    fn records_and_replaces() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"v1", Mutability::Mutable);
        e.record(id(1), 10, tag(3, 0));
        assert_eq!(e.recorded(id(1), 10), Some(tag(3, 0)));
        assert_eq!(e.recorded(id(1), 11), None);
        assert_eq!(e.recorded(id(2), 10), None);
        // An object this node holds nothing of records nothing.
        e.record(id(2), 10, tag(3, 0));
        assert_eq!(e.recorded(id(2), 10), None);
        // A full-state install replaces, never merges: records from the
        // losing line must not survive next to the winner's.
        e.sync_in(
            id(1),
            object(b"v9", tag(9, 2)),
            vec![(20, tag(9, 2))],
            false,
        );
        assert_eq!(e.recorded(id(1), 10), None);
        assert_eq!(e.recorded(id(1), 20), Some(tag(9, 2)));
        assert_eq!(e.state(id(1)).unwrap().1, vec![(20, tag(9, 2))]);
        // An install the local state outranks leaves the records alone.
        e.sync_in(
            id(1),
            object(b"v4", tag(4, 2)),
            vec![(30, tag(4, 2))],
            false,
        );
        assert_eq!(e.recorded(id(1), 30), None);
        assert_eq!(e.recorded(id(1), 20), Some(tag(9, 2)));
        // Installing with no records leaves none.
        e.sync_in(id(1), object(b"v10", tag(10, 2)), vec![], false);
        assert_eq!(e.state(id(1)).unwrap().1, vec![]);
    }

    #[test]
    fn re_recording_keeps_the_newer_tag() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"v1", Mutability::Mutable);
        e.record(id(1), 10, tag(3, 0));
        // A catch-up re-order moved the request to a newer tag.
        e.record(id(1), 10, tag(5, 1));
        assert_eq!(e.recorded(id(1), 10), Some(tag(5, 1)));
        e.record(id(1), 10, tag(4, 0));
        assert_eq!(e.recorded(id(1), 10), Some(tag(5, 1)));
        assert_eq!(e.state(id(1)).unwrap().1.len(), 1);
    }

    #[test]
    fn records_are_capped_per_object_on_record_and_install() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"v1", Mutability::Mutable);
        for r in 1..=(LEDGER_PER_OBJECT as u64 + 8) {
            e.record(id(1), r, tag(r + 1, 0));
        }
        assert_eq!(e.state(id(1)).unwrap().1.len(), LEDGER_PER_OBJECT);
        // The oldest records fell off the front; the newest survive.
        assert_eq!(e.recorded(id(1), 8), None);
        assert_eq!(e.recorded(id(1), 9), Some(tag(10, 0)));
        // An oversized shipped list is trimmed the same way.
        let big: Vec<(u64, Tag)> = (1..=(LEDGER_PER_OBJECT as u64 + 4))
            .map(|r| (r, tag(r + 1, 1)))
            .collect();
        e.sync_in(id(2), object(b"v", tag(1, 1)), big, false);
        assert_eq!(e.state(id(2)).unwrap().1.len(), LEDGER_PER_OBJECT);
        assert_eq!(e.recorded(id(2), 4), None);
        assert_eq!(e.recorded(id(2), 5), Some(tag(6, 1)));
    }

    #[test]
    fn request_zero_is_never_recorded_or_found() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"v1", Mutability::Mutable);
        e.record(id(1), 0, tag(1, 0));
        assert_eq!(e.recorded(id(1), 0), None);
        e.record(id(1), 5, tag(2, 0));
        e.record(id(1), 0, tag(3, 0));
        assert_eq!(e.state(id(1)).unwrap().1, vec![(5, tag(2, 0))]);
        // Not even a shipped record makes request 0 findable.
        e.sync_in(id(2), object(b"v", tag(4, 1)), vec![(0, tag(4, 1))], false);
        assert_eq!(e.recorded(id(2), 0), None);
    }

    /// A delete keeps the object's records with its tombstone, a
    /// tombstone install replaces them, and GC eviction drops them along
    /// with the bytes (and the whole entry when nothing was deleted).
    #[test]
    fn a_delete_keeps_the_records_and_eviction_drops_them() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 1, b"v1", Mutability::Mutable);
        e.record(id(1), 10, tag(1, 0));
        e.apply(id(1), tag(2, 0), &Mutation::Delete).unwrap();
        e.record(id(1), 11, tag(2, 0));
        assert_eq!(e.recorded(id(1), 10), Some(tag(1, 0)));
        assert_eq!(e.recorded(id(1), 11), Some(tag(2, 0)));
        assert!(e.state(id(1)).is_none(), "a deleted object ships nothing");
        e.sync_in(id(1), object(b"", tag(5, 3)), vec![(12, tag(4, 3))], true);
        assert_eq!(e.recorded(id(1), 11), None);
        assert_eq!(e.recorded(id(1), 12), Some(tag(4, 3)));
        assert_eq!(e.tag_of(id(1)), tag(5, 3));
        assert!(e.get(id(1)).is_none());
        // Eviction keeps the tombstone but not the records.
        e.evict(id(1));
        assert_eq!(e.recorded(id(1), 12), None);
        assert_eq!(e.tag_of(id(1)), tag(5, 3));
        put(&mut e, 2, b"v2", Mutability::Mutable);
        e.record(id(2), 13, tag(1, 0));
        e.evict(id(2));
        assert_eq!(e.recorded(id(2), 13), None);
        assert_eq!((e.tag_of(id(2)), e.bytes_stored()), (Tag::ZERO, 0));
        assert!(e.entries.len() == 1, "the evicted live-only entry is gone");
    }
}
