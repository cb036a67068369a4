//! The per-node storage engine with media tiers.
//!
//! §3.2: "the cloud provider may use any type of underlying storage
//! medium, or a combination of several of them, to meet target
//! performance, cost, and availability criteria." The engine stores
//! objects in memory (this is a simulation) but charges each access the
//! latency and bandwidth of a configured [`MediaTier`], so experiments see
//! DRAM-vs-NVMe-vs-disk effects.

use fxhash::FxHashMap;
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

/// A node-local object store; all methods are synchronous state changes,
/// timing is charged by the caller via [`MediaTier::io_time`].
#[derive(Debug)]
pub struct StorageEngine {
    tier: MediaTier,
    objects: FxHashMap<ObjectId, StoredObject>,
    /// Tombstones: tag at which each object was deleted. Mutations and
    /// anti-entropy pulls at or below the tombstone tag are ignored, so a
    /// straggling replica cannot resurrect a deleted object here.
    tombstones: FxHashMap<ObjectId, Tag>,
    bytes_stored: u64,
}

impl StorageEngine {
    /// An empty engine on the given tier.
    pub fn new(tier: MediaTier) -> Self {
        StorageEngine {
            tier,
            objects: FxHashMap::default(),
            tombstones: FxHashMap::default(),
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
        self.objects.get(&id)
    }

    /// Reads `len` bytes at `offset`, clamped to the object's size.
    pub fn read(&self, id: ObjectId, offset: u64, len: u64) -> Result<Bytes, PcsiError> {
        let obj = self.objects.get(&id).ok_or(PcsiError::NotFound(id))?;
        let size = obj.data.len() as u64;
        let start = offset.min(size) as usize;
        let end = offset.saturating_add(len).min(size) as usize;
        Ok(obj.data.slice(start..end))
    }

    /// The tag of the newest applied mutation ([`Tag::ZERO`] if never
    /// written). Deleted objects report their tombstone tag, so version
    /// quorums order the delete after the states it superseded and a
    /// recreate gets a tag above the tombstone instead of being silently
    /// swallowed by it.
    pub(crate) fn tag_of(&self, id: ObjectId) -> Tag {
        let live = self.objects.get(&id).map(|o| o.tag).unwrap_or(Tag::ZERO);
        let dead = self.tombstones.get(&id).copied().unwrap_or(Tag::ZERO);
        live.max(dead)
    }

    /// Applies `mutation` under `tag`, enforcing mutability rules.
    ///
    /// Applying is idempotent by tag: a mutation at or below the stored
    /// tag is ignored (duplicate delivery during retries/anti-entropy).
    pub fn apply(&mut self, id: ObjectId, tag: Tag, mutation: &Mutation) -> Result<(), PcsiError> {
        if let Some(existing) = self.objects.get(&id) {
            if tag <= existing.tag {
                return Ok(()); // Stale or duplicate.
            }
        }
        if let Some(&death) = self.tombstones.get(&id) {
            if tag <= death {
                return Ok(()); // Mutation from before the delete.
            }
        }
        match mutation {
            Mutation::PutFull { data, mutability } => {
                // Replacing an existing object wholesale is a write: an
                // immutable or append-only object cannot be overwritten
                // by a later put (clients cache immutable bytes on the
                // strength of this).
                if let Some(existing) = self.objects.get(&id) {
                    if !existing.mutability.allows_write() {
                        return Err(PcsiError::MutabilityViolation {
                            id,
                            level: existing.mutability,
                            op: "write",
                        });
                    }
                }
                self.account_remove(id);
                self.bytes_stored += data.len() as u64;
                self.objects
                    .insert(id, StoredObject::new(data.clone(), tag, *mutability));
                Ok(())
            }
            Mutation::WriteAt { offset, data } => {
                let obj = self.objects.get_mut(&id).ok_or(PcsiError::NotFound(id))?;
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
                let obj = self.objects.get_mut(&id).ok_or(PcsiError::NotFound(id))?;
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
                let obj = self.objects.get_mut(&id).ok_or(PcsiError::NotFound(id))?;
                obj.mutability = obj.mutability.transition_to(*to)?;
                obj.tag = tag;
                Ok(())
            }
            Mutation::Delete => {
                self.account_remove(id);
                self.objects.remove(&id);
                self.tombstones.insert(id, tag);
                Ok(())
            }
        }
    }

    /// Removes an object without tag checks (GC path).
    pub(crate) fn evict(&mut self, id: ObjectId) {
        self.account_remove(id);
        self.objects.remove(&id);
    }

    /// Installs a full replica state (anti-entropy pull), keeping the
    /// newest tag. Returns whether the incoming state was installed —
    /// callers tracking per-object request ledgers must swap theirs in
    /// exactly when the state they describe is.
    pub(crate) fn sync_in(&mut self, id: ObjectId, incoming: StoredObject) -> bool {
        if let Some(&death) = self.tombstones.get(&id) {
            if incoming.tag <= death {
                return false;
            }
        }
        match self.objects.get(&id) {
            Some(existing) if existing.tag >= incoming.tag => false,
            _ => {
                self.account_remove(id);
                self.bytes_stored += incoming.data.len() as u64;
                self.objects.insert(id, incoming);
                true
            }
        }
    }

    /// Iterates `(id, tag)` pairs (anti-entropy inventory).
    pub fn inventory(&self) -> Vec<(ObjectId, Tag)> {
        let mut v: Vec<_> = self.objects.iter().map(|(id, o)| (*id, o.tag)).collect();
        v.sort_unstable();
        v
    }

    /// All object ids present (GC sweep input).
    pub fn ids(&self) -> Vec<ObjectId> {
        let mut v: Vec<_> = self.objects.keys().copied().collect();
        v.sort_unstable();
        v
    }

    fn account_remove(&mut self, id: ObjectId) {
        if let Some(o) = self.objects.get(&id) {
            self.bytes_stored -= o.data.len() as u64;
        }
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
    fn inventory_sorted_and_complete() {
        let mut e = StorageEngine::new(MediaTier::Dram);
        put(&mut e, 3, b"c", Mutability::Mutable);
        put(&mut e, 1, b"a", Mutability::Mutable);
        let inv = e.inventory();
        assert_eq!(inv.len(), 2);
        assert!(inv.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(e.tag_of(id(3)).seq, 1);
        assert_eq!(e.tag_of(id(99)), Tag::ZERO);
    }
}
