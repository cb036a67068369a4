//! Vendored, dependency-free subset of the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace ships the small slice of the `bytes` API it actually uses:
//! cheaply-cloneable immutable [`Bytes`] views (reference-counted, with
//! zero-copy `slice`) and a growable [`BytesMut`] builder that freezes
//! into [`Bytes`]. Semantics match the upstream crate for this subset;
//! anything not used by the workspace is intentionally absent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---- buffer pool ---------------------------------------------------------

/// Largest buffer the pool will hold on to; bigger ones are freed so a
/// single huge frame can't pin memory forever.
const POOL_MAX_BUF: usize = 64 * 1024;
/// Most buffers the pool retains per thread.
const POOL_MAX_BUFS: usize = 64;

thread_local! {
    /// Recycled backing buffers, LIFO so the warmest one is reused first.
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Pool telemetry; process-wide so the benchmark reads one pair of
/// counters no matter which thread ran the workload.
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Buffer-pool counters `(hits, misses)` — the allocation proxy
/// `benchmark/` reports as `bytes.pool_hit_frac`. A hit means [`BytesMut::with_capacity`]
/// reused a recycled buffer instead of allocating a fresh one.
pub fn pool_stats() -> (u64, u64) {
    (
        POOL_HITS.load(Ordering::Relaxed),
        POOL_MISSES.load(Ordering::Relaxed),
    )
}

/// Takes a recycled buffer with at least `cap` capacity, or allocates.
fn pool_take(cap: usize) -> Vec<u8> {
    let reused = if cap <= POOL_MAX_BUF {
        POOL.try_with(|p| p.borrow_mut().pop()).ok().flatten()
    } else {
        None
    };
    match reused {
        Some(mut v) if v.capacity() >= cap => {
            POOL_HITS.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v
        }
        Some(mut v) => {
            // Reused storage, but it must grow first; count the realloc
            // honestly as a miss.
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v.reserve(cap);
            v
        }
        None => {
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(cap)
        }
    }
}

/// Returns a buffer to the pool (or frees it if the pool is full or the
/// buffer is outside the retained size band).
fn pool_put(v: Vec<u8>) {
    if v.capacity() == 0 || v.capacity() > POOL_MAX_BUF {
        return;
    }
    // `try_with`: recycling may run during thread teardown, after the
    // TLS slot is gone — just drop the buffer then.
    let _ = POOL.try_with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < POOL_MAX_BUFS {
            p.push(v);
        }
    });
}

/// An owned backing buffer that returns itself to the thread-local pool
/// when the last [`Bytes`] view over it drops.
struct PoolChunk {
    buf: Vec<u8>,
}

impl Drop for PoolChunk {
    fn drop(&mut self) {
        pool_put(std::mem::take(&mut self.buf));
    }
}

/// A cheaply cloneable, immutable view of contiguous memory.
///
/// Clones share the underlying buffer; [`Bytes::slice`] returns a
/// zero-copy sub-view.
#[derive(Clone)]
pub struct Bytes {
    data: Repr,
    start: usize,
    end: usize,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    /// A `Vec` adopted without copying; recycled into the buffer pool
    /// when the last view drops.
    Owned(Arc<PoolChunk>),
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub const fn new() -> Self {
        Bytes {
            data: Repr::Static(&[]),
            start: 0,
            end: 0,
        }
    }

    /// Creates a `Bytes` view of a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            data: Repr::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Copies `data` into a new reference-counted buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a zero-copy sub-view of `self` over `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let stop = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= stop && stop <= len,
            "slice range {begin}..{stop} out of bounds for length {len}"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + stop,
        }
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        let all = match &self.data {
            Repr::Static(s) => s,
            Repr::Owned(c) => &c.buf[..],
        };
        &all[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        // Adopt the Vec in place (`Arc::from(v)` would copy every byte
        // into a fresh refcounted allocation); the buffer joins the
        // recycling pool when the last view drops.
        let end = v.len();
        Bytes {
            data: Repr::Owned(Arc::new(PoolChunk { buf: v })),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer that can be frozen into [`Bytes`].
#[derive(Clone, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub const fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// Creates an empty buffer with at least `cap` bytes of capacity,
    /// drawing from the thread-local recycling pool when possible. A
    /// pooled buffer keeps whatever (larger) capacity it grew to in its
    /// previous life, so steady-state encoders stop reallocating even
    /// when frames outgrow `cap`.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: pool_take(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends `data` to the buffer.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Converts the buffer into an immutable [`Bytes`] without copying:
    /// the backing storage is adopted as-is and recycled into the pool
    /// when the last view of it drops.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Clears the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.buf[..], f)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { buf: s.to_vec() }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        BytesMut { buf }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        self.buf.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_storage_and_clamps() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let ss = s.slice(1..);
        assert_eq!(&ss[..], &[3, 4]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1u8, 2]);
        let _ = b.slice(0..3);
    }

    #[test]
    fn freeze_roundtrip() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"abc");
        m.extend_from_slice(b"def");
        let b = m.freeze();
        assert_eq!(b.to_vec(), b"abcdef".to_vec());
        assert_eq!(b, Bytes::from_static(b"abcdef"));
    }

    #[test]
    fn equality_across_representations() {
        let a = Bytes::from_static(b"xyz");
        let b = Bytes::from(b"xyz".to_vec());
        assert_eq!(a, b);
        assert_eq!(a, b"xyz".to_vec());
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn freeze_adopts_storage_without_copying() {
        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(b"hello world");
        let ptr = m.as_ref().as_ptr();
        let b = m.freeze();
        assert_eq!(&b[..], b"hello world");
        // Zero-copy: the frozen view reads from the same allocation the
        // mutable buffer wrote into.
        assert_eq!(b.as_ref().as_ptr(), ptr);
    }

    #[test]
    fn dropped_buffers_are_recycled() {
        // Warm the pool, remembering the backing allocation.
        let mut m = BytesMut::with_capacity(100);
        m.extend_from_slice(&[7u8; 100]);
        let ptr = m.as_ref().as_ptr();
        drop(m.freeze());

        let (h0, _) = pool_stats();
        let m2 = BytesMut::with_capacity(64);
        let (h1, _) = pool_stats();
        assert_eq!(h1, h0 + 1, "second acquisition should hit the pool");
        assert_eq!(m2.as_ref().as_ptr(), ptr, "same buffer came back");
        assert!(m2.is_empty());
        assert!(m2.buf.capacity() >= 100, "recycled capacity is retained");
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let big = 2 * POOL_MAX_BUF;
        let mut m = BytesMut::with_capacity(big);
        m.extend_from_slice(&[1u8; 4]);
        let (_, miss0) = pool_stats();
        drop(m.freeze());
        let _m2 = BytesMut::with_capacity(big);
        let (_, miss1) = pool_stats();
        assert!(miss1 > miss0, "oversized request must allocate fresh");
    }

    #[test]
    fn slices_keep_the_chunk_alive_until_last_drop() {
        let mut m = BytesMut::with_capacity(32);
        m.extend_from_slice(b"abcdefgh");
        let b = m.freeze();
        let head = b.slice(..4);
        let tail = b.slice(4..);
        drop(b);
        assert_eq!(&head[..], b"abcd");
        assert_eq!(&tail[..], b"efgh");
    }
}
