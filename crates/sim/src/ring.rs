use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

/// A bounded, sequence-numbered log that evicts its oldest record when
/// full. Record `n` (0-based, in push order) has sequence number `n`
/// for good; [`Ring::take`] empties the ring but does not restart the
/// numbering. Methods take `&self`, so one ring is shared by reference.
pub struct Ring<T> {
    records: RefCell<VecDeque<T>>,
    capacity: usize,
    pushed: Cell<u64>,
    dropped: Cell<u64>,
}

impl<T: Clone> Ring<T> {
    /// A ring retaining at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Self {
        Ring {
            records: RefCell::new(VecDeque::new()),
            capacity: capacity.max(1),
            pushed: Cell::new(0),
            dropped: Cell::new(0),
        }
    }

    /// Appends the record `make` builds from its sequence number, and
    /// returns that number. A full ring evicts (and counts) its oldest
    /// record first.
    pub fn push(&self, make: impl FnOnce(u64) -> T) -> u64 {
        let seq = self.pushed.get();
        let record = make(seq);
        self.pushed.set(seq + 1);
        let mut records = self.records.borrow_mut();
        if records.len() == self.capacity {
            records.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        records.push_back(record);
        seq
    }

    /// The retained records numbered `seq` or later, oldest first.
    pub fn since(&self, seq: u64) -> Vec<T> {
        let records = self.records.borrow();
        let first = self.pushed.get() - records.len() as u64;
        let skip = seq.saturating_sub(first).min(records.len() as u64);
        records.iter().skip(skip as usize).cloned().collect()
    }

    /// Every retained record, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.since(0)
    }

    /// Empties the ring and returns its records, oldest first. Taken
    /// records are not counted as dropped.
    pub fn take(&self) -> Vec<T> {
        self.records.borrow_mut().drain(..).collect()
    }

    /// Records evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Records retained now.
    pub fn len(&self) -> usize {
        self.records.borrow().len()
    }

    /// Whether no record is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most records the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(capacity: usize, n: u64) -> Ring<u64> {
        let ring = Ring::new(capacity);
        for _ in 0..n {
            ring.push(|seq| seq * 10);
        }
        ring
    }

    #[test]
    fn the_ring_is_bounded_and_counts_what_it_evicts() {
        let ring = filled(4, 10);
        assert_eq!((ring.len(), ring.dropped()), (4, 6));
        assert_eq!(ring.snapshot(), [60, 70, 80, 90]);
        assert_eq!(Ring::<u64>::new(0).capacity(), 1);
    }

    #[test]
    fn since_an_evicted_seq_serves_only_the_retained_tail() {
        let ring = filled(4, 10);
        assert_eq!(ring.since(0), [60, 70, 80, 90]);
        assert_eq!(ring.since(8), [80, 90]);
        assert!(ring.since(10).is_empty());
        assert!(ring.since(u64::MAX).is_empty());
    }

    #[test]
    fn take_empties_the_ring_without_counting_drops() {
        let ring = filled(4, 3);
        assert_eq!(ring.take(), [0, 10, 20]);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn sequence_numbers_keep_rising_after_a_take() {
        let ring = filled(4, 3);
        ring.take();
        assert_eq!(ring.push(|seq| seq * 10), 3);
        assert_eq!(ring.since(3), [30]);
        assert!(ring.since(4).is_empty());
    }
}
