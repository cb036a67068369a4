//! Hierarchical timer wheel backing the executor's clock.
//!
//! The executor used to keep pending timers in a `BinaryHeap`, paying
//! `O(log n)` per registration and per fire — and the fabric registers
//! a timer for every message hop, so the heap ops were a measurable
//! slice of every simulated RPC. The wheel replaces them with `O(1)`
//! inserts and near-`O(1)` pops while firing in exactly the same
//! `(deadline, registration order)` sequence, so schedules (and
//! therefore every fingerprint in the repository) are bit-for-bit
//! unchanged.
//!
//! # Layout
//!
//! Six levels of 64 slots, one nanosecond per level-0 tick: level `L`
//! spans `64^(L+1)` ns, so the wheel directly covers `2^36` ns
//! (~69 simulated seconds) past its anchor. Deadlines beyond that
//! horizon wait in a sorted overflow map and enter the wheel when the
//! anchor's window reaches them.
//!
//! The anchor is the deadline of the most recently fired timer (the
//! executor keeps virtual *now* equal to it). A pending deadline is
//! filed by the most significant bit in which it differs from the
//! anchor: differ within the low 6 bits (or not at all) and it lives
//! in level 0 — where a slot holds only *exactly equal* deadlines —
//! differ in bits 6..12 and it lives in level 1, and so on.
//!
//! # Firing order
//!
//! Popping takes the lowest occupied slot of the lowest occupied
//! level. Level 0 fires the slot's front entry directly; a higher
//! level *cascades*: the slot is drained and re-filed one or more
//! levels down after the anchor advances to the slot's window.
//! Registration order inside a slot is preserved by construction —
//! entries for a window cascade into it at the pop that moves the
//! anchor there, strictly before any later registration can append to
//! the same slot — so equal deadlines always fire in registration
//! order without any comparison or sort.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::task::Waker;

/// Bits per level (64 slots).
const SLOT_BITS: u32 = 6;
/// Number of levels.
const LEVELS: usize = 6;
/// Bits covered by the wheel proper; beyond this is overflow.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Something that happens at an instant of virtual time without a task
/// being polled for it: one stage of a message's trip through the
/// fabric, the expiry of a deadline. Scheduled with
/// [`SimHandle::schedule`](crate::SimHandle::schedule); events and
/// sleeping tasks share one queue and fire in
/// `(instant, registration order)`.
pub trait TimerEvent {
    /// Runs at the scheduled instant, between two drains of the ready
    /// queue, with the `token` the event was scheduled with (which of
    /// the object's pending events this is). It may wake tasks and
    /// schedule further events.
    fn fire(self: Rc<Self>, token: u64);
}

/// What a pending timer does when it is due.
pub(crate) enum Fire {
    /// Wakes a sleeping task.
    Wake(Waker),
    /// Runs an event with its token.
    Event(Rc<dyn TimerEvent>, u64),
}

impl Fire {
    pub(crate) fn fire(self) {
        match self {
            Fire::Wake(waker) => waker.wake(),
            Fire::Event(event, token) => event.fire(token),
        }
    }
}

/// One pending timer.
struct Entry {
    deadline: u64,
    fire: Fire,
}

/// A hierarchical timer wheel firing in deadline order, with ties
/// broken by registration order.
pub(crate) struct TimerWheel {
    /// Deadline of the most recently popped timer (virtual now).
    anchor: u64,
    /// `levels[L][slot]` holds entries whose deadline differs from the
    /// anchor most significantly in bit range `6L..6(L+1)`.
    levels: [[VecDeque<Entry>; 1 << SLOT_BITS]; LEVELS],
    /// Per-level slot-occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Deadlines beyond the wheel's `2^36` ns horizon, keyed by
    /// deadline; each bucket is in registration order.
    overflow: BTreeMap<u64, VecDeque<Fire>>,
    len: usize,
    /// Spare buffer swapped into a slot being cascaded, so steady-state
    /// cascades recycle one allocation instead of freeing and
    /// reallocating slot storage.
    scratch: VecDeque<Entry>,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            anchor: 0,
            levels: std::array::from_fn(|_| std::array::from_fn(|_| VecDeque::new())),
            occupied: [0; LEVELS],
            overflow: BTreeMap::new(),
            len: 0,
            scratch: VecDeque::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers a timer to fire at `deadline`. `deadline` must not be
    /// in the past (the executor never moves `now` above the anchor).
    pub(crate) fn insert(&mut self, deadline: u64, fire: Fire) {
        debug_assert!(deadline >= self.anchor, "timer registered in the past");
        if (deadline ^ self.anchor) >> WHEEL_BITS != 0 {
            self.overflow.entry(deadline).or_default().push_back(fire);
        } else {
            self.file(Entry { deadline, fire });
        }
        self.len += 1;
    }

    /// Files an in-horizon entry into its level and slot.
    fn file(&mut self, e: Entry) {
        let x = e.deadline ^ self.anchor;
        let level = if x == 0 {
            0
        } else {
            (63 - x.leading_zeros()) / SLOT_BITS
        } as usize;
        let slot = ((e.deadline >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.levels[level][slot].push_back(e);
        self.occupied[level] |= 1 << slot;
    }

    /// Removes and returns the earliest pending timer (registration
    /// order among equals), advancing the anchor to its deadline.
    pub(crate) fn pop(&mut self) -> Option<(u64, Fire)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.occupied.iter().all(|&b| b == 0) {
                // Wheel drained; jump the anchor to the earliest
                // overflow deadline. Every overflow key is above every
                // wheel deadline (it differs from the anchor in a bit
                // the whole wheel shares), so the jump never skips one.
                let (&first, _) = self
                    .overflow
                    .first_key_value()
                    .expect("len > 0 with an empty wheel implies overflow entries");
                self.anchor = first;
            }
            // Pull overflow buckets that the anchor's window now covers
            // into the wheel. This happens exactly when the anchor
            // enters the window — before any later registration could
            // file there directly — keeping slots in registration order.
            while let Some((&k, _)) = self.overflow.first_key_value() {
                if (k ^ self.anchor) >> WHEEL_BITS != 0 {
                    break;
                }
                let bucket = self.overflow.remove(&k).expect("checked first key");
                for fire in bucket {
                    self.file(Entry { deadline: k, fire });
                }
            }

            let level = (0..LEVELS)
                .find(|&l| self.occupied[l] != 0)
                .expect("wheel non-empty after overflow drain");
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                // A level-0 slot holds exactly equal deadlines in
                // registration order; the front is the global minimum.
                let q = &mut self.levels[0][slot];
                let e = q.pop_front().expect("occupied bit set on empty slot");
                if q.is_empty() {
                    self.occupied[0] &= !(1 << slot);
                }
                self.anchor = e.deadline;
                self.len -= 1;
                return Some((e.deadline, e.fire));
            }
            // Cascade: advance the anchor to the slot's window base and
            // re-file its entries one or more levels down.
            let mut drained = std::mem::take(&mut self.scratch);
            std::mem::swap(&mut self.levels[level][slot], &mut drained);
            self.occupied[level] &= !(1 << slot);
            let span = SLOT_BITS * (level as u32 + 1);
            self.anchor = (self.anchor & !((1u64 << span) - 1))
                | ((slot as u64) << (SLOT_BITS * level as u32));
            for e in drained.drain(..) {
                self.file(e);
            }
            self.scratch = drained;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::task::Wake;

    struct Noop;
    impl Wake for Noop {
        fn wake(self: Arc<Self>) {}
    }

    fn noop() -> Fire {
        Fire::Wake(Waker::from(Arc::new(Noop)))
    }

    /// A waker that records its id when woken, so tests can observe
    /// exactly which registration fired.
    struct Rec {
        id: u64,
        log: Arc<Mutex<Vec<u64>>>,
    }
    impl Wake for Rec {
        fn wake(self: Arc<Self>) {
            self.log.lock().unwrap().push(self.id);
        }
    }

    fn rec(id: u64, log: &Arc<Mutex<Vec<u64>>>) -> Fire {
        Fire::Wake(Waker::from(Arc::new(Rec {
            id,
            log: Arc::clone(log),
        })))
    }

    /// An event that records its token when fired.
    struct RecEvent(Arc<Mutex<Vec<u64>>>);
    impl TimerEvent for RecEvent {
        fn fire(self: Rc<Self>, token: u64) {
            self.0.lock().unwrap().push(token);
        }
    }

    /// Pops everything, firing each timer; returns the deadlines in
    /// fire order.
    fn drain(wheel: &mut TimerWheel) -> Vec<u64> {
        let mut deadlines = Vec::new();
        while let Some((d, w)) = wheel.pop() {
            deadlines.push(d);
            w.fire();
        }
        deadlines
    }

    #[test]
    fn fires_in_deadline_then_registration_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut w = TimerWheel::new();
        for (id, deadline) in [
            (0u64, 500u64),
            (1, 100),
            (2, 100),
            (3, 3_000_000),
            (4, 100),
            (5, 65),
            (6, 500),
        ] {
            w.insert(deadline, rec(id, &log));
        }
        let deadlines = drain(&mut w);
        assert_eq!(deadlines, vec![65, 100, 100, 100, 500, 500, 3_000_000]);
        assert_eq!(*log.lock().unwrap(), vec![5, 1, 2, 4, 0, 6, 3]);
    }

    #[test]
    fn far_future_cascades_through_every_level() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut w = TimerWheel::new();
        // One deadline per level, including the overflow region, in
        // shuffled insert order.
        let inserts: [(u64, u64); 8] = [
            (0, 1 << 35),        // level 5
            (1, 1),              // level 0
            (2, 1 << 9),         // level 1
            (3, (1 << 36) + 77), // overflow
            (4, 1 << 20),        // level 3
            (5, 1 << 14),        // level 2
            (6, 1 << 27),        // level 4
            (7, (1 << 40) + 5),  // deep overflow
        ];
        for (id, deadline) in inserts {
            w.insert(deadline, rec(id, &log));
        }
        let deadlines = drain(&mut w);
        let mut sorted = deadlines.clone();
        sorted.sort_unstable();
        assert_eq!(deadlines, sorted);
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 5, 4, 6, 0, 3, 7]);
    }

    #[test]
    fn wakers_and_events_of_one_deadline_fire_in_registration_order_across_a_cascade() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let event = Rc::new(RecEvent(Arc::clone(&log)));
        let mut w = TimerWheel::new();
        // Level 3 from the anchor at zero: the slot cascades three
        // times on its way down, behind a nearer timer that fires first.
        let d = (1 << 20) + 0x2a5;
        for id in 0..6u64 {
            if id % 2 == 0 {
                w.insert(d, rec(id, &log));
            } else {
                w.insert(d, Fire::Event(event.clone(), id));
            }
        }
        w.insert(d - 1, Fire::Event(event.clone(), 100));
        w.insert(7, rec(200, &log));
        // Registered once the anchor has moved into the deadline's
        // level-1 window: filed straight there, behind the six that
        // cascade into it.
        let (first, fire) = w.pop().expect("nearest timer");
        assert_eq!(first, 7);
        fire.fire();
        w.insert(d, Fire::Event(event, 6));
        assert_eq!(drain(&mut w), vec![d - 1, d, d, d, d, d, d, d]);
        assert_eq!(*log.lock().unwrap(), vec![200, 100, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn interleaved_insert_pop_keeps_order() {
        // Pop a few, insert nearer deadlines (always >= anchor), pop
        // again — the wheel must merge them in order.
        let mut w = TimerWheel::new();
        w.insert(1_000, noop());
        w.insert(50_000, noop());
        assert_eq!(w.pop().map(|(d, _)| d), Some(1_000));
        // Anchor is now 1_000; insert between anchor and the pending.
        w.insert(1_001, noop());
        w.insert(49_999, noop());
        w.insert(1_000, noop()); // exactly at the anchor: due now
        assert_eq!(w.pop().map(|(d, _)| d), Some(1_000));
        assert_eq!(w.pop().map(|(d, _)| d), Some(1_001));
        assert_eq!(w.pop().map(|(d, _)| d), Some(49_999));
        assert_eq!(w.pop().map(|(d, _)| d), Some(50_000));
        assert!(w.pop().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_window_crossing_preserves_registration_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut w = TimerWheel::new();
        let d = (1 << 36) + 123;
        // Equal deadlines registered on both sides of a near pop; the
        // far deadline sits beyond the horizon both times, so both
        // registrations take the overflow path and must keep order.
        w.insert(d, rec(0, &log));
        w.insert(5, rec(1, &log));
        let (dl, wk) = w.pop().expect("nearest timer");
        assert_eq!(dl, 5);
        wk.fire();
        // Anchor (5) is still below `d`'s horizon window, so this
        // second registration also lands in overflow, behind the first.
        w.insert(d, rec(2, &log));
        assert_eq!(drain(&mut w), vec![d, d]);
        assert_eq!(*log.lock().unwrap(), vec![1, 0, 2]);
    }

    #[test]
    fn matches_a_reference_heap_on_random_schedules() {
        use crate::rng::DetRng;
        // Differential test: the wheel must agree with a sorted-vec
        // reference on arbitrary interleavings of inserts and pops.
        for seed in 0..8u64 {
            let rng = DetRng::seeded(seed);
            let mut w = TimerWheel::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let mut anchor = 0u64;
            let mut order = 0u64;
            for _ in 0..2_000 {
                if rng.bool(0.6) || reference.is_empty() {
                    // Bias toward near deadlines, with occasional far
                    // ones to exercise cascades and overflow.
                    let span: u64 = if rng.bool(0.05) {
                        rng.gen_range(1 << 30..1 << 38)
                    } else {
                        rng.gen_range(0..200_000)
                    };
                    let d = anchor + span;
                    w.insert(d, noop());
                    reference.push((d, order));
                    order += 1;
                } else {
                    let got = w.pop().map(|(d, _)| d);
                    reference.sort_unstable();
                    let want = reference.remove(0);
                    assert_eq!(got, Some(want.0), "seed {seed}");
                    anchor = want.0;
                }
            }
            // Drain the rest.
            reference.sort_unstable();
            for (d, _) in reference {
                assert_eq!(w.pop().map(|(dl, _)| dl), Some(d), "seed {seed}");
            }
            assert!(w.pop().is_none());
        }
    }
}
