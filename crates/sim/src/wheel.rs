//! Hierarchical timer wheel backing the executor's clock.
//!
//! The fabric registers a timer for every message hop, so timers are on
//! the path of every simulated RPC: the wheel inserts and cancels in
//! `O(1)`, pops in near-`O(1)`, and fires in `(deadline, registration
//! order)`.
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
//!
//! Each timer is one slab node; slots and overflow buckets hold `u32`
//! indices. A node the wheel reaches is freed for the next registration
//! (steady-state churn allocates nothing). A cancel drops the node's
//! action in `O(1)`, and the node waits until a cascade or pop frees it.
//! A [`TimerId`] carries the node's generation, which moves on each
//! free, so a stale id never cancels the next tenant.

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

/// Names a scheduled event for [`SimHandle::cancel`](crate::SimHandle::cancel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerId {
    index: u32,
    gen: u64,
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

/// One slab entry, pending from `insert` until the wheel reaches it.
#[derive(Default)]
struct Node {
    deadline: u64,
    /// `None` once cancelled, and while the node is free.
    fire: Option<Fire>,
    gen: u64,
}

/// A hierarchical timer wheel firing in deadline order, with ties
/// broken by registration order.
pub(crate) struct TimerWheel {
    /// Deadline of the most recently popped timer (virtual now).
    anchor: u64,
    /// `levels[L][slot]` holds the nodes whose deadline differs from
    /// the anchor most significantly in bit range `6L..6(L+1)`.
    levels: [[VecDeque<u32>; 1 << SLOT_BITS]; LEVELS],
    /// Per-level slot-occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Deadlines beyond the wheel's `2^36` ns horizon, keyed by
    /// deadline; each bucket is in registration order.
    overflow: BTreeMap<u64, Vec<u32>>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Pending timers, cancelled ones not counted.
    live: usize,
    /// Spare buffer swapped into a slot being cascaded, so steady-state
    /// cascades recycle one allocation instead of freeing and
    /// reallocating slot storage.
    scratch: VecDeque<u32>,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            anchor: 0,
            levels: std::array::from_fn(|_| std::array::from_fn(|_| VecDeque::new())),
            occupied: [0; LEVELS],
            overflow: BTreeMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            live: 0,
            scratch: VecDeque::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Registers a timer to fire at `deadline`. `deadline` must not be
    /// in the past (the executor never moves `now` above the anchor).
    pub(crate) fn insert(&mut self, deadline: u64, fire: Fire) -> TimerId {
        debug_assert!(deadline >= self.anchor, "timer registered in the past");
        let index = self.free.pop().unwrap_or_else(|| {
            self.nodes.push(Node::default());
            u32::try_from(self.nodes.len() - 1).expect("under 2^32 timers pending")
        });
        let node = &mut self.nodes[index as usize];
        (node.deadline, node.fire) = (deadline, Some(fire));
        let gen = node.gen;
        if (deadline ^ self.anchor) >> WHEEL_BITS != 0 {
            self.overflow.entry(deadline).or_default().push(index);
        } else {
            self.file(index);
        }
        self.live += 1;
        TimerId { index, gen }
    }

    /// Takes a pending timer's action out of its node, for the caller
    /// to drop. `None` if the timer already fired or was cancelled.
    pub(crate) fn cancel(&mut self, id: TimerId) -> Option<Fire> {
        let node = self.nodes.get_mut(id.index as usize)?;
        let fire = node.fire.take_if(|_| node.gen == id.gen)?;
        self.live -= 1;
        Some(fire)
    }

    /// The waker of a pending sleep's timer, to replace in place: the
    /// timer keeps its place in the firing order. `None` if it fired or
    /// was cancelled.
    pub(crate) fn waker_mut(&mut self, id: TimerId) -> Option<&mut Waker> {
        let node = self.nodes.get_mut(id.index as usize)?;
        match &mut node.fire {
            Some(Fire::Wake(waker)) if node.gen == id.gen => Some(waker),
            _ => None,
        }
    }

    /// Files an in-horizon node into its level and slot, or frees it.
    fn file(&mut self, index: u32) {
        let node = &self.nodes[index as usize];
        if node.fire.is_none() {
            self.release(index);
            return;
        }
        let x = node.deadline ^ self.anchor;
        let level = if x == 0 {
            0
        } else {
            (63 - x.leading_zeros()) / SLOT_BITS
        } as usize;
        let slot = ((node.deadline >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.levels[level][slot].push_back(index);
        self.occupied[level] |= 1 << slot;
    }

    /// Frees a node the wheel has reached, returning its action if any.
    fn release(&mut self, index: u32) -> Option<Fire> {
        let node = &mut self.nodes[index as usize];
        node.gen += 1;
        self.free.push(index);
        node.fire.take()
    }

    /// Removes and returns the earliest pending timer (registration
    /// order among equals), advancing the anchor to its deadline and
    /// freeing cancelled nodes on the way; with none live, at once `None`.
    pub(crate) fn pop(&mut self) -> Option<(u64, Fire)> {
        if self.live == 0 {
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
                    .expect("a live timer with an empty wheel is in overflow");
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
                for index in bucket {
                    self.file(index);
                }
            }

            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                // The overflow bucket just pulled was all cancelled.
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            if level == 0 {
                // A level-0 slot holds exactly equal deadlines in
                // registration order; the front is the global minimum.
                let q = &mut self.levels[0][slot];
                let index = q.pop_front().expect("occupied bit set on empty slot");
                if q.is_empty() {
                    self.occupied[0] &= !(1 << slot);
                }
                let deadline = self.nodes[index as usize].deadline;
                self.anchor = deadline;
                if let Some(fire) = self.release(index) {
                    self.live -= 1;
                    return Some((deadline, fire));
                }
                continue;
            }
            // Cascade: advance the anchor to the slot's window base and
            // re-file its entries one or more levels down.
            let mut drained = std::mem::take(&mut self.scratch);
            std::mem::swap(&mut self.levels[level][slot], &mut drained);
            self.occupied[level] &= !(1 << slot);
            let span = SLOT_BITS * (level as u32 + 1);
            self.anchor = (self.anchor & !((1u64 << span) - 1))
                | ((slot as u64) << (SLOT_BITS * level as u32));
            for index in drained.drain(..) {
                self.file(index);
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
        assert_eq!(w.len(), 0);
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
        use std::collections::BTreeMap;
        // Differential test: the wheel must agree with a map keyed by
        // `(deadline, registration seq)` on arbitrary interleavings of
        // inserts, pops and cancels, firing the same registration each
        // time. Cancels hit pending timers and stale ids alike: timers
        // that fired, were cancelled, or whose node a later timer reuses.
        for seed in 0..8u64 {
            let rng = DetRng::seeded(seed);
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut w = TimerWheel::new();
            let mut reference: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let mut issued: Vec<(TimerId, (u64, u64))> = Vec::new();
            let mut anchor = 0u64;
            let mut seq = 0u64;
            for _ in 0..2_000 {
                let roll = rng.gen_range(0..10);
                if roll < 5 || reference.is_empty() {
                    // Bias toward near deadlines, many of them equal, with
                    // occasional far ones to exercise cascades and overflow.
                    let span: u64 = match rng.gen_range(0..20) {
                        0 => rng.gen_range(1 << 30..1 << 38),
                        1..=6 => rng.gen_range(0..4) * 64,
                        _ => rng.gen_range(0..200_000),
                    };
                    let d = anchor + span;
                    let id = 1_000 + seq;
                    issued.push((w.insert(d, rec(id, &log)), (d, seq)));
                    reference.insert((d, seq), id);
                    seq += 1;
                } else if roll < 7 {
                    let (id, key) = issued[rng.gen_range(0..issued.len() as u64) as usize];
                    let pending = reference.remove(&key).is_some();
                    assert_eq!(w.cancel(id).is_some(), pending, "seed {seed}");
                } else {
                    let (d, fire) = w.pop().expect("reference is not empty");
                    fire.fire();
                    let ((want, _), id) = reference.pop_first().expect("checked");
                    assert_eq!(d, want, "seed {seed}");
                    assert_eq!(log.lock().unwrap().pop(), Some(id), "seed {seed}");
                    anchor = want;
                }
                assert_eq!(w.len(), reference.len(), "seed {seed}");
            }
            // Drain the rest.
            for ((want, _), id) in reference {
                let (d, fire) = w.pop().expect("reference is not empty");
                fire.fire();
                assert_eq!(d, want, "seed {seed}");
                assert_eq!(log.lock().unwrap().pop(), Some(id), "seed {seed}");
            }
            assert!(w.pop().is_none());
        }
    }

    /// An event that holds a counted reference, to watch when it drops.
    struct Held(#[allow(dead_code)] Rc<()>);
    impl TimerEvent for Held {
        fn fire(self: Rc<Self>, _token: u64) {}
    }

    #[test]
    fn cancel_drops_the_event_at_once_and_a_stale_id_is_a_no_op() {
        let token = Rc::new(());
        let mut w = TimerWheel::new();
        let id = w.insert(1 << 20, Fire::Event(Rc::new(Held(Rc::clone(&token))), 0));
        assert_eq!(Rc::strong_count(&token), 2);
        drop(w.cancel(id).expect("pending"));
        assert_eq!(
            Rc::strong_count(&token),
            1,
            "freed before the wheel gets there"
        );
        assert_eq!(w.len(), 0);
        assert!(w.cancel(id).is_none(), "cancelled twice");

        // The node is freed once a pop reaches it; a later timer reuses
        // it, and the first id no longer names it.
        let fired = w.insert(5, noop());
        assert_eq!(w.pop().map(|(d, _)| d), Some(5));
        assert!(w.cancel(fired).is_none(), "already fired");
        let log = Arc::new(Mutex::new(Vec::new()));
        let reused = w.insert(7, rec(9, &log));
        assert_eq!(reused.index, fired.index, "the free node is reused");
        assert!(w.cancel(fired).is_none() && w.cancel(id).is_none());
        assert_eq!(drain(&mut w), vec![7]);
        assert_eq!(*log.lock().unwrap(), vec![9]);
    }

    #[test]
    fn cancelling_an_overflow_timer_skips_it() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut w = TimerWheel::new();
        let d = (1 << 40) + 3;
        let far = w.insert(d, rec(0, &log));
        w.insert(d, rec(1, &log));
        let farther = w.insert(d + (1 << 37), rec(2, &log));
        w.insert(d + (1 << 38), rec(3, &log));
        assert!(w.cancel(far).is_some() && w.cancel(farther).is_some());
        assert_eq!(drain(&mut w), vec![d, d + (1 << 38)]);
        assert_eq!(*log.lock().unwrap(), vec![1, 3]);
    }

    #[test]
    fn cancelling_everything_leaves_nothing_to_pop() {
        let mut w = TimerWheel::new();
        let ids: Vec<_> = [3, 3, 900, 1 << 25, (1 << 36) + 1]
            .into_iter()
            .map(|d| w.insert(d, noop()))
            .collect();
        for id in ids {
            assert!(w.cancel(id).is_some());
        }
        assert_eq!(w.len(), 0);
        assert!(w.pop().is_none());
        // The anchor did not move: a timer due at zero still files.
        w.insert(0, noop());
        assert_eq!(drain(&mut w), vec![0]);
    }

    #[test]
    fn a_cascade_that_meets_only_cancelled_nodes_fires_nothing() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut w = TimerWheel::new();
        // Three level-2 timers in one slot, all cancelled, ahead of a
        // live one two slots up: the cascade frees them and moves on.
        let doomed: Vec<_> = [(1 << 13) + 5, (1 << 13) + 5, (1 << 13) + 700]
            .into_iter()
            .map(|d| w.insert(d, rec(0, &log)))
            .collect();
        w.insert(3 << 13, rec(1, &log));
        for id in doomed {
            assert!(w.cancel(id).is_some());
        }
        assert_eq!(drain(&mut w), vec![3 << 13]);
        assert_eq!(*log.lock().unwrap(), vec![1]);
        // All four nodes are free again: the next four reuse them.
        let before = w.nodes.len();
        for d in 0..4 {
            w.insert((3 << 13) + d, noop());
        }
        assert_eq!(w.nodes.len(), before);
    }
}
