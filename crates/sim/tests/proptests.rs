//! Property-based tests for the simulation kernel.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use proptest::prelude::*;

use pcsi_sim::{Sim, SimHandle, SimTime, TimerEvent};

/// Logs `(instant, token)` each time it fires.
struct Log(SimHandle, Rc<RefCell<Vec<(u64, u64)>>>);

impl TimerEvent for Log {
    fn fire(self: Rc<Self>, token: u64) {
        self.1.borrow_mut().push((self.0.now().as_nanos(), token));
    }
}

/// An instant not before `now`, of one of four shapes: due now, one of
/// three instants on a 4,096 ns grid (shared across steps, so equal
/// deadlines reach the wheel's upper levels and cascade), anywhere
/// near, and beyond the timer wheel's 2^36 ns horizon.
fn instant(now: u64, shape: u64, offset: u64) -> u64 {
    match shape {
        0 => now,
        1 => ((now >> 12) + 1 + offset % 3) << 12,
        2 => now + offset,
        _ => now + (1 << 36) + offset,
    }
}

proptest! {
    /// The executor is deterministic: an arbitrary forest of sleeping,
    /// spawning tasks produces the identical completion order and final
    /// clock on every run with the same inputs.
    #[test]
    fn executor_schedule_is_deterministic(
        delays in proptest::collection::vec((0u64..5_000, 0u64..2_000), 1..40),
        seed in any::<u64>(),
    ) {
        let run = |delays: &[(u64, u64)]| -> (u64, Vec<usize>, u64) {
            let mut sim = Sim::new(seed);
            let h = sim.handle();
            let delays = delays.to_vec();
            let order = sim.block_on(async move {
                let log = Rc::new(std::cell::RefCell::new(Vec::new()));
                let mut joins = Vec::new();
                for (i, (outer, inner)) in delays.into_iter().enumerate() {
                    let h2 = h.clone();
                    let log = Rc::clone(&log);
                    joins.push(h.spawn(async move {
                        h2.sleep(Duration::from_nanos(outer)).await;
                        // A nested spawn exercises queue interleaving.
                        let h3 = h2.clone();
                        let child = h2.spawn(async move {
                            h3.sleep(Duration::from_nanos(inner)).await;
                        });
                        child.await;
                        log.borrow_mut().push(i);
                    }));
                }
                for j in joins {
                    j.await;
                }
                let order = log.borrow().clone();
                (h.now().as_nanos(), order)
            });
            (order.0, order.1, sim.poll_count())
        };
        let a = run(&delays);
        let b = run(&delays);
        prop_assert_eq!(a, b);
    }

    /// Virtual time equals the maximum end-to-end sleep chain, exactly.
    #[test]
    fn clock_advances_to_longest_chain(
        chains in proptest::collection::vec(
            proptest::collection::vec(0u64..10_000, 1..6),
            1..10,
        ),
    ) {
        let expected: u64 = chains.iter().map(|c| c.iter().sum::<u64>()).max().unwrap();
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let chains2 = chains.clone();
        let end = sim.block_on(async move {
            let mut joins = Vec::new();
            for chain in chains2 {
                let h2 = h.clone();
                joins.push(h.spawn(async move {
                    for step in chain {
                        h2.sleep(Duration::from_nanos(step)).await;
                    }
                }));
            }
            for j in joins {
                j.await;
            }
            h.now().as_nanos()
        });
        prop_assert_eq!(end, expected);
    }

    /// Named RNG streams are independent of creation order.
    #[test]
    fn rng_streams_order_independent(seed in any::<u64>()) {
        use pcsi_sim::RngStreams;
        let a = RngStreams::new(seed);
        let b = RngStreams::new(seed);
        // Touch streams in different orders.
        let a_x = a.stream("x");
        let _a_y = a.stream("y");
        let _b_y = b.stream("y");
        let b_x = b.stream("x");
        for _ in 0..8 {
            prop_assert_eq!(a_x.u64(), b_x.u64());
        }
    }

    /// Events fire in `(instant, registration order)`, checked against
    /// a map keyed by both, on random schedules made against a moving
    /// clock: each step cancels a few earlier events (pending, fired or
    /// already cancelled), schedules a few, then sleeps, so
    /// registrations and cancels interleave with fires.
    #[test]
    fn events_fire_in_instant_then_registration_order(
        steps in proptest::collection::vec(
            (0usize..4, 0u64..4, 0u64..200_000, 0u64..100_000, 0u64..3),
            1..60,
        ),
    ) {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let event = Rc::new(Log(h.clone(), Rc::clone(&log)));
        let (got, want) = sim.block_on(async move {
            let mut reference = BTreeMap::new();
            let mut issued = Vec::new();
            let mut want = Vec::new();
            let mut pop_fired = |reference: &mut BTreeMap<(u64, u64), u64>| {
                for _ in 0..log.borrow().len() - want.len() {
                    let ((at, _), token) = reference.pop_first().expect("no more fired than scheduled");
                    want.push((at, token));
                }
            };
            for (count, shape, offset, nap, cancels) in steps {
                for k in 0..cancels.min(issued.len() as u64) {
                    let (id, key) = issued[((offset + k * 7_919) % issued.len() as u64) as usize];
                    let pending = reference.remove(&key).is_some();
                    let before = h.pending_timers();
                    h.cancel(id);
                    assert_eq!(h.pending_timers() + usize::from(pending), before);
                }
                for i in 0..count as u64 {
                    let seq = issued.len() as u64;
                    let at = instant(h.now().as_nanos(), shape, offset * (i + 1));
                    let id = h.schedule(SimTime::from_nanos(at), event.clone(), seq);
                    reference.insert((at, seq), seq);
                    issued.push((id, (at, seq)));
                }
                h.sleep(Duration::from_nanos(nap)).await;
                // What fired leaves the reference, in the reference's
                // order: cancelling it later is a stale id.
                pop_fired(&mut reference);
            }
            let last = reference.keys().next_back().map_or(0, |&(at, _)| at);
            h.sleep_until(SimTime::from_nanos(last + 1)).await;
            pop_fired(&mut reference);
            let got = log.borrow().clone();
            (got, want)
        });
        prop_assert_eq!(got, want);
    }
}
