//! Property-based tests for the simulation kernel.

use std::rc::Rc;
use std::time::Duration;

use proptest::prelude::*;

use pcsi_sim::Sim;

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
}
