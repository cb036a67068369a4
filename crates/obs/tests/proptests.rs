//! Property-based tests for the SLO burn-rate math and alert state
//! machines, plus the 128-seed determinism sweep for transition
//! sequences.

use std::time::Duration;

use proptest::prelude::*;

use pcsi_metrics::Metrics;
use pcsi_obs::{AlertMachine, AlertState, SloEngine, SloRule, WindowDiff};
use pcsi_sim::DetRng;

proptest! {
    /// Rule text arrives through `ObsConfig::rules`, a deployment's
    /// configuration. Arbitrary strings, rules assembled from the
    /// grammar's own pieces (heads, selectors and clauses in any order,
    /// with numbers at the edge of `u64` and braces the wrong way round)
    /// and a valid rule of each form with any one byte changed parse or
    /// are refused with a message — never panic.
    #[test]
    fn rule_parse_never_panics(
        s in ".{0,160}",
        picks in proptest::collection::vec(any::<u8>(), 2..12),
        at in any::<u64>(),
        to in any::<u8>(),
    ) {
        let _ = SloRule::parse(&s);

        const MAX: &str = "18446744073709551615";
        let heads = ["p99", "p99.9", "p.5", "p", "p0", "p100", "burn", "q", &format!("p{MAX}.999999")];
        let selectors = ["h", "h{op=\"w\"}", "a / b", "a{x=\"1\"} / b", "a}b{c", "{}", "}{", "/", "h{op}", ""];
        let clauses = [
            "<", "over", "for", "clear", "budget", "fast", "slow", "rate", "1s", "2ms", "0ns", "3",
            "1%", "0.5%", "0%", "1.5", "x", "é", MAX,
            &format!("{MAX}ns"),
            &format!("{MAX}m"), &format!("{MAX}%"), &format!("{MAX}.5"), &format!("9{MAX}"),
        ];
        let pick = |pool: &[&str], byte: u8| pool[byte as usize % pool.len()].to_owned();
        let mut rule = format!("r: {}({})", pick(&heads, picks[0]), pick(&selectors, picks[1]));
        for &byte in &picks[2..] {
            rule.push(' ');
            rule.push_str(&pick(&clauses, byte));
        }
        // What parses also evaluates: one tick over series at the edge
        // of `u64`.
        if let Ok(rule) = SloRule::parse(&rule) {
            let m = Metrics::new();
            for family in ["h", "a", "b"] {
                m.counter(family, &[]).add(u64::MAX);
            }
            SloEngine::new(vec![rule], Duration::from_millis(5)).tick(&m, 5_000_000);
        }

        for valid in [
            "w: p99.9(kernel.op_ns{op=\"write\",t=\"a\"}) < 2ms over 15ms for 2 clear 3",
            "f: burn(store.failovers / kernel.ops{op=\"write\"}) budget 0.5% fast 10ms slow 25ms rate 1.5 for 2",
        ] {
            prop_assert!(SloRule::parse(valid).is_ok());
            let mut corrupted = valid.as_bytes().to_vec();
            let at = (at % corrupted.len() as u64) as usize;
            corrupted[at] = to;
            let _ = SloRule::parse(&String::from_utf8_lossy(&corrupted));
        }
    }

    /// Window accounting never double-counts across tick boundaries:
    /// for any increment sequence and window size, the windowed delta
    /// at tick t equals the sum of exactly the last `min(W, t+1)`
    /// increments — each increment is attributed to one inter-tick
    /// interval and appears in exactly `W` consecutive windows.
    #[test]
    fn window_delta_is_exactly_the_trailing_sum(
        increments in proptest::collection::vec(0u64..1_000, 1..120),
        window in 1usize..12,
    ) {
        let mut w = WindowDiff::new(window);
        let mut cum = 0u64;
        for (t, inc) in increments.iter().enumerate() {
            cum += inc;
            let delta = w.push(cum);
            let lo = (t + 1).saturating_sub(window);
            let expect: u64 = increments[lo..=t].iter().sum();
            prop_assert_eq!(delta, expect, "tick {}", t);
        }
    }

    /// With a 1-tick window the deltas partition the total: summing
    /// every windowed delta reproduces the cumulative count exactly
    /// (nothing lost, nothing counted twice).
    #[test]
    fn unit_windows_partition_the_total(
        increments in proptest::collection::vec(0u64..10_000, 1..100),
    ) {
        let mut w = WindowDiff::new(1);
        let mut cum = 0u64;
        let mut sum_of_deltas = 0u64;
        for inc in &increments {
            cum += inc;
            sum_of_deltas += w.push(cum);
        }
        prop_assert_eq!(sum_of_deltas, cum);
    }

    /// Hysteresis is monotone in `for_ticks`: against the same verdict
    /// sequence, a machine requiring more consecutive breaches spends a
    /// subset of ticks firing, and never fires earlier.
    #[test]
    fn hysteresis_is_monotone_in_for_ticks(
        verdicts in proptest::collection::vec(any::<bool>(), 1..80),
        f1 in 1u32..6,
        extra in 0u32..5,
        clear in 1u32..4,
    ) {
        let f2 = f1 + extra;
        let mut a = AlertMachine::new(f1, clear);
        let mut b = AlertMachine::new(f2, clear);
        let mut first_fire = (None, None);
        for (t, &v) in verdicts.iter().enumerate() {
            a.step(v);
            b.step(v);
            if a.state() == AlertState::Firing && first_fire.0.is_none() {
                first_fire.0 = Some(t);
            }
            if b.state() == AlertState::Firing && first_fire.1.is_none() {
                first_fire.1 = Some(t);
            }
            // The stricter machine can only fire when the lax one does.
            prop_assert!(
                b.state() != AlertState::Firing || a.state() == AlertState::Firing,
                "tick {}: for={} firing while for={} is not", t, f2, f1
            );
        }
        if let (Some(t1), Some(t2)) = first_fire {
            prop_assert!(t2 >= t1, "stricter machine fired earlier");
        }
    }

    /// Hysteresis is monotone in `clear_ticks`: a machine requiring
    /// more clean ticks to resolve is firing whenever the laxer one is.
    #[test]
    fn hysteresis_is_monotone_in_clear_ticks(
        verdicts in proptest::collection::vec(any::<bool>(), 1..80),
        for_ticks in 1u32..4,
        c1 in 1u32..6,
        extra in 0u32..5,
    ) {
        let c2 = c1 + extra;
        let mut a = AlertMachine::new(for_ticks, c1);
        let mut b = AlertMachine::new(for_ticks, c2);
        for (t, &v) in verdicts.iter().enumerate() {
            a.step(v);
            b.step(v);
            prop_assert!(
                a.state() != AlertState::Firing || b.state() == AlertState::Firing,
                "tick {}: clear={} resolved while clear={} still firing", t, c1, c2
            );
        }
    }
}

/// Drives a two-rule engine with a seed-derived synthetic workload and
/// returns the rendered transition log.
fn synthetic_transition_log(seed: u64) -> String {
    let rng = DetRng::seeded(seed);
    let m = Metrics::new();
    let hist = m.histogram("svc.lat_ns", &[]);
    let errs = m.counter("svc.errors", &[]);
    let ops = m.counter("svc.ops", &[]);
    let rules = vec![
        SloRule::parse("lat: p95(svc.lat_ns) < 1ms over 3s for 2 clear 2").unwrap(),
        SloRule::parse("burn: burn(svc.errors / svc.ops) budget 1% fast 2s slow 6s rate 3")
            .unwrap(),
    ];
    let mut eng = SloEngine::new(rules, Duration::from_secs(1));
    let mut log = String::new();
    for tick in 1..=40u64 {
        // A seed-dependent incident window makes some seeds page and
        // others not — the sweep must hold either way.
        let incident = tick % (8 + seed % 7) < 3;
        for _ in 0..rng.gen_range(5..40) {
            let lat = if incident && rng.bool(0.6) {
                2_000_000 + rng.gen_range(0..8_000_000)
            } else {
                rng.gen_range(10_000..900_000)
            };
            hist.record(lat);
            ops.incr();
            if incident && rng.bool(0.2) {
                errs.incr();
            }
        }
        for t in eng.tick(&m, tick * 1_000_000_000) {
            log.push_str(&t.render());
            log.push('\n');
        }
    }
    log
}

/// Satellite 3's sweep: alert transition sequences are a pure function
/// of the seed. 128 seeds, each evaluated twice; any nondeterminism in
/// window math, rule ordering or state machines diverges the logs.
#[test]
fn transition_sequences_are_deterministic_per_seed_128_sweep() {
    let mut fired_any = false;
    for seed in 0..128u64 {
        let a = synthetic_transition_log(0xb0b0_0000 + seed);
        let b = synthetic_transition_log(0xb0b0_0000 + seed);
        assert_eq!(a, b, "seed {seed} diverged");
        fired_any |= !a.is_empty();
    }
    assert!(
        fired_any,
        "sweep never produced a single transition — inputs too tame"
    );
}

/// Distinct seeds must be able to produce distinct logs (the sweep is
/// not vacuous because everything collapsed to one trajectory).
#[test]
fn seeds_actually_shape_the_transition_log() {
    let logs: Vec<String> = (0..16u64)
        .map(|s| synthetic_transition_log(0xabc0 + s))
        .collect();
    assert!(
        logs.iter().any(|l| l != &logs[0]),
        "16 seeds all produced identical logs"
    );
}
