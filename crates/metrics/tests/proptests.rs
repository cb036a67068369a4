//! Property-based tests for the metrics histogram and renderer.

use proptest::prelude::*;

use pcsi_metrics::{fingerprint, Histogram, Metrics};

proptest! {
    /// Every reported quantile falls inside its bucket's error bound:
    /// the true order statistic at rank ⌈q·n⌉ lies in the half-open
    /// bucket range the reported value names.
    #[test]
    fn quantile_falls_within_its_bucket(
        mut values in proptest::collection::vec(0u64..1u64 << 48, 1..300),
        qs in proptest::collection::vec(0.0f64..1.0001, 1..8),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in qs {
            let rank = ((q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize)
                .clamp(1, values.len());
            let truth = values[rank - 1];
            let reported = h.quantile(q);
            let (lo, hi) = Histogram::bucket_bounds(reported);
            prop_assert_eq!(reported, lo, "reported value must be a bucket lower edge");
            prop_assert!(
                lo <= truth && (truth < hi || hi == u64::MAX),
                "q={}: truth {} outside reported bucket [{}, {})", q, truth, lo, hi
            );
            // The documented error bound, checked against the data
            // rather than against `bucket_bounds`' own arithmetic.
            prop_assert!(
                (truth - reported) as f64 <= truth as f64 / 32.0,
                "q={}: reported {} is more than 1/32 below truth {}", q, reported, truth
            );
        }
    }

    /// min ≤ p50 ≤ p95 ≤ p99 ≤ p999 ≤ max on arbitrary data, and the
    /// sample count is preserved exactly.
    #[test]
    fn quantiles_are_monotone(
        values in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.quantiles();
        prop_assert!(s.min <= s.p50);
        prop_assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p999);
        prop_assert!(s.p999 <= s.max);
        prop_assert_eq!(s.count, values.len() as u64);
    }

    /// Rendering is a pure function of recorded state: the same series
    /// and values render byte-identically (and fingerprint-identically)
    /// regardless of registration order.
    #[test]
    fn render_is_order_independent(
        counts in proptest::collection::vec((0usize..6, 0u64..1000), 1..30),
        flip in any::<bool>(),
    ) {
        const NAMES: [&str; 6] = ["a.one", "b.two", "c.three", "d.four", "e.five", "f.six"];
        let build = |reversed: bool| {
            let m = Metrics::new();
            let iter: Vec<(usize, u64)> = if reversed {
                counts.iter().rev().copied().collect()
            } else {
                counts.clone()
            };
            for (i, n) in iter {
                m.counter(NAMES[i], &[("case", "p")]).add(n);
            }
            m.render()
        };
        let a = build(false);
        let b = build(flip);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(a, b);
    }
}
