//! Order statistics and hashing shared by every workload.
//!
//! Percentiles are exact-rank over sorted samples (nearest rank, no
//! interpolation and no histogram buckets), so a virtual-clock
//! percentile repeats bit-for-bit for a seed.

/// A tail percentile is reported only when at least this many samples
/// back it: p99 of 1,000 samples has exactly ten samples beyond it.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `q·n` samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The 99th percentile, or `None` when fewer than ten samples would lie
/// beyond it (classes that small report their median only).
pub fn p99(sorted: &[u64]) -> Option<u64> {
    if sorted.len() < P99_MIN_SAMPLES {
        return None;
    }
    percentile(sorted, 0.99)
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method) — the acceptance runs judge
/// run-to-run spread with that function, so `compare` must agree with
/// it digit for digit. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = ascending(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median (mean of the two middle samples when even).
pub fn median(values: &[f64]) -> f64 {
    let v = ascending(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile range as a share of the median ([`quartiles`]); `0`
/// with fewer than two samples or a zero median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// FNV-1a accumulator for pass digests (same constants as the
/// fingerprints in `pcsi-metrics` and `pcsi-trace`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one 64-bit word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a slice of words in, length first.
    pub fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v, 1.0), Some(1000));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // Odd length: the median is the middle sample itself.
        assert_eq!(percentile(&[1, 2, 9], 0.5), Some(2));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        // Rank 990 of 1000 leaves exactly ten samples above it.
        assert_eq!(p99(&v), Some(990));
        assert_eq!(v.iter().filter(|&&x| x > 990).count(), 10);
        assert_eq!(p99(&v[..999]), None);
        assert_eq!(p99(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4)
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            [1.25, 3.5, 5.75]
        );
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[5.0]), 0.0);
    }

    #[test]
    fn fnv_separates_order_and_length() {
        let mut a = Fnv::default();
        a.words(&[1, 2]);
        let mut b = Fnv::default();
        b.words(&[2, 1]);
        let mut c = Fnv::default();
        c.words(&[1]);
        c.words(&[2]);
        assert_ne!(a.0, b.0);
        assert_ne!(a.0, c.0);
    }
}
