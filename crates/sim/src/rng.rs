//! Deterministic, named random-number streams.
//!
//! Determinism across runs *and across refactorings* requires that each
//! logical source of randomness (request inter-arrival times, payload
//! contents, replica jitter, ...) draws from its own stream, seeded by a
//! stable function of `(simulation seed, stream name)`. Adding a new
//! component then cannot perturb the draws an existing component sees.
//!
//! Every stream is one xoshiro256++ generator (Blackman and Vigna). A
//! stream seeded with `s` starts from the state whose word `i` is
//! [`splitmix64`]`(s + i·0x9E37_79B9_7F4A_7C15)`, `i = 0..3`; a named
//! stream's `s` is `splitmix64(seed ^ fnv1a(name))`. Every draw in the
//! workspace goes through [`DetRng`]'s methods.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use fxhash::FxHashMap;

/// The SplitMix64 mixer: spreads seed material over all 64 bits.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string; stable name hashing for stream derivation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The xoshiro256++ state behind one stream.
struct Xoshiro([u64; 4]);

impl Xoshiro {
    fn seeded(seed: u64) -> Self {
        let s: [u64; 4] = std::array::from_fn(|i| {
            splitmix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64)))
        });
        // The all-zero state is xoshiro's one fixed point, but SplitMix64
        // is a bijection: at most one of four distinct inputs maps to 0.
        debug_assert_ne!(s, [0; 4]);
        Xoshiro(s)
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// The collection of named RNG streams owned by a simulation.
///
/// Cloning is cheap and shares state: two clones asking for the same stream
/// name continue the *same* sequence, which is the desired behaviour for a
/// handle threaded through many components.
#[derive(Clone)]
pub struct RngStreams {
    seed: u64,
    streams: Rc<RefCell<FxHashMap<String, Rc<RefCell<Xoshiro>>>>>,
}

impl RngStreams {
    /// Creates the stream set for a given simulation seed.
    pub fn new(seed: u64) -> Self {
        RngStreams {
            seed,
            streams: Rc::new(RefCell::new(FxHashMap::default())),
        }
    }

    /// The simulation seed the streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns the stream named `name`, creating it on first use.
    pub fn stream(&self, name: &str) -> DetRng {
        let mut map = self.streams.borrow_mut();
        // Look up by `&str` first: components fetch their stream on
        // every draw, and the steady-state path must not allocate a
        // `String` per call just to feed `entry()`. Stream seeds are a
        // pure function of `(seed, name)`, so first-use creation order
        // never affects the sequences.
        if let Some(rng) = map.get(name) {
            return DetRng {
                inner: Rc::clone(rng),
            };
        }
        let s = splitmix64(self.seed ^ fnv1a(name.as_bytes()));
        let rng = Rc::new(RefCell::new(Xoshiro::seeded(s)));
        map.insert(name.to_owned(), Rc::clone(&rng));
        DetRng { inner: rng }
    }

    /// Returns the stream `"{name}/{index}"` — a convenience for
    /// per-entity streams (one per worker, link, or shard) so callers
    /// don't interleave draws on a single shared stream.
    pub fn stream_indexed(&self, name: &str, index: u64) -> DetRng {
        self.stream(&format!("{name}/{index}"))
    }
}

impl std::fmt::Debug for RngStreams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RngStreams")
            .field("seed", &self.seed)
            .finish()
    }
}

/// A handle to one deterministic stream, with the distributions the
/// workload generators need.
#[derive(Clone)]
pub struct DetRng {
    inner: Rc<RefCell<Xoshiro>>,
}

impl DetRng {
    /// A standalone stream (not tied to a [`RngStreams`] set); useful in
    /// unit tests.
    pub fn seeded(seed: u64) -> Self {
        DetRng {
            inner: Rc::new(RefCell::new(Xoshiro::seeded(splitmix64(seed)))),
        }
    }

    /// Next raw 64-bit draw.
    pub fn u64(&self) -> u64 {
        self.inner.borrow_mut().next()
    }

    /// Uniform draw from `range`: two draws, the first as the high word
    /// of a 128-bit numerator, reduced modulo the range's width (the bias
    /// is below 2^-64).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range: empty range");
        let mut g = self.inner.borrow_mut();
        let wide = (u128::from(g.next()) << 64) | u128::from(g.next());
        range.start + (wide % u128::from(range.end - range.start)) as u64
    }

    /// Uniform draw in `[0, 1)`: the top 53 bits of one draw.
    pub fn f64(&self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bool(&self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponential draw with the given mean (inter-arrival times of a
    /// Poisson process).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exp(&self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "exp() needs mean > 0");
        // Inverse-CDF sampling; (1 - u) avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Log-normal draw parameterized by the *median* and sigma of the
    /// underlying normal (Box–Muller).
    pub fn lognormal(&self, median: f64, sigma: f64) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        median * (sigma * z).exp()
    }

    /// Zipf-distributed rank in `[0, n)` with skew `theta` (0 = uniform,
    /// ~0.99 is the YCSB default), by the rejection-inversion-free CDF
    /// method of Gray et al. The distribution constants are precomputed
    /// once in a [`ZipfParams`], so a draw is one uniform sample plus a
    /// single `powf` — the right shape for per-request samplers in hot
    /// workload loops.
    pub fn zipf_from(&self, p: &ZipfParams) -> u64 {
        if p.theta == 0.0 {
            return self.gen_range(0..p.n);
        }
        let u = self.f64();
        let uz = u * p.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < p.two_thresh {
            return 1;
        }
        let rank = (p.nf * (p.eta * u - p.eta + 1.0).powf(p.alpha)) as u64;
        rank.min(p.n - 1)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choice<'a, T>(&self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choice() needs a non-empty slice");
        &items[self.gen_range(0..items.len() as u64) as usize]
    }

    /// Fills `buf` with pseudo-random bytes: one little-endian draw per
    /// 8 bytes, the last one truncated.
    pub fn fill_bytes(&self, buf: &mut [u8]) {
        let mut g = self.inner.borrow_mut();
        for chunk in buf.chunks_mut(8) {
            chunk.copy_from_slice(&g.next().to_le_bytes()[..chunk.len()]);
        }
    }
}

impl std::fmt::Debug for DetRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DetRng")
    }
}

/// Approximates the generalized harmonic number `H_{n,theta}` (the zeta
/// normalizer) with the Euler–Maclaurin integral form; exact enough for
/// workload skew and `O(1)` instead of `O(n)`.
/// Precomputed constants for [`DetRng::zipf_from`]: everything in the
/// Gray et al. (SIGMOD '94) sampler that depends only on `(n, theta)`.
#[derive(Debug, Clone, Copy)]
pub struct ZipfParams {
    n: u64,
    nf: f64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
    /// `1 + 0.5^theta`, the CDF threshold below which the rank is 1.
    two_thresh: f64,
}

impl ZipfParams {
    /// Computes the sampler constants.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf() needs n > 0");
        assert!(theta >= 0.0, "zipf() needs theta >= 0");
        let nf = n as f64;
        if theta == 0.0 {
            // Uniform degenerate case; the draw path never reads these.
            return ZipfParams {
                n,
                nf,
                theta,
                zetan: 0.0,
                alpha: 0.0,
                eta: 0.0,
                two_thresh: 0.0,
            };
        }
        // Quick-and-accurate method from Gray et al., "Quickly generating
        // billion-record synthetic databases" (SIGMOD '94).
        let zetan = zeta_approx(nf, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta_approx(2.0, theta) / zetan);
        ZipfParams {
            n,
            nf,
            theta,
            zetan,
            alpha,
            eta,
            two_thresh: 1.0 + 0.5f64.powf(theta),
        }
    }
}

/// The width of a seeded sweep (seeds or cases) the environment variable
/// `var` sets: `default` when it is unset. A set value that does not
/// parse is a typo in the invocation; falling back to the small default
/// would turn a CI sweep into a smoke test that still prints green, so
/// it panics instead.
pub fn sweep_width(var: &str, default: usize) -> usize {
    parse_width(var, std::env::var(var).ok().as_deref(), default)
}

fn parse_width(var: &str, value: Option<&str>, default: usize) -> usize {
    match value {
        None => default,
        Some(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{var}={s:?} is not a count")),
    }
}

fn zeta_approx(n: f64, theta: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-9 {
        n.ln() + 0.577_215_664_901_532_9
    } else {
        (n.powf(1.0 - theta) - 1.0) / (1.0 - theta) + 0.5 + 0.5 * n.powf(-theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_width_is_the_default_only_when_unset() {
        assert_eq!(parse_width("SEEDS", None, 6), 6);
        assert_eq!(parse_width("SEEDS", Some("128"), 6), 128);
        assert_eq!(parse_width("SEEDS", Some(" 128 "), 6), 128);
    }

    #[test]
    #[should_panic(expected = "SEEDS=\"12x\" is not a count")]
    fn sweep_width_rejects_a_typo() {
        parse_width("SEEDS", Some("12x"), 6);
    }

    #[test]
    #[should_panic(expected = "SEEDS=\"\" is not a count")]
    fn sweep_width_rejects_an_empty_value() {
        parse_width("SEEDS", Some(""), 6);
    }

    #[test]
    fn indexed_streams_are_independent_and_stable() {
        let a = RngStreams::new(7);
        let s0: Vec<u64> = (0..8).map(|_| a.stream_indexed("w", 0).u64()).collect();
        let s1: Vec<u64> = (0..8).map(|_| a.stream_indexed("w", 1).u64()).collect();
        assert_ne!(s0, s1);
        // An indexed stream is just the named stream "{name}/{index}".
        let b = RngStreams::new(7);
        let named: Vec<u64> = (0..8).map(|_| b.stream("w/0").u64()).collect();
        assert_eq!(s0, named);
    }

    #[test]
    fn same_name_same_seed_same_sequence() {
        let a = RngStreams::new(7);
        let b = RngStreams::new(7);
        let sa: Vec<u64> = (0..16).map(|_| a.stream("x").u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.stream("x").u64()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_names_decorrelate() {
        let s = RngStreams::new(7);
        assert_ne!(s.stream("a").u64(), s.stream("b").u64());
    }

    #[test]
    fn clones_share_stream_state() {
        let s = RngStreams::new(7);
        let first = s.stream("x").u64();
        let second = s.clone().stream("x").u64();
        // The clone continues the same sequence, not a restarted one.
        let fresh = RngStreams::new(7);
        let expect0 = fresh.stream("x").u64();
        let expect1 = fresh.stream("x").u64();
        assert_eq!((first, second), (expect0, expect1));
    }

    #[test]
    fn exp_mean_is_close() {
        let r = DetRng::seeded(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(250.0)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 10.0, "mean was {mean}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let r = DetRng::seeded(4);
        let n = 1_000u64;
        let mut counts = vec![0u32; n as usize];
        let skewed = ZipfParams::new(n, 0.99);
        for _ in 0..50_000 {
            let k = r.zipf_from(&skewed);
            assert!(k < n);
            counts[k as usize] += 1;
        }
        // Rank 0 must dominate the tail decisively.
        assert!(counts[0] > 20 * counts[100].max(1));
        // And theta = 0 degrades to uniform-ish.
        let r2 = DetRng::seeded(4);
        let uniform = ZipfParams::new(n, 0.0);
        let mut head = 0;
        for _ in 0..10_000 {
            if r2.zipf_from(&uniform) == 0 {
                head += 1;
            }
        }
        assert!(head < 100, "uniform head count was {head}");
    }

    #[test]
    fn bool_probability_tracks_p() {
        let r = DetRng::seeded(5);
        let hits = (0..10_000).filter(|_| r.bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn lognormal_median_is_close() {
        let r = DetRng::seeded(8);
        let mut v: Vec<f64> = (0..9_999).map(|_| r.lognormal(10.0, 0.5)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 10.0).abs() < 1.0, "median = {median}");
    }

    #[test]
    fn gen_range_bounds() {
        let r = DetRng::seeded(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.gen_range(10..20);
            assert!((10..20).contains(&x));
            seen[(x - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "range not covered: {seen:?}");
    }

    /// Every method's first draws on a fresh stream, in one order: four
    /// `u64`, two narrow and one wide `gen_range`, two `f64`, four
    /// `bool`, one `exp`, one `lognormal`, then 13 bytes. Floats are
    /// compared by their bits.
    fn first_draws(r: &DetRng) -> (Vec<u64>, [u8; 13]) {
        let mut v: Vec<u64> = (0..4).map(|_| r.u64()).collect();
        v.extend((0..2).map(|_| r.gen_range(10..1_000)));
        v.push(r.gen_range(3..u64::MAX));
        v.extend((0..2).map(|_| r.f64().to_bits()));
        v.extend((0..4).map(|_| u64::from(r.bool(0.5))));
        v.push(r.exp(100.0).to_bits());
        v.push(r.lognormal(10.0, 0.5).to_bits());
        let mut bytes = [0u8; 13];
        r.fill_bytes(&mut bytes);
        (v, bytes)
    }

    /// Known answers: every stream, golden and benchmark digest rests on
    /// these draws, so a change to the generator, its seeding or a
    /// method's use of it fails here first.
    #[test]
    fn first_draws_are_pinned() {
        let s = RngStreams::new(0xC0FFEE);
        let cases: [(DetRng, [u64; 15], [u8; 13]); 3] = [
            (
                s.stream("net-faults"),
                [
                    6653319581312869208,
                    1090435950247373154,
                    6000449483224947247,
                    5053190232928079818,
                    0x5a,
                    0x392,
                    0x1c0890ae78924987,
                    0x3fd657f00ca65a70,
                    0x3fed28996fc3a633,
                    1,
                    0,
                    0,
                    0,
                    0x405890c1e0101d34,
                    0x402abd6fad76f7d8,
                ],
                [109, 40, 221, 154, 80, 142, 81, 94, 61, 241, 31, 209, 145],
            ),
            (
                s.stream_indexed("worker", 3),
                [
                    0xe41bcc0457f1420e,
                    0xf3830aac902473f4,
                    0x5a5c627af4b1ae93,
                    0xb072e685a32e0cb3,
                    0x3b3,
                    0x2b4,
                    0x1959acee04069752,
                    0x3fec5921a18ce117,
                    0x3fe106bc3b1b78dd,
                    1,
                    0,
                    1,
                    1,
                    0x406c4da645ce4c4f,
                    0x401829c6518c112e,
                ],
                [222, 222, 200, 42, 170, 247, 75, 179, 163, 226, 241, 194, 93],
            ),
            (
                DetRng::seeded(42),
                [
                    12343323003495711280,
                    1641377365623878930,
                    16068605123119461831,
                    10057471241892641806,
                    0x356,
                    0x1a5,
                    0x669b14c594520876,
                    0x3fd48725f5faa8c4,
                    0x3fd678c3e17dcf94,
                    1,
                    0,
                    0,
                    0,
                    0x4072c77d3e2f25de,
                    0x402f4a09489c8fc2,
                ],
                [28, 12, 219, 16, 189, 251, 127, 147, 220, 37, 193, 36, 173],
            ),
        ];
        for (r, words, bytes) in cases {
            assert_eq!(first_draws(&r), (words.to_vec(), bytes));
        }
    }
}
